//! # gpu-sim
//!
//! A functional GPU execution simulator with an analytic timing model —
//! the hardware substrate for reproducing *"A Scalable Tridiagonal
//! Solver for GPUs"* (ICPP 2011) without a physical GTX480.
//!
//! ## What "functional simulator" means here
//!
//! Kernels written against [`exec::BlockKernel`] **really execute**:
//! every load, store and arithmetic result is bit-exact, so numerical
//! outputs can be tested against host references. While executing, the
//! engine counts the micro-architectural events that first-order GPU
//! performance is made of:
//!
//! - global-memory **transactions** via a per-warp coalescing analyzer
//!   ([`memory::warp_transactions`]),
//! - shared-memory **bank conflicts** ([`memory::shared_conflict_cycles`]),
//! - FLOPs, barriers, and dependent global-access **rounds**,
//! - uncoalesced global accesses and the worst bank-conflict degree,
//!   from which [`counters::KernelStats::findings`] reads a launch's
//!   performance findings per phase.
//!
//! Every counter is counted in closed form when a kernel hands over its
//! lanes as affine pieces ([`lanes`]; [`memory::access_transactions`],
//! [`memory::access_conflict_cycles`], [`memory::access_uncoalesced`];
//! see [`exec`]), and per lane otherwise; the two agree exactly.
//!
//! A [`sanitizer`] (opt-in via [`exec::ExecConfig`] and
//! [`exec::launch_with`]) is the one checker of kernel correctness: it
//! checks the accesses the way `compute-sanitizer` would — shared-memory
//! races between barriers, out-of-bounds lanes, uninitialized reads and
//! divergent barriers.
//!
//! [`occupancy::occupancy`] computes residency from the block footprint
//! and [`timing::time_kernel`] turns counters + residency into modeled
//! microseconds with a three-term wave model (compute / bandwidth /
//! latency-chain) plus fixed launch overhead.
//!
//! ## Example
//!
//! ```
//! use gpu_sim::exec::{launch, BlockCtx, BlockKernel, GpuMemory, LaunchConfig, BufId};
//! use gpu_sim::spec::{DeviceSpec, Precision};
//! use gpu_sim::timing::time_kernel;
//!
//! /// y[i] = a * x[i] (one block-sized chunk each).
//! struct Saxpy { a: f32, x: BufId, y: BufId, n: usize }
//!
//! impl BlockKernel<f32> for Saxpy {
//!     fn run_block(&self, ctx: &mut BlockCtx<'_, f32>) -> gpu_sim::error::Result<()> {
//!         let base = ctx.block_id * ctx.threads;
//!         let count = ctx.threads.min(self.n.saturating_sub(base));
//!         if count == 0 { return Ok(()); }
//!         let idx: Vec<usize> = (base..base + count).collect();
//!         let mut v = Vec::new();
//!         ctx.ld(self.x, &idx, &mut v)?;
//!         for e in &mut v { *e *= self.a; }
//!         ctx.flops(count as u64);
//!         ctx.st(self.y, &idx, &v)
//!     }
//! }
//!
//! let spec = DeviceSpec::gtx480();
//! let mut mem = GpuMemory::new();
//! let x = mem.alloc_from(vec![2.0f32; 4096]);
//! let y = mem.alloc(4096);
//! let cfg = LaunchConfig::new("saxpy", 4096 / 256, 256);
//! let result = launch(&spec, &cfg, &Saxpy { a: 3.0, x, y, n: 4096 }, &mut mem).unwrap();
//! assert_eq!(mem.read(y).unwrap()[17], 6.0);
//! let t = time_kernel(&spec, &result, Precision::F32);
//! assert!(t.total_us > 0.0);
//! ```

#![warn(missing_docs)]

pub mod counters;
pub mod error;
pub mod exec;
pub mod group;
pub mod json;
pub mod lanes;
pub mod memory;
pub mod metrics;
pub mod occupancy;
pub mod par;
pub mod sanitizer;
pub mod spec;
pub mod timing;
pub mod trace;

pub use counters::{
    BlockStats, Finding, KernelStats, PhaseStats, SanitizerCounts, BANK_CONFLICT_THRESHOLD,
    PRELUDE_PHASE,
};
pub use error::{Result, SimError};
pub use exec::{
    launch, launch_with, BlockCtx, BlockKernel, BufId, Elem, ExecConfig, GpuMemory, LaunchConfig,
    LaunchResult,
};
pub use group::{DeviceGroup, DeviceStream, GroupTimeline, StreamEvent, StreamOp};
pub use lanes::{AffinePiece, Lanes};
pub use sanitizer::{AccessSite, MemSpace, RaceKind, SanitizerViolation};
pub use occupancy::{occupancy, Limiter, Occupancy};
pub use spec::{DeviceSpec, Precision};
pub use timing::{time_kernel, BoundKind, KernelTiming, PhaseTiming};
pub use json::Json;
pub use metrics::{validate_metrics_json, Histogram, MetricsRegistry, METRICS_SCHEMA};
pub use trace::{validate_chrome_json, Trace, TraceEvent};
