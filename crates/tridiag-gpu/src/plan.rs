//! Declarative solve plans: the pure planning half of the solver.
//!
//! The paper's runtime is really a small pipeline compiler — the
//! transition rule (Table II/III) and the grid-mapping choice (Fig. 11)
//! *decide* a sequence of kernel launches; the launches then execute
//! it. [`SolvePlan::build`] is that deciding half made explicit: a
//! deterministic function from `(DeviceSpec, GpuSolverConfig, batch
//! geometry, scalar width)` to an ordered list of typed [`Step`]s —
//! layout conversions, buffer uploads/allocations, kernel launches with
//! full grid/block/register configuration and buffer bindings, and the
//! final download — with **no execution**. The
//! [`crate::executor::PlanExecutor`] runs any plan; `describe()` and
//! `to_json()` expose it for inspection (`tridiag plan`,
//! `solve --dry-run`) without ever touching the simulator.
//!
//! Every plan invariant — each declared slot created exactly once before
//! any step uses it, non-degenerate buffers and launches, at least one
//! launch and exactly one download — is checked in one place,
//! [`crate::verify::verify_plan`], which is also the executor's only
//! gate. [`validate_plan_json`] checks a serialized plan's shape only.

use crate::consts::{PTHOMAS_BLOCK, REGS_FUSED, REGS_PTHOMAS, REGS_TILED_PCR};
use crate::kernels::p_thomas::AddrMap;
use crate::kernels::tiled_pcr::{StreamSlot, TiledPcrKernel};
use crate::solver::{GpuSolverConfig, MappingVariant};
use gpu_sim::json::schema::Check;
use gpu_sim::{DeviceGroup, DeviceSpec, Json, Result, SimError};
use std::ops::Range;
use tridiag_core::Layout;

pub mod cost;
mod tuned;

/// Index into [`SolvePlan::buffers`] — the plan-level name of a device
/// buffer (the executor maps each slot to a concrete `BufId`).
pub type Slot = usize;

/// Which host coefficient array an upload step reads.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum CoefArray {
    /// Sub-diagonal `a`.
    Lower,
    /// Main diagonal `b`.
    Diag,
    /// Super-diagonal `c`.
    Upper,
    /// Right-hand side `d`.
    Rhs,
}

impl CoefArray {
    /// Conventional one-letter name (`a`/`b`/`c`/`d`).
    pub fn label(self) -> &'static str {
        match self {
            CoefArray::Lower => "a",
            CoefArray::Diag => "b",
            CoefArray::Upper => "c",
            CoefArray::Rhs => "d",
        }
    }
}

/// One device buffer the plan creates.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct BufferDecl {
    /// Role of the buffer (for humans and JSON; slots are the identity).
    pub name: &'static str,
    /// Elements allocated.
    pub elems: usize,
}

/// The kernel a launch step runs, with its buffer bindings as slots.
#[derive(Debug, Clone, PartialEq)]
pub enum KernelOp {
    /// [`crate::kernels::p_thomas::PThomasKernel`].
    PThomas {
        /// Sub-diagonal buffer.
        a: Slot,
        /// Main-diagonal buffer.
        b: Slot,
        /// Super-diagonal buffer.
        c: Slot,
        /// Right-hand-side buffer.
        d: Slot,
        /// `c'` scratch.
        c_prime: Slot,
        /// `d'` scratch.
        d_prime: Slot,
        /// Solution buffer.
        x: Slot,
        /// Addressing scheme.
        map: AddrMap,
    },
    /// [`TiledPcrKernel`] with precomputed Fig. 11 block assignments.
    TiledPcr {
        /// Input coefficient buffers `[a, b, c, d]`.
        input: [Slot; 4],
        /// Output coefficient buffers `[a, b, c, d]`.
        output: [Slot; 4],
        /// Rows per system.
        n: usize,
        /// PCR steps.
        k: u32,
        /// Sub-tile rows (`c · 2^k`).
        sub_tile: usize,
        /// Per-block stream slots (the resolved grid mapping).
        assignments: Vec<Vec<StreamSlot>>,
    },
    /// [`crate::kernels::fused::FusedKernel`] (Section III-C).
    Fused {
        /// Input coefficient buffers `[a, b, c, d]`.
        input: [Slot; 4],
        /// `c'` scratch.
        c_prime: Slot,
        /// `d'` scratch.
        d_prime: Slot,
        /// Solution buffer.
        x: Slot,
        /// Rows per system (the longest system's, when `rows` is set).
        n: usize,
        /// PCR steps.
        k: u32,
        /// Sub-tile rows.
        sub_tile: usize,
        /// Number of systems.
        m: usize,
        /// Per-system row counts of a ragged batch, only when they
        /// differ: block `b` solves system `b`'s `rows[b]` rows, stored
        /// after the rows of systems `0..b`. `None` when every system
        /// has `n` rows.
        rows: Option<Vec<usize>>,
    },
}

impl KernelOp {
    /// Every slot the op binds, in field order.
    pub fn binds(&self) -> Vec<Slot> {
        match self {
            KernelOp::PThomas {
                a,
                b,
                c,
                d,
                c_prime,
                d_prime,
                x,
                ..
            } => vec![*a, *b, *c, *d, *c_prime, *d_prime, *x],
            KernelOp::TiledPcr { input, output, .. } => {
                input.iter().chain(output.iter()).copied().collect()
            }
            KernelOp::Fused {
                input,
                c_prime,
                d_prime,
                x,
                ..
            } => input
                .iter()
                .copied()
                .chain([*c_prime, *d_prime, *x])
                .collect(),
        }
    }

    /// Slots the kernel *reads* as inputs: the coefficient buffers.
    /// With [`Self::writes`] and [`Self::scratch`] this is the dataflow
    /// signature [`crate::verify`] interprets.
    pub fn reads(&self) -> Vec<Slot> {
        match self {
            KernelOp::PThomas { a, b, c, d, .. } => vec![*a, *b, *c, *d],
            KernelOp::TiledPcr { input, .. } => input.to_vec(),
            KernelOp::Fused { input, .. } => input.to_vec(),
        }
    }

    /// Slots the kernel *writes* as outputs, which later steps read.
    pub fn writes(&self) -> Vec<Slot> {
        match self {
            KernelOp::PThomas { x, .. } | KernelOp::Fused { x, .. } => vec![*x],
            KernelOp::TiledPcr { output, .. } => output.to_vec(),
        }
    }

    /// The launch-private `c'`/`d'` scratch: written before it is read
    /// within the launch, and undefined once the launch returns
    /// ([`gpu_sim::BlockKernel::scratch`]), so no later step may read
    /// it.
    pub fn scratch(&self) -> Vec<Slot> {
        match self {
            KernelOp::PThomas {
                c_prime, d_prime, ..
            }
            | KernelOp::Fused {
                c_prime, d_prime, ..
            } => vec![*c_prime, *d_prime],
            KernelOp::TiledPcr { .. } => Vec::new(),
        }
    }
}

/// One scheduled kernel launch: the full `LaunchConfig` plus bindings.
#[derive(Debug, Clone, PartialEq)]
pub struct LaunchStep {
    /// Kernel name (becomes the launch config / report name).
    pub name: &'static str,
    /// Grid size in blocks.
    pub grid_blocks: usize,
    /// Threads per block.
    pub threads_per_block: u32,
    /// Registers per thread (occupancy input).
    pub regs_per_thread: u32,
    /// The kernel and its buffer bindings.
    pub op: KernelOp,
}

/// One step of a solve plan, in execution order.
#[derive(Debug, Clone, PartialEq)]
pub enum Step {
    /// Convert the host batch to the layout the pipeline addresses.
    Convert {
        /// Target layout.
        to: Layout,
    },
    /// Upload one coefficient array ("cudaMemcpy H→D") into a slot: a
    /// read-only device input, which no launch may write (the executor
    /// borrows the caller's array when the layouts agree).
    Upload {
        /// Destination slot.
        slot: Slot,
        /// Source array in the (converted) host batch.
        source: CoefArray,
    },
    /// Allocate an uninitialized device buffer (scratch or output).
    Alloc {
        /// Slot to create.
        slot: Slot,
    },
    /// Launch a kernel.
    Launch(LaunchStep),
    /// Read a buffer back to the host ("cudaMemcpy D→H").
    Download {
        /// Source slot (the solution buffer).
        slot: Slot,
    },
    /// Reorder the downloaded solution from the pipeline layout back to
    /// the caller's batch layout.
    ConvertBack {
        /// Layout the downloaded buffer is in.
        from: Layout,
    },
}

/// A complete, inspectable description of one solve: the pipeline
/// decisions (`k`, mapping, fusion) and the full step sequence, with no
/// execution state.
#[derive(Debug, Clone, PartialEq)]
pub struct SolvePlan {
    /// Device the plan was built for.
    pub device: &'static str,
    /// Solver configuration the planner ran under.
    pub config: GpuSolverConfig,
    /// Number of systems.
    pub m: usize,
    /// Rows per system (the longest system's in a ragged plan, see
    /// [`SolvePlan::ragged_rows`]).
    pub n: usize,
    /// Scalar width in bytes (4 or 8).
    pub elem_bytes: usize,
    /// Precision label (`"f32"` / `"f64"`).
    pub precision: &'static str,
    /// PCR steps chosen by the transition policy (after the shared
    /// memory and block-size clamps).
    pub k: u32,
    /// Resolved grid mapping for the PCR stage.
    pub mapping: MappingVariant,
    /// Whether the fused single-kernel pipeline runs.
    pub fused: bool,
    /// Device-side layout of the coefficient buffers.
    pub layout: Layout,
    /// Layout the caller's batch arrives (and leaves) in. When it
    /// equals [`SolvePlan::layout`] the `Convert`/`ConvertBack` steps
    /// are elided — the executor borrows the batch's arrays in place.
    pub host_layout: Layout,
    /// Buffers the plan creates, indexed by slot.
    pub buffers: Vec<BufferDecl>,
    /// The step sequence.
    pub steps: Vec<Step>,
}

/// Row counts as a plan carries them: `None` when every system has the
/// same count.
pub(crate) fn ragged(rows: &[usize]) -> Option<&[usize]> {
    rows.iter().any(|&r| r != rows[0]).then_some(rows)
}

/// `(m, n)` of a batch of per-system row counts `rows`: the number of
/// systems and the longest one's rows. Fails on an empty list or a
/// zero-row system.
fn ragged_geometry(rows: &[usize]) -> Result<(usize, usize)> {
    if rows.is_empty() || rows.contains(&0) {
        return Err(SimError::InvalidPlan(format!(
            "empty batch geometry: m = {}, row counts {rows:?}",
            rows.len()
        )));
    }
    Ok((rows.len(), rows.iter().copied().max().unwrap_or(0)))
}

/// Largest `k` whose tiled-PCR window still fits `spec`'s shared memory
/// at sub-tile scale `c` and element size `bytes`.
pub fn max_k_for_shared(spec: &DeviceSpec, c: usize, bytes: usize) -> u32 {
    let mut k = 0u32;
    while k < 20 {
        let st = c.max(1) << (k + 1);
        let elems = TiledPcrKernel::shared_elems_per_slot(k + 1, st);
        if elems * bytes > spec.max_shared_per_block {
            break;
        }
        k += 1;
    }
    k
}

impl SolvePlan {
    /// Plan a solve of `m` systems of `n` rows at `elem_bytes` scalar
    /// width on `spec` under `config`. Pure: no device state is touched.
    ///
    /// Fails with [`SimError::InvalidPlan`] on an empty geometry, an
    /// unsupported scalar width, or a liveness-based peak resident
    /// footprint (see [`crate::verify::peak_resident_bytes`]) beyond
    /// the device's global memory.
    pub fn build(
        spec: &DeviceSpec,
        config: &GpuSolverConfig,
        m: usize,
        n: usize,
        elem_bytes: usize,
    ) -> Result<SolvePlan> {
        Self::build_for_host(spec, config, Layout::Contiguous, m, n, elem_bytes)
    }

    /// [`SolvePlan::build`] for a batch that arrives in `host_layout`.
    ///
    /// The pipeline decisions are identical — `host_layout` is not a
    /// preference, it is a fact about the caller's buffers — but when
    /// it matches the decided device layout the `Convert` and
    /// `ConvertBack` steps are elided: the executor borrows the
    /// coefficient arrays in place, read-only, and the solution
    /// downloads straight into the caller's layout. [`SolvePlan::build`] is the `Contiguous` special case
    /// (what [`tridiag_core::SystemBatch::from_systems`] produces).
    pub fn build_for_host(
        spec: &DeviceSpec,
        config: &GpuSolverConfig,
        host_layout: Layout,
        m: usize,
        n: usize,
        elem_bytes: usize,
    ) -> Result<SolvePlan> {
        let plan = Self::build_unchecked(spec, config, host_layout, m, n, None, elem_bytes)?;
        Self::check_memory(spec, plan)
    }

    /// Plan one fused launch over systems of per-system row counts
    /// `rows`, stored back to back (a [`tridiag_core::RaggedBatch`]):
    /// block `b` solves system `b` with the launch's single `k`,
    /// sub-tile and `2^k` threads. Equal counts plan exactly what
    /// [`SolvePlan::build`] does for `(rows.len(), rows[0])`. Otherwise
    /// `config` must decide the fused one-block-per-system pipeline
    /// with `k ≥ 1` at the shortest system (a pinned decision does, see
    /// [`GpuSolverConfig::pinned`]); `n` is then the longest system's
    /// row count and every buffer holds `Σ rows` elements.
    ///
    /// Fails with [`SimError::InvalidPlan`] on an empty or zero-row
    /// geometry, any other decision, or the memory checks of
    /// [`SolvePlan::build`].
    pub fn build_ragged(
        spec: &DeviceSpec,
        config: &GpuSolverConfig,
        rows: &[usize],
        elem_bytes: usize,
    ) -> Result<SolvePlan> {
        let (m, n) = ragged_geometry(rows)?;
        let plan = Self::build_unchecked(
            spec,
            config,
            Layout::Contiguous,
            m,
            n,
            ragged(rows),
            elem_bytes,
        )?;
        Self::check_memory(spec, plan)
    }

    /// `plan`, unless its peak resident footprint exceeds `spec`'s
    /// global memory.
    fn check_memory(spec: &DeviceSpec, plan: SolvePlan) -> Result<SolvePlan> {
        let (m, n) = (plan.m, plan.n);
        // One memory model: the OOM check is the verifier's
        // liveness-based high-water mark — an exact peak-bytes
        // certificate, not the sum of allocations (buffers that die
        // before later scratch is allocated don't count twice).
        let (peak, _) = crate::verify::peak_resident_bytes(&plan);
        if peak > spec.global_mem_bytes {
            // A single system that outgrows one device is exactly what
            // the distributed path exists for — name it in the error so
            // the caller learns the way out, not just the wall.
            let hint = if m == 1 {
                "; a single system this large can be split across devices \
                 with a distributed plan (solve --split-n)"
            } else {
                ""
            };
            return Err(SimError::InvalidPlan(format!(
                "peak resident device memory {peak} bytes exceeds {} global memory \
                 ({} bytes) for m = {m}, n = {n} at {}{hint}",
                spec.name, spec.global_mem_bytes, plan.precision
            )));
        }
        Ok(plan)
    }

    /// [`SolvePlan::build_for_host`] (or, with `rows`, the ragged
    /// [`SolvePlan::build_ragged`]) without the device-memory check: the
    /// full-batch reference of a [`ShardedPlan`], which only supplies
    /// decisions and never runs.
    #[allow(clippy::too_many_arguments)]
    fn build_unchecked(
        spec: &DeviceSpec,
        config: &GpuSolverConfig,
        host_layout: Layout,
        m: usize,
        n: usize,
        rows: Option<&[usize]>,
        elem_bytes: usize,
    ) -> Result<SolvePlan> {
        if m == 0 || n == 0 {
            return Err(SimError::InvalidPlan(format!(
                "empty batch geometry: m = {m}, n = {n}"
            )));
        }
        let precision = match elem_bytes {
            4 => "f32",
            8 => "f64",
            other => {
                return Err(SimError::InvalidPlan(format!(
                    "unsupported scalar width: {other} bytes (expected 4 or 8)"
                )))
            }
        };
        // Every pipeline decision — layout, mapping, fusion, k — is
        // made in one place, by the transition rule in `cost::decide`;
        // a ragged batch decides at its shortest system, which bounds k.
        let shortest = rows.and_then(|r| r.iter().min().copied()).unwrap_or(n);
        let decision = cost::decide(spec, config, m, shortest, elem_bytes);
        let k = decision.k;
        if rows.is_some() && !(decision.fused && k > 0) {
            return Err(SimError::InvalidPlan(format!(
                "a ragged batch needs the fused one-block-per-system pipeline, \
                 but the decision is k = {k}, mapping {:?}, fused = {}",
                decision.mapping, decision.fused
            )));
        }
        // Elide conversions when the batch arrives already interleaved
        // and the pipeline wants it interleaved. The hybrid pipeline's
        // contiguous->contiguous Convert and ConvertBack are *kept*: the
        // legacy plan shapes are pinned byte-exactly by the golden
        // snapshots. An upload to the batch's own layout borrows the
        // caller's array, so they copy nothing.
        let elide = host_layout == decision.layout && host_layout == Layout::Interleaved;

        let total = rows.map_or(m * n, |r| r.iter().sum());
        let mut buffers: Vec<BufferDecl> = Vec::new();
        let mut steps: Vec<Step> = Vec::new();
        // The five coefficient/solution buffers open every pipeline, in
        // upload order — slot i is the i-th device allocation.
        let create = |buffers: &mut Vec<BufferDecl>,
                      steps: &mut Vec<Step>,
                      name: &'static str,
                      source: Option<CoefArray>|
         -> Slot {
            let slot = buffers.len();
            buffers.push(BufferDecl { name, elems: total });
            steps.push(match source {
                Some(src) => Step::Upload { slot, source: src },
                None => Step::Alloc { slot },
            });
            slot
        };

        if k == 0 {
            // ---- pure p-Thomas on the device-layout batch -----------
            if !elide {
                steps.push(Step::Convert {
                    to: decision.layout,
                });
            }
            let a = create(&mut buffers, &mut steps, "a", Some(CoefArray::Lower));
            let b = create(&mut buffers, &mut steps, "b", Some(CoefArray::Diag));
            let cc = create(&mut buffers, &mut steps, "c", Some(CoefArray::Upper));
            let d = create(&mut buffers, &mut steps, "d", Some(CoefArray::Rhs));
            let x = create(&mut buffers, &mut steps, "x", None);
            let cp = create(&mut buffers, &mut steps, "c_prime", None);
            let dp = create(&mut buffers, &mut steps, "d_prime", None);
            let map = match decision.layout {
                Layout::Interleaved => AddrMap::Interleaved { m, n },
                // The uncoalesced strawman: one thread per system over
                // system-major rows (kept for the layout ablation).
                Layout::Contiguous => AddrMap::Contiguous { m, n },
            };
            steps.push(Step::Launch(LaunchStep {
                name: "p_thomas",
                grid_blocks: m.div_ceil(PTHOMAS_BLOCK as usize),
                threads_per_block: PTHOMAS_BLOCK.min(m as u32).max(1),
                regs_per_thread: REGS_PTHOMAS,
                op: KernelOp::PThomas {
                    a,
                    b,
                    c: cc,
                    d,
                    c_prime: cp,
                    d_prime: dp,
                    x,
                    map,
                },
            }));
            steps.push(Step::Download { slot: x });
            if !elide {
                steps.push(Step::ConvertBack {
                    from: decision.layout,
                });
            }
        } else {
            if !elide {
                steps.push(Step::Convert {
                    to: Layout::Contiguous,
                });
            }
            let a = create(&mut buffers, &mut steps, "a", Some(CoefArray::Lower));
            let b = create(&mut buffers, &mut steps, "b", Some(CoefArray::Diag));
            let cc = create(&mut buffers, &mut steps, "c", Some(CoefArray::Upper));
            let d = create(&mut buffers, &mut steps, "d", Some(CoefArray::Rhs));
            let x = create(&mut buffers, &mut steps, "x", None);
            let c = config.sub_tile_scale.max(1);
            let st = c << k;
            let mapping = decision.mapping;
            if decision.fused {
                let cp = create(&mut buffers, &mut steps, "c_prime", None);
                let dp = create(&mut buffers, &mut steps, "d_prime", None);
                steps.push(Step::Launch(LaunchStep {
                    name: "fused_pcr_thomas",
                    grid_blocks: m,
                    threads_per_block: 1 << k,
                    regs_per_thread: REGS_FUSED,
                    op: KernelOp::Fused {
                        input: [a, b, cc, d],
                        c_prime: cp,
                        d_prime: dp,
                        x,
                        n,
                        k,
                        sub_tile: st,
                        m,
                        rows: rows.map(<[usize]>::to_vec),
                    },
                }));
            } else {
                let (assignments, threads) = match mapping {
                    MappingVariant::BlockPerSystem => {
                        (TiledPcrKernel::assign_block_per_system(m, n), 1u32 << k)
                    }
                    MappingVariant::BlockGroupPerSystem(g) => (
                        TiledPcrKernel::assign_block_group_per_system(m, n, g),
                        1u32 << k,
                    ),
                    MappingVariant::MultiSystemPerBlock(q) => (
                        TiledPcrKernel::assign_multi_system_per_block(m, n, q),
                        ((q as u32) << k).min(spec.max_threads_per_block),
                    ),
                    MappingVariant::Auto => {
                        return Err(SimError::InvalidPlan(
                            "grid mapping failed to resolve".into(),
                        ))
                    }
                };
                let out = [
                    create(&mut buffers, &mut steps, "out_a", None),
                    create(&mut buffers, &mut steps, "out_b", None),
                    create(&mut buffers, &mut steps, "out_c", None),
                    create(&mut buffers, &mut steps, "out_d", None),
                ];
                steps.push(Step::Launch(LaunchStep {
                    name: "tiled_pcr",
                    grid_blocks: assignments.len(),
                    threads_per_block: threads,
                    regs_per_thread: REGS_TILED_PCR,
                    op: KernelOp::TiledPcr {
                        input: [a, b, cc, d],
                        output: out,
                        n,
                        k,
                        sub_tile: st,
                        assignments,
                    },
                }));
                // p-Thomas over the 2^k·M interleaved subsystems.
                let cp = create(&mut buffers, &mut steps, "c_prime", None);
                let dp = create(&mut buffers, &mut steps, "d_prime", None);
                let map = AddrMap::HybridSubsystems { m, n, k };
                let total_threads = map.num_threads();
                let tpb = PTHOMAS_BLOCK.min(total_threads as u32).max(1);
                steps.push(Step::Launch(LaunchStep {
                    name: "p_thomas",
                    grid_blocks: total_threads.div_ceil(tpb as usize),
                    threads_per_block: tpb,
                    regs_per_thread: REGS_PTHOMAS,
                    op: KernelOp::PThomas {
                        a: out[0],
                        b: out[1],
                        c: out[2],
                        d: out[3],
                        c_prime: cp,
                        d_prime: dp,
                        x,
                        map,
                    },
                }));
            }
            steps.push(Step::Download { slot: x });
            if !elide {
                steps.push(Step::ConvertBack {
                    from: Layout::Contiguous,
                });
            }
        }

        Ok(SolvePlan {
            device: spec.name,
            config: *config,
            m,
            n,
            elem_bytes,
            precision,
            k,
            mapping: decision.mapping,
            fused: decision.fused,
            layout: decision.layout,
            host_layout,
            buffers,
            steps,
        })
    }

    /// Total device elements across every buffer the plan creates.
    pub fn device_elems(&self) -> usize {
        self.buffers.iter().map(|b| b.elems).sum()
    }

    /// Total device bytes across every buffer the plan creates.
    pub fn device_bytes(&self) -> usize {
        self.device_elems() * self.elem_bytes
    }

    /// Per-system row counts of a ragged plan ([`SolvePlan::build_ragged`]
    /// over counts that differ); `None` when every system has `n` rows.
    pub fn ragged_rows(&self) -> Option<&[usize]> {
        self.launches().find_map(|ls| match &ls.op {
            KernelOp::Fused { rows, .. } => rows.as_deref(),
            _ => None,
        })
    }

    /// The launch steps, in order.
    pub fn launches(&self) -> impl Iterator<Item = &LaunchStep> {
        self.steps.iter().filter_map(|s| match s {
            Step::Launch(ls) => Some(ls),
            _ => None,
        })
    }

    /// Multi-line human description: decisions, footprint, and the full
    /// step sequence. Deterministic — pinned by the golden plan
    /// snapshot suite.
    pub fn describe(&self) -> String {
        use std::fmt::Write;
        let mut s = String::new();
        let _ = writeln!(
            s,
            "plan: m={} n={} {} on {}",
            self.m, self.n, self.precision, self.device
        );
        // The decision line is pinned by the golden snapshots; a
        // non-default host layout appends.
        let _ = write!(
            s,
            "  k={} mapping={:?} fused={} layout={:?}",
            self.k, self.mapping, self.fused, self.layout
        );
        if self.host_layout != Layout::Contiguous {
            let _ = write!(s, " host={:?}", self.host_layout);
        }
        let _ = writeln!(s);
        let _ = writeln!(
            s,
            "  buffers: {} ({} elems, {} bytes device footprint)",
            self.buffers.len(),
            self.device_elems(),
            self.device_bytes()
        );
        let _ = writeln!(
            s,
            "  kernels: {}",
            self.launches()
                .map(|ls| ls.name)
                .collect::<Vec<_>>()
                .join(" -> ")
        );
        let _ = writeln!(s, "  steps:");
        for (i, step) in self.steps.iter().enumerate() {
            let line = match step {
                Step::Convert { to } => format!("convert -> {to:?}"),
                Step::Upload { slot, source } => format!(
                    "upload {} -> buf[{slot}] {} ({} elems)",
                    source.label(),
                    self.buffers[*slot].name,
                    self.buffers[*slot].elems
                ),
                Step::Alloc { slot } => format!(
                    "alloc buf[{slot}] {} ({} elems)",
                    self.buffers[*slot].name, self.buffers[*slot].elems
                ),
                Step::Launch(ls) => {
                    let detail = match &ls.op {
                        KernelOp::PThomas { map, .. } => format!("map={map:?}"),
                        KernelOp::TiledPcr { k, sub_tile, .. } => {
                            format!("k={k} sub_tile={sub_tile}")
                        }
                        KernelOp::Fused {
                            k, sub_tile, rows, ..
                        } => match rows {
                            Some(rows) => format!("k={k} sub_tile={sub_tile} rows={rows:?}"),
                            None => format!("k={k} sub_tile={sub_tile}"),
                        },
                    };
                    format!(
                        "launch {} grid={} threads={} regs={} binds={:?} {detail}",
                        ls.name,
                        ls.grid_blocks,
                        ls.threads_per_block,
                        ls.regs_per_thread,
                        ls.op.binds()
                    )
                }
                Step::Download { slot } => {
                    format!("download buf[{slot}] {}", self.buffers[*slot].name)
                }
                Step::ConvertBack { from } => format!("convert-back <- {from:?}"),
            };
            let _ = writeln!(s, "    {:>2}. {line}", i + 1);
        }
        s
    }

    /// Serialize the plan as a JSON object (schema
    /// `tridiag.solve_plan/v3`); [`validate_plan_json`] checks the
    /// shape.
    pub fn to_json(&self) -> Json {
        let buffers = self
            .buffers
            .iter()
            .map(|b| {
                Json::Obj(vec![
                    ("name".into(), Json::str(b.name)),
                    ("elems".into(), Json::num(b.elems as f64)),
                ])
            })
            .collect();
        let steps = self
            .steps
            .iter()
            .map(|step| match step {
                Step::Convert { to } => Json::Obj(vec![
                    ("op".into(), Json::str("convert")),
                    ("layout".into(), Json::str(format!("{to:?}"))),
                ]),
                Step::Upload { slot, source } => Json::Obj(vec![
                    ("op".into(), Json::str("upload")),
                    ("source".into(), Json::str(source.label())),
                    ("slot".into(), Json::num(*slot as f64)),
                ]),
                Step::Alloc { slot } => Json::Obj(vec![
                    ("op".into(), Json::str("alloc")),
                    ("slot".into(), Json::num(*slot as f64)),
                ]),
                Step::Launch(ls) => {
                    let mut fields = vec![
                        ("op".into(), Json::str("launch")),
                        ("kernel".into(), Json::str(ls.name)),
                        ("grid_blocks".into(), Json::num(ls.grid_blocks as f64)),
                        (
                            "threads_per_block".into(),
                            Json::num(ls.threads_per_block as f64),
                        ),
                        (
                            "regs_per_thread".into(),
                            Json::num(ls.regs_per_thread as f64),
                        ),
                        (
                            "binds".into(),
                            Json::Arr(
                                ls.op
                                    .binds()
                                    .into_iter()
                                    .map(|s| Json::num(s as f64))
                                    .collect(),
                            ),
                        ),
                    ];
                    if let KernelOp::Fused {
                        rows: Some(rows), ..
                    } = &ls.op
                    {
                        let rows = rows.iter().map(|&r| Json::num(r as f64)).collect();
                        fields.push(("rows".into(), Json::Arr(rows)));
                    }
                    Json::Obj(fields)
                }
                Step::Download { slot } => Json::Obj(vec![
                    ("op".into(), Json::str("download")),
                    ("slot".into(), Json::num(*slot as f64)),
                ]),
                Step::ConvertBack { from } => Json::Obj(vec![
                    ("op".into(), Json::str("convert_back")),
                    ("layout".into(), Json::str(format!("{from:?}"))),
                ]),
            })
            .collect();
        Json::Obj(vec![
            ("schema".into(), Json::str(PLAN_SCHEMA)),
            ("device".into(), Json::str(self.device)),
            ("precision".into(), Json::str(self.precision)),
            ("m".into(), Json::num(self.m as f64)),
            ("n".into(), Json::num(self.n as f64)),
            ("elem_bytes".into(), Json::num(self.elem_bytes as f64)),
            ("k".into(), Json::num(self.k)),
            ("mapping".into(), Json::str(format!("{:?}", self.mapping))),
            ("fused".into(), Json::Bool(self.fused)),
            ("layout".into(), Json::str(format!("{:?}", self.layout))),
            (
                "host_layout".into(),
                Json::str(format!("{:?}", self.host_layout)),
            ),
            ("device_elems".into(), Json::num(self.device_elems() as f64)),
            ("device_bytes".into(), Json::num(self.device_bytes() as f64)),
            ("buffers".into(), Json::Arr(buffers)),
            ("steps".into(), Json::Arr(steps)),
        ])
    }
}

/// Schema identifier emitted by [`SolvePlan::to_json`]. `v2` added
/// the `host_layout` dimension, `v3` dropped the `cost_model` field;
/// older documents are rejected outright (the schema string is
/// matched exactly).
pub const PLAN_SCHEMA: &str = "tridiag.solve_plan/v3";

/// Check a parsed plan document's shape against the
/// `tridiag.solve_plan/v3` schema: the exact schema id, every required
/// field with its type, the layout/source/op enums and non-negative
/// integers. Relations between fields (slot ranges, the download and
/// launch counts) are plan invariants, certified by
/// [`crate::verify::verify_plan`] on the typed plan. Returns every
/// problem found (empty = valid).
pub fn validate_plan_json(doc: &Json) -> Vec<String> {
    const LAYOUTS: &[&str] = &["Contiguous", "Interleaved"];
    let mut c = Check::new(doc);
    c.schema(PLAN_SCHEMA);
    c.req_strs(&["device", "precision", "mapping"]);
    c.str_enum("layout", LAYOUTS);
    c.str_enum("host_layout", LAYOUTS);
    c.req_uints(&["m", "n", "elem_bytes", "k", "device_elems", "device_bytes"]);
    c.req_bool("fused");
    for (i, b) in c.req_arr("buffers").iter().enumerate() {
        let mut bc = c.child(b, format!("buffers[{i}] "));
        bc.req_str("name");
        bc.req_uint("elems");
        c.absorb(bc);
    }
    for (i, step) in c.req_arr("steps").iter().enumerate() {
        let mut sc = c.child(step, format!("steps[{i}] "));
        match step.get("op").and_then(Json::as_str) {
            Some("convert") | Some("convert_back") => {
                sc.str_enum("layout", LAYOUTS);
            }
            Some("upload") => {
                sc.req_uint("slot");
                match step.get("source").and_then(Json::as_str) {
                    Some("a") | Some("b") | Some("c") | Some("d") => {}
                    Some(other) => sc.problem(format!(
                        "has unknown upload source {other:?} \
                         (expected one of \"a\", \"b\", \"c\", \"d\")"
                    )),
                    None => sc.problem("missing string field \"source\""),
                }
            }
            Some("alloc") | Some("download") => {
                sc.req_uint("slot");
            }
            Some("launch") => {
                sc.req_str("kernel");
                sc.req_uints(&["grid_blocks", "threads_per_block", "regs_per_thread"]);
                let uint = |v: &Json| v.as_num().is_some_and(|v| v >= 0.0 && v.fract() == 0.0);
                for (j, b) in sc.req_arr("binds").iter().enumerate() {
                    if !uint(b) {
                        sc.problem(format!("binds[{j}] is not a non-negative integer"));
                    }
                }
                // A ragged fused launch lists its per-system row counts.
                if step.get("rows").is_some() {
                    for (j, r) in sc.req_arr("rows").iter().enumerate() {
                        if !uint(r) {
                            sc.problem(format!("rows[{j}] is not a non-negative integer"));
                        }
                    }
                }
            }
            Some(other) => sc.problem(format!("has unknown op {other:?}")),
            None => sc.problem("missing string field \"op\""),
        }
        c.absorb(sc);
    }
    c.finish()
}

// ---------------------------------------------------------------------
// Multi-device sharding
// ---------------------------------------------------------------------

/// What a multi-device plan partitions across its devices: a sharded
/// plan splits a batch's **systems** into shards of at least one
/// system each, a distributed plan splits one system's **rows** into
/// chunks of at least two rows each (a chunk's interface pair).
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum Partition {
    /// Shards of a batch: `(sys_start, sys_count)`, at least 1 system.
    Systems,
    /// Chunks of one system: `(row_start, row_count)`, at least 2 rows.
    Rows,
}

impl Partition {
    /// The smallest part [`partition`] hands out.
    pub(crate) fn min_per_part(self) -> usize {
        match self {
            Partition::Systems => 1,
            Partition::Rows => 2,
        }
    }

    /// What one part is called: `"shard"` or `"chunk"`.
    pub(crate) fn part(self) -> &'static str {
        match self {
            Partition::Systems => "shard",
            Partition::Rows => "chunk",
        }
    }

    /// `(item, whole, dimension)`: what is partitioned, and where.
    fn nouns(self) -> (&'static str, &'static str, &'static str) {
        match self {
            Partition::Systems => ("system", "batch", "m"),
            Partition::Rows => ("row", "system", "n"),
        }
    }
}

/// Contiguous, balanced partition of `total` items across `d` devices
/// with a minimum per part of 1 system ([`Partition::Systems`]) or 2
/// rows ([`Partition::Rows`]): part `i` gets `total / d` items plus one
/// of the first `total % d` remainders, so part sizes differ by at most
/// 1 and every index lands in exactly one part, in order. Returns
/// `(start, count)` per part.
///
/// Fails with [`SimError::InvalidPlan`] when `d == 0`, `total == 0`,
/// or `total` is below `d` times the minimum (a part would be too
/// small).
pub fn partition(total: usize, d: usize, of: Partition) -> Result<Vec<(usize, usize)>> {
    if d == 0 {
        return Err(SimError::InvalidPlan("device group is empty".into()));
    }
    if total == 0 {
        return Err(SimError::InvalidPlan(
            match of {
                Partition::Systems => "cannot shard an empty batch (m = 0)",
                Partition::Rows => "cannot split an empty system (n = 0)",
            }
            .into(),
        ));
    }
    if total < d * of.min_per_part() {
        return Err(SimError::InvalidPlan(match of {
            Partition::Systems => {
                format!("cannot shard {total} system(s) across {d} devices: a device would idle")
            }
            Partition::Rows => format!(
                "cannot split {total} row(s) across {d} device(s): each chunk needs at \
                 least 2 rows for its interface pair (n >= {})",
                2 * d
            ),
        }));
    }
    let (base, rem) = (total / d, total % d);
    let mut start = 0usize;
    Ok((0..d)
        .map(|i| {
            let count = base + usize::from(i < rem);
            start += count;
            (start - count, count)
        })
        .collect())
}

/// The tiling check behind both multi-device verifiers in
/// [`crate::verify`]: fed a multi-device plan's parts in device order, it
/// reports every way they fail to tile `[0, total)` like [`partition`]
/// would — gaps or overlaps, parts below the minimum, incomplete
/// coverage, sizes skewed by more than 1.
#[derive(Debug)]
pub(crate) struct TileWalk {
    of: Partition,
    cursor: usize,
    min: usize,
    max: usize,
}

impl TileWalk {
    pub(crate) fn new(of: Partition) -> TileWalk {
        TileWalk {
            of,
            cursor: 0,
            min: usize::MAX,
            max: 0,
        }
    }

    /// Problems with the next part, `(start, count)`.
    pub(crate) fn part(&mut self, start: usize, count: usize) -> Vec<String> {
        let (item, whole, _) = self.of.nouns();
        let mut out = Vec::new();
        if start != self.cursor {
            out.push(format!(
                "starts at {item} {start} but {} {item}s are covered so far \
                 ({}s must tile the {whole} contiguously and disjointly)",
                self.cursor,
                self.of.part()
            ));
        }
        if count < self.of.min_per_part() {
            out.push(match self.of {
                Partition::Systems => "owns no systems".to_string(),
                Partition::Rows => {
                    format!("owns {count} row(s): a chunk needs its 2-row interface pair")
                }
            });
        }
        self.cursor = start.saturating_add(count);
        self.min = self.min.min(count);
        self.max = self.max.max(count);
        out
    }

    /// Problems with the whole tiling of `[0, total)` once every part
    /// was seen (none when there were no parts).
    pub(crate) fn finish(self, total: usize) -> Vec<String> {
        let (item, whole, dim) = self.of.nouns();
        let part = self.of.part();
        let mut out = Vec::new();
        if self.min == usize::MAX {
            return out;
        }
        if self.cursor != total {
            out.push(format!(
                "{part}s cover [0, {}) but the {whole} has {dim} = {total} {item}s",
                self.cursor
            ));
        }
        if self.max - self.min > 1 {
            out.push(format!(
                "{part} sizes unbalanced: min {}, max {} (allowed skew 1)",
                self.min, self.max
            ));
        }
        out
    }
}

/// One device's share of a sharded solve: which systems it owns and the
/// [`SolvePlan`] (built against *its* spec) that solves them.
#[derive(Debug, Clone, PartialEq)]
pub struct ShardPlan {
    /// Index into the [`DeviceGroup`] this shard runs on.
    pub device_index: usize,
    /// First system (in the caller's batch) this shard owns.
    pub sys_start: usize,
    /// Number of systems this shard owns.
    pub sys_count: usize,
    /// The per-device plan for the shard's sub-batch.
    pub plan: SolvePlan,
}

/// A solve sharded across a [`DeviceGroup`]: a reference single-device
/// plan for the full batch (built on the primary device — the source of
/// the global pipeline decisions) plus one [`ShardPlan`] per device.
///
/// Bit-identity with the single-device path requires every shard to run
/// the *same* pipeline on its systems, so the reference plan's decisions
/// (`k`, resolved mapping, fusion) are pinned into each shard's config;
/// [`SolvePlan::build`] then re-applies the shard device's own clamps
/// (shared-memory capacity, max block size), which on a heterogeneous
/// group may lower `k` for that shard — a documented deviation
/// (bit-identity is guaranteed for homogeneous groups).
#[derive(Debug, Clone, PartialEq)]
pub struct ShardedPlan {
    /// Number of systems in the full batch.
    pub m: usize,
    /// Rows per system (the longest system's, in a ragged batch).
    pub n: usize,
    /// Scalar width in bytes (4 or 8).
    pub elem_bytes: usize,
    /// Precision label (`"f32"` / `"f64"`).
    pub precision: &'static str,
    /// Single-device plan for the full batch on the primary device —
    /// the source of the pinned global decisions and the merged
    /// report's `plan`. On more than one device it never runs, so it
    /// is not held to the primary's global memory.
    pub reference: SolvePlan,
    /// Per-device shard plans, in device order.
    pub shards: Vec<ShardPlan>,
}

impl ShardedPlan {
    /// Plan a solve of `m` systems of `n` rows sharded across `group`.
    /// Pure, like [`SolvePlan::build`]. A single-device group yields
    /// the identity: one shard whose plan *is* the reference plan.
    /// With more than one device the reference decides under
    /// [`GpuSolverConfig::multi_device`] (Table III for the default
    /// policy): the tuned table's cell for the whole batch is not the
    /// one for a shard's fewer systems.
    ///
    /// Fails with [`SimError::InvalidPlan`] on an empty geometry, an
    /// unsupported scalar width, `m <` device count, or any per-device
    /// plan failure (e.g. a shard footprint beyond its device's global
    /// memory).
    pub fn build(
        group: &DeviceGroup,
        config: &GpuSolverConfig,
        m: usize,
        n: usize,
        elem_bytes: usize,
    ) -> Result<ShardedPlan> {
        Self::build_rows(group, config, m, n, None, elem_bytes)
    }

    /// [`ShardedPlan::build`] for systems of per-system row counts
    /// `rows` (see [`SolvePlan::build_ragged`]): the shards split the
    /// batch by whole systems, as they split a uniform one, and each
    /// shard plans its own systems' counts (a uniform plan when they
    /// happen to be equal). `n` is the longest system's row count.
    pub fn build_ragged(
        group: &DeviceGroup,
        config: &GpuSolverConfig,
        rows: &[usize],
        elem_bytes: usize,
    ) -> Result<ShardedPlan> {
        let (m, n) = ragged_geometry(rows)?;
        Self::build_rows(group, config, m, n, ragged(rows), elem_bytes)
    }

    fn build_rows(
        group: &DeviceGroup,
        config: &GpuSolverConfig,
        m: usize,
        n: usize,
        rows: Option<&[usize]>,
        elem_bytes: usize,
    ) -> Result<ShardedPlan> {
        // The plan for systems `range` of the batch on one device.
        let plan_systems =
            |spec: &DeviceSpec, config: &GpuSolverConfig, range: Range<usize>| match rows {
                None => SolvePlan::build(spec, config, range.len(), n, elem_bytes),
                Some(rows) => SolvePlan::build_ragged(spec, config, &rows[range], elem_bytes),
            };
        if group.len() == 1 {
            let reference = plan_systems(group.primary(), config, 0..m)?;
            let shards = vec![ShardPlan {
                device_index: 0,
                sys_start: 0,
                sys_count: m,
                plan: reference.clone(),
            }];
            return Ok(ShardedPlan {
                m,
                n,
                elem_bytes,
                precision: reference.precision,
                reference,
                shards,
            });
        }
        // The reference never runs, so only the shards must fit.
        let reference = SolvePlan::build_unchecked(
            group.primary(),
            &config.multi_device(),
            Layout::Contiguous,
            m,
            n,
            rows,
            elem_bytes,
        )?;
        let ranges = partition(m, group.len(), Partition::Systems)?;
        // Pin the reference's decisions so every shard runs the same
        // pipeline on its systems (per-device clamps still apply inside
        // SolvePlan::build).
        let pinned = GpuSolverConfig::pinned_to(&reference);
        let shards = ranges
            .into_iter()
            .enumerate()
            .map(|(device_index, (sys_start, sys_count))| {
                plan_systems(
                    &group.devices()[device_index],
                    &pinned,
                    sys_start..sys_start + sys_count,
                )
                .map(|plan| ShardPlan {
                    device_index,
                    sys_start,
                    sys_count,
                    plan,
                })
                .map_err(|e| match e {
                    SimError::InvalidPlan(msg) => SimError::InvalidPlan(format!(
                        "shard {device_index} (systems [{sys_start}, {})): {msg}",
                        sys_start + sys_count
                    )),
                    other => other,
                })
            })
            .collect::<Result<Vec<_>>>()?;
        Ok(ShardedPlan {
            m,
            n,
            elem_bytes,
            precision: reference.precision,
            reference,
            shards,
        })
    }

    /// Number of devices (= shards).
    pub fn num_devices(&self) -> usize {
        self.shards.len()
    }

    /// Total device bytes summed over every shard's buffer table.
    pub fn device_bytes(&self) -> usize {
        self.shards.iter().map(|s| s.plan.device_bytes()).sum()
    }

    /// Multi-line human description: the partition, the pinned global
    /// decisions, and each shard's device/geometry/footprint.
    pub fn describe(&self) -> String {
        use std::fmt::Write;
        let mut s = String::new();
        let _ = writeln!(
            s,
            "sharded plan: m={} n={} {} across {} device(s)",
            self.m,
            self.n,
            self.precision,
            self.shards.len()
        );
        let _ = writeln!(
            s,
            "  reference: k={} mapping={:?} fused={} (decided on {} for the full batch)",
            self.reference.k, self.reference.mapping, self.reference.fused, self.reference.device
        );
        for sh in &self.shards {
            let _ = writeln!(
                s,
                "  shard {}: {} systems [{}, {}) k={} kernels={} device_bytes={}",
                sh.device_index,
                sh.plan.device,
                sh.sys_start,
                sh.sys_start + sh.sys_count,
                sh.plan.k,
                sh.plan
                    .launches()
                    .map(|l| l.name)
                    .collect::<Vec<_>>()
                    .join(" -> "),
                sh.plan.device_bytes()
            );
        }
        s
    }

    /// Serialize as a JSON object (schema `tridiag.sharded_plan/v3`);
    /// [`validate_sharded_plan_json`] checks the shape.
    pub fn to_json(&self) -> Json {
        let shards = self
            .shards
            .iter()
            .map(|sh| {
                Json::Obj(vec![
                    ("device".into(), Json::str(sh.plan.device)),
                    ("device_index".into(), Json::num(sh.device_index as f64)),
                    ("sys_start".into(), Json::num(sh.sys_start as f64)),
                    ("sys_count".into(), Json::num(sh.sys_count as f64)),
                    ("k".into(), Json::num(sh.plan.k)),
                    ("plan".into(), sh.plan.to_json()),
                ])
            })
            .collect();
        Json::Obj(vec![
            ("schema".into(), Json::str(SHARDED_PLAN_SCHEMA)),
            ("m".into(), Json::num(self.m as f64)),
            ("n".into(), Json::num(self.n as f64)),
            ("elem_bytes".into(), Json::num(self.elem_bytes as f64)),
            ("precision".into(), Json::str(self.precision)),
            ("devices".into(), Json::num(self.shards.len() as f64)),
            ("k".into(), Json::num(self.reference.k)),
            (
                "mapping".into(),
                Json::str(format!("{:?}", self.reference.mapping)),
            ),
            ("fused".into(), Json::Bool(self.reference.fused)),
            (
                "layout".into(),
                Json::str(format!("{:?}", self.reference.layout)),
            ),
            ("device_bytes".into(), Json::num(self.device_bytes() as f64)),
            ("reference".into(), self.reference.to_json()),
            ("shards".into(), Json::Arr(shards)),
        ])
    }
}

/// Schema identifier emitted by [`ShardedPlan::to_json`]. `v2` added
/// the pinned `layout` dimension, `v3` dropped the `cost_model` field;
/// older documents are rejected outright.
pub const SHARDED_PLAN_SCHEMA: &str = "tridiag.sharded_plan/v3";

/// Check a parsed sharded-plan document's shape against the
/// `tridiag.sharded_plan/v3` schema: field shapes, each shard's
/// fields, and the embedded reference and per-shard plans (via
/// [`validate_plan_json`]). The partition and per-shard geometry are
/// certified by [`crate::verify::verify_sharded_plan`] on the typed
/// plan. Returns every problem found (empty = valid).
pub fn validate_sharded_plan_json(doc: &Json) -> Vec<String> {
    let mut c = Check::new(doc);
    c.schema(SHARDED_PLAN_SCHEMA);
    c.req_strs(&["precision", "mapping"]);
    c.str_enum("layout", &["Contiguous", "Interleaved"]);
    c.req_uints(&["m", "n", "elem_bytes", "devices", "k", "device_bytes"]);
    c.req_bool("fused");
    if let Some(reference) = c.req_obj("reference") {
        c.absorb_with("reference: ", validate_plan_json(reference));
    }
    for (i, shard) in c.req_arr("shards").iter().enumerate() {
        let mut sc = c.child(shard, format!("shards[{i}] "));
        sc.req_str("device");
        sc.req_uints(&["device_index", "sys_start", "sys_count", "k"]);
        if let Some(plan) = sc.req_obj("plan") {
            sc.absorb_with("plan: ", validate_plan_json(plan));
        }
        c.absorb(sc);
    }
    c.finish()
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::solver::LayoutChoice;

    fn gtx480_plan(m: usize, n: usize, bytes: usize) -> SolvePlan {
        SolvePlan::build(
            &DeviceSpec::gtx480(),
            &GpuSolverConfig::default(),
            m,
            n,
            bytes,
        )
        .unwrap()
    }

    /// The split pipeline (tiled PCR, then p-Thomas) where `k > 0`.
    fn gtx480_split_plan(m: usize, n: usize, bytes: usize) -> SolvePlan {
        let config = GpuSolverConfig {
            fused: false,
            ..Default::default()
        };
        SolvePlan::build(&DeviceSpec::gtx480(), &config, m, n, bytes).unwrap()
    }

    fn assert_certified(plan: &SolvePlan) {
        let report = crate::verify::verify_plan(&DeviceSpec::gtx480(), plan);
        assert!(report.is_clean(), "{report}");
    }

    fn rejected(plan: &SolvePlan) -> bool {
        !crate::verify::verify_plan(&DeviceSpec::gtx480(), plan).is_clean()
    }

    #[test]
    fn k0_plan_is_single_kernel_seven_buffers() {
        let plan = gtx480_plan(2048, 128, 8);
        assert_eq!(plan.k, 0);
        assert_eq!(plan.layout, Layout::Interleaved);
        assert_eq!(plan.buffers.len(), 7);
        assert_eq!(plan.launches().count(), 1);
        assert_eq!(plan.device_elems(), 7 * 2048 * 128);
        assert_certified(&plan);
    }

    #[test]
    fn split_plan_is_two_kernels_eleven_buffers() {
        let plan = gtx480_split_plan(64, 512, 8);
        assert!(plan.k > 0);
        assert!(!plan.fused);
        assert_eq!(plan.buffers.len(), 11);
        let names: Vec<_> = plan.launches().map(|l| l.name).collect();
        assert_eq!(names, ["tiled_pcr", "p_thomas"]);
        assert_eq!(plan.device_elems(), 11 * 64 * 512);
        assert_certified(&plan);
    }

    #[test]
    fn fused_plan_is_one_kernel_seven_buffers() {
        let plan = SolvePlan::build(
            &DeviceSpec::gtx480(),
            &GpuSolverConfig {
                fused: true,
                mapping: MappingVariant::BlockPerSystem,
                ..Default::default()
            },
            64,
            512,
            8,
        )
        .unwrap();
        assert!(plan.fused);
        assert_eq!(plan.buffers.len(), 7);
        let names: Vec<_> = plan.launches().map(|l| l.name).collect();
        assert_eq!(names, ["fused_pcr_thomas"]);
        assert_certified(&plan);
    }

    #[test]
    fn empty_geometry_is_a_typed_error() {
        for (m, n) in [(0usize, 64usize), (64, 0), (0, 0)] {
            let err = SolvePlan::build(&DeviceSpec::gtx480(), &GpuSolverConfig::default(), m, n, 8)
                .unwrap_err();
            assert!(
                matches!(err, SimError::InvalidPlan(_)),
                "m={m} n={n}: {err:?}"
            );
        }
    }

    #[test]
    fn bad_scalar_width_is_a_typed_error() {
        let err = SolvePlan::build(&DeviceSpec::gtx480(), &GpuSolverConfig::default(), 4, 64, 2)
            .unwrap_err();
        assert!(matches!(err, SimError::InvalidPlan(_)), "{err:?}");
    }

    #[test]
    fn oversized_batch_is_a_typed_oom_error() {
        // 11 buffers x m x n x 8 bytes must exceed 1.5 GiB.
        let err = SolvePlan::build(
            &DeviceSpec::gtx480(),
            &GpuSolverConfig::default(),
            64,
            1 << 20,
            8,
        )
        .unwrap_err();
        match err {
            SimError::InvalidPlan(msg) => {
                assert!(msg.contains("global memory"), "{msg}");
                // Batched OOM has no distributed escape hatch: splitting
                // rows only helps a *single* system.
                assert!(!msg.contains("--split-n"), "{msg}");
            }
            other => panic!("expected InvalidPlan, got {other:?}"),
        }
    }

    #[test]
    fn oversized_single_system_names_the_distributed_option() {
        // One system whose footprint exceeds one device is exactly the
        // distributed path's job — the error must say so.
        let err = SolvePlan::build(
            &DeviceSpec::gtx480(),
            &GpuSolverConfig::default(),
            1,
            1 << 26,
            8,
        )
        .unwrap_err();
        match err {
            SimError::InvalidPlan(msg) => {
                assert!(msg.contains("global memory"), "{msg}");
                assert!(
                    msg.contains("split across devices with a distributed plan")
                        && msg.contains("solve --split-n"),
                    "the OOM error must name the distributed option: {msg}"
                );
            }
            other => panic!("expected InvalidPlan, got {other:?}"),
        }
    }

    #[test]
    fn validate_catches_malformed_plans() {
        let mut plan = gtx480_split_plan(16, 128, 8);
        // Bind a slot past the table.
        if let Some(Step::Launch(ls)) = plan.steps.iter_mut().find(|s| matches!(s, Step::Launch(_)))
        {
            if let KernelOp::TiledPcr { input, .. } = &mut ls.op {
                input[0] = 99;
            }
        }
        assert!(rejected(&plan));

        let mut plan = gtx480_split_plan(16, 128, 8);
        plan.steps.retain(|s| !matches!(s, Step::Download { .. }));
        assert!(rejected(&plan));
    }

    #[test]
    fn plan_json_round_trips_and_validates() {
        for (m, n, bytes) in [(2048usize, 128usize, 8usize), (64, 512, 8), (16, 1024, 4)] {
            let plan = gtx480_plan(m, n, bytes);
            let text = plan.to_json().to_string();
            let doc = gpu_sim::json::parse(&text).unwrap();
            let problems = validate_plan_json(&doc);
            assert!(problems.is_empty(), "m={m} n={n}: {problems:?}");
        }
    }

    #[test]
    fn json_validator_rejects_drift() {
        let plan = gtx480_plan(64, 512, 8);
        let mut doc = plan.to_json();
        if let Json::Obj(fields) = &mut doc {
            fields.retain(|(k, _)| k != "steps");
        }
        assert!(!validate_plan_json(&doc).is_empty());

        let doc = with_schema(plan.to_json(), "tridiag.solve_plan/v999");
        assert!(!validate_plan_json(&doc).is_empty());
    }

    /// `doc` with its top-level `key` set to the string `value`.
    fn with_field(mut doc: Json, key: &str, value: &str) -> Json {
        if let Json::Obj(fields) = &mut doc {
            if let Some((_, v)) = fields.iter_mut().find(|(k, _)| k == key) {
                *v = Json::str(value);
            }
        }
        doc
    }

    /// Relabel `doc` as `schema`, as an older writer would have.
    fn with_schema(doc: Json, schema: &str) -> Json {
        with_field(doc, "schema", schema)
    }

    #[test]
    fn json_validators_reject_v1_and_v2_documents() {
        // Older documents must fail strictly, not be absorbed — even
        // when every field they carry is still well formed.
        let plan = gtx480_plan(64, 512, 8);
        for old in ["tridiag.solve_plan/v1", "tridiag.solve_plan/v2"] {
            let problems = validate_plan_json(&with_schema(plan.to_json(), old));
            assert!(
                problems.iter().any(|p| p.contains("schema")),
                "{old}: {problems:?}"
            );
        }
        let mut v1 = with_schema(plan.to_json(), "tridiag.solve_plan/v1");
        if let Json::Obj(fields) = &mut v1 {
            fields.retain(|(k, _)| k != "host_layout");
        }
        let problems = validate_plan_json(&v1);
        assert!(
            problems.iter().any(|p| p.contains("host_layout")),
            "{problems:?}"
        );

        let group = DeviceGroup::homogeneous(DeviceSpec::gtx480(), 2).unwrap();
        let sp = ShardedPlan::build(&group, &GpuSolverConfig::default(), 64, 512, 8).unwrap();
        for old in ["tridiag.sharded_plan/v1", "tridiag.sharded_plan/v2"] {
            let problems = validate_sharded_plan_json(&with_schema(sp.to_json(), old));
            assert!(
                problems.iter().any(|p| p.contains("schema")),
                "{old}: {problems:?}"
            );
        }
    }

    #[test]
    fn matching_host_layout_elides_conversions() {
        // k = 0 geometry: device layout is interleaved, so an
        // interleaved host batch is borrowed as-is.
        let plan = SolvePlan::build_for_host(
            &DeviceSpec::gtx480(),
            &GpuSolverConfig::default(),
            Layout::Interleaved,
            2048,
            128,
            8,
        )
        .unwrap();
        assert_eq!(plan.layout, Layout::Interleaved);
        assert_eq!(plan.host_layout, Layout::Interleaved);
        assert!(plan
            .steps
            .iter()
            .all(|s| !matches!(s, Step::Convert { .. } | Step::ConvertBack { .. })));
        assert_certified(&plan);

        // k > 0 geometry: device layout is contiguous, so the same
        // host layout keeps its conversions.
        let plan = SolvePlan::build_for_host(
            &DeviceSpec::gtx480(),
            &GpuSolverConfig::default(),
            Layout::Interleaved,
            64,
            512,
            8,
        )
        .unwrap();
        assert_eq!(plan.layout, Layout::Contiguous);
        assert!(plan.steps.iter().any(|s| matches!(s, Step::Convert { .. })));
        assert!(plan
            .steps
            .iter()
            .any(|s| matches!(s, Step::ConvertBack { .. })));
    }

    #[test]
    fn contiguous_host_plans_keep_their_legacy_shape() {
        // The hybrid pipeline's (no-op) contiguous Convert steps stay:
        // legacy plan shapes are pinned by the golden snapshots.
        let plan = gtx480_plan(64, 512, 8);
        assert_eq!(plan.layout, Layout::Contiguous);
        assert_eq!(plan.host_layout, Layout::Contiguous);
        assert!(plan.steps.iter().any(|s| matches!(s, Step::Convert { .. })));
        assert!(plan
            .steps
            .iter()
            .any(|s| matches!(s, Step::ConvertBack { .. })));
    }

    #[test]
    fn forced_interleaved_builds_the_pure_pthomas_plan() {
        let plan = SolvePlan::build(
            &DeviceSpec::gtx480(),
            &GpuSolverConfig {
                layout: LayoutChoice::Interleaved,
                ..Default::default()
            },
            64,
            512,
            8,
        )
        .unwrap();
        assert_eq!(plan.k, 0);
        assert_eq!(plan.layout, Layout::Interleaved);
        let names: Vec<_> = plan.launches().map(|l| l.name).collect();
        assert_eq!(names, ["p_thomas"]);
        assert_certified(&plan);
    }

    #[test]
    fn forced_contiguous_k0_uses_the_strawman_addressing() {
        let plan = SolvePlan::build(
            &DeviceSpec::gtx480(),
            &GpuSolverConfig {
                layout: LayoutChoice::Contiguous,
                ..Default::default()
            },
            2048,
            128,
            8,
        )
        .unwrap();
        assert_eq!(plan.k, 0);
        assert_eq!(plan.layout, Layout::Contiguous);
        let maps: Vec<_> = plan
            .launches()
            .filter_map(|l| match &l.op {
                KernelOp::PThomas { map, .. } => Some(*map),
                _ => None,
            })
            .collect();
        assert_eq!(maps, [AddrMap::Contiguous { m: 2048, n: 128 }]);
        // Contiguous-host plans keep the (no-op) conversion steps.
        assert!(plan.steps.iter().any(|s| matches!(s, Step::Convert { .. })));
    }

    #[test]
    fn sharded_plan_pins_reference_layout() {
        // The full batch at m = 1024 picks interleaved p-Thomas (k = 0);
        // a 4-way shard (m = 256) on its own would pick the contiguous
        // hybrid at k = 4 — pinning must keep every shard on the
        // reference layout.
        let group = DeviceGroup::homogeneous(DeviceSpec::gtx480(), 4).unwrap();
        let cfg = GpuSolverConfig::default();
        let sp = ShardedPlan::build(&group, &cfg, 1024, 512, 8).unwrap();
        assert_eq!(sp.reference.layout, Layout::Interleaved);
        assert_eq!(sp.reference.k, 0);
        let solo = SolvePlan::build(&DeviceSpec::gtx480(), &cfg, 256, 512, 8).unwrap();
        assert_ne!(solo.layout, sp.reference.layout);
        assert_eq!(solo.k, 4);
        for sh in &sp.shards {
            assert_eq!(sh.plan.layout, sp.reference.layout);
            assert_eq!(sh.plan.k, sp.reference.k);
        }
    }

    /// Set `key` to `value` in the first step whose op is `op`.
    fn set_step_field(doc: &mut Json, op: &str, key: &str, value: Json) {
        let Json::Obj(fields) = doc else { return };
        let Some((_, Json::Arr(steps))) = fields.iter_mut().find(|(k, _)| k == "steps") else {
            return;
        };
        let step = steps
            .iter_mut()
            .find(|s| s.get("op").and_then(Json::as_str) == Some(op));
        if let Some(Json::Obj(sf)) = step {
            if let Some((_, v)) = sf.iter_mut().find(|(k, _)| k == key) {
                *v = value;
            }
        }
    }

    #[test]
    fn json_validator_rejects_bad_layout_and_source() {
        let plan = gtx480_plan(64, 512, 8);
        // Unknown device layout string.
        let problems = validate_plan_json(&with_field(plan.to_json(), "layout", "ColumnMajor"));
        assert!(
            problems.iter().any(|p| p.contains("layout")),
            "{problems:?}"
        );

        // Unknown upload source letter.
        let mut doc = plan.to_json();
        set_step_field(&mut doc, "upload", "source", Json::str("e"));
        let problems = validate_plan_json(&doc);
        assert!(
            problems.iter().any(|p| p.contains("upload source")),
            "{problems:?}"
        );
    }

    #[test]
    fn json_validator_rejects_negative_slot_and_unknown_op() {
        let plan = gtx480_plan(64, 512, 8);
        // A slot is a non-negative integer; whether it is in range is
        // the verifier's call.
        let mut doc = plan.to_json();
        set_step_field(&mut doc, "download", "slot", Json::num(-1.0));
        let problems = validate_plan_json(&doc);
        assert!(
            problems
                .iter()
                .any(|p| p.contains("\"slot\" is not a non-negative integer")),
            "{problems:?}"
        );

        // Unknown step kind.
        let mut doc = plan.to_json();
        set_step_field(&mut doc, "convert", "op", Json::str("teleport"));
        let problems = validate_plan_json(&doc);
        assert!(
            problems.iter().any(|p| p.contains("unknown op")),
            "{problems:?}"
        );
    }

    #[test]
    fn partition_balances_and_enforces_the_minimum_per_part() {
        let parts = partition(10, 3, Partition::Systems).unwrap();
        assert_eq!(parts, vec![(0, 4), (4, 3), (7, 3)]);
        assert_eq!(partition(10, 3, Partition::Rows).unwrap(), parts);
        assert_eq!(partition(5, 1, Partition::Systems).unwrap(), vec![(0, 5)]);
        // 5 systems fill 5 shards; 5 rows cannot give 3 chunks 2 each.
        assert!(partition(5, 5, Partition::Systems).is_ok());
        assert!(partition(5, 3, Partition::Rows).is_err());
        for of in [Partition::Systems, Partition::Rows] {
            for (total, d) in [(0usize, 2usize), (4, 0), (3, 4), (0, 0)] {
                let err = partition(total, d, of).unwrap_err();
                assert!(
                    matches!(err, SimError::InvalidPlan(_)),
                    "{of:?} {total}/{d}"
                );
            }
        }
    }

    #[test]
    fn tile_walk_reports_gaps_small_parts_coverage_and_skew() {
        let mut walk = TileWalk::new(Partition::Rows);
        assert!(walk.part(0, 4).is_empty());
        let problems = walk.part(5, 1);
        assert_eq!(problems.len(), 2, "{problems:?}");
        assert!(problems[0].contains("starts at row 5"), "{problems:?}");
        assert!(problems[1].contains("interface pair"), "{problems:?}");
        let problems = walk.finish(8);
        assert_eq!(problems.len(), 2, "{problems:?}");
        assert!(problems[0].contains("chunks cover [0, 6)"), "{problems:?}");
        assert!(problems[1].contains("unbalanced"), "{problems:?}");
        assert!(TileWalk::new(Partition::Systems).finish(3).is_empty());
    }

    #[test]
    fn single_device_sharded_plan_is_the_identity() {
        let group = DeviceGroup::single(DeviceSpec::gtx480());
        let sp = ShardedPlan::build(&group, &GpuSolverConfig::default(), 64, 512, 8).unwrap();
        assert_eq!(sp.shards.len(), 1);
        assert_eq!(sp.shards[0].plan, sp.reference);
        assert_eq!(sp.shards[0].sys_count, 64);
    }

    #[test]
    fn sharded_plan_pins_reference_decisions() {
        let group = DeviceGroup::homogeneous(DeviceSpec::gtx480(), 4).unwrap();
        let sp = ShardedPlan::build(&group, &GpuSolverConfig::default(), 64, 512, 8).unwrap();
        // Unsharded m=16 would choose a different pipeline (k=7,
        // BlockGroupPerSystem); pinning keeps every shard on the
        // reference decision so outputs stay bit-identical.
        let solo = gtx480_plan(16, 512, 8);
        assert_ne!(
            (solo.k, solo.mapping),
            (sp.reference.k, sp.reference.mapping)
        );
        for sh in &sp.shards {
            assert_eq!(sh.plan.k, sp.reference.k);
            assert_eq!(sh.plan.mapping, sp.reference.mapping);
            assert_eq!(sh.plan.fused, sp.reference.fused);
            assert_eq!(sh.sys_count, 16);
        }
    }

    #[test]
    fn heterogeneous_shard_reclamps_k_to_its_device() {
        // GTX280 has 16 KiB shared per block vs the GTX480's 48 KiB, so
        // the pinned reference k must clamp down on that shard.
        let group =
            DeviceGroup::from_specs(vec![DeviceSpec::gtx480(), DeviceSpec::gtx280()]).unwrap();
        let sp = ShardedPlan::build(&group, &GpuSolverConfig::default(), 16, 1024, 8).unwrap();
        assert_eq!(sp.shards[0].plan.k, sp.reference.k);
        assert!(
            sp.shards[1].plan.k <= sp.reference.k,
            "gtx280 shard k {} exceeds reference {}",
            sp.shards[1].plan.k,
            sp.reference.k
        );
    }

    #[test]
    fn sharded_plan_json_round_trips_and_validates() {
        let group = DeviceGroup::homogeneous(DeviceSpec::gtx480(), 2).unwrap();
        let sp = ShardedPlan::build(&group, &GpuSolverConfig::default(), 64, 512, 8).unwrap();
        let text = sp.to_json().to_string();
        let doc = gpu_sim::json::parse(&text).unwrap();
        let problems = validate_sharded_plan_json(&doc);
        assert!(problems.is_empty(), "{problems:?}");
    }

    #[test]
    fn sharded_json_validator_rejects_drift() {
        let group = DeviceGroup::homogeneous(DeviceSpec::gtx480(), 2).unwrap();
        let sp = ShardedPlan::build(&group, &GpuSolverConfig::default(), 64, 512, 8).unwrap();
        let mut doc = sp.to_json();
        if let Json::Obj(fields) = &mut doc {
            fields.retain(|(k, _)| k != "shards");
        }
        assert!(!validate_sharded_plan_json(&doc).is_empty());
    }
}
