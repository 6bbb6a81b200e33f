//! The block-synchronous kernel execution engine.
//!
//! Kernels are written in explicit SIMT style: a [`BlockKernel`]
//! describes what *one thread block* does, and every memory operation is
//! block-wide — a slice of per-thread indices (one per active thread,
//! chunked into warps internally). This keeps the functional semantics
//! exact, makes coalescing/bank-conflict analysis cheap and precise, and
//! matches how the paper's kernels are actually structured (lockstep
//! phases separated by `__syncthreads()`).
//!
//! Blocks execute sequentially on the host, which is one of the valid
//! CUDA interleavings: CUDA guarantees nothing about cross-block
//! ordering within a launch, and no kernel in this workspace
//! communicates across blocks. Determinism is total — every run of a
//! kernel produces identical results *and* identical counters.

use crate::counters::{BlockStats, KernelStats, PhaseStats, PRELUDE_PHASE};
use crate::error::{Result, SimError};
use crate::memory::{shared_conflict_cycles, warp_transactions, InitMask};
use crate::occupancy::{occupancy, Occupancy};
use crate::plan::{AccessKind, AccessPlan, PlanRecorder};
use crate::sanitizer::{MemSpace, Sanitizer, SanitizerViolation};
use crate::spec::DeviceSpec;
use std::fmt::Debug;

/// Element types storable in simulated GPU memory.
pub trait Elem: Copy + Default + Debug + PartialEq + Send + Sync + 'static {
    /// Size in bytes, used for traffic accounting.
    const BYTES: usize;
}

impl Elem for f32 {
    const BYTES: usize = 4;
}
impl Elem for f64 {
    const BYTES: usize = 8;
}
impl Elem for u32 {
    const BYTES: usize = 4;
}

/// Handle to a global-memory buffer in a [`GpuMemory`] arena.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash)]
pub struct BufId(usize);

/// Simulated device global memory: an arena of typed buffers.
///
/// Every buffer carries a word-granular [`InitMask`] shadow recording
/// which elements have ever been written — by a kernel store or a host
/// upload. The sanitizer's initcheck reads it; maintenance is cheap
/// enough to run unconditionally, so the shadow stays accurate even
/// when only some launches are sanitized.
#[derive(Debug, Default)]
pub struct GpuMemory<S: Elem> {
    buffers: Vec<Vec<S>>,
    init: Vec<InitMask>,
    resident_bytes: usize,
    peak_resident_bytes: usize,
}

impl<S: Elem> GpuMemory<S> {
    /// Empty arena.
    pub fn new() -> Self {
        Self {
            buffers: Vec::new(),
            init: Vec::new(),
            resident_bytes: 0,
            peak_resident_bytes: 0,
        }
    }

    fn account_alloc(&mut self, len: usize) {
        self.resident_bytes += len * S::BYTES;
        self.peak_resident_bytes = self.peak_resident_bytes.max(self.resident_bytes);
    }

    /// Allocate a buffer of `len` elements. Functionally zero-filled
    /// (deterministic), but *uninitialized* to the sanitizer — like
    /// `cudaMalloc`, whose contents are undefined.
    pub fn alloc(&mut self, len: usize) -> BufId {
        self.buffers.push(vec![S::default(); len]);
        self.init.push(InitMask::uninit(len));
        self.account_alloc(len);
        BufId(self.buffers.len() - 1)
    }

    /// Upload host data ("cudaMemcpy host→device"); fully initialized.
    pub fn alloc_from(&mut self, data: Vec<S>) -> BufId {
        self.account_alloc(data.len());
        self.buffers.push(data);
        self.init.push(InitMask::Full);
        BufId(self.buffers.len() - 1)
    }

    /// Release a buffer ("cudaFree"): its storage is dropped and its
    /// bytes leave the resident set, but the `BufId` index slot is kept
    /// so later allocations keep their identities (any access through
    /// the freed id fails as out-of-bounds on a zero-length buffer).
    pub fn free(&mut self, id: BufId) -> Result<()> {
        let buf = self
            .buffers
            .get_mut(id.0)
            .ok_or(SimError::BadBuffer { buffer: id.0 })?;
        self.resident_bytes = self.resident_bytes.saturating_sub(buf.len() * S::BYTES);
        *buf = Vec::new();
        self.init[id.0] = InitMask::uninit(0);
        Ok(())
    }

    /// Bytes currently allocated across live (un-freed) buffers.
    pub fn resident_bytes(&self) -> usize {
        self.resident_bytes
    }

    /// High-water mark of [`Self::resident_bytes`] over the arena's
    /// lifetime — the quantity a plan verifier's liveness-based peak
    /// prediction must match exactly.
    pub fn peak_resident_bytes(&self) -> usize {
        self.peak_resident_bytes
    }

    /// Is element `i` of `id` initialized (host-uploaded or stored to)?
    pub fn is_word_init(&self, id: BufId, i: usize) -> bool {
        self.init.get(id.0).is_some_and(|m| m.is_set(i))
    }

    /// Read back a buffer ("cudaMemcpy device→host").
    pub fn read(&self, id: BufId) -> Result<&[S]> {
        self.buffers
            .get(id.0)
            .map(|v| v.as_slice())
            .ok_or(SimError::BadBuffer { buffer: id.0 })
    }

    /// Length of a buffer.
    pub fn len(&self, id: BufId) -> Result<usize> {
        Ok(self.read(id)?.len())
    }

    /// `true` if the arena holds no buffers.
    pub fn is_empty(&self) -> bool {
        self.buffers.is_empty()
    }

    /// Host-side mutable access (outside kernels; e.g. to refresh an RHS
    /// between solves without re-alloc).
    pub fn write(&mut self, id: BufId, data: &[S]) -> Result<()> {
        let buf = self
            .buffers
            .get_mut(id.0)
            .ok_or(SimError::BadBuffer { buffer: id.0 })?;
        if buf.len() != data.len() {
            return Err(SimError::LaneMismatch {
                indices: buf.len(),
                values: data.len(),
            });
        }
        buf.copy_from_slice(data);
        self.init[id.0] = InitMask::Full;
        Ok(())
    }
}

/// Execution options orthogonal to the launch geometry — the sanitizer
/// toggles and the access-plan recorder. Pass to [`launch_with`];
/// [`launch`] uses the default (everything off).
#[derive(Debug, Clone, Copy, Default, PartialEq, Eq)]
pub struct ExecConfig {
    /// Run the kernel under the sanitizer (see [`crate::sanitizer`]),
    /// collecting its findings into [`LaunchResult::violations`].
    /// Out-of-bounds accesses abort the launch.
    pub sanitize: bool,
    /// Record every access's affine index expression into an
    /// [`AccessPlan`] attached to [`LaunchResult::plan`], as input for
    /// the lint's counter model in [`crate::lint`](mod@crate::lint).
    pub record_plan: bool,
}

impl ExecConfig {
    /// Sanitizer on.
    pub fn sanitized() -> Self {
        Self {
            sanitize: true,
            ..Self::default()
        }
    }

    /// Plan recording on (sanitizer off).
    pub fn planned() -> Self {
        Self {
            record_plan: true,
            ..Self::default()
        }
    }

    /// Everything on: sanitizer plus plan recording — the `--check`
    /// configuration.
    pub fn checked() -> Self {
        Self {
            sanitize: true,
            record_plan: true,
        }
    }
}

/// Launch configuration (the `<<<grid, block>>>` pair plus a register
/// estimate for the occupancy model).
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct LaunchConfig {
    /// Kernel name for reports.
    pub name: &'static str,
    /// Number of thread blocks.
    pub grid_blocks: usize,
    /// Threads per block.
    pub threads_per_block: u32,
    /// Registers per thread (occupancy input; nvcc would report this).
    pub regs_per_thread: u32,
}

impl LaunchConfig {
    /// Convenience constructor.
    pub fn new(name: &'static str, grid_blocks: usize, threads_per_block: u32) -> Self {
        Self {
            name,
            grid_blocks,
            threads_per_block,
            regs_per_thread: 32,
        }
    }

    /// Override the register estimate.
    pub fn with_regs(mut self, regs: u32) -> Self {
        self.regs_per_thread = regs;
        self
    }
}

/// What one thread block may do: the body of the simulated kernel.
pub trait BlockKernel<S: Elem> {
    /// Execute one block. All global/shared accesses go through `ctx`.
    fn run_block(&self, ctx: &mut BlockCtx<'_, S>) -> Result<()>;
}

/// Per-block execution context handed to [`BlockKernel::run_block`].
pub struct BlockCtx<'a, S: Elem> {
    /// This block's index in the grid.
    pub block_id: usize,
    /// Total blocks in the grid.
    pub grid_blocks: usize,
    /// Threads in this block.
    pub threads: usize,
    mem: &'a mut GpuMemory<S>,
    shared: Vec<S>,
    warp_size: usize,
    transaction_bytes: usize,
    banks: u32,
    max_shared_bytes: usize,
    stats: BlockStats,
    cur_phase: &'static str,
    phase_stats: Vec<PhaseStats>,
    san: Option<Sanitizer>,
    rec: Option<PlanRecorder>,
}

impl<'a, S: Elem> BlockCtx<'a, S> {
    /// Apply one counter update to both the block total and the current
    /// phase's entry — the mechanism behind the exact per-phase
    /// breakdown invariant ([`KernelStats::phase_sum_mismatches`]).
    fn bump(&mut self, f: impl Fn(&mut BlockStats)) {
        f(&mut self.stats);
        let cur = self.cur_phase;
        let idx = match self.phase_stats.iter().position(|p| p.label == cur) {
            Some(i) => i,
            None => {
                self.phase_stats.push(PhaseStats {
                    label: cur,
                    stats: BlockStats::default(),
                });
                self.phase_stats.len() - 1
            }
        };
        f(&mut self.phase_stats[idx].stats);
    }

    /// Block-wide global load: `idx[t]` is the element index thread `t`
    /// reads. `idx.len()` may be any count up to the block size (tail
    /// threads simply idle). Counts one dependent access round, and one
    /// transaction per distinct 128-byte segment per warp.
    pub fn ld(&mut self, buf: BufId, idx: &[usize], out: &mut Vec<S>) -> Result<()> {
        self.account_global(buf, idx, true)?;
        if let Some(rec) = self.rec.as_mut() {
            rec.access(AccessKind::GlobalLoad, Some(buf.0), idx);
        }
        if let Some(san) = self.san.as_mut() {
            let mask = &self.mem.init[buf.0];
            for (lane, &i) in idx.iter().enumerate() {
                if !mask.is_set(i) {
                    san.global_uninit_read(lane, buf.0, i);
                }
            }
        }
        let data = self.mem.read(buf)?;
        out.clear();
        out.reserve(idx.len());
        for &i in idx {
            out.push(data[i]);
        }
        Ok(())
    }

    /// Block-wide global store: thread `t` writes `vals[t]` to
    /// `idx[t]`. Duplicate indices within one store are a data race in
    /// real CUDA; here the last lane deterministically wins.
    pub fn st(&mut self, buf: BufId, idx: &[usize], vals: &[S]) -> Result<()> {
        if idx.len() != vals.len() {
            return Err(SimError::LaneMismatch {
                indices: idx.len(),
                values: vals.len(),
            });
        }
        self.account_global(buf, idx, false)?;
        if let Some(rec) = self.rec.as_mut() {
            rec.access(AccessKind::GlobalStore, Some(buf.0), idx);
        }
        let data = self
            .mem
            .buffers
            .get_mut(buf.0)
            .ok_or(SimError::BadBuffer { buffer: buf.0 })?;
        for (&i, &v) in idx.iter().zip(vals) {
            data[i] = v;
        }
        let mask = &mut self.mem.init[buf.0];
        for &i in idx {
            mask.set(i);
        }
        Ok(())
    }

    fn account_global(&mut self, buf: BufId, idx: &[usize], is_load: bool) -> Result<()> {
        let len = self.mem.len(buf)?;
        if let Some(pos) = idx.iter().position(|&i| i >= len) {
            if let Some(san) = self.san.as_mut() {
                return Err(san.oob(pos, idx[pos], len, MemSpace::Global, Some(buf.0)));
            }
            return Err(SimError::GlobalOutOfBounds {
                buffer: buf.0,
                index: idx[pos],
                len,
            });
        }
        if idx.len() > self.threads {
            return Err(SimError::InvalidLaunch(format!(
                "{} lanes exceed block size {}",
                idx.len(),
                self.threads
            )));
        }
        let mut transactions = 0u64;
        for warp in idx.chunks(self.warp_size) {
            transactions += warp_transactions(warp, S::BYTES, self.transaction_bytes);
        }
        let bytes = idx.len() as u64 * S::BYTES as u64;
        self.bump(|s| {
            if is_load {
                s.global_load_transactions += transactions;
                s.global_load_bytes += bytes;
            } else {
                s.global_store_transactions += transactions;
                s.global_store_bytes += bytes;
            }
            s.global_access_rounds += 1;
        });
        Ok(())
    }

    /// Allocate `len` elements of shared memory; returns the base offset
    /// within the block's shared array. Mirrors `extern __shared__`
    /// carving.
    pub fn shared_alloc(&mut self, len: usize) -> Result<usize> {
        let base = self.shared.len();
        let new_bytes = (base + len) * S::BYTES;
        if new_bytes > self.max_shared_bytes {
            return Err(SimError::SharedOverflow {
                requested: new_bytes,
                capacity: self.max_shared_bytes,
            });
        }
        self.shared.resize(base + len, S::default());
        self.bump(|s| s.shared_bytes_peak = s.shared_bytes_peak.max(new_bytes as u64));
        if let Some(san) = self.san.as_mut() {
            san.on_shared_alloc(base + len);
        }
        if let Some(rec) = self.rec.as_mut() {
            rec.alloc(base, len);
        }
        Ok(base)
    }

    /// Block-wide shared load with bank-conflict accounting.
    pub fn sh_ld(&mut self, idx: &[usize], out: &mut Vec<S>) -> Result<()> {
        self.account_shared(idx)?;
        if let Some(rec) = self.rec.as_mut() {
            rec.access(AccessKind::SharedLoad, None, idx);
        }
        if let Some(san) = self.san.as_mut() {
            san.shared_access(idx, false);
        }
        out.clear();
        out.reserve(idx.len());
        for &i in idx {
            out.push(self.shared[i]);
        }
        Ok(())
    }

    /// Block-wide shared store with bank-conflict accounting.
    pub fn sh_st(&mut self, idx: &[usize], vals: &[S]) -> Result<()> {
        if idx.len() != vals.len() {
            return Err(SimError::LaneMismatch {
                indices: idx.len(),
                values: vals.len(),
            });
        }
        self.account_shared(idx)?;
        if let Some(rec) = self.rec.as_mut() {
            rec.access(AccessKind::SharedStore, None, idx);
        }
        if let Some(san) = self.san.as_mut() {
            san.shared_access(idx, true);
        }
        for (&i, &v) in idx.iter().zip(vals) {
            self.shared[i] = v;
        }
        Ok(())
    }

    /// Direct (host-speed) view of shared memory for *functional* reads
    /// within already-accounted phases — e.g. the per-thread serial part
    /// of a fused kernel whose traffic was accounted at the vector ops.
    pub fn shared_slice(&self) -> &[S] {
        &self.shared
    }

    fn account_shared(&mut self, idx: &[usize]) -> Result<()> {
        if let Some(pos) = idx.iter().position(|&i| i >= self.shared.len()) {
            let len = self.shared.len();
            if let Some(san) = self.san.as_mut() {
                return Err(san.oob(pos, idx[pos], len, MemSpace::Shared, None));
            }
            return Err(SimError::SharedOutOfBounds {
                index: idx[pos],
                len,
            });
        }
        let mut replays = 0u64;
        for warp in idx.chunks(self.warp_size) {
            replays += shared_conflict_cycles(warp, S::BYTES, self.banks) - 1;
        }
        self.bump(|s| {
            s.shared_accesses += 1;
            s.bank_conflict_replays += replays;
        });
        Ok(())
    }

    /// `__syncthreads()` — every lane of the block arrives.
    pub fn sync(&mut self) {
        self.bump(|s| s.barriers += 1);
        if let Some(rec) = self.rec.as_mut() {
            rec.barrier();
        }
        if let Some(san) = self.san.as_mut() {
            san.barrier();
        }
    }

    /// A barrier only the given lanes reach — how divergent kernels
    /// misuse `__syncthreads()` inside non-uniform control flow. Under
    /// the sanitizer a strict subset of the block's lanes is reported
    /// as [`SanitizerViolation::BarrierDivergence`]; without it this is
    /// identical to [`BlockCtx::sync`] (the simulator cannot hang).
    pub fn sync_arrive(&mut self, arrived: &[usize]) {
        self.bump(|s| s.barriers += 1);
        if let Some(rec) = self.rec.as_mut() {
            rec.barrier();
        }
        if let Some(san) = self.san.as_mut() {
            san.barrier_arrive(arrived);
        }
    }

    /// Label the phase subsequent accesses belong to. Counters bumped
    /// after this call are attributed to `label` in
    /// [`KernelStats::phases`] (in addition to the totals); activity
    /// before the first call lands in
    /// [`crate::counters::PRELUDE_PHASE`]. The label also tags plan
    /// recording and lint attribution when
    /// [`ExecConfig::record_plan`] is on.
    pub fn phase(&mut self, label: &'static str) {
        self.cur_phase = label;
        if let Some(rec) = self.rec.as_mut() {
            rec.set_phase(label);
        }
    }

    /// Account `n` floating-point operations (block-wide total).
    pub fn flops(&mut self, n: u64) {
        self.bump(|s| s.flops += n);
    }

    /// Counters accumulated so far (final values are returned by
    /// [`launch`]).
    pub fn stats(&self) -> &BlockStats {
        &self.stats
    }
}

/// Result of a kernel launch: functional effects live in the
/// [`GpuMemory`], performance effects here.
#[derive(Debug, Clone, PartialEq)]
pub struct LaunchResult {
    /// Kernel name (from the config).
    pub name: &'static str,
    /// Aggregated counters.
    pub stats: KernelStats,
    /// Residency achieved (from the worst block's shared footprint).
    pub occupancy: Occupancy,
    /// Shared memory per block in bytes (max over blocks).
    pub shared_bytes_per_block: usize,
    /// Echo of the launch configuration.
    pub config: LaunchConfig,
    /// Sanitizer violation reports, capped per block at
    /// [`crate::sanitizer::MAX_VIOLATIONS`]; empty when the sanitizer was off
    /// or the kernel is clean. Uncapped tallies live in
    /// `stats.total.sanitizer`.
    pub violations: Vec<SanitizerViolation>,
    /// The recorded affine access plan (input for [`crate::lint`](mod@crate::lint));
    /// `None` unless [`ExecConfig::record_plan`] was set.
    pub plan: Option<AccessPlan>,
}

/// Launch `kernel` over `cfg.grid_blocks` blocks against `mem` with the
/// default [`ExecConfig`] (sanitizer off).
///
/// Functionally exact: after this returns, `mem` holds precisely what a
/// real device would. Counters are exact per the access-level model.
pub fn launch<S: Elem, K: BlockKernel<S>>(
    spec: &DeviceSpec,
    cfg: &LaunchConfig,
    kernel: &K,
    mem: &mut GpuMemory<S>,
) -> Result<LaunchResult> {
    launch_with(spec, cfg, &ExecConfig::default(), kernel, mem)
}

/// [`launch`] with explicit [`ExecConfig`] execution options — the
/// entry point for sanitized runs.
pub fn launch_with<S: Elem, K: BlockKernel<S>>(
    spec: &DeviceSpec,
    cfg: &LaunchConfig,
    exec: &ExecConfig,
    kernel: &K,
    mem: &mut GpuMemory<S>,
) -> Result<LaunchResult> {
    if cfg.grid_blocks == 0 {
        return Err(SimError::InvalidLaunch("empty grid".into()));
    }
    if cfg.threads_per_block == 0 || cfg.threads_per_block > spec.max_threads_per_block {
        return Err(SimError::InvalidLaunch(format!(
            "{} threads/block unsupported (max {})",
            cfg.threads_per_block, spec.max_threads_per_block
        )));
    }

    let mut stats = KernelStats {
        blocks: cfg.grid_blocks,
        threads_per_block: cfg.threads_per_block,
        rounds_per_block: Vec::with_capacity(cfg.grid_blocks),
        flops_per_block: Vec::with_capacity(cfg.grid_blocks),
        bytes_per_block: Vec::with_capacity(cfg.grid_blocks),
        ..Default::default()
    };
    let mut shared_peak = 0usize;
    let mut violations: Vec<SanitizerViolation> = Vec::new();
    let mut plan = exec.record_plan.then(|| AccessPlan {
        kernel: cfg.name,
        grid_blocks: cfg.grid_blocks,
        threads_per_block: cfg.threads_per_block as usize,
        elem_bytes: S::BYTES,
        warp_size: spec.warp_size as usize,
        segment_bytes: spec.transaction_bytes,
        banks: spec.shared_banks,
        blocks: Vec::with_capacity(cfg.grid_blocks),
    });

    for block_id in 0..cfg.grid_blocks {
        let mut ctx = BlockCtx {
            block_id,
            grid_blocks: cfg.grid_blocks,
            threads: cfg.threads_per_block as usize,
            mem,
            shared: Vec::new(),
            warp_size: spec.warp_size as usize,
            transaction_bytes: spec.transaction_bytes,
            banks: spec.shared_banks,
            max_shared_bytes: spec.max_shared_per_block,
            stats: BlockStats::default(),
            cur_phase: PRELUDE_PHASE,
            phase_stats: Vec::new(),
            san: exec.sanitize.then(|| {
                Sanitizer::new(
                    cfg.name,
                    block_id,
                    cfg.threads_per_block as usize,
                    spec.warp_size as usize,
                )
            }),
            rec: exec.record_plan.then(|| PlanRecorder::new(block_id)),
        };
        kernel.run_block(&mut ctx)?;
        stats.merge_block_phases(&ctx.phase_stats);
        let mut b = ctx.stats;
        if let (Some(plan), Some(rec)) = (plan.as_mut(), ctx.rec) {
            plan.blocks.push(rec.finish());
        }
        if let Some(mut san) = ctx.san {
            b.sanitizer = san.counts();
            violations.append(&mut san.take_violations());
        }
        shared_peak = shared_peak.max(b.shared_bytes_peak as usize);
        stats.rounds_per_block.push(b.global_access_rounds);
        stats.flops_per_block.push(b.flops);
        stats.bytes_per_block.push(b.global_bytes());
        stats.total.merge(&b);
    }

    let occ = occupancy(spec, cfg.threads_per_block, shared_peak, cfg.regs_per_thread)?;
    Ok(LaunchResult {
        name: cfg.name,
        stats,
        occupancy: occ,
        shared_bytes_per_block: shared_peak,
        config: cfg.clone(),
        violations,
        plan,
    })
}

#[cfg(test)]
mod tests {
    use super::*;

    /// Kernel: out[i] = in[i] * 2 over one block-sized chunk per block.
    struct DoubleKernel {
        input: BufId,
        output: BufId,
        n: usize,
    }

    impl BlockKernel<f64> for DoubleKernel {
        fn run_block(&self, ctx: &mut BlockCtx<'_, f64>) -> Result<()> {
            let base = ctx.block_id * ctx.threads;
            let count = ctx.threads.min(self.n.saturating_sub(base));
            if count == 0 {
                return Ok(());
            }
            let idx: Vec<usize> = (base..base + count).collect();
            let mut vals = Vec::new();
            ctx.ld(self.input, &idx, &mut vals)?;
            for v in &mut vals {
                *v *= 2.0;
            }
            ctx.flops(count as u64);
            ctx.st(self.output, &idx, &vals)?;
            Ok(())
        }
    }

    fn gtx480() -> DeviceSpec {
        DeviceSpec::gtx480()
    }

    #[test]
    fn functional_result_exact() {
        let mut mem = GpuMemory::new();
        let n = 1000;
        let input = mem.alloc_from((0..n).map(|i| i as f64).collect());
        let output = mem.alloc(n);
        let cfg = LaunchConfig::new("double", n.div_ceil(256), 256);
        let k = DoubleKernel { input, output, n };
        let res = launch(&gtx480(), &cfg, &k, &mut mem).unwrap();
        let out = mem.read(output).unwrap();
        for (i, v) in out.iter().enumerate().take(n) {
            assert_eq!(*v, 2.0 * i as f64);
        }
        assert_eq!(res.stats.blocks, 4);
        assert_eq!(res.stats.total.flops, n as u64);
    }

    #[test]
    fn coalesced_traffic_counts() {
        let mut mem = GpuMemory::new();
        let n = 256;
        let input = mem.alloc_from(vec![1.0f64; n]);
        let output = mem.alloc(n);
        let cfg = LaunchConfig::new("double", 1, 256);
        let k = DoubleKernel { input, output, n };
        let res = launch(&gtx480(), &cfg, &k, &mut mem).unwrap();
        // 256 aligned f64 lanes = 8 warps × 2 segments, for ld and st.
        assert_eq!(res.stats.total.global_load_transactions, 16);
        assert_eq!(res.stats.total.global_store_transactions, 16);
        assert_eq!(res.stats.total.global_load_bytes, 2048);
        assert_eq!(res.stats.total.global_access_rounds, 2);
        assert!((res.stats.total.coalescing_efficiency(128) - 1.0).abs() < 1e-12);
    }

    /// Kernel demonstrating strided (uncoalesced) access.
    struct StridedKernel {
        input: BufId,
        stride: usize,
    }
    impl BlockKernel<f64> for StridedKernel {
        fn run_block(&self, ctx: &mut BlockCtx<'_, f64>) -> Result<()> {
            let idx: Vec<usize> = (0..ctx.threads).map(|t| t * self.stride).collect();
            let mut vals = Vec::new();
            ctx.ld(self.input, &idx, &mut vals)?;
            Ok(())
        }
    }

    #[test]
    fn strided_access_blows_up_transactions() {
        let mut mem = GpuMemory::new();
        let input = mem.alloc(32 * 64);
        let cfg = LaunchConfig::new("strided", 1, 32);
        let res = launch(
            &gtx480(),
            &cfg,
            &StridedKernel { input, stride: 64 },
            &mut mem,
        )
        .unwrap();
        assert_eq!(res.stats.total.global_load_transactions, 32);
        assert!(res.stats.total.coalescing_efficiency(128) < 0.07);
    }

    /// Kernel exercising shared memory and barriers.
    struct SharedReverse {
        buf: BufId,
    }
    impl BlockKernel<f64> for SharedReverse {
        fn run_block(&self, ctx: &mut BlockCtx<'_, f64>) -> Result<()> {
            let t = ctx.threads;
            let sh = ctx.shared_alloc(t)?;
            let idx: Vec<usize> = (0..t).collect();
            let mut vals = Vec::new();
            ctx.ld(self.buf, &idx, &mut vals)?;
            let sh_idx: Vec<usize> = idx.iter().map(|i| sh + i).collect();
            ctx.sh_st(&sh_idx, &vals)?;
            ctx.sync();
            let rev: Vec<usize> = (0..t).map(|i| sh + t - 1 - i).collect();
            ctx.sh_ld(&rev, &mut vals)?;
            ctx.st(self.buf, &idx, &vals)?;
            Ok(())
        }
    }

    #[test]
    fn shared_memory_and_barriers() {
        let mut mem = GpuMemory::new();
        let buf = mem.alloc_from((0..64).map(|i| i as f64).collect());
        let cfg = LaunchConfig::new("rev", 1, 64);
        let res = launch(&gtx480(), &cfg, &SharedReverse { buf }, &mut mem).unwrap();
        let out = mem.read(buf).unwrap();
        for (i, v) in out.iter().enumerate().take(64) {
            assert_eq!(*v, (63 - i) as f64);
        }
        assert_eq!(res.stats.total.barriers, 1);
        assert_eq!(res.stats.total.shared_accesses, 2);
        assert_eq!(res.shared_bytes_per_block, 64 * 8);
        // f64 stride-1: 2-way conflicts on both store and reversed load.
        assert!(res.stats.total.bank_conflict_replays > 0);
    }

    /// Kernel with explicit phases around the SharedReverse structure.
    struct PhasedReverse {
        buf: BufId,
    }
    impl BlockKernel<f64> for PhasedReverse {
        fn run_block(&self, ctx: &mut BlockCtx<'_, f64>) -> Result<()> {
            let t = ctx.threads;
            let sh = ctx.shared_alloc(t)?; // before any phase() → prelude
            let idx: Vec<usize> = (0..t).collect();
            let mut vals = Vec::new();
            ctx.phase("load");
            ctx.ld(self.buf, &idx, &mut vals)?;
            let sh_idx: Vec<usize> = idx.iter().map(|i| sh + i).collect();
            ctx.sh_st(&sh_idx, &vals)?;
            ctx.sync();
            ctx.phase("store");
            let rev: Vec<usize> = (0..t).map(|i| sh + t - 1 - i).collect();
            ctx.sh_ld(&rev, &mut vals)?;
            ctx.flops(t as u64);
            ctx.st(self.buf, &idx, &vals)?;
            Ok(())
        }
    }

    #[test]
    fn phase_labels_split_counters_exactly() {
        let mut mem = GpuMemory::new();
        let buf = mem.alloc_from((0..64).map(|i| i as f64).collect());
        let cfg = LaunchConfig::new("phased", 2, 32);
        let res = launch(&gtx480(), &cfg, &PhasedReverse { buf }, &mut mem).unwrap();
        let labels: Vec<_> = res.stats.phases.iter().map(|p| p.label).collect();
        assert_eq!(labels, vec![PRELUDE_PHASE, "load", "store"]);
        let prelude = &res.stats.phases[0].stats;
        assert_eq!(prelude.shared_bytes_peak, 32 * 8);
        assert_eq!(prelude.global_access_rounds, 0);
        let load = &res.stats.phases[1].stats;
        assert_eq!(load.global_load_transactions, res.stats.total.global_load_transactions);
        assert_eq!(load.barriers, res.stats.total.barriers);
        assert_eq!(load.flops, 0);
        let store = &res.stats.phases[2].stats;
        assert_eq!(store.flops, res.stats.total.flops);
        assert_eq!(store.global_store_bytes, res.stats.total.global_store_bytes);
        assert_eq!(res.stats.phase_sum_mismatches(), Vec::<String>::new());
    }

    #[test]
    fn unphased_kernel_lands_in_prelude() {
        let mut mem = GpuMemory::new();
        let n = 256;
        let input = mem.alloc_from(vec![1.0f64; n]);
        let output = mem.alloc(n);
        let cfg = LaunchConfig::new("double", 1, 256);
        let k = DoubleKernel { input, output, n };
        let res = launch(&gtx480(), &cfg, &k, &mut mem).unwrap();
        assert_eq!(res.stats.phases.len(), 1);
        assert_eq!(res.stats.phases[0].label, PRELUDE_PHASE);
        assert_eq!(res.stats.phases[0].stats, res.stats.total);
        assert_eq!(res.stats.phase_sum_mismatches(), Vec::<String>::new());
    }

    #[test]
    fn recorded_plan_lints_clean_and_predicts_counters() {
        let mut mem = GpuMemory::new();
        let buf = mem.alloc_from((0..64).map(|i| i as f64).collect());
        let cfg = LaunchConfig::new("rev", 1, 64);
        let res = launch_with(
            &gtx480(),
            &cfg,
            &ExecConfig::planned(),
            &SharedReverse { buf },
            &mut mem,
        )
        .unwrap();
        let plan = res.plan.as_ref().expect("plan recorded");
        assert_eq!(plan.kernel, "rev");
        assert_eq!(plan.blocks.len(), 1);
        let report = crate::lint::lint(plan);
        assert!(report.is_clean(), "{report}");
        assert_eq!(report.cross_check(&res.stats), Vec::<String>::new());
    }

    #[test]
    fn out_of_bounds_detected() {
        let mut mem = GpuMemory::new();
        let input = mem.alloc(8);
        let cfg = LaunchConfig::new("oob", 1, 32);
        let err = launch(
            &gtx480(),
            &cfg,
            &StridedKernel { input, stride: 2 },
            &mut mem,
        )
        .unwrap_err();
        assert!(matches!(err, SimError::GlobalOutOfBounds { .. }));
    }

    #[test]
    fn shared_overflow_detected() {
        struct Hog;
        impl BlockKernel<f64> for Hog {
            fn run_block(&self, ctx: &mut BlockCtx<'_, f64>) -> Result<()> {
                ctx.shared_alloc(7000)?; // 56 KB > 48 KB
                Ok(())
            }
        }
        let mut mem = GpuMemory::<f64>::new();
        let cfg = LaunchConfig::new("hog", 1, 32);
        assert!(matches!(
            launch(&gtx480(), &cfg, &Hog, &mut mem).unwrap_err(),
            SimError::SharedOverflow { .. }
        ));
    }

    #[test]
    fn launch_validation() {
        let mut mem = GpuMemory::<f64>::new();
        let input = mem.alloc(32);
        let k = StridedKernel { input, stride: 1 };
        assert!(launch(&gtx480(), &LaunchConfig::new("x", 0, 32), &k, &mut mem).is_err());
        assert!(launch(&gtx480(), &LaunchConfig::new("x", 1, 0), &k, &mut mem).is_err());
        assert!(launch(&gtx480(), &LaunchConfig::new("x", 1, 2048), &k, &mut mem).is_err());
    }

    #[test]
    fn memory_arena_tracks_resident_and_peak_bytes() {
        let mut mem = GpuMemory::<f64>::new();
        assert_eq!(mem.resident_bytes(), 0);
        let a = mem.alloc(100); // 800 bytes
        let b = mem.alloc_from(vec![0.0; 50]); // +400 = 1200
        assert_eq!(mem.resident_bytes(), 1200);
        assert_eq!(mem.peak_resident_bytes(), 1200);
        mem.free(a).unwrap();
        assert_eq!(mem.resident_bytes(), 400);
        assert_eq!(mem.peak_resident_bytes(), 1200, "peak is a high-water mark");
        let c = mem.alloc(25); // +200 = 600, below the old peak
        assert_eq!(mem.resident_bytes(), 600);
        assert_eq!(mem.peak_resident_bytes(), 1200);
        // Freed ids stay stable: the slot is kept, reads see length 0.
        assert_eq!(mem.len(a).unwrap(), 0);
        assert_ne!(b, c);
        // Double-free is harmless; freeing a bogus id is a typed error.
        mem.free(a).unwrap();
        assert!(mem.free(BufId(99)).is_err());
        assert_eq!(mem.resident_bytes(), 600);
    }

    #[test]
    fn memory_arena_host_ops() {
        let mut mem = GpuMemory::<f32>::new();
        assert!(mem.is_empty());
        let a = mem.alloc(4);
        assert_eq!(mem.len(a).unwrap(), 4);
        mem.write(a, &[1.0, 2.0, 3.0, 4.0]).unwrap();
        assert_eq!(mem.read(a).unwrap(), &[1.0, 2.0, 3.0, 4.0]);
        assert!(mem.write(a, &[1.0]).is_err());
        assert!(mem.read(BufId(9)).is_err());
    }
}

#[cfg(test)]
mod shared_slice_tests {
    use super::*;

    /// `shared_slice` exposes the functional content for serial phases
    /// whose traffic was already accounted by the vector ops.
    struct PeekKernel {
        buf: BufId,
    }
    impl BlockKernel<f64> for PeekKernel {
        fn run_block(&self, ctx: &mut BlockCtx<'_, f64>) -> Result<()> {
            let base = ctx.shared_alloc(4)?;
            ctx.sh_st(&[base, base + 1, base + 2, base + 3], &[1.0, 2.0, 3.0, 4.0])?;
            let sum: f64 = ctx.shared_slice()[base..base + 4].iter().sum();
            ctx.st(self.buf, &[0], &[sum])?;
            Ok(())
        }
    }

    #[test]
    fn shared_slice_reads_functional_state() {
        let mut mem = GpuMemory::new();
        let buf = mem.alloc(1);
        let cfg = LaunchConfig::new("peek", 1, 32);
        launch(&DeviceSpec::gtx480(), &cfg, &PeekKernel { buf }, &mut mem).unwrap();
        assert_eq!(mem.read(buf).unwrap()[0], 10.0);
    }
}
