//! Negative sanitizer tests: toy kernels that each commit exactly one
//! class of violation, asserting the sanitizer catches it with full
//! kernel/block/lane/address attribution — and that the same kernels
//! run silently with the sanitizer off.

use gpu_sim::exec::launch_with;
use gpu_sim::sanitizer::{MemSpace, RaceKind, SanitizerViolation, MAX_VIOLATIONS};
use gpu_sim::{
    launch, BlockCtx, BlockKernel, BufId, DeviceSpec, ExecConfig, GpuMemory, LaunchConfig, Result,
    SimError,
};

fn spec() -> DeviceSpec {
    DeviceSpec::gtx480()
}

/// Writes the same shared word from two lanes without a barrier.
struct RacyWriteKernel;
impl BlockKernel<f64> for RacyWriteKernel {
    fn run_block(&self, ctx: &mut BlockCtx<'_, f64>) -> Result<()> {
        let base = ctx.shared_alloc(ctx.threads)?;
        // Lanes 0 and 1 both store to `base + 5`.
        let idx: Vec<usize> = (0..ctx.threads)
            .map(|t| if t == 1 { base + 5 } else { base + t })
            .collect();
        let vals = vec![1.0; ctx.threads];
        ctx.sh_st(&idx, &vals)?;
        ctx.sync();
        Ok(())
    }
}

#[test]
fn shared_write_write_race_is_reported() {
    let mut mem = GpuMemory::<f64>::new();
    let cfg = LaunchConfig::new("racy_write", 1, 32);
    let res = launch_with(
        &spec(),
        &cfg,
        &ExecConfig::sanitized(),
        &RacyWriteKernel,
        &mut mem,
    )
    .unwrap();
    assert_eq!(res.stats.total.sanitizer.shared_races, 1);
    match &res.violations[0] {
        SanitizerViolation::SharedRace {
            site,
            kind,
            other_lane,
        } => {
            assert_eq!(site.kernel, "racy_write");
            assert_eq!(site.block, 0);
            assert_eq!(site.space, MemSpace::Shared);
            assert_eq!(site.addr, 5); // base is 0 for the first alloc
                                      // Lane 5's in-order store lands first, lane 1 dupes it...
                                      // position order: lane 1 writes base+5 before lane 5 does.
            assert_eq!(*kind, RaceKind::WriteAfterWrite);
            assert_eq!(site.lane, 5);
            assert_eq!(*other_lane, 1);
        }
        v => panic!("wrong violation: {v}"),
    }
    // Same kernel, sanitizer off: silent, zero counts.
    let mut mem2 = GpuMemory::<f64>::new();
    let res2 = launch(&spec(), &cfg, &RacyWriteKernel, &mut mem2).unwrap();
    assert!(res2.violations.is_empty());
    assert!(res2.stats.total.sanitizer.is_clean());
}

/// Reads a word another lane wrote in the same epoch (missing
/// `__syncthreads()` between producer and consumer).
struct MissingBarrierKernel;
impl BlockKernel<f64> for MissingBarrierKernel {
    fn run_block(&self, ctx: &mut BlockCtx<'_, f64>) -> Result<()> {
        let t = ctx.threads;
        let base = ctx.shared_alloc(t)?;
        let idx: Vec<usize> = (0..t).map(|i| base + i).collect();
        let vals = vec![2.0; t];
        ctx.sh_st(&idx, &vals)?;
        // BUG: no ctx.sync() before the shifted read.
        let shifted: Vec<usize> = (0..t).map(|i| base + (i + 1) % t).collect();
        let mut out = Vec::new();
        ctx.sh_ld(&shifted, &mut out)?;
        Ok(())
    }
}

#[test]
fn missing_barrier_read_is_a_race_fixed_by_sync() {
    let mut mem = GpuMemory::<f64>::new();
    let cfg = LaunchConfig::new("missing_barrier", 1, 32);
    let res = launch_with(
        &spec(),
        &cfg,
        &ExecConfig::sanitized(),
        &MissingBarrierKernel,
        &mut mem,
    )
    .unwrap();
    // Every lane reads its neighbour's fresh word: 32 RAW hazards.
    assert_eq!(res.stats.total.sanitizer.shared_races, 32);
    assert!(matches!(
        res.violations[0],
        SanitizerViolation::SharedRace {
            kind: RaceKind::ReadAfterWrite,
            ..
        }
    ));

    /// The corrected kernel: identical but for the barrier.
    struct Fixed;
    impl BlockKernel<f64> for Fixed {
        fn run_block(&self, ctx: &mut BlockCtx<'_, f64>) -> Result<()> {
            let t = ctx.threads;
            let base = ctx.shared_alloc(t)?;
            let idx: Vec<usize> = (0..t).map(|i| base + i).collect();
            ctx.sh_st(&idx, &vec![2.0; t])?;
            ctx.sync();
            let shifted: Vec<usize> = (0..t).map(|i| base + (i + 1) % t).collect();
            let mut out = Vec::new();
            ctx.sh_ld(&shifted, &mut out)?;
            Ok(())
        }
    }
    let mut mem2 = GpuMemory::<f64>::new();
    let res2 = launch_with(&spec(), &cfg, &ExecConfig::sanitized(), &Fixed, &mut mem2).unwrap();
    assert!(res2.violations.is_empty(), "{:?}", res2.violations);
    assert!(res2.stats.total.sanitizer.is_clean());
}

/// The race is the sanitizer's finding alone: the counters of the same
/// launch, sanitized or not, have no performance finding and count
/// alike — a bad kernel does not disturb the counter model.
#[test]
fn missing_barrier_kernel_is_a_race_not_a_counter_finding() {
    let cfg = LaunchConfig::new("missing_barrier", 1, 32);
    let [checked, plain] = [ExecConfig::sanitized(), ExecConfig::default()].map(|exec| {
        let mut mem = GpuMemory::<f64>::new();
        launch_with(&spec(), &cfg, &exec, &MissingBarrierKernel, &mut mem).unwrap()
    });
    assert!(matches!(
        checked.violations[0],
        SanitizerViolation::SharedRace {
            kind: RaceKind::ReadAfterWrite,
            ..
        }
    ));
    assert_eq!(checked.stats.findings(), Vec::new());
    assert_eq!(
        checked.stats.total,
        gpu_sim::BlockStats {
            sanitizer: checked.stats.total.sanitizer,
            ..plain.stats.total
        }
    );
}

/// Global load one element past the end of the buffer.
struct GlobalOobKernel {
    buf: BufId,
    n: usize,
}
impl BlockKernel<f64> for GlobalOobKernel {
    fn run_block(&self, ctx: &mut BlockCtx<'_, f64>) -> Result<()> {
        // The classic off-by-one: lane t reads element t+1.
        let idx: Vec<usize> = (0..ctx.threads.min(self.n)).map(|t| t + 1).collect();
        let mut out = Vec::new();
        ctx.ld(self.buf, &idx, &mut out)?;
        Ok(())
    }
}

#[test]
fn global_oob_aborts_with_lane_attribution() {
    let mut mem = GpuMemory::<f64>::new();
    let buf = mem.alloc_from(vec![0.0; 32]);
    let cfg = LaunchConfig::new("global_oob", 1, 32);
    let err = launch_with(
        &spec(),
        &cfg,
        &ExecConfig::sanitized(),
        &GlobalOobKernel { buf, n: 32 },
        &mut mem,
    )
    .unwrap_err();
    match err {
        SimError::Sanitizer(SanitizerViolation::OutOfBounds { site, len }) => {
            assert_eq!(site.kernel, "global_oob");
            assert_eq!(site.lane, 31); // the last lane walks off the end
            assert_eq!(site.warp, 0);
            assert_eq!(site.addr, 32);
            assert_eq!(site.space, MemSpace::Global);
            assert_eq!(site.buffer, Some(0));
            assert_eq!(len, 32);
        }
        e => panic!("wrong error: {e}"),
    }
    // Without the sanitizer the legacy (unattributed) error fires.
    let mut mem2 = GpuMemory::<f64>::new();
    let buf2 = mem2.alloc_from(vec![0.0; 32]);
    let err2 = launch(
        &spec(),
        &cfg,
        &GlobalOobKernel { buf: buf2, n: 32 },
        &mut mem2,
    )
    .unwrap_err();
    assert!(matches!(err2, SimError::GlobalOutOfBounds { .. }));
}

/// Shared store past the allocation.
struct SharedOobKernel;
impl BlockKernel<f64> for SharedOobKernel {
    fn run_block(&self, ctx: &mut BlockCtx<'_, f64>) -> Result<()> {
        let base = ctx.shared_alloc(16)?;
        let idx: Vec<usize> = (0..ctx.threads).map(|t| base + t).collect(); // 16..32 out
        ctx.sh_st(&idx, &vec![1.0; ctx.threads])?;
        Ok(())
    }
}

#[test]
fn shared_oob_aborts_with_lane_attribution() {
    let mut mem = GpuMemory::<f64>::new();
    let cfg = LaunchConfig::new("shared_oob", 1, 32);
    let err = launch_with(
        &spec(),
        &cfg,
        &ExecConfig::sanitized(),
        &SharedOobKernel,
        &mut mem,
    )
    .unwrap_err();
    match err {
        SimError::Sanitizer(SanitizerViolation::OutOfBounds { site, len }) => {
            assert_eq!(site.kernel, "shared_oob");
            assert_eq!(site.lane, 16);
            assert_eq!(site.addr, 16);
            assert_eq!(site.space, MemSpace::Shared);
            assert_eq!(site.buffer, None);
            assert_eq!(len, 16);
        }
        e => panic!("wrong error: {e}"),
    }
}

/// Reads a freshly-allocated global buffer that nothing ever wrote.
struct UninitGlobalKernel {
    buf: BufId,
}
impl BlockKernel<f64> for UninitGlobalKernel {
    fn run_block(&self, ctx: &mut BlockCtx<'_, f64>) -> Result<()> {
        let idx: Vec<usize> = (0..ctx.threads).collect();
        let mut out = Vec::new();
        ctx.ld(self.buf, &idx, &mut out)?;
        Ok(())
    }
}

#[test]
fn uninit_global_read_is_reported_per_word() {
    let mut mem = GpuMemory::<f64>::new();
    let buf = mem.alloc(64); // cudaMalloc semantics: uninitialized
    let cfg = LaunchConfig::new("uninit_global", 1, 32);
    let res = launch_with(
        &spec(),
        &cfg,
        &ExecConfig::sanitized(),
        &UninitGlobalKernel { buf },
        &mut mem,
    )
    .unwrap();
    assert_eq!(res.stats.total.sanitizer.uninit_reads, 32);
    match &res.violations[0] {
        SanitizerViolation::UninitRead { site } => {
            assert_eq!(site.kernel, "uninit_global");
            assert_eq!(site.space, MemSpace::Global);
            assert_eq!(site.buffer, Some(0));
            assert_eq!(site.addr, 0);
        }
        v => panic!("wrong violation: {v}"),
    }

    // Writing the buffer first (e.g. a prior kernel's store) clears it.
    struct WriteThenRead {
        buf: BufId,
    }
    impl BlockKernel<f64> for WriteThenRead {
        fn run_block(&self, ctx: &mut BlockCtx<'_, f64>) -> Result<()> {
            let idx: Vec<usize> = (0..ctx.threads).collect();
            ctx.st(self.buf, &idx, &vec![1.0; ctx.threads])?;
            let mut out = Vec::new();
            ctx.ld(self.buf, &idx, &mut out)?;
            Ok(())
        }
    }
    let mut mem2 = GpuMemory::<f64>::new();
    let buf2 = mem2.alloc(64);
    let res2 = launch_with(
        &spec(),
        &cfg,
        &ExecConfig::sanitized(),
        &WriteThenRead { buf: buf2 },
        &mut mem2,
    )
    .unwrap();
    assert!(
        res2.stats.total.sanitizer.is_clean(),
        "{:?}",
        res2.violations
    );
}

/// Reads shared memory before anything stored to it.
struct UninitSharedKernel;
impl BlockKernel<f64> for UninitSharedKernel {
    fn run_block(&self, ctx: &mut BlockCtx<'_, f64>) -> Result<()> {
        let base = ctx.shared_alloc(ctx.threads)?;
        let idx: Vec<usize> = (0..ctx.threads).map(|t| base + t).collect();
        let mut out = Vec::new();
        ctx.sh_ld(&idx, &mut out)?;
        Ok(())
    }
}

#[test]
fn uninit_shared_read_is_reported() {
    let mut mem = GpuMemory::<f64>::new();
    let cfg = LaunchConfig::new("uninit_shared", 1, 32);
    let res = launch_with(
        &spec(),
        &cfg,
        &ExecConfig::sanitized(),
        &UninitSharedKernel,
        &mut mem,
    )
    .unwrap();
    assert_eq!(res.stats.total.sanitizer.uninit_reads, 32);
    assert!(matches!(
        &res.violations[0],
        SanitizerViolation::UninitRead { site } if site.space == MemSpace::Shared
    ));
}

/// Half the block skips the barrier (divergent control flow).
struct DivergentKernel;
impl BlockKernel<f64> for DivergentKernel {
    fn run_block(&self, ctx: &mut BlockCtx<'_, f64>) -> Result<()> {
        let half: Vec<usize> = (0..ctx.threads / 2).collect();
        ctx.sync_arrive(&half);
        Ok(())
    }
}

#[test]
fn divergent_barrier_is_reported_with_missing_lane() {
    let mut mem = GpuMemory::<f64>::new();
    let cfg = LaunchConfig::new("divergent", 2, 64);
    let res = launch_with(
        &spec(),
        &cfg,
        &ExecConfig::sanitized(),
        &DivergentKernel,
        &mut mem,
    )
    .unwrap();
    assert_eq!(res.stats.total.sanitizer.barrier_divergence, 2); // one per block
    match &res.violations[0] {
        SanitizerViolation::BarrierDivergence {
            kernel,
            block,
            barrier_index,
            missing_lane,
            arrived,
            expected,
        } => {
            assert_eq!(*kernel, "divergent");
            assert_eq!(*block, 0);
            assert_eq!(*barrier_index, 0);
            assert_eq!(*missing_lane, 32);
            assert_eq!(*arrived, 32);
            assert_eq!(*expected, 64);
        }
        v => panic!("wrong violation: {v}"),
    }
    // Barriers still count in the stats either way.
    assert_eq!(res.stats.total.barriers, 2);
}

#[test]
fn violation_reports_are_capped_but_counts_are_not() {
    let mut mem = GpuMemory::<f64>::new();
    let buf = mem.alloc(4096);
    let cfg = LaunchConfig::new("uninit_global", 4, 32);
    struct WideUninit {
        buf: BufId,
    }
    impl BlockKernel<f64> for WideUninit {
        fn run_block(&self, ctx: &mut BlockCtx<'_, f64>) -> Result<()> {
            let mut out = Vec::new();
            for round in 0..8 {
                let idx: Vec<usize> = (0..ctx.threads)
                    .map(|t| (ctx.block_id * 8 + round) * ctx.threads + t)
                    .collect();
                ctx.ld(self.buf, &idx, &mut out)?;
            }
            Ok(())
        }
    }
    let res = launch_with(
        &spec(),
        &cfg,
        &ExecConfig::sanitized(),
        &WideUninit { buf },
        &mut mem,
    )
    .unwrap();
    // 256 uninitialized reads per block, reported up to the cap.
    const { assert!(8 * 32 > MAX_VIOLATIONS) };
    assert_eq!(res.stats.total.sanitizer.uninit_reads, 4 * 8 * 32);
    assert_eq!(res.violations.len(), 4 * MAX_VIOLATIONS);
}
