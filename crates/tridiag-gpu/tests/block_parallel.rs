//! An unchecked launch runs its blocks on several host threads, yet
//! leaves exactly what a checked launch — always one block after
//! another on the calling thread — leaves: the same `KernelStats`
//! (totals, phases, per-block vectors) and the same output bits.
//!
//! This file holds one test on purpose: the process-wide thread budget
//! is shared by every test in a binary, and a concurrent test holding
//! the helper permits would keep this launch on one thread.

use gpu_sim::{
    launch_with, BlockCtx, BlockKernel, DeviceSpec, Elem, ExecConfig, GpuMemory, LaunchConfig,
    Result,
};
use std::collections::HashSet;
use std::sync::Mutex;
use std::thread::ThreadId;
use tridiag_core::generators::random_batch;
use tridiag_gpu::kernels::tiled_pcr::TiledPcrKernel;
use tridiag_gpu::plan::{KernelOp, SolvePlan, Step};
use tridiag_gpu::{upload, GpuSolverConfig};

/// A kernel that notes which host thread ran each of its blocks.
struct Recording<K> {
    inner: K,
    threads: Mutex<Vec<ThreadId>>,
}

impl<S: Elem, K: BlockKernel<S>> BlockKernel<S> for Recording<K> {
    fn run_block(&self, ctx: &mut BlockCtx<'_, S>) -> Result<()> {
        self.threads
            .lock()
            .expect("no block panics while holding the lock")
            .push(std::thread::current().id());
        self.inner.run_block(ctx)
    }
}

#[test]
fn hybrid_tiled_pcr_runs_on_several_threads_and_matches_a_checked_launch() {
    let spec = DeviceSpec::gtx480();
    let (m, n) = (64, 2048);
    let config = GpuSolverConfig {
        fused: false,
        ..Default::default()
    };
    let plan = SolvePlan::build(&spec, &config, m, n, 8).unwrap();
    let ls = plan
        .steps
        .iter()
        .find_map(|s| match s {
            Step::Launch(ls) if matches!(ls.op, KernelOp::TiledPcr { .. }) => Some(ls),
            _ => None,
        })
        .expect("the (64, 2048) plan is hybrid");
    let KernelOp::TiledPcr {
        k,
        sub_tile,
        assignments,
        ..
    } = &ls.op
    else {
        unreachable!("matched above")
    };
    let cfg = LaunchConfig::new(ls.name, ls.grid_blocks, ls.threads_per_block)
        .with_regs(ls.regs_per_thread);
    let batch = random_batch::<f64>(m, n, 7);

    let run = |exec: ExecConfig| {
        let mut mem = GpuMemory::new();
        let dev = upload(&mut mem, &batch);
        let output = [(); 4].map(|_| mem.alloc(m * n));
        let kernel = Recording {
            inner: TiledPcrKernel {
                input: [dev.a, dev.b, dev.c, dev.d],
                output,
                n,
                k: *k,
                sub_tile: *sub_tile,
                assignments: assignments.clone(),
            },
            threads: Mutex::new(Vec::new()),
        };
        let res = launch_with(&spec, &cfg, &exec, &kernel, &mut mem).unwrap();
        let bits: Vec<Vec<u64>> = output
            .iter()
            .map(|&b| mem.read(b).unwrap().iter().map(|v| v.to_bits()).collect())
            .collect();
        let threads = kernel.threads.into_inner().unwrap();
        assert_eq!(threads.len(), cfg.grid_blocks, "every block ran once");
        let distinct = threads.into_iter().collect::<HashSet<_>>().len();
        (res.stats, bits, distinct)
    };

    let (stats, bits, threads) = run(ExecConfig::default());
    let (checked_stats, checked_bits, checked_threads) = run(ExecConfig::sanitized());
    assert_eq!(checked_threads, 1, "a checked launch is sequential");
    assert_eq!(stats.total, checked_stats.total, "totals");
    assert_eq!(stats.phases, checked_stats.phases, "phases");
    assert_eq!(stats, checked_stats, "per-block counters");
    assert_eq!(bits, checked_bits, "output bits");
    let cores = std::thread::available_parallelism().map_or(1, |c| c.get());
    if cores >= 2 {
        assert!(
            threads > 1,
            "{} blocks ran on one thread with {cores} cores",
            cfg.grid_blocks
        );
    }
}
