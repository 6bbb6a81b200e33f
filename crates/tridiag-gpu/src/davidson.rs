//! Re-implementation of the Davidson et al. \[19\] auto-tuned PCR-Thomas
//! hybrid — the baseline of Section V.
//!
//! Structure (from the paper's description):
//!
//! 1. **Lockstep global PCR**: "each PCR step is performed in lockstep
//!    until the size of reduced input fits in shared memory". Each step
//!    is a *separate kernel launch* over the whole input reading and
//!    writing global memory (ping-pong) — the global synchronisation
//!    whose "expensive kernel termination and relaunch" the paper calls
//!    out. Per step the full four coefficient arrays make a DRAM round
//!    trip.
//! 2. **Coarse-grained finish**: each reduced subsystem is mapped to one
//!    block that loads it *entirely* into shared memory and solves it
//!    with in-shared PCR + per-thread Thomas — Zhang's kernel,
//!    [`PcrSharedKernel`], with subsystem stride `2^q` and four PCR
//!    steps. The subsystem rows are strided by `2^q` in memory, so these
//!    loads are poorly coalesced, and the maximal shared-memory tiles
//!    leave only 1–2 resident blocks per SM ("large shared memory
//!    requirement, fewer concurrent thread blocks, and exposed
//!    latency").
//!
//! Davidson's actual code auto-tunes a few parameters; we pick the
//! structurally-implied optimum (fewest global steps that make the
//! finish fit), which is generous to the baseline.

use crate::buffers::{upload, GpuScalar};
use crate::consts::PCR_FLOPS_PER_ROW;
use crate::executor::PlanExecutor;
use crate::kernels::pcr_shared::PcrSharedKernel;
use crate::solver::KernelReport;
use gpu_sim::{
    BlockCtx, BlockKernel, BufId, DeviceSpec, ExecConfig, GpuMemory, KernelStats, LaunchConfig,
    Result, SimError,
};
use tridiag_core::cr::{reduce_row, Row};
use tridiag_core::{Layout, SystemBatch};

/// One lockstep global PCR step (one kernel launch): every row `i` of
/// every system is rewritten using rows `i ± stride`.
#[derive(Debug, Clone, Copy)]
struct GlobalPcrStepKernel {
    src: [BufId; 4],
    dst: [BufId; 4],
    n: usize,
    m: usize,
    stride: usize,
}

impl<S: GpuScalar> BlockKernel<S> for GlobalPcrStepKernel {
    fn run_block(&self, ctx: &mut BlockCtx<'_, S>) -> Result<()> {
        let total = self.m * self.n;
        let base = ctx.block_id * ctx.threads;
        let count = ctx.threads.min(total.saturating_sub(base));
        if count == 0 {
            return Ok(());
        }
        let rows: Vec<usize> = (base..base + count).collect();

        // Gather the three dependency rows per lane; out-of-range lanes
        // (crossing a system boundary) use the identity row without a
        // load.
        ctx.phase("load");
        let mut vals: Vec<[[S; 4]; 3]> = vec![[[S::ZERO; 4]; 3]; count];
        let mut tmp = Vec::new();
        for (d, sign) in [(0usize, -1isize), (1, 0), (2, 1)] {
            let mut idx = Vec::with_capacity(count);
            let mut lanes = Vec::with_capacity(count);
            for (lane, &g) in rows.iter().enumerate() {
                let sys = g / self.n;
                let i = (g % self.n) as isize + sign * self.stride as isize;
                if i >= 0 && (i as usize) < self.n {
                    idx.push(sys * self.n + i as usize);
                    lanes.push(lane);
                }
            }
            for arr in 0..4 {
                let ident = if arr == 1 { S::ONE } else { S::ZERO };
                for v in vals.iter_mut() {
                    v[d][arr] = ident;
                }
                for (chunk, lane_chunk) in idx.chunks(ctx.threads).zip(lanes.chunks(ctx.threads)) {
                    ctx.ld(self.src[arr], chunk, &mut tmp)?;
                    for (o, &lane) in lane_chunk.iter().enumerate() {
                        vals[lane][d][arr] = tmp[o];
                    }
                }
            }
        }

        ctx.phase("pcr_step");
        let mut out: [Vec<S>; 4] = Default::default();
        for (lane, v) in vals.iter().enumerate() {
            let to_row = |w: [S; 4]| Row {
                a: w[0],
                b: w[1],
                c: w[2],
                d: w[3],
            };
            let r = reduce_row(to_row(v[0]), to_row(v[1]), to_row(v[2]), rows[lane])
                .map_err(|e| SimError::KernelFault(e.to_string()))?;
            out[0].push(r.a);
            out[1].push(r.b);
            out[2].push(r.c);
            out[3].push(r.d);
        }
        ctx.flops(count as u64 * PCR_FLOPS_PER_ROW);
        ctx.phase("store");
        for arr in 0..4 {
            ctx.st(self.dst[arr], &rows, &out[arr])?;
        }
        Ok(())
    }
}

/// Report of one Davidson-style solve.
#[derive(Debug, Clone, PartialEq)]
pub struct DavidsonReport {
    /// Global lockstep PCR steps (each a kernel launch).
    pub global_steps: u32,
    /// Per-kernel reports in launch order (`global_steps + 1` entries).
    pub kernels: Vec<KernelReport>,
    /// Measured counters per launch, parallel to `kernels`.
    pub stats: Vec<KernelStats>,
    /// Total modeled time (µs).
    pub total_us: f64,
}

/// Solve `batch` the Davidson way on `spec`.
pub fn solve_batch<S: GpuScalar>(
    spec: &DeviceSpec,
    batch: &SystemBatch<S>,
) -> Result<(Vec<S>, DavidsonReport)> {
    let m = batch.num_systems();
    let n = batch.system_len();
    // Fewest global steps that make a subsystem fit the (double-
    // buffered) shared-memory finish.
    let max_rows_shared =
        PcrSharedKernel::max_n(spec.max_shared_per_block, <S as gpu_sim::Elem>::BYTES);
    let mut q = 0u32;
    while n.div_ceil(1 << q) > max_rows_shared {
        q += 1;
        if (1usize << q) > n {
            return Err(SimError::InvalidLaunch(format!(
                "system of {n} rows cannot be reduced to fit {max_rows_shared}-row shared tiles"
            )));
        }
    }

    let contig = batch.to_layout(Layout::Contiguous);
    let mut mem = GpuMemory::new();
    let dev = upload(&mut mem, &contig);
    let mut ex = PlanExecutor::new(spec.clone(), ExecConfig::default());

    // Ping-pong buffers for the global steps. The uploaded input is
    // borrowed read-only, so the first step reads it and the rest
    // alternate between two device-owned sets.
    let alloc4 = |mem: &mut GpuMemory<S>| {
        [
            mem.alloc(m * n),
            mem.alloc(m * n),
            mem.alloc(m * n),
            mem.alloc(m * n),
        ]
    };
    let mut src = [dev.a, dev.b, dev.c, dev.d];
    let mut dst = alloc4(&mut mem);
    let threads = 256u32;
    for step in 0..q {
        let kernel = GlobalPcrStepKernel {
            src,
            dst,
            n,
            m,
            stride: 1usize << step,
        };
        let cfg = LaunchConfig::new(
            "davidson_global_pcr",
            (m * n).div_ceil(threads as usize),
            threads,
        )
        .with_regs(40);
        ex.launch(&cfg, &kernel, &mut mem)?;
        let spare = if step == 0 && q > 1 {
            alloc4(&mut mem)
        } else {
            src
        };
        src = std::mem::replace(&mut dst, spare);
    }

    // Coarse-grained shared-memory finish: one block per subsystem,
    // in-shared PCR then per-thread Thomas.
    let sub_rows = n.div_ceil(1 << q);
    let final_threads = (sub_rows as u32).clamp(32, 256);
    let kernel = PcrSharedKernel {
        input: src,
        x: dev.x,
        n,
        q,
        steps: Some(4),
    };
    let cfg = LaunchConfig::new("davidson_finish", m << q, final_threads).with_regs(32);
    ex.launch(&cfg, &kernel, &mut mem)?;

    let mut out = vec![S::ZERO; batch.total_len()];
    Layout::Contiguous.convert(batch.layout(), &mem.read(dev.x)?, m, n, &mut out);
    let total_us = ex.kernels.iter().map(|k| k.timing.total_us).sum();
    Ok((
        out,
        DavidsonReport {
            global_steps: q,
            kernels: ex.kernels,
            stats: ex.stats,
            total_us,
        },
    ))
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::solver::solve_batch_gtx480;
    use tridiag_core::generators::random_batch;

    #[test]
    #[cfg_attr(debug_assertions, ignore = "slow simulation; run with --release")]
    fn solves_correctly() {
        for (m, n) in [(1usize, 4096usize), (4, 2048), (16, 512), (2, 1000)] {
            let batch = random_batch::<f64>(m, n, 3 + n as u64);
            let (x, rep) = solve_batch(&DeviceSpec::gtx480(), &batch).unwrap();
            let resid = batch.max_relative_residual(&x).unwrap();
            assert!(resid < 1e-8, "m={m} n={n}: {resid}");
            // n > 768 (f64) needs at least one global step.
            if n > 768 {
                assert!(rep.global_steps > 0);
            }
            assert_eq!(rep.kernels.len(), rep.global_steps as usize + 1);
        }
    }

    #[test]
    fn every_launch_reports_its_phases() {
        let batch = random_batch::<f64>(1, 2048, 13);
        let (_, rep) = solve_batch(&DeviceSpec::gtx480(), &batch).unwrap();
        assert_eq!(rep.global_steps, 2);
        let labels =
            |k: &KernelReport| -> Vec<&str> { k.timing.phases.iter().map(|p| p.label).collect() };
        for k in &rep.kernels[..2] {
            assert_eq!(labels(k), ["load", "pcr_step", "store"]);
        }
        assert_eq!(
            labels(&rep.kernels[2]),
            ["setup", "load", "pcr_step", "finish", "store"]
        );
        for stats in &rep.stats {
            assert!(stats.phase_sum_mismatches().is_empty());
        }
    }

    #[test]
    fn small_systems_skip_global_steps() {
        let batch = random_batch::<f64>(8, 512, 5);
        let (_, rep) = solve_batch(&DeviceSpec::gtx480(), &batch).unwrap();
        assert_eq!(rep.global_steps, 0);
        assert_eq!(rep.kernels.len(), 1);
    }

    #[test]
    #[cfg_attr(debug_assertions, ignore = "slow simulation; run with --release")]
    fn ours_beats_davidson_on_large_systems() {
        // The Section V claim: 2–10x faster for most cases.
        for (m, n) in [(1usize, 1 << 15), (4, 1 << 14)] {
            let batch = random_batch::<f64>(m, n, 9);
            let (_, ours) = solve_batch_gtx480(&batch).unwrap();
            let (_, theirs) = solve_batch(&DeviceSpec::gtx480(), &batch).unwrap();
            assert!(
                theirs.total_us > 1.5 * ours.total_us,
                "m={m} n={n}: ours {:.1}us davidson {:.1}us",
                ours.total_us,
                theirs.total_us
            );
        }
    }

    #[test]
    #[cfg_attr(debug_assertions, ignore = "slow simulation; run with --release")]
    fn davidson_pays_per_step_global_traffic() {
        let batch = random_batch::<f64>(1, 1 << 14, 11);
        let (_, rep) = solve_batch(&DeviceSpec::gtx480(), &batch).unwrap();
        // Every global step re-reads and re-writes ~4 arrays.
        let per_step_bytes = 4.0 * (1 << 14) as f64 * 8.0;
        let global_traffic: f64 = rep.kernels[..rep.global_steps as usize]
            .iter()
            .map(|k| k.traffic.traffic_mib * 1024.0 * 1024.0)
            .sum();
        assert!(global_traffic > rep.global_steps as f64 * 1.5 * per_step_bytes);
    }
}
