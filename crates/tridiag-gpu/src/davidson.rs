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
//!    with in-shared PCR + per-thread Thomas. The subsystem rows are
//!    strided by `2^q` in memory, so these loads are poorly coalesced,
//!    and the maximal shared-memory tiles leave only 1–2 resident
//!    blocks per SM ("large shared memory requirement, fewer concurrent
//!    thread blocks, and exposed latency").
//!
//! Davidson's actual code auto-tunes a few parameters; we pick the
//! structurally-implied optimum (fewest global steps that make the
//! finish fit), which is generous to the baseline.

use crate::buffers::{upload, GpuScalar};
use crate::consts::{PCR_FLOPS_PER_ROW, THOMAS_BWD_FLOPS, THOMAS_FWD_FLOPS};
use crate::solver::KernelReport;
use gpu_sim::timing::{time_kernel, TrafficSummary};
use gpu_sim::{
    launch, BlockCtx, BlockKernel, BufId, DeviceSpec, GpuMemory, LaunchConfig, Precision, Result,
    SimError,
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
        for arr in 0..4 {
            ctx.st(self.dst[arr], &rows, &out[arr])?;
        }
        Ok(())
    }
}

/// The coarse-grained finish: one block per subsystem, whole subsystem
/// in shared memory, in-shared PCR then per-thread Thomas.
#[derive(Debug, Clone, Copy)]
struct DavidsonFinalKernel {
    src: [BufId; 4],
    x: BufId,
    n: usize,
    /// Global PCR steps already applied (subsystem stride `2^q`).
    q: u32,
    /// Further in-shared PCR steps before the Thomas finish.
    shared_steps: u32,
}

impl<S: GpuScalar> BlockKernel<S> for DavidsonFinalKernel {
    fn run_block(&self, ctx: &mut BlockCtx<'_, S>) -> Result<()> {
        let stride = 1usize << self.q;
        let sub = ctx.block_id % stride; // subsystem j of system sys
        let sys = ctx.block_id / stride;
        let rows: Vec<usize> = (sub..self.n).step_by(stride).collect();
        let ln = rows.len();

        // Load the whole (strided → uncoalesced) subsystem into shared.
        let mut base = [[0usize; 4]; 2];
        for half in base.iter_mut() {
            for b in half.iter_mut() {
                *b = ctx.shared_alloc(ln)?;
            }
        }
        let g_idx: Vec<usize> = rows.iter().map(|&r| sys * self.n + r).collect();
        let mut tmp = Vec::new();
        for arr in 0..4 {
            for (chunk, start) in g_idx.chunks(ctx.threads).zip((0..ln).step_by(ctx.threads)) {
                ctx.ld(self.src[arr], chunk, &mut tmp)?;
                let si: Vec<usize> = (0..chunk.len()).map(|o| base[0][arr] + start + o).collect();
                ctx.sh_st(&si, &tmp)?;
            }
        }
        ctx.sync();

        // In-shared lockstep PCR.
        let mut cur = 0usize;
        let shared_steps = self
            .shared_steps
            .min(tridiag_core::pcr::full_steps(ln));
        let mut vals: Vec<[S; 4]> = vec![[S::ZERO; 4]; ln];
        for step in 0..shared_steps {
            let s = 1usize << step;
            let nxt = 1 - cur;
            for arr in 0..4 {
                let si: Vec<usize> = (0..ln).map(|i| base[cur][arr] + i).collect();
                for (chunk, start) in si.chunks(ctx.threads).zip((0..ln).step_by(ctx.threads)) {
                    ctx.sh_ld(chunk, &mut tmp)?;
                    for (o, &v) in tmp.iter().enumerate() {
                        vals[start + o][arr] = v;
                    }
                }
            }
            let row = |i: isize| -> Row<S> {
                if i < 0 || i >= ln as isize {
                    Row::identity()
                } else {
                    let v = vals[i as usize];
                    Row {
                        a: v[0],
                        b: v[1],
                        c: v[2],
                        d: v[3],
                    }
                }
            };
            let mut out: Vec<Row<S>> = Vec::with_capacity(ln);
            for i in 0..ln as isize {
                out.push(
                    reduce_row(row(i - s as isize), row(i), row(i + s as isize), i as usize)
                        .map_err(|e| SimError::KernelFault(e.to_string()))?,
                );
            }
            ctx.flops(ln as u64 * PCR_FLOPS_PER_ROW);
            ctx.sync();
            for arr in 0..4 {
                let si: Vec<usize> = (0..ln).map(|i| base[nxt][arr] + i).collect();
                let sv: Vec<S> = out
                    .iter()
                    .map(|r| match arr {
                        0 => r.a,
                        1 => r.b,
                        2 => r.c,
                        _ => r.d,
                    })
                    .collect();
                for (ci, cv) in si.chunks(ctx.threads).zip(sv.chunks(ctx.threads)) {
                    ctx.sh_st(ci, cv)?;
                }
            }
            ctx.sync();
            cur = nxt;
        }

        // Per-thread Thomas over the 2^shared_steps interleaved strands.
        for arr in 0..4 {
            let si: Vec<usize> = (0..ln).map(|i| base[cur][arr] + i).collect();
            for (chunk, start) in si.chunks(ctx.threads).zip((0..ln).step_by(ctx.threads)) {
                ctx.sh_ld(chunk, &mut tmp)?;
                for (o, &v) in tmp.iter().enumerate() {
                    vals[start + o][arr] = v;
                }
            }
        }
        let strands = 1usize << shared_steps;
        let mut x_local = vec![S::ZERO; ln];
        for j in 0..strands.min(ln) {
            let idxs: Vec<usize> = (j..ln).step_by(strands).collect();
            let sl = idxs.len();
            let mut cp = vec![S::ZERO; sl];
            let mut dp = vec![S::ZERO; sl];
            for (r, &i) in idxs.iter().enumerate() {
                let [a, b, c, d] = vals[i];
                if r == 0 {
                    if b == S::ZERO {
                        return Err(SimError::KernelFault("zero pivot".into()));
                    }
                    cp[0] = c / b;
                    dp[0] = d / b;
                } else {
                    let denom = b - cp[r - 1] * a;
                    if denom == S::ZERO {
                        return Err(SimError::KernelFault("zero pivot".into()));
                    }
                    let inv = S::ONE / denom;
                    cp[r] = c * inv;
                    dp[r] = (d - dp[r - 1] * a) * inv;
                }
            }
            x_local[idxs[sl - 1]] = dp[sl - 1];
            for r in (0..sl - 1).rev() {
                x_local[idxs[r]] = dp[r] - cp[r] * x_local[idxs[r + 1]];
            }
        }
        ctx.flops(ln as u64 * (THOMAS_FWD_FLOPS + THOMAS_BWD_FLOPS));

        // Scatter (strided) solution back.
        for (chunk, start) in g_idx.chunks(ctx.threads).zip((0..ln).step_by(ctx.threads)) {
            ctx.st(self.x, chunk, &x_local[start..start + chunk.len()])?;
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
    let precision = if <S as gpu_sim::Elem>::BYTES == 4 {
        Precision::F32
    } else {
        Precision::F64
    };

    // Fewest global steps that make a subsystem fit the (double-
    // buffered) shared-memory finish.
    let max_rows_shared = spec.max_shared_per_block / (8 * <S as gpu_sim::Elem>::BYTES);
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
    let mut kernels = Vec::new();

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
        let res = launch(spec, &cfg, &kernel, &mut mem)?;
        kernels.push(KernelReport {
            timing: time_kernel(spec, &res, precision),
            traffic: TrafficSummary::from_stats(spec, &res.stats),
            shared_bytes: res.shared_bytes_per_block,
            blocks: res.stats.blocks,
        });
        let spare = if step == 0 && q > 1 {
            alloc4(&mut mem)
        } else {
            src
        };
        src = std::mem::replace(&mut dst, spare);
    }

    // Coarse-grained shared-memory finish: one block per subsystem.
    let sub_rows = n.div_ceil(1 << q);
    let final_threads = (sub_rows as u32).clamp(32, 256);
    let kernel = DavidsonFinalKernel {
        src,
        x: dev.x,
        n,
        q,
        shared_steps: 4,
    };
    let cfg = LaunchConfig::new("davidson_finish", m << q, final_threads).with_regs(32);
    let res = launch(spec, &cfg, &kernel, &mut mem)?;
    kernels.push(KernelReport {
        timing: time_kernel(spec, &res, precision),
        traffic: TrafficSummary::from_stats(spec, &res.stats),
        shared_bytes: res.shared_bytes_per_block,
        blocks: res.stats.blocks,
    });

    let xr = mem.read(dev.x)?;
    let mut out = vec![S::ZERO; batch.total_len()];
    for sys in 0..m {
        for row in 0..n {
            out[batch.index(sys, row)] = xr[sys * n + row];
        }
    }
    let total_us = kernels.iter().map(|k: &KernelReport| k.timing.total_us).sum();
    Ok((
        out,
        DavidsonReport {
            global_steps: q,
            kernels,
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
