//! In-shared-memory PCR kernel — the conventional approach the paper
//! generalises (Sengupta/Egloff/Zhang lineage, Section II).
//!
//! One block loads one whole (sub)system into shared memory, runs
//! lockstep PCR steps with double buffering, and either fully decouples
//! it (`steps = ceil(log2 n)`, then divides) or stops early and
//! finishes each strand with one thread of sequential Thomas — the
//! Zhang-style "PCR-Thomas in shared memory" hybrid.
//!
//! With a subsystem stride `2^q` the same kernel is the finish of the
//! Davidson et al. baseline ([`crate::davidson`]): after `q` global PCR
//! steps a system of `n` rows has decoupled into `2^q` subsystems whose
//! rows are `2^q` apart in memory, and each block loads one of them
//! (strided, so poorly coalesced) instead of a whole system.
//!
//! Its defining limitation is structural: the **whole (sub)system must
//! fit in shared memory**, which on a GTX480 in double precision caps
//! its length at `48 KiB / (2 · 4 arrays · 8 B) ≈ 768` rows. The tiled
//! PCR kernel exists precisely to remove this cap.

use crate::buffers::GpuScalar;
use crate::consts::{PCR_FLOPS_PER_ROW, THOMAS_BWD_FLOPS, THOMAS_FWD_FLOPS};
use gpu_sim::{BlockCtx, BlockKernel, BufId, Result, SimError};
use tridiag_core::cr::{reduce_row, Row};

/// In-shared-memory PCR(+Thomas) kernel: one block per (sub)system.
#[derive(Debug, Clone, Copy)]
pub struct PcrSharedKernel {
    /// Coefficient buffers `[a, b, c, d]`, contiguous layout.
    pub input: [BufId; 4],
    /// Solution buffer, contiguous layout.
    pub x: BufId,
    /// Rows per system.
    pub n: usize,
    /// Subsystem stride exponent: block `b` solves subsystem
    /// `b & (2^q − 1)` of system `b >> q`, i.e. rows `sub, sub + 2^q, …`.
    /// `0` = one whole system per block.
    pub q: u32,
    /// PCR steps before the per-thread Thomas finish. `None` = reduce
    /// fully (`ceil(log2 len)` steps) and divide.
    pub steps: Option<u32>,
}

impl PcrSharedKernel {
    /// Shared elements needed: double-buffered 4 arrays of `n`.
    pub fn shared_elems(n: usize) -> usize {
        8 * n
    }

    /// Largest system that fits shared memory for an element size.
    pub fn max_n(shared_bytes: usize, elem_bytes: usize) -> usize {
        shared_bytes / (8 * elem_bytes)
    }
}

/// Read the level at shared bases `base` (rows `0..vals.len()`) into
/// per-row registers, one block-wide shared load per chunk of threads.
fn load_level<S: GpuScalar>(
    ctx: &mut BlockCtx<'_, S>,
    base: [usize; 4],
    vals: &mut [[S; 4]],
    tmp: &mut Vec<S>,
) -> Result<()> {
    let len = vals.len();
    for arr in 0..4 {
        let si: Vec<usize> = (0..len).map(|i| base[arr] + i).collect();
        for (chunk, start) in si.chunks(ctx.threads).zip((0..len).step_by(ctx.threads)) {
            ctx.sh_ld(chunk, tmp)?;
            for (o, &v) in tmp.iter().enumerate() {
                vals[start + o][arr] = v;
            }
        }
    }
    Ok(())
}

impl<S: GpuScalar> BlockKernel<S> for PcrSharedKernel {
    fn run_block(&self, ctx: &mut BlockCtx<'_, S>) -> Result<()> {
        let stride = 1usize << self.q;
        if stride > self.n {
            return Err(SimError::InvalidLaunch(format!(
                "subsystem stride 2^{} exceeds system size {}",
                self.q, self.n
            )));
        }
        let (sys, sub) = (ctx.block_id >> self.q, ctx.block_id & (stride - 1));
        // Global rows of this block's (sub)system.
        let idx_g: Vec<usize> = (sys * self.n + sub..(sys + 1) * self.n)
            .step_by(stride)
            .collect();
        let n = idx_g.len();
        let full = tridiag_core::pcr::full_steps(n);
        if let Some(s) = self.steps {
            // A partial reduction hands 2^s strands to the Thomas
            // finish; each must have at least one row.
            if s < full && (1usize << s) > n {
                return Err(SimError::InvalidLaunch(format!(
                    "{s} PCR steps exceed system size {n}"
                )));
            }
        }
        let steps = self.steps.unwrap_or(full).min(full);

        // Double-buffered shared arrays.
        ctx.phase("setup");
        let mut base = [[0usize; 4]; 2];
        for slot in base.iter_mut() {
            for b in slot.iter_mut() {
                *b = ctx.shared_alloc(n)?;
            }
        }

        // Load the (sub)system: coalesced for a whole system, strided
        // by 2^q for a subsystem.
        ctx.phase("load");
        let mut tmp = Vec::new();
        for arr in 0..4 {
            for (gi, chunk_start) in idx_g.chunks(ctx.threads).zip((0..n).step_by(ctx.threads)) {
                ctx.ld(self.input[arr], gi, &mut tmp)?;
                let si: Vec<usize> = (0..gi.len())
                    .map(|o| base[0][arr] + chunk_start + o)
                    .collect();
                ctx.sh_st(&si, &tmp)?;
            }
        }
        ctx.sync();

        // Lockstep PCR steps, ping-ponging between the two halves.
        ctx.phase("pcr_step");
        let mut cur = 0usize;
        let mut vals: Vec<[S; 4]> = vec![[S::ZERO; 4]; n];
        for step in 0..steps {
            let stride = 1usize << step;
            let nxt = 1 - cur;
            // Read all rows (positions i, i ± stride; out of range is
            // the identity row) and write the next buffer.
            load_level(ctx, base[cur], &mut vals, &mut tmp)?;
            let row = |i: isize| -> Row<S> {
                if i < 0 || i >= n as isize {
                    Row::identity()
                } else {
                    let [a, b, c, d] = vals[i as usize];
                    Row { a, b, c, d }
                }
            };
            let mut rows_out: Vec<Row<S>> = Vec::with_capacity(n);
            for i in 0..n as isize {
                let r = reduce_row(
                    row(i - stride as isize),
                    row(i),
                    row(i + stride as isize),
                    i as usize,
                )
                .map_err(|e| SimError::KernelFault(e.to_string()))?;
                rows_out.push(r);
            }
            ctx.flops(n as u64 * PCR_FLOPS_PER_ROW);
            ctx.sync();
            for arr in 0..4 {
                let si: Vec<usize> = (0..n).map(|i| base[nxt][arr] + i).collect();
                let sv: Vec<S> = rows_out
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

        // Finish: either trivial divide (fully reduced) or per-thread
        // Thomas over the 2^steps interleaved strands. The final level
        // is pulled into registers (accounted as shared reads).
        ctx.phase("finish");
        let strands = 1usize << steps;
        let mut x_host = vec![S::ZERO; n];
        load_level(ctx, base[cur], &mut vals, &mut tmp)?;
        if strands >= n {
            for (i, v) in vals.iter().enumerate() {
                if v[1] == S::ZERO {
                    return Err(SimError::KernelFault(format!("zero pivot row {i}")));
                }
                x_host[i] = v[3] / v[1];
            }
            ctx.flops(n as u64);
        } else {
            for j in 0..strands {
                let rows: Vec<usize> = (j..n).step_by(strands).collect();
                let ln = rows.len();
                let mut cp = vec![S::ZERO; ln];
                let mut dp = vec![S::ZERO; ln];
                for (r, &gi) in rows.iter().enumerate() {
                    let [a, b, c, d] = vals[gi];
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
                x_host[rows[ln - 1]] = dp[ln - 1];
                for r in (0..ln - 1).rev() {
                    x_host[rows[r]] = dp[r] - cp[r] * x_host[rows[r + 1]];
                }
            }
            ctx.flops(n as u64 * (THOMAS_FWD_FLOPS + THOMAS_BWD_FLOPS));
        }

        // Store the solution (coalesced for a whole system).
        ctx.phase("store");
        for (gi, chunk_start) in idx_g.chunks(ctx.threads).zip((0..n).step_by(ctx.threads)) {
            let xs = &x_host[chunk_start..chunk_start + gi.len()];
            ctx.st(self.x, gi, xs)?;
        }
        Ok(())
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::buffers::upload;
    use gpu_sim::{launch, DeviceSpec, GpuMemory, LaunchConfig};
    use tridiag_core::generators::random_batch;

    fn run(m: usize, n: usize, steps: Option<u32>) -> (f64, gpu_sim::LaunchResult) {
        let host = random_batch::<f64>(m, n, 3);
        let mut mem = GpuMemory::new();
        let dev = upload(&mut mem, &host);
        let kernel = PcrSharedKernel {
            input: [dev.a, dev.b, dev.c, dev.d],
            x: dev.x,
            n,
            q: 0,
            steps,
        };
        let cfg = LaunchConfig::new("pcr_shared", m, (n as u32).min(256));
        let res = launch(&DeviceSpec::gtx480(), &cfg, &kernel, &mut mem).unwrap();
        let x = mem.read(dev.x).unwrap();
        (host.max_relative_residual(&x).unwrap(), res)
    }

    #[test]
    fn full_reduction_solves() {
        for n in [8usize, 64, 256, 100] {
            let (resid, _) = run(4, n, None);
            assert!(resid < 1e-9, "n={n}: {resid}");
        }
    }

    #[test]
    fn partial_reduction_plus_thomas_solves() {
        for steps in [1u32, 2, 4] {
            let (resid, _) = run(2, 128, Some(steps));
            assert!(resid < 1e-9, "steps={steps}: {resid}");
        }
    }

    #[test]
    fn shared_footprint_scales_with_n() {
        let (_, small) = run(1, 64, None);
        let (_, big) = run(1, 512, None);
        assert_eq!(small.shared_bytes_per_block, 8 * 64 * 8);
        assert_eq!(big.shared_bytes_per_block, 8 * 512 * 8);
        // Occupancy collapses as the tile grows — the paper's complaint.
        assert!(big.occupancy.blocks_per_sm < small.occupancy.blocks_per_sm);
    }

    #[test]
    fn too_large_system_rejected_by_shared_capacity() {
        let host = random_batch::<f64>(1, 1024, 1);
        let mut mem = GpuMemory::new();
        let dev = upload(&mut mem, &host);
        let kernel = PcrSharedKernel {
            input: [dev.a, dev.b, dev.c, dev.d],
            x: dev.x,
            n: 1024,
            q: 0,
            steps: None,
        };
        let cfg = LaunchConfig::new("pcr_shared", 1, 256);
        // 8 * 1024 * 8 B = 64 KiB > 48 KiB.
        assert!(launch(&DeviceSpec::gtx480(), &cfg, &kernel, &mut mem).is_err());
    }

    #[test]
    fn max_n_helper() {
        assert_eq!(PcrSharedKernel::max_n(48 * 1024, 8), 768);
        assert_eq!(PcrSharedKernel::max_n(48 * 1024, 4), 1536);
        assert_eq!(PcrSharedKernel::shared_elems(256), 2048);
    }
}
