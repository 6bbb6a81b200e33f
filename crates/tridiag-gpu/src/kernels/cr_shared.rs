//! In-shared-memory cyclic reduction kernel — the Sengupta/Göddeke
//! lineage the paper reviews in Section II.
//!
//! CR's forward reduction touches rows at stride `2^level`, so in
//! shared memory the surviving rows hit ever fewer banks: at level
//! `L ≥ 5` (stride ≥ 32) every active lane lands on the *same* bank and
//! the access serialises 32-fold. Göddeke & Strzodka \[10\] fixed this
//! with an index padding that inserts a gap every `banks` elements;
//! this kernel implements both layouts behind a flag so the ablation
//! bench can measure exactly what the padding buys — a faithful
//! reproduction of the motivation for reference \[10\].

use crate::buffers::GpuScalar;
use crate::consts::PCR_FLOPS_PER_ROW;
use gpu_sim::{BlockCtx, BlockKernel, BufId, Result, SimError};
use tridiag_core::cr::{reduce_row, Row};

/// In-shared-memory CR: one block per system (power-of-two `n`).
#[derive(Debug, Clone, Copy)]
pub struct CrSharedKernel {
    /// Coefficient buffers `[a, b, c, d]`, contiguous layout.
    pub input: [BufId; 4],
    /// Solution buffer, contiguous layout.
    pub x: BufId,
    /// Rows per system (must be a power of two for classic CR).
    pub n: usize,
    /// Apply the bank-conflict-avoiding padding of Göddeke et al.
    pub padded: bool,
}

impl CrSharedKernel {
    /// Padded index: insert one unused slot after every 32 elements.
    #[inline]
    fn pad(&self, i: usize) -> usize {
        if self.padded {
            i + i / 32
        } else {
            i
        }
    }

    /// Shared elements per array including padding slack.
    fn padded_len(&self) -> usize {
        self.pad(self.n.max(1) - 1) + 1
    }
}

impl<S: GpuScalar> BlockKernel<S> for CrSharedKernel {
    fn run_block(&self, ctx: &mut BlockCtx<'_, S>) -> Result<()> {
        let n = self.n;
        if !n.is_power_of_two() || n < 2 {
            return Err(SimError::InvalidLaunch(format!(
                "classic CR needs a power-of-two size, got {n}"
            )));
        }
        let sys = ctx.block_id;
        let plen = self.padded_len();
        ctx.phase("setup");
        let mut base = [0usize; 4];
        for b in base.iter_mut() {
            *b = ctx.shared_alloc(plen)?;
        }

        // Load (coalesced from global, padded into shared).
        ctx.phase("load");
        let g_idx: Vec<usize> = (sys * n..sys * n + n).collect();
        let mut tmp = Vec::new();
        for arr in 0..4 {
            for (chunk, start) in g_idx.chunks(ctx.threads).zip((0..n).step_by(ctx.threads)) {
                ctx.ld(self.input[arr], chunk, &mut tmp)?;
                let si: Vec<usize> = (0..chunk.len())
                    .map(|o| base[arr] + self.pad(start + o))
                    .collect();
                ctx.sh_st(&si, &tmp)?;
            }
        }
        ctx.sync();

        let levels = n.trailing_zeros() as usize;

        // ---- forward reduction: eliminate odd multiples of 2^level ---
        // After level L the surviving rows are the multiples of 2^(L+1),
        // stored in place at their original (padded) indices — the
        // classic in-place CR that generates the stride pattern.
        ctx.phase("forward");
        for level in 0..levels - 1 {
            let stride = 1usize << level;
            let survivors: Vec<usize> = ((2 * stride - 1)..n).step_by(2 * stride).collect();
            // Each surviving row i updates from i-stride and i+stride.
            let mut rows: Vec<[Row<S>; 3]> = Vec::with_capacity(survivors.len());
            for arr in 0..4 {
                for (d, off) in [(0usize, -(stride as isize)), (1, 0), (2, stride as isize)] {
                    let si: Vec<usize> = survivors
                        .iter()
                        .map(|&i| {
                            let j = i as isize + off;
                            if j < 0 || j >= n as isize {
                                base[arr] // dummy in-bounds slot; lane masked below
                            } else {
                                base[arr] + self.pad(j as usize)
                            }
                        })
                        .collect();
                    for (chunk, start) in si
                        .chunks(ctx.threads)
                        .zip((0..si.len()).step_by(ctx.threads))
                    {
                        ctx.sh_ld(chunk, &mut tmp)?;
                        for (o, &v) in tmp.iter().enumerate() {
                            let slot = start + o;
                            if rows.len() <= slot {
                                rows.resize(slot + 1, [Row::identity(); 3]);
                            }
                            let r = &mut rows[slot][d];
                            match arr {
                                0 => r.a = v,
                                1 => r.b = v,
                                2 => r.c = v,
                                _ => r.d = v,
                            }
                        }
                    }
                }
            }
            ctx.sync();
            // Mask out-of-range neighbours to identity.
            let mut out: Vec<Row<S>> = Vec::with_capacity(survivors.len());
            for (slot, &i) in survivors.iter().enumerate() {
                let prev = if i >= stride {
                    rows[slot][0]
                } else {
                    Row::identity()
                };
                let next = if i + stride < n {
                    rows[slot][2]
                } else {
                    Row::identity()
                };
                out.push(
                    reduce_row(prev, rows[slot][1], next, i)
                        .map_err(|e| SimError::KernelFault(e.to_string()))?,
                );
            }
            ctx.flops(survivors.len() as u64 * PCR_FLOPS_PER_ROW);
            for arr in 0..4 {
                let si: Vec<usize> = survivors.iter().map(|&i| base[arr] + self.pad(i)).collect();
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
        }

        // ---- 2x2 apex + backward substitution ------------------------
        // Read the full final state into registers (accounted), solve
        // the apex, then substitute level by level.
        ctx.phase("apex_bsub");
        let mut vals: Vec<[S; 4]> = vec![[S::ZERO; 4]; n];
        for arr in 0..4 {
            let si: Vec<usize> = (0..n).map(|i| base[arr] + self.pad(i)).collect();
            for (chunk, start) in si.chunks(ctx.threads).zip((0..n).step_by(ctx.threads)) {
                ctx.sh_ld(chunk, &mut tmp)?;
                for (o, &v) in tmp.iter().enumerate() {
                    vals[start + o][arr] = v;
                }
            }
        }
        let row_at = |vals: &Vec<[S; 4]>, i: usize| Row {
            a: vals[i][0],
            b: vals[i][1],
            c: vals[i][2],
            d: vals[i][3],
        };
        let mut x = vec![S::ZERO; n];
        {
            let half = n / 2;
            let top = row_at(&vals, half - 1);
            let bot = row_at(&vals, n - 1);
            let det = top.b * bot.b - top.c * bot.a;
            if det == S::ZERO {
                return Err(SimError::KernelFault("singular 2x2 apex".into()));
            }
            x[half - 1] = (top.d * bot.b - top.c * bot.d) / det;
            x[n - 1] = (bot.d * top.b - bot.a * top.d) / det;
        }
        for level in (0..levels - 1).rev() {
            let stride = 1usize << level;
            let mut i = stride - 1;
            while i < n {
                // Rows at odd multiples of stride were eliminated at this
                // level; substitute them now.
                if ((i + 1) / stride) % 2 == 1 {
                    let r = row_at(&vals, i);
                    let left = if i >= stride { x[i - stride] } else { S::ZERO };
                    let right = if i + stride < n {
                        x[i + stride]
                    } else {
                        S::ZERO
                    };
                    if r.b == S::ZERO {
                        return Err(SimError::KernelFault(format!("zero pivot row {i}")));
                    }
                    x[i] = (r.d - r.a * left - r.c * right) / r.b;
                }
                i += stride;
            }
            ctx.flops((n / (2 * stride)) as u64 * 5);
        }

        // Store the solution.
        ctx.phase("store");
        for (chunk, start) in g_idx.chunks(ctx.threads).zip((0..n).step_by(ctx.threads)) {
            ctx.st(self.x, chunk, &x[start..start + chunk.len()])?;
        }
        Ok(())
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::buffers::upload;
    use gpu_sim::{launch, DeviceSpec, GpuMemory, LaunchConfig, LaunchResult};
    use tridiag_core::generators::random_batch;

    fn run(m: usize, n: usize, padded: bool) -> (f64, LaunchResult) {
        let host = random_batch::<f64>(m, n, 3 + n as u64);
        let mut mem = GpuMemory::new();
        let dev = upload(&mut mem, &host);
        let kernel = CrSharedKernel {
            input: [dev.a, dev.b, dev.c, dev.d],
            x: dev.x,
            n,
            padded,
        };
        let cfg = LaunchConfig::new("cr_shared", m, (n as u32 / 2).clamp(32, 512));
        let res = launch(&DeviceSpec::gtx480(), &cfg, &kernel, &mut mem).unwrap();
        let x = mem.read(dev.x).unwrap();
        (host.max_relative_residual(&x).unwrap(), res)
    }

    #[test]
    fn solves_power_of_two_systems() {
        for n in [4usize, 16, 64, 256, 512] {
            for padded in [false, true] {
                let (resid, _) = run(2, n, padded);
                assert!(resid < 1e-9, "n={n} padded={padded}: {resid}");
            }
        }
    }

    #[test]
    fn rejects_non_power_of_two() {
        let host = random_batch::<f64>(1, 100, 1);
        let mut mem = GpuMemory::new();
        let dev = upload(&mut mem, &host);
        let kernel = CrSharedKernel {
            input: [dev.a, dev.b, dev.c, dev.d],
            x: dev.x,
            n: 100,
            padded: false,
        };
        let cfg = LaunchConfig::new("cr_shared", 1, 64);
        assert!(launch(&DeviceSpec::gtx480(), &cfg, &kernel, &mut mem).is_err());
    }

    #[test]
    fn padding_removes_bank_conflicts() {
        // The Göddeke ablation: same solve, same answer, far fewer
        // shared-memory replays with the padded layout.
        let n = 512;
        let (r_plain, plain) = run(4, n, false);
        let (r_padded, padded) = run(4, n, true);
        assert!(r_plain < 1e-9 && r_padded < 1e-9);
        assert!(
            plain.stats.total.bank_conflict_replays
                > 4 * padded.stats.total.bank_conflict_replays.max(1),
            "plain {} vs padded {} replays",
            plain.stats.total.bank_conflict_replays,
            padded.stats.total.bank_conflict_replays
        );
        // Identical global traffic — padding is purely an on-chip fix.
        assert_eq!(
            plain.stats.total.global_bytes(),
            padded.stats.total.global_bytes()
        );
    }
}
