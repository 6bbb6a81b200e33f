//! The thread-level parallel Thomas kernel (Section III-B).
//!
//! One thread solves one (sub)system with the classic Thomas recurrence;
//! the kernel's entire performance story is the *addressing*: when
//! systems are interleaved in memory, a warp's 32 threads read 32
//! adjacent elements per row step — fully coalesced. The incomplete-PCR
//! front end produces exactly that interleaving "for free".
//!
//! Forward-sweep intermediates `c'` and `d'` go to global scratch (also
//! interleaved) and are re-read by the backward sweep, matching how real
//! GPU p-Thomas implementations spill when the system exceeds the
//! register file.

use crate::consts::{THOMAS_BWD_FLOPS, THOMAS_FWD_FLOPS};
use gpu_sim::{BlockCtx, BlockKernel, BufId, Lanes, Result};
use std::ops::Range;

use crate::buffers::GpuScalar;

/// How a p-Thomas thread maps `(its system, row r)` to a flat element
/// index — the coalescing-critical decision.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum AddrMap {
    /// `M` whole systems stored interleaved: element `(t, r)` at
    /// `r·M + t`. The layout pure p-Thomas wants (`k = 0` path).
    Interleaved {
        /// Number of systems.
        m: usize,
        /// Rows per system.
        n: usize,
    },
    /// `M` systems stored contiguously (`sys·n + r`), each split by
    /// k-step PCR into `2^k` interleaved subsystems: global thread
    /// `t = sys·2^k + j` owns rows `sys·n + j + r·2^k`. This is the
    /// layout the tiled-PCR front end leaves behind.
    HybridSubsystems {
        /// Outer systems.
        m: usize,
        /// Rows per outer system.
        n: usize,
        /// PCR steps (subsystem stride is `2^k`).
        k: u32,
    },
    /// `M` whole systems stored contiguously (`t·n + r`) — the
    /// *uncoalesced* strawman kept for the ablation bench: a warp's
    /// threads stride by `n` and every access costs 32 transactions.
    Contiguous {
        /// Number of systems.
        m: usize,
        /// Rows per system.
        n: usize,
    },
}

impl AddrMap {
    /// Total independent (sub)systems — one thread each.
    pub fn num_threads(&self) -> usize {
        match *self {
            AddrMap::Interleaved { m, .. } | AddrMap::Contiguous { m, .. } => m,
            AddrMap::HybridSubsystems { m, k, .. } => m << k,
        }
    }

    /// Rows in thread `t`'s system.
    #[inline]
    pub fn rows(&self, t: usize) -> usize {
        match *self {
            AddrMap::Interleaved { n, .. } | AddrMap::Contiguous { n, .. } => n,
            AddrMap::HybridSubsystems { n, k, .. } => {
                let j = t & ((1usize << k) - 1);
                (n - j).div_ceil(1 << k)
            }
        }
    }

    /// Flat index of thread `t`'s row `r`.
    #[inline]
    pub fn index(&self, t: usize, r: usize) -> usize {
        match *self {
            AddrMap::Interleaved { m, .. } => r * m + t,
            AddrMap::Contiguous { n, .. } => t * n + r,
            AddrMap::HybridSubsystems { n, k, .. } => {
                let sys = t >> k;
                let j = t & ((1usize << k) - 1);
                sys * n + j + (r << k)
            }
        }
    }

    /// Row `r`'s lanes for threads `threads`, as affine pieces: one
    /// piece per run of adjacent threads that have row `r`. That is the
    /// whole range with element step 1 (`Interleaved`) or `n`
    /// (`Contiguous`); for `HybridSubsystems` it is, per outer system,
    /// the prefix of subsystems `j < n − r·2^k`, with step 1. The runs
    /// of thread ids go to `runs`.
    pub(crate) fn row_lanes(
        &self,
        r: usize,
        threads: Range<usize>,
        lanes: &mut Lanes,
        runs: &mut Vec<Range<usize>>,
    ) {
        lanes.clear();
        runs.clear();
        let step = match *self {
            AddrMap::Interleaved { .. } => 1,
            AddrMap::Contiguous { n, .. } => n,
            AddrMap::HybridSubsystems { n, k, .. } => {
                let width = 1usize << k;
                let live = n.saturating_sub(r << k).min(width);
                let mut t = threads.start;
                while t < threads.end {
                    let sys0 = (t >> k) << k;
                    let end = (sys0 + live).min(threads.end);
                    if t < end {
                        runs.push(t..end);
                    }
                    t = sys0 + width;
                }
                for run in runs.iter() {
                    lanes.push(self.index(run.start, r), 1, run.len());
                }
                return;
            }
        };
        if r < self.rows(threads.start) && !threads.is_empty() {
            lanes.push(self.index(threads.start, r), step as i64, threads.len());
            runs.push(threads);
        }
    }
}

/// The p-Thomas kernel: buffers for the coefficients, two scratch
/// buffers for `c'`/`d'`, and the output.
#[derive(Debug, Clone, Copy)]
pub struct PThomasKernel {
    /// Sub-diagonal.
    pub a: BufId,
    /// Main diagonal.
    pub b: BufId,
    /// Super-diagonal.
    pub c: BufId,
    /// Right-hand side.
    pub d: BufId,
    /// Scratch for `c'` (same size/layout as the inputs).
    pub c_prime: BufId,
    /// Scratch for `d'`.
    pub d_prime: BufId,
    /// Solution (same size/layout).
    pub x: BufId,
    /// Addressing scheme.
    pub map: AddrMap,
}

impl<S: GpuScalar> BlockKernel<S> for PThomasKernel {
    fn run_block(&self, ctx: &mut BlockCtx<'_, S>) -> Result<()> {
        let total = self.map.num_threads();
        let base = ctx.block_id * ctx.threads;
        let count = ctx.threads.min(total.saturating_sub(base));
        if count == 0 {
            return Ok(());
        }
        let threads = base..base + count;
        let max_rows = threads.clone().map(|t| self.map.rows(t)).max().unwrap_or(0);

        // Per-thread recurrence registers, indexed by `t − base`.
        let mut cp_reg = vec![S::ZERO; count];
        let mut dp_reg = vec![S::ZERO; count];

        let mut lanes = Lanes::new();
        // Runs of thread ids with row `r`, in lane order — fewer than
        // `count` lanes once some threads' shorter systems have ended.
        let mut runs: Vec<Range<usize>> = Vec::new();
        let mut av = Vec::new();
        let mut bv = Vec::new();
        let mut cv = Vec::new();
        let mut dv = Vec::new();
        let mut cp_out = Vec::with_capacity(count);
        let mut dp_out = Vec::with_capacity(count);

        // ---- forward reduction (Eqs. 2–3) ---------------------------
        ctx.phase("forward");
        for r in 0..max_rows {
            self.map
                .row_lanes(r, threads.clone(), &mut lanes, &mut runs);
            let idx = lanes.pieces();
            ctx.ld_affine(self.a, idx, &mut av)?;
            ctx.ld_affine(self.b, idx, &mut bv)?;
            ctx.ld_affine(self.c, idx, &mut cv)?;
            ctx.ld_affine(self.d, idx, &mut dv)?;
            cp_out.clear();
            dp_out.clear();
            for (lane, t) in runs.iter().cloned().flatten().enumerate() {
                let slot = t - base;
                let (a, b, c, d) = (av[lane], bv[lane], cv[lane], dv[lane]);
                let (cp, dp) = if r == 0 {
                    if b == S::ZERO {
                        return Err(gpu_sim::SimError::KernelFault(format!(
                            "zero pivot, system {t} row 0"
                        )));
                    }
                    (c / b, d / b)
                } else {
                    let denom = b - cp_reg[slot] * a;
                    if denom == S::ZERO {
                        return Err(gpu_sim::SimError::KernelFault(format!(
                            "zero pivot, system {t} row {r}"
                        )));
                    }
                    let inv = S::ONE / denom;
                    (c * inv, (d - dp_reg[slot] * a) * inv)
                };
                cp_reg[slot] = cp;
                dp_reg[slot] = dp;
                cp_out.push(cp);
                dp_out.push(dp);
            }
            ctx.flops(lanes.len() as u64 * THOMAS_FWD_FLOPS);
            ctx.st_affine(self.c_prime, idx, &cp_out)?;
            ctx.st_affine(self.d_prime, idx, &dp_out)?;
        }

        // ---- backward substitution (Eq. 4) --------------------------
        // x registers reuse the recurrence slots.
        ctx.phase("backward");
        let mut x_reg = vec![S::ZERO; count];
        let mut xv = Vec::with_capacity(count);
        for r in (0..max_rows).rev() {
            self.map
                .row_lanes(r, threads.clone(), &mut lanes, &mut runs);
            let idx = lanes.pieces();
            ctx.ld_affine(self.c_prime, idx, &mut cv)?;
            ctx.ld_affine(self.d_prime, idx, &mut dv)?;
            xv.clear();
            for (lane, t) in runs.iter().cloned().flatten().enumerate() {
                let slot = t - base;
                let x = if r + 1 == self.map.rows(t) {
                    dv[lane]
                } else {
                    dv[lane] - cv[lane] * x_reg[slot]
                };
                x_reg[slot] = x;
                xv.push(x);
            }
            ctx.flops(lanes.len() as u64 * THOMAS_BWD_FLOPS);
            ctx.st_affine(self.x, idx, &xv)?;
        }
        Ok(())
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::buffers::upload;
    use crate::consts::{PTHOMAS_BLOCK, REGS_PTHOMAS};
    use gpu_sim::{launch, launch_with, DeviceSpec, ExecConfig, GpuMemory, LaunchConfig, SimError};
    use tridiag_core::generators::random_batch;
    use tridiag_core::Layout;

    fn run_interleaved(m: usize, n: usize) -> f64 {
        let host = random_batch::<f64>(m, n, 42).to_layout(Layout::Interleaved);
        let mut mem = GpuMemory::new();
        let dev = upload(&mut mem, &host);
        let cp = mem.alloc(dev.total());
        let dp = mem.alloc(dev.total());
        let kernel = PThomasKernel {
            a: dev.a,
            b: dev.b,
            c: dev.c,
            d: dev.d,
            c_prime: cp,
            d_prime: dp,
            x: dev.x,
            map: AddrMap::Interleaved { m, n },
        };
        let cfg = LaunchConfig::new(
            "p_thomas",
            m.div_ceil(PTHOMAS_BLOCK as usize),
            PTHOMAS_BLOCK,
        )
        .with_regs(REGS_PTHOMAS);
        launch(&DeviceSpec::gtx480(), &cfg, &kernel, &mut mem).unwrap();
        let x = mem.read(dev.x).unwrap();
        host.max_relative_residual(&x).unwrap()
    }

    #[test]
    fn a_store_into_an_uploaded_input_is_a_typed_error() {
        // `upload` borrows the host arrays: binding `c'` to the uploaded
        // sub-diagonal makes the forward sweep's first store fail, on
        // checked and unchecked launches alike, and leaves the host
        // batch untouched.
        let (m, n) = (64, 32);
        let host = random_batch::<f64>(m, n, 5).to_layout(Layout::Interleaved);
        for exec in [ExecConfig::default(), ExecConfig::sanitized()] {
            let mut mem = GpuMemory::new();
            let dev = upload(&mut mem, &host);
            let dp = mem.alloc(dev.total());
            let kernel = PThomasKernel {
                a: dev.a,
                b: dev.b,
                c: dev.c,
                d: dev.d,
                c_prime: dev.a,
                d_prime: dp,
                x: dev.x,
                map: AddrMap::Interleaved { m, n },
            };
            let cfg = LaunchConfig::new("p_thomas", 1, m as u32).with_regs(REGS_PTHOMAS);
            let err =
                launch_with(&DeviceSpec::gtx480(), &cfg, &exec, &kernel, &mut mem).unwrap_err();
            assert!(matches!(err, SimError::ReadOnlyBuffer { .. }), "{err:?}");
            assert_eq!(mem.read(dev.a).unwrap(), host.arrays().0);
        }
    }

    #[test]
    fn solves_interleaved_batches() {
        assert!(run_interleaved(1, 16) < 1e-10);
        assert!(run_interleaved(7, 33) < 1e-10);
        assert!(run_interleaved(256, 64) < 1e-10);
        assert!(run_interleaved(130, 100) < 1e-10);
    }

    #[test]
    fn interleaved_is_coalesced_contiguous_is_not() {
        let m = 128;
        let n = 64;
        let spec = DeviceSpec::gtx480();
        let mut results = Vec::new();
        for layout in [Layout::Interleaved, Layout::Contiguous] {
            let host = random_batch::<f64>(m, n, 7).to_layout(layout);
            let mut mem = GpuMemory::new();
            let dev = upload(&mut mem, &host);
            let cp = mem.alloc(dev.total());
            let dp = mem.alloc(dev.total());
            let map = match layout {
                Layout::Interleaved => AddrMap::Interleaved { m, n },
                Layout::Contiguous => AddrMap::Contiguous { m, n },
            };
            let kernel = PThomasKernel {
                a: dev.a,
                b: dev.b,
                c: dev.c,
                d: dev.d,
                c_prime: cp,
                d_prime: dp,
                x: dev.x,
                map,
            };
            let cfg = LaunchConfig::new("p_thomas", 1, m as u32).with_regs(REGS_PTHOMAS);
            let res = launch(&spec, &cfg, &kernel, &mut mem).unwrap();
            assert!(host.max_relative_residual(&mem.read(dev.x).unwrap()).unwrap() < 1e-10);
            results.push(res.stats.total);
        }
        let good = results[0];
        let bad = results[1];
        // Same useful bytes, wildly different transactions.
        assert_eq!(good.global_bytes(), bad.global_bytes());
        assert!(
            bad.global_load_transactions >= 10 * good.global_load_transactions,
            "contiguous {} vs interleaved {}",
            bad.global_load_transactions,
            good.global_load_transactions
        );
        assert!(good.coalescing_efficiency(128) > 0.9);
        assert!(bad.coalescing_efficiency(128) < 0.2);
    }

    #[test]
    fn hybrid_subsystem_addressing_solves_pcr_output() {
        // Reduce one system with host PCR, store the reduced rows in
        // their natural (contiguous per system, internally interleaved)
        // order, and let the kernel solve all subsystems.
        use tridiag_core::{generators::dominant_random, pcr};
        let n = 256;
        let k = 3;
        let sys = dominant_random::<f64>(n, 9);
        let red = pcr::reduce(&sys, k).unwrap();
        let (ra, rb, rc, rd) = red.arrays();
        let mut mem = GpuMemory::<f64>::new();
        let a = mem.alloc_from(ra.to_vec());
        let b = mem.alloc_from(rb.to_vec());
        let c = mem.alloc_from(rc.to_vec());
        let d = mem.alloc_from(rd.to_vec());
        let cp = mem.alloc(n);
        let dp = mem.alloc(n);
        let x = mem.alloc(n);
        let map = AddrMap::HybridSubsystems { m: 1, n, k };
        assert_eq!(map.num_threads(), 8);
        let kernel = PThomasKernel {
            a,
            b,
            c,
            d,
            c_prime: cp,
            d_prime: dp,
            x,
            map,
        };
        let cfg = LaunchConfig::new("p_thomas", 1, 8).with_regs(REGS_PTHOMAS);
        launch(&DeviceSpec::gtx480(), &cfg, &kernel, &mut mem).unwrap();
        let xs = mem.read(x).unwrap();
        assert!(sys.relative_residual(&xs).unwrap() < 1e-10);
    }

    #[test]
    fn hybrid_addressing_handles_nonuniform_subsystems() {
        // n not divisible by 2^k: subsystem lengths differ by one.
        let map = AddrMap::HybridSubsystems { m: 2, n: 10, k: 2 };
        assert_eq!(map.num_threads(), 8);
        assert_eq!(map.rows(0), 3); // rows 0,4,8
        assert_eq!(map.rows(1), 3); // rows 1,5,9
        assert_eq!(map.rows(2), 2); // rows 2,6
        assert_eq!(map.rows(3), 2); // rows 3,7
        assert_eq!(map.index(5, 1), 10 + 1 + 4); // sys 1, j=1, r=1
    }

    /// `row_lanes` yields exactly the threads with row `r`, in thread
    /// order, at `index(t, r)` — for all three maps and block ranges
    /// that start and end mid-system.
    #[test]
    fn row_lanes_enumerate_the_live_threads() {
        let maps = [
            AddrMap::Interleaved { m: 10, n: 7 },
            AddrMap::Contiguous { m: 10, n: 7 },
            AddrMap::HybridSubsystems { m: 3, n: 10, k: 2 },
            AddrMap::HybridSubsystems { m: 2, n: 3, k: 2 },
        ];
        let mut lanes = Lanes::new();
        let mut runs = Vec::new();
        let mut idx = Vec::new();
        for map in maps {
            let total = map.num_threads();
            for (lo, hi) in [(0, total), (1, total - 1), (3, 6), (5, 5)] {
                for r in 0..8 {
                    map.row_lanes(r, lo..hi, &mut lanes, &mut runs);
                    let want: Vec<usize> = (lo..hi).filter(|&t| r < map.rows(t)).collect();
                    let got: Vec<usize> = runs.iter().cloned().flatten().collect();
                    assert_eq!(got, want, "{map:?} threads {lo}..{hi} row {r}");
                    gpu_sim::lanes::expand(lanes.pieces(), &mut idx);
                    let want_idx: Vec<usize> = want.iter().map(|&t| map.index(t, r)).collect();
                    assert_eq!(idx, want_idx, "{map:?} threads {lo}..{hi} row {r}");
                }
            }
        }
    }

    #[test]
    fn zero_pivot_faults() {
        let mut mem = GpuMemory::<f64>::new();
        let a = mem.alloc_from(vec![0.0, 1.0]);
        let b = mem.alloc_from(vec![0.0, 1.0]); // singular head
        let c = mem.alloc_from(vec![1.0, 0.0]);
        let d = mem.alloc_from(vec![1.0, 1.0]);
        let cp = mem.alloc(2);
        let dp = mem.alloc(2);
        let x = mem.alloc(2);
        let kernel = PThomasKernel {
            a,
            b,
            c,
            d,
            c_prime: cp,
            d_prime: dp,
            x,
            map: AddrMap::Interleaved { m: 1, n: 2 },
        };
        let cfg = LaunchConfig::new("p_thomas", 1, 1);
        let err = launch(&DeviceSpec::gtx480(), &cfg, &kernel, &mut mem).unwrap_err();
        assert!(matches!(err, gpu_sim::SimError::KernelFault(_)));
    }
}
