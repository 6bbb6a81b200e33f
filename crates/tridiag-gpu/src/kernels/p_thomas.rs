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
//! register file. The kernel declares them launch-private scratch
//! ([`BlockKernel::scratch`]), as CUDA local memory is: their traffic is
//! counted, but their contents end with the launch.
//!
//! The simulator runs the kernel two ways with identical results and
//! counters. Checked launches, and the `Contiguous` map, issue every
//! row's nine accesses (four coefficient loads and two stores forward,
//! two loads and a store backward) through the per-access entry
//! points. An unchecked launch of the `Interleaved` map — the `k = 0`
//! path — or of the `HybridSubsystems` map — the split pipeline after
//! tiled PCR — runs in bulk. A block's row `r` is the same unit-stride
//! lane runs in every buffer, `r·pitch` elements on from row 0's: one
//! run at `r·M + base` (`Interleaved`), or one per outer system at
//! `sys·n + j0 + r·2^k` (`HybridSubsystems`, whose subsystems
//! `j < n mod 2^k` have one more row, counted apart). So each of the
//! nine accesses is counted for all rows at once with
//! [`BlockCtx::global_account`] (in closed form once per alignment
//! class of the row base), and the recurrence runs straight over read
//! views of the inputs — tiles of `ROW_TILE` rows per run, which a
//! transposed upload reads column by column. The block keeps every
//! row's `c'` and `d'` in block-local host memory and the backward
//! sweep reads them from there; they reach device memory only when the
//! launch does not hold them as scratch ([`BlockCtx::is_scratch`]: a
//! wrapper kernel that declares none), so an unchecked launch of the
//! bare kernel never fills its `c'`/`d'` buffers at all. Rows and lanes
//! go in the per-access order, so a zero pivot faults at the same
//! thread (lowest row, then lowest thread) with the same message.

use crate::consts::{THOMAS_BWD_FLOPS, THOMAS_FWD_FLOPS};
use gpu_sim::{BlockCtx, BlockKernel, BufId, GlobalRead, GlobalWrite, Lanes, Result};
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
    /// `c'` and `d'`, unless a buffer is also bound elsewhere.
    fn scratch(&self) -> Vec<BufId> {
        scratch_of(
            [self.c_prime, self.d_prime],
            &[self.a, self.b, self.c, self.d, self.x],
        )
    }

    fn run_block(&self, ctx: &mut BlockCtx<'_, S>) -> Result<()> {
        let total = self.map.num_threads();
        let base = ctx.block_id * ctx.threads;
        let count = ctx.threads.min(total.saturating_sub(base));
        if count == 0 {
            return Ok(());
        }
        let threads = base..base + count;
        if !ctx.checked() {
            if let Some(rows) = self.map.bulk_rows(threads.clone()) {
                if let Some(views) = self.views(ctx, rows.len) {
                    return self.sweep_bulk(ctx, &views, threads, &rows);
                }
            }
        }
        self.sweep_per_access(ctx, threads)
    }
}

/// A block's rows as the bulk sweep takes them: every row `r < full`
/// is the same lane runs `pitch·r` elements further on, and the
/// leading `tail` lanes of each run have one more row, `full`.
struct BulkRows {
    runs: Vec<Run>,
    pitch: usize,
    full: usize,
    /// Elements every buffer must hold.
    len: usize,
}

/// One unit-stride run of a block's lanes in row 0: the block's
/// threads `t..t + lanes` at elements `elem..elem + lanes`, the first
/// `tail` of which also have row `full`.
#[derive(Clone, Copy)]
struct Run {
    t: usize,
    elem: usize,
    lanes: usize,
    tail: usize,
}

impl AddrMap {
    /// The rows of threads `threads` for the bulk sweep: row `r` of the
    /// `Interleaved` map is one run at `r·M`, of the `HybridSubsystems`
    /// map one run per outer system at `sys·n + r·2^k` (its subsystems
    /// `j < n mod 2^k` have one more row). `None` for the `Contiguous`
    /// map, whose rows are strided, and for an empty system.
    fn bulk_rows(&self, threads: Range<usize>) -> Option<BulkRows> {
        let base = threads.start;
        match *self {
            AddrMap::Interleaved { m, n } if n > 0 => Some(BulkRows {
                runs: vec![Run {
                    t: 0,
                    elem: base,
                    lanes: threads.len(),
                    tail: 0,
                }],
                pitch: m,
                full: n,
                len: m * n,
            }),
            AddrMap::HybridSubsystems { m, n, k } if n > 0 => {
                let width = 1usize << k;
                let rem = n % width;
                let mut runs = Vec::new();
                let mut t = base;
                while t < threads.end {
                    let (sys, j) = (t >> k, t % width);
                    let end = threads.end.min((sys + 1) << k);
                    runs.push(Run {
                        t: t - base,
                        elem: sys * n + j,
                        lanes: end - t,
                        tail: rem.saturating_sub(j).min(end - t),
                    });
                    t = end;
                }
                Some(BulkRows {
                    runs,
                    pitch: width,
                    full: n / width,
                    len: m * n,
                })
            }
            _ => None,
        }
    }
}

/// The launch-private scratch of a kernel whose `c'`/`d'` buffers are
/// `primes`: each one no other binding — the other prime or any of
/// `others` — names. A buffer bound twice is not the kernel's alone to
/// discard.
pub(crate) fn scratch_of(primes: [BufId; 2], others: &[BufId]) -> Vec<BufId> {
    let [c_prime, d_prime] = primes;
    primes
        .into_iter()
        .filter(|b| c_prime != d_prime && !others.contains(b))
        .collect()
}

/// The seven buffers of one p-Thomas launch, as read and write views.
struct Views<'a, S: GpuScalar> {
    inputs: [GlobalRead<'a, S>; 4],
    /// `c'` and `d'`, when the launch does not hold them as scratch.
    primes: [Option<GlobalWrite<'a, S>>; 2],
    x: GlobalWrite<'a, S>,
}

impl PThomasKernel {
    /// Views of the kernel's buffers when every one holds at least
    /// `len` elements and the three it writes are writable; `None`
    /// otherwise, and the per-access path reports the fault exactly.
    fn views<'a, S: GpuScalar>(&self, ctx: &BlockCtx<'a, S>, len: usize) -> Option<Views<'a, S>> {
        let read = |buf| ctx.global_read(buf).ok().filter(|v| v.len() >= len);
        let write = |buf| ctx.global_write(buf).ok().filter(|v| v.len() >= len);
        let prime = |buf| {
            let view = write(buf)?;
            Some((!ctx.is_scratch(buf)).then_some(view))
        };
        Some(Views {
            inputs: [read(self.a)?, read(self.b)?, read(self.c)?, read(self.d)?],
            primes: [prime(self.c_prime)?, prime(self.d_prime)?],
            x: write(self.x)?,
        })
    }

    /// Every row of every thread through the per-access entry points:
    /// checked launches, and the `Contiguous` map.
    fn sweep_per_access<S: GpuScalar>(
        &self,
        ctx: &mut BlockCtx<'_, S>,
        threads: Range<usize>,
    ) -> Result<()> {
        let (base, count) = (threads.start, threads.len());
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
                        return Err(zero_pivot(t, r));
                    }
                    (c / b, d / b)
                } else {
                    let denom = b - cp_reg[slot] * a;
                    if denom == S::ZERO {
                        return Err(zero_pivot(t, r));
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

    /// One block in bulk (unchecked launches of the `Interleaved` and
    /// `HybridSubsystems` maps; see the module docs). The forward sweep
    /// reads the inputs [`ROW_TILE`] rows at a time, run by run, into
    /// block-local `c'` and `d'` rows (stored to device memory too when
    /// the launch does not hold them as scratch); the backward sweep
    /// reads them back row by row and stores `x`. Each sweep's accesses
    /// are counted after its data moved, in the per-access path's
    /// order, so the backward loads count against rows the forward
    /// sweep stored.
    // Not inlined: `run_block` stays as small as the per-access path,
    // which a smaller binary showed in `peak_rss_mb`.
    #[inline(never)]
    fn sweep_bulk<S: GpuScalar>(
        &self,
        ctx: &mut BlockCtx<'_, S>,
        views: &Views<'_, S>,
        threads: Range<usize>,
        rows: &BulkRows,
    ) -> Result<()> {
        let (base, count) = (threads.start, threads.len());
        let BulkRows {
            ref runs,
            pitch,
            full,
            ..
        } = *rows;
        // Rows `r0..r0 + ROW_TILE` of the four inputs: run `run`'s rows
        // back to back from `ROW_TILE · run.t`.
        let mut tiles = [(); 4].map(|()| vec![S::ZERO; ROW_TILE * count]);
        // The runs' lanes in row 0, and in the tail row (at shift 0).
        let (mut lanes, mut tail) = (Lanes::new(), Lanes::new());
        for run in runs {
            lanes.push(run.elem, 1, run.lanes);
            tail.push(run.elem + full * pitch, 1, run.tail);
        }
        let shifts: Vec<usize> = (0..full).map(|r| r * pitch).collect();
        let rows_total = (full * count + tail.len()) as u64;
        // Every row's `c'` and `d'`: lane `j` of row `r` (thread
        // `base + j`) at `r·count + j`.
        let height = full + usize::from(!tail.is_empty());
        let mut cps = vec![S::ZERO; height * count];
        let mut dps = vec![S::ZERO; height * count];

        // ---- forward reduction (Eqs. 2–3) -------------------------------
        ctx.phase("forward");
        // Row `r` of `run`'s leading `row[0].len()` lanes from their
        // inputs `row`, into `cps`/`dps` (and to device memory).
        let forward = |r: usize, run: &Run, row: [&[S]; 4], cps: &mut [S], dps: &mut [S]| {
            let [av, bv, cv, dv] = row;
            let (at, live) = (r * count + run.t, av.len());
            let (c_prev, cp) = cps.split_at_mut(at);
            let (d_prev, dp) = dps.split_at_mut(at);
            let (cp, dp) = (&mut cp[..live], &mut dp[..live]);
            if r == 0 {
                for j in 0..live {
                    let (b, c, d) = (bv[j], cv[j], dv[j]);
                    if b == S::ZERO {
                        return Err(zero_pivot(base + run.t + j, r));
                    }
                    (cp[j], dp[j]) = (c / b, d / b);
                }
            } else {
                let (c_prev, d_prev) = (&c_prev[at - count..][..live], &d_prev[at - count..]);
                for j in 0..live {
                    let (a, b, c, d) = (av[j], bv[j], cv[j], dv[j]);
                    let denom = b - c_prev[j] * a;
                    if denom == S::ZERO {
                        return Err(zero_pivot(base + run.t + j, r));
                    }
                    let inv = S::ONE / denom;
                    (cp[j], dp[j]) = (c * inv, (d - d_prev[j] * a) * inv);
                }
            }
            let at = run.elem + r * pitch;
            for (view, vals) in views.primes.iter().zip([&*cp, &*dp]) {
                if let Some(view) = view {
                    view.store(at, vals);
                }
            }
            Ok(())
        };
        for r0 in (0..full).step_by(ROW_TILE) {
            let height = ROW_TILE.min(full - r0);
            for (view, tile) in views.inputs.iter().zip(&mut tiles) {
                for run in runs {
                    let at = &mut tile[ROW_TILE * run.t..][..height * run.lanes];
                    view.copy_rows(run.elem + r0 * pitch, pitch, run.lanes, at);
                }
            }
            for (k, r) in (r0..r0 + height).enumerate() {
                for run in runs {
                    let row = tiles
                        .each_ref()
                        .map(|t| &t[ROW_TILE * run.t + k * run.lanes..][..run.lanes]);
                    forward(r, run, row, &mut cps, &mut dps)?;
                }
            }
        }
        for run in runs.iter().filter(|run| run.tail > 0) {
            for (view, tile) in views.inputs.iter().zip(&mut tiles) {
                view.copy_to(run.elem + full * pitch, &mut tile[..run.tail]);
            }
            let row = tiles.each_ref().map(|t| &t[..run.tail]);
            forward(full, run, row, &mut cps, &mut dps)?;
        }
        for (buf, write) in [
            (self.a, false),
            (self.b, false),
            (self.c, false),
            (self.d, false),
            (self.c_prime, true),
            (self.d_prime, true),
        ] {
            ctx.global_account(buf, &lanes, &shifts, write)?;
            ctx.global_account(buf, &tail, &[0], write)?;
        }
        ctx.flops(rows_total * THOMAS_FWD_FLOPS);

        // ---- backward substitution (Eq. 4) ------------------------------
        ctx.phase("backward");
        // The x registers reuse a row buffer.
        let x = &mut tiles[0][..count];
        for run in runs.iter().filter(|run| run.tail > 0) {
            let (at, lanes) = (run.elem + full * pitch, run.t..run.t + run.tail);
            x[lanes.clone()].copy_from_slice(&dps[full * count..][lanes.clone()]);
            views.x.store(at, &x[lanes]);
        }
        for r in (0..full).rev() {
            let (cv, dv) = (&cps[r * count..][..count], &dps[r * count..][..count]);
            for run in runs {
                let lanes = run.t..run.t + run.lanes;
                let (x, cv, dv) = (&mut x[lanes.clone()], &cv[lanes.clone()], &dv[lanes]);
                // Lanes below `above` have row r + 1; the rest end here.
                let above = if r + 1 == full { run.tail } else { run.lanes };
                for j in 0..above {
                    x[j] = dv[j] - cv[j] * x[j];
                }
                x[above..].copy_from_slice(&dv[above..]);
                views.x.store(run.elem + r * pitch, x);
            }
        }
        for (buf, write) in [(self.c_prime, false), (self.d_prime, false), (self.x, true)] {
            ctx.global_account(buf, &lanes, &shifts, write)?;
            ctx.global_account(buf, &tail, &[0], write)?;
        }
        ctx.flops(rows_total * THOMAS_BWD_FLOPS);
        Ok(())
    }
}

/// Rows the bulk interleaved sweep reads per input array at once: one
/// 64-byte line of each host column of a transposed f32 upload, two of
/// an f64 one.
const ROW_TILE: usize = 16;

/// The zero-pivot fault of system `t` at row `r`.
fn zero_pivot(t: usize, r: usize) -> gpu_sim::SimError {
    gpu_sim::SimError::KernelFault(format!("zero pivot, system {t} row {r}"))
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::buffers::upload;
    use crate::consts::{PTHOMAS_BLOCK, REGS_PTHOMAS};
    use gpu_sim::{
        launch, launch_with, DeviceSpec, ExecConfig, GpuMemory, KernelStats, LaunchConfig, SimError,
    };
    use tridiag_core::generators::random_batch;
    use tridiag_core::{Layout, SystemBatch};

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
            assert!(
                host.max_relative_residual(&mem.read(dev.x).unwrap())
                    .unwrap()
                    < 1e-10
            );
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

    /// How a bulk-versus-per-access run uploads its four coefficient
    /// arrays.
    #[derive(Debug, Clone, Copy)]
    enum Inputs {
        /// The interleaved host arrays, borrowed as they are.
        Borrowed,
        /// The contiguous host arrays, borrowed as transposed views.
        Transposed,
        /// Owned copies of the interleaved arrays.
        Owned,
    }

    /// One interleaved p-Thomas launch over `batch` (contiguous) with
    /// the inputs uploaded as `inputs` says: its counters and solution,
    /// or its error message.
    fn launch_interleaved<S: GpuScalar>(
        batch: &SystemBatch<S>,
        inputs: Inputs,
        exec: ExecConfig,
    ) -> std::result::Result<(KernelStats, Vec<S>), String> {
        let (m, n) = (batch.num_systems(), batch.system_len());
        let inter = batch.to_layout(Layout::Interleaved);
        let mut mem = GpuMemory::new();
        let [a, b, c, d] = match inputs {
            Inputs::Borrowed => {
                let (a, b, c, d) = inter.arrays();
                [a, b, c, d].map(|arr| mem.borrow(arr))
            }
            Inputs::Transposed => {
                let (a, b, c, d) = batch.arrays();
                [a, b, c, d].map(|arr| mem.borrow_transposed(arr, n, m).unwrap())
            }
            Inputs::Owned => {
                let (a, b, c, d) = inter.arrays();
                [a, b, c, d].map(|arr| mem.alloc_from(arr.to_vec()))
            }
        };
        let (c_prime, d_prime, x) = (mem.alloc(m * n), mem.alloc(m * n), mem.alloc(m * n));
        let kernel = PThomasKernel {
            a,
            b,
            c,
            d,
            c_prime,
            d_prime,
            x,
            map: AddrMap::Interleaved { m, n },
        };
        let cfg = LaunchConfig::new(
            "p_thomas",
            m.div_ceil(PTHOMAS_BLOCK as usize),
            PTHOMAS_BLOCK,
        )
        .with_regs(REGS_PTHOMAS);
        let res = launch_with(&DeviceSpec::gtx480(), &cfg, &exec, &kernel, &mut mem)
            .map_err(|e| e.to_string())?;
        assert!(res.violations.is_empty(), "{:?}", res.violations);
        Ok((res.stats, mem.read(x).unwrap()))
    }

    /// Unchecked launches of the interleaved map (bulk) against checked
    /// ones (per access): the same `KernelStats` — totals, phases and
    /// per-block vectors — and the same solution, or the same fault.
    fn bulk_matches_per_access<S: GpuScalar>() {
        for m in [1, 7, 130, 1000, 1024, 4100] {
            for n in [1, 3, 37, 100] {
                let batch = random_batch::<S>(m, n, (m * n) as u64);
                let mut last = None;
                for inputs in [Inputs::Borrowed, Inputs::Transposed, Inputs::Owned] {
                    let bulk = launch_interleaved(&batch, inputs, ExecConfig::default());
                    let checked = launch_interleaved(&batch, inputs, ExecConfig::sanitized());
                    assert_eq!(bulk, checked, "m {m} n {n} {inputs:?}");
                    let (stats, x) = bulk.unwrap();
                    assert_eq!(stats.rounds_per_block.len(), stats.blocks);
                    assert_eq!(stats.phases.len(), 2, "forward and backward");
                    if let Some(prev) = last.replace(x.clone()) {
                        assert_eq!(x, prev, "m {m} n {n} {inputs:?}");
                    }
                }
            }
        }
        // Zero pivots at (system 5, row 3), (system 9, row 3), (system
        // 2, row 7) and (system 129, row 0): block 0 faults first, at its
        // lowest row, then its lowest system.
        let (m, n) = (130, 12);
        let singular = random_batch::<S>(m, n, 9);
        let (a, b, c, d) = singular.arrays();
        let (mut a, mut b) = (a.to_vec(), b.to_vec());
        for (sys, row) in [(5, 3), (9, 3), (2, 7), (129, 0)] {
            a[sys * n + row] = S::ZERO;
            b[sys * n + row] = S::ZERO;
        }
        let batch =
            SystemBatch::from_raw(a, b, c.to_vec(), d.to_vec(), m, n, Layout::Contiguous).unwrap();
        for inputs in [Inputs::Borrowed, Inputs::Transposed, Inputs::Owned] {
            for exec in [ExecConfig::default(), ExecConfig::sanitized()] {
                let err = launch_interleaved(&batch, inputs, exec).unwrap_err();
                assert_eq!(
                    err,
                    SimError::KernelFault("zero pivot, system 5 row 3".into()).to_string(),
                    "{inputs:?} {exec:?}"
                );
            }
        }
    }

    /// One `HybridSubsystems` launch over `batch` (contiguous, each
    /// system split into `2^k` subsystems), its inputs borrowed or owned,
    /// with blocks of [`PTHOMAS_BLOCK`] threads: its counters and
    /// solution, or its error message.
    fn launch_hybrid<S: GpuScalar>(
        batch: &SystemBatch<S>,
        k: u32,
        owned: bool,
        exec: ExecConfig,
    ) -> std::result::Result<(KernelStats, Vec<S>), String> {
        let (m, n) = (batch.num_systems(), batch.system_len());
        let mut mem = GpuMemory::new();
        let (a, b, c, d) = batch.arrays();
        let [a, b, c, d] = [a, b, c, d].map(|arr| {
            if owned {
                mem.alloc_from(arr.to_vec())
            } else {
                mem.borrow(arr)
            }
        });
        let (c_prime, d_prime, x) = (mem.alloc(m * n), mem.alloc(m * n), mem.alloc(m * n));
        let map = AddrMap::HybridSubsystems { m, n, k };
        let kernel = PThomasKernel {
            a,
            b,
            c,
            d,
            c_prime,
            d_prime,
            x,
            map,
        };
        let blocks = map.num_threads().div_ceil(PTHOMAS_BLOCK as usize);
        let cfg = LaunchConfig::new("p_thomas", blocks, PTHOMAS_BLOCK).with_regs(REGS_PTHOMAS);
        let res = launch_with(&DeviceSpec::gtx480(), &cfg, &exec, &kernel, &mut mem)
            .map_err(|e| e.to_string())?;
        assert!(res.violations.is_empty(), "{:?}", res.violations);
        Ok((res.stats, mem.read(x).unwrap()))
    }

    /// Unchecked launches of the `HybridSubsystems` map (bulk) against
    /// checked ones (per access): blocks within one system (`2^k` >
    /// the block), spanning several and ending mid-system, `n` a
    /// multiple of `2^k` or not; then planted zero pivots.
    fn hybrid_bulk_matches_per_access<S: GpuScalar>() {
        for (m, n, k) in [
            (1, 16, 4),
            (1, 1000, 7),
            (2, 1000, 9),
            (3, 100, 2),
            (2, 37, 3),
            (5, 64, 4),
            (4, 130, 5),
            (7, 33, 5),
            (3, 300, 6),
        ] {
            let batch = random_batch::<S>(m, n, (m * n) as u64 + u64::from(k));
            for owned in [false, true] {
                let bulk = launch_hybrid(&batch, k, owned, ExecConfig::default());
                let checked = launch_hybrid(&batch, k, owned, ExecConfig::sanitized());
                assert_eq!(bulk, checked, "m {m} n {n} k {k} owned {owned}");
                let (stats, _) = bulk.unwrap();
                assert_eq!(stats.phases.len(), 2, "forward and backward");
            }
        }
        // Zero pivots at (thread 7, row 2), (thread 5, row 2), (thread
        // 2, row 1) and (thread 9, row 9, the tail row of n = 39, k = 2):
        // the block faults at its lowest row, then its lowest thread.
        let (m, n, k) = (3, 39, 2);
        let singular = random_batch::<S>(m, n, 9);
        let (a, b, c, d) = singular.arrays();
        let (mut a, mut b) = (a.to_vec(), b.to_vec());
        for (t, r) in [(7, 2), (5, 2), (2, 1), (9, 9)] {
            let at = (t >> k) * n + (t & 3) + (r << k);
            a[at] = S::ZERO;
            b[at] = S::ZERO;
        }
        let batch =
            SystemBatch::from_raw(a, b, c.to_vec(), d.to_vec(), m, n, Layout::Contiguous).unwrap();
        for owned in [false, true] {
            for exec in [ExecConfig::default(), ExecConfig::sanitized()] {
                let err = launch_hybrid(&batch, k, owned, exec).unwrap_err();
                assert_eq!(
                    err,
                    SimError::KernelFault("zero pivot, system 2 row 1".into()).to_string(),
                    "owned {owned} {exec:?}"
                );
            }
        }
    }

    #[test]
    fn bulk_matches_per_access_in_f64() {
        bulk_matches_per_access::<f64>();
        hybrid_bulk_matches_per_access::<f64>();
    }

    #[test]
    fn bulk_matches_per_access_in_f32() {
        bulk_matches_per_access::<f32>();
        hybrid_bulk_matches_per_access::<f32>();
    }
}
