//! The fused tiled-PCR + p-Thomas kernel (Section III-C).
//!
//! "The idea is progressively invoking p-Thomas without waiting for
//! tiled PCR to finish processing the whole data": as each sub-tile's
//! fully-reduced rows leave the sliding window, thread `j` immediately
//! folds them into its subsystem's Thomas *forward* recurrence, which
//! lives in registers. Only the recurrence outputs `c'`/`d'` are written
//! to global memory (for the backward sweep); the reduced coefficients
//! `a, b, c, d` never round-trip through DRAM, and the second kernel
//! launch disappears.
//!
//! Versus the split pipeline, per reduced row this saves four global
//! stores (PCR output) and four global loads (p-Thomas input), at the
//! cost of a larger register footprint (`REGS_FUSED`) — exactly the
//! occupancy trade-off the paper warns about: "kernel fusion does not
//! always improve performance".
//!
//! `c'` and `d'` are launch-private scratch
//! ([`gpu_sim::BlockKernel::scratch`]), as CUDA local memory is: their
//! traffic is counted, but their contents end with the launch.
//!
//! Per step (checked launches), the fold reads each sub-tile's reduced
//! rows straight from the window after counting the four `window_read`
//! loads as one group ([`gpu_sim::BlockCtx::sh_account_group`]); the
//! simulated accesses are the same four block-wide loads, and the
//! `c'`/`d'` stores go through [`gpu_sim::BlockCtx::global_write`]
//! views. In bulk (unchecked launches), `super::window::stream_bulk`
//! hands the reduced rows over chunk by chunk and the fold runs a row
//! of the block's `2^k` threads at a time into block-local `c'`/`d'`
//! rows, which reach device memory only when the launch does not hold
//! them as scratch ([`gpu_sim::BlockCtx::is_scratch`]: a wrapper kernel
//! that declares none); the steps are then counted once per distinct
//! shape (the window module docs). Both paths count the `c'`/`d'`
//! stores with [`gpu_sim::BlockCtx::global_account`] — whole
//! sub-tiles, then the tail — and share the backward sweep in two
//! halves: its loads and stores counted for every row at once, and the
//! recurrence run over the system's `c'`/`d'` (block-local in bulk,
//! read back from device memory per step), a row of threads at a time.
//!
//! In bulk, a block runs its data — the forward sweep, then the
//! backward sweep's data half — and then its whole count (engine
//! set-up, the steps, the `c'` tail and the backward counts) as one
//! [`gpu_sim::BlockCtx::count_once`] keyed on `(n, class)`: the
//! system's row count and the alignment class
//! ([`gpu_sim::BlockCtx::segment_class`]) of its base, the only things
//! the count reads that are not launch constants. On 128-byte
//! transaction segments a uniform launch has at most 16 distinct
//! blocks in f64 and 32 in f32, however many systems it solves.
//!
//! The kernel covers the Fig. 11(a) mapping (one whole system per
//! block); the solver falls back to the split pipeline for the other
//! mappings.

use super::p_thomas::scratch_of;
use super::window::{read_views, stream_bulk, valid, write_views, StreamSlot, WindowEngine};
use crate::buffers::GpuScalar;
use crate::consts::{THOMAS_BWD_FLOPS, THOMAS_FWD_FLOPS};
use gpu_sim::{BlockCtx, BlockKernel, BufId, Lanes, Result, SharedGroup, SimError};

/// The fused kernel's phases that do the tiled-PCR stage's work — the
/// window engine's — as opposed to the Thomas fold, the `c'`/`d'`
/// stores and the backward sweep.
pub const PCR_PHASES: [&str; 4] = ["window_init", "window_load", "splice", "pcr_level"];

/// The fused kernel: one block per system, `2^k` threads each.
#[derive(Debug, Clone)]
pub struct FusedKernel {
    /// Input coefficient buffers `[a, b, c, d]`, contiguous layout.
    pub input: [BufId; 4],
    /// Global scratch for the forward-sweep `c'` (contiguous layout).
    pub c_prime: BufId,
    /// Global scratch for the forward-sweep `d'`.
    pub d_prime: BufId,
    /// Solution buffer (contiguous layout).
    pub x: BufId,
    /// Rows per system.
    pub n: usize,
    /// PCR steps (`k ≥ 1`).
    pub k: u32,
    /// Sub-tile rows (`c · 2^k`).
    pub sub_tile: usize,
    /// Number of systems (block `b` handles system `b`).
    pub m: usize,
}

impl FusedKernel {
    /// Shared-memory elements per block: 4 arrays of window `2f + st`
    /// plus dependency cache `2f` — the tiled-PCR footprint without its
    /// store-alignment carry, which this kernel keeps in registers.
    pub fn shared_elems(k: u32, sub_tile: usize) -> usize {
        let f = (1usize << k) - 1;
        4 * (4 * f + sub_tile)
    }
}

impl<S: GpuScalar> BlockKernel<S> for FusedKernel {
    /// `c'` and `d'`, unless a buffer is also bound elsewhere.
    fn scratch(&self) -> Vec<BufId> {
        let [a, b, c, d] = self.input;
        scratch_of([self.c_prime, self.d_prime], &[a, b, c, d, self.x])
    }

    fn run_block(&self, ctx: &mut BlockCtx<'_, S>) -> Result<()> {
        let sys = ctx.block_id;
        if sys >= self.m {
            return Ok(());
        }
        self.solve_system(ctx, sys, sys * self.n, self.n)
    }
}

/// The fused kernel over a ragged batch: block `b` solves system `b`,
/// rows `offsets[b] .. offsets[b + 1]` of the global arrays, with the
/// launch's one `k`, sub-tile and `2^k` threads. A block's work depends
/// only on its own system, so each system's answer is the one a uniform
/// launch at the same `k` gives it.
#[derive(Debug, Clone)]
pub struct RaggedFusedKernel {
    /// Buffers, `k` and sub-tile; `n` is the longest system's row count
    /// and `m` the number of systems.
    pub fused: FusedKernel,
    /// First element of each system, then the total (`m + 1` entries).
    pub offsets: Vec<usize>,
}

impl<S: GpuScalar> BlockKernel<S> for RaggedFusedKernel {
    fn scratch(&self) -> Vec<BufId> {
        BlockKernel::<S>::scratch(&self.fused)
    }

    fn run_block(&self, ctx: &mut BlockCtx<'_, S>) -> Result<()> {
        let sys = ctx.block_id;
        match self.offsets.get(sys..sys + 2) {
            Some(&[lo, hi]) if sys < self.fused.m => self.fused.solve_system(ctx, sys, lo, hi - lo),
            _ => Ok(()),
        }
    }
}

/// The per-thread Thomas forward state of a per-step run: the
/// recurrence registers of the `2^k` subsystems, and the register tile
/// of pending `c'`/`d'` values for positions `p0 ..` awaiting an
/// aligned store — the paper's "previous results ... in registers".
struct Forward<S> {
    cp: Vec<S>,
    dp: Vec<S>,
    p0: usize,
    pend_cp: Vec<S>,
    pend_dp: Vec<S>,
}

/// Fold the consecutive reduced rows `p0 ..` of system `sys`, given as
/// `[a, b, c, d]`, into the forward recurrences of their subsystems
/// `p mod stride`, whose registers are `[cp, dp]`, and write each
/// row's `(c', d')` to `[cps, dps]`. Rows arrive in position order, so
/// `p < stride` is a subsystem's head. Each run of subsystems within
/// one row of the block's threads has its pivots computed and checked,
/// then runs as one loop; a zero pivot fails at the first row that has
/// one.
// Not inlined: one copy per scalar type serves both paths.
#[inline(never)]
fn fold_rows<S: GpuScalar>(
    sys: usize,
    p0: usize,
    stride: usize,
    [a, b, c, d]: [&[S]; 4],
    [cp, dp]: [&mut [S]; 2],
    [cps, dps]: [&mut [S]; 2],
) -> Result<()> {
    let mut i = 0;
    while i < a.len() {
        let (p, j) = (p0 + i, (p0 + i) % stride);
        let w = (stride - j).min(a.len() - i);
        let run = i..i + w;
        let (a, b, c, d) = (
            &a[run.clone()],
            &b[run.clone()],
            &c[run.clone()],
            &d[run.clone()],
        );
        let (cps, dps) = (&mut cps[run.clone()], &mut dps[run]);
        let (cp, dp) = (&mut cp[j..j + w], &mut dp[j..j + w]);
        // Each row's pivot goes to `cps` first, where `c'` ends up.
        let head = p < stride;
        if head {
            cps.copy_from_slice(b);
        } else {
            for x in 0..w {
                cps[x] = b[x] - cp[x] * a[x];
            }
        }
        if let Some(x) = cps.iter().position(|&pivot| pivot == S::ZERO) {
            let at = if head {
                "head".to_string()
            } else {
                format!("row {}", p + x)
            };
            return Err(SimError::KernelFault(format!(
                "zero pivot, system {sys} subsystem {} {at}",
                j + x
            )));
        }
        if head {
            for x in 0..w {
                (cp[x], dp[x]) = (c[x] / b[x], d[x] / b[x]);
            }
        } else {
            for x in 0..w {
                let inv = S::ONE / cps[x];
                (cp[x], dp[x]) = (c[x] * inv, (d[x] - dp[x] * a[x]) * inv);
            }
        }
        cps.copy_from_slice(cp);
        dps.copy_from_slice(dp);
        i += w;
    }
    Ok(())
}

impl FusedKernel {
    /// One block's work: solve system `sys`, the `n` rows starting at
    /// global element `base`.
    fn solve_system<S: GpuScalar>(
        &self,
        ctx: &mut BlockCtx<'_, S>,
        sys: usize,
        base: usize,
        n: usize,
    ) -> Result<()> {
        let slot = StreamSlot::whole(base, n);
        // Unchecked: c', d' and x are computed in bulk first, then the
        // device's counters are counted without moving data, once per
        // launch for each distinct key. The key holds what the count
        // reads that is not a launch constant (`k`, sub-tile, threads,
        // buffers and spec): the system's `n` and its base's alignment
        // class.
        if !ctx.checked() {
            if let Some(primes) = self.forward_bulk(ctx, sys, &slot) {
                self.backward_data(ctx, base, primes.each_ref().map(Vec::as_slice))?;
                let key = [n, ctx.segment_class(base)];
                return ctx.count_once(&key, &mut |ctx| self.steps(ctx, sys, &slot, false));
            }
        }
        self.steps(ctx, sys, &slot, true)?;
        let mut primes = [vec![S::ZERO; n], vec![S::ZERO; n]];
        for (buf, vals) in [self.c_prime, self.d_prime].into_iter().zip(&mut primes) {
            ctx.global_read(buf)?.copy_to(base, vals);
        }
        self.backward_data(ctx, base, primes.each_ref().map(Vec::as_slice))
    }

    /// The block's window steps, its `c'`/`d'` stores and the backward
    /// sweep's counts: counted, and when `moving` the forward sweep
    /// performed step by step.
    // Not inlined: one copy per scalar type serves both paths.
    #[inline(never)]
    fn steps<S: GpuScalar>(
        &self,
        ctx: &mut BlockCtx<'_, S>,
        sys: usize,
        slot: &StreamSlot,
        moving: bool,
    ) -> Result<()> {
        let (base, n) = (slot.base, slot.emit_hi);
        let mut engine =
            WindowEngine::new(ctx, n, self.k, self.sub_tile, std::slice::from_ref(slot))?;
        let (st, f) = (engine.st, engine.f);
        let stride = 1usize << self.k;

        // This sub-tile's reduced rows: positions t0 − f .. t0 + st − f,
        // the first `st` rows of each array's window.
        let mut window_lanes = Lanes::new();
        window_lanes.push(engine.slots[0].buf[0], 1, st);
        let mut window_read = SharedGroup::new(window_lanes, &engine.arr_shifts, false);
        let mut lanes = Lanes::new();

        if moving {
            let mut fwd = Forward {
                cp: vec![S::ZERO; stride],
                dp: vec![S::ZERO; stride],
                p0: 0,
                pend_cp: Vec::with_capacity(st + f),
                pend_dp: Vec::with_capacity(st + f),
            };
            while engine.advance(ctx, self.input, true)? {
                self.fold_step(
                    ctx,
                    &engine,
                    sys,
                    &mut window_read,
                    &mut lanes,
                    Some(&mut fwd),
                )?;
                engine.step();
            }
            debug_assert_eq!(fwd.p0, n / st * st, "every whole sub-tile was flushed");
            self.cprime_store(ctx, &mut lanes, base + fwd.p0, n - fwd.p0)?;
            let [c_prime, d_prime] = [self.c_prime, self.d_prime].map(|b| ctx.global_write(b));
            c_prime?.store(base + fwd.p0, &fwd.pend_cp);
            d_prime?.store(base + fwd.p0, &fwd.pend_dp);
        } else {
            engine.count_steps(
                ctx,
                self.input,
                &mut |ctx, s, key| {
                    let (lo, hi) = folded(s.t0, st, f, n);
                    let class = ctx.segment_class(base + lo / st * st);
                    key.extend([hi - lo, hi / st - lo / st, class].map(|v| v as isize));
                },
                &mut |ctx, engine| {
                    self.fold_step(ctx, engine, sys, &mut window_read, &mut lanes, None)
                },
            )?;
            let p0 = n / st * st;
            self.cprime_store(ctx, &mut lanes, base + p0, n - p0)?;
        }
        self.backward_count(ctx, &mut lanes, base, n)
    }

    /// One step's fold: the window read of the reduced rows, their
    /// recurrence flops, and the aligned `c'`/`d'` stores of every whole
    /// sub-tile of them pending — counted, and with `fwd` (a per-step
    /// run) performed.
    fn fold_step<S: GpuScalar>(
        &self,
        ctx: &mut BlockCtx<'_, S>,
        engine: &WindowEngine<S>,
        sys: usize,
        window_read: &mut SharedGroup,
        lanes: &mut Lanes,
        fwd: Option<&mut Forward<S>>,
    ) -> Result<()> {
        let (st, f) = (engine.st, engine.f);
        let s = &engine.slots[0];
        let n = s.emit_hi as usize;
        let (lo, hi) = folded(s.t0, st, f, n);

        // ---- read this sub-tile's reduced rows from shared ----------
        ctx.phase("window_read");
        ctx.sh_account_group(window_read)?;
        // All lanes must finish reading the window before the next
        // advance() overwrites it: the fresh region [2f, 2f + st)
        // overlaps the rows just read whenever st > 2f (c ≥ 2).
        ctx.sync();

        // ---- fold into the per-thread Thomas forward recurrence ------
        let Some(fwd) = fwd else {
            ctx.flops((hi - lo) as u64 * THOMAS_FWD_FLOPS);
            // Whole sub-tiles [q·st, (q + 1)·st) completed by this step.
            return self.cprime_store(ctx, lanes, s.base + lo / st * st, (hi / st - lo / st) * st);
        };
        // Window row i holds position t0 − f + i.
        let at = (lo as isize - s.t0 + f as isize) as usize;
        let rows = ctx.shared_slice();
        let rows = s.buf.map(|w| &rows[w + at..][..hi - lo]);
        let pending = fwd.pend_cp.len();
        fwd.pend_cp.resize(pending + hi - lo, S::ZERO);
        fwd.pend_dp.resize(pending + hi - lo, S::ZERO);
        fold_rows(
            sys,
            lo,
            1 << engine.k,
            rows,
            [&mut fwd.cp, &mut fwd.dp],
            [&mut fwd.pend_cp[pending..], &mut fwd.pend_dp[pending..]],
        )?;
        ctx.flops((hi - lo) as u64 * THOMAS_FWD_FLOPS);

        // ---- aligned global stores of c'/d' -------------------------
        // Flush pending in st-sized chunks, keeping the tail for
        // alignment (the register tile).
        let whole = fwd.pend_cp.len() / st * st;
        self.cprime_store(ctx, lanes, s.base + fwd.p0, whole)?;
        let [c_prime, d_prime] = [self.c_prime, self.d_prime].map(|b| ctx.global_write(b));
        c_prime?.store(s.base + fwd.p0, &fwd.pend_cp[..whole]);
        d_prime?.store(s.base + fwd.p0, &fwd.pend_dp[..whole]);
        fwd.pend_cp.drain(..whole);
        fwd.pend_dp.drain(..whole);
        fwd.p0 += whole;
        Ok(())
    }

    /// Count the `c'` and `d'` stores of `len` rows from global element
    /// `start`, in sub-tiles (the last may be partial), each issued in
    /// runs of at most a block of lanes.
    fn cprime_store<S: GpuScalar>(
        &self,
        ctx: &mut BlockCtx<'_, S>,
        lanes: &mut Lanes,
        start: usize,
        len: usize,
    ) -> Result<()> {
        ctx.phase("cprime_store");
        let st = self.sub_tile;
        let whole: Vec<usize> = (0..len / st).map(|q| q * st).collect();
        for (at, count, shifts) in [
            (start, st, &whole[..]),
            (start + len / st * st, len % st, &[0]),
        ] {
            lanes.clear();
            lanes.push(at, 1, count);
            for buf in [self.c_prime, self.d_prime] {
                ctx.global_account(buf, lanes, shifts, true)?;
            }
        }
        Ok(())
    }

    /// The forward sweep in bulk (unchecked launches): the slot's
    /// level-`k` rows from [`stream_bulk`] folded into the recurrence,
    /// their `c'`/`d'` returned block-local (indexed from the system's
    /// first row) and stored to global memory only when the launch
    /// does not hold them as scratch. `None` when the block must run
    /// per step instead — an invalid configuration, a buffer too short
    /// or read-only (`x` included, which the backward sweep writes), or
    /// a zero pivot — which then reports the fault.
    fn forward_bulk<S: GpuScalar>(
        &self,
        ctx: &BlockCtx<'_, S>,
        sys: usize,
        slot: &StreamSlot,
    ) -> Option<[Vec<S>; 2]> {
        let (base, n) = (slot.base, slot.emit_hi);
        if !valid(n, self.k, self.sub_tile, std::slice::from_ref(slot)) {
            return None;
        }
        let input = read_views(ctx, self.input, base + n)?;
        let [c_prime, d_prime, _] =
            write_views(ctx, [self.c_prime, self.d_prime, self.x], base + n)?;
        let stride = 1usize << self.k;
        let (mut cp, mut dp) = (vec![S::ZERO; stride], vec![S::ZERO; stride]);
        let (mut cps, mut dps) = (vec![S::ZERO; n], vec![S::ZERO; n]);
        let mut mem = Vec::new();
        stream_bulk(n, self.k, slot, &input, &mut mem, &mut |p0, rows| {
            let at = p0..p0 + rows[0].len();
            fold_rows(
                sys,
                p0,
                stride,
                rows,
                [&mut cp, &mut dp],
                [&mut cps[at.clone()], &mut dps[at]],
            )
        })
        .ok()?;
        for (buf, view, vals) in [(self.c_prime, c_prime, &cps), (self.d_prime, d_prime, &dps)] {
            if !ctx.is_scratch(buf) {
                view.store(base, vals);
            }
        }
        Some([cps, dps])
    }

    /// The backward substitution's counts, thread `j` owning rows `j,
    /// j + 2^k, …` (interleaved → coalesced): row `r` of every thread
    /// `j < min(2^k, n − r·2^k)` is one run. The loads of `c'`/`d'` and
    /// the stores of `x` are counted for every row at once.
    fn backward_count<S: GpuScalar>(
        &self,
        ctx: &mut BlockCtx<'_, S>,
        lanes: &mut Lanes,
        base: usize,
        n: usize,
    ) -> Result<()> {
        ctx.phase("backward");
        let stride = 1usize << self.k;
        let full = n / stride;
        let rows: Vec<usize> = (0..full).map(|r| r * stride).collect();
        for (at, count, shifts) in [
            (base, stride, &rows[..]),
            (base + full * stride, n % stride, &[0]),
        ] {
            lanes.clear();
            lanes.push(at, 1, count);
            for (buf, write) in [(self.c_prime, false), (self.d_prime, false), (self.x, true)] {
                ctx.global_account(buf, lanes, shifts, write)?;
            }
        }
        ctx.flops(n as u64 * THOMAS_BWD_FLOPS);
        Ok(())
    }

    /// The backward substitution's data: the sweep over the system's
    /// `c'` and `d'` (`primes`, indexed from its first row) into a
    /// view of `x` at `base`, from the last row of threads up.
    fn backward_data<S: GpuScalar>(
        &self,
        ctx: &BlockCtx<'_, S>,
        base: usize,
        [cps, dps]: [&[S]; 2],
    ) -> Result<()> {
        let (n, stride) = (cps.len(), 1usize << self.k);
        let x = ctx.global_write(self.x)?;
        // Rows r_lo..r_hi at a time: `xs` holds their x, then the x of
        // row r_hi (the first of the rows above).
        let block = (CHUNK_ROWS / stride).max(1);
        let mut xs = vec![S::ZERO; (block + 1) * stride];
        let mut r_hi = n.div_ceil(stride);
        while r_hi > 0 {
            let r_lo = r_hi.saturating_sub(block);
            let (lo, hi) = (r_lo * stride, (r_hi * stride).min(n));
            xs.copy_within(0..stride, (r_hi - r_lo) * stride);
            let (cv, dv) = (&cps[lo..hi], &dps[lo..hi]);
            for r in (r_lo..r_hi).rev() {
                let o = (r - r_lo) * stride;
                let live = stride.min(n - r * stride);
                // Threads below `split` have a row r + 1; the rest end here.
                let split = n.saturating_sub((r + 1) * stride).min(live);
                let (row, above) = xs[o..].split_at_mut(stride);
                let (cv, dv) = (&cv[o..o + live], &dv[o..o + live]);
                for i in 0..split {
                    row[i] = dv[i] - cv[i] * above[i];
                }
                row[split..live].copy_from_slice(&dv[split..]);
            }
            x.store(base + lo, &xs[..hi - lo]);
            r_hi = r_lo;
        }
        Ok(())
    }
}

/// Rows the backward sweep reads and writes per block of rows.
const CHUNK_ROWS: usize = 512;

/// The positions `lo..hi` a step at sub-tile start `t0` folds: its
/// level-`k` rows `[t0 − f, t0 + st − f)` within the system's `n`.
fn folded(t0: isize, st: usize, f: usize, n: usize) -> (usize, usize) {
    let first = t0 - f as isize;
    let clip = |p: isize| p.clamp(0, n as isize) as usize;
    (clip(first), clip(first + st as isize))
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::buffers::upload;
    use crate::consts::REGS_FUSED;
    use gpu_sim::{launch, DeviceSpec, GpuMemory, LaunchConfig, LaunchResult};
    use tridiag_core::generators::random_batch;

    fn run(m: usize, n: usize, k: u32, c: usize) -> (f64, LaunchResult) {
        let host = random_batch::<f64>(m, n, 77 + n as u64);
        let mut mem = GpuMemory::new();
        let dev = upload(&mut mem, &host);
        let cp = mem.alloc(m * n);
        let dp = mem.alloc(m * n);
        let kernel = FusedKernel {
            input: [dev.a, dev.b, dev.c, dev.d],
            c_prime: cp,
            d_prime: dp,
            x: dev.x,
            n,
            k,
            sub_tile: c << k,
            m,
        };
        let cfg = LaunchConfig::new("fused", m, 1 << k).with_regs(REGS_FUSED);
        let res = launch(&DeviceSpec::gtx480(), &cfg, &kernel, &mut mem).unwrap();
        let x = mem.read(dev.x).unwrap();
        (host.max_relative_residual(&x).unwrap(), res)
    }

    #[test]
    fn solves_exactly_like_the_split_pipeline_solves() {
        for (m, n, k, c) in [
            (1usize, 64usize, 2u32, 1usize),
            (2, 100, 3, 1),
            (4, 512, 4, 2),
            (1, 1000, 5, 1),
        ] {
            let (resid, _) = run(m, n, k, c);
            assert!(resid < 1e-9, "m={m} n={n} k={k}: {resid}");
        }
    }

    #[test]
    fn fused_moves_less_global_data_than_split() {
        // Split pipeline traffic per row: PCR stores 4 + p-Thomas loads
        // 4 + stores 2 + bwd loads 2 + store 1 = 13 element moves (plus
        // the initial 4 loads). Fused: 4 loads + 2 stores + 2 bwd loads
        // + 1 store = 9.
        let (m, n, k) = (2usize, 512usize, 4u32);
        let (_, fused) = run(m, n, k, 1);
        let elem = 8u64;
        let rows = (m * n) as u64;
        let bytes = fused.stats.total.global_bytes();
        // 4 ld + 2 st(c',d') + 2 ld(bwd) + 1 st(x) = 9 element moves.
        assert_eq!(bytes, 9 * rows * elem);
        assert!(fused.stats.total.coalescing_efficiency(128) > 0.8);
    }

    #[test]
    fn single_launch_vs_two() {
        // The timing benefit of fusion shows up as one launch overhead
        // instead of two; verified at the solver level. Here just assert
        // the kernel completes whole batches in one launch.
        let (resid, res) = run(8, 256, 3, 1);
        assert!(resid < 1e-9);
        assert_eq!(res.stats.blocks, 8);
    }
}
