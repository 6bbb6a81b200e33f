//! The buffered-sliding-window streaming engine shared by the tiled PCR
//! kernel and the fused tiled-PCR + p-Thomas kernel.
//!
//! [`WindowEngine::advance`] performs one sub-tile step for every live
//! stream slot: coalesced global loads of the fresh rows, then `k`
//! lockstep PCR levels through the in-place shifting window (see the
//! module docs of [`super::tiled_pcr`] for the buffer math). After each
//! `advance`, the fresh level-`k` rows for slot `g` sit in shared memory
//! at `slot(g).buf[arr] + i` for `i < sub_tile`, covering positions
//! `[t0 − f, t0 + st − f)`; the caller emits them however it likes
//! (store to global, or feed the Thomas recurrence directly in the
//! fused kernel), then calls [`WindowEngine::step`].
//!
//! Every access is one unit-stride lane run per active slot, handed to
//! the simulator as affine pieces ([`Lanes`]) and issued through
//! [`Chunked`] in accesses of at most one lane per thread.

use crate::buffers::GpuScalar;
use crate::consts::PCR_FLOPS_PER_ROW;
use gpu_sim::{AffinePiece, BlockCtx, BufId, Lanes, Result, SimError};
use std::ops::Range;
use tridiag_core::cr::{reduce_row, Row};

/// One PCR stream: a thread group reducing rows `[emit_lo, emit_hi)` of
/// `system`.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct StreamSlot {
    /// System index in the batch.
    pub system: usize,
    /// First row this slot emits.
    pub emit_lo: usize,
    /// One past the last row this slot emits.
    pub emit_hi: usize,
}

impl StreamSlot {
    /// A slot covering one whole system (Fig. 11(a) mapping).
    pub fn whole(system: usize, n: usize) -> Self {
        StreamSlot {
            system,
            emit_lo: 0,
            emit_hi: n,
        }
    }
}

/// Per-slot streaming state (shared-memory bases + stream position).
pub(crate) struct SlotState {
    pub system: usize,
    pub emit_lo: isize,
    pub emit_hi: isize,
    /// One past the last *real* input position (`min(n, emit_hi + f)`).
    pub in_end: isize,
    /// Current sub-tile start (input positions `[t0, t0 + st)`).
    pub t0: isize,
    /// Shared window base per array.
    pub buf: [usize; 4],
    /// Shared dependency-cache base per array.
    pub cache: [usize; 4],
}

impl SlotState {
    pub fn done(&self, f: isize) -> bool {
        self.t0 >= self.emit_hi + f
    }
}

/// Block-wide accesses over lane lists of any length: a list is issued
/// in chunks of at most `ctx.threads` lanes, one access per chunk, as a
/// block that loops over its data would.
pub(crate) struct Chunked<S> {
    part: Lanes,
    part_g: Lanes,
    tmp: Vec<S>,
}

impl<S> Default for Chunked<S> {
    fn default() -> Self {
        Self {
            part: Lanes::new(),
            part_g: Lanes::new(),
            tmp: Vec::new(),
        }
    }
}

/// Call `f(pieces, lanes)` for each chunk of at most `threads` lanes of
/// `lanes` (none for an empty list).
fn for_chunks(
    threads: usize,
    lanes: &Lanes,
    part: &mut Lanes,
    mut f: impl FnMut(&[AffinePiece], Range<usize>) -> Result<()>,
) -> Result<()> {
    let n = lanes.len();
    if n <= threads {
        return if n == 0 {
            Ok(())
        } else {
            f(lanes.pieces(), 0..n)
        };
    }
    for lo in (0..n).step_by(threads) {
        let hi = (lo + threads).min(n);
        lanes.slice_into(lo, hi, part);
        f(part.pieces(), lo..hi)?;
    }
    Ok(())
}

impl<S: GpuScalar> Chunked<S> {
    /// Load `lanes` of global buffer `Some(buf)` or of shared memory
    /// (`None`) into `out`.
    pub fn load(
        &mut self,
        ctx: &mut BlockCtx<'_, S>,
        src: Option<BufId>,
        lanes: &Lanes,
        out: &mut Vec<S>,
    ) -> Result<()> {
        let load = |ctx: &mut BlockCtx<'_, S>, pieces: &[AffinePiece], out: &mut Vec<S>| match src {
            Some(buf) => ctx.ld_affine(buf, pieces, out),
            None => ctx.sh_ld_affine(pieces, out),
        };
        out.clear();
        // A list that fits one access loads straight into `out`.
        if lanes.len() <= ctx.threads {
            return if lanes.is_empty() {
                Ok(())
            } else {
                load(ctx, lanes.pieces(), out)
            };
        }
        let tmp = &mut self.tmp;
        for_chunks(ctx.threads, lanes, &mut self.part, |pieces, _| {
            load(ctx, pieces, tmp)?;
            out.extend_from_slice(tmp);
            Ok(())
        })
    }

    /// Store `vals` (one per lane) to `lanes` of global buffer
    /// `Some(buf)` or of shared memory (`None`).
    pub fn store(
        &mut self,
        ctx: &mut BlockCtx<'_, S>,
        dst: Option<BufId>,
        lanes: &Lanes,
        vals: &[S],
    ) -> Result<()> {
        if vals.len() != lanes.len() {
            return Err(SimError::LaneMismatch {
                indices: lanes.len(),
                values: vals.len(),
            });
        }
        for_chunks(ctx.threads, lanes, &mut self.part, |pieces, r| match dst {
            Some(buf) => ctx.st_affine(buf, pieces, &vals[r]),
            None => ctx.sh_st_affine(pieces, &vals[r]),
        })
    }

    /// Copy shared lanes `sh` to global lanes `g` of `dst`, chunk by
    /// chunk: each chunk is a shared load then a global store.
    pub fn shared_to_global(
        &mut self,
        ctx: &mut BlockCtx<'_, S>,
        sh: &Lanes,
        dst: BufId,
        g: &Lanes,
    ) -> Result<()> {
        let n = g.len();
        for lo in (0..n).step_by(ctx.threads) {
            let hi = (lo + ctx.threads).min(n);
            sh.slice_into(lo, hi, &mut self.part);
            g.slice_into(lo, hi, &mut self.part_g);
            ctx.sh_ld_affine(self.part.pieces(), &mut self.tmp)?;
            ctx.st_affine(dst, self.part_g.pieces(), &self.tmp)?;
        }
        Ok(())
    }
}

/// Replace `lanes` with one unit-stride run of `count` lanes per slot
/// `g` of `slots`, starting at element `base(g)`.
pub(crate) fn slot_runs(
    lanes: &mut Lanes,
    slots: &[usize],
    count: usize,
    base: impl Fn(usize) -> usize,
) {
    lanes.clear();
    for &g in slots {
        lanes.push(base(g), 1, count);
    }
}

/// The streaming engine (see module docs).
pub(crate) struct WindowEngine<S> {
    pub n: usize,
    pub k: usize,
    pub st: usize,
    pub f: usize,
    two_f: usize,
    pub slots: Vec<SlotState>,
    /// Slots still streaming, as of the last [`Self::advance`].
    pub active: Vec<usize>,
    /// Access scratch, shared with the kernel driving the engine.
    pub io: Chunked<S>,
    // Reusable scratch: lane lists, the fresh rows' offsets within the
    // staged sub-tile, and per-array value tiles.
    g_lanes: Lanes,
    sh_lanes: Lanes,
    fresh: Vec<(usize, usize)>,
    vals: Vec<S>,
    loaded: [Vec<S>; 4],
    tri: [Vec<S>; 12],
    out_vals: [Vec<S>; 4],
}

impl<S: GpuScalar> WindowEngine<S> {
    /// Carve shared memory for the given slots and initialise the
    /// dependency caches with identity rows.
    pub fn new(
        ctx: &mut BlockCtx<'_, S>,
        n: usize,
        k: u32,
        st: usize,
        slots_cfg: &[StreamSlot],
    ) -> Result<Self> {
        let k = k as usize;
        if k == 0 {
            return Err(SimError::InvalidLaunch(
                "window streaming with k = 0 is a no-op; skip the kernel".into(),
            ));
        }
        if st < (1usize << k) {
            return Err(SimError::InvalidLaunch(format!(
                "sub_tile {st} smaller than 2^k = {}",
                1usize << k
            )));
        }
        let f = (1usize << k) - 1;
        let two_f = 2 * f;
        let buf_len = two_f + st;

        ctx.phase("window_init");
        let mut slots = Vec::with_capacity(slots_cfg.len());
        for s in slots_cfg {
            if s.emit_lo >= s.emit_hi || s.emit_hi > n {
                return Err(SimError::InvalidLaunch(format!(
                    "bad emit range {}..{} for n = {n}",
                    s.emit_lo, s.emit_hi
                )));
            }
            let mut buf = [0usize; 4];
            let mut cache = [0usize; 4];
            for arr in 0..4 {
                buf[arr] = ctx.shared_alloc(buf_len)?;
                cache[arr] = ctx.shared_alloc(two_f)?;
            }
            let in_start = (s.emit_lo as isize - f as isize).max(0);
            slots.push(SlotState {
                system: s.system,
                emit_lo: s.emit_lo as isize,
                emit_hi: s.emit_hi as isize,
                in_end: ((s.emit_hi + f) as isize).min(n as isize),
                t0: in_start,
                buf,
                cache,
            });
        }

        // Identity rows for the positions preceding each stream.
        let mut lanes = Lanes::new();
        let mut vals: Vec<S> = Vec::new();
        for slot in &slots {
            for arr in 0..4 {
                let ident = if arr == 1 { S::ONE } else { S::ZERO };
                lanes.push(slot.cache[arr], 1, two_f);
                vals.resize(vals.len() + two_f, ident);
            }
        }
        let mut io = Chunked::default();
        io.store(ctx, None, &lanes, &vals)?;
        ctx.sync();

        Ok(Self {
            n,
            k,
            st,
            f,
            two_f,
            slots,
            active: Vec::new(),
            io,
            g_lanes: Lanes::new(),
            sh_lanes: lanes,
            fresh: Vec::new(),
            vals,
            loaded: Default::default(),
            tri: Default::default(),
            out_vals: Default::default(),
        })
    }

    /// Load the next sub-tile for every active slot and run the `k`
    /// lockstep PCR levels. Refreshes [`Self::active`] and returns
    /// whether any slot is still streaming (`false`: nothing was done).
    pub fn advance(&mut self, ctx: &mut BlockCtx<'_, S>, input: [BufId; 4]) -> Result<bool> {
        let f = self.f as isize;
        self.active.clear();
        self.active
            .extend((0..self.slots.len()).filter(|&g| !self.slots[g].done(f)));
        if self.active.is_empty() {
            return Ok(false);
        }
        let st = self.st;
        let two_f = self.two_f;
        let n = self.n;
        let active = &self.active;
        let slots = &self.slots;

        // ---- 1. coalesced global loads of the fresh sub-tile --------
        // Slot rank r's positions t0 + i, i ∈ [lo, hi), are the real
        // input rows; they land at lanes r·st + i of the staged tile.
        ctx.phase("window_load");
        self.g_lanes.clear();
        self.fresh.clear();
        for (rank, &g) in active.iter().enumerate() {
            let s = &slots[g];
            let lo = (-s.t0).clamp(0, st as isize);
            let hi = (s.in_end - s.t0).clamp(lo, st as isize);
            let (lo, hi) = (lo as usize, hi as usize);
            self.g_lanes
                .push(s.system * n + (s.t0 + lo as isize) as usize, 1, hi - lo);
            self.fresh.push((rank * st + lo, hi - lo));
        }
        for arr in 0..4 {
            self.io
                .load(ctx, Some(input[arr]), &self.g_lanes, &mut self.loaded[arr])?;
        }
        for arr in 0..4 {
            let ident = if arr == 1 { S::ONE } else { S::ZERO };
            self.vals.clear();
            self.vals.resize(active.len() * st, ident);
            let mut src = 0usize;
            for &(dst, len) in &self.fresh {
                self.vals[dst..dst + len].copy_from_slice(&self.loaded[arr][src..src + len]);
                src += len;
            }
            slot_runs(&mut self.sh_lanes, active, st, |g| {
                slots[g].buf[arr] + two_f
            });
            self.io.store(ctx, None, &self.sh_lanes, &self.vals)?;
        }
        ctx.sync();

        // ---- 2. k lockstep PCR levels -------------------------------
        for j in 1..=self.k {
            let s_half = 1usize << (j - 1);
            let two_s = 2 * s_half;
            let off_j = two_f - 2 * ((1usize << j) - 1);
            let cache_off = 2 * (s_half - 1);

            // (a) splice cache_{j-1} in front of the fresh region.
            ctx.phase("splice");
            for arr in 0..4 {
                slot_runs(&mut self.sh_lanes, active, two_s, |g| {
                    slots[g].cache[arr] + cache_off
                });
                self.io.load(ctx, None, &self.sh_lanes, &mut self.vals)?;
                slot_runs(&mut self.sh_lanes, active, two_s, |g| {
                    slots[g].buf[arr] + off_j
                });
                self.io.store(ctx, None, &self.sh_lanes, &self.vals)?;
            }
            ctx.sync();

            // (b) lockstep read of the three dependency rows.
            ctx.phase("pcr_level");
            for arr in 0..4 {
                for (d, dist) in [0usize, s_half, two_s].into_iter().enumerate() {
                    slot_runs(&mut self.sh_lanes, active, st, |g| {
                        slots[g].buf[arr] + off_j + dist
                    });
                    self.io
                        .load(ctx, None, &self.sh_lanes, &mut self.tri[arr * 3 + d])?;
                }
            }
            ctx.sync();

            // Combine (Eqs. 5–6) per lane.
            let lane_count = active.len() * st;
            let tri = &self.tri;
            for ov in self.out_vals.iter_mut() {
                ov.clear();
            }
            for lane in 0..lane_count {
                let row_at = |d: usize| Row {
                    a: tri[d][lane],
                    b: tri[3 + d][lane],
                    c: tri[6 + d][lane],
                    d: tri[9 + d][lane],
                };
                let r = reduce_row(row_at(0), row_at(1), row_at(2), lane)
                    .map_err(|e| SimError::KernelFault(e.to_string()))?;
                self.out_vals[0].push(r.a);
                self.out_vals[1].push(r.b);
                self.out_vals[2].push(r.c);
                self.out_vals[3].push(r.d);
            }
            ctx.flops(lane_count as u64 * PCR_FLOPS_PER_ROW);

            // (c) in-place write, then refresh cache_{j-1} from the
            // untouched span tail.
            for arr in 0..4 {
                slot_runs(&mut self.sh_lanes, active, st, |g| {
                    slots[g].buf[arr] + off_j
                });
                self.io
                    .store(ctx, None, &self.sh_lanes, &self.out_vals[arr])?;
                slot_runs(&mut self.sh_lanes, active, two_s, |g| {
                    slots[g].buf[arr] + off_j + st
                });
                self.io.load(ctx, None, &self.sh_lanes, &mut self.vals)?;
                slot_runs(&mut self.sh_lanes, active, two_s, |g| {
                    slots[g].cache[arr] + cache_off
                });
                self.io.store(ctx, None, &self.sh_lanes, &self.vals)?;
            }
            ctx.sync();
        }
        Ok(true)
    }

    /// Advance every active slot's stream position by one sub-tile.
    pub fn step(&mut self) {
        for &g in &self.active {
            self.slots[g].t0 += self.st as isize;
        }
    }
}
