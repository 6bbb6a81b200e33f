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
//! Every simulated access is one unit-stride lane run per active slot.
//! Global accesses go through [`GlobalIo`], one access per block-sized
//! run of lanes. Shared accesses are counted in groups, then the data
//! moves in place through [`BlockCtx::shared_slice_mut`]: a slot's four
//! arrays sit [`WindowEngine::arr_shifts`] apart, so one lane shape at
//! four (or, for the three dependency rows, twelve) shifts is one
//! [`SharedGroup`], and a level is six of them. The groups depend only
//! on the active slot set, so the engine builds them once per set and
//! an unchecked launch counts each once in closed form, then applies
//! that count on every later sub-tile ([`BlockCtx::sh_account_group`];
//! a checked launch expands and checks every access every time). The
//! splice and the cache refresh are `copy_within`, the combine (Eqs.
//! 5–6) rewrites the window in ascending lane order — lane `i` reads
//! only positions at or above its own, which no earlier lane has
//! rewritten — and the fresh sub-tile is staged straight into the
//! window.

use crate::buffers::GpuScalar;
use crate::consts::PCR_FLOPS_PER_ROW;
use gpu_sim::{BlockCtx, BufId, Lanes, Result, SharedGroup, SimError};
use tridiag_core::cr::{reduce_row, Row};

/// One PCR stream: a thread group reducing rows `[emit_lo, emit_hi)` of
/// the system whose row 0 is global element `base`.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct StreamSlot {
    /// Global index of the system's row 0: `system · n` in a batch of
    /// uniform `n`, the system's row offset in a ragged one.
    pub base: usize,
    /// First row this slot emits.
    pub emit_lo: usize,
    /// One past the last row this slot emits.
    pub emit_hi: usize,
}

impl StreamSlot {
    /// A slot covering one whole system of `n` rows starting at global
    /// element `base` (Fig. 11(a) mapping).
    pub fn whole(base: usize, n: usize) -> Self {
        StreamSlot {
            base,
            emit_lo: 0,
            emit_hi: n,
        }
    }
}

/// Per-slot streaming state (shared-memory bases + stream position).
pub(crate) struct SlotState {
    /// Global index of the system's row 0.
    pub base: usize,
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

    /// Offsets `lo..hi` within the current `st`-row sub-tile of the
    /// real input rows; the rest are identity rows.
    fn fresh(&self, st: usize) -> (usize, usize) {
        let lo = (-self.t0).clamp(0, st as isize);
        let hi = (self.in_end - self.t0).clamp(lo, st as isize);
        (lo as usize, hi as usize)
    }
}

/// Block-wide global accesses over lane lists of any length: a list is
/// issued in runs of at most `ctx.threads` lanes, one access per run,
/// as a block that loops over its data would.
pub(crate) struct GlobalIo<S> {
    run: Lanes,
    tmp: Vec<S>,
}

impl<S> Default for GlobalIo<S> {
    fn default() -> Self {
        Self {
            run: Lanes::new(),
            tmp: Vec::new(),
        }
    }
}

impl<S: GpuScalar> GlobalIo<S> {
    /// Load `lanes` of `buf` into `out`.
    pub fn load(
        &mut self,
        ctx: &mut BlockCtx<'_, S>,
        buf: BufId,
        lanes: &Lanes,
        out: &mut Vec<S>,
    ) -> Result<()> {
        out.clear();
        let n = lanes.len();
        if n <= ctx.threads {
            return if n == 0 {
                Ok(())
            } else {
                ctx.ld_affine(buf, lanes.pieces(), out)
            };
        }
        for lo in (0..n).step_by(ctx.threads) {
            lanes.slice_into(lo, (lo + ctx.threads).min(n), &mut self.run);
            ctx.ld_affine(buf, self.run.pieces(), &mut self.tmp)?;
            out.extend_from_slice(&self.tmp);
        }
        Ok(())
    }

    /// Store `vals` (one per lane) to `lanes` of `buf`.
    pub fn store(
        &mut self,
        ctx: &mut BlockCtx<'_, S>,
        buf: BufId,
        lanes: &Lanes,
        vals: &[S],
    ) -> Result<()> {
        let n = lanes.len();
        if vals.len() != n {
            return Err(SimError::LaneMismatch {
                indices: n,
                values: vals.len(),
            });
        }
        for lo in (0..n).step_by(ctx.threads) {
            let hi = (lo + ctx.threads).min(n);
            lanes.slice_into(lo, hi, &mut self.run);
            ctx.st_affine(buf, self.run.pieces(), &vals[lo..hi])?;
        }
        Ok(())
    }

    /// Copy shared lanes `sh` to lanes `g` of `buf`: the shared loads
    /// are counted as one group, their values read from shared memory
    /// directly, then stored.
    pub fn store_shared(
        &mut self,
        ctx: &mut BlockCtx<'_, S>,
        sh: &Lanes,
        buf: BufId,
        g: &Lanes,
    ) -> Result<()> {
        ctx.sh_account(sh, &[0], false)?;
        let mut vals = std::mem::take(&mut self.tmp);
        vals.clear();
        let shared = ctx.shared_slice();
        for p in sh.pieces() {
            vals.extend((0..p.lanes).map(|x| shared[p.elem(x) as usize]));
        }
        let r = self.store(ctx, buf, g, &vals);
        self.tmp = vals;
        r
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
    pub k: usize,
    pub st: usize,
    pub f: usize,
    two_f: usize,
    pub slots: Vec<SlotState>,
    /// Slots still streaming, as of the last [`Self::advance`].
    pub active: Vec<usize>,
    /// Distance of each array's window (and cache) from array 0's, the
    /// same in every slot: `slot.buf[arr] = slot.buf[0] + arr_shifts[arr]`.
    pub arr_shifts: [usize; 4],
    /// Global-access scratch, shared with the kernel driving the engine.
    pub io: GlobalIo<S>,
    /// The shared-access groups of a step, for the last active set.
    groups: StepGroups,
    // Reusable scratch: the fresh rows' global lanes and one array's
    // loaded values.
    g_lanes: Lanes,
    loaded: Vec<S>,
}

/// The shared-access groups of one sub-tile step for one active slot
/// set: each is counted in closed form on its first use and its count
/// applied again on every later step (see [`BlockCtx::sh_account_group`]).
#[derive(Default)]
struct StepGroups {
    /// The active slots the groups cover.
    active: Vec<usize>,
    /// The staged sub-tile's stores.
    stage: SharedGroup,
    /// Per level: the splice's cache loads and window stores, the three
    /// dependency-row loads, then the write-back, the span-tail loads
    /// and the cache stores.
    levels: Vec<[SharedGroup; 6]>,
}

/// Level `j`'s offsets: the neighbour distance `s = 2^(j−1)`, the
/// window offset `OFF_j` its rows are written at, and the offset of its
/// `2s` cached rows.
struct Level {
    s_half: usize,
    two_s: usize,
    off: usize,
    cache_off: usize,
}

impl Level {
    fn new(two_f: usize, j: usize) -> Self {
        let s_half = 1usize << (j - 1);
        Level {
            s_half,
            two_s: 2 * s_half,
            off: two_f - 2 * ((1usize << j) - 1),
            cache_off: 2 * (s_half - 1),
        }
    }
}

impl<S: GpuScalar> WindowEngine<S> {
    /// Carve shared memory for the given slots, each streaming a
    /// system of `n` rows from its own row base, and initialise the
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
        // Per array: the window, then its cache.
        let arr_step = buf_len + two_f;
        let arr_shifts = [0, arr_step, 2 * arr_step, 3 * arr_step];

        ctx.phase("window_init");
        let mut slots = Vec::with_capacity(slots_cfg.len());
        for s in slots_cfg {
            if s.emit_lo >= s.emit_hi || s.emit_hi > n {
                return Err(SimError::InvalidLaunch(format!(
                    "bad emit range {}..{} for n = {n}",
                    s.emit_lo, s.emit_hi
                )));
            }
            let base = ctx.shared_alloc(4 * arr_step)?;
            let buf = arr_shifts.map(|a| base + a);
            let in_start = (s.emit_lo as isize - f as isize).max(0);
            slots.push(SlotState {
                base: s.base,
                emit_lo: s.emit_lo as isize,
                emit_hi: s.emit_hi as isize,
                in_end: ((s.emit_hi + f) as isize).min(n as isize),
                t0: in_start,
                buf,
                cache: buf.map(|b| b + buf_len),
            });
        }

        // Identity rows for the positions preceding each stream.
        let mut lanes = Lanes::new();
        for slot in &slots {
            for cache in slot.cache {
                lanes.push(cache, 1, two_f);
            }
        }
        ctx.sh_account(&lanes, &[0], true)?;
        let sh = ctx.shared_slice_mut();
        for slot in &slots {
            for (arr, cache) in slot.cache.into_iter().enumerate() {
                sh[cache..cache + two_f].fill(identity(arr));
            }
        }
        ctx.sync();

        Ok(Self {
            k,
            st,
            f,
            two_f,
            slots,
            active: Vec::new(),
            arr_shifts,
            io: GlobalIo::default(),
            groups: StepGroups::default(),
            g_lanes: Lanes::new(),
            loaded: Vec::new(),
        })
    }

    /// The step's shared-access groups for the current active set.
    fn step_groups(&self) -> StepGroups {
        let (st, two_f, shifts) = (self.st, self.two_f, self.arr_shifts);
        let group = |count: usize, base: &dyn Fn(&SlotState) -> usize, at: &[usize], write| {
            let mut lanes = Lanes::new();
            slot_runs(&mut lanes, &self.active, count, |g| base(&self.slots[g]));
            SharedGroup::new(lanes, at, write)
        };
        let levels = (1..=self.k)
            .map(|j| {
                let l = Level::new(two_f, j);
                let rows: [usize; 12] =
                    std::array::from_fn(|i| shifts[i / 3] + [0, l.s_half, l.two_s][i % 3]);
                [
                    group(l.two_s, &|s| s.cache[0] + l.cache_off, &shifts, false),
                    group(l.two_s, &|s| s.buf[0] + l.off, &shifts, true),
                    group(st, &|s| s.buf[0] + l.off, &rows, false),
                    group(st, &|s| s.buf[0] + l.off, &shifts, true),
                    group(l.two_s, &|s| s.buf[0] + l.off + st, &shifts, false),
                    group(l.two_s, &|s| s.cache[0] + l.cache_off, &shifts, true),
                ]
            })
            .collect();
        StepGroups {
            active: self.active.clone(),
            stage: group(st, &|s| s.buf[0] + two_f, &shifts, true),
            levels,
        }
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
        if self.groups.active != self.active {
            self.groups = self.step_groups();
        }
        let (st, two_f) = (self.st, self.two_f);
        let step = self.arr_shifts[1];
        let Self {
            slots,
            active,
            io,
            groups,
            g_lanes,
            loaded,
            ..
        } = self;

        // ---- 1. coalesced global loads of the fresh sub-tile --------
        // Each slot's real input rows t0 + i, i ∈ [lo, hi), land at
        // buf[arr] + 2f + i; the rest of its sub-tile is identity rows.
        ctx.phase("window_load");
        g_lanes.clear();
        for &g in active.iter() {
            let s = &slots[g];
            let (lo, hi) = s.fresh(st);
            g_lanes.push(s.base + (s.t0 + lo as isize) as usize, 1, hi - lo);
        }
        for (arr, &buf) in input.iter().enumerate() {
            io.load(ctx, buf, g_lanes, loaded)?;
            let sh = ctx.shared_slice_mut();
            let mut src = loaded.as_slice();
            for &g in active.iter() {
                let s = &slots[g];
                let (lo, hi) = s.fresh(st);
                let tile = &mut sh[s.buf[arr] + two_f..][..st];
                let (rows, rest) = src.split_at(hi - lo);
                tile[..lo].fill(identity(arr));
                tile[lo..hi].copy_from_slice(rows);
                tile[hi..].fill(identity(arr));
                src = rest;
            }
        }
        ctx.sh_account_group(&mut groups.stage)?;
        ctx.sync();

        // ---- 2. k lockstep PCR levels -------------------------------
        for (j, [splice_ld, splice_st, rows_ld, back_st, tail_ld, cache_st]) in
            (1..).zip(groups.levels.iter_mut())
        {
            let l = Level::new(two_f, j);

            // (a) splice cache_{j-1} in front of the fresh region.
            ctx.phase("splice");
            ctx.sh_account_group(splice_ld)?;
            ctx.sh_account_group(splice_st)?;
            let sh = ctx.shared_slice_mut();
            for &g in active.iter() {
                let s = &slots[g];
                for arr in 0..4 {
                    let from = s.cache[arr] + l.cache_off;
                    sh.copy_within(from..from + l.two_s, s.buf[arr] + l.off);
                }
            }
            ctx.sync();

            // (b) lockstep read of the three dependency rows.
            ctx.phase("pcr_level");
            ctx.sh_account_group(rows_ld)?;
            ctx.sync();

            // Combine (Eqs. 5–6) per lane, in place and in lane order.
            let sh = ctx.shared_slice_mut();
            for (rank, &g) in active.iter().enumerate() {
                let w = &mut sh[slots[g].buf[0] + l.off..][..3 * step + st + l.two_s];
                reduce_in_place(w, step, st, l.s_half, rank * st)?;
            }
            ctx.flops((active.len() * st) as u64 * PCR_FLOPS_PER_ROW);

            // (c) in-place write, then refresh cache_{j-1} from the
            // untouched span tail.
            ctx.sh_account_group(back_st)?;
            ctx.sh_account_group(tail_ld)?;
            ctx.sh_account_group(cache_st)?;
            let sh = ctx.shared_slice_mut();
            for &g in active.iter() {
                let s = &slots[g];
                for arr in 0..4 {
                    let from = s.buf[arr] + l.off + st;
                    sh.copy_within(from..from + l.two_s, s.cache[arr] + l.cache_off);
                }
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

/// The identity row's coefficient in array `arr` (`a, b, c, d` = 0, 1,
/// 0, 0).
fn identity<S: GpuScalar>(arr: usize) -> S {
    if arr == 1 {
        S::ONE
    } else {
        S::ZERO
    }
}

/// One PCR level over one slot's window: `w` starts at the level's
/// offset in array 0, the arrays sit `step` apart, and row `i < st`
/// becomes the combination of rows `i`, `i + s_half` and `i + 2·s_half`.
/// Rows are rewritten in ascending order: row `i` reads only rows at or
/// above `i`, which no earlier row has rewritten. `lane0` numbers the
/// rows in a zero-pivot error.
fn reduce_in_place<S: GpuScalar>(
    w: &mut [S],
    step: usize,
    st: usize,
    s_half: usize,
    lane0: usize,
) -> Result<()> {
    let span = st + 2 * s_half;
    let (a, rest) = w.split_at_mut(step);
    let (b, rest) = rest.split_at_mut(step);
    let (c, d) = rest.split_at_mut(step);
    let (a, b, c, d) = (
        &mut a[..span],
        &mut b[..span],
        &mut c[..span],
        &mut d[..span],
    );
    for i in 0..st {
        let row = |x: usize| Row {
            a: a[x],
            b: b[x],
            c: c[x],
            d: d[x],
        };
        let r = reduce_row(row(i), row(i + s_half), row(i + 2 * s_half), lane0 + i)
            .map_err(|e| SimError::KernelFault(e.to_string()))?;
        a[i] = r.a;
        b[i] = r.b;
        c[i] = r.c;
        d[i] = r.d;
    }
    Ok(())
}
