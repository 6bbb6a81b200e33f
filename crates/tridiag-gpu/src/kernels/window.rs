//! The buffered-sliding-window streaming engine shared by the tiled PCR
//! kernel and the fused tiled-PCR + p-Thomas kernel.
//!
//! The engine runs two ways with identical results and counters.
//!
//! **Per step** (checked launches, and the reference the tests compare
//! against). [`WindowEngine::advance`] performs one sub-tile step for
//! every live stream slot: coalesced global loads of the fresh rows,
//! then `k` lockstep PCR levels through the in-place shifting window
//! (see the module docs of [`super::tiled_pcr`] for the buffer math).
//! After each `advance`, the fresh level-`k` rows for slot `g` sit in
//! shared memory at `slot(g).buf[arr] + i` for `i < sub_tile`, covering
//! positions `[t0 − f, t0 + st − f)`; the caller emits them however it
//! likes (store to global, or feed the Thomas recurrence directly in
//! the fused kernel), then calls [`WindowEngine::step`].
//!
//! Every simulated access is one unit-stride lane run per active slot.
//! Global loads are counted with [`BlockCtx::global_account`] and read
//! through [`BlockCtx::global_read`]. Shared accesses are counted in
//! groups, then the data moves in place through
//! [`BlockCtx::shared_slice_mut`]: a slot's four arrays sit
//! [`WindowEngine::arr_shifts`] apart, so one lane shape at four (or,
//! for the three dependency rows, twelve) shifts is one
//! [`SharedGroup`], and a level is six of them. The groups depend only
//! on the active slot set, so the engine builds them once per set and
//! an unchecked launch counts each once in closed form, then applies
//! that count on every later sub-tile ([`BlockCtx::sh_account_group`];
//! a checked launch expands and checks every access every time). The
//! splice and the cache refresh are `copy_within`, the combine (Eqs.
//! 5–6) is the bulk path's [`combine_rows`] into a scratch whose rows
//! are then copied back over the window (every lane reads before any
//! writes, as in the device's lockstep), and the fresh sub-tile is
//! staged straight into the window.
//!
//! **In bulk** (unchecked launches). The data and the counters part
//! ways. [`stream_bulk`] streams one slot's input in chunks of up to
//! [`CHUNK`] rows through a private window — per level, one sweep over
//! the chunk behind the previous chunk's trailing rows, which carry
//! over exactly as the dependency cache carries them — and hands the
//! level-`k` rows to the kernel chunk by chunk. A row's value does
//! not depend on the sub-tile it was reduced in, only on two boundary
//! rules both paths keep: a row before the stream's head is a pristine
//! identity row at every level (the cache's initial contents), and a
//! row past its end is an identity row at level 0 that the levels above
//! reduce like any other. So the rows are bit-identical to the per-step
//! engine's. [`WindowEngine::count_steps`] then counts the device's
//! `st`-row steps without moving data: a step's counters depend only on
//! its *shape* — the active slots, each one's fresh rows `lo..hi`, the
//! alignment class ([`BlockCtx::segment_class`]) of its global run and
//! the kernel's own per-slot terms — so each distinct shape is counted
//! once, at its first step, and applied for every step of that shape
//! ([`BlockCtx::count_repeated`]). Shapes are counted in the order they
//! first appear, which keeps the phases in the per-step order. The
//! kernels run their bulk data path first and count only once it
//! succeeded; a zero pivot, a buffer too short or read-only, or an
//! invalid configuration sends the block down the per-step path, which
//! reports the fault exactly.
//!
//! **Once per distinct block.** Every block of a launch that took the
//! bulk path wraps its whole count — the engine's set-up,
//! [`WindowEngine::count_steps`] and the kernel's own counts around it
//! — in one [`BlockCtx::count_once`], so the launch counts each
//! distinct block once and applies that count to the blocks that
//! repeat it. The key rule: a key holds everything the count reads
//! that is not a launch constant (`k`, sub-tile, threads, buffers,
//! spec). A block's counts depend on its slots' emit ranges, its row
//! count and the alignment classes of its global bases, never on the
//! bases themselves, so the fused kernels key on `(n, class)` and
//! tiled PCR on each slot's class and emit range. Blocks that fall
//! back to the per-step path never consult the memo.

use crate::buffers::GpuScalar;
use crate::consts::PCR_FLOPS_PER_ROW;
use gpu_sim::{BlockCtx, BufId, GlobalRead, GlobalWrite, Lanes, Result, SharedGroup, SimError};
#[cfg(doc)]
use tridiag_core::cr::reduce_row;
use tridiag_core::TridiagError;

/// Rows the bulk data path reduces at most per sweep of its private
/// window (at least `2^k`): each level's per-sweep work — the splice
/// and the cache refresh — is amortised over this many rows, and the
/// window's arrays stay small enough to be cache resident.
pub(crate) const CHUNK: usize = 512;

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

/// Per-slot streaming state: the stream's positions and where its
/// windows sit in the memory it is reduced in (shared memory, or the
/// bulk path's private window).
#[derive(Debug, Clone)]
pub(crate) struct SlotState {
    /// Global index of the system's row 0.
    pub base: usize,
    pub emit_lo: isize,
    pub emit_hi: isize,
    /// One past the last *real* input position (`min(n, emit_hi + f)`).
    pub in_end: isize,
    /// Current sub-tile start (input positions `[t0, t0 + st)`).
    pub t0: isize,
    /// Window base per array.
    pub buf: [usize; 4],
    /// Dependency-cache base per array.
    pub cache: [usize; 4],
}

impl SlotState {
    /// The stream of `cfg` over a system of `n` rows, its first array's
    /// window at `at` and each array's window `arr_step` past the last;
    /// a window is `buf_len` rows, then its cache.
    fn new(
        cfg: &StreamSlot,
        n: usize,
        f: usize,
        at: usize,
        buf_len: usize,
        arr_step: usize,
    ) -> Self {
        let buf = [0, 1, 2, 3].map(|arr| at + arr * arr_step);
        SlotState {
            base: cfg.base,
            emit_lo: cfg.emit_lo as isize,
            emit_hi: cfg.emit_hi as isize,
            in_end: (cfg.emit_hi + f).min(n) as isize,
            t0: cfg.emit_lo.saturating_sub(f) as isize,
            buf,
            cache: buf.map(|b| b + buf_len),
        }
    }

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

    /// Stage the current sub-tile into the windows in `mem`: input rows
    /// `t0 + lo .. t0 + hi` from `input`, identity rows around them.
    fn stage<S: GpuScalar>(
        &self,
        mem: &mut [S],
        st: usize,
        two_f: usize,
        input: &[GlobalRead<'_, S>; 4],
    ) {
        let (lo, hi) = self.fresh(st);
        let start = self.base + (self.t0 + lo as isize) as usize;
        for (arr, view) in input.iter().enumerate() {
            let tile = &mut mem[self.buf[arr] + two_f..][..st];
            tile[..lo].fill(identity(arr));
            if lo < hi {
                view.copy_to(start, &mut tile[lo..hi]);
            }
            tile[hi..].fill(identity(arr));
        }
    }

    /// Level `l`'s splice: the cached level-`(j−1)` rows in front of the
    /// fresh ones.
    fn splice<S: GpuScalar>(&self, mem: &mut [S], l: &Level) {
        for arr in 0..4 {
            let from = self.cache[arr] + l.cache_off;
            mem.copy_within(from..from + l.two_s, self.buf[arr] + l.off);
        }
    }

    /// Level `l`'s combine over the `st` rows of the window, in place:
    /// [`combine_rows`] into `rows`, then back. `lane0` numbers the rows
    /// in a zero-pivot error.
    fn combine<S: GpuScalar>(
        &self,
        mem: &mut [S],
        st: usize,
        l: &Level,
        lane0: usize,
        rows: &mut Vec<S>,
    ) -> Result<()> {
        rows.resize(4 * st, S::ZERO);
        let window: &[S] = mem;
        let src = self.buf.map(|b| &window[b + l.off..][..st + l.two_s]);
        combine_rows(src, l.s_half, split4(rows, st), lane0)?;
        for (&b, row) in self.buf.iter().zip(rows.chunks_exact(st)) {
            mem[b + l.off..][..st].copy_from_slice(row);
        }
        Ok(())
    }

    /// Level `l`'s cache refresh from the untouched span tail.
    fn refresh<S: GpuScalar>(&self, mem: &mut [S], st: usize, l: &Level) {
        for arr in 0..4 {
            let from = self.buf[arr] + l.off + st;
            mem.copy_within(from..from + l.two_s, self.cache[arr] + l.cache_off);
        }
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

/// Read views of `bufs` when each holds at least `len` elements.
pub(crate) fn read_views<'a, S: GpuScalar, const N: usize>(
    ctx: &BlockCtx<'a, S>,
    bufs: [BufId; N],
    len: usize,
) -> Option<[GlobalRead<'a, S>; N]> {
    let views: Option<Vec<_>> = bufs
        .iter()
        .map(|&b| ctx.global_read(b).ok().filter(|v| v.len() >= len))
        .collect();
    views?.try_into().ok()
}

/// Write views of `bufs` when each is writable and holds at least `len`
/// elements.
pub(crate) fn write_views<'a, S: GpuScalar, const N: usize>(
    ctx: &BlockCtx<'a, S>,
    bufs: [BufId; N],
    len: usize,
) -> Option<[GlobalWrite<'a, S>; N]> {
    let views: Option<Vec<_>> = bufs
        .iter()
        .map(|&b| ctx.global_write(b).ok().filter(|v| v.len() >= len))
        .collect();
    views?.try_into().ok()
}

/// Whether [`WindowEngine::new`] accepts the configuration (the bulk
/// data path runs only then; the per-step path reports the fault).
pub(crate) fn valid(n: usize, k: u32, st: usize, slots: &[StreamSlot]) -> bool {
    (1..usize::BITS - 1).contains(&k)
        && st >= 1usize << k
        && slots
            .iter()
            .all(|s| s.emit_lo < s.emit_hi && s.emit_hi <= n)
}

/// Where [`stream_bulk`] hands a chunk of level-`k` rows: its first
/// position and its `[a, b, c, d]` rows.
pub(crate) type RowSink<'s, S> = dyn FnMut(usize, [&[S]; 4]) -> Result<()> + 's;

/// What a kernel appends to a step's shape for one active slot
/// ([`WindowEngine::count_steps`]).
pub(crate) type StepKey<'s, S> = dyn FnMut(&BlockCtx<'_, S>, &SlotState, &mut Vec<isize>) + 's;

/// The level-`k` rows of `slot`'s emit range `[emit_lo, emit_hi)` over
/// a system of `n` rows, reduced in bulk from `input` (see module
/// docs): `sink(p, rows)` receives them in position order, chunk by
/// chunk, with `rows[arr][i]` the array-`arr` coefficient of row
/// `p + i`. `mem` is the private window, reused across calls. Requires
/// a configuration [`valid`] accepts and views that cover the stream's
/// input rows; fails on a zero pivot (without locating it) or with the
/// sink's error.
///
/// The window holds, per array, two buffers of `2^k + chunk` rows and
/// the `2f`-row dependency cache. Each level reads the rows of the one
/// below from one buffer — its `2s` cached rows in front of the chunk's
/// fresh ones, as the per-step engine's splice puts them — and writes
/// its own rows into the other, behind room for the next level's
/// cached rows; the buffers then swap. Out of place, a level is one
/// loop without a carried dependency.
pub(crate) fn stream_bulk<S: GpuScalar>(
    n: usize,
    k: u32,
    slot: &StreamSlot,
    input: &[GlobalRead<'_, S>; 4],
    mem: &mut Vec<S>,
    sink: &mut RowSink<'_, S>,
) -> Result<()> {
    let f = (1usize << k) - 1;
    let two_f = 2 * f;
    // The stream's level-0 rows in equal chunks of at most `CHUNK`.
    let rows = slot.emit_hi + f - slot.emit_lo.saturating_sub(f);
    let chunk = rows.div_ceil(rows.div_ceil(CHUNK)).max(f + 1);
    let width = f + 1 + chunk;
    let mut s = SlotState::new(slot, n, f, 0, 0, 0);
    mem.clear();
    mem.resize(8 * width + 4 * two_f, S::ZERO);
    let (buffers, cache) = mem.split_at_mut(8 * width);
    let (ping, pong) = buffers.split_at_mut(4 * width);
    let mut cache = split4(cache, two_f);
    for (arr, c) in cache.iter_mut().enumerate() {
        c.fill(identity(arr));
    }
    let (mut src, mut dst) = (split4(ping, width), split4(pong, width));
    let (fi, sti) = (f as isize, chunk as isize);
    while !s.done(fi) {
        // Level-0 rows of positions [t0, t0 + chunk) behind 2 cached rows.
        let (lo, hi) = s.fresh(chunk);
        let start = s.base + (s.t0 + lo as isize) as usize;
        for (arr, (buf, view)) in src.iter_mut().zip(input).enumerate() {
            let tile = &mut buf[2..2 + chunk];
            tile[..lo].fill(identity(arr));
            if lo < hi {
                view.copy_to(start, &mut tile[lo..hi]);
            }
            tile[hi..].fill(identity(arr));
        }
        for j in 1..=k as usize {
            let two_s = 1usize << j;
            let cached = two_s - 2;
            let span = chunk + two_s;
            for (buf, c) in src.iter_mut().zip(cache.iter_mut()) {
                buf[..two_s].copy_from_slice(&c[cached..cached + two_s]);
                c[cached..cached + two_s].copy_from_slice(&buf[chunk..span]);
            }
            let at = if j == k as usize { 0 } else { 2 * two_s };
            combine_rows(
                src.each_ref().map(|b| &b[..span]),
                two_s / 2,
                dst.each_mut().map(|b| &mut b[at..at + chunk]),
                0,
            )?;
            std::mem::swap(&mut src, &mut dst);
        }
        // Level-k rows of positions [t0 − f, t0 − f + chunk).
        let first = s.t0 - fi;
        let lo = (s.emit_lo - first).clamp(0, sti) as usize;
        let hi = (s.emit_hi - first).clamp(lo as isize, sti) as usize;
        if lo < hi {
            sink(
                (first + lo as isize) as usize,
                src.each_ref().map(|b| &b[lo..hi]),
            )?;
        }
        s.t0 += sti;
    }
    Ok(())
}

/// `mem` cut into four consecutive runs of `len` elements.
fn split4<S>(mem: &mut [S], len: usize) -> [&mut [S]; 4] {
    let (a, rest) = mem.split_at_mut(len);
    let (b, rest) = rest.split_at_mut(len);
    let (c, d) = rest.split_at_mut(len);
    [a, b, c, &mut d[..len]]
}

/// One PCR level out of place (Eqs. 5–6, [`reduce_row`]'s arithmetic):
/// row `i` of `dst` combines rows `i`, `i + s` and `i + 2s` of `src`,
/// whose arrays hold `dst`'s length plus `2s` rows. A zero pivot — a
/// zero main diagonal in `src` — fails as `reduce_row` fails at the
/// first row it reaches, numbered from `lane0`.
// Not inlined: one copy per scalar type serves both paths.
#[inline(never)]
fn combine_rows<S: GpuScalar>(
    src: [&[S]; 4],
    s: usize,
    dst: [&mut [S]; 4],
    lane0: usize,
) -> Result<()> {
    let len = dst[0].len();
    let [a, b, c, d] = src;
    if b.contains(&S::ZERO) {
        let row = (0..len).find(|&i| b[i] == S::ZERO || b[i + 2 * s] == S::ZERO);
        let e = TridiagError::ZeroPivot {
            row: lane0 + row.unwrap_or(len),
        };
        return Err(SimError::KernelFault(e.to_string()));
    }
    let (pa, ca, na) = (&a[..len], &a[s..s + len], &a[2 * s..2 * s + len]);
    let (pb, cb, nb) = (&b[..len], &b[s..s + len], &b[2 * s..2 * s + len]);
    let (pc, cc, nc) = (&c[..len], &c[s..s + len], &c[2 * s..2 * s + len]);
    let (pd, cd, nd) = (&d[..len], &d[s..s + len], &d[2 * s..2 * s + len]);
    let [da, db, dc, dd] = dst;
    let (da, db, dc, dd) = (
        &mut da[..len],
        &mut db[..len],
        &mut dc[..len],
        &mut dd[..len],
    );
    for i in 0..len {
        let k1 = ca[i] / pb[i];
        let k2 = cc[i] / nb[i];
        da[i] = -(pa[i] * k1);
        db[i] = cb[i] - pc[i] * k1 - na[i] * k2;
        dc[i] = -(nc[i] * k2);
        dd[i] = cd[i] - pd[i] * k1 - nd[i] * k2;
    }
    Ok(())
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
    /// The shared-access groups of a step, for the last active set.
    groups: StepGroups,
    /// Reusable scratch: the fresh rows' global lanes, and one
    /// level's combined rows.
    g_lanes: Lanes,
    rows: Vec<S>,
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

/// One shape of step: the slots' positions at its first step, its key
/// and the number of steps that have it.
struct Shape {
    t0: Vec<isize>,
    key: Vec<isize>,
    times: u64,
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
            let at = ctx.shared_alloc(4 * arr_step)?;
            slots.push(SlotState::new(s, n, f, at, buf_len, arr_step));
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
            groups: StepGroups::default(),
            g_lanes: Lanes::new(),
            rows: Vec::new(),
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

    /// Count the next sub-tile's loads of `input` and its `k` lockstep
    /// PCR levels for every active slot, and, when `moving`, load it and
    /// run the levels in shared memory. Refreshes [`Self::active`] and
    /// returns whether any slot is still streaming (`false`: nothing
    /// was done).
    pub fn advance(
        &mut self,
        ctx: &mut BlockCtx<'_, S>,
        input: [BufId; 4],
        moving: bool,
    ) -> Result<bool> {
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
        let Self {
            slots,
            active,
            groups,
            g_lanes,
            rows,
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
        for buf in input {
            ctx.global_account(buf, g_lanes, &[0], false)?;
        }
        if moving {
            let [a, b, c, d] = input;
            let views = [
                ctx.global_read(a)?,
                ctx.global_read(b)?,
                ctx.global_read(c)?,
                ctx.global_read(d)?,
            ];
            let sh = ctx.shared_slice_mut();
            for &g in active.iter() {
                slots[g].stage(sh, st, two_f, &views);
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
            if moving {
                let sh = ctx.shared_slice_mut();
                for &g in active.iter() {
                    slots[g].splice(sh, &l);
                }
            }
            ctx.sync();

            // (b) lockstep read of the three dependency rows.
            ctx.phase("pcr_level");
            ctx.sh_account_group(rows_ld)?;
            ctx.sync();

            // Combine (Eqs. 5–6) per lane, in place and in lane order.
            if moving {
                let sh = ctx.shared_slice_mut();
                for (rank, &g) in active.iter().enumerate() {
                    slots[g].combine(sh, st, &l, rank * st, rows)?;
                }
            }
            ctx.flops((active.len() * st) as u64 * PCR_FLOPS_PER_ROW);

            // (c) in-place write, then refresh cache_{j-1} from the
            // untouched span tail.
            ctx.sh_account_group(back_st)?;
            ctx.sh_account_group(tail_ld)?;
            ctx.sh_account_group(cache_st)?;
            if moving {
                let sh = ctx.shared_slice_mut();
                for &g in active.iter() {
                    slots[g].refresh(sh, st, &l);
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

    /// Count every remaining step of the stream without moving data, as
    /// the per-step loop `advance(ctx, input, true)`, `count(ctx, self)`,
    /// [`Self::step`] would count it, and leave the slots at the end of
    /// their streams. A step's shape is its active slots and, per
    /// active slot, its fresh rows, the alignment class of their global
    /// run and what `key` appends for the kernel's own per-slot counts;
    /// each distinct shape is counted once and applied to every step of
    /// that shape (module docs).
    pub fn count_steps(
        &mut self,
        ctx: &mut BlockCtx<'_, S>,
        input: [BufId; 4],
        key: &mut StepKey<'_, S>,
        count: &mut dyn FnMut(&mut BlockCtx<'_, S>, &Self) -> Result<()>,
    ) -> Result<()> {
        let (f, st) = (self.f as isize, self.st);
        let mut probe = self.slots.clone();
        let mut shapes: Vec<Shape> = Vec::new();
        let mut step_key = Vec::new();
        let mut last = 0;
        loop {
            step_key.clear();
            for (g, s) in probe.iter().enumerate().filter(|(_, s)| !s.done(f)) {
                let (lo, hi) = s.fresh(st);
                let class = ctx.segment_class(s.base + (s.t0 + lo as isize) as usize);
                step_key.extend([g, lo, hi, class].map(|v| v as isize));
                key(ctx, s, &mut step_key);
            }
            if step_key.is_empty() {
                break;
            }
            if shapes.get(last).is_none_or(|sh| sh.key != step_key) {
                match shapes.iter().position(|sh| sh.key == step_key) {
                    Some(i) => last = i,
                    None => {
                        last = shapes.len();
                        shapes.push(Shape {
                            t0: probe.iter().map(|s| s.t0).collect(),
                            key: step_key.clone(),
                            times: 0,
                        });
                    }
                }
            }
            shapes[last].times += 1;
            for s in probe.iter_mut().filter(|s| !s.done(f)) {
                s.t0 += st as isize;
            }
        }
        for shape in &shapes {
            for (s, &t0) in self.slots.iter_mut().zip(&shape.t0) {
                s.t0 = t0;
            }
            ctx.count_repeated(shape.times, &mut |ctx| {
                if self.advance(ctx, input, false)? {
                    count(ctx, self)?;
                }
                Ok(())
            })?;
        }
        for (s, end) in self.slots.iter_mut().zip(&probe) {
            s.t0 = end.t0;
        }
        Ok(())
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

#[cfg(test)]
mod tests {
    //! The bulk path (unchecked launches) against the per-step engine
    //! (sanitized launches) over the tiled-PCR kernel's three Fig. 11
    //! mappings and the fused and ragged-fused kernels: the same
    //! `KernelStats` (totals, phases in order, per-block vectors), every
    //! output buffer bit for bit, or the same error.

    use super::super::fused::{FusedKernel, RaggedFusedKernel};
    use super::super::tiled_pcr::TiledPcrKernel;
    use super::*;
    use crate::consts::{REGS_FUSED, REGS_TILED_PCR};
    use gpu_sim::LaunchConfig;
    use gpu_sim::{launch_with, DeviceSpec, ExecConfig, GpuMemory, KernelStats};
    use tridiag_core::generators::random_batch;

    /// The bit pattern of an element, for exact comparison (signed
    /// zeros and NaN payloads included).
    trait Bits: GpuScalar {
        fn bits(self) -> u64;
    }
    impl Bits for f32 {
        fn bits(self) -> u64 {
            self.to_bits().into()
        }
    }
    impl Bits for f64 {
        fn bits(self) -> u64 {
            self.to_bits()
        }
    }

    /// A launch shape over a flat set of four coefficient arrays.
    #[derive(Debug, Clone)]
    enum Launch {
        /// Tiled PCR with these per-block slots and threads per block.
        Tiled(Vec<Vec<StreamSlot>>, u32),
        /// The fused kernel over `m` systems of `n` rows.
        Fused(usize),
        /// The ragged fused kernel over systems at these offsets.
        Ragged(Vec<usize>),
    }

    type Outcome = std::result::Result<(KernelStats, Vec<Vec<u64>>), String>;

    /// Run `launch` over `arrays` (systems of `n` rows, sub-tile
    /// `c·2^k`) under `exec`: its counters and every output buffer, or
    /// its error message.
    fn run<S: Bits>(
        arrays: &[Vec<S>; 4],
        n: usize,
        k: u32,
        c: usize,
        launch: &Launch,
        exec: ExecConfig,
    ) -> Outcome {
        let len = arrays[0].len();
        let mut mem = GpuMemory::new();
        let input = arrays.each_ref().map(|a| mem.borrow(a));
        let spec = DeviceSpec::gtx480();
        let sub_tile = c << k;
        let (res, outputs) = match launch {
            Launch::Tiled(assignments, threads) => {
                let output = [(); 4].map(|()| mem.alloc(len));
                let kernel = TiledPcrKernel {
                    input,
                    output,
                    n,
                    k,
                    sub_tile,
                    assignments: assignments.clone(),
                };
                let cfg = LaunchConfig::new("tiled_pcr", assignments.len(), *threads)
                    .with_regs(REGS_TILED_PCR);
                (
                    launch_with(&spec, &cfg, &exec, &kernel, &mut mem),
                    output.to_vec(),
                )
            }
            Launch::Fused(m) => {
                let out = [(); 3].map(|()| mem.alloc(len));
                let kernel = fused(input, out, n, k, sub_tile, *m);
                let cfg = LaunchConfig::new("fused", *m, 1 << k).with_regs(REGS_FUSED);
                (
                    launch_with(&spec, &cfg, &exec, &kernel, &mut mem),
                    out.to_vec(),
                )
            }
            Launch::Ragged(offsets) => {
                let out = [(); 3].map(|()| mem.alloc(len));
                let m = offsets.len() - 1;
                let longest = offsets.windows(2).map(|w| w[1] - w[0]).max().unwrap_or(0);
                let kernel = RaggedFusedKernel {
                    fused: fused(input, out, longest, k, sub_tile, m),
                    offsets: offsets.clone(),
                };
                let cfg = LaunchConfig::new("fused", m, 1 << k).with_regs(REGS_FUSED);
                (
                    launch_with(&spec, &cfg, &exec, &kernel, &mut mem),
                    out.to_vec(),
                )
            }
        };
        let res = res.map_err(|e| e.to_string())?;
        assert!(res.violations.is_empty(), "{:?}", res.violations);
        let data = outputs
            .iter()
            .map(|&b| mem.read(b).unwrap().into_iter().map(Bits::bits).collect())
            .collect();
        Ok((res.stats, data))
    }

    fn fused(
        input: [BufId; 4],
        [c_prime, d_prime, x]: [BufId; 3],
        n: usize,
        k: u32,
        sub_tile: usize,
        m: usize,
    ) -> FusedKernel {
        FusedKernel {
            input,
            c_prime,
            d_prime,
            x,
            n,
            k,
            sub_tile,
            m,
        }
    }

    /// Unchecked against sanitized: equal outcomes; returns the outcome.
    fn agree<S: Bits>(
        arrays: &[Vec<S>; 4],
        n: usize,
        k: u32,
        c: usize,
        launch: &Launch,
    ) -> Outcome {
        let bulk = run(arrays, n, k, c, launch, ExecConfig::default());
        let per_step = run(arrays, n, k, c, launch, ExecConfig::sanitized());
        assert_eq!(bulk, per_step, "k {k} c {c} n {n} {launch:?}");
        bulk
    }

    /// The five launch shapes at system length `n`, with the flat length
    /// each needs.
    fn launches(n: usize, k: u32) -> Vec<(Launch, usize)> {
        let threads = 1u32 << k;
        vec![
            (
                Launch::Tiled(TiledPcrKernel::assign_block_per_system(2, n), threads),
                2 * n,
            ),
            (
                Launch::Tiled(
                    TiledPcrKernel::assign_block_group_per_system(2, n, 3),
                    threads,
                ),
                2 * n,
            ),
            (
                Launch::Tiled(
                    TiledPcrKernel::assign_multi_system_per_block(3, n, 2),
                    2 * threads,
                ),
                3 * n,
            ),
            (Launch::Fused(2), 2 * n),
            (
                Launch::Ragged(vec![0, n, n + n / 2 + 1, 2 * n + n / 2 + 1 + (1 << k)]),
                2 * n + n / 2 + 1 + (1 << k),
            ),
        ]
    }

    /// Random dominant coefficients for `len` rows.
    fn coefficients<S: Bits>(len: usize, seed: u64) -> [Vec<S>; 4] {
        let batch = random_batch::<S>(1, len, seed);
        let (a, b, c, d) = batch.arrays();
        [a.to_vec(), b.to_vec(), c.to_vec(), d.to_vec()]
    }

    fn window_bulk_matches_per_step<S: Bits>() {
        for k in 1..=9u32 {
            let p = 1usize << k;
            let mut ns = vec![1, 2, p - 1, p + 1, 1000, 4100];
            ns.dedup();
            for c in [1, 2] {
                for &n in &ns {
                    for (launch, len) in launches(n, k) {
                        let arrays = coefficients::<S>(len, (len + k as usize) as u64);
                        agree(&arrays, n, k, c, &launch).ok();
                    }
                }
            }
            // A zero main diagonal in the input: the PCR stage's pivot
            // (where the launch fits in shared memory at all).
            let n = 1000;
            for (launch, len) in launches(n, k) {
                let mut arrays = coefficients::<S>(len, 5);
                let fits = agree(&arrays, n, k, 1, &launch).is_ok();
                arrays[1][n + 300] = S::ZERO;
                let err = agree(&arrays, n, k, 1, &launch).unwrap_err();
                assert!(!fits || err.contains("zero pivot"), "{err}");
            }
        }
        // Zero pivots in the Thomas fold (k = 1): a coupled pair of unit
        // rows between diagonal ones reduces to two rows whose main
        // diagonal is exactly 1 − 1·1/1 = 0, at a subsystem's head
        // (rows 0, 1) and further down (rows 40, 41).
        let n = 100;
        for q in [0, 40] {
            for (launch, len) in launches(n, 1) {
                let mut arrays: [Vec<S>; 4] =
                    [S::ZERO, S::ONE, S::ZERO, S::ONE].map(|v| vec![v; len]);
                for base in [0, n] {
                    arrays[2][base + q] = S::ONE;
                    arrays[0][base + q + 1] = S::ONE;
                }
                for c in [1, 2] {
                    let outcome = agree(&arrays, n, 1, c, &launch);
                    if !matches!(launch, Launch::Tiled(..)) {
                        let err = outcome.unwrap_err();
                        let at = if q == 0 {
                            "head".to_string()
                        } else {
                            format!("row {q}")
                        };
                        assert!(err.ends_with(&format!("subsystem 0 {at}")), "{err}");
                    }
                }
            }
        }
    }

    /// Many-block launches whose blocks repeat their count's key
    /// ([`BlockCtx::count_once`]): uniform fused batches whose bases
    /// cycle through every alignment class (`n` odd), alternate between
    /// a few (`n ≡ 8 mod 16`) or share one (`n` a multiple of 32);
    /// ragged fused batches that repeat some `n` and not others; tiled
    /// PCR over block groups whose interior blocks repeat from system
    /// to system, and over several systems per block. Two `k` and two
    /// sub-tiles run the same keys in different launches. Unchecked
    /// (each distinct block counted once) and sanitized (every block
    /// counted) launches must agree in their whole `KernelStats` and
    /// every output.
    fn window_count_memo_matches_per_step<S: Bits>() {
        let lens = [40usize, 97, 40, 136, 33, 97, 160, 40, 97, 1];
        let mut offsets = vec![0];
        for n in lens.iter().cycle().take(3 * lens.len()) {
            offsets.push(offsets.last().unwrap() + n);
        }
        for k in [2u32, 4] {
            let threads = 1u32 << k;
            for c in [1, 2] {
                for n in [97usize, 136, 160] {
                    let mut shapes = vec![
                        (Launch::Fused(17), 17 * n),
                        (Launch::Fused(64), 64 * n),
                        (
                            Launch::Tiled(
                                TiledPcrKernel::assign_block_group_per_system(6, n, 4),
                                threads,
                            ),
                            6 * n,
                        ),
                        (
                            Launch::Tiled(
                                TiledPcrKernel::assign_multi_system_per_block(12, n, 3),
                                3 * threads,
                            ),
                            12 * n,
                        ),
                    ];
                    if n == 160 {
                        let len = *offsets.last().unwrap();
                        shapes.push((Launch::Ragged(offsets.clone()), len));
                    }
                    for (launch, len) in shapes {
                        let arrays = coefficients::<S>(len, (len + n) as u64);
                        agree(&arrays, n, k, c, &launch).unwrap();
                    }
                }
            }
        }
    }

    #[test]
    #[cfg_attr(debug_assertions, ignore = "slow simulation; run with --release")]
    fn window_count_memo_matches_per_step_in_f64() {
        window_count_memo_matches_per_step::<f64>();
    }

    #[test]
    #[cfg_attr(debug_assertions, ignore = "slow simulation; run with --release")]
    fn window_count_memo_matches_per_step_in_f32() {
        window_count_memo_matches_per_step::<f32>();
    }

    #[test]
    #[cfg_attr(debug_assertions, ignore = "slow simulation; run with --release")]
    fn window_bulk_matches_per_step_in_f64() {
        window_bulk_matches_per_step::<f64>();
    }

    #[test]
    #[cfg_attr(debug_assertions, ignore = "slow simulation; run with --release")]
    fn window_bulk_matches_per_step_in_f32() {
        window_bulk_matches_per_step::<f32>();
    }
}
