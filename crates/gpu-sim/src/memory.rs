//! Memory access analysis: global coalescing, shared-memory bank
//! conflicts, and the word-granular initialization shadow the
//! sanitizer's initcheck uses.
//!
//! Fermi-class GPUs service a warp's global access as one transaction
//! per distinct 128-byte segment the warp's lanes touch. Adjacent lanes
//! touching adjacent elements therefore cost `warp_size × elem /128`
//! transactions (fully coalesced), while lanes striding by a large pitch
//! cost one transaction *each* — the difference between the paper's
//! interleaved and contiguous p-Thomas layouts (Section III-B).
//!
//! Each counter exists in two forms. The dense ones
//! ([`warp_transactions`], [`shared_conflict_cycles`]) take one warp's
//! lane indices and are the oracle. The closed forms
//! ([`access_transactions`], [`access_conflict_cycles`]) take the same
//! lanes as [`AffinePiece`]s and count a warp held by one piece in O(1);
//! the executor's affine entry points call them. [`uncoalesced`] and
//! [`access_uncoalesced`] are the same pair for the uncoalesced-access
//! count.

use crate::lanes::{compress, AffinePiece};
use std::sync::atomic::AtomicU64;
use std::sync::atomic::Ordering::Relaxed;

/// Word-granular initialization shadow for one buffer: which elements a
/// store (or host upload) has ever written. `Full` is the common case —
/// buffers uploaded from host data — and costs nothing; `Partial` is a
/// bitmap, one bit per element, for device-side allocations. Its words
/// are atomic so blocks running on several host threads can mark
/// elements through a shared reference; the marks publish no other
/// data, so they are `Relaxed`.
#[derive(Debug)]
pub enum InitMask {
    /// Every word is initialized (host-uploaded buffers).
    Full,
    /// Bitmap of initialized words (`bit i` = element `i` written).
    Partial(Vec<AtomicU64>),
}

impl Clone for InitMask {
    fn clone(&self) -> Self {
        match self {
            InitMask::Full => InitMask::Full,
            InitMask::Partial(bits) => InitMask::Partial(
                bits.iter()
                    .map(|w| AtomicU64::new(w.load(Relaxed)))
                    .collect(),
            ),
        }
    }
}

impl PartialEq for InitMask {
    fn eq(&self, other: &Self) -> bool {
        match (self, other) {
            (InitMask::Full, InitMask::Full) => true,
            (InitMask::Partial(a), InitMask::Partial(b)) => {
                a.len() == b.len()
                    && a.iter()
                        .zip(b)
                        .all(|(x, y)| x.load(Relaxed) == y.load(Relaxed))
            }
            _ => false,
        }
    }
}

impl Eq for InitMask {}

impl InitMask {
    /// A mask with every word uninitialized (fresh `cudaMalloc`).
    pub fn uninit(len: usize) -> Self {
        InitMask::Partial((0..len.div_ceil(64)).map(|_| AtomicU64::new(0)).collect())
    }

    /// Is element `i` initialized?
    #[inline]
    pub fn is_set(&self, i: usize) -> bool {
        match self {
            InitMask::Full => true,
            InitMask::Partial(bits) => bits[i / 64].load(Relaxed) & (1u64 << (i % 64)) != 0,
        }
    }

    /// Mark element `i` initialized.
    #[inline]
    pub fn set(&self, i: usize) {
        if let InitMask::Partial(bits) = self {
            bits[i / 64].fetch_or(1u64 << (i % 64), Relaxed);
        }
    }

    /// Mark elements `lo..hi` initialized (a unit-stride store).
    pub fn set_range(&self, lo: usize, hi: usize) {
        let InitMask::Partial(bits) = self else {
            return;
        };
        let mut i = lo;
        while i < hi {
            let bit = i % 64;
            let n = (64 - bit).min(hi - i);
            let run = if n == 64 {
                u64::MAX
            } else {
                ((1u64 << n) - 1) << bit
            };
            bits[i / 64].fetch_or(run, Relaxed);
            i += n;
        }
    }
}

/// Count the transactions a single warp-wide access costs: the number
/// of distinct `segment_bytes`-aligned segments covered by the given
/// element indices (`elem_bytes` each), one per active lane.
pub fn warp_transactions(
    lane_elem_indices: &[usize],
    elem_bytes: usize,
    segment_bytes: usize,
) -> u64 {
    debug_assert!(segment_bytes.is_power_of_two());
    debug_assert!(
        lane_elem_indices.len() <= 64,
        "a warp access has at most warp_size (<= 64) lanes"
    );
    // Warps touch a handful of segments; a tiny sorted set beats hashing.
    let mut segments: [u64; 64] = [u64::MAX; 64];
    let mut count = 0usize;
    for &idx in lane_elem_indices {
        let seg = (idx * elem_bytes / segment_bytes) as u64;
        if !segments[..count].contains(&seg) {
            segments[count] = seg;
            count += 1;
        }
    }
    count as u64
}

/// Shared-memory bank-conflict analysis: returns the number of
/// *processing cycles* the access takes (1 = conflict-free; `d` = d-way
/// conflict serialised into `d` replays). Lanes reading the **same**
/// address broadcast and do not conflict.
pub fn shared_conflict_cycles(lane_elem_indices: &[usize], elem_bytes: usize, banks: u32) -> u64 {
    debug_assert!(banks.is_power_of_two());
    debug_assert!(
        lane_elem_indices.len() <= 64,
        "a warp access has at most warp_size (<= 64) lanes"
    );
    // bank of an element = (byte_addr / 4) % banks; a conflict is two
    // lanes on the same bank with *different* words. A warp has at most
    // 64 lanes, so fixed-size scratch + linear scans beat any hashing.
    // The executor calls this per warp only for index-slice accesses and
    // for warps that span several affine pieces.
    let mut seen_words: [u64; 64] = [0; 64];
    let mut seen_count = 0usize;
    let mut per_bank: [u8; 64] = [0; 64];
    let mask = (banks - 1) as u64;
    for &idx in lane_elem_indices {
        let word = (idx * elem_bytes / 4) as u64;
        if !seen_words[..seen_count].contains(&word) {
            seen_words[seen_count] = word;
            seen_count += 1;
            per_bank[(word & mask) as usize] += 1;
        }
    }
    per_bank.iter().map(|&c| c as u64).max().unwrap_or(0).max(1)
}

/// Most lanes one warp access may have (the dense counters' scratch).
const MAX_WARP: usize = 64;

/// Call `f(covering, w0, w1)` for each warp `[w0, w1)` of a
/// `lanes`-lane access, where `covering` is the run of `pieces` that
/// overlaps the warp. `pieces` are in lane order.
fn for_each_warp(
    pieces: &[AffinePiece],
    lanes: usize,
    warp_size: usize,
    mut f: impl FnMut(&[AffinePiece], usize, usize),
) {
    let mut first = 0usize;
    let mut w0 = 0usize;
    while w0 < lanes {
        let w1 = (w0 + warp_size).min(lanes);
        while first < pieces.len() && pieces[first].lane0 + pieces[first].lanes <= w0 {
            first += 1;
        }
        let mut end = first;
        while end < pieces.len() && pieces[end].lane0 < w1 {
            end += 1;
        }
        f(&pieces[first..end], w0, w1);
        w0 = w1;
    }
}

/// The lanes of `p` inside the warp `[w0, w1)`, as relative lane
/// offsets `x0..x1` into `p`.
fn clip(p: &AffinePiece, w0: usize, w1: usize) -> (usize, usize) {
    let lo = p.lane0.max(w0);
    let hi = (p.lane0 + p.lanes).min(w1).max(lo);
    (lo - p.lane0, hi - p.lane0)
}

/// Expand the lanes of `pieces` inside `[w0, w1)` into `out`; returns
/// the lane count.
fn enumerate_warp(
    pieces: &[AffinePiece],
    w0: usize,
    w1: usize,
    out: &mut [usize; MAX_WARP],
) -> usize {
    let mut n = 0usize;
    for p in pieces {
        let (x0, x1) = clip(p, w0, w1);
        for x in x0..x1 {
            out[n] = p.elem(x) as usize;
            n += 1;
        }
    }
    n
}

/// Segments the lanes `x0..x1` (non-empty) of one piece touch. A
/// broadcast touches one segment; a step of at most one segment touches
/// the whole interval between the first and last lane's segments; a
/// longer step touches a new segment on every lane. `segment_bytes` is
/// a power of two (see [`crate::spec::DeviceSpec::validate`]), so the
/// segment of a byte address is a shift.
fn piece_segments(
    p: &AffinePiece,
    x0: usize,
    x1: usize,
    elem_bytes: usize,
    segment_bytes: usize,
) -> u64 {
    let e = elem_bytes as i64;
    if p.stride == 0 {
        1
    } else if p.stride.abs() * e <= segment_bytes as i64 {
        let shift = segment_bytes.trailing_zeros();
        let (a, b) = (p.elem(x0), p.elem(x1 - 1));
        (((a.max(b) * e) >> shift) - ((a.min(b) * e) >> shift) + 1) as u64
    } else {
        (x1 - x0) as u64
    }
}

/// Bank cycles `len ≥ 1` lanes of one piece take, or `None` for
/// elements narrower than a bank word. Its lanes touch distinct words
/// at word stride `W = s·elem/4`, which repeat a bank every
/// `period = banks / gcd(|W|, banks)` lanes, so they take
/// `ceil(len / period)` cycles (one for a broadcast). `banks` is a
/// power of two, so the gcd is `2^min(tz(W), log2 banks)` and both
/// divisions are shifts.
fn piece_cycles(p: &AffinePiece, len: usize, elem_bytes: usize, banks: u32) -> Option<u64> {
    if !elem_bytes.is_multiple_of(4) {
        return None;
    }
    if p.stride == 0 {
        return Some(1);
    }
    let w = p.stride.unsigned_abs() * (elem_bytes as u64 / 4);
    let period_log2 = banks.trailing_zeros() - w.trailing_zeros().min(banks.trailing_zeros());
    Some((len as u64 + (1u64 << period_log2) - 1) >> period_log2)
}

/// [`warp_transactions`] of the warp `[w0, w1)` of an access given as
/// affine pieces (every element index non-negative): one covering
/// piece in closed form ([`piece_segments`]), several enumerated.
fn warp_transactions_affine(
    pieces: &[AffinePiece],
    w0: usize,
    w1: usize,
    elem_bytes: usize,
    segment_bytes: usize,
) -> u64 {
    debug_assert!(w1 - w0 <= MAX_WARP, "a warp access has at most 64 lanes");
    if let [p] = pieces {
        let (x0, x1) = clip(p, w0, w1);
        return if x0 == x1 {
            0
        } else {
            piece_segments(p, x0, x1, elem_bytes, segment_bytes)
        };
    }
    let mut idx = [0usize; MAX_WARP];
    let n = enumerate_warp(pieces, w0, w1, &mut idx);
    warp_transactions(&idx[..n], elem_bytes, segment_bytes)
}

/// [`shared_conflict_cycles`] of the warp `[w0, w1)` of an access given
/// as affine pieces (every element index non-negative): one covering
/// piece in closed form ([`piece_cycles`]), several enumerated.
fn warp_conflict_cycles_affine(
    pieces: &[AffinePiece],
    w0: usize,
    w1: usize,
    elem_bytes: usize,
    banks: u32,
) -> u64 {
    debug_assert!(w1 - w0 <= MAX_WARP, "a warp access has at most 64 lanes");
    if let [p] = pieces {
        let (x0, x1) = clip(p, w0, w1);
        if let Some(cycles) = piece_cycles(p, (x1 - x0).max(1), elem_bytes, banks) {
            return cycles;
        }
    }
    let mut idx = [0usize; MAX_WARP];
    let n = enumerate_warp(pieces, w0, w1, &mut idx);
    shared_conflict_cycles(&idx[..n], elem_bytes, banks)
}

/// The one piece of `pieces` when it holds every lane of a `lanes`-lane
/// access.
fn whole_piece(pieces: &[AffinePiece], lanes: usize) -> Option<&AffinePiece> {
    match pieces {
        [p] if p.lane0 == 0 && p.lanes == lanes => Some(p),
        _ => None,
    }
}

/// Transactions of one block-wide global access of `lanes` lanes given
/// as affine pieces in lane order: the sum over its warps of the
/// per-warp closed form (see [`warp_transactions`] for the counting
/// rule). An access held by one piece is counted once for all its
/// full warps when a warp's span is a whole number of segments, so
/// every full warp sits alike on the segment grid.
pub fn access_transactions(
    pieces: &[AffinePiece],
    lanes: usize,
    warp_size: usize,
    elem_bytes: usize,
    segment_bytes: usize,
) -> u64 {
    if let Some(p) = whole_piece(pieces, lanes) {
        let span = p.stride.unsigned_abs() * (elem_bytes * warp_size) as u64;
        if span & (segment_bytes as u64 - 1) == 0 {
            let (full, tail) = (lanes / warp_size, lanes % warp_size);
            let mut total = 0;
            if full > 0 {
                total += full as u64 * piece_segments(p, 0, warp_size, elem_bytes, segment_bytes);
            }
            if tail > 0 {
                total += piece_segments(p, lanes - tail, lanes, elem_bytes, segment_bytes);
            }
            return total;
        }
    }
    let mut total = 0u64;
    for_each_warp(pieces, lanes, warp_size, |p, w0, w1| {
        total += warp_transactions_affine(p, w0, w1, elem_bytes, segment_bytes);
    });
    total
}

/// Bank-conflict cost of one block-wide shared access of `lanes` lanes
/// given as affine pieces in lane order: `(replays, worst)`, the replay
/// cycles summed over its warps and the largest per-warp cycle count
/// (see [`shared_conflict_cycles`] for the counting rule). An access
/// held by one piece is counted once: its full warps all take the same
/// cycles.
pub fn access_conflict_cycles(
    pieces: &[AffinePiece],
    lanes: usize,
    warp_size: usize,
    elem_bytes: usize,
    banks: u32,
) -> (u64, u64) {
    if let Some(p) = whole_piece(pieces, lanes) {
        let (full, tail) = (lanes / warp_size, lanes % warp_size);
        let cycles = |len| piece_cycles(p, len, elem_bytes, banks);
        if let (Some(per_full), Some(per_tail)) = (cycles(warp_size), cycles(tail.max(1))) {
            let (mut replays, mut worst) = (0u64, 1u64);
            if full > 0 {
                replays += full as u64 * (per_full - 1);
                worst = per_full;
            }
            if tail > 0 {
                replays += per_tail - 1;
                worst = worst.max(per_tail);
            }
            return (replays, worst);
        }
    }
    let (mut replays, mut worst) = (0u64, 1u64);
    for_each_warp(pieces, lanes, warp_size, |p, w0, w1| {
        let cycles = warp_conflict_cycles_affine(p, w0, w1, elem_bytes, banks);
        replays += cycles - 1;
        worst = worst.max(cycles);
    });
    (replays, worst)
}

/// Fewest transactions `lanes` active lanes could cost (perfectly
/// coalesced, aligned) — the per-access term of the planner's
/// closed-form p-Thomas transaction count (an access that hits this
/// bound exactly is provably coalesced).
pub fn coalesced_minimum(
    lanes: usize,
    warp_size: usize,
    elem_bytes: usize,
    segment_bytes: usize,
) -> u64 {
    let per_full = (warp_size * elem_bytes).div_ceil(segment_bytes) as u64;
    let full = (lanes / warp_size) as u64;
    let rem = lanes % warp_size;
    full * per_full
        + if rem > 0 {
            (rem * elem_bytes).div_ceil(segment_bytes) as u64
        } else {
            0
        }
}

/// Element stride magnitude above which a lane run of a global access
/// is uncoalesced: stride 1 and broadcast are fine, anything wider is
/// counted in [`crate::counters::BlockStats::uncoalesced_global_accesses`].
pub const GLOBAL_STRIDE_THRESHOLD: i64 = 1;

/// Is a global access with lane indices `idx` uncoalesced: does a lane
/// run of its maximal-run form ([`compress`]) span two or more lanes
/// at a stride wider than [`GLOBAL_STRIDE_THRESHOLD`]? The dense form,
/// the oracle for [`access_uncoalesced`].
pub fn uncoalesced(idx: &[usize]) -> bool {
    compress(idx)
        .iter()
        .any(|p| p.lanes >= 2 && p.stride.abs() > GLOBAL_STRIDE_THRESHOLD)
}

/// [`uncoalesced`] of the lanes of `pieces` (in lane order, split into
/// runs any way), without expanding them. [`compress`] opens a lane run
/// at the step between two lanes, extends it over every equal step that
/// follows, and ends it with the first different step, which belongs to
/// no run; this walks the same steps, `count` at a time — each piece's
/// own stride, then the jump to the next piece.
pub fn access_uncoalesced(pieces: &[AffinePiece]) -> bool {
    if let [p] = pieces {
        return p.lanes >= 2 && p.stride.abs() > GLOBAL_STRIDE_THRESHOLD;
    }
    let next = pieces.iter().skip(1).map(Some).chain([None]);
    let steps = pieces.iter().zip(next).flat_map(|(p, q)| {
        let jump = q.map(|q| (q.base - p.elem(p.lanes - 1), 1));
        std::iter::once((p.stride, p.lanes - 1)).chain(jump)
    });
    // The stride of the lane run in progress, if any.
    let mut run: Option<i64> = None;
    for (step, mut count) in steps.filter(|&(_, count)| count > 0) {
        match run {
            Some(stride) if stride == step => continue,
            Some(_) => {
                run = None;
                count -= 1;
            }
            None => {}
        }
        if count > 0 {
            if step.abs() > GLOBAL_STRIDE_THRESHOLD {
                return true;
            }
            run = Some(step);
        }
    }
    false
}

#[cfg(test)]
mod tests {
    use super::*;

    fn lanes(v: impl IntoIterator<Item = usize>) -> Vec<usize> {
        v.into_iter().collect()
    }

    #[test]
    fn init_mask_tracks_words() {
        let m = InitMask::uninit(130);
        assert!(!m.is_set(0) && !m.is_set(129));
        m.set(0);
        m.set(64);
        m.set(129);
        assert!(m.is_set(0) && m.is_set(64) && m.is_set(129));
        assert!(!m.is_set(1) && !m.is_set(65) && !m.is_set(128));
        let full = InitMask::Full;
        assert!(full.is_set(12345));
    }

    #[test]
    fn contiguous_f32_warp_is_one_transaction() {
        // 32 lanes × 4 B = 128 B = one segment (when aligned).
        let idx = lanes(0..32);
        assert_eq!(warp_transactions(&idx, 4, 128), 1);
    }

    #[test]
    fn contiguous_f64_warp_is_two_transactions() {
        let idx = lanes(0..32);
        assert_eq!(warp_transactions(&idx, 8, 128), 2);
    }

    #[test]
    fn misaligned_contiguous_costs_one_extra() {
        let idx = lanes(1..33); // crosses a segment boundary
        assert_eq!(warp_transactions(&idx, 4, 128), 2);
    }

    #[test]
    fn large_stride_is_fully_serialised() {
        // Stride 512 elements (2 KiB in f32): one segment per lane.
        let idx = lanes((0..32).map(|l| l * 512));
        assert_eq!(warp_transactions(&idx, 4, 128), 32);
        assert_eq!(warp_transactions(&idx, 8, 128), 32);
    }

    #[test]
    fn permutation_within_segment_still_one_transaction() {
        // Coalescing is address-set based, not order based.
        let mut v: Vec<usize> = (0..32).collect();
        v.reverse();
        assert_eq!(warp_transactions(&lanes(v), 4, 128), 1);
    }

    #[test]
    fn only_active_lanes_cost_transactions() {
        // A partial warp pays for the lanes it has; an empty one, nothing.
        assert_eq!(warp_transactions(&lanes(0..1), 4, 128), 1);
        assert_eq!(warp_transactions(&[], 4, 128), 0);
    }

    #[test]
    fn shared_conflict_free_contiguous() {
        assert_eq!(shared_conflict_cycles(&lanes(0..32), 4, 32), 1);
    }

    #[test]
    fn shared_stride_two_f32_is_two_way() {
        let idx = lanes((0..32).map(|l| l * 2));
        assert_eq!(shared_conflict_cycles(&idx, 4, 32), 2);
    }

    #[test]
    fn shared_stride_32_is_fully_serialised() {
        let idx = lanes((0..32).map(|l| l * 32));
        assert_eq!(shared_conflict_cycles(&idx, 4, 32), 32);
    }

    #[test]
    fn shared_broadcast_is_free() {
        let idx = lanes(std::iter::repeat_n(7, 32));
        assert_eq!(shared_conflict_cycles(&idx, 4, 32), 1);
    }

    #[test]
    fn shared_f64_stride_one_two_way_on_32_banks() {
        // 8-byte elements at stride 1: words 0,1 | 2,3 | ... lanes 0 and
        // 16 share bank 0 with different words → 2-way.
        let idx = lanes(0..32);
        assert_eq!(shared_conflict_cycles(&idx, 8, 32), 2);
    }

    #[test]
    fn empty_access_costs_one_cycle_floor() {
        assert_eq!(shared_conflict_cycles(&[], 4, 32), 1);
    }

    /// The closed form must agree with the dynamic per-warp counter on
    /// every index shape kernels produce.
    #[test]
    fn closed_form_transactions_match_dynamic_counter() {
        let shapes: Vec<Vec<usize>> = vec![
            (0..32).collect(),                       // aligned unit stride
            (1..33).collect(),                       // misaligned
            (0..32).map(|l| l * 2).collect(),        // stride 2
            (0..32).map(|l| l * 17 + 3).collect(),   // prime stride
            (0..32).map(|l| l * 512).collect(),      // huge stride
            (0..32).rev().collect(),                 // negative stride
            vec![7; 32],                             // broadcast
            (0..40).collect(),                       // spills into 2nd warp
            vec![0, 1, 2, 3, 100, 101, 102, 4000],   // multi-piece
            (0..13).map(|l| 5 + l * 3).collect(),    // ragged tail
            (0..64).map(|l| (l % 7) * 19).collect(), // many short pieces
        ];
        for idx in shapes {
            for eb in [4usize, 8] {
                let mut dynamic = 0u64;
                for warp in idx.chunks(32) {
                    dynamic += warp_transactions(warp, eb, 128);
                }
                assert_eq!(
                    access_transactions(&compress(&idx), idx.len(), 32, eb, 128),
                    dynamic,
                    "idx={idx:?} eb={eb}"
                );
            }
        }
    }

    #[test]
    fn coalesced_minimum_math() {
        assert_eq!(coalesced_minimum(32, 32, 4, 128), 1);
        assert_eq!(coalesced_minimum(32, 32, 8, 128), 2);
        assert_eq!(coalesced_minimum(64, 32, 8, 128), 4);
        assert_eq!(coalesced_minimum(33, 32, 4, 128), 2);
        assert_eq!(coalesced_minimum(1, 32, 8, 128), 1);
    }

    /// The closed form (and the enumeration fallback) must agree with
    /// the dynamic per-warp counter on every shape kernels produce.
    #[test]
    fn closed_form_conflicts_match_dynamic_counter() {
        let shapes: Vec<Vec<usize>> = vec![
            (0..32).collect(),                      // unit stride
            (0..32).map(|l| l * 2).collect(),       // 2-way f32
            (0..32).map(|l| l * 32).collect(),      // 32-way
            (0..32).map(|l| l * 16).collect(),      // 16-way f32
            (0..32).map(|l| l * 3).collect(),       // coprime stride
            vec![7; 32],                            // broadcast
            (0..32).map(|l| l + l / 32).collect(),  // padded
            (0..24).map(|l| 100 + l * 5).collect(), // ragged offset
            vec![0, 2, 4, 6, 3, 3, 3, 64, 96, 128], // multi-piece
            (0..32).rev().map(|l| l * 2).collect(), // negative stride
            (0..48).map(|l| l * 2).collect(),       // two warps
        ];
        for idx in shapes {
            for eb in [4usize, 8] {
                let mut dynamic = 0u64;
                for warp in idx.chunks(32) {
                    dynamic += shared_conflict_cycles(warp, eb, 32) - 1;
                }
                let (stat, _) = access_conflict_cycles(&compress(&idx), idx.len(), 32, eb, 32);
                assert_eq!(stat, dynamic, "idx={idx:?} eb={eb}");
            }
        }
    }

    #[test]
    fn worst_conflict_degree_of_f64_unit_and_stride_32_f32() {
        let worst =
            |idx: &[usize], eb| access_conflict_cycles(&compress(idx), idx.len(), 32, eb, 32).1;
        assert_eq!(worst(&lanes(0..32), 8), 2);
        assert_eq!(worst(&lanes((0..32).map(|l| l * 32)), 4), 32);
    }

    #[test]
    fn only_runs_wider_than_unit_stride_are_uncoalesced() {
        let piece = |lane0, lanes, base, stride| AffinePiece {
            lane0,
            lanes,
            base,
            stride,
        };
        assert!(!uncoalesced(&lanes(0..32)));
        assert!(!uncoalesced(&[7; 32]));
        assert!(!uncoalesced(&lanes((0..32).rev())));
        assert!(uncoalesced(&lanes((0..32).map(|l| l * 2))));
        // A jump between two unit-stride runs is not a run of its own...
        assert!(!uncoalesced(&[0, 1, 2, 100, 101, 102]));
        // ...but a lone lane before a run opens a two-lane run across
        // the jump, however the kernel split its lanes.
        assert!(uncoalesced(&[0, 100, 101, 102]));
        assert!(access_uncoalesced(&[
            piece(0, 1, 0, 0),
            piece(1, 3, 100, 1)
        ]));
        assert!(!access_uncoalesced(&[
            piece(0, 3, 0, 1),
            piece(3, 3, 100, 1)
        ]));
        // A run split into pieces of one stride is one run.
        assert!(!access_uncoalesced(&[piece(0, 4, 0, 1), piece(4, 4, 4, 1)]));
        assert!(access_uncoalesced(&[piece(0, 1, 5, 9), piece(1, 2, 8, 2)]));
    }
}
