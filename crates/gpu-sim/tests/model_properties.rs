//! Property tests for the simulator's analytic models: the coalescing
//! analyzer, the bank-conflict model and the occupancy calculator obey
//! the monotonicity/invariance laws the real hardware does; the closed
//! forms over affine pieces equal the dense counters; and the init
//! mask's range write equals per-element writes.

use gpu_sim::lanes::expand;
use gpu_sim::memory::{
    access_conflict_cycles, access_transactions, access_uncoalesced, shared_conflict_cycles,
    uncoalesced, warp_transactions, InitMask,
};
use gpu_sim::{occupancy, DeviceSpec, Lanes};
use proptest::prelude::*;

/// Element strides the piece lists draw from: broadcast, unit, small,
/// bank- and segment-sized, large, and negative.
const STRIDES: [i64; 12] = [0, 1, 2, 3, 16, 32, 33, 1000, -1, -2, -17, -32];

/// Random piece lists: `(base, stride index, lanes)` per piece.
fn piece_specs() -> impl Strategy<Value = Vec<(usize, usize, usize)>> {
    prop::collection::vec((0usize..5000, 0usize..STRIDES.len(), 1usize..48), 1..=6)
}

/// Build the lane list (negative-stride pieces start high enough that
/// every element is non-negative).
fn lanes_of(specs: &[(usize, usize, usize)]) -> Lanes {
    let mut lanes = Lanes::new();
    for &(base, si, count) in specs {
        let stride = STRIDES[si];
        let start = base + (stride.unsigned_abs() as usize) * (count - 1) * usize::from(stride < 0);
        lanes.push(start, stride, count);
    }
    lanes
}

fn lane_vec() -> impl Strategy<Value = Vec<usize>> {
    prop::collection::vec(0usize..10_000, 1..=32)
}

proptest! {
    /// Coalescing is a property of the address *set*: permutation
    /// invariant.
    #[test]
    fn transactions_permutation_invariant(mut lanes in lane_vec(), seed in any::<u64>()) {
        let before = warp_transactions(&lanes, 8, 128);
        // Deterministic shuffle.
        let n = lanes.len();
        for i in (1..n).rev() {
            let j = (seed as usize).wrapping_mul(i).wrapping_add(17) % (i + 1);
            lanes.swap(i, j);
        }
        prop_assert_eq!(warp_transactions(&lanes, 8, 128), before);
    }

    /// Adding a lane can only add transactions (or reuse a segment).
    #[test]
    fn transactions_monotone_in_lanes(lanes in lane_vec(), extra in 0usize..10_000) {
        prop_assume!(lanes.len() < 32);
        let before = warp_transactions(&lanes, 4, 128);
        let mut more = lanes.clone();
        more.push(extra);
        let after = warp_transactions(&more, 4, 128);
        prop_assert!(after >= before);
        prop_assert!(after <= before + 1);
    }

    /// A warp of w aligned-contiguous f32 lanes is optimal: exactly
    /// ceil(w·4/128) transactions, and no other address set of the same
    /// cardinality does better.
    #[test]
    fn contiguous_is_optimal(start in 0usize..1000, lanes in lane_vec()) {
        let w = lanes.len();
        let contiguous: Vec<usize> = (start * 32..start * 32 + w).collect();
        let best = warp_transactions(&contiguous, 4, 128);
        prop_assert!(best <= w.div_ceil(32) as u64 + 1);
        prop_assert!(warp_transactions(&lanes, 4, 128) >= 1);
    }

    /// Conflict degree is bounded by the lane count and at least 1, and
    /// a broadcast (all same address) is always conflict-free.
    #[test]
    fn conflict_bounds(lanes in lane_vec(), addr in 0usize..1000) {
        let c = shared_conflict_cycles(&lanes, 4, 32);
        prop_assert!(c >= 1);
        prop_assert!(c <= lanes.len() as u64);
        let broadcast = vec![addr; lanes.len()];
        prop_assert_eq!(shared_conflict_cycles(&broadcast, 4, 32), 1);
    }

    /// Occupancy never improves when a block's footprint grows.
    #[test]
    fn occupancy_monotone(
        threads in prop::sample::select(vec![32u32, 64, 128, 192, 256, 512]),
        shared_kb in 0usize..40,
        regs in 8u32..40,
    ) {
        let spec = DeviceSpec::gtx480();
        let base = occupancy(&spec, threads, shared_kb * 1024, regs).unwrap();
        if let Ok(more_shared) = occupancy(&spec, threads, (shared_kb + 4) * 1024, regs) {
            prop_assert!(more_shared.blocks_per_sm <= base.blocks_per_sm);
        }
        if let Ok(more_regs) = occupancy(&spec, threads, shared_kb * 1024, regs + 8) {
            prop_assert!(more_regs.blocks_per_sm <= base.blocks_per_sm);
        }
        prop_assert!(base.warps_per_sm >= threads.div_ceil(spec.warp_size));
        prop_assert!(base.fraction(&spec) <= 1.0 + 1e-12);
    }
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(1000))]

    /// The closed-form transaction count of a piece list equals the
    /// dense counter summed over the expanded lanes' warps — unit and
    /// large strides, broadcasts, negative strides, misaligned bases,
    /// partial warps and warps spanning pieces, 4- and 8-byte elements.
    #[test]
    fn closed_form_transactions_equal_dense(
        specs in piece_specs(),
        elem_bytes in prop::sample::select(vec![4usize, 8]),
        warp in prop::sample::select(vec![32usize, 16]),
    ) {
        let lanes = lanes_of(&specs);
        let mut idx = Vec::new();
        expand(lanes.pieces(), &mut idx);
        let dense: u64 = idx.chunks(warp).map(|w| warp_transactions(w, elem_bytes, 128)).sum();
        let closed = access_transactions(lanes.pieces(), lanes.len(), warp, elem_bytes, 128);
        prop_assert_eq!(closed, dense, "pieces {:?} elem {}", lanes.pieces(), elem_bytes);
    }

    /// The closed-form bank-conflict cost of a piece list equals the
    /// dense counter: the same replay total and the same worst warp.
    #[test]
    fn closed_form_conflicts_equal_dense(
        specs in piece_specs(),
        elem_bytes in prop::sample::select(vec![4usize, 8]),
        warp in prop::sample::select(vec![32usize, 16]),
    ) {
        let lanes = lanes_of(&specs);
        let mut idx = Vec::new();
        expand(lanes.pieces(), &mut idx);
        let cycles: Vec<u64> =
            idx.chunks(warp).map(|w| shared_conflict_cycles(w, elem_bytes, 32)).collect();
        let dense = (
            cycles.iter().map(|c| c - 1).sum::<u64>(),
            cycles.iter().copied().max().unwrap_or(1),
        );
        let closed = access_conflict_cycles(lanes.pieces(), lanes.len(), warp, elem_bytes, 32);
        prop_assert_eq!(closed, dense, "pieces {:?} elem {}", lanes.pieces(), elem_bytes);
    }

    /// The closed-form uncoalesced test of a piece list equals the dense
    /// one on the expanded lanes: however the kernel split its lanes,
    /// the access is judged by its maximal runs. Also the same over the
    /// lanes re-split at arbitrary chunk boundaries.
    #[test]
    fn closed_form_uncoalesced_equals_dense(specs in piece_specs(), size in 1usize..70) {
        let lanes = lanes_of(&specs);
        let mut idx = Vec::new();
        expand(lanes.pieces(), &mut idx);
        let dense = uncoalesced(&idx);
        prop_assert_eq!(access_uncoalesced(lanes.pieces()), dense, "pieces {:?}", lanes.pieces());
        let mut resplit = Lanes::new();
        for c in (0..idx.len()).step_by(size) {
            let mut part = Lanes::new();
            lanes.slice_into(c, (c + size).min(idx.len()), &mut part);
            for p in part.pieces() {
                resplit.push(p.base as usize, p.stride, p.lanes);
            }
        }
        prop_assert_eq!(access_uncoalesced(resplit.pieces()), dense);
    }

    /// Slicing a lane list into chunks and expanding each chunk gives
    /// the chunks of the expanded list.
    #[test]
    fn lane_slices_expand_to_index_chunks(specs in piece_specs(), size in 1usize..70) {
        let lanes = lanes_of(&specs);
        let (mut idx, mut part_idx) = (Vec::new(), Vec::new());
        expand(lanes.pieces(), &mut idx);
        let mut part = Lanes::new();
        for (c, chunk) in idx.chunks(size).enumerate() {
            lanes.slice_into(c * size, c * size + chunk.len(), &mut part);
            expand(part.pieces(), &mut part_idx);
            prop_assert_eq!(&part_idx[..], chunk);
        }
    }

    /// `InitMask::set_range` marks exactly what per-element `set` does.
    #[test]
    fn init_mask_range_write_equals_element_writes(
        len in 1usize..400,
        a in 0usize..400,
        b in 0usize..400,
        pre in prop::collection::vec(0usize..400, 0..8),
    ) {
        let (lo, hi) = (a.min(b) % len, (a.max(b) % len).max(a.min(b) % len));
        let ranged = InitMask::uninit(len);
        for &i in &pre {
            ranged.set(i % len);
        }
        let single = ranged.clone();
        ranged.set_range(lo, hi);
        for i in lo..hi {
            single.set(i);
        }
        prop_assert_eq!(ranged, single);
    }
}
