//! Property tests for the simulator's analytic models: the coalescing
//! analyzer, the bank-conflict model and the occupancy calculator obey
//! the monotonicity/invariance laws the real hardware does.

use gpu_sim::memory::{shared_conflict_cycles, warp_transactions};
use gpu_sim::{occupancy, DeviceSpec};
use proptest::prelude::*;

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
