//! Property tests of the shard partitioner and the sharded planner.
//!
//! The contract under test: `partition(m, d, Partition::Systems)` assigns every
//! system index to exactly one contiguous shard, shard sizes are
//! balanced within ±1, and the degenerate geometries (`m == 0`,
//! `m < d`, `d == 0`) are typed `InvalidPlan` errors — never panics,
//! never empty shards. On top of that, `ShardedPlan::build` must pin
//! the reference device's decisions into every shard, re-clamped per
//! device for heterogeneous groups.

use gpu_sim::{DeviceGroup, DeviceSpec, SimError};
use proptest::prelude::*;
use tridiag_gpu::solver::GpuSolverConfig;
use tridiag_gpu::{partition, Partition, ShardedPlan};

proptest! {
    #![proptest_config(ProptestConfig::with_cases(16))]

    /// Every system index lands in exactly one shard, shards are
    /// contiguous and in order, and sizes are balanced within ±1.
    #[test]
    fn every_index_in_exactly_one_balanced_shard(
        m in 1usize..4097,
        d in 1usize..9,
    ) {
        prop_assume!(m >= d);
        let shards = partition(m, d, Partition::Systems).unwrap();
        prop_assert_eq!(shards.len(), d);
        let mut cursor = 0usize;
        for &(start, count) in &shards {
            prop_assert_eq!(start, cursor, "shards must be contiguous and ordered");
            prop_assert!(count > 0, "no shard may be empty");
            cursor += count;
        }
        prop_assert_eq!(cursor, m, "shards must cover all m systems");
        let max = shards.iter().map(|s| s.1).max().unwrap();
        let min = shards.iter().map(|s| s.1).min().unwrap();
        prop_assert!(max - min <= 1, "balance within +-1: max {} min {}", max, min);
    }

    /// `d == 1` is the identity partition.
    #[test]
    fn single_device_partition_is_identity(m in 1usize..4097) {
        prop_assert_eq!(partition(m, 1, Partition::Systems).unwrap(), vec![(0, m)]);
    }

    /// Degenerate geometries are typed errors, not panics.
    #[test]
    fn degenerate_partitions_are_typed_errors(
        m in 0usize..8,
        d in 0usize..9,
    ) {
        let result = partition(m, d, Partition::Systems);
        if d == 0 || m == 0 || m < d {
            prop_assert!(matches!(result, Err(SimError::InvalidPlan(_))));
        } else {
            prop_assert!(result.is_ok());
        }
    }

    /// Sharded plans over random mixed-device groups always build, keep
    /// the partition invariants, and never let a shard's PCR depth
    /// exceed what its own device can hold (heterogeneous re-clamp).
    #[test]
    fn mixed_device_groups_build_valid_sharded_plans(
        m in 2usize..65,
        n_exp in 6u32..12,
        picks in prop::collection::vec(0usize..3, 1..5),
        seed in any::<u64>(),
    ) {
        let n = 1usize << n_exp;
        let specs: Vec<DeviceSpec> = picks
            .iter()
            .map(|&p| match p {
                0 => DeviceSpec::gtx480(),
                1 => DeviceSpec::gtx280(),
                _ => DeviceSpec::c2050(),
            })
            .collect();
        prop_assume!(m >= specs.len());
        let _ = seed; // plans are deterministic; seed only varies the case mix
        let group = DeviceGroup::from_specs(specs).unwrap();
        let config = GpuSolverConfig::default();
        let plan = ShardedPlan::build(&group, &config, m, n, 8).unwrap();
        prop_assert_eq!(plan.shards.len(), group.len());
        let mut cursor = 0usize;
        for (i, shard) in plan.shards.iter().enumerate() {
            prop_assert_eq!(shard.device_index, i);
            prop_assert_eq!(shard.sys_start, cursor);
            cursor += shard.sys_count;
            prop_assert_eq!(shard.plan.m, shard.sys_count);
            prop_assert_eq!(shard.plan.n, n);
            // Pinned-then-reclamped: never above the reference depth.
            prop_assert!(shard.plan.k <= plan.reference.k);
        }
        prop_assert_eq!(cursor, m);
        // Validate the serialized form against its own schema checker.
        let problems = tridiag_gpu::validate_sharded_plan_json(&plan.to_json());
        prop_assert!(problems.is_empty(), "schema drift: {:?}", problems);
    }
}

#[test]
fn sharded_plan_rejects_more_devices_than_systems() {
    let group = DeviceGroup::homogeneous(DeviceSpec::gtx480(), 4).unwrap();
    let config = GpuSolverConfig::default();
    let err = ShardedPlan::build(&group, &config, 2, 512, 8).unwrap_err();
    assert!(matches!(err, SimError::InvalidPlan(_)), "got {err:?}");
    let err = ShardedPlan::build(&group, &config, 0, 512, 8).unwrap_err();
    assert!(matches!(err, SimError::InvalidPlan(_)), "got {err:?}");
}
