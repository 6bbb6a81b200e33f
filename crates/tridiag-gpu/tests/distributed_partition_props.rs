//! Property tests of the row partitioner and the distributed planner.
//!
//! The contract under test: `partition(n, d, Partition::Rows)` assigns every row of
//! one system to exactly one contiguous chunk, chunk sizes are balanced
//! within ±1 and never below 2 (each chunk owns two interface rows),
//! the chunk → reduced-system index mapping is a monotone bijection,
//! and the degenerate geometries (`d == 0`, `n == 0`, `n < 2d`) are
//! typed `InvalidPlan` errors — never panics. On top of that,
//! `DistributedPlan::build` must keep those invariants per chunk (an
//! interior plan exactly when the chunk has interior rows), round-trip
//! through its own schema checker, and pass the static verifier — for
//! homogeneous and mixed-device groups alike.

use gpu_sim::{DeviceGroup, DeviceSpec, SimError};
use proptest::prelude::*;
use tridiag_gpu::solver::GpuSolverConfig;
use tridiag_gpu::{partition, DistributedPlan, Partition};

proptest! {
    #![proptest_config(ProptestConfig::with_cases(16))]

    /// Every row lands in exactly one chunk, chunks are contiguous and
    /// ordered, sizes are balanced within ±1, and no chunk is smaller
    /// than its two interface rows.
    #[test]
    fn every_row_in_exactly_one_balanced_chunk(
        n in 2usize..8193,
        d in 1usize..9,
    ) {
        prop_assume!(n >= 2 * d);
        let chunks = partition(n, d, Partition::Rows).unwrap();
        prop_assert_eq!(chunks.len(), d);
        let mut cursor = 0usize;
        for &(start, count) in &chunks {
            prop_assert_eq!(start, cursor, "chunks must be contiguous and ordered");
            prop_assert!(count >= 2, "every chunk owns two interface rows");
            cursor += count;
        }
        prop_assert_eq!(cursor, n, "chunks must cover all n rows");
        let max = chunks.iter().map(|c| c.1).max().unwrap();
        let min = chunks.iter().map(|c| c.1).min().unwrap();
        prop_assert!(max - min <= 1, "balance within +-1: max {} min {}", max, min);
    }

    /// The interface-index mapping is a monotone bijection: chunk `j`
    /// contributes reduced unknowns `2j` and `2j + 1`, standing for its
    /// global first and last rows — `2d` global indices, all distinct,
    /// strictly increasing in reduced order.
    #[test]
    fn interface_indices_are_a_monotone_bijection(
        n in 2usize..8193,
        d in 1usize..9,
    ) {
        prop_assume!(n >= 2 * d);
        let chunks = partition(n, d, Partition::Rows).unwrap();
        // Global row behind each reduced unknown, in reduced order
        // (x_s0, x_e0, x_s1, x_e1, ...).
        let mut globals = Vec::with_capacity(2 * d);
        for &(start, count) in &chunks {
            globals.push(start);
            globals.push(start + count - 1);
        }
        prop_assert_eq!(globals.len(), 2 * d);
        for w in globals.windows(2) {
            prop_assert!(
                w[0] < w[1],
                "reduced order must be strictly increasing in global rows: {} !< {}",
                w[0],
                w[1]
            );
        }
        prop_assert_eq!(globals[0], 0, "first interface is row 0");
        prop_assert_eq!(*globals.last().unwrap(), n - 1, "last interface is row n-1");
    }

    /// `d == 1` is the identity partition, and the planner takes the
    /// identity path: no chunks, no reduced system, just the ordinary
    /// single-device plan.
    #[test]
    fn single_device_split_is_identity(n in 2usize..8193) {
        prop_assert_eq!(partition(n, 1, Partition::Rows).unwrap(), vec![(0, n)]);
        let group = DeviceGroup::single(DeviceSpec::gtx480());
        let plan = DistributedPlan::build(&group, &GpuSolverConfig::default(), n, 8).unwrap();
        prop_assert!(plan.identity.is_some(), "D = 1 must be the identity path");
        prop_assert!(plan.chunks.is_empty());
        prop_assert!(plan.reduced.is_none());
    }

    /// Degenerate geometries are typed errors, not panics.
    #[test]
    fn degenerate_partitions_are_typed_errors(
        n in 0usize..16,
        d in 0usize..9,
    ) {
        let result = partition(n, d, Partition::Rows);
        if d == 0 || n == 0 || n < 2 * d {
            prop_assert!(matches!(result, Err(SimError::InvalidPlan(_))));
        } else {
            prop_assert!(result.is_ok());
        }
    }

    /// Distributed plans over random mixed-device groups always build,
    /// keep the chunk invariants (interior plan exactly when the chunk
    /// has more than its two interface rows, interior geometry matching
    /// the chunk), survive the JSON schema checker, and pass the static
    /// verifier cleanly.
    #[test]
    fn mixed_device_groups_build_valid_distributed_plans(
        n_exp in 4u32..14,
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
        prop_assume!(n >= 2 * specs.len());
        let _ = seed; // plans are deterministic; seed only varies the case mix
        let group = DeviceGroup::from_specs(specs).unwrap();
        let config = GpuSolverConfig::default();
        let plan = DistributedPlan::build(&group, &config, n, 8).unwrap();
        if group.len() == 1 {
            prop_assert!(plan.identity.is_some());
        } else {
            prop_assert!(plan.identity.is_none());
            prop_assert_eq!(plan.chunks.len(), group.len());
            let mut cursor = 0usize;
            for (i, chunk) in plan.chunks.iter().enumerate() {
                prop_assert_eq!(chunk.device_index, i);
                prop_assert_eq!(chunk.row_start, cursor);
                cursor += chunk.row_count;
                match &chunk.interior {
                    None => prop_assert_eq!(
                        chunk.row_count, 2,
                        "interface-only chunks have exactly two rows"
                    ),
                    Some(interior) => {
                        prop_assert!(chunk.row_count > 2);
                        prop_assert_eq!(interior.m, 3, "y, u, w batched in one run");
                        prop_assert_eq!(interior.n, chunk.row_count - 2);
                        prop_assert_eq!(interior.elem_bytes, 8);
                    }
                }
            }
            prop_assert_eq!(cursor, n);
            let reduced = plan.reduced.as_ref().expect("reduced plan at D >= 2");
            prop_assert_eq!(reduced.m, 1);
            prop_assert_eq!(reduced.n, 2 * group.len());
        }
        // Validate the serialized form against its own schema checker.
        let problems = tridiag_gpu::validate_distributed_plan_json(&plan.to_json());
        prop_assert!(problems.is_empty(), "schema drift: {:?}", problems);
        // And certify with the static verifier.
        let report = tridiag_gpu::verify_distributed_plan(&group, &plan);
        prop_assert!(
            report.is_clean(),
            "verifier findings on a fresh plan: {:?}",
            report.messages()
        );
    }
}

#[test]
fn distributed_plan_rejects_more_interface_rows_than_rows() {
    let group = DeviceGroup::homogeneous(DeviceSpec::gtx480(), 4).unwrap();
    let config = GpuSolverConfig::default();
    let err = DistributedPlan::build(&group, &config, 7, 8).unwrap_err();
    assert!(matches!(err, SimError::InvalidPlan(_)), "got {err:?}");
    let err = DistributedPlan::build(&group, &config, 0, 8).unwrap_err();
    assert!(matches!(err, SimError::InvalidPlan(_)), "got {err:?}");
}
