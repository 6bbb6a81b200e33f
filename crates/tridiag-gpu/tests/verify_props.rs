//! Property tests of the plan verifier: every plan the planner builds
//! — any geometry, precision, device, device count — certifies clean,
//! and when executed the static [`PlanPrediction`] matches the
//! measured transfer/launch/peak-memory stats *exactly*. The verifier
//! and the planner are developed against each other; these properties
//! pin that contract.

use gpu_sim::{DeviceGroup, DeviceSpec};
use proptest::prelude::*;
use tridiag_core::generators::random_batch;
use tridiag_gpu::solver::{GpuSolverConfig, GpuTridiagSolver};
use tridiag_gpu::{verify_plan, verify_sharded_plan};

fn device_by_index(which: usize) -> DeviceSpec {
    match which % 3 {
        0 => DeviceSpec::gtx480(),
        1 => DeviceSpec::gtx280(),
        _ => DeviceSpec::c2050(),
    }
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(16))]

    /// Any planner-built single-device plan certifies clean, and its
    /// certificate's transfer totals obey the pipeline's arithmetic
    /// (4 coefficient uploads, 1 solution download).
    #[test]
    fn planner_built_plans_certify_clean(
        m in 1usize..96,
        n in 32usize..2048,
        which in 0usize..3,
        f32_width in any::<bool>(),
    ) {
        let device = device_by_index(which);
        let bytes = if f32_width { 4 } else { 8 };
        let solver = GpuTridiagSolver::new(device.clone(), GpuSolverConfig::default());
        let plan = solver.plan_geometry(m, n, bytes).unwrap();
        let report = verify_plan(&device, &plan);
        prop_assert!(
            report.is_clean(),
            "planner emitted an uncertifiable plan: {:?}",
            report.findings
        );
        prop_assert_eq!(report.prediction.h2d_total_bytes, 4 * m * n * bytes);
        prop_assert_eq!(report.prediction.d2h_total_bytes, m * n * bytes);
        prop_assert!(report.prediction.peak_resident_bytes <= device.global_mem_bytes);
        // Every slot the plan declares is defined exactly once and used.
        for (slot, lv) in report.liveness.iter().enumerate() {
            prop_assert!(lv.def_step.is_some(), "slot {slot} never defined");
            prop_assert!(lv.last_use_step.is_some(), "slot {slot} never used");
        }
    }

    /// Executing a planner-built plan measures *exactly* what the
    /// certificate predicted: same per-step transfers, same launch
    /// counts, same peak resident bytes — bit-for-bit, f32 and f64.
    #[test]
    fn prediction_matches_execution_exactly(
        m in 1usize..48,
        n in 32usize..768,
        which in 0usize..3,
        f32_width in any::<bool>(),
        seed in any::<u64>(),
    ) {
        let device = device_by_index(which);
        let solver = GpuTridiagSolver::new(device, GpuSolverConfig::default());
        let (clean, mismatches) = if f32_width {
            let batch = random_batch::<f32>(m, n, seed);
            let (_, report) = solver.solve_batch(&batch).unwrap();
            (report.is_verify_clean(), report.verify_mismatches.clone())
        } else {
            let batch = random_batch::<f64>(m, n, seed);
            let (_, report) = solver.solve_batch(&batch).unwrap();
            (report.is_verify_clean(), report.verify_mismatches.clone())
        };
        prop_assert!(clean, "certificate diverged from the run: {mismatches:?}");
    }

    /// Any planner-built sharded plan (D in {1, 2, 4}, homogeneous)
    /// certifies clean — every shard *and* the cross-device partition
    /// and pinned-decision invariants — and the executed run matches
    /// every shard's certificate.
    #[test]
    fn sharded_plans_certify_clean_and_match_execution(
        m_per_dev in 1usize..24,
        n in 32usize..512,
        d in prop::sample::select(vec![1usize, 2, 4]),
        which in 0usize..3,
        seed in any::<u64>(),
    ) {
        let device = device_by_index(which);
        let m = m_per_dev * d;
        let group = DeviceGroup::homogeneous(device.clone(), d).unwrap();
        let solver = GpuTridiagSolver::new(device, GpuSolverConfig::default());
        let plan = solver.plan_geometry_group(&group, m, n, 8).unwrap();
        let report = verify_sharded_plan(&group, &plan);
        prop_assert!(
            report.is_clean(),
            "planner emitted an uncertifiable sharded plan: {:?}",
            report.messages()
        );
        prop_assert_eq!(report.plans.len(), d);

        let batch = random_batch::<f64>(m, n, seed);
        let (_, run) = solver.solve_batch_group(&group, &batch).unwrap();
        prop_assert!(
            run.is_verify_clean(),
            "sharded certificate diverged from the run: {:?}",
            run.verify_mismatches
        );
    }
}

/// A heterogeneous group still certifies: the weaker device may clamp
/// its shard's k below the pin, which is a documented deviation, not a
/// finding.
#[test]
fn heterogeneous_groups_certify_clean() {
    let group = DeviceGroup::from_specs(vec![DeviceSpec::gtx480(), DeviceSpec::gtx280()]).unwrap();
    let solver = GpuTridiagSolver::new(DeviceSpec::gtx480(), GpuSolverConfig::default());
    let plan = solver.plan_geometry_group(&group, 32, 1024, 8).unwrap();
    let report = verify_sharded_plan(&group, &plan);
    assert!(report.is_clean(), "findings: {:?}", report.messages());
}
