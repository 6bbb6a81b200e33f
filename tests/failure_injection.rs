//! Failure injection: singular and malformed inputs must surface typed
//! errors from every engine — never panics, never silent garbage.

use scalable_tridiag::cpu_ref;
use scalable_tridiag::tridiag_core::{
    cr, generators, pcr, rd, thomas, SystemBatch, TridiagError, TridiagonalSystem,
};
use scalable_tridiag::tridiag_gpu::solver::GpuTridiagSolver;

/// A system whose very first pivot is exactly zero.
fn zero_head(n: usize) -> TridiagonalSystem<f64> {
    generators::near_singular::<f64>(n, 0, 0.0, 99)
}

#[test]
fn host_algorithms_report_zero_pivot() {
    let s = zero_head(32);
    assert!(matches!(
        thomas::solve_typed(&s).unwrap_err(),
        TridiagError::ZeroPivot { .. }
    ));
    assert!(cr::solve(&s).is_err());
    assert!(pcr::solve(&s).is_err());
    assert!(rd::solve(&s).is_err());
}

#[test]
fn cpu_batched_solvers_propagate_errors() {
    let good = generators::dominant_random::<f64>(32, 1);
    let batch = SystemBatch::from_systems(vec![good.clone(), zero_head(32), good]).unwrap();
    assert!(cpu_ref::solve_batch_sequential(&batch).is_err());
    assert!(cpu_ref::solve_batch_threaded(&batch, &cpu_ref::ThreadPool::new(4)).is_err());
}

#[test]
fn gpu_solver_faults_cleanly_on_singular_input() {
    let good = generators::dominant_random::<f64>(64, 2);
    let batch = SystemBatch::from_systems(vec![good, zero_head(64)]).unwrap();
    let err = GpuTridiagSolver::gtx480().solve_batch(&batch).unwrap_err();
    // A kernel fault, not a panic and not a wrong answer.
    assert!(matches!(err, gpu_sim::SimError::KernelFault(_)), "{err}");
}

#[test]
fn sharded_solver_faults_cleanly_on_singular_shard() {
    // Eight systems across four devices shard as [0,2) [2,4) [4,6) [6,8);
    // poisoning system 5 puts the singular system in shard 2 alone. The
    // group solve must surface the same typed kernel fault as the
    // single-device path — partial results discarded, no panic leaking
    // out of the worker thread.
    let n = 64;
    let mut systems: Vec<_> = (0..8)
        .map(|i| generators::dominant_random::<f64>(n, i as u64))
        .collect();
    systems[5] = zero_head(n);
    let batch = SystemBatch::from_systems(systems).unwrap();
    let solver = GpuTridiagSolver::gtx480();
    let group =
        gpu_sim::DeviceGroup::homogeneous(gpu_sim::DeviceSpec::gtx480(), 4).unwrap();
    let err = solver.solve_batch_group::<f64>(&group, &batch).unwrap_err();
    assert!(matches!(err, gpu_sim::SimError::KernelFault(_)), "{err}");
    // The fault is attributed to the shard that owns system 5.
    assert!(err.to_string().contains("shard 2"), "{err}");
    // A healthy batch on the same group still solves.
    let good: Vec<_> = (0..8)
        .map(|i| generators::dominant_random::<f64>(n, 100 + i as u64))
        .collect();
    let healthy = SystemBatch::from_systems(good).unwrap();
    assert!(solver.solve_batch_group::<f64>(&group, &healthy).is_ok());
}

#[test]
fn malformed_construction_is_rejected() {
    assert!(matches!(
        TridiagonalSystem::<f64>::new(vec![], vec![], vec![], vec![]).unwrap_err(),
        TridiagError::EmptySystem
    ));
    assert!(matches!(
        TridiagonalSystem::<f64>::new(vec![0.0], vec![1.0, 2.0], vec![0.0, 0.0], vec![1.0, 1.0])
            .unwrap_err(),
        TridiagError::LengthMismatch { .. }
    ));
    let s1 = generators::dominant_random::<f64>(4, 1);
    let s2 = generators::dominant_random::<f64>(5, 2);
    assert!(SystemBatch::from_systems(vec![s1, s2]).is_err());
}

#[test]
fn nan_input_is_caught_not_propagated_silently() {
    let mut s = generators::dominant_random::<f64>(16, 3);
    s.rhs_mut()[7] = f64::NAN;
    assert!(matches!(
        s.check_finite().unwrap_err(),
        TridiagError::NonFinite { row: 7 }
    ));
    // Thomas detects the NaN during the sweep.
    assert!(thomas::solve_typed(&s).is_err());

    // The pivot-free GPU paths sweep straight through a NaN right-hand
    // side; each must still come back as a typed kernel fault naming
    // the poisoned system, never `Ok` with NaN in `x`.
    let n = 256;
    let mut poisoned = generators::dominant_random::<f64>(n, 4);
    poisoned.rhs_mut()[100] = f64::NAN;
    let healthy = |seed: u64| generators::dominant_random::<f64>(n, seed);
    let solver = GpuTridiagSolver::gtx480();
    let non_finite = |err: &gpu_sim::SimError| {
        matches!(err, gpu_sim::SimError::KernelFault(_)) && err.to_string().contains("non-finite")
    };

    let batch = SystemBatch::from_systems(vec![healthy(5), poisoned.clone(), healthy(6)]).unwrap();
    let err = solver.solve_batch(&batch).unwrap_err();
    assert!(non_finite(&err), "{err}");
    assert!(err.to_string().contains("system 1"), "{err}");

    // Four systems over two devices: the poisoned one lands in shard 1.
    let group = gpu_sim::DeviceGroup::homogeneous(gpu_sim::DeviceSpec::gtx480(), 2).unwrap();
    let batch = SystemBatch::from_systems(vec![healthy(7), healthy(8), poisoned, healthy(9)])
        .unwrap();
    let err = solver.solve_batch_group::<f64>(&group, &batch).unwrap_err();
    assert!(non_finite(&err), "{err}");
    assert!(err.to_string().contains("shard 1"), "{err}");

    // One system row-split across the group.
    let mut single = generators::dominant_random::<f64>(4096, 10);
    single.rhs_mut()[3000] = f64::NAN;
    let batch = SystemBatch::from_systems(vec![single]).unwrap();
    let err = solver.solve_batch_split::<f64>(&group, &batch).unwrap_err();
    assert!(non_finite(&err), "{err}");
}

#[test]
fn non_finite_solution_never_scores_a_passing_residual() {
    let s = generators::dominant_random::<f64>(512, 11);
    let good = thomas::solve_typed(&s).unwrap();
    assert!(s.relative_residual(&good).unwrap() < 1e-12);
    let mut x = good.clone();
    x[300] = f64::NAN;
    assert_eq!(s.relative_residual(&x).unwrap(), f64::INFINITY);
    let batch = SystemBatch::from_systems(vec![s.clone(), s]).unwrap();
    let mut xs = [good.clone(), good].concat();
    assert!(batch.max_relative_residual(&xs).unwrap() < 1e-12);
    xs[512 + 300] = f64::NAN;
    assert_eq!(batch.max_relative_residual(&xs).unwrap(), f64::INFINITY);
    xs[512 + 300] = f64::INFINITY;
    assert_eq!(batch.max_relative_residual(&xs).unwrap(), f64::INFINITY);
}

#[test]
fn nearly_singular_still_solves_but_residual_tells() {
    // A tiny-but-nonzero pivot: pivot-free elimination goes through;
    // the residual check is the user's guard.
    let s = generators::near_singular::<f64>(64, 20, 1e-13, 5);
    if let Ok(x) = thomas::solve_typed(&s) {
        let r = s.relative_residual(&x).unwrap();
        // Either an accurate solve or a residual loud enough to notice;
        // what must not happen is a quiet NaN.
        assert!(x.iter().all(|v| v.is_finite()) || r > 1e-6);
    }
}
