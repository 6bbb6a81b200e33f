//! Fusion is the planner's decision (paper §III-C): wherever
//! `cost::decide` fuses tiled PCR into p-Thomas, the fused solve must
//! be no slower on the modeled clock than the split pipeline the
//! `fused: false` config forces, and every decision that does not fuse
//! must plan exactly what the split config plans.
//!
//! The geometries are the golden plan-snapshot sweep plus the
//! repository benchmark's menus — the hybrid and wide batch shapes,
//! the multi-device workload's sharded batches and its row-split
//! interior (3 right-hand sides) and reduced systems at D = 2, and the
//! service stream's request shapes — at both widths on all three
//! device specs.

use gpu_sim::DeviceSpec;
use tridiag_core::generators::random_batch;
use tridiag_gpu::solver::{GpuSolverConfig, GpuTridiagSolver};
use tridiag_gpu::GpuScalar;

/// `(m, n)` points: the plan-snapshot sweep, then the benchmark menus.
fn geometries() -> Vec<(usize, usize)> {
    let mut points = vec![
        // plan_snapshots SWEEP
        (64, 512),
        (256, 512),
        (1024, 512),
        (64, 2048),
        (256, 2048),
        (2048, 64),
        (256, 256),
        (16, 1024),
        (1, 16384),
        // hybrid_batch
        (16, 1024),
        (64, 512),
        (64, 2048),
        (256, 512),
        (1, 16384),
        // wide_batch
        (1024, 512),
        (2048, 64),
        (2048, 256),
        (4096, 128),
        (8192, 64),
        // multi_device: sharded batches, then the D = 2 row-split
        // interior systems of n = 16384 / 65536 and the reduced system
        (64, 2048),
        (256, 512),
        (2048, 256),
        (3, 8190),
        (3, 32766),
        (1, 4),
    ];
    // service_stream request shapes
    for m in 1..=4 {
        for n in [64, 128, 256, 512] {
            points.push((m, n));
        }
    }
    points.sort_unstable();
    points.dedup();
    points
}

fn split() -> GpuSolverConfig {
    GpuSolverConfig {
        fused: false,
        ..Default::default()
    }
}

/// Modeled `total_us` of `(fused, split)` solves of the same batch, or
/// `None` when the default decision does not fuse — in which case its
/// plan must be the split config's, bit for bit.
fn compare<S: GpuScalar>(spec: &DeviceSpec, m: usize, n: usize) -> Option<(f64, f64)> {
    let bytes = <S as gpu_sim::Elem>::BYTES;
    let fused = GpuTridiagSolver::new(spec.clone(), GpuSolverConfig::default());
    let split = GpuTridiagSolver::new(spec.clone(), split());
    let label = format!("{} m={m} n={n} f{}", spec.name, 8 * bytes);
    let planned = fused.plan_geometry(m, n, bytes).unwrap();
    let split_plan = split.plan_geometry(m, n, bytes).unwrap();
    if !planned.fused {
        assert_eq!(planned.describe(), split_plan.describe(), "{label}");
        assert_eq!(
            planned.to_json().to_string(),
            split_plan.to_json().to_string(),
            "{label}"
        );
        return None;
    }
    assert!(planned.k > 0, "{label}: a k = 0 decision fused");
    let batch = random_batch::<S>(m, n, 7);
    let (xf, rf) = fused.solve_batch(&batch).unwrap();
    let (xs, rs) = split.solve_batch(&batch).unwrap();
    assert!(rf.fused && !rs.fused, "{label}");
    let tol = tridiag_core::verify::default_tolerance::<S>() * 1e3;
    for (x, what) in [(&xf, "fused"), (&xs, "split")] {
        let resid = batch.max_relative_residual(x).unwrap();
        assert!(resid <= tol, "{label}: {what} residual {resid:e}");
    }
    Some((rf.total_us, rs.total_us))
}

#[test]
#[cfg_attr(debug_assertions, ignore = "slow simulation; run with --release")]
fn fusion_never_loses_to_split() {
    let mut fused_points = 0;
    for spec in [
        DeviceSpec::gtx480(),
        DeviceSpec::c2050(),
        DeviceSpec::gtx280(),
    ] {
        for (m, n) in geometries() {
            for (prec, times) in [
                ("f32", compare::<f32>(&spec, m, n)),
                ("f64", compare::<f64>(&spec, m, n)),
            ] {
                if let Some((fused_us, split_us)) = times {
                    fused_points += 1;
                    assert!(
                        fused_us <= split_us,
                        "{} m={m} n={n} {prec}: fused {fused_us} us > split {split_us} us",
                        spec.name
                    );
                }
            }
        }
    }
    assert!(fused_points > 0, "no decision fused");
}
