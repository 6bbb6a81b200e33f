//! Differential suite for interleaved-layout GPU solves: the CPU
//! reference is `cpu_ref::solve_batch_interleaved` — the lane-parallel
//! Thomas sweep over the *same* interleaved arrays the GPU kernel
//! reads — not the sequential per-system solver.
//!
//! The GPU p-Thomas kernel and the CPU lane sweep order the row-0 and
//! reciprocal arithmetic differently, so the comparison is
//! tolerance-based (the probe batches are diagonally dominant, where
//! Thomas is backward-stable), not bit-based. Bit-level guarantees for
//! the elided path live in `layout_cost.rs`.

use tridiag_core::generators::random_batch;
use tridiag_core::Layout;
use tridiag_gpu::solver::{GpuSolverConfig, GpuTridiagSolver, LayoutChoice};
use tridiag_gpu::GpuScalar;

/// Max |Δ|/max(1, |ref|) between the GPU solve of an interleaved batch
/// and the CPU interleaved reference, both in interleaved order.
fn gpu_vs_interleaved_ref<S: GpuScalar>(m: usize, n: usize, seed: u64) -> f64 {
    let batch = random_batch::<S>(m, n, seed).to_layout(Layout::Interleaved);
    let reference = cpu_ref::solve_batch_interleaved(&batch).unwrap();
    let solver = GpuTridiagSolver::new(
        gpu_sim::DeviceSpec::gtx480(),
        GpuSolverConfig {
            layout: LayoutChoice::Interleaved,
            ..Default::default()
        },
    );
    let (x, report) = solver.solve_batch(&batch).unwrap();
    assert_eq!(
        report.plan.layout,
        Layout::Interleaved,
        "m={m} n={n}: forced-interleaved solve planned the wrong layout"
    );
    assert_eq!(x.len(), reference.len());
    x.iter()
        .zip(&reference)
        .map(|(a, b)| {
            let (a, b) = (a.to_f64(), b.to_f64());
            (a - b).abs() / b.abs().max(1.0)
        })
        .fold(0.0f64, f64::max)
}

#[test]
#[cfg_attr(debug_assertions, ignore = "slow simulation; run with --release")]
fn interleaved_gpu_solves_match_the_cpu_lane_reference_f64() {
    for &(m, n) in &[
        (64usize, 512usize),
        (1024, 512),
        (2048, 64),
        (37, 129),
        (1, 1024),
    ] {
        let err = gpu_vs_interleaved_ref::<f64>(m, n, 42);
        assert!(err < 1e-12, "m={m} n={n}: relative error {err:.3e}");
    }
}

#[test]
#[cfg_attr(debug_assertions, ignore = "slow simulation; run with --release")]
fn interleaved_gpu_solves_match_the_cpu_lane_reference_f32() {
    for &(m, n) in &[(64usize, 512usize), (256, 256), (33, 65)] {
        let err = gpu_vs_interleaved_ref::<f32>(m, n, 7);
        assert!(err < 1e-4, "m={m} n={n}: relative error {err:.3e}");
    }
}

/// Auto-layout solves that land on the interleaved path get the same
/// reference treatment: convert the contiguous host batch, compare the
/// GPU solution (contiguous order) against the interleaved reference
/// element-by-element through the layout index map.
#[test]
#[cfg_attr(debug_assertions, ignore = "slow simulation; run with --release")]
fn auto_interleaved_points_match_the_reference_through_the_index_map() {
    for &(m, n) in &[(1024usize, 512usize), (2048, 64)] {
        let contig = random_batch::<f64>(m, n, 42);
        let solver = GpuTridiagSolver::gtx480();
        let (x, report) = solver.solve_batch(&contig).unwrap();
        assert_eq!(report.plan.layout, Layout::Interleaved, "m={m} n={n}");
        let reference =
            cpu_ref::solve_batch_interleaved(&contig.to_layout(Layout::Interleaved)).unwrap();
        let mut err = 0.0f64;
        for sys in 0..m {
            for row in 0..n {
                let a = x[sys * n + row];
                let b = reference[row * m + sys];
                err = err.max((a - b).abs() / b.abs().max(1.0));
            }
        }
        assert!(err < 1e-12, "m={m} n={n}: relative error {err:.3e}");
    }
}
