//! Natural cubic-spline interpolation — intro application [8] of the
//! paper (spline moments come from one tridiagonal solve).
//!
//! We sample a smooth signal, solve the moment system with both the
//! host Thomas solver and the simulated GPU hybrid, then evaluate the
//! spline between knots and compare with ground truth.
//!
//! Run: `cargo run --release --example cubic_spline`

use scalable_tridiag::tridiag_core::{generators, thomas, SystemBatch};
use scalable_tridiag::tridiag_gpu::solver::GpuTridiagSolver;

fn signal(t: f64) -> f64 {
    (2.0 * t).sin() + 0.3 * (5.0 * t).cos()
}

fn main() {
    let knots = 257usize;
    let h = 0.05f64;
    let values: Vec<f64> = (0..knots).map(|i| signal(i as f64 * h)).collect();

    // Interior moment system (natural boundary: M_0 = M_last = 0).
    let system = generators::cubic_spline_moments(&values, h);

    // Host solve.
    let m_host = thomas::solve_typed(&system).expect("moments");

    // Simulated-GPU solve of the same (single-system) batch.
    let batch = SystemBatch::from_systems(vec![system.clone()]).expect("batch of one");
    let (m_gpu_flat, report) = GpuTridiagSolver::gtx480()
        .solve_batch(&batch)
        .expect("gpu solve");
    let diff = m_host
        .iter()
        .zip(&m_gpu_flat)
        .map(|(a, b)| (a - b).abs())
        .fold(0.0f64, f64::max);

    // Full moment vector with the natural zeros at both ends.
    let mut moments = vec![0.0f64];
    moments.extend_from_slice(&m_host);
    moments.push(0.0);

    // Evaluate the spline at midpoints and measure interpolation error.
    let mut max_err = 0.0f64;
    for i in 0..knots - 1 {
        let t = (i as f64 + 0.5) * h;
        let (m0, m1) = (moments[i], moments[i + 1]);
        let (y0, y1) = (values[i], values[i + 1]);
        let a = (i as f64 + 1.0) * h - t; // x_{i+1} - t
        let b = t - i as f64 * h; // t - x_i
        let s = m0 * a.powi(3) / (6.0 * h)
            + m1 * b.powi(3) / (6.0 * h)
            + (y0 / h - m0 * h / 6.0) * a
            + (y1 / h - m1 * h / 6.0) * b;
        max_err = max_err.max((s - signal(t)).abs());
    }

    println!("natural cubic spline through {knots} knots (h = {h})");
    println!(
        "  GPU hybrid used k = {} PCR steps, {:.1} us modeled",
        report.k, report.total_us
    );
    println!("  max |host - gpu| moment difference: {diff:.2e}");
    println!("  max interpolation error at midpoints: {max_err:.3e}");
    assert!(diff < 1e-9, "engines disagree");
    // Natural boundary conditions impose zero end-moments, which costs
    // O(h^2) in a boundary layer even for smooth signals.
    assert!(
        max_err < 5e-3,
        "spline error beyond the natural-boundary O(h^2) budget"
    );
    println!("  OK");
}
