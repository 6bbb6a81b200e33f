//! 2-D Poisson equation via ADI (alternating-direction implicit)
//! iteration — the Poisson-solver / fluid-simulation workload of the
//! paper's introduction ([4][5][6]): every half-step solves a *batch*
//! of independent tridiagonal systems, one per grid line, which is
//! exactly the `(M, N)` batched shape the paper benchmarks.
//!
//! Solves `−Δu = f` on the unit square (Dirichlet zero boundary) with
//! `f` chosen so `u(x, y) = sin(πx) sin(πy)` is exact, using
//! Peaceman–Rachford ADI with a Wachspress parameter cycle (a geometric
//! ladder between the operator's extreme eigenvalues — the standard way
//! to make single-parameter ADI converge in tens of sweeps). Row/column
//! sweeps go to the batched CPU solver; one representative sweep also
//! runs on the simulated GPU to show the batch mapping.
//!
//! Run: `cargo run --release --example poisson_adi`

use scalable_tridiag::cpu_ref;
use scalable_tridiag::tridiag_core::{SystemBatch, TridiagonalSystem};
use scalable_tridiag::tridiag_gpu::solver::GpuTridiagSolver;
use std::f64::consts::PI;

fn main() {
    let n = 127usize; // interior points per dimension
    let h = 1.0 / (n as f64 + 1.0);
    let cycles = 4usize;

    // Eigenvalue range of the 1-D operator A = tridiag(-1,2,-1)/h².
    let lambda_min = 4.0 * (PI * h / 2.0).sin().powi(2) / (h * h);
    let lambda_max = 4.0 * (PI * h * n as f64 / 2.0).sin().powi(2) / (h * h);
    // Wachspress cycle: J parameters geometrically spaced in [λmin, λmax].
    let j_params = 8usize;
    let rhos: Vec<f64> = (0..j_params)
        .map(|j| lambda_min * (lambda_max / lambda_min).powf((j as f64 + 0.5) / j_params as f64))
        .collect();

    // f = 2π² sin(πx) sin(πy); exact u = sin(πx) sin(πy).
    let f = |i: usize, j: usize| {
        2.0 * PI * PI * (PI * (i as f64 + 1.0) * h).sin() * (PI * (j as f64 + 1.0) * h).sin()
    };

    let mut u = vec![0.0f64; n * n]; // u[j*n + i], row-major
    let pool = cpu_ref::ThreadPool::per_cpu();
    let ih2 = 1.0 / (h * h);

    // One tridiagonal line operator (ρI + A) with the given RHS.
    let line_operator = |rho: f64, rhs: Vec<f64>| -> TridiagonalSystem<f64> {
        TridiagonalSystem::new(vec![-ih2; n], vec![rho + 2.0 * ih2; n], vec![-ih2; n], rhs)
            .expect("line operator")
    };

    let t0 = std::time::Instant::now();
    let mut sweeps = 0usize;
    for _ in 0..cycles {
        for &rho in &rhos {
            sweeps += 1;
            // --- x half-step: (ρI + A_x) u* = (ρI − A_y) u + f, per row j
            let rows: Vec<TridiagonalSystem<f64>> = (0..n)
                .map(|j| {
                    let rhs: Vec<f64> = (0..n)
                        .map(|i| {
                            let up = if j > 0 { u[(j - 1) * n + i] } else { 0.0 };
                            let dn = if j + 1 < n { u[(j + 1) * n + i] } else { 0.0 };
                            f(i, j) + (rho - 2.0 * ih2) * u[j * n + i] + ih2 * (up + dn)
                        })
                        .collect();
                    line_operator(rho, rhs)
                })
                .collect();
            let batch = SystemBatch::from_systems(rows).expect("row batch");
            let x = cpu_ref::solve_batch_threaded(&batch, &pool).expect("x sweep");
            for j in 0..n {
                for i in 0..n {
                    u[j * n + i] = x[batch.index(j, i)];
                }
            }

            // --- y half-step: (ρI + A_y) u = (ρI − A_x) u* + f, per col i
            let cols: Vec<TridiagonalSystem<f64>> = (0..n)
                .map(|i| {
                    let rhs: Vec<f64> = (0..n)
                        .map(|j| {
                            let le = if i > 0 { u[j * n + i - 1] } else { 0.0 };
                            let ri = if i + 1 < n { u[j * n + i + 1] } else { 0.0 };
                            f(i, j) + (rho - 2.0 * ih2) * u[j * n + i] + ih2 * (le + ri)
                        })
                        .collect();
                    line_operator(rho, rhs)
                })
                .collect();
            let batch = SystemBatch::from_systems(cols).expect("column batch");
            let x = cpu_ref::solve_batch_threaded(&batch, &pool).expect("y sweep");
            for i in 0..n {
                for j in 0..n {
                    u[j * n + i] = x[batch.index(i, j)];
                }
            }
        }
    }
    let elapsed = t0.elapsed();

    let mut max_err = 0.0f64;
    for j in 0..n {
        for i in 0..n {
            let exact = (PI * (i as f64 + 1.0) * h).sin() * (PI * (j as f64 + 1.0) * h).sin();
            max_err = max_err.max((u[j * n + i] - exact).abs());
        }
    }
    println!("ADI Poisson on a {n}x{n} grid, {sweeps} double sweeps: {elapsed:?}");
    println!("  Wachspress ladder: {j_params} parameters in [{lambda_min:.1}, {lambda_max:.1}]");
    println!("  max error vs exact solution: {max_err:.3e}");
    // Converged ADI leaves only the 5-point discretisation error, O(h²).
    assert!(
        max_err < 5.0 * h * h,
        "ADI did not converge to discretisation error: {max_err:.3e}"
    );

    // One representative sweep on the simulated GPU: M = n systems of
    // N = n unknowns — the exact batched shape of the paper's Fig. 12.
    let rho = rhos[0];
    let rows: Vec<TridiagonalSystem<f64>> = (0..n)
        .map(|j| {
            let rhs: Vec<f64> = (0..n).map(|i| f(i, j)).collect();
            line_operator(rho, rhs)
        })
        .collect();
    let batch = SystemBatch::from_systems(rows).expect("gpu batch");
    let (xg, report) = GpuTridiagSolver::gtx480()
        .solve_batch(&batch)
        .expect("gpu sweep");
    println!(
        "  one sweep on simulated GTX480: M={n} N={n} -> {:.1} us modeled (k = {}), residual {:.1e}",
        report.total_us,
        report.k,
        batch.max_relative_residual(&xg).expect("residual")
    );
    println!("  OK");
}
