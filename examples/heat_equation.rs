//! 1-D heat equation via Crank–Nicolson time stepping — the implicit
//! PDE workload class (fluid dynamics / diffusion) that motivates fast
//! tridiagonal solvers in the paper's introduction.
//!
//! `u_t = α u_xx` on `[0, 1]` with homogeneous Dirichlet boundaries.
//! Crank–Nicolson gives, per step, a constant tridiagonal system
//! `(I + r/2·L) u^{t+1} = (I − r/2·L) u^t` with `L` the second
//! difference and `r = α Δt / Δx²`. We verify against the exact decay
//! of the first Fourier mode `sin(πx) → e^{−π²αt} sin(πx)`.
//!
//! Run: `cargo run --release --example heat_equation`

use scalable_tridiag::tridiag_core::factored::FactoredTridiagonal;
use scalable_tridiag::tridiag_core::TridiagonalSystem;

fn main() {
    let n = 511usize; // interior points
    let alpha = 0.1;
    let dx = 1.0 / (n as f64 + 1.0);
    let dt = 1e-4;
    let steps = 2000usize;
    let r = alpha * dt / (dx * dx);

    // Left-hand operator (I + r/2 L), L = tridiag(-1, 2, -1).
    let lhs = TridiagonalSystem::new(
        vec![-r / 2.0; n],
        vec![1.0 + r; n],
        vec![-r / 2.0; n],
        vec![0.0; n],
    )
    .expect("operator");

    // Initial condition: first Fourier mode.
    let mut u: Vec<f64> = (1..=n)
        .map(|i| (std::f64::consts::PI * i as f64 * dx).sin())
        .collect();

    // The operator never changes: factor it once (the dgttrf/dgttrs
    // split), then every step is a division-free two-sweep solve.
    let factored = FactoredTridiagonal::new(&lhs).expect("factorisation");
    let mut rhs = vec![0.0f64; n];
    let mut x = vec![0.0f64; n];
    let t0 = std::time::Instant::now();
    for _ in 0..steps {
        // rhs = (I - r/2 L) u.
        for i in 0..n {
            let left = if i > 0 { u[i - 1] } else { 0.0 };
            let right = if i + 1 < n { u[i + 1] } else { 0.0 };
            rhs[i] = (1.0 - r) * u[i] + (r / 2.0) * (left + right);
        }
        factored.solve_into(&rhs, &mut x).expect("CN step");
        u.copy_from_slice(&x);
    }
    let elapsed = t0.elapsed();

    // Exact solution of the first mode after t = steps*dt.
    let t_final = steps as f64 * dt;
    let decay = (-std::f64::consts::PI.powi(2) * alpha * t_final).exp();
    let mut max_err = 0.0f64;
    for (i, &ui) in u.iter().enumerate() {
        let xi = (i as f64 + 1.0) * dx;
        let exact = decay * (std::f64::consts::PI * xi).sin();
        max_err = max_err.max((ui - exact).abs());
    }

    println!("Crank-Nicolson heat equation: {n} interior points, {steps} steps");
    println!(
        "  wall-clock: {elapsed:?} ({:.1} ns/unknown/step)",
        elapsed.as_nanos() as f64 / (n * steps) as f64
    );
    println!("  analytic mode decay: {decay:.6}");
    println!("  max error vs exact Fourier solution: {max_err:.3e}");
    assert!(
        max_err < 1e-4,
        "Crank-Nicolson second-order accuracy violated"
    );
    println!("  OK: within the scheme's discretisation error");
}
