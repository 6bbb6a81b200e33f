//! Black–Scholes option pricing by Crank–Nicolson finite differences —
//! the quantitative-finance workload of the paper's references [14][15]
//! (Egloff's "High performance finite difference PDE solvers on GPUs"):
//! every time step of the implicit scheme is one tridiagonal solve.
//!
//! We price a European put, compare against the closed-form
//! Black–Scholes value, and also run a *batch* of strikes through the
//! simulated GPU solver (pricing desks reprice whole surfaces — an
//! `(M, N)` batch, the paper's exact target shape).
//!
//! Run: `cargo run --release --example option_pricing`

use scalable_tridiag::tridiag_core::thomas::{self, ThomasScratch};
use scalable_tridiag::tridiag_core::{SystemBatch, TridiagonalSystem};
use scalable_tridiag::tridiag_gpu::solver::GpuTridiagSolver;

/// Standard normal CDF via the Abramowitz–Stegun rational erf
/// approximation (|error| < 7.5e-8 — far below the FD error here).
fn norm_cdf(x: f64) -> f64 {
    let t = 1.0 / (1.0 + 0.2316419 * x.abs());
    let poly = t
        * (0.319381530
            + t * (-0.356563782 + t * (1.781477937 + t * (-1.821255978 + t * 1.330274429))));
    let pdf = (-0.5 * x * x).exp() / (2.0 * std::f64::consts::PI).sqrt();
    if x >= 0.0 {
        1.0 - pdf * poly
    } else {
        pdf * poly
    }
}

/// Closed-form Black–Scholes European put.
fn bs_put(s0: f64, strike: f64, r: f64, sigma: f64, t: f64) -> f64 {
    let d1 = ((s0 / strike).ln() + (r + 0.5 * sigma * sigma) * t) / (sigma * t.sqrt());
    let d2 = d1 - sigma * t.sqrt();
    strike * (-r * t).exp() * norm_cdf(-d2) - s0 * norm_cdf(-d1)
}

/// Build the Crank–Nicolson step operator for the BS PDE on a uniform
/// S-grid with `n` interior nodes, spacing `ds`, step `dt`.
/// Returns `(lhs_operator, explicit_coefficients)` where the RHS at
/// node `i` is `alpha_i·v[i-1] + beta_i·v[i] + gamma_i·v[i+1]` plus
/// boundary adjustments.
#[allow(clippy::type_complexity)]
fn cn_operator(
    n: usize,
    ds: f64,
    dt: f64,
    r: f64,
    sigma: f64,
) -> (TridiagonalSystem<f64>, Vec<(f64, f64, f64)>) {
    let mut lower = vec![0.0; n];
    let mut diag = vec![0.0; n];
    let mut upper = vec![0.0; n];
    let mut explicit = Vec::with_capacity(n);
    for i in 0..n {
        let s = (i as f64 + 1.0) * ds;
        let a = 0.5 * sigma * sigma * s * s / (ds * ds); // diffusion
        let b = 0.5 * r * s / ds; // drift
                                  // L v = a (v_{i-1} - 2 v_i + v_{i+1}) + b (v_{i+1} - v_{i-1}) - r v_i.
        let (lo, mid, hi) = (a - b, -2.0 * a - r, a + b);
        // (I - dt/2 L) v^{new} = (I + dt/2 L) v^{old}.
        lower[i] = -0.5 * dt * lo;
        diag[i] = 1.0 - 0.5 * dt * mid;
        upper[i] = -0.5 * dt * hi;
        explicit.push((0.5 * dt * lo, 1.0 + 0.5 * dt * mid, 0.5 * dt * hi));
    }
    let lhs = TridiagonalSystem::new(lower, diag, upper, vec![0.0; n]).expect("CN operator");
    (lhs, explicit)
}

/// Price one put by CN time stepping; returns the grid of prices at t=0.
fn price_put_fd(
    strike: f64,
    s_max: f64,
    n: usize,
    steps: usize,
    r: f64,
    sigma: f64,
    t: f64,
) -> Vec<f64> {
    let ds = s_max / (n as f64 + 1.0);
    let dt = t / steps as f64;
    let (lhs, explicit) = cn_operator(n, ds, dt, r, sigma);

    // Terminal payoff.
    let mut v: Vec<f64> = (1..=n).map(|i| (strike - i as f64 * ds).max(0.0)).collect();
    let mut sys = lhs.clone();
    let mut scratch = ThomasScratch::new(n);
    let mut x = vec![0.0f64; n];
    for step in 0..steps {
        // Time remaining after this step (we march backward from T).
        let tau = (step as f64 + 1.0) * dt;
        let bc_low = strike * (-r * tau).exp(); // v(0, tau) for a put
        {
            let rhs = sys.rhs_mut();
            for i in 0..n {
                let (lo, mid, hi) = explicit[i];
                let vm = if i > 0 { v[i - 1] } else { bc_low };
                let vp = if i + 1 < n { v[i + 1] } else { 0.0 };
                rhs[i] = lo * vm + mid * v[i] + hi * vp;
            }
            // Implicit boundary contribution at the low end: the
            // (I − dt/2·L) term that references v(0) moves to the RHS.
            // Its coefficient +dt/2·lo_0 equals explicit[0].0.
            rhs[0] += explicit[0].0 * bc_low;
        }
        thomas::solve_into(&sys, &mut x, &mut scratch).expect("CN step");
        v.copy_from_slice(&x);
    }
    v
}

fn main() {
    let (r, sigma, t) = (0.05f64, 0.25f64, 1.0f64);
    let s_max = 300.0f64;
    let n = 599usize;
    let steps = 400usize;
    let ds = s_max / (n as f64 + 1.0);

    // --- single strike, accuracy check -------------------------------
    let strike = 100.0;
    let grid = price_put_fd(strike, s_max, n, steps, r, sigma, t);
    let spot = 100.0;
    let i = (spot / ds).round() as usize - 1;
    let fd = grid[i];
    let exact = bs_put(spot, strike, r, sigma, t);
    println!("European put K={strike}, S0={spot}, r={r}, sigma={sigma}, T={t}");
    println!("  closed form : {exact:.4}");
    println!(
        "  CN grid     : {fd:.4}  (|err| = {:.2e})",
        (fd - exact).abs()
    );
    assert!(
        (fd - exact).abs() < 0.05,
        "finite differences should price within a nickel"
    );

    // --- a strike surface as a batch on the simulated GPU ------------
    // One CN step couples only within a strike's grid, so stepping a
    // whole surface is an (M strikes × N nodes) batched solve.
    let strikes: Vec<f64> = (0..64).map(|k| 60.0 + 1.25 * k as f64).collect();
    let dt = t / steps as f64;
    let (lhs, explicit) = cn_operator(n, ds, dt, r, sigma);
    let systems: Vec<TridiagonalSystem<f64>> = strikes
        .iter()
        .map(|&k| {
            let payoff: Vec<f64> = (1..=n).map(|i| (k - i as f64 * ds).max(0.0)).collect();
            let mut sys = lhs.clone();
            let bc_low = k * (-r * dt).exp();
            {
                let rhs = sys.rhs_mut();
                for i in 0..n {
                    let (lo, mid, hi) = explicit[i];
                    let vm = if i > 0 { payoff[i - 1] } else { bc_low };
                    let vp = if i + 1 < n { payoff[i + 1] } else { 0.0 };
                    rhs[i] = lo * vm + mid * payoff[i] + hi * vp;
                }
                rhs[0] += explicit[0].0 * bc_low;
            }
            sys
        })
        .collect();
    let batch = SystemBatch::from_systems(systems).expect("strike batch");
    let (x, report) = GpuTridiagSolver::gtx480()
        .solve_batch(&batch)
        .expect("gpu step");
    println!(
        "\none CN step for {} strikes x {n} nodes on simulated GTX480:",
        strikes.len()
    );
    println!(
        "  {:.1} us modeled, k = {} PCR steps, residual {:.1e}",
        report.total_us,
        report.k,
        batch.max_relative_residual(&x).expect("residual")
    );
    assert!(batch.max_relative_residual(&x).expect("residual") < 1e-10);
    println!("  OK");
}
