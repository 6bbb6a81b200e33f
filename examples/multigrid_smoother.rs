//! Semi-coarsening multigrid line smoother — intro applications [9][10]
//! of the paper (Göddeke & Strzodka's use case): anisotropic elliptic
//! problems need *line* relaxation, and each relaxation sweep is a
//! batch of tridiagonal solves.
//!
//! Problem: `−ε u_xx − u_yy = f` with strong anisotropy (`ε ≪ 1`).
//! Point smoothers stall on such operators; y-line relaxation (solving
//! whole columns implicitly, one tridiagonal system per column) treats
//! the stiff direction exactly — which is why semi-coarsening multigrid
//! pairs it with coarsening in x only. We run the smoother standalone
//! and show its residual contraction per sweep.
//!
//! Run: `cargo run --release --example multigrid_smoother`

use scalable_tridiag::cpu_ref;
use scalable_tridiag::tridiag_core::{SystemBatch, TridiagonalSystem};

struct Grid {
    n: usize,
    h: f64,
    eps: f64,
}

impl Grid {
    fn residual(&self, u: &[f64], f: &[f64]) -> Vec<f64> {
        let n = self.n;
        let ih2 = 1.0 / (self.h * self.h);
        let mut r = vec![0.0; n * n];
        for j in 0..n {
            for i in 0..n {
                let c = u[j * n + i];
                let le = if i > 0 { u[j * n + i - 1] } else { 0.0 };
                let ri = if i + 1 < n { u[j * n + i + 1] } else { 0.0 };
                let up = if j > 0 { u[(j - 1) * n + i] } else { 0.0 };
                let dn = if j + 1 < n { u[(j + 1) * n + i] } else { 0.0 };
                let au = self.eps * ih2 * (2.0 * c - le - ri) + ih2 * (2.0 * c - up - dn);
                r[j * n + i] = f[j * n + i] - au;
            }
        }
        r
    }

    /// One y-line relaxation sweep: for every column i, solve the
    /// tridiagonal system coupling u(i, :) implicitly.
    fn line_smooth(&self, u: &mut [f64], f: &[f64], pool: &cpu_ref::ThreadPool) {
        let n = self.n;
        let ih2 = 1.0 / (self.h * self.h);
        let systems: Vec<TridiagonalSystem<f64>> = (0..n)
            .map(|i| {
                let rhs: Vec<f64> = (0..n)
                    .map(|j| {
                        let le = if i > 0 { u[j * n + i - 1] } else { 0.0 };
                        let ri = if i + 1 < n { u[j * n + i + 1] } else { 0.0 };
                        f[j * n + i] + self.eps * ih2 * (le + ri)
                    })
                    .collect();
                TridiagonalSystem::new(
                    vec![-ih2; n],
                    vec![2.0 * ih2 + 2.0 * self.eps * ih2; n],
                    vec![-ih2; n],
                    rhs,
                )
                .expect("line system")
            })
            .collect();
        let batch = SystemBatch::from_systems(systems).expect("column batch");
        let x = cpu_ref::solve_batch_threaded(&batch, pool).expect("line solve");
        for i in 0..n {
            for j in 0..n {
                u[j * n + i] = x[batch.index(i, j)];
            }
        }
    }
}

fn norm(v: &[f64]) -> f64 {
    v.iter().fold(0.0f64, |a, &b| a.max(b.abs()))
}

fn main() {
    let n = 128usize;
    let grid = Grid {
        n,
        h: 1.0 / (n as f64 + 1.0),
        eps: 1e-3, // strong anisotropy: y-direction dominates
    };
    let pool = cpu_ref::ThreadPool::per_cpu();

    // Random-ish forcing.
    let f: Vec<f64> = (0..n * n)
        .map(|t| ((t * 2654435761usize) % 1000) as f64 / 1000.0 - 0.5)
        .collect();
    let mut u = vec![0.0f64; n * n];

    println!(
        "anisotropic Poisson (eps = {}), {n}x{n} grid, y-line smoothing",
        grid.eps
    );
    let r0 = norm(&grid.residual(&u, &f));
    println!("  initial residual: {r0:.3e}");
    let mut prev = r0;
    for sweep in 1..=6 {
        grid.line_smooth(&mut u, &f, &pool);
        let r = norm(&grid.residual(&u, &f));
        println!(
            "  sweep {sweep}: residual {r:.3e}  (contraction {:.3})",
            r / prev
        );
        prev = r;
    }
    // Line relaxation must contract the residual strongly on an
    // anisotropic operator where point smoothers crawl.
    assert!(
        prev < r0 * 1e-2,
        "line smoother failed to contract: {prev:.3e} vs {r0:.3e}"
    );
    println!("  OK: line relaxation contracts the anisotropic residual");
}
