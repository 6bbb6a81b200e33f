//! Cross-validation of every solver against an independent dense
//! Gaussian-elimination reference (O(n³), test-only): the band solvers
//! share *no* code with this one, so agreement is strong evidence of
//! correctness rather than self-consistency.

use proptest::prelude::*;
use rand::rngs::StdRng;
use rand::{Rng, SeedableRng};
use tridiag_core::generators::dominant_random;
use tridiag_core::{cr, pcr, pivoting, rd, thomas, TridiagonalSystem};

/// Dense Gaussian elimination with partial pivoting (textbook, O(n³)).
// The elimination loop reads row `col` while mutating row `row`; an
// iterator form would need a split borrow that obscures the textbook
// shape this reference deliberately keeps.
#[allow(clippy::needless_range_loop)]
fn dense_solve(mut a: Vec<Vec<f64>>, mut b: Vec<f64>) -> Option<Vec<f64>> {
    let n = b.len();
    for col in 0..n {
        // Pivot search.
        let piv = (col..n).max_by(|&i, &j| {
            a[i][col].abs().partial_cmp(&a[j][col].abs()).unwrap()
        })?;
        if a[piv][col].abs() < 1e-300 {
            return None;
        }
        a.swap(col, piv);
        b.swap(col, piv);
        for row in col + 1..n {
            let f = a[row][col] / a[col][col];
            for k in col..n {
                a[row][k] -= f * a[col][k];
            }
            b[row] -= f * b[col];
        }
    }
    let mut x = vec![0.0; n];
    for row in (0..n).rev() {
        let mut acc = b[row];
        for k in row + 1..n {
            acc -= a[row][k] * x[k];
        }
        x[row] = acc / a[row][row];
    }
    Some(x)
}

fn densify(s: &TridiagonalSystem<f64>) -> (Vec<Vec<f64>>, Vec<f64>) {
    let n = s.len();
    let (a, b, c, d) = s.parts();
    let mut m = vec![vec![0.0; n]; n];
    for i in 0..n {
        m[i][i] = b[i];
        if i > 0 {
            m[i][i - 1] = a[i];
        }
        if i + 1 < n {
            m[i][i + 1] = c[i];
        }
    }
    (m, d.to_vec())
}

fn assert_close(x: &[f64], y: &[f64], tol: f64, ctx: &str) {
    let scale = y.iter().fold(1.0f64, |acc, v| acc.max(v.abs()));
    for i in 0..x.len() {
        assert!(
            (x[i] - y[i]).abs() < tol * scale,
            "{ctx} row {i}: {} vs {}",
            x[i],
            y[i]
        );
    }
}

#[test]
fn band_solvers_agree_with_dense_elimination() {
    for n in [1usize, 2, 3, 17, 64, 200] {
        let s = dominant_random::<f64>(n, 1000 + n as u64);
        let (m, b) = densify(&s);
        let dense = dense_solve(m, b).expect("dominant is nonsingular");
        assert_close(&thomas::solve_typed(&s).unwrap(), &dense, 1e-9, "thomas");
        assert_close(&cr::solve(&s).unwrap(), &dense, 1e-8, "cr");
        assert_close(&pcr::solve(&s).unwrap(), &dense, 1e-8, "pcr");
        assert_close(&rd::solve(&s).unwrap(), &dense, 1e-7, "rd");
        let lu = pivoting::PivotedLu::new(&s).unwrap();
        assert_close(&lu.solve(s.rhs()).unwrap(), &dense, 1e-9, "pivoted");
    }
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(32))]

    /// The pivoting solver agrees with dense elimination even on wild,
    /// non-dominant matrices (where the pivot-free algorithms have no
    /// guarantees at all).
    #[test]
    fn pivoted_lu_matches_dense_on_wild_matrices(n in 2usize..60, seed in any::<u64>()) {
        let mut rng = StdRng::seed_from_u64(seed);
        let mut g = || rng.gen_range(-3.0f64..3.0);
        let s = TridiagonalSystem::new(
            (0..n).map(|_| g()).collect(),
            (0..n).map(|_| g()).collect(),
            (0..n).map(|_| g()).collect(),
            (0..n).map(|_| g()).collect(),
        ).unwrap();
        let (m, b) = densify(&s);
        let Some(dense) = dense_solve(m, b) else { return Ok(()); };
        // Only compare when the matrix is reasonably conditioned — both
        // solvers lose digits together on near-singular draws.
        let scale = dense.iter().fold(0.0f64, |a, v| a.max(v.abs()));
        prop_assume!(scale < 1e6);
        if let Ok(lu) = pivoting::PivotedLu::new(&s) {
            let x = lu.solve(s.rhs()).unwrap();
            for i in 0..n {
                prop_assert!(
                    (x[i] - dense[i]).abs() < 1e-6 * scale.max(1.0),
                    "row {}: {} vs {}", i, x[i], dense[i]
                );
            }
        }
    }
}
