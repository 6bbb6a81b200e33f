//! Partial-pivoting LU for tridiagonal systems, and a robust
//! auto-dispatching solve.
//!
//! Everything the paper accelerates is **pivot-free** — valid for the
//! diagonally dominant systems its applications produce, and the reason
//! the GPU algorithms decompose so cleanly. A production library still
//! needs a safe path for everything else: this module implements the
//! LAPACK `dgttrf`-style elimination with row partial pivoting (which
//! introduces a *second* super-diagonal as rows swap) and
//! [`solve_robust`], which routes dominant systems to the fast
//! pivot-free path and the rest here.

use crate::condition::dominance_margin;
use crate::error::{Result, TridiagError};
use crate::scalar::Scalar;
use crate::system::TridiagonalSystem;
use crate::thomas;

/// LU factorisation of a tridiagonal matrix with row partial pivoting
/// (`dgttrf` layout: two upper diagonals appear after swapping).
#[derive(Debug, Clone, PartialEq)]
pub struct PivotedLu<S: Scalar> {
    /// Elimination multipliers `l[i]` applied to row `i`.
    l: Vec<S>,
    /// Main diagonal of `U`.
    u0: Vec<S>,
    /// First super-diagonal of `U`.
    u1: Vec<S>,
    /// Second super-diagonal of `U` (created by row swaps).
    u2: Vec<S>,
    /// `swapped[i]` — whether rows `i` and `i+1` were exchanged at
    /// elimination step `i`.
    swapped: Vec<bool>,
}

impl<S: Scalar> PivotedLu<S> {
    /// Factor the matrix of `system` (RHS ignored).
    ///
    /// Never fails on a merely *indefinite* matrix; only an exactly
    /// singular leading structure produces [`TridiagError::ZeroPivot`].
    pub fn new(system: &TridiagonalSystem<S>) -> Result<Self> {
        let (a, b, c, _) = system.parts();
        let n = system.len();
        // Working copies of the active band: d0 = current diagonal entry
        // of the pivot row, d1/d2 its two supers; sub = subdiagonal entry
        // below the pivot.
        let mut u0 = b.to_vec();
        let mut u1 = c.to_vec(); // u1[i] couples row i to i+1
        let mut u2 = vec![S::ZERO; n];
        let mut l = vec![S::ZERO; n];
        let mut swapped = vec![false; n];

        for i in 0..n.saturating_sub(1) {
            let sub = a[i + 1]; // entry (i+1, i) before elimination
            if sub.abs() > u0[i].abs() {
                // Swap rows i and i+1 for the larger pivot.
                swapped[i] = true;
                let (p0, p1) = (u0[i], u1[i]);
                // Row i+1 becomes the pivot row: (sub, u0[i+1], u1[i+1]).
                u0[i] = sub;
                u1[i] = u0[i + 1];
                u2[i] = u1[i + 1];
                // The old row i becomes the eliminated row.
                if u0[i] == S::ZERO {
                    return Err(TridiagError::ZeroPivot { row: i });
                }
                let m = p0 / u0[i];
                l[i + 1] = m;
                u0[i + 1] = p1 - m * u1[i];
                u1[i + 1] = -(m * u2[i]); // old row i had no 2nd super
            } else {
                if u0[i] == S::ZERO {
                    return Err(TridiagError::ZeroPivot { row: i });
                }
                let m = sub / u0[i];
                l[i + 1] = m;
                u0[i + 1] -= m * u1[i];
                // u1[i+1], u2[i] unchanged (u2[i] stays zero).
            }
            if !u0[i + 1].is_finite() {
                return Err(TridiagError::NonFinite { row: i + 1 });
            }
        }
        if u0[n - 1] == S::ZERO {
            return Err(TridiagError::ZeroPivot { row: n - 1 });
        }
        Ok(Self {
            l,
            u0,
            u1,
            u2,
            swapped,
        })
    }

    /// Number of unknowns.
    pub fn len(&self) -> usize {
        self.u0.len()
    }

    /// `true` if empty (cannot occur via the constructor).
    pub fn is_empty(&self) -> bool {
        self.u0.is_empty()
    }

    /// How many row exchanges pivoting performed — 0 means the
    /// pivot-free path would have been identical.
    pub fn swap_count(&self) -> usize {
        self.swapped.iter().filter(|&&s| s).count()
    }

    /// Solve `A x = d`.
    pub fn solve(&self, d: &[S]) -> Result<Vec<S>> {
        let n = self.len();
        if d.len() != n {
            return Err(TridiagError::LengthMismatch {
                expected: n,
                found: d.len(),
                what: "rhs",
            });
        }
        // Forward: apply the same swaps and eliminations to d.
        let mut y = d.to_vec();
        for i in 0..n.saturating_sub(1) {
            if self.swapped[i] {
                y.swap(i, i + 1);
            }
            let yi = y[i];
            y[i + 1] -= self.l[i + 1] * yi;
        }
        // Backward: U has two super-diagonals.
        let mut x = vec![S::ZERO; n];
        for i in (0..n).rev() {
            let mut acc = y[i];
            if i + 1 < n {
                acc -= self.u1[i] * x[i + 1];
            }
            if i + 2 < n {
                acc -= self.u2[i] * x[i + 2];
            }
            x[i] = acc / self.u0[i];
            if !x[i].is_finite() {
                return Err(TridiagError::NonFinite { row: i });
            }
        }
        Ok(x)
    }
}

/// Solve with automatic algorithm selection: strictly diagonally
/// dominant systems take the pivot-free Thomas fast path (what the
/// paper's GPU pipeline accelerates); everything else takes the
/// partial-pivoting path. Returns the solution and whether pivoting was
/// used.
/// ```
/// use tridiag_core::pivoting::solve_robust;
/// use tridiag_core::TridiagonalSystem;
/// // Zero diagonal: pivot-free elimination dies, pivoting does not.
/// let s = TridiagonalSystem::new(
///     vec![1.0; 8], vec![0.0; 8], vec![1.0; 8], vec![1.0; 8],
/// ).unwrap();
/// let (x, pivoted) = solve_robust(&s).unwrap();
/// assert!(pivoted);
/// assert!(s.relative_residual(&x).unwrap() < 1e-10);
/// ```
pub fn solve_robust<S: Scalar>(system: &TridiagonalSystem<S>) -> Result<(Vec<S>, bool)> {
    if dominance_margin(system) > 0.0 {
        Ok((thomas::solve_typed(system)?, false))
    } else {
        let lu = PivotedLu::new(system)?;
        Ok((lu.solve(system.rhs())?, true))
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::generators::dominant_random;
    use rand::rngs::StdRng;
    use rand::{Rng, SeedableRng};

    /// A random system with NO dominance guarantee — the kind that
    /// breaks pivot-free elimination.
    fn wild(n: usize, seed: u64) -> TridiagonalSystem<S64> {
        let mut rng = StdRng::seed_from_u64(seed);
        let g = |rng: &mut StdRng| rng.gen_range(-2.0..2.0);
        let lower: Vec<f64> = (0..n).map(|_| g(&mut rng)).collect();
        let diag: Vec<f64> = (0..n).map(|_| g(&mut rng)).collect();
        let upper: Vec<f64> = (0..n).map(|_| g(&mut rng)).collect();
        let rhs: Vec<f64> = (0..n).map(|_| g(&mut rng)).collect();
        TridiagonalSystem::new(lower, diag, upper, rhs).unwrap()
    }
    type S64 = f64;

    #[test]
    fn matches_thomas_on_dominant_systems() {
        for n in [1usize, 2, 33, 500] {
            let s = dominant_random::<f64>(n, n as u64);
            let lu = PivotedLu::new(&s).unwrap();
            let x = lu.solve(s.rhs()).unwrap();
            let xt = thomas::solve_typed(&s).unwrap();
            for i in 0..n {
                assert!(
                    (x[i] - xt[i]).abs() < 1e-9 * xt[i].abs().max(1.0),
                    "n={n} row {i}"
                );
            }
        }
    }

    #[test]
    fn solves_wild_systems_thomas_cannot_trust() {
        let mut pivoted_at_least_once = false;
        for seed in 0..40u64 {
            let s = wild(64, seed);
            match PivotedLu::new(&s) {
                Ok(lu) => {
                    if lu.swap_count() > 0 {
                        pivoted_at_least_once = true;
                    }
                    let x = lu.solve(s.rhs()).unwrap();
                    let r = s.relative_residual(&x).unwrap();
                    assert!(r < 1e-7, "seed {seed}: residual {r}");
                }
                Err(TridiagError::ZeroPivot { .. }) => {} // genuinely singular
                Err(e) => panic!("unexpected error {e}"),
            }
        }
        assert!(pivoted_at_least_once, "the wild family must exercise swaps");
    }

    #[test]
    fn handles_zero_diagonal_rows() {
        // b = 0 everywhere but strong off-diagonals: pivot-free dies at
        // row 0; pivoting sails through.
        let n = 16;
        let s = TridiagonalSystem::new(
            vec![1.0; n],
            vec![0.0; n],
            vec![1.0; n],
            (0..n).map(|i| i as f64).collect(),
        )
        .unwrap();
        assert!(thomas::solve_typed(&s).is_err());
        let lu = PivotedLu::new(&s).unwrap();
        assert!(lu.swap_count() > 0);
        let x = lu.solve(s.rhs()).unwrap();
        assert!(s.relative_residual(&x).unwrap() < 1e-10);
    }

    #[test]
    fn robust_dispatch_picks_the_right_path() {
        let dom = dominant_random::<f64>(64, 1);
        let (x, pivoted) = solve_robust(&dom).unwrap();
        assert!(!pivoted);
        assert!(dom.relative_residual(&x).unwrap() < 1e-10);

        let mut tough = wild(64, 3);
        // Ensure it's classified as non-dominant.
        tough.rhs_mut()[0] += 0.0;
        let (x2, pivoted2) = solve_robust(&tough).unwrap();
        assert!(pivoted2);
        assert!(tough.relative_residual(&x2).unwrap() < 1e-7);
    }

    #[test]
    fn singular_matrix_reports_zero_pivot() {
        let s = TridiagonalSystem::new(
            vec![0.0, 0.0],
            vec![0.0, 1.0],
            vec![0.0, 0.0],
            vec![1.0, 1.0],
        )
        .unwrap();
        assert!(matches!(
            PivotedLu::new(&s).unwrap_err(),
            TridiagError::ZeroPivot { .. }
        ));
    }

    #[test]
    fn rhs_length_checked() {
        let s = dominant_random::<f64>(8, 2);
        let lu = PivotedLu::new(&s).unwrap();
        assert!(lu.solve(&[1.0; 7]).is_err());
        assert_eq!(lu.len(), 8);
        assert!(!lu.is_empty());
    }
}
