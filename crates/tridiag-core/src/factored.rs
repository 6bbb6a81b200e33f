//! Factor-once / solve-many for constant operators (the `dgttrf` /
//! `dgttrs` split of LAPACK).
//!
//! Time-stepping applications (Crank–Nicolson heat flow, ADI sweeps,
//! option pricing — the paper's motivating workloads) solve with the
//! *same* matrix thousands of times and only the right-hand side
//! changes. The Thomas forward pass factors `A = L·U` implicitly; this
//! module stores that factorisation so each subsequent solve is a pure
//! two-sweep substitution — about half the work and no divisions.

use crate::error::{Result, TridiagError};
use crate::scalar::Scalar;
use crate::system::TridiagonalSystem;

/// The pivot-free LU factorisation of a tridiagonal matrix.
///
/// Stores `l[i] = a_i / u_{i-1}` (the elimination multipliers) and the
/// reciprocal pivots `inv_u[i] = 1 / (b_i − l_i·c_{i−1})`, plus the
/// unchanged super-diagonal. A solve is then one forward sweep
/// (`y_i = d_i − l_i·y_{i−1}`) and one backward sweep
/// (`x_i = (y_i − c_i·x_{i+1})·inv_u_i`) — no divisions in the loop.
#[derive(Debug, Clone, PartialEq)]
pub struct FactoredTridiagonal<S: Scalar> {
    l: Vec<S>,
    inv_u: Vec<S>,
    upper: Vec<S>,
}

impl<S: Scalar> FactoredTridiagonal<S> {
    /// Factor the matrix of `system` (its RHS is ignored).
    ///
    /// ```
    /// use tridiag_core::factored::FactoredTridiagonal;
    /// use tridiag_core::generators;
    /// let s = generators::dominant_random::<f64>(64, 1);
    /// let f = FactoredTridiagonal::new(&s).unwrap();
    /// // Solve many right-hand sides against one factorisation.
    /// for step in 0..3 {
    ///     let d: Vec<f64> = (0..64).map(|i| ((i + step) as f64).cos()).collect();
    ///     let x = f.solve(&d).unwrap();
    ///     assert_eq!(x.len(), 64);
    /// }
    /// ```
    ///
    /// # Errors
    /// [`TridiagError::ZeroPivot`] on breakdown (pivot-free elimination;
    /// diagonally dominant inputs always succeed).
    pub fn new(system: &TridiagonalSystem<S>) -> Result<Self> {
        let (a, b, c, _) = system.parts();
        let n = system.len();
        let mut l = vec![S::ZERO; n];
        let mut inv_u = vec![S::ZERO; n];
        if b[0] == S::ZERO {
            return Err(TridiagError::ZeroPivot { row: 0 });
        }
        inv_u[0] = S::ONE / b[0];
        for i in 1..n {
            l[i] = a[i] * inv_u[i - 1];
            let u = b[i] - l[i] * c[i - 1];
            if u == S::ZERO {
                return Err(TridiagError::ZeroPivot { row: i });
            }
            if !u.is_finite() {
                return Err(TridiagError::NonFinite { row: i });
            }
            inv_u[i] = S::ONE / u;
        }
        Ok(Self {
            l,
            inv_u,
            upper: c.to_vec(),
        })
    }

    /// Number of unknowns.
    pub fn len(&self) -> usize {
        self.l.len()
    }

    /// `true` if the factorisation is empty (cannot occur).
    pub fn is_empty(&self) -> bool {
        self.l.is_empty()
    }

    /// Solve `A x = d` into `x` (both length `n`). `d` and `x` may be
    /// the same buffer via [`FactoredTridiagonal::solve_in_place`].
    pub fn solve_into(&self, d: &[S], x: &mut [S]) -> Result<()> {
        let n = self.len();
        if d.len() != n || x.len() != n {
            return Err(TridiagError::LengthMismatch {
                expected: n,
                found: d.len().min(x.len()),
                what: "rhs",
            });
        }
        // Forward: y = L⁻¹ d (stored into x).
        x[0] = d[0];
        for i in 1..n {
            x[i] = d[i] - self.l[i] * x[i - 1];
        }
        // Backward: x = U⁻¹ y.
        x[n - 1] *= self.inv_u[n - 1];
        for i in (0..n - 1).rev() {
            x[i] = (x[i] - self.upper[i] * x[i + 1]) * self.inv_u[i];
        }
        Ok(())
    }

    /// Solve with `d` given in `x`, overwriting it with the solution.
    pub fn solve_in_place(&self, x: &mut [S]) -> Result<()> {
        let n = self.len();
        if x.len() != n {
            return Err(TridiagError::LengthMismatch {
                expected: n,
                found: x.len(),
                what: "rhs",
            });
        }
        for i in 1..n {
            x[i] -= self.l[i] * x[i - 1];
        }
        x[n - 1] *= self.inv_u[n - 1];
        for i in (0..n - 1).rev() {
            x[i] = (x[i] - self.upper[i] * x[i + 1]) * self.inv_u[i];
        }
        Ok(())
    }

    /// Allocate-and-return convenience solve.
    pub fn solve(&self, d: &[S]) -> Result<Vec<S>> {
        let mut x = vec![S::ZERO; self.len()];
        self.solve_into(d, &mut x)?;
        Ok(x)
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::generators::dominant_random;
    use crate::thomas;

    #[test]
    fn factored_solve_matches_thomas() {
        for n in [1usize, 2, 17, 256, 2000] {
            let s = dominant_random::<f64>(n, n as u64);
            let f = FactoredTridiagonal::new(&s).unwrap();
            let xf = f.solve(s.rhs()).unwrap();
            let xt = thomas::solve_typed(&s).unwrap();
            for i in 0..n {
                assert!(
                    (xf[i] - xt[i]).abs() < 1e-10 * xt[i].abs().max(1.0),
                    "n={n} row {i}"
                );
            }
        }
    }

    #[test]
    fn many_rhs_reuse() {
        let s = dominant_random::<f64>(128, 7);
        let f = FactoredTridiagonal::new(&s).unwrap();
        let mut x = vec![0.0; 128];
        for step in 0..50 {
            let d: Vec<f64> = (0..128).map(|i| ((i + step) as f64).sin()).collect();
            f.solve_into(&d, &mut x).unwrap();
            // Residual against a system sharing the matrix with RHS d.
            let sys = TridiagonalSystem::new(
                s.lower().to_vec(),
                s.diag().to_vec(),
                s.upper().to_vec(),
                d,
            )
            .unwrap();
            assert!(sys.relative_residual(&x).unwrap() < 1e-11, "step {step}");
        }
    }

    #[test]
    fn in_place_matches_out_of_place() {
        let s = dominant_random::<f64>(64, 9);
        let f = FactoredTridiagonal::new(&s).unwrap();
        let out = f.solve(s.rhs()).unwrap();
        let mut inp = s.rhs().to_vec();
        f.solve_in_place(&mut inp).unwrap();
        assert_eq!(out, inp);
    }

    #[test]
    fn zero_pivot_on_factor() {
        let s = TridiagonalSystem::new(
            vec![0.0, 1.0],
            vec![0.0, 1.0],
            vec![1.0, 0.0],
            vec![1.0, 1.0],
        )
        .unwrap();
        assert!(matches!(
            FactoredTridiagonal::new(&s).unwrap_err(),
            TridiagError::ZeroPivot { row: 0 }
        ));
    }

    #[test]
    fn length_validation() {
        let s = dominant_random::<f64>(8, 1);
        let f = FactoredTridiagonal::new(&s).unwrap();
        assert!(f.solve(&[1.0; 7]).is_err());
        let mut x = vec![0.0; 9];
        assert!(f.solve_in_place(&mut x).is_err());
        assert_eq!(f.len(), 8);
        assert!(!f.is_empty());
    }
}
