//! A single tridiagonal system `A x = d` (Eq. 1 of the paper).
//!
//! The matrix is stored as three diagonals:
//!
//! - `lower[i]` = `a_{i+1}` — the sub-diagonal; `lower[0]` corresponds to
//!   row 1. By convention `a_1` does not exist, so row 0 never reads it.
//! - `diag[i]`  = `b_{i+1}` — the main diagonal.
//! - `upper[i]` = `c_{i+1}` — the super-diagonal; row `n-1` never reads it.
//!
//! Internally all four arrays (including the right-hand side `rhs`) have
//! length `n`, with `lower[0]` and `upper[n-1]` fixed at zero. Keeping
//! uniform lengths lets every parallel algorithm index rows without
//! boundary special-casing — the same convention the GPU kernels use,
//! where out-of-range neighbours are represented by zero coefficients.

use crate::error::{Result, TridiagError};
use crate::scalar::Scalar;

/// An `n`-unknown tridiagonal system `A x = d`.
#[derive(Debug, Clone, PartialEq)]
pub struct TridiagonalSystem<S: Scalar> {
    lower: Vec<S>,
    diag: Vec<S>,
    upper: Vec<S>,
    rhs: Vec<S>,
}

impl<S: Scalar> TridiagonalSystem<S> {
    /// Build a system from its diagonals and right-hand side.
    ///
    /// All four slices must have length `n >= 1`. `lower[0]` and
    /// `upper[n-1]` are forced to zero (they lie outside the matrix).
    ///
    /// # Errors
    /// [`TridiagError::EmptySystem`] for `n == 0`,
    /// [`TridiagError::LengthMismatch`] for inconsistent lengths.
    pub fn new(lower: Vec<S>, diag: Vec<S>, upper: Vec<S>, rhs: Vec<S>) -> Result<Self> {
        let n = diag.len();
        if n == 0 {
            return Err(TridiagError::EmptySystem);
        }
        for (arr, what) in [(&lower, "lower"), (&upper, "upper"), (&rhs, "rhs")] {
            if arr.len() != n {
                return Err(TridiagError::LengthMismatch {
                    expected: n,
                    found: arr.len(),
                    what,
                });
            }
        }
        let mut sys = Self {
            lower,
            diag,
            upper,
            rhs,
        };
        sys.lower[0] = S::ZERO;
        sys.upper[n - 1] = S::ZERO;
        Ok(sys)
    }

    /// A system with all-zero coefficients, useful as a buffer to fill.
    pub fn zeros(n: usize) -> Result<Self> {
        if n == 0 {
            return Err(TridiagError::EmptySystem);
        }
        Ok(Self {
            lower: vec![S::ZERO; n],
            diag: vec![S::ZERO; n],
            upper: vec![S::ZERO; n],
            rhs: vec![S::ZERO; n],
        })
    }

    /// Number of unknowns.
    #[inline]
    pub fn len(&self) -> usize {
        self.diag.len()
    }

    /// `true` if the system has no unknowns (never true for a
    /// successfully constructed system).
    #[inline]
    pub fn is_empty(&self) -> bool {
        self.diag.is_empty()
    }

    /// Sub-diagonal (`a`), length `n`, entry 0 is always zero.
    #[inline]
    pub fn lower(&self) -> &[S] {
        &self.lower
    }

    /// Main diagonal (`b`), length `n`.
    #[inline]
    pub fn diag(&self) -> &[S] {
        &self.diag
    }

    /// Super-diagonal (`c`), length `n`, entry `n-1` is always zero.
    #[inline]
    pub fn upper(&self) -> &[S] {
        &self.upper
    }

    /// Right-hand side (`d`), length `n`.
    #[inline]
    pub fn rhs(&self) -> &[S] {
        &self.rhs
    }

    /// Mutable right-hand side, e.g. for time-stepping applications that
    /// reuse the factorised operator with fresh data each step.
    #[inline]
    pub fn rhs_mut(&mut self) -> &mut [S] {
        &mut self.rhs
    }

    /// Decompose into `(lower, diag, upper, rhs)` vectors.
    pub fn into_parts(self) -> (Vec<S>, Vec<S>, Vec<S>, Vec<S>) {
        (self.lower, self.diag, self.upper, self.rhs)
    }

    /// Borrow all four arrays at once: `(lower, diag, upper, rhs)`.
    pub fn parts(&self) -> (&[S], &[S], &[S], &[S]) {
        (&self.lower, &self.diag, &self.upper, &self.rhs)
    }

    /// Row `i` as an equation `(a_i, b_i, c_i, d_i)` with the zero
    /// convention at the boundaries.
    #[inline]
    pub fn row(&self, i: usize) -> (S, S, S, S) {
        (self.lower[i], self.diag[i], self.upper[i], self.rhs[i])
    }

    /// Matrix-vector product `A x` (used to compute residuals).
    pub fn apply(&self, x: &[S]) -> Result<Vec<S>> {
        let n = self.len();
        if x.len() != n {
            return Err(TridiagError::LengthMismatch {
                expected: n,
                found: x.len(),
                what: "x",
            });
        }
        let mut y = vec![S::ZERO; n];
        for i in 0..n {
            let mut acc = self.diag[i] * x[i];
            if i > 0 {
                acc += self.lower[i] * x[i - 1];
            }
            if i + 1 < n {
                acc += self.upper[i] * x[i + 1];
            }
            y[i] = acc;
        }
        Ok(y)
    }

    /// Relative residual `‖A x − d‖_∞ / max(‖d‖_∞, 1)` accumulated in
    /// `f64` regardless of `S` so that `f32` systems get a trustworthy
    /// measurement.
    ///
    /// Any non-finite `x_i`, `(A x)_i` or residual term scores
    /// `f64::INFINITY`: `f64::max` drops NaN, so without this check a
    /// NaN solution would score 0.0 and pass every tolerance.
    pub fn relative_residual(&self, x: &[S]) -> Result<f64> {
        let ax = self.apply(x)?;
        let mut num: f64 = 0.0;
        let mut den: f64 = 1.0;
        for ((xi, axi), di) in x.iter().zip(&ax).zip(&self.rhs) {
            let term = (axi.to_f64() - di.to_f64()).abs();
            if !(xi.is_finite() && axi.is_finite() && term.is_finite()) {
                return Ok(f64::INFINITY);
            }
            num = num.max(term);
            den = den.max(di.to_f64().abs());
        }
        Ok(num / den)
    }

    /// `true` when the matrix is strictly diagonally dominant by rows:
    /// `|b_i| > |a_i| + |c_i|` for all rows. The pivot-free eliminations
    /// used throughout the paper (Thomas, CR, PCR) are unconditionally
    /// stable on such systems.
    pub fn is_diagonally_dominant(&self) -> bool {
        (0..self.len()).all(|i| {
            self.diag[i].abs() > self.lower[i].abs() + self.upper[i].abs()
        })
    }

    /// Check every coefficient is finite; returns the first bad row.
    pub fn check_finite(&self) -> Result<()> {
        for i in 0..self.len() {
            let (a, b, c, d) = self.row(i);
            if !(a.is_finite() && b.is_finite() && c.is_finite() && d.is_finite()) {
                return Err(TridiagError::NonFinite { row: i });
            }
        }
        Ok(())
    }

    /// Convert the scalar type (e.g. build in `f64`, solve in `f32`).
    pub fn cast<T: Scalar>(&self) -> TridiagonalSystem<T> {
        let conv = |v: &[S]| v.iter().map(|x| T::from_f64(x.to_f64())).collect();
        TridiagonalSystem {
            lower: conv(&self.lower),
            diag: conv(&self.diag),
            upper: conv(&self.upper),
            rhs: conv(&self.rhs),
        }
    }

    /// Extract the sub-system made of rows `start, start+stride, ...`
    /// taking coefficients verbatim. This is how PCR's interleaved
    /// subsystems are materialised for independent solving: after `k`
    /// PCR steps, rows congruent mod `2^k` form an independent system.
    pub fn gather_strided(&self, start: usize, stride: usize) -> Result<TridiagonalSystem<S>> {
        if start >= self.len() || stride == 0 {
            return Err(TridiagError::IndexOutOfBounds {
                index: start,
                len: self.len(),
            });
        }
        let idx: Vec<usize> = (start..self.len()).step_by(stride).collect();
        let pick = |v: &[S]| idx.iter().map(|&i| v[i]).collect::<Vec<_>>();
        let mut sub = TridiagonalSystem {
            lower: pick(&self.lower),
            diag: pick(&self.diag),
            upper: pick(&self.upper),
            rhs: pick(&self.rhs),
        };
        let m = sub.len();
        sub.lower[0] = S::ZERO;
        sub.upper[m - 1] = S::ZERO;
        Ok(sub)
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn sample() -> TridiagonalSystem<f64> {
        // 4x4 from the paper's Fig. 1 shape: dominant diagonal.
        TridiagonalSystem::new(
            vec![0.0, 1.0, 1.0, 1.0],
            vec![4.0, 4.0, 4.0, 4.0],
            vec![1.0, 1.0, 1.0, 0.0],
            vec![6.0, 12.0, 18.0, 19.0],
        )
        .unwrap()
    }

    #[test]
    fn construction_validates_lengths() {
        let err = TridiagonalSystem::<f64>::new(vec![0.0], vec![1.0, 2.0], vec![0.0, 0.0], vec![1.0, 1.0])
            .unwrap_err();
        assert!(matches!(
            err,
            TridiagError::LengthMismatch { what: "lower", .. }
        ));
        let err =
            TridiagonalSystem::<f64>::new(vec![], vec![], vec![], vec![]).unwrap_err();
        assert_eq!(err, TridiagError::EmptySystem);
    }

    #[test]
    fn boundary_coefficients_are_zeroed() {
        let s = TridiagonalSystem::new(
            vec![9.0, 1.0],
            vec![4.0, 4.0],
            vec![1.0, 9.0],
            vec![1.0, 1.0],
        )
        .unwrap();
        assert_eq!(s.lower()[0], 0.0);
        assert_eq!(s.upper()[1], 0.0);
    }

    #[test]
    fn apply_matches_dense_multiply() {
        let s = sample();
        let x = vec![1.0, 2.0, 3.0, 4.0];
        // Dense A for the sample system.
        let a = [
            [4.0, 1.0, 0.0, 0.0],
            [1.0, 4.0, 1.0, 0.0],
            [0.0, 1.0, 4.0, 1.0],
            [0.0, 0.0, 1.0, 4.0],
        ];
        let expect: Vec<f64> = a
            .iter()
            .map(|row| row.iter().zip(&x).map(|(r, xv)| r * xv).sum())
            .collect();
        assert_eq!(s.apply(&x).unwrap(), expect);
    }

    #[test]
    fn apply_rejects_bad_length() {
        let s = sample();
        assert!(matches!(
            s.apply(&[1.0]).unwrap_err(),
            TridiagError::LengthMismatch { what: "x", .. }
        ));
    }

    #[test]
    fn residual_zero_for_exact_solution() {
        let s = sample();
        // x = (1, 2, 3, 4) gives rhs (6, 12, 18, 19) exactly.
        let r = s.relative_residual(&[1.0, 2.0, 3.0, 4.0]).unwrap();
        assert_eq!(r, 0.0);
    }

    #[test]
    fn diagonal_dominance_detection() {
        assert!(sample().is_diagonally_dominant());
        let weak = TridiagonalSystem::new(
            vec![0.0, 2.0],
            vec![2.0, 2.0],
            vec![2.0, 0.0],
            vec![1.0, 1.0],
        )
        .unwrap();
        assert!(!weak.is_diagonally_dominant());
    }

    #[test]
    fn check_finite_flags_bad_rows() {
        let mut s = sample();
        s.rhs_mut()[2] = f64::NAN;
        assert_eq!(s.check_finite().unwrap_err(), TridiagError::NonFinite { row: 2 });
    }

    #[test]
    fn cast_round_trip_is_close() {
        let s = sample();
        let s32: TridiagonalSystem<f32> = s.cast();
        let back: TridiagonalSystem<f64> = s32.cast();
        for i in 0..s.len() {
            assert!((back.diag()[i] - s.diag()[i]).abs() < 1e-6);
        }
        assert_eq!(s32.len(), 4);
    }

    #[test]
    fn gather_strided_extracts_even_rows() {
        let s = sample();
        let even = s.gather_strided(0, 2).unwrap();
        assert_eq!(even.len(), 2);
        assert_eq!(even.diag(), &[4.0, 4.0]);
        assert_eq!(even.rhs(), &[6.0, 18.0]);
        // Boundary zeroing applied to the gathered system.
        assert_eq!(even.lower()[0], 0.0);
        assert_eq!(even.upper()[1], 0.0);
    }

    #[test]
    fn gather_strided_rejects_bad_start() {
        let s = sample();
        assert!(s.gather_strided(4, 2).is_err());
        assert!(s.gather_strided(0, 0).is_err());
    }

    #[test]
    fn single_unknown_system() {
        let s = TridiagonalSystem::new(vec![5.0], vec![2.0], vec![5.0], vec![8.0]).unwrap();
        assert_eq!(s.len(), 1);
        assert_eq!(s.lower()[0], 0.0);
        assert_eq!(s.upper()[0], 0.0);
        assert_eq!(s.apply(&[4.0]).unwrap(), vec![8.0]);
    }

    #[test]
    fn zeros_builder() {
        let z = TridiagonalSystem::<f32>::zeros(3).unwrap();
        assert_eq!(z.len(), 3);
        assert!(z.diag().iter().all(|&v| v == 0.0));
        assert!(TridiagonalSystem::<f32>::zeros(0).is_err());
    }
}
