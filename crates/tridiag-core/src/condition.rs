//! Conditioning diagnostics for tridiagonal systems.
//!
//! The paper's algorithms are pivot-free, which is only safe on
//! well-conditioned (e.g. diagonally dominant) systems. This module
//! gives users the tools to *check* before they trust a fast solve:
//!
//! - [`infinity_norm`] — `‖A‖_∞` directly from the diagonals;
//! - [`inverse_norm_estimate`] — Higham-style `‖A⁻¹‖_∞` lower-bound
//!   estimation via a few transpose-solve iterations (each is one
//!   Thomas solve — `O(n)`);
//! - [`condition_estimate`] — their product, `κ_∞(A)`;
//! - [`dominance_margin`] — the worst-row diagonal-dominance slack,
//!   the cheap a-priori check.

use crate::error::Result;
use crate::scalar::Scalar;
use crate::system::TridiagonalSystem;
use crate::thomas::{self, ThomasScratch};

/// `‖A‖_∞`: the largest absolute row sum.
pub fn infinity_norm<S: Scalar>(system: &TridiagonalSystem<S>) -> f64 {
    let (a, b, c, _) = system.parts();
    (0..system.len())
        .map(|i| a[i].abs().to_f64() + b[i].abs().to_f64() + c[i].abs().to_f64())
        .fold(0.0, f64::max)
}

/// Worst-row diagonal dominance margin `min_i (|b_i| − |a_i| − |c_i|)`.
/// Positive = strictly dominant (pivot-free elimination safe); the more
/// negative, the more the system needs pivoting that the paper's
/// algorithms (and MKL's `gtsv` alternatives like `dttrfb`) do not do.
pub fn dominance_margin<S: Scalar>(system: &TridiagonalSystem<S>) -> f64 {
    let (a, b, c, _) = system.parts();
    (0..system.len())
        .map(|i| b[i].abs().to_f64() - a[i].abs().to_f64() - c[i].abs().to_f64())
        .fold(f64::INFINITY, f64::min)
}

/// The transposed system (for the norm estimator's `Aᵀ y = w` solves):
/// transposing a tridiagonal matrix swaps the sub/super diagonals.
fn transpose<S: Scalar>(
    system: &TridiagonalSystem<S>,
    rhs: Vec<S>,
) -> Result<TridiagonalSystem<S>> {
    let (a, b, c, _) = system.parts();
    let n = system.len();
    // New lower row i = old upper row i-1; new upper row i = old lower i+1.
    let mut lower = vec![S::ZERO; n];
    let mut upper = vec![S::ZERO; n];
    lower[1..n].copy_from_slice(&c[..n - 1]);
    upper[..n - 1].copy_from_slice(&a[1..n]);
    TridiagonalSystem::new(lower, b.to_vec(), upper, rhs)
}

/// Hager/Higham `‖A⁻¹‖_∞` estimate: a lower bound that is typically
/// within a small factor of the truth, computed from a handful of
/// `O(n)` solves with `A` and `Aᵀ`.
pub fn inverse_norm_estimate<S: Scalar>(system: &TridiagonalSystem<S>) -> Result<f64> {
    let n = system.len();
    let mut scratch = ThomasScratch::new(n);
    let mut x = vec![S::ZERO; n];

    // Start from the uniform vector.
    let mut v: Vec<S> = vec![S::from_f64(1.0 / n as f64); n];
    let mut best = 0.0f64;
    for _ in 0..5 {
        // x = A⁻ᵀ v  (estimates which row of A⁻¹ is largest).
        let t = transpose(system, v.clone())?;
        thomas::solve_into(&t, &mut x, &mut scratch)?;
        // sign vector of x.
        let w: Vec<S> = x
            .iter()
            .map(|&xi| if xi.to_f64() >= 0.0 { S::ONE } else { -S::ONE })
            .collect();
        // y = A⁻¹ w; the estimate is ‖y‖_∞.
        let sys_w = TridiagonalSystem::new(
            system.lower().to_vec(),
            system.diag().to_vec(),
            system.upper().to_vec(),
            w,
        )?;
        thomas::solve_into(&sys_w, &mut x, &mut scratch)?;
        let (norm, arg) = x
            .iter()
            .enumerate()
            .map(|(i, &xi)| (xi.abs().to_f64(), i))
            .fold(
                (0.0, 0usize),
                |acc, (v, i)| if v > acc.0 { (v, i) } else { acc },
            );
        if norm <= best {
            break;
        }
        best = norm;
        // Next direction: the canonical vector at the maximizing row.
        v = vec![S::ZERO; n];
        v[arg] = S::ONE;
    }
    Ok(best)
}

/// Estimated `κ_∞(A) = ‖A‖_∞ · ‖A⁻¹‖_∞`.
pub fn condition_estimate<S: Scalar>(system: &TridiagonalSystem<S>) -> Result<f64> {
    Ok(infinity_norm(system) * inverse_norm_estimate(system)?)
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::generators::{dominant_random, near_singular, poisson_1d};

    #[test]
    fn norm_of_identity_like() {
        let s =
            TridiagonalSystem::new(vec![0.0; 4], vec![2.0; 4], vec![0.0; 4], vec![1.0; 4]).unwrap();
        assert_eq!(infinity_norm(&s), 2.0);
        // A = 2I: inverse norm 0.5, condition 1.
        let k = condition_estimate(&s).unwrap();
        assert!((k - 1.0).abs() < 1e-12, "k = {k}");
    }

    #[test]
    fn dominance_margin_signs() {
        assert!(dominance_margin(&dominant_random::<f64>(64, 1)) > 0.0);
        let weak = poisson_1d::<f64>(&[1.0; 8]);
        // -1,2,-1 interior rows: margin exactly 0.
        assert!(dominance_margin(&weak).abs() < 1e-12);
        let bad = near_singular::<f64>(16, 7, 1e-8, 2);
        assert!(dominance_margin(&bad) < 0.0);
    }

    #[test]
    fn poisson_condition_grows_quadratically() {
        // κ(Poisson_n) ≈ (2/π)² (n+1)² — the classic result; the
        // estimator must track the n² growth.
        let k64 = condition_estimate(&poisson_1d::<f64>(&vec![1.0; 64])).unwrap();
        let k256 = condition_estimate(&poisson_1d::<f64>(&vec![1.0; 256])).unwrap();
        let growth = k256 / k64;
        assert!(
            (8.0..32.0).contains(&growth),
            "expected ~16x growth for 4x size, got {growth:.1} (k64={k64:.1}, k256={k256:.1})"
        );
        // Absolute ballpark: 4/π²·65² ≈ 1712.
        assert!((500.0..6000.0).contains(&k64), "k64 = {k64}");
    }

    #[test]
    fn near_singular_detected_by_estimator() {
        let healthy = condition_estimate(&dominant_random::<f64>(128, 3)).unwrap();
        assert!(healthy < 100.0, "healthy κ = {healthy}");

        // A genuinely near-singular matrix: the Poisson operator shifted
        // by (almost) its own smallest eigenvalue 4 sin²(π / (2(n+1))).
        let n = 128usize;
        let lam1 = 4.0
            * (std::f64::consts::PI / (2.0 * (n as f64 + 1.0)))
                .sin()
                .powi(2);
        let shifted = TridiagonalSystem::new(
            vec![-1.0; n],
            vec![2.0 - lam1 * (1.0 - 1e-9); n],
            vec![-1.0; n],
            vec![1.0; n],
        )
        .unwrap();
        let sick = condition_estimate(&shifted).unwrap();
        assert!(sick > 1e6, "sick κ = {sick}");

        // A tiny *diagonal entry* alone is a dominance failure but not
        // necessarily ill conditioning — the margin check flags it, the
        // condition number stays honest.
        let weak_row = near_singular::<f64>(128, 60, 1e-10, 3);
        assert!(dominance_margin(&weak_row) < 0.0);
    }

    #[test]
    fn transpose_round_trip() {
        let s = dominant_random::<f64>(16, 4);
        let t = transpose(&s, s.rhs().to_vec()).unwrap();
        let tt = transpose(&t, s.rhs().to_vec()).unwrap();
        assert_eq!(tt.lower(), s.lower());
        assert_eq!(tt.upper(), s.upper());
        // Aᵀ really is the transpose: (Aᵀ)_{i,i+1} = A_{i+1,i}.
        assert_eq!(t.upper()[0], s.lower()[1]);
        assert_eq!(t.lower()[1], s.upper()[0]);
    }
}
