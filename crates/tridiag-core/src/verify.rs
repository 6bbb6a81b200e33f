//! Solution-verification helpers shared by tests, benches and examples.

use crate::batch::SystemBatch;
use crate::error::{Result, TridiagError};
use crate::scalar::Scalar;
use crate::system::TridiagonalSystem;
use crate::thomas;

/// Default residual tolerances per precision, sized for well-conditioned
/// (diagonally dominant) systems of up to a few million unknowns.
pub fn default_tolerance<S: Scalar>() -> f64 {
    // ~1e3 ulps of headroom over machine epsilon.
    S::EPSILON.to_f64() * 1e3
}

/// Outcome of comparing a candidate solution against the Thomas
/// reference.
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct Comparison {
    /// `‖x − x_ref‖_∞ / max(‖x_ref‖_∞, 1)`.
    pub max_relative_error: f64,
    /// Relative residual of the candidate.
    pub residual: f64,
}

/// Compare `x` against a fresh Thomas solve of `system`. A non-finite
/// difference scores `max_relative_error = f64::INFINITY` (as
/// [`TridiagonalSystem::relative_residual`] does), never a pass; an `x`
/// of the wrong length is a [`TridiagError::LengthMismatch`].
pub fn compare_with_thomas<S: Scalar>(
    system: &TridiagonalSystem<S>,
    x: &[S],
) -> Result<Comparison> {
    if x.len() != system.len() {
        return Err(TridiagError::LengthMismatch {
            expected: system.len(),
            found: x.len(),
            what: "x",
        });
    }
    let reference = thomas::solve_typed(system)?;
    let mut err: f64 = 0.0;
    let mut scale: f64 = 1.0;
    for (xi, ri) in x.iter().zip(&reference) {
        // `f64::max` drops NaN, so a non-finite term is scored directly.
        let term = (xi.to_f64() - ri.to_f64()).abs();
        err = if term.is_finite() {
            err.max(term)
        } else {
            f64::INFINITY
        };
        scale = scale.max(ri.to_f64().abs());
    }
    Ok(Comparison {
        max_relative_error: if err.is_finite() {
            err / scale
        } else {
            f64::INFINITY
        },
        residual: system.relative_residual(x)?,
    })
}

/// Assert (via `Result`, not panic) that `x` solves `system` to `tol`.
pub fn check_solution<S: Scalar>(
    system: &TridiagonalSystem<S>,
    x: &[S],
    tol: f64,
) -> Result<Comparison> {
    let cmp = compare_with_thomas(system, x)?;
    if cmp.residual > tol {
        return Err(TridiagError::InvalidConfig(format!(
            "residual {} exceeds tolerance {tol}",
            cmp.residual
        )));
    }
    Ok(cmp)
}

/// Worst-case comparison across a batch (solution `x` in the batch's
/// layout).
pub fn check_batch_solution<S: Scalar>(batch: &SystemBatch<S>, x: &[S], tol: f64) -> Result<f64> {
    let residual = batch.max_relative_residual(x)?;
    if residual > tol {
        return Err(TridiagError::InvalidConfig(format!(
            "batch residual {residual} exceeds tolerance {tol}"
        )));
    }
    Ok(residual)
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::generators::{dominant_random, random_batch};

    #[test]
    fn tolerances_scale_with_precision() {
        assert!(default_tolerance::<f32>() > default_tolerance::<f64>());
        assert!(default_tolerance::<f64>() < 1e-10);
    }

    #[test]
    fn exact_solution_passes() {
        let s = dominant_random::<f64>(64, 1);
        let x = thomas::solve_typed(&s).unwrap();
        let cmp = check_solution(&s, &x, default_tolerance::<f64>()).unwrap();
        assert_eq!(cmp.max_relative_error, 0.0);
    }

    #[test]
    fn wrong_solution_fails() {
        let s = dominant_random::<f64>(64, 2);
        let mut x = thomas::solve_typed(&s).unwrap();
        x[10] += 1.0;
        assert!(check_solution(&s, &x, default_tolerance::<f64>()).is_err());
        let cmp = compare_with_thomas(&s, &x).unwrap();
        assert!(cmp.max_relative_error > 0.1);
    }

    #[test]
    fn non_finite_solution_scores_infinite_error() {
        let s = dominant_random::<f64>(64, 3);
        for bad in [f64::NAN, f64::INFINITY] {
            let mut x = thomas::solve_typed(&s).unwrap();
            x[10] = bad;
            let cmp = compare_with_thomas(&s, &x).unwrap();
            assert_eq!(cmp.max_relative_error, f64::INFINITY, "x[10] = {bad}");
            assert!(check_solution(&s, &x, default_tolerance::<f64>()).is_err());
        }
    }

    #[test]
    fn short_solution_is_a_typed_error() {
        let s = dominant_random::<f64>(64, 4);
        let x = thomas::solve_typed(&s).unwrap();
        assert_eq!(
            compare_with_thomas(&s, &x[..63]).unwrap_err(),
            TridiagError::LengthMismatch {
                expected: 64,
                found: 63,
                what: "x"
            }
        );
    }

    #[test]
    fn batch_check() {
        let b = random_batch::<f64>(3, 16, 4);
        let mut x = vec![0.0; b.total_len()];
        for sys in 0..3 {
            let sol = thomas::solve_typed(&b.system(sys).unwrap()).unwrap();
            for row in 0..16 {
                x[b.index(sys, row)] = sol[row];
            }
        }
        assert!(check_batch_solution(&b, &x, 1e-12).is_ok());
        x[5] = 1e6;
        assert!(check_batch_solution(&b, &x, 1e-12).is_err());
    }
}
