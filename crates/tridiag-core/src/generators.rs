//! Workload generators.
//!
//! The paper benchmarks on synthetic systems over "various combinations
//! of number of systems and system sizes" (Section IV). These builders
//! produce the system families used by the figure harness, the examples
//! and the tests. All random generators are seeded and deterministic.

use crate::batch::SystemBatch;
use crate::scalar::Scalar;
use crate::system::TridiagonalSystem;
use rand::rngs::StdRng;
use rand::{Rng, SeedableRng};

/// A strictly diagonally dominant random system: off-diagonals uniform
/// in `[-1, 1]`, diagonal `|a| + |c| + margin` with margin uniform in
/// `[0.5, 1.5]`, RHS uniform in `[-1, 1]`. Diagonal dominance makes the
/// pivot-free eliminations of Thomas/CR/PCR unconditionally stable — the
/// standard benchmark family for GPU tridiagonal solvers.
pub fn dominant_random<S: Scalar>(n: usize, seed: u64) -> TridiagonalSystem<S> {
    let mut rng = StdRng::seed_from_u64(seed);
    dominant_random_with(n, &mut rng)
}

/// As [`dominant_random`], drawing from a caller-provided RNG so batches
/// can share one seeded stream.
pub fn dominant_random_with<S: Scalar>(n: usize, rng: &mut StdRng) -> TridiagonalSystem<S> {
    assert!(n >= 1, "generator requires n >= 1");
    let mut lower = Vec::with_capacity(n);
    let mut diag = Vec::with_capacity(n);
    let mut upper = Vec::with_capacity(n);
    let mut rhs = Vec::with_capacity(n);
    for i in 0..n {
        let a: f64 = if i == 0 {
            0.0
        } else {
            rng.gen_range(-1.0..1.0)
        };
        let c: f64 = if i + 1 == n {
            0.0
        } else {
            rng.gen_range(-1.0..1.0)
        };
        let margin: f64 = rng.gen_range(0.5..1.5);
        let sign = if rng.gen_bool(0.5) { 1.0 } else { -1.0 };
        let b = sign * (a.abs() + c.abs() + margin);
        lower.push(S::from_f64(a));
        diag.push(S::from_f64(b));
        upper.push(S::from_f64(c));
        rhs.push(S::from_f64(rng.gen_range(-1.0..1.0)));
    }
    TridiagonalSystem::new(lower, diag, upper, rhs).expect("generator invariants")
}

/// The 1-D Poisson (second difference) operator `[-1, 2, -1]` with
/// Dirichlet boundaries and a supplied forcing vector. Weakly diagonally
/// dominant; the classic PDE-solver workload (\[6\] in the paper).
pub fn poisson_1d<S: Scalar>(forcing: &[S]) -> TridiagonalSystem<S> {
    let n = forcing.len();
    assert!(n >= 1);
    let lower = vec![S::from_f64(-1.0); n];
    let diag = vec![S::from_f64(2.0); n];
    let upper = vec![S::from_f64(-1.0); n];
    TridiagonalSystem::new(lower, diag, upper, forcing.to_vec()).expect("poisson invariants")
}

/// A Toeplitz system with constant stencil `(a, b, c)` and given RHS.
pub fn toeplitz<S: Scalar>(a: S, b: S, c: S, rhs: Vec<S>) -> TridiagonalSystem<S> {
    let n = rhs.len();
    assert!(n >= 1);
    TridiagonalSystem::new(vec![a; n], vec![b; n], vec![c; n], rhs).expect("toeplitz invariants")
}

/// The natural cubic-spline second-derivative system for `n + 1` knots
/// with uniform spacing `h`: interior rows `(h, 4h, h)`, RHS given by
/// divided differences of the sample values (\[8\] in the paper's intro).
///
/// Returns the `(n − 1)`-unknown interior system; the natural boundary
/// conditions pin the end second-derivatives at zero.
pub fn cubic_spline_moments<S: Scalar>(values: &[S], h: f64) -> TridiagonalSystem<S> {
    let n = values.len();
    assert!(n >= 3, "spline needs at least 3 knots");
    let m = n - 2;
    let hs = S::from_f64(h);
    let mut rhs = Vec::with_capacity(m);
    for i in 1..n - 1 {
        // 6 * (y[i+1] - 2 y[i] + y[i-1]) / h
        let dd = (values[i + 1] - values[i] - values[i] + values[i - 1]) / hs;
        rhs.push(S::from_f64(6.0) * dd);
    }
    TridiagonalSystem::new(vec![hs; m], vec![S::from_f64(4.0 * h); m], vec![hs; m], rhs)
        .expect("spline invariants")
}

/// A batch of `m` independent diagonally dominant random systems of
/// uniform size `n` — the paper's benchmark input "(M, N)".
pub fn random_batch<S: Scalar>(m: usize, n: usize, seed: u64) -> SystemBatch<S> {
    let mut rng = StdRng::seed_from_u64(seed);
    let systems: Vec<TridiagonalSystem<S>> =
        (0..m).map(|_| dominant_random_with(n, &mut rng)).collect();
    SystemBatch::from_systems(systems).expect("uniform by construction")
}

/// A *nearly singular* system for failure-injection tests: diagonally
/// dominant except one row where the diagonal is `epsilon`-sized.
pub fn near_singular<S: Scalar>(
    n: usize,
    bad_row: usize,
    eps: f64,
    seed: u64,
) -> TridiagonalSystem<S> {
    assert!(bad_row < n);
    let s = dominant_random::<S>(n, seed);
    let (mut a, mut b, c, d) = s.into_parts();
    b[bad_row] = S::from_f64(eps);
    if bad_row > 0 {
        a[bad_row] = S::ONE;
    }
    TridiagonalSystem::new(a, b, c, d).expect("lengths preserved")
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::thomas;

    #[test]
    fn dominant_random_is_dominant_and_deterministic() {
        for n in [1usize, 2, 17, 333] {
            let s = dominant_random::<f64>(n, 5);
            assert!(s.is_diagonally_dominant(), "n={n}");
            let s2 = dominant_random::<f64>(n, 5);
            assert_eq!(s.diag(), s2.diag());
            assert_eq!(s.rhs(), s2.rhs());
        }
        let s3 = dominant_random::<f64>(17, 6);
        assert_ne!(s3.diag(), dominant_random::<f64>(17, 5).diag());
    }

    #[test]
    fn poisson_solves_to_expected_parabola() {
        // -u'' = 2 with u(0)=u(L)=0 discretised: u_i = x(L-x) has second
        // difference 2h^2 everywhere.
        let n = 63;
        let h = 1.0 / (n as f64 + 1.0);
        let f = vec![2.0 * h * h; n];
        let s = poisson_1d::<f64>(&f);
        let x = thomas::solve_typed(&s).unwrap();
        for i in 0..n {
            let xi = (i as f64 + 1.0) * h;
            let exact = xi * (1.0 - xi);
            assert!((x[i] - exact).abs() < 1e-10, "i={i}: {} vs {exact}", x[i]);
        }
    }

    #[test]
    fn toeplitz_shape() {
        let s = toeplitz(1.0f64, -4.0, 2.0, vec![1.0; 5]);
        assert_eq!(s.diag(), &[-4.0; 5]);
        assert_eq!(s.lower()[0], 0.0); // boundary convention applied
        assert_eq!(s.lower()[1], 1.0);
        assert_eq!(s.upper()[4], 0.0);
    }

    #[test]
    fn spline_of_parabola_recovers_constant_second_derivative() {
        // y = t^2 has second derivative 2 everywhere; the natural-spline
        // moment system's interior solution approaches 2 away from the
        // pinned (zero) boundary moments.
        let n = 41;
        let h = 0.25;
        let values: Vec<f64> = (0..n).map(|i| (i as f64 * h).powi(2)).collect();
        let s = cubic_spline_moments(&values, h);
        let m = thomas::solve_typed(&s).unwrap();
        let mid = m[m.len() / 2];
        assert!((mid - 2.0).abs() < 1e-6, "middle moment {mid}");
    }

    #[test]
    fn random_batch_is_uniform() {
        let b = random_batch::<f64>(4, 32, 9);
        assert_eq!(b.num_systems(), 4);
        assert_eq!(b.system_len(), 32);
    }

    #[test]
    fn near_singular_has_tiny_pivot() {
        let s = near_singular::<f64>(16, 7, 1e-300, 3);
        assert!(!s.is_diagonally_dominant());
        assert_eq!(s.diag()[7], 1e-300);
    }
}
