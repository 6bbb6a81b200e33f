//! Vectorised batched Thomas over the interleaved layout.
//!
//! The same layout insight the paper uses for GPU coalescing pays on
//! CPUs: with systems interleaved (`element (sys, row)` at
//! `row·M + sys`), the Thomas recurrence for a *lane group* of systems
//! advances through memory unit-stride, and the per-row loop body is a
//! branch-free map over adjacent lanes — exactly the shape
//! auto-vectorisers turn into SIMD (the `gtsvInterleavedBatch` trick).
//! Contrast with the contiguous layout, where each system walks its own
//! cache lines.
//!
//! No instrument in the repository times this solver against the
//! scalar loop. It is bit-compatible *per system* with the scalar
//! Thomas only up to rounding — it uses the identical recurrence, so
//! results match to the last ulp in practice; the tests pin exact
//! equality.

use tridiag_core::{Layout, Result, Scalar, SystemBatch, TridiagError};

/// Solve an interleaved batch with a vectorisable lane-parallel Thomas
/// sweep. The batch must be in [`Layout::Interleaved`]; call
/// [`SystemBatch::to_layout`] first if needed (the conversion cost is
/// what the paper's "PCR naturally produces interleaved results"
/// observation avoids on the GPU).
///
/// Returns the flat solution in interleaved order.
pub fn solve_batch_interleaved<S: Scalar>(batch: &SystemBatch<S>) -> Result<Vec<S>> {
    if batch.layout() != Layout::Interleaved {
        return Err(TridiagError::InvalidConfig(
            "solve_batch_interleaved requires Layout::Interleaved".into(),
        ));
    }
    let m = batch.num_systems();
    let n = batch.system_len();
    let (a, b, c, d) = batch.arrays();

    let mut c_prime = vec![S::ZERO; m * n];
    let mut x = vec![S::ZERO; m * n];

    // Row 0 for all lanes: c' = c/b, d' = d/b (d' stored in x).
    for lane in 0..m {
        if b[lane] == S::ZERO {
            return Err(TridiagError::ZeroPivot { row: 0 });
        }
        c_prime[lane] = c[lane] / b[lane];
        x[lane] = d[lane] / b[lane];
    }
    // Forward sweep: each row touches three unit-stride slices of width
    // m — the auto-vectoriser's favourite shape.
    for row in 1..n {
        let base = row * m;
        let prev = base - m;
        for lane in 0..m {
            let i = base + lane;
            let denom = b[i] - c_prime[prev + lane] * a[i];
            if denom == S::ZERO {
                return Err(TridiagError::ZeroPivot { row });
            }
            let inv = S::ONE / denom;
            c_prime[i] = c[i] * inv;
            x[i] = (d[i] - x[prev + lane] * a[i]) * inv;
        }
    }
    // Backward sweep.
    for row in (0..n.saturating_sub(1)).rev() {
        let base = row * m;
        let next = base + m;
        for lane in 0..m {
            let i = base + lane;
            x[i] = x[i] - c_prime[i] * x[next + lane];
        }
    }
    Ok(x)
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::batched::solve_batch_sequential;
    use tridiag_core::generators::random_batch;

    #[test]
    fn matches_scalar_thomas_bitwise() {
        for (m, n) in [(1usize, 16usize), (7, 33), (64, 128), (33, 100)] {
            let batch = random_batch::<f64>(m, n, 5 + m as u64).to_layout(Layout::Interleaved);
            let fast = solve_batch_interleaved(&batch).unwrap();
            let scalar = solve_batch_sequential(&batch).unwrap();
            // Same recurrence, same operation order per system: the
            // floats must be identical, not merely close.
            assert_eq!(fast, scalar, "m={m} n={n}");
        }
    }

    #[test]
    fn requires_interleaved_layout() {
        let batch = random_batch::<f64>(4, 16, 1); // contiguous
        assert!(matches!(
            solve_batch_interleaved(&batch).unwrap_err(),
            TridiagError::InvalidConfig(_)
        ));
    }

    #[test]
    fn zero_pivot_detected_per_row() {
        let good = tridiag_core::generators::dominant_random::<f64>(8, 1);
        let bad = tridiag_core::generators::near_singular::<f64>(8, 0, 0.0, 2);
        let batch = SystemBatch::from_systems(vec![good, bad])
            .unwrap()
            .to_layout(Layout::Interleaved);
        assert!(matches!(
            solve_batch_interleaved(&batch).unwrap_err(),
            TridiagError::ZeroPivot { row: 0 }
        ));
    }

    #[test]
    fn f32_supported() {
        let batch = random_batch::<f32>(16, 64, 9).to_layout(Layout::Interleaved);
        let x = solve_batch_interleaved(&batch).unwrap();
        assert!(batch.max_relative_residual(&x).unwrap() < 1e-4);
    }
}
