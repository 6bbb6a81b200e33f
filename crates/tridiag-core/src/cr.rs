//! Cyclic reduction (CR / odd-even reduction, Section II-A-2, Figs. 1–2).
//!
//! Forward reduction repeatedly eliminates the odd-indexed unknowns:
//! each surviving (even) equation absorbs its two neighbours via the
//! update of Eqs. 5–6, halving the system. Backward substitution then
//! recovers the eliminated unknowns level by level (Eq. 7).
//!
//! `O(n)` total work, `2·log2(n) + 1` parallel elimination steps, but at
//! each level the available parallelism halves — the tree in Fig. 2.
//!
//! This implementation handles arbitrary `n >= 1` (not just powers of
//! two) by letting the last row of an odd-length level survive to the
//! next level unchanged on its left side.

use crate::error::{Result, TridiagError};
use crate::scalar::Scalar;
use crate::system::TridiagonalSystem;

/// One row of an intermediate CR/PCR level: coefficients `(a, b, c, d)`.
///
/// Public because the GPU kernels in `tridiag-gpu` share the exact
/// reduction arithmetic with the host algorithms — one implementation
/// of Eqs. 5–6, bit-identical everywhere.
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct Row<S> {
    /// Sub-diagonal coefficient `a`.
    pub a: S,
    /// Main-diagonal coefficient `b`.
    pub b: S,
    /// Super-diagonal coefficient `c`.
    pub c: S,
    /// Right-hand side `d`.
    pub d: S,
}

impl<S: Scalar> Row<S> {
    /// Row `i` of a system, with the boundary-zero convention applied.
    #[inline]
    pub fn from_system(sys: &TridiagonalSystem<S>, i: usize) -> Self {
        let (a, b, c, d) = sys.row(i);
        Row { a, b, c, d }
    }

    /// Identity row: `1·x = 0`, used as the out-of-range neighbour so the
    /// reduction formula needs no boundary branches.
    #[inline]
    pub fn identity() -> Self {
        Row {
            a: S::ZERO,
            b: S::ONE,
            c: S::ZERO,
            d: S::ZERO,
        }
    }
}

/// The CR/PCR reduction step (Eqs. 5–6): combine row `cur` with its
/// current neighbours `prev` (index i−s) and `next` (index i+s),
/// eliminating `cur.a` against `prev` and `cur.c` against `next`.
///
/// Returns the new row; errors on a zero neighbour pivot.
#[inline]
pub fn reduce_row<S: Scalar>(
    prev: Row<S>,
    cur: Row<S>,
    next: Row<S>,
    row_index: usize,
) -> Result<Row<S>> {
    if prev.b == S::ZERO || next.b == S::ZERO {
        return Err(TridiagError::ZeroPivot { row: row_index });
    }
    let k1 = cur.a / prev.b;
    let k2 = cur.c / next.b;
    Ok(Row {
        a: -(prev.a * k1),
        b: cur.b - prev.c * k1 - next.a * k2,
        c: -(next.c * k2),
        d: cur.d - prev.d * k1 - next.d * k2,
    })
}

/// Solve `A x = d` by cyclic reduction.
pub fn solve<S: Scalar>(system: &TridiagonalSystem<S>) -> Result<Vec<S>> {
    let n = system.len();
    let rows: Vec<Row<S>> = (0..n).map(|i| Row::from_system(system, i)).collect();
    let mut x = vec![S::ZERO; n];
    solve_level(&rows, &mut x)?;
    Ok(x)
}

/// Recursive solve of one CR level over `rows`, writing solutions into
/// `x` (same length).
fn solve_level<S: Scalar>(rows: &[Row<S>], x: &mut [S]) -> Result<()> {
    let n = rows.len();
    match n {
        0 => return Err(TridiagError::EmptySystem),
        1 => {
            if rows[0].b == S::ZERO {
                return Err(TridiagError::ZeroPivot { row: 0 });
            }
            x[0] = rows[0].d / rows[0].b;
            return Ok(());
        }
        2 => {
            // Direct 2x2 solve: [b0 c0; a1 b1] (x0,x1) = (d0,d1).
            let det = rows[0].b * rows[1].b - rows[0].c * rows[1].a;
            if det == S::ZERO {
                return Err(TridiagError::ZeroPivot { row: 0 });
            }
            x[0] = (rows[0].d * rows[1].b - rows[0].c * rows[1].d) / det;
            x[1] = (rows[1].d * rows[0].b - rows[1].a * rows[0].d) / det;
            return Ok(());
        }
        _ => {}
    }

    // Forward reduction: odd-indexed rows are rewritten in terms of
    // their even neighbours and survive to the next (half-size) level.
    let odd_count = n / 2;
    let mut next_rows = Vec::with_capacity(odd_count);
    for j in 0..odd_count {
        let i = 2 * j + 1;
        let prev = rows[i - 1];
        let cur = rows[i];
        let next = if i + 1 < n {
            rows[i + 1]
        } else {
            Row::identity()
        };
        next_rows.push(reduce_row(prev, cur, next, i)?);
    }

    let mut sub_x = vec![S::ZERO; odd_count];
    solve_level(&next_rows, &mut sub_x)?;
    for (j, &v) in sub_x.iter().enumerate() {
        x[2 * j + 1] = v;
    }

    // Backward substitution (Eq. 7) for the even rows using the solved
    // odd neighbours: x_i = (d_i − a_i x_{i−1} − c_i x_{i+1}) / b_i.
    for i in (0..n).step_by(2) {
        let left = if i > 0 { x[i - 1] } else { S::ZERO };
        let right = if i + 1 < n { x[i + 1] } else { S::ZERO };
        if rows[i].b == S::ZERO {
            return Err(TridiagError::ZeroPivot { row: i });
        }
        x[i] = (rows[i].d - rows[i].a * left - rows[i].c * right) / rows[i].b;
    }
    Ok(())
}

/// Parallel elimination steps CR needs for `n` unknowns: `2·log2(n) + 1`
/// (Section II-A-2). `n` is rounded up to the next power of two, matching
/// how a lockstep GPU implementation pads.
pub fn elimination_steps(n: usize) -> usize {
    if n <= 1 {
        1
    } else {
        2 * (usize::BITS - (n - 1).leading_zeros()) as usize + 1
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::generators::dominant_random;
    use crate::thomas;

    #[test]
    fn matches_thomas_on_powers_of_two() {
        for n in [2usize, 4, 8, 64, 256, 1024] {
            let s = dominant_random::<f64>(n, 42 + n as u64);
            let xt = thomas::solve_typed(&s).unwrap();
            let xc = solve(&s).unwrap();
            for i in 0..n {
                assert!(
                    (xt[i] - xc[i]).abs() < 1e-9,
                    "n={n} row {i}: thomas {} vs cr {}",
                    xt[i],
                    xc[i]
                );
            }
        }
    }

    #[test]
    fn matches_thomas_on_awkward_sizes() {
        for n in [1usize, 3, 5, 6, 7, 9, 100, 1000, 1023, 1025] {
            let s = dominant_random::<f64>(n, 7 + n as u64);
            let xt = thomas::solve_typed(&s).unwrap();
            let xc = solve(&s).unwrap();
            for i in 0..n {
                assert!((xt[i] - xc[i]).abs() < 1e-8, "n={n} row {i}");
            }
        }
    }

    #[test]
    fn paper_fig1_example_shape() {
        // 4x4: one forward reduction leaves a 2x2 of the odd rows (e2, e4
        // in the paper's 1-based notation), which the base case solves.
        let s = dominant_random::<f64>(4, 9);
        let x = solve(&s).unwrap();
        assert!(s.relative_residual(&x).unwrap() < 1e-12);
    }

    #[test]
    fn elimination_steps_formula() {
        assert_eq!(elimination_steps(1), 1);
        assert_eq!(elimination_steps(2), 3);
        assert_eq!(elimination_steps(8), 7); // 2*3+1
        assert_eq!(elimination_steps(512), 19); // 2*9+1
        assert_eq!(elimination_steps(9), 2 * 4 + 1); // rounds up to 16
    }

    #[test]
    fn zero_pivot_propagates() {
        let s = crate::system::TridiagonalSystem::new(
            vec![0.0, 0.0],
            vec![0.0, 1.0],
            vec![0.0, 0.0],
            vec![1.0, 1.0],
        )
        .unwrap();
        assert!(solve(&s).is_err());
    }

    #[test]
    fn f32_accuracy() {
        let s = dominant_random::<f32>(512, 3);
        let x = solve(&s).unwrap();
        assert!(s.relative_residual(&x).unwrap() < 1e-3);
    }
}
