//! Parallel cyclic reduction (PCR, Section II-A-3, Figs. 3–4) and the
//! **incomplete k-step PCR** that is the front end of the paper's hybrid.
//!
//! Unlike CR, PCR applies the reduction of Eqs. 5–6 to *every* row each
//! step, so after step `t` each row depends only on rows `±2^t` away.
//! One step therefore splits a system into two independent interleaved
//! systems; after `k` steps there are `2^k` independent systems, the
//! `j`-th consisting of rows congruent to `j (mod 2^k)` — in the
//! original row order, i.e. already interleaved in memory exactly the
//! way the p-Thomas stage wants them (Section III-B).
//!
//! Full PCR runs `ceil(log2 n) + 1` steps; `O(n log n)` total work.

use crate::cr::{reduce_row, Row};
use crate::error::{Result, TridiagError};
use crate::scalar::Scalar;
use crate::system::TridiagonalSystem;
use crate::thomas;

/// The outcome of `k` PCR steps on one system: the transformed rows in
/// their original order, plus the stride `2^k` identifying subsystem
/// membership (row `i` belongs to subsystem `i mod stride`).
#[derive(Debug, Clone)]
pub struct ReducedSystem<S: Scalar> {
    rows_a: Vec<S>,
    rows_b: Vec<S>,
    rows_c: Vec<S>,
    rows_d: Vec<S>,
    stride: usize,
}

impl<S: Scalar> ReducedSystem<S> {
    /// Assemble from per-row results (used by the tiled drivers and the
    /// GPU kernels, whose output provably equals [`reduce`]).
    pub fn from_rows(rows: &[Row<S>], stride: usize) -> Self {
        Self {
            rows_a: rows.iter().map(|r| r.a).collect(),
            rows_b: rows.iter().map(|r| r.b).collect(),
            rows_c: rows.iter().map(|r| r.c).collect(),
            rows_d: rows.iter().map(|r| r.d).collect(),
            stride,
        }
    }

    /// Number of rows (unchanged by reduction).
    pub fn len(&self) -> usize {
        self.rows_b.len()
    }

    /// `true` if there are no rows (cannot occur via public constructors).
    pub fn is_empty(&self) -> bool {
        self.rows_b.is_empty()
    }

    /// Subsystem stride `2^k`: rows `j, j+stride, j+2·stride, …` form the
    /// `j`-th independent system.
    pub fn stride(&self) -> usize {
        self.stride
    }

    /// Number of independent subsystems (`min(stride, len)`).
    pub fn num_subsystems(&self) -> usize {
        self.stride.min(self.len())
    }

    /// Coefficient arrays in original row order `(a, b, c, d)`.
    pub fn arrays(&self) -> (&[S], &[S], &[S], &[S]) {
        (&self.rows_a, &self.rows_b, &self.rows_c, &self.rows_d)
    }

    /// Materialise subsystem `j` as a standalone tridiagonal system.
    ///
    /// After `k` steps each row's `a`/`c` coefficients couple only to the
    /// rows `±2^k` away, which are exactly its neighbours inside the
    /// gathered subsystem.
    pub fn subsystem(&self, j: usize) -> Result<TridiagonalSystem<S>> {
        if j >= self.num_subsystems() {
            return Err(TridiagError::IndexOutOfBounds {
                index: j,
                len: self.num_subsystems(),
            });
        }
        let idx: Vec<usize> = (j..self.len()).step_by(self.stride).collect();
        let m = idx.len();
        let mut lower = Vec::with_capacity(m);
        let mut diag = Vec::with_capacity(m);
        let mut upper = Vec::with_capacity(m);
        let mut rhs = Vec::with_capacity(m);
        for &i in &idx {
            lower.push(self.rows_a[i]);
            diag.push(self.rows_b[i]);
            upper.push(self.rows_c[i]);
            rhs.push(self.rows_d[i]);
        }
        TridiagonalSystem::new(lower, diag, upper, rhs)
    }

    /// Solve every subsystem with the Thomas algorithm and scatter the
    /// results back to original row order. This is the host reference of
    /// the paper's full hybrid pipeline.
    pub fn solve_subsystems_thomas(&self) -> Result<Vec<S>> {
        let n = self.len();
        let mut x = vec![S::ZERO; n];
        let mut scratch = thomas::ThomasScratch::new(n.div_ceil(self.stride));
        let mut sub_x: Vec<S> = Vec::new();
        for j in 0..self.num_subsystems() {
            let sub = self.subsystem(j)?;
            sub_x.clear();
            sub_x.resize(sub.len(), S::ZERO);
            thomas::solve_into(&sub, &mut sub_x, &mut scratch)?;
            for (t, &v) in sub_x.iter().enumerate() {
                x[j + t * self.stride] = v;
            }
        }
        Ok(x)
    }
}

/// Perform `k` PCR steps on `system`. `k = 0` returns the system
/// unchanged (the hybrid's "skip straight to p-Thomas" case).
///
/// ```
/// use tridiag_core::{generators, pcr, thomas};
/// let s = generators::dominant_random::<f64>(32, 7);
/// let reduced = pcr::reduce(&s, 2).unwrap();
/// assert_eq!(reduced.num_subsystems(), 4);
/// // Solving the independent subsystems reproduces the direct solve.
/// let x = reduced.solve_subsystems_thomas().unwrap();
/// let direct = thomas::solve_typed(&s).unwrap();
/// assert!((x[5] - direct[5]).abs() < 1e-10);
/// ```
///
/// # Errors
/// [`TridiagError::TooManySteps`] if `2^k` exceeds the system size —
/// further steps would leave subsystems with no unknowns to couple.
pub fn reduce<S: Scalar>(system: &TridiagonalSystem<S>, k: u32) -> Result<ReducedSystem<S>> {
    let n = system.len();
    if k > 0 && (1usize << k) > n {
        return Err(TridiagError::TooManySteps { k, n });
    }
    let mut rows: Vec<Row<S>> = (0..n).map(|i| Row::from_system(system, i)).collect();
    let mut next = rows.clone();
    for step in 0..k {
        let stride = 1usize << step;
        pcr_step(&rows, &mut next, stride)?;
        std::mem::swap(&mut rows, &mut next);
    }
    Ok(ReducedSystem {
        rows_a: rows.iter().map(|r| r.a).collect(),
        rows_b: rows.iter().map(|r| r.b).collect(),
        rows_c: rows.iter().map(|r| r.c).collect(),
        rows_d: rows.iter().map(|r| r.d).collect(),
        stride: 1usize << k,
    })
}

/// One lockstep PCR step with neighbour distance `stride`, reading from
/// `src` and writing every row of `dst`.
pub(crate) fn pcr_step<S: Scalar>(src: &[Row<S>], dst: &mut [Row<S>], stride: usize) -> Result<()> {
    let n = src.len();
    debug_assert_eq!(dst.len(), n);
    for i in 0..n {
        let prev = if i >= stride {
            src[i - stride]
        } else {
            Row::identity()
        };
        let next = if i + stride < n {
            src[i + stride]
        } else {
            Row::identity()
        };
        dst[i] = reduce_row(prev, src[i], next, i)?;
    }
    Ok(())
}

/// Solve `A x = d` by full PCR: reduce until every row is decoupled,
/// then divide. Runs `ceil(log2 n)` reduction steps.
pub fn solve<S: Scalar>(system: &TridiagonalSystem<S>) -> Result<Vec<S>> {
    let n = system.len();
    if n == 0 {
        return Err(TridiagError::EmptySystem);
    }
    let steps = full_steps(n);
    let mut rows: Vec<Row<S>> = (0..n).map(|i| Row::from_system(system, i)).collect();
    let mut next = rows.clone();
    for step in 0..steps {
        let stride = 1usize << step;
        pcr_step(&rows, &mut next, stride)?;
        std::mem::swap(&mut rows, &mut next);
    }
    rows.iter()
        .enumerate()
        .map(|(i, r)| {
            if r.b == S::ZERO {
                Err(TridiagError::ZeroPivot { row: i })
            } else {
                Ok(r.d / r.b)
            }
        })
        .collect()
}

/// Reduction steps full PCR needs to fully decouple `n` unknowns:
/// `ceil(log2 n)`; each remaining equation then has one unknown.
pub fn full_steps(n: usize) -> u32 {
    if n <= 1 {
        0
    } else {
        usize::BITS - (n - 1).leading_zeros()
    }
}

/// Parallel elimination steps of full PCR per the paper: `log2(n) + 1`
/// (the `+1` counts the final trivial divide as a step).
pub fn elimination_steps(n: usize) -> usize {
    full_steps(n) as usize + 1
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::generators::dominant_random;
    use crate::thomas;

    #[test]
    fn full_pcr_matches_thomas() {
        for n in [1usize, 2, 3, 4, 7, 8, 64, 100, 511, 512, 1024] {
            let s = dominant_random::<f64>(n, n as u64);
            let xt = thomas::solve_typed(&s).unwrap();
            let xp = solve(&s).unwrap();
            for i in 0..n {
                assert!((xt[i] - xp[i]).abs() < 1e-8, "n={n} row {i}");
            }
        }
    }

    #[test]
    fn one_step_splits_into_two_independent_systems() {
        // The Fig. 3 example: a 4-unknown system splits into two 2-unknown
        // systems (even rows / odd rows).
        let s = dominant_random::<f64>(4, 5);
        let red = reduce(&s, 1).unwrap();
        assert_eq!(red.stride(), 2);
        assert_eq!(red.num_subsystems(), 2);
        let even = red.subsystem(0).unwrap();
        let odd = red.subsystem(1).unwrap();
        assert_eq!(even.len(), 2);
        assert_eq!(odd.len(), 2);
        // Solving the subsystems independently must reproduce the full
        // solution.
        let x_full = thomas::solve_typed(&s).unwrap();
        let xe = thomas::solve_typed(&even).unwrap();
        let xo = thomas::solve_typed(&odd).unwrap();
        assert!((xe[0] - x_full[0]).abs() < 1e-10);
        assert!((xo[0] - x_full[1]).abs() < 1e-10);
        assert!((xe[1] - x_full[2]).abs() < 1e-10);
        assert!((xo[1] - x_full[3]).abs() < 1e-10);
    }

    #[test]
    fn incomplete_pcr_plus_thomas_equals_direct_solve() {
        for n in [8usize, 60, 512, 1000] {
            for k in 0..=3u32 {
                let s = dominant_random::<f64>(n, 1000 + n as u64 + k as u64);
                let xt = thomas::solve_typed(&s).unwrap();
                let xh = reduce(&s, k).unwrap().solve_subsystems_thomas().unwrap();
                for i in 0..n {
                    assert!(
                        (xt[i] - xh[i]).abs() < 1e-8,
                        "n={n} k={k} row {i}: {} vs {}",
                        xt[i],
                        xh[i]
                    );
                }
            }
        }
    }

    #[test]
    fn zero_steps_is_identity() {
        let s = dominant_random::<f64>(16, 77);
        let red = reduce(&s, 0).unwrap();
        assert_eq!(red.stride(), 1);
        assert_eq!(red.num_subsystems(), 1);
        let sub = red.subsystem(0).unwrap();
        assert_eq!(sub.diag(), s.diag());
        assert_eq!(sub.rhs(), s.rhs());
    }

    #[test]
    fn too_many_steps_rejected() {
        let s = dominant_random::<f64>(8, 1);
        assert!(matches!(
            reduce(&s, 4).unwrap_err(),
            TridiagError::TooManySteps { k: 4, n: 8 }
        ));
        // exactly 2^k == n is allowed: every subsystem has one unknown.
        let red = reduce(&s, 3).unwrap();
        assert_eq!(red.num_subsystems(), 8);
        let x = red.solve_subsystems_thomas().unwrap();
        assert!(s.relative_residual(&x).unwrap() < 1e-10);
    }

    #[test]
    fn subsystem_index_bounds_checked() {
        let s = dominant_random::<f64>(8, 2);
        let red = reduce(&s, 2).unwrap();
        assert!(red.subsystem(3).is_ok());
        assert!(red.subsystem(4).is_err());
    }

    #[test]
    fn step_count_formulas() {
        assert_eq!(full_steps(1), 0);
        assert_eq!(full_steps(2), 1);
        assert_eq!(full_steps(8), 3);
        assert_eq!(full_steps(9), 4);
        assert_eq!(elimination_steps(8), 4); // log2(8)+1
        assert_eq!(elimination_steps(512), 10);
    }

    #[test]
    fn reduced_arrays_are_original_order_interleaved() {
        let s = dominant_random::<f64>(8, 3);
        let red = reduce(&s, 2).unwrap();
        let (_, b, _, d) = red.arrays();
        let sub0 = red.subsystem(0).unwrap();
        // Rows 0 and 4 of the reduced arrays are subsystem 0's rows.
        assert_eq!(sub0.diag()[0], b[0]);
        assert_eq!(sub0.diag()[1], b[4]);
        assert_eq!(sub0.rhs()[1], d[4]);
    }

    #[test]
    fn f32_full_pcr_accuracy() {
        let s = dominant_random::<f32>(1024, 11);
        let x = solve(&s).unwrap();
        assert!(s.relative_residual(&x).unwrap() < 1e-3);
    }
}
