//! Batches of independent systems and their memory layouts.
//!
//! The paper's benchmark input is `(M, N)`: `M` independent systems of
//! `N` unknowns each. How the batch is laid out in (global) memory
//! decides whether the one-thread-per-system p-Thomas stage coalesces:
//!
//! - [`Layout::Contiguous`] — system-major: all rows of system 0, then
//!   all rows of system 1, … Thread `t` reading its row `i` touches
//!   address `t·N + i`: a warp's 32 threads hit addresses `N` apart —
//!   fully *uncoalesced* (32 transactions per access).
//! - [`Layout::Interleaved`] — row-major across systems: row `i` of all
//!   `M` systems is contiguous. Thread `t` reading row `i` touches
//!   `i·M + t`: a warp's threads are adjacent — fully *coalesced*.
//!
//! "Fortunately, PCR naturally produces interleaved results which is a
//! perfect match with p-Thomas" (Section III-B): `k`-step PCR leaves its
//! `2^k` subsystems interleaved in the original array, i.e. already in
//! [`Layout::Interleaved`] with `M' = 2^k·M`.

use crate::error::{Result, TridiagError};
use crate::scalar::Scalar;
use crate::system::TridiagonalSystem;
use std::ops::Range;

/// Memory layout of a [`SystemBatch`].
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash)]
pub enum Layout {
    /// System-major: element `(sys, row)` lives at `sys * n + row`.
    Contiguous,
    /// Row-major across systems: element `(sys, row)` lives at
    /// `row * m + sys`.
    Interleaved,
}

impl Layout {
    /// Flat index of `(sys, row)` in a batch of `m` systems of `n` rows.
    #[inline(always)]
    pub fn index(self, sys: usize, row: usize, m: usize, n: usize) -> usize {
        match self {
            Layout::Contiguous => sys * n + row,
            Layout::Interleaved => row * m + sys,
        }
    }

    /// Re-store `src`, an array of `m` systems of `n` rows in layout
    /// `self`, into `dst` in layout `target`: `dst[target.index(s, r)] =
    /// src[self.index(s, r)]` for every `(s, r)`. The two layouts are
    /// transposes of each other, so a change of layout is a transpose.
    /// It is staged through a `TILE × TILE` buffer on the stack: each
    /// tile's rows are copied contiguously into it, and its columns are
    /// then written out contiguously, so only the cache-resident tile is
    /// walked across rows — never memory at a (usually power-of-two)
    /// row pitch, which aliases cache sets and TLB entries.
    /// Panics unless both arrays hold `m·n` elements.
    pub fn convert<T: Copy>(self, target: Layout, src: &[T], m: usize, n: usize, dst: &mut [T]) {
        assert!(
            src.len() == m * n && dst.len() == m * n,
            "arrays hold m·n elements"
        );
        // `src` is a rows × cols row-major matrix.
        let (rows, cols) = match (self, target) {
            _ if self == target => return dst.copy_from_slice(src),
            (Layout::Contiguous, _) => (m, n),
            (Layout::Interleaved, _) => (n, m),
        };
        let Some(&fill) = src.first() else {
            return;
        };
        const TILE: usize = 32;
        // `tile[r * TILE + c]` holds `src[(r0 + r) * cols + c0 + c]`.
        let mut tile = [fill; TILE * TILE];
        for r0 in (0..rows).step_by(TILE) {
            let h = TILE.min(rows - r0);
            for c0 in (0..cols).step_by(TILE) {
                let w = TILE.min(cols - c0);
                for r in 0..h {
                    tile[r * TILE..][..w].copy_from_slice(&src[(r0 + r) * cols + c0..][..w]);
                }
                for c in 0..w {
                    let col = &mut dst[(c0 + c) * rows + r0..][..h];
                    for (r, d) in col.iter_mut().enumerate() {
                        *d = tile[r * TILE + c];
                    }
                }
            }
        }
    }
}

/// `M` independent tridiagonal systems of uniform size `N`, stored as
/// four flat arrays (`a`, `b`, `c`, `d`) in one of two layouts.
#[derive(Debug, Clone, PartialEq)]
pub struct SystemBatch<S: Scalar> {
    a: Vec<S>,
    b: Vec<S>,
    c: Vec<S>,
    d: Vec<S>,
    m: usize,
    n: usize,
    layout: Layout,
}

impl<S: Scalar> SystemBatch<S> {
    /// Build a batch from individual systems (must all have the same
    /// size). The batch is stored [`Layout::Contiguous`]; convert with
    /// [`SystemBatch::to_layout`] if needed.
    pub fn from_systems(systems: Vec<TridiagonalSystem<S>>) -> Result<Self> {
        if systems.is_empty() {
            return Err(TridiagError::EmptySystem);
        }
        let n = systems[0].len();
        for s in &systems {
            if s.len() != n {
                return Err(TridiagError::NonUniformBatch {
                    first: n,
                    found: s.len(),
                });
            }
        }
        let m = systems.len();
        let mut a = Vec::with_capacity(m * n);
        let mut b = Vec::with_capacity(m * n);
        let mut c = Vec::with_capacity(m * n);
        let mut d = Vec::with_capacity(m * n);
        for s in systems {
            let (sa, sb, sc, sd) = s.into_parts();
            a.extend_from_slice(&sa);
            b.extend_from_slice(&sb);
            c.extend_from_slice(&sc);
            d.extend_from_slice(&sd);
        }
        Ok(Self {
            a,
            b,
            c,
            d,
            m,
            n,
            layout: Layout::Contiguous,
        })
    }

    /// Build directly from flat arrays in the stated layout.
    pub fn from_raw(
        a: Vec<S>,
        b: Vec<S>,
        c: Vec<S>,
        d: Vec<S>,
        m: usize,
        n: usize,
        layout: Layout,
    ) -> Result<Self> {
        if m == 0 || n == 0 {
            return Err(TridiagError::EmptySystem);
        }
        let total = m * n;
        for (arr, what) in [(&a, "lower"), (&b, "diag"), (&c, "upper"), (&d, "rhs")] {
            if arr.len() != total {
                return Err(TridiagError::LengthMismatch {
                    expected: total,
                    found: arr.len(),
                    what,
                });
            }
        }
        Ok(Self {
            a,
            b,
            c,
            d,
            m,
            n,
            layout,
        })
    }

    /// Number of systems `M`.
    #[inline]
    pub fn num_systems(&self) -> usize {
        self.m
    }

    /// Unknowns per system `N`.
    #[inline]
    pub fn system_len(&self) -> usize {
        self.n
    }

    /// Total unknowns `M·N`.
    #[inline]
    pub fn total_len(&self) -> usize {
        self.m * self.n
    }

    /// Current memory layout.
    #[inline]
    pub fn layout(&self) -> Layout {
        self.layout
    }

    /// The four flat coefficient arrays `(a, b, c, d)`.
    pub fn arrays(&self) -> (&[S], &[S], &[S], &[S]) {
        (&self.a, &self.b, &self.c, &self.d)
    }

    /// Flat index of `(sys, row)` under the current layout.
    #[inline(always)]
    pub fn index(&self, sys: usize, row: usize) -> usize {
        self.layout.index(sys, row, self.m, self.n)
    }

    /// Coefficients of `(sys, row)` as `(a, b, c, d)`.
    #[inline]
    pub fn row(&self, sys: usize, row: usize) -> (S, S, S, S) {
        let i = self.index(sys, row);
        (self.a[i], self.b[i], self.c[i], self.d[i])
    }

    /// Extract system `sys` as a standalone [`TridiagonalSystem`].
    pub fn system(&self, sys: usize) -> Result<TridiagonalSystem<S>> {
        if sys >= self.m {
            return Err(TridiagError::IndexOutOfBounds {
                index: sys,
                len: self.m,
            });
        }
        let mut a = Vec::with_capacity(self.n);
        let mut b = Vec::with_capacity(self.n);
        let mut c = Vec::with_capacity(self.n);
        let mut d = Vec::with_capacity(self.n);
        for row in 0..self.n {
            let i = self.index(sys, row);
            a.push(self.a[i]);
            b.push(self.b[i]);
            c.push(self.c[i]);
            d.push(self.d[i]);
        }
        TridiagonalSystem::new(a, b, c, d)
    }

    /// Systems `systems` of this batch as a batch of their own, in this
    /// batch's layout: one range copy per array when it is contiguous,
    /// one run per row when it is interleaved. An empty or out-of-range
    /// range is an error.
    pub fn sub_batch(&self, systems: Range<usize>) -> Result<Self> {
        if systems.is_empty() {
            return Err(TridiagError::EmptySystem);
        }
        if systems.end > self.m {
            return Err(TridiagError::IndexOutOfBounds {
                index: systems.end - 1,
                len: self.m,
            });
        }
        let pick = |arr: &[S]| match self.layout {
            Layout::Contiguous => arr[systems.start * self.n..systems.end * self.n].to_vec(),
            Layout::Interleaved => {
                let mut out = Vec::with_capacity(systems.len() * self.n);
                for row in arr.chunks_exact(self.m) {
                    out.extend_from_slice(&row[systems.clone()]);
                }
                out
            }
        };
        Ok(Self {
            a: pick(&self.a),
            b: pick(&self.b),
            c: pick(&self.c),
            d: pick(&self.d),
            m: systems.len(),
            n: self.n,
            layout: self.layout,
        })
    }

    /// Extract all systems.
    pub fn to_systems(&self) -> Vec<TridiagonalSystem<S>> {
        (0..self.m)
            .map(|s| self.system(s).expect("index in range"))
            .collect()
    }

    /// Return the same batch re-stored in `target` layout (no-op clone if
    /// already there).
    pub fn to_layout(&self, target: Layout) -> Self {
        if self.layout == target {
            return self.clone();
        }
        let convert = |src: &[S]| {
            let mut dst = vec![S::ZERO; src.len()];
            self.layout.convert(target, src, self.m, self.n, &mut dst);
            dst
        };
        Self {
            a: convert(&self.a),
            b: convert(&self.b),
            c: convert(&self.c),
            d: convert(&self.d),
            m: self.m,
            n: self.n,
            layout: target,
        }
    }

    /// Gather a solution vector stored in `layout` order into per-system
    /// solutions (`m` vectors of length `n`).
    pub fn split_solution(&self, x: &[S]) -> Result<Vec<Vec<S>>> {
        if x.len() != self.total_len() {
            return Err(TridiagError::LengthMismatch {
                expected: self.total_len(),
                found: x.len(),
                what: "x",
            });
        }
        let mut out = vec![vec![S::ZERO; self.n]; self.m];
        for sys in 0..self.m {
            for row in 0..self.n {
                out[sys][row] = x[self.index(sys, row)];
            }
        }
        Ok(out)
    }

    /// Max relative residual across all systems for a flat solution `x`
    /// (in this batch's layout). A system with any non-finite solution
    /// or residual term scores `f64::INFINITY` (see
    /// [`TridiagonalSystem::relative_residual`]), which the fold keeps.
    pub fn max_relative_residual(&self, x: &[S]) -> Result<f64> {
        let per_system = self.split_solution(x)?;
        let mut worst = 0.0f64;
        for (sys, xs) in per_system.iter().enumerate() {
            let s = self.system(sys)?;
            worst = worst.max(s.relative_residual(xs)?);
        }
        Ok(worst)
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::generators::dominant_random;
    use crate::thomas;

    fn batch(m: usize, n: usize) -> SystemBatch<f64> {
        let systems = (0..m)
            .map(|i| dominant_random::<f64>(n, 100 + i as u64))
            .collect();
        SystemBatch::from_systems(systems).unwrap()
    }

    #[test]
    fn layout_index_formulas() {
        assert_eq!(Layout::Contiguous.index(2, 3, 4, 8), 19);
        assert_eq!(Layout::Interleaved.index(2, 3, 4, 8), 14);
    }

    #[test]
    fn from_systems_rejects_nonuniform() {
        let s1 = dominant_random::<f64>(4, 1);
        let s2 = dominant_random::<f64>(5, 2);
        assert!(matches!(
            SystemBatch::from_systems(vec![s1, s2]).unwrap_err(),
            TridiagError::NonUniformBatch { first: 4, found: 5 }
        ));
        assert!(SystemBatch::<f64>::from_systems(vec![]).is_err());
    }

    #[test]
    fn from_raw_validates_lengths() {
        let err = SystemBatch::<f64>::from_raw(
            vec![0.0; 7],
            vec![0.0; 8],
            vec![0.0; 8],
            vec![0.0; 8],
            2,
            4,
            Layout::Contiguous,
        )
        .unwrap_err();
        assert!(matches!(
            err,
            TridiagError::LengthMismatch { what: "lower", .. }
        ));
    }

    #[test]
    fn round_trip_through_layout_conversion() {
        let b = batch(3, 5);
        let inter = b.to_layout(Layout::Interleaved);
        assert_eq!(inter.layout(), Layout::Interleaved);
        let back = inter.to_layout(Layout::Contiguous);
        assert_eq!(back, b);
        // Row accessor agrees across layouts.
        for sys in 0..3 {
            for row in 0..5 {
                assert_eq!(b.row(sys, row), inter.row(sys, row));
            }
        }
    }

    #[test]
    fn interleaved_adjacent_systems_are_adjacent_in_memory() {
        let b = batch(4, 2).to_layout(Layout::Interleaved);
        let (_, bb, _, _) = b.arrays();
        // Row 0 of systems 0..4 occupy the first 4 slots.
        for sys in 0..4 {
            assert_eq!(bb[sys], b.row(sys, 0).1);
        }
    }

    #[test]
    fn extract_system_matches_source() {
        let sys: Vec<_> = (0..3).map(|i| dominant_random::<f64>(6, i)).collect();
        let b = SystemBatch::from_systems(sys.clone()).unwrap();
        for (i, s) in sys.iter().enumerate() {
            assert_eq!(&b.system(i).unwrap(), s);
        }
        assert!(b.system(3).is_err());
    }

    #[test]
    fn split_solution_and_residual() {
        let b = batch(3, 8);
        // Solve each system with Thomas, assemble a flat interleaved
        // solution, check the batch-level residual is tiny.
        let inter = b.to_layout(Layout::Interleaved);
        let mut x = vec![0.0; inter.total_len()];
        for sys in 0..3 {
            let sol = thomas::solve_typed(&inter.system(sys).unwrap()).unwrap();
            for row in 0..8 {
                x[inter.index(sys, row)] = sol[row];
            }
        }
        assert!(inter.max_relative_residual(&x).unwrap() < 1e-12);
        let parts = inter.split_solution(&x).unwrap();
        assert_eq!(parts.len(), 3);
        assert_eq!(parts[0].len(), 8);
        assert!(inter.split_solution(&x[1..]).is_err());
    }

    #[test]
    fn sub_batch_matches_the_extracted_systems_in_both_layouts() {
        let contig = batch(7, 5);
        for b in [contig.clone(), contig.to_layout(Layout::Interleaved)] {
            let sub = b.sub_batch(2..6).unwrap();
            assert_eq!(sub.layout(), b.layout());
            assert_eq!((sub.num_systems(), sub.system_len()), (4, 5));
            for sys in 0..4 {
                assert_eq!(sub.system(sys).unwrap(), b.system(2 + sys).unwrap());
            }
            assert_eq!(b.sub_batch(0..7).unwrap(), b);
            assert!(matches!(
                b.sub_batch(3..3).unwrap_err(),
                TridiagError::EmptySystem
            ));
            assert!(matches!(
                b.sub_batch(5..8).unwrap_err(),
                TridiagError::IndexOutOfBounds { index: 7, len: 7 }
            ));
        }
    }

    #[test]
    fn single_system_batch() {
        let b = batch(1, 4);
        assert_eq!(b.num_systems(), 1);
        let i = b.to_layout(Layout::Interleaved);
        // With m=1 both layouts coincide.
        assert_eq!(i.arrays().1, b.arrays().1);
    }
}
