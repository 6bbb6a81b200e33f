//! Batches of systems whose row counts differ.
//!
//! A [`SystemBatch`] holds `M` systems of one size `N`. A
//! [`RaggedBatch`] holds systems of any sizes back to back,
//! system-major: system `i` is elements `offsets[i] .. offsets[i + 1]`
//! of each of the four arrays. That is the layout a launch with one
//! block per system can take whole, since each block's work depends
//! only on its own system.

use crate::batch::{Layout, SystemBatch};
use crate::error::{Result, TridiagError};
use crate::scalar::Scalar;
use std::ops::Range;

/// Systems of per-system row counts, stored back to back in four flat
/// arrays (`a`, `b`, `c`, `d`), always system-major.
#[derive(Debug, Clone, PartialEq)]
pub struct RaggedBatch<S: Scalar> {
    a: Vec<S>,
    b: Vec<S>,
    c: Vec<S>,
    d: Vec<S>,
    /// `offsets[i]` is system `i`'s first element; the last entry is
    /// the total. Strictly increasing from 0.
    offsets: Vec<usize>,
}

impl<S: Scalar> RaggedBatch<S> {
    /// Concatenate the systems of `parts`, in order, each part re-stored
    /// system-major whatever its own layout (a bit-exact move). Fails
    /// on an empty list.
    pub fn concat(parts: &[&SystemBatch<S>]) -> Result<Self> {
        if parts.is_empty() {
            return Err(TridiagError::EmptySystem);
        }
        let total: usize = parts.iter().map(|p| p.total_len()).sum();
        let systems: usize = parts.iter().map(|p| p.num_systems()).sum();
        let mut arrays: [Vec<S>; 4] = std::array::from_fn(|_| Vec::with_capacity(total));
        let mut offsets = Vec::with_capacity(systems + 1);
        offsets.push(0);
        for p in parts {
            let (m, n) = (p.num_systems(), p.system_len());
            let (pa, pb, pc, pd) = p.arrays();
            for (dst, src) in arrays.iter_mut().zip([pa, pb, pc, pd]) {
                let start = dst.len();
                dst.resize(start + m * n, S::ZERO);
                p.layout()
                    .convert(Layout::Contiguous, src, m, n, &mut dst[start..]);
            }
            let base = offsets[offsets.len() - 1];
            offsets.extend((1..=m).map(|i| base + i * n));
        }
        let [a, b, c, d] = arrays;
        Ok(Self {
            a,
            b,
            c,
            d,
            offsets,
        })
    }

    /// Number of systems.
    #[inline]
    pub fn num_systems(&self) -> usize {
        self.offsets.len() - 1
    }

    /// Total unknowns, the sum of every system's row count.
    #[inline]
    pub fn total_len(&self) -> usize {
        self.offsets[self.num_systems()]
    }

    /// First element of each system, then the total (`m + 1` entries).
    #[inline]
    pub fn offsets(&self) -> &[usize] {
        &self.offsets
    }

    /// Rows of system `sys`.
    #[inline]
    pub fn rows(&self, sys: usize) -> usize {
        self.offsets[sys + 1] - self.offsets[sys]
    }

    /// Row count of every system, in order.
    pub fn row_counts(&self) -> Vec<usize> {
        self.offsets.windows(2).map(|w| w[1] - w[0]).collect()
    }

    /// The one row count every system shares, if they all do.
    pub fn uniform_len(&self) -> Option<usize> {
        let n = self.rows(0);
        (0..self.num_systems())
            .all(|s| self.rows(s) == n)
            .then_some(n)
    }

    /// Rows of the longest system.
    pub fn max_len(&self) -> usize {
        (0..self.num_systems())
            .map(|s| self.rows(s))
            .max()
            .unwrap_or(0)
    }

    /// Borrow the four coefficient arrays.
    pub fn arrays(&self) -> (&[S], &[S], &[S], &[S]) {
        (&self.a, &self.b, &self.c, &self.d)
    }

    /// Systems `systems` as a ragged batch of their own: one range copy
    /// per array. An empty or out-of-range range is an error.
    pub fn sub_batch(&self, systems: Range<usize>) -> Result<Self> {
        let elems = self.elems(&systems)?;
        let base = elems.start;
        Ok(Self {
            a: self.a[elems.clone()].to_vec(),
            b: self.b[elems.clone()].to_vec(),
            c: self.c[elems.clone()].to_vec(),
            d: self.d[elems].to_vec(),
            offsets: self.offsets[systems.start..=systems.end]
                .iter()
                .map(|o| o - base)
                .collect(),
        })
    }

    /// Systems `systems`, which must share one row count, as a
    /// contiguous [`SystemBatch`].
    pub fn uniform_batch(&self, systems: Range<usize>) -> Result<SystemBatch<S>> {
        let elems = self.elems(&systems)?;
        let n = self.rows(systems.start);
        if let Some(s) = systems.clone().find(|&s| self.rows(s) != n) {
            return Err(TridiagError::NonUniformBatch {
                first: n,
                found: self.rows(s),
            });
        }
        SystemBatch::from_raw(
            self.a[elems.clone()].to_vec(),
            self.b[elems.clone()].to_vec(),
            self.c[elems.clone()].to_vec(),
            self.d[elems].to_vec(),
            systems.len(),
            n,
            Layout::Contiguous,
        )
    }

    /// The element range of `systems`, checked.
    fn elems(&self, systems: &Range<usize>) -> Result<Range<usize>> {
        if systems.is_empty() {
            return Err(TridiagError::EmptySystem);
        }
        if systems.end > self.num_systems() {
            return Err(TridiagError::IndexOutOfBounds {
                index: systems.end - 1,
                len: self.num_systems(),
            });
        }
        Ok(self.offsets[systems.start]..self.offsets[systems.end])
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::generators::random_batch;

    #[test]
    fn concat_tiles_the_parts_in_order_in_either_layout() {
        let p0 = random_batch::<f64>(2, 5, 1);
        let p1 = random_batch::<f64>(3, 7, 2).to_layout(Layout::Interleaved);
        let r = RaggedBatch::concat(&[&p0, &p1]).unwrap();
        assert_eq!(r.num_systems(), 5);
        assert_eq!(r.offsets(), &[0, 5, 10, 17, 24, 31]);
        assert_eq!(r.row_counts(), vec![5, 5, 7, 7, 7]);
        assert_eq!((r.uniform_len(), r.max_len()), (None, 7));
        assert_eq!(r.uniform_batch(0..2).unwrap(), p0);
        assert_eq!(
            r.uniform_batch(2..5).unwrap(),
            p1.to_layout(Layout::Contiguous)
        );
        assert!(matches!(
            r.uniform_batch(1..3),
            Err(TridiagError::NonUniformBatch { first: 5, found: 7 })
        ));
        let tail = r.sub_batch(1..4).unwrap();
        assert_eq!(tail.offsets(), &[0, 5, 12, 19]);
        assert_eq!(tail.arrays().3, &r.arrays().3[5..24]);
        assert!(r.sub_batch(2..2).is_err() && r.sub_batch(4..6).is_err());
        assert!(RaggedBatch::<f64>::concat(&[]).is_err());
    }

    #[test]
    fn equal_parts_are_uniform() {
        let p = random_batch::<f32>(4, 9, 3);
        let r = RaggedBatch::concat(&[&p, &p]).unwrap();
        assert_eq!(r.uniform_len(), Some(9));
        assert_eq!(r.uniform_batch(0..4).unwrap(), p);
    }
}
