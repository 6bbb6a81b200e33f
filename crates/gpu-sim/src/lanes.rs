//! Affine lane lists: how a kernel describes the lanes of one
//! block-wide memory operation.
//!
//! Every block-wide memory operation in this workspace indexes memory
//! with expressions that are affine in the lane id — `base + stride·l`
//! over a contiguous lane range — or a short concatenation of such
//! runs (a ragged tail, a clamp lane, a carry splice). Kernels build
//! the runs with [`Lanes`] and pass its [`AffinePiece`]s to
//! `BlockCtx::ld_affine` and friends, which count them in closed form
//! ([`crate::memory::access_transactions`],
//! [`crate::memory::access_conflict_cycles`]). Under the sanitizer the
//! executor [`expand`]s the pieces into the per-lane index slice the
//! slice forms take; [`compress`] is the exact inverse, which the
//! slice forms use to read an index slice's lane runs.

use std::fmt;

/// One affine run of lanes within a block-wide access:
/// lane `lane0 + x` touches element `base + stride·x` for
/// `x ∈ [0, lanes)`.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct AffinePiece {
    /// First lane (position in the block-wide op) this piece covers.
    pub lane0: usize,
    /// Number of consecutive lanes covered (≥ 1).
    pub lanes: usize,
    /// Element index accessed by lane `lane0`.
    pub base: i64,
    /// Element-index step per lane (0 = broadcast).
    pub stride: i64,
}

impl AffinePiece {
    /// Element index accessed by relative lane `x` (`x < self.lanes`).
    #[inline]
    pub fn elem(&self, x: usize) -> i64 {
        self.base + self.stride * x as i64
    }
}

impl fmt::Display for AffinePiece {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        if self.lanes == 1 {
            write!(f, "l={}: {}", self.lane0, self.base)
        } else if self.stride == 0 {
            write!(
                f,
                "l in [{},{}): {}",
                self.lane0,
                self.lane0 + self.lanes,
                self.base
            )
        } else {
            write!(
                f,
                "l in [{},{}): {} {} {}*(l-{})",
                self.lane0,
                self.lane0 + self.lanes,
                self.base,
                if self.stride < 0 { "-" } else { "+" },
                self.stride.abs(),
                self.lane0
            )
        }
    }
}

/// Losslessly compress an index slice (position = lane) into maximal
/// affine runs. Exact: expanding the pieces reproduces `idx` verbatim.
pub fn compress(idx: &[usize]) -> Vec<AffinePiece> {
    let mut pieces = Vec::new();
    let mut i = 0usize;
    while i < idx.len() {
        if i + 1 == idx.len() {
            pieces.push(AffinePiece {
                lane0: i,
                lanes: 1,
                base: idx[i] as i64,
                stride: 0,
            });
            break;
        }
        let stride = idx[i + 1] as i64 - idx[i] as i64;
        let mut j = i + 1;
        while j + 1 < idx.len() && idx[j + 1] as i64 - idx[j] as i64 == stride {
            j += 1;
        }
        pieces.push(AffinePiece {
            lane0: i,
            lanes: j - i + 1,
            base: idx[i] as i64,
            stride,
        });
        i = j + 1;
    }
    pieces
}

/// Expand pieces (in lane order) into their index slice, the inverse
/// of [`compress`]. Element indices must be non-negative.
pub fn expand(pieces: &[AffinePiece], out: &mut Vec<usize>) {
    out.clear();
    for p in pieces {
        out.extend((0..p.lanes).map(|x| p.elem(x) as usize));
    }
}

/// A block-wide lane list built run by run as [`AffinePiece`]s — the
/// form the affine entry points of [`crate::exec::BlockCtx`] take
/// (`ld_affine` and friends). A run that continues the previous piece
/// extends it.
#[derive(Debug, Clone, Default, PartialEq, Eq)]
pub struct Lanes {
    pieces: Vec<AffinePiece>,
    len: usize,
}

impl Lanes {
    /// Empty lane list.
    pub fn new() -> Self {
        Self::default()
    }

    /// Remove every lane.
    pub fn clear(&mut self) {
        self.pieces.clear();
        self.len = 0;
    }

    /// Lane count.
    pub fn len(&self) -> usize {
        self.len
    }

    /// `true` when the list has no lanes.
    pub fn is_empty(&self) -> bool {
        self.len == 0
    }

    /// The pieces, in lane order.
    pub fn pieces(&self) -> &[AffinePiece] {
        &self.pieces
    }

    /// Append `count` lanes touching `base + stride·x` for
    /// `x ∈ [0, count)`.
    pub fn push(&mut self, base: usize, stride: i64, count: usize) {
        if count == 0 {
            return;
        }
        match self.pieces.last_mut() {
            Some(last) if last.stride == stride && last.elem(last.lanes) == base as i64 => {
                last.lanes += count;
            }
            _ => self.pieces.push(AffinePiece {
                lane0: self.len,
                lanes: count,
                base: base as i64,
                stride,
            }),
        }
        self.len += count;
    }

    /// Replace `out` with lanes `lo..hi` of this list (renumbered from
    /// lane 0).
    pub fn slice_into(&self, lo: usize, hi: usize, out: &mut Lanes) {
        out.clear();
        for p in &self.pieces {
            let x0 = lo.max(p.lane0) - p.lane0;
            let x1 = hi.min(p.lane0 + p.lanes).saturating_sub(p.lane0);
            if x0 < x1 {
                out.push(p.elem(x0) as usize, p.stride, x1 - x0);
            }
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn expand(pieces: &[AffinePiece]) -> Vec<(usize, i64)> {
        let mut out = Vec::new();
        for p in pieces {
            for x in 0..p.lanes {
                out.push((p.lane0 + x, p.elem(x)));
            }
        }
        out
    }

    #[test]
    fn compress_is_lossless() {
        let cases: Vec<Vec<usize>> = vec![
            vec![],
            vec![7],
            (0..32).collect(),
            (0..32).map(|l| l * 2 + 5).collect(),
            (0..32).rev().collect(),
            vec![3, 3, 3, 3],
            vec![0, 1, 2, 10, 12, 14, 7],
            vec![5, 5, 6, 7, 8, 0],
        ];
        for idx in cases {
            let pieces = compress(&idx);
            let flat = expand(&pieces);
            assert_eq!(flat.len(), idx.len());
            for (lane, (l, e)) in flat.iter().enumerate() {
                assert_eq!(*l, lane);
                assert_eq!(*e, idx[lane] as i64, "lane {lane} of {idx:?}");
            }
        }
    }

    #[test]
    fn lanes_merge_runs_and_slice_into_chunks() {
        let mut l = Lanes::new();
        l.push(10, 1, 4);
        l.push(14, 1, 4); // continues the run
        l.push(100, 3, 3);
        l.push(0, 1, 0); // no lanes
        assert_eq!(l.len(), 11);
        assert_eq!(l.pieces().len(), 2);
        let mut flat = Vec::new();
        super::expand(l.pieces(), &mut flat);
        assert_eq!(flat, vec![10, 11, 12, 13, 14, 15, 16, 17, 100, 103, 106]);
        assert_eq!(compress(&flat), l.pieces());
        let mut part = Lanes::new();
        l.slice_into(6, 10, &mut part);
        super::expand(part.pieces(), &mut flat);
        assert_eq!(flat, vec![16, 17, 100, 103]);
        assert_eq!(part.pieces()[1].lane0, 2);
    }

    #[test]
    fn compress_finds_maximal_runs() {
        let idx: Vec<usize> = (0..32).collect();
        assert_eq!(
            compress(&idx),
            vec![AffinePiece {
                lane0: 0,
                lanes: 32,
                base: 0,
                stride: 1
            }]
        );
        // A strided run, then a clamped tail of repeats.
        let idx = vec![0, 4, 8, 12, 99, 99, 99];
        let pieces = compress(&idx);
        assert_eq!(pieces.len(), 2);
        assert_eq!(pieces[0].stride, 4);
        assert_eq!(pieces[0].lanes, 4);
        assert_eq!(pieces[1].stride, 0);
        assert_eq!(pieces[1].lanes, 3);
        assert_eq!(pieces[1].lane0, 4);
    }

    #[test]
    fn expressions_render_for_diagnostics() {
        let p = AffinePiece {
            lane0: 4,
            lanes: 28,
            base: 128,
            stride: 2,
        };
        assert_eq!(p.to_string(), "l in [4,32): 128 + 2*(l-4)");
    }
}
