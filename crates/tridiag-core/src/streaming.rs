//! The buffered sliding window as a generic streaming cascade — the
//! paper's Section VI generalisation, and the one cascade in this crate.
//!
//! Section VI: "The buffered sliding window approach can also be
//! applied to other types of divide-and-conquer type algorithms. Future
//! work includes further developing the approach into a generalized
//! strategy…" This module is that generalisation: a streaming `k`-level
//! cascade over **any** 3-point stencil
//!
//! ```text
//! level_j[i] = combine(level_{j−1}[i − 2^{j−1}],
//!              level_{j−1}[i],
//!              level_{j−1}[i + 2^{j−1}])
//! ```
//!
//! computed with `O(k · 2^k)` resident state regardless of stream
//! length, each intermediate value computed exactly once — the
//! dependency-caching idea of Section III-A (Figs. 8–10):
//!
//! - Level 0 is the raw input, fed in order.
//! - Level `j`'s frontier trails level `j−1`'s by `2^{j−1}` positions,
//!   so the output (level `k`) trails the input by exactly
//!   `f(k) = 2^k − 1` — the paper's lead-in.
//! - Each level keeps only the trailing `2^{j+1} + 1` values a future
//!   combine can still reference. Summed over levels the dependency
//!   portion is `Σ 2^{j+1} ≈ 2·f(k)`, the minimum cache size the paper
//!   derives (the shared-memory realisation in `tridiag-gpu` rounds it
//!   up to `3·f(k)`, Table I).
//!
//! A cascade may emit only the positions `[emit_lo, emit_hi)` of the
//! stream ([`StreamingStencil::with_range`]): it then consumes `f(k)`
//! halo inputs on each side, one partition of the Fig. 11(b) mapping of
//! one system onto several workers. [`WindowStats`] counts loads, halo
//! loads and combines, so the redundancy claims of Section III-A are
//! measured rather than asserted.
//!
//! Three instances ship:
//! - [`crate::sliding_window::PcrOp`] — `k`-step PCR over
//!   [`crate::cr::Row`]s: the paper's buffered sliding window, bit for
//!   bit equal to [`crate::pcr::reduce`];
//! - [`DilationOp`] — morphological dilation (running maximum) of
//!   radius `2^k − 1` in `k` doubling levels, the classic log-depth
//!   van Herk-style trick;
//! - [`SmoothingOp`] — iterated binomial smoothing with doubling
//!   spans (a log-depth approximation cascade).

use crate::error::{Result, TridiagError};
use std::collections::VecDeque;

/// A 3-point stencil combinable by the cascade.
pub trait StencilOp {
    /// Element type flowing through the cascade.
    type Elem: Copy;
    /// Value fed at level 0 for positions outside the stream.
    fn boundary(&self) -> Self::Elem;
    /// Combine `(left, centre, right)` at doubling distance into the
    /// value at position `pos`, inside the stream.
    fn combine(
        &self,
        left: Self::Elem,
        centre: Self::Elem,
        right: Self::Elem,
        pos: usize,
    ) -> Result<Self::Elem>;
    /// The value at a position outside the stream (lead-in and drain).
    fn outside(&self, left: Self::Elem, centre: Self::Elem, right: Self::Elem) -> Self::Elem;
    /// Reject a cascade depth the op cannot run on an `n`-long stream.
    fn check_depth(&self, _n: usize, _k: u32) -> Result<()> {
        Ok(())
    }
}

/// Morphological dilation: running maximum over radius `2^k − 1`.
/// Positions outside the stream combine like inside ones.
#[derive(Debug, Clone, Copy, Default)]
pub struct DilationOp;

impl StencilOp for DilationOp {
    type Elem = f64;
    fn boundary(&self) -> f64 {
        f64::NEG_INFINITY
    }
    fn combine(&self, l: f64, c: f64, r: f64, _pos: usize) -> Result<f64> {
        Ok(self.outside(l, c, r))
    }
    fn outside(&self, l: f64, c: f64, r: f64) -> f64 {
        l.max(c).max(r)
    }
}

/// Iterated three-point binomial smoothing with doubling spans.
/// Positions outside the stream combine like inside ones.
#[derive(Debug, Clone, Copy, Default)]
pub struct SmoothingOp;

impl StencilOp for SmoothingOp {
    type Elem = f64;
    fn boundary(&self) -> f64 {
        0.0
    }
    fn combine(&self, l: f64, c: f64, r: f64, _pos: usize) -> Result<f64> {
        Ok(self.outside(l, c, r))
    }
    fn outside(&self, l: f64, c: f64, r: f64) -> f64 {
        0.25 * l + 0.5 * c + 0.25 * r
    }
}

/// Counters of one cascade run, proving the redundancy claims of
/// Section III-A.
#[derive(Debug, Clone, Copy, Default, PartialEq, Eq)]
pub struct WindowStats {
    /// Inputs loaded. A full-range cascade loads each position exactly
    /// once; a ranged one additionally loads up to `f(k)` halo inputs
    /// per side (the Fig. 11(b) redundancy).
    pub rows_loaded: usize,
    /// Loaded inputs lying outside the emit range — the redundant halo
    /// loads a partition boundary costs. Zero for a full-range cascade.
    pub halo_loads: usize,
    /// Combines whose output position lies inside the stream — exactly
    /// `k · n` summed over a full-range run, i.e. zero redundancy;
    /// ranged runs exceed this by the re-computed lead-in combines.
    pub productive_eliminations: usize,
    /// Combines at positions outside the stream from lead-in and drain;
    /// `O(k · f(k))` total, independent of `n`.
    pub flush_eliminations: usize,
    /// Peak values resident across all levels.
    pub peak_resident_rows: usize,
}

impl WindowStats {
    /// Accumulate another cascade's counters (for partitioned runs).
    pub fn merge(&mut self, other: &WindowStats) {
        self.rows_loaded += other.rows_loaded;
        self.halo_loads += other.halo_loads;
        self.productive_eliminations += other.productive_eliminations;
        self.flush_eliminations += other.flush_eliminations;
        self.peak_resident_rows = self.peak_resident_rows.max(other.peak_resident_rows);
    }
}

/// One level's trailing values: positions `[frontier − len, frontier)`.
struct Level<T> {
    ring: VecDeque<T>,
    frontier: isize,
    capacity: usize,
}

impl<T: Copy> Level<T> {
    fn get(&self, pos: isize) -> T {
        let oldest = self.frontier - self.ring.len() as isize;
        debug_assert!(
            pos >= oldest && pos < self.frontier,
            "window dropped or not-yet-produced position {pos} (have [{oldest}, {}))",
            self.frontier
        );
        self.ring[(pos - oldest) as usize]
    }
    fn push(&mut self, v: T) {
        if self.ring.len() == self.capacity {
            self.ring.pop_front();
        }
        self.ring.push_back(v);
        self.frontier += 1;
    }
}

/// A streaming k-level cascade over an arbitrary [`StencilOp`] — the
/// generalised buffered sliding window. Feed the inputs in order from
/// [`StreamingStencil::next_input_pos`]; each fully-cascaded output
/// emerges `2^k − 1` positions behind the input, and
/// [`StreamingStencil::finish`] drains the rest.
pub struct StreamingStencil<Op: StencilOp> {
    op: Op,
    k: u32,
    /// Stream length (positions beyond it are outside).
    n: usize,
    /// Outputs are kept for positions `[emit_lo, emit_hi)`.
    emit_lo: usize,
    emit_hi: usize,
    /// One past the last input this cascade accepts
    /// (`min(n, emit_hi + f(k))`).
    in_end: isize,
    /// `levels[j]` holds values after `j` combines (level 0 = input).
    levels: Vec<Level<Op::Elem>>,
    /// Next input position to accept.
    in_pos: isize,
    out: Vec<Op::Elem>,
    stats: WindowStats,
}

impl<Op: StencilOp> StreamingStencil<Op> {
    /// Cascade of `k` levels over a whole stream of length `n`.
    pub fn new(op: Op, n: usize, k: u32) -> Result<Self> {
        Self::with_range(op, n, k, 0, n)
    }

    /// Cascade of `k` levels that emits only positions
    /// `[emit_lo, emit_hi)` of an `n`-long stream — one partition of the
    /// Fig. 11(b) mapping. It consumes inputs from `emit_lo − f(k)` to
    /// `emit_hi + f(k)` (clipped to the stream), counting the ones
    /// outside the range in [`WindowStats::halo_loads`]; its outputs
    /// equal the full-range cascade's exactly, because every value in
    /// the dependency cone of an emitted position is computed from real
    /// inputs.
    pub fn with_range(op: Op, n: usize, k: u32, emit_lo: usize, emit_hi: usize) -> Result<Self> {
        if n == 0 || emit_lo >= emit_hi {
            return Err(TridiagError::EmptySystem);
        }
        if emit_hi > n {
            return Err(TridiagError::IndexOutOfBounds {
                index: emit_hi,
                len: n,
            });
        }
        if k >= 31 {
            return Err(TridiagError::InvalidConfig(format!(
                "{k} cascade levels is beyond any practical window"
            )));
        }
        op.check_depth(n, k)?;
        let lead = (1isize << k) - 1;
        let in_start = (emit_lo as isize - lead).max(0);
        let in_end = (emit_hi as isize + lead).min(n as isize);
        // Pre-seed each level with boundary values up to the position
        // before its first computed one, so the cascade needs no
        // boundary branches: level j trails the input by 2^j − 1.
        let boundary = op.boundary();
        let levels: Vec<Level<Op::Elem>> = (0..=k)
            .map(|j| {
                let capacity = (1usize << (j + 1)) + 1;
                let frontier = in_start - ((1isize << j) - 1);
                Level {
                    ring: std::iter::repeat_n(boundary, capacity).collect(),
                    frontier,
                    capacity,
                }
            })
            .collect();
        // The rings are full from the start and never shrink.
        let stats = WindowStats {
            peak_resident_rows: levels.iter().map(|l| l.capacity).sum(),
            ..WindowStats::default()
        };
        Ok(Self {
            op,
            k,
            n,
            emit_lo,
            emit_hi,
            in_end,
            levels,
            in_pos: in_start,
            out: Vec::with_capacity(emit_hi - emit_lo),
            stats,
        })
    }

    /// Resident elements across all levels — `O(2^k)`, stream-length
    /// independent (the whole point).
    pub fn resident(&self) -> usize {
        self.levels.iter().map(|l| l.ring.len()).sum()
    }

    /// Position of the next input [`StreamingStencil::push`] expects
    /// (`emit_lo − f(k)`, clipped to 0).
    pub fn next_input_pos(&self) -> usize {
        self.in_pos as usize
    }

    /// One past the last input position this cascade accepts.
    pub fn input_end(&self) -> usize {
        self.in_end as usize
    }

    /// Feed the next input (position [`StreamingStencil::next_input_pos`]).
    pub fn push(&mut self, v: Op::Elem) -> Result<()> {
        if self.in_pos >= self.in_end {
            return Err(TridiagError::IndexOutOfBounds {
                index: self.in_pos as usize,
                len: self.in_end as usize,
            });
        }
        self.stats.rows_loaded += 1;
        let pos = self.in_pos as usize;
        if pos < self.emit_lo || pos >= self.emit_hi {
            self.stats.halo_loads += 1;
        }
        self.feed(v)
    }

    /// Drain with boundary values and return the outputs for
    /// `[emit_lo, emit_hi)`, in order, with the final counters (the
    /// drain itself combines).
    pub fn finish(mut self) -> Result<(Vec<Op::Elem>, WindowStats)> {
        if self.in_pos < self.in_end {
            return Err(TridiagError::InvalidConfig(format!(
                "finish() before all inputs pushed: at {} of {}",
                self.in_pos, self.in_end
            )));
        }
        let target = self.emit_hi as isize + (1isize << self.k) - 1;
        while self.in_pos < target {
            let b = self.op.boundary();
            self.feed(b)?;
        }
        debug_assert_eq!(self.out.len(), self.emit_hi - self.emit_lo);
        Ok((self.out, self.stats))
    }

    /// Append `v` at level 0, then let each level compute the newest
    /// position whose right dependency just arrived.
    fn feed(&mut self, v: Op::Elem) -> Result<()> {
        self.in_pos += 1;
        self.levels[0].push(v);
        for j in 1..=self.k as usize {
            let stride = 1isize << (j - 1);
            let below = &self.levels[j - 1];
            let p = below.frontier - 1 - stride;
            let (l, c, r) = (below.get(p - stride), below.get(p), below.get(p + stride));
            let combined = if p >= 0 && (p as usize) < self.n {
                self.stats.productive_eliminations += 1;
                self.op.combine(l, c, r, p as usize)?
            } else {
                self.stats.flush_eliminations += 1;
                self.op.outside(l, c, r)
            };
            self.levels[j].push(combined);
        }
        let top = &self.levels[self.k as usize];
        let out_pos = top.frontier - 1;
        if out_pos >= self.emit_lo as isize && out_pos < self.emit_hi as isize {
            self.out.push(top.get(out_pos));
        }
        Ok(())
    }
}

/// Convenience: run a whole slice through the cascade.
///
/// ```
/// use tridiag_core::streaming::{apply, DilationOp};
/// // Radius-3 running maximum in 2 doubling levels.
/// let y = apply(DilationOp, &[0.0, 9.0, 0.0, 0.0, 0.0, 0.0, 1.0, 0.0], 2).unwrap();
/// assert_eq!(y[4], 9.0); // the spike spreads 3 positions
/// assert_eq!(y[5], 1.0); // beyond the radius it does not
/// ```
pub fn apply<Op: StencilOp>(op: Op, data: &[Op::Elem], k: u32) -> Result<Vec<Op::Elem>> {
    let mut s = StreamingStencil::new(op, data.len(), k)?;
    for &v in data {
        s.push(v)?;
    }
    Ok(s.finish()?.0)
}

#[cfg(test)]
mod tests {
    use super::*;
    use rand::rngs::StdRng;
    use rand::{Rng, SeedableRng};

    fn brute_force_dilate(x: &[f64], radius: usize) -> Vec<f64> {
        (0..x.len())
            .map(|i| {
                let lo = i.saturating_sub(radius);
                let hi = (i + radius + 1).min(x.len());
                x[lo..hi].iter().fold(f64::NEG_INFINITY, |a, &b| a.max(b))
            })
            .collect()
    }

    #[test]
    fn dilation_matches_brute_force() {
        let mut rng = StdRng::seed_from_u64(7);
        for (n, k) in [(10usize, 1u32), (100, 3), (257, 4), (1000, 5)] {
            let x: Vec<f64> = (0..n).map(|_| rng.gen_range(-10.0..10.0)).collect();
            let fast = apply(DilationOp, &x, k).unwrap();
            let slow = brute_force_dilate(&x, (1 << k) - 1);
            assert_eq!(fast, slow, "n={n} k={k}");
        }
    }

    #[test]
    fn resident_state_is_stream_length_independent() {
        let k = 6u32;
        let short = StreamingStencil::new(DilationOp, 200, k).unwrap();
        let long = StreamingStencil::new(DilationOp, 2_000_000, k).unwrap();
        assert_eq!(short.resident(), long.resident());
        // Bound: sum of 2^{j+1}+1 over levels.
        let bound: usize = (0..=k).map(|j| (1usize << (j + 1)) + 1).sum();
        assert!(long.resident() <= bound);
    }

    #[test]
    fn smoothing_preserves_mean_in_the_interior() {
        // A constant signal is a fixed point away from the boundary.
        let n = 64;
        let x = vec![3.5f64; n];
        let y = apply(SmoothingOp, &x, 3).unwrap();
        let radius = (1 << 3) - 1;
        for i in radius..n - radius {
            assert!((y[i] - 3.5).abs() < 1e-12, "i={i}: {}", y[i]);
        }
        // Boundary taper: zero padding pulls edges down.
        assert!(y[0] < 3.5);
    }

    #[test]
    fn smoothing_reduces_oscillation() {
        let n = 256;
        let x: Vec<f64> = (0..n)
            .map(|i| if i % 2 == 0 { 1.0 } else { -1.0 })
            .collect();
        let y = apply(SmoothingOp, &x, 1).unwrap();
        // One binomial level annihilates the Nyquist mode (interior).
        for i in 2..n - 2 {
            assert!(y[i].abs() < 1e-12, "i={i}: {}", y[i]);
        }
    }

    #[test]
    fn chunked_feeding_is_invisible() {
        let mut rng = StdRng::seed_from_u64(11);
        let n = 300;
        let x: Vec<f64> = (0..n).map(|_| rng.gen_range(-1.0..1.0)).collect();
        let whole = apply(DilationOp, &x, 4).unwrap();
        let mut s = StreamingStencil::new(DilationOp, n, 4).unwrap();
        for chunk in x.chunks(7) {
            for &v in chunk {
                s.push(v).unwrap();
            }
        }
        assert_eq!(s.finish().unwrap().0, whole);
    }

    /// Exact outputs of both shipped ops on short streams, so every
    /// output sits within `2^k − 1` of a stream edge: positions outside
    /// the stream feed the cascade through each op's boundary value.
    #[test]
    fn edge_outputs_are_pinned() {
        let x: Vec<f64> = (0..9).map(|i| ((i * 5 + 3) % 7) as f64 - 2.5).collect();
        let render = |y: Vec<f64>| format!("{y:?}");
        for (name, actual, golden) in [
            (
                "dilation k=1",
                render(apply(DilationOp, &x, 1).unwrap()),
                "[0.5, 3.5, 3.5, 3.5, 1.5, 2.5, 2.5, 2.5, 0.5]",
            ),
            (
                "dilation k=2",
                render(apply(DilationOp, &x, 2).unwrap()),
                "[3.5, 3.5, 3.5, 3.5, 3.5, 3.5, 2.5, 2.5, 2.5]",
            ),
            (
                "smoothing k=2",
                render(apply(SmoothingOp, &x, 2).unwrap()),
                "[0.375, 0.53125, 0.71875, 0.625, 0.375, 0.125, 0.09375, -0.03125, -0.125]",
            ),
            (
                "smoothing k=4",
                render(apply(SmoothingOp, &x, 4).unwrap()),
                "[0.1484375, 0.154296875, 0.171875, 0.162109375, 0.140625, 0.123046875, 0.125, \
                 0.107421875, 0.0859375]",
            ),
        ] {
            println!("{name}: {actual}");
            assert_eq!(actual, golden, "{name}");
        }
    }

    #[test]
    fn validation() {
        assert!(StreamingStencil::new(DilationOp, 0, 2).is_err());
        assert!(StreamingStencil::new(DilationOp, 8, 40).is_err());
        let mut s = StreamingStencil::new(DilationOp, 2, 1).unwrap();
        s.push(1.0).unwrap();
        let early = StreamingStencil::new(DilationOp, 2, 1).unwrap();
        assert!(early.finish().is_err());
        s.push(2.0).unwrap();
        assert!(s.push(3.0).is_err());
    }
}
