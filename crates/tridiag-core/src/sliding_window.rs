//! The buffered sliding window (Section III-A, Figs. 8–10, Table I).
//!
//! Naive tiling of k-step PCR re-loads `f(k) = 2^k − 1` halo elements
//! and re-computes `g(k)` intermediate eliminations per tile boundary
//! (Eqs. 8–9) — both grow exponentially in `k`. The paper's fix is to
//! process tiles *sequentially* within a worker and cache every
//! intermediate value that a later tile will need, so nothing is ever
//! loaded or eliminated twice.
//!
//! On the host that scheme is one instance of the generic cascade in
//! [`crate::streaming`]: [`PcrOp`] makes level `j` the rows after `j`
//! PCR steps, so `StreamingStencil::new(PcrOp::default(), n, k)` is the
//! paper's window over an `n`-row system. Out-of-range positions hold
//! identity rows at every level (exactly like [`crate::pcr::reduce`]),
//! so the cascade reproduces monolithic incomplete PCR **bit for bit**
//! — the tests assert exact equality, not closeness. This module also
//! keeps the static Table I properties of the GPU realisation
//! ([`WindowProperties`]).

use crate::cost_model;
use crate::cr::{reduce_row, Row};
use crate::error::{Result, TridiagError};
use crate::scalar::Scalar;
use crate::streaming::StencilOp;
use std::marker::PhantomData;

/// Static properties of a buffered sliding window configuration
/// (Table I of the paper), for `k` PCR steps and sub-tile scale `c`.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct WindowProperties {
    /// Number of PCR steps `k`.
    pub k: u32,
    /// Sub-tile scale factor `c ≥ 1`.
    pub c: usize,
}

impl WindowProperties {
    /// Build and validate the configuration.
    pub fn new(k: u32, c: usize) -> Result<Self> {
        if c == 0 {
            return Err(TridiagError::InvalidConfig(
                "sub-tile scale c must be >= 1".into(),
            ));
        }
        if k >= 31 {
            return Err(TridiagError::InvalidConfig(format!(
                "k = {k} PCR steps is beyond any practical window"
            )));
        }
        Ok(Self { k, c })
    }

    /// Size of a sub-tile: `c · 2^k` rows.
    pub fn sub_tile(&self) -> usize {
        self.c << self.k
    }

    /// Intermediate-results cache: `3 · Σ_{i<k} 2^i = 3·(2^k − 1)`,
    /// bounded by `3·2^k` (Table I row 3).
    pub fn cache_rows(&self) -> usize {
        cost_model::window_cache_size(self.k) as usize
    }

    /// Threads per thread block in the GPU realisation: `2^k`
    /// (Table I row 4) — all threads perform full PCR steps together.
    pub fn threads_per_block(&self) -> usize {
        1 << self.k
    }

    /// Elimination steps each thread performs per sub-tile: `c·k`
    /// (Table I row 5).
    pub fn eliminations_per_thread(&self) -> usize {
        self.c * self.k as usize
    }

    /// Elimination steps per sub-tile: `c·k·2^k` (Table I row 6).
    pub fn eliminations_per_sub_tile(&self) -> usize {
        self.eliminations_per_thread() << self.k
    }

    /// Shared-memory bytes the window occupies for scalar type size
    /// `bytes_per_elem` (4 coefficient arrays per row).
    pub fn shared_bytes(&self, bytes_per_elem: usize) -> usize {
        // cache + one sub-tile of fresh input resident at a time
        (self.cache_rows() + self.sub_tile()) * 4 * bytes_per_elem
    }
}

/// One PCR step as a cascade stencil over [`Row`]s: the combine is the
/// reduction of Eqs. 5–6, and a position outside the system is the
/// identity row (it needs no elimination).
#[derive(Debug, Clone, Copy)]
pub struct PcrOp<S>(PhantomData<S>);

impl<S> Default for PcrOp<S> {
    fn default() -> Self {
        PcrOp(PhantomData)
    }
}

impl<S: Scalar> StencilOp for PcrOp<S> {
    type Elem = Row<S>;
    fn boundary(&self) -> Row<S> {
        Row::identity()
    }
    fn combine(&self, prev: Row<S>, cur: Row<S>, next: Row<S>, pos: usize) -> Result<Row<S>> {
        reduce_row(prev, cur, next, pos)
    }
    fn outside(&self, _prev: Row<S>, cur: Row<S>, _next: Row<S>) -> Row<S> {
        debug_assert_eq!(cur, Row::identity());
        Row::identity()
    }
    /// `k` PCR steps must leave at least one row per subsystem.
    fn check_depth(&self, n: usize, k: u32) -> Result<()> {
        if k > 0 && (1usize << k) > n {
            return Err(TridiagError::TooManySteps { k, n });
        }
        Ok(())
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::generators::dominant_random;
    use crate::pcr;
    use crate::streaming::{StreamingStencil, WindowStats};

    fn run_pipeline(n: usize, k: u32, seed: u64) -> (Vec<Row<f64>>, WindowStats) {
        let s = dominant_random::<f64>(n, seed);
        let mut pipe = StreamingStencil::new(PcrOp::default(), n, k).unwrap();
        for i in 0..n {
            pipe.push(Row::from_system(&s, i)).unwrap();
        }
        let (rows, stats) = pipe.finish().unwrap();
        (rows, stats)
    }

    #[test]
    fn matches_monolithic_pcr_bit_for_bit() {
        for (n, k) in [
            (8usize, 1u32),
            (8, 3),
            (64, 2),
            (100, 3),
            (257, 4),
            (1024, 5),
        ] {
            let s = dominant_random::<f64>(n, 7 * n as u64 + k as u64);
            let reference = pcr::reduce(&s, k).unwrap();
            let (ra, rb, rc, rd) = reference.arrays();
            let mut pipe = StreamingStencil::new(PcrOp::default(), n, k).unwrap();
            for i in 0..n {
                pipe.push(Row::from_system(&s, i)).unwrap();
            }
            let (rows, _) = pipe.finish().unwrap();
            for i in 0..n {
                // Exact equality: same operations in the same order.
                assert_eq!(rows[i].a, ra[i], "n={n} k={k} a[{i}]");
                assert_eq!(rows[i].b, rb[i], "n={n} k={k} b[{i}]");
                assert_eq!(rows[i].c, rc[i], "n={n} k={k} c[{i}]");
                assert_eq!(rows[i].d, rd[i], "n={n} k={k} d[{i}]");
            }
        }
    }

    #[test]
    fn zero_steps_passthrough() {
        let (rows, stats) = run_pipeline(16, 0, 1);
        assert_eq!(rows.len(), 16);
        assert_eq!(stats.productive_eliminations, 0);
        assert_eq!(stats.rows_loaded, 16);
    }

    #[test]
    fn zero_redundancy_productive_work_is_exactly_k_n() {
        for (n, k) in [(64usize, 1u32), (64, 3), (500, 4), (4096, 6)] {
            let (_, stats) = run_pipeline(n, k, 3);
            assert_eq!(
                stats.productive_eliminations,
                k as usize * n,
                "n={n} k={k}: every in-range elimination happens exactly once"
            );
            assert_eq!(stats.rows_loaded, n, "each row loaded exactly once");
        }
    }

    #[test]
    fn flush_work_is_bounded_independent_of_n() {
        let (_, small) = run_pipeline(64, 4, 5);
        let (_, large) = run_pipeline(4096, 4, 5);
        assert_eq!(
            small.flush_eliminations, large.flush_eliminations,
            "lead-in/out cost must not scale with n"
        );
    }

    #[test]
    fn resident_rows_stay_within_cache_bound() {
        for k in 1..=6u32 {
            let n = 1usize << (k + 4);
            let (_, stats) = run_pipeline(n, k, 11);
            // Each level keeps 2^{j+1}+1 rows: sum_j = 2(2^{k+1}-1) + k+1.
            let bound: usize = (0..=k).map(|j| (1usize << (j + 1)) + 1).sum();
            assert!(
                stats.peak_resident_rows <= bound,
                "k={k}: resident {} > bound {bound}",
                stats.peak_resident_rows
            );
            // And the dependency cache is O(f(k)), nowhere near n.
            assert!(stats.peak_resident_rows < n / 2 + bound);
        }
    }

    #[test]
    fn rejects_overfeeding_and_early_finish() {
        let s = dominant_random::<f64>(4, 1);
        let mut pipe = StreamingStencil::new(PcrOp::default(), 4, 1).unwrap();
        for i in 0..4 {
            pipe.push(Row::from_system(&s, i)).unwrap();
        }
        assert!(pipe.push(Row::identity()).is_err());

        let mut pipe2 = StreamingStencil::new(PcrOp::<f64>::default(), 4, 1).unwrap();
        pipe2.push(Row::from_system(&s, 0)).unwrap();
        assert!(pipe2.finish().is_err());
    }

    #[test]
    fn constructor_validation() {
        assert!(StreamingStencil::new(PcrOp::<f64>::default(), 0, 1).is_err());
        assert!(StreamingStencil::new(PcrOp::<f64>::default(), 4, 3).is_err()); // 2^3 > 4
        assert!(StreamingStencil::new(PcrOp::<f64>::default(), 4, 2).is_ok());
        assert!(StreamingStencil::new(PcrOp::<f64>::default(), 4, 0).is_ok());
    }

    #[test]
    fn table1_properties() {
        let w = WindowProperties::new(2, 1).unwrap();
        assert_eq!(w.sub_tile(), 4);
        assert_eq!(w.cache_rows(), 9); // 3 * (2^2 - 1)
        assert_eq!(w.threads_per_block(), 4);
        assert_eq!(w.eliminations_per_thread(), 2);
        assert_eq!(w.eliminations_per_sub_tile(), 8);

        let w = WindowProperties::new(8, 2).unwrap();
        assert_eq!(w.sub_tile(), 512);
        assert_eq!(w.threads_per_block(), 256);
        assert_eq!(w.eliminations_per_thread(), 16);
        assert_eq!(w.eliminations_per_sub_tile(), 16 * 256);
        assert!(w.cache_rows() <= 3 * 256);

        assert!(WindowProperties::new(3, 0).is_err());
        assert!(WindowProperties::new(40, 1).is_err());
    }

    #[test]
    fn shared_bytes_fits_gtx480_shared_memory_for_paper_configs() {
        // Table III configs must fit in 48 KiB of shared memory in f64.
        for (k, c) in [(8u32, 1usize), (7, 2), (6, 4), (5, 8)] {
            let w = WindowProperties::new(k, c).unwrap();
            assert!(
                w.shared_bytes(8) <= 48 * 1024,
                "k={k} c={c}: {} bytes",
                w.shared_bytes(8)
            );
        }
    }
}
