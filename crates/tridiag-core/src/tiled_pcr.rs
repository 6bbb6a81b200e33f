//! Tiled PCR drivers (Section III-A and Fig. 11).
//!
//! Three host-side realisations of k-step PCR over a large system, all
//! producing output **identical** to the monolithic [`crate::pcr::reduce`]
//! but with very different memory/compute redundancy — the heart of the
//! paper's argument:
//!
//! - [`reduce_streamed`] — ONE buffered sliding window streams the whole
//!   system sub-tile by sub-tile (Fig. 11(a)): zero redundant loads,
//!   zero redundant eliminations, `O(f(k))` resident state.
//! - [`reduce_partitioned`] — the system is split across `G` workers,
//!   each streaming its own window (Fig. 11(b)): enables parallelism at
//!   the price of `f(k)` redundant halo loads per internal boundary.
//! - [`reduce_naive_tiled`] — the strawman of Fig. 7: each tile
//!   independently re-loads its `f(k)`-deep halo **and** re-computes the
//!   `g(k)` intermediate eliminations, per tile, per side.
//!
//! The [`TilingStats`] returned by each driver quantify Eqs. 8–9
//! empirically; `crates/bench --bin fig7_redundancy` tabulates them.

use crate::cost_model;
use crate::cr::{reduce_row, Row};
use crate::error::{Result, TridiagError};
use crate::pcr::ReducedSystem;
use crate::scalar::Scalar;
use crate::sliding_window::PcrOp;
use crate::streaming::{StreamingStencil, WindowStats};
use crate::system::TridiagonalSystem;

/// Work/traffic accounting for one tiled reduction run.
#[derive(Debug, Clone, Copy, Default, PartialEq, Eq)]
pub struct TilingStats {
    /// Input rows loaded from "global memory" (including re-loads).
    pub rows_loaded: usize,
    /// Rows loaded more than once (halo redundancy, Eq. 8 aggregate).
    pub redundant_loads: usize,
    /// Elimination operations performed.
    pub eliminations: usize,
    /// Eliminations beyond the `k·n` a redundancy-free reduction needs
    /// (Eq. 9 aggregate).
    pub redundant_eliminations: usize,
    /// Number of tiles / partitions processed.
    pub tiles: usize,
}

impl TilingStats {
    fn from_window(n: usize, k: u32, w: &WindowStats, tiles: usize) -> Self {
        let ideal = k as usize * n;
        let elim = w.productive_eliminations + w.flush_eliminations;
        TilingStats {
            rows_loaded: w.rows_loaded,
            redundant_loads: w.rows_loaded.saturating_sub(n),
            eliminations: elim,
            redundant_eliminations: elim.saturating_sub(ideal),
            tiles,
        }
    }
}

/// Stream the whole system through one buffered sliding window,
/// `sub_tile` rows at a time (Fig. 11(a): one worker iterates the
/// window). Output equals `pcr::reduce(system, k)` exactly.
pub fn reduce_streamed<S: Scalar>(
    system: &TridiagonalSystem<S>,
    k: u32,
    sub_tile: usize,
) -> Result<(ReducedSystem<S>, TilingStats)> {
    if sub_tile == 0 {
        return Err(TridiagError::InvalidConfig("sub_tile must be >= 1".into()));
    }
    let n = system.len();
    let mut pipe = StreamingStencil::new(PcrOp::default(), n, k)?;
    let mut pos = 0usize;
    while pos < n {
        let end = (pos + sub_tile).min(n);
        for i in pos..end {
            pipe.push(Row::from_system(system, i))?;
        }
        pos = end;
    }
    let tiles = n.div_ceil(sub_tile);
    let (rows, wstats) = pipe.finish()?;
    Ok((
        ReducedSystem::from_rows(&rows, 1usize << k),
        TilingStats::from_window(n, k, &wstats, tiles),
    ))
}

/// Split the system into `partitions` contiguous regions, each streamed
/// by its own sliding window (Fig. 11(b): one system mapped onto a group
/// of workers). Each internal boundary costs up to `f(k)` redundant halo
/// loads per side plus the lead-in eliminations — the trade the paper
/// calls out for this configuration. Output equals the monolithic
/// reduction exactly.
pub fn reduce_partitioned<S: Scalar>(
    system: &TridiagonalSystem<S>,
    k: u32,
    partitions: usize,
) -> Result<(ReducedSystem<S>, TilingStats)> {
    let n = system.len();
    if partitions == 0 || partitions > n {
        return Err(TridiagError::InvalidConfig(format!(
            "partitions = {partitions} must be in 1..={n}"
        )));
    }
    let mut rows: Vec<Row<S>> = Vec::with_capacity(n);
    let mut merged = WindowStats::default();
    let base = n / partitions;
    let extra = n % partitions;
    let mut lo = 0usize;
    for g in 0..partitions {
        let len = base + usize::from(g < extra);
        let hi = lo + len;
        let mut pipe = StreamingStencil::with_range(PcrOp::default(), n, k, lo, hi)?;
        let (start, end) = (pipe.next_input_pos(), pipe.input_end());
        for i in start..end {
            pipe.push(Row::from_system(system, i))?;
        }
        let (part_rows, part_stats) = pipe.finish()?;
        merged.merge(&part_stats);
        rows.extend(part_rows);
        lo = hi;
    }
    debug_assert_eq!(rows.len(), n);
    Ok((
        ReducedSystem::from_rows(&rows, 1usize << k),
        TilingStats::from_window(n, k, &merged, partitions),
    ))
}

/// The naive tiling strawman (Fig. 7): every `tile`-row block
/// independently loads its `f(k)`-deep halos and performs a full local
/// k-step reduction, recomputing every intermediate value the
/// neighbouring tiles also compute. Returns exact monolithic output and
/// the (large) redundancy counters.
pub fn reduce_naive_tiled<S: Scalar>(
    system: &TridiagonalSystem<S>,
    k: u32,
    tile: usize,
) -> Result<(ReducedSystem<S>, TilingStats)> {
    let n = system.len();
    if tile == 0 {
        return Err(TridiagError::InvalidConfig("tile must be >= 1".into()));
    }
    if k > 0 && (1usize << k) > n {
        return Err(TridiagError::TooManySteps { k, n });
    }
    let halo = cost_model::halo_elements(k) as usize;
    let mut out: Vec<Row<S>> = Vec::with_capacity(n);
    let mut stats = TilingStats::default();

    let mut lo = 0usize;
    while lo < n {
        let hi = (lo + tile).min(n);
        stats.tiles += 1;
        // Extended range covering the dependency cone of [lo, hi).
        let ext_lo = lo.saturating_sub(halo);
        let ext_hi = (hi + halo).min(n);
        stats.rows_loaded += ext_hi - ext_lo;

        // Local lockstep PCR over the extended range; positions outside
        // [0, n) are identity exactly as in the monolithic algorithm, so
        // rows whose cone is fully covered match it bit for bit.
        let mut cur: Vec<Row<S>> = (ext_lo..ext_hi)
            .map(|i| Row::from_system(system, i))
            .collect();
        let mut next = cur.clone();
        for step in 0..k {
            let stride = 1usize << step;
            for (local, slot) in next.iter_mut().enumerate() {
                let gpos = ext_lo + local;
                let prev = if gpos >= stride && gpos - stride >= ext_lo {
                    cur[local - stride]
                } else if gpos >= stride {
                    // Dependency outside the loaded extension: only rows
                    // outside the emit cone hit this; substitute identity.
                    Row::identity()
                } else {
                    Row::identity()
                };
                let nxt = if gpos + stride < n && local + stride < cur.len() {
                    cur[local + stride]
                } else {
                    Row::identity()
                };
                *slot = reduce_row(prev, cur[local], nxt, gpos)?;
                stats.eliminations += 1;
            }
            std::mem::swap(&mut cur, &mut next);
        }
        out.extend_from_slice(&cur[lo - ext_lo..hi - ext_lo]);
        lo = hi;
    }

    stats.redundant_loads = stats.rows_loaded - n;
    stats.redundant_eliminations = stats.eliminations.saturating_sub(k as usize * n);
    Ok((ReducedSystem::from_rows(&out, 1usize << k), stats))
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::cost_model::halo_elements;
    use crate::generators::dominant_random;
    use crate::pcr;

    fn assert_rows_equal(a: &ReducedSystem<f64>, b: &ReducedSystem<f64>, ctx: &str) {
        let (aa, ab, ac, ad) = a.arrays();
        let (ba, bb, bc, bd) = b.arrays();
        assert_eq!(aa.len(), ba.len(), "{ctx}: lengths");
        for i in 0..aa.len() {
            assert_eq!(aa[i], ba[i], "{ctx}: a[{i}]");
            assert_eq!(ab[i], bb[i], "{ctx}: b[{i}]");
            assert_eq!(ac[i], bc[i], "{ctx}: c[{i}]");
            assert_eq!(ad[i], bd[i], "{ctx}: d[{i}]");
        }
    }

    #[test]
    fn streamed_equals_monolithic_exactly() {
        for (n, k, st) in [
            (64usize, 2u32, 8usize),
            (64, 2, 7), // sub-tile not dividing n
            (100, 3, 16),
            (512, 5, 32),
            (1000, 4, 1), // element-at-a-time
        ] {
            let s = dominant_random::<f64>(n, n as u64 + k as u64);
            let mono = pcr::reduce(&s, k).unwrap();
            let (tiled, stats) = reduce_streamed(&s, k, st).unwrap();
            assert_rows_equal(&tiled, &mono, &format!("n={n} k={k} st={st}"));
            assert_eq!(stats.redundant_loads, 0);
            assert_eq!(stats.rows_loaded, n);
            assert_eq!(stats.tiles, n.div_ceil(st));
        }
    }

    #[test]
    fn streamed_has_zero_productive_redundancy() {
        let s = dominant_random::<f64>(2048, 9);
        let (_, stats) = reduce_streamed(&s, 6, 64).unwrap();
        // Flush eliminations are O(k·f(k)), bounded and n-independent;
        // everything else is exactly k·n.
        assert!(stats.redundant_eliminations <= 6 * halo_elements(6) as usize * 2);
        assert_eq!(stats.redundant_loads, 0);
    }

    #[test]
    fn partitioned_equals_monolithic_exactly() {
        for (n, k, g) in [
            (128usize, 3u32, 2usize),
            (128, 3, 4),
            (500, 4, 3),
            (1024, 6, 8),
        ] {
            let s = dominant_random::<f64>(n, 31 + n as u64);
            let mono = pcr::reduce(&s, k).unwrap();
            let (part, stats) = reduce_partitioned(&s, k, g).unwrap();
            assert_rows_equal(&part, &mono, &format!("n={n} k={k} g={g}"));
            assert_eq!(stats.tiles, g);
            // Halo loads: internal boundaries each cost up to 2·f(k).
            let bound = 2 * (g - 1) * halo_elements(k) as usize;
            assert!(
                stats.redundant_loads <= bound,
                "redundant {} > bound {bound}",
                stats.redundant_loads
            );
            if g > 1 && halo_elements(k) > 0 {
                assert!(
                    stats.redundant_loads > 0,
                    "partitioning must cost halo loads"
                );
            }
        }
    }

    #[test]
    fn partitioned_stats_are_pinned() {
        let s = dominant_random::<f64>(500, 37);
        let (_, stats) = reduce_partitioned(&s, 4, 3).unwrap();
        assert_eq!(
            stats,
            TilingStats {
                rows_loaded: 560,
                redundant_loads: 60,
                eliminations: 2300,
                redundant_eliminations: 300,
                tiles: 3,
            }
        );
    }

    #[test]
    fn single_partition_is_redundancy_free() {
        let s = dominant_random::<f64>(256, 5);
        let (_, stats) = reduce_partitioned(&s, 4, 1).unwrap();
        assert_eq!(stats.redundant_loads, 0);
    }

    #[test]
    fn naive_equals_monolithic_but_pays_redundancy() {
        for (n, k, tile) in [(64usize, 2u32, 8usize), (256, 3, 16), (500, 4, 50)] {
            let s = dominant_random::<f64>(n, 5 + n as u64);
            let mono = pcr::reduce(&s, k).unwrap();
            let (naive, stats) = reduce_naive_tiled(&s, k, tile).unwrap();
            assert_rows_equal(&naive, &mono, &format!("naive n={n} k={k}"));
            // Redundant loads per internal boundary ~ 2·f(k) (Eq. 8).
            let boundaries = n.div_ceil(tile) - 1;
            assert!(stats.redundant_loads >= boundaries * halo_elements(k) as usize);
            // Redundant eliminations strictly positive for k >= 2 (Eq. 9 g(k) > 0).
            if k >= 2 {
                assert!(
                    stats.redundant_eliminations > 0,
                    "k={k}: naive tiling must recompute"
                );
            }
        }
    }

    #[test]
    fn naive_redundancy_grows_exponentially_with_k() {
        let n = 4096usize;
        let tile = 64usize;
        let s = dominant_random::<f64>(n, 17);
        let mut prev = 0usize;
        for k in 1..=6u32 {
            let (_, stats) = reduce_naive_tiled(&s, k, tile).unwrap();
            assert!(
                stats.redundant_loads >= prev,
                "k={k}: redundancy must not shrink"
            );
            prev = stats.redundant_loads;
        }
        // At k=6, f(k)=63 ≈ tile size: nearly double the ideal traffic.
        assert!(prev as f64 >= 0.8 * n as f64);
    }

    #[test]
    fn streamed_vs_naive_load_advantage() {
        // The paper's core claim in numbers: same output, a fraction of
        // the traffic.
        let n = 8192;
        let k = 5;
        let s = dominant_random::<f64>(n, 23);
        let (_, sw) = reduce_streamed(&s, k, 32).unwrap();
        let (_, nv) = reduce_naive_tiled(&s, k, 32).unwrap();
        assert!(nv.rows_loaded > 2 * sw.rows_loaded);
        assert!(nv.eliminations > sw.eliminations);
    }

    #[test]
    fn config_validation() {
        let s = dominant_random::<f64>(64, 1);
        assert!(reduce_streamed(&s, 2, 0).is_err());
        assert!(reduce_partitioned(&s, 2, 0).is_err());
        assert!(reduce_partitioned(&s, 2, 65).is_err());
        assert!(reduce_naive_tiled(&s, 2, 0).is_err());
        assert!(reduce_naive_tiled(&s, 7, 8).is_err()); // 2^7 > 64
    }
}
