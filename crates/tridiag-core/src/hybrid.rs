//! The host-side hybrid solver: tiled PCR front end + Thomas back end
//! (Section III).
//!
//! This is the algorithmic reference for `tridiag-gpu`'s kernel
//! pipeline: identical staging (choose `k` → k-step tiled PCR →
//! independent Thomas solves on the `2^k` interleaved subsystems →
//! scatter), minus the simulated hardware. The GPU solver's numeric
//! output is tested against this module.

use crate::batch::SystemBatch;
use crate::error::Result;
use crate::scalar::Scalar;
use crate::system::TridiagonalSystem;
use crate::thomas;
use crate::tiled_pcr::{self, TilingStats};
use crate::transition::{choose_k, TransitionPolicy};

/// Configuration of the hybrid solver.
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct HybridConfig {
    /// How to pick the PCR step count.
    pub policy: TransitionPolicy,
    /// Sub-tile scale `c` (sub-tile = `c · 2^k` rows, Table I).
    pub sub_tile_scale: usize,
}

impl Default for HybridConfig {
    fn default() -> Self {
        Self {
            policy: TransitionPolicy::default(),
            sub_tile_scale: 1,
        }
    }
}

/// What the solver actually did — useful for tests, tuning and the
/// reproduction harness.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct HybridReport {
    /// PCR steps applied.
    pub k: u32,
    /// Independent subsystems handed to the Thomas stage (per system).
    pub subsystems: usize,
    /// Tiled-PCR work/traffic counters.
    pub tiling: TilingStats,
    /// Elimination steps spent in the Thomas stage.
    pub thomas_eliminations: usize,
}

/// Solve one system with the hybrid algorithm.
pub fn solve<S: Scalar>(
    system: &TridiagonalSystem<S>,
    config: HybridConfig,
) -> Result<(Vec<S>, HybridReport)> {
    let n = system.len();
    let k = choose_k(config.policy, 1, n);
    let sub_tile = config.sub_tile_scale.max(1) << k;
    let (reduced, tiling) = tiled_pcr::reduce_streamed(system, k, sub_tile)?;
    let x = reduced.solve_subsystems_thomas()?;
    let subsystems = reduced.num_subsystems();
    let sub_len = n.div_ceil(subsystems);
    Ok((
        x,
        HybridReport {
            k,
            subsystems,
            tiling,
            thomas_eliminations: subsystems * thomas::elimination_steps(sub_len),
        },
    ))
}

/// Solve a batch of `M` systems. The transition policy sees the true
/// `M`, so large batches skip PCR entirely (Table III's `M ≥ 1024`
/// row) while small batches of large systems get deep PCR.
///
/// Returns the solutions in the batch's layout plus one report (the
/// per-system staging is identical across the batch).
pub fn solve_batch<S: Scalar>(
    batch: &SystemBatch<S>,
    config: HybridConfig,
) -> Result<(Vec<S>, HybridReport)> {
    let m = batch.num_systems();
    let n = batch.system_len();
    let k = choose_k(config.policy, m, n);
    let sub_tile = config.sub_tile_scale.max(1) << k;

    let mut x = vec![S::ZERO; batch.total_len()];
    let mut tiling = TilingStats::default();
    let mut thomas_elims = 0usize;
    let mut subsystems = 1;
    for sys in 0..m {
        let system = batch.system(sys)?;
        let (reduced, t) = tiled_pcr::reduce_streamed(&system, k, sub_tile)?;
        let xs = reduced.solve_subsystems_thomas()?;
        subsystems = reduced.num_subsystems();
        let sub_len = n.div_ceil(subsystems);
        thomas_elims += subsystems * thomas::elimination_steps(sub_len);
        tiling.rows_loaded += t.rows_loaded;
        tiling.redundant_loads += t.redundant_loads;
        tiling.eliminations += t.eliminations;
        tiling.redundant_eliminations += t.redundant_eliminations;
        tiling.tiles += t.tiles;
        for row in 0..n {
            x[batch.index(sys, row)] = xs[row];
        }
    }
    Ok((
        x,
        HybridReport {
            k,
            subsystems,
            tiling,
            thomas_eliminations: thomas_elims,
        },
    ))
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::generators::{dominant_random, random_batch};
    use crate::transition::TransitionPolicy;

    #[test]
    fn single_system_matches_thomas() {
        for n in [8usize, 100, 512, 5000] {
            let s = dominant_random::<f64>(n, n as u64);
            let (x, report) = solve(&s, HybridConfig::default()).unwrap();
            let xt = thomas::solve_typed(&s).unwrap();
            for i in 0..n {
                assert!((x[i] - xt[i]).abs() < 1e-8, "n={n} row {i}");
            }
            // M=1 means Table III wants k=8 (clamped by size).
            assert_eq!(
                report.k,
                crate::transition::choose_k(TransitionPolicy::Gtx480Heuristic, 1, n)
            );
            assert_eq!(report.subsystems, 1 << report.k);
        }
    }

    #[test]
    fn residuals_small_for_all_policies() {
        let s = dominant_random::<f64>(2048, 3);
        for policy in [
            TransitionPolicy::Gtx480Heuristic,
            TransitionPolicy::Fixed(0),
            TransitionPolicy::Fixed(4),
        ] {
            let cfg = HybridConfig {
                policy,
                sub_tile_scale: 2,
            };
            let (x, _) = solve(&s, cfg).unwrap();
            assert!(
                s.relative_residual(&x).unwrap() < 1e-10,
                "policy {policy:?}"
            );
        }
    }

    #[test]
    fn batch_solution_layout_and_accuracy() {
        let batch = random_batch::<f64>(8, 128, 5).to_layout(crate::batch::Layout::Interleaved);
        let (x, report) = solve_batch(&batch, HybridConfig::default()).unwrap();
        assert!(batch.max_relative_residual(&x).unwrap() < 1e-10);
        // M=8 < 16: Table III says k=7 (128-unknown systems allow it).
        assert_eq!(report.k, 7);
        assert_eq!(report.tiling.tiles, 8); // one sub-tile per system at c=1
    }

    #[test]
    fn large_batch_skips_pcr() {
        let batch = random_batch::<f64>(1024, 32, 6);
        let (x, report) = solve_batch(&batch, HybridConfig::default()).unwrap();
        assert_eq!(report.k, 0, "M >= 1024 must go straight to p-Thomas");
        assert_eq!(report.tiling.eliminations, 0);
        assert!(batch.max_relative_residual(&x).unwrap() < 1e-10);
    }

    #[test]
    fn report_work_accounting_consistent() {
        let s = dominant_random::<f64>(4096, 8);
        let cfg = HybridConfig {
            policy: TransitionPolicy::Fixed(5),
            sub_tile_scale: 1,
        };
        let (_, report) = solve(&s, cfg).unwrap();
        assert_eq!(report.k, 5);
        assert_eq!(report.subsystems, 32);
        // PCR productive work is k·n; flush adds an n-independent tail.
        assert!(report.tiling.eliminations >= 5 * 4096);
        // Thomas stage: 32 subsystems of 128 unknowns, 2·128−1 steps each.
        assert_eq!(report.thomas_eliminations, 32 * 255);
    }
}
