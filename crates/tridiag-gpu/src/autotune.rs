//! Empirical re-derivation of the algorithm-transition heuristic
//! (Table III) on the simulator, and the generator of the planner's
//! tuned decision table.
//!
//! The paper: "we present empirical heuristic values that are optimized
//! on NVidia GTX480 … finding proper values for different situations can
//! be done only once and the effort can be quickly amortized". This
//! module is that one-off search, in two forms:
//!
//! - [`tune`]: for each `M`, solve a representative batch with every
//!   feasible `k` and keep the fastest. The `table3` bench binary
//!   prints the result next to the paper's values.
//! - [`tune_table`] / [`tune_cell`]: the decision table
//!   [`crate::plan::cost::decide`] reads on the stock GTX480. Each cell
//!   `(elem_bytes, ⌊log2 M⌋, ⌊log2 N⌋)` holds the argmin of modeled
//!   `total_us` at its power-of-two corner over `k ∈ 0..=clamp` × {one
//!   block per system, the `Auto` partition}, fused wherever
//!   [`crate::plan::cost::fused_fits`] allows; a tie keeps Table III's
//!   decision, and so does a corner where Table III takes p-Thomas
//!   (see [`tune_cell`]). Corners above the generation cap (`M·N >
//!   2^22` rows) are not tuned: their cells are empty and Table III
//!   decides them. [`emit_table`] renders the checked-in `plan/tuned.rs`
//!   (`tridiag tune --emit FILE`), and a release-only test re-tunes a
//!   sample of cells against it. Nothing is probed at run time.

use crate::buffers::GpuScalar;
use crate::plan::cost::{self, Decision, TunedCell, TUNED_M_ROWS, TUNED_N_COLS, TUNED_N_MIN_LOG2};
use crate::plan::ShardedPlan;
use crate::sharded::ShardedExecutor;
use crate::solver::{GpuSolverConfig, GpuTridiagSolver, LayoutChoice, MappingVariant};
use gpu_sim::{DeviceGroup, DeviceSpec, Result};
use tridiag_core::generators::random_batch;
use tridiag_core::transition::{max_k_for, TransitionPolicy};

/// One tuning measurement.
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct TunePoint {
    /// Number of systems.
    pub m: usize,
    /// System size used for the probe.
    pub n: usize,
    /// Fastest PCR step count found.
    pub best_k: u32,
    /// Modeled time at `best_k` (µs).
    pub best_us: f64,
    /// Modeled time at `k = 0` (pure p-Thomas), for reference.
    pub k0_us: f64,
}

/// The config that probes a fixed `k` under the `layout` request.
fn candidate_config(k: u32, layout: LayoutChoice) -> GpuSolverConfig {
    GpuSolverConfig {
        policy: TransitionPolicy::Fixed(k),
        mapping: MappingVariant::Auto,
        layout,
        ..Default::default()
    }
}

/// Search `k ∈ 0..=k_max` for the fastest configuration at each `m` on
/// `group`: plan one [`ShardedPlan`] per feasible `k` (the fixed `k`
/// pinned into every shard), execute them all through the
/// [`ShardedExecutor`] on the same probe batch, and rank by the group's
/// modeled kernel wall-clock — the max over devices, not a sum
/// (earliest `k` wins ties). A one-device group is the single-device
/// search: its sharded plan and executor are the identity path.
///
/// `layout` is the planner's layout request for every candidate:
/// `Interleaved` collapses the search (every candidate is the pure
/// p-Thomas plan, so `best_k` is always 0); `Contiguous` ranks the
/// uncoalesced strawman at `k = 0` against the hybrid pipelines.
/// Plan and execution failures propagate as typed errors.
pub fn tune<S: GpuScalar + Send + Sync>(
    group: &DeviceGroup,
    m_values: &[usize],
    n: usize,
    k_max: u32,
    layout: LayoutChoice,
) -> Result<Vec<TunePoint>> {
    let bytes = <S as gpu_sim::Elem>::BYTES;
    let mut out = Vec::with_capacity(m_values.len());
    for &m in m_values {
        let cap = max_k_for(n).min(k_max);
        let candidates: Vec<(u32, ShardedPlan)> = (0..=cap)
            .map(|k| {
                ShardedPlan::build(group, &candidate_config(k, layout), m, n, bytes).map(|p| (k, p))
            })
            .collect::<Result<_>>()?;
        let batch = random_batch::<S>(m, n, 42 + m as u64);
        let mut best_k = 0;
        let mut best_us = f64::INFINITY;
        let mut k0_us = 0.0;
        for (k, plan) in &candidates {
            let executor = ShardedExecutor::new(group.clone(), plan.reference.config.exec);
            let (_, report) = executor.run(plan, &batch)?;
            let us = report.total_us;
            if *k == 0 {
                k0_us = us;
            }
            if us < best_us {
                best_us = us;
                best_k = *k;
            }
        }
        out.push(TunePoint {
            m,
            n,
            best_k,
            best_us,
            k0_us,
        });
    }
    Ok(out)
}

/// The generation cap: corners holding more than this many rows
/// (`M·N`) are not tuned, and Table III decides them.
const TUNE_ROWS_CAP: usize = 1 << 22;

/// Modeled `total_us` of one solve of `m` systems of `n` rows under
/// `config` on `spec`.
fn modeled_us<S: GpuScalar>(
    spec: &DeviceSpec,
    config: GpuSolverConfig,
    m: usize,
    n: usize,
) -> Result<f64> {
    let batch = random_batch::<S>(m, n, 42 + m as u64);
    let (_, report) = GpuTridiagSolver::new(spec.clone(), config).solve_batch(&batch)?;
    Ok(report.total_us)
}

/// One decision the tuner times: the cell that requests it, the
/// decision it resolves to, and its modeled `total_us`.
struct Candidate {
    /// The `(k, mapping request)` a table cell would hold for it.
    cell: TunedCell,
    /// The decision that cell resolves to at the probed `(m, n)`.
    decision: Decision,
    /// Modeled time of the solve (µs).
    us: f64,
}

/// Every candidate decision for `m` systems of `n` rows at
/// `elem_bytes` (4 or 8) on `spec`, timed: each `k ∈ 0..=clamp`, and
/// each `k > 0` under one block per system and under the partition
/// [`MappingVariant::Auto`] resolves to (timed once when the two are
/// the same plan), fused where the default config fuses. In that
/// order.
fn candidates(spec: &DeviceSpec, elem_bytes: usize, m: usize, n: usize) -> Result<Vec<Candidate>> {
    let clamp = cost::clamp_k(spec, 1, elem_bytes, n, u32::MAX);
    let mut timed: Vec<Candidate> = Vec::new();
    for k in 0..=clamp {
        let requests: &[MappingVariant] = if k == 0 {
            &[MappingVariant::Auto]
        } else {
            &[MappingVariant::BlockPerSystem, MappingVariant::Auto]
        };
        for &mapping in requests {
            let config = GpuSolverConfig {
                policy: TransitionPolicy::Fixed(k),
                mapping,
                ..Default::default()
            };
            let decision = cost::decide(spec, &config, m, n, elem_bytes);
            if timed.iter().any(|c| c.decision == decision) {
                continue;
            }
            let us = match elem_bytes {
                4 => modeled_us::<f32>(spec, config, m, n)?,
                _ => modeled_us::<f64>(spec, config, m, n)?,
            };
            timed.push(Candidate {
                cell: (k, mapping),
                decision,
                us,
            });
        }
    }
    Ok(timed)
}

/// The modeled-fastest [`TunedCell`] for `m` systems of `n` rows at
/// `elem_bytes` on `spec`: the first minimum of the timed candidates
/// (every `k ∈ 0..=clamp` under one block per system and `Auto`), except
/// that a tie with Table III's decision ([`cost::table3_decision`])
/// keeps Table III's.
///
/// Where Table III takes p-Thomas (`M ≥ 1024`) the cell keeps it
/// untimed: the tuner may move a hybrid corner to p-Thomas but not a
/// p-Thomas corner into the hybrid. On the simulator a hybrid solve
/// interprets `k` PCR levels per row, several times the host work of
/// p-Thomas at the same rows (f32 `(1024, 512)`: 174 ms at `k = 5`
/// against 25 ms at `k = 0` on a 2-vCPU host), for a modeled gain
/// (333.9 → 245.8 µs there) that only the f32 `M ∈ [1024, 2048)` row
/// would take.
pub fn tune_cell(spec: &DeviceSpec, elem_bytes: usize, m: usize, n: usize) -> Result<TunedCell> {
    let paper = cost::table3_decision(spec, &GpuSolverConfig::default(), m, n, elem_bytes);
    if paper.k == 0 {
        return Ok((0, MappingVariant::Auto));
    }
    let timed = candidates(spec, elem_bytes, m, n)?;
    let best = timed.iter().map(|c| c.us).fold(f64::INFINITY, f64::min);
    if timed.iter().any(|c| c.decision == paper && c.us == best) {
        return Ok((paper.k, MappingVariant::Auto));
    }
    Ok(timed
        .iter()
        .find(|c| c.us == best)
        .expect("k = 0 is always a candidate")
        .cell)
}

/// The whole decision table for `elem_bytes` on `spec`, indexed
/// `[⌊log2 M⌋][⌊log2 N⌋ − TUNED_N_MIN_LOG2]`: [`tune_cell`] at every
/// power-of-two corner with at most `2^22` rows, `None`
/// above the cap. `on_cell` sees every tuned cell as it is filled.
pub fn tune_table(
    spec: &DeviceSpec,
    elem_bytes: usize,
    mut on_cell: impl FnMut(u32, u32, TunedCell),
) -> Result<Vec<Vec<Option<TunedCell>>>> {
    let mut table = Vec::with_capacity(TUNED_M_ROWS as usize);
    for a in 0..TUNED_M_ROWS {
        let mut row = Vec::with_capacity(TUNED_N_COLS as usize);
        for col in 0..TUNED_N_COLS {
            let b = TUNED_N_MIN_LOG2 + col;
            let (m, n) = (1usize << a, 1usize << b);
            let cell = if m * n <= TUNE_ROWS_CAP {
                let cell = tune_cell(spec, elem_bytes, m, n)?;
                on_cell(a, b, cell);
                Some(cell)
            } else {
                None
            };
            row.push(cell);
        }
        table.push(row);
    }
    Ok(table)
}

/// Render the checked-in table source (`plan/tuned.rs`) from the f32
/// and f64 tables [`tune_table`] produced.
pub fn emit_table(
    f32_table: &[Vec<Option<TunedCell>>],
    f64_table: &[Vec<Option<TunedCell>>],
) -> String {
    let mut s = String::from(
        "//! The planner's tuned decision table for the stock GTX480, generated\n\
         //! by `tridiag tune --emit crates/tridiag-gpu/src/plan/tuned.rs`\n\
         //! ([`crate::autotune::tune_table`]). Do not edit by hand: the\n\
         //! release-only `autotune` test re-tunes sample cells against it.\n\
         //!\n\
         //! `[⌊log2 M⌋][⌊log2 N⌋ − 2]` → `(k, mapping)`: `b(k)` is one block\n\
         //! per system, `p(k)` the partition `MappingVariant::Auto` resolves\n\
         //! for the solve's own `(m, n)`, and `NA` a corner above the\n\
         //! generation cap (`M·N > 2^22`), which Table III decides.\n\
         \n\
         use super::cost::TunedCell;\n\
         use crate::solver::MappingVariant;\n\
         \n\
         const NA: Option<TunedCell> = None;\n\
         \n\
         const fn b(k: u32) -> Option<TunedCell> {\n\
         \x20   Some((k, MappingVariant::BlockPerSystem))\n\
         }\n\
         \n\
         const fn p(k: u32) -> Option<TunedCell> {\n\
         \x20   Some((k, MappingVariant::Auto))\n\
         }\n",
    );
    for (name, table) in [("F32", f32_table), ("F64", f64_table)] {
        s.push_str(&format!(
            "\n#[rustfmt::skip]\npub(super) const {name}: [[Option<TunedCell>; {TUNED_N_COLS}]; {TUNED_M_ROWS}] = [\n"
        ));
        for (a, row) in table.iter().enumerate() {
            let cells: Vec<String> = row
                .iter()
                .map(|cell| match cell {
                    None => "NA".to_string(),
                    Some((k, MappingVariant::BlockPerSystem)) => format!("b({k})"),
                    Some((k, _)) => format!("p({k})"),
                })
                .collect();
            s.push_str(&format!("    // M = 2^{a}\n    [{}],\n", cells.join(", ")));
        }
        s.push_str("];\n");
    }
    s
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::executor::PlanExecutor;
    use crate::plan::SolvePlan;
    use gpu_sim::DeviceSpec;

    #[test]
    #[cfg_attr(debug_assertions, ignore = "slow simulation; run with --release")]
    fn sharded_tuning_halves_the_wall_clock() {
        // Two devices, balanced shards: modeled kernel wall-clock is
        // the max over devices, so it must come in under one device
        // solving the full batch (same probe batch, same k grid).
        let spec = DeviceSpec::gtx480();
        let group = DeviceGroup::homogeneous(spec.clone(), 2).unwrap();
        let single = DeviceGroup::single(spec.clone());
        let solo = tune::<f64>(&single, &[64], 2048, 8, LayoutChoice::Auto).unwrap();
        let duo = tune::<f64>(&group, &[64], 2048, 8, LayoutChoice::Auto).unwrap();
        assert!(
            duo[0].best_us < solo[0].best_us,
            "sharded best {} us !< single-device best {} us",
            duo[0].best_us,
            solo[0].best_us
        );
        // D == 1 tuning is the identity: the winner's time is exactly
        // a plain single-device plan-and-execute of the same probe.
        let config = candidate_config(solo[0].best_k, LayoutChoice::Auto);
        let plan = SolvePlan::build(&spec, &config, 64, 2048, 8).unwrap();
        let batch = random_batch::<f64>(64, 2048, 42 + 64);
        let (_, report) = PlanExecutor::new(spec, config.exec)
            .run(&plan, &batch)
            .unwrap();
        assert_eq!(report.total_us, solo[0].best_us);
    }

    /// The checked-in table is not stale: re-tuning a sample of cells
    /// at each width — the benchmark's hybrid, wide and service shapes
    /// and a lone system — reproduces them. A change to the kernels or
    /// the timing model that moves a winner fails here; regenerate with
    /// `tridiag tune --emit crates/tridiag-gpu/src/plan/tuned.rs`.
    #[test]
    #[cfg_attr(debug_assertions, ignore = "slow simulation; run with --release")]
    fn checked_in_table_matches_a_retune() {
        let spec = DeviceSpec::gtx480();
        let cells = [
            (1usize, 16384usize), // M = 1, hybrid menu
            (2, 256),             // service stream
            (4, 8192),
            (16, 1024),  // hybrid
            (64, 512),   // hybrid
            (256, 512),  // hybrid
            (1024, 512), // wide
            (2048, 64),  // wide
        ];
        for bytes in [4, 8] {
            for (m, n) in cells {
                let config = GpuSolverConfig::default();
                let cost::Rule::Tuned { m_log2, n_log2 } = cost::rule(&spec, &config, m, n, bytes)
                else {
                    panic!("m={m} n={n}: not a tuned cell");
                };
                let table = cost::tuned_cell(bytes, m_log2, n_log2).unwrap();
                assert_eq!(
                    tune_cell(&spec, bytes, m, n).unwrap(),
                    table,
                    "f{} m={m} n={n}: the checked-in cell is stale",
                    8 * bytes
                );
            }
        }
    }

    #[test]
    #[cfg_attr(debug_assertions, ignore = "slow simulation; run with --release")]
    fn tuned_k_decreases_with_m() {
        // The defining shape of Table III: fewer systems -> deeper PCR.
        let single = DeviceGroup::single(DeviceSpec::gtx480());
        let points = tune::<f64>(&single, &[1, 64, 4096], 2048, 8, LayoutChoice::Auto).unwrap();
        assert!(points[0].best_k >= points[1].best_k);
        assert!(points[1].best_k >= points[2].best_k);
        // Saturated batches want pure p-Thomas.
        assert_eq!(points[2].best_k, 0);
        // A lone system must use PCR (k = 0 would use one thread).
        assert!(points[0].best_k > 0);
        assert!(points[0].best_us < points[0].k0_us);
    }
}
