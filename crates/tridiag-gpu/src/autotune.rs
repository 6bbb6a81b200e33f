//! Empirical re-derivation of the algorithm-transition heuristic
//! (Table III) on the simulator, and the generator of the planner's
//! tuned decision table.
//!
//! The paper: "we present empirical heuristic values that are optimized
//! on NVidia GTX480 … finding proper values for different situations can
//! be done only once and the effort can be quickly amortized". This
//! module is that one-off search, and the only one:
//!
//! - [`candidates`] times every decision the planner could make for
//!   one `(M, N)`: `k ∈ 0..=clamp` × {one block per system, the `Auto`
//!   partition}, fused wherever [`crate::plan::cost::fused_fits`]
//!   allows. [`pick`] takes the modeled-fastest of them, Table III's
//!   decision on a tie. `tridiag tune` and the `table3` bench binary
//!   print the pick next to Table III's `k`.
//! - [`tune_table`] / [`tune_cell`]: the decision table
//!   [`crate::plan::cost::decide`] reads on the stock GTX480. Each cell
//!   `(elem_bytes, ⌊log2 M⌋, ⌊log2 N⌋)` holds the pick at its
//!   power-of-two corner, except where Table III takes p-Thomas (see
//!   [`tune_cell`]). Corners above the generation cap (`M·N > 2^22`
//!   rows) are not tuned: their cells are empty and Table III decides
//!   them. [`emit_table`] renders the checked-in `plan/tuned.rs`
//!   (`tridiag tune --emit FILE`), and a release-only test re-tunes a
//!   sample of cells against it. Nothing is probed at run time.

use crate::buffers::GpuScalar;
use crate::plan::cost::{self, Decision, TunedCell, TUNED_M_ROWS, TUNED_N_COLS, TUNED_N_MIN_LOG2};
use crate::solver::{GpuSolverConfig, GpuTridiagSolver, MappingVariant};
use gpu_sim::{DeviceSpec, Result, SimError};
use tridiag_core::generators::random_batch;
use tridiag_core::transition::TransitionPolicy;

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
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct Candidate {
    /// The `(k, mapping request)` a table cell would hold for it.
    pub cell: TunedCell,
    /// The decision that cell resolves to at the probed `(m, n)`.
    pub decision: Decision,
    /// Modeled time of the solve (µs).
    pub us: f64,
}

/// Every candidate decision for `m` systems of `n` rows at
/// `elem_bytes` (4 or 8) on `spec`, timed: each `k ∈ 0..=clamp`, and
/// each `k > 0` under one block per system and under the partition
/// [`MappingVariant::Auto`] resolves to (timed once when the two are
/// the same plan), fused where the default config fuses. In that
/// order, so the `k = 0` p-Thomas decision comes first.
pub fn candidates(
    spec: &DeviceSpec,
    elem_bytes: usize,
    m: usize,
    n: usize,
) -> Result<Vec<Candidate>> {
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

/// The tuner's pick from `timed`: the first minimum of the modeled
/// time, except that a tie with `paper` — Table III's decision
/// ([`cost::table3_decision`]) — keeps Table III's, as the cell
/// `(paper.k, Auto)`. `None` only for an empty list.
pub fn pick(timed: &[Candidate], paper: Decision) -> Option<Candidate> {
    let best = timed.iter().min_by(|a, b| a.us.total_cmp(&b.us))?;
    if timed.iter().any(|c| c.decision == paper && c.us == best.us) {
        return Some(Candidate {
            cell: (paper.k, MappingVariant::Auto),
            decision: paper,
            us: best.us,
        });
    }
    Some(*best)
}

/// The tuned table's cell for `m` systems of `n` rows at `elem_bytes`
/// on `spec`: the [`pick`] of the timed [`candidates`].
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
    pick(&timed, paper)
        .map(|c| c.cell)
        .ok_or_else(|| SimError::InvalidPlan(format!("no candidate decision at m={m} n={n}")))
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
}
