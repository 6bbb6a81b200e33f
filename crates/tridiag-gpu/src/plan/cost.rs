//! The planner's one decision rule: every `(layout, mapping, fused, k)`
//! pipeline decision of a solve, made in [`decide`].
//!
//! On the stock GTX480 (`spec == DeviceSpec::gtx480()`, every field)
//! under the default config, `k` and the mapping come from an
//! autotuned decision table: the checked-in `tuned.rs` data that
//! [`crate::autotune::tune_table`] generates (`tridiag tune --emit`),
//! keyed on `(elem_bytes, ⌊log2 M⌋, ⌊log2 N⌋)`. Each cell holds the
//! modeled-fastest `k` and mapping at the cell's power-of-two corner
//! (see [`TunedCell`]); `fused: false` keeps that `(k, mapping)` and
//! only forces the split pipeline, so the fusion ablation compares like
//! with like. Any other device (GTX280, C2050, a shrunken test copy),
//! any geometry outside the grid or above its generation cap (an empty
//! cell), and any config that sets the policy, mapping, layout or
//! sub-tile scale takes the paper's path instead — as do plans across
//! several devices, which plan under
//! [`GpuSolverConfig::multi_device`]: `k` from the transition policy
//! (Table III, §III-D) and the mapping from [`MappingVariant::Auto`]'s
//! partition heuristic. [`rule`] says which of the two decided.
//!
//! Either way `k` is then clamped to the device, and the layout follows
//! `k` — interleaved p-Thomas when `k = 0`, the many-systems regime
//! where coalesced lanes pay off, the contiguous hybrid otherwise. A
//! hybrid decision runs the fused tiled-PCR + p-Thomas kernel (§III-C)
//! wherever the mapping is one block per system and the fused launch
//! fits the device ([`fused_fits`]); elsewhere it runs the split
//! pipeline. Setting [`GpuSolverConfig::fused`] to `false` forces the
//! split pipeline for ablations. Fusion saves the reduced-coefficient
//! DRAM round trip and one launch, and loses to split at no probed
//! geometry, device or precision (the `fusion_never_loses_to_split`
//! test holds that). The byte-exact shape of every plan this rule
//! produces on the sweep geometries is pinned by the golden plan
//! snapshots.
//!
//! [`pthomas_transactions`] is the closed-form 128-byte-segment count
//! of a p-Thomas sweep in either layout, built on
//! [`gpu_sim::memory::coalesced_minimum`]; the layout ablation table
//! prices its two columns with it.

use crate::consts::REGS_FUSED;
use crate::kernels::fused::FusedKernel;
use crate::kernels::tiled_pcr::TiledPcrKernel;
use crate::solver::{GpuSolverConfig, LayoutChoice, MappingVariant};
use gpu_sim::memory::coalesced_minimum;
use gpu_sim::DeviceSpec;
use tridiag_core::transition::{choose_k, max_k_for, TransitionPolicy};
use tridiag_core::Layout;

use super::tuned;

/// One fully-resolved pipeline decision: the tuple `SolvePlan::build`
/// emits steps for.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct Decision {
    /// Device-side layout of the coefficient buffers.
    pub layout: Layout,
    /// Resolved grid mapping (never [`MappingVariant::Auto`]).
    pub mapping: MappingVariant,
    /// Whether the fused single-kernel pipeline runs.
    pub fused: bool,
    /// PCR steps (0 = pure p-Thomas).
    pub k: u32,
}

/// One cell of the tuned decision table: the PCR step count and the
/// mapping request — [`MappingVariant::BlockPerSystem`], or
/// [`MappingVariant::Auto`] for the partition `resolve_mapping` picks
/// at the solve's own `(m, n)`. The table holds `None` for a corner
/// above the generation cap, which Table III decides.
pub type TunedCell = (u32, MappingVariant);

/// The one device the tuned table was generated for, every field.
static STOCK_GTX480: DeviceSpec = DeviceSpec::gtx480();

/// `⌊log2 M⌋` rows of the tuned table: `M ∈ [1, 2^TUNED_M_ROWS)`.
pub const TUNED_M_ROWS: u32 = 14;
/// Smallest `⌊log2 N⌋` column of the tuned table.
pub const TUNED_N_MIN_LOG2: u32 = 2;
/// `⌊log2 N⌋` columns of the tuned table: `N ∈ [4, 2^22)`.
pub const TUNED_N_COLS: u32 = 20;

/// Which rule made a [`decide`] decision — the answer to "why did the
/// planner choose this".
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum Rule {
    /// The tuned table's cell `M ∈ [2^m_log2, 2^(m_log2+1))`,
    /// `N ∈ [2^n_log2, 2^(n_log2+1))`.
    Tuned {
        /// `⌊log2 M⌋` of the cell.
        m_log2: u32,
        /// `⌊log2 N⌋` of the cell.
        n_log2: u32,
    },
    /// Table III plus the `Auto` mapping heuristic, with the reason no
    /// table applied.
    TableIII(&'static str),
    /// The config fixes `k` itself.
    Requested,
    /// The config asks for the interleaved layout: pure p-Thomas
    /// (tiled PCR addresses contiguous systems).
    Interleaved,
}

impl std::fmt::Display for Rule {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        match *self {
            Rule::Tuned { m_log2, n_log2 } => write!(
                f,
                "tuned cell M∈[{},{}) N∈[{},{})",
                1u64 << m_log2,
                1u64 << (m_log2 + 1),
                1u64 << n_log2,
                1u64 << (n_log2 + 1)
            ),
            Rule::TableIII(why) => write!(f, "Table III fallback ({why})"),
            Rule::Requested => write!(f, "requested by the solver config"),
            Rule::Interleaved => write!(f, "interleaved layout requested (p-Thomas)"),
        }
    }
}

/// The rule [`decide`] takes for `m` systems of `n` rows at
/// `elem_bytes` on `spec` under `config`.
pub fn rule(
    spec: &DeviceSpec,
    config: &GpuSolverConfig,
    m: usize,
    n: usize,
    elem_bytes: usize,
) -> Rule {
    rule_and_cell(spec, config, m, n, elem_bytes).0
}

/// [`rule`], and the cell it read when that rule is [`Rule::Tuned`]
/// (`None` under every other rule).
fn rule_and_cell(
    spec: &DeviceSpec,
    config: &GpuSolverConfig,
    m: usize,
    n: usize,
    elem_bytes: usize,
) -> (Rule, Option<TunedCell>) {
    if config.layout == LayoutChoice::Interleaved {
        return (Rule::Interleaved, None);
    }
    match config.policy {
        TransitionPolicy::Fixed(_) => return (Rule::Requested, None),
        TransitionPolicy::Gtx480Heuristic => {
            return (Rule::TableIII("policy set to Table III"), None)
        }
        TransitionPolicy::Tuned => {}
    }
    // `fused: false` ablates fusion alone: the tuned (k, mapping) then
    // run split.
    let tunable = config.mapping == MappingVariant::Auto
        && config.layout == LayoutChoice::Auto
        && config.sub_tile_scale == 1;
    if !tunable {
        return (Rule::TableIII("config not tuned"), None);
    }
    if *spec != STOCK_GTX480 {
        return (Rule::TableIII("spec not tuned"), None);
    }
    let log2 = |v: usize| usize::BITS - 1 - v.leading_zeros();
    if m == 0 || n < 1 << TUNED_N_MIN_LOG2 || !matches!(elem_bytes, 4 | 8) {
        return (Rule::TableIII("outside the tuned grid"), None);
    }
    let (m_log2, n_log2) = (log2(m), log2(n));
    if m_log2 >= TUNED_M_ROWS || n_log2 >= TUNED_N_MIN_LOG2 + TUNED_N_COLS {
        return (Rule::TableIII("outside the tuned grid"), None);
    }
    match tuned_cell(elem_bytes, m_log2, n_log2) {
        None => (Rule::TableIII("above the generation cap"), None),
        cell => (Rule::Tuned { m_log2, n_log2 }, cell),
    }
}

/// The checked-in cell for `(elem_bytes, m_log2, n_log2)`, `None` above
/// the generation cap.
pub(crate) fn tuned_cell(elem_bytes: usize, m_log2: u32, n_log2: u32) -> Option<TunedCell> {
    let table = if elem_bytes == 4 {
        &tuned::F32
    } else {
        &tuned::F64
    };
    table[m_log2 as usize][(n_log2 - TUNED_N_MIN_LOG2) as usize]
}

/// Clamp a requested `k` to the device: shared-memory window capacity,
/// system length, and block width.
pub(crate) fn clamp_k(
    spec: &DeviceSpec,
    c: usize,
    elem_bytes: usize,
    n: usize,
    requested: u32,
) -> u32 {
    let mut k = requested
        .min(crate::plan::max_k_for_shared(spec, c, elem_bytes))
        .min(max_k_for(n));
    // 2^k threads per group must fit a block.
    while k > 0 && (1u32 << k) > spec.max_threads_per_block {
        k -= 1;
    }
    k
}

/// Resolve [`MappingVariant::Auto`]: partition lone large systems
/// across block groups so more SMs engage; otherwise one block per
/// system. An explicit multi-system mapping whose shared-memory
/// footprint does not fit falls back to block-per-system.
fn resolve_mapping(
    spec: &DeviceSpec,
    requested: MappingVariant,
    m: usize,
    n: usize,
    k: u32,
    st: usize,
    elem_bytes: usize,
) -> MappingVariant {
    match requested {
        MappingVariant::Auto => {
            let want_blocks = 2 * spec.num_sms as usize;
            if m < want_blocks {
                // Partition each system, but keep partitions at least
                // 4 sub-tiles long so halo overhead stays negligible.
                let g_max_useful = (n / (4 * st)).max(1);
                let g = want_blocks.div_ceil(m).min(g_max_useful);
                if g > 1 {
                    return MappingVariant::BlockGroupPerSystem(g);
                }
            }
            MappingVariant::BlockPerSystem
        }
        explicit => {
            if let MappingVariant::MultiSystemPerBlock(q) = explicit {
                // Validate the footprint fits shared memory.
                let elems = TiledPcrKernel::shared_elems_per_slot(k, st) * q;
                if elems * elem_bytes > spec.max_shared_per_block {
                    return MappingVariant::BlockPerSystem;
                }
            }
            explicit
        }
    }
}

/// Whether the fused kernel at `k` PCR steps and sub-tile `st` can
/// launch on `spec`: its `2^k` threads fit a block, `REGS_FUSED`
/// registers for each of them fit one SM's register file, and its
/// window fits a block's shared memory — the checks
/// [`gpu_sim::occupancy()`] enforces at launch.
pub fn fused_fits(spec: &DeviceSpec, k: u32, st: usize, elem_bytes: usize) -> bool {
    let shared = FusedKernel::shared_elems(k, st) * elem_bytes;
    gpu_sim::occupancy(spec, 1 << k, shared, REGS_FUSED).is_ok()
}

/// The pure-p-Thomas decision at a forced layout.
fn pthomas_decision(layout: Layout) -> Decision {
    Decision {
        layout,
        mapping: MappingVariant::BlockPerSystem,
        fused: false,
        k: 0,
    }
}

/// p-Thomas global transactions for `m` systems of `n` rows stored in
/// `layout`: 9 accesses per row (forward: load a/b/c/d + store c'/d';
/// backward: load c'/d' + store x), each by `m` lanes.
///
/// Interleaved lanes are adjacent, so each access hits the
/// [`coalesced_minimum`] exactly — the closed form the acceptance gate
/// holds the measured counts to. Contiguous lanes stride `n`
/// apart: once `n·elem ≥ segment` every lane owns a segment and each
/// access costs `m` transactions (the model charges that worst case —
/// the strawman exists to lose).
pub fn pthomas_transactions(
    spec: &DeviceSpec,
    layout: Layout,
    m: usize,
    n: usize,
    elem_bytes: usize,
) -> u64 {
    let per_access = match layout {
        Layout::Interleaved => coalesced_minimum(
            m,
            spec.warp_size as usize,
            elem_bytes,
            spec.transaction_bytes,
        ),
        Layout::Contiguous => m as u64,
    };
    9 * n as u64 * per_access
}

/// Resolve every pipeline decision for one solve, deterministically:
/// `k` and the mapping request from the tuned table or, where it does
/// not apply, from the transition policy (Table III, §III-D) and
/// [`GpuSolverConfig::mapping`] (see [`rule`]); then `k` clamped to the
/// device, and the layout implied by `k` — interleaved p-Thomas iff
/// `k = 0`, the contiguous hybrid otherwise. A hybrid decision fuses
/// iff [`GpuSolverConfig::fused`] allows it, the mapping is one block
/// per system, and the fused launch [fits](fused_fits) the device.
///
/// An explicit [`GpuSolverConfig::layout`] restricts the choice:
/// `Interleaved` forces the pure coalesced p-Thomas pipeline (`k = 0`
/// — tiled PCR addresses contiguous systems), `Contiguous` forces
/// system-major buffers (with `k = 0` that is the uncoalesced strawman
/// p-Thomas).
pub fn decide(
    spec: &DeviceSpec,
    config: &GpuSolverConfig,
    m: usize,
    n: usize,
    elem_bytes: usize,
) -> Decision {
    let (requested_k, requested_mapping) = match rule_and_cell(spec, config, m, n, elem_bytes) {
        (Rule::Interleaved, _) => return pthomas_decision(Layout::Interleaved),
        (_, Some(cell)) => cell,
        _ => (choose_k(config.policy, m, n), config.mapping),
    };
    let c = config.sub_tile_scale.max(1);
    let k = clamp_k(spec, c, elem_bytes, n, requested_k);
    if k == 0 {
        return pthomas_decision(match config.layout {
            LayoutChoice::Contiguous => Layout::Contiguous,
            _ => Layout::Interleaved,
        });
    }
    let st = c << k;
    let mapping = resolve_mapping(spec, requested_mapping, m, n, k, st, elem_bytes);
    Decision {
        layout: Layout::Contiguous,
        mapping,
        fused: config.fused
            && mapping == MappingVariant::BlockPerSystem
            && fused_fits(spec, k, st, elem_bytes),
        k,
    }
}

/// The paper's decision for the same solve: [`decide`] under `config`
/// with the policy set to Table III
/// ([`TransitionPolicy::Gtx480Heuristic`]). The tuner's tie-break and
/// `tridiag plan`'s "Table III k" column read it.
pub fn table3_decision(
    spec: &DeviceSpec,
    config: &GpuSolverConfig,
    m: usize,
    n: usize,
    elem_bytes: usize,
) -> Decision {
    let paper = GpuSolverConfig {
        policy: TransitionPolicy::Gtx480Heuristic,
        ..*config
    };
    decide(spec, &paper, m, n, elem_bytes)
}

#[cfg(test)]
mod tests {
    use super::*;

    fn spec() -> DeviceSpec {
        DeviceSpec::gtx480()
    }

    #[test]
    fn decide_follows_the_transition_rule() {
        // The paper replay: Table III, split.
        let cfg = GpuSolverConfig {
            policy: TransitionPolicy::Gtx480Heuristic,
            fused: false,
            ..Default::default()
        };
        // m = 2048 → heuristic k = 0 → interleaved p-Thomas.
        let d = decide(&spec(), &cfg, 2048, 128, 8);
        assert_eq!(d, pthomas_decision(Layout::Interleaved));
        // m = 64, n = 512 → k = 6 hybrid, contiguous.
        let d = decide(&spec(), &cfg, 64, 512, 8);
        assert_eq!(d.k, 6);
        assert_eq!(d.layout, Layout::Contiguous);
        assert_eq!(d.mapping, MappingVariant::BlockPerSystem);
        assert!(!d.fused);
    }

    #[test]
    fn default_decision_fuses_block_per_system_hybrids_only() {
        let cfg = GpuSolverConfig::default();
        let d = decide(&spec(), &cfg, 64, 512, 8);
        assert_eq!(
            (d.k, d.mapping, d.fused),
            (4, MappingVariant::BlockPerSystem, true)
        );
        // k = 0: nothing to fuse.
        assert_eq!(
            decide(&spec(), &cfg, 2048, 128, 8),
            pthomas_decision(Layout::Interleaved)
        );
        // A lone large system is partitioned across block groups.
        let d = decide(&spec(), &cfg, 1, 16384, 8);
        assert!(matches!(d.mapping, MappingVariant::BlockGroupPerSystem(_)) && !d.fused);
    }

    #[test]
    fn the_tuned_table_decides_only_the_stock_gtx480_default() {
        let cfg = GpuSolverConfig::default();
        let tuned = |m: usize, n: usize| rule(&spec(), &cfg, m, n, 8);
        assert_eq!(
            tuned(64, 512),
            Rule::Tuned {
                m_log2: 6,
                n_log2: 9
            }
        );
        assert_eq!(
            tuned(64, 512).to_string(),
            "tuned cell M∈[64,128) N∈[512,1024)"
        );
        // The grid's edges: M ∈ [1, 2^14), N ∈ [4, 2^22).
        assert!(matches!(tuned(16383, 4), Rule::Tuned { .. }));
        assert!(matches!(tuned(1, (1 << 22) - 1), Rule::Tuned { .. }));
        for (m, n) in [(16384, 64), (1, 3), (1, 1 << 22)] {
            assert_eq!(tuned(m, n), Rule::TableIII("outside the tuned grid"));
            assert_eq!(
                decide(&spec(), &cfg, m, n, 8),
                table3_decision(&spec(), &cfg, m, n, 8),
                "m={m} n={n}"
            );
        }
        // Corners above the generation cap (M·N > 2^22 rows) were not
        // tuned: Table III decides them at either width.
        assert!(matches!(tuned(512, 8192), Rule::Tuned { .. }));
        for (m, n, bytes) in [
            (1024, 16384, 8),
            (8191, 16384, 8),
            (2048, 4096, 4),
            (4, 1 << 21, 4),
        ] {
            assert_eq!(
                rule(&spec(), &cfg, m, n, bytes),
                Rule::TableIII("above the generation cap"),
                "m={m} n={n}"
            );
            assert_eq!(
                decide(&spec(), &cfg, m, n, bytes),
                table3_decision(&spec(), &cfg, m, n, bytes),
                "m={m} n={n}"
            );
        }
        // An interleaved request is p-Thomas, whatever the policy.
        let interleaved = GpuSolverConfig {
            layout: LayoutChoice::Interleaved,
            ..cfg
        };
        assert_eq!(rule(&spec(), &interleaved, 64, 512, 8), Rule::Interleaved);
        // Any other spec, shrunken copies included, falls back.
        let mut small = spec();
        small.global_mem_bytes /= 2;
        for other in [DeviceSpec::gtx280(), DeviceSpec::c2050(), small] {
            assert_eq!(
                rule(&other, &cfg, 64, 512, 8),
                Rule::TableIII("spec not tuned")
            );
            assert_eq!(
                decide(&other, &cfg, 64, 512, 8),
                table3_decision(&other, &cfg, 64, 512, 8)
            );
        }
        // Explicit requests keep the paper's path.
        let explicit = [
            GpuSolverConfig {
                mapping: MappingVariant::BlockPerSystem,
                ..cfg
            },
            GpuSolverConfig {
                layout: LayoutChoice::Contiguous,
                ..cfg
            },
            GpuSolverConfig {
                sub_tile_scale: 2,
                ..cfg
            },
        ];
        for c in explicit {
            assert_eq!(
                rule(&spec(), &c, 64, 512, 8),
                Rule::TableIII("config not tuned")
            );
            assert_eq!(decide(&spec(), &c, 64, 512, 8).k, 6, "{c:?}");
        }
        let paper = GpuSolverConfig {
            policy: TransitionPolicy::Gtx480Heuristic,
            ..cfg
        };
        assert_eq!(
            rule(&spec(), &paper, 64, 512, 8),
            Rule::TableIII("policy set to Table III")
        );
        let fixed = GpuSolverConfig {
            policy: TransitionPolicy::Fixed(3),
            ..cfg
        };
        assert_eq!(rule(&spec(), &fixed, 64, 512, 8), Rule::Requested);
        assert_eq!(decide(&spec(), &fixed, 64, 512, 8).k, 3);
        // `fused: false` ablates fusion alone: the tuned k, split.
        let split = GpuSolverConfig {
            fused: false,
            ..cfg
        };
        let d = decide(&spec(), &split, 64, 512, 8);
        assert_eq!((d.k, d.fused), (4, false));
    }

    #[test]
    fn the_checked_in_table_is_the_generators_rendering() {
        let rows = |t: &[[Option<TunedCell>; TUNED_N_COLS as usize]]| {
            t.iter().map(|r| r.to_vec()).collect::<Vec<_>>()
        };
        assert_eq!(
            crate::autotune::emit_table(&rows(&tuned::F32), &rows(&tuned::F64)),
            include_str!("tuned.rs")
        );
    }

    #[test]
    fn tuned_k_decreases_with_m() {
        // The defining shape of Table III: fewer systems -> deeper PCR.
        let cfg = GpuSolverConfig::default();
        for bytes in [4, 8] {
            let ks: Vec<u32> = (0..TUNED_M_ROWS)
                .map(|a| decide(&spec(), &cfg, 1 << a, 4096, bytes).k)
                .collect();
            assert!(
                ks.windows(2).all(|w| w[1] <= w[0]),
                "f{}: {ks:?}",
                8 * bytes
            );
            // A lone system must use PCR (k = 0 would use one thread).
            assert!(ks[0] > 0, "f{}: {ks:?}", 8 * bytes);
            // Saturated batches want pure p-Thomas.
            assert!(ks[10..].iter().all(|&k| k == 0), "f{}: {ks:?}", 8 * bytes);
        }
    }

    #[test]
    fn a_fused_kernel_that_does_not_fit_plans_split_and_solves() {
        use crate::solver::GpuTridiagSolver;
        use tridiag_core::generators::random_batch;
        // A register file that holds tiled PCR's and p-Thomas' blocks
        // at k = 7 but not the fused kernel's 40 x 128 registers.
        let mut small = spec();
        small.registers_per_sm = 4096;
        let batch = random_batch::<f64>(4, 512, 3);
        for (k, fits) in [(7u32, false), (6, true)] {
            assert_eq!(fused_fits(&small, k, 1 << k, 8), fits, "k={k}");
            let cfg = GpuSolverConfig {
                policy: TransitionPolicy::Fixed(k),
                mapping: MappingVariant::BlockPerSystem,
                ..Default::default()
            };
            let d = decide(&small, &cfg, 4, 512, 8);
            assert_eq!((d.k, d.fused), (k, fits), "k={k}");
            let (x, report) = GpuTridiagSolver::new(small.clone(), cfg)
                .solve_batch(&batch)
                .unwrap();
            assert!(batch.max_relative_residual(&x).unwrap() < 1e-9, "k={k}");
            assert_eq!(report.kernels.len(), if fits { 1 } else { 2 }, "k={k}");
            if fits {
                // The fit rule prices the launch's real footprint.
                let elems = FusedKernel::shared_elems(k, 1 << k);
                assert_eq!(report.kernels[0].shared_bytes, elems * 8);
            }
        }
        // The stock specs fit every fused kernel a clamped k allows.
        for (spec, bytes) in [
            (DeviceSpec::gtx280(), 8),
            (DeviceSpec::gtx280(), 4),
            (spec(), 8),
        ] {
            let k = clamp_k(&spec, 1, bytes, 1 << 20, 20);
            assert!(fused_fits(&spec, k, 1 << k, bytes), "{} k={k}", spec.name);
        }
    }

    #[test]
    fn forced_interleaved_is_always_the_pure_pthomas_path() {
        let cfg = GpuSolverConfig {
            layout: LayoutChoice::Interleaved,
            ..Default::default()
        };
        for (m, n) in [(64usize, 512usize), (1, 16384), (2048, 64)] {
            let d = decide(&spec(), &cfg, m, n, 8);
            assert_eq!(d, pthomas_decision(Layout::Interleaved), "m={m} n={n}");
        }
    }

    #[test]
    fn forced_contiguous_at_k0_is_the_strawman() {
        let cfg = GpuSolverConfig {
            layout: LayoutChoice::Contiguous,
            ..Default::default()
        };
        let d = decide(&spec(), &cfg, 2048, 128, 8);
        assert_eq!(d, pthomas_decision(Layout::Contiguous));
        // k > 0 geometries keep the hybrid.
        let d = decide(&spec(), &cfg, 64, 512, 8);
        assert!(d.k > 0);
        assert_eq!(d.layout, Layout::Contiguous);
    }

    #[test]
    fn interleaved_wins_modeled_transactions_at_large_m() {
        for m in [64usize, 256, 1024] {
            let i = pthomas_transactions(&spec(), Layout::Interleaved, m, 512, 8);
            let c = pthomas_transactions(&spec(), Layout::Contiguous, m, 512, 8);
            assert!(i < c, "m={m}: interleaved {i} vs contiguous {c}");
        }
        // m = 1 is the degenerate tie: one lane, one segment.
        assert_eq!(
            pthomas_transactions(&spec(), Layout::Interleaved, 1, 64, 8),
            pthomas_transactions(&spec(), Layout::Contiguous, 1, 64, 8),
        );
    }
}
