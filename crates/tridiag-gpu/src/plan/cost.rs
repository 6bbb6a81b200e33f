//! The planner's one decision rule: every `(layout, mapping, fused, k)`
//! pipeline decision of a solve, made in [`decide`].
//!
//! `k` comes from the transition policy (Table III, §III-D), clamped to
//! the device; the layout follows `k` — interleaved p-Thomas when
//! `k = 0`, the many-systems regime where coalesced lanes pay off, the
//! contiguous hybrid otherwise. A hybrid decision runs the fused
//! tiled-PCR + p-Thomas kernel (§III-C) wherever the mapping is one
//! block per system and the fused launch fits the device
//! ([`fused_fits`]); elsewhere it runs the split pipeline. Setting
//! [`GpuSolverConfig::fused`] to `false` forces the split pipeline for
//! ablations. Fusion saves the reduced-coefficient DRAM round trip and
//! one launch, and loses to split at no probed geometry, device or
//! precision (the `fusion_never_loses_to_split` test holds that). The
//! byte-exact shape of every plan this rule produces on the sweep
//! geometries is pinned by the golden plan snapshots.
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
use tridiag_core::transition::{choose_k, max_k_for};
use tridiag_core::Layout;

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

/// Clamp a requested `k` to the device: shared-memory window capacity,
/// system length, and block width.
fn clamp_k(spec: &DeviceSpec, c: usize, elem_bytes: usize, n: usize, requested: u32) -> u32 {
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
/// `k` from the transition policy (Table III, §III-D), clamped to the
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
    if config.layout == LayoutChoice::Interleaved {
        return pthomas_decision(Layout::Interleaved);
    }
    let c = config.sub_tile_scale.max(1);
    let k = clamp_k(spec, c, elem_bytes, n, choose_k(config.policy, m, n));
    if k == 0 {
        return pthomas_decision(match config.layout {
            LayoutChoice::Contiguous => Layout::Contiguous,
            _ => Layout::Interleaved,
        });
    }
    let st = c << k;
    let mapping = resolve_mapping(spec, config.mapping, m, n, k, st, elem_bytes);
    Decision {
        layout: Layout::Contiguous,
        mapping,
        fused: config.fused
            && mapping == MappingVariant::BlockPerSystem
            && fused_fits(spec, k, st, elem_bytes),
        k,
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn spec() -> DeviceSpec {
        DeviceSpec::gtx480()
    }

    #[test]
    fn decide_follows_the_transition_rule() {
        let cfg = GpuSolverConfig {
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
            (6, MappingVariant::BlockPerSystem, true)
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
    fn a_fused_kernel_that_does_not_fit_plans_split_and_solves() {
        use crate::solver::GpuTridiagSolver;
        use tridiag_core::generators::random_batch;
        use tridiag_core::transition::TransitionPolicy;
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
