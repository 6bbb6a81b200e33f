//! The planner's one decision rule: every `(layout, mapping, fused, k)`
//! pipeline decision of a solve, made in [`decide`].
//!
//! `k` comes from the transition policy (Table III, §III-D), clamped to
//! the device; the layout follows `k` — interleaved p-Thomas when
//! `k = 0`, the many-systems regime where coalesced lanes pay off, the
//! contiguous hybrid otherwise. The byte-exact shape of every plan this
//! rule produces on the sweep geometries is pinned by the golden plan
//! snapshots.
//!
//! [`pthomas_transactions`] is the closed-form 128-byte-segment count
//! of a p-Thomas sweep in either layout — the same formula the
//! coalesce lint certifies ([`gpu_sim::lint::coalesce::coalesced_minimum`]);
//! the layout ablation table prices its two columns with it.

use crate::kernels::tiled_pcr::TiledPcrKernel;
use crate::solver::{GpuSolverConfig, LayoutChoice, MappingVariant};
use gpu_sim::lint::coalesce::coalesced_minimum;
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
/// holds the lint's measured counts to. Contiguous lanes stride `n`
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
/// `k = 0`, the contiguous hybrid otherwise.
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
    let mapping = resolve_mapping(spec, config.mapping, m, n, k, c << k, elem_bytes);
    Decision {
        layout: Layout::Contiguous,
        mapping,
        fused: config.fused && matches!(mapping, MappingVariant::BlockPerSystem),
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
        let cfg = GpuSolverConfig::default();
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
