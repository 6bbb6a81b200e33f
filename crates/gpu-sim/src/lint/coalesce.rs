//! Coalescing pass: exact 128-byte transaction counts from affine
//! pieces, and stride > 1 global-traffic diagnostics.
//!
//! The transaction count of one warp access is the number of distinct
//! `segment_bytes`-aligned segments the warp's lanes touch. The closed
//! form over affine pieces lives in
//! [`crate::memory::access_transactions`], which the executor's affine
//! entry points call too; it is equal — provably, and checked by the
//! golden cross-check and the model property tests — to the dense
//! per-warp counter [`crate::memory::warp_transactions`].

use super::{DiagClass, DiagSink, Prediction, Severity, GLOBAL_STRIDE_THRESHOLD};
use crate::memory::access_transactions;
use crate::plan::{AccessPlan, PlanEvent};

/// Fewest transactions `lanes` active lanes could cost (perfectly
/// coalesced, aligned) — the denominator in diagnostics, and the
/// per-access term of the planner's closed-form p-Thomas transaction
/// count (an access that hits this bound exactly is provably
/// coalesced).
pub fn coalesced_minimum(
    lanes: usize,
    warp_size: usize,
    elem_bytes: usize,
    segment_bytes: usize,
) -> u64 {
    let per_full = (warp_size * elem_bytes).div_ceil(segment_bytes) as u64;
    let full = (lanes / warp_size) as u64;
    let rem = lanes % warp_size;
    full * per_full
        + if rem > 0 {
            (rem * elem_bytes).div_ceil(segment_bytes) as u64
        } else {
            0
        }
}

pub(crate) fn run(plan: &AccessPlan, sink: &mut DiagSink, pred: &mut Prediction) {
    for block in &plan.blocks {
        for ev in &block.events {
            let a = match ev {
                PlanEvent::Access(a) if a.kind.is_global() => a,
                _ => continue,
            };
            let t = access_transactions(
                &a.pieces,
                a.lanes,
                plan.warp_size,
                plan.elem_bytes,
                plan.segment_bytes,
            );
            let bytes = (a.lanes * plan.elem_bytes) as u64;
            if a.kind.is_store() {
                pred.global_store_transactions += t;
                pred.global_store_bytes += bytes;
            } else {
                pred.global_load_transactions += t;
                pred.global_load_bytes += bytes;
            }
            pred.global_access_rounds += 1;
            if let Some(p) = a
                .pieces
                .iter()
                .find(|p| p.lanes >= 2 && p.stride.abs() > GLOBAL_STRIDE_THRESHOLD)
            {
                let min_t =
                    coalesced_minimum(a.lanes, plan.warp_size, plan.elem_bytes, plan.segment_bytes);
                sink.push(
                    DiagClass::UncoalescedGlobal,
                    Severity::Error,
                    block.block_id,
                    a.phase,
                    a.expr(),
                    format!(
                        "stride-{} global {} costs {} transactions for {} lanes \
                         (coalesced minimum {})",
                        p.stride.abs(),
                        a.kind,
                        t,
                        a.lanes,
                        min_t
                    ),
                );
            }
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::memory::warp_transactions;
    use crate::plan::compress;

    /// The closed form must agree with the dynamic per-warp counter on
    /// every index shape kernels produce.
    #[test]
    fn closed_form_matches_dynamic_counter() {
        let shapes: Vec<Vec<usize>> = vec![
            (0..32).collect(),                         // aligned unit stride
            (1..33).collect(),                         // misaligned
            (0..32).map(|l| l * 2).collect(),          // stride 2
            (0..32).map(|l| l * 17 + 3).collect(),     // prime stride
            (0..32).map(|l| l * 512).collect(),        // huge stride
            (0..32).rev().collect(),                   // negative stride
            vec![7; 32],                               // broadcast
            (0..40).collect(),                         // spills into 2nd warp
            vec![0, 1, 2, 3, 100, 101, 102, 4000],     // multi-piece
            (0..13).map(|l| 5 + l * 3).collect(),      // ragged tail
            (0..64).map(|l| (l % 7) * 19).collect(),   // many short pieces
        ];
        for idx in shapes {
            for eb in [4usize, 8] {
                let mut dynamic = 0u64;
                for warp in idx.chunks(32) {
                    dynamic += warp_transactions(warp, eb, 128);
                }
                assert_eq!(
                    access_transactions(&compress(&idx), idx.len(), 32, eb, 128),
                    dynamic,
                    "idx={idx:?} eb={eb}"
                );
            }
        }
    }

    #[test]
    fn coalesced_minimum_math() {
        assert_eq!(coalesced_minimum(32, 32, 4, 128), 1);
        assert_eq!(coalesced_minimum(32, 32, 8, 128), 2);
        assert_eq!(coalesced_minimum(64, 32, 8, 128), 4);
        assert_eq!(coalesced_minimum(33, 32, 4, 128), 2);
        assert_eq!(coalesced_minimum(1, 32, 8, 128), 1);
    }
}
