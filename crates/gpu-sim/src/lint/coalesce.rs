//! Coalescing pass: exact 128-byte transaction counts from affine
//! pieces, and stride > 1 global-traffic diagnostics.
//!
//! The transaction count of one warp access is the number of distinct
//! `segment_bytes`-aligned segments the warp's lanes touch
//! ([`crate::memory::warp_transactions`]). For an affine piece the
//! segment ids form a closed shape:
//!
//! - stride 0 — every lane hits one segment: **1**;
//! - `|stride| · elem ≤ segment` — consecutive lanes move less than a
//!   segment per step, so the touched segments are the *full interval*
//!   `[floor(min·e/seg), floor(max·e/seg)]`;
//! - `|stride| · elem > segment` — lanes can skip segments, and with a
//!   warp bounded at 32 lanes enumeration is exact and O(32).
//!
//! Warps holding several pieces (ragged tails, clamp lanes) take the
//! exact union of the per-piece segment sets. The result is equal —
//! provably, and checked by the golden cross-check — to what the
//! dynamic counter measures.

use super::{floor_div, DiagClass, DiagSink, Prediction, Severity, GLOBAL_STRIDE_THRESHOLD};
use crate::plan::{AccessPlan, PlanEvent, PlannedAccess};

/// Exact transaction count for one block-wide access (all warps).
pub fn access_transactions(
    a: &PlannedAccess,
    warp_size: usize,
    elem_bytes: usize,
    segment_bytes: usize,
) -> u64 {
    let e = elem_bytes as i128;
    let seg = segment_bytes as i128;
    let mut total = 0u64;
    let mut w0 = 0usize;
    while w0 < a.lanes {
        let w1 = (w0 + warp_size).min(a.lanes);
        let mut segs: Vec<i128> = Vec::new();
        for p in &a.pieces {
            let lo = p.lane0.max(w0);
            let hi = (p.lane0 + p.lanes).min(w1);
            if lo >= hi {
                continue;
            }
            let x0 = (lo - p.lane0) as i128;
            let x1 = (hi - p.lane0) as i128; // exclusive
            let s = p.stride as i128;
            let b = p.base as i128;
            let first = b + s * x0;
            let last = b + s * (x1 - 1);
            if s == 0 {
                segs.push(floor_div(first * e, seg));
            } else if s.abs() * e <= seg {
                // No segment can be skipped: full contiguous id range.
                let (mn, mx) = (first.min(last), first.max(last));
                let s0 = floor_div(mn * e, seg);
                let s1 = floor_div(mx * e, seg);
                segs.extend(s0..=s1);
            } else {
                for x in x0..x1 {
                    segs.push(floor_div((b + s * x) * e, seg));
                }
            }
        }
        segs.sort_unstable();
        segs.dedup();
        total += segs.len() as u64;
        w0 = w1;
    }
    total
}

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
            let t = access_transactions(a, plan.warp_size, plan.elem_bytes, plan.segment_bytes);
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
    use crate::plan::{compress, AccessKind};

    fn access(idx: &[usize]) -> PlannedAccess {
        PlannedAccess {
            kind: AccessKind::GlobalLoad,
            phase: "t",
            buffer: Some(0),
            lanes: idx.len(),
            pieces: compress(idx),
        }
    }

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
                let a = access(&idx);
                let mut dynamic = 0u64;
                for warp in idx.chunks(32) {
                    dynamic += warp_transactions(warp, eb, 128);
                }
                assert_eq!(
                    access_transactions(&a, 32, eb, 128),
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
