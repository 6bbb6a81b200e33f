//! Bank-conflict pass: n-way shared-memory conflict degrees from the
//! word stride modulo the bank count.
//!
//! A shared word is 4 bytes; element `i` of an `e`-byte type starts at
//! word `⌊i·e/4⌋`, and the serving bank is that word mod `banks`.
//! For an affine piece with element stride `s` the word stride is
//! `W = s·e/4`; lanes repeat banks with period `banks / gcd(|W|,
//! banks)`, so a warp fragment of `L` lanes serializes into
//! `degree = ceil(L / period)` cycles (`degree − 1` replays). A warp
//! holding several pieces is evaluated by exact ≤64-lane enumeration.
//! The closed form lives in [`crate::memory::access_conflict_cycles`],
//! which the executor's affine entry points call too, and matches
//! [`crate::memory::shared_conflict_cycles`] cycle for cycle.

use super::{DiagClass, DiagSink, Prediction, Severity, BANK_CONFLICT_THRESHOLD};
use crate::memory::access_conflict_cycles;
use crate::plan::{AccessPlan, PlanEvent};

pub(crate) fn run(plan: &AccessPlan, sink: &mut DiagSink, pred: &mut Prediction) {
    for block in &plan.blocks {
        for ev in &block.events {
            let a = match ev {
                PlanEvent::Access(a) if !a.kind.is_global() => a,
                _ => continue,
            };
            pred.shared_accesses += 1;
            let (replays, worst) = access_conflict_cycles(
                &a.pieces,
                a.lanes,
                plan.warp_size,
                plan.elem_bytes,
                plan.banks,
            );
            pred.bank_conflict_replays += replays;
            if worst >= BANK_CONFLICT_THRESHOLD {
                sink.push(
                    DiagClass::BankConflict,
                    Severity::Error,
                    block.block_id,
                    a.phase,
                    a.expr(),
                    format!(
                        "{}-way bank conflict: shared {} serializes into {} cycles per warp",
                        worst, a.kind, worst
                    ),
                );
            }
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::memory::shared_conflict_cycles;
    use crate::plan::compress;

    fn worst(idx: &[usize], eb: usize) -> u64 {
        access_conflict_cycles(&compress(idx), idx.len(), 32, eb, 32).1
    }

    /// The closed form (and the enumeration fallback) must agree with
    /// the dynamic per-warp counter on every shape kernels produce.
    #[test]
    fn degrees_match_dynamic_counter() {
        let shapes: Vec<Vec<usize>> = vec![
            (0..32).collect(),                              // unit stride
            (0..32).map(|l| l * 2).collect(),               // 2-way f32
            (0..32).map(|l| l * 32).collect(),              // 32-way
            (0..32).map(|l| l * 16).collect(),              // 16-way f32
            (0..32).map(|l| l * 3).collect(),               // coprime stride
            vec![7; 32],                                    // broadcast
            (0..32).map(|l| l + l / 32).collect(),          // padded
            (0..24).map(|l| 100 + l * 5).collect(),         // ragged offset
            vec![0, 2, 4, 6, 3, 3, 3, 64, 96, 128],         // multi-piece
            (0..32).rev().map(|l| l * 2).collect(),         // negative stride
            (0..48).map(|l| l * 2).collect(),               // two warps
        ];
        for idx in shapes {
            for eb in [4usize, 8] {
                let mut dynamic = 0u64;
                for warp in idx.chunks(32) {
                    dynamic += shared_conflict_cycles(warp, eb, 32) - 1;
                }
                let (stat, _) = access_conflict_cycles(&compress(&idx), idx.len(), 32, eb, 32);
                assert_eq!(stat, dynamic, "idx={idx:?} eb={eb}");
            }
        }
    }

    #[test]
    fn f64_stride_one_is_two_way() {
        let idx: Vec<usize> = (0..32).collect();
        assert_eq!(worst(&idx, 8), 2);
    }

    #[test]
    fn stride_32_fully_serializes() {
        let idx: Vec<usize> = (0..32).map(|l| l * 32).collect();
        assert_eq!(worst(&idx, 4), 32);
    }
}
