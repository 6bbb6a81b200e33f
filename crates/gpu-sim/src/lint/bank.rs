//! Bank-conflict pass: n-way shared-memory conflict degrees from the
//! word stride modulo the bank count.
//!
//! A shared word is 4 bytes; element `i` of an `e`-byte type starts at
//! word `⌊i·e/4⌋`, and the serving bank is that word mod `banks`.
//! For an affine piece with element stride `s` the word stride is
//! `W = s·e/4`; lanes repeat banks with period `banks / gcd(|W|,
//! banks)`, so a warp fragment of `L` lanes serializes into
//! `degree = ceil(L / period)` cycles (`degree − 1` replays). A warp
//! holding several pieces is evaluated by exact ≤32-lane enumeration
//! with distinct-word deduplication — lanes sharing a *word* broadcast
//! and never conflict, matching
//! [`crate::memory::shared_conflict_cycles`] cycle for cycle.

use super::{DiagClass, DiagSink, LintConfig, Prediction, Severity};
use crate::plan::{AccessPlan, PlanEvent, PlannedAccess};

fn gcd(mut a: u64, mut b: u64) -> u64 {
    while b != 0 {
        let t = a % b;
        a = b;
        b = t;
    }
    a
}

/// Conflict cycles of the warp fragment covering lanes `[w0, w1)` of
/// access `a` (1 = conflict-free).
fn fragment_cycles(a: &PlannedAccess, w0: usize, w1: usize, elem_bytes: usize, banks: u32) -> u64 {
    let covering: Vec<_> = a
        .pieces
        .iter()
        .filter(|p| p.lane0 < w1 && p.lane0 + p.lanes > w0)
        .collect();
    if covering.is_empty() {
        return 1;
    }
    // Fast path: a single piece spanning the fragment with a word
    // stride that is a whole number of 4-byte words.
    if covering.len() == 1
        && (covering[0].stride.unsigned_abs() as usize * elem_bytes).is_multiple_of(4)
        && elem_bytes.is_multiple_of(4)
    {
        let p = covering[0];
        let lanes = (p.lane0 + p.lanes).min(w1) - p.lane0.max(w0);
        if p.stride == 0 {
            return 1; // one word, broadcast
        }
        let w = p.stride.unsigned_abs() * (elem_bytes as u64 / 4);
        let period = banks as u64 / gcd(w, banks as u64);
        return (lanes as u64).div_ceil(period);
    }
    // Exact enumeration: distinct words, then the busiest bank.
    let mut words: Vec<i128> = Vec::new();
    for p in covering {
        let lo = p.lane0.max(w0);
        let hi = (p.lane0 + p.lanes).min(w1);
        for x in (lo - p.lane0)..(hi - p.lane0) {
            let e = p.base as i128 + p.stride as i128 * x as i128;
            words.push(super::floor_div(e * elem_bytes as i128, 4));
        }
    }
    words.sort_unstable();
    words.dedup();
    let mut per_bank = vec![0u64; banks as usize];
    for w in words {
        per_bank[w.rem_euclid(banks as i128) as usize] += 1;
    }
    per_bank.into_iter().max().unwrap_or(0).max(1)
}

pub(crate) fn run(plan: &AccessPlan, cfg: &LintConfig, sink: &mut DiagSink, pred: &mut Prediction) {
    for block in &plan.blocks {
        for ev in &block.events {
            let a = match ev {
                PlanEvent::Access(a) if !a.kind.is_global() => a,
                _ => continue,
            };
            pred.shared_accesses += 1;
            let mut worst = 1u64;
            let mut w0 = 0usize;
            while w0 < a.lanes {
                let w1 = (w0 + plan.warp_size).min(a.lanes);
                let cycles = fragment_cycles(a, w0, w1, plan.elem_bytes, plan.banks);
                pred.bank_conflict_replays += cycles - 1;
                worst = worst.max(cycles);
                w0 = w1;
            }
            if worst >= cfg.bank_conflict_threshold && worst > 1 {
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
    use crate::plan::{compress, AccessKind};

    fn access(idx: &[usize]) -> PlannedAccess {
        PlannedAccess {
            kind: AccessKind::SharedLoad,
            phase: "t",
            buffer: None,
            bound: usize::MAX,
            lanes: idx.len(),
            pieces: compress(idx),
        }
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
                let a = access(&idx);
                let mut dynamic = 0u64;
                for warp in idx.chunks(32) {
                    dynamic += shared_conflict_cycles(warp, eb, 32) - 1;
                }
                let mut stat = 0u64;
                let mut w0 = 0;
                while w0 < a.lanes {
                    let w1 = (w0 + 32).min(a.lanes);
                    stat += fragment_cycles(&a, w0, w1, eb, 32) - 1;
                    w0 = w1;
                }
                assert_eq!(stat, dynamic, "idx={idx:?} eb={eb}");
            }
        }
    }

    #[test]
    fn f64_stride_one_is_two_way() {
        let idx: Vec<usize> = (0..32).collect();
        assert_eq!(fragment_cycles(&access(&idx), 0, 32, 8, 32), 2);
    }

    #[test]
    fn stride_32_fully_serializes() {
        let idx: Vec<usize> = (0..32).map(|l| l * 32).collect();
        assert_eq!(fragment_cycles(&access(&idx), 0, 32, 4, 32), 32);
    }
}
