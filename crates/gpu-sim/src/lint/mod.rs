//! Static kernel lint: the counter model of an [`AccessPlan`].
//!
//! Two passes run over the affine IR recorded (or hand-built) in
//! [`crate::plan`]:
//!
//! - [`coalesce`] — computes the **exact** number of 128-byte global
//!   transactions per warp access as a closed form over the affine
//!   pieces, and flags any stride > 1 global traffic.
//! - [`bank`] — computes n-way shared-memory bank conflicts from the
//!   word stride modulo the bank count (`degree = ceil(L / (banks /
//!   gcd(|word_stride|, banks)))`), and flags full 32-way
//!   serialization.
//!
//! Together with the barrier count and the shared-memory peak (both
//! read straight off the plan's events) they form a counter *model*:
//! [`Prediction`] accumulates the nine totals, and
//! [`Prediction::cross_check`] compares them — field by field, exact
//! equality — against the dynamically measured
//! [`BlockStats`](struct@crate::counters::BlockStats). The golden-counter
//! suite runs this cross-check for every kernel at several geometries:
//! a mismatch means the static math or the dynamic counter is wrong,
//! which keeps both honest.
//!
//! Correctness properties — shared-memory races, out-of-bounds lanes,
//! divergent barriers — are the [`crate::sanitizer`]'s job: it checks
//! them on the same executed accesses a recorded plan compresses.

pub mod bank;
pub mod coalesce;

use crate::counters::{BlockStats, KernelStats};
use crate::plan::{AccessPlan, PlanEvent};
use std::collections::HashMap;
use std::fmt;

/// How bad a diagnostic is.
#[derive(Debug, Clone, Copy, PartialEq, Eq, PartialOrd, Ord)]
pub enum Severity {
    /// Structurally suspicious but possibly intended.
    Warning,
    /// A proven property violation.
    Error,
}

impl fmt::Display for Severity {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        match self {
            Severity::Warning => write!(f, "warning"),
            Severity::Error => write!(f, "error"),
        }
    }
}

/// Which pass produced a diagnostic.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash)]
pub enum DiagClass {
    /// Global access with element stride > 1 (uncoalesced traffic).
    UncoalescedGlobal,
    /// Shared access serialized by an n-way bank conflict.
    BankConflict,
}

impl fmt::Display for DiagClass {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        match self {
            DiagClass::UncoalescedGlobal => write!(f, "uncoalesced-global"),
            DiagClass::BankConflict => write!(f, "bank-conflict"),
        }
    }
}

/// One lint finding with full attribution.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct Diagnostic {
    /// Diagnostic class (which pass fired).
    pub class: DiagClass,
    /// Severity.
    pub severity: Severity,
    /// Kernel the plan belongs to.
    pub kernel: &'static str,
    /// Block id of the first occurrence.
    pub block: usize,
    /// Phase label of the offending event.
    pub phase: &'static str,
    /// The affine index expression at fault.
    pub expr: String,
    /// Human-readable explanation, including the predicted cost.
    pub message: String,
    /// How many events across all blocks produced this same
    /// (class, phase, expression) finding.
    pub occurrences: u64,
}

impl fmt::Display for Diagnostic {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        write!(
            f,
            "{}[{}] kernel `{}` block {} phase `{}`: {} — {}",
            self.severity, self.class, self.kernel, self.block, self.phase, self.message, self.expr
        )?;
        if self.occurrences > 1 {
            write!(f, " ({} occurrences)", self.occurrences)?;
        }
        Ok(())
    }
}

/// Conflict degree at which the bank pass diagnoses: only full
/// serialization. The shipped f64 kernels legitimately carry benign
/// 2-way conflicts (8-byte elements on 4-byte banks), which the replay
/// *prediction* still counts exactly.
pub const BANK_CONFLICT_THRESHOLD: u64 = 32;

/// Element stride magnitude above which a global access is diagnosed
/// as uncoalesced: stride-1 and broadcast are fine, anything wider is
/// flagged.
pub const GLOBAL_STRIDE_THRESHOLD: i64 = 1;

/// The counter totals the passes predict, structured to compare 1:1
/// with [`BlockStats`] aggregated over blocks.
#[derive(Debug, Clone, Copy, Default, PartialEq, Eq)]
pub struct Prediction {
    /// Global load transactions (distinct 128-byte segments per warp).
    pub global_load_transactions: u64,
    /// Global store transactions.
    pub global_store_transactions: u64,
    /// Useful bytes loaded (lanes × element size).
    pub global_load_bytes: u64,
    /// Useful bytes stored.
    pub global_store_bytes: u64,
    /// Global access instructions (one per `ld`/`st`).
    pub global_access_rounds: u64,
    /// Shared access instructions (one per `sh_ld`/`sh_st`).
    pub shared_accesses: u64,
    /// Bank-conflict replay cycles.
    pub bank_conflict_replays: u64,
    /// Barriers executed.
    pub barriers: u64,
    /// Peak shared bytes per block (max over blocks).
    pub shared_bytes_peak: u64,
}

impl Prediction {
    /// Compare against dynamically measured totals; returns one line
    /// per mismatching counter (empty = exact agreement).
    pub fn cross_check(&self, measured: &BlockStats) -> Vec<String> {
        let mut mismatches = Vec::new();
        let mut chk = |name: &str, s: u64, d: u64| {
            if s != d {
                mismatches.push(format!("{name}: static {s} != dynamic {d}"));
            }
        };
        chk(
            "global_load_transactions",
            self.global_load_transactions,
            measured.global_load_transactions,
        );
        chk(
            "global_store_transactions",
            self.global_store_transactions,
            measured.global_store_transactions,
        );
        chk(
            "global_load_bytes",
            self.global_load_bytes,
            measured.global_load_bytes,
        );
        chk(
            "global_store_bytes",
            self.global_store_bytes,
            measured.global_store_bytes,
        );
        chk(
            "global_access_rounds",
            self.global_access_rounds,
            measured.global_access_rounds,
        );
        chk("shared_accesses", self.shared_accesses, measured.shared_accesses);
        chk(
            "bank_conflict_replays",
            self.bank_conflict_replays,
            measured.bank_conflict_replays,
        );
        chk("barriers", self.barriers, measured.barriers);
        chk(
            "shared_bytes_peak",
            self.shared_bytes_peak,
            measured.shared_bytes_peak,
        );
        mismatches
    }
}

/// The result of linting one plan.
#[derive(Debug, Clone, PartialEq)]
pub struct LintReport {
    /// Kernel name.
    pub kernel: &'static str,
    /// Blocks in the analyzed plan.
    pub grid_blocks: usize,
    /// Threads per block.
    pub threads_per_block: usize,
    /// Plan events analyzed.
    pub events: usize,
    /// Findings, deduplicated by (class, phase, expression).
    pub diagnostics: Vec<Diagnostic>,
    /// Exact counter predictions derived from the plan.
    pub prediction: Prediction,
}

impl LintReport {
    /// `true` when neither pass found anything.
    pub fn is_clean(&self) -> bool {
        self.diagnostics.is_empty()
    }

    /// Compare the predicted counters against a launch's measured
    /// stats; returns `kernel: counter: static != dynamic` lines.
    pub fn cross_check(&self, stats: &KernelStats) -> Vec<String> {
        self.prediction
            .cross_check(&stats.total)
            .into_iter()
            .map(|m| format!("{}: {}", self.kernel, m))
            .collect()
    }
}

impl fmt::Display for LintReport {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        writeln!(
            f,
            "lint `{}`: {} blocks x {} threads, {} events, {} diagnostic(s)",
            self.kernel,
            self.grid_blocks,
            self.threads_per_block,
            self.events,
            self.diagnostics.len()
        )?;
        for d in &self.diagnostics {
            writeln!(f, "  {d}")?;
        }
        Ok(())
    }
}

/// Diagnostic collector with (class, phase, expr) deduplication: the
/// first occurrence keeps its block attribution, repeats only bump the
/// count — a kernel re-issuing the same bad expression every step
/// reads as one finding, not hundreds.
pub(crate) struct DiagSink {
    kernel: &'static str,
    order: Vec<Diagnostic>,
    index: HashMap<(DiagClass, &'static str, String), usize>,
}

impl DiagSink {
    fn new(kernel: &'static str) -> Self {
        Self {
            kernel,
            order: Vec::new(),
            index: HashMap::new(),
        }
    }

    pub(crate) fn push(
        &mut self,
        class: DiagClass,
        severity: Severity,
        block: usize,
        phase: &'static str,
        expr: String,
        message: String,
    ) {
        let key = (class, phase, expr.clone());
        if let Some(&i) = self.index.get(&key) {
            self.order[i].occurrences += 1;
            return;
        }
        self.index.insert(key, self.order.len());
        self.order.push(Diagnostic {
            class,
            severity,
            kernel: self.kernel,
            block,
            phase,
            expr,
            message,
            occurrences: 1,
        });
    }

    fn finish(self) -> Vec<Diagnostic> {
        self.order
    }
}

/// Run both passes over a plan and total its barriers and
/// shared-memory peak.
pub fn lint(plan: &AccessPlan) -> LintReport {
    let mut sink = DiagSink::new(plan.kernel);
    let mut pred = Prediction::default();
    coalesce::run(plan, &mut sink, &mut pred);
    bank::run(plan, &mut sink, &mut pred);
    for block in &plan.blocks {
        // Peak shared footprint mirrors `BlockCtx::shared_alloc`'s
        // accounting: max (base + len) · elem over blocks.
        let mut peak_elems = 0usize;
        for ev in &block.events {
            match ev {
                PlanEvent::Barrier { .. } => pred.barriers += 1,
                PlanEvent::SharedAlloc { base, len, .. } => peak_elems = peak_elems.max(base + len),
                PlanEvent::Access(_) => {}
            }
        }
        pred.shared_bytes_peak = pred
            .shared_bytes_peak
            .max((peak_elems * plan.elem_bytes) as u64);
    }
    LintReport {
        kernel: plan.kernel,
        grid_blocks: plan.grid_blocks,
        threads_per_block: plan.threads_per_block,
        events: plan.num_events(),
        diagnostics: sink.finish(),
        prediction: pred,
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::plan::AccessKind;

    #[test]
    fn full_barriers_are_counted_not_flagged() {
        let mut plan = AccessPlan::synthetic("s", 64, 8);
        let b = plan.block_mut(0);
        b.push_barrier("a");
        b.push_barrier("b");
        let r = lint(&plan);
        assert!(r.is_clean());
        assert_eq!(r.prediction.barriers, 2);
    }

    #[test]
    fn shared_peak_is_the_furthest_alloc_end() {
        let mut plan = AccessPlan::synthetic("b", 32, 8);
        let b = plan.block_mut(0);
        b.push_alloc("main", 0, 64);
        b.push_alloc("main", 64, 32);
        let idx: Vec<usize> = (0..32).map(|l| l + 64).collect();
        b.push_access(AccessKind::SharedStore, "main", None, &idx);
        let r = lint(&plan);
        assert!(r.is_clean(), "{r}");
        assert_eq!(r.prediction.shared_bytes_peak, 96 * 8);
    }

    #[test]
    fn sink_dedups_by_class_phase_expr() {
        let mut s = DiagSink::new("k");
        for block in 0..5 {
            s.push(
                DiagClass::BankConflict,
                Severity::Error,
                block,
                "load",
                "sh_ld { x }".into(),
                "32-way".into(),
            );
        }
        s.push(
            DiagClass::BankConflict,
            Severity::Error,
            0,
            "store",
            "sh_ld { x }".into(),
            "32-way".into(),
        );
        let out = s.finish();
        assert_eq!(out.len(), 2);
        assert_eq!(out[0].occurrences, 5);
        assert_eq!(out[0].block, 0);
        assert_eq!(out[1].phase, "store");
    }
}
