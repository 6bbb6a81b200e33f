//! Negative lint tests: seeded bad access plans (and a deliberately
//! bad kernel recorded end-to-end) that each violate exactly one
//! memory-structure property, asserting the matching pass fires its
//! diagnostic — and only its diagnostic — with correct kernel/phase
//! attribution, while the counter prediction stays exact. Races, bounds
//! and barrier divergence belong to the sanitizer (`sanitizer_negative`).

use gpu_sim::exec::launch_with;
use gpu_sim::plan::AccessKind;
use gpu_sim::{
    lint, AccessPlan, BlockCtx, BlockKernel, DeviceSpec, DiagClass, ExecConfig, GpuMemory,
    LaunchConfig, LintReport, Result, Severity,
};

/// Exactly one diagnostic of `class`, and return it.
fn the_one(report: &LintReport, class: DiagClass) -> &gpu_sim::Diagnostic {
    assert_eq!(
        report.diagnostics.len(),
        1,
        "expected exactly one diagnostic, got {:#?}",
        report.diagnostics
    );
    let d = &report.diagnostics[0];
    assert_eq!(d.class, class);
    assert_eq!(d.severity, Severity::Error);
    d
}

// ---------------------------------------------------------------------
// Seeded plans, one per diagnostic class.
// ---------------------------------------------------------------------

#[test]
fn stride_2_global_load_fires_uncoalesced() {
    let mut plan = AccessPlan::synthetic("gather_k", 32, 8);
    let idx: Vec<usize> = (0..32).map(|l| l * 2).collect();
    plan.block_mut(0)
        .push_access(AccessKind::GlobalLoad, "gather", Some(0), &idx);
    let r = lint(&plan);
    let d = the_one(&r, DiagClass::UncoalescedGlobal);
    assert_eq!(d.kernel, "gather_k");
    assert_eq!(d.phase, "gather");
    assert!(d.expr.contains("ld"), "{}", d.expr);
    assert!(d.expr.contains("2*"), "{}", d.expr);
    assert!(d.message.contains("stride-2"), "{}", d.message);
    // Stride-2 f64 touches 64 elements = 512 B = 4 segments; coalesced
    // minimum for 32 × 8 B is 2 — both numbers appear in the message.
    assert!(d.message.contains("costs 4 transactions"), "{}", d.message);
    assert!(d.message.contains("minimum 2"), "{}", d.message);
    assert_eq!(r.prediction.global_load_transactions, 4);
}

#[test]
fn two_way_bank_conflict_is_predicted_not_flagged() {
    // f64 at unit stride: element l starts at word 2l — a benign 2-way
    // conflict every f64 kernel carries.
    let mut plan = AccessPlan::synthetic("axpy_k", 32, 8);
    let idx: Vec<usize> = (0..32).collect();
    plan.block_mut(0)
        .push_access(AccessKind::SharedLoad, "fold", None, &idx);

    // Below the 32-way threshold: the prediction counts the replay,
    // no finding.
    let r = lint(&plan);
    assert!(r.is_clean(), "{r}");
    assert_eq!(r.prediction.bank_conflict_replays, 1);
}

#[test]
fn thirty_two_way_bank_conflict_fires_at_default_threshold() {
    // f64 stride 16: word stride 32 ≡ 0 (mod 32) — full serialization.
    let mut plan = AccessPlan::synthetic("transpose_k", 32, 8);
    let idx: Vec<usize> = (0..32).map(|l| l * 16).collect();
    plan.block_mut(0)
        .push_access(AccessKind::SharedStore, "scatter", None, &idx);
    let r = lint(&plan);
    let d = the_one(&r, DiagClass::BankConflict);
    assert_eq!(d.phase, "scatter");
    assert!(d.expr.contains("sh_st"), "{}", d.expr);
    assert!(d.message.contains("32-way"), "{}", d.message);
    assert_eq!(r.prediction.bank_conflict_replays, 31);
}

#[test]
fn repeated_bad_expression_dedups_into_one_finding() {
    // The same stride-2 load issued 50 times (a streaming loop) is one
    // diagnostic with an occurrence count, not 50 findings.
    let mut plan = AccessPlan::synthetic("stream_k", 32, 8);
    let idx: Vec<usize> = (0..32).map(|l| l * 2).collect();
    for _ in 0..50 {
        plan.block_mut(0)
            .push_access(AccessKind::GlobalLoad, "stream", Some(0), &idx);
    }
    let r = lint(&plan);
    let d = the_one(&r, DiagClass::UncoalescedGlobal);
    assert_eq!(d.occurrences, 50);
}

// ---------------------------------------------------------------------
// End-to-end: a bad kernel recorded by the harness, not hand-seeded.
// ---------------------------------------------------------------------

/// Reads global memory at element stride 8 — the classic
/// array-of-structs mistake.
struct StridedLoadKernel {
    buf: gpu_sim::BufId,
}
impl BlockKernel<f64> for StridedLoadKernel {
    fn run_block(&self, ctx: &mut BlockCtx<'_, f64>) -> Result<()> {
        ctx.phase("gather");
        let idx: Vec<usize> = (0..ctx.threads).map(|t| t * 8).collect();
        let mut out = Vec::new();
        ctx.ld(self.buf, &idx, &mut out)?;
        Ok(())
    }
}

#[test]
fn recorded_strided_kernel_fires_uncoalesced_with_exact_prediction() {
    let mut mem = GpuMemory::<f64>::new();
    let buf = mem.alloc(32 * 8);
    let cfg = LaunchConfig::new("aos_gather", 1, 32);
    let res = launch_with(
        &DeviceSpec::gtx480(),
        &cfg,
        &ExecConfig::planned(),
        &StridedLoadKernel { buf },
        &mut mem,
    )
    .unwrap();
    let plan = res.plan.expect("plan recorded");
    let r = lint(&plan);
    let d = the_one(&r, DiagClass::UncoalescedGlobal);
    assert_eq!(d.kernel, "aos_gather");
    assert_eq!(d.phase, "gather");
    assert!(d.message.contains("stride-8"), "{}", d.message);
    // A bad kernel still cross-checks exactly: the diagnostics and the
    // counter model are independent outputs of the same pass.
    assert_eq!(r.cross_check(&res.stats), Vec::<String>::new());
}
