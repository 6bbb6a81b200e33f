//! Performance-model shape invariants across the paper's regimes —
//! the integration-level checks behind Figs. 12–14.

use bench::series;
use scalable_tridiag::gpu_sim::DeviceSpec;
use scalable_tridiag::tridiag_core::generators;
use scalable_tridiag::tridiag_core::transition::TransitionPolicy;
use scalable_tridiag::tridiag_gpu::solver::{GpuSolverConfig, GpuTridiagSolver, MappingVariant};

#[test]
#[cfg_attr(debug_assertions, ignore = "slow simulation; run with --release")]
fn gpu_time_is_sublinear_then_linear_in_m() {
    // Fig. 12 shape under the paper's rule (Table III): the under-filled
    // region grows sub-linearly …
    let n = 512;
    let paper_us = |m: usize| {
        let config = GpuSolverConfig {
            policy: TransitionPolicy::Gtx480Heuristic,
            ..Default::default()
        };
        let batch = series::batch_for::<f64>(m, n);
        let (_, report) = GpuTridiagSolver::new(DeviceSpec::gtx480(), config)
            .solve_batch(&batch)
            .unwrap();
        report.total_us
    };
    let (t64, t256) = (paper_us(64), paper_us(256));
    assert!(
        t256 < 3.5 * t64,
        "sub-linear region: {t64:.1} -> {t256:.1} for 4x systems"
    );
    // … and the default planner's tuned decisions are no slower at
    // either point, and still grow less than linearly.
    let (d64, _) = series::ours_us::<f64>(64, n);
    let (d256, _) = series::ours_us::<f64>(256, n);
    assert!(
        d64 <= t64 && d256 <= t256,
        "tuned {d64:.1}/{d256:.1} vs Table III {t64:.1}/{t256:.1}"
    );
    assert!(
        d256 < 4.0 * d64,
        "tuned sub-linear region: {d64:.1} -> {d256:.1} for 4x systems"
    );
    // … and the saturated region is ~linear.
    let (t4k, _) = series::ours_us::<f64>(4096, n);
    let (t8k, _) = series::ours_us::<f64>(8192, n);
    let ratio = t8k / t4k;
    assert!(
        (1.5..=2.6).contains(&ratio),
        "saturated region should double: {t4k:.1} -> {t8k:.1} ({ratio:.2}x)"
    );
}

#[test]
#[cfg_attr(debug_assertions, ignore = "slow simulation; run with --release")]
fn gpu_beats_modeled_mkl_at_scale_loses_nothing_when_small() {
    let n = 512;
    // Large M: decisive win over both CPU baselines (Fig. 12 right side).
    let (ours, _) = series::ours_us::<f64>(8192, n);
    assert!(series::mkl_seq_us(8192, n, 8) / ours > 10.0);
    assert!(series::mkl_mt_us(8192, n, 8) / ours > 3.0);
    // Small M: "close results compared to the CPU implementations".
    let (ours_small, _) = series::ours_us::<f64>(64, n);
    let mt_small = series::mkl_mt_us(64, n, 8);
    assert!(
        ours_small < 4.0 * mt_small,
        "small-M region should be competitive: ours {ours_small:.1} vs mt {mt_small:.1}"
    );
}

#[test]
#[cfg_attr(debug_assertions, ignore = "slow simulation; run with --release")]
fn single_large_system_keeps_a_healthy_lead() {
    // Fig. 13(d): even M = 1 stays well ahead of the (sequential-only)
    // CPU, via deep PCR + partitioning.
    let n = 1 << 20;
    let (ours, report) = series::ours_us::<f64>(1, n);
    assert!(report.k >= 6, "deep PCR expected, got k = {}", report.k);
    assert!(
        matches!(report.mapping, MappingVariant::BlockGroupPerSystem(_)),
        "lone system should be partitioned: {:?}",
        report.mapping
    );
    let seq = series::mkl_seq_us(1, n, 8);
    assert!(
        seq / ours > 3.0,
        "paper shows ~5.5x for M=1; got {:.1}x",
        seq / ours
    );
}

#[test]
#[cfg_attr(debug_assertions, ignore = "slow simulation; run with --release")]
fn davidson_loses_by_the_papers_margin() {
    // Section V: 2–10x across most configurations.
    for (m, n) in [(1024usize, 1024usize), (1, 1 << 19)] {
        let (ours, _) = series::ours_us::<f64>(m, n);
        let dav = series::davidson_us::<f64>(m, n);
        let ratio = dav / ours;
        assert!(
            ratio > 1.3 && ratio < 40.0,
            "M={m} N={n}: davidson/ours = {ratio:.1}"
        );
    }
}

#[test]
#[cfg_attr(debug_assertions, ignore = "slow simulation; run with --release")]
fn f32_speedups_exceed_f64_speedups() {
    // Abstract: 12.9x/82.5x (f32) vs 8.3x/49x (f64) — single precision
    // widens the GPU's lead.
    let (m, n) = (4096usize, 512usize);
    let (ours64, _) = series::ours_us::<f64>(m, n);
    let (ours32, _) = series::ours_us::<f32>(m, n);
    let s64 = series::mkl_seq_us(m, n, 8) / ours64;
    let s32 = series::mkl_seq_us(m, n, 4) / ours32;
    assert!(
        s32 > s64,
        "f32 speedup {s32:.1} must exceed f64 speedup {s64:.1}"
    );
}

#[test]
#[cfg_attr(debug_assertions, ignore = "slow simulation; run with --release")]
fn transition_staircase_visible_in_reports() {
    // Walking M across the Table III ranges changes k monotonically.
    let n = 2048;
    let mut last_k = u32::MAX;
    for m in [1usize, 16, 64, 512, 2048] {
        let batch = generators::random_batch::<f64>(m, n, 3);
        let (_, report) = GpuTridiagSolver::gtx480().solve_batch(&batch).unwrap();
        assert!(report.k <= last_k, "k must fall as M grows");
        last_k = report.k;
    }
    assert_eq!(last_k, 0, "saturated batches run pure p-Thomas");
}

#[test]
#[cfg_attr(debug_assertions, ignore = "slow simulation; run with --release")]
fn zhang_gate_and_tiled_pcr_scalability_claim() {
    // The conventional in-shared method dies at N > 768 (f64, GTX480);
    // the tiled hybrid does not — the paper's core scalability claim.
    assert!(series::zhang_us::<f64>(2, 768).is_some());
    assert!(series::zhang_us::<f64>(2, 1024).is_none());
    let (t, _) = series::ours_us::<f64>(2, 1024);
    assert!(t > 0.0, "tiled hybrid handles what Zhang cannot");
}
