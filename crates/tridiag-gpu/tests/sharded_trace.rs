//! Trace-merge invariants for multi-device execution: a sharded batch
//! and a row-split single system, both on two devices.
//!
//! The merged trace must (a) serialize to valid Chrome JSON, (b) carry
//! one kernel track per device, and (c) preserve phase attribution
//! bit-exactly: inside every kernel span, the phase spans sum to the
//! kernel duration minus the launch-overhead span with `f64 ==` — the
//! timing model's own invariant — because the merge copies per-device
//! durations verbatim instead of recomputing them. The row-split
//! back-substitution is priced by the timeline alone and has no phases,
//! so it is exempt from (c).

use gpu_sim::trace::{validate_chrome_json, EventKind, TraceEvent};
use gpu_sim::{DeviceGroup, DeviceSpec};
use std::collections::BTreeSet;
use tridiag_core::generators::random_batch;
use tridiag_gpu::solver::GpuTridiagSolver;
use tridiag_gpu::GpuSolveReport;

const DEVICES: usize = 2;

fn sharded_report() -> GpuSolveReport {
    let (m, n) = (8usize, 256usize);
    let batch = random_batch::<f64>(m, n, 7);
    let solver = GpuTridiagSolver::gtx480();
    let group = DeviceGroup::homogeneous(DeviceSpec::gtx480(), DEVICES).unwrap();
    let (_, report) = solver.solve_batch_group(&group, &batch).unwrap();
    report
}

fn split_report() -> GpuSolveReport {
    let batch = random_batch::<f64>(1, 4096, 7);
    let solver = GpuTridiagSolver::gtx480();
    let group = DeviceGroup::homogeneous(DeviceSpec::gtx480(), DEVICES).unwrap();
    let (_, report) = solver.solve_batch_split(&group, &batch).unwrap();
    report
}

/// Every merged report under test, with the name of its root span.
fn reports() -> [(&'static str, GpuSolveReport); 2] {
    [
        ("sharded_solve", sharded_report()),
        ("distributed_solve", split_report()),
    ]
}

fn spans(report: &GpuSolveReport) -> Vec<&TraceEvent> {
    report
        .trace
        .events
        .iter()
        .filter(|e| e.kind == EventKind::Complete)
        .collect()
}

#[test]
fn merged_trace_is_valid_chrome_json() {
    for (root, report) in reports() {
        let text = report.trace.to_chrome_json();
        if let Err(problems) = validate_chrome_json(&text) {
            panic!("{root}: merged trace fails Chrome validation: {problems:?}");
        }
    }
}

#[test]
fn merged_trace_has_one_kernel_track_per_device() {
    for (root_name, report) in reports() {
        let kernel_tids: BTreeSet<u32> = spans(&report)
            .iter()
            .filter(|e| e.name.starts_with("kernel:"))
            .map(|e| e.tid)
            .collect();
        let expected: BTreeSet<u32> = (0..DEVICES as u32).collect();
        assert_eq!(
            kernel_tids, expected,
            "{root_name}: one kernel track per device"
        );
        // Each device track also carries its modeled host<->device copies.
        for d in 0..DEVICES as u32 {
            let copies = spans(&report)
                .iter()
                .filter(|e| e.tid == d && e.cat == "copy")
                .count();
            assert!(
                copies >= 2,
                "{root_name} device {d}: expected h2d + d2h copy spans"
            );
        }
        // The root span lives on track 0 and bounds the whole timeline.
        let root = spans(&report)
            .into_iter()
            .find(|e| e.name == root_name)
            .unwrap_or_else(|| panic!("root {root_name} span"));
        assert_eq!(root.tid, 0);
        let end = report
            .trace
            .events
            .iter()
            .map(|e| e.ts_us + e.dur_us)
            .fold(0.0f64, f64::max);
        assert_eq!(
            root.ts_us + root.dur_us,
            end,
            "{root_name}: root span bounds the trace"
        );
    }
}

#[test]
fn phase_spans_sum_bit_exactly_within_each_kernel_span() {
    for (root, report) in reports() {
        let all = spans(&report);
        let kernels: Vec<&&TraceEvent> = all
            .iter()
            .filter(|e| e.name.starts_with("kernel:") && e.name != "kernel:back_substitute")
            .collect();
        assert!(!kernels.is_empty(), "{root}");
        for k in kernels {
            // Children: same track, contained in the kernel span. (Only a
            // zero-duration span could straddle the boundary into an
            // adjacent kernel, and those contribute nothing to the sums.)
            let contained = |e: &&&TraceEvent| {
                e.tid == k.tid && e.ts_us >= k.ts_us && e.ts_us + e.dur_us <= k.ts_us + k.dur_us
            };
            let launch = all
                .iter()
                .filter(|e| e.name == "launch_overhead")
                .find(contained)
                .unwrap_or_else(|| panic!("{root} {}: missing launch_overhead child", k.name));
            let phase_sum: f64 = all
                .iter()
                .filter(|e| e.name.starts_with("phase:"))
                .filter(contained)
                .map(|e| e.dur_us)
                .sum();
            // The timing model guarantees Σ phase.us == total − launch with
            // f64 equality (the last phase absorbs the fp remainder), and
            // the merge copies durations verbatim — so the merged trace
            // must reproduce that decomposition bit-exactly.
            assert_eq!(
                phase_sum,
                k.dur_us - launch.dur_us,
                "{root} {} on tid {}: phase sum {} != span {} - launch {}",
                k.name,
                k.tid,
                phase_sum,
                k.dur_us,
                launch.dur_us
            );
        }
    }
}
