//! Property tests of the telemetry subsystem.
//!
//! The determinism contract: telemetry is a pure function of the
//! *workload*, not of the submission order — the modeled driver sorts
//! arrivals, so the same request mix must produce **byte-identical**
//! metrics snapshots and event logs however the input vector is
//! permuted. On top of that, every run must satisfy the exact-partition
//! cross-check (metric-attributed time == report totals, bit-exact),
//! its metrics snapshot must pass the `tridiag.metrics/v1` validator,
//! and its event log must replay cleanly — while injected orphan and
//! duplicate-terminal events must be rejected.

use gpu_sim::{validate_metrics_json, DeviceGroup, DeviceSpec};
use proptest::prelude::*;
use tridiag_core::generators;
use tridiag_service::{
    validate_event_log, validate_request_chains, Payload, ServiceConfig, ServiceCore, SolveRequest,
};

fn gtx480_group() -> DeviceGroup {
    DeviceGroup::single(DeviceSpec::gtx480())
}

const NS: [usize; 3] = [64, 128, 256];

/// Build the canonical request list for a mix: ids follow the mix
/// order, so any permutation of the returned vector is the same
/// workload submitted in a different order.
fn requests(mix: &[(usize, usize, u8)]) -> Vec<SolveRequest> {
    mix.iter()
        .enumerate()
        .map(|(i, &(m, n_idx, slot))| SolveRequest {
            id: i as u64,
            arrival_us: slot as f64 * 3.0,
            payload: Payload::F64(generators::random_batch::<f64>(
                1 + m % 3,
                NS[n_idx % NS.len()],
                i as u64,
            )),
        })
        .collect()
}

/// Deterministic Fisher–Yates permutation of `v` driven by `seed`
/// (a splitmix64 stream; no global RNG state).
fn permute<T>(mut v: Vec<T>, mut seed: u64) -> Vec<T> {
    let mut next = move || {
        seed = seed.wrapping_add(0x9e37_79b9_7f4a_7c15);
        let mut z = seed;
        z = (z ^ (z >> 30)).wrapping_mul(0xbf58_476d_1ce4_e5b9);
        z = (z ^ (z >> 27)).wrapping_mul(0x94d0_49bb_1331_11eb);
        z ^ (z >> 31)
    };
    for i in (1..v.len()).rev() {
        let j = (next() % (i as u64 + 1)) as usize;
        v.swap(i, j);
    }
    v
}

/// One modeled run: metrics snapshot text, event log text, the
/// exact-partition cross-check findings, and the schema findings.
fn run(reqs: Vec<SolveRequest>) -> (String, String, Vec<String>, Vec<String>) {
    let mut core = ServiceCore::new(gtx480_group(), ServiceConfig::default());
    let report = core.run_workload(reqs);
    let snapshot = core.telemetry().metrics.to_json().to_string();
    let log = core.telemetry().to_jsonl();
    let cross = core.telemetry().cross_check(&report);
    let schema = validate_metrics_json(&core.telemetry().metrics.to_json());
    (snapshot, log, cross, schema)
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(12))]

    /// Permuting the submission order changes nothing: metrics
    /// snapshot and event log are byte-identical, and both runs pass
    /// the exact-partition cross-check and the schema validators.
    #[test]
    fn snapshots_are_deterministic_under_permutation(
        mix in proptest::collection::vec((0usize..3, 0usize..3, 0u8..20), 1..10),
        perm_seed in any::<u64>(),
    ) {
        let canonical = requests(&mix);
        let permuted = permute(canonical.clone(), perm_seed);

        let (snap_a, log_a, cross_a, schema_a) = run(canonical);
        let (snap_b, log_b, cross_b, schema_b) = run(permuted);

        prop_assert!(cross_a.is_empty(), "exact-partition broke: {cross_a:#?}");
        prop_assert!(cross_b.is_empty(), "exact-partition broke: {cross_b:#?}");
        prop_assert!(schema_a.is_empty(), "metrics schema: {schema_a:#?}");
        prop_assert!(schema_b.is_empty(), "metrics schema: {schema_b:#?}");
        prop_assert_eq!(snap_a, snap_b, "metrics snapshot depends on submission order");
        prop_assert_eq!(log_a, log_b, "event log depends on submission order");
    }

    /// Every workload's event log replays cleanly, its counts match
    /// the report, and the trace derived from the log chains every
    /// completed cid exactly once.
    #[test]
    fn every_run_replays_and_chains(
        mix in proptest::collection::vec((0usize..3, 0usize..3, 0u8..20), 1..10)
    ) {
        let mut core = ServiceCore::new(gtx480_group(), ServiceConfig::default());
        let report = core.run_workload(requests(&mix));
        let summary = validate_event_log(&core.telemetry().to_jsonl())
            .unwrap_or_else(|p| panic!("replay failed: {p:#?}"));
        let (completed, rejected, failed) = report.totals();
        prop_assert_eq!(summary.completed.len(), completed);
        prop_assert_eq!(summary.faulted.len(), failed);
        prop_assert_eq!(summary.rejected.len(), rejected);

        let trace = core.telemetry().to_trace("telemetry-props");
        let chained = validate_request_chains(&trace.to_chrome_json())
            .unwrap_or_else(|p| panic!("chains invalid: {p:#?}"));
        let mut expected = summary.completed.clone();
        expected.sort_unstable();
        prop_assert_eq!(chained, expected);
    }
}

/// The replay validator rejects fabricated lifecycle violations:
/// a terminal for a never-admitted cid, and a duplicated terminal.
#[test]
fn replay_rejects_injected_orphans_and_duplicate_terminals() {
    let mut core = ServiceCore::new(gtx480_group(), ServiceConfig::default());
    core.run_workload(requests(&[(0, 0, 0), (1, 1, 2), (2, 2, 4)]));
    let log = core.telemetry().to_jsonl();
    assert!(
        validate_event_log(&log).is_ok(),
        "baseline log must be clean"
    );

    // Orphan: a completion for a cid that was never admitted.
    let orphaned = format!(
        "{log}{}\n",
        r#"{"event":"completion","t_us":99.0,"cid":4096,"batch":null,"precision":"f64","queue_us":0,"coalesce_us":0,"kernel_us":0,"scatter_us":0,"cache_hit":false,"coalesced_with":1}"#
    );
    let problems = validate_event_log(&orphaned).unwrap_err();
    assert!(
        problems.iter().any(|p| p.contains("orphan")),
        "expected an orphan-terminal violation, got {problems:#?}"
    );

    // Duplicate terminal: replay an existing completion line verbatim.
    let completion_line = log
        .lines()
        .find(|l| l.contains("\"completion\""))
        .expect("workload completed at least one request");
    let duplicated = format!("{log}{completion_line}\n");
    let problems = validate_event_log(&duplicated).unwrap_err();
    assert!(
        problems.iter().any(|p| p.contains("duplicate terminal")),
        "expected a duplicate-terminal violation, got {problems:#?}"
    );
}
