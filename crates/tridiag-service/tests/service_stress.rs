//! Concurrency stress for the threaded [`SolveService`]: many client
//! threads against one bounded queue, with no lost or duplicated
//! responses, typed backpressure at the brim, and fault isolation
//! inside fused batches.
//!
//! The singular trick mirrors `tests/failure_injection.rs`: a system
//! whose head pivot is exactly zero faults every engine, so a fused
//! batch containing it faults as a whole — the service must then
//! attribute the failure to the bad request alone while its healthy
//! co-tenants still complete bit-identical to solo solves.

use std::collections::BTreeSet;
use std::sync::atomic::{AtomicU64, Ordering};
use std::sync::Arc;

use gpu_sim::{DeviceGroup, DeviceSpec};
use tridiag_core::{generators, SystemBatch, TridiagonalSystem};
use tridiag_service::{
    solo_solution, validate_event_log, validate_request_chains, Payload, ServiceConfig,
    ServiceError, SolveService, Ticket,
};

fn zero_head(n: usize) -> TridiagonalSystem<f64> {
    generators::near_singular::<f64>(n, 0, 0.0, 99)
}

fn healthy(m: usize, n: usize, seed: u64) -> Payload {
    Payload::F64(generators::random_batch::<f64>(m, n, seed))
}

fn service_config(window_us: f64, queue_depth: usize) -> ServiceConfig {
    ServiceConfig {
        window_us,
        queue_depth,
        ..ServiceConfig::default()
    }
}

fn group() -> DeviceGroup {
    DeviceGroup::single(DeviceSpec::gtx480())
}

/// N client threads hammering one service: every admitted ticket is
/// answered exactly once, ids are unique, nothing is lost, and every
/// answer matches the solo solve of the same payload.
#[test]
fn concurrent_clients_lose_and_duplicate_nothing() {
    const CLIENTS: usize = 8;
    const PER_CLIENT: usize = 6;
    let service = Arc::new(SolveService::start(group(), service_config(8.0, 256)));
    let overloads = Arc::new(AtomicU64::new(0));

    let mut handles = Vec::new();
    for c in 0..CLIENTS {
        let service = Arc::clone(&service);
        let overloads = Arc::clone(&overloads);
        handles.push(std::thread::spawn(move || {
            let mut answered = Vec::new();
            for i in 0..PER_CLIENT {
                let seed = (c * PER_CLIENT + i) as u64;
                let n = [64usize, 128, 256][i % 3];
                let payload = healthy(1 + i % 3, n, seed);
                match service.submit(payload.clone()) {
                    Ok(ticket) => {
                        let id = ticket.id;
                        let resp = ticket.wait();
                        assert_eq!(resp.id, id, "response routed to the wrong ticket");
                        let got = resp.result.expect("healthy request failed");
                        let solo =
                            solo_solution(&group(), service_config(8.0, 256), &payload).unwrap();
                        assert_eq!(got.hash(), solo.hash(), "client {c} req {i}: answer drifted");
                        // Spans partition the modeled latency exactly.
                        let spans = resp.spans;
                        let total =
                            spans.queue_us + spans.coalesce_us + spans.kernel_us + spans.scatter_us;
                        assert!(
                            (total - spans.latency_us()).abs() < 1e-9,
                            "span partition broke: {spans:?}"
                        );
                        answered.push(id);
                    }
                    Err(ServiceError::Overloaded { .. }) => {
                        overloads.fetch_add(1, Ordering::Relaxed);
                    }
                    Err(e) => panic!("unexpected admission error: {e}"),
                }
            }
            answered
        }));
    }

    let mut all_ids = Vec::new();
    for h in handles {
        all_ids.extend(h.join().expect("client thread panicked"));
    }
    let unique: BTreeSet<_> = all_ids.iter().collect();
    assert_eq!(unique.len(), all_ids.len(), "duplicate response ids");

    let service = Arc::try_unwrap(service).unwrap_or_else(|_| panic!("clients still hold refs"));
    let stats = service.shutdown();
    let answered = all_ids.len() as u64;
    assert_eq!(
        stats.submitted,
        answered,
        "admitted vs answered mismatch (lost responses)"
    );
    assert_eq!(stats.completed, answered);
    assert_eq!(stats.failed, 0);
    assert_eq!(
        stats.completed + overloads.load(Ordering::Relaxed),
        (CLIENTS * PER_CLIENT) as u64,
        "every submission must be accounted for, answered or bounced"
    );
    assert_eq!(stats.cache.lookups, stats.cache.hits + stats.cache.misses);
}

/// A paused service fills its bounded queue; the overflow submission
/// gets a typed `Overloaded` carrying the configured depth, and after
/// resume the queued requests all still complete.
#[test]
fn bounded_queue_bounces_with_typed_overload() {
    const DEPTH: usize = 4;
    let service = SolveService::start(group(), service_config(8.0, DEPTH));
    service.pause();

    let tickets: Vec<Ticket> = (0..DEPTH)
        .map(|i| service.submit(healthy(1, 64, i as u64)).expect("under depth"))
        .collect();
    assert_eq!(service.queue_len(), DEPTH);

    match service.submit(healthy(1, 64, 1000)) {
        Err(ServiceError::Overloaded { depth }) => assert_eq!(depth, DEPTH),
        other => panic!("expected Overloaded at depth {DEPTH}, got {other:?}"),
    }
    assert_eq!(service.stats().rejected, 1);

    service.resume();
    let mut ids = BTreeSet::new();
    for t in tickets {
        let resp = t.wait();
        assert!(resp.result.is_ok(), "queued request failed after resume");
        // All were queued while paused, so one tick coalesces them.
        assert_eq!(resp.coalesced_with, DEPTH);
        ids.insert(resp.id);
    }
    assert_eq!(ids.len(), DEPTH, "duplicated or lost responses");
    let stats = service.shutdown();
    assert_eq!(stats.completed, DEPTH as u64);
    assert_eq!(stats.rejected, 1);
}

/// Fault isolation inside a fused batch: pausing guarantees the
/// singular request co-batches with two healthy ones; only the bad
/// request gets a typed solve error, and the healthy co-tenants
/// complete bit-identical to solo.
#[test]
fn faulted_coalesced_batch_is_attributed_to_the_bad_request_only() {
    let n = 128;
    let service = SolveService::start(group(), service_config(8.0, 16));
    service.pause();

    let good_a = healthy(2, n, 7);
    let bad = Payload::F64(SystemBatch::from_systems(vec![zero_head(n)]).unwrap());
    let good_b = healthy(1, n, 8);
    let t_a = service.submit(good_a.clone()).unwrap();
    let t_bad = service.submit(bad).unwrap();
    let t_b = service.submit(good_b.clone()).unwrap();
    service.resume();

    let (ra, rbad, rb) = (t_a.wait(), t_bad.wait(), t_b.wait());
    // Same (n, f64) key: all three were fused into one batch.
    for r in [&ra, &rbad, &rb] {
        assert_eq!(r.coalesced_with, 3, "the three requests must co-batch");
        assert_eq!(r.batch, ra.batch, "one fused batch expected");
    }

    match &rbad.result {
        Err(ServiceError::Solve(msg)) => {
            assert!(
                msg.contains("pivot") || msg.contains("singular") || msg.contains("fault"),
                "opaque fault message: {msg}"
            );
        }
        other => panic!("singular request must fail typed, got {other:?}"),
    }
    for (resp, payload, tag) in [(&ra, &good_a, "a"), (&rb, &good_b, "b")] {
        let got = resp
            .result
            .as_ref()
            .unwrap_or_else(|e| panic!("healthy co-tenant {tag} failed: {e}"));
        let solo = solo_solution(&group(), service_config(8.0, 16), payload).unwrap();
        assert_eq!(
            got.hash(),
            solo.hash(),
            "healthy co-tenant {tag} drifted from its solo answer"
        );
    }

    let stats = service.shutdown();
    assert_eq!(stats.completed, 2);
    assert_eq!(stats.failed, 1);
}

/// A NaN right-hand side sweeps through the pivot-free kernels
/// without tripping a zero pivot, so the fused solve itself must
/// reject the non-finite answer: the poisoned request fails typed and
/// its healthy co-tenants still complete bit-identical to solo.
#[test]
fn nan_co_tenant_fails_typed_and_healthy_co_tenants_complete() {
    let n = 128;
    let service = SolveService::start(group(), service_config(8.0, 16));
    service.pause();

    let good_a = healthy(2, n, 11);
    let mut poisoned = generators::dominant_random::<f64>(n, 12);
    poisoned.rhs_mut()[40] = f64::NAN;
    let bad = Payload::F64(SystemBatch::from_systems(vec![poisoned]).unwrap());
    let good_b = healthy(1, n, 13);
    let t_a = service.submit(good_a.clone()).unwrap();
    let t_bad = service.submit(bad).unwrap();
    let t_b = service.submit(good_b.clone()).unwrap();
    service.resume();

    let (ra, rbad, rb) = (t_a.wait(), t_bad.wait(), t_b.wait());
    for r in [&ra, &rbad, &rb] {
        assert_eq!(r.coalesced_with, 3, "the three requests must co-batch");
    }
    match &rbad.result {
        Err(ServiceError::Solve(msg)) => assert!(msg.contains("non-finite"), "{msg}"),
        other => panic!("NaN request must fail typed, got {other:?}"),
    }
    for (resp, payload, tag) in [(&ra, &good_a, "a"), (&rb, &good_b, "b")] {
        let got = resp
            .result
            .as_ref()
            .unwrap_or_else(|e| panic!("healthy co-tenant {tag} failed: {e}"));
        let solo = solo_solution(&group(), service_config(8.0, 16), payload).unwrap();
        assert_eq!(got.hash(), solo.hash(), "co-tenant {tag} drifted from solo");
    }

    let stats = service.shutdown();
    assert_eq!(stats.completed, 2);
    assert_eq!(stats.failed, 1);
}

/// Shutdown drains: requests still queued when shutdown begins get a
/// typed `ShuttingDown` response instead of hanging their tickets, and
/// later submissions are refused outright.
#[test]
fn shutdown_answers_queued_tickets_with_typed_error() {
    let service = SolveService::start(group(), service_config(8.0, 16));
    service.pause();
    let tickets: Vec<Ticket> = (0..3)
        .map(|i| service.submit(healthy(1, 64, i as u64)).unwrap())
        .collect();
    let stats = service.shutdown();
    for t in tickets {
        match t.wait().result {
            Err(ServiceError::ShuttingDown) => {}
            other => panic!("expected ShuttingDown, got {other:?}"),
        }
    }
    assert_eq!(stats.completed, 0);
    assert_eq!(stats.rejected, 3);
}

/// Degenerate-but-representable geometry never strands a ticket: the
/// smallest payload the type system admits (m = 1, n = 1) is either
/// solved or answered with a typed error — the worker must not panic
/// and the ticket must not hang. (A genuinely empty payload is
/// unrepresentable: `SystemBatch` constructors reject m = 0 / n = 0,
/// so admission validation is defense-in-depth with no reachable
/// failure here.)
#[test]
fn degenerate_geometry_is_answered_not_stranded() {
    let service = SolveService::start(group(), service_config(8.0, 16));
    let tiny = Payload::F64(
        SystemBatch::from_raw(
            vec![0.0],
            vec![2.0],
            vec![0.0],
            vec![1.0],
            1,
            1,
            tridiag_core::Layout::Contiguous,
        )
        .unwrap(),
    );
    let resp = service.submit(tiny).expect("representable payload").wait();
    match resp.result {
        Ok(sol) => assert_eq!(sol.len(), 1),
        Err(ServiceError::Solve(_)) => {}
        Err(other) => panic!("expected Ok or a typed solve error, got {other}"),
    }
    service.shutdown();
}

/// The telemetry acceptance proof, end to end under real concurrency:
/// 8 client threads (including one singular request that faults its
/// fused batch), then `shutdown_with_telemetry` hands back the event
/// log and the replay validator proves every admitted request reached
/// **exactly one** terminal event — and the merged Chrome trace
/// derived from the log carries each completed correlation id in
/// exactly one causally-linked queue → coalesce → kernel → scatter
/// span chain.
#[test]
fn event_log_replay_accounts_for_every_admitted_request() {
    const CLIENTS: usize = 8;
    const PER_CLIENT: usize = 5;
    let service = Arc::new(SolveService::start(group(), service_config(8.0, 256)));

    let mut handles = Vec::new();
    for c in 0..CLIENTS {
        let service = Arc::clone(&service);
        handles.push(std::thread::spawn(move || {
            let mut admitted = 0u64;
            for i in 0..PER_CLIENT {
                let n = [64usize, 128][i % 2];
                // Client 0's second request is singular: its fused
                // batch faults, isolates, and must produce a `fault`
                // terminal for this cid only.
                let payload = if c == 0 && i == 1 {
                    Payload::F64(SystemBatch::from_systems(vec![zero_head(n)]).unwrap())
                } else {
                    healthy(1 + i % 2, n, (c * PER_CLIENT + i) as u64)
                };
                match service.submit(payload) {
                    Ok(ticket) => {
                        let _ = ticket.wait();
                        admitted += 1;
                    }
                    Err(ServiceError::Overloaded { .. }) => {}
                    Err(e) => panic!("unexpected admission error: {e}"),
                }
            }
            admitted
        }));
    }
    let answered: u64 = handles
        .into_iter()
        .map(|h| h.join().expect("client thread panicked"))
        .sum();

    let service = Arc::try_unwrap(service).unwrap_or_else(|_| panic!("clients still hold refs"));
    let (stats, telemetry) = service.shutdown_with_telemetry();
    assert_eq!(stats.submitted, answered);

    // Replay the serialized event log: lifecycle invariants hold and
    // the admission/terminal counts match the service's own counters.
    let summary = validate_event_log(&telemetry.to_jsonl())
        .unwrap_or_else(|problems| panic!("event log replay failed: {problems:#?}"));
    assert_eq!(
        summary.admitted.len() as u64,
        stats.submitted,
        "every admitted request must have an admission event"
    );
    assert_eq!(summary.completed.len() as u64, stats.completed);
    assert_eq!(summary.faulted.len() as u64, stats.failed);
    assert_eq!(summary.faulted.len(), 1, "exactly the singular request faults");

    // The merged trace derived from the log chains every completed
    // cid exactly once.
    let trace = telemetry.to_trace("service-stress");
    let chained = validate_request_chains(&trace.to_chrome_json().to_string())
        .unwrap_or_else(|problems| panic!("request chains invalid: {problems:#?}"));
    let mut completed_sorted = summary.completed.clone();
    completed_sorted.sort_unstable();
    assert_eq!(
        chained,
        completed_sorted,
        "trace chains must cover exactly the completed cids"
    );

    // Metrics agree with the counters.
    assert_eq!(telemetry.metrics.counter("requests", "admitted"), stats.submitted);
    assert_eq!(telemetry.metrics.counter("requests", "completed"), stats.completed);
    assert_eq!(telemetry.metrics.counter("requests", "failed"), stats.failed);
}

/// window = 0 disables coalescing even under a stacked queue: each
/// request runs alone, in arrival order.
#[test]
fn zero_window_never_coalesces() {
    let service = SolveService::start(group(), service_config(0.0, 16));
    service.pause();
    let tickets: Vec<Ticket> = (0..4)
        .map(|i| service.submit(healthy(1, 64, i as u64)).unwrap())
        .collect();
    service.resume();
    for t in tickets {
        let resp = t.wait();
        assert!(resp.result.is_ok());
        assert_eq!(resp.coalesced_with, 1, "window=0 must keep requests solo");
    }
    service.shutdown();
}
