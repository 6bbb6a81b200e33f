//! Coalescing-identity differential harness: a request's answer must
//! not depend on its co-tenants.
//!
//! For randomized mixes of request shapes the coalesced path must be
//! **bit-identical** (FNV-1a solution hashes, same style as
//! `sharded_differential.rs`) to a plain `GpuTridiagSolver::solve_batch`
//! of each request alone (and to the service's own solo solve), and the
//! coalescer must merge *exactly* the compatible requests: same
//! `(n, precision, decision)` always lands in one batch per tick,
//! different keys never share one.
//!
//! Also pinned here: the throughput claim the service exists for —
//! with small per-request batches, a non-zero coalescing window beats
//! window = 0 on modeled requests/s — and the report's batch
//! bookkeeping.

use gpu_sim::{DeviceGroup, DeviceSpec};
use rand::rngs::StdRng;
use rand::{Rng, SeedableRng};
use tridiag_core::generators::random_batch;
use tridiag_core::SystemBatch;
use tridiag_gpu::GpuTridiagSolver;
use tridiag_service::{
    solo_solution, CoalesceKey, Payload, ServiceConfig, ServiceCore, ServiceReport, Solution,
    SolveRequest,
};

const MIXES: usize = 60;
const SHAPE_NS: [usize; 4] = [64, 256, 257, 512];

fn random_payload(rng: &mut StdRng, m: usize, n: usize) -> Payload {
    let seed = rng.gen_range(0u64..1 << 40);
    if rng.gen_bool(0.3) {
        Payload::F32(random_batch::<f32>(m, n, seed))
    } else {
        Payload::F64(random_batch::<f64>(m, n, seed))
    }
}

fn random_mix(rng: &mut StdRng) -> Vec<SolveRequest> {
    let count = rng.gen_range(2usize..7);
    (0..count)
        .map(|i| {
            let m = rng.gen_range(1usize..5);
            let n = SHAPE_NS[rng.gen_range(0usize..SHAPE_NS.len())];
            SolveRequest {
                id: i as u64,
                arrival_us: i as f64 * 0.5,
                payload: random_payload(rng, m, n),
            }
        })
        .collect()
}

/// A plain one-device `solve_batch` of `payload` alone on `spec`, and
/// its modeled kernel time.
fn plain_solve(spec: &DeviceSpec, payload: &Payload) -> (Solution, f64) {
    let solver = GpuTridiagSolver::new(spec.clone(), Default::default());
    match payload {
        Payload::F32(b) => {
            let (x, report) = solver.solve_batch(b).unwrap();
            (Solution::F32(x), report.total_us)
        }
        Payload::F64(b) => {
            let (x, report) = solver.solve_batch(b).unwrap();
            (Solution::F64(x), report.total_us)
        }
    }
}

fn service_config(window_us: f64) -> ServiceConfig {
    ServiceConfig {
        window_us,
        ..ServiceConfig::default()
    }
}

/// The report's batch bookkeeping is coherent: every response's batch
/// exists and lists it, every batch member has a response, and the
/// devices of each batch solve exactly its systems between them.
fn assert_batches_are_coherent(report: &ServiceReport, ctx: &str) {
    for r in &report.responses {
        let b = r
            .batch
            .unwrap_or_else(|| panic!("{ctx}: request {} ran in no batch", r.id));
        assert!(
            b < report.batches.len(),
            "{ctx}: request {} names batch {b} of {}",
            r.id,
            report.batches.len()
        );
        assert!(
            report.batches[b].request_ids.contains(&r.id),
            "{ctx}: batch {b} does not list request {}",
            r.id
        );
    }
    for (b, batch) in report.batches.iter().enumerate() {
        for id in &batch.request_ids {
            assert!(
                report.responses.iter().any(|r| r.id == *id),
                "{ctx}: batch {b} member {id} has no response"
            );
        }
        let solved: usize = batch.devices.iter().map(|d| d.sys_count).sum();
        assert_eq!(
            solved, batch.m_total,
            "{ctx}: batch {b} devices solve {solved} of {} systems",
            batch.m_total
        );
    }
}

/// The tentpole property, across >= 50 randomized mixes on one device:
/// every coalesced solution is bit-identical to the solo solve, and
/// batching is exactly the compatibility relation.
#[test]
fn coalesced_solutions_bit_identical_to_solo_across_random_mixes() {
    let spec = DeviceSpec::gtx480();
    let group = DeviceGroup::single(spec.clone());
    let mut rng = StdRng::seed_from_u64(0xC0A1E5CE);
    let mut coalesced_batches = 0usize;
    for mix in 0..MIXES {
        let requests = random_mix(&mut rng);
        let keys: Vec<CoalesceKey> = requests.iter().map(|r| CoalesceKey::of(&spec, r)).collect();
        let mut core = ServiceCore::new(group.clone(), service_config(50.0));
        let report = core.run_workload(requests.clone());
        assert_eq!(report.responses.len(), requests.len(), "mix {mix}");

        for req in &requests {
            let resp = report
                .responses
                .iter()
                .find(|r| r.id == req.id)
                .unwrap_or_else(|| panic!("mix {mix}: no response for request {}", req.id));
            let coalesced = resp
                .result
                .as_ref()
                .unwrap_or_else(|e| panic!("mix {mix} request {}: {e}", req.id));
            let solo = solo_solution(&group, service_config(50.0), &req.payload)
                .unwrap_or_else(|e| panic!("mix {mix} request {} solo: {e}", req.id));
            assert_eq!(
                coalesced.hash(),
                solo.hash(),
                "mix {mix} request {}: coalesced answer differs from solo",
                req.id
            );
            assert_eq!(coalesced, &solo, "mix {mix} request {}: bit drift", req.id);
            let (plain, _) = plain_solve(&spec, &req.payload);
            assert_eq!(
                coalesced.hash(),
                plain.hash(),
                "mix {mix} request {}: service answer differs from solve_batch",
                req.id
            );
        }

        // Exact-batching: all arrivals land inside the first window, so
        // same-key requests MUST share a batch and different-key
        // requests MUST NOT.
        let batch_of = |id: u64| {
            report
                .responses
                .iter()
                .find(|r| r.id == id)
                .and_then(|r| r.batch)
        };
        for a in 0..requests.len() {
            for b in a + 1..requests.len() {
                let (ba, bb) = (batch_of(requests[a].id), batch_of(requests[b].id));
                if keys[a] == keys[b] {
                    assert_eq!(
                        ba, bb,
                        "mix {mix}: compatible requests {a}/{b} not coalesced"
                    );
                } else {
                    assert_ne!(
                        ba, bb,
                        "mix {mix}: incompatible requests {a}/{b} merged (n/precision/decision differ)"
                    );
                }
            }
        }
        coalesced_batches += report
            .batches
            .iter()
            .filter(|b| b.request_ids.len() > 1)
            .count();

        assert_batches_are_coherent(&report, &format!("mix {mix}"));
    }
    assert!(
        coalesced_batches >= MIXES / 4,
        "the suite must actually exercise coalescing (saw {coalesced_batches} fused batches)"
    );
}

/// Same identity on a homogeneous 2-device group: fused batches shard
/// across devices, solo requests (m < devices) fall back to the
/// primary — the answer must still be bit-identical.
#[test]
fn coalesced_solutions_bit_identical_on_a_device_group() {
    let spec = DeviceSpec::gtx480();
    let group = DeviceGroup::homogeneous(spec.clone(), 2).unwrap();
    let mut rng = StdRng::seed_from_u64(0x5EED);
    for mix in 0..8 {
        let requests = random_mix(&mut rng);
        let mut core = ServiceCore::new(group.clone(), service_config(50.0));
        let report = core.run_workload(requests.clone());
        for req in &requests {
            let resp = report.responses.iter().find(|r| r.id == req.id).unwrap();
            let coalesced = resp.result.as_ref().unwrap();
            let solo = solo_solution(&group, service_config(50.0), &req.payload).unwrap();
            assert_eq!(
                coalesced.hash(),
                solo.hash(),
                "mix {mix} request {} on D=2",
                req.id
            );
            let (plain, _) = plain_solve(&spec, &req.payload);
            assert_eq!(
                coalesced.hash(),
                plain.hash(),
                "mix {mix} request {} on D=2: differs from one-device solve_batch",
                req.id
            );
        }
        assert_batches_are_coherent(&report, &format!("mix {mix} on D=2"));
    }
}

/// Re-running an identical workload on a warm core must hit the plan
/// cache for every batch and reproduce every hash exactly.
#[test]
fn warm_cache_reproduces_answers_bit_for_bit() {
    let group = DeviceGroup::single(DeviceSpec::gtx480());
    let mut rng = StdRng::seed_from_u64(7);
    let requests = random_mix(&mut rng);
    let mut core = ServiceCore::new(group, service_config(50.0));
    let cold = core.run_workload(requests.clone());
    let warm = core.run_workload(requests);
    let hash_of = |report: &tridiag_service::ServiceReport, id: u64| {
        report
            .responses
            .iter()
            .find(|r| r.id == id)
            .unwrap()
            .result
            .as_ref()
            .unwrap()
            .hash()
    };
    for r in &cold.responses {
        assert_eq!(hash_of(&cold, r.id), hash_of(&warm, r.id), "id {}", r.id);
    }
    assert!(
        warm.batches.iter().all(|b| b.cache_hit),
        "every warm batch must be a plan-cache hit: {:?}",
        warm.batches
    );
    let stats = core.cache_stats();
    assert_eq!(stats.lookups, stats.hits + stats.misses);
    assert!(stats.hits >= warm.batches.len() as u64);
}

/// One window of the pinned coalescing-window sweep: the modeled times
/// as `f64` bits, the counts exactly.
struct WindowPin {
    window_us: f64,
    requests_per_s: u64,
    p50_us: u64,
    p99_us: u64,
    makespan_us: u64,
    batches: usize,
    fused_batches: usize,
    cache_hits: u64,
    cache_misses: u64,
}

/// The coalescing-window sweep: 64 requests 1 µs apart, each an f64
/// batch of M = 2 systems of N = 256 (seed `42 + i`). Window 0 is the
/// solo baseline, one launch per request.
const WINDOW_PINS: &[WindowPin] = &[
    WindowPin {
        window_us: 0.0,
        requests_per_s: 0x40f2_a249_97af_bddc,
        p50_us: 0x4078_4430_ec88_7517,
        p99_us: 0x4088_3c30_ec88_7510,
        makespan_us: 0x408a_3430_ec88_750f,
        batches: 64,
        fused_batches: 0,
        cache_hits: 63,
        cache_misses: 1,
    },
    WindowPin {
        window_us: 2.0,
        requests_per_s: 0x4113_04cc_d4a9_927b,
        p50_us: 0x405b_8058_b0ed_1829,
        p99_us: 0x4061_cc76_12d4_c154,
        makespan_us: 0x4069_ac76_12d4_c154,
        batches: 3,
        fused_batches: 3,
        cache_hits: 0,
        cache_misses: 3,
    },
    WindowPin {
        window_us: 4.0,
        requests_per_s: 0x4112_9f3a_d0c8_d096,
        p50_us: 0x405c_9869_5b14_c859,
        p99_us: 0x4062_587e_67e8_996c,
        makespan_us: 0x406a_387e_67e8_996c,
        batches: 3,
        fused_batches: 3,
        cache_hits: 0,
        cache_misses: 3,
    },
    WindowPin {
        window_us: 8.0,
        requests_per_s: 0x4111_c6ed_4fb5_9687,
        p50_us: 0x4058_630b_d617_be27,
        p99_us: 0x4063_9788_d241_678b,
        makespan_us: 0x406b_7788_d241_678b,
        batches: 3,
        fused_batches: 3,
        cache_hits: 0,
        cache_misses: 3,
    },
    WindowPin {
        window_us: 16.0,
        requests_per_s: 0x4111_89a1_8c5d_f620,
        p50_us: 0x405f_d67e_2fc6_6495,
        p99_us: 0x4063_f788_d241_678a,
        makespan_us: 0x406b_d788_d241_678a,
        batches: 2,
        fused_batches: 2,
        cache_hits: 0,
        cache_misses: 2,
    },
    WindowPin {
        window_us: 64.0,
        requests_per_s: 0x410e_ee5d_385c_716b,
        p50_us: 0x4063_a630_8300_7821,
        p99_us: 0x4067_b27a_3d5e_ad60,
        makespan_us: 0x406f_927a_3d5e_ad60,
        batches: 1,
        fused_batches: 1,
        cache_hits: 0,
        cache_misses: 1,
    },
];

/// The regime the service manufactures: with small per-request M,
/// every non-zero coalescing window strictly beats window = 0 on
/// modeled requests/s (launch overhead amortizes, occupancy rises).
/// Every cell of the sweep is pinned exactly.
#[test]
fn coalescing_window_sweep_matches_pins() {
    const REQUESTS: usize = 64;
    let group = DeviceGroup::single(DeviceSpec::gtx480());
    let requests: Vec<SolveRequest> = (0..REQUESTS)
        .map(|i| SolveRequest {
            id: i as u64,
            arrival_us: i as f64,
            payload: Payload::F64(random_batch::<f64>(2, 256, 42 + i as u64)),
        })
        .collect();
    let mut rps = Vec::new();
    for pin in WINDOW_PINS {
        let w = pin.window_us;
        let mut core = ServiceCore::new(
            group.clone(),
            ServiceConfig {
                window_us: w,
                queue_depth: REQUESTS,
                ..ServiceConfig::default()
            },
        );
        let report = core.run_workload(requests.clone());
        let (done, rejected, failed) = report.totals();
        assert_eq!(
            done, REQUESTS,
            "window {w}: {rejected} rejected, {failed} failed"
        );
        let fused = report
            .batches
            .iter()
            .filter(|b| b.request_ids.len() > 1)
            .count();
        for (name, actual, pinned) in [
            ("requests_per_s", report.requests_per_s, pin.requests_per_s),
            ("p50_us", report.p50_us, pin.p50_us),
            ("p99_us", report.p99_us, pin.p99_us),
            ("makespan_us", report.makespan_us, pin.makespan_us),
        ] {
            assert_eq!(
                actual.to_bits(),
                pinned,
                "window {w}: {name} {actual:?} ({:#x}) drifted from the pin",
                actual.to_bits()
            );
        }
        assert_eq!(report.batches.len(), pin.batches, "window {w}: batches");
        assert_eq!(fused, pin.fused_batches, "window {w}: fused batches");
        assert_eq!(report.cache.hits, pin.cache_hits, "window {w}: cache hits");
        assert_eq!(
            report.cache.misses, pin.cache_misses,
            "window {w}: cache misses"
        );
        rps.push(report.requests_per_s);
    }
    assert!(
        rps[1..].iter().all(|&r| r > rps[0]),
        "every non-zero window must beat window = 0 on requests/s: {rps:?}"
    );
}

/// Mixed layouts don't break identity: a request whose batch is
/// interleaved must come back bit-identical to its solo solve too
/// (the coalescer re-extracts systems, the solver re-lays them out).
#[test]
fn interleaved_request_layout_is_bit_neutral() {
    let group = DeviceGroup::single(DeviceSpec::gtx480());
    let contiguous = random_batch::<f64>(3, 256, 99);
    let interleaved = contiguous.to_layout(tridiag_core::Layout::Interleaved);
    let requests = vec![
        SolveRequest {
            id: 0,
            arrival_us: 0.0,
            payload: Payload::F64(random_batch::<f64>(2, 256, 98)),
        },
        SolveRequest {
            id: 1,
            arrival_us: 0.5,
            payload: Payload::F64(interleaved.clone()),
        },
    ];
    let mut core = ServiceCore::new(group.clone(), service_config(50.0));
    let report = core.run_workload(requests);
    let resp = report.responses.iter().find(|r| r.id == 1).unwrap();
    assert_eq!(resp.coalesced_with, 2, "the two requests must coalesce");
    let solo = solo_solution(&group, service_config(50.0), &Payload::F64(interleaved)).unwrap();
    assert_eq!(resp.result.as_ref().unwrap().hash(), solo.hash());
}

/// Sanity: the fused batch really concatenates member systems in
/// arrival order (scatter returns each request its own rows).
#[test]
fn scatter_returns_each_request_its_own_rows() {
    let group = DeviceGroup::single(DeviceSpec::gtx480());
    let b0 = random_batch::<f64>(2, 128, 1);
    let b1 = random_batch::<f64>(3, 128, 2);
    let requests = vec![
        SolveRequest {
            id: 10,
            arrival_us: 0.0,
            payload: Payload::F64(b0.clone()),
        },
        SolveRequest {
            id: 11,
            arrival_us: 0.1,
            payload: Payload::F64(b1.clone()),
        },
    ];
    let mut core = ServiceCore::new(group.clone(), service_config(10.0));
    let report = core.run_workload(requests);
    for (id, batch) in [(10u64, &b0), (11u64, &b1)] {
        let resp = report.responses.iter().find(|r| r.id == id).unwrap();
        let tridiag_service::Solution::F64(x) = resp.result.as_ref().unwrap() else {
            panic!("wrong precision came back");
        };
        assert_eq!(x.len(), batch.total_len());
        // The answer actually solves *this* request's systems.
        let residual = SystemBatch::from_systems(batch.to_systems())
            .unwrap()
            .max_relative_residual(x)
            .unwrap();
        assert!(residual < 1e-9, "id {id}: residual {residual}");
    }
}

/// A lone large request runs at its own decision, not at one pinned
/// for some other batch size: two 131072-row f64 systems model within
/// 1.25x of `solve_batch`'s kernel time for the same request, with the
/// same bits.
#[test]
fn lone_large_request_runs_at_its_own_decision() {
    let spec = DeviceSpec::gtx480();
    let payload = Payload::F64(random_batch::<f64>(2, 131072, 5));
    let requests = vec![SolveRequest {
        id: 0,
        arrival_us: 0.0,
        payload: payload.clone(),
    }];
    let mut core = ServiceCore::new(DeviceGroup::single(spec.clone()), service_config(50.0));
    let report = core.run_workload(requests);
    assert_eq!(report.totals(), (1, 0, 0), "{:?}", report.responses);
    let resp = &report.responses[0];
    let (plain, plain_us) = plain_solve(&spec, &payload);
    assert_eq!(resp.result.as_ref().unwrap(), &plain);
    let kernel_us = resp.spans.kernel_us;
    assert!(
        kernel_us <= 1.25 * plain_us,
        "service kernel {kernel_us} us vs solve_batch {plain_us} us"
    );
}

/// The service runs on any device, shrunken copies included: a device
/// without a tuned table takes the planner's fallback decision, and
/// each answer is still its own `solve_batch` on that device.
#[test]
fn requests_on_a_shrunken_device_match_its_solve_batch() {
    let n = 4096;
    let mut small = DeviceSpec::gtx480();
    small.global_mem_bytes = 16 << 20;
    let group = DeviceGroup::single(small.clone());
    let requests: Vec<SolveRequest> = (0..2u64)
        .map(|i| SolveRequest {
            id: i,
            arrival_us: i as f64,
            payload: Payload::F64(random_batch::<f64>(1, n, 70 + i)),
        })
        .collect();
    let mut core = ServiceCore::new(group, service_config(50.0));
    let report = core.run_workload(requests.clone());
    assert_eq!(report.totals(), (2, 0, 0), "{:?}", report.responses);
    for req in &requests {
        let resp = report.responses.iter().find(|r| r.id == req.id).unwrap();
        let (plain, _) = plain_solve(&small, &req.payload);
        assert_eq!(
            resp.result.as_ref().unwrap(),
            &plain,
            "request {}: differs from solve_batch",
            req.id
        );
    }
}
