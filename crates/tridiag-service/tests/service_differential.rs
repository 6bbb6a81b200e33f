//! Coalescing-identity differential harness: a request's answer must
//! not depend on its co-tenants.
//!
//! For randomized mixes of request shapes the coalesced path must be
//! **bit-identical** (FNV-1a solution hashes, same style as
//! `sharded_differential.rs`) to solving each request alone under the
//! service's pinned config, and the coalescer must merge *exactly* the
//! compatible requests: same `(n, precision)` always lands in one
//! batch per tick, different `(n, precision)` never shares one.
//!
//! Also pinned here: the throughput claim the service exists for —
//! with small per-request batches, a non-zero coalescing window beats
//! window = 0 on modeled requests/s — and the report schema.

use gpu_sim::{DeviceGroup, DeviceSpec};
use rand::rngs::StdRng;
use rand::{Rng, SeedableRng};
use tridiag_core::generators::random_batch;
use tridiag_core::SystemBatch;
use tridiag_service::{
    solo_solution, validate_service_report_json, Payload, ServiceConfig, ServiceCore,
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

fn service_config(window_us: f64) -> ServiceConfig {
    ServiceConfig {
        window_us,
        ..ServiceConfig::default()
    }
}

/// The tentpole property, across >= 50 randomized mixes on one device:
/// every coalesced solution is bit-identical to the solo solve, and
/// batching is exactly the compatibility relation.
#[test]
fn coalesced_solutions_bit_identical_to_solo_across_random_mixes() {
    let group = DeviceGroup::single(DeviceSpec::gtx480());
    let mut rng = StdRng::seed_from_u64(0xC0A1E5CE);
    let mut coalesced_batches = 0usize;
    for mix in 0..MIXES {
        let requests = random_mix(&mut rng);
        let keys: Vec<(usize, usize)> = requests
            .iter()
            .map(|r| (r.payload.system_len(), r.payload.elem_bytes()))
            .collect();
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
                        "mix {mix}: incompatible requests {a}/{b} merged (n/precision differ)"
                    );
                }
            }
        }
        coalesced_batches += report
            .batches
            .iter()
            .filter(|b| b.request_ids.len() > 1)
            .count();

        let problems = validate_service_report_json(&report.to_json());
        assert!(problems.is_empty(), "mix {mix}: {problems:?}");
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
    let group = DeviceGroup::homogeneous(DeviceSpec::gtx480(), 2).unwrap();
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
        }
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
        requests_per_s: 0x40e6_0480_09d5_6855,
        p50_us: 0x4085_3548_2754_203c,
        p99_us: 0x4095_3148_2754_203e,
        makespan_us: 0x4096_2d48_2754_203e,
        batches: 64,
        fused_batches: 0,
        cache_hits: 63,
        cache_misses: 1,
    },
    WindowPin {
        window_us: 2.0,
        requests_per_s: 0x410e_c3d8_9ae1_e908,
        p50_us: 0x4063_d1d2_b253_ae9e,
        p99_us: 0x4067_de1c_6cb1_e3de,
        makespan_us: 0x406f_be1c_6cb1_e3de,
        batches: 3,
        fused_batches: 3,
        cache_hits: 0,
        cache_misses: 3,
    },
    WindowPin {
        window_us: 4.0,
        requests_per_s: 0x410e_75a8_953f_e271,
        p50_us: 0x405d_25cc_1574_7f80,
        p99_us: 0x4068_2f97_8f6e_2ba2,
        makespan_us: 0x4070_07cb_c7b7_15d1,
        batches: 3,
        fused_batches: 3,
        cache_hits: 0,
        cache_misses: 3,
    },
    WindowPin {
        window_us: 8.0,
        requests_per_s: 0x410d_c36c_d5cf_8f7d,
        p50_us: 0x4061_4dd0_f881_9328,
        p99_us: 0x4068_ef95_7458_588a,
        makespan_us: 0x4070_67ca_ba2c_2c45,
        batches: 3,
        fused_batches: 3,
        cache_hits: 0,
        cache_misses: 3,
    },
    WindowPin {
        window_us: 16.0,
        requests_per_s: 0x410e_2d92_fd5b_6280,
        p50_us: 0x4064_6fe2_ca95_cb5a,
        p99_us: 0x4068_7c2c_84f4_009a,
        makespan_us: 0x4070_2e16_427a_004d,
        batches: 2,
        fused_batches: 2,
        cache_hits: 0,
        cache_misses: 2,
    },
    WindowPin {
        window_us: 64.0,
        requests_per_s: 0x410b_77bb_abc1_93fc,
        p50_us: 0x4067_a14f_133c_bbbf,
        p99_us: 0x406b_ad98_cd9a_f0ff,
        makespan_us: 0x4071_c6cc_66cd_7880,
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
        assert_eq!(done, REQUESTS, "window {w}: {rejected} rejected, {failed} failed");
        let fused = report.batches.iter().filter(|b| b.request_ids.len() > 1).count();
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
        assert_eq!(report.cache.misses, pin.cache_misses, "window {w}: cache misses");
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
    let solo = solo_solution(
        &group,
        service_config(50.0),
        &Payload::F64(interleaved),
    )
    .unwrap();
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
