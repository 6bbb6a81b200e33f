//! The four workloads, and how a seed turns into their ops and inputs.
//!
//! Everything here is a pure function of `(workload, seed)`: the op list
//! of every round, each op's shape and the matrix entries. The inputs
//! come from the benchmark's own generator, so a change to the
//! program's generators cannot change what the benchmark measures.

use tridiag_core::{Layout, Scalar, SystemBatch};
use tridiag_service::{Payload, SolveRequest};

/// SplitMix64: a small seedable generator owned by the benchmark.
#[derive(Debug, Clone)]
pub struct Rng(u64);

impl Rng {
    pub fn new(seed: u64) -> Rng {
        Rng(seed)
    }

    pub fn next_u64(&mut self) -> u64 {
        self.0 = self.0.wrapping_add(0x9E37_79B9_7F4A_7C15);
        let mut z = self.0;
        z = (z ^ (z >> 30)).wrapping_mul(0xBF58_476D_1CE4_E5B9);
        z = (z ^ (z >> 27)).wrapping_mul(0x94D0_49BB_1331_11EB);
        z ^ (z >> 31)
    }

    /// Uniform in `[0, 1)`.
    pub fn unit(&mut self) -> f64 {
        (self.next_u64() >> 11) as f64 / (1u64 << 53) as f64
    }

    /// Uniform in `[lo, hi)`.
    pub fn range(&mut self, lo: f64, hi: f64) -> f64 {
        lo + (hi - lo) * self.unit()
    }

    /// Uniform in `0..bound` (`bound > 0`).
    pub fn below(&mut self, bound: usize) -> usize {
        ((self.unit() * bound as f64) as usize).min(bound - 1)
    }
}

/// An independent stream seed for `(seed, tag)`.
pub fn derive(seed: u64, tag: u64) -> u64 {
    Rng::new(seed ^ tag.wrapping_mul(0xD6E8_FEB8_6659_FD93)).next_u64()
}

#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum Workload {
    HybridBatch,
    WideBatch,
    ServiceStream,
    MultiDevice,
}

impl Workload {
    pub const ALL: [Workload; 4] = [
        Workload::HybridBatch,
        Workload::WideBatch,
        Workload::ServiceStream,
        Workload::MultiDevice,
    ];

    pub fn name(self) -> &'static str {
        match self {
            Workload::HybridBatch => "hybrid_batch",
            Workload::WideBatch => "wide_batch",
            Workload::ServiceStream => "service_stream",
            Workload::MultiDevice => "multi_device",
        }
    }

    pub fn parse(name: &str) -> Option<Workload> {
        Workload::ALL.into_iter().find(|w| w.name() == name)
    }

    fn tag(self) -> u64 {
        self as u64 + 1
    }
}

#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum Precision {
    F32,
    F64,
}

/// Which public entry point an op goes through.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum Route {
    /// `SolvePlan::build_for_host` + `PlanExecutor::run` on one device.
    Single,
    /// `ShardedPlan::build` + `ShardedExecutor::run` across the group.
    Sharded,
    /// `DistributedPlan::build` + `DistributedExecutor::run`: one system
    /// row-split across the group.
    Split,
}

/// One closed-loop operation: a batch of `m` systems of `n` rows.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct Op {
    pub route: Route,
    pub m: usize,
    pub n: usize,
    pub precision: Precision,
    /// Layout the host batch arrives in.
    pub layout: Layout,
    pub data_seed: u64,
}

impl Op {
    pub fn rows(&self) -> usize {
        self.m * self.n
    }
}

const F32_F64: [Precision; 2] = [Precision::F32, Precision::F64];

/// The entries a round of a batch workload runs once each, at their
/// nominal shapes (data seeds are filled in per round).
pub fn menu(w: Workload) -> Vec<Op> {
    let op = |route, m, n, precision, layout| Op {
        route,
        m,
        n,
        precision,
        layout,
        data_seed: 0,
    };
    let mut out = Vec::new();
    match w {
        Workload::HybridBatch => {
            for (m, n) in [(16, 1024), (64, 512), (64, 2048), (256, 512), (1, 16384)] {
                for p in F32_F64 {
                    out.push(op(Route::Single, m, n, p, Layout::Contiguous));
                }
            }
        }
        Workload::WideBatch => {
            for (m, n) in [
                (1024, 512),
                (2048, 64),
                (2048, 256),
                (4096, 128),
                (8192, 64),
            ] {
                for p in F32_F64 {
                    for layout in [Layout::Contiguous, Layout::Interleaved] {
                        out.push(op(Route::Single, m, n, p, layout));
                    }
                }
            }
        }
        Workload::MultiDevice => {
            for n in [16384, 65536] {
                out.push(op(Route::Split, 1, n, Precision::F64, Layout::Contiguous));
            }
            for (m, n) in [(64, 2048), (256, 512), (2048, 256)] {
                out.push(op(Route::Sharded, m, n, Precision::F64, Layout::Contiguous));
            }
        }
        Workload::ServiceStream => {}
    }
    out
}

/// Round `r` of batch workload `w`: every menu entry once, in a seeded
/// order, each with a data seed and up to 1/32 more rows. The batch
/// size `M` is never jittered, so every seed runs the same Table III
/// regimes, while modeled time (linear in the rows, stepwise in `M`)
/// still differs from seed to seed.
pub fn round(w: Workload, seed: u64, r: u64) -> Vec<Op> {
    let mut rng = Rng::new(derive(derive(seed, w.tag()), r));
    let mut ops = menu(w);
    for i in (1..ops.len()).rev() {
        ops.swap(i, rng.below(i + 1));
    }
    for op in &mut ops {
        op.n += rng.below(op.n / 32 + 1);
        op.data_seed = rng.next_u64();
    }
    ops
}

/// The op's input batch.
pub fn input(op: &Op) -> Payload {
    match op.precision {
        Precision::F32 => Payload::F32(batch(op.m, op.n, op.layout, op.data_seed)),
        Precision::F64 => Payload::F64(batch(op.m, op.n, op.layout, op.data_seed)),
    }
}

/// `m` strictly diagonally dominant random systems of `n` rows, stored
/// in `layout`. System `s` is the same in either layout.
pub fn batch<S: Scalar>(m: usize, n: usize, layout: Layout, seed: u64) -> SystemBatch<S> {
    let mut rng = Rng::new(seed);
    let len = m * n;
    let (mut a, mut b, mut c, mut d) = (
        vec![S::ZERO; len],
        vec![S::ZERO; len],
        vec![S::ZERO; len],
        vec![S::ZERO; len],
    );
    for s in 0..m {
        for i in 0..n {
            let lower = if i == 0 { 0.0 } else { rng.range(-1.0, 1.0) };
            let upper = if i + 1 == n {
                0.0
            } else {
                rng.range(-1.0, 1.0)
            };
            let margin = rng.range(0.5, 1.5);
            let sign = if rng.unit() < 0.5 { -1.0 } else { 1.0 };
            let k = layout.index(s, i, m, n);
            a[k] = S::from_f64(lower);
            b[k] = S::from_f64(sign * (lower.abs() + upper.abs() + margin));
            c[k] = S::from_f64(upper);
            d[k] = S::from_f64(rng.range(-1.0, 1.0));
        }
    }
    SystemBatch::from_raw(a, b, c, d, m, n, layout).expect("m, n > 0 and array lengths m * n")
}

/// Service traffic: modeled offered load of the measured sessions.
pub const OFFERED_REQ_PER_S: f64 = 100_000.0;
/// Request shapes: M ∈ 1..=4 systems of N rows, f32 or f64.
const REQUEST_NS: [usize; 4] = [64, 128, 256, 512];
const REQUEST_SHAPES: usize = 4 * REQUEST_NS.len() * 2;
/// Requests per measured service session: every shape three times.
pub const SESSION_REQUESTS: usize = 3 * REQUEST_SHAPES;
/// Requests in the set-up warm-up session.
pub const WARMUP_REQUESTS: usize = 6 * REQUEST_SHAPES;
/// Requests per capacity-search session.
pub const CAPACITY_REQUESTS: usize = 20 * REQUEST_SHAPES;

/// Session tags outside the measured range.
pub const WARMUP_SESSION: u64 = u64::MAX;
pub const CAPACITY_SESSION: u64 = u64::MAX - 1;

/// One open-loop service session: `requests` Poisson arrivals at
/// `rate_per_s` on the modeled clock. Each request is a batch of
/// M ∈ 1..=4 systems of N ∈ {64, 128, 256, 512} rows in f32 or f64;
/// every (M, N, precision) shape comes up equally often, in a seeded
/// order. The payloads depend on `(seed, index)` only, so the same
/// session at two rates differs only in its arrival times.
pub fn session(seed: u64, index: u64, requests: usize, rate_per_s: f64) -> Vec<SolveRequest> {
    let mut rng = Rng::new(derive(derive(seed, Workload::ServiceStream.tag()), index));
    let mut shapes: Vec<usize> = (0..requests).map(|i| i % REQUEST_SHAPES).collect();
    for i in (1..shapes.len()).rev() {
        shapes.swap(i, rng.below(i + 1));
    }
    let mut arrival_us = 0.0;
    (0u64..)
        .zip(shapes)
        .map(|(id, shape)| {
            arrival_us += -(1.0 - rng.unit()).ln() / rate_per_s * 1e6;
            let (m, n, f32) = (1 + shape % 4, REQUEST_NS[shape / 4 % 4], shape / 16 == 0);
            let data = rng.next_u64();
            let payload = if f32 {
                Payload::F32(batch(m, n, Layout::Contiguous, data))
            } else {
                Payload::F64(batch(m, n, Layout::Contiguous, data))
            };
            SolveRequest {
                id,
                arrival_us,
                payload,
            }
        })
        .collect()
}

#[cfg(test)]
mod tests {
    use super::*;
    use tridiag_gpu::solution_hash;

    fn input_hash(op: &Op) -> u64 {
        let b = batch::<f64>(op.m, op.n, op.layout, op.data_seed);
        let (a, bb, c, d) = b.arrays();
        [a, bb, c, d]
            .iter()
            .fold(0, |h, arr| h ^ solution_hash(arr).rotate_left(7))
    }

    fn session_hash(reqs: &[SolveRequest]) -> u64 {
        reqs.iter().fold(0u64, |h, r| {
            let x = match &r.payload {
                Payload::F32(b) => solution_hash(b.arrays().3),
                Payload::F64(b) => solution_hash(b.arrays().3),
            };
            h.rotate_left(5) ^ x ^ r.arrival_us.to_bits()
        })
    }

    #[test]
    fn rounds_are_a_pure_function_of_the_seed() {
        for w in [
            Workload::HybridBatch,
            Workload::WideBatch,
            Workload::MultiDevice,
        ] {
            let a = round(w, 1, 3);
            assert_eq!(a, round(w, 1, 3), "{}", w.name());
            assert_ne!(a, round(w, 2, 3), "{}", w.name());
            assert_ne!(a, round(w, 1, 4), "{}", w.name());
            let small = a.iter().min_by_key(|op| op.rows()).expect("non-empty menu");
            assert_eq!(input_hash(small), input_hash(small));
            let other = round(w, 2, 3);
            let small2 = other
                .iter()
                .min_by_key(|op| op.rows())
                .expect("non-empty menu");
            assert_ne!(input_hash(small), input_hash(small2));
        }
    }

    #[test]
    fn sessions_are_a_pure_function_of_the_seed() {
        let a = session(1, 0, 20, OFFERED_REQ_PER_S);
        assert_eq!(
            session_hash(&a),
            session_hash(&session(1, 0, 20, OFFERED_REQ_PER_S))
        );
        assert_ne!(
            session_hash(&a),
            session_hash(&session(2, 0, 20, OFFERED_REQ_PER_S))
        );
        assert_ne!(
            session_hash(&a),
            session_hash(&session(1, 1, 20, OFFERED_REQ_PER_S))
        );
    }

    #[test]
    fn a_round_holds_every_menu_entry_once_within_its_regime() {
        for w in [
            Workload::HybridBatch,
            Workload::WideBatch,
            Workload::MultiDevice,
        ] {
            let menu = menu(w);
            let ops = round(w, 7, 0);
            assert_eq!(ops.len(), menu.len());
            for entry in &menu {
                let hits = ops.iter().filter(|op| {
                    (op.route, op.m, op.precision, op.layout)
                        == (entry.route, entry.m, entry.precision, entry.layout)
                        && (entry.n..=entry.n + entry.n / 32).contains(&op.n)
                });
                assert_eq!(hits.count(), 1, "{}: {entry:?}", w.name());
            }
        }
    }

    #[test]
    fn batches_are_layout_independent_and_dominant() {
        let c = batch::<f64>(3, 9, Layout::Contiguous, 5);
        let i = batch::<f64>(3, 9, Layout::Interleaved, 5);
        assert_eq!(c.to_systems(), i.to_systems());
        assert!(c.to_systems().iter().all(|s| s.is_diagonally_dominant()));
    }

    #[test]
    fn sessions_hold_every_shape_equally_often() {
        let reqs = session(4, 2, SESSION_REQUESTS, OFFERED_REQ_PER_S);
        let mut count = std::collections::HashMap::new();
        for r in &reqs {
            let key = (
                r.payload.num_systems(),
                r.payload.system_len(),
                r.payload.elem_bytes(),
            );
            *count.entry(key).or_insert(0) += 1;
        }
        assert_eq!(count.len(), REQUEST_SHAPES);
        assert!(count
            .values()
            .all(|&c| c == SESSION_REQUESTS / REQUEST_SHAPES));
        assert!(reqs.windows(2).all(|w| w[0].arrival_us < w[1].arrival_us));
    }

    #[test]
    fn session_payloads_do_not_depend_on_the_rate() {
        let slow = session(3, CAPACITY_SESSION, 10, 50_000.0);
        let fast = session(3, CAPACITY_SESSION, 10, 400_000.0);
        for (s, f) in slow.iter().zip(&fast) {
            assert_eq!(s.payload.num_systems(), f.payload.num_systems());
            assert_eq!(s.payload.system_len(), f.payload.system_len());
            assert!((s.arrival_us / f.arrival_us - 8.0).abs() < 1e-9);
        }
    }
}
