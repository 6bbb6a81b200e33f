//! The service report: per-request outcomes, batch summaries,
//! throughput/latency rollups, SLO accounting, and the JSON export +
//! schema validator (`tridiag.service_report/v1`).

use gpu_sim::json::schema::Check;
use gpu_sim::Json;

use crate::cache::CacheStats;
use crate::request::{RequestSpans, Response, ServiceError};

/// Per-device execution of one fused batch (one entry per shard for
/// multi-device groups, a single entry otherwise). `completion_us` is
/// relative to the batch start, like [`ShardSummary::completion_us`]
/// is relative to the launch.
///
/// [`ShardSummary::completion_us`]: tridiag_gpu::ShardSummary
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct DeviceSpan {
    /// Device index within the group.
    pub device_index: usize,
    /// Systems this device solved.
    pub sys_count: usize,
    /// Modeled kernel time on this device (µs).
    pub kernel_us: f64,
    /// When this device finished, relative to batch start (µs).
    pub completion_us: f64,
}

/// One fused launch the service performed.
#[derive(Debug, Clone)]
pub struct BatchSummary {
    /// Global batch index (what [`Response::batch`] refers to).
    pub index: usize,
    /// Rows per system of every member.
    pub n: usize,
    /// Precision label (`"f32"` / `"f64"`).
    pub precision: &'static str,
    /// Total fused systems.
    pub m_total: usize,
    /// Ids of the member requests, in fused order.
    pub request_ids: Vec<u64>,
    /// Whether the fused plan came from the cache.
    pub cache_hit: bool,
    /// Whether the batch faulted and fell back to per-member solves.
    pub isolated: bool,
    /// Modeled kernel time (fused; summed over members when isolated).
    pub kernel_us: f64,
    /// When the batch started on the modeled axis.
    pub start_us: f64,
    /// Per-device shard execution (empty only for isolated fallbacks).
    pub devices: Vec<DeviceSpan>,
}

/// Latency-objective configuration for [`SloSummary`] accounting.
#[derive(Debug, Clone, Copy)]
pub struct SloConfig {
    /// A completed request is "good" when its latency is at most this.
    pub target_latency_us: f64,
    /// Width of one accounting bucket on the modeled axis (the
    /// modeled-time analogue of a "minute" in good/bad-minute SLOs).
    pub bucket_us: f64,
    /// Fraction of buckets the error budget allows to go bad.
    pub budget_frac: f64,
}

impl Default for SloConfig {
    fn default() -> SloConfig {
        SloConfig {
            target_latency_us: 500.0,
            bucket_us: 1000.0,
            budget_frac: 0.1,
        }
    }
}

/// What the run did to its latency objective.
#[derive(Debug, Clone, Copy, Default, PartialEq)]
pub struct SloSummary {
    /// The configured latency target (µs).
    pub target_latency_us: f64,
    /// Completed requests whose latency exceeded the target.
    pub violations: usize,
    /// Accounting buckets that saw at least one completion.
    pub buckets: usize,
    /// Buckets where every completion met the target.
    pub good_buckets: usize,
    /// Buckets with at least one violation.
    pub bad_buckets: usize,
    /// The configured error-budget fraction.
    pub budget_frac: f64,
    /// Fraction of the error budget consumed
    /// (`bad / (budget_frac * buckets)`; > 1 means the budget is blown).
    pub budget_burn: f64,
}

/// Everything one service run (modeled workload or drained threaded
/// session) produced.
#[derive(Debug, Clone)]
pub struct ServiceReport {
    /// Device-group label the service ran on.
    pub device: String,
    /// Coalescing window (µs).
    pub window_us: f64,
    /// Bounded queue depth.
    pub queue_depth: usize,
    /// One response per submitted request, in completion order per
    /// tick (rejections appear where they bounced).
    pub responses: Vec<Response>,
    /// One summary per fused launch.
    pub batches: Vec<BatchSummary>,
    /// Plan-cache counters.
    pub cache: CacheStats,
    /// First arrival → last completion (µs); 0 for an empty run.
    pub makespan_us: f64,
    /// Successfully solved requests per modeled second.
    pub requests_per_s: f64,
    /// Median latency over solved requests (µs).
    pub p50_us: f64,
    /// 99th-percentile latency over solved requests (µs).
    pub p99_us: f64,
    /// Per-kind span totals over every response, accumulated in
    /// response order — the report half of the exact-partition
    /// invariant ([`crate::telemetry::Telemetry::cross_check`]
    /// compares the metric gauges against these bit-exactly).
    pub attributed: RequestSpans,
    /// Latency-objective accounting.
    pub slo: SloSummary,
}

/// Nearest-rank percentile of an ascending-sorted slice: the smallest
/// element with at least `p`% of the samples at or below it
/// (`sorted[ceil(p/100 · n) - 1]`, rank clamped to `[1, n]`). Empty
/// input yields 0. Note p99 of fewer than 100 samples is the maximum.
fn percentile(sorted: &[f64], p: f64) -> f64 {
    if sorted.is_empty() {
        return 0.0;
    }
    let rank = ((p / 100.0) * sorted.len() as f64).ceil() as usize;
    sorted[rank.clamp(1, sorted.len()) - 1]
}

impl ServiceReport {
    /// Assemble the rollups and SLO accounting from raw outcomes.
    pub fn build(
        device: String,
        window_us: f64,
        queue_depth: usize,
        responses: Vec<Response>,
        batches: Vec<BatchSummary>,
        cache: CacheStats,
        slo_cfg: SloConfig,
    ) -> ServiceReport {
        let mut latencies: Vec<f64> = responses
            .iter()
            .filter(|r| r.result.is_ok())
            .map(|r| r.spans.latency_us())
            .collect();
        latencies.sort_by(|a, b| a.partial_cmp(b).unwrap_or(std::cmp::Ordering::Equal));
        let completed = latencies.len();
        let first_arrival = responses
            .iter()
            .map(|r| r.completed_us - r.spans.latency_us())
            .fold(f64::INFINITY, f64::min);
        let last_completion = responses.iter().map(|r| r.completed_us).fold(0.0, f64::max);
        let makespan_us = if responses.is_empty() {
            0.0
        } else {
            (last_completion - first_arrival).max(0.0)
        };
        let requests_per_s = if makespan_us > 0.0 {
            completed as f64 / (makespan_us * 1e-6)
        } else {
            0.0
        };

        // One independent accumulator per kind, added in response
        // order — the exact sequence Telemetry::on_response replays
        // into the attributed_us gauges (rejections contribute +0.0,
        // which is bit-neutral on a non-negative sum).
        let mut attributed = RequestSpans::default();
        for r in &responses {
            attributed.queue_us += r.spans.queue_us;
            attributed.coalesce_us += r.spans.coalesce_us;
            attributed.kernel_us += r.spans.kernel_us;
            attributed.scatter_us += r.spans.scatter_us;
        }

        let slo = slo_accounting(&responses, slo_cfg);

        ServiceReport {
            device,
            window_us,
            queue_depth,
            p50_us: percentile(&latencies, 50.0),
            p99_us: percentile(&latencies, 99.0),
            attributed,
            slo,
            responses,
            batches,
            cache,
            makespan_us,
            requests_per_s,
        }
    }

    /// Solved / rejected / failed counts.
    pub fn totals(&self) -> (usize, usize, usize) {
        let mut completed = 0;
        let mut rejected = 0;
        let mut failed = 0;
        for r in &self.responses {
            match &r.result {
                Ok(_) => completed += 1,
                Err(ServiceError::Overloaded { .. }) | Err(ServiceError::ShuttingDown) => {
                    rejected += 1
                }
                Err(_) => failed += 1,
            }
        }
        (completed, rejected, failed)
    }

    /// Export as schema `tridiag.service_report/v1`.
    pub fn to_json(&self) -> Json {
        let (completed, rejected, failed) = self.totals();
        let responses: Vec<Json> = self
            .responses
            .iter()
            .map(|r| {
                let mut fields = vec![
                    ("id".into(), Json::num(r.id as f64)),
                    ("ok".into(), Json::Bool(r.result.is_ok())),
                ];
                match &r.result {
                    Ok(x) => {
                        fields.push(("solution_len".into(), Json::num(x.len() as f64)));
                        fields.push((
                            "solution_hash".into(),
                            Json::str(format!("{:016x}", x.hash())),
                        ));
                    }
                    Err(e) => fields.push(("error".into(), Json::str(e.to_string()))),
                }
                fields.extend([
                    (
                        "batch".into(),
                        r.batch.map_or(Json::Null, |b| Json::num(b as f64)),
                    ),
                    ("coalesced_with".into(), Json::num(r.coalesced_with as f64)),
                    ("cache_hit".into(), Json::Bool(r.cache_hit)),
                    (
                        "spans_us".into(),
                        Json::Obj(vec![
                            ("queue".into(), Json::num(r.spans.queue_us)),
                            ("coalesce".into(), Json::num(r.spans.coalesce_us)),
                            ("kernel".into(), Json::num(r.spans.kernel_us)),
                            ("scatter".into(), Json::num(r.spans.scatter_us)),
                        ]),
                    ),
                    ("latency_us".into(), Json::num(r.spans.latency_us())),
                    ("completed_us".into(), Json::num(r.completed_us)),
                ]);
                Json::Obj(fields)
            })
            .collect();
        let batches: Vec<Json> = self
            .batches
            .iter()
            .map(|b| {
                Json::Obj(vec![
                    ("index".into(), Json::num(b.index as f64)),
                    ("n".into(), Json::num(b.n as f64)),
                    ("precision".into(), Json::str(b.precision)),
                    ("m_total".into(), Json::num(b.m_total as f64)),
                    (
                        "request_ids".into(),
                        Json::Arr(
                            b.request_ids
                                .iter()
                                .map(|&id| Json::num(id as f64))
                                .collect(),
                        ),
                    ),
                    ("cache_hit".into(), Json::Bool(b.cache_hit)),
                    ("isolated".into(), Json::Bool(b.isolated)),
                    ("kernel_us".into(), Json::num(b.kernel_us)),
                    ("start_us".into(), Json::num(b.start_us)),
                    (
                        "devices".into(),
                        Json::Arr(
                            b.devices
                                .iter()
                                .map(|d| {
                                    Json::Obj(vec![
                                        ("device".into(), Json::num(d.device_index as f64)),
                                        ("sys_count".into(), Json::num(d.sys_count as f64)),
                                        ("kernel_us".into(), Json::num(d.kernel_us)),
                                        ("completion_us".into(), Json::num(d.completion_us)),
                                    ])
                                })
                                .collect(),
                        ),
                    ),
                ])
            })
            .collect();
        Json::Obj(vec![
            ("schema".into(), Json::str("tridiag.service_report/v1")),
            ("device".into(), Json::str(self.device.clone())),
            ("window_us".into(), Json::num(self.window_us)),
            ("queue_depth".into(), Json::num(self.queue_depth as f64)),
            (
                "totals".into(),
                Json::Obj(vec![
                    ("submitted".into(), Json::num(self.responses.len() as f64)),
                    ("completed".into(), Json::num(completed as f64)),
                    ("rejected".into(), Json::num(rejected as f64)),
                    ("failed".into(), Json::num(failed as f64)),
                ]),
            ),
            (
                "throughput".into(),
                Json::Obj(vec![
                    ("makespan_us".into(), Json::num(self.makespan_us)),
                    ("requests_per_s".into(), Json::num(self.requests_per_s)),
                    ("p50_us".into(), Json::num(self.p50_us)),
                    ("p99_us".into(), Json::num(self.p99_us)),
                ]),
            ),
            (
                "attributed_us".into(),
                Json::Obj(vec![
                    ("queue".into(), Json::num(self.attributed.queue_us)),
                    ("coalesce".into(), Json::num(self.attributed.coalesce_us)),
                    ("kernel".into(), Json::num(self.attributed.kernel_us)),
                    ("scatter".into(), Json::num(self.attributed.scatter_us)),
                ]),
            ),
            (
                "slo".into(),
                Json::Obj(vec![
                    (
                        "target_latency_us".into(),
                        Json::num(self.slo.target_latency_us),
                    ),
                    ("violations".into(), Json::num(self.slo.violations as f64)),
                    ("buckets".into(), Json::num(self.slo.buckets as f64)),
                    (
                        "good_buckets".into(),
                        Json::num(self.slo.good_buckets as f64),
                    ),
                    ("bad_buckets".into(), Json::num(self.slo.bad_buckets as f64)),
                    ("budget_frac".into(), Json::num(self.slo.budget_frac)),
                    ("budget_burn".into(), Json::num(self.slo.budget_burn)),
                ]),
            ),
            (
                "cache".into(),
                Json::Obj(vec![
                    ("lookups".into(), Json::num(self.cache.lookups as f64)),
                    ("hits".into(), Json::num(self.cache.hits as f64)),
                    ("misses".into(), Json::num(self.cache.misses as f64)),
                    ("evictions".into(), Json::num(self.cache.evictions as f64)),
                ]),
            ),
            ("batches".into(), Json::Arr(batches)),
            ("responses".into(), Json::Arr(responses)),
        ])
    }
}

/// Good/bad-bucket SLO accounting over the completed responses.
fn slo_accounting(responses: &[Response], cfg: SloConfig) -> SloSummary {
    use std::collections::BTreeMap;
    let mut violations = 0;
    // bucket id -> saw a violation
    let mut buckets: BTreeMap<u64, bool> = BTreeMap::new();
    for r in responses {
        if r.result.is_err() {
            continue;
        }
        let violated = r.spans.latency_us() > cfg.target_latency_us;
        if violated {
            violations += 1;
        }
        let id = if cfg.bucket_us > 0.0 {
            (r.completed_us / cfg.bucket_us).floor() as u64
        } else {
            0
        };
        let bad = buckets.entry(id).or_insert(false);
        *bad = *bad || violated;
    }
    let bad_buckets = buckets.values().filter(|&&b| b).count();
    let total = buckets.len();
    let budget = cfg.budget_frac * total as f64;
    SloSummary {
        target_latency_us: cfg.target_latency_us,
        violations,
        buckets: total,
        good_buckets: total - bad_buckets,
        bad_buckets,
        budget_frac: cfg.budget_frac,
        budget_burn: if budget > 0.0 {
            bad_buckets as f64 / budget
        } else if bad_buckets > 0 {
            f64::INFINITY
        } else {
            0.0
        },
    }
}

/// Validate a `tridiag.service_report/v1` document. Returns every
/// problem found (empty = valid), in the same "collect all findings"
/// style as the plan and trace validators. Beyond field shapes this
/// re-derives the cross-sums: totals add up, cache hits + misses =
/// lookups, per-response span sums match latencies, batch member ids
/// resolve, the attributed per-kind totals equal the sum over the
/// responses **exactly** (both sides survive the JSON round-trip
/// bit-intact), and the SLO bucket counts are coherent.
pub fn validate_service_report_json(doc: &Json) -> Vec<String> {
    let mut c = Check::new(doc);
    c.schema("tridiag.service_report/v1");
    c.req_str("device");
    c.num_ge("window_us", 0.0);

    let mut submitted = -1.0;
    if let Some(totals) = c.req_obj("totals") {
        let total_of = |key: &str| totals.get(key).and_then(Json::as_num).unwrap_or(-1.0);
        submitted = total_of("submitted");
        let (completed, rejected, failed) = (
            total_of("completed"),
            total_of("rejected"),
            total_of("failed"),
        );
        if submitted < 0.0 || completed < 0.0 || rejected < 0.0 || failed < 0.0 {
            c.problem("totals missing one of submitted/completed/rejected/failed");
        } else if (completed + rejected + failed - submitted).abs() > 1e-9 {
            c.problem(format!(
                "totals do not add up: {completed} + {rejected} + {failed} != {submitted}"
            ));
        }
    }
    if let Some(cache) = c.req_obj("cache") {
        let g = |k: &str| cache.get(k).and_then(Json::as_num).unwrap_or(-1.0);
        if (g("hits") + g("misses") - g("lookups")).abs() > 1e-9 {
            c.problem("cache counters: hits + misses != lookups");
        }
    }

    let responses = c.req_arr("responses");
    if submitted >= 0.0 && responses.len() as f64 != submitted {
        c.problem(format!(
            "responses array has {} entries but totals.submitted = {submitted}",
            responses.len()
        ));
    }
    let batches = c.req_arr("batches");
    let mut ids = Vec::new();
    // Replay the attributed sums in response order (same adds as the
    // report builder, so exact comparison below is sound).
    let (mut att_q, mut att_c, mut att_k, mut att_s) = (0.0f64, 0.0f64, 0.0f64, 0.0f64);
    for (i, r) in responses.iter().enumerate() {
        let mut rc = c.child(r, format!("response {i}: "));
        let Some(id) = rc.req_num("id") else {
            c.absorb(rc);
            continue;
        };
        ids.push(id);
        let ok = matches!(r.get("ok"), Some(Json::Bool(true)));
        if ok == r.get("error").is_some() {
            rc.problem(format!("(id {id}): ok flag and error field disagree"));
        }
        if ok && r.get("solution_hash").and_then(Json::as_str).is_none() {
            rc.problem(format!("(id {id}): ok but no solution_hash"));
        }
        let spans = r.get("spans_us");
        let span = |k: &str| {
            spans
                .and_then(|s| s.get(k))
                .and_then(Json::as_num)
                .unwrap_or(f64::NAN)
        };
        let (q, co, k, s) = (
            span("queue"),
            span("coalesce"),
            span("kernel"),
            span("scatter"),
        );
        let sum = q + co + k + s;
        let latency = r
            .get("latency_us")
            .and_then(Json::as_num)
            .unwrap_or(f64::NAN);
        if sum.is_nan() || latency.is_nan() || (sum - latency).abs() > 1e-6 * latency.abs().max(1.0)
        {
            rc.problem(format!("(id {id}): spans sum {sum} != latency {latency}"));
        } else {
            att_q += q;
            att_c += co;
            att_k += k;
            att_s += s;
        }
        if let Some(b) = r.get("batch").and_then(Json::as_num) {
            if b < 0.0 || b >= batches.len() as f64 {
                rc.problem(format!(
                    "(id {id}): batch index {b} out of range ({} batches)",
                    batches.len()
                ));
            }
        }
        c.absorb(rc);
    }
    if let Some(att) = c.req_obj("attributed_us") {
        for (key, expected) in [
            ("queue", att_q),
            ("coalesce", att_c),
            ("kernel", att_k),
            ("scatter", att_s),
        ] {
            match att.get(key).and_then(Json::as_num) {
                Some(v) if v == expected => {}
                Some(v) => c.problem(format!(
                    "attributed_us.{key} is {v} but the responses sum to {expected} \
                     (exact-partition invariant)"
                )),
                None => c.problem(format!("attributed_us missing numeric field {key:?}")),
            }
        }
    }
    for (i, b) in batches.iter().enumerate() {
        let mut bc = c.child(b, format!("batch {i}: "));
        let members = bc.req_arr("request_ids");
        if members.is_empty() {
            bc.problem("empty request_ids");
        }
        for id in members {
            if let Some(id) = id.as_num() {
                if !ids.contains(&id) {
                    bc.problem(format!("request id {id} has no response"));
                }
            }
        }
        let m_total = b.get("m_total").and_then(Json::as_num).unwrap_or(-1.0);
        if m_total < 1.0 {
            bc.problem(format!("m_total {m_total} < 1"));
        }
        let mut device_m = 0.0;
        let devices = bc.req_arr("devices");
        for d in devices {
            device_m += d.get("sys_count").and_then(Json::as_num).unwrap_or(0.0);
        }
        if !devices.is_empty() && device_m != m_total {
            bc.problem(format!(
                "device sys_counts sum to {device_m} but m_total is {m_total}"
            ));
        }
        c.absorb(bc);
    }
    if let Some(t) = c.req_obj("throughput") {
        let g = |k: &str| t.get(k).and_then(Json::as_num).unwrap_or(f64::NAN);
        if g("p50_us") > g("p99_us") {
            c.problem(format!("p50 {} exceeds p99 {}", g("p50_us"), g("p99_us")));
        }
        let rps = g("requests_per_s");
        if rps.is_nan() || rps < 0.0 {
            c.problem("requests_per_s missing or negative");
        }
    }
    if let Some(slo) = c.req_obj("slo") {
        let g = |k: &str| slo.get(k).and_then(Json::as_num).unwrap_or(-1.0);
        let (buckets, good, bad) = (g("buckets"), g("good_buckets"), g("bad_buckets"));
        if buckets < 0.0 || good < 0.0 || bad < 0.0 {
            c.problem("slo missing one of buckets/good_buckets/bad_buckets");
        } else if good + bad != buckets {
            c.problem(format!(
                "slo buckets do not add up: {good} good + {bad} bad != {buckets}"
            ));
        }
        let violations = g("violations");
        if submitted >= 0.0 && violations > submitted {
            c.problem(format!(
                "slo violations {violations} exceed submitted {submitted}"
            ));
        }
        if g("target_latency_us") <= 0.0 {
            c.problem("slo target_latency_us must be positive");
        }
    }
    c.finish()
}

#[cfg(test)]
mod tests {
    use super::*;

    // Pins the nearest-rank convention: rank = ceil(p/100 · n),
    // clamped to [1, n], 1-indexed.
    #[test]
    fn percentile_of_empty_set_is_zero() {
        assert_eq!(percentile(&[], 50.0), 0.0);
        assert_eq!(percentile(&[], 99.0), 0.0);
    }

    #[test]
    fn percentile_of_single_sample_is_that_sample() {
        assert_eq!(percentile(&[42.0], 0.0), 42.0);
        assert_eq!(percentile(&[42.0], 50.0), 42.0);
        assert_eq!(percentile(&[42.0], 99.0), 42.0);
        assert_eq!(percentile(&[42.0], 100.0), 42.0);
    }

    #[test]
    fn p99_of_fewer_than_100_samples_is_the_maximum() {
        let v: Vec<f64> = (1..=50).map(|i| i as f64).collect();
        assert_eq!(percentile(&v, 99.0), 50.0);
        let v: Vec<f64> = (1..=99).map(|i| i as f64).collect();
        assert_eq!(percentile(&v, 99.0), 99.0);
    }

    #[test]
    fn p99_of_exactly_100_samples_is_the_99th() {
        let v: Vec<f64> = (1..=100).map(|i| i as f64).collect();
        assert_eq!(percentile(&v, 99.0), 99.0);
        assert_eq!(percentile(&v, 100.0), 100.0);
        assert_eq!(percentile(&v, 50.0), 50.0);
    }

    #[test]
    fn p50_rounds_toward_the_lower_median() {
        assert_eq!(percentile(&[1.0, 2.0], 50.0), 1.0);
        assert_eq!(percentile(&[1.0, 2.0, 3.0], 50.0), 2.0);
        assert_eq!(percentile(&[1.0, 2.0, 3.0, 4.0], 50.0), 2.0);
    }

    #[test]
    fn p0_clamps_to_the_minimum() {
        assert_eq!(percentile(&[3.0, 7.0, 9.0], 0.0), 3.0);
    }

    #[test]
    fn slo_buckets_partition_and_burn() {
        use crate::request::{RequestSpans, Response};
        let mk = |completed_us: f64, kernel_us: f64| Response {
            id: 0,
            result: Ok(crate::request::Solution::F64(vec![1.0])),
            spans: RequestSpans {
                queue_us: 0.0,
                coalesce_us: 0.0,
                kernel_us,
                scatter_us: 0.0,
            },
            batch: None,
            coalesced_with: 0,
            cache_hit: false,
            completed_us,
        };
        let cfg = SloConfig {
            target_latency_us: 10.0,
            bucket_us: 100.0,
            budget_frac: 0.5,
        };
        // Bucket 0: one good; bucket 1: one good + one violation.
        let responses = vec![mk(50.0, 5.0), mk(150.0, 5.0), mk(160.0, 20.0)];
        let slo = slo_accounting(&responses, cfg);
        assert_eq!(slo.violations, 1);
        assert_eq!(slo.buckets, 2);
        assert_eq!(slo.good_buckets, 1);
        assert_eq!(slo.bad_buckets, 1);
        assert_eq!(slo.budget_burn, 1.0);
    }
}
