//! The service report: per-request outcomes, batch summaries,
//! throughput/latency rollups and SLO accounting, as typed values. The
//! service's serialized observability output is the telemetry artifact
//! set ([`crate::telemetry`]), not this report.

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

/// One fused launch the service performed; [`Response::batch`] is its
/// position in [`ServiceReport::batches`].
#[derive(Debug, Clone)]
pub struct BatchSummary {
    /// Total fused systems.
    pub m_total: usize,
    /// Ids of the member requests, in fused order.
    pub request_ids: Vec<u64>,
    /// Whether the fused plan came from the cache.
    pub cache_hit: bool,
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
