//! Metric names, units and clocks, and the values a run reports.
//!
//! `END_TO_END` and `PER_LAYER` are the lists `BENCHMARK.json` declares
//! (a test keeps them equal). An untraced run reports every end-to-end
//! metric; a traced run every per-layer metric. A metric a workload
//! does not exercise (a sharded counter on a single-device workload)
//! reads 0.

use crate::run::{Host, Tally};
use crate::stats::{iqr, mean, median, percentile, tail_mean};

/// `(name, unit)` of every end-to-end metric.
pub const END_TO_END: &[(&str, &str)] = &[
    ("setup_s", "s"),
    ("host_op_ms_p50", "ms"),
    ("host_krows_per_s", "krow/s"),
    ("modeled_latency_us_mean", "us"),
    ("modeled_tail_latency_us", "us"),
    ("peak_rss_mb", "MiB"),
];

/// Share of the slowest ops (service: requests) the modeled tail
/// latency averages.
const TAIL_FRAC: f64 = 0.1;

/// Phase labels the tiled PCR and p-Thomas kernels record.
const PHASES: &[&str] = &[
    "tiled_pcr.window_init",
    "tiled_pcr.window_load",
    "tiled_pcr.splice",
    "tiled_pcr.pcr_level",
    "tiled_pcr.carry_init",
    "tiled_pcr.emit",
    "tiled_pcr.carry_roll",
    "tiled_pcr.flush",
    "p_thomas.forward",
    "p_thomas.backward",
];

/// `(name, unit)` of every per-layer metric.
pub const PER_LAYER: &[(&str, &str)] = &[
    ("op.host_ms", "ms"),
    ("op.unattributed.host_ms", "ms"),
    ("tridiag-gpu.plan.host_ms", "ms"),
    ("tridiag-gpu.executor.host_ms", "ms"),
    ("tridiag-service.session.host_ms", "ms"),
    ("tridiag-service.host_us_per_request", "us"),
    ("tridiag-gpu.verify.host_ms", "ms"),
    ("tridiag-core.to_layout.host_ms", "ms"),
    ("tridiag-core.residual.host_ms", "ms"),
    ("cpu-ref.solve.host_ms", "ms"),
    ("cpu-ref.slowdown", "ratio"),
    ("gpu-sim.host_ns_per_event", "ns"),
    ("trace.overhead_frac", "ratio"),
    ("host.op_ms_p90", "ms"),
    ("raw.op_ms_p50", "ms"),
    ("raw.op_ms_p90", "ms"),
    ("raw.ops_per_s", "1/s"),
    ("raw.setup_s", "s"),
    ("raw.cal_ms_median", "ms"),
    ("raw.cal_ms_iqr", "ms"),
    ("kernel.tiled_pcr.us", "us"),
    ("kernel.p_thomas.us", "us"),
    ("kernel.launches", "count"),
    ("kernel.launch_us", "us"),
    ("kernel.bound.compute_us", "us"),
    ("kernel.bound.bandwidth_us", "us"),
    ("kernel.bound.latency_us", "us"),
    ("kernel.bound.launch_us", "us"),
    ("phase.tiled_pcr.window_init.us", "us"),
    ("phase.tiled_pcr.window_load.us", "us"),
    ("phase.tiled_pcr.splice.us", "us"),
    ("phase.tiled_pcr.pcr_level.us", "us"),
    ("phase.tiled_pcr.carry_init.us", "us"),
    ("phase.tiled_pcr.emit.us", "us"),
    ("phase.tiled_pcr.carry_roll.us", "us"),
    ("phase.tiled_pcr.flush.us", "us"),
    ("phase.p_thomas.forward.us", "us"),
    ("phase.p_thomas.backward.us", "us"),
    ("gpu-sim.flops", "count"),
    ("gpu-sim.global_bytes", "bytes"),
    ("gpu-sim.global_transactions", "count"),
    ("gpu-sim.coalescing", "ratio"),
    ("gpu-sim.shared_accesses", "count"),
    ("gpu-sim.bank_conflict_replays", "count"),
    ("gpu-sim.barriers", "count"),
    ("gpu-sim.flops_per_byte", "flop/byte"),
    ("gpu-sim.occupancy_mean", "ratio"),
    ("gpu-sim.waves", "count"),
    ("tridiag-gpu.plan.k_mean", "count"),
    ("tridiag-gpu.plan.interleaved_frac", "ratio"),
    ("tridiag-gpu.plan.convert_elided_frac", "ratio"),
    ("tridiag-gpu.plan.h2d_bytes", "bytes"),
    ("tridiag-gpu.plan.d2h_bytes", "bytes"),
    ("tridiag-gpu.plan.peak_resident_bytes_max", "bytes"),
    ("pcie.us", "us"),
    ("tridiag-gpu.sharded.kernel_us_sum", "us"),
    ("tridiag-gpu.sharded.imbalance", "ratio"),
    ("tridiag-gpu.distributed.wall_clock_us", "us"),
    ("tridiag-gpu.distributed.serialized_us", "us"),
    ("tridiag-gpu.distributed.chunk_flops", "count"),
    ("tridiag-gpu.distributed.reduced_flops", "count"),
    ("tridiag-gpu.distributed.backsub_flops", "count"),
    ("tridiag-gpu.distributed.gather_bytes", "bytes"),
    ("tridiag-gpu.distributed.scatter_bytes", "bytes"),
    ("tridiag-service.queue_us", "us"),
    ("tridiag-service.coalesce_us", "us"),
    ("tridiag-service.kernel_us", "us"),
    ("tridiag-service.scatter_us", "us"),
    ("tridiag-service.queue_us_p99", "us"),
    ("tridiag-service.latency_us_p99", "us"),
    ("tridiag-service.requests_per_batch", "count"),
    ("tridiag-service.fused_frac", "ratio"),
    ("tridiag-service.cache.hits", "count"),
    ("tridiag-service.cache.misses", "count"),
    ("tridiag-service.cache.evictions", "count"),
    ("tridiag-service.cache.hit_ratio", "ratio"),
    ("tridiag-service.rejected", "count"),
    ("tridiag-service.slo_violations", "count"),
    ("tridiag-service.budget_burn", "ratio"),
    ("tridiag-service.capacity_req_per_s", "req/s"),
    ("check.max_rel_residual.f32", "ratio"),
    ("check.max_rel_residual.f64", "ratio"),
];

/// Which clock a value was read from.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum Clock {
    /// The simulator's modeled device time, or a count it made.
    Modeled,
    /// Host time scaled to the reference machine by the yardstick.
    Host,
    /// Host time or memory as measured.
    Raw,
    /// No clock: outcome counts of the benchmark's own checks.
    Count,
}

impl Clock {
    pub const NAMES: [&'static str; 4] = ["modeled", "host", "raw", "count"];

    pub fn name(self) -> &'static str {
        Clock::NAMES[self as usize]
    }
}

#[derive(Debug, Clone)]
pub struct Metric {
    pub name: String,
    pub value: f64,
    pub unit: &'static str,
    pub clock: Clock,
    /// How many samples the value summarises.
    pub samples: usize,
}

#[derive(Debug, Default)]
pub struct Metrics(pub Vec<Metric>);

impl Metrics {
    /// Add a metric declared in `END_TO_END` or `PER_LAYER`.
    fn put(&mut self, name: &str, value: f64, clock: Clock, samples: usize) {
        let unit = END_TO_END
            .iter()
            .chain(PER_LAYER)
            .find(|(n, _)| *n == name)
            .map(|(_, u)| *u)
            .unwrap_or_else(|| panic!("metric {name:?} is not declared"));
        self.extra(name, value, unit, clock, samples);
    }

    /// Add a metric that is printed and written but not declared.
    pub fn extra(
        &mut self,
        name: &str,
        value: f64,
        unit: &'static str,
        clock: Clock,
        samples: usize,
    ) {
        self.0.push(Metric {
            name: name.to_string(),
            value,
            unit,
            clock,
            samples,
        });
    }

    pub fn get(&self, name: &str) -> Option<&Metric> {
        self.0.iter().find(|m| m.name == name)
    }
}

/// `num / den`, or 0 when nothing was counted.
fn ratio(num: f64, den: f64) -> f64 {
    if den > 0.0 {
        num / den
    } else {
        0.0
    }
}

/// What set-up and the untraced pass measured.
pub struct Measured<'a> {
    pub tally: &'a Tally,
    /// Set-up repetitions: raw seconds and the yardstick reading
    /// around each.
    pub setup: &'a [(f64, f64)],
    /// Every yardstick sample of the run.
    pub yardstick_ms: &'a [f64],
    /// The yardstick's median on the reference machine.
    pub reference_ms: f64,
    pub peak_rss_mb: f64,
}

impl Measured<'_> {
    /// Host ms per request of every completed op, on the reference
    /// machine.
    fn calibrated_ms(&self) -> Vec<f64> {
        let r = self.reference_ms;
        self.tally
            .hosts
            .iter()
            .map(|h| h.calibrated_ms(r))
            .collect()
    }

    /// Host ms per request of every completed op, as measured.
    fn raw_ms(&self) -> Vec<f64> {
        self.tally
            .hosts
            .iter()
            .map(|h| h.ms / h.requests as f64)
            .collect()
    }

    fn raw_setup_s(&self) -> Vec<f64> {
        self.setup.iter().map(|(s, _)| *s).collect()
    }
}

pub fn end_to_end(m: &Measured) -> Metrics {
    let t = m.tally;
    let mut out = Metrics::default();
    let setup: Vec<f64> = m
        .setup
        .iter()
        .map(|(s, y)| s * m.reference_ms / y)
        .collect();
    out.put("setup_s", median(&setup), Clock::Host, setup.len());
    let n = t.hosts.len();
    out.put(
        "host_op_ms_p50",
        percentile(&m.calibrated_ms(), 50.0),
        Clock::Host,
        n,
    );
    let rows: u64 = t.hosts.iter().map(|h| h.rows).sum();
    let ms: f64 = t
        .hosts
        .iter()
        .map(|h| h.calibrated_ms(m.reference_ms) * h.requests as f64)
        .sum();
    out.put("host_krows_per_s", ratio(rows as f64, ms), Clock::Host, n);
    let l = t.latency_us.len();
    out.put(
        "modeled_latency_us_mean",
        mean(&t.latency_us),
        Clock::Modeled,
        l,
    );
    let tail = tail_mean(&t.latency_us, TAIL_FRAC);
    out.put("modeled_tail_latency_us", tail, Clock::Modeled, l);
    out.put("peak_rss_mb", m.peak_rss_mb, Clock::Raw, 1);
    // The raw readings behind the calibrated ones, for the record.
    let c = m.yardstick_ms.len();
    out.extra(
        "raw.cal_ms_median",
        median(m.yardstick_ms),
        "ms",
        Clock::Raw,
        c,
    );
    out.extra(
        "raw.op_ms_p50",
        percentile(&m.raw_ms(), 50.0),
        "ms",
        Clock::Raw,
        n,
    );
    out
}

/// What a traced run measured: the untraced pass, then the same ops
/// again with spans and probes.
pub struct Traced<'a> {
    pub untraced: Measured<'a>,
    pub traced: &'a Tally,
    pub host: &'a Host,
    /// Op spans in the traced pass (service: sessions).
    pub op_spans: usize,
    /// Service capacity, when the workload is the service.
    pub capacity_req_per_s: Option<f64>,
}

pub fn per_layer(tr: &Traced) -> Metrics {
    let (m, t, h) = (&tr.untraced, tr.traced, tr.host);
    let u = m.tally;
    // Layer spans are summed over the whole traced pass, so they are
    // scaled by the run's median yardstick sample.
    let scale = m.reference_ms / median(m.yardstick_ms);
    let mut out = Metrics::default();
    let spans = tr.op_spans;
    let per_op_ms = |ns: u64| ratio(ns as f64 * 1e-6 * scale, spans as f64);
    out.put("op.host_ms", per_op_ms(h.op), Clock::Host, spans);
    out.put(
        "op.unattributed.host_ms",
        per_op_ms(h.unattributed),
        Clock::Host,
        spans,
    );
    out.put(
        "tridiag-gpu.plan.host_ms",
        per_op_ms(h.plan),
        Clock::Host,
        spans,
    );
    out.put(
        "tridiag-gpu.executor.host_ms",
        per_op_ms(h.executor),
        Clock::Host,
        spans,
    );
    out.put(
        "tridiag-service.session.host_ms",
        per_op_ms(h.session),
        Clock::Host,
        spans,
    );
    let requests = t.attempted as f64;
    let session_us = if h.session > 0 {
        ratio(h.session as f64 * 1e-3 * scale, requests)
    } else {
        0.0
    };
    out.put(
        "tridiag-service.host_us_per_request",
        session_us,
        Clock::Host,
        t.attempted,
    );
    out.put(
        "tridiag-gpu.verify.host_ms",
        per_op_ms(h.verify),
        Clock::Host,
        spans,
    );
    out.put(
        "tridiag-core.to_layout.host_ms",
        per_op_ms(h.to_layout),
        Clock::Host,
        spans,
    );
    out.put(
        "tridiag-core.residual.host_ms",
        per_op_ms(h.residual),
        Clock::Host,
        spans,
    );
    out.put(
        "cpu-ref.solve.host_ms",
        per_op_ms(h.cpu_ref),
        Clock::Host,
        spans,
    );
    let simulated = (h.executor + h.session) as f64;
    out.put(
        "cpu-ref.slowdown",
        ratio(simulated, h.cpu_ref as f64),
        Clock::Host,
        spans,
    );
    let ns_per_event = ratio(h.executor as f64 * scale, t.events as f64);
    out.put(
        "gpu-sim.host_ns_per_event",
        ns_per_event,
        Clock::Host,
        spans,
    );
    let overhead = ratio(h.op as f64 - u.op_ns as f64, u.op_ns as f64);
    out.put("trace.overhead_frac", overhead, Clock::Raw, spans);

    let n = u.hosts.len();
    out.put(
        "host.op_ms_p90",
        percentile(&m.calibrated_ms(), 90.0),
        Clock::Host,
        n,
    );
    let raw = m.raw_ms();
    out.put("raw.op_ms_p50", percentile(&raw, 50.0), Clock::Raw, n);
    out.put("raw.op_ms_p90", percentile(&raw, 90.0), Clock::Raw, n);
    out.put(
        "raw.ops_per_s",
        ratio(u.ops as f64, u.op_ns as f64 * 1e-9),
        Clock::Raw,
        n,
    );
    let setup = m.raw_setup_s();
    out.put("raw.setup_s", median(&setup), Clock::Raw, setup.len());
    let cal = m.yardstick_ms;
    out.put("raw.cal_ms_median", median(cal), Clock::Raw, cal.len());
    out.put("raw.cal_ms_iqr", iqr(cal), Clock::Raw, cal.len());

    let md = &t.model;
    let ops = t.modeled_ops;
    let per_op = |v: f64| ratio(v, ops as f64);
    let kernel = |name: &str| per_op(md.kernel_us.get(name).copied().unwrap_or(0.0));
    out.put(
        "kernel.tiled_pcr.us",
        kernel("tiled_pcr"),
        Clock::Modeled,
        ops,
    );
    out.put(
        "kernel.p_thomas.us",
        kernel("p_thomas"),
        Clock::Modeled,
        ops,
    );
    out.put(
        "kernel.launches",
        per_op(md.launches as f64),
        Clock::Modeled,
        ops,
    );
    out.put(
        "kernel.launch_us",
        per_op(md.launch_us),
        Clock::Modeled,
        ops,
    );
    for (i, kind) in ["compute", "bandwidth", "latency", "launch"]
        .iter()
        .enumerate()
    {
        let name = format!("kernel.bound.{kind}_us");
        out.put(&name, per_op(md.bound_us[i]), Clock::Modeled, ops);
    }
    for label in PHASES {
        let us = md.phase_us.get(*label).copied().unwrap_or(0.0);
        out.put(
            &format!("phase.{label}.us"),
            per_op(us),
            Clock::Modeled,
            ops,
        );
    }
    for (label, us) in &md.phase_us {
        if !PHASES.contains(&label.as_str()) {
            out.extra(
                &format!("phase.{label}.us"),
                per_op(*us),
                "us",
                Clock::Modeled,
                ops,
            );
        }
    }
    out.put(
        "gpu-sim.flops",
        per_op(md.flops as f64),
        Clock::Modeled,
        ops,
    );
    out.put(
        "gpu-sim.global_bytes",
        per_op(md.global_bytes as f64),
        Clock::Modeled,
        ops,
    );
    let tx = md.global_transactions as f64;
    out.put(
        "gpu-sim.global_transactions",
        per_op(tx),
        Clock::Modeled,
        ops,
    );
    let segment = gpu_sim::DeviceSpec::gtx480().transaction_bytes as f64;
    let coalescing = ratio(md.global_bytes as f64, tx * segment);
    out.put("gpu-sim.coalescing", coalescing, Clock::Modeled, ops);
    out.put(
        "gpu-sim.shared_accesses",
        per_op(md.shared_accesses as f64),
        Clock::Modeled,
        ops,
    );
    let replays = md.bank_conflict_replays as f64;
    out.put(
        "gpu-sim.bank_conflict_replays",
        per_op(replays),
        Clock::Modeled,
        ops,
    );
    out.put(
        "gpu-sim.barriers",
        per_op(md.barriers as f64),
        Clock::Modeled,
        ops,
    );
    let fpb = ratio(md.flops as f64, md.global_bytes as f64);
    out.put("gpu-sim.flops_per_byte", fpb, Clock::Modeled, ops);
    let launches = md.launches as f64;
    out.put(
        "gpu-sim.occupancy_mean",
        ratio(md.occupancy, launches),
        Clock::Modeled,
        ops,
    );
    out.put("gpu-sim.waves", per_op(md.waves), Clock::Modeled, ops);

    out.put("tridiag-gpu.plan.k_mean", per_op(md.k), Clock::Modeled, ops);
    let inter = per_op(md.interleaved as f64);
    out.put(
        "tridiag-gpu.plan.interleaved_frac",
        inter,
        Clock::Modeled,
        ops,
    );
    let elided = per_op(md.convert_elided as f64);
    out.put(
        "tridiag-gpu.plan.convert_elided_frac",
        elided,
        Clock::Modeled,
        ops,
    );
    out.put(
        "tridiag-gpu.plan.h2d_bytes",
        per_op(md.h2d_bytes as f64),
        Clock::Modeled,
        ops,
    );
    out.put(
        "tridiag-gpu.plan.d2h_bytes",
        per_op(md.d2h_bytes as f64),
        Clock::Modeled,
        ops,
    );
    let peak = md.peak_resident_bytes as f64;
    out.put(
        "tridiag-gpu.plan.peak_resident_bytes_max",
        peak,
        Clock::Modeled,
        ops,
    );
    out.put("pcie.us", per_op(md.pcie_us), Clock::Modeled, ops);

    let sh = md.sharded_ops as f64;
    let per_sharded = |v: f64| ratio(v, sh);
    let sh_n = md.sharded_ops as usize;
    let kus = per_sharded(md.sharded_kernel_us);
    out.put(
        "tridiag-gpu.sharded.kernel_us_sum",
        kus,
        Clock::Modeled,
        sh_n,
    );
    let imb = per_sharded(md.sharded_imbalance);
    out.put("tridiag-gpu.sharded.imbalance", imb, Clock::Modeled, sh_n);
    let sp = md.split_ops as f64;
    let sp_n = md.split_ops as usize;
    let per_split = |v: f64| ratio(v, sp);
    for (name, v) in [
        ("wall_clock_us", md.split_wall_us),
        ("serialized_us", md.split_serialized_us),
        ("chunk_flops", md.chunk_flops as f64),
        ("reduced_flops", md.reduced_flops as f64),
        ("backsub_flops", md.backsub_flops as f64),
        ("gather_bytes", md.gather_bytes as f64),
        ("scatter_bytes", md.scatter_bytes as f64),
    ] {
        let full = format!("tridiag-gpu.distributed.{name}");
        out.put(&full, per_split(v), Clock::Modeled, sp_n);
    }

    let sv = &t.service;
    let served = sv.queue_samples_us.len();
    let per_req = |v: f64| ratio(v, served as f64);
    out.put(
        "tridiag-service.queue_us",
        per_req(sv.queue_us),
        Clock::Modeled,
        served,
    );
    out.put(
        "tridiag-service.coalesce_us",
        per_req(sv.coalesce_us),
        Clock::Modeled,
        served,
    );
    out.put(
        "tridiag-service.kernel_us",
        per_req(sv.kernel_us),
        Clock::Modeled,
        served,
    );
    out.put(
        "tridiag-service.scatter_us",
        per_req(sv.scatter_us),
        Clock::Modeled,
        served,
    );
    let q99 = percentile(&sv.queue_samples_us, 99.0);
    out.put("tridiag-service.queue_us_p99", q99, Clock::Modeled, served);
    let lat99 = if served > 0 {
        percentile(&t.latency_us, 99.0)
    } else {
        0.0
    };
    out.put(
        "tridiag-service.latency_us_p99",
        lat99,
        Clock::Modeled,
        served,
    );
    let batches = sv.batches as f64;
    let rpb = ratio(sv.batched_requests as f64, batches);
    out.put(
        "tridiag-service.requests_per_batch",
        rpb,
        Clock::Modeled,
        sv.batches as usize,
    );
    let fused = ratio(sv.fused_batches as f64, batches);
    out.put(
        "tridiag-service.fused_frac",
        fused,
        Clock::Modeled,
        sv.batches as usize,
    );
    let sessions = if served > 0 { t.modeled_ops } else { 0 };
    let per_session = |v: f64| ratio(v, sessions as f64);
    let hits = sv.cache_hits as f64;
    let misses = sv.cache_misses as f64;
    out.put(
        "tridiag-service.cache.hits",
        per_session(hits),
        Clock::Modeled,
        sessions,
    );
    out.put(
        "tridiag-service.cache.misses",
        per_session(misses),
        Clock::Modeled,
        sessions,
    );
    let ev = sv.cache_evictions as f64;
    out.put(
        "tridiag-service.cache.evictions",
        per_session(ev),
        Clock::Modeled,
        sessions,
    );
    let hit_ratio = ratio(hits, hits + misses);
    out.put(
        "tridiag-service.cache.hit_ratio",
        hit_ratio,
        Clock::Modeled,
        sessions,
    );
    let rej = sv.rejected as f64;
    out.put(
        "tridiag-service.rejected",
        per_session(rej),
        Clock::Modeled,
        sessions,
    );
    let slo = sv.slo_violations as f64;
    out.put(
        "tridiag-service.slo_violations",
        per_session(slo),
        Clock::Modeled,
        sessions,
    );
    let burn = per_session(sv.budget_burn);
    out.put(
        "tridiag-service.budget_burn",
        burn,
        Clock::Modeled,
        sessions,
    );
    let cap = tr.capacity_req_per_s.unwrap_or(0.0);
    let cap_n = usize::from(tr.capacity_req_per_s.is_some());
    out.put(
        "tridiag-service.capacity_req_per_s",
        cap,
        Clock::Modeled,
        cap_n,
    );

    let res_n = u.latency_us.len() + t.latency_us.len();
    let worst = |i: usize| u.max_residual[i].max(t.max_residual[i]);
    out.put("check.max_rel_residual.f32", worst(0), Clock::Count, res_n);
    out.put("check.max_rel_residual.f64", worst(1), Clock::Count, res_n);
    out
}

#[cfg(test)]
mod tests {
    use super::*;
    use gpu_sim::json::{parse, Json};

    fn declared(doc: &Json, key: &str) -> Vec<(String, String)> {
        doc.get(key)
            .and_then(Json::as_arr)
            .unwrap_or_else(|| panic!("BENCHMARK.json has no {key:?} list"))
            .iter()
            .map(|m| {
                let field = |f: &str| m.get(f).and_then(Json::as_str).unwrap_or("").to_string();
                (field("name"), field("unit"))
            })
            .collect()
    }

    fn owned(list: &[(&str, &str)]) -> Vec<(String, String)> {
        list.iter()
            .map(|(n, u)| (n.to_string(), u.to_string()))
            .collect()
    }

    #[test]
    fn lists_match_benchmark_json() {
        let path = concat!(env!("CARGO_MANIFEST_DIR"), "/../BENCHMARK.json");
        let text = std::fs::read_to_string(path).expect("BENCHMARK.json at the repository root");
        let doc = parse(&text).expect("BENCHMARK.json parses");
        assert_eq!(declared(&doc, "end_to_end"), owned(END_TO_END));
        assert_eq!(declared(&doc, "per_layer"), owned(PER_LAYER));
    }

    #[test]
    fn every_run_reports_every_declared_metric() {
        let tally = Tally::default();
        let measured = Measured {
            tally: &tally,
            setup: &[(0.1, 2.0)],
            yardstick_ms: &[2.0],
            reference_ms: 2.0,
            peak_rss_mb: 1.0,
        };
        let e2e = end_to_end(&measured);
        for (name, unit) in END_TO_END {
            assert_eq!(e2e.get(name).map(|m| m.unit), Some(*unit), "{name}");
        }
        let host = Host::default();
        let layers = per_layer(&Traced {
            untraced: measured,
            traced: &tally,
            host: &host,
            op_spans: 0,
            capacity_req_per_s: None,
        });
        for (name, unit) in PER_LAYER {
            assert_eq!(layers.get(name).map(|m| m.unit), Some(*unit), "{name}");
        }
    }
}
