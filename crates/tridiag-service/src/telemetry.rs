//! Request-correlated telemetry for the solve service: a metrics
//! registry, a structured event log (schema `tridiag.events/v1`), and
//! the derived merged Chrome trace — all deterministic, all on the
//! modeled-time axis.
//!
//! Every request's id doubles as its **correlation id** (cid). The
//! [`crate::core::ServiceCore`] records an `admission` event when a
//! request enters a solve tick, `coalesce_open`/`coalesce_close` per
//! tick, one `cache_hit`/`cache_miss` event per fused batch (listing
//! every member cid; its `n` is the longest system's row count when the
//! members differ in `n`), `shard_dispatch`/`shard_join` per device the
//! batch ran on, and exactly one terminal event — `completion` or
//! `fault` — per admitted request. Admission-time bounces get a
//! standalone `reject` event instead. [`validate_event_log`] replays a
//! serialized log and proves the lifecycle invariants: every admitted
//! cid reaches exactly one terminal, terminals never orphan (no
//! admission) or duplicate, every completed cid rode exactly one
//! batch.
//!
//! [`Telemetry::to_trace`] derives the merged Chrome trace from the
//! log alone: per-request span chains (coalesce → queue → kernel →
//! scatter, the order a request spends them in, linked by the cid
//! argument), batch spans, and per-device shard tracks.
//! [`validate_request_chains`] checks the chain structure — each cid
//! appears in exactly one causally-linked chain whose spans come in
//! that order and tile `[arrival, completion]` exactly.
//!
//! The metrics half mirrors the event log into counters, histograms
//! (latency, queue depth, coalesce batch size, kernel time) and the
//! `attributed_us` gauges whose per-kind f64 accumulations replay the
//! report's own additions in the same order — which is what makes
//! [`Telemetry::cross_check`] a *bit-exact* partition check, in the
//! same style as the kernel phase sums and plan certificates.

use gpu_sim::json::schema::Check;
use gpu_sim::json::{parse, Json};
use gpu_sim::{MetricsRegistry, Trace};

use crate::report::{DeviceSpan, ServiceReport};
use crate::request::{Response, ServiceError, SolveRequest};

/// Schema identifier of the event-log header line.
pub const EVENTS_SCHEMA: &str = "tridiag.events/v1";

/// Every event kind the service emits, in lifecycle order.
pub const EVENT_KINDS: &[&str] = &[
    "admission",
    "reject",
    "coalesce_open",
    "coalesce_close",
    "cache_hit",
    "cache_miss",
    "shard_dispatch",
    "shard_join",
    "fault",
    "completion",
];

/// One structured event: kind, modeled timestamp, optional correlation
/// id, and kind-specific fields.
#[derive(Debug, Clone, PartialEq)]
pub struct Event {
    /// One of [`EVENT_KINDS`].
    pub kind: &'static str,
    /// When it happened on the modeled axis (µs).
    pub t_us: f64,
    /// Correlation id (the request id) for request-scoped events.
    pub cid: Option<u64>,
    /// Kind-specific payload.
    pub fields: Vec<(String, Json)>,
}

impl Event {
    /// Serialize as one JSONL line (no trailing newline).
    pub fn to_json(&self) -> Json {
        let mut obj = vec![
            ("event".into(), Json::str(self.kind)),
            ("t_us".into(), Json::num(self.t_us)),
        ];
        if let Some(cid) = self.cid {
            obj.push(("cid".into(), Json::num(cid as f64)));
        }
        obj.extend(self.fields.iter().cloned());
        Json::Obj(obj)
    }
}

/// The telemetry sink one [`crate::core::ServiceCore`] owns: metrics
/// plus the event log. Recording is infallible and deterministic.
#[derive(Debug, Clone, Default)]
pub struct Telemetry {
    /// The metrics registry (counters / gauges / histograms).
    pub metrics: MetricsRegistry,
    events: Vec<Event>,
    next_tick: u64,
}

impl Telemetry {
    /// An empty sink with the service's histogram families declared.
    pub fn new() -> Telemetry {
        let mut metrics = MetricsRegistry::new();
        metrics.declare_histogram(
            "latency_us",
            &[50.0, 100.0, 200.0, 500.0, 1000.0, 2000.0, 5000.0, 10000.0],
        );
        metrics.declare_histogram("kernel_us", &[25.0, 50.0, 100.0, 200.0, 500.0, 1000.0]);
        metrics.declare_histogram(
            "queue_depth",
            &[1.0, 2.0, 4.0, 8.0, 16.0, 32.0, 64.0, 128.0],
        );
        metrics.declare_histogram(
            "coalesce_batch_size",
            &[1.0, 2.0, 4.0, 8.0, 16.0, 32.0, 64.0],
        );
        Telemetry {
            metrics,
            events: Vec::new(),
            next_tick: 0,
        }
    }

    /// The recorded events, in order.
    pub fn events(&self) -> &[Event] {
        &self.events
    }

    fn push(
        &mut self,
        kind: &'static str,
        t_us: f64,
        cid: Option<u64>,
        fields: Vec<(String, Json)>,
    ) {
        self.events.push(Event {
            kind,
            t_us,
            cid,
            fields,
        });
    }

    /// A coalescing tick opened over `working` admitted requests.
    /// Records one admission event per request (at its arrival time)
    /// and returns the tick id.
    pub fn on_tick_open(&mut self, open_us: f64, working: &[SolveRequest]) -> u64 {
        let tick = self.next_tick;
        self.next_tick += 1;
        for req in working {
            let precision = req.payload.precision();
            self.push(
                "admission",
                req.arrival_us,
                Some(req.id),
                vec![
                    ("m".into(), Json::num(req.payload.num_systems() as f64)),
                    ("n".into(), Json::num(req.payload.system_len() as f64)),
                    ("precision".into(), Json::str(precision)),
                ],
            );
            self.metrics.inc("requests", "admitted");
            self.metrics.inc("requests_by_precision", precision);
            self.metrics.inc(
                "geometry",
                &format!("n{}/{}", req.payload.system_len(), precision),
            );
        }
        self.metrics
            .observe("queue_depth", "all", working.len() as f64);
        self.push(
            "coalesce_open",
            open_us,
            None,
            vec![
                ("tick".into(), Json::num(tick as f64)),
                ("queued".into(), Json::num(working.len() as f64)),
            ],
        );
        tick
    }

    /// The tick's window closed with `batches` coalesced batches.
    pub fn on_tick_close(&mut self, tick: u64, close_us: f64, batches: usize) {
        self.push(
            "coalesce_close",
            close_us,
            None,
            vec![
                ("tick".into(), Json::num(tick as f64)),
                ("batches".into(), Json::num(batches as f64)),
            ],
        );
    }

    /// One fused batch ran: the batch-level cache lookup outcome plus
    /// per-device shard dispatch/join events. `n` is the batch's rows
    /// per system — its longest system's in a ragged batch, whose
    /// members differ in `n` — and `m_total` its number of systems.
    #[allow(clippy::too_many_arguments)]
    pub fn on_batch(
        &mut self,
        index: usize,
        start_us: f64,
        n: usize,
        elem_bytes: usize,
        precision: &'static str,
        m_total: usize,
        cids: &[u64],
        cache_hit: bool,
        isolated: bool,
        kernel_us: f64,
        devices: &[DeviceSpan],
    ) {
        let kind = if cache_hit { "cache_hit" } else { "cache_miss" };
        self.push(
            kind,
            start_us,
            None,
            vec![
                ("batch".into(), Json::num(index as f64)),
                ("n".into(), Json::num(n as f64)),
                ("elem_bytes".into(), Json::num(elem_bytes as f64)),
                ("precision".into(), Json::str(precision)),
                ("m_total".into(), Json::num(m_total as f64)),
                (
                    "cids".into(),
                    Json::Arr(cids.iter().map(|&c| Json::num(c as f64)).collect()),
                ),
                ("isolated".into(), Json::Bool(isolated)),
                ("kernel_us".into(), Json::num(kernel_us)),
            ],
        );
        self.metrics
            .inc("cache", if cache_hit { "hit" } else { "miss" });
        self.metrics.inc(
            "batches",
            if isolated {
                "isolated"
            } else if cids.len() > 1 {
                "fused"
            } else {
                "solo"
            },
        );
        self.metrics.observe("kernel_us", precision, kernel_us);
        for dev in devices {
            let label = format!("dev{}", dev.device_index);
            self.push(
                "shard_dispatch",
                start_us,
                None,
                vec![
                    ("batch".into(), Json::num(index as f64)),
                    ("device".into(), Json::num(dev.device_index as f64)),
                    ("sys_count".into(), Json::num(dev.sys_count as f64)),
                ],
            );
            self.push(
                "shard_join",
                start_us + dev.completion_us,
                None,
                vec![
                    ("batch".into(), Json::num(index as f64)),
                    ("device".into(), Json::num(dev.device_index as f64)),
                    ("kernel_us".into(), Json::num(dev.kernel_us)),
                ],
            );
            self.metrics.inc("shards", &label);
            self.metrics
                .add_gauge("device_kernel_us", &label, dev.kernel_us);
        }
    }

    /// A response left a tick (called once per response, in the tick's
    /// slot order — the order [`ServiceReport::build`] will see).
    /// Records the terminal event and the attributed-time gauges whose
    /// additions [`Telemetry::cross_check`] replays.
    pub fn on_response(&mut self, r: &Response, precision: &'static str) {
        self.metrics
            .add_gauge("attributed_us", "queue", r.spans.queue_us);
        self.metrics
            .add_gauge("attributed_us", "coalesce", r.spans.coalesce_us);
        self.metrics
            .add_gauge("attributed_us", "kernel", r.spans.kernel_us);
        self.metrics
            .add_gauge("attributed_us", "scatter", r.spans.scatter_us);
        match &r.result {
            Ok(_) => {
                self.metrics.inc("requests", "completed");
                self.metrics
                    .observe("latency_us", precision, r.spans.latency_us());
                self.metrics
                    .observe("coalesce_batch_size", "all", r.coalesced_with as f64);
                self.push(
                    "completion",
                    r.completed_us,
                    Some(r.id),
                    vec![
                        (
                            "batch".into(),
                            r.batch.map_or(Json::Null, |b| Json::num(b as f64)),
                        ),
                        ("precision".into(), Json::str(precision)),
                        ("queue_us".into(), Json::num(r.spans.queue_us)),
                        ("coalesce_us".into(), Json::num(r.spans.coalesce_us)),
                        ("kernel_us".into(), Json::num(r.spans.kernel_us)),
                        ("scatter_us".into(), Json::num(r.spans.scatter_us)),
                        ("cache_hit".into(), Json::Bool(r.cache_hit)),
                        ("coalesced_with".into(), Json::num(r.coalesced_with as f64)),
                    ],
                );
            }
            Err(e) => {
                self.metrics.inc("requests", "failed");
                self.push(
                    "fault",
                    r.completed_us,
                    Some(r.id),
                    vec![
                        (
                            "batch".into(),
                            r.batch.map_or(Json::Null, |b| Json::num(b as f64)),
                        ),
                        ("error".into(), Json::str(e.to_string())),
                    ],
                );
            }
        }
    }

    /// A request bounced at admission (never enters a tick).
    pub fn on_reject(&mut self, id: u64, t_us: f64, err: &ServiceError) {
        let reason = match err {
            ServiceError::Overloaded { .. } => "overloaded",
            ServiceError::ShuttingDown => "shutting_down",
            _ => "invalid",
        };
        self.metrics.inc("requests", "rejected");
        self.metrics.inc("rejects", reason);
        self.push(
            "reject",
            t_us,
            Some(id),
            vec![("reason".into(), Json::str(reason))],
        );
    }

    /// Serialize the event log as JSONL: a header line carrying the
    /// schema, then one event per line, in recording order.
    pub fn to_jsonl(&self) -> String {
        let mut out = String::new();
        out.push_str(&Json::Obj(vec![("schema".into(), Json::str(EVENTS_SCHEMA))]).to_string());
        out.push('\n');
        for e in &self.events {
            out.push_str(&e.to_json().to_string());
            out.push('\n');
        }
        out
    }

    /// Derive the merged Chrome trace from the event log: one span per
    /// batch (tid 0), one track per device (`shard_dispatch`/`join`
    /// pairs), and a causally-linked coalesce → queue → kernel →
    /// scatter chain ([`CHAIN`]) per completed request, each span
    /// tagged with its cid.
    pub fn to_trace(&self, process: &str) -> Trace {
        let mut trace = Trace::new(process);
        let mut dispatches: Vec<(u64, u64, f64)> = Vec::new(); // (batch, device, t)
        for e in &self.events {
            let get_u64 = |key: &str| {
                e.to_json()
                    .get(key)
                    .and_then(Json::as_num)
                    .map(|v| v as u64)
            };
            match e.kind {
                "cache_hit" | "cache_miss" => {
                    let batch = get_u64("batch").unwrap_or(0);
                    let n = get_u64("n").unwrap_or(0);
                    let m = get_u64("m_total").unwrap_or(0);
                    let kernel_us = e
                        .to_json()
                        .get("kernel_us")
                        .and_then(Json::as_num)
                        .unwrap_or(0.0);
                    trace.span(
                        format!("batch[{batch}] n={n} m={m}"),
                        "service",
                        0,
                        e.t_us,
                        kernel_us,
                        vec![
                            ("cache_hit".into(), Json::Bool(e.kind == "cache_hit")),
                            (
                                "cids".into(),
                                e.to_json()
                                    .get("cids")
                                    .cloned()
                                    .unwrap_or(Json::Arr(vec![])),
                            ),
                        ],
                    );
                }
                "shard_dispatch" => {
                    let batch = get_u64("batch").unwrap_or(0);
                    let device = get_u64("device").unwrap_or(0);
                    dispatches.push((batch, device, e.t_us));
                }
                "shard_join" => {
                    let batch = get_u64("batch").unwrap_or(0);
                    let device = get_u64("device").unwrap_or(0);
                    if let Some(pos) = dispatches
                        .iter()
                        .position(|&(b, d, _)| b == batch && d == device)
                    {
                        let (_, _, start) = dispatches.remove(pos);
                        let kernel_us = e
                            .to_json()
                            .get("kernel_us")
                            .and_then(Json::as_num)
                            .unwrap_or(0.0);
                        trace.span(
                            format!("batch[{batch}]/dev{device}"),
                            "device",
                            DEVICE_TRACK_BASE + device as u32,
                            start,
                            e.t_us - start,
                            vec![("kernel_us".into(), Json::num(kernel_us))],
                        );
                    }
                }
                "completion" => {
                    let cid = e.cid.unwrap_or(0);
                    let doc = e.to_json();
                    let span_of = |key: &str| doc.get(key).and_then(Json::as_num).unwrap_or(0.0);
                    let (q, c, k, s) = (
                        span_of("queue_us"),
                        span_of("coalesce_us"),
                        span_of("kernel_us"),
                        span_of("scatter_us"),
                    );
                    let tid = request_track(cid);
                    let arrival = e.t_us - (q + c + k + s);
                    let mut cursor = arrival;
                    for (name, dur) in CHAIN.into_iter().zip([c, q, k, s]) {
                        trace.span(
                            format!("req[{cid}]/{name}"),
                            "request",
                            tid,
                            cursor,
                            dur,
                            vec![("cid".into(), Json::num(cid as f64))],
                        );
                        cursor += dur;
                    }
                }
                _ => {}
            }
        }
        trace
    }

    /// Bit-exact cross-check of the metrics against a finished report
    /// (the exact-partition invariant). Returns every discrepancy
    /// (empty = the accounting is exact):
    ///
    /// - each `attributed_us` gauge must equal the report's attributed
    ///   per-kind total **bit-exactly** (both are the same sequence of
    ///   f64 additions over the responses, in order);
    /// - completed / failed / admitted counters must match the report
    ///   totals, batch-level cache hit/miss counters the batch
    ///   summaries.
    pub fn cross_check(&self, report: &ServiceReport) -> Vec<String> {
        let mut problems = Vec::new();
        let att = &report.attributed;
        for (label, metric, reported) in [
            (
                "queue",
                self.metrics.gauge("attributed_us", "queue"),
                att.queue_us,
            ),
            (
                "coalesce",
                self.metrics.gauge("attributed_us", "coalesce"),
                att.coalesce_us,
            ),
            (
                "kernel",
                self.metrics.gauge("attributed_us", "kernel"),
                att.kernel_us,
            ),
            (
                "scatter",
                self.metrics.gauge("attributed_us", "scatter"),
                att.scatter_us,
            ),
        ] {
            if metric.to_bits() != reported.to_bits() {
                problems.push(format!(
                    "attributed_us/{label}: metric {metric} != report {reported} (bit-exact \
                     comparison)"
                ));
            }
        }
        let (completed, _rejected, failed) = report.totals();
        let pairs = [
            (
                "requests/completed",
                self.metrics.counter("requests", "completed"),
                completed as u64,
            ),
            (
                "requests/failed",
                self.metrics.counter("requests", "failed"),
                failed as u64,
            ),
        ];
        for (name, metric, reported) in pairs {
            if metric != reported {
                problems.push(format!("{name}: metric {metric} != report {reported}"));
            }
        }
        let batch_hits = report.batches.iter().filter(|b| b.cache_hit).count() as u64;
        let batch_misses = report.batches.len() as u64 - batch_hits;
        if self.metrics.counter("cache", "hit") != batch_hits {
            problems.push(format!(
                "cache/hit: metric {} != report {batch_hits}",
                self.metrics.counter("cache", "hit")
            ));
        }
        if self.metrics.counter("cache", "miss") != batch_misses {
            problems.push(format!(
                "cache/miss: metric {} != report {batch_misses}",
                self.metrics.counter("cache", "miss")
            ));
        }
        problems
    }
}

/// A request's span chain in the merged trace, in time order: it waits
/// inside the coalescing window ([`crate::RequestSpans::coalesce_us`]),
/// then for the device and the batches ahead of it in its tick
/// ([`crate::RequestSpans::queue_us`]), then runs and is scattered.
pub const CHAIN: [&str; 4] = ["coalesce", "queue", "kernel", "scatter"];

/// Track id base for per-device shard tracks in the merged trace
/// (request tracks use low ids derived from the cid).
pub const DEVICE_TRACK_BASE: u32 = 0x4000_0000;

/// The Chrome-trace track a request's span chain lives on.
pub fn request_track(cid: u64) -> u32 {
    (cid % (u32::MAX as u64 - 1)) as u32 + 1
}

/// What a replayed event log proved.
#[derive(Debug, Clone, Default, PartialEq, Eq)]
pub struct ReplaySummary {
    /// Cids with an admission event, in first-seen order.
    pub admitted: Vec<u64>,
    /// Admitted cids that completed.
    pub completed: Vec<u64>,
    /// Admitted cids that faulted.
    pub faulted: Vec<u64>,
    /// Cids bounced at admission.
    pub rejected: Vec<u64>,
}

/// Replay a serialized event log (the [`Telemetry::to_jsonl`] format)
/// and prove the lifecycle invariants. Returns the [`ReplaySummary`]
/// when the log is coherent, or every violation found:
///
/// - the header line must carry schema [`EVENTS_SCHEMA`]; every line
///   must parse strictly with a known event kind and finite `t_us`;
/// - at most one `admission` per cid; **exactly one** terminal
///   (`completion` | `fault`) per admitted cid, at `t >=` admission;
/// - terminals without admission (orphans) and duplicate terminals are
///   violations; `reject` cids must have no other events;
/// - `coalesce_open`/`coalesce_close` pair per tick in order;
///   `shard_join` requires a matching `shard_dispatch`;
/// - every completed cid appears in exactly one batch's
///   `cache_hit`/`cache_miss` member list.
pub fn validate_event_log(text: &str) -> Result<ReplaySummary, Vec<String>> {
    use std::collections::BTreeMap;
    let mut problems = Vec::new();
    let mut lines = text.lines().enumerate();
    match lines.next() {
        Some((_, header)) => match parse(header) {
            Ok(doc) => {
                let mut c = Check::new(&doc);
                c.schema(EVENTS_SCHEMA);
                problems.extend(c.finish().into_iter().map(|p| format!("header: {p}")));
            }
            Err(e) => problems.push(format!("header: {e}")),
        },
        None => problems.push("empty event log (missing header line)".into()),
    }

    #[derive(Default, Clone, Copy)]
    struct Lifecycle {
        admitted_at: Option<f64>,
        terminals: u32,
        completed: bool,
        rejected: bool,
        batches: u32,
    }
    fn entry<'m>(
        life: &'m mut BTreeMap<u64, Lifecycle>,
        order: &mut Vec<u64>,
        cid: u64,
    ) -> &'m mut Lifecycle {
        life.entry(cid).or_insert_with(|| {
            order.push(cid);
            Lifecycle::default()
        })
    }
    let mut life: BTreeMap<u64, Lifecycle> = BTreeMap::new();
    let mut order: Vec<u64> = Vec::new();
    let mut open_ticks: Vec<u64> = Vec::new();
    let mut last_tick: Option<u64> = None;
    let mut pending_dispatch: Vec<(u64, u64)> = Vec::new();

    for (lineno, line) in lines {
        if line.trim().is_empty() {
            continue;
        }
        let doc = match parse(line) {
            Ok(d) => d,
            Err(e) => {
                problems.push(format!("line {}: {e}", lineno + 1));
                continue;
            }
        };
        let mut c = Check::with_ctx(&doc, format!("line {}: ", lineno + 1));
        let kind = c.str_enum("event", EVENT_KINDS).unwrap_or("");
        let t = c.num_ge("t_us", 0.0).unwrap_or(0.0);
        let cid = doc.get("cid").and_then(Json::as_num).map(|v| v as u64);
        match kind {
            "admission" => {
                c.req_uints(&["m", "n"]);
                c.req_str("precision");
                match cid {
                    Some(cid) => {
                        let l = entry(&mut life, &mut order, cid);
                        if l.admitted_at.is_some() {
                            c.problem(format!("duplicate admission for cid {cid}"));
                        }
                        l.admitted_at = Some(t);
                    }
                    None => c.problem("admission without cid"),
                }
            }
            "completion" | "fault" => match cid {
                Some(cid) => {
                    let l = entry(&mut life, &mut order, cid);
                    let completed = kind == "completion";
                    match l.admitted_at {
                        None => {
                            c.problem(format!("orphan {kind} for cid {cid} (no admission event)"))
                        }
                        Some(at) if t < at => c.problem(format!(
                            "{kind} for cid {cid} at t {t} precedes its admission at {at}"
                        )),
                        Some(_) => {}
                    }
                    if l.terminals > 0 {
                        c.problem(format!("duplicate terminal event for cid {cid}"));
                    }
                    l.terminals += 1;
                    l.completed = completed;
                }
                None => c.problem(format!("{kind} without cid")),
            },
            // Threaded-path bounces carry no id, so a cid-less reject
            // is legal and leaves no lifecycle entry.
            "reject" => {
                if let Some(cid) = cid {
                    let l = entry(&mut life, &mut order, cid);
                    if l.admitted_at.is_some() || l.terminals > 0 {
                        c.problem(format!("cid {cid} has both a reject and lifecycle events"));
                    }
                    l.rejected = true;
                }
            }
            "coalesce_open" => {
                if let Some(tick) = c.req_uint("tick") {
                    if let Some(last) = last_tick {
                        c.ensure(
                            tick > last,
                            format!("tick {tick} does not increase past {last}"),
                        );
                    }
                    last_tick = Some(tick);
                    open_ticks.push(tick);
                }
            }
            "coalesce_close" => {
                if let Some(tick) = c.req_uint("tick") {
                    match open_ticks.pop() {
                        Some(open) if open == tick => {}
                        _ => c.problem(format!("coalesce_close for tick {tick} without open")),
                    }
                }
            }
            "cache_hit" | "cache_miss" => {
                c.req_uints(&["batch", "n", "elem_bytes", "m_total"]);
                for member in c.req_arr("cids") {
                    match member.as_num() {
                        Some(v) => {
                            let l = entry(&mut life, &mut order, v as u64);
                            l.batches += 1;
                        }
                        None => c.problem("non-numeric cid in batch member list"),
                    }
                }
            }
            "shard_dispatch" => {
                if let (Some(b), Some(d)) = (c.req_uint("batch"), c.req_uint("device")) {
                    pending_dispatch.push((b, d));
                }
            }
            "shard_join" => {
                if let (Some(b), Some(d)) = (c.req_uint("batch"), c.req_uint("device")) {
                    match pending_dispatch.iter().position(|&p| p == (b, d)) {
                        Some(pos) => {
                            pending_dispatch.remove(pos);
                        }
                        None => c.problem(format!(
                            "shard_join for batch {b} device {d} without dispatch"
                        )),
                    }
                }
            }
            _ => {} // unknown kind already recorded by str_enum
        }
        problems.extend(c.finish());
    }

    for tick in &open_ticks {
        problems.push(format!("coalesce_open for tick {tick} never closed"));
    }
    for (b, d) in &pending_dispatch {
        problems.push(format!(
            "shard_dispatch for batch {b} device {d} never joined"
        ));
    }

    let mut summary = ReplaySummary::default();
    for cid in order {
        let l = life[&cid];
        if l.rejected {
            summary.rejected.push(cid);
            continue;
        }
        if l.admitted_at.is_some() {
            summary.admitted.push(cid);
            match l.terminals {
                0 => problems.push(format!("admitted cid {cid} has no terminal event")),
                1 => {
                    if l.completed {
                        summary.completed.push(cid);
                        if l.batches != 1 {
                            problems.push(format!(
                                "completed cid {cid} appears in {} batch member lists, \
                                 expected exactly 1",
                                l.batches
                            ));
                        }
                    } else {
                        summary.faulted.push(cid);
                    }
                }
                _ => {} // duplicate already reported at the line
            }
        } else if l.batches > 0 {
            problems.push(format!(
                "cid {cid} appears in a batch member list but was never admitted"
            ));
        }
    }

    if problems.is_empty() {
        Ok(summary)
    } else {
        Err(problems)
    }
}

/// Validate the per-request span chains of a merged Chrome trace (the
/// [`Telemetry::to_trace`] format). Every
/// cat-`"request"` span must carry a numeric `cid` argument; per cid
/// there must be exactly one chain of four spans — coalesce, queue,
/// kernel, scatter, in that order ([`CHAIN`]), on one track — whose
/// spans tile `[arrival, completion]` **exactly** (`ts[i+1] == ts[i] + dur[i]`,
/// bit-exact on the parsed values). Returns the chained cids (sorted)
/// or every violation.
pub fn validate_request_chains(trace_text: &str) -> Result<Vec<u64>, Vec<String>> {
    use std::collections::BTreeMap;
    let doc = match parse(trace_text) {
        Ok(d) => d,
        Err(e) => return Err(vec![e.to_string()]),
    };
    let Some(events) = doc.get("traceEvents").and_then(Json::as_arr) else {
        return Err(vec!["top-level object has no \"traceEvents\" array".into()]);
    };
    // cid -> (tid, name, ts, dur), in document (= ts-sorted) order.
    let mut chains: BTreeMap<u64, Vec<(u64, String, f64, f64)>> = BTreeMap::new();
    let mut problems = Vec::new();
    for (i, e) in events.iter().enumerate() {
        if e.get("cat").and_then(Json::as_str) != Some("request") {
            continue;
        }
        let mut c = Check::with_ctx(e, format!("request span {i}: "));
        let name = c.req_str("name").unwrap_or("").to_string();
        let ts = c.req_num("ts").unwrap_or(0.0);
        let dur = c.req_num("dur").unwrap_or(0.0);
        let tid = c.req_uint("tid").unwrap_or(0);
        let cid = match e
            .get("args")
            .and_then(|a| a.get("cid"))
            .and_then(Json::as_num)
        {
            Some(v) => v as u64,
            None => {
                c.problem("missing numeric args.cid");
                problems.extend(c.finish());
                continue;
            }
        };
        problems.extend(c.finish());
        chains.entry(cid).or_default().push((tid, name, ts, dur));
    }
    for (cid, spans) in &chains {
        if spans.len() != 4 {
            problems.push(format!(
                "cid {cid}: {} request spans, expected exactly 4 (one chain)",
                spans.len()
            ));
            continue;
        }
        let tid = spans[0].0;
        if spans.iter().any(|s| s.0 != tid) {
            problems.push(format!("cid {cid}: chain spans spread across tracks"));
        }
        for (idx, stage) in CHAIN.iter().enumerate() {
            let expected = format!("req[{cid}]/{stage}");
            if spans[idx].1 != expected {
                problems.push(format!(
                    "cid {cid}: span {idx} is {:?}, expected {expected:?}",
                    spans[idx].1
                ));
            }
        }
        for w in spans.windows(2) {
            let (_, _, ts0, dur0) = w[0];
            let (_, ref name1, ts1, _) = w[1];
            if (ts0 + dur0).to_bits() != ts1.to_bits() {
                problems.push(format!(
                    "cid {cid}: chain breaks before {name1:?}: {ts0} + {dur0} != {ts1}"
                ));
            }
        }
    }
    if problems.is_empty() {
        Ok(chains.keys().copied().collect())
    } else {
        Err(problems)
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn empty_log_validates_with_empty_summary() {
        let t = Telemetry::new();
        let summary = validate_event_log(&t.to_jsonl()).unwrap();
        assert_eq!(summary, ReplaySummary::default());
    }

    #[test]
    fn replay_rejects_orphan_and_duplicate_terminals() {
        let mut t = Telemetry::new();
        t.push("completion", 5.0, Some(7), vec![]);
        let errs = validate_event_log(&t.to_jsonl()).unwrap_err();
        assert!(errs.iter().any(|p| p.contains("orphan")), "{errs:?}");

        let mut t = Telemetry::new();
        t.push(
            "admission",
            0.0,
            Some(7),
            vec![
                ("m".into(), Json::num(1)),
                ("n".into(), Json::num(64)),
                ("precision".into(), Json::str("f64")),
            ],
        );
        t.push("completion", 5.0, Some(7), vec![]);
        t.push("completion", 6.0, Some(7), vec![]);
        let errs = validate_event_log(&t.to_jsonl()).unwrap_err();
        assert!(
            errs.iter().any(|p| p.contains("duplicate terminal")),
            "{errs:?}"
        );
    }

    #[test]
    fn replay_rejects_missing_terminal_and_bad_header() {
        let mut t = Telemetry::new();
        t.push(
            "admission",
            0.0,
            Some(3),
            vec![
                ("m".into(), Json::num(1)),
                ("n".into(), Json::num(64)),
                ("precision".into(), Json::str("f32")),
            ],
        );
        let errs = validate_event_log(&t.to_jsonl()).unwrap_err();
        assert!(errs.iter().any(|p| p.contains("no terminal")), "{errs:?}");

        let errs = validate_event_log("{\"schema\":\"bogus/v9\"}\n").unwrap_err();
        assert!(errs[0].starts_with("header:"), "{errs:?}");
    }

    /// A request that waits out its window and then the device is drawn
    /// coalesce first, and a chain in any other order is refused.
    #[test]
    fn chains_draw_the_waits_in_the_order_they_happen() {
        let mut t = Telemetry::new();
        let spans = [
            ("queue_us", 10.0),
            ("coalesce_us", 8.0),
            ("kernel_us", 20.0),
            ("scatter_us", 2.0),
        ];
        let args = spans.map(|(k, v)| (k.to_string(), Json::num(v))).to_vec();
        t.push("completion", 50.0, Some(3), args);
        let trace = t.to_trace("chains");
        let chain: Vec<(String, f64, f64)> = trace
            .events
            .iter()
            .filter(|e| e.cat == "request")
            .map(|e| (e.name.clone(), e.ts_us, e.dur_us))
            .collect();
        assert_eq!(
            chain,
            [
                ("req[3]/coalesce".into(), 10.0, 8.0),
                ("req[3]/queue".into(), 18.0, 10.0),
                ("req[3]/kernel".into(), 28.0, 20.0),
                ("req[3]/scatter".into(), 48.0, 2.0),
            ]
        );
        assert_eq!(
            validate_request_chains(&trace.to_chrome_json()),
            Ok(vec![3])
        );

        let mut swapped = Trace::new("swapped");
        let mut ts = 10.0;
        for (name, dur) in [
            ("queue", 10.0),
            ("coalesce", 8.0),
            ("kernel", 20.0),
            ("scatter", 2.0),
        ] {
            let args = vec![("cid".into(), Json::num(3))];
            swapped.span(format!("req[3]/{name}"), "request", 4, ts, dur, args);
            ts += dur;
        }
        let errs = validate_request_chains(&swapped.to_chrome_json()).unwrap_err();
        assert!(
            errs.iter()
                .any(|p| p.contains("span 0 is \"req[3]/queue\"")),
            "{errs:?}"
        );
    }

    #[test]
    fn request_track_is_stable_and_nonzero() {
        assert_eq!(request_track(0), 1);
        assert_ne!(request_track(17), 0);
        assert_eq!(request_track(17), request_track(17));
    }
}
