//! Span/event trace recorder with a Chrome-trace exporter.
//!
//! The observability layer's data model: a [`Trace`] is a flat list of
//! timestamped events on a modeled-time axis (microseconds, the same
//! unit [`crate::timing`] produces). Two event kinds cover everything
//! the solver pipeline needs:
//!
//! - **spans** (`ph: "X"` complete events) for anything with duration —
//!   a whole solve, one kernel launch, one phase inside a kernel;
//!   hierarchy is expressed by containment (Perfetto nests `X` events
//!   on the same track by `ts`/`dur` nesting);
//! - **instants** (`ph: "i"`) for decisions — the transition rule's
//!   choice of `k`, the grid-mapping choice, buffer setup — with their
//!   inputs attached as `args`.
//!
//! [`Trace::to_chrome_json`] serializes to the Chrome trace-event JSON
//! object format (`{"traceEvents": [...]}`), loadable in
//! `chrome://tracing` and Perfetto. [`validate_chrome_json`] is the
//! schema gate used by tests and the CLI profile smoke run: it parses
//! with [`crate::json`] and checks event-array well-formedness,
//! monotonic timestamps, and `B`/`E` pairing.

use crate::json::schema::Check;
use crate::json::{parse, Json};

/// Event kind, mapped to a Chrome trace-event `ph` value on export.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum EventKind {
    /// A span with duration (`ph: "X"`).
    Complete,
    /// A zero-duration marker (`ph: "i"`).
    Instant,
}

/// One trace event on the modeled-time axis.
#[derive(Debug, Clone, PartialEq)]
pub struct TraceEvent {
    /// Event name (span or marker label).
    pub name: String,
    /// Category string (Chrome `cat`), used for filtering in the UI —
    /// e.g. `"solver"`, `"kernel"`, `"phase"`.
    pub cat: &'static str,
    /// Kind (span vs instant).
    pub kind: EventKind,
    /// Start timestamp in modeled microseconds.
    pub ts_us: f64,
    /// Duration in modeled microseconds (0 for instants).
    pub dur_us: f64,
    /// Track id (Chrome `tid`); events on one track nest by containment.
    pub tid: u32,
    /// Structured arguments shown in the UI's detail pane.
    pub args: Vec<(String, Json)>,
}

/// An in-memory trace: named process plus events.
#[derive(Debug, Clone, PartialEq, Default)]
pub struct Trace {
    /// Process name shown in the viewer.
    pub process: String,
    /// Events, in the order they were recorded.
    pub events: Vec<TraceEvent>,
}

impl Trace {
    /// Empty trace for `process`.
    pub fn new(process: impl Into<String>) -> Self {
        Self {
            process: process.into(),
            events: Vec::new(),
        }
    }

    /// Record a span (complete event) on track `tid`.
    pub fn span(
        &mut self,
        name: impl Into<String>,
        cat: &'static str,
        tid: u32,
        ts_us: f64,
        dur_us: f64,
        args: Vec<(String, Json)>,
    ) {
        self.events.push(TraceEvent {
            name: name.into(),
            cat,
            kind: EventKind::Complete,
            ts_us,
            dur_us: dur_us.max(0.0),
            tid,
            args,
        });
    }

    /// Record an instant marker on track `tid`.
    pub fn instant(
        &mut self,
        name: impl Into<String>,
        cat: &'static str,
        tid: u32,
        ts_us: f64,
        args: Vec<(String, Json)>,
    ) {
        self.events.push(TraceEvent {
            name: name.into(),
            cat,
            kind: EventKind::Instant,
            ts_us,
            dur_us: 0.0,
            tid,
            args,
        });
    }

    /// `true` when nothing was recorded.
    pub fn is_empty(&self) -> bool {
        self.events.is_empty()
    }

    /// Export as a Chrome trace-event JSON object
    /// (`{"traceEvents": [...]}`). Events are sorted by timestamp
    /// (stable, so same-`ts` parents stay ahead of their children) and
    /// prefixed with a process-name metadata record; timestamps are in
    /// microseconds as the format requires.
    pub fn to_chrome_json(&self) -> String {
        let mut order: Vec<usize> = (0..self.events.len()).collect();
        order.sort_by(|&a, &b| {
            self.events[a]
                .ts_us
                .partial_cmp(&self.events[b].ts_us)
                .unwrap_or(std::cmp::Ordering::Equal)
        });
        let mut events = Vec::with_capacity(self.events.len() + 1);
        events.push(Json::Obj(vec![
            ("name".into(), Json::str("process_name")),
            ("ph".into(), Json::str("M")),
            ("pid".into(), Json::num(1)),
            ("tid".into(), Json::num(0)),
            (
                "args".into(),
                Json::Obj(vec![("name".into(), Json::str(self.process.clone()))]),
            ),
        ]));
        for &i in &order {
            let e = &self.events[i];
            let mut fields = vec![
                ("name".into(), Json::str(e.name.clone())),
                ("cat".into(), Json::str(e.cat)),
                (
                    "ph".into(),
                    Json::str(match e.kind {
                        EventKind::Complete => "X",
                        EventKind::Instant => "i",
                    }),
                ),
                ("ts".into(), Json::num(e.ts_us)),
                ("pid".into(), Json::num(1)),
                ("tid".into(), Json::num(e.tid)),
            ];
            if e.kind == EventKind::Complete {
                fields.insert(4, ("dur".into(), Json::num(e.dur_us)));
            } else {
                fields.push(("s".into(), Json::str("t")));
            }
            if !e.args.is_empty() {
                fields.push(("args".into(), Json::Obj(e.args.clone())));
            }
            events.push(Json::Obj(fields));
        }
        Json::Obj(vec![
            ("traceEvents".into(), Json::Arr(events)),
            ("displayTimeUnit".into(), Json::str("ns")),
        ])
        .to_string()
    }
}

fn event_problems(
    i: usize,
    e: &Json,
    last_ts: &mut f64,
    open: &mut Vec<(f64, String)>,
    out: &mut Vec<String>,
) {
    let mut c = Check::with_ctx(e, format!("event {i}: "));
    let Some(ph) = c.req_str("ph") else {
        out.extend(c.finish());
        return;
    };
    if ph == "M" {
        return; // metadata records carry no timestamp
    }
    c.req_str("name");
    let Some(ts) = c.req_num("ts") else {
        out.extend(c.finish());
        return;
    };
    c.ensure(
        ts.is_finite() && ts >= 0.0,
        format!("ts {ts} is not a finite non-negative number"),
    );
    c.ensure(
        ts >= *last_ts,
        format!("ts {ts} decreases below {}", *last_ts),
    );
    *last_ts = last_ts.max(ts);
    match ph {
        "X" => match e.get("dur").and_then(Json::as_num) {
            Some(d) if d.is_finite() && d >= 0.0 => {}
            _ => c.problem("X event needs finite non-negative \"dur\""),
        },
        "B" => {
            let name = e.get("name").and_then(Json::as_str).unwrap_or("");
            open.push((ts, name.to_string()));
        }
        "E" => {
            if open.pop().is_none() {
                c.problem("E event without matching B");
            }
        }
        "i" | "I" => {}
        other => c.problem(format!("unknown ph {other:?}")),
    }
    out.extend(c.finish());
}

/// Validate a Chrome trace-event JSON document: it must parse, expose
/// an event array (top-level array or a `traceEvents` field), and
/// every event must be well-formed — string `name`/`ph`, finite
/// non-negative monotonically non-decreasing `ts`, `dur` on `X`
/// events, matched `B`/`E` pairs. Returns every problem found (empty =
/// valid).
pub fn validate_chrome_json(text: &str) -> Result<(), Vec<String>> {
    let doc = match parse(text) {
        Ok(d) => d,
        Err(e) => return Err(vec![e.to_string()]),
    };
    let events = match &doc {
        Json::Arr(items) => items.as_slice(),
        obj @ Json::Obj(_) => match obj.get("traceEvents").and_then(Json::as_arr) {
            Some(items) => items,
            None => return Err(vec!["top-level object has no \"traceEvents\" array".into()]),
        },
        _ => return Err(vec!["top level is neither an array nor an object".into()]),
    };
    let mut out = Vec::new();
    let mut last_ts = 0.0f64;
    let mut open: Vec<(f64, String)> = Vec::new();
    for (i, e) in events.iter().enumerate() {
        if !matches!(e, Json::Obj(_)) {
            out.push(format!("event {i}: not an object"));
            continue;
        }
        event_problems(i, e, &mut last_ts, &mut open, &mut out);
    }
    for (ts, name) in &open {
        out.push(format!("B event {name:?} at ts {ts} never closed"));
    }
    if out.is_empty() {
        Ok(())
    } else {
        Err(out)
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn sample() -> Trace {
        let mut t = Trace::new("test-solver");
        t.span(
            "solve",
            "solver",
            0,
            0.0,
            100.0,
            vec![("k".into(), Json::num(3))],
        );
        t.instant(
            "transition",
            "solver",
            0,
            0.0,
            vec![
                ("m".into(), Json::num(64)),
                ("policy".into(), Json::str("heuristic")),
            ],
        );
        t.span("launch:tiled_pcr", "kernel", 0, 0.0, 60.0, vec![]);
        t.span("phase:window_load", "phase", 0, 5.0, 20.0, vec![]);
        t.span("launch:p_thomas", "kernel", 0, 60.0, 40.0, vec![]);
        t
    }

    #[test]
    fn export_validates_and_round_trips() {
        let text = sample().to_chrome_json();
        validate_chrome_json(&text).unwrap();
        let doc = parse(&text).unwrap();
        let events = doc.get("traceEvents").unwrap().as_arr().unwrap();
        // metadata + 5 recorded events
        assert_eq!(events.len(), 6);
        // Sorted by ts and stable: solve span leads.
        assert_eq!(events[1].get("name").unwrap().as_str(), Some("solve"));
        assert_eq!(events[1].get("ph").unwrap().as_str(), Some("X"));
        assert_eq!(events[1].get("dur").unwrap().as_num(), Some(100.0));
        // Re-serialize → identical text (determinism).
        assert_eq!(doc.to_string(), text);
    }

    #[test]
    fn events_are_sorted_monotonically() {
        let mut t = Trace::new("x");
        t.span("late", "kernel", 0, 50.0, 10.0, vec![]);
        t.span("early", "kernel", 0, 1.0, 10.0, vec![]);
        let text = t.to_chrome_json();
        validate_chrome_json(&text).unwrap();
        let doc = parse(&text).unwrap();
        let events = doc.get("traceEvents").unwrap().as_arr().unwrap();
        assert_eq!(events[1].get("name").unwrap().as_str(), Some("early"));
    }

    #[test]
    fn validator_catches_schema_violations() {
        // Not JSON at all.
        assert!(validate_chrome_json("not json").is_err());
        // No event array.
        assert!(validate_chrome_json("{\"foo\":1}").is_err());
        // X without dur.
        let bad = r#"[{"name":"a","ph":"X","ts":0,"pid":1,"tid":0}]"#;
        let errs = validate_chrome_json(bad).unwrap_err();
        assert!(errs[0].contains("dur"), "{errs:?}");
        // Decreasing ts.
        let bad = r#"[{"name":"a","ph":"i","ts":5,"s":"t"},{"name":"b","ph":"i","ts":2,"s":"t"}]"#;
        assert!(validate_chrome_json(bad).is_err());
        // Unmatched B.
        let bad = r#"[{"name":"a","ph":"B","ts":0}]"#;
        let errs = validate_chrome_json(bad).unwrap_err();
        assert!(errs[0].contains("never closed"), "{errs:?}");
        // E without B.
        let bad = r#"[{"name":"a","ph":"E","ts":0}]"#;
        assert!(validate_chrome_json(bad).is_err());
        // Matched B/E pass.
        let ok = r#"[{"name":"a","ph":"B","ts":0},{"name":"a","ph":"E","ts":3}]"#;
        validate_chrome_json(ok).unwrap();
    }

    #[test]
    fn negative_duration_is_clamped_on_record() {
        let mut t = Trace::new("x");
        t.span("s", "kernel", 0, 0.0, -5.0, vec![]);
        assert_eq!(t.events[0].dur_us, 0.0);
        validate_chrome_json(&t.to_chrome_json()).unwrap();
    }
}
