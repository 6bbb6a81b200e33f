//! Host-clock spans recorded around the benchmark's calls into each
//! layer. Spans are kept in memory and exported as a Chrome trace when
//! the run ends.

use std::time::Instant;

use gpu_sim::trace::Trace;
use gpu_sim::Json;

#[derive(Debug, Clone)]
pub struct Span {
    pub name: &'static str,
    /// Index of the op (or service session) the span belongs to.
    pub op: usize,
    pub parent: Option<usize>,
    pub start_ns: u64,
    pub end_ns: u64,
}

impl Span {
    pub fn dur_ns(&self) -> u64 {
        self.end_ns - self.start_ns
    }
}

pub struct Spans {
    t0: Instant,
    pub spans: Vec<Span>,
}

impl Spans {
    pub fn new() -> Spans {
        Spans {
            t0: Instant::now(),
            spans: Vec::new(),
        }
    }

    fn now_ns(&self) -> u64 {
        self.t0.elapsed().as_nanos() as u64
    }

    pub fn begin(&mut self, name: &'static str, op: usize, parent: Option<usize>) -> usize {
        let start_ns = self.now_ns();
        self.spans.push(Span {
            name,
            op,
            parent,
            start_ns,
            end_ns: start_ns,
        });
        self.spans.len() - 1
    }

    pub fn end(&mut self, id: usize) {
        self.spans[id].end_ns = self.now_ns();
    }

    /// Every span's duration minus the durations of its direct children
    /// (children run one after another inside their parent).
    pub fn self_ns(&self) -> Vec<u64> {
        let mut out: Vec<u64> = self.spans.iter().map(Span::dur_ns).collect();
        for s in &self.spans {
            if let Some(p) = s.parent {
                out[p] -= s.dur_ns();
            }
        }
        out
    }

    /// One Chrome-trace track (`tid`) holding every span; each event
    /// names its op and parent.
    pub fn to_trace(&self, process: &str, tid: u32) -> Trace {
        let mut trace = Trace::new(process);
        for s in &self.spans {
            let mut args = vec![("op".to_string(), Json::num(s.op as f64))];
            if let Some(p) = s.parent {
                args.push(("parent".into(), Json::str(self.spans[p].name)));
            }
            trace.span(
                s.name,
                "host",
                tid,
                s.start_ns as f64 / 1e3,
                s.dur_ns() as f64 / 1e3,
                args,
            );
        }
        trace
    }
}

/// Run `f` inside a span named `name` when tracing, or bare when not.
pub fn layer<T>(
    spans: &mut Option<Spans>,
    name: &'static str,
    op: usize,
    parent: Option<usize>,
    f: impl FnOnce() -> T,
) -> T {
    match spans {
        None => f(),
        Some(s) => {
            let id = s.begin(name, op, parent);
            let out = f();
            s.end(id);
            out
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn span(name: &'static str, parent: Option<usize>, start_ns: u64, end_ns: u64) -> Span {
        Span {
            name,
            op: 0,
            parent,
            start_ns,
            end_ns,
        }
    }

    #[test]
    fn self_time_is_span_minus_children() {
        let spans = Spans {
            t0: Instant::now(),
            spans: vec![
                span("op", None, 0, 100),
                span("plan", Some(0), 5, 20),
                span("run", Some(0), 20, 90),
                span("inner", Some(2), 30, 40),
                span("probe", None, 100, 130),
            ],
        };
        let own = spans.self_ns();
        assert_eq!(own, vec![100 - 15 - 70, 15, 70 - 10, 10, 30]);
        // Self times of a span and all its descendants tile the span.
        assert_eq!(own[0] + own[1] + own[2] + own[3], 100);
    }

    #[test]
    fn recorded_spans_nest_and_export_as_a_valid_chrome_trace() {
        let mut tracer = Some(Spans::new());
        let op = tracer.as_mut().map(|s| s.begin("op", 0, None));
        let x = layer(&mut tracer, "child", 0, op, || 6 * 7);
        let s = tracer.as_mut().expect("tracing is on");
        s.end(op.expect("tracing is on"));
        assert_eq!(x, 42);
        assert_eq!(s.spans[1].parent, Some(0));
        assert!(s.spans[0].start_ns <= s.spans[1].start_ns);
        assert!(s.spans[1].end_ns <= s.spans[0].end_ns);
        let text = s.to_trace("test", 3).to_chrome_json();
        gpu_sim::validate_chrome_json(&text).expect("valid trace");
        assert_eq!(layer(&mut None, "bare", 0, None, || 1), 1);
    }
}
