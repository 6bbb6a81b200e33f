//! The run's outputs: one `workload metric value unit` line per metric,
//! the JSON result file (`tridiag.benchmark_result/v1`), and the final
//! one-line summary. Every document is validated before it is written.

use gpu_sim::json::schema::Check;
use gpu_sim::Json;

use crate::metrics::{Clock, Metrics};
use crate::workload::Workload;

pub const RESULT_SCHEMA: &str = "tridiag.benchmark_result/v1";

pub struct Outcome {
    pub workload: Workload,
    /// Ops (service: requests) issued.
    pub attempted: usize,
    /// Typed errors, rejections and wrong answers.
    pub failed: usize,
    /// No answer that came back failed its checks.
    pub correct: bool,
    pub metrics: Metrics,
}

pub fn text(o: &Outcome) -> String {
    o.metrics
        .0
        .iter()
        .map(|m| format!("{} {} {} {}\n", o.workload.name(), m.name, m.value, m.unit))
        .collect()
}

/// Workload → metric → `{value, unit, clock, samples}`.
pub fn result_json(seed: u64, seconds: f64, trace: bool, outcomes: &[Outcome]) -> Json {
    let workloads = outcomes
        .iter()
        .map(|o| {
            let metrics = o
                .metrics
                .0
                .iter()
                .map(|m| {
                    let fields = vec![
                        ("value".to_string(), Json::num(m.value)),
                        ("unit".to_string(), Json::str(m.unit)),
                        ("clock".to_string(), Json::str(m.clock.name())),
                        ("samples".to_string(), Json::num(m.samples as f64)),
                    ];
                    (m.name.clone(), Json::Obj(fields))
                })
                .collect();
            let fields = vec![
                ("attempted".to_string(), Json::num(o.attempted as f64)),
                ("failed".to_string(), Json::num(o.failed as f64)),
                ("correct".to_string(), Json::Bool(o.correct)),
                ("metrics".to_string(), Json::Obj(metrics)),
            ];
            (o.workload.name().to_string(), Json::Obj(fields))
        })
        .collect();
    Json::Obj(vec![
        ("schema".into(), Json::str(RESULT_SCHEMA)),
        ("seed".into(), Json::num(seed as f64)),
        ("seconds".into(), Json::num(seconds)),
        ("trace".into(), Json::Bool(trace)),
        ("workloads".into(), Json::Obj(workloads)),
    ])
}

fn fields(doc: &Json) -> &[(String, Json)] {
    match doc {
        Json::Obj(fields) => fields,
        _ => &[],
    }
}

/// Every problem with a `tridiag.benchmark_result/v1` document.
pub fn validate_result(doc: &Json) -> Vec<String> {
    let mut c = Check::new(doc);
    c.schema(RESULT_SCHEMA);
    c.req_uint("seed");
    c.num_ge("seconds", 0.0);
    c.req_bool("trace");
    let workloads = c.req_obj("workloads").map(fields).unwrap_or(&[]);
    c.ensure(!workloads.is_empty(), "no workloads");
    for (name, w) in workloads {
        let mut wc = c.child(w, format!("{name}: "));
        wc.ensure(Workload::parse(name).is_some(), "unknown workload");
        let attempted = wc.req_uint("attempted");
        let failed = wc.req_uint("failed");
        if let (Some(a), Some(f)) = (attempted, failed) {
            wc.ensure(a >= 1 && f <= a, format!("failed {f} of {a} attempted"));
        }
        wc.req_bool("correct");
        for (metric, m) in wc.req_obj("metrics").map(fields).unwrap_or(&[]) {
            let mut mc = wc.child(m, format!("{metric}: "));
            if let Some(v) = mc.req_num("value") {
                mc.ensure(v.is_finite(), "value is not finite");
            }
            mc.req_str("unit");
            mc.str_enum("clock", &Clock::NAMES);
            mc.req_uint("samples");
            wc.absorb(mc);
        }
        c.absorb(wc);
    }
    c.finish()
}

/// The final stdout line: exactly the `declared` metrics.
pub fn summary_line(o: &Outcome, declared: &[(&str, &str)]) -> Result<String, String> {
    let mut metrics = Vec::with_capacity(declared.len());
    for (name, unit) in declared {
        let m = o
            .metrics
            .get(name)
            .ok_or_else(|| format!("{}: metric {name} was not measured", o.workload.name()))?;
        if !m.value.is_finite() || m.unit != *unit {
            return Err(format!(
                "{}: metric {name} reads {} {}",
                o.workload.name(),
                m.value,
                m.unit
            ));
        }
        let fields = vec![
            ("value".to_string(), Json::num(m.value)),
            ("unit".to_string(), Json::str(m.unit)),
        ];
        metrics.push((name.to_string(), Json::Obj(fields)));
    }
    Ok(Json::Obj(vec![
        ("correct".into(), Json::Bool(o.correct)),
        ("attempted".into(), Json::num(o.attempted as f64)),
        ("failed".into(), Json::num(o.failed as f64)),
        ("metrics".into(), Json::Obj(metrics)),
    ])
    .to_string())
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::metrics::END_TO_END;

    fn outcome() -> Outcome {
        let mut metrics = Metrics::default();
        for (name, unit) in END_TO_END {
            metrics.extra(name, 1.25, unit, Clock::Host, 3);
        }
        Outcome {
            workload: Workload::WideBatch,
            attempted: 4,
            failed: 0,
            correct: true,
            metrics,
        }
    }

    #[test]
    fn result_documents_validate() {
        let doc = result_json(1, 10.0, false, &[outcome()]);
        assert_eq!(validate_result(&doc), Vec::<String>::new());
        let text = doc.to_string();
        let reparsed = gpu_sim::json::parse(&text).expect("valid JSON");
        assert_eq!(validate_result(&reparsed), Vec::<String>::new());
    }

    #[test]
    fn broken_result_documents_are_caught() {
        let mut bad = outcome();
        bad.metrics.0[0].value = f64::NAN;
        bad.failed = 9;
        let problems = validate_result(&result_json(1, 10.0, false, &[bad]));
        assert_eq!(problems.len(), 2, "{problems:?}");
        assert!(!validate_result(&Json::Obj(vec![])).is_empty());
    }

    #[test]
    fn summary_line_carries_exactly_the_declared_metrics() {
        let line = summary_line(&outcome(), END_TO_END).expect("all declared metrics present");
        let doc = gpu_sim::json::parse(&line).expect("valid JSON");
        let keys: Vec<&str> = fields(&doc).iter().map(|(k, _)| k.as_str()).collect();
        assert_eq!(keys, ["correct", "attempted", "failed", "metrics"]);
        let metrics = fields(doc.get("metrics").expect("metrics"));
        assert_eq!(metrics.len(), END_TO_END.len());
        assert!(summary_line(&outcome(), &[("absent", "s")]).is_err());
    }
}
