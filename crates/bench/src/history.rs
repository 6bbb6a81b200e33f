//! Append-only perf ledger: one JSONL line per harness run (schema
//! `tridiag.bench_history/v1`), written by `distributed_scaling
//! --history FILE`. The `solver` and `service` lines in
//! `BENCH_history.jsonl` have no writer left; exact test pins in
//! `plan_snapshots`, `layout_cost` and `service_differential` hold
//! those modeled numbers.
//!
//! The test pins answer "did perf drift?"; the ledger answers "how
//! did it get here?" — every run appends its headline numbers.
//! Entries carry a monotonically increasing per-bench `seq` instead of
//! a timestamp: the modeled axes have no wall clock, and a counter
//! keeps the file deterministic and diff-friendly.
//!
//! One line per run:
//!
//! ```text
//! {"schema":"tridiag.bench_history/v1","bench":"service","seq":3,
//!  "points":[{"label":"w0","value":34046.0},...]}
//! ```

use gpu_sim::json::schema::Check;
use gpu_sim::json::{parse, Json};

/// Schema identifier carried by every ledger line.
pub const HISTORY_SCHEMA: &str = "tridiag.bench_history/v1";

/// One ledger line: a bench name, its per-bench sequence number, and
/// the run's headline `(label, value)` points.
#[derive(Debug, Clone, PartialEq)]
pub struct HistoryEntry {
    /// Which harness produced the entry (`"distributed"`; older lines
    /// also carry `"solver"` and `"service"`).
    pub bench: String,
    /// Per-bench sequence number, 1-based, strictly increasing.
    pub seq: u64,
    /// Headline metrics, in the bench's fixed sweep order.
    pub points: Vec<(String, f64)>,
}

impl HistoryEntry {
    /// Serialize as one ledger line (no trailing newline).
    pub fn to_json(&self) -> Json {
        Json::Obj(vec![
            ("schema".into(), Json::str(HISTORY_SCHEMA)),
            ("bench".into(), Json::str(self.bench.clone())),
            ("seq".into(), Json::num(self.seq as f64)),
            (
                "points".into(),
                Json::Arr(
                    self.points
                        .iter()
                        .map(|(label, value)| {
                            Json::Obj(vec![
                                ("label".into(), Json::str(label.clone())),
                                ("value".into(), Json::num(*value)),
                            ])
                        })
                        .collect(),
                ),
            ),
        ])
    }
}

/// Validate one parsed ledger line against the schema. Returns every
/// problem found (empty = valid).
pub fn validate_history_line(doc: &Json) -> Vec<String> {
    let mut c = Check::new(doc);
    c.schema(HISTORY_SCHEMA);
    c.req_str("bench");
    c.req_uint("seq");
    let points = c.req_arr("points");
    for (i, p) in points.iter().enumerate() {
        let mut pc = c.child(p, format!("points[{i}] "));
        pc.req_str("label");
        pc.req_num("value");
        c.absorb(pc);
    }
    c.finish()
}

/// Parse a whole ledger strictly: every line must validate, and each
/// bench's `seq` must increase strictly in file order. Returns every
/// problem found instead of the entries when anything is off.
pub fn parse_history(text: &str) -> Result<Vec<HistoryEntry>, Vec<String>> {
    let mut problems = Vec::new();
    let mut entries = Vec::new();
    let mut last_seq: std::collections::BTreeMap<String, u64> = Default::default();
    for (lineno, line) in text.lines().enumerate() {
        if line.trim().is_empty() {
            continue;
        }
        let ctx = format!("line {}: ", lineno + 1);
        let doc = match parse(line) {
            Ok(d) => d,
            Err(e) => {
                problems.push(format!("{ctx}{e}"));
                continue;
            }
        };
        let line_problems = validate_history_line(&doc);
        if !line_problems.is_empty() {
            problems.extend(line_problems.into_iter().map(|p| format!("{ctx}{p}")));
            continue;
        }
        let bench = doc.get("bench").and_then(Json::as_str).unwrap_or_default();
        let seq = doc.get("seq").and_then(Json::as_num).unwrap_or(0.0) as u64;
        if let Some(&prev) = last_seq.get(bench) {
            if seq <= prev {
                problems.push(format!(
                    "{ctx}bench {bench:?} seq {seq} does not increase past {prev}"
                ));
            }
        }
        last_seq.insert(bench.to_string(), seq);
        let points = doc
            .get("points")
            .and_then(Json::as_arr)
            .unwrap_or(&[])
            .iter()
            .map(|p| {
                (
                    p.get("label")
                        .and_then(Json::as_str)
                        .unwrap_or_default()
                        .to_string(),
                    p.get("value").and_then(Json::as_num).unwrap_or(f64::NAN),
                )
            })
            .collect();
        entries.push(HistoryEntry {
            bench: bench.to_string(),
            seq,
            points,
        });
    }
    if problems.is_empty() {
        Ok(entries)
    } else {
        Err(problems)
    }
}

/// Append one run's headline points for `bench` to the ledger at
/// `path` (created if missing; an existing ledger must parse
/// strictly). Returns the appended entry and the bench's previous
/// latest entry, for diffing.
pub fn append(
    path: &str,
    bench: &str,
    points: Vec<(String, f64)>,
) -> Result<(HistoryEntry, Option<HistoryEntry>), String> {
    let text = match std::fs::read_to_string(path) {
        Ok(t) => t,
        Err(e) if e.kind() == std::io::ErrorKind::NotFound => String::new(),
        Err(e) => return Err(format!("reading {path}: {e}")),
    };
    let entries = parse_history(&text)
        .map_err(|p| format!("{path} is corrupt:\n  - {}", p.join("\n  - ")))?;
    let prev = entries.into_iter().rfind(|e| e.bench == bench);
    let entry = HistoryEntry {
        bench: bench.to_string(),
        seq: prev.as_ref().map_or(1, |p| p.seq + 1),
        points,
    };
    let mut line = entry.to_json().to_string();
    line.push('\n');
    use std::io::Write;
    let mut file = std::fs::OpenOptions::new()
        .create(true)
        .append(true)
        .open(path)
        .map_err(|e| format!("opening {path}: {e}"))?;
    file.write_all(line.as_bytes())
        .map_err(|e| format!("writing {path}: {e}"))?;
    Ok((entry, prev))
}

/// Report-only diff of `fresh` against the bench's previous entry:
/// one aligned line per label with the relative delta. Labels missing
/// from either side are called out.
pub fn diff_lines(prev: &HistoryEntry, fresh: &HistoryEntry) -> Vec<String> {
    let mut out = Vec::new();
    for (label, value) in &fresh.points {
        match prev.points.iter().find(|(l, _)| l == label) {
            Some((_, p)) if *p != 0.0 => {
                let delta = (value - p) / p;
                out.push(format!(
                    "{label:<28} {p:>14.3} -> {value:>14.3} {:>+8.2}%",
                    delta * 100.0
                ));
            }
            Some(_) => out.push(format!("{label:<28} {:>14} -> {value:>14.3}", "zero")),
            None => out.push(format!("{label:<28} {:>14} -> {value:>14.3}", "new")),
        }
    }
    for (label, _) in &prev.points {
        if !fresh.points.iter().any(|(l, _)| l == label) {
            out.push(format!("{label:<28} dropped from the sweep"));
        }
    }
    out
}

/// The `--history FILE` hook: append the fresh headline points and
/// print the report-only diff against the previous run (never fails
/// the run — the ledger is advisory; I/O or corruption problems go to
/// stderr and are reported via the return).
pub fn record(path: &str, bench: &str, points: Vec<(String, f64)>) -> bool {
    match append(path, bench, points) {
        Ok((entry, Some(prev))) => {
            println!(
                "\n[history] {path}: {bench} seq {} vs seq {}:",
                entry.seq, prev.seq
            );
            for line in diff_lines(&prev, &entry) {
                println!("  {line}");
            }
            true
        }
        Ok((entry, None)) => {
            println!(
                "\n[history] {path}: {bench} seq {} (first entry)",
                entry.seq
            );
            true
        }
        Err(e) => {
            eprintln!("[history] {e}");
            false
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn entry(bench: &str, seq: u64, v: f64) -> HistoryEntry {
        HistoryEntry {
            bench: bench.into(),
            seq,
            points: vec![("a".into(), v), ("b".into(), 2.0 * v)],
        }
    }

    #[test]
    fn lines_round_trip_and_validate() {
        let e = entry("service", 3, 10.5);
        let text = e.to_json().to_string();
        let doc = parse(&text).unwrap();
        assert!(validate_history_line(&doc).is_empty());
        let parsed = parse_history(&text).unwrap();
        assert_eq!(parsed, vec![e]);
    }

    #[test]
    fn parse_rejects_bad_lines_and_stale_seq() {
        let bad = r#"{"schema":"tridiag.bench_history/v0","bench":"x","seq":1,"points":[]}"#;
        assert!(parse_history(bad).is_err());
        let stale = format!(
            "{}\n{}\n",
            entry("solver", 2, 1.0).to_json(),
            entry("solver", 2, 1.0).to_json()
        );
        let problems = parse_history(&stale).unwrap_err();
        assert!(
            problems.iter().any(|p| p.contains("does not increase")),
            "{problems:?}"
        );
        // Independent benches keep independent counters.
        let mixed = format!(
            "{}\n{}\n",
            entry("solver", 2, 1.0).to_json(),
            entry("service", 1, 1.0).to_json()
        );
        assert_eq!(parse_history(&mixed).unwrap().len(), 2);
    }

    #[test]
    fn append_assigns_per_bench_seq() {
        let dir = std::env::temp_dir().join("tridiag_history_test");
        std::fs::create_dir_all(&dir).unwrap();
        let path = dir.join("ledger.jsonl");
        let path = path.to_str().unwrap();
        let _ = std::fs::remove_file(path);

        let (first, prev) = append(path, "solver", vec![("a".into(), 1.0)]).unwrap();
        assert_eq!((first.seq, prev), (1, None));
        let (second, prev) = append(path, "solver", vec![("a".into(), 2.0)]).unwrap();
        assert_eq!(second.seq, 2);
        assert_eq!(prev.unwrap().seq, 1);
        let (other, prev) = append(path, "service", vec![("w0".into(), 5.0)]).unwrap();
        assert_eq!((other.seq, prev), (1, None));

        let entries = parse_history(&std::fs::read_to_string(path).unwrap()).unwrap();
        assert_eq!(entries.len(), 3);
        std::fs::remove_file(path).unwrap();
    }

    #[test]
    fn diff_reports_deltas_and_membership() {
        let prev = HistoryEntry {
            bench: "s".into(),
            seq: 1,
            points: vec![("a".into(), 100.0), ("gone".into(), 1.0)],
        };
        let fresh = HistoryEntry {
            bench: "s".into(),
            seq: 2,
            points: vec![("a".into(), 101.0), ("new".into(), 3.0)],
        };
        let lines = diff_lines(&prev, &fresh);
        assert!(lines[0].contains("+1.00%"), "{lines:?}");
        assert!(lines[1].contains("new"), "{lines:?}");
        assert!(lines[2].contains("dropped"), "{lines:?}");
    }
}
