//! Solver perf baseline: modeled microseconds for a fixed sweep of
//! (figure, precision, M, N) points spanning the Fig. 12 / Fig. 13
//! regimes, emitted as deterministic JSON (`BENCH_solver.json`).
//!
//! The timing model is deterministic, so a committed baseline acts as a
//! perf change detector: any edit that shifts a kernel's counters or
//! the wave model shows up as a non-zero delta.
//!
//! ```text
//! cargo run --release -p bench --bin solver_baseline                 # write BENCH_solver.json
//! cargo run --release -p bench --bin solver_baseline -- --out F      # write elsewhere
//! cargo run --release -p bench --bin solver_baseline -- --check F    # diff a fresh run vs F
//! cargo run --release -p bench --bin solver_baseline -- --check F --report-only
//! ```
//!
//! `--check` exits 1 when any point's total drifts by more than
//! `TOLERANCE_FRAC`; `--report-only` prints the same table but always
//! exits 0 (for advisory CI steps). `--history FILE` additionally
//! appends the run's headline numbers to the append-only perf ledger
//! (`tridiag.bench_history/v1` JSONL) and prints a report-only diff
//! against the previous entry. See EXPERIMENTS.md for the schemas.
//!
//! Besides the figure sweep, every run produces the layout ablation
//! table (`"layout"` field, schema_version 2): pure p-Thomas at
//! N = 512 for M ∈ {64, 256, 1024} in both device layouts, with the
//! closed-form transaction counts (`plan::cost::pthomas_transactions`)
//! next to the executed modeled times. The generator asserts the
//! interleaved layout wins modeled transactions — the claim the
//! planner's `k = 0` ⇒ interleaved rule rests on.

use bench::series;
use gpu_sim::json::{parse, Json};
use gpu_sim::DeviceSpec;
use std::process::ExitCode;
use tridiag_core::Layout;
use tridiag_gpu::plan::cost;

/// Relative drift in a point's `total_us` that `--check` tolerates.
const TOLERANCE_FRAC: f64 = 0.005;

/// The fixed sweep: a small, fast subset of the Fig. 12 (time vs M at
/// fixed N) and Fig. 13 (time vs N at fixed M) grids, double precision,
/// plus two single-precision spot checks.
const POINTS: &[(&str, &str, usize, usize)] = &[
    ("fig12", "f64", 64, 512),
    ("fig12", "f64", 256, 512),
    ("fig12", "f64", 1024, 512),
    ("fig12", "f64", 64, 2048),
    ("fig12", "f64", 256, 2048),
    ("fig13", "f64", 2048, 64),
    ("fig13", "f64", 256, 256),
    ("fig13", "f64", 16, 1024),
    ("fig13", "f64", 1, 16384),
    ("fig12", "f32", 256, 512),
    ("fig13", "f32", 16, 1024),
];

/// Layout-ablation geometries: N fixed at 512, M spanning the regimes
/// where coalescing goes from mildly to brutally decisive.
const LAYOUT_MS: &[usize] = &[64, 256, 1024];
const LAYOUT_N: usize = 512;

fn measure_point(figure: &str, precision: &str, m: usize, n: usize) -> Json {
    let (total_us, report) = if precision == "f32" {
        series::ours_us::<f32>(m, n)
    } else {
        series::ours_us::<f64>(m, n)
    };
    let kernels: Vec<Json> = report
        .kernels
        .iter()
        .map(|kr| {
            Json::Obj(vec![
                ("name".into(), Json::str(kr.timing.name)),
                ("us".into(), Json::num(round6(kr.timing.total_us))),
            ])
        })
        .collect();
    Json::Obj(vec![
        ("figure".into(), Json::str(figure)),
        ("precision".into(), Json::str(precision)),
        ("m".into(), Json::num(m as f64)),
        ("n".into(), Json::num(n as f64)),
        ("k".into(), Json::num(report.k as f64)),
        ("total_us".into(), Json::num(round6(total_us))),
        ("kernels".into(), Json::Arr(kernels)),
    ])
}

/// Round to 6 decimals so the committed file is stable across
/// serialization and platforms' float formatting.
fn round6(x: f64) -> f64 {
    (x * 1e6).round() / 1e6
}

/// Measure one layout-ablation row: pure p-Thomas (`k = 0`) at
/// `(m, LAYOUT_N)` f64 in both device layouts. Panics if the
/// interleaved layout fails to win modeled transactions — the claim
/// the layout-aware planner rests on must hold before the row can
/// become a committed data point.
fn measure_layout_row(m: usize) -> Json {
    eprintln!("  measuring layout f64 M={m} N={LAYOUT_N}…");
    let spec = DeviceSpec::gtx480();
    let contig_txn = cost::pthomas_transactions(&spec, Layout::Contiguous, m, LAYOUT_N, 8);
    let inter_txn = cost::pthomas_transactions(&spec, Layout::Interleaved, m, LAYOUT_N, 8);
    assert!(
        inter_txn < contig_txn,
        "M={m}: interleaved p-Thomas models {inter_txn} global transactions, \
         contiguous models {contig_txn} — coalescing must win at every table M"
    );
    let (contig_us, contig) = series::pthomas_layout_us::<f64>(m, LAYOUT_N, Layout::Contiguous);
    let (inter_us, inter) = series::pthomas_layout_us::<f64>(m, LAYOUT_N, Layout::Interleaved);
    assert_eq!(contig.k, 0, "M={m}: contiguous ablation row is not pure p-Thomas");
    assert_eq!(inter.k, 0, "M={m}: interleaved ablation row is not pure p-Thomas");
    Json::Obj(vec![
        ("precision".into(), Json::str("f64")),
        ("m".into(), Json::num(m as f64)),
        ("n".into(), Json::num(LAYOUT_N as f64)),
        ("contiguous_txn".into(), Json::num(contig_txn as f64)),
        ("interleaved_txn".into(), Json::num(inter_txn as f64)),
        ("contiguous_us".into(), Json::num(round6(contig_us))),
        ("interleaved_us".into(), Json::num(round6(inter_us))),
    ])
}

/// Print the layout-ablation rows as an aligned comparison table.
fn print_layout_table(rows: &[Json]) {
    println!(
        "{:<6} {:>6} {:>14} {:>15} {:>14} {:>15} {:>8}",
        "M", "N", "contiguous txn", "interleaved txn", "contiguous us", "interleaved us", "speedup"
    );
    for r in rows {
        let num = |k: &str| r.get(k).and_then(Json::as_num).unwrap_or(f64::NAN);
        println!(
            "{:<6} {:>6} {:>14} {:>15} {:>14.3} {:>15.3} {:>7.2}x",
            num("m"),
            num("n"),
            num("contiguous_txn"),
            num("interleaved_txn"),
            num("contiguous_us"),
            num("interleaved_us"),
            num("contiguous_us") / num("interleaved_us"),
        );
    }
}

fn run_sweep() -> Json {
    let points: Vec<Json> = POINTS
        .iter()
        .map(|&(fig, prec, m, n)| {
            eprintln!("  measuring {fig} {prec} M={m} N={n}…");
            measure_point(fig, prec, m, n)
        })
        .collect();
    let layout: Vec<Json> = LAYOUT_MS.iter().map(|&m| measure_layout_row(m)).collect();
    print_layout_table(&layout);
    Json::Obj(vec![
        ("schema_version".into(), Json::num(2.0)),
        ("device".into(), Json::str("gtx480-simulated")),
        ("points".into(), Json::Arr(points)),
        ("layout".into(), Json::Arr(layout)),
    ])
}

/// The ledger's headline metrics: one `(point key, total_us)` pair per
/// sweep point, plus one pair per layout-ablation cell (the layout
/// dimension's entry in the perf history).
fn headline(doc: &Json) -> Vec<(String, f64)> {
    let mut out: Vec<(String, f64)> = doc
        .get("points")
        .and_then(Json::as_arr)
        .unwrap_or(&[])
        .iter()
        .map(|p| {
            (
                point_key(p),
                p.get("total_us").and_then(Json::as_num).unwrap_or(f64::NAN),
            )
        })
        .collect();
    for r in doc.get("layout").and_then(Json::as_arr).unwrap_or(&[]) {
        for (label, field) in [("contiguous", "contiguous_us"), ("interleaved", "interleaved_us")] {
            out.push((
                format!("{}/{label}", layout_key(r)),
                r.get(field).and_then(Json::as_num).unwrap_or(f64::NAN),
            ));
        }
    }
    out
}

fn layout_key(r: &Json) -> String {
    format!(
        "layout/{}/m{}/n{}",
        r.get("precision").and_then(Json::as_str).unwrap_or("?"),
        r.get("m").and_then(Json::as_num).unwrap_or(-1.0),
        r.get("n").and_then(Json::as_num).unwrap_or(-1.0),
    )
}

fn point_key(p: &Json) -> String {
    format!(
        "{}/{}/m{}/n{}",
        p.get("figure").and_then(Json::as_str).unwrap_or("?"),
        p.get("precision").and_then(Json::as_str).unwrap_or("?"),
        p.get("m").and_then(Json::as_num).unwrap_or(-1.0),
        p.get("n").and_then(Json::as_num).unwrap_or(-1.0),
    )
}

fn check(baseline_path: &str, report_only: bool, history: Option<&str>) -> ExitCode {
    let text = match std::fs::read_to_string(baseline_path) {
        Ok(t) => t,
        Err(e) => {
            eprintln!("error: reading {baseline_path}: {e}");
            return ExitCode::FAILURE;
        }
    };
    let baseline = match parse(&text) {
        Ok(j) => j,
        Err(e) => {
            eprintln!("error: {baseline_path}: {e}");
            return ExitCode::FAILURE;
        }
    };
    let fresh = run_sweep();
    let base_points = baseline.get("points").and_then(Json::as_arr).unwrap_or(&[]);
    let fresh_points = fresh.get("points").and_then(Json::as_arr).unwrap_or(&[]);
    let mut regressions = 0usize;
    println!(
        "{:<28} {:>12} {:>12} {:>9}",
        "point", "baseline us", "fresh us", "delta"
    );
    let mut diff_row = |key: &str, fresh_us: f64, base_us: Option<f64>| match base_us {
        Some(b) if b > 0.0 => {
            let delta = (fresh_us - b) / b;
            let flag = if delta.abs() > TOLERANCE_FRAC {
                regressions += 1;
                " <-- drift"
            } else {
                ""
            };
            println!("{key:<28} {b:>12.3} {fresh_us:>12.3} {:>+8.2}%{flag}", delta * 100.0);
        }
        _ => {
            regressions += 1;
            println!("{key:<28} {:>12} {fresh_us:>12.3} {:>9}", "missing", "new");
        }
    };
    for fp in fresh_points {
        let key = point_key(fp);
        let fresh_us = fp.get("total_us").and_then(Json::as_num).unwrap_or(f64::NAN);
        let base_us = base_points
            .iter()
            .find(|bp| point_key(bp) == key)
            .and_then(|bp| bp.get("total_us"))
            .and_then(Json::as_num);
        diff_row(&key, fresh_us, base_us);
    }
    let base_layout = baseline.get("layout").and_then(Json::as_arr).unwrap_or(&[]);
    let fresh_layout = fresh.get("layout").and_then(Json::as_arr).unwrap_or(&[]);
    for fr in fresh_layout {
        let key = layout_key(fr);
        let base_row = base_layout.iter().find(|br| layout_key(br) == key);
        for (label, field) in [("contiguous", "contiguous_us"), ("interleaved", "interleaved_us")] {
            let fresh_us = fr.get(field).and_then(Json::as_num).unwrap_or(f64::NAN);
            let base_us = base_row.and_then(|br| br.get(field)).and_then(Json::as_num);
            diff_row(&format!("{key}/{label}"), fresh_us, base_us);
        }
    }
    if let Some(path) = history {
        bench::history::record(path, "solver", headline(&fresh));
    }
    if regressions > 0 {
        eprintln!(
            "{regressions} point(s) drifted beyond {:.1}% (or missing from baseline)",
            TOLERANCE_FRAC * 100.0
        );
        if !report_only {
            return ExitCode::FAILURE;
        }
        eprintln!("report-only mode: not failing");
    } else {
        println!(
            "all {} rows within {:.1}%",
            fresh_points.len() + 2 * fresh_layout.len(),
            TOLERANCE_FRAC * 100.0
        );
    }
    ExitCode::SUCCESS
}

fn main() -> ExitCode {
    let mut out = String::from("BENCH_solver.json");
    let mut check_path: Option<String> = None;
    let mut history: Option<String> = None;
    let mut report_only = false;
    let mut args = std::env::args().skip(1);
    while let Some(a) = args.next() {
        match a.as_str() {
            "--out" => {
                if let Some(p) = args.next() {
                    out = p;
                }
            }
            "--check" => check_path = args.next(),
            "--history" => history = args.next(),
            "--report-only" => report_only = true,
            other => eprintln!("ignoring unknown argument {other:?}"),
        }
    }
    if let Some(path) = check_path {
        return check(&path, report_only, history.as_deref());
    }
    let doc = run_sweep();
    let mut text = doc.to_string();
    text.push('\n');
    if let Err(e) = std::fs::write(&out, &text) {
        eprintln!("error: writing {out}: {e}");
        return ExitCode::FAILURE;
    }
    println!("wrote {out}");
    if let Some(path) = history.as_deref() {
        bench::history::record(path, "solver", headline(&doc));
    }
    ExitCode::SUCCESS
}
