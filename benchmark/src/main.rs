//! The repository benchmark: four seeded workloads through the public
//! APIs of `tridiag-gpu`, `tridiag-service`, `tridiag-core` and
//! `cpu-ref`, on both clocks — the simulator's modeled device time and
//! host time calibrated against a fixed reference solve.
//!
//! ```text
//! cargo run --release --manifest-path benchmark/Cargo.toml -- \
//!     [--workload NAME] [--seed N] [--seconds S] [--trace 0|1] [--out DIR]
//! ```
//!
//! Each workload measures whole rounds of ops (service: sessions) for
//! `--seconds`, checks every answer, prints `workload metric value unit`
//! lines, writes `DIR/<workload>.result.json` (and with `--trace 1`
//! `DIR/<workload>.trace.json`), and ends with a one-line JSON summary.
//! `--trace 0` reports the end-to-end metrics; `--trace 1` runs the same
//! ops untraced and then traced, and reports the per-layer metrics. See
//! README.md in this directory.

mod calibration;
mod metrics;
mod report;
mod run;
mod spans;
mod stats;
mod workload;

use std::hint::black_box;
use std::path::{Path, PathBuf};
use std::process::ExitCode;
use std::time::{Duration, Instant};

use calibration::Yardstick;
use metrics::{Clock, Measured, Metrics, Traced, END_TO_END, PER_LAYER};
use report::Outcome;
use run::{AnyPlan, Env, Host, Tally};
use spans::Spans;
use workload::{Op, Precision, Route, Workload};

const USAGE: &str =
    "usage: benchmark [--workload hybrid_batch|wide_batch|service_stream|multi_device] \
[--seed N] [--seconds S] [--trace 0|1] [--out DIR]";

/// Set-up repetitions; `setup_s` is their median.
const SETUP_REPS: usize = 9;
/// Rounds (service: sessions) every run completes, however long they
/// take, and the only ones whose modeled results count: modeled metrics
/// at a seed are then the same on every run and machine.
const MODELED_ROUNDS: usize = 5;
const MODELED_SESSIONS: usize = 40;

struct Args {
    workloads: Vec<Workload>,
    seed: u64,
    seconds: f64,
    trace: bool,
    out: PathBuf,
}

fn parse_args(mut argv: impl Iterator<Item = String>) -> Result<Args, String> {
    let mut args = Args {
        workloads: Workload::ALL.to_vec(),
        seed: 1,
        seconds: 20.0,
        trace: false,
        out: PathBuf::from("benchmark-out"),
    };
    while let Some(flag) = argv.next() {
        let value = argv.next().ok_or_else(|| format!("{flag} needs a value"))?;
        let bad = |what: &str| format!("{flag} {value:?}: expected {what}");
        match flag.as_str() {
            "--workload" => {
                args.workloads =
                    vec![Workload::parse(&value).ok_or_else(|| bad("a workload name"))?]
            }
            "--seed" => args.seed = value.parse().map_err(|_| bad("an unsigned integer"))?,
            "--seconds" => {
                args.seconds = value
                    .parse()
                    .ok()
                    .filter(|s: &f64| s.is_finite() && *s > 0.0)
                    .ok_or_else(|| bad("a positive number"))?
            }
            "--trace" => {
                args.trace = match value.as_str() {
                    "0" => false,
                    "1" => true,
                    _ => return Err(bad("0 or 1")),
                }
            }
            "--out" => args.out = PathBuf::from(value),
            _ => return Err(format!("unknown argument {flag:?}")),
        }
    }
    Ok(args)
}

fn main() -> ExitCode {
    let args = match parse_args(std::env::args().skip(1)) {
        Ok(a) => a,
        Err(e) => {
            eprintln!("error: {e}\n{USAGE}");
            return ExitCode::from(2);
        }
    };
    match run_all(&args) {
        Ok(()) => ExitCode::SUCCESS,
        Err(e) => {
            eprintln!("error: {e}");
            ExitCode::FAILURE
        }
    }
}

fn run_all(args: &Args) -> Result<(), String> {
    std::fs::create_dir_all(&args.out)
        .map_err(|e| format!("creating {}: {e}", args.out.display()))?;
    let file_stem = match args.workloads.as_slice() {
        [one] => one.name(),
        _ => "all",
    };
    let mut outcomes = Vec::new();
    for (i, &w) in args.workloads.iter().enumerate() {
        if i > 0 {
            // One process runs several workloads: restart the peak.
            std::fs::write("/proc/self/clear_refs", "5")
                .map_err(|e| format!("resetting the peak resident set: {e}"))?;
        }
        eprintln!(
            "running {} (seed {}, {} s, trace {})",
            w.name(),
            args.seed,
            args.seconds,
            args.trace
        );
        let (outcome, spans) = run_workload(w, args)?;
        print!("{}", report::text(&outcome));
        if let Some(spans) = spans {
            let text = spans
                .to_trace(&format!("benchmark {}", w.name()), i as u32)
                .to_chrome_json();
            gpu_sim::validate_chrome_json(&text)
                .map_err(|p| format!("{} trace is invalid: {}", w.name(), p.join("; ")))?;
            write(&args.out.join(format!("{}.trace.json", w.name())), &text)?;
        }
        let line = report::summary_line(&outcome, if args.trace { PER_LAYER } else { END_TO_END })?;
        outcomes.push(outcome);
        let doc = report::result_json(args.seed, args.seconds, args.trace, &outcomes);
        let problems = report::validate_result(&doc);
        if !problems.is_empty() {
            return Err(format!(
                "result document is invalid: {}",
                problems.join("; ")
            ));
        }
        write(
            &args.out.join(format!("{file_stem}.result.json")),
            &format!("{doc}\n"),
        )?;
        println!("{line}");
    }
    Ok(())
}

fn write(path: &Path, text: &str) -> Result<(), String> {
    std::fs::write(path, text).map_err(|e| format!("writing {}: {e}", path.display()))
}

/// Peak resident set (`VmHWM`) of this process, MiB.
fn peak_rss_mb() -> Result<f64, String> {
    let status = std::fs::read_to_string("/proc/self/status")
        .map_err(|e| format!("reading /proc/self/status: {e}"))?;
    status
        .lines()
        .find_map(|l| l.strip_prefix("VmHWM:"))
        .and_then(|v| v.trim().trim_end_matches("kB").trim().parse::<f64>().ok())
        .map(|kb| kb / 1024.0)
        .ok_or_else(|| "no VmHWM in /proc/self/status".to_string())
}

/// What one workload's passes produced, before it becomes metrics.
struct Passes {
    /// Set-up repetitions: raw seconds and the yardstick reading around
    /// each.
    setup: Vec<(f64, f64)>,
    /// Warm-up ops: checked and counted, not measured.
    warm: Tally,
    untraced: Tally,
    /// The same ops again with spans and probes, when tracing.
    traced: Option<(Tally, Spans)>,
    capacity_req_per_s: Option<f64>,
    extra: Metrics,
}

fn run_workload(w: Workload, args: &Args) -> Result<(Outcome, Option<Spans>), String> {
    // The multi-device executors run one thread per device; so does
    // their yardstick.
    let threads = if w == Workload::MultiDevice {
        run::GROUP_DEVICES
    } else {
        1
    };
    let mut yard = Yardstick::new(threads);
    let passes = match w {
        Workload::ServiceStream => service_passes(args, &mut yard),
        _ => batch_passes(w, args, &mut yard),
    };
    let measured = Measured {
        tally: &passes.untraced,
        setup: &passes.setup,
        yardstick_ms: yard.samples(),
        reference_ms: yard.reference_ms(),
        peak_rss_mb: peak_rss_mb()?,
    };
    let mut metrics = match &passes.traced {
        None => metrics::end_to_end(&measured),
        Some((traced, spans)) => {
            let host = Host::from_spans(spans)?;
            // The op span is tiled exactly by its children's self times
            // and the unattributed remainder.
            if host.op != host.plan + host.executor + host.session + host.unattributed {
                return Err(format!("{}: op spans do not partition", w.name()));
            }
            let op_spans = spans.spans.iter().filter(|s| s.name == "op").count();
            metrics::per_layer(&Traced {
                untraced: measured,
                traced,
                host: &host,
                op_spans,
                capacity_req_per_s: passes.capacity_req_per_s,
            })
        }
    };
    let tallies = [
        Some(&passes.warm),
        Some(&passes.untraced),
        passes.traced.as_ref().map(|t| &t.0),
    ];
    let tallies = tallies.into_iter().flatten();
    let (attempted, failed, wrong) = tallies.fold((0, 0, 0), |(a, f, x), t| {
        (a + t.attempted, f + t.failed, x + t.wrong)
    });
    let failed_frac = failed as f64 / attempted.max(1) as f64;
    metrics.extra("failed_frac", failed_frac, "ratio", Clock::Count, attempted);
    metrics.0.extend(passes.extra.0);
    let outcome = Outcome {
        workload: w,
        attempted,
        failed,
        correct: wrong == 0,
        metrics,
    };
    Ok((outcome, passes.traced.map(|t| t.1)))
}

/// Seconds the untraced pass measures: all of `--seconds`, or half of
/// it when a traced replay of the same ops follows.
fn untraced_budget(args: &Args) -> Duration {
    Duration::from_secs_f64(if args.trace {
        args.seconds / 2.0
    } else {
        args.seconds
    })
}

fn label(op: &Op) -> String {
    let precision = match op.precision {
        Precision::F32 => "f32",
        Precision::F64 => "f64",
    };
    match op.route {
        Route::Single => format!("{precision}.m{}.n{}.{:?}", op.m, op.n, op.layout).to_lowercase(),
        Route::Sharded => format!("sharded.{precision}.m{}.n{}", op.m, op.n),
        Route::Split => format!("split.{precision}.n{}", op.n),
    }
}

/// Run `op` between two yardstick samples and attach their mean to it.
fn run_op_clocked(
    env: &Env,
    op: &Op,
    yard: &mut Yardstick,
    spans: &mut Option<Spans>,
    tally: &mut Tally,
) {
    let from = tally.hosts.len();
    let idx = tally.attempted;
    let ((), _, yardstick_ms) = yard.around(|| run::run_op(env, op, idx, spans, tally));
    tally.calibrate_since(from, yardstick_ms);
}

fn batch_passes(w: Workload, args: &Args, yard: &mut Yardstick) -> Passes {
    // Set-up: the devices and configuration, one input batch and one
    // certified plan per menu entry.
    let nominal: Vec<Op> = workload::menu(w)
        .into_iter()
        .enumerate()
        .map(|(i, op)| Op {
            data_seed: workload::derive(args.seed, i as u64),
            ..op
        })
        .collect();
    let mut setup = Vec::with_capacity(SETUP_REPS);
    let mut env = Env::new();
    for _ in 0..SETUP_REPS {
        let (built, secs, yardstick_ms) = yard.around(|| {
            let env = Env::new();
            for op in &nominal {
                drop(black_box(workload::input(op)));
                black_box(AnyPlan::build(&env, op).map(|p| p.verify_clean(&env)).ok());
            }
            env
        });
        env = built;
        setup.push((secs, yardstick_ms));
    }

    // Warm-up: every entry once at its nominal shape, which also gives
    // the modeled time of the old ledger's cells.
    let mut warm = Tally::default();
    let mut extra = Metrics::default();
    for op in &nominal {
        if let (Some(us), _, _) = yard.around(|| run::nominal_us(&env, op, &mut warm)) {
            extra.extra(
                &format!("nominal.{}.us", label(op)),
                us,
                "us",
                Clock::Modeled,
                1,
            );
        }
    }

    let budget = untraced_budget(args);
    let modeled_ops = MODELED_ROUNDS * nominal.len();
    let mut untraced = Tally::with_modeled_limit(modeled_ops);
    let start = Instant::now();
    let mut rounds = 0;
    while rounds < MODELED_ROUNDS as u64 || start.elapsed() < budget {
        for op in workload::round(w, args.seed, rounds) {
            run_op_clocked(&env, &op, yard, &mut None, &mut untraced);
        }
        rounds += 1;
    }
    extra.extra("rounds", rounds as f64, "count", Clock::Count, 1);

    let traced = args.trace.then(|| {
        let mut spans = Some(Spans::new());
        let mut tally = Tally::with_modeled_limit(modeled_ops);
        for r in 0..rounds {
            for op in workload::round(w, args.seed, r) {
                run_op_clocked(&env, &op, yard, &mut spans, &mut tally);
            }
        }
        (tally, spans.expect("tracing is on"))
    });
    Passes {
        setup,
        warm,
        untraced,
        traced,
        capacity_req_per_s: None,
        extra,
    }
}

/// Sessions one service core serves before the next fresh core takes
/// over, so memory is measured after the same work on every run.
const CORE_SESSIONS: usize = 8;

fn service_passes(args: &Args, yard: &mut Yardstick) -> Passes {
    let env = Env::new();
    // A fresh core, warmed by one session so its plan cache fills.
    let fresh_core = |yard: &mut Yardstick| {
        yard.around(|| {
            let mut core = run::service_core(&env);
            let warmup = workload::session(
                args.seed,
                workload::WARMUP_SESSION,
                workload::WARMUP_REQUESTS,
                workload::OFFERED_REQ_PER_S,
            );
            black_box(core.run_workload(warmup));
            core
        })
    };
    let mut setup = Vec::with_capacity(SETUP_REPS);
    let mut core = run::service_core(&env);
    for _ in 0..SETUP_REPS {
        let (fresh, secs, yardstick_ms) = fresh_core(yard);
        core = fresh;
        setup.push((secs, yardstick_ms));
    }

    let session = |s: usize| {
        workload::session(
            args.seed,
            s as u64,
            workload::SESSION_REQUESTS,
            workload::OFFERED_REQ_PER_S,
        )
    };
    let serve = |core: &mut _,
                 s: usize,
                 yard: &mut Yardstick,
                 spans: &mut Option<Spans>,
                 tally: &mut Tally| {
        let requests = session(s);
        let from = tally.hosts.len();
        let ((), _, yardstick_ms) =
            yard.around(|| run::run_session(core, requests, s, spans, tally));
        tally.calibrate_since(from, yardstick_ms);
    };
    let budget = untraced_budget(args);
    let mut untraced = Tally::with_modeled_limit(MODELED_SESSIONS);
    let start = Instant::now();
    let mut sessions = 0;
    while sessions < MODELED_SESSIONS || start.elapsed() < budget {
        if sessions > 0 && sessions % CORE_SESSIONS == 0 {
            core = fresh_core(yard).0;
        }
        serve(&mut core, sessions, yard, &mut None, &mut untraced);
        sessions += 1;
    }
    let mut extra = Metrics::default();
    extra.extra("sessions", sessions as f64, "count", Clock::Count, 1);

    let mut capacity_req_per_s = None;
    let traced = args.trace.then(|| {
        let mut spans = Some(Spans::new());
        let mut tally = Tally::with_modeled_limit(MODELED_SESSIONS);
        for s in 0..sessions {
            if s % CORE_SESSIONS == 0 {
                core = fresh_core(yard).0;
            }
            serve(&mut core, s, yard, &mut spans, &mut tally);
        }
        capacity_req_per_s = Some(run::capacity(
            &env,
            args.seed,
            workload::CAPACITY_REQUESTS,
            run::CAPACITY_STEPS,
        ));
        (tally, spans.expect("tracing is on"))
    });
    Passes {
        setup,
        warm: Tally::default(),
        untraced,
        traced,
        capacity_req_per_s,
        extra,
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn parse(args: &[&str]) -> Result<Args, String> {
        parse_args(args.iter().map(|s| s.to_string()))
    }

    #[test]
    fn arguments_parse_strictly() {
        let a = parse(&[
            "--workload",
            "wide_batch",
            "--seed",
            "7",
            "--seconds",
            "3",
            "--trace",
            "1",
        ])
        .expect("valid arguments");
        assert_eq!(a.workloads, [Workload::WideBatch]);
        assert_eq!((a.seed, a.seconds, a.trace), (7, 3.0, true));
        assert_eq!(parse(&[]).expect("defaults").workloads.len(), 4);
        for bad in [
            &["--workload", "nope"][..],
            &["--trace", "2"],
            &["--seconds", "0"],
            &["--seed"],
            &["--verbose", "1"],
        ] {
            assert!(parse(bad).is_err(), "{bad:?}");
        }
    }
}
