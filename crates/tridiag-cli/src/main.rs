//! `tridiag` — command-line front end for the scalable-tridiag
//! workspace.
//!
//! ```text
//! tridiag solve --m 256 --n 1024 [--engine gpu|cpu|cpu-mt|davidson|zhang]
//!               [--precision f64|f32] [--device gtx480|gtx280|c2050]
//!               [--seed 42] [--verbose] [--sanitize]
//!               [--trace trace.json] [--json] [--dry-run]
//! tridiag solve --split-n 4 --n 1000000   # one huge system row-split
//!                                         # across 4 devices
//! tridiag plan --m 256 --n 1024 [--json] # print the solve plan, no execution
//! tridiag verify --m 256 --n 1024        # statically certify the plan
//! tridiag profile --m 256 --n 1024       # per-phase profile + Chrome trace
//! tridiag profile --zoo --out zoo.json   # ...for every shipped kernel
//! tridiag compare --m 64 --n 2048        # run every engine, check parity
//! tridiag tune --n 4096 --m-list 1,16,256,1024
//!                                        # the planner's search: picked
//!                                        # (k, mapping) per M
//! tridiag tune --emit crates/tridiag-gpu/src/plan/tuned.rs
//!                                        # regenerate the tuned table
//! tridiag info [--device gtx480]         # device spec + occupancy sheet
//! tridiag lint [--verbose]               # sanitize the kernel zoo and
//!                                        # read its counter findings
//! tridiag serve --requests 8 --clients 4 # concurrent solves through the
//!                                        # coalescing service, checked vs solo
//! tridiag stats --requests 48            # unified telemetry read-out:
//!                                        # metrics, SLO account, replay checks
//! ```
//!
//! Each command rejects any option it does not read. The figure-sweep
//! plan, certificate and service-window sweeps live in the test suites
//! (`plan_snapshots`, `layout_cost`, `verify_props`,
//! `service_differential`).
//!
//! Exit codes: 0 = success, 1 = usage or solve error, 2 = sanitizer,
//! counter or other check findings (the solve itself succeeded, but a
//! check found property violations).

mod args;

use args::Args;
use gpu_sim::{DeviceGroup, DeviceSpec};
use std::process::ExitCode;
use tridiag_core::generators::random_batch;
use tridiag_core::{Layout, SystemBatch};
use tridiag_gpu::autotune;
use tridiag_gpu::plan::cost;
use tridiag_gpu::solver::{GpuSolverConfig, GpuTridiagSolver, LayoutChoice};
use tridiag_gpu::{davidson, zhang};

/// A command failure, split by exit code: plain errors exit 1, check
/// findings (sanitizer violations, counter findings, phase-sum or
/// verification failures) exit 2, and a reader that closed stdout
/// early (`tridiag plan ... | head`) ends the command quietly, exit 0.
enum Failure {
    Error(String),
    Findings(String),
    Closed,
}

/// Write `args` through the process's one stdout handle, locked for
/// the write. A closed pipe is [`Failure::Closed`], not a panic.
fn emit(args: std::fmt::Arguments<'_>) -> Result<(), Failure> {
    use std::io::Write;
    std::io::stdout()
        .lock()
        .write_fmt(args)
        .map_err(|e| match e.kind() {
            std::io::ErrorKind::BrokenPipe => Failure::Closed,
            _ => Failure::Error(format!("writing to stdout: {e}")),
        })
}

/// `print!` through [`emit`], returning from the command on failure.
macro_rules! out {
    ($($arg:tt)*) => {
        emit(format_args!($($arg)*))?
    };
}

/// `println!` through [`emit`], returning from the command on failure.
macro_rules! outln {
    () => {
        out!("\n")
    };
    ($($arg:tt)*) => {
        out!("{}\n", format_args!($($arg)*))
    };
}

fn device_by_name(name: &str) -> Result<DeviceSpec, String> {
    match name.to_ascii_lowercase().as_str() {
        "gtx480" => Ok(DeviceSpec::gtx480()),
        "gtx280" => Ok(DeviceSpec::gtx280()),
        "c2050" => Ok(DeviceSpec::c2050()),
        other => Err(format!(
            "unknown device {other:?} (expected gtx480, gtx280 or c2050)"
        )),
    }
}

/// Parse `--devices`: either a device count (`--devices 4` — that many
/// copies of `--device`) or a comma-separated list of device names
/// (`--devices gtx480,gtx280` — a heterogeneous group). Returns `None`
/// when the flag is absent (single-device paths unchanged).
fn device_group(a: &Args, base: &DeviceSpec) -> Result<Option<DeviceGroup>, String> {
    let Some(value) = a.get("devices") else {
        return Ok(None);
    };
    let group = if let Ok(count) = value.parse::<usize>() {
        DeviceGroup::homogeneous(base.clone(), count)
    } else {
        let specs = value
            .split(',')
            .map(device_by_name)
            .collect::<Result<Vec<_>, _>>()?;
        DeviceGroup::from_specs(specs)
    };
    group
        .map(Some)
        .map_err(|e| format!("--devices {value}: {e}"))
}

/// `--split-n`: split ONE system's rows across a device group.
#[derive(Clone, Copy, PartialEq, Eq)]
enum SplitN {
    /// Always split across exactly this many devices.
    Count(usize),
    /// Try the single-device plan first; split only when the planner
    /// rejects the system as too large for one device.
    Auto,
}

/// Parse `--split-n`: either a device count (`--split-n 4`) or `auto`.
/// Returns `None` when the flag is absent (batch paths unchanged).
fn split_n_opt(a: &Args) -> Result<Option<SplitN>, String> {
    let Some(value) = a.get("split-n") else {
        return Ok(None);
    };
    if value == "auto" {
        return Ok(Some(SplitN::Auto));
    }
    match value.parse::<usize>() {
        Ok(d) if d > 0 => Ok(Some(SplitN::Count(d))),
        _ => Err(format!(
            "--split-n {value}: expected a device count or \"auto\""
        )),
    }
}

/// Which path a geometry takes, resolved once from `--devices` and
/// `--split-n` for `solve`, `plan` and `verify`.
enum Route {
    /// One device.
    Single,
    /// The batch sharded across a device group (`--devices`).
    Sharded(DeviceGroup),
    /// One system row-split across a device group (`--split-n`).
    Split(DeviceGroup),
}

/// Resolve the parsed `--devices` group and `--split-n` for an
/// `m x n` geometry. Splitting requires `m = 1`. `--split-n D` splits
/// across the `--devices` group when given (its size must be D), else
/// across D copies of the solver's device. `--split-n auto` splits only
/// when the single-device plan fails and a split plan builds, across the
/// `--devices` group or else the smallest homogeneous group (2, 4, ...
/// 64 devices) whose plan builds; when none does, the single-device
/// planning error is the answer.
fn resolve_route(
    solver: &GpuTridiagSolver,
    group: Option<DeviceGroup>,
    split: Option<SplitN>,
    m: usize,
    n: usize,
    elem_bytes: usize,
) -> Result<Route, Failure> {
    let Some(split) = split else {
        return Ok(group.map_or(Route::Single, Route::Sharded));
    };
    if m != 1 {
        return Err(Failure::Error(format!(
            "--split-n splits one system's rows across devices (m = 1); got --m {m}"
        )));
    }
    let device = solver.spec();
    let d = match split {
        SplitN::Count(d) => d,
        SplitN::Auto => {
            let single = match solver.plan_geometry(1, n, elem_bytes) {
                Ok(_) => return Ok(Route::Single),
                Err(e) => e,
            };
            let groups = group.map_or_else(
                || {
                    (1..=6)
                        .filter_map(|e| DeviceGroup::homogeneous(device.clone(), 1 << e).ok())
                        .collect()
                },
                |g| vec![g],
            );
            return groups
                .into_iter()
                .find(|g| solver.plan_geometry_split(g, n, elem_bytes).is_ok())
                .map(Route::Split)
                .ok_or_else(|| Failure::Error(single.to_string()));
        }
    };
    match group {
        Some(g) if g.len() == d => Ok(Route::Split(g)),
        Some(g) => Err(Failure::Error(format!(
            "--split-n {d} does not match the {}-device --devices group",
            g.len()
        ))),
        None => DeviceGroup::homogeneous(device.clone(), d)
            .map(Route::Split)
            .map_err(|e| Failure::Error(format!("--split-n {d}: {e}"))),
    }
}

/// The plan a [`Route`] builds for one geometry — nothing executes.
enum RoutePlan {
    Single(tridiag_gpu::SolvePlan),
    Sharded(DeviceGroup, tridiag_gpu::ShardedPlan),
    Split(DeviceGroup, tridiag_gpu::DistributedPlan),
}

impl RoutePlan {
    /// The plan `route` runs on a batch handed over in `host` layout.
    fn build(
        route: Route,
        solver: &GpuTridiagSolver,
        host: Layout,
        m: usize,
        n: usize,
        elem_bytes: usize,
    ) -> Result<RoutePlan, Failure> {
        let plan = match route {
            Route::Single => solver
                .plan_geometry_for_host(host, m, n, elem_bytes)
                .map(RoutePlan::Single),
            Route::Sharded(g) => solver
                .plan_geometry_group(&g, m, n, elem_bytes)
                .map(|p| RoutePlan::Sharded(g, p)),
            Route::Split(g) => solver
                .plan_geometry_split(&g, n, elem_bytes)
                .map(|p| RoutePlan::Split(g, p)),
        };
        plan.map_err(|e| Failure::Error(e.to_string()))
    }

    fn describe(&self) -> String {
        match self {
            RoutePlan::Single(p) => p.describe(),
            RoutePlan::Sharded(_, p) => p.describe(),
            RoutePlan::Split(_, p) => p.describe(),
        }
    }

    /// Which planner rule decided the plan on `device`, with Table
    /// III's `k` beside the chosen one (the full-batch reference's for
    /// a sharded plan; none for a row split).
    fn rule_line(&self, device: &DeviceSpec) -> Option<String> {
        let p = match self {
            RoutePlan::Single(p) => p,
            RoutePlan::Sharded(_, p) => &p.reference,
            RoutePlan::Split(..) => return None,
        };
        let (m, n, bytes) = (p.m, p.n, p.elem_bytes);
        let paper = cost::table3_decision(device, &p.config, m, n, bytes);
        Some(format!(
            "  rule: {} -> k={} (Table III: k={})",
            cost::rule(device, &p.config, m, n, bytes),
            p.k,
            paper.k
        ))
    }

    fn to_json(&self) -> gpu_sim::Json {
        match self {
            RoutePlan::Single(p) => p.to_json(),
            RoutePlan::Sharded(_, p) => p.to_json(),
            RoutePlan::Split(_, p) => p.to_json(),
        }
    }

    /// Statically verify the plan: the human-readable report, its JSON
    /// form, and one line per finding (empty = certified clean).
    fn verify(&self, device: &DeviceSpec) -> (String, gpu_sim::Json, Vec<String>) {
        let group = match self {
            RoutePlan::Single(p) => {
                let r = tridiag_gpu::verify_plan(device, p);
                let problems = r.findings.iter().map(|f| f.to_string()).collect();
                return (r.to_string(), r.to_json(), problems);
            }
            RoutePlan::Sharded(g, p) => tridiag_gpu::verify_sharded_plan(g, p),
            RoutePlan::Split(g, p) => tridiag_gpu::verify_distributed_plan(g, p),
        };
        (group.to_string(), group.to_json(), group.messages())
    }
}

/// The one print path of `plan`, `verify` and `solve --dry-run`: the
/// plan (described, or as JSON) when `show_plan`, then its static
/// verification when `verify` — as JSON only if the plan itself was not
/// printed. Verification findings exit 2.
fn print_plan(
    plan: &RoutePlan,
    device: &DeviceSpec,
    json: bool,
    show_plan: bool,
    verify: bool,
) -> Result<(), Failure> {
    if show_plan {
        if json {
            outln!("{}", plan.to_json());
        } else {
            out!("{}", plan.describe());
            if let Some(line) = plan.rule_line(device) {
                outln!("{line}");
            }
        }
    }
    if !verify {
        return Ok(());
    }
    let (text, doc, problems) = plan.verify(device);
    if !json {
        outln!("{text}");
    } else if !show_plan {
        outln!("{doc}");
    }
    if problems.is_empty() {
        Ok(())
    } else {
        Err(Failure::Findings(format!(
            "plan verification:\n  - {}",
            problems.join("\n  - ")
        )))
    }
}

/// `plan` and `verify` for one geometry: parse it, resolve its route,
/// build the plan without executing anything and print it through
/// [`print_plan`].
fn plan_geometry_cmd(a: &Args, show_plan: bool, verify: bool) -> Result<(), Failure> {
    let device = device_by_name(a.get("device").unwrap_or("gtx480"))?;
    let split = split_n_opt(a)?;
    let m: usize = a.get_or("m", if split.is_some() { 1 } else { 64 })?;
    let n: usize = a.get_or("n", 1024)?;
    let elem_bytes = elem_bytes(a)?;
    let layout = layout_choice(a)?;
    let config = GpuSolverConfig {
        layout,
        ..Default::default()
    };
    let solver = GpuTridiagSolver::new(device.clone(), config);
    let route = resolve_route(&solver, device_group(a, &device)?, split, m, n, elem_bytes)?;
    let plan = RoutePlan::build(route, &solver, host_layout(layout), m, n, elem_bytes)?;
    print_plan(&plan, &device, a.flag("json"), show_plan, verify)
}

/// Parse `--layout`: the planner's memory-layout choice. `auto`
/// (default) follows the transition rule (interleaved iff it picks
/// `k = 0`); `contiguous`/`interleaved` pin the device layout
/// regardless of what the rule would pick.
fn layout_choice(a: &Args) -> Result<LayoutChoice, String> {
    match a.get("layout").unwrap_or("auto") {
        "auto" => Ok(LayoutChoice::Auto),
        "contiguous" => Ok(LayoutChoice::Contiguous),
        "interleaved" => Ok(LayoutChoice::Interleaved),
        other => Err(format!(
            "unknown layout {other:?} (expected auto, contiguous or interleaved)"
        )),
    }
}

/// The layout `solve` hands its batch over in: interleaved when
/// `--layout interleaved` pins the device layout, so the planner elides
/// both conversions; contiguous otherwise. `plan` and `verify` plan for
/// the same host layout, so they show the plan the solve runs.
fn host_layout(choice: LayoutChoice) -> Layout {
    match choice {
        LayoutChoice::Interleaved => Layout::Interleaved,
        LayoutChoice::Auto | LayoutChoice::Contiguous => Layout::Contiguous,
    }
}

/// Parse `--precision` for `solve`, `plan`, `verify` and `profile`:
/// the element width in bytes, 8 for `f64` (default) or 4 for `f32`.
fn elem_bytes(a: &Args) -> Result<usize, String> {
    match a.get("precision").unwrap_or("f64") {
        "f64" => Ok(8),
        "f32" => Ok(4),
        other => Err(format!("--precision {other:?} (expected f64 or f32)")),
    }
}

fn usage() -> &'static str {
    "usage:\n  tridiag solve   --m M --n N [--engine gpu|cpu|cpu-mt|davidson|zhang] \
     [--precision f64|f32] [--device gtx480|gtx280|c2050] [--devices G] \
     [--split-n D|auto] [--seed S] [--layout auto|contiguous|interleaved] \
     [--verbose] [--sanitize] [--trace FILE] [--json] [--dry-run]\n  \
     tridiag plan    --m M --n N [--precision f64|f32] [--device D] [--devices G] \
     [--split-n D|auto] [--layout L] [--json] [--verify]\n  \
     tridiag verify  --m M --n N [--precision f64|f32] [--device D] [--devices G] \
     [--split-n D|auto] [--layout L] [--json]\n  \
     tridiag profile --m M --n N [--precision f64|f32] [--device D] [--seed S] \
     [--out FILE] | --zoo [--out FILE]\n  \
     tridiag compare --m M --n N [--seed S]\n  \
     tridiag tune    --n N [--m-list 1,16,256] | --emit FILE\n  \
     tridiag info    [--device gtx480]\n  \
     tridiag lint    [--verbose]\n  \
     tridiag serve   [--requests R] [--clients C] [--window US] [--depth Q] \
     [--m M] [--n N]\n  \
     \u{20}           [--precision f64|f32|mixed] [--device D] [--devices G] [--seed S]\n  \
     \u{20}           [--telemetry DIR]\n  \
     tridiag stats   [--requests R] [--window US] [--m M] [--n N] [--seed S]\n  \
     \u{20}           [--precision f64|f32|mixed] [--device D] [--devices G] [--top K]\n  \
     \u{20}           [--json] [--out DIR]\n\n\
     solve service:\n  \
     serve       start the threaded solve service, submit R requests from C\n  \
     \u{20}           concurrent client threads through the coalescing queue, and\n  \
     \u{20}           cross-check every answer bit-for-bit against a solo solve;\n  \
     \u{20}           exits 2 when any answer drifts or a ticket is lost;\n  \
     \u{20}           --telemetry DIR also writes metrics.json, events.jsonl and\n  \
     \u{20}           trace.json there and validates all three (violations exit 2)\n  \
     stats       run a deterministic modeled workload and print the unified\n  \
     \u{20}           telemetry read-out: counter/gauge/histogram tables (top K\n  \
     \u{20}           labels per family), latency attribution, SLO account, and\n  \
     \u{20}           the exact-partition + event-replay + request-chain checks\n  \
     \u{20}           (any violation exits 2); --json prints the raw metrics\n  \
     \u{20}           snapshot, --out DIR writes the telemetry artifact set\n\n\
     multi-device (gpu engine only):\n  \
     --devices G shard the batch across a device group: a count \
     (--devices 4 =\n  \
     \u{20}           four copies of --device) or a comma list of names\n  \
     \u{20}           (--devices gtx480,gtx280); systems split contiguously \u{b1}1,\n  \
     \u{20}           one worker thread per device, modeled wall-clock = max over\n  \
     \u{20}           devices; homogeneous groups are bit-identical to one device\n  \
     --split-n D split ONE system's N rows across D devices (requires m = 1):\n  \
     \u{20}           per-device partial elimination, a 2D-unknown reduced\n  \
     \u{20}           interface solve on the primary, then distributed back\n  \
     \u{20}           substitution; lets a single system too large for one\n  \
     \u{20}           device's memory solve across the group; D = 1 is the\n  \
     \u{20}           bit-identical single-device path; with --devices G the\n  \
     \u{20}           group supplies the devices (sizes must agree); --split-n\n  \
     \u{20}           auto splits only when the single-device planner rejects N\n  \
     \u{20}           as too large\n\n\
     layout (gpu engine only):\n  \
     --layout L  memory-layout choice for the planner: auto (default) follows\n  \
     \u{20}           the transition rule (interleaved iff k = 0), contiguous/\n  \
     \u{20}           interleaved pin the device layout; solve --layout\n  \
     \u{20}           interleaved also hands the batch over pre-interleaved,\n  \
     \u{20}           eliding both layout conversions (plan and verify show\n  \
     \u{20}           that elided plan)\n\n\
     checks (gpu engine only):\n  \
     --sanitize  run every kernel under the sanitizer, the one checker of\n  \
     \u{20}           shared-memory races, out-of-bounds lanes, uninitialized\n  \
     \u{20}           reads and divergent barriers\n  \
     lint        run every zoo kernel under the sanitizer and read its\n  \
     \u{20}           counter findings (uncoalesced global accesses, 32-way\n  \
     \u{20}           bank conflicts) per phase; any finding exits 2\n\n\
     observability (gpu engine only):\n  \
     --trace F   write the solve's span/phase trace as Chrome trace-event JSON\n  \
     --json      print the full solve report (timings, phases, plan,\n  \
     \u{20}           trace) as one JSON document instead of the human summary\n  \
     --dry-run   plan the solve (k, mapping, kernel sequence, buffer footprint)\n  \
     \u{20}           and print it without launching any kernel\n  \
     plan        build and print the solve plan for a geometry (nothing\n  \
     \u{20}           executes); --verify also runs the static plan verifier\n  \
     verify      statically certify a plan (slot dataflow, liveness, layout\n  \
     \u{20}           pairing, exact transfer/launch/peak-memory certificate)\n  \
     \u{20}           without executing\n  \
     profile     run a solve (or, with --zoo, every zoo kernel), write the\n  \
     \u{20}           trace to --out (default trace.json) and print the per-phase\n  \
     \u{20}           profile; exits 2 on phase-sum or trace-schema violations\n\n\
     exit codes: 0 = ok, 1 = usage/solve error (incl. an option the command\n  \
     \u{20}           does not take), 2 = sanitizer, counter, phase-sum,\n  \
     \u{20}           trace-schema, plan-verification or telemetry\n  \
     \u{20}           (metrics-schema, exact-partition, event-replay) findings"
}

impl From<String> for Failure {
    fn from(e: String) -> Self {
        Failure::Error(e)
    }
}

fn cmd_solve(a: &Args) -> Result<(), Failure> {
    if elem_bytes(a)? == 4 {
        solve_typed::<f32>(a)
    } else {
        solve_typed::<f64>(a)
    }
}

/// `tridiag solve` at scalar type `S`: parse the options, solve one
/// random batch on the chosen engine and route, print the summary (or
/// the report JSON) and every requested check.
fn solve_typed<S: tridiag_gpu::GpuScalar>(a: &Args) -> Result<(), Failure> {
    let split = split_n_opt(a)?;
    let m: usize = a.get_or("m", if split.is_some() { 1 } else { 64 })?;
    let n: usize = a.get_or("n", 1024)?;
    let seed: u64 = a.get_or("seed", 42u64)?;
    let engine = a.get("engine").unwrap_or("gpu");
    let device = device_by_name(a.get("device").unwrap_or("gtx480"))?;
    let sanitize = a.flag("sanitize");
    let trace = a.get("trace");
    let json = a.flag("json");
    let dry_run = a.flag("dry-run");
    let verify = a.flag("verify");
    let layout = layout_choice(a)?;
    let group = device_group(a, &device)?;
    let gpu_only = [
        ("--devices", group.is_some()),
        ("--split-n", split.is_some()),
        ("--layout", layout != LayoutChoice::Auto),
        ("--sanitize", sanitize),
        ("--trace", trace.is_some()),
        ("--json", json),
        ("--dry-run", dry_run),
        ("--verify", verify),
    ];
    if let Some((flag, _)) = gpu_only.iter().find(|&&(_, set)| set && engine != "gpu") {
        return Err(Failure::Error(format!(
            "{flag} only applies to the gpu engine (got {engine:?})"
        )));
    }
    let config = GpuSolverConfig {
        exec: gpu_sim::ExecConfig { sanitize },
        layout,
        ..Default::default()
    };
    let solver = GpuTridiagSolver::new(device.clone(), config);
    let elem_bytes = <S as gpu_sim::Elem>::BYTES;
    let route = resolve_route(&solver, group, split, m, n, elem_bytes)?;
    let fits_note = split.is_some() && matches!(route, Route::Single) && !json;
    if dry_run {
        // Plan only: print k, mapping, kernel sequence and buffer
        // footprint without launching a single kernel.
        if fits_note {
            outln!("split       : n = {n} fits on one device; no split needed");
        }
        let plan = RoutePlan::build(route, &solver, host_layout(layout), m, n, elem_bytes)?;
        print_plan(&plan, &device, json, true, false)?;
        if !json {
            outln!("dry run     : no kernels launched");
        }
        return Ok(());
    }
    let batch: SystemBatch<S> = random_batch(m, n, seed);
    // A forced interleaved layout also hands the batch over already
    // interleaved — the planner then elides both `Convert` steps, so
    // the solve exercises the conversion-free path end to end.
    let host = host_layout(layout);
    let batch = if batch.layout() == host {
        batch
    } else {
        batch.to_layout(host)
    };
    let t0 = std::time::Instant::now();
    let mut gpu_report = None;
    let (x, modeled_us): (Vec<S>, Option<f64>) = match engine {
        "gpu" => {
            let (x, report) = match &route {
                Route::Single => solver.solve_batch(&batch),
                Route::Sharded(g) => solver.solve_batch_group(g, &batch),
                Route::Split(g) => solver.solve_batch_split(g, &batch),
            }
            .map_err(|e| e.to_string())?;
            if a.flag("verbose") && !json {
                out!("{report}");
            }
            let us = report.total_us;
            gpu_report = Some(report);
            (x, Some(us))
        }
        "cpu" => (
            cpu_ref::solve_batch_sequential(&batch).map_err(|e| e.to_string())?,
            None,
        ),
        "cpu-mt" => (
            cpu_ref::solve_batch_threaded(&batch, &cpu_ref::ThreadPool::per_cpu())
                .map_err(|e| e.to_string())?,
            None,
        ),
        "davidson" => {
            let (x, report) = davidson::solve_batch(&device, &batch).map_err(|e| e.to_string())?;
            (x, Some(report.total_us))
        }
        "zhang" => {
            let (x, report) =
                zhang::solve_batch(&device, &batch, None).map_err(|e| e.to_string())?;
            (x, Some(report.total_us))
        }
        other => return Err(Failure::Error(format!("unknown engine {other:?}"))),
    };
    let host = t0.elapsed();
    let resid = batch.max_relative_residual(&x).map_err(|e| e.to_string())?;
    if let (Some(path), Some(rep)) = (trace, &gpu_report) {
        let text = rep.trace.to_chrome_json();
        gpu_sim::validate_chrome_json(&text)
            .map_err(|p| Failure::Error(format!("trace schema: {}", p.join("; "))))?;
        std::fs::write(path, &text).map_err(|e| format!("writing {path}: {e}"))?;
    }
    if json {
        let rep = gpu_report
            .as_ref()
            .ok_or_else(|| Failure::Error("--json requires the gpu engine".into()))?;
        outln!("{}", rep.to_json());
    } else {
        outln!("engine      : {engine}");
        outln!("batch       : M = {m}, N = {n} ({})", S::NAME);
        match &route {
            Route::Split(g) => outln!(
                "devices     : {} ({}, one system row-split)",
                g.len(),
                g.label()
            ),
            Route::Sharded(g) => outln!("devices     : {} ({})", g.len(), g.label()),
            Route::Single if fits_note => {
                outln!("split       : n = {n} fits on one device; no split needed")
            }
            Route::Single => {}
        }
        if let Some(ds) = gpu_report.as_ref().and_then(|r| r.distributed.as_ref()) {
            outln!(
                "distributed : reduced {} unknowns (k = {}) on the primary; \
                 gather {} B, scatter {} B, back-sub {} flops",
                ds.reduced_n,
                ds.reduced_k,
                ds.gather_bytes,
                ds.scatter_bytes,
                ds.backsub_flops
            );
        }
        if let Some(us) = modeled_us {
            if !matches!(route, Route::Single) {
                outln!("modeled time: {us:.1} us (kernel wall-clock, max over devices)");
            } else {
                outln!("modeled time: {us:.1} us (simulated device)");
            }
        }
        outln!("host time   : {host:?} (simulator/solver wall-clock)");
        outln!("residual    : {resid:.3e}");
        if let Some(path) = trace {
            outln!("trace       : wrote {path}");
        }
    }
    let mut findings = Vec::new();
    if let Some(rep) = &gpu_report {
        // (requested, status line as (label, clean text, failure text),
        // finding heading, problems); phase sums are always checked.
        let checks = [
            (
                verify,
                Some((
                    "verify",
                    format!(
                        "clean (peak resident {} bytes; certificate matched measured stats \
                         exactly)",
                        rep.verify.prediction.peak_resident_bytes
                    ),
                    "FINDINGS",
                )),
                "plan verification",
                rep.verify
                    .findings
                    .iter()
                    .map(|f| f.to_string())
                    .chain(
                        rep.verify_mismatches
                            .iter()
                            .map(|m| format!("cross-check {m}")),
                    )
                    .collect::<Vec<_>>(),
            ),
            (
                true,
                None,
                "phase-sum violations",
                rep.phase_sum_mismatches.clone(),
            ),
            (
                sanitize,
                Some((
                    "sanitizer",
                    "clean (no races, OOB, uninit reads or divergent barriers)".into(),
                    "VIOLATIONS",
                )),
                "sanitizer violations",
                rep.violations.iter().map(|v| v.to_string()).collect(),
            ),
        ];
        for (requested, status, heading, problems) in checks {
            if !requested {
                continue;
            }
            if let Some((label, clean, failed)) = status.filter(|_| !json) {
                let state = if problems.is_empty() { &clean } else { failed };
                outln!("{label:<12}: {state}");
            }
            if !problems.is_empty() {
                findings.push(format!("{heading}:\n  - {}", problems.join("\n  - ")));
            }
        }
    }
    if !findings.is_empty() {
        return Err(Failure::Findings(findings.join("\n")));
    }
    if resid > tridiag_core::verify::default_tolerance::<S>() * 1e3 {
        return Err(Failure::Error(format!(
            "residual {resid:.3e} exceeds tolerance"
        )));
    }
    Ok(())
}

/// `tridiag plan` — build and print the declarative solve plan for a
/// geometry without launching a single kernel; `--verify` also
/// certifies it. The figure-sweep plans are schema-checked by the
/// `plan_snapshots` test suite.
fn cmd_plan(a: &Args) -> Result<(), Failure> {
    plan_geometry_cmd(a, true, a.flag("verify"))
}

/// `tridiag verify` — statically certify a solve plan with the plan
/// verifier ([`tridiag_gpu::verify`]): slot dataflow, liveness, layout
/// pairing and the exact resource certificate, with no kernel launched.
/// The figure-sweep certificates are executed and cross-checked by the
/// `layout_cost` and `verify_props` test suites; the corruption classes
/// every diagnostic must catch live in the `verify_negative` suite.
fn cmd_verify(a: &Args) -> Result<(), Failure> {
    plan_geometry_cmd(a, false, true)
}

/// Validate and write a Chrome-trace document; schema violations are
/// findings (exit 2), I/O failures are errors (exit 1).
fn write_trace(out: &str, text: &str) -> Result<(), Failure> {
    gpu_sim::validate_chrome_json(text).map_err(|p| {
        Failure::Findings(format!(
            "trace schema violations:\n  - {}",
            p.join("\n  - ")
        ))
    })?;
    std::fs::write(out, text).map_err(|e| Failure::Error(format!("writing {out}: {e}")))?;
    Ok(())
}

/// `tridiag profile` — run one solve (or, with `--zoo`, every shipped
/// kernel) and emit the observability artifacts: a Chrome trace-event
/// JSON file plus a per-phase terminal profile. Exits 2 when a phase
/// breakdown fails to sum to its kernel totals or the exported trace
/// violates the schema.
fn cmd_profile(a: &Args) -> Result<(), Failure> {
    let out = a.get("out").unwrap_or("trace.json");
    let elem_bytes = elem_bytes(a)?;
    if a.flag("zoo") {
        return profile_zoo(out);
    }
    let m: usize = a.get_or("m", 64)?;
    let n: usize = a.get_or("n", 1024)?;
    let seed: u64 = a.get_or("seed", 42u64)?;
    let device = device_by_name(a.get("device").unwrap_or("gtx480"))?;
    if elem_bytes == 4 {
        profile_typed::<f32>(m, n, seed, device, out)
    } else {
        profile_typed::<f64>(m, n, seed, device, out)
    }
}

fn profile_typed<S: tridiag_gpu::GpuScalar>(
    m: usize,
    n: usize,
    seed: u64,
    device: DeviceSpec,
    out: &str,
) -> Result<(), Failure> {
    let batch: SystemBatch<S> = random_batch(m, n, seed);
    let solver = GpuTridiagSolver::new(device, GpuSolverConfig::default());
    let (x, report) = solver.solve_batch(&batch).map_err(|e| e.to_string())?;
    let resid = batch.max_relative_residual(&x).map_err(|e| e.to_string())?;
    out!("{}", report.profile_report());
    write_trace(out, &report.trace.to_chrome_json())?;
    outln!("trace       : wrote {out} (open in chrome://tracing or ui.perfetto.dev)");
    outln!("residual    : {resid:.3e}");
    if !report.is_phase_sum_clean() {
        return Err(Failure::Findings(format!(
            "phase-sum violations:\n  - {}",
            report.phase_sum_mismatches.join("\n  - ")
        )));
    }
    Ok(())
}

/// `tridiag profile --zoo` — profile every zoo kernel/geometry: one
/// span per entry (phase children inside), laid out sequentially on the
/// modeled-time axis, plus a top-phases table across the whole zoo.
fn profile_zoo(out: &str) -> Result<(), Failure> {
    let entries = tridiag_gpu::zoo::run_zoo().map_err(|e| e.to_string())?;
    let mut trace = gpu_sim::Trace::new("tridiag zoo profile");
    let mut cursor = 0.0f64;
    let mut rows: Vec<(String, f64, &'static str)> = Vec::new();
    let mut phase_sum_bad = Vec::new();
    for e in &entries {
        for mm in e.stats.phase_sum_mismatches() {
            phase_sum_bad.push(format!("{} [{}]: {mm}", e.kernel, e.geometry));
        }
        trace.span(
            format!("kernel:{}", e.kernel),
            "kernel",
            0,
            cursor,
            e.timing.total_us,
            vec![
                ("geometry".into(), gpu_sim::Json::str(e.geometry.clone())),
                (
                    "bound".into(),
                    gpu_sim::Json::str(format!("{:?}", e.timing.bound)),
                ),
            ],
        );
        let mut t = cursor + e.timing.launch_us;
        for p in &e.timing.phases {
            trace.span(
                format!("phase:{}", p.label),
                "phase",
                0,
                t,
                p.us,
                Vec::new(),
            );
            rows.push((format!("{}/{}", e.kernel, p.label), p.us, p.label));
            t += p.us;
        }
        cursor += e.timing.total_us;
    }
    rows.sort_by(|a, b| b.1.total_cmp(&a.1));
    outln!(
        "zoo profile : {} kernel/geometry entries, {:.1} us modeled total",
        entries.len(),
        cursor
    );
    outln!("{:<34} {:>10}", "top phases (kernel/phase)", "us");
    for (name, us, _) in rows.iter().take(12) {
        outln!("{name:<34} {us:>10.3}");
    }
    write_trace(out, &trace.to_chrome_json())?;
    outln!("trace       : wrote {out} (open in chrome://tracing or ui.perfetto.dev)");
    if !phase_sum_bad.is_empty() {
        return Err(Failure::Findings(format!(
            "phase-sum violations:\n  - {}",
            phase_sum_bad.join("\n  - ")
        )));
    }
    Ok(())
}

/// `tridiag lint` — run the kernel zoo under the sanitizer: every
/// shipped kernel at several launch geometries, each checked for
/// sanitizer violations and for the performance findings its measured
/// counters carry ([`gpu_sim::KernelStats::findings`]).
fn cmd_lint(a: &Args) -> Result<(), Failure> {
    let verbose = a.flag("verbose");
    let entries = tridiag_gpu::zoo::run_zoo().map_err(|e| e.to_string())?;
    let mut bad = 0usize;
    for e in &entries {
        let findings = e.stats.findings();
        let status = if e.is_clean() {
            "clean".to_string()
        } else {
            bad += 1;
            format!(
                "{} sanitizer violation(s), {} counter finding(s)",
                e.violations.len(),
                findings.len()
            )
        };
        outln!("{:<18} {:<28} {status}", e.kernel, e.geometry);
        for v in &e.violations {
            outln!("    {v}");
        }
        for f in &findings {
            outln!("    {f}");
        }
        if verbose {
            let t = &e.stats.total;
            outln!(
                "    gld_t={} gst_t={} uncoalesced={} replays={} worst_bank_degree={} barriers={}",
                t.global_load_transactions,
                t.global_store_transactions,
                t.uncoalesced_global_accesses,
                t.bank_conflict_replays,
                t.bank_conflict_degree_peak,
                t.barriers
            );
        }
    }
    outln!(
        "{} kernel/geometry entries checked, {} with findings",
        entries.len(),
        bad
    );
    if bad > 0 {
        return Err(Failure::Findings(format!(
            "{bad} zoo entr{} with findings",
            if bad == 1 { "y" } else { "ies" }
        )));
    }
    Ok(())
}

fn cmd_compare(a: &Args) -> Result<(), Failure> {
    let m: usize = a.get_or("m", 16)?;
    let n: usize = a.get_or("n", 512)?;
    let seed: u64 = a.get_or("seed", 42u64)?;
    let batch: SystemBatch<f64> = random_batch(m, n, seed);
    let reference = cpu_ref::solve_batch_sequential(&batch).map_err(|e| e.to_string())?;

    outln!(
        "{:<12} {:>14} {:>14}",
        "engine",
        "max |Δ| vs cpu",
        "residual"
    );
    let report = |name: &str, x: &[f64]| -> Result<(), Failure> {
        let d = x
            .iter()
            .zip(&reference)
            .map(|(a, b)| (a - b).abs())
            .fold(0.0f64, f64::max);
        let r = batch
            .max_relative_residual(x)
            .map_err(|e| format!("{name} residual: {e}"))?;
        outln!("{name:<12} {d:>14.3e} {r:>14.3e}");
        Ok(())
    };
    report("cpu", &reference)?;
    let mt = cpu_ref::solve_batch_threaded(&batch, &cpu_ref::ThreadPool::per_cpu())
        .map_err(|e| e.to_string())?;
    report("cpu-mt", &mt)?;
    let (g, _) = GpuTridiagSolver::gtx480()
        .solve_batch(&batch)
        .map_err(|e| e.to_string())?;
    report("gpu", &g)?;
    let (dv, _) =
        davidson::solve_batch(&DeviceSpec::gtx480(), &batch).map_err(|e| e.to_string())?;
    report("davidson", &dv)?;
    if n <= zhang::max_system_size(&DeviceSpec::gtx480(), 8) {
        let (z, _) =
            zhang::solve_batch(&DeviceSpec::gtx480(), &batch, None).map_err(|e| e.to_string())?;
        report("zhang", &z)?;
    } else {
        outln!("{:<12} {:>14}", "zhang", "N too large");
    }
    Ok(())
}

/// `tridiag tune`: for each `M`, the planner's own search on the stock
/// GTX480 at f64 — every candidate `(k, mapping)` timed, the pick
/// printed with its modeled time, `k = 0`'s time and Table III's `k`.
fn cmd_tune(a: &Args) -> Result<(), Failure> {
    if let Some(out) = a.get("emit") {
        return emit_tuned_table(a, out);
    }
    let n: usize = a.get_or("n", 4096)?;
    let m_values = a
        .get_list("m-list")?
        .unwrap_or_else(|| vec![1, 16, 64, 256, 1024]);
    let spec = DeviceSpec::gtx480();
    outln!(
        "tuning (k, mapping) on simulated {} at N = {n}, f64…",
        spec.name
    );
    outln!(
        "{:>8} {:>4} {:>24} {:>12} {:>12} {:>12}",
        "M",
        "k",
        "mapping",
        "tuned [us]",
        "k=0 [us]",
        "Table III k"
    );
    for m in m_values {
        let timed = autotune::candidates(&spec, 8, m, n).map_err(|e| e.to_string())?;
        let paper = cost::table3_decision(&spec, &GpuSolverConfig::default(), m, n, 8);
        let (Some(best), Some(k0)) = (autotune::pick(&timed, paper), timed.first()) else {
            return Err(Failure::Error(format!("no candidate at m={m} n={n}")));
        };
        outln!(
            "{:>8} {:>4} {:>24} {:>12.1} {:>12.1} {:>12}",
            m,
            best.decision.k,
            format!("{:?}", best.decision.mapping),
            best.us,
            k0.us,
            paper.k
        );
    }
    Ok(())
}

/// `tridiag tune --emit FILE`: regenerate the planner's tuned decision
/// table for the stock GTX480 at both widths and write its Rust source
/// to `FILE` (`crates/tridiag-gpu/src/plan/tuned.rs` in the source
/// tree). The file is written only once every cell has tuned.
fn emit_tuned_table(a: &Args, out: &str) -> Result<(), Failure> {
    if let Some(other) = ["n", "m-list"].into_iter().find(|o| a.get(o).is_some()) {
        return Err(Failure::Error(format!(
            "--emit tunes the stock GTX480's table; --{other} does not apply"
        )));
    }
    let spec = DeviceSpec::gtx480();
    let mut tables = Vec::new();
    for (label, bytes) in [("f32", 4), ("f64", 8)] {
        let table = autotune::tune_table(&spec, bytes, |m_log2, n_log2, (k, mapping)| {
            eprintln!("{label} M=2^{m_log2} N=2^{n_log2}: k={k} {mapping:?}");
        })
        .map_err(|e| e.to_string())?;
        tables.push(table);
    }
    let text = autotune::emit_table(&tables[0], &tables[1]);
    std::fs::write(out, text).map_err(|e| Failure::Error(format!("writing {out}: {e}")))?;
    outln!("wrote {out}");
    Ok(())
}

fn cmd_info(a: &Args) -> Result<(), Failure> {
    let device = device_by_name(a.get("device").unwrap_or("gtx480"))?;
    outln!("device              : {}", device.name);
    outln!("SMs                 : {}", device.num_sms);
    outln!("cores/SM            : {}", device.cores_per_sm);
    outln!("clock               : {:.3} GHz", device.clock_ghz);
    outln!(
        "shared memory/SM    : {} KiB",
        device.shared_mem_per_sm / 1024
    );
    outln!("max threads/SM      : {}", device.max_threads_per_sm);
    outln!(
        "DRAM bandwidth      : {:.1} GB/s",
        device.dram_bandwidth_gbps
    );
    outln!(
        "DRAM latency        : {} cycles",
        device.dram_latency_cycles
    );
    outln!(
        "peak f32 / f64      : {:.0} / {:.0} GFLOP/s",
        device.peak_flops(gpu_sim::Precision::F32) / 1e9,
        device.peak_flops(gpu_sim::Precision::F64) / 1e9
    );
    outln!(
        "parallelism P       : {} resident threads",
        device.parallelism()
    );
    outln!();
    outln!("occupancy sheet (threads/block, shared KiB -> blocks/SM):");
    for &tpb in &[64u32, 128, 256, 512] {
        let mut cells = Vec::new();
        for &kb in &[0usize, 8, 16, 32] {
            let o = gpu_sim::occupancy(&device, tpb, kb * 1024, 32)
                .map(|o| o.blocks_per_sm.to_string())
                .unwrap_or_else(|_| "-".into());
            cells.push(format!("{kb:>2}KiB:{o}"));
        }
        outln!("  {tpb:>4} threads: {}", cells.join("  "));
    }
    outln!();
    let solver = GpuTridiagSolver::new(device, GpuSolverConfig::default());
    outln!("max k (f64 window)  : {}", solver.max_k_for_shared(1, 8));
    outln!(
        "in-shared method cap: {} rows (f64) — tiled PCR has no cap",
        zhang::max_system_size(solver.spec(), 8)
    );
    Ok(())
}

/// Build the deterministic request payloads `serve`/`stats`
/// submit: fixed geometry, seeds derived from `--seed`, precision
/// `f64`, `f32` or `mixed` (alternating).
fn service_payloads(
    count: usize,
    m: usize,
    n: usize,
    seed: u64,
    precision: &str,
) -> Result<Vec<tridiag_service::Payload>, String> {
    use tridiag_service::Payload;
    (0..count)
        .map(|i| {
            let s = seed.wrapping_add(i as u64);
            match precision {
                "f64" => Ok(Payload::F64(random_batch::<f64>(m, n, s))),
                "f32" => Ok(Payload::F32(random_batch::<f32>(m, n, s))),
                "mixed" => Ok(if i % 2 == 0 {
                    Payload::F64(random_batch::<f64>(m, n, s))
                } else {
                    Payload::F32(random_batch::<f32>(m, n, s))
                }),
                other => Err(format!(
                    "--precision {other:?} (expected f64, f32 or mixed)"
                )),
            }
        })
        .collect()
}

fn cmd_serve(a: &Args) -> Result<(), Failure> {
    use std::sync::Arc;
    use tridiag_service::{solo_solution, ServiceConfig, ServiceError, SolveService};

    let requests: usize = a.get_or("requests", 8)?;
    let clients: usize = a.get_or("clients", 4)?;
    let window: f64 = a.get_or("window", 10.0f64)?;
    let depth: usize = a.get_or("depth", 64)?;
    let m: usize = a.get_or("m", 2)?;
    let n: usize = a.get_or("n", 256)?;
    let seed: u64 = a.get_or("seed", 42u64)?;
    let precision = a.get("precision").unwrap_or("mixed");
    if requests == 0 || clients == 0 {
        return Err(Failure::Error(
            "--requests and --clients must be > 0".into(),
        ));
    }
    let device = device_by_name(a.get("device").unwrap_or("gtx480"))?;
    let group = device_group(a, &device)?.unwrap_or_else(|| DeviceGroup::single(device));
    let cfg = ServiceConfig {
        window_us: window,
        queue_depth: depth,
        ..ServiceConfig::default()
    };
    let payloads = service_payloads(requests, m, n, seed, precision)?;

    outln!(
        "serve: {requests} requests from {clients} clients on {} \
         (window {window} us, depth {depth}, {precision})",
        group.label()
    );

    let service = Arc::new(SolveService::start(group.clone(), cfg));
    let mut handles = Vec::new();
    for c in 0..clients {
        // Client c owns payloads c, c+clients, c+2*clients, ...
        let mine: Vec<_> = payloads.iter().skip(c).step_by(clients).cloned().collect();
        let service = Arc::clone(&service);
        let group = group.clone();
        handles.push(std::thread::spawn(move || {
            let mut ok = 0usize;
            let mut problems = Vec::new();
            for payload in mine {
                match service.submit(payload.clone()) {
                    Ok(ticket) => {
                        let id = ticket.id;
                        let resp = ticket.wait();
                        if resp.id != id {
                            problems
                                .push(format!("client {c}: ticket {id} answered as {}", resp.id));
                            continue;
                        }
                        match resp.result {
                            Ok(sol) => match solo_solution(&group, cfg, &payload) {
                                Ok(solo) if solo.hash() == sol.hash() => ok += 1,
                                Ok(solo) => problems.push(format!(
                                    "client {c} request {id}: coalesced hash \
                                     {:016x} != solo {:016x}",
                                    sol.hash(),
                                    solo.hash()
                                )),
                                Err(e) => problems
                                    .push(format!("client {c} request {id}: solo solve: {e}")),
                            },
                            Err(ServiceError::Overloaded { depth }) => problems.push(format!(
                                "client {c} request {id}: overloaded at depth {depth}"
                            )),
                            Err(e) => {
                                problems.push(format!("client {c} request {id}: solve failed: {e}"))
                            }
                        }
                    }
                    Err(e) => problems.push(format!("client {c}: admission refused: {e}")),
                }
            }
            (ok, problems)
        }));
    }

    let mut ok = 0usize;
    let mut problems = Vec::new();
    for (c, h) in handles.into_iter().enumerate() {
        let (o, p) = h
            .join()
            .map_err(|_| Failure::Error(format!("client thread {c} panicked")))?;
        ok += o;
        problems.extend(p);
    }
    let service = Arc::try_unwrap(service)
        .map_err(|_| Failure::Error("client threads still hold the service".into()))?;
    let stats = if let Some(dir) = a.get("telemetry") {
        let (stats, telemetry) = service.shutdown_with_telemetry();
        let (metrics, events, trace, findings) = telemetry_artifacts(&telemetry, "tridiag-serve");
        write_telemetry(dir, &metrics, &events, &trace)?;
        outln!("  telemetry: wrote {dir}/metrics.json, events.jsonl, trace.json");
        problems.extend(findings);
        stats
    } else {
        service.shutdown()
    };

    outln!(
        "  answered {ok}/{requests} bit-identical to solo; \
         {} batches, cache {}/{} hits, modeled makespan {:.1} us",
        stats.batches,
        stats.cache.hits,
        stats.cache.lookups,
        stats.clock_us
    );
    if !problems.is_empty() {
        return Err(Failure::Findings(problems.join("\n")));
    }
    if ok != requests {
        return Err(Failure::Findings(format!(
            "only {ok}/{requests} requests verified"
        )));
    }
    Ok(())
}

/// Render the telemetry artifact set — `metrics.json`, `events.jsonl`,
/// `trace.json` — and validate each: metrics against
/// `tridiag.metrics/v1`, the event log through the lifecycle replay
/// validator, the trace against the Chrome schema plus the
/// per-request span-chain check. Returns the three texts and every
/// violation found.
fn telemetry_artifacts(
    telemetry: &tridiag_service::Telemetry,
    process: &str,
) -> (String, String, String, Vec<String>) {
    let metrics_doc = telemetry.metrics.to_json();
    let mut findings: Vec<String> = gpu_sim::validate_metrics_json(&metrics_doc)
        .into_iter()
        .map(|p| format!("metrics schema: {p}"))
        .collect();
    let events = telemetry.to_jsonl();
    if let Err(p) = tridiag_service::validate_event_log(&events) {
        findings.extend(p.into_iter().map(|p| format!("event replay: {p}")));
    }
    let trace = telemetry.to_trace(process).to_chrome_json();
    if let Err(p) = gpu_sim::validate_chrome_json(&trace) {
        findings.extend(p.into_iter().map(|p| format!("trace schema: {p}")));
    }
    if let Err(p) = tridiag_service::validate_request_chains(&trace) {
        findings.extend(p.into_iter().map(|p| format!("request chains: {p}")));
    }
    (metrics_doc.to_string(), events, trace, findings)
}

/// Write the three telemetry artifacts into `dir` (created if
/// missing). I/O failures are hard errors (exit 1); schema findings
/// are the caller's to report.
fn write_telemetry(dir: &str, metrics: &str, events: &str, trace: &str) -> Result<(), Failure> {
    let dir_path = std::path::Path::new(dir);
    std::fs::create_dir_all(dir_path)
        .map_err(|e| Failure::Error(format!("creating {dir}: {e}")))?;
    for (name, text) in [
        ("metrics.json", metrics),
        ("events.jsonl", events),
        ("trace.json", trace),
    ] {
        let path = dir_path.join(name);
        std::fs::write(&path, text)
            .map_err(|e| Failure::Error(format!("writing {}: {e}", path.display())))?;
    }
    Ok(())
}

/// `tridiag stats` — run a deterministic modeled workload through the
/// service core and print the unified telemetry read-out: counter /
/// gauge / histogram tables (top `--top` labels per family), the
/// latency-attribution partition, the SLO account, and every
/// telemetry invariant check (metrics schema, exact partition,
/// event-log replay, trace schema, request chains).
/// `--json` prints the raw `tridiag.metrics/v1` snapshot instead of
/// tables; `--out DIR` writes the service's three artifacts
/// (`metrics.json`, `events.jsonl`, `trace.json`). Any violated
/// invariant is a finding (exit 2).
fn cmd_stats(a: &Args) -> Result<(), Failure> {
    use tridiag_service::{ServiceConfig, ServiceCore, SolveRequest};

    let requests: usize = a.get_or("requests", 48)?;
    let m: usize = a.get_or("m", 2)?;
    let n: usize = a.get_or("n", 256)?;
    let seed: u64 = a.get_or("seed", 42u64)?;
    let window: f64 = a.get_or("window", 16.0f64)?;
    let top: usize = a.get_or("top", 8usize)?.max(1);
    let precision = a.get("precision").unwrap_or("mixed");
    let device = device_by_name(a.get("device").unwrap_or("gtx480"))?;
    let group = device_group(a, &device)?.unwrap_or_else(|| DeviceGroup::single(device));
    let payloads = service_payloads(requests, m, n, seed, precision)?;

    let mut core = ServiceCore::new(
        group.clone(),
        ServiceConfig {
            window_us: window,
            ..ServiceConfig::default()
        },
    );
    let workload: Vec<SolveRequest> = payloads
        .iter()
        .enumerate()
        .map(|(i, p)| SolveRequest {
            id: i as u64,
            arrival_us: i as f64,
            payload: p.clone(),
        })
        .collect();
    let report = core.run_workload(workload);
    let telemetry = core.telemetry();

    let (metrics, events, trace, mut findings) = telemetry_artifacts(telemetry, "tridiag-stats");
    findings.extend(
        telemetry
            .cross_check(&report)
            .into_iter()
            .map(|p| format!("exact-partition: {p}")),
    );

    if a.flag("json") {
        outln!("{metrics}");
    } else {
        let (done, rejected, failed) = report.totals();
        outln!(
            "stats: {requests} modeled requests of m={m} n={n} {precision} on {}, \
             window {window} us",
            group.label()
        );
        outln!(
            "  completed {done}, rejected {rejected}, failed {failed}; {} batches, \
             cache {}/{} hits, makespan {:.1} us, {:.0} requests/s",
            report.batches.len(),
            report.cache.hits,
            report.cache.lookups,
            report.makespan_us,
            report.requests_per_s
        );
        let att = &report.attributed;
        outln!(
            "  attributed_us: queue {:.2} + coalesce {:.2} + kernel {:.2} + \
             scatter {:.2} = {:.2} (partitions report totals bit-exactly)",
            att.queue_us,
            att.coalesce_us,
            att.kernel_us,
            att.scatter_us,
            att.latency_us()
        );
        let s = &report.slo;
        outln!(
            "  slo: target {:.0} us, {} violation(s) in {done} completion(s); \
             buckets {} good + {} bad = {}; budget burn {:.2} of {:.0}%",
            s.target_latency_us,
            s.violations,
            s.good_buckets,
            s.bad_buckets,
            s.buckets,
            s.budget_burn,
            s.budget_frac * 100.0
        );
        outln!("\n  counters (top {top} per family):");
        for (family, labels) in telemetry.metrics.counter_families() {
            let mut points: Vec<(&str, u64)> =
                labels.iter().map(|(l, &v)| (l.as_str(), v)).collect();
            points.sort_by(|a, b| b.1.cmp(&a.1).then(a.0.cmp(b.0)));
            print_topk_row(
                family,
                points.iter().map(|(l, v)| format!("{l}={v}")),
                points.len(),
                top,
            )?;
        }
        outln!("\n  gauges (top {top} per family):");
        for (family, labels) in telemetry.metrics.gauge_families() {
            let mut points: Vec<(&str, f64)> =
                labels.iter().map(|(l, &v)| (l.as_str(), v)).collect();
            points.sort_by(|a, b| b.1.total_cmp(&a.1).then(a.0.cmp(b.0)));
            print_topk_row(
                family,
                points.iter().map(|(l, v)| format!("{l}={v:.2}")),
                points.len(),
                top,
            )?;
        }
        outln!("\n  histograms (non-empty buckets):");
        for (family, labels) in telemetry.metrics.histogram_families() {
            for (label, h) in labels {
                let mut cells = Vec::new();
                for (i, &c) in h.counts.iter().enumerate() {
                    if c == 0 {
                        continue;
                    }
                    let bound = if i < h.bounds.len() {
                        format!("<={}", h.bounds[i])
                    } else {
                        format!(">{}", h.bounds.last().copied().unwrap_or(0.0))
                    };
                    cells.push(format!("{bound}:{c}"));
                }
                outln!(
                    "    {:<28} n={} sum={:.1}  {}",
                    format!("{family}/{label}"),
                    h.count,
                    h.sum,
                    cells.join("  ")
                );
            }
        }
    }
    if let Some(dir) = a.get("out") {
        write_telemetry(dir, &metrics, &events, &trace)?;
        outln!("  wrote {dir}/metrics.json, events.jsonl, trace.json");
    }
    if !findings.is_empty() {
        return Err(Failure::Findings(format!(
            "  - {}",
            findings.join("\n  - ")
        )));
    }
    Ok(())
}

/// One `family  label=value ...` table row, eliding past `top`.
fn print_topk_row(
    family: &str,
    cells: impl Iterator<Item = String>,
    total: usize,
    top: usize,
) -> Result<(), Failure> {
    let shown: Vec<String> = cells.take(top).collect();
    let elided = total.saturating_sub(top);
    if elided > 0 {
        outln!("    {family:<28} {}  (+{elided} more)", shown.join("  "));
    } else {
        outln!("    {family:<28} {}", shown.join("  "));
    }
    Ok(())
}

/// A command's entry point.
type Command = fn(&Args) -> Result<(), Failure>;

/// The options `plan` and `verify` read to pick a geometry and route.
const GEOMETRY_OPTS: &str = "m n precision device devices split-n layout";

/// Every command: its name, the options (`--key value`) and flags
/// (`--key`) it reads, space-separated, and its entry point. Anything
/// else on its command line is a usage error.
const COMMANDS: &[(&str, &str, &str, Command)] = &[
    (
        "solve",
        "m n seed engine precision device devices split-n layout trace",
        "verbose sanitize json dry-run verify",
        cmd_solve,
    ),
    ("plan", GEOMETRY_OPTS, "json verify", cmd_plan),
    ("verify", GEOMETRY_OPTS, "json", cmd_verify),
    (
        "profile",
        "m n seed precision device out",
        "zoo",
        cmd_profile,
    ),
    ("compare", "m n seed", "", cmd_compare),
    ("tune", "n m-list emit", "", cmd_tune),
    ("info", "device", "", cmd_info),
    ("lint", "", "verbose", cmd_lint),
    (
        "serve",
        "requests clients window depth m n seed precision device devices telemetry",
        "",
        cmd_serve,
    ),
    (
        "stats",
        "requests window m n seed precision device devices top out",
        "json",
        cmd_stats,
    ),
];

/// The entry point of `args`' command, once every option and flag on
/// its command line is one the command reads; a usage error otherwise.
fn command(args: &Args) -> Result<Command, Failure> {
    let name = args
        .command
        .as_deref()
        .ok_or_else(|| Failure::Error(usage().to_string()))?;
    let &(_, opts, flags, run) = COMMANDS
        .iter()
        .find(|c| c.0 == name)
        .ok_or_else(|| Failure::Error(format!("unknown command {name:?}\n{}", usage())))?;
    args.only(opts, flags)
        .map_err(|e| Failure::Error(format!("{name}: {e}")))?;
    Ok(run)
}

fn main() -> ExitCode {
    let args = match Args::from_env() {
        Ok(a) => a,
        Err(e) => {
            eprintln!("error: {e}\n{}", usage());
            return ExitCode::FAILURE;
        }
    };
    if args.flag("help") || args.command.as_deref() == Some("help") {
        // A closed pipe has nothing left to tell.
        let _ = emit(format_args!("{}\n", usage()));
        return ExitCode::SUCCESS;
    }
    let result = command(&args).and_then(|run| run(&args));
    match result {
        Ok(()) | Err(Failure::Closed) => ExitCode::SUCCESS,
        Err(Failure::Error(e)) => {
            eprintln!("error: {e}");
            ExitCode::FAILURE
        }
        Err(Failure::Findings(e)) => {
            eprintln!("findings: {e}");
            ExitCode::from(2)
        }
    }
}

#[cfg(test)]
mod tests {
    //! Fuzzing the command line: arbitrary argv, biased towards the
    //! commands' own names, options and flags, never panics in
    //! [`Args::parse`] or in the per-command option check.

    use super::*;
    use proptest::prelude::*;

    /// Argument tokens besides random code points: malformed flags,
    /// values that look like flags, numbers and the empty string.
    const TOKENS: &[&str] = &[
        "help", "--help", "--", "---", "-", "--=", "--m=3", "-m", "64", "-1", "0", "auto", "", " ",
        "é", "𝄞", "\u{0}", "--lint", "--check",
    ];

    /// Every command name, option and flag in [`COMMANDS`], flags and
    /// options prefixed `--`.
    fn vocabulary() -> Vec<String> {
        let mut words: Vec<String> = TOKENS.iter().map(|t| t.to_string()).collect();
        for (name, opts, flags, _) in COMMANDS {
            words.push(name.to_string());
            let keys = opts.split_whitespace().chain(flags.split_whitespace());
            words.extend(keys.map(|k| format!("--{k}")));
        }
        words
    }

    /// Build an argv from draws: each picks a vocabulary word or a
    /// short string of code points.
    fn fuzz_argv(words: &[String], draws: &[u32]) -> Vec<String> {
        draws
            .iter()
            .map(|&d| match d % 4 {
                0 => (0..d / 4 % 4)
                    .filter_map(|i| char::from_u32((d >> (8 * i)) % 0x11_0000))
                    .collect(),
                _ => words[(d / 4) as usize % words.len()].clone(),
            })
            .collect()
    }

    fn check(line: &str) -> std::result::Result<(), String> {
        let args = Args::parse(line.split_whitespace().map(String::from))?;
        match command(&args) {
            Ok(_) | Err(Failure::Closed) => Ok(()),
            Err(Failure::Error(e) | Failure::Findings(e)) => Err(e),
        }
    }

    #[test]
    fn retired_check_switches_are_unknown_options() {
        assert_eq!(
            check("solve --lint"),
            Err("solve: unknown option --lint".into())
        );
        assert_eq!(
            check("solve --check"),
            Err("solve: unknown option --check".into())
        );
        for retired in ["--k-max 2", "--devices 1", "--layout contiguous"] {
            let key = retired.split_whitespace().next().unwrap_or_default();
            assert_eq!(
                check(&format!("tune --n 64 {retired}")),
                Err(format!("tune: unknown option {key}"))
            );
        }
        assert_eq!(check("solve --m 8 --sanitize"), Ok(()));
        assert_eq!(check("lint --verbose"), Ok(()));
    }

    proptest! {
        #![proptest_config(ProptestConfig::with_cases(5000))]

        #[test]
        fn arbitrary_argv_never_panics(draws in prop::collection::vec(any::<u32>(), 0..12)) {
            let argv = fuzz_argv(&vocabulary(), &draws);
            if let Ok(args) = Args::parse(argv) {
                let _ = command(&args);
            }
        }
    }
}
