//! Golden plan snapshots: the Fig. 12/13 sweep geometries, each solved
//! end-to-end, with the full per-kernel / per-phase counter and timing
//! breakdown plus a bit-exact solution hash pinned as text.
//!
//! The split-pipeline strings were captured from the solver *before*
//! the plan/execute split; the suite therefore proves the refactor is
//! bit-identical — same kernel sequence, same counters, same modeled
//! microseconds, same solution bits. The default config fuses tiled
//! PCR into p-Thomas at the block-per-system hybrid points; those
//! fused solves are pinned separately.
//!
//! The planner half also pins the `describe()` of the f32 points the
//! figure sweep lacks, checks that planning is pure (execution switches
//! and rebuilds never perturb a plan), and schema-validates every plan
//! document the sweep builds: single-device at both widths and both
//! forced layouts, sharded and row-split.

use gpu_sim::DeviceGroup;
use std::fmt::Write as _;
use tridiag_core::generators::random_batch;
use tridiag_gpu::solver::{GpuSolveReport, GpuSolverConfig, GpuTridiagSolver, LayoutChoice};
use tridiag_gpu::{
    validate_distributed_plan_json, validate_plan_json, validate_sharded_plan_json,
    verify_distributed_plan, verify_plan, verify_sharded_plan, GpuScalar, PlanExecutor,
};

/// The Fig. 12/13 sweep: (label, precision, m, n). Its goldens in
/// [`GOLDEN_REPORTS`] (split pipeline) and [`GOLDEN_FUSED_REPORTS`]
/// (the default config, at the points it fuses) are the modeled-time
/// pins for these points: `k`, `total_us` and every kernel's and
/// phase's `us` at full `f64` precision.
const SWEEP: &[(&str, &str, usize, usize)] = &[
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

/// The f64 geometries of [`SWEEP`] that have no f32 point there; their
/// f32 plans are pinned in [`GOLDEN_F32_PLANS`].
const F32_PLAN_POINTS: &[(usize, usize)] = &[
    (64, 512),
    (1024, 512),
    (64, 2048),
    (256, 2048),
    (2048, 64),
    (256, 256),
    (1, 16384),
];

const SEED: u64 = 42;

/// FNV-1a over the shortest round-trip (`{:?}`) representation of every
/// solution element — a bit-exact fingerprint of the output vector.
fn solution_hash<S: GpuScalar>(x: &[S]) -> u64 {
    let mut h = 0xcbf29ce484222325u64;
    for v in x {
        for b in format!("{v:?}").bytes() {
            h ^= b as u64;
            h = h.wrapping_mul(0x100000001b3);
        }
    }
    h
}

/// Everything observable about a solve, as deterministic text: pipeline
/// decisions, per-kernel geometry/timing, per-phase counters (exact
/// integers) and per-phase modeled time (exact `f64` repr).
fn report_snapshot<S: GpuScalar>(x: &[S], report: &GpuSolveReport) -> String {
    let mut s = String::new();
    writeln!(
        s,
        "k={} mapping={:?} fused={} precision={} total_us={:?} sol={:#018x}",
        report.k,
        report.mapping,
        report.fused,
        report.precision,
        report.total_us,
        solution_hash(x)
    )
    .unwrap();
    for kr in &report.kernels {
        writeln!(
            s,
            "kernel={} blocks={} shared={} total_us={:?} launch_us={:?} bound={:?}",
            kr.timing.name,
            kr.blocks,
            kr.shared_bytes,
            kr.timing.total_us,
            kr.timing.launch_us,
            kr.timing.bound
        )
        .unwrap();
        for ph in &kr.timing.phases {
            writeln!(
                s,
                "  phase={} us={:?} flops={} gbytes={} gtxn={} rounds={} sh={} replays={} barriers={}",
                ph.label,
                ph.us,
                ph.stats.flops,
                ph.stats.global_bytes(),
                ph.stats.global_transactions(),
                ph.stats.global_access_rounds,
                ph.stats.shared_accesses,
                ph.stats.bank_conflict_replays,
                ph.stats.barriers
            )
            .unwrap();
        }
    }
    s
}

/// The split pipeline: fusion off.
fn split() -> GpuSolverConfig {
    GpuSolverConfig {
        fused: false,
        ..Default::default()
    }
}

fn run_point<S: GpuScalar>(config: GpuSolverConfig, m: usize, n: usize) -> String {
    let batch = random_batch::<S>(m, n, SEED);
    let (x, report) = GpuTridiagSolver::new(gpu_sim::DeviceSpec::gtx480(), config)
        .solve_batch(&batch)
        .unwrap_or_else(|e| panic!("m={m} n={n}: {e}"));
    assert!(report.is_phase_sum_clean(), "m={m} n={n}");
    assert!(report.violations.is_empty(), "m={m} n={n}");
    let resid = batch.max_relative_residual(&x).unwrap();
    let tol = tridiag_core::verify::default_tolerance::<S>() * 1e3;
    assert!(
        resid <= tol,
        "m={m} n={n}: residual {resid:.3e} > {tol:.3e}"
    );
    report_snapshot(&x, &report)
}

/// Every [`SWEEP`] point solved under `config`; with `fused_only`,
/// just the points whose plan fuses.
fn run_sweep(config: GpuSolverConfig, fused_only: bool) -> Vec<(String, String)> {
    let solver = GpuTridiagSolver::new(gpu_sim::DeviceSpec::gtx480(), config);
    SWEEP
        .iter()
        .filter(|&&(_, prec, m, n)| {
            let bytes = if prec == "f32" { 4 } else { 8 };
            !fused_only || solver.plan_geometry(m, n, bytes).unwrap().fused
        })
        .map(|&(fig, prec, m, n)| {
            let snap = match prec {
                "f32" => run_point::<f32>(config, m, n),
                _ => run_point::<f64>(config, m, n),
            };
            (format!("{fig} {prec} m={m} n={n}"), snap)
        })
        .collect()
}

/// Regeneration helper: `cargo test --release -p tridiag-gpu --test
/// plan_snapshots regenerate -- --ignored --nocapture` prints the
/// current snapshots in the exact golden format: the split sweep, then
/// the default config's fused points.
#[test]
#[ignore = "generator, not a check"]
fn regenerate() {
    for sweep in [
        run_sweep(split(), false),
        run_sweep(GpuSolverConfig::default(), true),
    ] {
        for (key, snap) in sweep {
            println!("=== {key} ===");
            print!("{snap}");
        }
        println!("=== end ===");
    }
}

fn assert_matches_golden(actual: &[(String, String)], golden: &str) {
    let golden = parse_golden(golden);
    assert_eq!(actual.len(), golden.len(), "sweep size");
    for ((key, snap), (gkey, gsnap)) in actual.iter().zip(&golden) {
        assert_eq!(key, gkey, "sweep order");
        assert_eq!(snap, gsnap, "solve report drifted for {key}");
    }
}

#[test]
#[cfg_attr(debug_assertions, ignore = "slow simulation; run with --release")]
fn sweep_reports_match_pre_refactor_goldens() {
    assert_matches_golden(&run_sweep(split(), false), GOLDEN_REPORTS);
}

#[test]
#[cfg_attr(debug_assertions, ignore = "slow simulation; run with --release")]
fn fused_sweep_reports_match_goldens() {
    let actual = run_sweep(GpuSolverConfig::default(), true);
    assert_matches_golden(&actual, GOLDEN_FUSED_REPORTS);
}

/// The planner half of the sweep: `SolvePlan::describe()` per point.
/// Pure — no kernel ever launches — so it runs in debug builds too.
fn plan_sweep() -> Vec<(String, String)> {
    SWEEP
        .iter()
        .map(|&(fig, prec, m, n)| {
            let bytes = if prec == "f32" { 4 } else { 8 };
            let plan = GpuTridiagSolver::gtx480()
                .plan_geometry(m, n, bytes)
                .unwrap_or_else(|e| panic!("m={m} n={n}: {e}"));
            (format!("{fig} {prec} m={m} n={n}"), plan.describe())
        })
        .collect()
}

/// Regeneration helper for the plan-description goldens.
#[test]
#[ignore = "generator, not a check"]
fn regenerate_plans() {
    for (key, snap) in plan_sweep() {
        println!("=== {key} ===");
        print!("{snap}");
    }
    println!("=== end ===");
}

#[test]
fn sweep_plan_descriptions_match_goldens() {
    let golden = parse_golden(GOLDEN_PLANS);
    let actual = plan_sweep();
    assert_eq!(actual.len(), golden.len(), "sweep size");
    for ((key, snap), (gkey, gsnap)) in actual.iter().zip(&golden) {
        assert_eq!(key, gkey, "sweep order");
        assert_eq!(snap, gsnap, "solve plan drifted for {key}");
    }
}

#[test]
fn f32_sweep_plan_descriptions_match_goldens() {
    let golden = parse_golden(GOLDEN_F32_PLANS);
    assert_eq!(golden.len(), F32_PLAN_POINTS.len(), "sweep size");
    for (&(m, n), (gkey, gsnap)) in F32_PLAN_POINTS.iter().zip(&golden) {
        let key = format!("plan f32 m={m} n={n}");
        assert_eq!(&key, gkey, "sweep order");
        let plan = GpuTridiagSolver::gtx480()
            .plan_geometry(m, n, 4)
            .unwrap_or_else(|e| panic!("{key}: {e}"));
        assert_eq!(&plan.describe(), gsnap, "solve plan drifted for {key}");
    }
}

/// Every default-config single-device point as `(m, n, elem_bytes)`:
/// [`SWEEP`] at its own widths, then [`F32_PLAN_POINTS`] at f32.
fn default_plan_points() -> impl Iterator<Item = (usize, usize, usize)> {
    SWEEP
        .iter()
        .map(|&(_, prec, m, n)| (m, n, if prec == "f32" { 4 } else { 8 }))
        .chain(F32_PLAN_POINTS.iter().map(|&(m, n)| (m, n, 4)))
}

/// Planning is pure: no execution-config switch may perturb a plan's
/// description or JSON, and rebuilding yields the same plan, on every
/// pinned point.
#[test]
fn plans_ignore_exec_config_and_rebuild_identically() {
    for (m, n, bytes) in default_plan_points() {
        let solver = GpuTridiagSolver::gtx480();
        let base = solver.plan_geometry(m, n, bytes).unwrap();
        assert_eq!(
            solver.plan_geometry(m, n, bytes).unwrap(),
            base,
            "m={m} n={n} bytes={bytes}: rebuild drifted"
        );
        let noisy = GpuTridiagSolver::new(
            gpu_sim::DeviceSpec::gtx480(),
            GpuSolverConfig {
                exec: gpu_sim::ExecConfig::sanitized(),
                ..Default::default()
            },
        )
        .plan_geometry(m, n, bytes)
        .unwrap();
        assert_eq!(
            noisy.describe(),
            base.describe(),
            "m={m} n={n} bytes={bytes}: exec config perturbed the plan"
        );
        assert_eq!(
            noisy.to_json().to_string(),
            base.to_json().to_string(),
            "m={m} n={n} bytes={bytes}: exec config perturbed the plan JSON"
        );
    }
}

/// Every plan document the figure sweep builds — the default config at
/// both widths, the f64 geometries with the device layout pinned both
/// ways, sharded D ∈ {2, 4} and row-split D ∈ {1, 2, 4} — round-tripped
/// through the strict JSON parser and shape-checked against its schema.
/// Every typed plan certifies clean under its verifier, and every
/// multi-device document lists each part's `device_index`, start and
/// count exactly as the typed plan has them. Planning only: no kernel
/// launches.
#[test]
fn sweep_plan_json_is_schema_valid() {
    type Validator = fn(&gpu_sim::Json) -> Vec<String>;
    /// A document, its shape validator, and the `(device_index, start,
    /// count)` per part it must list under `parts_key` (`sys_*` fields
    /// for shards, `row_*` for chunks).
    struct Doc {
        label: String,
        json: gpu_sim::Json,
        validate: Validator,
        parts_key: &'static str,
        parts: Vec<(usize, usize, usize)>,
    }
    let spec = gpu_sim::DeviceSpec::gtx480();
    let solver = GpuTridiagSolver::gtx480();
    let mut docs: Vec<Doc> = Vec::new();
    let mut single = |label: String, plan: &tridiag_gpu::SolvePlan| {
        let report = verify_plan(&spec, plan);
        assert!(report.is_clean(), "{label}: {report}");
        docs.push(Doc {
            label,
            json: plan.to_json(),
            validate: validate_plan_json,
            parts_key: "",
            parts: Vec::new(),
        });
    };
    for (m, n, bytes) in default_plan_points() {
        let plan = solver.plan_geometry(m, n, bytes).unwrap();
        single(format!("m={m} n={n} bytes={bytes}"), &plan);
    }
    for layout in [LayoutChoice::Contiguous, LayoutChoice::Interleaved] {
        let config = GpuSolverConfig {
            layout,
            ..Default::default()
        };
        let forced = GpuTridiagSolver::new(spec.clone(), config);
        for &(_, _, m, n) in SWEEP.iter().filter(|p| p.1 == "f64") {
            let plan = forced.plan_geometry(m, n, 8).unwrap();
            single(format!("m={m} n={n} {layout:?}"), &plan);
        }
    }
    for devices in [2usize, 4] {
        let group = DeviceGroup::homogeneous(spec.clone(), devices).unwrap();
        for (m, n) in [(64, 512), (256, 2048), (16, 1024), (2048, 64)] {
            let plan = solver.plan_geometry_group(&group, m, n, 8).unwrap();
            let label = format!("m={m} n={n} D={devices}");
            let report = verify_sharded_plan(&group, &plan);
            assert!(report.is_clean(), "{label}: {report}");
            docs.push(Doc {
                label,
                json: plan.to_json(),
                validate: validate_sharded_plan_json,
                parts_key: "shards",
                parts: plan
                    .shards
                    .iter()
                    .map(|s| (s.device_index, s.sys_start, s.sys_count))
                    .collect(),
            });
        }
    }
    for devices in [1usize, 2, 4] {
        let group = DeviceGroup::homogeneous(spec.clone(), devices).unwrap();
        for n in [512, 16384] {
            let plan = solver.plan_geometry_split(&group, n, 8).unwrap();
            let label = format!("split n={n} D={devices}");
            let report = verify_distributed_plan(&group, &plan);
            assert!(report.is_clean(), "{label}: {report}");
            docs.push(Doc {
                label,
                json: plan.to_json(),
                validate: validate_distributed_plan_json,
                parts_key: "chunks",
                parts: plan
                    .chunks
                    .iter()
                    .map(|c| (c.device_index, c.row_start, c.row_count))
                    .collect(),
            });
        }
    }
    assert_eq!(docs.len(), 50, "sweep size");
    for doc in docs {
        let label = doc.label;
        let json = gpu_sim::json::parse(&doc.json.to_string())
            .unwrap_or_else(|e| panic!("{label}: reparse failed: {e}"));
        let problems = (doc.validate)(&json);
        assert!(problems.is_empty(), "{label}: {problems:?}");
        if doc.parts_key.is_empty() {
            continue;
        }
        let prefix = if doc.parts_key == "shards" {
            "sys"
        } else {
            "row"
        };
        let field = |part: &gpu_sim::Json, key: &str| {
            part.get(key)
                .and_then(gpu_sim::Json::as_num)
                .unwrap_or_else(|| panic!("{label}: part without {key}")) as usize
        };
        let listed: Vec<(usize, usize, usize)> = json
            .get(doc.parts_key)
            .and_then(gpu_sim::Json::as_arr)
            .unwrap_or_else(|| panic!("{label}: no {} array", doc.parts_key))
            .iter()
            .map(|p| {
                (
                    field(p, "device_index"),
                    field(p, &format!("{prefix}_start")),
                    field(p, &format!("{prefix}_count")),
                )
            })
            .collect();
        assert_eq!(
            listed, doc.parts,
            "{label}: {} drifted from the typed plan",
            doc.parts_key
        );
    }
}

/// Plan-then-execute through a standalone [`PlanExecutor`] must be
/// byte-identical to `solve_batch` (which itself plans then executes),
/// and the report must carry exactly the plan that was built.
#[test]
#[cfg_attr(debug_assertions, ignore = "slow simulation; run with --release")]
fn plan_then_execute_reproduces_solve_batch() {
    for &(m, n) in &[(64usize, 512usize), (2048, 64), (16, 1024)] {
        let solver = GpuTridiagSolver::gtx480();
        let batch = random_batch::<f64>(m, n, SEED);
        let (x1, r1) = solver.solve_batch(&batch).unwrap();
        let plan = solver.plan_geometry(m, n, 8).unwrap();
        assert_eq!(
            r1.plan, plan,
            "m={m} n={n}: report carries a different plan"
        );
        let mut ex = PlanExecutor::new(solver.spec().clone(), gpu_sim::ExecConfig::default());
        let (x2, r2) = ex.run(&plan, &batch).unwrap();
        assert_eq!(
            report_snapshot(&x1, &r1),
            report_snapshot(&x2, &r2),
            "m={m} n={n}: standalone executor drifted from solve_batch"
        );
    }
}

/// Split the `=== key ===`-delimited golden blob back into
/// (key, snapshot) pairs.
fn parse_golden(blob: &str) -> Vec<(String, String)> {
    let mut out = Vec::new();
    let mut key: Option<String> = None;
    let mut body = String::new();
    for line in blob.lines() {
        let trimmed = line.trim();
        if trimmed.is_empty() {
            continue;
        }
        if let Some(k) = trimmed
            .strip_prefix("=== ")
            .and_then(|r| r.strip_suffix(" ==="))
        {
            if let Some(prev) = key.take() {
                out.push((prev, std::mem::take(&mut body)));
            }
            if k != "end" {
                key = Some(k.to_string());
            }
        } else {
            body.push_str(line);
            body.push('\n');
        }
    }
    out
}

/// Pinned `SolvePlan::describe()` output for every sweep point.
const GOLDEN_PLANS: &str = r#"
=== fig12 f64 m=64 n=512 ===
plan: m=64 n=512 f64 on GTX480
  k=4 mapping=BlockPerSystem fused=true layout=Contiguous
  buffers: 7 (229376 elems, 1835008 bytes device footprint)
  kernels: fused_pcr_thomas
  steps:
     1. convert -> Contiguous
     2. upload a -> buf[0] a (32768 elems)
     3. upload b -> buf[1] b (32768 elems)
     4. upload c -> buf[2] c (32768 elems)
     5. upload d -> buf[3] d (32768 elems)
     6. alloc buf[4] x (32768 elems)
     7. alloc buf[5] c_prime (32768 elems)
     8. alloc buf[6] d_prime (32768 elems)
     9. launch fused_pcr_thomas grid=64 threads=16 regs=40 binds=[0, 1, 2, 3, 5, 6, 4] k=4 sub_tile=16
    10. download buf[4] x
    11. convert-back <- Contiguous
=== fig12 f64 m=256 n=512 ===
plan: m=256 n=512 f64 on GTX480
  k=4 mapping=BlockPerSystem fused=true layout=Contiguous
  buffers: 7 (917504 elems, 7340032 bytes device footprint)
  kernels: fused_pcr_thomas
  steps:
     1. convert -> Contiguous
     2. upload a -> buf[0] a (131072 elems)
     3. upload b -> buf[1] b (131072 elems)
     4. upload c -> buf[2] c (131072 elems)
     5. upload d -> buf[3] d (131072 elems)
     6. alloc buf[4] x (131072 elems)
     7. alloc buf[5] c_prime (131072 elems)
     8. alloc buf[6] d_prime (131072 elems)
     9. launch fused_pcr_thomas grid=256 threads=16 regs=40 binds=[0, 1, 2, 3, 5, 6, 4] k=4 sub_tile=16
    10. download buf[4] x
    11. convert-back <- Contiguous
=== fig12 f64 m=1024 n=512 ===
plan: m=1024 n=512 f64 on GTX480
  k=0 mapping=BlockPerSystem fused=false layout=Interleaved
  buffers: 7 (3670016 elems, 29360128 bytes device footprint)
  kernels: p_thomas
  steps:
     1. convert -> Interleaved
     2. upload a -> buf[0] a (524288 elems)
     3. upload b -> buf[1] b (524288 elems)
     4. upload c -> buf[2] c (524288 elems)
     5. upload d -> buf[3] d (524288 elems)
     6. alloc buf[4] x (524288 elems)
     7. alloc buf[5] c_prime (524288 elems)
     8. alloc buf[6] d_prime (524288 elems)
     9. launch p_thomas grid=8 threads=128 regs=24 binds=[0, 1, 2, 3, 5, 6, 4] map=Interleaved { m: 1024, n: 512 }
    10. download buf[4] x
    11. convert-back <- Interleaved
=== fig12 f64 m=64 n=2048 ===
plan: m=64 n=2048 f64 on GTX480
  k=4 mapping=BlockPerSystem fused=true layout=Contiguous
  buffers: 7 (917504 elems, 7340032 bytes device footprint)
  kernels: fused_pcr_thomas
  steps:
     1. convert -> Contiguous
     2. upload a -> buf[0] a (131072 elems)
     3. upload b -> buf[1] b (131072 elems)
     4. upload c -> buf[2] c (131072 elems)
     5. upload d -> buf[3] d (131072 elems)
     6. alloc buf[4] x (131072 elems)
     7. alloc buf[5] c_prime (131072 elems)
     8. alloc buf[6] d_prime (131072 elems)
     9. launch fused_pcr_thomas grid=64 threads=16 regs=40 binds=[0, 1, 2, 3, 5, 6, 4] k=4 sub_tile=16
    10. download buf[4] x
    11. convert-back <- Contiguous
=== fig12 f64 m=256 n=2048 ===
plan: m=256 n=2048 f64 on GTX480
  k=4 mapping=BlockPerSystem fused=true layout=Contiguous
  buffers: 7 (3670016 elems, 29360128 bytes device footprint)
  kernels: fused_pcr_thomas
  steps:
     1. convert -> Contiguous
     2. upload a -> buf[0] a (524288 elems)
     3. upload b -> buf[1] b (524288 elems)
     4. upload c -> buf[2] c (524288 elems)
     5. upload d -> buf[3] d (524288 elems)
     6. alloc buf[4] x (524288 elems)
     7. alloc buf[5] c_prime (524288 elems)
     8. alloc buf[6] d_prime (524288 elems)
     9. launch fused_pcr_thomas grid=256 threads=16 regs=40 binds=[0, 1, 2, 3, 5, 6, 4] k=4 sub_tile=16
    10. download buf[4] x
    11. convert-back <- Contiguous
=== fig13 f64 m=2048 n=64 ===
plan: m=2048 n=64 f64 on GTX480
  k=0 mapping=BlockPerSystem fused=false layout=Interleaved
  buffers: 7 (917504 elems, 7340032 bytes device footprint)
  kernels: p_thomas
  steps:
     1. convert -> Interleaved
     2. upload a -> buf[0] a (131072 elems)
     3. upload b -> buf[1] b (131072 elems)
     4. upload c -> buf[2] c (131072 elems)
     5. upload d -> buf[3] d (131072 elems)
     6. alloc buf[4] x (131072 elems)
     7. alloc buf[5] c_prime (131072 elems)
     8. alloc buf[6] d_prime (131072 elems)
     9. launch p_thomas grid=16 threads=128 regs=24 binds=[0, 1, 2, 3, 5, 6, 4] map=Interleaved { m: 2048, n: 64 }
    10. download buf[4] x
    11. convert-back <- Interleaved
=== fig13 f64 m=256 n=256 ===
plan: m=256 n=256 f64 on GTX480
  k=4 mapping=BlockPerSystem fused=true layout=Contiguous
  buffers: 7 (458752 elems, 3670016 bytes device footprint)
  kernels: fused_pcr_thomas
  steps:
     1. convert -> Contiguous
     2. upload a -> buf[0] a (65536 elems)
     3. upload b -> buf[1] b (65536 elems)
     4. upload c -> buf[2] c (65536 elems)
     5. upload d -> buf[3] d (65536 elems)
     6. alloc buf[4] x (65536 elems)
     7. alloc buf[5] c_prime (65536 elems)
     8. alloc buf[6] d_prime (65536 elems)
     9. launch fused_pcr_thomas grid=256 threads=16 regs=40 binds=[0, 1, 2, 3, 5, 6, 4] k=4 sub_tile=16
    10. download buf[4] x
    11. convert-back <- Contiguous
=== fig13 f64 m=16 n=1024 ===
plan: m=16 n=1024 f64 on GTX480
  k=5 mapping=BlockPerSystem fused=true layout=Contiguous
  buffers: 7 (114688 elems, 917504 bytes device footprint)
  kernels: fused_pcr_thomas
  steps:
     1. convert -> Contiguous
     2. upload a -> buf[0] a (16384 elems)
     3. upload b -> buf[1] b (16384 elems)
     4. upload c -> buf[2] c (16384 elems)
     5. upload d -> buf[3] d (16384 elems)
     6. alloc buf[4] x (16384 elems)
     7. alloc buf[5] c_prime (16384 elems)
     8. alloc buf[6] d_prime (16384 elems)
     9. launch fused_pcr_thomas grid=16 threads=32 regs=40 binds=[0, 1, 2, 3, 5, 6, 4] k=5 sub_tile=32
    10. download buf[4] x
    11. convert-back <- Contiguous
=== fig13 f64 m=1 n=16384 ===
plan: m=1 n=16384 f64 on GTX480
  k=7 mapping=BlockGroupPerSystem(30) fused=false layout=Contiguous
  buffers: 11 (180224 elems, 1441792 bytes device footprint)
  kernels: tiled_pcr -> p_thomas
  steps:
     1. convert -> Contiguous
     2. upload a -> buf[0] a (16384 elems)
     3. upload b -> buf[1] b (16384 elems)
     4. upload c -> buf[2] c (16384 elems)
     5. upload d -> buf[3] d (16384 elems)
     6. alloc buf[4] x (16384 elems)
     7. alloc buf[5] out_a (16384 elems)
     8. alloc buf[6] out_b (16384 elems)
     9. alloc buf[7] out_c (16384 elems)
    10. alloc buf[8] out_d (16384 elems)
    11. launch tiled_pcr grid=30 threads=128 regs=32 binds=[0, 1, 2, 3, 5, 6, 7, 8] k=7 sub_tile=128
    12. alloc buf[9] c_prime (16384 elems)
    13. alloc buf[10] d_prime (16384 elems)
    14. launch p_thomas grid=1 threads=128 regs=24 binds=[5, 6, 7, 8, 9, 10, 4] map=HybridSubsystems { m: 1, n: 16384, k: 7 }
    15. download buf[4] x
    16. convert-back <- Contiguous
=== fig12 f32 m=256 n=512 ===
plan: m=256 n=512 f32 on GTX480
  k=5 mapping=BlockPerSystem fused=true layout=Contiguous
  buffers: 7 (917504 elems, 3670016 bytes device footprint)
  kernels: fused_pcr_thomas
  steps:
     1. convert -> Contiguous
     2. upload a -> buf[0] a (131072 elems)
     3. upload b -> buf[1] b (131072 elems)
     4. upload c -> buf[2] c (131072 elems)
     5. upload d -> buf[3] d (131072 elems)
     6. alloc buf[4] x (131072 elems)
     7. alloc buf[5] c_prime (131072 elems)
     8. alloc buf[6] d_prime (131072 elems)
     9. launch fused_pcr_thomas grid=256 threads=32 regs=40 binds=[0, 1, 2, 3, 5, 6, 4] k=5 sub_tile=32
    10. download buf[4] x
    11. convert-back <- Contiguous
=== fig13 f32 m=16 n=1024 ===
plan: m=16 n=1024 f32 on GTX480
  k=7 mapping=BlockPerSystem fused=true layout=Contiguous
  buffers: 7 (114688 elems, 458752 bytes device footprint)
  kernels: fused_pcr_thomas
  steps:
     1. convert -> Contiguous
     2. upload a -> buf[0] a (16384 elems)
     3. upload b -> buf[1] b (16384 elems)
     4. upload c -> buf[2] c (16384 elems)
     5. upload d -> buf[3] d (16384 elems)
     6. alloc buf[4] x (16384 elems)
     7. alloc buf[5] c_prime (16384 elems)
     8. alloc buf[6] d_prime (16384 elems)
     9. launch fused_pcr_thomas grid=16 threads=128 regs=40 binds=[0, 1, 2, 3, 5, 6, 4] k=7 sub_tile=128
    10. download buf[4] x
    11. convert-back <- Contiguous
=== end ===
"#;

/// Pinned `SolvePlan::describe()` output for [`F32_PLAN_POINTS`].
const GOLDEN_F32_PLANS: &str = r#"
=== plan f32 m=64 n=512 ===
plan: m=64 n=512 f32 on GTX480
  k=5 mapping=BlockPerSystem fused=true layout=Contiguous
  buffers: 7 (229376 elems, 917504 bytes device footprint)
  kernels: fused_pcr_thomas
  steps:
     1. convert -> Contiguous
     2. upload a -> buf[0] a (32768 elems)
     3. upload b -> buf[1] b (32768 elems)
     4. upload c -> buf[2] c (32768 elems)
     5. upload d -> buf[3] d (32768 elems)
     6. alloc buf[4] x (32768 elems)
     7. alloc buf[5] c_prime (32768 elems)
     8. alloc buf[6] d_prime (32768 elems)
     9. launch fused_pcr_thomas grid=64 threads=32 regs=40 binds=[0, 1, 2, 3, 5, 6, 4] k=5 sub_tile=32
    10. download buf[4] x
    11. convert-back <- Contiguous
=== plan f32 m=1024 n=512 ===
plan: m=1024 n=512 f32 on GTX480
  k=0 mapping=BlockPerSystem fused=false layout=Interleaved
  buffers: 7 (3670016 elems, 14680064 bytes device footprint)
  kernels: p_thomas
  steps:
     1. convert -> Interleaved
     2. upload a -> buf[0] a (524288 elems)
     3. upload b -> buf[1] b (524288 elems)
     4. upload c -> buf[2] c (524288 elems)
     5. upload d -> buf[3] d (524288 elems)
     6. alloc buf[4] x (524288 elems)
     7. alloc buf[5] c_prime (524288 elems)
     8. alloc buf[6] d_prime (524288 elems)
     9. launch p_thomas grid=8 threads=128 regs=24 binds=[0, 1, 2, 3, 5, 6, 4] map=Interleaved { m: 1024, n: 512 }
    10. download buf[4] x
    11. convert-back <- Interleaved
=== plan f32 m=64 n=2048 ===
plan: m=64 n=2048 f32 on GTX480
  k=5 mapping=BlockPerSystem fused=true layout=Contiguous
  buffers: 7 (917504 elems, 3670016 bytes device footprint)
  kernels: fused_pcr_thomas
  steps:
     1. convert -> Contiguous
     2. upload a -> buf[0] a (131072 elems)
     3. upload b -> buf[1] b (131072 elems)
     4. upload c -> buf[2] c (131072 elems)
     5. upload d -> buf[3] d (131072 elems)
     6. alloc buf[4] x (131072 elems)
     7. alloc buf[5] c_prime (131072 elems)
     8. alloc buf[6] d_prime (131072 elems)
     9. launch fused_pcr_thomas grid=64 threads=32 regs=40 binds=[0, 1, 2, 3, 5, 6, 4] k=5 sub_tile=32
    10. download buf[4] x
    11. convert-back <- Contiguous
=== plan f32 m=256 n=2048 ===
plan: m=256 n=2048 f32 on GTX480
  k=5 mapping=BlockPerSystem fused=true layout=Contiguous
  buffers: 7 (3670016 elems, 14680064 bytes device footprint)
  kernels: fused_pcr_thomas
  steps:
     1. convert -> Contiguous
     2. upload a -> buf[0] a (524288 elems)
     3. upload b -> buf[1] b (524288 elems)
     4. upload c -> buf[2] c (524288 elems)
     5. upload d -> buf[3] d (524288 elems)
     6. alloc buf[4] x (524288 elems)
     7. alloc buf[5] c_prime (524288 elems)
     8. alloc buf[6] d_prime (524288 elems)
     9. launch fused_pcr_thomas grid=256 threads=32 regs=40 binds=[0, 1, 2, 3, 5, 6, 4] k=5 sub_tile=32
    10. download buf[4] x
    11. convert-back <- Contiguous
=== plan f32 m=2048 n=64 ===
plan: m=2048 n=64 f32 on GTX480
  k=0 mapping=BlockPerSystem fused=false layout=Interleaved
  buffers: 7 (917504 elems, 3670016 bytes device footprint)
  kernels: p_thomas
  steps:
     1. convert -> Interleaved
     2. upload a -> buf[0] a (131072 elems)
     3. upload b -> buf[1] b (131072 elems)
     4. upload c -> buf[2] c (131072 elems)
     5. upload d -> buf[3] d (131072 elems)
     6. alloc buf[4] x (131072 elems)
     7. alloc buf[5] c_prime (131072 elems)
     8. alloc buf[6] d_prime (131072 elems)
     9. launch p_thomas grid=16 threads=128 regs=24 binds=[0, 1, 2, 3, 5, 6, 4] map=Interleaved { m: 2048, n: 64 }
    10. download buf[4] x
    11. convert-back <- Interleaved
=== plan f32 m=256 n=256 ===
plan: m=256 n=256 f32 on GTX480
  k=5 mapping=BlockPerSystem fused=true layout=Contiguous
  buffers: 7 (458752 elems, 1835008 bytes device footprint)
  kernels: fused_pcr_thomas
  steps:
     1. convert -> Contiguous
     2. upload a -> buf[0] a (65536 elems)
     3. upload b -> buf[1] b (65536 elems)
     4. upload c -> buf[2] c (65536 elems)
     5. upload d -> buf[3] d (65536 elems)
     6. alloc buf[4] x (65536 elems)
     7. alloc buf[5] c_prime (65536 elems)
     8. alloc buf[6] d_prime (65536 elems)
     9. launch fused_pcr_thomas grid=256 threads=32 regs=40 binds=[0, 1, 2, 3, 5, 6, 4] k=5 sub_tile=32
    10. download buf[4] x
    11. convert-back <- Contiguous
=== plan f32 m=1 n=16384 ===
plan: m=1 n=16384 f32 on GTX480
  k=9 mapping=BlockGroupPerSystem(8) fused=false layout=Contiguous
  buffers: 11 (180224 elems, 720896 bytes device footprint)
  kernels: tiled_pcr -> p_thomas
  steps:
     1. convert -> Contiguous
     2. upload a -> buf[0] a (16384 elems)
     3. upload b -> buf[1] b (16384 elems)
     4. upload c -> buf[2] c (16384 elems)
     5. upload d -> buf[3] d (16384 elems)
     6. alloc buf[4] x (16384 elems)
     7. alloc buf[5] out_a (16384 elems)
     8. alloc buf[6] out_b (16384 elems)
     9. alloc buf[7] out_c (16384 elems)
    10. alloc buf[8] out_d (16384 elems)
    11. launch tiled_pcr grid=8 threads=512 regs=32 binds=[0, 1, 2, 3, 5, 6, 7, 8] k=9 sub_tile=512
    12. alloc buf[9] c_prime (16384 elems)
    13. alloc buf[10] d_prime (16384 elems)
    14. launch p_thomas grid=4 threads=128 regs=24 binds=[5, 6, 7, 8, 9, 10, 4] map=HybridSubsystems { m: 1, n: 16384, k: 9 }
    15. download buf[4] x
    16. convert-back <- Contiguous
=== end ===
"#;

/// Captured from the pre-refactor monolithic `solve_batch` (seed 42).
const GOLDEN_REPORTS: &str = r#"
=== fig12 f64 m=64 n=512 ===
k=4 mapping=BlockPerSystem fused=false precision=f64 total_us=71.63064477753986 sol=0xc31682c8c48aae25
kernel=tiled_pcr blocks=64 shared=2464 total_us=46.073899595527 launch_us=5.0 bound=Compute
  phase=window_init us=0.041113490364025694 flops=0 gbytes=0 gtxn=0 rounds=0 sh=512 replays=192 barriers=64
  phase=carry_init us=0.0 flops=0 gbytes=0 gtxn=0 rounds=0 sh=0 replays=0 barriers=0
  phase=window_load us=0.6532476802284083 flops=0 gbytes=1048576 gtxn=8192 rounds=8192 sh=8448 replays=0 barriers=2112
  phase=splice us=4.220985010706638 flops=0 gbytes=0 gtxn=0 rounds=0 sh=67584 replays=0 barriers=8448
  phase=pcr_level us=34.169878658101354 flops=1892352 gbytes=0 gtxn=0 rounds=0 sh=202752 replays=0 barriers=16896
  phase=emit us=1.335427075898168 flops=0 gbytes=1048576 gtxn=8192 rounds=8192 sh=16640 replays=6144 barriers=2112
  phase=carry_roll us=0.6532476802284108 flops=0 gbytes=0 gtxn=0 rounds=0 sh=8448 replays=0 barriers=2112
kernel=p_thomas blocks=8 shared=0 total_us=25.556745182012847 launch_us=5.0 bound=Latency
  phase=forward us=13.704496788008564 flops=262144 gbytes=1572864 gtxn=12288 rounds=1536 sh=0 replays=0 barriers=0
  phase=backward us=6.852248394004283 flops=65536 gbytes=786432 gtxn=6144 rounds=768 sh=0 replays=0 barriers=0
=== fig12 f64 m=256 n=512 ===
k=4 mapping=BlockPerSystem fused=false precision=f64 total_us=227.4928024407326 sol=0x401b6f0e647bc0f9
kernel=tiled_pcr blocks=256 shared=2464 total_us=169.295598382108 launch_us=5.0 bound=Compute
  phase=window_init us=0.16445396145610278 flops=0 gbytes=0 gtxn=0 rounds=0 sh=2048 replays=768 barriers=256
  phase=carry_init us=0.0 flops=0 gbytes=0 gtxn=0 rounds=0 sh=0 replays=0 barriers=0
  phase=window_load us=2.612990720913633 flops=0 gbytes=4194304 gtxn=32768 rounds=32768 sh=33792 replays=0 barriers=8448
  phase=splice us=16.883940042826552 flops=0 gbytes=0 gtxn=0 rounds=0 sh=270336 replays=0 barriers=33792
  phase=pcr_level us=136.67951463240541 flops=7569408 gbytes=0 gtxn=0 rounds=0 sh=811008 replays=0 barriers=67584
  phase=emit us=5.341708303592672 flops=0 gbytes=4194304 gtxn=32768 rounds=32768 sh=66560 replays=24576 barriers=8448
  phase=carry_roll us=2.6129907209136434 flops=0 gbytes=0 gtxn=0 rounds=0 sh=33792 replays=0 barriers=8448
kernel=p_thomas blocks=32 shared=0 total_us=58.19720405862458 launch_us=5.0 bound=Bandwidth
  phase=forward us=35.46480270574972 flops=1048576 gbytes=6291456 gtxn=49152 rounds=6144 sh=0 replays=0 barriers=0
  phase=backward us=17.73240135287486 flops=262144 gbytes=3145728 gtxn=24576 rounds=3072 sh=0 replays=0 barriers=0
=== fig12 f64 m=1024 n=512 ===
k=0 mapping=BlockPerSystem fused=false precision=f64 total_us=333.90792291220555 sol=0x50f34aac6855cfa2
kernel=p_thomas blocks=8 shared=0 total_us=333.90792291220555 launch_us=5.0 bound=Latency
  phase=forward us=219.27194860813702 flops=4194304 gbytes=25165824 gtxn=196608 rounds=24576 sh=0 replays=0 barriers=0
  phase=backward us=109.63597430406853 flops=1048576 gbytes=12582912 gtxn=98304 rounds=12288 sh=0 replays=0 barriers=0
=== fig12 f64 m=64 n=2048 ===
k=4 mapping=BlockPerSystem fused=false precision=f64 total_us=252.73100166547707 sol=0x696cb09a58dff6e0
kernel=tiled_pcr blocks=64 shared=2464 total_us=165.50402093742568 launch_us=5.0 bound=Compute
  phase=window_init us=0.04111349036402571 flops=0 gbytes=0 gtxn=0 rounds=0 sh=512 replays=192 barriers=64
  phase=carry_init us=0.0 flops=0 gbytes=0 gtxn=0 rounds=0 sh=0 replays=0 barriers=0
  phase=window_load us=2.5536045681655963 flops=0 gbytes=4194304 gtxn=32768 rounds=32768 sh=33024 replays=0 barriers=8256
  phase=splice us=16.500214132762316 flops=0 gbytes=0 gtxn=0 rounds=0 sh=264192 replays=0 barriers=33024
  phase=pcr_level us=133.57316202712352 flops=7397376 gbytes=0 gtxn=0 rounds=0 sh=792576 replays=0 barriers=66048
  phase=emit us=5.282322150844636 flops=0 gbytes=4194304 gtxn=32768 rounds=32768 sh=65792 replays=24576 barriers=8256
  phase=carry_roll us=2.553604568165582 flops=0 gbytes=0 gtxn=0 rounds=0 sh=33024 replays=0 barriers=8256
kernel=p_thomas blocks=8 shared=0 total_us=87.22698072805139 launch_us=5.0 bound=Latency
  phase=forward us=54.817987152034256 flops=1048576 gbytes=6291456 gtxn=49152 rounds=6144 sh=0 replays=0 barriers=0
  phase=backward us=27.40899357601713 flops=262144 gbytes=3145728 gtxn=24576 rounds=3072 sh=0 replays=0 barriers=0
=== fig12 f64 m=256 n=2048 ===
k=4 mapping=BlockPerSystem fused=false precision=f64 total_us=864.8048999842009 sol=0x88adbaa31e5dca2f
kernel=tiled_pcr blocks=256 shared=2464 total_us=647.0160837497026 launch_us=5.0 bound=Compute
  phase=window_init us=0.1644539614561028 flops=0 gbytes=0 gtxn=0 rounds=0 sh=2048 replays=768 barriers=256
  phase=carry_init us=0.0 flops=0 gbytes=0 gtxn=0 rounds=0 sh=0 replays=0 barriers=0
  phase=window_load us=10.214418272662384 flops=0 gbytes=16777216 gtxn=131072 rounds=131072 sh=132096 replays=0 barriers=33024
  phase=splice us=66.00085653104925 flops=0 gbytes=0 gtxn=0 rounds=0 sh=1056768 replays=0 barriers=132096
  phase=pcr_level us=534.292648108494 flops=29589504 gbytes=0 gtxn=0 rounds=0 sh=3170304 replays=0 barriers=264192
  phase=emit us=21.12928860337854 flops=0 gbytes=16777216 gtxn=131072 rounds=131072 sh=263168 replays=98304 barriers=33024
  phase=carry_roll us=10.214418272662328 flops=0 gbytes=0 gtxn=0 rounds=0 sh=132096 replays=0 barriers=33024
kernel=p_thomas blocks=32 shared=0 total_us=217.7888162344983 launch_us=5.0 bound=Bandwidth
  phase=forward us=141.85921082299888 flops=4194304 gbytes=25165824 gtxn=196608 rounds=24576 sh=0 replays=0 barriers=0
  phase=backward us=70.92960541149944 flops=1048576 gbytes=12582912 gtxn=98304 rounds=12288 sh=0 replays=0 barriers=0
=== fig13 f64 m=2048 n=64 ===
k=0 mapping=BlockPerSystem fused=false precision=f64 total_us=58.19720405862458 sol=0x963149727eca929b
kernel=p_thomas blocks=16 shared=0 total_us=58.19720405862458 launch_us=5.0 bound=Bandwidth
  phase=forward us=35.46480270574972 flops=1048576 gbytes=6291456 gtxn=49152 rounds=6144 sh=0 replays=0 barriers=0
  phase=backward us=17.73240135287486 flops=262144 gbytes=3145728 gtxn=24576 rounds=3072 sh=0 replays=0 barriers=0
=== fig13 f64 m=256 n=256 ===
k=4 mapping=BlockPerSystem fused=false precision=f64 total_us=121.2741195168212 sol=0x57b7fb75553999bb
kernel=tiled_pcr blocks=256 shared=2464 total_us=89.67551748750891 launch_us=5.0 bound=Compute
  phase=window_init us=0.16445396145610278 flops=0 gbytes=0 gtxn=0 rounds=0 sh=2048 replays=768 barriers=256
  phase=carry_init us=0.0 flops=0 gbytes=0 gtxn=0 rounds=0 sh=0 replays=0 barriers=0
  phase=window_load us=1.346086128955508 flops=0 gbytes=2097152 gtxn=16384 rounds=16384 sh=17408 replays=0 barriers=4352
  phase=splice us=8.697787294789435 flops=0 gbytes=0 gtxn=0 rounds=0 sh=139264 replays=0 barriers=17408
  phase=pcr_level us=70.41065905305733 flops=3899392 gbytes=0 gtxn=0 rounds=0 sh=417792 replays=0 barriers=34816
  phase=emit us=2.7104449202950267 flops=0 gbytes=2097152 gtxn=16384 rounds=16384 sh=33792 replays=12288 barriers=4352
  phase=carry_roll us=1.3460861289555055 flops=0 gbytes=0 gtxn=0 rounds=0 sh=17408 replays=0 barriers=4352
kernel=p_thomas blocks=32 shared=0 total_us=31.59860202931229 launch_us=5.0 bound=Bandwidth
  phase=forward us=17.73240135287486 flops=524288 gbytes=3145728 gtxn=24576 rounds=3072 sh=0 replays=0 barriers=0
  phase=backward us=8.86620067643743 flops=131072 gbytes=1572864 gtxn=12288 rounds=1536 sh=0 replays=0 barriers=0
=== fig13 f64 m=16 n=1024 ===
k=5 mapping=BlockPerSystem fused=false precision=f64 total_us=52.87566024268379 sol=0x4a2b7e64ff08e77b
kernel=tiled_pcr blocks=16 shared=5024 total_us=27.31891506067095 launch_us=5.0 bound=Compute
  phase=window_init us=0.016369260052343564 flops=0 gbytes=0 gtxn=0 rounds=0 sh=128 replays=176 barriers=16
  phase=carry_init us=0.0 flops=0 gbytes=0 gtxn=0 rounds=0 sh=0 replays=0 barriers=0
  phase=window_load us=0.2638115631691649 flops=0 gbytes=524288 gtxn=4096 rounds=2048 sh=2112 replays=2112 barriers=528
  phase=splice us=1.52005710206995 flops=0 gbytes=0 gtxn=0 rounds=0 sh=21120 replays=4224 barriers=2640
  phase=pcr_level us=19.924054246966453 flops=1182720 gbytes=0 gtxn=0 rounds=0 sh=63360 replays=46464 barriers=5280
  phase=emit us=0.43131096835593624 flops=0 gbytes=524288 gtxn=4096 rounds=2048 sh=4160 replays=3584 barriers=528
  phase=carry_roll us=0.16331192005710093 flops=0 gbytes=0 gtxn=0 rounds=0 sh=2112 replays=0 barriers=528
kernel=p_thomas blocks=4 shared=0 total_us=25.556745182012847 launch_us=5.0 bound=Latency
  phase=forward us=13.704496788008564 flops=131072 gbytes=786432 gtxn=6144 rounds=768 sh=0 replays=0 barriers=0
  phase=backward us=6.852248394004283 flops=32768 gbytes=393216 gtxn=3072 rounds=384 sh=0 replays=0 barriers=0
=== fig13 f64 m=1 n=16384 ===
k=7 mapping=BlockGroupPerSystem(30) fused=false precision=f64 total_us=141.28374970259338 sol=0xfffe2fecade13551
kernel=tiled_pcr blocks=30 shared=20384 total_us=54.05676897454199 launch_us=5.0 bound=Compute
  phase=window_init us=0.10992148465381868 flops=0 gbytes=0 gtxn=0 rounds=0 sh=240 replays=1050 barriers=30
  phase=carry_init us=0.0 flops=0 gbytes=0 gtxn=0 rounds=0 sh=0 replays=0 barriers=0
  phase=window_load us=0.417701641684511 flops=0 gbytes=760000 gtxn=8840 rounds=832 sh=836 replays=3344 barriers=209
  phase=splice us=3.480847014037592 flops=0 gbytes=0 gtxn=0 rounds=0 sh=11704 replays=11704 barriers=1463
  phase=pcr_level us=44.276374018558165 flops=2621696 gbytes=0 gtxn=0 rounds=0 sh=35112 replays=105336 barriers=2926
  phase=emit us=0.5133476088508208 flops=0 gbytes=524288 gtxn=6288 rounds=716 sh=1552 replays=2490 barriers=209
  phase=carry_roll us=0.2585772067570815 flops=0 gbytes=0 gtxn=0 rounds=0 sh=836 replays=0 barriers=209
kernel=p_thomas blocks=1 shared=0 total_us=87.22698072805139 launch_us=5.0 bound=Latency
  phase=forward us=54.817987152034256 flops=131072 gbytes=786432 gtxn=6144 rounds=768 sh=0 replays=0 barriers=0
  phase=backward us=27.40899357601713 flops=32768 gbytes=393216 gtxn=3072 rounds=384 sh=0 replays=0 barriers=0
=== fig12 f32 m=256 n=512 ===
k=5 mapping=BlockPerSystem fused=false precision=f32 total_us=97.56229462983573 sol=0xb5efa508b0654b07
kernel=tiled_pcr blocks=256 shared=2512 total_us=65.96369260052344 launch_us=5.0 bound=Compute
  phase=window_init us=0.1644539614561028 flops=0 gbytes=0 gtxn=0 rounds=0 sh=2048 replays=768 barriers=256
  phase=carry_init us=0.0 flops=0 gbytes=0 gtxn=0 rounds=0 sh=0 replays=0 barriers=0
  phase=window_load us=1.3460861289555082 flops=0 gbytes=2097152 gtxn=16384 rounds=16384 sh=17408 replays=0 barriers=4352
  phase=splice us=10.872234118486796 flops=0 gbytes=0 gtxn=0 rounds=0 sh=174080 replays=0 barriers=21760
  phase=pcr_level us=44.524387342374496 flops=9748480 gbytes=0 gtxn=0 rounds=0 sh=522240 replays=0 barriers=43520
  phase=emit us=2.710444920295028 flops=0 gbytes=2097152 gtxn=16384 rounds=16384 sh=33792 replays=12288 barriers=4352
  phase=carry_roll us=1.3460861289555126 flops=0 gbytes=0 gtxn=0 rounds=0 sh=17408 replays=0 barriers=4352
kernel=p_thomas blocks=64 shared=0 total_us=31.59860202931229 launch_us=5.0 bound=Bandwidth
  phase=forward us=17.73240135287486 flops=1048576 gbytes=3145728 gtxn=24576 rounds=6144 sh=0 replays=0 barriers=0
  phase=backward us=8.86620067643743 flops=262144 gbytes=1572864 gtxn=12288 rounds=3072 sh=0 replays=0 barriers=0
=== fig13 f32 m=16 n=1024 ===
k=7 mapping=BlockPerSystem fused=false precision=f32 total_us=25.262241256245538 sol=0xdefe7bbcc51abc33
kernel=tiled_pcr blocks=16 shared=10192 total_us=15.123054960742328 launch_us=5.0 bound=Compute
  phase=window_init us=0.030454437306685705 flops=0 gbytes=0 gtxn=0 rounds=0 sh=128 replays=48 barriers=16
  phase=carry_init us=0.0 flops=0 gbytes=0 gtxn=0 rounds=0 sh=0 replays=0 barriers=0
  phase=window_load us=0.14389721627408997 flops=0 gbytes=262144 gtxn=2048 rounds=512 sh=576 replays=0 barriers=144
  phase=splice us=1.7747323340471093 flops=0 gbytes=0 gtxn=0 rounds=0 sh=8064 replays=0 barriers=1008
  phase=pcr_level us=7.7704496788008575 flops=1806336 gbytes=0 gtxn=0 rounds=0 sh=24192 replays=0 barriers=2016
  phase=emit us=0.2596240780394956 flops=0 gbytes=262144 gtxn=2048 rounds=512 sh=1088 replays=384 barriers=144
  phase=carry_roll us=0.14389721627409102 flops=0 gbytes=0 gtxn=0 rounds=0 sh=576 replays=0 barriers=144
kernel=p_thomas blocks=16 shared=0 total_us=10.139186295503212 launch_us=5.0 bound=Latency
  phase=forward us=3.426124197002141 flops=131072 gbytes=393216 gtxn=3072 rounds=768 sh=0 replays=0 barriers=0
  phase=backward us=1.7130620985010707 flops=32768 gbytes=196608 gtxn=1536 rounds=384 sh=0 replays=0 barriers=0
=== end ===
"#;

/// The default config's solves at the [`SWEEP`] points it fuses
/// (seed 42).
const GOLDEN_FUSED_REPORTS: &str = r#"
=== fig12 f64 m=64 n=512 ===
k=4 mapping=BlockPerSystem fused=true precision=f64 total_us=48.63664049488461 sol=0xc31682c8c48aae25
kernel=fused_pcr_thomas blocks=64 shared=2432 total_us=48.63664049488461 launch_us=5.0 bound=Compute
  phase=window_init us=0.041113490364025694 flops=0 gbytes=0 gtxn=0 rounds=0 sh=512 replays=192 barriers=64
  phase=window_load us=0.6532476802284084 flops=0 gbytes=1048576 gtxn=8192 rounds=8192 sh=8448 replays=0 barriers=2112
  phase=splice us=4.220985010706639 flops=0 gbytes=0 gtxn=0 rounds=0 sh=67584 replays=0 barriers=8448
  phase=pcr_level us=34.16987865810136 flops=1892352 gbytes=0 gtxn=0 rounds=0 sh=202752 replays=0 barriers=16896
  phase=window_read us=3.7717820604330243 flops=262144 gbytes=0 gtxn=0 rounds=0 sh=8448 replays=0 barriers=2112
  phase=cprime_store us=0.0 flops=0 gbytes=524288 gtxn=4096 rounds=4096 sh=0 replays=0 barriers=0
  phase=backward us=0.7796335950511519 flops=65536 gbytes=786432 gtxn=6144 rounds=6144 sh=0 replays=0 barriers=0
=== fig12 f64 m=256 n=512 ===
k=4 mapping=BlockPerSystem fused=true precision=f64 total_us=179.54656197953844 sol=0x401b6f0e647bc0f9
kernel=fused_pcr_thomas blocks=256 shared=2432 total_us=179.54656197953844 launch_us=5.0 bound=Compute
  phase=window_init us=0.16445396145610278 flops=0 gbytes=0 gtxn=0 rounds=0 sh=2048 replays=768 barriers=256
  phase=window_load us=2.6129907209136336 flops=0 gbytes=4194304 gtxn=32768 rounds=32768 sh=33792 replays=0 barriers=8448
  phase=splice us=16.883940042826556 flops=0 gbytes=0 gtxn=0 rounds=0 sh=270336 replays=0 barriers=33792
  phase=pcr_level us=136.67951463240544 flops=7569408 gbytes=0 gtxn=0 rounds=0 sh=811008 replays=0 barriers=67584
  phase=window_read us=15.087128241732097 flops=1048576 gbytes=0 gtxn=0 rounds=0 sh=33792 replays=0 barriers=8448
  phase=cprime_store us=0.0 flops=0 gbytes=2097152 gtxn=16384 rounds=16384 sh=0 replays=0 barriers=0
  phase=backward us=3.1185343802046077 flops=262144 gbytes=3145728 gtxn=24576 rounds=24576 sh=0 replays=0 barriers=0
=== fig12 f64 m=64 n=2048 ===
k=4 mapping=BlockPerSystem fused=true precision=f64 total_us=175.81437068760408 sol=0x696cb09a58dff6e0
kernel=fused_pcr_thomas blocks=64 shared=2432 total_us=175.81437068760408 launch_us=5.0 bound=Compute
  phase=window_init us=0.041113490364025694 flops=0 gbytes=0 gtxn=0 rounds=0 sh=512 replays=192 barriers=64
  phase=window_load us=2.553604568165596 flops=0 gbytes=4194304 gtxn=32768 rounds=32768 sh=33024 replays=0 barriers=8256
  phase=splice us=16.500214132762313 flops=0 gbytes=0 gtxn=0 rounds=0 sh=264192 replays=0 barriers=33024
  phase=pcr_level us=133.57316202712346 flops=7397376 gbytes=0 gtxn=0 rounds=0 sh=792576 replays=0 barriers=66048
  phase=window_read us=15.027742088984057 flops=1048576 gbytes=0 gtxn=0 rounds=0 sh=33024 replays=0 barriers=8256
  phase=cprime_store us=0.0 flops=0 gbytes=2097152 gtxn=16384 rounds=16384 sh=0 replays=0 barriers=0
  phase=backward us=3.1185343802046077 flops=262144 gbytes=3145728 gtxn=24576 rounds=24576 sh=0 replays=0 barriers=0
=== fig12 f64 m=256 n=2048 ===
k=4 mapping=BlockPerSystem fused=true precision=f64 total_us=688.2574827504163 sol=0x88adbaa31e5dca2f
kernel=fused_pcr_thomas blocks=256 shared=2432 total_us=688.2574827504163 launch_us=5.0 bound=Compute
  phase=window_init us=0.16445396145610278 flops=0 gbytes=0 gtxn=0 rounds=0 sh=2048 replays=768 barriers=256
  phase=window_load us=10.214418272662384 flops=0 gbytes=16777216 gtxn=131072 rounds=131072 sh=132096 replays=0 barriers=33024
  phase=splice us=66.00085653104925 flops=0 gbytes=0 gtxn=0 rounds=0 sh=1056768 replays=0 barriers=132096
  phase=pcr_level us=534.2926481084938 flops=29589504 gbytes=0 gtxn=0 rounds=0 sh=3170304 replays=0 barriers=264192
  phase=window_read us=60.11096835593623 flops=4194304 gbytes=0 gtxn=0 rounds=0 sh=132096 replays=0 barriers=33024
  phase=cprime_store us=0.0 flops=0 gbytes=8388608 gtxn=65536 rounds=65536 sh=0 replays=0 barriers=0
  phase=backward us=12.47413752081843 flops=1048576 gbytes=12582912 gtxn=98304 rounds=98304 sh=0 replays=0 barriers=0
=== fig13 f64 m=256 n=256 ===
k=4 mapping=BlockPerSystem fused=true precision=f64 total_us=94.76140851772544 sol=0x57b7fb75553999bb
kernel=fused_pcr_thomas blocks=256 shared=2432 total_us=94.76140851772544 launch_us=5.0 bound=Compute
  phase=window_init us=0.1644539614561028 flops=0 gbytes=0 gtxn=0 rounds=0 sh=2048 replays=768 barriers=256
  phase=window_load us=1.3460861289555082 flops=0 gbytes=2097152 gtxn=16384 rounds=16384 sh=17408 replays=0 barriers=4352
  phase=splice us=8.697787294789437 flops=0 gbytes=0 gtxn=0 rounds=0 sh=139264 replays=0 barriers=17408
  phase=pcr_level us=70.41065905305734 flops=3899392 gbytes=0 gtxn=0 rounds=0 sh=417792 replays=0 barriers=34816
  phase=window_read us=7.58315488936474 flops=524288 gbytes=0 gtxn=0 rounds=0 sh=17408 replays=0 barriers=4352
  phase=cprime_store us=0.0 flops=0 gbytes=1048576 gtxn=8192 rounds=8192 sh=0 replays=0 barriers=0
  phase=backward us=1.559267190102318 flops=131072 gbytes=1572864 gtxn=12288 rounds=12288 sh=0 replays=0 barriers=0
=== fig13 f64 m=16 n=1024 ===
k=5 mapping=BlockPerSystem fused=true precision=f64 total_us=28.93718772305496 sol=0x4a2b7e64ff08e77b
kernel=fused_pcr_thomas blocks=16 shared=4992 total_us=28.93718772305496 launch_us=5.0 bound=Compute
  phase=window_init us=0.016369260052343567 flops=0 gbytes=0 gtxn=0 rounds=0 sh=128 replays=176 barriers=16
  phase=window_load us=0.2638115631691649 flops=0 gbytes=524288 gtxn=4096 rounds=2048 sh=2112 replays=2112 barriers=528
  phase=splice us=1.5200571020699503 flops=0 gbytes=0 gtxn=0 rounds=0 sh=21120 replays=4224 barriers=2640
  phase=pcr_level us=19.924054246966453 flops=1182720 gbytes=0 gtxn=0 rounds=0 sh=63360 replays=46464 barriers=5280
  phase=window_read us=1.8230787532714727 flops=131072 gbytes=0 gtxn=0 rounds=0 sh=2112 replays=2112 barriers=528
  phase=cprime_store us=0.0 flops=0 gbytes=262144 gtxn=2048 rounds=1024 sh=0 replays=0 barriers=0
  phase=backward us=0.38981679752557596 flops=32768 gbytes=393216 gtxn=3072 rounds=1536 sh=0 replays=0 barriers=0
=== fig12 f32 m=256 n=512 ===
k=5 mapping=BlockPerSystem fused=true precision=f32 total_us=65.2023316678563 sol=0xb5efa508b0654b07
kernel=fused_pcr_thomas blocks=256 shared=2496 total_us=65.2023316678563 launch_us=5.0 bound=Compute
  phase=window_init us=0.1644539614561028 flops=0 gbytes=0 gtxn=0 rounds=0 sh=2048 replays=768 barriers=256
  phase=window_load us=1.3460861289555082 flops=0 gbytes=2097152 gtxn=16384 rounds=16384 sh=17408 replays=0 barriers=4352
  phase=splice us=10.872234118486796 flops=0 gbytes=0 gtxn=0 rounds=0 sh=174080 replays=0 barriers=21760
  phase=pcr_level us=44.5243873423745 flops=9748480 gbytes=0 gtxn=0 rounds=0 sh=522240 replays=0 barriers=43520
  phase=window_read us=2.905353319057816 flops=1048576 gbytes=0 gtxn=0 rounds=0 sh=17408 replays=0 barriers=4352
  phase=cprime_store us=0.0 flops=0 gbytes=1048576 gtxn=8192 rounds=8192 sh=0 replays=0 barriers=0
  phase=backward us=0.38981679752557596 flops=262144 gbytes=1572864 gtxn=12288 rounds=12288 sh=0 replays=0 barriers=0
=== fig13 f32 m=16 n=1024 ===
k=7 mapping=BlockPerSystem fused=true precision=f32 total_us=15.107066381156317 sol=0xdefe7bbcc51abc33
kernel=fused_pcr_thomas blocks=16 shared=10176 total_us=15.107066381156317 launch_us=5.0 bound=Compute
  phase=window_init us=0.0304544373066857 flops=0 gbytes=0 gtxn=0 rounds=0 sh=128 replays=48 barriers=16
  phase=window_load us=0.14389721627408994 flops=0 gbytes=262144 gtxn=2048 rounds=512 sh=576 replays=0 barriers=144
  phase=splice us=1.7747323340471093 flops=0 gbytes=0 gtxn=0 rounds=0 sh=8064 replays=0 barriers=1008
  phase=pcr_level us=7.770449678800857 flops=1806336 gbytes=0 gtxn=0 rounds=0 sh=24192 replays=0 barriers=2016
  phase=window_read us=0.3388056150368784 flops=131072 gbytes=0 gtxn=0 rounds=0 sh=576 replays=0 barriers=144
  phase=cprime_store us=0.0 flops=0 gbytes=131072 gtxn=1024 rounds=256 sh=0 replays=0 barriers=0
  phase=backward us=0.04872709969069611 flops=32768 gbytes=196608 gtxn=1536 rounds=384 sh=0 replays=0 barriers=0
=== end ===
"#;
