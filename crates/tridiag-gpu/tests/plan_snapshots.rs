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
  k=6 mapping=BlockPerSystem fused=true layout=Contiguous
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
     9. launch fused_pcr_thomas grid=64 threads=64 regs=40 binds=[0, 1, 2, 3, 5, 6, 4] k=6 sub_tile=64
    10. download buf[4] x
    11. convert-back <- Contiguous
=== fig12 f64 m=256 n=512 ===
plan: m=256 n=512 f64 on GTX480
  k=6 mapping=BlockPerSystem fused=true layout=Contiguous
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
     9. launch fused_pcr_thomas grid=256 threads=64 regs=40 binds=[0, 1, 2, 3, 5, 6, 4] k=6 sub_tile=64
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
  k=6 mapping=BlockPerSystem fused=true layout=Contiguous
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
     9. launch fused_pcr_thomas grid=64 threads=64 regs=40 binds=[0, 1, 2, 3, 5, 6, 4] k=6 sub_tile=64
    10. download buf[4] x
    11. convert-back <- Contiguous
=== fig12 f64 m=256 n=2048 ===
plan: m=256 n=2048 f64 on GTX480
  k=6 mapping=BlockPerSystem fused=true layout=Contiguous
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
     9. launch fused_pcr_thomas grid=256 threads=64 regs=40 binds=[0, 1, 2, 3, 5, 6, 4] k=6 sub_tile=64
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
  k=6 mapping=BlockPerSystem fused=true layout=Contiguous
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
     9. launch fused_pcr_thomas grid=256 threads=64 regs=40 binds=[0, 1, 2, 3, 5, 6, 4] k=6 sub_tile=64
    10. download buf[4] x
    11. convert-back <- Contiguous
=== fig13 f64 m=16 n=1024 ===
plan: m=16 n=1024 f64 on GTX480
  k=7 mapping=BlockGroupPerSystem(2) fused=false layout=Contiguous
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
    11. launch tiled_pcr grid=32 threads=128 regs=32 binds=[0, 1, 2, 3, 5, 6, 7, 8] k=7 sub_tile=128
    12. alloc buf[9] c_prime (16384 elems)
    13. alloc buf[10] d_prime (16384 elems)
    14. launch p_thomas grid=16 threads=128 regs=24 binds=[5, 6, 7, 8, 9, 10, 4] map=HybridSubsystems { m: 16, n: 1024, k: 7 }
    15. download buf[4] x
    16. convert-back <- Contiguous
=== fig13 f64 m=1 n=16384 ===
plan: m=1 n=16384 f64 on GTX480
  k=8 mapping=BlockGroupPerSystem(16) fused=false layout=Contiguous
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
    11. launch tiled_pcr grid=16 threads=256 regs=32 binds=[0, 1, 2, 3, 5, 6, 7, 8] k=8 sub_tile=256
    12. alloc buf[9] c_prime (16384 elems)
    13. alloc buf[10] d_prime (16384 elems)
    14. launch p_thomas grid=2 threads=128 regs=24 binds=[5, 6, 7, 8, 9, 10, 4] map=HybridSubsystems { m: 1, n: 16384, k: 8 }
    15. download buf[4] x
    16. convert-back <- Contiguous
=== fig12 f32 m=256 n=512 ===
plan: m=256 n=512 f32 on GTX480
  k=6 mapping=BlockPerSystem fused=true layout=Contiguous
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
     9. launch fused_pcr_thomas grid=256 threads=64 regs=40 binds=[0, 1, 2, 3, 5, 6, 4] k=6 sub_tile=64
    10. download buf[4] x
    11. convert-back <- Contiguous
=== fig13 f32 m=16 n=1024 ===
plan: m=16 n=1024 f32 on GTX480
  k=7 mapping=BlockGroupPerSystem(2) fused=false layout=Contiguous
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
    11. launch tiled_pcr grid=32 threads=128 regs=32 binds=[0, 1, 2, 3, 5, 6, 7, 8] k=7 sub_tile=128
    12. alloc buf[9] c_prime (16384 elems)
    13. alloc buf[10] d_prime (16384 elems)
    14. launch p_thomas grid=16 threads=128 regs=24 binds=[5, 6, 7, 8, 9, 10, 4] map=HybridSubsystems { m: 16, n: 1024, k: 7 }
    15. download buf[4] x
    16. convert-back <- Contiguous
=== end ===
"#;

/// Pinned `SolvePlan::describe()` output for [`F32_PLAN_POINTS`].
const GOLDEN_F32_PLANS: &str = r#"
=== plan f32 m=64 n=512 ===
plan: m=64 n=512 f32 on GTX480
  k=6 mapping=BlockPerSystem fused=true layout=Contiguous
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
     9. launch fused_pcr_thomas grid=64 threads=64 regs=40 binds=[0, 1, 2, 3, 5, 6, 4] k=6 sub_tile=64
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
  k=6 mapping=BlockPerSystem fused=true layout=Contiguous
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
     9. launch fused_pcr_thomas grid=64 threads=64 regs=40 binds=[0, 1, 2, 3, 5, 6, 4] k=6 sub_tile=64
    10. download buf[4] x
    11. convert-back <- Contiguous
=== plan f32 m=256 n=2048 ===
plan: m=256 n=2048 f32 on GTX480
  k=6 mapping=BlockPerSystem fused=true layout=Contiguous
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
     9. launch fused_pcr_thomas grid=256 threads=64 regs=40 binds=[0, 1, 2, 3, 5, 6, 4] k=6 sub_tile=64
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
  k=6 mapping=BlockPerSystem fused=true layout=Contiguous
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
     9. launch fused_pcr_thomas grid=256 threads=64 regs=40 binds=[0, 1, 2, 3, 5, 6, 4] k=6 sub_tile=64
    10. download buf[4] x
    11. convert-back <- Contiguous
=== plan f32 m=1 n=16384 ===
plan: m=1 n=16384 f32 on GTX480
  k=8 mapping=BlockGroupPerSystem(16) fused=false layout=Contiguous
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
    11. launch tiled_pcr grid=16 threads=256 regs=32 binds=[0, 1, 2, 3, 5, 6, 7, 8] k=8 sub_tile=256
    12. alloc buf[9] c_prime (16384 elems)
    13. alloc buf[10] d_prime (16384 elems)
    14. launch p_thomas grid=2 threads=128 regs=24 binds=[5, 6, 7, 8, 9, 10, 4] map=HybridSubsystems { m: 1, n: 16384, k: 8 }
    15. download buf[4] x
    16. convert-back <- Contiguous
=== end ===
"#;

/// Captured from the pre-refactor monolithic `solve_batch` (seed 42).
const GOLDEN_REPORTS: &str = r#"
=== fig12 f64 m=64 n=512 ===
k=6 mapping=BlockPerSystem fused=false precision=f64 total_us=91.59694555427072 sol=0x812ca342a79bb1cb
kernel=tiled_pcr blocks=64 shared=10144 total_us=73.29764453961457 launch_us=5.0 bound=Compute
  phase=window_init us=0.14275517487508924 flops=0 gbytes=0 gtxn=0 rounds=0 sh=512 replays=1216 barriers=64
  phase=carry_init us=0.0 flops=0 gbytes=0 gtxn=0 rounds=0 sh=0 replays=0 barriers=0
  phase=window_load us=0.6745182012847966 flops=0 gbytes=1048576 gtxn=8192 rounds=2048 sh=2304 replays=4608 barriers=576
  phase=splice us=4.817987152034261 flops=0 gbytes=0 gtxn=0 rounds=0 sh=27648 replays=13824 barriers=3456
  phase=pcr_level us=61.2847965738758 flops=3096576 gbytes=0 gtxn=0 rounds=0 sh=82944 replays=124416 barriers=6912
  phase=emit us=0.9600285510349751 flops=0 gbytes=1048576 gtxn=8192 rounds=2048 sh=4352 replays=5632 barriers=576
  phase=carry_roll us=0.4175588865096387 flops=0 gbytes=0 gtxn=0 rounds=0 sh=2304 replays=0 barriers=576
kernel=p_thomas blocks=32 shared=0 total_us=18.299301014656145 launch_us=5.0 bound=Bandwidth
  phase=forward us=8.86620067643743 flops=262144 gbytes=1572864 gtxn=12288 rounds=1536 sh=0 replays=0 barriers=0
  phase=backward us=4.433100338218715 flops=65536 gbytes=786432 gtxn=6144 rounds=768 sh=0 replays=0 barriers=0
=== fig12 f64 m=256 n=512 ===
k=6 mapping=BlockPerSystem fused=false precision=f64 total_us=297.5477099781648 sol=0x0f90dddcead52439
kernel=tiled_pcr blocks=256 shared=10144 total_us=238.1226266952177 launch_us=5.0 bound=Compute
  phase=window_init us=0.4872709969069712 flops=0 gbytes=0 gtxn=0 rounds=0 sh=2048 replays=4864 barriers=256
  phase=carry_init us=0.0 flops=0 gbytes=0 gtxn=0 rounds=0 sh=0 replays=0 barriers=0
  phase=window_load us=2.3023554603854386 flops=0 gbytes=4194304 gtxn=32768 rounds=8192 sh=9216 replays=18432 barriers=2304
  phase=splice us=16.445396145610278 flops=0 gbytes=0 gtxn=0 rounds=0 sh=110592 replays=55296 barriers=13824
  phase=pcr_level us=209.18543897216273 flops=12386304 gbytes=0 gtxn=0 rounds=0 sh=331776 replays=497664 barriers=27648
  phase=emit us=3.276897454199381 flops=0 gbytes=4194304 gtxn=32768 rounds=8192 sh=17408 replays=22528 barriers=2304
  phase=carry_roll us=1.4252676659529016 flops=0 gbytes=0 gtxn=0 rounds=0 sh=9216 replays=0 barriers=2304
kernel=p_thomas blocks=128 shared=0 total_us=59.425083282947114 launch_us=5.0 bound=Bandwidth
  phase=forward us=36.28338885529807 flops=1048576 gbytes=6291456 gtxn=49152 rounds=6144 sh=0 replays=0 barriers=0
  phase=backward us=18.141694427649043 flops=262144 gbytes=3145728 gtxn=24576 rounds=3072 sh=0 replays=0 barriers=0
=== fig12 f64 m=1024 n=512 ===
k=0 mapping=BlockPerSystem fused=false precision=f64 total_us=333.90792291220555 sol=0x50f34aac6855cfa2
kernel=p_thomas blocks=8 shared=0 total_us=333.90792291220555 launch_us=5.0 bound=Latency
  phase=forward us=219.27194860813702 flops=4194304 gbytes=25165824 gtxn=196608 rounds=24576 sh=0 replays=0 barriers=0
  phase=backward us=109.63597430406853 flops=1048576 gbytes=12582912 gtxn=98304 rounds=12288 sh=0 replays=0 barriers=0
=== fig12 f64 m=64 n=2048 ===
k=6 mapping=BlockPerSystem fused=false precision=f64 total_us=313.4220434590528 sol=0xb608ad9d2a5287f4
kernel=tiled_pcr blocks=64 shared=10144 total_us=255.22483940042827 launch_us=5.0 bound=Compute
  phase=window_init us=0.14275517487508924 flops=0 gbytes=0 gtxn=0 rounds=0 sh=512 replays=1216 barriers=64
  phase=carry_init us=0.0 flops=0 gbytes=0 gtxn=0 rounds=0 sh=0 replays=0 barriers=0
  phase=window_load us=2.473233404710921 flops=0 gbytes=4194304 gtxn=32768 rounds=8192 sh=8448 replays=16896 barriers=2112
  phase=splice us=17.66595289079229 flops=0 gbytes=0 gtxn=0 rounds=0 sh=101376 replays=50688 barriers=12672
  phase=pcr_level us=224.71092077087795 flops=11354112 gbytes=0 gtxn=0 rounds=0 sh=304128 replays=456192 barriers=25344
  phase=emit us=3.700927908636688 flops=0 gbytes=4194304 gtxn=32768 rounds=8192 sh=16640 replays=22528 barriers=2112
  phase=carry_roll us=1.5310492505353182 flops=0 gbytes=0 gtxn=0 rounds=0 sh=8448 replays=0 barriers=2112
kernel=p_thomas blocks=32 shared=0 total_us=58.19720405862458 launch_us=5.0 bound=Bandwidth
  phase=forward us=35.46480270574972 flops=1048576 gbytes=6291456 gtxn=49152 rounds=6144 sh=0 replays=0 barriers=0
  phase=backward us=17.73240135287486 flops=262144 gbytes=3145728 gtxn=24576 rounds=3072 sh=0 replays=0 barriers=0
=== fig12 f64 m=256 n=2048 ===
k=6 mapping=BlockPerSystem fused=false precision=f64 total_us=1081.8011182852501 sol=0xb03456b6654f3cda
kernel=tiled_pcr blocks=256 shared=10144 total_us=859.1007851534617 launch_us=5.0 bound=Compute
  phase=window_init us=0.4872709969069712 flops=0 gbytes=0 gtxn=0 rounds=0 sh=2048 replays=4864 barriers=256
  phase=carry_init us=0.0 flops=0 gbytes=0 gtxn=0 rounds=0 sh=0 replays=0 barriers=0
  phase=window_load us=8.441970021413276 flops=0 gbytes=16777216 gtxn=131072 rounds=32768 sh=33792 replays=67584 barriers=8448
  phase=splice us=60.29978586723768 flops=0 gbytes=0 gtxn=0 rounds=0 sh=405504 replays=202752 barriers=50688
  phase=pcr_level us=767.0132762312633 flops=45416448 gbytes=0 gtxn=0 rounds=0 sh=1216512 replays=1824768 barriers=101376
  phase=emit us=12.632500594813228 flops=0 gbytes=16777216 gtxn=131072 rounds=32768 sh=66560 replays=90112 barriers=8448
  phase=carry_roll us=5.225981441827344 flops=0 gbytes=0 gtxn=0 rounds=0 sh=33792 replays=0 barriers=8448
kernel=p_thomas blocks=128 shared=0 total_us=222.70033313178845 launch_us=5.0 bound=Bandwidth
  phase=forward us=145.13355542119228 flops=4194304 gbytes=25165824 gtxn=196608 rounds=24576 sh=0 replays=0 barriers=0
  phase=backward us=72.56677771059617 flops=1048576 gbytes=12582912 gtxn=98304 rounds=12288 sh=0 replays=0 barriers=0
=== fig13 f64 m=2048 n=64 ===
k=0 mapping=BlockPerSystem fused=false precision=f64 total_us=58.19720405862458 sol=0x963149727eca929b
kernel=p_thomas blocks=16 shared=0 total_us=58.19720405862458 launch_us=5.0 bound=Bandwidth
  phase=forward us=35.46480270574972 flops=1048576 gbytes=6291456 gtxn=49152 rounds=6144 sh=0 replays=0 barriers=0
  phase=backward us=17.73240135287486 flops=262144 gbytes=3145728 gtxn=24576 rounds=3072 sh=0 replays=0 barriers=0
=== fig13 f64 m=256 n=256 ===
k=6 mapping=BlockPerSystem fused=false precision=f64 total_us=166.83880859365058 sol=0xb7922e19655b7571
kernel=tiled_pcr blocks=256 shared=10144 total_us=134.62626695217702 launch_us=5.0 bound=Compute
  phase=window_init us=0.48727099690697123 flops=0 gbytes=0 gtxn=0 rounds=0 sh=2048 replays=4864 barriers=256
  phase=carry_init us=0.0 flops=0 gbytes=0 gtxn=0 rounds=0 sh=0 replays=0 barriers=0
  phase=window_load us=1.2790863668807995 flops=0 gbytes=2097152 gtxn=16384 rounds=4096 sh=5120 replays=10240 barriers=1280
  phase=splice us=9.136331192005711 flops=0 gbytes=0 gtxn=0 rounds=0 sh=61440 replays=30720 barriers=7680
  phase=pcr_level us=116.21413276231263 flops=6881280 gbytes=0 gtxn=0 rounds=0 sh=184320 replays=276480 barriers=15360
  phase=emit us=1.7176302640970735 flops=0 gbytes=2097152 gtxn=16384 rounds=4096 sh=9216 replays=11264 barriers=1280
  phase=carry_roll us=0.7918153699738468 flops=0 gbytes=0 gtxn=0 rounds=0 sh=5120 replays=0 barriers=1280
kernel=p_thomas blocks=128 shared=0 total_us=32.21254164147356 launch_us=5.0 bound=Bandwidth
  phase=forward us=18.141694427649036 flops=524288 gbytes=3145728 gtxn=24576 rounds=3072 sh=0 replays=0 barriers=0
  phase=backward us=9.070847213824521 flops=131072 gbytes=1572864 gtxn=12288 rounds=1536 sh=0 replays=0 barriers=0
=== fig13 f64 m=16 n=1024 ===
k=7 mapping=BlockGroupPerSystem(2) fused=false precision=f64 total_us=74.79311945807754 sol=0x4db375949b24ebc9
kernel=tiled_pcr blocks=32 shared=20384 total_us=63.143468950749465 launch_us=5.0 bound=Compute
  phase=window_init us=0.16488222698072805 flops=0 gbytes=0 gtxn=0 rounds=0 sh=256 replays=1120 barriers=32
  phase=carry_init us=0.0 flops=0 gbytes=0 gtxn=0 rounds=0 sh=0 replays=0 barriers=0
  phase=window_load us=0.49464668094218417 flops=0 gbytes=654336 gtxn=6336 rounds=640 sh=704 replays=2816 barriers=176
  phase=splice us=4.122055674518202 flops=0 gbytes=0 gtxn=0 rounds=0 sh=9856 replays=9856 barriers=1232
  phase=pcr_level us=52.432548179871524 flops=2207744 gbytes=0 gtxn=0 rounds=0 sh=29568 replays=88704 barriers=2464
  phase=emit us=0.6231263383297645 flops=0 gbytes=524288 gtxn=5120 rounds=576 sh=1280 replays=2432 barriers=176
  phase=carry_roll us=0.3062098501070665 flops=0 gbytes=0 gtxn=0 rounds=0 sh=704 replays=0 barriers=176
kernel=p_thomas blocks=16 shared=0 total_us=11.649650507328072 launch_us=5.0 bound=Bandwidth
  phase=forward us=4.433100338218715 flops=131072 gbytes=786432 gtxn=6144 rounds=768 sh=0 replays=0 barriers=0
  phase=backward us=2.2165501691093574 flops=32768 gbytes=393216 gtxn=3072 rounds=384 sh=0 replays=0 barriers=0
=== fig13 f64 m=1 n=16384 ===
k=8 mapping=BlockGroupPerSystem(16) fused=false precision=f64 total_us=146.54434927432786 sol=0xaf4713a3f588f938
kernel=tiled_pcr blocks=16 shared=40864 total_us=100.43085891030216 launch_us=5.0 bound=Compute
  phase=window_init us=0.21623657917633304 flops=0 gbytes=0 gtxn=0 rounds=0 sh=128 replays=1072 barriers=16
  phase=carry_init us=0.0 flops=0 gbytes=0 gtxn=0 rounds=0 sh=0 replays=0 barriers=0
  phase=window_load us=0.7142251249284509 flops=0 gbytes=769088 gtxn=8804 rounds=376 sh=380 replays=3040 barriers=95
  phase=splice us=6.734122606468253 flops=0 gbytes=0 gtxn=0 rounds=0 sh=6080 replays=11400 barriers=760
  phase=pcr_level us=86.45525083657725 flops=2723840 gbytes=0 gtxn=0 rounds=0 sh=18240 replays=108680 barriers=1520
  phase=emit us=0.8688844001009276 flops=0 gbytes=524288 gtxn=6016 rounds=316 sh=696 replays=2240 barriers=95
  phase=carry_roll us=0.4421393630509556 flops=0 gbytes=0 gtxn=0 rounds=0 sh=380 replays=0 barriers=95
kernel=p_thomas blocks=2 shared=0 total_us=46.113490364025694 launch_us=5.0 bound=Latency
  phase=forward us=27.408993576017128 flops=131072 gbytes=786432 gtxn=6144 rounds=768 sh=0 replays=0 barriers=0
  phase=backward us=13.704496788008566 flops=32768 gbytes=393216 gtxn=3072 rounds=384 sh=0 replays=0 barriers=0
=== fig12 f32 m=256 n=512 ===
k=6 mapping=BlockPerSystem fused=false precision=f32 total_us=107.45265584561346 sol=0x5fd9a62fbcfdf5ea
kernel=tiled_pcr blocks=256 shared=5072 total_us=75.2401142041399 launch_us=5.0 bound=Compute
  phase=window_init us=0.261908160837497 flops=0 gbytes=0 gtxn=0 rounds=0 sh=2048 replays=768 barriers=256
  phase=carry_init us=0.0 flops=0 gbytes=0 gtxn=0 rounds=0 sh=0 replays=0 barriers=0
  phase=window_load us=1.1511777301927195 flops=0 gbytes=2097152 gtxn=16384 rounds=8192 sh=9216 replays=0 barriers=2304
  phase=splice us=12.169593147751605 flops=0 gbytes=0 gtxn=0 rounds=0 sh=110592 replays=0 barriers=13824
  phase=pcr_level us=53.2830835117773 flops=12386304 gbytes=0 gtxn=0 rounds=0 sh=331776 replays=0 barriers=27648
  phase=emit us=2.2231739233880563 flops=0 gbytes=2097152 gtxn=16384 rounds=8192 sh=17408 replays=6144 barriers=2304
  phase=carry_roll us=1.151177730192714 flops=0 gbytes=0 gtxn=0 rounds=0 sh=9216 replays=0 barriers=2304
kernel=p_thomas blocks=128 shared=0 total_us=32.21254164147356 launch_us=5.0 bound=Bandwidth
  phase=forward us=18.141694427649036 flops=1048576 gbytes=3145728 gtxn=24576 rounds=6144 sh=0 replays=0 barriers=0
  phase=backward us=9.070847213824521 flops=262144 gbytes=1572864 gtxn=12288 rounds=3072 sh=0 replays=0 barriers=0
=== fig13 f32 m=16 n=1024 ===
k=7 mapping=BlockGroupPerSystem(2) fused=false precision=f32 total_us=27.521960504401616 sol=0xdefe7bbcc51abc33
kernel=tiled_pcr blocks=32 shared=10192 total_us=17.382774208898404 launch_us=5.0 bound=Compute
  phase=window_init us=0.06090887461337139 flops=0 gbytes=0 gtxn=0 rounds=0 sh=256 replays=96 barriers=32
  phase=carry_init us=0.0 flops=0 gbytes=0 gtxn=0 rounds=0 sh=0 replays=0 barriers=0
  phase=window_load us=0.1758743754461099 flops=0 gbytes=327168 gtxn=3776 rounds=640 sh=704 replays=0 barriers=176
  phase=splice us=2.1691172971686883 flops=0 gbytes=0 gtxn=0 rounds=0 sh=9856 replays=0 barriers=1232
  phase=pcr_level us=9.497216274089935 flops=2207744 gbytes=0 gtxn=0 rounds=0 sh=29568 replays=0 barriers=2464
  phase=emit us=0.3037830121341898 flops=0 gbytes=262144 gtxn=3072 rounds=576 sh=1280 replays=384 barriers=176
  phase=carry_roll us=0.17587437544611007 flops=0 gbytes=0 gtxn=0 rounds=0 sh=704 replays=0 barriers=176
kernel=p_thomas blocks=16 shared=0 total_us=10.139186295503212 launch_us=5.0 bound=Latency
  phase=forward us=3.426124197002141 flops=131072 gbytes=393216 gtxn=3072 rounds=768 sh=0 replays=0 barriers=0
  phase=backward us=1.7130620985010707 flops=32768 gbytes=196608 gtxn=1536 rounds=384 sh=0 replays=0 barriers=0
=== end ===
"#;

/// The default config's solves at the [`SWEEP`] points it fuses
/// (seed 42).
const GOLDEN_FUSED_REPORTS: &str = r#"
=== fig12 f64 m=64 n=512 ===
k=6 mapping=BlockPerSystem fused=true precision=f64 total_us=77.1627408993576 sol=0x812ca342a79bb1cb
kernel=fused_pcr_thomas blocks=64 shared=10112 total_us=77.1627408993576 launch_us=5.0 bound=Compute
  phase=window_init us=0.1427551748750892 flops=0 gbytes=0 gtxn=0 rounds=0 sh=512 replays=1216 barriers=64
  phase=window_load us=0.6745182012847966 flops=0 gbytes=1048576 gtxn=8192 rounds=2048 sh=2304 replays=4608 barriers=576
  phase=splice us=4.817987152034261 flops=0 gbytes=0 gtxn=0 rounds=0 sh=27648 replays=13824 barriers=3456
  phase=pcr_level us=61.2847965738758 flops=3096576 gbytes=0 gtxn=0 rounds=0 sh=82944 replays=124416 barriers=6912
  phase=window_read us=4.32905067808708 flops=262144 gbytes=0 gtxn=0 rounds=0 sh=2304 replays=4608 barriers=576
  phase=cprime_store us=0.0 flops=0 gbytes=524288 gtxn=4096 rounds=1024 sh=0 replays=0 barriers=0
  phase=backward us=0.9136331192005684 flops=65536 gbytes=786432 gtxn=6144 rounds=1536 sh=0 replays=0 barriers=0
=== fig12 f64 m=256 n=512 ===
k=6 mapping=BlockPerSystem fused=true precision=f64 total_us=251.31548893647394 sol=0x0f90dddcead52439
kernel=fused_pcr_thomas blocks=256 shared=10112 total_us=251.31548893647394 launch_us=5.0 bound=Compute
  phase=window_init us=0.4872709969069712 flops=0 gbytes=0 gtxn=0 rounds=0 sh=2048 replays=4864 barriers=256
  phase=window_load us=2.3023554603854386 flops=0 gbytes=4194304 gtxn=32768 rounds=8192 sh=9216 replays=18432 barriers=2304
  phase=splice us=16.445396145610278 flops=0 gbytes=0 gtxn=0 rounds=0 sh=110592 replays=55296 barriers=13824
  phase=pcr_level us=209.18543897216276 flops=12386304 gbytes=0 gtxn=0 rounds=0 sh=331776 replays=497664 barriers=27648
  phase=window_read us=14.776492981203901 flops=1048576 gbytes=0 gtxn=0 rounds=0 sh=9216 replays=18432 barriers=2304
  phase=cprime_store us=0.0 flops=0 gbytes=2097152 gtxn=16384 rounds=4096 sh=0 replays=0 barriers=0
  phase=backward us=3.1185343802045793 flops=262144 gbytes=3145728 gtxn=24576 rounds=6144 sh=0 replays=0 barriers=0
=== fig12 f64 m=64 n=2048 ===
k=6 mapping=BlockPerSystem fused=true precision=f64 total_us=270.7387580299786 sol=0xb608ad9d2a5287f4
kernel=fused_pcr_thomas blocks=64 shared=10112 total_us=270.7387580299786 launch_us=5.0 bound=Compute
  phase=window_init us=0.14275517487508924 flops=0 gbytes=0 gtxn=0 rounds=0 sh=512 replays=1216 barriers=64
  phase=window_load us=2.473233404710921 flops=0 gbytes=4194304 gtxn=32768 rounds=8192 sh=8448 replays=16896 barriers=2112
  phase=splice us=17.665952890792294 flops=0 gbytes=0 gtxn=0 rounds=0 sh=101376 replays=50688 barriers=12672
  phase=pcr_level us=224.71092077087798 flops=11354112 gbytes=0 gtxn=0 rounds=0 sh=304128 replays=456192 barriers=25344
  phase=window_read us=17.09136331192006 flops=1048576 gbytes=0 gtxn=0 rounds=0 sh=8448 replays=16896 barriers=2112
  phase=cprime_store us=0.0 flops=0 gbytes=2097152 gtxn=16384 rounds=4096 sh=0 replays=0 barriers=0
  phase=backward us=3.6545324768022738 flops=262144 gbytes=3145728 gtxn=24576 rounds=6144 sh=0 replays=0 barriers=0
=== fig12 f64 m=256 n=2048 ===
k=6 mapping=BlockPerSystem fused=true precision=f64 total_us=912.0549607423269 sol=0xb03456b6654f3cda
kernel=fused_pcr_thomas blocks=256 shared=10112 total_us=912.0549607423269 launch_us=5.0 bound=Compute
  phase=window_init us=0.48727099690697123 flops=0 gbytes=0 gtxn=0 rounds=0 sh=2048 replays=4864 barriers=256
  phase=window_load us=8.441970021413276 flops=0 gbytes=16777216 gtxn=131072 rounds=32768 sh=33792 replays=67584 barriers=8448
  phase=splice us=60.29978586723769 flops=0 gbytes=0 gtxn=0 rounds=0 sh=405504 replays=202752 barriers=50688
  phase=pcr_level us=767.0132762312634 flops=45416448 gbytes=0 gtxn=0 rounds=0 sh=1216512 replays=1824768 barriers=101376
  phase=window_read us=58.33852010468712 flops=4194304 gbytes=0 gtxn=0 rounds=0 sh=33792 replays=67584 barriers=8448
  phase=cprime_store us=0.0 flops=0 gbytes=8388608 gtxn=65536 rounds=16384 sh=0 replays=0 barriers=0
  phase=backward us=12.474137520818545 flops=1048576 gbytes=12582912 gtxn=98304 rounds=24576 sh=0 replays=0 barriers=0
=== fig13 f64 m=256 n=256 ===
k=6 mapping=BlockPerSystem fused=true precision=f64 total_us=141.19224363549847 sol=0xb7922e19655b7571
kernel=fused_pcr_thomas blocks=256 shared=10112 total_us=141.19224363549847 launch_us=5.0 bound=Compute
  phase=window_init us=0.4872709969069713 flops=0 gbytes=0 gtxn=0 rounds=0 sh=2048 replays=4864 barriers=256
  phase=window_load us=1.2790863668807997 flops=0 gbytes=2097152 gtxn=16384 rounds=4096 sh=5120 replays=10240 barriers=1280
  phase=splice us=9.136331192005711 flops=0 gbytes=0 gtxn=0 rounds=0 sh=61440 replays=30720 barriers=7680
  phase=pcr_level us=116.21413276231266 flops=6881280 gbytes=0 gtxn=0 rounds=0 sh=184320 replays=276480 barriers=15360
  phase=window_read us=7.516155127290031 flops=524288 gbytes=0 gtxn=0 rounds=0 sh=5120 replays=10240 barriers=1280
  phase=cprime_store us=0.0 flops=0 gbytes=1048576 gtxn=8192 rounds=2048 sh=0 replays=0 barriers=0
  phase=backward us=1.5592671901023039 flops=131072 gbytes=1572864 gtxn=12288 rounds=3072 sh=0 replays=0 barriers=0
=== fig12 f32 m=256 n=512 ===
k=6 mapping=BlockPerSystem fused=true precision=f32 total_us=74.96602426837973 sol=0x5fd9a62fbcfdf5ea
kernel=fused_pcr_thomas blocks=256 shared=5056 total_us=74.96602426837973 launch_us=5.0 bound=Compute
  phase=window_init us=0.261908160837497 flops=0 gbytes=0 gtxn=0 rounds=0 sh=2048 replays=768 barriers=256
  phase=window_load us=1.1511777301927193 flops=0 gbytes=2097152 gtxn=16384 rounds=8192 sh=9216 replays=0 barriers=2304
  phase=splice us=12.169593147751605 flops=0 gbytes=0 gtxn=0 rounds=0 sh=110592 replays=0 barriers=13824
  phase=pcr_level us=53.2830835117773 flops=12386304 gbytes=0 gtxn=0 rounds=0 sh=331776 replays=0 barriers=27648
  phase=window_read us=2.710444920295027 flops=1048576 gbytes=0 gtxn=0 rounds=0 sh=9216 replays=0 barriers=2304
  phase=cprime_store us=0.0 flops=0 gbytes=1048576 gtxn=8192 rounds=4096 sh=0 replays=0 barriers=0
  phase=backward us=0.38981679752556886 flops=262144 gbytes=1572864 gtxn=12288 rounds=6144 sh=0 replays=0 barriers=0
=== end ===
"#;
