//! The ragged fused launch: one fused tiled-PCR + p-Thomas launch over
//! systems of different row counts, block `b` solving system `b`'s rows
//! with the launch's single `k`, sub-tile and `2^k` threads.
//!
//! - Every system's answer equals its own batch's `solve_batch` at the
//!   same `k`, bit for bit — f32 and f64, power-of-two and odd row
//!   counts, systems shorter than the sub-tile, and system bases that
//!   straddle 128-byte segments — and every launch runs sanitizer-clean,
//!   phase-sum-clean and certificate-clean, on one device and sharded
//!   across two.
//! - Row counts that are all equal reproduce the uniform launch's
//!   counters and modeled time exactly, and plan the uniform plan.
//! - The verifier certifies a ragged launch's geometry, and a
//!   non-finite answer names its own system and row.

use gpu_sim::timing::time_kernel;
use gpu_sim::{
    launch, DeviceGroup, DeviceSpec, ExecConfig, GpuMemory, LaunchConfig, LaunchResult, Precision,
};
use tridiag_core::generators::random_batch;
use tridiag_core::transition::TransitionPolicy;
use tridiag_core::{Layout, RaggedBatch, SystemBatch};
use tridiag_gpu::consts::REGS_FUSED;
use tridiag_gpu::kernels::fused::{FusedKernel, RaggedFusedKernel};
use tridiag_gpu::plan::KernelOp;
use tridiag_gpu::{
    upload, validate_plan_json, verify_plan, FindingKind, GpuScalar, GpuSolverConfig,
    GpuTridiagSolver, LayoutChoice, MappingVariant, PlanExecutor, ShardedExecutor, ShardedPlan,
    SolvePlan, Step,
};

/// Rows per system of the members: powers of two, odd counts, and 20 —
/// shorter than every sub-tile below but at least `2^k` for each `k`.
const MEMBER_NS: [usize; 8] = [64, 128, 256, 512, 77, 100, 300, 20];

/// `(k, sub-tile scale c)`: sub-tiles of 64, 32 and 64 rows.
const PIPELINES: [(u32, usize); 3] = [(2, 16), (3, 4), (4, 4)];

/// The fused one-block-per-system pipeline pinned at `k` and scale `c`.
fn fused_config(k: u32, c: usize) -> GpuSolverConfig {
    GpuSolverConfig {
        policy: TransitionPolicy::Fixed(k),
        sub_tile_scale: c,
        fused: true,
        mapping: MappingVariant::BlockPerSystem,
        layout: LayoutChoice::Contiguous,
        exec: ExecConfig::sanitized(),
    }
}

/// One member batch per row count, 1–3 systems each; every other
/// member arrives interleaved.
fn members<S: GpuScalar>(seed: u64) -> Vec<SystemBatch<S>> {
    MEMBER_NS
        .iter()
        .enumerate()
        .map(|(i, &n)| {
            let b = random_batch::<S>(1 + i % 3, n, seed + i as u64);
            if i % 2 == 1 {
                b.to_layout(Layout::Interleaved)
            } else {
                b
            }
        })
        .collect()
}

fn assert_clean(report: &tridiag_gpu::GpuSolveReport, ctx: &str) {
    assert!(
        report.violations.is_empty(),
        "{ctx}: {:?}",
        report.violations
    );
    assert!(
        report.is_phase_sum_clean(),
        "{ctx}: {:?}",
        report.phase_sum_mismatches
    );
    assert!(
        report.is_verify_clean(),
        "{ctx}: {}\n{:?}",
        report.verify,
        report.verify_mismatches
    );
}

/// Every member's slice of the ragged solution, system-major, must be
/// its own `solve_batch` at the same pinned decision, bit for bit.
fn assert_members_match<S: GpuScalar>(
    members: &[SystemBatch<S>],
    x: &[S],
    config: GpuSolverConfig,
    ctx: &str,
) {
    let solver = GpuTridiagSolver::new(DeviceSpec::gtx480(), config);
    let mut at = 0;
    for (i, member) in members.iter().enumerate() {
        let (own, _) = solver.solve_batch(member).unwrap();
        let own = member.split_solution(&own).unwrap().concat();
        assert!(
            x[at..at + own.len()] == own[..],
            "{ctx}: member {i} (n = {}) differs from its own solve_batch",
            member.system_len()
        );
        at += own.len();
    }
    assert_eq!(at, x.len(), "{ctx}: members do not tile the solution");
}

fn ragged_case<S: GpuScalar + Send + Sync>(seed: u64) {
    let spec = DeviceSpec::gtx480();
    let members = members::<S>(seed);
    let parts: Vec<&SystemBatch<S>> = members.iter().collect();
    let batch = RaggedBatch::concat(&parts).unwrap();
    let rows = batch.row_counts();
    // Odd row counts put system bases off every 128-byte segment.
    let seg = 128 / <S as gpu_sim::Elem>::BYTES;
    assert!(batch.offsets().iter().any(|o| o % seg != 0));
    for (k, c) in PIPELINES {
        let ctx = format!("{} k={k} c={c}", S::NAME);
        assert!(
            rows.iter().any(|&n| n < c << k),
            "{ctx}: no system shorter than the sub-tile"
        );
        let config = fused_config(k, c);
        let plan = SolvePlan::build_ragged(&spec, &config, &rows, <S as gpu_sim::Elem>::BYTES)
            .unwrap_or_else(|e| panic!("{ctx}: {e}"));
        assert_eq!(plan.ragged_rows(), Some(&rows[..]), "{ctx}");
        assert_eq!(plan.launches().count(), 1, "{ctx}: one fused launch");
        let (x, report) = PlanExecutor::new(spec.clone(), config.exec)
            .run(&plan, &batch)
            .unwrap_or_else(|e| panic!("{ctx}: {e}"));
        assert_clean(&report, &ctx);
        assert_members_match(&members, &x, config, &ctx);

        // Sharded by whole systems across two devices: the same bits.
        let group = DeviceGroup::homogeneous(spec.clone(), 2).unwrap();
        let sharded =
            ShardedPlan::build_ragged(&group, &config, &rows, <S as gpu_sim::Elem>::BYTES)
                .unwrap_or_else(|e| panic!("{ctx} D=2: {e}"));
        let (x2, report2) = ShardedExecutor::new(group, config.exec)
            .run(&sharded, &batch)
            .unwrap_or_else(|e| panic!("{ctx} D=2: {e}"));
        assert_clean(&report2, &format!("{ctx} D=2"));
        assert!(x2 == x, "{ctx}: D=2 differs from D=1");
    }
}

#[test]
fn ragged_launch_equals_each_members_solve_batch_f64() {
    ragged_case::<f64>(11);
}

#[test]
fn ragged_launch_equals_each_members_solve_batch_f32() {
    ragged_case::<f32>(29);
}

/// Launch `kernel` over `m` blocks on fresh device buffers holding
/// `batch`, and return the launch and its solution.
fn raw_launch<K: gpu_sim::BlockKernel<f64>>(
    batch: &SystemBatch<f64>,
    make: impl Fn([gpu_sim::BufId; 4], gpu_sim::BufId, gpu_sim::BufId, gpu_sim::BufId) -> K,
    k: u32,
) -> (LaunchResult, Vec<f64>) {
    let total = batch.total_len();
    let mut mem = GpuMemory::new();
    let dev = upload(&mut mem, batch);
    let (cp, dp) = (mem.alloc(total), mem.alloc(total));
    let kernel = make([dev.a, dev.b, dev.c, dev.d], cp, dp, dev.x);
    let cfg =
        LaunchConfig::new("fused_pcr_thomas", batch.num_systems(), 1 << k).with_regs(REGS_FUSED);
    let res = launch(&DeviceSpec::gtx480(), &cfg, &kernel, &mut mem).unwrap();
    let x = mem.read(dev.x).unwrap();
    (res, x)
}

/// A ragged descriptor whose row counts are all equal is the uniform
/// launch: the same counters (per block and per phase), the same
/// modeled time, the same bits — and the planner plans it uniform.
#[test]
fn equal_row_counts_reproduce_the_uniform_launch() {
    let spec = DeviceSpec::gtx480();
    for (m, n, k, c) in [
        (4usize, 256usize, 3u32, 1usize),
        (3, 77, 2, 4),
        (2, 512, 5, 1),
    ] {
        let batch = random_batch::<f64>(m, n, 5 + n as u64);
        let fused = |input, c_prime, d_prime, x| FusedKernel {
            input,
            c_prime,
            d_prime,
            x,
            n,
            k,
            sub_tile: c << k,
            m,
        };
        let (uniform, x_uniform) = raw_launch(&batch, fused, k);
        let offsets: Vec<usize> = (0..=m).map(|s| s * n).collect();
        let ragged = |input, c_prime, d_prime, x| RaggedFusedKernel {
            fused: fused(input, c_prime, d_prime, x),
            offsets: offsets.clone(),
        };
        let (res, x_ragged) = raw_launch(&batch, ragged, k);
        let ctx = format!("m={m} n={n} k={k} c={c}");
        assert_eq!(res.stats, uniform.stats, "{ctx}: counters");
        assert_eq!(
            time_kernel(&spec, &res, Precision::F64),
            time_kernel(&spec, &uniform, Precision::F64),
            "{ctx}: modeled time"
        );
        assert!(x_ragged == x_uniform, "{ctx}: solution");

        let config = fused_config(k, c);
        assert_eq!(
            SolvePlan::build_ragged(&spec, &config, &vec![n; m], 8).unwrap(),
            SolvePlan::build(&spec, &config, m, n, 8).unwrap(),
            "{ctx}: plan"
        );
    }
}

/// The plan names the row counts only when they differ, and the
/// verifier certifies a ragged launch's geometry: one block per system,
/// `Σ rows`-element buffers, every count at least `2^k`.
#[test]
fn ragged_plans_serialize_their_rows_and_certify_their_geometry() {
    let spec = DeviceSpec::gtx480();
    let config = fused_config(3, 1);
    let rows = [64usize, 20, 300];
    let plan = SolvePlan::build_ragged(&spec, &config, &rows, 8).unwrap();
    assert!(verify_plan(&spec, &plan).is_clean());
    assert_eq!((plan.m, plan.n), (3, 300));
    assert!(plan.buffers.iter().all(|b| b.elems == 384));
    let doc = plan.to_json();
    assert!(validate_plan_json(&doc).is_empty());
    assert!(doc.to_string().contains("\"rows\":[64,20,300]"), "{doc}");
    assert!(plan.describe().contains("rows=[64, 20, 300]"));
    let uniform = SolvePlan::build(&spec, &config, 3, 64, 8).unwrap();
    assert!(!uniform.to_json().to_string().contains("rows"));

    let corrupt = |f: &dyn Fn(&mut SolvePlan)| {
        let mut p = plan.clone();
        f(&mut p);
        let report = verify_plan(&spec, &p);
        assert!(
            report
                .findings
                .iter()
                .any(|f| f.kind == FindingKind::MalformedPlan),
            "{report}"
        );
    };
    let fused_rows = |p: &mut SolvePlan, new: Vec<usize>| {
        for step in &mut p.steps {
            if let Step::Launch(ls) = step {
                if let KernelOp::Fused { rows, .. } = &mut ls.op {
                    *rows = Some(new.clone());
                }
            }
        }
    };
    // A system shorter than 2^k = 8 rows (same total).
    corrupt(&|p| fused_rows(p, vec![64, 4, 316]));
    // Row counts that do not fill the buffers.
    corrupt(&|p| fused_rows(p, vec![64, 20, 299]));
    // One block too few.
    corrupt(&|p| {
        for step in &mut p.steps {
            if let Step::Launch(ls) = step {
                ls.grid_blocks -= 1;
            }
        }
    });

    // The planner refuses a ragged batch any decision but fused one
    // block per system with k >= 1.
    for config in [
        GpuSolverConfig {
            fused: false,
            ..config
        },
        GpuSolverConfig {
            policy: TransitionPolicy::Fixed(0),
            ..config
        },
    ] {
        assert!(SolvePlan::build_ragged(&spec, &config, &rows, 8).is_err());
    }
}

/// A NaN in one system of a ragged batch is a typed fault naming that
/// system and row of the batch, never an `Ok` answer.
#[test]
fn a_non_finite_ragged_answer_names_its_system_and_row() {
    let spec = DeviceSpec::gtx480();
    let config = fused_config(3, 1);
    let mut poisoned = tridiag_core::generators::dominant_random::<f64>(100, 3);
    poisoned.rhs_mut()[99] = f64::NAN;
    let parts = [
        random_batch::<f64>(2, 64, 1),
        SystemBatch::from_systems(vec![poisoned]).unwrap(),
        random_batch::<f64>(1, 77, 2),
    ];
    let batch = RaggedBatch::concat(&parts.iter().collect::<Vec<_>>()).unwrap();
    let plan = SolvePlan::build_ragged(&spec, &config, &batch.row_counts(), 8).unwrap();
    let err = PlanExecutor::new(spec, ExecConfig::default())
        .run(&plan, &batch)
        .unwrap_err();
    assert!(
        err.to_string()
            .contains("non-finite solution at system 2, row"),
        "{err}"
    );
}
