//! Differential harness for the distributed single-system solve:
//! split(D) ∘ reduced-solve ∘ back-substitute ≈ single-device.
//!
//! For a sweep of single-system sizes and `D ∈ {1, 2, 4}` on a
//! homogeneous GTX480 group:
//!
//! * `D == 1` must be the **identity path** — bit-exact solutions,
//!   pinned via FNV-1a hashes, with no distributed summary on the
//!   report.
//! * `D >= 2` performs a genuinely different (but exact-in-reals)
//!   factorization — the modified-Thomas partial elimination — so the
//!   comparison is against a condition-derived tolerance, not bits,
//!   and the residual must stay at single-device levels.
//! * Counters must **reconcile**: each chunk's flops are exactly three
//!   standalone interior solves (the y/u/w batch does the same
//!   arithmetic as one run per right-hand side, in fewer launches) plus
//!   `4·Li` back-substitution flops; the reduced solve's counters equal
//!   a standalone `m = 1, n = 2D` run; gather/scatter PCIe bytes match
//!   their closed forms.
//!
//! The capacity claim is also pinned here: an `N` whose single-device
//! plan is a typed `InvalidPlan` (footprint beyond global memory,
//! message naming the distributed option) must *solve* at `D >= 2` on
//! the same devices, falling back to one `m = 1` run per right-hand
//! side where the `m = 3` batch does not fit.

use gpu_sim::{DeviceGroup, DeviceSpec, ExecConfig, SimError};
use tridiag_core::generators::random_batch;
use tridiag_gpu::hash::{fnv1a_extend, FNV_OFFSET};
use tridiag_gpu::solver::{GpuSolverConfig, GpuTridiagSolver};
use tridiag_gpu::{solution_hash, GpuScalar, PlanExecutor};

const SEED: u64 = 42;
const DEVICE_COUNTS: [usize; 3] = [1, 2, 4];
/// Single-system sizes: interface-only chunks (n = 2D) through sizes
/// where every chunk runs the full tiled-PCR + p-Thomas pipeline.
const SWEEP_F64: [usize; 5] = [8, 256, 1024, 4096, 16384];
const SWEEP_F32: [usize; 2] = [512, 4096];

/// Worst absolute element deviation between two solutions.
fn worst_abs<S: GpuScalar>(a: &[S], b: &[S]) -> f64 {
    a.iter()
        .zip(b)
        .map(|(x, y)| (*x - *y).abs().to_f64())
        .fold(0.0f64, f64::max)
}

/// Flops of one standalone `m = 1, n` solve on a GTX480 under the rule
/// the row split plans its chunk and reduced systems with
/// (`GpuSolverConfig::multi_device`, Table III; see
/// `DistributedPlan::build`), measured off the executor's dynamic
/// counters (they are structural — data independent — so any batch
/// works).
fn standalone_flops<S: GpuScalar>(n: usize) -> u64 {
    let solver = GpuTridiagSolver::new(
        DeviceSpec::gtx480(),
        GpuSolverConfig::default().multi_device(),
    );
    let plan = solver
        .plan_geometry(1, n, <S as gpu_sim::Elem>::BYTES)
        .unwrap();
    let batch = random_batch::<S>(1, n, SEED ^ 0x5eed);
    let mut ex = PlanExecutor::new(DeviceSpec::gtx480(), ExecConfig::default());
    ex.run(&plan, &batch).unwrap();
    ex.stats.iter().map(|s| s.total.flops).sum()
}

fn check_point<S: GpuScalar + Send + Sync>(prec: &str, n: usize, tol: f64) {
    let ctx = format!("{prec} n={n}");
    let batch = random_batch::<S>(1, n, SEED);
    let solver = GpuTridiagSolver::gtx480();
    let (base, base_report) = solver.solve_batch(&batch).unwrap();
    let base_resid = batch.max_relative_residual(&base).unwrap();
    for d in DEVICE_COUNTS {
        let group = DeviceGroup::homogeneous(DeviceSpec::gtx480(), d).unwrap();
        if n < 2 * d {
            let err = solver.solve_batch_split(&group, &batch).unwrap_err();
            assert!(
                matches!(err, SimError::InvalidPlan(_)),
                "{ctx} D={d}: expected InvalidPlan, got {err:?}"
            );
            continue;
        }
        let (x, report) = solver.solve_batch_split(&group, &batch).unwrap();
        if d == 1 {
            // Identity path: bit-exact, pinned by hash, no distributed
            // machinery on the report.
            assert_eq!(base, x, "{ctx} D=1: identity path must be bit-exact");
            assert_eq!(
                solution_hash(&base),
                solution_hash(&x),
                "{ctx} D=1: hash diverges"
            );
            assert!(report.distributed.is_none(), "{ctx} D=1");
            assert_eq!(report.total_us, base_report.total_us, "{ctx} D=1");
            continue;
        }
        // D >= 2: a different exact factorization — condition-derived
        // tolerance on elements, residual at single-device levels.
        let worst = worst_abs(&base, &x);
        assert!(
            worst < tol,
            "{ctx} D={d}: max abs deviation {worst:.3e} exceeds {tol:.1e}"
        );
        let resid = batch.max_relative_residual(&x).unwrap();
        assert!(
            resid < tol.max(base_resid * 1e3),
            "{ctx} D={d}: residual {resid:.3e} (single device {base_resid:.3e})"
        );
        // Counter reconciliation against standalone runs.
        let dist = report.distributed.as_ref().expect("distributed summary");
        assert_eq!(dist.devices, d, "{ctx} D={d}");
        assert_eq!(dist.reduced_n, 2 * d, "{ctx} D={d}");
        assert_eq!(
            dist.reduced_flops,
            standalone_flops::<S>(2 * d),
            "{ctx} D={d}: reduced solve must cost exactly one m=1 n=2D run"
        );
        let eb = <S as gpu_sim::Elem>::BYTES as u64;
        assert_eq!(dist.gather_bytes, d as u64 * 8 * eb, "{ctx} D={d}: gather");
        assert_eq!(
            dist.scatter_bytes,
            d as u64 * 2 * eb,
            "{ctx} D={d}: scatter"
        );
        assert_eq!(report.shards.len(), d, "{ctx} D={d}");
        let mut covered = 0usize;
        for (j, sh) in report.shards.iter().enumerate() {
            assert_eq!(sh.sys_start, covered, "{ctx} D={d} chunk {j}: contiguous");
            covered += sh.sys_count;
            let li = sh.sys_count - 2;
            let expected = if li == 0 {
                0
            } else {
                3 * standalone_flops::<S>(li) + 4 * li as u64
            };
            assert_eq!(
                sh.flops, expected,
                "{ctx} D={d} chunk {j}: 3 interior solves of n={li} + 4·Li back-sub"
            );
        }
        assert_eq!(covered, n, "{ctx} D={d}: chunks must cover the system");
    }
}

#[test]
#[cfg_attr(debug_assertions, ignore = "slow simulation; run with --release")]
fn distributed_solves_match_single_device_across_the_sweep() {
    for n in SWEEP_F64 {
        check_point::<f64>("f64", n, 1e-9);
    }
    for n in SWEEP_F32 {
        check_point::<f32>("f32", n, 1e-2);
    }
}

/// One exact pin of a row-split run at n = 16384 (f64, seed 42).
struct SplitPin {
    d: usize,
    solution: u64,
    total_us: u64,
    wall_clock_us: u64,
    serialized_us: u64,
    completions: &'static [u64],
    trace: u64,
}

/// Bit patterns of the modeled timeline (`total_us`, the distributed
/// summary's wall-clock and serialized sum, every chunk's stream
/// completion), the solution fingerprint and an FNV-1a hash of the
/// Chrome trace text. Any change to the stream replay, the gather /
/// reduce / scatter ordering or the trace merge moves at least one.
const SPLIT_PINS: &[SplitPin] = &[
    SplitPin {
        d: 2,
        solution: 0x7c9f_0f42_e93f_84e6,
        total_us: 0x4063_3495_4405_6012,
        wall_clock_us: 0x4072_8067_4e0a_e132,
        serialized_us: 0x4082_7463_3577_6c76,
        completions: &[0x4072_685f_1ce3_f7b9, 0x4072_8067_4e0a_e132],
        trace: 0xd233_a541_72c0_60d4,
    },
    SplitPin {
        d: 4,
        solution: 0xc591_cb6d_860e_71c5,
        total_us: 0x4057_609f_0ac0_a1fb,
        wall_clock_us: 0x4066_2f38_fe35_4ef6,
        serialized_us: 0x4085_e720_6ac0_928c,
        completions: &[
            0x4065_9f07_d74b_d620,
            0x4065_cf18_3999_a912,
            0x4065_ff28_9be7_7c04,
            0x4066_2f38_fe35_4ef6,
        ],
        trace: 0xffe5_1151_0863_6bf7,
    },
];

#[test]
#[cfg_attr(debug_assertions, ignore = "slow simulation; run with --release")]
fn split_timeline_and_trace_are_pinned() {
    let n = 16384usize;
    let batch = random_batch::<f64>(1, n, SEED);
    let solver = GpuTridiagSolver::gtx480();
    for pin in SPLIT_PINS {
        let d = pin.d;
        let group = DeviceGroup::homogeneous(DeviceSpec::gtx480(), d).unwrap();
        let (x, report) = solver.solve_batch_split(&group, &batch).unwrap();
        let dist = report.distributed.as_ref().expect("distributed summary");
        let completions: Vec<u64> = report
            .shards
            .iter()
            .map(|s| s.completion_us.to_bits())
            .collect();
        let trace = fnv1a_extend(FNV_OFFSET, report.trace.to_chrome_json().bytes());
        assert_eq!(solution_hash(&x), pin.solution, "D={d}: solution");
        assert_eq!(report.total_us.to_bits(), pin.total_us, "D={d}: total_us");
        assert_eq!(
            dist.wall_clock_us.to_bits(),
            pin.wall_clock_us,
            "D={d}: wall-clock"
        );
        assert_eq!(
            dist.serialized_us.to_bits(),
            pin.serialized_us,
            "D={d}: serialized"
        );
        assert_eq!(
            completions, pin.completions,
            "D={d}: per-chunk completion_us"
        );
        assert_eq!(trace, pin.trace, "D={d}: trace text");
    }
}

/// The capacity claim: an `N` the single-device planner rejects as too
/// large — with a typed error naming the distributed option — solves
/// at `D ∈ {2, 4}` on the *same* devices, within tolerance.
#[test]
#[cfg_attr(debug_assertions, ignore = "slow simulation; run with --release")]
fn too_large_single_system_solves_when_split() {
    let mut small = DeviceSpec::gtx480();
    small.global_mem_bytes = 2 << 20; // 2 MiB: fits ~N/2 but not N below
    let n = 32768usize;
    let solver = GpuTridiagSolver::new(small.clone(), GpuSolverConfig::default());
    let err = solver.plan_geometry(1, n, 8).unwrap_err();
    match &err {
        SimError::InvalidPlan(msg) => {
            assert!(msg.contains("global memory"), "unexpected error: {msg}");
            assert!(
                msg.contains("split across devices with a distributed plan"),
                "the OOM error must name the distributed option: {msg}"
            );
            assert!(msg.contains("solve --split-n"), "unexpected error: {msg}");
        }
        other => panic!("expected InvalidPlan, got {other:?}"),
    }
    let batch = random_batch::<f64>(1, n, SEED);
    // A CPU-side reference for the deviation check: the same solve on a
    // full-memory device (the numerics don't depend on the spec).
    let (reference, _) = GpuTridiagSolver::gtx480().solve_batch(&batch).unwrap();
    for d in [2usize, 4] {
        let group = DeviceGroup::homogeneous(small.clone(), d).unwrap();
        if d == 2 {
            // A 16382-row interior batched three ways does not fit in
            // 2 MiB: the chunks fall back to one m = 1 run per RHS.
            let plan = solver.plan_geometry_split(&group, n, 8).unwrap();
            for ch in &plan.chunks {
                let m = ch.interior.as_ref().map(|p| p.m);
                assert_eq!(m, Some(1), "D=2 chunk {}: expected m = 1", ch.device_index);
            }
        }
        let (x, report) = solver.solve_batch_split(&group, &batch).unwrap();
        let worst = worst_abs(&reference, &x);
        assert!(worst < 1e-9, "D={d}: max abs deviation {worst:.3e}");
        assert!(batch.max_relative_residual(&x).unwrap() < 1e-9, "D={d}");
        let dist = report.distributed.as_ref().expect("distributed summary");
        assert_eq!(dist.devices, d);
    }
}

/// The scaling claim the committed bench entry rests on: at a large
/// `N`, `D = 4` beats `D = 2` on modeled wall-clock, and both keep the
/// wall-clock below the serialized sum (real overlap, not bookkeeping).
#[test]
#[cfg_attr(debug_assertions, ignore = "slow simulation; run with --release")]
fn four_way_split_beats_two_way_at_large_n() {
    let n = 1usize << 15;
    let batch = random_batch::<f64>(1, n, SEED);
    let solver = GpuTridiagSolver::gtx480();
    let mut wall = Vec::new();
    for d in [2usize, 4] {
        let group = DeviceGroup::homogeneous(DeviceSpec::gtx480(), d).unwrap();
        let (_, report) = solver.solve_batch_split(&group, &batch).unwrap();
        let dist = report.distributed.as_ref().expect("distributed summary");
        assert!(
            dist.wall_clock_us < dist.serialized_us,
            "D={d}: wall-clock {} must be below the serialized sum {}",
            dist.wall_clock_us,
            dist.serialized_us
        );
        wall.push(dist.wall_clock_us);
    }
    assert!(
        wall[1] < wall[0],
        "D=4 wall-clock {} us must beat D=2 {} us at n={n}",
        wall[1],
        wall[0]
    );
}

/// The regression the batched interior fixes: at N = 131072 (f64,
/// GTX480) a two-way split is no slower than one device on modeled
/// wall-clock.
#[test]
#[cfg_attr(debug_assertions, ignore = "slow simulation; run with --release")]
fn two_way_split_is_no_slower_than_one_device_at_large_n() {
    let n = 1usize << 17;
    let batch = random_batch::<f64>(1, n, SEED);
    let solver = GpuTridiagSolver::gtx480();
    let wall = |d: usize| {
        let group = DeviceGroup::homogeneous(DeviceSpec::gtx480(), d).unwrap();
        solver.solve_batch_split(&group, &batch).unwrap().1.total_us
    };
    let (w1, w2) = (wall(1), wall(2));
    assert!(
        w2 <= w1,
        "D=2 wall-clock {w2} us must not exceed D=1 {w1} us at n={n}"
    );
}
