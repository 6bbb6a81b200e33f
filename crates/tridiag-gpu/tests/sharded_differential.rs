//! Differential bit-identity harness: shard(D) ∘ merge ≡ single-device.
//!
//! For every point of the Fig. 12/13 sweep and `D ∈ {1, 2, 4}` on a
//! homogeneous GTX480 group, the sharded solve must reproduce the
//! single-device solve **element-for-element** (bit-exact solutions,
//! checked both directly and via FNV-1a hashes) and
//! **counter-for-counter**: the partition-invariant counters — FLOPs,
//! global-memory transactions, global bytes — summed over the per-shard
//! summaries must equal the single-device totals exactly. `D == 1` must
//! be the identity path (same report, same modeled time). The one
//! unshardable point (`m = 1`) must reject `D > 1` with a typed
//! `InvalidPlan`.
//!
//! The timing model is also pinned here: the merged report's wall-clock
//! is the max over devices, so `D = 4` must be strictly faster than
//! `D = 1` on the largest sweep point.

use gpu_sim::{DeviceGroup, DeviceSpec, ExecConfig, SimError};
use tridiag_core::generators::random_batch;
use tridiag_gpu::hash::{fnv1a_extend, FNV_OFFSET};
use tridiag_gpu::solver::{GpuSolverConfig, GpuTridiagSolver};
use tridiag_gpu::{solution_hash, GpuScalar, PlanExecutor};

/// The Fig. 12/13 sweep — the same 11 points the golden plan snapshots
/// and the committed perf baseline cover.
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

const SEED: u64 = 42;
const DEVICE_COUNTS: [usize; 3] = [1, 2, 4];

/// Single-device ground truth: solution, modeled time, and the exact
/// dynamic counter totals straight off the executor's `KernelStats`.
struct Baseline<S> {
    x: Vec<S>,
    total_us: f64,
    flops: u64,
    global_transactions: u64,
    global_bytes: u64,
}

fn single_device<S: GpuScalar>(m: usize, n: usize, config: GpuSolverConfig) -> Baseline<S> {
    let batch = random_batch::<S>(m, n, SEED);
    let solver = GpuTridiagSolver::new(DeviceSpec::gtx480(), config);
    let plan = solver
        .plan_geometry(m, n, <S as gpu_sim::Elem>::BYTES)
        .unwrap();
    let mut ex = PlanExecutor::new(DeviceSpec::gtx480(), ExecConfig::default());
    let (x, report) = ex.run(&plan, &batch).unwrap();
    Baseline {
        x,
        total_us: report.total_us,
        flops: ex.stats.iter().map(|s| s.total.flops).sum(),
        global_transactions: ex.stats.iter().map(|s| s.total.global_transactions()).sum(),
        global_bytes: ex.stats.iter().map(|s| s.total.global_bytes()).sum(),
    }
}

fn check_point<S: GpuScalar + Send + Sync>(label: &str, prec: &str, m: usize, n: usize) {
    let ctx = format!("{label} {prec} m={m} n={n}");
    // One device is the plain single-device solve; plans across
    // several devices decide under `GpuSolverConfig::multi_device`
    // (Table III), so their ground truth is one device deciding the
    // same way.
    let tuned = single_device::<S>(m, n, GpuSolverConfig::default());
    let paper = single_device::<S>(m, n, GpuSolverConfig::default().multi_device());
    let solver = GpuTridiagSolver::gtx480();
    for d in DEVICE_COUNTS {
        let base = if d == 1 { &tuned } else { &paper };
        let group = DeviceGroup::homogeneous(DeviceSpec::gtx480(), d).unwrap();
        let batch = random_batch::<S>(m, n, SEED);
        if m < d {
            let err = solver.solve_batch_group(&group, &batch).unwrap_err();
            assert!(
                matches!(err, SimError::InvalidPlan(_)),
                "{ctx} D={d}: expected InvalidPlan, got {err:?}"
            );
            continue;
        }
        let (x, report) = solver.solve_batch_group(&group, &batch).unwrap();
        // Element-for-element…
        assert_eq!(base.x, x, "{ctx} D={d}: solutions diverge");
        // …and as the pinned fingerprint.
        assert_eq!(
            solution_hash(&base.x),
            solution_hash(&x),
            "{ctx} D={d}: hash diverges"
        );
        assert!(report.is_sanitizer_clean(), "{ctx} D={d}");
        assert!(report.is_phase_sum_clean(), "{ctx} D={d}");
        if d == 1 {
            // Identity: the single-device path, byte for byte.
            assert!(report.shards.is_empty(), "{ctx} D=1");
            assert_eq!(report.total_us, base.total_us, "{ctx} D=1");
            continue;
        }
        // Counter-for-counter: partition-invariant counters summed over
        // shards equal the single-device totals exactly.
        assert_eq!(report.shards.len(), d, "{ctx} D={d}");
        let flops: u64 = report.shards.iter().map(|s| s.flops).sum();
        let gtxn: u64 = report.shards.iter().map(|s| s.global_transactions).sum();
        let gbytes: u64 = report.shards.iter().map(|s| s.global_bytes).sum();
        assert_eq!(flops, base.flops, "{ctx} D={d}: flops");
        assert_eq!(gtxn, base.global_transactions, "{ctx} D={d}: transactions");
        assert_eq!(gbytes, base.global_bytes, "{ctx} D={d}: global bytes");
        // Wall-clock model: max over devices' kernel time, never a sum,
        // and never slower than one device doing everything.
        let max_kernel = report
            .shards
            .iter()
            .map(|s| s.kernel_us)
            .fold(0.0f64, f64::max);
        let sum_kernel: f64 = report.shards.iter().map(|s| s.kernel_us).sum();
        assert_eq!(report.total_us, max_kernel, "{ctx} D={d}");
        assert!(report.total_us < sum_kernel, "{ctx} D={d}: max, not sum");
        assert!(
            report.total_us <= base.total_us + 1e-9,
            "{ctx} D={d}: sharded {} us slower than single {} us",
            report.total_us,
            base.total_us
        );
    }
}

#[test]
#[cfg_attr(debug_assertions, ignore = "slow simulation; run with --release")]
fn sharded_solves_are_bit_identical_across_the_sweep() {
    for &(label, prec, m, n) in SWEEP {
        match prec {
            "f32" => check_point::<f32>(label, prec, m, n),
            _ => check_point::<f64>(label, prec, m, n),
        }
    }
}

/// Exact pins of the merged report at m = 64, n = 512 (f64, seed 42):
/// `(D, total_us bits, per-shard completion_us bits, FNV-1a of the
/// Chrome trace text)`. Any change to the modeled timeline, the stream
/// replay or the trace merge moves at least one of them.
const TIMELINE_PINS: &[(usize, u64, &[u64], u64)] = &[
    (
        2,
        0x4041_e50c_3e20_867c,
        &[0x405f_4d67_66be_57b9, 0x405f_4d67_66be_57b9],
        0xc541_a100_ab80_2dce,
    ),
    (
        4,
        0x4034_650c_3e20_867c,
        &[
            0x4051_36b3_b35f_2bdc,
            0x4051_36b3_b35f_2bdc,
            0x4051_36b3_b35f_2bdc,
            0x4051_36b3_b35f_2bdc,
        ],
        0xcaed_85a8_c582_29be,
    ),
];

#[test]
#[cfg_attr(debug_assertions, ignore = "slow simulation; run with --release")]
fn merged_timeline_and_trace_are_pinned() {
    let batch = random_batch::<f64>(64, 512, SEED);
    let solver = GpuTridiagSolver::gtx480();
    for &(d, total_bits, completions, trace_hash) in TIMELINE_PINS {
        let group = DeviceGroup::homogeneous(DeviceSpec::gtx480(), d).unwrap();
        let (_, report) = solver.solve_batch_group(&group, &batch).unwrap();
        let got: Vec<u64> = report
            .shards
            .iter()
            .map(|s| s.completion_us.to_bits())
            .collect();
        let hash = fnv1a_extend(FNV_OFFSET, report.trace.to_chrome_json().bytes());
        assert_eq!(report.total_us.to_bits(), total_bits, "D={d}: total_us");
        assert_eq!(got, completions, "D={d}: per-shard completion_us");
        assert_eq!(hash, trace_hash, "D={d}: trace text");
    }
}

#[test]
#[cfg_attr(debug_assertions, ignore = "slow simulation; run with --release")]
fn four_devices_strictly_beat_one_on_the_largest_point() {
    // The largest sweep point: m = 256, n = 2048, f64.
    let (m, n) = (256usize, 2048usize);
    let batch = random_batch::<f64>(m, n, SEED);
    let solver = GpuTridiagSolver::gtx480();
    let (_, r1) = solver.solve_batch(&batch).unwrap();
    let group = DeviceGroup::homogeneous(DeviceSpec::gtx480(), 4).unwrap();
    let (_, r4) = solver.solve_batch_group(&group, &batch).unwrap();
    assert!(
        r4.total_us < r1.total_us,
        "D=4 modeled wall-clock {} us must be strictly below D=1 {} us",
        r4.total_us,
        r1.total_us
    );
}
