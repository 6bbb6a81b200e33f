//! The executor's two modes agree exactly at the benchmark's nominal
//! shapes. An unchecked launch counts affine accesses in closed form
//! and moves unit-stride data with slice copies; a checked launch
//! (under the sanitizer) expands every access to per-lane indices and
//! counts them densely. Both must produce identical
//! `KernelStats` for every kernel — totals, phases and the per-block
//! vectors — and a bit-identical solution, in f32 and f64.
//!
//! The zoo's 18 kernel configurations get the same check in
//! `zoo::tests::every_entry_runs_identically_unchecked_and_checked`.

use gpu_sim::{DeviceSpec, ExecConfig, KernelStats};
use tridiag_core::generators::random_batch;
use tridiag_gpu::plan::SolvePlan;
use tridiag_gpu::solver::LayoutChoice;
use tridiag_gpu::{solution_hash, GpuScalar, GpuSolverConfig, PlanExecutor};

/// The hybrid regime (tiled PCR then p-Thomas) and the wide regime
/// (k = 0 p-Thomas), with the layout each runs in.
const SHAPES: [(usize, usize, LayoutChoice); 6] = [
    (16, 1024, LayoutChoice::Auto),
    (64, 512, LayoutChoice::Auto),
    (1, 16384, LayoutChoice::Auto),
    (1024, 512, LayoutChoice::Interleaved),
    (1024, 512, LayoutChoice::Contiguous),
    (2048, 64, LayoutChoice::Auto),
];

fn run<S: GpuScalar>(
    m: usize,
    n: usize,
    layout: LayoutChoice,
    exec: ExecConfig,
) -> (u64, Vec<KernelStats>) {
    let spec = DeviceSpec::gtx480();
    let config = GpuSolverConfig {
        layout,
        ..GpuSolverConfig::default()
    };
    let plan = SolvePlan::build(&spec, &config, m, n, <S as gpu_sim::Elem>::BYTES).unwrap();
    let batch = random_batch::<S>(m, n, 7);
    let mut ex = PlanExecutor::new(spec, exec);
    let (x, _) = ex.run(&plan, &batch).unwrap();
    assert!(ex.violations.is_empty());
    (solution_hash(&x), ex.stats)
}

fn modes_agree<S: GpuScalar>() {
    for (m, n, layout) in SHAPES {
        let at = format!("({m}, {n}) {layout:?} {}-byte", <S as gpu_sim::Elem>::BYTES);
        let (plain_x, plain) = run::<S>(m, n, layout, ExecConfig::default());
        let (checked_x, checked) = run::<S>(m, n, layout, ExecConfig::sanitized());
        assert_eq!(plain.len(), checked.len(), "{at}: launches");
        for (p, c) in plain.iter().zip(&checked) {
            assert_eq!(p.total, c.total, "{at}: totals");
            assert_eq!(p.phases, c.phases, "{at}: phases");
            assert_eq!(p, c, "{at}: per-block counters");
        }
        assert_eq!(plain_x, checked_x, "{at}: solution bits");
    }
}

#[test]
fn nominal_shapes_agree_in_f64() {
    modes_agree::<f64>();
}

#[test]
fn nominal_shapes_agree_in_f32() {
    modes_agree::<f32>();
}
