//! The executor's two modes agree exactly over the window engine's
//! whole reach. An unchecked launch counts affine accesses in closed
//! form, groups of same-shaped shared accesses once per group, and
//! moves data with slice copies; a checked launch (under the sanitizer)
//! expands every access to per-lane indices and counts them densely.
//! Both must produce identical `KernelStats` for every kernel — totals,
//! phases and the per-block vectors — and a bit-identical solution, in
//! f32 and f64.
//!
//! The shapes cover the benchmark's nominal geometries (every
//! `wide_batch` one in both layouts), fused and split tiled PCR at every
//! `k` the shared memory allows with `c ∈ {1, 2}`, all three Fig. 11
//! mappings (block groups with ragged emit ranges, multi-system blocks
//! whose warps span slots), the solve service's request shapes and the
//! sharded batches under Table III.
//!
//! The zoo's 18 kernel configurations get the same check in
//! `zoo::tests::every_entry_runs_identically_unchecked_and_checked`.

use gpu_sim::{DeviceSpec, ExecConfig, KernelStats};
use tridiag_core::generators::random_batch;
use tridiag_core::transition::TransitionPolicy;
use tridiag_gpu::plan::{max_k_for_shared, SolvePlan};
use tridiag_gpu::solver::{LayoutChoice, MappingVariant};
use tridiag_gpu::{solution_hash, GpuScalar, GpuSolverConfig, PlanExecutor};

/// The hybrid regime (tiled PCR then p-Thomas) and the wide regime
/// (k = 0 p-Thomas: every `wide_batch` geometry, and one `n` that is no
/// multiple of a warp or a segment), with the layout each runs in.
const SHAPES: [(usize, usize, LayoutChoice); 13] = [
    (16, 1024, LayoutChoice::Auto),
    (64, 512, LayoutChoice::Auto),
    (1, 16384, LayoutChoice::Auto),
    (1024, 512, LayoutChoice::Interleaved),
    (1024, 512, LayoutChoice::Contiguous),
    (2048, 64, LayoutChoice::Auto),
    (2048, 256, LayoutChoice::Interleaved),
    (2048, 256, LayoutChoice::Contiguous),
    (4096, 128, LayoutChoice::Interleaved),
    (4096, 128, LayoutChoice::Contiguous),
    (8192, 64, LayoutChoice::Interleaved),
    (8192, 64, LayoutChoice::Contiguous),
    (1024, 529, LayoutChoice::Auto),
];

fn bytes<S: GpuScalar>() -> usize {
    <S as gpu_sim::Elem>::BYTES
}

fn plan<S: GpuScalar>(config: &GpuSolverConfig, m: usize, n: usize) -> SolvePlan {
    SolvePlan::build(&DeviceSpec::gtx480(), config, m, n, bytes::<S>()).unwrap()
}

fn run<S: GpuScalar>(plan: &SolvePlan, exec: ExecConfig) -> (u64, Vec<KernelStats>) {
    let batch = random_batch::<S>(plan.m, plan.n, 7);
    let mut ex = PlanExecutor::new(DeviceSpec::gtx480(), exec);
    let (x, _) = ex.run(plan, &batch).unwrap();
    assert!(ex.violations.is_empty(), "{:?}", ex.violations);
    (solution_hash(&x), ex.stats)
}

/// Run `plan` unchecked and checked and assert the two agree exactly.
fn assert_modes_agree<S: GpuScalar>(plan: &SolvePlan) {
    let at = format!(
        "({}, {}) k={} {:?} fused={} c={} {:?} {}-byte",
        plan.m,
        plan.n,
        plan.k,
        plan.mapping,
        plan.fused,
        plan.config.sub_tile_scale,
        plan.layout,
        bytes::<S>()
    );
    let (plain_x, plain) = run::<S>(plan, ExecConfig::default());
    let (checked_x, checked) = run::<S>(plan, ExecConfig::sanitized());
    assert_eq!(plain.len(), checked.len(), "{at}: launches");
    for (p, c) in plain.iter().zip(&checked) {
        assert_eq!(p.total, c.total, "{at}: totals");
        assert_eq!(p.phases, c.phases, "{at}: phases");
        assert_eq!(p, c, "{at}: per-block counters");
        assert!(p.phase_sum_mismatches().is_empty(), "{at}: phase sums");
    }
    assert_eq!(plain_x, checked_x, "{at}: solution bits");
}

fn nominal<S: GpuScalar>() {
    for (m, n, layout) in SHAPES {
        let config = GpuSolverConfig {
            layout,
            ..GpuSolverConfig::default()
        };
        assert_modes_agree::<S>(&plan::<S>(&config, m, n));
    }
}

/// `k`, `c`, mapping and fusion pinned.
fn pinned(k: u32, c: usize, mapping: MappingVariant, fused: bool) -> GpuSolverConfig {
    GpuSolverConfig {
        policy: TransitionPolicy::Fixed(k),
        sub_tile_scale: c,
        mapping,
        fused,
        ..GpuSolverConfig::default()
    }
}

/// Fused and split block-per-system pipelines at every `k` from 1 to
/// the shared-memory maximum, `c ∈ {1, 2}`, on ragged system lengths.
fn every_k<S: GpuScalar>() {
    let spec = DeviceSpec::gtx480();
    for c in [1usize, 2] {
        for k in 1..=max_k_for_shared(&spec, c, bytes::<S>()) {
            let st = c << k;
            let n = 2 * st + 3;
            for fused in [true, false] {
                let config = pinned(k, c, MappingVariant::BlockPerSystem, fused);
                let p = plan::<S>(&config, 2, n);
                assert_eq!(p.k, k, "k = {k} c = {c} is within the shared maximum");
                assert_modes_agree::<S>(&p);
            }
        }
    }
}

/// Fig. 11(b) block groups with emit ranges that do not divide the
/// system, and Fig. 11(c) multi-system blocks, whose warps span slots
/// at `2^k < 32` and whose lane lists outgrow the block at `c = 2`.
fn mappings<S: GpuScalar>() {
    for c in [1usize, 2] {
        for k in 1u32..=6 {
            for (m, n, mapping) in [
                (1usize, 1000usize, MappingVariant::BlockGroupPerSystem(3)),
                (2, 777, MappingVariant::BlockGroupPerSystem(5)),
                (5, 200, MappingVariant::MultiSystemPerBlock(2)),
                (7, 130, MappingVariant::MultiSystemPerBlock(3)),
            ] {
                let p = plan::<S>(&pinned(k, c, mapping, true), m, n);
                assert_eq!((p.k, p.mapping), (k, mapping));
                assert_modes_agree::<S>(&p);
            }
        }
    }
}

/// The solve service's request shapes under the default decision, and
/// the sharded batches under Table III (the multi-device rule).
fn service_and_sharded<S: GpuScalar>() {
    let config = GpuSolverConfig::default();
    for m in 1..=4 {
        for n in [64usize, 128, 256, 512] {
            assert_modes_agree::<S>(&plan::<S>(&config, m, n));
        }
    }
    let table3 = config.multi_device();
    for (m, n) in [(64usize, 2048usize), (256, 512)] {
        for shard in [m, m / 2] {
            assert_modes_agree::<S>(&plan::<S>(&table3, shard, n));
        }
    }
}

#[test]
fn nominal_shapes_agree_in_f64() {
    nominal::<f64>();
}

#[test]
fn nominal_shapes_agree_in_f32() {
    nominal::<f32>();
}

#[test]
fn every_k_and_sub_tile_scale_agrees_in_f64() {
    every_k::<f64>();
}

#[test]
fn every_k_and_sub_tile_scale_agrees_in_f32() {
    every_k::<f32>();
}

#[test]
fn every_mapping_agrees_in_f64() {
    mappings::<f64>();
}

#[test]
fn every_mapping_agrees_in_f32() {
    mappings::<f32>();
}

#[test]
fn service_and_sharded_shapes_agree_in_f64() {
    service_and_sharded::<f64>();
}

#[test]
fn service_and_sharded_shapes_agree_in_f32() {
    service_and_sharded::<f32>();
}
