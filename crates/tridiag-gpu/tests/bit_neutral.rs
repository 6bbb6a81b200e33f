//! The invariant the solve service's decision pinning rests on: at a
//! fixed PCR step count `k` (and so a fixed device layout), the grid
//! mapping, fusion and the host batch's layout change how the work is
//! scheduled, never a bit of the answer.
//!
//! Every plan-snapshot geometry at both widths, at `k` = 1, the
//! planner's default `k` and the device's largest, is solved under one
//! block per system (split and fused), block groups of 2 and 4 and the
//! partition `Auto` resolves, and two systems per block — each distinct
//! plan once, the host batch alternating between contiguous and
//! interleaved — and every answer must equal the split
//! block-per-system one from the contiguous batch, bit for bit.
//! Choices the planner rejects for a geometry (a block group longer
//! than the system allows) are skipped, but every point must exercise
//! at least three distinct plans and both host layouts.

use gpu_sim::DeviceSpec;
use tridiag_core::generators::random_batch;
use tridiag_core::transition::TransitionPolicy;
use tridiag_core::{Layout, SystemBatch};
use tridiag_gpu::solver::{GpuSolveReport, GpuSolverConfig, GpuTridiagSolver, MappingVariant};
use tridiag_gpu::{solution_hash, GpuScalar, SolvePlan};

/// The `plan_snapshots` sweep geometries (both widths are run).
const GEOMETRIES: &[(usize, usize)] = &[
    (64, 512),
    (256, 512),
    (1024, 512),
    (64, 2048),
    (256, 2048),
    (2048, 64),
    (256, 256),
    (16, 1024),
    (1, 16384),
];

const MAPPINGS: &[MappingVariant] = &[
    MappingVariant::BlockPerSystem,
    MappingVariant::BlockGroupPerSystem(2),
    MappingVariant::BlockGroupPerSystem(4),
    MappingVariant::Auto,
    MappingVariant::MultiSystemPerBlock(2),
];

/// The plan `config` builds for `batch`, or `None` when the planner
/// rejects the config for this geometry.
fn plan<S: GpuScalar>(config: GpuSolverConfig, batch: &SystemBatch<S>) -> Option<SolvePlan> {
    let bytes = <S as gpu_sim::Elem>::BYTES;
    GpuTridiagSolver::new(DeviceSpec::gtx480(), config)
        .plan_geometry_for_host(
            batch.layout(),
            batch.num_systems(),
            batch.system_len(),
            bytes,
        )
        .ok()
}

/// The solution of `batch` under `config` in contiguous system-major
/// order, whatever layout the batch (and so the answer) is stored in.
fn solve<S: GpuScalar>(
    config: GpuSolverConfig,
    batch: &SystemBatch<S>,
) -> (Vec<S>, GpuSolveReport) {
    let (m, n) = (batch.num_systems(), batch.system_len());
    let (x, report) = GpuTridiagSolver::new(DeviceSpec::gtx480(), config)
        .solve_batch(batch)
        .unwrap_or_else(|e| panic!("m={m} n={n} {config:?}: {e}"));
    let mut out = vec![S::default(); m * n];
    batch
        .layout()
        .convert(Layout::Contiguous, &x, m, n, &mut out);
    (out, report)
}

fn check<S: GpuScalar>(m: usize, n: usize) {
    let bytes = <S as gpu_sim::Elem>::BYTES;
    let contiguous = random_batch::<S>(m, n, 17 + m as u64);
    let interleaved = contiguous.to_layout(Layout::Interleaved);
    let spec = DeviceSpec::gtx480();
    let default_k = GpuTridiagSolver::gtx480()
        .plan_geometry(m, n, bytes)
        .unwrap()
        .k;
    let max_k = GpuTridiagSolver::new(
        spec,
        GpuSolverConfig {
            policy: TransitionPolicy::Fixed(u32::MAX),
            ..Default::default()
        },
    )
    .plan_geometry(m, n, bytes)
    .unwrap()
    .k;
    let mut ks = vec![1, default_k.max(1), max_k];
    ks.dedup();
    for k in ks {
        let label = format!("f{} m={m} n={n} k={k}", 8 * bytes);
        let config = |mapping, fused| GpuSolverConfig {
            policy: TransitionPolicy::Fixed(k),
            mapping,
            fused,
            ..Default::default()
        };
        let (reference, base) = solve(config(MappingVariant::BlockPerSystem, false), &contiguous);
        assert_eq!(base.k, k, "{label}");
        // Each distinct plan once, from alternating host layouts.
        let mut plans = Vec::new();
        for &mapping in MAPPINGS {
            for fused in [false, true] {
                let batch = [&contiguous, &interleaved][plans.len() % 2];
                let Some(plan) = plan(config(mapping, fused), batch) else {
                    continue;
                };
                let choice = (plan.mapping, plan.fused, batch.layout());
                if plans
                    .iter()
                    .any(|p: &(_, _, _)| (p.0, p.1) == (choice.0, choice.1))
                {
                    continue;
                }
                let (x, report) = solve(config(mapping, fused), batch);
                assert_eq!(report.k, k, "{label} {choice:?}: k moved");
                assert_eq!(
                    solution_hash(&x),
                    solution_hash(&reference),
                    "{label} {choice:?}: answer differs from split block-per-system"
                );
                plans.push(choice);
            }
        }
        assert!(plans.len() >= 3, "{label}: only {plans:?} exercised");
        for host in [Layout::Contiguous, Layout::Interleaved] {
            assert!(
                plans.iter().any(|p| p.2 == host),
                "{label}: no {host:?} host batch in {plans:?}"
            );
        }
    }
}

#[test]
#[cfg_attr(debug_assertions, ignore = "slow simulation; run with --release")]
fn pipeline_choices_are_bit_neutral_f64() {
    for &(m, n) in GEOMETRIES {
        check::<f64>(m, n);
    }
}

#[test]
#[cfg_attr(debug_assertions, ignore = "slow simulation; run with --release")]
fn pipeline_choices_are_bit_neutral_f32() {
    for &(m, n) in GEOMETRIES {
        check::<f32>(m, n);
    }
}
