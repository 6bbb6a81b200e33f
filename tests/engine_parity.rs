//! Cross-crate integration: every solver engine in the workspace must
//! produce the same answer on the same batch.
//!
//! Engines: host Thomas/CR/PCR/RD, the host hybrid, the simulated-GPU
//! hybrid (split and fused), the Davidson and Zhang baselines, and the
//! CPU batched solvers (sequential and thread-pooled).

use scalable_tridiag::cpu_ref;
use scalable_tridiag::tridiag_core::{
    cr, generators, hybrid, pcr, rd, thomas, Layout, Scalar, SystemBatch,
};
use scalable_tridiag::tridiag_gpu::solver::{GpuSolverConfig, GpuTridiagSolver, MappingVariant};
use scalable_tridiag::tridiag_gpu::{davidson, zhang};

fn assert_close<S: Scalar>(a: &[S], b: &[S], tol: f64, ctx: &str) {
    assert_eq!(a.len(), b.len(), "{ctx}: length");
    for i in 0..a.len() {
        let d = (a[i].to_f64() - b[i].to_f64()).abs();
        let scale = a[i].to_f64().abs().max(1.0);
        assert!(d / scale < tol, "{ctx}: row {i}: {} vs {}", a[i], b[i]);
    }
}

#[test]
fn all_single_system_algorithms_agree() {
    for n in [17usize, 256, 1000, 4096] {
        let s = generators::dominant_random::<f64>(n, n as u64);
        let reference = thomas::solve_typed(&s).unwrap();
        assert_close(&cr::solve(&s).unwrap(), &reference, 1e-8, "cr");
        assert_close(&pcr::solve(&s).unwrap(), &reference, 1e-8, "pcr");
        assert_close(&rd::solve(&s).unwrap(), &reference, 1e-7, "rd");
        let (xh, _) = hybrid::solve(&s, hybrid::HybridConfig::default()).unwrap();
        assert_close(&xh, &reference, 1e-8, "host hybrid");
    }
}

#[test]
fn gpu_engines_agree_with_cpu_reference() {
    for (m, n) in [(4usize, 512usize), (64, 256), (3, 1000)] {
        let batch = generators::random_batch::<f64>(m, n, 17 + m as u64);
        let x_cpu = cpu_ref::solve_batch_sequential(&batch).unwrap();
        let x_mt = cpu_ref::solve_batch_threaded(&batch, &cpu_ref::ThreadPool::new(4)).unwrap();
        assert_eq!(x_cpu, x_mt, "threaded CPU must be bitwise identical");

        let (x_gpu, _) = GpuTridiagSolver::gtx480().solve_batch(&batch).unwrap();
        assert_close(&x_gpu, &x_cpu, 1e-8, &format!("gpu m={m} n={n}"));

        let (x_dav, _) = davidson::solve_batch(&gpu_sim::DeviceSpec::gtx480(), &batch).unwrap();
        assert_close(&x_dav, &x_cpu, 1e-7, &format!("davidson m={m} n={n}"));

        if n <= zhang::max_system_size(&gpu_sim::DeviceSpec::gtx480(), 8) {
            let (x_zh, _) =
                zhang::solve_batch(&gpu_sim::DeviceSpec::gtx480(), &batch, None).unwrap();
            assert_close(&x_zh, &x_cpu, 1e-7, &format!("zhang m={m} n={n}"));
        }
    }
}

#[test]
fn fused_and_split_pipelines_agree() {
    let batch = generators::random_batch::<f64>(16, 768, 23);
    let split = GpuTridiagSolver::new(
        gpu_sim::DeviceSpec::gtx480(),
        GpuSolverConfig {
            fused: false,
            ..Default::default()
        },
    );
    let fused = GpuTridiagSolver::new(
        gpu_sim::DeviceSpec::gtx480(),
        GpuSolverConfig {
            fused: true,
            mapping: MappingVariant::BlockPerSystem,
            ..Default::default()
        },
    );
    let (xs, rs) = split.solve_batch(&batch).unwrap();
    let (xf, rf) = fused.solve_batch(&batch).unwrap();
    assert!(!rs.fused && rf.fused);
    // Same arithmetic order in PCR; Thomas fold order matches too.
    assert_close(&xf, &xs, 1e-11, "fused vs split");
}

#[test]
fn all_three_mappings_agree() {
    let batch = generators::random_batch::<f64>(6, 2048, 29);
    let mut answers = Vec::new();
    for mapping in [
        MappingVariant::BlockPerSystem,
        MappingVariant::BlockGroupPerSystem(4),
        MappingVariant::MultiSystemPerBlock(2),
    ] {
        let solver = GpuTridiagSolver::new(
            gpu_sim::DeviceSpec::gtx480(),
            GpuSolverConfig {
                mapping,
                ..Default::default()
            },
        );
        let (x, report) = solver.solve_batch(&batch).unwrap();
        assert!(
            batch.max_relative_residual(&x).unwrap() < 1e-9,
            "{mapping:?}"
        );
        answers.push((mapping, x, report));
    }
    // All mappings compute the identical reduction (bit-exact PCR), so
    // solutions agree to rounding.
    let base = &answers[0].1;
    for (mapping, x, _) in &answers[1..] {
        assert_close(x, base, 1e-11, &format!("{mapping:?}"));
    }
}

#[test]
fn layouts_do_not_change_answers() {
    let batch_c = generators::random_batch::<f64>(8, 333, 31);
    let batch_i = batch_c.to_layout(Layout::Interleaved);
    let (xc, _) = GpuTridiagSolver::gtx480().solve_batch(&batch_c).unwrap();
    let (xi, _) = GpuTridiagSolver::gtx480().solve_batch(&batch_i).unwrap();
    for sys in 0..8 {
        for row in 0..333 {
            let a = xc[batch_c.index(sys, row)];
            let b = xi[batch_i.index(sys, row)];
            assert_eq!(a, b, "sys {sys} row {row}");
        }
    }
}

#[test]
fn f32_parity_within_single_precision_tolerance() {
    let batch64 = generators::random_batch::<f64>(8, 512, 37);
    let systems32 = batch64
        .to_systems()
        .iter()
        .map(|s| s.cast::<f32>())
        .collect::<Vec<_>>();
    let batch32 = SystemBatch::from_systems(systems32).unwrap();
    let (x64, r64) = GpuTridiagSolver::gtx480().solve_batch(&batch64).unwrap();
    let (x32, r32) = GpuTridiagSolver::gtx480().solve_batch(&batch32).unwrap();
    assert_eq!(r64.precision, "f64");
    assert_eq!(r32.precision, "f32");
    for i in 0..x64.len() {
        assert!(
            (x64[i] - x32[i] as f64).abs() < 1e-2,
            "row {i}: {} vs {}",
            x64[i],
            x32[i]
        );
    }
    // f32 must be modeled faster (half the traffic).
    assert!(r32.total_us < r64.total_us);
}
