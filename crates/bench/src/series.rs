//! Data-series producers shared by the figure binaries: one function
//! per curve that appears in the paper's plots, all returning modeled
//! microseconds and all *verifying* the solutions they time.

use cpu_ref::CpuModel;
use gpu_sim::DeviceSpec;
use tridiag_core::generators::random_batch;
use tridiag_core::{Scalar, SystemBatch};
use tridiag_gpu::buffers::GpuScalar;
use tridiag_gpu::solver::{GpuSolveReport, GpuTridiagSolver};
use tridiag_gpu::{davidson, zhang};

/// Residual tolerance used when verifying a timed solve.
pub fn tolerance<S: Scalar>() -> f64 {
    tridiag_core::verify::default_tolerance::<S>() * 1e3
}

/// Deterministic benchmark batch for `(m, n)`.
pub fn batch_for<S: GpuScalar>(m: usize, n: usize) -> SystemBatch<S> {
    random_batch::<S>(m, n, 0xB0A7 + (m as u64) * 31 + n as u64)
}

/// "Ours (GTX480)": modeled time of the hybrid solver, with residual
/// verification. Panics (with context) if the solve is wrong — a wrong
/// fast solver is not a data point.
pub fn ours_us<S: GpuScalar>(m: usize, n: usize) -> (f64, GpuSolveReport) {
    let batch = batch_for::<S>(m, n);
    let (x, report) = GpuTridiagSolver::gtx480()
        .solve_batch(&batch)
        .unwrap_or_else(|e| panic!("gpu solve failed for M={m} N={n}: {e}"));
    let resid = batch.max_relative_residual(&x).expect("residual");
    assert!(
        resid < tolerance::<S>(),
        "M={m} N={n}: residual {resid} out of tolerance"
    );
    (report.total_us, report)
}

/// Davidson et al. baseline (Section V), verified.
pub fn davidson_us<S: GpuScalar>(m: usize, n: usize) -> f64 {
    let batch = batch_for::<S>(m, n);
    let (x, report) = davidson::solve_batch(&DeviceSpec::gtx480(), &batch)
        .unwrap_or_else(|e| panic!("davidson solve failed for M={m} N={n}: {e}"));
    let resid = batch.max_relative_residual(&x).expect("residual");
    assert!(resid < tolerance::<S>(), "davidson M={m} N={n}: residual {resid}");
    report.total_us
}

/// Zhang-style in-shared hybrid; `None` when the system exceeds shared
/// memory (the structural limit the paper highlights).
pub fn zhang_us<S: GpuScalar>(m: usize, n: usize) -> Option<f64> {
    let batch = batch_for::<S>(m, n);
    match zhang::solve_batch(&DeviceSpec::gtx480(), &batch, None) {
        Ok((x, report)) => {
            let resid = batch.max_relative_residual(&x).expect("residual");
            assert!(resid < tolerance::<S>(), "zhang M={m} N={n}: residual {resid}");
            Some(report.total_us)
        }
        Err(_) => None,
    }
}

/// "MKL (sequential)" modeled curve.
pub fn mkl_seq_us(m: usize, n: usize, elem_bytes: usize) -> f64 {
    CpuModel::i7_975().sequential_us(m, n, elem_bytes)
}

/// "MKL (multithreaded)" modeled curve.
pub fn mkl_mt_us(m: usize, n: usize, elem_bytes: usize) -> f64 {
    CpuModel::i7_975().threaded_us(m, n, elem_bytes)
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn series_are_positive_and_ordered_sanely() {
        let (ours, report) = ours_us::<f64>(64, 512);
        assert!(ours > 0.0);
        assert_eq!(report.k, 6); // Table III: 32 <= M < 512
        let seq = mkl_seq_us(64, 512, 8);
        let mt = mkl_mt_us(64, 512, 8);
        assert!(mt < seq);
    }

    #[test]
    fn zhang_capacity_gate() {
        assert!(zhang_us::<f64>(4, 512).is_some());
        assert!(zhang_us::<f64>(1, 4096).is_none());
    }
}
