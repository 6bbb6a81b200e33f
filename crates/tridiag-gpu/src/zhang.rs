//! Zhang et al. \[16\]\[17\]-style in-shared-memory hybrid — the
//! conventional approach whose size limitation motivates tiled PCR.
//!
//! "Both approaches can only solve small sized systems as their methods
//! store an entire input system in shared memory. As a result, the
//! limited capacity of shared memory considerably limits their
//! availability for real use" (Section I). This wrapper makes that
//! limitation a first-class, typed error so the figure harness can show
//! exactly where the conventional method stops scaling.

use crate::buffers::{upload, GpuScalar};
use crate::consts::REGS_PCR_SHARED;
use crate::executor::PlanExecutor;
use crate::kernels::pcr_shared::PcrSharedKernel;
use crate::solver::KernelReport;
use gpu_sim::{DeviceSpec, ExecConfig, GpuMemory, LaunchConfig, Result, SimError};
use tridiag_core::{Layout, SystemBatch};

/// Report of one Zhang-style solve.
#[derive(Debug, Clone, PartialEq)]
pub struct ZhangReport {
    /// PCR steps before the in-shared Thomas finish.
    pub pcr_steps: u32,
    /// The single kernel's report.
    pub kernel: KernelReport,
    /// Total modeled time (µs).
    pub total_us: f64,
}

/// Largest `n` this method can handle on `spec` at `elem_bytes`.
pub fn max_system_size(spec: &DeviceSpec, elem_bytes: usize) -> usize {
    PcrSharedKernel::max_n(spec.max_shared_per_block, elem_bytes)
}

/// Solve `batch` with the whole-system-in-shared-memory hybrid.
///
/// # Errors
/// [`SimError::InvalidLaunch`] when a system exceeds
/// [`max_system_size`] — the structural failure mode the paper fixes.
pub fn solve_batch<S: GpuScalar>(
    spec: &DeviceSpec,
    batch: &SystemBatch<S>,
    pcr_steps: Option<u32>,
) -> Result<(Vec<S>, ZhangReport)> {
    let m = batch.num_systems();
    let n = batch.system_len();
    let cap = max_system_size(spec, <S as gpu_sim::Elem>::BYTES);
    if n > cap {
        return Err(SimError::InvalidLaunch(format!(
            "system of {n} rows exceeds the {cap}-row shared-memory capacity of the \
             in-shared-memory hybrid on {}",
            spec.name
        )));
    }
    let contig = batch.to_layout(Layout::Contiguous);
    let mut mem = GpuMemory::new();
    let dev = upload(&mut mem, &contig);
    let steps = pcr_steps.unwrap_or_else(|| {
        // A sensible default: reduce until ~one row per thread.
        tridiag_core::pcr::full_steps(n).saturating_sub(2)
    });
    let kernel = PcrSharedKernel {
        input: [dev.a, dev.b, dev.c, dev.d],
        x: dev.x,
        n,
        q: 0,
        steps: Some(steps),
    };
    let cfg = LaunchConfig::new("zhang_pcr_thomas", m, (n as u32).clamp(32, 512))
        .with_regs(REGS_PCR_SHARED);
    let mut ex = PlanExecutor::new(spec.clone(), ExecConfig::default());
    ex.launch(&cfg, &kernel, &mut mem)?;
    let (kernel, _) = ex.take_last_launch()?;
    let mut out = vec![S::ZERO; batch.total_len()];
    Layout::Contiguous.convert(batch.layout(), &mem.read(dev.x)?, m, n, &mut out);
    let total_us = kernel.timing.total_us;
    Ok((
        out,
        ZhangReport {
            pcr_steps: steps,
            kernel,
            total_us,
        },
    ))
}

#[cfg(test)]
mod tests {
    use super::*;
    use tridiag_core::generators::random_batch;

    #[test]
    fn solves_small_systems() {
        for n in [64usize, 256, 768] {
            let batch = random_batch::<f64>(8, n, n as u64);
            let (x, rep) = solve_batch(&DeviceSpec::gtx480(), &batch, None).unwrap();
            assert!(batch.max_relative_residual(&x).unwrap() < 1e-9, "n={n}");
            assert!(rep.total_us > 0.0);
        }
    }

    #[test]
    fn capacity_limits_match_the_paper_complaint() {
        let spec = DeviceSpec::gtx480();
        assert_eq!(max_system_size(&spec, 8), 768);
        assert_eq!(max_system_size(&spec, 4), 1536);
        let batch = random_batch::<f64>(1, 769, 1);
        assert!(solve_batch(&spec, &batch, None).is_err());
        // GTX280's 16 KiB makes it worse.
        assert_eq!(max_system_size(&DeviceSpec::gtx280(), 8), 256);
    }

    #[test]
    fn explicit_step_count() {
        let batch = random_batch::<f64>(2, 128, 3);
        let (x, rep) = solve_batch(&DeviceSpec::gtx480(), &batch, Some(3)).unwrap();
        assert_eq!(rep.pcr_steps, 3);
        assert!(batch.max_relative_residual(&x).unwrap() < 1e-10);
    }
}
