//! # scalable-tridiag
//!
//! Umbrella crate for the Rust reproduction of Kim, Wu, Chang & Hwu,
//! *"A Scalable Tridiagonal Solver for GPUs"* (ICPP 2011): a hybrid
//! tiled-PCR + p-Thomas tridiagonal solver, a functional GPU execution
//! simulator to run it on, CPU baselines, and the full reproduction
//! harness for every table and figure in the paper.
//!
//! Re-exports the four member crates; see each for details:
//!
//! - [`tridiag_core`] — the algorithms (Thomas, CR, PCR, RD, tiled PCR
//!   with the buffered sliding window, the hybrid, the cost model,
//!   conditioning diagnostics).
//! - [`gpu_sim`] — the GPU simulator substrate.
//! - [`tridiag_gpu`] — the paper's kernels and solver on the simulator,
//!   plus the Davidson and Zhang baselines.
//! - [`cpu_ref`] — sequential and thread-pooled CPU solvers (the MKL
//!   `gtsv` stand-ins).
//!
//! ## Unified engine API
//!
//! [`BatchSolver`] puts every engine behind one trait so applications
//! can switch between the CPU reference and the modeled GPU (or compare
//! them) without changing call sites:
//!
//! ```
//! use scalable_tridiag::{BatchSolver, CpuSequential, CpuThreaded, SimulatedGpu};
//! use scalable_tridiag::tridiag_core::generators;
//!
//! let batch = generators::random_batch::<f64>(16, 256, 7);
//! for engine in [
//!     &CpuSequential as &dyn BatchSolver<f64>,
//!     &CpuThreaded::per_cpu(),
//!     &SimulatedGpu::gtx480(),
//! ] {
//!     let x = engine.solve_batch(&batch).unwrap();
//!     assert!(batch.max_relative_residual(&x).unwrap() < 1e-9, "{}", engine.name());
//! }
//! ```

pub use cpu_ref;
pub use gpu_sim;
pub use tridiag_core;
pub use tridiag_gpu;

use tridiag_core::{Scalar, SystemBatch};
use tridiag_gpu::buffers::GpuScalar;
use tridiag_gpu::solver::{GpuSolverConfig, GpuTridiagSolver};

/// Uniform error type for the facade: every engine reports through one
/// boxed error so callers can mix engines freely.
pub type SolveError = Box<dyn std::error::Error + Send + Sync + 'static>;

/// One interface over every solver engine in the workspace.
pub trait BatchSolver<S: Scalar> {
    /// Engine name for logs and comparisons.
    fn name(&self) -> &'static str;
    /// Solve every system in the batch; the flat solution uses the
    /// batch's own layout.
    fn solve_batch(&self, batch: &SystemBatch<S>) -> Result<Vec<S>, SolveError>;
}

/// The sequential CPU reference ("MKL (sequential)" stand-in).
#[derive(Debug, Clone, Copy, Default)]
pub struct CpuSequential;

impl<S: Scalar> BatchSolver<S> for CpuSequential {
    fn name(&self) -> &'static str {
        "cpu-sequential"
    }
    fn solve_batch(&self, batch: &SystemBatch<S>) -> Result<Vec<S>, SolveError> {
        Ok(cpu_ref::solve_batch_sequential(batch)?)
    }
}

/// The thread-pooled CPU reference ("MKL (multithreaded)" stand-in).
#[derive(Debug, Clone, Copy)]
pub struct CpuThreaded {
    pool: cpu_ref::ThreadPool,
}

impl CpuThreaded {
    /// One worker per logical CPU.
    pub fn per_cpu() -> Self {
        Self {
            pool: cpu_ref::ThreadPool::per_cpu(),
        }
    }

    /// A fixed worker count.
    pub fn with_workers(workers: usize) -> Self {
        Self {
            pool: cpu_ref::ThreadPool::new(workers),
        }
    }
}

impl<S: Scalar> BatchSolver<S> for CpuThreaded {
    fn name(&self) -> &'static str {
        "cpu-threaded"
    }
    fn solve_batch(&self, batch: &SystemBatch<S>) -> Result<Vec<S>, SolveError> {
        Ok(cpu_ref::solve_batch_threaded(batch, &self.pool)?)
    }
}

/// The lane-vectorised CPU solver over the interleaved layout (the
/// CPU-side analogue of the coalescing layout the paper exploits).
#[derive(Debug, Clone, Copy, Default)]
pub struct CpuInterleaved;

impl<S: Scalar> BatchSolver<S> for CpuInterleaved {
    fn name(&self) -> &'static str {
        "cpu-interleaved"
    }
    fn solve_batch(&self, batch: &SystemBatch<S>) -> Result<Vec<S>, SolveError> {
        use tridiag_core::Layout;
        let inter = batch.to_layout(Layout::Interleaved);
        let xi = cpu_ref::solve_batch_interleaved(&inter)?;
        // Back to the caller's layout.
        let (m, n) = (batch.num_systems(), batch.system_len());
        let mut out = vec![xi[0]; m * n];
        for sys in 0..m {
            for row in 0..n {
                out[batch.index(sys, row)] = xi[row * m + sys];
            }
        }
        Ok(out)
    }
}

/// The paper's hybrid solver on the simulated GPU.
#[derive(Debug, Clone)]
pub struct SimulatedGpu {
    solver: GpuTridiagSolver,
}

impl SimulatedGpu {
    /// The paper's GTX480 with default configuration.
    pub fn gtx480() -> Self {
        Self {
            solver: GpuTridiagSolver::gtx480(),
        }
    }

    /// Custom device + configuration.
    pub fn new(spec: gpu_sim::DeviceSpec, config: GpuSolverConfig) -> Self {
        Self {
            solver: GpuTridiagSolver::new(spec, config),
        }
    }

    /// Access the inner solver (for reports).
    pub fn solver(&self) -> &GpuTridiagSolver {
        &self.solver
    }
}

impl<S: GpuScalar> BatchSolver<S> for SimulatedGpu {
    fn name(&self) -> &'static str {
        "simulated-gpu"
    }
    fn solve_batch(&self, batch: &SystemBatch<S>) -> Result<Vec<S>, SolveError> {
        let (x, _) = self.solver.solve_batch(batch)?;
        Ok(x)
    }
}

/// The paper's hybrid solver sharded across a simulated multi-GPU
/// group: systems split contiguously (±1 balance), one worker thread
/// per device, results merged bit-identically to the single-device
/// path on homogeneous groups.
#[derive(Debug, Clone)]
pub struct SimulatedGpuSharded {
    solver: GpuTridiagSolver,
    group: gpu_sim::DeviceGroup,
}

impl SimulatedGpuSharded {
    /// `devices` identical GTX480s with default configuration.
    pub fn gtx480(devices: usize) -> Result<Self, SolveError> {
        let group = gpu_sim::DeviceGroup::homogeneous(gpu_sim::DeviceSpec::gtx480(), devices)?;
        Ok(Self::new(group, GpuSolverConfig::default()))
    }

    /// A custom (possibly heterogeneous) device group + configuration.
    /// The group's primary device drives the pinned plan decisions.
    pub fn new(group: gpu_sim::DeviceGroup, config: GpuSolverConfig) -> Self {
        Self {
            solver: GpuTridiagSolver::new(group.primary().clone(), config),
            group,
        }
    }

    /// The device group this engine shards across.
    pub fn group(&self) -> &gpu_sim::DeviceGroup {
        &self.group
    }

    /// Access the inner solver (for reports).
    pub fn solver(&self) -> &GpuTridiagSolver {
        &self.solver
    }
}

impl<S: GpuScalar + Send + Sync> BatchSolver<S> for SimulatedGpuSharded {
    fn name(&self) -> &'static str {
        "simulated-gpu-sharded"
    }
    fn solve_batch(&self, batch: &SystemBatch<S>) -> Result<Vec<S>, SolveError> {
        let (x, _) = self.solver.solve_batch_group(&self.group, batch)?;
        Ok(x)
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use tridiag_core::generators;

    #[test]
    fn facade_engines_agree() {
        let batch = generators::random_batch::<f64>(8, 128, 1);
        let engines: Vec<Box<dyn BatchSolver<f64>>> = vec![
            Box::new(CpuSequential),
            Box::new(CpuThreaded::with_workers(4)),
            Box::new(CpuInterleaved),
            Box::new(SimulatedGpu::gtx480()),
            Box::new(SimulatedGpuSharded::gtx480(2).unwrap()),
        ];
        let reference = engines[0].solve_batch(&batch).unwrap();
        for e in &engines[1..] {
            let x = e.solve_batch(&batch).unwrap();
            for i in 0..x.len() {
                assert!((x[i] - reference[i]).abs() < 1e-9, "{} row {i}", e.name());
            }
        }
    }

    #[test]
    fn facade_propagates_errors() {
        let bad = generators::near_singular::<f64>(8, 0, 0.0, 1);
        let batch = SystemBatch::from_systems(vec![bad]).unwrap();
        for e in [
            &CpuSequential as &dyn BatchSolver<f64>,
            &SimulatedGpu::gtx480(),
        ] {
            assert!(e.solve_batch(&batch).is_err(), "{}", e.name());
        }
    }
}
