//! Requests, responses and the typed service errors.
//!
//! A [`SolveRequest`] carries one small batch of tridiagonal systems at
//! a single precision; the service answers with a [`Response`] holding
//! either the [`Solution`] vector (in the request's own layout) or a
//! typed [`ServiceError`], plus the per-request latency attribution
//! ([`RequestSpans`]) carved out of the modeled-time axis.

use std::fmt;

use gpu_sim::DeviceSpec;
use tridiag_core::SystemBatch;
use tridiag_gpu::plan::cost::{decide, Decision};
use tridiag_gpu::solution_hash;
use tridiag_gpu::GpuSolverConfig;

/// The systems one request wants solved, tagged by precision.
#[derive(Debug, Clone)]
pub enum Payload {
    /// Single-precision batch.
    F32(SystemBatch<f32>),
    /// Double-precision batch.
    F64(SystemBatch<f64>),
}

impl Payload {
    /// Number of systems in the request.
    pub fn num_systems(&self) -> usize {
        match self {
            Payload::F32(b) => b.num_systems(),
            Payload::F64(b) => b.num_systems(),
        }
    }

    /// Rows per system.
    pub fn system_len(&self) -> usize {
        match self {
            Payload::F32(b) => b.system_len(),
            Payload::F64(b) => b.system_len(),
        }
    }

    /// Scalar width in bytes (4 or 8).
    pub fn elem_bytes(&self) -> usize {
        match self {
            Payload::F32(_) => 4,
            Payload::F64(_) => 8,
        }
    }

    /// Precision label (`"f32"` / `"f64"`).
    pub fn precision(&self) -> &'static str {
        match self {
            Payload::F32(_) => "f32",
            Payload::F64(_) => "f64",
        }
    }

    /// Bytes of one solution download for this payload.
    pub fn solution_bytes(&self) -> usize {
        self.num_systems() * self.system_len() * self.elem_bytes()
    }

    /// The planner's decision for this payload solved alone on `spec`
    /// under the default config — the one
    /// [`tridiag_gpu::GpuTridiagSolver::solve_batch`] takes for it, and
    /// the one the service pins for it.
    pub fn decision(&self, spec: &DeviceSpec) -> Decision {
        let config = GpuSolverConfig::default();
        decide(
            spec,
            &config,
            self.num_systems(),
            self.system_len(),
            self.elem_bytes(),
        )
    }
}

/// One solve request: an id, a modeled arrival time, and the systems.
#[derive(Debug, Clone)]
pub struct SolveRequest {
    /// Caller-visible identity, echoed on the [`Response`].
    pub id: u64,
    /// Arrival on the modeled-time axis (µs).
    pub arrival_us: f64,
    /// The systems to solve.
    pub payload: Payload,
}

/// A solved request's output vector, in the request's own layout.
#[derive(Debug, Clone, PartialEq)]
pub enum Solution {
    /// Single-precision solution.
    F32(Vec<f32>),
    /// Double-precision solution.
    F64(Vec<f64>),
}

impl Solution {
    /// Elements in the solution.
    pub fn len(&self) -> usize {
        match self {
            Solution::F32(x) => x.len(),
            Solution::F64(x) => x.len(),
        }
    }

    /// `true` when empty (never, for a successful solve).
    pub fn is_empty(&self) -> bool {
        self.len() == 0
    }

    /// Bit-exact FNV-1a fingerprint ([`tridiag_gpu::solution_hash`]).
    pub fn hash(&self) -> u64 {
        match self {
            Solution::F32(x) => solution_hash(x),
            Solution::F64(x) => solution_hash(x),
        }
    }
}

/// Per-request latency attribution on the modeled-time axis. The four
/// spans partition the request's latency exactly:
/// `completed_us - arrival_us == queue + coalesce + kernel + scatter`.
#[derive(Debug, Clone, Copy, Default, PartialEq)]
pub struct RequestSpans {
    /// Waiting in the admission queue for a window to open, plus any
    /// wait for co-tenant batches scheduled ahead in the same tick.
    pub queue_us: f64,
    /// Inside an open coalescing window, waiting for it to close
    /// (always 0 when the window size is 0).
    pub coalesce_us: f64,
    /// Modeled kernel time of the (possibly fused) batch this request
    /// rode in.
    pub kernel_us: f64,
    /// Scatter of the fused solution back to this request, including
    /// the serialized downloads of co-batched members ahead of it.
    pub scatter_us: f64,
}

impl RequestSpans {
    /// Total attributed latency (µs).
    pub fn latency_us(&self) -> f64 {
        self.queue_us + self.coalesce_us + self.kernel_us + self.scatter_us
    }
}

/// Typed service failures. `Overloaded` and `ShuttingDown` are
/// admission-time backpressure; `Solve` wraps a solver fault for the
/// specific request(s) that caused it.
#[derive(Debug, Clone, PartialEq, Eq)]
pub enum ServiceError {
    /// The bounded queue was full at submission: back off and retry.
    Overloaded {
        /// The configured queue depth the request bounced off.
        depth: usize,
    },
    /// The service is draining; no new work is admitted.
    ShuttingDown,
    /// The request itself is malformed (empty batch, bad width, …).
    InvalidRequest(String),
    /// The solver faulted on this request's systems (display of the
    /// underlying [`gpu_sim::SimError`]).
    Solve(String),
}

impl fmt::Display for ServiceError {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        match self {
            ServiceError::Overloaded { depth } => {
                write!(f, "overloaded: queue depth {depth} reached")
            }
            ServiceError::ShuttingDown => write!(f, "service is shutting down"),
            ServiceError::InvalidRequest(msg) => write!(f, "invalid request: {msg}"),
            ServiceError::Solve(msg) => write!(f, "solve failed: {msg}"),
        }
    }
}

impl std::error::Error for ServiceError {}

/// The service's answer to one request.
#[derive(Debug, Clone)]
pub struct Response {
    /// The request's id.
    pub id: u64,
    /// The solution, or the typed failure attributed to this request.
    pub result: Result<Solution, ServiceError>,
    /// Latency attribution (all zeros for admission-time rejections).
    pub spans: RequestSpans,
    /// Index of the coalesced batch this request rode in (one per
    /// fused launch, in completion order); `None` when rejected.
    pub batch: Option<usize>,
    /// How many requests shared that batch (1 = solved alone).
    pub coalesced_with: usize,
    /// Whether the batch's plan came out of the plan cache.
    pub cache_hit: bool,
    /// Completion on the modeled-time axis (µs); equals `arrival_us`
    /// for admission-time rejections.
    pub completed_us: f64,
}
