//! # cpu-ref
//!
//! CPU reference solvers for the ICPP 2011 reproduction — the stand-ins
//! for the paper's Intel MKL `gtsv` baselines on a Core i7 975:
//!
//! - [`batched::solve_batch_sequential`] — "MKL (sequential)": Thomas
//!   per system on one thread.
//! - [`batched::solve_batch_threaded`] — "MKL (multithreaded)": Thomas
//!   per system across a [`pool::ThreadPool`], parallel only for
//!   `M ≥ 2` (matching MKL's footnoted behaviour in Section IV).
//! - [`cpu_model::CpuModel`] — an analytic i7-975 time model, so the
//!   figure harness can put modeled CPU curves next to modeled GPU
//!   curves.
//!
//! The runnable solvers are real and fast; the repository benchmark
//! (`benchmark/`) times `solve_batch_sequential` on the host clock
//! (`cpu-ref.solve.host_ms`).

#![warn(missing_docs)]

pub mod batched;
pub mod cpu_model;
pub mod interleaved;
pub mod pool;

pub use batched::{solve_batch_sequential, solve_batch_threaded};
pub use cpu_model::CpuModel;
pub use interleaved::solve_batch_interleaved;
pub use pool::ThreadPool;
