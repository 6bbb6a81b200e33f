//! # tridiag-core
//!
//! Algorithms and data structures for solving tridiagonal systems, as a
//! Rust reproduction of Kim, Wu, Chang & Hwu, *"A Scalable Tridiagonal
//! Solver for GPUs"* (ICPP 2011).
//!
//! This crate is pure host-side math: every algorithm the paper uses or
//! compares against, in a form that is independent of any execution
//! substrate. The companion crates build on it:
//!
//! - `gpu-sim` — the GPU execution simulator,
//! - `tridiag-gpu` — the paper's kernels on that simulator,
//! - `cpu-ref` — CPU baselines (MKL `gtsv` stand-ins).
//!
//! ## Algorithm inventory
//!
//! | Module | Algorithm | Work | Parallel steps |
//! |---|---|---|---|
//! | [`thomas`] | Thomas (sequential Gaussian elimination) | `O(n)` | `2n − 1` |
//! | [`cr`] | Cyclic reduction | `O(n)` | `2·log2 n + 1` |
//! | [`pcr`] | Parallel cyclic reduction (full + incomplete k-step) | `O(n log n)` | `log2 n + 1` |
//! | [`rd`] | Recursive doubling (Stone) | `O(n log n)` | `3·log2 n` |
//! | [`tiled_pcr`] | Tiled PCR with the buffered sliding window | `O(k n)` | — |
//! | [`hybrid`] | k-step (tiled) PCR front end + Thomas back end | Table II | Table II |
//!
//! ## Quick example
//!
//! ```
//! use tridiag_core::{generators, thomas, pcr};
//!
//! // A diagonally dominant system of 64 unknowns.
//! let system = generators::dominant_random::<f64>(64, 42);
//!
//! // Direct sequential solve.
//! let x = thomas::solve_typed(&system).unwrap();
//! assert!(system.relative_residual(&x).unwrap() < 1e-12);
//!
//! // The paper's divide step: 3 PCR steps -> 8 independent subsystems,
//! // then a Thomas solve per subsystem gives the same answer.
//! let x2 = pcr::reduce(&system, 3).unwrap().solve_subsystems_thomas().unwrap();
//! assert!(system.relative_residual(&x2).unwrap() < 1e-12);
//! ```

#![warn(missing_docs)]
// Stencil and sweep loops index several parallel arrays by row number;
// iterator rewrites of those loops hide the row-at-a-time recurrence
// structure the algorithms are written to exhibit.
#![allow(clippy::needless_range_loop)]

pub mod batch;
pub mod condition;
pub mod cost_model;
pub mod cr;
pub mod error;
pub mod factored;
pub mod generators;
pub mod hybrid;
pub mod pcr;
pub mod pivoting;
pub mod ragged;
pub mod rd;
pub mod scalar;
pub mod sliding_window;
pub mod streaming;
pub mod system;
pub mod thomas;
pub mod tiled_pcr;
pub mod transition;
pub mod verify;

pub use batch::{Layout, SystemBatch};
pub use error::{Result, TridiagError};
pub use ragged::RaggedBatch;
pub use scalar::Scalar;
pub use system::TridiagonalSystem;
