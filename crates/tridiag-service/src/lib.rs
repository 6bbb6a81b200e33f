//! # tridiag-service
//!
//! The front door that manufactures the paper's winning regime: many
//! small concurrent solve requests, coalesced into large fused batches.
//!
//! The paper's central result is that fused, large-`M` batched launches
//! win decisively past the crossover point — but real traffic arrives
//! as small independent requests. This crate bridges the two: a
//! bounded request queue with typed backpressure, a coalescer merging
//! compatible requests (same precision and planner decision, and same
//! `n` unless the decision is the fused one-block-per-system pipeline,
//! whose ragged launch takes each member's row count) into one fused
//! batch per precision and `k` each tick, a plan cache over the pure
//! planner ([`tridiag_gpu::SolvePlan::build`]), per-request latency
//! attribution (queue / coalesce-window / kernel / scatter spans), and
//! — the correctness keystone — **decision pinning**, which makes a
//! request's bits those of its own solo `solve_batch`, whoever its
//! co-tenants are (see
//! [`core`] module docs; proven by the `service_differential` suite).
//!
//! Two drivers share the same engine:
//! - [`ServiceCore::run_workload`] — a fully deterministic modeled-time
//!   run of a whole workload (benches, differential tests, CLI).
//! - [`SolveService`] — a real worker thread behind a bounded queue for
//!   concurrent submitters (stress tests, `tridiag serve`).

#![warn(missing_docs)]

pub mod cache;
pub mod coalesce;
pub mod core;
pub mod report;
pub mod request;
pub mod service;
pub mod telemetry;

pub use cache::{certify, config_fingerprint, CacheStats, PlanCache, PlanKey};
pub use coalesce::{coalesce, CoalesceKey, CoalescedBatch, FusedPayload, Member};
pub use core::{ServiceConfig, ServiceCore};
pub use report::{BatchSummary, DeviceSpan, ServiceReport, SloConfig, SloSummary};
pub use request::{Payload, RequestSpans, Response, ServiceError, Solution, SolveRequest};
pub use service::{ServiceStats, SolveService, Ticket};
pub use telemetry::{
    validate_event_log, validate_request_chains, Event, ReplaySummary, Telemetry, EVENTS_SCHEMA,
};

use gpu_sim::{DeviceGroup, Result};

/// Solve one payload alone through the service, under its own pinned
/// decision — a fresh one-shot [`ServiceCore`], so no co-tenant and no
/// cached plan is involved. Coalesced answers must equal it, and it
/// equals [`tridiag_gpu::GpuTridiagSolver::solve_batch`] on the payload
/// on the group's primary device, bit for bit.
pub fn solo_solution(
    group: &DeviceGroup,
    cfg: ServiceConfig,
    payload: &Payload,
) -> Result<Solution> {
    let mut core = ServiceCore::new(group.clone(), cfg);
    core.solve_payload(payload).map(|(x, _, _, _)| x)
}
