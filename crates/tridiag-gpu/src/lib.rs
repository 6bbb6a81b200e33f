//! # tridiag-gpu
//!
//! The paper's GPU tridiagonal solver — hybrid tiled PCR + p-Thomas —
//! implemented as kernels on the [`gpu_sim`] functional simulator, plus
//! the Davidson et al. and Zhang et al. baselines it is compared against
//! (Sections III and V of the paper).

#![warn(missing_docs)]
// Kernels index parallel coefficient arrays (`a, b, c, d`) by a small
// integer `arr`; iterator rewrites of those loops obscure the SIMT
// structure the code deliberately mirrors.
#![allow(clippy::needless_range_loop)]

pub mod autotune;
pub mod buffers;
pub mod consts;
pub mod davidson;
pub mod distributed;
pub mod executor;
pub mod hash;
pub mod kernels;
mod multi_device;
pub mod plan;
pub mod sharded;
pub mod solver;
pub mod verify;
pub mod zhang;
pub mod zoo;

pub use buffers::{upload, DeviceBatch, GpuScalar};
pub use distributed::{
    validate_distributed_plan_json, ChunkPlan, DistributedExecutor, DistributedPlan,
};
pub use executor::{HostBatch, PlanExecutor};
pub use hash::solution_hash;
pub use plan::{
    partition, validate_plan_json, validate_sharded_plan_json, Partition, ShardPlan, ShardedPlan,
    SolvePlan, Step,
};
pub use sharded::ShardedExecutor;
pub use solver::{
    DistributedSummary, GpuSolveReport, GpuSolverConfig, GpuTridiagSolver, LayoutChoice,
    MappingVariant, ShardSummary,
};
pub use verify::{
    verify_distributed_plan, verify_plan, verify_sharded_plan, DynamicPlanStats, FindingKind,
    GroupVerifyReport, PlanFinding, PlanPrediction, SlotLiveness, VerifyReport,
};
