//! The coalescer: merge compatible queued requests into fused batches.
//!
//! Compatibility is exact geometry, precision and decision: requests
//! merge only when they share `(n, elem_bytes)` — different row counts
//! or scalar widths can never share a kernel launch (the kernels are
//! monomorphic in both) — and the planner makes the same decision for
//! each of them solved alone ([`Payload::decision`]), so the fused
//! batch can run under that one pinned decision and every member gets
//! the bits its own solo solve would. The device group is fixed per
//! service, so it never splits a tick. Merging preserves first-seen
//! order: batches form in the order their first member arrived, and
//! members keep arrival order inside a batch, so the fused system
//! indices are deterministic.

use gpu_sim::{DeviceSpec, SimError};
use tridiag_core::{Layout, SystemBatch};
use tridiag_gpu::plan::cost::Decision;

use crate::request::{Payload, SolveRequest};

/// What makes two requests mergeable.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct CoalesceKey {
    /// Rows per system.
    pub n: usize,
    /// Scalar width in bytes.
    pub elem_bytes: usize,
    /// The planner's decision for each member solved alone on the
    /// service's primary device; the fused batch runs pinned to it.
    pub decision: Decision,
}

impl CoalesceKey {
    /// The key of one request on a service whose primary device is
    /// `spec`.
    pub fn of(spec: &DeviceSpec, req: &SolveRequest) -> Self {
        Self {
            n: req.payload.system_len(),
            elem_bytes: req.payload.elem_bytes(),
            decision: req.payload.decision(spec),
        }
    }
}

/// One request's slice of a fused batch.
#[derive(Debug, Clone)]
pub struct Member {
    /// Position of the request in the tick's working set.
    pub slot: usize,
    /// The request's id.
    pub id: u64,
    /// Modeled arrival of the request (µs).
    pub arrival_us: f64,
    /// First fused system index owned by this request.
    pub sys_start: usize,
    /// Number of systems the request contributed.
    pub sys_count: usize,
    /// Bytes of this request's solution download.
    pub solution_bytes: usize,
    /// The request's own storage layout — the solution scatters back
    /// in this order, whatever layout the fused batch solved in.
    pub layout: Layout,
}

/// A fused batch: compatible members concatenated in arrival order.
#[derive(Debug, Clone)]
pub struct CoalescedBatch {
    /// The compatibility key every member shares.
    pub key: CoalesceKey,
    /// Member slices, in arrival order; `sys_start` ranges tile
    /// `0..payload.num_systems()` exactly.
    pub members: Vec<Member>,
    /// The merged systems.
    pub payload: Payload,
}

/// Group `requests` (one tick's working set, in arrival order) into
/// fused batches, keyed as on a service whose primary device is
/// `spec`. Batches come out in first-seen order of their key. Fails
/// with [`SimError::InvalidPlan`] only if concatenation produces an
/// invalid batch, which a well-formed working set cannot.
pub fn coalesce(
    spec: &DeviceSpec,
    requests: &[SolveRequest],
) -> Result<Vec<CoalescedBatch>, SimError> {
    let mut batches: Vec<(CoalesceKey, Vec<usize>)> = Vec::new();
    for (slot, req) in requests.iter().enumerate() {
        let key = CoalesceKey::of(spec, req);
        match batches.iter_mut().find(|(k, _)| *k == key) {
            Some((_, slots)) => slots.push(slot),
            None => batches.push((key, vec![slot])),
        }
    }
    batches
        .into_iter()
        .map(|(key, slots)| merge(key, &slots, requests))
        .collect()
}

fn merge(
    key: CoalesceKey,
    slots: &[usize],
    requests: &[SolveRequest],
) -> Result<CoalescedBatch, SimError> {
    let mut members = Vec::with_capacity(slots.len());
    let mut sys_start = 0usize;
    for &slot in slots {
        let req = &requests[slot];
        let sys_count = req.payload.num_systems();
        let layout = match &req.payload {
            Payload::F32(b) => b.layout(),
            Payload::F64(b) => b.layout(),
        };
        members.push(Member {
            slot,
            id: req.id,
            arrival_us: req.arrival_us,
            sys_start,
            sys_count,
            solution_bytes: req.payload.solution_bytes(),
            layout,
        });
        sys_start += sys_count;
    }
    let invalid = |e| SimError::InvalidPlan(format!("coalescing n={}: {e}", key.n));
    let payload = match key.elem_bytes {
        4 => {
            let mut systems = Vec::with_capacity(sys_start);
            for &slot in slots {
                match &requests[slot].payload {
                    Payload::F32(b) => systems.extend(b.to_systems()),
                    Payload::F64(_) => unreachable!("key separates widths"),
                }
            }
            Payload::F32(SystemBatch::from_systems(systems).map_err(invalid)?)
        }
        _ => {
            let mut systems = Vec::with_capacity(sys_start);
            for &slot in slots {
                match &requests[slot].payload {
                    Payload::F64(b) => systems.extend(b.to_systems()),
                    Payload::F32(_) => unreachable!("key separates widths"),
                }
            }
            Payload::F64(SystemBatch::from_systems(systems).map_err(invalid)?)
        }
    };
    Ok(CoalescedBatch {
        key,
        members,
        payload,
    })
}
