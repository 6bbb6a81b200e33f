//! The coalescer: merge compatible queued requests into fused batches.
//!
//! Compatibility is precision and decision, plus exact geometry unless
//! the decision is the fused one-block-per-system pipeline. Requests
//! merge only when they share a scalar width — the kernels are
//! monomorphic in it — and the planner makes the same decision for
//! each of them solved alone ([`Payload::decision`]), so the fused
//! batch runs under that one pinned decision and every member gets
//! the bits its own solo solve would. Under the fused
//! one-block-per-system decision (Fig. 11(a), Section III-C) a block's
//! work depends only on its own system and `k`, so members of any row
//! counts share one ragged launch ([`tridiag_core::RaggedBatch`]): `n`
//! drops out of the key, and a tick issues one launch per precision
//! and `k`. Every other decision — `k = 0` p-Thomas, block groups, the
//! split pipeline — addresses systems by one `n` and still keys on it.
//! The device group is fixed per service, so it never splits a tick.
//! Merging preserves first-seen order: batches form in the order their
//! first member arrived, and members keep arrival order inside a
//! batch, so the fused system indices are deterministic.

use gpu_sim::{DeviceSpec, SimError};
use tridiag_core::{Layout, RaggedBatch, SystemBatch};
use tridiag_gpu::plan::cost::Decision;

use crate::request::{Payload, SolveRequest};

/// What makes two requests mergeable.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct CoalesceKey {
    /// Rows per system, or `None` when the decision is the fused
    /// one-block-per-system pipeline, whose launch takes a row count
    /// per system.
    pub n: Option<usize>,
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
        let decision = req.payload.decision(spec);
        Self {
            // The planner fuses only one block per system with k >= 1.
            n: (!decision.fused).then(|| req.payload.system_len()),
            elem_bytes: req.payload.elem_bytes(),
            decision,
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
    /// First element of the request's systems in the fused arrays.
    pub row_start: usize,
    /// Rows per system of the request.
    pub n: usize,
    /// Bytes of this request's solution download.
    pub solution_bytes: usize,
    /// The request's own storage layout — the solution scatters back
    /// in this order, whatever layout the fused batch solved in.
    pub layout: Layout,
}

/// A fused batch's systems, back to back, tagged by precision.
#[derive(Debug, Clone)]
pub enum FusedPayload {
    /// Single-precision systems.
    F32(RaggedBatch<f32>),
    /// Double-precision systems.
    F64(RaggedBatch<f64>),
}

impl FusedPayload {
    /// Number of systems.
    pub fn num_systems(&self) -> usize {
        match self {
            FusedPayload::F32(b) => b.num_systems(),
            FusedPayload::F64(b) => b.num_systems(),
        }
    }

    /// Rows of the longest system (every system's, when the members
    /// share `n`).
    pub fn system_len(&self) -> usize {
        match self {
            FusedPayload::F32(b) => b.max_len(),
            FusedPayload::F64(b) => b.max_len(),
        }
    }
}

/// A fused batch: compatible members concatenated in arrival order.
#[derive(Debug, Clone)]
pub struct CoalescedBatch {
    /// The compatibility key every member shares.
    pub key: CoalesceKey,
    /// Member slices, in arrival order; the `sys_start` ranges tile
    /// `0..payload.num_systems()` and the `row_start` ranges tile the
    /// fused arrays exactly.
    pub members: Vec<Member>,
    /// The merged systems.
    pub payload: FusedPayload,
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
    let (mut sys_start, mut row_start) = (0usize, 0usize);
    for &slot in slots {
        let req = &requests[slot];
        let (sys_count, n) = (req.payload.num_systems(), req.payload.system_len());
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
            row_start,
            n,
            solution_bytes: req.payload.solution_bytes(),
            layout,
        });
        sys_start += sys_count;
        row_start += sys_count * n;
    }
    let payload = match key.elem_bytes {
        4 => FusedPayload::F32(concat(slots, requests, |p| match p {
            Payload::F32(b) => Some(b),
            Payload::F64(_) => None,
        })?),
        _ => FusedPayload::F64(concat(slots, requests, |p| match p {
            Payload::F64(b) => Some(b),
            Payload::F32(_) => None,
        })?),
    };
    Ok(CoalescedBatch {
        key,
        members,
        payload,
    })
}

/// The systems of `requests[slots]`, back to back; `width` picks each
/// payload's batch at the key's precision.
fn concat<S: tridiag_core::Scalar>(
    slots: &[usize],
    requests: &[SolveRequest],
    width: impl Fn(&Payload) -> Option<&SystemBatch<S>>,
) -> Result<RaggedBatch<S>, SimError> {
    let invalid = |e: String| SimError::InvalidPlan(format!("coalescing: {e}"));
    let parts = slots
        .iter()
        .map(|&s| width(&requests[s].payload))
        .collect::<Option<Vec<_>>>()
        .ok_or_else(|| invalid("members of one key differ in precision".into()))?;
    RaggedBatch::concat(&parts).map_err(|e| invalid(e.to_string()))
}

#[cfg(test)]
mod tests {
    use super::*;
    use tridiag_core::generators::random_batch;

    fn req(id: u64, payload: Payload) -> SolveRequest {
        SolveRequest {
            id,
            arrival_us: id as f64,
            payload,
        }
    }

    fn f32_req(id: u64, m: usize, n: usize) -> SolveRequest {
        req(id, Payload::F32(random_batch(m, n, id)))
    }

    fn f64_req(id: u64, m: usize, n: usize) -> SolveRequest {
        req(id, Payload::F64(random_batch(m, n, id)))
    }

    /// Each batch's members, as request ids.
    fn ids(batches: &[CoalescedBatch]) -> Vec<Vec<u64>> {
        batches
            .iter()
            .map(|b| b.members.iter().map(|m| m.id).collect())
            .collect()
    }

    #[test]
    fn fused_requests_of_mixed_n_share_one_ragged_batch() {
        let spec = DeviceSpec::gtx480();
        let requests = [
            f32_req(0, 3, 128),
            f32_req(1, 1, 256),
            f32_req(2, 4, 512),
            f32_req(3, 2, 64),
        ];
        let batches = coalesce(&spec, &requests).unwrap();
        assert_eq!(ids(&batches), vec![vec![0, 1, 2, 3]]);
        let batch = &batches[0];
        assert!(batch.key.decision.fused && batch.key.n.is_none());
        let FusedPayload::F32(merged) = &batch.payload else {
            panic!("an f32 batch merged to another width");
        };
        // The members' system and row ranges tile the merged batch.
        let (mut sys, mut row) = (0, 0);
        for (mem, req) in batch.members.iter().zip(&requests) {
            assert_eq!((mem.sys_start, mem.row_start), (sys, row));
            assert_eq!(mem.n, req.payload.system_len());
            assert_eq!(merged.offsets()[mem.sys_start], mem.row_start);
            sys += mem.sys_count;
            row += mem.sys_count * mem.n;
        }
        assert_eq!((sys, row), (merged.num_systems(), merged.total_len()));
        assert_eq!(batch.payload.system_len(), 512);
    }

    #[test]
    fn pthomas_and_block_group_decisions_key_on_exact_n() {
        let spec = DeviceSpec::gtx480();
        // k = 0 p-Thomas at M = 2048, both n.
        let pthomas = [
            f64_req(0, 2048, 64),
            f64_req(1, 2048, 32),
            f64_req(2, 2048, 64),
        ];
        // Block groups of 8 at k = 6, both n.
        let groups = [
            f64_req(0, 4, 4096),
            f64_req(1, 1, 2048),
            f64_req(2, 4, 4096),
        ];
        for requests in [&pthomas, &groups] {
            let keys: Vec<CoalesceKey> =
                requests.iter().map(|r| CoalesceKey::of(&spec, r)).collect();
            assert_eq!(keys[0].decision, keys[1].decision);
            assert!(!keys[0].decision.fused);
            assert_eq!(keys[0].n, Some(requests[0].payload.system_len()));
            let batches = coalesce(&spec, requests).unwrap();
            assert_eq!(ids(&batches), vec![vec![0, 2], vec![1]]);
        }
    }

    #[test]
    fn split_decisions_key_on_exact_n() {
        // Too few registers for the fused kernel's 2^k threads: the
        // planner splits tiled PCR from p-Thomas.
        let mut spec = DeviceSpec::gtx480();
        spec.registers_per_sm = 64;
        let requests = [
            f64_req(0, 64, 128),
            f64_req(1, 64, 256),
            f64_req(2, 64, 128),
        ];
        let keys: Vec<CoalesceKey> = requests.iter().map(|r| CoalesceKey::of(&spec, r)).collect();
        assert_eq!(keys[0].decision, keys[1].decision);
        assert!(keys[0].decision.k > 0 && !keys[0].decision.fused);
        let batches = coalesce(&spec, &requests).unwrap();
        assert_eq!(ids(&batches), vec![vec![0, 2], vec![1]]);
    }

    #[test]
    fn precision_or_k_apart_never_merge() {
        let spec = DeviceSpec::gtx480();
        // f32 and f64 fused at one n; f64 at k = 5 (M = 1) and k = 3
        // (M = 64) at one n.
        let requests = [
            f32_req(0, 1, 64),
            f64_req(1, 1, 64),
            f64_req(2, 64, 64),
            f32_req(3, 2, 512),
            f64_req(4, 3, 256),
        ];
        let keys: Vec<CoalesceKey> = requests.iter().map(|r| CoalesceKey::of(&spec, r)).collect();
        assert!(keys.iter().all(|k| k.decision.fused && k.n.is_none()));
        assert_ne!(keys[1].decision.k, keys[2].decision.k);
        let batches = coalesce(&spec, &requests).unwrap();
        assert_eq!(ids(&batches), vec![vec![0, 3], vec![1, 4], vec![2]]);
    }
}
