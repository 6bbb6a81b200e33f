//! Plan-level static verifier: abstract interpretation of a
//! [`SolvePlan`]'s step sequence.
//!
//! This module is the one place plan invariants are checked: the
//! executors gate on it before any kernel launches, and the plan-JSON
//! validators check only a serialized document's shape. It walks the
//! step sequence with an abstract machine whose state is, per slot,
//! "created? written? last used where?", and certifies
//!
//! - **skeleton** — at least one buffer, none of zero elements, at
//!   least one launch and none with an empty grid, exactly one download
//!   ([`FindingKind::MalformedPlan`]);
//! - **dataflow** — every slot a launch binds or a download reads was
//!   `Upload`ed/`Alloc`ed first ([`FindingKind::UseBeforeDef`]), and
//!   `Alloc`-only scratch is written by some kernel before anything
//!   reads it ([`FindingKind::UnwrittenScratchRead`]), using the
//!   per-kernel signatures [`crate::plan::KernelOp::reads`],
//!   [`crate::plan::KernelOp::writes`] and
//!   [`crate::plan::KernelOp::scratch`]; a launch's `c'`/`d'` scratch
//!   dies with it, so it is unwritten again once the launch returns;
//! - **slot hygiene** — duplicate creations
//!   ([`FindingKind::DuplicateDef`]), slots that are declared or
//!   created but feed nothing ([`FindingKind::DanglingSlot`]), and
//!   bindings past the buffer table
//!   ([`FindingKind::SlotOutOfRange`]);
//! - **layout pairing** — exactly one `Convert` before the uploads and
//!   one `ConvertBack` after the download, both matching the plan's
//!   device layout ([`FindingKind::LayoutMismatch`]); plans whose host
//!   layout equals the device layout legitimately elide both steps;
//! - **aliasing** — no slot bound as both input and output of a single
//!   launch, and no output bound twice
//!   ([`FindingKind::AliasHazard`]);
//! - **read-only inputs** — no launch writes an `Upload`ed slot: the
//!   executor borrows an upload that needs no change of layout straight
//!   from the caller's batch, read-only ([`FindingKind::InputWrite`]);
//! - **ragged geometry** — a fused launch over per-system row counts
//!   has one block per system, every count at least `2^k`, the plan's
//!   `n` the longest count, and every buffer it binds `Σ rows` long
//!   ([`FindingKind::MalformedPlan`]);
//! - **memory** — a liveness-based high-water mark: buffers become
//!   resident at their `Upload`/`Alloc` step and die after their last
//!   use, and the exact peak must fit the device's global memory
//!   ([`FindingKind::PeakMemoryOverflow`]). [`SolvePlan::build`]
//!   delegates its plan-time OOM check to the same computation
//!   ([`peak_resident_bytes`]), so there is one memory model.
//!
//! The verifier also emits a [`PlanPrediction`] — bytes H2D/D2H per
//! step, peak resident bytes, launch counts per kernel — that
//! [`crate::executor::PlanExecutor`] cross-checks **exactly** against
//! the stats of the real run (the same "predicted == measured"
//! discipline the executor's closed-form counters keep with the
//! per-lane ones). [`verify_sharded_plan`] and
//! [`verify_distributed_plan`] extend all of this across devices, both
//! into one [`GroupVerifyReport`]: every embedded plan is verified
//! against *its* device, plus the cross-device invariants one shared
//! checker enforces (one part per device, contiguous disjoint balanced
//! coverage, per-part geometry) and each plan kind's own (pinned
//! `k`/mapping/fused/layout for shards; interface exchange and the
//! reduced system for chunks).

use crate::distributed::{valid_interior_m, DistributedPlan};
use crate::plan::{
    ragged, KernelOp, LaunchStep, Partition, ShardedPlan, Slot, SolvePlan, Step, TileWalk,
};
use gpu_sim::{DeviceGroup, DeviceSpec, Json, Result, SimError};
use std::fmt;

/// Diagnostic class of a [`PlanFinding`] — the negative suite proves
/// every class fires on a corrupted plan.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum FindingKind {
    /// A launch or download touches a slot before any step creates it.
    UseBeforeDef,
    /// A read of `Alloc`-only scratch that no prior step wrote.
    UnwrittenScratchRead,
    /// A slot is created (uploaded/allocated) more than once.
    DuplicateDef,
    /// A slot is declared or created but never used by any launch or
    /// download.
    DanglingSlot,
    /// `Convert`/`ConvertBack` missing, duplicated, misplaced, or not
    /// matching the plan's device layout.
    LayoutMismatch,
    /// A slot bound as both input and output of one launch, or bound
    /// twice as output.
    AliasHazard,
    /// A launch writes a slot that an `Upload` step created. Uploads
    /// are read-only device inputs (the executor may borrow the
    /// caller's array for one), unlike [`FindingKind::AliasHazard`],
    /// which covers one launch's own inputs only.
    InputWrite,
    /// The liveness-based peak resident bytes exceed the device's
    /// global memory.
    PeakMemoryOverflow,
    /// A step references a slot past the buffer table.
    SlotOutOfRange,
    /// Shards do not tile the batch contiguously, disjointly, and
    /// balanced.
    ShardPartition,
    /// A shard contradicts the pinned reference decisions or the group
    /// geometry.
    ShardConsistency,
    /// Distributed chunks do not tile the system's rows contiguously,
    /// disjointly, and balanced, or a chunk is too small to own its two
    /// interface rows.
    ChunkPartition,
    /// A distributed chunk contradicts the group geometry or its
    /// interior plan's geometry does not match the chunk.
    ChunkConsistency,
    /// The interface exchange is broken: a chunk's interface
    /// coefficients would be used before any interior elimination
    /// defines them, or an interior plan exists with no interior rows.
    InterfaceExchange,
    /// The reduced interface system is missing or its size does not
    /// match `2·D` interface unknowns.
    ReducedSystem,
    /// The plan's skeleton is degenerate: no buffers, a zero-element
    /// buffer, a launch with an empty grid, no launch at all, or other
    /// than exactly one download.
    MalformedPlan,
}

impl FindingKind {
    /// Stable kebab-case label (used in JSON and CLI output).
    pub fn label(self) -> &'static str {
        match self {
            FindingKind::UseBeforeDef => "use-before-def",
            FindingKind::UnwrittenScratchRead => "unwritten-scratch-read",
            FindingKind::DuplicateDef => "duplicate-def",
            FindingKind::DanglingSlot => "dangling-slot",
            FindingKind::LayoutMismatch => "layout-mismatch",
            FindingKind::AliasHazard => "alias-hazard",
            FindingKind::InputWrite => "input-write",
            FindingKind::PeakMemoryOverflow => "peak-memory-overflow",
            FindingKind::SlotOutOfRange => "slot-out-of-range",
            FindingKind::ShardPartition => "shard-partition",
            FindingKind::ShardConsistency => "shard-consistency",
            FindingKind::ChunkPartition => "chunk-partition",
            FindingKind::ChunkConsistency => "chunk-consistency",
            FindingKind::InterfaceExchange => "interface-exchange",
            FindingKind::ReducedSystem => "reduced-system",
            FindingKind::MalformedPlan => "malformed-plan",
        }
    }
}

impl fmt::Display for FindingKind {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        f.write_str(self.label())
    }
}

/// One verifier diagnostic, attributed to the step (and, under
/// [`verify_sharded_plan`], the shard) that caused it.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct PlanFinding {
    /// Diagnostic class.
    pub kind: FindingKind,
    /// Step index in the plan's step sequence, when attributable.
    pub step: Option<usize>,
    /// Shard index, when the finding belongs to one shard of a
    /// [`ShardedPlan`].
    pub shard: Option<usize>,
    /// Chunk index, when the finding belongs to one chunk of a
    /// [`crate::distributed::DistributedPlan`].
    pub chunk: Option<usize>,
    /// Human-readable detail.
    pub message: String,
}

impl fmt::Display for PlanFinding {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        let scope = match (self.shard, self.chunk) {
            (Some(sh), _) => Some(format!("shard {sh}")),
            (None, Some(ch)) => Some(format!("chunk {ch}")),
            (None, None) => None,
        };
        match (scope, self.step) {
            (Some(sc), Some(st)) => {
                write!(f, "{sc}, step {st}: {}: {}", self.kind, self.message)
            }
            (Some(sc), None) => write!(f, "{sc}: {}: {}", self.kind, self.message),
            (None, Some(st)) => write!(f, "step {st}: {}: {}", self.kind, self.message),
            (None, None) => write!(f, "{}: {}", self.kind, self.message),
        }
    }
}

/// Lifetime of one buffer slot: the step that creates it and the last
/// step that uses it (launch binding or download). The executor frees
/// each buffer right after its `last_use_step`, which is what makes the
/// static peak and the dynamic arena peak coincide exactly.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Default)]
pub struct SlotLiveness {
    /// Step that uploads or allocates the slot (first creation wins).
    pub def_step: Option<usize>,
    /// Last step that binds or downloads the slot.
    pub last_use_step: Option<usize>,
}

/// Static resource certificate for a plan: what the executor *must*
/// observe if the plan and the machine model agree.
#[derive(Debug, Clone, PartialEq, Eq, Default)]
pub struct PlanPrediction {
    /// `(step index, bytes)` per host-to-device upload, in step order.
    pub h2d: Vec<(usize, usize)>,
    /// `(step index, bytes)` per device-to-host download, in step order.
    pub d2h: Vec<(usize, usize)>,
    /// Total upload bytes.
    pub h2d_total_bytes: usize,
    /// Total download bytes.
    pub d2h_total_bytes: usize,
    /// Liveness-based memory high-water mark.
    pub peak_resident_bytes: usize,
    /// Step at which the peak is reached (an `Upload`/`Alloc` step).
    pub peak_step: Option<usize>,
    /// `(kernel name, launch count)` in first-launch order.
    pub launches: Vec<(&'static str, usize)>,
}

impl PlanPrediction {
    /// Compare this certificate against the stats of a real run.
    /// Returns one message per discrepancy (empty = exact match).
    pub fn cross_check(&self, dynamic: &DynamicPlanStats) -> Vec<String> {
        let mut out = Vec::new();
        diff_transfers("H2D", &self.h2d, &dynamic.h2d, &mut out);
        diff_transfers("D2H", &self.d2h, &dynamic.d2h, &mut out);
        if self.peak_resident_bytes != dynamic.peak_resident_bytes {
            out.push(format!(
                "peak resident bytes: predicted {} != measured {}",
                self.peak_resident_bytes, dynamic.peak_resident_bytes
            ));
        }
        if self.launches.len() != dynamic.launches.len() {
            out.push(format!(
                "launches: predicted {} kernel(s) != measured {}",
                self.launches.len(),
                dynamic.launches.len()
            ));
        }
        for (&(pn, pc), &(mn, mc)) in self.launches.iter().zip(&dynamic.launches) {
            if pn != mn || pc != mc {
                out.push(format!(
                    "launches: predicted {pn} x{pc} != measured {mn} x{mc}"
                ));
            }
        }
        out
    }

    /// Serialize as a JSON object.
    pub fn to_json(&self) -> Json {
        let xfer = |v: &[(usize, usize)]| {
            Json::Arr(
                v.iter()
                    .map(|&(step, bytes)| {
                        Json::Obj(vec![
                            ("step".into(), Json::num(step as f64)),
                            ("bytes".into(), Json::num(bytes as f64)),
                        ])
                    })
                    .collect(),
            )
        };
        Json::Obj(vec![
            (
                "h2d_total_bytes".into(),
                Json::num(self.h2d_total_bytes as f64),
            ),
            (
                "d2h_total_bytes".into(),
                Json::num(self.d2h_total_bytes as f64),
            ),
            (
                "peak_resident_bytes".into(),
                Json::num(self.peak_resident_bytes as f64),
            ),
            ("peak_step".into(), opt_num(self.peak_step)),
            ("h2d".into(), xfer(&self.h2d)),
            ("d2h".into(), xfer(&self.d2h)),
            (
                "launches".into(),
                Json::Arr(
                    self.launches
                        .iter()
                        .map(|&(name, count)| {
                            Json::Obj(vec![
                                ("kernel".into(), Json::str(name)),
                                ("count".into(), Json::num(count as f64)),
                            ])
                        })
                        .collect(),
                ),
            ),
        ])
    }
}

/// What the executor actually observed while running a plan — the
/// dynamic half of the [`PlanPrediction`] cross-check.
#[derive(Debug, Clone, PartialEq, Eq, Default)]
pub struct DynamicPlanStats {
    /// `(step index, bytes)` per upload actually performed.
    pub h2d: Vec<(usize, usize)>,
    /// `(step index, bytes)` per download actually performed.
    pub d2h: Vec<(usize, usize)>,
    /// Peak resident bytes reported by the device memory arena.
    pub peak_resident_bytes: usize,
    /// `(kernel name, launch count)` in first-launch order.
    pub launches: Vec<(&'static str, usize)>,
}

fn diff_transfers(
    label: &str,
    pred: &[(usize, usize)],
    meas: &[(usize, usize)],
    out: &mut Vec<String>,
) {
    if pred.len() != meas.len() {
        out.push(format!(
            "{label}: predicted {} transfer(s) != measured {}",
            pred.len(),
            meas.len()
        ));
    }
    for (&(ps, pb), &(ms, mb)) in pred.iter().zip(meas) {
        if ps != ms || pb != mb {
            out.push(format!(
                "{label}: predicted {pb} bytes at step {ps} != measured {mb} bytes at step {ms}"
            ));
        }
    }
}

fn opt_num(v: Option<usize>) -> Json {
    match v {
        Some(n) => Json::num(n as f64),
        None => Json::Null,
    }
}

/// Result of statically verifying one [`SolvePlan`] against one device.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct VerifyReport {
    /// Device the plan was certified against.
    pub device: &'static str,
    /// Every diagnostic found (empty = certified clean).
    pub findings: Vec<PlanFinding>,
    /// The static resource certificate the executor cross-checks.
    pub prediction: PlanPrediction,
    /// Per-slot lifetimes (indexed by slot), driving executor frees.
    pub liveness: Vec<SlotLiveness>,
}

impl VerifyReport {
    /// `true` when no diagnostic fired.
    pub fn is_clean(&self) -> bool {
        self.findings.is_empty()
    }

    /// Serialize as a JSON object.
    pub fn to_json(&self) -> Json {
        Json::Obj(vec![
            ("device".into(), Json::str(self.device)),
            ("clean".into(), Json::Bool(self.is_clean())),
            (
                "findings".into(),
                Json::Arr(self.findings.iter().map(finding_json).collect()),
            ),
            ("prediction".into(), self.prediction.to_json()),
            (
                "liveness".into(),
                Json::Arr(
                    self.liveness
                        .iter()
                        .enumerate()
                        .map(|(slot, lv)| {
                            Json::Obj(vec![
                                ("slot".into(), Json::num(slot as f64)),
                                ("def_step".into(), opt_num(lv.def_step)),
                                ("last_use_step".into(), opt_num(lv.last_use_step)),
                            ])
                        })
                        .collect(),
                ),
            ),
        ])
    }
}

fn finding_json(f: &PlanFinding) -> Json {
    Json::Obj(vec![
        ("kind".into(), Json::str(f.kind.label())),
        ("step".into(), opt_num(f.step)),
        ("shard".into(), opt_num(f.shard)),
        ("chunk".into(), opt_num(f.chunk)),
        ("message".into(), Json::str(f.message.clone())),
    ])
}

impl fmt::Display for VerifyReport {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        if self.is_clean() {
            let launches: usize = self.prediction.launches.iter().map(|&(_, c)| c).sum();
            write!(
                f,
                "verify {}: clean (peak resident {} bytes, {} B H2D, {} B D2H, {} launch(es))",
                self.device,
                self.prediction.peak_resident_bytes,
                self.prediction.h2d_total_bytes,
                self.prediction.d2h_total_bytes,
                launches
            )
        } else {
            write!(
                f,
                "verify {}: {} finding(s)",
                self.device,
                self.findings.len()
            )?;
            for finding in &self.findings {
                write!(f, "\n  {finding}")?;
            }
            Ok(())
        }
    }
}

/// Result of verifying a multi-device plan — a [`ShardedPlan`] or a
/// [`DistributedPlan`]: the cross-device findings plus one labelled
/// [`VerifyReport`] per embedded single-device plan, each certified
/// against the device it runs on.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct GroupVerifyReport {
    /// What was verified: `"sharded"` or `"distributed"`.
    pub kind: &'static str,
    /// Cross-device findings (partition, consistency, interface
    /// dataflow, reduced-system geometry), attributed to a shard or
    /// chunk where possible.
    pub findings: Vec<PlanFinding>,
    /// `(label, report)` per embedded plan, in device order: `shard i`
    /// per shard; `chunk i` per interior plan then `reduced`; or
    /// `identity` alone on the distributed `D == 1` path.
    pub plans: Vec<(String, VerifyReport)>,
}

impl GroupVerifyReport {
    /// `true` when there are no cross-device findings and every
    /// embedded plan is clean.
    pub fn is_clean(&self) -> bool {
        self.findings.is_empty() && self.plans.iter().all(|(_, r)| r.is_clean())
    }

    /// Every finding as a display string, embedded-plan findings
    /// prefixed with the plan's label.
    pub fn messages(&self) -> Vec<String> {
        let mut out: Vec<String> = self.findings.iter().map(|f| f.to_string()).collect();
        for (label, r) in &self.plans {
            out.extend(r.findings.iter().map(|f| format!("{label}: {f}")));
        }
        out
    }

    /// `Ok` when clean, else [`SimError::InvalidPlan`] listing every
    /// finding — the gate both multi-device executors apply before
    /// anything runs.
    pub fn into_result(self) -> Result<()> {
        if self.is_clean() {
            return Ok(());
        }
        Err(SimError::InvalidPlan(format!(
            "{} plan failed static verification: {}",
            self.kind,
            self.messages().join("; ")
        )))
    }

    /// Serialize as a JSON object.
    pub fn to_json(&self) -> Json {
        Json::Obj(vec![
            ("kind".into(), Json::str(self.kind)),
            ("clean".into(), Json::Bool(self.is_clean())),
            (
                "findings".into(),
                Json::Arr(self.findings.iter().map(finding_json).collect()),
            ),
            (
                "plans".into(),
                Json::Arr(
                    self.plans
                        .iter()
                        .map(|(label, r)| {
                            Json::Obj(vec![
                                ("label".into(), Json::str(label.clone())),
                                ("report".into(), r.to_json()),
                            ])
                        })
                        .collect(),
                ),
            ),
        ])
    }
}

impl fmt::Display for GroupVerifyReport {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        if self.is_clean() {
            write!(
                f,
                "verify {}: clean across {} plan(s)",
                self.kind,
                self.plans.len()
            )?;
            for (label, r) in &self.plans {
                write!(f, "\n  {label}: {r}")?;
            }
        } else {
            let msgs = self.messages();
            write!(f, "verify {}: {} finding(s)", self.kind, msgs.len())?;
            for m in &msgs {
                write!(f, "\n  {m}")?;
            }
        }
        Ok(())
    }
}

/// Per-slot lifetimes of `plan` (first creation, last binding or
/// download), tolerant of malformed plans (out-of-range slots are
/// ignored here and reported by [`verify_plan`]).
pub fn slot_liveness(plan: &SolvePlan) -> Vec<SlotLiveness> {
    let n = plan.buffers.len();
    let mut lv = vec![SlotLiveness::default(); n];
    for (i, step) in plan.steps.iter().enumerate() {
        match step {
            Step::Upload { slot, .. } | Step::Alloc { slot } => {
                if *slot < n && lv[*slot].def_step.is_none() {
                    lv[*slot].def_step = Some(i);
                }
            }
            Step::Launch(ls) => {
                for s in ls.op.binds() {
                    if s < n {
                        lv[s].last_use_step = Some(i);
                    }
                }
            }
            Step::Download { slot } => {
                if *slot < n {
                    lv[*slot].last_use_step = Some(i);
                }
            }
            Step::Convert { .. } | Step::ConvertBack { .. } => {}
        }
    }
    lv
}

/// Liveness-based memory high-water mark of `plan`: each buffer is
/// resident from its `Upload`/`Alloc` step until just after its last
/// use. Returns `(peak bytes, step reaching the peak)`. This is the
/// single memory model: [`SolvePlan::build`]'s OOM check and the
/// verifier's [`FindingKind::PeakMemoryOverflow`] both use it, and the
/// executor's arena reproduces it exactly by freeing buffers after
/// their last use.
pub fn peak_resident_bytes(plan: &SolvePlan) -> (usize, Option<usize>) {
    let lv = slot_liveness(plan);
    let nslots = plan.buffers.len();
    let bytes = |s: Slot| plan.buffers[s].elems * plan.elem_bytes;
    let mut ends: Vec<Vec<Slot>> = vec![Vec::new(); plan.steps.len()];
    for (s, l) in lv.iter().enumerate() {
        if l.def_step.is_some() {
            if let Some(last) = l.last_use_step {
                ends[last].push(s);
            }
        }
    }
    let mut resident = 0usize;
    let mut peak = 0usize;
    let mut peak_step = None;
    for (i, step) in plan.steps.iter().enumerate() {
        if let Step::Upload { slot, .. } | Step::Alloc { slot } = step {
            if *slot < nslots && lv[*slot].def_step == Some(i) {
                resident += bytes(*slot);
                if resident > peak {
                    peak = resident;
                    peak_step = Some(i);
                }
            }
        }
        for &s in &ends[i] {
            resident = resident.saturating_sub(bytes(s));
        }
    }
    (peak, peak_step)
}

/// Statically verify `plan` against `spec`. Always returns a full
/// report (findings, prediction, liveness) — callers decide whether
/// findings are fatal.
pub fn verify_plan(spec: &DeviceSpec, plan: &SolvePlan) -> VerifyReport {
    let nslots = plan.buffers.len();
    let name = |s: Slot| plan.buffers.get(s).map(|b| b.name).unwrap_or("?");
    let bytes = |s: Slot| plan.buffers[s].elems * plan.elem_bytes;

    #[derive(Clone, Copy, Default)]
    struct SlotState {
        created: Option<usize>,
        uploaded: bool,
        written: bool,
        used: bool,
    }
    let mut slots = vec![SlotState::default(); nslots];
    let mut findings: Vec<PlanFinding> = Vec::new();
    let push = |findings: &mut Vec<PlanFinding>,
                kind: FindingKind,
                step: Option<usize>,
                message: String| {
        findings.push(PlanFinding {
            kind,
            step,
            shard: None,
            chunk: None,
            message,
        });
    };

    let mut convert_at: Option<usize> = None;
    let mut convert_back_at: Option<usize> = None;
    let mut download_at: Option<usize> = None;
    let mut h2d: Vec<(usize, usize)> = Vec::new();
    let mut d2h: Vec<(usize, usize)> = Vec::new();
    let mut launches: Vec<(&'static str, usize)> = Vec::new();

    if nslots == 0 {
        push(
            &mut findings,
            FindingKind::MalformedPlan,
            None,
            "plan declares no buffers".into(),
        );
    }
    for (i, step) in plan.steps.iter().enumerate() {
        match step {
            Step::Convert { to } => {
                if let Some(first) = convert_at {
                    push(
                        &mut findings,
                        FindingKind::LayoutMismatch,
                        Some(i),
                        format!("second layout conversion (first at step {first})"),
                    );
                }
                if *to != plan.layout {
                    push(
                        &mut findings,
                        FindingKind::LayoutMismatch,
                        Some(i),
                        format!(
                            "converts to {to:?} but the plan's device layout is {:?}",
                            plan.layout
                        ),
                    );
                }
                convert_at.get_or_insert(i);
            }
            Step::Upload { slot, source } => {
                // An elided plan (host layout == device layout) uploads
                // the caller's batch directly, with no Convert step.
                if convert_at.is_none() && plan.host_layout != plan.layout {
                    push(
                        &mut findings,
                        FindingKind::LayoutMismatch,
                        Some(i),
                        format!(
                            "uploads {} before the batch is converted to the device layout",
                            source.label()
                        ),
                    );
                }
                if *slot >= nslots {
                    push(
                        &mut findings,
                        FindingKind::SlotOutOfRange,
                        Some(i),
                        format!(
                            "upload targets slot {slot} but only {nslots} buffers are declared"
                        ),
                    );
                } else if let Some(prev) = slots[*slot].created {
                    push(
                        &mut findings,
                        FindingKind::DuplicateDef,
                        Some(i),
                        format!(
                            "slot {slot} ({}) was already created at step {prev}",
                            name(*slot)
                        ),
                    );
                } else {
                    slots[*slot].created = Some(i);
                    slots[*slot].uploaded = true;
                    slots[*slot].written = true;
                    h2d.push((i, bytes(*slot)));
                }
            }
            Step::Alloc { slot } => {
                if *slot >= nslots {
                    push(
                        &mut findings,
                        FindingKind::SlotOutOfRange,
                        Some(i),
                        format!("alloc targets slot {slot} but only {nslots} buffers are declared"),
                    );
                } else if let Some(prev) = slots[*slot].created {
                    push(
                        &mut findings,
                        FindingKind::DuplicateDef,
                        Some(i),
                        format!(
                            "slot {slot} ({}) was already created at step {prev}",
                            name(*slot)
                        ),
                    );
                } else {
                    slots[*slot].created = Some(i);
                }
            }
            Step::Launch(ls) => {
                if ls.grid_blocks == 0 || ls.threads_per_block == 0 {
                    push(
                        &mut findings,
                        FindingKind::MalformedPlan,
                        Some(i),
                        format!(
                            "{} launches an empty grid ({} blocks x {} threads)",
                            ls.name, ls.grid_blocks, ls.threads_per_block
                        ),
                    );
                }
                let reads = ls.op.reads();
                let scratch = ls.op.scratch();
                // Outputs, then the launch-private scratch: both are
                // stores, but only outputs stay written after the launch.
                let writes: Vec<Slot> = ls.op.writes().into_iter().chain(scratch.clone()).collect();
                for &s in &reads {
                    if s >= nslots {
                        push(
                            &mut findings,
                            FindingKind::SlotOutOfRange,
                            Some(i),
                            format!(
                                "{} binds input slot {s} but only {nslots} buffers are declared",
                                ls.name
                            ),
                        );
                        continue;
                    }
                    match slots[s].created {
                        None => push(
                            &mut findings,
                            FindingKind::UseBeforeDef,
                            Some(i),
                            format!(
                                "{} reads slot {s} ({}) before it is created",
                                ls.name,
                                name(s)
                            ),
                        ),
                        Some(_) if !slots[s].written => push(
                            &mut findings,
                            FindingKind::UnwrittenScratchRead,
                            Some(i),
                            format!(
                                "{} reads slot {s} ({}): allocated scratch no prior step wrote",
                                ls.name,
                                name(s)
                            ),
                        ),
                        Some(_) => {}
                    }
                    slots[s].used = true;
                }
                for (wi, &s) in writes.iter().enumerate() {
                    if s >= nslots {
                        push(
                            &mut findings,
                            FindingKind::SlotOutOfRange,
                            Some(i),
                            format!(
                                "{} binds output slot {s} but only {nslots} buffers are declared",
                                ls.name
                            ),
                        );
                        continue;
                    }
                    if slots[s].created.is_none() {
                        push(
                            &mut findings,
                            FindingKind::UseBeforeDef,
                            Some(i),
                            format!(
                                "{} writes slot {s} ({}) before it is created",
                                ls.name,
                                name(s)
                            ),
                        );
                    }
                    if reads.contains(&s) {
                        push(
                            &mut findings,
                            FindingKind::AliasHazard,
                            Some(i),
                            format!(
                                "{} binds slot {s} ({}) as both input and output",
                                ls.name,
                                name(s)
                            ),
                        );
                    }
                    if slots[s].uploaded {
                        push(
                            &mut findings,
                            FindingKind::InputWrite,
                            Some(i),
                            format!(
                                "{} writes slot {s} ({}), an uploaded read-only input",
                                ls.name,
                                name(s)
                            ),
                        );
                    }
                    if writes[..wi].contains(&s) {
                        push(
                            &mut findings,
                            FindingKind::AliasHazard,
                            Some(i),
                            format!(
                                "{} writes slot {s} ({}) through two bindings",
                                ls.name,
                                name(s)
                            ),
                        );
                    }
                    slots[s].used = true;
                    if slots[s].created.is_some() {
                        slots[s].written = !scratch.contains(&s);
                    }
                }
                for msg in ragged_launch_problems(plan, ls) {
                    push(&mut findings, FindingKind::MalformedPlan, Some(i), msg);
                }
                match launches.iter_mut().find(|(n, _)| *n == ls.name) {
                    Some((_, c)) => *c += 1,
                    None => launches.push((ls.name, 1)),
                }
            }
            Step::Download { slot } => {
                if let Some(first) = download_at {
                    push(
                        &mut findings,
                        FindingKind::MalformedPlan,
                        Some(i),
                        format!("second download (first at step {first})"),
                    );
                }
                download_at.get_or_insert(i);
                if *slot >= nslots {
                    push(
                        &mut findings,
                        FindingKind::SlotOutOfRange,
                        Some(i),
                        format!(
                            "download reads slot {slot} but only {nslots} buffers are declared"
                        ),
                    );
                } else {
                    match slots[*slot].created {
                        None => push(
                            &mut findings,
                            FindingKind::UseBeforeDef,
                            Some(i),
                            format!(
                                "downloads slot {slot} ({}) before it is created",
                                name(*slot)
                            ),
                        ),
                        Some(_) if !slots[*slot].written => push(
                            &mut findings,
                            FindingKind::UnwrittenScratchRead,
                            Some(i),
                            format!(
                                "downloads slot {slot} ({}) which no step wrote",
                                name(*slot)
                            ),
                        ),
                        Some(_) => {}
                    }
                    slots[*slot].used = true;
                    d2h.push((i, bytes(*slot)));
                }
            }
            Step::ConvertBack { from } => {
                if let Some(first) = convert_back_at {
                    push(
                        &mut findings,
                        FindingKind::LayoutMismatch,
                        Some(i),
                        format!("second convert-back (first at step {first})"),
                    );
                }
                if download_at.is_none() {
                    push(
                        &mut findings,
                        FindingKind::LayoutMismatch,
                        Some(i),
                        "convert-back before the solution is downloaded".into(),
                    );
                }
                if *from != plan.layout {
                    push(
                        &mut findings,
                        FindingKind::LayoutMismatch,
                        Some(i),
                        format!(
                            "converts back from {from:?} but the device layout is {:?}",
                            plan.layout
                        ),
                    );
                }
                convert_back_at.get_or_insert(i);
            }
        }
    }

    if launches.is_empty() {
        push(
            &mut findings,
            FindingKind::MalformedPlan,
            None,
            "plan schedules no kernel launches".into(),
        );
    }
    if download_at.is_none() {
        push(
            &mut findings,
            FindingKind::MalformedPlan,
            None,
            "plan never downloads the solution".into(),
        );
    }
    // Conversion pairing is only required when the caller's layout
    // differs from the device layout; elided plans legitimately have
    // neither step (the download already is the caller's layout).
    if plan.host_layout != plan.layout {
        if convert_at.is_none() {
            push(
                &mut findings,
                FindingKind::LayoutMismatch,
                None,
                "plan never converts the batch to the device layout".into(),
            );
        }
        if convert_back_at.is_none() {
            push(
                &mut findings,
                FindingKind::LayoutMismatch,
                None,
                "plan never converts the solution back to the caller's layout".into(),
            );
        }
    }
    for (s, st) in slots.iter().enumerate() {
        if plan.buffers[s].elems == 0 {
            push(
                &mut findings,
                FindingKind::MalformedPlan,
                st.created,
                format!("slot {s} ({}) has zero elements", name(s)),
            );
        }
        match st.created {
            Some(def) if !st.used => push(
                &mut findings,
                FindingKind::DanglingSlot,
                Some(def),
                format!(
                    "slot {s} ({}) is created but never bound by any launch or download",
                    name(s)
                ),
            ),
            None => push(
                &mut findings,
                FindingKind::DanglingSlot,
                None,
                format!("slot {s} ({}) is declared but never created", name(s)),
            ),
            Some(_) => {}
        }
    }

    let liveness = slot_liveness(plan);
    let (peak, peak_step) = peak_resident_bytes(plan);
    if peak > spec.global_mem_bytes {
        push(
            &mut findings,
            FindingKind::PeakMemoryOverflow,
            peak_step,
            format!(
                "peak resident device memory {peak} bytes exceeds {} global memory \
                 ({} bytes) for m = {}, n = {} at {}",
                spec.name, spec.global_mem_bytes, plan.m, plan.n, plan.precision
            ),
        );
    }

    let prediction = PlanPrediction {
        h2d_total_bytes: h2d.iter().map(|&(_, b)| b).sum(),
        d2h_total_bytes: d2h.iter().map(|&(_, b)| b).sum(),
        h2d,
        d2h,
        peak_resident_bytes: peak,
        peak_step,
        launches,
    };
    VerifyReport {
        device: spec.name,
        findings,
        prediction,
        liveness,
    }
}

/// What is wrong with a fused launch over per-system row counts: the
/// grid must be one block per system of the plan, every count at least
/// the `2^k` rows of its PCR stage, the plan's and the launch's `n` the
/// longest count, and every buffer the launch binds exactly `Σ rows`
/// elements. Uniform launches have nothing to check here.
fn ragged_launch_problems(plan: &SolvePlan, ls: &LaunchStep) -> Vec<String> {
    let KernelOp::Fused {
        n,
        k,
        m,
        rows: Some(rows),
        ..
    } = &ls.op
    else {
        return Vec::new();
    };
    let mut out = Vec::new();
    let systems = rows.len();
    if (ls.grid_blocks, *m, plan.m) != (systems, systems, systems) {
        out.push(format!(
            "{} launches {} blocks for m = {m} (plan m = {}) but lists {systems} systems",
            ls.name, ls.grid_blocks, plan.m
        ));
    }
    let longest = rows.iter().copied().max().unwrap_or(0);
    if (*n, plan.n) != (longest, longest) {
        out.push(format!(
            "{} has n = {n} (plan n = {}) but its longest system has {longest} rows",
            ls.name, plan.n
        ));
    }
    if let Some((sys, r)) = rows.iter().enumerate().find(|(_, &r)| r < 1 << k) {
        out.push(format!(
            "{} system {sys} has {r} rows, fewer than 2^k = {}",
            ls.name,
            1usize << k
        ));
    }
    let total: usize = rows.iter().sum();
    for s in ls.op.binds() {
        if let Some(b) = plan.buffers.get(s).filter(|b| b.elems != total) {
            out.push(format!(
                "{} binds slot {s} ({}) of {} elements but its systems hold {total}",
                ls.name, b.name, b.elems
            ));
        }
    }
    out
}

/// Attribute `f` to part `part` of a plan partitioned as `of`: a shard
/// or a chunk.
fn attribute(f: &mut PlanFinding, of: Partition, part: Option<usize>) {
    match of {
        Partition::Systems => f.shard = part,
        Partition::Rows => f.chunk = part,
    }
}

/// A cross-device finding of `kind`, attributed to part `part`.
fn group_finding(
    kind: FindingKind,
    of: Partition,
    part: Option<usize>,
    message: String,
) -> PlanFinding {
    let mut f = PlanFinding {
        kind,
        step: None,
        shard: None,
        chunk: None,
        message,
    };
    attribute(&mut f, of, part);
    f
}

/// The partition and consistency classes for parts partitioned as `of`.
fn part_kinds(of: Partition) -> (FindingKind, FindingKind) {
    match of {
        Partition::Systems => (FindingKind::ShardPartition, FindingKind::ShardConsistency),
        Partition::Rows => (FindingKind::ChunkPartition, FindingKind::ChunkConsistency),
    }
}

/// One part of a multi-device plan as [`check_parts`] sees it.
struct Part<'a> {
    device_index: usize,
    start: usize,
    count: usize,
    /// The part's single-device plan, if it has one.
    plan: Option<&'a SolvePlan>,
    /// The `(m, n)` that plan must solve.
    need: (usize, usize),
    /// The ragged row counts that plan must solve (`None`: uniform).
    need_rows: Option<&'a [usize]>,
}

/// The tiling-and-consistency check every multi-device plan shares:
/// one part per device of `group`, in device order; the parts tile
/// `[0, total)` the way [`crate::plan::partition`] does; and each
/// embedded plan solves its part's geometry at `elem_bytes` for the
/// device it runs on and certifies clean there (which covers
/// per-device peak memory).
/// Cross-device findings are appended to `findings`; returns one
/// labelled report per embedded plan.
fn check_parts(
    group: &DeviceGroup,
    of: Partition,
    total: usize,
    elem_bytes: usize,
    parts: &[Part<'_>],
    findings: &mut Vec<PlanFinding>,
) -> Vec<(String, VerifyReport)> {
    let (partition_kind, consistency) = part_kinds(of);
    let name = of.part();
    let mut push = |kind, part, message| findings.push(group_finding(kind, of, part, message));
    if parts.is_empty() {
        push(partition_kind, None, format!("plan has no {name}s"));
    }
    if parts.len() != group.len() {
        push(
            consistency,
            None,
            format!(
                "plan has {} {name}(s) but the group has {} device(s)",
                parts.len(),
                group.len()
            ),
        );
    }
    let mut walk = TileWalk::new(of);
    let mut reports = Vec::new();
    for (i, p) in parts.iter().enumerate() {
        if p.device_index != i {
            push(
                consistency,
                Some(i),
                format!(
                    "device_index is {} ({name}s must be in device order)",
                    p.device_index
                ),
            );
        }
        for msg in walk.part(p.start, p.count) {
            push(partition_kind, Some(i), msg);
        }
        let spec = group.devices().get(p.device_index);
        if spec.is_none() {
            push(
                consistency,
                Some(i),
                format!(
                    "device_index {} is out of range for a {}-device group",
                    p.device_index,
                    group.len()
                ),
            );
        }
        let Some(plan) = p.plan else { continue };
        if (plan.m, plan.n) != p.need || plan.ragged_rows() != p.need_rows {
            push(
                consistency,
                Some(i),
                format!(
                    "{name} plan solves m = {}, n = {}, rows {:?} but the {name} needs \
                     m = {}, n = {}, rows {:?}",
                    plan.m,
                    plan.n,
                    plan.ragged_rows(),
                    p.need.0,
                    p.need.1,
                    p.need_rows
                ),
            );
        }
        if plan.elem_bytes != elem_bytes {
            push(
                consistency,
                Some(i),
                format!(
                    "{name} plan is {} bytes/elem but the group plan is {elem_bytes}",
                    plan.elem_bytes
                ),
            );
        }
        if let Some(spec) = spec.filter(|s| s.name != plan.device) {
            push(
                consistency,
                Some(i),
                format!(
                    "{name} plan was built for {} but device {} is {}",
                    plan.device, p.device_index, spec.name
                ),
            );
        }
        let mut report = verify_plan(spec.unwrap_or_else(|| group.primary()), plan);
        for f in &mut report.findings {
            attribute(f, of, Some(i));
        }
        reports.push((format!("{name} {i}"), report));
    }
    for msg in walk.finish(total) {
        push(partition_kind, None, msg);
    }
    reports
}

/// Statically verify a [`ShardedPlan`] against its [`DeviceGroup`]:
/// the shared part checks (shards tile `[0, m)` contiguously,
/// disjointly and balanced; every shard plan solves its systems at the
/// batch's geometry and certifies clean on its own device), plus the
/// pinned reference decisions: the reference was planned on the
/// primary, a shard on the same device model as the reference keeps
/// `k`/mapping/fused/layout exactly, and any shard's `k` may only
/// clamp *down* from the reference.
pub fn verify_sharded_plan(group: &DeviceGroup, plan: &ShardedPlan) -> GroupVerifyReport {
    let of = Partition::Systems;
    let consistency = FindingKind::ShardConsistency;
    let mut findings = Vec::new();
    let parts: Vec<Part> = plan
        .shards
        .iter()
        .map(|sh| {
            // A ragged batch's shard solves its own systems' row counts.
            let rows = plan
                .reference
                .ragged_rows()
                .and_then(|r| r.get(sh.sys_start..sh.sys_start + sh.sys_count));
            Part {
                device_index: sh.device_index,
                start: sh.sys_start,
                count: sh.sys_count,
                plan: Some(&sh.plan),
                need: match rows {
                    Some(r) => (r.len(), r.iter().copied().max().unwrap_or(0)),
                    None => (sh.sys_count, plan.n),
                },
                need_rows: rows.and_then(ragged),
            }
        })
        .collect();
    let plans = check_parts(group, of, plan.m, plan.elem_bytes, &parts, &mut findings);
    let r = &plan.reference;
    if r.device != group.primary().name {
        findings.push(group_finding(
            consistency,
            of,
            None,
            format!(
                "reference plan was built for {} but the group's primary is {}",
                r.device,
                group.primary().name
            ),
        ));
    }
    for (i, sh) in plan.shards.iter().enumerate() {
        let p = &sh.plan;
        if p.k > r.k {
            findings.push(group_finding(
                consistency,
                of,
                Some(i),
                format!(
                    "shard k = {} exceeds the pinned reference k = {} \
                     (per-device clamps may only lower k)",
                    p.k, r.k
                ),
            ));
        }
        // Same device model as the reference: the pinned decisions must
        // hold exactly (heterogeneous devices may legitimately re-clamp
        // k down).
        let device = group.devices().get(sh.device_index).map(|s| s.name);
        if device != Some(r.device) {
            continue;
        }
        for (what, got, pinned) in [
            ("k", p.k.to_string(), r.k.to_string()),
            (
                "mapping",
                format!("{:?}", p.mapping),
                format!("{:?}", r.mapping),
            ),
            ("fused", p.fused.to_string(), r.fused.to_string()),
            (
                "layout",
                format!("{:?}", p.layout),
                format!("{:?}", r.layout),
            ),
        ] {
            if got != pinned {
                findings.push(group_finding(
                    consistency,
                    of,
                    Some(i),
                    format!(
                        "shard on {} has {what} = {got} but the pinned reference \
                         {what} is {pinned}",
                        r.device
                    ),
                ));
            }
        }
    }
    GroupVerifyReport {
        kind: "sharded",
        findings,
        plans,
    }
}

/// Statically verify a [`DistributedPlan`] against its [`DeviceGroup`]:
/// the shared part checks (chunks tile `[0, n)` contiguously, disjointly
/// and balanced, each at least 2 rows; every interior plan solves its
/// chunk's interior rows and certifies clean on its own device), plus
/// the interface dataflow — a chunk with interior rows *must* carry an
/// interior elimination plan, else its interface coefficients are used
/// before being defined — the interior plan's right-hand sides per run
/// (`m = 3` batches y, u, w; `m = 1` runs three times), and the reduced
/// system: exactly `2D` unknowns, planned and certified on the primary
/// device. On the `D == 1` path the identity plan is verified and the
/// chunk/reduced invariants are vacuous.
pub fn verify_distributed_plan(group: &DeviceGroup, plan: &DistributedPlan) -> GroupVerifyReport {
    let of = Partition::Rows;
    let mut findings = Vec::new();
    let mut push = |kind, part, message| findings.push(group_finding(kind, of, part, message));
    if let Some(identity) = &plan.identity {
        // D == 1 short-circuit: the identity plan must be the plain
        // single-device solve of the whole system, and the distributed
        // machinery must be absent.
        let consistency = FindingKind::ChunkConsistency;
        if !plan.chunks.is_empty() {
            push(
                consistency,
                None,
                format!(
                    "identity plan present but {} chunk(s) are listed",
                    plan.chunks.len()
                ),
            );
        }
        if plan.reduced.is_some() {
            push(
                consistency,
                None,
                "identity plan present but a reduced interface plan is listed".into(),
            );
        }
        if (identity.m, identity.n, identity.elem_bytes) != (1, plan.n, plan.elem_bytes) {
            push(
                consistency,
                None,
                format!(
                    "identity plan solves {}x{} at {} bytes/elem but the system is 1x{} \
                     at {}",
                    identity.m, identity.n, identity.elem_bytes, plan.n, plan.elem_bytes
                ),
            );
        }
        return GroupVerifyReport {
            kind: "distributed",
            findings,
            plans: vec![("identity".into(), verify_plan(group.primary(), identity))],
        };
    }

    // Interface dataflow: the reduced system reads each chunk's
    // modified interface coefficients, which only exist after the
    // interior elimination ran. A chunk with interior rows but no
    // interior plan would feed *unmodified* coefficients to the reduced
    // solve — use before def, across devices.
    for (i, ch) in plan.chunks.iter().enumerate() {
        match (&ch.interior, ch.row_count) {
            (None, rc) if rc > 2 => push(
                FindingKind::InterfaceExchange,
                Some(i),
                format!(
                    "chunk has {rc} rows but no interior elimination plan: its \
                     interface coefficients are used before being defined"
                ),
            ),
            (Some(_), 2) => push(
                FindingKind::InterfaceExchange,
                Some(i),
                "chunk is interface-only (2 rows) but carries an interior plan".into(),
            ),
            _ => {}
        }
        if let Some(ip) = ch.interior.as_ref().filter(|p| !valid_interior_m(p.m)) {
            push(
                FindingKind::ChunkConsistency,
                Some(i),
                format!(
                    "interior plan solves m = {} right-hand sides per run, but y, u, w \
                     need m = 3 (one batched run) or m = 1 (three runs)",
                    ip.m
                ),
            );
        }
    }
    let d = plan.chunks.len();
    match &plan.reduced {
        Some(rp) => {
            if (rp.m, rp.n, rp.elem_bytes) != (1, 2 * d, plan.elem_bytes) {
                push(
                    FindingKind::ReducedSystem,
                    None,
                    format!(
                        "reduced plan solves {}x{} at {} bytes/elem but {d} chunk(s) \
                         need 1x{} interface unknowns at {}",
                        rp.m,
                        rp.n,
                        rp.elem_bytes,
                        2 * d,
                        plan.elem_bytes
                    ),
                );
            }
            if rp.device != group.primary().name {
                push(
                    FindingKind::ChunkConsistency,
                    None,
                    format!(
                        "reduced plan was built for {} but the group's primary is {}",
                        rp.device,
                        group.primary().name
                    ),
                );
            }
        }
        None => push(
            FindingKind::ReducedSystem,
            None,
            "distributed plan has no reduced interface plan (and no identity plan)".into(),
        ),
    }

    let parts: Vec<Part> = plan
        .chunks
        .iter()
        .map(|ch| Part {
            device_index: ch.device_index,
            start: ch.row_start,
            count: ch.row_count,
            plan: ch.interior.as_ref(),
            // The interior plan's m is checked above; here only its n.
            need: (
                ch.interior.as_ref().map_or(1, |p| p.m),
                ch.row_count.saturating_sub(2),
            ),
            need_rows: None,
        })
        .collect();
    let mut plans = check_parts(group, of, plan.n, plan.elem_bytes, &parts, &mut findings);
    if let Some(rp) = &plan.reduced {
        plans.push(("reduced".into(), verify_plan(group.primary(), rp)));
    }
    GroupVerifyReport {
        kind: "distributed",
        findings,
        plans,
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::solver::GpuSolverConfig;
    use crate::solver::MappingVariant;

    fn plan(m: usize, n: usize, bytes: usize) -> SolvePlan {
        SolvePlan::build(
            &DeviceSpec::gtx480(),
            &GpuSolverConfig::default(),
            m,
            n,
            bytes,
        )
        .unwrap()
    }

    #[test]
    fn planner_built_plans_verify_clean() {
        for (m, n, bytes) in [
            (2048usize, 128usize, 8usize), // k = 0: pure p-Thomas
            (64, 512, 8),                  // fused hybrid
            (16, 1024, 4),
            (1, 16384, 8),
        ] {
            let p = plan(m, n, bytes);
            let report = verify_plan(&DeviceSpec::gtx480(), &p);
            assert!(report.is_clean(), "m={m} n={n}: {report}");
            assert_eq!(report.prediction.h2d.len(), 4);
            assert_eq!(report.prediction.d2h.len(), 1);
            assert_eq!(report.prediction.h2d_total_bytes, 4 * m * n * bytes);
            assert_eq!(report.prediction.d2h_total_bytes, m * n * bytes);
        }
    }

    #[test]
    fn fused_plan_verifies_clean() {
        let p = SolvePlan::build(
            &DeviceSpec::gtx480(),
            &GpuSolverConfig {
                fused: true,
                mapping: MappingVariant::BlockPerSystem,
                ..Default::default()
            },
            64,
            512,
            8,
        )
        .unwrap();
        let report = verify_plan(&DeviceSpec::gtx480(), &p);
        assert!(report.is_clean(), "{report}");
        assert_eq!(report.prediction.launches, vec![("fused_pcr_thomas", 1)]);
        // Fused pipeline: all 7 buffers live at the single launch.
        assert_eq!(report.prediction.peak_resident_bytes, 7 * 64 * 512 * 8);
    }

    #[test]
    fn peak_is_liveness_based_not_sum_of_allocs() {
        // Split pipeline: 11 buffers total, but a..d die at the PCR
        // launch before c'/d' are allocated — peak is 9 buffers, at the
        // last out-buffer alloc.
        let p = SolvePlan::build(
            &DeviceSpec::gtx480(),
            &GpuSolverConfig {
                fused: false,
                ..Default::default()
            },
            64,
            512,
            8,
        )
        .unwrap();
        assert_eq!(p.buffers.len(), 11);
        let (peak, step) = peak_resident_bytes(&p);
        assert_eq!(peak, 9 * 64 * 512 * 8);
        assert!(peak < p.device_bytes());
        // The peak step is an Alloc step (the 9th creation).
        assert!(matches!(p.steps[step.unwrap()], Step::Alloc { .. }));

        // k = 0 pipeline: all 7 buffers live at the launch.
        let p0 = plan(2048, 128, 8);
        assert_eq!(p0.buffers.len(), 7);
        let (peak0, _) = peak_resident_bytes(&p0);
        assert_eq!(peak0, 7 * 2048 * 128 * 8);
    }

    #[test]
    fn a_launch_reading_an_earlier_launchs_scratch_is_an_unwritten_scratch_read() {
        // k = 0: one p-Thomas launch. A second one reads the first's c'
        // as its sub-diagonal, with scratch of its own.
        let mut p = plan(2048, 128, 8);
        let at = p
            .steps
            .iter()
            .position(|s| matches!(s, Step::Launch(_)))
            .unwrap();
        let Step::Launch(first) = &p.steps[at] else {
            unreachable!("found above")
        };
        let mut second = first.clone();
        let KernelOp::PThomas {
            a,
            c_prime,
            d_prime,
            ..
        } = &mut second.op
        else {
            panic!("a k = 0 plan launches p-Thomas: {:?}", second.op)
        };
        let (cp2, dp2) = (p.buffers.len(), p.buffers.len() + 1);
        *a = *c_prime;
        (*c_prime, *d_prime) = (cp2, dp2);
        p.buffers
            .extend([p.buffers[*a].clone(), p.buffers[*a].clone()]);
        let first_c_prime = *a;
        p.steps.splice(
            at + 1..at + 1,
            [
                Step::Alloc { slot: cp2 },
                Step::Alloc { slot: dp2 },
                Step::Launch(second),
            ],
        );
        let report = verify_plan(&DeviceSpec::gtx480(), &p);
        let kinds: Vec<FindingKind> = report.findings.iter().map(|f| f.kind).collect();
        assert_eq!(kinds, [FindingKind::UnwrittenScratchRead], "{report}");
        let f = &report.findings[0];
        assert_eq!(f.step, Some(at + 3));
        assert!(f.message.contains("no prior step wrote"), "{}", f.message);

        // Downloading it instead is the same finding.
        let mut p = plan(2048, 128, 8);
        for step in &mut p.steps {
            if let Step::Download { slot } = step {
                *slot = first_c_prime;
            }
        }
        let report = verify_plan(&DeviceSpec::gtx480(), &p);
        assert!(
            report
                .findings
                .iter()
                .any(|f| f.kind == FindingKind::UnwrittenScratchRead),
            "{report}"
        );
    }

    #[test]
    fn peak_overflow_fires_with_step_attribution() {
        let p = plan(64, 512, 8);
        let mut tiny = DeviceSpec::gtx480();
        tiny.global_mem_bytes = 1024;
        let report = verify_plan(&tiny, &p);
        let f = report
            .findings
            .iter()
            .find(|f| f.kind == FindingKind::PeakMemoryOverflow)
            .expect("overflow finding");
        assert!(f.step.is_some());
        assert!(f.message.contains("global memory"), "{}", f.message);
    }

    #[test]
    fn sharded_plans_verify_clean() {
        for d in [1usize, 2, 4] {
            let group = DeviceGroup::homogeneous(DeviceSpec::gtx480(), d).unwrap();
            let sp = ShardedPlan::build(&group, &GpuSolverConfig::default(), 64, 512, 8).unwrap();
            let report = verify_sharded_plan(&group, &sp);
            assert!(report.is_clean(), "d={d}: {report}");
            assert_eq!(report.plans.len(), d);
        }
    }

    #[test]
    fn heterogeneous_sharded_plan_verifies_clean() {
        // The GTX280 shard legitimately re-clamps k down; the verifier
        // must accept that while still pinning same-model shards.
        let group =
            DeviceGroup::from_specs(vec![DeviceSpec::gtx480(), DeviceSpec::gtx280()]).unwrap();
        let sp = ShardedPlan::build(&group, &GpuSolverConfig::default(), 16, 1024, 8).unwrap();
        let report = verify_sharded_plan(&group, &sp);
        assert!(report.is_clean(), "{report}");
    }

    #[test]
    fn report_json_is_well_formed() {
        let p = plan(64, 512, 8);
        let report = verify_plan(&DeviceSpec::gtx480(), &p);
        let text = report.to_json().to_string();
        let doc = gpu_sim::json::parse(&text).unwrap();
        assert_eq!(doc.get("clean"), Some(&Json::Bool(true)));
        assert!(doc.get("prediction").is_some());
    }

    #[test]
    fn cross_check_reports_discrepancies() {
        let p = plan(64, 512, 8);
        let report = verify_plan(&DeviceSpec::gtx480(), &p);
        let mut stats = DynamicPlanStats {
            h2d: report.prediction.h2d.clone(),
            d2h: report.prediction.d2h.clone(),
            peak_resident_bytes: report.prediction.peak_resident_bytes,
            launches: report.prediction.launches.clone(),
        };
        assert!(report.prediction.cross_check(&stats).is_empty());
        stats.peak_resident_bytes += 8;
        stats.h2d[0].1 += 1;
        stats.launches[0].1 += 1;
        let mismatches = report.prediction.cross_check(&stats);
        assert_eq!(mismatches.len(), 3, "{mismatches:?}");
    }
}
