//! Distributed single-system solve: one system of length `n` split
//! across a [`DeviceGroup`] by rows.
//!
//! Sharding ([`crate::sharded`]) partitions *systems*; it cannot help
//! when a **single** system outgrows one device's memory. This module
//! implements the standard substructuring decomposition for that case:
//!
//! 1. **Partition** the `n` rows into `D` contiguous chunks (±1
//!    balance, [`crate::plan::partition`] with [`Partition::Rows`]),
//!    each at least 2 rows so it owns an interface pair.
//! 2. **Partial elimination** per device: a chunk's first and last rows
//!    are its *interface* unknowns; the `L - 2` interior rows form an
//!    independent tridiagonal system once the couplings to the
//!    interface pair are moved to the right-hand side. Each device
//!    solves that interior system for three right-hand sides — the
//!    original interior RHS `y`, the unit load from the left interface
//!    `u`, and the unit load from the right interface `w` — as **one**
//!    3-system batch through an `m = 3` [`SolvePlan`] on a private
//!    [`PlanExecutor`]: the paper's premise that independent systems
//!    in one launch cost far less than the same systems one after
//!    another. When the `m = 3` footprint does not fit the device, the
//!    plan falls back to `m = 1` and the executor runs it once per
//!    right-hand side; either way the peak resident footprint per
//!    device is that of an `n/D`-row plan (times at most three), which
//!    is what lets a system that overflows one device fit on `D`.
//! 3. **Gather** the modified interface rows (two per chunk, four
//!    coefficients each) to the primary device over the PCIe cost
//!    model ([`StreamOp::CopyD2H`]).
//! 4. **Reduced solve**: the `2D` interface unknowns form a genuinely
//!    tridiagonal system (each interface row couples only to its
//!    partner in the same chunk and to the adjacent row of the
//!    neighbouring chunk); the primary device solves it with the
//!    ordinary kernel zoo.
//! 5. **Scatter** each chunk's interface pair back
//!    ([`StreamOp::CopyH2D`], PCIe-serialized — one bus), then finish
//!    with per-device **back substitution**
//!    `x_interior = y - x_first * u - x_last * w`. The scatter copies
//!    are serialized across the bus in device order, so device 0's
//!    back-substitution overlaps device `D-1`'s interface wait — the
//!    pipelining is visible in the merged timeline and trace.
//!
//! The fan-out over devices, the stream replay of every plan run, the
//! per-device trace tracks and the report merge are the multi-device
//! core (`multi_device`) the sharded executor shares.
//!
//! Numerics: the interior eliminations reorder the arithmetic of the
//! single-device pipeline, so for `D >= 2` the result matches the
//! single-device solution to a condition-derived tolerance rather than
//! bit-for-bit (see DESIGN.md §15); `D == 1` short-circuits to the
//! identity path and *is* bit-identical. The 3-RHS formulation does
//! roughly 3x the interior flops of a plain Thomas sweep; batching the
//! three right-hand sides into one launch hides most of that on the
//! modeled clock, but a 2-way split of a small system still loses to
//! one device (DESIGN.md §16).

use crate::buffers::GpuScalar;
use crate::executor::PlanExecutor;
use crate::multi_device::{
    counter_totals, device_track, fan_out, group_trace, replay_plan, Launch, Merged,
};
use crate::plan::{partition, Partition, SolvePlan};
use crate::solver::{DistributedSummary, GpuSolveReport, GpuSolverConfig, ShardSummary};
use gpu_sim::group::copy_us;
use gpu_sim::json::schema::Check;
use gpu_sim::{DeviceGroup, ExecConfig, GroupTimeline, Json, Result, SimError, StreamOp};
use tridiag_core::{Layout, SystemBatch, TridiagonalSystem};

/// One device's share of a distributed solve: which rows it owns and
/// the interior-elimination [`SolvePlan`] (built against *its* spec)
/// for its `row_count - 2` interior rows. A 2-row chunk is all
/// interface — it has no interior system and `interior` is `None`.
#[derive(Debug, Clone, PartialEq)]
pub struct ChunkPlan {
    /// Index into the [`DeviceGroup`] this chunk runs on.
    pub device_index: usize,
    /// Device name (the spec the interior plan was built for).
    pub device: &'static str,
    /// First row (in the caller's system) this chunk owns.
    pub row_start: usize,
    /// Number of rows this chunk owns (>= 2).
    pub row_count: usize,
    /// `n = row_count - 2` plan for the interior elimination of the
    /// three right-hand sides `y`, `u`, `w`: `m = 3` solves them as one
    /// batched run; `m = 1` (when the batch does not fit the device)
    /// runs once per right-hand side. `None` iff `row_count == 2`.
    pub interior: Option<SolvePlan>,
}

impl ChunkPlan {
    /// Interior row count (`row_count - 2`).
    pub fn interior_len(&self) -> usize {
        self.row_count - 2
    }
}

/// Right-hand sides each chunk's interior elimination solves: `y`, `u`
/// and `w`.
const INTERIOR_RHS: usize = 3;

/// The interior plan's `m` is 3 (one batched run) or 1 (one run per
/// right-hand side); anything else does not split the three evenly.
pub(crate) fn valid_interior_m(m: usize) -> bool {
    m == INTERIOR_RHS || m == 1
}

/// A single system of `n` rows split across a [`DeviceGroup`]: one
/// [`ChunkPlan`] per device plus the `2D`-row reduced interface plan on
/// the primary device. A single-device group short-circuits to the
/// identity: `identity` holds the ordinary `m = 1` plan and both
/// `chunks` and `reduced` are empty.
#[derive(Debug, Clone, PartialEq)]
pub struct DistributedPlan {
    /// Rows in the full system.
    pub n: usize,
    /// Scalar width in bytes (4 or 8).
    pub elem_bytes: usize,
    /// Precision label (`"f32"` / `"f64"`).
    pub precision: &'static str,
    /// `D == 1` short-circuit: the plain single-device plan.
    /// `Some` iff the group has one device.
    pub identity: Option<SolvePlan>,
    /// Per-device chunk plans, in device order. Empty iff `D == 1`.
    pub chunks: Vec<ChunkPlan>,
    /// `m = 1, n = 2 * chunks.len()` plan for the reduced interface
    /// system on the primary device. `Some` iff `D > 1`.
    pub reduced: Option<SolvePlan>,
}

impl DistributedPlan {
    /// Plan a distributed solve of one `n`-row system across `group`.
    /// Pure, like [`SolvePlan::build`]. A single-device group yields
    /// the identity path.
    ///
    /// Each chunk's interior plan batches its three right-hand sides
    /// (`m = 3`); only when that plan fails to build — in practice, a
    /// certified peak beyond the device's global memory — does the
    /// chunk fall back to `m = 1`, so splitting never loses capacity.
    /// With more than one device the chunk and reduced plans decide
    /// under [`GpuSolverConfig::multi_device`] (Table III for the
    /// default policy), so the `m = 3` batch plans exactly as three
    /// `m = 1` runs.
    ///
    /// Fails with [`SimError::InvalidPlan`] on an empty or too-small
    /// geometry (`n < 2D`), an unsupported scalar width, or any
    /// per-chunk plan failure (e.g. an interior footprint beyond its
    /// device's global memory even at `m = 1`).
    pub fn build(
        group: &DeviceGroup,
        config: &GpuSolverConfig,
        n: usize,
        elem_bytes: usize,
    ) -> Result<DistributedPlan> {
        let precision = match elem_bytes {
            4 => "f32",
            8 => "f64",
            other => {
                return Err(SimError::InvalidPlan(format!(
                    "unsupported scalar width: {other} bytes (expected 4 or 8)"
                )))
            }
        };
        if group.len() == 1 {
            let plan = SolvePlan::build(group.primary(), config, 1, n, elem_bytes)?;
            return Ok(DistributedPlan {
                n,
                elem_bytes,
                precision,
                identity: Some(plan),
                chunks: Vec::new(),
                reduced: None,
            });
        }
        // A chunk's three-RHS interior batch must plan exactly as three
        // one-RHS runs: the accounting and the `m = 1` fallback rest on
        // it. Table III's M ranges give both the same decision; the
        // tuned table's ⌊log2 M⌋ rows do not (M = 1 and M = 3 sit in
        // different rows).
        let config = &config.multi_device();
        let d = group.len();
        let ranges = partition(n, d, Partition::Rows)?;
        let chunks = ranges
            .into_iter()
            .enumerate()
            .map(|(device_index, (row_start, row_count))| {
                let spec = &group.devices()[device_index];
                let interior = if row_count == 2 {
                    None
                } else {
                    let li = row_count - 2;
                    let plan = SolvePlan::build(spec, config, INTERIOR_RHS, li, elem_bytes)
                        .or_else(|_| SolvePlan::build(spec, config, 1, li, elem_bytes))
                        .map_err(|e| match e {
                            SimError::InvalidPlan(msg) => SimError::InvalidPlan(format!(
                                "chunk {device_index} (rows [{row_start}, {})): {msg}",
                                row_start + row_count
                            )),
                            other => other,
                        })?;
                    Some(plan)
                };
                Ok(ChunkPlan {
                    device_index,
                    device: spec.name,
                    row_start,
                    row_count,
                    interior,
                })
            })
            .collect::<Result<Vec<_>>>()?;
        let reduced = SolvePlan::build(group.primary(), config, 1, 2 * d, elem_bytes).map_err(
            |e| match e {
                SimError::InvalidPlan(msg) => {
                    SimError::InvalidPlan(format!("reduced interface system: {msg}"))
                }
                other => other,
            },
        )?;
        Ok(DistributedPlan {
            n,
            elem_bytes,
            precision,
            identity: None,
            chunks,
            reduced: Some(reduced),
        })
    }

    /// Number of devices (= chunks; 1 on the identity path).
    pub fn num_devices(&self) -> usize {
        if self.identity.is_some() {
            1
        } else {
            self.chunks.len()
        }
    }

    /// Total device bytes summed over every chunk's interior plan plus
    /// the reduced plan (or the identity plan).
    pub fn device_bytes(&self) -> usize {
        if let Some(p) = &self.identity {
            return p.device_bytes();
        }
        self.chunks
            .iter()
            .filter_map(|c| c.interior.as_ref())
            .map(SolvePlan::device_bytes)
            .sum::<usize>()
            + self.reduced.as_ref().map_or(0, SolvePlan::device_bytes)
    }

    /// Multi-line human description: the row partition, each chunk's
    /// device/interior geometry/footprint, and the reduced interface
    /// system.
    pub fn describe(&self) -> String {
        use std::fmt::Write;
        let mut s = String::new();
        let _ = writeln!(
            s,
            "distributed plan: n={} {} across {} device(s)",
            self.n,
            self.precision,
            self.num_devices()
        );
        if let Some(p) = &self.identity {
            let _ = writeln!(
                s,
                "  identity: single-device path on {} k={} kernels={} device_bytes={}",
                p.device,
                p.k,
                p.launches()
                    .map(|l| l.name)
                    .collect::<Vec<_>>()
                    .join(" -> "),
                p.device_bytes()
            );
            return s;
        }
        for c in &self.chunks {
            match &c.interior {
                Some(p) => {
                    let rhs = if p.m == INTERIOR_RHS {
                        "RHS y, u, w batched in one m=3 run"
                    } else {
                        "RHS y, u, w in three m=1 runs"
                    };
                    let _ = writeln!(
                        s,
                        "  chunk {}: {} rows [{}, {}) interior n={} k={} kernels={} \
                         device_bytes={} ({rhs})",
                        c.device_index,
                        c.device,
                        c.row_start,
                        c.row_start + c.row_count,
                        c.interior_len(),
                        p.k,
                        p.launches()
                            .map(|l| l.name)
                            .collect::<Vec<_>>()
                            .join(" -> "),
                        p.device_bytes()
                    );
                }
                None => {
                    let _ = writeln!(
                        s,
                        "  chunk {}: {} rows [{}, {}) interface-only (2 rows, no \
                         interior elimination)",
                        c.device_index,
                        c.device,
                        c.row_start,
                        c.row_start + c.row_count
                    );
                }
            }
        }
        if let Some(r) = &self.reduced {
            let _ = writeln!(
                s,
                "  reduced: n={} on {} k={} kernels={} device_bytes={}",
                r.n,
                r.device,
                r.k,
                r.launches()
                    .map(|l| l.name)
                    .collect::<Vec<_>>()
                    .join(" -> "),
                r.device_bytes()
            );
        }
        s
    }

    /// Serialize as a JSON object (schema `tridiag.distributed_plan/v1`);
    /// [`validate_distributed_plan_json`] checks the shape.
    pub fn to_json(&self) -> Json {
        let chunks = self
            .chunks
            .iter()
            .map(|c| {
                Json::Obj(vec![
                    ("device".into(), Json::str(c.device)),
                    ("device_index".into(), Json::num(c.device_index as f64)),
                    ("row_start".into(), Json::num(c.row_start as f64)),
                    ("row_count".into(), Json::num(c.row_count as f64)),
                    (
                        "interior".into(),
                        c.interior.as_ref().map_or(Json::Null, SolvePlan::to_json),
                    ),
                ])
            })
            .collect();
        Json::Obj(vec![
            ("schema".into(), Json::str(DISTRIBUTED_PLAN_SCHEMA)),
            ("n".into(), Json::num(self.n as f64)),
            ("elem_bytes".into(), Json::num(self.elem_bytes as f64)),
            ("precision".into(), Json::str(self.precision)),
            ("devices".into(), Json::num(self.num_devices() as f64)),
            ("device_bytes".into(), Json::num(self.device_bytes() as f64)),
            (
                "identity".into(),
                self.identity
                    .as_ref()
                    .map_or(Json::Null, SolvePlan::to_json),
            ),
            ("chunks".into(), Json::Arr(chunks)),
            (
                "reduced".into(),
                self.reduced.as_ref().map_or(Json::Null, SolvePlan::to_json),
            ),
        ])
    }
}

/// Schema identifier emitted by [`DistributedPlan::to_json`].
pub const DISTRIBUTED_PLAN_SCHEMA: &str = "tridiag.distributed_plan/v1";

/// Check a parsed distributed-plan document's shape against the
/// `tridiag.distributed_plan/v1` schema: field shapes, each chunk's
/// fields, and the embedded identity/interior/reduced plans, each
/// `null` or a plan document (via [`crate::plan::validate_plan_json`]).
/// Which plans are present, the row partition and every plan's geometry
/// are certified by [`crate::verify::verify_distributed_plan`] on the
/// typed plan. Returns every problem found (empty = valid).
pub fn validate_distributed_plan_json(doc: &Json) -> Vec<String> {
    let mut c = Check::new(doc);
    c.schema(DISTRIBUTED_PLAN_SCHEMA);
    c.req_str("precision");
    c.req_uints(&["n", "elem_bytes", "devices", "device_bytes"]);
    nullable_plan(&mut c, "identity");
    for (i, chunk) in c.req_arr("chunks").iter().enumerate() {
        let mut cc = c.child(chunk, format!("chunks[{i}] "));
        cc.req_str("device");
        cc.req_uints(&["device_index", "row_start", "row_count"]);
        nullable_plan(&mut cc, "interior");
        c.absorb(cc);
    }
    nullable_plan(&mut c, "reduced");
    c.finish()
}

/// Require `key` to be `null` or a valid plan document.
fn nullable_plan(c: &mut Check<'_>, key: &str) {
    match c.doc().get(key) {
        Some(Json::Null) => {}
        Some(plan @ Json::Obj(_)) => {
            c.absorb_with(&format!("{key}: "), crate::plan::validate_plan_json(plan))
        }
        _ => c.problem(format!("missing object-or-null field {key:?}")),
    }
}

/// What one chunk's worker thread hands back: the three interior
/// solutions, the modified interface rows, and the per-run artifacts.
struct ChunkRun<S> {
    /// Interior solutions for the original RHS `y` and the left and
    /// right interface unit loads `u` and `w`, in that order (all empty
    /// when `L == 2`).
    x: [Vec<S>; INTERIOR_RHS],
    /// Modified first interface row `(a, b, c, d)` in reduced-system
    /// coefficients.
    row_first: (S, S, S, S),
    /// Modified last interface row.
    row_last: (S, S, S, S),
    /// One report per interior run: one for a batched `m = 3` plan,
    /// three (`y`, `u`, `w`) for `m = 1`; empty when `L == 2`.
    reports: Vec<GpuSolveReport>,
    /// Exact `(flops, global transactions, global bytes)` of the runs.
    totals: (u64, u64, u64),
}

/// Drives a [`DistributedPlan`] across a [`DeviceGroup`], one thread
/// per chunk for the interior eliminations, the reduced interface
/// solve on the primary device, and merges the results into one
/// [`GpuSolveReport`].
#[derive(Debug, Clone)]
pub struct DistributedExecutor {
    group: DeviceGroup,
    exec: ExecConfig,
}

impl DistributedExecutor {
    /// An executor for `group` with execution options `exec` (applied
    /// to every chunk's kernels and the reduced solve).
    pub fn new(group: DeviceGroup, exec: ExecConfig) -> Self {
        Self { group, exec }
    }

    /// The device group this executor drives.
    pub fn group(&self) -> &DeviceGroup {
        &self.group
    }

    /// Execute `plan` over `batch` (which must hold exactly one system
    /// of `plan.n` rows). Returns the solution plus the merged report.
    ///
    /// Fails with [`SimError::InvalidPlan`] when the batch does not
    /// match the plan's geometry/width or static verification
    /// ([`crate::verify::verify_distributed_plan`]) finds a problem,
    /// including a plan built for a different device count; any chunk
    /// failure (including a worker panic, reported as
    /// [`SimError::KernelFault`] with chunk attribution) aborts the
    /// whole solve.
    pub fn run<S: GpuScalar + Send + Sync>(
        &self,
        plan: &DistributedPlan,
        batch: &SystemBatch<S>,
    ) -> Result<(Vec<S>, GpuSolveReport)> {
        if batch.num_systems() != 1 {
            return Err(SimError::InvalidPlan(format!(
                "distributed solve takes exactly one system, got m = {}",
                batch.num_systems()
            )));
        }
        if batch.system_len() != plan.n {
            return Err(SimError::InvalidPlan(format!(
                "batch has {} rows but the distributed plan was built for n = {}",
                batch.system_len(),
                plan.n
            )));
        }
        let eb = plan.elem_bytes;
        if <S as gpu_sim::Elem>::BYTES != eb {
            return Err(SimError::InvalidPlan(format!(
                "batch scalar is {} bytes but the distributed plan was built for {eb}",
                <S as gpu_sim::Elem>::BYTES
            )));
        }
        // Cross-device static verification gates execution: partition
        // coverage, interface dataflow, reduced-system geometry, and
        // every chunk's own certificate against its device.
        crate::verify::verify_distributed_plan(&self.group, plan).into_result()?;
        if let Some(identity) = &plan.identity {
            // D == 1 is the identity: this is exactly the single-device
            // path, byte for byte.
            let mut ex = PlanExecutor::new(self.group.primary().clone(), self.exec);
            return ex.run(identity, batch);
        }
        let reduced_plan = plan.reduced.as_ref().ok_or_else(|| {
            SimError::InvalidPlan("distributed plan has no reduced interface plan".into())
        })?;

        // One worker per chunk: build the interior system, solve it for
        // the three right-hand sides (one batched run, or one run each),
        // fold the solutions into the chunk's two interface rows.
        let runs = fan_out("chunk", plan.chunks.len(), |d| {
            chunk_eliminate(
                self.group.devices()[d].clone(),
                self.exec,
                &plan.chunks[d],
                batch,
            )
        })?;

        // Assemble the reduced interface system on the host (it is
        // gathered to the primary device below, on the modeled
        // timeline) and solve it with the ordinary pipeline. Ordering:
        // (x_first_0, x_last_0, x_first_1, ...) — each interface row
        // couples only to its in-chunk partner and to the adjacent row
        // of the neighbouring chunk, so the system is tridiagonal.
        let rd_n = 2 * plan.chunks.len();
        let mut ra = Vec::with_capacity(rd_n);
        let mut rb = Vec::with_capacity(rd_n);
        let mut rc = Vec::with_capacity(rd_n);
        let mut rdv = Vec::with_capacity(rd_n);
        for run in &runs {
            for (a, b, c, d) in [run.row_first, run.row_last] {
                ra.push(a);
                rb.push(b);
                rc.push(c);
                rdv.push(d);
            }
        }
        let reduced_sys = TridiagonalSystem::new(ra, rb, rc, rdv)
            .map_err(|e| SimError::InvalidPlan(format!("assembling reduced system: {e}")))?;
        let reduced_batch = SystemBatch::from_systems(vec![reduced_sys])
            .map_err(|e| SimError::InvalidPlan(format!("building reduced batch: {e}")))?;
        let mut red_ex = PlanExecutor::new(self.group.primary().clone(), self.exec);
        let (xr, red_report) = red_ex
            .run(reduced_plan, &reduced_batch)
            .map_err(|e| match e {
                SimError::KernelFault(msg) => {
                    SimError::KernelFault(format!("reduced interface solve: {msg}"))
                }
                other => other,
            })?;
        let (reduced_flops, reduced_transactions, reduced_bytes) = counter_totals(&red_ex);

        // Distributed back substitution:
        //   x[first] = xr[2j], x[last] = xr[2j+1],
        //   x[interior t] = y[t] - u[t] * x[first] - w[t] * x[last].
        let mut out = vec![S::ZERO; batch.total_len()];
        let mut backsub_flops = 0u64;
        for (ch, run) in plan.chunks.iter().zip(&runs) {
            let j = ch.device_index;
            let xs = xr[2 * j];
            let xe = xr[2 * j + 1];
            out[batch.index(0, ch.row_start)] = xs;
            out[batch.index(0, ch.row_start + ch.row_count - 1)] = xe;
            let [y, u, w] = &run.x;
            for t in 0..ch.interior_len() {
                out[batch.index(0, ch.row_start + 1 + t)] = y[t] - u[t] * xs - w[t] * xe;
            }
            backsub_flops += 4 * ch.interior_len() as u64;
        }

        // ---- modeled timeline -----------------------------------------
        // Replay each chunk's interior runs (one batched `#yuw` run, or
        // `#y`, `#u`, `#w`) onto its device's in-order stream, then the
        // interface gather (D2H), the reduced solve on the primary, and
        // the PCIe-serialized scatter (H2D) followed by the
        // back-substitution launch — the scatter serialization is what
        // makes device 0's back-substitution overlap device D-1's
        // interface wait.
        let gather_chunk_bytes = 8 * eb; // 2 interface rows x 4 coefficients
        let scatter_chunk_bytes = 2 * eb; // 2 interface values
        let mut timeline = GroupTimeline::new(&self.group);
        for (ch, run) in plan.chunks.iter().zip(&runs) {
            let stream = timeline.stream_mut(ch.device_index);
            if let Some(ip) = &ch.interior {
                let tags: &[&str] = if ip.m == INTERIOR_RHS {
                    &["#yuw"]
                } else {
                    &["#y", "#u", "#w"]
                };
                for (tag, report) in tags.iter().zip(&run.reports) {
                    replay_plan(stream, ip, &report.kernels, tag, "chunk")?;
                }
            }
            stream.record(
                StreamOp::CopyD2H,
                "gather:interface",
                copy_us(gather_chunk_bytes),
                gather_chunk_bytes,
            );
        }
        // The reduced solve starts on the primary once every chunk's
        // interface rows have arrived.
        let gather_done = timeline.wall_clock_us();
        let s0 = timeline.stream_mut(0);
        s0.wait_until(gather_done);
        replay_plan(s0, reduced_plan, &red_report.kernels, "#reduced", "reduced")?;
        // Scatter the interface pairs back, serialized over one PCIe
        // bus in device order; each device then back-substitutes its
        // interior as soon as *its* pair lands.
        let mut host_cursor = timeline.streams()[0].completion_us();
        for ch in &plan.chunks {
            let st = timeline.stream_mut(ch.device_index);
            st.wait_until(host_cursor);
            st.record(
                StreamOp::CopyH2D,
                "scatter:interface",
                copy_us(scatter_chunk_bytes),
                scatter_chunk_bytes,
            );
            host_cursor = st.completion_us();
        }
        let mut backsub_us = vec![0.0f64; plan.chunks.len()];
        for ch in &plan.chunks {
            if ch.interior_len() == 0 {
                continue;
            }
            let spec = &self.group.devices()[ch.device_index];
            // Streaming pass over y/u/w + the write of x: bandwidth-
            // bound at 4 elements per interior row, plus launch cost.
            let bytes = 4 * ch.interior_len() * eb;
            let dur = spec.launch_overhead_us + bytes as f64 / (spec.dram_bandwidth_gbps * 1e3);
            backsub_us[ch.device_index] = dur;
            timeline.stream_mut(ch.device_index).record(
                StreamOp::Launch,
                "back_substitute",
                dur,
                0,
            );
        }
        let kernel_wall = timeline.kernel_wall_clock_us();

        // ---- merged Chrome trace and report ----------------------------
        let mut trace = group_trace(
            "distributed",
            &self.group,
            &timeline,
            vec![
                ("n".into(), Json::num(plan.n as f64)),
                ("precision".into(), Json::str(plan.precision)),
            ],
            Partition::Rows,
            plan.chunks.iter().map(|c| (c.device_index, c.row_count)),
        );
        trace.instant(
            "reduced_system",
            "solver",
            0,
            0.0,
            vec![
                ("n".into(), Json::num(reduced_plan.n as f64)),
                ("device".into(), Json::str(reduced_plan.device)),
                ("k".into(), Json::num(reduced_plan.k)),
            ],
        );
        let mut merged = Merged::default();
        let mut summaries = Vec::with_capacity(runs.len());
        for (ch, run) in plan.chunks.iter().zip(&runs) {
            let d = ch.device_index;
            let stream = &timeline.streams()[d];
            // Device d's launch sequence on its stream: the interior
            // runs' kernels in order, then (device 0 only) the
            // reduced kernels, then the back-substitution, which the
            // timeline prices without a kernel report.
            let mut launches: Vec<Launch> = run
                .reports
                .iter()
                .flat_map(|r| &r.kernels)
                .map(Launch::Kernel)
                .collect();
            if d == 0 {
                launches.extend(red_report.kernels.iter().map(Launch::Kernel));
            }
            if ch.interior_len() > 0 {
                launches.push(Launch::Modeled(
                    "kernel:back_substitute",
                    vec![("interior_rows".into(), Json::num(ch.interior_len() as f64))],
                ));
            }
            device_track(&mut trace, d as u32, stream, launches)?;
            let (flops, global_transactions, global_bytes) = run.totals;
            summaries.push(ShardSummary {
                device: ch.device,
                device_index: d,
                sys_start: ch.row_start,
                sys_count: ch.row_count,
                k: ch.interior.as_ref().map_or(0, |p| p.k),
                kernel_us: run.reports.iter().map(|r| r.total_us).sum::<f64>() + backsub_us[d],
                completion_us: stream.completion_us(),
                flops: flops + 4 * ch.interior_len() as u64,
                global_transactions,
                global_bytes,
            });
            for r in &run.reports {
                merged.absorb(&format!("dev{d}"), r);
            }
        }
        merged.absorb("reduced", &red_report);
        // The merged report carries the reduced plan and its run's
        // certificate (the one the primary device actually ran);
        // per-chunk certificates were checked by
        // verify_distributed_plan above.
        let distributed = DistributedSummary {
            devices: plan.chunks.len(),
            reduced_n: rd_n,
            reduced_k: reduced_plan.k,
            reduced_flops,
            reduced_transactions,
            reduced_bytes,
            backsub_flops,
            gather_bytes: (plan.chunks.len() * gather_chunk_bytes) as u64,
            scatter_bytes: (plan.chunks.len() * scatter_chunk_bytes) as u64,
            wall_clock_us: timeline.wall_clock_us(),
            serialized_us: timeline.serialized_us(),
        };
        let report = merged.into_report(
            reduced_plan,
            red_report.verify.clone(),
            kernel_wall,
            trace,
            summaries,
            Some(distributed),
        );
        Ok((out, report))
    }
}

/// One chunk's partial elimination, run on its own thread: solve the
/// interior system for the three right-hand sides — as one `m = 3`
/// batch, or one `m = 1` run each — and fold the solutions into the
/// chunk's two interface rows.
fn chunk_eliminate<S: GpuScalar>(
    spec: gpu_sim::DeviceSpec,
    exec: ExecConfig,
    ch: &ChunkPlan,
    batch: &SystemBatch<S>,
) -> Result<ChunkRun<S>> {
    let s = ch.row_start;
    let e = ch.row_start + ch.row_count - 1;
    let (a_s, b_s, c_s, d_s) = batch.row(0, s);
    let (a_e, b_e, c_e, d_e) = batch.row(0, e);
    let li = ch.interior_len();
    if li == 0 {
        // All-interface chunk: the two rows pass through unchanged —
        // x_first and x_last are adjacent in the reduced ordering, so
        // c_s couples x_first to x_last and a_e couples back.
        return Ok(ChunkRun {
            x: Default::default(),
            row_first: (a_s, b_s, c_s, d_s),
            row_last: (a_e, b_e, c_e, d_e),
            reports: Vec::new(),
            totals: (0, 0, 0),
        });
    }
    let ip = ch
        .interior
        .as_ref()
        .filter(|p| valid_interior_m(p.m))
        .ok_or_else(|| {
            SimError::InvalidPlan(format!(
                "chunk {} has {li} interior row(s) but no interior plan solving 1 or 3 \
                 right-hand sides per run",
                ch.device_index
            ))
        })?;
    // Interior rows s+1 ..= e-1: one matrix shared by the three
    // right-hand sides. The couplings to the interface pair (a_{s+1} on
    // the first interior row, c_{e-1} on the last) move out of the
    // matrix and into the unit-load right-hand sides u and w, which
    // decouples the interior from the interface.
    let mut lower = Vec::with_capacity(li);
    let mut diag = Vec::with_capacity(li);
    let mut upper = Vec::with_capacity(li);
    let mut rhs: [Vec<S>; INTERIOR_RHS] =
        [Vec::with_capacity(li), vec![S::ZERO; li], vec![S::ZERO; li]];
    for t in 0..li {
        let (a, b, c, d) = batch.row(0, s + 1 + t);
        lower.push(a);
        diag.push(b);
        upper.push(c);
        rhs[0].push(d);
    }
    rhs[1][0] = std::mem::replace(&mut lower[0], S::ZERO);
    rhs[2][li - 1] = std::mem::replace(&mut upper[li - 1], S::ZERO);

    // Each run solves `ip.m` of the right-hand sides against copies of
    // the one matrix: a single batched run at m = 3, else y, u, w in
    // turn.
    let mut ex = PlanExecutor::new(spec, exec);
    let mut x: [Vec<S>; INTERIOR_RHS] = Default::default();
    let mut reports = Vec::with_capacity(INTERIOR_RHS / ip.m);
    for (run, rhs) in rhs.chunks(ip.m).enumerate() {
        let m = rhs.len();
        let sub = SystemBatch::from_raw(
            lower.repeat(m),
            diag.repeat(m),
            upper.repeat(m),
            rhs.concat(),
            m,
            li,
            Layout::Contiguous,
        )
        .map_err(|e| SimError::InvalidPlan(format!("building interior batch: {e}")))?;
        let (xs, report) = ex.run(ip, &sub)?;
        for (slot, sol) in x[run * m..].iter_mut().zip(xs.chunks(li)) {
            *slot = sol.to_vec();
        }
        reports.push(report);
    }

    // Fold the interior solutions into the interface rows:
    //   x_{s+1} = y[0]    - u[0]    x_s - w[0]    x_e
    //   x_{e-1} = y[li-1] - u[li-1] x_s - w[li-1] x_e
    // substituted into rows s and e of the original system.
    let [y, u, w] = &x;
    let row_first = (a_s, b_s - c_s * u[0], -(c_s * w[0]), d_s - c_s * y[0]);
    let row_last = (
        -(a_e * u[li - 1]),
        b_e - a_e * w[li - 1],
        c_e,
        d_e - a_e * y[li - 1],
    );
    Ok(ChunkRun {
        x,
        row_first,
        row_last,
        reports,
        totals: counter_totals(&ex),
    })
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::solver::GpuTridiagSolver;
    use gpu_sim::DeviceSpec;
    use tridiag_core::generators::random_batch;

    fn group_of(d: usize) -> DeviceGroup {
        DeviceGroup::homogeneous(DeviceSpec::gtx480(), d).unwrap()
    }

    #[test]
    fn single_device_group_is_the_identity_path() {
        let batch = random_batch::<f64>(1, 64, 7);
        let solver = GpuTridiagSolver::gtx480();
        let (x1, r1) = solver.solve_batch(&batch).unwrap();
        let group = DeviceGroup::single(DeviceSpec::gtx480());
        let plan = DistributedPlan::build(&group, &GpuSolverConfig::default(), 64, 8).unwrap();
        assert!(plan.identity.is_some());
        assert!(plan.chunks.is_empty() && plan.reduced.is_none());
        let (x2, r2) = DistributedExecutor::new(group, ExecConfig::default())
            .run(&plan, &batch)
            .unwrap();
        assert_eq!(x1, x2, "D == 1 must be bit-identical");
        assert_eq!(r1, r2, "D == 1 must be byte-identical, report and all");
    }

    #[test]
    fn distributed_solve_matches_single_device_within_tolerance() {
        let batch = random_batch::<f64>(1, 256, 11);
        let solver = GpuTridiagSolver::gtx480();
        let (x1, _) = solver.solve_batch(&batch).unwrap();
        for d in [2usize, 4] {
            let group = group_of(d);
            let plan = DistributedPlan::build(&group, &GpuSolverConfig::default(), 256, 8).unwrap();
            let (x2, r2) = DistributedExecutor::new(group, ExecConfig::default())
                .run(&plan, &batch)
                .unwrap();
            let worst = x1
                .iter()
                .zip(&x2)
                .map(|(a, b)| (a - b).abs())
                .fold(0.0f64, f64::max);
            assert!(
                worst < 1e-9,
                "D = {d}: max abs deviation {worst} vs single device"
            );
            let dist = r2.distributed.as_ref().expect("distributed summary");
            assert_eq!(dist.devices, d);
            assert_eq!(dist.reduced_n, 2 * d);
            assert!(batch.max_relative_residual(&x2).unwrap() < 1e-9);
        }
    }

    #[test]
    fn full_memory_chunks_batch_their_three_rhs() {
        for (d, n) in [(2usize, 1usize << 16), (4, 1 << 12), (8, 1 << 15)] {
            let plan =
                DistributedPlan::build(&group_of(d), &GpuSolverConfig::default(), n, 8).unwrap();
            for c in &plan.chunks {
                let ip = c.interior.as_ref().expect("interior plan");
                let ctx = format!("D = {d} chunk {}", c.device_index);
                assert_eq!((ip.m, ip.n), (3, c.interior_len()), "{ctx}");
            }
            assert!(
                plan.describe().contains("batched in one m=3 run"),
                "{}",
                plan.describe()
            );
        }
    }

    #[test]
    fn two_row_chunks_are_interface_only() {
        // n = 2D: every chunk is all interface, no interior plans.
        let group = group_of(4);
        let plan = DistributedPlan::build(&group, &GpuSolverConfig::default(), 8, 8).unwrap();
        assert!(plan.chunks.iter().all(|c| c.interior.is_none()));
        let batch = random_batch::<f64>(1, 8, 13);
        let solver = GpuTridiagSolver::gtx480();
        let (x1, _) = solver.solve_batch(&batch).unwrap();
        let (x2, _) = DistributedExecutor::new(group, ExecConfig::default())
            .run(&plan, &batch)
            .unwrap();
        let worst = x1
            .iter()
            .zip(&x2)
            .map(|(a, b)| (a - b).abs())
            .fold(0.0f64, f64::max);
        assert!(worst < 1e-9, "max abs deviation {worst}");
    }

    #[test]
    fn geometry_mismatch_is_a_typed_error() {
        let group = group_of(2);
        let plan = DistributedPlan::build(&group, &GpuSolverConfig::default(), 64, 8).unwrap();
        let wrong = random_batch::<f64>(1, 32, 17);
        let err = DistributedExecutor::new(group.clone(), ExecConfig::default())
            .run(&plan, &wrong)
            .unwrap_err();
        assert!(matches!(err, SimError::InvalidPlan(_)), "{err:?}");
        let multi = random_batch::<f64>(2, 64, 17);
        let err = DistributedExecutor::new(group, ExecConfig::default())
            .run(&plan, &multi)
            .unwrap_err();
        assert!(matches!(err, SimError::InvalidPlan(_)), "{err:?}");
        // Plan built for 2 devices, executor driving 4.
        let plan2 =
            DistributedPlan::build(&group_of(2), &GpuSolverConfig::default(), 64, 8).unwrap();
        let err = DistributedExecutor::new(group_of(4), ExecConfig::default())
            .run(&plan2, &random_batch::<f64>(1, 64, 17))
            .unwrap_err();
        assert!(matches!(err, SimError::InvalidPlan(_)), "{err:?}");
    }

    #[test]
    fn plan_json_round_trips_through_the_validator() {
        for d in [1usize, 2, 4] {
            let group = group_of(d);
            let plan = DistributedPlan::build(&group, &GpuSolverConfig::default(), 128, 8).unwrap();
            let doc = gpu_sim::json::parse(&plan.to_json().to_string()).unwrap();
            let problems = validate_distributed_plan_json(&doc);
            assert!(problems.is_empty(), "D = {d}: {problems:?}");
        }
    }

    #[test]
    fn json_validator_checks_embedded_plan_shapes() {
        let plan =
            DistributedPlan::build(&group_of(2), &GpuSolverConfig::default(), 128, 8).unwrap();
        let mut doc = plan.to_json();
        if let Json::Obj(fields) = &mut doc {
            for (k, v) in fields.iter_mut() {
                match k.as_str() {
                    "identity" => *v = Json::str("none"),
                    "reduced" => *v = Json::Obj(vec![]),
                    _ => {}
                }
            }
        }
        let problems = validate_distributed_plan_json(&doc);
        assert!(
            problems
                .iter()
                .any(|p| p.contains("object-or-null field \"identity\"")),
            "{problems:?}"
        );
        assert!(
            problems
                .iter()
                .any(|p| p.starts_with("reduced: ") && p.contains("schema")),
            "{problems:?}"
        );
    }

    #[test]
    fn scatter_is_pcie_serialized_and_backsub_overlaps() {
        let group = group_of(4);
        let plan = DistributedPlan::build(&group, &GpuSolverConfig::default(), 1 << 12, 8).unwrap();
        let batch = random_batch::<f64>(1, 1 << 12, 19);
        let (_, r) = DistributedExecutor::new(group, ExecConfig::default())
            .run(&plan, &batch)
            .unwrap();
        // Device 0 finishes its back-substitution before the last
        // device: its scatter lands first on the serialized bus, so
        // its back-sub overlaps the others' interface waits.
        let first = r.shards.first().unwrap().completion_us;
        let last = r.shards.last().unwrap().completion_us;
        assert!(
            first < last,
            "pipelined back-substitution: dev0 done at {first}, dev3 at {last}"
        );
    }
}
