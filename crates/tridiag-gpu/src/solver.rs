//! The end-to-end GPU solver: algorithm transition + kernel pipeline
//! (Section III).
//!
//! [`GpuTridiagSolver::solve_batch`] is the reproduction of the paper's
//! runtime, split into two pure halves:
//!
//! - **plan** ([`crate::plan::SolvePlan::build`]): pick the PCR step
//!   count `k` from `(M, hardware)` via the transition policy (Section
//!   III-D), resolve the Fig. 11 grid mapping, and lay out the full
//!   step sequence — `k = 0` runs p-Thomas directly on the interleaved
//!   batch (Table III's `M ≥ 1024` row); `k > 0` runs tiled PCR then
//!   p-Thomas over the `2^k·M` subsystems, or the fused single-kernel
//!   pipeline (Section III-C);
//! - **execute** ([`crate::executor::PlanExecutor::run`]): walk the
//!   plan, launch the kernels, and collect every artifact.
//!
//! The returned [`GpuSolveReport`] carries per-kernel modeled timings,
//! traffic summaries, occupancy, and the plan itself — everything the
//! figure harness prints.

use crate::buffers::GpuScalar;
use crate::executor::PlanExecutor;
use crate::plan::cost::Decision;
use crate::plan::SolvePlan;
use gpu_sim::timing::TrafficSummary;
use gpu_sim::trace::Trace;
use gpu_sim::{
    BoundKind, DeviceSpec, ExecConfig, Json, KernelTiming, PhaseTiming, Result, SanitizerViolation,
};
use tridiag_core::transition::TransitionPolicy;
use tridiag_core::{Layout, SystemBatch};

/// How tiled-PCR work maps onto the grid (Fig. 11).
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum MappingVariant {
    /// Pick automatically: partition lone large systems across block
    /// groups, otherwise one block per system.
    Auto,
    /// Fig. 11(a): one block per system.
    BlockPerSystem,
    /// Fig. 11(b): each system split across this many blocks.
    BlockGroupPerSystem(usize),
    /// Fig. 11(c): this many systems multiplexed per block.
    MultiSystemPerBlock(usize),
}

/// Requested device-side memory layout for the coefficient buffers.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Default)]
pub enum LayoutChoice {
    /// Follow the transition rule: interleaved when it picks `k = 0`,
    /// contiguous otherwise.
    #[default]
    Auto,
    /// Force system-major buffers (the hybrid PCR + p-Thomas pipeline;
    /// with `k = 0` this is the uncoalesced strawman p-Thomas kept for
    /// the layout ablation bench).
    Contiguous,
    /// Force row-major-across-systems buffers: the pure coalesced
    /// p-Thomas path (`k` is forced to 0 — tiled PCR addresses
    /// contiguous systems).
    Interleaved,
}

/// Solver configuration.
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct GpuSolverConfig {
    /// Algorithm-transition policy (Section III-D).
    pub policy: TransitionPolicy,
    /// Sub-tile scale `c` (sub-tile = `c·2^k`).
    pub sub_tile_scale: usize,
    /// Fuse tiled PCR and p-Thomas into one kernel where the mapping
    /// allows and the fused kernel fits the device (Section III-C; on
    /// by default). `false` forces the split pipeline.
    pub fused: bool,
    /// Grid mapping for the tiled PCR stage.
    pub mapping: MappingVariant,
    /// Device-side layout request (`Auto` follows the transition rule).
    pub layout: LayoutChoice,
    /// Execution options — set `exec.sanitize` to run every kernel in
    /// the pipeline under the memory/race sanitizer (compute-sanitizer
    /// analog); violations land in [`GpuSolveReport::violations`].
    pub exec: ExecConfig,
}

impl Default for GpuSolverConfig {
    fn default() -> Self {
        Self {
            policy: TransitionPolicy::default(),
            sub_tile_scale: 1,
            fused: true,
            mapping: MappingVariant::Auto,
            layout: LayoutChoice::Auto,
            exec: ExecConfig::default(),
        }
    }
}

impl GpuSolverConfig {
    /// `self` with `decision` pinned — `k` (as
    /// [`TransitionPolicy::Fixed`]), the resolved mapping, fusion and
    /// the device layout — so planning any batch size under it replays
    /// that pipeline. The target device's own clamps still apply. The
    /// solve service pins every batch it coalesces at one geometry this
    /// way.
    pub fn pinned(&self, decision: Decision) -> GpuSolverConfig {
        GpuSolverConfig {
            policy: TransitionPolicy::Fixed(decision.k),
            mapping: decision.mapping,
            fused: decision.fused,
            layout: match decision.layout {
                Layout::Contiguous => LayoutChoice::Contiguous,
                Layout::Interleaved => LayoutChoice::Interleaved,
            },
            ..*self
        }
    }

    /// `self` with the tuned default ([`TransitionPolicy::Tuned`])
    /// replaced by Table III ([`TransitionPolicy::Gtx480Heuristic`]);
    /// any other policy is kept. Plans across several devices decide
    /// under it: the tuned table is keyed on one device's whole batch,
    /// and a shard or a row-split chunk is not that batch (see
    /// [`crate::plan::ShardedPlan::build`] and
    /// [`crate::DistributedPlan::build`]).
    pub fn multi_device(&self) -> GpuSolverConfig {
        match self.policy {
            TransitionPolicy::Tuned => GpuSolverConfig {
                policy: TransitionPolicy::Gtx480Heuristic,
                ..*self
            },
            _ => *self,
        }
    }

    /// `plan.config` with every decision `plan` made pinned (see
    /// [`GpuSolverConfig::pinned`]). Shards of a
    /// [`crate::plan::ShardedPlan`] plan under this.
    pub fn pinned_to(plan: &SolvePlan) -> GpuSolverConfig {
        plan.config.pinned(Decision {
            layout: plan.layout,
            mapping: plan.mapping,
            fused: plan.fused,
            k: plan.k,
        })
    }
}

/// One kernel's contribution to a solve.
#[derive(Debug, Clone, PartialEq)]
pub struct KernelReport {
    /// Modeled timing breakdown.
    pub timing: KernelTiming,
    /// Traffic/compute summary.
    pub traffic: TrafficSummary,
    /// Shared memory per block (bytes).
    pub shared_bytes: usize,
    /// Blocks launched.
    pub blocks: usize,
}

/// One device's contribution to a sharded solve (see
/// [`GpuSolveReport::shards`]). Counter fields hold the exact dynamic
/// totals summed over the shard's kernels — the partition-invariant
/// quantities the differential suite checks against the single-device
/// run.
#[derive(Debug, Clone, PartialEq)]
pub struct ShardSummary {
    /// Device name the shard ran on.
    pub device: &'static str,
    /// Index of the device in its group (= Chrome-trace track id).
    pub device_index: usize,
    /// First system (in the caller's batch) the shard owned.
    pub sys_start: usize,
    /// Number of systems the shard owned.
    pub sys_count: usize,
    /// PCR step count the shard's plan used (may be clamped below the
    /// reference `k` on a heterogeneous group).
    pub k: u32,
    /// Modeled kernel time on this device (µs, launch overheads
    /// included, copies excluded).
    pub kernel_us: f64,
    /// When this device's stream drained (µs), including the modeled
    /// H2D/D2H copies.
    pub completion_us: f64,
    /// Exact FLOPs executed by the shard's kernels.
    pub flops: u64,
    /// Exact global-memory transactions (loads + stores).
    pub global_transactions: u64,
    /// Exact global-memory bytes moved by kernels.
    pub global_bytes: u64,
}

/// Cross-device accounting for a distributed single-system solve (see
/// [`crate::distributed`]): the reduced interface system, the
/// back-substitution, and the PCIe interface exchanges — everything the
/// per-chunk [`ShardSummary`] entries do *not* cover.
#[derive(Debug, Clone, PartialEq)]
pub struct DistributedSummary {
    /// Number of devices (= chunks).
    pub devices: usize,
    /// Rows in the reduced interface system (`2 * devices`).
    pub reduced_n: usize,
    /// PCR step count the reduced plan used.
    pub reduced_k: u32,
    /// Exact FLOPs executed by the reduced solve's kernels.
    pub reduced_flops: u64,
    /// Exact global-memory transactions of the reduced solve.
    pub reduced_transactions: u64,
    /// Exact global-memory bytes moved by the reduced solve's kernels.
    pub reduced_bytes: u64,
    /// Host-side back-substitution FLOPs (4 per interior row).
    pub backsub_flops: u64,
    /// Bytes gathered to the primary over PCIe (2 interface rows x 4
    /// coefficients per chunk).
    pub gather_bytes: u64,
    /// Bytes scattered back over PCIe (2 interface values per chunk).
    pub scatter_bytes: u64,
    /// Modeled wall-clock (µs) including copies — the max over device
    /// streams.
    pub wall_clock_us: f64,
    /// Sum of every device stream's completion time (µs) — what a
    /// one-device-at-a-time execution would cost.
    pub serialized_us: f64,
}

/// Everything a solve did and cost.
#[derive(Debug, Clone, PartialEq)]
pub struct GpuSolveReport {
    /// PCR steps chosen by the transition policy (possibly clamped by
    /// shared memory).
    pub k: u32,
    /// Grid mapping actually used for the PCR stage.
    pub mapping: MappingVariant,
    /// Whether the fused pipeline ran.
    pub fused: bool,
    /// Per-kernel reports, in launch order.
    pub kernels: Vec<KernelReport>,
    /// Total modeled time (µs) — the sum of kernel times including one
    /// launch overhead each.
    pub total_us: f64,
    /// Scalar precision label (`"f32"` / `"f64"`).
    pub precision: &'static str,
    /// Sanitizer violation reports across every kernel in the pipeline
    /// (empty when the sanitizer is off or the run was clean).
    pub violations: Vec<SanitizerViolation>,
    /// Counters whose per-phase breakdown failed to sum exactly to the
    /// kernel total, prefixed with the kernel name (always checked;
    /// empty = the invariant held for every launch).
    pub phase_sum_mismatches: Vec<String>,
    /// Static plan verification (dataflow, layout pairing, liveness
    /// peak memory) the executor ran before launching anything. Always
    /// clean here — a plan with findings never executes. A
    /// multi-device report carries the certificate of a plan that ran
    /// on the primary device: shard 0's for a sharded solve (the
    /// full-batch reference in `plan` never runs), the reduced
    /// interface plan's for a row-split one. Every other device's
    /// certificate was checked before anything ran.
    pub verify: crate::verify::VerifyReport,
    /// Discrepancies between the verifier's [`crate::verify::PlanPrediction`]
    /// and the stats the run actually measured (empty = exact
    /// agreement). For sharded runs, per-shard messages prefixed
    /// `devN:`.
    pub verify_mismatches: Vec<String>,
    /// Span/event trace of the whole solve on the modeled-time axis:
    /// the transition-rule decision, mapping choice, buffer setup, and
    /// each kernel launch with its per-phase children. Export with
    /// [`gpu_sim::trace::Trace::to_chrome_json`].
    pub trace: Trace,
    /// The declarative plan the solve executed — the full step
    /// sequence with launch geometry and buffer bindings.
    pub plan: SolvePlan,
    /// Per-device summaries when the solve ran sharded across a
    /// [`gpu_sim::DeviceGroup`] (empty for a single-device solve). For
    /// sharded runs `total_us` is the **max** over these devices'
    /// `kernel_us` — devices run concurrently — and `kernels` holds
    /// every shard's launches in shard order.
    pub shards: Vec<ShardSummary>,
    /// Cross-device accounting when the solve split one system across
    /// a group (see [`crate::distributed::DistributedExecutor`]);
    /// `None` for single-device and sharded solves. When set, `shards`
    /// holds the per-chunk summaries (`sys_start`/`sys_count` are
    /// *rows*, not systems).
    pub distributed: Option<DistributedSummary>,
}

impl GpuSolveReport {
    /// `true` when the run produced no sanitizer reports (vacuously true
    /// with the sanitizer off).
    pub fn is_sanitizer_clean(&self) -> bool {
        self.violations.is_empty()
    }

    /// Modeled time of the tiled PCR stage alone (0 when `k = 0`): the
    /// whole tiled-PCR launch in the split pipeline, the fused kernel's
    /// window phases ([`crate::kernels::fused::PCR_PHASES`]) when fused.
    pub fn pcr_us(&self) -> f64 {
        let first = match self.kernels.first() {
            Some(kr) if self.k > 0 => kr,
            _ => return 0.0,
        };
        if !self.fused {
            return first.timing.total_us;
        }
        first
            .timing
            .phases
            .iter()
            .filter(|ph| crate::kernels::fused::PCR_PHASES.contains(&ph.label))
            .map(|ph| ph.us)
            .sum()
    }

    /// `true` when every kernel's per-phase counters summed exactly to
    /// its totals (the attribution invariant).
    pub fn is_phase_sum_clean(&self) -> bool {
        self.phase_sum_mismatches.is_empty()
    }

    /// `true` when the plan verifier found nothing and its resource
    /// prediction matched the executed stats exactly.
    pub fn is_verify_clean(&self) -> bool {
        self.verify.is_clean() && self.verify_mismatches.is_empty()
    }

    /// Terminal profile: top phases by modeled time across the
    /// pipeline, a bound-kind histogram, and per-phase traffic/compute.
    pub fn profile_report(&self) -> String {
        use std::fmt::Write;
        let mut out = String::new();
        let _ = writeln!(
            out,
            "profile [{}]: {:.1} us modeled, {} kernel launch(es), k = {}, {:?}{}",
            self.precision,
            self.total_us,
            self.kernels.len(),
            self.k,
            self.mapping,
            if self.fused { ", fused" } else { "" }
        );
        let mut rows: Vec<(String, &PhaseTiming)> = Vec::new();
        for kr in &self.kernels {
            for ph in &kr.timing.phases {
                rows.push((format!("{}/{}", kr.timing.name, ph.label), ph));
            }
        }
        rows.sort_by(|a, b| {
            b.1.us
                .partial_cmp(&a.1.us)
                .unwrap_or(std::cmp::Ordering::Equal)
        });
        let body_us: f64 = self
            .kernels
            .iter()
            .map(|k| k.timing.total_us - k.timing.launch_us)
            .sum();
        let _ = writeln!(out, "top phases by modeled time:");
        for (i, (name, ph)) in rows.iter().enumerate().take(10) {
            let _ = writeln!(
                out,
                "  {:>2}. {:<28} {:>9.2} us ({:>4.1}%)  {:<9} {:>9.3} MiB {:>9.3} Mflop",
                i + 1,
                name,
                ph.us,
                if body_us > 0.0 {
                    100.0 * ph.us / body_us
                } else {
                    0.0
                },
                format!("{:?}", ph.bound),
                ph.stats.global_bytes() as f64 / (1024.0 * 1024.0),
                ph.stats.flops as f64 / 1e6,
            );
        }
        let mut histo: Vec<(BoundKind, usize)> = Vec::new();
        for (_, ph) in &rows {
            match histo.iter_mut().find(|(b, _)| *b == ph.bound) {
                Some((_, n)) => *n += 1,
                None => histo.push((ph.bound, 1)),
            }
        }
        histo.sort_by_key(|h| std::cmp::Reverse(h.1));
        let histo_txt: Vec<String> = histo.iter().map(|(b, n)| format!("{b:?} x{n}")).collect();
        let launch_us: f64 = self.kernels.iter().map(|k| k.timing.launch_us).sum();
        let _ = writeln!(
            out,
            "phase bound kinds: {}; launch overhead {:.1} us across {} launch(es)",
            if histo_txt.is_empty() {
                "none".into()
            } else {
                histo_txt.join(", ")
            },
            launch_us,
            self.kernels.len()
        );
        if !self.phase_sum_mismatches.is_empty() {
            let _ = writeln!(out, "PHASE-SUM VIOLATIONS:");
            for m in &self.phase_sum_mismatches {
                let _ = writeln!(out, "  - {m}");
            }
        }
        out
    }

    /// Serialize the full report (timings, per-phase breakdowns,
    /// sanitizer findings, the plan, and the trace) as a JSON
    /// object.
    pub fn to_json(&self) -> Json {
        let phase_json = |ph: &PhaseTiming| {
            Json::Obj(vec![
                ("label".into(), Json::str(ph.label)),
                ("us".into(), Json::num(ph.us)),
                ("compute_us".into(), Json::num(ph.compute_us)),
                ("bandwidth_us".into(), Json::num(ph.bandwidth_us)),
                ("latency_us".into(), Json::num(ph.latency_us)),
                ("bound".into(), Json::str(format!("{:?}", ph.bound))),
                ("flops".into(), Json::num(ph.stats.flops as f64)),
                (
                    "global_bytes".into(),
                    Json::num(ph.stats.global_bytes() as f64),
                ),
                (
                    "global_transactions".into(),
                    Json::num(ph.stats.global_transactions() as f64),
                ),
                (
                    "rounds".into(),
                    Json::num(ph.stats.global_access_rounds as f64),
                ),
                (
                    "shared_accesses".into(),
                    Json::num(ph.stats.shared_accesses as f64),
                ),
                (
                    "bank_conflict_replays".into(),
                    Json::num(ph.stats.bank_conflict_replays as f64),
                ),
                ("barriers".into(), Json::num(ph.stats.barriers as f64)),
            ])
        };
        let kernels = self
            .kernels
            .iter()
            .map(|kr| {
                Json::Obj(vec![
                    ("name".into(), Json::str(kr.timing.name)),
                    ("blocks".into(), Json::num(kr.blocks as f64)),
                    ("shared_bytes".into(), Json::num(kr.shared_bytes as f64)),
                    ("total_us".into(), Json::num(kr.timing.total_us)),
                    ("launch_us".into(), Json::num(kr.timing.launch_us)),
                    ("compute_us".into(), Json::num(kr.timing.compute_us)),
                    ("bandwidth_us".into(), Json::num(kr.timing.bandwidth_us)),
                    ("latency_us".into(), Json::num(kr.timing.latency_us)),
                    ("bound".into(), Json::str(format!("{:?}", kr.timing.bound))),
                    ("waves".into(), Json::num(kr.timing.waves)),
                    ("occupancy".into(), Json::num(kr.timing.occupancy_fraction)),
                    ("traffic_mib".into(), Json::num(kr.traffic.traffic_mib)),
                    ("coalescing".into(), Json::num(kr.traffic.coalescing)),
                    ("mflops".into(), Json::num(kr.traffic.mflops)),
                    (
                        "phases".into(),
                        Json::Arr(kr.timing.phases.iter().map(phase_json).collect()),
                    ),
                ])
            })
            .collect();
        let strings = |v: &[String]| Json::Arr(v.iter().map(Json::str).collect());
        let trace =
            gpu_sim::json::parse(&self.trace.to_chrome_json()).expect("exporter emits valid JSON");
        let shards = self
            .shards
            .iter()
            .map(|sh| {
                Json::Obj(vec![
                    ("device".into(), Json::str(sh.device)),
                    ("device_index".into(), Json::num(sh.device_index as f64)),
                    ("sys_start".into(), Json::num(sh.sys_start as f64)),
                    ("sys_count".into(), Json::num(sh.sys_count as f64)),
                    ("k".into(), Json::num(sh.k)),
                    ("kernel_us".into(), Json::num(sh.kernel_us)),
                    ("completion_us".into(), Json::num(sh.completion_us)),
                    ("flops".into(), Json::num(sh.flops as f64)),
                    (
                        "global_transactions".into(),
                        Json::num(sh.global_transactions as f64),
                    ),
                    ("global_bytes".into(), Json::num(sh.global_bytes as f64)),
                ])
            })
            .collect();
        Json::Obj(vec![
            ("k".into(), Json::num(self.k)),
            ("mapping".into(), Json::str(format!("{:?}", self.mapping))),
            ("fused".into(), Json::Bool(self.fused)),
            ("precision".into(), Json::str(self.precision)),
            ("total_us".into(), Json::num(self.total_us)),
            ("kernels".into(), Json::Arr(kernels)),
            (
                "violations".into(),
                Json::Arr(
                    self.violations
                        .iter()
                        .map(|v| Json::str(v.to_string()))
                        .collect(),
                ),
            ),
            (
                "phase_sum_mismatches".into(),
                strings(&self.phase_sum_mismatches),
            ),
            ("verify".into(), self.verify.to_json()),
            ("verify_mismatches".into(), strings(&self.verify_mismatches)),
            ("plan".into(), self.plan.to_json()),
            ("shards".into(), Json::Arr(shards)),
            (
                "distributed".into(),
                self.distributed.as_ref().map_or(Json::Null, |d| {
                    Json::Obj(vec![
                        ("devices".into(), Json::num(d.devices as f64)),
                        ("reduced_n".into(), Json::num(d.reduced_n as f64)),
                        ("reduced_k".into(), Json::num(d.reduced_k)),
                        ("reduced_flops".into(), Json::num(d.reduced_flops as f64)),
                        (
                            "reduced_transactions".into(),
                            Json::num(d.reduced_transactions as f64),
                        ),
                        ("reduced_bytes".into(), Json::num(d.reduced_bytes as f64)),
                        ("backsub_flops".into(), Json::num(d.backsub_flops as f64)),
                        ("gather_bytes".into(), Json::num(d.gather_bytes as f64)),
                        ("scatter_bytes".into(), Json::num(d.scatter_bytes as f64)),
                        ("wall_clock_us".into(), Json::num(d.wall_clock_us)),
                        ("serialized_us".into(), Json::num(d.serialized_us)),
                    ])
                }),
            ),
            ("trace".into(), trace),
        ])
    }
}

/// The solver: a device spec plus a configuration.
#[derive(Debug, Clone)]
pub struct GpuTridiagSolver {
    spec: DeviceSpec,
    config: GpuSolverConfig,
}

impl GpuTridiagSolver {
    /// Build a solver for `spec` with `config`.
    pub fn new(spec: DeviceSpec, config: GpuSolverConfig) -> Self {
        Self { spec, config }
    }

    /// GTX480 with the paper's defaults.
    pub fn gtx480() -> Self {
        Self::new(DeviceSpec::gtx480(), GpuSolverConfig::default())
    }

    /// The device spec in use.
    pub fn spec(&self) -> &DeviceSpec {
        &self.spec
    }

    /// Largest `k` whose window still fits this device's shared memory
    /// at scale `c` and element size `bytes`.
    pub fn max_k_for_shared(&self, c: usize, bytes: usize) -> u32 {
        crate::plan::max_k_for_shared(&self.spec, c, bytes)
    }

    /// Plan (but do not execute) a solve of `m` systems of `n` rows at
    /// `elem_bytes` scalar width, handed over contiguous.
    pub fn plan_geometry(&self, m: usize, n: usize, elem_bytes: usize) -> Result<SolvePlan> {
        SolvePlan::build(&self.spec, &self.config, m, n, elem_bytes)
    }

    /// [`Self::plan_geometry`] for a batch that arrives in
    /// `host_layout`: the plan [`Self::solve_batch`] runs on such a
    /// batch (see [`SolvePlan::build_for_host`]) — the dry-run entry
    /// point behind `tridiag plan` and `solve --dry-run`.
    pub fn plan_geometry_for_host(
        &self,
        host_layout: Layout,
        m: usize,
        n: usize,
        elem_bytes: usize,
    ) -> Result<SolvePlan> {
        SolvePlan::build_for_host(&self.spec, &self.config, host_layout, m, n, elem_bytes)
    }

    /// Solve every system in `batch` on the simulated device: build the
    /// plan, then run it through the executor. Returns the solutions in
    /// the batch's layout plus the solve report. A batch that already
    /// arrives in the chosen device layout plans with the
    /// `Convert`/`ConvertBack` steps elided (see
    /// [`SolvePlan::build_for_host`]).
    pub fn solve_batch<S: GpuScalar>(
        &self,
        batch: &SystemBatch<S>,
    ) -> Result<(Vec<S>, GpuSolveReport)> {
        let plan = self.plan_geometry_for_host(
            batch.layout(),
            batch.num_systems(),
            batch.system_len(),
            <S as gpu_sim::Elem>::BYTES,
        )?;
        let mut executor = PlanExecutor::new(self.spec.clone(), self.config.exec);
        executor.run(&plan, batch)
    }

    /// Plan (but do not execute) a solve sharded across `group` — the
    /// dry-run entry point behind `plan --devices` and
    /// `solve --devices --dry-run`. The group's devices are
    /// authoritative; the solver's own spec is ignored.
    pub fn plan_geometry_group(
        &self,
        group: &gpu_sim::DeviceGroup,
        m: usize,
        n: usize,
        elem_bytes: usize,
    ) -> Result<crate::plan::ShardedPlan> {
        crate::plan::ShardedPlan::build(group, &self.config, m, n, elem_bytes)
    }

    /// Solve `batch` sharded across `group`: build the sharded plan,
    /// then run one executor per device on real threads and merge the
    /// per-shard artifacts (see [`crate::sharded::ShardedExecutor`]).
    /// On a homogeneous group the solutions are bit-identical to
    /// [`Self::solve_batch`]; a single-device group *is* the
    /// single-device path.
    pub fn solve_batch_group<S: GpuScalar>(
        &self,
        group: &gpu_sim::DeviceGroup,
        batch: &SystemBatch<S>,
    ) -> Result<(Vec<S>, GpuSolveReport)> {
        let plan = self.plan_geometry_group(
            group,
            batch.num_systems(),
            batch.system_len(),
            <S as gpu_sim::Elem>::BYTES,
        )?;
        crate::sharded::ShardedExecutor::new(group.clone(), self.config.exec).run(&plan, batch)
    }

    /// Plan (but do not execute) a distributed solve of one `n`-row
    /// system split across `group` — the dry-run entry point behind
    /// `plan --split-n` and `solve --split-n --dry-run`. The group's
    /// devices are authoritative; the solver's own spec is ignored.
    pub fn plan_geometry_split(
        &self,
        group: &gpu_sim::DeviceGroup,
        n: usize,
        elem_bytes: usize,
    ) -> Result<crate::distributed::DistributedPlan> {
        crate::distributed::DistributedPlan::build(group, &self.config, n, elem_bytes)
    }

    /// Solve one system split by rows across `group`: per-device
    /// partial elimination, the reduced interface solve on the primary,
    /// distributed back substitution (see
    /// [`crate::distributed::DistributedExecutor`]). `batch` must hold
    /// exactly one system. A single-device group *is* the single-device
    /// path, bit for bit; `D >= 2` matches it to a condition-derived
    /// tolerance (DESIGN.md §15).
    pub fn solve_batch_split<S: GpuScalar + Send + Sync>(
        &self,
        group: &gpu_sim::DeviceGroup,
        batch: &SystemBatch<S>,
    ) -> Result<(Vec<S>, GpuSolveReport)> {
        let plan =
            self.plan_geometry_split(group, batch.system_len(), <S as gpu_sim::Elem>::BYTES)?;
        crate::distributed::DistributedExecutor::new(group.clone(), self.config.exec)
            .run(&plan, batch)
    }
}

/// Convenience: solve with defaults on a GTX480; returns the solution
/// in the batch's layout.
pub fn solve_batch_gtx480<S: GpuScalar>(
    batch: &SystemBatch<S>,
) -> Result<(Vec<S>, GpuSolveReport)> {
    GpuTridiagSolver::gtx480().solve_batch(batch)
}

#[cfg(test)]
mod tests {
    use super::*;
    use tridiag_core::generators::random_batch;
    use tridiag_core::verify;

    /// Solve `m` random systems of `n` rows under the paper replay
    /// (Table III) and under the default, check both residuals against
    /// `tol`, and assert the default never models slower. Returns the
    /// paper replay's report.
    fn default_no_slower_than_paper<S: GpuScalar>(m: usize, n: usize, tol: f64) -> GpuSolveReport {
        let batch = random_batch::<S>(m, n, 7 + m as u64);
        let paper = GpuTridiagSolver::new(
            DeviceSpec::gtx480(),
            GpuSolverConfig {
                policy: TransitionPolicy::Gtx480Heuristic,
                ..Default::default()
            },
        );
        let (x, report) = paper.solve_batch(&batch).unwrap();
        let resid = batch.max_relative_residual(&x).unwrap();
        assert!(resid < tol, "m={m} n={n}: residual {resid}");
        assert!(report.total_us > 0.0);
        let (x, tuned) = solve_batch_gtx480(&batch).unwrap();
        let resid = batch.max_relative_residual(&x).unwrap();
        assert!(resid < tol, "m={m} n={n}: residual {resid}");
        assert!(
            tuned.total_us <= report.total_us,
            "m={m} n={n}: tuned k={} {} us > Table III k={} {} us",
            tuned.k,
            tuned.total_us,
            report.k,
            report.total_us
        );
        report
    }

    #[test]
    #[cfg_attr(debug_assertions, ignore = "slow simulation; run with --release")]
    fn solves_across_the_table3_regimes() {
        // (m, n) pairs spanning every Table III row (k = 8, 7, 6, 5, 0),
        // sizes kept moderate for test speed. The paper replay takes
        // Table III's k; the default takes the tuned table's decision,
        // which never models slower.
        for (m, n) in [
            (1usize, 2048usize),
            (16, 1024),
            (64, 512),
            (600, 256),
            (1100, 64),
        ] {
            let report = default_no_slower_than_paper::<f64>(m, n, 1e-9);
            let expected_k = tridiag_core::cost_model::gtx480_heuristic_k(m as u64)
                .min(tridiag_core::transition::max_k_for(n));
            assert_eq!(report.k, expected_k, "m={m} n={n}");
        }
        // Corners above the generation cap (M·N > 2^22 rows), where
        // Table III takes p-Thomas and a hybrid k would lose.
        default_no_slower_than_paper::<f64>(1024, 16384, 1e-9);
        default_no_slower_than_paper::<f32>(2048, 4096, 1e-3);
    }

    #[test]
    fn f32_path_works() {
        let batch = random_batch::<f32>(32, 512, 3);
        let (x, report) = solve_batch_gtx480(&batch).unwrap();
        assert!(batch.max_relative_residual(&x).unwrap() < 1e-3);
        assert_eq!(report.precision, "f32");
    }

    #[test]
    fn k0_path_is_single_kernel() {
        let batch = random_batch::<f64>(2048, 128, 5);
        let (_, report) = solve_batch_gtx480(&batch).unwrap();
        assert_eq!(report.k, 0);
        assert_eq!(report.kernels.len(), 1);
    }

    #[test]
    fn report_carries_the_executed_plan() {
        let batch = random_batch::<f64>(32, 512, 5);
        let solver = GpuTridiagSolver::gtx480();
        let (_, report) = solver.solve_batch(&batch).unwrap();
        let planned = solver.plan_geometry(32, 512, 8).unwrap();
        assert_eq!(report.plan, planned);
        assert_eq!(
            report.kernels.len(),
            report.plan.launches().count(),
            "one report per planned launch"
        );
    }

    #[test]
    #[cfg_attr(debug_assertions, ignore = "slow simulation; run with --release")]
    fn hybrid_path_is_two_kernels_fused_is_one() {
        let batch = random_batch::<f64>(64, 1024, 9);
        let split = GpuTridiagSolver::new(
            DeviceSpec::gtx480(),
            GpuSolverConfig {
                fused: false,
                ..Default::default()
            },
        );
        let (_, r_split) = split.solve_batch(&batch).unwrap();
        assert_eq!(r_split.kernels.len(), 2);
        assert!(!r_split.fused);

        let fused = GpuTridiagSolver::new(
            DeviceSpec::gtx480(),
            GpuSolverConfig {
                fused: true,
                mapping: MappingVariant::BlockPerSystem,
                ..Default::default()
            },
        );
        let (xf, r_fused) = fused.solve_batch(&batch).unwrap();
        assert!(r_fused.fused);
        assert_eq!(r_fused.kernels.len(), 1);
        assert!(batch.max_relative_residual(&xf).unwrap() < 1e-9);
        // One launch overhead saved.
        let spec = DeviceSpec::gtx480();
        let split_launches = 2.0 * spec.launch_overhead_us;
        let fused_launches = spec.launch_overhead_us;
        assert!(split_launches > fused_launches);
    }

    #[test]
    fn pcr_us_counts_the_fused_kernels_window_phases() {
        let batch = random_batch::<f64>(8, 256, 5);
        let run = |fused| {
            let config = GpuSolverConfig {
                policy: TransitionPolicy::Fixed(5),
                fused,
                mapping: MappingVariant::BlockPerSystem,
                ..Default::default()
            };
            let solver = GpuTridiagSolver::new(DeviceSpec::gtx480(), config);
            solver.solve_batch(&batch).unwrap().1
        };
        let split = run(false);
        assert_eq!(split.pcr_us(), split.kernels[0].timing.total_us);
        let fused = run(true);
        assert!(fused.fused);
        let labels: Vec<&str> = fused.kernels[0]
            .timing
            .phases
            .iter()
            .map(|p| p.label)
            .collect();
        for phase in crate::kernels::fused::PCR_PHASES {
            assert!(labels.contains(&phase), "no {phase} phase in {labels:?}");
        }
        let pcr = fused.pcr_us();
        assert!(
            pcr > 0.0 && pcr < fused.total_us,
            "{pcr} of {}",
            fused.total_us
        );
    }

    #[test]
    fn pinned_to_replays_the_fusion_choice() {
        let spec = DeviceSpec::gtx480();
        for fused in [true, false] {
            let config = GpuSolverConfig {
                fused,
                ..Default::default()
            };
            let plan = SolvePlan::build(&spec, &config, 64, 512, 8).unwrap();
            assert_eq!(plan.fused, fused);
            // m = 8 alone would plan a different k.
            let pinned = GpuSolverConfig::pinned_to(&plan);
            let replay = SolvePlan::build(&spec, &pinned, 8, 512, 8).unwrap();
            assert_eq!(
                (replay.k, replay.mapping, replay.fused, replay.layout),
                (plan.k, plan.mapping, plan.fused, plan.layout),
                "fused={fused}"
            );
            let unpinned = SolvePlan::build(&spec, &config, 8, 512, 8).unwrap();
            assert_ne!(unpinned.k, plan.k);
        }
    }

    #[test]
    #[cfg_attr(debug_assertions, ignore = "slow simulation; run with --release")]
    fn lone_large_system_gets_partitioned() {
        let batch = random_batch::<f64>(1, 1 << 16, 11);
        let (x, report) = solve_batch_gtx480(&batch).unwrap();
        assert!(batch.max_relative_residual(&x).unwrap() < 1e-9);
        assert!(
            matches!(report.mapping, MappingVariant::BlockGroupPerSystem(g) if g > 1),
            "mapping {:?}",
            report.mapping
        );
    }

    #[test]
    fn explicit_multi_system_mapping() {
        let batch = random_batch::<f64>(8, 512, 13);
        let solver = GpuTridiagSolver::new(
            DeviceSpec::gtx480(),
            GpuSolverConfig {
                policy: TransitionPolicy::Fixed(4),
                mapping: MappingVariant::MultiSystemPerBlock(2),
                ..Default::default()
            },
        );
        let (x, report) = solver.solve_batch(&batch).unwrap();
        assert!(batch.max_relative_residual(&x).unwrap() < 1e-9);
        assert_eq!(report.k, 4);
        assert!(matches!(
            report.mapping,
            MappingVariant::MultiSystemPerBlock(2)
        ));
        // Half the blocks of block-per-system.
        assert_eq!(report.kernels[0].blocks, 4);
    }

    #[test]
    #[cfg_attr(debug_assertions, ignore = "slow simulation; run with --release")]
    fn shared_memory_clamps_k_on_small_devices() {
        let solver = GpuTridiagSolver::new(DeviceSpec::gtx280(), GpuSolverConfig::default());
        // GTX280 has 16 KiB shared: k = 8 in f64 cannot fit.
        let max_k = solver.max_k_for_shared(1, 8);
        assert!(max_k < 8, "got {max_k}");
        let batch = random_batch::<f64>(1, 4096, 17);
        let (x, report) = solver.solve_batch(&batch).unwrap();
        assert!(batch.max_relative_residual(&x).unwrap() < 1e-9);
        assert!(report.k <= max_k);
    }

    #[test]
    fn sanitized_pipeline_is_clean_end_to_end() {
        // Both solver paths (hybrid split and fused) under the sanitizer:
        // every kernel must run without races, OOB lanes or uninitialized
        // reads, and the report must say so.
        for fused in [false, true] {
            let solver = GpuTridiagSolver::new(
                DeviceSpec::gtx480(),
                GpuSolverConfig {
                    policy: TransitionPolicy::Fixed(3),
                    fused,
                    mapping: MappingVariant::BlockPerSystem,
                    exec: ExecConfig::sanitized(),
                    ..Default::default()
                },
            );
            let batch = random_batch::<f64>(4, 256, 23);
            let (x, report) = solver.solve_batch(&batch).unwrap();
            assert!(batch.max_relative_residual(&x).unwrap() < 1e-9);
            assert!(
                report.is_sanitizer_clean(),
                "fused={fused}: {:?}",
                report.violations
            );
        }
    }

    #[test]
    fn matches_host_hybrid_numerically() {
        use tridiag_core::hybrid::{solve_batch as host_solve, HybridConfig};
        let batch = random_batch::<f64>(4, 777, 19);
        let (xg, _) = solve_batch_gtx480(&batch).unwrap();
        let (xh, _) = host_solve(&batch, HybridConfig::default()).unwrap();
        for i in 0..xg.len() {
            assert!((xg[i] - xh[i]).abs() < 1e-8, "row {i}");
        }
        let s0 = batch.system(0).unwrap();
        verify::check_solution(&s0, &batch.split_solution(&xg).unwrap()[0], 1e-9).unwrap();
    }
}

impl std::fmt::Display for GpuSolveReport {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        writeln!(
            f,
            "GPU solve [{}]: {:.1} us total, k = {} PCR steps, {:?}{}",
            self.precision,
            self.total_us,
            self.k,
            self.mapping,
            if self.fused { ", fused" } else { "" }
        )?;
        for kr in &self.kernels {
            writeln!(
                f,
                "  {:>18}: {:>9.1} us  ({:?}-bound, {:>3.0}% occupancy, {:>7.2} MiB, {:>5.1}% coalesced, {} blocks)",
                kr.timing.name,
                kr.timing.total_us,
                kr.timing.bound,
                kr.timing.occupancy_fraction * 100.0,
                kr.traffic.traffic_mib,
                kr.traffic.coalescing * 100.0,
                kr.blocks,
            )?;
        }
        if !self.violations.is_empty() {
            writeln!(f, "  sanitizer: {} violation(s)", self.violations.len())?;
            for v in &self.violations {
                writeln!(f, "    - {v}")?;
            }
        }
        if !self.phase_sum_mismatches.is_empty() {
            writeln!(
                f,
                "  phase sums: {} counter(s) failed to add up",
                self.phase_sum_mismatches.len()
            )?;
            for m in &self.phase_sum_mismatches {
                writeln!(f, "    - {m}")?;
            }
        }
        if !self.is_verify_clean() {
            writeln!(
                f,
                "  verify: {} finding(s), {} prediction mismatch(es)",
                self.verify.findings.len(),
                self.verify_mismatches.len()
            )?;
            for v in &self.verify.findings {
                writeln!(f, "    - {v}")?;
            }
            for m in &self.verify_mismatches {
                writeln!(f, "    - prediction {m}")?;
            }
        }
        Ok(())
    }
}

#[cfg(test)]
mod display_tests {
    use super::*;
    use tridiag_core::generators::random_batch;

    #[test]
    fn report_display_is_informative() {
        let batch = random_batch::<f64>(32, 512, 1);
        let split = GpuTridiagSolver::new(
            DeviceSpec::gtx480(),
            GpuSolverConfig {
                fused: false,
                ..Default::default()
            },
        );
        let (_, report) = split.solve_batch(&batch).unwrap();
        let text = report.to_string();
        assert!(text.contains("k = 4"), "{text}");
        assert!(text.contains("tiled_pcr"), "{text}");
        assert!(text.contains("p_thomas"), "{text}");
        assert!(text.contains("occupancy"), "{text}");
    }
}
