//! The deterministic solve engine behind the service: decision
//! pinning, the tick loop, admission control and latency attribution,
//! all on the modeled-time axis (no wall clocks anywhere).
//!
//! **Decision pinning.** A request's answer must not depend on its
//! co-tenants. The planner chooses `(k, mapping, fused, layout)` from
//! the batch size `M`, and a coalesced batch's `M` varies with traffic
//! — so the service never lets the planner see the fused `M`. Each
//! request's decision is the planner's for the request alone
//! ([`Payload::decision`]: [`tridiag_gpu::plan::cost::decide`] under
//! the default config on the primary device, what
//! [`tridiag_gpu::GpuTridiagSolver::solve_batch`] takes for it); only
//! requests with equal decisions coalesce, and the fused batch runs
//! with that decision pinned ([`GpuSolverConfig::pinned`]: `k`,
//! resolved mapping, fusion, layout). Per-system arithmetic depends
//! only on `(k, layout)` — not on the mapping, fusion or batch size
//! (the `pipeline_choices_are_bit_neutral` property test and the
//! sharded differential harness prove it) — so every answer equals the
//! request's own `solve_batch`, bit for bit.
//!
//! **The tick.** When the device frees and the queue is non-empty, a
//! coalescing window opens; it closes `window_us` later. Requests
//! arriving by the close join the queue (bounced with
//! [`ServiceError::Overloaded`] beyond `queue_depth`); at the close
//! the whole queue drains, coalesces by `(n, precision, decision)`, and
//! the batches run back-to-back. `window_us == 0` disables coalescing:
//! exactly one request per tick, the solo baseline.

use std::sync::Arc;

use gpu_sim::group::copy_us;
use gpu_sim::{DeviceGroup, ExecConfig, Result, SimError};
use tridiag_core::SystemBatch;
use tridiag_gpu::buffers::GpuScalar;
use tridiag_gpu::plan::cost::Decision;
use tridiag_gpu::solver::GpuSolverConfig;
use tridiag_gpu::{ShardedExecutor, ShardedPlan};

use crate::cache::{CacheStats, PlanCache};
use crate::coalesce::{coalesce, CoalescedBatch};
use crate::report::{BatchSummary, DeviceSpan, ServiceReport, SloConfig};
use crate::request::{Payload, RequestSpans, Response, ServiceError, Solution, SolveRequest};
use crate::telemetry::Telemetry;

/// Plan-cache capacity (plans, not bytes).
pub const CACHE_CAPACITY: usize = 32;

/// Service tuning knobs.
#[derive(Debug, Clone, Copy)]
pub struct ServiceConfig {
    /// Coalescing window (µs of modeled time a tick stays open after
    /// it starts). `0.0` disables coalescing — one request per tick.
    pub window_us: f64,
    /// Bounded queue depth; submissions beyond it are rejected with
    /// [`ServiceError::Overloaded`].
    pub queue_depth: usize,
    /// Latency-objective targets for the report's SLO accounting.
    pub slo: SloConfig,
}

impl Default for ServiceConfig {
    fn default() -> Self {
        Self {
            window_us: 10.0,
            queue_depth: 64,
            slo: SloConfig::default(),
        }
    }
}

/// The deterministic engine: device group, plan cache, pinned
/// decisions, and the tick machinery. The threaded
/// [`crate::service::SolveService`] and the modeled
/// [`ServiceCore::run_workload`] both drive this.
#[derive(Debug)]
pub struct ServiceCore {
    group: DeviceGroup,
    cfg: ServiceConfig,
    cache: PlanCache,
    telemetry: Telemetry,
}

/// One solved fused batch plus everything needed for attribution.
struct BatchRun {
    batch: CoalescedBatch,
    cache_hit: bool,
    isolated: bool,
    /// `(kernel_us, scatter_us, cache_hit, result)` per member, in
    /// member order. For non-isolated runs `kernel_us` repeats the
    /// fused kernel time.
    outcomes: Vec<(f64, f64, bool, Result<Solution>)>,
    kernel_us: f64,
    /// Per-device shard execution of the fused kernel (empty for
    /// isolated fallbacks and failed batches).
    devices: Vec<DeviceSpan>,
}

impl ServiceCore {
    /// An engine over `group` with tuning `cfg`.
    pub fn new(group: DeviceGroup, cfg: ServiceConfig) -> Self {
        Self {
            group,
            cache: PlanCache::new(CACHE_CAPACITY),
            cfg,
            telemetry: Telemetry::new(),
        }
    }

    /// The telemetry accumulated so far (metrics + event log).
    pub fn telemetry(&self) -> &Telemetry {
        &self.telemetry
    }

    /// Mutable access for drivers that record admission-time events
    /// themselves (the threaded worker's shutdown drain).
    pub fn telemetry_mut(&mut self) -> &mut Telemetry {
        &mut self.telemetry
    }

    /// Hand the accumulated telemetry to the caller, resetting the
    /// core's sink (the threaded service uses this at shutdown).
    pub fn take_telemetry(&mut self) -> Telemetry {
        std::mem::replace(&mut self.telemetry, Telemetry::new())
    }

    /// The device group solves run on.
    pub fn group(&self) -> &DeviceGroup {
        &self.group
    }

    /// The tuning knobs.
    pub fn config(&self) -> &ServiceConfig {
        &self.cfg
    }

    /// Plan-cache counters so far.
    pub fn cache_stats(&self) -> CacheStats {
        self.cache.stats()
    }

    /// The group a batch of `m` systems actually shards over: the full
    /// group, or — when `m` is too small to give every device a shard —
    /// just the primary device.
    fn effective_group(&self, m: usize) -> DeviceGroup {
        if m >= self.group.len() {
            self.group.clone()
        } else {
            DeviceGroup::single(self.group.primary().clone())
        }
    }

    /// Solve one payload alone under its own pinned decision
    /// ([`Payload::decision`] on the primary device). Returns the
    /// solution, the modeled kernel time, whether the plan came from
    /// the cache, and the per-device shard execution.
    pub fn solve_payload(
        &mut self,
        payload: &Payload,
    ) -> Result<(Solution, f64, bool, Vec<DeviceSpan>)> {
        let decision = payload.decision(self.group.primary());
        self.solve_pinned(payload, decision)
    }

    /// Solve one payload with `decision` pinned, whatever its batch
    /// size (see the module docs).
    fn solve_pinned(
        &mut self,
        payload: &Payload,
        decision: Decision,
    ) -> Result<(Solution, f64, bool, Vec<DeviceSpan>)> {
        let n = payload.system_len();
        let bytes = payload.elem_bytes();
        let config = GpuSolverConfig::default().pinned(decision);
        let m = payload.num_systems();
        let group = self.effective_group(m);
        let (plan, hit) = self.cache.lookup(&group, &config, m, n, bytes)?;
        let exec = config.exec;
        match payload {
            Payload::F32(b) => run_plan::<f32>(&group, exec, &plan, b)
                .map(|(x, us, devices)| (Solution::F32(x), us, hit, devices)),
            Payload::F64(b) => run_plan::<f64>(&group, exec, &plan, b)
                .map(|(x, us, devices)| (Solution::F64(x), us, hit, devices)),
        }
    }

    /// Slice a fused solution back into per-member solutions, in
    /// member order.
    fn scatter(batch: &CoalescedBatch, solution: &Solution) -> Vec<Solution> {
        match (&batch.payload, solution) {
            (Payload::F32(merged), Solution::F32(x)) => {
                split_members(batch, merged, x, Solution::F32)
            }
            (Payload::F64(merged), Solution::F64(x)) => {
                split_members(batch, merged, x, Solution::F64)
            }
            _ => unreachable!("solution width always matches its payload"),
        }
    }

    /// Solve one coalesced batch under its members' shared decision.
    /// On a solver fault the batch is *isolated*: every member
    /// re-solves alone under the same decision, so the fault lands only
    /// on the member(s) that carry the bad system and healthy
    /// co-tenants still complete.
    fn run_batch(&mut self, batch: CoalescedBatch) -> BatchRun {
        match self.solve_pinned(&batch.payload, batch.key.decision) {
            Ok((solution, kernel_us, cache_hit, devices)) => {
                let pieces = Self::scatter(&batch, &solution);
                let outcomes = batch
                    .members
                    .iter()
                    .zip(pieces)
                    .map(|(mem, piece)| {
                        (kernel_us, copy_us(mem.solution_bytes), cache_hit, Ok(piece))
                    })
                    .collect();
                BatchRun {
                    batch,
                    cache_hit,
                    isolated: false,
                    outcomes,
                    kernel_us,
                    devices,
                }
            }
            Err(fused_err) => self.isolate(batch, fused_err),
        }
    }

    fn isolate(&mut self, batch: CoalescedBatch, fused_err: SimError) -> BatchRun {
        let mut outcomes = Vec::with_capacity(batch.members.len());
        let mut kernel_total = 0.0;
        // Re-extract each member's systems from the fused payload so
        // isolation needs no access to the original requests.
        for mem in &batch.members {
            let solo = member_payload(&batch, mem);
            match solo.and_then(|p| self.solve_pinned(&p, batch.key.decision)) {
                Ok((x, us, hit, _devices)) => {
                    kernel_total += us;
                    outcomes.push((us, copy_us(mem.solution_bytes), hit, Ok(x)));
                }
                Err(e) => outcomes.push((0.0, 0.0, false, Err(e))),
            }
        }
        // If *no* member faults alone, the fused failure was not a
        // data fault (e.g. a plan error) — attribute it to everyone.
        if outcomes.iter().all(|(_, _, _, r)| r.is_ok()) {
            for o in &mut outcomes {
                o.3 = Err(SimError::InvalidPlan(format!(
                    "fused batch failed but every member solves alone: {fused_err}"
                )));
                o.0 = 0.0;
                o.1 = 0.0;
            }
            kernel_total = 0.0;
        }
        BatchRun {
            batch,
            cache_hit: false,
            isolated: true,
            outcomes,
            kernel_us: kernel_total,
            devices: Vec::new(),
        }
    }

    /// Run one tick: coalesce `working` (admitted requests, arrival
    /// order), solve the batches back-to-back starting at `close`, and
    /// attribute spans. `open`/`close` bound the coalescing window on
    /// the modeled axis. Returns the responses (in working-set order),
    /// the batch summaries, and the time the device frees.
    pub fn solve_tick(
        &mut self,
        open_us: f64,
        close_us: f64,
        working: &[SolveRequest],
        batch_base: usize,
    ) -> (Vec<Response>, Vec<BatchSummary>, f64) {
        let mut responses: Vec<Option<Response>> = vec![None; working.len()];
        let mut summaries = Vec::new();
        let tick = self.telemetry.on_tick_open(open_us, working);
        let batches = match coalesce(self.group.primary(), working) {
            Ok(b) => b,
            Err(e) => {
                // Coalescing itself cannot fail on well-formed
                // requests; if it does, fail the whole tick typed.
                let msg = e.to_string();
                for (slot, req) in working.iter().enumerate() {
                    responses[slot] = Some(Response {
                        id: req.id,
                        result: Err(ServiceError::InvalidRequest(msg.clone())),
                        spans: RequestSpans::default(),
                        batch: None,
                        coalesced_with: 0,
                        cache_hit: false,
                        completed_us: req.arrival_us,
                    });
                }
                self.telemetry.on_tick_close(tick, close_us, 0);
                let out: Vec<Response> =
                    responses.into_iter().map(|r| r.expect("filled")).collect();
                for (slot, r) in out.iter().enumerate() {
                    self.telemetry
                        .on_response(r, working[slot].payload.precision());
                }
                return (out, summaries, close_us);
            }
        };
        self.telemetry.on_tick_close(tick, close_us, batches.len());

        let mut device_free = close_us;
        for (bi, batch) in batches.into_iter().enumerate() {
            let start = device_free;
            let run = self.run_batch(batch);
            let coalesced_with = run.batch.members.len();
            let precision = if run.batch.key.elem_bytes == 4 {
                "f32"
            } else {
                "f64"
            };
            let cids: Vec<u64> = run.batch.members.iter().map(|m| m.id).collect();
            self.telemetry.on_batch(
                batch_base + bi,
                start,
                run.batch.key.n,
                run.batch.key.elem_bytes,
                precision,
                run.batch.payload.num_systems(),
                &cids,
                run.cache_hit,
                run.isolated,
                run.kernel_us,
                &run.devices,
            );
            let mut elapsed = 0.0; // time into the batch, past `start`
            for (mem, (kernel_us, scatter_us, hit, result)) in
                run.batch.members.iter().zip(run.outcomes)
            {
                // Time queued before the window opened, plus the wait
                // for batches scheduled ahead in the same tick.
                let pre_queue = (open_us - mem.arrival_us).max(0.0) + (start - close_us);
                // Time inside the open window waiting for the close.
                let in_window = close_us - mem.arrival_us.max(open_us);
                let spans;
                let completed;
                let service_result = match result {
                    Ok(x) if run.isolated => {
                        // Members run back-to-back after `start`.
                        spans = RequestSpans {
                            queue_us: pre_queue + elapsed,
                            coalesce_us: in_window,
                            kernel_us,
                            scatter_us,
                        };
                        elapsed += kernel_us + scatter_us;
                        completed = start + elapsed;
                        Ok(x)
                    }
                    Ok(x) => {
                        // One fused kernel, then serialized scatters.
                        let scatter_end = elapsed.max(kernel_us) + scatter_us;
                        spans = RequestSpans {
                            queue_us: pre_queue,
                            coalesce_us: in_window,
                            kernel_us,
                            scatter_us: scatter_end - kernel_us,
                        };
                        elapsed = scatter_end;
                        completed = start + elapsed;
                        Ok(x)
                    }
                    Err(e) => {
                        spans = RequestSpans {
                            queue_us: pre_queue + elapsed,
                            coalesce_us: in_window,
                            kernel_us: 0.0,
                            scatter_us: 0.0,
                        };
                        completed = start + elapsed;
                        Err(map_solver_error(e))
                    }
                };
                responses[mem.slot] = Some(Response {
                    id: mem.id,
                    result: service_result,
                    spans,
                    batch: Some(batch_base + bi),
                    coalesced_with,
                    cache_hit: hit,
                    completed_us: completed,
                });
            }
            device_free = device_free.max(start + elapsed);
            summaries.push(BatchSummary {
                m_total: run.batch.payload.num_systems(),
                request_ids: cids,
                cache_hit: run.cache_hit,
                devices: run.devices,
            });
        }
        let out: Vec<Response> = responses.into_iter().map(|r| r.expect("filled")).collect();
        // Terminal events + attributed-time gauges, in the exact slot
        // order the report builder will sum the responses in — the
        // other half of the bit-exact partition invariant.
        for (slot, r) in out.iter().enumerate() {
            self.telemetry
                .on_response(r, working[slot].payload.precision());
        }
        (out, summaries, device_free)
    }

    /// Run a whole workload on the modeled clock: requests sorted by
    /// arrival feed the bounded queue, ticks open whenever the device
    /// frees with work queued, and every request gets a [`Response`] —
    /// solved or typed-rejected. Fully deterministic.
    pub fn run_workload(&mut self, mut requests: Vec<SolveRequest>) -> ServiceReport {
        requests.sort_by(|a, b| {
            a.arrival_us
                .partial_cmp(&b.arrival_us)
                .unwrap_or(std::cmp::Ordering::Equal)
                .then(a.id.cmp(&b.id))
        });
        let window = self.cfg.window_us.max(0.0);
        let depth = self.cfg.queue_depth.max(1);

        let mut responses = Vec::with_capacity(requests.len());
        let mut summaries = Vec::new();
        let mut queue: Vec<SolveRequest> = Vec::new();
        let mut device_free = 0.0f64;
        let mut next = 0usize;
        while next < requests.len() || !queue.is_empty() {
            if queue.is_empty() {
                // Idle: jump to the next arrival.
                let req = requests[next].clone();
                next += 1;
                if let Err(e) = validate(&req) {
                    self.telemetry.on_reject(req.id, req.arrival_us, &e);
                    responses.push(reject(&req, e));
                    continue;
                }
                queue.push(req);
            }
            let open = device_free.max(queue[0].arrival_us);
            let close = open + window;
            // Admit (or bounce) everything arriving by the close.
            while next < requests.len() && requests[next].arrival_us <= close {
                let req = requests[next].clone();
                next += 1;
                if let Err(e) = validate(&req) {
                    self.telemetry.on_reject(req.id, req.arrival_us, &e);
                    responses.push(reject(&req, e));
                } else if queue.len() >= depth {
                    let e = ServiceError::Overloaded { depth };
                    self.telemetry.on_reject(req.id, req.arrival_us, &e);
                    responses.push(reject(&req, e));
                } else {
                    queue.push(req);
                }
            }
            // Drain: the whole queue with a window, one request without.
            let working: Vec<SolveRequest> = if window == 0.0 {
                vec![queue.remove(0)]
            } else {
                std::mem::take(&mut queue)
            };
            let (mut ticked, mut batches, free) =
                self.solve_tick(open, close, &working, summaries.len());
            responses.append(&mut ticked);
            summaries.append(&mut batches);
            device_free = free;
        }
        ServiceReport::build(responses, summaries, self.cache.stats(), self.cfg.slo)
    }
}

/// Reject a request at admission time (no spans, no modeled work).
fn reject(req: &SolveRequest, err: ServiceError) -> Response {
    Response {
        id: req.id,
        result: Err(err),
        spans: RequestSpans::default(),
        batch: None,
        coalesced_with: 0,
        cache_hit: false,
        completed_us: req.arrival_us,
    }
}

fn validate(req: &SolveRequest) -> std::result::Result<(), ServiceError> {
    if req.payload.num_systems() == 0 || req.payload.system_len() == 0 {
        return Err(ServiceError::InvalidRequest(format!(
            "empty geometry: m = {}, n = {}",
            req.payload.num_systems(),
            req.payload.system_len()
        )));
    }
    Ok(())
}

fn map_solver_error(e: SimError) -> ServiceError {
    ServiceError::Solve(e.to_string())
}

/// Execute a plan over a batch on `group`, returning the solution,
/// the merged report's modeled kernel time, and the per-device shard
/// execution (synthesized from the whole report for a single-device
/// run, where the report carries no shard summaries).
fn run_plan<S: GpuScalar + Send + Sync>(
    group: &DeviceGroup,
    exec: ExecConfig,
    plan: &Arc<ShardedPlan>,
    batch: &SystemBatch<S>,
) -> Result<(Vec<S>, f64, Vec<DeviceSpan>)> {
    let m = batch.num_systems();
    let ex = ShardedExecutor::new(group.clone(), exec);
    ex.run::<S>(plan, batch).map(|(x, report)| {
        let devices = if report.shards.is_empty() {
            vec![DeviceSpan {
                device_index: 0,
                sys_count: m,
                kernel_us: report.total_us,
                completion_us: report.total_us,
            }]
        } else {
            report
                .shards
                .iter()
                .map(|sh| DeviceSpan {
                    device_index: sh.device_index,
                    sys_count: sh.sys_count,
                    kernel_us: sh.kernel_us,
                    completion_us: sh.completion_us,
                })
                .collect()
        };
        (x, report.total_us, devices)
    })
}

/// Extract one member's systems from the fused payload, restored to
/// the member's own storage layout.
fn member_payload(batch: &CoalescedBatch, mem: &crate::coalesce::Member) -> Result<Payload> {
    let range = mem.sys_start..mem.sys_start + mem.sys_count;
    let take = |e: tridiag_core::TridiagError| SimError::InvalidPlan(e.to_string());
    Ok(match &batch.payload {
        Payload::F32(b) => Payload::F32(b.sub_batch(range).map_err(take)?.to_layout(mem.layout)),
        Payload::F64(b) => Payload::F64(b.sub_batch(range).map_err(take)?.to_layout(mem.layout)),
    })
}

/// Slice the fused solution into per-member vectors, each emitted in
/// its request's own storage layout (bit-exact moves, no arithmetic).
fn split_members<S: GpuScalar>(
    batch: &CoalescedBatch,
    merged: &SystemBatch<S>,
    x: &[S],
    wrap: fn(Vec<S>) -> Solution,
) -> Vec<Solution> {
    let n = merged.system_len();
    batch
        .members
        .iter()
        .map(|mem| {
            let mut out = vec![S::default(); mem.sys_count * n];
            for local in 0..mem.sys_count {
                for row in 0..n {
                    out[mem.layout.index(local, row, mem.sys_count, n)] =
                        x[merged.index(mem.sys_start + local, row)];
                }
            }
            wrap(out)
        })
        .collect()
}
