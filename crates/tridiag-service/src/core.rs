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
//! **The tick.** A coalescing window opens when the oldest queued
//! request arrives and runs `window_us`; the tick launches at the
//! window's end, or when the device frees if that is later
//! ([`ServiceConfig::tick_window`], the one rule both drivers take
//! their ticks from). A window that elapses while the previous tick
//! still runs therefore costs nothing: batch formation overlaps
//! execution, and no request waits more than `window_us` for
//! co-tenants, counted from its arrival. Requests arriving by the
//! launch join the queue (bounced with [`ServiceError::Overloaded`]
//! beyond `queue_depth`); at the launch the whole queue drains,
//! coalesces by `(precision, decision)` — and by `n` too, unless the
//! decision is the fused one-block-per-system pipeline, whose one
//! ragged launch takes every member's row count
//! ([`mod@crate::coalesce`]) — and the batches run back-to-back. A tick
//! therefore issues one fused launch per precision and `k`, not one
//! per distinct `n`. An idle device still waits the full window, and a
//! launch is never later than under a window opened when the device
//! frees. `window_us == 0` disables coalescing: exactly one request
//! per tick, launched at `max(arrival, device free)` — the solo
//! baseline.
//!
//! A request's wait before its batch starts splits into
//! [`RequestSpans::coalesce_us`] — inside the window, from its arrival
//! to the window's end — and [`RequestSpans::queue_us`]: the wait for
//! the device past the window's end plus the batches ahead of it in
//! the same tick. A tick's `coalesce_open` event is stamped at the
//! oldest arrival, so it can precede the previous tick's last
//! completion. On the repository benchmark's `service_stream` (Poisson
//! arrivals at 100k req/s, 10 µs window) opening the window at the
//! oldest arrival instead of when the device frees cut the modeled mean
//! latency from 37.2 to 28.2 µs and the tail from 61.2 to 46.6 µs.

use std::sync::Arc;

use gpu_sim::group::copy_us;
use gpu_sim::{DeviceGroup, ExecConfig, Result, SimError};
use tridiag_core::{Layout, RaggedBatch};
use tridiag_gpu::buffers::GpuScalar;
use tridiag_gpu::executor::HostBatch;
use tridiag_gpu::plan::cost::Decision;
use tridiag_gpu::solver::GpuSolverConfig;
use tridiag_gpu::{ShardedExecutor, ShardedPlan};

use crate::cache::{CacheStats, PlanCache};
use crate::coalesce::{coalesce, CoalescedBatch, FusedPayload};
use crate::report::{BatchSummary, DeviceSpan, ServiceReport, SloConfig};
use crate::request::{Payload, RequestSpans, Response, ServiceError, Solution, SolveRequest};
use crate::telemetry::Telemetry;

/// A solve's answer, its modeled kernel time (µs), whether its plan
/// came from the cache, and the per-device shard execution.
type Solved<X> = (X, f64, bool, Vec<DeviceSpan>);

/// Plan-cache capacity (plans, not bytes).
pub const CACHE_CAPACITY: usize = 32;

/// Service tuning knobs.
#[derive(Debug, Clone, Copy)]
pub struct ServiceConfig {
    /// Coalescing window: the longest a queued request waits for
    /// co-tenants, in µs of modeled time counted from its arrival (the
    /// tick launches `window_us` after its oldest request arrived, or
    /// when the device frees if that is later; see
    /// [`ServiceConfig::tick_window`]). `0.0` disables coalescing — one
    /// request per tick.
    pub window_us: f64,
    /// Bounded queue depth; submissions beyond it are rejected with
    /// [`ServiceError::Overloaded`].
    pub queue_depth: usize,
    /// Latency-objective targets for the report's SLO accounting.
    pub slo: SloConfig,
}

impl ServiceConfig {
    /// A tick's coalescing window `(open, close)` on the modeled axis,
    /// for a queue whose oldest request arrived at `oldest_arrival_us`
    /// on a device that frees at `device_free_us`: the window opens at
    /// the oldest arrival, and the tick launches at `close`, once
    /// `window_us` has passed since then and the device is free. Both
    /// drivers — [`ServiceCore::run_workload`] and the threaded
    /// [`crate::service::SolveService`] — take their ticks from here.
    pub fn tick_window(&self, oldest_arrival_us: f64, device_free_us: f64) -> (f64, f64) {
        let open = oldest_arrival_us;
        (open, (open + self.window()).max(device_free_us))
    }

    /// The coalescing window, negative values read as 0.
    fn window(&self) -> f64 {
        self.window_us.max(0.0)
    }

    /// How many of `queued` requests one tick drains: the whole queue
    /// with a window, one request without.
    pub(crate) fn tick_drain(&self, queued: usize) -> usize {
        if self.window() == 0.0 {
            queued.min(1)
        } else {
            queued
        }
    }
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
    pub fn solve_payload(&mut self, payload: &Payload) -> Result<Solved<Solution>> {
        let decision = payload.decision(self.group.primary());
        match payload {
            Payload::F32(b) => self.solve_pinned(b, decision).map(wrap(Solution::F32)),
            Payload::F64(b) => self.solve_pinned(b, decision).map(wrap(Solution::F64)),
        }
    }

    /// Solve one batch — a request's own, or a coalesced ragged one —
    /// with `decision` pinned, whatever its batch size (see the module
    /// docs). Returns the solution in the batch's layout, the modeled
    /// kernel time, whether the plan was cached, and the per-device
    /// shard execution.
    fn solve_pinned<S: GpuScalar + Send + Sync>(
        &mut self,
        batch: &impl HostBatch<S>,
        decision: Decision,
    ) -> Result<Solved<Vec<S>>> {
        let config = GpuSolverConfig::default().pinned(decision);
        let (m, bytes) = (batch.num_systems(), <S as gpu_sim::Elem>::BYTES);
        let group = self.effective_group(m);
        let (plan, hit) = match batch.ragged_offsets() {
            None => self
                .cache
                .lookup(&group, &config, m, batch.system_len(), bytes)?,
            Some(offsets) => {
                let rows: Vec<usize> = offsets.windows(2).map(|w| w[1] - w[0]).collect();
                self.cache.lookup_ragged(&group, &config, &rows, bytes)?
            }
        };
        run_plan(&group, config.exec, &plan, batch).map(|(x, us, devices)| (x, us, hit, devices))
    }

    /// Solve one coalesced batch under its members' shared decision —
    /// one launch, whatever the members' row counts — and slice the
    /// solution back into per-member solutions, in member order.
    fn solve_fused(&mut self, batch: &CoalescedBatch) -> Result<Solved<Vec<Solution>>> {
        let decision = batch.key.decision;
        match &batch.payload {
            FusedPayload::F32(b) => self.solve_pinned(b, decision).map(|(x, us, hit, devices)| {
                (split_members(batch, &x, Solution::F32), us, hit, devices)
            }),
            FusedPayload::F64(b) => self.solve_pinned(b, decision).map(|(x, us, hit, devices)| {
                (split_members(batch, &x, Solution::F64), us, hit, devices)
            }),
        }
    }

    /// Solve one coalesced batch under its members' shared decision.
    /// On a solver fault the batch is *isolated*: every member
    /// re-solves alone under the same decision, so the fault lands only
    /// on the member(s) that carry the bad system and healthy
    /// co-tenants still complete.
    fn run_batch(&mut self, batch: CoalescedBatch) -> BatchRun {
        match self.solve_fused(&batch) {
            Ok((pieces, kernel_us, cache_hit, devices)) => {
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
        let decision = batch.key.decision;
        for mem in &batch.members {
            let range = mem.sys_start..mem.sys_start + mem.sys_count;
            let solo = match &batch.payload {
                FusedPayload::F32(b) => member_batch(b, range, mem.layout)
                    .and_then(|p| self.solve_pinned(&p, decision))
                    .map(wrap(Solution::F32)),
                FusedPayload::F64(b) => member_batch(b, range, mem.layout)
                    .and_then(|p| self.solve_pinned(&p, decision))
                    .map(wrap(Solution::F64)),
            };
            match solo {
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
    /// attribute spans. `open`/`close` come from
    /// [`ServiceConfig::tick_window`]: the window runs from `open` to
    /// `open + window_us` (at most `close`), and any wait past its end
    /// is the device's. Returns the responses (in working-set order),
    /// the batch summaries, and the time the device frees.
    pub fn solve_tick(
        &mut self,
        open_us: f64,
        close_us: f64,
        working: &[SolveRequest],
        batch_base: usize,
    ) -> (Vec<Response>, Vec<BatchSummary>, f64) {
        // (slot, response) pairs; every slot answers exactly once.
        let mut responses: Vec<(usize, Response)> = Vec::with_capacity(working.len());
        let mut summaries = Vec::new();
        let tick = self.telemetry.on_tick_open(open_us, working);
        let batches = match coalesce(self.group.primary(), working) {
            Ok(b) => b,
            Err(e) => {
                // Coalescing itself cannot fail on well-formed
                // requests; if it does, fail the whole tick typed.
                let err = ServiceError::InvalidRequest(e.to_string());
                let out: Vec<Response> =
                    working.iter().map(|req| reject(req, err.clone())).collect();
                self.telemetry.on_tick_close(tick, close_us, 0);
                self.respond(&out, working);
                return (out, summaries, close_us);
            }
        };
        self.telemetry.on_tick_close(tick, close_us, batches.len());

        let window_end = (open_us + self.cfg.window()).min(close_us);
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
            // A ragged batch's event reports its longest system's rows.
            self.telemetry.on_batch(
                batch_base + bi,
                start,
                run.batch.payload.system_len(),
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
                let t = mem.arrival_us;
                // Time queued before the window opened, waiting for the
                // device past the window's end, and for batches
                // scheduled ahead in the same tick.
                let pre_queue =
                    (open_us - t).max(0.0) + (close_us - window_end.max(t)) + (start - close_us);
                // Time inside the window, waiting for it to end.
                let in_window = (window_end - t.max(open_us)).max(0.0);
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
                responses.push((
                    mem.slot,
                    Response {
                        id: mem.id,
                        result: service_result,
                        spans,
                        batch: Some(batch_base + bi),
                        coalesced_with,
                        cache_hit: hit,
                        completed_us: completed,
                    },
                ));
            }
            device_free = device_free.max(start + elapsed);
            summaries.push(BatchSummary {
                m_total: run.batch.payload.num_systems(),
                request_ids: cids,
                cache_hit: run.cache_hit,
                devices: run.devices,
            });
        }
        responses.sort_by_key(|(slot, _)| *slot);
        let out: Vec<Response> = responses.into_iter().map(|(_, r)| r).collect();
        self.respond(&out, working);
        (out, summaries, device_free)
    }

    /// Terminal events + attributed-time gauges, in the exact slot
    /// order the report builder will sum the responses in — the other
    /// half of the bit-exact partition invariant.
    fn respond(&mut self, out: &[Response], working: &[SolveRequest]) {
        for (r, req) in out.iter().zip(working) {
            self.telemetry.on_response(r, req.payload.precision());
        }
    }

    /// Run a whole workload on the modeled clock: requests sorted by
    /// arrival feed the bounded queue, each tick launches by
    /// [`ServiceConfig::tick_window`] from the oldest queued arrival
    /// and the time the device frees, and every request gets a
    /// [`Response`] — solved or typed-rejected. Fully deterministic.
    pub fn run_workload(&mut self, mut requests: Vec<SolveRequest>) -> ServiceReport {
        requests.sort_by(|a, b| {
            a.arrival_us
                .partial_cmp(&b.arrival_us)
                .unwrap_or(std::cmp::Ordering::Equal)
                .then(a.id.cmp(&b.id))
        });
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
            let (open, close) = self.cfg.tick_window(queue[0].arrival_us, device_free);
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
            let take = self.cfg.tick_drain(queue.len());
            let working: Vec<SolveRequest> = queue.drain(..take).collect();
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
    batch: &impl HostBatch<S>,
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

/// Wrap a solve's solution vector as a [`Solution`] of its width.
fn wrap<S>(width: fn(Vec<S>) -> Solution) -> impl Fn(Solved<Vec<S>>) -> Solved<Solution> {
    move |(x, us, hit, devices)| (width(x), us, hit, devices)
}

/// One member's systems of the fused batch, restored to the member's
/// own storage layout.
fn member_batch<S: GpuScalar>(
    merged: &RaggedBatch<S>,
    systems: std::ops::Range<usize>,
    layout: Layout,
) -> Result<tridiag_core::SystemBatch<S>> {
    merged
        .uniform_batch(systems)
        .map(|b| b.to_layout(layout))
        .map_err(|e| SimError::InvalidPlan(e.to_string()))
}

/// Slice the fused solution (system-major, the members back to back)
/// into per-member vectors, each emitted in its request's own storage
/// layout (bit-exact moves, no arithmetic).
fn split_members<S: GpuScalar>(
    batch: &CoalescedBatch,
    x: &[S],
    width: fn(Vec<S>) -> Solution,
) -> Vec<Solution> {
    batch
        .members
        .iter()
        .map(|mem| {
            let piece = &x[mem.row_start..][..mem.sys_count * mem.n];
            let mut out = vec![S::default(); piece.len()];
            Layout::Contiguous.convert(mem.layout, piece, mem.sys_count, mem.n, &mut out);
            width(out)
        })
        .collect()
}

#[cfg(test)]
pub(crate) mod tests {
    use super::*;
    use crate::telemetry::Telemetry;
    use gpu_sim::DeviceSpec;
    use tridiag_core::generators::random_batch;

    fn core(window_us: f64) -> ServiceCore {
        let cfg = ServiceConfig {
            window_us,
            ..ServiceConfig::default()
        };
        ServiceCore::new(DeviceGroup::single(DeviceSpec::gtx480()), cfg)
    }

    /// Requests of one shape (so they share a decision and coalesce),
    /// arriving at `arrivals`.
    fn requests(arrivals: &[f64]) -> Vec<SolveRequest> {
        arrivals
            .iter()
            .enumerate()
            .map(|(i, &t)| SolveRequest {
                id: i as u64,
                arrival_us: t,
                payload: Payload::F64(random_batch::<f64>(2, 256, 7 + i as u64)),
            })
            .collect()
    }

    /// Whether the response's batch started at `t_us`: its completion
    /// less its kernel and scatter (up to rounding).
    fn started_at(r: &Response, t_us: f64) -> bool {
        (r.completed_us - r.spans.kernel_us - r.spans.scatter_us - t_us).abs() < 1e-9
    }

    /// The ticks' `(open, close)` events, in order.
    pub(crate) fn windows(telemetry: &Telemetry) -> Vec<(f64, f64)> {
        let events = telemetry.events();
        let at = |kind| {
            events
                .iter()
                .filter(move |e| e.kind == kind)
                .map(|e| e.t_us)
        };
        at("coalesce_open").zip(at("coalesce_close")).collect()
    }

    fn assert_partitions(responses: &[Response], arrivals: &[f64]) {
        for (r, &t) in responses.iter().zip(arrivals) {
            let total = r.completed_us - t;
            assert!(
                (total - r.spans.latency_us()).abs() < 1e-9,
                "request {}: spans {:?} do not partition {total}",
                r.id,
                r.spans
            );
        }
    }

    #[test]
    fn tick_window_counts_from_the_oldest_arrival() {
        let cfg = ServiceConfig {
            window_us: 2.0,
            ..ServiceConfig::default()
        };
        // Idle device: the full window from the arrival.
        assert_eq!(cfg.tick_window(3.0, 1.0), (3.0, 5.0));
        // Busy past the window's end: launch when the device frees.
        assert_eq!(cfg.tick_window(3.0, 20.0), (3.0, 20.0));
        // Busy, but freeing inside the window: the window still ends it.
        assert_eq!(cfg.tick_window(3.0, 4.0), (3.0, 5.0));
        // Never later than a window opened when the device frees.
        for (a, f) in [(0.0, 0.0), (3.0, 1.0), (3.0, 4.0), (3.0, 20.0)] {
            let (_, close) = cfg.tick_window(a, f);
            assert!(close <= f64::max(a, f) + cfg.window_us);
        }
        let solo = ServiceConfig {
            window_us: 0.0,
            ..ServiceConfig::default()
        };
        assert_eq!(solo.tick_window(3.0, 20.0), (3.0, 20.0));
        assert_eq!(solo.tick_window(3.0, 1.0), (3.0, 3.0));
        assert_eq!((solo.tick_drain(5), cfg.tick_drain(5)), (1, 5));
    }

    #[test]
    fn busy_device_launches_at_arrival_plus_window_not_free_plus_window() {
        let w = 2.0;
        let arrivals = [0.0, 3.0];
        let mut core = core(w);
        let report = core.run_workload(requests(&arrivals));
        let r = &report.responses;
        let device_free = r[0].completed_us;
        assert!(
            device_free > arrivals[1] + w,
            "the device must still be busy"
        );
        assert!(
            started_at(&r[1], device_free),
            "launch waits for the device only"
        );
        assert_eq!(windows(core.telemetry())[1], (arrivals[1], device_free));
        // The window elapsed while the device ran: coalesce is the
        // window, the rest is the device's.
        assert_eq!(r[1].spans.coalesce_us, w);
        assert_eq!(r[1].spans.queue_us, device_free - (arrivals[1] + w));
        assert_partitions(r, &arrivals);
    }

    #[test]
    fn idle_device_waits_the_full_window() {
        let (w, t) = (10.0, 7.0);
        let mut core = core(w);
        let report = core.run_workload(requests(&[t]));
        let r = &report.responses[0];
        assert!(started_at(r, t + w));
        assert_eq!(windows(core.telemetry()), vec![(t, t + w)]);
        assert_eq!((r.spans.queue_us, r.spans.coalesce_us), (0.0, w));
    }

    #[test]
    fn zero_window_ticks_match_a_window_opened_when_the_device_frees() {
        let arrivals = [0.0, 0.0, 1.0, 40.0];
        let mut core = core(0.0);
        let report = core.run_workload(requests(&arrivals));
        // The solo baseline: one request per tick, launched at
        // `max(arrival, device free)`, all of its wait queued.
        let mut device_free = 0.0f64;
        for (r, (&t, (_, close))) in report
            .responses
            .iter()
            .zip(arrivals.iter().zip(windows(core.telemetry())))
        {
            let launch = t.max(device_free);
            assert_eq!(r.coalesced_with, 1);
            assert_eq!(close, launch);
            assert!(started_at(r, launch));
            assert_eq!(r.spans.coalesce_us, 0.0);
            assert_eq!(r.spans.queue_us, launch - t);
            device_free = r.completed_us;
        }
        assert_partitions(&report.responses, &arrivals);
    }

    #[test]
    fn arrival_after_the_window_on_a_busy_device_does_not_coalesce() {
        let w = 2.0;
        let arrivals = [0.0, 3.0, 6.0];
        let mut core = core(w);
        let report = core.run_workload(requests(&arrivals));
        let r = &report.responses;
        let device_free = r[0].completed_us;
        assert!(device_free > arrivals[2], "the device must still be busy");
        // Requests 1 and 2 ride one batch launched when the device frees.
        assert_eq!((r[1].batch, r[1].coalesced_with), (r[2].batch, 2));
        assert!(started_at(&r[2], device_free));
        assert_eq!(r[1].spans.coalesce_us, w);
        assert_eq!(
            r[2].spans.coalesce_us, 0.0,
            "arrived after the window ended"
        );
        assert_eq!(r[2].spans.queue_us, device_free - arrivals[2]);
        assert_partitions(r, &arrivals);
    }
}
