//! Drives ops and service sessions through the program's public entry
//! points, checks every answer, and tallies what each layer did.

use std::collections::BTreeMap;
use std::hint::black_box;
use std::time::Instant;

use gpu_sim::group::copy_us;
use gpu_sim::{BoundKind, DeviceGroup, DeviceSpec};
use tridiag_core::{Layout, SystemBatch};
use tridiag_gpu::buffers::GpuScalar;
use tridiag_gpu::{
    DistributedExecutor, DistributedPlan, GpuSolveReport, GpuSolverConfig, PlanExecutor,
    ShardedExecutor, ShardedPlan, SolvePlan, Step,
};
use tridiag_service::{Payload, ServiceConfig, ServiceCore, ServiceError, Solution, SolveRequest};

use crate::spans::{layer, Spans};
use crate::workload::{self, Op, Precision, Route};

/// Devices in the multi-device group: the executors run one worker
/// thread per device, and the reference VM has 2 vCPUs.
pub const GROUP_DEVICES: usize = 2;

/// Service capacity search: bisection steps over the offered-rate
/// range, each a fresh core serving one session.
pub const CAPACITY_STEPS: usize = 7;
pub const CAPACITY_RANGE_REQ_PER_S: (f64, f64) = (50_000.0, 400_000.0);

/// The devices and configuration every op runs with.
pub struct Env {
    pub spec: DeviceSpec,
    pub group: DeviceGroup,
    pub config: GpuSolverConfig,
}

impl Env {
    pub fn new() -> Env {
        let spec = DeviceSpec::gtx480();
        Env {
            group: DeviceGroup::homogeneous(spec.clone(), GROUP_DEVICES)
                .expect("a non-empty group of a valid spec"),
            spec,
            config: GpuSolverConfig::default(),
        }
    }
}

/// The plan of one op, whichever route it takes.
pub enum AnyPlan {
    Single(SolvePlan),
    Sharded(ShardedPlan),
    Split(DistributedPlan),
}

impl AnyPlan {
    pub fn build(env: &Env, op: &Op) -> gpu_sim::Result<AnyPlan> {
        let eb = match op.precision {
            Precision::F32 => 4,
            Precision::F64 => 8,
        };
        Ok(match op.route {
            Route::Single => AnyPlan::Single(SolvePlan::build_for_host(
                &env.spec,
                &env.config,
                op.layout,
                op.m,
                op.n,
                eb,
            )?),
            Route::Sharded => {
                AnyPlan::Sharded(ShardedPlan::build(&env.group, &env.config, op.m, op.n, eb)?)
            }
            Route::Split => {
                AnyPlan::Split(DistributedPlan::build(&env.group, &env.config, op.n, eb)?)
            }
        })
    }

    fn execute<S: GpuScalar + Send + Sync>(
        &self,
        env: &Env,
        batch: &SystemBatch<S>,
    ) -> gpu_sim::Result<(Vec<S>, GpuSolveReport)> {
        let exec = env.config.exec;
        match self {
            AnyPlan::Single(p) => PlanExecutor::new(env.spec.clone(), exec).run(p, batch),
            AnyPlan::Sharded(p) => ShardedExecutor::new(env.group.clone(), exec).run(p, batch),
            AnyPlan::Split(p) => DistributedExecutor::new(env.group.clone(), exec).run(p, batch),
        }
    }

    /// The static verification the executor gates on, run again.
    pub fn verify_clean(&self, env: &Env) -> bool {
        match self {
            AnyPlan::Single(p) => tridiag_gpu::verify_plan(&env.spec, p).is_clean(),
            AnyPlan::Sharded(p) => tridiag_gpu::verify_sharded_plan(&env.group, p).is_clean(),
            AnyPlan::Split(p) => tridiag_gpu::verify_distributed_plan(&env.group, p).is_clean(),
        }
    }

    /// Every single-device plan the op executes, with its run count (a
    /// chunk interior runs once per right-hand side y, u, w).
    fn device_plans(&self) -> Vec<(&SolvePlan, u64)> {
        match self {
            AnyPlan::Single(p) => vec![(p, 1)],
            AnyPlan::Sharded(p) => p.shards.iter().map(|s| (&s.plan, 1)).collect(),
            AnyPlan::Split(p) => p
                .identity
                .iter()
                .map(|q| (q, 1))
                .chain(
                    p.chunks
                        .iter()
                        .filter_map(|c| c.interior.as_ref())
                        .map(|q| (q, 3)),
                )
                .chain(p.reduced.iter().map(|q| (q, 1)))
                .collect(),
        }
    }

    /// The plan whose pipeline decisions (`k`, layout) describe the op.
    fn lead(&self) -> Option<&SolvePlan> {
        match self {
            AnyPlan::Single(p) => Some(p),
            AnyPlan::Sharded(p) => Some(&p.reference),
            AnyPlan::Split(p) => p
                .identity
                .as_ref()
                .or_else(|| p.chunks.iter().find_map(|c| c.interior.as_ref())),
        }
    }

    /// Layouts the executor converts the caller's batch to. Chunk
    /// interiors are assembled inside the distributed executor, so a
    /// split op converts nothing of the caller's.
    fn convert_targets(&self) -> Vec<Layout> {
        let plans: Vec<&SolvePlan> = match self {
            AnyPlan::Single(p) => vec![p],
            AnyPlan::Sharded(p) => p.shards.iter().take(1).map(|s| &s.plan).collect(),
            AnyPlan::Split(_) => Vec::new(),
        };
        plans
            .iter()
            .flat_map(|p| &p.steps)
            .filter_map(|s| match s {
                Step::Convert { to } => Some(*to),
                _ => None,
            })
            .collect()
    }
}

/// Host nanoseconds per layer, summed over ops.
#[derive(Debug, Default, Clone)]
pub struct Host {
    pub op: u64,
    pub plan: u64,
    pub executor: u64,
    pub session: u64,
    pub unattributed: u64,
    pub verify: u64,
    pub to_layout: u64,
    pub residual: u64,
    pub cpu_ref: u64,
}

impl Host {
    /// Self time per span name, summed. Every span name the run
    /// records is one field here.
    pub fn from_spans(spans: &Spans) -> Result<Host, String> {
        let mut h = Host::default();
        for (s, own) in spans.spans.iter().zip(spans.self_ns()) {
            let slot = match s.name {
                "op" => {
                    h.op += s.dur_ns();
                    &mut h.unattributed
                }
                "tridiag-gpu.plan" => &mut h.plan,
                "tridiag-gpu.executor" => &mut h.executor,
                "tridiag-service.run_workload" => &mut h.session,
                "tridiag-gpu.verify" => &mut h.verify,
                "tridiag-core.to_layout" => &mut h.to_layout,
                "tridiag-core.residual" => &mut h.residual,
                "cpu-ref.solve" => &mut h.cpu_ref,
                other => return Err(format!("span {other:?} has no host layer")),
            };
            *slot += own;
        }
        Ok(h)
    }
}

/// Modeled-clock layer totals, summed over completed ops.
#[derive(Debug, Default, Clone)]
pub struct Model {
    pub kernel_us: BTreeMap<&'static str, f64>,
    pub phase_us: BTreeMap<String, f64>,
    pub launches: u64,
    pub launch_us: f64,
    /// Kernel time by the term that bound it: compute, bandwidth,
    /// latency, launch.
    pub bound_us: [f64; 4],
    pub flops: u64,
    pub global_bytes: u64,
    pub global_transactions: u64,
    pub shared_accesses: u64,
    pub bank_conflict_replays: u64,
    pub barriers: u64,
    pub occupancy: f64,
    pub waves: f64,
    pub k: f64,
    pub interleaved: u64,
    pub convert_elided: u64,
    pub h2d_bytes: u64,
    pub d2h_bytes: u64,
    pub peak_resident_bytes: u64,
    pub pcie_us: f64,
    pub sharded_ops: u64,
    pub sharded_kernel_us: f64,
    pub sharded_imbalance: f64,
    pub split_ops: u64,
    pub split_wall_us: f64,
    pub split_serialized_us: f64,
    pub chunk_flops: u64,
    pub reduced_flops: u64,
    pub backsub_flops: u64,
    pub gather_bytes: u64,
    pub scatter_bytes: u64,
}

fn bound_index(b: BoundKind) -> usize {
    match b {
        BoundKind::Compute => 0,
        BoundKind::Bandwidth => 1,
        BoundKind::Latency => 2,
        BoundKind::Launch => 3,
    }
}

impl Model {
    fn add(&mut self, plan: &AnyPlan, report: &GpuSolveReport) {
        for kr in &report.kernels {
            let t = &kr.timing;
            *self.kernel_us.entry(t.name).or_default() += t.total_us;
            self.launches += 1;
            self.launch_us += t.launch_us;
            self.bound_us[bound_index(t.bound)] += t.total_us;
            self.occupancy += t.occupancy_fraction;
            self.waves += f64::from(t.waves);
            for ph in &t.phases {
                *self
                    .phase_us
                    .entry(format!("{}.{}", t.name, ph.label))
                    .or_default() += ph.us;
                let s = &ph.stats;
                self.flops += s.flops;
                self.global_bytes += s.global_bytes();
                self.global_transactions += s.global_transactions();
                self.shared_accesses += s.shared_accesses;
                self.bank_conflict_replays += s.bank_conflict_replays;
                self.barriers += s.barriers;
            }
        }
        if let Some(lead) = plan.lead() {
            self.k += f64::from(lead.k);
            self.interleaved += u64::from(lead.layout == Layout::Interleaved);
        }
        let device_plans = plan.device_plans();
        let converts = |p: &SolvePlan| p.steps.iter().any(|s| matches!(s, Step::Convert { .. }));
        self.convert_elided += u64::from(!device_plans.iter().any(|(p, _)| converts(p)));
        for (p, runs) in device_plans {
            for step in &p.steps {
                let (slot, h2d) = match step {
                    Step::Upload { slot, .. } => (*slot, true),
                    Step::Download { slot } => (*slot, false),
                    _ => continue,
                };
                let bytes = p.buffers[slot].elems * p.elem_bytes;
                *if h2d {
                    &mut self.h2d_bytes
                } else {
                    &mut self.d2h_bytes
                } += bytes as u64 * runs;
                self.pcie_us += copy_us(bytes) * runs as f64;
            }
            let peak = tridiag_gpu::verify::peak_resident_bytes(p).0 as u64;
            self.peak_resident_bytes = self.peak_resident_bytes.max(peak);
        }
        if let Some(d) = &report.distributed {
            let chunks = d.devices as u64;
            self.split_ops += 1;
            self.split_wall_us += d.wall_clock_us;
            self.split_serialized_us += d.serialized_us;
            self.chunk_flops +=
                report.shards.iter().map(|s| s.flops).sum::<u64>() - d.backsub_flops;
            self.reduced_flops += d.reduced_flops;
            self.backsub_flops += d.backsub_flops;
            self.gather_bytes += d.gather_bytes;
            self.scatter_bytes += d.scatter_bytes;
            self.d2h_bytes += d.gather_bytes;
            self.h2d_bytes += d.scatter_bytes;
            self.pcie_us += chunks as f64
                * (copy_us((d.gather_bytes / chunks) as usize)
                    + copy_us((d.scatter_bytes / chunks) as usize));
        } else if !report.shards.is_empty() {
            let us: Vec<f64> = report.shards.iter().map(|s| s.kernel_us).collect();
            let sum: f64 = us.iter().sum();
            let max = us.iter().cloned().fold(0.0, f64::max);
            self.sharded_ops += 1;
            self.sharded_kernel_us += sum;
            self.sharded_imbalance += max / (sum / us.len() as f64) - 1.0;
        }
    }
}

/// Service-layer totals over the measured sessions (cache counters are
/// deltas, since one core serves every session).
#[derive(Debug, Default, Clone)]
pub struct ServiceTally {
    pub queue_us: f64,
    pub coalesce_us: f64,
    pub kernel_us: f64,
    pub scatter_us: f64,
    pub queue_samples_us: Vec<f64>,
    pub batches: u64,
    pub fused_batches: u64,
    pub batched_requests: u64,
    pub cache_hits: u64,
    pub cache_misses: u64,
    pub cache_evictions: u64,
    pub rejected: u64,
    pub slo_violations: u64,
    pub budget_burn: f64,
}

/// Host time of one completed op (service: one session).
#[derive(Debug, Clone, Copy)]
pub struct OpHost {
    /// Raw host ms of the whole op or session.
    pub ms: f64,
    /// Requests it served: 1 for a batch op.
    pub requests: usize,
    /// Rows it solved.
    pub rows: u64,
    /// Mean of the yardstick samples taken just before and just after
    /// it (NaN until [`Tally::calibrate_since`] sets it).
    pub yardstick_ms: f64,
}

impl OpHost {
    /// Host ms per request on the reference machine.
    pub fn calibrated_ms(&self, reference_ms: f64) -> f64 {
        self.ms / self.requests as f64 * reference_ms / self.yardstick_ms
    }
}

/// What one pass over ops (or sessions) did.
#[derive(Debug, Default, Clone)]
pub struct Tally {
    /// Ops (service: requests) issued.
    pub attempted: usize,
    /// Typed errors, rejections and wrong answers.
    pub failed: usize,
    /// Answers that came back `Ok` but failed a check.
    pub wrong: usize,
    /// Completed ops (service: sessions).
    pub ops: usize,
    /// How many completed ops (service: sessions) keep their modeled
    /// results; later ones count on the host clock only. A run's
    /// modeled metrics then do not depend on how many ops its time
    /// allowed. `None` keeps them all.
    pub modeled_limit: Option<usize>,
    /// Completed ops (service: sessions) whose modeled results were kept.
    pub modeled_ops: usize,
    /// One entry per completed op or session.
    pub hosts: Vec<OpHost>,
    /// Raw host ns of every op or session, failed ones included.
    pub op_ns: u64,
    /// Modeled latency per completed op (service: per request), µs.
    pub latency_us: Vec<f64>,
    /// Global transactions plus shared accesses: the simulator's events.
    pub events: u64,
    pub model: Model,
    pub service: ServiceTally,
    /// Worst relative residual seen, f32 and f64.
    pub max_residual: [f64; 2],
}

impl Tally {
    pub fn with_modeled_limit(limit: usize) -> Tally {
        Tally {
            modeled_limit: Some(limit),
            ..Tally::default()
        }
    }

    /// Whether the next completed op keeps its modeled results.
    fn models_next(&self) -> bool {
        self.modeled_limit.is_none_or(|limit| self.ops < limit)
    }

    /// Attach `yardstick_ms` to the ops recorded since `hosts[from]`.
    pub fn calibrate_since(&mut self, from: usize, yardstick_ms: f64) {
        for h in &mut self.hosts[from..] {
            h.yardstick_ms = yardstick_ms;
        }
    }

    fn check(&mut self, ok: bool, what: impl FnOnce() -> String) -> bool {
        if !ok {
            self.failed += 1;
            self.wrong += 1;
            eprintln!("check failed: {}", what());
        }
        ok
    }

    fn residual(&mut self, precision: Precision, resid: f64) {
        let slot = &mut self.max_residual[precision as usize];
        *slot = slot.max(resid);
    }
}

/// Time `ns` of the op span (tracing) or of the bare call (not).
fn finish_op(spans: &mut Option<Spans>, op_span: Option<usize>, start: Instant) -> u64 {
    match (spans.as_mut(), op_span) {
        (Some(s), Some(id)) => {
            s.end(id);
            s.spans[id].dur_ns()
        }
        _ => start.elapsed().as_nanos() as u64,
    }
}

/// Run one op and check its answer. With tracing on, the op span holds
/// the plan and executor calls, and the probes run after it.
pub fn run_op(env: &Env, op: &Op, idx: usize, spans: &mut Option<Spans>, tally: &mut Tally) {
    match workload::input(op) {
        Payload::F32(batch) => run_typed(env, op, &batch, idx, spans, tally),
        Payload::F64(batch) => run_typed(env, op, &batch, idx, spans, tally),
    }
}

/// Modeled `total_us` of one op at its exact shape, if it completed
/// cleanly; the op still counts in `tally`.
pub fn nominal_us(env: &Env, op: &Op, tally: &mut Tally) -> Option<f64> {
    let before = tally.latency_us.len();
    run_op(env, op, 0, &mut None, tally);
    tally.latency_us.get(before).copied()
}

fn run_typed<S: GpuScalar + Send + Sync>(
    env: &Env,
    op: &Op,
    batch: &SystemBatch<S>,
    idx: usize,
    spans: &mut Option<Spans>,
    tally: &mut Tally,
) {
    tally.attempted += 1;
    let op_span = spans.as_mut().map(|s| s.begin("op", idx, None));
    let start = Instant::now();
    let solved = layer(spans, "tridiag-gpu.plan", idx, op_span, || {
        AnyPlan::build(env, op)
    })
    .and_then(|plan| {
        layer(spans, "tridiag-gpu.executor", idx, op_span, || {
            plan.execute(env, batch)
        })
        .map(|(x, report)| (plan, x, report))
    });
    let ns = finish_op(spans, op_span, start);
    tally.op_ns += ns;
    let (plan, x, report) = match solved {
        Ok(v) => v,
        Err(e) => {
            tally.failed += 1;
            eprintln!("op {op:?} failed: {e}");
            return;
        }
    };
    let resid = layer(spans, "tridiag-core.residual", idx, None, || {
        batch.max_relative_residual(&x)
    });
    let tol = bench::series::tolerance::<S>();
    let resid_ok = matches!(resid, Ok(r) if r <= tol);
    let checks_ok = tally.check(resid_ok, || {
        format!("op {op:?}: residual {resid:?} above {tol:e}")
    }) && tally.check(report.is_verify_clean(), || {
        format!("op {op:?}: verify findings or certificate mismatches")
    }) && tally.check(report.is_phase_sum_clean(), || {
        format!("op {op:?}: phase sums {:?}", report.phase_sum_mismatches)
    });
    if spans.is_some() {
        layer(spans, "tridiag-gpu.verify", idx, None, || {
            black_box(plan.verify_clean(env))
        });
        for to in plan.convert_targets() {
            layer(spans, "tridiag-core.to_layout", idx, None, || {
                black_box(batch.to_layout(to))
            });
        }
        layer(spans, "cpu-ref.solve", idx, None, || {
            black_box(cpu_ref::solve_batch_sequential(batch).ok())
        });
    }
    if !checks_ok {
        return;
    }
    if let Ok(r) = resid {
        tally.residual(op.precision, r);
    }
    let modeled = tally.models_next();
    tally.ops += 1;
    tally.hosts.push(OpHost {
        ms: ns as f64 / 1e6,
        requests: 1,
        rows: op.rows() as u64,
        yardstick_ms: f64::NAN,
    });
    tally.events += report
        .kernels
        .iter()
        .flat_map(|k| &k.timing.phases)
        .map(|p| p.stats.global_transactions() + p.stats.shared_accesses)
        .sum::<u64>();
    if modeled {
        tally.modeled_ops += 1;
        tally.latency_us.push(report.total_us);
        tally.model.add(&plan, &report);
    }
}

/// The service-workload core: the default configuration on one GTX480.
pub fn service_core(env: &Env) -> ServiceCore {
    ServiceCore::new(
        DeviceGroup::single(env.spec.clone()),
        ServiceConfig::default(),
    )
}

fn residual_of(payload: &Payload, solution: &Solution) -> Option<(Precision, f64, f64)> {
    match (payload, solution) {
        (Payload::F32(b), Solution::F32(x)) => b
            .max_relative_residual(x)
            .ok()
            .map(|r| (Precision::F32, r, bench::series::tolerance::<f32>())),
        (Payload::F64(b), Solution::F64(x)) => b
            .max_relative_residual(x)
            .ok()
            .map(|r| (Precision::F64, r, bench::series::tolerance::<f64>())),
        _ => None,
    }
}

/// Serve one session on `core` and check every completed request's
/// solution against its own payload.
pub fn run_session(
    core: &mut ServiceCore,
    requests: Vec<SolveRequest>,
    idx: usize,
    spans: &mut Option<Spans>,
    tally: &mut Tally,
) {
    let payloads: Vec<Payload> = requests.iter().map(|r| r.payload.clone()).collect();
    tally.attempted += payloads.len();
    let cache_before = core.cache_stats();
    let op_span = spans.as_mut().map(|s| s.begin("op", idx, None));
    let start = Instant::now();
    let report = layer(spans, "tridiag-service.run_workload", idx, op_span, || {
        core.run_workload(requests)
    });
    let ns = finish_op(spans, op_span, start);
    let cache = core.cache_stats();
    tally.op_ns += ns;
    let modeled = tally.models_next();
    tally.ops += 1;
    tally.modeled_ops += usize::from(modeled);
    let mut rows = 0;

    layer(spans, "tridiag-core.residual", idx, None, || {
        for r in &report.responses {
            let payload = payloads.get(r.id as usize);
            match (&r.result, payload) {
                (Ok(x), Some(p)) => {
                    let checked = residual_of(p, x);
                    let ok = matches!(checked, Some((_, resid, tol)) if resid <= tol);
                    if tally.check(ok, || format!("request {}: residual {checked:?}", r.id)) {
                        if let Some((prec, resid, _)) = checked {
                            tally.residual(prec, resid);
                        }
                        rows += (p.num_systems() * p.system_len()) as u64;
                        if modeled {
                            tally.latency_us.push(r.spans.latency_us());
                            tally.service.queue_samples_us.push(r.spans.queue_us);
                        }
                    }
                }
                (Ok(_), None) => {
                    tally.check(false, || format!("response for unknown request {}", r.id));
                }
                (Err(ServiceError::Overloaded { .. }), _) => {
                    tally.failed += 1;
                    tally.service.rejected += u64::from(modeled);
                }
                (Err(e), _) => {
                    tally.failed += 1;
                    eprintln!("request {} failed: {e}", r.id);
                }
            }
        }
    });
    if spans.is_some() {
        layer(spans, "cpu-ref.solve", idx, None, || {
            for p in &payloads {
                match p {
                    Payload::F32(b) => {
                        black_box(cpu_ref::solve_batch_sequential(b).ok().map(|_| ()))
                    }
                    Payload::F64(b) => {
                        black_box(cpu_ref::solve_batch_sequential(b).ok().map(|_| ()))
                    }
                };
            }
        });
    }

    tally.hosts.push(OpHost {
        ms: ns as f64 / 1e6,
        requests: payloads.len(),
        rows,
        yardstick_ms: f64::NAN,
    });
    if !modeled {
        return;
    }
    let s = &mut tally.service;
    s.queue_us += report.attributed.queue_us;
    s.coalesce_us += report.attributed.coalesce_us;
    s.kernel_us += report.attributed.kernel_us;
    s.scatter_us += report.attributed.scatter_us;
    s.batches += report.batches.len() as u64;
    s.fused_batches += report
        .batches
        .iter()
        .filter(|b| b.request_ids.len() > 1)
        .count() as u64;
    s.batched_requests += report
        .batches
        .iter()
        .map(|b| b.request_ids.len() as u64)
        .sum::<u64>();
    s.cache_hits += cache.hits - cache_before.hits;
    s.cache_misses += cache.misses - cache_before.misses;
    s.cache_evictions += cache.evictions - cache_before.evictions;
    s.slo_violations += report.slo.violations as u64;
    s.budget_burn += report.slo.budget_burn;
}

/// Bisect `[lo, hi]` for the highest value `meets` accepts, assuming it
/// accepts everything below some threshold. Returns the last accepted
/// midpoint, or `lo` when none was.
pub fn bisect(mut lo: f64, mut hi: f64, steps: usize, mut meets: impl FnMut(f64) -> bool) -> f64 {
    for _ in 0..steps {
        let mid = 0.5 * (lo + hi);
        if meets(mid) {
            lo = mid;
        } else {
            hi = mid;
        }
    }
    lo
}

/// Highest offered rate (req/s) at which a fresh service core serves a
/// session with no rejection or failure and p99 latency within the SLO
/// target.
pub fn capacity(env: &Env, seed: u64, requests: usize, steps: usize) -> f64 {
    let (lo, hi) = CAPACITY_RANGE_REQ_PER_S;
    let target_us = ServiceConfig::default().slo.target_latency_us;
    bisect(lo, hi, steps, |rate| {
        let mut core = service_core(env);
        let report = core.run_workload(workload::session(
            seed,
            workload::CAPACITY_SESSION,
            requests,
            rate,
        ));
        let (_, rejected, failed) = report.totals();
        rejected == 0 && failed == 0 && report.p99_us <= target_us
    })
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn bisection_finds_the_threshold() {
        let found = bisect(0.0, 100.0, 20, |x| x <= 37.5);
        assert!((found - 37.5).abs() < 1e-3, "{found}");
        assert_eq!(bisect(10.0, 20.0, 5, |_| false), 10.0);
    }

    #[test]
    fn capacity_search_is_deterministic() {
        let env = Env::new();
        let a = capacity(&env, 1, 40, 3);
        assert_eq!(a, capacity(&env, 1, 40, 3));
        assert!(a >= CAPACITY_RANGE_REQ_PER_S.0 && a < CAPACITY_RANGE_REQ_PER_S.1);
    }

    #[test]
    fn ops_are_checked_and_tallied() {
        let env = Env::new();
        let mut tally = Tally::default();
        let mut spans = Some(Spans::new());
        let op = Op {
            route: Route::Single,
            m: 4,
            n: 64,
            precision: Precision::F64,
            layout: Layout::Interleaved,
            data_seed: 9,
        };
        run_op(&env, &op, 0, &mut spans, &mut tally);
        assert_eq!((tally.attempted, tally.failed, tally.ops), (1, 0, 1));
        assert!(tally.max_residual[1] > 0.0 && tally.max_residual[1] < 1e-10);
        let spans = spans.expect("tracing is on");
        let host = Host::from_spans(&spans).expect("known span names");
        assert_eq!(host.op, host.plan + host.executor + host.unattributed);
        assert!(host.residual > 0 && host.cpu_ref > 0 && host.verify > 0 && host.to_layout > 0);
        assert_eq!(tally.latency_us.len(), 1);
        assert!(tally.model.launches >= 1 && tally.events > 0);
    }
}
