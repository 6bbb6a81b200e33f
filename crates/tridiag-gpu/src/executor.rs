//! The plan executor: the single place where kernels are launched and
//! their artifacts collected.
//!
//! [`PlanExecutor::run`] walks a [`SolvePlan`] step by step — convert,
//! upload, allocate, launch, download, convert back — and owns the
//! per-launch bookkeeping the monolithic solver used to repeat at every
//! call site: sanitizer-violation collection, the phase-sum invariant
//! check, [`KernelReport`] construction, and finally the solve trace.
//! The zoo and the autotuner drive the same [`PlanExecutor::launch`]
//! path, so "how a launch's findings are gathered" is defined exactly
//! once.

use crate::buffers::GpuScalar;
use crate::kernels::fused::{FusedKernel, RaggedFusedKernel};
use crate::kernels::p_thomas::PThomasKernel;
use crate::kernels::tiled_pcr::TiledPcrKernel;
use crate::multi_device::kernel_spans;
use crate::plan::{KernelOp, Slot, SolvePlan, Step};
use crate::solver::{GpuSolveReport, KernelReport};
use crate::verify::DynamicPlanStats;
use gpu_sim::timing::{time_kernel, TrafficSummary};
use gpu_sim::trace::Trace;
use gpu_sim::{
    launch_with, BlockKernel, BufId, DeviceSpec, ExecConfig, GpuMemory, Json, KernelStats,
    LaunchConfig, Precision, Result, SanitizerViolation, SimError,
};
use std::ops::Range;
use tridiag_core::{Layout, RaggedBatch, SystemBatch};

/// A host batch the executors run: a [`SystemBatch`] (`m` systems of
/// `n` rows, in either layout) or a [`RaggedBatch`] (per-system row
/// counts, back to back), uploaded as its four arrays.
pub trait HostBatch<S: GpuScalar>: Sync + Sized {
    /// Number of systems.
    fn num_systems(&self) -> usize;
    /// Rows per system; the longest system's in a ragged batch.
    fn system_len(&self) -> usize;
    /// First element of each system, then the total, when the systems'
    /// row counts differ; `None` when every system has
    /// [`HostBatch::system_len`] rows (the convention of
    /// [`KernelOp::Fused`]'s `rows`).
    fn ragged_offsets(&self) -> Option<&[usize]>;
    /// Storage layout of the arrays (a ragged batch is system-major).
    fn layout(&self) -> Layout;
    /// The four coefficient arrays `(a, b, c, d)`.
    fn arrays(&self) -> (&[S], &[S], &[S], &[S]);
    /// Systems `systems` as a batch of their own, in this batch's
    /// layout.
    fn sub_batch(&self, systems: Range<usize>) -> tridiag_core::Result<Self>;
}

impl<S: GpuScalar> HostBatch<S> for SystemBatch<S> {
    fn num_systems(&self) -> usize {
        self.num_systems()
    }
    fn system_len(&self) -> usize {
        self.system_len()
    }
    fn ragged_offsets(&self) -> Option<&[usize]> {
        None
    }
    fn layout(&self) -> Layout {
        self.layout()
    }
    fn arrays(&self) -> (&[S], &[S], &[S], &[S]) {
        self.arrays()
    }
    fn sub_batch(&self, systems: Range<usize>) -> tridiag_core::Result<Self> {
        self.sub_batch(systems)
    }
}

impl<S: GpuScalar> HostBatch<S> for RaggedBatch<S> {
    fn num_systems(&self) -> usize {
        self.num_systems()
    }
    fn system_len(&self) -> usize {
        self.max_len()
    }
    fn ragged_offsets(&self) -> Option<&[usize]> {
        self.uniform_len().is_none().then(|| self.offsets())
    }
    fn layout(&self) -> Layout {
        Layout::Contiguous
    }
    fn arrays(&self) -> (&[S], &[S], &[S], &[S]) {
        self.arrays()
    }
    fn sub_batch(&self, systems: Range<usize>) -> tridiag_core::Result<Self> {
        self.sub_batch(systems)
    }
}

/// Whether a batch's ragged offsets and a plan's ragged row counts
/// describe the same systems (both `None`: both uniform).
pub(crate) fn same_rows(offsets: Option<&[usize]>, rows: Option<&[usize]>) -> bool {
    match (offsets, rows) {
        (None, None) => true,
        (Some(o), Some(r)) => {
            o.len() == r.len() + 1 && o.windows(2).zip(r).all(|(w, &r)| w[1] - w[0] == r)
        }
        _ => false,
    }
}

/// Runs plans (and standalone launches) against one device, collecting
/// every launch's artifacts in arrival order.
#[derive(Debug, Clone)]
pub struct PlanExecutor {
    spec: DeviceSpec,
    exec: ExecConfig,
    /// Per-kernel reports (timing, traffic, occupancy), in launch order.
    pub kernels: Vec<KernelReport>,
    /// Measured counters per launch, parallel to `kernels`.
    pub stats: Vec<KernelStats>,
    /// Sanitizer findings across every launch.
    pub violations: Vec<SanitizerViolation>,
    /// Phase-attribution counters that failed to sum to kernel totals,
    /// prefixed with the kernel name.
    pub phase_sum_mismatches: Vec<String>,
}

impl PlanExecutor {
    /// An executor for `spec` running launches under `exec`.
    pub fn new(spec: DeviceSpec, exec: ExecConfig) -> Self {
        Self {
            spec,
            exec,
            kernels: Vec::new(),
            stats: Vec::new(),
            violations: Vec::new(),
            phase_sum_mismatches: Vec::new(),
        }
    }

    /// The device spec launches run against.
    pub fn spec(&self) -> &DeviceSpec {
        &self.spec
    }

    /// Launch one kernel and collect its artifacts: sanitizer
    /// violations, the phase-sum invariant, and the timing/traffic
    /// report.
    pub fn launch<S: GpuScalar, K: BlockKernel<S>>(
        &mut self,
        cfg: &LaunchConfig,
        kernel: &K,
        mem: &mut GpuMemory<'_, S>,
    ) -> Result<()> {
        let precision = if <S as gpu_sim::Elem>::BYTES == 4 {
            Precision::F32
        } else {
            Precision::F64
        };
        let mut res = launch_with(&self.spec, cfg, &self.exec, kernel, mem)?;
        self.violations.append(&mut res.violations);
        for msg in res.stats.phase_sum_mismatches() {
            self.phase_sum_mismatches
                .push(format!("{}: {msg}", res.name));
        }
        self.kernels.push(KernelReport {
            timing: time_kernel(&self.spec, &res, precision),
            traffic: TrafficSummary::from_stats(&self.spec, &res.stats),
            shared_bytes: res.shared_bytes_per_block,
            blocks: res.stats.blocks,
        });
        self.stats.push(res.stats);
        Ok(())
    }

    /// Pop the most recent launch's report and measured counters.
    /// Errors if nothing has been launched (or everything was taken).
    pub fn take_last_launch(&mut self) -> Result<(KernelReport, KernelStats)> {
        match (self.kernels.pop(), self.stats.pop()) {
            (Some(kr), Some(st)) => Ok((kr, st)),
            _ => Err(SimError::InvalidPlan("no launch recorded to take".into())),
        }
    }

    /// Execute `plan` on `batch` — a [`SystemBatch`], or a
    /// [`RaggedBatch`] under a plan of the same row counts
    /// ([`SolvePlan::build_ragged`]), uploaded as its concatenated
    /// arrays: walk the step sequence, launch every
    /// kernel through [`PlanExecutor::launch`], and assemble the
    /// [`GpuSolveReport`] (carrying the plan itself) from this run's
    /// artifacts. The executor's collections keep accumulating across
    /// runs; the report only covers this one. A solution holding NaN or
    /// Inf is a [`SimError::KernelFault`] naming the first non-finite
    /// system and row, never an `Ok` answer.
    pub fn run<S: GpuScalar>(
        &mut self,
        plan: &SolvePlan,
        batch: &impl HostBatch<S>,
    ) -> Result<(Vec<S>, GpuSolveReport)> {
        if <S as gpu_sim::Elem>::BYTES != plan.elem_bytes {
            return Err(SimError::InvalidPlan(format!(
                "plan was built for {}-byte scalars but the batch holds {}-byte scalars",
                plan.elem_bytes,
                <S as gpu_sim::Elem>::BYTES
            )));
        }
        let (m, n) = (batch.num_systems(), batch.system_len());
        if m != plan.m || n != plan.n {
            return Err(SimError::InvalidPlan(format!(
                "plan was built for m = {}, n = {} but the batch is m = {m}, n = {n}",
                plan.m, plan.n
            )));
        }
        let ragged = batch.ragged_offsets();
        if !same_rows(ragged, plan.ragged_rows()) {
            return Err(SimError::InvalidPlan(format!(
                "plan rows {:?} do not match the batch's (m = {m}, ragged: {})",
                plan.ragged_rows(),
                ragged.is_some()
            )));
        }
        // Static certification is the one gate: a plan with findings
        // never launches. The surviving report's prediction is then
        // cross-checked exactly against what this run measures.
        let verify = crate::verify::verify_plan(&self.spec, plan);
        if !verify.is_clean() {
            let msgs: Vec<String> = verify.findings.iter().map(|f| f.to_string()).collect();
            return Err(SimError::InvalidPlan(format!(
                "plan failed static verification: {}",
                msgs.join("; ")
            )));
        }
        // Buffers die right after their statically-computed last use, so
        // the arena's peak must land exactly on the verifier's
        // high-water mark.
        let mut free_at: Vec<Vec<usize>> = vec![Vec::new(); plan.steps.len()];
        for (s, lv) in verify.liveness.iter().enumerate() {
            if lv.def_step.is_some() {
                if let Some(last) = lv.last_use_step {
                    free_at[last].push(s);
                }
            }
        }
        let mut dynamic = DynamicPlanStats::default();

        // This run's artifacts start here; earlier runs stay behind.
        let first_kernel = self.kernels.len();
        let first_violation = self.violations.len();
        let first_phase_sum = self.phase_sum_mismatches.len();

        let mut mem: GpuMemory<'_, S> = GpuMemory::new();
        // Device buffer per slot, filled as each slot is created; the
        // verifier guarantees every bound slot is created exactly once
        // before use, in whatever order the plan creates them.
        let mut slots: Vec<Option<BufId>> = vec![None; plan.buffers.len()];
        // Device layout a `Convert` step asked for; each upload
        // borrows its array from the caller's batch, transposed when the
        // layouts differ.
        let mut convert_to: Option<Layout> = None;
        let mut downloaded: Option<Vec<S>> = None;
        let mut out: Option<Vec<S>> = None;
        for (i, step) in plan.steps.iter().enumerate() {
            match step {
                Step::Convert { to } => convert_to = Some(*to),
                Step::Upload { slot, source } => {
                    // Elided plans (host layout == device layout) have
                    // no Convert step: the batch's arrays are borrowed
                    // as-is, but only if it really is in the plan's
                    // device layout.
                    let to = match convert_to {
                        Some(to) => to,
                        None if batch.layout() == plan.layout => plan.layout,
                        None => {
                            return Err(SimError::InvalidPlan(format!(
                                "plan elides layout conversion but the batch is \
                                 {:?}, not the device layout {:?}",
                                batch.layout(),
                                plan.layout
                            )))
                        }
                    };
                    let (a, b, c, d) = batch.arrays();
                    let arr = match source {
                        crate::plan::CoefArray::Lower => a,
                        crate::plan::CoefArray::Diag => b,
                        crate::plan::CoefArray::Upper => c,
                        crate::plan::CoefArray::Rhs => d,
                    };
                    // The caller's array is used in place, read-only:
                    // as is when it is already in the device layout,
                    // transposed otherwise. Nothing is copied.
                    let buf = if to == batch.layout() {
                        mem.borrow(arr)
                    } else if ragged.is_some() {
                        return Err(SimError::InvalidPlan(format!(
                            "a ragged batch stays {:?}; the plan converts to {to:?}",
                            batch.layout()
                        )));
                    } else {
                        // The device array is a `rows × cols` matrix
                        // whose host copy is stored column by column.
                        let (rows, cols) = match to {
                            Layout::Interleaved => (n, m),
                            Layout::Contiguous => (m, n),
                        };
                        mem.borrow_transposed(arr, rows, cols)?
                    };
                    dynamic
                        .h2d
                        .push((i, arr.len() * <S as gpu_sim::Elem>::BYTES));
                    slots[*slot] = Some(buf);
                }
                Step::Alloc { slot } => {
                    slots[*slot] = Some(mem.alloc(plan.buffers[*slot].elems));
                }
                Step::Launch(ls) => {
                    let cfg = LaunchConfig::new(ls.name, ls.grid_blocks, ls.threads_per_block)
                        .with_regs(ls.regs_per_thread);
                    match &ls.op {
                        KernelOp::PThomas {
                            a,
                            b,
                            c,
                            d,
                            c_prime,
                            d_prime,
                            x,
                            map,
                        } => {
                            let kernel = PThomasKernel {
                                a: bound(&slots, *a)?,
                                b: bound(&slots, *b)?,
                                c: bound(&slots, *c)?,
                                d: bound(&slots, *d)?,
                                c_prime: bound(&slots, *c_prime)?,
                                d_prime: bound(&slots, *d_prime)?,
                                x: bound(&slots, *x)?,
                                map: *map,
                            };
                            self.launch(&cfg, &kernel, &mut mem)?;
                        }
                        KernelOp::TiledPcr {
                            input,
                            output,
                            n,
                            k,
                            sub_tile,
                            assignments,
                        } => {
                            let kernel = TiledPcrKernel {
                                input: bound4(&slots, *input)?,
                                output: bound4(&slots, *output)?,
                                n: *n,
                                k: *k,
                                sub_tile: *sub_tile,
                                assignments: assignments.clone(),
                            };
                            self.launch(&cfg, &kernel, &mut mem)?;
                        }
                        KernelOp::Fused {
                            input,
                            c_prime,
                            d_prime,
                            x,
                            n,
                            k,
                            sub_tile,
                            m,
                            rows,
                        } => {
                            let fused = FusedKernel {
                                input: bound4(&slots, *input)?,
                                c_prime: bound(&slots, *c_prime)?,
                                d_prime: bound(&slots, *d_prime)?,
                                x: bound(&slots, *x)?,
                                n: *n,
                                k: *k,
                                sub_tile: *sub_tile,
                                m: *m,
                            };
                            match rows {
                                None => self.launch(&cfg, &fused, &mut mem)?,
                                Some(rows) => {
                                    let offsets = std::iter::once(0)
                                        .chain(rows.iter().scan(0, |end, &r| {
                                            *end += r;
                                            Some(*end)
                                        }))
                                        .collect();
                                    let kernel = RaggedFusedKernel { fused, offsets };
                                    self.launch(&cfg, &kernel, &mut mem)?;
                                }
                            }
                        }
                    }
                    match dynamic.launches.iter_mut().find(|(n, _)| *n == ls.name) {
                        Some((_, c)) => *c += 1,
                        None => dynamic.launches.push((ls.name, 1)),
                    }
                }
                Step::Download { slot } => {
                    // A download that is the buffer's last use moves
                    // the buffer out instead of copying it.
                    let buf = bound(&slots, *slot)?;
                    let xs = if free_at[i].contains(slot) {
                        mem.take(buf)?
                    } else {
                        mem.read(buf)?
                    };
                    dynamic
                        .d2h
                        .push((i, xs.len() * <S as gpu_sim::Elem>::BYTES));
                    downloaded = Some(xs);
                }
                Step::ConvertBack { from } => {
                    let xs = downloaded.take().ok_or_else(|| {
                        SimError::InvalidPlan("convert-back step before the download".into())
                    })?;
                    out = Some(if *from == batch.layout() {
                        xs
                    } else {
                        let mut o = vec![S::ZERO; xs.len()];
                        from.convert(batch.layout(), &xs, m, n, &mut o);
                        o
                    });
                }
            }
            // Release every buffer whose last use was this step.
            for &s in &free_at[i] {
                mem.free(bound(&slots, s)?)?;
            }
        }
        let out = out
            .or(downloaded)
            .ok_or_else(|| SimError::InvalidPlan("plan produced no solution".into()))?;
        // The kernels are pivot-free and only trap exact zero pivots, so
        // a NaN or Inf in the input sweeps straight through to `x`.
        if !out.iter().all(|v| v.is_finite()) {
            let rows = |sys: usize| ragged.map_or(n, |o| o[sys + 1] - o[sys]);
            let index = |sys: usize, row: usize| match ragged {
                Some(o) => o[sys] + row,
                None => batch.layout().index(sys, row, m, n),
            };
            let (sys, row) = (0..m)
                .flat_map(|sys| (0..rows(sys)).map(move |row| (sys, row)))
                .find(|&(sys, row)| !out[index(sys, row)].is_finite())
                .unwrap_or_default();
            return Err(SimError::KernelFault(format!(
                "non-finite solution at system {sys}, row {row}"
            )));
        }
        dynamic.peak_resident_bytes = mem.peak_resident_bytes();
        let verify_mismatches = verify.prediction.cross_check(&dynamic);

        let kernels = self.kernels[first_kernel..].to_vec();
        let trace = build_trace(&self.spec, plan, &kernels);
        let report = GpuSolveReport {
            k: plan.k,
            mapping: plan.mapping,
            fused: plan.fused,
            total_us: kernels.iter().map(|kr| kr.timing.total_us).sum(),
            kernels,
            precision: plan.precision,
            violations: self.violations[first_violation..].to_vec(),
            phase_sum_mismatches: self.phase_sum_mismatches[first_phase_sum..].to_vec(),
            verify,
            verify_mismatches,
            trace,
            plan: plan.clone(),
            shards: Vec::new(),
            distributed: None,
        };
        Ok((out, report))
    }
}

/// The device buffer created for `slot`; a typed error for a slot no
/// step has created yet.
fn bound(slots: &[Option<BufId>], slot: Slot) -> Result<BufId> {
    slots.get(slot).copied().flatten().ok_or_else(|| {
        SimError::InvalidPlan(format!("slot {slot} is used before any step creates it"))
    })
}

/// [`bound`] for a launch's four coefficient slots.
fn bound4(slots: &[Option<BufId>], quad: [Slot; 4]) -> Result<[BufId; 4]> {
    Ok([
        bound(slots, quad[0])?,
        bound(slots, quad[1])?,
        bound(slots, quad[2])?,
        bound(slots, quad[3])?,
    ])
}

/// Build the solve's span/event trace from the finished kernel
/// reports: pipeline decisions as instants at t = 0, then each launch
/// as a span on a cumulative modeled-time axis with its launch overhead
/// and per-phase children nested inside.
fn build_trace(spec: &DeviceSpec, plan: &SolvePlan, kernels: &[KernelReport]) -> Trace {
    let mut tr = Trace::new(format!("tridiag solve on {}", spec.name));
    let total: f64 = kernels.iter().map(|kr| kr.timing.total_us).sum();
    tr.span(
        "solve",
        "solver",
        0,
        0.0,
        total,
        vec![
            ("m".into(), Json::num(plan.m as f64)),
            ("n".into(), Json::num(plan.n as f64)),
            ("precision".into(), Json::str(plan.precision)),
        ],
    );
    tr.instant(
        "transition_rule",
        "solver",
        0,
        0.0,
        vec![
            (
                "policy".into(),
                Json::str(format!("{:?}", plan.config.policy)),
            ),
            ("m".into(), Json::num(plan.m as f64)),
            ("n".into(), Json::num(plan.n as f64)),
            ("parallelism".into(), Json::num(spec.parallelism() as f64)),
            ("k".into(), Json::num(plan.k)),
        ],
    );
    tr.instant(
        "grid_mapping",
        "solver",
        0,
        0.0,
        vec![
            ("mapping".into(), Json::str(format!("{:?}", plan.mapping))),
            ("fused".into(), Json::Bool(plan.fused)),
        ],
    );
    tr.instant(
        "buffer_setup",
        "solver",
        0,
        0.0,
        vec![
            ("device_elems".into(), Json::num(plan.device_elems() as f64)),
            ("device_bytes".into(), Json::num(plan.device_bytes() as f64)),
        ],
    );
    let mut cursor = 0.0f64;
    for kr in kernels {
        kernel_spans(&mut tr, 0, cursor, kr);
        cursor += kr.timing.total_us;
    }
    tr
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::solver::GpuSolverConfig;
    use tridiag_core::generators::random_batch;

    fn plan_for(m: usize, n: usize, bytes: usize) -> SolvePlan {
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
    fn precision_mismatch_is_a_typed_error() {
        let plan = plan_for(8, 64, 8);
        let batch = random_batch::<f32>(8, 64, 1);
        let mut ex = PlanExecutor::new(DeviceSpec::gtx480(), ExecConfig::default());
        let err = ex.run(&plan, &batch).unwrap_err();
        assert!(matches!(err, SimError::InvalidPlan(_)), "{err:?}");
    }

    #[test]
    fn geometry_mismatch_is_a_typed_error() {
        let plan = plan_for(8, 64, 8);
        let batch = random_batch::<f64>(8, 128, 1);
        let mut ex = PlanExecutor::new(DeviceSpec::gtx480(), ExecConfig::default());
        let err = ex.run(&plan, &batch).unwrap_err();
        assert!(matches!(err, SimError::InvalidPlan(_)), "{err:?}");
    }

    #[test]
    fn malformed_plan_is_rejected_before_any_launch() {
        let base = plan_for(8, 64, 8);
        let download_at = base
            .steps
            .iter()
            .position(|s| matches!(s, Step::Download { .. }))
            .unwrap();
        let corrupt = |f: &dyn Fn(&mut SolvePlan)| {
            let mut plan = base.clone();
            f(&mut plan);
            plan
        };
        let cases = [
            (
                "no download",
                corrupt(&|p| {
                    p.steps.remove(download_at);
                }),
            ),
            (
                "two downloads",
                corrupt(&|p| p.steps.insert(download_at, p.steps[download_at].clone())),
            ),
            ("no buffers", corrupt(&|p| p.buffers.clear())),
            ("zero-element buffer", corrupt(&|p| p.buffers[0].elems = 0)),
            (
                "empty grid",
                corrupt(&|p| {
                    for s in &mut p.steps {
                        if let Step::Launch(ls) = s {
                            ls.grid_blocks = 0;
                        }
                    }
                }),
            ),
            (
                "no launch",
                corrupt(&|p| p.steps.retain(|s| !matches!(s, Step::Launch(_)))),
            ),
        ];
        let batch = random_batch::<f64>(8, 64, 1);
        for (what, plan) in cases {
            let mut ex = PlanExecutor::new(DeviceSpec::gtx480(), ExecConfig::default());
            match ex.run(&plan, &batch).unwrap_err() {
                SimError::InvalidPlan(msg) => {
                    assert!(msg.contains("malformed-plan"), "{what}: {msg}")
                }
                other => panic!("{what}: expected InvalidPlan, got {other:?}"),
            }
            assert!(ex.kernels.is_empty(), "{what}: a kernel launched");
        }
    }

    #[test]
    fn out_of_order_slot_creation_executes_correctly() {
        let plan = plan_for(64, 512, 8);
        let batch = random_batch::<f64>(64, 512, 3);
        let mut ex = PlanExecutor::new(DeviceSpec::gtx480(), ExecConfig::default());
        let (want, _) = ex.run(&plan, &batch).unwrap();
        // Create slot 1 before slot 0, and allocate the last scratch
        // slot before its neighbour.
        let mut shuffled = plan.clone();
        let first = |p: &SolvePlan, slot: Slot| {
            p.steps.iter().position(|s| {
                matches!(s, Step::Upload { slot: t, .. } | Step::Alloc { slot: t } if *t == slot)
            })
        };
        let last = plan.buffers.len() - 1;
        for (x, y) in [(0, 1), (last - 1, last)] {
            let (i, j) = (first(&shuffled, x).unwrap(), first(&shuffled, y).unwrap());
            shuffled.steps.swap(i, j);
        }
        assert_ne!(shuffled.steps, plan.steps);
        let (got, report) = ex.run(&shuffled, &batch).unwrap();
        assert!(report.verify.is_clean(), "{}", report.verify);
        assert!(
            report.verify_mismatches.is_empty(),
            "{:?}",
            report.verify_mismatches
        );
        assert_eq!(got, want, "slot order changed the solution");
    }

    #[test]
    fn take_last_launch_once_drained_is_a_typed_error() {
        let plan = plan_for(32, 64, 8);
        let batch = random_batch::<f64>(32, 64, 1);
        let mut ex = PlanExecutor::new(DeviceSpec::gtx480(), ExecConfig::default());
        ex.run(&plan, &batch).unwrap();
        assert!(ex.take_last_launch().is_ok());
        while ex.take_last_launch().is_ok() {}
        assert!(matches!(
            ex.take_last_launch().unwrap_err(),
            SimError::InvalidPlan(_)
        ));
    }

    #[test]
    fn executor_accumulates_across_runs_but_reports_slice_per_run() {
        let mut ex = PlanExecutor::new(DeviceSpec::gtx480(), ExecConfig::default());
        let plan = plan_for(32, 64, 8);
        let batch = random_batch::<f64>(32, 64, 1);
        let (_, r1) = ex.run(&plan, &batch).unwrap();
        let (_, r2) = ex.run(&plan, &batch).unwrap();
        assert_eq!(r1.kernels.len(), r2.kernels.len());
        assert_eq!(ex.kernels.len(), r1.kernels.len() + r2.kernels.len());
    }
}
