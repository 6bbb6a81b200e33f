//! Multi-device sharded execution: one [`PlanExecutor`] per device on
//! real threads, merged into a single [`GpuSolveReport`].
//!
//! [`ShardedExecutor::run`] takes a [`ShardedPlan`] (which pinned the
//! reference plan's pipeline decisions into every shard — see
//! [`crate::plan::ShardedPlan::build`]) and:
//!
//! 1. slices the caller's batch — uniform or ragged ([`HostBatch`]) —
//!    into per-shard sub-batches by system range, in the caller's
//!    layout,
//! 2. drives each shard's [`SolvePlan`](crate::plan::SolvePlan) on its
//!    own thread (vendored crossbeam scoped threads) with a private
//!    [`PlanExecutor`] against that shard's device spec,
//! 3. surfaces the first shard fault — by device index, so the error is
//!    deterministic — as one typed [`SimError`], discarding the other
//!    shards' partial results; a worker panic is converted to
//!    [`SimError::KernelFault`], never propagated,
//! 4. merges the per-shard solutions back into the caller's batch
//!    layout by ranges (bit-identical, on a homogeneous group, to the
//!    single-device path under the reference's decision — Table III for
//!    the default policy, see
//!    [`GpuSolverConfig::multi_device`](crate::solver::GpuSolverConfig::multi_device)),
//! 5. replays each shard's steps onto its device's in-order stream
//!    ([`GroupTimeline`]) — modeled H2D copies, kernel launches, the
//!    D2H download — so the merged report's wall-clock is the **max**
//!    over devices, and emits a merged Chrome trace with one track
//!    (tid) per device,
//! 6. concatenates sanitizer/phase-sum artifacts (mismatch lines
//!    prefixed `dev{i}: `) and exact per-shard counter totals into
//!    [`GpuSolveReport::shards`].
//!
//! Steps 2, 3, 5 and 6 are the multi-device core
//! (`multi_device`) the distributed executor shares. A
//! one-shard plan short-circuits to a plain [`PlanExecutor::run`] on
//! the primary device: `D == 1` *is* the single-device path, byte for
//! byte.

use crate::buffers::GpuScalar;
use crate::executor::{same_rows, HostBatch, PlanExecutor};
use crate::multi_device::{
    counter_totals, device_track, fan_out, group_trace, replay_plan, Launch, Merged,
};
use crate::plan::{Partition, ShardedPlan};
use crate::solver::{GpuSolveReport, ShardSummary};
use gpu_sim::{DeviceGroup, ExecConfig, GroupTimeline, Json, Result, SimError};
use tridiag_core::Layout;

/// Drives a [`ShardedPlan`] across a [`DeviceGroup`], one thread per
/// shard, and merges the results.
#[derive(Debug, Clone)]
pub struct ShardedExecutor {
    group: DeviceGroup,
    exec: ExecConfig,
}

impl ShardedExecutor {
    /// An executor for `group` with execution options `exec` (applied
    /// to every shard's kernels — sanitizer, plan recording, …).
    pub fn new(group: DeviceGroup, exec: ExecConfig) -> Self {
        Self { group, exec }
    }

    /// The device group this executor drives.
    pub fn group(&self) -> &DeviceGroup {
        &self.group
    }

    /// Execute `plan` over `batch` and merge the shards. Returns the
    /// solutions in the batch's layout plus the merged report.
    ///
    /// Fails with [`SimError::InvalidPlan`] when the batch does not
    /// match the plan's geometry/width or the plan fails static
    /// verification against this group (including a plan built for a
    /// different device count); any shard failure (including a worker
    /// panic, reported as [`SimError::KernelFault`]) aborts the whole
    /// solve.
    pub fn run<S: GpuScalar + Send + Sync>(
        &self,
        plan: &ShardedPlan,
        batch: &impl HostBatch<S>,
    ) -> Result<(Vec<S>, GpuSolveReport)> {
        if batch.num_systems() != plan.m
            || batch.system_len() != plan.n
            || !same_rows(batch.ragged_offsets(), plan.reference.ragged_rows())
        {
            return Err(SimError::InvalidPlan(format!(
                "batch is {}x{} but the sharded plan was built for {}x{}",
                batch.num_systems(),
                batch.system_len(),
                plan.m,
                plan.n
            )));
        }
        if <S as gpu_sim::Elem>::BYTES != plan.elem_bytes {
            return Err(SimError::InvalidPlan(format!(
                "batch scalar is {} bytes but the sharded plan was built for {}",
                <S as gpu_sim::Elem>::BYTES,
                plan.elem_bytes
            )));
        }
        // Cross-device static verification gates execution: partition
        // coverage, pinned-decision consistency, and every shard's own
        // certificate against its device.
        crate::verify::verify_sharded_plan(&self.group, plan).into_result()?;
        if plan.shards.len() == 1 {
            // D == 1 is the identity: the shard plan *is* the reference
            // plan, and this is exactly the single-device path.
            let mut ex = PlanExecutor::new(self.group.primary().clone(), self.exec);
            return ex.run(&plan.shards[0].plan, batch);
        }

        // Slice the batch into per-shard sub-batches, each in the
        // caller's layout (its shard plan converts it as needed).
        let mut subs = Vec::with_capacity(plan.shards.len());
        for sh in &plan.shards {
            subs.push(
                batch
                    .sub_batch(sh.sys_start..sh.sys_start + sh.sys_count)
                    .map_err(|e| {
                        SimError::InvalidPlan(format!(
                            "building shard {} sub-batch: {e}",
                            sh.device_index
                        ))
                    })?,
            );
        }

        // One worker per shard, each with a private executor against
        // its own device spec.
        let runs = fan_out("shard", plan.shards.len(), |d| {
            let mut ex = PlanExecutor::new(self.group.devices()[d].clone(), self.exec);
            let (x, report) = ex.run(&plan.shards[d].plan, &subs[d])?;
            Ok((x, report, counter_totals(&ex)))
        })?;

        // Merge the shard solutions into the caller's layout by ranges:
        // a shard's systems are one run of a contiguous batch, and one
        // run per row of an interleaved one.
        let (m, n) = (plan.m, plan.n);
        let ragged = batch.ragged_offsets();
        let mut out = vec![S::ZERO; batch.arrays().0.len()];
        for (sh, (x, _, _)) in plan.shards.iter().zip(&runs) {
            let (start, count) = (sh.sys_start, sh.sys_count);
            match batch.layout() {
                Layout::Contiguous => {
                    let at = ragged.map_or(start * n, |o| o[start]);
                    out[at..][..x.len()].copy_from_slice(x)
                }
                Layout::Interleaved => {
                    for (row, xs) in x.chunks_exact(count).enumerate() {
                        out[row * m + start..][..count].copy_from_slice(xs);
                    }
                }
            }
        }

        // Replay each shard's plan onto its device's in-order stream:
        // uploads, launches (modeled kernel time), the download.
        let mut timeline = GroupTimeline::new(&self.group);
        for (sh, (_, report, _)) in plan.shards.iter().zip(&runs) {
            let stream = timeline.stream_mut(sh.device_index);
            replay_plan(stream, &sh.plan, &report.kernels, "", "shard")?;
        }
        // Kernel-only wall-clock: comparable with a single-device
        // report's total_us, which never includes copies either.
        let kernel_wall = timeline.kernel_wall_clock_us();

        // Merged Chrome trace: one track (tid) per device; phase
        // children keep their bit-exact durations, offset onto the
        // device's stream timeline.
        let mut trace = group_trace(
            "sharded",
            &self.group,
            &timeline,
            vec![
                ("m".into(), Json::num(plan.m as f64)),
                ("n".into(), Json::num(plan.n as f64)),
                ("precision".into(), Json::str(plan.precision)),
            ],
            Partition::Systems,
            plan.shards.iter().map(|sh| (sh.device_index, sh.sys_count)),
        );
        trace.instant(
            "transition_rule",
            "solver",
            0,
            0.0,
            vec![
                ("k".into(), Json::num(plan.reference.k)),
                ("pinned_from".into(), Json::str(plan.reference.device)),
            ],
        );
        trace.instant(
            "grid_mapping",
            "solver",
            0,
            0.0,
            vec![
                (
                    "mapping".into(),
                    Json::str(format!("{:?}", plan.reference.mapping)),
                ),
                ("fused".into(), Json::Bool(plan.reference.fused)),
            ],
        );

        // Merge the per-shard artifacts into one report.
        let mut merged = Merged::default();
        let mut summaries = Vec::with_capacity(runs.len());
        for (sh, (_, report, totals)) in plan.shards.iter().zip(&runs) {
            let d = sh.device_index;
            let stream = &timeline.streams()[d];
            device_track(
                &mut trace,
                d as u32,
                stream,
                report.kernels.iter().map(Launch::Kernel).collect(),
            )?;
            let (flops, global_transactions, global_bytes) = *totals;
            summaries.push(ShardSummary {
                device: sh.plan.device,
                device_index: d,
                sys_start: sh.sys_start,
                sys_count: sh.sys_count,
                k: sh.plan.k,
                kernel_us: report.total_us,
                completion_us: stream.completion_us(),
                flops,
                global_transactions,
                global_bytes,
            });
            merged.absorb(&format!("dev{d}"), report);
        }
        // The reference plan never ran; shard 0's run on the primary
        // carries the certificate.
        let verify = runs[0].1.verify.clone();
        let report =
            merged.into_report(&plan.reference, verify, kernel_wall, trace, summaries, None);
        Ok((out, report))
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::solver::{GpuSolverConfig, GpuTridiagSolver};
    use gpu_sim::DeviceSpec;
    use tridiag_core::generators::random_batch;

    fn group_of(d: usize) -> DeviceGroup {
        DeviceGroup::homogeneous(DeviceSpec::gtx480(), d).unwrap()
    }

    #[test]
    fn small_sharded_solve_is_bit_identical_to_single_device() {
        let contig = random_batch::<f64>(8, 64, 21);
        let solver = GpuTridiagSolver::gtx480();
        // Plans across devices decide under `multi_device` (Table III):
        // the ground truth is one device deciding the same way.
        let one = GpuTridiagSolver::new(
            DeviceSpec::gtx480(),
            GpuSolverConfig::default().multi_device(),
        );
        let (x1, r1) = one.solve_batch(&contig).unwrap();
        // Both layouts slice and merge by ranges.
        for batch in [contig.clone(), contig.to_layout(Layout::Interleaved)] {
            let (x2, r2) = solver.solve_batch_group(&group_of(2), &batch).unwrap();
            let x2 = batch.split_solution(&x2).unwrap().concat();
            assert_eq!(x1, x2, "sharded solutions must be bit-identical");
            assert_eq!(r2.shards.len(), 2);
            assert_eq!(r2.k, r1.k);
            assert!(r2.total_us <= r1.total_us + 1e-9);
        }
    }

    #[test]
    fn single_device_group_is_the_identity_path() {
        let batch = random_batch::<f64>(8, 64, 22);
        let solver = GpuTridiagSolver::gtx480();
        let (x1, r1) = solver.solve_batch(&batch).unwrap();
        let (x2, r2) = solver
            .solve_batch_group(&DeviceGroup::single(DeviceSpec::gtx480()), &batch)
            .unwrap();
        assert_eq!(x1, x2);
        assert_eq!(r1, r2, "D == 1 must be byte-identical, report and all");
        assert!(r2.shards.is_empty());
    }

    #[test]
    fn geometry_mismatch_is_a_typed_error() {
        let group = group_of(2);
        let plan = ShardedPlan::build(&group, &GpuSolverConfig::default(), 8, 64, 8).unwrap();
        let wrong = random_batch::<f64>(8, 32, 23);
        let err = ShardedExecutor::new(group.clone(), ExecConfig::default())
            .run(&plan, &wrong)
            .unwrap_err();
        assert!(matches!(err, SimError::InvalidPlan(_)), "{err:?}");

        // Plan built for a 2-device group, executor driving 4 devices.
        let err = ShardedExecutor::new(group_of(4), ExecConfig::default())
            .run(&plan, &random_batch::<f64>(8, 64, 23))
            .unwrap_err();
        assert!(matches!(err, SimError::InvalidPlan(_)), "{err:?}");
    }

    #[test]
    fn shard_summaries_cover_the_batch() {
        let batch = random_batch::<f64>(10, 64, 24);
        let solver = GpuTridiagSolver::gtx480();
        let (_, r) = solver.solve_batch_group(&group_of(4), &batch).unwrap();
        assert_eq!(r.shards.len(), 4);
        let total: usize = r.shards.iter().map(|s| s.sys_count).sum();
        assert_eq!(total, 10);
        assert_eq!(r.shards[0].sys_start, 0);
        for w in r.shards.windows(2) {
            assert_eq!(w[0].sys_start + w[0].sys_count, w[1].sys_start);
        }
        for s in &r.shards {
            assert!(s.flops > 0);
            assert!(s.completion_us > s.kernel_us, "copies add stream time");
        }
    }

    /// A batch one device cannot hold shards onto two: only the shard
    /// plans are held to device memory, not the full-batch reference
    /// that never runs, and the report carries a certificate of a plan
    /// that ran.
    #[test]
    fn batch_too_large_for_one_device_shards_onto_two() {
        let (m, n) = (64, 1024);
        let config = GpuSolverConfig::default();
        let full = DeviceSpec::gtx480();
        let whole = crate::plan::SolvePlan::build(&full, &config, m, n, 8).unwrap();
        let mut small = full.clone();
        small.global_mem_bytes = crate::verify::peak_resident_bytes(&whole).0 * 3 / 4;
        let solver = GpuTridiagSolver::new(small.clone(), config);
        assert!(
            solver.plan_geometry(m, n, 8).is_err(),
            "one device must overflow"
        );

        let group = DeviceGroup::homogeneous(small, 2).unwrap();
        let batch = random_batch::<f64>(m, n, 29);
        let (x, report) = solver.solve_batch_group(&group, &batch).unwrap();
        assert!(
            report.is_verify_clean(),
            "{}\n{:?}",
            report.verify,
            report.verify_mismatches
        );
        // The shrunken spec is not the stock GTX480, so it decides by
        // Table III; a full-spec solve replaying that decision matches.
        let replay = GpuSolverConfig::pinned_to(&report.plan);
        let (x1, _) = GpuTridiagSolver::new(full, replay)
            .solve_batch(&batch)
            .unwrap();
        assert_eq!(x, x1, "sharded solutions must be bit-identical");
    }
}
