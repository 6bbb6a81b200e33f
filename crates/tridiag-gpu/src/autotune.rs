//! Empirical re-derivation of the algorithm-transition heuristic
//! (Table III) on the simulator.
//!
//! The paper: "we present empirical heuristic values that are optimized
//! on NVidia GTX480 … finding proper values for different situations can
//! be done only once and the effort can be quickly amortized". This
//! module is that one-off search: for each `M`, solve a representative
//! batch with every feasible `k` and keep the fastest. The `table3`
//! bench binary prints the result next to the paper's values.

use crate::buffers::GpuScalar;
use crate::plan::ShardedPlan;
use crate::sharded::ShardedExecutor;
use crate::solver::{GpuSolverConfig, LayoutChoice, MappingVariant};
use gpu_sim::{DeviceGroup, Result};
use tridiag_core::generators::random_batch;
use tridiag_core::transition::{max_k_for, TransitionPolicy};

/// One tuning measurement.
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct TunePoint {
    /// Number of systems.
    pub m: usize,
    /// System size used for the probe.
    pub n: usize,
    /// Fastest PCR step count found.
    pub best_k: u32,
    /// Modeled time at `best_k` (µs).
    pub best_us: f64,
    /// Modeled time at `k = 0` (pure p-Thomas), for reference.
    pub k0_us: f64,
}

/// The config that probes a fixed `k` under the `layout` request.
fn candidate_config(k: u32, layout: LayoutChoice) -> GpuSolverConfig {
    GpuSolverConfig {
        policy: TransitionPolicy::Fixed(k),
        mapping: MappingVariant::Auto,
        layout,
        ..Default::default()
    }
}

/// Search `k ∈ 0..=k_max` for the fastest configuration at each `m` on
/// `group`: plan one [`ShardedPlan`] per feasible `k` (the fixed `k`
/// pinned into every shard), execute them all through the
/// [`ShardedExecutor`] on the same probe batch, and rank by the group's
/// modeled kernel wall-clock — the max over devices, not a sum
/// (earliest `k` wins ties). A one-device group is the single-device
/// search: its sharded plan and executor are the identity path.
///
/// `layout` is the planner's layout request for every candidate:
/// `Interleaved` collapses the search (every candidate is the pure
/// p-Thomas plan, so `best_k` is always 0); `Contiguous` ranks the
/// uncoalesced strawman at `k = 0` against the hybrid pipelines.
/// Plan and execution failures propagate as typed errors.
pub fn tune<S: GpuScalar + Send + Sync>(
    group: &DeviceGroup,
    m_values: &[usize],
    n: usize,
    k_max: u32,
    layout: LayoutChoice,
) -> Result<Vec<TunePoint>> {
    let bytes = <S as gpu_sim::Elem>::BYTES;
    let mut out = Vec::with_capacity(m_values.len());
    for &m in m_values {
        let cap = max_k_for(n).min(k_max);
        let candidates: Vec<(u32, ShardedPlan)> = (0..=cap)
            .map(|k| {
                ShardedPlan::build(group, &candidate_config(k, layout), m, n, bytes).map(|p| (k, p))
            })
            .collect::<Result<_>>()?;
        let batch = random_batch::<S>(m, n, 42 + m as u64);
        let mut best_k = 0;
        let mut best_us = f64::INFINITY;
        let mut k0_us = 0.0;
        for (k, plan) in &candidates {
            let executor = ShardedExecutor::new(group.clone(), plan.reference.config.exec);
            let (_, report) = executor.run(plan, &batch)?;
            let us = report.total_us;
            if *k == 0 {
                k0_us = us;
            }
            if us < best_us {
                best_us = us;
                best_k = *k;
            }
        }
        out.push(TunePoint {
            m,
            n,
            best_k,
            best_us,
            k0_us,
        });
    }
    Ok(out)
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::executor::PlanExecutor;
    use crate::plan::SolvePlan;
    use gpu_sim::DeviceSpec;

    #[test]
    #[cfg_attr(debug_assertions, ignore = "slow simulation; run with --release")]
    fn sharded_tuning_halves_the_wall_clock() {
        // Two devices, balanced shards: modeled kernel wall-clock is
        // the max over devices, so it must come in under one device
        // solving the full batch (same probe batch, same k grid).
        let spec = DeviceSpec::gtx480();
        let group = DeviceGroup::homogeneous(spec.clone(), 2).unwrap();
        let single = DeviceGroup::single(spec.clone());
        let solo = tune::<f64>(&single, &[64], 2048, 8, LayoutChoice::Auto).unwrap();
        let duo = tune::<f64>(&group, &[64], 2048, 8, LayoutChoice::Auto).unwrap();
        assert!(
            duo[0].best_us < solo[0].best_us,
            "sharded best {} us !< single-device best {} us",
            duo[0].best_us,
            solo[0].best_us
        );
        // D == 1 tuning is the identity: the winner's time is exactly
        // a plain single-device plan-and-execute of the same probe.
        let config = candidate_config(solo[0].best_k, LayoutChoice::Auto);
        let plan = SolvePlan::build(&spec, &config, 64, 2048, 8).unwrap();
        let batch = random_batch::<f64>(64, 2048, 42 + 64);
        let (_, report) = PlanExecutor::new(spec, config.exec)
            .run(&plan, &batch)
            .unwrap();
        assert_eq!(report.total_us, solo[0].best_us);
    }

    #[test]
    #[cfg_attr(debug_assertions, ignore = "slow simulation; run with --release")]
    fn tuned_k_decreases_with_m() {
        // The defining shape of Table III: fewer systems -> deeper PCR.
        let single = DeviceGroup::single(DeviceSpec::gtx480());
        let points = tune::<f64>(&single, &[1, 64, 4096], 2048, 8, LayoutChoice::Auto).unwrap();
        assert!(points[0].best_k >= points[1].best_k);
        assert!(points[1].best_k >= points[2].best_k);
        // Saturated batches want pure p-Thomas.
        assert_eq!(points[2].best_k, 0);
        // A lone system must use PCR (k = 0 would use one thread).
        assert!(points[0].best_k > 0);
        assert!(points[0].best_us < points[0].k0_us);
    }
}
