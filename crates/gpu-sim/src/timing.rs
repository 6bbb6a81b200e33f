//! The analytic timing model: counters → modeled microseconds.
//!
//! The model converts a launch's exact functional counters into time
//! using three first-order terms per *wave* of resident blocks, taking
//! their maximum (the classic bulk-synchronous roofline):
//!
//! 1. **Compute**: FLOPs (and shared-memory replay cycles) divided by
//!    the active SMs' arithmetic throughput at the kernel's precision.
//! 2. **Bandwidth**: segment-padded DRAM traffic divided by the
//!    *achieved* bandwidth, which Little's law caps by the in-flight
//!    request concurrency the wave's resident warps can sustain —
//!    `min(peak, warps × MLP × segment / latency)`. Low occupancy
//!    (Davidson's coarse tiles) therefore directly throttles bandwidth.
//! 3. **Latency floor**: the longest dependent-access chain of any
//!    block, `ceil(rounds / MLP) × dram_latency` — the term that makes
//!    small-M workloads flat in Fig. 12 (adding blocks doesn't lengthen
//!    the chain until bandwidth saturates).
//!
//! Kernel launch overhead is a fixed per-launch cost, which is exactly
//! what the paper's kernel fusion optimisation (Section III-C) removes.
//!
//! Absolute numbers are a model, not a measurement; the reproduction
//! targets the paper's *shapes* (crossover locations, flat regions,
//! who-wins ordering), which depend only on these first-order terms.

use crate::counters::{BlockStats, KernelStats, PhaseStats};
use crate::exec::LaunchResult;
use crate::spec::{DeviceSpec, Precision};

/// Which term bound a kernel's modeled time.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum BoundKind {
    /// Arithmetic throughput.
    Compute,
    /// DRAM bandwidth (possibly concurrency-throttled).
    Bandwidth,
    /// Dependent-access latency chain.
    Latency,
    /// Fixed launch overhead dominates (tiny kernels).
    Launch,
}

/// Modeled time attributed to one named kernel phase.
///
/// Attribution rule: each of the kernel's three body terms (compute /
/// bandwidth / latency) is split across phases in proportion to the
/// phase's share of the counters that drive that term — flops plus
/// shared/barrier cycles for compute, global transactions for
/// bandwidth, dependent rounds for latency. The phase's headline `us`
/// splits the kernel's *body* time (total minus launch overhead) by
/// the shares of whichever term bounds the kernel, with the last phase
/// absorbing the floating-point remainder so the phase times sum to
/// the body time **exactly**. Launch overhead is a per-launch cost and
/// is deliberately not attributed to any phase.
#[derive(Debug, Clone, PartialEq)]
pub struct PhaseTiming {
    /// Phase label (see [`crate::exec::BlockCtx::phase`]).
    pub label: &'static str,
    /// Share of the kernel's body time attributed to this phase (µs);
    /// sums exactly to `total_us - launch_us` across phases.
    pub us: f64,
    /// Compute-term share (µs).
    pub compute_us: f64,
    /// Bandwidth-term share (µs).
    pub bandwidth_us: f64,
    /// Latency-term share (µs).
    pub latency_us: f64,
    /// The phase's own dominating term.
    pub bound: BoundKind,
    /// The phase's aggregated counters (summed over blocks).
    pub stats: BlockStats,
}

/// Modeled execution time of one kernel launch, with its breakdown.
#[derive(Debug, Clone, PartialEq)]
pub struct KernelTiming {
    /// Kernel name.
    pub name: &'static str,
    /// Number of scheduling waves.
    pub waves: u32,
    /// Time attributed to compute across waves (µs).
    pub compute_us: f64,
    /// Time attributed to memory traffic across waves (µs).
    pub bandwidth_us: f64,
    /// Time attributed to exposed latency across waves (µs).
    pub latency_us: f64,
    /// Fixed launch overhead (µs).
    pub launch_us: f64,
    /// Total modeled time (µs), including launch overhead.
    pub total_us: f64,
    /// The dominating term.
    pub bound: BoundKind,
    /// Occupancy fraction achieved.
    pub occupancy_fraction: f64,
    /// Per-phase attribution of the body time (empty when the launch
    /// recorded no phase counters, e.g. hand-built stats in tests).
    pub phases: Vec<PhaseTiming>,
}

/// Convert a [`LaunchResult`] into modeled time on `spec`.
pub fn time_kernel(spec: &DeviceSpec, launch: &LaunchResult, precision: Precision) -> KernelTiming {
    let stats = &launch.stats;
    let occ = launch.occupancy;
    let concurrent_blocks = (occ.blocks_per_sm as usize * spec.num_sms as usize).max(1);

    let mut compute_cycles = 0.0f64;
    let mut bandwidth_cycles = 0.0f64;
    let mut latency_cycles = 0.0f64;

    let warps_per_block = launch
        .config
        .threads_per_block
        .div_ceil(spec.warp_size) as f64;
    let ops_per_cycle = spec.ops_per_cycle_sm(precision);
    let mlp = spec.loads_in_flight_per_warp as f64;

    let blocks = stats.blocks;
    let mut waves = 0u32;
    let mut start = 0usize;
    while start < blocks {
        let end = (start + concurrent_blocks).min(blocks);
        waves += 1;
        let wave = start..end;
        let wave_blocks = end - start;
        // The hardware scheduler spreads blocks round-robin across SMs,
        // so a wave of B blocks engages min(B, num_sms) SMs.
        let active_sms = wave_blocks.min(spec.num_sms as usize) as f64;

        // --- compute term -------------------------------------------
        let wave_flops: u64 = stats.flops_per_block[wave.clone()].iter().sum();
        // Shared-memory instructions serialize on the banks; a conflict-
        // free block-wide access costs one cycle per warp, replays add.
        let shared_fraction = wave_blocks as f64 / blocks as f64;
        let shared_cycles = (stats.total.shared_accesses as f64 * warps_per_block
            + stats.total.bank_conflict_replays as f64)
            * shared_fraction;
        let barrier_cycles =
            stats.total.barriers as f64 * shared_fraction * 20.0 / occ.blocks_per_sm as f64;
        let wave_compute =
            wave_flops as f64 / (ops_per_cycle * active_sms) + (shared_cycles + barrier_cycles) / active_sms;

        // --- bandwidth term ------------------------------------------
        let wave_traffic: f64 = {
            // Transactions are tracked in aggregate; attribute to the
            // wave by its share of useful bytes (exact when blocks are
            // homogeneous, which the solver kernels are).
            let wave_bytes: u64 = stats.bytes_per_block[wave.clone()].iter().sum();
            let total_bytes = stats.total.global_bytes().max(1);
            stats.total.global_transactions() as f64 * spec.transaction_bytes as f64
                * (wave_bytes as f64 / total_bytes as f64)
        };
        let resident_warps = occ.warps_per_sm as f64 * active_sms;
        let achievable =
            resident_warps * mlp * spec.transaction_bytes as f64 / spec.dram_latency_cycles as f64;
        let sm_share = (active_sms / spec.num_sms as f64).sqrt().max(1.0 / spec.num_sms as f64);
        let effective_bw = (spec.bytes_per_cycle() * sm_share).min(achievable.max(1e-9));
        let wave_bandwidth = wave_traffic / effective_bw;

        // --- latency floor -------------------------------------------
        let max_rounds = stats.rounds_per_block[wave.clone()]
            .iter()
            .copied()
            .max()
            .unwrap_or(0) as f64;
        let wave_latency = (max_rounds / mlp).ceil() * spec.dram_latency_cycles as f64;

        compute_cycles += wave_compute;
        bandwidth_cycles += wave_bandwidth;
        latency_cycles += wave_latency;
        start = end;
    }

    let compute_us = spec.cycles_to_us(compute_cycles);
    let bandwidth_us = spec.cycles_to_us(bandwidth_cycles);
    let latency_us = spec.cycles_to_us(latency_cycles);
    let launch_us = spec.launch_overhead_us;
    let body_us = compute_us.max(bandwidth_us).max(latency_us);
    let total_us = launch_us + body_us;

    let bound = if body_us < launch_us {
        BoundKind::Launch
    } else if body_us == compute_us {
        BoundKind::Compute
    } else if body_us == bandwidth_us {
        BoundKind::Bandwidth
    } else {
        BoundKind::Latency
    };

    let phases = attribute_phases(
        &stats.phases,
        [compute_us, bandwidth_us, latency_us],
        body_us,
        // The partition target is what callers observe: `total − launch`
        // can differ from `body_us` in the last bit, and the invariant
        // Σ phase.us == total_us − launch_us must hold exactly.
        total_us - launch_us,
        bound,
        ops_per_cycle,
        warps_per_block,
        occ.blocks_per_sm as f64,
    );

    KernelTiming {
        name: launch.name,
        waves,
        compute_us,
        bandwidth_us,
        latency_us,
        launch_us,
        total_us,
        bound,
        occupancy_fraction: occ.fraction(spec),
        phases,
    }
}

/// Split the kernel's three body terms across its phases (see
/// [`PhaseTiming`] for the attribution rule).
#[allow(clippy::too_many_arguments)]
fn attribute_phases(
    phases: &[PhaseStats],
    [compute_us, bandwidth_us, latency_us]: [f64; 3],
    body_us: f64,
    body_target: f64,
    kernel_bound: BoundKind,
    ops_per_cycle: f64,
    warps_per_block: f64,
    blocks_per_sm: f64,
) -> Vec<PhaseTiming> {
    if phases.is_empty() {
        return Vec::new();
    }
    // Per-phase proxies in the same cycle units the wave model uses, so
    // proportional shares reproduce the model's weighting.
    let compute_w: Vec<f64> = phases
        .iter()
        .map(|p| {
            p.stats.flops as f64 / ops_per_cycle
                + p.stats.shared_accesses as f64 * warps_per_block
                + p.stats.bank_conflict_replays as f64
                + p.stats.barriers as f64 * 20.0 / blocks_per_sm
        })
        .collect();
    let bandwidth_w: Vec<f64> = phases
        .iter()
        .map(|p| p.stats.global_transactions() as f64)
        .collect();
    let latency_w: Vec<f64> = phases
        .iter()
        .map(|p| p.stats.global_access_rounds as f64)
        .collect();
    let share = |w: &[f64], i: usize| {
        let sum: f64 = w.iter().sum();
        if sum > 0.0 {
            w[i] / sum
        } else {
            1.0 / w.len() as f64
        }
    };
    // body_us was assigned as the max of the three terms, so exact
    // equality identifies the bounding term's weights.
    let body_w = if body_us == compute_us {
        &compute_w
    } else if body_us == bandwidth_us {
        &bandwidth_w
    } else {
        &latency_w
    };
    let mut out = Vec::with_capacity(phases.len());
    let mut attributed = 0.0f64;
    for (i, p) in phases.iter().enumerate() {
        let c = compute_us * share(&compute_w, i);
        let b = bandwidth_us * share(&bandwidth_w, i);
        let l = latency_us * share(&latency_w, i);
        // Last phase absorbs the fp remainder: Σ us == body_target
        // (i.e. total_us − launch_us) exactly.
        let us = if i + 1 == phases.len() {
            body_target - attributed
        } else {
            body_target * share(body_w, i)
        };
        attributed += us;
        let bound = if c > 0.0 && c >= b && c >= l {
            BoundKind::Compute
        } else if b > 0.0 && b >= l {
            BoundKind::Bandwidth
        } else if l > 0.0 {
            BoundKind::Latency
        } else {
            kernel_bound
        };
        out.push(PhaseTiming {
            label: p.label,
            us,
            compute_us: c,
            bandwidth_us: b,
            latency_us: l,
            bound,
            stats: p.stats,
        });
    }
    // When the absorbing phase's true share is ~0, rounding in the
    // earlier shares can leave it a few ulps negative. Zero it and move
    // the absorber role one phase earlier (trailing zeros add exactly,
    // so the left fold still lands on body_target).
    let mut i = out.len();
    while i >= 2 && out[i - 1].us < 0.0 {
        out[i - 1].us = 0.0;
        let prefix: f64 = out[..i - 2].iter().map(|p| p.us).sum();
        out[i - 2].us = body_target - prefix;
        i -= 1;
    }
    if let Some(first) = out.first_mut() {
        first.us = first.us.max(0.0);
    }
    out
}

/// Helper: total modeled time of a sequence of dependent kernel
/// launches (each pays its own launch overhead — what fusion removes).
pub fn sequence_us(timings: &[KernelTiming]) -> f64 {
    timings.iter().map(|t| t.total_us).sum()
}

/// Summary statistics that benches print alongside times.
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct TrafficSummary {
    /// DRAM traffic in MiB (segment-padded).
    pub traffic_mib: f64,
    /// Coalescing efficiency in `[0, 1]`.
    pub coalescing: f64,
    /// FLOPs in millions.
    pub mflops: f64,
}

impl TrafficSummary {
    /// Extract from launch counters.
    pub fn from_stats(spec: &DeviceSpec, stats: &KernelStats) -> Self {
        TrafficSummary {
            traffic_mib: stats.total.global_transactions() as f64 * spec.transaction_bytes as f64
                / (1024.0 * 1024.0),
            coalescing: stats
                .total
                .coalescing_efficiency(spec.transaction_bytes as u64),
            mflops: stats.total.flops as f64 / 1e6,
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::counters::{BlockStats, KernelStats};
    use crate::exec::{LaunchConfig, LaunchResult};
    use crate::occupancy::occupancy;

    fn fake_launch(
        spec: &DeviceSpec,
        blocks: usize,
        threads: u32,
        shared_bytes: usize,
        per_block: BlockStats,
    ) -> LaunchResult {
        let mut stats = KernelStats {
            blocks,
            threads_per_block: threads,
            ..Default::default()
        };
        for _ in 0..blocks {
            stats.rounds_per_block.push(per_block.global_access_rounds);
            stats.flops_per_block.push(per_block.flops);
            stats.bytes_per_block.push(per_block.global_bytes());
            stats.total.merge(&per_block);
        }
        LaunchResult {
            name: "fake",
            stats,
            occupancy: occupancy(spec, threads, shared_bytes, 32).unwrap(),
            shared_bytes_per_block: shared_bytes,
            config: LaunchConfig::new("fake", blocks, threads),
            violations: Vec::new(),
        }
    }

    fn gtx480() -> DeviceSpec {
        DeviceSpec::gtx480()
    }

    fn bandwidth_block(kb: u64) -> BlockStats {
        BlockStats {
            flops: 10,
            global_load_transactions: kb * 1024 / 128,
            global_load_bytes: kb * 1024,
            global_access_rounds: 4,
            ..Default::default()
        }
    }

    #[test]
    fn tiny_kernel_is_launch_bound() {
        let spec = gtx480();
        let lr = fake_launch(
            &spec,
            1,
            32,
            0,
            BlockStats {
                flops: 100,
                global_access_rounds: 1,
                global_load_transactions: 1,
                global_load_bytes: 128,
                ..Default::default()
            },
        );
        let t = time_kernel(&spec, &lr, Precision::F32);
        assert_eq!(t.bound, BoundKind::Launch);
        assert!(t.total_us >= spec.launch_overhead_us);
    }

    #[test]
    fn saturated_grid_is_bandwidth_bound_and_scales_linearly() {
        let spec = gtx480();
        let t1 = time_kernel(
            &spec,
            &fake_launch(&spec, 4096, 256, 0, bandwidth_block(64)),
            Precision::F64,
        );
        let t2 = time_kernel(
            &spec,
            &fake_launch(&spec, 8192, 256, 0, bandwidth_block(64)),
            Precision::F64,
        );
        assert_eq!(t1.bound, BoundKind::Bandwidth);
        let ratio = (t2.total_us - t2.launch_us) / (t1.total_us - t1.launch_us);
        assert!((ratio - 2.0).abs() < 0.05, "ratio {ratio}");
    }

    #[test]
    fn few_blocks_with_long_chains_are_latency_bound_and_flat() {
        let spec = gtx480();
        let chainy = BlockStats {
            flops: 1000,
            global_load_transactions: 1024,
            global_load_bytes: 1024 * 128,
            global_access_rounds: 1024, // long dependent chain
            ..Default::default()
        };
        let t8 = time_kernel(&spec, &fake_launch(&spec, 8, 64, 0, chainy), Precision::F64);
        let t64 = time_kernel(&spec, &fake_launch(&spec, 64, 64, 0, chainy), Precision::F64);
        assert_eq!(t8.bound, BoundKind::Latency);
        // Same wave count, same chain: flat region.
        assert!((t8.total_us - t64.total_us).abs() / t8.total_us < 0.05);
    }

    #[test]
    fn fp64_compute_slower_than_fp32() {
        let spec = gtx480();
        let hot = BlockStats {
            flops: 4_000_000,
            global_load_transactions: 8,
            global_load_bytes: 1024,
            global_access_rounds: 2,
            ..Default::default()
        };
        let lr = fake_launch(&spec, 120, 256, 0, hot);
        let t32 = time_kernel(&spec, &lr, Precision::F32);
        let t64 = time_kernel(&spec, &lr, Precision::F64);
        assert_eq!(t64.bound, BoundKind::Compute);
        assert!(t64.compute_us > 4.0 * t32.compute_us);
    }

    #[test]
    fn low_occupancy_throttles_bandwidth() {
        let spec = gtx480();
        // Same traffic; one config hogs shared memory (1 block/SM,
        // Davidson-style), the other runs 8 blocks/SM.
        let blk = bandwidth_block(256);
        let coarse = time_kernel(
            &spec,
            &fake_launch(&spec, 120, 128, 40 * 1024, blk),
            Precision::F64,
        );
        let fine = time_kernel(
            &spec,
            &fake_launch(&spec, 120, 128, 5 * 1024, blk),
            Precision::F64,
        );
        assert!(
            coarse.total_us > 1.5 * fine.total_us,
            "coarse {} vs fine {}",
            coarse.total_us,
            fine.total_us
        );
    }

    #[test]
    fn more_waves_more_time() {
        let spec = gtx480();
        let blk = bandwidth_block(32);
        let one_wave = time_kernel(&spec, &fake_launch(&spec, 120, 256, 0, blk), Precision::F32);
        let four_waves =
            time_kernel(&spec, &fake_launch(&spec, 480, 256, 0, blk), Precision::F32);
        assert!(four_waves.waves >= 4 * one_wave.waves);
        assert!(four_waves.total_us > 2.0 * one_wave.total_us);
    }

    #[test]
    fn sequence_sums_launches() {
        let spec = gtx480();
        let lr = fake_launch(&spec, 15, 32, 0, bandwidth_block(1));
        let t = time_kernel(&spec, &lr, Precision::F32);
        let seq = sequence_us(&[t.clone(), t.clone()]);
        assert!((seq - 2.0 * t.total_us).abs() < 1e-9);
        // Two separate launches pay two overheads — fusing into one
        // kernel would save one.
        assert!(seq >= 2.0 * spec.launch_overhead_us);
    }

    #[test]
    fn phase_attribution_sums_exactly_to_body_time() {
        use crate::counters::PhaseStats;
        let spec = gtx480();
        let mut lr = fake_launch(&spec, 4096, 256, 0, bandwidth_block(64));
        // Split the totals 3-way: a load-heavy phase, a compute phase,
        // and a small store phase.
        let t = &lr.stats.total;
        let third = BlockStats {
            flops: t.flops / 2,
            global_load_transactions: t.global_load_transactions / 4,
            global_load_bytes: t.global_load_bytes / 4,
            global_access_rounds: t.global_access_rounds / 2,
            ..Default::default()
        };
        let mut first = *t;
        first.flops -= third.flops;
        first.global_load_transactions -= third.global_load_transactions;
        first.global_load_bytes -= third.global_load_bytes;
        first.global_access_rounds -= third.global_access_rounds;
        lr.stats.phases = vec![
            PhaseStats { label: "load", stats: first },
            PhaseStats { label: "mid", stats: BlockStats::default() },
            PhaseStats { label: "store", stats: third },
        ];
        let timing = time_kernel(&spec, &lr, Precision::F64);
        assert_eq!(timing.phases.len(), 3);
        let sum: f64 = timing.phases.iter().map(|p| p.us).sum();
        // Bit-exact by construction (last phase absorbs the remainder).
        assert_eq!(sum, timing.total_us - timing.launch_us);
        assert!(timing.phases[0].us > timing.phases[2].us);
        // The idle middle phase gets no body time to speak of and
        // inherits the kernel bound.
        assert_eq!(timing.phases[1].bound, timing.bound);
        assert_eq!(timing.phases[0].stats.flops, first.flops);
    }

    #[test]
    fn phaseless_stats_produce_no_phase_timings() {
        let spec = gtx480();
        let lr = fake_launch(&spec, 16, 256, 0, bandwidth_block(4));
        assert!(time_kernel(&spec, &lr, Precision::F32).phases.is_empty());
    }

    #[test]
    fn traffic_summary() {
        let spec = gtx480();
        let lr = fake_launch(&spec, 4, 256, 0, bandwidth_block(128));
        let s = TrafficSummary::from_stats(&spec, &lr.stats);
        assert!((s.traffic_mib - 0.5).abs() < 1e-9);
        assert!((s.coalescing - 1.0).abs() < 1e-9);
        assert!((s.mflops - 4e-5).abs() < 1e-9);
    }
}
