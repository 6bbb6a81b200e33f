//! The kernel zoo: every shipped kernel at several launch geometries,
//! run under the sanitizer with plan recording.
//!
//! This is the harness behind `tridiag lint` and the static-vs-dynamic
//! golden-counter cross-check: each entry launches one kernel
//! configuration with [`ExecConfig::checked`], so the sanitizer checks
//! races, bounds, uninitialized reads and barriers on the executed
//! accesses, while the lint's counter model runs over the recorded
//! affine access plan and its predicted counters are compared
//! field-by-field against the measured [`KernelStats`]. A shipped
//! kernel must produce **zero sanitizer violations**, **zero lint
//! diagnostics** and **zero cross-check mismatches** at every geometry
//! here — the zoo is the executable statement of that contract.

use crate::buffers::{upload, GpuScalar};
use crate::executor::PlanExecutor;
use crate::kernels::cr_shared::CrSharedKernel;
use crate::kernels::fused::FusedKernel;
use crate::kernels::p_thomas::{AddrMap, PThomasKernel};
use crate::kernels::pcr_shared::PcrSharedKernel;
use crate::kernels::tiled_pcr::TiledPcrKernel;
use crate::multi_device::fan_out;
use crate::plan::{partition, Partition};
use gpu_sim::{
    BlockKernel, DeviceGroup, DeviceSpec, ExecConfig, GpuMemory, KernelStats, KernelTiming,
    LaunchConfig, LintReport, Result, SanitizerViolation,
};
use tridiag_core::generators::random_batch;
use tridiag_core::Layout;

/// One zoo run: a kernel at one geometry, with its sanitizer findings,
/// lint report, measured counters, and the static-vs-dynamic mismatch
/// lines.
#[derive(Debug, Clone)]
pub struct ZooEntry {
    /// Kernel name (the launch config's name).
    pub kernel: &'static str,
    /// Human-readable geometry description.
    pub geometry: String,
    /// Sanitizer findings from the launch.
    pub violations: Vec<SanitizerViolation>,
    /// The lint's counter model over the recorded access plan.
    pub report: LintReport,
    /// Dynamically measured counters from the same launch.
    pub stats: KernelStats,
    /// Counters where the static prediction disagrees with the dynamic
    /// measurement (empty = exact agreement on all nine counters).
    pub mismatches: Vec<String>,
    /// Modeled timing for the launch, including per-phase attribution.
    pub timing: KernelTiming,
}

impl ZooEntry {
    /// `true` when the entry has no sanitizer violations, no lint
    /// diagnostics and no counter mismatches.
    pub fn is_clean(&self) -> bool {
        self.violations.is_empty() && self.report.is_clean() && self.mismatches.is_empty()
    }
}

fn run_entry<S: GpuScalar, K: BlockKernel<S>>(
    spec: &DeviceSpec,
    geometry: String,
    cfg: &LaunchConfig,
    kernel: &K,
    mem: &mut GpuMemory<S>,
) -> Result<ZooEntry> {
    // One launch through the shared plan executor: it owns the
    // sanitizer, lint, cross-check and timing bookkeeping the zoo used
    // to duplicate.
    let mut ex = PlanExecutor::new(spec.clone(), ExecConfig::checked());
    ex.launch(cfg, kernel, mem)?;
    let report = ex.take_last_lint()?;
    let (kernel_report, stats) = ex.take_last_launch()?;
    let mismatches = std::mem::take(&mut ex.lint_mismatches);
    Ok(ZooEntry {
        kernel: report.kernel,
        geometry,
        violations: std::mem::take(&mut ex.violations),
        report,
        stats,
        mismatches,
        timing: kernel_report.timing,
    })
}

fn pcr_shared_entries(spec: &DeviceSpec, out: &mut Vec<ZooEntry>) -> Result<()> {
    for (m, n, steps) in [(4usize, 128usize, None), (2, 64, None), (1, 256, Some(2u32))] {
        let host = random_batch::<f64>(m, n, 41);
        let mut mem = GpuMemory::new();
        let dev = upload(&mut mem, &host);
        let kernel = PcrSharedKernel {
            input: [dev.a, dev.b, dev.c, dev.d],
            x: dev.x,
            n,
            steps,
        };
        let threads = (n as u32).min(256);
        let cfg = LaunchConfig::new("pcr_shared", m, threads);
        let steps_txt = steps.map_or("full".into(), |s| s.to_string());
        out.push(run_entry(
            spec,
            format!("m={m} n={n} steps={steps_txt} t={threads} f64"),
            &cfg,
            &kernel,
            &mut mem,
        )?);
    }
    Ok(())
}

fn cr_shared_entries(spec: &DeviceSpec, out: &mut Vec<ZooEntry>) -> Result<()> {
    for (m, n) in [(2usize, 256usize), (1, 64), (4, 128)] {
        let host = random_batch::<f64>(m, n, 43);
        let mut mem = GpuMemory::new();
        let dev = upload(&mut mem, &host);
        let kernel = CrSharedKernel {
            input: [dev.a, dev.b, dev.c, dev.d],
            x: dev.x,
            n,
            padded: true,
        };
        let threads = (n as u32 / 2).clamp(32, 512);
        let cfg = LaunchConfig::new("cr_shared", m, threads);
        out.push(run_entry(
            spec,
            format!("m={m} n={n} t={threads} padded f64"),
            &cfg,
            &kernel,
            &mut mem,
        )?);
    }
    Ok(())
}

fn tiled_pcr_entries(spec: &DeviceSpec, out: &mut Vec<ZooEntry>) -> Result<()> {
    for (m, n, k, c) in [(3usize, 100usize, 3u32, 2usize), (1, 64, 2, 1), (2, 96, 4, 1)] {
        let host = random_batch::<f64>(m, n, 47);
        let mut mem = GpuMemory::new();
        let dev = upload(&mut mem, &host);
        let outb = [
            mem.alloc(m * n),
            mem.alloc(m * n),
            mem.alloc(m * n),
            mem.alloc(m * n),
        ];
        let assignments = TiledPcrKernel::assign_block_per_system(m, n);
        let blocks = assignments.len();
        let kernel = TiledPcrKernel {
            input: [dev.a, dev.b, dev.c, dev.d],
            output: outb,
            n,
            k,
            sub_tile: c << k,
            assignments,
        };
        let cfg = LaunchConfig::new("tiled_pcr", blocks, 1 << k);
        out.push(run_entry(
            spec,
            format!("m={m} n={n} k={k} c={c} (11a) f64"),
            &cfg,
            &kernel,
            &mut mem,
        )?);
    }
    Ok(())
}

fn window_multi_slot_entries(spec: &DeviceSpec, out: &mut Vec<ZooEntry>) -> Result<()> {
    for (m, n, k, q) in [(6usize, 96usize, 2u32, 3usize), (4, 64, 2, 2), (5, 80, 3, 2)] {
        let host = random_batch::<f32>(m, n, 61);
        let mut mem = GpuMemory::new();
        let dev = upload(&mut mem, &host);
        let outb = [
            mem.alloc(m * n),
            mem.alloc(m * n),
            mem.alloc(m * n),
            mem.alloc(m * n),
        ];
        let assignments = TiledPcrKernel::assign_multi_system_per_block(m, n, q);
        let blocks = assignments.len();
        let kernel = TiledPcrKernel {
            input: [dev.a, dev.b, dev.c, dev.d],
            output: outb,
            n,
            k,
            sub_tile: 2 << k,
            assignments,
        };
        let cfg = LaunchConfig::new("window_multi_slot", blocks, (q as u32) << k);
        out.push(run_entry(
            spec,
            format!("m={m} n={n} k={k} q={q} (11c) f32"),
            &cfg,
            &kernel,
            &mut mem,
        )?);
    }
    Ok(())
}

fn p_thomas_entries(spec: &DeviceSpec, out: &mut Vec<ZooEntry>) -> Result<()> {
    for (m, n) in [(64usize, 64usize), (37, 50), (128, 32)] {
        let host = random_batch::<f64>(m, n, 53).to_layout(Layout::Interleaved);
        let mut mem = GpuMemory::new();
        let dev = upload(&mut mem, &host);
        let cp = mem.alloc(dev.total());
        let dp = mem.alloc(dev.total());
        let kernel = PThomasKernel {
            a: dev.a,
            b: dev.b,
            c: dev.c,
            d: dev.d,
            c_prime: cp,
            d_prime: dp,
            x: dev.x,
            map: AddrMap::Interleaved { m, n },
        };
        let cfg = LaunchConfig::new("p_thomas", m.div_ceil(32), 32);
        out.push(run_entry(
            spec,
            format!("m={m} n={n} interleaved f64"),
            &cfg,
            &kernel,
            &mut mem,
        )?);
    }
    Ok(())
}

fn fused_entries(spec: &DeviceSpec, out: &mut Vec<ZooEntry>) -> Result<()> {
    for (m, n, k, c) in [(2usize, 200usize, 3u32, 2usize), (1, 64, 2, 1), (3, 128, 4, 1)] {
        let host = random_batch::<f64>(m, n, 59);
        let mut mem = GpuMemory::new();
        let dev = upload(&mut mem, &host);
        let cp = mem.alloc(m * n);
        let dp = mem.alloc(m * n);
        let kernel = FusedKernel {
            input: [dev.a, dev.b, dev.c, dev.d],
            c_prime: cp,
            d_prime: dp,
            x: dev.x,
            n,
            k,
            sub_tile: c << k,
            m,
        };
        let cfg = LaunchConfig::new("fused", m, 1 << k);
        out.push(run_entry(
            spec,
            format!("m={m} n={n} k={k} c={c} f64"),
            &cfg,
            &kernel,
            &mut mem,
        )?);
    }
    Ok(())
}

/// The six per-kernel entry builders, in canonical zoo order.
type EntryBuilder = fn(&DeviceSpec, &mut Vec<ZooEntry>) -> Result<()>;
const BUILDERS: [EntryBuilder; 6] = [
    pcr_shared_entries,
    cr_shared_entries,
    tiled_pcr_entries,
    window_multi_slot_entries,
    p_thomas_entries,
    fused_entries,
];

/// Run all six kernels at three geometries each (18 entries) on `spec`.
///
/// The zoo contract (zero violations, zero diagnostics, zero
/// mismatches) is asserted for the GTX480 the kernels are tuned for; on other
/// specs the entries still run and report, but coalescing/bank
/// predictions are calibrated per device and may legitimately differ.
pub fn run_zoo_on(spec: &DeviceSpec) -> Result<Vec<ZooEntry>> {
    let mut out = Vec::with_capacity(18);
    for builder in BUILDERS {
        builder(spec, &mut out)?;
    }
    Ok(out)
}

/// Run all six kernels at three geometries each (18 entries) on the
/// default GTX480.
pub fn run_zoo() -> Result<Vec<ZooEntry>> {
    run_zoo_on(&DeviceSpec::gtx480())
}

/// Run the zoo sharded across a [`DeviceGroup`]: the six kernel
/// builders are partitioned contiguously (balanced within 1) over the
/// group's devices — devices beyond the sixth idle — and run
/// concurrently on scoped threads, each builder against its device's
/// spec. Entries come back flattened in canonical zoo order, so on a
/// homogeneous group the result is identical to [`run_zoo_on`] with
/// that spec. A worker panic surfaces as
/// [`gpu_sim::SimError::KernelFault`]; the first failing device (by
/// index) wins.
pub fn run_zoo_group(group: &DeviceGroup) -> Result<Vec<ZooEntry>> {
    let workers = group.len().min(BUILDERS.len());
    let ranges = partition(BUILDERS.len(), workers, Partition::Systems)?;
    let per_device = fan_out("device", ranges.len(), |d| {
        let (start, count) = ranges[d];
        let mut out = Vec::new();
        for builder in &BUILDERS[start..start + count] {
            builder(&group.devices()[d], &mut out)?;
        }
        Ok(out)
    })?;
    Ok(per_device.into_iter().flatten().collect())
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn zoo_covers_six_kernels_at_three_geometries() {
        let entries = run_zoo().unwrap();
        assert_eq!(entries.len(), 18);
        for name in [
            "pcr_shared",
            "cr_shared",
            "tiled_pcr",
            "window_multi_slot",
            "p_thomas",
            "fused",
        ] {
            assert_eq!(
                entries.iter().filter(|e| e.kernel == name).count(),
                3,
                "{name} geometries"
            );
        }
    }

    #[test]
    fn every_entry_is_clean_and_a_sanitizer_violation_is_not() {
        let entries = run_zoo().unwrap();
        for e in &entries {
            assert!(e.violations.is_empty(), "{} {}: {:?}", e.kernel, e.geometry, e.violations);
            assert!(e.is_clean(), "{} {}", e.kernel, e.geometry);
        }
        // Lint-clean and prediction-exact, but divergent: not clean.
        let mut divergent = entries[0].clone();
        divergent.violations.push(SanitizerViolation::BarrierDivergence {
            kernel: divergent.kernel,
            block: 0,
            barrier_index: 0,
            missing_lane: 1,
            arrived: 1,
            expected: 2,
        });
        assert!(divergent.report.is_clean() && divergent.mismatches.is_empty());
        assert!(!divergent.is_clean());
    }

    #[test]
    fn sharded_zoo_matches_the_single_device_zoo() {
        let solo = run_zoo().unwrap();
        let group = DeviceGroup::homogeneous(DeviceSpec::gtx480(), 3).unwrap();
        let sharded = run_zoo_group(&group).unwrap();
        assert_eq!(sharded.len(), solo.len());
        for (a, b) in solo.iter().zip(&sharded) {
            assert_eq!(a.kernel, b.kernel);
            assert_eq!(a.geometry, b.geometry);
            assert_eq!(a.stats.total, b.stats.total, "{} {}", a.kernel, a.geometry);
            assert_eq!(a.timing.total_us, b.timing.total_us);
            assert_eq!(a.is_clean(), b.is_clean());
        }
        // More devices than builders: the extras idle, result unchanged.
        let wide = DeviceGroup::homogeneous(DeviceSpec::gtx480(), 8).unwrap();
        assert_eq!(run_zoo_group(&wide).unwrap().len(), solo.len());
    }
}
