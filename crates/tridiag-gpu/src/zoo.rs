//! The kernel zoo: every shipped kernel at several launch geometries,
//! run under the sanitizer.
//!
//! This is the harness behind `tridiag lint`: each entry launches one
//! kernel configuration with [`ExecConfig::sanitized`], so the
//! sanitizer checks races, bounds, uninitialized reads and barriers on
//! the executed accesses, and the launch's measured [`KernelStats`]
//! yield its performance findings ([`KernelStats::findings`]:
//! uncoalesced global accesses, 32-way bank conflicts). A shipped
//! kernel must produce **zero sanitizer violations** and **zero counter
//! findings** at every geometry here — the zoo is the executable
//! statement of that contract.

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
    LaunchConfig, Result, SanitizerViolation,
};
use tridiag_core::generators::random_batch;
use tridiag_core::Layout;

/// One zoo run: a kernel at one geometry, with its sanitizer findings
/// and measured counters.
#[derive(Debug, Clone)]
pub struct ZooEntry {
    /// Kernel name (the launch config's name).
    pub kernel: &'static str,
    /// Human-readable geometry description.
    pub geometry: String,
    /// Sanitizer findings from the launch.
    pub violations: Vec<SanitizerViolation>,
    /// Measured counters from the same launch.
    pub stats: KernelStats,
    /// Modeled timing for the launch, including per-phase attribution.
    pub timing: KernelTiming,
}

impl ZooEntry {
    /// `true` when the entry has no sanitizer violations and no counter
    /// findings.
    pub fn is_clean(&self) -> bool {
        self.violations.is_empty() && self.stats.findings().is_empty()
    }
}

/// What a zoo builder does with each kernel configuration it sets up.
trait ZooRun {
    fn run<S: GpuScalar, K: BlockKernel<S>>(
        &mut self,
        geometry: String,
        cfg: &LaunchConfig,
        kernel: &K,
        mem: &mut GpuMemory<S>,
    ) -> Result<()>;
}

/// The zoo proper: one checked launch per configuration, collected as
/// [`ZooEntry`]s.
struct Checked<'a> {
    spec: &'a DeviceSpec,
    out: Vec<ZooEntry>,
}

impl ZooRun for Checked<'_> {
    fn run<S: GpuScalar, K: BlockKernel<S>>(
        &mut self,
        geometry: String,
        cfg: &LaunchConfig,
        kernel: &K,
        mem: &mut GpuMemory<S>,
    ) -> Result<()> {
        // One launch through the shared plan executor: it owns the
        // sanitizer and timing bookkeeping the zoo used to duplicate.
        let mut ex = PlanExecutor::new(self.spec.clone(), ExecConfig::sanitized());
        ex.launch(cfg, kernel, mem)?;
        let (kernel_report, stats) = ex.take_last_launch()?;
        self.out.push(ZooEntry {
            kernel: cfg.name,
            geometry,
            violations: std::mem::take(&mut ex.violations),
            stats,
            timing: kernel_report.timing,
        });
        Ok(())
    }
}

fn pcr_shared_entries(r: &mut impl ZooRun) -> Result<()> {
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
        r.run(
            format!("m={m} n={n} steps={steps_txt} t={threads} f64"),
            &cfg,
            &kernel,
            &mut mem,
        )?;
    }
    Ok(())
}

fn cr_shared_entries(r: &mut impl ZooRun) -> Result<()> {
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
        r.run(
            format!("m={m} n={n} t={threads} padded f64"),
            &cfg,
            &kernel,
            &mut mem,
        )?;
    }
    Ok(())
}

fn tiled_pcr_entries(r: &mut impl ZooRun) -> Result<()> {
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
        r.run(
            format!("m={m} n={n} k={k} c={c} (11a) f64"),
            &cfg,
            &kernel,
            &mut mem,
        )?;
    }
    Ok(())
}

fn window_multi_slot_entries(r: &mut impl ZooRun) -> Result<()> {
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
        r.run(
            format!("m={m} n={n} k={k} q={q} (11c) f32"),
            &cfg,
            &kernel,
            &mut mem,
        )?;
    }
    Ok(())
}

fn p_thomas_entries(r: &mut impl ZooRun) -> Result<()> {
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
        r.run(
            format!("m={m} n={n} interleaved f64"),
            &cfg,
            &kernel,
            &mut mem,
        )?;
    }
    Ok(())
}

fn fused_entries(r: &mut impl ZooRun) -> Result<()> {
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
        r.run(
            format!("m={m} n={n} k={k} c={c} f64"),
            &cfg,
            &kernel,
            &mut mem,
        )?;
    }
    Ok(())
}

/// Number of per-kernel entry builders.
const BUILDERS: usize = 6;

/// Run builders `range` (of the six, in canonical zoo order).
fn run_builders(r: &mut impl ZooRun, range: std::ops::Range<usize>) -> Result<()> {
    for i in range {
        match i {
            0 => pcr_shared_entries(r)?,
            1 => cr_shared_entries(r)?,
            2 => tiled_pcr_entries(r)?,
            3 => window_multi_slot_entries(r)?,
            4 => p_thomas_entries(r)?,
            _ => fused_entries(r)?,
        }
    }
    Ok(())
}

/// Run all six kernels at three geometries each (18 entries) on `spec`.
///
/// The zoo contract (zero violations, zero counter findings) is
/// asserted for the GTX480 the kernels are tuned for; on other specs the
/// entries still run and report, but coalescing and bank counts depend
/// on the device and may legitimately differ.
pub fn run_zoo_on(spec: &DeviceSpec) -> Result<Vec<ZooEntry>> {
    let mut r = Checked {
        spec,
        out: Vec::with_capacity(18),
    };
    run_builders(&mut r, 0..BUILDERS)?;
    Ok(r.out)
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
    let workers = group.len().min(BUILDERS);
    let ranges = partition(BUILDERS, workers, Partition::Systems)?;
    let per_device = fan_out("device", ranges.len(), |d| {
        let (start, count) = ranges[d];
        let mut r = Checked {
            spec: &group.devices()[d],
            out: Vec::new(),
        };
        run_builders(&mut r, start..start + count)?;
        Ok(r.out)
    })?;
    Ok(per_device.into_iter().flatten().collect())
}

#[cfg(test)]
mod tests {
    use super::*;

    /// Launches each zoo configuration unchecked and under
    /// [`ExecConfig::sanitized`] on copies of the same memory.
    struct ModesAgree {
        spec: DeviceSpec,
        configs: usize,
    }

    impl ZooRun for ModesAgree {
        fn run<S: GpuScalar, K: BlockKernel<S>>(
            &mut self,
            geometry: String,
            cfg: &LaunchConfig,
            kernel: &K,
            mem: &mut GpuMemory<S>,
        ) -> Result<()> {
            let mut plain_mem = mem.clone();
            let plain = gpu_sim::launch(&self.spec, cfg, kernel, &mut plain_mem)?;
            let checked =
                gpu_sim::launch_with(&self.spec, cfg, &ExecConfig::sanitized(), kernel, mem)?;
            let at = format!("{} {geometry}", cfg.name);
            assert_eq!(plain.stats.total, checked.stats.total, "{at}: totals");
            assert_eq!(plain.stats.phases, checked.stats.phases, "{at}: phases");
            assert_eq!(plain.stats, checked.stats, "{at}: per-block counters");
            // `{:?}` prints every element's bits (global memory holds
            // atomic cells), so equal text is bit-identical memory (and
            // init shadow).
            assert!(
                format!("{plain_mem:?}") == format!("{mem:?}"),
                "{at}: memory differs"
            );
            self.configs += 1;
            Ok(())
        }
    }

    /// The unchecked executor (closed-form counts over affine pieces)
    /// and the checked one (per-lane counts under the sanitizer) agree
    /// on every counter and every output bit of every zoo entry.
    #[test]
    fn every_entry_runs_identically_unchecked_and_checked() {
        let mut r = ModesAgree {
            spec: DeviceSpec::gtx480(),
            configs: 0,
        };
        run_builders(&mut r, 0..BUILDERS).unwrap();
        assert_eq!(r.configs, 18);
    }

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
        // Free of counter findings, but divergent: not clean.
        let mut divergent = entries[0].clone();
        divergent.violations.push(SanitizerViolation::BarrierDivergence {
            kernel: divergent.kernel,
            block: 0,
            barrier_index: 0,
            missing_lane: 1,
            arrived: 1,
            expected: 2,
        });
        assert!(divergent.stats.findings().is_empty());
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
