//! Analytic cost model of the paper's CPU baseline: Intel MKL `gtsv` on
//! a 3.33 GHz Core i7 975 (4 cores, 8 hyper-threads, ~25.6 GB/s DDR3).
//!
//! The figure harness compares *modeled GPU time* (from `gpu-sim`)
//! against *modeled CPU time* from this module, so both sides of every
//! figure come from the same kind of first-order model — matching the
//! task's goal of reproducing the paper's shapes, not its absolute
//! microseconds. (The real, runnable CPU implementations in
//! [`crate::batched`] are timed separately on the host clock by the
//! repository benchmark, `benchmark/`.)
//!
//! The model: Thomas' forward sweep is a serial division-latency chain,
//! so a core retires one row per ~`cycles_per_row` cycles; batching over
//! cores/hyper-threads divides that until DRAM bandwidth binds.
//! This reproduces the perfectly linear-in-`M·N` CPU curves of Fig. 12
//! ("an obvious relation … which is perfectly linear") and the ~6×
//! multi-threaded ceiling implied by the paper's 49×/8.3× speedup pair.

/// Analytic CPU cost model.
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct CpuModel {
    /// Core clock (GHz).
    pub clock_ghz: f64,
    /// Cycles to retire one Thomas row (f64): division latency chain.
    pub cycles_per_row_f64: f64,
    /// Cycles per row in f32 (shorter divider pipeline).
    pub cycles_per_row_f32: f64,
    /// Effective parallel speedup with all threads (cores + SMT yield).
    pub effective_threads: f64,
    /// Sustained DRAM bandwidth, all cores (GB/s).
    pub bandwidth_gbps: f64,
    /// Sustained DRAM bandwidth, single core (GB/s).
    pub single_core_bandwidth_gbps: f64,
    /// Fixed overhead per batch call (µs).
    pub call_overhead_us: f64,
    /// Overhead per system (loop + MKL dispatch, µs).
    pub per_system_overhead_us: f64,
    /// Thread-pool fork/join overhead for the threaded path (µs).
    pub fork_join_us: f64,
}

impl CpuModel {
    /// The paper's Core i7 975 testbed.
    pub fn i7_975() -> Self {
        CpuModel {
            // MKL's ?gtsv is LAPACK Gaussian elimination *with partial
            // pivoting* — noticeably costlier per row than a textbook
            // pivot-free Thomas sweep (branches + row swaps on top of
            // the division chain). ~66 cycles/row reproduces the
            // paper's sequential baseline level; the f32 divider is
            // only slightly faster, matching the modest f32 gain the
            // paper's CPU numbers imply.
            clock_ghz: 3.33,
            cycles_per_row_f64: 66.0,
            cycles_per_row_f32: 60.0,
            effective_threads: 6.0,
            // Sustained (STREAM-like) bandwidth, not the DDR3 peak.
            bandwidth_gbps: 16.0,
            single_core_bandwidth_gbps: 9.0,
            call_overhead_us: 1.0,
            per_system_overhead_us: 0.15,
            fork_join_us: 4.0,
        }
    }

    /// Bytes a Thomas solve moves per row: read `a, b, c, d`, write
    /// `c', d'` (forward), read them back and write `x` (backward) —
    /// with the forward intermediates usually still cached, an effective
    /// ~6 element-moves per row.
    fn bytes_per_row(elem_bytes: usize) -> f64 {
        6.0 * elem_bytes as f64
    }

    fn cycles_per_row(&self, elem_bytes: usize) -> f64 {
        if elem_bytes == 4 {
            self.cycles_per_row_f32
        } else {
            self.cycles_per_row_f64
        }
    }

    /// Modeled time of the sequential baseline, µs ("MKL (sequential)").
    pub fn sequential_us(&self, m: usize, n: usize, elem_bytes: usize) -> f64 {
        let rows = (m * n) as f64;
        let compute = rows * self.cycles_per_row(elem_bytes) / (self.clock_ghz * 1e3);
        let bandwidth =
            rows * Self::bytes_per_row(elem_bytes) / (self.single_core_bandwidth_gbps * 1e3);
        self.call_overhead_us + m as f64 * self.per_system_overhead_us + compute.max(bandwidth)
    }

    /// Modeled time of the multi-threaded baseline, µs
    /// ("MKL (multithreaded)" / "MKL (8 threads)"). Only parallel for
    /// `M ≥ 2` — the paper's footnoted MKL behaviour.
    pub fn threaded_us(&self, m: usize, n: usize, elem_bytes: usize) -> f64 {
        if m < 2 {
            return self.sequential_us(m, n, elem_bytes);
        }
        let rows = (m * n) as f64;
        let par = self.effective_threads.min(m as f64);
        let compute = rows * self.cycles_per_row(elem_bytes) / (self.clock_ghz * 1e3) / par;
        let bandwidth = rows * Self::bytes_per_row(elem_bytes) / (self.bandwidth_gbps * 1e3);
        self.call_overhead_us
            + self.fork_join_us
            + m as f64 * self.per_system_overhead_us / par
            + compute.max(bandwidth)
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn sequential_is_linear_in_workload() {
        let m = CpuModel::i7_975();
        let t1 = m.sequential_us(64, 512, 8);
        let t2 = m.sequential_us(128, 512, 8);
        let t4 = m.sequential_us(256, 512, 8);
        // Slopes, net of fixed overhead.
        let d1 = t2 - t1;
        let d2 = t4 - t2;
        assert!((d2 / d1 - 2.0).abs() < 0.05, "linear growth");
        // Same total workload, same time.
        let a = m.sequential_us(64, 1024, 8);
        let b = m.sequential_us(128, 512, 8);
        assert!((a - b).abs() / a < 0.05);
    }

    #[test]
    fn threaded_speedup_saturates_near_effective_threads() {
        let m = CpuModel::i7_975();
        let seq = m.sequential_us(4096, 512, 8);
        let thr = m.threaded_us(4096, 512, 8);
        let speedup = seq / thr;
        assert!(
            speedup > 3.0 && speedup < 7.0,
            "MT speedup {speedup} should sit in the paper's ~4-6x window"
        );
    }

    #[test]
    fn single_system_gets_no_threading() {
        let m = CpuModel::i7_975();
        assert_eq!(m.threaded_us(1, 1 << 20, 8), m.sequential_us(1, 1 << 20, 8));
        assert!(m.threaded_us(2, 1 << 20, 8) < m.sequential_us(2, 1 << 20, 8));
    }

    #[test]
    fn f32_is_faster_but_not_2x_on_compute() {
        let m = CpuModel::i7_975();
        let f64t = m.sequential_us(256, 4096, 8);
        let f32t = m.sequential_us(256, 4096, 4);
        let ratio = f64t / f32t;
        assert!(ratio > 1.05 && ratio < 2.0, "ratio {ratio}");
    }

    #[test]
    fn ballpark_matches_paper_fig12a() {
        // Fig. 12(a): N=512 — the sequential curve passes through
        // roughly 300 µs around M = 64 (log-scale reading).
        let m = CpuModel::i7_975();
        let t = m.sequential_us(64, 512, 8);
        assert!(t > 100.0 && t < 1000.0, "t = {t}");
    }
}
