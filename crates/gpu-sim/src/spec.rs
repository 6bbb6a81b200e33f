//! Device specifications.
//!
//! A [`DeviceSpec`] carries the architectural parameters the timing
//! model and occupancy calculator need. The primary preset is the
//! NVIDIA GTX480 the paper benchmarks on; GTX280 and Tesla C2050
//! presets exercise the "portable to virtually all GPUs" claim of
//! Section III-A.

/// Floating-point width of a kernel's data, used for throughput and
/// traffic accounting.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash)]
pub enum Precision {
    /// 4-byte IEEE single.
    F32,
    /// 8-byte IEEE double.
    F64,
}

impl Precision {
    /// Bytes per element.
    pub fn bytes(self) -> usize {
        match self {
            Precision::F32 => 4,
            Precision::F64 => 8,
        }
    }
}

/// Architectural parameters of a simulated GPU.
#[derive(Debug, Clone, PartialEq)]
pub struct DeviceSpec {
    /// Marketing name, e.g. `"GTX480"`.
    pub name: &'static str,
    /// Streaming multiprocessors.
    pub num_sms: u32,
    /// Scalar cores (FP32 lanes) per SM.
    pub cores_per_sm: u32,
    /// Threads per warp.
    pub warp_size: u32,
    /// Core clock in GHz.
    pub clock_ghz: f64,
    /// Shared memory per SM in bytes.
    pub shared_mem_per_sm: usize,
    /// Maximum shared memory a single block may allocate.
    pub max_shared_per_block: usize,
    /// Maximum resident threads per SM.
    pub max_threads_per_sm: u32,
    /// Maximum resident blocks per SM.
    pub max_blocks_per_sm: u32,
    /// Maximum threads per block.
    pub max_threads_per_block: u32,
    /// 32-bit registers per SM.
    pub registers_per_sm: u32,
    /// DRAM bandwidth in GB/s.
    pub dram_bandwidth_gbps: f64,
    /// DRAM round-trip latency in core cycles.
    pub dram_latency_cycles: u32,
    /// Global-memory transaction size in bytes (L1 line).
    pub transaction_bytes: usize,
    /// Shared-memory banks.
    pub shared_banks: u32,
    /// FP32 fused-multiply-add throughput per SM per cycle.
    pub fp32_ops_per_cycle_sm: f64,
    /// FP64 throughput as a fraction of FP32 (GeForce Fermi: 1/8).
    pub fp64_ratio: f64,
    /// Fixed kernel-launch overhead in microseconds (driver + setup).
    pub launch_overhead_us: f64,
    /// Outstanding global loads a warp can keep in flight (MLP).
    pub loads_in_flight_per_warp: u32,
    /// Global (DRAM) memory capacity in bytes — the budget a solve
    /// plan's device buffer footprint is validated against.
    pub global_mem_bytes: usize,
}

impl DeviceSpec {
    /// The NVIDIA GTX480 (GF100, Fermi) used in the paper's evaluation.
    pub const fn gtx480() -> Self {
        DeviceSpec {
            name: "GTX480",
            num_sms: 15,
            cores_per_sm: 32,
            warp_size: 32,
            clock_ghz: 1.401,
            shared_mem_per_sm: 48 * 1024,
            max_shared_per_block: 48 * 1024,
            max_threads_per_sm: 1536,
            max_blocks_per_sm: 8,
            max_threads_per_block: 1024,
            registers_per_sm: 32768,
            dram_bandwidth_gbps: 177.4,
            dram_latency_cycles: 400,
            transaction_bytes: 128,
            shared_banks: 32,
            fp32_ops_per_cycle_sm: 32.0,
            fp64_ratio: 1.0 / 8.0,
            launch_overhead_us: 5.0,
            loads_in_flight_per_warp: 4,
            global_mem_bytes: 1536 * 1024 * 1024,
        }
    }

    /// The GT200-class GTX280 (pre-Fermi: 16 KiB shared memory, no L1).
    pub fn gtx280() -> Self {
        DeviceSpec {
            name: "GTX280",
            num_sms: 30,
            cores_per_sm: 8,
            warp_size: 32,
            clock_ghz: 1.296,
            shared_mem_per_sm: 16 * 1024,
            max_shared_per_block: 16 * 1024,
            max_threads_per_sm: 1024,
            max_blocks_per_sm: 8,
            max_threads_per_block: 512,
            registers_per_sm: 16384,
            dram_bandwidth_gbps: 141.7,
            dram_latency_cycles: 550,
            transaction_bytes: 64,
            shared_banks: 16,
            fp32_ops_per_cycle_sm: 8.0,
            fp64_ratio: 1.0 / 12.0,
            launch_overhead_us: 7.0,
            loads_in_flight_per_warp: 3,
            global_mem_bytes: 1024 * 1024 * 1024,
        }
    }

    /// The Tesla C2050 (Fermi compute part: full-rate FP64 ÷ 2).
    pub fn c2050() -> Self {
        DeviceSpec {
            name: "C2050",
            num_sms: 14,
            cores_per_sm: 32,
            warp_size: 32,
            clock_ghz: 1.15,
            shared_mem_per_sm: 48 * 1024,
            max_shared_per_block: 48 * 1024,
            max_threads_per_sm: 1536,
            max_blocks_per_sm: 8,
            max_threads_per_block: 1024,
            registers_per_sm: 32768,
            dram_bandwidth_gbps: 144.0,
            dram_latency_cycles: 400,
            transaction_bytes: 128,
            shared_banks: 32,
            fp32_ops_per_cycle_sm: 32.0,
            fp64_ratio: 0.5,
            launch_overhead_us: 5.0,
            loads_in_flight_per_warp: 4,
            global_mem_bytes: 3 * 1024 * 1024 * 1024,
        }
    }

    /// Peak FLOP/s for a precision.
    pub fn peak_flops(&self, precision: Precision) -> f64 {
        let ratio = match precision {
            Precision::F32 => 1.0,
            Precision::F64 => self.fp64_ratio,
        };
        self.num_sms as f64 * self.fp32_ops_per_cycle_sm * ratio * self.clock_ghz * 1e9
    }

    /// Arithmetic throughput per SM per cycle for a precision.
    pub fn ops_per_cycle_sm(&self, precision: Precision) -> f64 {
        match precision {
            Precision::F32 => self.fp32_ops_per_cycle_sm,
            Precision::F64 => self.fp32_ops_per_cycle_sm * self.fp64_ratio,
        }
    }

    /// DRAM bytes per core cycle, whole device.
    pub fn bytes_per_cycle(&self) -> f64 {
        self.dram_bandwidth_gbps * 1e9 / (self.clock_ghz * 1e9)
    }

    /// Maximum resident threads across the device — the "parallelism P"
    /// of the paper's Table II cost model.
    pub fn parallelism(&self) -> u64 {
        self.num_sms as u64 * self.max_threads_per_sm as u64
    }

    /// Convert core cycles to microseconds.
    pub fn cycles_to_us(&self, cycles: f64) -> f64 {
        cycles / (self.clock_ghz * 1e3)
    }

    /// Basic internal consistency (used by constructors in tests).
    pub fn validate(&self) -> Result<(), String> {
        if self.num_sms == 0 || self.warp_size == 0 || self.max_threads_per_block == 0 {
            return Err("zero-sized device dimension".into());
        }
        if self.max_shared_per_block > self.shared_mem_per_sm {
            return Err("per-block shared memory exceeds per-SM capacity".into());
        }
        if !(self.fp64_ratio > 0.0 && self.fp64_ratio <= 1.0) {
            return Err("fp64 ratio must be in (0, 1]".into());
        }
        if self.global_mem_bytes == 0 {
            return Err("zero global memory capacity".into());
        }
        // The coalescing and bank-conflict counters divide by these
        // with shifts and masks.
        if !self.shared_banks.is_power_of_two() || !self.transaction_bytes.is_power_of_two() {
            return Err("shared banks and transaction bytes must be powers of two".into());
        }
        Ok(())
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn presets_are_valid() {
        for spec in [
            DeviceSpec::gtx480(),
            DeviceSpec::gtx280(),
            DeviceSpec::c2050(),
        ] {
            spec.validate()
                .unwrap_or_else(|e| panic!("{}: {e}", spec.name));
        }
    }

    #[test]
    fn gtx480_headline_numbers() {
        let d = DeviceSpec::gtx480();
        // 15 SMs × 32 cores × 2 × 1.401 GHz ≈ 1.345 TFLOP/s FP32 (FMA counted
        // as one op here, so half that).
        let peak32 = d.peak_flops(Precision::F32);
        assert!((peak32 - 672.5e9).abs() / peak32 < 0.01);
        // GeForce Fermi FP64 is 1/8 FP32.
        assert!((d.peak_flops(Precision::F64) / peak32 - 0.125).abs() < 1e-12);
        assert_eq!(d.parallelism(), 15 * 1536);
    }

    #[test]
    fn bytes_per_cycle_sane() {
        let d = DeviceSpec::gtx480();
        // 177.4 GB/s at 1.401 GHz ≈ 126.6 B/cycle.
        assert!((d.bytes_per_cycle() - 126.6).abs() < 1.0);
    }

    #[test]
    fn cycles_to_us_round_trip() {
        let d = DeviceSpec::gtx480();
        let us = d.cycles_to_us(1_401_000.0);
        assert!((us - 1000.0).abs() < 1e-6);
    }

    #[test]
    fn precision_bytes() {
        assert_eq!(Precision::F32.bytes(), 4);
        assert_eq!(Precision::F64.bytes(), 8);
    }

    #[test]
    fn validate_rejects_nonsense() {
        let mut d = DeviceSpec::gtx480();
        d.fp64_ratio = 0.0;
        assert!(d.validate().is_err());
        let mut d = DeviceSpec::gtx480();
        d.max_shared_per_block = d.shared_mem_per_sm + 1;
        assert!(d.validate().is_err());
        let mut d = DeviceSpec::gtx480();
        d.shared_banks = 24;
        assert!(d.validate().is_err());
        let mut d = DeviceSpec::gtx480();
        d.transaction_bytes = 96;
        assert!(d.validate().is_err());
    }
}
