//! Multi-device execution: device groups, per-device streams, and the
//! completion timeline.
//!
//! A [`DeviceGroup`] is a registry of (possibly heterogeneous)
//! [`DeviceSpec`]s that a batch can be sharded across. Each device owns
//! one in-order [`DeviceStream`] of modeled async operations — host→
//! device copies, kernel launches, device→host copies — stamped with
//! start/duration on the modeled-time axis. The [`GroupTimeline`]
//! collects one stream per device; because devices run concurrently,
//! the modeled wall-clock of a sharded solve is the **max** of the
//! per-device completion times, never their sum.
//!
//! Copies are modeled as a fixed driver overhead plus bytes over a
//! host-interconnect bandwidth ([`PCIE_BANDWIDTH_GBPS`], PCIe 2.0 x16 —
//! the era-appropriate bus for the paper's GTX480). Kernel durations
//! come from [`crate::timing::time_kernel`] and are recorded by the
//! caller.

use crate::error::{Result, SimError};
use crate::spec::DeviceSpec;

/// Modeled host↔device interconnect bandwidth in GB/s (PCIe 2.0 x16).
pub const PCIE_BANDWIDTH_GBPS: f64 = 8.0;

/// Fixed driver/setup overhead per async copy, in microseconds.
pub const COPY_OVERHEAD_US: f64 = 1.5;

/// Modeled duration of one host↔device copy of `bytes` bytes, in
/// microseconds: fixed overhead plus bytes over the interconnect.
pub fn copy_us(bytes: usize) -> f64 {
    COPY_OVERHEAD_US + bytes as f64 / (PCIE_BANDWIDTH_GBPS * 1e3)
}

/// A registry of simulated devices a batch can be sharded across.
/// Heterogeneous groups (different specs per slot) are allowed; device
/// index is the identity used by shard plans and trace track ids.
#[derive(Debug, Clone, PartialEq)]
pub struct DeviceGroup {
    devices: Vec<DeviceSpec>,
}

impl DeviceGroup {
    /// A group from explicit specs. Fails with
    /// [`SimError::InvalidPlan`] when the list is empty or any spec is
    /// internally inconsistent.
    pub fn from_specs(devices: Vec<DeviceSpec>) -> Result<Self> {
        if devices.is_empty() {
            return Err(SimError::InvalidPlan("device group is empty".into()));
        }
        for d in &devices {
            d.validate()
                .map_err(|e| SimError::InvalidPlan(format!("device {}: {e}", d.name)))?;
        }
        Ok(Self { devices })
    }

    /// A single-device group (the degenerate case sharding treats as
    /// the identity).
    pub fn single(spec: DeviceSpec) -> Self {
        Self {
            devices: vec![spec],
        }
    }

    /// `count` identical copies of `spec`. Fails when `count == 0`.
    pub fn homogeneous(spec: DeviceSpec, count: usize) -> Result<Self> {
        Self::from_specs(vec![spec; count])
    }

    /// Number of devices in the group.
    pub fn len(&self) -> usize {
        self.devices.len()
    }

    /// Always `false` — construction rejects empty groups.
    pub fn is_empty(&self) -> bool {
        self.devices.is_empty()
    }

    /// The device specs, indexed by device id.
    pub fn devices(&self) -> &[DeviceSpec] {
        &self.devices
    }

    /// The first device — the one global plan decisions are derived on.
    pub fn primary(&self) -> &DeviceSpec {
        &self.devices[0]
    }

    /// Short human label: `"GTX480 x4"` or `"GTX480+GTX280"`.
    pub fn label(&self) -> String {
        let first = self.devices[0].name;
        if self.devices.iter().all(|d| d.name == first) {
            format!("{first} x{}", self.devices.len())
        } else {
            self.devices
                .iter()
                .map(|d| d.name)
                .collect::<Vec<_>>()
                .join("+")
        }
    }

    /// FNV-1a fingerprint of the group's composition: every device
    /// spec's full debug representation, in slot order. Two groups
    /// with the same ordered specs fingerprint identically, so plans
    /// keyed on this value are shareable across group instances; any
    /// spec difference (clock, SM count, shared-memory size, …) or a
    /// reordering changes the value.
    pub fn fingerprint(&self) -> u64 {
        let mut h = 0xcbf2_9ce4_8422_2325u64;
        for d in &self.devices {
            for b in format!("{d:?}").bytes() {
                h ^= b as u64;
                h = h.wrapping_mul(0x100_0000_01b3);
            }
            // Slot separator so concatenation ambiguity cannot alias
            // two different compositions.
            h ^= 0x1f;
            h = h.wrapping_mul(0x100_0000_01b3);
        }
        h
    }
}

/// Kind of one in-order stream operation.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum StreamOp {
    /// Host→device coefficient upload ("cudaMemcpyAsync H→D").
    CopyH2D,
    /// A kernel launch (duration from the timing model).
    Launch,
    /// Device→host solution download ("cudaMemcpyAsync D→H").
    CopyD2H,
}

/// One timestamped operation on a device stream.
#[derive(Debug, Clone, PartialEq)]
pub struct StreamEvent {
    /// Operation kind.
    pub op: StreamOp,
    /// Human label (kernel or buffer name).
    pub name: String,
    /// Start on the modeled-time axis, µs (end of the previous event —
    /// streams execute in order).
    pub start_us: f64,
    /// Duration in µs.
    pub dur_us: f64,
    /// Bytes moved (0 for launches).
    pub bytes: usize,
}

/// One device's in-order stream: every recorded event starts when the
/// previous one ends, exactly like operations queued on a CUDA stream.
#[derive(Debug, Clone, PartialEq, Default)]
pub struct DeviceStream {
    /// Recorded events, in issue order.
    pub events: Vec<StreamEvent>,
    cursor: f64,
}

impl DeviceStream {
    /// Append an operation; it starts at the stream's current
    /// completion time. Returns the recorded event.
    pub fn record(
        &mut self,
        op: StreamOp,
        name: impl Into<String>,
        dur_us: f64,
        bytes: usize,
    ) -> &StreamEvent {
        let dur_us = dur_us.max(0.0);
        let ev = StreamEvent {
            op,
            name: name.into(),
            start_us: self.cursor,
            dur_us,
            bytes,
        };
        self.cursor += dur_us;
        self.events.push(ev);
        self.events.last().expect("just pushed")
    }

    /// When the last queued operation finishes (µs).
    pub fn completion_us(&self) -> f64 {
        self.cursor
    }

    /// Block the stream until modeled time `us`: the next recorded
    /// event starts no earlier than `us`. Models a cross-stream
    /// dependency ("cudaStreamWaitEvent") — e.g. a device waiting for
    /// interface values computed on another device. No event is
    /// recorded; the wait shows up as a gap between events. A wait in
    /// the past is a no-op (streams never move backwards).
    pub fn wait_until(&mut self, us: f64) {
        self.cursor = self.cursor.max(us);
    }

    /// Total modeled kernel time on this stream (launch events only),
    /// excluding copies.
    pub fn launch_us(&self) -> f64 {
        self.events
            .iter()
            .filter(|e| e.op == StreamOp::Launch)
            .map(|e| e.dur_us)
            .sum()
    }

    /// Total bytes moved over the interconnect (copy events only).
    pub fn copy_bytes(&self) -> usize {
        self.events
            .iter()
            .filter(|e| e.op != StreamOp::Launch)
            .map(|e| e.bytes)
            .sum()
    }
}

/// One stream per device of a [`DeviceGroup`]: the completion timeline
/// of a sharded solve. Devices execute concurrently, so wall-clock is
/// the max over streams.
#[derive(Debug, Clone, PartialEq)]
pub struct GroupTimeline {
    streams: Vec<DeviceStream>,
}

impl GroupTimeline {
    /// An empty timeline with one stream per device in `group`.
    pub fn new(group: &DeviceGroup) -> Self {
        Self {
            streams: vec![DeviceStream::default(); group.len()],
        }
    }

    /// The stream of device `device` (panics on an out-of-range index —
    /// indices come from the same group the timeline was built for).
    pub fn stream_mut(&mut self, device: usize) -> &mut DeviceStream {
        &mut self.streams[device]
    }

    /// All streams, indexed by device.
    pub fn streams(&self) -> &[DeviceStream] {
        &self.streams
    }

    /// Modeled wall-clock of the whole group: **max** completion over
    /// devices (they run concurrently), including copy events.
    pub fn wall_clock_us(&self) -> f64 {
        self.streams
            .iter()
            .map(DeviceStream::completion_us)
            .fold(0.0, f64::max)
    }

    /// Modeled kernel wall-clock: max over devices of each device's
    /// total launch time. Comparable to a single-device solve's
    /// `total_us` (which also excludes copies).
    pub fn kernel_wall_clock_us(&self) -> f64 {
        self.streams
            .iter()
            .map(DeviceStream::launch_us)
            .fold(0.0, f64::max)
    }

    /// Sum of all per-device completion times — the serialized cost the
    /// max-over-devices model is *not* (useful as a contrast in tests
    /// and reports).
    pub fn serialized_us(&self) -> f64 {
        self.streams.iter().map(DeviceStream::completion_us).sum()
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn group_construction_and_labels() {
        let g = DeviceGroup::homogeneous(DeviceSpec::gtx480(), 4).unwrap();
        assert_eq!(g.len(), 4);
        assert!(!g.is_empty());
        assert_eq!(g.label(), "GTX480 x4");
        assert_eq!(g.primary().name, "GTX480");

        let h = DeviceGroup::from_specs(vec![DeviceSpec::gtx480(), DeviceSpec::gtx280()]).unwrap();
        assert_eq!(h.label(), "GTX480+GTX280");
        assert_eq!(DeviceGroup::single(DeviceSpec::c2050()).len(), 1);
    }

    #[test]
    fn empty_or_invalid_group_is_a_typed_error() {
        assert!(matches!(
            DeviceGroup::from_specs(vec![]).unwrap_err(),
            SimError::InvalidPlan(_)
        ));
        assert!(matches!(
            DeviceGroup::homogeneous(DeviceSpec::gtx480(), 0).unwrap_err(),
            SimError::InvalidPlan(_)
        ));
        let mut bad = DeviceSpec::gtx480();
        bad.fp64_ratio = 0.0;
        assert!(matches!(
            DeviceGroup::from_specs(vec![bad]).unwrap_err(),
            SimError::InvalidPlan(_)
        ));
    }

    #[test]
    fn stream_events_are_ordered_back_to_back() {
        let mut s = DeviceStream::default();
        s.record(StreamOp::CopyH2D, "h2d:a", 10.0, 1024);
        s.record(StreamOp::Launch, "tiled_pcr", 25.0, 0);
        s.record(StreamOp::CopyD2H, "d2h:x", 5.0, 256);
        assert_eq!(s.events[0].start_us, 0.0);
        assert_eq!(s.events[1].start_us, 10.0);
        assert_eq!(s.events[2].start_us, 35.0);
        assert_eq!(s.completion_us(), 40.0);
        assert_eq!(s.launch_us(), 25.0);
        assert_eq!(s.copy_bytes(), 1280);
    }

    #[test]
    fn wall_clock_is_max_over_devices_not_sum() {
        let group = DeviceGroup::homogeneous(DeviceSpec::gtx480(), 3).unwrap();
        let mut tl = GroupTimeline::new(&group);
        tl.stream_mut(0).record(StreamOp::Launch, "k", 100.0, 0);
        tl.stream_mut(1).record(StreamOp::Launch, "k", 70.0, 0);
        tl.stream_mut(2).record(StreamOp::Launch, "k", 40.0, 0);
        tl.stream_mut(2).record(StreamOp::CopyD2H, "d2h", 10.0, 64);
        assert_eq!(tl.wall_clock_us(), 100.0);
        assert_eq!(tl.kernel_wall_clock_us(), 100.0);
        assert_eq!(tl.serialized_us(), 220.0);
        assert!(tl.wall_clock_us() < tl.serialized_us());
    }

    #[test]
    fn copy_model_is_monotone_in_bytes() {
        assert!(copy_us(0) > 0.0, "fixed overhead");
        assert!(copy_us(1 << 20) < copy_us(1 << 22));
        // 8 MB at 8 GB/s = 1 ms.
        let us = copy_us(8_000_000);
        assert!((us - (1000.0 + COPY_OVERHEAD_US)).abs() < 1e-9, "{us}");
    }

    #[test]
    fn wait_until_delays_the_next_event_but_never_rewinds() {
        let mut s = DeviceStream::default();
        s.record(StreamOp::Launch, "k", 10.0, 0);
        s.wait_until(25.0);
        assert_eq!(s.completion_us(), 25.0);
        let ev = s.record(StreamOp::CopyD2H, "d2h", 5.0, 64).clone();
        assert_eq!(ev.start_us, 25.0);
        // Waits in the past are no-ops.
        s.wait_until(3.0);
        assert_eq!(s.completion_us(), 30.0);
        // No event is recorded for the wait itself.
        assert_eq!(s.events.len(), 2);
    }

    #[test]
    fn negative_durations_are_clamped() {
        let mut s = DeviceStream::default();
        s.record(StreamOp::Launch, "k", -3.0, 0);
        assert_eq!(s.completion_us(), 0.0);
    }
}
