//! The multi-device core: the machinery every run over a
//! [`DeviceGroup`] shares.
//!
//! Batch sharding ([`crate::sharded::ShardedExecutor`]), the row-split
//! single-system solve ([`crate::distributed::DistributedExecutor`]) and
//! the zoo's group run ([`crate::zoo::run_zoo_group`]) differ only in
//! what each device computes and how the results combine. The rest is
//! defined here, once:
//!
//! - [`fan_out`]: one scoped worker thread per device. A worker panic
//!   becomes a typed [`SimError::KernelFault`], and the first fault by
//!   device index is the one reported, so errors are deterministic.
//! - [`replay_plan`]: a [`SolvePlan`]'s Upload/Launch/Download steps
//!   recorded onto a device's in-order [`DeviceStream`] — modeled PCIe
//!   copies, and each launch at its kernel report's modeled time.
//! - [`group_trace`], [`device_track`] and [`kernel_spans`]: the merged
//!   Chrome trace, one track per device, with copy, kernel,
//!   `launch_overhead` and phase spans. The single-device trace emits
//!   its kernels through the same [`kernel_spans`].
//! - [`Merged`]: the per-run reports folded into one [`GpuSolveReport`],
//!   each mismatch line prefixed by its source (`dev{d}:`, `reduced:`).

use crate::executor::PlanExecutor;
use crate::plan::{Partition, SolvePlan, Step};
use crate::solver::{DistributedSummary, GpuSolveReport, KernelReport, ShardSummary};
use gpu_sim::group::copy_us;
use gpu_sim::par::Permits;
use gpu_sim::trace::Trace;
use gpu_sim::{
    DeviceGroup, DeviceSpec, DeviceStream, GroupTimeline, Json, Result, SanitizerViolation,
    SimError, StreamOp,
};

/// Run `work(d)` for every device `d in 0..workers`, each on its own
/// scoped thread, and return the results in device order. A worker
/// that panics yields [`SimError::KernelFault`] instead of unwinding
/// into the caller. When several workers fail, the lowest device index
/// wins; a kernel fault is prefixed `"{unit} {d}: "` so the message
/// names the part that failed.
///
/// While the device threads run, `workers − 1` helper permits (as many
/// as are free) are held from the process-wide budget of
/// [`gpu_sim::par`], so the launches inside fan their blocks out only
/// to cores the device threads leave idle.
pub(crate) fn fan_out<T, F>(unit: &str, workers: usize, work: F) -> Result<Vec<T>>
where
    T: Send,
    F: Fn(usize) -> Result<T> + Sync,
{
    let panicked = || SimError::KernelFault(format!("{unit} worker thread panicked"));
    let work = &work;
    let _device_threads = Permits::take(workers.saturating_sub(1));
    let joined: Vec<Result<T>> = crossbeam::thread::scope(|scope| {
        let handles: Vec<_> = (0..workers)
            .map(|d| scope.spawn(move |_| work(d)))
            .collect();
        handles
            .into_iter()
            .map(|h| h.join().unwrap_or_else(|_| Err(panicked())))
            .collect()
    })
    .unwrap_or_else(|_| vec![Err(panicked())]);
    joined
        .into_iter()
        .enumerate()
        .map(|(d, r)| {
            r.map_err(|e| match e {
                SimError::KernelFault(msg) => SimError::KernelFault(format!("{unit} {d}: {msg}")),
                other => other,
            })
        })
        .collect()
}

/// Exact dynamic counters summed over every launch `ex` ran:
/// `(flops, global transactions, global bytes)`.
pub(crate) fn counter_totals(ex: &PlanExecutor) -> (u64, u64, u64) {
    ex.stats.iter().fold((0, 0, 0), |(f, t, b), s| {
        (
            f + s.total.flops,
            t + s.total.global_transactions(),
            b + s.total.global_bytes(),
        )
    })
}

/// Record one run of `plan` onto `stream`: every upload and download as
/// a modeled PCIe copy (names suffixed with `tag`: `#yuw` for a chunk's
/// batched interior run, `#y`/`#u`/`#w` for its `m = 1` runs,
/// `#reduced` for the interface solve), every
/// launch at the modeled time of the matching entry of `kernels`.
/// `owner` names the run when a kernel report is missing.
pub(crate) fn replay_plan(
    stream: &mut DeviceStream,
    plan: &SolvePlan,
    kernels: &[KernelReport],
    tag: &str,
    owner: &str,
) -> Result<()> {
    let bytes = |slot: usize| plan.buffers[slot].elems * plan.elem_bytes;
    let mut kernels = kernels.iter();
    for step in &plan.steps {
        match step {
            Step::Upload { slot, source } => {
                let b = bytes(*slot);
                stream.record(
                    StreamOp::CopyH2D,
                    format!("h2d:{}{tag}", source.label()),
                    copy_us(b),
                    b,
                );
            }
            Step::Launch(ls) => {
                let kr = kernels.next().ok_or_else(|| {
                    SimError::InvalidPlan(format!("{owner} report is missing a kernel launch"))
                })?;
                stream.record(StreamOp::Launch, ls.name, kr.timing.total_us, 0);
            }
            Step::Download { slot } => {
                let b = bytes(*slot);
                stream.record(
                    StreamOp::CopyD2H,
                    format!("d2h:{}{tag}", plan.buffers[*slot].name),
                    copy_us(b),
                    b,
                );
            }
            _ => {}
        }
    }
    Ok(())
}

/// Emit one kernel on track `tid` starting at `start_us`: its span, the
/// `launch_overhead` child, and one child per phase laid end to end
/// after the overhead. Durations are copied verbatim from the timing
/// model, so the phases sum to the kernel minus its overhead exactly.
pub(crate) fn kernel_spans(trace: &mut Trace, tid: u32, start_us: f64, kr: &KernelReport) {
    let t = &kr.timing;
    trace.span(
        format!("kernel:{}", t.name),
        "kernel",
        tid,
        start_us,
        t.total_us,
        vec![
            ("blocks".into(), Json::num(kr.blocks as f64)),
            ("bound".into(), Json::str(format!("{:?}", t.bound))),
            ("occupancy".into(), Json::num(t.occupancy_fraction)),
            ("waves".into(), Json::num(t.waves)),
        ],
    );
    trace.span(
        "launch_overhead",
        "kernel",
        tid,
        start_us,
        t.launch_us,
        Vec::new(),
    );
    let mut at = start_us + t.launch_us;
    for ph in &t.phases {
        trace.span(
            format!("phase:{}", ph.label),
            "phase",
            tid,
            at,
            ph.us,
            vec![
                ("bound".into(), Json::str(format!("{:?}", ph.bound))),
                ("flops".into(), Json::num(ph.stats.flops as f64)),
                (
                    "global_bytes".into(),
                    Json::num(ph.stats.global_bytes() as f64),
                ),
                (
                    "transactions".into(),
                    Json::num(ph.stats.global_transactions() as f64),
                ),
            ],
        );
        at += ph.us;
    }
}

/// What ran at one launch event of a device stream.
pub(crate) enum Launch<'a> {
    /// A simulated kernel, traced with [`kernel_spans`].
    Kernel(&'a KernelReport),
    /// A launch priced by the timeline alone, with no kernel report:
    /// one kernel span with this name and these args.
    Modeled(&'static str, Vec<(String, Json)>),
}

/// The merged trace's header for a `kind` solve (`"sharded"`,
/// `"distributed"`): the `{kind}_solve` root span over the group's
/// wall-clock, carrying `args` plus the device count, kernel
/// wall-clock and serialized sum, and a `partition` instant listing
/// `device:count` per part.
pub(crate) fn group_trace(
    kind: &str,
    group: &DeviceGroup,
    timeline: &GroupTimeline,
    mut args: Vec<(String, Json)>,
    of: Partition,
    parts: impl Iterator<Item = (usize, usize)>,
) -> Trace {
    let parts: Vec<String> = parts.map(|(d, count)| format!("{d}:{count}")).collect();
    let devices = Json::num(parts.len() as f64);
    let mut trace = Trace::new(format!("tridiag {kind} solve on {}", group.label()));
    args.extend([
        ("devices".into(), devices.clone()),
        (
            "kernel_wall_us".into(),
            Json::num(timeline.kernel_wall_clock_us()),
        ),
        ("serialized_us".into(), Json::num(timeline.serialized_us())),
    ]);
    trace.span(
        format!("{kind}_solve"),
        "solver",
        0,
        0.0,
        timeline.wall_clock_us(),
        args,
    );
    trace.instant(
        "partition",
        "solver",
        0,
        0.0,
        vec![
            ("devices".into(), devices),
            (format!("{}s", of.part()), Json::str(parts.join("+"))),
        ],
    );
    trace
}

/// Emit device `tid`'s track from its stream: a copy span per copy
/// event and, for each launch event in order, the next of `launches`.
/// Fails when the stream holds more launches than `launches` lists.
pub(crate) fn device_track(
    trace: &mut Trace,
    tid: u32,
    stream: &DeviceStream,
    launches: Vec<Launch<'_>>,
) -> Result<()> {
    let mut launches = launches.into_iter();
    for ev in &stream.events {
        match ev.op {
            StreamOp::CopyH2D | StreamOp::CopyD2H => trace.span(
                ev.name.clone(),
                "copy",
                tid,
                ev.start_us,
                ev.dur_us,
                vec![("bytes".into(), Json::num(ev.bytes as f64))],
            ),
            StreamOp::Launch => match launches.next() {
                Some(Launch::Kernel(kr)) => kernel_spans(trace, tid, ev.start_us, kr),
                Some(Launch::Modeled(name, args)) => {
                    trace.span(name, "kernel", tid, ev.start_us, ev.dur_us, args)
                }
                None => {
                    return Err(SimError::InvalidPlan(format!(
                        "device {tid} launches {} with no kernel report to trace",
                        ev.name
                    )))
                }
            },
        }
    }
    Ok(())
}

/// The artifacts of several per-device runs, merged in the order they
/// were absorbed.
#[derive(Debug, Default)]
pub(crate) struct Merged {
    kernels: Vec<KernelReport>,
    violations: Vec<SanitizerViolation>,
    phase_sum_mismatches: Vec<String>,
    verify_mismatches: Vec<String>,
}

impl Merged {
    /// Append one run's artifacts; its mismatch lines get the prefix
    /// `"{source}: "`.
    pub(crate) fn absorb(&mut self, source: &str, r: &GpuSolveReport) {
        let tagged = |lines: &[String]| -> Vec<String> {
            lines.iter().map(|s| format!("{source}: {s}")).collect()
        };
        self.kernels.extend(r.kernels.iter().cloned());
        self.violations.extend(r.violations.iter().cloned());
        self.phase_sum_mismatches
            .extend(tagged(&r.phase_sum_mismatches));
        self.verify_mismatches.extend(tagged(&r.verify_mismatches));
    }

    /// The merged report. It carries `lead` — the plan whose decisions
    /// describe the solve — with `lead`'s certificate on `spec`; the
    /// per-device certificates were checked before anything ran, and
    /// their prediction mismatches arrive prefixed through
    /// [`Merged::absorb`].
    pub(crate) fn into_report(
        self,
        spec: &DeviceSpec,
        lead: &SolvePlan,
        total_us: f64,
        trace: Trace,
        shards: Vec<ShardSummary>,
        distributed: Option<DistributedSummary>,
    ) -> GpuSolveReport {
        GpuSolveReport {
            k: lead.k,
            mapping: lead.mapping,
            fused: lead.fused,
            kernels: self.kernels,
            total_us,
            precision: lead.precision,
            violations: self.violations,
            phase_sum_mismatches: self.phase_sum_mismatches,
            verify: crate::verify::verify_plan(spec, lead),
            verify_mismatches: self.verify_mismatches,
            trace,
            plan: lead.clone(),
            shards,
            distributed,
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn fan_out_returns_results_in_device_order() {
        let got = fan_out("device", 4, |d| Ok(d * 10)).unwrap();
        assert_eq!(got, vec![0, 10, 20, 30]);
    }

    #[test]
    fn device_threads_and_block_helpers_share_one_thread_budget() {
        use gpu_sim::{launch, BlockCtx, BlockKernel, GpuMemory, LaunchConfig};
        use std::sync::atomic::{AtomicUsize, Ordering::SeqCst};
        use std::time::{Duration, Instant};
        /// Blocks that each work for 200 µs, long enough for a launch
        /// to fan out, recording how many run at once.
        struct Busy {
            running: AtomicUsize,
            peak: AtomicUsize,
        }
        impl BlockKernel<f64> for Busy {
            fn run_block(&self, ctx: &mut BlockCtx<'_, f64>) -> Result<()> {
                let now = self.running.fetch_add(1, SeqCst) + 1;
                self.peak.fetch_max(now, SeqCst);
                let t = Instant::now();
                while t.elapsed() < Duration::from_micros(200) {
                    std::hint::spin_loop();
                }
                ctx.flops(1);
                self.running.fetch_sub(1, SeqCst);
                Ok(())
            }
        }
        let busy = Busy {
            running: AtomicUsize::new(0),
            peak: AtomicUsize::new(0),
        };
        let spec = DeviceSpec::gtx480();
        let cfg = LaunchConfig::new("busy", 128, 32);
        // Both devices enter their launches together, so the launches
        // overlap.
        let both = std::sync::Barrier::new(2);
        let flops = fan_out("device", 2, |_| {
            let mut mem = GpuMemory::<f64>::new();
            both.wait();
            Ok(launch(&spec, &cfg, &busy, &mut mem)?.stats.total.flops)
        })
        .unwrap();
        assert_eq!(flops, vec![128, 128]);
        let cores = std::thread::available_parallelism().map_or(1, |c| c.get());
        let peak = busy.peak.load(SeqCst);
        assert!(
            peak <= cores.max(2),
            "{peak} threads ran blocks at once on {cores} cores"
        );
    }

    #[test]
    fn first_fault_by_device_index_wins_and_panics_are_typed() {
        let err = fan_out("shard", 3, |d| -> Result<()> {
            match d {
                0 => Ok(()),
                1 => Err(SimError::KernelFault("boom".into())),
                _ => panic!("worker 2 panics"),
            }
        })
        .unwrap_err();
        assert_eq!(err, SimError::KernelFault("shard 1: boom".into()));
        let err = fan_out("chunk", 2, |d| -> Result<()> {
            if d == 1 {
                panic!("worker 1 panics");
            }
            Ok(())
        })
        .unwrap_err();
        assert_eq!(
            err,
            SimError::KernelFault("chunk 1: chunk worker thread panicked".into())
        );
    }
}
