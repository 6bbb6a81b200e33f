//! Negative counter-finding tests: real launches of deliberately bad
//! kernels, each violating exactly one memory-structure property,
//! asserting [`KernelStats::findings`] reports it — and only it — in
//! the right phase, through both the per-lane and the affine entry
//! points, with the sanitizer on and off. Races, bounds and barrier
//! divergence belong to the sanitizer (`sanitizer_negative`).

use gpu_sim::exec::launch_with;
use gpu_sim::{
    BlockCtx, BlockKernel, BufId, DeviceSpec, ExecConfig, Finding, GpuMemory, KernelStats, Lanes,
    LaunchConfig, Result,
};

/// One access of `lanes` element indices `stride · l`, through the
/// slice or the affine entry point.
#[derive(Clone, Copy)]
struct Access {
    stride: usize,
    lanes: usize,
    affine: bool,
}

impl Access {
    fn idx(&self) -> Vec<usize> {
        (0..self.lanes).map(|l| l * self.stride).collect()
    }

    fn pieces(&self) -> Lanes {
        let mut lanes = Lanes::new();
        lanes.push(0, self.stride as i64, self.lanes);
        lanes
    }

    fn sh_st(&self, ctx: &mut BlockCtx<'_, f64>, vals: &[f64]) -> Result<()> {
        if self.affine {
            ctx.sh_st_affine(self.pieces().pieces(), vals)
        } else {
            ctx.sh_st(&self.idx(), vals)
        }
    }

    fn sh_ld(&self, ctx: &mut BlockCtx<'_, f64>, out: &mut Vec<f64>) -> Result<()> {
        if self.affine {
            ctx.sh_ld_affine(self.pieces().pieces(), out)
        } else {
            ctx.sh_ld(&self.idx(), out)
        }
    }
}

/// Launch the kernel `make(buf, affine)` (one block of 32 threads,
/// `buf` a global buffer of `len` elements) through both entry points,
/// with the sanitizer on and off, and return its stats, which must
/// agree across all four runs.
fn stats_in_every_mode<K: BlockKernel<f64>>(
    name: &'static str,
    len: usize,
    make: impl Fn(BufId, bool) -> K,
) -> KernelStats {
    let mut seen: Option<KernelStats> = None;
    for affine in [false, true] {
        for exec in [ExecConfig::default(), ExecConfig::sanitized()] {
            let mut mem = GpuMemory::<f64>::new();
            let kernel = make(mem.alloc_from(vec![1.0; len]), affine);
            let cfg = LaunchConfig::new(name, 1, 32);
            let res = launch_with(&DeviceSpec::gtx480(), &cfg, &exec, &kernel, &mut mem).unwrap();
            assert!(res.violations.is_empty(), "{:?}", res.violations);
            match &seen {
                Some(s) => assert_eq!(&res.stats, s, "affine={affine} {exec:?}"),
                None => seen = Some(res.stats),
            }
        }
    }
    seen.unwrap()
}

/// Reads global memory at element stride 8 — the classic
/// array-of-structs mistake — three times, as a streaming loop would.
struct StridedLoadKernel {
    buf: BufId,
    access: Access,
}
impl BlockKernel<f64> for StridedLoadKernel {
    fn run_block(&self, ctx: &mut BlockCtx<'_, f64>) -> Result<()> {
        ctx.phase("gather");
        let mut out = Vec::new();
        for _ in 0..3 {
            if self.access.affine {
                ctx.ld_affine(self.buf, self.access.pieces().pieces(), &mut out)?;
            } else {
                ctx.ld(self.buf, &self.access.idx(), &mut out)?;
            }
        }
        Ok(())
    }
}

#[test]
fn strided_gather_kernel_fires_uncoalesced_global_in_its_phase() {
    let stats = stats_in_every_mode("aos_gather", 32 * 8, |buf, affine| {
        let access = Access {
            stride: 8,
            lanes: 32,
            affine,
        };
        StridedLoadKernel { buf, access }
    });
    // The repeated gather is one finding that counts its accesses.
    assert_eq!(
        stats.findings(),
        vec![Finding::UncoalescedGlobal {
            phase: "gather",
            accesses: 3
        }]
    );
    // Stride-8 f64 touches a new 128-byte segment every two lanes.
    assert_eq!(stats.total.global_load_transactions, 3 * 16);
    let text = stats.findings()[0].to_string();
    assert!(
        text.contains("uncoalesced-global in phase `gather`"),
        "{text}"
    );
}

/// Stores to shared memory at `access` in phase `phase`; with `load`,
/// stores in the prelude instead and loads the same lanes back in
/// `phase`.
struct SharedKernel {
    access: Access,
    phase: &'static str,
    load: bool,
}
impl BlockKernel<f64> for SharedKernel {
    fn run_block(&self, ctx: &mut BlockCtx<'_, f64>) -> Result<()> {
        ctx.shared_alloc(self.access.lanes * self.access.stride)?;
        let mut vals = vec![0.5; self.access.lanes];
        if self.load {
            self.access.sh_st(ctx, &vals)?;
            ctx.sync();
        }
        ctx.phase(self.phase);
        if self.load {
            self.access.sh_ld(ctx, &mut vals)
        } else {
            self.access.sh_st(ctx, &vals)
        }
    }
}

#[test]
fn f64_stride_16_shared_store_fires_a_32_way_bank_conflict() {
    // f64 stride 16: word stride 32 ≡ 0 (mod 32) — full serialization.
    let stats = stats_in_every_mode("transpose", 1, |_, affine| {
        let access = Access {
            stride: 16,
            lanes: 32,
            affine,
        };
        SharedKernel {
            access,
            phase: "scatter",
            load: false,
        }
    });
    assert_eq!(
        stats.findings(),
        vec![Finding::BankConflict {
            phase: "scatter",
            degree: 32
        }]
    );
    assert_eq!(stats.total.bank_conflict_replays, 31);
}

#[test]
fn f64_unit_stride_shared_load_is_two_way_and_no_finding() {
    // f64 at unit stride: element l starts at word 2l — a benign 2-way
    // conflict every f64 kernel carries. The degree and its replays are
    // counted; there is no finding.
    let stats = stats_in_every_mode("axpy", 1, |_, affine| {
        let access = Access {
            stride: 1,
            lanes: 32,
            affine,
        };
        SharedKernel {
            access,
            phase: "fold",
            load: true,
        }
    });
    assert_eq!(stats.findings(), Vec::new());
    let fold = stats.phases.iter().find(|p| p.label == "fold").unwrap();
    assert_eq!(fold.stats.shared_accesses, 1);
    assert_eq!(fold.stats.bank_conflict_degree_peak, 2);
    assert_eq!(fold.stats.bank_conflict_replays, 1);
}
