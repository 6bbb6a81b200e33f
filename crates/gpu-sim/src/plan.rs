//! The affine access-plan IR: a symbolic record of *how* a kernel
//! touches memory, independent of the data it moves.
//!
//! Every block-wide memory operation in this workspace indexes memory
//! with expressions that are affine in the lane id — `base + stride·l`
//! over a contiguous lane range — or a short concatenation of such
//! runs (a ragged tail, a clamp lane, a carry splice). The IR captures
//! each operation as a list of [`AffinePiece`]s plus its barrier and
//! allocation structure, which is exactly enough for the lint's
//! counter model in [`crate::lint`](mod@crate::lint) to compute
//! transaction, bank-conflict, barrier and shared-footprint counts as
//! closed forms — no execution, no data.
//!
//! Plans come from two sources:
//!
//! 1. **Recording.** [`crate::exec::ExecConfig::record_plan`] makes the
//!    executor compress every `ld`/`st`/`sh_ld`/`sh_st` index slice
//!    into affine pieces (losslessly — [`compress`] is exact, not a
//!    fit) and attach the result to
//!    [`crate::exec::LaunchResult::plan`]. Since kernels compute their
//!    index vectors from `(block_id, threads, n, k, …)` and never from
//!    loaded data, the recorded plan at a geometry *is* the kernel's
//!    access plan at that geometry.
//! 2. **Hand-building.** Tests and negative suites construct plans
//!    directly via [`AccessPlan::synthetic`] and the `push_*` methods
//!    on [`BlockPlan`].
//!
//! The pieces are also how kernels describe their lanes to the
//! executor: they build them with [`Lanes`] and pass them to
//! `BlockCtx::ld_affine` and friends, which count them in closed form
//! (and, when recording, [`expand`] them into the index slice the
//! recorder compresses, so the recorded plan is the same either way).
//!
//! The same-trip [`crate::lint`](mod@crate::lint) passes recompute transaction and
//! replay counts from the pieces alone; the golden-counter suite then
//! asserts those static predictions equal the dynamically measured
//! [`crate::counters::KernelStats`] — a mismatch means one of the two
//! models is wrong, which keeps both honest.

use std::fmt;

/// One maximal affine run of lanes within a block-wide access:
/// lane `lane0 + x` touches element `base + stride·x` for
/// `x ∈ [0, lanes)`.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct AffinePiece {
    /// First lane (position in the block-wide op) this piece covers.
    pub lane0: usize,
    /// Number of consecutive lanes covered (≥ 1).
    pub lanes: usize,
    /// Element index accessed by lane `lane0`.
    pub base: i64,
    /// Element-index step per lane (0 = broadcast).
    pub stride: i64,
}

impl AffinePiece {
    /// Element index accessed by relative lane `x` (`x < self.lanes`).
    #[inline]
    pub fn elem(&self, x: usize) -> i64 {
        self.base + self.stride * x as i64
    }
}

impl fmt::Display for AffinePiece {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        if self.lanes == 1 {
            write!(f, "l={}: {}", self.lane0, self.base)
        } else if self.stride == 0 {
            write!(
                f,
                "l in [{},{}): {}",
                self.lane0,
                self.lane0 + self.lanes,
                self.base
            )
        } else {
            write!(
                f,
                "l in [{},{}): {} {} {}*(l-{})",
                self.lane0,
                self.lane0 + self.lanes,
                self.base,
                if self.stride < 0 { "-" } else { "+" },
                self.stride.abs(),
                self.lane0
            )
        }
    }
}

/// Losslessly compress an index slice (position = lane) into maximal
/// affine runs. Exact: expanding the pieces reproduces `idx` verbatim.
pub fn compress(idx: &[usize]) -> Vec<AffinePiece> {
    let mut pieces = Vec::new();
    let mut i = 0usize;
    while i < idx.len() {
        if i + 1 == idx.len() {
            pieces.push(AffinePiece {
                lane0: i,
                lanes: 1,
                base: idx[i] as i64,
                stride: 0,
            });
            break;
        }
        let stride = idx[i + 1] as i64 - idx[i] as i64;
        let mut j = i + 1;
        while j + 1 < idx.len() && idx[j + 1] as i64 - idx[j] as i64 == stride {
            j += 1;
        }
        pieces.push(AffinePiece {
            lane0: i,
            lanes: j - i + 1,
            base: idx[i] as i64,
            stride,
        });
        i = j + 1;
    }
    pieces
}

/// Expand pieces (in lane order) into their index slice, the inverse
/// of [`compress`]. Element indices must be non-negative.
pub fn expand(pieces: &[AffinePiece], out: &mut Vec<usize>) {
    out.clear();
    for p in pieces {
        out.extend((0..p.lanes).map(|x| p.elem(x) as usize));
    }
}

/// A block-wide lane list built run by run as [`AffinePiece`]s — the
/// form the affine entry points of [`crate::exec::BlockCtx`] take
/// (`ld_affine` and friends). A run that continues the previous piece
/// extends it.
#[derive(Debug, Clone, Default, PartialEq, Eq)]
pub struct Lanes {
    pieces: Vec<AffinePiece>,
    len: usize,
}

impl Lanes {
    /// Empty lane list.
    pub fn new() -> Self {
        Self::default()
    }

    /// Remove every lane.
    pub fn clear(&mut self) {
        self.pieces.clear();
        self.len = 0;
    }

    /// Lane count.
    pub fn len(&self) -> usize {
        self.len
    }

    /// `true` when the list has no lanes.
    pub fn is_empty(&self) -> bool {
        self.len == 0
    }

    /// The pieces, in lane order.
    pub fn pieces(&self) -> &[AffinePiece] {
        &self.pieces
    }

    /// Append `count` lanes touching `base + stride·x` for
    /// `x ∈ [0, count)`.
    pub fn push(&mut self, base: usize, stride: i64, count: usize) {
        if count == 0 {
            return;
        }
        match self.pieces.last_mut() {
            Some(last) if last.stride == stride && last.elem(last.lanes) == base as i64 => {
                last.lanes += count;
            }
            _ => self.pieces.push(AffinePiece {
                lane0: self.len,
                lanes: count,
                base: base as i64,
                stride,
            }),
        }
        self.len += count;
    }

    /// Replace `out` with lanes `lo..hi` of this list (renumbered from
    /// lane 0).
    pub fn slice_into(&self, lo: usize, hi: usize, out: &mut Lanes) {
        out.clear();
        for p in &self.pieces {
            let x0 = lo.max(p.lane0) - p.lane0;
            let x1 = hi.min(p.lane0 + p.lanes).saturating_sub(p.lane0);
            if x0 < x1 {
                out.push(p.elem(x0) as usize, p.stride, x1 - x0);
            }
        }
    }
}

/// The kind of memory operation a [`PlannedAccess`] describes.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum AccessKind {
    /// Global load (`ctx.ld`).
    GlobalLoad,
    /// Global store (`ctx.st`).
    GlobalStore,
    /// Shared load (`ctx.sh_ld`).
    SharedLoad,
    /// Shared store (`ctx.sh_st`).
    SharedStore,
}

impl AccessKind {
    /// Does this access touch global memory (vs shared)?
    pub fn is_global(self) -> bool {
        matches!(self, AccessKind::GlobalLoad | AccessKind::GlobalStore)
    }

    /// Does this access write (vs read)?
    pub fn is_store(self) -> bool {
        matches!(self, AccessKind::GlobalStore | AccessKind::SharedStore)
    }
}

impl fmt::Display for AccessKind {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        match self {
            AccessKind::GlobalLoad => write!(f, "ld"),
            AccessKind::GlobalStore => write!(f, "st"),
            AccessKind::SharedLoad => write!(f, "sh_ld"),
            AccessKind::SharedStore => write!(f, "sh_st"),
        }
    }
}

/// One block-wide memory operation in a plan.
#[derive(Debug, Clone, PartialEq)]
pub struct PlannedAccess {
    /// Operation kind.
    pub kind: AccessKind,
    /// Phase label active when the access was issued (see
    /// [`crate::exec::BlockCtx::phase`]).
    pub phase: &'static str,
    /// Global buffer handle index (`None` for shared memory).
    pub buffer: Option<usize>,
    /// Active lanes in the op (`idx.len()` at record time).
    pub lanes: usize,
    /// The affine index expression, as maximal lane runs.
    pub pieces: Vec<AffinePiece>,
}

impl PlannedAccess {
    /// Render the index expression for diagnostics.
    pub fn expr(&self) -> String {
        let target = match self.buffer {
            Some(b) => format!("{}[buf {}]", self.kind, b),
            None => format!("{}[shared]", self.kind),
        };
        let pieces: Vec<String> = self.pieces.iter().map(|p| p.to_string()).collect();
        format!("{} {{ {} }}", target, pieces.join("; "))
    }
}

/// One event in a block's plan, in program order.
#[derive(Debug, Clone, PartialEq)]
pub enum PlanEvent {
    /// A block-wide memory operation.
    Access(PlannedAccess),
    /// A barrier (`sync`, or `sync_arrive` with any lane set).
    Barrier {
        /// Phase label active at the barrier.
        phase: &'static str,
    },
    /// A `shared_alloc` carving `len` elements at offset `base`.
    SharedAlloc {
        /// Phase label active at the allocation.
        phase: &'static str,
        /// Offset of the carved region (elements).
        base: usize,
        /// Length of the carved region (elements).
        len: usize,
    },
}

/// The recorded/declared plan of a single thread block.
#[derive(Debug, Clone, PartialEq)]
pub struct BlockPlan {
    /// Block index in the grid.
    pub block_id: usize,
    /// Events in program order.
    pub events: Vec<PlanEvent>,
}

impl BlockPlan {
    /// Append an access, compressing `idx` into affine pieces.
    pub fn push_access(
        &mut self,
        kind: AccessKind,
        phase: &'static str,
        buffer: Option<usize>,
        idx: &[usize],
    ) {
        self.events.push(PlanEvent::Access(PlannedAccess {
            kind,
            phase,
            buffer,
            lanes: idx.len(),
            pieces: compress(idx),
        }));
    }

    /// Append a barrier.
    pub fn push_barrier(&mut self, phase: &'static str) {
        self.events.push(PlanEvent::Barrier { phase });
    }

    /// Append a shared allocation.
    pub fn push_alloc(&mut self, phase: &'static str, base: usize, len: usize) {
        self.events.push(PlanEvent::SharedAlloc { phase, base, len });
    }
}

/// A whole launch's access plan: one [`BlockPlan`] per block plus the
/// device parameters the lint math needs.
#[derive(Debug, Clone, PartialEq)]
pub struct AccessPlan {
    /// Kernel name (from the launch config).
    pub kernel: &'static str,
    /// Blocks in the grid.
    pub grid_blocks: usize,
    /// Threads per block.
    pub threads_per_block: usize,
    /// Element size in bytes (4 = f32, 8 = f64).
    pub elem_bytes: usize,
    /// Warp size (lanes per memory instruction).
    pub warp_size: usize,
    /// Global transaction segment size in bytes.
    pub segment_bytes: usize,
    /// Shared-memory banks.
    pub banks: u32,
    /// Per-block plans, index = block id.
    pub blocks: Vec<BlockPlan>,
}

impl AccessPlan {
    /// A one-block plan skeleton with GTX480-class memory parameters
    /// (warp 32, 128-byte segments, 32 banks) for hand-built tests.
    pub fn synthetic(kernel: &'static str, threads: usize, elem_bytes: usize) -> Self {
        Self {
            kernel,
            grid_blocks: 1,
            threads_per_block: threads,
            elem_bytes,
            warp_size: 32,
            segment_bytes: 128,
            banks: 32,
            blocks: vec![BlockPlan {
                block_id: 0,
                events: Vec::new(),
            }],
        }
    }

    /// Mutable access to block `i`'s plan.
    pub fn block_mut(&mut self, i: usize) -> &mut BlockPlan {
        &mut self.blocks[i]
    }

    /// Total events across all blocks (plan size, for reports).
    pub fn num_events(&self) -> usize {
        self.blocks.iter().map(|b| b.events.len()).sum()
    }
}

/// Phase label in force before any [`crate::exec::BlockCtx::phase`]
/// call — the same reserved label the dynamic counters use
/// ([`crate::counters::PRELUDE_PHASE`]), so static lint attribution
/// and the per-phase counter breakdown agree on naming.
pub const DEFAULT_PHASE: &str = crate::counters::PRELUDE_PHASE;

/// Per-block plan recorder owned by [`crate::exec::BlockCtx`] when
/// [`crate::exec::ExecConfig::record_plan`] is set.
#[derive(Debug)]
pub struct PlanRecorder {
    plan: BlockPlan,
    phase: &'static str,
}

impl PlanRecorder {
    /// Fresh recorder for one block.
    pub fn new(block_id: usize) -> Self {
        Self {
            plan: BlockPlan {
                block_id,
                events: Vec::new(),
            },
            phase: DEFAULT_PHASE,
        }
    }

    /// Switch the active phase label.
    pub fn set_phase(&mut self, phase: &'static str) {
        self.phase = phase;
    }

    /// Record a memory operation.
    pub fn access(&mut self, kind: AccessKind, buffer: Option<usize>, idx: &[usize]) {
        let phase = self.phase;
        self.plan.push_access(kind, phase, buffer, idx);
    }

    /// Record a barrier.
    pub fn barrier(&mut self) {
        let phase = self.phase;
        self.plan.push_barrier(phase);
    }

    /// Record a shared allocation.
    pub fn alloc(&mut self, base: usize, len: usize) {
        let phase = self.phase;
        self.plan.push_alloc(phase, base, len);
    }

    /// Finish recording and yield the block's plan.
    pub fn finish(self) -> BlockPlan {
        self.plan
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn expand(pieces: &[AffinePiece]) -> Vec<(usize, i64)> {
        let mut out = Vec::new();
        for p in pieces {
            for x in 0..p.lanes {
                out.push((p.lane0 + x, p.elem(x)));
            }
        }
        out
    }

    #[test]
    fn compress_is_lossless() {
        let cases: Vec<Vec<usize>> = vec![
            vec![],
            vec![7],
            (0..32).collect(),
            (0..32).map(|l| l * 2 + 5).collect(),
            (0..32).rev().collect(),
            vec![3, 3, 3, 3],
            vec![0, 1, 2, 10, 12, 14, 7],
            vec![5, 5, 6, 7, 8, 0],
        ];
        for idx in cases {
            let pieces = compress(&idx);
            let flat = expand(&pieces);
            assert_eq!(flat.len(), idx.len());
            for (lane, (l, e)) in flat.iter().enumerate() {
                assert_eq!(*l, lane);
                assert_eq!(*e, idx[lane] as i64, "lane {lane} of {idx:?}");
            }
        }
    }

    #[test]
    fn lanes_merge_runs_and_slice_into_chunks() {
        let mut l = Lanes::new();
        l.push(10, 1, 4);
        l.push(14, 1, 4); // continues the run
        l.push(100, 3, 3);
        l.push(0, 1, 0); // no lanes
        assert_eq!(l.len(), 11);
        assert_eq!(l.pieces().len(), 2);
        let mut flat = Vec::new();
        super::expand(l.pieces(), &mut flat);
        assert_eq!(flat, vec![10, 11, 12, 13, 14, 15, 16, 17, 100, 103, 106]);
        assert_eq!(compress(&flat), l.pieces());
        let mut part = Lanes::new();
        l.slice_into(6, 10, &mut part);
        super::expand(part.pieces(), &mut flat);
        assert_eq!(flat, vec![16, 17, 100, 103]);
        assert_eq!(part.pieces()[1].lane0, 2);
    }

    #[test]
    fn compress_finds_maximal_runs() {
        let idx: Vec<usize> = (0..32).collect();
        assert_eq!(
            compress(&idx),
            vec![AffinePiece {
                lane0: 0,
                lanes: 32,
                base: 0,
                stride: 1
            }]
        );
        // A strided run, then a clamped tail of repeats.
        let idx = vec![0, 4, 8, 12, 99, 99, 99];
        let pieces = compress(&idx);
        assert_eq!(pieces.len(), 2);
        assert_eq!(pieces[0].stride, 4);
        assert_eq!(pieces[0].lanes, 4);
        assert_eq!(pieces[1].stride, 0);
        assert_eq!(pieces[1].lanes, 3);
        assert_eq!(pieces[1].lane0, 4);
    }

    #[test]
    fn expressions_render_for_diagnostics() {
        let p = AffinePiece {
            lane0: 4,
            lanes: 28,
            base: 128,
            stride: 2,
        };
        assert_eq!(p.to_string(), "l in [4,32): 128 + 2*(l-4)");
        let a = PlannedAccess {
            kind: AccessKind::GlobalLoad,
            phase: "load",
            buffer: Some(3),
            lanes: 28,
            pieces: vec![p],
        };
        assert_eq!(a.expr(), "ld[buf 3] { l in [4,32): 128 + 2*(l-4) }");
    }

    #[test]
    fn recorder_builds_a_block_plan() {
        let mut r = PlanRecorder::new(2);
        r.access(AccessKind::GlobalLoad, Some(0), &[0, 1, 2, 3]);
        r.set_phase("store");
        r.barrier();
        r.access(AccessKind::SharedStore, None, &[0, 2, 4]);
        r.alloc(0, 64);
        let b = r.finish();
        assert_eq!(b.block_id, 2);
        assert_eq!(b.events.len(), 4);
        match &b.events[0] {
            PlanEvent::Access(a) => {
                assert_eq!(a.phase, DEFAULT_PHASE);
                assert!(a.kind.is_global());
                assert!(!a.kind.is_store());
            }
            e => panic!("wrong event {e:?}"),
        }
        match &b.events[2] {
            PlanEvent::Access(a) => {
                assert_eq!(a.phase, "store");
                assert_eq!(a.pieces[0].stride, 2);
            }
            e => panic!("wrong event {e:?}"),
        }
    }
}
