//! The tiled PCR kernel with the buffered sliding window
//! (Section III-A, Figs. 8–10).
//!
//! Each *stream slot* (one per thread group of `2^k` threads) performs
//! k-step PCR over (a range of) one system, streaming it through shared
//! memory `sub_tile = c·2^k` rows at a time. Per coefficient array the
//! block holds:
//!
//! - a **window buffer** of `2·f(k) + sub_tile` elements. Level-`j`
//!   fresh values live at offset `OFF_j = 2·f(k) − 2·(2^j − 1)`; each
//!   level writes in place two half-strides below its source (the
//!   buffer "shifting" of Fig. 10(c)), so level `k` lands at offset 0.
//! - a **dependency cache** of `2·f(k)` elements holding, per level
//!   `j < k`, the `2^{j+1}` trailing values the next sub-tile needs —
//!   the paper's top-buffer contents, sized exactly at the minimum
//!   `2·f(k)` derived in Section III-A.
//! - an **output carry** of `sub_tile − f(k)` elements that delays
//!   emission so every global store is sub-tile aligned — the paper's
//!   "shifting the computation boundary" optimisation enabled by the
//!   window margin (without it, every store warp pays one extra 128-B
//!   segment).
//!
//! The streaming core lives in `super::window::WindowEngine` and is
//! shared with the fused kernel; it counts each PCR level's shared
//! accesses in groups and moves the window in place. Per step (checked
//! launches), the emit and the flush count their shared loads the same
//! way ([`gpu_sim::BlockCtx::sh_account`]) and their global stores with
//! [`gpu_sim::BlockCtx::global_account`], then copy the values straight
//! from the window and the carry through a
//! [`gpu_sim::BlockCtx::global_write`] view; the carry roll is one
//! `copy_within` per array. In bulk (unchecked launches), each slot's
//! emit range is reduced by `super::window::stream_bulk` and stored to
//! the outputs chunk by chunk, and the steps — emit, carry read and
//! roll included — are counted once per distinct shape (the window
//! module docs); the flush is counted as it is per step. That whole
//! count, set-up included, is one [`gpu_sim::BlockCtx::count_once`]
//! keyed on each slot's base alignment class and emit range, so a
//! launch counts each distinct block once: the blocks of a
//! block-group launch repeat from system to system, and those of a
//! block-per-system launch whenever their bases share a class.
//!
//! Because out-of-range neighbours
//! are identity rows at every level (`reduce_row(·, identity, ·) =
//! identity`), the kernel's output equals the monolithic host reduction
//! [`tridiag_core::pcr::reduce`] exactly — bit for bit except the sign
//! of an exact zero next to a stream's head, where the window reduces
//! identity rows that the host takes fresh at every level. The tests
//! assert exact equality.
//!
//! The `assignments` table expresses all three Fig. 11 mappings:
//! - (a) one system per block: one slot per block, full emit range;
//! - (b) one system across a block group: several blocks carry slots of
//!   the same system with disjoint emit ranges (each pays `f(k)` halo
//!   loads per side);
//! - (c) several systems per block: several slots per block, advanced in
//!   lockstep phase by phase (independent loads in flight — the latency
//!   hiding the paper credits this variant with).

pub use super::window::StreamSlot;
use super::window::{read_views, slot_runs, stream_bulk, valid, write_views, WindowEngine};
use crate::buffers::GpuScalar;
use gpu_sim::{BlockCtx, BlockKernel, BufId, Lanes, Result};

/// The tiled PCR kernel (see module docs).
#[derive(Debug, Clone)]
pub struct TiledPcrKernel {
    /// Input coefficient buffers `[a, b, c, d]`, contiguous layout
    /// (`sys·n + row`).
    pub input: [BufId; 4],
    /// Output buffers `[a, b, c, d]` for the reduced rows, same layout.
    pub output: [BufId; 4],
    /// Rows per system.
    pub n: usize,
    /// PCR steps (`k ≥ 1`; `k = 0` batches skip this kernel entirely).
    pub k: u32,
    /// Sub-tile rows (`c · 2^k`, `c ≥ 1`).
    pub sub_tile: usize,
    /// Per-block stream slots.
    pub assignments: Vec<Vec<StreamSlot>>,
}

impl TiledPcrKernel {
    /// Shared-memory elements this kernel needs per slot: 4 arrays ×
    /// (window `2f + st` + cache `2f` + store-alignment carry `st − f`)
    /// — the Table I footprint.
    pub fn shared_elems_per_slot(k: u32, sub_tile: usize) -> usize {
        let f = (1usize << k) - 1;
        4 * ((2 * f + sub_tile) + 2 * f + sub_tile.saturating_sub(f).max(1))
    }

    /// Fig. 11(a) assignment: block `i` streams system `i` whole.
    pub fn assign_block_per_system(m: usize, n: usize) -> Vec<Vec<StreamSlot>> {
        (0..m).map(|s| vec![StreamSlot::whole(s * n, n)]).collect()
    }

    /// Fig. 11(b) assignment: each system split into `g` contiguous
    /// ranges, one block each (`m·g` blocks).
    pub fn assign_block_group_per_system(m: usize, n: usize, g: usize) -> Vec<Vec<StreamSlot>> {
        let g = g.max(1).min(n);
        let mut out = Vec::with_capacity(m * g);
        for sys in 0..m {
            let base = n / g;
            let extra = n % g;
            let mut lo = 0usize;
            for part in 0..g {
                let len = base + usize::from(part < extra);
                out.push(vec![StreamSlot {
                    base: sys * n,
                    emit_lo: lo,
                    emit_hi: lo + len,
                }]);
                lo += len;
            }
        }
        out
    }

    /// Fig. 11(c) assignment: `q` whole systems multiplexed per block
    /// (`ceil(m/q)` blocks).
    pub fn assign_multi_system_per_block(m: usize, n: usize, q: usize) -> Vec<Vec<StreamSlot>> {
        let q = q.max(1);
        (0..m.div_ceil(q))
            .map(|b| {
                (b * q..((b + 1) * q).min(m))
                    .map(|s| StreamSlot::whole(s * n, n))
                    .collect()
            })
            .collect()
    }
}

impl<S: GpuScalar> BlockKernel<S> for TiledPcrKernel {
    fn run_block(&self, ctx: &mut BlockCtx<'_, S>) -> Result<()> {
        let slots_cfg = &self.assignments[ctx.block_id];
        if slots_cfg.is_empty() {
            return Ok(());
        }
        // Unchecked: the rows go to the outputs in bulk first, then the
        // device's steps are counted without moving data, once per
        // launch for each distinct key. The key holds what the count
        // reads that is not a launch constant (`n`, `k`, sub-tile,
        // threads, buffers and spec): each slot's base alignment class
        // and emit range, in slot order.
        if !ctx.checked() && self.store_bulk(ctx, slots_cfg) {
            let key: Vec<usize> = slots_cfg
                .iter()
                .flat_map(|s| [ctx.segment_class(s.base), s.emit_lo, s.emit_hi])
                .collect();
            return ctx.count_once(&key, &mut |ctx| self.steps(ctx, slots_cfg, false));
        }
        self.steps(ctx, slots_cfg, true)
    }
}

impl TiledPcrKernel {
    /// One block's streams over `slots_cfg`: every step's emit, carry
    /// read and roll and the final flush, counted, and when `moving`
    /// performed step by step.
    // Not inlined: one copy per scalar type serves both paths.
    #[inline(never)]
    fn steps<S: GpuScalar>(
        &self,
        ctx: &mut BlockCtx<'_, S>,
        slots_cfg: &[StreamSlot],
        moving: bool,
    ) -> Result<()> {
        let mut engine = WindowEngine::new(ctx, self.n, self.k, self.sub_tile, slots_cfg)?;
        let st = engine.st;
        let f = engine.f;

        // Output-carry buffers for aligned emission, the four arrays of
        // a slot `carry_shifts` apart.
        ctx.phase("carry_init");
        let carry_len = (st - f).max(1);
        let mut emit = Emit {
            carry: Vec::with_capacity(engine.slots.len()),
            carry_shifts: [0, carry_len, 2 * carry_len, 3 * carry_len],
            sh_lanes: Lanes::new(),
            g_lanes: Lanes::new(),
        };
        for _ in 0..engine.slots.len() {
            let base = ctx.shared_alloc(4 * carry_len)?;
            emit.carry.push(emit.carry_shifts.map(|c| base + c));
        }

        if moving {
            while engine.advance(ctx, self.input, true)? {
                self.emit_step(ctx, &engine, &mut emit, true)?;
                engine.step();
            }
        } else {
            engine.count_steps(
                ctx,
                self.input,
                &mut |ctx, s, key| {
                    let (first, lo, _, hi) = emit_span(s.t0 - st as isize, s, st, st - f);
                    let start = s.base + (first + lo as isize) as usize;
                    key.extend([lo as isize, hi as isize, ctx.segment_class(start) as isize]);
                },
                &mut |ctx, engine| self.emit_step(ctx, engine, &mut emit, false),
            )?;
        }

        // ---- final flush: each slot's carry holds [t0 − st, t0 − f),
        // which covers everything not yet stored.
        ctx.phase("flush");
        for arr in 0..4 {
            emit.sh_lanes.clear();
            emit.g_lanes.clear();
            for (g, s) in engine.slots.iter().enumerate() {
                let (first, lo, _, hi) = emit_span(s.t0 - st as isize, s, st - f, st - f);
                emit.sh_lanes.push(emit.carry[g][arr] + lo, 1, hi - lo);
                emit.g_lanes
                    .push(s.base + (first + lo as isize) as usize, 1, hi - lo);
            }
            ctx.sh_account(&emit.sh_lanes, &[0], false)?;
            ctx.global_account(self.output[arr], &emit.g_lanes, &[0], true)?;
            if moving {
                let out = ctx.global_write(self.output[arr])?;
                let sh = ctx.shared_slice();
                for (g, s) in engine.slots.iter().enumerate() {
                    let (first, lo, _, hi) = emit_span(s.t0 - st as isize, s, st - f, st - f);
                    if lo < hi {
                        let at = emit.carry[g][arr];
                        out.store(
                            s.base + (first + lo as isize) as usize,
                            &sh[at + lo..at + hi],
                        );
                    }
                }
            }
        }
        Ok(())
    }
}

/// The emit's scratch: each slot's carry bases, the distance between
/// a slot's four carries, and the lanes of one access.
struct Emit {
    carry: Vec<[usize; 4]>,
    carry_shifts: [usize; 4],
    sh_lanes: Lanes,
    g_lanes: Lanes,
}

/// The rows a slot emits from a run of `len` positions starting at
/// `first` whose first `carried` come from its carry and the rest from
/// its window: `(first, lo, split, hi)`, the emitted offsets `lo..hi`
/// (within the emit range), carried below `split`.
fn emit_span(
    first: isize,
    s: &super::window::SlotState,
    len: usize,
    carried: usize,
) -> (isize, usize, usize, usize) {
    let len = len as isize;
    let lo = (s.emit_lo - first).clamp(0, len) as usize;
    let hi = (s.emit_hi - first).clamp(lo as isize, len) as usize;
    (first, lo, carried.clamp(lo, hi), hi)
}

impl TiledPcrKernel {
    /// One step's emit, carry read and carry roll for every active
    /// slot: counted, and when `moving` performed in shared and global
    /// memory.
    fn emit_step<S: GpuScalar>(
        &self,
        ctx: &mut BlockCtx<'_, S>,
        engine: &WindowEngine<S>,
        emit: &mut Emit,
        moving: bool,
    ) -> Result<()> {
        let (st, f) = (engine.st, engine.f);
        // ---- emit the *aligned* chunk [t0 − st, t0) -----------------
        // Fresh level-k rows cover [t0 − f, t0 + st − f); the carry
        // holds [t0 − st, t0 − f) from the previous sub-tile. Lane i of
        // a slot emits position t0 − st + i from carry[i] when
        // i < st − f, else from buf[i − (st − f)].
        ctx.phase("emit");
        let span = |s: &super::window::SlotState| emit_span(s.t0 - st as isize, s, st, st - f);
        for arr in 0..4 {
            emit.sh_lanes.clear();
            emit.g_lanes.clear();
            for &g in &engine.active {
                let s = &engine.slots[g];
                let (first, lo, split, hi) = span(s);
                emit.sh_lanes.push(emit.carry[g][arr] + lo, 1, split - lo);
                emit.sh_lanes
                    .push(s.buf[arr] + split.saturating_sub(st - f), 1, hi - split);
                emit.g_lanes
                    .push(s.base + (first + lo as isize) as usize, 1, hi - lo);
            }
            ctx.sh_account(&emit.sh_lanes, &[0], false)?;
            ctx.global_account(self.output[arr], &emit.g_lanes, &[0], true)?;
            if moving {
                let out = ctx.global_write(self.output[arr])?;
                let sh = ctx.shared_slice();
                for &g in &engine.active {
                    let s = &engine.slots[g];
                    let (first, lo, split, hi) = span(s);
                    let start = s.base + (first + lo as isize) as usize;
                    if lo < split {
                        let carried = emit.carry[g][arr];
                        out.store(start, &sh[carried + lo..carried + split]);
                    }
                    if split < hi {
                        let fresh = s.buf[arr] + split - (st - f);
                        out.store(start + split - lo, &sh[fresh..fresh + hi - split]);
                    }
                }
            }
        }
        // Read the next chunk's carry head [t0, t0 + st − f) — this
        // sub-tile's buf[f .. st) — into registers (the roll below
        // moves it).
        if st > f {
            slot_runs(&mut emit.sh_lanes, &engine.active, st - f, |g| {
                engine.slots[g].buf[0] + f
            });
            ctx.sh_account(&emit.sh_lanes, &engine.arr_shifts, false)?;
        }
        // The emit phase *read* the carry words the roll below *writes*,
        // from differently-mapped lanes; without this barrier that is a
        // write-after-read race (a stream slot's emit could observe the
        // next sub-tile's carry).
        ctx.sync();
        ctx.phase("carry_roll");
        if st > f {
            slot_runs(&mut emit.sh_lanes, &engine.active, st - f, |g| {
                emit.carry[g][0]
            });
            ctx.sh_account(&emit.sh_lanes, &emit.carry_shifts, true)?;
            if moving {
                let sh = ctx.shared_slice_mut();
                for &g in &engine.active {
                    for arr in 0..4 {
                        let from = engine.slots[g].buf[arr] + f;
                        sh.copy_within(from..from + st - f, emit.carry[g][arr]);
                    }
                }
            }
        }
        ctx.sync();
        Ok(())
    }

    /// The data path in bulk (unchecked launches): every slot's emit
    /// range reduced by [`stream_bulk`] and stored straight to the
    /// outputs. `false` when the block must run per step instead — an
    /// invalid configuration, a buffer too short or read-only, or a
    /// zero pivot — which then reports the fault.
    fn store_bulk<S: GpuScalar>(&self, ctx: &BlockCtx<'_, S>, slots: &[StreamSlot]) -> bool {
        if !valid(self.n, self.k, self.sub_tile, slots) {
            return false;
        }
        let f = (1usize << self.k) - 1;
        let in_len = slots.iter().map(|s| s.base + (s.emit_hi + f).min(self.n));
        let out_len = slots.iter().map(|s| s.base + s.emit_hi);
        let (Some(input), Some(output)) = (
            read_views(ctx, self.input, in_len.max().unwrap_or(0)),
            write_views(ctx, self.output, out_len.max().unwrap_or(0)),
        ) else {
            return false;
        };
        let mut mem = Vec::new();
        slots.iter().all(|s| {
            stream_bulk(self.n, self.k, s, &input, &mut mem, &mut |p, rows| {
                for (out, row) in output.iter().zip(rows) {
                    out.store(s.base + p, row);
                }
                Ok(())
            })
            .is_ok()
        })
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::buffers::upload;
    use crate::consts::REGS_TILED_PCR;
    use gpu_sim::{launch, DeviceSpec, GpuMemory, LaunchConfig, LaunchResult};
    use tridiag_core::generators::random_batch;
    use tridiag_core::pcr;

    /// Run the kernel over a batch and return the reduced arrays plus
    /// the launch result.
    fn run(
        m: usize,
        n: usize,
        k: u32,
        sub_tile: usize,
        assignments: Vec<Vec<StreamSlot>>,
        threads: u32,
    ) -> (Vec<Vec<f64>>, LaunchResult) {
        let host = random_batch::<f64>(m, n, 1000 + m as u64 + n as u64 + k as u64);
        let mut mem = GpuMemory::new();
        let dev = upload(&mut mem, &host);
        let out = [
            mem.alloc(m * n),
            mem.alloc(m * n),
            mem.alloc(m * n),
            mem.alloc(m * n),
        ];
        let blocks = assignments.len();
        let kernel = TiledPcrKernel {
            input: [dev.a, dev.b, dev.c, dev.d],
            output: out,
            n,
            k,
            sub_tile,
            assignments,
        };
        let cfg = LaunchConfig::new("tiled_pcr", blocks, threads).with_regs(REGS_TILED_PCR);
        let res = launch(&DeviceSpec::gtx480(), &cfg, &kernel, &mut mem).unwrap();
        let arrays = out.iter().map(|&b| mem.read(b).unwrap()).collect();
        (arrays, res)
    }

    /// Exact-compare kernel output against host `pcr::reduce` for every
    /// system in the batch.
    fn assert_exact(m: usize, n: usize, k: u32, arrays: &[Vec<f64>], ctx: &str) {
        let host = random_batch::<f64>(m, n, 1000 + m as u64 + n as u64 + k as u64);
        for sys in 0..m {
            let reference = pcr::reduce(&host.system(sys).unwrap(), k).unwrap();
            let (ra, rb, rc, rd) = reference.arrays();
            for row in 0..n {
                let g = sys * n + row;
                assert_eq!(arrays[0][g], ra[row], "{ctx}: a sys {sys} row {row}");
                assert_eq!(arrays[1][g], rb[row], "{ctx}: b sys {sys} row {row}");
                assert_eq!(arrays[2][g], rc[row], "{ctx}: c sys {sys} row {row}");
                assert_eq!(arrays[3][g], rd[row], "{ctx}: d sys {sys} row {row}");
            }
        }
    }

    #[test]
    fn block_per_system_bit_exact() {
        for (m, n, k, c) in [
            (1usize, 64usize, 2u32, 1usize),
            (3, 64, 3, 1),
            (2, 100, 2, 2), // non-power-of-two n, flush across tiles
            (1, 512, 5, 1),
            (2, 96, 4, 2),
        ] {
            let st = c << k;
            let assignments = TiledPcrKernel::assign_block_per_system(m, n);
            let (arrays, _) = run(m, n, k, st, assignments, 1 << k);
            assert_exact(m, n, k, &arrays, &format!("11a m={m} n={n} k={k} c={c}"));
        }
    }

    #[test]
    fn block_group_per_system_bit_exact() {
        for (m, n, k, g) in [
            (1usize, 256usize, 3u32, 2usize),
            (2, 200, 2, 4),
            (1, 512, 4, 3),
        ] {
            let st = 1usize << k;
            let assignments = TiledPcrKernel::assign_block_group_per_system(m, n, g);
            assert_eq!(assignments.len(), m * g);
            let (arrays, _) = run(m, n, k, st, assignments, 1 << k);
            assert_exact(m, n, k, &arrays, &format!("11b m={m} n={n} k={k} g={g}"));
        }
    }

    #[test]
    fn multi_system_per_block_bit_exact() {
        for (m, n, k, q) in [
            (4usize, 64usize, 2u32, 2usize),
            (5, 128, 3, 3),
            (8, 96, 2, 4),
        ] {
            let st = 1usize << k;
            let assignments = TiledPcrKernel::assign_multi_system_per_block(m, n, q);
            assert_eq!(assignments.len(), m.div_ceil(q));
            let (arrays, _) = run(m, n, k, st, assignments, (q << k) as u32);
            assert_exact(m, n, k, &arrays, &format!("11c m={m} n={n} k={k} q={q}"));
        }
    }

    #[test]
    fn streaming_loads_each_row_exactly_once() {
        let (m, n, k) = (2usize, 512usize, 4u32);
        let assignments = TiledPcrKernel::assign_block_per_system(m, n);
        let (_, res) = run(m, n, k, 1 << k, assignments, 1 << k);
        // 4 arrays × m·n elements loaded exactly once, 8 B each.
        assert_eq!(
            res.stats.total.global_load_bytes,
            (4 * m * n * 8) as u64,
            "no redundant global loads in the 11(a) mapping"
        );
        // Stores: 4 arrays × m·n reduced rows.
        assert_eq!(res.stats.total.global_store_bytes, (4 * m * n * 8) as u64);
        assert!(res.stats.total.coalescing_efficiency(128) > 0.8);
    }

    #[test]
    fn partitioning_costs_halo_loads() {
        let (m, n, k, g) = (1usize, 512usize, 4u32, 4usize);
        let whole = TiledPcrKernel::assign_block_per_system(m, n);
        let split = TiledPcrKernel::assign_block_group_per_system(m, n, g);
        let (_, res_whole) = run(m, n, k, 1 << k, whole, 1 << k);
        let (_, res_split) = run(m, n, k, 1 << k, split, 1 << k);
        let halo =
            res_split.stats.total.global_load_bytes - res_whole.stats.total.global_load_bytes;
        // Up to 2·f(k) extra rows per internal boundary, 4 arrays × 8 B.
        let f = (1u64 << k) - 1;
        assert!(halo > 0, "partitioning must reload halos");
        assert!(halo <= (g as u64 - 1) * 2 * f * 4 * 8);
    }

    #[test]
    #[cfg_attr(debug_assertions, ignore = "slow simulation; run with --release")]
    fn shared_footprint_matches_table1_budget() {
        let (m, n, k, c) = (1usize, 1024usize, 8u32, 1usize);
        let st = c << k;
        let assignments = TiledPcrKernel::assign_block_per_system(m, n);
        let (arrays, res) = run(m, n, k, st, assignments, 1 << k);
        assert_exact(m, n, k, &arrays, "k=8 full window");
        let elems = TiledPcrKernel::shared_elems_per_slot(k, st);
        assert_eq!(res.shared_bytes_per_block, elems * 8);
        // The paper's Table III flagship config fits 48 KiB easily.
        assert!(res.shared_bytes_per_block <= 48 * 1024);
    }

    /// Gradual underflow stays: in f32 the off-diagonals of dominant
    /// systems reach the subnormal range at level 6, which a k = 6
    /// launch emits and a k = 7 launch combines into the zeros it
    /// emits. Both match the host reduction bit for bit — no flush to
    /// zero, as sm_20 runs without fast-math. (Exact zeros may differ
    /// in sign: the window reduces the identity rows before a stream's
    /// head, the host takes fresh ones at every level.)
    #[test]
    fn f32_high_k_keeps_subnormal_coefficients() {
        let (m, n) = (2usize, 1024usize);
        let host = random_batch::<f32>(m, n, 11);
        for k in [6u32, 7] {
            let mut mem = GpuMemory::new();
            let dev = upload(&mut mem, &host);
            let out = [(); 4].map(|_| mem.alloc(m * n));
            let kernel = TiledPcrKernel {
                input: [dev.a, dev.b, dev.c, dev.d],
                output: out,
                n,
                k,
                sub_tile: 1 << k,
                assignments: TiledPcrKernel::assign_block_per_system(m, n),
            };
            let cfg = LaunchConfig::new("tiled_pcr", m, 1 << k).with_regs(REGS_TILED_PCR);
            launch(&DeviceSpec::gtx480(), &cfg, &kernel, &mut mem).unwrap();
            let arrays: Vec<Vec<f32>> = out.iter().map(|&b| mem.read(b).unwrap()).collect();
            let (mut subnormal, mut zero) = (0usize, 0usize);
            for sys in 0..m {
                let reference = pcr::reduce(&host.system(sys).unwrap(), k).unwrap();
                let (ra, rb, rc, rd) = reference.arrays();
                for (arr, want) in [ra, rb, rc, rd].into_iter().enumerate() {
                    let got = &arrays[arr][sys * n..(sys + 1) * n];
                    for (row, (g, w)) in got.iter().zip(want).enumerate() {
                        let same = g.to_bits() == w.to_bits() || (*g == 0.0 && *w == 0.0);
                        assert!(
                            same,
                            "k={k} array {arr} sys {sys} row {row}: {g:e} vs {w:e}"
                        );
                        if arr == 0 || arr == 2 {
                            subnormal += usize::from(g.is_subnormal());
                            zero += usize::from(*g == 0.0);
                        }
                    }
                }
            }
            if k == 6 {
                assert!(subnormal > 0, "no subnormal off-diagonal at k = 6");
            } else {
                assert_eq!(zero, 2 * m * n, "k = 7 underflows every off-diagonal");
            }
        }
    }

    #[test]
    fn config_validation() {
        let host = random_batch::<f64>(1, 64, 5);
        let mut mem = GpuMemory::new();
        let dev = upload(&mut mem, &host);
        let out = [mem.alloc(64), mem.alloc(64), mem.alloc(64), mem.alloc(64)];
        // sub_tile < 2^k
        let kernel = TiledPcrKernel {
            input: [dev.a, dev.b, dev.c, dev.d],
            output: out,
            n: 64,
            k: 3,
            sub_tile: 4,
            assignments: vec![vec![StreamSlot::whole(0, 64)]],
        };
        let cfg = LaunchConfig::new("tiled_pcr", 1, 8);
        assert!(launch(&DeviceSpec::gtx480(), &cfg, &kernel, &mut mem).is_err());
        // bad emit range
        let kernel2 = TiledPcrKernel {
            input: [dev.a, dev.b, dev.c, dev.d],
            output: out,
            n: 64,
            k: 2,
            sub_tile: 4,
            assignments: vec![vec![StreamSlot {
                base: 0,
                emit_lo: 10,
                emit_hi: 10,
            }]],
        };
        assert!(launch(&DeviceSpec::gtx480(), &cfg, &kernel2, &mut mem).is_err());
    }
}
