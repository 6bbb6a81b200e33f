//! The block-synchronous kernel execution engine.
//!
//! Kernels are written in explicit SIMT style: a [`BlockKernel`]
//! describes what *one thread block* does, and every memory operation is
//! block-wide — one index per active thread, chunked into warps
//! internally. This keeps the functional semantics exact, makes
//! coalescing/bank-conflict analysis cheap and precise, and matches how
//! the paper's kernels are actually structured (lockstep phases
//! separated by `__syncthreads()`).
//!
//! Each operation comes in two forms with identical semantics and
//! counters. The slice forms (`ld`, `st`, `sh_ld`, `sh_st`) take an
//! index per lane, for irregular lanes. The affine forms (`ld_affine`,
//! …) take the lanes as [`AffinePiece`]s — the shape almost every
//! access of the paper's kernels has — and count them in closed form
//! ([`crate::memory::access_transactions`],
//! [`crate::memory::access_conflict_cycles`],
//! [`crate::memory::access_uncoalesced`]) and move unit-stride data with
//! slice copies. Under the sanitizer the affine forms expand their
//! pieces and take the slice path, so checked launches see exactly the
//! per-lane indices.
//!
//! Blocks are independent, as CUDA requires: CUDA guarantees nothing
//! about cross-block ordering within a launch, and no kernel in this
//! workspace communicates across blocks. An unchecked launch therefore
//! runs its blocks on several host threads when they are long enough
//! to pay for it ([`launch_with`]), against a global memory of atomic
//! cells ([`Elem::Cell`]) and read-only borrowed host arrays
//! ([`GpuMemory::borrow`]); each block counts into its own
//! [`BlockCtx`], and the launch merges the blocks' counters, phases,
//! per-block vectors and errors in block order. Checked launches run
//! their blocks one after another. Determinism is total — every run of
//! a kernel produces identical results *and* identical counters,
//! however many threads ran it.

use crate::counters::{BlockStats, KernelStats, PhaseStats, PRELUDE_PHASE};
use crate::error::{Result, SimError};
use crate::lanes::{expand, AffinePiece};
use crate::memory::{
    access_conflict_cycles, access_transactions, access_uncoalesced, shared_conflict_cycles,
    uncoalesced, warp_transactions, InitMask,
};
use crate::occupancy::{occupancy, Occupancy};
use crate::par::{for_each_ordered, Permits};
use crate::sanitizer::{MemSpace, Sanitizer, SanitizerViolation};
use crate::spec::DeviceSpec;
use std::cell::Cell;
use std::fmt::Debug;
use std::sync::atomic::Ordering::Relaxed;
use std::sync::atomic::{AtomicU32, AtomicU64};
use std::time::Instant;

/// Element types storable in simulated GPU memory.
///
/// Global memory keeps each element as an atomic cell of its bits
/// ([`Elem::Cell`]), so the blocks of one launch can load and store it
/// from several host threads without `unsafe`. Every access is
/// `Relaxed`: blocks of a launch never communicate through global
/// memory, and the launch's thread joins order their effects before
/// the host reads the buffers again. On x86-64 a relaxed load or store
/// is a plain move.
pub trait Elem: Copy + Default + Debug + PartialEq + Send + Sync + 'static {
    /// Size in bytes, used for traffic accounting.
    const BYTES: usize;
    /// The atomic cell one element is stored in.
    type Cell: Debug + Send + Sync;
    /// A cell holding `self`.
    fn into_cell(self) -> Self::Cell;
    /// Load a cell.
    fn load(cell: &Self::Cell) -> Self;
    /// Store `v` into a cell.
    fn store(cell: &Self::Cell, v: Self);
}

macro_rules! impl_elem {
    ($t:ty, $cell:ty, $to_bits:expr, $from_bits:expr) => {
        impl Elem for $t {
            const BYTES: usize = std::mem::size_of::<$t>();
            type Cell = $cell;
            #[inline]
            fn into_cell(self) -> $cell {
                <$cell>::new($to_bits(self))
            }
            #[inline]
            fn load(cell: &$cell) -> Self {
                $from_bits(cell.load(Relaxed))
            }
            #[inline]
            fn store(cell: &$cell, v: Self) {
                cell.store($to_bits(v), Relaxed)
            }
        }
    };
}

impl_elem!(f32, AtomicU32, f32::to_bits, f32::from_bits);
impl_elem!(f64, AtomicU64, f64::to_bits, f64::from_bits);
impl_elem!(
    u32,
    AtomicU32,
    std::convert::identity,
    std::convert::identity
);

/// Handle to a global-memory buffer in a [`GpuMemory`] arena.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash)]
pub struct BufId(usize);

/// Storage of one buffer: device cells the arena owns, or a read-only
/// host array it borrows.
#[derive(Debug)]
enum Storage<'h, S: Elem> {
    /// Device cells, written by uploads, kernel stores and the host.
    Owned(Vec<S::Cell>),
    /// The caller's host array, used in place ("a `const` device
    /// pointer"): loads read it, stores are a typed error.
    Borrowed(&'h [S]),
}

impl<S: Elem> Storage<'_, S> {
    fn len(&self) -> usize {
        match self {
            Storage::Owned(cells) => cells.len(),
            Storage::Borrowed(host) => host.len(),
        }
    }
}

/// Simulated device global memory: an arena of typed buffers.
///
/// A buffer either owns its elements, each in an atomic cell
/// ([`Elem::Cell`]) so a launch's blocks can run on several host
/// threads against a shared `&GpuMemory`, or borrows a read-only host
/// array for the arena's lifetime `'h` ([`GpuMemory::borrow`]), which
/// is how an upload needing no layout change costs no copy. Stores to
/// a borrowed buffer fail with [`SimError::ReadOnlyBuffer`]. Every
/// buffer carries a word-granular [`InitMask`] shadow recording which
/// elements have ever been written — by a kernel store or a host
/// upload. The sanitizer's initcheck reads it; maintenance is cheap
/// enough to run unconditionally, so the shadow stays accurate even
/// when only some launches are sanitized.
#[derive(Debug, Default)]
pub struct GpuMemory<'h, S: Elem> {
    buffers: Vec<Storage<'h, S>>,
    init: Vec<InitMask>,
    resident_bytes: usize,
    peak_resident_bytes: usize,
}

impl<S: Elem> Clone for GpuMemory<'_, S> {
    fn clone(&self) -> Self {
        Self {
            buffers: self
                .buffers
                .iter()
                .map(|b| match b {
                    Storage::Owned(cells) => {
                        Storage::Owned(cells.iter().map(|c| S::load(c).into_cell()).collect())
                    }
                    Storage::Borrowed(host) => Storage::Borrowed(host),
                })
                .collect(),
            init: self.init.clone(),
            resident_bytes: self.resident_bytes,
            peak_resident_bytes: self.peak_resident_bytes,
        }
    }
}

impl<'h, S: Elem> GpuMemory<'h, S> {
    /// Empty arena.
    pub fn new() -> Self {
        Self {
            buffers: Vec::new(),
            init: Vec::new(),
            resident_bytes: 0,
            peak_resident_bytes: 0,
        }
    }

    fn push(&mut self, storage: Storage<'h, S>, init: InitMask) -> BufId {
        self.resident_bytes += storage.len() * S::BYTES;
        self.peak_resident_bytes = self.peak_resident_bytes.max(self.resident_bytes);
        self.buffers.push(storage);
        self.init.push(init);
        BufId(self.buffers.len() - 1)
    }

    /// Allocate a buffer of `len` elements. Functionally zero-filled
    /// (deterministic), but *uninitialized* to the sanitizer — like
    /// `cudaMalloc`, whose contents are undefined.
    pub fn alloc(&mut self, len: usize) -> BufId {
        let cells = (0..len).map(|_| S::default().into_cell()).collect();
        self.push(Storage::Owned(cells), InitMask::uninit(len))
    }

    /// Upload host data ("cudaMemcpy host→device"); fully initialized.
    /// The vector's allocation becomes the buffer's storage.
    pub fn alloc_from(&mut self, data: Vec<S>) -> BufId {
        let cells = data.into_iter().map(S::into_cell).collect();
        self.push(Storage::Owned(cells), InitMask::Full)
    }

    /// Upload a host array without copying it: the buffer reads `data`
    /// in place for the arena's lifetime. It is fully initialized and
    /// counts its bytes as resident exactly like [`Self::alloc_from`],
    /// but it is read-only — a kernel or host store into it fails with
    /// [`SimError::ReadOnlyBuffer`].
    pub fn borrow(&mut self, data: &'h [S]) -> BufId {
        self.push(Storage::Borrowed(data), InitMask::Full)
    }

    /// Drop a buffer's storage and take its bytes out of the resident
    /// set, keeping its index slot; returns the storage.
    fn release(&mut self, id: BufId) -> Result<Storage<'h, S>> {
        let buf = self
            .buffers
            .get_mut(id.0)
            .ok_or(SimError::BadBuffer { buffer: id.0 })?;
        let storage = std::mem::replace(buf, Storage::Owned(Vec::new()));
        self.resident_bytes = self.resident_bytes.saturating_sub(storage.len() * S::BYTES);
        self.init[id.0] = InitMask::uninit(0);
        Ok(storage)
    }

    /// Release a buffer ("cudaFree"): its storage is dropped and its
    /// bytes leave the resident set, but the `BufId` index slot is kept
    /// so later allocations keep their identities (any access through
    /// the freed id fails as out-of-bounds on a zero-length buffer).
    pub fn free(&mut self, id: BufId) -> Result<()> {
        self.release(id).map(drop)
    }

    /// Read back a buffer and release it in one step — a download that
    /// is the buffer's last use. An owned buffer's storage becomes the
    /// returned vector, so nothing is copied; a borrowed one returns a
    /// copy of its host array.
    pub fn take(&mut self, id: BufId) -> Result<Vec<S>> {
        Ok(match self.release(id)? {
            Storage::Owned(cells) => cells.into_iter().map(|c| S::load(&c)).collect(),
            Storage::Borrowed(host) => host.to_vec(),
        })
    }

    /// Bytes currently allocated across live (un-freed) buffers.
    pub fn resident_bytes(&self) -> usize {
        self.resident_bytes
    }

    /// High-water mark of [`Self::resident_bytes`] over the arena's
    /// lifetime — the quantity a plan verifier's liveness-based peak
    /// prediction must match exactly.
    pub fn peak_resident_bytes(&self) -> usize {
        self.peak_resident_bytes
    }

    /// Is element `i` of `id` initialized (host-uploaded or stored to)?
    pub fn is_word_init(&self, id: BufId, i: usize) -> bool {
        self.init.get(id.0).is_some_and(|m| m.is_set(i))
    }

    fn storage(&self, id: BufId) -> Result<&Storage<'h, S>> {
        self.buffers
            .get(id.0)
            .ok_or(SimError::BadBuffer { buffer: id.0 })
    }

    /// The cells of an owned buffer, to store into; a typed error for a
    /// borrowed one.
    fn writable(&self, id: BufId) -> Result<&[S::Cell]> {
        match self.storage(id)? {
            Storage::Owned(cells) => Ok(cells),
            Storage::Borrowed(_) => Err(SimError::ReadOnlyBuffer { buffer: id.0 }),
        }
    }

    /// Read back a buffer ("cudaMemcpy device→host").
    pub fn read(&self, id: BufId) -> Result<Vec<S>> {
        Ok(match self.storage(id)? {
            Storage::Owned(cells) => cells.iter().map(S::load).collect(),
            Storage::Borrowed(host) => host.to_vec(),
        })
    }

    /// Length of a buffer.
    pub fn len(&self, id: BufId) -> Result<usize> {
        Ok(self.storage(id)?.len())
    }

    /// `true` if the arena holds no buffers.
    pub fn is_empty(&self) -> bool {
        self.buffers.is_empty()
    }

    /// Host-side mutable access (outside kernels; e.g. to refresh an RHS
    /// between solves without re-alloc). A borrowed buffer is a
    /// [`SimError::ReadOnlyBuffer`].
    pub fn write(&mut self, id: BufId, data: &[S]) -> Result<()> {
        let buf = self.writable(id)?;
        if buf.len() != data.len() {
            return Err(SimError::LaneMismatch {
                indices: buf.len(),
                values: data.len(),
            });
        }
        for (c, &v) in buf.iter().zip(data) {
            S::store(c, v);
        }
        self.init[id.0] = InitMask::Full;
        Ok(())
    }

    /// `out` replaced by buffer `buf` (owned or borrowed) read at every
    /// lane of `pieces` (all in bounds).
    fn gather(&self, buf: BufId, pieces: &[AffinePiece], out: &mut Vec<S>) {
        match &self.buffers[buf.0] {
            Storage::Owned(cells) => gather(cells, pieces, out, S::load),
            Storage::Borrowed(host) => gather(host, pieces, out, |&v| v),
        }
    }

    /// Write `vals` (one per lane, all in bounds) to the owned buffer
    /// `buf` at every lane of `pieces`, in lane order, marking each
    /// written element initialized.
    fn scatter(&self, buf: BufId, pieces: &[AffinePiece], vals: &[S]) -> Result<()> {
        scatter(self.writable(buf)?, pieces, vals, S::store);
        let mask = &self.init[buf.0];
        for p in pieces {
            let b = p.base as usize;
            if p.stride == 1 {
                mask.set_range(b, b + p.lanes);
            } else {
                (0..p.lanes).for_each(|x| mask.set(p.elem(x) as usize));
            }
        }
        Ok(())
    }
}

/// Execution options orthogonal to the launch geometry. Pass to
/// [`launch_with`]; [`launch`] uses the default (sanitizer off).
#[derive(Debug, Clone, Copy, Default, PartialEq, Eq)]
pub struct ExecConfig {
    /// Run the kernel under the sanitizer (see [`crate::sanitizer`]),
    /// collecting its findings into [`LaunchResult::violations`].
    /// Out-of-bounds accesses abort the launch.
    pub sanitize: bool,
}

impl ExecConfig {
    /// Sanitizer on.
    pub fn sanitized() -> Self {
        Self { sanitize: true }
    }
}

/// Launch configuration (the `<<<grid, block>>>` pair plus a register
/// estimate for the occupancy model).
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct LaunchConfig {
    /// Kernel name for reports.
    pub name: &'static str,
    /// Number of thread blocks.
    pub grid_blocks: usize,
    /// Threads per block.
    pub threads_per_block: u32,
    /// Registers per thread (occupancy input; nvcc would report this).
    pub regs_per_thread: u32,
}

impl LaunchConfig {
    /// Convenience constructor.
    pub fn new(name: &'static str, grid_blocks: usize, threads_per_block: u32) -> Self {
        Self {
            name,
            grid_blocks,
            threads_per_block,
            regs_per_thread: 32,
        }
    }

    /// Override the register estimate.
    pub fn with_regs(mut self, regs: u32) -> Self {
        self.regs_per_thread = regs;
        self
    }
}

/// What one thread block may do: the body of the simulated kernel.
///
/// `Sync` because an unchecked launch may run its blocks on several
/// host threads at once (see [`launch_with`]).
pub trait BlockKernel<S: Elem>: Sync {
    /// Execute one block. All global/shared accesses go through `ctx`.
    fn run_block(&self, ctx: &mut BlockCtx<'_, S>) -> Result<()>;
}

/// Per-block execution context handed to [`BlockKernel::run_block`].
pub struct BlockCtx<'a, S: Elem> {
    /// This block's index in the grid.
    pub block_id: usize,
    /// Total blocks in the grid.
    pub grid_blocks: usize,
    /// Threads in this block.
    pub threads: usize,
    mem: &'a GpuMemory<'a, S>,
    shared: Vec<S>,
    warp_size: usize,
    transaction_bytes: usize,
    banks: u32,
    max_shared_bytes: usize,
    stats: BlockStats,
    cur_phase: &'static str,
    /// Index of `cur_phase`'s entry in `phase_stats`, once it exists.
    cur_phase_idx: Option<usize>,
    phase_stats: Vec<PhaseStats>,
    san: Option<Sanitizer>,
    /// Scratch for the affine entry points' expanded lanes.
    expanded: Vec<usize>,
}

/// Lane count of a piece list in lane order, and whether every lane's
/// element lies in `0..len`.
fn piece_extent(pieces: &[AffinePiece], len: usize) -> Result<(usize, bool)> {
    let mut lanes = 0usize;
    let mut in_bounds = true;
    for p in pieces {
        if p.lane0 != lanes || p.lanes == 0 {
            return Err(SimError::InvalidLaunch(format!(
                "affine piece {p} is not the next lane run after lane {lanes}"
            )));
        }
        let (a, b) = (p.base, p.elem(p.lanes - 1));
        in_bounds &= a.min(b) >= 0 && (a.max(b) as usize) < len;
        lanes += p.lanes;
    }
    Ok((lanes, in_bounds))
}

/// Error unless `vals` holds one value per lane of `pieces`.
fn check_values<S>(pieces: &[AffinePiece], vals: &[S]) -> Result<()> {
    let lanes: usize = pieces.iter().map(|p| p.lanes).sum();
    if lanes != vals.len() {
        return Err(SimError::LaneMismatch {
            indices: lanes,
            values: vals.len(),
        });
    }
    Ok(())
}

/// Replace `out` with `src` read at every lane of `pieces` (all in
/// bounds), one element at a time through `load`: plain copies from
/// shared memory and borrowed host arrays, [`Elem::load`] from global
/// memory's cells.
fn gather<T, S>(src: &[T], pieces: &[AffinePiece], out: &mut Vec<S>, load: impl Fn(&T) -> S) {
    out.clear();
    for p in pieces {
        let b = p.base as usize;
        if p.stride == 1 {
            out.extend(src[b..b + p.lanes].iter().map(&load));
        } else {
            out.extend((0..p.lanes).map(|x| load(&src[p.elem(x) as usize])));
        }
    }
}

/// Write `vals` (one per lane, all in bounds) to `dst` at every lane of
/// `pieces`, in lane order, one element at a time through `store`:
/// [`Cell::set`] into shared memory, [`Elem::store`] into global
/// memory's cells.
fn scatter<T, S: Copy>(dst: &[T], pieces: &[AffinePiece], vals: &[S], store: impl Fn(&T, S)) {
    let mut vals = vals;
    for p in pieces {
        let (v, rest) = vals.split_at(p.lanes);
        vals = rest;
        let b = p.base as usize;
        if p.stride == 1 {
            for (c, &val) in dst[b..b + p.lanes].iter().zip(v) {
                store(c, val);
            }
        } else {
            for (x, &val) in v.iter().enumerate() {
                store(&dst[p.elem(x) as usize], val);
            }
        }
    }
}

impl<'a, S: Elem> BlockCtx<'a, S> {
    /// Apply one counter update to both the block total and the current
    /// phase's entry — the mechanism behind the exact per-phase
    /// breakdown invariant ([`KernelStats::phase_sum_mismatches`]).
    fn bump(&mut self, f: impl Fn(&mut BlockStats)) {
        f(&mut self.stats);
        let idx = match self.cur_phase_idx {
            Some(i) => i,
            None => {
                self.phase_stats.push(PhaseStats {
                    label: self.cur_phase,
                    stats: BlockStats::default(),
                });
                let i = self.phase_stats.len() - 1;
                self.cur_phase_idx = Some(i);
                i
            }
        };
        f(&mut self.phase_stats[idx].stats);
    }

    /// Is the sanitizer on? Its per-lane checks need the index slice,
    /// so the affine entry points expand their pieces and take the
    /// slice path.
    fn checked(&self) -> bool {
        self.san.is_some()
    }

    /// Run a slice-form access on `pieces` expanded to their indices.
    fn with_expanded<R>(
        &mut self,
        pieces: &[AffinePiece],
        f: impl FnOnce(&mut Self, &[usize]) -> R,
    ) -> R {
        let mut idx = std::mem::take(&mut self.expanded);
        expand(pieces, &mut idx);
        let r = f(self, &idx);
        self.expanded = idx;
        r
    }

    /// Block-wide global load: `idx[t]` is the element index thread `t`
    /// reads. `idx.len()` may be any count up to the block size (tail
    /// threads simply idle). Counts one dependent access round, one
    /// transaction per distinct 128-byte segment per warp, and the
    /// access as uncoalesced if it has a lane run wider than unit
    /// stride.
    pub fn ld(&mut self, buf: BufId, idx: &[usize], out: &mut Vec<S>) -> Result<()> {
        self.account_global(buf, idx, true)?;
        if let Some(san) = self.san.as_mut() {
            let mask = &self.mem.init[buf.0];
            for (lane, &i) in idx.iter().enumerate() {
                if !mask.is_set(i) {
                    san.global_uninit_read(lane, buf.0, i);
                }
            }
        }
        out.clear();
        match self.mem.storage(buf)? {
            Storage::Owned(cells) => out.extend(idx.iter().map(|&i| S::load(&cells[i]))),
            Storage::Borrowed(host) => out.extend(idx.iter().map(|&i| host[i])),
        }
        Ok(())
    }

    /// Block-wide global store: thread `t` writes `vals[t]` to
    /// `idx[t]`. Duplicate indices within one store are a data race in
    /// real CUDA; here the last lane deterministically wins. A store to
    /// a borrowed host array is a [`SimError::ReadOnlyBuffer`].
    pub fn st(&mut self, buf: BufId, idx: &[usize], vals: &[S]) -> Result<()> {
        if idx.len() != vals.len() {
            return Err(SimError::LaneMismatch {
                indices: idx.len(),
                values: vals.len(),
            });
        }
        self.account_global(buf, idx, false)?;
        let data = self.mem.writable(buf)?;
        let mask = &self.mem.init[buf.0];
        for (&i, &v) in idx.iter().zip(vals) {
            S::store(&data[i], v);
            mask.set(i);
        }
        Ok(())
    }

    fn account_global(&mut self, buf: BufId, idx: &[usize], is_load: bool) -> Result<()> {
        let len = self.mem.len(buf)?;
        if let Some(pos) = idx.iter().position(|&i| i >= len) {
            if let Some(san) = self.san.as_mut() {
                return Err(san.oob(pos, idx[pos], len, MemSpace::Global, Some(buf.0)));
            }
            return Err(SimError::GlobalOutOfBounds {
                buffer: buf.0,
                index: idx[pos],
                len,
            });
        }
        self.check_width(idx.len())?;
        let mut transactions = 0u64;
        for warp in idx.chunks(self.warp_size) {
            transactions += warp_transactions(warp, S::BYTES, self.transaction_bytes);
        }
        self.count_global(idx.len(), transactions, uncoalesced(idx), is_load);
        Ok(())
    }

    /// One access has at most one lane per thread of the block.
    fn check_width(&self, lanes: usize) -> Result<()> {
        if lanes > self.threads {
            return Err(SimError::InvalidLaunch(format!(
                "{} lanes exceed block size {}",
                lanes, self.threads
            )));
        }
        Ok(())
    }

    fn count_global(&mut self, lanes: usize, transactions: u64, uncoalesced: bool, is_load: bool) {
        let bytes = lanes as u64 * S::BYTES as u64;
        self.bump(|s| {
            s.uncoalesced_global_accesses += u64::from(uncoalesced);
            if is_load {
                s.global_load_transactions += transactions;
                s.global_load_bytes += bytes;
            } else {
                s.global_store_transactions += transactions;
                s.global_store_bytes += bytes;
            }
            s.global_access_rounds += 1;
        });
    }

    /// Validate and count an unchecked affine global access; `false`
    /// when it must take the slice path instead (checked launch, or a
    /// lane out of bounds or beyond the block, which the slice path
    /// reports).
    fn account_global_affine(
        &mut self,
        buf: BufId,
        pieces: &[AffinePiece],
        is_load: bool,
    ) -> Result<bool> {
        let len = self.mem.len(buf)?;
        let (lanes, in_bounds) = piece_extent(pieces, len)?;
        if self.checked() || !in_bounds || lanes > self.threads {
            return Ok(false);
        }
        let transactions = access_transactions(
            pieces,
            lanes,
            self.warp_size,
            S::BYTES,
            self.transaction_bytes,
        );
        self.count_global(lanes, transactions, access_uncoalesced(pieces), is_load);
        Ok(true)
    }

    /// [`Self::ld`] with the lanes given as affine pieces in lane order
    /// (lane `p.lane0 + x` reads element `p.elem(x)`): the same access,
    /// data and counters, counted in closed form.
    pub fn ld_affine(
        &mut self,
        buf: BufId,
        pieces: &[AffinePiece],
        out: &mut Vec<S>,
    ) -> Result<()> {
        if !self.account_global_affine(buf, pieces, true)? {
            return self.with_expanded(pieces, |ctx, idx| ctx.ld(buf, idx, out));
        }
        self.mem.gather(buf, pieces, out);
        Ok(())
    }

    /// [`Self::st`] with the lanes given as affine pieces in lane order:
    /// the same access, data and counters, counted in closed form.
    pub fn st_affine(&mut self, buf: BufId, pieces: &[AffinePiece], vals: &[S]) -> Result<()> {
        check_values(pieces, vals)?;
        if !self.account_global_affine(buf, pieces, false)? {
            return self.with_expanded(pieces, |ctx, idx| ctx.st(buf, idx, vals));
        }
        self.mem.scatter(buf, pieces, vals)
    }

    /// Allocate `len` elements of shared memory; returns the base offset
    /// within the block's shared array. Mirrors `extern __shared__`
    /// carving.
    pub fn shared_alloc(&mut self, len: usize) -> Result<usize> {
        let base = self.shared.len();
        let new_bytes = (base + len) * S::BYTES;
        if new_bytes > self.max_shared_bytes {
            return Err(SimError::SharedOverflow {
                requested: new_bytes,
                capacity: self.max_shared_bytes,
            });
        }
        self.shared.resize(base + len, S::default());
        self.bump(|s| s.shared_bytes_peak = s.shared_bytes_peak.max(new_bytes as u64));
        if let Some(san) = self.san.as_mut() {
            san.on_shared_alloc(base + len);
        }
        Ok(base)
    }

    /// Block-wide shared load with bank-conflict accounting.
    pub fn sh_ld(&mut self, idx: &[usize], out: &mut Vec<S>) -> Result<()> {
        self.account_shared(idx)?;
        if let Some(san) = self.san.as_mut() {
            san.shared_access(idx, false);
        }
        out.clear();
        out.reserve(idx.len());
        for &i in idx {
            out.push(self.shared[i]);
        }
        Ok(())
    }

    /// Block-wide shared store with bank-conflict accounting.
    pub fn sh_st(&mut self, idx: &[usize], vals: &[S]) -> Result<()> {
        if idx.len() != vals.len() {
            return Err(SimError::LaneMismatch {
                indices: idx.len(),
                values: vals.len(),
            });
        }
        self.account_shared(idx)?;
        if let Some(san) = self.san.as_mut() {
            san.shared_access(idx, true);
        }
        for (&i, &v) in idx.iter().zip(vals) {
            self.shared[i] = v;
        }
        Ok(())
    }

    /// Direct (host-speed) view of shared memory for *functional* reads
    /// within already-accounted phases — e.g. the per-thread serial part
    /// of a fused kernel whose traffic was accounted at the vector ops.
    pub fn shared_slice(&self) -> &[S] {
        &self.shared
    }

    fn account_shared(&mut self, idx: &[usize]) -> Result<()> {
        if let Some(pos) = idx.iter().position(|&i| i >= self.shared.len()) {
            let len = self.shared.len();
            if let Some(san) = self.san.as_mut() {
                return Err(san.oob(pos, idx[pos], len, MemSpace::Shared, None));
            }
            return Err(SimError::SharedOutOfBounds {
                index: idx[pos],
                len,
            });
        }
        self.check_width(idx.len())?;
        let (mut replays, mut worst) = (0u64, 1u64);
        for warp in idx.chunks(self.warp_size) {
            let cycles = shared_conflict_cycles(warp, S::BYTES, self.banks);
            replays += cycles - 1;
            worst = worst.max(cycles);
        }
        self.count_shared(replays, worst);
        Ok(())
    }

    fn count_shared(&mut self, replays: u64, worst: u64) {
        self.bump(|s| {
            s.shared_accesses += 1;
            s.bank_conflict_replays += replays;
            s.bank_conflict_degree_peak = s.bank_conflict_degree_peak.max(worst);
        });
    }

    /// The shared-memory twin of [`Self::account_global_affine`].
    fn account_shared_affine(&mut self, pieces: &[AffinePiece]) -> Result<bool> {
        let (lanes, in_bounds) = piece_extent(pieces, self.shared.len())?;
        if self.checked() || !in_bounds || lanes > self.threads {
            return Ok(false);
        }
        let (replays, worst) =
            access_conflict_cycles(pieces, lanes, self.warp_size, S::BYTES, self.banks);
        self.count_shared(replays, worst);
        Ok(true)
    }

    /// [`Self::sh_ld`] with the lanes given as affine pieces in lane
    /// order: the same access, data and counters, counted in closed
    /// form.
    pub fn sh_ld_affine(&mut self, pieces: &[AffinePiece], out: &mut Vec<S>) -> Result<()> {
        if !self.account_shared_affine(pieces)? {
            return self.with_expanded(pieces, |ctx, idx| ctx.sh_ld(idx, out));
        }
        gather(&self.shared, pieces, out, |&v| v);
        Ok(())
    }

    /// [`Self::sh_st`] with the lanes given as affine pieces in lane
    /// order: the same access, data and counters, counted in closed
    /// form.
    pub fn sh_st_affine(&mut self, pieces: &[AffinePiece], vals: &[S]) -> Result<()> {
        check_values(pieces, vals)?;
        if !self.account_shared_affine(pieces)? {
            return self.with_expanded(pieces, |ctx, idx| ctx.sh_st(idx, vals));
        }
        let shared = Cell::from_mut(&mut self.shared[..]).as_slice_of_cells();
        scatter(shared, pieces, vals, Cell::set);
        Ok(())
    }

    /// `__syncthreads()` — every lane of the block arrives.
    pub fn sync(&mut self) {
        self.bump(|s| s.barriers += 1);
        if let Some(san) = self.san.as_mut() {
            san.barrier();
        }
    }

    /// A barrier only the given lanes reach — how divergent kernels
    /// misuse `__syncthreads()` inside non-uniform control flow. Under
    /// the sanitizer a strict subset of the block's lanes is reported
    /// as [`SanitizerViolation::BarrierDivergence`]; without it this is
    /// identical to [`BlockCtx::sync`] (the simulator cannot hang).
    pub fn sync_arrive(&mut self, arrived: &[usize]) {
        self.bump(|s| s.barriers += 1);
        if let Some(san) = self.san.as_mut() {
            san.barrier_arrive(arrived);
        }
    }

    /// Label the phase subsequent accesses belong to. Counters bumped
    /// after this call are attributed to `label` in
    /// [`KernelStats::phases`] (in addition to the totals); activity
    /// before the first call lands in
    /// [`crate::counters::PRELUDE_PHASE`].
    pub fn phase(&mut self, label: &'static str) {
        self.cur_phase = label;
        self.cur_phase_idx = self.phase_stats.iter().position(|p| p.label == label);
    }

    /// Account `n` floating-point operations (block-wide total).
    pub fn flops(&mut self, n: u64) {
        self.bump(|s| s.flops += n);
    }

    /// Counters accumulated so far (final values are returned by
    /// [`launch`]).
    pub fn stats(&self) -> &BlockStats {
        &self.stats
    }
}

/// Result of a kernel launch: functional effects live in the
/// [`GpuMemory`], performance effects here.
#[derive(Debug, Clone, PartialEq)]
pub struct LaunchResult {
    /// Kernel name (from the config).
    pub name: &'static str,
    /// Aggregated counters.
    pub stats: KernelStats,
    /// Residency achieved (from the worst block's shared footprint).
    pub occupancy: Occupancy,
    /// Shared memory per block in bytes (max over blocks).
    pub shared_bytes_per_block: usize,
    /// Echo of the launch configuration.
    pub config: LaunchConfig,
    /// Sanitizer violation reports, capped per block at
    /// [`crate::sanitizer::MAX_VIOLATIONS`]; empty when the sanitizer was off
    /// or the kernel is clean. Uncapped tallies live in
    /// `stats.total.sanitizer`.
    pub violations: Vec<SanitizerViolation>,
}

/// Launch `kernel` over `cfg.grid_blocks` blocks against `mem` with the
/// default [`ExecConfig`] (sanitizer off).
///
/// Functionally exact: after this returns, `mem` holds precisely what a
/// real device would. Counters are exact per the access-level model.
pub fn launch<S: Elem, K: BlockKernel<S>>(
    spec: &DeviceSpec,
    cfg: &LaunchConfig,
    kernel: &K,
    mem: &mut GpuMemory<'_, S>,
) -> Result<LaunchResult> {
    launch_with(spec, cfg, &ExecConfig::default(), kernel, mem)
}

/// What one block leaves behind for the launch-level merge.
struct BlockOut {
    stats: BlockStats,
    phases: Vec<PhaseStats>,
    violations: Vec<SanitizerViolation>,
}

/// Run block `block_id` of a launch in a fresh [`BlockCtx`].
fn run_block<S: Elem, K: BlockKernel<S>>(
    spec: &DeviceSpec,
    cfg: &LaunchConfig,
    exec: &ExecConfig,
    kernel: &K,
    mem: &GpuMemory<'_, S>,
    block_id: usize,
) -> Result<BlockOut> {
    let mut ctx = BlockCtx {
        block_id,
        grid_blocks: cfg.grid_blocks,
        threads: cfg.threads_per_block as usize,
        mem,
        shared: Vec::new(),
        warp_size: spec.warp_size as usize,
        transaction_bytes: spec.transaction_bytes,
        banks: spec.shared_banks,
        max_shared_bytes: spec.max_shared_per_block,
        stats: BlockStats::default(),
        cur_phase: PRELUDE_PHASE,
        cur_phase_idx: None,
        phase_stats: Vec::new(),
        san: exec.sanitize.then(|| {
            Sanitizer::new(
                cfg.name,
                block_id,
                cfg.threads_per_block as usize,
                spec.warp_size as usize,
            )
        }),
        expanded: Vec::new(),
    };
    kernel.run_block(&mut ctx)?;
    let mut out = BlockOut {
        stats: ctx.stats,
        phases: ctx.phase_stats,
        violations: Vec::new(),
    };
    if let Some(mut san) = ctx.san {
        out.stats.sanitizer = san.counts();
        out.violations = san.take_violations();
    }
    Ok(out)
}

/// Work per helper thread: a launch takes one helper for each this much
/// of its remaining blocks' time on one thread, as estimated from the
/// first block. Below it, starting a thread costs more than it saves.
const FAN_OUT_MIN_NS: u128 = 1_000_000;

/// [`launch`] with explicit [`ExecConfig`] execution options — the
/// entry point for sanitized runs.
///
/// An unchecked launch (sanitizer off) may run its
/// blocks on several host threads: block 0 runs on the calling thread
/// and is timed, and if the remaining blocks would take at least
/// 1 ms at that rate, they are shared between the calling thread and
/// one helper per estimated millisecond (at most one per remaining
/// block beyond the first), as far as the process-wide budget
/// ([`crate::par`]) has permits free. Counters, phases, per-block vectors and errors are merged in
/// block order, so the result is bit-identical to running the blocks
/// one after another; a failing launch returns the error of its lowest
/// failing block. Checked launches always run their blocks in order on
/// the calling thread, so sanitizer reports come out the same on every
/// run. Memory contents after a failed launch are
/// unspecified.
pub fn launch_with<S: Elem, K: BlockKernel<S>>(
    spec: &DeviceSpec,
    cfg: &LaunchConfig,
    exec: &ExecConfig,
    kernel: &K,
    mem: &mut GpuMemory<'_, S>,
) -> Result<LaunchResult> {
    if cfg.grid_blocks == 0 {
        return Err(SimError::InvalidLaunch("empty grid".into()));
    }
    if cfg.threads_per_block == 0 || cfg.threads_per_block > spec.max_threads_per_block {
        return Err(SimError::InvalidLaunch(format!(
            "{} threads/block unsupported (max {})",
            cfg.threads_per_block, spec.max_threads_per_block
        )));
    }

    let mut stats = KernelStats {
        blocks: cfg.grid_blocks,
        threads_per_block: cfg.threads_per_block,
        rounds_per_block: Vec::with_capacity(cfg.grid_blocks),
        flops_per_block: Vec::with_capacity(cfg.grid_blocks),
        bytes_per_block: Vec::with_capacity(cfg.grid_blocks),
        ..Default::default()
    };
    let mut shared_peak = 0usize;
    let mut violations: Vec<SanitizerViolation> = Vec::new();
    let mut merge = |mut out: BlockOut| {
        stats.merge_block_phases(&out.phases);
        let b = out.stats;
        violations.append(&mut out.violations);
        shared_peak = shared_peak.max(b.shared_bytes_peak as usize);
        stats.rounds_per_block.push(b.global_access_rounds);
        stats.flops_per_block.push(b.flops);
        stats.bytes_per_block.push(b.global_bytes());
        stats.total.merge(&b);
    };

    let mem: &GpuMemory<'_, S> = mem;
    let run = |block_id| run_block(spec, cfg, exec, kernel, mem, block_id);
    let started = Instant::now();
    merge(run(0)?);
    let rest = 1..cfg.grid_blocks;
    // One helper per `FAN_OUT_MIN_NS` of estimated remaining work; the
    // calling thread works too, so `rest.len() − 1` helpers give every
    // remaining block a thread.
    let estimated_ns = started.elapsed().as_nanos() * rest.len() as u128;
    let wanted = (estimated_ns / FAN_OUT_MIN_NS).min(rest.len().saturating_sub(1) as u128);
    let helpers = Permits::take(if exec.sanitize { 0 } else { wanted as usize });
    for_each_ordered(rest, helpers.count(), run, &mut merge)?;

    let occ = occupancy(spec, cfg.threads_per_block, shared_peak, cfg.regs_per_thread)?;
    Ok(LaunchResult {
        name: cfg.name,
        stats,
        occupancy: occ,
        shared_bytes_per_block: shared_peak,
        config: cfg.clone(),
        violations,
    })
}

#[cfg(test)]
mod tests {
    use super::*;

    /// Kernel: out[i] = in[i] * 2 over one block-sized chunk per block.
    struct DoubleKernel {
        input: BufId,
        output: BufId,
        n: usize,
    }

    impl BlockKernel<f64> for DoubleKernel {
        fn run_block(&self, ctx: &mut BlockCtx<'_, f64>) -> Result<()> {
            let base = ctx.block_id * ctx.threads;
            let count = ctx.threads.min(self.n.saturating_sub(base));
            if count == 0 {
                return Ok(());
            }
            let idx: Vec<usize> = (base..base + count).collect();
            let mut vals = Vec::new();
            ctx.ld(self.input, &idx, &mut vals)?;
            for v in &mut vals {
                *v *= 2.0;
            }
            ctx.flops(count as u64);
            ctx.st(self.output, &idx, &vals)?;
            Ok(())
        }
    }

    fn gtx480() -> DeviceSpec {
        DeviceSpec::gtx480()
    }

    #[test]
    fn functional_result_exact() {
        let mut mem = GpuMemory::new();
        let n = 1000;
        let input = mem.alloc_from((0..n).map(|i| i as f64).collect());
        let output = mem.alloc(n);
        let cfg = LaunchConfig::new("double", n.div_ceil(256), 256);
        let k = DoubleKernel { input, output, n };
        let res = launch(&gtx480(), &cfg, &k, &mut mem).unwrap();
        let out = mem.read(output).unwrap();
        for (i, v) in out.iter().enumerate().take(n) {
            assert_eq!(*v, 2.0 * i as f64);
        }
        assert_eq!(res.stats.blocks, 4);
        assert_eq!(res.stats.total.flops, n as u64);
    }

    #[test]
    fn coalesced_traffic_counts() {
        let mut mem = GpuMemory::new();
        let n = 256;
        let input = mem.alloc_from(vec![1.0f64; n]);
        let output = mem.alloc(n);
        let cfg = LaunchConfig::new("double", 1, 256);
        let k = DoubleKernel { input, output, n };
        let res = launch(&gtx480(), &cfg, &k, &mut mem).unwrap();
        // 256 aligned f64 lanes = 8 warps × 2 segments, for ld and st.
        assert_eq!(res.stats.total.global_load_transactions, 16);
        assert_eq!(res.stats.total.global_store_transactions, 16);
        assert_eq!(res.stats.total.global_load_bytes, 2048);
        assert_eq!(res.stats.total.global_access_rounds, 2);
        assert!((res.stats.total.coalescing_efficiency(128) - 1.0).abs() < 1e-12);
    }

    /// Kernel demonstrating strided (uncoalesced) access.
    struct StridedKernel {
        input: BufId,
        stride: usize,
    }
    impl BlockKernel<f64> for StridedKernel {
        fn run_block(&self, ctx: &mut BlockCtx<'_, f64>) -> Result<()> {
            let idx: Vec<usize> = (0..ctx.threads).map(|t| t * self.stride).collect();
            let mut vals = Vec::new();
            ctx.ld(self.input, &idx, &mut vals)?;
            Ok(())
        }
    }

    #[test]
    fn strided_access_blows_up_transactions() {
        let mut mem = GpuMemory::new();
        let input = mem.alloc(32 * 64);
        let cfg = LaunchConfig::new("strided", 1, 32);
        let res = launch(
            &gtx480(),
            &cfg,
            &StridedKernel { input, stride: 64 },
            &mut mem,
        )
        .unwrap();
        assert_eq!(res.stats.total.global_load_transactions, 32);
        assert!(res.stats.total.coalescing_efficiency(128) < 0.07);
    }

    /// Kernel exercising shared memory and barriers.
    struct SharedReverse {
        buf: BufId,
    }
    impl BlockKernel<f64> for SharedReverse {
        fn run_block(&self, ctx: &mut BlockCtx<'_, f64>) -> Result<()> {
            let t = ctx.threads;
            let sh = ctx.shared_alloc(t)?;
            let idx: Vec<usize> = (0..t).collect();
            let mut vals = Vec::new();
            ctx.ld(self.buf, &idx, &mut vals)?;
            let sh_idx: Vec<usize> = idx.iter().map(|i| sh + i).collect();
            ctx.sh_st(&sh_idx, &vals)?;
            ctx.sync();
            let rev: Vec<usize> = (0..t).map(|i| sh + t - 1 - i).collect();
            ctx.sh_ld(&rev, &mut vals)?;
            ctx.st(self.buf, &idx, &vals)?;
            Ok(())
        }
    }

    #[test]
    fn shared_memory_and_barriers() {
        let mut mem = GpuMemory::new();
        let buf = mem.alloc_from((0..64).map(|i| i as f64).collect());
        let cfg = LaunchConfig::new("rev", 1, 64);
        let res = launch(&gtx480(), &cfg, &SharedReverse { buf }, &mut mem).unwrap();
        let out = mem.read(buf).unwrap();
        for (i, v) in out.iter().enumerate().take(64) {
            assert_eq!(*v, (63 - i) as f64);
        }
        assert_eq!(res.stats.total.barriers, 1);
        assert_eq!(res.stats.total.shared_accesses, 2);
        assert_eq!(res.shared_bytes_per_block, 64 * 8);
        // f64 stride-1: 2-way conflicts on both store and reversed load.
        assert!(res.stats.total.bank_conflict_replays > 0);
    }

    /// Kernel with explicit phases around the SharedReverse structure.
    struct PhasedReverse {
        buf: BufId,
    }
    impl BlockKernel<f64> for PhasedReverse {
        fn run_block(&self, ctx: &mut BlockCtx<'_, f64>) -> Result<()> {
            let t = ctx.threads;
            let sh = ctx.shared_alloc(t)?; // before any phase() → prelude
            let idx: Vec<usize> = (0..t).collect();
            let mut vals = Vec::new();
            ctx.phase("load");
            ctx.ld(self.buf, &idx, &mut vals)?;
            let sh_idx: Vec<usize> = idx.iter().map(|i| sh + i).collect();
            ctx.sh_st(&sh_idx, &vals)?;
            ctx.sync();
            ctx.phase("store");
            let rev: Vec<usize> = (0..t).map(|i| sh + t - 1 - i).collect();
            ctx.sh_ld(&rev, &mut vals)?;
            ctx.flops(t as u64);
            ctx.st(self.buf, &idx, &vals)?;
            Ok(())
        }
    }

    #[test]
    fn phase_labels_split_counters_exactly() {
        let mut mem = GpuMemory::new();
        let buf = mem.alloc_from((0..64).map(|i| i as f64).collect());
        let cfg = LaunchConfig::new("phased", 2, 32);
        let res = launch(&gtx480(), &cfg, &PhasedReverse { buf }, &mut mem).unwrap();
        let labels: Vec<_> = res.stats.phases.iter().map(|p| p.label).collect();
        assert_eq!(labels, vec![PRELUDE_PHASE, "load", "store"]);
        let prelude = &res.stats.phases[0].stats;
        assert_eq!(prelude.shared_bytes_peak, 32 * 8);
        assert_eq!(prelude.global_access_rounds, 0);
        let load = &res.stats.phases[1].stats;
        assert_eq!(load.global_load_transactions, res.stats.total.global_load_transactions);
        assert_eq!(load.barriers, res.stats.total.barriers);
        assert_eq!(load.flops, 0);
        let store = &res.stats.phases[2].stats;
        assert_eq!(store.flops, res.stats.total.flops);
        assert_eq!(store.global_store_bytes, res.stats.total.global_store_bytes);
        assert_eq!(res.stats.phase_sum_mismatches(), Vec::<String>::new());
    }

    #[test]
    fn unphased_kernel_lands_in_prelude() {
        let mut mem = GpuMemory::new();
        let n = 256;
        let input = mem.alloc_from(vec![1.0f64; n]);
        let output = mem.alloc(n);
        let cfg = LaunchConfig::new("double", 1, 256);
        let k = DoubleKernel { input, output, n };
        let res = launch(&gtx480(), &cfg, &k, &mut mem).unwrap();
        assert_eq!(res.stats.phases.len(), 1);
        assert_eq!(res.stats.phases[0].label, PRELUDE_PHASE);
        assert_eq!(res.stats.phases[0].stats, res.stats.total);
        assert_eq!(res.stats.phase_sum_mismatches(), Vec::<String>::new());
    }

    #[test]
    fn out_of_bounds_detected() {
        let mut mem = GpuMemory::new();
        let input = mem.alloc(8);
        let cfg = LaunchConfig::new("oob", 1, 32);
        let err = launch(
            &gtx480(),
            &cfg,
            &StridedKernel { input, stride: 2 },
            &mut mem,
        )
        .unwrap_err();
        assert!(matches!(err, SimError::GlobalOutOfBounds { .. }));
    }

    #[test]
    fn accesses_wider_than_the_block_are_rejected() {
        /// 300 lanes of shared memory in a 64-thread block, through the
        /// slice or the affine entry point.
        struct Wide {
            affine: bool,
        }
        impl BlockKernel<f64> for Wide {
            fn run_block(&self, ctx: &mut BlockCtx<'_, f64>) -> Result<()> {
                let base = ctx.shared_alloc(300)?;
                let mut vals = Vec::new();
                if self.affine {
                    let mut lanes = crate::lanes::Lanes::new();
                    lanes.push(base, 1, 300);
                    ctx.sh_ld_affine(lanes.pieces(), &mut vals)
                } else {
                    let idx: Vec<usize> = (base..base + 300).collect();
                    ctx.sh_ld(&idx, &mut vals)
                }
            }
        }
        for affine in [false, true] {
            let mut mem = GpuMemory::<f64>::new();
            let cfg = LaunchConfig::new("wide", 1, 64);
            let err = launch(&gtx480(), &cfg, &Wide { affine }, &mut mem).unwrap_err();
            assert!(
                matches!(err, SimError::InvalidLaunch(_)),
                "affine={affine}: {err:?}"
            );
        }
    }

    /// Every access shape through both entry points: unit, strided,
    /// broadcast, negative-stride and multi-piece lanes, global and
    /// shared, loads and stores, with partial warps.
    struct Shapes {
        input: BufId,
        output: BufId,
        affine: bool,
    }
    impl BlockKernel<f64> for Shapes {
        fn run_block(&self, ctx: &mut BlockCtx<'_, f64>) -> Result<()> {
            let sh = ctx.shared_alloc(512)?;
            let off = ctx.block_id * 7;
            let runs: [&[(usize, i64, usize)]; 5] = [
                &[(off, 1, 100)],
                &[(off + 3, 3, 45)],
                &[(off + 9, 0, 40)],
                &[(off + 200, -2, 70)],
                &[
                    (off, 1, 5),
                    (off + 64, 16, 20),
                    (off + 40, 1, 30),
                    (off + 7, 0, 3),
                ],
            ];
            let mut lanes = crate::lanes::Lanes::new();
            let mut idx = Vec::new();
            let mut vals = Vec::new();
            for (i, shape) in runs.iter().enumerate() {
                ctx.phase(["a", "b", "a", "c", "b"][i]);
                lanes.clear();
                for &(base, stride, count) in *shape {
                    lanes.push(base, stride, count);
                }
                crate::lanes::expand(lanes.pieces(), &mut idx);
                let sh_idx: Vec<usize> = idx.iter().map(|&e| sh + e).collect();
                let mut sh_lanes = crate::lanes::Lanes::new();
                for p in lanes.pieces() {
                    sh_lanes.push(sh + p.base as usize, p.stride, p.lanes);
                }
                if self.affine {
                    ctx.ld_affine(self.input, lanes.pieces(), &mut vals)?;
                    ctx.sh_st_affine(sh_lanes.pieces(), &vals)?;
                    ctx.sync();
                    ctx.sh_ld_affine(sh_lanes.pieces(), &mut vals)?;
                    ctx.st_affine(self.output, lanes.pieces(), &vals)?;
                } else {
                    ctx.ld(self.input, &idx, &mut vals)?;
                    ctx.sh_st(&sh_idx, &vals)?;
                    ctx.sync();
                    ctx.sh_ld(&sh_idx, &mut vals)?;
                    ctx.st(self.output, &idx, &vals)?;
                }
                ctx.sync();
            }
            Ok(())
        }
    }

    #[test]
    fn affine_entry_points_match_the_slice_forms() {
        let spec = gtx480();
        let run = |affine: bool, exec: ExecConfig| {
            let mut mem = GpuMemory::<f64>::new();
            let input = mem.alloc_from((0..400).map(|i| i as f64 * 0.5).collect());
            let output = mem.alloc(400);
            let cfg = LaunchConfig::new("shapes", 3, 128);
            let k = Shapes {
                input,
                output,
                affine,
            };
            let res = launch_with(&spec, &cfg, &exec, &k, &mut mem).unwrap();
            let init: Vec<bool> = (0..400).map(|i| mem.is_word_init(output, i)).collect();
            (res.stats, mem.read(output).unwrap(), init)
        };
        let reference = run(false, ExecConfig::default());
        assert!(reference.0.total.bank_conflict_replays > 0);
        assert!(reference.0.total.bank_conflict_degree_peak > 2);
        assert!(reference.0.total.uncoalesced_global_accesses > 0);
        assert_eq!(run(true, ExecConfig::default()), reference);
        assert_eq!(
            run(true, ExecConfig::sanitized()),
            run(false, ExecConfig::sanitized())
        );
    }

    #[test]
    fn affine_out_of_bounds_matches_the_slice_error() {
        struct Oob {
            input: BufId,
            affine: bool,
        }
        impl BlockKernel<f64> for Oob {
            fn run_block(&self, ctx: &mut BlockCtx<'_, f64>) -> Result<()> {
                let mut vals = Vec::new();
                if self.affine {
                    let mut lanes = crate::lanes::Lanes::new();
                    lanes.push(4, 3, 8);
                    ctx.ld_affine(self.input, lanes.pieces(), &mut vals)
                } else {
                    let idx: Vec<usize> = (0..8).map(|x| 4 + 3 * x).collect();
                    ctx.ld(self.input, &idx, &mut vals)
                }
            }
        }
        let errs: Vec<SimError> = [false, true]
            .into_iter()
            .map(|affine| {
                let mut mem = GpuMemory::<f64>::new();
                let input = mem.alloc_from(vec![1.0; 20]);
                let cfg = LaunchConfig::new("oob", 1, 32);
                launch(&gtx480(), &cfg, &Oob { input, affine }, &mut mem).unwrap_err()
            })
            .collect();
        assert_eq!(errs[0], errs[1]);
        assert!(matches!(
            errs[0],
            SimError::GlobalOutOfBounds { index: 22, .. }
        ));
    }

    #[test]
    fn a_parallel_launch_returns_the_lowest_failing_blocks_error() {
        use std::sync::atomic::{AtomicBool, Ordering::SeqCst};
        use std::time::{Duration, Instant};
        /// Blocks 3 and 7 fail. Block 0 runs long enough for the rest to
        /// fan out, and block 3 waits (boundedly) for block 7 to fail
        /// first, so on several threads the higher error comes first.
        struct FailsAt3And7 {
            seven_failed: AtomicBool,
        }
        impl BlockKernel<f64> for FailsAt3And7 {
            fn run_block(&self, ctx: &mut BlockCtx<'_, f64>) -> Result<()> {
                ctx.flops(1);
                match ctx.block_id {
                    0 => std::thread::sleep(Duration::from_millis(2)),
                    3 => {
                        let t = Instant::now();
                        while !self.seven_failed.load(SeqCst)
                            && t.elapsed() < Duration::from_millis(200)
                        {
                            std::thread::yield_now();
                        }
                    }
                    7 => self.seven_failed.store(true, SeqCst),
                    _ => {}
                }
                match ctx.block_id {
                    3 | 7 => Err(SimError::KernelFault(format!("block {}", ctx.block_id))),
                    _ => Ok(()),
                }
            }
        }
        for exec in [ExecConfig::default(), ExecConfig::sanitized()] {
            let mut mem = GpuMemory::<f64>::new();
            let cfg = LaunchConfig::new("fails", 16, 32);
            let k = FailsAt3And7 {
                seven_failed: AtomicBool::new(false),
            };
            let err = launch_with(&gtx480(), &cfg, &exec, &k, &mut mem).unwrap_err();
            assert_eq!(err, SimError::KernelFault("block 3".into()), "{exec:?}");
        }
    }

    #[test]
    fn shared_overflow_detected() {
        struct Hog;
        impl BlockKernel<f64> for Hog {
            fn run_block(&self, ctx: &mut BlockCtx<'_, f64>) -> Result<()> {
                ctx.shared_alloc(7000)?; // 56 KB > 48 KB
                Ok(())
            }
        }
        let mut mem = GpuMemory::<f64>::new();
        let cfg = LaunchConfig::new("hog", 1, 32);
        assert!(matches!(
            launch(&gtx480(), &cfg, &Hog, &mut mem).unwrap_err(),
            SimError::SharedOverflow { .. }
        ));
    }

    #[test]
    fn launch_validation() {
        let mut mem = GpuMemory::<f64>::new();
        let input = mem.alloc(32);
        let k = StridedKernel { input, stride: 1 };
        assert!(launch(&gtx480(), &LaunchConfig::new("x", 0, 32), &k, &mut mem).is_err());
        assert!(launch(&gtx480(), &LaunchConfig::new("x", 1, 0), &k, &mut mem).is_err());
        assert!(launch(&gtx480(), &LaunchConfig::new("x", 1, 2048), &k, &mut mem).is_err());
    }

    #[test]
    fn memory_arena_tracks_resident_and_peak_bytes() {
        let mut mem = GpuMemory::<f64>::new();
        assert_eq!(mem.resident_bytes(), 0);
        let a = mem.alloc(100); // 800 bytes
        let b = mem.alloc_from(vec![0.0; 50]); // +400 = 1200
        assert_eq!(mem.resident_bytes(), 1200);
        assert_eq!(mem.peak_resident_bytes(), 1200);
        mem.free(a).unwrap();
        assert_eq!(mem.resident_bytes(), 400);
        assert_eq!(mem.peak_resident_bytes(), 1200, "peak is a high-water mark");
        let c = mem.alloc(25); // +200 = 600, below the old peak
        assert_eq!(mem.resident_bytes(), 600);
        assert_eq!(mem.peak_resident_bytes(), 1200);
        // Freed ids stay stable: the slot is kept, reads see length 0.
        assert_eq!(mem.len(a).unwrap(), 0);
        assert_ne!(b, c);
        // Double-free is harmless; freeing a bogus id is a typed error.
        mem.free(a).unwrap();
        assert!(mem.free(BufId(99)).is_err());
        assert_eq!(mem.resident_bytes(), 600);
    }

    #[test]
    fn memory_arena_host_ops() {
        let mut mem = GpuMemory::<f32>::new();
        assert!(mem.is_empty());
        let a = mem.alloc(4);
        assert_eq!(mem.len(a).unwrap(), 4);
        mem.write(a, &[1.0, 2.0, 3.0, 4.0]).unwrap();
        assert_eq!(mem.read(a).unwrap(), &[1.0, 2.0, 3.0, 4.0]);
        assert!(mem.write(a, &[1.0]).is_err());
        assert!(mem.read(BufId(9)).is_err());
    }

    /// Copies `input` to `output` over one block-sized chunk per block,
    /// with unit-stride affine pieces (`affine`) or index slices.
    struct CopyKernel {
        input: BufId,
        output: BufId,
        n: usize,
        affine: bool,
    }

    impl BlockKernel<f64> for CopyKernel {
        fn run_block(&self, ctx: &mut BlockCtx<'_, f64>) -> Result<()> {
            let base = ctx.block_id * ctx.threads;
            let lanes = ctx.threads.min(self.n - base);
            let mut vals = Vec::new();
            if self.affine {
                let piece = [AffinePiece {
                    lane0: 0,
                    lanes,
                    base: base as i64,
                    stride: 1,
                }];
                ctx.ld_affine(self.input, &piece, &mut vals)?;
                ctx.st_affine(self.output, &piece, &vals)
            } else {
                let idx: Vec<usize> = (base..base + lanes).collect();
                ctx.ld(self.input, &idx, &mut vals)?;
                ctx.st(self.output, &idx, &vals)
            }
        }
    }

    #[test]
    fn borrowed_buffers_read_the_host_array_and_count_like_owned_ones() {
        let host: Vec<f64> = (0..300).map(|i| i as f64 * 0.5).collect();
        let cfg = LaunchConfig::new("copy", 2, 256);
        for exec in [ExecConfig::default(), ExecConfig::sanitized()] {
            for affine in [false, true] {
                let run = |borrow: bool| {
                    let mut mem = GpuMemory::new();
                    let input = if borrow {
                        mem.borrow(&host)
                    } else {
                        mem.alloc_from(host.clone())
                    };
                    let output = mem.alloc(host.len());
                    assert_eq!(mem.resident_bytes(), 2 * host.len() * 8);
                    let k = CopyKernel {
                        input,
                        output,
                        n: host.len(),
                        affine,
                    };
                    let res = launch_with(&gtx480(), &cfg, &exec, &k, &mut mem).unwrap();
                    assert!(res.violations.is_empty(), "{:?}", res.violations);
                    assert_eq!(mem.read(input).unwrap(), host);
                    assert_eq!(mem.take(input).unwrap(), host);
                    assert_eq!(mem.resident_bytes(), host.len() * 8);
                    (mem.read(output).unwrap(), res.stats)
                };
                let (owned_out, owned_stats) = run(false);
                let (borrowed_out, borrowed_stats) = run(true);
                assert_eq!(borrowed_out, host);
                assert_eq!(borrowed_out, owned_out);
                assert_eq!(borrowed_stats, owned_stats, "affine = {affine}");
            }
        }
    }

    #[test]
    fn stores_to_a_borrowed_buffer_are_typed_errors() {
        let host = vec![1.0f64; 64];
        let cfg = LaunchConfig::new("copy", 1, 64);
        for exec in [ExecConfig::default(), ExecConfig::sanitized()] {
            for affine in [false, true] {
                let mut mem = GpuMemory::new();
                let input = mem.alloc_from(vec![2.0; 64]);
                let output = mem.borrow(&host);
                let k = CopyKernel {
                    input,
                    output,
                    n: 64,
                    affine,
                };
                let err = launch_with(&gtx480(), &cfg, &exec, &k, &mut mem).unwrap_err();
                assert_eq!(err, SimError::ReadOnlyBuffer { buffer: output.0 });
                assert_eq!(
                    mem.read(output).unwrap(),
                    host,
                    "the host array is untouched"
                );
            }
        }
        let mut mem = GpuMemory::new();
        let id = mem.borrow(&host);
        assert_eq!(
            mem.write(id, &host).unwrap_err(),
            SimError::ReadOnlyBuffer { buffer: id.0 }
        );
        assert!(
            mem.is_word_init(id, 63),
            "a borrowed array is fully initialized"
        );
    }
}

#[cfg(test)]
mod shared_slice_tests {
    use super::*;

    /// `shared_slice` exposes the functional content for serial phases
    /// whose traffic was already accounted by the vector ops.
    struct PeekKernel {
        buf: BufId,
    }
    impl BlockKernel<f64> for PeekKernel {
        fn run_block(&self, ctx: &mut BlockCtx<'_, f64>) -> Result<()> {
            let base = ctx.shared_alloc(4)?;
            ctx.sh_st(&[base, base + 1, base + 2, base + 3], &[1.0, 2.0, 3.0, 4.0])?;
            let sum: f64 = ctx.shared_slice()[base..base + 4].iter().sum();
            ctx.st(self.buf, &[0], &[sum])?;
            Ok(())
        }
    }

    #[test]
    fn shared_slice_reads_functional_state() {
        let mut mem = GpuMemory::new();
        let buf = mem.alloc(1);
        let cfg = LaunchConfig::new("peek", 1, 32);
        launch(&DeviceSpec::gtx480(), &cfg, &PeekKernel { buf }, &mut mem).unwrap();
        assert_eq!(mem.read(buf).unwrap()[0], 10.0);
    }
}
