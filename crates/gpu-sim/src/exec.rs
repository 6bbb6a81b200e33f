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
//! A kernel that moves data itself counts the accesses apart from the
//! move. In shared memory, [`BlockCtx::sh_account`] counts a group of
//! them (one lane shape at several shifts) exactly as the per-access
//! calls would, [`BlockCtx::sh_account_group`] applies a repeated
//! group's count again without recounting it, and
//! [`BlockCtx::shared_slice_mut`] is the data path. In global memory,
//! [`BlockCtx::global_account`] is the same group count — once per
//! alignment class of the shifts on the transaction-segment grid — and
//! the views [`BlockCtx::global_read`] and [`BlockCtx::global_write`]
//! are the data path. Every counted access must be one the data path
//! performs; checked launches hand each of them to the sanitizer. A
//! loop whose steps repeat a few shapes counts each shape once, with
//! [`BlockCtx::count_repeated`], and [`BlockCtx::segment_class`] is the
//! alignment class that tells two global runs' counts apart. Across the
//! blocks of one launch, [`BlockCtx::count_once`] is the same idea: a
//! count that many blocks repeat is made once per distinct key the
//! kernel gives it, recorded in a memo that lives as long as the
//! launch, and applied to every other block with that key.
//!
//! Blocks are independent, as CUDA requires: CUDA guarantees nothing
//! about cross-block ordering within a launch, and no kernel in this
//! workspace communicates across blocks. An unchecked launch therefore
//! runs its blocks on several host threads when they are long enough
//! to pay for it ([`launch_with`]), against a global memory of atomic
//! cells ([`Elem::Cell`]) and read-only borrowed host arrays, used in
//! place as they are ([`GpuMemory::borrow`]) or transposed
//! ([`GpuMemory::borrow_transposed`], an upload with a change of
//! layout that copies nothing); each block counts into its own
//! [`BlockCtx`], and the launch merges the blocks' counters, phases,
//! per-block vectors and errors in block order. Checked launches run
//! their blocks one after another. Determinism is total — every run of
//! a kernel produces identical results *and* identical counters,
//! however many threads ran it.

use crate::counters::{BlockStats, KernelStats, PhaseStats, PRELUDE_PHASE};
use crate::error::{Result, SimError};
use crate::lanes::{expand, AffinePiece, Lanes};
use crate::memory::{
    access_conflict_cycles, access_transactions, access_uncoalesced, shared_conflict_cycles,
    uncoalesced, warp_transactions, InitMask,
};
use crate::occupancy::{occupancy, Occupancy};
use crate::par::{for_each_ordered, Permits};
use crate::sanitizer::{MemSpace, Sanitizer, SanitizerViolation};
use crate::spec::DeviceSpec;
use std::cell::Cell;
use std::collections::HashMap;
use std::fmt::Debug;
use std::sync::atomic::Ordering::Relaxed;
use std::sync::atomic::{AtomicU32, AtomicU64};
use std::sync::{Arc, Mutex, OnceLock, PoisonError};
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
    Owned(Cells<S>),
    /// The caller's host array, used in place ("a `const` device
    /// pointer"), as is or transposed: loads read it, stores are a
    /// typed error.
    Borrowed(HostArray<'h, S>),
}

impl<S: Elem> Storage<'_, S> {
    fn len(&self) -> usize {
        match self {
            Storage::Owned(cells) => cells.len,
            Storage::Borrowed(host) => host.data.len(),
        }
    }
}

/// The cells of an owned buffer of `len` elements, materialized —
/// zero-filled — on the first store, so a buffer no store reaches never
/// touches host memory. Until then every element reads as zero. The
/// [`OnceLock`] lets the blocks of a launch, on several host threads,
/// race to the first store through a shared reference: one fills the
/// cells, the others wait for it.
#[derive(Debug)]
struct Cells<S: Elem> {
    len: usize,
    cells: OnceLock<Vec<S::Cell>>,
}

impl<S: Elem> Cells<S> {
    /// `len` elements, not materialized.
    fn lazy(len: usize) -> Self {
        Self {
            len,
            cells: OnceLock::new(),
        }
    }

    /// Cells already materialized.
    fn from_cells(cells: Vec<S::Cell>) -> Self {
        Self {
            len: cells.len(),
            cells: OnceLock::from(cells),
        }
    }

    /// The cells, or `None` while nothing has been stored.
    #[inline]
    fn get(&self) -> Option<&[S::Cell]> {
        self.cells.get().map(Vec::as_slice)
    }

    /// The cells, zero-filled first if nothing has been stored yet.
    fn materialized(&self) -> &[S::Cell] {
        self.cells
            .get_or_init(|| (0..self.len).map(|_| S::default().into_cell()).collect())
    }

    /// Element `i` (in bounds).
    #[inline]
    fn load(&self, i: usize) -> S {
        self.get().map_or(S::default(), |cells| S::load(&cells[i]))
    }

    /// Every element, moved out.
    fn into_vec(self) -> Vec<S> {
        match self.cells.into_inner() {
            Some(cells) => cells.into_iter().map(|c| S::load(&c)).collect(),
            None => vec![S::default(); self.len],
        }
    }

    /// Every element, copied.
    fn to_vec(&self) -> Vec<S> {
        match self.get() {
            Some(cells) => cells.iter().map(S::load).collect(),
            None => vec![S::default(); self.len],
        }
    }
}

impl<S: Elem> Clone for Cells<S> {
    /// A copy, materialized only if `self` is.
    fn clone(&self) -> Self {
        match self.get() {
            Some(cells) => Self::from_cells(cells.iter().map(|c| S::load(c).into_cell()).collect()),
            None => Self::lazy(self.len),
        }
    }
}

/// A borrowed host array seen as a `rows × cols` row-major device
/// buffer whose host copy is stored column by column: device element
/// `r·cols + c` is `data[c·rows + r]`. A plain borrow is the one-row
/// case, where device element `i` is `data[i]`; any other shape is the
/// transpose a change of layout would have copied.
#[derive(Debug, Clone, Copy)]
struct HostArray<'h, S> {
    data: &'h [S],
    rows: usize,
    cols: usize,
}

impl<S: Copy> HostArray<'_, S> {
    /// Device element `i`.
    #[inline]
    fn get(&self, i: usize) -> S {
        if self.rows == 1 {
            self.data[i]
        } else {
            self.data[(i % self.cols) * self.rows + i / self.cols]
        }
    }

    /// Device elements `start..start + out.len()` into `out`.
    fn copy_to(&self, start: usize, out: &mut [S]) {
        if self.rows == 1 {
            return out.copy_from_slice(&self.data[start..start + out.len()]);
        }
        let (mut r, mut c) = (start / self.cols, start % self.cols);
        let mut out = out;
        while !out.is_empty() {
            // The rest of device row `r` is a column of the host array.
            let split = (self.cols - c).min(out.len());
            let (head, rest) = std::mem::take(&mut out).split_at_mut(split);
            let column = self.data[c * self.rows + r..].iter().step_by(self.rows);
            for (o, &v) in head.iter_mut().zip(column) {
                *o = v;
            }
            (out, r, c) = (rest, r + 1, 0);
        }
    }

    /// [`GlobalRead::copy_rows`]. A block of whole device rows of a
    /// transpose is a run of host columns, each read contiguously.
    fn copy_rows(&self, start: usize, pitch: usize, len: usize, out: &mut [S]) {
        let (r0, c0) = (start / self.cols, start % self.cols);
        if self.rows == 1 || pitch != self.cols || c0 + len > self.cols {
            for (k, run) in out.chunks_exact_mut(len).enumerate() {
                self.copy_to(start + k * pitch, run);
            }
            return;
        }
        let height = out.len() / len;
        for j in 0..len {
            let column = &self.data[(c0 + j) * self.rows + r0..][..height];
            for (o, &v) in out[j..].iter_mut().step_by(len).zip(column) {
                *o = v;
            }
        }
    }

    /// The whole buffer in device order.
    fn device_order(&self) -> Vec<S> {
        let mut out = self.data.to_vec();
        if self.rows > 1 {
            self.copy_to(0, &mut out);
        }
        out
    }
}

/// Simulated device global memory: an arena of typed buffers.
///
/// A buffer either owns its elements, each in an atomic cell
/// ([`Elem::Cell`]) so a launch's blocks can run on several host
/// threads against a shared `&GpuMemory`, or borrows a read-only host
/// array for the arena's lifetime `'h`, as it is
/// ([`GpuMemory::borrow`]) or transposed
/// ([`GpuMemory::borrow_transposed`]), which is how an upload costs no
/// copy with or without a change of layout. Stores to a borrowed
/// buffer fail with [`SimError::ReadOnlyBuffer`]. Every
/// buffer carries a word-granular [`InitMask`] shadow recording which
/// elements have ever been written — by a kernel store or a host
/// upload. The sanitizer's initcheck reads it; maintenance is cheap
/// enough to run unconditionally, so the shadow stays accurate even
/// when only some launches are sanitized.
///
/// An owned buffer is allocated lazily ([`Self::alloc`]): its bytes
/// count as resident at once, but host memory is touched only by its
/// first store. A kernel's launch-private scratch
/// ([`BlockKernel::scratch`]) goes back to that state when the launch
/// returns, so scratch a launch never stores to never costs host
/// memory at all.
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
                    Storage::Owned(cells) => Storage::Owned(cells.clone()),
                    Storage::Borrowed(host) => Storage::Borrowed(*host),
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
    /// `cudaMalloc`, whose contents are undefined. Its bytes are
    /// resident at once, but it touches no host memory until its first
    /// store (`st`, `st_affine`, [`GlobalWrite::store`] or
    /// [`Self::write`]) fills it with zeros; until then loads,
    /// [`Self::read`], [`Self::take`] and `clone` see zeros without
    /// filling it, and a clone stays unfilled.
    pub fn alloc(&mut self, len: usize) -> BufId {
        self.push(Storage::Owned(Cells::lazy(len)), InitMask::uninit(len))
    }

    /// Upload host data ("cudaMemcpy host→device"); fully initialized.
    /// The vector's allocation becomes the buffer's storage.
    pub fn alloc_from(&mut self, data: Vec<S>) -> BufId {
        let cells = data.into_iter().map(S::into_cell).collect();
        self.push(Storage::Owned(Cells::from_cells(cells)), InitMask::Full)
    }

    /// Upload a host array without copying it: the buffer reads `data`
    /// in place for the arena's lifetime. It is fully initialized and
    /// counts its bytes as resident exactly like [`Self::alloc_from`],
    /// but it is read-only — a kernel or host store into it fails with
    /// [`SimError::ReadOnlyBuffer`].
    pub fn borrow(&mut self, data: &'h [S]) -> BufId {
        let host = HostArray {
            data,
            rows: 1,
            cols: data.len(),
        };
        self.push(Storage::Borrowed(host), InitMask::Full)
    }

    /// Upload the transpose of a host array without copying it: a
    /// read-only buffer, like [`Self::borrow`], that holds a `rows ×
    /// cols` row-major matrix whose host copy `data` is stored column
    /// by column — device element `r·cols + c` reads `data[c·rows +
    /// r]`. Uploading with a change of layout is this view: the
    /// interleaved element `(sys, row)` of `m` systems of `n` rows is
    /// the contiguous host element, with `rows = n, cols = m`, and the
    /// other way round with `rows = m, cols = n`. Every access, checked
    /// or not, and [`Self::read`], [`Self::take`] and `clone` read
    /// through the transpose. A [`SimError::LaneMismatch`] unless
    /// `data` holds `rows·cols` elements.
    pub fn borrow_transposed(&mut self, data: &'h [S], rows: usize, cols: usize) -> Result<BufId> {
        if rows * cols != data.len() {
            return Err(SimError::LaneMismatch {
                indices: rows * cols,
                values: data.len(),
            });
        }
        let host = HostArray { data, rows, cols };
        Ok(self.push(Storage::Borrowed(host), InitMask::Full))
    }

    /// Drop a buffer's storage and take its bytes out of the resident
    /// set, keeping its index slot; returns the storage.
    fn release(&mut self, id: BufId) -> Result<Storage<'h, S>> {
        let buf = self
            .buffers
            .get_mut(id.0)
            .ok_or(SimError::BadBuffer { buffer: id.0 })?;
        let storage = std::mem::replace(buf, Storage::Owned(Cells::lazy(0)));
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
    /// copy of its host array in device order.
    pub fn take(&mut self, id: BufId) -> Result<Vec<S>> {
        Ok(match self.release(id)? {
            Storage::Owned(cells) => cells.into_vec(),
            Storage::Borrowed(host) => host.device_order(),
        })
    }

    /// Return the owned buffer `id` to the state [`Self::alloc`] leaves
    /// it in — unfilled and uninitialized — keeping its bytes resident:
    /// the end of a launch's private scratch.
    fn discard(&mut self, id: BufId) {
        if let Some(Storage::Owned(cells)) = self.buffers.get_mut(id.0) {
            let len = cells.len;
            *cells = Cells::lazy(len);
            self.init[id.0] = InitMask::uninit(len);
        }
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
    fn writable(&self, id: BufId) -> Result<&Cells<S>> {
        match self.storage(id)? {
            Storage::Owned(cells) => Ok(cells),
            Storage::Borrowed(_) => Err(SimError::ReadOnlyBuffer { buffer: id.0 }),
        }
    }

    /// Read back a buffer ("cudaMemcpy device→host").
    pub fn read(&self, id: BufId) -> Result<Vec<S>> {
        Ok(match self.storage(id)? {
            Storage::Owned(cells) => cells.to_vec(),
            Storage::Borrowed(host) => host.device_order(),
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
        if buf.len != data.len() {
            return Err(SimError::LaneMismatch {
                indices: buf.len,
                values: data.len(),
            });
        }
        match buf.get() {
            Some(cells) => cells.iter().zip(data).for_each(|(c, &v)| S::store(c, v)),
            None => {
                let cells = data.iter().map(|&v| v.into_cell()).collect();
                self.buffers[id.0] = Storage::Owned(Cells::from_cells(cells));
            }
        }
        self.init[id.0] = InitMask::Full;
        Ok(())
    }

    /// `out` replaced by buffer `buf` (owned or borrowed) read at every
    /// lane of `pieces` (all in bounds).
    fn gather(&self, buf: BufId, pieces: &[AffinePiece], out: &mut Vec<S>) {
        match &self.buffers[buf.0] {
            Storage::Owned(cells) => match cells.get() {
                Some(cells) => gather(cells, pieces, out, S::load),
                None => {
                    out.clear();
                    out.resize(pieces.iter().map(|p| p.lanes).sum(), S::default());
                }
            },
            Storage::Borrowed(host) if host.rows == 1 => gather(host.data, pieces, out, |&v| v),
            Storage::Borrowed(host) => {
                out.clear();
                for p in pieces {
                    let len = out.len();
                    if p.stride == 1 {
                        out.resize(len + p.lanes, S::default());
                        host.copy_to(p.base as usize, &mut out[len..]);
                    } else {
                        out.extend((0..p.lanes).map(|x| host.get(p.elem(x) as usize)));
                    }
                }
            }
        }
    }

    /// Write `vals` (one per lane, all in bounds) to the owned buffer
    /// `buf` at every lane of `pieces`, in lane order, marking each
    /// written element initialized.
    fn scatter(&self, buf: BufId, pieces: &[AffinePiece], vals: &[S]) -> Result<()> {
        scatter(self.writable(buf)?.materialized(), pieces, vals, S::store);
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

/// A read view of one global buffer ([`BlockCtx::global_read`]): the
/// data path of loads a kernel counts with [`BlockCtx::global_account`].
/// It reads owned cells, a borrowed host array and a transposed one
/// alike, in device order; an owned buffer no store has filled yet
/// reads as zeros, and one filled after the view was taken reads as
/// stored.
#[derive(Debug)]
pub struct GlobalRead<'a, S: Elem>(ReadSource<'a, S>);

#[derive(Debug)]
enum ReadSource<'a, S: Elem> {
    Cells(&'a Cells<S>),
    Host(HostArray<'a, S>),
}

impl<S: Elem> Clone for GlobalRead<'_, S> {
    fn clone(&self) -> Self {
        *self
    }
}

impl<S: Elem> Copy for GlobalRead<'_, S> {}

impl<S: Elem> Clone for ReadSource<'_, S> {
    fn clone(&self) -> Self {
        *self
    }
}

impl<S: Elem> Copy for ReadSource<'_, S> {}

impl<S: Elem> GlobalRead<'_, S> {
    /// Elements in the buffer.
    pub fn len(&self) -> usize {
        match self.0 {
            ReadSource::Cells(cells) => cells.len,
            ReadSource::Host(host) => host.data.len(),
        }
    }

    /// `true` for an empty (or freed) buffer.
    pub fn is_empty(&self) -> bool {
        self.len() == 0
    }

    /// Elements `start..start + out.len()` into `out`; panics out of
    /// bounds.
    pub fn copy_to(&self, start: usize, out: &mut [S]) {
        match self.0 {
            ReadSource::Cells(cells) => match cells.get() {
                Some(cells) => {
                    let cells = &cells[start..start + out.len()];
                    for (o, c) in out.iter_mut().zip(cells) {
                        *o = S::load(c);
                    }
                }
                None => {
                    assert!(start + out.len() <= cells.len, "read past the buffer");
                    out.fill(S::default());
                }
            },
            ReadSource::Host(host) => host.copy_to(start, out),
        }
    }

    /// The runs of `len` elements at `start`, `start + pitch`,
    /// `start + 2·pitch`, … back to back into `out` (whose length is a
    /// whole number of runs) — a block of device rows when `pitch` is
    /// the row length. Panics out of bounds or for `len == 0`. Equal
    /// to one [`Self::copy_to`] per run, but a transposed view reads
    /// such a block column by column, each contiguous in the host
    /// array, instead of striding across it once per row.
    pub fn copy_rows(&self, start: usize, pitch: usize, len: usize, out: &mut [S]) {
        match self.0 {
            ReadSource::Host(host) => host.copy_rows(start, pitch, len, out),
            ReadSource::Cells(_) => {
                for (k, run) in out.chunks_exact_mut(len).enumerate() {
                    self.copy_to(start + k * pitch, run);
                }
            }
        }
    }
}

/// A write view of one owned global buffer ([`BlockCtx::global_write`]):
/// the data path of stores a kernel counts with
/// [`BlockCtx::global_account`]. Every store marks its elements
/// initialized, as [`BlockCtx::st`] does. Taking the view fills
/// nothing; the first store fills the buffer ([`GpuMemory::alloc`]).
#[derive(Debug, Clone, Copy)]
pub struct GlobalWrite<'a, S: Elem> {
    cells: &'a Cells<S>,
    init: &'a InitMask,
}

impl<S: Elem> GlobalWrite<'_, S> {
    /// Elements in the buffer.
    pub fn len(&self) -> usize {
        self.cells.len
    }

    /// `true` for an empty (or freed) buffer.
    pub fn is_empty(&self) -> bool {
        self.cells.len == 0
    }

    /// Store `vals` at elements `start..start + vals.len()` and mark
    /// them initialized; panics out of bounds.
    pub fn store(&self, start: usize, vals: &[S]) {
        let cells = self.cells.materialized();
        for (c, &v) in cells[start..start + vals.len()].iter().zip(vals) {
            S::store(c, v);
        }
        self.init.set_range(start, start + vals.len());
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

    /// The launch-private scratch buffers: global buffers the kernel
    /// writes and reads back within the launch and that nothing reads
    /// after it — what CUDA would keep in local memory. Their traffic
    /// is counted like any other access, but their contents end with
    /// the launch: after an `Ok` launch, checked or not,
    /// [`launch_with`] returns each one to the unfilled, uninitialized
    /// state of a fresh [`GpuMemory::alloc`] (its bytes stay resident),
    /// so a later checked load of it is an initcheck finding. A bulk
    /// data path may therefore keep a scratch buffer's values in
    /// block-local host memory and never store them
    /// ([`BlockCtx::is_scratch`]). Every one must be an owned buffer
    /// that no other binding of the kernel names; a borrowed one fails
    /// the launch with [`SimError::ReadOnlyBuffer`] before any block
    /// runs. None by default.
    fn scratch(&self) -> Vec<BufId> {
        Vec::new()
    }
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
    /// What the launch's blocks share.
    launch: &'a LaunchShared,
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
    /// Scratch for [`Self::sh_account`]'s block-sized runs of lanes.
    run: Lanes,
}

/// A group of shared-memory accesses a kernel issues again and again —
/// one lane shape at fixed shifts, as [`BlockCtx::sh_account`] takes
/// them — with the count an unchecked launch made of it on its first
/// [`BlockCtx::sh_account_group`]. Build it within the block that
/// counts it: the count holds for that block's launch.
#[derive(Debug, Clone, Default)]
pub struct SharedGroup {
    lanes: Lanes,
    shifts: Vec<usize>,
    write: bool,
    count: Option<GroupCount>,
}

impl SharedGroup {
    /// Loads (`write = false`) or stores of `lanes` at each of
    /// `shifts`.
    pub fn new(lanes: Lanes, shifts: &[usize], write: bool) -> Self {
        Self {
            lanes,
            shifts: shifts.to_vec(),
            write,
            count: None,
        }
    }
}

/// What one count made by [`BlockCtx::count_once`] added to its block:
/// the summable counter deltas with the peaks the count itself reached,
/// the phases it counted into (in order of first appearance, each with
/// its own deltas and peaks), and the phase current when it returned.
#[derive(Debug, Clone, PartialEq)]
struct CountRecord {
    total: BlockStats,
    phases: Vec<PhaseStats>,
    end_phase: &'static str,
}

/// What the blocks of one launch share besides memory: made by
/// [`launch_with`], shared by the launch's threads, dropped when it
/// returns.
struct LaunchShared {
    /// The kernel's [`BlockKernel::scratch`] buffers.
    scratch: Vec<BufId>,
    /// The [`BlockCtx::count_once`] records.
    memo: CountMemo,
}

/// One launch's [`BlockCtx::count_once`] records by key. A poisoned
/// lock is taken as it is: every update is one insert of a whole
/// record, so the map is valid whatever panicked.
#[derive(Default)]
struct CountMemo(Mutex<HashMap<Vec<usize>, Arc<CountRecord>>>);

impl CountMemo {
    fn get(&self, key: &[usize]) -> Option<Arc<CountRecord>> {
        let map = self.0.lock().unwrap_or_else(PoisonError::into_inner);
        map.get(key).cloned()
    }

    /// Keep `record` for `key` unless another thread, which missed the
    /// same key at the same time, kept its own (equal) record first.
    fn insert(&self, key: &[usize], record: Arc<CountRecord>) {
        let mut map = self.0.lock().unwrap_or_else(PoisonError::into_inner);
        map.entry(key.to_vec()).or_insert(record);
    }
}

/// The counter deltas of one group of shared accesses.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
struct GroupCount {
    accesses: u64,
    replays: u64,
    worst: u64,
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

/// The lowest and highest element of a non-empty lane list.
fn extent(lanes: &Lanes) -> (i64, i64) {
    let (mut lo, mut hi) = (i64::MAX, i64::MIN);
    for p in lanes.pieces() {
        let (a, b) = (p.base, p.elem(p.lanes - 1));
        lo = lo.min(a.min(b));
        hi = hi.max(a.max(b));
    }
    (lo, hi)
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

/// Call `f(pieces, len)` for each run of at most `threads` lanes of
/// `lanes`, in lane order, the run renumbered from lane 0 (through the
/// scratch list `run` when `lanes` needs more than one); stops at the
/// first error.
fn for_each_run(
    lanes: &Lanes,
    threads: usize,
    run: &mut Lanes,
    mut f: impl FnMut(&[AffinePiece], usize) -> Result<()>,
) -> Result<()> {
    let n = lanes.len();
    if n <= threads {
        return f(lanes.pieces(), n);
    }
    for lo in (0..n).step_by(threads) {
        let hi = (lo + threads).min(n);
        lanes.slice_into(lo, hi, run);
        f(run.pieces(), hi - lo)?;
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
    /// slice path, and a kernel with a bulk data path of its own
    /// ([`Self::global_account`]) may keep its per-access one for
    /// checked launches.
    pub fn checked(&self) -> bool {
        self.san.is_some()
    }

    /// Does the launch hold `buf` as launch-private scratch
    /// ([`BlockKernel::scratch`])? Its contents end with the launch, so
    /// a bulk data path may keep them in block-local memory and skip
    /// the stores — counting them all the same. A kernel wrapped in one
    /// that declares no scratch gets `false` and stores as before.
    pub fn is_scratch(&self, buf: BufId) -> bool {
        self.launch.scratch.contains(&buf)
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
        self.initcheck(buf, idx);
        out.clear();
        match self.mem.storage(buf)? {
            Storage::Owned(cells) => out.extend(idx.iter().map(|&i| cells.load(i))),
            Storage::Borrowed(host) => out.extend(idx.iter().map(|&i| host.get(i))),
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
        let data = self.mem.writable(buf)?.materialized();
        let mask = &self.mem.init[buf.0];
        for (&i, &v) in idx.iter().zip(vals) {
            S::store(&data[i], v);
            mask.set(i);
        }
        Ok(())
    }

    /// Under the sanitizer, report every lane of a load of `buf` (in
    /// bounds) that reads a never-written element.
    fn initcheck(&mut self, buf: BufId, idx: &[usize]) {
        if let Some(san) = self.san.as_mut() {
            let mask = &self.mem.init[buf.0];
            for (lane, &i) in idx.iter().enumerate() {
                if !mask.is_set(i) {
                    san.global_uninit_read(lane, buf.0, i);
                }
            }
        }
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

    /// Count a group of global accesses to `buf` of one lane shape
    /// without moving data: the global twin of [`Self::sh_account`].
    /// For each `shift` in `shifts`, in order, the lanes of `lanes`
    /// moved up by `shift` elements are one load (`write = false`) or
    /// store, issued as one access per run of at most [`Self::threads`]
    /// lanes. The counters (the block total and the current phase's
    /// transactions, bytes, access rounds and uncoalesced accesses)
    /// move exactly as the matching [`Self::ld_affine`] or
    /// [`Self::st_affine`] calls would move them; the kernel moves the
    /// data itself, through [`Self::global_read`] and
    /// [`Self::global_write`]. An empty list or shift set counts
    /// nothing.
    ///
    /// An unchecked launch counts each run once per alignment class of
    /// the shifts in closed form: two shifts whose byte offsets differ
    /// by whole transaction segments put every lane on the same segment
    /// grid, so their accesses cost the same transactions. A checked
    /// launch, or a group with a lane out of bounds, expands every
    /// access and hands it to the dense counter and the bounds check,
    /// and a load's lanes to the initcheck, as the per-access calls do.
    /// The initcheck reads the init marks when the loads are counted,
    /// so count a group of loads after storing (through
    /// [`GlobalWrite::store`]) whatever they read.
    pub fn global_account(
        &mut self,
        buf: BufId,
        lanes: &Lanes,
        shifts: &[usize],
        write: bool,
    ) -> Result<()> {
        let len = self.mem.len(buf)?;
        let Some(&top_shift) = shifts.iter().max() else {
            return Ok(());
        };
        if lanes.is_empty() {
            return Ok(());
        }
        let (lo, hi) = extent(lanes);
        let in_bounds = lo >= 0 && (hi as usize) + top_shift < len;
        let mut run = std::mem::take(&mut self.run);
        let r = if self.checked() || !in_bounds {
            self.global_account_expanded(buf, lanes, shifts, write, &mut run)
        } else {
            self.global_account_closed(lanes, shifts, write, &mut run)
        };
        self.run = run;
        r
    }

    /// [`Self::global_account`] in closed form, once per run and
    /// alignment class.
    fn global_account_closed(
        &mut self,
        lanes: &Lanes,
        shifts: &[usize],
        write: bool,
        run: &mut Lanes,
    ) -> Result<()> {
        let segment = self.transaction_bytes;
        // (a shift of each byte class present, shifts in the class).
        let mut classes: Vec<(usize, u64)> = Vec::new();
        for &shift in shifts {
            let class = shift * S::BYTES % segment;
            match classes
                .iter_mut()
                .find(|c| c.0 * S::BYTES % segment == class)
            {
                Some(c) => c.1 += 1,
                None => classes.push((shift, 1)),
            }
        }
        let (warp, threads) = (self.warp_size, self.threads);
        let times = shifts.len() as u64;
        let (mut transactions, mut accesses, mut uncoalesced, mut bytes) = (0u64, 0u64, 0u64, 0u64);
        let mut moved: Vec<AffinePiece> = Vec::new();
        for_each_run(lanes, threads, run, |pieces, len| {
            for &(shift, count) in &classes {
                moved.clear();
                moved.extend(pieces.iter().map(|p| AffinePiece {
                    base: p.base + shift as i64,
                    ..*p
                }));
                transactions += count * access_transactions(&moved, len, warp, S::BYTES, segment);
            }
            accesses += times;
            uncoalesced += times * u64::from(access_uncoalesced(pieces));
            bytes += times * (len * S::BYTES) as u64;
            Ok(())
        })?;
        self.bump(|s| {
            s.uncoalesced_global_accesses += uncoalesced;
            if write {
                s.global_store_transactions += transactions;
                s.global_store_bytes += bytes;
            } else {
                s.global_load_transactions += transactions;
                s.global_load_bytes += bytes;
            }
            s.global_access_rounds += accesses;
        });
        Ok(())
    }

    /// [`Self::global_account`] access by access: every run of every
    /// shift expanded to its indices, bounds-checked, counted densely
    /// and, for a load, initchecked.
    fn global_account_expanded(
        &mut self,
        buf: BufId,
        lanes: &Lanes,
        shifts: &[usize],
        write: bool,
        run: &mut Lanes,
    ) -> Result<()> {
        let mut idx = std::mem::take(&mut self.expanded);
        let threads = self.threads;
        let r = shifts.iter().try_for_each(|&shift| {
            for_each_run(lanes, threads, run, |pieces, _| {
                expand(pieces, &mut idx);
                idx.iter_mut().for_each(|i| *i += shift);
                self.account_global(buf, &idx, !write)?;
                if !write {
                    self.initcheck(buf, &idx);
                }
                Ok(())
            })
        });
        self.expanded = idx;
        r
    }

    /// The alignment class of global element `elem`: its byte offset
    /// modulo the transaction segment. Unit-stride runs of the same
    /// lengths that start in the same classes cost the same
    /// transactions — the classes [`Self::global_account`] counts once
    /// each.
    pub fn segment_class(&self, elem: usize) -> usize {
        elem * S::BYTES % self.transaction_bytes
    }

    /// Run `count` — a kernel's counting of one repeated stretch of work,
    /// such as a loop step, with no data movement — and count it `times`
    /// times in all. An unchecked launch runs `count` once and applies
    /// the deltas it made to the block total and to each phase `times
    /// − 1` more times: the same counters, and the same phases in the
    /// same order of first appearance, as `times` runs of it. A checked
    /// launch runs `count` `times` times, so the sanitizer sees every
    /// access. `times = 0` counts nothing.
    pub fn count_repeated(
        &mut self,
        times: u64,
        count: &mut dyn FnMut(&mut Self) -> Result<()>,
    ) -> Result<()> {
        if self.checked() {
            return (0..times).try_for_each(|_| count(self));
        }
        if times == 0 {
            return Ok(());
        }
        let total = self.stats;
        let phases: Vec<BlockStats> = self.phase_stats.iter().map(|p| p.stats).collect();
        count(self)?;
        let more = times - 1;
        let delta = self.stats.since(&total);
        self.stats.add_times(&delta, more);
        for (i, p) in self.phase_stats.iter_mut().enumerate() {
            let delta = p.stats.since(&phases.get(i).copied().unwrap_or_default());
            p.stats.add_times(&delta, more);
        }
        Ok(())
    }

    /// Run `count` — a kernel's counting of a stretch of work that
    /// other blocks of the launch repeat, with no data movement — at
    /// most once per distinct `key` in an unchecked launch. The first
    /// block to reach a key runs `count` and the launch records what it
    /// counted: the deltas to the block total and to each phase, the
    /// peaks it reached (`shared_bytes_peak`, which sets the launch's
    /// occupancy, and `bank_conflict_degree_peak`), and the phases in
    /// their order of first appearance. Every later block with that key
    /// applies the record instead of running `count`, which leaves the
    /// block's counters and phases as running it would. Two threads
    /// that miss the same key at once both run `count` and record equal
    /// counts. A checked launch runs `count` on every call, so the
    /// sanitizer sees every access.
    ///
    /// The memo belongs to the launch: [`launch_with`] makes it, and it
    /// is dropped when the launch returns, so no record outlives a
    /// launch's spec, buffers and kernel. The key is the kernel's: it
    /// must hold everything `count` reads that is not a launch constant
    /// — the block's own geometry, such as its row count and the
    /// alignment class ([`Self::segment_class`]) of its global base —
    /// and `count` must start in a phase the key determines. Shared
    /// memory `count` allocates in an unchecked launch is released when
    /// it returns (its peak stays counted), so allocate what the block
    /// uses afterwards before the call. A debug build recounts on every
    /// hit and panics unless the recount equals the record, which
    /// catches an incomplete key.
    pub fn count_once(
        &mut self,
        key: &[usize],
        count: &mut dyn FnMut(&mut Self) -> Result<()>,
    ) -> Result<()> {
        if self.checked() {
            return count(self);
        }
        let memo = &self.launch.memo;
        let record = match memo.get(key) {
            Some(record) => {
                #[cfg(debug_assertions)]
                {
                    let recount = self.count_alone(count)?;
                    assert_eq!(recount, *record, "count_once key {key:?} is incomplete");
                }
                record
            }
            None => {
                let record = Arc::new(self.count_alone(count)?);
                memo.insert(key, Arc::clone(&record));
                record
            }
        };
        self.apply_count(&record);
        Ok(())
    }

    /// Run `count` against empty counters and phases, starting in the
    /// current phase, and return its record; the block's own counters,
    /// phase and shared memory are as they were before the call.
    fn count_alone(
        &mut self,
        count: &mut dyn FnMut(&mut Self) -> Result<()>,
    ) -> Result<CountRecord> {
        let stats = std::mem::take(&mut self.stats);
        let phases = std::mem::take(&mut self.phase_stats);
        let (phase, shared) = (self.cur_phase, self.shared.len());
        self.cur_phase_idx = None;
        let counted = count(self);
        let record = CountRecord {
            total: std::mem::replace(&mut self.stats, stats),
            phases: std::mem::replace(&mut self.phase_stats, phases),
            end_phase: self.cur_phase,
        };
        self.shared.truncate(shared);
        self.phase(phase);
        counted.map(|()| record)
    }

    /// Add a [`CountRecord`] to the block: its deltas summed into the
    /// counters and its peaks maxed in, phase by phase (a phase the
    /// block has not counted into yet is appended), then its last phase
    /// made current.
    fn apply_count(&mut self, record: &CountRecord) {
        self.stats.merge(&record.total);
        for p in &record.phases {
            match self.phase_stats.iter_mut().find(|q| q.label == p.label) {
                Some(q) => q.stats.merge(&p.stats),
                None => self.phase_stats.push(p.clone()),
            }
        }
        self.phase(record.end_phase);
    }

    /// A read view of `buf`, the data path of loads counted with
    /// [`Self::global_account`]. It reads memory directly: a checked
    /// launch's sanitizer sees the loads only as they are counted.
    pub fn global_read(&self, buf: BufId) -> Result<GlobalRead<'a, S>> {
        let mem: &'a GpuMemory<'a, S> = self.mem;
        Ok(GlobalRead(match mem.storage(buf)? {
            Storage::Owned(cells) => ReadSource::Cells(cells),
            Storage::Borrowed(host) => ReadSource::Host(*host),
        }))
    }

    /// A write view of the owned buffer `buf`, the data path of stores
    /// counted with [`Self::global_account`]; a
    /// [`SimError::ReadOnlyBuffer`] for a borrowed one. The view fills
    /// nothing until a store goes through it.
    pub fn global_write(&self, buf: BufId) -> Result<GlobalWrite<'a, S>> {
        let mem: &'a GpuMemory<'a, S> = self.mem;
        Ok(GlobalWrite {
            cells: mem.writable(buf)?,
            init: &mem.init[buf.0],
        })
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

    /// The mutable twin of [`Self::shared_slice`]: direct writes to
    /// shared memory whose accesses were (or will be) counted with
    /// [`Self::sh_account`].
    pub fn shared_slice_mut(&mut self) -> &mut [S] {
        &mut self.shared
    }

    /// Count a group of shared-memory accesses of one lane shape without
    /// moving data. For each `shift` in `shifts`, in order, the lanes of
    /// `lanes` moved up by `shift` elements are one load (`write =
    /// false`) or store, issued as one access per run of at most
    /// [`Self::threads`] lanes — a block looping over a list longer than
    /// itself. The counters (the block total and the current phase's
    /// `shared_accesses`, `bank_conflict_replays` and
    /// `bank_conflict_degree_peak`) move exactly as the matching
    /// [`Self::sh_ld_affine`] or [`Self::sh_st_affine`] calls would
    /// move them; the kernel moves the data itself, through
    /// [`Self::shared_slice_mut`]. An empty list or shift set counts
    /// nothing.
    ///
    /// An unchecked launch counts each run once in closed form and
    /// reuses the count for every shift: moving every lane of an access
    /// by the same number of elements rotates the banks, which changes
    /// no conflict. A checked launch, or a group with a lane out of
    /// bounds, expands every access and hands it with its lanes to the
    /// dense counter and to the sanitizer, as the per-access calls do.
    pub fn sh_account(&mut self, lanes: &Lanes, shifts: &[usize], write: bool) -> Result<()> {
        self.count_group(lanes, shifts, write).map(drop)
    }

    /// [`Self::sh_account`] of `group`'s lanes and shifts. An unchecked
    /// launch counts the group on its first call and applies that count
    /// again on every later one; a checked launch expands and checks
    /// every access on every call.
    pub fn sh_account_group(&mut self, group: &mut SharedGroup) -> Result<()> {
        match group.count {
            Some(count) => self.apply_group(count),
            None => group.count = self.count_group(&group.lanes, &group.shifts, group.write)?,
        }
        Ok(())
    }

    /// Count a group as [`Self::sh_account`] does; its deltas when they
    /// were made in closed form and hold for any later call with the
    /// same group (shared memory only grows within a block), `None`
    /// when the group is empty or was counted access by access.
    fn count_group(
        &mut self,
        lanes: &Lanes,
        shifts: &[usize],
        write: bool,
    ) -> Result<Option<GroupCount>> {
        let Some(&top_shift) = shifts.iter().max() else {
            return Ok(None);
        };
        if lanes.is_empty() {
            return Ok(None);
        }
        let (lo, hi) = extent(lanes);
        let in_bounds = lo >= 0 && (hi as usize) + top_shift < self.shared.len();
        // A uniform shift rotates the banks only when it moves every
        // lane by whole bank words.
        let word_shifts = S::BYTES.is_multiple_of(4);
        let mut run = std::mem::take(&mut self.run);
        let r = if self.checked() || !in_bounds || !word_shifts {
            self.sh_account_expanded(lanes, shifts, write, &mut run)
                .map(|()| None)
        } else {
            let (warp, banks) = (self.warp_size, self.banks);
            let (mut accesses, mut replays, mut worst) = (0u64, 0u64, 1u64);
            for_each_run(lanes, self.threads, &mut run, |pieces, len| {
                let (r, w) = access_conflict_cycles(pieces, len, warp, S::BYTES, banks);
                accesses += 1;
                replays += r;
                worst = worst.max(w);
                Ok(())
            })?;
            let times = shifts.len() as u64;
            let count = GroupCount {
                accesses: accesses * times,
                replays: replays * times,
                worst,
            };
            self.apply_group(count);
            Ok(Some(count))
        };
        self.run = run;
        r
    }

    /// Apply a group's deltas to the block total and the current phase.
    fn apply_group(&mut self, c: GroupCount) {
        self.bump(|s| {
            s.shared_accesses += c.accesses;
            s.bank_conflict_replays += c.replays;
            s.bank_conflict_degree_peak = s.bank_conflict_degree_peak.max(c.worst);
        });
    }

    /// [`Self::sh_account`] access by access: every run of every shift
    /// expanded to its indices, counted densely and checked by the
    /// sanitizer.
    fn sh_account_expanded(
        &mut self,
        lanes: &Lanes,
        shifts: &[usize],
        write: bool,
        run: &mut Lanes,
    ) -> Result<()> {
        let mut idx = std::mem::take(&mut self.expanded);
        let threads = self.threads;
        let r = shifts.iter().try_for_each(|&shift| {
            for_each_run(lanes, threads, run, |pieces, _| {
                expand(pieces, &mut idx);
                idx.iter_mut().for_each(|i| *i += shift);
                self.account_shared(&idx)?;
                if let Some(san) = self.san.as_mut() {
                    san.shared_access(&idx, write);
                }
                Ok(())
            })
        });
        self.expanded = idx;
        r
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
    launch: &LaunchShared,
    block_id: usize,
) -> Result<BlockOut> {
    let mut ctx = BlockCtx {
        block_id,
        grid_blocks: cfg.grid_blocks,
        threads: cfg.threads_per_block as usize,
        mem,
        launch,
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
        run: Lanes::new(),
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
/// run. After an `Ok` launch the kernel's [`BlockKernel::scratch`]
/// buffers are discarded, in both modes alike. Memory contents after a
/// failed launch are unspecified.
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

    let launch = LaunchShared {
        scratch: kernel.scratch(),
        memo: CountMemo::default(),
    };
    for &buf in &launch.scratch {
        mem.writable(buf)?;
    }
    let shared: &GpuMemory<'_, S> = mem;
    let run = |block_id| run_block(spec, cfg, exec, kernel, shared, &launch, block_id);
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
    for &buf in &launch.scratch {
        mem.discard(buf);
    }

    let occ = occupancy(
        spec,
        cfg.threads_per_block,
        shared_peak,
        cfg.regs_per_thread,
    )?;
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
        assert_eq!(
            load.global_load_transactions,
            res.stats.total.global_load_transactions
        );
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

    /// Copies `input` to `output` over one block-sized chunk per block
    /// through the slice or the affine entry points; odd blocks walk
    /// their chunk backwards (stride −1), even ones forwards.
    struct CopyKernel {
        input: BufId,
        output: BufId,
        n: usize,
        affine: bool,
    }

    impl<S: Elem> BlockKernel<S> for CopyKernel {
        fn run_block(&self, ctx: &mut BlockCtx<'_, S>) -> Result<()> {
            let base = ctx.block_id * ctx.threads;
            let lanes = ctx.threads.min(self.n - base);
            let piece = [if ctx.block_id.is_multiple_of(2) {
                AffinePiece {
                    lane0: 0,
                    lanes,
                    base: base as i64,
                    stride: 1,
                }
            } else {
                AffinePiece {
                    lane0: 0,
                    lanes,
                    base: (base + lanes - 1) as i64,
                    stride: -1,
                }
            }];
            let mut vals = Vec::new();
            if self.affine {
                ctx.ld_affine(self.input, &piece, &mut vals)?;
                ctx.st_affine(self.output, &piece, &vals)
            } else {
                let mut idx = Vec::new();
                expand(&piece, &mut idx);
                ctx.ld(self.input, &idx, &mut vals)?;
                ctx.st(self.output, &idx, &vals)
            }
        }
    }

    /// The shapes the transposed-view tests cover, each in both
    /// directions.
    const TRANSPOSE_SHAPES: [(usize, usize); 6] =
        [(1, 1), (1, 257), (300, 1), (31, 33), (33, 31), (1024, 512)];

    /// `host` (`rows·cols` elements, stored column by column) as the
    /// owned copy a change of layout makes: element `r·cols + c` is
    /// `host[c·rows + r]`.
    fn converted<S: Copy>(host: &[S], rows: usize, cols: usize) -> Vec<S> {
        (0..rows * cols)
            .map(|i| host[(i % cols) * rows + i / cols])
            .collect()
    }

    fn transposed_views_read_like_an_owned_converted_copy<S: Elem>(val: fn(usize) -> S) {
        let cfg = |n: usize| LaunchConfig::new("copy", n.div_ceil(256), 256);
        for (r0, c0) in TRANSPOSE_SHAPES {
            for (rows, cols) in [(r0, c0), (c0, r0)] {
                let n = rows * cols;
                let host: Vec<S> = (0..n).map(val).collect();
                let want = converted(&host, rows, cols);
                let mut mem = GpuMemory::new();
                let view = mem.borrow_transposed(&host, rows, cols).unwrap();
                assert_eq!(mem.resident_bytes(), n * S::BYTES, "like alloc_from");
                let owned = mem.alloc_from(want.clone());
                assert_eq!(mem.read(view).unwrap(), want, "({rows}, {cols}) read");
                assert_eq!(mem.clone().read(view).unwrap(), want, "clone");
                for exec in [ExecConfig::default(), ExecConfig::sanitized()] {
                    for affine in [false, true] {
                        let mut run = |input| {
                            let output = mem.alloc(n);
                            let k = CopyKernel {
                                input,
                                output,
                                n,
                                affine,
                            };
                            let res = launch_with(&gtx480(), &cfg(n), &exec, &k, &mut mem).unwrap();
                            assert!(res.violations.is_empty(), "{:?}", res.violations);
                            let out = mem.take(output).unwrap();
                            (out, res.stats)
                        };
                        let (got, stats) = run(view);
                        assert_eq!(got, want, "({rows}, {cols}) {exec:?} affine {affine}");
                        assert_eq!((got, stats), run(owned));
                    }
                }
                assert_eq!(mem.resident_bytes(), 2 * n * S::BYTES);
                assert_eq!(mem.take(view).unwrap(), want, "take");
                assert_eq!(mem.resident_bytes(), n * S::BYTES);
            }
        }
        let mut mem = GpuMemory::new();
        let host = vec![val(1); 6];
        assert_eq!(
            mem.borrow_transposed(&host, 4, 2).unwrap_err(),
            SimError::LaneMismatch {
                indices: 8,
                values: 6
            }
        );
    }

    #[test]
    fn transposed_views_read_like_an_owned_converted_copy_in_f64() {
        transposed_views_read_like_an_owned_converted_copy::<f64>(|i| i as f64 * 0.5);
    }

    #[test]
    fn transposed_views_read_like_an_owned_converted_copy_in_f32() {
        transposed_views_read_like_an_owned_converted_copy::<f32>(|i| i as f32 * 0.25);
    }

    fn stores_to_a_transposed_view_are_typed_errors<S: Elem>(val: fn(usize) -> S) {
        for (r0, c0) in TRANSPOSE_SHAPES {
            for (rows, cols) in [(r0, c0), (c0, r0)] {
                let n = rows * cols;
                let host: Vec<S> = (0..n).map(val).collect();
                let cfg = LaunchConfig::new("copy", n.div_ceil(256), 256);
                for exec in [ExecConfig::default(), ExecConfig::sanitized()] {
                    for affine in [false, true] {
                        let mut mem = GpuMemory::new();
                        let input = mem.alloc_from(vec![val(3); n]);
                        let output = mem.borrow_transposed(&host, rows, cols).unwrap();
                        let k = CopyKernel {
                            input,
                            output,
                            n,
                            affine,
                        };
                        let err = launch_with(&gtx480(), &cfg, &exec, &k, &mut mem).unwrap_err();
                        assert_eq!(err, SimError::ReadOnlyBuffer { buffer: output.0 });
                        assert_eq!(mem.read(output).unwrap(), converted(&host, rows, cols));
                    }
                }
                let mut mem = GpuMemory::new();
                let id = mem.borrow_transposed(&host, rows, cols).unwrap();
                assert_eq!(
                    mem.write(id, &host).unwrap_err(),
                    SimError::ReadOnlyBuffer { buffer: id.0 }
                );
                assert!((0..n).all(|i| mem.is_word_init(id, i)));
            }
        }
    }

    #[test]
    fn stores_to_a_transposed_view_are_typed_errors_in_f64() {
        stores_to_a_transposed_view_are_typed_errors::<f64>(|i| i as f64);
    }

    #[test]
    fn stores_to_a_transposed_view_are_typed_errors_in_f32() {
        stores_to_a_transposed_view_are_typed_errors::<f32>(|i| i as f32);
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

#[cfg(test)]
mod sh_account_tests {
    use super::*;

    /// One group: `(base, stride, count)` runs, shifts, direction,
    /// and whether a barrier follows.
    type Group = (&'static [(usize, i64, usize)], &'static [usize], bool, bool);

    /// Unit, strided and multi-piece shapes, lists longer than the
    /// 48-thread block (runs that split warps), several shifts, empty
    /// groups, two phases, and a store then an overlapping load by
    /// other lanes in one epoch (a read-after-write race).
    const GROUPS: [Group; 8] = [
        (&[(0, 1, 100)], &[0, 130, 260, 390], false, true),
        (
            &[(0, 1, 10), (37, 1, 10), (90, 1, 10)],
            &[0, 1, 5, 200],
            true,
            true,
        ),
        (&[(3, 2, 20), (100, 4, 20), (7, 0, 9)], &[0, 3], false, true),
        (&[(0, 1, 10), (37, 1, 10), (90, 1, 10)], &[], true, true),
        (&[], &[0, 4], false, true),
        (&[(600, -1, 70), (10, 1, 33)], &[2, 0, 9], false, true),
        (&[(500, 1, 32)], &[0], true, false),
        (&[(501, 1, 32)], &[0], false, true),
    ];

    /// How [`Groups`] counts.
    #[derive(Debug, Clone, Copy, PartialEq)]
    enum Mode {
        /// Access by access through the affine entry points.
        Single,
        /// [`BlockCtx::sh_account`].
        Bulk,
        /// [`BlockCtx::sh_account_group`] on groups built once.
        Group,
    }

    /// Runs [`GROUPS`] twice over, counted as `mode` says.
    struct Groups {
        mode: Mode,
    }

    impl<S: Elem> BlockKernel<S> for Groups {
        fn run_block(&self, ctx: &mut BlockCtx<'_, S>) -> Result<()> {
            let sh = ctx.shared_alloc(1000)?;
            let (mut lanes, mut run, mut moved) = (Lanes::new(), Lanes::new(), Lanes::new());
            let mut vals = Vec::new();
            let mut built: Vec<SharedGroup> = Vec::new();
            for pass in 0..2 {
                for (g, &(runs, shifts, write, barrier)) in GROUPS.iter().enumerate() {
                    ctx.phase(["a", "b"][g % 2]);
                    lanes.clear();
                    for &(base, stride, count) in runs {
                        lanes.push(sh + base, stride, count);
                    }
                    match self.mode {
                        Mode::Bulk => ctx.sh_account(&lanes, shifts, write)?,
                        Mode::Group => {
                            if pass == 0 {
                                built.push(SharedGroup::new(lanes.clone(), shifts, write));
                            }
                            ctx.sh_account_group(&mut built[g])?;
                        }
                        Mode::Single => {
                            for &shift in shifts {
                                for lo in (0..lanes.len()).step_by(ctx.threads) {
                                    let hi = (lo + ctx.threads).min(lanes.len());
                                    lanes.slice_into(lo, hi, &mut run);
                                    moved.clear();
                                    for p in run.pieces() {
                                        moved.push(p.base as usize + shift, p.stride, p.lanes);
                                    }
                                    if write {
                                        vals.clear();
                                        vals.resize(moved.len(), S::default());
                                        ctx.sh_st_affine(moved.pieces(), &vals)?;
                                    } else {
                                        ctx.sh_ld_affine(moved.pieces(), &mut vals)?;
                                    }
                                }
                            }
                        }
                    }
                    if barrier {
                        ctx.sync();
                    }
                }
            }
            Ok(())
        }
    }

    fn run<S: Elem>(mode: Mode, exec: ExecConfig) -> (KernelStats, Vec<SanitizerViolation>) {
        let mut mem = GpuMemory::<S>::new();
        let cfg = LaunchConfig::new("groups", 2, 48);
        let res = launch_with(
            &DeviceSpec::gtx480(),
            &cfg,
            &exec,
            &Groups { mode },
            &mut mem,
        )
        .unwrap();
        (res.stats, res.violations)
    }

    fn bulk_counts_like_single_accesses<S: Elem>() {
        let reference = run::<S>(Mode::Single, ExecConfig::default());
        assert!(reference.0.total.bank_conflict_replays > 0);
        let checked = run::<S>(Mode::Single, ExecConfig::sanitized());
        assert!(checked.0.total.sanitizer.shared_races > 0);
        for mode in [Mode::Bulk, Mode::Group] {
            assert_eq!(run::<S>(mode, ExecConfig::default()), reference, "{mode:?}");
            assert_eq!(run::<S>(mode, ExecConfig::sanitized()), checked, "{mode:?}");
        }
        // Only the sanitizer's tallies tell the modes apart.
        let mut plain = checked.0.clone();
        plain.total.sanitizer = Default::default();
        assert_eq!(plain.total, reference.0.total);
    }

    #[test]
    fn bulk_counts_like_single_accesses_in_f64() {
        bulk_counts_like_single_accesses::<f64>();
    }

    #[test]
    fn bulk_counts_like_single_accesses_in_f32() {
        bulk_counts_like_single_accesses::<f32>();
    }

    #[test]
    fn bulk_out_of_bounds_matches_the_single_access_error() {
        struct Oob {
            bulk: bool,
        }
        impl BlockKernel<f64> for Oob {
            fn run_block(&self, ctx: &mut BlockCtx<'_, f64>) -> Result<()> {
                let sh = ctx.shared_alloc(64)?;
                let mut lanes = Lanes::new();
                lanes.push(sh + 40, 1, 20);
                if self.bulk {
                    ctx.sh_account(&lanes, &[0, 8], false)
                } else {
                    let mut out = Vec::new();
                    ctx.sh_ld_affine(lanes.pieces(), &mut out)?;
                    lanes.clear();
                    lanes.push(sh + 48, 1, 20);
                    ctx.sh_ld_affine(lanes.pieces(), &mut out)
                }
            }
        }
        for exec in [ExecConfig::default(), ExecConfig::sanitized()] {
            let err = |bulk| {
                let mut mem = GpuMemory::<f64>::new();
                let cfg = LaunchConfig::new("oob", 1, 32);
                launch_with(&DeviceSpec::gtx480(), &cfg, &exec, &Oob { bulk }, &mut mem)
                    .unwrap_err()
                    .to_string()
            };
            assert_eq!(err(true), err(false));
        }
    }

    /// The mutable view writes what the read-only view and the next
    /// counted load see.
    #[test]
    fn shared_slice_mut_writes_functional_state() {
        struct Poke {
            buf: BufId,
        }
        impl BlockKernel<f64> for Poke {
            fn run_block(&self, ctx: &mut BlockCtx<'_, f64>) -> Result<()> {
                let base = ctx.shared_alloc(4)?;
                let mut lanes = Lanes::new();
                lanes.push(base, 1, 4);
                ctx.sh_account(&lanes, &[0], true)?;
                ctx.shared_slice_mut()[base..base + 4].copy_from_slice(&[1.0, 2.0, 3.0, 4.0]);
                ctx.sync();
                let mut vals = Vec::new();
                ctx.sh_ld_affine(lanes.pieces(), &mut vals)?;
                ctx.st(self.buf, &[0], &[vals.iter().sum()])?;
                Ok(())
            }
        }
        let mut mem = GpuMemory::new();
        let buf = mem.alloc(1);
        let cfg = LaunchConfig::new("poke", 1, 32);
        let exec = ExecConfig::sanitized();
        let res = launch_with(&DeviceSpec::gtx480(), &cfg, &exec, &Poke { buf }, &mut mem).unwrap();
        assert!(res.violations.is_empty(), "{:?}", res.violations);
        assert_eq!(res.stats.total.shared_accesses, 2);
        assert_eq!(mem.read(buf).unwrap()[0], 10.0);
    }
}

#[cfg(test)]
mod global_account_tests {
    use super::*;

    /// One group: `(base, stride, count)` runs, shifts, direction.
    type Group = (&'static [(usize, i64, usize)], &'static [usize], bool);

    /// Unit, strided, broadcast, negative-stride and multi-piece
    /// shapes, lists longer than the 48-thread block, shifts in many
    /// alignment classes (and repeats of one), empty groups, two phases,
    /// stores, and loads of words never written (initcheck findings).
    const GROUPS: [Group; 8] = [
        (&[(0, 1, 100)], &[0, 130, 260, 390, 16, 32], true),
        (
            &[(0, 1, 10), (37, 1, 10), (90, 1, 10)],
            &[0, 1, 5, 200, 16],
            false,
        ),
        (
            &[(3, 2, 20), (100, 4, 20), (7, 0, 9)],
            &[0, 3, 17, 33],
            false,
        ),
        (&[(0, 1, 10)], &[], true),
        (&[], &[0, 4], false),
        (&[(600, -1, 70), (10, 1, 33)], &[2, 0, 9, 32, 64], false),
        (
            &[(1000, 1, 64)],
            &[0, 13, 26, 39, 52, 65, 78, 91, 104, 117, 130],
            true,
        ),
        (&[(1001, 1, 64)], &[0, 26, 52, 78, 104, 700], false),
    ];

    /// How [`Groups`] counts.
    #[derive(Debug, Clone, Copy, PartialEq)]
    enum Mode {
        /// Access by access through the affine entry points.
        Single,
        /// Stores through [`GlobalWrite`], then [`BlockCtx::global_account`].
        Bulk,
    }

    /// Runs [`GROUPS`] against `buf`, counted as `mode` says; stores
    /// write each lane's element index.
    struct Groups {
        buf: BufId,
        mode: Mode,
    }

    impl<S: Elem + From<u16>> BlockKernel<S> for Groups {
        fn run_block(&self, ctx: &mut BlockCtx<'_, S>) -> Result<()> {
            let (mut lanes, mut run, mut moved) = (Lanes::new(), Lanes::new(), Lanes::new());
            let (mut vals, mut idx) = (Vec::new(), Vec::new());
            for (g, &(runs, shifts, write)) in GROUPS.iter().enumerate() {
                ctx.phase(["a", "b"][g % 2]);
                lanes.clear();
                for &(base, stride, count) in runs {
                    lanes.push(base, stride, count);
                }
                match self.mode {
                    Mode::Bulk => {
                        if write {
                            let view = ctx.global_write(self.buf)?;
                            expand(lanes.pieces(), &mut idx);
                            for &shift in shifts {
                                for &i in &idx {
                                    view.store(i + shift, &[S::from((i + shift) as u16)]);
                                }
                            }
                        }
                        ctx.global_account(self.buf, &lanes, shifts, write)?;
                    }
                    Mode::Single => {
                        for &shift in shifts {
                            for lo in (0..lanes.len()).step_by(ctx.threads) {
                                let hi = (lo + ctx.threads).min(lanes.len());
                                lanes.slice_into(lo, hi, &mut run);
                                moved.clear();
                                for p in run.pieces() {
                                    moved.push(p.base as usize + shift, p.stride, p.lanes);
                                }
                                if write {
                                    expand(moved.pieces(), &mut idx);
                                    vals.clear();
                                    vals.extend(idx.iter().map(|&i| S::from(i as u16)));
                                    ctx.st_affine(self.buf, moved.pieces(), &vals)?;
                                } else {
                                    ctx.ld_affine(self.buf, moved.pieces(), &mut vals)?;
                                }
                            }
                        }
                    }
                }
            }
            Ok(())
        }
    }

    type Run<S> = (KernelStats, Vec<SanitizerViolation>, Vec<S>);

    fn run<S: Elem + From<u16>>(mode: Mode, exec: ExecConfig) -> Run<S> {
        let mut mem = GpuMemory::<S>::new();
        let buf = mem.alloc(2000);
        let cfg = LaunchConfig::new("groups", 2, 48);
        let res = launch_with(
            &DeviceSpec::gtx480(),
            &cfg,
            &exec,
            &Groups { buf, mode },
            &mut mem,
        )
        .unwrap();
        (res.stats, res.violations, mem.read(buf).unwrap())
    }

    fn bulk_counts_like_single_accesses<S: Elem + From<u16>>() {
        let reference = run::<S>(Mode::Single, ExecConfig::default());
        assert!(reference.0.total.uncoalesced_global_accesses > 0);
        assert!(reference.0.total.global_store_transactions > 0);
        let checked = run::<S>(Mode::Single, ExecConfig::sanitized());
        assert!(checked.0.total.sanitizer.uninit_reads > 0);
        assert_eq!(run::<S>(Mode::Bulk, ExecConfig::default()), reference);
        assert_eq!(run::<S>(Mode::Bulk, ExecConfig::sanitized()), checked);
        let mut plain = checked.0.clone();
        plain.total.sanitizer = Default::default();
        assert_eq!(plain.total, reference.0.total);
    }

    #[test]
    fn bulk_counts_like_single_accesses_in_f64() {
        bulk_counts_like_single_accesses::<f64>();
    }

    #[test]
    fn bulk_counts_like_single_accesses_in_f32() {
        bulk_counts_like_single_accesses::<f32>();
    }

    #[test]
    fn bulk_out_of_bounds_matches_the_single_access_error() {
        struct Oob {
            buf: BufId,
            bulk: bool,
        }
        impl BlockKernel<f64> for Oob {
            fn run_block(&self, ctx: &mut BlockCtx<'_, f64>) -> Result<()> {
                let mut lanes = Lanes::new();
                lanes.push(40, 1, 20);
                if self.bulk {
                    ctx.global_account(self.buf, &lanes, &[0, 8], false)
                } else {
                    let mut out = Vec::new();
                    ctx.ld_affine(self.buf, lanes.pieces(), &mut out)?;
                    lanes.clear();
                    lanes.push(48, 1, 20);
                    ctx.ld_affine(self.buf, lanes.pieces(), &mut out)
                }
            }
        }
        for exec in [ExecConfig::default(), ExecConfig::sanitized()] {
            let err = |bulk| {
                let mut mem = GpuMemory::<f64>::new();
                let buf = mem.alloc_from(vec![1.0; 64]);
                let cfg = LaunchConfig::new("oob", 1, 32);
                launch_with(
                    &DeviceSpec::gtx480(),
                    &cfg,
                    &exec,
                    &Oob { buf, bulk },
                    &mut mem,
                )
                .unwrap_err()
                .to_string()
            };
            assert_eq!(err(true), err(false));
        }
    }

    /// A block read of rows equals one run read per row, for every
    /// storage kind: whole-row blocks of a transpose (read column by
    /// column), runs that wrap past a row's end, and other pitches.
    #[test]
    fn copy_rows_reads_like_one_copy_per_run() {
        struct Blocks {
            bufs: [BufId; 3],
            cols: usize,
        }
        impl BlockKernel<f64> for Blocks {
            fn run_block(&self, ctx: &mut BlockCtx<'_, f64>) -> Result<()> {
                for &buf in &self.bufs {
                    let view = ctx.global_read(buf)?;
                    let n = view.len();
                    for pitch in [self.cols, self.cols + 2, 3] {
                        for len in 1..=self.cols + 1 {
                            for start in 0..n {
                                let height = (n.saturating_sub(start + len) / pitch + 1).min(4);
                                if start + (height - 1) * pitch + len > n {
                                    continue;
                                }
                                let mut block = vec![0.0; height * len];
                                view.copy_rows(start, pitch, len, &mut block);
                                let mut want = vec![0.0; height * len];
                                for (k, run) in want.chunks_exact_mut(len).enumerate() {
                                    view.copy_to(start + k * pitch, run);
                                }
                                assert_eq!(block, want, "start {start} pitch {pitch} len {len}");
                            }
                        }
                    }
                }
                Ok(())
            }
        }
        let (rows, cols) = (5, 7);
        let host: Vec<f64> = (0..rows * cols).map(|i| i as f64).collect();
        let mut mem = GpuMemory::new();
        let bufs = [
            mem.alloc_from(host.clone()),
            mem.borrow(&host),
            mem.borrow_transposed(&host, rows, cols).unwrap(),
        ];
        let cfg = LaunchConfig::new("blocks", 1, 32);
        launch(
            &DeviceSpec::gtx480(),
            &cfg,
            &Blocks { bufs, cols },
            &mut mem,
        )
        .unwrap();
    }

    /// The views read every storage kind in device order, and a write
    /// view of a borrowed buffer is a typed error.
    #[test]
    fn views_read_and_write_device_order() {
        struct Peek {
            bufs: [BufId; 3],
            out: BufId,
        }
        impl BlockKernel<f64> for Peek {
            fn run_block(&self, ctx: &mut BlockCtx<'_, f64>) -> Result<()> {
                let out = ctx.global_write(self.out)?;
                for (k, &buf) in self.bufs.iter().enumerate() {
                    let view = ctx.global_read(buf)?;
                    let mut row = vec![0.0; 4];
                    view.copy_to(1, &mut row);
                    out.store(4 * k, &row);
                }
                match ctx.global_write(self.bufs[1]) {
                    Err(SimError::ReadOnlyBuffer { .. }) => Ok(()),
                    other => panic!("{other:?}"),
                }
            }
        }
        let host = [0.0, 2.0, 4.0, 1.0, 3.0, 5.0];
        let mut mem = GpuMemory::new();
        let owned = mem.alloc_from(host.to_vec());
        let borrowed = mem.borrow(&host);
        let transposed = mem.borrow_transposed(&host, 3, 2).unwrap();
        let out = mem.alloc(12);
        let k = Peek {
            bufs: [owned, borrowed, transposed],
            out,
        };
        let cfg = LaunchConfig::new("peek", 1, 32);
        launch(&DeviceSpec::gtx480(), &cfg, &k, &mut mem).unwrap();
        assert_eq!(
            mem.read(out).unwrap(),
            [2.0, 4.0, 1.0, 3.0, 2.0, 4.0, 1.0, 3.0, 1.0, 2.0, 3.0, 4.0]
        );
        assert!((0..12).all(|i| mem.is_word_init(out, i)));
    }
}

#[cfg(test)]
mod count_repeated_tests {
    use super::*;

    /// A prelude, then one step counted `times` times — through
    /// [`BlockCtx::count_repeated`] or by running it again — then a
    /// tail in an earlier phase. The step opens two phases of its own.
    struct Steps {
        buf: BufId,
        times: u64,
        repeated: bool,
    }

    impl BlockKernel<f64> for Steps {
        fn run_block(&self, ctx: &mut BlockCtx<'_, f64>) -> Result<()> {
            ctx.shared_alloc(256)?;
            ctx.phase("a");
            ctx.sync();
            let mut lanes = Lanes::new();
            lanes.push(3 + ctx.block_id, 1, 40);
            let mut step = |ctx: &mut BlockCtx<'_, f64>| {
                ctx.phase("b");
                ctx.global_account(self.buf, &lanes, &[0, 17, 33], false)?;
                ctx.sh_account(&lanes, &[0, 1], false)?;
                ctx.flops(7);
                ctx.phase("c");
                ctx.sync();
                Ok(())
            };
            if self.repeated {
                ctx.count_repeated(self.times, &mut step)?;
            } else {
                for _ in 0..self.times {
                    step(ctx)?;
                }
            }
            ctx.phase("a");
            ctx.flops(1);
            Ok(())
        }
    }

    /// The same `KernelStats` — totals, phases in order, per-block
    /// vectors — and sanitizer reports either way, checked or not.
    #[test]
    fn repeating_a_count_equals_running_it_again() {
        for times in [0, 1, 5] {
            for exec in [ExecConfig::default(), ExecConfig::sanitized()] {
                let run = |repeated| {
                    let mut mem = GpuMemory::new();
                    let buf = mem.alloc_from(vec![1.0; 200]);
                    let kernel = Steps {
                        buf,
                        times,
                        repeated,
                    };
                    let cfg = LaunchConfig::new("steps", 3, 64);
                    launch_with(&DeviceSpec::gtx480(), &cfg, &exec, &kernel, &mut mem).unwrap()
                };
                let (repeated, again) = (run(true), run(false));
                assert_eq!(repeated.stats, again.stats, "times {times} {exec:?}");
                assert_eq!(repeated.violations, again.violations);
                let labels: Vec<_> = repeated.stats.phases.iter().map(|p| p.label).collect();
                let want: &[&str] = if times == 0 {
                    &[PRELUDE_PHASE, "a"]
                } else {
                    &[PRELUDE_PHASE, "a", "b", "c"]
                };
                assert_eq!(labels, want);
            }
        }
    }
}

#[cfg(test)]
mod count_once_tests {
    use super::*;
    use std::sync::atomic::AtomicUsize;

    /// A prelude, then a count keyed by `block_id % keys` — through
    /// [`BlockCtx::count_once`] or run in place — then a tail in an
    /// earlier phase. The count's shared allocation, bank conflicts and
    /// global alignment all depend on the key, and it opens two phases
    /// of its own; `runs` tallies how often it ran.
    struct Keyed {
        buf: BufId,
        keys: usize,
        once: bool,
        runs: AtomicUsize,
    }

    impl BlockKernel<f64> for Keyed {
        fn run_block(&self, ctx: &mut BlockCtx<'_, f64>) -> Result<()> {
            ctx.shared_alloc(64)?;
            ctx.phase("a");
            ctx.sync();
            let key = ctx.block_id % self.keys;
            let mut count = |ctx: &mut BlockCtx<'_, f64>| {
                self.runs.fetch_add(1, Relaxed);
                ctx.phase("b");
                ctx.shared_alloc(64 + 32 * key)?;
                let mut lanes = Lanes::new();
                lanes.push(0, 1 + key as i64, 32);
                ctx.sh_account(&lanes, &[0], false)?;
                lanes.clear();
                lanes.push(3 + key, 1, 40);
                ctx.global_account(self.buf, &lanes, &[0, 17], false)?;
                ctx.phase("c");
                ctx.flops(7 * key as u64);
                ctx.sync();
                Ok(())
            };
            if self.once {
                ctx.count_once(&[key], &mut count)?;
            } else {
                count(ctx)?;
                // In place, the count's shared memory stays allocated;
                // a count made once releases it. Nothing reads it.
            }
            ctx.phase("a");
            ctx.flops(1);
            Ok(())
        }
    }

    /// A launch of `Keyed` over `blocks` blocks, and how often its count
    /// ran.
    fn run(
        spec: &DeviceSpec,
        exec: ExecConfig,
        blocks: usize,
        keys: usize,
        once: bool,
    ) -> (LaunchResult, usize) {
        let mut mem = GpuMemory::new();
        let buf = mem.alloc_from(vec![1.0; 200]);
        let kernel = Keyed {
            buf,
            keys,
            once,
            runs: AtomicUsize::new(0),
        };
        let cfg = LaunchConfig::new("keyed", blocks, 64);
        let res = launch_with(spec, &cfg, &exec, &kernel, &mut mem).unwrap();
        (res, kernel.runs.into_inner())
    }

    /// Hits give the `KernelStats` a recount gives — totals, peaks,
    /// phases in order, per-block vectors — and the same occupancy; an
    /// unchecked release launch runs the count once per key (a debug
    /// build recounts on every hit to check it).
    #[test]
    fn a_hit_equals_a_recount() {
        let spec = DeviceSpec::gtx480();
        for (blocks, keys) in [(1, 1), (7, 3), (12, 12)] {
            let (once, runs) = run(&spec, ExecConfig::default(), blocks, keys, true);
            let (inline, _) = run(&spec, ExecConfig::default(), blocks, keys, false);
            assert_eq!(once.stats, inline.stats, "{blocks} blocks, {keys} keys");
            assert_eq!(once.occupancy, inline.occupancy);
            assert_eq!(once.shared_bytes_per_block, inline.shared_bytes_per_block);
            let labels: Vec<_> = once.stats.phases.iter().map(|p| p.label).collect();
            assert_eq!(labels, [PRELUDE_PHASE, "a", "b", "c"]);
            let want = if cfg!(debug_assertions) { blocks } else { keys };
            assert_eq!(runs, want, "{blocks} blocks, {keys} keys");
        }
    }

    /// The memo does not outlive its launch: a later launch with the
    /// same keys on a device with another transaction size counts
    /// afresh, and gets that device's counters.
    #[test]
    fn a_later_launch_recounts() {
        let wide = DeviceSpec::gtx480();
        let narrow = DeviceSpec {
            transaction_bytes: 32,
            ..DeviceSpec::gtx480()
        };
        let (first, _) = run(&wide, ExecConfig::default(), 6, 2, true);
        let (later, runs) = run(&narrow, ExecConfig::default(), 6, 2, true);
        let (inline, _) = run(&narrow, ExecConfig::default(), 6, 2, false);
        assert_eq!(later.stats, inline.stats);
        assert_ne!(later.stats.total, first.stats.total);
        assert!(runs >= 2);
    }

    /// A checked launch runs the count on every call and reports what
    /// running it in place reports.
    #[test]
    fn a_checked_launch_never_hits() {
        let spec = DeviceSpec::gtx480();
        let (once, runs) = run(&spec, ExecConfig::sanitized(), 8, 2, true);
        let (inline, _) = run(&spec, ExecConfig::sanitized(), 8, 2, false);
        assert_eq!(runs, 8);
        assert_eq!(once.stats, inline.stats);
        assert_eq!(once.violations, inline.violations);
    }
}

#[cfg(test)]
mod scratch_tests {
    use super::*;

    impl<S: Elem> GpuMemory<'_, S> {
        /// Has a store filled the owned buffer `id`?
        fn is_filled(&self, id: BufId) -> bool {
            matches!(&self.buffers[id.0], Storage::Owned(cells) if cells.get().is_some())
        }
    }

    /// `tmp = 2·input`, then `output = tmp + 1` read back from `tmp`,
    /// over one block-sized chunk per block. Checked launches go access
    /// by access; unchecked ones count the same four accesses with
    /// `global_account`, keep `tmp` block-local and store it only when
    /// the launch does not hold it as scratch.
    struct Staged {
        input: BufId,
        tmp: BufId,
        output: BufId,
        n: usize,
    }

    impl BlockKernel<f64> for Staged {
        fn scratch(&self) -> Vec<BufId> {
            vec![self.tmp]
        }

        fn run_block(&self, ctx: &mut BlockCtx<'_, f64>) -> Result<()> {
            let base = ctx.block_id * ctx.threads;
            let len = ctx.threads.min(self.n - base);
            let mut lanes = Lanes::new();
            lanes.push(base, 1, len);
            if ctx.checked() {
                let (mut v, mut t) = (Vec::new(), Vec::new());
                ctx.ld_affine(self.input, lanes.pieces(), &mut v)?;
                let doubled: Vec<f64> = v.iter().map(|x| 2.0 * x).collect();
                ctx.st_affine(self.tmp, lanes.pieces(), &doubled)?;
                ctx.ld_affine(self.tmp, lanes.pieces(), &mut t)?;
                let out: Vec<f64> = t.iter().map(|x| x + 1.0).collect();
                return ctx.st_affine(self.output, lanes.pieces(), &out);
            }
            let mut tmp = vec![0.0; len];
            ctx.global_read(self.input)?.copy_to(base, &mut tmp);
            tmp.iter_mut().for_each(|x| *x *= 2.0);
            if !ctx.is_scratch(self.tmp) {
                ctx.global_write(self.tmp)?.store(base, &tmp);
            }
            let out: Vec<f64> = tmp.iter().map(|x| x + 1.0).collect();
            ctx.global_write(self.output)?.store(base, &out);
            for (buf, write) in [
                (self.input, false),
                (self.tmp, true),
                (self.tmp, false),
                (self.output, true),
            ] {
                ctx.global_account(buf, &lanes, &[0], write)?;
            }
            Ok(())
        }
    }

    /// A kernel run through a wrapper that declares no scratch.
    struct Wrapper<K>(K);

    impl<K: BlockKernel<f64>> BlockKernel<f64> for Wrapper<K> {
        fn run_block(&self, ctx: &mut BlockCtx<'_, f64>) -> Result<()> {
            self.0.run_block(ctx)
        }
    }

    /// Loads the `n` elements of `input` over one block-sized chunk per
    /// block.
    struct Load {
        input: BufId,
        n: usize,
    }

    impl BlockKernel<f64> for Load {
        fn run_block(&self, ctx: &mut BlockCtx<'_, f64>) -> Result<()> {
            let base = ctx.block_id * ctx.threads;
            let idx: Vec<usize> = (base..self.n.min(base + ctx.threads)).collect();
            ctx.ld(self.input, &idx, &mut Vec::new())
        }
    }

    const N: usize = 300;

    fn cfg() -> LaunchConfig {
        LaunchConfig::new("staged", N.div_ceil(128), 128)
    }

    fn host() -> Vec<f64> {
        (0..N).map(|i| i as f64 * 0.25).collect()
    }

    /// A memory holding `host()` as input, then `tmp` and `output`.
    fn memory(host: &[f64]) -> (GpuMemory<'_, f64>, Staged) {
        let mut mem = GpuMemory::new();
        let input = mem.borrow(host);
        let (tmp, output) = (mem.alloc(N), mem.alloc(N));
        let kernel = Staged {
            input,
            tmp,
            output,
            n: N,
        };
        (mem, kernel)
    }

    #[test]
    fn a_fresh_alloc_reads_as_zeros_and_is_resident() {
        let mut mem = GpuMemory::<f64>::new();
        let a = mem.alloc(100);
        assert_eq!(
            (mem.resident_bytes(), mem.peak_resident_bytes()),
            (800, 800)
        );
        assert!(!mem.is_filled(a));
        assert_eq!(mem.read(a).unwrap(), vec![0.0; 100]);
        assert!(!mem.is_word_init(a, 0) && !mem.is_word_init(a, 99));
        let copy = mem.clone();
        assert!(!copy.is_filled(a), "a clone stays unfilled");
        assert_eq!(copy.read(a).unwrap(), vec![0.0; 100]);
        // A launch that only loads it fills nothing either.
        let res = launch(
            &DeviceSpec::gtx480(),
            &LaunchConfig::new("load", 1, 100),
            &Load { input: a, n: 100 },
            &mut mem,
        );
        res.unwrap();
        assert!(!mem.is_filled(a));
        assert_eq!(mem.take(a).unwrap(), vec![0.0; 100]);
        assert_eq!((mem.resident_bytes(), mem.peak_resident_bytes()), (0, 800));
    }

    #[test]
    fn the_first_store_fills_a_buffer() {
        let host = host();
        for exec in [ExecConfig::default(), ExecConfig::sanitized()] {
            let (mut mem, kernel) = memory(&host);
            let k = Wrapper(kernel);
            launch_with(&DeviceSpec::gtx480(), &cfg(), &exec, &k, &mut mem).unwrap();
            assert!(
                mem.is_filled(k.0.tmp) && mem.is_filled(k.0.output),
                "{exec:?}"
            );
            let doubled: Vec<f64> = host.iter().map(|x| 2.0 * x).collect();
            assert_eq!(mem.read(k.0.tmp).unwrap(), doubled);
            assert!(mem.clone().is_filled(k.0.tmp));
        }
        // A host write fills an unfilled buffer and initializes it.
        let mut mem = GpuMemory::<f64>::new();
        let a = mem.alloc(3);
        mem.write(a, &[1.0, 2.0, 3.0]).unwrap();
        assert!(mem.is_filled(a) && mem.is_word_init(a, 2));
        assert_eq!(mem.take(a).unwrap(), [1.0, 2.0, 3.0]);
    }

    #[test]
    fn declared_scratch_ends_with_its_launch_in_both_modes() {
        let host = host();
        let mut left = Vec::new();
        for exec in [ExecConfig::default(), ExecConfig::sanitized()] {
            let (mut mem, kernel) = memory(&host);
            let resident = mem.resident_bytes();
            let res = launch_with(&DeviceSpec::gtx480(), &cfg(), &exec, &kernel, &mut mem).unwrap();
            assert!(res.violations.is_empty(), "{:?}", res.violations);
            let want: Vec<f64> = host.iter().map(|x| 2.0 * x + 1.0).collect();
            assert_eq!(mem.read(kernel.output).unwrap(), want, "{exec:?}");
            assert!(!mem.is_filled(kernel.tmp), "{exec:?}");
            assert!((0..N).all(|i| !mem.is_word_init(kernel.tmp, i)), "{exec:?}");
            assert_eq!(mem.resident_bytes(), resident, "scratch stays resident");
            assert_eq!(mem.peak_resident_bytes(), resident);
            // A later checked load of the scratch reads uninitialized words.
            let mut later = mem.clone();
            let load = Load {
                input: kernel.tmp,
                n: N,
            };
            let checked = ExecConfig::sanitized();
            let res = launch_with(&DeviceSpec::gtx480(), &cfg(), &checked, &load, &mut later);
            let res = res.unwrap();
            assert_eq!(res.stats.total.sanitizer.uninit_reads, N as u64);
            assert!(matches!(
                res.violations[0],
                SanitizerViolation::UninitRead { .. }
            ));
            left.push((format!("{mem:?}"), res.stats));
        }
        assert_eq!(left[0], left[1], "both modes leave the same memory");
    }

    #[test]
    fn declaring_a_borrowed_buffer_as_scratch_is_a_typed_error() {
        let host = host();
        for exec in [ExecConfig::default(), ExecConfig::sanitized()] {
            let (mut mem, mut kernel) = memory(&host);
            kernel.tmp = kernel.input;
            let err =
                launch_with(&DeviceSpec::gtx480(), &cfg(), &exec, &kernel, &mut mem).unwrap_err();
            assert_eq!(
                err,
                SimError::ReadOnlyBuffer {
                    buffer: kernel.input.0
                }
            );
            assert!(!mem.is_filled(kernel.output), "no block ran");
        }
    }

    #[test]
    fn a_wrapper_that_declares_nothing_leaves_what_a_checked_launch_leaves() {
        let host = host();
        let run = |exec: ExecConfig| {
            let (mut mem, kernel) = memory(&host);
            let k = Wrapper(kernel);
            let res = launch_with(&DeviceSpec::gtx480(), &cfg(), &exec, &k, &mut mem).unwrap();
            (format!("{mem:?}"), res.stats)
        };
        assert_eq!(run(ExecConfig::default()), run(ExecConfig::sanitized()));
    }
}
