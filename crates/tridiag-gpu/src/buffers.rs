//! Host ↔ device transfer of tridiagonal batches.

use gpu_sim::{BufId, Elem, GpuMemory};
use tridiag_core::{Layout, Scalar, SystemBatch};

/// Marker uniting the host scalar trait with the simulator element
/// trait (both are implemented by `f32` and `f64`).
pub trait GpuScalar: Scalar + Elem {}
impl GpuScalar for f32 {}
impl GpuScalar for f64 {}

/// A batch resident in simulated device memory: four coefficient
/// buffers plus the solution buffer, with the layout metadata needed to
/// address them.
#[derive(Debug, Clone, Copy)]
pub struct DeviceBatch {
    /// Sub-diagonal buffer.
    pub a: BufId,
    /// Main-diagonal buffer.
    pub b: BufId,
    /// Super-diagonal buffer.
    pub c: BufId,
    /// Right-hand-side buffer.
    pub d: BufId,
    /// Solution buffer (written by solve kernels).
    pub x: BufId,
    /// Number of systems.
    pub m: usize,
    /// Unknowns per system.
    pub n: usize,
    /// Memory layout of all five buffers.
    pub layout: Layout,
}

impl DeviceBatch {
    /// Flat element index of `(sys, row)`.
    #[inline]
    pub fn index(&self, sys: usize, row: usize) -> usize {
        self.layout.index(sys, row, self.m, self.n)
    }

    /// Total elements per buffer.
    pub fn total(&self) -> usize {
        self.m * self.n
    }
}

/// Upload a host batch ("cudaMemcpy H→D"), preserving its layout: the
/// four coefficient arrays are borrowed read-only, as the plan executor
/// borrows every upload that needs no change of layout, and only the
/// solution buffer is allocated.
pub fn upload<'h, S: GpuScalar>(
    mem: &mut GpuMemory<'h, S>,
    batch: &'h SystemBatch<S>,
) -> DeviceBatch {
    let (a, b, c, d) = batch.arrays();
    DeviceBatch {
        a: mem.borrow(a),
        b: mem.borrow(b),
        c: mem.borrow(c),
        d: mem.borrow(d),
        x: mem.alloc(batch.total_len()),
        m: batch.num_systems(),
        n: batch.system_len(),
        layout: batch.layout(),
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use tridiag_core::generators::random_batch;

    #[test]
    fn upload_round_trip() {
        let host = random_batch::<f64>(3, 8, 1).to_layout(Layout::Interleaved);
        let mut mem = GpuMemory::new();
        let dev = upload(&mut mem, &host);
        assert_eq!(dev.m, 3);
        assert_eq!(dev.n, 8);
        assert_eq!(dev.layout, Layout::Interleaved);
        let (ha, _, _, hd) = host.arrays();
        assert_eq!(mem.read(dev.a).unwrap(), ha);
        assert_eq!(mem.read(dev.d).unwrap(), hd);
        assert_eq!(mem.read(dev.x).unwrap().len(), 24);
        assert_eq!(dev.index(1, 2), 2 * 3 + 1);
    }
}
