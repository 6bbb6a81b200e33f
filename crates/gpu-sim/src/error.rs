//! Error types for the GPU simulator.

use crate::sanitizer::SanitizerViolation;
use std::fmt;

/// Errors raised by kernel launches and in-kernel memory operations.
#[derive(Debug, Clone, PartialEq, Eq)]
pub enum SimError {
    /// A launch configuration the device cannot run (too many threads
    /// per block, zero-sized grid, shared memory over capacity, ...).
    InvalidLaunch(String),
    /// A global-memory access outside the buffer.
    GlobalOutOfBounds {
        /// Buffer handle index.
        buffer: usize,
        /// Offending element index.
        index: usize,
        /// Buffer length.
        len: usize,
    },
    /// A shared-memory access outside the allocation.
    SharedOutOfBounds {
        /// Offending element index.
        index: usize,
        /// Shared allocation length.
        len: usize,
    },
    /// Shared-memory allocation exceeding the per-block capacity.
    SharedOverflow {
        /// Bytes the allocation would need.
        requested: usize,
        /// Per-block capacity of the device.
        capacity: usize,
    },
    /// Mismatched lane-vector lengths in a warp-wide operation.
    LaneMismatch {
        /// Number of index lanes supplied.
        indices: usize,
        /// Number of value lanes supplied.
        values: usize,
    },
    /// A buffer handle that does not belong to this arena.
    BadBuffer {
        /// The unknown handle's index.
        buffer: usize,
    },
    /// A store (from a kernel or the host) into a buffer that borrows
    /// a read-only host array (see `GpuMemory::borrow`).
    ReadOnlyBuffer {
        /// The borrowed buffer's handle index.
        buffer: usize,
    },
    /// The kernel itself failed (numerical error etc.); carries the
    /// kernel's message.
    KernelFault(String),
    /// A solve plan that cannot be built or executed: empty geometry,
    /// a device-memory footprint beyond capacity, a kernel step whose
    /// buffer bindings point outside the plan's slot table, or a
    /// plan/batch mismatch at execution time. Raised by the planner
    /// and the plan executor instead of panicking.
    InvalidPlan(String),
    /// A sanitizer finding severe enough to abort the launch: an
    /// out-of-bounds access (the functional read would be undefined).
    /// Carries full kernel/block/warp/lane/address attribution.
    Sanitizer(SanitizerViolation),
}

impl fmt::Display for SimError {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        match self {
            SimError::InvalidLaunch(msg) => write!(f, "invalid launch: {msg}"),
            SimError::GlobalOutOfBounds { buffer, index, len } => write!(
                f,
                "global access out of bounds: buffer {buffer}, index {index}, length {len}"
            ),
            SimError::SharedOutOfBounds { index, len } => {
                write!(
                    f,
                    "shared access out of bounds: index {index}, length {len}"
                )
            }
            SimError::SharedOverflow {
                requested,
                capacity,
            } => write!(
                f,
                "shared memory overflow: requested {requested} bytes, capacity {capacity}"
            ),
            SimError::LaneMismatch { indices, values } => write!(
                f,
                "warp op lane mismatch: {indices} indices vs {values} values"
            ),
            SimError::BadBuffer { buffer } => write!(f, "unknown buffer handle {buffer}"),
            SimError::ReadOnlyBuffer { buffer } => write!(
                f,
                "store to read-only buffer {buffer} (it borrows a host array)"
            ),
            SimError::KernelFault(msg) => write!(f, "kernel fault: {msg}"),
            SimError::InvalidPlan(msg) => write!(f, "invalid plan: {msg}"),
            SimError::Sanitizer(v) => write!(f, "sanitizer: {v}"),
        }
    }
}

impl std::error::Error for SimError {}

/// Result alias for simulator operations.
pub type Result<T> = std::result::Result<T, SimError>;

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn messages_contain_context() {
        assert!(SimError::InvalidLaunch("x".into())
            .to_string()
            .contains("invalid launch"));
        assert!(SimError::GlobalOutOfBounds {
            buffer: 1,
            index: 9,
            len: 4
        }
        .to_string()
        .contains("index 9"));
        assert!(SimError::SharedOverflow {
            requested: 100,
            capacity: 48
        }
        .to_string()
        .contains("100"));
    }
}
