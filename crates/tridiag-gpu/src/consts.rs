//! Cost constants shared by the kernels and the figure harness.

/// FLOPs charged per PCR row reduction (Eqs. 5–6): two divisions (k1,
/// k2, weighted), six multiplies, four subtractions, one negation pair.
pub const PCR_FLOPS_PER_ROW: u64 = 14;

/// FLOPs charged per Thomas forward-reduction row (Eqs. 2–3): one
/// division (weighted), three multiplies, two subtractions.
pub const THOMAS_FWD_FLOPS: u64 = 8;

/// FLOPs charged per Thomas backward-substitution row (Eq. 4).
pub const THOMAS_BWD_FLOPS: u64 = 2;

/// p-Thomas threads per block.
pub const PTHOMAS_BLOCK: u32 = 128;

/// Register estimates fed to the occupancy model (what `nvcc -v` would
/// report for kernels of this complexity).
pub const REGS_PTHOMAS: u32 = 24;
/// Tiled PCR holds window offsets and row registers.
pub const REGS_TILED_PCR: u32 = 32;
/// In-shared PCR is register-light.
pub const REGS_PCR_SHARED: u32 = 20;
/// The fused kernel carries both kernels' register sets.
pub const REGS_FUSED: u32 = 40;
