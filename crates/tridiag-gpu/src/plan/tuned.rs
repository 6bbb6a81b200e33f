//! The planner's tuned decision table for the stock GTX480, generated
//! by `tridiag tune --emit crates/tridiag-gpu/src/plan/tuned.rs`
//! ([`crate::autotune::tune_table`]). Do not edit by hand: the
//! release-only `autotune` test re-tunes sample cells against it.
//!
//! `[⌊log2 M⌋][⌊log2 N⌋ − 2]` → `(k, mapping)`: `b(k)` is one block
//! per system, `p(k)` the partition `MappingVariant::Auto` resolves
//! for the solve's own `(m, n)`, and `NA` a corner above the
//! generation cap (`M·N > 2^22`), which Table III decides.

use super::cost::TunedCell;
use crate::solver::MappingVariant;

const NA: Option<TunedCell> = None;

const fn b(k: u32) -> Option<TunedCell> {
    Some((k, MappingVariant::BlockPerSystem))
}

const fn p(k: u32) -> Option<TunedCell> {
    Some((k, MappingVariant::Auto))
}

#[rustfmt::skip]
pub(super) const F32: [[Option<TunedCell>; 20]; 14] = [
    // M = 2^0
    [p(2), p(3), p(4), p(5), p(6), b(6), b(6), b(6), b(7), b(7), p(8), p(8), p(9), p(9), p(9), p(9), p(9), p(9), p(9), p(9)],
    // M = 2^1
    [p(2), p(3), p(4), p(5), p(6), b(6), b(6), b(6), b(7), b(7), p(8), p(8), p(8), p(9), p(9), p(9), p(9), p(9), p(9), p(9)],
    // M = 2^2
    [p(2), p(3), p(4), p(5), p(6), b(6), b(6), b(6), b(7), b(7), p(8), p(8), p(8), p(9), p(9), p(9), p(9), p(9), p(9), NA],
    // M = 2^3
    [p(2), p(3), p(4), p(5), p(6), b(6), b(6), b(6), b(7), b(7), b(7), b(7), b(7), b(7), b(7), b(7), b(7), b(7), NA, NA],
    // M = 2^4
    [p(2), p(3), p(4), p(5), p(6), b(6), b(6), b(6), b(7), b(7), b(7), b(7), b(7), b(7), b(7), b(7), b(7), NA, NA, NA],
    // M = 2^5
    [p(2), p(3), p(4), p(5), b(5), b(5), p(6), p(6), p(6), p(6), p(6), p(6), p(6), p(6), p(6), p(6), NA, NA, NA, NA],
    // M = 2^6
    [p(2), p(3), p(4), p(5), b(5), b(5), b(5), b(5), b(5), b(5), b(5), b(5), b(5), b(5), b(5), NA, NA, NA, NA, NA],
    // M = 2^7
    [p(2), p(3), p(4), p(5), b(5), b(5), b(5), b(5), b(5), b(5), b(5), b(5), b(5), b(5), NA, NA, NA, NA, NA, NA],
    // M = 2^8
    [p(2), p(3), p(4), p(5), b(5), b(5), b(5), b(5), b(5), b(5), b(5), b(5), b(5), NA, NA, NA, NA, NA, NA, NA],
    // M = 2^9
    [p(0), p(0), p(4), p(5), p(5), p(5), p(5), p(5), p(5), p(5), p(5), p(5), NA, NA, NA, NA, NA, NA, NA, NA],
    // M = 2^10
    [p(0), p(0), p(0), p(0), p(0), p(0), p(0), p(0), p(0), p(0), p(0), NA, NA, NA, NA, NA, NA, NA, NA, NA],
    // M = 2^11
    [p(0), p(0), p(0), p(0), p(0), p(0), p(0), p(0), p(0), p(0), NA, NA, NA, NA, NA, NA, NA, NA, NA, NA],
    // M = 2^12
    [p(0), p(0), p(0), p(0), p(0), p(0), p(0), p(0), p(0), NA, NA, NA, NA, NA, NA, NA, NA, NA, NA, NA],
    // M = 2^13
    [p(0), p(0), p(0), p(0), p(0), p(0), p(0), p(0), NA, NA, NA, NA, NA, NA, NA, NA, NA, NA, NA, NA],
];

#[rustfmt::skip]
pub(super) const F64: [[Option<TunedCell>; 20]; 14] = [
    // M = 2^0
    [p(2), p(3), p(4), p(5), b(5), b(5), b(5), b(5), b(5), p(6), p(7), p(7), p(7), p(8), p(8), p(8), p(8), p(8), p(8), p(8)],
    // M = 2^1
    [p(2), p(3), p(4), p(5), b(5), b(5), b(5), b(5), b(5), p(6), p(7), p(7), p(8), p(8), p(8), p(8), p(8), p(8), p(8), p(8)],
    // M = 2^2
    [p(2), p(3), p(4), p(5), b(5), b(5), b(5), b(5), b(5), p(7), p(6), p(6), p(7), p(8), p(8), p(8), p(8), p(8), p(8), NA],
    // M = 2^3
    [p(2), p(3), p(4), p(5), b(5), b(5), b(5), b(5), b(5), b(5), b(5), b(5), b(5), b(5), b(5), b(5), b(5), b(5), NA, NA],
    // M = 2^4
    [p(2), p(3), p(4), p(5), b(5), b(5), b(5), b(5), b(5), b(5), b(5), b(5), b(5), b(5), b(5), b(5), b(5), NA, NA, NA],
    // M = 2^5
    [p(2), p(3), p(4), b(4), b(4), b(4), b(4), b(4), b(4), b(4), b(4), b(4), b(4), b(4), b(4), b(4), NA, NA, NA, NA],
    // M = 2^6
    [p(2), p(3), b(3), b(3), b(3), b(4), b(4), b(4), b(4), b(4), b(4), b(4), b(4), b(4), b(4), NA, NA, NA, NA, NA],
    // M = 2^7
    [p(2), b(2), b(3), b(3), b(3), b(4), b(4), b(4), b(4), b(4), b(4), b(4), b(4), b(4), NA, NA, NA, NA, NA, NA],
    // M = 2^8
    [p(0), b(2), b(2), b(3), b(3), b(4), b(4), b(4), b(4), b(4), b(4), b(4), b(4), NA, NA, NA, NA, NA, NA, NA],
    // M = 2^9
    [p(0), p(0), p(0), p(0), p(0), p(0), p(0), p(0), p(0), p(0), p(0), p(0), NA, NA, NA, NA, NA, NA, NA, NA],
    // M = 2^10
    [p(0), p(0), p(0), p(0), p(0), p(0), p(0), p(0), p(0), p(0), p(0), NA, NA, NA, NA, NA, NA, NA, NA, NA],
    // M = 2^11
    [p(0), p(0), p(0), p(0), p(0), p(0), p(0), p(0), p(0), p(0), NA, NA, NA, NA, NA, NA, NA, NA, NA, NA],
    // M = 2^12
    [p(0), p(0), p(0), p(0), p(0), p(0), p(0), p(0), p(0), NA, NA, NA, NA, NA, NA, NA, NA, NA, NA, NA],
    // M = 2^13
    [p(0), p(0), p(0), p(0), p(0), p(0), p(0), p(0), NA, NA, NA, NA, NA, NA, NA, NA, NA, NA, NA, NA],
];
