//! Property tests for the layout dimension: `Layout::index` is a
//! bijection onto `0..m*n` for both layouts, `Layout::convert` (the
//! tiled transpose) equals its element-wise definition, and
//! `to_layout` round-trips are bit-exact identities.

use proptest::prelude::*;
use tridiag_core::generators::random_batch;
use tridiag_core::Layout;

/// `Layout::convert` of an `m × n` array of distinct values, in both
/// directions, against its definition `dst[to.index(s, r)] =
/// src[from.index(s, r)]`.
fn check_convert<T: Copy + Default + PartialEq + std::fmt::Debug>(
    m: usize,
    n: usize,
    value: impl Fn(usize) -> T,
) {
    let src: Vec<T> = (0..m * n).map(value).collect();
    for (from, to) in [
        (Layout::Contiguous, Layout::Interleaved),
        (Layout::Interleaved, Layout::Contiguous),
        (Layout::Contiguous, Layout::Contiguous),
    ] {
        let mut want = vec![T::default(); m * n];
        for sys in 0..m {
            for row in 0..n {
                want[to.index(sys, row, m, n)] = src[from.index(sys, row, m, n)];
            }
        }
        let mut got = vec![T::default(); m * n];
        from.convert(to, &src, m, n, &mut got);
        assert!(got == want, "{from:?} -> {to:?} at m = {m}, n = {n}");
    }
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(64))]

    /// `Layout::index` hits every flat slot exactly once — injective on
    /// the `(sys, row)` grid and onto `0..m*n` — for both layouts.
    #[test]
    fn index_is_a_bijection(m in 1usize..80, n in 1usize..80) {
        for layout in [Layout::Contiguous, Layout::Interleaved] {
            let mut seen = vec![false; m * n];
            for sys in 0..m {
                for row in 0..n {
                    let i = layout.index(sys, row, m, n);
                    prop_assert!(i < m * n, "{layout:?}: index {i} out of range");
                    prop_assert!(
                        !seen[i],
                        "{layout:?}: ({sys}, {row}) collides at flat index {i}"
                    );
                    seen[i] = true;
                }
            }
        }
    }

    /// The two layouts are inverse permutations of each other:
    /// `Interleaved::index(sys, row)` and `Contiguous::index(sys, row)`
    /// describe the same cell, so chasing one through the other's
    /// inverse returns the original coordinates.
    #[test]
    fn layouts_are_inverse_permutations(m in 1usize..80, n in 1usize..80, sys_seed in any::<usize>(), row_seed in any::<usize>()) {
        let sys = sys_seed % m;
        let row = row_seed % n;
        let i = Layout::Interleaved.index(sys, row, m, n);
        prop_assert_eq!((i % m, i / m), (sys, row));
        let c = Layout::Contiguous.index(sys, row, m, n);
        prop_assert_eq!((c / n, c % n), (sys, row));
    }

    /// `to_layout` there-and-back is the bit-exact identity, and a
    /// conversion preserves every `(sys, row)` cell.
    #[test]
    fn to_layout_round_trips(m in 1usize..48, n in 1usize..48, seed in any::<u64>()) {
        let contig = random_batch::<f64>(m, n, seed);
        prop_assert_eq!(contig.layout(), Layout::Contiguous);
        let inter = contig.to_layout(Layout::Interleaved);
        prop_assert_eq!(inter.layout(), Layout::Interleaved);
        for sys in 0..m {
            for row in 0..n {
                prop_assert_eq!(contig.row(sys, row), inter.row(sys, row),
                    "cell ({}, {}) drifted in conversion", sys, row);
            }
        }
        let back = inter.to_layout(Layout::Contiguous);
        prop_assert_eq!(&back, &contig, "round trip is not the identity");
        // Same-layout conversion is a plain clone.
        prop_assert_eq!(&contig.to_layout(Layout::Contiguous), &contig);
        prop_assert_eq!(&inter.to_layout(Layout::Interleaved), &inter);
    }

    /// The tiled transpose equals the element-wise definition on ragged
    /// shapes that straddle the tile edge, for f32 and f64.
    #[test]
    fn convert_matches_its_definition(m in 1usize..100, n in 1usize..100) {
        check_convert(m, n, |i| i as f64 + 0.5);
        check_convert(m, n, |i| i as f32 - 0.25);
    }

    /// ... and on degenerate (one system, one row, one tile off by one)
    /// and wide benchmark shapes.
    #[test]
    fn convert_matches_its_definition_on_edge_and_wide_shapes(
        (m, n) in prop::sample::select(vec![
            (1, 1), (1, 257), (300, 1), (31, 33), (33, 31), (32, 32),
            (1024, 512), (8192, 64),
        ])
    ) {
        check_convert(m, n, |i| i as f64 + 0.5);
        check_convert(m, n, |i| i as f32 - 0.25);
    }
}
