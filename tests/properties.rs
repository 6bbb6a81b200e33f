//! Property-based cross-crate tests: for arbitrary well-conditioned
//! inputs, the whole pipeline holds its invariants.

use proptest::prelude::*;
use scalable_tridiag::cpu_ref;
use scalable_tridiag::tridiag_core::{
    condition, cr, generators, hybrid, pcr, sliding_window::PcrOp, streaming::StreamingStencil,
    thomas, tiled_pcr, transition, Layout, Scalar, SystemBatch, TridiagonalSystem,
};
use scalable_tridiag::tridiag_gpu::solver::GpuTridiagSolver;

/// Forward-error tolerance for a solve of `system`, derived from its
/// estimated condition number: `κ_∞(A) · ε · n^{1/2} · margin`. The
/// margin absorbs the different error constants of the algorithms under
/// test (CR/PCR accumulate across log₂ n levels).
fn condition_tolerance<S: Scalar>(system: &TridiagonalSystem<S>) -> f64 {
    let kappa = condition::condition_estimate(system).unwrap_or(1e6);
    let n = system.len() as f64;
    (kappa * S::EPSILON.to_f64() * n.sqrt() * 256.0).max(S::EPSILON.to_f64() * 64.0)
}

/// Run every host algorithm on `system` and compare against the cpu-ref
/// engine, elementwise, within the condition-derived tolerance.
fn algorithms_match_cpu_ref<S: Scalar>(system: &TridiagonalSystem<S>) -> Result<(), TestCaseError> {
    let batch = SystemBatch::from_systems(vec![system.clone()]).unwrap();
    let reference = cpu_ref::solve_batch_sequential(&batch).unwrap();
    let tol = condition_tolerance(system);
    let scale = reference
        .iter()
        .map(|v| v.to_f64().abs())
        .fold(1.0f64, f64::max);

    let candidates: [(&str, Vec<S>); 4] = [
        ("thomas", thomas::solve_typed(system).unwrap()),
        ("cr", cr::solve(system).unwrap()),
        ("pcr", pcr::solve(system).unwrap()),
        (
            "hybrid",
            hybrid::solve(system, hybrid::HybridConfig::default())
                .unwrap()
                .0,
        ),
    ];
    for (name, x) in &candidates {
        prop_assert_eq!(x.len(), reference.len());
        for (i, (got, want)) in x.iter().zip(&reference).enumerate() {
            let err = (got.to_f64() - want.to_f64()).abs() / scale;
            prop_assert!(
                err < tol,
                "{} ({}) row {}: {} vs {} (rel err {:.3e}, tol {:.3e})",
                name,
                S::NAME,
                i,
                got,
                want,
                err,
                tol
            );
        }
    }
    Ok(())
}

/// A diagonally dominant Toeplitz system: constant stencil `(a, b, c)`
/// with `|b| > |a| + |c|`, random RHS.
fn toeplitz_dominant<S: Scalar>(
    n: usize,
    a: f64,
    c: f64,
    margin: f64,
    neg: bool,
    seed: u64,
) -> TridiagonalSystem<S> {
    let b = (a.abs() + c.abs() + margin) * if neg { -1.0 } else { 1.0 };
    // Cheap deterministic RHS in [-1, 1).
    let mut state = seed | 1;
    let rhs: Vec<S> = (0..n)
        .map(|_| {
            state = state
                .wrapping_mul(6364136223846793005)
                .wrapping_add(1442695040888963407);
            S::from_f64((state >> 11) as f64 / (1u64 << 53) as f64 * 2.0 - 1.0)
        })
        .collect();
    generators::toeplitz(S::from_f64(a), S::from_f64(b), S::from_f64(c), rhs)
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(24))]

    /// The simulated GPU solves anything the host Thomas solves.
    #[test]
    fn gpu_solver_matches_thomas(
        m in 1usize..12,
        n_exp in 3u32..10,
        n_off in 0usize..5,
        seed in any::<u64>(),
    ) {
        let n = (1usize << n_exp) + n_off;
        let batch = generators::random_batch::<f64>(m, n, seed);
        let (x, report) = GpuTridiagSolver::gtx480().solve_batch(&batch).unwrap();
        prop_assert!(batch.max_relative_residual(&x).unwrap() < 1e-8);
        prop_assert!(report.total_us > 0.0);
        for sys in 0..m {
            let s = batch.system(sys).unwrap();
            let reference = thomas::solve_typed(&s).unwrap();
            for row in 0..n {
                let g = x[batch.index(sys, row)];
                prop_assert!(
                    (g - reference[row]).abs() < 1e-7 * reference[row].abs().max(1.0),
                    "sys {} row {}: {} vs {}", sys, row, g, reference[row]
                );
            }
        }
    }

    /// Streamed, partitioned and naive tiled PCR all equal monolithic
    /// reduction bit-for-bit, for arbitrary sizes and k.
    #[test]
    fn tilings_equal_monolithic(
        n in 16usize..600,
        k in 1u32..5,
        sub_tile in 1usize..40,
        parts in 1usize..6,
        seed in any::<u64>(),
    ) {
        prop_assume!((1usize << k) <= n);
        let s = generators::dominant_random::<f64>(n, seed);
        let mono = pcr::reduce(&s, k).unwrap();
        let (ma, mb, mc, md) = mono.arrays();

        let (st, _) = tiled_pcr::reduce_streamed(&s, k, sub_tile).unwrap();
        let (sa, sb, sc, sd) = st.arrays();
        prop_assert!(sa == ma && sb == mb && sc == mc && sd == md, "streamed");

        let parts = parts.min(n);
        let (pt, _) = tiled_pcr::reduce_partitioned(&s, k, parts).unwrap();
        let (pa, pb, pc, pd) = pt.arrays();
        prop_assert!(pa == ma && pb == mb && pc == mc && pd == md, "partitioned");

        let (nt, _) = tiled_pcr::reduce_naive_tiled(&s, k, sub_tile).unwrap();
        let (na, nb, nc, nd) = nt.arrays();
        prop_assert!(na == ma && nb == mb && nc == mc && nd == md, "naive");
    }

    /// Incomplete PCR + independent Thomas equals a direct solve.
    #[test]
    fn divide_and_conquer_is_exact(
        n in 8usize..500,
        k in 0u32..4,
        seed in any::<u64>(),
    ) {
        prop_assume!((1usize << k) <= n);
        let s = generators::dominant_random::<f64>(n, seed);
        let direct = thomas::solve_typed(&s).unwrap();
        let via_pcr = pcr::reduce(&s, k).unwrap().solve_subsystems_thomas().unwrap();
        for i in 0..n {
            prop_assert!((direct[i] - via_pcr[i]).abs() < 1e-7 * direct[i].abs().max(1.0));
        }
    }

    /// Layout conversion round-trips and never changes row content.
    #[test]
    fn layout_round_trip(m in 1usize..10, n in 1usize..64, seed in any::<u64>()) {
        let b = generators::random_batch::<f64>(m, n, seed);
        let i = b.to_layout(Layout::Interleaved);
        let back = i.to_layout(Layout::Contiguous);
        prop_assert_eq!(&back, &b);
        for sys in 0..m {
            for row in 0..n {
                prop_assert_eq!(b.row(sys, row), i.row(sys, row));
            }
        }
    }

    /// The sliding-window pipeline accepts any feed chunking and still
    /// produces monolithic output (chunk boundaries are invisible).
    #[test]
    fn pipeline_chunking_invariant(
        n in 16usize..300,
        k in 1u32..4,
        chunk in 1usize..23,
        seed in any::<u64>(),
    ) {
        prop_assume!((1usize << k) <= n);
        let s = generators::dominant_random::<f64>(n, seed);
        let mono = pcr::reduce(&s, k).unwrap();
        let (ma, ..) = mono.arrays();
        let mut pipe = StreamingStencil::new(PcrOp::default(), n, k).unwrap();
        let mut fed = 0usize;
        while fed < n {
            let end = (fed + chunk).min(n);
            for i in fed..end {
                pipe.push(scalable_tridiag::tridiag_core::cr::Row::from_system(&s, i)).unwrap();
            }
            fed = end;
        }
        let (rows, stats) = pipe.finish().unwrap();
        prop_assert_eq!(stats.rows_loaded, n);
        for (i, r) in rows.iter().enumerate() {
            prop_assert_eq!(r.a, ma[i]);
        }
    }

    /// Every host algorithm (Thomas, CR, PCR, tiled-PCR + p-Thomas
    /// hybrid) agrees with the cpu-ref engine on diagonally dominant
    /// random systems, in both precisions, within a tolerance derived
    /// from the estimated condition number.
    #[test]
    fn algorithms_agree_on_dominant_systems(
        n in 4usize..300,
        seed in any::<u64>(),
    ) {
        algorithms_match_cpu_ref(&generators::dominant_random::<f64>(n, seed))?;
        algorithms_match_cpu_ref(&generators::dominant_random::<f32>(n, seed))?;
    }

    /// Same agreement on dominant Toeplitz systems (constant stencil —
    /// the PDE/spline case), including negative-diagonal stencils.
    #[test]
    fn algorithms_agree_on_toeplitz_systems(
        n in 4usize..300,
        a in -1.0f64..1.0,
        c in -1.0f64..1.0,
        margin in 0.25f64..4.0,
        neg in any::<bool>(),
        seed in any::<u64>(),
    ) {
        algorithms_match_cpu_ref(&toeplitz_dominant::<f64>(n, a, c, margin, neg, seed))?;
        algorithms_match_cpu_ref(&toeplitz_dominant::<f32>(n, a, c, margin, neg, seed))?;
    }

    /// The condition-derived tolerance is honored end-to-end by the
    /// simulated GPU solver too (both precisions, Toeplitz batch).
    #[test]
    fn gpu_solver_within_condition_tolerance(
        m in 1usize..6,
        n in 8usize..200,
        margin in 0.5f64..4.0,
        seed in any::<u64>(),
    ) {
        let sys = toeplitz_dominant::<f64>(n, -1.0, -1.0, margin, false, seed);
        let tol = condition_tolerance(&sys);
        let batch = SystemBatch::from_systems(vec![sys; m]).unwrap();
        let (x, _) = GpuTridiagSolver::gtx480().solve_batch(&batch).unwrap();
        prop_assert!(batch.max_relative_residual(&x).unwrap() < tol);
    }

    /// choose_k never returns an invalid step count.
    #[test]
    fn transition_always_valid(m in 1usize..100_000, n in 1usize..100_000) {
        for policy in [
            transition::TransitionPolicy::Gtx480Heuristic,
            transition::TransitionPolicy::Fixed(9),
        ] {
            let k = transition::choose_k(policy, m, n);
            prop_assert!((1usize << k) <= n.max(1), "policy {:?}: k={} n={}", policy, k, n);
        }
    }
}
