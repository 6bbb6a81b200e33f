//! Property tests over the whole algorithm set in `tridiag-core`.

use proptest::prelude::*;
use tridiag_core::generators::dominant_random;
use tridiag_core::{cost_model, cr, factored, pcr, rd, thomas};

proptest! {
    #![proptest_config(ProptestConfig::with_cases(48))]

    /// Thomas, CR, PCR and RD agree on arbitrary diagonally dominant
    /// systems of arbitrary (not just power-of-two) sizes.
    #[test]
    fn four_algorithms_agree(n in 1usize..700, seed in any::<u64>()) {
        let s = dominant_random::<f64>(n, seed);
        let reference = thomas::solve_typed(&s).unwrap();
        let scale = reference.iter().fold(1.0f64, |a, &b| a.max(b.abs()));
        for (name, result) in [
            ("cr", cr::solve(&s).unwrap()),
            ("pcr", pcr::solve(&s).unwrap()),
            ("rd", rd::solve(&s).unwrap()),
        ] {
            for i in 0..n {
                prop_assert!(
                    (result[i] - reference[i]).abs() < 1e-7 * scale,
                    "{} row {}: {} vs {}", name, i, result[i], reference[i]
                );
            }
        }
    }

    /// The factored solve equals the direct solve for any RHS.
    #[test]
    fn factored_equals_direct(n in 1usize..400, seed in any::<u64>(), seed2 in any::<u64>()) {
        let s = dominant_random::<f64>(n, seed);
        let f = factored::FactoredTridiagonal::new(&s).unwrap();
        // A different RHS than the one the system was built with.
        let d = dominant_random::<f64>(n, seed2).rhs().to_vec();
        let sys2 = tridiag_core::TridiagonalSystem::new(
            s.lower().to_vec(), s.diag().to_vec(), s.upper().to_vec(), d.clone()
        ).unwrap();
        let direct = thomas::solve_typed(&sys2).unwrap();
        let via_factor = f.solve(&d).unwrap();
        for i in 0..n {
            prop_assert!((direct[i] - via_factor[i]).abs() < 1e-9 * direct[i].abs().max(1.0));
        }
    }

    /// Eq. 8/9 closed forms: f strictly increasing, g non-decreasing,
    /// and g(k+1) ≥ 2·g(k) for k ≥ 2 (exponential growth).
    #[test]
    fn redundancy_growth_laws(k in 1u32..20) {
        prop_assert!(cost_model::halo_elements(k + 1) > cost_model::halo_elements(k));
        let g0 = cost_model::redundant_eliminations(k);
        let g1 = cost_model::redundant_eliminations(k + 1);
        prop_assert!(g1 >= g0);
        if k >= 2 {
            prop_assert!(g1 >= 2 * g0);
        }
    }

    /// Table II hybrid cost: monotone in M for fixed k, and k = 0
    /// reduces to the Thomas-per-wave expression.
    #[test]
    fn hybrid_cost_laws(
        m in 1u64..1_000_000,
        n_exp in 6u32..22,
        k in 0u32..6,
        p in prop::sample::select(vec![1024u64, 23040, 65536]),
    ) {
        let n = 1u64 << n_exp;
        prop_assume!((1u64 << k) <= n);
        let c1 = cost_model::hybrid_cost(m, n, p, k);
        let c2 = cost_model::hybrid_cost(m * 2, n, p, k);
        prop_assert!(c2 >= c1 * 0.999, "doubling M cannot cut cost: {} -> {}", c1, c2);
        prop_assert!(c1 > 0.0);
    }

    /// Incomplete PCR subsystems partition the row set exactly.
    #[test]
    fn subsystems_partition_rows(n in 8usize..300, k in 1u32..4, seed in any::<u64>()) {
        prop_assume!((1usize << k) <= n);
        let s = dominant_random::<f64>(n, seed);
        let red = pcr::reduce(&s, k).unwrap();
        let mut covered = vec![false; n];
        for j in 0..red.num_subsystems() {
            let sub = red.subsystem(j).unwrap();
            let mut count = 0usize;
            for (t, _) in (j..n).step_by(red.stride()).enumerate() {
                let row = j + t * red.stride();
                prop_assert!(!covered[row], "row {} covered twice", row);
                covered[row] = true;
                count += 1;
            }
            prop_assert_eq!(count, sub.len());
        }
        prop_assert!(covered.into_iter().all(|c| c), "every row covered");
    }
}
