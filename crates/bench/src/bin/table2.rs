//! Table II reproduction: the elimination-step cost model of Thomas,
//! PCR and the k-step hybrid across the `M vs P` regimes, evaluated
//! analytically and cross-checked against the simulator's counters.
//!
//! Checks to make against the paper: (1) Thomas cost is flat in `M`
//! until `M > P`, then grows as `M/P`; (2) PCR always amortises but
//! carries the `log` factor; (3) the hybrid interpolates, with the
//! optimal `k` falling as `M` grows — the analytic justification for
//! Table III.
//!
//! Run: `cargo run --release -p bench --bin table2 [-- --fast]`

use bench::table::TextTable;
use bench::HarnessArgs;
use tridiag_core::cost_model;

fn main() {
    let args = HarnessArgs::parse();
    // The paper's parallelism P for a GTX480 = resident threads.
    let p = gpu_sim::DeviceSpec::gtx480().parallelism();
    let n_size = 16384u64; // 2^n with n = 14

    println!("== Table II: elimination-step costs (N = {n_size}, P = {p}) ==");
    let mut t = TextTable::new([
        "M",
        "regime",
        "Thomas",
        "PCR",
        "hybrid k=4",
        "hybrid k=8",
        "best k",
    ]);
    let mut csv = Vec::new();
    let ms: &[u64] = if args.fast {
        &[16, 65536]
    } else {
        &[1, 16, 256, 4096, 23040, 65536, 1 << 20]
    };
    for &m in ms {
        let regime = if m > p { "M > P" } else { "M <= P" };
        let thomas = cost_model::thomas_cost(m, n_size, p);
        let pcr = cost_model::pcr_cost(m, n_size, p);
        let h4 = cost_model::hybrid_cost(m, n_size, p, 4);
        let h8 = cost_model::hybrid_cost(m, n_size, p, 8);
        let best = cost_model::optimal_k(m, n_size, p, 10);
        t.row([
            m.to_string(),
            regime.to_string(),
            format!("{thomas:.0}"),
            format!("{pcr:.0}"),
            format!("{h4:.0}"),
            format!("{h8:.0}"),
            best.to_string(),
        ]);
        csv.push(format!(
            "{m},{regime},{thomas:.1},{pcr:.1},{h4:.1},{h8:.1},{best}"
        ));
    }
    print!("{}", t.render());

    // Cross-check: the hybrid's *work* terms against simulator counters
    // (eliminations are counted exactly by the kernels).
    println!("\n== cross-check: analytic k·N PCR work vs simulated eliminations ==");
    let mut t2 = TextTable::new(["N", "k", "analytic k*N", "simulated", "match"]);
    let checks: &[(usize, u32)] = if args.fast {
        &[(1024, 3)]
    } else {
        &[(1024, 3), (4096, 5), (16384, 6)]
    };
    for &(n, k) in checks {
        let sys = tridiag_core::generators::dominant_random::<f64>(n, 7);
        let (_, stats) = tridiag_core::tiled_pcr::reduce_streamed(&sys, k, 1 << k).expect("reduce");
        let analytic = k as usize * n;
        // Flush work is the only excess; bounded by k·2·f(k), n-free.
        let excess = stats.eliminations - analytic;
        let ok = excess <= 2 * k as usize * ((1 << k) - 1);
        t2.row([
            n.to_string(),
            k.to_string(),
            analytic.to_string(),
            stats.eliminations.to_string(),
            if ok { "yes (flush only)" } else { "NO" }.to_string(),
        ]);
        assert!(ok, "counter mismatch beyond flush tolerance");
    }
    print!("{}", t2.render());

    args.write_csv(
        "table2",
        "m,regime,thomas,pcr,hybrid_k4,hybrid_k8,best_k",
        &csv,
    )
    .expect("write csv");
}
