//! Table III reproduction: the transition heuristic `k(M)` re-derived
//! empirically on the simulated GTX480 by the planner's own search
//! ([`autotune::candidates`] and [`autotune::pick`]), printed next to
//! the paper's values and the planner's checked-in tuned table (the
//! default decision, `k` and mapping), plus the Table I window
//! properties for each configuration.
//!
//! Check to make against the paper: the tuned `k` is large (7–8) for a
//! handful of systems, steps down through the `M` ranges, and hits 0 by
//! `M ≈ 1024` — the same staircase as Table III (the exact break
//! points may shift by one range; they are empirical on both sides).
//!
//! Run: `cargo run --release -p bench --bin table3 [-- --fast]`

use bench::table::TextTable;
use bench::HarnessArgs;
use gpu_sim::DeviceSpec;
use tridiag_core::cost_model;
use tridiag_core::sliding_window::WindowProperties;
use tridiag_gpu::autotune;
use tridiag_gpu::plan::cost;
use tridiag_gpu::{GpuSolverConfig, GpuTridiagSolver};

/// The search's pick at one `M`, with `k = 0`'s time beside it.
#[derive(Debug)]
struct Point {
    m: usize,
    n: usize,
    best_k: u32,
    best_us: f64,
    k0_us: f64,
}

/// Time every candidate decision for `m` f64 systems of `n` rows on
/// `spec` and keep the pick.
fn tune(spec: &DeviceSpec, m: usize, n: usize) -> Point {
    let timed = autotune::candidates(spec, 8, m, n).expect("tuning run");
    let paper = cost::table3_decision(spec, &GpuSolverConfig::default(), m, n, 8);
    let best = autotune::pick(&timed, paper).expect("k = 0 is always timed");
    Point {
        m,
        n,
        best_k: best.decision.k,
        best_us: best.us,
        k0_us: timed[0].us,
    }
}

fn main() {
    let args = HarnessArgs::parse();
    let gtx480 = DeviceSpec::gtx480();

    // Representative M per Table III range.
    let m_values: Vec<usize> = if args.fast {
        vec![8, 2048]
    } else {
        vec![1, 8, 16, 24, 32, 256, 512, 768, 1024, 4096]
    };
    let n = if args.fast { 1024 } else { 4096 };

    println!("== Table III: transition point k(M), tuned on the simulated GTX480 (N = {n}) ==");
    let points: Vec<Point> = m_values.iter().map(|&m| tune(&gtx480, m, n)).collect();
    let mut t = TextTable::new([
        "M",
        "paper k",
        "paper tile",
        "table k",
        "table mapping",
        "tuned k",
        "tuned tile",
        "tuned [us]",
        "k=0 [us]",
    ]);
    let mut csv = Vec::new();
    for p in &points {
        let paper_k = cost_model::gtx480_heuristic_k(p.m as u64);
        let table = GpuTridiagSolver::gtx480()
            .plan_geometry(p.m, p.n, 8)
            .expect("default plan");
        t.row([
            p.m.to_string(),
            paper_k.to_string(),
            cost_model::gtx480_heuristic_tile(p.m as u64).to_string(),
            table.k.to_string(),
            format!("{:?}", table.mapping),
            p.best_k.to_string(),
            (1u64 << p.best_k).to_string(),
            format!("{:.1}", p.best_us),
            format!("{:.1}", p.k0_us),
        ]);
        csv.push(format!(
            "{},{paper_k},{},{},{},{:.3},{:.3}",
            p.m, table.k, p.best_k, p.n, p.best_us, p.k0_us
        ));
    }
    print!("{}", t.render());

    // Staircase check: tuned k must be non-increasing in M and reach 0.
    for w in points.windows(2) {
        assert!(
            w[1].best_k <= w[0].best_k,
            "tuned k must not grow with M: {:?} -> {:?}",
            w[0],
            w[1]
        );
    }
    if let Some(last) = points.last() {
        if last.m >= 1024 {
            assert_eq!(last.best_k, 0, "saturated batches must skip PCR");
        }
    }
    println!("\nstaircase check: tuned k is non-increasing in M ✓");

    // Table I companion: buffered sliding window properties per k.
    println!("\n== Table I: buffered sliding window properties (c = 1) ==");
    let mut t1 = TextTable::new([
        "k",
        "sub-tile c*2^k",
        "cache 3*f(k)",
        "threads 2^k",
        "elim/thread c*k",
        "elim/sub-tile",
        "shared bytes (f64)",
    ]);
    for k in [2u32, 4, 5, 6, 7, 8] {
        let w = WindowProperties::new(k, 1).expect("valid");
        t1.row([
            k.to_string(),
            w.sub_tile().to_string(),
            w.cache_rows().to_string(),
            w.threads_per_block().to_string(),
            w.eliminations_per_thread().to_string(),
            w.eliminations_per_sub_tile().to_string(),
            w.shared_bytes(8).to_string(),
        ]);
    }
    print!("{}", t1.render());

    args.write_csv("table3", "m,paper_k,table_k,tuned_k,n,tuned_us,k0_us", &csv)
        .expect("write csv");
}
