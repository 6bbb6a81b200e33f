//! A guided replay of the paper's running example (Fig. 6): one
//! 8-element system solved by the hybrid — one PCR step splits it into
//! two interleaved 4-element systems, then two "threads" of Thomas
//! finish them in parallel.
//!
//! Prints every intermediate quantity so the data flow of the figure
//! can be followed number by number, and cross-checks each stage
//! against the direct solve.
//!
//! Run: `cargo run --release --example paper_walkthrough`

use scalable_tridiag::tridiag_core::{pcr, thomas, TridiagonalSystem};

fn print_rows(label: &str, a: &[f64], b: &[f64], c: &[f64], d: &[f64]) {
    println!("{label}");
    for i in 0..b.len() {
        println!(
            "  e{}: {:8.4} {:8.4} {:8.4} | {:8.4}",
            i, a[i], b[i], c[i], d[i]
        );
    }
}

fn main() {
    // The 8-element system of Figs. 2/4/6, with concrete dominant
    // numbers. Exact solution x = (1, 2, ..., 8) by construction.
    let n = 8usize;
    let x_true: Vec<f64> = (1..=n).map(|v| v as f64).collect();
    let lower = vec![0.0, -1.0, -1.0, -1.0, -1.0, -1.0, -1.0, -1.0];
    let diag = vec![4.0; n];
    let upper = vec![-1.0, -1.0, -1.0, -1.0, -1.0, -1.0, -1.0, 0.0];
    // d = A x_true.
    let probe = TridiagonalSystem::new(lower.clone(), diag.clone(), upper.clone(), vec![0.0; n])
        .expect("operator");
    let d = probe.apply(&x_true).expect("rhs");
    let system = TridiagonalSystem::new(lower, diag, upper, d).expect("system");

    println!("=== the 8-element system of Fig. 6 (rows e0..e7) ===");
    let (a, b, c, dd) = system.parts();
    print_rows("input rows (a, b, c | d):", a, b, c, dd);

    // --- stage 1: one PCR step (Eqs. 5-6) ----------------------------
    println!("\n=== one PCR step: every row couples to rows ±2 ===");
    let reduced = pcr::reduce(&system, 1).expect("one step");
    let (ra, rb, rc, rd) = reduced.arrays();
    print_rows(
        "reduced rows e'0..e'7 (interleaved in place):",
        ra,
        rb,
        rc,
        rd,
    );
    println!(
        "-> {} independent subsystems, stride {}",
        reduced.num_subsystems(),
        reduced.stride()
    );

    // --- stage 2: two p-Thomas "threads" -----------------------------
    println!("\n=== p-Thomas: thread j solves rows j, j+2, j+4, j+6 ===");
    let mut x = vec![0.0f64; n];
    for j in 0..reduced.num_subsystems() {
        let sub = reduced.subsystem(j).expect("subsystem");
        let (sa, sb, sc, sd) = sub.parts();
        print_rows(
            &format!("thread {j} sees (even/odd rows gathered):"),
            sa,
            sb,
            sc,
            sd,
        );
        let xs = thomas::solve_typed(&sub).expect("thread solve");
        println!("  thread {j} solution: {xs:?}");
        for (t, &v) in xs.iter().enumerate() {
            x[j + t * reduced.stride()] = v;
        }
    }

    println!("\n=== scattered back to original order ===");
    println!("  x        = {x:?}");
    println!("  expected = {x_true:?}");
    let err = x
        .iter()
        .zip(&x_true)
        .map(|(a, b)| (a - b).abs())
        .fold(0.0f64, f64::max);
    println!("  max error = {err:.2e}");
    assert!(err < 1e-12, "the walkthrough must be exact");

    // Also confirm the direct solve agrees — the whole point of the
    // divide-and-conquer: same answer, restructured work.
    let direct = thomas::solve_typed(&system).expect("direct");
    let diff = x
        .iter()
        .zip(&direct)
        .map(|(a, b)| (a - b).abs())
        .fold(0.0f64, f64::max);
    println!("  |hybrid - direct Thomas| = {diff:.2e}");
    println!("\nOK: Fig. 6's pipeline reproduced end to end");
}
