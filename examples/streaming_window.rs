//! The generalised buffered sliding window (the paper's Section VI
//! future work) applied beyond tridiagonal solving: log-depth
//! morphological dilation and binomial smoothing of a long signal, with
//! O(2^k) resident state no matter how long the stream is.
//!
//! Run: `cargo run --release --example streaming_window`

use scalable_tridiag::tridiag_core::streaming::{apply, DilationOp, SmoothingOp, StreamingStencil};

fn main() {
    // A noisy signal with a few sharp events.
    let n = 2_000_000usize;
    let signal: Vec<f64> = (0..n)
        .map(|i| {
            let t = i as f64 / n as f64;
            let base = (12.0 * std::f64::consts::PI * t).sin() * 0.3;
            let noise = ((i.wrapping_mul(2654435761)) % 1000) as f64 / 2500.0 - 0.2;
            let spike = if i % 250_000 == 0 { 4.0 } else { 0.0 };
            base + noise + spike
        })
        .collect();

    // --- dilation: running max over radius 2^k - 1 in k levels -------
    let k = 10u32; // radius 1023
    let t0 = std::time::Instant::now();
    let dilated = apply(DilationOp, &signal, k).expect("dilation");
    let dt = t0.elapsed();
    println!(
        "dilation radius {} over {} samples: {:?} ({:.1} ns/sample, {} levels)",
        (1 << k) - 1,
        n,
        dt,
        dt.as_nanos() as f64 / n as f64,
        k
    );
    // Every spike should dominate its whole neighbourhood.
    let radius = (1usize << k) - 1;
    for spike_at in (0..n).step_by(250_000) {
        let lo = spike_at.saturating_sub(radius / 2);
        let hi = (spike_at + radius / 2).min(n - 1);
        assert!(
            dilated[lo] >= 3.5 && dilated[hi] >= 3.5,
            "spike at {spike_at} must spread"
        );
    }

    // --- resident state is stream-length independent ------------------
    let small = StreamingStencil::new(DilationOp, 1_000, k).expect("small");
    let big = StreamingStencil::new(DilationOp, n, k).expect("big");
    println!(
        "resident window state: {} elements for 1K stream, {} for {}M stream",
        small.resident(),
        big.resident(),
        n / 1_000_000
    );
    assert_eq!(small.resident(), big.resident());

    // --- smoothing: noise suppression ---------------------------------
    let smooth = apply(SmoothingOp, &signal, 6).expect("smoothing");
    let rough = |v: &[f64]| -> f64 {
        v.windows(2).map(|w| (w[1] - w[0]).abs()).sum::<f64>() / (v.len() - 1) as f64
    };
    let before = rough(&signal[1000..n - 1000]);
    let after = rough(&smooth[1000..n - 1000]);
    println!(
        "binomial cascade (6 levels): mean |Δ| {:.4} -> {:.4} ({:.1}x smoother)",
        before,
        after,
        before / after
    );
    assert!(
        after < before / 3.0,
        "smoothing must suppress sample-to-sample noise"
    );
    println!("OK: the sliding-window machinery generalises exactly as Section VI anticipated");
}
