//! The host-clock yardstick.
//!
//! Raw host time on a shared VM drifts by 10% or more from one minute
//! to the next while the work stays the same. The benchmark times a
//! fixed yardstick before the first op and after every op, and scales
//! each op's host time by `reference_ms / mean(sample before, sample
//! after)`: time on the reference machine.
//!
//! One sample times two parts of about 1 ms each:
//! - a plain sequential Thomas solve over a 64 x 1024 f64 batch
//!   (floating point, bound by the division latency chain);
//! - a count of 128-byte segments and shared-memory bank conflicts over
//!   synthetic warp accesses (integer and branchy, the shape of the
//!   simulator's own inner loop).
//!
//! Over 116 five-second windows on the reference VM, a hybrid op's host
//! time divided by the Thomas part alone varied with a coefficient of
//! variation of 9.9% (service session: 9.8%); divided by both parts,
//! 6.5% (6.2%). A workload whose ops run on two threads gets a two-thread
//! yardstick: both copies run at once and the sample is their wall time.
//! Everything here lives in the benchmark, so no change to the program
//! can move the yardstick.

use std::hint::black_box;
use std::time::Instant;

use tridiag_core::Layout;

use crate::workload;

/// Median yardstick sample on the reference machine (2-vCPU x86-64 VM),
/// in milliseconds, for one and for two threads: the median over the
/// runs' own medians in the 10-seed calibration set (30 runs of the
/// one-thread workloads, 10 of `multi_device`).
const REFERENCE_MS: [f64; 2] = [2.274, 3.386];

const SYSTEMS: usize = 64;
const ROWS: usize = 1024;
const SEED: u64 = 0x5EED_CA1B;
const WARPS: usize = 3000;

/// One thread's copy of the yardstick's work.
struct Part {
    a: Vec<f64>,
    b: Vec<f64>,
    c: Vec<f64>,
    d: Vec<f64>,
    c_prime: Vec<f64>,
    x: Vec<f64>,
}

impl Part {
    fn new() -> Part {
        let batch = workload::batch::<f64>(SYSTEMS, ROWS, Layout::Contiguous, SEED);
        let (a, b, c, d) = batch.arrays();
        Part {
            a: a.to_vec(),
            b: b.to_vec(),
            c: c.to_vec(),
            d: d.to_vec(),
            c_prime: vec![0.0; ROWS],
            x: vec![0.0; SYSTEMS * ROWS],
        }
    }

    /// Thomas on every system, in batch order.
    fn solve(&mut self) {
        let (a, b, c, d) = (black_box(&self.a), &self.b, &self.c, &self.d);
        let (cp, x) = (&mut self.c_prime, &mut self.x);
        for s in 0..SYSTEMS {
            let o = s * ROWS;
            cp[0] = c[o] / b[o];
            x[o] = d[o] / b[o];
            for i in 1..ROWS {
                let denom = b[o + i] - a[o + i] * cp[i - 1];
                cp[i] = c[o + i] / denom;
                x[o + i] = (d[o + i] - a[o + i] * x[o + i - 1]) / denom;
            }
            for i in (0..ROWS - 1).rev() {
                x[o + i] -= cp[i] * x[o + i + 1];
            }
        }
        black_box(&self.x);
    }

    fn run(&mut self) {
        self.solve();
        black_box(warp_accesses(black_box(WARPS)));
    }
}

pub struct Yardstick {
    parts: Vec<Part>,
    samples_ms: Vec<f64>,
}

impl Yardstick {
    /// A yardstick run on `threads` (1 or 2) threads at once.
    pub fn new(threads: usize) -> Yardstick {
        assert!(
            (1..=REFERENCE_MS.len()).contains(&threads),
            "{threads} yardstick threads"
        );
        Yardstick {
            parts: (0..threads).map(|_| Part::new()).collect(),
            samples_ms: Vec::new(),
        }
    }

    /// The median sample of this yardstick on the reference machine.
    pub fn reference_ms(&self) -> f64 {
        REFERENCE_MS[self.parts.len() - 1]
    }

    /// Time one sample, keep it and return it (ms).
    fn sample(&mut self) -> f64 {
        let t = Instant::now();
        match self.parts.as_mut_slice() {
            [one] => one.run(),
            [first, rest @ ..] => std::thread::scope(|scope| {
                for part in rest.iter_mut() {
                    scope.spawn(move || part.run());
                }
                first.run();
            }),
            [] => unreachable!("a yardstick has at least one part"),
        }
        let ms = t.elapsed().as_secs_f64() * 1e3;
        self.samples_ms.push(ms);
        ms
    }

    /// Run `f` between two samples (the first one shared with the
    /// previous call) and return its result, its raw seconds and the
    /// mean of the two samples.
    pub fn around<T>(&mut self, f: impl FnOnce() -> T) -> (T, f64, f64) {
        let before = match self.samples_ms.last() {
            Some(&ms) => ms,
            None => self.sample(),
        };
        let t = Instant::now();
        let out = f();
        let secs = t.elapsed().as_secs_f64();
        let after = self.sample();
        (out, secs, 0.5 * (before + after))
    }

    /// Every sample taken so far.
    pub fn samples(&self) -> &[f64] {
        &self.samples_ms
    }
}

/// 128-byte segments a warp's f64 accesses touch, plus the worst
/// 32-bank conflict degree of the same accesses in shared memory.
fn warp_cost(lanes: &[usize; 32]) -> u64 {
    let mut segments = [u64::MAX; 32];
    let mut n_segments = 0;
    let mut words = [u64::MAX; 32];
    let mut n_words = 0;
    let mut per_bank = [0u8; 32];
    for &i in lanes {
        let segment = (i * 8 / 128) as u64;
        if !segments[..n_segments].contains(&segment) {
            segments[n_segments] = segment;
            n_segments += 1;
        }
        let word = (i * 8 / 4) as u64;
        if !words[..n_words].contains(&word) {
            words[n_words] = word;
            n_words += 1;
            per_bank[(word % 32) as usize] += 1;
        }
    }
    n_segments as u64 + u64::from(per_bank.iter().copied().max().unwrap_or(0))
}

/// [`warp_cost`] summed over `warps` synthetic warps with strides 1–37.
fn warp_accesses(warps: usize) -> u64 {
    let mut lanes = [0usize; 32];
    (0..warps)
        .map(|w| {
            for (l, lane) in lanes.iter_mut().enumerate() {
                *lane = (w * 7 + l * (1 + w % 37)) ^ (w >> 3);
            }
            warp_cost(&lanes)
        })
        .sum()
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn yardstick_matches_the_cpu_reference() {
        let mut part = Part::new();
        part.solve();
        let batch = workload::batch::<f64>(SYSTEMS, ROWS, Layout::Contiguous, SEED);
        let reference = cpu_ref::solve_batch_sequential(&batch).expect("dominant systems solve");
        let worst = part
            .x
            .iter()
            .zip(&reference)
            .map(|(p, q)| (p - q).abs())
            .fold(0.0f64, f64::max);
        assert!(worst <= 1e-12, "max |x - x_ref| = {worst:e}");
    }

    #[test]
    fn warp_costs_count_segments_and_bank_conflicts() {
        // Unit stride: 32 x 8 bytes span two segments; f64 words are
        // even, so every even bank is hit twice.
        let unit: [usize; 32] = std::array::from_fn(|l| l);
        assert_eq!(warp_cost(&unit), 2 + 2);
        // One shared element: one segment, one word, no conflict.
        assert_eq!(warp_cost(&[5; 32]), 1 + 1);
        // Stride 16 f64 = 128 bytes: a segment and bank 0 per lane.
        let strided: [usize; 32] = std::array::from_fn(|l| 16 * l);
        assert_eq!(warp_cost(&strided), 32 + 32);
        assert_eq!(warp_accesses(40), warp_accesses(40));
    }

    #[test]
    fn calls_sit_between_consecutive_samples() {
        for threads in [1, 2] {
            let mut y = Yardstick::new(threads);
            let (x, secs, first) = y.around(|| 7);
            assert_eq!(x, 7);
            assert_eq!(y.samples().len(), 2);
            let (_, _, second) = y.around(|| ());
            assert_eq!(y.samples().len(), 3, "consecutive calls share a sample");
            let s = y.samples();
            assert_eq!(first, 0.5 * (s[0] + s[1]));
            assert_eq!(second, 0.5 * (s[1] + s[2]));
            assert!(secs >= 0.0 && y.reference_ms() > 0.0);
        }
    }
}
