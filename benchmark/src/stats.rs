//! Order statistics. Percentiles are nearest-rank, the convention the
//! service report uses: the smallest sample with at least `p`% of the
//! samples at or below it.

/// 1-based nearest rank of percentile `p` among `n` samples.
pub fn rank(p: f64, n: usize) -> usize {
    ((p / 100.0 * n as f64).ceil() as usize).clamp(1, n.max(1))
}

/// Nearest-rank percentile of unsorted `samples` (0 when empty).
pub fn percentile(samples: &[f64], p: f64) -> f64 {
    if samples.is_empty() {
        return 0.0;
    }
    let mut sorted = samples.to_vec();
    sorted.sort_by(f64::total_cmp);
    sorted[rank(p, sorted.len()) - 1]
}

pub fn median(samples: &[f64]) -> f64 {
    percentile(samples, 50.0)
}

/// Distance between the nearest-rank quartiles.
pub fn iqr(samples: &[f64]) -> f64 {
    percentile(samples, 75.0) - percentile(samples, 25.0)
}

pub fn mean(samples: &[f64]) -> f64 {
    if samples.is_empty() {
        0.0
    } else {
        samples.iter().sum::<f64>() / samples.len() as f64
    }
}

/// Mean of the largest `frac` of the samples (at least one; 0 when
/// empty). Unlike a percentile it moves with every sample in the tail,
/// so a tail of a few distinct values cannot pin it to one of them.
pub fn tail_mean(samples: &[f64], frac: f64) -> f64 {
    if samples.is_empty() {
        return 0.0;
    }
    let mut sorted = samples.to_vec();
    sorted.sort_by(|a, b| b.total_cmp(a));
    let k = ((frac * sorted.len() as f64).ceil() as usize).clamp(1, sorted.len());
    mean(&sorted[..k])
}

#[cfg(test)]
mod tests {
    use super::*;

    /// Samples strictly beyond percentile `p`'s rank.
    fn beyond(p: f64, n: usize) -> usize {
        n - rank(p, n)
    }

    #[test]
    fn nearest_rank_percentiles() {
        let v: Vec<f64> = (1..=10).rev().map(f64::from).collect();
        assert_eq!(percentile(&v, 50.0), 5.0);
        assert_eq!(percentile(&v, 90.0), 9.0);
        assert_eq!(percentile(&v, 91.0), 10.0);
        assert_eq!(percentile(&v, 99.0), 10.0);
        assert_eq!(percentile(&v, 0.0), 1.0);
        assert_eq!(percentile(&[], 50.0), 0.0);
        assert_eq!(percentile(&[4.0], 99.0), 4.0);
        assert_eq!(iqr(&v), 8.0 - 3.0);
    }

    #[test]
    fn tail_means_average_the_largest_samples() {
        let v: Vec<f64> = (1..=20).map(f64::from).collect();
        assert_eq!(tail_mean(&v, 0.1), 19.5);
        assert_eq!(tail_mean(&v, 0.01), 20.0);
        assert_eq!(tail_mean(&[3.0], 0.1), 3.0);
        assert_eq!(tail_mean(&[], 0.1), 0.0);
        assert_eq!(mean(&v), 10.5);
    }

    #[test]
    fn ten_samples_lie_beyond_each_reported_percentile() {
        // p90 of the closed-loop workloads needs 100 ops; p99 of the
        // service's requests needs 1000.
        for n in [100, 120, 300] {
            assert!(beyond(90.0, n) >= 10, "p90 of {n}");
        }
        assert_eq!(beyond(90.0, 99), 9);
        assert!(beyond(99.0, 1000) >= 10);
        assert_eq!(beyond(99.0, 4000), 40);
    }
}
