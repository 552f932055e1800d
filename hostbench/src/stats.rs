//! Order statistics for host-time samples.
//!
//! Timings are summarized as a median plus the highest percentile that
//! still has at least [`MIN_BEYOND`] samples beyond it, always with the
//! sample count — a p99 of 40 samples is one outlier, not a tail.

/// Samples a reported percentile must have strictly beyond its rank.
pub const MIN_BEYOND: usize = 10;

/// The percentile ladder a summary picks its tail from, highest first.
const LADDER: [f64; 4] = [99.9, 99.0, 95.0, 90.0];

/// Nearest-rank percentile `p` (0 < p ≤ 100) of `samples`: the value at
/// 1-based rank `ceil(p/100 · n)` of the sorted samples. `None` when
/// there are no samples.
pub fn percentile(samples: &[f64], p: f64) -> Option<f64> {
    let mut sorted = samples.to_vec();
    sorted.sort_by(f64::total_cmp);
    let rank = rank_of(p, sorted.len())?;
    Some(sorted[rank - 1])
}

/// The 1-based nearest rank of percentile `p` among `n` samples.
fn rank_of(p: f64, n: usize) -> Option<usize> {
    if n == 0 {
        return None;
    }
    // The epsilon keeps exact ranks exact (99.9% of 10 000 is 9990, not
    // the 9991 a rounding error in p/100 · n would make it).
    let rank = (p / 100.0 * n as f64 - 1e-9).ceil() as usize;
    Some(rank.clamp(1, n))
}

/// Samples strictly beyond percentile `p`'s rank among `n` samples.
pub fn beyond(p: f64, n: usize) -> usize {
    rank_of(p, n).map_or(0, |rank| n - rank)
}

/// The highest ladder percentile with at least [`MIN_BEYOND`] samples
/// beyond it, or `None` when even p90 is too thin.
pub fn tail_percentile(n: usize) -> Option<f64> {
    LADDER.into_iter().find(|&p| beyond(p, n) >= MIN_BEYOND)
}

/// The median (mean of the two middle samples for even counts).
pub fn median(samples: &[f64]) -> f64 {
    let mut sorted = samples.to_vec();
    sorted.sort_by(f64::total_cmp);
    let n = sorted.len();
    match n {
        0 => 0.0,
        _ if n % 2 == 1 => sorted[n / 2],
        _ => (sorted[n / 2 - 1] + sorted[n / 2]) / 2.0,
    }
}

/// One line: `median X unit (pNN Y unit, n=N)`, dropping the tail when
/// the sample count cannot support one.
pub fn summary(samples: &[f64], scale: f64, unit: &str) -> String {
    let n = samples.len();
    let med = median(samples) * scale;
    match tail_percentile(n).and_then(|p| Some((p, percentile(samples, p)?))) {
        Some((p, v)) => format!(
            "median {med:.4} {unit} (p{p} {:.4} {unit}, n={n})",
            v * scale
        ),
        None => {
            format!("median {med:.4} {unit} (n={n}; no tail percentile has 10 samples beyond it)")
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn nearest_rank_percentiles() {
        let v: Vec<f64> = (1..=100).map(f64::from).collect();
        assert_eq!(percentile(&v, 50.0), Some(50.0));
        assert_eq!(percentile(&v, 95.0), Some(95.0));
        assert_eq!(percentile(&v, 99.0), Some(99.0));
        assert_eq!(percentile(&v, 100.0), Some(100.0));
        assert_eq!(percentile(&[7.0], 99.0), Some(7.0));
        assert_eq!(percentile(&[], 50.0), None);
        // Unsorted input is fine.
        assert_eq!(percentile(&[3.0, 1.0, 2.0], 50.0), Some(2.0));
    }

    #[test]
    fn sample_count_rule_picks_the_highest_supported_tail() {
        // 100 samples: p90 leaves 10 beyond, p95 only 5.
        assert_eq!(beyond(90.0, 100), 10);
        assert_eq!(beyond(95.0, 100), 5);
        assert_eq!(tail_percentile(100), Some(90.0));
        // 315 cells (paper-perf): p95 leaves 15 beyond, p99 only 3.
        assert_eq!(tail_percentile(315), Some(95.0));
        // 1000: p99 leaves exactly 10.
        assert_eq!(tail_percentile(1000), Some(99.0));
        // 10 000: p99.9 leaves exactly 10.
        assert_eq!(tail_percentile(10_000), Some(99.9));
        // Too few for any tail.
        assert_eq!(tail_percentile(99), None);
        assert_eq!(tail_percentile(5), None);
        assert_eq!(tail_percentile(0), None);
    }

    #[test]
    fn medians_and_summaries() {
        assert_eq!(median(&[3.0, 1.0, 2.0]), 2.0);
        assert_eq!(median(&[4.0, 1.0, 3.0, 2.0]), 2.5);
        let few = summary(&[1.0, 2.0, 3.0], 1.0, "s");
        assert!(few.starts_with("median 2.0000 s (n=3;"), "{few}");
        let many: Vec<f64> = (1..=315).map(f64::from).collect();
        let line = summary(&many, 1.0, "ms");
        assert!(line.contains("p95 300.0000 ms, n=315"), "{line}");
    }
}
