//! Order statistics over latency samples.
//!
//! Percentiles use the nearest-rank rule: the `q`-quantile of `n`
//! sorted samples is the sample at rank `⌈q·n⌉` (1-based), so
//! `n − ⌈q·n⌉` samples lie beyond it. A tail percentile is only
//! reported when at least [`MIN_BEYOND`] samples lie beyond it. Each
//! workload fixes its tail quantile, the highest its sample count keeps
//! well clear of that rule, so the figure means the same on every run.

/// Samples that must lie beyond a reported tail percentile.
pub const MIN_BEYOND: usize = 10;

/// Median of `xs` (mean of the two middle values for an even count).
/// `None` when `xs` is empty.
pub fn median(xs: &[f64]) -> Option<f64> {
    let s = sorted(xs);
    let n = s.len();
    match n {
        0 => None,
        _ if n % 2 == 1 => Some(s[n / 2]),
        _ => Some((s[n / 2 - 1] + s[n / 2]) / 2.0),
    }
}

/// Nearest-rank `q`-quantile of `xs`, for `0 < q <= 1`.
pub fn percentile(xs: &[f64], q: f64) -> Option<f64> {
    let s = sorted(xs);
    let rank = rank_of(s.len(), q)?;
    Some(s[rank - 1])
}

/// Samples strictly beyond the nearest-rank `q`-quantile of `n` samples.
pub fn beyond(n: usize, q: f64) -> usize {
    rank_of(n, q).map_or(0, |rank| n - rank)
}

/// A tail percentile that meets the ten-beyond rule.
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct Tail {
    /// The quantile (e.g. `0.99`).
    pub q: f64,
    /// The sample at that quantile.
    pub value: f64,
    /// Samples beyond it (at least [`MIN_BEYOND`]), in the window with
    /// the fewest.
    pub beyond: usize,
}

impl Tail {
    /// Label such as `p99` or `p99.9`.
    pub fn label(&self) -> String {
        format!("p{}", (self.q * 1000.0).round() / 10.0)
    }
}

/// The `q`-quantile in each of `windows` equal consecutive chunks of
/// `xs`, median over the chunks, so a stall confined to one chunk moves
/// it little; with one window it is the quantile of all samples. `None`
/// unless every chunk has at least [`MIN_BEYOND`] samples beyond it.
pub fn tail(xs: &[f64], windows: usize, q: f64) -> Option<Tail> {
    let windows = windows.max(1);
    let chunks: Vec<Vec<f64>> = (0..windows)
        .map(|w| sorted(&xs[w * xs.len() / windows..(w + 1) * xs.len() / windows]))
        .collect();
    let least_beyond = chunks.iter().map(|c| beyond(c.len(), q)).min().unwrap_or(0);
    if least_beyond < MIN_BEYOND {
        return None;
    }
    let values: Vec<f64> =
        chunks.iter().map(|c| c[rank_of(c.len(), q).expect("qualifying quantile") - 1]).collect();
    Some(Tail { q, value: median(&values)?, beyond: least_beyond })
}

fn rank_of(n: usize, q: f64) -> Option<usize> {
    (n > 0 && q > 0.0 && q <= 1.0).then(|| ((q * n as f64).ceil() as usize).clamp(1, n))
}

fn sorted(xs: &[f64]) -> Vec<f64> {
    let mut s = xs.to_vec();
    s.sort_by(f64::total_cmp);
    s
}

#[cfg(test)]
mod tests {
    use super::*;

    fn ramp(n: usize) -> Vec<f64> {
        // Reversed so the helpers must sort.
        (1..=n).rev().map(|i| i as f64).collect()
    }

    #[test]
    fn median_odd_even_empty() {
        assert_eq!(median(&[3.0, 1.0, 2.0]), Some(2.0));
        assert_eq!(median(&[4.0, 1.0, 3.0, 2.0]), Some(2.5));
        assert_eq!(median(&[]), None);
    }

    #[test]
    fn nearest_rank_percentiles() {
        let xs = ramp(100);
        assert_eq!(percentile(&xs, 0.5), Some(50.0));
        assert_eq!(percentile(&xs, 0.95), Some(95.0));
        assert_eq!(percentile(&xs, 0.99), Some(99.0));
        assert_eq!(percentile(&xs, 1.0), Some(100.0));
        assert_eq!(percentile(&[], 0.5), None);
        assert_eq!(percentile(&xs, 0.0), None);
    }

    #[test]
    fn beyond_counts_samples_past_the_rank() {
        assert_eq!(beyond(200, 0.95), 10);
        assert_eq!(beyond(199, 0.95), 9);
        assert_eq!(beyond(1000, 0.99), 10);
        assert_eq!(beyond(0, 0.99), 0);
    }

    #[test]
    fn tail_needs_ten_samples_beyond() {
        // 1000 samples: p99 has exactly 10 beyond.
        let t = tail(&ramp(1000), 1, 0.99).expect("p99 qualifies");
        assert_eq!((t.q, t.value, t.beyond), (0.99, 990.0, 10));
        assert_eq!(t.label(), "p99");
        // 999 samples: p99 has 9 beyond.
        assert_eq!(tail(&ramp(999), 1, 0.99), None);
        assert_eq!(tail(&ramp(999), 1, 0.95).map(|t| t.beyond), Some(49));
        // 40 samples: p75 has exactly 10 beyond; 39 fall short.
        let t = tail(&ramp(40), 1, 0.75).expect("p75 qualifies");
        assert_eq!((t.q, t.value, t.beyond), (0.75, 30.0, 10));
        assert_eq!(tail(&ramp(39), 1, 0.75), None);
    }

    #[test]
    fn windowed_tail_is_the_median_of_window_tails() {
        // Four windows of 100 samples, scaled 1x, 2x, 3x and 100x (a
        // stall): each window's p90 is 90 x its scale.
        let xs: Vec<f64> = [1.0, 2.0, 3.0, 100.0]
            .iter()
            .flat_map(|s| (1..=100).map(move |i| i as f64 * s))
            .collect();
        let t = tail(&xs, 4, 0.9).expect("p90 qualifies per window");
        assert_eq!((t.q, t.beyond), (0.9, 10));
        assert_eq!(t.value, (180.0 + 270.0) / 2.0);
        // p95 leaves 5 beyond per window, but 20 over one window of 400.
        assert_eq!(tail(&xs, 4, 0.95), None);
        assert_eq!(tail(&xs, 1, 0.95).map(|t| t.beyond), Some(20));
    }

    #[test]
    fn fractional_label() {
        let t = Tail { q: 0.999, value: 1.0, beyond: 10 };
        assert_eq!(t.label(), "p99.9");
    }
}
