//! Sample statistics and span arithmetic.

/// The `q`-quantile (0 ≤ q ≤ 1) of `samples` by linear interpolation
/// between closest ranks, the convention of numpy's default and of
/// Python's `statistics.quantiles(method="inclusive")`. `NaN` for no
/// samples.
pub fn percentile(samples: &[f64], q: f64) -> f64 {
    if samples.is_empty() {
        return f64::NAN;
    }
    let mut sorted = samples.to_vec();
    sorted.sort_by(f64::total_cmp);
    let rank = q.clamp(0.0, 1.0) * (sorted.len() - 1) as f64;
    let low = rank.floor() as usize;
    let high = rank.ceil() as usize;
    sorted[low] + (sorted[high] - sorted[low]) * (rank - low as f64)
}

/// The median of `samples`.
pub fn median(samples: &[f64]) -> f64 {
    percentile(samples, 0.5)
}

/// The arithmetic mean of `samples`; `NaN` for no samples.
pub fn mean(samples: &[f64]) -> f64 {
    samples.iter().sum::<f64>() / samples.len() as f64
}

/// Length of the part of `within` that the union of `intervals` covers.
/// Intervals are half-open `(start, end)` pairs and may overlap.
pub fn covered(within: (u64, u64), intervals: &[(u64, u64)]) -> u64 {
    let mut clipped: Vec<(u64, u64)> = intervals
        .iter()
        .map(|&(s, e)| (s.max(within.0), e.min(within.1)))
        .filter(|&(s, e)| s < e)
        .collect();
    clipped.sort_unstable();
    let mut total = 0;
    let mut reach = within.0;
    for (start, end) in clipped {
        let start = start.max(reach);
        if end > start {
            total += end - start;
            reach = end;
        }
    }
    total
}

/// A span's self time: its duration minus the part of that interval
/// its children cover.
pub fn self_time(span: (u64, u64), children: &[(u64, u64)]) -> u64 {
    (span.1 - span.0) - covered(span, children)
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn percentile_interpolates_between_ranks() {
        let samples = [4.0, 1.0, 3.0, 2.0];
        assert_eq!(percentile(&samples, 0.0), 1.0);
        assert_eq!(percentile(&samples, 1.0), 4.0);
        assert_eq!(median(&samples), 2.5);
        assert!((percentile(&samples, 0.9) - 3.7).abs() < 1e-12);
        assert_eq!(median(&[7.0]), 7.0);
        assert!(median(&[]).is_nan());
        assert_eq!(mean(&samples), 2.5);
        assert!(mean(&[]).is_nan());
        // Ten samples 1..=10: p90 sits 10 % of the way from 9 to 10.
        let ten: Vec<f64> = (1..=10).map(f64::from).collect();
        assert!((percentile(&ten, 0.9) - 9.1).abs() < 1e-12);
    }

    #[test]
    fn self_time_subtracts_the_union_of_children() {
        // Disjoint children.
        assert_eq!(self_time((0, 100), &[(10, 20), (50, 80)]), 60);
        // Overlapping children count once.
        assert_eq!(self_time((0, 100), &[(10, 40), (30, 60)]), 50);
        // A child nested in another.
        assert_eq!(self_time((0, 100), &[(10, 90), (20, 30)]), 20);
        // Children sticking out of the parent are clipped.
        assert_eq!(self_time((10, 20), &[(0, 15), (18, 30)]), 3);
        // No children: all self.
        assert_eq!(self_time((5, 9), &[]), 4);
        // Fully covered.
        assert_eq!(self_time((5, 9), &[(0, 100)]), 0);
    }
}
