//! Small order statistics over recorded samples.

/// Nearest-rank `q`-quantile of `samples` (sorted in place); 0 when
/// empty.
pub fn quantile(samples: &mut [u64], q: f64) -> u64 {
    if samples.is_empty() {
        return 0;
    }
    samples.sort_unstable();
    let rank = (q * samples.len() as f64).ceil() as usize;
    samples[rank.clamp(1, samples.len()) - 1]
}

/// The median, over `windows` consecutive equal slices of `samples`,
/// of each slice's `q`-quantile. A neighbour's burst on a shared box
/// that hits a few slices moves the result by at most those slices'
/// ranks, while a tail the program itself produces in most slices
/// (periodic work, lock fallbacks, a slower path) shows in full.
pub fn windowed_quantile(samples: &[u64], windows: usize, q: f64) -> f64 {
    let len = samples.len() / windows.max(1);
    if len == 0 {
        return quantile(&mut samples.to_vec(), q) as f64;
    }
    let per_window: Vec<f64> = samples
        .chunks_exact(len)
        .map(|w| quantile(&mut w.to_vec(), q) as f64)
        .collect();
    median(&per_window)
}

/// Median of `values` (mean of the middle pair for even counts); 0
/// when empty.
pub fn median(values: &[f64]) -> f64 {
    if values.is_empty() {
        return 0.0;
    }
    let mut v = values.to_vec();
    v.sort_by(f64::total_cmp);
    let mid = v.len() / 2;
    if v.len() % 2 == 1 {
        v[mid]
    } else {
        (v[mid - 1] + v[mid]) / 2.0
    }
}

/// Arithmetic mean; 0 when empty.
pub fn mean(samples: &[u64]) -> f64 {
    if samples.is_empty() {
        0.0
    } else {
        samples.iter().map(|&s| s as f64).sum::<f64>() / samples.len() as f64
    }
}

/// `num / den`, 0 when `den` is 0.
pub fn ratio(num: f64, den: f64) -> f64 {
    if den == 0.0 {
        0.0
    } else {
        num / den
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn nearest_rank_quantiles() {
        let mut v: Vec<u64> = (1..=100).rev().collect();
        assert_eq!(quantile(&mut v, 0.5), 50);
        assert_eq!(quantile(&mut v, 0.99), 99);
        assert_eq!(quantile(&mut v, 1.0), 100);
        assert_eq!(quantile(&mut [], 0.5), 0);
    }

    #[test]
    fn windowed_quantile_is_the_median_of_slice_quantiles() {
        let mut v: Vec<u64> = vec![10; 1000];
        // A burst in 2 of 10 slices does not set the result ...
        v[..200].fill(1_000_000);
        assert_eq!(windowed_quantile(&v, 10, 0.99), 10.0);
        // ... a tail in most slices does.
        v[..800].fill(1_000_000);
        assert_eq!(windowed_quantile(&v, 10, 0.99), 1_000_000.0);
        v.fill(7);
        assert_eq!(windowed_quantile(&v, 10, 0.99), 7.0);
    }

    #[test]
    fn median_of_even_and_odd_counts() {
        assert_eq!(median(&[3.0, 1.0, 2.0]), 2.0);
        assert_eq!(median(&[4.0, 1.0, 2.0, 3.0]), 2.5);
    }
}
