//! Order statistics shared by the end-to-end and per-layer reports.

/// Median of `v` (mean of the two middle values for an even count).
/// NaN when `v` is empty.
pub fn median(v: &[f64]) -> f64 {
    if v.is_empty() {
        return f64::NAN;
    }
    let s = sorted(v);
    let n = s.len();
    if n % 2 == 1 {
        s[n / 2]
    } else {
        0.5 * (s[n / 2 - 1] + s[n / 2])
    }
}

/// [`tail`] taken in each of up to `max_blocks` contiguous, near-equal
/// blocks of `v` that hold at least `min_block` samples each, and the
/// median of those. A burst of slow samples confined to one block moves
/// only that block's tail. Returns the first block's percentile with the
/// median value, or `None` when even one block has too few samples.
pub fn block_tail(
    v: &[f64],
    beyond: usize,
    min_block: usize,
    max_blocks: usize,
) -> Option<(f64, f64)> {
    let blocks = (v.len() / min_block.max(1)).clamp(1, max_blocks.max(1));
    let tails: Option<Vec<(f64, f64)>> = (0..blocks)
        .map(|b| tail(&v[b * v.len() / blocks..(b + 1) * v.len() / blocks], beyond))
        .collect();
    let tails = tails?;
    let values: Vec<f64> = tails.iter().map(|&(_, x)| x).collect();
    Some((tails[0].0, median(&values)))
}

/// The tail rule for round latency: the highest percentile that still has
/// at least `beyond` samples above it. With `n` samples sorted ascending
/// that is the sample at 1-based rank `n - beyond`, i.e. the
/// `100 * (n - beyond) / n`-th percentile by nearest rank. Returns
/// `(percentile, value)`, or `None` when there are not more than `beyond`
/// samples.
pub fn tail(v: &[f64], beyond: usize) -> Option<(f64, f64)> {
    let n = v.len();
    if n <= beyond {
        return None;
    }
    let rank = n - beyond;
    Some((100.0 * rank as f64 / n as f64, sorted(v)[rank - 1]))
}

fn sorted(v: &[f64]) -> Vec<f64> {
    let mut s = v.to_vec();
    s.sort_by(f64::total_cmp);
    s
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn median_of_odd_and_even_counts() {
        assert_eq!(median(&[3.0, 1.0, 2.0]), 2.0);
        assert_eq!(median(&[4.0, 1.0, 3.0, 2.0]), 2.5);
        assert!(median(&[]).is_nan());
    }

    #[test]
    fn block_tail_takes_the_median_of_block_tails() {
        // three blocks of 100 samples 1..=100; a burst in the last block
        let mut v: Vec<f64> = (0..3).flat_map(|_| (1..=100).map(f64::from)).collect();
        v[250..].iter_mut().for_each(|x| *x += 1000.0);
        assert_eq!(block_tail(&v, 10, 100, 5), Some((90.0, 90.0)));
        // a plain tail over the whole run reads the burst
        assert!(tail(&v, 10).unwrap().1 > 1000.0);
        // fewer samples than two blocks: one block, the plain tail
        let v: Vec<f64> = (1..=150).map(f64::from).collect();
        assert_eq!(block_tail(&v, 10, 100, 5), tail(&v, 10));
        // at most max_blocks blocks
        let v: Vec<f64> = (1..=1000).map(f64::from).collect();
        assert_eq!(block_tail(&v, 10, 100, 5).unwrap().0, 95.0);
        // a block that cannot leave ten beyond gives no tail
        assert_eq!(block_tail(&[1.0; 8], 10, 100, 5), None);
    }

    #[test]
    fn tail_leaves_exactly_ten_samples_beyond() {
        // 1..=100: the 90th value has ten above it, so p90 = 90
        let v: Vec<f64> = (1..=100).rev().map(f64::from).collect();
        assert_eq!(tail(&v, 10), Some((90.0, 90.0)));
        // 1000 samples reach p99
        let v: Vec<f64> = (1..=1000).map(f64::from).collect();
        assert_eq!(tail(&v, 10), Some((99.0, 990.0)));
        // 25 samples: rank 15 of 25 is the 60th percentile
        let v: Vec<f64> = (1..=25).map(f64::from).collect();
        let (p, x) = tail(&v, 10).unwrap();
        assert_eq!((p, x), (60.0, 15.0));
        assert_eq!(v.iter().filter(|&&s| s > x).count(), 10);
    }

    #[test]
    fn tail_needs_more_samples_than_it_leaves_beyond() {
        let v: Vec<f64> = (1..=10).map(f64::from).collect();
        assert_eq!(tail(&v, 10), None);
        assert_eq!(tail(&[1.0; 11], 10), Some((100.0 / 11.0, 1.0)));
    }
}
