//! Percentiles, the per-window tail estimator, and CSN → freshness matching.

use rolljoin::common::Csn;

/// Nearest-rank quantile of an ascending slice: the smallest sample with at
/// least `q·n` samples at or below it. `None` when empty.
pub fn quantile_sorted(sorted: &[u64], q: f64) -> Option<u64> {
    if sorted.is_empty() {
        return None;
    }
    let rank = (q * sorted.len() as f64).ceil() as usize;
    Some(sorted[rank.clamp(1, sorted.len()) - 1])
}

/// Nearest-rank quantile of unsorted samples.
pub fn quantile(samples: &[u64], q: f64) -> Option<u64> {
    let mut v = samples.to_vec();
    v.sort_unstable();
    quantile_sorted(&v, q)
}

/// Quantile `p` of unsorted values, interpolating linearly between the
/// two nearest ranks. `None` when empty.
pub fn quantile_f64(xs: &[f64], p: f64) -> Option<f64> {
    if xs.is_empty() {
        return None;
    }
    let mut v = xs.to_vec();
    v.sort_by(f64::total_cmp);
    let pos = p.clamp(0.0, 1.0) * (v.len() - 1) as f64;
    let (lo, hi) = (pos.floor() as usize, pos.ceil() as usize);
    Some(v[lo] + (v[hi] - v[lo]) * (pos - lo as f64))
}

/// Median (mean of the two middle values for an even count). `None` when
/// empty.
pub fn median(xs: &[f64]) -> Option<f64> {
    quantile_f64(xs, 0.5)
}

/// Samples a window needs before its `q`-quantile has ten samples beyond it.
pub fn min_window_samples(q: f64) -> usize {
    (10.0 / (1.0 - q)).ceil() as usize
}

/// Quantile estimator that repeats run to run: split `(time, value)`
/// samples into consecutive windows of `window` time units, take the
/// `q`-quantile of every window holding at least [`min_window_samples`]
/// samples, and return the `across`-quantile of those per-window quantiles
/// (0.5: their median) with the number of windows used. A single stall
/// moves one window's quantile, not the median of all of them; a slow
/// spell that covers fewer than `across` of the windows leaves the
/// estimate among the unaffected ones, where it would shift the pooled
/// quantile.
pub fn windowed_quantile(
    samples: &[(u64, u64)],
    window: u64,
    q: f64,
    across: f64,
) -> Option<(f64, usize)> {
    let window = window.max(1);
    let mut buckets: std::collections::BTreeMap<u64, Vec<u64>> = Default::default();
    for &(t, v) in samples {
        buckets.entry(t / window).or_default().push(v);
    }
    let need = min_window_samples(q);
    let per_window: Vec<f64> = buckets
        .values()
        .filter(|b| b.len() >= need)
        .filter_map(|b| quantile(b, q))
        .map(|v| v as f64)
        .collect();
    quantile_f64(&per_window, across).map(|m| (m, per_window.len()))
}

/// For each commit `(returned_at, csn)`, the delay until the first
/// observation `(seen_at, mat_time)` with `mat_time ≥ csn`, or `None` if no
/// observation covers it. Observations are in time order, so `mat_time`
/// never decreases along them. An observation that raced ahead of the
/// commit's own timestamp counts as a delay of 0.
pub fn freshness(commits: &[(u64, Csn)], observations: &[(u64, Csn)]) -> Vec<Option<u64>> {
    commits
        .iter()
        .map(|&(returned_at, csn)| {
            let i = observations.partition_point(|&(_, mat)| mat < csn);
            observations
                .get(i)
                .map(|&(seen_at, _)| seen_at.saturating_sub(returned_at))
        })
        .collect()
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn nearest_rank_quantiles() {
        let v: Vec<u64> = (1..=100).collect();
        assert_eq!(quantile_sorted(&v, 0.5), Some(50));
        assert_eq!(quantile_sorted(&v, 0.99), Some(99));
        assert_eq!(quantile_sorted(&v, 1.0), Some(100));
        assert_eq!(quantile_sorted(&v, 0.0), Some(1));
        assert_eq!(quantile_sorted(&[], 0.5), None);
        assert_eq!(quantile(&[7], 0.99), Some(7));
        assert_eq!(quantile(&[5, 1, 4, 2, 3], 0.5), Some(3));
        // 1000 samples: p99 is the 990th, leaving ten beyond it.
        let w: Vec<u64> = (1..=1000).collect();
        assert_eq!(quantile(&w, 0.99), Some(990));
        assert_eq!(min_window_samples(0.99), 1000);
    }

    #[test]
    fn median_odd_even_empty() {
        assert_eq!(median(&[3.0, 1.0, 2.0]), Some(2.0));
        assert_eq!(median(&[4.0, 1.0, 3.0, 2.0]), Some(2.5));
        assert_eq!(median(&[]), None);
    }

    #[test]
    fn windowed_quantile_ignores_one_bad_window() {
        // Three windows of 1000 samples; window 1 holds a stall.
        let mut samples = Vec::new();
        for w in 0..3u64 {
            for i in 0..1000u64 {
                let v = if w == 1 && i >= 900 { 1_000_000 } else { i };
                samples.push((w * 10 + i % 10, v));
            }
        }
        let (est, windows) = windowed_quantile(&samples, 10, 0.99, 0.5).unwrap();
        assert_eq!(windows, 3);
        // Per-window p99s: 989, 1_000_000, 989.
        assert_eq!(est, 989.0);
        // The pooled p99 is dominated by the stall.
        let pooled: Vec<u64> = samples.iter().map(|s| s.1).collect();
        assert_eq!(quantile(&pooled, 0.99), Some(1_000_000));
    }

    /// Ten windows of 100 samples; the first `slow` are three times slower.
    fn spell(slow: u64) -> Vec<(u64, u64)> {
        let mut samples = Vec::new();
        for w in 0..10u64 {
            for i in 0..100u64 {
                let v = if w < slow { 3 * (100 + i) } else { 100 + i };
                samples.push((w * 100 + i, v));
            }
        }
        samples
    }

    #[test]
    fn windowed_median_resists_a_slow_minority_of_windows() {
        let samples = spell(4);
        assert_eq!(
            windowed_quantile(&samples, 100, 0.5, 0.5),
            Some((149.0, 10))
        );
        // Pooled, the slow 40% drags the median to the 83rd fast sample.
        let pooled: Vec<u64> = samples.iter().map(|s| s.1).collect();
        assert_eq!(quantile(&pooled, 0.5), Some(183));
    }

    #[test]
    fn lower_quartile_of_windows_resists_a_slow_majority() {
        // Six slow windows of ten: the median window is slow, the lower
        // quartile (rank 2.25 of 0..9) still falls among the fast four.
        let samples = spell(6);
        assert_eq!(
            windowed_quantile(&samples, 100, 0.5, 0.5),
            Some((447.0, 10))
        );
        assert_eq!(
            windowed_quantile(&samples, 100, 0.5, 0.25),
            Some((149.0, 10))
        );
        // Seven slow: rank 2.25 interpolates towards the slow ones.
        assert_eq!(
            windowed_quantile(&spell(7), 100, 0.5, 0.25),
            Some((223.5, 10))
        );
    }

    #[test]
    fn interpolated_quantiles() {
        let v = [4.0, 1.0, 3.0, 2.0, 5.0];
        assert_eq!(quantile_f64(&v, 0.0), Some(1.0));
        assert_eq!(quantile_f64(&v, 0.25), Some(2.0));
        assert_eq!(quantile_f64(&v, 0.6), Some(3.4));
        assert_eq!(quantile_f64(&v, 1.0), Some(5.0));
        assert_eq!(quantile_f64(&[], 0.5), None);
    }

    #[test]
    fn windowed_quantile_skips_thin_windows() {
        let mut samples: Vec<(u64, u64)> = (0..1000).map(|i| (0, i)).collect();
        samples.extend((0..5).map(|_| (100, 7)));
        assert_eq!(
            windowed_quantile(&samples, 100, 0.99, 0.5),
            Some((989.0, 1))
        );
        assert_eq!(windowed_quantile(&samples[..10], 100, 0.99, 0.5), None);
    }

    #[test]
    fn freshness_matches_first_covering_observation() {
        let obs = [(100, 2), (150, 5), (400, 9)];
        let commits = [
            (90, 1),
            (95, 2),
            (120, 3),
            (130, 5),
            (160, 6),
            (200, 9),
            (210, 10),
        ];
        assert_eq!(
            freshness(&commits, &obs),
            vec![
                Some(10),
                Some(5),
                Some(30),
                Some(20),
                Some(240),
                Some(200),
                None
            ]
        );
        // An observation stamped before the commit's own return time.
        assert_eq!(freshness(&[(500, 3)], &obs), vec![Some(0)]);
    }
}
