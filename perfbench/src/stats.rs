//! The benchmark's own arithmetic: error curves, percentiles, span self
//! time and failure ratios. Every function here is pure and unit-tested.

/// Normalized root-mean-square error per budget: `sqrt(sse[q] / trials) /
/// truth`. Entries whose squared-error sum is missing (`NaN`) stay `NaN`.
pub fn nrmse_curve(sse: &[f64], trials: usize, truth: f64) -> Vec<f64> {
    assert!(
        trials > 0 && truth > 0.0,
        "an ensemble needs trials and a positive truth"
    );
    sse.iter()
        .map(|&s| (s / trials as f64).sqrt() / truth)
        .collect()
}

/// The fewest queries `q` at which `curve[q] <= target` (index = queries
/// per trial). `NaN` entries never cross.
pub fn first_crossing(curve: &[f64], target: f64) -> Option<usize> {
    curve.iter().position(|&e| e <= target)
}

/// Percentiles a tail is read at, lowest first. On shared hosts the p99 of
/// microsecond-scale slices swings by 40% from run to run with the
/// neighbours' load, so the tail stops at p90.
const LADDER: [f64; 2] = [50.0, 90.0];

/// Nearest-rank percentile of an ascending slice: the value at rank
/// `ceil(p/100 · n)` (1-based).
pub fn percentile(sorted: &[f64], p: f64) -> f64 {
    assert!(!sorted.is_empty(), "percentile of no samples");
    sorted[rank(p, sorted.len()).clamp(1, sorted.len()) - 1]
}

/// `ceil(p/100 · n)`, with a tolerance so `99.99 %` of `100_000` is rank
/// 99_990 despite binary rounding.
fn rank(p: f64, n: usize) -> usize {
    (p * n as f64 / 100.0 - 1e-9).ceil() as usize
}

/// The highest percentile of [`LADDER`] with at least ten samples beyond
/// it in a sample of `n`; `None` when even the median has fewer.
pub fn tail_percentile(n: usize) -> Option<f64> {
    LADDER.iter().rev().copied().find(|&p| {
        let r = rank(p, n);
        r >= 1 && n.saturating_sub(r) >= 10
    })
}

/// Median of an unsorted sample (mean of the middle pair for even sizes).
pub fn median(values: &[f64]) -> f64 {
    assert!(!values.is_empty(), "median of no samples");
    let mut v = values.to_vec();
    v.sort_by(f64::total_cmp);
    let mid = v.len() / 2;
    if v.len() % 2 == 1 {
        v[mid]
    } else {
        (v[mid - 1] + v[mid]) / 2.0
    }
}

/// A span's self time: its duration minus the part of `[start, end)` that
/// its child spans cover. `children` are in ascending start order (the
/// order a tracer closes them in); they are clipped to the parent and
/// overlaps between them are counted once.
pub fn self_time(parent: (u64, u64), children: &[(u64, u64)]) -> u64 {
    let (start, end) = parent;
    debug_assert!(children.windows(2).all(|w| w[0].0 <= w[1].0));
    let mut covered = 0;
    let mut reach = start;
    for &(s, e) in children {
        let (s, e) = (s.max(reach), e.min(end));
        if e > s {
            covered += e - s;
            reach = e;
        }
    }
    (end - start) - covered
}

/// Operations failed or refused over operations attempted.
pub fn failed_frac(failed: u64, attempted: u64) -> f64 {
    assert!(attempted > 0, "a failure ratio needs a non-empty base");
    assert!(failed <= attempted, "more failures than attempts");
    failed as f64 / attempted as f64
}

/// How many of `items` fall in slot `slot` (from 1) of `slots` when they
/// are spread evenly: `ceil(slot·items/slots) − ceil((slot−1)·items/slots)`.
/// Over slots `1..=slots` the counts sum to `items`.
pub fn spread(slot: usize, slots: usize, items: usize) -> usize {
    assert!(
        (1..=slots).contains(&slot),
        "slot {slot} outside 1..={slots}"
    );
    (slot * items).div_ceil(slots) - ((slot - 1) * items).div_ceil(slots)
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn crossing_is_the_first_budget_at_or_below_target() {
        let sse = [f64::NAN, 400.0, 100.0, 36.0, 25.0, 49.0, 16.0];
        let curve = nrmse_curve(&sse, 4, 50.0);
        // sqrt(36/4)/50 = 0.06, sqrt(25/4)/50 = 0.05, sqrt(49/4)/50 = 0.07.
        assert!((curve[3] - 0.06).abs() < 1e-12);
        assert_eq!(first_crossing(&curve, 0.05), Some(4));
        assert_eq!(first_crossing(&curve, 0.045), Some(6));
        assert_eq!(first_crossing(&curve, 0.01), None);
        assert_eq!(first_crossing(&curve[..1], 1.0), None, "NaN never crosses");
    }

    #[test]
    fn percentile_uses_nearest_rank() {
        let v: Vec<f64> = (1..=100).map(f64::from).collect();
        assert_eq!(percentile(&v, 50.0), 50.0);
        assert_eq!(percentile(&v, 99.0), 99.0);
        assert_eq!(percentile(&v, 100.0), 100.0);
        assert_eq!(percentile(&[7.0], 99.0), 7.0);
    }

    #[test]
    fn tail_is_the_highest_percentile_with_ten_samples_beyond() {
        assert_eq!(tail_percentile(19), None);
        assert_eq!(tail_percentile(20), Some(50.0));
        assert_eq!(tail_percentile(99), Some(50.0));
        assert_eq!(tail_percentile(100), Some(90.0));
        assert_eq!(tail_percentile(100_000), Some(90.0));
    }

    #[test]
    fn median_of_odd_and_even_samples() {
        assert_eq!(median(&[3.0, 1.0, 2.0]), 2.0);
        assert_eq!(median(&[4.0, 1.0, 3.0, 2.0]), 2.5);
    }

    #[test]
    fn self_time_subtracts_covered_child_time_once() {
        assert_eq!(self_time((0, 100), &[]), 100);
        assert_eq!(self_time((0, 100), &[(10, 30), (50, 60)]), 70);
        // Overlapping children cover their union only.
        assert_eq!(self_time((0, 100), &[(10, 40), (30, 50)]), 60);
        // Children are clipped to the parent interval.
        assert_eq!(self_time((10, 20), &[(0, 15), (18, 40)]), 3);
        assert_eq!(self_time((0, 10), &[(0, 10)]), 0);
    }

    #[test]
    fn failed_frac_is_failures_over_attempts() {
        assert_eq!(failed_frac(0, 5), 0.0);
        assert_eq!(failed_frac(1, 4), 0.25);
    }

    #[test]
    fn spread_puts_every_item_in_one_slot_evenly() {
        for (slots, items) in [(3, 11), (10, 2), (79, 39), (5, 0), (1, 4)] {
            let counts: Vec<usize> = (1..=slots).map(|k| spread(k, slots, items)).collect();
            assert_eq!(counts.iter().sum::<usize>(), items);
            let (lo, hi) = (counts.iter().min(), counts.iter().max());
            assert!(hi.unwrap() - lo.unwrap() <= 1, "{counts:?}");
        }
        assert_eq!(
            (1..=3).map(|k| spread(k, 3, 11)).collect::<Vec<_>>(),
            [4, 4, 3]
        );
    }

    #[test]
    #[should_panic(expected = "non-empty base")]
    fn failed_frac_rejects_an_empty_base() {
        failed_frac(0, 0);
    }
}
