//! Order statistics and span arithmetic shared by every workload.

/// The percentiles a tail is reported at, highest first.
const TAIL_CANDIDATES: [f64; 5] = [99.0, 95.0, 90.0, 75.0, 50.0];

/// Samples that must lie beyond a percentile before it is reported.
pub const TAIL_MIN_BEYOND: usize = 10;

/// The `p`-th percentile (`0 ≤ p ≤ 100`) of `sorted` by the nearest-rank
/// rule: the smallest sample with at least `p`% of the samples at or below
/// it. `None` for an empty slice.
#[must_use]
pub fn percentile(sorted: &[f64], p: f64) -> Option<f64> {
    if sorted.is_empty() {
        return None;
    }
    let rank = (p / 100.0 * sorted.len() as f64).ceil() as usize;
    Some(sorted[rank.clamp(1, sorted.len()) - 1])
}

/// Median of `sorted` (nearest rank); `None` when empty.
#[must_use]
pub fn median(sorted: &[f64]) -> Option<f64> {
    percentile(sorted, 50.0)
}

/// Sorts a copy of `values` and returns its median; `0.0` when empty.
#[must_use]
pub fn median_of(values: &[f64]) -> f64 {
    let mut sorted = values.to_vec();
    sorted.sort_by(f64::total_cmp);
    median(&sorted).unwrap_or(0.0)
}

/// A tail percentile with the evidence behind it.
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct Tail {
    /// Which percentile was reported.
    pub percentile: f64,
    /// Its value.
    pub value: f64,
    /// How many samples the percentile was taken over.
    pub samples: usize,
}

/// The highest of p99/p95/p90/p75/p50, at most `target`, that still has
/// at least [`TAIL_MIN_BEYOND`] samples strictly above its rank, so a
/// tail is never one or two outliers. `None` when even the median lacks
/// that support.
#[must_use]
pub fn tail(sorted: &[f64], target: f64) -> Option<Tail> {
    let n = sorted.len();
    TAIL_CANDIDATES
        .iter()
        .filter(|&&p| p <= target)
        .find_map(|&p| {
            let rank = (p / 100.0 * n as f64).ceil() as usize;
            (rank >= 1 && n - rank >= TAIL_MIN_BEYOND).then(|| Tail {
                percentile: p,
                value: sorted[rank - 1],
                samples: n,
            })
        })
}

/// The distance between the first and third quartile of `values` as a
/// share of their median, with the quartiles Python's
/// `statistics.quantiles(values, n=4)` gives (the default "exclusive"
/// method). `None` for fewer than two values or a zero median.
#[must_use]
pub fn quartile_spread(values: &[f64]) -> Option<f64> {
    let mut sorted = values.to_vec();
    sorted.sort_by(f64::total_cmp);
    let n = sorted.len();
    if n < 2 {
        return None;
    }
    let quantile = |i: usize| {
        // statistics.quantiles, method="exclusive", step for step.
        let m = n + 1;
        let j = (i * m / 4).clamp(1, n - 1);
        let delta = (i * m) as f64 - (j * 4) as f64;
        (sorted[j - 1] * (4.0 - delta) + sorted[j] * delta) / 4.0
    };
    let (q1, q2, q3) = (quantile(1), quantile(2), quantile(3));
    (q2 != 0.0).then(|| (q3 - q1) / q2)
}

/// Self time of a span `[start, end)`: its duration minus the part of it
/// covered by `children`. Overlapping children are merged first, and
/// children are clipped to the parent, so the result is never negative.
#[must_use]
pub fn self_time(start: u64, end: u64, children: &mut [(u64, u64)]) -> u64 {
    children.sort_unstable();
    let mut covered = 0u64;
    let mut cursor = start;
    for &(child_start, child_end) in children.iter() {
        let from = child_start.max(cursor);
        let to = child_end.min(end);
        if to > from {
            covered += to - from;
            cursor = to;
        }
    }
    end.saturating_sub(start).saturating_sub(covered)
}

/// A fixed-size uniform sample of a stream of durations (Algorithm R).
/// Its memory is touched up front, so peak memory does not depend on
/// how many samples a run produces.
#[derive(Debug)]
pub struct Reservoir {
    slots: Vec<u64>,
    filled: usize,
    seen: u64,
    rng: u64,
}

impl Reservoir {
    /// A reservoir of `capacity` samples, replacing by a generator
    /// seeded with `seed`.
    #[must_use]
    pub fn new(capacity: usize, seed: u64) -> Self {
        Reservoir {
            slots: vec![0; capacity.max(1)],
            filled: 0,
            seen: 0,
            rng: seed ^ 0x9E37_79B9_7F4A_7C15,
        }
    }

    /// Offers one sample.
    pub fn push(&mut self, value: u64) {
        self.seen += 1;
        if self.filled < self.slots.len() {
            self.slots[self.filled] = value;
            self.filled += 1;
            return;
        }
        // xorshift64*: cheap, and the choice only has to be uniform.
        self.rng ^= self.rng >> 12;
        self.rng ^= self.rng << 25;
        self.rng ^= self.rng >> 27;
        let draw = self.rng.wrapping_mul(0x2545_F491_4F6C_DD1D) % self.seen;
        if let Some(slot) = self.slots.get_mut(draw as usize) {
            *slot = value;
        }
    }

    /// Samples offered so far.
    #[must_use]
    pub fn seen(&self) -> u64 {
        self.seen
    }

    /// The kept samples, sorted ascending.
    #[must_use]
    pub fn sorted(&self) -> Vec<f64> {
        let mut kept: Vec<f64> = self.slots[..self.filled]
            .iter()
            .map(|&v| v as f64)
            .collect();
        kept.sort_by(f64::total_cmp);
        kept
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn reservoir_keeps_everything_until_full_then_a_uniform_sample() {
        let mut r = Reservoir::new(100, 1);
        for v in 0..50 {
            r.push(v);
        }
        assert_eq!(r.sorted(), (0..50).map(|v| v as f64).collect::<Vec<_>>());
        for v in 50..100_000 {
            r.push(v);
        }
        assert_eq!(r.seen(), 100_000);
        let kept = r.sorted();
        assert_eq!(kept.len(), 100);
        // A uniform sample of 0..100000 has its median near 50000.
        let mid = median(&kept).expect("median");
        assert!((30_000.0..70_000.0).contains(&mid), "median {mid}");
    }

    fn ramp(n: usize) -> Vec<f64> {
        (1..=n).map(|v| v as f64).collect()
    }

    #[test]
    fn percentile_is_nearest_rank() {
        let xs = ramp(10);
        assert_eq!(percentile(&xs, 50.0), Some(5.0));
        assert_eq!(percentile(&xs, 90.0), Some(9.0));
        assert_eq!(percentile(&xs, 100.0), Some(10.0));
        assert_eq!(percentile(&xs, 0.0), Some(1.0));
        assert_eq!(percentile(&[], 50.0), None);
        assert_eq!(median_of(&[3.0, 1.0, 2.0]), 2.0);
    }

    #[test]
    fn tail_picks_the_highest_percentile_with_ten_samples_beyond() {
        // 1000 samples: p99 is rank 990, with exactly 10 beyond it.
        let t = tail(&ramp(1000), 99.0).expect("tail");
        assert_eq!((t.percentile, t.value, t.samples), (99.0, 990.0, 1000));
        // 999 samples: p99 has only 9 beyond, p95 (rank 950) has 49.
        let t = tail(&ramp(999), 99.0).expect("tail");
        assert_eq!((t.percentile, t.value, t.samples), (95.0, 950.0, 999));
        // A lower target caps the percentile.
        let t = tail(&ramp(1000), 90.0).expect("tail");
        assert_eq!((t.percentile, t.value), (90.0, 900.0));
        // 100 samples: p90 is rank 90 with 10 beyond.
        let t = tail(&ramp(100), 99.0).expect("tail");
        assert_eq!((t.percentile, t.value), (90.0, 90.0));
        // 40 samples: p75 is rank 30 with 10 beyond.
        let t = tail(&ramp(40), 99.0).expect("tail");
        assert_eq!((t.percentile, t.value), (75.0, 30.0));
        // 19 samples: even the median has only 9 beyond.
        assert_eq!(tail(&ramp(19), 99.0), None);
        assert_eq!(tail(&[], 99.0), None);
    }

    #[test]
    fn self_time_merges_overlapping_children_and_never_goes_negative() {
        // Disjoint children.
        assert_eq!(self_time(0, 100, &mut [(10, 20), (30, 50)]), 70);
        // Overlapping and nested children count once.
        assert_eq!(self_time(0, 100, &mut [(10, 40), (20, 30), (35, 60)]), 50);
        // Unsorted input.
        assert_eq!(self_time(0, 100, &mut [(70, 80), (10, 20)]), 80);
        // Children spilling past the parent are clipped.
        assert_eq!(self_time(10, 20, &mut [(0, 15), (18, 40)]), 3);
        // Children covering everything (twice over) leave zero, not less.
        assert_eq!(self_time(0, 10, &mut [(0, 10), (0, 10), (5, 30)]), 0);
        // No children.
        assert_eq!(self_time(5, 9, &mut []), 4);
    }

    #[test]
    fn quartile_spread_matches_python_statistics_quantiles() {
        // statistics.quantiles([1..10], n=4) == [2.75, 5.5, 8.25].
        let spread = quartile_spread(&ramp(10)).expect("spread");
        assert!((spread - (8.25 - 2.75) / 5.5).abs() < 1e-12);
        // statistics.quantiles([1, 2, 3, 4], n=4) == [1.25, 2.5, 3.75].
        let spread = quartile_spread(&[4.0, 1.0, 3.0, 2.0]).expect("spread");
        assert!((spread - 2.5 / 2.5).abs() < 1e-12);
        // Clamped ranks extrapolate like Python: quantiles([1, 2]) ==
        // [0.75, 1.5, 2.25] and quantiles([5, 1, 9]) == [1.0, 5.0, 9.0].
        let spread = quartile_spread(&[1.0, 2.0]).expect("spread");
        assert!((spread - 1.5 / 1.5).abs() < 1e-12);
        let spread = quartile_spread(&[5.0, 1.0, 9.0]).expect("spread");
        assert!((spread - 8.0 / 5.0).abs() < 1e-12);
        // Identical values have no spread.
        assert_eq!(quartile_spread(&[7.0; 10]), Some(0.0));
        assert_eq!(quartile_spread(&[1.0]), None);
        assert_eq!(quartile_spread(&[0.0, 0.0, 0.0]), None);
    }
}
