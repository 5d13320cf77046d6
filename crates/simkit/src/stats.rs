//! Statistics collectors for simulation outputs.

/// Ticks per second of a [`Tally`]'s integer sum: one tick is 1 ns.
const TICKS_PER_S: f64 = 1e9;

/// Count, mean and max of non-negative durations in seconds. The sum is
/// kept in whole nanoseconds, so [`merge`](Self::merge) is integer
/// addition: tallies merged in any order, or split any way, give the
/// same bits as one tally that recorded every sample.
#[derive(Debug, Default, Clone, PartialEq)]
pub struct Tally {
    count: u64,
    ticks: u128,
    max: f64,
}

impl Tally {
    /// Records one sample, rounded to the nearest nanosecond in the sum.
    #[inline]
    pub fn record(&mut self, value: f64) {
        debug_assert!(value >= 0.0, "negative duration {value}");
        self.count += 1;
        // `+ 0.5` and a cast to `u64` round without the library calls
        // that `f64::round` and a cast to `u128` compile to.
        self.ticks += u128::from((value * TICKS_PER_S + 0.5) as u64);
        self.max = self.max.max(value);
    }

    /// Folds another tally into this one, as if its samples had been
    /// recorded here.
    pub fn merge(&mut self, other: &Tally) {
        self.count += other.count;
        self.ticks += other.ticks;
        self.max = self.max.max(other.max);
    }

    /// Sample mean (0 if empty).
    pub fn mean(&self) -> f64 {
        if self.count == 0 {
            0.0
        } else {
            self.ticks as f64 / self.count as f64 / TICKS_PER_S
        }
    }

    /// Maximum sample (`None` if empty).
    pub fn max(&self) -> Option<f64> {
        (self.count > 0).then_some(self.max)
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::prop;

    #[test]
    fn tally_mean_and_max() {
        let mut t = Tally::default();
        for v in [2.0, 4.0, 4.0, 4.0, 5.0, 5.0, 7.0, 9.0] {
            t.record(v);
        }
        assert_eq!(t.count, 8);
        assert_eq!(t.mean(), 5.0);
        assert_eq!(t.max(), Some(9.0));
    }

    #[test]
    fn empty_tally_is_safe() {
        let t = Tally::default();
        assert_eq!(t.mean(), 0.0);
        assert_eq!(t.max(), None);
    }

    #[test]
    fn merge_combines_disjoint_tallies() {
        let samples = [2.0, 4.0, 4.0, 4.0, 5.0, 5.0, 7.0, 9.0];
        let mut whole = Tally::default();
        let mut left = Tally::default();
        let mut right = Tally::default();
        for (i, &v) in samples.iter().enumerate() {
            whole.record(v);
            if i < 3 {
                left.record(v);
            } else {
                right.record(v);
            }
        }
        left.merge(&right);
        assert_eq!(left, whole);
    }

    #[test]
    fn merge_with_empty_is_identity_both_ways() {
        let mut a = Tally::default();
        a.record(3.0);
        a.record(5.0);
        let snapshot = a.clone();
        a.merge(&Tally::default());
        assert_eq!(a, snapshot, "merging an empty tally changes nothing");
        let mut empty = Tally::default();
        empty.merge(&snapshot);
        assert_eq!(empty, snapshot, "merging into an empty tally copies");
    }

    /// Tally mean/max agree with the naive recomputation.
    #[test]
    fn tally_matches_naive_summary() {
        prop::check("tally_matches_naive_summary", 256, |g| {
            let samples = g.draw(prop::vec(0.0f64..1e6, 1..100));

            let mut t = Tally::default();
            for &s in &samples {
                t.record(s);
            }
            let naive_mean = samples.iter().sum::<f64>() / samples.len() as f64;
            assert!((t.mean() - naive_mean).abs() <= 1e-6 * (1.0 + naive_mean));
            assert_eq!(
                t.max().unwrap(),
                samples.iter().copied().fold(0.0, f64::max)
            );
        });
    }

    /// Samples split into random parts and merged in a random order give
    /// the bits of one tally over every sample, within 1 ns of the f64
    /// mean.
    #[test]
    fn merge_is_exact_in_any_split_and_order() {
        prop::check("merge_is_exact_in_any_split_and_order", 256, |g| {
            let exponents = g.draw(prop::vec(-6.0f64..4.0, 1..200));
            let samples: Vec<f64> = exponents.iter().map(|&e| 10f64.powf(e)).collect();
            let parts = g.draw(1usize..9);

            let mut whole = Tally::default();
            let mut split = vec![Tally::default(); parts];
            for &s in &samples {
                whole.record(s);
                split[g.draw(0..parts)].record(s);
            }
            let mut merged = Tally::default();
            while !split.is_empty() {
                merged.merge(&split.swap_remove(g.draw(0..split.len())));
            }
            assert_eq!(merged, whole);
            assert_eq!(merged.mean().to_bits(), whole.mean().to_bits());

            let reference = samples.iter().sum::<f64>() / samples.len() as f64;
            assert!(
                (whole.mean() - reference).abs() <= 1e-9,
                "mean {} vs f64 reference {reference}",
                whole.mean()
            );
        });
    }
}
