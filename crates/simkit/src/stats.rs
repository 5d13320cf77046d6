//! Statistics collectors for simulation outputs.

/// Running mean/variance/min/max over streamed samples (Welford's
/// algorithm).
#[derive(Debug, Default, Clone, PartialEq)]
pub struct Tally {
    count: u64,
    mean: f64,
    m2: f64,
    min: f64,
    max: f64,
}

impl Tally {
    /// Creates an empty tally.
    pub fn new() -> Self {
        Self {
            count: 0,
            mean: 0.0,
            m2: 0.0,
            min: f64::INFINITY,
            max: f64::NEG_INFINITY,
        }
    }

    /// Records one sample.
    pub fn record(&mut self, value: f64) {
        self.count += 1;
        let delta = value - self.mean;
        self.mean += delta / self.count as f64;
        self.m2 += delta * (value - self.mean);
        self.min = self.min.min(value);
        self.max = self.max.max(value);
    }

    /// Folds another tally into this one (Chan et al.'s parallel
    /// Welford combine), as if the other tally's samples had been
    /// recorded here. Merge order is significant at the floating-point
    /// ulp level, so parallel reductions must fold partials in a fixed
    /// order to stay deterministic.
    pub fn merge(&mut self, other: &Tally) {
        if other.count == 0 {
            return;
        }
        if self.count == 0 {
            *self = other.clone();
            return;
        }
        let n1 = self.count as f64;
        let n2 = other.count as f64;
        let total = n1 + n2;
        let delta = other.mean - self.mean;
        self.mean += delta * (n2 / total);
        self.m2 += other.m2 + delta * delta * (n1 * n2 / total);
        self.count += other.count;
        self.min = self.min.min(other.min);
        self.max = self.max.max(other.max);
    }

    /// Number of samples recorded.
    #[cfg(test)]
    pub fn count(&self) -> u64 {
        self.count
    }

    /// Sample mean (0 if empty).
    pub fn mean(&self) -> f64 {
        if self.count == 0 {
            0.0
        } else {
            self.mean
        }
    }

    /// Sample variance (unbiased; 0 for fewer than two samples).
    #[cfg(test)]
    pub fn variance(&self) -> f64 {
        if self.count < 2 {
            0.0
        } else {
            self.m2 / (self.count - 1) as f64
        }
    }

    /// Minimum sample (`None` if empty).
    #[cfg(test)]
    pub fn min(&self) -> Option<f64> {
        (self.count > 0).then_some(self.min)
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
    fn tally_mean_and_variance() {
        let mut t = Tally::new();
        for v in [2.0, 4.0, 4.0, 4.0, 5.0, 5.0, 7.0, 9.0] {
            t.record(v);
        }
        assert_eq!(t.count(), 8);
        assert!((t.mean() - 5.0).abs() < 1e-12);
        assert!((t.variance() - 32.0 / 7.0).abs() < 1e-12);
        assert_eq!(t.min(), Some(2.0));
        assert_eq!(t.max(), Some(9.0));
    }

    #[test]
    fn empty_tally_is_safe() {
        let t = Tally::new();
        assert_eq!(t.mean(), 0.0);
        assert_eq!(t.variance(), 0.0);
        assert_eq!(t.min(), None);
    }

    #[test]
    fn merge_combines_disjoint_tallies() {
        let samples = [2.0, 4.0, 4.0, 4.0, 5.0, 5.0, 7.0, 9.0];
        let mut whole = Tally::new();
        let mut left = Tally::new();
        let mut right = Tally::new();
        for (i, &v) in samples.iter().enumerate() {
            whole.record(v);
            if i < 3 {
                left.record(v);
            } else {
                right.record(v);
            }
        }
        left.merge(&right);
        assert_eq!(left.count(), whole.count());
        assert!((left.mean() - whole.mean()).abs() < 1e-12);
        assert!((left.variance() - whole.variance()).abs() < 1e-12);
        assert_eq!(left.min(), whole.min());
        assert_eq!(left.max(), whole.max());
    }

    #[test]
    fn merge_with_empty_is_identity_both_ways() {
        let mut a = Tally::new();
        a.record(3.0);
        a.record(5.0);
        let snapshot = a.clone();
        a.merge(&Tally::new());
        assert_eq!(a, snapshot, "merging an empty tally changes nothing");
        let mut empty = Tally::new();
        empty.merge(&snapshot);
        assert_eq!(empty, snapshot, "merging into an empty tally copies");
    }

    /// Tally mean/min/max agree with the naive recomputation.
    #[test]
    fn tally_matches_naive_summary() {
        prop::check("tally_matches_naive_summary", 256, |g| {
            let samples = g.draw(prop::vec(-1e6f64..1e6, 1..100));

            let mut t = Tally::new();
            for &s in &samples {
                t.record(s);
            }
            let naive_mean = samples.iter().sum::<f64>() / samples.len() as f64;
            assert!((t.mean() - naive_mean).abs() <= 1e-6 * (1.0 + naive_mean.abs()));
            assert_eq!(
                t.min().unwrap(),
                samples.iter().copied().fold(f64::INFINITY, f64::min)
            );
            assert_eq!(
                t.max().unwrap(),
                samples.iter().copied().fold(f64::NEG_INFINITY, f64::max)
            );
        });
    }
}
