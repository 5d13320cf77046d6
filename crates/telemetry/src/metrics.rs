//! Counters, gauges, and a log-bucketed histogram.
//!
//! A [`Metrics`] registry is a thread-safe, name-keyed set of counters
//! and gauges. It is intentionally simple: counters are exact and
//! gauges hold the last value. perfbench reports its per-layer metrics
//! through one, and `repro explore serve` writes one into
//! `results/BENCH_serve.json`. The standalone [`Histogram`] is not part
//! of the registry: it buckets samples by power of two (exact
//! count/mean/max, approximate quantiles), and the serving layer keeps
//! one per tenant for its latency percentiles.

use std::collections::BTreeMap;
use std::sync::Mutex;

use crate::{json, Value};

const BUCKETS: usize = 64;

/// Kind of a metric cell.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash)]
pub enum MetricKind {
    /// Monotonic count.
    Counter,
    /// Last-value-wins measurement.
    Gauge,
}

impl MetricKind {
    /// Lower-case name used in JSON.
    pub fn as_str(self) -> &'static str {
        match self {
            MetricKind::Counter => "counter",
            MetricKind::Gauge => "gauge",
        }
    }
}

/// A log2-bucket latency histogram: exact count, mean and range, and
/// quantiles clamped to the observed range, deterministic for a given
/// sample sequence.
#[derive(Debug, Clone)]
pub struct Histogram {
    count: u64,
    sum: f64,
    min: f64,
    max: f64,
    buckets: Vec<u64>,
}

impl Histogram {
    /// An empty histogram.
    pub fn new() -> Self {
        Self {
            count: 0,
            sum: 0.0,
            min: f64::INFINITY,
            max: f64::NEG_INFINITY,
            buckets: vec![0; BUCKETS],
        }
    }

    /// Bucket 0 holds non-positive samples; bucket `i >= 1` holds
    /// `[2^(i-33), 2^(i-32))`, clamped at the ends.
    fn bucket_index(value: f64) -> usize {
        if value <= 0.0 || !value.is_finite() {
            return 0;
        }
        let exponent = value.log2().floor() as i64;
        (exponent + 33).clamp(1, BUCKETS as i64 - 1) as usize
    }

    fn representative(index: usize) -> f64 {
        if index == 0 {
            0.0
        } else {
            // Midpoint of [2^k, 2^(k+1)) with k = index - 33.
            1.5 * (index as f64 - 33.0).exp2()
        }
    }

    /// Records one sample (non-positive and non-finite samples land in
    /// bucket zero).
    pub fn record(&mut self, value: f64) {
        self.count += 1;
        self.sum += value;
        self.min = self.min.min(value);
        self.max = self.max.max(value);
        self.buckets[Self::bucket_index(value)] += 1;
    }

    /// Number of recorded samples.
    #[cfg(test)]
    pub fn count(&self) -> u64 {
        self.count
    }

    /// Arithmetic mean of the samples (0 when empty).
    pub fn mean(&self) -> f64 {
        if self.count == 0 {
            0.0
        } else {
            self.sum / self.count as f64
        }
    }

    /// Largest recorded sample (0 when empty).
    #[cfg(test)]
    pub fn max(&self) -> f64 {
        if self.count == 0 {
            0.0
        } else {
            self.max
        }
    }

    /// Approximate quantile from the log buckets, clamped to the exact
    /// observed range (0 when empty).
    pub fn quantile(&self, q: f64) -> f64 {
        if self.count == 0 {
            return 0.0;
        }
        let target = (q.clamp(0.0, 1.0) * self.count as f64).ceil().max(1.0) as u64;
        let mut cumulative = 0u64;
        for (i, &c) in self.buckets.iter().enumerate() {
            cumulative += c;
            if cumulative >= target {
                return Self::representative(i).clamp(self.min, self.max);
            }
        }
        self.max
    }
}

impl Default for Histogram {
    fn default() -> Self {
        Self::new()
    }
}

#[derive(Debug, Clone)]
enum Cell {
    Counter(u64),
    Gauge(f64),
}

/// A point-in-time snapshot of one metric.
#[derive(Debug, Clone, PartialEq)]
pub struct Metric {
    /// Metric name.
    pub name: String,
    /// Metric kind.
    pub kind: MetricKind,
    /// Kind-specific summary fields (`count` for counters; `value` for
    /// gauges).
    pub fields: Vec<(String, Value)>,
}

impl Metric {
    /// Renders the metric's fields as a JSON object with a `kind` tag.
    pub fn to_json(&self) -> String {
        let mut o = json::JsonObject::new();
        o.field_str("kind", self.kind.as_str());
        for (k, v) in &self.fields {
            o.field_raw(k, &v.to_json());
        }
        o.finish()
    }
}

/// A thread-safe, name-keyed metric registry.
#[derive(Debug, Default)]
pub struct Metrics {
    cells: Mutex<BTreeMap<String, Cell>>,
}

impl Metrics {
    /// Creates an empty registry.
    pub fn new() -> Self {
        Self::default()
    }

    fn with_cells<R>(&self, f: impl FnOnce(&mut BTreeMap<String, Cell>) -> R) -> R {
        f(&mut self.cells.lock().unwrap_or_else(|e| e.into_inner()))
    }

    /// Adds `by` to the named counter (creating it at zero).
    pub fn inc(&self, name: &str, by: u64) {
        self.with_cells(
            |cells| match cells.entry(name.to_string()).or_insert(Cell::Counter(0)) {
                Cell::Counter(v) => *v += by,
                other => *other = Cell::Counter(by),
            },
        );
    }

    /// Sets the named gauge.
    pub fn gauge(&self, name: &str, value: f64) {
        self.with_cells(|cells| {
            cells.insert(name.to_string(), Cell::Gauge(value));
        });
    }

    /// Reads the named counter (0 if absent or not a counter).
    #[cfg(test)]
    pub fn counter_value(&self, name: &str) -> u64 {
        self.with_cells(|cells| match cells.get(name) {
            Some(Cell::Counter(v)) => *v,
            _ => 0,
        })
    }

    /// Reads the named gauge.
    #[cfg(test)]
    pub fn gauge_value(&self, name: &str) -> Option<f64> {
        self.with_cells(|cells| match cells.get(name) {
            Some(Cell::Gauge(v)) => Some(*v),
            _ => None,
        })
    }

    /// Snapshots every metric, sorted by name.
    pub fn snapshot(&self) -> Vec<Metric> {
        self.with_cells(|cells| {
            cells
                .iter()
                .map(|(name, cell)| match cell {
                    Cell::Counter(v) => Metric {
                        name: name.clone(),
                        kind: MetricKind::Counter,
                        fields: vec![("count".to_string(), Value::U64(*v))],
                    },
                    Cell::Gauge(v) => Metric {
                        name: name.clone(),
                        kind: MetricKind::Gauge,
                        fields: vec![("value".to_string(), Value::F64(*v))],
                    },
                })
                .collect()
        })
    }

    /// Renders the registry as one JSON object keyed by metric name.
    pub fn to_json(&self) -> String {
        let mut o = json::JsonObject::new();
        for metric in self.snapshot() {
            o.field_raw(&metric.name, &metric.to_json());
        }
        o.finish()
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::json::Json;

    #[test]
    fn counters_accumulate() {
        let m = Metrics::new();
        m.inc("events", 3);
        m.inc("events", 4);
        assert_eq!(m.counter_value("events"), 7);
        assert_eq!(m.counter_value("missing"), 0);
    }

    #[test]
    fn gauges_take_last_value() {
        let m = Metrics::new();
        m.gauge("queue_depth", 5.0);
        m.gauge("queue_depth", 2.0);
        assert_eq!(m.gauge_value("queue_depth"), Some(2.0));
        assert_eq!(m.gauge_value("missing"), None);
    }

    #[test]
    fn histogram_summary_is_exact_where_it_can_be() {
        let mut h = Histogram::new();
        for v in [1.0, 2.0, 4.0, 8.0] {
            h.record(v);
        }
        assert_eq!(h.count(), 4);
        assert_eq!(h.mean(), 3.75);
        assert_eq!(h.max(), 8.0);
    }

    #[test]
    fn histogram_quantiles_are_within_a_bucket() {
        let mut h = Histogram::new();
        for i in 1..=1000 {
            h.record(f64::from(i));
        }
        // True median 500; log-bucket resolution at that magnitude is
        // [512, 1024), whose clamped representative must stay within a
        // factor of two.
        let p50 = h.quantile(0.5);
        assert!((250.0..=1000.0).contains(&p50), "p50 = {p50}");
    }

    #[test]
    fn quantiles_clamp_to_observed_range() {
        let mut h = Histogram::new();
        h.record(7.0);
        for q in [0.5, 0.9, 0.99] {
            assert_eq!(h.quantile(q), 7.0, "q = {q}");
        }
    }

    /// With one sample every quantile, p999 included, is that sample:
    /// the target rank never rounds to zero.
    #[test]
    fn p999_uses_ceil_rank_and_clamps_to_observed_range() {
        let mut single = Histogram::new();
        single.record(7.0);
        assert_eq!(single.quantile(0.999), 7.0);

        // 1000 equal samples: p999 targets rank 999, same bucket.
        let mut flat = Histogram::new();
        for _ in 0..1000 {
            flat.record(3.0);
        }
        assert_eq!(flat.quantile(0.999), 3.0);

        // A 1-in-100 outlier: p999 (ceil rank 100 of 100) must reach
        // the outlier bucket while p99 (ceil rank 99) stays in the
        // bulk — the ranks straddle the outlier.
        let mut outlier = Histogram::new();
        for _ in 0..99 {
            outlier.record(1.0);
        }
        outlier.record(1e6);
        let p999 = outlier.quantile(0.999);
        assert!(p999 > 1e5, "p999 must land in the outlier bucket: {p999}");
        let p99 = outlier.quantile(0.99);
        assert!(p99 < 2.0, "p99 stays in the bulk: {p99}");
        assert_eq!(Histogram::new().quantile(0.999), 0.0, "empty quantile is 0");
    }

    #[test]
    fn nonpositive_and_nonfinite_samples_land_in_bucket_zero() {
        assert_eq!(Histogram::bucket_index(0.0), 0);
        assert_eq!(Histogram::bucket_index(-5.0), 0);
        assert_eq!(Histogram::bucket_index(f64::NAN), 0);
        assert!(Histogram::bucket_index(1e300) < BUCKETS);
        assert_eq!(Histogram::bucket_index(1.0), 33);
    }

    #[test]
    fn to_json_is_sorted_and_valid() {
        let m = Metrics::new();
        m.inc("b.counter", 1);
        m.gauge("a.gauge", 2.5);
        let json = m.to_json();
        let a = json.find("a.gauge").unwrap();
        let b = json.find("b.counter").unwrap();
        assert!(a < b, "BTreeMap keeps metric names sorted: {json}");
        let doc = json::parse(&json).expect("valid JSON");
        let gauge = doc.get("a.gauge").expect("gauge entry");
        assert_eq!(gauge.get("kind").and_then(Json::as_str), Some("gauge"));
        assert_eq!(gauge.get("value").and_then(Json::as_f64), Some(2.5));
        let counter = doc.get("b.counter").expect("counter entry");
        assert_eq!(counter.get("kind").and_then(Json::as_str), Some("counter"));
        assert_eq!(counter.get("count").and_then(Json::as_u64), Some(1));
    }
}
