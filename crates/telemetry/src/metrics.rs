//! Counters, gauges, and log-bucketed histograms.
//!
//! A [`Metrics`] registry is a thread-safe, name-keyed set of metric
//! cells. It is intentionally simple: counters are exact, gauges hold
//! the last value, and histograms bucket samples by power of two (exact
//! count/sum/min/max, approximate quantiles). `simkit::stats` collectors
//! export into a registry via their `export` methods; perfbench reports
//! its per-layer metrics through one, and `repro explore serve` writes
//! one into `results/BENCH_serve.json`.

use std::collections::BTreeMap;
use std::sync::Mutex;

use crate::{json, EventKind, Level, Value};

const BUCKETS: usize = 64;

/// Kind of a metric cell.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash)]
pub enum MetricKind {
    /// Monotonic count.
    Counter,
    /// Last-value-wins measurement.
    Gauge,
    /// Distribution of observed samples.
    Histogram,
}

impl MetricKind {
    /// Lower-case name used in JSON.
    pub fn as_str(self) -> &'static str {
        match self {
            MetricKind::Counter => "counter",
            MetricKind::Gauge => "gauge",
            MetricKind::Histogram => "histogram",
        }
    }
}

#[derive(Debug, Clone)]
struct Hist {
    count: u64,
    sum: f64,
    min: f64,
    max: f64,
    buckets: Vec<u64>,
}

impl Hist {
    fn new() -> Self {
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

    fn record(&mut self, value: f64) {
        self.count += 1;
        self.sum += value;
        self.min = self.min.min(value);
        self.max = self.max.max(value);
        self.buckets[Self::bucket_index(value)] += 1;
    }

    fn mean(&self) -> f64 {
        if self.count == 0 {
            0.0
        } else {
            self.sum / self.count as f64
        }
    }

    /// Folds `other` into `self`: counts and sums add, min/max widen,
    /// and buckets add element-wise. Merging an empty histogram (in
    /// either direction) is the identity.
    fn merge(&mut self, other: &Hist) {
        self.count += other.count;
        self.sum += other.sum;
        self.min = self.min.min(other.min);
        self.max = self.max.max(other.max);
        for (mine, theirs) in self.buckets.iter_mut().zip(&other.buckets) {
            *mine += theirs;
        }
    }

    /// Approximate quantile from the log buckets, clamped to the exact
    /// observed [min, max].
    fn quantile(&self, q: f64) -> f64 {
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

/// A standalone log2-bucket latency histogram with the same buckets,
/// merge semantics, and clamped quantiles as the registry's internal
/// histograms — for callers (like the sim's serving layer) that need
/// deterministic per-key percentiles embedded in their own reports
/// rather than the global metrics registry.
#[derive(Debug, Clone)]
pub struct Histogram {
    inner: Hist,
}

impl Histogram {
    /// An empty histogram.
    pub fn new() -> Self {
        Self { inner: Hist::new() }
    }

    /// Records one sample (non-positive and non-finite samples land in
    /// bucket zero).
    pub fn record(&mut self, value: f64) {
        self.inner.record(value);
    }

    /// Number of recorded samples.
    pub fn count(&self) -> u64 {
        self.inner.count
    }

    /// Arithmetic mean of the samples (0 when empty).
    pub fn mean(&self) -> f64 {
        self.inner.mean()
    }

    /// Largest recorded sample (0 when empty).
    pub fn max(&self) -> f64 {
        if self.inner.count == 0 {
            0.0
        } else {
            self.inner.max
        }
    }

    /// Approximate quantile from the log buckets, clamped to the exact
    /// observed range (0 when empty).
    pub fn quantile(&self, q: f64) -> f64 {
        self.inner.quantile(q)
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
    Histogram(Hist),
}

/// A point-in-time snapshot of one metric.
#[derive(Debug, Clone, PartialEq)]
pub struct Metric {
    /// Metric name.
    pub name: String,
    /// Metric kind.
    pub kind: MetricKind,
    /// Kind-specific summary fields (`count` for counters; `value` for
    /// gauges; `count`/`sum`/`mean`/`min`/`max`/`p50`/`p90`/`p99`/
    /// `p999` for histograms).
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

    /// Records one sample into the named histogram.
    pub fn observe(&self, name: &str, value: f64) {
        self.with_cells(|cells| {
            match cells
                .entry(name.to_string())
                .or_insert_with(|| Cell::Histogram(Hist::new()))
            {
                Cell::Histogram(h) => h.record(value),
                other => {
                    let mut h = Hist::new();
                    h.record(value);
                    *other = Cell::Histogram(h);
                }
            }
        });
    }

    /// Reads the named counter (0 if absent or not a counter).
    pub fn counter_value(&self, name: &str) -> u64 {
        self.with_cells(|cells| match cells.get(name) {
            Some(Cell::Counter(v)) => *v,
            _ => 0,
        })
    }

    /// Reads the named gauge.
    pub fn gauge_value(&self, name: &str) -> Option<f64> {
        self.with_cells(|cells| match cells.get(name) {
            Some(Cell::Gauge(v)) => Some(*v),
            _ => None,
        })
    }

    /// Number of registered metrics.
    pub fn len(&self) -> usize {
        self.with_cells(|cells| cells.len())
    }

    /// Whether the registry is empty.
    pub fn is_empty(&self) -> bool {
        self.len() == 0
    }

    /// Folds every cell of `other` into this registry: counters add,
    /// gauges take `other`'s value (last-wins, matching [`gauge`]
    /// semantics), histograms merge bucket-wise. Names only in `other`
    /// are copied over; a kind clash resolves in favour of `other`.
    ///
    /// [`gauge`]: Self::gauge
    pub fn merge_from(&self, other: &Metrics) {
        let theirs = other.with_cells(|cells| cells.clone());
        self.with_cells(|cells| {
            for (name, cell) in theirs {
                match (cells.get_mut(&name), &cell) {
                    (Some(Cell::Counter(mine)), Cell::Counter(v)) => *mine += v,
                    (Some(Cell::Histogram(mine)), Cell::Histogram(h)) => mine.merge(h),
                    (Some(existing), _) => *existing = cell,
                    (None, _) => {
                        cells.insert(name, cell);
                    }
                }
            }
        });
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
                    Cell::Histogram(h) => Metric {
                        name: name.clone(),
                        kind: MetricKind::Histogram,
                        fields: vec![
                            ("count".to_string(), Value::U64(h.count)),
                            ("sum".to_string(), Value::F64(h.sum)),
                            ("mean".to_string(), Value::F64(h.mean())),
                            ("min".to_string(), Value::F64(h.min)),
                            ("max".to_string(), Value::F64(h.max)),
                            ("p50".to_string(), Value::F64(h.quantile(0.5))),
                            ("p90".to_string(), Value::F64(h.quantile(0.9))),
                            ("p99".to_string(), Value::F64(h.quantile(0.99))),
                            ("p999".to_string(), Value::F64(h.quantile(0.999))),
                        ],
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

    /// Emits every metric as a [`EventKind::Metric`] event at debug
    /// level.
    pub fn emit(&self) {
        if !crate::level_enabled(Level::Debug) {
            return;
        }
        for metric in self.snapshot() {
            crate::dispatch(&crate::Event {
                level: Level::Debug,
                kind: EventKind::Metric,
                name: metric.name.clone(),
                fields: metric.fields,
                unix_ms: crate::unix_ms(),
                elapsed_ns: None,
            });
        }
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
        let m = Metrics::new();
        for v in [1.0, 2.0, 4.0, 8.0] {
            m.observe("wall_ms", v);
        }
        let snap = m.snapshot();
        let h = snap.iter().find(|s| s.name == "wall_ms").unwrap();
        assert_eq!(h.kind, MetricKind::Histogram);
        let field = |k: &str| {
            h.fields
                .iter()
                .find(|(name, _)| name == k)
                .map(|(_, v)| v.clone())
                .unwrap()
        };
        assert_eq!(field("count"), Value::U64(4));
        assert_eq!(field("sum"), Value::F64(15.0));
        assert_eq!(field("mean"), Value::F64(3.75));
        assert_eq!(field("min"), Value::F64(1.0));
        assert_eq!(field("max"), Value::F64(8.0));
    }

    #[test]
    fn histogram_quantiles_are_within_a_bucket() {
        let m = Metrics::new();
        for i in 1..=1000 {
            m.observe("v", f64::from(i));
        }
        let snap = m.snapshot();
        let h = &snap[0];
        let p50 = h
            .fields
            .iter()
            .find(|(k, _)| k == "p50")
            .map(|(_, v)| match v {
                Value::F64(f) => *f,
                _ => panic!("p50 is a float"),
            })
            .unwrap();
        // True median 500; log-bucket resolution at that magnitude is
        // [512, 1024), whose clamped representative must stay within a
        // factor of two.
        assert!((250.0..=1000.0).contains(&p50), "p50 = {p50}");
    }

    #[test]
    fn quantiles_clamp_to_observed_range() {
        let m = Metrics::new();
        m.observe("single", 7.0);
        let snap = m.snapshot();
        for q in ["p50", "p90", "p99"] {
            let v = snap[0]
                .fields
                .iter()
                .find(|(k, _)| k == q)
                .map(|(_, v)| v.clone())
                .unwrap();
            assert_eq!(v, Value::F64(7.0), "{q}");
        }
    }

    #[test]
    fn nonpositive_and_nonfinite_samples_land_in_bucket_zero() {
        assert_eq!(Hist::bucket_index(0.0), 0);
        assert_eq!(Hist::bucket_index(-5.0), 0);
        assert_eq!(Hist::bucket_index(f64::NAN), 0);
        assert!(Hist::bucket_index(1e300) < BUCKETS);
        assert_eq!(Hist::bucket_index(1.0), 33);
    }

    fn histogram_field(m: &Metrics, name: &str, key: &str) -> f64 {
        let snap = m.snapshot();
        let h = snap.iter().find(|s| s.name == name).unwrap();
        match h.fields.iter().find(|(k, _)| k == key).map(|(_, v)| v) {
            Some(Value::F64(f)) => *f,
            Some(Value::U64(u)) => *u as f64,
            other => panic!("{key} missing or non-numeric: {other:?}"),
        }
    }

    #[test]
    fn merge_of_empty_is_identity_both_ways() {
        let a = Metrics::new();
        for v in [1.0, 2.0, 4.0] {
            a.observe("lat", v);
        }
        let before = a.snapshot();

        // Empty into populated: nothing changes (min/max/count intact).
        a.merge_from(&Metrics::new());
        assert_eq!(a.snapshot(), before);

        // Populated into empty: the empty side adopts it exactly.
        let c = Metrics::new();
        c.merge_from(&a);
        assert_eq!(c.snapshot(), before);
    }

    #[test]
    fn merged_histograms_match_observing_everything_in_one() {
        let a = Metrics::new();
        let b = Metrics::new();
        let combined = Metrics::new();
        for v in [0.5, 1.0, 3.0] {
            a.observe("lat", v);
            combined.observe("lat", v);
        }
        for v in [8.0, 16.0] {
            b.observe("lat", v);
            combined.observe("lat", v);
        }
        a.merge_from(&b);
        assert_eq!(a.snapshot(), combined.snapshot());
        assert_eq!(histogram_field(&a, "lat", "count"), 5.0);
        assert_eq!(histogram_field(&a, "lat", "min"), 0.5);
        assert_eq!(histogram_field(&a, "lat", "max"), 16.0);
    }

    #[test]
    fn merge_from_adds_counters_and_overwrites_gauges() {
        let a = Metrics::new();
        let b = Metrics::new();
        a.inc("events", 2);
        b.inc("events", 3);
        a.gauge("depth", 1.0);
        b.gauge("depth", 9.0);
        b.inc("only_b", 7);
        a.merge_from(&b);
        assert_eq!(a.counter_value("events"), 5);
        assert_eq!(a.gauge_value("depth"), Some(9.0));
        assert_eq!(a.counter_value("only_b"), 7);
    }

    /// The PR 3 ceil-rank fix: with one sample, every quantile —
    /// including the new p999 — is that sample; target rank never
    /// rounds to zero.
    #[test]
    fn p999_uses_ceil_rank_and_clamps_to_observed_range() {
        let m = Metrics::new();
        m.observe("single", 7.0);
        assert_eq!(histogram_field(&m, "single", "p999"), 7.0);

        // 1000 equal samples: p999 targets rank 999, same bucket.
        let n = Metrics::new();
        for _ in 0..1000 {
            n.observe("v", 3.0);
        }
        assert_eq!(histogram_field(&n, "v", "p999"), 3.0);

        // A 1-in-100 outlier: p999 (ceil rank 100 of 100) must reach
        // the outlier bucket while p99 (ceil rank 99) stays in the
        // bulk — the ranks straddle the outlier.
        let o = Metrics::new();
        for _ in 0..99 {
            o.observe("w", 1.0);
        }
        o.observe("w", 1e6);
        let p999 = histogram_field(&o, "w", "p999");
        assert!(p999 > 1e5, "p999 must land in the outlier bucket: {p999}");
        let p99 = histogram_field(&o, "w", "p99");
        assert!(p99 < 2.0, "p99 stays in the bulk: {p99}");
    }

    #[test]
    fn merged_empty_histograms_stay_empty() {
        let a = Metrics::new();
        let b = Metrics::new();
        a.observe("lat", 1.0);
        b.observe("lat", 2.0);
        // Construct two empty hists via merge identity checks.
        let mut empty = Hist::new();
        empty.merge(&Hist::new());
        assert_eq!(empty.count, 0);
        assert_eq!(empty.quantile(0.999), 0.0, "empty quantile is 0");
        assert_eq!(empty.mean(), 0.0);
        // And a sanity check that the non-empty merge stays finite.
        a.merge_from(&b);
        assert!(histogram_field(&a, "lat", "p999").is_finite());
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
