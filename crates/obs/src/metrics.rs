//! The metrics registry: typed counters, gauges, and log-linear histograms
//! declared by name, with Prometheus-text and JSON exporters.
//!
//! The registry is the *ledger*, not a render-time copy of one. Each
//! metric is declared once, when its owner is built, and declaring it
//! returns a typed handle ([`Counter`], [`Gauge`], [`Histogram`]) — a
//! cheap clone of shared atomics that the hot path records through. A
//! scrape renders the live handles in declaration order. Values another
//! component owns (a cache's hit count, a queue's depth) are copied into
//! their handles by that owner just before it renders.
//!
//! **Naming scheme.** `gsi_<subsystem>_<quantity>[_<unit>][_total]`,
//! lower-snake-case, `_total` on monotonic counters, the unit spelled out
//! (`_us`, `_bytes`) on measured quantities — validated at declaration so
//! an invalid name fails in tests, not in the scrape endpoint.

use parking_lot::RwLock;
use std::fmt::Write as _;
use std::sync::atomic::{AtomicU64, Ordering};
use std::sync::Arc;

/// Which exporter renders the registry.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum MetricFormat {
    /// Prometheus text exposition format (version 0.0.4).
    Prometheus,
    /// A single JSON object (`{"metrics":[...]}`).
    Json,
}

/// Whether `name` fits the metric-name grammar the exporters rely on.
pub fn valid_metric_name(name: &str) -> bool {
    let mut chars = name.chars();
    match chars.next() {
        Some(c) if c.is_ascii_lowercase() || c == '_' => {}
        _ => return false,
    }
    chars.all(|c| c.is_ascii_lowercase() || c.is_ascii_digit() || c == '_')
}

/// A monotone counter handle. Clones share one atomic; adds are relaxed
/// (statistics, not synchronization) and exact under concurrent writers.
#[derive(Debug, Clone, Default)]
pub struct Counter(Arc<AtomicU64>);

impl Counter {
    /// Count one.
    pub fn inc(&self) {
        self.add(1);
    }

    /// Count `n`.
    pub fn add(&self, n: u64) {
        self.0.fetch_add(n, Ordering::Relaxed);
    }

    /// Raise the counter to `n` if it is below — for a count another
    /// component owns, copied in at scrape time. Never moves it backwards,
    /// so two racing scrapes cannot make a counter look reset.
    pub fn raise_to(&self, n: u64) {
        self.0.fetch_max(n, Ordering::Relaxed);
    }

    /// Current value.
    pub fn get(&self) -> u64 {
        self.0.load(Ordering::Relaxed)
    }
}

/// A point-in-time `f64` gauge handle (the value's bits in one atomic).
#[derive(Debug, Clone, Default)]
pub struct Gauge(Arc<AtomicU64>);

impl Gauge {
    /// Overwrite the value.
    pub fn set(&self, v: f64) {
        self.0.store(v.to_bits(), Ordering::Relaxed);
    }

    /// Add `v` (a compare-and-swap loop: `f64` has no atomic add).
    pub fn add(&self, v: f64) {
        let _ = self
            .0
            .fetch_update(Ordering::Relaxed, Ordering::Relaxed, |bits| {
                Some((f64::from_bits(bits) + v).to_bits())
            });
    }

    /// Current value.
    pub fn get(&self) -> f64 {
        f64::from_bits(self.0.load(Ordering::Relaxed))
    }
}

/// Linear sub-buckets per power of two in a [`Histogram`]: a bucket's
/// upper bound over-reports any value in it by at most `1/SUB_BUCKETS`.
pub const SUB_BUCKETS: u64 = 16;

/// `log2(SUB_BUCKETS)`.
const SUB_BITS: u32 = SUB_BUCKETS.trailing_zeros();

/// Every integer up to this bound is a bucket bound of its own: below it a
/// sub-bucket would be narrower than one.
const EXACT_MAX: u64 = 2 * SUB_BUCKETS;

/// Largest finite bucket bound (`2^62`); larger observations count only in
/// the `+Inf` bucket.
pub const HISTOGRAM_MAX: u64 = 1 << 62;

/// Number of finite buckets: the exact ones `0..=EXACT_MAX`, then
/// `SUB_BUCKETS` per octave `(2^e, 2^(e+1)]` up to [`HISTOGRAM_MAX`].
pub const HISTOGRAM_BUCKETS: usize = EXACT_MAX as usize
    + 1
    + (HISTOGRAM_MAX.trailing_zeros() - SUB_BITS - 1) as usize * SUB_BUCKETS as usize;

/// The bucket `value` lands in (`None`: above [`HISTOGRAM_MAX`], `+Inf`
/// only). A bucket counts the values in `(previous bound, its bound]`.
fn bucket_index(value: u64) -> Option<usize> {
    if value <= EXACT_MAX {
        return Some(value as usize);
    }
    if value > HISTOGRAM_MAX {
        return None;
    }
    // value − 1 lies in [2^e, 2^(e+1)) with e > SUB_BITS; its top
    // SUB_BITS + 1 bits pick the sub-bucket whose bound rounds value up.
    let m = value - 1;
    let e = 63 - m.leading_zeros();
    let shift = e - SUB_BITS;
    let sub = (m >> shift) - SUB_BUCKETS;
    Some(EXACT_MAX as usize + 1 + ((shift - 1) as u64 * SUB_BUCKETS + sub) as usize)
}

/// Upper (inclusive) bound of bucket `idx`: `0, 1, …, 32, 34, 36, …, 64,
/// 68, …` — `SUB_BUCKETS` evenly spaced bounds per power of two.
fn bucket_bound(idx: usize) -> u64 {
    if idx as u64 <= EXACT_MAX {
        return idx as u64;
    }
    let j = (idx - EXACT_MAX as usize - 1) as u64;
    let shift = (j / SUB_BUCKETS) as u32 + 1;
    (SUB_BUCKETS + j % SUB_BUCKETS + 1) << shift
}

#[derive(Debug)]
struct HistogramCells {
    buckets: Box<[AtomicU64]>,
    sum: AtomicU64,
    count: AtomicU64,
}

/// A live, lock-free, log-linear histogram handle over `u64`
/// observations. Clones share one set of cells.
///
/// Bucket bounds: every integer `0..=32`, then [`SUB_BUCKETS`] evenly
/// spaced bounds per power of two up to [`HISTOGRAM_MAX`]. An observation
/// counts in the smallest bound at or above it, so reading a percentile as
/// its bucket's bound never under-reports and over-reports by at most
/// `1/SUB_BUCKETS`. Values above `HISTOGRAM_MAX` count only in `+Inf`;
/// `_sum` saturates at `u64::MAX` instead of wrapping. All cells are
/// relaxed atomics, exact under concurrent observers.
#[derive(Debug, Clone)]
pub struct Histogram(Arc<HistogramCells>);

impl Default for Histogram {
    fn default() -> Self {
        Histogram(Arc::new(HistogramCells {
            buckets: (0..HISTOGRAM_BUCKETS).map(|_| AtomicU64::new(0)).collect(),
            sum: AtomicU64::new(0),
            count: AtomicU64::new(0),
        }))
    }
}

impl Histogram {
    /// Record one observation.
    pub fn observe(&self, value: u64) {
        let cells = &self.0;
        // Count before bucket: a concurrent snapshot, which reads buckets
        // first, then sees a total at least its cumulative bucket count.
        cells.count.fetch_add(1, Ordering::Relaxed);
        if let Some(idx) = bucket_index(value) {
            cells.buckets[idx].fetch_add(1, Ordering::Relaxed);
        }
        let _ = cells
            .sum
            .fetch_update(Ordering::Relaxed, Ordering::Relaxed, |s| {
                Some(s.saturating_add(value))
            });
    }

    /// Point-in-time copy listing the non-empty buckets only.
    pub fn snapshot(&self) -> HistogramSnapshot {
        let buckets: Vec<(u64, u64)> = self
            .0
            .buckets
            .iter()
            .enumerate()
            .filter_map(|(i, b)| {
                let n = b.load(Ordering::Relaxed);
                (n > 0).then(|| (bucket_bound(i), n))
            })
            .collect();
        let finite: u64 = buckets.iter().map(|&(_, n)| n).sum();
        HistogramSnapshot {
            buckets,
            sum: self.0.sum.load(Ordering::Relaxed),
            count: self.0.count.load(Ordering::Relaxed).max(finite),
        }
    }
}

/// Plain-data copy of a [`Histogram`].
#[derive(Debug, Clone, PartialEq, Default)]
pub struct HistogramSnapshot {
    /// `(upper_bound, count_in_bucket)` pairs of the non-empty finite
    /// buckets, ascending, non-cumulative.
    pub buckets: Vec<(u64, u64)>,
    /// Sum of all observations (saturating).
    pub sum: u64,
    /// Number of observations, `+Inf` ones included.
    pub count: u64,
}

impl HistogramSnapshot {
    /// The nearest-rank `q`-quantile (`q` in `[0, 1]`; rank
    /// `round((count − 1)·q)` of the sorted observations), read as its
    /// bucket's upper bound; `u64::MAX` when that observation is above
    /// [`HISTOGRAM_MAX`], `None` without observations.
    pub fn percentile(&self, q: f64) -> Option<u64> {
        if self.count == 0 {
            return None;
        }
        let rank = ((self.count - 1) as f64 * q.clamp(0.0, 1.0)).round() as u64;
        let mut seen = 0u64;
        for &(bound, n) in &self.buckets {
            seen += n;
            if seen > rank {
                return Some(bound);
            }
        }
        Some(u64::MAX)
    }
}

/// A declared metric's handle.
#[derive(Debug, Clone)]
enum Handle {
    Counter(Counter),
    Gauge(Gauge),
    Histogram(Histogram),
}

impl Handle {
    /// The Prometheus `# TYPE` keyword.
    fn type_name(&self) -> &'static str {
        match self {
            Handle::Counter(_) => "counter",
            Handle::Gauge(_) => "gauge",
            Handle::Histogram(_) => "histogram",
        }
    }
}

#[derive(Debug)]
struct Entry {
    name: String,
    help: String,
    handle: Handle,
}

/// The declared metrics, in declaration order, with exporters.
///
/// Declaration takes `&self`, so a component built on top of another (a
/// network front-end over a service) declares its metrics into the same
/// registry. Declaring a name again with the same kind returns the
/// existing handle; an invalid name, or a name declared as two kinds,
/// panics — both are declaration-site bugs the snapshot tests catch.
#[derive(Debug, Default)]
pub struct MetricsRegistry {
    entries: RwLock<Vec<Entry>>,
}

impl MetricsRegistry {
    /// Empty registry.
    pub fn new() -> Self {
        Self::default()
    }

    fn declare(&self, name: &str, help: &str, fresh: Handle) -> Handle {
        assert!(valid_metric_name(name), "invalid metric name: {name:?}");
        let mut entries = self.entries.write();
        if let Some(e) = entries.iter().find(|e| e.name == name) {
            assert!(
                std::mem::discriminant(&e.handle) == std::mem::discriminant(&fresh),
                "duplicate metric name: {name:?} declared as two kinds"
            );
            return e.handle.clone();
        }
        entries.push(Entry {
            name: name.to_string(),
            help: help.to_string(),
            handle: fresh.clone(),
        });
        fresh
    }

    /// Declare a monotone counter.
    pub fn counter(&self, name: &str, help: &str) -> Counter {
        let fresh = Counter::default();
        match self.declare(name, help, Handle::Counter(fresh.clone())) {
            Handle::Counter(c) => c,
            _ => fresh, // unreachable: `declare` asserted the kind
        }
    }

    /// Declare a point-in-time gauge.
    pub fn gauge(&self, name: &str, help: &str) -> Gauge {
        let fresh = Gauge::default();
        match self.declare(name, help, Handle::Gauge(fresh.clone())) {
            Handle::Gauge(g) => g,
            _ => fresh, // unreachable: `declare` asserted the kind
        }
    }

    /// Declare a histogram.
    pub fn histogram(&self, name: &str, help: &str) -> Histogram {
        let fresh = Histogram::default();
        match self.declare(name, help, Handle::Histogram(fresh.clone())) {
            Handle::Histogram(h) => h,
            _ => fresh, // unreachable: `declare` asserted the kind
        }
    }

    /// Render the registry in `format`.
    pub fn render(&self, format: MetricFormat) -> String {
        match format {
            MetricFormat::Prometheus => self.to_prometheus_text(),
            MetricFormat::Json => self.to_json(),
        }
    }

    /// Prometheus text exposition: `# HELP` / `# TYPE` / sample lines per
    /// metric; histograms expand to `_bucket{le="..."}` (non-empty buckets
    /// and `+Inf`), `_sum`, `_count`.
    pub fn to_prometheus_text(&self) -> String {
        let mut out = String::new();
        for e in self.entries.read().iter() {
            let name = &e.name;
            let _ = writeln!(out, "# HELP {name} {}", e.help);
            let _ = writeln!(out, "# TYPE {name} {}", e.handle.type_name());
            let _ = match &e.handle {
                Handle::Counter(c) => writeln!(out, "{name} {}", c.get()),
                Handle::Gauge(g) => writeln!(out, "{name} {}", prom_f64(g.get())),
                Handle::Histogram(h) => {
                    let h = h.snapshot();
                    let mut cumulative = 0u64;
                    for (le, count) in &h.buckets {
                        cumulative += count;
                        let _ = writeln!(out, "{name}_bucket{{le=\"{le}\"}} {cumulative}");
                    }
                    writeln!(
                        out,
                        "{name}_bucket{{le=\"+Inf\"}} {}\n{name}_sum {}\n{name}_count {}",
                        h.count, h.sum, h.count
                    )
                }
            };
        }
        out
    }

    /// JSON exporter: `{"metrics":[{name, type, help, value...}, ...]}`.
    pub fn to_json(&self) -> String {
        let mut buf = crate::json::JsonBuf::new();
        buf.begin_obj();
        buf.key("metrics");
        buf.begin_arr();
        for e in self.entries.read().iter() {
            buf.begin_obj();
            buf.field_str("name", &e.name);
            buf.field_str("type", e.handle.type_name());
            buf.field_str("help", &e.help);
            match &e.handle {
                Handle::Counter(c) => buf.field_u64("value", c.get()),
                Handle::Gauge(g) => buf.field_f64("value", g.get()),
                Handle::Histogram(h) => {
                    let h = h.snapshot();
                    buf.key("buckets");
                    buf.begin_arr();
                    for (le, count) in &h.buckets {
                        buf.begin_obj();
                        buf.field_u64("le", *le);
                        buf.field_u64("count", *count);
                        buf.end_obj();
                    }
                    buf.end_arr();
                    buf.field_u64("sum", h.sum);
                    buf.field_u64("count", h.count);
                }
            }
            buf.end_obj();
        }
        buf.end_arr();
        buf.end_obj();
        buf.finish()
    }
}

/// Prometheus float formatting (integers render without a fraction, which
/// the exposition format permits; non-finite values use Prometheus's
/// `NaN`/`+Inf`/`-Inf` spellings).
fn prom_f64(v: f64) -> String {
    if v.is_nan() {
        "NaN".to_string()
    } else if v.is_infinite() {
        if v > 0.0 { "+Inf" } else { "-Inf" }.to_string()
    } else {
        crate::json::format_f64(v)
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use proptest::prelude::*;

    fn histogram_of(values: &[u64]) -> HistogramSnapshot {
        let h = Histogram::default();
        for &v in values {
            h.observe(v);
        }
        h.snapshot()
    }

    #[test]
    fn name_grammar() {
        assert!(valid_metric_name("gsi_queries_completed_total"));
        assert!(valid_metric_name("_private"));
        assert!(!valid_metric_name("9starts_with_digit"));
        assert!(!valid_metric_name("has-dash"));
        assert!(!valid_metric_name("Upper"));
        assert!(!valid_metric_name(""));
    }

    #[test]
    #[should_panic(expected = "duplicate metric name")]
    fn duplicate_names_panic() {
        let r = MetricsRegistry::new();
        r.counter("gsi_x_total", "x");
        r.gauge("gsi_x_total", "x again, as another kind");
    }

    #[test]
    fn redeclaring_a_name_shares_its_handle() {
        let r = MetricsRegistry::new();
        r.counter("gsi_x_total", "x").add(2);
        r.counter("gsi_x_total", "x").inc();
        assert_eq!(r.counter("gsi_x_total", "x").get(), 3);
        assert_eq!(r.to_prometheus_text().matches("# TYPE").count(), 1);
    }

    #[test]
    fn histogram_buckets_are_log2() {
        // Log-linear: exact up to 32, then 16 sub-buckets per power of
        // two — so every power of two is still a bucket bound of its own.
        let snap = histogram_of(&[0, 1, 2, 3, 4, 5, 31, 32, 33, 65, 1000, 1024]);
        assert_eq!(snap.count, 12);
        assert_eq!(snap.sum, 2200);
        // 33 → le=34 (width 2 in (32, 64]); 65 → le=68 (width 4);
        // 1000 → le=1024 (width 32 in (512, 1024]), shared with 1024.
        assert_eq!(
            snap.buckets,
            vec![
                (0, 1),
                (1, 1),
                (2, 1),
                (3, 1),
                (4, 1),
                (5, 1),
                (31, 1),
                (32, 1),
                (34, 1),
                (68, 1),
                (1024, 2)
            ]
        );
        for e in 5..62 {
            let p = 1u64 << e;
            assert_eq!(bucket_bound(bucket_index(p).unwrap()), p, "2^{e}");
        }
    }

    #[test]
    fn bucket_layout_is_contiguous_and_ends_at_the_max() {
        assert_eq!(HISTOGRAM_BUCKETS, 33 + 57 * 16);
        assert_eq!(bucket_bound(HISTOGRAM_BUCKETS - 1), HISTOGRAM_MAX);
        assert_eq!(bucket_index(HISTOGRAM_MAX), Some(HISTOGRAM_BUCKETS - 1));
        assert_eq!(bucket_index(HISTOGRAM_MAX + 1), None);
        for idx in 1..HISTOGRAM_BUCKETS {
            let (lo, hi) = (bucket_bound(idx - 1), bucket_bound(idx));
            assert!(lo < hi, "bounds ascend at {idx}");
            assert_eq!(
                bucket_index(lo + 1),
                Some(idx),
                "({lo}, {hi}] opens at {idx}"
            );
            assert_eq!(bucket_index(hi), Some(idx), "({lo}, {hi}] closes at {idx}");
        }
    }

    proptest! {
        #![proptest_config(ProptestConfig::with_cases(128))]

        #[test]
        fn every_value_below_32_has_its_own_bucket(v in 0u64..32) {
            let snap = histogram_of(&[v]);
            prop_assert_eq!(snap.buckets, vec![(v, 1)]);
        }

        #[test]
        fn percentiles_over_report_by_at_most_a_sixteenth(
            magnitude in 1u32..62,
            raw in proptest::collection::vec(any::<u64>(), 1..200),
        ) {
            let values: Vec<u64> = raw.iter().map(|r| r % (1u64 << magnitude)).collect();
            let snap = histogram_of(&values);
            let mut sorted = values.clone();
            sorted.sort_unstable();
            prop_assert_eq!(snap.count, values.len() as u64);
            prop_assert_eq!(snap.sum, values.iter().fold(0u64, |s, &v| s.saturating_add(v)));
            for q in [0.5, 0.99] {
                let rank = ((sorted.len() - 1) as f64 * q).round() as usize;
                let exact = sorted[rank] as u128;
                let read = snap.percentile(q).unwrap() as u128;
                prop_assert!(
                    exact <= read && read * 16 <= exact * 17,
                    "q={} exact {} read {}", q, exact, read
                );
            }
        }

        #[test]
        fn values_above_the_top_bound_count_only_in_inf(v in (HISTOGRAM_MAX + 1)..u64::MAX) {
            let snap = histogram_of(&[v, u64::MAX, 7]);
            prop_assert_eq!(snap.buckets, vec![(7, 1)]);
            prop_assert_eq!(snap.count, 3);
            prop_assert_eq!(snap.sum, u64::MAX, "sum saturates");
            prop_assert_eq!(snap.percentile(1.0), Some(u64::MAX));
        }
    }

    #[test]
    fn prometheus_snapshot() {
        let r = MetricsRegistry::new();
        r.counter("gsi_queries_completed_total", "Queries served.")
            .add(42);
        r.gauge("gsi_queue_depth", "Queries waiting.").set(3.0);
        let latency = r.histogram("gsi_query_latency_us", "End-to-end latency.");
        for v in [1, 2, 3, 40] {
            latency.observe(v);
        }
        let text = r.to_prometheus_text();
        let expected = "\
# HELP gsi_queries_completed_total Queries served.
# TYPE gsi_queries_completed_total counter
gsi_queries_completed_total 42
# HELP gsi_queue_depth Queries waiting.
# TYPE gsi_queue_depth gauge
gsi_queue_depth 3
# HELP gsi_query_latency_us End-to-end latency.
# TYPE gsi_query_latency_us histogram
gsi_query_latency_us_bucket{le=\"1\"} 1
gsi_query_latency_us_bucket{le=\"2\"} 2
gsi_query_latency_us_bucket{le=\"3\"} 3
gsi_query_latency_us_bucket{le=\"40\"} 4
gsi_query_latency_us_bucket{le=\"+Inf\"} 4
gsi_query_latency_us_sum 46
gsi_query_latency_us_count 4
";
        assert_eq!(text, expected);
    }

    #[test]
    fn json_snapshot() {
        let r = MetricsRegistry::new();
        r.counter("gsi_queries_completed_total", "Queries served.")
            .add(42);
        r.gauge("gsi_hit_rate", "Cache hit rate.").set(0.5);
        let fill = r.histogram("gsi_batch_fill", "Batch sizes.");
        fill.observe(1);
        fill.observe(2);
        let expected = r#"{"metrics":[{"name":"gsi_queries_completed_total","type":"counter","help":"Queries served.","value":42},{"name":"gsi_hit_rate","type":"gauge","help":"Cache hit rate.","value":0.5},{"name":"gsi_batch_fill","type":"histogram","help":"Batch sizes.","buckets":[{"le":1,"count":1},{"le":2,"count":1}],"sum":3,"count":2}]}"#;
        assert_eq!(r.to_json(), expected);
        assert_eq!(r.render(MetricFormat::Json), expected);
    }

    #[test]
    fn gauge_non_finite_renders_prometheus_spellings() {
        let r = MetricsRegistry::new();
        r.gauge("gsi_a", "a").set(f64::NAN);
        r.gauge("gsi_b", "b").set(f64::INFINITY);
        let text = r.to_prometheus_text();
        assert!(text.contains("gsi_a NaN\n"));
        assert!(text.contains("gsi_b +Inf\n"));
    }
}
