//! The metrics registry: counters, gauges and fixed-bucket histograms with
//! a Prometheus-style text exposition format.
//!
//! Every handle ([`Counter`], [`Gauge`], [`Histogram`]) is a cheap `Arc`
//! clone around atomics — recording on the hot path is one relaxed
//! `fetch_add`, never an allocation or a lock. The [`Registry`] is the one
//! source of truth a debug endpoint reads: handles register under a metric
//! name plus a label set, and [`Registry::expose`] renders every family in
//! deterministic (sorted) order, so the same counters always produce the
//! same bytes — the property the CI trace/metrics artifacts pin.
//!
//! Naming conventions (see README "Observability"): metric names are
//! `eveth_<subsystem>_<what>[_<unit>]` (`eveth_kv_shard_hits`,
//! `eveth_runtime_io_wait_ns`); labels qualify *which* entity
//! (`{service="kv"}`, `{shard="3"}`), never what is measured.

use std::collections::BTreeMap;
use std::fmt::Write as _;
use std::sync::atomic::{AtomicI64, AtomicU64, Ordering};
use std::sync::Arc;

use parking_lot::Mutex;

/// A relaxed, monotonically-increasing atomic counter.
///
/// Cloning shares the underlying cell, so one handle can live on a hot
/// path while its clone sits in a [`Registry`].
#[derive(Clone, Default)]
pub struct Counter(Arc<AtomicU64>);

/// Prints as the bare value, like the `AtomicU64` inside: a stats struct
/// of counters `{:?}`-prints the same as one of plain atomics.
impl std::fmt::Debug for Counter {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        std::fmt::Debug::fmt(&self.get(), f)
    }
}

impl Counter {
    /// A fresh counter at zero.
    pub fn new() -> Self {
        Self::default()
    }

    /// Adds one.
    pub fn incr(&self) {
        self.0.fetch_add(1, Ordering::Relaxed);
    }

    /// Adds `n`.
    pub fn add(&self, n: u64) {
        self.0.fetch_add(n, Ordering::Relaxed);
    }

    /// Current value.
    pub fn get(&self) -> u64 {
        self.0.load(Ordering::Relaxed)
    }
}

/// A settable signed gauge (current sessions, queue depth, …).
#[derive(Debug, Clone, Default)]
pub struct Gauge(Arc<AtomicI64>);

impl Gauge {
    /// A fresh gauge at zero.
    pub fn new() -> Self {
        Self::default()
    }

    /// Adds one.
    pub fn incr(&self) {
        self.0.fetch_add(1, Ordering::Relaxed);
    }

    /// Subtracts one.
    pub fn decr(&self) {
        self.0.fetch_sub(1, Ordering::Relaxed);
    }

    /// Adds `n` (may be negative).
    pub fn add(&self, n: i64) {
        self.0.fetch_add(n, Ordering::Relaxed);
    }

    /// Overwrites the value.
    pub fn set(&self, v: i64) {
        self.0.store(v, Ordering::Relaxed);
    }

    /// Current value.
    pub fn get(&self) -> i64 {
        self.0.load(Ordering::Relaxed)
    }
}

/// Default histogram bucket bounds: powers of four from 1 µs to ~4.3 s
/// (nanosecond samples), a decent spread for virtual-time latencies.
pub const DEFAULT_BUCKETS: [u64; 12] = [
    1_000,
    4_000,
    16_000,
    64_000,
    256_000,
    1_024_000,
    4_096_000,
    16_384_000,
    65_536_000,
    262_144_000,
    1_048_576_000,
    4_294_967_296,
];

#[derive(Debug)]
struct HistogramInner {
    bounds: Vec<u64>,
    /// One cell per bound plus the overflow (`+Inf`) cell.
    cells: Vec<AtomicU64>,
    sum: AtomicU64,
    count: AtomicU64,
}

/// A fixed-bucket histogram: recording is a binary search over the bounds
/// plus two relaxed adds — allocation-free on the hot path.
///
/// For *exact* percentiles over bounded sample counts (the bench tables),
/// use [`LatencyHistogram`] instead; this type is for always-on metrics
/// where constant memory matters more than exactness.
#[derive(Debug, Clone)]
pub struct Histogram(Arc<HistogramInner>);

impl Histogram {
    /// A histogram over [`DEFAULT_BUCKETS`].
    pub fn new() -> Self {
        Self::with_bounds(&DEFAULT_BUCKETS)
    }

    /// A histogram with explicit ascending bucket upper bounds.
    pub fn with_bounds(bounds: &[u64]) -> Self {
        let mut b = bounds.to_vec();
        b.sort_unstable();
        b.dedup();
        let cells = (0..=b.len()).map(|_| AtomicU64::new(0)).collect();
        Histogram(Arc::new(HistogramInner {
            bounds: b,
            cells,
            sum: AtomicU64::new(0),
            count: AtomicU64::new(0),
        }))
    }

    /// Records one sample.
    pub fn record(&self, v: u64) {
        let i = self.0.bounds.partition_point(|&b| b < v);
        self.0.cells[i].fetch_add(1, Ordering::Relaxed);
        self.0.sum.fetch_add(v, Ordering::Relaxed);
        self.0.count.fetch_add(1, Ordering::Relaxed);
    }

    /// Number of recorded samples.
    pub fn count(&self) -> u64 {
        self.0.count.load(Ordering::Relaxed)
    }

    /// Sum of recorded samples.
    pub fn sum(&self) -> u64 {
        self.0.sum.load(Ordering::Relaxed)
    }

    /// `(upper_bound, cumulative_count)` rows, ending with the `+Inf`
    /// bucket (`u64::MAX` stands in for infinity).
    pub fn cumulative(&self) -> Vec<(u64, u64)> {
        let mut acc = 0;
        let mut out = Vec::with_capacity(self.0.cells.len());
        for (i, cell) in self.0.cells.iter().enumerate() {
            acc += cell.load(Ordering::Relaxed);
            let bound = self.0.bounds.get(i).copied().unwrap_or(u64::MAX);
            out.push((bound, acc));
        }
        out
    }
}

impl Default for Histogram {
    fn default() -> Self {
        Self::new()
    }
}

/// A latency recorder with exact nearest-rank percentiles.
///
/// Samples are virtual-time nanoseconds, so the workloads record at most a
/// few hundred thousand of them per run — storing every sample exactly is
/// cheaper and stricter than a lossy log-bucketed histogram, and keeps the
/// percentile math deterministic (the tail-latency columns of `fig_kv`
/// must be bit-reproducible run over run).
#[derive(Debug, Default)]
pub struct LatencyHistogram {
    samples: parking_lot::Mutex<Vec<u64>>,
}

impl LatencyHistogram {
    /// A fresh, empty recorder.
    pub fn new() -> Self {
        Self::default()
    }

    /// Records one latency sample (nanoseconds).
    pub fn record(&self, ns: u64) {
        self.samples.lock().push(ns);
    }

    /// Number of recorded samples.
    pub fn len(&self) -> usize {
        self.samples.lock().len()
    }

    /// True when nothing has been recorded.
    pub fn is_empty(&self) -> bool {
        self.samples.lock().is_empty()
    }

    /// The nearest-rank `p`th percentile (`0 < p <= 100`) over every
    /// recorded sample: the smallest sample such that at least `p%` of
    /// samples are `<=` it. Returns 0 when nothing was recorded.
    pub fn percentile(&self, p: f64) -> u64 {
        self.percentiles(&[p])[0]
    }

    /// Several percentiles from a single sort — what the bench harness
    /// uses to pull p50/p95/p99 without re-sorting the samples per call.
    pub fn percentiles(&self, ps: &[f64]) -> Vec<u64> {
        let mut sorted = self.samples.lock().clone();
        if sorted.is_empty() {
            return vec![0; ps.len()];
        }
        sorted.sort_unstable();
        ps.iter()
            .map(|p| {
                let p = p.clamp(0.0, 100.0);
                let rank = ((p / 100.0) * sorted.len() as f64).ceil() as usize;
                sorted[rank.clamp(1, sorted.len()) - 1]
            })
            .collect()
    }

    /// Median latency.
    pub fn p50(&self) -> u64 {
        self.percentile(50.0)
    }

    /// 95th percentile.
    pub fn p95(&self) -> u64 {
        self.percentile(95.0)
    }

    /// 99th percentile.
    pub fn p99(&self) -> u64 {
        self.percentile(99.0)
    }

    /// Maximum recorded latency (0 when empty).
    pub fn max(&self) -> u64 {
        self.samples.lock().iter().copied().max().unwrap_or(0)
    }
}

/// One registered metric source.
enum Source {
    Counter(Counter),
    Gauge(Gauge),
    Histogram(Histogram),
    /// A closure counter: reads a value owned elsewhere (e.g. STM
    /// `TxnStats`, the store's shard-gate wait) without porting the owner
    /// onto registry handles.
    CounterFn(Box<dyn Fn() -> u64 + Send + Sync>),
    /// A closure gauge: a point-in-time level owned elsewhere (e.g. the
    /// buffer pool's free-slab occupancy) polled at exposition time.
    GaugeFn(Box<dyn Fn() -> i64 + Send + Sync>),
}

impl std::fmt::Debug for Source {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        f.write_str(match self {
            Source::Counter(_) => "counter",
            Source::Gauge(_) => "gauge",
            Source::Histogram(_) => "histogram",
            Source::CounterFn(_) => "counter(fn)",
            Source::GaugeFn(_) => "gauge(fn)",
        })
    }
}

impl Source {
    fn type_name(&self) -> &'static str {
        match self {
            Source::Counter(_) | Source::CounterFn(_) => "counter",
            Source::Gauge(_) | Source::GaugeFn(_) => "gauge",
            Source::Histogram(_) => "histogram",
        }
    }
}

/// Renders a label set as `{k="v",…}` (empty string for no labels), with
/// keys sorted so the exposition is deterministic.
fn render_labels(labels: &[(&str, &str)]) -> String {
    if labels.is_empty() {
        return String::new();
    }
    let mut sorted: Vec<_> = labels.to_vec();
    sorted.sort_unstable();
    let body: Vec<String> = sorted
        .iter()
        .map(|(k, v)| format!("{k}=\"{}\"", v.replace('\\', "\\\\").replace('"', "\\\"")))
        .collect();
    format!("{{{}}}", body.join(","))
}

/// Merges an extra label into an already-rendered label block (used for
/// histogram `le` labels).
fn with_extra_label(rendered: &str, key: &str, value: &str) -> String {
    if rendered.is_empty() {
        format!("{{{key}=\"{value}\"}}")
    } else {
        format!("{},{key}=\"{value}\"}}", &rendered[..rendered.len() - 1])
    }
}

/// A registry of metric sources keyed by `(name, labels)`.
///
/// All registration paths are get-or-create on names but last-write-wins
/// on an exact `(name, labels)` collision — re-registering a fresh handle
/// under the same key replaces the old one, which is what a restarted
/// server wants.
#[derive(Debug, Default)]
pub struct Registry {
    sources: Mutex<BTreeMap<(String, String), Source>>,
}

impl Registry {
    /// A fresh, empty registry behind an `Arc` (handles are shared with
    /// services and the debug endpoint).
    pub fn new() -> Arc<Self> {
        Arc::new(Registry::default())
    }

    fn insert(&self, name: &str, labels: &[(&str, &str)], src: Source) {
        self.sources
            .lock()
            .insert((name.to_string(), render_labels(labels)), src);
    }

    /// Creates (or replaces) a counter under `name{labels}` and returns
    /// its handle.
    pub fn counter(&self, name: &str, labels: &[(&str, &str)]) -> Counter {
        let c = Counter::new();
        self.register_counter(name, labels, &c);
        c
    }

    /// Registers an existing counter handle under `name{labels}`.
    pub fn register_counter(&self, name: &str, labels: &[(&str, &str)], c: &Counter) {
        self.insert(name, labels, Source::Counter(c.clone()));
    }

    /// Creates (or replaces) a gauge under `name{labels}` and returns its
    /// handle.
    pub fn gauge(&self, name: &str, labels: &[(&str, &str)]) -> Gauge {
        let g = Gauge::new();
        self.register_gauge(name, labels, &g);
        g
    }

    /// Registers an existing gauge handle under `name{labels}`.
    pub fn register_gauge(&self, name: &str, labels: &[(&str, &str)], g: &Gauge) {
        self.insert(name, labels, Source::Gauge(g.clone()));
    }

    /// Creates (or replaces) a histogram under `name{labels}` and returns
    /// its handle.
    pub fn histogram(&self, name: &str, labels: &[(&str, &str)]) -> Histogram {
        let h = Histogram::new();
        self.register_histogram(name, labels, &h);
        h
    }

    /// Registers an existing histogram handle under `name{labels}`.
    pub fn register_histogram(&self, name: &str, labels: &[(&str, &str)], h: &Histogram) {
        self.insert(name, labels, Source::Histogram(h.clone()));
    }

    /// Registers a closure-backed counter: `f` is polled at exposition
    /// time. The route for surfacing counters owned by foreign types (STM
    /// transaction stats, store lock waits) without rewriting them.
    pub fn register_counter_fn(
        &self,
        name: &str,
        labels: &[(&str, &str)],
        f: impl Fn() -> u64 + Send + Sync + 'static,
    ) {
        self.insert(name, labels, Source::CounterFn(Box::new(f)));
    }

    /// Registers a closure-backed gauge: `f` is polled at exposition
    /// time. The gauge analogue of [`Registry::register_counter_fn`] for
    /// levels owned by foreign types (pool occupancy, queue depth).
    pub fn register_gauge_fn(
        &self,
        name: &str,
        labels: &[(&str, &str)],
        f: impl Fn() -> i64 + Send + Sync + 'static,
    ) {
        self.insert(name, labels, Source::GaugeFn(Box::new(f)));
    }

    /// Reads the current value of the counter registered under
    /// `name{labels}`, if any (handles and closure counters both answer).
    pub fn counter_value(&self, name: &str, labels: &[(&str, &str)]) -> Option<u64> {
        let key = (name.to_string(), render_labels(labels));
        match self.sources.lock().get(&key)? {
            Source::Counter(c) => Some(c.get()),
            Source::CounterFn(f) => Some(f()),
            Source::Gauge(g) => Some(g.get().max(0) as u64),
            Source::GaugeFn(f) => Some(f().max(0) as u64),
            Source::Histogram(h) => Some(h.count()),
        }
    }

    /// Renders every metric in the text exposition format, sorted by
    /// `(name, labels)` so identical registries produce identical bytes.
    pub fn expose(&self) -> String {
        let sources = self.sources.lock();
        let mut out = String::new();
        let mut last_family = "";
        for ((name, labels), src) in sources.iter() {
            if name != last_family {
                let _ = writeln!(out, "# TYPE {name} {}", src.type_name());
            }
            match src {
                Source::Counter(c) => {
                    let _ = writeln!(out, "{name}{labels} {}", c.get());
                }
                Source::CounterFn(f) => {
                    let _ = writeln!(out, "{name}{labels} {}", f());
                }
                Source::Gauge(g) => {
                    let _ = writeln!(out, "{name}{labels} {}", g.get());
                }
                Source::GaugeFn(f) => {
                    let _ = writeln!(out, "{name}{labels} {}", f());
                }
                Source::Histogram(h) => {
                    for (bound, cum) in h.cumulative() {
                        let le = if bound == u64::MAX {
                            "+Inf".to_string()
                        } else {
                            bound.to_string()
                        };
                        let lb = with_extra_label(labels, "le", &le);
                        let _ = writeln!(out, "{name}_bucket{lb} {cum}");
                    }
                    let _ = writeln!(out, "{name}_sum{labels} {}", h.sum());
                    let _ = writeln!(out, "{name}_count{labels} {}", h.count());
                }
            }
            last_family = name;
        }
        out
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn counter_and_gauge_roundtrip() {
        let c = Counter::new();
        c.incr();
        c.add(4);
        assert_eq!(c.get(), 5);
        let c2 = c.clone();
        c2.incr();
        assert_eq!(c.get(), 6, "clones share the cell");

        let g = Gauge::new();
        g.incr();
        g.incr();
        g.decr();
        assert_eq!(g.get(), 1);
        g.set(-3);
        assert_eq!(g.get(), -3);
    }

    #[test]
    fn histogram_buckets_are_cumulative() {
        let h = Histogram::with_bounds(&[10, 100, 1000]);
        for v in [5, 50, 500, 5000, 7] {
            h.record(v);
        }
        assert_eq!(h.count(), 5);
        assert_eq!(h.sum(), 5562);
        let rows = h.cumulative();
        assert_eq!(rows, vec![(10, 2), (100, 3), (1000, 4), (u64::MAX, 5)]);
    }

    #[test]
    fn exposition_is_sorted_and_deterministic() {
        let reg = Registry::new();
        reg.counter("eveth_b_total", &[("svc", "kv")]).add(2);
        reg.counter("eveth_a_total", &[]).incr();
        reg.gauge("eveth_live", &[]).set(7);
        let h = reg.histogram("eveth_lat_ns", &[("svc", "kv")]);
        h.record(1);
        let once = reg.expose();
        assert_eq!(once, reg.expose(), "byte-stable across calls");
        let a = once.find("eveth_a_total 1").unwrap();
        let b = once.find("eveth_b_total{svc=\"kv\"} 2").unwrap();
        assert!(a < b, "families sorted by name:\n{once}");
        assert!(once.contains("# TYPE eveth_a_total counter"));
        assert!(once.contains("# TYPE eveth_live gauge"));
        assert!(once.contains("eveth_lat_ns_bucket{svc=\"kv\",le=\"1000\"} 1"));
        assert!(once.contains("eveth_lat_ns_bucket{svc=\"kv\",le=\"+Inf\"} 1"));
        assert!(once.contains("eveth_lat_ns_count{svc=\"kv\"} 1"));
    }

    #[test]
    fn closure_counters_poll_at_expose_time() {
        let reg = Registry::new();
        let shared = Arc::new(AtomicU64::new(0));
        let src = Arc::clone(&shared);
        reg.register_counter_fn("eveth_ext_total", &[], move || src.load(Ordering::Relaxed));
        assert!(reg.expose().contains("eveth_ext_total 0"));
        shared.store(9, Ordering::Relaxed);
        assert!(reg.expose().contains("eveth_ext_total 9"));
        assert_eq!(reg.counter_value("eveth_ext_total", &[]), Some(9));
    }

    #[test]
    fn closure_gauges_poll_at_expose_time() {
        let reg = Registry::new();
        let shared = Arc::new(AtomicU64::new(3));
        let src = Arc::clone(&shared);
        reg.register_gauge_fn("eveth_pool_free", &[], move || {
            src.load(Ordering::Relaxed) as i64 - 5
        });
        assert!(reg.expose().contains("# TYPE eveth_pool_free gauge"));
        assert!(
            reg.expose().contains("eveth_pool_free -2"),
            "levels go negative"
        );
        shared.store(12, Ordering::Relaxed);
        assert!(reg.expose().contains("eveth_pool_free 7"));
        // counter_value clamps a negative level to zero.
        shared.store(0, Ordering::Relaxed);
        assert_eq!(reg.counter_value("eveth_pool_free", &[]), Some(0));
    }

    #[test]
    fn label_sets_sort_and_escape() {
        assert_eq!(render_labels(&[]), "");
        assert_eq!(
            render_labels(&[("z", "1"), ("a", "x\"y")]),
            "{a=\"x\\\"y\",z=\"1\"}"
        );
        assert_eq!(
            with_extra_label("{a=\"1\"}", "le", "+Inf"),
            "{a=\"1\",le=\"+Inf\"}"
        );
        assert_eq!(with_extra_label("", "le", "10"), "{le=\"10\"}");
    }
}
