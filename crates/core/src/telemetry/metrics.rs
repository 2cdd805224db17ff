//! The metrics registry: counters and gauges with a Prometheus-style text
//! exposition format.
//!
//! Every handle ([`Counter`], [`Gauge`]) is a cheap `Arc`
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

    /// An empty recorder with room for `n` samples, so recording them
    /// allocates nothing.
    pub fn with_capacity(n: usize) -> Self {
        LatencyHistogram {
            samples: parking_lot::Mutex::new(Vec::with_capacity(n)),
        }
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
    /// A closure counter: a value computed at exposition time (e.g. the
    /// store's shard-gate wait, a sum of STM cells) rather than kept in a
    /// cell of its own.
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

    /// Registers a closure-backed counter: `f` is polled at exposition
    /// time. The route for counts computed from state owned elsewhere
    /// (store lock waits, a sum of other cells) rather than counted in a
    /// [`Counter`].
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
            let _ = match src {
                Source::Counter(c) => writeln!(out, "{name}{labels} {}", c.get()),
                Source::CounterFn(f) => writeln!(out, "{name}{labels} {}", f()),
                Source::Gauge(g) => writeln!(out, "{name}{labels} {}", g.get()),
                Source::GaugeFn(f) => writeln!(out, "{name}{labels} {}", f()),
            };
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
    fn exposition_is_sorted_and_deterministic() {
        let reg = Registry::new();
        reg.counter("eveth_b_total", &[("svc", "kv")]).add(2);
        reg.counter("eveth_a_total", &[]).incr();
        reg.gauge("eveth_live", &[]).set(7);
        let once = reg.expose();
        assert_eq!(once, reg.expose(), "byte-stable across calls");
        let a = once.find("eveth_a_total 1").unwrap();
        let b = once.find("eveth_b_total{svc=\"kv\"} 2").unwrap();
        assert!(a < b, "families sorted by name:\n{once}");
        assert!(once.contains("# TYPE eveth_a_total counter"));
        assert!(once.contains("# TYPE eveth_live gauge"));
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
    }
}
