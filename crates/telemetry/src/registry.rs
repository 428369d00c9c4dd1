//! The metrics registry: named counters, gauges, and log₂-bucketed
//! histograms.
//!
//! Handles ([`Counter`], [`Gauge`], [`Histogram`]) are `Arc`-backed and
//! cheap to clone; resolving one takes a registry lock, bumping one is
//! a lock-free atomic op guarded by [`crate::metrics_enabled`]. Hot
//! paths should resolve handles once (e.g. at heap construction) and
//! hold them.

use std::collections::BTreeMap;
use std::sync::atomic::{AtomicU64, Ordering};
use std::sync::{Arc, Mutex, OnceLock};

use crate::config::metrics_enabled;

/// Number of histogram buckets: bucket `i` holds values `v` with
/// `floor(log2(v)) + 1 == i` (bucket 0 holds exactly zero), so bucket
/// `i > 0` spans `[2^(i-1), 2^i - 1]`.
pub const HIST_BUCKETS: usize = 65;

/// Monotonically increasing event count.
#[derive(Clone)]
pub struct Counter {
    cell: Arc<AtomicU64>,
}

impl Counter {
    /// Adds one.
    #[inline]
    pub fn inc(&self) {
        self.add(1);
    }

    /// Adds `n`.
    #[inline]
    pub fn add(&self, n: u64) {
        if metrics_enabled() && n != 0 {
            self.cell.fetch_add(n, Ordering::Relaxed);
        }
    }

    /// Current value (reads even when recording is disabled).
    pub fn get(&self) -> u64 {
        self.cell.load(Ordering::Relaxed)
    }

    /// A handle backed by a private cell, registered nowhere. Returned
    /// by the crate-level resolvers when metrics are disabled so
    /// callers never touch the registry on the disabled path.
    pub(crate) fn detached() -> Self {
        Counter {
            cell: Arc::new(AtomicU64::new(0)),
        }
    }
}

impl std::fmt::Debug for Counter {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        f.debug_tuple("Counter").field(&self.get()).finish()
    }
}

/// Last-write-wins instantaneous value.
#[derive(Clone)]
pub struct Gauge {
    cell: Arc<AtomicU64>,
}

impl Gauge {
    /// Overwrites the gauge.
    #[inline]
    pub fn set(&self, v: u64) {
        if metrics_enabled() {
            self.cell.store(v, Ordering::Relaxed);
        }
    }

    /// Current value.
    pub fn get(&self) -> u64 {
        self.cell.load(Ordering::Relaxed)
    }

    /// Registry-less handle; see [`Counter::detached`].
    pub(crate) fn detached() -> Self {
        Gauge {
            cell: Arc::new(AtomicU64::new(0)),
        }
    }
}

impl std::fmt::Debug for Gauge {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        f.debug_tuple("Gauge").field(&self.get()).finish()
    }
}

struct HistInner {
    count: AtomicU64,
    sum: AtomicU64,
    min: AtomicU64,
    max: AtomicU64,
    buckets: [AtomicU64; HIST_BUCKETS],
}

impl Default for HistInner {
    fn default() -> Self {
        HistInner {
            count: AtomicU64::new(0),
            sum: AtomicU64::new(0),
            min: AtomicU64::new(u64::MAX),
            max: AtomicU64::new(0),
            buckets: std::array::from_fn(|_| AtomicU64::new(0)),
        }
    }
}

/// Log₂-scaled histogram of `u64` samples (latencies, sizes, work
/// units). Constant memory, lock-free recording, ~2× relative error on
/// quantile estimates — the standard trade for pause-time tracking.
#[derive(Clone)]
pub struct Histogram {
    inner: Arc<HistInner>,
}

fn bucket_index(v: u64) -> usize {
    if v == 0 {
        0
    } else {
        64 - v.leading_zeros() as usize
    }
}

impl Histogram {
    /// Records one sample.
    #[inline]
    pub fn record(&self, v: u64) {
        if !metrics_enabled() {
            return;
        }
        let h = &*self.inner;
        h.count.fetch_add(1, Ordering::Relaxed);
        h.sum.fetch_add(v, Ordering::Relaxed);
        h.min.fetch_min(v, Ordering::Relaxed);
        h.max.fetch_max(v, Ordering::Relaxed);
        h.buckets[bucket_index(v)].fetch_add(1, Ordering::Relaxed);
    }

    /// Records a `Duration` in microseconds (the crate-wide time unit
    /// for histograms).
    #[inline]
    pub fn record_duration(&self, d: std::time::Duration) {
        self.record(d.as_micros().min(u64::MAX as u128) as u64);
    }

    /// Registry-less handle; see [`Counter::detached`].
    pub(crate) fn detached() -> Self {
        Histogram {
            inner: Arc::new(HistInner::default()),
        }
    }

    /// Point-in-time copy of this histogram's state.
    fn snapshot(&self) -> HistogramSnapshot {
        let h = &*self.inner;
        let count = h.count.load(Ordering::Relaxed);
        let buckets: Vec<u64> = h
            .buckets
            .iter()
            .map(|b| b.load(Ordering::Relaxed))
            .collect();
        HistogramSnapshot {
            count,
            sum: h.sum.load(Ordering::Relaxed),
            min: if count == 0 {
                0
            } else {
                h.min.load(Ordering::Relaxed)
            },
            max: h.max.load(Ordering::Relaxed),
            buckets,
        }
    }
}

impl std::fmt::Debug for Histogram {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        let s = self.snapshot();
        f.debug_struct("Histogram")
            .field("count", &s.count)
            .field("sum", &s.sum)
            .finish()
    }
}

/// Point-in-time copy of one histogram.
#[derive(Clone, Debug, PartialEq, Eq)]
pub struct HistogramSnapshot {
    /// Number of recorded samples.
    pub count: u64,
    /// Sum of all samples.
    pub sum: u64,
    /// Smallest sample (0 when empty).
    pub min: u64,
    /// Largest sample (0 when empty).
    pub max: u64,
    /// Per-bucket counts; bucket `i > 0` spans `[2^(i-1), 2^i - 1]`.
    pub buckets: Vec<u64>,
}

impl HistogramSnapshot {
    /// Builds a snapshot directly from raw samples, without going
    /// through a registry or the global enable gate. Lets offline
    /// aggregations (e.g. a vector of pause work-unit counts) reuse the
    /// same log₂ bucketing and quantile estimator the live histograms
    /// use, so percentiles reported from either path agree.
    pub fn from_samples(samples: impl IntoIterator<Item = u64>) -> HistogramSnapshot {
        let mut snap = HistogramSnapshot {
            count: 0,
            sum: 0,
            min: u64::MAX,
            max: 0,
            buckets: vec![0; HIST_BUCKETS],
        };
        for v in samples {
            snap.count += 1;
            snap.sum += v;
            snap.min = snap.min.min(v);
            snap.max = snap.max.max(v);
            snap.buckets[bucket_index(v)] += 1;
        }
        if snap.count == 0 {
            snap.min = 0;
        }
        snap
    }

    /// Arithmetic mean of the samples (0 when empty).
    pub fn mean(&self) -> f64 {
        if self.count == 0 {
            0.0
        } else {
            self.sum as f64 / self.count as f64
        }
    }

    /// Estimates the `q`-quantile (`0.0..=1.0`) from the bucket
    /// boundaries: returns the upper bound of the bucket containing the
    /// rank, clamped to the observed max. ~2× relative error by
    /// construction.
    pub fn quantile(&self, q: f64) -> u64 {
        if self.count == 0 {
            return 0;
        }
        let rank = ((q * self.count as f64).ceil() as u64).clamp(1, self.count);
        let mut seen = 0u64;
        for (i, &c) in self.buckets.iter().enumerate() {
            seen += c;
            if seen >= rank {
                let upper = if i == 0 {
                    0
                } else if i >= 64 {
                    u64::MAX
                } else {
                    (1u64 << i) - 1
                };
                return upper.min(self.max);
            }
        }
        self.max
    }

    /// Non-empty buckets as `(upper_bound, count)` pairs.
    pub fn nonzero_buckets(&self) -> Vec<(u64, u64)> {
        self.buckets
            .iter()
            .enumerate()
            .filter(|(_, &c)| c > 0)
            .map(|(i, &c)| {
                let upper = if i == 0 {
                    0
                } else if i >= 64 {
                    u64::MAX
                } else {
                    (1u64 << i) - 1
                };
                (upper, c)
            })
            .collect()
    }
}

/// Named-metric store. Most callers use the process-wide [`global`]
/// registry; tests may build private ones with [`Registry::new`].
#[derive(Default)]
pub struct Registry {
    counters: Mutex<BTreeMap<String, Counter>>,
    gauges: Mutex<BTreeMap<String, Gauge>>,
    histograms: Mutex<BTreeMap<String, Histogram>>,
}

/// Locks a metric map, recovering from poisoning: metric state is a
/// monotone map of handles to atomics, so a panic mid-insert leaves at
/// worst a registered-but-unreturned handle — always safe to reuse.
/// Telemetry must never abort the process that is reporting a panic.
fn lock_metrics<T>(m: &Mutex<T>) -> std::sync::MutexGuard<'_, T> {
    m.lock().unwrap_or_else(|e| e.into_inner())
}

impl Registry {
    /// Empty registry.
    pub fn new() -> Self {
        Self::default()
    }

    /// Resolves (registering on first use) the counter `name`.
    pub fn counter(&self, name: &str) -> Counter {
        let mut map = lock_metrics(&self.counters);
        if let Some(c) = map.get(name) {
            return c.clone();
        }
        let c = Counter {
            cell: Arc::new(AtomicU64::new(0)),
        };
        map.insert(name.to_string(), c.clone());
        c
    }

    /// Resolves (registering on first use) the gauge `name`.
    pub fn gauge(&self, name: &str) -> Gauge {
        let mut map = lock_metrics(&self.gauges);
        if let Some(g) = map.get(name) {
            return g.clone();
        }
        let g = Gauge {
            cell: Arc::new(AtomicU64::new(0)),
        };
        map.insert(name.to_string(), g.clone());
        g
    }

    /// Resolves (registering on first use) the histogram `name`.
    pub fn histogram(&self, name: &str) -> Histogram {
        let mut map = lock_metrics(&self.histograms);
        if let Some(h) = map.get(name) {
            return h.clone();
        }
        let h = Histogram {
            inner: Arc::new(HistInner::default()),
        };
        map.insert(name.to_string(), h.clone());
        h
    }

    /// Consistent-enough point-in-time copy of every metric. (Each
    /// metric is read atomically; cross-metric skew is possible under
    /// concurrent writes and acceptable for reporting.)
    pub fn snapshot(&self) -> MetricsSnapshot {
        let counters = lock_metrics(&self.counters)
            .iter()
            .map(|(k, v)| (k.clone(), v.get()))
            .collect();
        let gauges = lock_metrics(&self.gauges)
            .iter()
            .map(|(k, v)| (k.clone(), v.get()))
            .collect();
        let histograms: BTreeMap<String, HistogramSnapshot> = lock_metrics(&self.histograms)
            .iter()
            .map(|(k, v)| (k.clone(), v.snapshot()))
            .collect();
        MetricsSnapshot {
            counters,
            gauges,
            histograms,
        }
    }

    /// Zeroes every registered metric (handles stay valid). Used by
    /// experiment runners between configurations.
    pub fn reset(&self) {
        for c in lock_metrics(&self.counters).values() {
            c.cell.store(0, Ordering::Relaxed);
        }
        for g in lock_metrics(&self.gauges).values() {
            g.cell.store(0, Ordering::Relaxed);
        }
        for h in lock_metrics(&self.histograms).values() {
            let inner = &*h.inner;
            inner.count.store(0, Ordering::Relaxed);
            inner.sum.store(0, Ordering::Relaxed);
            inner.min.store(u64::MAX, Ordering::Relaxed);
            inner.max.store(0, Ordering::Relaxed);
            for b in &inner.buckets {
                b.store(0, Ordering::Relaxed);
            }
        }
    }
}

/// The process-wide registry all layers report into.
pub fn global() -> &'static Registry {
    static GLOBAL: OnceLock<Registry> = OnceLock::new();
    GLOBAL.get_or_init(Registry::new)
}

/// Point-in-time copy of a whole [`Registry`], ready for export.
///
/// Span-duration histograms (named `span.<name>.us` by
/// [`crate::span`](mod@crate::span)) are reported separately by the
/// exporters; use [`MetricsSnapshot::span_names`] to enumerate them.
#[derive(Clone, Debug, Default)]
pub struct MetricsSnapshot {
    /// Counter values by name.
    pub counters: BTreeMap<String, u64>,
    /// Gauge values by name.
    pub gauges: BTreeMap<String, u64>,
    /// Histogram snapshots by name (including span histograms).
    pub histograms: BTreeMap<String, HistogramSnapshot>,
}

impl MetricsSnapshot {
    /// Looks up a counter by exact name.
    pub fn counter(&self, name: &str) -> Option<u64> {
        self.counters.get(name).copied()
    }

    /// Looks up a histogram by exact name.
    pub fn histogram(&self, name: &str) -> Option<&HistogramSnapshot> {
        self.histograms.get(name)
    }

    /// Names of the spans that recorded at least one duration
    /// (histogram keys `span.<name>.us`, with the affixes stripped).
    pub fn span_names(&self) -> impl Iterator<Item = String> + '_ {
        self.histograms.keys().filter_map(|k| {
            k.strip_prefix("span.")
                .and_then(|rest| rest.strip_suffix(".us"))
                .map(str::to_string)
        })
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn counter_and_gauge_roundtrip() {
        let _guard = crate::config::test_guard();
        crate::configure(crate::TelemetryConfig::default());
        let r = Registry::new();
        let c = r.counter("a.b");
        c.inc();
        c.add(4);
        assert_eq!(c.get(), 5);
        // Same name resolves to the same cell.
        assert_eq!(r.counter("a.b").get(), 5);
        let g = r.gauge("a.g");
        g.set(9);
        g.set(3);
        assert_eq!(g.get(), 3);
    }

    #[test]
    fn registry_survives_poisoned_locks() {
        let _guard = crate::config::test_guard();
        crate::configure(crate::TelemetryConfig::default());
        let r = Registry::new();
        r.counter("pre.poison").inc();
        // Panic while holding each metric map's lock; the guards drop
        // during unwind and poison all three mutexes.
        let _ = std::panic::catch_unwind(std::panic::AssertUnwindSafe(|| {
            let _c = r.counters.lock().unwrap();
            let _g = r.gauges.lock().unwrap();
            let _h = r.histograms.lock().unwrap();
            panic!("poison the registry");
        }));
        // Every path recovers: resolve, snapshot, reset.
        r.counter("post.poison").add(2);
        r.gauge("post.gauge").set(7);
        r.histogram("post.hist").record(3);
        let snap = r.snapshot();
        assert_eq!(snap.counters["pre.poison"], 1);
        assert_eq!(snap.counters["post.poison"], 2);
        assert_eq!(snap.gauges["post.gauge"], 7);
        r.reset();
        assert_eq!(r.counter("pre.poison").get(), 0);
    }

    #[test]
    fn histogram_buckets_and_quantiles() {
        let _guard = crate::config::test_guard();
        crate::configure(crate::TelemetryConfig::default());
        let r = Registry::new();
        let h = r.histogram("lat");
        for v in [0u64, 1, 2, 3, 4, 1000] {
            h.record(v);
        }
        let snap = r.snapshot();
        let hs = snap.histogram("lat").unwrap();
        assert_eq!(hs.count, 6);
        assert_eq!(hs.sum, 1010);
        assert_eq!(hs.min, 0);
        assert_eq!(hs.max, 1000);
        assert_eq!(hs.quantile(0.0), 0);
        assert_eq!(hs.quantile(1.0), 1000);
        // Median rank 3 falls in the [2,3] bucket.
        assert_eq!(hs.quantile(0.5), 3);
        // Buckets: 0 → idx0, 1 → idx1, {2,3} → idx2, 4 → idx3, 1000 → idx10.
        assert_eq!(
            hs.nonzero_buckets(),
            vec![(0, 1), (1, 1), (3, 2), (7, 1), (1023, 1)]
        );
    }

    #[test]
    fn from_samples_matches_live_recording() {
        let _guard = crate::config::test_guard();
        crate::configure(crate::TelemetryConfig::default());
        let samples = [0u64, 1, 2, 3, 4, 1000];
        let r = Registry::new();
        let h = r.histogram("lat");
        for &v in &samples {
            h.record(v);
        }
        let live = r.snapshot().histogram("lat").unwrap().clone();
        let offline = HistogramSnapshot::from_samples(samples);
        assert_eq!(live, offline);
        assert_eq!(offline.quantile(0.5), 3);
        let empty = HistogramSnapshot::from_samples([]);
        assert_eq!(empty.count, 0);
        assert_eq!(empty.min, 0);
        assert_eq!(empty.quantile(0.99), 0);
    }

    #[test]
    fn empty_histogram_is_sane() {
        let r = Registry::new();
        let _ = r.histogram("empty");
        let snap = r.snapshot();
        let hs = snap.histogram("empty").unwrap();
        assert_eq!(hs.count, 0);
        assert_eq!(hs.min, 0);
        assert_eq!(hs.mean(), 0.0);
        assert_eq!(hs.quantile(0.99), 0);
        assert!(hs.nonzero_buckets().is_empty());
    }

    #[test]
    fn reset_zeroes_but_keeps_handles() {
        let _guard = crate::config::test_guard();
        crate::configure(crate::TelemetryConfig::default());
        let r = Registry::new();
        let c = r.counter("x");
        let h = r.histogram("y");
        c.add(7);
        h.record(42);
        r.reset();
        assert_eq!(c.get(), 0);
        let snap = r.snapshot();
        assert_eq!(snap.histogram("y").unwrap().count, 0);
        c.inc();
        assert_eq!(r.counter("x").get(), 1);
    }

    #[test]
    fn disabled_probes_record_nothing() {
        let _guard = crate::config::test_guard();
        let prev = crate::configure(crate::TelemetryConfig::off());
        let r = Registry::new();
        let c = r.counter("quiet");
        let h = r.histogram("quiet.h");
        c.inc();
        h.record(5);
        crate::configure(prev);
        assert_eq!(c.get(), 0);
        assert_eq!(r.snapshot().histogram("quiet.h").unwrap().count, 0);
    }
}
