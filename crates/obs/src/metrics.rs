//! Lock-cheap metrics registry: named counters, gauges, and fixed-bucket
//! histograms.
//!
//! Counters are striped across cache-line-padded atomic cells indexed by a
//! per-thread stripe id, so concurrent increments from verifier threads never
//! contend on the same line. Gauges are f64 values under the registry's lock;
//! `gauge_add` is therefore only deterministic when called from one thread at
//! a time — the pool publishes all f64 sums at serial epoch-merge points for
//! exactly this reason (see DESIGN.md §11).
//! Snapshots copy everything into `BTreeMap`s so exports iterate in a
//! deterministic (lexicographic) order regardless of registration order.

use serde::Serialize;
use std::collections::BTreeMap;
use std::sync::atomic::{AtomicU64, AtomicUsize, Ordering};
use std::sync::{Arc, LazyLock, RwLock};

/// Number of independent cells a counter is striped over. Eight covers the
/// verifier thread counts we shard over without making `value()` expensive.
const STRIPES: usize = 8;

#[repr(align(64))]
#[derive(Default)]
struct PaddedCell(AtomicU64);

static STRIPE_SEQ: AtomicUsize = AtomicUsize::new(0);

thread_local! {
    static STRIPE: usize = STRIPE_SEQ.fetch_add(1, Ordering::Relaxed) % STRIPES;
}

#[inline]
fn stripe_index() -> usize {
    STRIPE.with(|s| *s)
}

/// Monotonically increasing u64 counter. Increments are relaxed atomic adds
/// on a per-thread stripe; `value()` sums the stripes. Because u64 addition
/// is commutative and associative, the summed value is independent of thread
/// scheduling — counters are safe to bump from parallel verification.
#[derive(Default)]
pub struct Counter {
    cells: [PaddedCell; STRIPES],
}

impl Counter {
    #[inline]
    pub fn add(&self, n: u64) {
        self.cells[stripe_index()].0.fetch_add(n, Ordering::Relaxed);
    }

    pub fn value(&self) -> u64 {
        self.cells.iter().map(|c| c.0.load(Ordering::Relaxed)).sum()
    }

    fn reset(&self) {
        for c in &self.cells {
            c.0.store(0, Ordering::Relaxed);
        }
    }
}

/// Default histogram bucket upper bounds (inclusive); the overflow bucket is
/// implicit. Tuned for small discrete quantities like retry attempts.
const DEFAULT_BOUNDS: &[u64] = &[1, 2, 4, 8, 16, 32];

/// Power-of-two bucket bounds `1, 2, 4, …, 2^62` for HDR-style log-bucketed
/// histograms: ~50% worst-case relative quantile error over the full u64
/// range at 63 buckets, which is what latency recording wants — cheap,
/// bounded memory, and deterministic quantiles independent of sample order.
fn log2_bounds() -> &'static [u64] {
    static BOUNDS: LazyLock<Vec<u64>> = LazyLock::new(|| (0..63).map(|e| 1u64 << e).collect());
    &BOUNDS
}

/// Fine-grained geometric bucket bounds for latency histograms: exact
/// integers `1..=16`, then 16 geometric steps per octave (`17..=32`
/// shifted left), up to `32 · 2^57 > 2^62`. Worst-case relative quantile
/// error is the largest step ratio, `18/17 ≈ 5.9%` — against ~50% for
/// [`log2_bounds`], whose one-bucket-per-octave resolution collapses
/// sub-second epoch latencies onto a single bound (p50 == p99).
/// Still fixed-bucket, so quantiles stay deterministic and order-free.
fn latency_bounds() -> &'static [u64] {
    static BOUNDS: LazyLock<Vec<u64>> = LazyLock::new(|| {
        let mut v: Vec<u64> = (1..=16).collect();
        for scale in 0..=57u32 {
            v.extend((17..=32u64).map(|m| m << scale));
        }
        v
    });
    &BOUNDS
}

/// Fixed-bucket u64 histogram. Bucket `i` counts observations `v` with
/// `v <= bounds[i]` (and `> bounds[i-1]`); one extra overflow bucket catches
/// the rest. All cells are relaxed atomics, so like counters the merged
/// totals are scheduling-independent.
struct Histogram {
    bounds: Vec<u64>,
    counts: Vec<AtomicU64>,
    sum: AtomicU64,
    total: AtomicU64,
}

impl Histogram {
    fn new(bounds: &[u64]) -> Self {
        assert!(!bounds.is_empty(), "histogram needs at least one bound");
        assert!(
            bounds.windows(2).all(|w| w[0] < w[1]),
            "histogram bounds must be strictly increasing"
        );
        Self {
            bounds: bounds.to_vec(),
            counts: (0..=bounds.len()).map(|_| AtomicU64::new(0)).collect(),
            sum: AtomicU64::new(0),
            total: AtomicU64::new(0),
        }
    }

    pub fn observe(&self, v: u64) {
        // Bounds are strictly increasing (asserted in `new`), so the first
        // bucket with `v <= bound` is a binary search — the fine-grained
        // latency bounds would make a linear scan a hot-path cost.
        let idx = self.bounds.partition_point(|&b| b < v);
        self.counts[idx].fetch_add(1, Ordering::Relaxed);
        self.sum.fetch_add(v, Ordering::Relaxed);
        self.total.fetch_add(1, Ordering::Relaxed);
    }

    pub fn snapshot(&self) -> HistogramSnapshot {
        HistogramSnapshot {
            bounds: self.bounds.clone(),
            counts: self
                .counts
                .iter()
                .map(|c| c.load(Ordering::Relaxed))
                .collect(),
            sum: self.sum.load(Ordering::Relaxed),
            count: self.total.load(Ordering::Relaxed),
        }
    }

    fn reset(&self) {
        for c in &self.counts {
            c.store(0, Ordering::Relaxed);
        }
        self.sum.store(0, Ordering::Relaxed);
        self.total.store(0, Ordering::Relaxed);
    }
}

/// Immutable copy of one histogram, suitable for JSON export.
#[derive(Debug, Clone, PartialEq, Eq, Serialize)]
pub struct HistogramSnapshot {
    pub bounds: Vec<u64>,
    pub counts: Vec<u64>,
    pub sum: u64,
    pub count: u64,
}

/// Registry of named metrics. Lookup takes a read lock on the fast path and
/// upgrades to a write lock only on first registration of a name. Counters
/// and histograms are `Arc` handles, so hot paths can cache them and skip the
/// map entirely; gauges are plain values set under the map's write lock.
#[derive(Default)]
pub struct MetricsRegistry {
    counters: RwLock<BTreeMap<String, Arc<Counter>>>,
    gauges: RwLock<BTreeMap<String, f64>>,
    histograms: RwLock<BTreeMap<String, Arc<Histogram>>>,
}

fn get_or_insert<T, F: FnOnce() -> T>(
    map: &RwLock<BTreeMap<String, Arc<T>>>,
    name: &str,
    make: F,
) -> Arc<T> {
    if let Some(v) = map.read().unwrap().get(name) {
        return Arc::clone(v);
    }
    let mut w = map.write().unwrap();
    Arc::clone(
        w.entry(name.to_string())
            .or_insert_with(|| Arc::new(make())),
    )
}

impl MetricsRegistry {
    pub fn new() -> Self {
        Self::default()
    }

    pub fn counter(&self, name: &str) -> Arc<Counter> {
        get_or_insert(&self.counters, name, Counter::default)
    }

    fn histogram(&self, name: &str, bounds: &[u64]) -> Arc<Histogram> {
        get_or_insert(&self.histograms, name, || Histogram::new(bounds))
    }

    pub fn counter_add(&self, name: &str, n: u64) {
        self.counter(name).add(n);
    }

    pub fn gauge_set(&self, name: &str, v: f64) {
        self.update_gauge(name, |g| *g = v);
    }

    /// Accumulates into the gauge. f64 addition does not commute bitwise,
    /// so hot parallel paths publish merged sums via `gauge_set` instead.
    pub fn gauge_add(&self, name: &str, v: f64) {
        self.update_gauge(name, |g| *g += v);
    }

    fn update_gauge(&self, name: &str, update: impl FnOnce(&mut f64)) {
        let mut gauges = self.gauges.write().unwrap();
        match gauges.get_mut(name) {
            Some(g) => update(g),
            None => update(gauges.entry(name.to_string()).or_insert(0.0)),
        }
    }

    pub fn observe(&self, name: &str, v: u64) {
        self.histogram(name, DEFAULT_BOUNDS).observe(v);
    }

    /// Observe into a log-bucketed (power-of-two bounds) histogram — the
    /// right shape for latencies, where values span orders of magnitude and
    /// deterministic p50/p90/p99 matter more than exact means.
    pub fn observe_log(&self, name: &str, v: u64) {
        self.histogram(name, log2_bounds()).observe(v);
    }

    /// Observe into a fine-grained latency histogram ([`latency_bounds`]):
    /// ~6% worst-case quantile error instead of `observe_log`'s ~50%, so
    /// sub-second latencies resolve into distinct p50/p90/p99 instead of
    /// collapsing onto one power-of-two bound.
    pub fn observe_latency(&self, name: &str, v: u64) {
        self.histogram(name, latency_bounds()).observe(v);
    }

    /// Copy every metric into sorted maps. The snapshot is the only way out
    /// of the registry, so all exports share one deterministic ordering.
    pub fn snapshot(&self) -> MetricsSnapshot {
        MetricsSnapshot {
            counters: self
                .counters
                .read()
                .unwrap()
                .iter()
                .map(|(k, v)| (k.clone(), v.value()))
                .collect(),
            gauges: self.gauges.read().unwrap().clone(),
            histograms: self
                .histograms
                .read()
                .unwrap()
                .iter()
                .map(|(k, v)| (k.clone(), v.snapshot()))
                .collect(),
        }
    }

    /// Zero every registered metric (names stay registered).
    pub fn reset(&self) {
        for c in self.counters.read().unwrap().values() {
            c.reset();
        }
        for g in self.gauges.write().unwrap().values_mut() {
            *g = 0.0;
        }
        for h in self.histograms.read().unwrap().values() {
            h.reset();
        }
    }
}

/// Point-in-time view of a registry, ordered lexicographically by name.
#[derive(Debug, Clone, PartialEq, Serialize, Default)]
pub struct MetricsSnapshot {
    pub counters: BTreeMap<String, u64>,
    pub gauges: BTreeMap<String, f64>,
    pub histograms: BTreeMap<String, HistogramSnapshot>,
}

impl MetricsSnapshot {
    pub fn counter(&self, name: &str) -> u64 {
        self.counters.get(name).copied().unwrap_or(0)
    }

    /// All counters whose name starts with `prefix`, in name order —
    /// the shape invariant tests use to compare a whole metric family
    /// (e.g. `net.*`) against a report's own totals.
    pub fn counters_with_prefix(&self, prefix: &str) -> Vec<(String, u64)> {
        self.counters
            .range(prefix.to_string()..)
            .take_while(|(name, _)| name.starts_with(prefix))
            .map(|(name, v)| (name.clone(), *v))
            .collect()
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    impl HistogramSnapshot {
        /// The quantile a reader of the exported snapshot computes: the upper
        /// bound of the bucket holding the `ceil(q·count)`-th observation, 0
        /// for an empty histogram, the last bound for the overflow bucket.
        /// Fixed buckets make it depend only on the observed multiset.
        fn quantile(&self, q: f64) -> u64 {
            if self.count == 0 {
                return 0;
            }
            let rank = ((q * self.count as f64).ceil() as u64).clamp(1, self.count);
            let mut cum = 0u64;
            for (i, c) in self.counts.iter().enumerate() {
                cum += c;
                if cum >= rank {
                    return self.bounds.get(i).copied().unwrap_or_else(|| {
                        // Overflow bucket: saturate at the largest bound.
                        self.bounds.last().copied().unwrap_or(u64::MAX)
                    });
                }
            }
            self.bounds.last().copied().unwrap_or(u64::MAX)
        }
    }

    #[test]
    fn counter_sums_across_threads() {
        let reg = MetricsRegistry::new();
        let c = reg.counter("t.c");
        std::thread::scope(|s| {
            for _ in 0..4 {
                let c = Arc::clone(&c);
                s.spawn(move || {
                    for _ in 0..1000 {
                        c.add(3);
                    }
                });
            }
        });
        assert_eq!(c.value(), 12_000);
        assert_eq!(reg.snapshot().counter("t.c"), 12_000);
    }

    #[test]
    fn gauge_set_and_add() {
        let reg = MetricsRegistry::new();
        reg.gauge_set("g", 1.5);
        reg.gauge_add("g", 0.25);
        reg.gauge_add("fresh", 0.5);
        assert_eq!(reg.snapshot().gauges["g"], 1.75);
        assert_eq!(reg.snapshot().gauges["fresh"], 0.5);
    }

    #[test]
    fn histogram_buckets() {
        let h = Histogram::new(&[1, 2, 4]);
        for v in [0, 1, 2, 3, 4, 5, 100] {
            h.observe(v);
        }
        let s = h.snapshot();
        assert_eq!(s.counts, vec![2, 1, 2, 2]); // <=1: {0,1}; <=2: {2}; <=4: {3,4}; over: {5,100}
        assert_eq!(s.count, 7);
        assert_eq!(s.sum, 115);
    }

    #[test]
    fn log_histogram_quantiles_are_deterministic_and_order_free() {
        let reg = MetricsRegistry::new();
        // Insert the same multiset in two different orders into two
        // histograms: quantiles must agree exactly.
        let mut vals: Vec<u64> = (1..=1000).collect();
        for v in &vals {
            reg.observe_log("lat.a", *v);
        }
        vals.reverse();
        for v in &vals {
            reg.observe_log("lat.b", *v);
        }
        let snap = reg.snapshot();
        let a = &snap.histograms["lat.a"];
        let b = &snap.histograms["lat.b"];
        for q in [0.5, 0.9, 0.99] {
            assert_eq!(a.quantile(q), b.quantile(q));
        }
        // Estimates are bucket upper bounds: p50 of 1..=1000 lands in the
        // (256, 512] bucket, p99 in (512, 1024].
        assert_eq!(a.quantile(0.5), 512);
        assert_eq!(a.quantile(0.99), 1024);
        assert_eq!(a.count, 1000);
        assert_eq!(a.sum, 500_500);
        // A heavy-tailed input (1 µs .. 1,000 s) through both bound sets:
        // bucket upper bounds keep p50 ≤ p90 ≤ p99 by construction.
        for v in 1..=1000u64 {
            reg.observe_log("lat.tail_log", v * v * v);
            reg.observe_latency("lat.tail_fine", v * v * v);
        }
        let snap = reg.snapshot();
        for name in ["lat.a", "lat.tail_log", "lat.tail_fine"] {
            let h = &snap.histograms[name];
            let (p50, p90, p99) = (h.quantile(0.5), h.quantile(0.9), h.quantile(0.99));
            assert!(
                0 < p50 && p50 <= p90 && p90 <= p99,
                "{name}: {p50} {p90} {p99}"
            );
        }
    }

    #[test]
    fn quantile_edge_cases() {
        let reg = MetricsRegistry::new();
        let empty = reg.histogram("h.empty", &[1, 2]).snapshot();
        assert_eq!(empty.quantile(0.5), 0);
        let h = reg.histogram("h.one", &[1, 2]);
        h.observe(100); // overflow bucket
        let s = h.snapshot();
        assert_eq!(s.quantile(0.5), 2, "overflow saturates at the last bound");
        assert_eq!(s.quantile(0.0), 2);
        assert_eq!(s.quantile(1.0), 2);
        // log2 bounds cover the u64 range without overflow in practice.
        let reg2 = MetricsRegistry::new();
        reg2.observe_log("h.big", u64::MAX);
        let big = &reg2.snapshot().histograms["h.big"];
        assert_eq!(big.quantile(0.5), 1 << 62);
    }

    #[test]
    fn latency_bounds_are_fine_grained_and_cover_u64() {
        let bounds = latency_bounds();
        assert!(
            bounds.windows(2).all(|w| w[0] < w[1]),
            "strictly increasing"
        );
        assert_eq!(bounds[0], 1);
        assert!(*bounds.last().unwrap() >= 1 << 62);
        // Worst-case quantile error is the largest adjacent-bound ratio:
        // at most 17/16 past the exact-integer prefix (the 32 → 34 octave
        // hand-off, ~6%), against the 2x (≈50%) steps of log2_bounds.
        for w in bounds.windows(2).skip(16) {
            assert!(
                (w[1] as u128) * 16 <= (w[0] as u128) * 17,
                "step {} -> {} too coarse",
                w[0],
                w[1]
            );
        }
        // The failure this fixes: sub-second latencies (µs-scale values)
        // must resolve p50 vs p99 instead of sharing one log2 bucket.
        let reg = MetricsRegistry::new();
        for v in [110_000u64, 120_000, 131_000] {
            reg.observe_latency("lat.fine", v);
            reg.observe_log("lat.coarse", v);
        }
        let snap = reg.snapshot();
        let fine = &snap.histograms["lat.fine"];
        let coarse = &snap.histograms["lat.coarse"];
        assert_eq!(coarse.quantile(0.5), coarse.quantile(0.99));
        assert!(fine.quantile(0.5) < fine.quantile(0.99));
        for q in [0.5, 0.99] {
            let est = fine.quantile(q) as f64;
            let truth = if q == 0.5 { 120_000.0 } else { 131_000.0 };
            assert!((est - truth).abs() / truth < 0.07, "q{q}: {est} vs {truth}");
        }
    }

    #[test]
    fn counters_with_prefix_selects_a_family_in_name_order() {
        let reg = MetricsRegistry::new();
        reg.counter_add("net.accepted", 3);
        reg.counter_add("net.bytes_in", 100);
        reg.counter_add("network.other", 7); // prefix "net." must not match
        reg.counter_add("exec.tasks", 9);
        let snap = reg.snapshot();
        assert_eq!(
            snap.counters_with_prefix("net."),
            vec![
                ("net.accepted".to_string(), 3),
                ("net.bytes_in".to_string(), 100),
            ]
        );
        assert!(snap.counters_with_prefix("zzz.").is_empty());
    }

    #[test]
    fn snapshot_order_is_name_sorted() {
        let reg = MetricsRegistry::new();
        reg.counter_add("z.last", 1);
        reg.counter_add("a.first", 1);
        reg.counter_add("m.mid", 1);
        let snap = reg.snapshot();
        let names: Vec<&str> = snap.counters.keys().map(|s| s.as_str()).collect();
        assert_eq!(names, vec!["a.first", "m.mid", "z.last"]);
    }

    #[test]
    fn reset_zeroes_but_keeps_names() {
        let reg = MetricsRegistry::new();
        reg.counter_add("x", 5);
        reg.gauge_set("y", 2.0);
        reg.observe("h", 3);
        reg.reset();
        let s = reg.snapshot();
        assert_eq!(s.counter("x"), 0);
        assert_eq!(s.gauges["y"], 0.0);
        assert_eq!(s.histograms["h"].count, 0);
        assert!(s.counters.contains_key("x"));
    }
}
