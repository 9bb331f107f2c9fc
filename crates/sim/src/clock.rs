//! A simulated clock accumulating time by category.

use serde::Serialize;
use std::collections::BTreeMap;
use std::fmt;

/// Accumulates simulated seconds under named categories (e.g. `"compute"`,
/// `"comm"`, `"verify"`), so epoch-time breakdowns can be reported the way
/// the paper's Table II/III splits them. Alongside the time buckets it
/// keeps integer **event counters** (e.g. retries, timeouts per message
/// kind) so a transport trace can report "how often" next to "how long".
///
/// # Examples
///
/// ```
/// use rpol_sim::SimClock;
///
/// let mut clock = SimClock::new();
/// clock.add("compute", 30.0);
/// clock.add("comm", 12.5);
/// clock.add("compute", 2.5);
/// clock.tick("retry");
/// assert_eq!(clock.get("compute"), 32.5);
/// assert_eq!(clock.total(), 45.0);
/// assert_eq!(clock.events("retry"), 1);
/// ```
#[derive(Debug, Clone, Default, PartialEq, Serialize)]
pub struct SimClock {
    buckets: BTreeMap<String, f64>,
    counters: BTreeMap<String, u64>,
}

impl SimClock {
    /// Creates an empty clock.
    pub fn new() -> Self {
        Self::default()
    }

    /// Adds `seconds` under `category`.
    ///
    /// # Panics
    ///
    /// Panics if `seconds` is negative or non-finite.
    pub fn add(&mut self, category: &str, seconds: f64) {
        assert!(
            seconds.is_finite() && seconds >= 0.0,
            "invalid duration {seconds}"
        );
        *self.buckets.entry(category.to_string()).or_insert(0.0) += seconds;
    }

    /// Accumulated seconds under `category` (0 if never touched).
    pub fn get(&self, category: &str) -> f64 {
        self.buckets.get(category).copied().unwrap_or(0.0)
    }

    /// Total accumulated seconds across categories.
    pub fn total(&self) -> f64 {
        self.buckets.values().sum()
    }

    /// Iterates `(category, seconds)` in category order.
    pub fn iter(&self) -> impl Iterator<Item = (&str, f64)> {
        self.buckets.iter().map(|(k, &v)| (k.as_str(), v))
    }

    /// Increments the event counter under `category` by one.
    pub fn tick(&mut self, category: &str) {
        self.add_events(category, 1);
    }

    /// Adds `n` events under `category`.
    fn add_events(&mut self, category: &str, n: u64) {
        *self.counters.entry(category.to_string()).or_insert(0) += n;
    }

    /// Accumulated event count under `category` (0 if never ticked).
    pub fn events(&self, category: &str) -> u64 {
        self.counters.get(category).copied().unwrap_or(0)
    }

    /// Iterates `(category, events)` in category order.
    fn iter_events(&self) -> impl Iterator<Item = (&str, u64)> {
        self.counters.iter().map(|(k, &v)| (k.as_str(), v))
    }

    /// Merges another clock into this one (both seconds and events).
    pub fn merge(&mut self, other: &SimClock) {
        for (k, v) in other.iter() {
            self.add(k, v);
        }
        for (k, n) in other.iter_events() {
            self.add_events(k, n);
        }
    }

    /// Resets all buckets and counters.
    pub fn reset(&mut self) {
        self.buckets.clear();
        self.counters.clear();
    }

    /// Mirrors this clock into an observability recorder: each time bucket
    /// becomes a gauge `{prefix}.time.{category}` (accumulated with
    /// `gauge_add`) and each event counter a counter
    /// `{prefix}.events.{category}`. The clock's own fields stay the source
    /// of truth — the registry is a view, published at deterministic merge
    /// points (see `rpol::pool`).
    pub fn publish(&self, rec: &rpol_obs::Recorder, prefix: &str) {
        if !rec.enabled() {
            return;
        }
        for (category, seconds) in self.iter() {
            rec.gauge_add(&format!("{prefix}.time.{category}"), seconds);
        }
        for (category, events) in self.iter_events() {
            rec.counter_add(&format!("{prefix}.events.{category}"), events);
        }
    }
}

impl fmt::Display for SimClock {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        write!(f, "SimClock[total {:.2}s", self.total())?;
        for (k, v) in self.iter() {
            write!(f, ", {k} {v:.2}s")?;
        }
        for (k, n) in self.iter_events() {
            write!(f, ", {k} ×{n}")?;
        }
        f.write_str("]")
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn accumulation_and_total() {
        let mut c = SimClock::new();
        c.add("a", 1.0);
        c.add("b", 2.0);
        c.add("a", 3.0);
        assert_eq!(c.get("a"), 4.0);
        assert_eq!(c.get("missing"), 0.0);
        assert_eq!(c.total(), 6.0);
    }

    #[test]
    fn merge_sums_buckets() {
        let mut a = SimClock::new();
        a.add("x", 1.0);
        a.tick("r");
        let mut b = SimClock::new();
        b.add("x", 2.0);
        b.add("y", 5.0);
        b.add_events("r", 3);
        a.merge(&b);
        assert_eq!(a.get("x"), 3.0);
        assert_eq!(a.get("y"), 5.0);
        assert_eq!(a.events("r"), 4);
    }

    #[test]
    fn counters_accumulate_independently_of_seconds() {
        let mut c = SimClock::new();
        c.tick("retry");
        c.tick("retry");
        c.add_events("drop", 5);
        assert_eq!(c.events("retry"), 2);
        assert_eq!(c.events("drop"), 5);
        assert_eq!(c.events("missing"), 0);
        assert_eq!(c.total(), 0.0, "events do not add seconds");
    }

    #[test]
    fn reset_clears() {
        let mut c = SimClock::new();
        c.add("x", 1.0);
        c.tick("r");
        c.reset();
        assert_eq!(c.total(), 0.0);
        assert_eq!(c.events("r"), 0);
    }

    #[test]
    #[should_panic(expected = "invalid duration")]
    fn negative_duration_rejected() {
        SimClock::new().add("x", -1.0);
    }

    #[test]
    fn publish_mirrors_into_registry() {
        let mut c = SimClock::new();
        c.add("net:task", 1.5);
        c.add("net:task", 0.5);
        c.tick("retry");
        c.add_events("drop", 2);
        let rec = rpol_obs::Recorder::logical();
        c.publish(&rec, "sim.clock");
        c.publish(&rec, "sim.clock"); // accumulates like merge would
        let snap = rec.snapshot();
        assert_eq!(snap.gauges["sim.clock.time.net:task"], 4.0);
        assert_eq!(snap.counter("sim.clock.events.retry"), 2);
        assert_eq!(snap.counter("sim.clock.events.drop"), 4);
    }

    #[test]
    fn publish_to_disabled_recorder_is_inert() {
        let mut c = SimClock::new();
        c.add("x", 1.0);
        let rec = rpol_obs::Recorder::logical();
        rec.disable();
        c.publish(&rec, "p");
        assert!(rec.snapshot().gauges.is_empty());
    }

    #[test]
    fn display_nonempty() {
        let mut c = SimClock::new();
        c.add("compute", 1.5);
        let s = format!("{c}");
        assert!(s.contains("compute"));
    }
}
