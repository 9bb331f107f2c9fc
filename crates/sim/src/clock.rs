//! A simulated clock accumulating time by category.

use serde::Serialize;
use std::collections::BTreeMap;
use std::fmt;

/// Accumulates simulated seconds under named categories (e.g. `"compute"`,
/// `"comm"`, `"verify"`), so epoch-time breakdowns can be reported the way
/// the paper's Table II/III splits them. Categories are static names, so
/// a charge never allocates. How often something happened is counted
/// where it happens (the transport's own stats), not here.
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
/// assert_eq!(clock.get("compute"), 32.5);
/// assert_eq!(clock.total(), 45.0);
/// ```
#[derive(Debug, Clone, Default, PartialEq, Serialize)]
pub struct SimClock {
    buckets: BTreeMap<&'static str, f64>,
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
    pub fn add(&mut self, category: &'static str, seconds: f64) {
        assert!(
            seconds.is_finite() && seconds >= 0.0,
            "invalid duration {seconds}"
        );
        *self.buckets.entry(category).or_insert(0.0) += seconds;
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
    pub fn iter(&self) -> impl Iterator<Item = (&'static str, f64)> + '_ {
        self.buckets.iter().map(|(&k, &v)| (k, v))
    }

    /// Merges another clock's seconds into this one.
    pub fn merge(&mut self, other: &SimClock) {
        for (k, v) in other.iter() {
            self.add(k, v);
        }
    }

    /// Mirrors this clock into an observability recorder: each time bucket
    /// becomes a gauge `{prefix}.time.{category}` (accumulated with
    /// `gauge_add`). The clock's own buckets stay the source of truth — the
    /// registry is a view, published at deterministic merge points (see
    /// `rpol::pool`).
    pub fn publish(&self, rec: &rpol_obs::Recorder, prefix: &str) {
        if !rec.enabled() {
            return;
        }
        for (category, seconds) in self.iter() {
            rec.gauge_add(&format!("{prefix}.time.{category}"), seconds);
        }
    }
}

impl fmt::Display for SimClock {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        write!(f, "SimClock[total {:.2}s", self.total())?;
        for (k, v) in self.iter() {
            write!(f, ", {k} {v:.2}s")?;
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
        let mut b = SimClock::new();
        b.add("x", 2.0);
        b.add("y", 5.0);
        a.merge(&b);
        assert_eq!(a.get("x"), 3.0);
        assert_eq!(a.get("y"), 5.0);
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
        let rec = rpol_obs::Recorder::logical();
        c.publish(&rec, "sim");
        c.publish(&rec, "sim"); // accumulates like merge would
        let snap = rec.snapshot();
        assert_eq!(snap.gauges["sim.time.net:task"], 4.0);
        assert!(snap.counters.is_empty(), "seconds only");
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
