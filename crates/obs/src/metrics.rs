//! A small counter/gauge registry with text snapshots: the daemon's
//! `serve.*` and `tenant.*` metrics, which `micco serve` exports on
//! `/metrics`.
//!
//! Counters are monotonically increasing integers (submitted, completed
//! and rejected jobs); gauges are floats that can also be set or
//! accumulate (queue depth, free GPUs). Both are keyed by flat string
//! names — `BTreeMap`-backed so snapshots are deterministically ordered.
//! A simulated run is not counted here: its totals are its
//! `micco_gpusim::ExecStats`.

use std::collections::BTreeMap;
use std::fmt::Write as _;

use parking_lot::Mutex;

#[derive(Default)]
struct Inner {
    counters: BTreeMap<String, u64>,
    gauges: BTreeMap<String, f64>,
}

/// Thread-safe metrics registry. Cheap to share behind an `Arc`; all
/// methods take `&self`.
#[derive(Default)]
pub struct MetricsRegistry {
    inner: Mutex<Inner>,
}

impl MetricsRegistry {
    /// An empty registry.
    pub fn new() -> Self {
        Self::default()
    }

    /// Increment counter `name` by 1.
    pub fn inc(&self, name: &str) {
        self.add(name, 1);
    }

    /// Increment counter `name` by `by`.
    pub fn add(&self, name: &str, by: u64) {
        let mut inner = self.inner.lock();
        *inner.counters.entry(name.to_owned()).or_insert(0) += by;
    }

    /// Accumulate `by` onto gauge `name` (starting from 0.0).
    pub fn add_gauge(&self, name: &str, by: f64) {
        let mut inner = self.inner.lock();
        *inner.gauges.entry(name.to_owned()).or_insert(0.0) += by;
    }

    /// Overwrite gauge `name` with `value`.
    pub fn set_gauge(&self, name: &str, value: f64) {
        let mut inner = self.inner.lock();
        inner.gauges.insert(name.to_owned(), value);
    }

    /// A point-in-time copy of every counter and gauge.
    pub fn snapshot(&self) -> MetricsSnapshot {
        let inner = self.inner.lock();
        MetricsSnapshot {
            counters: inner.counters.clone(),
            gauges: inner.gauges.clone(),
        }
    }
}

/// An immutable copy of the registry contents, ready to render.
#[derive(Debug, Clone, PartialEq, Default)]
pub struct MetricsSnapshot {
    /// Counter values by name, sorted.
    pub counters: BTreeMap<String, u64>,
    /// Gauge values by name, sorted.
    pub gauges: BTreeMap<String, f64>,
}

impl MetricsSnapshot {
    /// Counter value, 0 when never touched.
    pub fn counter(&self, name: &str) -> u64 {
        self.counters.get(name).copied().unwrap_or(0)
    }

    /// Gauge value, 0.0 when never touched.
    pub fn gauge(&self, name: &str) -> f64 {
        self.gauges.get(name).copied().unwrap_or(0.0)
    }

    /// One `name value` line per metric, counters first.
    pub fn to_text(&self) -> String {
        let mut out = String::new();
        for (k, v) in &self.counters {
            let _ = writeln!(out, "{k} {v}");
        }
        for (k, v) in &self.gauges {
            let _ = writeln!(out, "{k} {v}");
        }
        out
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn counters_and_gauges_accumulate() {
        let m = MetricsRegistry::new();
        m.inc("h2d_count");
        m.add("h2d_count", 2);
        m.add("h2d_bytes", 1024);
        m.add_gauge("compute_secs", 1.5);
        m.add_gauge("compute_secs", 0.5);
        m.set_gauge("queue.depth.gpu0", 4.0);
        let s = m.snapshot();
        assert_eq!(s.counter("h2d_count"), 3);
        assert_eq!(s.counter("h2d_bytes"), 1024);
        assert_eq!(s.counter("missing"), 0);
        assert!((s.gauge("compute_secs") - 2.0).abs() < 1e-12);
        assert!((s.gauge("queue.depth.gpu0") - 4.0).abs() < 1e-12);
    }

    #[test]
    fn text_snapshot_is_sorted_and_line_per_metric() {
        let m = MetricsRegistry::new();
        m.inc("b");
        m.inc("a");
        m.add_gauge("z", 1.0);
        let text = m.snapshot().to_text();
        let lines: Vec<&str> = text.lines().collect();
        assert_eq!(lines, vec!["a 1", "b 1", "z 1"]);
    }
}
