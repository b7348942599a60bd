//! The [`Registry`]: named metric handles, one shared clock, one
//! snapshot call.
//!
//! A registry is cheap to clone (everything inside is `Arc`-shared) and
//! is meant to be threaded through a subsystem at construction time:
//! `System`, `LiveSession`, and `SessionHost` each hold one and resolve
//! their handles once, so the hot path never touches the name map —
//! recording is a plain atomic op on a pre-fetched [`Counter`] /
//! [`Gauge`] / [`Histogram`] handle.

use std::collections::BTreeMap;
use std::sync::{Arc, Mutex, MutexGuard};

use crate::clock::{Clock, MonotonicClock};
use crate::metric::{Counter, Gauge, Histogram};
use crate::snapshot::MetricsSnapshot;

#[derive(Debug, Default)]
struct Tables {
    counters: BTreeMap<String, Counter>,
    gauges: BTreeMap<String, Gauge>,
    histograms: BTreeMap<String, Histogram>,
}

/// A shareable bundle of named metrics plus the clock they are timed
/// against.
#[derive(Debug, Clone)]
pub struct Registry {
    tables: Arc<Mutex<Tables>>,
    clock: Arc<dyn Clock>,
}

impl Registry {
    /// A registry on the real monotonic clock.
    pub fn new() -> Self {
        Registry::with_clock(Arc::new(MonotonicClock::new()))
    }

    /// A registry on an injected clock — the deterministic-tests entry
    /// point (pass a [`crate::ManualClock`]).
    pub fn with_clock(clock: Arc<dyn Clock>) -> Self {
        Registry {
            tables: Arc::new(Mutex::new(Tables::default())),
            clock,
        }
    }

    /// Poison recovery: losing metrics fidelity is never worth a
    /// panic cascade (same policy as `alive-serve`'s locks).
    fn lock(&self) -> MutexGuard<'_, Tables> {
        match self.tables.lock() {
            Ok(g) => g,
            Err(poisoned) => poisoned.into_inner(),
        }
    }

    /// Metric names: non-empty ASCII without whitespace, so the wire
    /// format needs no escaping. Invalid names are sanitized (not
    /// rejected — no-panic discipline): whitespace becomes `_`, empty
    /// becomes `"unnamed"`.
    fn sanitize(name: &str) -> String {
        if name.is_empty() {
            return "unnamed".to_string();
        }
        name.chars()
            .map(|c| if c.is_whitespace() { '_' } else { c })
            .collect()
    }

    /// Get-or-create the counter `name`. The returned handle is shared:
    /// every caller asking for the same name gets the same cell.
    pub fn counter(&self, name: &str) -> Counter {
        let name = Registry::sanitize(name);
        self.lock().counters.entry(name).or_default().clone()
    }

    /// Get-or-create the gauge `name`.
    pub fn gauge(&self, name: &str) -> Gauge {
        let name = Registry::sanitize(name);
        self.lock().gauges.entry(name).or_default().clone()
    }

    /// Get-or-create the histogram `name` over the default latency
    /// bounds.
    pub fn histogram(&self, name: &str) -> Histogram {
        let name = Registry::sanitize(name);
        self.lock().histograms.entry(name).or_default().clone()
    }

    /// Get-or-create the histogram `name` over explicit bounds. If the
    /// name already exists its original bounds win (handles must stay
    /// consistent).
    pub fn histogram_with_bounds(&self, name: &str, bounds: &[u64]) -> Histogram {
        let name = Registry::sanitize(name);
        self.lock()
            .histograms
            .entry(name)
            .or_insert_with(|| Histogram::with_bounds(bounds))
            .clone()
    }

    /// The clock this registry times against.
    pub fn clock(&self) -> Arc<dyn Clock> {
        Arc::clone(&self.clock)
    }

    /// A point-in-time copy of every registered metric.
    pub fn snapshot(&self) -> MetricsSnapshot {
        let tables = self.lock();
        let mut snap = MetricsSnapshot::new();
        for (name, c) in &tables.counters {
            snap.counters.insert(name.clone(), c.get());
        }
        for (name, g) in &tables.gauges {
            snap.gauges.insert(name.clone(), g.get());
        }
        for (name, h) in &tables.histograms {
            snap.histograms.insert(name.clone(), h.snapshot());
        }
        snap
    }
}

impl Default for Registry {
    fn default() -> Self {
        Registry::new()
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn same_name_same_cell() {
        let reg = Registry::new();
        let a = reg.counter("x");
        let b = reg.counter("x");
        a.inc();
        b.inc();
        assert_eq!(reg.counter("x").get(), 2);
    }

    #[test]
    fn clones_share_tables() {
        let reg = Registry::new();
        let other = reg.clone();
        reg.counter("shared").add(5);
        assert_eq!(other.snapshot().counter("shared"), 5);
    }

    #[test]
    fn names_are_sanitized_not_rejected() {
        let reg = Registry::new();
        reg.counter("has space").inc();
        reg.counter("").inc();
        let snap = reg.snapshot();
        assert_eq!(snap.counter("has_space"), 1);
        assert_eq!(snap.counter("unnamed"), 1);
    }

    #[test]
    fn snapshot_reflects_all_kinds() {
        let reg = Registry::new();
        reg.counter("c").add(2);
        reg.gauge("g").observe_max(7);
        reg.histogram("h").record(42);
        let snap = reg.snapshot();
        assert_eq!(snap.counter("c"), 2);
        assert_eq!(snap.gauge("g"), 7);
        assert_eq!(snap.histogram("h").map(|h| h.count), Some(1));
    }
}
