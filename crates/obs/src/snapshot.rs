//! [`MetricsSnapshot`]: the owned, serializable, mergeable view of a
//! registry at a point in time.
//!
//! Snapshots are what cross layer boundaries: a `LiveSession` answers
//! `SessionCommand::Metrics` with one, a `SessionHost` sums its
//! sessions' snapshots into a host-level one, and the multisession
//! bench writes one into `BENCH_multisession.json`. Everything is
//! `BTreeMap`-keyed so serialization order is deterministic and the
//! wire round-trip is byte-identical.

use std::collections::BTreeMap;

use crate::metric::HistogramSnapshot;

/// Magic first line of the wire format. Versioned so a future format
/// change can coexist with old snapshots in artifacts.
pub const WIRE_HEADER: &str = "#alive-metrics v1";

/// A point-in-time copy of every metric in a registry (or the merged
/// sum of several registries).
#[derive(Debug, Clone, Default, PartialEq, Eq)]
pub struct MetricsSnapshot {
    /// Monotone event totals. Merge policy: add.
    pub counters: BTreeMap<String, u64>,
    /// Levels and high-water marks. Merge policy: max (a host-level
    /// "deepest mailbox" is the max over sessions, not their sum).
    pub gauges: BTreeMap<String, i64>,
    /// Latency distributions. Merge policy: bucket-wise add.
    pub histograms: BTreeMap<String, HistogramSnapshot>,
}

impl MetricsSnapshot {
    /// An empty snapshot.
    pub fn new() -> Self {
        MetricsSnapshot::default()
    }

    /// True when nothing has been recorded anywhere.
    pub fn is_empty(&self) -> bool {
        self.counters.is_empty() && self.gauges.is_empty() && self.histograms.is_empty()
    }

    /// Counter value by name (0 when absent — counters start at 0).
    pub fn counter(&self, name: &str) -> u64 {
        self.counters.get(name).copied().unwrap_or(0)
    }

    /// Gauge level by name (0 when absent).
    pub fn gauge(&self, name: &str) -> i64 {
        self.gauges.get(name).copied().unwrap_or(0)
    }

    /// Histogram by name.
    pub fn histogram(&self, name: &str) -> Option<&HistogramSnapshot> {
        self.histograms.get(name)
    }

    /// Fold `other` into `self`: counters add, gauges take the max,
    /// histograms merge bucket-wise. This is how a host snapshot is
    /// built as the sum of its session snapshots.
    pub fn merge(&mut self, other: &MetricsSnapshot) {
        for (name, v) in &other.counters {
            let slot = self.counters.entry(name.clone()).or_insert(0);
            *slot = slot.saturating_add(*v);
        }
        for (name, v) in &other.gauges {
            let slot = self.gauges.entry(name.clone()).or_insert(i64::MIN);
            *slot = (*slot).max(*v);
        }
        for (name, h) in &other.histograms {
            match self.histograms.get_mut(name) {
                Some(mine) => mine.merge(h),
                None => {
                    self.histograms.insert(name.clone(), h.clone());
                }
            }
        }
    }

    /// Line-oriented wire form, ending in a newline:
    ///
    /// ```text
    /// #alive-metrics v1
    /// counter <name> <value>
    /// gauge <name> <value>
    /// hist <name> count=<n> sum=<n> bounds=<b,b,..> buckets=<n,n,..>
    /// ```
    ///
    /// Names are validated on the way in by [`crate::Registry`] (no
    /// whitespace), so the format needs no escaping. `BTreeMap` order
    /// makes the output deterministic; `parse_wire` of the output
    /// re-serializes byte-identically (golden-tested).
    pub fn to_wire(&self) -> String {
        let mut out = String::new();
        out.push_str(WIRE_HEADER);
        out.push('\n');
        for (name, v) in &self.counters {
            out.push_str("counter ");
            out.push_str(name);
            out.push(' ');
            out.push_str(&v.to_string());
            out.push('\n');
        }
        for (name, v) in &self.gauges {
            out.push_str("gauge ");
            out.push_str(name);
            out.push(' ');
            out.push_str(&v.to_string());
            out.push('\n');
        }
        for (name, h) in &self.histograms {
            out.push_str("hist ");
            out.push_str(name);
            out.push_str(" count=");
            out.push_str(&h.count.to_string());
            out.push_str(" sum=");
            out.push_str(&h.sum.to_string());
            out.push_str(" bounds=");
            push_joined(&mut out, &h.bounds);
            out.push_str(" buckets=");
            push_joined(&mut out, &h.buckets);
            out.push('\n');
        }
        out
    }

    /// Parse the wire form produced by [`MetricsSnapshot::to_wire`].
    /// Returns `None` on a missing/unknown header or any malformed
    /// line — snapshots are all-or-nothing, a truncated artifact never
    /// half-parses.
    pub fn parse_wire(text: &str) -> Option<MetricsSnapshot> {
        let mut lines = text.lines();
        if lines.next()?.trim_end() != WIRE_HEADER {
            return None;
        }
        let mut snap = MetricsSnapshot::new();
        for line in lines {
            let line = line.trim_end();
            if line.is_empty() {
                continue;
            }
            let mut parts = line.splitn(3, ' ');
            let kind = parts.next()?;
            let name = parts.next()?.to_string();
            let rest = parts.next()?;
            match kind {
                "counter" => {
                    snap.counters.insert(name, rest.parse().ok()?);
                }
                "gauge" => {
                    snap.gauges.insert(name, rest.parse().ok()?);
                }
                "hist" => {
                    snap.histograms.insert(name, parse_hist(rest)?);
                }
                _ => return None,
            }
        }
        Some(snap)
    }
}

fn push_joined(out: &mut String, values: &[u64]) {
    let mut first = true;
    for v in values {
        if !first {
            out.push(',');
        }
        first = false;
        out.push_str(&v.to_string());
    }
}

fn parse_u64_list(text: &str) -> Option<Vec<u64>> {
    if text.is_empty() {
        return Some(Vec::new());
    }
    text.split(',').map(|v| v.parse().ok()).collect()
}

fn parse_hist(rest: &str) -> Option<HistogramSnapshot> {
    let mut count = None;
    let mut sum = None;
    let mut bounds = None;
    let mut buckets = None;
    for field in rest.split(' ') {
        let (key, value) = field.split_once('=')?;
        match key {
            "count" => count = Some(value.parse().ok()?),
            "sum" => sum = Some(value.parse().ok()?),
            "bounds" => bounds = Some(parse_u64_list(value)?),
            "buckets" => buckets = Some(parse_u64_list(value)?),
            _ => return None,
        }
    }
    Some(HistogramSnapshot {
        bounds: bounds?,
        buckets: buckets?,
        sum: sum?,
        count: count?,
    })
}

#[cfg(test)]
mod tests {
    use super::*;

    fn sample() -> MetricsSnapshot {
        let mut snap = MetricsSnapshot::new();
        snap.counters.insert("edits_total".into(), 7);
        snap.counters.insert("faults_total".into(), 2);
        snap.gauges.insert("mailbox_depth_hw".into(), 4);
        let h = crate::metric::Histogram::with_bounds(&[10, 100]);
        h.record(5);
        h.record(60);
        h.record(999);
        snap.histograms
            .insert("cmd_latency_us".into(), h.snapshot());
        snap
    }

    #[test]
    fn wire_round_trip_is_byte_identical() {
        let snap = sample();
        let wire = snap.to_wire();
        let parsed = MetricsSnapshot::parse_wire(&wire).expect("parses");
        assert_eq!(parsed, snap);
        assert_eq!(parsed.to_wire(), wire);
    }

    #[test]
    fn parse_rejects_garbage() {
        assert!(MetricsSnapshot::parse_wire("").is_none());
        assert!(MetricsSnapshot::parse_wire("#alive-metrics v0\n").is_none());
        assert!(MetricsSnapshot::parse_wire("#alive-metrics v1\nbogus line here\n").is_none());
        assert!(MetricsSnapshot::parse_wire("#alive-metrics v1\ncounter x notanumber\n").is_none());
    }

    #[test]
    fn merge_adds_counters_maxes_gauges() {
        let mut a = sample();
        let mut b = sample();
        b.gauges.insert("mailbox_depth_hw".into(), 9);
        a.merge(&b);
        assert_eq!(a.counter("edits_total"), 14);
        assert_eq!(a.gauge("mailbox_depth_hw"), 9);
        let h = a.histogram("cmd_latency_us").expect("merged");
        assert_eq!(h.count, 6);
    }
}
