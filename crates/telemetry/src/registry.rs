//! The instrument registry tying counters, gauges, histograms, and the
//! journal together behind one handle.
//!
//! # Metric names
//!
//! Names are dotted paths with optional bracketed labels:
//! `dispatch.packet[module=HelloFlood]`. Exporters split the bracket
//! suffix into Prometheus labels; the JSON exporter keeps names
//! verbatim. [`metric_name`] builds labelled names safely.

use crate::journal::Journal;
use crate::{Counter, Gauge, Histogram, HistogramSnapshot, JournalSnapshot};
use parking_lot::Mutex;
use std::collections::BTreeMap;
use std::sync::atomic::{AtomicUsize, Ordering};
use std::sync::Arc;

/// Build a labelled metric name: `family[key=value]`.
///
/// Label values are sanitized so the bracket syntax stays parseable:
/// `[`, `]`, `=`, and `,` in values are replaced with `_`.
pub fn metric_name(family: &str, labels: &[(&str, &str)]) -> String {
    if labels.is_empty() {
        return family.to_string();
    }
    let mut out = String::with_capacity(family.len() + 16);
    out.push_str(family);
    out.push('[');
    for (i, (k, v)) in labels.iter().enumerate() {
        if i > 0 {
            out.push(',');
        }
        out.push_str(k);
        out.push('=');
        out.extend(v.chars().map(|c| {
            if matches!(c, '[' | ']' | '=' | ',') {
                '_'
            } else {
                c
            }
        }));
    }
    out.push(']');
    out
}

/// Central registry of named instruments.
///
/// Lookup (`counter`/`gauge`/`histogram`) takes a lock and is meant for
/// setup paths; hot paths fetch the `Arc` once and cache it. The
/// instruments themselves are lock-free.
pub struct Telemetry {
    counters: Mutex<BTreeMap<String, Arc<Counter>>>,
    gauges: Mutex<BTreeMap<String, Arc<Gauge>>>,
    histograms: Mutex<BTreeMap<String, Arc<Histogram>>>,
    /// Instruments registered so far. They are never unregistered, so a
    /// reader that saw this count has seen them all.
    instruments: AtomicUsize,
    journal: Journal,
}

impl Default for Telemetry {
    fn default() -> Self {
        Self::new()
    }
}

impl Telemetry {
    /// An empty registry with the default journal capacity.
    pub fn new() -> Self {
        Self::with_journal_capacity(crate::journal::DEFAULT_JOURNAL_CAPACITY)
    }

    /// An empty registry retaining up to `capacity` journal records.
    pub fn with_journal_capacity(capacity: usize) -> Self {
        let registry = Telemetry {
            counters: Mutex::new(BTreeMap::new()),
            gauges: Mutex::new(BTreeMap::new()),
            histograms: Mutex::new(BTreeMap::new()),
            instruments: AtomicUsize::new(0),
            journal: Journal::new(capacity),
        };
        // The ring overwrites its oldest records when full; surface that
        // as scrapeable instruments instead of a silent loss.
        registry.journal.attach_instruments(
            registry.counter(crate::names::JOURNAL_DROPPED),
            registry.gauge(crate::names::JOURNAL_HIGH_WATER),
        );
        registry
    }

    /// Get or register the counter called `name`.
    pub fn counter(&self, name: &str) -> Arc<Counter> {
        Self::get_or_insert(&self.counters, name, &self.instruments)
    }

    /// Get or register the gauge called `name`.
    pub fn gauge(&self, name: &str) -> Arc<Gauge> {
        Self::get_or_insert(&self.gauges, name, &self.instruments)
    }

    /// Get or register the histogram called `name`.
    pub fn histogram(&self, name: &str) -> Arc<Histogram> {
        Self::get_or_insert(&self.histograms, name, &self.instruments)
    }

    fn get_or_insert<T: Default>(
        map: &Mutex<BTreeMap<String, Arc<T>>>,
        name: &str,
        registered: &AtomicUsize,
    ) -> Arc<T> {
        let mut map = map.lock();
        if let Some(existing) = map.get(name) {
            return Arc::clone(existing);
        }
        let fresh = Arc::new(T::default());
        map.insert(name.to_string(), Arc::clone(&fresh));
        // A statistic: it publishes no data, the map's lock does.
        registered.fetch_add(1, Ordering::Relaxed);
        fresh
    }

    /// The structured event journal.
    pub fn journal(&self) -> &Journal {
        &self.journal
    }

    /// How many instruments are registered. It only grows: while it
    /// reads what it read before, the set of instruments is the one seen
    /// then.
    pub(crate) fn instrument_count(&self) -> usize {
        self.instruments.load(Ordering::Relaxed)
    }

    /// Visit every registered counter in name order, under the lock —
    /// how the flight recorder learns the handles it then samples
    /// without it.
    pub(crate) fn each_counter(&self, mut f: impl FnMut(&str, &Arc<Counter>)) {
        for (name, counter) in self.counters.lock().iter() {
            f(name, counter);
        }
    }

    /// [`Telemetry::each_counter`] for gauges.
    pub(crate) fn each_gauge(&self, mut f: impl FnMut(&str, &Arc<Gauge>)) {
        for (name, gauge) in self.gauges.lock().iter() {
            f(name, gauge);
        }
    }

    /// Point-in-time copy of every instrument.
    pub fn snapshot(&self) -> TelemetrySnapshot {
        TelemetrySnapshot {
            counters: self
                .counters
                .lock()
                .iter()
                .map(|(k, v)| (k.clone(), v.get()))
                .collect(),
            gauges: self
                .gauges
                .lock()
                .iter()
                .map(|(k, v)| (k.clone(), v.get()))
                .collect(),
            histograms: self
                .histograms
                .lock()
                .iter()
                .map(|(k, v)| (k.clone(), v.snapshot()))
                .collect(),
            journal: self.journal.snapshot(),
        }
    }
}

/// A point-in-time copy of a whole [`Telemetry`] registry.
///
/// Snapshots are plain data: comparable, exportable to Prometheus text
/// via [`TelemetrySnapshot::to_prometheus`] and to JSON via
/// [`TelemetrySnapshot::to_json`] / parseable back with
/// [`TelemetrySnapshot::from_json`].
#[derive(Clone, Debug, Default, PartialEq)]
pub struct TelemetrySnapshot {
    pub counters: BTreeMap<String, u64>,
    pub gauges: BTreeMap<String, u64>,
    pub histograms: BTreeMap<String, HistogramSnapshot>,
    pub journal: JournalSnapshot,
}

impl TelemetrySnapshot {
    /// Counter value, 0 when absent.
    pub fn counter(&self, name: &str) -> u64 {
        self.counters.get(name).copied().unwrap_or(0)
    }

    /// Gauge value, 0 when absent.
    pub fn gauge(&self, name: &str) -> u64 {
        self.gauges.get(name).copied().unwrap_or(0)
    }

    /// Histogram snapshot, if registered.
    pub fn histogram(&self, name: &str) -> Option<&HistogramSnapshot> {
        self.histograms.get(name)
    }

    /// Histograms whose name starts with `family` (e.g. every
    /// `dispatch.packet[...]` series).
    pub fn histograms_in<'a>(
        &'a self,
        family: &str,
    ) -> impl Iterator<Item = (&'a str, &'a HistogramSnapshot)> + 'a {
        let exact = family.to_string();
        let prefix = format!("{family}[");
        self.histograms
            .iter()
            .filter(move |(k, _)| **k == exact || k.starts_with(&prefix))
            .map(|(k, v)| (k.as_str(), v))
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn same_name_same_instrument() {
        let t = Telemetry::new();
        t.counter("a").inc();
        t.counter("a").add(2);
        t.counter("b").inc();
        let snap = t.snapshot();
        assert_eq!(snap.counter("a"), 3);
        assert_eq!(snap.counter("b"), 1);
        assert_eq!(snap.counter("missing"), 0);
    }

    #[test]
    fn metric_name_labels() {
        assert_eq!(metric_name("kb.ops", &[]), "kb.ops");
        assert_eq!(
            metric_name("dispatch.packet", &[("module", "HelloFlood")]),
            "dispatch.packet[module=HelloFlood]"
        );
        assert_eq!(
            metric_name("alerts", &[("kind", "a=b,c"), ("severity", "High")]),
            "alerts[kind=a_b_c,severity=High]"
        );
    }

    #[test]
    fn histograms_in_filters_by_family() {
        let t = Telemetry::new();
        t.histogram(&metric_name("dispatch.packet", &[("module", "A")]))
            .record(5);
        t.histogram(&metric_name("dispatch.tick", &[("module", "A")]))
            .record(5);
        let snap = t.snapshot();
        assert_eq!(snap.histograms_in("dispatch.packet").count(), 1);
        assert_eq!(snap.histograms_in("dispatch").count(), 0);
    }
}
