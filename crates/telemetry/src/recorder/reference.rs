//! The flight recorder as it sampled before it held columns, kept as
//! the oracle of `differential.rs`: a merge-walk over the registry's
//! instruments under its locks, comparing names against sorted last-seen
//! vectors, frames and bases keyed by name. Verbatim apart from the
//! registry visitors, which now hand out handles, and the journal tail,
//! which both recorders freeze through one function.

use std::collections::{BTreeMap, VecDeque};

use crate::json;
use crate::Telemetry;

use super::{journal_tail, replayable, DiagBundle, Frame, Trigger, TRIGGER_MASK_ALL};

/// Merge-walk the sorted counter family against the sorted last-seen
/// vector, pushing non-zero increments into `out` and updating `prev`
/// in place. Instruments are never unregistered, so every `prev` name
/// reappears in the walk; new names splice in at the walk position.
fn walk_counters(tele: &Telemetry, prev: &mut Vec<(String, u64)>, out: &mut Vec<(String, u64)>) {
    let mut idx = 0usize;
    tele.each_counter(|name, counter| {
        let value = counter.get();
        if !replayable(name) {
            return;
        }
        if idx < prev.len() && prev[idx].0 == name {
            let delta = value.saturating_sub(prev[idx].1);
            if delta != 0 {
                out.push((name.to_owned(), delta));
            }
            prev[idx].1 = value;
        } else {
            if value != 0 {
                out.push((name.to_owned(), value));
            }
            prev.insert(idx, (name.to_owned(), value));
        }
        idx += 1;
    });
}

/// Like [`walk_counters`] for gauges: records the new absolute value
/// whenever a gauge moved (or first appeared).
fn walk_gauges(tele: &Telemetry, prev: &mut Vec<(String, u64)>, out: &mut Vec<(String, u64)>) {
    let mut idx = 0usize;
    tele.each_gauge(|name, gauge| {
        let value = gauge.get();
        if !replayable(name) {
            return;
        }
        if idx < prev.len() && prev[idx].0 == name {
            if prev[idx].1 != value {
                out.push((name.to_owned(), value));
                prev[idx].1 = value;
            }
        } else {
            out.push((name.to_owned(), value));
            prev.insert(idx, (name.to_owned(), value));
        }
        idx += 1;
    });
}

/// The in-process flight recorder: ring + trigger bookkeeping.
#[derive(Debug, Clone)]
pub struct FlightRecorder {
    depth: usize,
    interval_us: u64,
    trigger_mask: u32,
    frames: VecDeque<Frame>,
    /// Absolute values just before the oldest retained frame, folded
    /// forward as the ring evicts, so a capture decodes standalone.
    base_counters: BTreeMap<String, u64>,
    base_gauges: BTreeMap<String, u64>,
    /// Absolute values at the last sample (delta baseline), sorted by
    /// name so sampling is a merge-walk updated in place.
    prev_counters: Vec<(String, u64)>,
    prev_gauges: Vec<(String, u64)>,
    last_sample_us: Option<u64>,
    samples: u64,
    captures: u64,
}

impl FlightRecorder {
    pub fn new(depth: usize, interval_us: u64, trigger_mask: u32) -> Self {
        FlightRecorder {
            depth,
            interval_us: interval_us.max(1),
            trigger_mask: trigger_mask & TRIGGER_MASK_ALL,
            frames: VecDeque::with_capacity(depth.min(4096)),
            base_counters: BTreeMap::new(),
            base_gauges: BTreeMap::new(),
            prev_counters: Vec::new(),
            prev_gauges: Vec::new(),
            last_sample_us: None,
            samples: 0,
            captures: 0,
        }
    }

    pub fn enabled(&self) -> bool {
        self.depth > 0
    }

    pub fn occupancy(&self) -> usize {
        self.frames.len()
    }

    pub fn samples(&self) -> u64 {
        self.samples
    }

    pub fn maybe_sample(&mut self, now_us: u64, tele: &Telemetry) -> bool {
        if !self.enabled() {
            return false;
        }
        let due = match self.last_sample_us {
            None => true,
            Some(last) => now_us >= last.saturating_add(self.interval_us),
        };
        if due {
            self.sample(now_us, tele);
        }
        due
    }

    pub fn sample(&mut self, now_us: u64, tele: &Telemetry) {
        if !self.enabled() {
            return;
        }
        let mut counter_deltas = Vec::new();
        walk_counters(tele, &mut self.prev_counters, &mut counter_deltas);
        let mut gauge_sets = Vec::new();
        walk_gauges(tele, &mut self.prev_gauges, &mut gauge_sets);
        let journal = tele.journal();
        let frame = Frame {
            time_us: now_us,
            counter_deltas,
            gauge_sets,
            journal_next_seq: journal.next_seq(),
            journal_len: journal.len() as u64,
            journal_dropped: journal.dropped(),
        };
        if self.frames.len() == self.depth {
            if let Some(evicted) = self.frames.pop_front() {
                // Fold the evicted frame into the base so the retained
                // ring still decodes to absolute values on its own.
                for (name, delta) in evicted.counter_deltas {
                    *self.base_counters.entry(name).or_insert(0) += delta;
                }
                for (name, value) in evicted.gauge_sets {
                    self.base_gauges.insert(name, value);
                }
            }
        }
        self.frames.push_back(frame);
        self.last_sample_us = Some(now_us);
        self.samples += 1;
    }

    #[allow(clippy::too_many_arguments)]
    pub fn capture(
        &mut self,
        trigger: Trigger,
        now_us: u64,
        tele: &Telemetry,
        node: &str,
        fingerprint: &str,
        traces_json: Option<&str>,
        journal_tail_len: usize,
    ) -> DiagBundle {
        if self.last_sample_us != Some(now_us) {
            self.sample(now_us, tele);
        }
        self.captures += 1;
        let bundle_id = format!("{node}-{:03}-{}", self.captures, trigger.name());
        DiagBundle {
            node: node.to_owned(),
            bundle_id,
            trigger: trigger.name().to_owned(),
            captured_us: now_us,
            config_fingerprint: fingerprint.to_owned(),
            ring_depth: self.depth as u64,
            interval_us: self.interval_us,
            trigger_mask: u64::from(self.trigger_mask),
            samples: self.samples,
            base_counters: self
                .base_counters
                .iter()
                .map(|(k, v)| (k.clone(), *v))
                .collect(),
            base_gauges: self
                .base_gauges
                .iter()
                .map(|(k, v)| (k.clone(), *v))
                .collect(),
            frames: self.frames.iter().cloned().collect(),
            journal_tail: journal_tail(tele, journal_tail_len),
            traces: traces_json.and_then(|text| json::parse(text).ok()),
        }
    }
}
