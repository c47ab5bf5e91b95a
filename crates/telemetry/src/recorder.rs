//! Flight recorder: a bounded history of delta-encoded telemetry
//! snapshots plus the trigger engine that freezes `kalis.diag.v1`
//! diagnostics bundles.
//!
//! Every point-in-time ops surface (`/metrics`, `/status`) loses the
//! telemetry that *explains* an incident by the time an operator looks:
//! when readiness flips or an SLO burns, the interesting counters have
//! already moved on. The [`FlightRecorder`] keeps the recent past: at
//! tick cadence (virtual clock, never wall clock) it samples the full
//! counter/gauge surface into a fixed-budget ring of [`Frame`]s, each
//! holding only the *changes* since the previous frame plus the
//! journal's high-water marks. When a trigger condition latches —
//! readiness flip, SLO breach, module quarantine, degraded sync, or
//! state-budget exhaustion — [`FlightRecorder::capture`] freezes the
//! ring, the journal tail, the last trace trees, and a config
//! fingerprint into a deterministic, schema-versioned [`DiagBundle`].
//!
//! Cost model: the recorder never touches the per-packet hot path.
//! It holds one *column* per replayable counter and gauge — the
//! instrument's handle, its value at the last sample, and the base
//! folded out of evicted frames — learned in one locked walk of the
//! registry in name order, and learned again only when the registry's
//! instrument count moved. Sampling rides the housekeeping tick as one
//! relaxed load per column, in name order, with no lock held and no
//! name touched; a ring frame holds `(column, value)` pairs in buffers
//! recycled from the frame it evicts, so once the ring has wrapped a
//! sample allocates nothing however many instruments moved. Names are
//! materialised by [`FlightRecorder::capture`] alone, which happens
//! only when something is already wrong; the ring is bounded, so
//! memory is a fixed budget. The `experiments --diag-overhead` bench
//! (BENCH_8) pins ingest overhead at ~0% with the recorder on.
//!
//! Determinism: frames are stamped with caller-supplied capture-clock
//! micros, bundle ids derive from the node id + capture ordinal +
//! trigger name, instruments measured in the wall-clock domain are
//! excluded from frames (see [`FlightRecorder::sample`]), and the JSON
//! rendering is the same hand-rolled subset as `kalis.read-sets.v1` —
//! a seeded run produces byte-identical bundles across double runs.

use std::collections::{BTreeMap, VecDeque};
use std::sync::Arc;

use crate::json::{self, JsonValue};
use crate::{Counter, Gauge, Telemetry};

/// Schema tag stamped on every bundle.
pub const DIAG_SCHEMA: &str = "kalis.diag.v1";
/// Default number of frames retained in the ring.
pub const DEFAULT_RING_DEPTH: usize = 64;
/// Default sampling interval in virtual seconds (the tick cadence).
pub const DEFAULT_SNAPSHOT_INTERVAL_SECS: u64 = 1;
/// Journal records frozen into a bundle's tail.
pub const DEFAULT_JOURNAL_TAIL: usize = 64;
/// Every trigger bit set.
pub const TRIGGER_MASK_ALL: u32 = 0b1_1111;

/// A condition that latches a diagnostics capture. Each maps to a
/// signal the ops surfaces already detect; the recorder adds memory,
/// not new detection.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum Trigger {
    /// The `/readyz` reason set changed (ready→blocked or back).
    ReadinessFlip = 0,
    /// The p99 ingest-latency SLO latched a breach.
    SloBreached = 1,
    /// The supervisor quarantined a module.
    ModuleQuarantined = 2,
    /// Collective sync entered degraded local-only mode.
    DegradedSync = 3,
    /// A bounded structure evicted state under cardinality pressure.
    StateExhaustion = 4,
}

impl Trigger {
    /// Every trigger, in mask-bit order.
    pub const ALL: [Trigger; 5] = [
        Trigger::ReadinessFlip,
        Trigger::SloBreached,
        Trigger::ModuleQuarantined,
        Trigger::DegradedSync,
        Trigger::StateExhaustion,
    ];

    /// This trigger's bit in the `Diag.TriggerMask` knowgget.
    pub fn bit(self) -> u32 {
        1 << (self as u32)
    }

    /// Stable name used in bundle ids, journal events, and scenario
    /// expectations.
    pub fn name(self) -> &'static str {
        match self {
            Trigger::ReadinessFlip => "readiness-flip",
            Trigger::SloBreached => "slo-breached",
            Trigger::ModuleQuarantined => "module-quarantined",
            Trigger::DegradedSync => "degraded-sync",
            Trigger::StateExhaustion => "state-exhaustion",
        }
    }

    /// Reverse of [`Trigger::name`].
    pub fn from_name(name: &str) -> Option<Trigger> {
        Trigger::ALL.iter().copied().find(|t| t.name() == name)
    }

    /// The lowest-bit trigger present in `mask`, if any.
    pub fn first_in_mask(mask: u32) -> Option<Trigger> {
        Trigger::ALL.iter().copied().find(|t| mask & t.bit() != 0)
    }
}

/// One decoded ring row: `(time_us, absolute counters, absolute
/// gauges)` as reconstructed by [`DiagBundle::decode_absolute`].
pub type DecodedFrame = (u64, BTreeMap<String, u64>, BTreeMap<String, u64>);

/// One retained sample: the counter increments and gauge movements
/// since the previous frame, plus the journal's high-water marks.
#[derive(Debug, Clone, Default, PartialEq, Eq)]
pub struct Frame {
    /// Capture-clock micros at sample time.
    pub time_us: u64,
    /// `counter → increment since the previous frame` (non-zero only).
    pub counter_deltas: Vec<(String, u64)>,
    /// `gauge → new absolute value`, present only when it moved.
    pub gauge_sets: Vec<(String, u64)>,
    /// Next journal sequence number at sample time (total records ever).
    pub journal_next_seq: u64,
    /// Journal records retained at sample time.
    pub journal_len: u64,
    /// Journal records overwritten by the bounded ring so far.
    pub journal_dropped: u64,
}

/// One journal record frozen into a bundle, decoupled from the live
/// [`crate::JournalEvent`] enum so bundles parse without it.
#[derive(Debug, Clone, PartialEq)]
pub struct DiagJournalEntry {
    /// Monotonic journal sequence number.
    pub seq: u64,
    /// Capture-clock micros.
    pub time_us: u64,
    /// Event type tag (`slo_breached`, `state_evicted`, ...).
    pub kind: String,
    /// Event payload in declaration order (strings and numbers only).
    pub fields: Vec<(String, JsonValue)>,
}

/// A frozen `kalis.diag.v1` diagnostics bundle.
#[derive(Debug, Clone, PartialEq)]
pub struct DiagBundle {
    /// The node that captured it.
    pub node: String,
    /// `<node>-<ordinal>-<trigger>`, deterministic under the virtual
    /// clock.
    pub bundle_id: String,
    /// Trigger name that latched the capture.
    pub trigger: String,
    /// Capture-clock micros at capture.
    pub captured_us: u64,
    /// `fnv1a:<16 hex>` over the node's effective configuration text.
    pub config_fingerprint: String,
    /// Configured ring depth.
    pub ring_depth: u64,
    /// Configured sampling interval, micros.
    pub interval_us: u64,
    /// Trigger mask in effect.
    pub trigger_mask: u64,
    /// Frames sampled since the recorder started.
    pub samples: u64,
    /// Absolute counter values just before the oldest retained frame.
    pub base_counters: Vec<(String, u64)>,
    /// Absolute gauge values just before the oldest retained frame.
    pub base_gauges: Vec<(String, u64)>,
    /// The retained ring, oldest first.
    pub frames: Vec<Frame>,
    /// The journal tail at capture (most recent records).
    pub journal_tail: Vec<DiagJournalEntry>,
    /// The last trace trees (`Tracer` JSON export), when tracing ran.
    pub traces: Option<JsonValue>,
}

/// What the strict checker learned about a valid bundle.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct DiagStats {
    /// Frames in the ring.
    pub frames: usize,
    /// Journal records in the tail.
    pub journal_entries: usize,
    /// The validated trigger.
    pub trigger: &'static str,
}

/// Instrument families measured in the wall-clock domain — real CPU
/// self-time and scrape-driven request counts. They
/// cannot replay byte-identically under the virtual clock, so frames
/// skip them; their journal events still reach the bundle tail.
const WALL_DOMAIN: [&str; 2] = ["module.cpu_ns", "ops.requests"];

/// Whether `name` belongs in a frame (i.e. is virtual-clock-domain).
fn replayable(name: &str) -> bool {
    !WALL_DOMAIN.iter().any(|prefix| name.starts_with(prefix))
}

/// A scalar instrument a column can hold.
trait Scalar {
    /// Whether a frame records the instrument's new value when it moved
    /// (a gauge) rather than its increment (a counter).
    const ABSOLUTE: bool;

    fn value(&self) -> u64;
}

impl Scalar for Counter {
    const ABSOLUTE: bool = false;

    fn value(&self) -> u64 {
        self.get()
    }
}

impl Scalar for Gauge {
    const ABSOLUTE: bool = true;

    fn value(&self) -> u64 {
        self.get()
    }
}

/// One replayable instrument as the recorder holds it.
#[derive(Debug)]
struct Column<I> {
    /// Read by [`Columns::learn`] and [`FlightRecorder::capture`] only.
    name: String,
    instrument: Arc<I>,
    /// The value at the last sample; `None` before the first, so a
    /// gauge's first sample is recorded even when it is 0.
    last: Option<u64>,
    /// The absolute value just before the oldest retained frame, folded
    /// forward as the ring evicts; `None` until an evicted frame named
    /// this column.
    base: Option<u64>,
}

/// `(column number, value)`: a frame's entry before it has a name.
type Cell = (u32, u64);

/// One instrument family's columns. A column's number is its position
/// in `columns` and never changes — ring frames refer to columns by
/// number — so a newly learned instrument is appended, and `by_name`
/// keeps the order frames and bundles list names in.
#[derive(Debug)]
struct Columns<I> {
    columns: Vec<Column<I>>,
    /// Every column number, in name order.
    by_name: Vec<u32>,
}

impl<I: Scalar> Columns<I> {
    fn new() -> Self {
        Columns {
            columns: Vec::new(),
            by_name: Vec::new(),
        }
    }

    /// Offer the registry's `at`-th replayable instrument of a walk in
    /// name order. Instruments are never unregistered, so every held
    /// name reappears in the walk: an unknown one is appended as a new
    /// column and spliced in at the walk position.
    fn learn(&mut self, at: usize, name: &str, instrument: &Arc<I>) {
        let held = (self.by_name.get(at))
            .is_some_and(|number| self.columns[*number as usize].name == name);
        if !held {
            self.by_name.insert(at, self.columns.len() as u32);
            self.columns.push(Column {
                name: name.to_owned(),
                instrument: Arc::clone(instrument),
                last: None,
                base: None,
            });
        }
    }

    /// One load per column, in name order: push what moved since the
    /// last sample into `out`.
    fn sample(&mut self, out: &mut Vec<Cell>) {
        for number in &self.by_name {
            let column = &mut self.columns[*number as usize];
            let value = column.instrument.value();
            if I::ABSOLUTE {
                if column.last != Some(value) {
                    out.push((*number, value));
                }
            } else {
                let delta = value.saturating_sub(column.last.unwrap_or(0));
                if delta != 0 {
                    out.push((*number, delta));
                }
            }
            column.last = Some(value);
        }
    }

    /// Fold an evicted frame's cells into the bases, so the retained
    /// ring still decodes to absolute values on its own.
    fn fold(&mut self, evicted: &[Cell]) {
        for (number, value) in evicted {
            let base = &mut self.columns[*number as usize].base;
            *base = Some(match *base {
                Some(held) if !I::ABSOLUTE => held + value,
                _ => *value,
            });
        }
    }

    fn named(&self, cells: &[Cell]) -> Vec<(String, u64)> {
        let name = |number: u32| self.columns[number as usize].name.clone();
        (cells.iter())
            .map(|(n, value)| (name(*n), *value))
            .collect()
    }

    /// `(name, base)` of every column an evicted frame named, in name
    /// order.
    fn bases(&self) -> Vec<(String, u64)> {
        (self.by_name.iter())
            .map(|number| &self.columns[*number as usize])
            .filter_map(|column| Some((column.name.clone(), column.base?)))
            .collect()
    }
}

/// One retained sample as the ring holds it: [`Frame`] with column
/// numbers where the names go.
#[derive(Debug, Clone, Default)]
struct RingFrame {
    time_us: u64,
    counter_deltas: Vec<Cell>,
    gauge_sets: Vec<Cell>,
    /// `(next_seq, len, dropped)`.
    journal: (u64, u64, u64),
}

/// The most recent `limit` journal records, as a bundle freezes them.
fn journal_tail(tele: &Telemetry, limit: usize) -> Vec<DiagJournalEntry> {
    let journal = tele.journal().snapshot();
    let tail_start = journal.records.len().saturating_sub(limit);
    journal.records[tail_start..]
        .iter()
        .map(|record| DiagJournalEntry {
            seq: record.seq,
            time_us: record.time_us,
            kind: record.event.kind().to_owned(),
            fields: record
                .event
                .fields()
                .into_iter()
                .map(|(key, value)| {
                    let value = match value {
                        crate::JournalField::Str(s) => JsonValue::Str(s),
                        crate::JournalField::Num(n) => JsonValue::Num(n),
                    };
                    (key.to_owned(), value)
                })
                .collect(),
        })
        .collect()
}

/// FNV-1a over `text`, rendered as the bundle's config fingerprint.
pub fn config_fingerprint(text: &str) -> String {
    let mut hash: u64 = 0xcbf2_9ce4_8422_2325;
    for byte in text.as_bytes() {
        hash ^= u64::from(*byte);
        hash = hash.wrapping_mul(0x0000_0100_0000_01b3);
    }
    format!("fnv1a:{hash:016x}")
}

/// The in-process flight recorder: ring + trigger bookkeeping. It
/// samples one registry for its whole life.
#[derive(Debug)]
#[cfg_attr(test, derive(Clone))]
pub struct FlightRecorder {
    depth: usize,
    interval_us: u64,
    trigger_mask: u32,
    frames: VecDeque<RingFrame>,
    counters: Columns<Counter>,
    gauges: Columns<Gauge>,
    /// The registry's instrument count the columns were learned at.
    learned: usize,
    last_sample_us: Option<u64>,
    samples: u64,
    captures: u64,
    last_trigger: Option<Trigger>,
}

impl FlightRecorder {
    /// A recorder retaining up to `depth` frames sampled every
    /// `interval_us`, arming the triggers in `trigger_mask`. A zero
    /// `depth` disables the recorder entirely.
    pub fn new(depth: usize, interval_us: u64, trigger_mask: u32) -> Self {
        FlightRecorder {
            depth,
            interval_us: interval_us.max(1),
            trigger_mask: trigger_mask & TRIGGER_MASK_ALL,
            frames: VecDeque::with_capacity(depth.min(4096)),
            counters: Columns::new(),
            gauges: Columns::new(),
            learned: 0,
            last_sample_us: None,
            samples: 0,
            captures: 0,
            last_trigger: None,
        }
    }

    /// Whether the recorder records anything at all.
    pub fn enabled(&self) -> bool {
        self.depth > 0
    }

    /// Whether `trigger` is armed by the configured mask (always false
    /// when disabled).
    pub fn armed(&self, trigger: Trigger) -> bool {
        self.enabled() && self.trigger_mask & trigger.bit() != 0
    }

    /// The configured trigger mask.
    pub fn trigger_mask(&self) -> u32 {
        self.trigger_mask
    }

    /// Frames currently retained.
    pub fn occupancy(&self) -> usize {
        self.frames.len()
    }

    /// Configured ring depth.
    pub fn depth(&self) -> usize {
        self.depth
    }

    /// Configured sampling interval, micros.
    pub fn interval_us(&self) -> u64 {
        self.interval_us
    }

    /// Frames sampled since the recorder started.
    pub fn samples(&self) -> u64 {
        self.samples
    }

    /// Bundles captured since the recorder started.
    pub fn captures(&self) -> u64 {
        self.captures
    }

    /// The trigger behind the most recent capture.
    pub fn last_trigger(&self) -> Option<Trigger> {
        self.last_trigger
    }

    /// Sample if the interval elapsed (or nothing was sampled yet).
    /// Returns whether a frame was recorded.
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

    /// Unconditionally record one frame from `tele` stamped `now_us`.
    /// Wall-clock-domain instruments ([`WALL_DOMAIN`]) are skipped so
    /// frames replay byte-identically under the virtual clock.
    pub fn sample(&mut self, now_us: u64, tele: &Telemetry) {
        if !self.enabled() {
            return;
        }
        let registered = tele.instrument_count();
        if registered != self.learned {
            self.learn(tele);
            self.learned = registered;
        }
        // The frame this one evicts lends it its buffers.
        let evicted = (self.frames.len() == self.depth).then(|| self.frames.pop_front());
        let mut frame = evicted.flatten().unwrap_or_default();
        self.counters.fold(&frame.counter_deltas);
        self.gauges.fold(&frame.gauge_sets);
        frame.counter_deltas.clear();
        frame.gauge_sets.clear();
        frame.time_us = now_us;
        self.counters.sample(&mut frame.counter_deltas);
        self.gauges.sample(&mut frame.gauge_sets);
        frame.journal = tele.journal().marks();
        self.frames.push_back(frame);
        self.last_sample_us = Some(now_us);
        self.samples += 1;
    }

    /// Walk the registry's counters and gauges once, in name order and
    /// under its locks, adding a column for every replayable instrument
    /// not held yet.
    fn learn(&mut self, tele: &Telemetry) {
        let mut at = 0;
        tele.each_counter(|name, counter| {
            if replayable(name) {
                self.counters.learn(at, name, counter);
                at += 1;
            }
        });
        let mut at = 0;
        tele.each_gauge(|name, gauge| {
            if replayable(name) {
                self.gauges.learn(at, name, gauge);
                at += 1;
            }
        });
    }

    /// Freeze the current ring plus evidence into a bundle. Forces a
    /// final sample first so the trigger instant itself is in the ring.
    ///
    /// `traces_json` is the tracer's JSON export when tracing ran;
    /// `journal_tail` caps how many trailing journal records ride along.
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
        // Freeze the trigger instant itself into the ring — unless the
        // periodic sampler already recorded this exact timestamp, which
        // would break the strict frame-time monotonicity bundles promise.
        if self.last_sample_us != Some(now_us) {
            self.sample(now_us, tele);
        }
        self.captures += 1;
        self.last_trigger = Some(trigger);
        let bundle_id = format!("{node}-{:03}-{}", self.captures, trigger.name());
        let frames = (self.frames.iter())
            .map(|frame| Frame {
                time_us: frame.time_us,
                counter_deltas: self.counters.named(&frame.counter_deltas),
                gauge_sets: self.gauges.named(&frame.gauge_sets),
                journal_next_seq: frame.journal.0,
                journal_len: frame.journal.1,
                journal_dropped: frame.journal.2,
            })
            .collect();
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
            base_counters: self.counters.bases(),
            base_gauges: self.gauges.bases(),
            frames,
            journal_tail: journal_tail(tele, journal_tail_len),
            traces: traces_json.and_then(|text| json::parse(text).ok()),
        }
    }
}

fn num_obj(pairs: &[(String, u64)]) -> JsonValue {
    JsonValue::Obj(
        pairs
            .iter()
            .map(|(k, v)| (k.clone(), JsonValue::Num(*v)))
            .collect(),
    )
}

impl DiagBundle {
    /// Render the bundle as deterministic `kalis.diag.v1` JSON (compact
    /// single line, trailing newline; byte-identical for identical
    /// captures).
    pub fn to_json(&self) -> String {
        let frames = self
            .frames
            .iter()
            .map(|f| {
                JsonValue::Obj(vec![
                    ("time_us".to_owned(), JsonValue::Num(f.time_us)),
                    ("counters".to_owned(), num_obj(&f.counter_deltas)),
                    ("gauges".to_owned(), num_obj(&f.gauge_sets)),
                    (
                        "journal".to_owned(),
                        JsonValue::Obj(vec![
                            ("next_seq".to_owned(), JsonValue::Num(f.journal_next_seq)),
                            ("len".to_owned(), JsonValue::Num(f.journal_len)),
                            ("dropped".to_owned(), JsonValue::Num(f.journal_dropped)),
                        ]),
                    ),
                ])
            })
            .collect();
        let journal_tail = self
            .journal_tail
            .iter()
            .map(|e| {
                JsonValue::Obj(vec![
                    ("seq".to_owned(), JsonValue::Num(e.seq)),
                    ("time_us".to_owned(), JsonValue::Num(e.time_us)),
                    ("kind".to_owned(), JsonValue::Str(e.kind.clone())),
                    ("fields".to_owned(), JsonValue::Obj(e.fields.clone())),
                ])
            })
            .collect();
        let mut members = vec![
            ("schema".to_owned(), JsonValue::Str(DIAG_SCHEMA.to_owned())),
            ("node".to_owned(), JsonValue::Str(self.node.clone())),
            (
                "bundle_id".to_owned(),
                JsonValue::Str(self.bundle_id.clone()),
            ),
            ("trigger".to_owned(), JsonValue::Str(self.trigger.clone())),
            ("captured_us".to_owned(), JsonValue::Num(self.captured_us)),
            (
                "config_fingerprint".to_owned(),
                JsonValue::Str(self.config_fingerprint.clone()),
            ),
            (
                "ring".to_owned(),
                JsonValue::Obj(vec![
                    ("depth".to_owned(), JsonValue::Num(self.ring_depth)),
                    ("interval_us".to_owned(), JsonValue::Num(self.interval_us)),
                    ("trigger_mask".to_owned(), JsonValue::Num(self.trigger_mask)),
                    ("samples".to_owned(), JsonValue::Num(self.samples)),
                ]),
            ),
            (
                "base".to_owned(),
                JsonValue::Obj(vec![
                    ("counters".to_owned(), num_obj(&self.base_counters)),
                    ("gauges".to_owned(), num_obj(&self.base_gauges)),
                ]),
            ),
            ("frames".to_owned(), JsonValue::Arr(frames)),
            ("journal_tail".to_owned(), JsonValue::Arr(journal_tail)),
        ];
        if let Some(traces) = &self.traces {
            members.push(("traces".to_owned(), traces.clone()));
        }
        format!("{}\n", JsonValue::Obj(members))
    }

    /// Parse a `kalis.diag.v1` document back into a bundle.
    pub fn parse(text: &str) -> Result<DiagBundle, String> {
        let doc = json::parse(text).map_err(|e| e.to_string())?;
        let str_of = |key: &str| -> Result<String, String> {
            doc.get(key)
                .and_then(JsonValue::as_str)
                .map(str::to_owned)
                .ok_or_else(|| format!("missing or non-string `{key}`"))
        };
        let schema = str_of("schema")?;
        if schema != DIAG_SCHEMA {
            return Err(format!(
                "unsupported schema `{schema}` (want {DIAG_SCHEMA})"
            ));
        }
        let num_of = |key: &str| -> Result<u64, String> {
            doc.get(key)
                .and_then(JsonValue::as_u64)
                .ok_or_else(|| format!("missing or non-numeric `{key}`"))
        };
        let ring = doc.get("ring").ok_or("missing `ring`")?;
        let ring_num = |key: &str| -> Result<u64, String> {
            ring.get(key)
                .and_then(JsonValue::as_u64)
                .ok_or_else(|| format!("missing or non-numeric `ring.{key}`"))
        };
        let num_pairs = |value: &JsonValue, what: &str| -> Result<Vec<(String, u64)>, String> {
            value
                .as_obj()
                .ok_or_else(|| format!("`{what}` is not an object"))?
                .iter()
                .map(|(k, v)| {
                    v.as_u64()
                        .map(|n| (k.clone(), n))
                        .ok_or_else(|| format!("`{what}.{k}` is not a number"))
                })
                .collect()
        };
        let base = doc.get("base").ok_or("missing `base`")?;
        let base_counters = num_pairs(
            base.get("counters").ok_or("missing `base.counters`")?,
            "base.counters",
        )?;
        let base_gauges = num_pairs(
            base.get("gauges").ok_or("missing `base.gauges`")?,
            "base.gauges",
        )?;

        let mut frames = Vec::new();
        for (i, frame) in doc
            .get("frames")
            .and_then(JsonValue::as_arr)
            .ok_or("missing `frames` array")?
            .iter()
            .enumerate()
        {
            let fnum = |key: &str| -> Result<u64, String> {
                frame
                    .get(key)
                    .and_then(JsonValue::as_u64)
                    .ok_or_else(|| format!("frame {i}: missing or non-numeric `{key}`"))
            };
            let journal = frame
                .get("journal")
                .ok_or_else(|| format!("frame {i}: missing `journal`"))?;
            let jnum = |key: &str| -> Result<u64, String> {
                journal
                    .get(key)
                    .and_then(JsonValue::as_u64)
                    .ok_or_else(|| format!("frame {i}: missing or non-numeric `journal.{key}`"))
            };
            frames.push(Frame {
                time_us: fnum("time_us")?,
                counter_deltas: num_pairs(
                    frame
                        .get("counters")
                        .ok_or_else(|| format!("frame {i}: missing `counters`"))?,
                    "counters",
                )?,
                gauge_sets: num_pairs(
                    frame
                        .get("gauges")
                        .ok_or_else(|| format!("frame {i}: missing `gauges`"))?,
                    "gauges",
                )?,
                journal_next_seq: jnum("next_seq")?,
                journal_len: jnum("len")?,
                journal_dropped: jnum("dropped")?,
            });
        }

        let mut journal_tail = Vec::new();
        for (i, entry) in doc
            .get("journal_tail")
            .and_then(JsonValue::as_arr)
            .ok_or("missing `journal_tail` array")?
            .iter()
            .enumerate()
        {
            let enum_of = |key: &str| -> Result<u64, String> {
                entry
                    .get(key)
                    .and_then(JsonValue::as_u64)
                    .ok_or_else(|| format!("journal_tail {i}: missing or non-numeric `{key}`"))
            };
            journal_tail.push(DiagJournalEntry {
                seq: enum_of("seq")?,
                time_us: enum_of("time_us")?,
                kind: entry
                    .get("kind")
                    .and_then(JsonValue::as_str)
                    .map(str::to_owned)
                    .ok_or_else(|| format!("journal_tail {i}: missing `kind`"))?,
                fields: entry
                    .get("fields")
                    .and_then(JsonValue::as_obj)
                    .map(|members| members.to_vec())
                    .ok_or_else(|| format!("journal_tail {i}: missing `fields`"))?,
            });
        }

        Ok(DiagBundle {
            node: str_of("node")?,
            bundle_id: str_of("bundle_id")?,
            trigger: str_of("trigger")?,
            captured_us: num_of("captured_us")?,
            config_fingerprint: str_of("config_fingerprint")?,
            ring_depth: ring_num("depth")?,
            interval_us: ring_num("interval_us")?,
            trigger_mask: ring_num("trigger_mask")?,
            samples: ring_num("samples")?,
            base_counters,
            base_gauges,
            frames,
            journal_tail,
            traces: doc.get("traces").cloned(),
        })
    }

    /// Reconstruct the absolute counter/gauge values at every retained
    /// frame from the base + deltas (the delta-decode round trip).
    pub fn decode_absolute(&self) -> Vec<DecodedFrame> {
        let mut counters: BTreeMap<String, u64> = self.base_counters.iter().cloned().collect();
        let mut gauges: BTreeMap<String, u64> = self.base_gauges.iter().cloned().collect();
        let mut out = Vec::with_capacity(self.frames.len());
        for frame in &self.frames {
            for (name, delta) in &frame.counter_deltas {
                *counters.entry(name.clone()).or_insert(0) += delta;
            }
            for (name, value) in &frame.gauge_sets {
                gauges.insert(name.clone(), *value);
            }
            out.push((frame.time_us, counters.clone(), gauges.clone()));
        }
        out
    }
}

/// Strictly validate a `kalis.diag.v1` document: schema tag, structural
/// completeness, a known trigger, monotonic frame and journal
/// timestamps, and ring occupancy within the declared depth.
pub fn check_bundle(text: &str) -> Result<DiagStats, String> {
    let bundle = DiagBundle::parse(text)?;
    let trigger = Trigger::from_name(&bundle.trigger)
        .ok_or_else(|| format!("unknown trigger `{}`", bundle.trigger))?;
    if bundle.bundle_id.is_empty() {
        return Err("empty bundle_id".to_owned());
    }
    if !bundle.config_fingerprint.starts_with("fnv1a:") {
        return Err(format!(
            "config_fingerprint `{}` is not an fnv1a digest",
            bundle.config_fingerprint
        ));
    }
    if bundle.frames.is_empty() {
        return Err("bundle retains no frames".to_owned());
    }
    if bundle.frames.len() as u64 > bundle.ring_depth {
        return Err(format!(
            "{} frames exceed the declared ring depth {}",
            bundle.frames.len(),
            bundle.ring_depth
        ));
    }
    for pair in bundle.frames.windows(2) {
        if pair[1].time_us <= pair[0].time_us {
            return Err(format!(
                "frame timestamps not strictly monotonic ({} then {})",
                pair[0].time_us, pair[1].time_us
            ));
        }
        if pair[1].journal_next_seq < pair[0].journal_next_seq {
            return Err("journal next_seq went backwards across frames".to_owned());
        }
    }
    if let Some(last) = bundle.frames.last() {
        if last.time_us > bundle.captured_us {
            return Err("frames sampled after the capture instant".to_owned());
        }
    }
    for pair in bundle.journal_tail.windows(2) {
        if pair[1].seq <= pair[0].seq {
            return Err("journal_tail sequence numbers not strictly increasing".to_owned());
        }
    }
    Ok(DiagStats {
        frames: bundle.frames.len(),
        journal_entries: bundle.journal_tail.len(),
        trigger: trigger.name(),
    })
}

#[cfg(test)]
mod differential;
#[cfg(test)]
mod reference;

#[cfg(test)]
mod tests {
    use super::*;
    use crate::{JournalEvent, Telemetry};
    use proptest::prelude::*;

    fn telemetry_with_activity(packets: u64, active: u64) -> Telemetry {
        let tele = Telemetry::default();
        let ingested = tele.counter(crate::names::PACKETS_INGESTED);
        for _ in 0..packets {
            ingested.inc();
        }
        tele.gauge(crate::names::MODULES_ACTIVE).set(active);
        tele
    }

    fn capture_once(recorder: &mut FlightRecorder, tele: &Telemetry, at_us: u64) -> DiagBundle {
        recorder.capture(
            Trigger::StateExhaustion,
            at_us,
            tele,
            "K1",
            &config_fingerprint("modules = { ScanModule }"),
            None,
            DEFAULT_JOURNAL_TAIL,
        )
    }

    #[test]
    fn frames_delta_encode_only_changes() {
        let tele = telemetry_with_activity(3, 2);
        let mut rec = FlightRecorder::new(8, 1_000_000, TRIGGER_MASK_ALL);
        rec.sample(1_000_000, &tele);
        // Nothing moved: the second frame carries no deltas.
        rec.sample(2_000_000, &tele);
        tele.counter(crate::names::PACKETS_INGESTED).add(5);
        rec.sample(3_000_000, &tele);
        let bundle = capture_once(&mut rec, &tele, 4_000_000);
        assert_eq!(bundle.frames.len(), 4);
        assert_eq!(
            bundle.frames[0].counter_deltas,
            vec![(crate::names::PACKETS_INGESTED.to_owned(), 3)]
        );
        assert!(bundle.frames[1].counter_deltas.is_empty());
        assert!(bundle.frames[1].gauge_sets.is_empty());
        assert_eq!(
            bundle.frames[2].counter_deltas,
            vec![(crate::names::PACKETS_INGESTED.to_owned(), 5)]
        );
        // Absolute reconstruction matches the live registry.
        let decoded = bundle.decode_absolute();
        let (_, counters, gauges) = decoded.last().expect("frames retained");
        assert_eq!(counters[crate::names::PACKETS_INGESTED], 8);
        assert_eq!(gauges[crate::names::MODULES_ACTIVE], 2);
    }

    #[test]
    fn ring_eviction_folds_into_the_base() {
        let tele = Telemetry::default();
        let counter = tele.counter("evicted.counter");
        let mut rec = FlightRecorder::new(2, 1, TRIGGER_MASK_ALL);
        for i in 1..=5u64 {
            counter.add(i);
            rec.sample(i * 10, &tele);
        }
        assert_eq!(rec.occupancy(), 2);
        let bundle = capture_once(&mut rec, &tele, 60);
        // Depth 2: only the last two samples (plus the forced capture
        // sample) fit; everything older lives in the base.
        let decoded = bundle.decode_absolute();
        let (_, counters, _) = decoded.last().expect("frames retained");
        assert_eq!(counters["evicted.counter"], 1 + 2 + 3 + 4 + 5);
    }

    #[test]
    fn bundle_round_trips_and_passes_the_strict_checker() {
        let tele = telemetry_with_activity(7, 1);
        tele.journal().record(
            500_000,
            JournalEvent::StateEvicted {
                structure: "module:ScanModule".to_owned(),
                evicted: 12,
            },
        );
        let mut rec = FlightRecorder::new(8, 1_000_000, TRIGGER_MASK_ALL);
        rec.sample(1_000_000, &tele);
        let bundle = capture_once(&mut rec, &tele, 2_000_000);
        let json = bundle.to_json();
        let parsed = DiagBundle::parse(&json).expect("bundle parses");
        assert_eq!(parsed, bundle);
        assert_eq!(parsed.to_json(), json, "render is a fixed point");
        let stats = check_bundle(&json).expect("checker accepts");
        assert_eq!(stats.trigger, "state-exhaustion");
        assert_eq!(stats.frames, 2);
        assert_eq!(stats.journal_entries, 1);
        assert_eq!(bundle.journal_tail[0].kind, "state_evicted");
    }

    #[test]
    fn double_capture_is_byte_identical() {
        let build = || {
            let tele = telemetry_with_activity(9, 3);
            let mut rec = FlightRecorder::new(4, 1_000_000, TRIGGER_MASK_ALL);
            rec.sample(1_000_000, &tele);
            tele.counter(crate::names::ALERTS).inc();
            rec.sample(2_000_000, &tele);
            capture_once(&mut rec, &tele, 3_000_000).to_json()
        };
        assert_eq!(build(), build(), "bundles must be deterministic");
    }

    #[test]
    fn checker_rejects_broken_documents() {
        assert!(check_bundle("{}").is_err());
        assert!(check_bundle("not json").is_err());
        let tele = telemetry_with_activity(1, 0);
        let mut rec = FlightRecorder::new(4, 1, TRIGGER_MASK_ALL);
        rec.sample(10, &tele);
        let good = capture_once(&mut rec, &tele, 20).to_json();
        assert!(check_bundle(&good).is_ok());
        let bad_schema = good.replace("kalis.diag.v1", "kalis.diag.v9");
        assert!(check_bundle(&bad_schema).is_err());
        let bad_trigger = good.replace("state-exhaustion", "meteor-strike");
        assert!(check_bundle(&bad_trigger).is_err());
    }

    #[test]
    fn disabled_recorder_records_nothing() {
        let tele = telemetry_with_activity(2, 0);
        let mut rec = FlightRecorder::new(0, 1, TRIGGER_MASK_ALL);
        assert!(!rec.enabled());
        assert!(!rec.maybe_sample(10, &tele));
        assert_eq!(rec.occupancy(), 0);
        assert!(!rec.armed(Trigger::ReadinessFlip));
    }

    #[test]
    fn wall_domain_instruments_stay_out_of_frames() {
        let tele = telemetry_with_activity(4, 1);
        tele.counter("module.cpu_ns[module=ScanModule]").add(12_345);
        tele.counter("ops.requests[endpoint=metrics]").add(3);
        let mut rec = FlightRecorder::new(4, 1, TRIGGER_MASK_ALL);
        rec.sample(10, &tele);
        let bundle = capture_once(&mut rec, &tele, 20);
        let all_names: Vec<&str> = bundle
            .frames
            .iter()
            .flat_map(|f| {
                f.counter_deltas
                    .iter()
                    .chain(f.gauge_sets.iter())
                    .map(|(name, _)| name.as_str())
            })
            .collect();
        assert!(all_names.contains(&crate::names::PACKETS_INGESTED));
        assert!(
            all_names
                .iter()
                .all(|n| !n.starts_with("module.cpu_ns") && !n.starts_with("ops.requests")),
            "wall-domain instruments leaked into frames: {all_names:?}"
        );
    }

    #[test]
    fn trigger_names_round_trip_and_mask_bits_are_distinct() {
        let mut seen = 0u32;
        for trigger in Trigger::ALL {
            assert_eq!(Trigger::from_name(trigger.name()), Some(trigger));
            assert_eq!(seen & trigger.bit(), 0, "bits must not collide");
            seen |= trigger.bit();
        }
        assert_eq!(seen, TRIGGER_MASK_ALL);
        assert_eq!(Trigger::from_name("nope"), None);
        assert_eq!(
            Trigger::first_in_mask(Trigger::DegradedSync.bit() | Trigger::StateExhaustion.bit()),
            Some(Trigger::DegradedSync)
        );
        assert_eq!(Trigger::first_in_mask(0), None);
    }

    proptest! {
        /// Occupancy never exceeds the configured depth and frame
        /// timestamps stay strictly monotonic, whatever the sampling
        /// pattern.
        #[test]
        fn ring_respects_budget_and_monotonic_time(
            depth in 1usize..12,
            steps in proptest::collection::vec((1u64..5_000_000, 0u64..50), 1..64),
        ) {
            let tele = Telemetry::default();
            let counter = tele.counter("pp.counter");
            let mut rec = FlightRecorder::new(depth, 1_000_000, TRIGGER_MASK_ALL);
            let mut now = 0u64;
            for (advance, add) in steps {
                now += advance;
                counter.add(add);
                rec.maybe_sample(now, &tele);
                prop_assert!(rec.occupancy() <= depth);
            }
            let bundle = rec.capture(
                Trigger::ReadinessFlip,
                now + 1_000_000,
                &tele,
                "K1",
                "fnv1a:0000000000000000",
                None,
                8,
            );
            prop_assert!(bundle.frames.len() <= depth);
            for pair in bundle.frames.windows(2) {
                prop_assert!(pair[1].time_us > pair[0].time_us);
            }
        }

        /// Delta decoding reconstructs the exact absolute counter value
        /// at the final frame, across evictions.
        #[test]
        fn delta_decode_round_trips(
            depth in 1usize..8,
            adds in proptest::collection::vec(0u64..100, 1..40),
        ) {
            let tele = Telemetry::default();
            let counter = tele.counter("rt.counter");
            let gauge = tele.gauge("rt.gauge");
            let mut rec = FlightRecorder::new(depth, 1, TRIGGER_MASK_ALL);
            let mut total = 0u64;
            for (i, add) in adds.iter().enumerate() {
                counter.add(*add);
                gauge.set(*add);
                total += add;
                rec.sample((i as u64 + 1) * 10, &tele);
            }
            let bundle = rec.capture(
                Trigger::StateExhaustion,
                adds.len() as u64 * 10 + 10,
                &tele,
                "K1",
                "fnv1a:0000000000000000",
                None,
                8,
            );
            let decoded = bundle.decode_absolute();
            let (_, counters, gauges) = decoded.last().expect("at least one frame");
            prop_assert_eq!(counters.get("rt.counter").copied().unwrap_or(0), total);
            prop_assert_eq!(
                gauges.get("rt.gauge").copied().unwrap_or(0),
                *adds.last().expect("nonempty")
            );
            // And the rendered document survives parse→render untouched.
            let json = bundle.to_json();
            let reparsed = DiagBundle::parse(&json).expect("parses");
            prop_assert_eq!(reparsed.to_json(), json);
        }
    }
}
