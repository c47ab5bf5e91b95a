//! Deterministic causal tracing for the detection pipeline.
//!
//! A [`TraceContext`] is stamped on every ingested packet and carried
//! through module dispatch, knowledge-base writes, alert emission, and
//! collective-sync frames. Three properties drive the design:
//!
//! 1. **Determinism** — trace ids are derived from the node name and the
//!    packet sequence number with FNV-1a + splitmix64, never from a RNG
//!    or the wall clock, so replayed simulations produce bit-identical
//!    traces.
//! 2. **O(1) hot-path cost** — the sampling decision is one mask + one
//!    compare on the trace id (head-based sampling: a trace is either
//!    recorded everywhere or nowhere). With sampling off the recorder is
//!    a single relaxed atomic load.
//! 3. **Bounded memory** — events land in a fixed-capacity ring that
//!    drops its oldest trace events and counts the loss, mirroring the
//!    journal's policy.

use crate::json::JsonValue;
use parking_lot::Mutex;
use std::collections::VecDeque;
use std::sync::atomic::{AtomicU32, Ordering};

/// Sampling granularity: rates are quantized to parts per 2^20.
pub const SAMPLE_SCALE: u32 = 1 << 20;

/// Default bounded trace-buffer capacity (events, not traces).
pub const DEFAULT_TRACE_CAPACITY: usize = 4096;

const FNV_OFFSET: u64 = 0xcbf2_9ce4_8422_2325;
const FNV_PRIME: u64 = 0x0000_0100_0000_01b3;
const GOLDEN: u64 = 0x9e37_79b9_7f4a_7c15;

fn fnv1a(bytes: &[u8]) -> u64 {
    let mut hash = FNV_OFFSET;
    for &b in bytes {
        hash ^= b as u64;
        hash = hash.wrapping_mul(FNV_PRIME);
    }
    hash
}

/// Finalizer from the splitmix64 generator: a cheap bijective mixer
/// that spreads sequential inputs across the full 64-bit space, so the
/// low bits used by the sampling decision are uniform.
fn splitmix64(mut x: u64) -> u64 {
    x = x.wrapping_add(GOLDEN);
    x = (x ^ (x >> 30)).wrapping_mul(0xbf58_476d_1ce4_e5b9);
    x = (x ^ (x >> 27)).wrapping_mul(0x94d0_49bb_1331_11eb);
    x ^ (x >> 31)
}

/// A head-based sampling rate, quantized to parts per 2^20.
///
/// The decision is `trace_id & (SAMPLE_SCALE-1) < threshold`, so every
/// node holding the same rate makes the same decision for the same
/// trace id — a sampled trace stays sampled across the collective.
#[derive(Clone, Copy, Debug, PartialEq, Eq)]
pub struct SampleRate(u32);

impl SampleRate {
    /// Tracing disabled (the default).
    pub fn off() -> Self {
        SampleRate(0)
    }

    /// Every trace sampled.
    pub fn full() -> Self {
        SampleRate(SAMPLE_SCALE)
    }

    /// Quantize a fraction in `[0.0, 1.0]`; values outside the range
    /// are clamped.
    pub fn from_fraction(rate: f64) -> Self {
        let clamped = rate.clamp(0.0, 1.0);
        SampleRate((clamped * SAMPLE_SCALE as f64).round() as u32)
    }

    /// The quantized threshold (0 = off, [`SAMPLE_SCALE`] = full).
    pub fn threshold(self) -> u32 {
        self.0
    }

    /// Whether a trace with this id is sampled under this rate.
    pub fn decide(self, trace_id: u64) -> bool {
        ((trace_id & (SAMPLE_SCALE as u64 - 1)) as u32) < self.0
    }
}

/// The per-packet trace context: a 64-bit trace id, a span id within
/// the trace, and the head-based sampling bit.
#[derive(Clone, Copy, Debug, PartialEq, Eq)]
pub struct TraceContext {
    pub trace_id: u64,
    pub span_id: u32,
    pub sampled: bool,
}

/// Root span id used for the packet-ingest span.
pub const ROOT_SPAN: u32 = 1;

impl TraceContext {
    /// Deterministic root context for packet `seq` on node `node`.
    pub fn root(node: &str, seq: u64, rate: SampleRate) -> Self {
        let trace_id = splitmix64(fnv1a(node.as_bytes()) ^ seq.wrapping_mul(GOLDEN));
        TraceContext {
            trace_id,
            span_id: ROOT_SPAN,
            sampled: rate.decide(trace_id),
        }
    }

    /// A context carrying no trace (id 0, never sampled). Used for
    /// writes that happen outside any packet's causal chain, e.g.
    /// operator configuration.
    pub fn none() -> Self {
        TraceContext {
            trace_id: 0,
            span_id: 0,
            sampled: false,
        }
    }

    /// Whether this context carries a real trace id.
    pub fn is_some(&self) -> bool {
        self.trace_id != 0
    }

    /// Derive the deterministic child span for step `index` under this
    /// span (e.g. the index of a module in dispatch order).
    pub fn child(&self, index: u32) -> Self {
        let mixed = splitmix64(self.trace_id ^ ((self.span_id as u64) << 32) ^ index as u64);
        let span_id = ((mixed >> 32) as u32) | 1; // never 0
        TraceContext {
            trace_id: self.trace_id,
            span_id,
            sampled: self.sampled,
        }
    }
}

/// One recorded step in a trace's causal chain.
#[derive(Clone, Debug, PartialEq, Eq)]
pub struct TraceEvent {
    pub trace_id: u64,
    pub span_id: u32,
    pub parent_span: u32,
    /// Capture-clock microseconds, supplied by the caller.
    pub time_us: u64,
    /// Step name, e.g. `ingest`, `dispatch:TopologyDiscoveryModule`,
    /// `kb.write:creator$label@entity`, `alert:Wormhole`, `sync.out:K2`.
    pub name: String,
    /// Node that recorded the event.
    pub node: String,
    /// Free-form detail (packet summary, knowgget value, peer name).
    pub detail: String,
}

struct TracerState {
    events: VecDeque<TraceEvent>,
    dropped: u64,
}

/// Bounded recorder of [`TraceEvent`]s.
///
/// The sampling threshold lives in an atomic so the tracing-off fast
/// path (`enabled()`) is a single relaxed load with no lock.
pub struct Tracer {
    state: Mutex<TracerState>,
    capacity: usize,
    threshold: AtomicU32,
}

impl Default for Tracer {
    fn default() -> Self {
        Self::new(DEFAULT_TRACE_CAPACITY)
    }
}

impl Tracer {
    /// A tracer retaining up to `capacity` events, sampling off.
    pub fn new(capacity: usize) -> Self {
        Tracer {
            state: Mutex::new(TracerState {
                events: VecDeque::new(),
                dropped: 0,
            }),
            capacity: capacity.max(1),
            threshold: AtomicU32::new(0),
        }
    }

    /// Install a new sampling rate (e.g. from the `Trace.SampleRate`
    /// config knowgget).
    pub fn set_sample_rate(&self, rate: SampleRate) {
        self.threshold.store(rate.threshold(), Ordering::Relaxed);
    }

    /// The current sampling rate.
    pub fn sample_rate(&self) -> SampleRate {
        SampleRate(self.threshold.load(Ordering::Relaxed))
    }

    /// Whether any sampling is on. This is the per-packet fast-path
    /// check: when false, ingest skips trace stamping entirely.
    pub fn enabled(&self) -> bool {
        self.threshold.load(Ordering::Relaxed) != 0
    }

    /// Deterministic root context for packet `seq` on `node` under the
    /// current rate.
    pub fn root(&self, node: &str, seq: u64) -> TraceContext {
        TraceContext::root(node, seq, self.sample_rate())
    }

    /// Record one event if `ctx` is sampled; O(1), bounded.
    pub fn record(
        &self,
        ctx: &TraceContext,
        parent_span: u32,
        time_us: u64,
        name: impl Into<String>,
        node: impl Into<String>,
        detail: impl Into<String>,
    ) {
        if !ctx.sampled {
            return;
        }
        let event = TraceEvent {
            trace_id: ctx.trace_id,
            span_id: ctx.span_id,
            parent_span,
            time_us,
            name: name.into(),
            node: node.into(),
            detail: detail.into(),
        };
        let mut state = self.state.lock();
        if state.events.len() == self.capacity {
            state.events.pop_front();
            state.dropped += 1;
        }
        state.events.push_back(event);
    }

    /// Events overwritten by the bounded ring.
    pub fn dropped(&self) -> u64 {
        self.state.lock().dropped
    }

    /// Copy out the retained events, oldest first.
    pub fn events(&self) -> Vec<TraceEvent> {
        self.state.lock().events.iter().cloned().collect()
    }

    /// Export the retained events as the trace JSON document consumed
    /// by `kalis-trace`.
    pub fn to_json(&self) -> String {
        events_to_json(&self.events(), self.dropped())
    }
}

/// Serialize trace events into the `kalis-trace` document format:
/// `{"dropped": N, "events": [...]}`.
pub(crate) fn events_to_json(events: &[TraceEvent], dropped: u64) -> String {
    JsonValue::Obj(vec![
        ("dropped".into(), JsonValue::Num(dropped)),
        (
            "events".into(),
            JsonValue::Arr(events.iter().map(event_to_json).collect()),
        ),
    ])
    .to_string()
}

fn event_to_json(e: &TraceEvent) -> JsonValue {
    JsonValue::Obj(vec![
        ("trace_id".into(), JsonValue::Num(e.trace_id)),
        ("span_id".into(), JsonValue::Num(e.span_id as u64)),
        ("parent_span".into(), JsonValue::Num(e.parent_span as u64)),
        ("time_us".into(), JsonValue::Num(e.time_us)),
        ("name".into(), JsonValue::Str(e.name.clone())),
        ("node".into(), JsonValue::Str(e.node.clone())),
        ("detail".into(), JsonValue::Str(e.detail.clone())),
    ])
}

/// Parse a document produced by [`events_to_json`].
pub fn events_from_json(input: &str) -> Result<(Vec<TraceEvent>, u64), crate::json::JsonError> {
    let malformed = |what: &str| crate::json::JsonError {
        offset: 0,
        message: format!("missing or mistyped field {what:?}"),
    };
    let doc = crate::json::parse(input)?;
    let dropped = doc
        .get("dropped")
        .and_then(JsonValue::as_u64)
        .ok_or_else(|| malformed("dropped"))?;
    let events = doc
        .get("events")
        .and_then(JsonValue::as_arr)
        .ok_or_else(|| malformed("events"))?
        .iter()
        .map(|v| {
            let num = |f: &str| {
                v.get(f)
                    .and_then(JsonValue::as_u64)
                    .ok_or_else(|| malformed(f))
            };
            let text = |f: &str| {
                v.get(f)
                    .and_then(JsonValue::as_str)
                    .map(str::to_string)
                    .ok_or_else(|| malformed(f))
            };
            Ok(TraceEvent {
                trace_id: num("trace_id")?,
                span_id: u32::try_from(num("span_id")?).map_err(|_| malformed("span_id"))?,
                parent_span: u32::try_from(num("parent_span")?)
                    .map_err(|_| malformed("parent_span"))?,
                time_us: num("time_us")?,
                name: text("name")?,
                node: text("node")?,
                detail: text("detail")?,
            })
        })
        .collect::<Result<Vec<_>, _>>()?;
    Ok((events, dropped))
}

/// Export events as Chrome trace-event JSON (`{"traceEvents": [...]}`),
/// loadable in Perfetto / `chrome://tracing`. Each event becomes a
/// complete (`"ph":"X"`) slice of 1µs on a per-node process lane.
pub fn events_to_chrome_json(events: &[TraceEvent]) -> String {
    let mut nodes: Vec<&str> = Vec::new();
    let mut out = String::from("{\"traceEvents\":[");
    for (i, e) in events.iter().enumerate() {
        let pid = match nodes.iter().position(|n| *n == e.node) {
            Some(p) => p,
            None => {
                nodes.push(&e.node);
                nodes.len() - 1
            }
        };
        if i > 0 {
            out.push(',');
        }
        out.push_str(&format!(
            "{{\"name\":{},\"cat\":\"kalis\",\"ph\":\"X\",\"ts\":{},\"dur\":1,\
             \"pid\":{},\"tid\":{},\"args\":{{\"trace_id\":\"{:016x}\",\"span\":{},\
             \"parent\":{},\"node\":{},\"detail\":{}}}}}",
            JsonValue::Str(e.name.clone()),
            e.time_us,
            pid,
            e.span_id,
            e.trace_id,
            e.span_id,
            e.parent_span,
            JsonValue::Str(e.node.clone()),
            JsonValue::Str(e.detail.clone()),
        ));
    }
    out.push_str("],\"displayTimeUnit\":\"ms\"}");
    out
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn trace_ids_are_deterministic_and_distinct() {
        let a1 = TraceContext::root("K1", 7, SampleRate::full());
        let a2 = TraceContext::root("K1", 7, SampleRate::full());
        let b = TraceContext::root("K1", 8, SampleRate::full());
        let c = TraceContext::root("K2", 7, SampleRate::full());
        assert_eq!(a1, a2);
        assert_ne!(a1.trace_id, b.trace_id);
        assert_ne!(a1.trace_id, c.trace_id);
        assert_eq!(a1.span_id, ROOT_SPAN);
        assert!(a1.sampled);
        assert!(a1.is_some());
    }

    #[test]
    fn sampling_decision_matches_rate() {
        assert!(!SampleRate::off().decide(12345));
        assert!(SampleRate::full().decide(12345));
        // Half-rate sampling lands near 50% over a deterministic sweep.
        let rate = SampleRate::from_fraction(0.5);
        let sampled = (0..10_000u64)
            .filter(|seq| TraceContext::root("K1", *seq, rate).sampled)
            .count();
        assert!((4_000..6_000).contains(&sampled), "sampled {sampled}");
        // Clamping.
        assert_eq!(SampleRate::from_fraction(7.0), SampleRate::full());
        assert_eq!(SampleRate::from_fraction(-1.0), SampleRate::off());
    }

    #[test]
    fn child_spans_stay_in_trace() {
        let root = TraceContext::root("K1", 3, SampleRate::full());
        let child = root.child(0);
        let sibling = root.child(1);
        assert_eq!(child.trace_id, root.trace_id);
        assert_ne!(child.span_id, root.span_id);
        assert_ne!(child.span_id, sibling.span_id);
        assert_ne!(child.span_id, 0);
        assert!(child.sampled);
    }

    #[test]
    fn unsampled_contexts_record_nothing() {
        let tracer = Tracer::new(8);
        let ctx = TraceContext::root("K1", 1, SampleRate::off());
        tracer.record(&ctx, 0, 10, "ingest", "K1", "");
        assert!(tracer.events().is_empty());
        assert!(!tracer.enabled());
    }

    #[test]
    fn bounded_buffer_drops_oldest_and_counts() {
        let tracer = Tracer::new(2);
        tracer.set_sample_rate(SampleRate::full());
        let ctx = tracer.root("K1", 1);
        for i in 0..5u64 {
            tracer.record(&ctx, 0, i, format!("step{i}"), "K1", "");
        }
        let events = tracer.events();
        assert_eq!(events.len(), 2);
        assert_eq!(events[0].name, "step3");
        assert_eq!(tracer.dropped(), 3);
    }

    #[test]
    fn trace_json_round_trips() {
        let tracer = Tracer::new(16);
        tracer.set_sample_rate(SampleRate::full());
        let root = tracer.root("K1", 1);
        tracer.record(&root, 0, 10, "ingest", "K1", "seq=1");
        let child = root.child(0);
        tracer.record(&child, root.span_id, 11, "dispatch:Wormhole", "K1", "");
        let text = tracer.to_json();
        let (events, dropped) = events_from_json(&text).unwrap();
        assert_eq!(dropped, 0);
        assert_eq!(events, tracer.events());
        assert_eq!(events_to_json(&events, dropped), text);
    }

    #[test]
    fn chrome_export_is_valid_json_shape() {
        let tracer = Tracer::new(16);
        tracer.set_sample_rate(SampleRate::full());
        let root = tracer.root("K1", 1);
        tracer.record(&root, 0, 10, "ingest", "K1", "seq=1");
        tracer.record(&root.child(0), root.span_id, 11, "dispatch", "K2", "");
        let chrome = events_to_chrome_json(&tracer.events());
        assert!(chrome.starts_with("{\"traceEvents\":["));
        assert!(chrome.contains("\"ph\":\"X\""));
        assert!(chrome.contains("\"pid\":0"));
        assert!(chrome.contains("\"pid\":1"));
    }
}
