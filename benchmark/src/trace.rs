//! Benchmark-side tracing: spans recorded around calls into the
//! program's public functions, never inside it.
//!
//! One recorder lives in a thread-local for the duration of a traced
//! repetition. Non-leaf spans (`op`, `try_ingest`, `tick`, …) go through
//! [`enter`]/[`exit`] and sit on a span stack that supplies the parent of
//! whatever is recorded beneath them; [`Timed`] wraps a module and
//! records a leaf span around `on_packet`/`on_tick`. Every span feeds a
//! per-name histogram; full records of the first [`KEEP_OPS`] timed
//! operations are kept in memory and written in Chrome trace-event
//! format when the run ends. With no recorder installed every call here
//! is a thread-local load and a branch.

use std::cell::RefCell;
use std::fmt::Write as _;
use std::sync::Arc;
use std::time::Instant;

use kalis_core::knowledge::{KnowValue, KnowledgeBase};
use kalis_core::modules::{
    KnowggetContract, Module, ModuleCtx, ModuleDescriptor, ModuleKind, ModuleRegistry,
};
use kalis_packets::CapturedPacket;
use kalis_telemetry::{Histogram, HistogramSnapshot};

/// Timed operations whose spans are kept as full records.
pub const KEEP_OPS: u64 = 1_000;

/// Index of a registered span name.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct SpanId(usize);

/// One packet: decode plus ingest (plus whatever sync or tick was due).
pub const OP: SpanId = SpanId(0);
/// `CapturedPacket::capture`.
pub const DECODE: SpanId = SpanId(1);
/// `Kalis::try_ingest`.
pub const TRY_INGEST: SpanId = SpanId(2);
/// An explicit `Kalis::tick`.
pub const TICK: SpanId = SpanId(3);
/// `collective_outbox → seal → open → accept_sync`, both directions.
pub const SYNC_EXCHANGE: SpanId = SpanId(4);
const FIXED: [&str; 5] = ["op", "decode", "try_ingest", "tick", "sync_exchange"];

struct Span {
    name: String,
    hist: Histogram,
    /// Time inside the span not covered by child spans, summed.
    self_ns: u64,
}

struct Open {
    id: SpanId,
    start: Instant,
    children_ns: u64,
}

struct Event {
    span: SpanId,
    parent: Option<SpanId>,
    op: u64,
    lane: usize,
    start_ns: u64,
    dur_ns: u64,
}

/// The per-run span store.
pub struct Recorder {
    origin: Instant,
    spans: Vec<Span>,
    stack: Vec<Open>,
    events: Vec<Event>,
    /// Off during warm-up, so steady state is all the histograms see.
    recording: bool,
    /// Sequence number of the current operation: the identifier shared
    /// by every span of one packet.
    op: u64,
    /// Node the current operation belongs to (the trace viewer's row).
    lane: usize,
    /// Whether spans recorded now are also kept as full records.
    keep: bool,
}

/// What one span name accumulated.
pub struct SpanSummary {
    pub name: String,
    pub total: HistogramSnapshot,
    pub self_ns: u64,
}

thread_local! {
    static REC: RefCell<Option<Recorder>> = const { RefCell::new(None) };
}

fn with<R>(f: impl FnOnce(&mut Recorder) -> R) -> Option<R> {
    REC.with(|cell| cell.borrow_mut().as_mut().map(f))
}

/// Install a fresh recorder on this thread (recording off).
pub fn install() {
    let spans = FIXED
        .iter()
        .map(|name| Span::new((*name).to_owned()))
        .collect();
    REC.with(|cell| {
        *cell.borrow_mut() = Some(Recorder {
            origin: Instant::now(),
            spans,
            stack: Vec::new(),
            events: Vec::new(),
            recording: false,
            op: 0,
            lane: 0,
            keep: false,
        });
    });
}

/// Remove this thread's recorder and return what it holds.
pub fn uninstall() -> Option<Recorder> {
    REC.with(|cell| cell.borrow_mut().take())
}

/// Register `name` (idempotent) on the installed recorder.
///
/// # Panics
///
/// Panics when no recorder is installed: wrapped modules are only built
/// for traced repetitions.
pub fn register(name: &str) -> SpanId {
    with(|rec| {
        if let Some(i) = rec.spans.iter().position(|s| s.name == name) {
            return SpanId(i);
        }
        rec.spans.push(Span::new(name.to_owned()));
        SpanId(rec.spans.len() - 1)
    })
    .expect("trace::register needs an installed recorder")
}

/// Switch recording on (a timed span begins) or off (a warm-up).
pub fn set_recording(on: bool) {
    with(|rec| rec.recording = on);
}

/// Mark the start of operation `op` on node `lane`.
pub fn begin_op(op: u64, lane: usize) {
    with(|rec| {
        rec.op = op;
        rec.lane = lane;
        rec.keep = op < KEEP_OPS;
    });
}

/// From here on spans only feed their histograms (the standalone legs).
pub fn stop_keeping() {
    with(|rec| rec.keep = false);
}

/// What one leaf span costs outside its own duration, ns: a clock read
/// plus the bookkeeping in [`leaf`]. Spans measure from inside, so this
/// much lands in the parent for every child it has.
pub fn leaf_overhead_ns() -> f64 {
    const ROUNDS: u32 = 20_000;
    let id = register("calibration");
    stop_keeping();
    let start = Instant::now();
    for _ in 0..ROUNDS {
        let a = Instant::now();
        leaf(id, a, Instant::now());
    }
    let per_round = start.elapsed().as_nanos() as f64 / f64::from(ROUNDS);
    let inside = with(|rec| rec.spans[id.0].hist.snapshot().mean()).unwrap_or(0.0);
    (per_round - inside).max(0.0)
}

/// Open a non-leaf span.
pub fn enter(id: SpanId) {
    with(|rec| {
        if rec.recording {
            rec.stack.push(Open {
                id,
                start: Instant::now(),
                children_ns: 0,
            });
        }
    });
}

/// Close the innermost open span, which must be `id`.
pub fn exit(id: SpanId) {
    let end = Instant::now();
    with(|rec| {
        if !rec.recording {
            return;
        }
        let open = rec.stack.pop().expect("exit without enter");
        assert!(open.id == id, "span stack out of order");
        let dur = end.duration_since(open.start).as_nanos() as u64;
        rec.spans[id.0].self_ns += dur.saturating_sub(open.children_ns);
        rec.finish(id, open.start, dur);
    });
}

/// Run `f` inside span `id`.
pub fn scope<R>(id: SpanId, f: impl FnOnce() -> R) -> R {
    enter(id);
    let out = f();
    exit(id);
    out
}

/// Record a span with no children, timed by the caller.
pub fn leaf(id: SpanId, start: Instant, end: Instant) {
    with(|rec| {
        if rec.recording {
            let dur = end.duration_since(start).as_nanos() as u64;
            rec.spans[id.0].self_ns += dur;
            rec.finish(id, start, dur);
        }
    });
}

impl Span {
    fn new(name: String) -> Span {
        Span {
            name,
            hist: Histogram::new(),
            self_ns: 0,
        }
    }
}

impl Recorder {
    fn finish(&mut self, id: SpanId, start: Instant, dur_ns: u64) {
        self.spans[id.0].hist.record(dur_ns);
        let parent = self.stack.last_mut().map(|open| {
            open.children_ns += dur_ns;
            open.id
        });
        if self.keep {
            self.events.push(Event {
                span: id,
                parent,
                op: self.op,
                lane: self.lane,
                start_ns: start.duration_since(self.origin).as_nanos() as u64,
                dur_ns,
            });
        }
    }

    /// Per-name totals, in registration order.
    pub fn summaries(&self) -> Vec<SpanSummary> {
        self.spans
            .iter()
            .map(|s| SpanSummary {
                name: s.name.clone(),
                total: s.hist.snapshot(),
                self_ns: s.self_ns,
            })
            .collect()
    }

    /// The kept span records as a Chrome trace-event document
    /// (`chrome://tracing`, Perfetto): one complete (`"ph":"X"`) event
    /// per span, microsecond timestamps, one row (`tid`) per node.
    pub fn chrome_trace(&self, workload: &str) -> String {
        let mut out = String::with_capacity(self.events.len() * 120 + 64);
        out.push_str("{\"displayTimeUnit\":\"ns\",\"otherData\":{\"workload\":\"");
        out.push_str(workload);
        out.push_str("\"},\"traceEvents\":[");
        for (i, e) in self.events.iter().enumerate() {
            if i > 0 {
                out.push(',');
            }
            let parent = e.parent.map_or("", |p| self.spans[p.0].name.as_str());
            let _ = write!(
                out,
                "\n{{\"name\":\"{}\",\"cat\":\"kalis\",\"ph\":\"X\",\"pid\":1,\"tid\":{},\
                 \"ts\":{:.3},\"dur\":{:.3},\"args\":{{\"op\":{},\"parent\":\"{}\"}}}}",
                self.spans[e.span.0].name,
                e.lane,
                e.start_ns as f64 / 1_000.0,
                e.dur_ns as f64 / 1_000.0,
                e.op,
                parent,
            );
        }
        out.push_str("\n]}\n");
        out
    }
}

/// The layer a module kind is reported under.
pub fn layer_of(kind: ModuleKind) -> &'static str {
    match kind {
        ModuleKind::Sensing => "sensing",
        ModuleKind::Detection => "detection",
    }
}

/// A module wrapped so that `on_packet` and `on_tick` are timed from
/// outside. Every other trait method delegates untouched, so the
/// wrapped node behaves exactly like an unwrapped one.
pub struct Timed {
    inner: Box<dyn Module>,
    on_packet: SpanId,
    on_tick: SpanId,
}

impl Timed {
    fn wrap(inner: Box<dyn Module>, prefix: &str) -> Timed {
        let d = inner.descriptor();
        let layer = layer_of(d.kind);
        Timed {
            on_packet: register(&format!("{prefix}{layer}.{}.on_packet", d.name)),
            on_tick: register(&format!("{prefix}{layer}.{}.on_tick", d.name)),
            inner,
        }
    }
}

impl Module for Timed {
    fn descriptor(&self) -> ModuleDescriptor {
        self.inner.descriptor()
    }

    fn contract(&self) -> KnowggetContract {
        self.inner.contract()
    }

    fn required(&self, kb: &KnowledgeBase) -> bool {
        self.inner.required(kb)
    }

    fn on_packet(&mut self, ctx: &mut ModuleCtx<'_>, packet: &CapturedPacket) {
        let start = Instant::now();
        self.inner.on_packet(ctx, packet);
        leaf(self.on_packet, start, Instant::now());
    }

    fn on_tick(&mut self, ctx: &mut ModuleCtx<'_>) {
        let start = Instant::now();
        self.inner.on_tick(ctx);
        leaf(self.on_tick, start, Instant::now());
    }

    fn state_bytes(&self) -> usize {
        self.inner.state_bytes()
    }

    fn occupancy(&self) -> usize {
        self.inner.occupancy()
    }

    fn evictions(&self) -> u64 {
        self.inner.evictions()
    }

    fn state_budget(&self) -> usize {
        self.inner.state_budget()
    }

    fn current_params(&self) -> Vec<(String, KnowValue)> {
        self.inner.current_params()
    }

    fn reset(&mut self) {
        self.inner.reset();
    }
}

/// The default module library with every factory wrapped in [`Timed`].
/// Span names are `<prefix><layer>.<Module>.on_packet|on_tick`.
pub fn timed_registry(prefix: &'static str) -> ModuleRegistry {
    let defaults = Arc::new(ModuleRegistry::with_defaults());
    let mut registry = ModuleRegistry::new();
    for name in defaults.names() {
        let defaults = Arc::clone(&defaults);
        registry.register(name, move |def| {
            let inner = defaults
                .build(def)
                .expect("name taken from the default registry");
            Box::new(Timed::wrap(inner, prefix))
        });
    }
    registry
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn self_time_is_span_minus_children_and_parents_come_from_the_stack() {
        install();
        let child = register("child");
        assert_eq!(register("child"), child, "registration is idempotent");
        enter(OP); // ignored: recording is off during warm-up
        set_recording(true);
        begin_op(3, 1);
        enter(OP);
        let start = Instant::now();
        std::thread::sleep(std::time::Duration::from_millis(2));
        leaf(child, start, Instant::now());
        exit(OP);
        let rec = uninstall().expect("installed above");
        let sums = rec.summaries();
        let op = &sums[OP.0];
        let kid = sums.iter().find(|s| s.name == "child").unwrap();
        assert_eq!((op.total.count, kid.total.count), (1, 1));
        assert!(kid.total.sum >= 2_000_000);
        assert_eq!(op.self_ns, op.total.sum - kid.total.sum);
        let doc = rec.chrome_trace("unit");
        assert!(doc.contains("\"name\":\"child\""));
        assert!(doc.contains("\"args\":{\"op\":3,\"parent\":\"op\"}"));
        assert!(doc.contains("\"tid\":1"));
        // With no recorder installed the calls are no-ops.
        enter(OP);
        exit(OP);
    }
}
