//! Observability for the Kalis detection pipeline.
//!
//! This crate is the workspace's telemetry substrate: lock-free
//! [`Counter`]s and [`Gauge`]s, log-linear latency [`Histogram`]s with
//! p50/p95/p99 estimation, RAII [`SpanTimer`]s, and a bounded structured
//! [`Journal`] of typed pipeline events (module activation flips, raised
//! alerts, collective-sync traffic). Everything hangs off a [`Telemetry`]
//! registry whose [`TelemetrySnapshot`] exports to Prometheus text
//! exposition and round-trippable JSON.
//!
//! Design constraints, in order:
//! 1. **Hot-path cost**: recording is a handful of relaxed atomics;
//!    instruments are preregistered and cached as `Arc`s by callers.
//! 2. **Determinism**: journal timestamps are capture-clock values
//!    supplied by the caller, never wall clock, so simulated runs replay
//!    bit-identically.
//! 3. **No foreign types**: events carry strings and integers only, so
//!    every layer (core, baselines, bench) can feed the same registry
//!    without dependency cycles.

mod counter;
pub mod expocheck;
mod export;
mod histogram;
mod journal;
pub mod json;
pub mod provenance;
pub mod recorder;
mod registry;
mod span;
pub mod trace;

pub use counter::{Counter, Gauge};
pub use expocheck::check_exposition;
pub use export::{help_for, help_rows, prom_label_value};
pub use histogram::{Bucket, Histogram, HistogramSnapshot, MAX_TRACKABLE};
pub use journal::{Journal, JournalEvent, JournalField, JournalRecord, JournalSnapshot};
pub use provenance::{AlertProvenance, EvidenceKnowgget, PacketRef, TraceRef};
pub use recorder::{
    check_bundle, config_fingerprint, DiagBundle, DiagJournalEntry, DiagStats, FlightRecorder,
    Frame, Trigger, DEFAULT_JOURNAL_TAIL, DEFAULT_RING_DEPTH, DEFAULT_SNAPSHOT_INTERVAL_SECS,
    TRIGGER_MASK_ALL,
};
pub use registry::{metric_name, Telemetry, TelemetrySnapshot};
pub use span::SpanTimer;
pub use trace::{
    SampleRate, TraceContext, TraceEvent, Tracer, DEFAULT_TRACE_CAPACITY, ROOT_SPAN, SAMPLE_SCALE,
};

/// Canonical metric names shared by the instrumented crates, so
/// producers and consumers (exporters, benches, tests, dashboards)
/// never drift apart on spelling.
pub mod names {
    /// Packets ingested by a node (counter).
    pub const PACKETS_INGESTED: &str = "packets.ingested";
    /// Periodic ticks executed (counter).
    pub const TICKS: &str = "ticks";
    /// Whole-ingest pipeline latency (histogram, ns).
    pub const PIPELINE: &str = "pipeline.ingest";
    /// Per-module packet dispatch latency family (histogram, ns;
    /// labelled `[module=...]`).
    pub const DISPATCH_PACKET: &str = "dispatch.packet";
    /// Per-module tick dispatch latency family (histogram, ns;
    /// labelled `[module=...]`).
    pub const DISPATCH_TICK: &str = "dispatch.tick";
    /// Knowledge-base operation family (counter, labelled `[op=...]`).
    pub const KB_OPS: &str = "kb.ops";
    /// Current knowledge-base revision (gauge).
    pub const KB_REVISION: &str = "kb.revision";
    /// Knowledge-base revision bumps, i.e. churn (counter).
    pub const KB_CHURN: &str = "kb.churn";
    /// Module activations (counter).
    pub const MODULES_ACTIVATED: &str = "modules.activated";
    /// Module deactivations (counter).
    pub const MODULES_DEACTIVATED: &str = "modules.deactivated";
    /// Currently active modules (gauge).
    pub const MODULES_ACTIVE: &str = "modules.active";
    /// Alerts raised, total (counter).
    pub const ALERTS: &str = "alerts";
    /// Alerts by kind/severity family (counter, labelled
    /// `[kind=...,severity=...]`).
    pub const ALERTS_BY: &str = "alerts.by";
    /// Collective-sync messages sealed for peers (counter).
    pub const SYNC_SENT: &str = "sync.sent";
    /// Collective-sync messages accepted (counter).
    pub const SYNC_ACCEPTED: &str = "sync.accepted";
    /// Collective-sync messages rejected (counter).
    pub const SYNC_REJECTED: &str = "sync.rejected";
    /// Bytes sealed into outgoing sync messages (counter).
    pub const SYNC_BYTES_OUT: &str = "sync.bytes_out";
    /// Bytes received in sync messages, accepted or not (counter).
    pub const SYNC_BYTES_IN: &str = "sync.bytes_in";
    /// Knowggets carried by outgoing sync messages (counter).
    pub const SYNC_KNOWGGETS_OUT: &str = "sync.knowggets_out";
    /// Knowggets applied from accepted sync messages (counter).
    pub const SYNC_KNOWGGETS_IN: &str = "sync.knowggets_in";
    /// Sync data frames retransmitted after an ack timeout (counter).
    pub const SYNC_RETRANSMITS: &str = "sync.retransmits";
    /// Replayed/duplicated sync frames dropped by receive dedup (counter).
    pub const SYNC_DUPLICATES: &str = "sync.duplicates_dropped";
    /// Outbound sync queue entries dropped by the bounded-queue policy
    /// (counter).
    pub const SYNC_QUEUE_DROPPED: &str = "sync.queue_dropped";
    /// Abstract work units, the paper's CPU proxy (counter).
    pub const WORK_UNITS: &str = "work.units";
    /// Peak tracked state bytes, the paper's RAM proxy (gauge).
    pub const PEAK_STATE_BYTES: &str = "state.peak_bytes";
    /// Module panics caught and isolated by the supervisor (counter).
    pub const MODULE_PANICS: &str = "supervisor.panics";
    /// Module watchdog-budget overruns observed (counter).
    pub const BUDGET_OVERRUNS: &str = "supervisor.budget_overruns";
    /// Quarantine transitions entered by any module (counter).
    pub const MODULE_QUARANTINES: &str = "supervisor.quarantines";
    /// Dispatches skipped by overload shedding, total (counter).
    pub const SHED_SKIPS: &str = "supervisor.shed_skips";
    /// Per-module shed family (counter, labelled `[module=...]`).
    pub const SHED_BY_MODULE: &str = "supervisor.shed";
    /// Journal records overwritten by the bounded ring (counter; the
    /// Prometheus family is `kalis_journal_dropped_total`).
    pub const JOURNAL_DROPPED: &str = "journal.dropped";
    /// Most journal records ever retained at once (gauge).
    pub const JOURNAL_HIGH_WATER: &str = "journal.high_water";
    /// Packets stamped with a sampled trace context (counter).
    pub const TRACE_SAMPLED: &str = "trace.sampled";
    /// Measured per-module CPU self-time family (counter, ns, labelled
    /// `[module=...]`; sampled 1-in-N by the dispatcher, so this is a
    /// lower bound on true self-time).
    pub const MODULE_CPU_NS: &str = "module.cpu_ns";
    /// Peers expired out of the sync ledger after prolonged silence
    /// (counter).
    pub const PEERS_EXPIRED: &str = "peers.expired";
    /// Requests served by the ops HTTP listener family (counter,
    /// labelled `[endpoint=...]`).
    pub const OPS_REQUESTS: &str = "ops.requests";
    /// Diagnostics bundles captured by the flight recorder (counter).
    pub const DIAG_CAPTURES: &str = "diag.captures";
}
