//! A bounded, structured event journal.
//!
//! The journal keeps the most recent N pipeline events — module
//! activation flips with the knowgget that triggered them, raised
//! alerts, collective-sync traffic — as typed records with sequence
//! numbers and capture-clock timestamps. When full, the oldest records
//! are dropped and counted, never silently lost.
//!
//! Events carry plain `String` fields rather than kalis-core types so
//! this crate stays dependency-free and usable from any layer.

use parking_lot::Mutex;
use std::collections::VecDeque;
use std::sync::Arc;

use crate::counter::{Counter, Gauge};

/// Default number of records retained.
pub const DEFAULT_JOURNAL_CAPACITY: usize = 1024;

/// One structured pipeline event.
#[derive(Clone, Debug, PartialEq, Eq, serde::Serialize, serde::Deserialize)]
pub enum JournalEvent {
    /// A detection module was switched on; `trigger` names the knowgget
    /// change (or other cause) that made it relevant.
    ModuleActivated { module: String, trigger: String },
    /// A detection module was switched off.
    ModuleDeactivated { module: String, trigger: String },
    /// A module raised an alert.
    AlertRaised {
        kind: String,
        severity: String,
        module: String,
    },
    /// A collective-sync message was sealed for a peer.
    SyncSent {
        peer: String,
        knowggets: u64,
        bytes: u64,
    },
    /// A collective-sync message was opened and applied.
    SyncAccepted {
        peer: String,
        knowggets: u64,
        bytes: u64,
    },
    /// A collective-sync message failed authentication or the
    /// ownership rule.
    SyncRejected { peer: String, reason: String },
    /// A replayed or duplicated sync frame was dropped by receive-side
    /// dedup (and re-acked so the sender stops retransmitting).
    SyncDuplicate { peer: String, seq: u64 },
    /// A peer moved between health states (`Healthy`/`Suspect`/`Dead`).
    PeerHealthChanged {
        peer: String,
        from: String,
        to: String,
    },
    /// The node entered degraded local-only mode: collaborative
    /// detection is suspended, local modules keep running.
    DegradedEntered { reason: String },
    /// The node left degraded mode; `healthy_peers` peers are live again.
    DegradedExited { healthy_peers: u64 },
    /// A module panicked during dispatch; the supervisor caught the
    /// unwind, reset the module's state, and kept the node alive.
    ModulePanicked {
        module: String,
        /// The panic payload, when it was a string (`"<non-string>"`
        /// otherwise).
        message: String,
    },
    /// A module exhausted its panic or budget allowance and was
    /// quarantined: excluded from dispatch and `recommend_config()`
    /// until its backoff expires.
    ModuleQuarantined {
        module: String,
        /// The evidence that triggered the flip (last panic message or
        /// budget-overrun summary).
        reason: String,
        /// Backoff before the module is re-probed, in milliseconds.
        backoff_ms: u64,
    },
    /// A quarantined module's backoff expired; it re-enters dispatch
    /// on probation (one more strike re-quarantines with a doubled
    /// backoff).
    ModuleProbation { module: String },
    /// The overload controller started shedding work: unpinned
    /// detection modules now see sampled dispatch.
    LoadShedEngaged {
        /// Observed ingest rate (packets/s) when shedding engaged.
        rate: u64,
        /// Configured sustainable capacity (packets/s).
        capacity: u64,
    },
    /// The overload controller stopped shedding; `skipped` dispatches
    /// were sampled away during the episode.
    LoadShedReleased { skipped: u64 },
    /// Estimated p99 whole-ingest latency crossed above the configured
    /// `Ops.LatencySloUs` target.
    SloBreached { p99_us: u64, target_us: u64 },
    /// Estimated p99 whole-ingest latency fell back under the
    /// configured target after a breach.
    SloRecovered { p99_us: u64, target_us: u64 },
    /// A peer silent long past its TTL was expired out of the sync
    /// ledger entirely (bounded peer state); it re-enters through
    /// normal discovery, with a full re-sync, if it ever returns.
    PeerExpired { peer: String },
    /// Aggregated bounded-state eviction report for one structure
    /// (`module:<name>` or `kb`), emitted at tick cadence whenever the
    /// cumulative eviction count moved since the last tick.
    StateEvicted { structure: String, evicted: u64 },
    /// Fault-injection report for one directed link (or `total`),
    /// recorded by scenario harnesses after a run so expectation
    /// failures can distinguish "the fault plan never fired" from a
    /// genuine detection miss.
    FaultsInjected {
        /// `from->to` node ids, or `total` for the aggregate.
        link: String,
        /// Frames dropped on the link.
        dropped: u64,
        /// Extra copies delivered.
        duplicated: u64,
        /// Frames bit-flipped.
        corrupted: u64,
        /// Frames given extra latency.
        delayed: u64,
    },
    /// The flight recorder latched a trigger and froze a diagnostics
    /// bundle (`kalis.diag.v1`).
    DiagCaptured {
        /// Trigger name (`readiness-flip`, `slo-breached`, ...).
        trigger: String,
        /// Bundle id, fetchable via `/debug/diag/<id>`.
        bundle: String,
    },
    /// Free-form marker (bench stages, experiment boundaries).
    Marker { kind: String, detail: String },
}

/// A single exported field of a [`JournalEvent`].
#[derive(Clone, Debug, PartialEq, Eq)]
pub enum JournalField {
    Str(String),
    Num(u64),
}

impl JournalEvent {
    /// The event payload as (name, value) pairs, for exporters.
    pub fn fields(&self) -> Vec<(&'static str, JournalField)> {
        use JournalField::{Num, Str};
        match self {
            JournalEvent::ModuleActivated { module, trigger }
            | JournalEvent::ModuleDeactivated { module, trigger } => vec![
                ("module", Str(module.clone())),
                ("trigger", Str(trigger.clone())),
            ],
            JournalEvent::AlertRaised {
                kind,
                severity,
                module,
            } => vec![
                ("kind", Str(kind.clone())),
                ("severity", Str(severity.clone())),
                ("module", Str(module.clone())),
            ],
            JournalEvent::SyncSent {
                peer,
                knowggets,
                bytes,
            }
            | JournalEvent::SyncAccepted {
                peer,
                knowggets,
                bytes,
            } => vec![
                ("peer", Str(peer.clone())),
                ("knowggets", Num(*knowggets)),
                ("bytes", Num(*bytes)),
            ],
            JournalEvent::SyncRejected { peer, reason } => {
                vec![("peer", Str(peer.clone())), ("reason", Str(reason.clone()))]
            }
            JournalEvent::SyncDuplicate { peer, seq } => {
                vec![("peer", Str(peer.clone())), ("seq", Num(*seq))]
            }
            JournalEvent::PeerHealthChanged { peer, from, to } => vec![
                ("peer", Str(peer.clone())),
                ("from", Str(from.clone())),
                ("to", Str(to.clone())),
            ],
            JournalEvent::DegradedEntered { reason } => {
                vec![("reason", Str(reason.clone()))]
            }
            JournalEvent::DegradedExited { healthy_peers } => {
                vec![("healthy_peers", Num(*healthy_peers))]
            }
            JournalEvent::ModulePanicked { module, message } => vec![
                ("module", Str(module.clone())),
                ("message", Str(message.clone())),
            ],
            JournalEvent::ModuleQuarantined {
                module,
                reason,
                backoff_ms,
            } => vec![
                ("module", Str(module.clone())),
                ("reason", Str(reason.clone())),
                ("backoff_ms", Num(*backoff_ms)),
            ],
            JournalEvent::ModuleProbation { module } => {
                vec![("module", Str(module.clone()))]
            }
            JournalEvent::LoadShedEngaged { rate, capacity } => {
                vec![("rate", Num(*rate)), ("capacity", Num(*capacity))]
            }
            JournalEvent::LoadShedReleased { skipped } => {
                vec![("skipped", Num(*skipped))]
            }
            JournalEvent::SloBreached { p99_us, target_us }
            | JournalEvent::SloRecovered { p99_us, target_us } => {
                vec![("p99_us", Num(*p99_us)), ("target_us", Num(*target_us))]
            }
            JournalEvent::PeerExpired { peer } => {
                vec![("peer", Str(peer.clone()))]
            }
            JournalEvent::StateEvicted { structure, evicted } => vec![
                ("structure", Str(structure.clone())),
                ("evicted", Num(*evicted)),
            ],
            JournalEvent::FaultsInjected {
                link,
                dropped,
                duplicated,
                corrupted,
                delayed,
            } => vec![
                ("link", Str(link.clone())),
                ("dropped", Num(*dropped)),
                ("duplicated", Num(*duplicated)),
                ("corrupted", Num(*corrupted)),
                ("delayed", Num(*delayed)),
            ],
            JournalEvent::DiagCaptured { trigger, bundle } => vec![
                ("trigger", Str(trigger.clone())),
                ("bundle", Str(bundle.clone())),
            ],
            JournalEvent::Marker { kind, detail } => {
                vec![("kind", Str(kind.clone())), ("detail", Str(detail.clone()))]
            }
        }
    }

    /// Stable type tag used by the JSON and Prometheus exporters.
    pub fn kind(&self) -> &'static str {
        match self {
            JournalEvent::ModuleActivated { .. } => "module_activated",
            JournalEvent::ModuleDeactivated { .. } => "module_deactivated",
            JournalEvent::AlertRaised { .. } => "alert_raised",
            JournalEvent::SyncSent { .. } => "sync_sent",
            JournalEvent::SyncAccepted { .. } => "sync_accepted",
            JournalEvent::SyncRejected { .. } => "sync_rejected",
            JournalEvent::SyncDuplicate { .. } => "sync_duplicate",
            JournalEvent::PeerHealthChanged { .. } => "peer_health_changed",
            JournalEvent::DegradedEntered { .. } => "degraded_entered",
            JournalEvent::DegradedExited { .. } => "degraded_exited",
            JournalEvent::ModulePanicked { .. } => "module_panicked",
            JournalEvent::ModuleQuarantined { .. } => "module_quarantined",
            JournalEvent::ModuleProbation { .. } => "module_probation",
            JournalEvent::LoadShedEngaged { .. } => "load_shed_engaged",
            JournalEvent::LoadShedReleased { .. } => "load_shed_released",
            JournalEvent::SloBreached { .. } => "slo_breached",
            JournalEvent::SloRecovered { .. } => "slo_recovered",
            JournalEvent::PeerExpired { .. } => "peer_expired",
            JournalEvent::StateEvicted { .. } => "state_evicted",
            JournalEvent::FaultsInjected { .. } => "faults_injected",
            JournalEvent::DiagCaptured { .. } => "diag_captured",
            JournalEvent::Marker { .. } => "marker",
        }
    }
}

/// A journal entry: an event plus its order and capture time.
#[derive(Clone, Debug, PartialEq, Eq, serde::Serialize, serde::Deserialize)]
pub struct JournalRecord {
    /// Monotonic sequence number, never reused even after eviction.
    pub seq: u64,
    /// Capture-clock timestamp in microseconds (simulation or trace
    /// time, supplied by the caller — not wall clock, so runs replay
    /// deterministically).
    pub time_us: u64,
    pub event: JournalEvent,
}

struct JournalState {
    records: VecDeque<JournalRecord>,
    next_seq: u64,
    dropped: u64,
    /// Most records ever retained at once (capacity saturation signal).
    high_water: usize,
}

/// Registry instruments mirroring the ring's eviction behaviour, so a
/// scrape sees drops without needing a full journal snapshot.
#[derive(Clone)]
struct JournalInstruments {
    dropped: Arc<Counter>,
    high_water: Arc<Gauge>,
}

/// Bounded ring of [`JournalRecord`]s.
pub struct Journal {
    state: Mutex<JournalState>,
    capacity: usize,
    instruments: Mutex<Option<JournalInstruments>>,
}

impl Default for Journal {
    fn default() -> Self {
        Self::new(DEFAULT_JOURNAL_CAPACITY)
    }
}

impl Journal {
    /// An empty journal retaining up to `capacity` records.
    pub fn new(capacity: usize) -> Self {
        Journal {
            state: Mutex::new(JournalState {
                records: VecDeque::with_capacity(capacity.min(DEFAULT_JOURNAL_CAPACITY)),
                next_seq: 0,
                dropped: 0,
                high_water: 0,
            }),
            capacity: capacity.max(1),
            instruments: Mutex::new(None),
        }
    }

    /// Mirror eviction accounting into registry instruments: `dropped`
    /// counts every record the ring overwrote, `high_water` tracks the
    /// most records ever retained at once. Called by the registry that
    /// owns this journal.
    pub(crate) fn attach_instruments(&self, dropped: Arc<Counter>, high_water: Arc<Gauge>) {
        *self.instruments.lock() = Some(JournalInstruments {
            dropped,
            high_water,
        });
    }

    /// Append an event stamped with `time_us`.
    pub fn record(&self, time_us: u64, event: JournalEvent) {
        let mut state = self.state.lock();
        let seq = state.next_seq;
        state.next_seq += 1;
        let mut evicted = false;
        if state.records.len() == self.capacity {
            state.records.pop_front();
            state.dropped += 1;
            evicted = true;
        }
        state.records.push_back(JournalRecord {
            seq,
            time_us,
            event,
        });
        let len = state.records.len();
        let grew = len > state.high_water;
        if grew {
            state.high_water = len;
        }
        drop(state);
        if evicted || grew {
            if let Some(instruments) = self.instruments.lock().as_ref() {
                if evicted {
                    instruments.dropped.inc();
                }
                if grew {
                    instruments.high_water.set(len as u64);
                }
            }
        }
    }

    /// Records currently retained.
    pub fn len(&self) -> usize {
        self.state.lock().records.len()
    }

    /// The next sequence number to be assigned — the count of records
    /// ever appended, retained or not.
    pub fn next_seq(&self) -> u64 {
        self.state.lock().next_seq
    }

    /// Whether nothing has been retained.
    pub fn is_empty(&self) -> bool {
        self.len() == 0
    }

    /// Records evicted so far to stay within capacity.
    pub fn dropped(&self) -> u64 {
        self.state.lock().dropped
    }

    /// `(next_seq, len, dropped)` read together — what a flight-recorder
    /// frame stamps.
    pub(crate) fn marks(&self) -> (u64, u64, u64) {
        let state = self.state.lock();
        (state.next_seq, state.records.len() as u64, state.dropped)
    }

    /// Most records ever retained at once.
    pub fn high_water(&self) -> usize {
        self.state.lock().high_water
    }

    /// Point-in-time copy of the retained records plus the eviction
    /// count.
    pub fn snapshot(&self) -> JournalSnapshot {
        let state = self.state.lock();
        JournalSnapshot {
            dropped: state.dropped,
            records: state.records.iter().cloned().collect(),
        }
    }
}

/// An immutable copy of the journal contents.
#[derive(Clone, Debug, Default, PartialEq, Eq, serde::Serialize, serde::Deserialize)]
pub struct JournalSnapshot {
    /// Records evicted to stay within capacity.
    pub dropped: u64,
    /// Retained records in append order.
    pub records: Vec<JournalRecord>,
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn bounded_with_eviction_accounting() {
        let j = Journal::new(3);
        for i in 0..5u64 {
            j.record(
                i,
                JournalEvent::Marker {
                    kind: "t".into(),
                    detail: i.to_string(),
                },
            );
        }
        let snap = j.snapshot();
        assert_eq!(snap.records.len(), 3);
        assert_eq!(snap.dropped, 2);
        assert_eq!(
            snap.records.iter().map(|r| r.seq).collect::<Vec<_>>(),
            vec![2, 3, 4],
            "oldest evicted first, seq numbers stable"
        );
        assert_eq!(j.dropped(), 2);
        assert_eq!(j.high_water(), 3);
    }

    #[test]
    fn attached_instruments_mirror_evictions() {
        let dropped = Arc::new(Counter::default());
        let high_water = Arc::new(Gauge::default());
        let j = Journal::new(2);
        j.attach_instruments(Arc::clone(&dropped), Arc::clone(&high_water));
        for i in 0..5u64 {
            j.record(
                i,
                JournalEvent::Marker {
                    kind: "t".into(),
                    detail: String::new(),
                },
            );
        }
        assert_eq!(dropped.get(), 3, "3 of 5 records were overwritten");
        assert_eq!(high_water.get(), 2, "ring filled to capacity");
    }
}
