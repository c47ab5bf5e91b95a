//! What a node's tick does besides ticking its modules: the audit of
//! bounded-state evictions, the ops refresh, the flight recorder's
//! sample, and the trigger edges that freeze a `kalis.diag.v1` bundle.
//! [`Housekeeping`] holds the state of the audit and the recorder;
//! [`Kalis::housekeep`] runs the lot in the one order the journal
//! depends on.

use std::sync::Arc;

use kalis_packets::Timestamp;
use kalis_telemetry::{
    config_fingerprint, names, Counter, FlightRecorder, JournalEvent, Telemetry, Trigger,
    DEFAULT_JOURNAL_TAIL, DEFAULT_RING_DEPTH, DEFAULT_SNAPSHOT_INTERVAL_SECS, TRIGGER_MASK_ALL,
};

use crate::knowledge::KnowValue;

use super::build::{DIAG_INTERVAL_KEY, DIAG_RING_DEPTH_KEY, DIAG_TRIGGER_MASK_KEY};
use super::ops::ReadinessKey;
use super::Kalis;

/// How many captured diagnostics bundles a node retains (and serves
/// via `/debug/diag`); older bundles are dropped first.
pub const DIAG_BUNDLE_RETENTION: usize = 4;

/// The flight recorder the `Diag.*` a-priori knowggets ask for, each
/// looked up through `numeric_knowgget`. `Diag.RingDepth = 0`
/// legitimately *disables* the recorder, so depth and mask accept any
/// non-negative number where the interval wants a positive one.
pub(super) fn recorder_from(numeric_knowgget: impl Fn(&str) -> Option<f64>) -> FlightRecorder {
    FlightRecorder::new(
        numeric_knowgget(DIAG_RING_DEPTH_KEY)
            .filter(|depth| *depth >= 0.0)
            .map_or(DEFAULT_RING_DEPTH, |depth| depth as usize),
        numeric_knowgget(DIAG_INTERVAL_KEY)
            .filter(|secs| *secs > 0.0)
            .map_or(DEFAULT_SNAPSHOT_INTERVAL_SECS, |secs| secs as u64)
            .saturating_mul(1_000_000),
        numeric_knowgget(DIAG_TRIGGER_MASK_KEY)
            .filter(|mask| *mask >= 0.0)
            .map_or(TRIGGER_MASK_ALL, |mask| mask as u32),
    )
}

/// The way back: the recorder's knobs ride a recommended configuration
/// when tuned away from the defaults, so a node rebuilt from it keeps
/// the same diagnostics-capture posture.
pub(super) fn recommend_diag_knobs(
    recorder: &FlightRecorder,
    knowggets: &mut Vec<(String, KnowValue)>,
) {
    if recorder.depth() != DEFAULT_RING_DEPTH {
        knowggets.push((
            DIAG_RING_DEPTH_KEY.to_owned(),
            KnowValue::Int(recorder.depth() as i64),
        ));
    }
    let interval_secs = recorder.interval_us() / 1_000_000;
    if interval_secs != DEFAULT_SNAPSHOT_INTERVAL_SECS {
        knowggets.push((
            DIAG_INTERVAL_KEY.to_owned(),
            KnowValue::Int(interval_secs as i64),
        ));
    }
    if recorder.trigger_mask() != TRIGGER_MASK_ALL {
        knowggets.push((
            DIAG_TRIGGER_MASK_KEY.to_owned(),
            KnowValue::Int(i64::from(recorder.trigger_mask())),
        ));
    }
}

/// Last-observed values of every trigger signal, so the recorder fires
/// captures on *edges* (a readiness flip, a rising quarantine count)
/// rather than re-capturing on every tick a condition persists.
#[derive(Debug, Default)]
struct DiagEdges {
    readiness: ReadinessKey,
    quarantined: usize,
    degraded: bool,
    evictions: u64,
    /// Whether the previous tick saw evictions advance — the
    /// state-exhaustion trigger fires on the *rising edge* of eviction
    /// activity, not on every tick of a sustained spray.
    evicting: bool,
    slo_breached: bool,
}

/// The tick's node-side state.
pub(super) struct Housekeeping {
    /// Last-journaled cumulative eviction count per Module Manager slot,
    /// in load order: the delta latch behind the aggregated
    /// `state_evicted` journal records emitted at tick cadence. Per
    /// slot, not per name — two slots may load one module.
    journaled_evictions: Vec<u64>,
    /// The counts those are compared with: what each slot had evicted
    /// when the tick last read the slot table.
    seen_evictions: Vec<u64>,
    /// The same latch for the Knowledge Base's entity index.
    journaled_kb_evictions: u64,
    /// The flight recorder: bounded telemetry history plus capture
    /// bookkeeping, sampled at tick cadence.
    pub(super) recorder: FlightRecorder,
    /// Trigger edge detection state for the recorder.
    edges: DiagEdges,
    /// Retained diagnostics bundles, oldest first: `(bundle id,
    /// kalis.diag.v1 JSON)`, bounded to [`DIAG_BUNDLE_RETENTION`].
    bundles: Vec<(String, String)>,
    captures: Arc<Counter>,
}

impl Housekeeping {
    pub(super) fn new(recorder: FlightRecorder, tele: &Telemetry) -> Self {
        Housekeeping {
            journaled_evictions: Vec::new(),
            seen_evictions: Vec::new(),
            journaled_kb_evictions: 0,
            recorder,
            edges: DiagEdges::default(),
            bundles: Vec::new(),
            captures: tele.counter(names::DIAG_CAPTURES),
        }
    }
}

impl Kalis {
    /// Everything a tick does once its modules have ticked, in the one
    /// order its journal records depend on:
    ///
    /// 1. one look at the slot table, before the dispatch is settled
    ///    (reconfiguration may reset a module's state): the modules'
    ///    state bytes and their eviction counts;
    /// 2. the dispatch settled like a packet's — reconfiguration, alert
    ///    post-processing, state accounting;
    /// 3. the evictions those counts show, journaled;
    /// 4. the ops refresh, which latches the SLO verdict;
    /// 5. the flight recorder, comparing trigger edges against all of
    ///    the above.
    pub(super) fn housekeep(&mut self, now: Timestamp, force_ops: bool) {
        let seen = &mut self.housekeeping.seen_evictions;
        let modules_state = self.manager.state_and_evictions(seen);
        self.after_dispatch(now, modules_state);
        let evictions = self.journal_state_evictions(now);
        self.ops_refresh(now, force_ops);
        self.diag_tick(now, evictions);
    }

    /// Diagnostics bundles retained by the flight recorder, oldest
    /// first: `(bundle id, kalis.diag.v1 JSON)`. Bounded to
    /// [`DIAG_BUNDLE_RETENTION`]; also served via `/debug/diag` when
    /// the ops surface is enabled.
    pub fn diag_bundles(&self) -> &[(String, String)] {
        &self.housekeeping.bundles
    }

    /// The trigger behind the flight recorder's most recent capture.
    pub fn diag_last_trigger(&self) -> Option<&'static str> {
        (self.housekeeping.recorder.last_trigger()).map(Trigger::name)
    }

    /// Journal aggregated bounded-state evictions: one `state_evicted`
    /// record per structure (`module:<name>` per slot as last read, then
    /// `kb`) whose cumulative count moved since the last tick. Aggregation is
    /// deliberate — per-eviction records would let a state-exhaustion
    /// adversary flood the journal at spray rate. Returns the cumulative
    /// evictions across every budgeted structure, the state-exhaustion
    /// trigger signal.
    fn journal_state_evictions(&mut self, now: Timestamp) -> u64 {
        let journal = self.tele.journal();
        let audit = &mut self.housekeeping;
        let mut total = 0;
        (audit.journaled_evictions).resize(audit.seen_evictions.len(), 0);
        let slots = audit
            .seen_evictions
            .iter()
            .zip(&mut audit.journaled_evictions);
        for (slot, (&evicted, journaled)) in slots.enumerate() {
            total += evicted;
            if evicted > 0 && std::mem::replace(journaled, evicted) != evicted {
                let structure = format!("module:{}", self.manager.name_of(slot));
                journal.record(
                    now.as_micros(),
                    JournalEvent::StateEvicted { structure, evicted },
                );
            }
        }
        let evicted = self.kb.entity_evictions();
        if evicted > 0 && std::mem::replace(&mut audit.journaled_kb_evictions, evicted) != evicted {
            let structure = "kb".to_owned();
            journal.record(
                now.as_micros(),
                JournalEvent::StateEvicted { structure, evicted },
            );
        }
        total + evicted
    }

    /// One flight-recorder pass at tick cadence: sample the telemetry
    /// surface into the ring, then compare every trigger signal against
    /// its last-seen value and freeze a `kalis.diag.v1` bundle on the
    /// first armed edge. Runs on the virtual clock only — captures are
    /// deterministic for a deterministic run. `evictions` is what
    /// [`Kalis::journal_state_evictions`] returned this tick.
    fn diag_tick(&mut self, now: Timestamp, evictions: u64) {
        if !self.housekeeping.recorder.enabled() {
            return;
        }
        let now_us = now.as_micros();
        let readiness = self.readiness_key();
        let quarantined = self.manager.quarantined_count();
        let degraded = self.sync.engine.degraded();
        let slo_breached = (self.ops.as_ref())
            .and_then(|ops| ops.slo.as_ref())
            .is_some_and(|tracker| tracker.breached);
        let state = &mut self.housekeeping;
        state.recorder.maybe_sample(now_us, &self.tele);
        let last = &state.edges;
        let evicting = evictions > last.evictions;
        let edges = [
            (Trigger::ReadinessFlip, readiness != last.readiness),
            (Trigger::SloBreached, slo_breached && !last.slo_breached),
            (Trigger::ModuleQuarantined, quarantined > last.quarantined),
            (Trigger::DegradedSync, degraded && !last.degraded),
            (Trigger::StateExhaustion, evicting && !last.evicting),
        ];
        let fired = edges
            .iter()
            .find(|(trigger, edge)| *edge && state.recorder.armed(*trigger))
            .map(|(trigger, _)| *trigger);
        state.edges = DiagEdges {
            readiness,
            quarantined,
            degraded,
            evictions,
            evicting,
            slo_breached,
        };
        if let Some(trigger) = fired {
            self.diag_capture(trigger, now_us);
        }
    }

    /// Freeze the ring plus the journal tail, trace trees, and config
    /// fingerprint into a retained bundle, journal the capture, and
    /// republish the `/debug/diag` surface.
    fn diag_capture(&mut self, trigger: Trigger, now_us: u64) {
        let fingerprint = config_fingerprint(&self.recommend_config().to_string());
        let traces = self.tracer.enabled().then(|| self.tracer.to_json());
        let state = &mut self.housekeeping;
        let bundle = state.recorder.capture(
            trigger,
            now_us,
            &self.tele,
            self.id.as_str(),
            &fingerprint,
            traces.as_deref(),
            DEFAULT_JOURNAL_TAIL,
        );
        self.tele.journal().record(
            now_us,
            JournalEvent::DiagCaptured {
                trigger: trigger.name().to_owned(),
                bundle: bundle.bundle_id.clone(),
            },
        );
        state.captures.inc();
        (state.bundles).push((bundle.bundle_id.clone(), bundle.to_json()));
        if state.bundles.len() > DIAG_BUNDLE_RETENTION {
            state.bundles.remove(0);
        }
        if let Some(ops) = &self.ops {
            ops.shared.publish_diag(&state.bundles);
        }
    }
}

#[cfg(test)]
mod tests {
    use std::sync::atomic::{AtomicU64, Ordering};

    use kalis_packets::CapturedPacket;

    use super::*;
    use crate::modules::{Module, ModuleCtx, ModuleDescriptor};
    use crate::KalisId;

    /// A module that has evicted whatever its test says it has.
    struct Evicting(Arc<AtomicU64>);

    impl Module for Evicting {
        fn descriptor(&self) -> ModuleDescriptor {
            ModuleDescriptor::sensing("TwinModule")
        }
        fn on_packet(&mut self, _ctx: &mut ModuleCtx<'_>, _packet: &CapturedPacket) {}
        fn evictions(&self) -> u64 {
            self.0.load(Ordering::Relaxed)
        }
    }

    /// The `state_evicted` records journaled so far, as `(time_us, structure, evicted)`.
    fn audit(node: &Kalis) -> Vec<(u64, String, u64)> {
        let journal = node.telemetry().journal().snapshot();
        (journal.records.into_iter())
            .filter_map(|record| match record.event {
                JournalEvent::StateEvicted { structure, evicted } => {
                    Some((record.time_us, structure, evicted))
                }
                _ => None,
            })
            .collect()
    }

    #[test]
    fn two_slots_of_one_name_are_audited_apart() {
        let (first, second) = (Arc::new(AtomicU64::new(0)), Arc::new(AtomicU64::new(0)));
        let mut node = Kalis::builder(KalisId::new("K1"))
            .with_module(Box::new(Evicting(Arc::clone(&first))), true)
            .with_module(Box::new(Evicting(Arc::clone(&second))), true)
            .build();
        let twin =
            |at: u64, evicted: u64| (at * 1_000_000, "module:TwinModule".to_owned(), evicted);
        node.tick(Timestamp::from_secs(1));
        assert_eq!(audit(&node), []);
        // Both evict, different amounts: one record per slot, in load
        // order.
        first.store(3, Ordering::Relaxed);
        second.store(5, Ordering::Relaxed);
        node.tick(Timestamp::from_secs(2));
        assert_eq!(audit(&node), [twin(2, 3), twin(2, 5)]);
        // Neither moved: nothing, tick after tick. (Latched by name, each
        // slot found the other's count and both were journaled again.)
        node.tick(Timestamp::from_secs(3));
        node.tick(Timestamp::from_secs(4));
        assert_eq!(audit(&node).len(), 2);
        // One moves: one record, its own.
        second.store(6, Ordering::Relaxed);
        node.tick(Timestamp::from_secs(5));
        assert_eq!(audit(&node)[2..], [twin(5, 6)]);
        first.store(6, Ordering::Relaxed);
        node.tick(Timestamp::from_secs(6));
        assert_eq!(audit(&node)[3..], [twin(6, 6)]);
    }
}
