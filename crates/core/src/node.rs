//! The top-level Kalis node: wires the Communication System, Data Store,
//! Knowledge Base, Module Manager, response engine, and collective
//! synchronization into the paper's Fig. 4 architecture.
//!
//! This file holds the node and its per-packet path — ingest, dispatch,
//! the tick, reconfiguration, alert post-processing. Each other box
//! lives beside it and owns its state: `build` (the builder, the
//! node-level config keys, the recommended configuration), `sync` (both
//! knowledge-sharing endpoints), `ops` (readiness, SLO, `/status`),
//! `provenance` (why an alert was raised), and `housekeeping` (what a
//! tick does besides ticking modules).

use std::sync::Arc;
use std::time::Duration;

use kalis_packets::{CapturedPacket, Timestamp};

use kalis_telemetry::{
    metric_name, names, AlertProvenance, Counter, Gauge, Histogram, JournalEvent, Telemetry,
    TraceContext, Tracer,
};

use crate::alert::{Alert, AttackKind, Severity};
use crate::bus::{EventBus, KalisEvent};
use crate::capture::PacketSource;
use crate::error::KalisError;
use crate::id::KalisId;
use crate::knowledge::{KnowValue, KnowledgeBase};
use crate::metrics::ResourceMeter;
use crate::modules::{ModuleCtx, ModuleManager, OverloadController, ShedMode, SupervisorConfig};
use crate::response::ResponseEngine;
use crate::store::DataStore;

mod build;
mod housekeeping;
mod ops;
mod provenance;
mod sync;

pub use build::{system_contract, KalisBuilder};
pub use sync::{SyncPoll, SyncReceipt};

use housekeeping::Housekeeping;
use ops::OpsRuntime;
use sync::SyncLink;

/// How often [`Kalis::process_source`] injects ticks between packets.
const TICK_EVERY: Duration = Duration::from_secs(1);

/// Node-level instrument handles, cached once at build time so the
/// per-packet path never touches the registry lock.
struct NodeStats {
    packets: Arc<Counter>,
    ticks: Arc<Counter>,
    pipeline: Arc<Histogram>,
    work: Arc<Counter>,
    peak_state: Arc<Gauge>,
    alerts: Arc<Counter>,
    /// `alerts.by[kind=…,severity=…]` handles, each looked up in the
    /// registry the first time such an alert is raised.
    alerts_by: Vec<((AttackKind, Severity), Arc<Counter>)>,
    trace_sampled: Arc<Counter>,
}

impl NodeStats {
    fn new(registry: &Telemetry) -> Self {
        NodeStats {
            packets: registry.counter(names::PACKETS_INGESTED),
            ticks: registry.counter(names::TICKS),
            pipeline: registry.histogram(names::PIPELINE),
            work: registry.counter(names::WORK_UNITS),
            peak_state: registry.gauge(names::PEAK_STATE_BYTES),
            alerts: registry.counter(names::ALERTS),
            alerts_by: Vec::new(),
            trace_sampled: registry.counter(names::TRACE_SAMPLED),
        }
    }
}

/// A Kalis IDS node.
///
/// See the [crate docs](crate) for the architecture overview and the
/// builder ([`Kalis::builder`]) for construction options.
pub struct Kalis {
    id: KalisId,
    kb: KnowledgeBase,
    store: DataStore,
    manager: ModuleManager,
    alerts: Vec<Alert>,
    pending_alert_cursor: usize,
    /// Provenance records parallel to `alerts` (one per alert, assembled
    /// at emission time).
    provenance: Vec<AlertProvenance>,
    tracer: Arc<Tracer>,
    /// Monotonic ingest counter seeding deterministic trace ids.
    ingest_seq: u64,
    /// Packets ingested, numbering each for the `pipeline.ingest`
    /// sample ([`Kalis::ingest_timed`]).
    packets: u64,
    /// The trace context of the packet currently being dispatched
    /// (`none` outside ingest).
    current_trace: TraceContext,
    /// Ingest sequence of the packet currently being dispatched.
    current_packet_seq: Option<u64>,
    response: ResponseEngine,
    last_tick: Option<Timestamp>,
    bus: EventBus,
    overload: OverloadController,
    tele: Arc<Telemetry>,
    stats: NodeStats,
    /// The sync engine and its instruments.
    sync: SyncLink,
    /// The tick's own state: eviction audit latches, the flight
    /// recorder, and the bundles it froze.
    housekeeping: Housekeeping,
    ops: Option<OpsRuntime>,
    /// The reference node of the activation differential test:
    /// re-evaluates every slot after every dispatch.
    #[cfg(test)]
    reference: bool,
}

impl Kalis {
    /// Start building a node.
    pub fn builder(id: KalisId) -> KalisBuilder {
        KalisBuilder::new(id)
    }

    /// This node's identifier.
    pub fn id(&self) -> &KalisId {
        &self.id
    }

    /// Ingest one captured packet: store it, route it to the active
    /// modules under the overload controller's current shed mode, apply
    /// knowledge changes to module activation, and run countermeasures
    /// for any new alerts.
    ///
    /// Every dispatch is supervised: module panics are caught and
    /// isolated, crash-looping modules are quarantined, and under a
    /// sustained ingest burst unpinned detection modules see sampled
    /// dispatch (heavyweight anomaly modules first, pinned signature
    /// modules never) instead of the node falling behind the capture.
    pub fn ingest(&mut self, packet: CapturedPacket) {
        self.packets = self.packets.wrapping_add(1);
        // kalis-lint: allow(KL302): the whole-ingest latency histogram is wall-clock by design
        let started = Kalis::ingest_timed(self.packets).then(std::time::Instant::now);
        self.stats.packets.inc();
        let now = packet.timestamp;
        self.ingest_seq = self.ingest_seq.wrapping_add(1);
        // Tracing-off fast path: one relaxed atomic load, nothing else.
        if self.tracer.enabled() {
            let (seq, medium, bytes) = (self.ingest_seq, packet.medium, packet.raw.len());
            let detail = || format!("seq={seq} medium={medium:?} bytes={bytes}");
            self.open_trace(now, "ingest", detail);
        }
        self.maybe_tick(now);
        let shed = self.observe_arrival(now);
        self.store.push(packet);
        self.dispatch_newest(now, shed);
        self.after_dispatch(now, self.manager.state_bytes());
        self.close_trace();
        self.current_packet_seq = None;
        if let Some(started) = started {
            (self.stats.pipeline).record(started.elapsed().as_nanos() as u64);
        }
    }

    /// Whether the `n`th packet a node ingests (from 1) is timed into
    /// the `pipeline.ingest` histogram: one packet in eight, the ones
    /// whose number's Fibonacci hash has its top three bits clear. The
    /// untimed seven read no clock. A hash, not `n % 8`, so traffic with
    /// a tick every eighth packet cannot keep every tick-bearing packet
    /// in, or out of, the sample.
    pub fn ingest_timed(n: u64) -> bool {
        n.wrapping_mul(0x9E37_79B9_7F4A_7C15) >> 61 == 0
    }

    /// Open a root span for work that arrives with no causal context — a
    /// packet, or a tick outside one. Housekeeping alerts (e.g. the
    /// collaborative wormhole verdict, raised by correlation between
    /// packets) deserve a causal trace too. Knowledge written until
    /// [`Kalis::close_trace`] inherits it.
    fn open_trace(&mut self, now: Timestamp, name: &str, detail: impl FnOnce() -> String) {
        let ctx = self.tracer.root(self.id.as_str(), self.ingest_seq);
        if ctx.sampled {
            self.stats.trace_sampled.inc();
            let node = self.id.as_str();
            (self.tracer).record(&ctx, 0, now.as_micros(), name, node, detail());
            self.kb.set_trace(ctx.trace_id, ctx.span_id);
        }
        self.current_trace = ctx;
    }

    /// Close the span [`Kalis::open_trace`] opened.
    fn close_trace(&mut self) {
        if self.current_trace.sampled {
            self.kb.clear_trace();
        }
        self.current_trace = TraceContext::none();
    }

    /// Route the packet just stored to the active modules, borrowed from
    /// the window: store, ops, manager, KB and alerts are disjoint fields.
    fn dispatch_newest(&mut self, now: Timestamp, shed: ShedMode) {
        // A window configured to hold nothing leaves nothing to dispatch.
        let Some(packet) = self.store.newest() else {
            return;
        };
        if let Some(ops) = &mut self.ops {
            if ops.started_us.is_none() {
                ops.started_us = Some(now.as_micros());
            }
            // Hot-entity accounting: one sketch observation per packet,
            // keyed by the network source (falling back to the link
            // transmitter for captures without one).
            if let Some(entity) = packet
                .decoded()
                .and_then(|p| p.net_src().or_else(|| p.transmitter()))
            {
                ops.sketch.observe(&entity);
            }
        }
        self.current_packet_seq = Some(self.ingest_seq);
        let mut ctx = ModuleCtx {
            now,
            kb: &mut self.kb,
            alerts: &mut self.alerts,
        };
        let outcome = self.manager.dispatch_packet_shed(&mut ctx, packet, shed);
        self.overload.episode_skipped += outcome.modules_shed;
        self.stats.work.add(outcome.work_units());
        if self.current_trace.sampled {
            let dispatch = self.current_trace.child(0);
            self.tracer.record(
                &dispatch,
                self.current_trace.span_id,
                now.as_micros(),
                "dispatch",
                self.id.as_str(),
                format!("shed={shed:?} work={}", outcome.work_units()),
            );
        }
    }

    /// [`Kalis::ingest`] with backpressure signalling: the packet is
    /// always processed (the shed policy bounds the per-packet work, so
    /// nothing is dropped silently), but while the overload controller is
    /// in severe shedding the call reports
    /// [`KalisError::PipelineOverload`] so callers that *can* slow the
    /// capture down know to do so.
    ///
    /// # Errors
    ///
    /// [`KalisError::PipelineOverload`] while the observed arrival rate
    /// holds at ≥ 2× the configured `Supervisor.BurstPps` capacity.
    pub fn try_ingest(&mut self, packet: CapturedPacket) -> Result<(), KalisError> {
        self.ingest(packet);
        if self.overload.mode() == ShedMode::All {
            return Err(KalisError::PipelineOverload {
                rate: self.overload.rate(),
                capacity: self.manager.supervisor_config().burst_pps,
            });
        }
        Ok(())
    }

    /// Feed one arrival to the overload controller and journal shedding
    /// episode transitions. Returns the shed mode to dispatch under.
    fn observe_arrival(&mut self, now: Timestamp) -> ShedMode {
        let was_shedding = self.overload.shedding();
        let mode = self.overload.observe(now, self.manager.supervisor_config());
        let shedding = mode != ShedMode::None;
        if shedding != was_shedding {
            let event = if shedding {
                JournalEvent::LoadShedEngaged {
                    rate: self.overload.rate(),
                    capacity: self.manager.supervisor_config().burst_pps,
                }
            } else {
                JournalEvent::LoadShedReleased {
                    skipped: self.overload.episode_skipped,
                }
            };
            self.tele.journal().record(now.as_micros(), event);
            if !shedding {
                self.overload.episode_skipped = 0;
            }
        }
        mode
    }

    /// Advance time without a packet: runs module housekeeping and
    /// reconfiguration.
    pub fn tick(&mut self, now: Timestamp) {
        self.tick_inner(now, true);
    }

    /// The tick body. Explicit [`Kalis::tick`] calls force a full ops
    /// report render; the packet-driven cadence (`maybe_tick`) leaves
    /// rendering to the wall-clock throttle.
    fn tick_inner(&mut self, now: Timestamp, force_ops: bool) {
        self.stats.ticks.inc();
        self.last_tick = Some(now);
        // Ticks nested in `ingest` inherit the packet's trace.
        let own_trace = !self.current_trace.is_some() && self.tracer.enabled();
        if own_trace {
            self.ingest_seq = self.ingest_seq.wrapping_add(1);
            self.open_trace(now, "tick", String::new);
        }
        let mut ctx = ModuleCtx {
            now,
            kb: &mut self.kb,
            alerts: &mut self.alerts,
        };
        let outcome = self.manager.dispatch_tick(&mut ctx);
        self.stats.work.add(outcome.work_units());
        self.response.expire(now);
        self.housekeep(now, force_ops);
        if own_trace {
            self.close_trace();
        }
    }

    fn maybe_tick(&mut self, now: Timestamp) {
        let due = match self.last_tick {
            None => true,
            Some(last) => now.saturating_since(last) >= TICK_EVERY,
        };
        if due {
            self.tick_inner(now, false);
        }
    }

    /// Whether a reconfiguration pass is due: the Knowledge Base recorded
    /// a change, or the supervisor released a module from quarantine.
    fn reconfigure_due(&self) -> bool {
        #[cfg(test)]
        if self.reference {
            return true; // after every dispatch
        }
        self.kb.batch_recorded()
    }

    /// Close the batch of knowledge changes: publish the changes a bus
    /// subscriber is owed, let the Module Manager re-evaluate the slots
    /// the batch concerns, and publish what it flipped.
    fn reconfigure_on_changes(&mut self, now: Timestamp) {
        #[cfg(test)]
        if self.reference {
            return differential::reconfigure_on_changes(self, now);
        }
        for change in self.kb.drain_changes() {
            self.bus.publish(KalisEvent::KnowledgeChanged {
                key: change.key,
                value: change.value,
                removed: change.removed,
                trace_id: change.trace_id,
            });
        }
        let (activated, deactivated) =
            (self.manager).reconfigure_pending(&mut self.kb, now.as_micros());
        if activated + deactivated > 0 {
            self.bus.publish(KalisEvent::ModulesReconfigured {
                time: now,
                activated,
                deactivated,
            });
        }
    }

    /// What follows every dispatch, packet or tick: reconfiguration,
    /// alert post-processing, state accounting. `modules_state`: the
    /// Module Manager's `state_bytes()` as the dispatch left it.
    fn after_dispatch(&mut self, now: Timestamp, modules_state: usize) {
        if self.reconfigure_due() {
            self.reconfigure_on_changes(now);
        }
        // Stamp the causal trace on freshly raised alerts *before* the
        // bus/journal clone below, and assemble each one's provenance
        // record while the triggering state is still in place.
        if self.current_trace.sampled {
            for alert in &mut self.alerts[self.pending_alert_cursor..] {
                alert.trace_id = self.current_trace.trace_id;
            }
        }
        for index in self.pending_alert_cursor..self.alerts.len() {
            let record = self.assemble_provenance(index, now.as_micros());
            if self.current_trace.sampled {
                let span = self.current_trace.child(1 + index as u32);
                self.tracer.record(
                    &span,
                    self.current_trace.span_id,
                    now.as_micros(),
                    format!("alert:{}", record.attack),
                    self.id.as_str(),
                    format!("module={} victim={}", record.module, record.victim),
                );
            }
            self.provenance.push(record);
        }
        for index in self.pending_alert_cursor..self.alerts.len() {
            let alert = &self.alerts[index];
            self.stats.alerts.inc();
            let by = (alert.attack, alert.severity);
            let kind = alert.attack.to_string();
            let severity = alert.severity.to_string();
            let held = self.stats.alerts_by.iter().position(|(key, _)| *key == by);
            let held = held.unwrap_or_else(|| {
                let labels = [("kind", kind.as_str()), ("severity", severity.as_str())];
                let counter = self.tele.counter(&metric_name(names::ALERTS_BY, &labels));
                self.stats.alerts_by.push((by, counter));
                self.stats.alerts_by.len() - 1
            });
            self.stats.alerts_by[held].1.inc();
            self.tele.journal().record(
                alert.time.as_micros(),
                JournalEvent::AlertRaised {
                    kind,
                    severity,
                    module: alert.module.clone(),
                },
            );
            self.response.apply(alert);
            if self.bus.subscriber_count() > 0 {
                self.bus.publish(KalisEvent::AlertRaised(alert.clone()));
            }
        }
        self.pending_alert_cursor = self.alerts.len();
        let state = self.store.state_bytes() + self.kb.state_bytes() + modules_state;
        self.stats.peak_state.set_max(state as u64);
        self.publish_readiness_flip(now);
    }

    /// Subscribe to this node's event stream (alerts, knowledge changes,
    /// module reconfigurations) — the integration point for dashboards,
    /// SIEM uploaders, and notification mechanisms (paper §V).
    ///
    /// The receiver hears of everything that happens after this call.
    /// Knowledge-change events are built only from the first call on: a
    /// node nobody listens to records its changes without them.
    pub fn subscribe(&mut self) -> std::sync::mpsc::Receiver<KalisEvent> {
        self.kb.listen();
        self.bus.subscribe()
    }

    /// Drain a packet source to exhaustion, injecting periodic ticks
    /// between packets (1 s cadence on the capture clock).
    pub fn process_source(&mut self, source: &mut dyn PacketSource) {
        while let Some(packet) = source.poll() {
            self.ingest(packet);
        }
    }

    /// Alerts raised so far (not yet drained).
    pub fn alerts(&self) -> &[Alert] {
        &self.alerts
    }

    /// Remove and return all alerts. The provenance records assembled
    /// for them are discarded with them — export what you need (via
    /// [`Kalis::explain_alert`]) first.
    pub fn drain_alerts(&mut self) -> Vec<Alert> {
        self.pending_alert_cursor = 0;
        self.provenance.clear();
        std::mem::take(&mut self.alerts)
    }

    /// The causal tracer: sampling control, the bounded trace buffer,
    /// and trace JSON export for `kalis-trace`.
    pub fn tracer(&self) -> &Arc<Tracer> {
        &self.tracer
    }

    /// The Knowledge Base (read view).
    pub fn knowledge(&self) -> &KnowledgeBase {
        &self.kb
    }

    /// The Knowledge Base (mutable — for tests, static knowledge
    /// injection, and embedding scenarios).
    pub fn knowledge_mut(&mut self) -> &mut KnowledgeBase {
        &mut self.kb
    }

    /// Insert a static knowgget and re-run module activation.
    pub fn insert_knowledge(&mut self, label: &str, value: impl Into<KnowValue>) {
        self.kb.insert(label, value);
        let now = self.last_tick.unwrap_or(Timestamp::ZERO);
        self.reconfigure_on_changes(now);
    }

    /// The response (countermeasure) engine.
    pub fn response(&self) -> &ResponseEngine {
        &self.response
    }

    /// Names of currently active modules.
    pub fn active_modules(&self) -> Vec<&'static str> {
        self.manager.active_names()
    }

    /// Per-module resource and state profiles (work, occupancy,
    /// evictions, budget) — the same view `/status` serves, exposed so
    /// harnesses can assert state stays within budget.
    pub fn module_state(&self) -> Vec<crate::modules::ModuleProfile> {
        self.manager.module_profiles()
    }

    /// Resource accounting so far: a thin facade deriving the meter from
    /// the telemetry counters (`packets.ingested`, `work.units`,
    /// `state.peak_bytes`), so the two views can never disagree.
    pub fn meter(&self) -> ResourceMeter {
        ResourceMeter {
            packets: self.stats.packets.get(),
            work_units: self.stats.work.get(),
            peak_state_bytes: self.stats.peak_state.get() as usize,
        }
    }

    /// This node's telemetry registry: counters, gauges, per-module
    /// latency histograms, and the structured event journal. Snapshot it
    /// with [`Telemetry::snapshot`] and export via
    /// [`kalis_telemetry::TelemetrySnapshot::to_prometheus`] or
    /// [`kalis_telemetry::TelemetrySnapshot::to_json`].
    pub fn telemetry(&self) -> &Arc<Telemetry> {
        &self.tele
    }

    /// The Data Store.
    pub fn store(&self) -> &DataStore {
        &self.store
    }

    /// Mutable access to the Data Store (e.g. to attach a disk log).
    pub fn store_mut(&mut self) -> &mut DataStore {
        &mut self.store
    }

    /// The shed mode decided by the overload controller at the last
    /// ingest.
    pub fn shed_mode(&self) -> ShedMode {
        self.overload.mode()
    }

    /// Names of modules currently quarantined by the supervisor.
    pub fn quarantined_modules(&self) -> Vec<&'static str> {
        self.manager.quarantined_names()
    }

    /// Supervision health of the named module, mirroring
    /// [`Kalis::peer_health`]: the degenerate states are errors.
    ///
    /// # Errors
    ///
    /// [`KalisError::UnknownModule`] when no module by that name is
    /// loaded; [`KalisError::ModuleQuarantined`] while the module is
    /// quarantined (its backoff has not yet released it to probation).
    #[cfg(test)]
    pub(crate) fn module_health(
        &self,
        name: &str,
    ) -> Result<crate::modules::ModuleHealth, KalisError> {
        use crate::modules::ModuleHealth;
        match self.manager.module_health(name) {
            None => Err(KalisError::UnknownModule {
                name: name.to_owned(),
            }),
            Some(ModuleHealth::Quarantined) => Err(KalisError::ModuleQuarantined {
                module: name.to_owned(),
            }),
            Some(health) => Ok(health),
        }
    }

    /// The active supervisor tunables, as the config's `Supervisor.*`
    /// knowggets set them.
    pub fn supervisor_config(&self) -> &SupervisorConfig {
        self.manager.supervisor_config()
    }
}

impl core::fmt::Debug for Kalis {
    fn fmt(&self, f: &mut core::fmt::Formatter<'_>) -> core::fmt::Result {
        f.debug_struct("Kalis")
            .field("id", &self.id)
            .field("knowledge", &self.kb.len())
            .field("active_modules", &self.manager.active_count())
            .field("alerts", &self.alerts.len())
            .finish()
    }
}

#[cfg(test)]
mod differential;

#[cfg(test)]
mod tests {
    use super::*;
    use crate::capture::ReplaySource;
    use crate::config::Config;
    use crate::knowledge::{KnowKey, SyncMessage};
    use crate::modules::Module;
    use crate::modules::ModuleHealth;
    use crate::sensing::labels;
    use crate::taxonomy::Feature;
    use build::{OPS_PORT_KEY, TRACE_SAMPLE_RATE_KEY};
    use kalis_packets::{Entity, Medium, ShortAddr};
    use kalis_telemetry::SampleRate;

    fn ctp_packet(ms: u64, thl: u8) -> CapturedPacket {
        let raw = kalis_netsim::craft::ctp_data(
            ShortAddr(2),
            ShortAddr(1),
            (ms / 100) as u8,
            ShortAddr(3),
            (ms / 100) as u8,
            thl,
            b"r",
        );
        CapturedPacket::capture(
            Timestamp::from_millis(ms),
            Medium::Ieee802154,
            Some(-50.0),
            "t",
            raw,
        )
    }

    /// Node 2 relaying (THL 1) a CTP data frame from `origin`, which the
    /// capturing node never heard transmit itself.
    fn relayed(ms: u64, origin: u16) -> CapturedPacket {
        let seq = (ms / 100) as u8;
        let raw = kalis_netsim::craft::ctp_data(
            ShortAddr(2),
            ShortAddr(1),
            seq,
            ShortAddr(origin),
            seq,
            1,
            b"r",
        );
        CapturedPacket::capture(
            Timestamp::from_millis(ms),
            Medium::Ieee802154,
            Some(-50.0),
            "t",
            raw,
        )
    }

    /// A default node whose a-priori `Multihop` switches the wormhole
    /// detector on: two relayed [`relayed`] origins make it publish
    /// collective `ExoticOrigins` about node 2.
    fn multihop_node(id: &str) -> KalisBuilder {
        let config: Config = "knowggets = { Multihop = true }".parse().unwrap();
        Kalis::builder(KalisId::new(id))
            .with_config(config)
            .with_default_modules()
    }

    #[test]
    fn builder_default_library_starts_with_sensing_only() {
        let kalis = Kalis::builder(KalisId::new("K1"))
            .with_default_modules()
            .build();
        let active = kalis.active_modules();
        assert!(active.contains(&"TopologyDiscoveryModule"));
        assert!(active.contains(&"TrafficStatsModule"));
        assert!(active.contains(&"MobilityAwarenessModule"));
        assert!(
            !active
                .iter()
                .any(|n| n.contains("Flood") || n.contains("Smurf")),
            "no detection module without knowledge: {active:?}"
        );
    }

    #[test]
    fn knowledge_discovery_activates_detection_modules() {
        let mut kalis = Kalis::builder(KalisId::new("K1"))
            .with_default_modules()
            .build();
        // Forwarded CTP traffic → Multihop=true → watchdog modules activate.
        for i in 0..5 {
            kalis.ingest(ctp_packet(i * 100, 1));
        }
        let active = kalis.active_modules();
        assert!(active.contains(&"SelectiveForwardingModule"), "{active:?}");
        assert!(active.contains(&"BlackholeModule"));
        assert!(active.contains(&"SmurfModule"));
        assert!(active.contains(&"SybilModule"), "802.15.4 medium seen");
    }

    #[test]
    fn traditional_mode_runs_all_modules_always() {
        let kalis = Kalis::builder(KalisId::new("T"))
            .with_default_modules()
            .traditional()
            .build();
        assert_eq!(kalis.active_modules().len(), 17, "whole library active");
    }

    #[test]
    fn apriori_knowledge_activates_immediately() {
        let config: Config = "knowggets = { Multihop = true }".parse().unwrap();
        let kalis = Kalis::builder(KalisId::new("K1"))
            .with_config(config)
            .with_default_modules()
            .build();
        assert!(kalis.active_modules().contains(&"SmurfModule"));
    }

    #[test]
    fn pinned_config_modules_stay_active() {
        let config: Config = "modules = { IcmpFloodModule (threshold = 5) }"
            .parse()
            .unwrap();
        let kalis = Kalis::builder(KalisId::new("K1"))
            .with_config(config)
            .build();
        assert_eq!(kalis.active_modules(), vec!["IcmpFloodModule"]);
    }

    #[test]
    fn unknown_config_module_errors() {
        let config: Config = "modules = { Bogus }".parse().unwrap();
        let err = Kalis::builder(KalisId::new("K1"))
            .with_config(config)
            .try_build()
            .unwrap_err();
        assert!(matches!(err, KalisError::UnknownModule { .. }));
    }

    #[test]
    fn process_source_drains_replay() {
        let mut kalis = Kalis::builder(KalisId::new("K1"))
            .with_default_modules()
            .build();
        let packets: Vec<_> = (0..10).map(|i| ctp_packet(i * 200, 1)).collect();
        let mut source = ReplaySource::new("replay", packets);
        kalis.process_source(&mut source);
        assert_eq!(kalis.meter().packets, 10);
        assert_eq!(kalis.store().len(), 10);
        assert!(kalis.meter().peak_state_bytes > 0);
    }

    #[test]
    fn collective_roundtrip_between_two_nodes() {
        let mut k1 = multihop_node("K1").build();
        let mut k2 = multihop_node("K2").build();
        // K1 hears node 2 relay two origins it never heard → publishes
        // collective ExoticOrigins about node 2.
        k1.ingest(relayed(0, 3));
        k1.ingest(relayed(100, 4));
        let msg = k1
            .collective_outbox()
            .expect("exotic origins are collective");
        let accepted = k2.accept_sync(msg).unwrap();
        assert!(accepted >= 1);
        let all = k2.knowledge().get_all_creators("ExoticOrigins");
        assert!(all.iter().any(|(creator, ..)| creator.as_str() == "K1"));
    }

    #[test]
    fn forged_sync_is_rejected() {
        let mut k2 = Kalis::builder(KalisId::new("K2")).build();
        let forged = SyncMessage::new(
            KalisId::new("K3"),
            vec![crate::knowledge::Knowgget::new(
                "Multihop",
                KnowValue::Bool(true),
                KalisId::new("K1"), // creator ≠ sender
            )],
        );
        assert!(k2.accept_sync(forged).is_err());
    }

    #[test]
    fn a_rejected_sync_message_counts_and_announces_what_it_applied() {
        let mut k2 = Kalis::builder(KalisId::new("K2"))
            .with_default_modules()
            .build();
        let rx = k2.subscribe();
        let k1 = KalisId::new("K1");
        let knowgget = |label: &str, creator: &str| {
            crate::knowledge::Knowgget::new(label, KnowValue::Bool(true), KalisId::new(creator))
        };
        // The second claims a creator other than its sender.
        let message = SyncMessage::new(
            k1,
            vec![
                knowgget("Multihop", "K1"),
                knowgget("Mobile", "K3"),
                knowgget("Fragmented", "K1"),
            ],
        );
        assert!(matches!(
            k2.accept_sync(message),
            Err(KalisError::SyncRejected { .. })
        ));
        let held = |kalis: &Kalis, label| kalis.knowledge().get_all_creators(label).len();
        assert_eq!(
            [
                held(&k2, "Multihop"),
                held(&k2, "Mobile"),
                held(&k2, "Fragmented")
            ],
            [1, 0, 0]
        );
        let count = |name| k2.telemetry().counter(name).get();
        assert_eq!(count(names::SYNC_KNOWGGETS_IN), 1);
        assert_eq!(count(names::SYNC_REJECTED), 1);
        // A subscriber heard of the applied one before the call returned.
        let heard: Vec<String> = (rx.try_iter())
            .filter_map(|event| match event {
                crate::bus::KalisEvent::KnowledgeChanged { key, .. } => Some(key.encode()),
                _ => None,
            })
            .collect();
        assert_eq!(heard, ["K1$Multihop"]);
    }

    #[test]
    fn event_bus_publishes_knowledge_modules_and_alerts() {
        let mut kalis = Kalis::builder(KalisId::new("K1"))
            .with_default_modules()
            .build();
        let rx = kalis.subscribe();
        for i in 0..5 {
            kalis.ingest(ctp_packet(i * 100, 1));
        }
        let events: Vec<_> = rx.try_iter().collect();
        assert!(events
            .iter()
            .any(|e| matches!(e, crate::bus::KalisEvent::KnowledgeChanged { .. })));
        assert!(events
            .iter()
            .any(|e| matches!(e, crate::bus::KalisEvent::ModulesReconfigured { .. })));
    }

    /// A module of an embedder: detection, or sensing (`gate` `None`),
    /// either way writing `writes = true` on every packet it sees.
    struct Embedded {
        name: &'static str,
        /// The features whose labels re-evaluate `gate`.
        needs: &'static [Feature],
        gate: Option<fn(&KnowledgeBase) -> bool>,
        writes: Option<&'static str>,
        /// Panic on every packet while set.
        rage: Arc<std::sync::atomic::AtomicBool>,
    }

    impl Embedded {
        fn boxed(name: &'static str, gate: Option<fn(&KnowledgeBase) -> bool>) -> Box<Self> {
            Box::new(Embedded {
                name,
                needs: &[],
                gate,
                writes: None,
                rage: Arc::default(),
            })
        }
    }

    impl Module for Embedded {
        fn descriptor(&self) -> crate::modules::ModuleDescriptor {
            match self.gate {
                Some(_) => {
                    crate::modules::ModuleDescriptor::detection(self.name, AttackKind::Anomaly)
                        .needs(self.needs)
                }
                None => crate::modules::ModuleDescriptor::sensing(self.name),
            }
        }
        fn required(&self, kb: &KnowledgeBase) -> bool {
            self.gate.is_none_or(|gate| gate(kb))
        }
        fn on_packet(&mut self, ctx: &mut ModuleCtx<'_>, _packet: &CapturedPacket) {
            if let Some(label) = self.writes {
                ctx.kb.insert(label, true);
            }
            if self.rage.load(std::sync::atomic::Ordering::Relaxed) {
                panic!("embedded module raging (node tests)");
            }
        }
    }

    fn activation_records(kalis: &Kalis) -> Vec<(u64, JournalEvent)> {
        let journal = kalis.telemetry().journal().snapshot();
        (journal.records.into_iter())
            .filter(|r| matches!(r.event.kind(), "module_activated" | "module_deactivated"))
            .map(|r| (r.time_us, r.event))
            .collect()
    }

    #[test]
    fn undeclared_activation_still_flips_on_the_packet_that_writes_it() {
        // The embedder declared nothing: the detector's slot subscribes to
        // every change, so a label no contract names still reaches it.
        let mut sensor = Embedded::boxed("VendorSensor", None);
        sensor.writes = Some("Vendor.Feature");
        let detector = Embedded::boxed(
            "VendorDetector",
            Some(|kb| kb.get_bool("Vendor.Feature") == Some(true)),
        );
        let mut kalis = Kalis::builder(KalisId::new("K1"))
            .with_default_modules()
            .with_module(sensor, false)
            .with_module(detector, false)
            .build();
        assert!(!kalis.active_modules().contains(&"VendorDetector"));
        kalis.ingest(ctp_packet(700, 0));
        assert!(kalis.active_modules().contains(&"VendorDetector"));
        let flips = activation_records(&kalis);
        let (time_us, flip) = flips.last().expect("journaled");
        assert_eq!(*time_us, 700_000);
        assert!(
            matches!(flip, JournalEvent::ModuleActivated { module, .. } if module == "VendorDetector"),
            "{flip:?}"
        );
    }

    #[test]
    fn a_module_released_from_quarantine_is_re_evaluated_on_that_dispatch() {
        let rage = Arc::new(std::sync::atomic::AtomicBool::new(false));
        let mut detector = Embedded::boxed(
            "Fragile",
            Some(|kb| kb.get_bool(labels::MEDIUM_SEEN_WIFI) == Some(true)),
        );
        detector.needs = &[Feature::WifiMedium];
        detector.rage = Arc::clone(&rage);
        let mut kalis = Kalis::builder(KalisId::new("K1"))
            .with_config("knowggets = { Supervisor.PanicLimit = 1 }".parse().unwrap())
            .with_default_modules()
            .with_module(detector, false)
            .build();
        kalis.insert_knowledge(labels::MEDIUM_SEEN_WIFI, true);
        // Settle the stream's own knowledge, then crash into quarantine.
        for i in 0..30 {
            kalis.ingest(ctp_packet(i * 100, 0));
        }
        assert!(kalis.active_modules().contains(&"Fragile"));
        let prev = std::panic::take_hook();
        std::panic::set_hook(Box::new(|_| {}));
        rage.store(true, std::sync::atomic::Ordering::Relaxed);
        kalis.ingest(ctp_packet(3_000, 0));
        rage.store(false, std::sync::atomic::Ordering::Relaxed);
        std::panic::set_hook(prev);
        assert_eq!(kalis.quarantined_modules(), vec!["Fragile"]);
        // Its activation input flips while reconfiguration passes it over
        // (and switches the library's 802.11 detector off).
        kalis.insert_knowledge(labels::MEDIUM_SEEN_WIFI, false);
        assert!(activation_records(&kalis).iter().all(|(_, flip)| !matches!(
            flip,
            JournalEvent::ModuleDeactivated { module, .. } if module == "Fragile"
        )));
        // The dispatch that releases it is the one that switches it off,
        // whatever else that packet did or did not change.
        let released_ms = 3_100 + crate::modules::supervisor::BACKOFF_BASE.as_millis() as u64;
        kalis.ingest(ctp_packet(released_ms, 0));
        assert!(kalis.quarantined_modules().is_empty());
        assert!(!kalis.active_modules().contains(&"Fragile"));
        let flips = activation_records(&kalis);
        let (time_us, flip) = flips.last().expect("journaled");
        assert_eq!(*time_us, released_ms * 1_000);
        assert!(
            matches!(flip, JournalEvent::ModuleDeactivated { module, .. } if module == "Fragile"),
            "{flip:?}"
        );
    }

    #[test]
    fn a_subscriber_hears_about_knowledge_that_arrived_from_a_peer() {
        // Collective knowledge drives activation (the paper's knowledge
        // sharing): this detector is wanted wherever *any* node saw a
        // multi-hop network.
        let mut detector = Embedded::boxed(
            "Collaborative",
            Some(|kb| {
                let seen = kb.get_all_creators("Multihop");
                seen.iter()
                    .any(|(_, _, value)| value.as_bool() == Some(true))
            }),
        );
        detector.needs = &[Feature::MultiHop];
        let mut k2 = Kalis::builder(KalisId::new("K2"))
            .with_default_modules()
            .with_module(detector, false)
            .build();
        let rx = k2.subscribe();
        let k1 = KalisId::new("K1");
        let origin = crate::knowledge::KnowggetOrigin {
            module: "TopologyDiscoveryModule".into(),
            trace_id: 0xBEEF,
            span_id: 1,
        };
        let learned =
            crate::knowledge::Knowgget::new("Multihop", KnowValue::Bool(true), k1.clone())
                .with_origin(origin);
        k2.accept_sync(SyncMessage::new(k1.clone(), vec![learned]))
            .unwrap();
        assert!(k2.active_modules().contains(&"Collaborative"));
        let events: Vec<_> = rx.try_iter().collect();
        assert_eq!(
            events,
            [
                KalisEvent::KnowledgeChanged {
                    key: KnowKey::new(k1, "Multihop"),
                    value: KnowValue::Bool(true),
                    removed: false,
                    trace_id: 0xBEEF,
                },
                KalisEvent::ModulesReconfigured {
                    time: Timestamp::ZERO,
                    activated: 1,
                    deactivated: 0,
                },
            ]
        );
        // Static knowledge the embedder injects is published the same way.
        k2.insert_knowledge("Mobile", false);
        let events: Vec<_> = rx.try_iter().collect();
        assert!(
            matches!(&events[0], KalisEvent::KnowledgeChanged { key, .. } if key.label == "Mobile")
        );
        assert!(matches!(
            events[1],
            KalisEvent::ModulesReconfigured { activated: 1, .. }
        ));
    }

    #[test]
    fn a_late_subscriber_hears_the_tail_an_early_one_heard() {
        // Events are built only once someone listens; from then on they
        // are the events an always-subscribed twin got.
        let twin = || {
            Kalis::builder(KalisId::new("K1"))
                .with_default_modules()
                .build()
        };
        let (mut early, mut late) = (twin(), twin());
        let heard_early = early.subscribe();
        // The signal wobbles across a whole dB: knowledge keeps changing.
        let wobbling = |i: u64| {
            let mut packet = ctp_packet(i * 100, (i % 2) as u8);
            packet.rssi_dbm = Some(if i % 4 < 2 { -49.0 } else { -52.0 });
            packet
        };
        let stream: Vec<_> = (0..80).map(wobbling).collect();
        for packet in &stream[..37] {
            early.ingest(packet.clone());
            late.ingest(packet.clone());
        }
        let before = heard_early.try_iter().count();
        assert!(before > 0);
        let heard_late = late.subscribe();
        for packet in &stream[37..] {
            early.ingest(packet.clone());
            late.ingest(packet.clone());
        }
        let tail: Vec<_> = heard_early.try_iter().collect();
        assert!(tail.len() > 10, "the tail holds events: {}", tail.len());
        assert_eq!(heard_late.try_iter().collect::<Vec<_>>(), tail);
    }

    #[test]
    fn recommended_config_roundtrips_and_rebuilds() {
        let mut kalis = Kalis::builder(KalisId::new("K1"))
            .with_default_modules()
            .build();
        for i in 0..5 {
            kalis.ingest(ctp_packet(i * 100, 1));
        }
        let config = kalis.recommend_config();
        assert!(config
            .modules
            .iter()
            .any(|m| m.name == "SelectiveForwardingModule"));
        assert!(config
            .knowggets
            .iter()
            .any(|(k, v)| k == "Multihop" && *v == KnowValue::Bool(true)));
        // Round-trip through the Fig. 6 text format and rebuild a node
        // from it (the compile-time deployment workflow).
        let text = config.to_string();
        let reparsed: Config = text.parse().unwrap();
        assert_eq!(reparsed, config);
        let small = Kalis::builder(KalisId::new("tiny"))
            .with_config(reparsed)
            .try_build()
            .unwrap();
        assert!(small
            .active_modules()
            .contains(&"SelectiveForwardingModule"));
    }

    #[test]
    fn sync_tunables_ride_the_config_language() {
        // Both knobs set explicitly via the Fig. 6 text format.
        let kalis = Kalis::builder(KalisId::new("K1"))
            .with_config(
                "knowggets = { Sync.PeerTtl = 12, Sync.BeaconInterval = 2 }"
                    .parse()
                    .unwrap(),
            )
            .build();
        assert_eq!(kalis.sync_config().peer_ttl, Duration::from_secs(12));
        assert_eq!(kalis.sync_config().beacon_interval, Duration::from_secs(2));
        // The knobs are ordinary knowggets too — visible in the KB.
        assert_eq!(kalis.knowledge().get_f64("Sync.PeerTtl"), Some(12.0));

        // TTL alone derives the beacon cadence (ttl / 3).
        let ttl_only = Kalis::builder(KalisId::new("K2"))
            .with_config("knowggets = { Sync.PeerTtl = 9 }".parse().unwrap())
            .build();
        assert_eq!(ttl_only.sync_config().peer_ttl, Duration::from_secs(9));
        assert_eq!(
            ttl_only.sync_config().beacon_interval,
            Duration::from_secs(3)
        );

        // File order does not matter: an explicit interval wins even
        // when it appears before the TTL that would otherwise derive it.
        let reordered = Kalis::builder(KalisId::new("K3"))
            .with_config(
                "knowggets = { Sync.BeaconInterval = 2, Sync.PeerTtl = 12 }"
                    .parse()
                    .unwrap(),
            )
            .build();
        assert_eq!(reordered.sync_config().peer_ttl, Duration::from_secs(12));
        assert_eq!(
            reordered.sync_config().beacon_interval,
            Duration::from_secs(2)
        );

        // The tunables survive a full recommend -> render -> parse ->
        // rebuild round-trip (the compile-time deployment workflow).
        let config = kalis.recommend_config();
        let text = config.to_string();
        let reparsed: Config = text.parse().unwrap();
        assert_eq!(reparsed, config);
        let redeployed = Kalis::builder(KalisId::new("K4"))
            .with_config(reparsed)
            .try_build()
            .unwrap();
        assert_eq!(redeployed.sync_config(), kalis.sync_config());
    }

    #[test]
    fn auto_response_revokes_suspects() {
        let mut kalis = Kalis::builder(KalisId::new("K1"))
            .with_config(
                "modules = { IcmpFloodModule (threshold = 5) } knowggets = { Multihop = false }"
                    .parse()
                    .unwrap(),
            )
            .build();
        // Craft an ICMP reply flood.
        for i in 0..10u64 {
            let ip = kalis_netsim::craft::ipv4_echo_reply(
                std::net::Ipv4Addr::new(1, 1, 1, 1),
                std::net::Ipv4Addr::new(10, 0, 0, 7),
                1,
                i as u16,
            );
            let raw = kalis_netsim::craft::wifi_ipv4(
                kalis_packets::MacAddr::from_index(66),
                kalis_packets::MacAddr::BROADCAST,
                kalis_packets::MacAddr::from_index(0),
                i as u16,
                &ip,
            );
            kalis.ingest(CapturedPacket::capture(
                Timestamp::from_millis(i * 50),
                Medium::Wifi,
                Some(-48.0),
                "w",
                raw,
            ));
        }
        assert!(!kalis.alerts().is_empty());
        let attacker = Entity::from(kalis_packets::MacAddr::from_index(66));
        assert!(kalis
            .response()
            .is_revoked(&attacker, Timestamp::from_secs(1)));
    }

    #[test]
    fn supervisor_knowggets_set_the_supervisor_config() {
        let kalis = Kalis::builder(KalisId::new("K1"))
            .with_config(
                "modules = { TrafficStatsModule } knowggets = { Supervisor.PanicLimit = 7, Supervisor.BudgetMs = 50, Supervisor.BurstPps = 123 }"
                    .parse()
                    .unwrap(),
            )
            .build();
        let cfg = kalis.supervisor_config();
        assert_eq!(cfg.panic_limit, 7);
        assert_eq!(cfg.budget, Some(Duration::from_millis(50)));
        assert_eq!(cfg.burst_pps, 123);
    }

    /// Every node knob, set away from its default in a config, comes
    /// back in the recommendation, and a node rebuilt from that text
    /// recommends the same text: the config alone rebuilds the node.
    /// `Ops.Port` has no row (a fixed port collides); `tests/ops.rs`
    /// round-trips it from an ephemeral port, as the `Ops.*` rows here
    /// do.
    #[test]
    fn every_node_knob_round_trips_through_the_recommendation() {
        let rows = [
            ("Sync.PeerTtl", "12"),
            ("Sync.BeaconInterval", "2"),
            ("KB.PerEntityBudget", "100"),
            ("Supervisor.PanicLimit", "5"),
            ("Supervisor.BudgetMs", "20"),
            ("Supervisor.BurstPps", "777"),
            ("Trace.SampleRate", "0.5"),
            ("Ops.LatencySloUs", "250000"),
            ("Ops.HotEntities", "4"),
            ("Diag.RingDepth", "16"),
            ("Diag.SnapshotIntervalSecs", "10"),
            ("Diag.TriggerMask", "3"),
        ];
        let mut keys: Vec<&str> = rows.iter().map(|(key, _)| *key).collect();
        keys.push(OPS_PORT_KEY);
        keys.sort_unstable();
        let contract = system_contract();
        let mut read: Vec<&str> = (contract.reads.iter())
            .map(|key| key.pattern.root())
            .collect();
        read.sort_unstable();
        assert_eq!(keys, read, "one row per knob the node reads");
        for (key, value) in rows {
            let config = format!("knowggets = {{ {key} = {value} }}");
            let node = Kalis::builder(KalisId::new("K1"))
                .with_config(config.parse().unwrap())
                .build();
            let text = node.recommend_config().to_string();
            assert!(text.contains(&format!("{key} = {value}")), "{key}: {text}");
            // An `Ops.*` node recommends its bound port; free it first.
            drop(node);
            let rebuilt = Kalis::builder(KalisId::new("K1"))
                .with_config(text.parse().expect("recommendation re-parses"))
                .build();
            assert_eq!(rebuilt.recommend_config().to_string(), text, "{key}");
        }
    }

    #[test]
    fn burst_engages_shedding_and_flags_pipeline_degraded() {
        let mut kalis = Kalis::builder(KalisId::new("K1"))
            .with_config("knowggets = { Supervisor.BurstPps = 50 }".parse().unwrap())
            .with_default_modules()
            .build();
        assert!(kalis.readiness().ready());
        // ~10× capacity: 500 packets over one second of capture time.
        let mut overloaded = 0;
        for i in 0..500u64 {
            let packet = ctp_packet(i * 2, 0);
            if kalis.try_ingest(packet).is_err() {
                overloaded += 1;
            }
        }
        assert!(
            kalis.shed_mode() != ShedMode::None,
            "burst engages shedding"
        );
        assert!(!kalis.readiness().ready());
        assert!(overloaded > 0, "severe overload surfaces PipelineOverload");
        // Calm traffic releases the shed (rate falls below ¾ capacity).
        for i in 0..60u64 {
            kalis.ingest(ctp_packet(2_000 + i * 100, 0));
        }
        assert_eq!(kalis.shed_mode(), ShedMode::None);
        assert!(kalis.readiness().ready());
    }

    #[test]
    fn tracing_knob_rides_the_config_language_and_round_trips() {
        let kalis = Kalis::builder(KalisId::new("K1"))
            .with_default_modules()
            .with_config("knowggets = { Trace.SampleRate = 0.5 }".parse().unwrap())
            .build();
        assert!(kalis.tracer().enabled());
        assert_eq!(kalis.tracer().sample_rate(), SampleRate::from_fraction(0.5));
        // Out-of-range values are ignored (and flagged by kalis-lint).
        let bogus = Kalis::builder(KalisId::new("K2"))
            .with_config("knowggets = { Trace.SampleRate = 7 }".parse().unwrap())
            .build();
        assert!(!bogus.tracer().enabled());
        // recommend -> render -> parse -> rebuild keeps the posture.
        let config = kalis.recommend_config();
        let rebuilt = Kalis::builder(KalisId::new("K3"))
            .with_config(config.to_string().parse().unwrap())
            .try_build()
            .unwrap();
        assert_eq!(rebuilt.tracer().sample_rate(), kalis.tracer().sample_rate());
        // Sampling-off nodes leave the knob out of the recommendation.
        let quiet = Kalis::builder(KalisId::new("K4")).build();
        assert!(!quiet
            .recommend_config()
            .knowggets
            .iter()
            .any(|(k, _)| k == TRACE_SAMPLE_RATE_KEY));
    }

    #[test]
    fn full_sampling_traces_ingest_and_knowledge_writes() {
        let mut kalis = Kalis::builder(KalisId::new("K1"))
            .with_config("knowggets = { Trace.SampleRate = 1 }".parse().unwrap())
            .with_default_modules()
            .build();
        for i in 0..5 {
            kalis.ingest(ctp_packet(i * 100, 1));
        }
        let events = kalis.tracer().events();
        assert!(events.iter().any(|e| e.name == "ingest"));
        assert!(events.iter().any(|e| e.name == "dispatch"));
        // Every event belongs to a real trace recorded on this node.
        assert!(events.iter().all(|e| e.trace_id != 0 && e.node == "K1"));
        // Knowledge written during a traced dispatch is attributed to
        // the writing module and the packet's trace.
        let origin = kalis
            .knowledge()
            .origin_of_encoded("K1$Multihop")
            .expect("Multihop write is attributed");
        assert_eq!(origin.module, "TopologyDiscoveryModule");
        assert_ne!(origin.trace_id, 0);
        // The tracing-off default records nothing.
        let mut quiet = Kalis::builder(KalisId::new("K2"))
            .with_default_modules()
            .build();
        quiet.ingest(ctp_packet(0, 1));
        assert!(quiet.tracer().events().is_empty());
        assert!(
            quiet.knowledge().origin_of_encoded("K2$Multihop").is_none()
                || quiet
                    .knowledge()
                    .origin_of_encoded("K2$Multihop")
                    .unwrap()
                    .trace_id
                    == 0
        );
    }

    #[test]
    fn alerts_carry_trace_ids_and_provenance() {
        let mut kalis = Kalis::builder(KalisId::new("K1"))
            .with_config(
                "modules = { IcmpFloodModule (threshold = 5) } knowggets = { Multihop = false, Trace.SampleRate = 1 }"
                    .parse()
                    .unwrap(),
            )
            .build();
        for i in 0..10u64 {
            let ip = kalis_netsim::craft::ipv4_echo_reply(
                std::net::Ipv4Addr::new(1, 1, 1, 1),
                std::net::Ipv4Addr::new(10, 0, 0, 7),
                1,
                i as u16,
            );
            let raw = kalis_netsim::craft::wifi_ipv4(
                kalis_packets::MacAddr::from_index(66),
                kalis_packets::MacAddr::BROADCAST,
                kalis_packets::MacAddr::from_index(0),
                i as u16,
                &ip,
            );
            kalis.ingest(CapturedPacket::capture(
                Timestamp::from_millis(i * 50),
                Medium::Wifi,
                Some(-48.0),
                "w",
                raw,
            ));
        }
        assert!(!kalis.alerts().is_empty());
        let alert = &kalis.alerts()[0];
        assert_ne!(alert.trace_id, 0, "sampled alert is stamped");
        assert_eq!(kalis.alert_provenance().len(), kalis.alerts().len());
        let provenance = kalis.explain_alert(0).expect("assembled at emission");
        assert_eq!(provenance.module, alert.module);
        assert_eq!(provenance.trace.trace_id, alert.trace_id);
        assert_eq!(provenance.trace.node, "K1");
        let packet = provenance.packet.as_ref().expect("packet-triggered");
        assert!(packet.seq > 0);
        assert!(packet.summary.contains("Wifi"));
        // The module's activation inputs are captured as evidence.
        assert!(provenance
            .activation
            .iter()
            .any(|a| a.contains("Multihop = false")));
        // The trace contains the alert emission itself.
        assert!(kalis
            .tracer()
            .events()
            .iter()
            .any(|e| e.name == "alert:icmp-flood" && e.trace_id == alert.trace_id));
        // JSON explain format round-trips.
        let back = AlertProvenance::from_json(&provenance.to_json()).unwrap();
        assert_eq!(&back, provenance);
        // Draining alerts discards the parallel provenance table.
        kalis.drain_alerts();
        assert!(kalis.alert_provenance().is_empty());
        assert!(kalis.explain_alert(0).is_none());
    }

    #[test]
    fn remote_sync_contributions_carry_their_origin_trace() {
        let traced = |id| {
            let config = "knowggets = { Multihop = true, Trace.SampleRate = 1 }";
            Kalis::builder(KalisId::new(id))
                .with_config(config.parse().unwrap())
                .with_default_modules()
                .build()
        };
        let (mut k1, mut k2) = (traced("K1"), traced("K2"));
        k1.ingest(relayed(0, 3));
        k1.ingest(relayed(100, 4));
        let msg = k1.collective_outbox().expect("collective knowledge");
        let traced: Vec<_> = msg
            .knowggets
            .iter()
            .filter(|k| k.origin.as_ref().is_some_and(|o| o.trace_id != 0))
            .cloned()
            .collect();
        assert!(!traced.is_empty(), "K1's writes carry trace provenance");
        k2.accept_sync(msg).unwrap();
        // K2's knowledge remembers the remote origin...
        let sample = &traced[0];
        let key = KnowKey {
            creator: sample.creator.clone(),
            label: sample.label.clone(),
            entity: sample.entity.clone(),
        };
        let origin = k2
            .knowledge()
            .origin_of_encoded(&key.encode())
            .expect("remote origin stored");
        assert_eq!(origin, sample.origin.as_ref().unwrap());
        // ...and K2's trace buffer shows the contribution arriving,
        // recorded under K1's trace id.
        assert!(k2
            .tracer()
            .events()
            .iter()
            .any(|e| e.name.starts_with("sync.accept:K1$") && e.trace_id == origin.trace_id));
    }

    #[test]
    fn module_health_mirrors_peer_health_errors() {
        let kalis = Kalis::builder(KalisId::new("K1"))
            .with_default_modules()
            .build();
        assert!(matches!(
            kalis.module_health("TrafficStatsModule"),
            Ok(ModuleHealth::Healthy)
        ));
        assert!(matches!(
            kalis.module_health("NoSuchModule"),
            Err(KalisError::UnknownModule { .. })
        ));
    }
}
