//! The node's operations surface: readiness, the detection-latency SLO,
//! the hot-entity sketch, and the `/status` report the kalis-ops
//! listener serves. Scrapes read what the last refresh published; the
//! node refreshes at tick cadence and on every readiness transition.

use std::net::SocketAddr;
use std::sync::Arc;
use std::time::Duration;

use kalis_packets::{Entity, Timestamp};
use kalis_telemetry::{names, Gauge, JournalEvent, Telemetry};

use crate::knowledge::SlotSet;
use crate::modules::{ModuleManager, ShedMode};
use crate::ops::{
    HotEntity, ModuleStatus, OpsConfig, OpsServer, OpsShared, Readiness, SloStatus, SpaceSaving,
    StatusReport,
};

use super::Kalis;

/// Minimum wall-clock spacing between full `/status` report renders on
/// the packet-driven (unforced) refresh path. Capture clocks can run
/// arbitrarily faster than real time during replay and benchmarks;
/// throttling by wall time keeps the ops surface off the hot path while
/// scrapers — which live in wall time — still see state at most this
/// stale. Explicit `tick()` calls and readiness transitions always
/// render immediately.
const OPS_RENDER_MIN_INTERVAL: Duration = Duration::from_millis(100);

/// The ops surface runtime: the HTTP listener, the state shared with
/// it, the hot-entity sketch, and the SLO tracker. Present only when
/// the surface was enabled (builder or `Ops.*` knowggets).
pub(super) struct OpsRuntime {
    pub(super) server: OpsServer,
    pub(super) shared: Arc<OpsShared>,
    /// Top-K source-entity heavy-hitter sketch, fed one observation per
    /// ingested packet.
    pub(super) sketch: SpaceSaving<Entity>,
    /// Capture-clock micros of the first ingested packet (uptime base).
    pub(super) started_us: Option<u64>,
    /// Wall-clock instant of the last full report render, gating
    /// unforced refreshes to [`OPS_RENDER_MIN_INTERVAL`].
    last_render: Option<std::time::Instant>,
    /// Readiness at the last publish — the comparison key that lets
    /// the node detect a readiness transition without rendering the
    /// reasons, let alone the whole report.
    last_readiness: ReadinessKey,
    pub(super) slo: Option<SloTracker>,
}

/// Detection-latency SLO state: gauges plus the breach latch that turns
/// p99-vs-target transitions into journal events.
pub(super) struct SloTracker {
    pub(super) target_us: u64,
    pub(super) breached: bool,
    p99: Arc<Gauge>,
    burn: Arc<Gauge>,
    breached_gauge: Arc<Gauge>,
}

impl OpsRuntime {
    pub(super) fn new(
        server: OpsServer,
        shared: Arc<OpsShared>,
        config: &OpsConfig,
        tele: &Telemetry,
    ) -> Self {
        let slo = config.slo_p99_us.map(|target_us| {
            let tracker = SloTracker {
                target_us,
                breached: false,
                p99: tele.gauge(names::SLO_LATENCY_P99_US),
                burn: tele.gauge(names::SLO_BURN_PERMILLE),
                breached_gauge: tele.gauge(names::SLO_BREACHED),
            };
            tele.gauge(names::SLO_TARGET_US).set(target_us);
            tracker
        });
        OpsRuntime {
            server,
            shared,
            sketch: SpaceSaving::new(config.hot_entities),
            started_us: None,
            last_render: None,
            last_readiness: ReadinessKey::default(),
            slo,
        }
    }
}

impl SloTracker {
    /// Set the gauges from this refresh's p99 and journal a breach or a
    /// recovery when the verdict flipped.
    fn observe(&mut self, p99_us: u64, now: Timestamp, tele: &Telemetry) -> SloStatus {
        let breached = p99_us > self.target_us;
        self.p99.set(p99_us);
        (self.burn).set(p99_us.saturating_mul(1000) / self.target_us.max(1));
        self.breached_gauge.set(u64::from(breached));
        if breached != self.breached {
            self.breached = breached;
            let target_us = self.target_us;
            let event = if breached {
                JournalEvent::SloBreached { p99_us, target_us }
            } else {
                JournalEvent::SloRecovered { p99_us, target_us }
            };
            tele.journal().record(now.as_micros(), event);
        }
        SloStatus {
            target_us: self.target_us,
            p99_us,
            breached,
        }
    }
}

/// Everything [`Kalis::readiness`] spells out as reasons, in a form
/// that costs nothing to take and compare: two keys are equal exactly
/// when the reasons read the same (two pinned slots of one name aside).
/// The reasons are rendered when the key flips, not to find out whether
/// it did.
#[derive(Debug, Clone, Default, PartialEq, Eq)]
pub(super) struct ReadinessKey {
    quarantined_pinned: SlotSet,
    shed: ShedMode,
    sync_degraded: bool,
}

impl ReadinessKey {
    /// The reasons, spelled out: `pinned_module_quarantined:<name>` per
    /// quarantined pinned slot, `overload_shedding:<heavy|all>`,
    /// `sync_degraded`. `manager` is the one the key was taken of.
    fn reasons(&self, manager: &ModuleManager) -> Vec<String> {
        let mut reasons: Vec<String> = (self.quarantined_pinned.iter())
            .map(|slot| format!("pinned_module_quarantined:{}", manager.name_of(slot)))
            .collect();
        if self.shed != ShedMode::None {
            reasons.push(format!("overload_shedding:{}", shed_label(self.shed)));
        }
        if self.sync_degraded {
            reasons.push("sync_degraded".to_owned());
        }
        reasons
    }
}

fn shed_label(mode: ShedMode) -> &'static str {
    match mode {
        ShedMode::None => "none",
        ShedMode::Heavy => "heavy",
        ShedMode::All => "all",
    }
}

impl Kalis {
    /// Address of the kalis-ops HTTP listener, when the surface is
    /// enabled (resolves port 0 to the actual ephemeral port).
    pub fn ops_addr(&self) -> Option<SocketAddr> {
        self.ops.as_ref().map(|ops| ops.server.addr())
    }

    /// The node's current readiness verdict: empty reasons means fit
    /// for duty. `/readyz` serves the same verdict as published at the
    /// last transition or tick; this accessor recomputes it live.
    ///
    /// A node stays *live* through all of these, but loses *readiness*
    /// when any pinned module sits in quarantine
    /// (`pinned_module_quarantined:<name>`), overload shedding is
    /// engaged (`overload_shedding:<heavy|all>`), or collective sync
    /// fell into degraded local-only mode (`sync_degraded`). Unpinned
    /// quarantined modules do not flip readiness: the knowledge-driven
    /// activation contract never promised they would run.
    pub fn readiness(&self) -> Readiness {
        let reasons = self.readiness_key().reasons(&self.manager);
        Readiness { reasons }
    }

    /// [`Kalis::readiness`] as a key to compare, nothing rendered.
    pub(super) fn readiness_key(&self) -> ReadinessKey {
        ReadinessKey {
            quarantined_pinned: self.manager.quarantined_pinned(),
            shed: self.overload.mode(),
            sync_degraded: self.sync.engine.degraded(),
        }
    }

    /// Readiness transitions must reach `/readyz` at once, not at the
    /// next tick: compare the (usually empty) reason set against the
    /// last published one and republish only on change.
    pub(super) fn publish_readiness_flip(&mut self, now: Timestamp) {
        let published = self.ops.as_ref().map(|ops| &ops.last_readiness);
        if published.is_some_and(|key| *key != self.readiness_key()) {
            self.ops_refresh(now, true);
        }
    }

    /// Rebuild and publish everything the ops listener serves: profiler
    /// gauges, SLO posture (with breach/recovery journal events), the
    /// hot-entity exposition block, and the pre-rendered `/status` and
    /// `/readyz` documents. Runs at tick cadence plus on every
    /// readiness transition; scrapes between refreshes see the last
    /// published state without touching node internals.
    ///
    /// Only the profiler gauges and the readiness comparison run on
    /// every call. The full report render is throttled to
    /// [`OPS_RENDER_MIN_INTERVAL`] of wall time unless `force` is set
    /// (explicit ticks, readiness transitions, build) — capture clocks
    /// compress time under replay, and re-rendering kilobytes of JSON
    /// per capture-second would tax the ingest hot path for staleness
    /// no wall-clock scraper could ever observe.
    pub(super) fn ops_refresh(&mut self, now: Timestamp, force: bool) {
        if self.ops.is_none() {
            return;
        }
        self.manager.publish_profiles();
        let readiness = self.readiness_key();
        let ops = self.ops.as_mut().expect("checked above");
        let due = force
            || ops.last_readiness != readiness
            || !ops
                .last_render
                .is_some_and(|at| at.elapsed() < OPS_RENDER_MIN_INTERVAL);
        if !due {
            return;
        }
        // kalis-lint: allow(KL302): ops snapshot throttle is wall-clock by design
        ops.last_render = Some(std::time::Instant::now());
        // Due: only now are the reasons spelled out.
        let reasons = Readiness {
            reasons: readiness.reasons(&self.manager),
        };
        let modules: Vec<ModuleStatus> = self
            .manager
            .module_profiles()
            .iter()
            .map(ModuleStatus::from)
            .collect();
        let peers: Vec<(String, String)> = (self.sync.engine.peers().into_iter())
            .map(|(id, health)| (id.to_string(), health.as_str().to_owned()))
            .collect();
        // SLO posture: p99 of the whole-ingest pipeline histogram (ns)
        // against the configured target, latched so only transitions
        // reach the journal.
        let p99_us = self.stats.pipeline.snapshot().quantile(0.99) / 1_000;
        let slo = (ops.slo.as_mut()).map(|tracker| tracker.observe(p99_us, now, &self.tele));
        let hot_entities: Vec<HotEntity> = (ops.sketch.top().into_iter())
            .map(|entry| HotEntity {
                entity: entry.key.to_string(),
                count: entry.count,
                error: entry.error,
            })
            .collect();
        let recorder = &self.housekeeping.recorder;
        let report = StatusReport {
            node: self.id.to_string(),
            readiness: reasons,
            capture_time_us: now.as_micros(),
            uptime_us: (ops.started_us).map_or(0, |start| now.as_micros().saturating_sub(start)),
            shed_mode: shed_label(self.overload.mode()).to_owned(),
            sync_degraded: self.sync.engine.degraded(),
            modules,
            peers,
            hot_entities,
            journal_dropped: self.tele.journal().dropped(),
            trace_dropped: self.tracer.dropped(),
            alerts: self.stats.alerts.get(),
            slo,
            diag_captures: recorder.captures(),
            diag_ring_occupancy: recorder.occupancy() as u64,
            diag_last_trigger: (recorder.last_trigger())
                .map(|t| t.name().to_owned())
                .unwrap_or_default(),
        };
        ops.last_readiness = readiness;
        ops.shared.publish(&report);
    }
}
