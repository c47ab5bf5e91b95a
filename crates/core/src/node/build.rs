//! How a node comes to be and how it describes itself back: the
//! builder, the a-priori knowgget keys the node itself reads (the Fig.
//! 6 config language's node-level knobs), the node's own knowgget
//! contract, and the minimal configuration a running node recommends.

use std::net::{Ipv4Addr, SocketAddr};
use std::sync::Arc;
use std::time::Duration;

use kalis_packets::{Entity, Timestamp};
use kalis_telemetry::{
    SampleRate, Telemetry, TraceContext, Tracer, DEFAULT_TRACE_CAPACITY, SAMPLE_SCALE,
};

use crate::bus::EventBus;
use crate::config::{Config, ModuleDef};
use crate::error::KalisError;
use crate::id::KalisId;
use crate::knowledge::{
    CollectiveSync, KnowValue, KnowledgeBase, SyncConfig, XorChannel, DEGRADED_LABEL,
};
use crate::modules::{Module, ModuleManager, ModuleRegistry, OverloadController, SupervisorConfig};
use crate::ops::{OpsServer, OpsShared};
use crate::response::ResponseEngine;
use crate::store::{DataStore, WindowConfig};

use super::housekeeping::{self, Housekeeping};
use super::ops::OpsRuntime;
use super::sync::SyncLink;
use super::{Kalis, NodeStats};

/// Shared secret of the [`XorChannel`] every node seals sync traffic
/// with ("kalis" in ASCII).
const DEFAULT_SYNC_KEY: u64 = 0x006b_616c_6973;

/// A-priori knowgget key (Fig. 6 config language): sync peer TTL in
/// seconds.
pub(crate) const SYNC_PEER_TTL_KEY: &str = "Sync.PeerTtl";
/// A-priori knowgget key (Fig. 6 config language): sync beacon cadence in
/// seconds.
pub(crate) const SYNC_BEACON_INTERVAL_KEY: &str = "Sync.BeaconInterval";

/// A-priori knowgget key: cap on distinct entities holding per-entity
/// knowggets in the Knowledge Base. Past the cap, the least-recently
/// written entity is evicted wholesale (see
/// [`crate::knowledge::DEFAULT_KB_ENTITY_BUDGET`]).
pub(crate) const KB_ENTITY_BUDGET_KEY: &str = "KB.PerEntityBudget";

/// A-priori knowgget key: panic allowance before the supervisor
/// quarantines a module.
pub(crate) const SUPERVISOR_PANIC_LIMIT_KEY: &str = "Supervisor.PanicLimit";
/// A-priori knowgget key: optional per-dispatch watchdog budget in
/// milliseconds.
pub(crate) const SUPERVISOR_BUDGET_MS_KEY: &str = "Supervisor.BudgetMs";
/// A-priori knowgget key: sustained ingest rate (packets/second) beyond
/// which overload shedding engages.
pub(crate) const SUPERVISOR_BURST_PPS_KEY: &str = "Supervisor.BurstPps";

/// A-priori knowgget key: head-based causal-trace sampling rate, a
/// fraction in `[0, 1]` of ingested packets whose causal chain (module
/// dispatch, knowledge writes, alerts, sync contributions) is recorded.
/// `0` (the default) disables tracing entirely.
pub(crate) const TRACE_SAMPLE_RATE_KEY: &str = "Trace.SampleRate";

/// A-priori knowgget key: TCP port for the kalis-ops HTTP surface
/// (`/metrics`, `/healthz`, `/readyz`, `/status`) on loopback. Absent,
/// any other `Ops.*` knowgget enables the surface on an ephemeral
/// loopback port. It also overrides the port of an address given to
/// [`KalisBuilder::with_ops`].
pub(crate) const OPS_PORT_KEY: &str = "Ops.Port";
/// A-priori knowgget key: p99 whole-ingest latency target in
/// microseconds for the detection-latency SLO. Setting it turns on the
/// `/status` `slo` posture and the breach/recovery journal events.
pub(crate) const OPS_SLO_KEY: &str = "Ops.LatencySloUs";
/// A-priori knowgget key: how many hot source entities the space-saving
/// sketch monitors (the `kalis_hot_entity` cardinality cap).
pub(crate) const OPS_HOT_ENTITIES_KEY: &str = "Ops.HotEntities";

/// A-priori knowgget key: flight-recorder ring depth in frames. `0`
/// disables the recorder entirely (no sampling, no captures).
pub(crate) const DIAG_RING_DEPTH_KEY: &str = "Diag.RingDepth";
/// A-priori knowgget key: flight-recorder sampling interval in seconds
/// of capture time.
pub(crate) const DIAG_INTERVAL_KEY: &str = "Diag.SnapshotIntervalSecs";
/// A-priori knowgget key: bitmask of armed capture triggers (see
/// [`kalis_telemetry::Trigger::bit`]); defaults to all five armed.
pub(crate) const DIAG_TRIGGER_MASK_KEY: &str = "Diag.TriggerMask";

/// The node's own knowgget contract — the keys [`KalisBuilder::try_build`]
/// and the sync engine touch outside any module: the sync/supervisor
/// tuning knobs (read from a-priori configuration) and the `DegradedMode`
/// flag (written by the sync state machine, consumed by
/// collaborative-only modules). `kalis-lint` folds this into the
/// whole-system analysis alongside the per-module contracts.
pub fn system_contract() -> crate::modules::KnowggetContract {
    use crate::modules::{KnowggetContract, ValueType};
    KnowggetContract::new()
        .reads(SYNC_PEER_TTL_KEY, ValueType::Float)
        .reads(SYNC_BEACON_INTERVAL_KEY, ValueType::Float)
        .reads(KB_ENTITY_BUDGET_KEY, ValueType::Int)
        .reads(SUPERVISOR_PANIC_LIMIT_KEY, ValueType::Int)
        .reads(SUPERVISOR_BUDGET_MS_KEY, ValueType::Int)
        .reads(SUPERVISOR_BURST_PPS_KEY, ValueType::Int)
        .reads(TRACE_SAMPLE_RATE_KEY, ValueType::Float)
        .bounded(0.0, 1.0)
        .reads(OPS_PORT_KEY, ValueType::Int)
        .reads(OPS_SLO_KEY, ValueType::Int)
        .reads(OPS_HOT_ENTITIES_KEY, ValueType::Int)
        .reads(DIAG_RING_DEPTH_KEY, ValueType::Int)
        .reads(DIAG_INTERVAL_KEY, ValueType::Int)
        .reads(DIAG_TRIGGER_MASK_KEY, ValueType::Int)
        .writes(DEGRADED_LABEL, ValueType::Bool)
}

/// Builder for [`Kalis`] nodes.
///
/// # Examples
///
/// ```
/// use kalis_core::{Kalis, KalisId};
/// use kalis_core::config::Config;
///
/// let config: Config = "modules = { TrafficStatsModule } knowggets = { Mobile = false }".parse()?;
/// let kalis = Kalis::builder(KalisId::new("K1"))
///     .with_config(config)
///     .with_default_modules()
///     .try_build()?;
/// assert_eq!(kalis.knowledge().get_bool("Mobile"), Some(false));
/// # Ok::<(), Box<dyn std::error::Error>>(())
/// ```
// kalis-lint: allow(KL306): named by the `pub` signature of `Kalis::builder`
pub struct KalisBuilder {
    id: KalisId,
    config: Config,
    registry: ModuleRegistry,
    load_default_library: bool,
    adaptive: bool,
    window: WindowConfig,
    extra_modules: Vec<(Box<dyn Module>, bool)>,
    ops_bind: Option<SocketAddr>,
    /// Build the reference node of the activation differential test.
    #[cfg(test)]
    pub(super) reference: bool,
}

impl KalisBuilder {
    pub(super) fn new(id: KalisId) -> Self {
        KalisBuilder {
            id,
            config: Config::empty(),
            registry: ModuleRegistry::with_defaults(),
            load_default_library: false,
            adaptive: true,
            window: WindowConfig::default(),
            extra_modules: Vec::new(),
            ops_bind: None,
            #[cfg(test)]
            reference: false,
        }
    }

    /// Apply a parsed configuration file: its modules are constructed and
    /// *pinned* active; its knowggets become a-priori knowledge.
    pub fn with_config(mut self, config: Config) -> Self {
        self.config = config;
        self
    }

    /// Load the entire built-in module library (unpinned: detection
    /// modules activate only when the knowledge requires them).
    pub fn with_default_modules(mut self) -> Self {
        self.load_default_library = true;
        self
    }

    /// Replace the module registry.
    pub fn with_registry(mut self, registry: ModuleRegistry) -> Self {
        self.registry = registry;
        self
    }

    /// Add a custom module instance (`pinned` keeps it always active).
    pub fn with_module(mut self, module: Box<dyn Module>, pinned: bool) -> Self {
        self.extra_modules.push((module, pinned));
        self
    }

    /// Disable knowledge-driven activation: every module is always active.
    /// This is the paper's *traditional IDS* emulation.
    pub fn traditional(mut self) -> Self {
        self.adaptive = false;
        self
    }

    /// Override the Data Store window policy.
    pub fn with_window(mut self, window: WindowConfig) -> Self {
        self.window = window;
        self
    }

    /// Enable the kalis-ops HTTP surface on `bind`: a listener serving
    /// `/metrics`, `/healthz`, `/readyz`, and `/status`, plus the
    /// per-module resource profiler feeding it. Port 0 picks an
    /// ephemeral port (see [`Kalis::ops_addr`]). The address is a
    /// deployment setting the config language cannot express beyond a
    /// loopback port; an `Ops.Port` knowgget overrides its port. The
    /// SLO target and sketch capacity come from the `Ops.*` knowggets
    /// alone.
    pub fn with_ops(mut self, bind: SocketAddr) -> Self {
        self.ops_bind = Some(bind);
        self
    }

    /// Build, surfacing configuration problems.
    ///
    /// # Errors
    ///
    /// Returns [`KalisError::UnknownModule`] when the configuration names
    /// a module absent from the registry, and [`KalisError::Io`] when the
    /// ops listener cannot bind its configured address.
    pub fn try_build(self) -> Result<Kalis, KalisError> {
        let reference = self.is_reference();
        let mut kb = KnowledgeBase::new(self.id.clone());
        // Sync tunables ride the Fig. 6 config language as a-priori
        // knowggets (seconds); they are stored like any knowledge and
        // also applied to the engine. TTL first: it derives the beacon
        // cadence, which an explicit interval then overrides.
        let mut sync_config = SyncConfig::default();
        let numeric_knowgget = |wanted: &str| {
            self.config
                .knowggets
                .iter()
                .find(|(key, _)| key == wanted)
                .and_then(|(_, value)| value.as_f64())
        };
        let positive_knowgget = |wanted: &str| numeric_knowgget(wanted).filter(|n| *n > 0.0);
        if let Some(secs) = positive_knowgget(SYNC_PEER_TTL_KEY) {
            sync_config = sync_config.with_peer_ttl(Duration::from_secs_f64(secs));
        }
        if let Some(secs) = positive_knowgget(SYNC_BEACON_INTERVAL_KEY) {
            sync_config.beacon_interval = Duration::from_secs_f64(secs);
        }
        // Supervisor tunables ride the config language the same way.
        let mut supervisor_config = SupervisorConfig::default();
        if let Some(limit) = positive_knowgget(SUPERVISOR_PANIC_LIMIT_KEY) {
            supervisor_config.panic_limit = limit as u32;
        }
        if let Some(ms) = positive_knowgget(SUPERVISOR_BUDGET_MS_KEY) {
            supervisor_config.budget = Some(Duration::from_secs_f64(ms / 1_000.0));
        }
        if let Some(pps) = positive_knowgget(SUPERVISOR_BURST_PPS_KEY) {
            supervisor_config.burst_pps = pps as u64;
        }
        // The KB's own per-entity budget rides the config language too,
        // applied before the a-priori knowggets land so entity-scoped
        // config knowledge is indexed under the configured cap.
        if let Some(budget) = positive_knowgget(KB_ENTITY_BUDGET_KEY) {
            kb.set_entity_budget(budget as usize);
        }
        // The ops surface rides the config language the same way: any
        // `Ops.*` knowgget enables it, on a loopback ephemeral port
        // unless `Ops.Port` names one; `Ops.Port` also overrides the
        // port of a `with_ops` address.
        let mut ops_bind = self.ops_bind;
        let port = positive_knowgget(OPS_PORT_KEY).filter(|p| *p <= f64::from(u16::MAX));
        let knob = |key| positive_knowgget(key).is_some();
        if port.is_some() || knob(OPS_SLO_KEY) || knob(OPS_HOT_ENTITIES_KEY) {
            let loopback = SocketAddr::from((Ipv4Addr::LOCALHOST, 0));
            let bind = ops_bind.get_or_insert(loopback);
            if let Some(port) = port {
                bind.set_port(port as u16);
            }
        }
        let recorder = housekeeping::recorder_from(numeric_knowgget);
        // The tracing knob rides the config language the same way; only
        // fractions in [0, 1] are honored (kalis-lint flags the rest).
        let tracer = Arc::new(Tracer::new(DEFAULT_TRACE_CAPACITY));
        let sample_rate = numeric_knowgget(TRACE_SAMPLE_RATE_KEY)
            .filter(|fraction| (0.0..=1.0).contains(fraction))
            .map_or_else(SampleRate::off, SampleRate::from_fraction);
        tracer.set_sample_rate(sample_rate);
        let mut manager = if self.adaptive {
            ModuleManager::new()
        } else {
            ModuleManager::all_always_active()
        };
        manager.set_supervisor(supervisor_config);
        let mut pinned_names = Vec::new();
        for def in &self.config.modules {
            let module = self.registry.build(def)?;
            pinned_names.push(def.name.clone());
            manager.add(module, true);
        }
        if self.load_default_library {
            for name in self.registry.names() {
                if pinned_names.iter().any(|p| p == name) {
                    continue;
                }
                let def = ModuleDef::new(name);
                manager.add(self.registry.build(&def)?, false);
            }
        }
        for (module, pinned) in self.extra_modules {
            manager.add(module, pinned);
        }
        // Every slot is loaded: the manager subscribes to the knowledge
        // its modules' activation reads, before any knowledge lands.
        if !reference {
            kb.subscribe_activation(manager.subscriptions());
        }
        for (key, value) in &self.config.knowggets {
            // Config keys may carry an `@entity` suffix but never a
            // creator (paper §IV-B3).
            match key.split_once('@') {
                Some((label, entity)) => {
                    kb.insert_about(label, Entity::from(entity), value.clone());
                }
                None => {
                    kb.insert(key.clone(), value.clone());
                }
            }
        }
        let syncer = CollectiveSync::new(
            self.id.clone(),
            Box::new(XorChannel::new(DEFAULT_SYNC_KEY)),
            sync_config,
        );
        let tele = Arc::new(Telemetry::new());
        kb.set_telemetry(&tele);
        manager.set_telemetry(&tele);
        // Initial activation: every slot, against the a-priori knowledge.
        let trigger = match reference {
            #[cfg(test)]
            true => super::differential::describe_trigger(&kb.drain_changes()),
            _ => kb.trigger(),
        };
        manager.reconfigure_traced(&kb, &trigger, 0);
        kb.end_batch();
        let ops = match ops_bind {
            None => None,
            Some(bind) => {
                let shared = Arc::new(OpsShared::new(self.id.as_str(), Arc::clone(&tele)));
                let server = OpsServer::bind(bind, Arc::clone(&shared))?;
                Some(OpsRuntime::new(server, shared, numeric_knowgget))
            }
        };
        let mut kalis = Kalis {
            id: self.id,
            kb,
            store: DataStore::with_config(self.window),
            manager,
            alerts: Vec::new(),
            pending_alert_cursor: 0,
            provenance: Vec::new(),
            tracer,
            ingest_seq: 0,
            packets: 0,
            current_trace: TraceContext::none(),
            current_packet_seq: None,
            response: ResponseEngine::new(),
            last_tick: None,
            bus: EventBus::new(),
            overload: OverloadController::default(),
            stats: NodeStats::new(&tele),
            sync: SyncLink::new(syncer, &tele),
            housekeeping: Housekeeping::new(recorder, &tele),
            tele,
            ops,
            #[cfg(test)]
            reference,
        };
        // Publish an initial report so `/status` and `/readyz` answer
        // correctly before the first packet or tick.
        kalis.ops_refresh(Timestamp::ZERO, true);
        Ok(kalis)
    }

    /// Whether this builds the reference node of the activation
    /// differential test (never, outside test builds).
    fn is_reference(&self) -> bool {
        #[cfg(test)]
        return self.reference;
        #[cfg(not(test))]
        false
    }

    /// Build, panicking on configuration errors.
    ///
    /// # Panics
    ///
    /// Panics when the configuration names an unknown module; use
    /// [`KalisBuilder::try_build`] to handle that case.
    pub fn build(self) -> Kalis {
        self.try_build().expect("invalid Kalis configuration")
    }
}

impl Kalis {
    /// Derive a minimal static configuration from the knowledge collected
    /// so far: the currently required modules plus the stable single-level
    /// knowggets as a-priori knowledge.
    ///
    /// This realizes the paper's envisioned workflow of "selecting a
    /// specific module configuration — based on the knowledge collected by
    /// Kalis in a network — and ... deploy\[ing\] that configuration at
    /// compile-time on very small devices" (§VIII): the returned
    /// [`Config`] round-trips through the Fig. 6 text format.
    pub fn recommend_config(&self) -> Config {
        let modules = self
            .manager
            .active_defs()
            .into_iter()
            .map(|(name, params)| {
                let mut def = ModuleDef::new(name);
                def.params = params;
                def
            })
            .collect();
        let mut knowggets: Vec<(String, KnowValue)> = self
            .kb
            .iter()
            .filter(|k| {
                // Stable local single-level knowledge only. DegradedMode
                // is runtime sync state, not deployable configuration —
                // baking it into a recommendation would pin a fresh node
                // into degraded mode (and name a knowgget no contract
                // registers as a-priori input).
                k.creator == self.id
                    && k.entity.is_none()
                    && !k.label.contains('.')
                    && k.label != crate::sensing::labels::MONITORED_NODES
                    && k.label != DEGRADED_LABEL
            })
            .map(|k| (k.label, k.value))
            .collect();
        // The sync tunables carry dotted labels (excluded by the filter
        // above) but belong in a deployable config: a node rebuilt from
        // it keeps the same fault-tolerance posture. Normalize through
        // the wire format so the emitted value re-parses to the exact
        // same variant (`12.0` goes out as `12` and comes back as Int).
        let sync = self.sync.engine.config();
        for (key, secs) in [
            (SYNC_PEER_TTL_KEY, sync.peer_ttl.as_secs_f64()),
            (SYNC_BEACON_INTERVAL_KEY, sync.beacon_interval.as_secs_f64()),
        ] {
            knowggets.push((
                key.to_owned(),
                KnowValue::from_wire(&KnowValue::Float(secs).to_wire()),
            ));
        }
        // The supervisor knobs round-trip the same way: a node rebuilt
        // from the recommendation keeps the same crash-loop and overload
        // posture. Quarantined modules were already excluded above
        // (`active_names()` skips them).
        let supervisor = self.manager.supervisor_config();
        knowggets.push((
            SUPERVISOR_PANIC_LIMIT_KEY.to_owned(),
            KnowValue::Int(i64::from(supervisor.panic_limit)),
        ));
        if let Some(budget) = supervisor.budget {
            knowggets.push((
                SUPERVISOR_BUDGET_MS_KEY.to_owned(),
                KnowValue::Int(budget.as_millis() as i64),
            ));
        }
        knowggets.push((
            SUPERVISOR_BURST_PPS_KEY.to_owned(),
            KnowValue::Int(supervisor.burst_pps as i64),
        ));
        // The KB's own per-entity budget rides along when tuned, so a
        // node rebuilt from the recommendation keeps the same
        // state-exhaustion posture.
        if self.kb.entity_budget() != crate::knowledge::DEFAULT_KB_ENTITY_BUDGET {
            knowggets.push((
                KB_ENTITY_BUDGET_KEY.to_owned(),
                KnowValue::Int(self.kb.entity_budget() as i64),
            ));
        }
        // The tracing knob rides along only when sampling is on, so a
        // node rebuilt from the recommendation keeps the same
        // observability posture (and a default node stays on the
        // tracing-off fast path).
        let threshold = self.tracer.sample_rate().threshold();
        if threshold > 0 {
            let fraction = f64::from(threshold) / f64::from(SAMPLE_SCALE);
            knowggets.push((
                TRACE_SAMPLE_RATE_KEY.to_owned(),
                KnowValue::from_wire(&KnowValue::Float(fraction).to_wire()),
            ));
        }
        // The ops knobs ride along when the surface is enabled: the
        // bound port (resolved from 0 to the actual ephemeral one, so a
        // node rebuilt from the recommendation is scrapeable at a known
        // place), the SLO target, and any non-default sketch capacity.
        if let Some(ops) = &self.ops {
            knowggets.push((
                OPS_PORT_KEY.to_owned(),
                KnowValue::Int(i64::from(ops.server.addr().port())),
            ));
            if let Some(slo) = &ops.slo {
                knowggets.push((OPS_SLO_KEY.to_owned(), KnowValue::Int(slo.target_us as i64)));
            }
            if ops.sketch.capacity() != crate::ops::DEFAULT_HOT_ENTITIES {
                knowggets.push((
                    OPS_HOT_ENTITIES_KEY.to_owned(),
                    KnowValue::Int(ops.sketch.capacity() as i64),
                ));
            }
        }
        housekeeping::recommend_diag_knobs(&self.housekeeping.recorder, &mut knowggets);
        Config { modules, knowggets }
    }
}
