//! Standalone legs: single layers of the ingest path driven directly
//! through their public functions, fed the same packets as the node, so
//! the part of `try_ingest` that is not module bodies can be split into
//! store, manager, state accounting, and an unexplained remainder.

use std::sync::Arc;
use std::time::Instant;

use kalis_core::config::ModuleDef;
use kalis_core::knowledge::{KnowValue, Knowgget, KnowledgeBase};
use kalis_core::modules::{ModuleCtx, ModuleManager, ModuleRegistry, OverloadController};
use kalis_core::store::DataStore;
use kalis_core::{siem, Alert, Kalis, KalisId};
use kalis_packets::{CapturedPacket, Timestamp};
use kalis_telemetry::Telemetry;

use crate::trace::{self, timed_registry, SpanId};
use crate::workload::Workload;

/// A bare Data Store with the default window, as the node builds it.
struct StoreLeg {
    store: DataStore,
    push: SpanId,
    state_bytes: SpanId,
    len_sum: u64,
}

impl StoreLeg {
    fn feed(&mut self, packet: CapturedPacket, timed: bool) {
        let start = Instant::now();
        self.store.push(packet);
        let pushed = Instant::now();
        trace::leaf(self.push, start, pushed);
        let bytes = self.store.state_bytes();
        trace::leaf(self.state_bytes, pushed, Instant::now());
        std::hint::black_box(bytes);
        if timed {
            self.len_sum += self.store.len() as u64;
        }
    }
}

/// A bare Module Manager over its own Knowledge Base and overload
/// controller, assembled and driven the way `KalisBuilder::try_build`
/// and `Kalis::ingest` do it.
struct ManagerLeg {
    kb: KnowledgeBase,
    manager: ModuleManager,
    overload: OverloadController,
    alerts: Vec<Alert>,
    last_tick: Option<Timestamp>,
    observe: SpanId,
    dispatch: SpanId,
    reconfigure: SpanId,
    tick: SpanId,
    state_bytes: SpanId,
}

impl ManagerLeg {
    fn new(prefix: &str, mut manager: ModuleManager, registry: &ModuleRegistry) -> ManagerLeg {
        let mut kb = KnowledgeBase::new(KalisId::new("L1"));
        for name in registry.names() {
            let module = registry
                .build(&ModuleDef::new(name))
                .expect("name taken from the registry");
            manager.add(module, false);
        }
        let tele = Arc::new(Telemetry::new());
        kb.set_telemetry(&tele);
        manager.set_telemetry(&tele);
        manager.reconfigure(&kb);
        let span = |what: &str| trace::register(&format!("{prefix}{what}"));
        ManagerLeg {
            kb,
            manager,
            overload: OverloadController::default(),
            alerts: Vec::new(),
            last_tick: None,
            observe: span("overload_observe"),
            dispatch: span("dispatch"),
            reconfigure: span("reconfigure"),
            tick: span("tick"),
            state_bytes: span("state_bytes"),
        }
    }

    fn reconfigure_on_changes(&mut self) {
        if self.kb.has_changes() {
            trace::scope(self.reconfigure, || {
                self.kb.drain_changes();
                self.manager.reconfigure(&self.kb);
            });
        }
    }

    fn feed(&mut self, packet: &CapturedPacket) {
        let now = packet.timestamp;
        let due = self
            .last_tick
            .is_none_or(|last| now.saturating_since(last).as_secs() >= 1);
        if due {
            self.last_tick = Some(now);
            trace::scope(self.tick, || {
                self.manager.dispatch_tick(&mut ModuleCtx {
                    now,
                    kb: &mut self.kb,
                    alerts: &mut self.alerts,
                })
            });
            self.reconfigure_on_changes();
        }
        let start = Instant::now();
        let shed = self.overload.observe(now, self.manager.supervisor_config());
        trace::leaf(self.observe, start, Instant::now());
        trace::scope(self.dispatch, || {
            self.manager.dispatch_packet_shed(
                &mut ModuleCtx {
                    now,
                    kb: &mut self.kb,
                    alerts: &mut self.alerts,
                },
                packet,
                shed,
            )
        });
        self.reconfigure_on_changes();
        let start = Instant::now();
        let bytes = self.manager.state_bytes();
        trace::leaf(self.state_bytes, start, Instant::now());
        std::hint::black_box(bytes);
    }
}

/// Span-name prefix of the adaptive manager leg (modules wrapped).
pub const ADAPTIVE: &str = "standalone.modules.";
/// Span-name prefix of the all-modules-always-on manager leg.
pub const ALL_ON: &str = "standalone.allon.";
pub const STORE_PUSH: &str = "standalone.store.push";
pub const STORE_STATE_BYTES: &str = "standalone.store.state_bytes";

/// Replay node 0's packets of `workload` through the store leg, the
/// adaptive manager leg and the all-on manager leg: warm-up unrecorded,
/// timed span recorded into the installed recorder. Returns the mean
/// Data Store window length over the timed span.
pub fn replay_legs(workload: &Workload) -> f64 {
    let mut store = StoreLeg {
        store: DataStore::new(),
        push: trace::register(STORE_PUSH),
        state_bytes: trace::register(STORE_STATE_BYTES),
        len_sum: 0,
    };
    let mut adaptive = ManagerLeg::new(ADAPTIVE, ModuleManager::new(), &timed_registry(ADAPTIVE));
    // Wrapped too, so both legs carry the same stopwatch cost.
    let mut all_on = ManagerLeg::new(
        ALL_ON,
        ModuleManager::all_always_active(),
        &timed_registry(ALL_ON),
    );
    trace::stop_keeping();
    trace::set_recording(false);
    let mut fed = 0u64;
    for (i, op) in workload.ops.iter().enumerate() {
        if op.node != 0 {
            continue;
        }
        let timed = i >= workload.warmup;
        if i == workload.warmup {
            trace::set_recording(true);
        }
        fed += u64::from(timed);
        let packet = op.frame.capture();
        adaptive.feed(&packet);
        all_on.feed(&packet);
        store.feed(packet, timed);
    }
    store.len_sum as f64 / fed.max(1) as f64
}

/// Mean ns of `f(0) … f(calls - 1)`.
fn mean_ns(calls: usize, mut f: impl FnMut(usize)) -> f64 {
    let start = Instant::now();
    for i in 0..calls {
        f(i);
    }
    start.elapsed().as_nanos() as f64 / calls.max(1) as f64
}

/// Mean ns per call on a Knowledge Base holding a node's final keys.
pub struct KnowledgeCosts {
    pub get_ns: f64,
    pub insert_ns: f64,
    pub state_bytes_ns: f64,
}

/// Time get, insert and `state_bytes()` on a fresh Knowledge Base filled
/// with `node`'s final keys. Inserts write a new value every round, so
/// each one takes the change path (revision bump, change log, entity
/// index).
pub fn knowledge_costs(node: &Kalis) -> KnowledgeCosts {
    const ROUNDS: usize = 8;
    let items: Vec<Knowgget> = node.knowledge().iter().collect();
    let calls = ROUNDS * items.len();
    let mut kb = KnowledgeBase::new(node.id().clone());
    let put = |kb: &mut KnowledgeBase, k: &Knowgget, value: KnowValue| match &k.entity {
        Some(entity) => kb.insert_about(k.label.as_str(), entity.clone(), value),
        None => kb.insert(k.label.as_str(), value),
    };
    for k in &items {
        put(&mut kb, k, k.value.clone());
    }
    let get_ns = mean_ns(calls, |i| {
        let k = &items[i % items.len()];
        std::hint::black_box(match &k.entity {
            Some(entity) => kb.get_about(&k.label, entity),
            None => kb.get(&k.label),
        });
    });
    let state_bytes_ns = mean_ns(ROUNDS * 64, |_| {
        std::hint::black_box(kb.state_bytes());
    });
    let insert_ns = mean_ns(calls, |i| {
        let round = (i / items.len()) as i64;
        put(&mut kb, &items[i % items.len()], KnowValue::Int(round));
        if kb.has_changes() {
            kb.drain_changes();
        }
    });
    KnowledgeCosts {
        get_ns,
        insert_ns,
        state_bytes_ns,
    }
}

/// `(snapshot, prometheus export)` mean ns on the node's registry.
pub fn telemetry_costs(node: &Kalis) -> (f64, f64) {
    const CALLS: usize = 20;
    let tele = node.telemetry();
    let snapshot_ns = mean_ns(CALLS, |_| {
        std::hint::black_box(tele.snapshot());
    });
    let snapshot = tele.snapshot();
    let export_ns = mean_ns(CALLS, |_| {
        std::hint::black_box(snapshot.to_prometheus());
    });
    (snapshot_ns, export_ns)
}

/// Mean ns to render one raised alert as CEF.
pub fn cef_cost(alerts: &[Alert]) -> f64 {
    mean_ns(alerts.len(), |i| {
        std::hint::black_box(siem::to_cef(&alerts[i]));
    })
}
