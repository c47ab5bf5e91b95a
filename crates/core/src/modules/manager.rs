//! The Module Manager: routes each packet to the active modules that
//! read its frame class and re-evaluates activation whenever the
//! Knowledge Base changes.
//!
//! Every dispatch is supervised (see [`super::supervisor`]): panics are
//! caught and isolated, watchdog-budget overruns are tracked, crash-looping
//! modules are quarantined with exponential backoff, and under overload
//! unpinned detection modules see sampled dispatch in priority order.

use core::time::Duration;
use std::panic::{catch_unwind, AssertUnwindSafe};
use std::sync::Arc;
use std::time::Instant;

use kalis_packets::{CapturedPacket, Timestamp};
use kalis_telemetry::{metric_name, names, Counter, Gauge, Histogram, JournalEvent, Telemetry};

use crate::knowledge::{KnowledgeBase, SlotSet, Subscriptions};

use super::supervisor::{
    ModuleHealth, ShedMode, Supervision, SupervisorConfig, SupervisorVerdict, SHED_SAMPLE,
};
use super::{FrameClass, Module, ModuleCtx, ModuleDescriptor, ModuleKind, ModuleWeight};

/// One loaded module and everything the manager keeps about it.
struct Slot {
    module: Box<dyn Module>,
    /// The module's descriptor, read once when the slot is added.
    descriptor: ModuleDescriptor,
    active: bool,
    /// Activated by configuration: stays on regardless of knowledge.
    pinned: bool,
    /// Panic/budget/quarantine bookkeeping for this module.
    supervision: Supervision,
    /// Shed-eligible dispatches seen; drives the deterministic 1-in-N
    /// sampling while shedding.
    shed_seq: u64,
    /// Dispatches that consumed work (completed or panicked part-way).
    dispatches: u64,
    /// The module's `on_tick` said it has no tick work (the trait's
    /// default body): its ticks are counted, not called.
    no_tick_work: bool,
    tele: SlotTele,
}

impl Slot {
    /// In the dispatch set: active, and not benched by the supervisor.
    fn is_active(&self) -> bool {
        self.active && !self.supervision.is_quarantined()
    }
}

/// Cached per-module instrument handles (`...[module=<name>]`).
struct SlotTele {
    /// `dispatch.packet` / `dispatch.tick` latency series.
    packet_hist: Arc<Histogram>,
    tick_hist: Arc<Histogram>,
    /// `supervisor.shed` counter: the slot's dispatches skipped by
    /// overload shedding.
    shed: Arc<Counter>,
    /// `module.cpu_ns` counter: the slot's measured CPU self-time, ns.
    /// Only timed dispatches contribute (see [`DISPATCH_SAMPLE_MASK`]),
    /// so this is a sampled lower bound on true self-time.
    cpu: Arc<Counter>,
}

impl SlotTele {
    fn new(registry: &Telemetry, module: &str) -> Self {
        let name = |family: &str| metric_name(family, &[("module", module)]);
        SlotTele {
            packet_hist: registry.histogram(&name(names::DISPATCH_PACKET)),
            tick_hist: registry.histogram(&name(names::DISPATCH_TICK)),
            shed: registry.counter(&name(names::SHED_BY_MODULE)),
            cpu: registry.counter(&name(names::MODULE_CPU_NS)),
        }
    }
}

/// Cached instrument handles for the manager itself: the one holder of
/// its lifetime activation and supervisor totals.
struct ManagerTele {
    registry: Arc<Telemetry>,
    activated: Arc<Counter>,
    deactivated: Arc<Counter>,
    active: Arc<Gauge>,
    panics: Arc<Counter>,
    overruns: Arc<Counter>,
    quarantines: Arc<Counter>,
    shed_skips: Arc<Counter>,
}

impl ManagerTele {
    fn new(registry: &Arc<Telemetry>) -> Self {
        ManagerTele {
            registry: Arc::clone(registry),
            activated: registry.counter(names::MODULES_ACTIVATED),
            deactivated: registry.counter(names::MODULES_DEACTIVATED),
            active: registry.gauge(names::MODULES_ACTIVE),
            panics: registry.counter(names::MODULE_PANICS),
            overruns: registry.counter(names::BUDGET_OVERRUNS),
            quarantines: registry.counter(names::MODULE_QUARANTINES),
            shed_skips: registry.counter(names::SHED_SKIPS),
        }
    }

    fn journal(&self, time_us: u64, event: JournalEvent) {
        self.registry.journal().record(time_us, event);
    }

    fn note_probation(&self, now: Timestamp, module: &str) {
        self.journal(
            now.as_micros(),
            JournalEvent::ModuleProbation {
                module: module.to_string(),
            },
        );
    }

    fn note_panicked(&self, now: Timestamp, module: &str, message: &str) {
        self.panics.inc();
        self.journal(
            now.as_micros(),
            JournalEvent::ModulePanicked {
                module: module.to_string(),
                message: message.to_string(),
            },
        );
    }

    fn note_quarantined(&self, now: Timestamp, module: &str, reason: String, backoff: Duration) {
        self.quarantines.inc();
        self.journal(
            now.as_micros(),
            JournalEvent::ModuleQuarantined {
                module: module.to_string(),
                reason,
                backoff_ms: backoff.as_millis() as u64,
            },
        );
    }
}

/// Counters describing one packet dispatch.
#[derive(Debug, Clone, Copy, Default, PartialEq, Eq)]
// kalis-lint: allow(KL306): named by the `pub` signature of `ModuleManager::dispatch_packet_shed`
pub struct DispatchOutcome {
    /// Modules that processed the packet to completion.
    pub(crate) modules_run: u64,
    /// Modules whose handler panicked; the unwind was caught, the
    /// module's state reset, and the node kept going. Panicked
    /// dispatches still cost work (they ran until the panic), so
    /// `work.units` counts `modules_run + modules_panicked`.
    pub(crate) modules_panicked: u64,
    /// Modules skipped by overload shedding. Shed dispatches cost no
    /// work and are *not* part of `work.units`.
    pub(crate) modules_shed: u64,
}

impl DispatchOutcome {
    /// Dispatches that consumed CPU (completed or panicked part-way) —
    /// the value `ResourceMeter` charges as `work.units`.
    pub fn work_units(&self) -> u64 {
        self.modules_run + self.modules_panicked
    }
}

/// Point-in-time resource and health profile of one loaded module,
/// assembled by [`ModuleManager::module_profiles`] for the ops surface.
#[derive(Debug, Clone, PartialEq, Eq)]
// kalis-lint: allow(KL306): named by the `pub` signature of `ModuleManager::module_profiles`
pub struct ModuleProfile {
    /// Registry name.
    pub name: &'static str,
    /// Sensing or detection.
    pub kind: ModuleKind,
    /// Pinned by configuration (always on, never shed).
    pub pinned: bool,
    /// Currently in the dispatch set.
    pub active: bool,
    /// Supervisor health state.
    pub health: ModuleHealth,
    /// Cumulative measured CPU self-time, ns (sampled lower bound): the
    /// module's `module.cpu_ns` counter.
    pub cpu_ns: u64,
    /// Dispatches that consumed work (completed or panicked part-way).
    pub(crate) dispatches: u64,
    /// Dispatches skipped by overload shedding: the module's
    /// `supervisor.shed` counter.
    pub(crate) sheds: u64,
    /// Entries currently held in the module's per-entity tracking maps.
    pub occupancy: usize,
    /// Entries evicted from bounded per-entity structures to stay
    /// within the state budget (zeroed by a module reset).
    pub evictions: u64,
    /// The configured per-entity state budget (0 = unbudgeted module).
    pub state_budget: usize,
    /// Rough live-state size, bytes.
    pub state_bytes: usize,
}

/// Coordinates the module library (paper §IV-B4): "activating/deactivating
/// them as needed, depending on changes in the Knowledge Base, routing new
/// packet events to all the interested parties, and collecting alerts".
pub struct ModuleManager {
    slots: Vec<Slot>,
    /// When `false`, knowledge-driven activation is disabled and every
    /// module is always active — the *traditional IDS* emulation used by
    /// the paper's evaluation ("running our system without Knowledge Base,
    /// and with all the modules active at all times").
    adaptive: bool,
    supervisor: SupervisorConfig,
    /// A private registry until [`ModuleManager::set_telemetry`] attaches
    /// the node's.
    tele: ManagerTele,
    /// Packet and tick dispatch sequence numbers driving latency
    /// sampling — apart, so that traffic at a fixed number of packets a
    /// tick cannot keep every tick in, or out of, the sample.
    dispatch_seq: u64,
    tick_seq: u64,
    /// Slots in quarantine, kept where `supervise` flips and releases
    /// them: read on every packet, it walks no slots.
    quarantined: usize,
}

/// Per-module dispatch latency is sampled on one packet, and one tick,
/// in `DISPATCH_SAMPLE_MASK + 1`: clock reads are the dominant
/// instrumentation cost (N modules need N+1 reads, and a recorded call
/// a histogram update and a `module.cpu_ns` add on top), and sampling
/// keeps them off the common path while the histograms stay
/// statistically representative. (When a watchdog budget is configured,
/// every dispatch is timed regardless — the budget check cannot sample.)
const DISPATCH_SAMPLE_MASK: u64 = 7;

/// Advance `seq` and say whether the dispatch it numbers is sampled.
fn sampled(seq: &mut u64) -> bool {
    *seq = seq.wrapping_add(1);
    *seq & DISPATCH_SAMPLE_MASK == 0
}

/// Human-readable panic payload for the journal.
fn panic_message(payload: &(dyn std::any::Any + Send)) -> String {
    if let Some(s) = payload.downcast_ref::<&str>() {
        (*s).to_string()
    } else if let Some(s) = payload.downcast_ref::<String>() {
        s.clone()
    } else {
        "<non-string panic payload>".to_string()
    }
}

/// Keep one dispatch in N for this weight class under `mode`, or `None`
/// when the class is not shed at all.
fn shed_keep_interval(weight: ModuleWeight, mode: ShedMode) -> Option<u64> {
    let n = SHED_SAMPLE;
    match (mode, weight) {
        (ShedMode::None, _) => None,
        (ShedMode::Heavy, ModuleWeight::Light) => None,
        (ShedMode::Heavy, ModuleWeight::Heavy) => Some(n),
        (ShedMode::All, ModuleWeight::Light) => Some(n),
        (ShedMode::All, ModuleWeight::Heavy) => Some(n * 4),
    }
}

impl ModuleManager {
    /// An adaptive (knowledge-driven) manager.
    pub fn new() -> Self {
        ModuleManager {
            slots: Vec::new(),
            adaptive: true,
            supervisor: SupervisorConfig::default(),
            tele: ManagerTele::new(&Arc::new(Telemetry::new())),
            dispatch_seq: 0,
            tick_seq: 0,
            quarantined: 0,
        }
    }

    /// A manager with every module always active (the traditional-IDS
    /// baseline configuration).
    pub fn all_always_active() -> Self {
        ModuleManager {
            adaptive: false,
            ..ModuleManager::new()
        }
    }

    /// Replace the supervisor tuning knobs.
    pub(crate) fn set_supervisor(&mut self, cfg: SupervisorConfig) {
        self.supervisor = cfg;
    }

    /// The supervisor tuning knobs in effect.
    pub fn supervisor_config(&self) -> &SupervisorConfig {
        &self.supervisor
    }

    /// Add a module. `pinned` modules (named in the configuration file)
    /// start active and stay active.
    pub fn add(&mut self, module: Box<dyn Module>, pinned: bool) {
        let descriptor = module.descriptor();
        let active = pinned || !self.adaptive || descriptor.kind == ModuleKind::Sensing;
        let tele = SlotTele::new(&self.tele.registry, descriptor.name);
        self.slots.push(Slot {
            module,
            descriptor,
            active,
            pinned,
            supervision: Supervision::default(),
            shed_seq: 0,
            dispatches: 0,
            no_tick_work: false,
            tele,
        });
        self.tele.active.set(self.active_count() as u64);
    }

    /// Attach the node's telemetry registry in place of the manager's
    /// private one: per-module dispatch latency, the supervisor and
    /// activation totals, and the journal of every activation flip and
    /// supervisor verdict are recorded there from now on.
    pub fn set_telemetry(&mut self, registry: &Arc<Telemetry>) {
        self.tele = ManagerTele::new(registry);
        for slot in &mut self.slots {
            slot.tele = SlotTele::new(registry, slot.descriptor.name);
        }
        self.tele.active.set(self.active_count() as u64);
    }

    /// The subscription table of the slots loaded so far: for every
    /// slot knowledge can switch (unpinned detection modules of an
    /// adaptive manager), the activation inputs its module's descriptor
    /// declares — the labels of the features it
    /// [`needs`](super::ModuleDescriptor::needs), which
    /// [`Module::required`] reads. A slot that declares none (an
    /// embedder's module with the default descriptor) subscribes to every
    /// change. And for every slot, the exact labels its contract reads
    /// collectively and those its descriptor
    /// [`asserts`](super::ModuleDescriptor::asserts), which the Knowledge
    /// Base then watches ([`KnowledgeBase::last_changed`]). Compile it
    /// again after [`ModuleManager::add`].
    pub fn subscriptions(&self) -> Subscriptions {
        let mut table = Subscriptions::new(self.slots.len());
        for (index, slot) in self.slots.iter().enumerate() {
            let contract = slot.module.contract();
            // What any loaded module correlates across creators, or keeps
            // asserting, is watched, whether or not knowledge switches
            // the module.
            for read in contract.reads.iter().filter(|read| read.collective) {
                if let super::KeyPattern::Exact(label) = &read.pattern {
                    table.watch(label);
                }
            }
            let descriptor = &slot.descriptor;
            for label in descriptor.asserts {
                table.watch(label);
            }
            let switched =
                self.adaptive && !slot.pinned && descriptor.kind == ModuleKind::Detection;
            if !switched {
                continue;
            }
            let mut declared = false;
            for label in descriptor.activation_labels() {
                table.subscribe(label, index);
                declared = true;
            }
            if !declared {
                table.subscribe_all(index);
            }
        }
        table
    }

    /// [`ModuleManager::subscriptions`] by name: each subscribed label
    /// (`*` for every change) with the modules re-evaluated when it
    /// changes.
    pub fn subscriptions_by_name(&self) -> Vec<(String, Vec<&'static str>)> {
        let named = |(label, slots): (Option<&str>, Vec<usize>)| {
            let label = label.unwrap_or("*").to_owned();
            let modules = (slots.iter()).map(|slot| self.name_of(*slot)).collect();
            (label, modules)
        };
        self.subscriptions()
            .edges()
            .into_iter()
            .map(named)
            .collect()
    }

    /// Re-evaluate every module's activation against the Knowledge Base.
    /// Returns `(activated, deactivated)` counts for this pass.
    pub fn reconfigure(&mut self, kb: &KnowledgeBase) -> (usize, usize) {
        self.reconfigure_traced(kb, "", 0)
    }

    /// Like [`ModuleManager::reconfigure`], but journals every activation
    /// flip with the knowgget change(s) that triggered it and the capture
    /// time — the audit trail of the knowledge-driven adaptation loop.
    pub(crate) fn reconfigure_traced(
        &mut self,
        kb: &KnowledgeBase,
        trigger: &str,
        time_us: u64,
    ) -> (usize, usize) {
        self.evaluate(kb, None, &|| trigger.to_owned(), time_us)
    }

    /// The subscriber's pass: re-evaluate the slots `kb` holds pending —
    /// those a change recorded since the last pass concerns by the table
    /// [`ModuleManager::subscriptions`] compiled, and those released from
    /// quarantine — journal the flips against the batch of changes, and
    /// close the batch. Most batches concern no slot and cost nothing
    /// here.
    pub(crate) fn reconfigure_pending(
        &mut self,
        kb: &mut KnowledgeBase,
        time_us: u64,
    ) -> (usize, usize) {
        let flips = match kb.pending() {
            Some(pending) => self.evaluate(kb, Some(pending), &|| kb.trigger(), time_us),
            None => (0, 0),
        };
        kb.end_batch();
        flips
    }

    /// Set the slots in `only` (every slot, when `None`) to what their
    /// modules require of `kb`, journaling each flip against `trigger`,
    /// which is spelled out at the first flip.
    fn evaluate(
        &mut self,
        kb: &KnowledgeBase,
        only: Option<&SlotSet>,
        trigger: &dyn Fn() -> String,
        time_us: u64,
    ) -> (usize, usize) {
        if !self.adaptive {
            return (0, 0);
        }
        let tele = &self.tele;
        let mut activated = 0;
        let mut deactivated = 0;
        let mut trigger_text = None;
        for (index, slot) in self.slots.iter_mut().enumerate() {
            if only.is_some_and(|only| !only.contains(index)) {
                continue;
            }
            // Quarantined modules sit out activation entirely: the
            // supervisor owns their lifecycle until probation.
            if slot.supervision.is_quarantined() {
                continue;
            }
            // Sensing modules are the knowledge source; they stay on.
            let want = slot.pinned
                || slot.descriptor.kind == ModuleKind::Sensing
                || slot.module.required(kb);
            if want == slot.active {
                continue;
            }
            slot.active = want;
            let module = slot.descriptor.name.to_string();
            let trigger = trigger_text.get_or_insert_with(trigger).clone();
            let event = if want {
                activated += 1;
                tele.activated.inc();
                JournalEvent::ModuleActivated { module, trigger }
            } else {
                deactivated += 1;
                tele.deactivated.inc();
                JournalEvent::ModuleDeactivated { module, trigger }
            };
            tele.journal(time_us, event);
        }
        if activated + deactivated > 0 {
            self.tele.active.set(self.active_count() as u64);
        }
        (activated, deactivated)
    }

    /// Route one packet to every active module that reads its
    /// [`FrameClass`], under the given shed mode. Every module call is
    /// supervised: panics are caught and isolated, budget overruns
    /// tracked, quarantined modules skipped (and released to probation
    /// when their backoff expires, whatever the frame).
    pub fn dispatch_packet_shed(
        &mut self,
        ctx: &mut ModuleCtx<'_>,
        packet: &CapturedPacket,
        shed: ShedMode,
    ) -> DispatchOutcome {
        let record = sampled(&mut self.dispatch_seq);
        self.supervise(
            ctx,
            shed,
            record,
            Some(FrameClass::of(packet)),
            |t| &t.packet_hist,
            |module, ctx| module.on_packet(ctx, packet),
        )
    }

    /// Route a tick to every active module, whatever frame classes it
    /// reads. Supervised like packet dispatch (panic isolation, budgets,
    /// quarantine, latency sampled by the same rule) but never shed:
    /// ticks drive window expiry.
    /// A module whose `on_tick` said it has no tick work is not called;
    /// its tick is accounted as a call that completed at once.
    pub fn dispatch_tick(&mut self, ctx: &mut ModuleCtx<'_>) -> DispatchOutcome {
        let record = sampled(&mut self.tick_seq);
        self.supervise(
            ctx,
            ShedMode::None,
            record,
            None,
            |t| &t.tick_hist,
            |module, ctx| module.on_tick(ctx),
        )
    }

    /// The supervise policy behind both entry points: run `call` on
    /// every active module that is neither quarantined nor shed and, for
    /// a packet of `frame` class, reads that class; `frame` is `None`
    /// for a tick. With `record` set each completed call's latency goes
    /// to the slot's `hist` series; calls are timed when recorded or when
    /// a watchdog budget is configured. On a tick, a slot without tick work goes
    /// through the same accounting — dispatch and work counted, latency
    /// timed and recorded, clean streak advanced — with no call.
    fn supervise(
        &mut self,
        ctx: &mut ModuleCtx<'_>,
        shed: ShedMode,
        record: bool,
        frame: Option<FrameClass>,
        hist: impl Fn(&SlotTele) -> &Histogram,
        mut call: impl FnMut(&mut dyn Module, &mut ModuleCtx<'_>),
    ) -> DispatchOutcome {
        let mut outcome = DispatchOutcome::default();
        let cfg = &self.supervisor;
        let tele = &self.tele;
        let budget = cfg.budget;
        let tick = frame.is_none();
        // kalis-lint: allow(KL302): measures real CPU cost for the supervisor budget
        let mut prev = (record || budget.is_some()).then(Instant::now);
        let mut quarantine_flips: usize = 0;
        let mut quarantine_releases: usize = 0;
        for (index, slot) in self.slots.iter_mut().enumerate() {
            if !slot.active {
                continue;
            }
            let name = slot.descriptor.name;
            if slot.supervision.is_quarantined() {
                if !slot.supervision.try_release(ctx.now, cfg) {
                    continue;
                }
                quarantine_releases += 1;
                // Reconfiguration passed the slot over while it sat in
                // quarantine: whatever its activation inputs did in the
                // meantime is looked at after this dispatch.
                ctx.kb.mark_pending(index);
                tele.note_probation(ctx.now, name);
            }
            // Routing: a packet reaches only the modules that read its
            // class — no call, no dispatch, no shed, no shed step.
            if frame.is_some_and(|class| !slot.descriptor.reads.intersects(class)) {
                continue;
            }
            // Shed gate: sensing and pinned modules always run; unpinned
            // detection modules see deterministic 1-in-N sampling while
            // the overload controller is shedding.
            if slot.descriptor.kind == ModuleKind::Detection && !slot.pinned {
                if let Some(keep) = shed_keep_interval(slot.descriptor.weight, shed) {
                    let seq = slot.shed_seq;
                    slot.shed_seq = slot.shed_seq.wrapping_add(1);
                    if seq % keep != 0 {
                        outcome.modules_shed += 1;
                        tele.shed_skips.inc();
                        slot.tele.shed.inc();
                        continue;
                    }
                }
            }
            let result = if tick && slot.no_tick_work {
                Ok(())
            } else {
                // Attribute KB writes from the callback to this module, so
                // alert provenance can name who produced each knowgget.
                ctx.kb.set_writer(name);
                let module = slot.module.as_mut();
                let result = catch_unwind(AssertUnwindSafe(|| call(module, ctx)));
                // Taken after every call, so that no report outlives it.
                let idle = ctx.kb.take_no_tick_work();
                slot.no_tick_work |= tick && idle;
                result
            };
            // Timing: consecutive `Instant::now()` reads so N modules
            // cost N+1 clock reads, not 2N.
            let elapsed = prev.as_mut().map(|p| {
                let now = Instant::now(); // kalis-lint: allow(KL302): supervisor cost probe
                let e = now - *p;
                *p = now;
                e
            });
            slot.dispatches += 1;
            if let Some(e) = elapsed {
                slot.tele.cpu.add(e.as_nanos() as u64);
            }
            // A strike (overrun or panic) yields the supervisor's verdict
            // and, for a panic, its message.
            let strike = match result {
                Ok(()) => {
                    outcome.modules_run += 1;
                    if let (true, Some(e)) = (record, elapsed) {
                        hist(&slot.tele).record(e.as_nanos() as u64);
                    }
                    if matches!((elapsed, budget), (Some(e), Some(b)) if e > b) {
                        tele.overruns.inc();
                        Some((slot.supervision.note_overrun(ctx.now), None))
                    } else {
                        slot.supervision.note_clean();
                        None
                    }
                }
                Err(payload) => {
                    outcome.modules_panicked += 1;
                    let message = panic_message(payload.as_ref());
                    // The unwind may have left analysis state
                    // half-updated; drop it before the next dispatch.
                    slot.module.reset();
                    let verdict = slot.supervision.note_panic(ctx.now, cfg);
                    tele.note_panicked(ctx.now, name, &message);
                    Some((verdict, Some(message)))
                }
            };
            if let Some((SupervisorVerdict::Quarantined { backoff, .. }, panic)) = strike {
                quarantine_flips += 1;
                let reason = match panic {
                    Some(message) => format!("panic: {message}"),
                    None => "repeated watchdog budget overruns".to_string(),
                };
                tele.note_quarantined(ctx.now, name, reason, backoff);
            }
        }
        ctx.kb.clear_writer();
        if quarantine_flips + quarantine_releases > 0 {
            self.quarantined += quarantine_flips;
            self.quarantined -= quarantine_releases;
            debug_assert_eq!(self.quarantined, self.recount_quarantined());
            self.tele.active.set(self.active_count() as u64);
        }
        outcome
    }

    /// The descriptor and contract of the named module, if loaded — how
    /// the provenance assembler knows which KB keys an alerting module
    /// consulted.
    pub(crate) fn declaration_of(
        &self,
        name: &str,
    ) -> Option<(&ModuleDescriptor, super::KnowggetContract)> {
        (self.slots.iter())
            .find(|s| s.descriptor.name == name)
            .map(|s| (&s.descriptor, s.module.contract()))
    }

    /// Whether the named module is currently active.
    #[cfg(test)]
    pub(crate) fn is_active(&self, name: &str) -> bool {
        (self.slots.iter()).any(|s| s.is_active() && s.descriptor.name == name)
    }

    /// Number of modules currently active (quarantined modules are not
    /// active: they are excluded from dispatch until probation).
    pub(crate) fn active_count(&self) -> usize {
        self.slots.iter().filter(|s| s.is_active()).count()
    }

    /// Total number of modules loaded.
    pub fn len(&self) -> usize {
        self.slots.len()
    }

    /// Whether no modules are loaded.
    pub fn is_empty(&self) -> bool {
        self.slots.is_empty()
    }

    /// Names of the currently active modules (excluding quarantined
    /// ones, so `recommend_config()` never recommends a module the
    /// supervisor has benched).
    pub(crate) fn active_names(&self) -> Vec<&'static str> {
        (self.slots.iter())
            .filter(|s| s.is_active())
            .map(|s| s.descriptor.name)
            .collect()
    }

    /// `(name, current non-default parameters)` for every active module
    /// — the parameterized module list `recommend_config` emits, so
    /// tuned knobs (thresholds, entity budgets) survive the round-trip.
    pub(crate) fn active_defs(
        &self,
    ) -> Vec<(&'static str, Vec<(String, crate::knowledge::KnowValue)>)> {
        (self.slots.iter())
            .filter(|s| s.is_active())
            .map(|s| (s.descriptor.name, s.module.current_params()))
            .collect()
    }

    /// Names of the currently quarantined modules.
    pub(crate) fn quarantined_names(&self) -> Vec<&'static str> {
        (self.slots.iter())
            .filter(|s| s.supervision.is_quarantined())
            .map(|s| s.descriptor.name)
            .collect()
    }

    /// The quarantined slots that are *pinned* by configuration; nothing
    /// is allocated while there are none. The operator asked for these
    /// explicitly, so losing one flips `/readyz` — an unpinned module
    /// benched by the supervisor only degrades the node.
    pub(crate) fn quarantined_pinned(&self) -> SlotSet {
        let mut slots = SlotSet::default();
        if self.quarantined == 0 {
            return slots;
        }
        for (index, slot) in self.slots.iter().enumerate() {
            if slot.pinned && slot.supervision.is_quarantined() {
                slots.insert(index);
            }
        }
        slots
    }

    /// The name of the module loaded in `slot`.
    ///
    /// # Panics
    ///
    /// When no such slot is loaded.
    pub(crate) fn name_of(&self, slot: usize) -> &'static str {
        self.slots[slot].descriptor.name
    }

    /// Resource and health profiles for every loaded module, in load
    /// order — the per-module view `/status` serves.
    pub fn module_profiles(&self) -> Vec<ModuleProfile> {
        self.slots
            .iter()
            .map(|s| ModuleProfile {
                name: s.descriptor.name,
                kind: s.descriptor.kind,
                pinned: s.pinned,
                active: s.is_active(),
                health: s.supervision.health(),
                cpu_ns: s.tele.cpu.get(),
                dispatches: s.dispatches,
                sheds: s.tele.shed.get(),
                occupancy: s.module.occupancy(),
                evictions: s.module.evictions(),
                state_budget: s.module.state_budget(),
                state_bytes: s.module.state_bytes(),
            })
            .collect()
    }

    /// The tick's one look at the slot table: every loaded module's
    /// cumulative evictions into `evictions`, in load order (what the
    /// eviction audit needs of [`ModuleManager::module_profiles`]), and
    /// [`ModuleManager::state_bytes`] as the result.
    pub(crate) fn state_and_evictions(&self, evictions: &mut Vec<u64>) -> usize {
        evictions.clear();
        let mut bytes = 0;
        for slot in &self.slots {
            evictions.push(slot.module.evictions());
            bytes += slot.module.state_bytes();
        }
        bytes
    }

    /// Number of currently quarantined modules.
    pub(crate) fn quarantined_count(&self) -> usize {
        self.quarantined
    }

    /// `quarantined` recounted by walking the slots.
    fn recount_quarantined(&self) -> usize {
        (self.slots.iter())
            .filter(|s| s.supervision.is_quarantined())
            .count()
    }

    /// The supervision health of the named module.
    #[cfg(test)]
    pub(crate) fn module_health(&self, name: &str) -> Option<ModuleHealth> {
        (self.slots.iter())
            .find(|s| s.descriptor.name == name)
            .map(|s| s.supervision.health())
    }

    /// Rough live-state size across modules (RAM proxy). Inactive modules
    /// still hold their (small) idle state.
    pub fn state_bytes(&self) -> usize {
        self.slots.iter().map(|s| s.module.state_bytes()).sum()
    }
}

impl Default for ModuleManager {
    fn default() -> Self {
        Self::new()
    }
}

impl core::fmt::Debug for ModuleManager {
    fn fmt(&self, f: &mut core::fmt::Formatter<'_>) -> core::fmt::Result {
        f.debug_struct("ModuleManager")
            .field("modules", &self.slots.len())
            .field("active", &self.active_count())
            .field("quarantined", &self.quarantined_count())
            .field("adaptive", &self.adaptive)
            .finish()
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::alert::AttackKind;
    use crate::id::KalisId;
    use crate::modules::supervisor::{BACKOFF_BASE, HEAL_STREAK, OVERRUN_LIMIT};
    use crate::modules::ModuleDescriptor;
    use bytes::Bytes;
    use core::time::Duration;
    use kalis_packets::{Medium, Timestamp};

    /// A detection module active only when `Multihop == true`.
    struct NeedsMultihop {
        processed: u64,
    }

    impl Module for NeedsMultihop {
        fn descriptor(&self) -> ModuleDescriptor {
            ModuleDescriptor::detection("NeedsMultihop", AttackKind::Smurf)
        }
        fn required(&self, kb: &KnowledgeBase) -> bool {
            kb.get_bool("Multihop") == Some(true)
        }
        fn on_packet(&mut self, _ctx: &mut ModuleCtx<'_>, _packet: &CapturedPacket) {
            self.processed += 1;
        }
    }

    /// A module that panics on every Nth packet.
    struct Crashy {
        seen: u64,
        every: u64,
        resets: std::sync::Arc<std::sync::atomic::AtomicU64>,
    }

    impl Module for Crashy {
        fn descriptor(&self) -> ModuleDescriptor {
            ModuleDescriptor::detection("Crashy", AttackKind::Smurf)
        }
        fn on_packet(&mut self, _ctx: &mut ModuleCtx<'_>, _packet: &CapturedPacket) {
            self.seen += 1;
            if self.seen % self.every == 0 {
                panic!("crafted packet tripped Crashy");
            }
        }
        fn reset(&mut self) {
            self.resets
                .fetch_add(1, std::sync::atomic::Ordering::Relaxed);
        }
    }

    fn packet() -> CapturedPacket {
        CapturedPacket::capture(Timestamp::ZERO, Medium::Wifi, None, "w", Bytes::new())
    }

    fn ctx_parts() -> (KnowledgeBase, Vec<crate::alert::Alert>) {
        (KnowledgeBase::new(KalisId::new("K1")), Vec::new())
    }

    /// Suppress the default panic-to-stderr hook for tests that
    /// intentionally panic inside modules.
    fn quiet_panics() {
        use std::sync::Once;
        static QUIET: Once = Once::new();
        QUIET.call_once(|| {
            let prev = std::panic::take_hook();
            std::panic::set_hook(Box::new(move |info| {
                let caught = std::thread::current().name() == Some("main")
                    || info
                        .payload()
                        .downcast_ref::<&str>()
                        .is_some_and(|s| s.contains("Crashy"));
                if !caught {
                    prev(info);
                }
            }));
        });
    }

    /// The manager's lifetime supervisor totals as its registry holds
    /// them: panics, budget overruns, quarantines and shed dispatches.
    fn supervisor_totals(tele: &Telemetry) -> [u64; 4] {
        [
            names::MODULE_PANICS,
            names::BUDGET_OVERRUNS,
            names::MODULE_QUARANTINES,
            names::SHED_SKIPS,
        ]
        .map(|name| tele.counter(name).get())
    }

    #[test]
    fn adaptive_manager_gates_on_knowledge() {
        let (mut kb, mut alerts) = ctx_parts();
        let tele = Arc::new(Telemetry::new());
        let mut mgr = ModuleManager::new();
        mgr.set_telemetry(&tele);
        mgr.add(Box::new(NeedsMultihop { processed: 0 }), false);
        assert_eq!(mgr.active_count(), 0, "detection modules start inactive");

        // No knowledge → packet goes nowhere.
        let mut ctx = ModuleCtx {
            now: Timestamp::ZERO,
            kb: &mut kb,
            alerts: &mut alerts,
        };
        assert_eq!(
            mgr.dispatch_packet_shed(&mut ctx, &packet(), ShedMode::None)
                .modules_run,
            0
        );

        // Multihop discovered → module activates.
        kb.insert("Multihop", true);
        mgr.reconfigure(&kb);
        assert_eq!(mgr.active_count(), 1);
        let mut ctx = ModuleCtx {
            now: Timestamp::ZERO,
            kb: &mut kb,
            alerts: &mut alerts,
        };
        assert_eq!(
            mgr.dispatch_packet_shed(&mut ctx, &packet(), ShedMode::None)
                .modules_run,
            1
        );

        // Knowledge flips → module deactivates.
        kb.insert("Multihop", false);
        let (act, deact) = mgr.reconfigure(&kb);
        assert_eq!((act, deact), (0, 1));
        assert_eq!(mgr.active_count(), 0);
        let flips = [names::MODULES_ACTIVATED, names::MODULES_DEACTIVATED];
        assert_eq!(flips.map(|name| tele.counter(name).get()), [1, 1]);
    }

    #[test]
    fn non_adaptive_manager_runs_everything() {
        let (kb, _) = ctx_parts();
        let mut mgr = ModuleManager::all_always_active();
        mgr.add(Box::new(NeedsMultihop { processed: 0 }), false);
        assert_eq!(
            mgr.active_count(),
            1,
            "always active regardless of knowledge"
        );
        assert_eq!(mgr.reconfigure(&kb), (0, 0));
        assert_eq!(mgr.active_count(), 1);
    }

    #[test]
    fn pinned_modules_ignore_required() {
        let (kb, _) = ctx_parts();
        let mut mgr = ModuleManager::new();
        mgr.add(Box::new(NeedsMultihop { processed: 0 }), true);
        assert_eq!(mgr.active_count(), 1);
        mgr.reconfigure(&kb);
        assert_eq!(mgr.active_count(), 1, "pinned modules stay on");
    }

    #[test]
    fn only_slots_knowledge_can_switch_subscribe() {
        struct Declared;
        impl Module for Declared {
            fn descriptor(&self) -> ModuleDescriptor {
                use crate::taxonomy::Feature;
                ModuleDescriptor::detection("Declared", AttackKind::Smurf)
                    .needs(&[Feature::MultiHop, Feature::SingleHop])
            }
            fn contract(&self) -> crate::modules::KnowggetContract {
                crate::modules::KnowggetContract::new()
                    .reads("CtpRoot", crate::modules::ValueType::Text)
            }
            fn on_packet(&mut self, _ctx: &mut ModuleCtx<'_>, _packet: &CapturedPacket) {}
        }
        let load = |mgr: &mut ModuleManager| {
            mgr.add(Box::new(Declared), false);
            mgr.add(Box::new(Declared), true);
            // `NeedsMultihop` declares nothing.
            mgr.add(Box::new(NeedsMultihop { processed: 0 }), false);
            mgr.add(Box::new(NeedsMultihop { processed: 0 }), true);
            mgr.add(
                Box::new(crate::sensing::TopologyDiscoveryModule::new()),
                false,
            );
        };
        let mut mgr = ModuleManager::new();
        load(&mut mgr);
        // Slot 0 by its declared activation input, once for the two
        // features it senses (a plain read is none), slot 2 by
        // everything; pinned and sensing slots never flip.
        assert_eq!(
            mgr.subscriptions_by_name(),
            [
                ("Multihop".to_owned(), vec!["Declared"]),
                ("*".to_owned(), vec!["NeedsMultihop"]),
            ]
        );
        let mut pending = SlotSet::default();
        (mgr.subscriptions()).collect("SignalStrength", 0, &mut pending);
        assert_eq!(pending.iter().collect::<Vec<_>>(), [2]);
        // Without knowledge-driven activation there is nothing to hear.
        let mut all_on = ModuleManager::all_always_active();
        load(&mut all_on);
        assert!(all_on.subscriptions_by_name().is_empty());
    }

    #[test]
    fn active_names_reports() {
        let mut mgr = ModuleManager::all_always_active();
        mgr.add(Box::new(NeedsMultihop { processed: 0 }), false);
        assert_eq!(mgr.active_names(), vec!["NeedsMultihop"]);
    }

    #[test]
    fn panic_is_isolated_and_state_reset() {
        quiet_panics();
        let resets = std::sync::Arc::new(std::sync::atomic::AtomicU64::new(0));
        let (mut kb, mut alerts) = ctx_parts();
        let tele = Arc::new(Telemetry::new());
        let mut mgr = ModuleManager::all_always_active();
        mgr.set_telemetry(&tele);
        mgr.add(
            Box::new(Crashy {
                seen: 0,
                every: 1,
                resets: std::sync::Arc::clone(&resets),
            }),
            false,
        );
        mgr.add(Box::new(NeedsMultihop { processed: 0 }), false);
        let mut ctx = ModuleCtx {
            now: Timestamp::from_secs(1),
            kb: &mut kb,
            alerts: &mut alerts,
        };
        let outcome = mgr.dispatch_packet_shed(&mut ctx, &packet(), ShedMode::None);
        assert_eq!(outcome.modules_panicked, 1, "panic caught, not propagated");
        assert_eq!(outcome.modules_run, 1, "other module still ran");
        assert_eq!(outcome.work_units(), 2);
        assert_eq!(resets.load(std::sync::atomic::Ordering::Relaxed), 1);
        assert_eq!(tele.counter(names::MODULE_PANICS).get(), 1);
        assert_eq!(mgr.module_health("Crashy"), Some(ModuleHealth::Degraded));
    }

    #[test]
    fn crash_loop_quarantines_then_probation() {
        quiet_panics();
        let resets = std::sync::Arc::new(std::sync::atomic::AtomicU64::new(0));
        let (mut kb, mut alerts) = ctx_parts();
        let tele = Arc::new(Telemetry::new());
        let mut mgr = ModuleManager::all_always_active();
        mgr.set_telemetry(&tele);
        let cfg = SupervisorConfig::default();
        mgr.add(
            Box::new(Crashy {
                seen: 0,
                every: 1,
                resets,
            }),
            false,
        );
        for i in 0..cfg.panic_limit as u64 {
            let mut ctx = ModuleCtx {
                now: Timestamp::from_secs(i),
                kb: &mut kb,
                alerts: &mut alerts,
            };
            mgr.dispatch_packet_shed(&mut ctx, &packet(), ShedMode::None);
        }
        assert_eq!(
            mgr.module_health("Crashy"),
            Some(ModuleHealth::Quarantined),
            "panic limit reached"
        );
        assert_eq!(mgr.quarantined_names(), vec!["Crashy"]);
        assert_eq!(mgr.active_count(), 0);
        assert!(mgr.active_names().is_empty(), "quarantined ≠ active");

        // While quarantined, dispatch skips it entirely.
        let mut ctx = ModuleCtx {
            now: Timestamp::from_secs(3),
            kb: &mut kb,
            alerts: &mut alerts,
        };
        let outcome = mgr.dispatch_packet_shed(&mut ctx, &packet(), ShedMode::None);
        assert_eq!(outcome.modules_run + outcome.modules_panicked, 0);

        // After the backoff expires it re-enters on probation.
        let after = Timestamp::from_secs(cfg.panic_limit as u64) + BACKOFF_BASE;
        let mut ctx = ModuleCtx {
            now: after,
            kb: &mut kb,
            alerts: &mut alerts,
        };
        let outcome = mgr.dispatch_packet_shed(&mut ctx, &packet(), ShedMode::None);
        assert_eq!(outcome.modules_panicked, 1, "probation dispatch happened");
        assert_eq!(
            mgr.module_health("Crashy"),
            Some(ModuleHealth::Quarantined),
            "one probation strike re-quarantines"
        );
        assert_eq!(tele.counter(names::MODULE_QUARANTINES).get(), 2);
    }

    /// A module holding real bounded per-entity state that panics while
    /// its `rage` flag is up — drives the quarantine → probation path to
    /// prove a returning module starts with fresh detector state.
    struct BudgetedCrashy {
        map: crate::bounded::BoundedMap<u64, ()>,
        seen: u64,
        rage: std::sync::Arc<std::sync::atomic::AtomicBool>,
    }

    impl BudgetedCrashy {
        fn step(&mut self) {
            self.seen += 1;
            self.map.insert(self.seen, ());
            if self.rage.load(std::sync::atomic::Ordering::Relaxed) {
                panic!("crafted input tripped Crashy (budgeted)");
            }
        }
    }

    impl Module for BudgetedCrashy {
        fn descriptor(&self) -> ModuleDescriptor {
            ModuleDescriptor::detection("BudgetedCrashy", AttackKind::Smurf)
        }
        fn on_packet(&mut self, _ctx: &mut ModuleCtx<'_>, _packet: &CapturedPacket) {
            self.step();
        }
        fn on_tick(&mut self, _ctx: &mut ModuleCtx<'_>) {
            self.step();
        }
        fn occupancy(&self) -> usize {
            self.map.len()
        }
        fn evictions(&self) -> u64 {
            self.map.evictions()
        }
        fn state_budget(&self) -> usize {
            self.map.budget()
        }
        fn reset(&mut self) {
            self.map.clear();
            self.seen = 0;
        }
    }

    #[test]
    fn quarantined_module_returns_to_probation_with_fresh_state() {
        quiet_panics();
        let (mut kb, mut alerts) = ctx_parts();
        let tele = std::sync::Arc::new(Telemetry::new());
        let rage = std::sync::Arc::new(std::sync::atomic::AtomicBool::new(false));
        let mut mgr = ModuleManager::all_always_active();
        mgr.set_telemetry(&tele);
        mgr.add(
            Box::new(BudgetedCrashy {
                map: crate::bounded::BoundedMap::new(4),
                seen: 0,
                rage: std::sync::Arc::clone(&rage),
            }),
            false,
        );
        // Fill (and overflow) the bounded map with clean dispatches.
        for i in 0..7 {
            let mut ctx = ModuleCtx {
                now: Timestamp::from_secs(i),
                kb: &mut kb,
                alerts: &mut alerts,
            };
            mgr.dispatch_packet_shed(&mut ctx, &packet(), ShedMode::None);
        }
        let held = |mgr: &ModuleManager| {
            let profile = mgr.module_profiles().remove(0);
            (profile.occupancy, profile.evictions)
        };
        assert_eq!(
            held(&mgr),
            (4, 3),
            "budget holds under load; overflow evicted"
        );

        // Poisoned input stream: panic on every dispatch until quarantine.
        rage.store(true, std::sync::atomic::Ordering::Relaxed);
        let mut strikes = 0;
        while mgr.module_health("BudgetedCrashy") != Some(ModuleHealth::Quarantined) {
            strikes += 1;
            assert!(strikes < 32, "quarantine must engage");
            let mut ctx = ModuleCtx {
                now: Timestamp::from_secs(7 + strikes),
                kb: &mut kb,
                alerts: &mut alerts,
            };
            mgr.dispatch_packet_shed(&mut ctx, &packet(), ShedMode::None);
        }
        // The panic-path reset emptied the module at once — the ops
        // surface never reports stale occupancy for an emptied module.
        assert_eq!(held(&mgr), (0, 0));

        // Backoff expires, the poison clears: the probation dispatch runs
        // against completely fresh detector state.
        rage.store(false, std::sync::atomic::Ordering::Relaxed);
        let after = Timestamp::from_secs(7 + strikes) + BACKOFF_BASE + BACKOFF_BASE;
        let mut ctx = ModuleCtx {
            now: after,
            kb: &mut kb,
            alerts: &mut alerts,
        };
        let outcome = mgr.dispatch_packet_shed(&mut ctx, &packet(), ShedMode::None);
        assert_eq!(outcome.modules_run, 1, "probation dispatch ran clean");
        let profile = mgr
            .module_profiles()
            .into_iter()
            .find(|p| p.name == "BudgetedCrashy")
            .expect("profiled");
        assert_eq!(profile.occupancy, 1, "only the probation packet's entry");
        assert_eq!(
            profile.evictions, 0,
            "eviction history reset with the state"
        );
        assert_eq!(profile.state_budget, 4, "budget survives the reset");
    }

    #[test]
    fn budget_overruns_quarantine() {
        struct Slow;
        impl Module for Slow {
            fn descriptor(&self) -> ModuleDescriptor {
                ModuleDescriptor::detection("Slow", AttackKind::Smurf)
            }
            fn on_packet(&mut self, _ctx: &mut ModuleCtx<'_>, _packet: &CapturedPacket) {
                std::thread::sleep(Duration::from_millis(3));
            }
        }
        let (mut kb, mut alerts) = ctx_parts();
        let tele = Arc::new(Telemetry::new());
        let mut mgr = ModuleManager::all_always_active();
        mgr.set_telemetry(&tele);
        mgr.set_supervisor(SupervisorConfig {
            budget: Some(Duration::from_micros(100)),
            ..SupervisorConfig::default()
        });
        mgr.add(Box::new(Slow), false);
        for i in 0..u64::from(OVERRUN_LIMIT) {
            let mut ctx = ModuleCtx {
                now: Timestamp::from_secs(i),
                kb: &mut kb,
                alerts: &mut alerts,
            };
            mgr.dispatch_packet_shed(&mut ctx, &packet(), ShedMode::None);
        }
        assert_eq!(mgr.module_health("Slow"), Some(ModuleHealth::Quarantined));
        assert_eq!(
            supervisor_totals(&tele),
            [0, u64::from(OVERRUN_LIMIT), 1, 0]
        );
    }

    #[test]
    fn shedding_samples_unpinned_detection_only() {
        struct Heavy {
            seen: u64,
        }
        impl Module for Heavy {
            fn descriptor(&self) -> ModuleDescriptor {
                ModuleDescriptor::detection("HeavyMod", AttackKind::Wormhole).heavy()
            }
            fn on_packet(&mut self, _ctx: &mut ModuleCtx<'_>, _packet: &CapturedPacket) {
                self.seen += 1;
            }
        }
        let (mut kb, mut alerts) = ctx_parts();
        let tele = Arc::new(Telemetry::new());
        let mut mgr = ModuleManager::all_always_active();
        mgr.set_telemetry(&tele);
        mgr.add(Box::new(Heavy { seen: 0 }), false);
        // Pinned module: must never be shed.
        mgr.add(Box::new(NeedsMultihop { processed: 0 }), true);
        let mut ran = 0;
        let mut shed = 0;
        for _ in 0..32 {
            let mut ctx = ModuleCtx {
                now: Timestamp::from_secs(1),
                kb: &mut kb,
                alerts: &mut alerts,
            };
            let o = mgr.dispatch_packet_shed(&mut ctx, &packet(), ShedMode::Heavy);
            ran += o.modules_run;
            shed += o.modules_shed;
        }
        // Pinned ran all 32 times; heavy unpinned ran 1-in-4 (= 8).
        assert_eq!(ran, 32 + 8);
        assert_eq!(shed, 24);
        assert_eq!(tele.counter(names::SHED_SKIPS).get(), 24);
        // Light unpinned modules are untouched in Heavy mode.
        let mut mgr2 = ModuleManager::all_always_active();
        mgr2.add(Box::new(NeedsMultihop { processed: 0 }), false);
        let mut ctx = ModuleCtx {
            now: Timestamp::from_secs(1),
            kb: &mut kb,
            alerts: &mut alerts,
        };
        let o = mgr2.dispatch_packet_shed(&mut ctx, &packet(), ShedMode::Heavy);
        assert_eq!((o.modules_run, o.modules_shed), (1, 0));
    }

    #[test]
    fn quarantined_modules_sit_out_reconfigure() {
        quiet_panics();
        let resets = std::sync::Arc::new(std::sync::atomic::AtomicU64::new(0));
        let (mut kb, mut alerts) = ctx_parts();
        let mut mgr = ModuleManager::new();
        mgr.add(
            Box::new(Crashy {
                seen: 0,
                every: 1,
                resets,
            }),
            false,
        );
        mgr.reconfigure(&kb);
        assert_eq!(mgr.active_count(), 1);
        for i in 0..3 {
            let mut ctx = ModuleCtx {
                now: Timestamp::from_secs(i),
                kb: &mut kb,
                alerts: &mut alerts,
            };
            mgr.dispatch_packet_shed(&mut ctx, &packet(), ShedMode::None);
        }
        assert_eq!(mgr.quarantined_count(), 1);
        let (act, deact) = mgr.reconfigure(&kb);
        assert_eq!(
            (act, deact),
            (0, 0),
            "reconfigure leaves quarantined slots alone"
        );
        assert_eq!(mgr.quarantined_count(), 1);
    }

    /// A detection module that writes knowledge and raises alerts from
    /// both callbacks, and panics on every `panic_packet_every`th packet
    /// or `panic_tick_every`th tick since its last reset (0 = never).
    struct Chatty {
        name: &'static str,
        heavy: bool,
        packets: u64,
        ticks: u64,
        panic_packet_every: u64,
        panic_tick_every: u64,
    }

    impl Chatty {
        fn boxed(name: &'static str, heavy: bool, packet: u64, tick: u64) -> Box<dyn Module> {
            Box::new(Chatty {
                name,
                heavy,
                packets: 0,
                ticks: 0,
                panic_packet_every: packet,
                panic_tick_every: tick,
            })
        }
    }

    impl Module for Chatty {
        fn descriptor(&self) -> ModuleDescriptor {
            let descriptor = ModuleDescriptor::detection(self.name, AttackKind::Smurf);
            if self.heavy {
                descriptor.heavy()
            } else {
                descriptor
            }
        }
        fn on_packet(&mut self, ctx: &mut ModuleCtx<'_>, _packet: &CapturedPacket) {
            self.packets += 1;
            ctx.kb
                .insert(format!("{}.Packets", self.name), self.packets as i64);
            if self.packets % 3 == 0 {
                ctx.raise(crate::alert::Alert::new(
                    ctx.now,
                    AttackKind::Smurf,
                    self.name,
                ));
            }
            if self.panic_packet_every != 0 && self.packets % self.panic_packet_every == 0 {
                panic!("Crashy packet (chatty)");
            }
        }
        fn on_tick(&mut self, ctx: &mut ModuleCtx<'_>) {
            self.ticks += 1;
            // Flips `NeedsMultihop` at the next reconfigure.
            ctx.kb.insert("Multihop", self.ticks % 2 == 0);
            if self.panic_tick_every != 0 && self.ticks % self.panic_tick_every == 0 {
                panic!("Crashy tick (chatty)");
            }
        }
        fn reset(&mut self) {
            self.packets = 0;
            self.ticks = 0;
        }
    }

    /// One seeded run of packets (under every shed mode) and ticks over
    /// crashing, overrunning and shed modules, on a manager carrying
    /// `tele`. Returns the manager and the run's outcomes summed.
    fn supervised_run(tele: &Arc<Telemetry>) -> (ModuleManager, DispatchOutcome) {
        use rand::rngs::StdRng;
        use rand::{Rng, SeedableRng};

        let (mut kb, mut alerts) = ctx_parts();
        let mut mgr = ModuleManager::new();
        mgr.set_telemetry(tele);
        mgr.add(Chatty::boxed("PacketCrasher", false, 5, 0), false);
        mgr.add(Chatty::boxed("TickCrasher", true, 0, 2), false);
        mgr.add(Chatty::boxed("Pinned", false, 0, 0), true);
        mgr.add(Box::new(NeedsMultihop { processed: 0 }), false);
        let mut rng = StdRng::seed_from_u64(0x5eed);
        let mut sum = DispatchOutcome::default();
        for step in 0..400u64 {
            // Second half: a 0 ns watchdog budget turns every completed
            // dispatch into an overrun.
            if step == 200 {
                mgr.set_supervisor(SupervisorConfig {
                    budget: Some(Duration::ZERO),
                    ..SupervisorConfig::default()
                });
            }
            let now = Timestamp::from_millis(step * 250);
            let mut ctx = ModuleCtx {
                now,
                kb: &mut kb,
                alerts: &mut alerts,
            };
            let outcome = if rng.gen_range(0..4) == 0 {
                mgr.dispatch_tick(&mut ctx)
            } else {
                let shed =
                    [ShedMode::None, ShedMode::Heavy, ShedMode::All][rng.gen_range(0..3usize)];
                mgr.dispatch_packet_shed(&mut ctx, &packet(), shed)
            };
            sum.modules_run += outcome.modules_run;
            sum.modules_panicked += outcome.modules_panicked;
            sum.modules_shed += outcome.modules_shed;
            mgr.reconfigure_traced(&kb, "supervised", now.as_micros());
        }
        (mgr, sum)
    }

    #[test]
    fn module_profiles_agree_with_the_registry() {
        quiet_panics();
        let tele = Arc::new(Telemetry::new());
        let (mgr, sum) = supervised_run(&tele);
        // The run exercised every supervise branch, and the registry
        // counted exactly what the dispatches reported.
        let [panics, overruns, quarantines, sheds] = supervisor_totals(&tele);
        assert_eq!((panics, sheds), (sum.modules_panicked, sum.modules_shed));
        assert!(panics > 0 && overruns > 0 && sheds > 0);
        assert!(quarantines > 1, "quarantined, released, re-quarantined");
        // What `/status` serves is what `/metrics` exports.
        let profiles = mgr.module_profiles();
        for p in &profiles {
            let name = |family| metric_name(family, &[("module", p.name)]);
            let cpu_ns = tele.counter(&name(names::MODULE_CPU_NS)).get();
            let shed = tele.counter(&name(names::SHED_BY_MODULE)).get();
            assert_eq!((p.cpu_ns, p.sheds), (cpu_ns, shed), "{}", p.name);
        }
        assert_eq!(profiles.iter().map(|p| p.sheds).sum::<u64>(), sheds);
        let work: u64 = profiles.iter().map(|p| p.dispatches).sum();
        assert_eq!(work, sum.work_units());
        assert!(
            profiles.iter().all(|p| p.cpu_ns > 0),
            "each module had timed dispatches"
        );
        let kinds: Vec<&str> = (tele.journal().snapshot().records.iter())
            .map(|record| record.event.kind())
            .collect();
        for kind in [
            "module_panicked",
            "module_quarantined",
            "module_probation",
            "module_activated",
            "module_deactivated",
        ] {
            assert!(kinds.contains(&kind), "no {kind} record journaled");
        }
    }

    /// Crash-loop `BudgetedCrashy` into quarantine and back through one
    /// entry point; returns the journal and the readings `(occupancy,
    /// evictions, quarantined_count, modules.active)` while loaded, once
    /// quarantined, and after the probation dispatch.
    fn crash_loop_through(
        dispatch: impl Fn(&mut ModuleManager, &mut ModuleCtx<'_>) -> DispatchOutcome,
    ) -> (kalis_telemetry::JournalSnapshot, [[u64; 4]; 3]) {
        let (mut kb, mut alerts) = ctx_parts();
        let tele = Arc::new(Telemetry::new());
        let rage = Arc::new(std::sync::atomic::AtomicBool::new(false));
        let mut mgr = ModuleManager::all_always_active();
        mgr.set_telemetry(&tele);
        mgr.add(
            Box::new(BudgetedCrashy {
                map: crate::bounded::BoundedMap::new(4),
                seen: 0,
                rage: Arc::clone(&rage),
            }),
            false,
        );
        let gauges = |mgr: &ModuleManager| {
            let profile = mgr.module_profiles().remove(0);
            [
                profile.occupancy as u64,
                profile.evictions,
                mgr.quarantined_count() as u64,
                tele.gauge(names::MODULES_ACTIVE).get(),
            ]
        };
        let mut at = |mgr: &mut ModuleManager, secs: u64| {
            let mut ctx = ModuleCtx {
                now: Timestamp::from_secs(secs),
                kb: &mut kb,
                alerts: &mut alerts,
            };
            dispatch(mgr, &mut ctx)
        };
        for secs in 0..7 {
            at(&mut mgr, secs);
        }
        let loaded = gauges(&mgr);
        rage.store(true, std::sync::atomic::Ordering::Relaxed);
        let panic_limit = u64::from(SupervisorConfig::default().panic_limit);
        for strike in 0..panic_limit {
            at(&mut mgr, 7 + strike);
        }
        let quarantined = gauges(&mgr);
        rage.store(false, std::sync::atomic::Ordering::Relaxed);
        let outcome = at(&mut mgr, 7 + panic_limit + 60);
        assert_eq!(outcome.modules_run, 1, "probation dispatch ran clean");
        (
            tele.journal().snapshot(),
            [loaded, quarantined, gauges(&mgr)],
        )
    }

    #[test]
    fn packet_and_tick_panics_leave_the_same_journal_and_gauges() {
        quiet_panics();
        let (journal, gauges) =
            crash_loop_through(|mgr, ctx| mgr.dispatch_packet_shed(ctx, &packet(), ShedMode::None));
        let kinds: Vec<&str> = (journal.records.iter())
            .map(|record| record.event.kind())
            .collect();
        assert_eq!(
            kinds,
            [
                "module_panicked",
                "module_panicked",
                "module_panicked",
                "module_quarantined",
                "module_probation"
            ]
        );
        assert_eq!(gauges, [[4, 3, 0, 1], [0, 0, 1, 0], [1, 0, 0, 1]]);
        let through_tick = crash_loop_through(|mgr, ctx| mgr.dispatch_tick(ctx));
        assert_eq!((journal, gauges), through_tick);
    }

    /// A sensing module whose tick takes as long as its test says.
    struct SlowTick(Duration);

    impl Module for SlowTick {
        fn descriptor(&self) -> ModuleDescriptor {
            ModuleDescriptor::sensing("SlowTick")
        }
        fn on_packet(&mut self, _ctx: &mut ModuleCtx<'_>, _packet: &CapturedPacket) {}
        fn on_tick(&mut self, _ctx: &mut ModuleCtx<'_>) {
            std::thread::sleep(self.0);
        }
    }

    #[test]
    fn tick_latency_is_sampled_one_tick_in_eight_whatever_the_packets_between() {
        let tele = Arc::new(Telemetry::new());
        let (mut kb, mut alerts) = ctx_parts();
        let mut mgr = ModuleManager::new();
        mgr.set_telemetry(&tele);
        mgr.add(Box::new(SlowTick(Duration::ZERO)), false);
        mgr.add(Box::new(NeedsMultihop { processed: 0 }), true);
        for second in 0..64 {
            let mut ctx = ModuleCtx {
                now: Timestamp::from_secs(second),
                kb: &mut kb,
                alerts: &mut alerts,
            };
            // Seven packets a tick: eight dispatches a round, the rate at
            // which one shared sequence would sample every tick or none.
            for _ in 0..7 {
                mgr.dispatch_packet_shed(&mut ctx, &packet(), ShedMode::None);
            }
            assert_eq!(mgr.dispatch_tick(&mut ctx).modules_run, 2);
        }
        let snapshot = tele.snapshot();
        let samples = |family: &str| -> Vec<u64> {
            (snapshot.histograms_in(family))
                .map(|(_, hist)| hist.count)
                .collect()
        };
        assert_eq!(samples(names::DISPATCH_TICK), [8, 8]);
        assert_eq!(samples(names::DISPATCH_PACKET), [56, 56]);
        // Every call consumed work, sampled or not.
        let profiles = mgr.module_profiles();
        assert!(profiles.iter().all(|p| p.dispatches == 64 * 8));
    }

    #[test]
    fn a_budget_overrun_on_a_tick_outside_the_sample_is_still_struck() {
        let tele = Arc::new(Telemetry::new());
        let (mut kb, mut alerts) = ctx_parts();
        let mut mgr = ModuleManager::new();
        mgr.set_telemetry(&tele);
        mgr.set_supervisor(SupervisorConfig {
            budget: Some(Duration::from_micros(100)),
            ..SupervisorConfig::default()
        });
        mgr.add(Box::new(SlowTick(Duration::from_millis(3))), false);
        // Eight ticks: the sample takes only the eighth.
        for second in 0..u64::from(OVERRUN_LIMIT) {
            let mut ctx = ModuleCtx {
                now: Timestamp::from_secs(second),
                kb: &mut kb,
                alerts: &mut alerts,
            };
            mgr.dispatch_tick(&mut ctx);
        }
        let recorded: u64 = (tele.snapshot().histograms_in(names::DISPATCH_TICK))
            .map(|(_, hist)| hist.count)
            .sum();
        assert_eq!(recorded, 1);
        assert_eq!(
            tele.counter(names::BUDGET_OVERRUNS).get(),
            u64::from(OVERRUN_LIMIT)
        );
        assert_eq!(
            mgr.module_health("SlowTick"),
            Some(ModuleHealth::Quarantined)
        );
        assert_eq!(mgr.quarantined_count(), 1);
        // Timed because budgeted: the CPU account has all eight.
        assert!(mgr.module_profiles()[0].cpu_ns >= 24_000_000);
    }

    /// A detection module with no tick work (the default `on_tick`) that
    /// panics on every packet while `rage` is up.
    struct PacketCrasher(Arc<std::sync::atomic::AtomicBool>);

    impl Module for PacketCrasher {
        fn descriptor(&self) -> ModuleDescriptor {
            ModuleDescriptor::detection("PacketCrasher", AttackKind::Smurf)
        }
        fn on_packet(&mut self, _ctx: &mut ModuleCtx<'_>, _packet: &CapturedPacket) {
            if self.0.load(std::sync::atomic::Ordering::Relaxed) {
                panic!("Crashy packet (no tick work)");
            }
        }
    }

    /// A wrapper that counts its ticks and either forwards them (to the
    /// default body) or does nothing with them: a module that is called
    /// for every tick and has no tick work.
    struct Wrapped {
        inner: PacketCrasher,
        forward: bool,
        ticks: Arc<std::sync::atomic::AtomicU64>,
    }

    impl Module for Wrapped {
        fn descriptor(&self) -> ModuleDescriptor {
            self.inner.descriptor()
        }
        fn required(&self, kb: &KnowledgeBase) -> bool {
            self.inner.required(kb)
        }
        fn on_packet(&mut self, ctx: &mut ModuleCtx<'_>, packet: &CapturedPacket) {
            self.inner.on_packet(ctx, packet);
        }
        fn on_tick(&mut self, ctx: &mut ModuleCtx<'_>) {
            self.ticks
                .fetch_add(1, std::sync::atomic::Ordering::Relaxed);
            if self.forward {
                self.inner.on_tick(ctx);
            }
        }
    }

    /// Crash two modules into quarantine on packets, then tick them out
    /// of it and through their heal streak. `forward`: both keep the
    /// default `on_tick`, one bare and one behind a forwarding wrapper;
    /// otherwise both override it with an empty body and are called.
    /// Returns a record of every step and each wrapper's tick calls.
    fn tick_through_probation(forward: bool) -> (Vec<String>, [u64; 2]) {
        use std::sync::atomic::{AtomicBool, AtomicU64, Ordering};
        quiet_panics();
        let rage = Arc::new(AtomicBool::new(true));
        let ticks = [Arc::new(AtomicU64::new(0)), Arc::new(AtomicU64::new(0))];
        let wrap = |ticks: &Arc<AtomicU64>, forward| {
            let inner = PacketCrasher(Arc::clone(&rage));
            let ticks = Arc::clone(ticks);
            Box::new(Wrapped {
                inner,
                forward,
                ticks,
            })
        };
        let (mut kb, mut alerts) = ctx_parts();
        let tele = Arc::new(Telemetry::new());
        let mut mgr = ModuleManager::all_always_active();
        mgr.set_telemetry(&tele);
        if forward {
            mgr.add(Box::new(PacketCrasher(Arc::clone(&rage))), false);
        } else {
            mgr.add(wrap(&ticks[0], false), false);
        }
        mgr.add(wrap(&ticks[1], forward), false);
        let cfg = SupervisorConfig::default();
        let mut steps = Vec::new();
        let mut step = |mgr: &mut ModuleManager, now: Timestamp, tick: bool| {
            let mut ctx = ModuleCtx {
                now,
                kb: &mut kb,
                alerts: &mut alerts,
            };
            let outcome = if tick {
                mgr.dispatch_tick(&mut ctx)
            } else {
                mgr.dispatch_packet_shed(&mut ctx, &packet(), ShedMode::None)
            };
            let profiles: Vec<_> = (mgr.module_profiles().into_iter())
                .map(|p| (p.health, p.dispatches, p.active))
                .collect();
            let samples: Vec<u64> = (tele.snapshot().histograms_in(names::DISPATCH_TICK))
                .map(|(_, hist)| hist.count)
                .collect();
            steps.push(format!(
                "{outcome:?} {profiles:?} {samples:?} {:?} {}",
                supervisor_totals(&tele),
                mgr.quarantined_count()
            ));
        };
        for second in 0..u64::from(cfg.panic_limit) {
            step(&mut mgr, Timestamp::from_secs(second), false);
        }
        assert_eq!(mgr.quarantined_count(), 2);
        rage.store(false, Ordering::Relaxed);
        // Quarantined, both sit out a tick; past the backoff a tick
        // releases them to probation, and clean ticks heal them.
        let released = Timestamp::from_secs(u64::from(cfg.panic_limit)) + BACKOFF_BASE;
        step(
            &mut mgr,
            Timestamp::from_secs(u64::from(cfg.panic_limit)),
            true,
        );
        for tick in 0..u64::from(HEAL_STREAK) + 2 {
            step(&mut mgr, released + Duration::from_millis(tick), true);
        }
        assert!(mgr
            .module_profiles()
            .iter()
            .all(|p| p.health == ModuleHealth::Healthy));
        let kinds: Vec<&str> = (tele.journal().snapshot().records.iter())
            .map(|record| record.event.kind())
            .collect();
        steps.push(format!("{kinds:?}"));
        (steps, ticks.map(|count| count.load(Ordering::Relaxed)))
    }

    #[test]
    fn a_module_without_tick_work_is_accounted_a_tick_it_is_not_called_for() {
        let (skipped, calls) = tick_through_probation(true);
        let (called, empty_calls) = tick_through_probation(false);
        // An empty `on_tick` is called on every tick from the release on.
        assert_eq!(empty_calls, [u64::from(HEAL_STREAK) + 2; 2]);
        // The wrapper's first tick reported the default body; no other
        // tick reached it.
        assert_eq!(calls[1], 1);
        // Dispatches, work units, health through probation and healing,
        // latency samples, supervisor totals and journal: step by step
        // what the empty calls produced.
        assert_eq!(skipped.len(), called.len());
        for (step, (skipped, called)) in skipped.iter().zip(&called).enumerate() {
            assert_eq!(skipped, called, "step {step}");
        }
    }

    use std::sync::atomic::{AtomicU64, Ordering};

    /// Packet and tick calls a [`Reader`] received.
    type Calls = Arc<[AtomicU64; 2]>;

    /// A detection module reading `reads`, counting its packet and tick
    /// calls, panicking on every packet while `crash` is set.
    struct Reader {
        name: &'static str,
        reads: FrameClass,
        calls: Calls,
        crash: bool,
    }

    impl Reader {
        fn boxed(name: &'static str, reads: FrameClass) -> (Box<dyn Module>, Calls) {
            let calls = Arc::new([AtomicU64::new(0), AtomicU64::new(0)]);
            let reader = Reader {
                name,
                reads,
                calls: Arc::clone(&calls),
                crash: false,
            };
            (Box::new(reader), calls)
        }
    }

    impl Module for Reader {
        fn descriptor(&self) -> ModuleDescriptor {
            ModuleDescriptor::detection(self.name, AttackKind::Sybil).reads(self.reads)
        }
        fn on_packet(&mut self, _ctx: &mut ModuleCtx<'_>, _packet: &CapturedPacket) {
            self.calls[0].fetch_add(1, Ordering::Relaxed);
            if self.crash {
                panic!("Crashy reader");
            }
        }
        fn on_tick(&mut self, _ctx: &mut ModuleCtx<'_>) {
            self.calls[1].fetch_add(1, Ordering::Relaxed);
        }
    }

    fn frame(medium: Medium, secs: u64) -> CapturedPacket {
        CapturedPacket::capture(Timestamp::from_secs(secs), medium, None, "t", Bytes::new())
    }

    fn dispatch(
        mgr: &mut ModuleManager,
        kb: &mut KnowledgeBase,
        packet: &CapturedPacket,
        shed: ShedMode,
    ) -> DispatchOutcome {
        let mut alerts = Vec::new();
        let mut ctx = ModuleCtx {
            now: packet.timestamp,
            kb,
            alerts: &mut alerts,
        };
        mgr.dispatch_packet_shed(&mut ctx, packet, shed)
    }

    fn dispatches(mgr: &ModuleManager, name: &str) -> u64 {
        let profiles = mgr.module_profiles();
        profiles.iter().find(|p| p.name == name).unwrap().dispatches
    }

    #[test]
    fn a_wifi_frame_skips_an_802154_only_module() {
        let (mut kb, _) = ctx_parts();
        let mut mgr = ModuleManager::all_always_active();
        let (sybil, sybil_calls) = Reader::boxed("Only154", FrameClass::IEEE802154);
        let (every, every_calls) = Reader::boxed("Every", FrameClass::ANY);
        mgr.add(sybil, false);
        mgr.add(every, false);
        let outcome = dispatch(&mut mgr, &mut kb, &frame(Medium::Wifi, 0), ShedMode::None);
        assert_eq!((outcome.work_units(), outcome.modules_shed), (1, 0));
        assert_eq!(sybil_calls[0].load(Ordering::Relaxed), 0);
        assert_eq!(every_calls[0].load(Ordering::Relaxed), 1);
        assert_eq!(
            (dispatches(&mgr, "Only154"), dispatches(&mgr, "Every")),
            (0, 1)
        );
        // An 802.15.4 frame reaches both.
        let outcome = dispatch(
            &mut mgr,
            &mut kb,
            &frame(Medium::Ieee802154, 1),
            ShedMode::None,
        );
        assert_eq!(outcome.work_units(), 2);
        assert_eq!(dispatches(&mgr, "Only154"), 1);
    }

    #[test]
    fn an_undecodable_frame_reaches_every_every_frame_module() {
        let (mut kb, _) = ctx_parts();
        let mut mgr = ModuleManager::all_always_active();
        let mut counts = Vec::new();
        for (name, reads) in [
            ("EveryA", FrameClass::ANY),
            ("Udp", FrameClass::UDP),
            ("EveryB", FrameClass::ANY),
            ("Wifi", FrameClass::WIFI | FrameClass::WIFI_MGMT),
        ] {
            let (module, calls) = Reader::boxed(name, reads);
            mgr.add(module, false);
            counts.push(calls);
        }
        let junk = frame(Medium::Wifi, 0);
        assert!(junk.decoded().is_none());
        let outcome = dispatch(&mut mgr, &mut kb, &junk, ShedMode::None);
        assert_eq!(outcome.modules_run, 2);
        let calls: Vec<u64> = (counts.iter())
            .map(|c| c[0].load(Ordering::Relaxed))
            .collect();
        assert_eq!(calls, [1, 0, 1, 0]);
    }

    #[test]
    fn a_tick_reaches_every_active_slot_whatever_it_reads() {
        let (mut kb, mut alerts) = ctx_parts();
        let mut mgr = ModuleManager::all_always_active();
        let mut counts = Vec::new();
        for (name, reads) in [
            ("Only154", FrameClass::IEEE802154),
            ("Udp", FrameClass::UDP),
            ("Every", FrameClass::ANY),
        ] {
            let (module, calls) = Reader::boxed(name, reads);
            mgr.add(module, false);
            counts.push(calls);
        }
        let mut ctx = ModuleCtx {
            now: Timestamp::ZERO,
            kb: &mut kb,
            alerts: &mut alerts,
        };
        assert_eq!(mgr.dispatch_tick(&mut ctx).modules_run, 3);
        assert!(counts.iter().all(|c| c[1].load(Ordering::Relaxed) == 1));
    }

    #[test]
    fn a_quarantined_module_leaves_quarantine_on_time_on_frames_it_does_not_read() {
        quiet_panics();
        let (mut kb, _) = ctx_parts();
        let mut mgr = ModuleManager::all_always_active();
        let tele = Arc::new(Telemetry::new());
        mgr.set_telemetry(&tele);
        let calls = Arc::new([AtomicU64::new(0), AtomicU64::new(0)]);
        mgr.add(
            Box::new(Reader {
                name: "Only154",
                reads: FrameClass::IEEE802154,
                calls: Arc::clone(&calls),
                crash: true,
            }),
            false,
        );
        let cfg = SupervisorConfig::default();
        let limit = u64::from(cfg.panic_limit);
        for secs in 0..limit {
            dispatch(
                &mut mgr,
                &mut kb,
                &frame(Medium::Ieee802154, secs),
                ShedMode::None,
            );
        }
        assert_eq!(
            mgr.module_health("Only154"),
            Some(ModuleHealth::Quarantined)
        );
        // Quarantined at the last panic; released by the first frame —
        // of any class — at or after the backoff.
        let release = limit - 1 + BACKOFF_BASE.as_secs();
        for secs in limit..release + 3 {
            dispatch(
                &mut mgr,
                &mut kb,
                &frame(Medium::Wifi, secs),
                ShedMode::None,
            );
            let want = if secs < release {
                ModuleHealth::Quarantined
            } else {
                ModuleHealth::Degraded
            };
            assert_eq!(mgr.module_health("Only154"), Some(want), "at {secs}s");
        }
        let probation: Vec<u64> = (tele.journal().snapshot().records.iter())
            .filter(|record| record.event.kind() == "module_probation")
            .map(|record| record.time_us)
            .collect();
        assert_eq!(probation, [release * 1_000_000]);
        // On probation, it was not called on the WiFi frames.
        assert_eq!(calls[0].load(Ordering::Relaxed), limit);
    }

    #[test]
    fn routed_out_slots_are_not_shed_and_keep_their_shed_step() {
        let (mut kb, _) = ctx_parts();
        let mut mgr = ModuleManager::all_always_active();
        let (sybil, sybil_calls) = Reader::boxed("Only154", FrameClass::IEEE802154);
        let (every, _) = Reader::boxed("Every", FrameClass::ANY);
        mgr.add(sybil, false);
        mgr.add(every, false);
        let keep = SHED_SAMPLE;
        let mut shed = 0;
        for secs in 0..32 {
            shed +=
                dispatch(&mut mgr, &mut kb, &frame(Medium::Wifi, secs), ShedMode::All).modules_shed;
        }
        // Only the every-frame module was shed, one call in `keep` kept.
        assert_eq!(shed, 32 - 32 / keep);
        let profiles = mgr.module_profiles();
        assert_eq!((profiles[0].sheds, profiles[0].dispatches), (0, 0));
        // The routed-out slot's shed sequence did not move: its first
        // frame under shedding is the one kept.
        dispatch(
            &mut mgr,
            &mut kb,
            &frame(Medium::Ieee802154, 32),
            ShedMode::All,
        );
        assert_eq!(sybil_calls[0].load(Ordering::Relaxed), 1);
    }

    /// A detection module counting its `descriptor` calls. Its
    /// `required` does not call it, so every count is the manager's.
    struct Counted(Arc<AtomicU64>);

    impl Module for Counted {
        fn descriptor(&self) -> ModuleDescriptor {
            self.0.fetch_add(1, Ordering::Relaxed);
            ModuleDescriptor::detection("Counted", AttackKind::Smurf)
                .needs(&[crate::taxonomy::Feature::MultiHop])
        }
        fn required(&self, kb: &KnowledgeBase) -> bool {
            kb.get_bool("Multihop") == Some(true)
        }
        fn on_packet(&mut self, _ctx: &mut ModuleCtx<'_>, _packet: &CapturedPacket) {}
    }

    #[test]
    fn the_manager_reads_a_descriptor_once() {
        let calls = Arc::new(AtomicU64::new(0));
        let (mut kb, mut alerts) = ctx_parts();
        let mut mgr = ModuleManager::new();
        mgr.add(Box::new(Counted(Arc::clone(&calls))), false);
        mgr.set_telemetry(&Arc::new(Telemetry::new()));
        assert_eq!(mgr.subscriptions().edges().len(), 1);
        kb.insert("Multihop", true);
        assert_eq!(mgr.reconfigure(&kb), (1, 0));
        for secs in 0..64 {
            dispatch(
                &mut mgr,
                &mut kb,
                &frame(Medium::Wifi, secs),
                ShedMode::None,
            );
        }
        for secs in 64..72 {
            let mut ctx = ModuleCtx {
                now: Timestamp::from_secs(secs),
                kb: &mut kb,
                alerts: &mut alerts,
            };
            mgr.dispatch_tick(&mut ctx);
        }
        assert_eq!(mgr.module_profiles()[0].dispatches, 64 + 8);
        assert!(mgr.is_active("Counted"));
        assert_eq!(mgr.active_names(), ["Counted"]);
        assert!(mgr.declaration_of("Counted").is_some());
        assert_eq!(calls.load(Ordering::Relaxed), 1);
    }
}
