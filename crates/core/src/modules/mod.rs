//! The module system (paper §IV-B4): sensing and detection modules, the
//! Module Manager that activates them according to the Knowledge Base,
//! and the registry that constructs them by name from configuration text.

mod contract;
mod frame;
mod manager;
mod registry;
mod supervisor;

pub use contract::{AllowRule, KeyPattern, KeyUse, KnowggetContract, ParamSpec, ValueType};
pub use frame::FrameClass;
pub use manager::{DispatchOutcome, ModuleManager, ModuleProfile};
pub use registry::ModuleRegistry;
pub use supervisor::{
    ModuleHealth, OverloadController, ShedMode, Supervision, SupervisorConfig, SupervisorVerdict,
    BACKOFF_BASE, BACKOFF_MAX, HEAL_STREAK, OVERRUN_LIMIT, SHED_SAMPLE,
};

use kalis_packets::{CapturedPacket, Timestamp};

use crate::alert::{Alert, AttackKind};
use crate::knowledge::{KnowValue, KnowledgeBase};
use crate::taxonomy::Feature;

/// Whether a module senses features or detects attacks.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash)]
pub enum ModuleKind {
    /// Autonomously discovers network features into the Knowledge Base.
    Sensing,
    /// Analyzes traffic (plus knowledge) and raises alerts.
    Detection,
}

/// How much a module costs per dispatch, used by the overload
/// controller's shed priority order: under moderate overload only
/// `Heavy` unpinned detection modules see sampled dispatch; under severe
/// overload all unpinned detection modules do (heavy ones more
/// aggressively). Sensing and pinned modules are never shed.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash, Default)]
pub enum ModuleWeight {
    /// Cheap per-packet work (stateless checks, small counters).
    #[default]
    Light,
    /// Stateful anomaly analysis (reassembly, per-flow maps, fingerprint
    /// tables) — the first candidates for shedding.
    Heavy,
}

/// Static facts about a module.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct ModuleDescriptor {
    /// Registry name (what configuration files reference).
    pub name: &'static str,
    /// Sensing or detection.
    pub kind: ModuleKind,
    /// The attack this module detects, for detection modules.
    pub detects: Option<AttackKind>,
    /// Per-dispatch cost class, for the shed priority order.
    pub weight: ModuleWeight,
    /// The Fig. 3 features any one of which switches the module on;
    /// empty for a module knowledge does not switch.
    pub needs: &'static [Feature],
    /// The frame classes the module reads: the Module Manager calls its
    /// `on_packet` only on frames of one of them.
    pub reads: FrameClass,
    /// The exact labels whose value the module keeps asserting while
    /// writing only when it would change: the Knowledge Base stamps their
    /// changes ([`KnowledgeBase::changed_at`]) so the module can tell a
    /// write not its own.
    pub asserts: &'static [&'static str],
}

impl ModuleDescriptor {
    /// Describe a sensing module.
    pub fn sensing(name: &'static str) -> Self {
        ModuleDescriptor {
            name,
            kind: ModuleKind::Sensing,
            detects: None,
            weight: ModuleWeight::Light,
            needs: &[],
            reads: FrameClass::ANY,
            asserts: &[],
        }
    }

    /// Describe a detection module for `attack`.
    pub fn detection(name: &'static str, attack: AttackKind) -> Self {
        ModuleDescriptor {
            name,
            kind: ModuleKind::Detection,
            detects: Some(attack),
            weight: ModuleWeight::Light,
            needs: &[],
            reads: FrameClass::ANY,
            asserts: &[],
        }
    }

    /// Mark the module as heavyweight (first in the shed priority
    /// order).
    pub fn heavy(mut self) -> Self {
        self.weight = ModuleWeight::Heavy;
        self
    }

    /// Declare the features that switch the module on: it is required
    /// wherever any one of them holds ([`Module::required`]).
    pub fn needs(mut self, features: &'static [Feature]) -> Self {
        self.needs = features;
        self
    }

    /// Declare the frame classes the module reads (every frame, by
    /// default). Its `on_packet` must leave a frame outside them
    /// unread: the Module Manager does not call it on one.
    pub fn reads(mut self, classes: FrameClass) -> Self {
        self.reads = classes;
        self
    }

    /// Declare the labels the module asserts: it remembers what it last
    /// wrote under each and writes again only when that changes, or when
    /// their change stamp says someone else wrote since.
    pub fn asserts(mut self, labels: &'static [&'static str]) -> Self {
        self.asserts = labels;
        self
    }

    /// The distinct knowgget labels that sense the needed features
    /// ([`Feature::knowgget`]), in declaration order: the module's
    /// activation inputs, which the Module Manager subscribes it to.
    pub fn activation_labels(&self) -> impl Iterator<Item = &'static str> {
        let needs = self.needs;
        let label = |feature: &Feature| feature.knowgget().map(|(label, _)| label);
        (needs.iter().enumerate()).filter_map(move |(at, feature)| {
            let held = label(feature)?;
            (!needs[..at]
                .iter()
                .any(|earlier| label(earlier) == Some(held)))
            .then_some(held)
        })
    }
}

/// The context handed to module callbacks: the Knowledge Base (for both
/// queries and knowgget insertion) and the alert sink.
#[derive(Debug)]
pub struct ModuleCtx<'a> {
    /// Current time.
    pub now: Timestamp,
    /// The node's Knowledge Base.
    pub kb: &'a mut KnowledgeBase,
    /// Alerts raised during this dispatch.
    pub alerts: &'a mut Vec<Alert>,
}

impl ModuleCtx<'_> {
    /// Raise an alert.
    pub fn raise(&mut self, alert: Alert) {
        self.alerts.push(alert);
    }
}

/// A Kalis module. "In Kalis any network feature-specific or
/// attack-specific functionality is implemented as an independent module."
///
/// Each module is able, *given a particular instance of the Knowledge
/// Base*, to determine whether its services are required
/// ([`Module::required`]) — the hook the Module Manager uses for dynamic
/// activation. A module says so once, in Fig. 3's words, by the features
/// its descriptor [`needs`](ModuleDescriptor::needs): `required`,
/// the Module Manager's subscriptions, alert provenance and `kalis-lint`
/// all read that declaration.
pub trait Module: Send {
    /// Static facts about this module.
    fn descriptor(&self) -> ModuleDescriptor;

    /// The module's declarative knowgget contract: every key it reads
    /// beyond its activation inputs, every key it writes, and the
    /// constructor parameters it accepts — the machine-checked form of
    /// the knowledge links that `kalis-lint` analyzes. The default is
    /// an empty contract, which the lint pass treats as "undeclared" and
    /// stays silent about; built-in modules all declare theirs.
    fn contract(&self) -> KnowggetContract {
        KnowggetContract::new()
    }

    /// Whether this module's services are required under the current
    /// knowledge: wherever any feature its descriptor needs holds (e.g.
    /// Smurf detection requires a multi-hop network), and always when it
    /// needs none. An embedder's module may decide otherwise, but the
    /// Module Manager re-evaluates it only when the labels of its needed
    /// features change (on every change, when it needs none).
    fn required(&self, kb: &KnowledgeBase) -> bool {
        let descriptor = self.descriptor();
        let holds =
            |label, value| (descriptor.needs.iter()).any(|f| f.knowgget() == Some((label, value)));
        // One lookup a label, however many needed features it senses.
        descriptor.needs.is_empty()
            || (descriptor.activation_labels())
                .any(|label| kb.get_bool(label).is_some_and(|value| holds(label, value)))
    }

    /// Process one captured packet (only called while active, and only
    /// on frames of a class the descriptor [`reads`](ModuleDescriptor::reads)).
    fn on_packet(&mut self, ctx: &mut ModuleCtx<'_>, packet: &CapturedPacket);

    /// Periodic housekeeping (window rollover, timeout expiry). Called on
    /// every [`crate::Kalis::tick`] regardless of packet arrival — if the
    /// module has any: this default body tells the Module Manager so
    /// through `ctx`, and the manager counts the module's later ticks as
    /// dispatched without calling it again. A wrapper that forwards
    /// `on_tick` to a module keeping the default is skipped alike.
    fn on_tick(&mut self, ctx: &mut ModuleCtx<'_>) {
        ctx.kb.note_no_tick_work();
    }

    /// Rough live-state size (RAM proxy).
    fn state_bytes(&self) -> usize {
        256
    }

    /// Entries currently held in the module's per-entity tracking maps
    /// (flow tables, sliding counters, fingerprint maps). `/status`
    /// serves it in the module's profile so operators can watch detector
    /// state grow before it becomes a RAM problem on a constrained node.
    /// Stateless modules keep the default 0.
    fn occupancy(&self) -> usize {
        0
    }

    /// Cumulative entries evicted from the module's bounded per-entity
    /// structures to stay within [`Module::state_budget`], served in the
    /// module's `/status` profile; non-zero under cardinality pressure,
    /// back to 0 after [`Module::reset`].
    fn evictions(&self) -> u64 {
        0
    }

    /// The per-structure entry budget the module's bounded state honors
    /// (the `entity_budget` constructor parameter). 0 means the module
    /// keeps no budgeted per-entity structures.
    fn state_budget(&self) -> usize {
        0
    }

    /// Non-default constructor parameters currently in effect, as
    /// `(key, value)` pairs matching the module's declared
    /// [`ParamSpec`]s — what `recommend_config()` emits so a
    /// regenerated configuration rebuilds this module identically.
    fn current_params(&self) -> Vec<(String, KnowValue)> {
        Vec::new()
    }

    /// Discard accumulated analysis state, returning the module to its
    /// just-constructed condition.
    ///
    /// Called by the supervisor after a panic unwound out of
    /// [`Module::on_packet`]/[`Module::on_tick`]: the panic may have
    /// left windows, reassembly buffers, or per-flow maps half-updated,
    /// and dispatch is wrapped in `AssertUnwindSafe`, so the module must
    /// drop that state rather than keep analyzing on top of it. Stateless
    /// modules can keep the default no-op.
    fn reset(&mut self) {}
}
