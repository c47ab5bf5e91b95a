//! The whole-system knowledge dataflow graph (`KL2xx`).
//!
//! The per-contract checks in [`crate::lint_system`] verify each edge in
//! isolation; this module materializes the *graph* those edges form —
//! module → key → module, annotated with the activation / per-entity /
//! collective / exported flags and the declared entity budgets — and
//! runs the checks that only make sense on the whole picture:
//!
//! * `KL201` — a collective (peer-synchronized) write no contract reads
//!   with `reads_collective`: sync bandwidth with no remote consumer.
//! * `KL202` — an exported key never read by any module: an inventory
//!   warning over the operator-facing export surface, suppressed per
//!   key with a documented contract-level `allow`.
//! * `KL203` — a write→read cycle through an activation input: modules
//!   that can oscillate each other's activation.
//! * `KL204` — a detection module with no knowledge path back to any
//!   sensing writer or the node contract.
//! * `KL205` — writer and reader of a shared per-entity key declaring
//!   inconsistent `entity_budget`s.
//! * `KL206` — a detection module declaring no activation input: the
//!   Module Manager, which subscribes each module to the labels of the
//!   features its descriptor needs, must subscribe this one to
//!   everything and re-evaluate it on every change.
//! * `KL207` — a module that needs a medium feature but reads no frame
//!   class on that medium (`needs(WifiMedium)` with `reads` limited to
//!   802.15.4 classes): the Module Manager routes it no frame of the
//!   portion that switches it on.
//!
//! The same graph renders as Graphviz DOT (`kalis-lint --graph`) and
//! feeds the per-peer sync read sets of [`crate::readset`].

use std::collections::{BTreeMap, BTreeSet};

use kalis_core::modules::{
    FrameClass, KeyPattern, KeyUse, KnowggetContract, ModuleKind, ModuleRegistry, ValueType,
};
use kalis_core::taxonomy::Feature;
use kalis_core::AttackKind;

use crate::diagnostics::{Code, Diagnostic};
use crate::system::{overlaps, SYSTEM_OWNER};

/// What kind of contract owner a graph node is.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum NodeKind {
    /// A sensing module (knowledge producer from raw traffic).
    Sensing,
    /// A detection module.
    Detection,
    /// The node-level (`kalis-node`) contract.
    System,
}

impl NodeKind {
    /// Stable label for DOT and JSON output.
    pub fn name(self) -> &'static str {
        match self {
            NodeKind::Sensing => "sensing",
            NodeKind::Detection => "detection",
            NodeKind::System => "system",
        }
    }
}

/// One module (or the node contract) in the dataflow graph.
#[derive(Debug, Clone)]
pub struct GraphNode {
    /// Registry name (or [`SYSTEM_OWNER`]).
    pub name: String,
    /// Sensing, detection, or the node contract.
    pub kind: NodeKind,
    /// The attack a detection module classifies.
    pub detects: Option<AttackKind>,
    /// The module's full contract: its activation inputs read first, as
    /// booleans, then what its contract declares.
    pub contract: KnowggetContract,
    /// The module's activation inputs: the knowgget labels of the
    /// features its descriptor needs (none for the node contract).
    pub activation: Vec<&'static str>,
    /// The features its descriptor needs (none for the node contract).
    pub needs: &'static [Feature],
    /// The frame classes its descriptor reads (every frame, for the
    /// node contract).
    pub reads: FrameClass,
}

impl GraphNode {
    /// Every registered module, in name order, then the node contract.
    pub(crate) fn from_registry(registry: &ModuleRegistry) -> Vec<GraphNode> {
        let mut nodes: Vec<GraphNode> = (registry.contracts().into_iter())
            .map(|(name, descriptor, mut contract)| {
                let activation: Vec<&'static str> = descriptor.activation_labels().collect();
                let inputs = (activation.iter()).fold(KnowggetContract::new(), |c, label| {
                    c.reads(*label, ValueType::Bool)
                });
                contract.reads.splice(0..0, inputs.reads);
                GraphNode {
                    name,
                    kind: match descriptor.kind {
                        ModuleKind::Sensing => NodeKind::Sensing,
                        ModuleKind::Detection => NodeKind::Detection,
                    },
                    detects: descriptor.detects,
                    contract,
                    activation,
                    needs: descriptor.needs,
                    reads: descriptor.reads,
                }
            })
            .collect();
        nodes.push(GraphNode {
            name: SYSTEM_OWNER.to_owned(),
            kind: NodeKind::System,
            detects: None,
            contract: kalis_core::system_contract(),
            activation: Vec::new(),
            needs: &[],
            reads: FrameClass::ANY,
        });
        nodes
    }

    /// Whether `read` is one of the node's activation inputs.
    pub(crate) fn activates(&self, read: &KeyUse) -> bool {
        matches!(&read.pattern, KeyPattern::Exact(label) if self.activation.contains(&label.as_str()))
    }
}

/// One `writer → key → reader` edge, carrying the union of the flags
/// both endpoints declare for the key.
#[derive(Debug, Clone)]
pub struct GraphEdge {
    /// Producing module.
    pub writer: String,
    /// Consuming module.
    pub reader: String,
    /// The key label (the writer's pattern rendering).
    pub key: String,
    /// Whether the reader's use feeds its activation predicate.
    pub activation: bool,
    /// Whether either side declares the key entity-specific.
    pub per_entity: bool,
    /// Whether the writer marks the key collective (peer-synchronized).
    pub collective: bool,
    /// Whether the writer marks the key exported.
    pub exported: bool,
}

/// The materialized knowledge dataflow graph.
#[derive(Debug, Clone)]
pub struct KnowledgeGraph {
    /// Every contract owner, sorted by name with the node contract last.
    pub nodes: Vec<GraphNode>,
    /// Every write→read edge, sorted `(writer, key, reader)`.
    pub edges: Vec<GraphEdge>,
}

impl KnowledgeGraph {
    /// Build the graph from every registered contract plus the
    /// node-level contract. Deterministic: the registry iterates its
    /// modules in name order and edges are sorted.
    pub fn from_registry(registry: &ModuleRegistry) -> Self {
        let nodes = GraphNode::from_registry(registry);
        let mut edges = Vec::new();
        for writer in &nodes {
            for write in &writer.contract.writes {
                for reader in &nodes {
                    for read in &reader.contract.reads {
                        if overlaps(&write.pattern, &read.pattern) {
                            edges.push(GraphEdge {
                                writer: writer.name.clone(),
                                reader: reader.name.clone(),
                                key: write.pattern.to_string(),
                                activation: reader.activates(read),
                                per_entity: write.per_entity || read.per_entity,
                                collective: write.collective,
                                exported: write.exported,
                            });
                        }
                    }
                }
            }
        }
        edges.sort_by(|a, b| (&a.writer, &a.key, &a.reader).cmp(&(&b.writer, &b.key, &b.reader)));
        KnowledgeGraph { nodes, edges }
    }

    /// The node named `name`, if present.
    pub fn node(&self, name: &str) -> Option<&GraphNode> {
        self.nodes.iter().find(|n| n.name == name)
    }

    fn writes(&self) -> impl Iterator<Item = (&GraphNode, &KeyUse)> {
        self.nodes
            .iter()
            .flat_map(|n| n.contract.writes.iter().map(move |w| (n, w)))
    }

    fn reads(&self) -> impl Iterator<Item = (&GraphNode, &KeyUse)> {
        self.nodes
            .iter()
            .flat_map(|n| n.contract.reads.iter().map(move |r| (n, r)))
    }

    /// Render as Graphviz DOT: modules as boxes (sensing filled,
    /// detection plain, the node contract dashed), keys as ellipses
    /// (doubled when collective), write edges solid, read edges dashed
    /// when they feed activation. Output is deterministic.
    pub fn to_dot(&self) -> String {
        let mut out = String::from("digraph kalis_knowledge {\n");
        out.push_str("  rankdir=LR;\n");
        out.push_str("  node [fontname=\"monospace\", fontsize=10];\n");
        for node in &self.nodes {
            let style = match node.kind {
                NodeKind::Sensing => "shape=box, style=filled, fillcolor=\"#cfe8ff\"",
                NodeKind::Detection => "shape=box, style=filled, fillcolor=\"#fff3c4\"",
                NodeKind::System => "shape=box, style=dashed",
            };
            let detects = node
                .detects
                .map(|a| format!("\\ndetects: {}", a.label()))
                .unwrap_or_default();
            out.push_str(&format!(
                "  \"{}\" [{style}, label=\"{}{detects}\"];\n",
                dot_escape(&node.name),
                dot_escape(&node.name),
            ));
        }
        // One node per distinct key label, annotated with its flags and
        // the writers' declared entity-budget floors.
        let mut keys: BTreeMap<String, Vec<String>> = BTreeMap::new();
        for (owner, write) in self.writes() {
            let key = write.pattern.to_string();
            let tags = keys.entry(key).or_default();
            if write.collective {
                tags.push("collective".to_owned());
            }
            if write.exported {
                tags.push("exported".to_owned());
            }
            if write.per_entity {
                tags.push("per-entity".to_owned());
                if let Some(spec) = owner.contract.entity_budget_spec() {
                    if let Some(min) = spec.min {
                        tags.push(format!("budget>={}", min as u64));
                    }
                }
            }
        }
        for (key, mut tags) in keys {
            tags.sort();
            tags.dedup();
            let annotations = if tags.is_empty() {
                String::new()
            } else {
                format!("\\n[{}]", tags.join(", "))
            };
            let collective = self
                .writes()
                .any(|(_, w)| w.collective && w.pattern.to_string() == key);
            let peripheries = if collective { 2 } else { 1 };
            out.push_str(&format!(
                "  \"key:{}\" [shape=ellipse, peripheries={peripheries}, label=\"{}{annotations}\"];\n",
                dot_escape(&key),
                dot_escape(&key),
            ));
        }
        let mut seen = BTreeSet::new();
        for (owner, write) in self.writes() {
            let key = write.pattern.to_string();
            if seen.insert((owner.name.clone(), key.clone())) {
                out.push_str(&format!(
                    "  \"{}\" -> \"key:{}\";\n",
                    dot_escape(&owner.name),
                    dot_escape(&key),
                ));
            }
        }
        // A read edge appears once per (key, reader), dashed when the
        // read feeds activation; reads with no producer still render so
        // broken graphs are visible.
        let mut read_edges: BTreeSet<(String, String, bool)> = BTreeSet::new();
        for (owner, read) in self.reads() {
            let produced: Vec<String> = self
                .writes()
                .filter(|(_, w)| overlaps(&w.pattern, &read.pattern))
                .map(|(_, w)| w.pattern.to_string())
                .collect();
            if produced.is_empty() {
                read_edges.insert((
                    read.pattern.to_string(),
                    owner.name.clone(),
                    owner.activates(read),
                ));
            }
            for key in produced {
                read_edges.insert((key, owner.name.clone(), owner.activates(read)));
            }
        }
        for (key, reader, activation) in read_edges {
            let style = if activation {
                " [style=dashed, label=\"activates\"]"
            } else {
                ""
            };
            out.push_str(&format!(
                "  \"key:{}\" -> \"{}\"{style};\n",
                dot_escape(&key),
                dot_escape(&reader),
            ));
        }
        out.push_str("}\n");
        out
    }

    /// Run the `KL2xx` whole-graph checks.
    pub fn lint(&self) -> Vec<Diagnostic> {
        let mut diags = Vec::new();
        self.check_sync_consumers(&mut diags);
        self.check_export_surface(&mut diags);
        self.check_activation_cycles(&mut diags);
        self.check_detection_reachability(&mut diags);
        self.check_entity_budgets(&mut diags);
        self.check_wildcard_subscribers(&mut diags);
        self.check_medium_reads(&mut diags);
        diags
    }

    /// KL201: a collective write synced to every peer that no contract
    /// reads across creators. A plain read sees the local copy only, so
    /// a writer reading its own key back is no consumer of the peers'.
    fn check_sync_consumers(&self, diags: &mut Vec<Diagnostic>) {
        for (owner, write) in self.writes() {
            if !write.collective {
                continue;
            }
            if owner.contract.allowed("KL201", write.pattern.root()) {
                continue;
            }
            if !self.reads().any(|(_, read)| reads_peer_copies(read, write)) {
                diags.push(Diagnostic::system(
                    Code::SyncWithoutConsumer,
                    format!(
                        "`{}` synchronizes `{}` to every peer, but no contract reads the peers' copies",
                        owner.name, write.pattern
                    ),
                ).with_note(
                    "collective knowledge costs sync bandwidth on every beacon; drop the `collective` flag or add a `reads_collective` consumer".to_owned(),
                ));
            }
        }
    }

    /// KL202 (warning): the exported surface nobody reads back. Every
    /// deliberate entry carries a contract-level `allow` with its
    /// justification; anything else is a stale export marker.
    fn check_export_surface(&self, diags: &mut Vec<Diagnostic>) {
        for (owner, write) in self.writes() {
            if !write.exported {
                continue;
            }
            let consumed = self
                .reads()
                .any(|(_, r)| overlaps(&write.pattern, &r.pattern));
            if consumed {
                continue;
            }
            if owner.contract.allowed("KL202", write.pattern.root()) {
                continue;
            }
            diags.push(Diagnostic::system(
                Code::ExportNeverRead,
                format!(
                    "`{}` exports `{}` but no module reads it back",
                    owner.name, write.pattern
                ),
            ).with_note(format!(
                "if the key is operator-facing by design, document it: `.allow(\"KL202\", \"{}\", \"why\")`",
                write.pattern.root()
            )));
        }
    }

    /// KL203: for every activation edge `W → R`, a path from `R` back to
    /// `W` closes a cycle through the activation input — `R` can be
    /// switched on and off by knowledge it (transitively) produces.
    fn check_activation_cycles(&self, diags: &mut Vec<Diagnostic>) {
        // writer -> readers adjacency, self-loops excluded (a module
        // re-reading its own key is ordinary state round-tripping).
        let mut adjacency: BTreeMap<&str, BTreeSet<&str>> = BTreeMap::new();
        for edge in &self.edges {
            if edge.writer != edge.reader {
                adjacency
                    .entry(edge.writer.as_str())
                    .or_default()
                    .insert(edge.reader.as_str());
            }
        }
        let mut reported = BTreeSet::new();
        for edge in &self.edges {
            if !edge.activation || edge.writer == edge.reader {
                continue;
            }
            if reaches(&adjacency, &edge.reader, &edge.writer)
                && reported.insert((edge.writer.clone(), edge.key.clone(), edge.reader.clone()))
            {
                diags.push(Diagnostic::system(
                    Code::ActivationCycle,
                    format!(
                        "activation input `{}` of `{}` is produced by `{}`, which `{}` transitively feeds: the activation can oscillate",
                        edge.key, edge.reader, edge.writer, edge.reader
                    ),
                ));
            }
        }
    }

    /// KL204: detection modules must be reachable from a sensing writer
    /// or the node contract via write→read edges; otherwise their whole
    /// input cone is detection-internal and nothing ever grounds it in
    /// observed traffic.
    fn check_detection_reachability(&self, diags: &mut Vec<Diagnostic>) {
        let mut adjacency: BTreeMap<&str, BTreeSet<&str>> = BTreeMap::new();
        for edge in &self.edges {
            adjacency
                .entry(edge.writer.as_str())
                .or_default()
                .insert(edge.reader.as_str());
        }
        let mut reachable: BTreeSet<&str> = BTreeSet::new();
        let mut frontier: Vec<&str> = self
            .nodes
            .iter()
            .filter(|n| n.kind != NodeKind::Detection)
            .map(|n| n.name.as_str())
            .collect();
        while let Some(name) = frontier.pop() {
            if !reachable.insert(name) {
                continue;
            }
            if let Some(next) = adjacency.get(name) {
                frontier.extend(next.iter().copied());
            }
        }
        for node in &self.nodes {
            if node.kind != NodeKind::Detection
                || node.contract.reads.is_empty()
                || reachable.contains(node.name.as_str())
            {
                continue;
            }
            diags.push(Diagnostic::system(
                Code::UnreachableDetection,
                format!(
                    "detection module `{}` is unreachable from any sensing writer: every input path dead-ends inside the detection layer",
                    node.name
                ),
            ));
        }
    }

    /// KL205: per-entity keys shared between modules need consistent
    /// state budgets — a reader without an `entity_budget` declaration
    /// (or with a different floor) undoes the writer's boundedness
    /// guarantee for the same entity population.
    fn check_entity_budgets(&self, diags: &mut Vec<Diagnostic>) {
        let mut reported = BTreeSet::new();
        for edge in &self.edges {
            if !edge.per_entity || edge.writer == edge.reader {
                continue;
            }
            let (Some(writer), Some(reader)) = (self.node(&edge.writer), self.node(&edge.reader))
            else {
                continue;
            };
            if writer.kind == NodeKind::System || reader.kind == NodeKind::System {
                continue;
            }
            if writer.contract.allowed("KL205", root_of(&edge.key))
                || reader.contract.allowed("KL205", root_of(&edge.key))
            {
                continue;
            }
            let w = writer.contract.entity_budget_spec().and_then(|s| s.min);
            let r = reader.contract.entity_budget_spec().and_then(|s| s.min);
            let problem = match (w, r) {
                (Some(wf), Some(rf)) if wf != rf => Some(format!(
                    "`{}` floors `entity_budget` at {wf} but `{}` at {rf}",
                    edge.writer, edge.reader
                )),
                (Some(_), None) => Some(format!(
                    "`{}` bounds its per-entity state but reader `{}` declares no `entity_budget`",
                    edge.writer, edge.reader
                )),
                (None, Some(_)) => Some(format!(
                    "`{}` bounds its per-entity state but writer `{}` declares no `entity_budget`",
                    edge.reader, edge.writer
                )),
                _ => None,
            };
            if let Some(problem) = problem {
                if reported.insert((edge.writer.clone(), edge.key.clone(), edge.reader.clone())) {
                    diags.push(Diagnostic::system(
                        Code::EntityBudgetMismatch,
                        format!("per-entity key `{}`: {problem}", edge.key),
                    ));
                }
            }
        }
    }

    /// KL206 (warning): the Module Manager compiles its subscription
    /// table from declared activation inputs; a detection module that
    /// declares none is subscribed to every knowledge change.
    fn check_wildcard_subscribers(&self, diags: &mut Vec<Diagnostic>) {
        for node in &self.nodes {
            if node.kind != NodeKind::Detection || !node.activation.is_empty() {
                continue;
            }
            diags.push(Diagnostic::system(
                Code::WildcardSubscriber,
                format!(
                    "detection module `{}` declares no activation input: it is re-evaluated on every knowledge change",
                    node.name
                ),
            ).with_note(
                "declare the features that switch it on with `ModuleDescriptor::needs(..)`".to_owned(),
            ));
        }
    }

    /// KL207: a module switched on by a medium must read a frame class
    /// that medium carries, or routing hands it none of that medium's
    /// frames.
    fn check_medium_reads(&self, diags: &mut Vec<Diagnostic>) {
        for node in &self.nodes {
            let unread = (node.needs.iter().filter_map(|need| need.medium()))
                .filter(|medium| !node.reads.carried_on(*medium));
            for medium in unread {
                diags.push(
                    Diagnostic::system(
                        Code::NeededMediumUnread,
                        format!(
                            "module `{}` needs the {medium} medium but reads only `{}` frames, none of which {medium} carries",
                            node.name,
                            node.reads.names()
                        ),
                    )
                    .with_note(
                        "declare a frame class of that medium with `ModuleDescriptor::reads(..)`"
                            .to_owned(),
                    ),
                );
            }
        }
    }
}

/// Whether `read` consumes the peers' copies of the collective `write`:
/// only a `reads_collective` read looks past the local creator. KL201
/// and the sync read sets share this one rule.
pub(crate) fn reads_peer_copies(read: &KeyUse, write: &KeyUse) -> bool {
    read.collective && overlaps(&write.pattern, &read.pattern)
}

/// The root label of a rendered key pattern (`Family.*` → `Family`).
fn root_of(key: &str) -> &str {
    key.strip_suffix(".*").unwrap_or(key)
}

/// Depth-first reachability over the module adjacency.
fn reaches(adjacency: &BTreeMap<&str, BTreeSet<&str>>, from: &str, to: &str) -> bool {
    let mut seen = BTreeSet::new();
    let mut frontier = vec![from];
    while let Some(name) = frontier.pop() {
        if name == to {
            return true;
        }
        if !seen.insert(name) {
            continue;
        }
        if let Some(next) = adjacency.get(name) {
            frontier.extend(next.iter().copied());
        }
    }
    false
}

/// Run every `KL2xx` check over the registry's knowledge dataflow graph.
pub fn lint_graph(registry: &ModuleRegistry) -> Vec<Diagnostic> {
    KnowledgeGraph::from_registry(registry).lint()
}

fn dot_escape(s: &str) -> String {
    s.replace('\\', "\\\\").replace('"', "\\\"")
}

#[cfg(test)]
mod tests {
    use super::*;
    use kalis_core::config::ModuleDef;
    use kalis_core::modules::{Module, ModuleCtx, ModuleDescriptor, ParamSpec};
    use kalis_core::taxonomy::Feature;
    use kalis_packets::CapturedPacket;

    struct FakeModule {
        descriptor: ModuleDescriptor,
        contract: KnowggetContract,
    }

    impl Module for FakeModule {
        fn descriptor(&self) -> ModuleDescriptor {
            self.descriptor.clone()
        }
        fn contract(&self) -> KnowggetContract {
            self.contract.clone()
        }
        fn on_packet(&mut self, _ctx: &mut ModuleCtx<'_>, _packet: &CapturedPacket) {}
    }

    fn registry_with(
        extras: Vec<(&'static str, ModuleDescriptor, KnowggetContract)>,
    ) -> ModuleRegistry {
        let mut reg = ModuleRegistry::with_defaults();
        for (name, descriptor, contract) in extras {
            let descriptor = descriptor.clone();
            let contract = contract.clone();
            reg.register(name, move |_: &ModuleDef| {
                Box::new(FakeModule {
                    descriptor: descriptor.clone(),
                    contract: contract.clone(),
                })
            });
        }
        reg
    }

    fn codes(diags: &[Diagnostic]) -> Vec<&'static str> {
        diags.iter().map(|d| d.code.as_str()).collect()
    }

    /// The shipped library's graph passes every KL2xx check — KL202's
    /// deliberate export surface carries documented allows.
    #[test]
    fn default_graph_is_clean() {
        let diags = lint_graph(&ModuleRegistry::with_defaults());
        assert!(diags.is_empty(), "got: {:#?}", diags);
    }

    #[test]
    fn graph_shape_is_deterministic_and_plausible() {
        let reg = ModuleRegistry::with_defaults();
        let a = KnowledgeGraph::from_registry(&reg);
        let b = KnowledgeGraph::from_registry(&reg);
        assert_eq!(a.to_dot(), b.to_dot(), "DOT must be deterministic");
        // Topology's Multihop feeds the flood detectors' activation.
        assert!(a.edges.iter().any(|e| e.writer == "TopologyDiscoveryModule"
            && e.reader == "IcmpFloodModule"
            && e.key == "Multihop"
            && e.activation));
        // The blackhole watchdog's DroppedOrigins reaches the wormhole
        // detector collectively, per-entity.
        assert!(a.edges.iter().any(|e| e.writer == "BlackholeModule"
            && e.reader == "WormholeModule"
            && e.collective
            && e.per_entity));
        let dot = a.to_dot();
        assert!(dot.starts_with("digraph kalis_knowledge {"));
        assert!(dot.contains("\"key:Multihop\""));
        assert!(dot.contains("label=\"activates\""));
        assert!(dot.contains("peripheries=2"), "collective keys doubled");
    }

    #[test]
    fn sync_without_consumer_is_kl201() {
        let reg = registry_with(vec![(
            "LonelySyncModule",
            ModuleDescriptor::detection("LonelySyncModule", AttackKind::Anomaly)
                .needs(&[Feature::MultiHop]),
            KnowggetContract::new().writes_collective("NobodyWantsThis", ValueType::Text),
        )]);
        let diags = lint_graph(&reg);
        assert_eq!(codes(&diags), vec!["KL201"]);
        assert!(diags[0].message.contains("NobodyWantsThis"));
        assert!(diags[0].message.contains("LonelySyncModule"));
    }

    #[test]
    fn kl201_respects_contract_allow() {
        let reg = registry_with(vec![(
            "LonelySyncModule",
            ModuleDescriptor::detection("LonelySyncModule", AttackKind::Anomaly)
                .needs(&[Feature::MultiHop]),
            KnowggetContract::new()
                .writes_collective("NobodyWantsThis", ValueType::Text)
                .allow("KL201", "NobodyWantsThis", "future fleet consumer"),
        )]);
        assert!(lint_graph(&reg).is_empty());
    }

    /// A writer reading its own collective key back sees its local copy
    /// only, whatever peers send: that read consumes nothing synced.
    #[test]
    fn a_collective_write_read_back_per_entity_is_kl201() {
        let contract = KnowggetContract::new()
            .reads_per_entity("OwnEstimate", ValueType::Float)
            .writes_collective("OwnEstimate", ValueType::Float);
        let reg = registry_with(vec![(
            "SelfReaderModule",
            ModuleDescriptor::sensing("SelfReaderModule"),
            contract,
        )]);
        let diags = lint_graph(&reg);
        assert_eq!(codes(&diags), vec!["KL201"]);
        assert!(diags[0].message.contains("OwnEstimate"));
        assert!(diags[0].notes[0].contains("`reads_collective` consumer"));
        // Read across creators, the same write has its consumer.
        let contract = KnowggetContract::new()
            .reads_collective("OwnEstimate", ValueType::Float)
            .writes_collective("OwnEstimate", ValueType::Float);
        let reg = registry_with(vec![(
            "PeerReaderModule",
            ModuleDescriptor::sensing("PeerReaderModule"),
            contract,
        )]);
        assert!(!codes(&lint_graph(&reg)).contains(&"KL201"));
    }

    #[test]
    fn export_never_read_is_kl202_warning() {
        let reg = registry_with(vec![(
            "StatsOnlyModule",
            ModuleDescriptor::sensing("StatsOnlyModule"),
            KnowggetContract::new()
                .writes("OrphanStat", ValueType::Int)
                .exported(),
        )]);
        let diags = lint_graph(&reg);
        assert_eq!(codes(&diags), vec!["KL202"]);
        assert_eq!(diags[0].severity, crate::diagnostics::Severity::Warning);
        assert!(diags[0].notes[0].contains("allow"));
    }

    #[test]
    fn activation_cycle_is_kl203() {
        // Each writes the knowgget that senses the other's need.
        let reg = registry_with(vec![
            (
                "PingModule",
                ModuleDescriptor::detection("PingModule", AttackKind::Anomaly)
                    .needs(&[Feature::SixLowpan]),
                KnowggetContract::new().writes("ProtocolSeen.IP", ValueType::Bool),
            ),
            (
                "PongModule",
                ModuleDescriptor::detection("PongModule", AttackKind::Anomaly)
                    .needs(&[Feature::IpConnectivity]),
                KnowggetContract::new().writes("ProtocolSeen.SIXLOWPAN", ValueType::Bool),
            ),
        ]);
        let diags = lint_graph(&reg);
        let cycles: Vec<_> = diags
            .iter()
            .filter(|d| d.code == Code::ActivationCycle)
            .collect();
        assert_eq!(cycles.len(), 2, "both directions oscillate: {:#?}", diags);
        assert!(cycles[0].message.contains("can oscillate"));
    }

    #[test]
    fn self_loop_is_not_a_cycle() {
        // Topology reads back its own Multihop/CtpRoot writes; wormhole
        // reads back its collective ExoticOrigins. Neither is KL203.
        let diags = lint_graph(&ModuleRegistry::with_defaults());
        assert!(!codes(&diags).contains(&"KL203"));
    }

    #[test]
    fn unreachable_detection_is_kl204() {
        let reg = registry_with(vec![
            (
                "IslandWriterModule",
                ModuleDescriptor::detection("IslandWriterModule", AttackKind::Anomaly),
                KnowggetContract::new()
                    .reads("IslandB", ValueType::Bool)
                    .writes("IslandA", ValueType::Bool),
            ),
            (
                "IslandReaderModule",
                ModuleDescriptor::detection("IslandReaderModule", AttackKind::Anomaly),
                KnowggetContract::new()
                    .reads("IslandA", ValueType::Bool)
                    .writes("IslandB", ValueType::Bool),
            ),
        ]);
        let diags = lint_graph(&reg);
        let kl204: Vec<_> = diags
            .iter()
            .filter(|d| d.code == Code::UnreachableDetection)
            .collect();
        assert_eq!(kl204.len(), 2, "got {:#?}", diags);
        assert!(kl204[0]
            .message
            .contains("unreachable from any sensing writer"));
    }

    #[test]
    fn entity_budget_mismatch_is_kl205() {
        // Reads the watchdog's per-entity DroppedOrigins without
        // declaring any entity_budget of its own.
        let reg = registry_with(vec![(
            "UnboundedReaderModule",
            ModuleDescriptor::detection("UnboundedReaderModule", AttackKind::Anomaly),
            KnowggetContract::new().reads_collective("DroppedOrigins", ValueType::Text),
        )]);
        let diags = lint_graph(&reg);
        let kl205: Vec<_> = diags
            .iter()
            .filter(|d| d.code == Code::EntityBudgetMismatch)
            .collect();
        assert!(!kl205.is_empty(), "got {:#?}", diags);
        assert!(kl205[0].message.contains("declares no `entity_budget`"));
    }

    #[test]
    fn detection_without_activation_input_is_kl206_warning() {
        // Reads knowledge, but says of none of it that activation does.
        let reg = registry_with(vec![(
            "AlwaysAskedModule",
            ModuleDescriptor::detection("AlwaysAskedModule", AttackKind::Anomaly),
            KnowggetContract::new().reads("Multihop", ValueType::Bool),
        )]);
        let diags = lint_graph(&reg);
        assert_eq!(codes(&diags), vec!["KL206"]);
        assert_eq!(diags[0].severity, crate::diagnostics::Severity::Warning);
        assert!(diags[0].message.contains("AlwaysAskedModule"));
        assert!(diags[0].notes[0].contains("needs"));
        assert!(diags[0].to_json().contains("\"code\":\"KL206\""));
        // A sensing module is always on: nothing to subscribe.
        let reg = registry_with(vec![(
            "QuietSensorModule",
            ModuleDescriptor::sensing("QuietSensorModule"),
            KnowggetContract::new().reads("Multihop", ValueType::Bool),
        )]);
        assert!(lint_graph(&reg).is_empty());
    }

    #[test]
    fn a_needed_medium_whose_frames_are_unread_is_kl207() {
        let contract = KnowggetContract::new();
        let wifi_on_154 = ModuleDescriptor::detection("WifiBlindModule", AttackKind::Anomaly)
            .needs(&[Feature::WifiMedium])
            .reads(FrameClass::IEEE802154 | FrameClass::CTP);
        let diags = lint_graph(&registry_with(vec![(
            "WifiBlindModule",
            wifi_on_154,
            contract.clone(),
        )]));
        assert_eq!(codes(&diags), vec!["KL207"]);
        assert_eq!(diags[0].severity, crate::diagnostics::Severity::Error);
        assert!(diags[0].message.contains("WifiBlindModule"));
        assert!(diags[0].message.contains("wifi"));
        assert!(diags[0].notes[0].contains("reads"));
        // Reading a class the medium carries — its own, an IP class, or
        // every frame — is clean.
        for reads in [FrameClass::WIFI_MGMT, FrameClass::UDP, FrameClass::ANY] {
            let descriptor = ModuleDescriptor::detection("WifiReaderModule", AttackKind::Anomaly)
                .needs(&[Feature::WifiMedium])
                .reads(reads);
            let reg = registry_with(vec![("WifiReaderModule", descriptor, contract.clone())]);
            assert!(lint_graph(&reg).is_empty(), "{}", reads.names());
        }
    }

    #[test]
    fn entity_budget_floor_difference_is_kl205() {
        let reg = registry_with(vec![(
            "OddBudgetReaderModule",
            ModuleDescriptor::detection("OddBudgetReaderModule", AttackKind::Anomaly),
            KnowggetContract::new()
                .reads_collective("DroppedOrigins", ValueType::Text)
                .accepts_param(ParamSpec::number("entity_budget", 99.0)),
        )]);
        let diags = lint_graph(&reg);
        assert!(
            diags
                .iter()
                .any(|d| d.code == Code::EntityBudgetMismatch && d.message.contains("99")),
            "got {:#?}",
            diags
        );
    }
}
