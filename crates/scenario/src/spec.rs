//! The `*.scn.kalis` scenario language: parsing and validation.
//!
//! A scenario file reuses the generic section/item surface grammar of
//! the paper's Fig. 6 configuration language (parsed span-preserving by
//! [`SpannedDocument`], so every rejection points at the offending
//! token):
//!
//! ```text
//! scenario = {
//!   name = "icmp flood under loss",
//!   symptoms = 4,
//! }
//! attacks = {
//!   icmp-flood (symptoms = 4),
//!   state-exhaustion (identities = 400, bursts = 8),
//! }
//! faults = {
//!   link (drop = 0.3, duplicate = 0.1, until = 45),
//!   partition (groups = "0|1", from = 20, until = 30),
//! }
//! node = {
//!   IcmpFloodModule (activationThresh = 1),
//!   Multihop = true,
//! }
//! expectations = {
//!   min-recall = 0.9,
//!   max-false-positives = 0,
//!   no-unpinned-quarantines,
//! }
//! ```
//!
//! Two topologies exist. `single` (the default) compiles the `attacks`
//! section onto the seeded trace builders in `kalis-bench` and runs one
//! Kalis node over the merged captures; `pair` compiles the `faults`
//! section onto the two-node collaborating sync-chaos harness. The
//! parser validates everything it can statically — attack names, fault
//! probabilities, expectation applicability per topology, and `node`
//! overrides (which are compiled to Fig. 6 text and pushed through the
//! `kalis-lint` configuration checks).

use std::path::Path;
use std::time::Duration;

use kalis_bench::scenarios::ScenarioKind;
use kalis_core::config::{SourcePos, SpannedDocument, SpannedItem, SpannedSection};
use kalis_core::modules::ModuleRegistry;
use kalis_core::{AttackKind, KnowValue};
use kalis_lint::distance::closest;
use kalis_lint::{lint_config, Severity as LintSeverity};
use kalis_netsim::fault::{FaultPlan, FaultWindow, LinkFaults};
use kalis_packets::Timestamp;
use kalis_telemetry::Trigger;

use crate::diagnostics::{Code, Diagnostic};
use crate::expect::{Expectation, EXPECTATION_NAMES};

/// Default pair-topology run length (matches the canonical chaos
/// experiment).
pub const DEFAULT_DURATION_SECS: u64 = 90;
/// Default symptom instances per standard attack.
pub const DEFAULT_SYMPTOMS: u32 = 4;
/// Default fabricated identities per exhaustion burst.
pub const DEFAULT_SPRAY_IDENTITIES: u32 = 400;
/// Default exhaustion bursts.
pub const DEFAULT_SPRAY_BURSTS: u32 = 8;

/// The sections a scenario file may declare.
const SECTION_NAMES: &[&str] = &[
    "scenario",
    "topology",
    "workload",
    "attacks",
    "faults",
    "node",
    "expectations",
];

/// Which harness executes the scenario.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum Topology {
    /// One Kalis node over a merged seeded capture trace (default).
    Single,
    /// Two collaborating nodes on the faulty sync wire.
    Pair,
}

impl Topology {
    /// The directive as written in scenario files.
    pub fn name(self) -> &'static str {
        match self {
            Topology::Single => "single",
            Topology::Pair => "pair",
        }
    }
}

/// One `attacks` section entry.
#[derive(Debug, Clone, PartialEq)]
pub enum AttackSpec {
    /// A seeded `kalis-bench` scenario trace.
    Standard {
        /// Which builder.
        kind: ScenarioKind,
        /// Symptom instances to inject.
        symptoms: u32,
    },
    /// The state-exhaustion identity spray (no scored ground truth).
    Exhaustion {
        /// Fabricated identities per burst.
        identities: u32,
        /// Bursts, 9 virtual seconds apart.
        bursts: u32,
    },
}

impl AttackSpec {
    /// The item name as written in scenario files.
    pub fn label(&self) -> &'static str {
        match self {
            AttackSpec::Standard { kind, .. } => kind.name(),
            AttackSpec::Exhaustion { .. } => "state-exhaustion",
        }
    }
}

/// The `link (...)` fault item: probabilistic per-frame faults, with an
/// optional active window.
#[derive(Debug, Clone, PartialEq)]
pub struct LinkFaultSpec {
    /// Per-frame fault probabilities and fixed delay.
    pub faults: LinkFaults,
    /// Active window `[from, until)` in virtual seconds; `None` = the
    /// whole run.
    pub window: Option<(u64, u64)>,
}

/// The `partition (...)` fault item: endpoint groups that cannot
/// exchange frames during the window.
#[derive(Debug, Clone, PartialEq)]
pub struct PartitionSpec {
    /// Endpoint groups (`groups = "0|1"` → `[[0], [1]]`).
    pub groups: Vec<Vec<u32>>,
    /// Window start, virtual seconds (inclusive).
    pub from: u64,
    /// Window end, virtual seconds (exclusive).
    pub until: u64,
}

/// The `crash (...)` fault item: one endpoint silent for the window.
#[derive(Debug, Clone, PartialEq)]
pub struct CrashSpec {
    /// The crashed endpoint.
    pub node: u32,
    /// Window start, virtual seconds (inclusive).
    pub from: u64,
    /// Window end, virtual seconds (exclusive).
    pub until: u64,
}

/// Everything the `faults` section declared.
#[derive(Debug, Clone, Default, PartialEq)]
pub struct FaultsSpec {
    /// Probabilistic link faults.
    pub link: Option<LinkFaultSpec>,
    /// Hard partitions.
    pub partitions: Vec<PartitionSpec>,
    /// Crash windows.
    pub crashes: Vec<CrashSpec>,
}

impl FaultsSpec {
    /// Whether no fault of any kind was declared.
    pub fn is_empty(&self) -> bool {
        self.link.is_none() && self.partitions.is_empty() && self.crashes.is_empty()
    }
}

/// A parsed, validated scenario. Seeds are deliberately absent: the
/// runner supplies the seed matrix, and everything seeded in the file's
/// execution derives from that one value.
#[derive(Debug, Clone, PartialEq)]
pub struct ScenarioSpec {
    /// Display name (defaults to the file stem).
    pub name: String,
    /// Which harness runs it.
    pub topology: Topology,
    /// Pair-topology run length, virtual seconds.
    pub duration_secs: u64,
    /// The attack workload (single topology).
    pub attacks: Vec<AttackSpec>,
    /// Feed the scripted wormhole evidence on the pair harness.
    pub wormhole_evidence: bool,
    /// The compiled fault plan inputs.
    pub faults: FaultsSpec,
    /// The `node` section compiled to Fig. 6 configuration text
    /// (single topology), already lint-validated.
    pub node_config: Option<String>,
    /// The `node` section's knowgget overrides as chaos-config suffix
    /// text (pair topology), e.g. `", Multihop = true"`.
    pub extra_knowggets: String,
    /// The claims to check after the run.
    pub expectations: Vec<Expectation>,
}

impl ScenarioSpec {
    /// Parse and validate a scenario file. All diagnostics are
    /// collected (not first-error-wins) so a broken file reports every
    /// problem in one pass.
    pub fn parse(file: &str, text: &str) -> Result<ScenarioSpec, Vec<Diagnostic>> {
        let doc = match SpannedDocument::parse(text) {
            Ok(doc) => doc,
            Err(err) => {
                return Err(vec![Diagnostic::at(
                    Code::Parse,
                    file,
                    err.pos,
                    err.message,
                )])
            }
        };
        let mut parser = ScnParser::new(file);
        parser.document(&doc);
        let spec = parser.finish();
        if parser.diags.is_empty() {
            Ok(spec)
        } else {
            Err(parser.diags)
        }
    }

    /// Compile the `faults` section onto a seeded [`FaultPlan`], or
    /// `None` when the scenario declares no faults.
    pub fn fault_plan(&self, seed: u64) -> Option<FaultPlan> {
        if self.faults.is_empty() {
            return None;
        }
        let mut plan = FaultPlan::new(seed);
        if let Some(link) = &self.faults.link {
            plan = plan.with_faults(link.faults);
            if let Some((from, until)) = link.window {
                plan = plan.with_window(window(from, until));
            }
        }
        for p in &self.faults.partitions {
            plan = plan.with_partition(p.groups.clone(), window(p.from, p.until));
        }
        for c in &self.faults.crashes {
            plan = plan.with_crash(c.node, window(c.from, c.until));
        }
        Some(plan)
    }
}

fn window(from: u64, until: u64) -> FaultWindow {
    FaultWindow::new(Timestamp::from_secs(from), Timestamp::from_secs(until))
}

/// The scenario name implied by a path: the file name minus the
/// `.scn.kalis` suffix.
pub fn default_name(file: &str) -> String {
    Path::new(file)
        .file_name()
        .map(|s| s.to_string_lossy().into_owned())
        .unwrap_or_else(|| file.to_owned())
        .trim_end_matches(".kalis")
        .trim_end_matches(".scn")
        .to_owned()
}

/// Render a value back to source form (text re-quoted, so generated
/// Fig. 6 config round-trips through the lexer).
fn render_value(v: &KnowValue) -> String {
    match v {
        KnowValue::Text(s) => format!("\"{s}\""),
        other => other.to_wire(),
    }
}

/// Accumulates parsed sections and diagnostics across one file.
struct ScnParser<'a> {
    file: &'a str,
    diags: Vec<Diagnostic>,
    name: Option<String>,
    topology: Option<(Topology, SourcePos)>,
    duration: Option<(u64, SourcePos)>,
    symptoms: Option<(u64, SourcePos)>,
    attacks: Vec<(AttackSpec, SourcePos)>,
    attacks_pos: Option<SourcePos>,
    wormhole_evidence: Option<SourcePos>,
    faults: FaultsSpec,
    partition_positions: Vec<SourcePos>,
    crash_positions: Vec<SourcePos>,
    node_modules: Vec<SpannedItem>,
    node_knowggets: Vec<SpannedItem>,
    node_pos: Option<SourcePos>,
    expectations: Vec<(Expectation, SourcePos)>,
    expectations_pos: Option<SourcePos>,
    expectation_items: usize,
}

impl<'a> ScnParser<'a> {
    fn new(file: &'a str) -> Self {
        ScnParser {
            file,
            diags: Vec::new(),
            name: None,
            topology: None,
            duration: None,
            symptoms: None,
            attacks: Vec::new(),
            attacks_pos: None,
            wormhole_evidence: None,
            faults: FaultsSpec::default(),
            partition_positions: Vec::new(),
            crash_positions: Vec::new(),
            node_modules: Vec::new(),
            node_knowggets: Vec::new(),
            node_pos: None,
            expectations: Vec::new(),
            expectations_pos: None,
            expectation_items: 0,
        }
    }

    fn err(&mut self, code: Code, pos: SourcePos, message: impl Into<String>) {
        self.diags
            .push(Diagnostic::at(code, self.file, pos, message));
    }

    fn err_note(
        &mut self,
        code: Code,
        pos: SourcePos,
        message: impl Into<String>,
        note: impl Into<String>,
    ) {
        self.diags
            .push(Diagnostic::at(code, self.file, pos, message).with_note(note));
    }

    fn document(&mut self, doc: &SpannedDocument) {
        let mut seen: Vec<&str> = Vec::new();
        for section in &doc.sections {
            let name = section.name.as_str();
            if SECTION_NAMES.contains(&name) {
                if seen.contains(&name) {
                    self.err(
                        Code::Conflict,
                        section.name_pos,
                        format!("duplicate section `{name}`"),
                    );
                    continue;
                }
                seen.push(section.name.as_str());
            }
            match name {
                "scenario" => self.scenario_section(section),
                "topology" => self.topology_section(section),
                "workload" => self.workload_section(section),
                "attacks" => self.attacks_section(section),
                "faults" => self.faults_section(section),
                "node" => self.node_section(section),
                "expectations" => self.expectations_section(section),
                other => {
                    let mut diag = Diagnostic::at(
                        Code::UnknownSection,
                        self.file,
                        section.name_pos,
                        format!("unknown section `{other}`"),
                    )
                    .with_note(format!("sections: {}", SECTION_NAMES.join(", ")));
                    if let Some(near) = closest(other, SECTION_NAMES.iter().copied()) {
                        diag = diag.with_note(format!("did you mean `{near}`?"));
                    }
                    self.diags.push(diag);
                }
            }
        }
    }

    // --- value-shape helpers -------------------------------------------

    /// The item must be `name = value` with no parameters.
    fn value_of<'b>(
        &mut self,
        item: &'b SpannedItem,
        what: &str,
    ) -> Option<(&'b KnowValue, SourcePos)> {
        if let Some(param) = item.params.first() {
            let (what, name) = (what.to_owned(), item.name.clone());
            self.err(
                Code::BadValue,
                param.key_pos,
                format!("{what} `{name}` does not take parameters"),
            );
            return None;
        }
        match &item.value {
            Some((value, pos)) => Some((value, *pos)),
            None => {
                let (what, name) = (what.to_owned(), item.name.clone());
                self.err(
                    Code::BadValue,
                    item.name_pos,
                    format!("{what} `{name}` needs `= value`"),
                );
                None
            }
        }
    }

    /// The item must be a bare directive (tolerating an explicit
    /// `= true`). Returns whether it was acceptable.
    fn bare(&mut self, item: &SpannedItem, what: &str) -> bool {
        if let Some(param) = item.params.first() {
            let (what, name) = (what.to_owned(), item.name.clone());
            self.err(
                Code::BadValue,
                param.key_pos,
                format!("{what} `{name}` does not take parameters"),
            );
            return false;
        }
        match &item.value {
            None | Some((KnowValue::Bool(true), _)) => true,
            Some((KnowValue::Bool(false), pos)) => {
                let (pos, what, name) = (*pos, what.to_owned(), item.name.clone());
                self.err(
                    Code::BadValue,
                    pos,
                    format!("{what} `{name}` cannot be negated; delete the line instead"),
                );
                false
            }
            Some((_, pos)) => {
                let (what, name) = (what.to_owned(), item.name.clone());
                self.err(
                    Code::BadValue,
                    *pos,
                    format!("{what} `{name}` is a bare directive and takes no value"),
                );
                false
            }
        }
    }

    fn u64_in(
        &mut self,
        value: &KnowValue,
        pos: SourcePos,
        what: &str,
        lo: u64,
        hi: u64,
    ) -> Option<u64> {
        let ok = match value {
            KnowValue::Int(i) if *i >= 0 => Some(*i as u64),
            _ => None,
        };
        match ok {
            Some(v) if (lo..=hi).contains(&v) => Some(v),
            _ => {
                self.err(
                    Code::BadValue,
                    pos,
                    format!(
                        "{what} must be an integer in [{lo}, {hi}], got `{}`",
                        value.to_wire()
                    ),
                );
                None
            }
        }
    }

    fn probability(&mut self, value: &KnowValue, pos: SourcePos, what: &str) -> Option<f64> {
        let v = match value {
            KnowValue::Float(f) => Some(*f),
            KnowValue::Int(i) => Some(*i as f64),
            _ => None,
        };
        match v {
            Some(v) if (0.0..=1.0).contains(&v) => Some(v),
            _ => {
                self.err(
                    Code::BadValue,
                    pos,
                    format!(
                        "{what} must be a probability in [0, 1], got `{}`",
                        value.to_wire()
                    ),
                );
                None
            }
        }
    }

    fn fraction(&mut self, value: &KnowValue, pos: SourcePos, what: &str) -> Option<f64> {
        self.probability(value, pos, what)
    }

    // --- sections ------------------------------------------------------

    fn scenario_section(&mut self, section: &SpannedSection) {
        for item in &section.items {
            match item.name.as_str() {
                "name" => {
                    if let Some((value, pos)) = self.value_of(item, "scenario setting") {
                        match value {
                            KnowValue::Text(s) => self.name = Some(s.clone()),
                            other => {
                                let got = other.to_wire();
                                self.err(
                                    Code::BadValue,
                                    pos,
                                    format!("`name` must be a quoted string, got `{got}`"),
                                );
                            }
                        }
                    }
                }
                "duration" => {
                    if let Some((value, pos)) = self.value_of(item, "scenario setting") {
                        let (value, pos) = (value.clone(), pos);
                        if let Some(v) =
                            self.u64_in(&value, pos, "`duration` (virtual seconds)", 1, 3600)
                        {
                            self.duration = Some((v, pos));
                        }
                    }
                }
                "symptoms" => {
                    if let Some((value, pos)) = self.value_of(item, "scenario setting") {
                        let (value, pos) = (value.clone(), pos);
                        if let Some(v) = self.u64_in(&value, pos, "`symptoms`", 1, 64) {
                            self.symptoms = Some((v, pos));
                        }
                    }
                }
                other => {
                    let (other, pos) = (other.to_owned(), item.name_pos);
                    self.err_note(
                        Code::UnknownItem,
                        pos,
                        format!("unknown scenario setting `{other}`"),
                        "scenario settings: name, duration, symptoms",
                    );
                }
            }
        }
    }

    fn topology_section(&mut self, section: &SpannedSection) {
        for item in &section.items {
            let topology = match item.name.as_str() {
                "single" => Topology::Single,
                "pair" => Topology::Pair,
                other => {
                    let (other, pos) = (other.to_owned(), item.name_pos);
                    self.err_note(
                        Code::UnknownItem,
                        pos,
                        format!("unknown topology `{other}`"),
                        "topologies: single (one node over a merged trace), \
                         pair (two collaborating nodes on the faulty sync wire)",
                    );
                    continue;
                }
            };
            if !self.bare(item, "topology") {
                continue;
            }
            if self.topology.is_some() {
                self.err(
                    Code::BadValue,
                    item.name_pos,
                    "`topology` takes exactly one directive",
                );
                continue;
            }
            self.topology = Some((topology, item.name_pos));
        }
    }

    fn workload_section(&mut self, section: &SpannedSection) {
        for item in &section.items {
            match item.name.as_str() {
                "wormhole-evidence" => {
                    if self.bare(item, "workload directive") {
                        self.wormhole_evidence = Some(item.name_pos);
                    }
                }
                other => {
                    let (other, pos) = (other.to_owned(), item.name_pos);
                    self.err_note(
                        Code::UnknownItem,
                        pos,
                        format!("unknown workload directive `{other}`"),
                        "workload directives: wormhole-evidence",
                    );
                }
            }
        }
    }

    fn attacks_section(&mut self, section: &SpannedSection) {
        self.attacks_pos = Some(section.name_pos);
        for item in &section.items {
            if let Some((_, pos)) = &item.value {
                let (pos, name) = (*pos, item.name.clone());
                self.err(
                    Code::BadValue,
                    pos,
                    format!(
                        "attack `{name}` does not take `= value`; use `(key = value)` parameters"
                    ),
                );
                continue;
            }
            if item.name == "state-exhaustion" {
                self.exhaustion_attack(item);
                continue;
            }
            let Some(kind) = ScenarioKind::all()
                .iter()
                .copied()
                .find(|k| k.name() == item.name)
            else {
                let names: Vec<&str> = ScenarioKind::all()
                    .iter()
                    .map(|k| k.name())
                    .chain(std::iter::once("state-exhaustion"))
                    .collect();
                let mut diag = Diagnostic::at(
                    Code::UnknownItem,
                    self.file,
                    item.name_pos,
                    format!("unknown attack `{}`", item.name),
                )
                .with_note(format!("attacks: {}", names.join(", ")));
                if let Some(near) = closest(&item.name, names.iter().copied()) {
                    diag = diag.with_note(format!("did you mean `{near}`?"));
                }
                self.diags.push(diag);
                continue;
            };
            let mut symptoms = None;
            for param in &item.params {
                match param.key.as_str() {
                    "symptoms" => {
                        let (value, pos) = (param.value.clone(), param.value_pos);
                        symptoms = self.u64_in(&value, pos, "`symptoms`", 1, 64);
                    }
                    other => {
                        let (other, pos, name) =
                            (other.to_owned(), param.key_pos, item.name.clone());
                        self.err_note(
                            Code::BadValue,
                            pos,
                            format!("attack `{name}` has no parameter `{other}`"),
                            "attack parameters: symptoms",
                        );
                    }
                }
            }
            let symptoms = symptoms.map(|s| s as u32).unwrap_or(DEFAULT_SYMPTOMS);
            self.attacks
                .push((AttackSpec::Standard { kind, symptoms }, item.name_pos));
        }
    }

    fn exhaustion_attack(&mut self, item: &SpannedItem) {
        let mut identities = DEFAULT_SPRAY_IDENTITIES;
        let mut bursts = DEFAULT_SPRAY_BURSTS;
        for param in &item.params {
            match param.key.as_str() {
                "identities" => {
                    let (value, pos) = (param.value.clone(), param.value_pos);
                    if let Some(v) = self.u64_in(&value, pos, "`identities`", 1, 100_000) {
                        identities = v as u32;
                    }
                }
                "bursts" => {
                    let (value, pos) = (param.value.clone(), param.value_pos);
                    if let Some(v) = self.u64_in(&value, pos, "`bursts`", 1, 64) {
                        bursts = v as u32;
                    }
                }
                other => {
                    let (other, pos) = (other.to_owned(), param.key_pos);
                    self.err_note(
                        Code::BadValue,
                        pos,
                        format!("`state-exhaustion` has no parameter `{other}`"),
                        "state-exhaustion parameters: identities, bursts",
                    );
                }
            }
        }
        self.attacks
            .push((AttackSpec::Exhaustion { identities, bursts }, item.name_pos));
    }

    fn faults_section(&mut self, section: &SpannedSection) {
        for item in &section.items {
            if let Some((_, pos)) = &item.value {
                let (pos, name) = (*pos, item.name.clone());
                self.err(
                    Code::BadValue,
                    pos,
                    format!(
                        "fault `{name}` does not take `= value`; use `(key = value)` parameters"
                    ),
                );
                continue;
            }
            match item.name.as_str() {
                "link" => self.link_fault(item),
                "partition" => self.partition_fault(item),
                "crash" => self.crash_fault(item),
                other => {
                    let (other, pos) = (other.to_owned(), item.name_pos);
                    self.err_note(
                        Code::UnknownItem,
                        pos,
                        format!("unknown fault `{other}`"),
                        "faults: link (drop/duplicate/corrupt/reorder/delay-ms/from/until), \
                         partition (groups/from/until), crash (node/from/until)",
                    );
                }
            }
        }
    }

    fn link_fault(&mut self, item: &SpannedItem) {
        if self.faults.link.is_some() {
            self.err(
                Code::Conflict,
                item.name_pos,
                "duplicate `link` fault item; declare one and widen its probabilities",
            );
            return;
        }
        let mut faults = LinkFaults::default();
        let mut from: Option<(u64, SourcePos)> = None;
        let mut until: Option<(u64, SourcePos)> = None;
        for param in &item.params {
            let (value, pos) = (param.value.clone(), param.value_pos);
            match param.key.as_str() {
                "drop" => {
                    if let Some(v) = self.fraction(&value, pos, "`drop`") {
                        faults.drop = v;
                    }
                }
                "duplicate" => {
                    if let Some(v) = self.fraction(&value, pos, "`duplicate`") {
                        faults.duplicate = v;
                    }
                }
                "corrupt" => {
                    if let Some(v) = self.fraction(&value, pos, "`corrupt`") {
                        faults.corrupt = v;
                    }
                }
                "reorder" => {
                    if let Some(v) = self.fraction(&value, pos, "`reorder`") {
                        faults.reorder = v;
                    }
                }
                "delay-ms" => {
                    if let Some(v) = self.u64_in(&value, pos, "`delay-ms`", 0, 10_000) {
                        faults.delay = Duration::from_millis(v);
                    }
                }
                "from" => {
                    if let Some(v) = self.u64_in(&value, pos, "`from` (virtual seconds)", 0, 3600) {
                        from = Some((v, pos));
                    }
                }
                "until" => {
                    if let Some(v) = self.u64_in(&value, pos, "`until` (virtual seconds)", 1, 3600)
                    {
                        until = Some((v, pos));
                    }
                }
                other => {
                    let (other, pos) = (other.to_owned(), param.key_pos);
                    self.err_note(
                        Code::BadValue,
                        pos,
                        format!("`link` has no parameter `{other}`"),
                        "link parameters: drop, duplicate, corrupt, reorder, delay-ms, from, until",
                    );
                }
            }
        }
        let window = match (from, until) {
            (None, None) => None,
            (from, Some((until_v, until_pos))) => {
                let from_v = from.map(|(v, _)| v).unwrap_or(0);
                if until_v <= from_v {
                    self.err(
                        Code::BadValue,
                        until_pos,
                        format!("`until` ({until_v}) must exceed `from` ({from_v})"),
                    );
                    None
                } else {
                    Some((from_v, until_v))
                }
            }
            (Some((_, from_pos)), None) => {
                self.err(
                    Code::BadValue,
                    from_pos,
                    "a `link` window with `from` also needs `until`",
                );
                None
            }
        };
        self.faults.link = Some(LinkFaultSpec { faults, window });
    }

    /// Shared `from`/`until` window extraction for partition and crash
    /// items (both required there).
    fn required_window(&mut self, item: &SpannedItem, what: &str) -> Option<(u64, u64)> {
        let mut from = None;
        let mut until = None;
        for param in &item.params {
            let (value, pos) = (param.value.clone(), param.value_pos);
            match param.key.as_str() {
                "from" => from = self.u64_in(&value, pos, "`from` (virtual seconds)", 0, 3600),
                "until" => {
                    until = self
                        .u64_in(&value, pos, "`until` (virtual seconds)", 1, 3600)
                        .map(|v| (v, pos));
                }
                _ => {}
            }
        }
        match (from, until) {
            (Some(f), Some((u, until_pos))) => {
                if u <= f {
                    self.err(
                        Code::BadValue,
                        until_pos,
                        format!("`until` ({u}) must exceed `from` ({f})"),
                    );
                    None
                } else {
                    Some((f, u))
                }
            }
            _ => {
                let what = what.to_owned();
                self.err(
                    Code::BadValue,
                    item.name_pos,
                    format!("`{what}` needs both `from` and `until` (virtual seconds)"),
                );
                None
            }
        }
    }

    fn partition_fault(&mut self, item: &SpannedItem) {
        let mut groups: Option<Vec<Vec<u32>>> = None;
        for param in &item.params {
            match param.key.as_str() {
                "groups" => match &param.value {
                    KnowValue::Text(s) => match parse_groups(s) {
                        Some(parsed) => groups = Some(parsed),
                        None => {
                            let (pos, s) = (param.value_pos, s.clone());
                            self.err_note(
                                Code::BadValue,
                                pos,
                                format!("cannot parse partition groups `{s}`"),
                                "groups are `|`-separated lists of comma-separated \
                                 endpoint indices, e.g. \"0|1\" or \"0,1|2,3\"",
                            );
                        }
                    },
                    other => {
                        let (pos, got) = (param.value_pos, other.to_wire());
                        self.err(
                            Code::BadValue,
                            pos,
                            format!("`groups` must be a quoted string like \"0|1\", got `{got}`"),
                        );
                    }
                },
                "from" | "until" => {}
                other => {
                    let (other, pos) = (other.to_owned(), param.key_pos);
                    self.err_note(
                        Code::BadValue,
                        pos,
                        format!("`partition` has no parameter `{other}`"),
                        "partition parameters: groups, from, until",
                    );
                }
            }
        }
        let Some(window) = self.required_window(item, "partition") else {
            return;
        };
        let Some(groups) = groups else {
            self.err(
                Code::BadValue,
                item.name_pos,
                "`partition` needs `groups`, e.g. groups = \"0|1\"",
            );
            return;
        };
        self.faults.partitions.push(PartitionSpec {
            groups,
            from: window.0,
            until: window.1,
        });
        self.partition_positions.push(item.name_pos);
    }

    fn crash_fault(&mut self, item: &SpannedItem) {
        let mut node = None;
        for param in &item.params {
            match param.key.as_str() {
                "node" => {
                    let (value, pos) = (param.value.clone(), param.value_pos);
                    node = self.u64_in(&value, pos, "`node` (endpoint index)", 0, u32::MAX as u64);
                }
                "from" | "until" => {}
                other => {
                    let (other, pos) = (other.to_owned(), param.key_pos);
                    self.err_note(
                        Code::BadValue,
                        pos,
                        format!("`crash` has no parameter `{other}`"),
                        "crash parameters: node, from, until",
                    );
                }
            }
        }
        let Some(window) = self.required_window(item, "crash") else {
            return;
        };
        let Some(node) = node else {
            self.err(
                Code::BadValue,
                item.name_pos,
                "`crash` needs `node` (the endpoint index to silence)",
            );
            return;
        };
        self.faults.crashes.push(CrashSpec {
            node: node as u32,
            from: window.0,
            until: window.1,
        });
        self.crash_positions.push(item.name_pos);
    }

    fn node_section(&mut self, section: &SpannedSection) {
        self.node_pos = Some(section.name_pos);
        for item in &section.items {
            if item.value.is_some() {
                self.node_knowggets.push(item.clone());
            } else {
                self.node_modules.push(item.clone());
            }
        }
    }

    fn expectations_section(&mut self, section: &SpannedSection) {
        self.expectations_pos = Some(section.name_pos);
        self.expectation_items += section.items.len();
        for item in &section.items {
            let pos = item.name_pos;
            match item.name.as_str() {
                "min-recall" | "min-accuracy" => {
                    if let Some((value, vpos)) = self.value_of(item, "expectation") {
                        let (value, vpos, is_recall) =
                            (value.clone(), vpos, item.name == "min-recall");
                        let what = if is_recall {
                            "`min-recall`"
                        } else {
                            "`min-accuracy`"
                        };
                        if let Some(v) = self.fraction(&value, vpos, what) {
                            let e = if is_recall {
                                Expectation::MinRecall(v)
                            } else {
                                Expectation::MinAccuracy(v)
                            };
                            self.expectations.push((e, pos));
                        }
                    }
                }
                "max-false-positives" => {
                    if let Some((value, vpos)) = self.value_of(item, "expectation") {
                        let (value, vpos) = (value.clone(), vpos);
                        if let Some(v) =
                            self.u64_in(&value, vpos, "`max-false-positives`", 0, 1_000_000)
                        {
                            self.expectations
                                .push((Expectation::MaxFalsePositives(v), pos));
                        }
                    }
                }
                "sync-converged-within" => {
                    if let Some((value, vpos)) = self.value_of(item, "expectation") {
                        let (value, vpos) = (value.clone(), vpos);
                        if let Some(v) = self.u64_in(
                            &value,
                            vpos,
                            "`sync-converged-within` (virtual seconds)",
                            1,
                            3600,
                        ) {
                            self.expectations
                                .push((Expectation::SyncConvergedWithin(v), pos));
                        }
                    }
                }
                "min-retransmits" => {
                    if let Some((value, vpos)) = self.value_of(item, "expectation") {
                        let (value, vpos) = (value.clone(), vpos);
                        if let Some(v) =
                            self.u64_in(&value, vpos, "`min-retransmits`", 0, 1_000_000)
                        {
                            self.expectations
                                .push((Expectation::MinRetransmits(v), pos));
                        }
                    }
                }
                "min-faults-injected" => {
                    if let Some((value, vpos)) = self.value_of(item, "expectation") {
                        let (value, vpos) = (value.clone(), vpos);
                        if let Some(v) =
                            self.u64_in(&value, vpos, "`min-faults-injected`", 0, 100_000_000)
                        {
                            self.expectations
                                .push((Expectation::MinFaultsInjected(v), pos));
                        }
                    }
                }
                "first-detection-within" => {
                    if let Some((value, vpos)) = self.value_of(item, "expectation") {
                        let (value, vpos) = (value.clone(), vpos);
                        if let Some(v) = self.u64_in(
                            &value,
                            vpos,
                            "`first-detection-within` (virtual seconds)",
                            1,
                            3600,
                        ) {
                            self.expectations
                                .push((Expectation::FirstDetectionWithin(v), pos));
                        }
                    }
                }
                "alerts" => self.alerts_expectation(item),
                "diag-captured" => self.diag_captured_expectation(item),
                "no-unpinned-quarantines" => {
                    if self.bare(item, "expectation") {
                        self.expectations
                            .push((Expectation::NoUnpinnedQuarantines, pos));
                    }
                }
                "state-budgets-respected" => {
                    if self.bare(item, "expectation") {
                        self.expectations
                            .push((Expectation::StateBudgetsRespected, pos));
                    }
                }
                "readiness-recovered" => {
                    if self.bare(item, "expectation") {
                        self.expectations
                            .push((Expectation::ReadinessRecovered, pos));
                    }
                }
                "degraded-recovered" => {
                    if self.bare(item, "expectation") {
                        self.expectations
                            .push((Expectation::DegradedRecovered, pos));
                    }
                }
                other => {
                    let mut diag = Diagnostic::at(
                        Code::UnknownExpectation,
                        self.file,
                        pos,
                        format!("unknown expectation `{other}`"),
                    )
                    .with_note(format!("expectations: {}", EXPECTATION_NAMES.join(", ")));
                    if let Some(near) = closest(other, EXPECTATION_NAMES.iter().copied()) {
                        diag = diag.with_note(format!("did you mean `{near}`?"));
                    }
                    self.diags.push(diag);
                }
            }
        }
    }

    fn alerts_expectation(&mut self, item: &SpannedItem) {
        if let Some((_, vpos)) = &item.value {
            let vpos = *vpos;
            self.err(
                Code::BadValue,
                vpos,
                "`alerts` takes `(kind = ..., min = ...)` parameters, not `= value`",
            );
            return;
        }
        let mut kind: Option<String> = None;
        let mut saw_kind = false;
        let mut min = 1u64;
        for param in &item.params {
            match param.key.as_str() {
                "kind" => {
                    saw_kind = true;
                    let label = param.value.to_wire();
                    if AttackKind::all().iter().any(|k| k.label() == label) {
                        kind = Some(label);
                    } else {
                        let labels: Vec<&str> =
                            AttackKind::all().iter().map(|k| k.label()).collect();
                        let mut diag = Diagnostic::at(
                            Code::BadValue,
                            self.file,
                            param.value_pos,
                            format!("unknown alert kind `{label}`"),
                        )
                        .with_note(format!("alert kinds: {}", labels.join(", ")));
                        if let Some(near) = closest(&label, labels.iter().copied()) {
                            diag = diag.with_note(format!("did you mean `{near}`?"));
                        }
                        self.diags.push(diag);
                    }
                }
                "min" => {
                    let (value, pos) = (param.value.clone(), param.value_pos);
                    if let Some(v) = self.u64_in(&value, pos, "`min`", 1, 1_000_000) {
                        min = v;
                    }
                }
                other => {
                    let (other, pos) = (other.to_owned(), param.key_pos);
                    self.err_note(
                        Code::BadValue,
                        pos,
                        format!("`alerts` has no parameter `{other}`"),
                        "alerts parameters: kind, min",
                    );
                }
            }
        }
        let Some(kind) = kind else {
            if !saw_kind {
                self.err(
                    Code::BadValue,
                    item.name_pos,
                    "`alerts` needs `kind`, e.g. alerts (kind = icmp-flood, min = 1)",
                );
            }
            return;
        };
        self.expectations
            .push((Expectation::Alerts { kind, min }, item.name_pos));
    }

    fn diag_captured_expectation(&mut self, item: &SpannedItem) {
        if let Some((_, vpos)) = &item.value {
            let vpos = *vpos;
            self.err(
                Code::BadValue,
                vpos,
                "`diag-captured` is bare or takes `(trigger = ...)`, not `= value`",
            );
            return;
        }
        let mut trigger: Option<String> = None;
        let mut bad = false;
        for param in &item.params {
            match param.key.as_str() {
                "trigger" => {
                    let name = param.value.to_wire();
                    if Trigger::from_name(&name).is_some() {
                        trigger = Some(name);
                    } else {
                        bad = true;
                        let names: Vec<&'static str> =
                            Trigger::ALL.iter().map(|t| t.name()).collect();
                        let mut diag = Diagnostic::at(
                            Code::BadValue,
                            self.file,
                            param.value_pos,
                            format!("unknown diagnostics trigger `{name}`"),
                        )
                        .with_note(format!("triggers: {}", names.join(", ")));
                        if let Some(near) = closest(&name, names.iter().copied()) {
                            diag = diag.with_note(format!("did you mean `{near}`?"));
                        }
                        self.diags.push(diag);
                    }
                }
                other => {
                    bad = true;
                    let (other, pos) = (other.to_owned(), param.key_pos);
                    self.err_note(
                        Code::BadValue,
                        pos,
                        format!("`diag-captured` has no parameter `{other}`"),
                        "diag-captured parameters: trigger",
                    );
                }
            }
        }
        if !bad {
            self.expectations
                .push((Expectation::DiagCaptured { trigger }, item.name_pos));
        }
    }

    // --- assembly ------------------------------------------------------

    fn finish(&mut self) -> ScenarioSpec {
        let topology = self.topology.map(|(t, _)| t).unwrap_or(Topology::Single);

        // Cross-section contracts.
        if topology == Topology::Pair {
            if let Some(pos) = self.attacks_pos {
                self.err_note(
                    Code::Conflict,
                    pos,
                    "`attacks` requires `topology = { single }`",
                    "the pair topology runs the two-node sync-chaos harness; its only \
                     traffic knob is `workload = { wormhole-evidence }`",
                );
            }
            if let Some(item) = self.node_modules.first() {
                let pos = item.name_pos;
                self.err_note(
                    Code::Conflict,
                    pos,
                    "module pins require `topology = { single }`",
                    "pair nodes run the fixed default module set; only knowgget \
                     overrides (`Key = value`) apply",
                );
            }
            let bad_endpoints: Vec<SourcePos> = self
                .faults
                .partitions
                .iter()
                .zip(&self.partition_positions)
                .filter(|(p, _)| p.groups.iter().flatten().any(|&e| e > 1))
                .map(|(_, pos)| *pos)
                .chain(
                    self.faults
                        .crashes
                        .iter()
                        .zip(&self.crash_positions)
                        .filter(|(c, _)| c.node > 1)
                        .map(|(_, pos)| *pos),
                )
                .collect();
            for pos in bad_endpoints {
                self.err_note(
                    Code::BadValue,
                    pos,
                    "pair topology has exactly two endpoints: 0 (K1) and 1 (K2)",
                    "e.g. partition (groups = \"0|1\", ...) or crash (node = 1, ...)",
                );
            }
        } else {
            if let Some(pos) = self.wormhole_evidence {
                self.err(
                    Code::Conflict,
                    pos,
                    "workload `wormhole-evidence` requires `topology = { pair }`",
                );
            }
            if let Some((_, pos)) = self.duration {
                self.err_note(
                    Code::BadValue,
                    pos,
                    "`duration` applies to pair topology only",
                    "single-topology runs end when their merged capture trace does",
                );
            }
        }

        // Expectation / topology applicability.
        let mismatches: Vec<(SourcePos, String, &'static str)> = self
            .expectations
            .iter()
            .filter(|(e, _)| !e.applies_to(topology))
            .map(|(e, pos)| {
                let required = if topology == Topology::Single {
                    "pair"
                } else {
                    "single"
                };
                (*pos, e.name().to_owned(), required)
            })
            .collect();
        for (pos, name, required) in mismatches {
            self.err_note(
                Code::TopologyMismatch,
                pos,
                format!(
                    "expectation `{name}` has no evidence under `topology = {{ {} }}`",
                    topology.name()
                ),
                format!("`{name}` requires `topology = {{ {required} }}`"),
            );
        }

        // A scenario that asserts nothing proves nothing.
        match self.expectations_pos {
            None => self.diags.push(
                Diagnostic::file_level(
                    Code::NoExpectations,
                    self.file,
                    "scenario declares no `expectations` section",
                )
                .with_note(
                    "a scenario that asserts nothing proves nothing; add e.g. \
                            `expectations = { min-recall = 0.5 }`",
                ),
            ),
            Some(pos) => {
                // Flag literal emptiness only; a section whose items
                // were all rejected already carries those diagnostics.
                if self.expectation_items == 0 {
                    self.err(Code::NoExpectations, pos, "`expectations` section is empty");
                }
            }
        }

        // Compile and lint the node overrides.
        let (node_config, extra_knowggets) = self.compile_node_overrides();

        ScenarioSpec {
            name: self.name.clone().unwrap_or_else(|| default_name(self.file)),
            topology,
            duration_secs: self
                .duration
                .map(|(v, _)| v)
                .unwrap_or(DEFAULT_DURATION_SECS),
            attacks: self.attacks.iter().map(|(a, _)| a.clone()).collect(),
            wormhole_evidence: self.wormhole_evidence.is_some(),
            faults: self.faults.clone(),
            node_config,
            extra_knowggets,
            expectations: self.expectations.iter().map(|(e, _)| e.clone()).collect(),
        }
    }

    /// Render the `node` section to Fig. 6 configuration text, push it
    /// through the `kalis-lint` configuration checks, and map each lint
    /// error back to the scenario-file position of the offending item.
    ///
    /// Two texts are generated. The *runtime* text holds exactly what
    /// was written (pins + knowggets) and is what the executor feeds
    /// `KalisBuilder::with_config`. The *lint* text additionally lists
    /// every default-library module, because the executor also calls
    /// `with_default_modules()` — scope-satisfaction (`KL106`) must be
    /// judged against the module set that will actually run, not the
    /// pinned subset alone.
    fn compile_node_overrides(&mut self) -> (Option<String>, String) {
        if self.node_modules.is_empty() && self.node_knowggets.is_empty() {
            return (None, String::new());
        }
        let anchor = self.node_pos.unwrap_or(SourcePos { line: 1, column: 1 });
        let registry = ModuleRegistry::with_defaults();

        let module_line = |item: &SpannedItem| {
            let mut line = item.name.clone();
            if !item.params.is_empty() {
                let params: Vec<String> = item
                    .params
                    .iter()
                    .map(|p| format!("{} = {}", p.key, render_value(&p.value)))
                    .collect();
                line.push_str(&format!(" ({})", params.join(", ")));
            }
            line
        };
        let knowgget_line = |item: &SpannedItem| {
            let (value, _) = item.value.as_ref().expect("knowgget items carry values");
            format!("{} = {}", item.name, render_value(value))
        };

        // The lint text: pinned modules, then the rest of the default
        // library, then the a-priori knowggets. Generated line number
        // (1-based) -> scenario-file position; library filler lines map
        // to the section header.
        let mut text = String::new();
        let mut map: Vec<SourcePos> = Vec::new();
        let push_line = |text: &mut String, map: &mut Vec<SourcePos>, line: &str, pos| {
            text.push_str(line);
            text.push('\n');
            map.push(pos);
        };
        let filler: Vec<&str> = registry
            .names()
            .into_iter()
            .filter(|name| !self.node_modules.iter().any(|m| &m.name == name))
            .collect();
        push_line(&mut text, &mut map, "modules = {", anchor);
        for item in &self.node_modules {
            push_line(
                &mut text,
                &mut map,
                &format!("  {},", module_line(item)),
                item.name_pos,
            );
        }
        for (i, name) in filler.iter().enumerate() {
            let comma = if i + 1 < filler.len() { "," } else { "" };
            push_line(&mut text, &mut map, &format!("  {name}{comma}"), anchor);
        }
        push_line(&mut text, &mut map, "}", anchor);
        if !self.node_knowggets.is_empty() {
            push_line(&mut text, &mut map, "knowggets = {", anchor);
            for (i, item) in self.node_knowggets.iter().enumerate() {
                let comma = if i + 1 < self.node_knowggets.len() {
                    ","
                } else {
                    ""
                };
                push_line(
                    &mut text,
                    &mut map,
                    &format!("  {}{comma}", knowgget_line(item)),
                    item.name_pos,
                );
            }
            push_line(&mut text, &mut map, "}", anchor);
        }

        for diag in lint_config(self.file, &text, &registry) {
            if diag.severity != LintSeverity::Error {
                continue;
            }
            let pos = diag
                .pos
                .and_then(|p| map.get(p.line.saturating_sub(1)).copied())
                .unwrap_or(anchor);
            let mut out = Diagnostic::at(
                Code::NodeContract,
                self.file,
                pos,
                format!(
                    "node override rejected by config lint [{}]: {}",
                    diag.code, diag.message
                ),
            );
            for note in diag.notes {
                out = out.with_note(note);
            }
            self.diags.push(out);
        }

        // The runtime text: exactly what was written.
        let mut runtime = String::new();
        if !self.node_modules.is_empty() {
            runtime.push_str("modules = {\n");
            let lines: Vec<String> = self
                .node_modules
                .iter()
                .map(|item| format!("  {}", module_line(item)))
                .collect();
            runtime.push_str(&lines.join(",\n"));
            runtime.push_str("\n}\n");
        }
        if !self.node_knowggets.is_empty() {
            runtime.push_str("knowggets = {\n");
            let lines: Vec<String> = self
                .node_knowggets
                .iter()
                .map(|item| format!("  {}", knowgget_line(item)))
                .collect();
            runtime.push_str(&lines.join(",\n"));
            runtime.push_str("\n}\n");
        }

        let extra: String = self
            .node_knowggets
            .iter()
            .map(|item| format!(", {}", knowgget_line(item)))
            .collect();
        (Some(runtime), extra)
    }
}

/// `"0,1|2,3"` → `[[0, 1], [2, 3]]`.
fn parse_groups(s: &str) -> Option<Vec<Vec<u32>>> {
    let groups: Option<Vec<Vec<u32>>> = s
        .split('|')
        .map(|group| {
            let members: Option<Vec<u32>> = group
                .split(',')
                .map(|m| m.trim().parse::<u32>().ok())
                .collect();
            members.filter(|m| !m.is_empty())
        })
        .collect();
    groups.filter(|g| g.len() >= 2)
}

#[cfg(test)]
mod tests {
    use super::*;

    fn parse(text: &str) -> Result<ScenarioSpec, Vec<Diagnostic>> {
        ScenarioSpec::parse("test.scn.kalis", text)
    }

    fn codes(result: &Result<ScenarioSpec, Vec<Diagnostic>>) -> Vec<&'static str> {
        result
            .as_ref()
            .err()
            .map(|diags| diags.iter().map(|d| d.code.as_str()).collect())
            .unwrap_or_default()
    }

    #[test]
    fn minimal_single_scenario_parses_with_defaults() {
        let spec = parse(
            "attacks = { icmp-flood }\n\
             expectations = { min-recall = 0.5 }\n",
        )
        .expect("valid scenario");
        assert_eq!(spec.name, "test");
        assert_eq!(spec.topology, Topology::Single);
        assert_eq!(
            spec.attacks,
            vec![AttackSpec::Standard {
                kind: ScenarioKind::IcmpFlood,
                symptoms: DEFAULT_SYMPTOMS,
            }]
        );
        assert!(spec.fault_plan(7).is_none());
        assert_eq!(spec.expectations, vec![Expectation::MinRecall(0.5)]);
    }

    #[test]
    fn first_detection_within_parses_and_rejects_zero() {
        let spec = parse(
            "attacks = { selective-forwarding (symptoms = 20) }\n\
             expectations = { first-detection-within = 15 }\n",
        )
        .expect("valid scenario");
        assert_eq!(
            spec.expectations,
            vec![Expectation::FirstDetectionWithin(15)]
        );
        let result = parse(
            "attacks = { selective-forwarding }\n\
             expectations = { first-detection-within = 0 }\n",
        );
        assert_eq!(codes(&result), vec!["KS103"]);
    }

    #[test]
    fn diag_captured_parses_bare_and_with_trigger() {
        let spec = parse(
            "attacks = { state-exhaustion }\n\
             expectations = { diag-captured }\n",
        )
        .expect("valid scenario");
        assert_eq!(
            spec.expectations,
            vec![Expectation::DiagCaptured { trigger: None }]
        );
        let spec = parse(
            "attacks = { state-exhaustion }\n\
             expectations = { diag-captured (trigger = state-exhaustion) }\n",
        )
        .expect("valid scenario");
        assert_eq!(
            spec.expectations,
            vec![Expectation::DiagCaptured {
                trigger: Some("state-exhaustion".into())
            }]
        );
        let result = parse(
            "attacks = { state-exhaustion }\n\
             expectations = { diag-captured (trigger = state-exhaustio) }\n",
        );
        let diags = result.unwrap_err();
        assert_eq!(diags.len(), 1, "{diags:?}");
        assert_eq!(diags[0].code, Code::BadValue);
        assert!(
            diags[0]
                .notes
                .iter()
                .any(|n| n.contains("did you mean `state-exhaustion`")),
            "{diags:?}"
        );
        let result = parse(
            "attacks = { state-exhaustion }\n\
             expectations = { diag-captured = 1 }\n",
        );
        assert_eq!(codes(&result), vec!["KS103"]);
    }

    #[test]
    fn full_pair_scenario_compiles_its_fault_plan() {
        let spec = parse(
            "scenario = { name = \"chaos\", duration = 90 }\n\
             topology = { pair }\n\
             workload = { wormhole-evidence }\n\
             faults = {\n\
               link (drop = 0.3, duplicate = 0.1, corrupt = 0.05, reorder = 0.1, until = 45),\n\
               partition (groups = \"0|1\", from = 20, until = 30),\n\
             }\n\
             node = { Multihop = true }\n\
             expectations = {\n\
               sync-converged-within = 90,\n\
               degraded-recovered,\n\
               min-retransmits = 1,\n\
               min-faults-injected = 1,\n\
             }\n",
        )
        .expect("valid scenario");
        assert_eq!(spec.name, "chaos");
        assert_eq!(spec.topology, Topology::Pair);
        assert!(spec.wormhole_evidence);
        assert_eq!(spec.extra_knowggets, ", Multihop = true");
        let link = spec.faults.link.as_ref().expect("link faults");
        assert_eq!(link.faults.drop, 0.3);
        assert_eq!(link.window, Some((0, 45)));
        assert_eq!(spec.faults.partitions[0].groups, vec![vec![0], vec![1]]);
        assert!(spec.fault_plan(7).is_some());
        assert_eq!(spec.expectations.len(), 4);
    }

    #[test]
    fn unknown_names_get_their_own_codes_and_suggestions() {
        let result = parse(
            "atacks = { icmp-flood }\n\
             expectations = { min-recal = 0.5 }\n",
        );
        let codes = codes(&result);
        assert!(codes.contains(&"KS101"), "{result:?}");
        assert!(codes.contains(&"KS104"), "{result:?}");
        let diags = result.unwrap_err();
        assert!(diags
            .iter()
            .any(|d| d.notes.iter().any(|n| n.contains("did you mean `attacks`"))));
        assert!(diags.iter().any(|d| d
            .notes
            .iter()
            .any(|n| n.contains("did you mean `min-recall`"))));
    }

    #[test]
    fn out_of_range_probability_is_rejected_at_the_value() {
        let result = parse(
            "topology = { pair }\n\
             faults = { link (drop = 1.5) }\n\
             expectations = { min-faults-injected = 1 }\n",
        );
        let diags = result.unwrap_err();
        assert_eq!(diags.len(), 1, "{diags:?}");
        assert_eq!(diags[0].code, Code::BadValue);
        let pos = diags[0].pos.expect("positioned");
        assert_eq!((pos.line, pos.column), (2, 25));
    }

    #[test]
    fn topology_mismatched_expectations_are_rejected() {
        let result = parse(
            "attacks = { scan }\n\
             expectations = { sync-converged-within = 60, min-recall = 0.5 }\n",
        );
        let diags = result.unwrap_err();
        assert_eq!(diags.len(), 1);
        assert_eq!(diags[0].code, Code::TopologyMismatch);
        assert!(diags[0].message.contains("sync-converged-within"));
    }

    #[test]
    fn pair_topology_rejects_attacks_and_module_pins() {
        let result = parse(
            "topology = { pair }\n\
             attacks = { icmp-flood }\n\
             node = { IcmpFloodModule, Multihop = true }\n\
             expectations = { min-faults-injected = 0 }\n",
        );
        let diags = result.unwrap_err();
        assert!(diags.iter().all(|d| d.code == Code::Conflict), "{diags:?}");
        assert_eq!(diags.len(), 2, "{diags:?}");
    }

    #[test]
    fn missing_expectations_section_is_fatal() {
        let result = parse("attacks = { icmp-flood }\n");
        let diags = result.unwrap_err();
        assert_eq!(diags.len(), 1);
        assert_eq!(diags[0].code, Code::NoExpectations);
    }

    #[test]
    fn node_overrides_go_through_the_config_lint() {
        let result = parse(
            "attacks = { icmp-flood }\n\
             node = { IcmpFloodModul }\n\
             expectations = { min-recall = 0.5 }\n",
        );
        let diags = result.unwrap_err();
        assert_eq!(diags.len(), 1, "{diags:?}");
        assert_eq!(diags[0].code, Code::NodeContract);
        let pos = diags[0].pos.expect("mapped back to the scenario file");
        assert_eq!((pos.line, pos.column), (2, 10));
        assert!(
            diags[0].notes.iter().any(|n| n.contains("IcmpFloodModule")),
            "lint suggestion carried over: {diags:?}"
        );
    }

    #[test]
    fn unknown_alert_kind_is_rejected_with_suggestion() {
        let result = parse(
            "attacks = { icmp-flood }\n\
             expectations = { alerts (kind = icmp-floods) }\n",
        );
        let diags = result.unwrap_err();
        assert_eq!(diags.len(), 1, "{diags:?}");
        assert!(diags[0]
            .notes
            .iter()
            .any(|n| n.contains("did you mean `icmp-flood`")));
    }

    #[test]
    fn groups_parse_requires_two_groups_of_indices() {
        assert_eq!(parse_groups("0|1"), Some(vec![vec![0], vec![1]]));
        assert_eq!(parse_groups("0,1|2,3"), Some(vec![vec![0, 1], vec![2, 3]]));
        assert_eq!(parse_groups("01"), None);
        assert_eq!(parse_groups("a|b"), None);
        assert_eq!(parse_groups(""), None);
    }

    #[test]
    fn duplicate_sections_conflict() {
        let result = parse(
            "attacks = { icmp-flood }\n\
             attacks = { scan }\n\
             expectations = { min-recall = 0.1 }\n",
        );
        let diags = result.unwrap_err();
        assert_eq!(diags.len(), 1);
        assert_eq!(diags[0].code, Code::Conflict);
        assert!(diags[0].message.contains("duplicate section `attacks`"));
    }
}
