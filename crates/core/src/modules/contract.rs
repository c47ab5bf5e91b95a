//! Declarative knowgget contracts: the machine-checked form of the
//! knowledge graph that drives module activation.
//!
//! Kalis's premise is knowledge-driven activation — detection modules
//! read knowggets (`Multihop`, `ProtocolSeen.IP`, `CtpRoot`, …) that
//! sensing modules, a-priori configuration, or peer sync must produce.
//! Historically those links were untyped `&str` lookups: a typo'd key or
//! a reader with no producer silently yields a module that can never
//! activate. A [`KnowggetContract`] declares every other key a module
//! reads and every key it writes (with its expected [`ValueType`] and
//! [`KeyPattern`] families for dot-suffixed labels); the keys its
//! activation reads follow from the features its descriptor
//! [`needs`](super::ModuleDescriptor::needs). The `kalis-lint`
//! whole-system analysis joins the two to verify the graph at build time
//! instead of discovering holes at detection time.

use core::fmt;

use crate::knowledge::KnowValue;

/// The value type a contract participant expects for a key.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash)]
pub enum ValueType {
    /// Boolean feature flags (`Multihop = true`).
    Bool,
    /// Integer counts (`MonitoredNodes = 8`).
    Int,
    /// Floating-point measurements (`SignalStrength@A = -67.0`).
    Float,
    /// Free-form text (`CtpRoot = "0x0001"`).
    Text,
    /// Any value; used by generic consumers (dashboards, exporters).
    Any,
}

impl ValueType {
    /// Whether a concrete value satisfies this expectation.
    ///
    /// The wire format erases some distinctions (`-67.0` goes to the wire
    /// as `-67` and returns as `Int`), so the check follows the same
    /// coercions as [`KnowValue`]'s typed accessors: `Int` satisfies
    /// `Float`, integral `Float` satisfies `Int`, and `Text` satisfies
    /// everything its content parses as.
    pub fn accepts(self, value: &KnowValue) -> bool {
        match self {
            ValueType::Any => true,
            ValueType::Bool => value.as_bool().is_some(),
            ValueType::Int => value.as_int().is_some(),
            ValueType::Float => value.as_f64().is_some(),
            ValueType::Text => true, // every value has a text view
        }
    }

    /// Whether a value of type `produced` can satisfy a reader expecting
    /// `self` (the writer/reader compatibility relation used by the lint
    /// graph analysis).
    pub fn compatible_with(self, produced: ValueType) -> bool {
        use ValueType::*;
        matches!(
            (self, produced),
            (Any, _)
                | (_, Any)
                | (Bool, Bool)
                | (Int, Int)
                | (Float, Float)
                | (Int, Float)
                | (Float, Int)
                | (Text, _)
        )
    }
}

impl fmt::Display for ValueType {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        f.write_str(match self {
            ValueType::Bool => "bool",
            ValueType::Int => "int",
            ValueType::Float => "float",
            ValueType::Text => "text",
            ValueType::Any => "any",
        })
    }
}

/// A knowgget *label* pattern named by a contract.
///
/// Labels here are the paper's dotted labels without creator/entity
/// decoration (`Multihop`, `ProtocolSeen.IP`); entity suffixes are a
/// per-knowgget property declared on the [`KeyUse`], not in the pattern.
#[derive(Debug, Clone, PartialEq, Eq, Hash)]
pub enum KeyPattern {
    /// One specific label, e.g. `Multihop` or `ProtocolSeen.IP`.
    Exact(String),
    /// A whole dot-suffixed family rooted at a label, e.g.
    /// `ProtocolSeen.*` (declared by the writer that discovers the
    /// members dynamically).
    Family(String),
}

impl KeyPattern {
    /// An exact-label pattern.
    pub fn exact(label: impl Into<String>) -> Self {
        KeyPattern::Exact(label.into())
    }

    /// A dot-suffixed family pattern rooted at `root`.
    pub fn family(root: impl Into<String>) -> Self {
        KeyPattern::Family(root.into())
    }

    /// Whether a concrete label is covered by this pattern.
    pub fn matches(&self, label: &str) -> bool {
        match self {
            KeyPattern::Exact(exact) => exact == label,
            KeyPattern::Family(root) => label
                .strip_prefix(root.as_str())
                .is_some_and(|rest| rest.starts_with('.') && rest.len() > 1),
        }
    }

    /// Whether `other`'s concrete labels are all covered by this pattern:
    /// a `Family` covers its `Exact` members and itself; `Exact` covers
    /// only an identical `Exact`.
    pub fn covers(&self, other: &KeyPattern) -> bool {
        match (self, other) {
            (KeyPattern::Exact(a), KeyPattern::Exact(b)) => a == b,
            (KeyPattern::Family(a), KeyPattern::Family(b)) => a == b,
            (KeyPattern::Family(_), KeyPattern::Exact(label)) => self.matches(label),
            (KeyPattern::Exact(_), KeyPattern::Family(_)) => false,
        }
    }

    /// The root label (before the first dot for families).
    pub fn root(&self) -> &str {
        match self {
            KeyPattern::Exact(label) => label,
            KeyPattern::Family(root) => root,
        }
    }
}

impl fmt::Display for KeyPattern {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        match self {
            KeyPattern::Exact(label) => f.write_str(label),
            KeyPattern::Family(root) => write!(f, "{root}.*"),
        }
    }
}

/// One read or write edge of a module's knowgget contract.
#[derive(Debug, Clone, PartialEq)]
pub struct KeyUse {
    /// The label (or label family) touched.
    pub pattern: KeyPattern,
    /// The value type the module expects (reads) or produces (writes).
    pub value_type: ValueType,
    /// The knowgget is entity-specific (`label@entity`).
    pub per_entity: bool,
    /// For writes: the knowgget is marked collective (synchronized to
    /// peers). For reads: the module correlates *peer* copies of the key
    /// (via `get_all_creators`), so peer sync is an acceptable producer.
    pub collective: bool,
    /// For writes: the knowgget is part of the node's exported knowledge
    /// surface (operator dashboards, `recommend_config`), so the lint
    /// pass must not flag it as a dead write even when no module reads
    /// it back.
    pub exported: bool,
    /// Inclusive lower bound for numeric reads (config knobs);
    /// `kalis-lint` checks configured a-priori values against it.
    pub min: Option<f64>,
    /// Inclusive upper bound for numeric reads.
    pub max: Option<f64>,
}

impl KeyUse {
    fn new(pattern: KeyPattern, value_type: ValueType) -> Self {
        KeyUse {
            pattern,
            value_type,
            per_entity: false,
            collective: false,
            exported: false,
            min: None,
            max: None,
        }
    }
}

/// Accepted constructor parameter for a module (the `name (key = value)`
/// clauses of the Fig. 6 configuration grammar).
#[derive(Debug, Clone, PartialEq)]
pub struct ParamSpec {
    /// The parameter key as written in configuration files.
    pub name: &'static str,
    /// Expected value type.
    pub value_type: ValueType,
    /// Inclusive lower bound, when the parameter is numeric.
    pub min: Option<f64>,
    /// Inclusive upper bound, when the parameter is numeric.
    pub max: Option<f64>,
}

impl ParamSpec {
    /// A numeric parameter with an inclusive minimum.
    pub fn number(name: &'static str, min: f64) -> Self {
        ParamSpec {
            name,
            value_type: ValueType::Float,
            min: Some(min),
            max: None,
        }
    }
}

/// A documented suppression of one `kalis-lint` graph check (`KL2xx`)
/// for one key this contract touches — the contract-level counterpart
/// of the `// kalis-lint: allow(KL3xx)` source pragma. Every rule must
/// carry a justification; the lint pass surfaces allows in `--json`
/// output so suppressions stay reviewable.
#[derive(Debug, Clone, PartialEq)]
pub struct AllowRule {
    /// The diagnostic code suppressed (e.g. `"KL202"`).
    pub code: &'static str,
    /// Root label of the key the suppression applies to.
    pub key: &'static str,
    /// Why the finding is deliberate (required, shown in diagnostics).
    pub why: &'static str,
}

/// The declarative knowgget contract of one module: every key it reads
/// beyond its activation inputs (those follow from the features its
/// [`super::ModuleDescriptor`] needs), every key it writes, and the
/// constructor parameters it accepts.
///
/// Built fluently:
///
/// ```
/// use kalis_core::modules::{KnowggetContract, ValueType};
///
/// let contract = KnowggetContract::new()
///     .reads("CtpRoot", ValueType::Text)
///     .writes_family("TrafficFrequency", ValueType::Float);
/// assert_eq!(contract.reads.len(), 1);
/// assert!(contract.writes[0].pattern.matches("TrafficFrequency.TCPSYN"));
/// ```
#[derive(Debug, Clone, PartialEq, Default)]
pub struct KnowggetContract {
    /// Keys the module consults in `on_packet`/`on_tick`.
    pub reads: Vec<KeyUse>,
    /// Keys the module produces.
    pub writes: Vec<KeyUse>,
    /// Constructor parameters accepted from configuration files.
    pub params: Vec<ParamSpec>,
    /// Documented `KL2xx` suppressions (see [`AllowRule`]).
    pub allows: Vec<AllowRule>,
}

impl KnowggetContract {
    /// An empty contract (the default for embedder-supplied modules that
    /// have not declared one; the lint pass reports nothing for them).
    pub fn new() -> Self {
        KnowggetContract::default()
    }

    fn push_read(mut self, key: KeyUse) -> Self {
        self.reads.push(key);
        self
    }

    /// Declare a plain read.
    pub fn reads(self, label: impl Into<String>, ty: ValueType) -> Self {
        self.push_read(KeyUse::new(KeyPattern::exact(label), ty))
    }

    /// Declare an entity-specific read (`label@entity`).
    pub fn reads_per_entity(self, label: impl Into<String>, ty: ValueType) -> Self {
        let mut key = KeyUse::new(KeyPattern::exact(label), ty);
        key.per_entity = true;
        self.push_read(key)
    }

    /// Declare a cross-creator (collective-correlation) read: the module
    /// consumes peer copies of this key, so peer synchronization counts
    /// as a producer.
    pub fn reads_collective(self, label: impl Into<String>, ty: ValueType) -> Self {
        let mut key = KeyUse::new(KeyPattern::exact(label), ty);
        key.per_entity = true;
        key.collective = true;
        self.push_read(key)
    }

    fn push_write(mut self, key: KeyUse) -> Self {
        self.writes.push(key);
        self
    }

    /// Declare a network-level write.
    pub fn writes(self, label: impl Into<String>, ty: ValueType) -> Self {
        self.push_write(KeyUse::new(KeyPattern::exact(label), ty))
    }

    /// Declare a dot-suffixed family of writes rooted at `root` (e.g. the
    /// topology module's `ProtocolSeen.*`).
    pub fn writes_family(self, root: impl Into<String>, ty: ValueType) -> Self {
        self.push_write(KeyUse::new(KeyPattern::family(root), ty))
    }

    /// Declare an entity-specific write.
    pub fn writes_per_entity(self, label: impl Into<String>, ty: ValueType) -> Self {
        let mut key = KeyUse::new(KeyPattern::exact(label), ty);
        key.per_entity = true;
        self.push_write(key)
    }

    /// Declare an entity-specific write marked collective (shared with
    /// peer Kalis nodes).
    pub fn writes_collective(self, label: impl Into<String>, ty: ValueType) -> Self {
        let mut key = KeyUse::new(KeyPattern::exact(label), ty);
        key.per_entity = true;
        key.collective = true;
        self.push_write(key)
    }

    /// Mark the most recent write as exported knowledge (never flagged as
    /// a dead write).
    pub fn exported(mut self) -> Self {
        if let Some(last) = self.writes.last_mut() {
            last.exported = true;
        }
        self
    }

    /// Constrain the most recently declared *read* to an inclusive
    /// numeric range. Intended for configuration knobs
    /// (`Trace.SampleRate` ∈ [0, 1]): `kalis-lint` checks configured
    /// a-priori values against the range.
    pub fn bounded(mut self, min: f64, max: f64) -> Self {
        if let Some(last) = self.reads.last_mut() {
            last.min = Some(min);
            last.max = Some(max);
        }
        self
    }

    /// Declare an accepted constructor parameter.
    pub fn accepts_param(mut self, spec: ParamSpec) -> Self {
        self.params.push(spec);
        self
    }

    /// Suppress one `KL2xx` graph finding for one key, with a
    /// justification (the contract-level counterpart of the
    /// `// kalis-lint: allow(..)` source pragma).
    pub fn allow(mut self, code: &'static str, key: &'static str, why: &'static str) -> Self {
        self.allows.push(AllowRule { code, key, why });
        self
    }

    /// Whether a `KL2xx` finding for `label_root` is deliberately
    /// suppressed by this contract.
    pub fn allowed(&self, code: &str, label_root: &str) -> bool {
        self.allows
            .iter()
            .any(|rule| rule.code == code && rule.key == label_root)
    }

    /// The declared constructor parameter named `name`, if any.
    pub fn param(&self, name: &str) -> Option<&ParamSpec> {
        self.params.iter().find(|spec| spec.name == name)
    }

    /// The `entity_budget` parameter declaration, if the module bounds
    /// its per-entity state — the lint graph pass (`KL205`) compares
    /// writer and reader declarations for shared per-entity keys.
    pub fn entity_budget_spec(&self) -> Option<&ParamSpec> {
        self.param("entity_budget")
    }

    /// Whether any declared read or write covers `label`.
    pub fn mentions(&self, label: &str) -> bool {
        self.reads
            .iter()
            .chain(self.writes.iter())
            .any(|k| k.pattern.matches(label))
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn family_pattern_matches_members_only() {
        let family = KeyPattern::family("ProtocolSeen");
        assert!(family.matches("ProtocolSeen.IP"));
        assert!(family.matches("ProtocolSeen.802.15.4"));
        assert!(!family.matches("ProtocolSeen"));
        assert!(!family.matches("ProtocolSeenX"));
        assert!(!family.matches("ProtocolSeen."));
        let exact = KeyPattern::exact("Multihop");
        assert!(exact.matches("Multihop"));
        assert!(!exact.matches("Multihop.X"));
    }

    #[test]
    fn coverage_relation() {
        let family = KeyPattern::family("MediumSeen");
        assert!(family.covers(&KeyPattern::exact("MediumSeen.wifi")));
        assert!(!family.covers(&KeyPattern::exact("MediumSeen")));
        assert!(!KeyPattern::exact("MediumSeen.wifi").covers(&family));
    }

    #[test]
    fn value_type_compatibility() {
        assert!(ValueType::Float.compatible_with(ValueType::Int));
        assert!(ValueType::Int.compatible_with(ValueType::Float));
        assert!(!ValueType::Bool.compatible_with(ValueType::Int));
        assert!(ValueType::Text.compatible_with(ValueType::Bool));
        assert!(ValueType::Any.compatible_with(ValueType::Bool));
        assert!(ValueType::Bool.compatible_with(ValueType::Any));
    }

    #[test]
    fn value_type_accepts_wire_coercions() {
        assert!(ValueType::Float.accepts(&KnowValue::Int(12)));
        assert!(ValueType::Int.accepts(&KnowValue::Float(12.0)));
        assert!(!ValueType::Int.accepts(&KnowValue::Float(0.5)));
        assert!(!ValueType::Bool.accepts(&KnowValue::Int(1)));
        assert!(ValueType::Text.accepts(&KnowValue::Bool(true)));
    }

    #[test]
    fn builder_flags_land_on_the_right_edges() {
        let c = KnowggetContract::new()
            .reads("Mobile", ValueType::Bool)
            .reads_collective("DroppedOrigins", ValueType::Text)
            .reads("Trace.SampleRate", ValueType::Float)
            .bounded(0.0, 1.0)
            .writes_collective("ExoticOrigins", ValueType::Text)
            .writes("Multihop", ValueType::Bool)
            .exported()
            .accepts_param(ParamSpec::number("threshold", 1.0));
        assert!(!c.reads[0].collective && !c.reads[0].per_entity);
        assert!(c.reads[1].collective && c.reads[1].per_entity);
        assert_eq!(c.reads[2].min, Some(0.0));
        assert_eq!(c.reads[2].max, Some(1.0));
        assert_eq!(c.reads[0].min, None, "bounds land only where declared");
        assert!(c.writes[0].collective && c.writes[0].per_entity);
        assert!(c.writes[1].exported);
        assert_eq!(c.params[0].name, "threshold");
        assert!(c.mentions("Mobile"));
        assert!(!c.mentions("Multihop.X"));
    }

    #[test]
    fn allows_and_param_accessors() {
        let c = KnowggetContract::new()
            .writes("Stat", ValueType::Int)
            .exported()
            .allow("KL202", "Stat", "operator dashboard metric")
            .accepts_param(ParamSpec::number("entity_budget", 16.0));
        assert!(c.allowed("KL202", "Stat"));
        assert!(!c.allowed("KL202", "Other"));
        assert!(!c.allowed("KL201", "Stat"));
        assert_eq!(c.allows[0].why, "operator dashboard metric");
        assert_eq!(c.param("entity_budget").unwrap().min, Some(16.0));
        assert!(c.param("missing").is_none());
        assert_eq!(c.entity_budget_spec().unwrap().name, "entity_budget");
    }
}
