//! The Kalis configuration language (paper Fig. 6/7): a JSON-inspired
//! format naming the modules to activate by default (with optional
//! parameters) and a-priori knowggets.
//!
//! ```text
//! modules = {
//!   TopologyDiscoveryModule,
//!   TrafficStatsModule (
//!     activationThresh = 1,
//!     detectionThresh = 2
//!   )
//! }
//! knowggets = {
//!   mobility = false
//! }
//! ```
//!
//! # Examples
//!
//! ```
//! use kalis_core::config::Config;
//!
//! let text = "modules = { TopologyDiscoveryModule } knowggets = { Mobile = false }";
//! let config: Config = text.parse()?;
//! assert_eq!(config.modules.len(), 1);
//! assert_eq!(config.knowggets.len(), 1);
//! # Ok::<(), kalis_core::config::ConfigError>(())
//! ```

use core::fmt;
use core::str::FromStr;

use crate::knowledge::KnowValue;

/// A module named in the configuration, with its parameters.
#[derive(Debug, Clone, PartialEq)]
pub struct ModuleDef {
    /// The module's registry name (e.g. `TrafficStatsModule`).
    pub name: String,
    /// `key = value` parameters passed at construction.
    pub params: Vec<(String, KnowValue)>,
}

impl ModuleDef {
    /// A parameterless module reference.
    pub fn new(name: impl Into<String>) -> Self {
        ModuleDef {
            name: name.into(),
            params: Vec::new(),
        }
    }

    /// Look up a parameter by key.
    pub fn param(&self, key: &str) -> Option<&KnowValue> {
        self.params.iter().find(|(k, _)| k == key).map(|(_, v)| v)
    }

    /// A float parameter with a default.
    pub(crate) fn param_f64(&self, key: &str, default: f64) -> f64 {
        self.param(key)
            .and_then(KnowValue::as_f64)
            .unwrap_or(default)
    }
}

/// A parsed configuration file.
#[derive(Debug, Clone, PartialEq, Default)]
pub struct Config {
    /// Modules to construct and activate by default.
    pub modules: Vec<ModuleDef>,
    /// A-priori knowggets (key may carry an `@entity` suffix; the creator
    /// is always the local node — the paper notes config knowggets "might
    /// specify an entity field, but not a creator field").
    pub knowggets: Vec<(String, KnowValue)>,
}

impl Config {
    /// An empty configuration: no default modules, no a-priori knowledge
    /// (the setup of the reactivity experiment, §VI-C).
    pub fn empty() -> Self {
        Config::default()
    }
}

/// A `key = value` pair with the source positions of both sides —
/// parameter entries and a-priori knowggets share this shape.
#[derive(Debug, Clone, PartialEq)]
pub struct SpannedEntry {
    /// The key text.
    pub key: String,
    /// Where the key starts.
    pub key_pos: SourcePos,
    /// The parsed value.
    pub value: KnowValue,
    /// Where the value starts.
    pub value_pos: SourcePos,
}

/// A module reference with the position of its name and of each parameter.
#[derive(Debug, Clone, PartialEq)]
pub struct SpannedModule {
    /// The module's registry name.
    pub name: String,
    /// Where the name starts.
    pub name_pos: SourcePos,
    /// Constructor parameters, in source order.
    pub params: Vec<SpannedEntry>,
}

/// One item inside a section of a [`SpannedDocument`]: a name optionally
/// followed by `( key = value, ... )` parameters (the module form) or by
/// `= value` (the knowgget form). The grammar allows both shapes in any
/// section; each consumer decides which shapes its sections accept.
#[derive(Debug, Clone, PartialEq)]
pub struct SpannedItem {
    /// The item's name (module name, knowgget key, directive, ...).
    pub name: String,
    /// Where the name starts.
    pub name_pos: SourcePos,
    /// `( key = value, ... )` parameters, in source order.
    pub params: Vec<SpannedEntry>,
    /// The `= value` right-hand side, if present.
    pub value: Option<(KnowValue, SourcePos)>,
}

impl SpannedItem {
    /// Look up a parameter by key.
    pub fn param(&self, key: &str) -> Option<&SpannedEntry> {
        self.params.iter().find(|p| p.key == key)
    }
}

/// One `name = { items }` section of a [`SpannedDocument`].
#[derive(Debug, Clone, PartialEq)]
pub struct SpannedSection {
    /// The section name (`modules`, `knowggets`, `expectations`, ...).
    pub name: String,
    /// Where the section name starts.
    pub name_pos: SourcePos,
    /// The items between the braces, in source order.
    pub items: Vec<SpannedItem>,
}

/// A span-preserving parse of the generic section/item surface grammar
/// shared by every Kalis text format:
///
/// ```text
/// document := section*
/// section  := IDENT `=` `{` item (`,` item)* `}`
/// item     := IDENT [ `(` key-value-list `)` | `=` value ]
/// ```
///
/// [`SpannedConfig`] (the Fig. 6 module/knowgget format) and the
/// `*.scn.kalis` scenario language both parse through this layer, so
/// they share one lexer, one set of caret-ready positions, and one
/// family of parse errors. Section names are **not** validated here —
/// each format rejects unknown sections itself, with its own message.
#[derive(Debug, Clone, PartialEq, Default)]
pub struct SpannedDocument {
    /// Sections in source order.
    pub sections: Vec<SpannedSection>,
}

impl SpannedDocument {
    /// Parse source text into sections and items, keeping token positions.
    ///
    /// # Errors
    ///
    /// Returns a [`ConfigError`] pointing at the offending token for any
    /// lexical or structural violation. The parser is total: no input —
    /// hostile, truncated, or otherwise — panics or recurses (the grammar
    /// is flat, so there is no nesting depth to exhaust).
    pub fn parse(text: &str) -> Result<Self, ConfigError> {
        let tokens = lex(text)?;
        let mut parser = Parser { tokens, index: 0 };
        parser.document()
    }

    /// The first section with the given name, if any.
    pub fn section(&self, name: &str) -> Option<&SpannedSection> {
        self.sections.iter().find(|s| s.name == name)
    }
}

/// A parse that remembers where everything came from.
///
/// `Config` (via [`FromStr`]) is the runtime-facing view and stays
/// position-free; static analysis (`kalis-lint`) parses with
/// [`SpannedConfig::parse`] instead so its diagnostics can point at the
/// offending token rather than the whole file.
#[derive(Debug, Clone, PartialEq, Default)]
pub struct SpannedConfig {
    /// Modules in the `modules = { ... }` section, in source order.
    pub modules: Vec<SpannedModule>,
    /// Entries in the `knowggets = { ... }` section, in source order.
    pub knowggets: Vec<SpannedEntry>,
}

impl SpannedConfig {
    /// Parse source text, keeping token positions.
    ///
    /// # Errors
    ///
    /// Returns the same [`ConfigError`]s as `text.parse::<Config>()`.
    pub fn parse(text: &str) -> Result<Self, ConfigError> {
        let doc = SpannedDocument::parse(text)?;
        let mut config = SpannedConfig::default();
        let mut seen_modules = false;
        let mut seen_knowggets = false;
        for section in doc.sections {
            match section.name.as_str() {
                "modules" if !seen_modules => {
                    seen_modules = true;
                    config.modules = section
                        .items
                        .into_iter()
                        .map(|item| {
                            if let Some((_, pos)) = item.value {
                                return Err(ConfigError {
                                    pos,
                                    message: format!(
                                        "module `{}` does not take `= value`",
                                        item.name
                                    ),
                                });
                            }
                            Ok(SpannedModule {
                                name: item.name,
                                name_pos: item.name_pos,
                                params: item.params,
                            })
                        })
                        .collect::<Result<_, _>>()?;
                }
                "knowggets" if !seen_knowggets => {
                    seen_knowggets = true;
                    config.knowggets = section
                        .items
                        .into_iter()
                        .map(|item| {
                            if !item.params.is_empty() {
                                return Err(ConfigError {
                                    pos: item.name_pos,
                                    message: format!(
                                        "knowgget `{}` does not take parameters",
                                        item.name
                                    ),
                                });
                            }
                            match item.value {
                                Some((value, value_pos)) => Ok(SpannedEntry {
                                    key: item.name,
                                    key_pos: item.name_pos,
                                    value,
                                    value_pos,
                                }),
                                None => Err(ConfigError {
                                    pos: item.name_pos,
                                    message: format!(
                                        "expected `= value` after knowgget key `{}`",
                                        item.name
                                    ),
                                }),
                            }
                        })
                        .collect::<Result<_, _>>()?;
                }
                "modules" | "knowggets" => {
                    return Err(ConfigError {
                        pos: section.name_pos,
                        message: format!("duplicate section `{}`", section.name),
                    })
                }
                other => {
                    return Err(ConfigError {
                        pos: section.name_pos,
                        message: format!("unknown section `{other}`"),
                    })
                }
            }
        }
        Ok(config)
    }

    /// Drop the positions, yielding the runtime [`Config`].
    pub(crate) fn to_config(&self) -> Config {
        Config {
            modules: self
                .modules
                .iter()
                .map(|m| ModuleDef {
                    name: m.name.clone(),
                    params: m
                        .params
                        .iter()
                        .map(|p| (p.key.clone(), p.value.clone()))
                        .collect(),
                })
                .collect(),
            knowggets: self
                .knowggets
                .iter()
                .map(|k| (k.key.clone(), k.value.clone()))
                .collect(),
        }
    }
}

/// Where in the source an error occurred.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct SourcePos {
    /// 1-based line.
    pub line: usize,
    /// 1-based column.
    pub column: usize,
}

impl fmt::Display for SourcePos {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        write!(f, "{}:{}", self.line, self.column)
    }
}

/// A configuration parse error with its position.
#[derive(Debug, Clone, PartialEq)]
pub struct ConfigError {
    /// Position of the offending token.
    pub pos: SourcePos,
    /// What was expected / found.
    pub message: String,
}

impl fmt::Display for ConfigError {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        write!(f, "config parse error at {}: {}", self.pos, self.message)
    }
}

impl std::error::Error for ConfigError {}

#[derive(Debug, Clone, PartialEq)]
enum Token {
    Ident(String),
    Value(String), // quoted string contents
    Equals,
    LBrace,
    RBrace,
    LParen,
    RParen,
    Comma,
}

#[derive(Debug, Clone)]
struct Spanned {
    token: Token,
    pos: SourcePos,
}

fn lex(text: &str) -> Result<Vec<Spanned>, ConfigError> {
    let mut out = Vec::new();
    let mut line = 1usize;
    let mut column = 1usize;
    let mut chars = text.chars().peekable();
    while let Some(&c) = chars.peek() {
        let pos = SourcePos { line, column };
        match c {
            '\n' => {
                chars.next();
                line += 1;
                column = 1;
            }
            c if c.is_whitespace() => {
                chars.next();
                column += 1;
            }
            '#' => {
                // Comment to end of line.
                for c in chars.by_ref() {
                    if c == '\n' {
                        line += 1;
                        column = 1;
                        break;
                    }
                }
            }
            '=' | '{' | '}' | '(' | ')' | ',' => {
                chars.next();
                column += 1;
                let token = match c {
                    '=' => Token::Equals,
                    '{' => Token::LBrace,
                    '}' => Token::RBrace,
                    '(' => Token::LParen,
                    ')' => Token::RParen,
                    _ => Token::Comma,
                };
                out.push(Spanned { token, pos });
            }
            '"' => {
                chars.next();
                column += 1;
                let mut s = String::new();
                let mut closed = false;
                for c in chars.by_ref() {
                    column += 1;
                    if c == '"' {
                        closed = true;
                        break;
                    }
                    if c == '\n' {
                        line += 1;
                        column = 1;
                    }
                    s.push(c);
                }
                if !closed {
                    return Err(ConfigError {
                        pos,
                        message: "unterminated string literal".into(),
                    });
                }
                out.push(Spanned {
                    token: Token::Value(s),
                    pos,
                });
            }
            c if c.is_alphanumeric() || "._-@$+".contains(c) => {
                let mut s = String::new();
                while let Some(&c) = chars.peek() {
                    if c.is_alphanumeric() || "._-@$+".contains(c) {
                        s.push(c);
                        chars.next();
                        column += 1;
                    } else {
                        break;
                    }
                }
                out.push(Spanned {
                    token: Token::Ident(s),
                    pos,
                });
            }
            other => {
                return Err(ConfigError {
                    pos,
                    message: format!("unexpected character `{other}`"),
                })
            }
        }
    }
    Ok(out)
}

struct Parser {
    tokens: Vec<Spanned>,
    index: usize,
}

impl Parser {
    fn peek(&self) -> Option<&Spanned> {
        self.tokens.get(self.index)
    }

    fn next(&mut self) -> Option<Spanned> {
        let t = self.tokens.get(self.index).cloned();
        if t.is_some() {
            self.index += 1;
        }
        t
    }

    fn end_pos(&self) -> SourcePos {
        self.tokens
            .last()
            .map_or(SourcePos { line: 1, column: 1 }, |t| t.pos)
    }

    fn expect(&mut self, token: Token, what: &str) -> Result<(), ConfigError> {
        match self.next() {
            Some(t) if t.token == token => Ok(()),
            Some(t) => Err(ConfigError {
                pos: t.pos,
                message: format!("expected {what}, found {:?}", t.token),
            }),
            None => Err(ConfigError {
                pos: self.end_pos(),
                message: format!("expected {what}, found end of input"),
            }),
        }
    }

    fn ident(&mut self, what: &str) -> Result<(String, SourcePos), ConfigError> {
        match self.next() {
            Some(Spanned {
                token: Token::Ident(s),
                pos,
            }) => Ok((s, pos)),
            Some(t) => Err(ConfigError {
                pos: t.pos,
                message: format!("expected {what}, found {:?}", t.token),
            }),
            None => Err(ConfigError {
                pos: self.end_pos(),
                message: format!("expected {what}, found end of input"),
            }),
        }
    }

    fn value(&mut self) -> Result<(KnowValue, SourcePos), ConfigError> {
        match self.next() {
            Some(Spanned {
                token: Token::Ident(s),
                pos,
            }) => Ok((KnowValue::from_wire(&s), pos)),
            Some(Spanned {
                token: Token::Value(s),
                pos,
            }) => Ok((KnowValue::Text(s), pos)),
            Some(t) => Err(ConfigError {
                pos: t.pos,
                message: format!("expected a value, found {:?}", t.token),
            }),
            None => Err(ConfigError {
                pos: self.end_pos(),
                message: "expected a value, found end of input".into(),
            }),
        }
    }

    fn key_value_list(&mut self) -> Result<Vec<SpannedEntry>, ConfigError> {
        let mut out = Vec::new();
        loop {
            if matches!(
                self.peek().map(|t| &t.token),
                Some(Token::RBrace | Token::RParen)
            ) {
                break;
            }
            let (key, key_pos) = self.ident("a key")?;
            self.expect(Token::Equals, "`=`")?;
            let (value, value_pos) = self.value()?;
            out.push(SpannedEntry {
                key,
                key_pos,
                value,
                value_pos,
            });
            if matches!(self.peek().map(|t| &t.token), Some(Token::Comma)) {
                self.next();
            } else {
                break;
            }
        }
        Ok(out)
    }

    fn item_list(&mut self) -> Result<Vec<SpannedItem>, ConfigError> {
        let mut out = Vec::new();
        loop {
            if matches!(self.peek().map(|t| &t.token), Some(Token::RBrace)) {
                break;
            }
            let (name, name_pos) = self.ident("a name")?;
            let mut item = SpannedItem {
                name,
                name_pos,
                params: Vec::new(),
                value: None,
            };
            match self.peek().map(|t| &t.token) {
                Some(Token::LParen) => {
                    self.next();
                    item.params = self.key_value_list()?;
                    self.expect(Token::RParen, "`)`")?;
                }
                Some(Token::Equals) => {
                    self.next();
                    item.value = Some(self.value()?);
                }
                _ => {}
            }
            out.push(item);
            if matches!(self.peek().map(|t| &t.token), Some(Token::Comma)) {
                self.next();
            } else {
                break;
            }
        }
        Ok(out)
    }

    fn document(&mut self) -> Result<SpannedDocument, ConfigError> {
        let mut doc = SpannedDocument::default();
        while self.peek().is_some() {
            let (name, name_pos) = self.ident("a section name")?;
            self.expect(Token::Equals, "`=`")?;
            self.expect(Token::LBrace, "`{`")?;
            let items = self.item_list()?;
            self.expect(Token::RBrace, "`}`")?;
            doc.sections.push(SpannedSection {
                name,
                name_pos,
                items,
            });
        }
        Ok(doc)
    }
}

impl FromStr for Config {
    type Err = ConfigError;

    fn from_str(s: &str) -> Result<Self, Self::Err> {
        Ok(SpannedConfig::parse(s)?.to_config())
    }
}

impl fmt::Display for Config {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        writeln!(f, "modules = {{")?;
        for (i, m) in self.modules.iter().enumerate() {
            write!(f, "  {}", m.name)?;
            if !m.params.is_empty() {
                write!(f, " (")?;
                for (j, (k, v)) in m.params.iter().enumerate() {
                    if j > 0 {
                        write!(f, ", ")?;
                    }
                    write!(f, "{k} = {v}")?;
                }
                write!(f, ")")?;
            }
            if i + 1 < self.modules.len() {
                write!(f, ",")?;
            }
            writeln!(f)?;
        }
        writeln!(f, "}}")?;
        writeln!(f, "knowggets = {{")?;
        for (i, (k, v)) in self.knowggets.iter().enumerate() {
            write!(f, "  {k} = {v}")?;
            if i + 1 < self.knowggets.len() {
                write!(f, ",")?;
            }
            writeln!(f)?;
        }
        write!(f, "}}")
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    /// The exact example from the paper's Fig. 7.
    const PAPER_EXAMPLE: &str = r#"
        modules = {
          TopologyDetectionModule,
          TrafficStatsModule (
            activationThresh = 1,
            detectionThresh = 2
          )
        }
        knowggets = {
          mobility = false
        }
    "#;

    #[test]
    fn parses_paper_figure_7() {
        let config: Config = PAPER_EXAMPLE.parse().unwrap();
        assert_eq!(config.modules.len(), 2);
        assert_eq!(config.modules[0].name, "TopologyDetectionModule");
        assert!(config.modules[0].params.is_empty());
        assert_eq!(config.modules[1].name, "TrafficStatsModule");
        assert_eq!(
            config.modules[1].param("activationThresh"),
            Some(&KnowValue::Int(1))
        );
        assert_eq!(config.modules[1].param_f64("detectionThresh", 0.0), 2.0);
        assert_eq!(
            config.knowggets,
            vec![("mobility".to_owned(), KnowValue::Bool(false))]
        );
    }

    #[test]
    fn display_reparses_identically() {
        let config: Config = PAPER_EXAMPLE.parse().unwrap();
        let printed = config.to_string();
        let reparsed: Config = printed.parse().unwrap();
        assert_eq!(reparsed, config);
    }

    #[test]
    fn empty_sections_parse() {
        let config: Config = "modules = { } knowggets = { }".parse().unwrap();
        assert!(config.modules.is_empty());
        assert!(config.knowggets.is_empty());
    }

    #[test]
    fn modules_only_parses() {
        let config: Config = "modules = { A, B, C }".parse().unwrap();
        assert_eq!(config.modules.len(), 3);
        assert!(config.knowggets.is_empty());
    }

    #[test]
    fn quoted_string_values() {
        let config: Config = r#"knowggets = { note = "multi word value" }"#.parse().unwrap();
        assert_eq!(
            config.knowggets[0].1,
            KnowValue::Text("multi word value".into())
        );
    }

    #[test]
    fn entity_suffixed_knowgget_keys() {
        let config: Config = "knowggets = { SignalStrength@SensorA = -67 }"
            .parse()
            .unwrap();
        assert_eq!(config.knowggets[0].0, "SignalStrength@SensorA");
        assert_eq!(config.knowggets[0].1, KnowValue::Int(-67));
    }

    #[test]
    fn comments_are_ignored() {
        let config: Config = "# header\nmodules = { A } # trailing\n".parse().unwrap();
        assert_eq!(config.modules.len(), 1);
    }

    #[test]
    fn errors_carry_positions() {
        let err = "modules = { A B }".parse::<Config>().unwrap_err();
        assert_eq!(err.pos.line, 1);
        assert!(err.message.contains("expected"));

        let err = "modules = {".parse::<Config>().unwrap_err();
        assert!(err.message.contains("end of input") || err.message.contains("`}`"));

        let err = "bogus = { }".parse::<Config>().unwrap_err();
        assert!(err.message.contains("unknown section"));

        let err = "modules = { A } modules = { B }"
            .parse::<Config>()
            .unwrap_err();
        assert!(err.message.contains("duplicate"));

        let err = "modules = { \"unterminated }"
            .parse::<Config>()
            .unwrap_err();
        assert!(err.message.contains("unterminated"));
    }

    #[test]
    fn spanned_parse_records_positions() {
        let text = "modules = {\n  TrafficStatsModule (\n    windowSecs = 2\n  )\n}\nknowggets = {\n  Mobile = false\n}";
        let spanned = SpannedConfig::parse(text).unwrap();
        assert_eq!(spanned.modules.len(), 1);
        let m = &spanned.modules[0];
        assert_eq!(m.name, "TrafficStatsModule");
        assert_eq!(m.name_pos, SourcePos { line: 2, column: 3 });
        assert_eq!(m.params[0].key, "windowSecs");
        assert_eq!(m.params[0].key_pos, SourcePos { line: 3, column: 5 });
        assert_eq!(
            m.params[0].value_pos,
            SourcePos {
                line: 3,
                column: 18
            }
        );
        assert_eq!(spanned.knowggets[0].key, "Mobile");
        assert_eq!(
            spanned.knowggets[0].key_pos,
            SourcePos { line: 7, column: 3 }
        );
        // The position-free view matches what FromStr yields.
        assert_eq!(spanned.to_config(), text.parse::<Config>().unwrap());
    }

    #[test]
    fn trailing_comma_is_accepted() {
        let config: Config = "modules = { A, B, }".parse().unwrap();
        assert_eq!(config.modules.len(), 2);
    }

    #[test]
    fn document_parses_arbitrary_sections_and_item_shapes() {
        let text = "scenario = {\n  name = \"chaos\",\n  duration = 90\n}\nfaults = {\n  link ( drop = 0.3, corrupt = 0.05 ),\n  partition ( groups = \"0|1\" )\n}\nworkload = {\n  wormhole-evidence\n}";
        let doc = SpannedDocument::parse(text).unwrap();
        assert_eq!(doc.sections.len(), 3);
        let scenario = doc.section("scenario").unwrap();
        assert_eq!(scenario.name_pos, SourcePos { line: 1, column: 1 });
        assert_eq!(scenario.items.len(), 2);
        assert_eq!(
            scenario.items[0].value,
            Some((
                KnowValue::Text("chaos".into()),
                SourcePos {
                    line: 2,
                    column: 10
                }
            ))
        );
        let faults = doc.section("faults").unwrap();
        assert_eq!(faults.items[0].name, "link");
        assert_eq!(
            faults.items[0].param("drop").map(|p| &p.value),
            Some(&KnowValue::Float(0.3))
        );
        assert!(faults.items[0].value.is_none());
        // A bare directive item: no params, no value.
        let workload = doc.section("workload").unwrap();
        assert_eq!(workload.items[0].name, "wormhole-evidence");
        assert!(workload.items[0].params.is_empty() && workload.items[0].value.is_none());
        assert!(doc.section("nope").is_none());
    }

    #[test]
    fn document_rejections_carry_positions() {
        // An item cannot take both `( ... )` and `= value`; the `=` after
        // `)` reads as a malformed separator.
        let err = SpannedDocument::parse("s = { a ( k = 1 ) = 2 }").unwrap_err();
        assert!(err.message.contains("expected `}`"));

        let err = SpannedDocument::parse("s = { a").unwrap_err();
        assert!(err.message.contains("end of input"));

        let err = SpannedDocument::parse("= { }").unwrap_err();
        assert_eq!(err.pos, SourcePos { line: 1, column: 1 });
        assert!(err.message.contains("a section name"));
    }

    #[test]
    fn config_validation_rejects_wrong_item_shapes() {
        // A knowgget entry must carry `= value`...
        let err = "knowggets = { Mobile }".parse::<Config>().unwrap_err();
        assert!(err.message.contains("expected `= value`"));
        // ...and must not take parameters.
        let err = "knowggets = { Mobile ( a = 1 ) }"
            .parse::<Config>()
            .unwrap_err();
        assert!(err.message.contains("does not take parameters"));
        // A module entry must not carry `= value`.
        let err = "modules = { A = 1 }".parse::<Config>().unwrap_err();
        assert!(err.message.contains("does not take `= value`"));
    }

    #[test]
    fn value_typing_matches_knowvalue_rules() {
        let config: Config = "knowggets = { a = true, b = 3, c = 0.5, d = hello }"
            .parse()
            .unwrap();
        let vals: Vec<&KnowValue> = config.knowggets.iter().map(|(_, v)| v).collect();
        assert_eq!(vals[0], &KnowValue::Bool(true));
        assert_eq!(vals[1], &KnowValue::Int(3));
        assert_eq!(vals[2], &KnowValue::Float(0.5));
        assert_eq!(vals[3], &KnowValue::Text("hello".into()));
    }
}
