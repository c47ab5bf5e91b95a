//! # kalis-lint
//!
//! Knowgget-contract static analysis for the Kalis IDS.
//!
//! Kalis activates detection modules from *knowledge*: sensing modules
//! write knowggets, detection modules subscribe to them. Each module
//! declares that surface as a [`KnowggetContract`](kalis_core::modules::KnowggetContract);
//! this crate cross-checks the declarations so broken knowledge edges are
//! caught in CI rather than as silently-inactive detectors in the field.
//!
//! Four analyses:
//!
//! * **System** ([`lint_system`]): the whole registered module library at
//!   once — orphan reads (`KL001`), reader/writer type mismatches
//!   (`KL002`), near-miss key typos (`KL003`), dead writes (`KL004`),
//!   conflicting writers (`KL005`), and never-activatable modules
//!   (`KL006`).
//! * **Config** ([`lint_config`]): one Fig. 6 configuration file against
//!   the registry — parse errors (`KL100`), unknown modules (`KL101`),
//!   bad or unknown parameters (`KL102`/`KL103`), unknown or mistyped
//!   a-priori knowggets (`KL104`/`KL105`), and reads unsatisfiable
//!   within the configured module set (`KL106`).
//! * **Dataflow graph** ([`lint_graph`], [`KnowledgeGraph`]): the
//!   module → key → module graph as a whole — collective writes with no
//!   consumer (`KL201`), exported keys nobody reads (`KL202`),
//!   activation oscillation cycles (`KL203`), detection modules
//!   unreachable from sensing (`KL204`), inconsistent per-entity
//!   budgets (`KL205`), and detection modules subscribed to every
//!   change for want of a declared activation input (`KL206`, a
//!   warning), and modules that need a medium whose frames they do not
//!   read (`KL207`) — plus the DOT rendering (`--graph`) and the
//!   per-peer sync [`ReadSets`] artifact (`--read-sets`) that
//!   interest-based sync consumes.
//! * **Source invariants** ([`scan_source`], `--source`): a hand-rolled
//!   dependency-free Rust scanner enforcing repo invariants — raw
//!   per-entity containers (`KL301`), wall-clock on the hot path
//!   (`KL302`), `format!`-built knowgget keys (`KL303`), panics in
//!   dispatch paths (`KL304`), and std hash-map iteration order in
//!   node, telemetry and scenario code (`KL305`), with
//!   `// kalis-lint: allow(KL3xx)` pragmas.
//!
//! The `kalis-lint` binary wraps all of it with rustc-style rendering, a
//! `--json` mode, and a non-zero exit on errors so CI can gate on it.
//!
//! # Examples
//!
//! ```
//! use kalis_core::modules::ModuleRegistry;
//!
//! let registry = ModuleRegistry::with_defaults();
//! // The shipped module library is contract-clean.
//! assert!(kalis_lint::lint_system(&registry).is_empty());
//!
//! // A config with a typo'd a-priori knowgget is caught with a hint.
//! let diags = kalis_lint::lint_config(
//!     "net.kalis",
//!     "modules = { TopologyDiscoveryModule } knowggets = { Mutlihop = true }",
//!     &registry,
//! );
//! assert_eq!(diags[0].code.as_str(), "KL104");
//! assert!(diags[0].notes[0].contains("Multihop"));
//! ```

#![forbid(unsafe_code)]
#![warn(missing_docs)]

mod config;
pub mod diagnostics;
pub mod distance;
pub mod graph;
pub mod readset;
pub mod source;
mod system;

pub use config::lint_config;
pub use diagnostics::{has_errors, Code, Diagnostic, Severity};
pub use graph::{lint_graph, GraphEdge, GraphNode, KnowledgeGraph, NodeKind};
pub use readset::{ReadReason, ReadSetEntry, ReadSets};
pub use source::{scan_source, scan_workspace};
pub use system::{lint_system, overlaps, suggestion_candidates, SystemModel, SYSTEM_OWNER};
