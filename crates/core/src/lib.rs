//! # kalis-core
//!
//! A Rust implementation of **Kalis**, the self-adapting, knowledge-driven
//! intrusion detection system for the Internet of Things introduced by
//! Midi, Rullo, Mudgerikar and Bertino (ICDCS 2017).
//!
//! Kalis observes traffic promiscuously across heterogeneous mediums and
//! protocols, autonomously collects *knowledge* about the monitored
//! network's features (topology, traffic profile, mobility), and uses that
//! knowledge to activate exactly the detection techniques appropriate for
//! the environment — improving accuracy and cutting resource use compared
//! to an always-everything-on IDS.
//!
//! The crate mirrors the paper's architecture (Fig. 4):
//!
//! | Paper component | Module |
//! |---|---|
//! | Communication System | [`capture`] |
//! | Data Store | [`store`] |
//! | Knowledge Base + Collective Knowledge | [`knowledge`] |
//! | Module Manager + module library | [`modules`], [`sensing`], [`detection`] |
//! | Configuration files (Fig. 6 grammar) | [`config`] |
//! | Attack taxonomies (Table I, Fig. 3) | [`taxonomy`] |
//! | Response / countermeasures | [`response`] |
//! | Smart-firewall deployment | [`firewall`] |
//!
//! The top-level orchestrator is [`Kalis`], built with [`KalisBuilder`].
//!
//! # Examples
//!
//! ```
//! use kalis_core::{Kalis, KalisId};
//!
//! // A Kalis node with the default module library, learning everything
//! // autonomously (no a-priori knowledge).
//! let mut kalis = Kalis::builder(KalisId::new("K1")).with_default_modules().build();
//!
//! // Feed it captured packets (here: none) and read its findings.
//! kalis.tick(kalis_packets::Timestamp::from_secs(5));
//! assert!(kalis.drain_alerts().is_empty());
//! ```

#![forbid(unsafe_code)]
#![warn(missing_docs)]

pub mod alert;
pub mod bounded;
pub mod bus;
pub mod capture;
pub mod config;
pub mod detection;
pub mod error;
pub mod firewall;
pub mod id;
pub mod knowledge;
pub mod metrics;
pub mod modules;
pub mod node;
pub mod ops;
pub mod response;
pub mod sensing;
pub mod siem;
pub mod store;
pub mod taxonomy;

pub use alert::{Alert, AttackKind, Severity};
pub use error::KalisError;
pub use id::KalisId;
pub use kalis_telemetry::{
    AlertProvenance, EvidenceKnowgget, PacketRef, SampleRate, TraceContext, TraceRef, Tracer,
};
pub use knowledge::{KnowKey, KnowValue, Knowgget, KnowggetOrigin, KnowledgeBase, PeerHealth};
pub use modules::{KeyPattern, KeyUse, KnowggetContract, ParamSpec, ValueType};
pub use node::{system_contract, Kalis, KalisBuilder, SyncPoll, SyncReceipt};
pub use ops::Readiness;
