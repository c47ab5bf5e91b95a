//! The Knowledge Base: knowggets, typed values, key encoding, queries,
//! change subscriptions, and collective synchronization (paper §IV-B3 and
//! §V "Knowledge Representation").

mod base;
mod collective;
mod key;
mod peers;
mod subscription;
mod sync;
mod value;

pub use base::{ChangeEvent, KnowledgeBase, DEFAULT_KB_ENTITY_BUDGET};
pub use collective::{SecureChannel, SyncMessage, XorChannel, MAX_SYNC_KNOWGGETS};
pub use key::{KnowKey, ParseKeyError};
pub use peers::{PeerBeacon, PeerRegistry, DEFAULT_PEER_TTL};
pub use subscription::{SlotSet, Subscriptions, Watch};
pub(crate) use sync::capped_doubling;
pub use sync::{
    CollectiveSync, PeerHealth, Receipt, ReceiptKind, SyncConfig, SyncEvent, SyncTransmit,
    DEDUP_WINDOW, DEGRADED_LABEL, MAX_ATTEMPTS, QUEUE_CAPACITY, RETRANSMIT_BASE, RETRANSMIT_MAX,
};
pub use value::KnowValue;

use kalis_packets::{Entity, InlineStr};

use crate::id::KalisId;

/// A *knowgget* ("knowledge nugget"): one piece of knowledge about the
/// monitored network or an individual entity.
///
/// Formally (paper §IV-B3): `k = ⟨l, v, c, e⟩` where `l` is the label,
/// `v` the value, `c` the creator Kalis node, and `e` the related entity
/// (or none). Multilevel knowggets flatten their label hierarchy with dot
/// notation (`TrafficFrequency.TCPSYN`).
///
/// # Examples
///
/// ```
/// use kalis_core::{KalisId, Knowgget, KnowValue};
///
/// let k = Knowgget::new("Multihop", KnowValue::Bool(true), KalisId::new("K1"));
/// assert_eq!(k.key().encode(), "K1$Multihop");
/// ```
#[derive(Debug, Clone, PartialEq)]
pub struct Knowgget {
    /// The label (dot notation for multilevel knowggets).
    pub label: String,
    /// The value.
    pub value: KnowValue,
    /// The Kalis node that created this knowgget.
    pub creator: KalisId,
    /// The monitored entity this knowgget is about, if any.
    pub entity: Option<Entity>,
    /// Provenance of the write that produced the current value: the
    /// module that wrote it and the trace it was written under. Absent
    /// for operator/config-seeded knowledge and for peers that predate
    /// the provenance wire extension (the creator field already names
    /// the originating node).
    pub origin: Option<KnowggetOrigin>,
}

/// Who wrote a knowgget's current value, and under which trace.
///
/// `trace_id == 0` means the write was untraced (sampling off); the
/// origin still names the writing module. The originating *node* is the
/// knowgget's `creator`, so it is not repeated here.
#[derive(Debug, Clone, PartialEq, Eq, Default)]
pub struct KnowggetOrigin {
    /// The module that performed the write (empty for operator/config).
    /// Inline up to 30 bytes — the longest default module name is 25 — so
    /// attributing a write allocates nothing.
    pub module: InlineStr<30>,
    /// The trace the write happened under (0 = untraced).
    pub trace_id: u64,
    /// The span within the trace (0 = untraced).
    pub span_id: u32,
}

impl Knowgget {
    /// A network-level knowgget (no entity).
    pub fn new(label: impl Into<String>, value: KnowValue, creator: KalisId) -> Self {
        Knowgget {
            label: label.into(),
            value,
            creator,
            entity: None,
            origin: None,
        }
    }

    /// An entity-specific knowgget.
    pub fn about(
        label: impl Into<String>,
        value: KnowValue,
        creator: KalisId,
        entity: Entity,
    ) -> Self {
        Knowgget {
            label: label.into(),
            value,
            creator,
            entity: Some(entity),
            origin: None,
        }
    }

    /// Attach write provenance.
    pub fn with_origin(mut self, origin: KnowggetOrigin) -> Self {
        self.origin = Some(origin);
        self
    }

    /// The encoded key for this knowgget.
    pub fn key(&self) -> KnowKey {
        KnowKey {
            creator: self.creator.clone(),
            label: self.label.clone(),
            entity: self.entity.clone(),
        }
    }
}

impl core::fmt::Display for Knowgget {
    fn fmt(&self, f: &mut core::fmt::Formatter<'_>) -> core::fmt::Result {
        write!(f, "{} = {}", self.key().encode(), self.value)
    }
}
