//! The `creator$label@entity` key encoding (paper §V, Fig. 5b).

use core::fmt;
use core::str::FromStr;

use kalis_packets::Entity;
use serde::{Deserialize, Serialize};

use crate::id::KalisId;

/// The decoded form of a Knowledge Base key.
///
/// Encoding (paper §V): `"creator$label@entity"`, where the `@entity`
/// suffix is present only for entity-specific knowggets and multilevel
/// labels use dot notation (`TrafficFrequency.TCPSYN`).
///
/// # Examples
///
/// ```
/// use kalis_core::{KalisId, KnowKey};
///
/// let key: KnowKey = "K1$SignalStrength@SensorA".parse()?;
/// assert_eq!(key.creator, KalisId::new("K1"));
/// assert_eq!(key.label, "SignalStrength");
/// assert_eq!(key.entity.as_ref().map(|e| e.as_str()), Some("SensorA"));
/// assert_eq!(key.encode(), "K1$SignalStrength@SensorA");
/// # Ok::<(), kalis_core::knowledge::ParseKeyError>(())
/// ```
#[derive(Debug, Clone, PartialEq, Eq, Hash, PartialOrd, Ord, Serialize, Deserialize)]
pub struct KnowKey {
    /// The Kalis node that created the knowgget.
    pub creator: KalisId,
    /// The (possibly dotted) label.
    pub label: String,
    /// The related entity, if any.
    pub entity: Option<Entity>,
}

impl KnowKey {
    /// A network-level key.
    pub fn new(creator: KalisId, label: impl Into<String>) -> Self {
        KnowKey {
            creator,
            label: label.into(),
            entity: None,
        }
    }

    /// An entity-specific key.
    pub fn about(creator: KalisId, label: impl Into<String>, entity: Entity) -> Self {
        KnowKey {
            creator,
            label: label.into(),
            entity: Some(entity),
        }
    }

    /// Encode to the flat string form.
    pub fn encode(&self) -> String {
        match &self.entity {
            Some(e) => format!("{}${}@{}", self.creator, self.label, e),
            None => format!("{}${}", self.creator, self.label),
        }
    }

    /// The top-level label segment (before the first dot), for multilevel
    /// knowggets.
    pub fn root_label(&self) -> &str {
        self.label.split('.').next().unwrap_or(&self.label)
    }

    /// Build a multilevel (dot-suffixed) label from a family root and a
    /// leaf, e.g. `KnowKey::scoped(sense::PROTOCOL_SEEN, "IP")` →
    /// `"ProtocolSeen.IP"`.
    ///
    /// This is the one sanctioned way to construct family-member labels:
    /// ad-hoc `format!("{}.{}", root, leaf)` at call sites hides the key
    /// from contract declarations and from the `kalis-lint` analysis,
    /// whereas every `scoped` site names its family root explicitly.
    pub fn scoped(root: &str, leaf: &str) -> String {
        debug_assert!(!root.is_empty() && !leaf.is_empty());
        format!("{root}.{leaf}")
    }
}

impl fmt::Display for KnowKey {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        f.write_str(&self.encode())
    }
}

/// Error parsing a [`KnowKey`] from its string form.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct ParseKeyError {
    text: String,
}

impl fmt::Display for ParseKeyError {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        write!(f, "invalid knowgget key `{}`", self.text)
    }
}

impl std::error::Error for ParseKeyError {}

/// The `(creator, label, entity)` an encoded key spells, borrowed from it;
/// `None` where [`KnowKey::from_str`] rejects the text.
pub(super) fn split(encoded: &str) -> Option<(&str, &str, Option<&str>)> {
    let (creator, rest) = encoded.split_once('$')?;
    if creator.is_empty() || creator.contains(['@', '.']) {
        return None;
    }
    let (label, entity) = match rest.split_once('@') {
        Some((_, "")) => return None,
        Some((label, entity)) => (label, Some(entity)),
        None => (rest, None),
    };
    (!label.is_empty()).then_some((creator, label, entity))
}

impl FromStr for KnowKey {
    type Err = ParseKeyError;

    fn from_str(s: &str) -> Result<Self, Self::Err> {
        let (creator, label, entity) =
            split(s).ok_or_else(|| ParseKeyError { text: s.to_owned() })?;
        Ok(KnowKey {
            creator: KalisId::new(creator),
            label: label.to_owned(),
            entity: entity.map(Entity::new),
        })
    }
}

/// Key text assembled from pieces for a lookup, on the stack when it
/// fits: a lookup builds no `KnowKey` and allocates nothing.
#[derive(Debug, Clone)]
pub(super) struct KeyBuf {
    stack: [u8; KeyBuf::STACK],
    len: usize,
    /// The text, when it is longer than `stack`.
    heap: String,
}

impl KeyBuf {
    const STACK: usize = 120;

    /// The concatenation of `pieces`, each the bytes of a whole `str`
    /// (a [`KalisId`]'s are taken as they lie, not checked again).
    pub(super) fn concat<P: AsRef<[u8]>>(pieces: &[P]) -> Self {
        let len = pieces.iter().map(|p| p.as_ref().len()).sum();
        let mut buf = KeyBuf {
            stack: [0; KeyBuf::STACK],
            len,
            heap: String::new(),
        };
        if len > KeyBuf::STACK {
            let bytes = pieces.iter().flat_map(|p| p.as_ref()).copied().collect();
            buf.heap = String::from_utf8(bytes).expect("whole strs, end to end");
            return buf;
        }
        let mut at = 0;
        for piece in pieces {
            let piece = piece.as_ref();
            buf.stack[at..at + piece.len()].copy_from_slice(piece);
            at += piece.len();
        }
        buf
    }

    /// `creator$label` or `creator$label@entity`, as [`KnowKey::encode`]
    /// spells it; `creator` is the bytes of a creator's id.
    pub(super) fn key(creator: &[u8], label: &str, entity: Option<&str>) -> Self {
        let (label, dollar, at): (&[u8], &[u8], &[u8]) = (label.as_bytes(), b"$", b"@");
        match entity {
            Some(entity) => Self::concat(&[creator, dollar, label, at, entity.as_bytes()]),
            None => Self::concat(&[creator, dollar, label]),
        }
    }

    pub(super) fn as_str(&self) -> &str {
        if self.len > KeyBuf::STACK {
            return &self.heap;
        }
        std::str::from_utf8(&self.stack[..self.len]).expect("whole strs, end to end")
    }

    /// The text's bytes, without the validation [`KeyBuf::as_str`] pays
    /// for: what the store is searched with.
    pub(super) fn as_bytes(&self) -> &[u8] {
        if self.len > KeyBuf::STACK {
            return self.heap.as_bytes();
        }
        &self.stack[..self.len]
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn encode_matches_paper_examples() {
        // Fig. 5b of the paper.
        assert_eq!(
            KnowKey::new(KalisId::new("K1"), "Multihop").encode(),
            "K1$Multihop"
        );
        assert_eq!(
            KnowKey::about(KalisId::new("K1"), "SignalStrength", Entity::new("SensorA")).encode(),
            "K1$SignalStrength@SensorA"
        );
        assert_eq!(
            KnowKey::new(KalisId::new("K1"), "TrafficFrequency.TCPSYN").encode(),
            "K1$TrafficFrequency.TCPSYN"
        );
    }

    #[test]
    fn parse_roundtrip() {
        for text in [
            "K1$Multihop",
            "K2$SignalStrength@SensorA",
            "K1$TrafficFrequency.TCPACK",
            "K9$TrafficFrequency.UDP@10.0.0.3",
        ] {
            let key: KnowKey = text.parse().unwrap();
            assert_eq!(key.encode(), text);
        }
    }

    #[test]
    fn parse_rejects_malformed() {
        for text in ["", "NoDollar", "$label", "K1$", "K1$label@", "K.1$x"] {
            assert!(text.parse::<KnowKey>().is_err(), "should reject `{text}`");
        }
    }

    #[test]
    fn key_buf_spells_what_encode_spells() {
        let long = "x".repeat(200);
        for (label, entity) in [
            ("Multihop", None),
            ("SignalStrength", Some("SensorA")),
            (long.as_str(), Some("10.0.0.3")),
            ("Température", Some(long.as_str())),
        ] {
            let key = KnowKey {
                creator: KalisId::new("K1"),
                label: label.to_owned(),
                entity: entity.map(Entity::new),
            };
            assert_eq!(KeyBuf::key(b"K1", label, entity).as_str(), key.encode());
        }
        assert_eq!(KeyBuf::concat::<&str>(&[]).as_str(), "");
    }

    #[test]
    fn root_label_strips_sublevels() {
        let key: KnowKey = "K1$TrafficFrequency.TCPSYN".parse().unwrap();
        assert_eq!(key.root_label(), "TrafficFrequency");
        let plain: KnowKey = "K1$Multihop".parse().unwrap();
        assert_eq!(plain.root_label(), "Multihop");
    }
}
