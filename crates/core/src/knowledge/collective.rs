//! Collective knowledge synchronization between Kalis nodes (paper §V).
//!
//! Peers exchange *sync messages* carrying changed collective knowggets.
//! "All communications among the nodes are encrypted, and only enable a
//! one-way communication (in each direction) between pairs of nodes" — the
//! channel abstraction here models exactly that: seal on send, open on
//! receive, no further interaction. The provided [`XorChannel`] is a
//! keystream-plus-keyed-checksum **stand-in** for a real AEAD (the
//! evaluation exercises the exchange semantics, not cryptographic
//! strength); production deployments would implement [`SecureChannel`]
//! over an AEAD cipher.

use kalis_packets::Entity;

use crate::id::KalisId;

use super::{KnowValue, Knowgget, KnowggetOrigin};

/// Upper bound on knowggets per sync message. Senders chunk larger
/// batches; receivers reject anything claiming more — a hostile length
/// field must never drive allocation.
pub const MAX_SYNC_KNOWGGETS: usize = 512;

/// Minimum encoded size of one knowgget (six empty length-prefixed
/// strings: label, value, creator, entity, origin module, trace), used to
/// sanity-check a declared count against the actual payload size before
/// allocating.
const MIN_KNOWGGET_WIRE: usize = 12;

/// A batch of collective knowggets announced by one Kalis node.
#[derive(Debug, Clone, PartialEq)]
pub struct SyncMessage {
    /// The announcing node (must match every knowgget's creator for the
    /// message to be accepted).
    pub from: KalisId,
    /// The changed knowggets.
    pub knowggets: Vec<Knowgget>,
}

impl SyncMessage {
    /// Build a message from a node's dirty collective knowggets.
    pub fn new(from: KalisId, knowggets: Vec<Knowgget>) -> Self {
        SyncMessage { from, knowggets }
    }

    pub(crate) fn put_str(buf: &mut Vec<u8>, s: &str) {
        let bytes = s.as_bytes();
        buf.extend_from_slice(&(bytes.len().min(u16::MAX as usize) as u16).to_be_bytes());
        buf.extend_from_slice(&bytes[..bytes.len().min(u16::MAX as usize)]);
    }

    pub(crate) fn get_str(buf: &[u8], pos: &mut usize) -> Option<String> {
        // Checked arithmetic throughout: an adversarial `pos`/length pair
        // must fail cleanly, never wrap or panic.
        let header_end = pos.checked_add(2)?;
        if buf.len() < header_end {
            return None;
        }
        let len = u16::from_be_bytes([buf[*pos], buf[*pos + 1]]) as usize;
        *pos = header_end;
        let body_end = pos.checked_add(len)?;
        if buf.len() < body_end {
            return None;
        }
        let s = String::from_utf8(buf[*pos..body_end].to_vec()).ok()?;
        *pos = body_end;
        Some(s)
    }

    /// Wire form of a knowgget's trace attribution: `trace_id:span_id`
    /// in decimal, or empty when untraced.
    fn trace_wire(origin: Option<&KnowggetOrigin>) -> String {
        match origin {
            Some(o) if o.trace_id != 0 || o.span_id != 0 => format!("{}:{}", o.trace_id, o.span_id),
            _ => String::new(),
        }
    }

    /// Parse the `trace_id:span_id` wire form back; empty means
    /// untraced. Anything else malformed is a hostile frame.
    fn parse_trace_wire(s: &str) -> Result<(u64, u32), String> {
        if s.is_empty() {
            return Ok((0, 0));
        }
        let (id, span) = s
            .split_once(':')
            .ok_or_else(|| format!("malformed trace `{s}`"))?;
        let trace_id: u64 = id.parse().map_err(|_| format!("malformed trace `{s}`"))?;
        let span_id: u32 = span.parse().map_err(|_| format!("malformed trace `{s}`"))?;
        Ok((trace_id, span_id))
    }

    /// Plaintext wire size in bytes (what [`SyncMessage::seal`] encodes
    /// before the channel adds its own overhead) — the basis of the
    /// sync-traffic byte counters.
    pub fn encoded_len(&self) -> usize {
        let mut len = 2 + self.from.as_str().len() + 2;
        for k in &self.knowggets {
            len += 2 + k.label.len();
            len += 2 + k.value.to_wire().len();
            len += 2 + k.creator.as_str().len();
            len += 2 + k.entity.as_ref().map_or(0, |e| e.as_str().len());
            len += 2 + k.origin.as_ref().map_or(0, |o| o.module.len());
            len += 2 + Self::trace_wire(k.origin.as_ref()).len();
        }
        len
    }

    /// Encode the plaintext payload (what [`SyncMessage::seal`] hands to
    /// the channel, and what the sequence-numbered envelope of
    /// [`super::CollectiveSync`] embeds after its header).
    pub(crate) fn encode_payload(&self) -> Vec<u8> {
        let mut plain = Vec::new();
        Self::put_str(&mut plain, self.from.as_str());
        plain
            .extend_from_slice(&(self.knowggets.len().min(u16::MAX as usize) as u16).to_be_bytes());
        for k in &self.knowggets {
            Self::put_str(&mut plain, &k.label);
            Self::put_str(&mut plain, &k.value.to_wire());
            Self::put_str(&mut plain, k.creator.as_str());
            Self::put_str(&mut plain, k.entity.as_ref().map_or("", |e| e.as_str()));
            Self::put_str(
                &mut plain,
                k.origin.as_ref().map_or("", |o| o.module.as_str()),
            );
            Self::put_str(&mut plain, &Self::trace_wire(k.origin.as_ref()));
        }
        plain
    }

    /// Parse a plaintext payload produced by
    /// [`SyncMessage::encode_payload`], with hostile-input hardening:
    /// declared counts are capped and checked against the bytes actually
    /// present before any allocation.
    pub(crate) fn decode_payload(plain: &[u8]) -> Result<SyncMessage, String> {
        let mut pos = 0;
        let from = Self::get_str(plain, &mut pos).ok_or("truncated sender")?;
        if from.is_empty() {
            return Err("empty sender".to_owned());
        }
        let from = KalisId::try_new(from)?;
        let count_end = pos.checked_add(2).ok_or("truncated count")?;
        if plain.len() < count_end {
            return Err("truncated count".to_owned());
        }
        let count = u16::from_be_bytes([plain[pos], plain[pos + 1]]) as usize;
        pos = count_end;
        if count > MAX_SYNC_KNOWGGETS {
            return Err(format!(
                "declared knowgget count {count} exceeds cap {MAX_SYNC_KNOWGGETS}"
            ));
        }
        // A declared count larger than the remaining bytes could carry is
        // hostile; reject before reserving anything for it.
        if count.saturating_mul(MIN_KNOWGGET_WIRE) > plain.len().saturating_sub(pos) {
            return Err("declared knowgget count exceeds payload size".to_owned());
        }
        let mut knowggets = Vec::with_capacity(count);
        for _ in 0..count {
            let label = Self::get_str(plain, &mut pos).ok_or("truncated label")?;
            let value = Self::get_str(plain, &mut pos).ok_or("truncated value")?;
            let creator = Self::get_str(plain, &mut pos).ok_or("truncated creator")?;
            let entity = Self::get_str(plain, &mut pos).ok_or("truncated entity")?;
            let origin_module = Self::get_str(plain, &mut pos).ok_or("truncated origin")?;
            let trace = Self::get_str(plain, &mut pos).ok_or("truncated trace")?;
            if label.is_empty() || creator.is_empty() {
                return Err("empty label or creator".to_owned());
            }
            // Labels and entities become KB key segments; the key
            // delimiters must not be smuggled in through the wire.
            if label.contains(['$', '@']) {
                return Err(format!("label `{label}` contains key delimiters"));
            }
            if entity.contains(['$', '@']) {
                return Err(format!("entity `{entity}` contains key delimiters"));
            }
            let (trace_id, span_id) = Self::parse_trace_wire(&trace)?;
            let origin = (!origin_module.is_empty() || trace_id != 0 || span_id != 0).then_some(
                KnowggetOrigin {
                    module: origin_module.into(),
                    trace_id,
                    span_id,
                },
            );
            knowggets.push(Knowgget {
                label,
                value: KnowValue::from_wire(&value),
                creator: KalisId::try_new(creator)?,
                entity: (!entity.is_empty()).then(|| Entity::new(entity)),
                origin,
            });
        }
        Ok(SyncMessage { from, knowggets })
    }

    /// Serialize and seal for transmission over `channel`.
    pub fn seal(&self, channel: &dyn SecureChannel) -> Vec<u8> {
        channel.seal(&self.encode_payload())
    }

    /// Open and parse a sealed message.
    ///
    /// # Errors
    ///
    /// Returns a description when authentication fails or the payload is
    /// malformed.
    pub fn open(sealed: &[u8], channel: &dyn SecureChannel) -> Result<SyncMessage, String> {
        let plain = channel
            .open(sealed)
            .ok_or_else(|| "authentication failed".to_owned())?;
        Self::decode_payload(&plain)
    }
}

/// A sealed, authenticated one-way channel between Kalis peers.
pub trait SecureChannel: Send + Sync {
    /// Encrypt and authenticate `plaintext`.
    fn seal(&self, plaintext: &[u8]) -> Vec<u8>;

    /// Verify and decrypt; `None` when authentication fails.
    fn open(&self, sealed: &[u8]) -> Option<Vec<u8>>;
}

/// The stand-in channel: xorshift keystream encryption with a keyed FNV-1a
/// tag. **Not cryptographically secure** — see module docs.
#[derive(Debug, Clone, Copy)]
pub struct XorChannel {
    key: u64,
}

impl XorChannel {
    /// A channel using the shared secret `key`.
    pub fn new(key: u64) -> Self {
        XorChannel { key }
    }

    fn keystream(&self, len: usize) -> Vec<u8> {
        let mut state = self.key | 1;
        let mut out = Vec::with_capacity(len);
        while out.len() < len {
            state ^= state << 13;
            state ^= state >> 7;
            state ^= state << 17;
            out.extend_from_slice(&state.to_be_bytes());
        }
        out.truncate(len);
        out
    }

    fn tag(&self, data: &[u8]) -> u64 {
        let mut hash: u64 = 0xcbf29ce484222325 ^ self.key;
        for &b in data {
            hash ^= u64::from(b);
            hash = hash.wrapping_mul(0x100000001b3);
        }
        hash
    }
}

impl SecureChannel for XorChannel {
    fn seal(&self, plaintext: &[u8]) -> Vec<u8> {
        let ks = self.keystream(plaintext.len());
        let mut out: Vec<u8> = plaintext.iter().zip(ks).map(|(p, k)| p ^ k).collect();
        let tag = self.tag(plaintext);
        out.extend_from_slice(&tag.to_be_bytes());
        out
    }

    fn open(&self, sealed: &[u8]) -> Option<Vec<u8>> {
        if sealed.len() < 8 {
            return None;
        }
        let (body, tag_bytes) = sealed.split_at(sealed.len() - 8);
        let ks = self.keystream(body.len());
        let plain: Vec<u8> = body.iter().zip(ks).map(|(c, k)| c ^ k).collect();
        let expected = u64::from_be_bytes(tag_bytes.try_into().ok()?);
        (self.tag(&plain) == expected).then_some(plain)
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn sample_message() -> SyncMessage {
        SyncMessage::new(
            KalisId::new("K2"),
            vec![
                Knowgget::new("Mobile", KnowValue::Bool(true), KalisId::new("K2")),
                Knowgget::about(
                    "SignalStrength",
                    KnowValue::Float(-84.5),
                    KalisId::new("K2"),
                    Entity::new("SensorA"),
                )
                .with_origin(KnowggetOrigin {
                    module: "SignalStrengthModule".into(),
                    trace_id: 0x1234_5678_9abc_def0,
                    span_id: 17,
                }),
            ],
        )
    }

    #[test]
    fn seal_open_roundtrip() {
        let channel = XorChannel::new(0xdeadbeef);
        let msg = sample_message();
        let sealed = msg.seal(&channel);
        let back = SyncMessage::open(&sealed, &channel).unwrap();
        assert_eq!(back, msg);
    }

    #[test]
    fn wrong_key_fails_authentication() {
        let msg = sample_message();
        let sealed = msg.seal(&XorChannel::new(1));
        assert!(SyncMessage::open(&sealed, &XorChannel::new(2)).is_err());
    }

    #[test]
    fn tampering_fails_authentication() {
        let channel = XorChannel::new(42);
        let mut sealed = sample_message().seal(&channel);
        sealed[3] ^= 0x01;
        assert!(SyncMessage::open(&sealed, &channel).is_err());
    }

    #[test]
    fn ciphertext_differs_from_plaintext() {
        let channel = XorChannel::new(42);
        let msg = sample_message();
        let sealed = msg.seal(&channel);
        assert!(
            !sealed.windows(6).any(|w| w == b"Mobile"),
            "labels must not appear in clear"
        );
    }

    #[test]
    fn truncated_message_is_rejected() {
        let channel = XorChannel::new(42);
        let sealed = sample_message().seal(&channel);
        assert!(SyncMessage::open(&sealed[..4], &channel).is_err());
        assert!(SyncMessage::open(&[], &channel).is_err());
    }

    #[test]
    fn encoded_len_matches_sealed_size() {
        let channel = XorChannel::new(7);
        for msg in [
            sample_message(),
            SyncMessage::new(KalisId::new("K1"), vec![]),
        ] {
            // XorChannel appends an 8-byte tag and nothing else.
            assert_eq!(msg.seal(&channel).len(), msg.encoded_len() + 8);
        }
    }

    #[test]
    fn empty_batch_roundtrips() {
        let channel = XorChannel::new(9);
        let msg = SyncMessage::new(KalisId::new("K1"), vec![]);
        let back = SyncMessage::open(&msg.seal(&channel), &channel).unwrap();
        assert!(back.knowggets.is_empty());
    }

    #[test]
    fn hostile_declared_count_is_rejected_before_allocation() {
        // A payload claiming 65535 knowggets but carrying none: the size
        // sanity check must reject it without reserving for the claim.
        let channel = XorChannel::new(3);
        let mut plain = Vec::new();
        SyncMessage::put_str(&mut plain, "K1");
        plain.extend_from_slice(&u16::MAX.to_be_bytes());
        let err = SyncMessage::open(&channel.seal(&plain), &channel).unwrap_err();
        assert!(err.contains("exceeds"), "{err}");
    }

    #[test]
    fn knowgget_count_cap_is_enforced() {
        // Over-cap count with enough padding to pass the size check: the
        // explicit cap still rejects it.
        let channel = XorChannel::new(3);
        let mut plain = Vec::new();
        SyncMessage::put_str(&mut plain, "K1");
        plain.extend_from_slice(&((MAX_SYNC_KNOWGGETS as u16) + 1).to_be_bytes());
        plain.resize(plain.len() + (MAX_SYNC_KNOWGGETS + 1) * 8, 0);
        let err = SyncMessage::open(&channel.seal(&plain), &channel).unwrap_err();
        assert!(err.contains("cap"), "{err}");
    }

    #[test]
    fn origin_and_trace_survive_the_wire() {
        let channel = XorChannel::new(11);
        let msg = sample_message();
        let back = SyncMessage::open(&msg.seal(&channel), &channel).unwrap();
        assert_eq!(back.knowggets[0].origin, None, "untraced stays untraced");
        let origin = back.knowggets[1].origin.as_ref().expect("origin carried");
        assert_eq!(origin.module, "SignalStrengthModule");
        assert_eq!(origin.trace_id, 0x1234_5678_9abc_def0);
        assert_eq!(origin.span_id, 17);
        // A module-only origin (untraced write) also survives.
        let msg = SyncMessage::new(
            KalisId::new("K2"),
            vec![
                Knowgget::new("Mobile", KnowValue::Bool(true), KalisId::new("K2")).with_origin(
                    KnowggetOrigin {
                        module: "MobilityModule".into(),
                        trace_id: 0,
                        span_id: 0,
                    },
                ),
            ],
        );
        let back = SyncMessage::open(&msg.seal(&channel), &channel).unwrap();
        let origin = back.knowggets[0].origin.as_ref().unwrap();
        assert_eq!(origin.module, "MobilityModule");
        assert_eq!((origin.trace_id, origin.span_id), (0, 0));
    }

    #[test]
    fn malformed_trace_wire_is_rejected() {
        let channel = XorChannel::new(13);
        for hostile in ["no-colon", "12:", ":7", "x:y", "-1:2", "1:2:3"] {
            let mut plain = Vec::new();
            SyncMessage::put_str(&mut plain, "K2");
            plain.extend_from_slice(&1u16.to_be_bytes());
            SyncMessage::put_str(&mut plain, "Mobile");
            SyncMessage::put_str(&mut plain, "true");
            SyncMessage::put_str(&mut plain, "K2");
            SyncMessage::put_str(&mut plain, "");
            SyncMessage::put_str(&mut plain, "M");
            SyncMessage::put_str(&mut plain, hostile);
            let err = SyncMessage::open(&channel.seal(&plain), &channel).unwrap_err();
            assert!(err.contains("malformed trace"), "{hostile}: {err}");
        }
    }

    #[test]
    fn empty_sender_is_rejected() {
        // KalisId::new refuses empty ids locally, so craft the hostile
        // payload by hand: zero-length sender, zero knowggets.
        let channel = XorChannel::new(3);
        let mut plain = Vec::new();
        SyncMessage::put_str(&mut plain, "");
        plain.extend_from_slice(&0u16.to_be_bytes());
        let err = SyncMessage::open(&channel.seal(&plain), &channel).unwrap_err();
        assert!(err.contains("empty sender"), "{err}");
    }

    mod fuzz {
        use super::*;
        use proptest::prelude::*;

        proptest! {
            #[test]
            fn corrupted_seals_never_panic(
                noise in proptest::collection::vec(any::<u8>(), 0..256),
                flips in proptest::collection::vec((0usize..4096, 0u32..8), 1..8),
                key in any::<u64>(),
            ) {
                let channel = XorChannel::new(key);
                let msg = sample_message();
                let mut sealed = msg.seal(&channel);
                sealed.extend_from_slice(&noise);
                for (pos, bit) in flips {
                    let len = sealed.len();
                    if len > 0 {
                        sealed[pos % len] ^= 1 << bit;
                    }
                }
                // Corrupted seal and raw noise: must return, never panic
                // or over-allocate.
                let _ = SyncMessage::open(&sealed, &channel);
                let _ = SyncMessage::open(&noise, &channel);
            }

            #[test]
            fn arbitrary_plaintext_decodes_without_panic(
                plain in proptest::collection::vec(any::<u8>(), 0..512),
            ) {
                if let Ok(msg) = SyncMessage::decode_payload(&plain) {
                    prop_assert!(msg.knowggets.len() <= MAX_SYNC_KNOWGGETS);
                }
            }
        }
    }
}
