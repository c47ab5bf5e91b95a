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
//!
//! Wire form of a message's plaintext: the sender id, a `u16` knowgget
//! count, then six fields per knowgget — label, value (its
//! [`KnowValue::to_wire`] text), creator, entity, origin module and trace
//! (`trace_id:span_id` in decimal; empty when untraced) — every field and
//! the sender a `u16` big-endian length followed by that many UTF-8 bytes.
//! Values are written straight from their typed form into the one buffer
//! that is sealed in place, and a received message is parsed from
//! borrowed slices: a knowgget crosses the wire building no string but
//! its label.

use core::fmt;

use kalis_packets::Entity;

use crate::id::KalisId;

use super::{KnowValue, Knowgget, KnowggetOrigin};

/// Upper bound on knowggets per sync message. Senders chunk larger
/// batches; receivers reject anything claiming more — a hostile length
/// field must never drive allocation.
pub(crate) const MAX_SYNC_KNOWGGETS: usize = 512;

/// Minimum encoded size of one knowgget (six empty length-prefixed
/// strings: label, value, creator, entity, origin module, trace), used to
/// sanity-check a declared count against the actual payload size before
/// allocating.
const MIN_KNOWGGET_WIRE: usize = 12;

/// The longest field a `u16` length prefix announces.
const FIELD_MAX: usize = u16::MAX as usize;

/// Room [`SyncMessage::seal`] leaves after the plaintext for the
/// channel's authentication tag, so that sealing in place grows nothing
/// ([`XorChannel`]'s tag is 8 bytes; an AEAD's is 16).
pub(crate) const SEAL_ROOM: usize = 16;

/// A batch of collective knowggets announced by one Kalis node.
#[derive(Debug, Clone, PartialEq)]
pub struct SyncMessage {
    /// The announcing node (must match every knowgget's creator for the
    /// message to be accepted).
    pub from: KalisId,
    /// The changed knowggets.
    pub knowggets: Vec<Knowgget>,
}

/// `fmt::Write` into the end of a byte buffer.
struct Append<'a>(&'a mut Vec<u8>);

impl fmt::Write for Append<'_> {
    fn write_str(&mut self, s: &str) -> fmt::Result {
        self.0.extend_from_slice(s.as_bytes());
        Ok(())
    }
}

/// Decimal digits of `n`.
fn digits(n: u64) -> usize {
    n.checked_ilog10().map_or(1, |log| log as usize + 1)
}

/// A knowgget's trace attribution, `None` when untraced.
fn traced(origin: Option<&KnowggetOrigin>) -> Option<(u64, u32)> {
    let origin = origin?;
    (origin.trace_id != 0 || origin.span_id != 0).then_some((origin.trace_id, origin.span_id))
}

/// The byte lengths of a knowgget's six wire fields, or `None` when one
/// is longer than its `u16` prefix can announce.
fn field_lens(k: &Knowgget) -> Option<[usize; 6]> {
    let trace = traced(k.origin.as_ref()).map_or(0, |(trace_id, span_id)| {
        digits(trace_id) + 1 + digits(span_id.into())
    });
    let lens = [
        k.label.len(),
        k.value.wire_len(),
        k.creator.as_bytes().len(),
        k.entity.as_ref().map_or(0, |e| e.as_str().len()),
        k.origin.as_ref().map_or(0, |o| o.module.len()),
        trace,
    ];
    lens.iter().all(|len| *len <= FIELD_MAX).then_some(lens)
}

/// What goes on the wire of `knowggets`, in order, with each one's field
/// lengths: every knowgget but one with a field too long for its length
/// prefix — left out whole rather than cut, which would leave the peer a
/// frame it must reject (or a character split in two) — and at most
/// `u16::MAX` of them, what the count field can say.
fn shipped(knowggets: &[Knowgget]) -> impl Iterator<Item = (&Knowgget, [usize; 6])> {
    (knowggets.iter())
        .filter_map(|k| Some((k, field_lens(k)?)))
        .take(FIELD_MAX)
}

fn put_len(buf: &mut Vec<u8>, len: usize) {
    buf.extend_from_slice(&(len as u16).to_be_bytes());
}

impl SyncMessage {
    /// Build a message from a node's dirty collective knowggets.
    pub fn new(from: KalisId, knowggets: Vec<Knowgget>) -> Self {
        SyncMessage { from, knowggets }
    }

    /// A length-prefixed field: `s`, cut to what the prefix can announce.
    pub(crate) fn put_str(buf: &mut Vec<u8>, s: &str) {
        let bytes = &s.as_bytes()[..s.len().min(FIELD_MAX)];
        put_len(buf, bytes.len());
        buf.extend_from_slice(bytes);
    }

    /// The length-prefixed field at `*pos`, borrowed, and `*pos` moved
    /// past it; `None` when it runs past the end of `buf` or is not
    /// UTF-8.
    pub(crate) fn get_str<'a>(buf: &'a [u8], pos: &mut usize) -> Option<&'a str> {
        // Checked arithmetic throughout: an adversarial `pos`/length pair
        // must fail cleanly, never wrap or panic.
        let header_end = pos.checked_add(2)?;
        let header = buf.get(*pos..header_end)?;
        let len = usize::from(u16::from_be_bytes([header[0], header[1]]));
        *pos = header_end;
        let body_end = pos.checked_add(len)?;
        let body = std::str::from_utf8(buf.get(*pos..body_end)?).ok()?;
        *pos = body_end;
        Some(body)
    }

    /// Parse the `trace_id:span_id` wire form back; empty means
    /// untraced. Anything else malformed is a hostile frame.
    fn parse_trace_wire(s: &str) -> Result<(u64, u32), String> {
        if s.is_empty() {
            return Ok((0, 0));
        }
        let malformed = || format!("malformed trace `{s}`");
        let (id, span) = s.split_once(':').ok_or_else(malformed)?;
        let trace_id: u64 = id.parse().map_err(|_| malformed())?;
        let span_id: u32 = span.parse().map_err(|_| malformed())?;
        Ok((trace_id, span_id))
    }

    /// Plaintext wire size in bytes (what [`SyncMessage::seal`] encodes
    /// before the channel adds its own overhead) — the basis of the
    /// sync-traffic byte counters. Exact: a knowgget left off the wire
    /// counts nothing.
    pub fn encoded_len(&self) -> usize {
        Self::wire_len(&self.from, &self.knowggets)
    }

    /// [`SyncMessage::encoded_len`] of a message from `from` carrying
    /// `knowggets`.
    pub(crate) fn wire_len(from: &KalisId, knowggets: &[Knowgget]) -> usize {
        let fields =
            shipped(knowggets).map(|(_, lens)| 2 * lens.len() + lens.iter().sum::<usize>());
        2 + from.as_bytes().len().min(FIELD_MAX) + 2 + fields.sum::<usize>()
    }

    /// Append the plaintext payload of a message from `from` carrying
    /// `knowggets` to `buf`, [`SyncMessage::wire_len`] bytes (what
    /// [`SyncMessage::seal`] hands to the channel, and what the
    /// sequence-numbered envelope of [`super::CollectiveSync`] embeds
    /// after its header).
    pub(crate) fn encode_into(from: &KalisId, knowggets: &[Knowgget], buf: &mut Vec<u8>) {
        Self::put_str(buf, from.as_str());
        let count_at = buf.len();
        put_len(buf, 0);
        let mut count = 0;
        for (k, lens) in shipped(knowggets) {
            let [label, value, creator, entity, module, trace] = lens;
            put_len(buf, label);
            buf.extend_from_slice(k.label.as_bytes());
            put_len(buf, value);
            let at = buf.len();
            k.value
                .write_wire(&mut Append(buf))
                .expect("appending to a Vec cannot fail");
            debug_assert_eq!(buf.len() - at, value);
            put_len(buf, creator);
            buf.extend_from_slice(k.creator.as_bytes());
            put_len(buf, entity);
            buf.extend_from_slice(k.entity.as_ref().map_or(&[], |e| e.as_str().as_bytes()));
            put_len(buf, module);
            buf.extend_from_slice(k.origin.as_ref().map_or(&[], |o| o.module.as_bytes()));
            put_len(buf, trace);
            if let Some((trace_id, span_id)) = traced(k.origin.as_ref()) {
                fmt::Write::write_fmt(&mut Append(buf), format_args!("{trace_id}:{span_id}"))
                    .expect("appending to a Vec cannot fail");
            }
            count += 1;
        }
        buf[count_at..count_at + 2].copy_from_slice(&(count as u16).to_be_bytes());
    }

    /// Parse a plaintext payload produced by [`SyncMessage::encode_into`],
    /// with hostile-input hardening: declared counts are capped and
    /// checked against the bytes actually present before any allocation,
    /// and every field is read where it lies.
    pub(crate) fn decode_payload(plain: &[u8]) -> Result<SyncMessage, String> {
        let mut pos = 0;
        let from = Self::get_str(plain, &mut pos).ok_or("truncated sender")?;
        if from.is_empty() {
            return Err("empty sender".to_owned());
        }
        let from = KalisId::try_new(from)?;
        let count = plain.get(pos..pos + 2).ok_or("truncated count")?;
        let count = usize::from(u16::from_be_bytes([count[0], count[1]]));
        pos += 2;
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
            let (trace_id, span_id) = Self::parse_trace_wire(trace)?;
            let origin = (!origin_module.is_empty() || trace_id != 0 || span_id != 0).then(|| {
                KnowggetOrigin {
                    module: origin_module.into(),
                    trace_id,
                    span_id,
                }
            });
            knowggets.push(Knowgget {
                label: label.to_owned(),
                value: KnowValue::from_wire(value),
                creator: KalisId::try_new(creator)?,
                entity: (!entity.is_empty()).then(|| Entity::new(entity)),
                origin,
            });
        }
        Ok(SyncMessage { from, knowggets })
    }

    /// Serialize and seal for transmission over `channel`: one buffer,
    /// sized by [`SyncMessage::encoded_len`], encoded and sealed in place.
    pub fn seal(&self, channel: &dyn SecureChannel) -> Vec<u8> {
        let mut buf = Vec::with_capacity(self.encoded_len() + SEAL_ROOM);
        Self::encode_into(&self.from, &self.knowggets, &mut buf);
        channel.seal_in_place(&mut buf);
        buf
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

    /// Seal the plaintext `buf` holds where it lies: afterwards `buf`
    /// holds what [`SecureChannel::seal`] would have returned. The
    /// default goes through `seal`; a channel that can encrypt in place
    /// overrides it and allocates nothing while `buf` has room.
    fn seal_in_place(&self, buf: &mut Vec<u8>) {
        *buf = self.seal(buf);
    }
}

/// The stand-in channel: xorshift keystream encryption with a keyed FNV-1a
/// tag. **Not cryptographically secure** — see module docs.
#[derive(Debug, Clone, Copy)]
pub struct XorChannel {
    key: u64,
}

impl XorChannel {
    /// Bytes the authentication tag adds to a plaintext.
    const TAG: usize = 8;

    /// A channel using the shared secret `key`.
    pub fn new(key: u64) -> Self {
        XorChannel { key }
    }

    /// XOR `data` with the keystream, one xorshift step per eight bytes.
    fn apply_keystream(&self, data: &mut [u8]) {
        let mut state = self.key | 1;
        for chunk in data.chunks_mut(8) {
            state ^= state << 13;
            state ^= state >> 7;
            state ^= state << 17;
            for (byte, key) in chunk.iter_mut().zip(state.to_be_bytes()) {
                *byte ^= key;
            }
        }
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
        let mut buf = Vec::with_capacity(plaintext.len() + Self::TAG);
        buf.extend_from_slice(plaintext);
        self.seal_in_place(&mut buf);
        buf
    }

    fn open(&self, sealed: &[u8]) -> Option<Vec<u8>> {
        let body = sealed.len().checked_sub(Self::TAG)?;
        let expected = u64::from_be_bytes(sealed[body..].try_into().ok()?);
        let mut plain = sealed[..body].to_vec();
        self.apply_keystream(&mut plain);
        (self.tag(&plain) == expected).then_some(plain)
    }

    fn seal_in_place(&self, buf: &mut Vec<u8>) {
        let tag = self.tag(buf);
        self.apply_keystream(buf);
        buf.extend_from_slice(&tag.to_be_bytes());
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

    /// One of each value type, a network-level and an entity-scoped
    /// knowgget, no origin, an untraced origin and a traced one.
    fn pinned_knowggets() -> Vec<Knowgget> {
        let k2 = KalisId::new("K2");
        vec![
            Knowgget::new("Multihop", KnowValue::Bool(true), k2.clone()),
            Knowgget::new("MonitoredNodes", KnowValue::Int(8), k2.clone()).with_origin(
                KnowggetOrigin {
                    module: "TopologyDiscoveryModule".into(),
                    trace_id: 0,
                    span_id: 0,
                },
            ),
            Knowgget::about(
                "SignalStrength",
                KnowValue::Float(-84.5),
                k2.clone(),
                Entity::new("0x000a"),
            )
            .with_origin(KnowggetOrigin {
                module: "MobilityAwarenessModule".into(),
                trace_id: 0x1234_5678_9abc_def0,
                span_id: 17,
            }),
            Knowgget::about(
                "DroppedOrigins",
                KnowValue::Text("0x001e,0x001f".to_owned()),
                k2,
                Entity::new("0x0014"),
            ),
        ]
    }

    fn hex(bytes: &[u8]) -> String {
        bytes.iter().map(|byte| format!("{byte:02x}")).collect()
    }

    /// The sealed bytes of a fixed message, and of the sequenced envelope
    /// of the same payload, as the string-building encoder spelled them:
    /// peers of either build understand each other.
    #[test]
    fn the_wire_format_is_pinned() {
        let channel = XorChannel::new(0x006b_616c_6973);
        let message = SyncMessage::new(KalisId::new("K2"), pinned_knowggets());
        let sealed = message.seal(&channel);
        assert_eq!(
            hex(&sealed),
            concat!(
                "ed33fe997b5c8d6931ad6b430b3f2b4b519401520c4684713158118d7ec8bfbb",
                "2a74c79cef8cd46b6fc2806910628f377b402fc5c261c490e034f4417e4f6811",
                "c8a8bc92f126655cd04d8f4c4c73248a57c1098feb63f4d76299882d6eb32114",
                "75814d00672d0cafae90655f93bfc614c46f2bc4cca0f9fc20c0a43c46a66fb9",
                "73cef64050a8efe56c4978edf2ab16e6be0094ded7603180cc616b372f4afa0c",
                "0fdc3d5f51b72f5e747152e3689ece702bcf0d71e2b7285a12168e069a7b6180",
                "ceece47f21ee3904daecc11f548fd88a344ccab15513b1bd128365f7b61d06",
            )
        );
        assert_eq!(sealed.len(), message.encoded_len() + 8);
        assert_eq!(channel.seal(&channel.open(&sealed).unwrap()), sealed);

        let mut engine = crate::knowledge::CollectiveSync::new(
            KalisId::new("K2"),
            Box::new(channel),
            crate::knowledge::SyncConfig::default(),
        );
        let (k1, now) = (KalisId::new("K1"), kalis_packets::Timestamp::from_secs(1));
        engine.observe_peer(&k1, now);
        engine.take_resync_peers();
        engine.enqueue_to(&k1, pinned_knowggets(), now);
        assert_eq!(
            hex(&engine.poll(now)[0].bytes),
            concat!(
                "ec31b5ab7b588d617cd807352965443f519838551557ed1b151a11890abacade",
                "2a78c1c181e5a0041da7e4293269842d0f2e65a0a46499f48547e314293f0536",
                "95cfc5d68f016943c94492527858298c58cb7fea9914ead1618285243dc7537f",
                "488f5e06064472e3e8db3e38e59cf411ef6767dac9909ab7058dcd6e57fa36fd",
                "6b8f966c4dafe8ec764e4cc3e1bf08e6d073d69eab3e62c398305d162a4ff80a",
                "01da365957ba2a5f47482fa134dc8e2f7eb77f16c1ac2959627eda31d822378c",
                "8caf9c4221a76f34e9c2df2f2a8f908b627dfcfa6713b74bc59ab97f60c8a8d9",
                "67c17dc864998bbfdd",
            )
        );
    }

    #[test]
    fn an_over_long_field_leaves_its_knowgget_off_the_wire() {
        let k2 = KalisId::new("K2");
        let small = Knowgget::new("Mobile", KnowValue::Bool(true), k2.clone());
        // A 70,000-byte text with a two-byte character across the 65,535
        // mark, where a cut would split it.
        let text = format!("{}é{}", "a".repeat(65_534), "b".repeat(4_464));
        assert_eq!(text.len(), 70_000);
        let long = Knowgget::new("Notes", KnowValue::Text(text), k2.clone());
        let channel = XorChannel::new(5);
        let message = SyncMessage::new(k2.clone(), vec![long, small.clone()]);
        let sealed = message.seal(&channel);
        assert_eq!(
            sealed.len(),
            message.encoded_len() + 8,
            "encoded_len is exact"
        );
        let only_small = SyncMessage::new(k2.clone(), vec![small.clone()]);
        assert_eq!(message.encoded_len(), only_small.encoded_len());
        let back = SyncMessage::open(&sealed, &channel).expect("the rest ships");
        assert_eq!(back.knowggets, [small]);
        // A long label, entity or module name is left out the same way.
        let long_label = Knowgget::new("L".repeat(70_000), KnowValue::Int(1), k2.clone());
        let message = SyncMessage::new(k2, vec![long_label]);
        let back = SyncMessage::open(&message.seal(&channel), &channel).unwrap();
        assert!(back.knowggets.is_empty());
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
