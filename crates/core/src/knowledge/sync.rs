//! Fault-tolerant collective synchronization.
//!
//! The paper's sync mechanism (§V) assumes a clean local network; this
//! module makes it survive a hostile one. Every outgoing batch of
//! collective knowggets is wrapped in a sequence-numbered envelope,
//! acknowledged by the receiver, and retransmitted with bounded
//! exponential backoff until acked or the peer is declared Dead.
//! Receivers deduplicate replays against a bounded window, so a
//! duplicated or replayed frame is dropped (and re-acked) instead of
//! re-applied. Each peer runs a health state machine
//! (Healthy → Suspect → Dead) driven by missed beacons and unacked
//! syncs; a peer that comes back from Dead is cleanly reintegrated with
//! a full-state re-sync. Outbound queues are bounded with an explicit
//! drop-oldest policy. When every peer is Dead or the backlog
//! overflows, the engine reports **degraded local-only mode** so the
//! node can keep local detection running while suppressing
//! collaborative-only verdicts.
//!
//! Wire format of one envelope (sealed through the [`SecureChannel`]):
//!
//! ```text
//! [version = 1][kind: 0 = data, 1 = ack][seq: u64 BE][payload]
//! ```
//!
//! where a data payload is [`SyncMessage`]'s encoding (which carries the
//! sender id) and an ack payload is the length-prefixed acker id.

use std::collections::{BTreeMap, BTreeSet, VecDeque};
use std::time::Duration;

use kalis_packets::Timestamp;

use crate::id::KalisId;

use super::collective::{SecureChannel, SyncMessage, MAX_SYNC_KNOWGGETS, SEAL_ROOM};
use super::Knowgget;

/// The KB label a node sets on itself while in degraded local-only mode.
/// Modules whose verdicts require live collective knowledge check it and
/// suppress themselves (e.g. wormhole correlation).
pub(crate) const DEGRADED_LABEL: &str = "DegradedMode";

const ENVELOPE_VERSION: u8 = 1;
const ENVELOPE_HEADER: usize = 1 + 1 + 8;
const KIND_DATA: u8 = 0;
const KIND_ACK: u8 = 1;

/// First retransmit delay; doubles per attempt.
pub(crate) const RETRANSMIT_BASE: Duration = Duration::from_millis(500);
/// Ceiling on the retransmit delay.
pub(crate) const RETRANSMIT_MAX: Duration = Duration::from_secs(8);
/// Unacked attempts before the peer turns Suspect (twice this: Dead).
pub(crate) const MAX_ATTEMPTS: u32 = 6;
/// Outbound frames queued per peer before the drop policy engages.
pub(crate) const QUEUE_CAPACITY: usize = 64;
/// Receive-side dedup window (tracked seqs per peer).
pub(crate) const DEDUP_WINDOW: usize = 128;

/// `base` doubled for every attempt after the first (at most 16
/// doublings), capped at `max`: the retransmit delay here, and the
/// quarantine backoff of the module supervisor.
pub(crate) fn capped_doubling(base: Duration, attempts: u32, max: Duration) -> Duration {
    let shift = attempts.saturating_sub(1).min(16);
    base.saturating_mul(1u32 << shift).min(max)
}

/// Tunables of the sync engine, settable from the Fig. 6 config
/// language via the `Sync.PeerTtl` and `Sync.BeaconInterval` a-priori
/// knowggets (seconds).
#[derive(Debug, Clone, PartialEq, Eq)]
pub(crate) struct SyncConfig {
    /// Silence longer than this marks a peer Suspect; twice this, Dead.
    pub(crate) peer_ttl: Duration,
    /// How often the node broadcasts its own beacon.
    pub(crate) beacon_interval: Duration,
}

impl Default for SyncConfig {
    fn default() -> Self {
        SyncConfig {
            peer_ttl: super::peers::DEFAULT_PEER_TTL,
            beacon_interval: super::peers::DEFAULT_PEER_TTL / 3,
        }
    }
}

impl SyncConfig {
    /// Set the peer TTL, keeping the paper's 3-beacons-per-TTL cadence.
    pub(crate) fn with_peer_ttl(mut self, ttl: Duration) -> Self {
        self.peer_ttl = ttl.max(Duration::from_micros(3));
        self.beacon_interval = self.peer_ttl / 3;
        self
    }
}

/// The per-peer health state machine.
#[derive(Debug, Clone, Copy, PartialEq, Eq, PartialOrd, Ord)]
pub enum PeerHealth {
    /// Beaconing and acking normally.
    Healthy,
    /// Missed beacons or unacked syncs past the first threshold;
    /// retransmission continues.
    Suspect,
    /// Past the second threshold: queued traffic is discarded and the
    /// peer is skipped until it is heard from again (then fully
    /// re-synced).
    Dead,
}

impl PeerHealth {
    /// Stable name for journals and metrics.
    pub fn as_str(self) -> &'static str {
        match self {
            PeerHealth::Healthy => "healthy",
            PeerHealth::Suspect => "suspect",
            PeerHealth::Dead => "dead",
        }
    }
}

/// A state-machine or queue event, drained by the node for journaling.
#[derive(Debug, Clone, PartialEq, Eq)]
pub(crate) enum SyncEvent {
    /// A peer was heard from for the first time.
    PeerDiscovered {
        /// The newly discovered peer.
        peer: KalisId,
    },
    /// A peer moved between health states.
    Health {
        /// The peer whose health changed.
        peer: KalisId,
        /// The state it left.
        from: PeerHealth,
        /// The state it entered.
        to: PeerHealth,
    },
    /// The bounded outbound queue dropped knowggets (oldest first).
    QueueOverflow {
        /// The peer whose queue overflowed.
        peer: KalisId,
        /// Knowggets discarded with the evicted frames.
        dropped: u64,
    },
    /// The node entered degraded local-only mode.
    DegradedEntered {
        /// What triggered the transition (`all peers dead`, `sync
        /// backlog overflow`).
        reason: String,
    },
    /// The node left degraded mode.
    DegradedExited {
        /// Live peers at the moment of recovery.
        healthy: u64,
    },
    /// A peer silent far past its TTL was forgotten entirely: its link
    /// state is freed and it will be treated as brand new (full
    /// re-sync) if ever heard from again. Without this sweep every
    /// identity that ever beaconed holds link state forever.
    PeerExpired {
        /// The expired peer.
        peer: KalisId,
    },
}

/// One sealed frame ready for the transport, with bookkeeping for
/// telemetry.
#[derive(Debug, Clone)]
// kalis-lint: allow(KL306): named by the `pub` signature of `SyncPoll::frames`
pub struct SyncTransmit {
    /// The peer this frame is for (receivers self-select on broadcast
    /// transports; the id is bookkeeping).
    pub to: KalisId,
    /// The sealed envelope.
    pub bytes: Vec<u8>,
    /// Envelope sequence number.
    pub seq: u64,
    /// Whether this is a retransmission (attempt > 1).
    pub(crate) retransmit: bool,
    /// Knowggets carried (0 for acks).
    pub knowggets: u64,
}

/// What a received frame turned out to be.
#[derive(Debug, Clone, PartialEq)]
pub(crate) enum ReceiptKind {
    /// A first-seen data frame; apply the message to the KB.
    Fresh(SyncMessage),
    /// A replayed or duplicated data frame; already applied, re-acked.
    Duplicate,
    /// An acknowledgement for one of our own data frames.
    Ack {
        /// False when the seq was no longer pending (stale ack).
        acked: bool,
    },
}

/// The outcome of [`CollectiveSync::receive`].
#[derive(Debug, Clone, PartialEq)]
pub(crate) struct Receipt {
    /// The authenticated sender.
    pub from: KalisId,
    /// The envelope sequence number.
    pub seq: u64,
    /// What the frame was.
    pub kind: ReceiptKind,
    /// A sealed ack to send back (data frames only — fresh *and*
    /// duplicate, so a lost ack does not retransmit forever).
    pub reply: Option<Vec<u8>>,
}

#[derive(Debug)]
struct Pending {
    seq: u64,
    knowggets: Vec<Knowgget>,
    /// Transmissions so far (0 = not yet sent).
    attempts: u32,
    next_due: Timestamp,
}

#[derive(Debug)]
struct PeerLink {
    health: PeerHealth,
    last_heard: Timestamp,
    next_seq: u64,
    pending: VecDeque<Pending>,
    /// All seqs below this have been seen (receive side).
    rx_floor: u64,
    /// Seen seqs at or above the floor, bounded by [`DEDUP_WINDOW`].
    rx_seen: BTreeSet<u64>,
    /// Owe this peer a full collective-state snapshot (new peer, or
    /// recovered from Dead, or data lost to the drop policy).
    needs_resync: bool,
}

impl PeerLink {
    /// A link whose frames count up from `first_seq`.
    fn new(now: Timestamp, first_seq: u64) -> Self {
        PeerLink {
            health: PeerHealth::Healthy,
            last_heard: now,
            next_seq: first_seq,
            pending: VecDeque::new(),
            rx_floor: 0,
            rx_seen: BTreeSet::new(),
            needs_resync: true,
        }
    }
}

/// The fault-tolerant sync engine for one Kalis node. Owns the secure
/// channel and all per-peer link state; the node feeds it beacons,
/// dirty knowggets, received frames, and the capture clock, and drains
/// frames to transmit plus events to journal.
pub(crate) struct CollectiveSync {
    local: KalisId,
    channel: Box<dyn SecureChannel>,
    config: SyncConfig,
    links: BTreeMap<KalisId, PeerLink>,
    /// Where a link created from now on starts numbering its frames:
    /// past every seq an expired link used. A peer may still hold its
    /// receive window for this node's old link, and would drop a
    /// recreated link's frames, its full re-sync first, as replays if
    /// they counted from 0 again.
    next_link_seq: u64,
    events: Vec<SyncEvent>,
    degraded: bool,
    /// Every peer was Dead when last there were any: no peer has been
    /// heard since. Outlives the links, so that expiring the last Dead
    /// peer does not end degraded mode while the node is still cut off.
    cut_off: bool,
    backlog_overflowed: bool,
    last_beacon: Option<Timestamp>,
}

impl core::fmt::Debug for CollectiveSync {
    fn fmt(&self, f: &mut core::fmt::Formatter<'_>) -> core::fmt::Result {
        f.debug_struct("CollectiveSync")
            .field("local", &self.local)
            .field("config", &self.config)
            .field("peers", &self.links.len())
            .field("degraded", &self.degraded)
            .finish()
    }
}

impl CollectiveSync {
    /// An engine for `local`, sealing through `channel`.
    pub fn new(local: KalisId, channel: Box<dyn SecureChannel>, config: SyncConfig) -> Self {
        CollectiveSync {
            local,
            channel,
            config,
            links: BTreeMap::new(),
            next_link_seq: 0,
            events: Vec::new(),
            degraded: false,
            cut_off: false,
            backlog_overflowed: false,
            last_beacon: None,
        }
    }

    /// The active tunables.
    pub fn config(&self) -> &SyncConfig {
        &self.config
    }

    /// Whether the node should broadcast its beacon now (and mark it
    /// done).
    pub(crate) fn beacon_due(&mut self, now: Timestamp) -> bool {
        let due = match self.last_beacon {
            Some(last) => now.saturating_since(last) >= self.config.beacon_interval,
            None => true,
        };
        if due {
            self.last_beacon = Some(now);
        }
        due
    }

    /// Record a beacon (or any other liveness proof) from `peer`.
    /// Returns whether the peer is newly discovered.
    pub(crate) fn observe_peer(&mut self, peer: &KalisId, now: Timestamp) -> bool {
        if *peer == self.local {
            return false;
        }
        let newly = self.mark_alive(peer, now);
        self.update_degraded(now);
        newly
    }

    /// Health of `peer`, if known.
    pub fn peer_health(&self, peer: &KalisId) -> Option<PeerHealth> {
        self.links.get(peer).map(|l| l.health)
    }

    /// Known peers with their health.
    pub fn peers(&self) -> Vec<(KalisId, PeerHealth)> {
        self.links
            .iter()
            .map(|(id, l)| (id.clone(), l.health))
            .collect()
    }

    /// Peers currently Healthy.
    pub fn healthy_peers(&self) -> usize {
        self.links
            .values()
            .filter(|l| l.health == PeerHealth::Healthy)
            .count()
    }

    /// Whether the node is in degraded local-only mode.
    pub fn degraded(&self) -> bool {
        self.degraded
    }

    /// Peers owed a full collective-state re-sync; clears the flags.
    /// The caller enqueues a snapshot per returned peer via
    /// [`CollectiveSync::enqueue_to`].
    pub(crate) fn take_resync_peers(&mut self) -> Vec<KalisId> {
        self.links
            .iter_mut()
            .filter(|(_, l)| l.needs_resync && l.health != PeerHealth::Dead)
            .map(|(id, l)| {
                l.needs_resync = false;
                id.clone()
            })
            .collect()
    }

    /// Queue `knowggets` for every non-Dead peer, chunked to the wire
    /// cap.
    pub(crate) fn enqueue_broadcast(&mut self, knowggets: &[Knowgget], now: Timestamp) {
        let targets: Vec<KalisId> = self
            .links
            .iter()
            .filter(|(_, l)| l.health != PeerHealth::Dead)
            .map(|(id, _)| id.clone())
            .collect();
        for peer in targets {
            self.enqueue_to(&peer, knowggets.to_vec(), now);
        }
    }

    /// Queue `knowggets` for one peer, chunked to the wire cap, applying
    /// the drop-oldest policy when the bounded queue is full.
    pub(crate) fn enqueue_to(&mut self, peer: &KalisId, knowggets: Vec<Knowgget>, now: Timestamp) {
        if knowggets.is_empty() || *peer == self.local {
            return;
        }
        let Some(link) = self.links.get_mut(peer) else {
            return;
        };
        if link.health == PeerHealth::Dead {
            return;
        }
        let mut dropped: u64 = 0;
        for chunk in knowggets.chunks(MAX_SYNC_KNOWGGETS) {
            if link.pending.len() >= QUEUE_CAPACITY {
                // Explicit drop policy: discard the oldest frame; the
                // peer will be made whole by a full re-sync.
                if let Some(old) = link.pending.pop_front() {
                    dropped += old.knowggets.len() as u64;
                }
                link.needs_resync = true;
            }
            let seq = link.next_seq;
            link.next_seq += 1;
            link.pending.push_back(Pending {
                seq,
                knowggets: chunk.to_vec(),
                attempts: 0,
                next_due: now,
            });
        }
        if dropped > 0 {
            self.backlog_overflowed = true;
            self.events.push(SyncEvent::QueueOverflow {
                peer: peer.clone(),
                dropped,
            });
        }
        self.update_degraded(now);
    }

    /// Advance the engine to `now`: decay health from beacon silence,
    /// escalate unacked frames, and return every frame due for (re-)
    /// transmission.
    pub fn poll(&mut self, now: Timestamp) -> Vec<SyncTransmit> {
        self.decay(now);
        let mut out = Vec::new();
        let local = self.local.clone();
        let mut transitions: Vec<(KalisId, PeerHealth)> = Vec::new();
        for (peer, link) in &mut self.links {
            if link.health == PeerHealth::Dead {
                continue;
            }
            let mut escalate_dead = false;
            let mut escalate_suspect = false;
            for frame in &mut link.pending {
                if frame.next_due > now {
                    continue;
                }
                if frame.attempts >= MAX_ATTEMPTS * 2 {
                    escalate_dead = true;
                    break;
                }
                if frame.attempts >= MAX_ATTEMPTS {
                    escalate_suspect = true;
                }
                frame.attempts += 1;
                frame.next_due =
                    now + capped_doubling(RETRANSMIT_BASE, frame.attempts, RETRANSMIT_MAX);
                let payload = SyncMessage::wire_len(&local, &frame.knowggets);
                let mut bytes = Self::envelope(KIND_DATA, frame.seq, payload);
                SyncMessage::encode_into(&local, &frame.knowggets, &mut bytes);
                self.channel.seal_in_place(&mut bytes);
                out.push(SyncTransmit {
                    to: peer.clone(),
                    bytes,
                    seq: frame.seq,
                    retransmit: frame.attempts > 1,
                    knowggets: frame.knowggets.len() as u64,
                });
            }
            if escalate_dead {
                // The peer never acked through the full backoff schedule:
                // declare it Dead and discard its queue (recovery re-syncs
                // the full state anyway).
                link.pending.clear();
                link.needs_resync = true;
                transitions.push((peer.clone(), PeerHealth::Dead));
            } else if escalate_suspect && link.health == PeerHealth::Healthy {
                transitions.push((peer.clone(), PeerHealth::Suspect));
            }
        }
        for (peer, to) in transitions {
            self.set_health(&peer, to);
        }
        if self.backlog_overflowed
            && self
                .links
                .values()
                .all(|l| l.pending.len() <= QUEUE_CAPACITY / 2)
        {
            self.backlog_overflowed = false;
        }
        self.update_degraded(now);
        out
    }

    /// Open and classify a sealed frame.
    ///
    /// Any authenticated frame refreshes the sender's liveness. Data
    /// frames are deduplicated against the bounded replay window and
    /// answered with an ack either way.
    ///
    /// # Errors
    ///
    /// Returns a description when authentication fails or the envelope
    /// or payload is malformed.
    pub(crate) fn receive(&mut self, sealed: &[u8], now: Timestamp) -> Result<Receipt, String> {
        let plain = self
            .channel
            .open(sealed)
            .ok_or_else(|| "authentication failed".to_owned())?;
        if plain.len() < ENVELOPE_HEADER {
            return Err("truncated envelope".to_owned());
        }
        if plain[0] != ENVELOPE_VERSION {
            return Err(format!("unsupported envelope version {}", plain[0]));
        }
        let kind = plain[1];
        let seq = u64::from_be_bytes(plain[2..10].try_into().expect("8 bytes"));
        let payload = &plain[ENVELOPE_HEADER..];
        match kind {
            KIND_DATA => {
                let message = SyncMessage::decode_payload(payload)?;
                let from = message.from.clone();
                if from == self.local {
                    // Broadcast transports echo our own frames back.
                    return Ok(Receipt {
                        from,
                        seq,
                        kind: ReceiptKind::Duplicate,
                        reply: None,
                    });
                }
                self.mark_alive(&from, now);
                let duplicate = !self.note_received(&from, seq);
                let local = self.local.as_str();
                let mut ack = Self::envelope(KIND_ACK, seq, 2 + local.len());
                SyncMessage::put_str(&mut ack, local);
                self.channel.seal_in_place(&mut ack);
                let reply = Some(ack);
                self.update_degraded(now);
                Ok(Receipt {
                    from,
                    seq,
                    kind: if duplicate {
                        ReceiptKind::Duplicate
                    } else {
                        ReceiptKind::Fresh(message)
                    },
                    reply,
                })
            }
            KIND_ACK => {
                let mut pos = 0;
                let from = SyncMessage::get_str(payload, &mut pos)
                    .and_then(|id| KalisId::try_new(id).ok())
                    .ok_or("truncated ack sender")?;
                if from == self.local {
                    return Ok(Receipt {
                        from,
                        seq,
                        kind: ReceiptKind::Ack { acked: false },
                        reply: None,
                    });
                }
                self.mark_alive(&from, now);
                let acked = self
                    .links
                    .get_mut(&from)
                    .map(|link| {
                        let before = link.pending.len();
                        link.pending.retain(|p| p.seq != seq);
                        link.pending.len() != before
                    })
                    .unwrap_or(false);
                self.update_degraded(now);
                Ok(Receipt {
                    from,
                    seq,
                    kind: ReceiptKind::Ack { acked },
                    reply: None,
                })
            }
            other => Err(format!("unknown envelope kind {other}")),
        }
    }

    /// Drain accumulated state-machine events for journaling.
    pub(crate) fn drain_events(&mut self) -> Vec<SyncEvent> {
        std::mem::take(&mut self.events)
    }

    /// An envelope's header, in a buffer with room for a `payload`-byte
    /// payload and the channel's tag, to be sealed in place.
    fn envelope(kind: u8, seq: u64, payload: usize) -> Vec<u8> {
        let mut plain = Vec::with_capacity(ENVELOPE_HEADER + payload + SEAL_ROOM);
        plain.push(ENVELOPE_VERSION);
        plain.push(kind);
        plain.extend_from_slice(&seq.to_be_bytes());
        plain
    }

    /// Refresh liveness for `peer`, creating the link if unknown.
    /// Returns whether the peer is newly discovered.
    fn mark_alive(&mut self, peer: &KalisId, now: Timestamp) -> bool {
        if let Some(link) = self.links.get_mut(peer) {
            link.last_heard = link.last_heard.max(now);
            if link.health != PeerHealth::Healthy {
                if link.health == PeerHealth::Dead {
                    // Clean reintegration: a recovered peer gets the full
                    // collective state, not just future deltas.
                    link.needs_resync = true;
                }
                self.set_health(peer, PeerHealth::Healthy);
            }
            false
        } else {
            let link = PeerLink::new(now, self.next_link_seq);
            self.links.insert(peer.clone(), link);
            self.events
                .push(SyncEvent::PeerDiscovered { peer: peer.clone() });
            true
        }
    }

    /// Record a received data seq. Returns `true` when first-seen.
    fn note_received(&mut self, peer: &KalisId, seq: u64) -> bool {
        let Some(link) = self.links.get_mut(peer) else {
            return true;
        };
        if seq < link.rx_floor || link.rx_seen.contains(&seq) {
            return false;
        }
        link.rx_seen.insert(seq);
        // Compress the contiguous prefix into the floor.
        while link.rx_seen.remove(&link.rx_floor) {
            link.rx_floor += 1;
        }
        // Bound the window: evicting the lowest tracked seq raises the
        // floor past it, trading a sliver of replay precision for O(1)
        // memory.
        while link.rx_seen.len() > DEDUP_WINDOW {
            if let Some(lowest) = link.rx_seen.iter().next().copied() {
                link.rx_seen.remove(&lowest);
                link.rx_floor = link.rx_floor.max(lowest + 1);
            }
        }
        true
    }

    /// Downgrade health from beacon silence.
    fn decay(&mut self, now: Timestamp) {
        let ttl = self.config.peer_ttl;
        let mut transitions: Vec<(KalisId, PeerHealth)> = Vec::new();
        for (peer, link) in &self.links {
            let silent = now.saturating_since(link.last_heard);
            let target = if silent > ttl * 2 {
                PeerHealth::Dead
            } else if silent > ttl {
                PeerHealth::Suspect
            } else {
                continue;
            };
            if target > link.health {
                transitions.push((peer.clone(), target));
            }
        }
        for (peer, to) in transitions {
            if to == PeerHealth::Dead {
                if let Some(link) = self.links.get_mut(&peer) {
                    link.pending.clear();
                    link.needs_resync = true;
                }
            }
            self.set_health(&peer, to);
        }
        // Dead long past any recovery horizon (4× the TTL of silence):
        // forget the link entirely so the ledger stays bounded even
        // against beacon-forging adversaries. An expired peer that
        // returns is rediscovered and fully re-synced like a new one.
        let horizon = ttl * 4;
        let expired: Vec<KalisId> = self
            .links
            .iter()
            .filter(|(_, l)| {
                l.health == PeerHealth::Dead && now.saturating_since(l.last_heard) > horizon
            })
            .map(|(p, _)| p.clone())
            .collect();
        for peer in expired {
            if let Some(link) = self.links.remove(&peer) {
                self.next_link_seq = self.next_link_seq.max(link.next_seq);
            }
            self.events.push(SyncEvent::PeerExpired { peer });
        }
    }

    fn set_health(&mut self, peer: &KalisId, to: PeerHealth) {
        let Some(link) = self.links.get_mut(peer) else {
            return;
        };
        let from = link.health;
        if from == to {
            return;
        }
        link.health = to;
        self.events.push(SyncEvent::Health {
            peer: peer.clone(),
            from,
            to,
        });
    }

    fn update_degraded(&mut self, _now: Timestamp) {
        // An empty ledger keeps the last verdict: a node whose last Dead
        // peer expired has heard nobody since, and one that never had a
        // peer was never cut off.
        if !self.links.is_empty() {
            self.cut_off = self.links.values().all(|l| l.health == PeerHealth::Dead);
        }
        let should = self.cut_off || self.backlog_overflowed;
        if should == self.degraded {
            return;
        }
        self.degraded = should;
        if should {
            let reason = if self.cut_off {
                "all peers dead".to_owned()
            } else {
                "sync backlog overflow".to_owned()
            };
            self.events.push(SyncEvent::DegradedEntered { reason });
        } else {
            self.events.push(SyncEvent::DegradedExited {
                healthy: self.healthy_peers() as u64,
            });
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::knowledge::{KnowValue, XorChannel};

    const KEY: u64 = 0x6b616c6973;

    fn engine(id: &str) -> CollectiveSync {
        CollectiveSync::new(
            KalisId::new(id),
            Box::new(XorChannel::new(KEY)),
            SyncConfig::default(),
        )
    }

    fn kg(label: &str, creator: &str) -> Knowgget {
        Knowgget::new(label, KnowValue::Bool(true), KalisId::new(creator))
    }

    fn secs(s: u64) -> Timestamp {
        Timestamp::from_secs(s)
    }

    #[test]
    fn ack_stops_retransmission() {
        let mut a = engine("K1");
        let mut b = engine("K2");
        let now = secs(1);
        a.observe_peer(&KalisId::new("K2"), now);
        a.take_resync_peers();
        a.enqueue_to(&KalisId::new("K2"), vec![kg("Mobile", "K1")], now);

        let frames = a.poll(now);
        assert_eq!(frames.len(), 1);
        assert!(!frames[0].retransmit);

        let receipt = b.receive(&frames[0].bytes, now).unwrap();
        let ReceiptKind::Fresh(msg) = &receipt.kind else {
            panic!("expected fresh data, got {:?}", receipt.kind);
        };
        assert_eq!(msg.from, KalisId::new("K1"));
        let ack = receipt.reply.expect("data frames are acked");

        let ack_receipt = a.receive(&ack, now).unwrap();
        assert_eq!(ack_receipt.kind, ReceiptKind::Ack { acked: true });
        // Nothing left to retransmit, even far in the future.
        assert!(a.poll(secs(100)).is_empty());
    }

    #[test]
    fn unacked_frames_back_off_and_retransmit() {
        let mut a = engine("K1");
        let now = secs(1);
        a.observe_peer(&KalisId::new("K2"), now);
        a.take_resync_peers();
        a.enqueue_to(&KalisId::new("K2"), vec![kg("Mobile", "K1")], now);

        assert_eq!(a.poll(now).len(), 1, "initial transmission");
        assert!(
            a.poll(now + Duration::from_millis(100)).is_empty(),
            "not due before the backoff"
        );
        let retry = a.poll(now + Duration::from_millis(600));
        assert_eq!(retry.len(), 1);
        assert!(retry[0].retransmit);
        assert_eq!(retry[0].seq, 0, "same envelope seq on retry");
    }

    #[test]
    fn silent_peers_expire_out_of_the_ledger_and_rediscover_with_resync() {
        let mut a = engine("K1");
        let k2 = KalisId::new("K2");
        a.observe_peer(&k2, secs(1));
        a.take_resync_peers();
        // Default TTL is 30 s: suspect past 30, dead past 60, gone past 120.
        a.poll(secs(70));
        assert_eq!(a.peer_health(&k2), Some(PeerHealth::Dead));
        a.poll(secs(125));
        assert_eq!(a.peer_health(&k2), None, "link forgotten past 4× TTL");
        let events = a.drain_events();
        assert!(events
            .iter()
            .any(|e| matches!(e, SyncEvent::PeerExpired { peer } if *peer == k2)));
        // Heard from again → rediscovered as brand new, owed a full re-sync.
        assert!(a.observe_peer(&k2, secs(200)));
        assert_eq!(a.take_resync_peers(), vec![k2]);
    }

    #[test]
    fn a_recreated_links_resync_gets_past_the_peers_dedup() {
        let (mut a, mut b) = (engine("K1"), engine("K2"));
        let (k1, k2) = (KalisId::new("K1"), KalisId::new("K2"));
        // Three frames K2 takes and acks: its window for K1 stands at 3.
        a.observe_peer(&k2, secs(1));
        a.take_resync_peers();
        for label in ["A", "B", "C"] {
            a.enqueue_to(&k2, vec![kg(label, "K1")], secs(1));
        }
        for frame in a.poll(secs(1)) {
            let receipt = b.receive(&frame.bytes, secs(1)).unwrap();
            assert!(matches!(receipt.kind, ReceiptKind::Fresh(_)));
            a.receive(&receipt.reply.unwrap(), secs(1)).unwrap();
        }
        // K1 hears nothing for 4× the TTL and forgets K2; K2, which
        // never polls, keeps its window for K1.
        a.poll(secs(70));
        a.poll(secs(125));
        assert_eq!(a.peer_health(&k2), None);
        assert!(b.peer_health(&k1).is_some());
        // K2 is heard again: the recreated link owes it a full re-sync,
        // and K2 takes that as fresh knowledge, not as a replay.
        assert!(a.observe_peer(&k2, secs(130)));
        assert_eq!(a.take_resync_peers(), vec![k2.clone()]);
        a.enqueue_to(&k2, vec![kg("Snapshot", "K1")], secs(130));
        let frames = a.poll(secs(130));
        assert_eq!(frames.len(), 1);
        assert_eq!(frames[0].seq, 3, "numbering goes on past the old link");
        let receipt = b.receive(&frames[0].bytes, secs(130)).unwrap();
        let ReceiptKind::Fresh(message) = receipt.kind else {
            panic!("re-sync dropped as {:?}", receipt.kind);
        };
        assert_eq!(message.knowggets[0].label, "Snapshot");
    }

    #[test]
    fn duplicates_are_dropped_and_reacked() {
        let mut a = engine("K1");
        let mut b = engine("K2");
        let now = secs(1);
        a.observe_peer(&KalisId::new("K2"), now);
        a.take_resync_peers();
        a.enqueue_to(&KalisId::new("K2"), vec![kg("Mobile", "K1")], now);
        let frames = a.poll(now);

        let first = b.receive(&frames[0].bytes, now).unwrap();
        assert!(matches!(first.kind, ReceiptKind::Fresh(_)));
        // Replay the identical sealed frame.
        let replayed = b
            .receive(&frames[0].bytes, now + Duration::from_secs(1))
            .unwrap();
        assert_eq!(replayed.kind, ReceiptKind::Duplicate);
        assert!(replayed.reply.is_some(), "duplicates still get an ack");
    }

    #[test]
    fn dedup_window_is_bounded() {
        let mut b = engine("K2");
        let peer = KalisId::new("K1");
        b.observe_peer(&peer, secs(1));
        // Contiguous seqs compress fully into the floor.
        for seq in 0..200u64 {
            assert!(b.note_received(&peer, seq));
        }
        {
            let link = b.links.get(&peer).unwrap();
            assert_eq!(link.rx_floor, 200);
            assert!(link.rx_seen.is_empty());
        }
        // A permanent gap (seq 200 never arrives) cannot grow the set
        // unboundedly: eviction raises the floor instead.
        for seq in 201..(201 + 2 * DEDUP_WINDOW as u64) {
            b.note_received(&peer, seq);
        }
        {
            let link = b.links.get(&peer).unwrap();
            assert!(link.rx_seen.len() <= DEDUP_WINDOW);
            assert!(link.rx_floor > 200, "eviction moved the floor past the gap");
        }
        // Everything below the floor still reads as duplicate.
        assert!(!b.note_received(&peer, 0));
        assert!(!b.note_received(&peer, 200));
    }

    #[test]
    fn silent_peer_decays_to_suspect_then_dead_then_degraded() {
        let mut a = engine("K1");
        a.observe_peer(&KalisId::new("K2"), secs(1));
        a.drain_events();

        a.poll(secs(40)); // > ttl (30 s) silent
        assert_eq!(
            a.peer_health(&KalisId::new("K2")),
            Some(PeerHealth::Suspect)
        );
        a.poll(secs(70)); // > 2×ttl silent
        assert_eq!(a.peer_health(&KalisId::new("K2")), Some(PeerHealth::Dead));
        assert!(a.degraded(), "all peers dead → degraded local-only mode");
        let events = a.drain_events();
        assert!(events
            .iter()
            .any(|e| matches!(e, SyncEvent::DegradedEntered { .. })));
        assert_eq!(
            events
                .iter()
                .filter(|e| matches!(e, SyncEvent::Health { .. }))
                .count(),
            2
        );
    }

    #[test]
    fn a_node_stays_degraded_after_its_last_dead_peer_expires() {
        let mut a = engine("K1");
        let k2 = KalisId::new("K2");
        a.observe_peer(&k2, secs(1));
        a.poll(secs(70));
        assert!(a.degraded());
        a.drain_events();
        // Forgotten past 4× the TTL: the ledger is empty, and still no
        // peer has been heard.
        a.poll(secs(125));
        assert_eq!(a.peer_health(&k2), None);
        assert!(a.degraded(), "cut off until a peer is heard again");
        let events = a.drain_events();
        assert!(!events
            .iter()
            .any(|e| matches!(e, SyncEvent::DegradedExited { .. })));
        // Heard again: rediscovered, and degraded mode ends.
        a.observe_peer(&k2, secs(130));
        assert!(!a.degraded());
        assert!(a
            .drain_events()
            .iter()
            .any(|e| matches!(e, SyncEvent::DegradedExited { healthy: 1 })));
        // A node that never had a peer was never cut off.
        assert!(!engine("K3").degraded());
    }

    #[test]
    fn recovered_peer_is_reintegrated_with_resync() {
        let mut a = engine("K1");
        a.observe_peer(&KalisId::new("K2"), secs(1));
        a.take_resync_peers();
        a.poll(secs(70));
        assert!(a.degraded());
        a.drain_events();

        // The peer beacons again.
        a.observe_peer(&KalisId::new("K2"), secs(71));
        assert_eq!(
            a.peer_health(&KalisId::new("K2")),
            Some(PeerHealth::Healthy)
        );
        assert!(!a.degraded(), "a live peer exits degraded mode");
        assert_eq!(
            a.take_resync_peers(),
            vec![KalisId::new("K2")],
            "recovery owes the peer a full re-sync"
        );
        let events = a.drain_events();
        assert!(events
            .iter()
            .any(|e| matches!(e, SyncEvent::DegradedExited { healthy: 1 })));
    }

    #[test]
    fn unacked_syncs_escalate_health() {
        let mut a = engine("K1");
        let peer = KalisId::new("K2");
        let mut now = secs(1);
        a.observe_peer(&peer, now);
        a.take_resync_peers();
        a.enqueue_to(&peer, vec![kg("Mobile", "K1")], now);
        a.drain_events();

        // Never ack; also keep beacons fresh so only unacked-sync decay
        // drives the transitions.
        for _ in 0..40 {
            now += Duration::from_secs(5);
            a.observe_peer(&peer, now);
            a.poll(now);
            if a.peer_health(&peer) == Some(PeerHealth::Dead) {
                break;
            }
        }
        assert_eq!(a.peer_health(&peer), Some(PeerHealth::Dead));
        let events = a.drain_events();
        let healths: Vec<_> = events
            .iter()
            .filter_map(|e| match e {
                SyncEvent::Health { to, .. } => Some(*to),
                _ => None,
            })
            .collect();
        assert!(healths.contains(&PeerHealth::Suspect));
        assert!(healths.contains(&PeerHealth::Dead));
    }

    #[test]
    fn bounded_queue_drops_oldest_and_latches_degraded() {
        let mut a = engine("K1");
        let peer = KalisId::new("K2");
        let now = secs(1);
        a.observe_peer(&peer, now);
        a.take_resync_peers();
        a.drain_events();

        for i in 0..(QUEUE_CAPACITY + 5) {
            a.enqueue_to(&peer, vec![kg(&format!("L{i}"), "K1")], now);
        }
        let link = a.links.get(&peer).unwrap();
        assert_eq!(link.pending.len(), QUEUE_CAPACITY, "queue stays bounded");
        assert!(link.needs_resync, "dropped data forces a re-sync");
        assert!(a.degraded(), "backlog overflow → degraded");
        let events = a.drain_events();
        let dropped: u64 = events
            .iter()
            .filter_map(|e| match e {
                SyncEvent::QueueOverflow { dropped, .. } => Some(*dropped),
                _ => None,
            })
            .sum();
        assert_eq!(dropped, 5);

        // Draining the queue (acks) clears the latch on the next poll.
        let frames = a.poll(now);
        let mut b = engine("K2");
        for f in &frames {
            let r = b.receive(&f.bytes, now).unwrap();
            a.receive(&r.reply.unwrap(), now).unwrap();
        }
        a.poll(now + Duration::from_secs(1));
        assert!(!a.degraded(), "drained backlog exits degraded mode");
    }

    #[test]
    fn beacon_cadence_follows_config() {
        let mut a = engine("K1");
        assert!(a.beacon_due(secs(0)), "first call always due");
        assert!(!a.beacon_due(secs(5)));
        assert!(a.beacon_due(secs(10)), "default interval is ttl/3 = 10 s");
    }

    #[test]
    fn own_frames_echoed_back_are_ignored() {
        let mut a = engine("K1");
        let now = secs(1);
        a.observe_peer(&KalisId::new("K2"), now);
        a.take_resync_peers();
        a.enqueue_to(&KalisId::new("K2"), vec![kg("Mobile", "K1")], now);
        let frames = a.poll(now);
        // A broadcast medium echoes our own frame back at us.
        let receipt = a.receive(&frames[0].bytes, now).unwrap();
        assert_eq!(receipt.kind, ReceiptKind::Duplicate);
        assert!(receipt.reply.is_none(), "never ack ourselves");
        assert!(
            a.peer_health(&KalisId::new("K1")).is_none(),
            "no self-link created"
        );
    }

    #[test]
    fn corrupted_envelopes_are_rejected_not_panicked() {
        let mut a = engine("K1");
        let mut b = engine("K2");
        let now = secs(1);
        a.observe_peer(&KalisId::new("K2"), now);
        a.take_resync_peers();
        a.enqueue_to(&KalisId::new("K2"), vec![kg("Mobile", "K1")], now);
        let mut bytes = a.poll(now).remove(0).bytes;
        bytes[2] ^= 0xff;
        assert!(b.receive(&bytes, now).is_err());
        assert!(b.receive(&[], now).is_err());
        assert!(b.receive(&[1, 2, 3], now).is_err());
    }

    #[test]
    fn large_batches_are_chunked_to_the_wire_cap() {
        let mut a = engine("K1");
        let peer = KalisId::new("K2");
        let now = secs(1);
        a.observe_peer(&peer, now);
        a.take_resync_peers();
        let batch: Vec<Knowgget> = (0..MAX_SYNC_KNOWGGETS + 10)
            .map(|i| kg(&format!("L{i}"), "K1"))
            .collect();
        a.enqueue_to(&peer, batch, now);
        let frames = a.poll(now);
        assert_eq!(frames.len(), 2);
        assert_eq!(frames[0].knowggets, MAX_SYNC_KNOWGGETS as u64);
        assert_eq!(frames[1].knowggets, 10);
    }
}
