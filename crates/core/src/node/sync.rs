//! The node's side of knowledge sharing (paper §IV-B3): two endpoints
//! over one Knowledge Base.
//!
//! The fault-tolerant one ([`Kalis::observe_beacon`] /
//! [`Kalis::sync_poll`] / [`Kalis::receive_sync_frame`]) drives the
//! [`CollectiveSync`] engine — beacons, acks, retransmission, peer
//! health — and turns its state-machine events into journal records
//! and the `DegradedMode` knowgget. It is the one every harness
//! drives: `kalis_bench::runner::run_nodes` carries the beacons of any
//! number of nodes to every other node, and each frame and ack to the
//! peer it names, over a `kalis_netsim::wire::Wire`, lossless for
//! Fig. 8, §VI-D and the scenario files, faulty for the chaos runs.
//!
//! The one-shot pair ([`Kalis::collective_outbox`] /
//! [`Kalis::accept_sync`]) hands a plain message to a caller that moves
//! it. Only the benchmark's `Cluster`, the `kb_ops` and `pipeline`
//! micro-benches, the allocation pins and unit tests still call it.

use std::sync::Arc;

use kalis_packets::Timestamp;
use kalis_telemetry::{names, Counter, JournalEvent, Telemetry, TraceContext};

use crate::error::KalisError;
use crate::id::KalisId;
use crate::knowledge::{
    CollectiveSync, KnowKey, PeerBeacon, PeerHealth, ReceiptKind, SyncEvent, SyncMessage,
    SyncTransmit, DEGRADED_LABEL,
};

use super::Kalis;

/// Outbound sync work produced by one [`Kalis::sync_poll`] pass.
#[derive(Debug, Default)]
// kalis-lint: allow(KL306): named by the `pub` signature of `Kalis::sync_poll`
pub struct SyncPoll {
    /// This node's beacon, when the configured cadence says it is due.
    pub beacon: Option<PeerBeacon>,
    /// Sealed frames (first transmissions, retransmissions, and
    /// full-resync snapshots) ready for the transport.
    pub frames: Vec<SyncTransmit>,
}

/// The outcome of [`Kalis::receive_sync_frame`].
#[derive(Debug)]
// kalis-lint: allow(KL306): named by the `pub` signature of `Kalis::receive_sync_frame`
pub struct SyncReceipt {
    /// The authenticated sender.
    pub from: KalisId,
    /// Knowggets applied to the Knowledge Base (0 for acks and
    /// duplicates).
    pub accepted: usize,
    /// Whether the frame was a replay/duplicate dropped by dedup.
    pub duplicate: bool,
    /// A sealed ack to hand back to the transport, when the frame
    /// warrants one.
    pub reply: Option<Vec<u8>>,
}

/// The sync box's state: the fault-tolerant engine and the instrument
/// handles, cached at build time, that account for its traffic and its
/// peers.
pub(super) struct SyncLink {
    pub(super) engine: CollectiveSync,
    sent: Arc<Counter>,
    accepted: Arc<Counter>,
    rejected: Arc<Counter>,
    bytes_out: Arc<Counter>,
    bytes_in: Arc<Counter>,
    knowggets_out: Arc<Counter>,
    knowggets_in: Arc<Counter>,
    retransmits: Arc<Counter>,
    duplicates: Arc<Counter>,
    queue_dropped: Arc<Counter>,
    peers_expired: Arc<Counter>,
}

impl SyncLink {
    pub(super) fn new(engine: CollectiveSync, registry: &Telemetry) -> Self {
        SyncLink {
            engine,
            sent: registry.counter(names::SYNC_SENT),
            accepted: registry.counter(names::SYNC_ACCEPTED),
            rejected: registry.counter(names::SYNC_REJECTED),
            bytes_out: registry.counter(names::SYNC_BYTES_OUT),
            bytes_in: registry.counter(names::SYNC_BYTES_IN),
            knowggets_out: registry.counter(names::SYNC_KNOWGGETS_OUT),
            knowggets_in: registry.counter(names::SYNC_KNOWGGETS_IN),
            retransmits: registry.counter(names::SYNC_RETRANSMITS),
            duplicates: registry.counter(names::SYNC_DUPLICATES),
            queue_dropped: registry.counter(names::SYNC_QUEUE_DROPPED),
            peers_expired: registry.counter(names::PEERS_EXPIRED),
        }
    }

    /// Count and journal one first transmission to `peer` (`*` for a
    /// broadcast); retransmissions are counted apart.
    fn sent(&self, tele: &Telemetry, time_us: u64, peer: String, knowggets: u64, bytes: u64) {
        self.sent.inc();
        self.knowggets_out.add(knowggets);
        self.bytes_out.add(bytes);
        let event = JournalEvent::SyncSent {
            peer,
            knowggets,
            bytes,
        };
        tele.journal().record(time_us, event);
    }

    /// Count and journal a rejected frame or message from `peer`, and
    /// say why as the error to return.
    fn rejected(&self, tele: &Telemetry, time_us: u64, peer: String, reason: String) -> KalisError {
        self.rejected.inc();
        let event = JournalEvent::SyncRejected {
            peer: peer.clone(),
            reason: reason.clone(),
        };
        tele.journal().record(time_us, event);
        KalisError::SyncRejected { peer, reason }
    }
}

impl Kalis {
    /// Collect this node's changed collective knowggets as a sync message
    /// for its peers, if any changed.
    pub fn collective_outbox(&mut self) -> Option<SyncMessage> {
        let dirty = self.kb.drain_dirty_collective();
        if dirty.is_empty() {
            return None;
        }
        let message = SyncMessage::new(self.id.clone(), dirty);
        let knowggets = message.knowggets.len() as u64;
        let bytes = message.encoded_len() as u64;
        let time_us = self.capture_time_us();
        (self.sync).sent(&self.tele, time_us, "*".to_owned(), knowggets, bytes);
        Some(message)
    }

    /// Accept a peer's sync message, enforcing creator ownership.
    ///
    /// # Errors
    ///
    /// Returns [`KalisError::SyncRejected`] when any knowgget violates the
    /// ownership rule; accepted knowggets before the violation are kept,
    /// counted, and acted on as an accepted message's are.
    /// The message is journaled, and acts on the Module Manager, at the
    /// node's last tick: a one-shot exchange has no instant of its own.
    pub fn accept_sync(&mut self, message: SyncMessage) -> Result<usize, KalisError> {
        let bytes = message.encoded_len() as u64;
        let now = self.last_tick.unwrap_or(Timestamp::ZERO);
        self.accept(message, bytes, now)
    }

    /// [`Kalis::accept_sync`] for a message that took `bytes` to carry,
    /// journaled and acted on at `now`.
    fn accept(
        &mut self,
        message: SyncMessage,
        bytes: u64,
        now: Timestamp,
    ) -> Result<usize, KalisError> {
        let result = self.apply_sync(message, bytes, now.as_micros());
        if self.reconfigure_due() {
            self.reconfigure_on_changes(now);
        }
        result
    }

    /// [`Kalis::accept`] up to its reconfiguration pass.
    fn apply_sync(
        &mut self,
        message: SyncMessage,
        bytes: u64,
        time_us: u64,
    ) -> Result<usize, KalisError> {
        let sender = message.from.to_string();
        self.sync.bytes_in.add(bytes);
        let trace_enabled = self.tracer.enabled();
        let mut accepted = 0;
        for knowgget in message.knowggets {
            // Capture the wire-carried provenance before the knowgget is
            // consumed, so an accepted contribution can be recorded
            // against its *originating* node's trace.
            let traced = trace_enabled
                .then(|| knowgget.origin.clone().filter(|o| o.trace_id != 0))
                .flatten()
                .map(|origin| {
                    let key = KnowKey {
                        creator: knowgget.creator.clone(),
                        label: knowgget.label.clone(),
                        entity: knowgget.entity.clone(),
                    };
                    (origin, key.encode())
                });
            match self.kb.accept_remote(&message.from, knowgget) {
                Ok(true) => {
                    accepted += 1;
                    if let Some((origin, encoded)) = traced {
                        let ctx = TraceContext {
                            trace_id: origin.trace_id,
                            span_id: origin.span_id,
                            sampled: self.tracer.sample_rate().decide(origin.trace_id),
                        };
                        self.tracer.record(
                            &ctx,
                            0,
                            time_us,
                            format!("sync.accept:{encoded}"),
                            self.id.as_str(),
                            format!("from {sender} written by {}", origin.module),
                        );
                    }
                }
                Ok(false) => {}
                Err(reason) => {
                    self.sync.knowggets_in.add(accepted as u64);
                    return Err(self.sync.rejected(&self.tele, time_us, sender, reason));
                }
            }
        }
        self.sync.accepted.inc();
        self.sync.knowggets_in.add(accepted as u64);
        self.tele.journal().record(
            time_us,
            JournalEvent::SyncAccepted {
                peer: sender,
                knowggets: accepted as u64,
                bytes,
            },
        );
        Ok(accepted)
    }

    /// Record a peer beacon heard on the local network. Returns whether
    /// the peer is newly discovered (a new peer is owed a full
    /// collective-state re-sync on the next [`Kalis::sync_poll`]).
    pub fn observe_beacon(&mut self, beacon: &PeerBeacon, now: Timestamp) -> bool {
        let newly = self.sync.engine.observe_peer(&beacon.from, now);
        self.apply_sync_events(now);
        newly
    }

    /// Drive the fault-tolerant sync engine one step: emit this node's
    /// beacon when due, queue full-state snapshots for peers owed a
    /// re-sync, broadcast freshly-dirty collective knowggets, and return
    /// every sealed frame due for (re-)transmission.
    pub fn sync_poll(&mut self, now: Timestamp) -> SyncPoll {
        let engine = &mut self.sync.engine;
        let beacon = engine.beacon_due(now).then(|| PeerBeacon {
            from: self.id.clone(),
        });
        for peer in engine.take_resync_peers() {
            let snapshot = self.kb.collective_knowggets();
            engine.enqueue_to(&peer, snapshot, now);
        }
        let dirty = self.kb.drain_dirty_collective();
        if !dirty.is_empty() {
            engine.enqueue_broadcast(&dirty, now);
        }
        let frames = engine.poll(now);
        for frame in &frames {
            let bytes = frame.bytes.len() as u64;
            if frame.retransmit {
                self.sync.retransmits.inc();
                self.sync.bytes_out.add(bytes);
            } else {
                let peer = frame.to.to_string();
                (self.sync).sent(&self.tele, now.as_micros(), peer, frame.knowggets, bytes);
            }
        }
        self.apply_sync_events(now);
        SyncPoll { beacon, frames }
    }

    /// Open a sealed sync frame from the transport: acks settle pending
    /// retransmissions, fresh data is applied to the Knowledge Base under
    /// the ownership rule, and replays are dropped (but re-acked).
    ///
    /// # Errors
    ///
    /// [`KalisError::SyncRejected`] when authentication or decoding fails
    /// (peer `"unknown"` if the sender was unreadable) or when a knowgget
    /// violates the ownership rule.
    pub fn receive_sync_frame(
        &mut self,
        sealed: &[u8],
        now: Timestamp,
    ) -> Result<SyncReceipt, KalisError> {
        let result = match self.sync.engine.receive(sealed, now) {
            Err(reason) => {
                let (time_us, peer) = (now.as_micros(), "unknown".to_owned());
                Err((self.sync).rejected(&self.tele, time_us, peer, reason))
            }
            Ok(receipt) => {
                let settled = SyncReceipt {
                    from: receipt.from,
                    accepted: 0,
                    duplicate: false,
                    reply: receipt.reply,
                };
                match receipt.kind {
                    // Counted in sealed bytes, as `sync_poll` counts
                    // what it sends.
                    ReceiptKind::Fresh(message) => (self.accept(message, sealed.len() as u64, now))
                        .map(|accepted| SyncReceipt {
                            accepted,
                            ..settled
                        }),
                    ReceiptKind::Duplicate => {
                        self.sync.duplicates.inc();
                        let peer = settled.from.to_string();
                        let event = JournalEvent::SyncDuplicate {
                            peer,
                            seq: receipt.seq,
                        };
                        self.tele.journal().record(now.as_micros(), event);
                        Ok(SyncReceipt {
                            duplicate: true,
                            ..settled
                        })
                    }
                    // An ack carries no reply of its own.
                    ReceiptKind::Ack { .. } => Ok(settled),
                }
            }
        };
        // One way out: whatever the frame did to its sender's health —
        // a rejected frame still proves the peer alive — reaches the
        // journal and `DegradedMode` before the call returns.
        self.apply_sync_events(now);
        result
    }

    /// Health of `peer` as tracked by the sync state machine.
    ///
    /// # Errors
    ///
    /// [`KalisError::PeerUnreachable`] when the peer is unknown or Dead.
    pub fn peer_health(&self, peer: &KalisId) -> Result<PeerHealth, KalisError> {
        match self.sync.engine.peer_health(peer) {
            Some(PeerHealth::Dead) | None => Err(KalisError::PeerUnreachable {
                peer: peer.to_string(),
            }),
            Some(health) => Ok(health),
        }
    }

    /// Whether this node is in degraded local-only mode (all peers Dead
    /// or sync backlog overflowed): local detection keeps running, but
    /// collaborative-only verdicts are suppressed.
    pub fn degraded(&self) -> bool {
        self.sync.engine.degraded()
    }

    /// The active sync tunables (after config-knowgget overrides).
    #[cfg(test)]
    pub(crate) fn sync_config(&self) -> &crate::knowledge::SyncConfig {
        self.sync.engine.config()
    }

    /// Drain the sync engine's state-machine events into the journal
    /// and the `DegradedMode` knowgget that collaborative modules
    /// key off.
    fn apply_sync_events(&mut self, now: Timestamp) {
        let events = self.sync.engine.drain_events();
        if events.is_empty() {
            return;
        }
        let journal = self.tele.journal();
        let mut degraded_flip: Option<bool> = None;
        for event in events {
            let event = match event {
                SyncEvent::PeerDiscovered { .. } => continue,
                SyncEvent::Health { peer, from, to } => JournalEvent::PeerHealthChanged {
                    peer: peer.to_string(),
                    from: from.as_str().to_owned(),
                    to: to.as_str().to_owned(),
                },
                SyncEvent::QueueOverflow { dropped, .. } => {
                    self.sync.queue_dropped.add(dropped);
                    continue;
                }
                SyncEvent::DegradedEntered { reason } => {
                    degraded_flip = Some(true);
                    JournalEvent::DegradedEntered { reason }
                }
                SyncEvent::DegradedExited { healthy } => {
                    degraded_flip = Some(false);
                    JournalEvent::DegradedExited {
                        healthy_peers: healthy,
                    }
                }
                SyncEvent::PeerExpired { peer } => {
                    self.sync.peers_expired.inc();
                    JournalEvent::PeerExpired {
                        peer: peer.to_string(),
                    }
                }
            };
            journal.record(now.as_micros(), event);
        }
        if let Some(entered) = degraded_flip {
            // The mode is itself knowledge: collaborative-only modules
            // (e.g. wormhole correlation) suppress their verdicts while
            // it is set, and the Module Manager re-evaluates activation.
            if entered {
                self.kb.insert(DEGRADED_LABEL, true);
            } else {
                self.kb.remove(DEGRADED_LABEL);
            }
            self.reconfigure_on_changes(now);
        }
        self.publish_readiness_flip(now);
    }

    /// The journal/trace timestamp for events outside packet processing:
    /// the latest capture-clock time this node has seen.
    fn capture_time_us(&self) -> u64 {
        self.last_tick.map_or(0, Timestamp::as_micros)
    }
}

#[cfg(test)]
mod tests {
    use std::time::Duration;

    use super::*;
    use crate::knowledge::{KnowValue, Knowgget, SyncConfig, XorChannel};

    /// A peer's sync engine sharing the node's default channel key.
    fn peer_engine(id: &str) -> CollectiveSync {
        let channel = Box::new(XorChannel::new(0x006b_616c_6973));
        CollectiveSync::new(KalisId::new(id), channel, SyncConfig::default())
    }

    /// A frame the transport delivers between two ticks is journaled at
    /// its delivery instant, not at the tick before it.
    #[test]
    fn a_frame_delivered_between_ticks_is_journaled_when_it_arrives() {
        let mut node = Kalis::builder(KalisId::new("K1")).build();
        let (k1, k2, mut peer) = (KalisId::new("K1"), KalisId::new("K2"), peer_engine("K2"));
        let tick = Timestamp::from_secs(1);
        node.tick(tick);
        node.observe_beacon(&PeerBeacon { from: k2.clone() }, tick);
        let sent = Timestamp::from_millis(1_200);
        peer.observe_peer(&k1, sent);
        let evidence = Knowgget::new("Multihop", KnowValue::Bool(true), k2);
        peer.enqueue_to(&k1, vec![evidence], sent);
        let frame = peer.poll(sent).remove(0);
        let arrival = Timestamp::from_millis(1_250);
        let receipt = node.receive_sync_frame(&frame.bytes, arrival);
        assert_eq!(receipt.expect("K2's own knowledge").accepted, 1);
        let journal = node.telemetry().journal().snapshot();
        let accepted = (journal.records.iter())
            .find(|record| record.event.kind() == "sync_accepted")
            .expect("journaled");
        assert_eq!(accepted.time_us, arrival.as_micros());
    }

    #[test]
    fn a_rejected_frame_from_a_dead_peer_still_revives_it() {
        let mut node = Kalis::builder(KalisId::new("K1")).build();
        let k2 = KalisId::new("K2");
        let start = Timestamp::from_secs(1);
        node.observe_beacon(&PeerBeacon { from: k2.clone() }, start);
        // Silence past twice the TTL: K2 is Dead, K1 degrades.
        let later = start + node.sync_config().peer_ttl * 3;
        node.sync_poll(later);
        assert!(node.degraded());
        assert_eq!(node.knowledge().get_bool(DEGRADED_LABEL), Some(true));
        // K2 comes back with a frame carrying a knowgget it does not own.
        let (k1, mut peer) = (KalisId::new("K1"), peer_engine("K2"));
        peer.observe_peer(&k1, later);
        let forged = Knowgget::new("Multihop", KnowValue::Bool(true), KalisId::new("K3"));
        peer.enqueue_to(&k1, vec![forged], later);
        let frame = peer.poll(later).remove(0);
        let back = later + Duration::from_millis(1);
        assert!(matches!(
            node.receive_sync_frame(&frame.bytes, back),
            Err(KalisError::SyncRejected { .. })
        ));
        // That one call settled everything the engine learned from it.
        assert!(!node.degraded());
        assert_eq!(node.knowledge().get_bool(DEGRADED_LABEL), None);
        let journal = node.telemetry().journal().snapshot();
        let kinds: Vec<&str> = (journal.records.iter())
            .map(|record| record.event.kind())
            .collect();
        let rejected = kinds.iter().rposition(|kind| *kind == "sync_rejected");
        assert_eq!(
            kinds[rejected.expect("journaled") + 1..],
            ["peer_health_changed", "degraded_exited"]
        );
        assert_eq!(node.peer_health(&k2).ok(), Some(PeerHealth::Healthy));
    }
}
