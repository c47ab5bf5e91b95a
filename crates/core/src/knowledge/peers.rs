//! Peer discovery (paper §V): "the discovery of peer Kalis nodes is
//! carried out by periodical beaconing on the local network. Each Kalis
//! node listens for advertisement broadcast packets from other Kalis
//! nodes, and adds newly-discovered nodes to a peer list" — the
//! discovery-through-advertisement pattern.

use std::collections::BTreeMap;
use std::time::Duration;

use kalis_packets::Timestamp;

use crate::id::KalisId;

/// Default lifetime of a peer-list entry without a fresh beacon.
/// Override per-registry with [`PeerRegistry::with_ttl`] (the node
/// builder wires this to the `Sync.PeerTtl` a-priori knowgget).
pub(crate) const DEFAULT_PEER_TTL: Duration = Duration::from_secs(30);

/// A Kalis advertisement beacon, broadcast periodically on the local
/// network. The wire form is a single line (`KALIS <id>`), small enough
/// for any transport.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct PeerBeacon {
    /// The advertising node.
    pub from: KalisId,
}

impl PeerBeacon {
    /// Serialize for broadcast.
    pub fn encode(&self) -> Vec<u8> {
        [b"KALIS ", self.from.as_bytes()].concat()
    }

    /// Parse a received broadcast; `None` for anything that is not a
    /// Kalis beacon.
    pub fn decode(bytes: &[u8]) -> Option<PeerBeacon> {
        let text = std::str::from_utf8(bytes).ok()?;
        let id = text.strip_prefix("KALIS ")?.trim();
        if id.is_empty() || id.contains(['$', '@', '.']) {
            return None;
        }
        Some(PeerBeacon {
            from: KalisId::new(id),
        })
    }
}

/// The peer list maintained from observed beacons.
///
/// # Examples
///
/// ```
/// use kalis_core::knowledge::{PeerBeacon, PeerRegistry};
/// use kalis_core::KalisId;
/// use kalis_packets::Timestamp;
///
/// let mut peers = PeerRegistry::new(KalisId::new("K1"));
/// peers.observe(PeerBeacon { from: KalisId::new("K2") }, Timestamp::from_secs(1));
/// assert_eq!(peers.peers(Timestamp::from_secs(5)), vec![KalisId::new("K2")]);
/// // Without fresh beacons, the peer ages out.
/// assert!(peers.peers(Timestamp::from_secs(120)).is_empty());
/// ```
#[derive(Debug)]
pub struct PeerRegistry {
    local: KalisId,
    ttl: Duration,
    last_seen: BTreeMap<KalisId, Timestamp>,
}

impl PeerRegistry {
    /// An empty registry for `local` with the default TTL.
    pub fn new(local: KalisId) -> Self {
        Self::with_ttl(local, DEFAULT_PEER_TTL)
    }

    /// An empty registry with an explicit beacon TTL.
    pub(crate) fn with_ttl(local: KalisId, ttl: Duration) -> Self {
        PeerRegistry {
            local,
            ttl: ttl.max(Duration::from_micros(1)),
            last_seen: BTreeMap::new(),
        }
    }

    /// The beacon TTL this registry expires against.
    pub fn ttl(&self) -> Duration {
        self.ttl
    }

    /// The beacon this node should broadcast.
    pub fn own_beacon(&self) -> PeerBeacon {
        PeerBeacon {
            from: self.local.clone(),
        }
    }

    /// Record a received beacon. Own beacons (echoed back by broadcast
    /// mediums) are ignored. Returns whether the peer is newly
    /// discovered.
    pub fn observe(&mut self, beacon: PeerBeacon, now: Timestamp) -> bool {
        if beacon.from == self.local {
            return false;
        }
        self.last_seen.insert(beacon.from, now).is_none()
    }

    /// The live peers at `now` (beaconed within the TTL).
    pub fn peers(&self, now: Timestamp) -> Vec<KalisId> {
        self.last_seen
            .iter()
            .filter(|(_, seen)| now.saturating_since(**seen) <= self.ttl)
            .map(|(id, _)| id.clone())
            .collect()
    }

    /// Drop peers that have not beaconed within the TTL, returning the
    /// expired ids so callers can journal each eviction. Without this
    /// sweep the `last_seen` ledger grows with every distinct id ever
    /// beaconed — an adversary forging beacons could exhaust it.
    pub fn expire(&mut self, now: Timestamp) -> Vec<KalisId> {
        let ttl = self.ttl;
        let mut expired = Vec::new();
        self.last_seen.retain(|id, seen| {
            let live = now.saturating_since(*seen) <= ttl;
            if !live {
                expired.push(id.clone());
            }
            live
        });
        expired
    }

    /// Total peers ever seen (live or stale, before expiry).
    pub fn len(&self) -> usize {
        self.last_seen.len()
    }

    /// Whether no peers are known.
    pub fn is_empty(&self) -> bool {
        self.last_seen.is_empty()
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn beacon_roundtrip() {
        let beacon = PeerBeacon {
            from: KalisId::new("K2"),
        };
        assert_eq!(PeerBeacon::decode(&beacon.encode()), Some(beacon));
    }

    #[test]
    fn decode_rejects_noise_and_malformed_ids() {
        assert_eq!(PeerBeacon::decode(b"hello"), None);
        assert_eq!(PeerBeacon::decode(b"KALIS "), None);
        assert_eq!(PeerBeacon::decode(b"KALIS K$1"), None);
        assert_eq!(PeerBeacon::decode(&[0xff, 0xfe]), None);
    }

    #[test]
    fn discovery_and_refresh() {
        let mut peers = PeerRegistry::new(KalisId::new("K1"));
        let k2 = PeerBeacon {
            from: KalisId::new("K2"),
        };
        assert!(
            peers.observe(k2.clone(), Timestamp::from_secs(1)),
            "new peer"
        );
        assert!(
            !peers.observe(k2, Timestamp::from_secs(10)),
            "refresh, not new"
        );
        assert_eq!(peers.peers(Timestamp::from_secs(15)).len(), 1);
        // A refresh extends the TTL: 10 + 30 ≥ 35.
        assert_eq!(peers.peers(Timestamp::from_secs(35)).len(), 1);
        assert!(peers.peers(Timestamp::from_secs(60)).is_empty());
    }

    #[test]
    fn own_beacons_are_ignored() {
        let mut peers = PeerRegistry::new(KalisId::new("K1"));
        let own = peers.own_beacon();
        assert!(!peers.observe(own, Timestamp::ZERO));
        assert!(peers.is_empty());
    }

    #[test]
    fn configurable_ttl_changes_expiry() {
        let mut peers = PeerRegistry::with_ttl(KalisId::new("K1"), Duration::from_secs(3));
        assert_eq!(peers.ttl(), Duration::from_secs(3));
        peers.observe(
            PeerBeacon {
                from: KalisId::new("K2"),
            },
            Timestamp::from_secs(1),
        );
        assert_eq!(peers.peers(Timestamp::from_secs(4)).len(), 1);
        assert!(
            peers.peers(Timestamp::from_secs(5)).is_empty(),
            "3 s TTL expires well before the 30 s default"
        );
    }

    #[test]
    fn expire_prunes_storage() {
        let mut peers = PeerRegistry::new(KalisId::new("K1"));
        peers.observe(
            PeerBeacon {
                from: KalisId::new("K2"),
            },
            Timestamp::ZERO,
        );
        let expired = peers.expire(Timestamp::from_secs(120));
        assert_eq!(expired, vec![KalisId::new("K2")]);
        assert_eq!(peers.len(), 0);
        assert!(peers.expire(Timestamp::from_secs(121)).is_empty());
    }
}
