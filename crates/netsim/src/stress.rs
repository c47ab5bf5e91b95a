//! Seeded stress-trace builders: sustained ingest bursts and crafted
//! "poison" packets.
//!
//! These feed the module-supervisor experiments: a burst trace drives a
//! node far past its configured `Supervisor.BurstPps` capacity so the
//! overload controller must shed work, and a poison train carries the
//! [`POISON_MARKER`] payload that a deliberately crash-prone test module
//! panics on, so panic isolation and crash-loop quarantine can be
//! exercised on an otherwise realistic capture. Like the rest of the
//! simulator, everything here is deterministic: equal arguments produce
//! byte-identical traces.

use std::net::Ipv4Addr;
use std::time::Duration;

use kalis_packets::{CapturedPacket, MacAddr, Medium, ShortAddr, Timestamp};

use crate::craft;

/// Payload marker carried by [`poison_packet`] captures. Harmless on the
/// wire — only modules that deliberately look for it (the experiments'
/// crash-prone module) react to it.
pub(crate) const POISON_MARKER: &[u8] = b"POISONED";

/// The MAC-layer identity poison packets claim.
pub(crate) const POISON_SOURCE: ShortAddr = ShortAddr(0x0066);

/// A CTP data frame whose reading carries the [`POISON_MARKER`].
pub fn poison_packet(at: Timestamp, seq: u8) -> CapturedPacket {
    let raw = craft::ctp_data(
        POISON_SOURCE,
        ShortAddr(1),
        seq,
        POISON_SOURCE,
        seq,
        0,
        POISON_MARKER,
    );
    CapturedPacket::capture(at, Medium::Ieee802154, Some(-55.0), "stress", raw)
}

/// Whether a capture carries the [`POISON_MARKER`] anywhere in its raw
/// bytes — the trigger a crash-prone test module keys on.
pub fn is_poison(packet: &CapturedPacket) -> bool {
    packet
        .raw
        .windows(POISON_MARKER.len())
        .any(|w| w == POISON_MARKER)
}

/// A train of `count` poison packets starting at `start`, one every
/// `spacing`.
pub fn poison_train(start: Timestamp, count: u32, spacing: Duration) -> Vec<CapturedPacket> {
    (0..count)
        .map(|i| poison_packet(start + spacing * i, i as u8))
        .collect()
}

/// Deterministic jitter stream (same splitmix64 core as the fault plan).
fn splitmix64(mut x: u64) -> u64 {
    x = x.wrapping_add(0x9e37_79b9_7f4a_7c15);
    x = (x ^ (x >> 30)).wrapping_mul(0xbf58_476d_1ce4_e5b9);
    x = (x ^ (x >> 27)).wrapping_mul(0x94d0_49bb_1331_11eb);
    x ^ (x >> 31)
}

/// A WiFi capture burst at `pps` packets/second for `duration`, starting
/// at `start`: benign unicast ICMP echo requests from a handful of LAN
/// hosts to the router, evenly spaced with small seeded jitter. The
/// traffic itself raises no alarms — its *rate* is the stress.
pub fn burst_trace(
    seed: u64,
    start: Timestamp,
    pps: u64,
    duration: Duration,
) -> Vec<CapturedPacket> {
    let pps = pps.max(1);
    let spacing_us = 1_000_000 / pps;
    let total = pps.saturating_mul(duration.as_micros() as u64) / 1_000_000;
    let router = Ipv4Addr::new(10, 0, 0, 1);
    let router_mac = MacAddr::from_index(0);
    (0..total)
        .map(|i| {
            // Keep ordering: jitter stays well under the nominal spacing.
            let jitter = splitmix64(seed ^ i) % (spacing_us / 2).max(1);
            let at = start + Duration::from_micros(i * spacing_us + jitter);
            let host = (i % 5) as u8;
            let ip = craft::ipv4_echo_request(
                Ipv4Addr::new(10, 0, 0, 10 + host),
                router,
                u16::from(host) + 7,
                (i % u64::from(u16::MAX)) as u16,
            );
            let raw = craft::wifi_ipv4(
                MacAddr::from_index(10 + u32::from(host)),
                router_mac,
                router_mac,
                (i % u64::from(u16::MAX)) as u16,
                &ip,
            );
            CapturedPacket::capture(
                at,
                Medium::Wifi,
                Some(-45.0 - f64::from(host)),
                "stress",
                raw,
            )
        })
        .collect()
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn poison_packets_carry_the_marker() {
        let p = poison_packet(Timestamp::from_secs(1), 3);
        assert!(is_poison(&p));
        let train = poison_train(Timestamp::from_secs(1), 4, Duration::from_millis(10));
        assert_eq!(train.len(), 4);
        assert!(train.iter().all(is_poison));
        assert!(train.windows(2).all(|w| w[0].timestamp < w[1].timestamp));
    }

    #[test]
    fn burst_trace_is_deterministic_and_rate_accurate() {
        let a = burst_trace(7, Timestamp::from_secs(5), 1_000, Duration::from_secs(2));
        let b = burst_trace(7, Timestamp::from_secs(5), 1_000, Duration::from_secs(2));
        assert_eq!(a.len(), 2_000);
        assert_eq!(
            a.iter().map(|c| c.timestamp).collect::<Vec<_>>(),
            b.iter().map(|c| c.timestamp).collect::<Vec<_>>(),
            "equal seeds produce identical traces"
        );
        let c = burst_trace(8, Timestamp::from_secs(5), 1_000, Duration::from_secs(2));
        assert_ne!(
            a.iter().map(|p| p.timestamp).collect::<Vec<_>>(),
            c.iter().map(|p| p.timestamp).collect::<Vec<_>>(),
            "different seeds jitter differently"
        );
        assert!(a.windows(2).all(|w| w[0].timestamp <= w[1].timestamp));
        assert!(!a.iter().any(is_poison), "burst traffic is benign");
    }
}
