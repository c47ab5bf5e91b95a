//! The Communication System (paper §IV-B1): the abstraction through which
//! Kalis overhears traffic on every supported interface.
//!
//! A [`PacketSource`] yields [`CapturedPacket`]s; the
//! [`CommunicationSystem`] multiplexes several sources (one per
//! medium/interface) into a single time-ordered stream. Sources can be
//! live taps (the simulator's `Tap` wrapped in a [`PollSource`]) or
//! recorded traces ([`ReplaySource`]) — the IDS cannot tell the
//! difference, which is exactly the paper's Data-Store replay
//! transparency property.

use std::collections::VecDeque;

use kalis_packets::{CapturedPacket, Medium};

/// A source of captured packets.
pub trait PacketSource: Send {
    /// The next captured packet, if one is available now.
    fn poll(&mut self) -> Option<CapturedPacket>;

    /// A short name for diagnostics.
    fn name(&self) -> &str {
        "source"
    }
}

/// Adapts any closure yielding packets into a [`PacketSource`] — the glue
/// for live taps.
///
/// # Examples
///
/// ```
/// use kalis_core::capture::{PacketSource, PollSource};
///
/// let mut source = PollSource::new("wlan0", || None);
/// assert!(source.poll().is_none());
/// ```
pub struct PollSource<F> {
    name: String,
    poll: F,
}

impl<F: FnMut() -> Option<CapturedPacket> + Send> PollSource<F> {
    /// Wrap `poll` as a packet source.
    pub fn new(name: impl Into<String>, poll: F) -> Self {
        PollSource {
            name: name.into(),
            poll,
        }
    }
}

impl<F: FnMut() -> Option<CapturedPacket> + Send> PacketSource for PollSource<F> {
    fn poll(&mut self) -> Option<CapturedPacket> {
        (self.poll)()
    }

    fn name(&self) -> &str {
        &self.name
    }
}

impl<F> core::fmt::Debug for PollSource<F> {
    fn fmt(&self, f: &mut core::fmt::Formatter<'_>) -> core::fmt::Result {
        f.debug_struct("PollSource")
            .field("name", &self.name)
            .finish()
    }
}

/// Replays a pre-recorded, time-ordered packet sequence.
#[derive(Debug)]
pub struct ReplaySource {
    name: String,
    queue: VecDeque<CapturedPacket>,
}

impl ReplaySource {
    /// Build a replay source from recorded captures (sorted by timestamp).
    pub fn new(name: impl Into<String>, mut packets: Vec<CapturedPacket>) -> Self {
        packets.sort_by_key(|p| p.timestamp);
        ReplaySource {
            name: name.into(),
            queue: packets.into(),
        }
    }

    /// Remaining packets.
    pub fn remaining(&self) -> usize {
        self.queue.len()
    }
}

impl PacketSource for ReplaySource {
    fn poll(&mut self) -> Option<CapturedPacket> {
        self.queue.pop_front()
    }

    fn name(&self) -> &str {
        &self.name
    }
}

/// The multi-interface capture front-end: owns one source per interface
/// and yields their packets merged in timestamp order.
#[derive(Default)]
pub struct CommunicationSystem {
    sources: Vec<Box<dyn PacketSource>>,
    staged: Vec<Option<CapturedPacket>>,
    mediums_seen: Vec<Medium>,
}

impl CommunicationSystem {
    /// An empty communication system.
    pub fn new() -> Self {
        CommunicationSystem::default()
    }

    /// Attach a capture source.
    pub fn add_source(&mut self, source: impl PacketSource + 'static) {
        self.sources.push(Box::new(source));
        self.staged.push(None);
    }

    /// The distinct mediums observed so far.
    pub fn mediums_seen(&self) -> &[Medium] {
        &self.mediums_seen
    }

    /// The next packet across all sources, in timestamp order.
    pub fn next_packet(&mut self) -> Option<CapturedPacket> {
        // Fill the staging slot of every source, then release the oldest.
        for (slot, source) in self.staged.iter_mut().zip(&mut self.sources) {
            if slot.is_none() {
                *slot = source.poll();
            }
        }
        let best = self
            .staged
            .iter()
            .enumerate()
            .filter_map(|(i, s)| s.as_ref().map(|p| (i, p.timestamp)))
            .min_by_key(|&(_, ts)| ts)?
            .0;
        let packet = self.staged[best].take()?;
        if !self.mediums_seen.contains(&packet.medium) {
            self.mediums_seen.push(packet.medium);
        }
        Some(packet)
    }

    /// Drain every available packet, in timestamp order.
    pub fn drain(&mut self) -> Vec<CapturedPacket> {
        let mut out = Vec::new();
        while let Some(p) = self.next_packet() {
            out.push(p);
        }
        out
    }
}

impl core::fmt::Debug for CommunicationSystem {
    fn fmt(&self, f: &mut core::fmt::Formatter<'_>) -> core::fmt::Result {
        f.debug_struct("CommunicationSystem")
            .field("sources", &self.sources.len())
            .field("mediums_seen", &self.mediums_seen)
            .finish()
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use bytes::Bytes;
    use kalis_packets::Timestamp;

    fn cap(ts: u64, medium: Medium) -> CapturedPacket {
        CapturedPacket::capture(Timestamp::from_micros(ts), medium, None, "t", Bytes::new())
    }

    #[test]
    fn replay_source_sorts_and_drains() {
        let mut src = ReplaySource::new("r", vec![cap(30, Medium::Wifi), cap(10, Medium::Wifi)]);
        assert_eq!(src.remaining(), 2);
        assert_eq!(src.poll().unwrap().timestamp.as_micros(), 10);
        assert_eq!(src.poll().unwrap().timestamp.as_micros(), 30);
        assert!(src.poll().is_none());
    }

    #[test]
    fn communication_system_merges_by_time() {
        let mut cs = CommunicationSystem::new();
        cs.add_source(ReplaySource::new(
            "154",
            vec![cap(10, Medium::Ieee802154), cap(40, Medium::Ieee802154)],
        ));
        cs.add_source(ReplaySource::new(
            "wifi",
            vec![cap(20, Medium::Wifi), cap(30, Medium::Wifi)],
        ));
        let times: Vec<u64> = cs.drain().iter().map(|p| p.timestamp.as_micros()).collect();
        assert_eq!(times, vec![10, 20, 30, 40]);
        assert_eq!(cs.mediums_seen().len(), 2);
    }

    #[test]
    fn poll_source_adapts_closures() {
        let mut remaining = vec![cap(5, Medium::Ble)];
        let mut src = PollSource::new("b", move || remaining.pop());
        assert!(src.poll().is_some());
        assert!(src.poll().is_none());
        assert_eq!(src.name(), "b");
    }
}
