//! 6LoWPAN fragment reassembly (RFC 4944 §5.3).
//!
//! A sniffer-side reassembler: collects `FRAG1`/`FRAGN` fragments by
//! datagram tag and yields the reassembled IPv6 datagram once every byte
//! is present. Incomplete datagrams expire after a timeout — and the
//! count of expirations is exposed, since incomplete-fragment floods are
//! themselves an IoT denial-of-service vector.

use std::collections::HashMap;

use bytes::Bytes;

use crate::addr::ShortAddr;
use crate::sixlowpan::{FragHeader, SixLowpanFrame, SixLowpanPayload};
use crate::time::Timestamp;

/// How long an incomplete datagram is retained (RFC 4944 suggests 60 s;
/// sniffer-side a short horizon keeps the flood observable prompt).
const REASSEMBLY_TIMEOUT: core::time::Duration = core::time::Duration::from_secs(10);

/// A reassembly key: fragments belong together when they share the mesh
/// originator (or transmitter) and the datagram tag.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash)]
pub struct DatagramKey {
    /// The originator (mesh source when present).
    pub origin: ShortAddr,
    /// The datagram tag.
    pub tag: u16,
}

#[derive(Debug)]
struct Partial {
    started: Timestamp,
    size: usize,
    /// Received byte ranges as (offset, bytes).
    pieces: Vec<(usize, Bytes)>,
}

impl Partial {
    fn received(&self) -> usize {
        self.pieces.iter().map(|(_, b)| b.len()).sum()
    }

    fn assemble(&self) -> Option<Bytes> {
        if self.received() < self.size {
            return None;
        }
        let mut buf = vec![0u8; self.size];
        let mut covered = vec![false; self.size];
        for (offset, bytes) in &self.pieces {
            if offset + bytes.len() > self.size {
                return None; // inconsistent fragment set
            }
            buf[*offset..offset + bytes.len()].copy_from_slice(bytes);
            for c in &mut covered[*offset..offset + bytes.len()] {
                *c = true;
            }
        }
        covered.iter().all(|c| *c).then(|| Bytes::from(buf))
    }
}

/// Sniffer-side 6LoWPAN reassembler.
///
/// # Examples
///
/// ```
/// use kalis_packets::reassembly::{DatagramKey, Reassembler};
/// use kalis_packets::sixlowpan::{FragHeader, SixLowpanFrame, SixLowpanPayload};
/// use kalis_packets::{ShortAddr, Timestamp};
///
/// let mut reassembler = Reassembler::new();
/// let key = DatagramKey { origin: ShortAddr(3), tag: 7 };
/// let first = SixLowpanFrame {
///     mesh: None,
///     frag: Some(FragHeader::First { datagram_size: 8, datagram_tag: 7 }),
///     payload: SixLowpanPayload::Ipv6(b"abcd".to_vec().into()),
/// };
/// assert!(reassembler.push(key, &first, Timestamp::ZERO).is_none());
/// let rest = SixLowpanFrame {
///     mesh: None,
///     frag: Some(FragHeader::Subsequent { datagram_size: 8, datagram_tag: 7, offset: 0 }),
///     payload: SixLowpanPayload::Ipv6(b"efgh".to_vec().into()),
/// };
/// // FRAG1 carries bytes [0, 4); FRAGN offset is in 8-byte units *after*
/// // the first fragment — offset 0 continues at byte 4 here because the
/// // reassembler tracks the running position per tag.
/// let done = reassembler.push(key, &rest, Timestamp::from_secs(1));
/// assert_eq!(done.as_deref(), Some(&b"abcdefgh"[..]));
/// ```
#[derive(Debug, Default)]
pub struct Reassembler {
    partials: HashMap<DatagramKey, Partial>,
    expired: u64,
}

impl Reassembler {
    /// An empty reassembler.
    pub fn new() -> Self {
        Reassembler::default()
    }

    /// Feed one 6LoWPAN frame. Returns the reassembled datagram when this
    /// fragment completes it. Non-fragmented frames return their payload
    /// immediately.
    pub fn push(
        &mut self,
        key: DatagramKey,
        frame: &SixLowpanFrame,
        now: Timestamp,
    ) -> Option<Bytes> {
        self.expire(now);
        let payload = match &frame.payload {
            SixLowpanPayload::Ipv6(bytes) => bytes.clone(),
            SixLowpanPayload::Iphc { rest, .. } => rest.clone(),
        };
        match frame.frag {
            None => Some(payload),
            Some(FragHeader::First {
                datagram_size,
                datagram_tag: _,
            }) => {
                let partial = self.partials.entry(key).or_insert(Partial {
                    started: now,
                    size: datagram_size as usize,
                    pieces: Vec::new(),
                });
                partial.size = datagram_size as usize;
                partial.pieces.push((0, payload));
                self.try_complete(key)
            }
            Some(FragHeader::Subsequent {
                datagram_size,
                offset,
                ..
            }) => {
                let partial = self.partials.entry(key).or_insert(Partial {
                    started: now,
                    size: datagram_size as usize,
                    pieces: Vec::new(),
                });
                // RFC 4944 offsets are in 8-byte units from the datagram
                // start; a zero offset on FRAGN means "continue after what
                // is already held" (sniffer-friendly: FRAG1 lengths are
                // not always 8-aligned in the simplified model).
                let position = if offset == 0 {
                    partial.received()
                } else {
                    offset as usize * 8
                };
                partial.pieces.push((position, payload));
                self.try_complete(key)
            }
        }
    }

    fn try_complete(&mut self, key: DatagramKey) -> Option<Bytes> {
        let done = self.partials.get(&key).and_then(Partial::assemble);
        if done.is_some() {
            self.partials.remove(&key);
        }
        done
    }

    /// Drop incomplete datagrams older than the reassembly timeout.
    pub fn expire(&mut self, now: Timestamp) {
        let before = self.partials.len();
        self.partials
            .retain(|_, p| now.saturating_since(p.started) <= REASSEMBLY_TIMEOUT);
        self.expired += (before - self.partials.len()) as u64;
    }

    /// Datagrams currently pending reassembly.
    pub fn pending(&self) -> usize {
        self.partials.len()
    }

    /// Datagrams that timed out incomplete — the incomplete-fragment-flood
    /// observable.
    pub fn expired(&self) -> u64 {
        self.expired
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn key(tag: u16) -> DatagramKey {
        DatagramKey {
            origin: ShortAddr(3),
            tag,
        }
    }

    fn frag_first(size: u16, tag: u16, data: &[u8]) -> SixLowpanFrame {
        SixLowpanFrame {
            mesh: None,
            frag: Some(FragHeader::First {
                datagram_size: size,
                datagram_tag: tag,
            }),
            payload: SixLowpanPayload::Ipv6(Bytes::copy_from_slice(data)),
        }
    }

    fn frag_n(size: u16, tag: u16, offset: u8, data: &[u8]) -> SixLowpanFrame {
        SixLowpanFrame {
            mesh: None,
            frag: Some(FragHeader::Subsequent {
                datagram_size: size,
                datagram_tag: tag,
                offset,
            }),
            payload: SixLowpanPayload::Ipv6(Bytes::copy_from_slice(data)),
        }
    }

    #[test]
    fn two_fragment_datagram_reassembles() {
        let mut r = Reassembler::new();
        assert!(r
            .push(key(1), &frag_first(16, 1, &[1; 8]), Timestamp::ZERO)
            .is_none());
        let done = r.push(
            key(1),
            &frag_n(16, 1, 1, &[2; 8]),
            Timestamp::from_millis(10),
        );
        assert_eq!(
            done.unwrap(),
            Bytes::from(vec![1, 1, 1, 1, 1, 1, 1, 1, 2, 2, 2, 2, 2, 2, 2, 2])
        );
        assert_eq!(r.pending(), 0);
    }

    #[test]
    fn out_of_order_fragments_reassemble() {
        let mut r = Reassembler::new();
        assert!(r
            .push(key(2), &frag_n(16, 2, 1, &[2; 8]), Timestamp::ZERO)
            .is_none());
        let done = r.push(
            key(2),
            &frag_first(16, 2, &[1; 8]),
            Timestamp::from_millis(5),
        );
        assert!(done.is_some());
    }

    #[test]
    fn interleaved_tags_do_not_mix() {
        let mut r = Reassembler::new();
        assert!(r
            .push(key(1), &frag_first(16, 1, &[1; 8]), Timestamp::ZERO)
            .is_none());
        assert!(r
            .push(key(2), &frag_first(16, 2, &[9; 8]), Timestamp::ZERO)
            .is_none());
        let a = r
            .push(
                key(1),
                &frag_n(16, 1, 1, &[1; 8]),
                Timestamp::from_millis(1),
            )
            .unwrap();
        let b = r
            .push(
                key(2),
                &frag_n(16, 2, 1, &[9; 8]),
                Timestamp::from_millis(2),
            )
            .unwrap();
        assert!(a.iter().all(|&x| x == 1));
        assert!(b.iter().all(|&x| x == 9));
    }

    #[test]
    fn incomplete_datagrams_expire_and_are_counted() {
        let mut r = Reassembler::new();
        for tag in 0..5u16 {
            r.push(key(tag), &frag_first(64, tag, &[0; 8]), Timestamp::ZERO);
        }
        assert_eq!(r.pending(), 5);
        r.expire(Timestamp::from_secs(30));
        assert_eq!(r.pending(), 0);
        assert_eq!(r.expired(), 5, "the incomplete-fragment-flood observable");
    }

    #[test]
    fn unfragmented_frames_pass_straight_through() {
        let mut r = Reassembler::new();
        let frame = SixLowpanFrame::ipv6(b"whole".to_vec());
        assert_eq!(
            r.push(key(9), &frame, Timestamp::ZERO).as_deref(),
            Some(&b"whole"[..])
        );
        assert_eq!(r.pending(), 0);
    }

    #[test]
    fn inconsistent_oversized_fragment_is_rejected() {
        let mut r = Reassembler::new();
        r.push(key(1), &frag_first(8, 1, &[1; 4]), Timestamp::ZERO);
        // Claims offset 1 (byte 8) with 8 bytes into an 8-byte datagram.
        let done = r.push(key(1), &frag_n(8, 1, 1, &[2; 8]), Timestamp::from_millis(1));
        assert!(done.is_none(), "inconsistent sets never assemble");
    }
}
