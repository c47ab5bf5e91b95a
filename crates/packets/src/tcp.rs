//! TCP segments.

use bytes::{Buf, BufMut, Bytes, BytesMut};

use crate::codec::{ensure, Decode, Encode};
use crate::DecodeError;

const PROTO: &str = "tcp";

/// TCP header flags.
///
/// # Examples
///
/// ```
/// use kalis_packets::tcp::TcpFlags;
///
/// let syn_ack = TcpFlags::SYN | TcpFlags::ACK;
/// assert!(syn_ack.contains(TcpFlags::SYN));
/// assert!(!syn_ack.contains(TcpFlags::FIN));
/// ```
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash, Default)]
pub struct TcpFlags(u8);

impl TcpFlags {
    /// No flags set.
    pub const EMPTY: TcpFlags = TcpFlags(0);
    /// FIN.
    pub const FIN: TcpFlags = TcpFlags(0x01);
    /// SYN.
    pub const SYN: TcpFlags = TcpFlags(0x02);
    /// RST.
    pub const RST: TcpFlags = TcpFlags(0x04);
    /// PSH.
    pub const PSH: TcpFlags = TcpFlags(0x08);
    /// ACK.
    pub const ACK: TcpFlags = TcpFlags(0x10);
    /// URG.
    pub const URG: TcpFlags = TcpFlags(0x20);

    /// Build from the raw flag byte.
    pub fn from_bits(bits: u8) -> Self {
        TcpFlags(bits & 0x3f)
    }

    /// The raw flag byte.
    pub fn bits(self) -> u8 {
        self.0
    }

    /// Whether every flag in `other` is set in `self`.
    pub fn contains(self, other: TcpFlags) -> bool {
        self.0 & other.0 == other.0
    }

    /// A pure SYN (connection-open) segment: SYN set, ACK clear.
    pub fn is_pure_syn(self) -> bool {
        self.contains(TcpFlags::SYN) && !self.contains(TcpFlags::ACK)
    }
}

impl core::ops::BitOr for TcpFlags {
    type Output = TcpFlags;

    fn bitor(self, rhs: TcpFlags) -> TcpFlags {
        TcpFlags(self.0 | rhs.0)
    }
}

impl core::fmt::Display for TcpFlags {
    fn fmt(&self, f: &mut core::fmt::Formatter<'_>) -> core::fmt::Result {
        let names = [
            (TcpFlags::SYN, "SYN"),
            (TcpFlags::ACK, "ACK"),
            (TcpFlags::FIN, "FIN"),
            (TcpFlags::RST, "RST"),
            (TcpFlags::PSH, "PSH"),
            (TcpFlags::URG, "URG"),
        ];
        let mut first = true;
        for (flag, name) in names {
            if self.contains(flag) {
                if !first {
                    f.write_str("|")?;
                }
                f.write_str(name)?;
                first = false;
            }
        }
        if first {
            f.write_str("(none)")?;
        }
        Ok(())
    }
}

/// A TCP segment (fixed 20-byte header, options omitted).
///
/// The checksum field is carried verbatim; pseudo-header verification is a
/// transport-stack concern, not a sniffer concern, so this codec neither
/// computes nor verifies it.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct TcpSegment {
    /// Source port.
    pub src_port: u16,
    /// Destination port.
    pub dst_port: u16,
    /// Sequence number.
    pub seq: u32,
    /// Acknowledgement number.
    pub ack: u32,
    /// Header flags.
    pub flags: TcpFlags,
    /// Receive window.
    pub window: u16,
    /// Payload bytes.
    pub payload: Bytes,
}

impl TcpSegment {
    /// Build a pure SYN segment.
    pub fn syn(src_port: u16, dst_port: u16, seq: u32) -> Self {
        TcpSegment {
            src_port,
            dst_port,
            seq,
            ack: 0,
            flags: TcpFlags::SYN,
            window: 65535,
            payload: Bytes::new(),
        }
    }

    /// Build a SYN+ACK answering `syn_seq`.
    pub fn syn_ack(src_port: u16, dst_port: u16, seq: u32, syn_seq: u32) -> Self {
        TcpSegment {
            src_port,
            dst_port,
            seq,
            ack: syn_seq.wrapping_add(1),
            flags: TcpFlags::SYN | TcpFlags::ACK,
            window: 65535,
            payload: Bytes::new(),
        }
    }

    /// Build a pure ACK segment.
    pub fn ack(src_port: u16, dst_port: u16, seq: u32, ack: u32) -> Self {
        TcpSegment {
            src_port,
            dst_port,
            seq,
            ack,
            flags: TcpFlags::ACK,
            window: 65535,
            payload: Bytes::new(),
        }
    }
}

impl Encode for TcpSegment {
    fn encode(&self, buf: &mut BytesMut) {
        buf.put_u16(self.src_port);
        buf.put_u16(self.dst_port);
        buf.put_u32(self.seq);
        buf.put_u32(self.ack);
        buf.put_u8(5 << 4); // data offset 5 words
        buf.put_u8(self.flags.bits());
        buf.put_u16(self.window);
        buf.put_u16(0); // checksum (not computed; see type docs)
        buf.put_u16(0); // urgent pointer
        buf.put_slice(&self.payload);
    }

    fn encoded_len(&self) -> usize {
        20 + self.payload.len()
    }
}

impl Decode for TcpSegment {
    fn decode(buf: &mut Bytes) -> Result<Self, DecodeError> {
        ensure(buf, PROTO, 20)?;
        let src_port = buf.get_u16();
        let dst_port = buf.get_u16();
        let seq = buf.get_u32();
        let ack = buf.get_u32();
        let offset_words = buf.get_u8() >> 4;
        if offset_words < 5 {
            return Err(DecodeError::invalid(
                PROTO,
                "data_offset",
                u64::from(offset_words),
            ));
        }
        let flags = TcpFlags::from_bits(buf.get_u8());
        let window = buf.get_u16();
        buf.advance(4); // checksum + urgent pointer
        let options_len = (offset_words as usize - 5) * 4;
        ensure(buf, PROTO, options_len)?;
        buf.advance(options_len);
        Ok(TcpSegment {
            src_port,
            dst_port,
            seq,
            ack,
            flags,
            window,
            payload: buf.split_to(buf.len()),
        })
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn roundtrip_syn() {
        let seg = TcpSegment::syn(40000, 443, 123456);
        assert_eq!(TcpSegment::from_slice(&seg.to_bytes()).unwrap(), seg);
        assert!(seg.flags.is_pure_syn());
    }

    #[test]
    fn syn_ack_acknowledges_isn_plus_one() {
        let seg = TcpSegment::syn_ack(443, 40000, 999, 123456);
        assert_eq!(seg.ack, 123457);
        assert!(seg.flags.contains(TcpFlags::SYN | TcpFlags::ACK));
        assert!(!seg.flags.is_pure_syn());
    }

    #[test]
    fn roundtrip_with_payload() {
        let seg = TcpSegment {
            src_port: 1,
            dst_port: 2,
            seq: 3,
            ack: 4,
            flags: TcpFlags::PSH | TcpFlags::ACK,
            window: 512,
            payload: Bytes::from_static(b"GET / HTTP/1.1"),
        };
        assert_eq!(TcpSegment::from_slice(&seg.to_bytes()).unwrap(), seg);
    }

    #[test]
    fn flags_display() {
        assert_eq!((TcpFlags::SYN | TcpFlags::ACK).to_string(), "SYN|ACK");
        assert_eq!(TcpFlags::EMPTY.to_string(), "(none)");
    }

    #[test]
    fn bad_data_offset_rejected() {
        let seg = TcpSegment::syn(1, 2, 3);
        let mut wire = seg.to_bytes().to_vec();
        wire[12] = 2 << 4;
        assert!(matches!(
            TcpSegment::from_slice(&wire),
            Err(DecodeError::InvalidField {
                field: "data_offset",
                ..
            })
        ));
    }

    #[test]
    fn truncated_rejected() {
        assert!(TcpSegment::from_slice(&[0u8; 10]).is_err());
    }
}
