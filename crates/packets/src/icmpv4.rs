//! ICMPv4 messages — the protocol of the paper's working example
//! (ICMP Flood vs Smurf disambiguation).

use bytes::{Buf, BufMut, Bytes, BytesMut};

use crate::codec::{ensure, internet_checksum, Decode, Encode};
use crate::DecodeError;

const PROTO: &str = "icmpv4";

/// The ICMPv4 message type.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash)]
pub enum Icmpv4Type {
    /// Echo Reply (0) — the flood vector in both ICMP Flood and Smurf.
    EchoReply,
    /// Destination Unreachable (3).
    DestinationUnreachable,
    /// Echo Request (8) — the Smurf amplification trigger.
    EchoRequest,
    /// Time Exceeded (11).
    TimeExceeded,
    /// Any other type.
    Other(u8),
}

impl Icmpv4Type {
    /// The wire type number.
    pub fn number(self) -> u8 {
        match self {
            Icmpv4Type::EchoReply => 0,
            Icmpv4Type::DestinationUnreachable => 3,
            Icmpv4Type::EchoRequest => 8,
            Icmpv4Type::TimeExceeded => 11,
            Icmpv4Type::Other(n) => n,
        }
    }
}

impl From<u8> for Icmpv4Type {
    fn from(value: u8) -> Self {
        match value {
            0 => Icmpv4Type::EchoReply,
            3 => Icmpv4Type::DestinationUnreachable,
            8 => Icmpv4Type::EchoRequest,
            11 => Icmpv4Type::TimeExceeded,
            other => Icmpv4Type::Other(other),
        }
    }
}

/// An ICMPv4 message with verified checksum.
///
/// # Examples
///
/// ```
/// use kalis_packets::icmpv4::{Icmpv4Packet, Icmpv4Type};
/// use kalis_packets::codec::{Decode, Encode};
///
/// let reply = Icmpv4Packet::echo_reply(7, 3, b"pong".to_vec());
/// let back = Icmpv4Packet::from_slice(&reply.to_bytes())?;
/// assert_eq!(back.icmp_type(), Icmpv4Type::EchoReply);
/// assert_eq!(back.echo_id(), Some(7));
/// # Ok::<(), kalis_packets::DecodeError>(())
/// ```
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct Icmpv4Packet {
    icmp_type: Icmpv4Type,
    code: u8,
    /// "Rest of header" — id/seq for echo messages, unused otherwise.
    rest: u32,
    payload: Bytes,
}

impl Icmpv4Packet {
    /// Build an Echo Request.
    pub fn echo_request(id: u16, seq: u16, payload: impl Into<Bytes>) -> Self {
        Icmpv4Packet {
            icmp_type: Icmpv4Type::EchoRequest,
            code: 0,
            rest: (u32::from(id) << 16) | u32::from(seq),
            payload: payload.into(),
        }
    }

    /// Build an Echo Reply.
    pub fn echo_reply(id: u16, seq: u16, payload: impl Into<Bytes>) -> Self {
        Icmpv4Packet {
            icmp_type: Icmpv4Type::EchoReply,
            code: 0,
            rest: (u32::from(id) << 16) | u32::from(seq),
            payload: payload.into(),
        }
    }

    /// Build an arbitrary message.
    pub fn new(icmp_type: Icmpv4Type, code: u8, rest: u32, payload: impl Into<Bytes>) -> Self {
        Icmpv4Packet {
            icmp_type,
            code,
            rest,
            payload: payload.into(),
        }
    }

    /// The message type.
    pub fn icmp_type(&self) -> Icmpv4Type {
        self.icmp_type
    }

    /// The message code.
    pub fn code(&self) -> u8 {
        self.code
    }

    /// The echo identifier, for echo messages.
    pub fn echo_id(&self) -> Option<u16> {
        match self.icmp_type {
            Icmpv4Type::EchoRequest | Icmpv4Type::EchoReply => Some((self.rest >> 16) as u16),
            _ => None,
        }
    }

    /// The echo sequence number, for echo messages.
    pub fn echo_seq(&self) -> Option<u16> {
        match self.icmp_type {
            Icmpv4Type::EchoRequest | Icmpv4Type::EchoReply => Some(self.rest as u16),
            _ => None,
        }
    }

    /// The message payload.
    pub fn payload(&self) -> &Bytes {
        &self.payload
    }
}

impl Encode for Icmpv4Packet {
    fn encode(&self, buf: &mut BytesMut) {
        let start = buf.len();
        buf.put_u8(self.icmp_type.number());
        buf.put_u8(self.code);
        buf.put_u16(0); // checksum placeholder
        buf.put_u32(self.rest);
        buf.put_slice(&self.payload);
        let sum = internet_checksum(&buf[start..]);
        buf[start + 2..start + 4].copy_from_slice(&sum.to_be_bytes());
    }

    fn encoded_len(&self) -> usize {
        8 + self.payload.len()
    }
}

impl Decode for Icmpv4Packet {
    fn decode(buf: &mut Bytes) -> Result<Self, DecodeError> {
        ensure(buf, PROTO, 8)?;
        let computed = internet_checksum(&buf[..]);
        if computed != 0 {
            let found = u16::from_be_bytes([buf[2], buf[3]]);
            return Err(DecodeError::BadChecksum {
                protocol: PROTO,
                found,
                computed,
            });
        }
        let icmp_type = Icmpv4Type::from(buf.get_u8());
        let code = buf.get_u8();
        buf.advance(2); // checksum
        let rest = buf.get_u32();
        Ok(Icmpv4Packet {
            icmp_type,
            code,
            rest,
            payload: buf.split_to(buf.len()),
        })
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn roundtrip_request_and_reply() {
        for pkt in [
            Icmpv4Packet::echo_request(0x1234, 1, b"ping".to_vec()),
            Icmpv4Packet::echo_reply(0x1234, 1, b"pong".to_vec()),
        ] {
            assert_eq!(Icmpv4Packet::from_slice(&pkt.to_bytes()).unwrap(), pkt);
        }
    }

    #[test]
    fn echo_accessors() {
        let pkt = Icmpv4Packet::echo_request(7, 9, Vec::new());
        assert_eq!(pkt.echo_id(), Some(7));
        assert_eq!(pkt.echo_seq(), Some(9));
        let other = Icmpv4Packet::new(Icmpv4Type::TimeExceeded, 0, 0, Vec::new());
        assert_eq!(other.echo_id(), None);
    }

    #[test]
    fn checksum_covers_payload() {
        let pkt = Icmpv4Packet::echo_reply(1, 1, b"abcd".to_vec());
        let mut wire = pkt.to_bytes().to_vec();
        let last = wire.len() - 1;
        wire[last] ^= 0x01;
        assert!(matches!(
            Icmpv4Packet::from_slice(&wire),
            Err(DecodeError::BadChecksum { .. })
        ));
    }

    #[test]
    fn type_numbers_roundtrip() {
        for n in 0..=255u8 {
            assert_eq!(Icmpv4Type::from(n).number(), n);
        }
    }
}
