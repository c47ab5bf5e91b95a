//! IPv4 datagrams.

use std::net::Ipv4Addr;

use bytes::{Buf, BufMut, Bytes, BytesMut};

use crate::codec::{ensure, internet_checksum, Decode, Encode};
use crate::DecodeError;

const PROTO: &str = "ipv4";

/// IP protocol numbers this crate demultiplexes on.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash)]
pub enum IpProtocol {
    /// ICMP (1).
    Icmp,
    /// TCP (6).
    Tcp,
    /// UDP (17).
    Udp,
    /// ICMPv6 (58) — only meaningful inside IPv6.
    Icmpv6,
    /// Any other protocol number.
    Other(u8),
}

impl IpProtocol {
    /// The wire protocol number.
    pub fn number(self) -> u8 {
        match self {
            IpProtocol::Icmp => 1,
            IpProtocol::Tcp => 6,
            IpProtocol::Udp => 17,
            IpProtocol::Icmpv6 => 58,
            IpProtocol::Other(n) => n,
        }
    }
}

impl From<u8> for IpProtocol {
    fn from(value: u8) -> Self {
        match value {
            1 => IpProtocol::Icmp,
            6 => IpProtocol::Tcp,
            17 => IpProtocol::Udp,
            58 => IpProtocol::Icmpv6,
            other => IpProtocol::Other(other),
        }
    }
}

/// An IPv4 datagram (no options).
///
/// The header checksum is computed on encode and verified on decode.
///
/// # Examples
///
/// ```
/// use kalis_packets::ipv4::{IpProtocol, Ipv4Packet};
/// use kalis_packets::codec::{Decode, Encode};
///
/// let pkt = Ipv4Packet::new(
///     "10.0.0.1".parse()?,
///     "10.0.0.2".parse()?,
///     IpProtocol::Udp,
///     b"payload".to_vec(),
/// );
/// let back = Ipv4Packet::from_slice(&pkt.to_bytes())?;
/// assert_eq!(back, pkt);
/// # Ok::<(), Box<dyn std::error::Error>>(())
/// ```
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct Ipv4Packet {
    /// Time to live.
    pub ttl: u8,
    /// Upper-layer protocol.
    pub protocol: IpProtocol,
    /// Source address. Spoofable — the whole point of Smurf detection.
    pub src: Ipv4Addr,
    /// Destination address.
    pub dst: Ipv4Addr,
    /// Identification field (used by fragment reassembly).
    pub identification: u16,
    /// Upper-layer payload.
    pub payload: Bytes,
}

impl Ipv4Packet {
    /// Build a datagram with TTL 64.
    pub fn new(
        src: Ipv4Addr,
        dst: Ipv4Addr,
        protocol: IpProtocol,
        payload: impl Into<Bytes>,
    ) -> Self {
        Ipv4Packet {
            ttl: 64,
            protocol,
            src,
            dst,
            identification: 0,
            payload: payload.into(),
        }
    }
}

impl Encode for Ipv4Packet {
    fn encode(&self, buf: &mut BytesMut) {
        let start = buf.len();
        let total_len = 20 + self.payload.len();
        buf.put_u8(0x45); // version 4, IHL 5
        buf.put_u8(0); // DSCP/ECN
        buf.put_u16(total_len as u16);
        buf.put_u16(self.identification);
        buf.put_u16(0); // flags/fragment offset
        buf.put_u8(self.ttl);
        buf.put_u8(self.protocol.number());
        buf.put_u16(0); // checksum placeholder
        buf.put_slice(&self.src.octets());
        buf.put_slice(&self.dst.octets());
        let sum = internet_checksum(&buf[start..start + 20]);
        buf[start + 10..start + 12].copy_from_slice(&sum.to_be_bytes());
        buf.put_slice(&self.payload);
    }

    fn encoded_len(&self) -> usize {
        20 + self.payload.len()
    }
}

impl Decode for Ipv4Packet {
    fn decode(buf: &mut Bytes) -> Result<Self, DecodeError> {
        ensure(buf, PROTO, 20)?;
        let header = &buf[..20];
        let computed = internet_checksum(header);
        if computed != 0 {
            let found = u16::from_be_bytes([header[10], header[11]]);
            return Err(DecodeError::BadChecksum {
                protocol: PROTO,
                found,
                computed,
            });
        }
        let ver_ihl = buf.get_u8();
        if ver_ihl >> 4 != 4 {
            return Err(DecodeError::invalid(
                PROTO,
                "version",
                u64::from(ver_ihl >> 4),
            ));
        }
        if ver_ihl & 0x0f != 5 {
            return Err(DecodeError::invalid(
                PROTO,
                "ihl",
                u64::from(ver_ihl & 0x0f),
            ));
        }
        buf.advance(1); // DSCP/ECN
        let total_len = buf.get_u16() as usize;
        let identification = buf.get_u16();
        buf.advance(2); // flags/fragment offset
        let ttl = buf.get_u8();
        let protocol = IpProtocol::from(buf.get_u8());
        buf.advance(2); // checksum (already verified)
        let mut src = [0u8; 4];
        buf.copy_to_slice(&mut src);
        let mut dst = [0u8; 4];
        buf.copy_to_slice(&mut dst);
        if total_len < 20 || total_len - 20 > buf.remaining() {
            return Err(DecodeError::LengthMismatch {
                protocol: PROTO,
                declared: total_len,
                actual: 20 + buf.remaining(),
            });
        }
        let payload = buf.split_to(total_len - 20);
        Ok(Ipv4Packet {
            ttl,
            protocol,
            src: Ipv4Addr::from(src),
            dst: Ipv4Addr::from(dst),
            identification,
            payload,
        })
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn sample() -> Ipv4Packet {
        Ipv4Packet::new(
            Ipv4Addr::new(192, 168, 1, 10),
            Ipv4Addr::new(192, 168, 1, 1),
            IpProtocol::Tcp,
            b"segment".to_vec(),
        )
    }

    #[test]
    fn roundtrip() {
        let pkt = sample();
        let mut wire = pkt.to_bytes();
        assert_eq!(wire.len(), pkt.encoded_len());
        assert_eq!(Ipv4Packet::decode(&mut wire).unwrap(), pkt);
    }

    #[test]
    fn header_checksum_detects_corruption() {
        let mut wire = sample().to_bytes().to_vec();
        wire[8] ^= 0x01; // flip a TTL bit
        assert!(matches!(
            Ipv4Packet::from_slice(&wire),
            Err(DecodeError::BadChecksum { .. })
        ));
    }

    #[test]
    fn payload_corruption_is_not_header_checksummed() {
        // IPv4 only checksums the header; payload integrity is upper-layer.
        let mut wire = sample().to_bytes().to_vec();
        let last = wire.len() - 1;
        wire[last] ^= 0xff;
        assert!(Ipv4Packet::from_slice(&wire).is_ok());
    }

    #[test]
    fn total_length_must_cover_payload() {
        let pkt = sample();
        let wire = pkt.to_bytes();
        // Chop off payload bytes: declared total_len now exceeds actual.
        assert!(matches!(
            Ipv4Packet::from_slice(&wire[..22]).unwrap_err(),
            // Header checksum still passes (header untouched), length fails.
            DecodeError::LengthMismatch { .. }
        ));
    }

    #[test]
    fn trailing_bytes_are_left_in_buffer() {
        let pkt = sample();
        let mut wire = BytesMut::new();
        pkt.encode(&mut wire);
        wire.put_slice(b"next-packet");
        let mut buf = wire.freeze();
        assert_eq!(Ipv4Packet::decode(&mut buf).unwrap(), pkt);
        assert_eq!(&buf[..], b"next-packet");
    }

    #[test]
    fn protocol_numbers_roundtrip() {
        for n in 0..=255u8 {
            assert_eq!(IpProtocol::from(n).number(), n);
        }
    }
}
