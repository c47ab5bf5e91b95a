//! IPv6 datagrams.

use std::net::Ipv6Addr;

use bytes::{Buf, BufMut, Bytes, BytesMut};

use crate::codec::{ensure, Decode, Encode};
use crate::ipv4::IpProtocol;
use crate::DecodeError;

const PROTO: &str = "ipv6";

/// An IPv6 datagram (fixed header, no extension headers).
///
/// # Examples
///
/// ```
/// use kalis_packets::ipv6::Ipv6Packet;
/// use kalis_packets::ipv4::IpProtocol;
/// use kalis_packets::codec::{Decode, Encode};
///
/// let pkt = Ipv6Packet::new("fe80::1".parse()?, "fe80::2".parse()?, IpProtocol::Icmpv6, vec![1, 2]);
/// assert_eq!(Ipv6Packet::from_slice(&pkt.to_bytes())?, pkt);
/// # Ok::<(), Box<dyn std::error::Error>>(())
/// ```
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct Ipv6Packet {
    /// Hop limit.
    pub hop_limit: u8,
    /// Next header (upper-layer protocol).
    pub next_header: IpProtocol,
    /// Source address.
    pub src: Ipv6Addr,
    /// Destination address.
    pub dst: Ipv6Addr,
    /// Upper-layer payload.
    pub payload: Bytes,
}

impl Ipv6Packet {
    /// Build a datagram with hop limit 64.
    pub fn new(
        src: Ipv6Addr,
        dst: Ipv6Addr,
        next_header: IpProtocol,
        payload: impl Into<Bytes>,
    ) -> Self {
        Ipv6Packet {
            hop_limit: 64,
            next_header,
            src,
            dst,
            payload: payload.into(),
        }
    }
}

impl Encode for Ipv6Packet {
    fn encode(&self, buf: &mut BytesMut) {
        buf.put_u32(6 << 28); // version 6, no traffic class / flow label
        buf.put_u16(self.payload.len() as u16);
        buf.put_u8(self.next_header.number());
        buf.put_u8(self.hop_limit);
        buf.put_slice(&self.src.octets());
        buf.put_slice(&self.dst.octets());
        buf.put_slice(&self.payload);
    }

    fn encoded_len(&self) -> usize {
        40 + self.payload.len()
    }
}

impl Decode for Ipv6Packet {
    fn decode(buf: &mut Bytes) -> Result<Self, DecodeError> {
        ensure(buf, PROTO, 40)?;
        let first = buf.get_u32();
        if first >> 28 != 6 {
            return Err(DecodeError::invalid(
                PROTO,
                "version",
                u64::from(first >> 28),
            ));
        }
        let payload_len = buf.get_u16() as usize;
        let next_header = IpProtocol::from(buf.get_u8());
        let hop_limit = buf.get_u8();
        let mut src = [0u8; 16];
        buf.copy_to_slice(&mut src);
        let mut dst = [0u8; 16];
        buf.copy_to_slice(&mut dst);
        if payload_len > buf.remaining() {
            return Err(DecodeError::LengthMismatch {
                protocol: PROTO,
                declared: payload_len,
                actual: buf.remaining(),
            });
        }
        let payload = buf.split_to(payload_len);
        Ok(Ipv6Packet {
            hop_limit,
            next_header,
            src: Ipv6Addr::from(src),
            dst: Ipv6Addr::from(dst),
            payload,
        })
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn roundtrip() {
        let pkt = Ipv6Packet::new(
            "2001:db8::1".parse().unwrap(),
            "2001:db8::2".parse().unwrap(),
            IpProtocol::Udp,
            b"data".to_vec(),
        );
        let mut wire = pkt.to_bytes();
        assert_eq!(wire.len(), pkt.encoded_len());
        assert_eq!(Ipv6Packet::decode(&mut wire).unwrap(), pkt);
    }

    #[test]
    fn wrong_version_rejected() {
        let pkt = Ipv6Packet::new(
            Ipv6Addr::LOCALHOST,
            Ipv6Addr::LOCALHOST,
            IpProtocol::Tcp,
            vec![],
        );
        let mut wire = pkt.to_bytes().to_vec();
        wire[0] = 0x45;
        assert!(matches!(
            Ipv6Packet::from_slice(&wire),
            Err(DecodeError::InvalidField {
                field: "version",
                ..
            })
        ));
    }

    #[test]
    fn declared_length_must_fit() {
        let pkt = Ipv6Packet::new(
            Ipv6Addr::LOCALHOST,
            Ipv6Addr::LOCALHOST,
            IpProtocol::Tcp,
            vec![1, 2, 3, 4],
        );
        let wire = pkt.to_bytes();
        assert!(matches!(
            Ipv6Packet::from_slice(&wire[..41]),
            Err(DecodeError::LengthMismatch { .. })
        ));
    }
}
