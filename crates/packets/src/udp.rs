//! UDP datagrams.

use bytes::{Buf, BufMut, Bytes, BytesMut};

use crate::codec::{ensure, Decode, Encode};
use crate::DecodeError;

const PROTO: &str = "udp";

/// A UDP datagram.
///
/// As with [`crate::tcp::TcpSegment`], the checksum field is not computed:
/// pseudo-header checksums need the enclosing IP header, which a layered
/// sniffer codec deliberately does not see.
///
/// # Examples
///
/// ```
/// use kalis_packets::udp::UdpPacket;
/// use kalis_packets::codec::{Decode, Encode};
///
/// let dgram = UdpPacket::new(1234, 53, b"query".to_vec());
/// assert_eq!(UdpPacket::from_slice(&dgram.to_bytes())?, dgram);
/// # Ok::<(), kalis_packets::DecodeError>(())
/// ```
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct UdpPacket {
    /// Source port.
    pub src_port: u16,
    /// Destination port.
    pub dst_port: u16,
    /// Payload bytes.
    pub payload: Bytes,
}

impl UdpPacket {
    /// Build a datagram.
    pub fn new(src_port: u16, dst_port: u16, payload: impl Into<Bytes>) -> Self {
        UdpPacket {
            src_port,
            dst_port,
            payload: payload.into(),
        }
    }
}

impl Encode for UdpPacket {
    fn encode(&self, buf: &mut BytesMut) {
        buf.put_u16(self.src_port);
        buf.put_u16(self.dst_port);
        buf.put_u16((8 + self.payload.len()) as u16);
        buf.put_u16(0); // checksum (not computed; see type docs)
        buf.put_slice(&self.payload);
    }

    fn encoded_len(&self) -> usize {
        8 + self.payload.len()
    }
}

impl Decode for UdpPacket {
    fn decode(buf: &mut Bytes) -> Result<Self, DecodeError> {
        ensure(buf, PROTO, 8)?;
        let src_port = buf.get_u16();
        let dst_port = buf.get_u16();
        let length = buf.get_u16() as usize;
        buf.advance(2); // checksum
        if length < 8 || length - 8 > buf.remaining() {
            return Err(DecodeError::LengthMismatch {
                protocol: PROTO,
                declared: length,
                actual: 8 + buf.remaining(),
            });
        }
        Ok(UdpPacket {
            src_port,
            dst_port,
            payload: buf.split_to(length - 8),
        })
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn roundtrip() {
        let dgram = UdpPacket::new(5683, 5683, b"coap-msg".to_vec());
        let mut wire = dgram.to_bytes();
        assert_eq!(wire.len(), dgram.encoded_len());
        assert_eq!(UdpPacket::decode(&mut wire).unwrap(), dgram);
    }

    #[test]
    fn empty_payload_roundtrip() {
        let dgram = UdpPacket::new(1, 2, Vec::new());
        assert_eq!(UdpPacket::from_slice(&dgram.to_bytes()).unwrap(), dgram);
    }

    #[test]
    fn bogus_length_rejected() {
        let dgram = UdpPacket::new(1, 2, b"abc".to_vec());
        let mut wire = dgram.to_bytes().to_vec();
        wire[4] = 0xff;
        wire[5] = 0xff;
        assert!(matches!(
            UdpPacket::from_slice(&wire),
            Err(DecodeError::LengthMismatch { .. })
        ));
    }

    #[test]
    fn undersized_length_rejected() {
        let dgram = UdpPacket::new(1, 2, b"abc".to_vec());
        let mut wire = dgram.to_bytes().to_vec();
        wire[4] = 0;
        wire[5] = 4; // < 8
        assert!(UdpPacket::from_slice(&wire).is_err());
    }
}
