//! Ethernet II frames — the wired side of a smart router deployment.

use bytes::{Buf, BufMut, Bytes, BytesMut};

use crate::addr::MacAddr;
use crate::codec::{ensure, Decode, Encode};
use crate::DecodeError;

const PROTO: &str = "ethernet";

/// EtherType for IPv4.
pub const ETHERTYPE_IPV4: u16 = 0x0800;
/// EtherType for IPv6.
pub(crate) const ETHERTYPE_IPV6: u16 = 0x86dd;

/// An Ethernet II frame.
///
/// # Examples
///
/// ```
/// use kalis_packets::ethernet::{EthernetFrame, ETHERTYPE_IPV4};
/// use kalis_packets::codec::{Decode, Encode};
/// use kalis_packets::MacAddr;
///
/// let frame = EthernetFrame::new(
///     MacAddr::from_index(1),
///     MacAddr::from_index(2),
///     ETHERTYPE_IPV4,
///     b"ip-datagram".to_vec(),
/// );
/// assert_eq!(EthernetFrame::from_slice(&frame.to_bytes())?, frame);
/// # Ok::<(), kalis_packets::DecodeError>(())
/// ```
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct EthernetFrame {
    /// Destination MAC.
    pub dst: MacAddr,
    /// Source MAC.
    pub src: MacAddr,
    /// EtherType of the payload.
    pub ethertype: u16,
    /// Payload bytes.
    pub payload: Bytes,
}

impl EthernetFrame {
    /// Build a frame.
    pub fn new(src: MacAddr, dst: MacAddr, ethertype: u16, payload: impl Into<Bytes>) -> Self {
        EthernetFrame {
            dst,
            src,
            ethertype,
            payload: payload.into(),
        }
    }
}

impl Encode for EthernetFrame {
    fn encode(&self, buf: &mut BytesMut) {
        buf.put_slice(&self.dst.0);
        buf.put_slice(&self.src.0);
        buf.put_u16(self.ethertype);
        buf.put_slice(&self.payload);
    }

    fn encoded_len(&self) -> usize {
        14 + self.payload.len()
    }
}

impl Decode for EthernetFrame {
    fn decode(buf: &mut Bytes) -> Result<Self, DecodeError> {
        ensure(buf, PROTO, 14)?;
        let mut dst = [0u8; 6];
        buf.copy_to_slice(&mut dst);
        let mut src = [0u8; 6];
        buf.copy_to_slice(&mut src);
        let ethertype = buf.get_u16();
        Ok(EthernetFrame {
            dst: MacAddr(dst),
            src: MacAddr(src),
            ethertype,
            payload: buf.split_to(buf.len()),
        })
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn roundtrip() {
        let frame = EthernetFrame::new(
            MacAddr::from_index(10),
            MacAddr::BROADCAST,
            ETHERTYPE_IPV6,
            b"v6".to_vec(),
        );
        assert_eq!(EthernetFrame::from_slice(&frame.to_bytes()).unwrap(), frame);
    }

    #[test]
    fn truncated_rejected() {
        assert!(EthernetFrame::from_slice(&[0u8; 13]).is_err());
    }
}
