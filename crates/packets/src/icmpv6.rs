//! ICMPv6 messages, including echo and the RPL control message (type 155).

use bytes::{Buf, BufMut, Bytes, BytesMut};

use crate::codec::{ensure, internet_checksum, Decode, Encode};
use crate::rpl::{RplMessage, ICMPV6_RPL_TYPE};
use crate::DecodeError;

const PROTO: &str = "icmpv6";

/// A decoded ICMPv6 message.
///
/// The checksum is computed over the ICMPv6 message alone (the pseudo-header
/// contribution needs the enclosing IPv6 header, which this layered codec
/// does not see; the simplification is applied consistently on both encode
/// and decode).
///
/// # Examples
///
/// ```
/// use kalis_packets::icmpv6::Icmpv6Packet;
/// use kalis_packets::codec::{Decode, Encode};
///
/// let ping = Icmpv6Packet::EchoRequest { id: 1, seq: 2, data: b"x".to_vec().into() };
/// assert_eq!(Icmpv6Packet::from_slice(&ping.to_bytes())?, ping);
/// # Ok::<(), kalis_packets::DecodeError>(())
/// ```
#[derive(Debug, Clone, PartialEq, Eq)]
pub enum Icmpv6Packet {
    /// Echo Request (128).
    EchoRequest {
        /// Echo identifier.
        id: u16,
        /// Echo sequence number.
        seq: u16,
        /// Echo data.
        data: Bytes,
    },
    /// Echo Reply (129).
    EchoReply {
        /// Echo identifier.
        id: u16,
        /// Echo sequence number.
        seq: u16,
        /// Echo data.
        data: Bytes,
    },
    /// RPL control message (155).
    Rpl(RplMessage),
    /// Any other ICMPv6 message, carried opaquely.
    Other {
        /// ICMPv6 type.
        icmp_type: u8,
        /// ICMPv6 code.
        code: u8,
        /// Message body.
        body: Bytes,
    },
}

impl Icmpv6Packet {
    /// The ICMPv6 type number.
    pub(crate) fn type_number(&self) -> u8 {
        match self {
            Icmpv6Packet::EchoRequest { .. } => 128,
            Icmpv6Packet::EchoReply { .. } => 129,
            Icmpv6Packet::Rpl(_) => ICMPV6_RPL_TYPE,
            Icmpv6Packet::Other { icmp_type, .. } => *icmp_type,
        }
    }
}

impl Encode for Icmpv6Packet {
    fn encode(&self, buf: &mut BytesMut) {
        let start = buf.len();
        buf.put_u8(self.type_number());
        match self {
            Icmpv6Packet::EchoRequest { id, seq, data }
            | Icmpv6Packet::EchoReply { id, seq, data } => {
                buf.put_u8(0); // code
                buf.put_u16(0); // checksum placeholder
                buf.put_u16(*id);
                buf.put_u16(*seq);
                buf.put_slice(data);
            }
            Icmpv6Packet::Rpl(msg) => {
                buf.put_u8(msg.code());
                buf.put_u16(0);
                msg.encode_body(buf);
            }
            Icmpv6Packet::Other { code, body, .. } => {
                buf.put_u8(*code);
                buf.put_u16(0);
                buf.put_slice(body);
            }
        }
        let sum = internet_checksum(&buf[start..]);
        buf[start + 2..start + 4].copy_from_slice(&sum.to_be_bytes());
    }
}

impl Decode for Icmpv6Packet {
    fn decode(buf: &mut Bytes) -> Result<Self, DecodeError> {
        ensure(buf, PROTO, 4)?;
        let computed = internet_checksum(&buf[..]);
        if computed != 0 {
            let found = u16::from_be_bytes([buf[2], buf[3]]);
            return Err(DecodeError::BadChecksum {
                protocol: PROTO,
                found,
                computed,
            });
        }
        let icmp_type = buf.get_u8();
        let code = buf.get_u8();
        buf.advance(2); // checksum
        match icmp_type {
            128 | 129 => {
                ensure(buf, PROTO, 4)?;
                let id = buf.get_u16();
                let seq = buf.get_u16();
                let data = buf.split_to(buf.len());
                Ok(if icmp_type == 128 {
                    Icmpv6Packet::EchoRequest { id, seq, data }
                } else {
                    Icmpv6Packet::EchoReply { id, seq, data }
                })
            }
            t if t == ICMPV6_RPL_TYPE => Ok(Icmpv6Packet::Rpl(RplMessage::decode_body(code, buf)?)),
            other => Ok(Icmpv6Packet::Other {
                icmp_type: other,
                code,
                body: buf.split_to(buf.len()),
            }),
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::rpl::RplMessage;

    #[test]
    fn roundtrip_echo() {
        for pkt in [
            Icmpv6Packet::EchoRequest {
                id: 4,
                seq: 5,
                data: Bytes::from_static(b"ping6"),
            },
            Icmpv6Packet::EchoReply {
                id: 4,
                seq: 5,
                data: Bytes::from_static(b"pong6"),
            },
        ] {
            assert_eq!(Icmpv6Packet::from_slice(&pkt.to_bytes()).unwrap(), pkt);
        }
    }

    #[test]
    fn roundtrip_rpl_dio() {
        let pkt = Icmpv6Packet::Rpl(RplMessage::Dio {
            instance_id: 0,
            version: 1,
            rank: 768,
            dodag_id: [3; 16],
        });
        assert_eq!(Icmpv6Packet::from_slice(&pkt.to_bytes()).unwrap(), pkt);
        assert_eq!(pkt.type_number(), ICMPV6_RPL_TYPE);
    }

    #[test]
    fn roundtrip_other() {
        let pkt = Icmpv6Packet::Other {
            icmp_type: 135, // neighbor solicitation
            code: 0,
            body: Bytes::from_static(&[0; 20]),
        };
        assert_eq!(Icmpv6Packet::from_slice(&pkt.to_bytes()).unwrap(), pkt);
    }

    #[test]
    fn corruption_detected() {
        let pkt = Icmpv6Packet::EchoRequest {
            id: 1,
            seq: 1,
            data: Bytes::from_static(b"zz"),
        };
        let mut wire = pkt.to_bytes().to_vec();
        wire[5] ^= 0x80;
        assert!(matches!(
            Icmpv6Packet::from_slice(&wire),
            Err(DecodeError::BadChecksum { .. })
        ));
    }
}
