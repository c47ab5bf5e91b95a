//! RPL (RFC 6550) control messages, carried in ICMPv6 type 155.
//!
//! RPL presence is a multi-hop indicator for Topology Discovery, and DIO
//! rank advertisements are the observable for sinkhole detection in
//! RPL-routed networks.

use bytes::{Buf, BufMut, Bytes, BytesMut};

use crate::codec::{ensure, Decode, Encode};
use crate::DecodeError;

const PROTO: &str = "rpl";

/// The ICMPv6 type number assigned to RPL control messages.
pub(crate) const ICMPV6_RPL_TYPE: u8 = 155;

/// The rank of a DODAG root.
pub const ROOT_RANK: u16 = 256;

/// A RPL control message body.
#[derive(Debug, Clone, PartialEq, Eq)]
pub enum RplMessage {
    /// DODAG Information Solicitation (code 0x00).
    Dis,
    /// DODAG Information Object (code 0x01): the routing advertisement.
    Dio {
        /// RPL instance id.
        instance_id: u8,
        /// DODAG version number.
        version: u8,
        /// Advertised rank. A non-root advertising a rank at or near
        /// [`ROOT_RANK`] is the RPL sinkhole signature.
        rank: u16,
        /// DODAG identifier.
        dodag_id: [u8; 16],
    },
    /// Destination Advertisement Object (code 0x02).
    Dao {
        /// RPL instance id.
        instance_id: u8,
        /// DAO sequence number.
        sequence: u8,
        /// Advertised reachable prefix (compressed to 16 bytes here).
        target: [u8; 16],
    },
}

impl RplMessage {
    /// The ICMPv6 code for this message.
    pub fn code(&self) -> u8 {
        match self {
            RplMessage::Dis => 0x00,
            RplMessage::Dio { .. } => 0x01,
            RplMessage::Dao { .. } => 0x02,
        }
    }

    /// Encode the message body (after the ICMPv6 type/code/checksum).
    pub(crate) fn encode_body(&self, buf: &mut BytesMut) {
        match self {
            RplMessage::Dis => {
                buf.put_u16(0); // flags + reserved
            }
            RplMessage::Dio {
                instance_id,
                version,
                rank,
                dodag_id,
            } => {
                buf.put_u8(*instance_id);
                buf.put_u8(*version);
                buf.put_u16(*rank);
                buf.put_u32(0); // G/MOP/Prf, DTSN, flags, reserved
                buf.put_slice(dodag_id);
            }
            RplMessage::Dao {
                instance_id,
                sequence,
                target,
            } => {
                buf.put_u8(*instance_id);
                buf.put_u8(0); // flags
                buf.put_u8(0); // reserved
                buf.put_u8(*sequence);
                buf.put_slice(target);
            }
        }
    }

    /// Decode the message body given the ICMPv6 `code`.
    ///
    /// # Errors
    ///
    /// Returns [`DecodeError`] for truncated bodies or unknown codes.
    pub(crate) fn decode_body(code: u8, buf: &mut Bytes) -> Result<Self, DecodeError> {
        match code {
            0x00 => {
                ensure(buf, PROTO, 2)?;
                buf.advance(2);
                Ok(RplMessage::Dis)
            }
            0x01 => {
                ensure(buf, PROTO, 24)?;
                let instance_id = buf.get_u8();
                let version = buf.get_u8();
                let rank = buf.get_u16();
                buf.advance(4);
                let mut dodag_id = [0u8; 16];
                buf.copy_to_slice(&mut dodag_id);
                Ok(RplMessage::Dio {
                    instance_id,
                    version,
                    rank,
                    dodag_id,
                })
            }
            0x02 => {
                ensure(buf, PROTO, 20)?;
                let instance_id = buf.get_u8();
                buf.advance(2);
                let sequence = buf.get_u8();
                let mut target = [0u8; 16];
                buf.copy_to_slice(&mut target);
                Ok(RplMessage::Dao {
                    instance_id,
                    sequence,
                    target,
                })
            }
            other => Err(DecodeError::invalid(PROTO, "code", u64::from(other))),
        }
    }
}

impl Encode for RplMessage {
    fn encode(&self, buf: &mut BytesMut) {
        buf.put_u8(self.code());
        self.encode_body(buf);
    }
}

impl Decode for RplMessage {
    fn decode(buf: &mut Bytes) -> Result<Self, DecodeError> {
        ensure(buf, PROTO, 1)?;
        let code = buf.get_u8();
        Self::decode_body(code, buf)
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn roundtrip_all_codes() {
        let msgs = [
            RplMessage::Dis,
            RplMessage::Dio {
                instance_id: 1,
                version: 2,
                rank: 512,
                dodag_id: [9; 16],
            },
            RplMessage::Dao {
                instance_id: 1,
                sequence: 3,
                target: [7; 16],
            },
        ];
        for msg in msgs {
            assert_eq!(RplMessage::from_slice(&msg.to_bytes()).unwrap(), msg);
        }
    }

    #[test]
    fn unknown_code_rejected() {
        assert!(matches!(
            RplMessage::from_slice(&[0x55, 0, 0]),
            Err(DecodeError::InvalidField { field: "code", .. })
        ));
    }

    #[test]
    fn truncated_dio_rejected() {
        let msg = RplMessage::Dio {
            instance_id: 1,
            version: 1,
            rank: 256,
            dodag_id: [0; 16],
        };
        let wire = msg.to_bytes();
        assert!(RplMessage::from_slice(&wire[..10]).is_err());
    }
}
