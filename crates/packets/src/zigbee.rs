//! ZigBee network-layer (NWK) frames, carried in IEEE 802.15.4 data frames.

use bytes::{Buf, BufMut, Bytes, BytesMut};

use crate::addr::ShortAddr;
use crate::codec::{ensure, Decode, Encode};
use crate::DecodeError;

const PROTO: &str = "zigbee-nwk";

/// The ZigBee PRO protocol version carried in the NWK frame control.
pub(crate) const PROTOCOL_VERSION: u8 = 2;

/// A ZigBee NWK command payload.
///
/// Only the commands relevant to routing behaviour (and hence to routing
/// attacks such as sinkhole) are modelled; unknown command ids decode as
/// [`ZigbeeCommand::Other`].
#[derive(Debug, Clone, PartialEq, Eq)]
pub enum ZigbeeCommand {
    /// AODV-style route request flooded through the mesh.
    RouteRequest {
        /// Route request identifier.
        request_id: u8,
        /// Address whose route is sought.
        destination: ShortAddr,
        /// Accumulated path cost.
        path_cost: u8,
    },
    /// Route reply travelling back to the originator.
    RouteReply {
        /// Identifier of the request being answered.
        request_id: u8,
        /// Originator of the request.
        originator: ShortAddr,
        /// Responder (route destination).
        responder: ShortAddr,
        /// Path cost advertised by the responder. Abnormally low values
        /// are the signature of a sinkhole attack.
        path_cost: u8,
    },
    /// Periodic link status advertisement to one-hop neighbours.
    LinkStatus {
        /// `(neighbour, incoming cost, outgoing cost)` triples.
        entries: Vec<(ShortAddr, u8, u8)>,
    },
    /// A command this crate does not model further.
    Other {
        /// Raw NWK command identifier.
        command_id: u8,
        /// Raw command payload.
        payload: Bytes,
    },
}

impl ZigbeeCommand {
    fn command_id(&self) -> u8 {
        match self {
            ZigbeeCommand::RouteRequest { .. } => 0x01,
            ZigbeeCommand::RouteReply { .. } => 0x02,
            ZigbeeCommand::LinkStatus { .. } => 0x08,
            ZigbeeCommand::Other { command_id, .. } => *command_id,
        }
    }

    fn encode(&self, buf: &mut BytesMut) {
        buf.put_u8(self.command_id());
        match self {
            ZigbeeCommand::RouteRequest {
                request_id,
                destination,
                path_cost,
            } => {
                buf.put_u8(*request_id);
                buf.put_u16_le(destination.0);
                buf.put_u8(*path_cost);
            }
            ZigbeeCommand::RouteReply {
                request_id,
                originator,
                responder,
                path_cost,
            } => {
                buf.put_u8(*request_id);
                buf.put_u16_le(originator.0);
                buf.put_u16_le(responder.0);
                buf.put_u8(*path_cost);
            }
            ZigbeeCommand::LinkStatus { entries } => {
                buf.put_u8(entries.len() as u8);
                for (addr, incoming, outgoing) in entries {
                    buf.put_u16_le(addr.0);
                    buf.put_u8(*incoming);
                    buf.put_u8(*outgoing);
                }
            }
            ZigbeeCommand::Other { payload, .. } => buf.put_slice(payload),
        }
    }

    fn decode(buf: &mut Bytes) -> Result<Self, DecodeError> {
        ensure(buf, PROTO, 1)?;
        let id = buf.get_u8();
        match id {
            0x01 => {
                ensure(buf, PROTO, 4)?;
                Ok(ZigbeeCommand::RouteRequest {
                    request_id: buf.get_u8(),
                    destination: ShortAddr(buf.get_u16_le()),
                    path_cost: buf.get_u8(),
                })
            }
            0x02 => {
                ensure(buf, PROTO, 6)?;
                Ok(ZigbeeCommand::RouteReply {
                    request_id: buf.get_u8(),
                    originator: ShortAddr(buf.get_u16_le()),
                    responder: ShortAddr(buf.get_u16_le()),
                    path_cost: buf.get_u8(),
                })
            }
            0x08 => {
                ensure(buf, PROTO, 1)?;
                let count = buf.get_u8() as usize;
                ensure(buf, PROTO, count * 4)?;
                let mut entries = Vec::with_capacity(count);
                for _ in 0..count {
                    entries.push((ShortAddr(buf.get_u16_le()), buf.get_u8(), buf.get_u8()));
                }
                Ok(ZigbeeCommand::LinkStatus { entries })
            }
            other => Ok(ZigbeeCommand::Other {
                command_id: other,
                payload: buf.split_to(buf.len()),
            }),
        }
    }
}

/// The NWK frame body: application data or a routing command.
#[derive(Debug, Clone, PartialEq, Eq)]
pub enum ZigbeeBody {
    /// Application payload (APS frame, treated as opaque).
    Data(Bytes),
    /// NWK command.
    Command(ZigbeeCommand),
}

/// A ZigBee NWK frame.
///
/// # Examples
///
/// ```
/// use kalis_packets::zigbee::{ZigbeeBody, ZigbeeFrame};
/// use kalis_packets::codec::{Decode, Encode};
/// use kalis_packets::ShortAddr;
///
/// let frame = ZigbeeFrame::data(ShortAddr(1), ShortAddr(2), 3, b"app".to_vec());
/// let back = ZigbeeFrame::from_slice(&frame.to_bytes())?;
/// assert_eq!(back, frame);
/// # Ok::<(), kalis_packets::DecodeError>(())
/// ```
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct ZigbeeFrame {
    /// NWK destination.
    pub dst: ShortAddr,
    /// NWK source (the originator, which may be several MAC hops away).
    pub src: ShortAddr,
    /// Remaining hop radius.
    pub radius: u8,
    /// NWK sequence number.
    pub seq: u8,
    /// Whether NWK security is enabled (payload then opaque).
    pub security: bool,
    /// Frame body.
    pub body: ZigbeeBody,
}

impl ZigbeeFrame {
    /// Build a data frame with the default radius of 30.
    pub fn data(src: ShortAddr, dst: ShortAddr, seq: u8, payload: impl Into<Bytes>) -> Self {
        ZigbeeFrame {
            dst,
            src,
            radius: 30,
            seq,
            security: false,
            body: ZigbeeBody::Data(payload.into()),
        }
    }

    /// Build a command frame with the default radius of 30.
    pub fn command(src: ShortAddr, dst: ShortAddr, seq: u8, command: ZigbeeCommand) -> Self {
        ZigbeeFrame {
            dst,
            src,
            radius: 30,
            seq,
            security: false,
            body: ZigbeeBody::Command(command),
        }
    }

    /// Whether this frame carries a routing command (vs application data).
    pub fn is_routing(&self) -> bool {
        matches!(self.body, ZigbeeBody::Command(_))
    }
}

impl Encode for ZigbeeFrame {
    fn encode(&self, buf: &mut BytesMut) {
        let frame_type: u16 = match self.body {
            ZigbeeBody::Data(_) => 0,
            ZigbeeBody::Command(_) => 1,
        };
        let mut fc: u16 = frame_type;
        fc |= u16::from(PROTOCOL_VERSION) << 2;
        if self.security {
            fc |= 1 << 9;
        }
        buf.put_u16_le(fc);
        buf.put_u16_le(self.dst.0);
        buf.put_u16_le(self.src.0);
        buf.put_u8(self.radius);
        buf.put_u8(self.seq);
        match &self.body {
            ZigbeeBody::Data(payload) => buf.put_slice(payload),
            ZigbeeBody::Command(cmd) => cmd.encode(buf),
        }
    }
}

impl Decode for ZigbeeFrame {
    fn decode(buf: &mut Bytes) -> Result<Self, DecodeError> {
        ensure(buf, PROTO, 8)?;
        let fc = buf.get_u16_le();
        let frame_type = fc & 0x3;
        let version = ((fc >> 2) & 0xf) as u8;
        if version != PROTOCOL_VERSION {
            return Err(DecodeError::invalid(
                PROTO,
                "protocol_version",
                u64::from(version),
            ));
        }
        let security = fc & (1 << 9) != 0;
        let dst = ShortAddr(buf.get_u16_le());
        let src = ShortAddr(buf.get_u16_le());
        let radius = buf.get_u8();
        let seq = buf.get_u8();
        let body = match frame_type {
            0 => ZigbeeBody::Data(buf.split_to(buf.len())),
            1 => ZigbeeBody::Command(ZigbeeCommand::decode(buf)?),
            other => return Err(DecodeError::invalid(PROTO, "frame_type", u64::from(other))),
        };
        Ok(ZigbeeFrame {
            dst,
            src,
            radius,
            seq,
            security,
            body,
        })
    }
}

/// Quick structural test: does this MAC payload look like a ZigBee NWK
/// frame? Used by the capture demultiplexer.
pub(crate) fn looks_like_zigbee(payload: &[u8]) -> bool {
    if payload.len() < 8 {
        return false;
    }
    let fc = u16::from_le_bytes([payload[0], payload[1]]);
    let frame_type = fc & 0x3;
    let version = ((fc >> 2) & 0xf) as u8;
    frame_type <= 1 && version == PROTOCOL_VERSION
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn roundtrip_data() {
        let frame = ZigbeeFrame::data(ShortAddr(10), ShortAddr(20), 5, b"payload".to_vec());
        assert_eq!(ZigbeeFrame::from_slice(&frame.to_bytes()).unwrap(), frame);
    }

    #[test]
    fn roundtrip_route_request() {
        let frame = ZigbeeFrame::command(
            ShortAddr(1),
            ShortAddr::BROADCAST,
            9,
            ZigbeeCommand::RouteRequest {
                request_id: 3,
                destination: ShortAddr(7),
                path_cost: 12,
            },
        );
        assert_eq!(ZigbeeFrame::from_slice(&frame.to_bytes()).unwrap(), frame);
        assert!(frame.is_routing());
    }

    #[test]
    fn roundtrip_route_reply_and_link_status() {
        for cmd in [
            ZigbeeCommand::RouteReply {
                request_id: 1,
                originator: ShortAddr(2),
                responder: ShortAddr(3),
                path_cost: 0,
            },
            ZigbeeCommand::LinkStatus {
                entries: vec![(ShortAddr(4), 1, 2), (ShortAddr(5), 3, 4)],
            },
            ZigbeeCommand::Other {
                command_id: 0x99,
                payload: Bytes::from_static(b"raw"),
            },
        ] {
            let frame = ZigbeeFrame::command(ShortAddr(1), ShortAddr(2), 0, cmd);
            assert_eq!(ZigbeeFrame::from_slice(&frame.to_bytes()).unwrap(), frame);
        }
    }

    #[test]
    fn wrong_version_is_rejected() {
        let frame = ZigbeeFrame::data(ShortAddr(1), ShortAddr(2), 0, b"x".to_vec());
        let mut wire = frame.to_bytes().to_vec();
        // Overwrite the version bits with version 1.
        wire[0] = (wire[0] & !0x3c) | (1 << 2);
        assert!(matches!(
            ZigbeeFrame::from_slice(&wire),
            Err(DecodeError::InvalidField {
                field: "protocol_version",
                ..
            })
        ));
    }

    #[test]
    fn detector_accepts_real_frames_and_rejects_noise() {
        let frame = ZigbeeFrame::data(ShortAddr(1), ShortAddr(2), 0, b"x".to_vec());
        assert!(looks_like_zigbee(&frame.to_bytes()));
        assert!(!looks_like_zigbee(&[0xff; 12]));
        assert!(!looks_like_zigbee(&[0x00; 4]));
    }

    #[test]
    fn truncated_command_is_rejected() {
        let frame = ZigbeeFrame::command(
            ShortAddr(1),
            ShortAddr(2),
            0,
            ZigbeeCommand::RouteReply {
                request_id: 1,
                originator: ShortAddr(2),
                responder: ShortAddr(3),
                path_cost: 0,
            },
        );
        let wire = frame.to_bytes();
        assert!(ZigbeeFrame::from_slice(&wire[..wire.len() - 3]).is_err());
    }
}
