//! TinyOS Active Messages carrying the Collection Tree Protocol (CTP),
//! the traffic spoken by the paper's six-mote TelosB WSN.
//!
//! Frame layout follows TEP 123: a TinyOS dispatch byte (`0x3f`), the
//! Active Message id (`0x71` for CTP data, `0x70` for CTP routing beacons),
//! then the CTP header.

use bytes::{Buf, BufMut, Bytes, BytesMut};

use crate::addr::ShortAddr;
use crate::codec::{ensure, Decode, Encode};
use crate::DecodeError;

const PROTO: &str = "ctp";

/// TinyOS dispatch byte identifying a non-6LoWPAN TinyOS frame.
pub(crate) const TINYOS_DISPATCH: u8 = 0x3f;
/// Active Message id for CTP routing beacons.
pub(crate) const AM_CTP_ROUTING: u8 = 0x70;
/// Active Message id for CTP data frames.
pub(crate) const AM_CTP_DATA: u8 = 0x71;

/// A CTP data frame (TEP 123 §3.2).
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct CtpData {
    /// Routing-pull bit.
    pub pull: bool,
    /// Congestion bit.
    pub congestion: bool,
    /// Time-has-lived: incremented at every hop, so an observer can infer
    /// multi-hop forwarding from THL > 0.
    pub thl: u8,
    /// The sender's current route ETX estimate.
    pub etx: u16,
    /// Originating node.
    pub origin: ShortAddr,
    /// Origin sequence number.
    pub origin_seq: u8,
    /// Collection (AM) id of the consumer.
    pub collect_id: u8,
    /// Application payload.
    pub payload: Bytes,
}

/// A CTP routing beacon (TEP 123 §3.3).
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct CtpRoutingBeacon {
    /// Routing-pull bit.
    pub pull: bool,
    /// Congestion bit.
    pub congestion: bool,
    /// The advertised parent in the collection tree.
    pub parent: ShortAddr,
    /// The advertised path ETX. A node advertising ETX 0 without being the
    /// root is the signature of a sinkhole attack.
    pub etx: u16,
}

/// Either kind of CTP frame, wrapped in its TinyOS Active Message header.
///
/// # Examples
///
/// ```
/// use kalis_packets::ctp::{CtpData, CtpFrame};
/// use kalis_packets::codec::{Decode, Encode};
/// use kalis_packets::ShortAddr;
///
/// let frame = CtpFrame::Data(CtpData {
///     pull: false,
///     congestion: false,
///     thl: 2,
///     etx: 30,
///     origin: ShortAddr(5),
///     origin_seq: 9,
///     collect_id: 0x20,
///     payload: b"reading".to_vec().into(),
/// });
/// let back = CtpFrame::from_slice(&frame.to_bytes())?;
/// assert_eq!(back, frame);
/// # Ok::<(), kalis_packets::DecodeError>(())
/// ```
#[derive(Debug, Clone, PartialEq, Eq)]
pub enum CtpFrame {
    /// A data frame travelling up the collection tree.
    Data(CtpData),
    /// A routing beacon.
    Routing(CtpRoutingBeacon),
}

impl CtpFrame {
    /// Convenience constructor for a data frame with sane defaults.
    pub fn data(origin: ShortAddr, origin_seq: u8, thl: u8, payload: impl Into<Bytes>) -> Self {
        CtpFrame::Data(CtpData {
            pull: false,
            congestion: false,
            thl,
            etx: 10,
            origin,
            origin_seq,
            collect_id: 0x20,
            payload: payload.into(),
        })
    }

    /// Convenience constructor for a routing beacon.
    pub fn beacon(parent: ShortAddr, etx: u16) -> Self {
        CtpFrame::Routing(CtpRoutingBeacon {
            pull: false,
            congestion: false,
            parent,
            etx,
        })
    }

    /// The originating node for data frames.
    pub fn origin(&self) -> Option<ShortAddr> {
        match self {
            CtpFrame::Data(d) => Some(d.origin),
            CtpFrame::Routing(_) => None,
        }
    }
}

fn options_byte(pull: bool, congestion: bool) -> u8 {
    (u8::from(pull) << 7) | (u8::from(congestion) << 6)
}

impl Encode for CtpFrame {
    fn encode(&self, buf: &mut BytesMut) {
        buf.put_u8(TINYOS_DISPATCH);
        match self {
            CtpFrame::Data(d) => {
                buf.put_u8(AM_CTP_DATA);
                buf.put_u8(options_byte(d.pull, d.congestion));
                buf.put_u8(d.thl);
                buf.put_u16(d.etx);
                buf.put_u16(d.origin.0);
                buf.put_u8(d.origin_seq);
                buf.put_u8(d.collect_id);
                buf.put_slice(&d.payload);
            }
            CtpFrame::Routing(r) => {
                buf.put_u8(AM_CTP_ROUTING);
                buf.put_u8(options_byte(r.pull, r.congestion));
                buf.put_u16(r.parent.0);
                buf.put_u16(r.etx);
            }
        }
    }
}

impl Decode for CtpFrame {
    fn decode(buf: &mut Bytes) -> Result<Self, DecodeError> {
        ensure(buf, PROTO, 2)?;
        let dispatch = buf.get_u8();
        if dispatch != TINYOS_DISPATCH {
            return Err(DecodeError::UnknownDispatch {
                protocol: PROTO,
                dispatch,
            });
        }
        let am_id = buf.get_u8();
        match am_id {
            AM_CTP_DATA => {
                ensure(buf, PROTO, 8)?;
                let options = buf.get_u8();
                let thl = buf.get_u8();
                let etx = buf.get_u16();
                let origin = ShortAddr(buf.get_u16());
                let origin_seq = buf.get_u8();
                let collect_id = buf.get_u8();
                Ok(CtpFrame::Data(CtpData {
                    pull: options & 0x80 != 0,
                    congestion: options & 0x40 != 0,
                    thl,
                    etx,
                    origin,
                    origin_seq,
                    collect_id,
                    payload: buf.split_to(buf.len()),
                }))
            }
            AM_CTP_ROUTING => {
                ensure(buf, PROTO, 5)?;
                let options = buf.get_u8();
                let parent = ShortAddr(buf.get_u16());
                let etx = buf.get_u16();
                Ok(CtpFrame::Routing(CtpRoutingBeacon {
                    pull: options & 0x80 != 0,
                    congestion: options & 0x40 != 0,
                    parent,
                    etx,
                }))
            }
            other => Err(DecodeError::invalid(PROTO, "am_id", u64::from(other))),
        }
    }
}

/// Quick structural test: does this MAC payload look like a TinyOS/CTP
/// frame? Used by the capture demultiplexer.
pub(crate) fn looks_like_ctp(payload: &[u8]) -> bool {
    payload.len() >= 2
        && payload[0] == TINYOS_DISPATCH
        && (payload[1] == AM_CTP_DATA || payload[1] == AM_CTP_ROUTING)
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn roundtrip_data() {
        let frame = CtpFrame::data(ShortAddr(3), 17, 4, b"t=21.5C".to_vec());
        assert_eq!(CtpFrame::from_slice(&frame.to_bytes()).unwrap(), frame);
    }

    #[test]
    fn roundtrip_beacon() {
        let frame = CtpFrame::beacon(ShortAddr(1), 42);
        assert_eq!(CtpFrame::from_slice(&frame.to_bytes()).unwrap(), frame);
    }

    #[test]
    fn option_bits_roundtrip() {
        let frame = CtpFrame::Data(CtpData {
            pull: true,
            congestion: true,
            thl: 0,
            etx: 0xffff,
            origin: ShortAddr(0),
            origin_seq: 0,
            collect_id: 0,
            payload: Bytes::new(),
        });
        assert_eq!(CtpFrame::from_slice(&frame.to_bytes()).unwrap(), frame);
    }

    #[test]
    fn wrong_dispatch_is_unknown() {
        assert!(matches!(
            CtpFrame::from_slice(&[0x41, AM_CTP_DATA]),
            Err(DecodeError::UnknownDispatch { .. })
        ));
    }

    #[test]
    fn unknown_am_id_is_invalid() {
        assert!(matches!(
            CtpFrame::from_slice(&[TINYOS_DISPATCH, 0x55, 0, 0, 0, 0, 0, 0, 0, 0]),
            Err(DecodeError::InvalidField { field: "am_id", .. })
        ));
    }

    #[test]
    fn detector_matches_both_frame_kinds() {
        assert!(looks_like_ctp(
            &CtpFrame::beacon(ShortAddr(1), 1).to_bytes()
        ));
        assert!(looks_like_ctp(
            &CtpFrame::data(ShortAddr(1), 0, 0, b"".to_vec()).to_bytes()
        ));
        assert!(!looks_like_ctp(&[0x3f]));
        assert!(!looks_like_ctp(&[0x3f, 0x10]));
    }
}
