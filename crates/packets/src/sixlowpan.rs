//! 6LoWPAN adaptation-layer frames (RFC 4944 / RFC 6282, simplified).
//!
//! The observables Kalis cares about are modelled faithfully: the dispatch
//! byte, the **mesh header** (whose presence reveals mesh-under multi-hop
//! forwarding), fragmentation headers, and whether the inner IPv6 datagram
//! is uncompressed (`0x41`) or IPHC-compressed.

use bytes::{Buf, BufMut, Bytes, BytesMut};

use crate::addr::ShortAddr;
use crate::codec::{ensure, Decode, Encode};
use crate::DecodeError;

const PROTO: &str = "6lowpan";

/// Dispatch byte for an uncompressed IPv6 datagram.
pub(crate) const DISPATCH_IPV6: u8 = 0x41;

/// The RFC 4944 mesh header: who originated the frame and who it is
/// ultimately for, under mesh-under forwarding.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct MeshHeader {
    /// Hops left (decremented at each forwarder).
    pub hops_left: u8,
    /// Mesh originator (short address form).
    pub originator: ShortAddr,
    /// Final mesh destination (short address form).
    pub final_dst: ShortAddr,
}

/// An RFC 4944 fragmentation header.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum FragHeader {
    /// First fragment: total datagram size and tag.
    First {
        /// Size of the full, unfragmented datagram.
        datagram_size: u16,
        /// Tag shared by all fragments of one datagram.
        datagram_tag: u16,
    },
    /// Subsequent fragment: size, tag, and offset (in 8-byte units).
    Subsequent {
        /// Size of the full, unfragmented datagram.
        datagram_size: u16,
        /// Tag shared by all fragments of one datagram.
        datagram_tag: u16,
        /// Offset of this fragment in 8-byte units.
        offset: u8,
    },
}

/// The inner payload of a 6LoWPAN frame.
#[derive(Debug, Clone, PartialEq, Eq)]
pub enum SixLowpanPayload {
    /// A full IPv6 datagram after the `0x41` dispatch byte.
    Ipv6(Bytes),
    /// An IPHC-compressed datagram; headers are carried opaquely after the
    /// two IPHC base bytes.
    Iphc {
        /// The two IPHC base bytes (dispatch bits included).
        base: [u8; 2],
        /// The compressed header fields plus payload, carried opaquely.
        rest: Bytes,
    },
}

/// A 6LoWPAN frame: optional mesh header, optional fragmentation header,
/// then the (possibly compressed) IPv6 payload.
///
/// # Examples
///
/// ```
/// use kalis_packets::sixlowpan::{MeshHeader, SixLowpanFrame, SixLowpanPayload};
/// use kalis_packets::codec::{Decode, Encode};
/// use kalis_packets::ShortAddr;
///
/// let frame = SixLowpanFrame {
///     mesh: Some(MeshHeader { hops_left: 4, originator: ShortAddr(1), final_dst: ShortAddr(9) }),
///     frag: None,
///     payload: SixLowpanPayload::Ipv6(b"...ipv6...".to_vec().into()),
/// };
/// let back = SixLowpanFrame::from_slice(&frame.to_bytes())?;
/// assert_eq!(back, frame);
/// assert!(back.is_mesh_forwarded());
/// # Ok::<(), kalis_packets::DecodeError>(())
/// ```
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct SixLowpanFrame {
    /// Mesh-under forwarding header, if present.
    pub mesh: Option<MeshHeader>,
    /// Fragmentation header, if present.
    pub frag: Option<FragHeader>,
    /// The adaptation-layer payload.
    pub payload: SixLowpanPayload,
}

impl SixLowpanFrame {
    /// Wrap an IPv6 datagram without mesh or fragmentation headers.
    pub fn ipv6(datagram: impl Into<Bytes>) -> Self {
        SixLowpanFrame {
            mesh: None,
            frag: None,
            payload: SixLowpanPayload::Ipv6(datagram.into()),
        }
    }

    /// Whether a mesh header is present — the multi-hop indicator the
    /// Topology Discovery sensing module keys on.
    pub fn is_mesh_forwarded(&self) -> bool {
        self.mesh.is_some()
    }
}

impl Encode for SixLowpanFrame {
    fn encode(&self, buf: &mut BytesMut) {
        if let Some(mesh) = &self.mesh {
            // 0b10 | V=1 (short orig) | F=1 (short final) | hops_left.
            buf.put_u8(0b1011_0000 | (mesh.hops_left & 0x0f));
            buf.put_u16(mesh.originator.0);
            buf.put_u16(mesh.final_dst.0);
        }
        if let Some(frag) = &self.frag {
            match frag {
                FragHeader::First {
                    datagram_size,
                    datagram_tag,
                } => {
                    buf.put_u16(0b1100_0000 << 8 | (datagram_size & 0x07ff));
                    buf.put_u16(*datagram_tag);
                }
                FragHeader::Subsequent {
                    datagram_size,
                    datagram_tag,
                    offset,
                } => {
                    buf.put_u16(0b1110_0000 << 8 | (datagram_size & 0x07ff));
                    buf.put_u16(*datagram_tag);
                    buf.put_u8(*offset);
                }
            }
        }
        match &self.payload {
            SixLowpanPayload::Ipv6(datagram) => {
                buf.put_u8(DISPATCH_IPV6);
                buf.put_slice(datagram);
            }
            SixLowpanPayload::Iphc { base, rest } => {
                buf.put_slice(base);
                buf.put_slice(rest);
            }
        }
    }
}

impl Decode for SixLowpanFrame {
    fn decode(buf: &mut Bytes) -> Result<Self, DecodeError> {
        ensure(buf, PROTO, 1)?;
        let mut mesh = None;
        let mut frag = None;
        // Mesh header, if the first byte starts 0b10 (but not frag 0b11...).
        if buf[0] >> 6 == 0b10 {
            let b = buf.get_u8();
            ensure(buf, PROTO, 4)?;
            let short_orig = b & 0b0010_0000 != 0;
            let short_final = b & 0b0001_0000 != 0;
            if !short_orig || !short_final {
                return Err(DecodeError::invalid(PROTO, "mesh_addr_mode", u64::from(b)));
            }
            mesh = Some(MeshHeader {
                hops_left: b & 0x0f,
                originator: ShortAddr(buf.get_u16()),
                final_dst: ShortAddr(buf.get_u16()),
            });
            ensure(buf, PROTO, 1)?;
        }
        // Fragmentation header.
        if buf[0] >> 5 == 0b110 {
            ensure(buf, PROTO, 4)?;
            let word = buf.get_u16();
            let datagram_size = word & 0x07ff;
            let datagram_tag = buf.get_u16();
            frag = Some(FragHeader::First {
                datagram_size,
                datagram_tag,
            });
            ensure(buf, PROTO, 1)?;
        } else if buf[0] >> 5 == 0b111 {
            ensure(buf, PROTO, 5)?;
            let word = buf.get_u16();
            let datagram_size = word & 0x07ff;
            let datagram_tag = buf.get_u16();
            let offset = buf.get_u8();
            frag = Some(FragHeader::Subsequent {
                datagram_size,
                datagram_tag,
                offset,
            });
            ensure(buf, PROTO, 1)?;
        }
        let dispatch = buf[0];
        let payload = if dispatch == DISPATCH_IPV6 {
            buf.advance(1);
            SixLowpanPayload::Ipv6(buf.split_to(buf.len()))
        } else if dispatch >> 5 == 0b011 {
            ensure(buf, PROTO, 2)?;
            let base = [buf.get_u8(), buf.get_u8()];
            SixLowpanPayload::Iphc {
                base,
                rest: buf.split_to(buf.len()),
            }
        } else {
            return Err(DecodeError::UnknownDispatch {
                protocol: PROTO,
                dispatch,
            });
        };
        Ok(SixLowpanFrame {
            mesh,
            frag,
            payload,
        })
    }
}

/// Quick structural test: does this MAC payload look like 6LoWPAN?
pub(crate) fn looks_like_sixlowpan(payload: &[u8]) -> bool {
    match payload.first() {
        None => false,
        Some(&b) => b == DISPATCH_IPV6 || b >> 5 == 0b011 || b >> 6 == 0b10 || b >> 5 >= 0b110,
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn roundtrip_plain_ipv6() {
        let frame = SixLowpanFrame::ipv6(b"datagram".to_vec());
        assert_eq!(
            SixLowpanFrame::from_slice(&frame.to_bytes()).unwrap(),
            frame
        );
    }

    #[test]
    fn roundtrip_mesh_and_frag_first() {
        let frame = SixLowpanFrame {
            mesh: Some(MeshHeader {
                hops_left: 7,
                originator: ShortAddr(0x0102),
                final_dst: ShortAddr(0x0304),
            }),
            frag: Some(FragHeader::First {
                datagram_size: 512,
                datagram_tag: 77,
            }),
            payload: SixLowpanPayload::Ipv6(Bytes::from_static(b"frag0")),
        };
        assert_eq!(
            SixLowpanFrame::from_slice(&frame.to_bytes()).unwrap(),
            frame
        );
    }

    #[test]
    fn roundtrip_frag_subsequent_iphc() {
        let frame = SixLowpanFrame {
            mesh: None,
            frag: Some(FragHeader::Subsequent {
                datagram_size: 512,
                datagram_tag: 77,
                offset: 12,
            }),
            payload: SixLowpanPayload::Iphc {
                base: [0b0110_0000, 0x00],
                rest: Bytes::from_static(b"compressed"),
            },
        };
        assert_eq!(
            SixLowpanFrame::from_slice(&frame.to_bytes()).unwrap(),
            frame
        );
    }

    #[test]
    fn unknown_dispatch_rejected() {
        assert!(matches!(
            SixLowpanFrame::from_slice(&[0x00, 1, 2]),
            Err(DecodeError::UnknownDispatch { .. })
        ));
    }

    #[test]
    fn mesh_header_flags_multihop() {
        let plain = SixLowpanFrame::ipv6(b"x".to_vec());
        assert!(!plain.is_mesh_forwarded());
        let meshed = SixLowpanFrame {
            mesh: Some(MeshHeader {
                hops_left: 1,
                originator: ShortAddr(1),
                final_dst: ShortAddr(2),
            }),
            ..plain
        };
        assert!(meshed.is_mesh_forwarded());
    }

    #[test]
    fn truncated_mesh_rejected() {
        let frame = SixLowpanFrame {
            mesh: Some(MeshHeader {
                hops_left: 1,
                originator: ShortAddr(1),
                final_dst: ShortAddr(2),
            }),
            frag: None,
            payload: SixLowpanPayload::Ipv6(Bytes::from_static(b"y")),
        };
        let wire = frame.to_bytes();
        assert!(SixLowpanFrame::from_slice(&wire[..3]).is_err());
    }
}
