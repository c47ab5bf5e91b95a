//! IEEE 802.15.4 MAC frames — the link layer under ZigBee, 6LoWPAN, and
//! TinyOS/CTP traffic.

use bytes::{Buf, BufMut, Bytes, BytesMut};

use crate::addr::{ExtAddr, PanId, ShortAddr};
use crate::codec::{ensure, Decode, Encode};
use crate::DecodeError;

const PROTO: &str = "ieee802154";

/// The MAC frame type carried in the frame-control field.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash)]
pub enum FrameType {
    /// Superframe beacon.
    Beacon,
    /// Data frame (all upper-layer traffic).
    Data,
    /// Acknowledgement.
    Ack,
    /// MAC command (association request, etc.).
    MacCommand,
}

impl FrameType {
    fn from_bits(bits: u16) -> Result<Self, DecodeError> {
        match bits & 0x7 {
            0 => Ok(FrameType::Beacon),
            1 => Ok(FrameType::Data),
            2 => Ok(FrameType::Ack),
            3 => Ok(FrameType::MacCommand),
            other => Err(DecodeError::invalid(PROTO, "frame_type", u64::from(other))),
        }
    }

    fn bits(self) -> u16 {
        match self {
            FrameType::Beacon => 0,
            FrameType::Data => 1,
            FrameType::Ack => 2,
            FrameType::MacCommand => 3,
        }
    }
}

/// An 802.15.4 address in one of the three addressing modes.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash)]
pub enum Address {
    /// No address present (addressing mode 0).
    None,
    /// 16-bit short address (mode 2).
    Short(ShortAddr),
    /// 64-bit extended address (mode 3).
    Extended(ExtAddr),
}

impl Address {
    fn mode(self) -> u16 {
        match self {
            Address::None => 0,
            Address::Short(_) => 2,
            Address::Extended(_) => 3,
        }
    }

    fn encoded_len(self) -> usize {
        match self {
            Address::None => 0,
            Address::Short(_) => 2,
            Address::Extended(_) => 8,
        }
    }

    fn encode(self, buf: &mut BytesMut) {
        match self {
            Address::None => {}
            Address::Short(a) => buf.put_u16_le(a.0),
            Address::Extended(a) => buf.put_u64_le(a.0),
        }
    }

    fn decode(mode: u16, buf: &mut Bytes) -> Result<Self, DecodeError> {
        match mode {
            0 => Ok(Address::None),
            2 => {
                ensure(buf, PROTO, 2)?;
                Ok(Address::Short(ShortAddr(buf.get_u16_le())))
            }
            3 => {
                ensure(buf, PROTO, 8)?;
                Ok(Address::Extended(ExtAddr(buf.get_u64_le())))
            }
            other => Err(DecodeError::invalid(PROTO, "addr_mode", u64::from(other))),
        }
    }

    /// The short address, if this is a short address.
    pub fn short(self) -> Option<ShortAddr> {
        match self {
            Address::Short(a) => Some(a),
            _ => None,
        }
    }
}

impl From<ShortAddr> for Address {
    fn from(value: ShortAddr) -> Self {
        Address::Short(value)
    }
}

impl From<ExtAddr> for Address {
    fn from(value: ExtAddr) -> Self {
        Address::Extended(value)
    }
}

/// An IEEE 802.15.4 MAC frame.
///
/// The layout follows the 2006 revision of the standard: a 2-byte frame
/// control field, 1-byte sequence number, addressing fields whose presence
/// is governed by the frame control, the MAC payload, and a 2-byte FCS
/// (CRC-16/CCITT as mandated by the standard) verified on decode.
///
/// # Examples
///
/// ```
/// use kalis_packets::ieee802154::{Address, FrameType, Ieee802154Frame};
/// use kalis_packets::codec::{Decode, Encode};
/// use kalis_packets::{PanId, ShortAddr};
///
/// let frame = Ieee802154Frame::data(
///     PanId(0x22),
///     ShortAddr(1).into(),
///     ShortAddr(2).into(),
///     7,
///     b"payload".to_vec(),
/// );
/// let mut wire = frame.to_bytes();
/// let back = Ieee802154Frame::decode(&mut wire)?;
/// assert_eq!(back, frame);
/// # Ok::<(), kalis_packets::DecodeError>(())
/// ```
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct Ieee802154Frame {
    /// MAC frame type.
    pub frame_type: FrameType,
    /// Security-enabled bit (Kalis treats secured payloads as opaque).
    pub security_enabled: bool,
    /// Frame-pending bit.
    pub frame_pending: bool,
    /// Acknowledgement-request bit.
    pub ack_request: bool,
    /// Sequence number.
    pub seq: u8,
    /// Destination PAN id, if a destination address is present.
    pub dst_pan: Option<PanId>,
    /// Destination address.
    pub dst: Address,
    /// Source PAN id (omitted on the wire under PAN-id compression).
    pub src_pan: Option<PanId>,
    /// Source address.
    pub src: Address,
    /// MAC payload (upper-layer frame).
    pub payload: Bytes,
}

impl Ieee802154Frame {
    /// Build a data frame within a single PAN (PAN-id compression applies).
    pub fn data(
        pan: PanId,
        src: Address,
        dst: Address,
        seq: u8,
        payload: impl Into<Bytes>,
    ) -> Self {
        Ieee802154Frame {
            frame_type: FrameType::Data,
            security_enabled: false,
            frame_pending: false,
            ack_request: false,
            seq,
            dst_pan: Some(pan),
            dst,
            src_pan: None,
            src,
            payload: payload.into(),
        }
    }

    /// Build an acknowledgement frame for sequence number `seq`.
    pub fn ack(seq: u8) -> Self {
        Ieee802154Frame {
            frame_type: FrameType::Ack,
            security_enabled: false,
            frame_pending: false,
            ack_request: false,
            seq,
            dst_pan: None,
            dst: Address::None,
            src_pan: None,
            src: Address::None,
            payload: Bytes::new(),
        }
    }

    /// Whether PAN-id compression is in effect (source PAN omitted from
    /// the wire because it equals the destination PAN).
    fn pan_id_compression(&self) -> bool {
        self.src != Address::None && self.src_pan.is_none()
    }
}

/// CRC-16/CCITT (the 802.15.4 FCS polynomial, bit-reversed 0x8408).
pub(crate) fn fcs(data: &[u8]) -> u16 {
    let mut crc: u16 = 0x0000;
    for &byte in data {
        crc ^= u16::from(byte);
        for _ in 0..8 {
            if crc & 1 != 0 {
                crc = (crc >> 1) ^ 0x8408;
            } else {
                crc >>= 1;
            }
        }
    }
    crc
}

impl Encode for Ieee802154Frame {
    fn encode(&self, buf: &mut BytesMut) {
        let start = buf.len();
        let mut fc: u16 = self.frame_type.bits();
        if self.security_enabled {
            fc |= 1 << 3;
        }
        if self.frame_pending {
            fc |= 1 << 4;
        }
        if self.ack_request {
            fc |= 1 << 5;
        }
        if self.pan_id_compression() {
            fc |= 1 << 6;
        }
        fc |= self.dst.mode() << 10;
        fc |= self.src.mode() << 14;
        buf.put_u16_le(fc);
        buf.put_u8(self.seq);
        if let Some(pan) = self.dst_pan {
            buf.put_u16_le(pan.0);
        }
        self.dst.encode(buf);
        if let Some(pan) = self.src_pan {
            buf.put_u16_le(pan.0);
        }
        self.src.encode(buf);
        buf.put_slice(&self.payload);
        let crc = fcs(&buf[start..]);
        buf.put_u16_le(crc);
    }

    fn encoded_len(&self) -> usize {
        3 + self.dst_pan.map_or(0, |_| 2)
            + self.dst.encoded_len()
            + self.src_pan.map_or(0, |_| 2)
            + self.src.encoded_len()
            + self.payload.len()
            + 2
    }
}

impl Decode for Ieee802154Frame {
    fn decode(buf: &mut Bytes) -> Result<Self, DecodeError> {
        ensure(buf, PROTO, 5)?;
        // Verify the trailing FCS over everything that precedes it.
        let body_len = buf.len() - 2;
        let found = u16::from_le_bytes([buf[body_len], buf[body_len + 1]]);
        let computed = fcs(&buf[..body_len]);
        if found != computed {
            return Err(DecodeError::BadChecksum {
                protocol: PROTO,
                found,
                computed,
            });
        }
        let mut body = buf.split_to(body_len);
        buf.advance(2); // consume FCS
        let fc = body.get_u16_le();
        let frame_type = FrameType::from_bits(fc)?;
        let security_enabled = fc & (1 << 3) != 0;
        let frame_pending = fc & (1 << 4) != 0;
        let ack_request = fc & (1 << 5) != 0;
        let compression = fc & (1 << 6) != 0;
        let dst_mode = (fc >> 10) & 0x3;
        let src_mode = (fc >> 14) & 0x3;
        ensure(&body, PROTO, 1)?;
        let seq = body.get_u8();
        let dst_pan = if dst_mode != 0 {
            ensure(&body, PROTO, 2)?;
            Some(PanId(body.get_u16_le()))
        } else {
            None
        };
        let dst = Address::decode(dst_mode, &mut body)?;
        let src_pan = if src_mode != 0 && !compression {
            ensure(&body, PROTO, 2)?;
            Some(PanId(body.get_u16_le()))
        } else {
            None
        };
        let src = Address::decode(src_mode, &mut body)?;
        Ok(Ieee802154Frame {
            frame_type,
            security_enabled,
            frame_pending,
            ack_request,
            seq,
            dst_pan,
            dst,
            src_pan,
            src,
            payload: body,
        })
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn sample() -> Ieee802154Frame {
        Ieee802154Frame::data(
            PanId(0xbeef),
            Address::Short(ShortAddr(0x0001)),
            Address::Short(ShortAddr(0x0002)),
            42,
            b"hello".to_vec(),
        )
    }

    #[test]
    fn roundtrip_data_frame() {
        let frame = sample();
        let mut wire = frame.to_bytes();
        assert_eq!(wire.len(), frame.encoded_len());
        let back = Ieee802154Frame::decode(&mut wire).unwrap();
        assert_eq!(back, frame);
        assert!(wire.is_empty());
    }

    #[test]
    fn roundtrip_ack() {
        let frame = Ieee802154Frame::ack(9);
        let back = Ieee802154Frame::from_slice(&frame.to_bytes()).unwrap();
        assert_eq!(back, frame);
    }

    #[test]
    fn roundtrip_extended_addresses_no_compression() {
        let frame = Ieee802154Frame {
            frame_type: FrameType::Data,
            security_enabled: true,
            frame_pending: true,
            ack_request: true,
            seq: 0xff,
            dst_pan: Some(PanId(1)),
            dst: Address::Extended(ExtAddr(0x1122334455667788)),
            src_pan: Some(PanId(2)),
            src: Address::Extended(ExtAddr(0x8877665544332211)),
            payload: Bytes::from_static(b"x"),
        };
        let back = Ieee802154Frame::from_slice(&frame.to_bytes()).unwrap();
        assert_eq!(back, frame);
    }

    #[test]
    fn corrupted_frame_fails_fcs() {
        let mut wire = sample().to_bytes().to_vec();
        wire[4] ^= 0x40;
        assert!(matches!(
            Ieee802154Frame::from_slice(&wire),
            Err(DecodeError::BadChecksum { .. })
        ));
    }

    #[test]
    fn truncated_frame_is_rejected() {
        let wire = sample().to_bytes();
        assert!(Ieee802154Frame::from_slice(&wire[..3]).is_err());
    }

    #[test]
    fn fcs_known_vector() {
        // CRC-16/CCITT with init 0x0000 over "123456789" is 0x2189 (KERMIT).
        assert_eq!(fcs(b"123456789"), 0x2189);
    }

    #[test]
    fn pan_id_compression_omits_src_pan_on_wire() {
        let with = sample();
        let mut without = sample();
        without.src_pan = Some(PanId(0xbeef));
        assert_eq!(without.encoded_len(), with.encoded_len() + 2);
    }
}
