//! Bluetooth Low Energy advertising-channel PDUs (simplified).

use bytes::{Buf, BufMut, Bytes, BytesMut};

use crate::addr::MacAddr;
use crate::codec::{ensure, Decode, Encode};
use crate::DecodeError;

const PROTO: &str = "ble-adv";

/// The advertising PDU type.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash)]
pub enum BleAdvType {
    /// Connectable undirected advertising (ADV_IND).
    AdvInd,
    /// Non-connectable undirected advertising (ADV_NONCONN_IND).
    AdvNonconnInd,
    /// Scan request (SCAN_REQ).
    ScanReq,
    /// Scan response (SCAN_RSP).
    ScanRsp,
    /// Connect request (CONNECT_REQ).
    ConnectReq,
}

impl BleAdvType {
    fn bits(self) -> u8 {
        match self {
            BleAdvType::AdvInd => 0x0,
            BleAdvType::AdvNonconnInd => 0x2,
            BleAdvType::ScanReq => 0x3,
            BleAdvType::ScanRsp => 0x4,
            BleAdvType::ConnectReq => 0x5,
        }
    }

    fn from_bits(bits: u8) -> Result<Self, DecodeError> {
        match bits {
            0x0 => Ok(BleAdvType::AdvInd),
            0x2 => Ok(BleAdvType::AdvNonconnInd),
            0x3 => Ok(BleAdvType::ScanReq),
            0x4 => Ok(BleAdvType::ScanRsp),
            0x5 => Ok(BleAdvType::ConnectReq),
            other => Err(DecodeError::invalid(PROTO, "pdu_type", u64::from(other))),
        }
    }
}

/// A BLE advertising PDU.
///
/// # Examples
///
/// ```
/// use kalis_packets::ble::{BleAdvPdu, BleAdvType};
/// use kalis_packets::codec::{Decode, Encode};
/// use kalis_packets::MacAddr;
///
/// let adv = BleAdvPdu::new(BleAdvType::AdvInd, MacAddr::from_index(5), b"\x02\x01\x06".to_vec());
/// assert_eq!(BleAdvPdu::from_slice(&adv.to_bytes())?, adv);
/// # Ok::<(), kalis_packets::DecodeError>(())
/// ```
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct BleAdvPdu {
    /// PDU type.
    pub(crate) pdu_type: BleAdvType,
    /// Advertiser (or scanner) address.
    pub advertiser: MacAddr,
    /// Advertising data (AD structures, carried opaquely).
    pub data: Bytes,
}

impl BleAdvPdu {
    /// Build an advertising PDU.
    pub fn new(pdu_type: BleAdvType, advertiser: MacAddr, data: impl Into<Bytes>) -> Self {
        BleAdvPdu {
            pdu_type,
            advertiser,
            data: data.into(),
        }
    }
}

impl Encode for BleAdvPdu {
    fn encode(&self, buf: &mut BytesMut) {
        buf.put_u8(self.pdu_type.bits());
        buf.put_u8((6 + self.data.len()) as u8);
        buf.put_slice(&self.advertiser.0);
        buf.put_slice(&self.data);
    }

    fn encoded_len(&self) -> usize {
        8 + self.data.len()
    }
}

impl Decode for BleAdvPdu {
    fn decode(buf: &mut Bytes) -> Result<Self, DecodeError> {
        ensure(buf, PROTO, 8)?;
        let pdu_type = BleAdvType::from_bits(buf.get_u8())?;
        let length = buf.get_u8() as usize;
        if length < 6 || length > buf.remaining() {
            return Err(DecodeError::LengthMismatch {
                protocol: PROTO,
                declared: length,
                actual: buf.remaining(),
            });
        }
        let mut mac = [0u8; 6];
        buf.copy_to_slice(&mut mac);
        Ok(BleAdvPdu {
            pdu_type,
            advertiser: MacAddr(mac),
            data: buf.split_to(length - 6),
        })
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn roundtrip_all_types() {
        for t in [
            BleAdvType::AdvInd,
            BleAdvType::AdvNonconnInd,
            BleAdvType::ScanReq,
            BleAdvType::ScanRsp,
            BleAdvType::ConnectReq,
        ] {
            let pdu = BleAdvPdu::new(t, MacAddr::from_index(3), b"ad".to_vec());
            assert_eq!(BleAdvPdu::from_slice(&pdu.to_bytes()).unwrap(), pdu);
        }
    }

    #[test]
    fn reserved_type_rejected() {
        let pdu = BleAdvPdu::new(BleAdvType::AdvInd, MacAddr::from_index(1), vec![]);
        let mut wire = pdu.to_bytes().to_vec();
        wire[0] = 0x1; // ADV_DIRECT_IND, not modelled
        assert!(BleAdvPdu::from_slice(&wire).is_err());
    }

    #[test]
    fn length_must_cover_address() {
        let pdu = BleAdvPdu::new(BleAdvType::ScanReq, MacAddr::from_index(1), vec![]);
        let mut wire = pdu.to_bytes().to_vec();
        wire[1] = 3;
        assert!(matches!(
            BleAdvPdu::from_slice(&wire),
            Err(DecodeError::LengthMismatch { .. })
        ));
    }

    #[test]
    fn truncated_data_does_not_panic() {
        // length byte claims 2 data bytes beyond the address, buffer has none.
        let wire = [0x00, 0x08, 2, 0, 0, 0, 0, 1];
        assert!(matches!(
            BleAdvPdu::from_slice(&wire),
            Err(DecodeError::LengthMismatch { .. })
        ));
    }
}
