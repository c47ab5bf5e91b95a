//! Simplified IEEE 802.11 frames.
//!
//! The model keeps the fields Kalis observes — frame class, the three MAC
//! addresses, SSIDs in management frames, and the EtherType of data
//! payloads — and elides duration/QoS/HT details irrelevant to intrusion
//! detection.

use bytes::{Buf, BufMut, Bytes, BytesMut};

use crate::addr::MacAddr;
use crate::codec::{ensure, Decode, Encode};
use crate::DecodeError;

const PROTO: &str = "wifi";

/// The body of an 802.11 frame.
#[derive(Debug, Clone, PartialEq, Eq)]
pub enum WifiBody {
    /// AP beacon advertising an SSID.
    Beacon {
        /// Advertised network name.
        ssid: String,
    },
    /// Station probe request.
    ProbeRequest,
    /// AP probe response.
    ProbeResponse {
        /// Advertised network name.
        ssid: String,
    },
    /// Association request from a station.
    AssocRequest,
    /// Deauthentication (the classic WiFi DoS vector).
    Deauth {
        /// Reason code.
        reason: u16,
    },
    /// Data frame carrying an LLC/SNAP-encapsulated payload.
    Data {
        /// EtherType of the payload.
        ethertype: u16,
        /// Payload bytes (e.g. an IPv4 datagram).
        payload: Bytes,
    },
}

impl WifiBody {
    fn subtype(&self) -> u8 {
        match self {
            WifiBody::Beacon { .. } => 0,
            WifiBody::ProbeRequest => 1,
            WifiBody::ProbeResponse { .. } => 2,
            WifiBody::AssocRequest => 3,
            WifiBody::Deauth { .. } => 4,
            WifiBody::Data { .. } => 5,
        }
    }
}

/// A simplified IEEE 802.11 frame.
///
/// # Examples
///
/// ```
/// use kalis_packets::wifi::{WifiBody, WifiFrame};
/// use kalis_packets::codec::{Decode, Encode};
/// use kalis_packets::MacAddr;
///
/// let frame = WifiFrame {
///     src: MacAddr::from_index(1),
///     dst: MacAddr::from_index(2),
///     bssid: MacAddr::from_index(0),
///     seq: 100,
///     body: WifiBody::Data { ethertype: 0x0800, payload: b"ip".to_vec().into() },
/// };
/// assert_eq!(WifiFrame::from_slice(&frame.to_bytes())?, frame);
/// # Ok::<(), kalis_packets::DecodeError>(())
/// ```
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct WifiFrame {
    /// Transmitter address.
    pub src: MacAddr,
    /// Receiver address.
    pub dst: MacAddr,
    /// BSSID (the AP's MAC).
    pub bssid: MacAddr,
    /// Sequence number.
    pub seq: u16,
    /// Frame body.
    pub body: WifiBody,
}

impl WifiFrame {
    /// Build a data frame.
    pub fn data(
        src: MacAddr,
        dst: MacAddr,
        bssid: MacAddr,
        seq: u16,
        ethertype: u16,
        payload: impl Into<Bytes>,
    ) -> Self {
        WifiFrame {
            src,
            dst,
            bssid,
            seq,
            body: WifiBody::Data {
                ethertype,
                payload: payload.into(),
            },
        }
    }

    /// Whether this is a management frame.
    pub(crate) fn is_management(&self) -> bool {
        !matches!(self.body, WifiBody::Data { .. })
    }
}

fn put_ssid(buf: &mut BytesMut, ssid: &str) {
    let bytes = ssid.as_bytes();
    buf.put_u8(bytes.len() as u8);
    buf.put_slice(bytes);
}

fn get_ssid(buf: &mut Bytes) -> Result<String, DecodeError> {
    ensure(buf, PROTO, 1)?;
    let len = buf.get_u8() as usize;
    ensure(buf, PROTO, len)?;
    let raw = buf.split_to(len);
    String::from_utf8(raw.to_vec()).map_err(|_| {
        DecodeError::invalid(PROTO, "ssid", u64::from(raw.first().copied().unwrap_or(0)))
    })
}

impl Encode for WifiFrame {
    fn encode(&self, buf: &mut BytesMut) {
        buf.put_u8(self.body.subtype());
        buf.put_slice(&self.src.0);
        buf.put_slice(&self.dst.0);
        buf.put_slice(&self.bssid.0);
        buf.put_u16(self.seq);
        match &self.body {
            WifiBody::Beacon { ssid } | WifiBody::ProbeResponse { ssid } => put_ssid(buf, ssid),
            WifiBody::ProbeRequest | WifiBody::AssocRequest => {}
            WifiBody::Deauth { reason } => buf.put_u16(*reason),
            WifiBody::Data { ethertype, payload } => {
                buf.put_u16(*ethertype);
                buf.put_slice(payload);
            }
        }
    }
}

impl Decode for WifiFrame {
    fn decode(buf: &mut Bytes) -> Result<Self, DecodeError> {
        ensure(buf, PROTO, 21)?;
        let subtype = buf.get_u8();
        let mut mac = [0u8; 6];
        buf.copy_to_slice(&mut mac);
        let src = MacAddr(mac);
        buf.copy_to_slice(&mut mac);
        let dst = MacAddr(mac);
        buf.copy_to_slice(&mut mac);
        let bssid = MacAddr(mac);
        let seq = buf.get_u16();
        let body = match subtype {
            0 => WifiBody::Beacon {
                ssid: get_ssid(buf)?,
            },
            1 => WifiBody::ProbeRequest,
            2 => WifiBody::ProbeResponse {
                ssid: get_ssid(buf)?,
            },
            3 => WifiBody::AssocRequest,
            4 => {
                ensure(buf, PROTO, 2)?;
                WifiBody::Deauth {
                    reason: buf.get_u16(),
                }
            }
            5 => {
                ensure(buf, PROTO, 2)?;
                WifiBody::Data {
                    ethertype: buf.get_u16(),
                    payload: buf.split_to(buf.len()),
                }
            }
            other => return Err(DecodeError::invalid(PROTO, "subtype", u64::from(other))),
        };
        Ok(WifiFrame {
            src,
            dst,
            bssid,
            seq,
            body,
        })
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn addrs() -> (MacAddr, MacAddr, MacAddr) {
        (
            MacAddr::from_index(1),
            MacAddr::from_index(2),
            MacAddr::from_index(0),
        )
    }

    #[test]
    fn roundtrip_all_bodies() {
        let (src, dst, bssid) = addrs();
        let bodies = [
            WifiBody::Beacon {
                ssid: "HomeNet".into(),
            },
            WifiBody::ProbeRequest,
            WifiBody::ProbeResponse {
                ssid: "HomeNet".into(),
            },
            WifiBody::AssocRequest,
            WifiBody::Deauth { reason: 7 },
            WifiBody::Data {
                ethertype: 0x86dd,
                payload: Bytes::from_static(b"v6"),
            },
        ];
        for body in bodies {
            let frame = WifiFrame {
                src,
                dst,
                bssid,
                seq: 9,
                body,
            };
            assert_eq!(WifiFrame::from_slice(&frame.to_bytes()).unwrap(), frame);
        }
    }

    #[test]
    fn management_predicate() {
        let (src, dst, bssid) = addrs();
        assert!(WifiFrame {
            src,
            dst,
            bssid,
            seq: 0,
            body: WifiBody::Deauth { reason: 1 }
        }
        .is_management());
        assert!(!WifiFrame::data(src, dst, bssid, 0, 0x0800, b"x".to_vec()).is_management());
    }

    #[test]
    fn bad_subtype_rejected() {
        let (src, dst, bssid) = addrs();
        let frame = WifiFrame::data(src, dst, bssid, 0, 0x0800, b"x".to_vec());
        let mut wire = frame.to_bytes().to_vec();
        wire[0] = 99;
        assert!(WifiFrame::from_slice(&wire).is_err());
    }

    #[test]
    fn invalid_utf8_ssid_rejected() {
        let (src, dst, bssid) = addrs();
        let frame = WifiFrame {
            src,
            dst,
            bssid,
            seq: 0,
            body: WifiBody::Beacon { ssid: "AB".into() },
        };
        let mut wire = frame.to_bytes().to_vec();
        let n = wire.len();
        wire[n - 2] = 0xff;
        wire[n - 1] = 0xfe;
        assert!(WifiFrame::from_slice(&wire).is_err());
    }
}
