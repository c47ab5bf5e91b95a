//! # kalis-packets
//!
//! Byte-accurate frame models and codecs for the protocols monitored by the
//! [Kalis](https://doi.org/10.1109/ICDCS.2017.104) intrusion detection
//! system: IEEE 802.15.4, ZigBee NWK, TinyOS Active Messages carrying the
//! Collection Tree Protocol (CTP), 6LoWPAN, RPL, Ethernet, IPv4/IPv6,
//! TCP/UDP, ICMPv4/ICMPv6, simplified IEEE 802.11, and Bluetooth LE
//! advertising.
//!
//! Every frame type implements [`codec::Encode`] and [`codec::Decode`] and
//! round-trips through its wire representation. The crate also provides the
//! capture-side types shared by the simulator and the IDS:
//! [`CapturedPacket`], [`Medium`], and the unified decoded [`Packet`] enum.
//!
//! # Examples
//!
//! ```
//! use kalis_packets::{codec::{Decode, Encode}, icmpv4::{Icmpv4Packet, Icmpv4Type}};
//! use bytes::BytesMut;
//!
//! let ping = Icmpv4Packet::echo_request(42, 1, b"hello".to_vec());
//! let mut buf = BytesMut::new();
//! ping.encode(&mut buf);
//! let decoded = Icmpv4Packet::decode(&mut buf.freeze())?;
//! assert_eq!(decoded.icmp_type(), Icmpv4Type::EchoRequest);
//! # Ok::<(), kalis_packets::DecodeError>(())
//! ```

#![forbid(unsafe_code)]
#![warn(missing_docs)]

pub mod addr;
pub mod ble;
pub mod codec;
pub mod ctp;
pub mod error;
pub mod ethernet;
pub mod icmpv4;
pub mod icmpv6;
pub mod ieee802154;
pub mod inline;
pub mod ipv4;
pub mod ipv6;
pub mod packet;
pub mod reassembly;
pub mod rpl;
pub mod sixlowpan;
pub mod tcp;
pub mod time;
pub mod udp;
pub mod wifi;
pub mod zigbee;

pub use addr::{Entity, ExtAddr, MacAddr, PanId, ShortAddr};
pub use error::DecodeError;
pub use inline::InlineStr;
pub use packet::{CapturedPacket, Medium, Packet, TrafficClass};
pub use time::Timestamp;
