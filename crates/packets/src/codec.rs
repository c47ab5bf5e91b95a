//! Encode/decode traits and buffer helpers shared by every protocol module.

use bytes::{Buf, Bytes, BytesMut};

use crate::DecodeError;

/// Serialize a frame into its wire representation.
///
/// # Examples
///
/// ```
/// use kalis_packets::{codec::Encode, udp::UdpPacket};
///
/// let dgram = UdpPacket::new(5683, 5683, b"coap".to_vec());
/// let wire = dgram.to_bytes();
/// assert_eq!(wire.len(), 8 + 4);
/// ```
pub trait Encode {
    /// Append the wire representation of `self` to `buf`.
    fn encode(&self, buf: &mut BytesMut);

    /// Encode into a freshly allocated buffer.
    fn to_bytes(&self) -> Bytes {
        let mut buf = BytesMut::with_capacity(self.encoded_len());
        self.encode(&mut buf);
        buf.freeze()
    }

    /// The exact number of bytes [`Encode::encode`] will append.
    fn encoded_len(&self) -> usize {
        // Default: encode into a scratch buffer. Implementations override
        // this with a closed-form size where it matters.
        let mut buf = BytesMut::new();
        self.encode(&mut buf);
        buf.len()
    }
}

/// Deserialize a frame from its wire representation.
pub trait Decode: Sized {
    /// Parse one frame from the front of `buf`, consuming exactly the bytes
    /// that belong to it.
    ///
    /// # Errors
    ///
    /// Returns a [`DecodeError`] when the buffer is truncated, a field is
    /// out of range, or a checksum fails. On error the buffer may be left
    /// partially consumed.
    fn decode(buf: &mut Bytes) -> Result<Self, DecodeError>;

    /// Parse a frame from a byte slice.
    ///
    /// # Errors
    ///
    /// Propagates any [`DecodeError`] from [`Decode::decode`].
    fn from_slice(bytes: &[u8]) -> Result<Self, DecodeError> {
        let mut buf = Bytes::copy_from_slice(bytes);
        Self::decode(&mut buf)
    }
}

/// Ensure `buf` holds at least `needed` more bytes.
///
/// # Errors
///
/// Returns [`DecodeError::Truncated`] naming `protocol` otherwise.
pub(crate) fn ensure(
    buf: &Bytes,
    protocol: &'static str,
    needed: usize,
) -> Result<(), DecodeError> {
    if buf.remaining() < needed {
        Err(DecodeError::truncated(protocol, needed, buf.remaining()))
    } else {
        Ok(())
    }
}

/// Take `len` bytes off the front of `buf` as an owned `Bytes`.
///
/// # Errors
///
/// Returns [`DecodeError::Truncated`] naming `protocol` if fewer than `len`
/// bytes remain.
pub fn take(buf: &mut Bytes, protocol: &'static str, len: usize) -> Result<Bytes, DecodeError> {
    ensure(buf, protocol, len)?;
    Ok(buf.split_to(len))
}

/// The ones-complement checksum used by IPv4, ICMP, TCP, and UDP.
///
/// # Examples
///
/// ```
/// use kalis_packets::codec::internet_checksum;
///
/// // A buffer whose checksum field is zero checksums to the value that,
/// // when inserted, makes the whole buffer sum to zero.
/// let sum = internet_checksum(&[0x45, 0x00, 0x00, 0x14]);
/// assert_ne!(sum, 0);
/// ```
pub fn internet_checksum(data: &[u8]) -> u16 {
    let mut sum: u32 = 0;
    let mut chunks = data.chunks_exact(2);
    for chunk in &mut chunks {
        sum += u32::from(u16::from_be_bytes([chunk[0], chunk[1]]));
    }
    if let [last] = chunks.remainder() {
        sum += u32::from(u16::from_be_bytes([*last, 0]));
    }
    while sum > 0xffff {
        sum = (sum & 0xffff) + (sum >> 16);
    }
    !(sum as u16)
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn checksum_of_zero_filled_is_ffff() {
        assert_eq!(internet_checksum(&[0, 0, 0, 0]), 0xffff);
    }

    #[test]
    fn checksum_detects_single_bit_flip() {
        let a = [0x45u8, 0x00, 0x12, 0x34, 0x9a, 0xbc];
        let mut b = a;
        b[3] ^= 0x01;
        assert_ne!(internet_checksum(&a), internet_checksum(&b));
    }

    #[test]
    fn checksum_odd_length_pads_with_zero() {
        // Trailing odd byte is treated as the high byte of a 16-bit word.
        assert_eq!(internet_checksum(&[0xab]), internet_checksum(&[0xab, 0x00]));
    }

    #[test]
    fn inserting_checksum_yields_zero_total() {
        let mut data = vec![0x45u8, 0x00, 0x00, 0x1c, 0xde, 0xad, 0x00, 0x00];
        let sum = internet_checksum(&data);
        data[6..8].copy_from_slice(&sum.to_be_bytes());
        // Recomputing over data including the checksum must give zero
        // (i.e. the ones-complement sum is 0xffff, whose complement is 0).
        assert_eq!(internet_checksum(&data), 0);
    }

    #[test]
    fn ensure_and_take_report_protocol() {
        let mut buf = Bytes::from_static(&[1, 2]);
        let err = take(&mut buf, "demo", 3).unwrap_err();
        assert_eq!(err.protocol(), "demo");
        let got = take(&mut buf, "demo", 2).unwrap();
        assert_eq!(&got[..], &[1, 2]);
    }
}
