//! Address and identity types shared by all protocol layers.

use core::fmt;
use core::str::FromStr;

use crate::inline::InlineStr;

/// An IEEE 802.15.4 16-bit short address.
///
/// # Examples
///
/// ```
/// use kalis_packets::ShortAddr;
///
/// let addr = ShortAddr(0x1234);
/// assert_eq!(addr.to_string(), "0x1234");
/// assert_eq!(ShortAddr::BROADCAST, ShortAddr(0xffff));
/// ```
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash, PartialOrd, Ord)]
pub struct ShortAddr(pub u16);

impl ShortAddr {
    /// The 802.15.4 broadcast short address.
    pub const BROADCAST: ShortAddr = ShortAddr(0xffff);

    /// Whether this is the broadcast address.
    pub fn is_broadcast(self) -> bool {
        self == Self::BROADCAST
    }
}

impl fmt::Display for ShortAddr {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        write!(f, "{:#06x}", self.0)
    }
}

impl From<u16> for ShortAddr {
    fn from(value: u16) -> Self {
        ShortAddr(value)
    }
}

/// An IEEE 802.15.4 64-bit extended (EUI-64) address.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash, PartialOrd, Ord)]
pub struct ExtAddr(pub u64);

impl fmt::Display for ExtAddr {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        write!(f, "{:#018x}", self.0)
    }
}

impl From<u64> for ExtAddr {
    fn from(value: u64) -> Self {
        ExtAddr(value)
    }
}

/// An IEEE 802.15.4 PAN (personal area network) identifier.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash, PartialOrd, Ord)]
pub struct PanId(pub u16);

impl PanId {
    /// The broadcast PAN id.
    pub const BROADCAST: PanId = PanId(0xffff);
}

impl fmt::Display for PanId {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        write!(f, "{:#06x}", self.0)
    }
}

/// A 48-bit IEEE MAC address as used by Ethernet, WiFi, and Bluetooth.
///
/// # Examples
///
/// ```
/// use kalis_packets::MacAddr;
///
/// let mac = MacAddr([0xde, 0xad, 0xbe, 0xef, 0x00, 0x01]);
/// assert_eq!(mac.to_string(), "de:ad:be:ef:00:01");
/// assert_eq!("de:ad:be:ef:00:01".parse::<MacAddr>()?, mac);
/// # Ok::<(), kalis_packets::addr::ParseMacError>(())
/// ```
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash, PartialOrd, Ord)]
pub struct MacAddr(pub [u8; 6]);

impl MacAddr {
    /// The broadcast MAC address (ff:ff:ff:ff:ff:ff).
    pub const BROADCAST: MacAddr = MacAddr([0xff; 6]);

    /// Whether this is the broadcast address.
    pub fn is_broadcast(self) -> bool {
        self == Self::BROADCAST
    }

    /// Build a locally administered MAC address from a small integer,
    /// convenient for simulated devices.
    pub fn from_index(index: u32) -> Self {
        let b = index.to_be_bytes();
        MacAddr([0x02, 0x00, b[0], b[1], b[2], b[3]])
    }
}

impl fmt::Display for MacAddr {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        let o = self.0;
        write!(
            f,
            "{:02x}:{:02x}:{:02x}:{:02x}:{:02x}:{:02x}",
            o[0], o[1], o[2], o[3], o[4], o[5]
        )
    }
}

/// Error returned when parsing a [`MacAddr`] from text fails.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct ParseMacError {
    text: String,
}

impl fmt::Display for ParseMacError {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        write!(f, "invalid MAC address `{}`", self.text)
    }
}

impl std::error::Error for ParseMacError {}

impl FromStr for MacAddr {
    type Err = ParseMacError;

    fn from_str(s: &str) -> Result<Self, Self::Err> {
        let err = || ParseMacError { text: s.to_owned() };
        let mut out = [0u8; 6];
        let mut parts = s.split(':');
        for slot in &mut out {
            let part = parts.next().ok_or_else(err)?;
            *slot = u8::from_str_radix(part, 16).map_err(|_| err())?;
        }
        if parts.next().is_some() {
            return Err(err());
        }
        Ok(MacAddr(out))
    }
}

/// A uniform, display-oriented identity for a monitored entity.
///
/// Kalis keys per-entity knowledge (e.g. `SignalStrength@SensorA`) on a
/// single identity namespace regardless of the medium the entity speaks on.
/// `Entity` is that namespace: a canonical string derived from whichever
/// address the entity uses.
///
/// Every packet names its transmitter, receiver, source and destination
/// to every module that asks, so the text lives inside the value when it
/// fits — up to [`Entity::INLINE`] bytes, which covers every link and IPv4
/// address form — and on the heap only beyond that (IPv6 text, long
/// operator-given names). Comparison, ordering and hashing are those of
/// the text, exactly as for a `String`.
///
/// # Examples
///
/// ```
/// use kalis_packets::{Entity, ShortAddr};
///
/// let e = Entity::from(ShortAddr(7));
/// assert_eq!(e.as_str(), "0x0007");
/// ```
#[derive(Clone, PartialEq, Eq, PartialOrd, Ord)]
pub struct Entity(InlineStr<{ Entity::INLINE }>);

// Detection windows size themselves by `size_of::<(Timestamp, Entity)>()`:
// a different size moves every reported state figure.
const _: () = assert!(core::mem::size_of::<Entity>() == 24);

impl Entity {
    /// The longest name, in bytes, held without a heap allocation.
    pub(crate) const INLINE: usize = 22;

    /// Create an entity from an arbitrary name.
    pub fn new<S: AsRef<str> + Into<String>>(name: S) -> Self {
        Entity(InlineStr::new(name))
    }

    /// The canonical string form.
    pub fn as_str(&self) -> &str {
        self.0.as_str()
    }
}

impl core::hash::Hash for Entity {
    /// What `str` feeds a hasher (the bytes, then `0xff`), so sketches
    /// keyed on an entity land where they did when it was a `String`.
    fn hash<H: core::hash::Hasher>(&self, state: &mut H) {
        state.write(self.0.as_bytes());
        state.write_u8(0xff);
    }
}

impl fmt::Debug for Entity {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        f.debug_tuple("Entity").field(&self.as_str()).finish()
    }
}

impl fmt::Display for Entity {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        f.write_str(self.as_str())
    }
}

/// An inline name being spelled out of ASCII characters.
struct Ascii {
    len: usize,
    text: [u8; Entity::INLINE],
}

impl Ascii {
    fn new() -> Self {
        Ascii {
            len: 0,
            text: [0; Entity::INLINE],
        }
    }

    fn push(&mut self, ascii: u8) {
        debug_assert!(ascii.is_ascii());
        self.text[self.len] = ascii;
        self.len += 1;
    }

    /// Two lower-case hex digits.
    fn hex(&mut self, byte: u8) {
        const DIGITS: &[u8; 16] = b"0123456789abcdef";
        self.push(DIGITS[usize::from(byte >> 4)]);
        self.push(DIGITS[usize::from(byte & 0xf)]);
    }

    /// `0x` and the bytes in hex: `{:#06x}` of a `u16`, `{:#018x}` of a `u64`.
    fn prefixed_hex(mut self, bytes: &[u8]) -> Entity {
        self.push(b'0');
        self.push(b'x');
        for byte in bytes {
            self.hex(*byte);
        }
        self.finish()
    }

    /// Decimal, without leading zeros.
    fn decimal(&mut self, byte: u8) {
        if byte >= 100 {
            self.push(b'0' + byte / 100);
        }
        if byte >= 10 {
            self.push(b'0' + byte / 10 % 10);
        }
        self.push(b'0' + byte % 10);
    }

    fn finish(self) -> Entity {
        Entity(InlineStr::from_ascii(&self.text[..self.len]))
    }
}

impl From<ShortAddr> for Entity {
    fn from(value: ShortAddr) -> Self {
        Ascii::new().prefixed_hex(&value.0.to_be_bytes())
    }
}

impl From<ExtAddr> for Entity {
    fn from(value: ExtAddr) -> Self {
        Ascii::new().prefixed_hex(&value.0.to_be_bytes())
    }
}

impl From<MacAddr> for Entity {
    fn from(value: MacAddr) -> Self {
        let mut name = Ascii::new();
        for (i, octet) in value.0.iter().enumerate() {
            if i > 0 {
                name.push(b':');
            }
            name.hex(*octet);
        }
        name.finish()
    }
}

impl From<std::net::Ipv4Addr> for Entity {
    fn from(value: std::net::Ipv4Addr) -> Self {
        let mut name = Ascii::new();
        for (i, octet) in value.octets().iter().enumerate() {
            if i > 0 {
                name.push(b'.');
            }
            name.decimal(*octet);
        }
        name.finish()
    }
}

impl From<std::net::Ipv6Addr> for Entity {
    fn from(value: std::net::Ipv6Addr) -> Self {
        Entity::new(value.to_string())
    }
}

impl From<&str> for Entity {
    fn from(value: &str) -> Self {
        Entity::new(value)
    }
}

impl AsRef<str> for Entity {
    fn as_ref(&self) -> &str {
        self.as_str()
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn mac_parse_roundtrip() {
        let mac = MacAddr([1, 2, 3, 0xaa, 0xbb, 0xcc]);
        let parsed: MacAddr = mac.to_string().parse().unwrap();
        assert_eq!(parsed, mac);
    }

    #[test]
    fn mac_parse_rejects_garbage() {
        assert!("".parse::<MacAddr>().is_err());
        assert!("00:11:22:33:44".parse::<MacAddr>().is_err());
        assert!("00:11:22:33:44:55:66".parse::<MacAddr>().is_err());
        assert!("zz:11:22:33:44:55".parse::<MacAddr>().is_err());
    }

    #[test]
    fn from_index_is_locally_administered_and_unique() {
        let a = MacAddr::from_index(1);
        let b = MacAddr::from_index(2);
        assert_ne!(a, b);
        assert_eq!(a.0[0] & 0x02, 0x02);
    }

    #[test]
    fn broadcast_predicates() {
        assert!(ShortAddr::BROADCAST.is_broadcast());
        assert!(!ShortAddr(1).is_broadcast());
        assert!(MacAddr::BROADCAST.is_broadcast());
    }

    #[test]
    fn entity_canonical_forms_are_distinct_across_kinds() {
        let a = Entity::from(ShortAddr(1));
        let b = Entity::from(ExtAddr(1));
        assert_ne!(a, b);
    }

    fn hash_of(value: &impl core::hash::Hash) -> u64 {
        use core::hash::Hasher;
        let mut hasher = std::collections::hash_map::DefaultHasher::new();
        value.hash(&mut hasher);
        hasher.finish()
    }

    #[test]
    fn entity_debug_prints_the_tuple_struct_it_was() {
        let long = "a name well past the inline capacity";
        assert_eq!(
            format!("{:?}", Entity::new("0x0007")),
            r#"Entity("0x0007")"#
        );
        assert_eq!(
            format!("{:?}", Entity::new(long)),
            format!("Entity({long:?})")
        );
    }

    /// 0–40 characters of one to four bytes each: names on both sides of
    /// the inline capacity, and straddling it mid-character.
    const NAME: &str = "[a-z0-9:.é€😀]{0,40}";

    proptest::proptest! {
        /// An entity is its name: whichever representation holds it, it
        /// compares, orders, hashes and prints as the `String` does.
        #[test]
        fn entity_behaves_as_its_name(a in NAME, b in NAME) {
            let (ea, eb) = (Entity::new(a.clone()), Entity::from(b.as_str()));
            proptest::prop_assert_eq!(ea.as_str(), a.as_str());
            proptest::prop_assert_eq!(ea.to_string(), a.clone());
            proptest::prop_assert_eq!(ea.as_ref(), a.as_str());
            proptest::prop_assert_eq!(format!("{ea:?}"), format!("Entity({a:?})"));
            proptest::prop_assert_eq!(ea == eb, a == b);
            proptest::prop_assert_eq!(ea.cmp(&eb), a.cmp(&b));
            proptest::prop_assert_eq!(ea.partial_cmp(&eb), a.partial_cmp(&b));
            proptest::prop_assert_eq!(hash_of(&ea), hash_of(&a));
            proptest::prop_assert_eq!(ea.clone(), ea);
        }

        /// The address conversions spell what the addresses' `Display` does.
        #[test]
        fn entity_from_an_address_is_its_display_text(
            short in proptest::arbitrary::any::<u16>(),
            ext in proptest::arbitrary::any::<u64>(),
            mac in proptest::arbitrary::any::<[u8; 6]>(),
            v4 in proptest::arbitrary::any::<[u8; 4]>(),
            v6 in proptest::arbitrary::any::<[u16; 8]>(),
        ) {
            let short = ShortAddr(short);
            proptest::prop_assert_eq!(Entity::from(short).as_str(), short.to_string());
            let ext = ExtAddr(ext);
            proptest::prop_assert_eq!(Entity::from(ext).as_str(), ext.to_string());
            let mac = MacAddr(mac);
            proptest::prop_assert_eq!(Entity::from(mac).as_str(), mac.to_string());
            let v4 = std::net::Ipv4Addr::from(v4);
            proptest::prop_assert_eq!(Entity::from(v4).as_str(), v4.to_string());
            let v6 = std::net::Ipv6Addr::from(v6);
            proptest::prop_assert_eq!(Entity::from(v6).as_str(), v6.to_string());
        }
    }

    #[test]
    fn entity_address_forms_at_their_extremes() {
        for (entity, text) in [
            (Entity::from(ShortAddr(0)), "0x0000"),
            (Entity::from(ShortAddr::BROADCAST), "0xffff"),
            (Entity::from(ExtAddr(0x1)), "0x0000000000000001"),
            (Entity::from(ExtAddr(u64::MAX)), "0xffffffffffffffff"),
            (Entity::from(MacAddr::BROADCAST), "ff:ff:ff:ff:ff:ff"),
            (
                Entity::from(std::net::Ipv4Addr::new(0, 9, 10, 99)),
                "0.9.10.99",
            ),
            (
                Entity::from(std::net::Ipv4Addr::new(100, 255, 200, 109)),
                "100.255.200.109",
            ),
        ] {
            assert_eq!(entity.as_str(), text);
        }
    }
}
