//! Kalis node identity.

use core::fmt;

use kalis_packets::InlineStr;
use serde::{Deserialize, Serialize};

/// The identifier of a Kalis node, used as the `creator` field of
/// knowggets (`K1$Multihop`) and as the sender identity in collective
/// knowledge synchronization.
///
/// Identifiers may not contain the knowgget key delimiters `$`, `@`, or
/// `.`; [`KalisId::new`] panics on such input (construction happens at
/// configuration time, where failing fast is the right behaviour).
///
/// Every knowgget names its creator and every sync message and beacon
/// its sender, so the text lives inside the value up to 22 bytes, as an
/// [`Entity`](kalis_packets::Entity)'s does: decoding one allocates
/// nothing. Comparison, ordering and hashing are those of the text,
/// exactly as for a `String`.
///
/// # Examples
///
/// ```
/// use kalis_core::KalisId;
///
/// let id = KalisId::new("K1");
/// assert_eq!(id.as_str(), "K1");
/// ```
#[derive(Debug, Clone, PartialEq, Eq, PartialOrd, Ord, Serialize, Deserialize)]
pub struct KalisId(InlineStr<22>);

impl KalisId {
    /// Create an identifier.
    ///
    /// # Panics
    ///
    /// Panics if `id` is empty or contains `$`, `@`, or `.`.
    pub fn new<S: AsRef<str> + Into<String>>(id: S) -> Self {
        Self::try_new(id).unwrap_or_else(|reason| panic!("{reason}"))
    }

    /// Create an identifier from untrusted input (e.g. a decoded sync
    /// message), where panicking would hand remote peers a crash lever.
    ///
    /// # Errors
    ///
    /// Returns a description when `id` is empty or contains `$`, `@`,
    /// or `.`.
    pub fn try_new<S: AsRef<str> + Into<String>>(id: S) -> Result<Self, String> {
        let text = id.as_ref();
        if text.is_empty() || text.contains(['$', '@', '.']) {
            return Err(format!(
                "invalid Kalis id `{text}`: must be non-empty and free of `$`, `@`, `.`"
            ));
        }
        Ok(KalisId(InlineStr::new(id)))
    }

    /// The identifier text.
    pub fn as_str(&self) -> &str {
        self.0.as_str()
    }

    /// The identifier's bytes, without the UTF-8 check
    /// [`KalisId::as_str`] pays for.
    pub(crate) fn as_bytes(&self) -> &[u8] {
        self.0.as_bytes()
    }
}

impl core::hash::Hash for KalisId {
    /// What `str` feeds a hasher (the bytes, then `0xff`), as when the
    /// identifier was a `String`.
    fn hash<H: core::hash::Hasher>(&self, state: &mut H) {
        state.write(self.0.as_bytes());
        state.write_u8(0xff);
    }
}

impl fmt::Display for KalisId {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        f.write_str(self.as_str())
    }
}

impl AsRef<str> for KalisId {
    fn as_ref(&self) -> &str {
        self.as_str()
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn accepts_plain_names() {
        assert_eq!(KalisId::new("K1").to_string(), "K1");
        assert_eq!(KalisId::new("router-kalis").as_str(), "router-kalis");
        let long = "a-kalis-node-name-longer-than-twenty-two-bytes";
        assert_eq!(KalisId::new(long).as_str(), long);
    }

    #[test]
    #[should_panic(expected = "invalid Kalis id")]
    fn rejects_dollar() {
        let _ = KalisId::new("K$1");
    }

    #[test]
    #[should_panic(expected = "invalid Kalis id")]
    fn rejects_empty() {
        let _ = KalisId::new("");
    }

    #[test]
    fn hashes_and_orders_as_its_text() {
        use std::hash::{BuildHasher, RandomState};
        let state = RandomState::new();
        for (a, b) in [
            ("K1", "K2"),
            ("K10", "K2"),
            ("K1", "a-node-name-past-the-inline-room"),
        ] {
            let (ia, ib) = (KalisId::new(a), KalisId::new(b));
            assert_eq!(state.hash_one(&ia), state.hash_one(a));
            assert_eq!(ia.cmp(&ib), a.cmp(b));
        }
    }
}
