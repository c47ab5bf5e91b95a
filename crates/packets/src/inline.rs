//! A string that lives inside its owner when it is short.

use core::borrow::Borrow;
use core::fmt;

/// Text held inline up to `N` bytes and on the heap beyond that.
///
/// Identities, encoded Knowledge Base keys and module names are short,
/// made per packet and dropped thousands of packets later: kept inline,
/// making one allocates nothing and dropping one frees nothing. Equality
/// and order are those of the text's bytes — `str` order, since UTF-8
/// sorts as its code points do — and [`Borrow<[u8]>`](Borrow) lets an
/// ordered map keyed by these be searched with bytes assembled on the
/// stack, no comparison on the way down validating UTF-8 again.
///
/// `size_of::<InlineStr<N>>()` is `N + 2` rounded up to eight bytes and
/// never under 24, so `N` of 22, 30 or 46 wastes nothing.
///
/// # Examples
///
/// ```
/// use kalis_packets::InlineStr;
///
/// let short: InlineStr<22> = "0x0007".into();
/// let long: InlineStr<22> = "2001:db8:85a3::8a2e:370:7334".into();
/// assert_eq!(short.as_str(), "0x0007");
/// assert_eq!(long, "2001:db8:85a3::8a2e:370:7334");
/// assert!(short < long);
/// ```
#[derive(Clone)]
pub struct InlineStr<const N: usize>(Repr<N>);

#[derive(Clone)]
enum Repr<const N: usize> {
    /// The text is the first `len` bytes of `text`: whole `str`s only.
    Inline {
        len: u8,
        text: [u8; N],
    },
    Heap(Box<str>),
}

impl<const N: usize> InlineStr<N> {
    // `len` is a `u8`.
    const FITS: () = assert!(N <= u8::MAX as usize);

    /// The text, inline when it is at most `N` bytes long.
    pub fn new<S: AsRef<str> + Into<String>>(text: S) -> Self {
        let bytes = text.as_ref().as_bytes();
        if bytes.len() > N {
            return InlineStr(Repr::Heap(text.into().into_boxed_str()));
        }
        Self::inline(bytes)
    }

    /// ASCII text of at most `N` bytes, spelled by the caller byte by byte.
    pub(crate) fn from_ascii(ascii: &[u8]) -> Self {
        debug_assert!(ascii.is_ascii());
        Self::inline(ascii)
    }

    /// `bytes` (a whole `str`, at most `N` long) held inline.
    fn inline(bytes: &[u8]) -> Self {
        #[allow(clippy::let_unit_value)]
        let () = Self::FITS;
        let mut text = [0; N];
        text[..bytes.len()].copy_from_slice(bytes);
        InlineStr(Repr::Inline {
            len: bytes.len() as u8,
            text,
        })
    }

    /// The text.
    pub fn as_str(&self) -> &str {
        match &self.0 {
            Repr::Inline { len, text } => {
                core::str::from_utf8(&text[..usize::from(*len)]).expect("a whole str was copied in")
            }
            Repr::Heap(text) => text,
        }
    }

    /// The text's bytes, without the validation [`InlineStr::as_str`]
    /// pays for.
    pub fn as_bytes(&self) -> &[u8] {
        match &self.0 {
            Repr::Inline { len, text } => &text[..usize::from(*len)],
            Repr::Heap(text) => text.as_bytes(),
        }
    }

    /// Length of the text in bytes.
    pub fn len(&self) -> usize {
        self.as_bytes().len()
    }

    /// Whether the text is empty.
    pub fn is_empty(&self) -> bool {
        self.as_bytes().is_empty()
    }
}

impl<const N: usize> Default for InlineStr<N> {
    fn default() -> Self {
        Self::inline(&[])
    }
}

impl<const N: usize> PartialEq for InlineStr<N> {
    fn eq(&self, other: &Self) -> bool {
        self.as_bytes() == other.as_bytes()
    }
}

impl<const N: usize> Eq for InlineStr<N> {}

impl<const N: usize> PartialOrd for InlineStr<N> {
    fn partial_cmp(&self, other: &Self) -> Option<core::cmp::Ordering> {
        Some(self.cmp(other))
    }
}

impl<const N: usize> Ord for InlineStr<N> {
    fn cmp(&self, other: &Self) -> core::cmp::Ordering {
        self.as_bytes().cmp(other.as_bytes())
    }
}

impl<const N: usize> Borrow<[u8]> for InlineStr<N> {
    fn borrow(&self) -> &[u8] {
        self.as_bytes()
    }
}

impl<const N: usize> PartialEq<&str> for InlineStr<N> {
    fn eq(&self, other: &&str) -> bool {
        self.as_bytes() == other.as_bytes()
    }
}

impl<const N: usize> fmt::Debug for InlineStr<N> {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        fmt::Debug::fmt(self.as_str(), f)
    }
}

impl<const N: usize> fmt::Display for InlineStr<N> {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        f.write_str(self.as_str())
    }
}

impl<const N: usize> From<&str> for InlineStr<N> {
    fn from(text: &str) -> Self {
        Self::new(text)
    }
}

impl<const N: usize> From<String> for InlineStr<N> {
    fn from(text: String) -> Self {
        Self::new(text)
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn sizes_waste_nothing() {
        assert_eq!(core::mem::size_of::<InlineStr<22>>(), 24);
        assert_eq!(core::mem::size_of::<InlineStr<30>>(), 32);
        assert_eq!(core::mem::size_of::<InlineStr<46>>(), 48);
    }

    /// Characters of one to four bytes, so texts sit on both sides of a
    /// capacity and straddle it mid-character.
    const TEXT: &str = "[a-z0-9:.$@é€😀]{0,24}";

    /// `text` against the `String` it spells, at capacity `N`.
    fn behaves_as_its_text<const N: usize>(a: &str, b: &str) {
        let (ia, ib) = (InlineStr::<N>::new(a), InlineStr::<N>::from(b.to_owned()));
        assert_eq!(ia.as_str(), a);
        assert_eq!(ia.as_bytes(), a.as_bytes());
        assert_eq!((ia.len(), ia.is_empty()), (a.len(), a.is_empty()));
        assert_eq!(ia.to_string(), a);
        assert_eq!(format!("{ia:?}"), format!("{a:?}"));
        let borrowed: &[u8] = ia.borrow();
        assert_eq!(borrowed, a.as_bytes());
        assert_eq!(ia == ib, a == b);
        assert_eq!(ia == b, a == b);
        assert_eq!(ia.cmp(&ib), a.cmp(b));
        assert_eq!(ia.partial_cmp(&ib), a.partial_cmp(b));
        assert_eq!(ia.clone(), ia);
    }

    proptest::proptest! {
        /// Whichever representation holds it — one byte under the
        /// capacity, at it, one over — the text compares, orders, prints
        /// and borrows as the `String` does.
        #[test]
        fn inline_str_behaves_as_its_text(a in TEXT, b in TEXT) {
            // Lengths run 0..=96 bytes: every capacity below is straddled.
            behaves_as_its_text::<4>(&a, &b);
            behaves_as_its_text::<22>(&a, &b);
            behaves_as_its_text::<30>(&a, &b);
            behaves_as_its_text::<46>(&a, &b);
        }

        /// A text cut to N−1, N and N+1 bytes (at a character boundary)
        /// against a neighbour sharing its prefix: the order must come
        /// from the first `len` bytes, never from the padding.
        #[test]
        fn order_at_the_capacity_boundary(text in "[a-z€]{12,16}", tail in "[a-z€]{0,2}") {
            for cut in [7usize, 8, 9] {
                let mut end = cut.min(text.len());
                while !text.is_char_boundary(end) {
                    end -= 1;
                }
                let short = &text[..end];
                let longer = format!("{short}{tail}");
                behaves_as_its_text::<8>(short, &longer);
                behaves_as_its_text::<8>(&longer, short);
                // A trailing NUL is a byte of the text, not padding.
                let nul = format!("{short}\0");
                behaves_as_its_text::<8>(short, &nul);
            }
        }
    }
}
