//! Typed knowgget values with the paper's string-backed representation.

use core::fmt;

/// The value of a knowgget.
///
/// The paper's implementation stores every value as a string and lets
/// modules "specify what is the data type they expect in return for a
/// given key" (§V, Knowledge Representation). `KnowValue` keeps the typed
/// view while [`KnowValue::to_wire`] / [`KnowValue::from_wire`] provide
/// the string form used for storage, display, and synchronization.
///
/// # Examples
///
/// ```
/// use kalis_core::KnowValue;
///
/// let v = KnowValue::Float(-67.0);
/// assert_eq!(v.to_wire(), "-67");
/// assert_eq!(KnowValue::from_wire("true"), KnowValue::Bool(true));
/// assert_eq!(KnowValue::from_wire("8"), KnowValue::Int(8));
/// assert_eq!(KnowValue::from_wire("hello"), KnowValue::Text("hello".into()));
/// ```
#[derive(Debug, Clone, PartialEq)]
pub enum KnowValue {
    /// A boolean feature (e.g. `Multihop = true`).
    Bool(bool),
    /// An integer (e.g. `MonitoredNodes = 8`).
    Int(i64),
    /// A float (e.g. `SignalStrength@SensorA = -67.0`).
    Float(f64),
    /// Free-form text.
    Text(String),
}

impl KnowValue {
    /// Write the wire form into `out`: the one place that spells it.
    pub(crate) fn write_wire(&self, out: &mut impl fmt::Write) -> fmt::Result {
        match self {
            KnowValue::Bool(b) => write!(out, "{b}"),
            KnowValue::Int(i) => write!(out, "{i}"),
            // Integral floats print without a trailing `.0` so the wire
            // form is stable across type reinterpretation.
            KnowValue::Float(x) if x.fract() == 0.0 && x.abs() < 1e15 => {
                write!(out, "{}", *x as i64)
            }
            KnowValue::Float(x) => write!(out, "{x}"),
            KnowValue::Text(s) => out.write_str(s),
        }
    }

    /// The canonical string form (what the paper stores).
    pub fn to_wire(&self) -> String {
        let mut wire = String::new();
        self.write_wire(&mut wire)
            .expect("writing to a String cannot fail");
        wire
    }

    /// `self.to_wire().len()`, without building the string.
    pub(crate) fn wire_len(&self) -> usize {
        struct Count(usize);
        impl fmt::Write for Count {
            fn write_str(&mut self, s: &str) -> fmt::Result {
                self.0 += s.len();
                Ok(())
            }
        }
        let mut count = Count(0);
        self.write_wire(&mut count).expect("counting cannot fail");
        count.0
    }

    /// `self.to_wire() == text`, without building the string.
    pub(crate) fn wire_is(&self, text: &str) -> bool {
        /// Fails at the first piece that is not the next piece of `0`.
        struct Rest<'a>(&'a str);
        impl fmt::Write for Rest<'_> {
            fn write_str(&mut self, s: &str) -> fmt::Result {
                self.0 = self.0.strip_prefix(s).ok_or(fmt::Error)?;
                Ok(())
            }
        }
        let mut rest = Rest(text);
        self.write_wire(&mut rest).is_ok() && rest.0.is_empty()
    }

    /// The bool, integer or float a wire string spells, if any (tried in
    /// that order).
    fn parse_scalar(text: &str) -> Option<KnowValue> {
        if let Ok(b) = text.parse::<bool>() {
            return Some(KnowValue::Bool(b));
        }
        if let Ok(i) = text.parse::<i64>() {
            return Some(KnowValue::Int(i));
        }
        text.parse::<f64>().ok().map(KnowValue::Float)
    }

    /// Parse a wire string into the most specific type that fits
    /// (bool, then integer, then float, then text).
    pub fn from_wire(text: &str) -> KnowValue {
        Self::parse_scalar(text).unwrap_or_else(|| KnowValue::Text(text.to_owned()))
    }

    /// The value a trip through the wire form gives back —
    /// `KnowValue::from_wire(&self.to_wire())` — computed without the
    /// string wherever the answer is known from the type: an integral
    /// float is an integer (`Float(-67.0)` → `Int(-67)`), text that
    /// spells a bool or a number is that bool or number (`Text("8")` →
    /// `Int(8)`, `Text("1e3")` → `Float(1000.0)`). The Knowledge Base
    /// stores values in this form, so a lookup never parses.
    pub(crate) fn canonical(self) -> KnowValue {
        match self {
            KnowValue::Bool(_) | KnowValue::Int(_) => self,
            KnowValue::Float(x) if x.fract() == 0.0 && x.abs() < 1e15 => KnowValue::Int(x as i64),
            // Fractions, NaN and the infinities (`fract()` is NaN for
            // those) print as floats and parse back to themselves.
            KnowValue::Float(x) if x.fract() != 0.0 => self,
            // Integral and at least 1e15: `Display` prints the shortest
            // digits that identify the float, not its exact integer
            // value, and what they parse to depends on `i64`'s range.
            KnowValue::Float(_) => KnowValue::from_wire(&self.to_wire()),
            KnowValue::Text(s) => Self::parse_scalar(&s).unwrap_or(KnowValue::Text(s)),
        }
    }

    /// [`KnowValue::canonical`], and the text written where it spells
    /// the canonical value another way (`Text("+5")`: `Int(5)` and
    /// `"+5"`): what the Knowledge Base stores, taken by move.
    pub(crate) fn canonical_spelled(self) -> (KnowValue, Option<Box<str>>) {
        match self {
            KnowValue::Text(s) => match Self::parse_scalar(&s) {
                Some(scalar) if scalar.wire_is(&s) => (scalar, None),
                Some(scalar) => (scalar, Some(s.into_boxed_str())),
                None => (KnowValue::Text(s), None),
            },
            value => (value.canonical(), None),
        }
    }

    /// The boolean view, if this value is (or parses as) a bool.
    pub fn as_bool(&self) -> Option<bool> {
        match self {
            KnowValue::Bool(b) => Some(*b),
            KnowValue::Text(s) => s.parse().ok(),
            _ => None,
        }
    }

    /// The integer view, accepting exact floats.
    pub fn as_int(&self) -> Option<i64> {
        match self {
            KnowValue::Int(i) => Some(*i),
            KnowValue::Float(x) if x.fract() == 0.0 => Some(*x as i64),
            KnowValue::Text(s) => s.parse().ok(),
            _ => None,
        }
    }

    /// The float view, accepting integers.
    pub fn as_f64(&self) -> Option<f64> {
        match self {
            KnowValue::Float(x) => Some(*x),
            KnowValue::Int(i) => Some(*i as f64),
            KnowValue::Text(s) => s.parse().ok(),
            _ => None,
        }
    }

    /// The text view (always available, via the wire form).
    pub fn as_text(&self) -> String {
        self.to_wire()
    }
}

impl fmt::Display for KnowValue {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        self.write_wire(f)
    }
}

impl From<bool> for KnowValue {
    fn from(value: bool) -> Self {
        KnowValue::Bool(value)
    }
}

impl From<i64> for KnowValue {
    fn from(value: i64) -> Self {
        KnowValue::Int(value)
    }
}

impl From<f64> for KnowValue {
    fn from(value: f64) -> Self {
        KnowValue::Float(value)
    }
}

impl From<&str> for KnowValue {
    fn from(value: &str) -> Self {
        KnowValue::Text(value.to_owned())
    }
}

impl From<String> for KnowValue {
    fn from(value: String) -> Self {
        KnowValue::Text(value)
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn wire_roundtrip_recovers_type() {
        for v in [
            KnowValue::Bool(true),
            KnowValue::Bool(false),
            KnowValue::Int(-42),
            KnowValue::Float(0.037),
            KnowValue::Text("RPL".into()),
        ] {
            assert_eq!(KnowValue::from_wire(&v.to_wire()), v);
        }
    }

    #[test]
    fn integral_float_roundtrips_as_int() {
        // -67.0 goes to the wire as "-67" and comes back as Int — the
        // typed accessors keep both views working.
        let v = KnowValue::Float(-67.0);
        let back = KnowValue::from_wire(&v.to_wire());
        assert_eq!(back, KnowValue::Int(-67));
        assert_eq!(back.as_f64(), Some(-67.0));
    }

    #[test]
    fn typed_views_coerce_sensibly() {
        assert_eq!(KnowValue::Int(3).as_f64(), Some(3.0));
        assert_eq!(KnowValue::Float(3.0).as_int(), Some(3));
        assert_eq!(KnowValue::Float(3.5).as_int(), None);
        assert_eq!(KnowValue::Text("true".into()).as_bool(), Some(true));
        assert_eq!(KnowValue::Text("0.5".into()).as_f64(), Some(0.5));
        assert_eq!(KnowValue::Bool(true).as_int(), None);
    }

    #[test]
    fn text_never_fails() {
        assert_eq!(KnowValue::Bool(true).as_text(), "true");
        assert_eq!(KnowValue::Text("x y".into()).as_text(), "x y");
    }

    /// Equality that also holds between two NaNs.
    fn same(a: &KnowValue, b: &KnowValue) -> bool {
        match (a, b) {
            (KnowValue::Float(x), KnowValue::Float(y)) => x == y || (x.is_nan() && y.is_nan()),
            _ => a == b,
        }
    }

    #[test]
    fn canonical_examples() {
        let text = |s: &str| KnowValue::Text(s.to_owned());
        for (value, canonical) in [
            (KnowValue::Float(-67.0), KnowValue::Int(-67)),
            (KnowValue::Float(-0.0), KnowValue::Int(0)),
            (KnowValue::Float(0.037), KnowValue::Float(0.037)),
            (
                KnowValue::Float(1e15),
                KnowValue::Int(1_000_000_000_000_000),
            ),
            (KnowValue::Float(1e19), KnowValue::Float(1e19)),
            (
                KnowValue::Float(f64::INFINITY),
                KnowValue::Float(f64::INFINITY),
            ),
            (text("true"), KnowValue::Bool(true)),
            (text("8"), KnowValue::Int(8)),
            (text("+5"), KnowValue::Int(5)),
            (text("1e3"), KnowValue::Float(1000.0)),
            (text("inf"), KnowValue::Float(f64::INFINITY)),
            (text("RPL"), text("RPL")),
        ] {
            assert!(same(&value.clone().canonical(), &canonical), "{value:?}");
        }
        assert!(matches!(
            KnowValue::Float(f64::NAN).canonical(),
            KnowValue::Float(x) if x.is_nan()
        ));
    }

    fn any_value() -> impl proptest::strategy::Strategy<Value = KnowValue> {
        use proptest::prelude::*;
        let edge_floats = vec![
            0.0,
            -0.0,
            f64::NAN,
            f64::INFINITY,
            f64::NEG_INFINITY,
            1e15,
            -1e15,
            1e15 - 1.0,
            9_007_199_254_740_992.0,
            9_007_199_254_740_994.0,
            123_456_789_012_345_680.0,
            // 2^63, the first integral float past `i64`, and -2^63, the last within.
            9_223_372_036_854_775_808.0,
            -9_223_372_036_854_775_808.0,
            1e19,
            1e300,
            f64::MIN_POSITIVE,
        ];
        let spellings = vec![
            "true",
            "false",
            "True",
            "8",
            "+5",
            "007",
            "-0",
            "1e3",
            "1.50",
            ".5",
            "5.",
            "inf",
            "-inf",
            "infinity",
            "NaN",
            "nan",
            "",
            " 1",
            "0x10",
            "9223372036854775808",
            "-9223372036854775808",
            "-9223372036854775809",
            "RPL",
            "0x001e,0x001f",
        ];
        prop_oneof![
            any::<bool>().prop_map(KnowValue::Bool),
            any::<i64>().prop_map(KnowValue::Int),
            // Every bit pattern: NaN payloads, subnormals, huge exponents.
            any::<u64>().prop_map(|bits| KnowValue::Float(f64::from_bits(bits))),
            (-1e4..1e4f64).prop_map(KnowValue::Float),
            (0..edge_floats.len()).prop_map(move |i| KnowValue::Float(edge_floats[i])),
            // Integral floats on both sides of 1e15, 2^53 and 2^63.
            (1e14..2e19f64, any::<bool>()).prop_map(|(x, negative)| {
                KnowValue::Float(if negative { -x.trunc() } else { x.trunc() })
            }),
            (0..spellings.len()).prop_map(move |i| KnowValue::Text(spellings[i].to_owned())),
            "[-+]?[0-9]{0,20}[.]?[0-9]{0,4}e?[-+]?[0-9]{0,3}".prop_map(KnowValue::Text),
            "[ -~]{0,12}".prop_map(KnowValue::Text),
        ]
    }

    proptest::proptest! {
        /// `canonical()` is the round trip through the wire form, and
        /// the two string-free helpers agree with `to_wire()`.
        #[test]
        fn canonical_equals_the_wire_round_trip(value in any_value(), other in any_value()) {
            let wire = value.to_wire();
            let round_trip = KnowValue::from_wire(&wire);
            proptest::prop_assert!(
                same(&value.clone().canonical(), &round_trip),
                "{:?}: canonical {:?}, round trip {:?}", value, value.clone().canonical(), round_trip
            );
            proptest::prop_assert_eq!(value.wire_len(), wire.len());
            proptest::prop_assert!(value.wire_is(&wire));
            proptest::prop_assert_eq!(other.wire_is(&wire), other.to_wire() == wire);
        }
    }
}
