//! Trace recording and replay.
//!
//! The paper's methodology is *record and replay*: capture traces from
//! real devices, enhance them with attack symptoms, and feed them to the
//! IDS as if live ("The Data Store abstracts the traffic sources by
//! replaying traffic transparently to the detection modules"). This module
//! provides the same workflow for simulated captures.
//!
//! The on-disk format is a plain text line per packet:
//!
//! ```text
//! <micros>|<medium>|<rssi-or-->|<interface>|<hex raw bytes>
//! ```
//!
//! kept deliberately simple so traces can be inspected, filtered, and
//! hand-edited with standard Unix tools (the "enhanced with additional
//! packets" step of the paper).

use std::fmt::Write as _;
use std::io::{BufRead, Write};

use bytes::Bytes;
use kalis_packets::{CapturedPacket, Medium, Timestamp};

/// Errors produced while reading a trace.
#[derive(Debug)]
#[non_exhaustive]
// kalis-lint: allow(KL306): named by the `pub` signature of `parse_line`
pub enum TraceError {
    /// Underlying I/O failure.
    Io(std::io::Error),
    /// A malformed line, with its 1-based line number.
    Malformed {
        /// 1-based line number.
        line: usize,
        /// What was wrong.
        reason: String,
    },
}

impl core::fmt::Display for TraceError {
    fn fmt(&self, f: &mut core::fmt::Formatter<'_>) -> core::fmt::Result {
        match self {
            TraceError::Io(e) => write!(f, "trace i/o error: {e}"),
            TraceError::Malformed { line, reason } => {
                write!(f, "malformed trace line {line}: {reason}")
            }
        }
    }
}

impl std::error::Error for TraceError {
    fn source(&self) -> Option<&(dyn std::error::Error + 'static)> {
        match self {
            TraceError::Io(e) => Some(e),
            TraceError::Malformed { .. } => None,
        }
    }
}

impl From<std::io::Error> for TraceError {
    fn from(value: std::io::Error) -> Self {
        TraceError::Io(value)
    }
}

fn medium_tag(medium: Medium) -> &'static str {
    match medium {
        Medium::Ieee802154 => "154",
        Medium::Wifi => "wifi",
        Medium::Ethernet => "eth",
        Medium::Ble => "ble",
    }
}

fn parse_medium(tag: &str) -> Option<Medium> {
    match tag {
        "154" => Some(Medium::Ieee802154),
        "wifi" => Some(Medium::Wifi),
        "eth" => Some(Medium::Ethernet),
        "ble" => Some(Medium::Ble),
        _ => None,
    }
}

fn hex_encode(bytes: &[u8]) -> String {
    let mut out = String::with_capacity(bytes.len() * 2);
    for b in bytes {
        let _ = write!(out, "{b:02x}");
    }
    out
}

fn hex_decode(text: &str) -> Option<Vec<u8>> {
    if text.len() % 2 != 0 {
        return None;
    }
    (0..text.len())
        .step_by(2)
        .map(|i| u8::from_str_radix(&text[i..i + 2], 16).ok())
        .collect()
}

/// Serialize one captured packet as a trace line (no trailing newline).
pub fn format_line(cap: &CapturedPacket) -> String {
    let rssi = cap
        .rssi_dbm
        .map_or_else(|| "-".to_owned(), |r| format!("{r:.2}"));
    format!(
        "{}|{}|{}|{}|{}",
        cap.timestamp.as_micros(),
        medium_tag(cap.medium),
        rssi,
        cap.interface,
        hex_encode(&cap.raw)
    )
}

/// Parse one trace line back into a captured packet (re-decoding the
/// stack from the raw bytes).
pub fn parse_line(line: &str, line_no: usize) -> Result<CapturedPacket, TraceError> {
    let malformed = |reason: &str| TraceError::Malformed {
        line: line_no,
        reason: reason.to_owned(),
    };
    let mut parts = line.splitn(5, '|');
    let micros: u64 = parts
        .next()
        .ok_or_else(|| malformed("missing timestamp"))?
        .parse()
        .map_err(|_| malformed("bad timestamp"))?;
    let medium = parse_medium(parts.next().ok_or_else(|| malformed("missing medium"))?)
        .ok_or_else(|| malformed("unknown medium"))?;
    let rssi_text = parts.next().ok_or_else(|| malformed("missing rssi"))?;
    let rssi = if rssi_text == "-" {
        None
    } else {
        Some(rssi_text.parse().map_err(|_| malformed("bad rssi"))?)
    };
    let interface = parts
        .next()
        .ok_or_else(|| malformed("missing interface"))?
        .to_owned();
    let hex = parts.next().ok_or_else(|| malformed("missing payload"))?;
    let raw = hex_decode(hex.trim_end()).ok_or_else(|| malformed("bad hex payload"))?;
    Ok(CapturedPacket::capture(
        Timestamp::from_micros(micros),
        medium,
        rssi,
        interface,
        Bytes::from(raw),
    ))
}

/// Write a sequence of captures as a trace.
///
/// # Errors
///
/// Propagates I/O errors from `writer`.
pub fn write_trace<'a, W: Write>(
    writer: &mut W,
    captures: impl IntoIterator<Item = &'a CapturedPacket>,
) -> Result<(), TraceError> {
    for cap in captures {
        writeln!(writer, "{}", format_line(cap))?;
    }
    Ok(())
}

/// Read a whole trace, in order.
///
/// # Errors
///
/// Returns [`TraceError`] on I/O failure or the first malformed line.
pub fn read_trace<R: BufRead>(reader: R) -> Result<Vec<CapturedPacket>, TraceError> {
    let mut out = Vec::new();
    for (idx, line) in reader.lines().enumerate() {
        let line = line?;
        if line.trim().is_empty() || line.starts_with('#') {
            continue;
        }
        out.push(parse_line(&line, idx + 1)?);
    }
    Ok(out)
}

/// Merge multiple traces into one stream ordered by timestamp — the
/// "enhance a recorded trace with attack symptom packets" step.
pub fn merge_traces(traces: Vec<Vec<CapturedPacket>>) -> Vec<CapturedPacket> {
    let mut all: Vec<CapturedPacket> = traces.into_iter().flatten().collect();
    all.sort_by_key(|c| c.timestamp);
    all
}

#[cfg(test)]
mod tests {
    use super::*;
    use std::io::Cursor;

    fn sample_caps() -> Vec<CapturedPacket> {
        use kalis_packets::codec::Encode;
        let frame = kalis_packets::ieee802154::Ieee802154Frame::ack(9);
        vec![
            CapturedPacket::capture(
                Timestamp::from_micros(100),
                Medium::Ieee802154,
                Some(-61.25),
                "t0",
                frame.to_bytes(),
            ),
            CapturedPacket::capture(
                Timestamp::from_micros(250),
                Medium::Ethernet,
                None,
                "eth0",
                Bytes::from_static(&[0u8; 14]),
            ),
        ]
    }

    #[test]
    fn roundtrip_through_text() {
        let caps = sample_caps();
        let mut buf = Vec::new();
        write_trace(&mut buf, &caps).unwrap();
        let back = read_trace(Cursor::new(buf)).unwrap();
        assert_eq!(back.len(), caps.len());
        for (a, b) in caps.iter().zip(&back) {
            assert_eq!(a.timestamp, b.timestamp);
            assert_eq!(a.medium, b.medium);
            assert_eq!(a.raw, b.raw);
            assert_eq!(a.interface, b.interface);
            match (a.rssi_dbm, b.rssi_dbm) {
                (Some(x), Some(y)) => assert!((x - y).abs() < 0.01),
                (None, None) => {}
                other => panic!("rssi mismatch: {other:?}"),
            }
        }
        // Replayed packets are re-decoded.
        assert!(back[0].decoded().is_some());
    }

    #[test]
    fn comments_and_blank_lines_are_skipped() {
        let text = "# a comment\n\n100|ble|-|b0|0008020000000001\n";
        let caps = read_trace(Cursor::new(text)).unwrap();
        assert_eq!(caps.len(), 1);
        assert_eq!(caps[0].medium, Medium::Ble);
    }

    #[test]
    fn malformed_lines_are_reported_with_numbers() {
        let text = "not-a-trace-line\n";
        match read_trace(Cursor::new(text)) {
            Err(TraceError::Malformed { line: 1, .. }) => {}
            other => panic!("expected malformed error, got {other:?}"),
        }
        let odd_hex = "5|wifi|-|w|abc\n";
        assert!(read_trace(Cursor::new(odd_hex)).is_err());
        let bad_medium = "5|zz|-|w|ab\n";
        assert!(read_trace(Cursor::new(bad_medium)).is_err());
    }

    #[test]
    fn merge_orders_by_time() {
        let a = sample_caps();
        let b = vec![CapturedPacket::capture(
            Timestamp::from_micros(150),
            Medium::Ble,
            None,
            "b0",
            Bytes::from_static(&[0x00, 0x08, 2, 0, 0, 0, 0, 1]),
        )];
        let merged = merge_traces(vec![a, b]);
        let times: Vec<u64> = merged.iter().map(|c| c.timestamp.as_micros()).collect();
        assert_eq!(times, vec![100, 150, 250]);
    }
}
