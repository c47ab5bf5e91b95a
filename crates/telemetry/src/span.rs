//! RAII scope timers feeding a histogram.

use crate::Histogram;
use std::time::Instant;

/// Records the wall-clock lifetime of the value into a [`Histogram`]
/// (nanoseconds) when dropped.
///
/// ```
/// use kalis_telemetry::Histogram;
/// let hist = Histogram::new();
/// {
///     let _span = hist.span();
///     // ... timed work ...
/// }
/// assert_eq!(hist.count(), 1);
/// ```
// kalis-lint: allow(KL306): named by the `pub` signature of `Histogram::span`
pub struct SpanTimer<'a> {
    histogram: &'a Histogram,
    start: Instant,
}

impl<'a> SpanTimer<'a> {
    /// Start timing now.
    pub fn new(histogram: &'a Histogram) -> Self {
        SpanTimer {
            histogram,
            start: Instant::now(),
        }
    }

    /// Stop early and record, consuming the timer.
    pub fn finish(self) {}
}

impl Drop for SpanTimer<'_> {
    fn drop(&mut self) {
        let nanos = self.start.elapsed().as_nanos().min(u64::MAX as u128) as u64;
        self.histogram.record(nanos);
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn span_records_once_on_drop() {
        let hist = Histogram::new();
        {
            let _span = hist.span();
        }
        hist.span().finish();
        assert_eq!(hist.count(), 2);
    }
}
