//! Metric names, units, and the end-to-end summary of a set of
//! repetitions.

use crate::run::Rep;
use crate::stats::{percentile, quartiles};

/// One named measurement.
#[derive(Debug, Clone)]
pub struct Metric {
    pub name: String,
    pub unit: &'static str,
    pub value: f64,
}

impl Metric {
    pub fn new(name: impl Into<String>, unit: &'static str, value: f64) -> Metric {
        Metric {
            name: name.into(),
            unit,
            value,
        }
    }
}

/// An end-to-end metric over the untraced repetitions of one workload.
#[derive(Debug, Clone)]
pub struct Summary {
    pub name: &'static str,
    pub unit: &'static str,
    /// Share of the median by which the metric may worsen before it
    /// counts as a regression (mirrors `BENCHMARK.json`).
    pub bound: f64,
    /// Quartiles of the per-repetition values.
    pub q1: f64,
    /// The reported value: the median over repetitions, except for the
    /// latency percentiles (see [`summarise`]).
    pub median: f64,
    pub q3: f64,
    pub samples: usize,
}

/// `(name, unit, higher is better, bound, value of one repetition)`.
type EndToEnd = (&'static str, &'static str, bool, f64, fn(&Rep) -> f64);

/// The end-to-end metrics, in print order. Bounds are three times the
/// run-to-run spread this sandbox showed, rounded up, and at least what
/// the issue asked for.
pub const END_TO_END: [EndToEnd; 7] = [
    ("ingest_pps", "1/s", true, 0.25, |r| r.ingest_pps()),
    ("cpu_ns_per_packet", "ns", false, 0.25, |r| {
        r.cpu_ns_per_packet()
    }),
    ("ingest_p50_ns", "ns", false, 0.25, |r| r.p50_ns as f64),
    ("ingest_p99_ns", "ns", false, 0.25, |r| r.p99_ns as f64),
    ("peak_state_bytes", "bytes", false, 0.02, |r| {
        r.verdict.peak_state_bytes as f64
    }),
    ("detection_rate", "ratio", true, 0.001, |r| {
        r.verdict.detection_rate
    }),
    ("setup_s", "s", false, 0.25, |r| r.setup_s),
];

/// Median and quartiles of every end-to-end metric over `reps`.
///
/// Every repetition replays the same operations, so each operation has
/// been measured once per repetition, and what the sandbox adds to a
/// measurement — a preemption, a neighbour's cache traffic — is never
/// negative. The latency percentiles use that: an operation's latency is
/// the fastest of its measurements, and the percentile is taken over
/// operations afterwards. A cost the operation really has (a tick, an
/// alert, an eviction) shows in every repetition and stays; on
/// `flood-4k`, where every packet costs about the same, a per-repetition
/// p99 measured little but the sandbox and swung by 25 % between runs.
pub fn summarise(reps: &[Rep]) -> Vec<Summary> {
    let mut out: Vec<Summary> = END_TO_END
        .iter()
        .map(|(name, unit, _, bound, value)| {
            let samples: Vec<f64> = reps.iter().map(value).collect();
            let (q1, median, q3) = quartiles(&samples);
            Summary {
                name,
                unit,
                bound: *bound,
                q1,
                median,
                q3,
                samples: samples.len(),
            }
        })
        .collect();
    let mut per_op: Vec<u64> = (0..reps[0].latencies.len())
        .map(|op| reps.iter().map(|r| r.latencies[op]).min().expect("one rep"))
        .collect();
    per_op.sort_unstable();
    for (name, q) in [("ingest_p50_ns", 0.50), ("ingest_p99_ns", 0.99)] {
        let summary = out.iter_mut().find(|s| s.name == name);
        summary.expect("a latency metric").median = percentile(&per_op, q) as f64;
    }
    out
}

/// The result line the driver reads: one JSON object.
pub fn result_json(correct: bool, attempted: u64, failed: u64, metrics: &[Metric]) -> String {
    let body: Vec<String> = metrics
        .iter()
        .map(|m| {
            format!(
                "\"{}\": {{\"value\": {}, \"unit\": \"{}\"}}",
                m.name,
                json_number(m.value),
                m.unit
            )
        })
        .collect();
    format!(
        "{{\"correct\": {correct}, \"attempted\": {attempted}, \"failed\": {failed}, \"metrics\": {{{}}}}}",
        body.join(", ")
    )
}

/// A float with all its digits; JSON has no NaN or infinity.
fn json_number(v: f64) -> String {
    if v.is_finite() {
        format!("{v}")
    } else {
        "null".to_owned()
    }
}

#[cfg(test)]
mod tests {
    use std::collections::BTreeSet;

    use super::*;
    use crate::traced::traced_rep;
    use crate::workload::Kind;

    const BENCHMARK_JSON: &str = include_str!("../../BENCHMARK.json");

    /// The `"key": "value"` string on `line`, if it has one.
    fn field<'a>(line: &'a str, key: &str) -> Option<&'a str> {
        let rest = line.split_once(&format!("\"{key}\": \""))?.1;
        rest.split_once('"').map(|(value, _)| value)
    }

    /// The lines of the array under `"section"`: one entry per line.
    fn section(name: &str) -> Vec<&'static str> {
        BENCHMARK_JSON
            .split_once(&format!("\"{name}\": ["))
            .unwrap_or_else(|| panic!("BENCHMARK.json has no `{name}`"))
            .1
            .lines()
            .skip(1)
            .take_while(|line| line.trim_start().starts_with('{'))
            .collect()
    }

    fn names(section_name: &str) -> BTreeSet<String> {
        section(section_name)
            .iter()
            .map(|line| field(line, "name").expect("entry has a name").to_owned())
            .collect()
    }

    fn well_formed(name: &str) -> bool {
        let ok = |c: char| c.is_ascii_alphanumeric() || "_.-".contains(c);
        !name.is_empty() && name.len() <= 64 && name.chars().all(ok)
    }

    #[test]
    fn every_emitted_name_is_in_benchmark_json_and_back() {
        let workloads: BTreeSet<String> = Kind::ALL.iter().map(|k| k.name().to_owned()).collect();
        assert_eq!(workloads, names("workloads"));
        assert!(workloads.iter().all(|n| well_formed(n)));

        let end_to_end: BTreeSet<String> = END_TO_END.iter().map(|m| m.0.to_owned()).collect();
        assert_eq!(end_to_end, names("end_to_end"));
        for (name, unit, higher, bound, _) in END_TO_END {
            let line = section("end_to_end")
                .into_iter()
                .find(|l| field(l, "name") == Some(name))
                .expect("checked above");
            assert_eq!(field(line, "unit"), Some(unit), "{name}");
            let better = if higher { "higher" } else { "lower" };
            assert_eq!(field(line, "better"), Some(better), "{name}");
            assert!(
                line.contains(&format!("\"bound\": {bound}}}")),
                "{name}: {line}"
            );
        }

        // The per-layer names do not depend on the workload.
        let traced = traced_rep(Kind::IdentitySpray, 42, 100, 1.0);
        let per_layer: BTreeSet<String> = traced.metrics.iter().map(|m| m.name.clone()).collect();
        assert_eq!(
            per_layer.len(),
            traced.metrics.len(),
            "a name is used twice"
        );
        assert!(per_layer.iter().all(|n| well_formed(n)), "{per_layer:?}");
        assert_eq!(per_layer, names("per_layer"));
        for m in &traced.metrics {
            let line = section("per_layer")
                .into_iter()
                .find(|l| field(l, "name") == Some(&m.name))
                .expect("checked above");
            assert_eq!(field(line, "unit"), Some(m.unit), "{}", m.name);
            assert!(m.value.is_finite(), "{} is {}", m.name, m.value);
        }
        assert!(end_to_end.is_disjoint(&per_layer));
    }

    #[test]
    fn latency_percentiles_take_each_operations_fastest_measurement() {
        let mut a = crate::run::untraced_rep(Kind::Flood4k, 42, 100);
        let mut b = a.clone();
        a.latencies = vec![1, 100, 3, 4];
        b.latencies = vec![50, 2, 3, 400];
        let summaries = summarise(&[a, b]);
        let value = |name: &str| summaries.iter().find(|s| s.name == name).unwrap().median;
        assert_eq!(value("ingest_p50_ns"), 2.0);
        assert_eq!(value("ingest_p99_ns"), 4.0);
    }

    #[test]
    fn result_line_is_one_json_object_with_all_digits() {
        let line = result_json(
            true,
            1000,
            0,
            &[
                Metric::new("a.b", "ns", 1.203_456_789_012_3),
                Metric::new("c", "1/s", 7.0),
            ],
        );
        assert_eq!(
            line,
            "{\"correct\": true, \"attempted\": 1000, \"failed\": 0, \"metrics\": \
             {\"a.b\": {\"value\": 1.2034567890123, \"unit\": \"ns\"}, \
             \"c\": {\"value\": 7, \"unit\": \"1/s\"}}}"
        );
    }
}
