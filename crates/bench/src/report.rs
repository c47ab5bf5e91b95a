//! Text rendering for the experiment outputs (the tables and figures),
//! plus the `BENCH_*.json` machine-readable report carrying telemetry
//! alongside the paper's numbers.

use kalis_core::taxonomy::{relation, Feature, Relation};
use kalis_core::AttackKind;
use kalis_telemetry::json::quote;
use kalis_telemetry::{names, TelemetrySnapshot};

use crate::experiments::{
    DiagOverheadResult, OpsOverheadResult, ScenarioResult, StateExhaustionResult, Table2,
    TracingOverheadResult,
};

/// Format a ratio as a percentage.
pub fn pct(x: f64) -> String {
    format!("{:.0}%", x * 100.0)
}

/// Render the Fig. 3 feature/attack matrix as text (● possible,
/// ✗ impossible, ◯ technique depends on the feature).
pub fn render_fig3() -> String {
    const FEATURES: [(Feature, &str); 9] = [
        (Feature::MultiHop, "multi-hop"),
        (Feature::SingleHop, "single-hop"),
        (Feature::Mobile, "mobile"),
        (Feature::Static, "static"),
        (Feature::ConstrainedDevices, "constrained"),
        (Feature::IpConnectivity, "ip"),
        (Feature::WifiMedium, "wifi"),
        (Feature::Ieee802154Medium, "802.15.4"),
        (Feature::CryptoDeployed, "crypto"),
    ];
    const ATTACKS: [AttackKind; 12] = [
        AttackKind::IcmpFlood,
        AttackKind::Smurf,
        AttackKind::SynFlood,
        AttackKind::UdpFlood,
        AttackKind::SelectiveForwarding,
        AttackKind::Blackhole,
        AttackKind::Sinkhole,
        AttackKind::Sybil,
        AttackKind::Replication,
        AttackKind::Wormhole,
        AttackKind::Deauth,
        AttackKind::Scan,
    ];
    let mut out = String::from("feature \\ attack");
    for attack in ATTACKS {
        out.push_str(&format!(" | {}", attack.label()));
    }
    out.push('\n');
    for (feature, name) in FEATURES {
        out.push_str(name);
        for attack in ATTACKS {
            let mark = match relation(feature, attack) {
                Relation::Possible => "●",
                Relation::Impossible => "✗",
                Relation::TechniqueDepends => "◯",
            };
            out.push_str(&format!(" | {mark}"));
        }
        out.push('\n');
    }
    out
}

/// Render Table II.
pub fn render_table2(table: &Table2) -> String {
    let rows = table.rows();
    let mut out = String::new();
    out.push_str(
        "Table II: average effectiveness and performance (ICMP-flood + replication scenarios)\n",
    );
    out.push_str(&format!(
        "{:<12} {:>15} {:>10} {:>18} {:>16}\n",
        "system", "detection rate", "accuracy", "CPU (work/pkt)", "RAM (peak KiB)"
    ));
    for row in rows {
        let note = if row.fully_applicable { "" } else { " *" };
        out.push_str(&format!(
            "{:<12} {:>15} {:>10} {:>18.2} {:>16.1}{note}\n",
            row.name,
            pct(row.detection_rate),
            pct(row.accuracy),
            row.work_per_packet,
            row.peak_state_bytes as f64 / 1024.0,
        ));
    }
    out.push_str("* averaged over observable scenarios only (cannot parse 802.15.4 traffic)\n");
    out
}

/// Render the Fig. 8 per-scenario comparison.
pub fn render_fig8(results: &[ScenarioResult]) -> String {
    let mut out = String::new();
    out.push_str("Fig. 8: effectiveness per attack scenario (detection rate / accuracy)\n");
    out.push_str(&format!(
        "{:<22} {:>10} {:>18} {:>18} {:>18}\n",
        "scenario", "symptoms", "Kalis", "Trad. IDS", "Snort"
    ));
    for result in results {
        out.push_str(&format!(
            "{:<22} {:>10}",
            result.kind.name(),
            result.instances
        ));
        for name in ["Kalis", "Trad. IDS", "Snort"] {
            let sys = result.systems.iter().find(|s| s.name == name);
            let cell = match sys {
                Some(s) if s.applicable => format!(
                    "{} / {}",
                    pct(s.score.detection_rate()),
                    pct(s.score.classification_accuracy())
                ),
                Some(_) => "n/a".to_owned(),
                None => "-".to_owned(),
            };
            out.push_str(&format!(" {cell:>18}"));
        }
        out.push('\n');
    }
    // Averages over applicable scenarios (what Fig. 8 reports for
    // Kalis vs traditional IDS).
    for name in ["Kalis", "Trad. IDS"] {
        let mut rates = Vec::new();
        let mut accs = Vec::new();
        for result in results {
            if let Some(s) = result.systems.iter().find(|s| s.name == name) {
                rates.push(s.score.detection_rate());
                accs.push(s.score.classification_accuracy());
            }
        }
        let rate = rates.iter().sum::<f64>() / rates.len().max(1) as f64;
        let acc = accs.iter().sum::<f64>() / accs.len().max(1) as f64;
        out.push_str(&format!(
            "average {name}: detection {} accuracy {}\n",
            pct(rate),
            pct(acc)
        ));
    }
    out
}

/// Render a human-readable digest of a telemetry snapshot: pipeline and
/// per-module dispatch latency quantiles, KB activity, and the most
/// recent journal events.
pub fn render_telemetry(snapshot: &TelemetrySnapshot) -> String {
    let mut out = String::new();
    out.push_str("Telemetry (Kalis node)\n");
    if let Some(h) = snapshot.histogram(names::PIPELINE) {
        out.push_str(&format!(
            "pipeline.ingest: n={} p50={}ns p95={}ns p99={}ns\n",
            h.count,
            h.quantile(0.50),
            h.quantile(0.95),
            h.quantile(0.99),
        ));
    }
    let mut dispatch: Vec<_> = snapshot
        .histograms_in(names::DISPATCH_PACKET)
        .filter(|(_, h)| h.count > 0)
        .collect();
    // Hottest module first; every sampled module, so that which rows
    // show does not hang on wall-clock sums.
    dispatch.sort_by_key(|(_, h)| std::cmp::Reverse(h.sum));
    for (name, h) in &dispatch {
        out.push_str(&format!(
            "{name}: n={} p50={}ns p95={}ns p99={}ns\n",
            h.count,
            h.quantile(0.50),
            h.quantile(0.95),
            h.quantile(0.99),
        ));
    }
    out.push_str(&format!(
        "kb: revision={} churn={} ops insert={} get={} remove={} sync={}\n",
        snapshot.gauge(names::KB_REVISION),
        snapshot.counter(names::KB_CHURN),
        snapshot.counter("kb.ops[op=insert]"),
        snapshot.counter("kb.ops[op=get]"),
        snapshot.counter("kb.ops[op=remove]"),
        snapshot.counter("kb.ops[op=sync]"),
    ));
    out.push_str(&format!(
        "modules: active={} activated={} deactivated={}  alerts={}\n",
        snapshot.gauge(names::MODULES_ACTIVE),
        snapshot.counter(names::MODULES_ACTIVATED),
        snapshot.counter(names::MODULES_DEACTIVATED),
        snapshot.counter(names::ALERTS),
    ));
    let journal = &snapshot.journal;
    out.push_str(&format!(
        "journal: {} records retained, {} dropped\n",
        journal.records.len(),
        journal.dropped
    ));
    for record in journal.records.iter().rev().take(5).rev() {
        out.push_str(&format!("  [{}us] {}", record.time_us, record.event.kind()));
        for (key, value) in record.event.fields() {
            match value {
                kalis_telemetry::JournalField::Str(s) => out.push_str(&format!(" {key}={s}")),
                kalis_telemetry::JournalField::Num(n) => out.push_str(&format!(" {key}={n}")),
            }
        }
        out.push('\n');
    }
    out
}

/// Render the tracing-overhead comparison.
pub fn render_tracing_overhead(result: &TracingOverheadResult) -> String {
    format!(
        "tracing overhead ({} packets, ABBA on-CPU):\n\
         \x20 sampling off  : {:>12.0} pps (best of N)\n\
         \x20 sampling 100% : {:>12.0} pps (best of N)\n\
         \x20 overhead      : {:>11.2}% (cleanest iteration)\n\
         \x20 resolution    : {:>11.2}% (off vs off: a floor inside ± it is noise)\n",
        result.packets,
        result.off_pps,
        result.full_pps,
        result.overhead_pct(),
        result.resolution_pct,
    )
}

/// Render the ops-overhead comparison for the terminal.
pub fn render_ops_overhead(result: &OpsOverheadResult) -> String {
    format!(
        "ops-surface overhead ({} packets, ABBA on-CPU):\n\
         \x20 ops off       : {:>12.0} pps (best of N)\n\
         \x20 ops on        : {:>12.0} pps (best of N)\n\
         \x20 overhead      : {:>11.2}% (cleanest iteration)\n\
         \x20 resolution    : {:>11.2}% (off vs off: a floor inside ± it is noise)\n\
         \x20 /metrics cost : {:>11.2}ms per scrape ({} timed)\n",
        result.packets,
        result.off_pps,
        result.on_pps,
        result.overhead_pct(),
        result.resolution_pct,
        result.scrape_ms,
        result.scrapes,
    )
}

/// Render the flight-recorder overhead + determinism comparison.
pub fn render_diag_overhead(result: &DiagOverheadResult) -> String {
    format!(
        "flight-recorder overhead ({} packets, ABBA on-CPU time):\n\
         \x20 recorder off  : {:>12.0} pps (best of N)\n\
         \x20 recorder on   : {:>12.0} pps (best of N)\n\
         \x20 overhead      : {:>11.2}% (cleanest iteration, gated)\n\
         \x20 resolution    : {:>11.2}% (off vs off: a floor inside ± it is noise)\n\
         \x20 median        : {:>11.2}% (across iterations)\n\
         chaos-leg captures: {} ({} bundles retained, {} bytes, last trigger {})\n\
         bundles valid: {}  double-run byte-identical: {}\n",
        result.packets,
        result.off_pps,
        result.on_pps,
        result.overhead_pct(),
        result.resolution_pct,
        result.median_overhead_pct,
        result.captures,
        result.bundles,
        result.bundle_bytes,
        result.last_trigger,
        result.bundles_valid,
        result.deterministic,
    )
}

/// Build the machine-readable flight-recorder report (`BENCH_8.json`):
/// the off/on throughput comparison with the off-vs-off resolution it is
/// read against, plus the chaos leg's capture count and the determinism
/// verdict on its `kalis.diag.v1` bundles.
pub fn diag_json(result: &DiagOverheadResult) -> String {
    format!(
        "{{\n  \"packets\": {},\n  \"off_pps\": {:.2},\n  \"on_pps\": {:.2},\n  \
         \"overhead_pct\": {:.4},\n  \"resolution_pct\": {:.4},\n  \
         \"resolution_note\": \"an overhead_pct within ±resolution_pct is noise\",\n  \
         \"median_overhead_pct\": {:.4},\n  \
         \"captures\": {},\n  \"bundles\": {},\n  \
         \"bundle_bytes\": {},\n  \"last_trigger\": {},\n  \
         \"bundles_valid\": {},\n  \"deterministic\": {}\n}}\n",
        result.packets,
        result.off_pps,
        result.on_pps,
        result.overhead_pct(),
        result.resolution_pct,
        result.median_overhead_pct,
        result.captures,
        result.bundles,
        result.bundle_bytes,
        quote(&result.last_trigger),
        result.bundles_valid,
        result.deterministic,
    )
}

/// Render the state-exhaustion experiment for the terminal.
pub fn render_exhaustion(result: &StateExhaustionResult) -> String {
    let mut out = format!(
        "state exhaustion ({} fake identities over {} spray packets):\n\
         \x20 recall baseline/sprayed : {} / {}\n\
         \x20 total evictions         : {}\n\
         \x20 eviction journal events : {}\n\
         \x20 peak state base/sprayed : {:.1} KiB / {:.1} KiB\n\
         \x20 kb entities             : {}/{} (evictions {})\n",
        result.fake_identities,
        result.spray_packets,
        pct(result.baseline_detection_rate),
        pct(result.sprayed_detection_rate),
        result.total_evictions(),
        result.eviction_journal_events,
        result.baseline_peak_state_bytes as f64 / 1024.0,
        result.sprayed_peak_state_bytes as f64 / 1024.0,
        result.kb_occupancy,
        result.kb_budget,
        result.kb_evictions,
    );
    out.push_str(&format!(
        "{:<26} {:>12} {:>10} {:>12}\n",
        "module", "occupancy", "budget", "evictions"
    ));
    for row in &result.modules {
        out.push_str(&format!(
            "{:<26} {:>12} {:>10} {:>12}\n",
            row.name, row.occupancy, row.budget, row.evictions
        ));
    }
    out.push_str(&format!(
        "bounded: {}  recall held: {}\n",
        result.bounded(),
        result.recall_held()
    ));
    out
}

/// Build the machine-readable exhaustion report (`BENCH_7.json`): the
/// spray magnitude, occupancy-vs-budget rows, eviction counts, and the
/// baseline-vs-sprayed recall comparison.
pub fn exhaustion_json(result: &StateExhaustionResult) -> String {
    let mut out = String::from("{\n");
    out.push_str(&format!(
        "  \"fake_identities\": {},\n  \"spray_packets\": {},\n  \
         \"baseline_detection_rate\": {:.4},\n  \"sprayed_detection_rate\": {:.4},\n  \
         \"bounded\": {},\n  \"recall_held\": {},\n  \"total_evictions\": {},\n  \
         \"eviction_journal_events\": {},\n  \"baseline_peak_state_bytes\": {},\n  \
         \"sprayed_peak_state_bytes\": {},\n",
        result.fake_identities,
        result.spray_packets,
        result.baseline_detection_rate,
        result.sprayed_detection_rate,
        result.bounded(),
        result.recall_held(),
        result.total_evictions(),
        result.eviction_journal_events,
        result.baseline_peak_state_bytes,
        result.sprayed_peak_state_bytes,
    ));
    out.push_str(&format!(
        "  \"kb\": {{\"budget\": {}, \"occupancy\": {}, \"evictions\": {}}},\n",
        result.kb_budget, result.kb_occupancy, result.kb_evictions
    ));
    out.push_str("  \"modules\": [\n");
    for (i, row) in result.modules.iter().enumerate() {
        out.push_str(&format!(
            "    {{\"module\": {}, \"occupancy\": {}, \"budget\": {}, \"evictions\": {}}}",
            quote(row.name),
            row.occupancy,
            row.budget,
            row.evictions,
        ));
        out.push_str(if i + 1 < result.modules.len() {
            ",\n"
        } else {
            "\n"
        });
    }
    out.push_str("  ]\n}\n");
    out
}

/// Build the machine-readable `BENCH_*.json` report: the Table II rows
/// plus the full telemetry snapshot of the Kalis run (per-stage latency
/// histograms, KB churn, activation journal) and, when measured, the
/// tracing-overhead comparison.
pub fn bench_json(
    table: &Table2,
    tracing: Option<&TracingOverheadResult>,
    ops: Option<&OpsOverheadResult>,
) -> String {
    let mut out = String::from("{\n  \"table2\": [\n");
    let rows = table.rows();
    for (i, row) in rows.iter().enumerate() {
        out.push_str(&format!(
            "    {{\"system\": {}, \"detection_rate\": {:.4}, \"accuracy\": {:.4}, \
             \"work_per_packet\": {:.4}, \"peak_state_bytes\": {}, \"fully_applicable\": {}}}",
            quote(row.name),
            row.detection_rate,
            row.accuracy,
            row.work_per_packet,
            row.peak_state_bytes,
            row.fully_applicable,
        ));
        out.push_str(if i + 1 < rows.len() { ",\n" } else { "\n" });
    }
    out.push_str("  ],\n  \"tracing_overhead\": ");
    match tracing {
        Some(t) => out.push_str(&format!(
            "{{\"packets\": {}, \"off_pps\": {:.2}, \"full_pps\": {:.2}, \
             \"overhead_pct\": {:.4}, \"resolution_pct\": {:.4}}}",
            t.packets,
            t.off_pps,
            t.full_pps,
            t.overhead_pct(),
            t.resolution_pct,
        )),
        None => out.push_str("null"),
    }
    out.push_str(",\n  \"ops_overhead\": ");
    match ops {
        Some(o) => out.push_str(&format!(
            "{{\"packets\": {}, \"off_pps\": {:.2}, \"on_pps\": {:.2}, \
             \"overhead_pct\": {:.4}, \"resolution_pct\": {:.4}, \
             \"scrape_ms\": {:.3}, \"scrapes\": {}}}",
            o.packets,
            o.off_pps,
            o.on_pps,
            o.overhead_pct(),
            o.resolution_pct,
            o.scrape_ms,
            o.scrapes,
        )),
        None => out.push_str("null"),
    }
    out.push_str(",\n  \"telemetry\": ");
    let snapshot = table
        .icmp_flood
        .systems
        .iter()
        .find(|s| s.name == "Kalis")
        .and_then(|s| s.telemetry.as_ref());
    match snapshot {
        Some(s) => out.push_str(&s.to_json()),
        None => out.push_str("null"),
    }
    out.push_str("\n}\n");
    out
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn fig3_has_marks_for_every_cell() {
        let text = render_fig3();
        assert!(text.contains('●'));
        assert!(text.contains('✗'));
        assert!(text.contains('◯'));
        assert_eq!(text.lines().count(), 10, "header + 9 features");
    }

    #[test]
    fn pct_formats() {
        assert_eq!(pct(1.0), "100%");
        assert_eq!(pct(0.505), "50%");
    }
}
