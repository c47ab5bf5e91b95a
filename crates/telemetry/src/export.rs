//! Snapshot exporters: Prometheus text exposition and JSON, plus the
//! JSON reader that makes snapshots round-trippable.

use crate::json::{self, JsonError, JsonValue};
use crate::{Bucket, HistogramSnapshot, JournalEvent, JournalRecord, JournalSnapshot};
use crate::{JournalField, TelemetrySnapshot};
use std::collections::BTreeMap;
use std::fmt::Write as _;

/// Split a registry name into (family, labels):
/// `dispatch.packet[module=X]` → `("dispatch.packet", [("module", "X")])`.
fn split_name(name: &str) -> (&str, Vec<(&str, &str)>) {
    let Some((family, rest)) = name.split_once('[') else {
        return (name, Vec::new());
    };
    let Some(body) = rest.strip_suffix(']') else {
        return (name, Vec::new());
    };
    let labels = body
        .split(',')
        .filter_map(|pair| pair.split_once('='))
        .collect();
    (family, labels)
}

/// Sanitize a dotted family into a Prometheus metric name.
fn prom_name(family: &str) -> String {
    let mut out = String::with_capacity(family.len() + 6);
    out.push_str("kalis_");
    for c in family.chars() {
        if c.is_ascii_alphanumeric() {
            out.push(c);
        } else {
            out.push('_');
        }
    }
    out
}

/// Escape a label value per the exposition format: backslash, double
/// quote, and line feed are the three characters the text format
/// requires escaped — a raw newline would split the sample line.
pub fn prom_label_value(v: &str) -> String {
    v.replace('\\', "\\\\")
        .replace('"', "\\\"")
        .replace('\n', "\\n")
}

/// Escape `# HELP` docstring text: the format requires backslash and
/// line feed escaped (quotes stay literal in help text).
fn prom_help_text(v: &str) -> String {
    v.replace('\\', "\\\\").replace('\n', "\\n")
}

/// `# HELP` text per Prometheus family name (after `kalis_` prefixing
/// and unit/`_total` suffixing), one `family text` line per family the
/// node exports, each mapping onto a canonical registry name in
/// [`crate::names`].
const HELP: &str = "\
kalis_packets_ingested_total Packets ingested by the node.
kalis_ticks_total Periodic maintenance ticks executed.
kalis_pipeline_ingest_seconds Whole-ingest pipeline latency.
kalis_dispatch_packet_seconds Per-module packet dispatch latency.
kalis_dispatch_tick_seconds Per-module tick dispatch latency.
kalis_kb_ops_total Knowledge-base operations by kind.
kalis_kb_revision Current knowledge-base revision.
kalis_kb_churn_total Knowledge-base revision bumps.
kalis_modules_activated_total Module activations.
kalis_modules_deactivated_total Module deactivations.
kalis_modules_active Currently active modules.
kalis_alerts_total Alerts raised.
kalis_alerts_by_total Alerts raised by kind and severity.
kalis_sync_sent_total Collective-sync messages sealed for peers.
kalis_sync_accepted_total Collective-sync messages accepted.
kalis_sync_rejected_total Collective-sync messages rejected.
kalis_sync_bytes_out_total Bytes sealed into outgoing sync messages.
kalis_sync_bytes_in_total Bytes received in sync messages.
kalis_sync_knowggets_out_total Knowggets carried by outgoing sync messages.
kalis_sync_knowggets_in_total Knowggets applied from accepted sync messages.
kalis_sync_retransmits_total Sync data frames retransmitted after ack timeout.
kalis_sync_duplicates_dropped_total Replayed sync frames dropped by dedup.
kalis_sync_queue_dropped_total Outbound sync queue entries dropped.
kalis_work_units_total Abstract work units, the paper's CPU proxy.
kalis_state_peak_bytes Peak tracked state bytes, the paper's RAM proxy.
kalis_supervisor_panics_total Module panics caught by the supervisor.
kalis_supervisor_budget_overruns_total Module watchdog-budget overruns.
kalis_supervisor_quarantines_total Quarantine transitions entered.
kalis_supervisor_shed_skips_total Dispatches skipped by overload shedding.
kalis_supervisor_shed_total Dispatches shed per module.
kalis_journal_dropped_total Journal records overwritten by the bounded ring.
kalis_journal_high_water Most journal records ever retained at once.
kalis_journal_events Retained journal records by event type.
kalis_trace_sampled_total Packets stamped with a sampled trace context.
kalis_module_cpu_ns_total Measured per-module CPU self-time (sampled), ns.
kalis_peers_expired_total Peers expired from the sync ledger after prolonged silence.
kalis_ops_requests_total Requests served by the ops HTTP listener.
kalis_diag_captures_total Diagnostics bundles captured by the flight recorder.
kalis_hot_entity Space-saving estimate for the top-K hottest source entities.";

/// Every [`HELP`] row as `(family, text)`.
pub fn help_rows() -> impl Iterator<Item = (&'static str, &'static str)> {
    HELP.lines().filter_map(|row| row.split_once(' '))
}

/// One-line docstring for a Prometheus family name, emitted as
/// `# HELP`: its [`help_rows`] text, or, for anything unknown (ad-hoc
/// bench or test series), a generic line so the exposition stays
/// checker-clean.
pub fn help_for(family: &str) -> &'static str {
    (help_rows().find(|(name, _)| *name == family)).map_or(
        "Kalis telemetry series (see OBSERVABILITY_MAP.md).",
        |(_, help)| help,
    )
}

fn prom_labels(labels: &[(&str, &str)], extra: Option<(&str, String)>) -> String {
    if labels.is_empty() && extra.is_none() {
        return String::new();
    }
    let mut out = String::from("{");
    let mut first = true;
    for (k, v) in labels {
        if !first {
            out.push(',');
        }
        first = false;
        let _ = write!(out, "{k}=\"{}\"", prom_label_value(v));
    }
    if let Some((k, v)) = extra {
        if !first {
            out.push(',');
        }
        let _ = write!(out, "{k}=\"{}\"", prom_label_value(&v));
    }
    out.push('}');
    out
}

impl TelemetrySnapshot {
    /// Render in Prometheus text exposition format (version 0.0.4).
    ///
    /// Histograms record nanoseconds internally and are exported with
    /// `_seconds` units; journal contents are summarized as per-kind
    /// event counts.
    pub fn to_prometheus(&self) -> String {
        let mut out = String::new();
        let mut typed: BTreeMap<String, &'static str> = BTreeMap::new();

        let mut type_line = |out: &mut String, name: &str, kind: &'static str| {
            if typed.insert(name.to_string(), kind).is_none() {
                let _ = writeln!(out, "# HELP {name} {}", prom_help_text(help_for(name)));
                let _ = writeln!(out, "# TYPE {name} {kind}");
            }
        };

        for (name, value) in &self.counters {
            let (family, labels) = split_name(name);
            let metric = format!("{}_total", prom_name(family));
            type_line(&mut out, &metric, "counter");
            let _ = writeln!(out, "{metric}{} {value}", prom_labels(&labels, None));
        }

        for (name, value) in &self.gauges {
            let (family, labels) = split_name(name);
            let metric = prom_name(family);
            type_line(&mut out, &metric, "gauge");
            let _ = writeln!(out, "{metric}{} {value}", prom_labels(&labels, None));
        }

        for (name, hist) in &self.histograms {
            let (family, labels) = split_name(name);
            let metric = format!("{}_seconds", prom_name(family));
            type_line(&mut out, &metric, "histogram");
            let mut cumulative = 0;
            for bucket in &hist.buckets {
                cumulative += bucket.count;
                let le = (bucket.hi as f64 + 1.0) / 1e9;
                let _ = writeln!(
                    out,
                    "{metric}_bucket{} {cumulative}",
                    prom_labels(&labels, Some(("le", format!("{le}"))))
                );
            }
            let _ = writeln!(
                out,
                "{metric}_bucket{} {}",
                prom_labels(&labels, Some(("le", "+Inf".to_string()))),
                hist.count
            );
            let _ = writeln!(
                out,
                "{metric}_sum{} {}",
                prom_labels(&labels, None),
                hist.sum as f64 / 1e9
            );
            let _ = writeln!(
                out,
                "{metric}_count{} {}",
                prom_labels(&labels, None),
                hist.count
            );
        }

        let mut by_kind: BTreeMap<&'static str, u64> = BTreeMap::new();
        for record in &self.journal.records {
            *by_kind.entry(record.event.kind()).or_default() += 1;
        }
        type_line(&mut out, "kalis_journal_events", "gauge");
        for (kind, count) in by_kind {
            let _ = writeln!(out, "kalis_journal_events{{type=\"{kind}\"}} {count}");
        }
        // Registries attach a live `journal.dropped` counter which lands
        // in the loop above as `kalis_journal_dropped_total`; synthesize
        // the family from the journal snapshot only for older snapshots
        // that lack it, so the exposition never carries the series twice.
        if !self.counters.contains_key(crate::names::JOURNAL_DROPPED) {
            type_line(&mut out, "kalis_journal_dropped_total", "counter");
            let _ = writeln!(out, "kalis_journal_dropped_total {}", self.journal.dropped);
        }
        out
    }

    /// Serialize to compact JSON.
    pub fn to_json(&self) -> String {
        let counters = JsonValue::Obj(
            self.counters
                .iter()
                .map(|(k, v)| (k.clone(), JsonValue::Num(*v)))
                .collect(),
        );
        let gauges = JsonValue::Obj(
            self.gauges
                .iter()
                .map(|(k, v)| (k.clone(), JsonValue::Num(*v)))
                .collect(),
        );
        let histograms = JsonValue::Obj(
            self.histograms
                .iter()
                .map(|(k, h)| (k.clone(), histogram_to_json(h)))
                .collect(),
        );
        let journal = JsonValue::Obj(vec![
            ("dropped".into(), JsonValue::Num(self.journal.dropped)),
            (
                "records".into(),
                JsonValue::Arr(self.journal.records.iter().map(record_to_json).collect()),
            ),
        ]);
        JsonValue::Obj(vec![
            ("counters".into(), counters),
            ("gauges".into(), gauges),
            ("histograms".into(), histograms),
            ("journal".into(), journal),
        ])
        .to_string()
    }

    /// Parse a snapshot previously produced by
    /// [`TelemetrySnapshot::to_json`].
    pub fn from_json(input: &str) -> Result<Self, JsonError> {
        let doc = json::parse(input)?;
        let num_map = |field: &str| -> Result<BTreeMap<String, u64>, JsonError> {
            obj_field(&doc, field)?
                .iter()
                .map(|(k, v)| Ok((k.clone(), expect_num(v, field)?)))
                .collect()
        };
        let histograms = obj_field(&doc, "histograms")?
            .iter()
            .map(|(k, v)| Ok((k.clone(), histogram_from_json(v)?)))
            .collect::<Result<_, JsonError>>()?;
        let journal_value = doc
            .get("journal")
            .ok_or_else(|| missing("journal"))?
            .clone();
        let journal = JournalSnapshot {
            dropped: expect_num(
                journal_value
                    .get("dropped")
                    .ok_or_else(|| missing("dropped"))?,
                "dropped",
            )?,
            records: journal_value
                .get("records")
                .and_then(JsonValue::as_arr)
                .ok_or_else(|| missing("records"))?
                .iter()
                .map(record_from_json)
                .collect::<Result<_, JsonError>>()?,
        };
        Ok(TelemetrySnapshot {
            counters: num_map("counters")?,
            gauges: num_map("gauges")?,
            histograms,
            journal,
        })
    }
}

fn missing(what: &str) -> JsonError {
    JsonError {
        offset: 0,
        message: format!("missing or mistyped field {what:?}"),
    }
}

fn obj_field<'a>(doc: &'a JsonValue, field: &str) -> Result<&'a [(String, JsonValue)], JsonError> {
    doc.get(field)
        .and_then(JsonValue::as_obj)
        .ok_or_else(|| missing(field))
}

fn expect_num(v: &JsonValue, what: &str) -> Result<u64, JsonError> {
    v.as_u64().ok_or_else(|| missing(what))
}

fn expect_str(v: &JsonValue, what: &str) -> Result<String, JsonError> {
    Ok(v.as_str().ok_or_else(|| missing(what))?.to_string())
}

fn histogram_to_json(h: &HistogramSnapshot) -> JsonValue {
    JsonValue::Obj(vec![
        ("count".into(), JsonValue::Num(h.count)),
        ("sum".into(), JsonValue::Num(h.sum)),
        ("min".into(), JsonValue::Num(h.min)),
        ("max".into(), JsonValue::Num(h.max)),
        (
            "buckets".into(),
            JsonValue::Arr(
                h.buckets
                    .iter()
                    .map(|b| {
                        JsonValue::Arr(vec![
                            JsonValue::Num(b.lo),
                            JsonValue::Num(b.hi),
                            JsonValue::Num(b.count),
                        ])
                    })
                    .collect(),
            ),
        ),
    ])
}

fn histogram_from_json(v: &JsonValue) -> Result<HistogramSnapshot, JsonError> {
    let field = |name: &str| expect_num(v.get(name).ok_or_else(|| missing(name))?, name);
    let buckets = v
        .get("buckets")
        .and_then(JsonValue::as_arr)
        .ok_or_else(|| missing("buckets"))?
        .iter()
        .map(|b| {
            let parts = b.as_arr().ok_or_else(|| missing("bucket triple"))?;
            match parts {
                [lo, hi, count] => Ok(Bucket {
                    lo: expect_num(lo, "bucket.lo")?,
                    hi: expect_num(hi, "bucket.hi")?,
                    count: expect_num(count, "bucket.count")?,
                }),
                _ => Err(missing("bucket triple")),
            }
        })
        .collect::<Result<_, JsonError>>()?;
    Ok(HistogramSnapshot {
        count: field("count")?,
        sum: field("sum")?,
        min: field("min")?,
        max: field("max")?,
        buckets,
    })
}

fn record_to_json(r: &JournalRecord) -> JsonValue {
    let mut event = vec![(
        "type".to_string(),
        JsonValue::Str(r.event.kind().to_string()),
    )];
    for (key, value) in r.event.fields() {
        event.push((
            key.to_string(),
            match value {
                JournalField::Str(s) => JsonValue::Str(s.clone()),
                JournalField::Num(n) => JsonValue::Num(n),
            },
        ));
    }
    JsonValue::Obj(vec![
        ("seq".into(), JsonValue::Num(r.seq)),
        ("time_us".into(), JsonValue::Num(r.time_us)),
        ("event".into(), JsonValue::Obj(event)),
    ])
}

fn record_from_json(v: &JsonValue) -> Result<JournalRecord, JsonError> {
    let event_value = v.get("event").ok_or_else(|| missing("event"))?;
    let kind = expect_str(
        event_value.get("type").ok_or_else(|| missing("type"))?,
        "type",
    )?;
    let str_field =
        |name: &str| expect_str(event_value.get(name).ok_or_else(|| missing(name))?, name);
    let num_field =
        |name: &str| expect_num(event_value.get(name).ok_or_else(|| missing(name))?, name);
    let event = match kind.as_str() {
        "module_activated" => JournalEvent::ModuleActivated {
            module: str_field("module")?,
            trigger: str_field("trigger")?,
        },
        "module_deactivated" => JournalEvent::ModuleDeactivated {
            module: str_field("module")?,
            trigger: str_field("trigger")?,
        },
        "alert_raised" => JournalEvent::AlertRaised {
            kind: str_field("kind")?,
            severity: str_field("severity")?,
            module: str_field("module")?,
        },
        "sync_sent" => JournalEvent::SyncSent {
            peer: str_field("peer")?,
            knowggets: num_field("knowggets")?,
            bytes: num_field("bytes")?,
        },
        "sync_accepted" => JournalEvent::SyncAccepted {
            peer: str_field("peer")?,
            knowggets: num_field("knowggets")?,
            bytes: num_field("bytes")?,
        },
        "sync_rejected" => JournalEvent::SyncRejected {
            peer: str_field("peer")?,
            reason: str_field("reason")?,
        },
        "sync_duplicate" => JournalEvent::SyncDuplicate {
            peer: str_field("peer")?,
            seq: num_field("seq")?,
        },
        "peer_health_changed" => JournalEvent::PeerHealthChanged {
            peer: str_field("peer")?,
            from: str_field("from")?,
            to: str_field("to")?,
        },
        "degraded_entered" => JournalEvent::DegradedEntered {
            reason: str_field("reason")?,
        },
        "degraded_exited" => JournalEvent::DegradedExited {
            healthy_peers: num_field("healthy_peers")?,
        },
        "module_panicked" => JournalEvent::ModulePanicked {
            module: str_field("module")?,
            message: str_field("message")?,
        },
        "module_quarantined" => JournalEvent::ModuleQuarantined {
            module: str_field("module")?,
            reason: str_field("reason")?,
            backoff_ms: num_field("backoff_ms")?,
        },
        "module_probation" => JournalEvent::ModuleProbation {
            module: str_field("module")?,
        },
        "load_shed_engaged" => JournalEvent::LoadShedEngaged {
            rate: num_field("rate")?,
            capacity: num_field("capacity")?,
        },
        "load_shed_released" => JournalEvent::LoadShedReleased {
            skipped: num_field("skipped")?,
        },
        "slo_breached" => JournalEvent::SloBreached {
            p99_us: num_field("p99_us")?,
            target_us: num_field("target_us")?,
        },
        "slo_recovered" => JournalEvent::SloRecovered {
            p99_us: num_field("p99_us")?,
            target_us: num_field("target_us")?,
        },
        "marker" => JournalEvent::Marker {
            kind: str_field("kind")?,
            detail: str_field("detail")?,
        },
        other => {
            return Err(JsonError {
                offset: 0,
                message: format!("unknown journal event type {other:?}"),
            })
        }
    };
    Ok(JournalRecord {
        seq: expect_num(v.get("seq").ok_or_else(|| missing("seq"))?, "seq")?,
        time_us: expect_num(
            v.get("time_us").ok_or_else(|| missing("time_us"))?,
            "time_us",
        )?,
        event,
    })
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::{metric_name, Telemetry};

    fn populated() -> TelemetrySnapshot {
        let t = Telemetry::new();
        t.counter("kb.ops[op=insert]").add(7);
        t.counter("packets.ingested").add(100);
        t.gauge("kb.revision").set(12);
        let h = t.histogram(&metric_name("dispatch.packet", &[("module", "HelloFlood")]));
        for v in [800, 1_200, 45_000, 2_000_000] {
            h.record(v);
        }
        t.journal().record(
            5,
            JournalEvent::ModuleActivated {
                module: "HelloFlood".into(),
                trigger: "kb:proto.zigbee=true".into(),
            },
        );
        t.journal().record(
            9,
            JournalEvent::SyncSent {
                peer: "K2".into(),
                knowggets: 3,
                bytes: 120,
            },
        );
        t.journal().record(
            11,
            JournalEvent::AlertRaised {
                kind: "HelloFlood".into(),
                severity: "High".into(),
                module: "HelloFlood".into(),
            },
        );
        t.snapshot()
    }

    #[test]
    fn json_roundtrip_is_lossless() {
        let snap = populated();
        let text = snap.to_json();
        let back = TelemetrySnapshot::from_json(&text).unwrap();
        assert_eq!(back, snap);
        // And the round-trip is a fixpoint.
        assert_eq!(back.to_json(), text);
    }

    #[test]
    fn prometheus_exposition_shape() {
        let text = populated().to_prometheus();
        assert!(text.contains("# TYPE kalis_kb_ops_total counter"));
        assert!(text.contains("kalis_kb_ops_total{op=\"insert\"} 7"));
        assert!(text.contains("# TYPE kalis_kb_revision gauge"));
        assert!(text.contains("# TYPE kalis_dispatch_packet_seconds histogram"));
        assert!(text
            .contains("kalis_dispatch_packet_seconds_bucket{module=\"HelloFlood\",le=\"+Inf\"} 4"));
        assert!(text.contains("kalis_dispatch_packet_seconds_count{module=\"HelloFlood\"} 4"));
        assert!(text.contains("kalis_journal_events{type=\"module_activated\"} 1"));
        // Every non-comment line is "name{labels} value".
        for line in text.lines().filter(|l| !l.starts_with('#')) {
            assert!(
                line.rsplit_once(' ')
                    .is_some_and(|(_, v)| v.parse::<f64>().is_ok() || v == "+Inf"),
                "malformed line: {line}"
            );
        }
    }

    #[test]
    fn hostile_label_values_stay_line_parseable() {
        let t = Telemetry::new();
        // A module name carrying every character the exposition format
        // requires escaped: backslash, double quote, and a raw newline.
        let hostile = "evil\"na\\me\nstage2";
        t.counter(&metric_name("dispatch.packet", &[("module", hostile)]))
            .inc();
        t.histogram(&metric_name("dispatch.packet", &[("module", hostile)]))
            .record(500);
        let text = t.snapshot().to_prometheus();
        assert!(
            text.contains("module=\"evil\\\"na\\\\me\\nstage2\""),
            "label value not escaped: {text}"
        );
        for line in text.lines().filter(|l| !l.starts_with('#')) {
            assert!(
                line.rsplit_once(' ')
                    .is_some_and(|(_, v)| v.parse::<f64>().is_ok() || v == "+Inf"),
                "malformed line: {line}"
            );
        }
    }

    #[test]
    fn supervisor_events_round_trip() {
        let t = Telemetry::new();
        t.journal().record(
            3,
            JournalEvent::ModulePanicked {
                module: "Wormhole".into(),
                message: "index out of bounds".into(),
            },
        );
        t.journal().record(
            4,
            JournalEvent::ModuleQuarantined {
                module: "Wormhole".into(),
                reason: "crash loop".into(),
                backoff_ms: 250,
            },
        );
        t.journal().record(
            5,
            JournalEvent::ModuleProbation {
                module: "Wormhole".into(),
            },
        );
        t.journal().record(
            6,
            JournalEvent::LoadShedEngaged {
                rate: 4,
                capacity: 128,
            },
        );
        t.journal()
            .record(7, JournalEvent::LoadShedReleased { skipped: 17 });
        let snap = t.snapshot();
        let back = TelemetrySnapshot::from_json(&snap.to_json()).unwrap();
        assert_eq!(back, snap);
    }

    #[test]
    fn slo_events_round_trip() {
        let t = Telemetry::new();
        t.journal().record(
            40,
            JournalEvent::SloBreached {
                p99_us: 950,
                target_us: 500,
            },
        );
        t.journal().record(
            41,
            JournalEvent::SloRecovered {
                p99_us: 310,
                target_us: 500,
            },
        );
        let snap = t.snapshot();
        let back = TelemetrySnapshot::from_json(&snap.to_json()).unwrap();
        assert_eq!(back, snap);
    }

    #[test]
    fn every_family_gets_one_help_and_type_line() {
        let text = populated().to_prometheus();
        let families: Vec<&str> = text
            .lines()
            .filter_map(|l| l.strip_prefix("# TYPE "))
            .filter_map(|l| l.split_whitespace().next())
            .collect();
        assert!(!families.is_empty());
        for family in families {
            let help = format!("# HELP {family} ");
            assert_eq!(
                text.matches(&help).count(),
                1,
                "family {family} needs exactly one HELP line"
            );
        }
        assert!(text.contains("# HELP kalis_kb_ops_total Knowledge-base operations by kind."));
    }

    #[test]
    fn journal_dropped_family_is_not_duplicated() {
        // Live registries attach a `journal.dropped` counter; the
        // exposition must carry the family exactly once.
        let text = Telemetry::new().snapshot().to_prometheus();
        let series = text
            .lines()
            .filter(|l| l.starts_with("kalis_journal_dropped_total"))
            .count();
        assert_eq!(series, 1, "exposition: {text}");
        // Snapshots parsed from older JSON (no such counter) still
        // surface the synthesized family.
        let legacy = TelemetrySnapshot {
            journal: JournalSnapshot {
                dropped: 9,
                records: Vec::new(),
            },
            ..TelemetrySnapshot::default()
        };
        assert!(legacy
            .to_prometheus()
            .contains("kalis_journal_dropped_total 9"));
    }

    #[test]
    fn from_json_rejects_malformed() {
        assert!(TelemetrySnapshot::from_json("{}").is_err());
        assert!(TelemetrySnapshot::from_json("[1]").is_err());
        let mut good = populated().to_json();
        good.truncate(good.len() - 1);
        assert!(TelemetrySnapshot::from_json(&good).is_err());
    }
}
