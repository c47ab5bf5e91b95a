//! The kalis-ops surface: a dependency-free HTTP listener plus the
//! resource profiler feeding it.
//!
//! The paper pitches each Kalis node as a self-contained "network
//! security as a service" entity (§3); this module gives an operator a
//! way to see one from the outside without linking against it:
//!
//! - `GET /metrics` — Prometheus text exposition of the live registry,
//!   plus the synthesized capped-cardinality `kalis_hot_entity` series;
//! - `GET /healthz` — liveness: `200 ok` whenever the listener runs;
//! - `GET /readyz` — readiness: `200` when the node is fit for duty,
//!   `503` with machine-readable reasons when a pinned module is
//!   quarantined, overload shedding is engaged, or collective sync
//!   entered `DegradedMode`;
//! - `GET /status` — JSON: per-module health and resource profile,
//!   sync peer-health ledger, drop counters, SLO posture, uptime.
//!
//! The listener is one worker thread over `std::net::TcpListener`
//! (see [`http`]); the node refreshes the shared state at tick cadence
//! (1 Hz) and on every readiness transition, so scrapes never touch
//! node internals and cost the pipeline nothing.

pub mod http;
mod sketch;

pub(crate) use http::OpsServer;
pub(crate) use sketch::SpaceSaving;

use std::sync::Arc;

use kalis_telemetry::json::JsonValue;
use kalis_telemetry::{help_for, metric_name, names, prom_label_value, Counter, Telemetry};
use parking_lot::Mutex;

use crate::modules::{ModuleKind, ModuleProfile};

/// Default number of hot entities tracked by the space-saving sketch
/// (and therefore the cap on `kalis_hot_entity` scrape cardinality).
pub(crate) const DEFAULT_HOT_ENTITIES: usize = 8;

/// Why `/readyz` answers 503 (empty = ready).
///
/// A node is *live* as long as the process runs, but only *ready* when
/// it can honour its detection contract: every pinned module in
/// dispatch, no overload shedding, collective mode intact.
#[derive(Debug, Clone, Default, PartialEq, Eq)]
// kalis-lint: allow(KL306): named by the `pub` signature of `Kalis::readiness`
pub struct Readiness {
    /// Machine-readable reasons, e.g. `pinned_module_quarantined:X`,
    /// `overload_shedding:heavy`, `sync_degraded`.
    pub reasons: Vec<String>,
}

impl Readiness {
    /// Whether the node is fit for duty.
    pub fn ready(&self) -> bool {
        self.reasons.is_empty()
    }

    fn to_json(&self) -> String {
        let mut doc = vec![("ready".to_string(), JsonValue::Num(u64::from(self.ready())))];
        doc.push((
            "reasons".to_string(),
            JsonValue::Arr(
                self.reasons
                    .iter()
                    .map(|r| JsonValue::Str(r.clone()))
                    .collect(),
            ),
        ));
        JsonValue::Obj(doc).to_string()
    }
}

/// Per-module row of a [`StatusReport`].
#[derive(Debug, Clone, PartialEq, Eq)]
pub(crate) struct ModuleStatus {
    /// Registry name.
    pub name: String,
    /// `"sensing"` or `"detection"`.
    pub kind: String,
    /// `"healthy"`, `"degraded"`, or `"quarantined"`.
    pub health: String,
    /// Whether the module is pinned (required by configuration).
    pub pinned: bool,
    /// Whether the module is currently in dispatch.
    pub active: bool,
    /// Cumulative measured CPU self-time, ns (sampled lower bound).
    pub cpu_ns: u64,
    /// Dispatches that consumed work.
    pub(crate) dispatches: u64,
    /// Dispatches skipped by overload shedding.
    pub(crate) sheds: u64,
    /// Entries in the module's per-entity tracking maps.
    pub occupancy: u64,
    /// Entries evicted from bounded structures to hold the budget
    /// (zeroed by a module reset).
    pub evictions: u64,
    /// The configured per-entity state budget (0 = unbudgeted).
    pub state_budget: u64,
    /// Rough live-state size, bytes.
    pub state_bytes: u64,
}

impl From<&ModuleProfile> for ModuleStatus {
    fn from(p: &ModuleProfile) -> Self {
        ModuleStatus {
            name: p.name.to_string(),
            kind: match p.kind {
                ModuleKind::Sensing => "sensing".to_string(),
                ModuleKind::Detection => "detection".to_string(),
            },
            health: p.health.label().to_string(),
            pinned: p.pinned,
            active: p.active,
            cpu_ns: p.cpu_ns,
            dispatches: p.dispatches,
            sheds: p.sheds,
            occupancy: p.occupancy as u64,
            evictions: p.evictions,
            state_budget: p.state_budget as u64,
            state_bytes: p.state_bytes as u64,
        }
    }
}

/// SLO posture of a [`StatusReport`].
#[derive(Debug, Clone, Default, PartialEq, Eq)]
pub(crate) struct SloStatus {
    /// Configured p99 target, microseconds.
    pub target_us: u64,
    /// Observed p99 whole-ingest latency, microseconds.
    pub p99_us: u64,
    /// Whether the target is currently exceeded.
    pub(crate) breached: bool,
}

/// One hot-entity estimate (see [`SpaceSaving`]).
#[derive(Debug, Clone, PartialEq, Eq)]
pub(crate) struct HotEntity {
    /// Entity rendered as `scheme:value` (e.g. `ip:10.0.0.9`).
    pub entity: String,
    /// Estimated packet count (upper bound).
    pub count: u64,
    /// Over-estimation error bound.
    pub error: u64,
}

/// The document `GET /status` serves: a point-in-time operational
/// picture of one node. Booleans are encoded as 0/1 in the JSON (the
/// workspace JSON dialect carries numbers and strings only).
#[derive(Debug, Clone, Default, PartialEq, Eq)]
pub(crate) struct StatusReport {
    /// Node id.
    pub node: String,
    /// Readiness verdict with reasons.
    pub readiness: Readiness,
    /// Capture-clock micros at the refresh that built this report.
    pub(crate) capture_time_us: u64,
    /// Capture-clock micros since the node first saw traffic.
    pub(crate) uptime_us: u64,
    /// `"none"`, `"heavy"`, or `"all"`.
    pub shed_mode: String,
    /// Whether collective sync is in degraded local-only mode.
    pub(crate) sync_degraded: bool,
    /// Per-module health and resource profile.
    pub modules: Vec<ModuleStatus>,
    /// `(peer id, health)` ledger from collective sync.
    pub peers: Vec<(String, String)>,
    /// Top-K hottest source entities.
    pub(crate) hot_entities: Vec<HotEntity>,
    /// Journal records overwritten by the bounded ring.
    pub journal_dropped: u64,
    /// Trace events overwritten by the bounded trace buffer.
    pub(crate) trace_dropped: u64,
    /// Alerts raised so far.
    pub alerts: u64,
    /// SLO posture, when a target is configured.
    pub slo: Option<SloStatus>,
    /// Diagnostics bundles captured by the flight recorder.
    pub(crate) diag_captures: u64,
    /// Frames currently retained in the flight-recorder ring.
    pub(crate) diag_ring_occupancy: u64,
    /// Trigger behind the most recent capture (empty = never captured).
    pub diag_last_trigger: String,
}

impl StatusReport {
    /// Serialize to the `/status` JSON document.
    pub fn to_json(&self) -> String {
        let modules = JsonValue::Arr(
            self.modules
                .iter()
                .map(|m| {
                    JsonValue::Obj(vec![
                        ("name".into(), JsonValue::Str(m.name.clone())),
                        ("kind".into(), JsonValue::Str(m.kind.clone())),
                        ("health".into(), JsonValue::Str(m.health.clone())),
                        ("pinned".into(), JsonValue::Num(u64::from(m.pinned))),
                        ("active".into(), JsonValue::Num(u64::from(m.active))),
                        ("cpu_ns".into(), JsonValue::Num(m.cpu_ns)),
                        ("dispatches".into(), JsonValue::Num(m.dispatches)),
                        ("sheds".into(), JsonValue::Num(m.sheds)),
                        ("occupancy".into(), JsonValue::Num(m.occupancy)),
                        ("evictions".into(), JsonValue::Num(m.evictions)),
                        ("state_budget".into(), JsonValue::Num(m.state_budget)),
                        ("state_bytes".into(), JsonValue::Num(m.state_bytes)),
                    ])
                })
                .collect(),
        );
        let peers = JsonValue::Arr(
            self.peers
                .iter()
                .map(|(id, health)| {
                    JsonValue::Obj(vec![
                        ("id".into(), JsonValue::Str(id.clone())),
                        ("health".into(), JsonValue::Str(health.clone())),
                    ])
                })
                .collect(),
        );
        let hot = JsonValue::Arr(
            self.hot_entities
                .iter()
                .map(|h| {
                    JsonValue::Obj(vec![
                        ("entity".into(), JsonValue::Str(h.entity.clone())),
                        ("count".into(), JsonValue::Num(h.count)),
                        ("error".into(), JsonValue::Num(h.error)),
                    ])
                })
                .collect(),
        );
        let mut doc = vec![
            ("node".to_string(), JsonValue::Str(self.node.clone())),
            (
                "ready".to_string(),
                JsonValue::Num(u64::from(self.readiness.ready())),
            ),
            (
                "reasons".to_string(),
                JsonValue::Arr(
                    self.readiness
                        .reasons
                        .iter()
                        .map(|r| JsonValue::Str(r.clone()))
                        .collect(),
                ),
            ),
            (
                "capture_time_us".to_string(),
                JsonValue::Num(self.capture_time_us),
            ),
            ("uptime_us".to_string(), JsonValue::Num(self.uptime_us)),
            (
                "shed_mode".to_string(),
                JsonValue::Str(self.shed_mode.clone()),
            ),
            (
                "sync_degraded".to_string(),
                JsonValue::Num(u64::from(self.sync_degraded)),
            ),
            ("modules".to_string(), modules),
            ("peers".to_string(), peers),
            ("hot_entities".to_string(), hot),
            (
                "journal_dropped".to_string(),
                JsonValue::Num(self.journal_dropped),
            ),
            (
                "trace_dropped".to_string(),
                JsonValue::Num(self.trace_dropped),
            ),
            ("alerts".to_string(), JsonValue::Num(self.alerts)),
            (
                "diag_captures".to_string(),
                JsonValue::Num(self.diag_captures),
            ),
            (
                "diag_ring_occupancy".to_string(),
                JsonValue::Num(self.diag_ring_occupancy),
            ),
            (
                "diag_last_trigger".to_string(),
                JsonValue::Str(self.diag_last_trigger.clone()),
            ),
        ];
        if let Some(slo) = &self.slo {
            doc.push((
                "slo".to_string(),
                JsonValue::Obj(vec![
                    ("target_us".into(), JsonValue::Num(slo.target_us)),
                    ("p99_us".into(), JsonValue::Num(slo.p99_us)),
                    ("breached".into(), JsonValue::Num(u64::from(slo.breached))),
                ]),
            ));
        }
        JsonValue::Obj(doc).to_string()
    }
}

/// State shared between the node (writer) and the listener thread
/// (reader). The node publishes pre-rendered documents at tick cadence
/// so a scrape never takes a lock the packet path contends on.
pub(crate) struct OpsShared {
    telemetry: Arc<Telemetry>,
    status_json: Mutex<String>,
    readiness: Mutex<(bool, String)>,
    /// Synthesized `kalis_hot_entity` exposition block appended to
    /// `/metrics` scrapes (kept out of the registry so stale entities
    /// disappear instead of lingering as dead series).
    hot_block: Mutex<String>,
    /// Pre-rendered `/debug/diag` index document.
    diag_index: Mutex<String>,
    /// Retained diagnostics bundles served by `/debug/diag/<id>`:
    /// `(bundle id, kalis.diag.v1 JSON)`, oldest first.
    diag_bundles: Mutex<Vec<(String, String)>>,
    requests: [(&'static str, Arc<Counter>); 6],
}

/// Render the `/debug/diag` index: the retained bundle ids, newest
/// last, as a small schema-tagged JSON document.
fn diag_index_doc(ids: &[String]) -> String {
    JsonValue::Obj(vec![
        (
            "schema".to_string(),
            JsonValue::Str("kalis.diag-index.v1".to_string()),
        ),
        (
            "bundles".to_string(),
            JsonValue::Arr(ids.iter().map(|id| JsonValue::Str(id.clone())).collect()),
        ),
    ])
    .to_string()
}

impl OpsShared {
    /// Shared state serving `node` from `telemetry`.
    pub fn new(node: &str, telemetry: Arc<Telemetry>) -> Self {
        let counter = |endpoint: &str| {
            telemetry.counter(&metric_name(names::OPS_REQUESTS, &[("endpoint", endpoint)]))
        };
        let requests = [
            ("metrics", counter("metrics")),
            ("healthz", counter("healthz")),
            ("readyz", counter("readyz")),
            ("status", counter("status")),
            ("diag", counter("diag")),
            ("other", counter("other")),
        ];
        let placeholder = StatusReport {
            node: node.to_string(),
            ..StatusReport::default()
        };
        OpsShared {
            telemetry,
            status_json: Mutex::new(placeholder.to_json()),
            readiness: Mutex::new((true, Readiness::default().to_json())),
            hot_block: Mutex::new(String::new()),
            diag_index: Mutex::new(diag_index_doc(&[])),
            diag_bundles: Mutex::new(Vec::new()),
            requests,
        }
    }

    /// Publish the retained diagnostics bundles: the `/debug/diag`
    /// index and the per-id documents update atomically with respect
    /// to fetches.
    pub(crate) fn publish_diag(&self, bundles: &[(String, String)]) {
        let ids: Vec<String> = bundles.iter().map(|(id, _)| id.clone()).collect();
        *self.diag_index.lock() = diag_index_doc(&ids);
        *self.diag_bundles.lock() = bundles.to_vec();
    }

    pub(crate) fn diag_index_body(&self) -> String {
        self.diag_index.lock().clone()
    }

    pub(crate) fn diag_bundle_body(&self, id: &str) -> Option<String> {
        self.diag_bundles
            .lock()
            .iter()
            .find(|(bundle_id, _)| bundle_id == id)
            .map(|(_, json)| json.clone())
    }

    /// Publish a fresh report: `/status`, `/readyz`, and the hot-entity
    /// metrics block all update atomically with respect to scrapes.
    pub fn publish(&self, report: &StatusReport) {
        *self.status_json.lock() = report.to_json();
        *self.readiness.lock() = (report.readiness.ready(), report.readiness.to_json());
        *self.hot_block.lock() = hot_entity_block(&report.hot_entities);
    }

    pub(crate) fn count_request(&self, endpoint: &str) {
        for (name, counter) in &self.requests {
            if *name == endpoint {
                counter.inc();
                return;
            }
        }
    }

    pub(crate) fn render_metrics(&self) -> String {
        let mut out = self.telemetry.snapshot().to_prometheus();
        out.push_str(&self.hot_block.lock());
        out
    }

    pub(crate) fn readiness_body(&self) -> (bool, String) {
        self.readiness.lock().clone()
    }

    pub(crate) fn status_body(&self) -> String {
        self.status_json.lock().clone()
    }
}

/// Render the top-K sketch as a self-contained exposition block with
/// its own HELP/TYPE header. Cardinality is capped by the sketch
/// capacity, and identity lives in the `entity` label value only for
/// the current top-K — evicted entities vanish from the next scrape.
fn hot_entity_block(hot: &[HotEntity]) -> String {
    use std::fmt::Write as _;
    if hot.is_empty() {
        return String::new();
    }
    const FAMILY: &str = "kalis_hot_entity";
    let mut out = String::new();
    let _ = writeln!(out, "# HELP {FAMILY} {}", help_for(FAMILY));
    let _ = writeln!(out, "# TYPE {FAMILY} gauge");
    for (rank, entry) in hot.iter().enumerate() {
        let entity = prom_label_value(&entry.entity);
        let _ = writeln!(
            out,
            "{FAMILY}{{rank=\"{rank}\",entity=\"{entity}\"}} {}",
            entry.count
        );
    }
    out
}

#[cfg(test)]
mod tests {
    use super::*;
    use kalis_telemetry::check_exposition;
    use std::io::{Read as _, Write as _};

    fn sample_report() -> StatusReport {
        StatusReport {
            node: "K1".into(),
            readiness: Readiness {
                reasons: vec!["overload_shedding:heavy".into()],
            },
            capture_time_us: 5_000_000,
            uptime_us: 4_000_000,
            shed_mode: "heavy".into(),
            sync_degraded: false,
            modules: vec![ModuleStatus {
                name: "ScanModule".into(),
                kind: "detection".into(),
                health: "healthy".into(),
                pinned: true,
                active: true,
                cpu_ns: 12345,
                dispatches: 100,
                sheds: 3,
                occupancy: 17,
                evictions: 4,
                state_budget: 64,
                state_bytes: 2032,
            }],
            peers: vec![("K2".into(), "Healthy".into())],
            hot_entities: vec![HotEntity {
                entity: "ip:10.0.0.9".into(),
                count: 41,
                error: 2,
            }],
            journal_dropped: 0,
            trace_dropped: 0,
            alerts: 2,
            slo: Some(SloStatus {
                target_us: 500,
                p99_us: 710,
                breached: true,
            }),
            diag_captures: 1,
            diag_ring_occupancy: 12,
            diag_last_trigger: "slo-breached".into(),
        }
    }

    #[test]
    fn status_json_parses_and_carries_key_fields() {
        let text = sample_report().to_json();
        let doc = kalis_telemetry::json::parse(&text).unwrap();
        assert_eq!(doc.get("node").and_then(JsonValue::as_str), Some("K1"));
        assert_eq!(doc.get("ready").and_then(JsonValue::as_u64), Some(0));
        let reasons = doc.get("reasons").and_then(JsonValue::as_arr).unwrap();
        assert_eq!(reasons[0].as_str(), Some("overload_shedding:heavy"));
        let modules = doc.get("modules").and_then(JsonValue::as_arr).unwrap();
        assert_eq!(
            modules[0].get("health").and_then(JsonValue::as_str),
            Some("healthy")
        );
        assert_eq!(
            doc.get("slo")
                .and_then(|s| s.get("breached"))
                .and_then(JsonValue::as_u64),
            Some(1)
        );
        assert_eq!(
            doc.get("diag_captures").and_then(JsonValue::as_u64),
            Some(1)
        );
        assert_eq!(
            doc.get("diag_last_trigger").and_then(JsonValue::as_str),
            Some("slo-breached")
        );
    }

    #[test]
    fn hot_entity_block_is_exposition_clean() {
        let hot = vec![
            HotEntity {
                entity: "ip:10.0.0.9".into(),
                count: 41,
                error: 2,
            },
            HotEntity {
                entity: "evil\"ent\\ity\nx".into(),
                count: 7,
                error: 0,
            },
        ];
        let block = hot_entity_block(&hot);
        assert!(check_exposition(&block).is_empty(), "{block}");
        assert!(block.contains("rank=\"0\""));
    }

    #[test]
    fn server_serves_all_four_endpoints() {
        let telemetry = Arc::new(Telemetry::new());
        telemetry.counter("packets.ingested").add(9);
        let shared = Arc::new(OpsShared::new("K1", Arc::clone(&telemetry)));
        shared.publish(&sample_report());
        let server = OpsServer::bind("127.0.0.1:0".parse().unwrap(), Arc::clone(&shared)).unwrap();
        let get = |path: &str| -> (u16, String) {
            let mut stream = std::net::TcpStream::connect(server.addr()).unwrap();
            write!(stream, "GET {path} HTTP/1.0\r\nHost: x\r\n\r\n").unwrap();
            let mut response = String::new();
            stream.read_to_string(&mut response).unwrap();
            let code = response.split_whitespace().nth(1).unwrap().parse().unwrap();
            let body = response
                .split_once("\r\n\r\n")
                .map(|(_, b)| b.to_string())
                .unwrap_or_default();
            (code, body)
        };
        let (code, body) = get("/healthz");
        assert_eq!((code, body.as_str()), (200, "ok\n"));
        let (code, body) = get("/metrics");
        assert_eq!(code, 200);
        assert!(body.contains("kalis_packets_ingested_total 9"));
        assert!(body.contains("kalis_hot_entity{rank=\"0\""));
        let (code, body) = get("/readyz");
        assert_eq!(code, 503, "sample report sheds, so not ready");
        assert!(body.contains("overload_shedding:heavy"));
        let (code, body) = get("/status");
        assert_eq!(code, 200);
        assert!(body.contains("\"node\":\"K1\""));
        assert!(body.contains("\"diag_last_trigger\":\"slo-breached\""));
        // The diag surface: empty index until bundles are published,
        // then index + per-id fetch, and 404 for unknown ids.
        let (code, body) = get("/debug/diag");
        assert_eq!(code, 200);
        assert!(body.contains("kalis.diag-index.v1"));
        assert!(!body.contains("K1-001"));
        shared.publish_diag(&[(
            "K1-001-slo-breached".to_string(),
            "{\"schema\":\"kalis.diag.v1\"}\n".to_string(),
        )]);
        let (code, body) = get("/debug/diag");
        assert_eq!(code, 200);
        assert!(body.contains("K1-001-slo-breached"));
        let (code, body) = get("/debug/diag/K1-001-slo-breached");
        assert_eq!(code, 200);
        assert!(body.contains("kalis.diag.v1"));
        let (code, _) = get("/debug/diag/K1-999-nope");
        assert_eq!(code, 404);
        let (code, _) = get("/nope");
        assert_eq!(code, 404);
        // The listener counted each endpoint.
        let snap = telemetry.snapshot();
        assert_eq!(snap.counter("ops.requests[endpoint=metrics]"), 1);
        assert_eq!(snap.counter("ops.requests[endpoint=diag]"), 4);
        assert_eq!(snap.counter("ops.requests[endpoint=other]"), 1);
        drop(server); // graceful shutdown: joins the worker
    }
}
