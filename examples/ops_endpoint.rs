//! Operate a live node through the kalis-ops HTTP surface: run a
//! simulated ICMP flood through a node with the listener enabled, then
//! scrape it exactly the way a Prometheus server and a readiness probe
//! would — over TCP, from the outside.
//!
//! The example validates the `/metrics` scrape with the strict
//! exposition checker (exit 1 on any violation — this is the CI ops
//! smoke gate) and writes the scraped artifacts to `target/ops/`:
//!
//! - `target/ops/metrics.txt` — the Prometheus exposition
//! - `target/ops/status.json` — the `/status` operational report
//!
//! Run with: `cargo run --example ops_endpoint [PORT]`

use std::io::{Read, Write};
use std::net::{Ipv4Addr, SocketAddr, TcpStream};
use std::process::ExitCode;
use std::time::Duration;

use kalis_bench::scenarios::{Scenario, ScenarioKind};
use kalis_core::config::Config;
use kalis_core::{Kalis, KalisId};
use kalis_telemetry::check_exposition;
use kalis_telemetry::json::{parse, JsonValue};

fn http_get(addr: SocketAddr, path: &str) -> (u16, String) {
    let mut stream = TcpStream::connect(addr).expect("connect to ops listener");
    write!(stream, "GET {path} HTTP/1.0\r\nHost: kalis\r\n\r\n").expect("send request");
    let mut response = String::new();
    stream.read_to_string(&mut response).expect("read response");
    let code = response
        .split_whitespace()
        .nth(1)
        .expect("status line")
        .parse()
        .expect("status code");
    let body = response
        .split_once("\r\n\r\n")
        .map(|(_, b)| b.to_string())
        .unwrap_or_default();
    (code, body)
}

fn main() -> ExitCode {
    let port: u16 = std::env::args()
        .nth(1)
        .map(|p| p.parse().expect("PORT must be a u16"))
        .unwrap_or(0);
    let config: Config = "knowggets = { Ops.LatencySloUs = 50000 }"
        .parse()
        .expect("valid ops config");
    let mut kalis = Kalis::builder(KalisId::new("K1"))
        .with_config(config)
        .with_default_modules()
        .with_ops(SocketAddr::from((Ipv4Addr::LOCALHOST, port)))
        .build();
    let addr = kalis.ops_addr().expect("ops listener bound");
    println!("kalis-ops listening on http://{addr}");

    // An ICMP flood scenario on the virtual capture clock, closed with a
    // tick so the final profiler refresh covers the whole trace.
    let scenario = Scenario::build(ScenarioKind::IcmpFlood, 42, 6);
    for packet in &scenario.captures {
        kalis.ingest(packet.clone());
    }
    if let Some(last) = scenario.captures.last() {
        kalis.tick(last.timestamp + Duration::from_secs(2));
    }
    let alerts = kalis.drain_alerts();
    println!(
        "ingested {} packets, raised {} alerts",
        scenario.captures.len(),
        alerts.len()
    );

    let (code, body) = http_get(addr, "/healthz");
    println!("GET /healthz -> {code} {}", body.trim());
    assert_eq!(code, 200);

    let (code, ready) = http_get(addr, "/readyz");
    println!("GET /readyz  -> {code} {ready}");
    assert_eq!(code, 200, "calm node must be ready");

    let (code, metrics) = http_get(addr, "/metrics");
    assert_eq!(code, 200);
    let (code, status) = http_get(addr, "/status");
    assert_eq!(code, 200);
    let doc = parse(&status).expect("/status serves valid JSON");
    println!(
        "GET /status  -> node {} ready={} modules={} hot_entities={}",
        doc.get("node").and_then(JsonValue::as_str).unwrap_or("?"),
        doc.get("ready").and_then(JsonValue::as_u64).unwrap_or(0),
        doc.get("modules")
            .and_then(JsonValue::as_arr)
            .map_or(0, <[JsonValue]>::len),
        doc.get("hot_entities")
            .and_then(JsonValue::as_arr)
            .map_or(0, <[JsonValue]>::len),
    );

    std::fs::create_dir_all("target/ops").expect("create target/ops");
    std::fs::write("target/ops/metrics.txt", &metrics).expect("write metrics.txt");
    std::fs::write("target/ops/status.json", &status).expect("write status.json");
    println!("wrote target/ops/metrics.txt ({} bytes)", metrics.len());
    println!("wrote target/ops/status.json ({} bytes)", status.len());

    // The CI gate: the live scrape must satisfy the strict exposition
    // checker (one HELP/TYPE per family, no duplicate series, coherent
    // histograms, counter families suffixed `_total`).
    let problems = check_exposition(&metrics);
    if problems.is_empty() {
        let families = metrics.lines().filter(|l| l.starts_with("# TYPE")).count();
        println!("GET /metrics -> exposition clean ({families} families)");
        ExitCode::SUCCESS
    } else {
        for problem in &problems {
            eprintln!("exposition violation: {problem}");
        }
        ExitCode::FAILURE
    }
}
