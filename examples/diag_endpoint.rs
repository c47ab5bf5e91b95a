//! Grab a diagnostics bundle from a live node: run the adversarial
//! identity spray through a node with the ops listener enabled until
//! the flight recorder latches a `kalis.diag.v1` capture, then fetch
//! it over TCP the way an operator would and validate it with the
//! strict bundle checker (exit 1 on any violation — this is the CI
//! diag smoke gate).
//!
//! Artifacts land in `target/diag/`:
//!
//! - `target/diag/index.json` — the `/debug/diag` capture index
//! - `target/diag/bundle.json` — the newest bundle, ready for
//!   `kalis-trace --diag target/diag/bundle.json`
//!
//! Run with: `cargo run --example diag_endpoint [PORT]`

use std::io::{Read, Write};
use std::net::{Ipv4Addr, SocketAddr, TcpStream};
use std::process::ExitCode;
use std::time::Duration;

use kalis_bench::experiments::spray_trace;
use kalis_core::{Kalis, KalisId};
use kalis_packets::Timestamp;
use kalis_telemetry::check_bundle;
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
    let mut kalis = Kalis::builder(KalisId::new("K1"))
        .with_default_modules()
        .with_ops(SocketAddr::from((Ipv4Addr::LOCALHOST, port)))
        .build();
    let addr = kalis.ops_addr().expect("ops listener bound");
    println!("kalis-ops listening on http://{addr}");

    // The state-exhaustion spray: 400 fabricated identities in 8
    // bursts. Eviction pressure is the anomaly the recorder latches on.
    let mut last = Timestamp::ZERO;
    let spray = spray_trace(42, 400, 8);
    let packets = spray.len();
    for packet in spray {
        last = last.max(packet.timestamp);
        kalis.ingest(packet);
    }
    kalis.tick(last + Duration::from_secs(2));
    println!(
        "ingested {packets} packets, recorder latched {} capture(s), last trigger {}",
        kalis.diag_bundles().len(),
        kalis.diag_last_trigger().unwrap_or("none"),
    );

    let (code, index) = http_get(addr, "/debug/diag");
    assert_eq!(code, 200, "GET /debug/diag must serve the index");
    let doc = parse(&index).expect("/debug/diag serves valid JSON");
    let bundles = doc
        .get("bundles")
        .and_then(JsonValue::as_arr)
        .expect("index lists bundles");
    println!("GET /debug/diag -> {} retained bundle(s)", bundles.len());
    let newest = bundles
        .last()
        .and_then(JsonValue::as_str)
        .expect("the spray must have latched at least one capture");

    let (code, bundle) = http_get(addr, &format!("/debug/diag/{newest}"));
    assert_eq!(code, 200, "GET /debug/diag/{newest} must serve the bundle");

    std::fs::create_dir_all("target/diag").expect("create target/diag");
    std::fs::write("target/diag/index.json", &index).expect("write index.json");
    std::fs::write("target/diag/bundle.json", &bundle).expect("write bundle.json");
    println!("wrote target/diag/index.json ({} bytes)", index.len());
    println!("wrote target/diag/bundle.json ({} bytes)", bundle.len());

    // The CI gate: the served bundle must satisfy the strict checker
    // (schema fields, monotonic frame times, delta/base coherence,
    // journal tail ordering).
    match check_bundle(&bundle) {
        Ok(stats) => {
            println!(
                "GET /debug/diag/{newest} -> bundle clean (trigger {}, {} frames, {} journal entries)",
                stats.trigger, stats.frames, stats.journal_entries,
            );
            ExitCode::SUCCESS
        }
        Err(problem) => {
            eprintln!("bundle violation: {problem}");
            ExitCode::FAILURE
        }
    }
}
