//! End-to-end ingest throughput for the three systems over identical
//! traffic — the ablation behind the paper's CPU-usage comparison: the
//! knowledge-driven module set (Kalis) vs all-modules-on (traditional)
//! vs whole-rule-list-per-packet (Snort).

use criterion::{
    black_box, criterion_group, criterion_main, BatchSize, BenchmarkGroup, Criterion, Throughput,
};
use kalis_baselines::snort::SnortIds;
use kalis_baselines::traditional::{self, ReplicationChoice};
use kalis_bench::experiments::spray_trace;
use kalis_bench::runner::{run_nodes, Link};
use kalis_bench::scenarios::{Scenario, ScenarioKind};
use kalis_core::knowledge::{SyncMessage, XorChannel};
use kalis_core::{AttackKind, Kalis, KalisId};
use kalis_netsim::stress::burst_trace;
use kalis_netsim::trace::merge_traces;
use kalis_packets::{CapturedPacket, Timestamp};
use kalis_telemetry::{FlightRecorder, DEFAULT_RING_DEPTH, TRIGGER_MASK_ALL};
use std::time::Duration;

/// Untimed packets fed before `flood_at_cap` starts timing: past
/// `TrafficStatsModule`'s 8,192-event cap and the 4,096-packet window.
const FLOOD_WARM_UP: usize = 9_000;

/// Untimed packets fed before `spray_past_budget` starts timing: each a
/// new source, destination and MAC, past every module's default
/// `entity_budget` of 1,024 (the benchmark's `identity-spray` warm-up).
const SPRAY_WARM_UP: usize = 2_600;

/// Time `timed` through a default-module node that has already ingested
/// `fill`, untimed.
fn bench_warmed(
    group: &mut BenchmarkGroup<'_>,
    name: &str,
    fill: &[CapturedPacket],
    timed: &[CapturedPacket],
) {
    group.throughput(Throughput::Elements(timed.len() as u64));
    group.bench_function(name, |b| {
        b.iter_batched(
            || {
                let mut kalis = Kalis::builder(KalisId::new("K1"))
                    .with_default_modules()
                    .build();
                for packet in fill {
                    kalis.ingest(packet.clone());
                }
                kalis
            },
            |mut kalis| {
                for packet in timed {
                    kalis.ingest(packet.clone());
                }
                black_box(kalis.alerts().len())
            },
            BatchSize::LargeInput,
        );
    });
}

fn bench_pipeline(c: &mut Criterion) {
    let scenario = Scenario::build(ScenarioKind::IcmpFlood, 42, 5);
    let captures = scenario.captures;
    let mut group = c.benchmark_group("pipeline");
    group.throughput(Throughput::Elements(captures.len() as u64));
    group.sample_size(20);
    group.bench_function("kalis_adaptive", |b| {
        b.iter_batched(
            || {
                Kalis::builder(KalisId::new("K1"))
                    .with_default_modules()
                    .build()
            },
            |mut kalis| {
                for packet in &captures {
                    kalis.ingest(packet.clone());
                }
                black_box(kalis.alerts().len())
            },
            BatchSize::SmallInput,
        );
    });
    group.bench_function("traditional_all_on", |b| {
        b.iter_batched(
            || traditional::build("T1", ReplicationChoice::Static),
            |mut ids| {
                for packet in &captures {
                    ids.ingest(packet.clone());
                }
                black_box(ids.alerts().len())
            },
            BatchSize::SmallInput,
        );
    });
    group.bench_function("snort_ruleset", |b| {
        b.iter_batched(
            SnortIds::with_community_rules,
            |mut snort| {
                for packet in &captures {
                    snort.process(packet);
                }
                black_box(snort.alerts().len())
            },
            BatchSize::SmallInput,
        );
    });
    // The benchmark's `flood-4k` in miniature: a 4,000 pps burst replayed
    // past the traffic-statistics event cap, so every timed packet finds
    // the Data Store window and the event queue full.
    let flood = burst_trace(42, Timestamp::ZERO, 4_000, Duration::from_secs(3));
    let (fill, at_cap) = flood.split_at(FLOOD_WARM_UP);
    bench_warmed(&mut group, "flood_at_cap", fill, at_cap);
    // The benchmark's `identity-spray` in miniature: two 3,300-identity
    // bursts, timed once every bounded map is full, so each timed packet
    // is a key the maps have not seen.
    let spray = spray_trace(42, 3_300, 2);
    let (fill, past_budget) = spray.split_at(SPRAY_WARM_UP);
    bench_warmed(&mut group, "spray_past_budget", fill, past_budget);
    // The benchmark's `home-steady` in miniature: the seven home
    // scenarios merged, timed after their first third. ~40 virtual pps,
    // so nearly every timed packet is a plain one — no tick, no alert —
    // and about half of them change some knowgget no activation reads.
    let home = merge_traces(
        [
            ScenarioKind::IcmpFlood,
            ScenarioKind::SynFlood,
            ScenarioKind::UdpFlood,
            ScenarioKind::Smurf,
            ScenarioKind::Scan,
            ScenarioKind::Deauth,
            ScenarioKind::FragmentFlood,
        ]
        .into_iter()
        .enumerate()
        .map(|(i, kind)| Scenario::build(kind, 42 + i as u64, 5).captures)
        .collect(),
    );
    let (fill, plain) = home.split_at(home.len() / 3);
    bench_warmed(&mut group, "home_steady_plain", fill, plain);
    // Node 1's side of the benchmark's `wsn-pair`: the wormhole
    // scenario's first vantage, 802.15.4/CTP through the watchdog and
    // topology modules.
    let wormhole = Scenario::build(ScenarioKind::Wormhole, 42, 200);
    let ctp = &wormhole.captures;
    let (fill, plain) = ctp.split_at(ctp.len() / 3);
    bench_warmed(&mut group, "ctp_pair_plain", fill, plain);
    // The other clock of `wsn-pair`: the explicit 2 Hz `Kalis::tick` on
    // the vantage whose wormhole verdict stands, both nodes warmed by
    // the whole scenario and nothing arriving since — the idle gateway,
    // where the tick is the whole load.
    let mut pair = ["K1", "K2"].map(|id| {
        Kalis::builder(KalisId::new(id))
            .with_default_modules()
            .build()
    });
    run_nodes(&mut pair, &wormhole.vantages(), &mut Link::default());
    let confirmed = (pair.iter())
        .position(|node| (node.alerts().iter()).any(|alert| alert.attack == AttackKind::Wormhole))
        .expect("a vantage confirmed the wormhole");
    let mut now = ctp.last().expect("captures").timestamp + Duration::from_secs(1);
    group.throughput(Throughput::Elements(1));
    group.bench_function("ctp_pair_tick", |b| {
        b.iter(|| {
            now += Duration::from_millis(500);
            pair[confirmed].tick(now);
        });
    });
    // What `wsn-pair` does every 500 virtual ms between packets, once:
    // the one-shot knowledge exchange both ways, `collective_outbox →
    // seal → open → accept_sync` (both outboxes empty, as on all but a
    // few rounds of the workload), then both nodes' ticks.
    let channel = XorChannel::new(0x6b616c6973);
    let one_way = |from: &mut Kalis, to: &mut Kalis| {
        if let Some(message) = from.collective_outbox() {
            if let Ok(opened) = SyncMessage::open(&message.seal(&channel), &channel) {
                let _ = to.accept_sync(opened);
            }
        }
    };
    let [k1, k2] = &mut pair;
    group.bench_function("ctp_pair_round", |b| {
        b.iter(|| {
            now += Duration::from_millis(500);
            one_way(k1, k2);
            one_way(k2, k1);
            k1.tick(now);
            k2.tick(now);
        });
    });
    let node = &pair[confirmed];
    // One flight-recorder sample of that node's whole registry (some 190
    // instruments), the ring wrapped.
    let tele = node.telemetry().clone();
    let mut recorder = FlightRecorder::new(DEFAULT_RING_DEPTH, 1, TRIGGER_MASK_ALL);
    let mut now_us = 0;
    for _ in 0..2 * DEFAULT_RING_DEPTH {
        now_us += 1;
        recorder.sample(now_us, &tele);
    }
    group.bench_function("recorder_sample_wrapped", |b| {
        b.iter(|| {
            now_us += 1;
            recorder.sample(now_us, &tele);
        });
    });
    group.finish();
}

criterion_group!(benches, bench_pipeline);
criterion_main!(benches);
