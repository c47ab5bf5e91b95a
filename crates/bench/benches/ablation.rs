//! Ablation benchmarks for the design choices DESIGN.md calls out:
//!
//! * knowledge-driven activation vs. always-on dispatch (how much work
//!   does the Module Manager save per packet),
//! * reconfiguration cost as the library grows (the scalability concern
//!   of §IV-B4),
//! * the Data Store sliding window size (memory/lookup trade-off).

use criterion::{black_box, criterion_group, criterion_main, BatchSize, Criterion};
use kalis_bench::scenarios::{Scenario, ScenarioKind};
use kalis_core::config::ModuleDef;
use kalis_core::modules::ModuleRegistry;
use kalis_core::store::WindowConfig;
use kalis_core::{Kalis, KalisId, KnowledgeBase};

fn bench_activation_ablation(c: &mut Criterion) {
    // Same WSN traffic through an adaptive node (only the modules the
    // knowledge requires) vs. a pinned-everything node.
    let scenario = Scenario::build(ScenarioKind::SelectiveForwarding, 42, 10);
    let captures = scenario.captures;
    let mut group = c.benchmark_group("ablation_activation");
    group.sample_size(10);
    for (label, adaptive) in [("knowledge_driven", true), ("all_modules_on", false)] {
        group.bench_function(label, |b| {
            b.iter_batched(
                || {
                    let builder = Kalis::builder(KalisId::new("K1")).with_default_modules();
                    if adaptive {
                        builder.build()
                    } else {
                        builder.traditional().build()
                    }
                },
                |mut kalis| {
                    for packet in &captures {
                        kalis.ingest(packet.clone());
                    }
                    black_box(kalis.meter().work_units)
                },
                BatchSize::SmallInput,
            );
        });
    }
    group.finish();
}

fn bench_reconfigure_scaling(c: &mut Criterion) {
    let mut group = c.benchmark_group("ablation_reconfigure");
    for copies in [1usize, 4, 16] {
        group.bench_function(&format!("library_x{copies}"), |b| {
            let registry = ModuleRegistry::with_defaults();
            let mut manager = kalis_core::modules::ModuleManager::new();
            for _ in 0..copies {
                for name in registry.names() {
                    manager.add(registry.build(&ModuleDef::new(name)).unwrap(), false);
                }
            }
            let mut kb = KnowledgeBase::new(KalisId::new("K1"));
            kb.insert("Multihop", true);
            kb.insert("Mobile", false);
            let mut flip = false;
            b.iter(|| {
                // Alternate the knowledge so every pass flips activations.
                flip = !flip;
                kb.insert("Multihop", flip);
                black_box(manager.reconfigure(&kb))
            });
        });
    }
    group.finish();
}

fn bench_window_ablation(c: &mut Criterion) {
    let scenario = Scenario::build(ScenarioKind::IcmpFlood, 42, 3);
    let captures = scenario.captures;
    let mut group = c.benchmark_group("ablation_window");
    group.sample_size(10);
    for max_packets in [256usize, 4096] {
        group.bench_function(&format!("window_{max_packets}"), |b| {
            b.iter_batched(
                || {
                    let mut window = WindowConfig::default();
                    window.max_packets = max_packets;
                    Kalis::builder(KalisId::new("K1"))
                        .with_default_modules()
                        .with_window(window)
                        .build()
                },
                |mut kalis| {
                    for packet in &captures {
                        kalis.ingest(packet.clone());
                    }
                    black_box(kalis.meter().peak_state_bytes)
                },
                BatchSize::SmallInput,
            );
        });
    }
    group.finish();
}

criterion_group!(
    benches,
    bench_activation_ablation,
    bench_reconfigure_scaling,
    bench_window_ablation
);
criterion_main!(benches);
