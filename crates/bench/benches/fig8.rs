//! Times the Fig. 8 breadth experiment: one Kalis run per attack
//! scenario.

use criterion::{black_box, criterion_group, criterion_main, Criterion};
use kalis_bench::runner;
use kalis_bench::scenarios::{Scenario, ScenarioKind};

fn bench_fig8(c: &mut Criterion) {
    let mut group = c.benchmark_group("fig8");
    group.sample_size(10);
    for kind in ScenarioKind::fig8_set() {
        let scenario = Scenario::build(*kind, 42, 5);
        group.bench_function(kind.name(), |b| {
            b.iter(|| {
                let outcome = runner::run_kalis(&scenario.vantages());
                black_box(outcome.detections.len())
            });
        });
    }
    group.finish();
}

criterion_group!(benches, bench_fig8);
criterion_main!(benches);
