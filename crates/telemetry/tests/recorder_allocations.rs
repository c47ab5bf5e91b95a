//! Once the flight recorder's ring has wrapped, a sample costs no heap
//! allocation however many instruments moved: it reads each column's
//! handle and writes `(column, value)` pairs into the buffers of the
//! frame it evicts. Counted with the allocator `kalis-core`'s pins
//! count with, in this test binary only.

#[path = "../../core/tests/counting_alloc/mod.rs"]
mod counting_alloc;

use kalis_telemetry::{metric_name, FlightRecorder, Telemetry, Trigger, TRIGGER_MASK_ALL};

use counting_alloc::allocations;

#[test]
fn a_sample_on_a_wrapped_ring_allocates_nothing() {
    let tele = Telemetry::new();
    let label = |family: &str, i: usize| metric_name(family, &[("module", &format!("M{i:02}"))]);
    let counters: Vec<_> = (0..30)
        .map(|i| tele.counter(&label("dispatch.calls", i)))
        .collect();
    let gauges: Vec<_> = (0..5)
        .map(|i| tele.gauge(&label("module.occupancy", i)))
        .collect();
    // Wall-domain instruments ride along, unsampled.
    let cpu = tele.counter(&label("module.cpu_ns", 0));
    let mut recorder = FlightRecorder::new(4, 1_000_000, TRIGGER_MASK_ALL);
    let mut now_us = 0;
    let mut busy_sample = |recorder: &mut FlightRecorder, round: u64| {
        for counter in &counters {
            counter.add(1 + round);
        }
        for gauge in &gauges {
            gauge.set(round);
        }
        cpu.add(12_345);
        now_us += 1_000_000;
        allocations(|| recorder.sample(now_us, &tele))
    };
    // Wrap the ring three times over: every buffer has held a busy frame.
    for round in 1..=12 {
        busy_sample(&mut recorder, round);
    }
    assert_eq!(recorder.occupancy(), 4);
    for round in 13..=20 {
        let allocated = busy_sample(&mut recorder, round);
        assert_eq!(allocated, 0, "thirty counters and five gauges moved");
    }
    for _ in 0..8 {
        now_us += 1_000_000;
        let allocated = allocations(|| recorder.sample(now_us, &tele));
        assert_eq!(allocated, 0, "nothing moved");
    }
    // The frames were real: the last busy one names all thirty-five.
    let bundle = recorder.capture(
        Trigger::StateExhaustion,
        now_us + 1,
        &tele,
        "K1",
        "fnv1a:0000000000000000",
        None,
        8,
    );
    assert_eq!(bundle.frames.len(), 4);
    let decoded = bundle.decode_absolute();
    let (_, absolute, levels) = decoded.last().expect("frames retained");
    let total: u64 = (1..=20).map(|round| 1 + round).sum();
    assert_eq!(absolute[&label("dispatch.calls", 29)], total);
    assert_eq!(levels[&label("module.occupancy", 4)], 20);
    assert!(!absolute.contains_key(&label("module.cpu_ns", 0)));
}
