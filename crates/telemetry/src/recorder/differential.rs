//! The column recorder against the merge-walk recorder it replaced
//! (`reference.rs`): both sample one registry through one random
//! history and must freeze byte-identical bundles at every step. This
//! test is the sole oracle for "sampling by column changed nothing a
//! bundle shows": which instruments a frame names and in what order,
//! what an evicted frame leaves in the base, when a gauge at 0 is
//! recorded, and what a newly registered instrument's first frame
//! holds.

use proptest::prelude::*;

use super::{reference, Column, Columns, FlightRecorder, Trigger, TRIGGER_MASK_ALL};
use crate::{Counter, Gauge, JournalEvent, Telemetry};
use std::sync::Arc;

// The recorder is cloned here only (`Pair::capture`), handles shared.
impl<I> Clone for Columns<I> {
    fn clone(&self) -> Self {
        let column = |held: &Column<I>| Column {
            name: held.name.clone(),
            instrument: Arc::clone(&held.instrument),
            last: held.last,
            base: held.base,
        };
        Columns {
            columns: self.columns.iter().map(column).collect(),
            by_name: self.by_name.clone(),
        }
    }
}

/// Instrument names an op can register: wall-domain families the frames
/// must skip, and names sorting before, between and after whatever is
/// held already (the registry itself holds `journal.*` from birth).
const NAMES: [&str; 12] = [
    "a.first",
    "alerts",
    "alerts.by[kind=Wormhole,severity=High]",
    "journal.aaa",
    "kb.ops[op=get]",
    "module.cpu_ns[module=ScanModule]",
    "module.occupancy[module=ScanModule]",
    "ops.requests[endpoint=metrics]",
    "slo.latency_p99_us",
    "sloth",
    "zz.last",
    "~tilde",
];

const INTERVAL_US: u64 = 1_000;

#[derive(Debug, Clone)]
enum Op {
    Counter(usize),
    Gauge(usize),
    Add(usize, u64),
    Set(usize, u64),
    SetMax(usize, u64),
    Journal,
    /// `sample` this many times, 1 µs apart, bumping the held counters
    /// in between so frames differ.
    Sample(usize),
    /// `maybe_sample` after this many micros.
    MaybeSample(u64),
    Capture(usize),
}

fn op() -> impl Strategy<Value = Op> {
    let name = || 0..NAMES.len();
    prop_oneof![
        name().prop_map(Op::Counter),
        name().prop_map(Op::Gauge),
        (name(), 0u64..5).prop_map(|(i, n)| Op::Add(i, n)),
        (name(), 0u64..5).prop_map(|(i, n)| Op::Add(i, n)),
        (name(), 0u64..4).prop_map(|(i, v)| Op::Set(i, v)),
        (name(), 0u64..6).prop_map(|(i, v)| Op::SetMax(i, v)),
        Just(Op::Journal),
        // A few frames, or enough to wrap the deepest ring.
        (1usize..4).prop_map(Op::Sample),
        (1usize..4).prop_map(Op::Sample),
        (60usize..90).prop_map(Op::Sample),
        // Inside the interval, and across it.
        (1u64..3).prop_map(Op::MaybeSample),
        (INTERVAL_US - 2..INTERVAL_US + 2).prop_map(Op::MaybeSample),
        (0..Trigger::ALL.len()).prop_map(Op::Capture),
    ]
}

struct Pair {
    tele: Telemetry,
    columns: FlightRecorder,
    walk: reference::FlightRecorder,
    now_us: u64,
}

impl Pair {
    fn capture(&self, trigger: Trigger) -> (String, String) {
        // On copies: looking does not sample.
        let at = self.now_us + 7;
        let args = ("K1", "fnv1a:0000000000000000", None, 8);
        let columns =
            (self.columns.clone()).capture(trigger, at, &self.tele, args.0, args.1, args.2, args.3);
        let walk =
            (self.walk.clone()).capture(trigger, at, &self.tele, args.0, args.1, args.2, args.3);
        (columns.to_json(), walk.to_json())
    }

    fn check(&self) {
        assert_eq!(self.columns.occupancy(), self.walk.occupancy());
        assert_eq!(self.columns.samples(), self.walk.samples());
        if self.columns.enabled() {
            let (columns, walk) = self.capture(Trigger::StateExhaustion);
            assert_eq!(columns, walk);
        }
    }
}

proptest! {
    #[test]
    fn columns_freeze_the_bundles_the_merge_walk_froze(
        depth in prop_oneof![Just(0usize), Just(1), Just(3), Just(64)],
        ops in proptest::collection::vec(op(), 1..60),
    ) {
        let mut pair = Pair {
            tele: Telemetry::default(),
            columns: FlightRecorder::new(depth, INTERVAL_US, TRIGGER_MASK_ALL),
            walk: reference::FlightRecorder::new(depth, INTERVAL_US, TRIGGER_MASK_ALL),
            now_us: 0,
        };
        let mut counters: Vec<Arc<Counter>> = Vec::new();
        let mut gauges: Vec<Arc<Gauge>> = Vec::new();
        for op in ops {
            match op {
                Op::Counter(name) => counters.push(pair.tele.counter(NAMES[name])),
                Op::Gauge(name) => gauges.push(pair.tele.gauge(NAMES[name])),
                Op::Add(i, n) => {
                    if let Some(counter) = counters.get(i % counters.len().max(1)) {
                        counter.add(n);
                    }
                }
                Op::Set(i, v) => {
                    if let Some(gauge) = gauges.get(i % gauges.len().max(1)) {
                        gauge.set(v);
                    }
                }
                Op::SetMax(i, v) => {
                    if let Some(gauge) = gauges.get(i % gauges.len().max(1)) {
                        gauge.set_max(v);
                    }
                }
                Op::Journal => pair.tele.journal().record(
                    pair.now_us,
                    JournalEvent::StateEvicted { structure: "kb".to_owned(), evicted: 1 },
                ),
                Op::Sample(times) => {
                    for round in 0..times {
                        pair.now_us += 1;
                        if let Some(counter) = counters.get(round % counters.len().max(1)) {
                            counter.add(round as u64 % 3);
                        }
                        pair.columns.sample(pair.now_us, &pair.tele);
                        pair.walk.sample(pair.now_us, &pair.tele);
                    }
                }
                Op::MaybeSample(after) => {
                    pair.now_us += after;
                    let sampled = pair.columns.maybe_sample(pair.now_us, &pair.tele);
                    prop_assert_eq!(sampled, pair.walk.maybe_sample(pair.now_us, &pair.tele));
                }
                Op::Capture(trigger) => {
                    // For real: the forced sample and the ordinal stay.
                    pair.now_us += 1;
                    let trigger = Trigger::ALL[trigger];
                    let args = ("K1", "fnv1a:0000000000000000", None, 8);
                    let columns = pair.columns.capture(
                        trigger, pair.now_us, &pair.tele, args.0, args.1, args.2, args.3,
                    );
                    let walk = pair.walk.capture(
                        trigger, pair.now_us, &pair.tele, args.0, args.1, args.2, args.3,
                    );
                    prop_assert_eq!(columns.to_json(), walk.to_json());
                }
            }
            pair.check();
        }
    }
}
