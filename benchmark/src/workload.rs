//! The four replay workloads, generated from the seed.
//!
//! A workload is a list of raw frames with virtual timestamps; the
//! program under test receives only those frames. Sizes are fixed packet
//! counts (scaled by a constructor argument for the tests), so every
//! commit replays the same amount of work.

use std::time::{Duration, Instant};

use bytes::Bytes;
use kalis_attacks::SymptomInstance;
use kalis_bench::experiments::spray_trace;
use kalis_bench::scenarios::{Scenario, ScenarioKind};
use kalis_core::AttackKind;
use kalis_netsim::stress::burst_trace;
use kalis_netsim::trace::merge_traces;
use kalis_packets::{CapturedPacket, Medium, Timestamp};

/// Interface name stamped on every replayed capture.
const INTERFACE: &str = "bench0";

/// One raw frame as a sniffer hands it over, before decoding.
#[derive(Debug, Clone)]
pub struct Frame {
    pub ts: Timestamp,
    pub medium: Medium,
    pub rssi: Option<f64>,
    pub raw: Bytes,
}

impl Frame {
    fn of(cap: CapturedPacket) -> Frame {
        Frame {
            ts: cap.timestamp,
            medium: cap.medium,
            rssi: cap.rssi_dbm,
            raw: cap.raw,
        }
    }

    /// Decode the frame: the first half of every benchmark operation.
    #[inline]
    pub fn capture(&self) -> CapturedPacket {
        CapturedPacket::capture(self.ts, self.medium, self.rssi, INTERFACE, self.raw.clone())
    }
}

/// One operation: a frame and the index of the node that overhears it.
#[derive(Debug, Clone)]
pub struct Op {
    pub node: usize,
    pub frame: Frame,
}

/// Which workload to build.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum Kind {
    HomeSteady,
    Flood4k,
    IdentitySpray,
    WsnPair,
}

impl Kind {
    pub const ALL: [Kind; 4] = [
        Kind::HomeSteady,
        Kind::Flood4k,
        Kind::IdentitySpray,
        Kind::WsnPair,
    ];

    pub fn name(self) -> &'static str {
        match self {
            Kind::HomeSteady => "home-steady",
            Kind::Flood4k => "flood-4k",
            Kind::IdentitySpray => "identity-spray",
            Kind::WsnPair => "wsn-pair",
        }
    }

    pub fn from_name(name: &str) -> Option<Kind> {
        Kind::ALL.into_iter().find(|k| k.name() == name)
    }

    /// `(warm-up, timed)` operations at full size.
    fn full_size(self) -> (usize, usize) {
        match self {
            Kind::HomeSteady => (10_000, 100_000),
            Kind::Flood4k => (9_000, 6_000),
            Kind::IdentitySpray => (2_600, 12_000),
            Kind::WsnPair => (8_000, 80_000),
        }
    }
}

/// A generated workload.
#[derive(Debug)]
pub struct Workload {
    /// Operations in replay order (virtual time, node 0 first on ties).
    pub ops: Vec<Op>,
    /// Leading operations replayed untimed, to reach steady state.
    pub warmup: usize,
    /// Collaborating nodes (2 for `wsn-pair`, else 1).
    pub nodes: usize,
    /// Injected symptoms inside the replayed span, looped like the frames.
    pub truth: Vec<SymptomInstance>,
    /// Attack families the run must raise at least one alert for.
    pub families: Vec<AttackKind>,
    /// Seconds spent in the simulator and attack generators.
    pub generate_s: f64,
    /// Seconds spent merging, looping and flattening into operations.
    pub loop_s: f64,
}

impl Workload {
    /// Build `kind` from `seed` at `1/shrink` of full size.
    pub fn build(kind: Kind, seed: u64, shrink: usize) -> Workload {
        let (warmup, timed) = kind.full_size();
        let (warmup, timed) = (warmup / shrink, timed / shrink);
        let t0 = Instant::now();
        let base = match kind {
            Kind::HomeSteady => home_base(seed),
            Kind::Flood4k => flood_base(seed, warmup, warmup + timed),
            Kind::IdentitySpray => spray_base(seed),
            Kind::WsnPair => wsn_base(seed),
        };
        let generate_s = t0.elapsed().as_secs_f64();
        let t1 = Instant::now();
        let nodes = base.streams.len();
        let (ops, truth) = loop_to(base, warmup + timed);
        let mut families: Vec<AttackKind> = truth.iter().map(|s| s.attack).collect();
        families.sort();
        families.dedup();
        Workload {
            ops,
            warmup,
            nodes,
            truth,
            families,
            generate_s,
            loop_s: t1.elapsed().as_secs_f64(),
        }
    }

    /// Offered rate on the virtual clock over the timed span, packets/s.
    pub fn virtual_pps(&self) -> f64 {
        let first = self.ops[self.warmup].frame.ts;
        let last = self.ops[self.ops.len() - 1].frame.ts;
        (self.ops.len() - self.warmup) as f64 / last.saturating_since(first).as_secs_f64().max(1e-6)
    }
}

/// One lap of a workload before looping: a capture stream per node plus
/// the symptoms injected into them.
struct Base {
    streams: Vec<Vec<CapturedPacket>>,
    truth: Vec<SymptomInstance>,
}

/// Derive a per-scenario seed so the merged scenarios do not share one
/// simulator stream.
fn sub_seed(seed: u64, index: usize) -> u64 {
    seed.wrapping_mul(0x9e37_79b9_7f4a_7c15)
        .wrapping_add(index as u64)
}

fn merged(kinds: &[ScenarioKind], seed: u64, symptoms: u32) -> Base {
    let mut traces = Vec::new();
    let mut truth = Vec::new();
    for (i, kind) in kinds.iter().enumerate() {
        let scenario = Scenario::build(*kind, sub_seed(seed, i), symptoms);
        traces.push(scenario.captures);
        truth.extend(scenario.truth);
    }
    Base {
        streams: vec![merge_traces(traces)],
        truth,
    }
}

const HOME_KINDS: [ScenarioKind; 7] = [
    ScenarioKind::IcmpFlood,
    ScenarioKind::SynFlood,
    ScenarioKind::UdpFlood,
    ScenarioKind::Smurf,
    ScenarioKind::Scan,
    ScenarioKind::Deauth,
    ScenarioKind::FragmentFlood,
];

fn home_base(seed: u64) -> Base {
    merged(&HOME_KINDS, seed, 20)
}

/// A 4,000 pps benign burst (under the default 5,000 pps shed threshold)
/// with the home mix's first attack bursts landing just inside the timed
/// span, so real attacks must still be detected mid-flood. Never looped:
/// the burst is generated at the length the replay needs.
fn flood_base(seed: u64, warmup: usize, total: usize) -> Base {
    const PPS: u64 = 4_000;
    /// Every burst attacker in the home mix first fires at 5 s.
    const FIRST_BURST_US: u64 = 5_000_000;
    let span = Duration::from_secs((total as u64).div_ceil(PPS) + 1);
    let burst = burst_trace(seed, Timestamp::ZERO, PPS, span);
    let end = Timestamp::ZERO + span;
    // Move the mix earlier so its 5 s mark falls 0.2 s after warm-up.
    let cut = FIRST_BURST_US - (warmup as u64 * 1_000_000 / PPS + 200_000);
    let earlier = |t: Timestamp| {
        t.as_micros()
            .checked_sub(cut)
            .map(Timestamp::from_micros)
            .filter(|t| *t < end)
    };
    let home = merged(&HOME_KINDS[..4], seed, 2);
    let truth = home
        .truth
        .into_iter()
        .filter_map(|s| earlier(s.time).map(|time| SymptomInstance { time, ..s }))
        .collect();
    let mix = home
        .streams
        .into_iter()
        .flatten()
        .filter_map(|c| earlier(c.timestamp).map(|timestamp| CapturedPacket { timestamp, ..c }))
        .collect();
    Base {
        streams: vec![merge_traces(vec![burst, mix])],
        truth,
    }
}

/// The BENCH_7 composition: an identity spray around a real ICMP flood.
fn spray_base(seed: u64) -> Base {
    let flood = Scenario::build(ScenarioKind::IcmpFlood, seed, 6);
    let spray = spray_trace(seed, 3_300, 8);
    Base {
        streams: vec![merge_traces(vec![flood.captures, spray])],
        truth: flood.truth,
    }
}

fn wsn_base(seed: u64) -> Base {
    let wormhole = Scenario::build(ScenarioKind::Wormhole, seed, 200);
    let extra = merged(
        &[
            ScenarioKind::SelectiveForwarding,
            ScenarioKind::Blackhole,
            ScenarioKind::Sinkhole,
            ScenarioKind::Sybil,
            ScenarioKind::Replication,
        ],
        sub_seed(seed, 7),
        20,
    );
    let mut truth = wormhole.truth;
    truth.extend(extra.truth);
    let a = merge_traces(vec![
        wormhole.captures,
        extra.streams.into_iter().next().unwrap_or_default(),
    ]);
    Base {
        streams: vec![a, wormhole.captures_b.unwrap_or_default()],
        truth,
    }
}

/// Flatten the base's streams into one time-ordered operation list and
/// repeat it, each lap shifted by a whole number of seconds, until
/// `total` operations exist. Truth is shifted alike and cut at the last
/// replayed frame.
fn loop_to(base: Base, total: usize) -> (Vec<Op>, Vec<SymptomInstance>) {
    let mut lap: Vec<Op> = base
        .streams
        .into_iter()
        .enumerate()
        .flat_map(|(node, caps)| {
            caps.into_iter().map(move |cap| Op {
                node,
                frame: Frame::of(cap),
            })
        })
        .collect();
    // Stable: node 0's frames were emitted first, so ties keep that order.
    lap.sort_by_key(|op| op.frame.ts);
    assert!(!lap.is_empty(), "generator produced no frames");
    let end = lap[lap.len() - 1].frame.ts;
    let shift = Duration::from_secs(end.as_micros() / 1_000_000 + 1);
    let mut ops = Vec::with_capacity(total);
    let mut truth = Vec::new();
    let mut offset = Duration::ZERO;
    while ops.len() < total {
        let take = (total - ops.len()).min(lap.len());
        ops.extend(lap[..take].iter().map(|op| Op {
            node: op.node,
            frame: Frame {
                ts: op.frame.ts + offset,
                ..op.frame.clone()
            },
        }));
        let cut = ops[ops.len() - 1].frame.ts;
        truth.extend(
            base.truth
                .iter()
                .map(|s| SymptomInstance {
                    time: s.time + offset,
                    ..s.clone()
                })
                .filter(|s| s.time <= cut),
        );
        offset += shift;
    }
    truth.sort_by_key(|s| s.time);
    (ops, truth)
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn looped_ops_and_truth_are_time_ordered_and_lap_shifted_alike() {
        for kind in Kind::ALL {
            let w = Workload::build(kind, 42, 100);
            let (warm, timed) = kind.full_size();
            assert_eq!(w.ops.len(), warm / 100 + timed / 100, "{}", kind.name());
            assert!(
                w.ops.windows(2).all(|p| p[0].frame.ts <= p[1].frame.ts),
                "{} ops out of order",
                kind.name()
            );
            assert!(w.truth.windows(2).all(|p| p[0].time <= p[1].time));
            assert!(w.ops.iter().all(|op| op.node < w.nodes));
        }
        // A base shorter than the target loops: the second lap repeats the
        // first lap's bytes one whole-second shift later, truth included.
        let base = home_base(42);
        let lap_len = base.streams[0].len();
        let base_truth = base.truth.len();
        let first_symptom = base.truth.iter().map(|s| s.time).min().unwrap();
        let (ops, truth) = loop_to(base, lap_len * 2);
        let shift = ops[lap_len].frame.ts.as_micros() - ops[0].frame.ts.as_micros();
        assert_eq!(shift % 1_000_000, 0, "lap shift is whole seconds");
        assert!(
            ops[lap_len - 1].frame.ts < ops[lap_len].frame.ts,
            "strict at the seam"
        );
        for i in 0..lap_len {
            assert_eq!(ops[i].frame.raw, ops[lap_len + i].frame.raw);
            assert_eq!(
                ops[i].frame.ts.as_micros() + shift,
                ops[lap_len + i].frame.ts.as_micros()
            );
        }
        assert_eq!(truth.len(), base_truth * 2);
        assert!(truth
            .iter()
            .any(|s| s.time.as_micros() == first_symptom.as_micros() + shift));
    }

    #[test]
    fn same_seed_same_inputs() {
        let a = Workload::build(Kind::IdentitySpray, 7, 100);
        let b = Workload::build(Kind::IdentitySpray, 7, 100);
        assert_eq!(a.ops.len(), b.ops.len());
        assert!(a
            .ops
            .iter()
            .zip(&b.ops)
            .all(|(x, y)| x.frame.ts == y.frame.ts && x.frame.raw == y.frame.raw));
    }
}
