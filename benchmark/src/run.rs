//! One repetition: set up a fresh node (or pair), warm it up, replay the
//! timed span, and judge what it produced.

use std::collections::hash_map::DefaultHasher;
use std::collections::BTreeMap;
use std::hash::{Hash, Hasher};
use std::time::{Duration, Instant};

use kalis_bench::runner::Detection;
use kalis_bench::scoring;
use kalis_core::knowledge::{PeerBeacon, PeerRegistry, SyncMessage, XorChannel};
use kalis_core::{Alert, AttackKind, Kalis, KalisId};
use kalis_packets::Timestamp;

use crate::stats::{median, percentile};
use crate::trace::{self, timed_registry};
use crate::workload::{Kind, Workload};

/// Knowledge-exchange cadence of the pair, on the virtual clock (the
/// `kalis_bench::runner::run_kalis_pair_nodes` deployment).
const SYNC_EVERY: Duration = Duration::from_millis(500);

/// The node, or the collaborating pair, under test.
pub struct Cluster {
    pub nodes: Vec<Kalis>,
    peers: Vec<PeerRegistry>,
    channel: XorChannel,
    next_sync: Timestamp,
}

impl Cluster {
    /// `count` fresh default-library nodes. `traced` builds them over
    /// the [`timed_registry`], which needs an installed recorder.
    pub fn new(count: usize, traced: bool) -> Cluster {
        let nodes: Vec<Kalis> = (0..count)
            .map(|i| {
                let mut builder = Kalis::builder(KalisId::new(format!("K{}", i + 1)));
                if traced {
                    builder = builder.with_registry(timed_registry(""));
                }
                builder.with_default_modules().build()
            })
            .collect();
        Cluster {
            peers: nodes
                .iter()
                .map(|n| PeerRegistry::new(n.id().clone()))
                .collect(),
            nodes,
            channel: XorChannel::new(0x006b_616c_6973),
            next_sync: Timestamp::ZERO + SYNC_EVERY,
        }
    }

    /// Run every beacon + exchange + tick round due before `ts`. A
    /// single node has no peer and takes its ticks from the packets.
    #[inline]
    pub fn sync_due(&mut self, ts: Timestamp) {
        while self.nodes.len() > 1 && ts >= self.next_sync {
            let now = self.next_sync;
            // Discovery through advertisement: knowledge flows only
            // between nodes that heard each other's beacon.
            let beacons: Vec<Vec<u8>> =
                self.peers.iter().map(|p| p.own_beacon().encode()).collect();
            for (i, peers) in self.peers.iter_mut().enumerate() {
                for (j, wire) in beacons.iter().enumerate() {
                    if i != j {
                        if let Some(beacon) = PeerBeacon::decode(wire) {
                            peers.observe(beacon, now);
                        }
                    }
                }
            }
            if self.peers.iter().all(|p| !p.peers(now).is_empty()) {
                self.exchange();
            }
            for node in &mut self.nodes {
                trace::scope(trace::TICK, || node.tick(now));
            }
            self.next_sync += SYNC_EVERY;
        }
    }

    /// `collective_outbox → seal → open → accept_sync`, each direction.
    fn exchange(&mut self) {
        trace::scope(trace::SYNC_EXCHANGE, || {
            for from in 0..self.nodes.len() {
                let Some(message) = self.nodes[from].collective_outbox() else {
                    continue;
                };
                let sealed = message.seal(&self.channel);
                for to in (0..self.nodes.len()).filter(|to| *to != from) {
                    if let Ok(opened) = SyncMessage::open(&sealed, &self.channel) {
                        // A rejection is counted by the node (`sync.rejected`).
                        let _ = self.nodes[to].accept_sync(opened);
                    }
                }
            }
        });
    }

    /// Final exchange and housekeeping tick so window-based detectors
    /// flush, as the repository's own runners do.
    pub fn flush(&mut self, last: Timestamp) {
        if self.nodes.len() > 1 {
            self.exchange();
        }
        for node in &mut self.nodes {
            trace::scope(trace::TICK, || node.tick(last + Duration::from_secs(2)));
        }
    }

    /// `f` summed over the nodes.
    pub fn total(&self, f: impl Fn(&Kalis) -> u64) -> u64 {
        self.nodes.iter().map(f).sum()
    }

    /// Every alert raised so far, node by node.
    pub fn alerts(&self) -> Vec<Alert> {
        self.nodes
            .iter()
            .flat_map(|n| n.alerts().iter().cloned())
            .collect()
    }
}

/// A workload, its warmed-up cluster, and what setting both up cost.
pub struct Ready {
    pub workload: Workload,
    pub cluster: Cluster,
    pub setup_s: f64,
}

/// Generate the workload from the seed, build the node(s), replay the
/// warm-up: everything a repetition does before its timed span.
pub fn setup(kind: Kind, seed: u64, shrink: usize, traced: bool) -> Ready {
    let start = Instant::now();
    let workload = Workload::build(kind, seed, shrink);
    let mut cluster = Cluster::new(workload.nodes, traced);
    for op in &workload.ops[..workload.warmup] {
        cluster.sync_due(op.frame.ts);
        // Overload is counted over the timed span only.
        let _ = cluster.nodes[op.node].try_ingest(op.frame.capture());
    }
    Ready {
        workload,
        cluster,
        setup_s: start.elapsed().as_secs_f64(),
    }
}

/// What the nodes produced, judged against the workload's truth log.
#[derive(Debug, Clone)]
pub struct Verdict {
    /// Hash of (time, attack, victim, suspects, module) over all alerts.
    pub digest: u64,
    pub alerts: usize,
    pub detection_rate: f64,
    /// Median virtual-time delay from a symptom to the first alert of
    /// its family at or after it, ms.
    pub detect_delay_ms: f64,
    pub peak_state_bytes: usize,
    /// Truth families that raised no alert at all.
    pub silent_families: Vec<&'static str>,
}

pub fn alert_digest(alerts: &[Alert]) -> u64 {
    let mut hasher = DefaultHasher::new();
    for a in alerts {
        a.time.as_micros().hash(&mut hasher);
        a.attack.label().hash(&mut hasher);
        a.victim.as_ref().map(|v| v.as_str()).hash(&mut hasher);
        for s in &a.suspects {
            s.as_str().hash(&mut hasher);
        }
        a.module.hash(&mut hasher);
    }
    hasher.finish()
}

pub fn judge(workload: &Workload, cluster: &Cluster) -> Verdict {
    let alerts = cluster.alerts();
    let detections: Vec<Detection> = alerts.iter().cloned().map(Detection::from).collect();
    let score = scoring::score(&workload.truth, &detections);
    // Alert times per family, sorted, so each symptom is one binary search.
    let mut alert_times: BTreeMap<AttackKind, Vec<Timestamp>> = BTreeMap::new();
    for a in &alerts {
        alert_times.entry(a.attack).or_default().push(a.time);
    }
    for times in alert_times.values_mut() {
        times.sort_unstable();
    }
    let mut delays: Vec<f64> = workload
        .truth
        .iter()
        .filter_map(|symptom| {
            let times = alert_times.get(&symptom.attack)?;
            let first = times.get(times.partition_point(|t| *t < symptom.time))?;
            Some(first.saturating_since(symptom.time).as_secs_f64() * 1_000.0)
        })
        .collect();
    if delays.is_empty() {
        delays.push(0.0);
    }
    Verdict {
        digest: alert_digest(&alerts),
        alerts: alerts.len(),
        detection_rate: score.detection_rate(),
        detect_delay_ms: median(&delays),
        peak_state_bytes: cluster.total(|n| n.meter().peak_state_bytes as u64) as usize,
        silent_families: workload
            .families
            .iter()
            .filter(|f| !alert_times.contains_key(f))
            .map(|f| f.label())
            .collect(),
    }
}

/// Nanoseconds this thread has spent on-CPU, by the scheduler's own
/// accounting (the BENCH_8 method): unlike a wall clock it is not
/// charged for a neighbour preempting the core. `None` where
/// `/proc/thread-self/schedstat` does not exist.
pub fn thread_cpu_ns() -> Option<u64> {
    std::fs::read_to_string("/proc/thread-self/schedstat")
        .ok()?
        .split_whitespace()
        .next()?
        .parse()
        .ok()
}

/// On-CPU ns since `start` was read, or `wall` where there is no
/// scheduler accounting: the loop is one busy thread, so they agree.
pub fn cpu_ns_since(start: Option<u64>, wall: Duration) -> u64 {
    match (start, thread_cpu_ns()) {
        (Some(a), Some(b)) => b - a,
        _ => wall.as_nanos() as u64,
    }
}

/// One untraced repetition's measurements.
#[derive(Debug, Clone)]
pub struct Rep {
    pub setup_s: f64,
    /// Offered rate of the timed span on the virtual clock, packets/s.
    pub virtual_pps: f64,
    pub timed_ops: usize,
    pub failed: u64,
    pub wall_s: f64,
    /// On-CPU time of the timed span (wall time where unavailable).
    pub cpu_ns: u64,
    /// Latency of each timed operation, in replay order.
    pub latencies: Vec<u64>,
    pub p50_ns: u64,
    pub p99_ns: u64,
    pub verdict: Verdict,
}

impl Rep {
    pub fn ingest_pps(&self) -> f64 {
        self.timed_ops as f64 / self.wall_s
    }

    pub fn cpu_ns_per_packet(&self) -> f64 {
        self.cpu_ns as f64 / self.timed_ops as f64
    }
}

/// One untraced repetition: the source of every end-to-end metric.
pub fn untraced_rep(kind: Kind, seed: u64, shrink: usize) -> Rep {
    let Ready {
        workload,
        mut cluster,
        setup_s,
    } = setup(kind, seed, shrink, false);
    let ops = &workload.ops[workload.warmup..];
    let mut latencies: Vec<u64> = Vec::with_capacity(ops.len());
    let mut failed = 0u64;
    let cpu_start = thread_cpu_ns();
    let start = Instant::now();
    let mut prev = start;
    for op in ops {
        cluster.sync_due(op.frame.ts);
        let packet = op.frame.capture();
        failed += u64::from(cluster.nodes[op.node].try_ingest(packet).is_err());
        let now = Instant::now();
        latencies.push(now.duration_since(prev).as_nanos() as u64);
        prev = now;
    }
    let wall = prev.duration_since(start);
    let cpu_ns = cpu_ns_since(cpu_start, wall);
    cluster.flush(ops[ops.len() - 1].frame.ts);
    let mut sorted = latencies.clone();
    sorted.sort_unstable();
    Rep {
        setup_s,
        virtual_pps: workload.virtual_pps(),
        timed_ops: ops.len(),
        failed,
        wall_s: wall.as_secs_f64(),
        cpu_ns,
        p50_ns: percentile(&sorted, 0.50),
        p99_ns: percentile(&sorted, 0.99),
        latencies,
        verdict: judge(&workload, &cluster),
    }
}
