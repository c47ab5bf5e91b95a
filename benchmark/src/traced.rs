//! The traced repetition: the same replay with spans around every call
//! into a layer, the standalone legs, and the per-layer metrics derived
//! from both.

use std::time::Instant;

use kalis_core::modules::ModuleRegistry;
use kalis_telemetry::{metric_name, names};

use crate::alloc;
use crate::layers::{self, KnowledgeCosts};
use crate::metrics::Metric;
use crate::run::{cpu_ns_since, judge, setup, thread_cpu_ns, Cluster, Ready, Verdict};
use crate::stats::percentile;
use crate::trace::{self, layer_of, Recorder, SpanSummary};
use crate::workload::Kind;

/// Counters read from the nodes at both ends of the timed span.
#[derive(Clone, Copy)]
struct Counts {
    work_units: u64,
    shed_skips: u64,
    kb_gets: u64,
    kb_inserts: u64,
    kb_churn: u64,
    ticks: u64,
    evictions: u64,
}

impl Counts {
    fn read(cluster: &Cluster) -> Counts {
        let sum = |name: &str| cluster.total(|n| n.telemetry().counter(name).get());
        Counts {
            work_units: sum(names::WORK_UNITS),
            shed_skips: sum(names::SHED_SKIPS),
            kb_gets: sum(&metric_name(names::KB_OPS, &[("op", "get")])),
            kb_inserts: sum(&metric_name(names::KB_OPS, &[("op", "insert")])),
            kb_churn: sum(names::KB_CHURN),
            ticks: sum(names::TICKS),
            evictions: cluster.total(|n| {
                n.module_state().iter().map(|m| m.evictions).sum::<u64>()
                    + n.knowledge().entity_evictions()
            }),
        }
    }
}

/// Largest occupancy ÷ budget over every budgeted module and the KB's
/// entity index. A module sums up to `MAX_STRUCTURES_PER_MODULE`
/// individually capped maps into its occupancy.
fn max_occupancy_over_budget(cluster: &Cluster) -> f64 {
    cluster
        .nodes
        .iter()
        .flat_map(|n| {
            let kb = n.knowledge();
            n.module_state()
                .into_iter()
                .filter(|m| m.state_budget > 0)
                .map(|m| m.occupancy as f64 / m.state_budget as f64)
                .chain([kb.entity_occupancy() as f64 / kb.entity_budget() as f64])
                .collect::<Vec<_>>()
        })
        .fold(0.0, f64::max)
}

/// What the traced repetition produced.
pub struct Traced {
    pub metrics: Vec<Metric>,
    pub verdict: Verdict,
    pub timed_ops: usize,
    pub failed: u64,
    pub max_occupancy_over_budget: f64,
    pub recorder: Recorder,
}

/// Run the traced repetition of `kind`. `untraced_cpu_ns` is the
/// untraced `cpu_ns_per_packet` the tracing overhead is taken against.
pub fn traced_rep(kind: Kind, seed: u64, shrink: usize, untraced_cpu_ns: f64) -> Traced {
    trace::install();
    let Ready {
        workload,
        mut cluster,
        ..
    } = setup(kind, seed, shrink, true);
    let ops = &workload.ops[workload.warmup..];
    let tick_counters: Vec<_> = cluster
        .nodes
        .iter()
        .map(|n| n.telemetry().counter(names::TICKS))
        .collect();
    let ticks_now = || tick_counters.iter().map(|c| c.get()).sum::<u64>();
    let before = Counts::read(&cluster);
    let mut failed = 0u64;
    let mut decode_failed = 0u64;
    let mut active_sum = 0u64;
    // Latency by what the operation carried; a tick outranks an alert.
    let (mut tick_bearing, mut alert_bearing, mut plain) = (Vec::new(), Vec::new(), Vec::new());
    let allocs_before = alloc::counted();
    trace::set_recording(true);
    let cpu_start = thread_cpu_ns();
    let wall_start = Instant::now();
    for (seq, op) in ops.iter().enumerate() {
        let ticks = ticks_now();
        let alerts = cluster.nodes[op.node].alerts().len();
        trace::begin_op(seq as u64, op.node);
        alloc::count(true);
        let start = Instant::now();
        trace::enter(trace::OP);
        cluster.sync_due(op.frame.ts);
        let decode_start = Instant::now();
        let packet = op.frame.capture();
        trace::leaf(trace::DECODE, decode_start, Instant::now());
        decode_failed += u64::from(packet.decoded().is_none());
        trace::enter(trace::TRY_INGEST);
        failed += u64::from(cluster.nodes[op.node].try_ingest(packet).is_err());
        trace::exit(trace::TRY_INGEST);
        trace::exit(trace::OP);
        let ns = start.elapsed().as_nanos() as u64;
        alloc::count(false);
        let node = &cluster.nodes[op.node];
        if ticks_now() > ticks {
            tick_bearing.push(ns);
        } else if node.alerts().len() > alerts {
            alert_bearing.push(ns);
        } else {
            plain.push(ns);
        }
        active_sum += node.active_modules().len() as u64;
    }
    let cpu_ns = cpu_ns_since(cpu_start, wall_start.elapsed());
    let allocs = alloc::counted();
    let after = Counts::read(&cluster);
    cluster.flush(ops[ops.len() - 1].frame.ts);
    let verdict = judge(&workload, &cluster);
    let over_budget = max_occupancy_over_budget(&cluster);

    let window_len = layers::replay_legs(&workload);
    let node = &cluster.nodes[0];
    let knowledge = layers::knowledge_costs(node);
    let telemetry = layers::telemetry_costs(node);
    let all_alerts = cluster.alerts();
    let cef_ns = layers::cef_cost(&all_alerts);
    let stopwatch_ns = trace::leaf_overhead_ns();
    let recorder = trace::uninstall().expect("installed at the top");
    let spans = recorder.summaries();

    let n = ops.len() as f64;
    let class_p50 = |v: &mut Vec<u64>| {
        v.sort_unstable();
        if v.is_empty() {
            0.0
        } else {
            percentile(v, 0.50) as f64
        }
    };
    let snapshot = node.telemetry().snapshot();
    let sync_sum = |name: &str| cluster.total(|n| n.telemetry().counter(name).get()) as f64;
    let mut metrics = assemble(&spans, n, window_len, stopwatch_ns, &knowledge);
    let per_op = |d: u64| d as f64 / n;
    let exchanges = find(&spans, "sync_exchange")
        .map_or(0, |s| s.total.count)
        .max(1) as f64;
    metrics.extend([
        Metric::new("packets.decode_fail_share", "share", per_op(decode_failed)),
        Metric::new("modules.active_avg", "count", active_sum as f64 / n),
        Metric::new(
            "modules.work_units_per_packet",
            "1/pkt",
            per_op(after.work_units - before.work_units),
        ),
        Metric::new("modules.shed_share", "share", {
            let shed = (after.shed_skips - before.shed_skips) as f64;
            let work = (after.work_units - before.work_units) as f64;
            shed / (shed + work).max(1.0)
        }),
        Metric::new(
            "knowledge.gets_per_packet",
            "1/pkt",
            per_op(after.kb_gets - before.kb_gets),
        ),
        Metric::new(
            "knowledge.inserts_per_packet",
            "1/pkt",
            per_op(after.kb_inserts - before.kb_inserts),
        ),
        Metric::new(
            "knowledge.churn_per_packet",
            "1/pkt",
            per_op(after.kb_churn - before.kb_churn),
        ),
        Metric::new(
            "knowledge.entities",
            "count",
            cluster.total(|n| n.knowledge().entity_occupancy() as u64) as f64,
        ),
        Metric::new(
            "knowledge.entity_evictions",
            "count",
            cluster.total(|n| n.knowledge().entity_evictions()) as f64,
        ),
        Metric::new(
            "knowledge.sync_bytes_per_exchange",
            "bytes",
            sync_sum(names::SYNC_BYTES_OUT) / exchanges,
        ),
        Metric::new(
            "knowledge.sync_knowggets_per_exchange",
            "count",
            sync_sum(names::SYNC_KNOWGGETS_OUT) / exchanges,
        ),
        Metric::new(
            "knowledge.sync_rejected",
            "count",
            sync_sum(names::SYNC_REJECTED),
        ),
        Metric::new(
            "bounded.evictions_per_packet",
            "1/pkt",
            per_op(after.evictions - before.evictions),
        ),
        Metric::new("bounded.max_occupancy_over_budget", "ratio", over_budget),
        Metric::new("node.tick_bearing_ns", "ns", class_p50(&mut tick_bearing)),
        Metric::new("node.plain_packet_ns", "ns", class_p50(&mut plain)),
        Metric::new("node.alert_bearing_ns", "ns", class_p50(&mut alert_bearing)),
        Metric::new(
            "node.ticks_per_kpacket",
            "1/kpkt",
            per_op(after.ticks - before.ticks) * 1_000.0,
        ),
        Metric::new(
            "node.allocs_per_packet",
            "1/pkt",
            per_op(allocs.0 - allocs_before.0),
        ),
        Metric::new(
            "node.alloc_bytes_per_packet",
            "bytes",
            per_op(allocs.1 - allocs_before.1),
        ),
        Metric::new("alert.count", "count", verdict.alerts as f64),
        Metric::new("alert.detect_delay_ms", "ms", verdict.detect_delay_ms),
        Metric::new("siem.cef_format_ns", "ns", cef_ns),
        Metric::new(
            "response.revocations",
            "count",
            cluster.total(|n| n.response().history().len() as u64) as f64,
        ),
        Metric::new("telemetry.snapshot_ns", "ns", telemetry.0),
        Metric::new("telemetry.prometheus_export_ns", "ns", telemetry.1),
        Metric::new(
            "telemetry.instruments",
            "count",
            (snapshot.counters.len() + snapshot.gauges.len() + snapshot.histograms.len()) as f64,
        ),
        Metric::new(
            "telemetry.journal_events",
            "count",
            node.telemetry().journal().next_seq() as f64,
        ),
        Metric::new(
            "telemetry.journal_dropped",
            "count",
            node.telemetry().journal().dropped() as f64,
        ),
        Metric::new("netsim.generate_s", "s", workload.generate_s),
        Metric::new("bench.loop_s", "s", workload.loop_s),
        Metric::new(
            "trace_overhead_pct",
            "%",
            (cpu_ns as f64 / n / untraced_cpu_ns - 1.0) * 100.0,
        ),
    ]);
    Traced {
        metrics,
        verdict,
        timed_ops: ops.len(),
        failed,
        max_occupancy_over_budget: over_budget,
        recorder,
    }
}

fn find<'a>(spans: &'a [SpanSummary], name: &str) -> Option<&'a SpanSummary> {
    spans.iter().find(|s| s.name == name)
}

/// The metrics that come out of spans: per-layer times, and the
/// remainder of the operation no span or leg accounts for.
/// `stopwatch_ns` is what one child span costs its parent.
fn assemble(
    spans: &[SpanSummary],
    ops: f64,
    window_len: f64,
    stopwatch_ns: f64,
    kb: &KnowledgeCosts,
) -> Vec<Metric> {
    let sum = |name: &str| find(spans, name).map_or(0.0, |s| s.total.sum as f64);
    let count = |name: &str| find(spans, name).map_or(0.0, |s| s.total.count as f64);
    let mean = |name: &str| sum(name) / count(name).max(1.0);
    let adaptive = |what: &str| format!("{}{what}", layers::ADAPTIVE);
    let fed = count(&adaptive("dispatch")).max(1.0);

    let mut out = vec![
        Metric::new("packets.decode_ns", "ns", mean("decode")),
        Metric::new("store.push_ns", "ns", mean(layers::STORE_PUSH)),
        Metric::new(
            "store.state_bytes_ns",
            "ns",
            mean(layers::STORE_STATE_BYTES),
        ),
        Metric::new("store.window_len", "count", window_len),
    ];
    let mut module_ns = 0.0;
    let mut module_spans = 0.0;
    let mut leg_module_spans = 0.0;
    for (name, descriptor, _) in ModuleRegistry::with_defaults().contracts() {
        let layer = layer_of(descriptor.kind);
        let on_packet = format!("{layer}.{name}.on_packet");
        let on_tick = format!("{layer}.{name}.on_tick");
        module_ns += sum(&on_packet) + sum(&on_tick);
        module_spans += count(&on_packet) + count(&on_tick);
        leg_module_spans += count(&adaptive(&on_packet));
        // Per timed operation, so the module rows add up to their share
        // of a packet; a tick is rare, so its row is the cost of one.
        out.push(Metric::new(
            format!("{on_packet}_ns"),
            "ns",
            sum(&on_packet) / ops,
        ));
        out.push(Metric::new(format!("{on_tick}_ns"), "ns", mean(&on_tick)));
    }
    // Self time of the dispatch span, less the stopwatch of its children.
    let manager_self = (find(spans, &adaptive("dispatch")).map_or(0.0, |s| s.self_ns as f64)
        - leg_module_spans * stopwatch_ns)
        / fed;
    let reconfigure_per_packet = sum(&adaptive("reconfigure")) / fed;
    out.extend([
        Metric::new("modules.dispatch_ns", "ns", mean(&adaptive("dispatch"))),
        Metric::new("modules.manager_self_ns", "ns", manager_self),
        Metric::new(
            "modules.reconfigure_ns",
            "ns",
            mean(&adaptive("reconfigure")),
        ),
        Metric::new(
            "modules.reconfigures_per_kpacket",
            "1/kpkt",
            count(&adaptive("reconfigure")) / fed * 1_000.0,
        ),
        Metric::new("modules.tick_ns", "ns", mean(&adaptive("tick"))),
        Metric::new(
            "modules.overload_observe_ns",
            "ns",
            mean(&adaptive("overload_observe")),
        ),
        Metric::new(
            "modules.state_bytes_ns",
            "ns",
            mean(&adaptive("state_bytes")),
        ),
        Metric::new(
            "modules.allon_dispatch_ns",
            "ns",
            mean(&format!("{}dispatch", layers::ALL_ON)),
        ),
        Metric::new("knowledge.get_ns", "ns", kb.get_ns),
        Metric::new("knowledge.insert_ns", "ns", kb.insert_ns),
        Metric::new("knowledge.state_bytes_ns", "ns", kb.state_bytes_ns),
        Metric::new("knowledge.sync_exchange_ns", "ns", mean("sync_exchange")),
        Metric::new("node.tick_ns", "ns", mean("tick")),
    ]);
    let in_situ_children = module_spans
        + count("decode")
        + count("try_ingest")
        + count("tick")
        + count("sync_exchange");
    let explained = in_situ_children * stopwatch_ns / ops
        + mean("decode")
        + (module_ns + sum("sync_exchange")) / ops
        + manager_self
        + mean(&adaptive("overload_observe"))
        + reconfigure_per_packet
        + mean(layers::STORE_PUSH)
        + mean(layers::STORE_STATE_BYTES)
        + kb.state_bytes_ns
        + mean(&adaptive("state_bytes"));
    out.push(Metric::new(
        "node.residual_ns",
        "ns",
        mean("op") - explained,
    ));
    out
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::run::alert_digest;
    use crate::workload::Workload;

    /// Replay a whole workload through a fresh cluster; return what the
    /// nodes concluded.
    fn conclude(workload: &Workload, traced: bool) -> (u64, usize, Vec<String>) {
        if traced {
            trace::install();
        }
        let mut cluster = Cluster::new(workload.nodes, traced);
        for op in &workload.ops {
            cluster.sync_due(op.frame.ts);
            let _ = cluster.nodes[op.node].try_ingest(op.frame.capture());
        }
        cluster.flush(workload.ops[workload.ops.len() - 1].frame.ts);
        trace::uninstall();
        let alerts = cluster.alerts();
        let configs = cluster
            .nodes
            .iter()
            .map(|n| n.recommend_config().to_string())
            .collect();
        (alert_digest(&alerts), alerts.len(), configs)
    }

    /// The wrapper must be invisible to the node: same alerts, same
    /// derived configuration.
    #[test]
    fn timed_registry_is_transparent() {
        for kind in [Kind::HomeSteady, Kind::WsnPair] {
            let workload = Workload::build(kind, 42, 20);
            let plain = conclude(&workload, false);
            assert!(plain.1 > 0, "{} raises alerts at test size", kind.name());
            assert_eq!(plain, conclude(&workload, true), "{}", kind.name());
        }
    }
}
