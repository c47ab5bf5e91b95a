//! Chaos integration test for the fault-tolerant collective sync
//! (paper §V under adversity): two Kalis nodes exchange collective
//! knowledge over a link with 30% seeded frame loss, corruption, and a
//! 10-second hard partition. The run must converge after the partition
//! heals, pass through degraded local-only mode (visible in the journal),
//! and shrug off replayed frames without duplicating alerts.
//!
//! Everything runs on the virtual capture clock — there are no wall-clock
//! sleeps anywhere, so the test is deterministic and fast.

use std::time::Duration;

use kalis_bench::experiments::{
    degraded_transitions, resilience_node, run_sync_resilience, wormhole_evidence,
    SyncResilienceResult,
};
use kalis_bench::runner::{run_nodes, Link};
use kalis_core::{AttackKind, Kalis, Knowgget, PeerHealth};
use kalis_netsim::fault::{FaultPlan, FaultWindow, LinkFaults};
use kalis_packets::{CapturedPacket, Timestamp};
use kalis_telemetry::{names, JournalEvent};

/// Seeds under test: `KALIS_CHAOS_SEED` (the CI chaos matrix) or the
/// goldens' seed, CI's trio, and two seeds whose faults spare every
/// knowledge frame the first time (59) or duplicate none (176).
fn seeds() -> Vec<u64> {
    match std::env::var("KALIS_CHAOS_SEED") {
        Ok(s) => vec![s.trim().parse().expect("KALIS_CHAOS_SEED must be a u64")],
        Err(_) => vec![42, 7, 21, 1042, 59, 176],
    }
}

/// Whether the run lost a knowledge frame: some node sent more frames
/// than reached its peer intact, accepted or dropped by dedup. A lost
/// frame is sent again until it is acked or its peer is declared Dead.
fn lost_a_frame(result: &SyncResilienceResult) -> bool {
    let [sent_1, sent_2] = result.frames_sent;
    let [accepted_1, accepted_2] = result.frames_accepted;
    let [duplicates_1, duplicates_2] = result.duplicates_dropped;
    sent_1 > accepted_2 + duplicates_2 || sent_2 > accepted_1 + duplicates_1
}

/// Every frame that reached a node twice was dropped by dedup, not
/// applied again: no node accepted more frames than its peer sent.
fn assert_no_frame_applied_twice(seed: u64, result: &SyncResilienceResult) {
    let [sent_1, sent_2] = result.frames_sent;
    let [accepted_1, accepted_2] = result.frames_accepted;
    assert!(
        accepted_2 <= sent_1 && accepted_1 <= sent_2,
        "seed {seed}: sent {:?}, accepted {:?}",
        result.frames_sent,
        result.frames_accepted
    );
}

/// The chaos is only a test of sync if knowledge rides the faulty wire:
/// each node ships collective knowggets a peer reads, and a frame the
/// faults lost goes again.
#[test]
fn both_nodes_ship_knowledge_through_the_faults() {
    for seed in seeds() {
        let result = run_sync_resilience(seed, 0.3, 0.1);
        for (node, sent) in ["K1", "K2"].iter().zip(result.knowggets_out) {
            assert!(sent > 0, "seed {seed}: {node} shipped no knowgget");
        }
        if lost_a_frame(&result) {
            assert!(
                result.retransmits >= 1,
                "seed {seed}: a frame was lost and nothing was retransmitted"
            );
        }
        assert_no_frame_applied_twice(seed, &result);
    }
}

#[test]
fn knowledge_converges_after_partition_heals() {
    for seed in seeds() {
        let result = run_sync_resilience(seed, 0.3, 0.1);
        assert!(
            result.converged,
            "seed {seed}: collective knowledge diverged after the heal"
        );
        if lost_a_frame(&result) {
            assert!(
                result.retransmits > 0,
                "seed {seed}: a frame was lost and nothing was retransmitted"
            );
        }
        assert!(
            result.faults_dropped > 0,
            "seed {seed}: the fault plan never dropped a frame"
        );
    }
}

#[test]
fn degraded_mode_is_entered_and_exited_visibly() {
    for seed in seeds() {
        let result = run_sync_resilience(seed, 0.3, 0.1);
        assert!(
            result.degraded_entered >= 1,
            "seed {seed}: the 10s partition (ttl 3s) must enter degraded mode"
        );
        assert!(
            result.degraded_exited >= 1,
            "seed {seed}: recovery after the heal must exit degraded mode"
        );
        // The journal tells the story in order: degraded mode is entered
        // before it is exited.
        let first_entered = result
            .journal
            .records
            .iter()
            .position(|r| matches!(r.event, JournalEvent::DegradedEntered { .. }))
            .expect("degraded_entered journal event");
        let first_exited = result
            .journal
            .records
            .iter()
            .position(|r| matches!(r.event, JournalEvent::DegradedExited { .. }))
            .expect("degraded_exited journal event");
        assert!(
            first_entered < first_exited,
            "seed {seed}: degraded_entered must precede degraded_exited"
        );
        // Health decay is journaled too (Healthy -> Suspect -> Dead).
        assert!(
            result
                .journal
                .records
                .iter()
                .any(|r| matches!(r.event, JournalEvent::PeerHealthChanged { .. })),
            "seed {seed}: peer health transitions must be journaled"
        );
    }
}

#[test]
fn replayed_frames_do_not_duplicate_alerts() {
    for seed in seeds() {
        // Fault dimensions draw independent decision streams, so the
        // replay run and the control run see bit-identical loss and
        // corruption: any alert-count difference is caused by replays.
        let replay = run_sync_resilience(seed, 0.3, 0.5);
        let control = run_sync_resilience(seed, 0.3, 0.0);
        assert_no_frame_applied_twice(seed, &replay);
        assert!(
            replay.wormhole_alerts >= 1,
            "seed {seed}: the collaborative verdict never fired"
        );
        assert_eq!(
            replay.wormhole_alerts, control.wormhole_alerts,
            "seed {seed}: replayed sync frames changed the alert count"
        );
    }
}

#[test]
fn wormhole_provenance_survives_chaos() {
    for seed in seeds() {
        // Heavy loss + replays: dropped frames must not corrupt the
        // evidence chain and duplicated frames must not duplicate or
        // rewrite it.
        let result = run_sync_resilience(seed, 0.3, 0.5);
        assert_eq!(
            result.wormhole_provenance.len(),
            result.wormhole_alerts,
            "seed {seed}: every wormhole alert carries exactly one provenance record"
        );
        for provenance in &result.wormhole_provenance {
            let nodes = provenance.nodes();
            assert!(
                nodes.contains(&"K1".to_owned()) && nodes.contains(&"K2".to_owned()),
                "seed {seed}: wormhole provenance must span both nodes (got {nodes:?})"
            );
            let remote: Vec<_> = provenance.remote_evidence().collect();
            assert!(
                !remote.is_empty(),
                "seed {seed}: the collaborative verdict rests on remote evidence"
            );
            let raising = &provenance.trace.node;
            for evidence in &remote {
                assert_ne!(
                    &evidence.origin.node, raising,
                    "seed {seed}: remote evidence must name the other node"
                );
                assert_ne!(
                    evidence.origin.trace_id, 0,
                    "seed {seed}: remote evidence must carry the originating trace id"
                );
            }
        }
    }
}

/// Four nodes on one faulty wire, with the pair's loss, corruption,
/// reorder and replay. The scripted wormhole evidence feeds K1 and K4;
/// K2 and K3 hear nothing and only relay knowledge. A partition splits
/// {K1, K2} from {K3, K4} during [20 s, 30 s): each node loses the two
/// peers across it, and re-syncs with them once the partition heals. A
/// node enters degraded mode only if loss also silences the peer beside
/// it for two TTLs (about one seed in fifty), and then leaves it again.
/// By the end every node holds every collective knowgget any node
/// authored and counts all three peers healthy, the verdict has fired,
/// and no bounded outbound queue dropped anything.
#[test]
fn four_nodes_resync_across_a_partial_partition() {
    for seed in seeds() {
        let plan = FaultPlan::new(seed)
            .with_faults(LinkFaults {
                drop: 0.3,
                duplicate: 0.1,
                corrupt: 0.05,
                reorder: 0.1,
                delay: Duration::ZERO,
            })
            .with_window(FaultWindow::new(Timestamp::ZERO, Timestamp::from_secs(45)))
            .with_partition(
                vec![vec![0, 1], vec![2, 3]],
                FaultWindow::new(Timestamp::from_secs(20), Timestamp::from_secs(30)),
            );
        let mut nodes = ["K1", "K2", "K3", "K4"].map(|id| resilience_node(id, ", Multihop = true"));
        let [first, last] = wormhole_evidence();
        let taps: [&[CapturedPacket]; 4] = [&first, &[], &[], &last];
        let mut link = Link {
            until: Timestamp::from_secs(90),
            ..Link::new(plan)
        };
        run_nodes(&mut nodes, &taps, &mut link);
        let authored: Vec<Knowgget> = (nodes.iter())
            .flat_map(|node| {
                (node.knowledge().collective_knowggets().into_iter())
                    .filter(|k| k.creator == *node.id())
            })
            .collect();
        assert!(
            !authored.is_empty(),
            "seed {seed}: nobody authored knowledge"
        );
        let mut retransmits = 0;
        for node in &nodes {
            let id = node.id();
            let held: Vec<Knowgget> = node.knowledge().iter().collect();
            for k in &authored {
                let got = (held.iter()).any(|h| h.key() == k.key() && h.value == k.value);
                assert!(got, "seed {seed}: {id} never got {}", k.key().encode());
            }
            let snapshot = node.telemetry().snapshot();
            let records = &snapshot.journal.records;
            let (entered, exited) = degraded_transitions(records);
            assert_eq!(entered, exited, "seed {seed}: {id} stayed degraded");
            assert!(!node.degraded(), "seed {seed}: {id}");
            let lost = (records.iter()).any(
                |r| matches!(&r.event, JournalEvent::PeerHealthChanged { to, .. } if to == "dead"),
            );
            assert!(lost, "seed {seed}: {id} never saw the partition");
            for peer in (nodes.iter().map(Kalis::id)).filter(|peer| *peer != id) {
                let health = node.peer_health(peer);
                assert_eq!(
                    health.ok(),
                    Some(PeerHealth::Healthy),
                    "seed {seed}: {id} {peer}"
                );
            }
            assert_eq!(
                snapshot.counter(names::SYNC_QUEUE_DROPPED),
                0,
                "seed {seed}: {id} overflowed a queue"
            );
            retransmits += snapshot.counter(names::SYNC_RETRANSMITS);
        }
        assert!(retransmits > 0, "seed {seed}: nothing was retransmitted");
        assert!(
            (nodes.iter().flat_map(|node| node.alerts())).any(|a| a.attack == AttackKind::Wormhole),
            "seed {seed}: the collaborative verdict never fired"
        );
    }
}
