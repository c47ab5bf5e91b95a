//! Chaos integration test for the fault-tolerant collective sync
//! (paper §V under adversity): two Kalis nodes exchange collective
//! knowledge over a link with 30% seeded frame loss, corruption, and a
//! 10-second hard partition. The run must converge after the partition
//! heals, pass through degraded local-only mode (visible in the journal),
//! and shrug off replayed frames without duplicating alerts.
//!
//! Everything runs on the virtual capture clock — there are no wall-clock
//! sleeps anywhere, so the test is deterministic and fast.

use kalis_bench::experiments::run_sync_resilience;
use kalis_telemetry::JournalEvent;

/// Seeds under test: `KALIS_CHAOS_SEED` (the CI chaos matrix) or the
/// goldens' seed and CI's trio.
fn seeds() -> Vec<u64> {
    match std::env::var("KALIS_CHAOS_SEED") {
        Ok(s) => vec![s.trim().parse().expect("KALIS_CHAOS_SEED must be a u64")],
        Err(_) => vec![42, 7, 21, 1042],
    }
}

/// The chaos is only a test of sync if knowledge rides the faulty wire:
/// each node ships collective knowggets a peer reads, and the loss
/// forces at least one of them to go again.
#[test]
fn both_nodes_ship_knowledge_through_the_faults() {
    for seed in seeds() {
        let result = run_sync_resilience(seed, 0.3, 0.1);
        for (node, sent) in ["K1", "K2"].iter().zip(result.knowggets_out) {
            assert!(sent > 0, "seed {seed}: {node} shipped no knowgget");
        }
        assert!(
            result.retransmits >= 1,
            "seed {seed}: nothing was retransmitted"
        );
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
        assert!(
            result.retransmits > 0,
            "seed {seed}: 30% loss must force retransmissions"
        );
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
        assert!(
            replay.duplicates_dropped > 0,
            "seed {seed}: no replayed frame ever reached dedup"
        );
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
