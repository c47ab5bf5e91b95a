//! Activation by subscription against what it replaced: two nodes fed
//! the same sequence, one re-evaluating only the slots its Knowledge
//! Base marked pending, the other — the reference, which exists in test
//! builds only — draining the whole change list after every dispatch,
//! spelling the trigger text from it and asking every module whether it
//! is required.

use std::sync::atomic::{AtomicBool, Ordering};

use proptest::prelude::*;

use super::*;
use crate::knowledge::{ChangeEvent, Knowgget, SyncMessage};
use crate::modules::{Module, ModuleDescriptor, BACKOFF_BASE};
use crate::sensing::labels;
use crate::taxonomy::Feature;
use kalis_packets::{Entity, MacAddr, Medium, ShortAddr};

/// The reference's trigger text: the batch's first three changed keys
/// and how many more changed.
pub(super) fn describe_trigger(changes: &[ChangeEvent]) -> String {
    let mut parts: Vec<String> = changes
        .iter()
        .take(3)
        .map(|c| {
            if c.removed {
                format!("-{}", c.key.encode())
            } else {
                c.key.encode()
            }
        })
        .collect();
    if changes.len() > 3 {
        parts.push(format!("+{} more", changes.len() - 3));
    }
    parts.join(",")
}

/// The reference's pass: every change published, every slot evaluated.
pub(super) fn reconfigure_on_changes(node: &mut Kalis, now: Timestamp) {
    let changes = node.kb.drain_changes();
    let trigger = describe_trigger(&changes);
    for change in changes {
        node.bus.publish(KalisEvent::KnowledgeChanged {
            key: change.key,
            value: change.value,
            removed: change.removed,
            trace_id: change.trace_id,
        });
    }
    let (activated, deactivated) =
        (node.manager).reconfigure_traced(&node.kb, &trigger, now.as_micros());
    if activated + deactivated > 0 {
        node.bus.publish(KalisEvent::ModulesReconfigured {
            time: now,
            activated,
            deactivated,
        });
    }
}

/// A detection module required wherever one of the features it needs
/// holds.
struct Gated {
    name: &'static str,
    needs: &'static [Feature],
}

impl Module for Gated {
    fn descriptor(&self) -> ModuleDescriptor {
        ModuleDescriptor::detection(self.name, AttackKind::Anomaly).needs(self.needs)
    }
    fn on_packet(&mut self, _ctx: &mut ModuleCtx<'_>, _packet: &CapturedPacket) {}
}

/// An embedder's detection module that declares no need, and is
/// required while a label nothing declares holds.
struct Wildcard;

impl Module for Wildcard {
    fn descriptor(&self) -> ModuleDescriptor {
        ModuleDescriptor::detection("Wildcard", AttackKind::Anomaly)
    }
    fn required(&self, kb: &KnowledgeBase) -> bool {
        kb.get_bool(UNDECLARED) == Some(true)
    }
    fn on_packet(&mut self, _ctx: &mut ModuleCtx<'_>, _packet: &CapturedPacket) {}
}

/// Required on a multi-hop network; alerts on every third packet and
/// panics on every packet while `rage` is up.
struct Crashy {
    packets: u64,
    rage: Arc<AtomicBool>,
}

impl Module for Crashy {
    fn descriptor(&self) -> ModuleDescriptor {
        ModuleDescriptor::detection("Crashy", AttackKind::Anomaly).needs(&[Feature::MultiHop])
    }
    fn on_packet(&mut self, ctx: &mut ModuleCtx<'_>, _packet: &CapturedPacket) {
        self.packets += 1;
        if self.packets % 3 == 0 {
            ctx.raise(Alert::new(ctx.now, AttackKind::Anomaly, "Crashy"));
        }
        if self.rage.load(Ordering::Relaxed) {
            panic!("Crashy (activation differential)");
        }
    }
    fn reset(&mut self) {
        self.packets = 0;
    }
}

/// Keep the panics this test provokes off stderr.
fn quiet_panics() {
    static QUIET: std::sync::Once = std::sync::Once::new();
    QUIET.call_once(|| {
        let prev = std::panic::take_hook();
        std::panic::set_hook(Box::new(move |info| {
            let provoked = (info.payload().downcast_ref::<&str>())
                .is_some_and(|message| message.contains("Crashy"));
            if !provoked {
                prev(info);
            }
        }));
    });
}

/// A label nobody's contract declares: only a slot subscribed to
/// everything hears of it.
const UNDECLARED: &str = "Undeclared";

/// The six labels the default library's activation reads, members of
/// the two families beside them, a family root (not a member), and
/// labels no activation reads.
const LABELS: [&str; 13] = [
    labels::MULTIHOP,
    labels::MOBILE,
    labels::PROTOCOL_SEEN_IP,
    labels::PROTOCOL_SEEN_SIXLOWPAN,
    labels::MEDIUM_SEEN_WIFI,
    labels::MEDIUM_SEEN_802154,
    labels::PROTOCOL_SEEN_CTP,
    labels::MEDIUM_SEEN_BLE,
    labels::PROTOCOL_SEEN,
    UNDECLARED,
    "TrafficFrequency.TCPSYN",
    labels::SIGNAL_STRENGTH,
    "Irrelevant",
];

fn value(pick: u8) -> KnowValue {
    match pick % 4 {
        0 => KnowValue::Bool(true),
        1 => KnowValue::Bool(false),
        2 => KnowValue::Text("true".to_owned()),
        _ => KnowValue::Int(1),
    }
}

fn entity(pick: u8) -> Entity {
    Entity::new(format!("E{}", pick % 6))
}

fn packet(kind: u8, at: Timestamp) -> CapturedPacket {
    let seq = (at.as_micros() / 100_000) as u8;
    let (medium, raw) = match kind % 3 {
        // Forwarded CTP data: multi-hop evidence.
        0 => {
            let (relay, root, leaf) = (ShortAddr(2), ShortAddr(1), ShortAddr(3));
            let raw = kalis_netsim::craft::ctp_data(relay, root, seq, leaf, seq, 1, b"r");
            (Medium::Ieee802154, raw)
        }
        1 => {
            let (from, to) = (ShortAddr(5), ShortAddr(6));
            let raw = kalis_netsim::craft::zigbee_data(from, to, seq, from, to, seq, b"on");
            (Medium::Ieee802154, raw)
        }
        _ => {
            let ping = kalis_netsim::craft::ipv4_echo_request(
                std::net::Ipv4Addr::new(10, 0, 0, 7),
                std::net::Ipv4Addr::new(10, 0, 0, 1),
                1,
                u16::from(seq),
            );
            let (from, to) = (MacAddr::from_index(7), MacAddr::from_index(1));
            let raw = kalis_netsim::craft::wifi_ipv4(from, to, to, u16::from(seq), &ping);
            (Medium::Wifi, raw)
        }
    };
    CapturedPacket::capture(at, medium, Some(-50.0), "t", raw)
}

/// One node of the pair: the default library, a pinned module, a
/// module subscribed to everything, one switched by two features of one
/// label, one that crash-loops on demand — over a Knowledge Base of
/// three entities at most, so entity writes purge.
fn node(reference: bool, rage: &Arc<AtomicBool>) -> Kalis {
    let gated = |name, needs| Box::new(Gated { name, needs });
    let mut builder = Kalis::builder(KalisId::new("K1"))
        .with_config(
            "knowggets = { KB.PerEntityBudget = 3, Supervisor.PanicLimit = 2 }"
                .parse()
                .expect("parses"),
        )
        .with_default_modules()
        .with_module(gated("PinnedGated", &[Feature::Mobile]), true)
        .with_module(Box::new(Wildcard), false)
        .with_module(
            gated("MobilityKnown", &[Feature::Mobile, Feature::Static]),
            false,
        )
        .with_module(
            Box::new(Crashy {
                packets: 0,
                rage: Arc::clone(rage),
            }),
            false,
        );
    builder.reference = reference;
    builder.build()
}

/// One step of the sequence, applied to both nodes alike.
fn apply(
    node: &mut Kalis,
    (op, label, entity_no, pick): (u8, u8, u8, u8),
    at: Timestamp,
    rage: &AtomicBool,
    listener: &mut Option<std::sync::mpsc::Receiver<KalisEvent>>,
) {
    let label = LABELS[usize::from(label) % LABELS.len()];
    let peer = KalisId::new("K2");
    let batch_open = node.kb.has_changes() || node.kb.batch_recorded();
    match op % 12 {
        // Knowledge written behind the node's back: it joins the
        // batch the next dispatch closes.
        0 | 1 => drop(node.knowledge_mut().insert(label, value(pick))),
        2 => drop(
            node.knowledge_mut()
                .insert_about(label, entity(entity_no), value(pick)),
        ),
        3 => drop(node.knowledge_mut().remove(label)),
        4 => drop(node.knowledge_mut().remove_about(label, &entity(entity_no))),
        5 => {
            let remote = Knowgget::new(label, value(pick), peer.clone());
            node.knowledge_mut()
                .accept_remote(&peer, remote)
                .expect("K2's own");
        }
        // The four ways a batch closes.
        6 | 7 => node.ingest(packet(pick, at)),
        8 => node.tick(at),
        9 => node.insert_knowledge(label, value(pick)),
        10 => {
            let about = Knowgget::about(label, value(pick), peer.clone(), entity(entity_no));
            let plain = Knowgget::new(label, value(pick.wrapping_add(1)), peer.clone());
            node.accept_sync(SyncMessage::new(peer, vec![about, plain]))
                .expect("K2's own");
        }
        // Crashy's mood; and, once, someone starts listening — between
        // batches: a change recorded before `subscribe()` is not owed
        // to the subscriber, though the reference, which builds every
        // event, would publish it if its batch were still open.
        _ if pick % 4 == 0 && listener.is_none() && !batch_open => {
            *listener = Some(node.subscribe());
        }
        _ => rage.store(pick % 2 == 0, Ordering::Relaxed),
    }
}

/// Everything about `node` the two sides must agree on.
fn observe(
    node: &Kalis,
    listener: &Option<std::sync::mpsc::Receiver<KalisEvent>>,
) -> (String, Vec<KalisEvent>) {
    let heard = listener.iter().flat_map(|rx| rx.try_iter()).collect();
    let flips = [names::MODULES_ACTIVATED, names::MODULES_DEACTIVATED];
    let state = format!(
        "active {:?}\nstats {:?}\nquarantined {:?}\njournal {:#?}\nalerts {:?}\nknowledge {:?}",
        node.active_modules(),
        flips.map(|name| node.tele.counter(name).get()),
        node.quarantined_modules(),
        node.tele.journal().snapshot(),
        node.alerts(),
        node.kb.iter().collect::<Vec<_>>(),
    );
    (state, heard)
}

/// The clock's advance per step: three steps outlast the first
/// quarantine backoff, so a sequence that crashes `Crashy` into
/// quarantine early goes on to release it.
const STEP: Duration = Duration::from_millis(BACKOFF_BASE.as_millis() as u64 * 3 / 8);

proptest! {
    /// The invariant this test is the only oracle for: a module's
    /// activation at every instant, and the journal's account of how
    /// it got there, do not depend on *which* slots a pass evaluates
    /// as long as the subscription table names every slot a change
    /// could move.
    #[test]
    fn activation_by_subscription_tells_the_reference_story(
        steps in proptest::collection::vec(any::<(u8, u8, u8, u8)>(), 1..120),
    ) {
        quiet_panics();
        let rage = [Arc::new(AtomicBool::new(false)), Arc::new(AtomicBool::new(false))];
        let mut nodes = [node(false, &rage[0]), node(true, &rage[1])];
        let mut listeners = [None, None];
        prop_assert_eq!(observe(&nodes[0], &listeners[0]), observe(&nodes[1], &listeners[1]));
        for (index, step) in steps.into_iter().enumerate() {
            let at = Timestamp::ZERO + STEP * index as u32;
            for side in 0..2 {
                apply(&mut nodes[side], step, at, &rage[side], &mut listeners[side]);
            }
            let (subscribed, reference) =
                (observe(&nodes[0], &listeners[0]), observe(&nodes[1], &listeners[1]));
            prop_assert_eq!(subscribed.1, reference.1, "bus, step {} {:?}", index, step);
            prop_assert_eq!(subscribed.0, reference.0, "step {} {:?}", index, step);
        }
    }
}
