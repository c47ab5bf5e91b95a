//! The typed store against the string store it replaced
//! ([`super::reference`]): random operation sequences over a small key
//! space, with entities past the budget, must leave both telling the same
//! story through every public reader, in the same order.

use std::collections::BTreeSet;
use std::fmt::Debug;

use kalis_packets::Entity;
use proptest::prelude::*;

use super::reference::KnowledgeBase as StringStore;
use super::KnowledgeBase;
use crate::id::KalisId;
use crate::knowledge::{KnowKey, KnowValue, Knowgget, KnowggetOrigin};

/// Labels that decode cleanly, a family with members, and ones the flat
/// encoding reads differently from how they were written (`a@b` decodes
/// as label `a` about entity `b`; the empty label does not decode).
const LABELS: [&str; 9] = [
    "Multihop",
    "SignalStrength",
    "TrafficFrequency",
    "TrafficFrequency.TCPSYN",
    "TrafficFrequency.UDP",
    "a",
    "a@b",
    "x$y",
    "",
];

/// More entities than any budget the steps set, one that collides with
/// the `a@b` label, and the empty one (whose key does not decode).
const ENTITIES: [&str; 12] = [
    "E0", "E1", "E2", "E3", "E4", "E5", "E6", "E7", "E8", "10.0.0.3", "b", "",
];

/// The local node first; `K1!` sorts after `K1` as a name and before it
/// as a key prefix (`!` < `$`).
const NODES: [&str; 4] = ["K1", "K2", "K10", "K1!"];

const WRITERS: [&str; 3] = ["", "TopologyDiscoveryModule", "WormholeModule"];

fn values() -> Vec<KnowValue> {
    let text = |s: &str| KnowValue::Text(s.to_owned());
    vec![
        KnowValue::Bool(true),
        KnowValue::Bool(false),
        KnowValue::Int(8),
        KnowValue::Int(1000),
        KnowValue::Int(0),
        KnowValue::Float(-67.0),
        KnowValue::Float(0.037),
        KnowValue::Float(1.5),
        KnowValue::Float(1000.0),
        KnowValue::Float(-0.0),
        KnowValue::Float(f64::NAN),
        KnowValue::Float(f64::INFINITY),
        KnowValue::Float(1e15),
        KnowValue::Float(123_456_789_012_345_680.0),
        KnowValue::Float(1e19),
        text("true"),
        text("8"),
        text("-0"),
        text("1e3"),
        text("1.5"),
        text("1.50"),
        text("inf"),
        text("NaN"),
        text("nan"),
        text("RPL"),
        text("0x001e,0x001f"),
        text(""),
    ]
}

#[derive(Debug, Clone)]
enum Step {
    Insert {
        label: usize,
        entity: Option<usize>,
        collective: bool,
        value: usize,
    },
    Remove {
        label: usize,
        entity: Option<usize>,
    },
    /// Accepted when `sender == creator` and neither is the local node.
    AcceptRemote {
        sender: usize,
        creator: usize,
        label: usize,
        entity: Option<usize>,
        value: usize,
        origin: Option<(usize, u64)>,
    },
    SetEntityBudget(usize),
    SetWriter(usize),
    SetTrace(u64, u32),
    DrainDirty,
}

fn step() -> impl Strategy<Value = Step> {
    let label = || 0..LABELS.len();
    let entity = || proptest::option::of(0..ENTITIES.len());
    let value = || 0..values().len();
    prop_oneof![
        (label(), entity(), any::<bool>(), value()).prop_map(
            |(label, entity, collective, value)| Step::Insert {
                label,
                entity,
                collective,
                value
            }
        ),
        // Entity-scoped writes twice as often: they drive the budget.
        (label(), 0..ENTITIES.len(), any::<bool>(), value()).prop_map(
            |(label, entity, collective, value)| Step::Insert {
                label,
                entity: Some(entity),
                collective,
                value
            }
        ),
        (label(), entity()).prop_map(|(label, entity)| Step::Remove { label, entity }),
        (
            1..NODES.len(),
            0..NODES.len(),
            label(),
            entity(),
            value(),
            proptest::option::of((0..WRITERS.len(), 0u64..3))
        )
            .prop_map(|(sender, other, label, entity, value, origin)| {
                // Three frames in four are honest.
                let creator = if other == 0 { 0 } else { sender };
                Step::AcceptRemote {
                    sender,
                    creator,
                    label,
                    entity,
                    value,
                    origin,
                }
            }),
        (1usize..8).prop_map(Step::SetEntityBudget),
        (0..WRITERS.len()).prop_map(Step::SetWriter),
        (0u64..3, 0u32..3).prop_map(|(trace, span)| Step::SetTrace(trace, span)),
        (0u8..1).prop_map(|_| Step::DrainDirty),
    ]
}

/// Equal as `Debug` prints them: unlike `==`, a NaN equals itself.
fn same<T: Debug>(typed: T, string: T, what: &str, step: &Step) {
    assert_eq!(
        format!("{typed:?}"),
        format!("{string:?}"),
        "{what} after {step:?}"
    );
}

/// Run `$call` on both stores and require the same answer.
macro_rules! both {
    ($typed:ident, $string:ident, $step:expr, $what:expr, |$kb:ident| $call:expr) => {{
        let typed = {
            let $kb = &mut *$typed;
            $call
        };
        let string = {
            let $kb = &mut *$string;
            $call
        };
        same(typed, string, $what, $step);
    }};
}

fn entity_of(index: Option<usize>) -> Option<Entity> {
    index.map(|i| Entity::new(ENTITIES[i]))
}

fn apply(typed: &mut KnowledgeBase, string: &mut StringStore, step: &Step) {
    let values = values();
    match step {
        Step::Insert {
            label,
            entity,
            collective,
            value,
        } => {
            let (label, value) = (LABELS[*label], values[*value].clone());
            match (entity_of(*entity), collective) {
                (None, false) => {
                    both!(typed, string, step, "insert", |kb| kb
                        .insert(label, value.clone()))
                }
                (None, true) => {
                    both!(typed, string, step, "insert_collective", |kb| kb
                        .insert_collective(label, value.clone()))
                }
                (Some(entity), false) => {
                    both!(typed, string, step, "insert_about", |kb| kb.insert_about(
                        label,
                        entity.clone(),
                        value.clone()
                    ))
                }
                (Some(entity), true) => {
                    both!(typed, string, step, "insert_about_collective", |kb| kb
                        .insert_about_collective(label, entity.clone(), value.clone()))
                }
            }
        }
        Step::Remove { label, entity } => match entity_of(*entity) {
            None => both!(typed, string, step, "remove", |kb| kb
                .remove(LABELS[*label])),
            Some(entity) => both!(typed, string, step, "remove_about", |kb| kb
                .remove_about(LABELS[*label], &entity)),
        },
        Step::AcceptRemote {
            sender,
            creator,
            label,
            entity,
            value,
            origin,
        } => {
            let knowgget = Knowgget {
                label: LABELS[*label].to_owned(),
                value: values[*value].clone(),
                creator: KalisId::new(NODES[*creator]),
                entity: entity_of(*entity),
                origin: origin.map(|(module, trace_id)| KnowggetOrigin {
                    module: WRITERS[module].into(),
                    trace_id,
                    span_id: 1,
                }),
            };
            let sender = KalisId::new(NODES[*sender]);
            both!(typed, string, step, "accept_remote", |kb| kb
                .accept_remote(&sender, knowgget.clone()));
        }
        Step::SetEntityBudget(budget) => {
            typed.set_entity_budget(*budget);
            string.set_entity_budget(*budget);
        }
        Step::SetWriter(writer) => {
            typed.set_writer(WRITERS[*writer]);
            string.set_writer(WRITERS[*writer]);
        }
        Step::SetTrace(trace_id, span_id) => {
            typed.set_trace(*trace_id, *span_id);
            string.set_trace(*trace_id, *span_id);
        }
        Step::DrainDirty => both!(typed, string, step, "drain_dirty_collective", |kb| kb
            .drain_dirty_collective()),
    }
}

/// Every reader of both stores, side by side.
fn compare(
    typed: &mut KnowledgeBase,
    string: &mut StringStore,
    written: &BTreeSet<(usize, usize, Option<usize>)>,
    step: &Step,
) {
    both!(typed, string, step, "has_changes", |kb| kb.has_changes());
    both!(typed, string, step, "drain_changes", |kb| kb
        .drain_changes());
    both!(typed, string, step, "revision", |kb| kb.revision());
    both!(typed, string, step, "len", |kb| (kb.len(), kb.is_empty()));
    both!(typed, string, step, "state_bytes", |kb| kb.state_bytes());
    both!(typed, string, step, "entity index", |kb| (
        kb.entity_budget(),
        kb.entity_occupancy(),
        kb.entity_evictions()
    ));
    both!(typed, string, step, "iter", |kb| kb
        .iter()
        .collect::<Vec<_>>());
    both!(typed, string, step, "collective_knowggets", |kb| kb
        .collective_knowggets());
    for label in LABELS {
        both!(typed, string, step, "get_all_creators", |kb| kb
            .get_all_creators(label));
        both!(typed, string, step, "sublabels", |kb| kb.sublabels(label));
        both!(typed, string, step, "entities_with", |kb| kb
            .entities_with(label));
        both!(typed, string, step, "typed getters", |kb| (
            kb.get_bool(label),
            kb.get_int(label),
            kb.get_f64(label),
            kb.get_text(label)
        ));
    }
    for &(creator, label, entity) in written {
        let key = KnowKey {
            creator: KalisId::new(NODES[creator]),
            label: LABELS[label].to_owned(),
            entity: entity_of(entity),
        };
        both!(typed, string, step, "origin_of", |kb| kb
            .origin_of(&key)
            .cloned());
        both!(typed, string, step, "origin_of_encoded", |kb| kb
            .origin_of_encoded(&key.encode())
            .cloned());
        if creator == 0 {
            match &key.entity {
                None => both!(typed, string, step, "get", |kb| kb.get(&key.label)),
                Some(entity) => both!(typed, string, step, "get_about", |kb| kb
                    .get_about(&key.label, entity)),
            }
        }
    }
}

proptest! {
    #[test]
    fn typed_store_tells_the_string_stores_story(
        budget in 1usize..6,
        steps in proptest::collection::vec(step(), 1..160),
    ) {
        let local = KalisId::new(NODES[0]);
        let (mut typed, mut string) = (KnowledgeBase::new(local.clone()), StringStore::new(local));
        typed.set_entity_budget(budget);
        string.set_entity_budget(budget);
        let mut written = BTreeSet::new();
        for step in &steps {
            apply(&mut typed, &mut string, step);
            match *step {
                Step::Insert { label, entity, .. } => {
                    written.insert((0, label, entity));
                }
                Step::AcceptRemote { creator, label, entity, .. } => {
                    written.insert((creator, label, entity));
                }
                _ => {}
            }
            compare(&mut typed, &mut string, &written, step);
        }
    }
}
