//! Microbenchmarks for the bounded-state primitives a sprayed identity
//! goes through, each at its cap: `BoundedMap`'s touch of a held key and
//! its insert of a new one (which evicts the least recently used), and
//! `SlidingCounter::count` with the exact buffer full — at the default
//! `entity_budget` and at four times it, because what an operator raises
//! to resist a spray must not be what a packet pays for. Beside them, the
//! touch of a map holding five keys and the count of a counter whose
//! full buffer holds five: what the workloads that spray nothing pay for
//! the same structures.

use std::net::Ipv4Addr;
use std::time::Duration;

use criterion::{black_box, criterion_group, criterion_main, Criterion};
use kalis_core::bounded::{BoundedMap, DEFAULT_ENTITY_BUDGET};
use kalis_core::detection::SlidingCounter;
use kalis_packets::{Entity, Timestamp};

/// Sprayed address `i`, scrambled as the state-exhaustion attacker
/// scrambles its counter: new keys land all over the key space.
fn sprayed(i: u32) -> Entity {
    Entity::from(Ipv4Addr::from(
        0x6400_0000 | i.wrapping_mul(0x9e37_79b1) & 0x00ff_ffff,
    ))
}

fn full_map(budget: usize) -> BoundedMap<Entity, f64> {
    let mut map = BoundedMap::new(budget);
    for i in 0..budget as u32 {
        map.insert(sprayed(i), -60.0);
    }
    map
}

fn bench_bounded(c: &mut Criterion) {
    let mut group = c.benchmark_group("bounded");
    group.bench_function("bounded_map_touch", |b| {
        let mut map = full_map(DEFAULT_ENTITY_BUDGET);
        let keys: Vec<Entity> = (0..DEFAULT_ENTITY_BUDGET as u32).map(sprayed).collect();
        let mut next = 0;
        b.iter(|| {
            // A stride coprime to the budget: every key in turn, never
            // the one touched last.
            next = (next + 389) % keys.len();
            black_box(map.get_mut(&keys[next]).map(|rssi| *rssi -= 0.5))
        });
    });
    group.bench_function("bounded_map_touch_small", |b| {
        // What most maps hold off a spray: a handful of keys (a flood's
        // one victim and its few transmitters) under the default budget.
        let keys: Vec<Entity> = (0..5).map(sprayed).collect();
        let mut map = BoundedMap::new(DEFAULT_ENTITY_BUDGET);
        for key in &keys {
            map.insert(key.clone(), -60.0);
        }
        let mut next = 0;
        b.iter(|| {
            next = (next + 2) % keys.len();
            black_box(map.get_mut(&keys[next]).map(|rssi| *rssi -= 0.5))
        });
    });
    group.bench_function("bounded_map_insert_at_cap", |b| {
        let mut map = full_map(DEFAULT_ENTITY_BUDGET);
        let mut next = DEFAULT_ENTITY_BUDGET as u32;
        b.iter(|| {
            next += 1;
            black_box(map.insert(sprayed(next), -60.0))
        });
        assert_eq!(map.len(), DEFAULT_ENTITY_BUDGET);
    });
    for budget in [DEFAULT_ENTITY_BUDGET, 4 * DEFAULT_ENTITY_BUDGET] {
        let name = format!("sliding_counter_count_at_cap/{budget}");
        group.bench_function(&name, |b| {
            // One event per identity, a millisecond apart, in a window
            // none of them leaves: the buffer stays at `budget` events
            // and every push spills the oldest.
            let mut counter = SlidingCounter::bounded(Duration::from_secs(3_600), budget);
            let mut next = 0u32;
            let mut push = |counter: &mut SlidingCounter<Entity>| {
                next += 1;
                let (now, victim) = (Timestamp::from_millis(u64::from(next)), sprayed(next));
                counter.push(now, victim.clone());
                (now, victim)
            };
            for _ in 0..2 * budget {
                push(&mut counter);
            }
            assert_eq!(counter.len(), budget);
            b.iter(|| {
                // What a flood detector does per packet: count the
                // destination it just recorded.
                let (now, victim) = push(&mut counter);
                black_box(counter.count(&victim, now))
            });
        });
    }
    group.bench_function("sliding_counter_count_few", |b| {
        // A flood's shape: five victims in turn, the buffer at the
        // default budget, every push spilling the oldest event.
        let victims: Vec<Entity> = (0..5).map(sprayed).collect();
        let mut counter =
            SlidingCounter::bounded(Duration::from_secs(3_600), DEFAULT_ENTITY_BUDGET);
        let mut next = 0usize;
        let mut push = |counter: &mut SlidingCounter<Entity>| {
            next += 1;
            let now = Timestamp::from_millis(next as u64);
            let victim = &victims[next % victims.len()];
            counter.push(now, victim.clone());
            (now, victim)
        };
        for _ in 0..2 * DEFAULT_ENTITY_BUDGET {
            push(&mut counter);
        }
        assert_eq!(counter.len(), DEFAULT_ENTITY_BUDGET);
        b.iter(|| {
            let (now, victim) = push(&mut counter);
            black_box(counter.count(victim, now))
        });
    });
    group.finish();
}

criterion_group!(benches, bench_bounded);
criterion_main!(benches);
