// expect: KL305 @ 13:30
//! Golden fixture: a journal written in a std hash map's iteration
//! order differs from process to process and must be flagged; a sum
//! over the same map cannot leak the order, and its pragma says so.

use std::collections::HashMap;

pub struct Fixture {
    counts: HashMap<String, u64>,
}

pub fn journal(fixture: &Fixture, out: &mut Vec<String>) {
    for (key, n) in &fixture.counts {
        out.push(format!("{key}={n}"));
    }
}

pub fn total(fixture: &Fixture) -> u64 {
    // kalis-lint: allow(KL305): summed, so no order reaches the answer
    fixture.counts.values().sum()
}
