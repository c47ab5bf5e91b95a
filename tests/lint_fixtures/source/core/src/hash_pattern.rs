// expect: KL305 @ 14:5
//! Golden fixture: a std hash map reached through a struct pattern that
//! binds it under another name is flagged where that name is walked; a
//! lookup through the same binding is not.

use std::collections::HashMap;

pub struct Fixture {
    counts: HashMap<u16, u64>,
}

pub fn total(fixture: &Fixture) -> u64 {
    let Fixture { counts: tally } = fixture;
    tally.values().sum()
}

pub fn first(fixture: &Fixture) -> u64 {
    let Fixture { counts: ref tally } = *fixture;
    tally.get(&1).copied().unwrap_or(0)
}
