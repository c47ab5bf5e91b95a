// expect: KL305 @ 14:10
//! Golden fixture: a walk of a std hash map that rustfmt split across
//! lines — the map ending one line, `.keys()` opening the next — is
//! flagged like a walk on one line; a lookup split the same way is not.

use std::collections::HashMap;

pub struct Fixture {
    counts: HashMap<String, u64>,
}

pub fn names(fixture: &Fixture) -> Vec<String> {
    fixture
        .counts
        .keys()
        .cloned()
        .collect()
}

pub fn seen(fixture: &Fixture) -> u64 {
    fixture
        .counts
        .get("seen")
        .copied()
        .unwrap_or(0)
}
