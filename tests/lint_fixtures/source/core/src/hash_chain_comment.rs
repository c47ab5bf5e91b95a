// expect: KL305 @ 16:10
// expect: KL305 @ 24:13
//! Golden fixture: a walk of a std hash map is flagged when a comment
//! breaks its chain — one trailing the map's line, or one on a line of
//! its own between the map and `.keys()` / `.values()`; a lookup broken
//! the same way is not.

use std::collections::HashMap;

pub struct Fixture {
    counts: HashMap<String, u64>,
}

pub fn names(fixture: &Fixture) -> Vec<String> {
    fixture
        .counts // one name per counted key
        .keys()
        .cloned()
        .collect()
}

pub fn largest(fixture: &Fixture) -> Option<u64> {
    let counts = &fixture.counts;
    fixture.counts
        // the largest wins, whichever comes first
        .values()
        .copied()
        .max()
        .filter(|_| !counts.is_empty())
}

pub fn seen(fixture: &Fixture) -> u64 {
    fixture
        .counts /* by name */
        .get("seen")
        .copied()
        .unwrap_or(0)
}
