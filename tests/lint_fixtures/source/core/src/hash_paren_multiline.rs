// expect: KL305 @ 15:14
//! Golden fixture: a parenthesised receiver whose `(` opens on an
//! earlier line than the name it encloses is flagged like one on a
//! single line; a call's argument split the same way is not.

use std::collections::HashSet;

pub struct Fixture {
    members: HashSet<u16>,
}

pub fn listed(fixture: &Fixture) -> Vec<u16> {
    (
        &fixture
            .members
    )
        .iter()
        .copied()
        .collect()
}

pub fn counted(fixture: &Fixture) -> usize {
    count(
        &fixture.members,
    )
    .to_string()
    .len()
}

fn count(members: &HashSet<u16>) -> usize {
    members.len()
}
