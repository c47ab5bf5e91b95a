// expect: KL305 @ 14:14
// expect: KL305 @ 18:19
//! Golden fixture: a walk of a std hash set through a parenthesised
//! receiver — `(fixture.members).iter()`, `(&mut fixture.members)` — is
//! flagged like the bare walk; a call's argument is not the receiver.

use std::collections::HashSet;

pub struct Fixture {
    members: HashSet<u16>,
}

pub fn listed(fixture: &Fixture) -> Vec<u16> {
    (fixture.members).iter().copied().collect()
}

pub fn emptied(fixture: &mut Fixture) -> Vec<u16> {
    (&mut fixture.members).drain().collect()
}

pub fn sized(fixture: &Fixture) -> usize {
    let n = (fixture.members).len();
    n + count(&fixture.members).to_string().len()
}

fn count(members: &HashSet<u16>) -> usize {
    members.len()
}
