//! An integration test: its own compilation unit.

#[test]
fn tested_is_one() {
    assert_eq!(demo::tested(), 1);
    let _: Option<demo::Holder> = None;
}
