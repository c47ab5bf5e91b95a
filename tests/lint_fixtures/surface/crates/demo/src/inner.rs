// expect: KL306 @ 4:1
//! A `pub use` re-export does not count as a use of the name.

pub fn reexported() -> u32 {
    5
}
