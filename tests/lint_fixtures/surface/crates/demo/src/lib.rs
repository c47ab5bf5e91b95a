// expect: KL306 @ 25:1
// expect: KL306 @ 37:5
//! Golden fixture for `KL306`, scanned as the workspace rooted two
//! directories up: a library crate whose `pub` items no other
//! compilation unit names are flagged.
//!
//! ```
//! assert_eq!(demo::shown_in_docs(), 3);
//! ```
//!
//! ```text
//! demo::only_in_prose();
//! ```

mod inner;

pub use inner::reexported;

/// Named by `tests/uses.rs`, its own crate's integration test.
pub fn tested() -> u32 {
    1
}

/// Named by nobody: flagged.
pub fn orphan() -> u32 {
    2
}

/// Named only by the doc-test above, which compiles as its own crate.
pub fn shown_in_docs() -> u32 {
    3
}

/// Named only in a `text` block, which rustdoc does not compile: flagged.
pub struct Holder {
    pub(crate) scoped: u32,
    pub only_in_prose: u32,
}

// kalis-lint: allow(KL306): README documents it as API
pub const KEPT: u32 = 4;

#[cfg(test)]
mod tests {
    pub fn test_helper() -> u32 {
        super::orphan()
    }
}
