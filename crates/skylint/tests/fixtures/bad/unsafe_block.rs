//! Bad fixture: a crate root that holds an `unsafe` block and does not
//! carry the `forbid(unsafe_code)` crate attribute. With it the compiler rejects
//! the block; without it `api-hygiene` rejects the crate root.

#![warn(missing_docs)]

/// Reads a byte through a raw pointer.
pub fn deref(p: *const u8) -> u8 {
    // SAFETY: none — the caller's pointer is trusted blindly.
    unsafe { *p }
}
