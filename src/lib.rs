//! Workspace root of the Alphonse reproduction: the examples and the
//! cross-crate tests build against this package. Under `cargo test` the
//! Rust examples of README.md compile and run as doctests.

#[cfg(doctest)]
#[doc = include_str!("../README.md")]
pub struct ReadmeDoctests;
