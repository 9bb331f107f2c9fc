//! Offline API-subset stand-in for `serde` (see `compat/README.md`).
//!
//! Implements the serialization half of serde's data model — the
//! [`Serialize`]/[`Serializer`] traits plus impls for the std types this
//! workspace serializes. Nothing in the workspace deserializes: the JSON
//! crate serializes, or parses into its own `Value`.

pub mod ser;

pub use ser::{Serialize, Serializer};

#[cfg(feature = "derive")]
pub use serde_derive::Serialize;
