//! From-scratch cryptographic substrate for the RPoL reproduction.
//!
//! RPoL's protocol relies on a handful of standard primitives, all of which
//! are implemented here with no external dependencies so the whole chain of
//! trust is auditable inside the workspace:
//!
//! * [`mod@sha256`] — FIPS 180-4 SHA-256, the base hash for everything below,
//! * [`sha256x8`] — the multi-way batch hasher (runtime-dispatched AVX2
//!   lanes) digesting up to 8 messages per compression pass,
//! * [`mod@bytes`] — the canonical zero-copy `f32` ↔ little-endian byte
//!   framing shared by checkpoint hashing and the wire encoders,
//! * [`hmac`] — HMAC-SHA-256,
//! * [`prf`] — the keyed pseudo-random function used for
//!   stochastic-yet-deterministic batch selection (§V-B) and for expanding
//!   a blockchain address into AMLayer weights (§V-A),
//! * [`merkle`] — Merkle hash trees (the committee batch's root),
//! * [`address`] — blockchain addresses identifying consensus nodes.
//!
//! # Examples
//!
//! ```
//! use rpol_crypto::sha256::sha256;
//! use rpol_crypto::address::Address;
//!
//! let digest = sha256(b"proof of learning");
//! assert_eq!(digest.as_bytes().len(), 32);
//! let addr = Address::derive(b"pool-manager-pubkey");
//! assert_eq!(addr.to_hex().len(), 40);
//! ```

pub mod address;
pub mod bytes;
pub mod hmac;
pub mod merkle;
pub mod prf;
pub mod sha256;
pub mod sha256x8;

pub use address::Address;
pub use merkle::MerkleTree;
pub use prf::Prf;
pub use sha256::{sha256, Digest};
pub use sha256x8::{sha256_batch, sha256_bf16_batch, sha256_f32_batch};
