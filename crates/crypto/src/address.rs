//! Blockchain addresses for consensus nodes.
//!
//! Consensus nodes (individual miners and pool managers) are identified by
//! their blockchain address (§III-A). Following common practice, an address
//! here is the trailing 20 bytes of the SHA-256 of the node's public key
//! material. The address is the seed of the AMLayer weight expansion
//! (§V-A), so it must be canonical and deterministic.

use crate::sha256::sha256;
use serde::Serialize;
use std::fmt;

/// A 20-byte blockchain address.
///
/// # Examples
///
/// ```
/// use rpol_crypto::Address;
///
/// let addr = Address::derive(b"node-public-key");
/// assert_eq!(addr, Address::derive(b"node-public-key"));
/// assert_ne!(addr, Address::derive(b"other-key"));
/// ```
#[derive(Clone, Copy, PartialEq, Eq, Hash, PartialOrd, Ord, Serialize)]
pub struct Address(pub [u8; 20]);

impl Address {
    /// Derives an address from public key material.
    pub fn derive(public_key: &[u8]) -> Self {
        let digest = sha256(public_key);
        let mut out = [0u8; 20];
        out.copy_from_slice(&digest.as_bytes()[12..32]);
        Self(out)
    }

    /// Generates a pseudo-random address from a numeric seed; used by tests
    /// and by the address-replacing attack, which swaps in layers encoding
    /// arbitrary other addresses (§VII-B).
    pub fn from_seed(seed: u64) -> Self {
        Self::derive(&seed.to_be_bytes())
    }

    /// The raw address bytes.
    pub fn as_bytes(&self) -> &[u8; 20] {
        &self.0
    }

    /// Lower-case hex encoding (40 characters).
    pub fn to_hex(&self) -> String {
        let mut s = String::with_capacity(40);
        for b in self.0 {
            s.push(char::from_digit((b >> 4) as u32, 16).expect("nibble"));
            s.push(char::from_digit((b & 0xf) as u32, 16).expect("nibble"));
        }
        s
    }
}

impl fmt::Debug for Address {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        write!(f, "Address({}..)", &self.to_hex()[..8])
    }
}

impl fmt::Display for Address {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        f.write_str(&self.to_hex())
    }
}

impl AsRef<[u8]> for Address {
    fn as_ref(&self) -> &[u8] {
        &self.0
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn derivation_is_deterministic() {
        assert_eq!(Address::derive(b"pk"), Address::derive(b"pk"));
    }

    #[test]
    fn distinct_keys_distinct_addresses() {
        let a = Address::derive(b"pk-1");
        let b = Address::derive(b"pk-2");
        assert_ne!(a, b);
    }

    #[test]
    fn hex_roundtrip_length() {
        let a = Address::from_seed(12345);
        assert_eq!(a.to_hex().len(), 40);
        assert_eq!(format!("{a}"), a.to_hex());
    }

    #[test]
    fn seeded_addresses_distinct() {
        let set: std::collections::HashSet<_> = (0..100).map(Address::from_seed).collect();
        assert_eq!(set.len(), 100);
    }
}
