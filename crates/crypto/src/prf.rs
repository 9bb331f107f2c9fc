//! The keyed pseudo-random function at the heart of RPoL's determinism.
//!
//! Two protocol components consume PRF output (§V-A, §V-B):
//!
//! 1. **Stochastic-yet-deterministic batch selection.** A worker with nonce
//!    `N_t^w` selects the `n`-th element of training step `m` as
//!    `PRF(N_t^w · m + n) mod |D_w|`. The manager can replay the exact same
//!    selection during verification.
//! 2. **AMLayer weight expansion.** The pool manager's blockchain address
//!    seeds a PRF stream that is expanded into the (non-trainable) weights
//!    of the address-encoded mapping layer, making the layer recomputable
//!    by every consensus node.
//!
//! The PRF is HMAC-SHA-256 in counter mode, which also provides an
//! arbitrary-length keystream (`fill_bytes`) and derived numeric streams.

use crate::hmac::hmac_sha256;
use serde::Serialize;

/// A keyed PRF based on HMAC-SHA-256.
///
/// # Examples
///
/// ```
/// use rpol_crypto::prf::{deterministic_batch, Prf};
///
/// let prf = Prf::from_nonce(7);
/// // Deterministic: the verifier recomputes the same indices.
/// let batch = deterministic_batch(&prf, 3, 8, 10_000);
/// assert_eq!(batch, deterministic_batch(&Prf::from_nonce(7), 3, 8, 10_000));
/// assert!(batch.iter().all(|&i| i < 10_000));
/// ```
#[derive(Debug, Clone, PartialEq, Eq, Serialize)]
pub struct Prf {
    key: Vec<u8>,
}

impl Prf {
    /// Creates a PRF keyed by `key`.
    pub fn new(key: &[u8]) -> Self {
        Self { key: key.to_vec() }
    }

    /// Creates a PRF keyed by a 64-bit nonce (the per-worker per-epoch
    /// nonce `N_t^w` from §V-B).
    pub fn from_nonce(nonce: u64) -> Self {
        Self::new(&nonce.to_be_bytes())
    }

    /// Evaluates the PRF on a 128-bit input, returning a 64-bit output.
    fn eval(&self, input: u128) -> u64 {
        hmac_sha256(&self.key, &input.to_be_bytes()).to_u64()
    }

    /// The paper's data-selection map: `PRF(input) mod modulus`.
    ///
    /// # Panics
    ///
    /// Panics if `modulus == 0`.
    fn index(&self, input: u128, modulus: u64) -> u64 {
        assert!(modulus > 0, "modulus must be positive");
        self.eval(input) % modulus
    }

    /// Fills `out` with keystream bytes for stream id `stream`
    /// (HMAC in counter mode).
    fn fill_bytes(&self, stream: u64, out: &mut [u8]) {
        let mut counter: u64 = 0;
        let mut offset = 0;
        while offset < out.len() {
            let mut msg = [0u8; 16];
            msg[..8].copy_from_slice(&stream.to_be_bytes());
            msg[8..].copy_from_slice(&counter.to_be_bytes());
            let block = hmac_sha256(&self.key, &msg);
            let take = (out.len() - offset).min(32);
            out[offset..offset + take].copy_from_slice(&block.as_bytes()[..take]);
            offset += take;
            counter += 1;
        }
    }

    /// Derives a 64-bit seed for stream id `stream`, suitable for seeding a
    /// [`rpol_tensor::rng::Pcg32`]-style generator.
    ///
    /// [`rpol_tensor::rng::Pcg32`]: https://docs.rs/rpol-tensor
    pub fn derive_seed(&self, stream: u64) -> u64 {
        let mut buf = [0u8; 8];
        self.fill_bytes(stream, &mut buf);
        u64::from_be_bytes(buf)
    }
}

/// Computes the §V-B batch for one training step.
///
/// Returns the dataset indices selected for step `m` (0-based) with batch
/// size `batch`, drawn from a sub-dataset of `len` elements:
/// `PRF(N · m + n) mod len` for `n` in `0..batch`. Duplicate indices are
/// possible, exactly as with sampling-with-replacement SGD.
///
/// # Panics
///
/// Panics if `len == 0` or `batch == 0`.
pub fn deterministic_batch(prf: &Prf, step: u64, batch: usize, len: u64) -> Vec<usize> {
    assert!(len > 0, "empty sub-dataset");
    assert!(batch > 0, "empty batch");
    (0..batch as u64)
        // `step + 1` keeps step 0 from degenerating to PRF(n) for every
        // nonce-free position; the multiplication mirrors Eq. PRF(N·m + n).
        .map(|n| prf.index(((step + 1) as u128) << 64 | n as u128, len) as usize)
        .collect()
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn deterministic_across_instances() {
        let a = Prf::new(b"seed");
        let b = Prf::new(b"seed");
        for i in 0..20u128 {
            assert_eq!(a.eval(i), b.eval(i));
        }
    }

    #[test]
    fn distinct_keys_distinct_streams() {
        let a = Prf::new(b"k1");
        let b = Prf::new(b"k2");
        let collisions = (0..100u128).filter(|&i| a.eval(i) == b.eval(i)).count();
        assert_eq!(collisions, 0);
    }

    #[test]
    fn index_in_range() {
        let prf = Prf::from_nonce(42);
        for i in 0..1000u128 {
            assert!(prf.index(i, 77) < 77);
        }
    }

    #[test]
    fn index_roughly_uniform() {
        let prf = Prf::from_nonce(7);
        let mut counts = [0usize; 10];
        for i in 0..50_000u128 {
            counts[prf.index(i, 10) as usize] += 1;
        }
        for &c in &counts {
            assert!((4_300..5_700).contains(&c), "skewed: {counts:?}");
        }
    }

    #[test]
    fn fill_bytes_extends_prefix() {
        let prf = Prf::new(b"stream");
        let mut a = [0u8; 100];
        let mut b = [0u8; 40];
        prf.fill_bytes(3, &mut a);
        prf.fill_bytes(3, &mut b);
        assert_eq!(&a[..40], &b[..]);
        let mut c = [0u8; 40];
        prf.fill_bytes(4, &mut c);
        assert_ne!(&b, &c);
    }

    #[test]
    fn batches_differ_across_steps() {
        let prf = Prf::from_nonce(99);
        let b0 = deterministic_batch(&prf, 0, 32, 10_000);
        let b1 = deterministic_batch(&prf, 1, 32, 10_000);
        assert_ne!(b0, b1);
        assert!(b0.iter().all(|&i| i < 10_000));
        // Replayable by the verifier.
        assert_eq!(b0, deterministic_batch(&Prf::from_nonce(99), 0, 32, 10_000));
    }

    #[test]
    fn batches_differ_across_nonces() {
        let b0 = deterministic_batch(&Prf::from_nonce(1), 0, 16, 1000);
        let b1 = deterministic_batch(&Prf::from_nonce(2), 0, 16, 1000);
        assert_ne!(b0, b1);
    }

    #[test]
    fn derived_seeds_differ_by_stream() {
        let prf = Prf::new(b"x");
        assert_ne!(prf.derive_seed(0), prf.derive_seed(1));
    }
}
