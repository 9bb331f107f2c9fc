//! Smart-contract fair exchange between the pool manager and workers.
//!
//! The paper's future work proposes "smart contracts to achieve fair
//! exchange between the manager and workers inside the mining pool": the
//! manager cannot stiff verified workers, and workers cannot claim pay
//! without verified submissions. This module implements that contract as
//! an explicit state machine:
//!
//! 1. the manager **funds** the escrow with the expected block reward and
//!    registers the participating workers;
//! 2. each epoch the manager posts **attestations** — per-worker verified
//!    flags bound to the epoch's commitment digests (so a later audit can
//!    tie pay to the on-chain commitments);
//! 3. once the round closes the contract **settles**, splitting the funds
//!    proportionally to attested contributions;
//! 4. if the manager disappears, workers can **reclaim** after the round's
//!    deadline: funds split equally among registered workers, so a
//!    malicious manager's only power is to burn its own deposit's surplus.

use rpol_crypto::sha256::Digest;
use rpol_crypto::Address;
use serde::Serialize;
use std::collections::BTreeMap;

/// Contract lifecycle states.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Serialize)]
pub enum EscrowState {
    /// Funded and accepting attestations.
    Active,
    /// Settled by the manager; payouts fixed.
    Settled,
    /// Deadline passed without settlement; workers reclaimed.
    Reclaimed,
}

/// Errors raised by contract calls.
#[derive(Debug, Clone, PartialEq, Eq, Serialize)]
pub enum EscrowError {
    /// The caller is not a registered party.
    UnknownWorker(Address),
    /// The contract is not in the state the call requires.
    WrongState,
    /// Attestation for this (epoch, worker) already posted.
    DuplicateAttestation,
    /// The deadline has not yet passed.
    DeadlineNotReached,
}

impl std::fmt::Display for EscrowError {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        match self {
            EscrowError::UnknownWorker(a) => write!(f, "unknown worker {a}"),
            EscrowError::WrongState => f.write_str("contract in wrong state"),
            EscrowError::DuplicateAttestation => f.write_str("attestation already posted"),
            EscrowError::DeadlineNotReached => f.write_str("deadline not reached"),
        }
    }
}

impl std::error::Error for EscrowError {}

/// One epoch's verification attestation for one worker.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Serialize)]
struct Attestation {
    /// The epoch attested.
    pub epoch: u64,
    /// Whether the worker's submission verified.
    pub verified: bool,
    /// Digest of the worker's epoch commitment, binding pay to proofs.
    pub commitment: Digest,
}

/// The fair-exchange escrow contract.
///
/// # Examples
///
/// ```
/// use rpol_chain::escrow::Escrow;
/// use rpol_crypto::{sha256::sha256, Address};
///
/// let manager = Address::from_seed(1);
/// let workers = vec![Address::from_seed(2), Address::from_seed(3)];
/// let mut escrow = Escrow::fund(manager, workers.clone(), 10.0, 100);
/// escrow.attest(workers[0], 0, true, sha256(b"c0")).unwrap();
/// escrow.attest(workers[1], 0, false, sha256(b"c1")).unwrap();
/// let payout = escrow.settle().unwrap();
/// assert_eq!(payout, vec![(workers[0], 10.0)]);
/// ```
#[derive(Debug, Clone, PartialEq, Serialize)]
pub struct Escrow {
    manager: Address,
    state: EscrowState,
    balance: f64,
    deadline_height: u64,
    /// Attestations per worker, keyed by epoch.
    attestations: BTreeMap<Address, BTreeMap<u64, Attestation>>,
}

impl Escrow {
    /// Funds the contract and registers the worker set.
    ///
    /// # Panics
    ///
    /// Panics if `workers` is empty or `amount` is not positive-finite.
    pub fn fund(
        manager: Address,
        workers: Vec<Address>,
        amount: f64,
        deadline_height: u64,
    ) -> Self {
        assert!(!workers.is_empty(), "escrow needs registered workers");
        assert!(amount.is_finite() && amount > 0.0, "invalid escrow amount");
        Self {
            manager,
            state: EscrowState::Active,
            balance: amount,
            deadline_height,
            attestations: workers.into_iter().map(|w| (w, BTreeMap::new())).collect(),
        }
    }

    /// The contract state.
    pub fn state(&self) -> EscrowState {
        self.state
    }

    /// The funding manager.
    pub fn manager(&self) -> &Address {
        &self.manager
    }

    /// Posts a per-epoch verification attestation for `worker`.
    ///
    /// # Errors
    ///
    /// Fails when the contract is not active, the worker is unknown, or
    /// the (worker, epoch) pair was already attested — attestations are
    /// immutable once posted, which is what prevents the manager from
    /// retroactively un-verifying work.
    pub fn attest(
        &mut self,
        worker: Address,
        epoch: u64,
        verified: bool,
        commitment: Digest,
    ) -> Result<(), EscrowError> {
        if self.state != EscrowState::Active {
            return Err(EscrowError::WrongState);
        }
        let slots = self
            .attestations
            .get_mut(&worker)
            .ok_or(EscrowError::UnknownWorker(worker))?;
        if slots.contains_key(&epoch) {
            return Err(EscrowError::DuplicateAttestation);
        }
        slots.insert(
            epoch,
            Attestation {
                epoch,
                verified,
                commitment,
            },
        );
        Ok(())
    }

    /// Verified-epoch count for `worker`.
    fn verified_epochs(&self, worker: &Address) -> u64 {
        self.attestations
            .get(worker)
            .map(|slots| slots.values().filter(|a| a.verified).count() as u64)
            .unwrap_or(0)
    }

    /// Settles the contract: splits the balance proportionally to
    /// verified-epoch counts. Workers with zero verified epochs receive
    /// nothing; with no verified work at all the full balance refunds to
    /// the manager.
    ///
    /// # Errors
    ///
    /// Fails when the contract is not active.
    pub fn settle(&mut self) -> Result<Vec<(Address, f64)>, EscrowError> {
        if self.state != EscrowState::Active {
            return Err(EscrowError::WrongState);
        }
        self.state = EscrowState::Settled;
        let total: u64 = self
            .attestations
            .keys()
            .copied()
            .collect::<Vec<_>>()
            .iter()
            .map(|w| self.verified_epochs(w))
            .sum();
        let balance = self.balance;
        self.balance = 0.0;
        if total == 0 {
            return Ok(vec![(self.manager, balance)]);
        }
        Ok(self
            .attestations
            .keys()
            .copied()
            .collect::<Vec<_>>()
            .into_iter()
            .filter_map(|w| {
                let credits = self.verified_epochs(&w);
                (credits > 0).then(|| (w, balance * credits as f64 / total as f64))
            })
            .collect())
    }

    /// Worker-side escape hatch: after `current_height` passes the
    /// deadline with the contract still active, the balance splits equally
    /// among all registered workers.
    ///
    /// # Errors
    ///
    /// Fails before the deadline or when the contract is not active.
    pub fn reclaim(&mut self, current_height: u64) -> Result<Vec<(Address, f64)>, EscrowError> {
        if self.state != EscrowState::Active {
            return Err(EscrowError::WrongState);
        }
        if current_height < self.deadline_height {
            return Err(EscrowError::DeadlineNotReached);
        }
        self.state = EscrowState::Reclaimed;
        let balance = self.balance;
        self.balance = 0.0;
        let n = self.attestations.len() as f64;
        Ok(self
            .attestations
            .keys()
            .map(|w| (*w, balance / n))
            .collect())
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use rpol_crypto::sha256::sha256;

    fn setup() -> (Escrow, Vec<Address>) {
        let manager = Address::from_seed(0);
        let workers: Vec<Address> = (1..=3).map(Address::from_seed).collect();
        (Escrow::fund(manager, workers.clone(), 9.0, 50), workers)
    }

    #[test]
    fn proportional_settlement() {
        let (mut escrow, w) = setup();
        // w0 verified twice, w1 once, w2 never.
        escrow.attest(w[0], 0, true, sha256(b"a")).unwrap();
        escrow.attest(w[0], 1, true, sha256(b"b")).unwrap();
        escrow.attest(w[1], 0, true, sha256(b"c")).unwrap();
        escrow.attest(w[2], 0, false, sha256(b"d")).unwrap();
        let payout = escrow.settle().expect("settles");
        assert_eq!(payout.len(), 2);
        let get = |a: &Address| payout.iter().find(|(x, _)| x == a).map(|(_, v)| *v);
        assert_eq!(get(&w[0]), Some(6.0));
        assert_eq!(get(&w[1]), Some(3.0));
        assert_eq!(get(&w[2]), None);
        assert_eq!(escrow.state(), EscrowState::Settled);
        assert_eq!(escrow.balance, 0.0);
    }

    #[test]
    fn no_verified_work_refunds_manager() {
        let (mut escrow, w) = setup();
        escrow.attest(w[0], 0, false, sha256(b"x")).unwrap();
        let payout = escrow.settle().expect("settles");
        assert_eq!(payout, vec![(*escrow.manager(), 9.0)]);
    }

    #[test]
    fn attestations_are_immutable() {
        let (mut escrow, w) = setup();
        escrow.attest(w[0], 0, true, sha256(b"a")).unwrap();
        // The manager cannot retroactively flip verified → unverified.
        assert_eq!(
            escrow.attest(w[0], 0, false, sha256(b"a")),
            Err(EscrowError::DuplicateAttestation)
        );
        assert_eq!(escrow.verified_epochs(&w[0]), 1);
    }

    #[test]
    fn unknown_worker_rejected() {
        let (mut escrow, _) = setup();
        let stranger = Address::from_seed(99);
        assert_eq!(
            escrow.attest(stranger, 0, true, sha256(b"s")),
            Err(EscrowError::UnknownWorker(stranger))
        );
    }

    #[test]
    fn reclaim_after_deadline_splits_equally() {
        let (mut escrow, w) = setup();
        assert_eq!(escrow.reclaim(49), Err(EscrowError::DeadlineNotReached));
        let payout = escrow.reclaim(50).expect("reclaims");
        assert_eq!(payout.len(), 3);
        for (addr, v) in &payout {
            assert!((v - 3.0).abs() < 1e-9);
            assert!(w.contains(addr));
        }
        assert_eq!(escrow.state(), EscrowState::Reclaimed);
        // No double spend.
        assert_eq!(escrow.settle(), Err(EscrowError::WrongState));
    }

    #[test]
    fn settle_twice_rejected() {
        let (mut escrow, w) = setup();
        escrow.attest(w[0], 0, true, sha256(b"a")).unwrap();
        escrow.settle().expect("first settle");
        assert_eq!(escrow.settle(), Err(EscrowError::WrongState));
        assert_eq!(
            escrow.attest(w[0], 1, true, sha256(b"b")),
            Err(EscrowError::WrongState)
        );
    }

    #[test]
    fn payouts_conserve_balance() {
        let (mut escrow, w) = setup();
        for (e, worker) in [(0u64, 0usize), (1, 1), (2, 2), (3, 0), (4, 1)] {
            escrow
                .attest(w[worker], e, true, sha256(&[e as u8]))
                .unwrap();
        }
        let payout = escrow.settle().expect("settles");
        let sum: f64 = payout.iter().map(|(_, v)| v).sum();
        assert!((sum - 9.0).abs() < 1e-9);
    }
}
