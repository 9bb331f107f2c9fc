//! Pool-side reward distribution.
//!
//! Once the pool's block is agreed, the mining reward arrives at the pool
//! manager's address and is redistributed to workers *proportionally to
//! their verified contributions* (§III-A). Workers whose submissions
//! failed verification earn nothing for those epochs — the economic teeth
//! of RPoL.

use rpol_crypto::Address;
use serde::Serialize;
use std::collections::BTreeMap;

/// Tracks per-worker verified contributions across an entire mining round.
#[derive(Debug, Clone, Default, PartialEq, Serialize)]
pub struct ContributionLedger {
    /// Verified work units (e.g. accepted epoch submissions) per worker.
    credits: BTreeMap<Address, u64>,
}

impl ContributionLedger {
    /// Creates an empty ledger.
    pub fn new() -> Self {
        Self::default()
    }

    /// Credits one verified work unit to `worker`.
    pub fn credit(&mut self, worker: Address) {
        *self.credits.entry(worker).or_insert(0) += 1;
    }

    /// Total verified units.
    pub fn total(&self) -> u64 {
        self.credits.values().sum()
    }

    /// Splits `reward` proportionally to credits. Workers with zero
    /// credits receive nothing; an empty ledger returns an empty payout.
    ///
    /// # Panics
    ///
    /// Panics if `reward` is negative or non-finite.
    pub fn distribute(&self, reward: f64) -> Vec<(Address, f64)> {
        assert!(
            reward.is_finite() && reward >= 0.0,
            "invalid reward {reward}"
        );
        let total = self.total();
        if total == 0 {
            return Vec::new();
        }
        self.credits
            .iter()
            .filter(|(_, &c)| c > 0)
            .map(|(addr, &c)| (*addr, reward * c as f64 / total as f64))
            .collect()
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn proportional_split() {
        let mut ledger = ContributionLedger::new();
        let a = Address::from_seed(1);
        let b = Address::from_seed(2);
        ledger.credit(a);
        ledger.credit(a);
        ledger.credit(b);
        let payout = ledger.distribute(9.0);
        let get = |addr: Address| {
            payout
                .iter()
                .find(|(x, _)| *x == addr)
                .map(|(_, v)| *v)
                .unwrap_or(0.0)
        };
        assert!((get(a) - 6.0).abs() < 1e-9);
        assert!((get(b) - 3.0).abs() < 1e-9);
    }

    #[test]
    fn payout_conserves_reward() {
        let mut ledger = ContributionLedger::new();
        for i in 0..7 {
            for _ in 0..=i {
                ledger.credit(Address::from_seed(i));
            }
        }
        let payout = ledger.distribute(100.0);
        let sum: f64 = payout.iter().map(|(_, v)| v).sum();
        assert!((sum - 100.0).abs() < 1e-9);
    }

    #[test]
    fn unverified_workers_get_nothing() {
        let mut ledger = ContributionLedger::new();
        let honest = Address::from_seed(1);
        let cheater = Address::from_seed(2);
        ledger.credit(honest);
        let payout = ledger.distribute(10.0);
        assert_eq!(payout.len(), 1);
        assert_eq!(payout[0].0, honest);
        assert!(!ledger.credits.contains_key(&cheater));
    }

    #[test]
    fn empty_ledger_empty_payout() {
        assert!(ContributionLedger::new().distribute(5.0).is_empty());
    }
}
