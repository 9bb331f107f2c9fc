//! Property-based tests for the PoUW chain substrate.

use proptest::prelude::*;
use rpol_chain::rewards::ContributionLedger;
use rpol_crypto::Address;

proptest! {
    #[test]
    fn contribution_split_conserves_and_orders(
        credits in proptest::collection::vec(0u64..20, 1..10),
        reward in 0.1f64..10_000.0
    ) {
        let mut ledger = ContributionLedger::new();
        for (i, &c) in credits.iter().enumerate() {
            for _ in 0..c {
                ledger.credit(Address::from_seed(i as u64));
            }
        }
        let payout = ledger.distribute(reward);
        let total: f64 = payout.iter().map(|(_, v)| v).sum();
        if ledger.total() > 0 {
            prop_assert!((total - reward).abs() < 1e-6 * reward);
            // Shares order like credits.
            for (i, &ci) in credits.iter().enumerate() {
                for (j, &cj) in credits.iter().enumerate() {
                    if ci > cj {
                        let share = |ix: usize| {
                            payout
                                .iter()
                                .find(|(a, _)| *a == Address::from_seed(ix as u64))
                                .map(|(_, v)| *v)
                                .unwrap_or(0.0)
                        };
                        prop_assert!(share(i) > share(j) - 1e-9);
                    }
                }
            }
        } else {
            prop_assert!(payout.is_empty());
        }
    }
}
