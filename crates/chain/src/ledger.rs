//! The chain of agreed blocks.

use crate::block::Block;
use rpol_crypto::Digest;

/// An append-only chain with parent-hash validation.
///
/// # Examples
///
/// ```
/// use rpol_chain::Ledger;
///
/// let ledger = Ledger::new();
/// assert_eq!(ledger.height(), 0);
/// ```
#[derive(Debug, Clone)]
pub struct Ledger {
    blocks: Vec<Block>,
}

impl Default for Ledger {
    fn default() -> Self {
        Self::new()
    }
}

impl Ledger {
    /// Creates a ledger containing only the genesis block.
    pub fn new() -> Self {
        Self {
            blocks: vec![Block::genesis()],
        }
    }

    /// The tip (latest agreed block).
    fn tip(&self) -> &Block {
        self.blocks.last().expect("genesis always present")
    }

    /// Height of the tip.
    pub fn height(&self) -> u64 {
        self.tip().height
    }

    /// Hash that the next block must use as parent.
    pub fn tip_hash(&self) -> Digest {
        self.tip().header_hash()
    }

    /// Appends an agreed block.
    ///
    /// # Errors
    ///
    /// Returns a description of the violated invariant when the block's
    /// height or parent hash do not extend the tip.
    pub fn append(&mut self, block: Block) -> Result<(), String> {
        if block.height != self.height() + 1 {
            return Err(format!(
                "height {} does not extend tip height {}",
                block.height,
                self.height()
            ));
        }
        if block.parent != self.tip_hash() {
            return Err("parent hash does not match tip".to_string());
        }
        self.blocks.push(block);
        Ok(())
    }

    /// Verifies the whole chain's hash links.
    pub fn validate(&self) -> bool {
        self.blocks
            .windows(2)
            .all(|w| w[1].parent == w[0].header_hash() && w[1].height == w[0].height + 1)
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use proptest::prelude::*;
    use rpol_crypto::Address;

    fn child_of(ledger: &Ledger, task_id: u64) -> Block {
        Block::new(
            ledger.height() + 1,
            ledger.tip_hash(),
            task_id,
            Address::from_seed(task_id),
            &[task_id as f32],
            0.5,
        )
    }

    #[test]
    fn append_and_validate() {
        let mut ledger = Ledger::new();
        for task in 1..=5 {
            let block = child_of(&ledger, task);
            ledger.append(block).expect("valid extension");
        }
        assert_eq!(ledger.height(), 5);
        assert!(ledger.validate());
        assert_eq!(ledger.blocks.len(), 6);
    }

    #[test]
    fn wrong_height_rejected() {
        let mut ledger = Ledger::new();
        let mut block = child_of(&ledger, 1);
        block.height = 5;
        assert!(ledger.append(block).is_err());
    }

    #[test]
    fn wrong_parent_rejected() {
        let mut ledger = Ledger::new();
        let mut block = child_of(&ledger, 1);
        block.parent = Digest::ZERO;
        assert!(ledger.append(block).is_err());
    }

    proptest! {
        #[test]
        fn ledger_accepts_exactly_well_linked_chains(n in 2usize..15, tamper in 0usize..15) {
            let mut ledger = Ledger::new();
            for i in 0..n {
                let block = child_of(&ledger, i as u64);
                ledger.append(block).expect("valid chain extension");
            }
            prop_assert!(ledger.validate());
            prop_assert_eq!(ledger.height(), n as u64);
            // Any tamper of a *non-tip* block breaks validation (the tip has
            // no child link to protect it; consensus agreement covers it).
            let mut forked = ledger.clone();
            forked.blocks[tamper % (n - 1) + 1].task_id ^= 0xFFFF;
            prop_assert!(!forked.validate());
        }
    }

    #[test]
    fn tamper_detected_by_validate() {
        let mut ledger = Ledger::new();
        ledger.append(child_of(&ledger, 1)).expect("ok");
        ledger.append(child_of(&ledger, 2)).expect("ok");
        assert!(ledger.validate());
        // Tamper with a historical block (the §III-B double-spend threat
        // addressed by PoUW consensus; the ledger detects it structurally).
        ledger.blocks[1].task_id = 99;
        assert!(!ledger.validate());
    }
}
