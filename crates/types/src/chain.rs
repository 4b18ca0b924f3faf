//! The per-player ledger `C_i`: a chain of blocks with tentative/final
//! status, rollback, and the prefix operations from the paper.
//!
//! pRFT (like Algorand) first reaches *tentative* consensus on a block and
//! finalizes it later; tentative blocks may be rolled back after view change
//! or an `Expose`. The paper's common-prefix property is stated as: chains
//! with the `z` most recent blocks removed (`C^{⌊z}`) are prefixes of every
//! player's chain.

use crate::{Block, Digest, Height, TxId};
use std::collections::HashMap;
use std::fmt;

/// Whether a block has been finalized or may still be rolled back.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash)]
pub enum BlockStatus {
    /// Reached tentative consensus (commit quorum) but may be rolled back.
    Tentative,
    /// Finalized: will never be rolled back.
    Final,
}

/// A block together with its finality status.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct BlockEntry {
    /// The block.
    pub block: Block,
    /// Its status in this player's view.
    pub status: BlockStatus,
}

/// Errors from chain mutation.
#[derive(Debug, Clone, PartialEq, Eq)]
pub enum ChainError {
    /// The appended block's parent digest does not match the current tip.
    ParentMismatch {
        /// What the block claimed.
        expected: Digest,
        /// The actual tip digest.
        tip: Digest,
    },
    /// Tried to finalize a height that does not exist.
    NoSuchHeight(Height),
    /// Tried to finalize above a still-tentative gap (finality is prefix-closed).
    NonContiguousFinality(Height),
}

impl fmt::Display for ChainError {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        match self {
            ChainError::ParentMismatch { expected, tip } => {
                write!(f, "parent mismatch: block claims {expected}, tip is {tip}")
            }
            ChainError::NoSuchHeight(h) => write!(f, "no block at height {h}"),
            ChainError::NonContiguousFinality(h) => {
                write!(f, "cannot finalize {h}: an earlier block is not final")
            }
        }
    }
}

impl std::error::Error for ChainError {}

/// A player's ledger: genesis plus agreed blocks, each tentative or final.
///
/// Invariants maintained:
/// * entry 0 is genesis and always [`BlockStatus::Final`];
/// * every block's `parent` equals the digest of the previous block;
/// * final entries form a prefix (no final block above a tentative one).
#[derive(Clone)]
pub struct Chain {
    entries: Vec<BlockEntry>,
    /// Digest of `entries[h].block`, computed once at append time. Block
    /// hashing is the dominant cost of membership probes on long chains;
    /// caching it turns `tip()` into a copy and keeps `height_of` O(1).
    /// The prefix and fork comparisons read it in place of the blocks: two
    /// blocks are equal exactly when their digests are (the canonical
    /// encoding is injective), and a digest compares in 32 bytes where a
    /// block compares in its whole transaction batch.
    ids: Vec<Digest>,
    /// Block digest → height, for O(1) membership lookups.
    index: HashMap<Digest, u64>,
}

impl PartialEq for Chain {
    fn eq(&self, other: &Self) -> bool {
        // `ids`/`index` are pure functions of `entries`.
        self.entries == other.entries
    }
}

impl Eq for Chain {}

impl Chain {
    /// Creates a chain rooted at the given genesis block (always final).
    pub fn new(genesis: Block) -> Self {
        Chain::from_entries(vec![BlockEntry {
            block: genesis,
            status: BlockStatus::Final,
        }])
    }

    fn from_entries(entries: Vec<BlockEntry>) -> Self {
        let ids: Vec<Digest> = entries.iter().map(|e| e.block.id()).collect();
        let index = ids
            .iter()
            .enumerate()
            .map(|(h, id)| (*id, h as u64))
            .collect();
        Chain {
            entries,
            ids,
            index,
        }
    }

    /// Height of the block with digest `id`, if it is in the chain.
    pub fn height_of(&self, id: &Digest) -> Option<Height> {
        self.index.get(id).copied().map(Height)
    }

    /// Height of the tip (genesis = 0).
    pub fn height(&self) -> u64 {
        (self.entries.len() - 1) as u64
    }

    /// Number of entries including genesis.
    pub fn len(&self) -> usize {
        self.entries.len()
    }

    /// A chain always contains at least genesis.
    pub fn is_empty(&self) -> bool {
        false
    }

    /// Digest of the tip block.
    pub fn tip(&self) -> Digest {
        *self.ids.last().expect("chain is never empty")
    }

    /// Height of the highest *final* block.
    pub fn final_height(&self) -> u64 {
        self.entries
            .iter()
            .rposition(|e| e.status == BlockStatus::Final)
            .expect("genesis is final") as u64
    }

    /// Entry at `height`, if present.
    pub fn at(&self, height: Height) -> Option<&BlockEntry> {
        self.entries.get(height.0 as usize)
    }

    /// Appends a block as tentative.
    ///
    /// # Errors
    /// Returns [`ChainError::ParentMismatch`] if the block does not extend
    /// the current tip.
    pub fn append_tentative(&mut self, block: Block) -> Result<Height, ChainError> {
        let id = block.id();
        self.append_tentative_hashed(block, id)
    }

    /// [`Chain::append_tentative`] for a caller that already holds the
    /// block's digest (a validated proposal's signed value), sparing the
    /// SHA-256 over the whole block. `id` must be `block.id()`; debug
    /// builds check it.
    ///
    /// # Errors
    /// Returns [`ChainError::ParentMismatch`] if the block does not extend
    /// the current tip.
    pub fn append_tentative_hashed(
        &mut self,
        block: Block,
        id: Digest,
    ) -> Result<Height, ChainError> {
        debug_assert_eq!(block.id(), id, "caller-supplied digest is the block's");
        let tip = self.tip();
        if block.parent != tip {
            return Err(ChainError::ParentMismatch {
                expected: block.parent,
                tip,
            });
        }
        self.entries.push(BlockEntry {
            block,
            status: BlockStatus::Tentative,
        });
        self.ids.push(id);
        self.index.insert(id, self.height());
        Ok(Height(self.height()))
    }

    /// Marks the block at `height` (and implicitly everything below it,
    /// which must already be final) as final.
    ///
    /// Finalizing a block also finalizes its ancestors — the paper adopts
    /// Algorand's rule that a tentative block becomes final once a final
    /// block follows it, so we finalize the whole prefix up to `height`.
    ///
    /// # Errors
    /// Returns [`ChainError::NoSuchHeight`] if `height` is above the tip.
    pub fn finalize_upto(&mut self, height: Height) -> Result<(), ChainError> {
        if height.0 as usize >= self.entries.len() {
            return Err(ChainError::NoSuchHeight(height));
        }
        // Finality is prefix-contiguous, so everything below the current
        // final height is already marked — start there, not at genesis.
        let start = self.final_height() as usize + 1;
        if start <= height.0 as usize {
            for e in &mut self.entries[start..=height.0 as usize] {
                e.status = BlockStatus::Final;
            }
        }
        Ok(())
    }

    /// Drops all tentative blocks above the last final block, returning them
    /// (most recent last). Used after `Expose` or an abandoned view.
    pub fn rollback_tentative(&mut self) -> Vec<Block> {
        let keep = self.final_height() as usize + 1;
        for id in self.ids.split_off(keep) {
            self.index.remove(&id);
        }
        self.entries
            .split_off(keep)
            .into_iter()
            .map(|e| e.block)
            .collect()
    }

    /// The paper's `C^{⌊c}`: this chain with the last `c` blocks removed.
    pub fn drop_suffix(&self, c: usize) -> Chain {
        let keep = self.entries.len().saturating_sub(c).max(1);
        Chain::from_entries(self.entries[..keep].to_vec())
    }

    /// The digests of `C^{⌊c}` ([`Chain::drop_suffix`]'s blocks), borrowed.
    fn ids_without_suffix(&self, c: usize) -> &[Digest] {
        &self.ids[..self.ids.len().saturating_sub(c).max(1)]
    }

    /// Whether `self` is a prefix of `other` (block-wise, ignoring status).
    pub fn is_prefix_of(&self, other: &Chain) -> bool {
        other.ids.starts_with(&self.ids)
    }

    /// Length of the longest common prefix (in blocks) with `other`.
    pub fn common_prefix_len(&self, other: &Chain) -> usize {
        self.ids
            .iter()
            .zip(&other.ids)
            .take_while(|(a, b)| a == b)
            .count()
    }

    /// Checks the paper's `c`-strict-ordering between two honest ledgers:
    /// with `|C1| ≤ |C2|`, `C1^{⌊c} ⊆ C2^{⌊c}` must hold.
    pub fn c_strict_ordering(c1: &Chain, c2: &Chain, c: usize) -> bool {
        let (shorter, longer) = if c1.len() <= c2.len() {
            (c1, c2)
        } else {
            (c2, c1)
        };
        longer
            .ids_without_suffix(c)
            .starts_with(shorter.ids_without_suffix(c))
    }

    /// Whether a transaction is included in any block (at any status).
    pub fn contains_tx(&self, id: TxId) -> bool {
        self.entries.iter().any(|e| e.block.contains_tx(id))
    }

    /// Whether a transaction is included in a *final* block.
    pub fn contains_tx_final(&self, id: TxId) -> bool {
        self.entries
            .iter()
            .filter(|e| e.status == BlockStatus::Final)
            .any(|e| e.block.contains_tx(id))
    }

    /// Iterates over entries from genesis to tip.
    pub fn iter(&self) -> impl Iterator<Item = &BlockEntry> {
        self.entries.iter()
    }

    /// [`Chain::iter`] with each entry's cached block digest beside it.
    pub fn iter_with_ids(&self) -> impl Iterator<Item = (Digest, &BlockEntry)> {
        self.ids.iter().copied().zip(&self.entries)
    }

    /// Detects disagreement (`σ_Fork`) between two ledgers: a height at which
    /// both have a block but the blocks differ. Returns the first such height.
    ///
    /// The paper's fork state compares *confirmed* blocks; pass
    /// `final_only = true` to restrict to finalized entries.
    pub fn find_fork(a: &Chain, b: &Chain, final_only: bool) -> Option<Height> {
        let upto = if final_only {
            (a.final_height().min(b.final_height()) + 1) as usize
        } else {
            a.len().min(b.len())
        };
        (0..upto)
            .find(|&h| a.ids[h] != b.ids[h])
            .map(|h| Height(h as u64))
    }
}

impl fmt::Debug for Chain {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        write!(f, "Chain[h={} f={}]", self.height(), self.final_height())
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::{NodeId, Round, Transaction};

    fn block_on(chain: &Chain, round: u64, tx_ids: &[u64]) -> Block {
        let txs = tx_ids
            .iter()
            .map(|&i| Transaction::new(i, NodeId(0), vec![]))
            .collect();
        Block::new(Round(round), chain.tip(), NodeId((round % 4) as usize), txs)
    }

    fn chain_of(rounds: usize) -> Chain {
        let mut c = Chain::new(Block::genesis());
        for r in 0..rounds {
            let b = block_on(&c, r as u64 + 1, &[r as u64]);
            c.append_tentative(b).unwrap();
        }
        c
    }

    #[test]
    fn genesis_chain_has_height_zero() {
        let c = Chain::new(Block::genesis());
        assert_eq!(c.height(), 0);
        assert_eq!(c.final_height(), 0);
        assert!(!c.is_empty());
    }

    #[test]
    fn append_checks_parent() {
        let mut c = Chain::new(Block::genesis());
        let bad = Block::new(Round(1), Digest::of_bytes(b"junk"), NodeId(0), vec![]);
        assert!(matches!(
            c.append_tentative(bad),
            Err(ChainError::ParentMismatch { .. })
        ));
    }

    #[test]
    fn finalize_upto_finalizes_prefix() {
        let mut c = chain_of(3);
        assert_eq!(c.final_height(), 0);
        c.finalize_upto(Height(2)).unwrap();
        assert_eq!(c.final_height(), 2);
        assert_eq!(c.at(Height(1)).unwrap().status, BlockStatus::Final);
        assert_eq!(c.at(Height(3)).unwrap().status, BlockStatus::Tentative);
    }

    #[test]
    fn finalize_above_tip_errors() {
        let mut c = chain_of(1);
        assert!(matches!(
            c.finalize_upto(Height(5)),
            Err(ChainError::NoSuchHeight(_))
        ));
    }

    #[test]
    fn rollback_returns_tentative_suffix() {
        let mut c = chain_of(4);
        c.finalize_upto(Height(2)).unwrap();
        let rolled = c.rollback_tentative();
        assert_eq!(rolled.len(), 2);
        assert_eq!(c.height(), 2);
        assert_eq!(c.final_height(), 2);
    }

    #[test]
    fn rollback_on_all_final_is_noop() {
        let mut c = chain_of(2);
        c.finalize_upto(Height(2)).unwrap();
        assert!(c.rollback_tentative().is_empty());
        assert_eq!(c.height(), 2);
    }

    #[test]
    fn drop_suffix_keeps_genesis() {
        let c = chain_of(3);
        assert_eq!(c.drop_suffix(2).height(), 1);
        assert_eq!(c.drop_suffix(100).height(), 0, "never drops genesis");
    }

    #[test]
    fn prefix_relation() {
        let c4 = chain_of(4);
        let c2 = c4.drop_suffix(2);
        assert!(c2.is_prefix_of(&c4));
        assert!(!c4.is_prefix_of(&c2));
        assert_eq!(c2.common_prefix_len(&c4), 3); // genesis + 2 blocks
    }

    #[test]
    fn c_strict_ordering_holds_for_shared_history() {
        let c5 = chain_of(5);
        let c3 = c5.drop_suffix(2);
        assert!(Chain::c_strict_ordering(&c3, &c5, 0));
        assert!(Chain::c_strict_ordering(&c5, &c3, 0), "order-insensitive");
    }

    #[test]
    fn c_strict_ordering_detects_divergence_within_window() {
        let base = chain_of(2);
        let mut a = base.clone();
        let mut b = base.clone();
        a.append_tentative(block_on(&a, 3, &[100])).unwrap();
        b.append_tentative(block_on(&b, 3, &[200])).unwrap();
        assert!(!Chain::c_strict_ordering(&a, &b, 0));
        // Divergence only in the last block is tolerated at c = 1.
        assert!(Chain::c_strict_ordering(&a, &b, 1));
    }

    #[test]
    fn find_fork_detects_divergence() {
        let base = chain_of(2);
        let mut a = base.clone();
        let mut b = base.clone();
        a.append_tentative(block_on(&a, 3, &[100])).unwrap();
        b.append_tentative(block_on(&b, 3, &[200])).unwrap();
        assert_eq!(Chain::find_fork(&a, &b, false), Some(Height(3)));
        // Not a fork on *final* blocks until both finalize the divergent block.
        assert_eq!(Chain::find_fork(&a, &b, true), None);
        a.finalize_upto(Height(3)).unwrap();
        b.finalize_upto(Height(3)).unwrap();
        assert_eq!(Chain::find_fork(&a, &b, true), Some(Height(3)));
    }

    #[test]
    fn contains_tx_distinguishes_finality() {
        let mut c = Chain::new(Block::genesis());
        let b = block_on(&c, 1, &[42]);
        c.append_tentative(b).unwrap();
        assert!(c.contains_tx(TxId(42)));
        assert!(!c.contains_tx_final(TxId(42)));
        c.finalize_upto(Height(1)).unwrap();
        assert!(c.contains_tx_final(TxId(42)));
    }
}
