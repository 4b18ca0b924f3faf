//! Core data types shared by every crate in the pRFT reproduction.
//!
//! This crate is dependency-free and holds the vocabulary of the system:
//! identifiers ([`NodeId`], [`Round`], [`Height`]), content-address digests
//! ([`Digest`]), [`Transaction`]s, [`Block`]s, and the per-player [`Chain`]
//! (the ledger `C_i` of the paper) with *tentative*/*final* status and the
//! `C^{⌊c}` prefix operations used by the `c`-strict-ordering and
//! common-prefix properties.
//!
//! # Example
//!
//! ```
//! use prft_types::{Block, Chain, Digest, NodeId, Round, Transaction};
//!
//! let genesis = Block::genesis();
//! let mut chain = Chain::new(genesis.clone());
//! let tx = Transaction::new(1, NodeId(0), b"pay alice 5".to_vec());
//! let block = Block::new(Round(0), genesis.id(), NodeId(0), vec![tx]);
//! chain.append_tentative(block).unwrap();
//! assert_eq!(chain.height(), 1);
//! assert_eq!(chain.final_height(), 0); // only genesis is final so far
//! ```

#![forbid(unsafe_code)]
#![warn(missing_docs)]

mod chain;
mod encode;
mod id;
mod mempool;
mod transaction;

pub use chain::{BlockEntry, BlockStatus, Chain, ChainError};
pub use encode::Encoder;
pub use id::{Digest, Height, NodeId, Round};
pub use mempool::{Mempool, MempoolError};
pub use transaction::{Transaction, TxId};

use std::fmt;
use std::sync::Arc;

/// A block: the unit of agreement in Atomic Broadcast.
///
/// Each block points to its parent by [`Digest`] and carries the round it was
/// proposed in, the proposer, and a batch of transactions. The block's own
/// identity is the digest of its canonical encoding (computed via
/// [`Block::id`]). Digests here are *content addresses*; protocol signatures
/// always go through `prft-crypto`.
///
/// The batch is immutable once built and `Arc`-shared: a clone — the
/// `Propose` fan-out, a replica's block store and chain, a snapshot —
/// copies the 48-byte header and a handle, never the transactions.
/// Equality and hashing are by content (std's `Arc` equality tries the
/// pointer first), so sharing is invisible to every digest and report.
#[derive(Clone, PartialEq, Eq, Hash)]
pub struct Block {
    /// The consensus round in which this block was proposed.
    pub round: Round,
    /// Digest of the parent block (the block agreed immediately before).
    pub parent: Digest,
    /// The proposing leader.
    pub proposer: NodeId,
    /// The transaction batch, shared by every clone of the block.
    pub txs: Arc<[Transaction]>,
}

impl Block {
    /// Wire size of a block with no transactions: round, parent digest
    /// and proposer.
    pub const HEADER_WIRE_BYTES: usize = 8 + Digest::LEN + 8;

    /// The genesis block: round 0 sentinel with no parent and no payload.
    pub fn genesis() -> Self {
        Block::new(Round(0), Digest::ZERO, NodeId(0), Vec::new())
    }

    /// Creates a block proposed in `round` on top of `parent` by `proposer`.
    pub fn new(round: Round, parent: Digest, proposer: NodeId, txs: Vec<Transaction>) -> Self {
        Block {
            round,
            parent,
            proposer,
            txs: txs.into(),
        }
    }

    /// Returns whether this is the genesis sentinel.
    pub fn is_genesis(&self) -> bool {
        self.parent == Digest::ZERO && self.round == Round(0) && self.txs.is_empty()
    }

    /// Canonical byte encoding used for hashing and signing.
    pub fn canonical_bytes(&self) -> Vec<u8> {
        let mut enc = Encoder::new();
        enc.u64(self.round.0);
        enc.bytes(&self.parent.0);
        enc.u64(self.proposer.0 as u64);
        enc.u64(self.txs.len() as u64);
        for tx in self.txs.iter() {
            enc.u64(tx.id.0);
            enc.u64(tx.sender.0 as u64);
            enc.bytes(&tx.payload);
        }
        enc.into_bytes()
    }

    /// Content address of the block (digest of the canonical encoding).
    ///
    /// The paper writes `h_l := H(Block || r)`; the round is part of the
    /// canonical encoding, so signed block hashes cannot be replayed across
    /// rounds (paper, footnote 11).
    pub fn id(&self) -> Digest {
        Digest::of_bytes(&self.canonical_bytes())
    }

    /// Returns true if the block contains a transaction with the given id.
    pub fn contains_tx(&self, id: TxId) -> bool {
        self.txs.iter().any(|t| t.id == id)
    }

    /// Size of the block in "wire bytes" for message-size accounting.
    pub fn wire_bytes(&self) -> usize {
        Self::HEADER_WIRE_BYTES + self.txs.iter().map(Transaction::wire_bytes).sum::<usize>()
    }
}

impl fmt::Debug for Block {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        f.debug_struct("Block")
            .field("round", &self.round)
            .field("proposer", &self.proposer)
            .field("txs", &self.txs.len())
            .field("id", &self.id())
            .finish()
    }
}

#[cfg(test)]
mod block_tests {
    use super::*;

    #[test]
    fn genesis_is_genesis() {
        assert!(Block::genesis().is_genesis());
        let b = Block::new(Round(0), Digest::ZERO, NodeId(0), vec![]);
        assert!(b.is_genesis());
    }

    #[test]
    fn id_changes_with_round() {
        let a = Block::new(Round(1), Digest::ZERO, NodeId(0), vec![]);
        let b = Block::new(Round(2), Digest::ZERO, NodeId(0), vec![]);
        assert_ne!(a.id(), b.id(), "round is hashed, preventing replay");
    }

    #[test]
    fn id_changes_with_content() {
        let tx = Transaction::new(7, NodeId(1), vec![1, 2, 3]);
        let a = Block::new(Round(1), Digest::ZERO, NodeId(0), vec![]);
        let b = Block::new(Round(1), Digest::ZERO, NodeId(0), vec![tx]);
        assert_ne!(a.id(), b.id());
    }

    #[test]
    fn id_is_deterministic() {
        let tx = Transaction::new(7, NodeId(1), vec![1, 2, 3]);
        let a = Block::new(Round(1), Digest::ZERO, NodeId(0), vec![tx.clone()]);
        let b = Block::new(Round(1), Digest::ZERO, NodeId(0), vec![tx]);
        assert_eq!(a.id(), b.id());
    }

    #[test]
    fn contains_tx_works() {
        let tx = Transaction::new(7, NodeId(1), vec![1]);
        let b = Block::new(Round(1), Digest::ZERO, NodeId(0), vec![tx]);
        assert!(b.contains_tx(TxId(7)));
        assert!(!b.contains_tx(TxId(8)));
    }

    /// A fixed three-transaction block whose content addresses are pinned.
    fn pinned_block() -> Block {
        let txs = (1..=3u64)
            .map(|i| Transaction::new(i, NodeId(4 + i as usize), vec![i as u8; 10 * i as usize]))
            .collect();
        Block::new(Round(7), Digest::of_bytes(b"parent"), NodeId(3), txs)
    }

    /// What a store or chain entry holds per block: a 48-byte header and
    /// a 16-byte handle to the shared batch (a `Vec` made it 72 bytes plus
    /// a private copy of the batch).
    #[cfg(target_pointer_width = "64")]
    #[test]
    fn a_block_is_a_header_and_a_handle() {
        assert_eq!(std::mem::size_of::<Block>(), 64);
    }

    #[test]
    fn a_shared_batch_keeps_every_content_address() {
        // Recorded when the batch was still a `Vec`: sharing it must move
        // no encoding, id or wire size.
        let block = pinned_block();
        let hex: String = block.id().0.iter().map(|b| format!("{b:02x}")).collect();
        assert_eq!(block.canonical_bytes().len(), 196);
        assert_eq!(
            hex,
            "b802214cc4fc934ca60c38bcb6f7bbcc709d6bbe3b71c634f61b30c3858178d3"
        );
        assert_eq!(block.wire_bytes(), 156);

        // Two separately built equal blocks are equal, by content.
        let twin = pinned_block();
        assert!(!Arc::ptr_eq(&block.txs, &twin.txs));
        assert_eq!(block, twin);
        let set: std::collections::HashSet<Block> = [block.clone(), twin].into_iter().collect();
        assert_eq!(set.len(), 1);
        // A clone shares the batch.
        let copy = block.clone();
        assert!(Arc::ptr_eq(&block.txs, &copy.txs));
        assert_eq!(copy, block);
        // An unshared batch that differs in one payload byte is unequal.
        let mut txs = block.txs.to_vec();
        txs[2].payload[0] ^= 1;
        let other = Block::new(block.round, block.parent, block.proposer, txs);
        assert_ne!(other, block);
        assert_ne!(other.id(), block.id());
    }

    #[test]
    fn wire_bytes_counts_payload() {
        let tx = Transaction::new(7, NodeId(1), vec![0u8; 100]);
        let empty = Block::new(Round(1), Digest::ZERO, NodeId(0), vec![]);
        let full = Block::new(Round(1), Digest::ZERO, NodeId(0), vec![tx]);
        assert!(full.wire_bytes() > empty.wire_bytes() + 100);
    }
}
