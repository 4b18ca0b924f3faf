//! Core data types shared by every crate in the pRFT reproduction.
//!
//! This crate is dependency-free and holds the vocabulary of the system:
//! identifiers ([`NodeId`], [`Round`], [`Height`]), content-address digests
//! ([`Digest`]), [`Transaction`]s, [`Block`]s, and the per-player [`Chain`]
//! (the ledger `C_i` of the paper) with *tentative*/*final* status and the
//! `C^{⌊c}` prefix operations used by the `c`-strict-ordering and
//! common-prefix properties.
//!
//! A block's transactions are an `Arc`-shared [`Batch`] that also holds
//! the block's id once hashed, and a transaction's payload is an
//! `Arc<[u8]>`: copies of a proposal share one batch and one hash, and
//! copies of a transaction share one payload. The [`Mempool`] and the
//! simulator's timer bookkeeping key their tables by integer ids through
//! [`IdSet`], which hashes with a fixed multiply-and-fold
//! ([`IdHasher`]) instead of std's keyed SipHash.
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

mod batch;
mod chain;
mod encode;
mod hash;
mod id;
mod mempool;
mod transaction;

pub use batch::Batch;
pub use chain::{BlockEntry, BlockStatus, Chain, ChainError};
pub use encode::Encoder;
pub use hash::{IdHasher, IdSet};
pub use id::{Digest, Height, NodeId, Round};
pub use mempool::{Included, Mempool, MempoolError};
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
/// The [`Batch`] also holds the block's id once computed, so the leader's
/// hash serves every seat that received its batch.
#[derive(Clone, PartialEq, Eq, Hash)]
pub struct Block {
    /// The consensus round in which this block was proposed.
    pub round: Round,
    /// Digest of the parent block (the block agreed immediately before).
    pub parent: Digest,
    /// The proposing leader.
    pub proposer: NodeId,
    /// The transaction batch, shared by every clone of the block.
    pub txs: Arc<Batch>,
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
            txs: Arc::new(txs.into()),
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
    ///
    /// Hashed once per batch and header: a block sharing its batch with a
    /// block already hashed under the same header reads the batch's memo.
    pub fn id(&self) -> Digest {
        let header = (self.round, self.parent, self.proposer);
        self.txs
            .id_for(header, || Digest::of_bytes(&self.canonical_bytes()))
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
    use std::hash::BuildHasher;

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
    /// an 8-byte handle to the shared batch (a `Vec` made it 72 bytes plus
    /// a private copy of the batch, an `Arc<[Transaction]>` 64).
    #[cfg(target_pointer_width = "64")]
    #[test]
    fn a_block_is_a_header_and_a_handle() {
        assert_eq!(std::mem::size_of::<Block>(), 56);
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
        // They hash alike too, whether or not one has its id memo filled.
        let hasher = std::collections::hash_map::RandomState::new();
        let _ = block.id();
        assert_eq!(hasher.hash_one(&block), hasher.hash_one(&twin));
        // A clone shares the batch.
        let copy = block.clone();
        assert!(Arc::ptr_eq(&block.txs, &copy.txs));
        assert_eq!(copy, block);
        // An unshared batch that differs in one payload byte is unequal.
        let mut txs = block.txs.to_vec();
        let mut payload = txs[2].payload.to_vec();
        payload[0] ^= 1;
        txs[2].payload = payload.into();
        let other = Block::new(block.round, block.parent, block.proposer, txs);
        assert_ne!(other, block);
        assert_ne!(other.id(), block.id());
    }

    /// A fresh block over a copy of `block`'s transactions: no memo.
    fn rehashed(block: &Block) -> Digest {
        Block::new(
            block.round,
            block.parent,
            block.proposer,
            block.txs.to_vec(),
        )
        .id()
    }

    #[test]
    fn blocks_sharing_a_batch_under_different_headers_keep_their_own_ids() {
        let a = pinned_block();
        let b = Block {
            round: Round(8),
            ..a.clone()
        };
        let c = Block {
            proposer: NodeId(5),
            ..a.clone()
        };
        assert!(Arc::ptr_eq(&a.txs, &b.txs) && Arc::ptr_eq(&a.txs, &c.txs));
        let ids = [a.id(), b.id(), c.id()];
        assert_eq!(ids, [rehashed(&a), rehashed(&b), rehashed(&c)]);
        assert!(ids[0] != ids[1] && ids[0] != ids[2] && ids[1] != ids[2]);
        // The memo stayed with the header hashed first.
        assert_eq!((a.id(), b.id()), (ids[0], ids[1]));
    }

    #[test]
    fn a_header_changed_after_hashing_hashes_again() {
        let mut block = pinned_block();
        let before = block.id();
        block.parent = Digest::of_bytes(b"another parent");
        assert_ne!(block.id(), before);
        assert_eq!(block.id(), rehashed(&block));
        block.parent = Digest::of_bytes(b"parent");
        assert_eq!(block.id(), before);
    }

    #[test]
    fn a_block_over_a_copied_batch_gets_the_originals_id() {
        let block = pinned_block();
        let id = block.id();
        let copy = Block::new(
            block.round,
            block.parent,
            block.proposer,
            block.txs.to_vec(),
        );
        assert!(!Arc::ptr_eq(&block.txs, &copy.txs));
        assert_eq!(copy.id(), id);
        assert_eq!(copy, block);
    }

    #[test]
    fn wire_bytes_counts_payload() {
        let tx = Transaction::new(7, NodeId(1), vec![0u8; 100]);
        let empty = Block::new(Round(1), Digest::ZERO, NodeId(0), vec![]);
        let full = Block::new(Round(1), Digest::ZERO, NodeId(0), vec![tx]);
        assert!(full.wire_bytes() > empty.wire_bytes() + 100);
    }
}
