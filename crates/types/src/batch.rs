//! A block's transaction batch, shared by every copy of the block and
//! holding the block's content address once it has been computed.

use crate::{Digest, NodeId, Round, Transaction};
use std::fmt;
use std::hash::{Hash, Hasher};
use std::ops::Deref;
use std::sync::OnceLock;

/// The header fields a block id covers besides the batch.
pub(crate) type Header = (Round, Digest, NodeId);

/// An immutable transaction batch: what a [`crate::Block`] carries behind
/// an `Arc`, so the `Propose` fan-out, every seat's block store and chain,
/// and snapshots share one allocation.
///
/// The batch also remembers the id of the first block hashed over it,
/// tagged with that block's `(round, parent, proposer)`: the leader hashes
/// its block once to sign it, and every seat that receives a copy sharing
/// the batch reads the id instead of hashing ~38 KB again. A block whose
/// header differs from the tag hashes afresh and leaves the memo alone, so
/// the memo can only ever answer for the header it was computed from.
///
/// Equality and hashing are by the transactions alone; the memo is
/// invisible to every comparison, digest and report.
pub struct Batch {
    txs: Box<[Transaction]>,
    id: OnceLock<(Header, Digest)>,
}

impl Batch {
    /// The id of the block `header` + this batch: the memo when it was
    /// computed for `header`, else `hash()` — which fills the memo only if
    /// nothing has been recorded yet.
    pub(crate) fn id_for(&self, header: Header, hash: impl Fn() -> Digest) -> Digest {
        let (tag, id) = self.id.get_or_init(|| (header, hash()));
        if *tag == header {
            *id
        } else {
            hash()
        }
    }
}

impl From<Vec<Transaction>> for Batch {
    fn from(txs: Vec<Transaction>) -> Self {
        Batch {
            txs: txs.into_boxed_slice(),
            id: OnceLock::new(),
        }
    }
}

impl Deref for Batch {
    type Target = [Transaction];

    fn deref(&self) -> &[Transaction] {
        &self.txs
    }
}

impl PartialEq for Batch {
    fn eq(&self, other: &Self) -> bool {
        self.txs == other.txs
    }
}

impl Eq for Batch {}

impl Hash for Batch {
    fn hash<H: Hasher>(&self, state: &mut H) {
        self.txs.hash(state);
    }
}

impl fmt::Debug for Batch {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        f.debug_list().entries(self.txs.iter()).finish()
    }
}
