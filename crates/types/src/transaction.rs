//! Transactions: the payload that blocks carry and censorship targets.

use crate::NodeId;
use std::fmt;
use std::sync::Arc;

/// Globally unique transaction identifier.
#[derive(Clone, Copy, PartialEq, Eq, Hash, PartialOrd, Ord, Default)]
pub struct TxId(pub u64);

impl fmt::Debug for TxId {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        write!(f, "tx{}", self.0)
    }
}

impl fmt::Display for TxId {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        write!(f, "tx{}", self.0)
    }
}

impl From<u64> for TxId {
    fn from(value: u64) -> Self {
        TxId(value)
    }
}

/// A state-change request submitted by a client/sender.
///
/// The censorship-resistance property ((t,k)-censorship resistance,
/// Definition 2) is stated over transactions: if all honest players have
/// `tx` as input, eventually some finalized block contains `tx`.
#[derive(Clone, PartialEq, Eq, Hash)]
pub struct Transaction {
    /// Unique id.
    pub id: TxId,
    /// Submitting player (or client mapped to a player).
    pub sender: NodeId,
    /// Opaque payload bytes (size matters for wire accounting only),
    /// immutable and shared: a resubmission, a mempool batch and a block
    /// copy a handle, never the bytes. Equality and hashing are by content.
    pub payload: Arc<[u8]>,
}

impl Transaction {
    /// Creates a transaction owning a fresh copy of `payload`.
    pub fn new(id: u64, sender: NodeId, payload: Vec<u8>) -> Self {
        Transaction::shared(id, sender, payload.into())
    }

    /// Creates a transaction over a payload shared with others (a client
    /// builds its payload once and sends it with every transaction).
    pub fn shared(id: u64, sender: NodeId, payload: Arc<[u8]>) -> Self {
        Transaction {
            id: TxId(id),
            sender,
            payload,
        }
    }

    /// Wire size: id + sender + payload bytes.
    pub fn wire_bytes(&self) -> usize {
        8 + 8 + self.payload.len()
    }
}

impl fmt::Debug for Transaction {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        write!(
            f,
            "Tx({}, from {}, {}B)",
            self.id,
            self.sender,
            self.payload.len()
        )
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn wire_bytes_includes_payload() {
        let tx = Transaction::new(1, NodeId(0), vec![0; 10]);
        assert_eq!(tx.wire_bytes(), 26);
    }

    /// A batch is an array of these: an id, a sender and a payload handle
    /// (an owned `Vec` payload made it 40 bytes).
    #[cfg(target_pointer_width = "64")]
    #[test]
    fn a_transaction_is_32_bytes() {
        assert_eq!(std::mem::size_of::<Transaction>(), 32);
    }

    #[test]
    fn a_shared_payload_is_one_allocation_and_compares_by_content() {
        let payload: Arc<[u8]> = vec![7u8; 50].into();
        let a = Transaction::shared(1, NodeId(2), payload.clone());
        let b = Transaction::shared(2, NodeId(2), payload.clone());
        assert!(Arc::ptr_eq(&a.payload, &b.payload));
        assert_eq!(a, Transaction::new(1, NodeId(2), vec![7u8; 50]));
        assert_eq!(a.wire_bytes(), 66);
    }

    #[test]
    fn tx_equality_is_structural() {
        let a = Transaction::new(1, NodeId(0), vec![1]);
        let b = Transaction::new(1, NodeId(0), vec![1]);
        let c = Transaction::new(1, NodeId(0), vec![2]);
        assert_eq!(a, b);
        assert_ne!(a, c);
    }
}
