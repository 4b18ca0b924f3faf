//! A bounded FIFO mempool with censorship bookkeeping and backpressure
//! accounting.

use crate::{Transaction, TxId};
use std::collections::HashSet;

/// Why a [`Mempool::push`] did not admit a transaction.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum MempoolError {
    /// The id was already seen (pending now or included earlier).
    Duplicate,
    /// The pool is at capacity: the submitter must back off and retry.
    Full,
}

/// Pending transactions a player would include when leading.
///
/// Order of insertion is preserved (FIFO batching). The mempool also
/// remembers everything it has *ever* seen so the state classifier can ask
/// "was `tx` input to this player but never included?" — the censorship
/// predicate of Definition 2.
///
/// The pool is optionally **bounded**: [`Mempool::bounded`] caps the
/// pending queue, [`Mempool::push`] reports `Full` instead of growing past
/// it, and the pool keeps backpressure accounting (occupancy high-water
/// mark, rejected-at-capacity count) for the workload-layer gauges.
#[derive(Debug, Clone, Default)]
pub struct Mempool {
    pending: Vec<Transaction>,
    seen: HashSet<TxId>,
    ever_seen: HashSet<TxId>,
    capacity: Option<usize>,
    peak_len: usize,
    rejected_full: u64,
}

impl Mempool {
    /// Creates an empty, unbounded mempool.
    pub fn new() -> Self {
        Mempool::default()
    }

    /// Creates an empty mempool holding at most `capacity` pending txs.
    pub fn bounded(capacity: usize) -> Self {
        Mempool {
            capacity: Some(capacity),
            ..Mempool::default()
        }
    }

    /// Caps (or uncaps, with `None`) the pending queue. Existing pending
    /// txs are never evicted; only future pushes see the new bound.
    pub fn set_capacity(&mut self, capacity: Option<usize>) {
        self.capacity = capacity;
    }

    /// The configured capacity (`None` = unbounded).
    pub fn capacity(&self) -> Option<usize> {
        self.capacity
    }

    /// Submits a transaction; duplicates (by id) are ignored.
    /// Returns `true` if the transaction was newly added.
    ///
    /// Compatibility wrapper over [`Mempool::push`]: a `Full` rejection
    /// also returns `false` (callers that care which it was use `push`).
    pub fn submit(&mut self, tx: Transaction) -> bool {
        self.push(tx).is_ok()
    }

    /// Submits a transaction, reporting *why* it was not admitted:
    /// duplicates (by id, pending or ever-included) and capacity
    /// rejections are distinct — backpressure means "retry later",
    /// a duplicate means "stop resending". Every pending id is also in
    /// `ever_seen`, so that one set decides duplicates.
    pub fn push(&mut self, tx: Transaction) -> Result<(), MempoolError> {
        if self.ever_seen.contains(&tx.id) {
            return Err(MempoolError::Duplicate);
        }
        if let Some(cap) = self.capacity {
            if self.pending.len() >= cap {
                self.rejected_full += 1;
                return Err(MempoolError::Full);
            }
        }
        self.seen.insert(tx.id);
        self.ever_seen.insert(tx.id);
        self.pending.push(tx);
        self.peak_len = self.peak_len.max(self.pending.len());
        Ok(())
    }

    /// The most txs ever simultaneously pending (occupancy high-water).
    pub fn peak_len(&self) -> usize {
        self.peak_len
    }

    /// How many pushes were rejected at capacity.
    pub fn rejected_full(&self) -> u64 {
        self.rejected_full
    }

    /// Takes up to `max` transactions in FIFO order (removing them).
    pub fn take(&mut self, max: usize) -> Vec<Transaction> {
        let n = max.min(self.pending.len());
        let batch: Vec<Transaction> = self.pending.drain(..n).collect();
        for tx in &batch {
            self.seen.remove(&tx.id);
        }
        batch
    }

    /// Takes up to `max` transactions, skipping any whose id is in `censor`.
    ///
    /// This is the leader-side primitive of the partial-censorship strategy
    /// `π_pc` (Theorem 2): censored transactions stay in the pool.
    pub fn take_censoring(&mut self, max: usize, censor: &HashSet<TxId>) -> Vec<Transaction> {
        let mut batch = Vec::new();
        let mut rest = Vec::new();
        for tx in self.pending.drain(..) {
            if batch.len() < max && !censor.contains(&tx.id) {
                self.seen.remove(&tx.id);
                batch.push(tx);
            } else {
                rest.push(tx);
            }
        }
        self.pending = rest;
        batch
    }

    /// Removes transactions that appear in a decided block.
    ///
    /// `seen` holds exactly the pending ids, so the pass over the pool is
    /// needed only when one of `ids` was pending here — rarely, since a
    /// client transaction waits in the one pool it was submitted to while
    /// every replica runs this for every block.
    pub fn remove_included<'a>(&mut self, ids: impl IntoIterator<Item = &'a TxId>) {
        let mut was_pending = false;
        for id in ids {
            was_pending |= self.seen.remove(id);
        }
        if was_pending {
            self.pending.retain(|tx| self.seen.contains(&tx.id));
        }
    }

    /// Whether `id` is currently pending.
    pub fn contains(&self, id: TxId) -> bool {
        self.seen.contains(&id)
    }

    /// Whether `id` was ever submitted to this player.
    pub fn ever_saw(&self, id: TxId) -> bool {
        self.ever_seen.contains(&id)
    }

    /// Number of pending transactions.
    pub fn len(&self) -> usize {
        self.pending.len()
    }

    /// Whether there is nothing pending.
    pub fn is_empty(&self) -> bool {
        self.pending.is_empty()
    }

    /// Iterates over pending transactions in FIFO order.
    pub fn iter(&self) -> impl Iterator<Item = &Transaction> {
        self.pending.iter()
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::NodeId;

    fn tx(id: u64) -> Transaction {
        Transaction::new(id, NodeId(0), vec![id as u8])
    }

    #[test]
    fn fifo_order_preserved() {
        let mut mp = Mempool::new();
        for i in 0..5 {
            assert!(mp.submit(tx(i)));
        }
        let batch = mp.take(3);
        assert_eq!(
            batch.iter().map(|t| t.id.0).collect::<Vec<_>>(),
            vec![0, 1, 2]
        );
        assert_eq!(mp.len(), 2);
    }

    #[test]
    fn duplicates_rejected() {
        let mut mp = Mempool::new();
        assert!(mp.submit(tx(1)));
        assert!(!mp.submit(tx(1)));
        assert_eq!(mp.len(), 1);
    }

    #[test]
    fn resubmission_after_take_rejected() {
        // A tx that was included must not reappear.
        let mut mp = Mempool::new();
        mp.submit(tx(1));
        let _ = mp.take(1);
        assert!(!mp.submit(tx(1)));
    }

    #[test]
    fn censoring_take_skips_censored() {
        let mut mp = Mempool::new();
        for i in 0..4 {
            mp.submit(tx(i));
        }
        let censor: HashSet<TxId> = [TxId(1), TxId(2)].into_iter().collect();
        let batch = mp.take_censoring(10, &censor);
        assert_eq!(batch.iter().map(|t| t.id.0).collect::<Vec<_>>(), vec![0, 3]);
        // Censored txs remain pending — they are withheld, not dropped.
        assert!(mp.contains(TxId(1)));
        assert!(mp.contains(TxId(2)));
    }

    #[test]
    fn remove_included_clears_pending() {
        let mut mp = Mempool::new();
        for i in 0..3 {
            mp.submit(tx(i));
        }
        mp.remove_included(&[TxId(0), TxId(2)]);
        assert_eq!(mp.len(), 1);
        assert!(mp.contains(TxId(1)));
        assert!(mp.ever_saw(TxId(0)), "history survives inclusion");
    }

    #[test]
    fn bounded_pool_rejects_at_capacity_and_counts() {
        let mut mp = Mempool::bounded(2);
        assert_eq!(mp.capacity(), Some(2));
        assert_eq!(mp.push(tx(0)), Ok(()));
        assert_eq!(mp.push(tx(1)), Ok(()));
        assert_eq!(mp.push(tx(2)), Err(MempoolError::Full));
        assert_eq!(mp.push(tx(2)), Err(MempoolError::Full));
        // A duplicate of a *pending* tx is Duplicate, not Full.
        assert_eq!(mp.push(tx(0)), Err(MempoolError::Duplicate));
        assert_eq!(mp.rejected_full(), 2);
        assert_eq!(mp.peak_len(), 2);
        // Draining frees a slot; the rejected tx was never marked seen,
        // so a retry now succeeds.
        let _ = mp.take(1);
        assert_eq!(mp.push(tx(2)), Ok(()));
        assert_eq!(mp.peak_len(), 2, "high-water survives the drain");
    }

    #[test]
    fn duplicate_beats_full_for_included_txs() {
        // A retried submit of an already-included tx must read Duplicate
        // even when the pool is at capacity — the client should stop
        // retrying, not back off.
        let mut mp = Mempool::bounded(1);
        mp.submit(tx(7));
        let _ = mp.take(1);
        mp.submit(tx(8));
        assert_eq!(mp.push(tx(7)), Err(MempoolError::Duplicate));
        assert_eq!(mp.rejected_full(), 0);
    }

    #[test]
    fn unbounded_pool_never_rejects_full() {
        let mut mp = Mempool::new();
        assert_eq!(mp.capacity(), None);
        for i in 0..100 {
            assert_eq!(mp.push(tx(i)), Ok(()));
        }
        assert_eq!(mp.peak_len(), 100);
        assert_eq!(mp.rejected_full(), 0);
    }

    #[test]
    fn take_censoring_respects_max() {
        let mut mp = Mempool::new();
        for i in 0..10 {
            mp.submit(tx(i));
        }
        let batch = mp.take_censoring(4, &HashSet::new());
        assert_eq!(batch.len(), 4);
        assert_eq!(mp.len(), 6);
    }
}
