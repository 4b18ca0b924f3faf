//! A bounded FIFO mempool that also records the ids final at its player,
//! with backpressure accounting.

use crate::{IdSet, Transaction, TxId};
use std::collections::HashSet;

/// Why a [`Mempool::push`] did not admit a transaction.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum MempoolError {
    /// The id is pending here.
    Duplicate,
    /// The id is final here: the submitter's transaction is already in.
    Final,
    /// The pool is at capacity: the submitter must back off and retry.
    Full,
}

/// What [`Mempool::remove_included`] found among a finalized block's ids.
#[derive(Debug, Clone, Default, PartialEq, Eq)]
pub struct Included {
    /// The ids that were pending here, in block order: they left the pool,
    /// and a seat acknowledges the client ones.
    pub was_pending: Vec<TxId>,
    /// How many ids were already final here (an id finalized twice).
    pub twice: u64,
}

/// A player's one record of transaction ids: the pending transactions it
/// would include when leading, and every id final at this player.
///
/// Order of insertion is preserved (FIFO batching). A proposal only reads
/// its batch; a tx leaves when a block carrying it is finalized, and its id
/// is then final here, so no admission path takes it in again.
///
/// The pool is optionally **bounded**: [`Mempool::bounded`] caps the txs
/// *waiting* (pending outside the latest batch), [`Mempool::push`] reports
/// `Full` instead of growing past it, and the pool keeps backpressure
/// accounting (waiting high-water mark, rejected-at-capacity count) for
/// the workload-layer gauges.
#[derive(Debug, Clone, Default)]
pub struct Mempool {
    pending: Vec<Transaction>,
    seen: IdSet<TxId>,
    /// Every id final at this player; disjoint from `seen`.
    final_here: IdSet<TxId>,
    admitted: usize,
    /// The latest batch's ids still pending: in flight, not waiting.
    reserved: IdSet<TxId>,
    capacity: Option<usize>,
    peak_len: usize,
    rejected_full: u64,
}

impl Mempool {
    /// Creates an empty, unbounded mempool.
    pub fn new() -> Self {
        Mempool::default()
    }

    /// Creates an empty mempool holding at most `capacity` waiting txs.
    pub fn bounded(capacity: usize) -> Self {
        Mempool {
            capacity: Some(capacity),
            ..Mempool::default()
        }
    }

    /// Caps (or uncaps, with `None`) the waiting txs. Existing pending
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

    /// Submits a transaction, reporting *why* it was not admitted: pending
    /// here (`Duplicate`), final here (`Final`) or at capacity (`Full`).
    /// Backpressure means "retry later"; the other two mean "stop
    /// resending", and they beat `Full`.
    pub fn push(&mut self, tx: Transaction) -> Result<(), MempoolError> {
        if self.seen.contains(&tx.id) {
            return Err(MempoolError::Duplicate);
        }
        if self.final_here.contains(&tx.id) {
            return Err(MempoolError::Final);
        }
        if let Some(cap) = self.capacity {
            if self.pending.len() - self.reserved.len() >= cap {
                self.rejected_full += 1;
                return Err(MempoolError::Full);
            }
        }
        self.seen.insert(tx.id);
        self.admitted += 1;
        self.pending.push(tx);
        self.peak_len = self.peak_len.max(self.pending.len() - self.reserved.len());
        Ok(())
    }

    /// The most txs ever simultaneously waiting (occupancy high-water).
    pub fn peak_len(&self) -> usize {
        self.peak_len
    }

    /// How many pushes were rejected at capacity.
    pub fn rejected_full(&self) -> u64 {
        self.rejected_full
    }

    /// Takes up to `max` transactions in FIFO order (removing them and
    /// booking their ids final). No replica drains its pool.
    // Exists only because the frozen `benchmark/` crate still calls it; goes
    // away in the next `benchmark` PR.
    #[doc(hidden)]
    pub fn take(&mut self, max: usize) -> Vec<Transaction> {
        let n = max.min(self.pending.len());
        let batch: Vec<Transaction> = self.pending.drain(..n).collect();
        for tx in &batch {
            self.seen.remove(&tx.id);
            self.final_here.insert(tx.id);
        }
        self.reserved.retain(|id| self.seen.contains(id));
        batch
    }

    /// Up to `max` pending txs in FIFO order, passing over ids in `censor`
    /// (the leader-side primitive of `π_pc`, Theorem 2) and ids where `skip`
    /// holds. Removes nothing: the batch is reserved until the next call and
    /// leaves the pool only when finalized ([`Mempool::remove_included`]).
    pub fn batch(
        &mut self,
        max: usize,
        censor: Option<&HashSet<TxId>>,
        skip: impl Fn(TxId) -> bool,
    ) -> Vec<Transaction> {
        let batch: Vec<Transaction> = self
            .pending
            .iter()
            .filter(|tx| !censor.is_some_and(|c| c.contains(&tx.id)) && !skip(tx.id))
            .take(max)
            .cloned()
            .collect();
        self.reserved = batch.iter().map(|tx| tx.id).collect();
        batch
    }

    /// Books a finalized block's txs final here and removes the pending
    /// ones: a replica's only exit from its pool. Reports which of `ids`
    /// were pending, in the order given, and how many were already final
    /// here — one probe of the pending set per id.
    ///
    /// `seen` holds exactly the pending ids, so the pass over the pool is
    /// needed only when one of `ids` was pending here — rarely, since a
    /// client transaction waits in the one pool it was submitted to while
    /// every replica runs this for every block.
    pub fn remove_included<'a>(&mut self, ids: impl IntoIterator<Item = &'a TxId>) -> Included {
        let mut found = Included::default();
        for id in ids {
            if self.seen.remove(id) {
                self.reserved.remove(id);
                found.was_pending.push(*id);
            }
            if !self.final_here.insert(*id) {
                found.twice += 1;
            }
        }
        if !found.was_pending.is_empty() {
            self.pending.retain(|tx| self.seen.contains(&tx.id));
        }
        found
    }

    /// Whether `id` is currently pending.
    pub fn contains(&self, id: TxId) -> bool {
        self.seen.contains(&id)
    }

    /// How many ids this pool ever admitted (pending now or gone).
    pub fn admitted_len(&self) -> usize {
        self.admitted
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
    fn censoring_batch_skips_censored() {
        let mut mp = Mempool::new();
        for i in 0..5 {
            mp.submit(tx(i));
        }
        let censor: HashSet<TxId> = [TxId(1), TxId(2)].into_iter().collect();
        let batch = mp.batch(10, Some(&censor), |id| id == TxId(4));
        assert_eq!(batch.iter().map(|t| t.id.0).collect::<Vec<_>>(), vec![0, 3]);
        // Censored txs remain pending — they are withheld, not dropped —
        // and so does the batch itself.
        assert_eq!(mp.len(), 5);
        assert!((0..5).all(|i| mp.contains(TxId(i))));
    }

    #[test]
    fn remove_included_clears_pending() {
        let mut mp = Mempool::new();
        for i in 0..3 {
            mp.submit(tx(i));
        }
        let found = mp.remove_included(&[TxId(2), TxId(7), TxId(0)]);
        assert_eq!(found.was_pending, [TxId(2), TxId(0)], "block order");
        assert_eq!(found.twice, 0);
        assert_eq!(mp.remove_included(&[TxId(0)]).twice, 1);
        assert_eq!(mp.len(), 1);
        assert!(mp.contains(TxId(1)));
        assert_eq!(
            mp.push(tx(0)),
            Err(MempoolError::Final),
            "history survives inclusion"
        );
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
        // A retried submit of an already-included tx must read Final even
        // when the pool is at capacity — the client should stop retrying,
        // not back off.
        let mut mp = Mempool::bounded(1);
        mp.submit(tx(7));
        let _ = mp.take(1);
        mp.submit(tx(8));
        assert_eq!(mp.push(tx(7)), Err(MempoolError::Final));
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
    fn batch_respects_max_and_removes_nothing() {
        let mut mp = Mempool::new();
        for i in 0..10 {
            mp.submit(tx(i));
        }
        let batch = mp.batch(4, None, |_| false);
        assert_eq!(batch.len(), 4);
        assert_eq!(mp.len(), 10);
        // Unfinalized, the same txs come back in the next batch.
        assert_eq!(mp.batch(4, None, |_| false), batch);
    }

    #[test]
    fn a_batched_then_finalized_tx_leaves_and_frees_capacity_once() {
        let mut mp = Mempool::bounded(2);
        mp.submit(tx(0));
        mp.submit(tx(1));
        assert_eq!(mp.push(tx(2)), Err(MempoolError::Full));
        // The batch is in flight, no longer waiting: its slot is free.
        assert_eq!(mp.batch(1, None, |_| false).len(), 1);
        assert_eq!(mp.push(tx(2)), Ok(()));
        assert_eq!(mp.push(tx(3)), Err(MempoolError::Full));
        // Finalizing the reserved tx removes it but frees nothing more.
        mp.remove_included(&[TxId(0)]);
        assert!(!mp.contains(TxId(0)));
        assert_eq!(mp.len(), 2);
        assert_eq!(mp.push(tx(3)), Err(MempoolError::Full));
        assert_eq!(mp.push(tx(0)), Err(MempoolError::Final));
        assert_eq!(mp.push(tx(1)), Err(MempoolError::Duplicate));
        assert_eq!(mp.peak_len(), 2);
    }
}
