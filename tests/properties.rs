//! Property-based tests (proptest) over the core data structures and
//! invariants: chains, PoF soundness/completeness, signatures, quorum
//! arithmetic, the mempool, and simulator determinism.

use prft::core::{construct_proof, signed_ballot, verify_expose, Config, Phase};
use prft::crypto::{KeyRegistry, Sha256};
use prft::game::analytic;
use prft::types::{
    Block, Chain, Digest, Height, Mempool, MempoolError, NodeId, Round, Transaction, TxId,
};
use proptest::prelude::*;
use std::collections::HashSet;

// ---------------------------------------------------------------- chains

/// Appends `blocks` blocks to `c`, deterministically from a seed.
fn extend(c: &mut Chain, blocks: usize, seed: u8) {
    for _ in 0..blocks {
        let r = c.height();
        let tx = Transaction::new(r, NodeId(0), vec![seed]);
        let b = Block::new(Round(r + 1), c.tip(), NodeId(0), vec![tx]);
        c.append_tentative(b).unwrap();
    }
}

/// Builds a chain of `len` blocks deterministically from a seed.
fn chain_of(len: usize, seed: u8) -> Chain {
    let mut c = Chain::new(Block::genesis());
    extend(&mut c, len, seed);
    c
}

/// The structural definitions of the chain comparisons, block by block;
/// `Chain` answers the same questions from its cached digests.
mod structural {
    use super::*;

    fn blocks(c: &Chain) -> Vec<&Block> {
        c.iter().map(|e| &e.block).collect()
    }

    pub fn common_prefix_len(a: &Chain, b: &Chain) -> usize {
        let (a, b) = (blocks(a), blocks(b));
        a.iter().zip(&b).take_while(|(x, y)| x == y).count()
    }

    pub fn is_prefix_of(a: &Chain, b: &Chain) -> bool {
        a.len() <= b.len() && common_prefix_len(a, b) == a.len()
    }

    pub fn c_strict_ordering(a: &Chain, b: &Chain, c: usize) -> bool {
        let (shorter, longer) = if a.len() <= b.len() { (a, b) } else { (b, a) };
        is_prefix_of(&shorter.drop_suffix(c), &longer.drop_suffix(c))
    }

    pub fn find_fork(a: &Chain, b: &Chain, final_only: bool) -> Option<Height> {
        let upto = if final_only {
            a.final_height().min(b.final_height()) as usize + 1
        } else {
            a.len().min(b.len())
        };
        let first_difference = common_prefix_len(a, b);
        (first_difference < upto).then_some(Height(first_difference as u64))
    }
}

proptest! {
    /// `C^{⌊c}` never grows, never drops genesis, and is idempotent at 0.
    #[test]
    fn drop_suffix_is_monotone(len in 0usize..40, c in 0usize..50) {
        let chain = chain_of(len, 1);
        let dropped = chain.drop_suffix(c);
        prop_assert!(dropped.len() <= chain.len());
        prop_assert!(!dropped.is_empty());
        prop_assert_eq!(chain.drop_suffix(0).len(), chain.len());
        prop_assert!(dropped.is_prefix_of(&chain));
    }

    /// A prefix plus its extension always satisfies c-strict ordering, at
    /// every window size.
    #[test]
    fn shared_history_always_orders(len in 1usize..30, cut in 0usize..30, c in 0usize..5) {
        let long = chain_of(len, 2);
        let short = long.drop_suffix(cut.min(len));
        prop_assert!(Chain::c_strict_ordering(&short, &long, c));
    }

    /// Chains diverging only in their last block order at c ≥ 1 but not at
    /// c = 0; and the fork detector finds exactly the divergence height.
    #[test]
    fn divergence_is_windowed(common in 1usize..20) {
        let base = chain_of(common, 3);
        let mut a = base.clone();
        let mut b = base.clone();
        let tx_a = Transaction::new(900, NodeId(1), vec![1]);
        let tx_b = Transaction::new(901, NodeId(2), vec![2]);
        a.append_tentative(Block::new(Round(99), a.tip(), NodeId(1), vec![tx_a])).unwrap();
        b.append_tentative(Block::new(Round(99), b.tip(), NodeId(2), vec![tx_b])).unwrap();
        prop_assert!(!Chain::c_strict_ordering(&a, &b, 0));
        prop_assert!(Chain::c_strict_ordering(&a, &b, 1));
        prop_assert_eq!(Chain::find_fork(&a, &b, false), Some(Height(common as u64 + 1)));
        // Tentative divergence is not a final fork.
        prop_assert_eq!(Chain::find_fork(&a, &b, true), None);
    }

    /// The digest-based comparisons agree with the structural definitions
    /// on equal, prefix, forked and different-length pairs, at every
    /// window size that can matter.
    #[test]
    fn digest_comparisons_match_the_structural_ones(
        lens in (0usize..10, 0usize..5, 0usize..5),
        forked in any::<bool>(),
        finalized in (0usize..15, 0usize..15),
    ) {
        let (common, ext_a, ext_b) = lens;
        let (mut a, mut b) = (chain_of(common, 5), chain_of(common, 5));
        extend(&mut a, ext_a, 6);
        extend(&mut b, ext_b, if forked { 7 } else { 6 });
        a.finalize_upto(Height(finalized.0.min(common + ext_a) as u64)).unwrap();
        b.finalize_upto(Height(finalized.1.min(common + ext_b) as u64)).unwrap();
        for (x, y) in [(&a, &b), (&b, &a), (&a, &a)] {
            prop_assert_eq!(x.is_prefix_of(y), structural::is_prefix_of(x, y));
            prop_assert_eq!(x.common_prefix_len(y), structural::common_prefix_len(x, y));
            for final_only in [false, true] {
                prop_assert_eq!(
                    Chain::find_fork(x, y, final_only),
                    structural::find_fork(x, y, final_only)
                );
            }
            for c in [0, 1, 2, x.len()] {
                prop_assert_eq!(
                    Chain::c_strict_ordering(x, y, c),
                    structural::c_strict_ordering(x, y, c)
                );
            }
        }
        if forked && ext_a > 0 && ext_b > 0 {
            prop_assert_eq!(Chain::find_fork(&a, &b, false), Some(Height(common as u64 + 1)));
        }
    }

    /// finalize → rollback keeps exactly the finalized prefix.
    #[test]
    fn rollback_keeps_final_prefix(len in 1usize..30, fin in 0usize..30) {
        let mut c = chain_of(len, 4);
        let fin = fin.min(len);
        c.finalize_upto(Height(fin as u64)).unwrap();
        let rolled = c.rollback_tentative();
        prop_assert_eq!(rolled.len(), len - fin);
        prop_assert_eq!(c.height(), fin as u64);
        prop_assert_eq!(c.final_height(), fin as u64);
    }
}

// ------------------------------------------------------------ PoF / crypto

proptest! {
    /// Completeness: every double-signer (and nobody else) is convicted,
    /// for arbitrary cheat patterns.
    #[test]
    fn pof_complete_and_sound(n in 2usize..12, cheat_mask in 0u16..4096) {
        let (registry, keys) = KeyRegistry::trusted_setup(n, 9);
        let va = Digest::of_bytes(b"a");
        let vb = Digest::of_bytes(b"b");
        let mut ballots = Vec::new();
        let mut cheaters = Vec::new();
        for (i, key) in keys.iter().enumerate() {
            ballots.push(signed_ballot(key, Round(1), Phase::Commit, va));
            if cheat_mask & (1 << i) != 0 {
                ballots.push(signed_ballot(key, Round(1), Phase::Commit, vb));
                cheaters.push(NodeId(i));
            }
        }
        let proof = construct_proof(&ballots);
        let convicted: Vec<NodeId> = proof.iter().map(|e| e.accused()).collect();
        prop_assert_eq!(&convicted, &cheaters);
        // The verifier agrees and applies the > t0 bar exactly.
        for t0 in 0..n {
            let verdict = verify_expose(&proof, &registry, t0);
            prop_assert_eq!(verdict.is_some(), cheaters.len() > t0);
        }
    }

    /// Signatures from one setup never verify under another, and tampering
    /// any byte of the payload breaks verification.
    #[test]
    fn signature_isolation(seed_a in 0u64..1000, seed_b in 1000u64..2000, v in any::<[u8; 8]>()) {
        let (reg_a, keys_a) = KeyRegistry::trusted_setup(3, seed_a);
        let (_, keys_b) = KeyRegistry::trusted_setup(3, seed_b);
        let value = Digest::of_bytes(&v);
        let fine = signed_ballot(&keys_a[0], Round(1), Phase::Vote, value);
        prop_assert!(fine.verify(&reg_a));
        let foreign = signed_ballot(&keys_b[0], Round(1), Phase::Vote, value);
        prop_assert!(!foreign.verify(&reg_a));
        let mut tampered = fine.clone();
        tampered.payload.value = Digest::of_bytes(b"other");
        prop_assert!(!tampered.verify(&reg_a));
    }

    /// SHA-256 streaming equals one-shot for arbitrary data and splits.
    #[test]
    fn sha256_streaming(data in proptest::collection::vec(any::<u8>(), 0..512), cut in 0usize..512) {
        let cut = cut.min(data.len());
        let mut h = Sha256::new();
        h.update(&data[..cut]);
        h.update(&data[cut..]);
        prop_assert_eq!(h.finalize(), Sha256::digest(&data));
    }
}

// ------------------------------------------------------------ quorum math

proptest! {
    /// For every committee size: pRFT's quorum intersects itself in more
    /// than t0 players, the τ window is nonempty, and a double quorum is
    /// infeasible at the threat model's boundary.
    #[test]
    fn quorum_arithmetic_holds(n in 2usize..300) {
        let cfg = Config::for_committee(n);
        let q = cfg.quorum();
        prop_assert!(2 * q as i64 - n as i64 > cfg.t0 as i64);
        let (lo, hi) = analytic::tau_window(n, cfg.t0);
        prop_assert!(lo <= hi, "window nonempty: [{}, {}]", lo, hi);
        prop_assert!(analytic::tau_is_safe(n, cfg.t0, q));
        if n >= 5 {
            let kt_max = n.div_ceil(2) - 1;
            prop_assert!(!analytic::double_quorum_feasible(n, cfg.t0, kt_max, 0));
        }
    }

    /// Leader rotation is a bijection over each window of n rounds.
    #[test]
    fn leader_rotation_is_fair(n in 1usize..50, offset in 0u64..1000) {
        let leaders: std::collections::HashSet<NodeId> =
            (0..n as u64).map(|i| Round(offset + i).leader(n)).collect();
        prop_assert_eq!(leaders.len(), n);
    }
}

// ------------------------------------------------------------- mempool

/// The mempool as the plain lists its documentation describes.
#[derive(Default)]
struct PoolModel {
    pending: Vec<u64>,
    /// The latest batch's ids that are still pending.
    reserved: Vec<u64>,
    /// Every id ever admitted.
    ever: Vec<u64>,
    /// The ids final here: every id of a finalized block, and every id
    /// taken.
    finals: Vec<u64>,
    capacity: Option<usize>,
    peak: usize,
    rejected_full: u64,
}

impl PoolModel {
    fn push(&mut self, id: u64) -> Result<(), MempoolError> {
        if self.pending.contains(&id) {
            return Err(MempoolError::Duplicate);
        }
        if self.finals.contains(&id) {
            return Err(MempoolError::Final);
        }
        if self.capacity.is_some_and(|cap| self.waiting() >= cap) {
            self.rejected_full += 1;
            return Err(MempoolError::Full);
        }
        self.pending.push(id);
        self.ever.push(id);
        self.peak = self.peak.max(self.waiting());
        Ok(())
    }

    fn waiting(&self) -> usize {
        self.pending.len() - self.reserved.len()
    }

    fn take(&mut self, max: usize) -> Vec<u64> {
        let batch: Vec<u64> = self.pending.drain(..max.min(self.pending.len())).collect();
        self.reserved.retain(|id| !batch.contains(id));
        self.finals.extend(&batch);
        batch
    }

    fn batch(&mut self, max: usize, skipped: impl Fn(u64) -> bool) -> Vec<u64> {
        let batch: Vec<u64> = self
            .pending
            .iter()
            .copied()
            .filter(|&id| !skipped(id))
            .take(max)
            .collect();
        self.reserved = batch.clone();
        batch
    }

    /// Returns how many of `block`'s ids were already final.
    fn remove_included(&mut self, block: &[TxId]) -> u64 {
        self.pending.retain(|id| !block.contains(&TxId(*id)));
        self.reserved.retain(|id| !block.contains(&TxId(*id)));
        let fresh: Vec<u64> = block
            .iter()
            .map(|id| id.0)
            .filter(|id| !self.finals.contains(id))
            .collect();
        self.finals.extend(&fresh);
        (block.len() - fresh.len()) as u64
    }
}

proptest! {
    /// Model-based: random `push` / `take` / `batch` / `remove_included`
    /// (pending, already-taken and never-seen ids mixed) leave the pool
    /// indistinguishable from the naive model — same batches in the same
    /// FIFO order, same bookkeeping, `Duplicate` and `Final` before `Full`,
    /// and capacity and peak over the txs outside the latest batch.
    #[test]
    fn mempool_invariants(
        capacity in 0usize..12,
        ops in proptest::collection::vec((0u8..8, 0u64..40, 0usize..6), 0..120),
    ) {
        let ids = |batch: &[Transaction]| batch.iter().map(|tx| tx.id.0).collect::<Vec<_>>();
        let capacity = (capacity > 0).then_some(capacity);
        let mut mp = Mempool::new();
        mp.set_capacity(capacity);
        let mut model = PoolModel { capacity, ..PoolModel::default() };
        for (kind, id, k) in ops {
            match kind {
                0..=3 => {
                    let pushed = mp.push(Transaction::new(id, NodeId(0), vec![]));
                    prop_assert_eq!(pushed, model.push(id));
                }
                4 => prop_assert_eq!(ids(&mp.take(k)), model.take(k)),
                5 => {
                    // Censor three ids (none for an even `id`) and skip
                    // every id in the residue class of `k` mod 5.
                    let censor_set: HashSet<TxId> = (id..id + 3).map(TxId).collect();
                    let censor = (id % 2 == 1).then_some(&censor_set);
                    let skip = |tx: TxId| tx.0 % 5 == k as u64;
                    prop_assert_eq!(
                        ids(&mp.batch(k, censor, skip)),
                        model.batch(k, |i| censor.is_some_and(|c| c.contains(&TxId(i))) || skip(TxId(i)))
                    );
                }
                _ => {
                    // Ids from 40 up are never pushed.
                    let block: Vec<TxId> = (0..=k as u64).map(|i| TxId(id + 9 * i)).collect();
                    prop_assert_eq!(mp.remove_included(&block), model.remove_included(&block));
                }
            }
            prop_assert_eq!(mp.iter().map(|tx| tx.id.0).collect::<Vec<_>>(), model.pending.clone());
            prop_assert_eq!(mp.len(), model.pending.len());
            prop_assert_eq!(mp.peak_len(), model.peak);
            prop_assert_eq!(mp.rejected_full(), model.rejected_full);
            for id in 0..90 {
                prop_assert_eq!(mp.contains(TxId(id)), model.pending.contains(&id));
            }
            prop_assert_eq!(mp.admitted_len(), model.ever.len());
        }
    }
}

// ------------------------------------------------ simulator determinism

proptest! {
    // Whole-protocol runs are expensive; a handful of random cases is
    // plenty for a determinism check.
    #![proptest_config(ProptestConfig::with_cases(12))]

    /// Any seed and committee size replays identically (two fresh sims).
    #[test]
    fn simulation_is_deterministic(seed in 0u64..500, n in 4usize..10) {
        use prft::core::{Harness, NetworkChoice};
        use prft::sim::SimTime;
        let run = || {
            let mut sim = Harness::new(n, seed)
                .network(NetworkChoice::PartiallySynchronous {
                    gst: SimTime(300),
                    delta: SimTime(10),
                })
                .max_rounds(2)
                .build();
            sim.run_until(SimTime(1_000_000));
            (
                sim.meter().total_messages(),
                sim.meter().total_bytes(),
                sim.node(NodeId(0)).chain().tip(),
            )
        };
        prop_assert_eq!(run(), run());
    }
}
