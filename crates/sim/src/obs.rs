//! Deterministic observability: counter registry and cross-crate hot-path
//! hooks.
//!
//! The paper's cost claims (Table 3: `O(n³)` messages, `O(κ·n⁴)` bits; the
//! accountable path's `O(n³κ)` Reveal payloads) are only actionable if a
//! run can *report* where those costs land. This module provides two
//! deterministic layers (wall-clock attribution is measured from outside,
//! by the `benchmark/` ledger):
//!
//! 1. [`ObsRegistry`] — named monotone counters and high-water gauges.
//!    Registries merge order-independently (counters add, gauges max), so
//!    a batch aggregated over seeds is byte-identical at any `--threads`
//!    and across queue backends.
//! 2. [`hooks`] — thread-local `Cell<u64>` counters for the crypto hot
//!    paths in *other* crates (signature verification, the verify memo),
//!    which cannot see the simulation, so no `&mut` state is threaded
//!    through every call site. Each seeded run executes entirely on one
//!    worker thread, so `reset()` before / `snapshot()` after a run yields
//!    exact per-run deltas.

use std::cell::Cell;
use std::collections::BTreeMap;

/// Named monotone counters and high-water gauges for one run (or an
/// order-independent aggregate of many runs).
///
/// Keys are dotted paths (`crypto.sig_verifies`, `recv.P3.Vote.msgs`);
/// iteration order is always alphabetical, so rendering a registry is
/// deterministic. See `docs/OBSERVABILITY.md` for the full catalog.
#[derive(Debug, Clone, Default, PartialEq, Eq)]
pub struct ObsRegistry {
    counters: BTreeMap<String, u64>,
    gauges: BTreeMap<String, u64>,
}

impl ObsRegistry {
    /// An empty registry.
    pub fn new() -> Self {
        ObsRegistry::default()
    }

    /// Adds `delta` to the monotone counter `name` (creating it at zero).
    pub fn add(&mut self, name: &str, delta: u64) {
        *self.counters.entry(name.to_string()).or_insert(0) += delta;
    }

    /// Raises the gauge `name` to `value` if that is a new high-water mark.
    pub fn gauge_max(&mut self, name: &str, value: u64) {
        let g = self.gauges.entry(name.to_string()).or_insert(0);
        *g = (*g).max(value);
    }

    /// Current value of a counter (zero if never touched).
    pub fn counter(&self, name: &str) -> u64 {
        self.counters.get(name).copied().unwrap_or(0)
    }

    /// Current value of a gauge (zero if never touched).
    pub fn gauge(&self, name: &str) -> u64 {
        self.gauges.get(name).copied().unwrap_or(0)
    }

    /// Merges `other` into `self`: counters add, gauges take the max.
    ///
    /// Merging is commutative and associative, which is what makes the
    /// aggregated `observability` report section independent of worker
    /// scheduling.
    pub fn merge(&mut self, other: &ObsRegistry) {
        for (k, v) in &other.counters {
            *self.counters.entry(k.clone()).or_insert(0) += v;
        }
        for (k, v) in &other.gauges {
            let g = self.gauges.entry(k.clone()).or_insert(0);
            *g = (*g).max(*v);
        }
    }

    /// Iterates counters in alphabetical key order.
    pub fn counters(&self) -> impl Iterator<Item = (&str, u64)> + '_ {
        self.counters.iter().map(|(k, v)| (k.as_str(), *v))
    }

    /// Iterates gauges in alphabetical key order.
    pub fn gauges(&self) -> impl Iterator<Item = (&str, u64)> + '_ {
        self.gauges.iter().map(|(k, v)| (k.as_str(), *v))
    }

    /// Whether no counter or gauge has ever been touched.
    pub fn is_empty(&self) -> bool {
        self.counters.is_empty() && self.gauges.is_empty()
    }
}

/// Thread-local hot-path counters incremented from other crates.
///
/// These exist so that `KeyRegistry::verify` (called up to ~10⁸ times at
/// accountable n=128) pays one `Cell` increment — no allocation, no map
/// lookup, no `&mut` plumbing. The batch runner processes each seeded run
/// entirely inside one closure on one thread, so the reset/snapshot
/// discipline in `run_one` captures exact per-run deltas.
pub mod hooks {
    use super::Cell;

    thread_local! {
        static SIG_VERIFIES: Cell<u64> = const { Cell::new(0) };
        static MEMO_HITS: Cell<u64> = const { Cell::new(0) };
        static MEMO_MISSES: Cell<u64> = const { Cell::new(0) };
    }

    /// Point-in-time copy of this thread's hook counters.
    ///
    /// Values are cumulative since the last [`reset`] on the same thread.
    #[derive(Debug, Clone, Copy, Default, PartialEq, Eq)]
    pub struct HookSnapshot {
        /// Signature verifications performed (`KeyRegistry::verify` calls),
        /// plus verifications *answered from* a memo cache — the logical
        /// verify count, identical across `VerifyMode`s.
        pub sig_verifies: u64,
        /// Logical verifications replayed from a seat's certificate table
        /// (a verdict it reached on the same certificate allocation
        /// before). Zero on the reference path.
        pub memo_hits: u64,
        /// Every other logical verification through a seat's verify memo,
        /// whether the seat compared the signature or another seat had
        /// already proved the certificate it arrived in. Zero on the
        /// reference path.
        pub memo_misses: u64,
    }

    /// Counts one signature verification. Called by `prft-crypto`.
    #[inline]
    pub fn count_sig_verify() {
        SIG_VERIFIES.with(|c| c.set(c.get() + 1));
    }

    /// Accounts `k` logical signature verifications at once. Used when a
    /// memo-cache hit stands in for `k` stored verifications: one batched
    /// add instead of `k` cell bumps keeps the fast path fast while the
    /// logical `sig_verifies` total stays identical to the slow path.
    #[inline]
    pub fn add_sig_verifies(k: u64) {
        SIG_VERIFIES.with(|c| c.set(c.get() + k));
    }

    /// Accounts `k` memo-cache hits (logical verifies replayed from a
    /// certificate table).
    #[inline]
    pub fn add_memo_hits(k: u64) {
        MEMO_HITS.with(|c| c.set(c.get() + k));
    }

    /// Accounts `k` memo-cache misses (logical verifies not replayed).
    #[inline]
    pub fn add_memo_misses(k: u64) {
        MEMO_MISSES.with(|c| c.set(c.get() + k));
    }

    /// Reads this thread's current hook counters.
    pub fn snapshot() -> HookSnapshot {
        HookSnapshot {
            sig_verifies: SIG_VERIFIES.with(|c| c.get()),
            memo_hits: MEMO_HITS.with(|c| c.get()),
            memo_misses: MEMO_MISSES.with(|c| c.get()),
        }
    }

    /// Zeroes this thread's hook counters (call before a measured run).
    pub fn reset() {
        SIG_VERIFIES.with(|c| c.set(0));
        MEMO_HITS.with(|c| c.set(0));
        MEMO_MISSES.with(|c| c.set(0));
    }

    /// Overwrites this thread's hook counters with a previously captured
    /// [`HookSnapshot`] — the hook half of checkpoint restore. A forked
    /// run calls `restore(prefix_hooks)` where a fresh run would call
    /// [`reset`], so the counters resume exactly where the prefix left
    /// them and the post-run [`snapshot`] delta matches an uninterrupted
    /// run's.
    pub fn restore(s: HookSnapshot) {
        SIG_VERIFIES.with(|c| c.set(s.sig_verifies));
        MEMO_HITS.with(|c| c.set(s.memo_hits));
        MEMO_MISSES.with(|c| c.set(s.memo_misses));
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn counters_accumulate_and_gauges_take_max() {
        let mut r = ObsRegistry::new();
        r.add("a.count", 2);
        r.add("a.count", 3);
        r.gauge_max("a.peak", 7);
        r.gauge_max("a.peak", 4);
        assert_eq!(r.counter("a.count"), 5);
        assert_eq!(r.gauge("a.peak"), 7);
        assert_eq!(r.counter("missing"), 0);
        assert_eq!(r.gauge("missing"), 0);
    }

    #[test]
    fn merge_is_order_independent() {
        let mut a = ObsRegistry::new();
        a.add("x", 1);
        a.gauge_max("g", 10);
        let mut b = ObsRegistry::new();
        b.add("x", 2);
        b.add("y", 5);
        b.gauge_max("g", 3);

        let mut ab = ObsRegistry::new();
        ab.merge(&a);
        ab.merge(&b);
        let mut ba = ObsRegistry::new();
        ba.merge(&b);
        ba.merge(&a);
        assert_eq!(ab, ba);
        assert_eq!(ab.counter("x"), 3);
        assert_eq!(ab.counter("y"), 5);
        assert_eq!(ab.gauge("g"), 10);
    }

    #[test]
    fn iteration_is_alphabetical() {
        let mut r = ObsRegistry::new();
        r.add("b", 1);
        r.add("a", 1);
        r.gauge_max("z", 1);
        r.gauge_max("m", 1);
        let ks: Vec<&str> = r.counters().map(|(k, _)| k).collect();
        assert_eq!(ks, vec!["a", "b"]);
        let gs: Vec<&str> = r.gauges().map(|(k, _)| k).collect();
        assert_eq!(gs, vec!["m", "z"]);
        assert!(!r.is_empty());
        assert!(ObsRegistry::new().is_empty());
    }

    #[test]
    fn hook_reset_and_snapshot_round_trip() {
        hooks::reset();
        hooks::count_sig_verify();
        hooks::count_sig_verify();
        hooks::add_memo_hits(3);
        hooks::add_memo_misses(4);
        let s = hooks::snapshot();
        assert_eq!(s.sig_verifies, 2);
        assert_eq!(s.memo_hits, 3);
        assert_eq!(s.memo_misses, 4);
        hooks::reset();
        assert_eq!(hooks::snapshot(), hooks::HookSnapshot::default());
    }

    #[test]
    fn batched_sig_verify_adds_match_single_counts() {
        hooks::reset();
        hooks::count_sig_verify();
        hooks::add_sig_verifies(41);
        assert_eq!(hooks::snapshot().sig_verifies, 42);
        hooks::reset();
    }
}
