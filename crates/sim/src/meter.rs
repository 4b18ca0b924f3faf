//! Message metering: per-kind counts and byte totals.
//!
//! The paper's Table 3 reports message complexity (`O(n³)`) and message size
//! (`O(κ·n⁴)`). Every protocol message type implements [`WireMessage`] so
//! the engine can account counts and bytes without the protocol's help.

use std::collections::BTreeMap;

/// A message that can be metered on the wire.
pub trait WireMessage {
    /// A short static label ("Propose", "Vote", …) used for grouping.
    fn kind(&self) -> &'static str;
    /// Wire size in bytes. Signatures count κ bytes each
    /// (`prft_crypto::KAPPA`); certificates count the sum of their parts.
    fn wire_bytes(&self) -> usize;
    /// Bytes this process actually copies when the engine clones the
    /// message for broadcast fan-out. Defaults to [`wire_bytes`]: a plain
    /// value clones its full wire size. Messages whose certificate bodies
    /// are behind `Arc`s override this with the handle cost (8 bytes per
    /// shared body), which is what the `engine.clone_bytes` counter then
    /// records — wire accounting (`send.*`/`recv.*`) is untouched, since
    /// a real network would still ship the full payload.
    ///
    /// [`wire_bytes`]: WireMessage::wire_bytes
    fn clone_cost_bytes(&self) -> usize {
        self.wire_bytes()
    }
}

/// Counters for a single message kind.
#[derive(Debug, Clone, Copy, Default, PartialEq, Eq)]
pub struct KindStats {
    /// Number of point-to-point deliveries of this kind.
    pub count: u64,
    /// Total wire bytes across those deliveries.
    pub bytes: u64,
}

/// Aggregated meter over a simulation run.
#[derive(Debug, Clone, Default)]
pub struct Meter {
    kinds: BTreeMap<&'static str, KindStats>,
}

impl Meter {
    /// Creates an empty meter.
    pub fn new() -> Self {
        Meter::default()
    }

    /// Records one point-to-point send of `bytes` for `kind`.
    pub fn record(&mut self, kind: &'static str, bytes: usize) {
        self.record_fanout(kind, bytes, 1);
    }

    /// Records `copies` point-to-point sends of `bytes` each for `kind` —
    /// one broadcast — in a single entry lookup.
    pub fn record_fanout(&mut self, kind: &'static str, bytes: usize, copies: u64) {
        let e = self.kinds.entry(kind).or_default();
        e.count += copies;
        e.bytes += bytes as u64 * copies;
    }

    /// Stats for one kind (zero if never seen).
    pub fn kind(&self, kind: &str) -> KindStats {
        self.kinds.get(kind).copied().unwrap_or_default()
    }

    /// Total messages across all kinds.
    pub fn total_messages(&self) -> u64 {
        self.kinds.values().map(|s| s.count).sum()
    }

    /// Total bytes across all kinds.
    pub fn total_bytes(&self) -> u64 {
        self.kinds.values().map(|s| s.bytes).sum()
    }

    /// Iterates kinds in stable (alphabetical) order.
    pub fn iter(&self) -> impl Iterator<Item = (&'static str, KindStats)> + '_ {
        self.kinds.iter().map(|(k, v)| (*k, *v))
    }

    /// Resets all counters (e.g. between warm-up and measured rounds).
    pub fn reset(&mut self) {
        self.kinds.clear();
    }

    /// Merges another meter into this one.
    pub fn merge(&mut self, other: &Meter) {
        for (k, s) in other.iter() {
            let e = self.kinds.entry(k).or_default();
            e.count += s.count;
            e.bytes += s.bytes;
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn record_accumulates() {
        let mut m = Meter::new();
        m.record("Vote", 10);
        m.record("Vote", 20);
        m.record("Commit", 5);
        assert_eq!(
            m.kind("Vote"),
            KindStats {
                count: 2,
                bytes: 30
            }
        );
        assert_eq!(m.total_messages(), 3);
        assert_eq!(m.total_bytes(), 35);
    }

    #[test]
    fn a_fanout_records_like_that_many_sends() {
        let mut one_by_one = Meter::new();
        for _ in 0..5 {
            one_by_one.record("Vote", 12);
        }
        let mut at_once = Meter::new();
        at_once.record_fanout("Vote", 12, 5);
        assert_eq!(at_once.kind("Vote"), one_by_one.kind("Vote"));
    }

    #[test]
    fn unknown_kind_is_zero() {
        let m = Meter::new();
        assert_eq!(m.kind("Nope"), KindStats::default());
    }

    #[test]
    fn iteration_is_stable() {
        let mut m = Meter::new();
        m.record("b", 1);
        m.record("a", 1);
        let kinds: Vec<&str> = m.iter().map(|(k, _)| k).collect();
        assert_eq!(kinds, vec!["a", "b"]);
    }

    #[test]
    fn merge_and_reset() {
        let mut a = Meter::new();
        a.record("x", 1);
        let mut b = Meter::new();
        b.record("x", 2);
        b.record("y", 3);
        a.merge(&b);
        assert_eq!(a.kind("x"), KindStats { count: 2, bytes: 3 });
        a.reset();
        assert_eq!(a.total_messages(), 0);
    }
}
