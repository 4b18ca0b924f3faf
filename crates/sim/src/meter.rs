//! Message metering: per-kind counts and byte totals, sent and delivered.
//!
//! The paper's Table 3 reports message complexity (`O(n³)`) and message size
//! (`O(κ·n⁴)`). Every protocol message type implements [`WireMessage`] so
//! the engine can account counts and bytes without the protocol's help:
//! once at each send, and once at each dispatched delivery, per receiver.

use prft_types::NodeId;
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
    /// Number of point-to-point messages of this kind.
    pub count: u64,
    /// Total wire bytes across those messages.
    pub bytes: u64,
}

/// A run's wire ledger: every send by kind, and every dispatched delivery
/// by receiver and kind (a delivery a crashed receiver discards is sent
/// but never received).
#[derive(Debug, Clone, Default)]
pub struct Meter {
    kinds: BTreeMap<&'static str, KindStats>,
    /// By receiver seat: a short list, one entry per kind it was
    /// delivered — a node sees a handful of kinds, and a workload run
    /// hosts thousands of client nodes, so no map per node.
    received: Vec<Vec<(&'static str, KindStats)>>,
}

impl Meter {
    /// Creates an empty meter.
    pub fn new() -> Self {
        Meter::default()
    }

    /// Records `copies` point-to-point sends of `bytes` each for `kind` —
    /// one unicast, or one broadcast in a single entry lookup.
    pub fn record(&mut self, kind: &'static str, bytes: usize, copies: u64) {
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

    /// Records one delivery of `bytes` for `kind`, dispatched to `to`.
    pub(crate) fn record_delivery(&mut self, to: NodeId, kind: &'static str, bytes: usize) {
        if self.received.len() <= to.0 {
            self.received.resize_with(to.0 + 1, Vec::new);
        }
        let seen = &mut self.received[to.0];
        // A kind is one `&'static str` per `kind()` arm: compare addresses
        // first, text only if that misses.
        let at = (seen.iter().position(|&(k, _)| std::ptr::eq(k, kind)))
            .or_else(|| seen.iter().position(|&(k, _)| k == kind))
            .unwrap_or_else(|| {
                seen.reserve_exact(1); // a client only ever sees a kind or two
                seen.push((kind, KindStats::default()));
                seen.len() - 1
            });
        seen[at].1.count += 1;
        seen[at].1.bytes += bytes as u64;
    }

    /// What `node` was delivered, per kind, in order of first delivery.
    pub fn received(&self, node: NodeId) -> &[(&'static str, KindStats)] {
        self.received.get(node.0).map_or(&[], Vec::as_slice)
    }

    /// Every delivery, per kind over all receivers, in order of first
    /// appearance. A run has a handful of kinds and may have thousands of
    /// receivers, so the fold scans a short list.
    pub(crate) fn delivered(&self) -> Vec<(&'static str, KindStats)> {
        let mut total: Vec<(&'static str, KindStats)> = Vec::new();
        for &(kind, got) in self.received.iter().flatten() {
            match total.iter().position(|&(k, _)| k == kind) {
                Some(i) => {
                    total[i].1.count += got.count;
                    total[i].1.bytes += got.bytes;
                }
                None => total.push((kind, got)),
            }
        }
        total
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn record_accumulates() {
        let mut m = Meter::new();
        m.record("Vote", 10, 1);
        m.record("Vote", 20, 1);
        m.record("Commit", 5, 1);
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
            one_by_one.record("Vote", 12, 1);
        }
        let mut at_once = Meter::new();
        at_once.record("Vote", 12, 5);
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
        m.record("b", 1, 1);
        m.record("a", 1, 1);
        let kinds: Vec<&str> = m.iter().map(|(k, _)| k).collect();
        assert_eq!(kinds, vec!["a", "b"]);
    }

    #[test]
    fn deliveries_are_recorded_per_receiver_and_kind() {
        let mut m = Meter::new();
        m.record_delivery(NodeId(2), "Vote", 10);
        m.record_delivery(NodeId(2), "Commit", 5);
        m.record_delivery(NodeId(2), "Vote", 20);
        // The same text at another address is the same kind.
        m.record_delivery(NodeId(2), String::from("Vote").leak(), 1);
        let vote = KindStats {
            count: 3,
            bytes: 31,
        };
        let commit = KindStats { count: 1, bytes: 5 };
        assert_eq!(m.received(NodeId(2)), [("Vote", vote), ("Commit", commit)]);
        assert!(m.received(NodeId(0)).is_empty());
        assert!(m.received(NodeId(9)).is_empty());
        assert_eq!(m.total_messages(), 0, "a delivery is not a send");
    }
}
