//! Network partitions: cross-group traffic is *held*, never dropped.
//!
//! The impossibility proofs (Claim 1, Theorem 3, Lemma 4) all reason about
//! partitions of the honest players into sets `A`, `B` that communicate only
//! through the adversary. In a partially synchronous network a partition is
//! just a period of very high delay, which is exactly how we model it:
//! messages crossing the partition during an active window are released when
//! the window closes and then travel under the wrapped model.

use prft_sim::{LinkModel, SimRng, SimTime};
use prft_types::NodeId;

/// A time window during which the committee is split into groups.
///
/// Nodes not mentioned in any group form one implicit "rest" group (so
/// isolating `{P0}` from everyone else is `split(start, end, vec![vec![P0]])`).
#[derive(Debug, Clone)]
pub struct PartitionWindow {
    start: SimTime,
    end: SimTime,
    groups: Vec<Vec<NodeId>>,
    bridges: Vec<NodeId>,
}

impl PartitionWindow {
    /// Creates a window `[start, end)` splitting the committee into `groups`.
    ///
    /// # Panics
    /// Panics if `start >= end` or a node appears in two groups.
    pub fn split(start: SimTime, end: SimTime, groups: Vec<Vec<NodeId>>) -> Self {
        Self::split_with_bridges(start, end, groups, Vec::new())
    }

    /// Like [`PartitionWindow::split`], but `bridges` communicate with
    /// everyone throughout the window.
    ///
    /// This is the paper's partition model: the honest subsets `A` and `B`
    /// are "unable to communicate with each other except through the set of
    /// adversaries T" — the adversaries are the bridges.
    ///
    /// # Panics
    /// Panics if `start >= end` or a node appears in two groups.
    pub fn split_with_bridges(
        start: SimTime,
        end: SimTime,
        groups: Vec<Vec<NodeId>>,
        bridges: Vec<NodeId>,
    ) -> Self {
        assert!(start < end, "window must have positive length");
        let mut seen = std::collections::HashSet::new();
        for g in &groups {
            for node in g {
                assert!(seen.insert(*node), "{node} appears in two groups");
            }
        }
        PartitionWindow {
            start,
            end,
            groups,
            bridges,
        }
    }

    /// The window's end (heal) time.
    pub fn end(&self) -> SimTime {
        self.end
    }

    fn group_of(&self, node: NodeId) -> Option<usize> {
        self.groups.iter().position(|g| g.contains(&node))
    }

    /// Whether `a` and `b` cannot communicate at time `at` under this window.
    fn separates(&self, a: NodeId, b: NodeId, at: SimTime) -> bool {
        if at < self.start || at >= self.end {
            return false;
        }
        if self.bridges.contains(&a) || self.bridges.contains(&b) {
            return false;
        }
        self.group_of(a) != self.group_of(b)
    }
}

/// Wraps a [`LinkModel`], holding cross-partition traffic until heal time.
pub struct PartitionedNet {
    inner: Box<dyn LinkModel>,
    windows: Vec<PartitionWindow>,
}

impl PartitionedNet {
    /// Wraps `inner` with no partitions yet.
    pub fn new(inner: Box<dyn LinkModel>) -> Self {
        PartitionedNet {
            inner,
            windows: Vec::new(),
        }
    }

    /// Adds a partition window. Overlapping windows compose: a message is
    /// held until every window separating its endpoints has closed.
    pub fn add_window(&mut self, window: PartitionWindow) -> &mut Self {
        self.windows.push(window);
        self
    }
}

impl LinkModel for PartitionedNet {
    fn deliver_at(&mut self, from: NodeId, to: NodeId, sent: SimTime, rng: &mut SimRng) -> SimTime {
        // A held message re-enters the network at the heal time; iterate in
        // case the release lands inside another separating window.
        let mut depart = sent;
        loop {
            let held_until = self
                .windows
                .iter()
                .filter(|w| w.separates(from, to, depart))
                .map(|w| w.end())
                .max();
            match held_until {
                Some(t) if t > depart => depart = t,
                _ => break,
            }
        }
        self.inner.deliver_at(from, to, depart, rng)
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use prft_sim::ConstantDelay;

    fn net_with(windows: Vec<PartitionWindow>) -> PartitionedNet {
        let mut net = PartitionedNet::new(Box::new(ConstantDelay(SimTime(1))));
        for w in windows {
            net.add_window(w);
        }
        net
    }

    #[test]
    fn same_group_unaffected() {
        let mut net = net_with(vec![PartitionWindow::split(
            SimTime(0),
            SimTime(100),
            vec![vec![NodeId(0), NodeId(1)], vec![NodeId(2)]],
        )]);
        let mut rng = SimRng::new(1);
        assert_eq!(
            net.deliver_at(NodeId(0), NodeId(1), SimTime(10), &mut rng),
            SimTime(11)
        );
    }

    #[test]
    fn cross_group_held_until_heal() {
        let mut net = net_with(vec![PartitionWindow::split(
            SimTime(0),
            SimTime(100),
            vec![vec![NodeId(0)], vec![NodeId(1)]],
        )]);
        let mut rng = SimRng::new(1);
        assert_eq!(
            net.deliver_at(NodeId(0), NodeId(1), SimTime(10), &mut rng),
            SimTime(101),
            "released at heal (100) plus inner delay (1)"
        );
    }

    #[test]
    fn message_after_heal_unaffected() {
        let mut net = net_with(vec![PartitionWindow::split(
            SimTime(0),
            SimTime(100),
            vec![vec![NodeId(0)], vec![NodeId(1)]],
        )]);
        let mut rng = SimRng::new(1);
        assert_eq!(
            net.deliver_at(NodeId(0), NodeId(1), SimTime(100), &mut rng),
            SimTime(101)
        );
    }

    #[test]
    fn unlisted_nodes_form_rest_group() {
        let mut net = net_with(vec![PartitionWindow::split(
            SimTime(0),
            SimTime(50),
            vec![vec![NodeId(0)]],
        )]);
        let mut rng = SimRng::new(1);
        // 1 and 2 are both "rest": connected.
        assert_eq!(
            net.deliver_at(NodeId(1), NodeId(2), SimTime(0), &mut rng),
            SimTime(1)
        );
        // 0 is isolated from rest.
        assert_eq!(
            net.deliver_at(NodeId(0), NodeId(1), SimTime(0), &mut rng),
            SimTime(51)
        );
    }

    #[test]
    fn chained_windows_hold_repeatedly() {
        let mut net = net_with(vec![
            PartitionWindow::split(
                SimTime(0),
                SimTime(100),
                vec![vec![NodeId(0)], vec![NodeId(1)]],
            ),
            PartitionWindow::split(
                SimTime(100),
                SimTime(200),
                vec![vec![NodeId(0)], vec![NodeId(1)]],
            ),
        ]);
        let mut rng = SimRng::new(1);
        assert_eq!(
            net.deliver_at(NodeId(0), NodeId(1), SimTime(10), &mut rng),
            SimTime(201),
            "release at 100 lands in the second window, held to 200"
        );
    }

    #[test]
    fn bridges_cross_the_partition() {
        let mut net = net_with(vec![PartitionWindow::split_with_bridges(
            SimTime(0),
            SimTime(100),
            vec![vec![NodeId(1)], vec![NodeId(2)]],
            vec![NodeId(0)],
        )]);
        let mut rng = SimRng::new(1);
        // Bridge ↔ both groups: unimpeded.
        assert_eq!(
            net.deliver_at(NodeId(0), NodeId(1), SimTime(0), &mut rng),
            SimTime(1)
        );
        assert_eq!(
            net.deliver_at(NodeId(2), NodeId(0), SimTime(0), &mut rng),
            SimTime(1)
        );
        // Non-bridge cross traffic still held.
        assert_eq!(
            net.deliver_at(NodeId(1), NodeId(2), SimTime(0), &mut rng),
            SimTime(101)
        );
    }

    #[test]
    #[should_panic(expected = "appears in two groups")]
    fn duplicate_membership_rejected() {
        let _ = PartitionWindow::split(
            SimTime(0),
            SimTime(1),
            vec![vec![NodeId(0)], vec![NodeId(0)]],
        );
    }

    #[test]
    #[should_panic(expected = "positive length")]
    fn empty_window_rejected() {
        let _ = PartitionWindow::split(SimTime(5), SimTime(5), vec![]);
    }
}
