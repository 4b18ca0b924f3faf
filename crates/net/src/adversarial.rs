//! Adversarial message scheduling: targeted slow-downs.
//!
//! In partial synchrony the adversary controls delays before GST. Beyond the
//! blunt instrument of a partition, the impossibility constructions need
//! finer control — e.g. "delay every message *from honest players to the
//! other half* but let collusion traffic race ahead". [`TargetedDelay`]
//! wraps a base model and adds rule-based extra delay.
//!
//! The rule set is fixed before the simulation takes ownership of the
//! model. Rules carry their own absolute send-time windows and the
//! engine's clock is monotone, so "install a rule at tick `t`, lift it at
//! `t'`" *is* the rule over `[t, t')`: `prft-lab` resolves its scheduled
//! `AddDelayRule` / `RemoveDelayRule` events into windows at build time
//! and nothing mutates the model mid-run.

use prft_sim::{LinkModel, SimRng, SimTime};
use prft_types::NodeId;

/// One scheduling rule: during `[from_time, until_time)`, messages matching
/// the (sender, receiver) pattern get `extra` ticks of added delay.
///
/// `None` in `from`/`to` is a wildcard.
#[derive(Debug, Clone)]
pub struct DelayRule {
    /// Matching sender (wildcard if `None`).
    pub from: Option<NodeId>,
    /// Matching receiver (wildcard if `None`).
    pub to: Option<NodeId>,
    /// Window start.
    pub from_time: SimTime,
    /// Window end (exclusive).
    pub until_time: SimTime,
    /// Extra delay in ticks.
    pub extra: SimTime,
}

impl DelayRule {
    /// Rule slowing everything a given node *sends*.
    pub fn slow_sender(
        node: NodeId,
        from_time: SimTime,
        until_time: SimTime,
        extra: SimTime,
    ) -> Self {
        DelayRule {
            from: Some(node),
            to: None,
            from_time,
            until_time,
            extra,
        }
    }

    /// Rule slowing everything a given node *receives*.
    pub fn slow_receiver(
        node: NodeId,
        from_time: SimTime,
        until_time: SimTime,
        extra: SimTime,
    ) -> Self {
        DelayRule {
            from: None,
            to: Some(node),
            from_time,
            until_time,
            extra,
        }
    }

    fn matches(&self, from: NodeId, to: NodeId, at: SimTime) -> bool {
        self.from.is_none_or(|f| f == from)
            && self.to.is_none_or(|t| t == to)
            && at >= self.from_time
            && at < self.until_time
    }
}

/// A [`LinkModel`] wrapper applying [`DelayRule`]s on top of a base model.
///
/// Composes by wrapping: the base may itself be a `PartitionedNet` over a
/// synchrony flavour, in which case rules match on the original *send*
/// time and the extra delay lands on top of any partition hold.
pub struct TargetedDelay {
    inner: Box<dyn LinkModel>,
    rules: Vec<DelayRule>,
}

impl TargetedDelay {
    /// Wraps `inner` with no rules.
    pub fn new(inner: Box<dyn LinkModel>) -> Self {
        TargetedDelay {
            inner,
            rules: Vec::new(),
        }
    }

    /// Adds a scheduling rule.
    pub fn add_rule(&mut self, rule: DelayRule) -> &mut Self {
        self.rules.push(rule);
        self
    }
}

impl LinkModel for TargetedDelay {
    fn deliver_at(&mut self, from: NodeId, to: NodeId, sent: SimTime, rng: &mut SimRng) -> SimTime {
        let base = self.inner.deliver_at(from, to, sent, rng);
        let extra: u64 = self
            .rules
            .iter()
            .filter(|r| r.matches(from, to, sent))
            .map(|r| r.extra.0)
            .sum();
        base + SimTime(extra)
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use prft_sim::ConstantDelay;

    fn delivery(net: &mut TargetedDelay, from: usize, to: usize, sent: u64) -> u64 {
        let mut rng = SimRng::new(1);
        net.deliver_at(NodeId(from), NodeId(to), SimTime(sent), &mut rng)
            .0
    }

    #[test]
    fn unmatched_traffic_uses_base_delay() {
        let mut net = TargetedDelay::new(Box::new(ConstantDelay(SimTime(2))));
        net.add_rule(DelayRule::slow_sender(
            NodeId(0),
            SimTime(0),
            SimTime(100),
            SimTime(50),
        ));
        assert_eq!(delivery(&mut net, 1, 2, 10), 12);
    }

    #[test]
    fn sender_rule_applies() {
        let mut net = TargetedDelay::new(Box::new(ConstantDelay(SimTime(2))));
        net.add_rule(DelayRule::slow_sender(
            NodeId(0),
            SimTime(0),
            SimTime(100),
            SimTime(50),
        ));
        assert_eq!(delivery(&mut net, 0, 2, 10), 62);
    }

    #[test]
    fn receiver_rule_applies() {
        let mut net = TargetedDelay::new(Box::new(ConstantDelay(SimTime(2))));
        net.add_rule(DelayRule::slow_receiver(
            NodeId(2),
            SimTime(0),
            SimTime(100),
            SimTime(7),
        ));
        assert_eq!(delivery(&mut net, 1, 2, 10), 19);
    }

    #[test]
    fn rules_expire() {
        let mut net = TargetedDelay::new(Box::new(ConstantDelay(SimTime(2))));
        net.add_rule(DelayRule::slow_sender(
            NodeId(0),
            SimTime(0),
            SimTime(100),
            SimTime(50),
        ));
        assert_eq!(delivery(&mut net, 0, 2, 100), 102, "window is exclusive");
    }

    #[test]
    fn composes_over_a_partition_stack() {
        use crate::{PartitionWindow, PartitionedNet};
        // sync base → partition → targeted delay: rule matches on the
        // original send time; extra delay lands after the partition hold.
        let mut partitioned = PartitionedNet::new(Box::new(ConstantDelay(SimTime(1))));
        partitioned.add_window(PartitionWindow::split(
            SimTime(0),
            SimTime(100),
            vec![vec![NodeId(0)], vec![NodeId(1)]],
        ));
        let mut net = TargetedDelay::new(Box::new(partitioned));
        net.add_rule(DelayRule::slow_sender(
            NodeId(0),
            SimTime(0),
            SimTime(50),
            SimTime(7),
        ));
        // Sent at 10 (inside the rule window): held to 100, inner delay 1,
        // plus the targeted 7.
        assert_eq!(delivery(&mut net, 0, 1, 10), 108);
        // Sent at 60 (rule expired): partition hold only.
        assert_eq!(delivery(&mut net, 0, 1, 60), 101);
    }

    #[test]
    fn overlapping_rules_stack() {
        let mut net = TargetedDelay::new(Box::new(ConstantDelay(SimTime(2))));
        net.add_rule(DelayRule::slow_sender(
            NodeId(0),
            SimTime(0),
            SimTime(100),
            SimTime(10),
        ));
        net.add_rule(DelayRule::slow_receiver(
            NodeId(2),
            SimTime(0),
            SimTime(100),
            SimTime(5),
        ));
        assert_eq!(delivery(&mut net, 0, 2, 10), 27);
    }
}
