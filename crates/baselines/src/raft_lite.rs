//! Raft-lite: crash-fault-tolerant replication — the `CFT(c)`, `2c < n`
//! column of Table 1 (Ongaro–Ousterhout essentials).
//!
//! Implements the parts that carry the bound: randomized election timeouts,
//! term-based leader election with majority votes, log replication with
//! majority commit, and the term/log-freshness vote rule. No snapshots, no
//! membership changes, no persistence — crash faults are modelled by the
//! simulation's crash switch, and the property under test is that committed
//! entries never diverge and progress requires a live majority.

use prft_sim::{Context, Node, SimTime, TimerId, WireMessage};
use prft_types::NodeId;
use std::collections::BTreeSet;

/// A replicated log entry.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct Entry {
    /// The term it was created in.
    pub term: u64,
    /// The command payload (opaque).
    pub command: u64,
}

/// Raft-lite wire messages.
#[derive(Debug, Clone)]
pub enum RaftMsg {
    /// Candidate → all.
    RequestVote {
        /// Candidate's term.
        term: u64,
        /// Last log index of the candidate.
        last_index: usize,
        /// Last log term of the candidate.
        last_term: u64,
    },
    /// Voter → candidate.
    VoteGranted {
        /// The term the vote belongs to.
        term: u64,
    },
    /// Leader → all: heartbeat + replication.
    AppendEntries {
        /// Leader's term.
        term: u64,
        /// Index of the entry preceding `entries`.
        prev_index: usize,
        /// Term of the preceding entry.
        prev_term: u64,
        /// New entries (empty = heartbeat).
        entries: Vec<Entry>,
        /// Leader's commit index.
        leader_commit: usize,
    },
    /// Follower → leader.
    AppendAck {
        /// Follower's term.
        term: u64,
        /// Highest index now matching the leader's log, or `None` on
        /// mismatch.
        matched: Option<usize>,
    },
}

impl WireMessage for RaftMsg {
    fn kind(&self) -> &'static str {
        match self {
            RaftMsg::RequestVote { .. } => "RequestVote",
            RaftMsg::VoteGranted { .. } => "VoteGranted",
            RaftMsg::AppendEntries { .. } => "AppendEntries",
            RaftMsg::AppendAck { .. } => "AppendAck",
        }
    }

    fn wire_bytes(&self) -> usize {
        match self {
            RaftMsg::RequestVote { .. } => 24,
            RaftMsg::VoteGranted { .. } => 8,
            RaftMsg::AppendEntries { entries, .. } => 32 + entries.len() * 16,
            RaftMsg::AppendAck { .. } => 17,
        }
    }
}

#[derive(Debug, Clone, Copy, PartialEq, Eq)]
enum Role {
    Follower,
    Candidate,
    Leader,
}

/// Configuration.
#[derive(Debug, Clone)]
pub struct RaftConfig {
    /// Cluster size.
    pub n: usize,
    /// Election timeout window `[min, 2·min)` (randomized per node).
    pub election_min: SimTime,
    /// Heartbeat interval (must be ≪ election timeout).
    pub heartbeat: SimTime,
    /// Commands to commit before the cluster goes quiet.
    pub max_commits: usize,
}

impl RaftConfig {
    /// Standard configuration.
    pub fn new(n: usize, max_commits: usize) -> Self {
        RaftConfig {
            n,
            election_min: SimTime(300),
            heartbeat: SimTime(60),
            max_commits,
        }
    }

    fn majority(&self) -> usize {
        self.n / 2 + 1
    }
}

/// One Raft-lite node.
pub struct RaftNode {
    cfg: RaftConfig,
    me: NodeId,
    role: Role,
    term: u64,
    voted_for: Option<NodeId>,
    votes: BTreeSet<NodeId>,
    log: Vec<Entry>,
    commit_index: usize,
    /// Leader bookkeeping: highest matched index per follower.
    match_index: Vec<usize>,
    next_command: u64,
    election_timer: Option<TimerId>,
    heartbeat_timer: Option<TimerId>,
}

impl RaftNode {
    /// Creates a node.
    pub fn new(cfg: RaftConfig, me: NodeId) -> Self {
        let n = cfg.n;
        RaftNode {
            cfg,
            me,
            role: Role::Follower,
            term: 0,
            voted_for: None,
            votes: BTreeSet::new(),
            log: Vec::new(),
            commit_index: 0,
            match_index: vec![0; n],
            next_command: 0,
            election_timer: None,
            heartbeat_timer: None,
        }
    }

    /// The committed prefix of the log.
    pub fn committed(&self) -> &[Entry] {
        &self.log[..self.commit_index]
    }

    /// The node's current term.
    pub fn term(&self) -> u64 {
        self.term
    }

    /// Whether this node currently believes it is the leader.
    #[cfg(test)]
    fn is_leader(&self) -> bool {
        self.role == Role::Leader
    }

    fn last(&self) -> (usize, u64) {
        (self.log.len(), self.log.last().map_or(0, |e| e.term))
    }

    fn reset_election_timer(&mut self, ctx: &mut Context<RaftMsg>) {
        if let Some(t) = self.election_timer.take() {
            ctx.cancel_timer(t);
        }
        let min = self.cfg.election_min.0;
        let delay = SimTime(ctx.rng().range(min, 2 * min - 1));
        self.election_timer = Some(ctx.set_timer(delay));
    }

    fn become_follower(&mut self, ctx: &mut Context<RaftMsg>, term: u64) {
        self.role = Role::Follower;
        self.term = term;
        self.voted_for = None;
        self.votes.clear();
        if let Some(t) = self.heartbeat_timer.take() {
            ctx.cancel_timer(t);
        }
        self.reset_election_timer(ctx);
    }

    fn start_election(&mut self, ctx: &mut Context<RaftMsg>) {
        self.role = Role::Candidate;
        self.term += 1;
        self.voted_for = Some(self.me);
        self.votes.clear();
        self.votes.insert(self.me);
        let (last_index, last_term) = self.last();
        ctx.broadcast_others(RaftMsg::RequestVote {
            term: self.term,
            last_index,
            last_term,
        });
        self.reset_election_timer(ctx);
    }

    fn become_leader(&mut self, ctx: &mut Context<RaftMsg>) {
        self.role = Role::Leader;
        self.match_index = vec![0; self.cfg.n];
        self.match_index[self.me.0] = self.log.len();
        if self.log.len() < self.cfg.max_commits {
            let command = (self.term << 16) | self.next_command;
            self.next_command += 1;
            let term = self.term;
            self.log.push(Entry { term, command });
            self.match_index[self.me.0] = self.log.len();
        }
        self.replicate(ctx);
        let hb = ctx.set_timer(self.cfg.heartbeat);
        self.heartbeat_timer = Some(hb);
    }

    fn replicate(&mut self, ctx: &mut Context<RaftMsg>) {
        // Simplified: always send the full suffix from each follower's
        // match index (logs are tiny in simulation).
        for i in 0..self.cfg.n {
            if i == self.me.0 {
                continue;
            }
            let from = self.match_index[i];
            let prev_term = if from == 0 {
                0
            } else {
                self.log[from - 1].term
            };
            ctx.send(
                NodeId(i),
                RaftMsg::AppendEntries {
                    term: self.term,
                    prev_index: from,
                    prev_term,
                    entries: self.log[from..].to_vec(),
                    leader_commit: self.commit_index,
                },
            );
        }
    }

    fn advance_commit(&mut self) {
        // Highest index replicated on a majority within the current term.
        for idx in (self.commit_index + 1..=self.log.len()).rev() {
            let replicated = 1
                + (0..self.cfg.n)
                    .filter(|&i| i != self.me.0 && self.match_index[i] >= idx)
                    .count();
            if replicated >= self.cfg.majority() && self.log[idx - 1].term == self.term {
                self.commit_index = idx;
                break;
            }
        }
    }
}

impl Node for RaftNode {
    type Msg = RaftMsg;

    fn on_start(&mut self, ctx: &mut Context<RaftMsg>) {
        self.reset_election_timer(ctx);
    }

    fn on_message(&mut self, ctx: &mut Context<RaftMsg>, from: NodeId, msg: RaftMsg) {
        match msg {
            RaftMsg::RequestVote {
                term,
                last_index,
                last_term,
            } => {
                if term > self.term {
                    self.become_follower(ctx, term);
                }
                let (my_index, my_term) = self.last();
                let up_to_date =
                    last_term > my_term || (last_term == my_term && last_index >= my_index);
                if term == self.term && self.voted_for.is_none() && up_to_date {
                    self.voted_for = Some(from);
                    self.reset_election_timer(ctx);
                    ctx.send(from, RaftMsg::VoteGranted { term });
                }
            }
            RaftMsg::VoteGranted { term } => {
                if self.role == Role::Candidate && term == self.term {
                    self.votes.insert(from);
                    if self.votes.len() >= self.cfg.majority() {
                        self.become_leader(ctx);
                    }
                }
            }
            RaftMsg::AppendEntries {
                term,
                prev_index,
                prev_term,
                entries,
                leader_commit,
            } => {
                if term < self.term {
                    return;
                }
                if term > self.term || self.role != Role::Follower {
                    self.become_follower(ctx, term);
                } else {
                    self.reset_election_timer(ctx);
                }
                let ok = prev_index == 0
                    || (prev_index <= self.log.len() && self.log[prev_index - 1].term == prev_term);
                if !ok {
                    ctx.send(
                        from,
                        RaftMsg::AppendAck {
                            term,
                            matched: None,
                        },
                    );
                    return;
                }
                self.log.truncate(prev_index);
                self.log.extend(entries);
                self.commit_index = leader_commit.min(self.log.len()).max(self.commit_index);
                ctx.send(
                    from,
                    RaftMsg::AppendAck {
                        term,
                        matched: Some(self.log.len()),
                    },
                );
            }
            RaftMsg::AppendAck { term, matched } => {
                if self.role != Role::Leader || term != self.term {
                    return;
                }
                match matched {
                    Some(idx) => {
                        self.match_index[from.0] = idx;
                        self.advance_commit();
                    }
                    None => {
                        self.match_index[from.0] = self.match_index[from.0].saturating_sub(1);
                    }
                }
            }
        }
    }

    fn on_timer(&mut self, ctx: &mut Context<RaftMsg>, timer: TimerId) {
        if Some(timer) == self.election_timer {
            self.election_timer = None;
            if self.role != Role::Leader {
                self.start_election(ctx);
            }
            return;
        }
        if Some(timer) == self.heartbeat_timer {
            self.heartbeat_timer = None;
            if self.role == Role::Leader {
                if self.commit_index >= self.cfg.max_commits {
                    return; // done: stop heartbeating so the run quiesces
                }
                if self.log.len() < self.cfg.max_commits && self.log.len() == self.commit_index {
                    let command = (self.term << 16) | self.next_command;
                    self.next_command += 1;
                    let term = self.term;
                    self.log.push(Entry { term, command });
                    self.match_index[self.me.0] = self.log.len();
                }
                self.replicate(ctx);
                let hb = ctx.set_timer(self.cfg.heartbeat);
                self.heartbeat_timer = Some(hb);
            }
        }
    }
}

/// Builds a Raft cluster.
pub fn cluster(cfg: &RaftConfig) -> Vec<RaftNode> {
    (0..cfg.n)
        .map(|i| RaftNode::new(cfg.clone(), NodeId(i)))
        .collect()
}

#[cfg(test)]
mod tests {
    use super::*;
    use prft_sim::Simulation;

    fn run(n: usize, commits: usize, crashes: &[usize], horizon: u64) -> Simulation<RaftNode> {
        let cfg = RaftConfig::new(n, commits);
        let mut sim = Simulation::new(
            cluster(&cfg),
            Box::new(prft_net::SynchronousNet::new(SimTime(10))),
            17,
        );
        for &c in crashes {
            sim.crash(NodeId(c));
        }
        sim.run_until(SimTime(horizon));
        sim
    }

    fn committed_logs(sim: &Simulation<RaftNode>, skip: &[usize]) -> Vec<Vec<Entry>> {
        (0..sim.n())
            .filter(|i| !skip.contains(i))
            .map(|i| sim.node(NodeId(i)).committed().to_vec())
            .collect()
    }

    #[test]
    fn elects_leader_and_commits() {
        let sim = run(5, 3, &[], 1_000_000);
        let logs = committed_logs(&sim, &[]);
        assert!(logs.iter().any(|l| l.len() >= 3), "commands commit");
        for a in &logs {
            for b in &logs {
                let common = a.len().min(b.len());
                assert_eq!(&a[..common], &b[..common], "no committed divergence");
            }
        }
    }

    #[test]
    fn minority_crash_tolerated() {
        // 2c < n: two crashes of five leave a majority.
        let sim = run(5, 3, &[3, 4], 1_000_000);
        let logs = committed_logs(&sim, &[3, 4]);
        assert!(
            logs.iter().any(|l| l.len() >= 3),
            "live majority commits: {logs:?}"
        );
    }

    #[test]
    fn majority_crash_stalls() {
        // 2c ≥ n: three crashes of five kill the majority — no commits.
        let sim = run(5, 3, &[2, 3, 4], 300_000);
        let logs = committed_logs(&sim, &[2, 3, 4]);
        assert!(
            logs.iter().all(|l| l.is_empty()),
            "no majority, no commitment: {logs:?}"
        );
    }

    #[test]
    fn at_most_one_live_leader_per_term() {
        let sim = run(5, 2, &[], 1_000_000);
        let leaders: Vec<u64> = (0..5)
            .filter(|&i| sim.node(NodeId(i)).is_leader())
            .map(|i| sim.node(NodeId(i)).term())
            .collect();
        let mut sorted = leaders.clone();
        sorted.sort_unstable();
        sorted.dedup();
        assert_eq!(sorted.len(), leaders.len(), "one leader per term");
    }
}
