//! The declarative scenario vocabulary: everything a pRFT experiment needs
//! to describe one committee configuration, with no trait objects and no
//! simulation state — a [`ScenarioSpec`] is plain data, `Clone + Send +
//! Sync`, so the batch runner can hand the same spec to every worker thread
//! and build an independent simulation per seed.

use prft_game::Theta;
use prft_workload::WorkloadSpec;

/// Which synchrony flavour the run executes under (Section 3.3).
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum Synchrony {
    /// Known delay bound Δ.
    Synchronous {
        /// The delay bound Δ (simulation ticks).
        delta: u64,
    },
    /// Adversarial delays until GST, then bounded by Δ.
    PartiallySynchronous {
        /// Global stabilization time.
        gst: u64,
        /// Post-GST bound Δ.
        delta: u64,
    },
    /// Finite but unbounded delays (geometric tail).
    Asynchronous,
}

/// One partition window layered over the base synchrony model: `groups`
/// are mutually isolated between `start` and `end`; `bridges` (if any)
/// talk to every group — the paper's "honest halves communicate only
/// through the adversary" construction.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct PartitionSpec {
    /// Window start (inclusive, ticks).
    pub start: u64,
    /// Window end (exclusive, ticks) — cross-group traffic is held to here.
    pub end: u64,
    /// The isolated player groups (player indices).
    pub groups: Vec<Vec<usize>>,
    /// Players bridging every group (byzantine bridges).
    pub bridges: Vec<usize>,
}

/// A player's assigned strategy. Every index not named in
/// [`ScenarioSpec::roles`] plays honest `π_0`.
#[derive(Debug, Clone, PartialEq, Eq)]
pub enum Role {
    /// `π_0`: follow the protocol.
    Honest,
    /// `π_abs`: send nothing (the θ=3 liveness attack, Theorem 1).
    Abstain,
    /// Crash fault from t = 0 (the CFT column of Table 1).
    Crash,
    /// `π_pc`: censor as leader, abstain under honest leaders (Theorem 2).
    /// The collusion is the set of all `PartialCensor` players; the censored
    /// set is [`ScenarioSpec::censored`].
    PartialCensor,
    /// `π_fork` colluder: double-sign along the [`ScenarioSpec::fork_b_group`]
    /// split whenever the shared blackboard has a plan (Lemma 4).
    ForkColluder,
    /// The byzantine leader seeding the fork: equivocate when leading.
    EquivocatingLeader {
        /// Attack only this round (attack every led round if `None`).
        only_round: Option<u64>,
    },
    /// Byzantine noise: votes, commits and reveals garbage values.
    GarbageVoter,
    /// Byzantine noise: double-signs unconditionally.
    DoubleVoter,
    /// Byzantine: proposes nothing when leading, otherwise honest.
    SilentLeader,
    /// Byzantine: proposes, votes, commits and reveals nothing (its Final
    /// ballot is honest) but echoes view changes — the "T tries to force
    /// a view change" adversary of Claim 2.
    VcSpammer,
}

/// A transaction preloaded into mempools before the run.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct TxSpec {
    /// Transaction id.
    pub id: u64,
    /// Receiving player, or every player when `None` ("all honest players
    /// have tx as input").
    pub to: Option<usize>,
    /// Payload bytes.
    pub payload: Vec<u8>,
}

/// One scheduled change to a running committee — the timeline
/// vocabulary. The paper's adversaries are *dynamic* (T delays targeted
/// players until GST, colluders defect mid-stream, players crash and come
/// back); a schedule of `(tick, TimelineEvent)` pairs expresses them
/// declaratively while keeping [`ScenarioSpec`] plain data.
///
/// Events are applied at the *start* of their tick: the run loop processes
/// every simulation event strictly before the tick, applies the scheduled
/// events (same-tick events in insertion order), then resumes. This makes
/// timeline runs exactly as deterministic as static ones.
#[derive(Debug, Clone, PartialEq)]
pub enum TimelineEvent {
    /// Crash `player` at the scheduled tick: no further deliveries or
    /// timers until a [`TimelineEvent::Recover`].
    Crash(usize),
    /// Recover a previously crashed `player`: it resumes receiving *new*
    /// messages (held or in-flight traffic addressed to it while down is
    /// still dropped on dispatch) and restarts, re-arming its phase timer
    /// and asking the committee for what it missed.
    Recover(usize),
    /// Swap `player`'s strategy to `role` from the scheduled tick on —
    /// mid-run colluder defection (`SetRole(i, Role::Honest)`), late
    /// abstention, and every other behavioral switch. `Role::Crash` here
    /// is equivalent to [`TimelineEvent::Crash`].
    SetRole(usize, Role),
    /// Add a targeted-delay rule active over `[tick, tick + window)`:
    /// messages matching the (sender, receiver) pattern — `None` is a
    /// wildcard — get `extra` ticks of added delay on top of whatever the
    /// base network (and any partition) imposes. Rules match on *send*
    /// time, so the event is resolved into its window when the network is
    /// built; nothing happens at run time.
    AddDelayRule {
        /// Matching sender (wildcard if `None`).
        from: Option<usize>,
        /// Matching receiver (wildcard if `None`).
        to: Option<usize>,
        /// Extra delay in ticks.
        extra: u64,
        /// Rule lifetime in ticks from the scheduled tick.
        window: u64,
    },
    /// Remove every live delay rule whose `(from, to)` pattern equals the
    /// given one — the inverse of [`TimelineEvent::AddDelayRule`], so a
    /// schedule can *lift* an attack instead of waiting out its window
    /// ("T stops delaying at GST"). Resolved at network build time by
    /// clipping the window of every matching rule added earlier in
    /// execution order to end at this tick: deliveries already scheduled
    /// keep the delay they were sent under; only future sends feel the
    /// removal. Removing a pattern nothing matches is a no-op.
    RemoveDelayRule {
        /// Matching sender pattern of the rules to drop (`None` = the
        /// wildcard pattern, compared as written).
        from: Option<usize>,
        /// Matching receiver pattern of the rules to drop.
        to: Option<usize>,
    },
    /// Inject a transaction into mempools at the scheduled tick (to every
    /// player when `to` is `None`) — late tx floods under censorship.
    InjectTx(TxSpec),
}

/// Economic parameters for per-player utility measurement (Table 2 payoffs
/// discounted over the round budget, minus `L` on burn).
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct UtilitySpec {
    /// The rational type θ the utilities are measured for.
    pub theta: Theta,
    /// Per-round payoff magnitude α.
    pub alpha: f64,
    /// Discount factor δ.
    pub delta: f64,
    /// Collateral deposit L.
    pub penalty_l: f64,
    /// Rounds in the discounted utility stream.
    pub rounds: u64,
}

impl UtilitySpec {
    /// The paper's default economy (α = 1, δ = 0.9, L = 10) for `theta`,
    /// streamed over `rounds` rounds.
    pub fn standard(theta: Theta, rounds: u64) -> Self {
        UtilitySpec {
            theta,
            alpha: 1.0,
            delta: 0.9,
            penalty_l: 10.0,
            rounds,
        }
    }
}

/// One point of a scenario grid: a complete, declarative description of a
/// pRFT committee run. Seeds are *not* part of the spec — the runner derives
/// one simulation seed per batch index, so the same spec replayed with the
/// same seed count always produces the same report.
#[derive(Debug, Clone, PartialEq)]
pub struct ScenarioSpec {
    /// Grid-point label ("k=3", "n=16", …) used in reports.
    pub label: String,
    /// Committee size n.
    pub n: usize,
    /// Round budget (0 = unbounded; then `horizon` alone stops the run).
    pub max_rounds: u64,
    /// Virtual-time horizon for the run.
    pub horizon: u64,
    /// Base seed the per-run seeds are derived from.
    pub base_seed: u64,
    /// Synchrony flavour.
    pub synchrony: Synchrony,
    /// Partition windows layered over the base network.
    pub partitions: Vec<PartitionSpec>,
    /// Non-honest role assignments (player index → role).
    pub roles: Vec<(usize, Role)>,
    /// The `b`-side of the fork split (receives block `b`); players not
    /// listed are on the `a` side.
    pub fork_b_group: Vec<usize>,
    /// Transactions preloaded into mempools.
    pub txs: Vec<TxSpec>,
    /// Transaction ids watched for censorship when classifying σ.
    pub watched: Vec<u64>,
    /// Transaction ids the censor coalition excludes from its blocks.
    pub censored: Vec<u64>,
    /// Agreement-threshold override (Claim 1 experiments only).
    pub tau_override: Option<usize>,
    /// Run the Reveal/PoF machinery (false = the ablation).
    pub accountable: bool,
    /// Per-phase timeout override (ticks).
    pub phase_timeout: Option<u64>,
    /// Measure per-player utilities with these economics.
    pub utility: Option<UtilitySpec>,
    /// The fault & network timeline: `(tick, event)` pairs applied at the
    /// start of their tick, in insertion order within a tick.
    pub schedule: Vec<(u64, TimelineEvent)>,
    /// The open-loop client workload riding on the committee, if any:
    /// `Some` appends `workload.clients` client actors behind the
    /// committee and switches the run to the mixed-population path.
    pub workload: Option<WorkloadSpec>,
    // Exists only because the frozen `benchmark/` crate still reads it;
    // goes away with the next change to `benchmark/`. Every run drains the
    // calendar queue.
    #[doc(hidden)]
    pub queue: (),
    // Exists only because the frozen `benchmark/` crate still reads it;
    // goes away with the next change to `benchmark/`. Every seat verifies
    // through its memo.
    #[doc(hidden)]
    pub verify_mode: (),
}

impl ScenarioSpec {
    /// A spec with every player honest under a synchronous Δ = 10 network:
    /// the baseline all other specs are built from.
    pub fn new(label: impl Into<String>, n: usize, max_rounds: u64) -> Self {
        ScenarioSpec {
            label: label.into(),
            n,
            max_rounds,
            horizon: 2_000_000,
            base_seed: 0x05ee_d1ab,
            synchrony: Synchrony::Synchronous { delta: 10 },
            partitions: Vec::new(),
            roles: Vec::new(),
            fork_b_group: Vec::new(),
            txs: Vec::new(),
            watched: Vec::new(),
            censored: Vec::new(),
            tau_override: None,
            accountable: true,
            phase_timeout: None,
            utility: None,
            schedule: Vec::new(),
            workload: None,
            queue: (),
            verify_mode: (),
        }
    }

    /// Attaches an open-loop client workload to the run.
    #[must_use]
    pub fn workload(mut self, workload: WorkloadSpec) -> Self {
        self.workload = Some(workload);
        self
    }

    /// Sets the synchrony flavour.
    #[must_use]
    pub fn synchrony(mut self, synchrony: Synchrony) -> Self {
        self.synchrony = synchrony;
        self
    }

    /// Adds a partition window.
    #[must_use]
    pub fn partition(mut self, window: PartitionSpec) -> Self {
        self.partitions.push(window);
        self
    }

    /// Assigns `role` to player `index`.
    #[must_use]
    pub fn role(mut self, index: usize, role: Role) -> Self {
        self.roles.push((index, role));
        self
    }

    /// Assigns `role` to every player in `indices`.
    #[must_use]
    pub fn roles(mut self, indices: impl IntoIterator<Item = usize>, role: Role) -> Self {
        for i in indices {
            self.roles.push((i, role.clone()));
        }
        self
    }

    /// Sets the fork split's `b` side.
    #[must_use]
    pub fn fork_b_group(mut self, group: impl IntoIterator<Item = usize>) -> Self {
        self.fork_b_group = group.into_iter().collect();
        self
    }

    /// Preloads a transaction (to every player when `to` is `None`).
    #[must_use]
    pub fn tx(mut self, id: u64, to: Option<usize>, payload: &[u8]) -> Self {
        self.txs.push(TxSpec {
            id,
            to,
            payload: payload.to_vec(),
        });
        self
    }

    /// Watches transaction ids for censorship classification.
    #[must_use]
    pub fn watch(mut self, ids: impl IntoIterator<Item = u64>) -> Self {
        self.watched.extend(ids);
        self
    }

    /// Sets the censor coalition's excluded set.
    #[must_use]
    pub fn censor(mut self, ids: impl IntoIterator<Item = u64>) -> Self {
        self.censored.extend(ids);
        self
    }

    /// Overrides the agreement threshold τ.
    #[must_use]
    pub fn tau(mut self, tau: usize) -> Self {
        self.tau_override = Some(tau);
        self
    }

    /// Toggles the Reveal/PoF machinery.
    #[must_use]
    pub fn accountable(mut self, on: bool) -> Self {
        self.accountable = on;
        self
    }

    /// Overrides the per-phase timeout.
    #[must_use]
    pub fn phase_timeout(mut self, ticks: u64) -> Self {
        self.phase_timeout = Some(ticks);
        self
    }

    /// Sets the virtual-time horizon.
    #[must_use]
    pub fn horizon(mut self, ticks: u64) -> Self {
        self.horizon = ticks;
        self
    }

    /// Sets the base seed runs are derived from.
    #[must_use]
    pub fn base_seed(mut self, seed: u64) -> Self {
        self.base_seed = seed;
        self
    }

    /// Measures per-player utilities with `spec`'s economics.
    #[must_use]
    pub fn utility(mut self, spec: UtilitySpec) -> Self {
        self.utility = Some(spec);
        self
    }

    /// Schedules `event` at `tick`. Same-tick events apply in the order
    /// they were added.
    #[must_use]
    pub fn at(mut self, tick: u64, event: TimelineEvent) -> Self {
        self.schedule.push((tick, event));
        self
    }

    /// The explorer cache's key for this spec: its whole-schedule state
    /// text ([`crate::checkpoint::prefix_fingerprint`] with every event),
    /// followed by the measurement fields `label`, `base_seed`, `watched`
    /// and `utility`. Any change to any field (committee size, roles,
    /// synchrony, schedule, economics, base seed, …) changes the text,
    /// and a hit is text equality, so a cell can never be served for
    /// another spec.
    pub fn fingerprint(&self) -> String {
        format!(
            "{}|label:{:?}|base_seed:{}|watched:{:?}|utility:{:?}",
            crate::checkpoint::state_text(self, |_| true),
            self.label,
            self.base_seed,
            self.watched,
            self.utility
        )
    }

    /// The t = 0 role of every seat as a dense vector (index = player),
    /// resolved in one pass: unlisted seats are honest, last write wins.
    ///
    /// # Panics
    /// Panics if a role names a player outside `0..n`.
    pub fn resolved_roles(&self) -> Vec<Role> {
        let mut resolved = vec![Role::Honest; self.n];
        for (i, role) in &self.roles {
            assert!(
                *i < self.n,
                "role assigned to player {i} but n = {}",
                self.n
            );
            resolved[*i] = role.clone();
        }
        resolved
    }

    /// Whether the schedule adds or removes a delay rule, so the network
    /// needs its `TargetedDelay` wrapper.
    pub(crate) fn uses_targeted_delay(&self) -> bool {
        use TimelineEvent::{AddDelayRule, RemoveDelayRule};
        let delay = |e: &TimelineEvent| matches!(e, AddDelayRule { .. } | RemoveDelayRule { .. });
        self.schedule.iter().any(|(_, e)| delay(e))
    }

    /// Players who censor at any point of the run (initial or scheduled
    /// `π_pc` assignments) — the censor collusion set.
    pub fn censor_collusion(&self) -> Vec<usize> {
        let mut members: Vec<usize> = self
            .roles
            .iter()
            .filter(|(_, r)| matches!(r, Role::PartialCensor))
            .map(|(i, _)| *i)
            .chain(self.schedule.iter().filter_map(|(_, e)| match e {
                TimelineEvent::SetRole(i, Role::PartialCensor) => Some(*i),
                _ => None,
            }))
            .collect();
        members.sort_unstable();
        members.dedup();
        members
    }

    /// Whether the spec carries a (non-empty) timeline schedule.
    pub fn has_schedule(&self) -> bool {
        !self.schedule.is_empty()
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn spec_is_plain_data() {
        fn assert_send_sync<T: Send + Sync + Clone>() {}
        assert_send_sync::<ScenarioSpec>();
    }

    #[test]
    fn role_of_defaults_honest_and_last_write_wins() {
        let spec = ScenarioSpec::new("x", 4, 1)
            .role(1, Role::Abstain)
            .role(1, Role::Crash);
        let resolved = spec.resolved_roles();
        assert_eq!(resolved[0], Role::Honest);
        assert_eq!(resolved[1], Role::Crash);
    }

    #[test]
    fn fingerprint_tracks_every_field() {
        let base = ScenarioSpec::new("x", 4, 1);
        assert_eq!(
            base.fingerprint(),
            ScenarioSpec::new("x", 4, 1).fingerprint()
        );
        assert_ne!(
            base.fingerprint(),
            ScenarioSpec::new("y", 4, 1).fingerprint()
        );
        assert_ne!(
            base.fingerprint(),
            ScenarioSpec::new("x", 5, 1).fingerprint()
        );
        assert_ne!(
            base.fingerprint(),
            ScenarioSpec::new("x", 4, 1).base_seed(7).fingerprint()
        );
        assert_ne!(
            base.fingerprint(),
            ScenarioSpec::new("x", 4, 1)
                .role(1, Role::Abstain)
                .fingerprint()
        );
        // The workload section is semantic: attaching one, and every knob
        // inside it, must change the fingerprint.
        let loaded = ScenarioSpec::new("x", 4, 1).workload(WorkloadSpec::steady(10, 50));
        assert_ne!(base.fingerprint(), loaded.fingerprint());
        assert_ne!(
            loaded.fingerprint(),
            ScenarioSpec::new("x", 4, 1)
                .workload(WorkloadSpec::steady(10, 60))
                .fingerprint()
        );
        assert_ne!(
            loaded.fingerprint(),
            ScenarioSpec::new("x", 4, 1)
                .workload(WorkloadSpec::steady(10, 50).mempool_capacity(8))
                .fingerprint()
        );
    }

    #[test]
    fn resolved_roles_match_role_of() {
        let spec = ScenarioSpec::new("x", 4, 1)
            .role(1, Role::Abstain)
            .role(1, Role::Crash)
            .role(3, Role::GarbageVoter);
        // Per-seat reference lookup: the last listed role wins, unlisted
        // seats are honest.
        let role_of = |index: usize| {
            spec.roles
                .iter()
                .rev()
                .find(|(i, _)| *i == index)
                .map_or(Role::Honest, |(_, r)| r.clone())
        };
        let resolved = spec.resolved_roles();
        assert_eq!(resolved.len(), 4);
        for (i, role) in resolved.iter().enumerate() {
            assert_eq!(*role, role_of(i), "seat {i}");
        }
        assert_eq!(
            resolved,
            [Role::Honest, Role::Crash, Role::Honest, Role::GarbageVoter]
        );
    }

    #[test]
    #[should_panic(expected = "but n = 4")]
    fn out_of_range_role_rejected_at_resolution() {
        let _ = ScenarioSpec::new("x", 4, 1)
            .role(9, Role::Abstain)
            .resolved_roles();
    }

    #[test]
    fn at_builder_preserves_insertion_order() {
        let spec = ScenarioSpec::new("x", 4, 1)
            .at(50, TimelineEvent::Crash(1))
            .at(10, TimelineEvent::Crash(2))
            .at(50, TimelineEvent::Recover(1));
        assert_eq!(
            spec.schedule,
            vec![
                (50, TimelineEvent::Crash(1)),
                (10, TimelineEvent::Crash(2)),
                (50, TimelineEvent::Recover(1)),
            ]
        );
        assert!(spec.has_schedule());
        assert!(!ScenarioSpec::new("x", 4, 1).has_schedule());
    }

    #[test]
    fn fingerprint_distinguishes_schedules() {
        let base = ScenarioSpec::new("x", 4, 1);
        let crash = base.clone().at(100, TimelineEvent::Crash(1));
        let crash_later = base.clone().at(200, TimelineEvent::Crash(1));
        let recover = base.clone().at(100, TimelineEvent::Recover(1));
        assert_ne!(base.fingerprint(), crash.fingerprint());
        assert_ne!(crash.fingerprint(), crash_later.fingerprint());
        assert_ne!(crash.fingerprint(), recover.fingerprint());
        // Same-tick order is semantic (insertion order), so it fingerprints.
        let ab = base
            .clone()
            .at(5, TimelineEvent::Crash(0))
            .at(5, TimelineEvent::Recover(0));
        let ba = base
            .at(5, TimelineEvent::Recover(0))
            .at(5, TimelineEvent::Crash(0));
        assert_ne!(ab.fingerprint(), ba.fingerprint());
    }

    #[test]
    fn censor_collusion_merges_initial_and_scheduled() {
        let spec = ScenarioSpec::new("x", 6, 1)
            .role(2, Role::PartialCensor)
            .at(100, TimelineEvent::SetRole(4, Role::PartialCensor))
            .at(200, TimelineEvent::SetRole(2, Role::Honest));
        assert_eq!(spec.censor_collusion(), vec![2, 4]);
    }
}
