//! Turning a [`ScenarioSpec`] into a live simulation, executing its
//! timeline schedule, and turning a finished run into a [`RunRecord`].
//! This is the one place in the workspace that assembles committees for
//! experiments — the claims table, `prft-bench` and the `prft-lab` CLI all
//! come through here.
//!
//! ## The timeline run loop
//!
//! A spec without a schedule runs in one `run_until(horizon)` segment,
//! exactly as before. A spec *with* a schedule is executed as alternating
//! segments: for each scheduled tick `t` (ascending; ties in insertion
//! order) the loop runs the simulation up to — but excluding — `t`
//! ([`Simulation::run_before`]), applies every event scheduled at `t`,
//! then continues. Scheduled events therefore take effect "at the start
//! of tick `t`", before any same-tick protocol traffic, and the whole run
//! stays bit-deterministic: segment boundaries are pure functions of the
//! spec, and no scheduled event draws randomness.
//!
//! Delay-rule events ([`TimelineEvent::AddDelayRule`]/`RemoveDelayRule`)
//! are resolved statically into windows at network-build time, beside the
//! spec's partition windows — both are send-time-window-based in
//! `prft-net` and the clock is monotone, so they need no runtime action
//! and the link stack is a pure function of the spec.

use crate::checkpoint::{
    boundaries, ordered_events, prefix_fingerprint, CheckpointEntry, CheckpointStore,
};
use crate::record::{Finished, RunRecord};
use crate::spec::{Role, ScenarioSpec, Synchrony, TimelineEvent};
use prft_adversary::{
    blackboard, Abstain, Blackboard, DoubleVoter, EquivocatingLeader, ForkColluder, GarbageVoter,
    PartialCensor, SilentLeader,
};
use prft_core::analysis::analyze;
use prft_core::{
    AsReplica, BallotAction, Behavior, Config, Harness, Honest, NetworkChoice, Phase,
    ProposeAction, Replica,
};
use prft_game::{discounted_sum, PayoffTable};
use prft_metrics::{classify, StateObservation};
use prft_net::{DelayRule, PartitionWindow, PartitionedNet, TargetedDelay};
use prft_sim::{LinkModel, Node, RunOutcome, SimTime, Simulation};
use prft_types::{Block, Chain, Digest, NodeId, Round, Transaction, TxId};
use prft_workload::{Actor, WorkloadRunStats};
use std::collections::HashSet;

/// The committee replica behind a node id: seats `0..n` of every
/// population this crate builds are replicas; workload clients sit above.
///
/// # Panics
/// Panics when `id` names a client.
pub fn replica<N: Node + AsReplica>(sim: &Simulation<N>, id: NodeId) -> &Replica {
    sim.node(id)
        .as_replica()
        .expect("committee seats 0..n are replicas")
}

fn replica_mut(sim: &mut Simulation<Actor>, id: NodeId) -> &mut Replica {
    sim.node_mut(id)
        .as_replica_mut()
        .expect("committee seats 0..n are replicas")
}

/// The Claim 2 adversary: proposes, votes, commits and reveals nothing but
/// participates in view changes, pressing the committee to abandon rounds.
/// Its `Final` ballot is the honest one.
#[derive(Debug, Default, Clone)]
struct VcSpammer;

impl Behavior for VcSpammer {
    fn label(&self) -> &'static str {
        "vc-spammer"
    }
    fn on_propose(&mut self, _round: Round, _b: &Block) -> ProposeAction {
        ProposeAction::Silent
    }
    fn on_ballot(&mut self, phase: Phase, _r: Round, _v: Digest) -> BallotAction {
        match phase {
            Phase::Final => BallotAction::Honest,
            _ => BallotAction::Silent,
        }
    }
}

/// Resolves the schedule's delay events into fixed send-time windows, in
/// the executor's own order ([`ordered_events`]): `AddDelayRule` at `t`
/// opens `[t, t + window)`; `RemoveDelayRule` at `t'` clips every rule
/// *already added* under the exact `(from, to)` pattern (wildcards compare
/// as written) to end at `t'`. A rule matches on send time and the clock
/// is monotone, so this is indistinguishable from installing and lifting
/// the rules mid-run — in-flight traffic keeps the delay it was sent with.
pub(crate) fn scheduled_delay_rules(spec: &ScenarioSpec) -> Vec<DelayRule> {
    let mut rules: Vec<DelayRule> = Vec::new();
    for (tick, event) in ordered_events(spec) {
        match *event {
            TimelineEvent::AddDelayRule {
                from,
                to,
                extra,
                window,
            } => rules.push(DelayRule {
                from: from.map(NodeId),
                to: to.map(NodeId),
                from_time: SimTime(tick),
                until_time: SimTime(tick.saturating_add(window)),
                extra: SimTime(extra),
            }),
            TimelineEvent::RemoveDelayRule { from, to } => {
                let pattern = (from.map(NodeId), to.map(NodeId));
                for rule in rules.iter_mut().filter(|r| (r.from, r.to) == pattern) {
                    rule.until_time = rule.until_time.min(SimTime(tick));
                }
            }
            _ => {}
        }
    }
    rules
}

/// Builds the link-model stack for `spec` — a pure function of it: base
/// synchrony flavour, wrapped by a [`PartitionedNet`] when the spec has
/// a partition window, wrapped by a [`TargetedDelay`] holding the
/// resolved rules when the schedule has a delay event.
fn network_model(spec: &ScenarioSpec) -> NetworkChoice {
    let base: Box<dyn LinkModel> = match spec.synchrony {
        Synchrony::Synchronous { delta } => Box::new(prft_net::SynchronousNet::new(SimTime(delta))),
        Synchrony::PartiallySynchronous { gst, delta } => Box::new(
            prft_net::PartiallySynchronousNet::new(SimTime(gst), SimTime(delta)),
        ),
        Synchrony::Asynchronous => Box::new(prft_net::AsynchronousNet::typical()),
    };
    let partitioned: Box<dyn LinkModel> = if spec.partitions.is_empty() {
        base
    } else {
        let mut net = PartitionedNet::new(base);
        for p in &spec.partitions {
            let groups: Vec<Vec<NodeId>> = p
                .groups
                .iter()
                .map(|g| g.iter().map(|&i| NodeId(i)).collect())
                .collect();
            let window = if p.bridges.is_empty() {
                PartitionWindow::split(SimTime(p.start), SimTime(p.end), groups)
            } else {
                PartitionWindow::split_with_bridges(
                    SimTime(p.start),
                    SimTime(p.end),
                    groups,
                    p.bridges.iter().map(|&i| NodeId(i)).collect(),
                )
            };
            net.add_window(window);
        }
        Box::new(net)
    };
    if spec.uses_targeted_delay() {
        let mut targeted = TargetedDelay::new(partitioned);
        for rule in scheduled_delay_rules(spec) {
            targeted.add_rule(rule);
        }
        NetworkChoice::Custom(Box::new(targeted))
    } else {
        NetworkChoice::Custom(partitioned)
    }
}

fn behavior_for(
    spec: &ScenarioSpec,
    role: &Role,
    board: &Blackboard,
    collusion: &HashSet<NodeId>,
) -> Option<Box<dyn Behavior>> {
    let b_group: HashSet<NodeId> = spec.fork_b_group.iter().map(|&i| NodeId(i)).collect();
    match role {
        Role::Honest | Role::Crash => None,
        Role::Abstain => Some(Box::new(Abstain)),
        Role::PartialCensor => {
            let censor: HashSet<TxId> = spec.censored.iter().map(|&id| TxId(id)).collect();
            Some(Box::new(PartialCensor::new(
                spec.n,
                collusion.clone(),
                censor,
            )))
        }
        Role::ForkColluder => Some(Box::new(ForkColluder::new(board.clone(), b_group, spec.n))),
        Role::EquivocatingLeader { only_round } => {
            let leader = EquivocatingLeader::new(board.clone(), b_group, spec.n);
            Some(Box::new(match only_round {
                Some(r) => leader.only_rounds([Round(*r)]),
                None => leader,
            }))
        }
        Role::GarbageVoter => Some(Box::new(GarbageVoter)),
        Role::DoubleVoter => Some(Box::new(DoubleVoter::new(spec.n))),
        Role::SilentLeader => Some(Box::new(SilentLeader)),
        Role::VcSpammer => Some(Box::new(VcSpammer)),
    }
}

/// A built simulation plus the shared state the timeline executor needs:
/// the run's fork blackboard (scheduled colluders must join the *same*
/// board as the initial ones) and the censor collusion set.
struct Built {
    sim: Simulation<Actor>,
    board: Blackboard,
    collusion: HashSet<NodeId>,
}

/// The configured all-honest harness for one cell (txs preloaded) plus the
/// adversary state every strategy of the run shares.
fn prepared(spec: &ScenarioSpec, seed: u64) -> (Harness, Blackboard, HashSet<NodeId>) {
    let mut cfg = Config::for_committee(spec.n).with_max_rounds(spec.max_rounds);
    if let Some(t) = spec.phase_timeout {
        cfg = cfg.with_timeout(SimTime(t));
    }
    if let Some(batch) = spec.workload.as_ref().and_then(|w| w.max_batch) {
        // Config freezes at replica construction, so the workload's batch
        // override must land here, not in `assemble`.
        cfg = cfg.with_max_batch(batch);
    }

    // Every run has one coalition board, empty unless an equivocating
    // leader publishes to it.
    let board = blackboard();
    // Collusion spans the whole run: players censoring at any scheduled
    // point count as coalition members from the start.
    let collusion: HashSet<NodeId> = spec.censor_collusion().into_iter().map(NodeId).collect();
    let network = network_model(spec);

    let mut h = Harness::new(spec.n, seed)
        .config(cfg)
        .accountable(spec.accountable)
        .network(network);
    if let Some(tau) = spec.tau_override {
        h = h.tau(tau);
    }
    for tx in &spec.txs {
        h = h.submit(
            tx.to.map(NodeId),
            Transaction::new(tx.id, NodeId(tx.to.unwrap_or(0)), tx.payload.clone()),
        );
    }
    (h, board, collusion)
}

/// Assembles the one node population every scenario runs as: the
/// committee boxed as [`Actor::Replica`] on seats `0..n`, followed by the
/// workload's clients when the spec has a workload section (a plain
/// committee is a workload with zero clients). The committee is built
/// all-honest; each seat's static role is then installed exactly as a
/// scheduled `SetRole` at tick 0 would be, so a `Crash` role crashes it.
fn build(spec: &ScenarioSpec, seed: u64) -> Built {
    let (h, board, collusion) = prepared(spec, seed);
    let (replicas, network, seed, _) = h.build_parts();
    let sim = match &spec.workload {
        Some(w) => prft_workload::assemble(replicas, w, network, seed),
        None => {
            let committee = replicas
                .into_iter()
                .map(|r| Actor::Replica(Box::new(r)))
                .collect();
            Simulation::new(committee, network, seed)
        }
    };
    let mut built = Built {
        sim,
        board,
        collusion,
    };
    for (i, role) in spec.resolved_roles().into_iter().enumerate() {
        if role != Role::Honest {
            apply_event(spec, &mut built, &TimelineEvent::SetRole(i, role));
        }
    }
    built
}

/// Builds the simulation for `spec` under one derived `seed`. Static
/// roles, crashes included, are installed before returning. The spec's
/// timeline schedule is **not** executed — callers driving the simulation
/// by hand get the t = 0 state; use [`run_sim`] (or [`run_one`]) to run a
/// spec schedule and all.
pub fn build_sim(spec: &ScenarioSpec, seed: u64) -> Simulation<Actor> {
    build(spec, seed).sim
}

/// Applies one scheduled event at the start of its tick.
fn apply_event(spec: &ScenarioSpec, built: &mut Built, event: &TimelineEvent) {
    match event {
        TimelineEvent::Crash(player) => built.sim.crash(NodeId(*player)),
        TimelineEvent::Recover(player) => built.sim.recover(NodeId(*player)),
        TimelineEvent::SetRole(player, role) => {
            if matches!(role, Role::Crash) {
                built.sim.crash(NodeId(*player));
            } else {
                let behavior = behavior_for(spec, role, &built.board, &built.collusion)
                    .unwrap_or_else(|| Box::new(Honest));
                replica_mut(&mut built.sim, NodeId(*player)).set_behavior(behavior);
            }
        }
        // Resolved into rule windows at network build time.
        TimelineEvent::AddDelayRule { .. } | TimelineEvent::RemoveDelayRule { .. } => {}
        TimelineEvent::InjectTx(tx) => {
            let transaction =
                Transaction::new(tx.id, NodeId(tx.to.unwrap_or(0)), tx.payload.clone());
            match tx.to {
                Some(player) => {
                    replica_mut(&mut built.sim, NodeId(player))
                        .mempool_mut()
                        .submit(transaction);
                }
                None => {
                    for i in 0..spec.n {
                        replica_mut(&mut built.sim, NodeId(i))
                            .mempool_mut()
                            .submit(transaction.clone());
                    }
                }
            }
        }
    }
}

/// Runs `built` to the spec's horizon, interleaving scheduled events with
/// [`Simulation::run_before`] segments in tick order (ties broken by
/// insertion index). Returns the outcome of the final segment, or
/// [`RunOutcome::EventLimit`] as soon as any segment trips the valve.
///
/// With a `store`, the run also pauses at each capture tick and — before
/// applying any events there — offers its state under the prefix text
/// below that tick. Capture ticks are the spec's own event boundaries
/// plus any store-advertised capture hints whose prefix text matches
/// ([`CheckpointStore::capture_ticks_for`]) — the latter give sibling
/// cells *suffix* captures past this spec's last own event. The
/// capture plan is a pure function of `(spec, hint set)`; store contents
/// only skip the clone, never change where the run pauses (and
/// `run_before` at a non-event tick is state-neutral, so the extra
/// segmentation cannot perturb observables). Without a store the plan is
/// empty: a cold run pauses only at its own events and never clones.
///
/// `resume_from` marks a forked run: events below the resumed boundary
/// are skipped and captures at or below it are suppressed (the store
/// already holds them).
fn execute_schedule(
    spec: &ScenarioSpec,
    built: &mut Built,
    resume_from: Option<u64>,
    store: Option<&CheckpointStore>,
    seed: u64,
) -> RunOutcome {
    let events = ordered_events(spec);
    let resumed = resume_from.unwrap_or(0);
    let mut captures: Vec<u64> = Vec::new();
    if let Some(store) = store {
        captures.extend(events.iter().map(|&(t, _)| t));
        captures.extend(store.capture_ticks_for(spec));
        captures.retain(|&t| t > resumed);
        captures.sort_unstable();
        captures.dedup();
    }
    let mut i = events.partition_point(|&(t, _)| t < resumed);
    let mut c = 0;
    while i < events.len() || c < captures.len() {
        let tick = match (events.get(i).map(|&(t, _)| t), captures.get(c).copied()) {
            (Some(e), Some(h)) => e.min(h),
            (Some(e), None) => e,
            (None, Some(h)) => h,
            (None, None) => unreachable!("loop condition"),
        };
        if tick > 0 && built.sim.run_before(SimTime(tick)) == RunOutcome::EventLimit {
            return RunOutcome::EventLimit;
        }
        if let Some(store) = store.filter(|_| captures.get(c) == Some(&tick)) {
            c += 1;
            let key = (prefix_fingerprint(spec, tick), seed);
            // Check-then-clone: the population clone is the expensive
            // part, so skip it when a sibling already captured this
            // boundary. A racing duplicate only refreshes the survivor's
            // LRU stamp (first writer wins).
            if !store.contains(&key, tick) {
                let entry = CheckpointEntry {
                    snapshot: built.sim.snapshot(),
                    board: built.board.lock().unwrap().clone(),
                    hooks: prft_sim::obs::hooks::snapshot(),
                    tick,
                };
                store.insert(key, entry);
            }
        }
        while i < events.len() && events[i].0 == tick {
            apply_event(spec, built, events[i].1);
            i += 1;
        }
    }
    built.sim.run_until(SimTime(spec.horizon))
}

/// Builds one seeded simulation of `spec` — committee plus the workload's
/// clients, if it has any — executes its timeline schedule to the horizon,
/// and returns the finished simulation with the run outcome. `configure`
/// runs on the freshly built simulation before any event is processed
/// (e.g. `|sim| sim.set_tracing(true)`).
pub fn run_sim(
    spec: &ScenarioSpec,
    seed: u64,
    configure: impl FnOnce(&mut Simulation<Actor>),
) -> (Simulation<Actor>, RunOutcome) {
    let mut built = build(spec, seed);
    configure(&mut built.sim);
    let outcome = execute_schedule(spec, &mut built, None, None, seed);
    (built.sim, outcome)
}

// Exists only because the frozen `benchmark/` crate still calls it; goes
// away in the next `benchmark` PR.
#[doc(hidden)]
pub fn run_workload_sim(
    spec: &ScenarioSpec,
    seed: u64,
    configure: impl FnOnce(&mut Simulation<Actor>),
) -> (Simulation<Actor>, RunOutcome) {
    run_sim(spec, seed, configure)
}

/// Builds, runs (timeline schedule included), and summarizes one seeded
/// run of `spec`, cold: [`run_one_with`] without a store.
pub fn run_one(spec: &ScenarioSpec, seed: u64) -> RunRecord {
    run_one_with(spec, seed, None)
}

/// Builds, runs (timeline schedule included), and summarizes one seeded
/// run of `spec`, with checkpoint/fork warm starts when given a `store`.
///
/// With a [`CheckpointStore`], a run first looks for a captured state of
/// a sibling cell sharing its timeline prefix — trying its own fork
/// boundaries deepest-first, with the horizon as a pseudo-boundary so
/// schedule-free cells can also reuse — and resumes from the deepest hit
/// instead of re-simulating the prefix. Hit or miss, the run then
/// captures its own state at each remaining event boundary, plus any
/// matching capture hints the store advertises
/// ([`CheckpointStore::set_capture_hints_for`]), for later cells (first
/// writer wins). Forked and fresh runs produce byte-identical records —
/// pinned per registry timeline scenario and thread count by
/// `tests/checkpoint_equiv.rs`.
///
/// The thread-local observability hooks are reset before a fresh build
/// (and restored to the prefix's exact deltas on a fork), so the record's
/// `obs` registry holds this run's exact hook deltas — the batch runner
/// executes each seeded run wholly inside one worker closure, which is
/// what makes the aggregated `observability` section independent of
/// `--threads`.
pub fn run_one_with(spec: &ScenarioSpec, seed: u64, store: Option<&CheckpointStore>) -> RunRecord {
    let hit = store.and_then(|store| {
        boundaries(spec)
            .into_iter()
            .rev()
            .find_map(|tb| store.lookup(&(prefix_fingerprint(spec, tb), seed), tb))
    });
    let (mut built, resume_from) = match hit {
        Some(entry) => {
            prft_sim::obs::hooks::restore(entry.hooks);
            (fork_from(spec, &entry), Some(entry.tick))
        }
        None => {
            prft_sim::obs::hooks::reset();
            (build(spec, seed), None)
        }
    };
    let outcome = execute_schedule(spec, &mut built, resume_from, store, seed);
    record_run(spec, &built.sim, seed, outcome)
}

/// The record of a finished run of `spec`: [`summarize`], plus the
/// workload section (mirrored into the record's registry) when the spec
/// has one.
pub fn record_run(
    spec: &ScenarioSpec,
    sim: &Simulation<Actor>,
    seed: u64,
    outcome: RunOutcome,
) -> RunRecord {
    let mut rec = summarize(spec, sim, seed, outcome);
    if spec.workload.is_some() {
        let stats = WorkloadRunStats::collect(sim);
        stats.mirror_into(&mut rec.obs);
        rec.workload = Some(stats);
    }
    rec
}

/// Reassembles a runnable population from a captured prefix state.
///
/// The engine snapshot restores nodes (committee replicas, and the
/// workload's clients with their in-flight/retry state), queue, arena,
/// meter, counters, and broadcast domain; the scenario layer re-supplies
/// what the snapshot deliberately leaves out:
///
/// - the **network stack**, rebuilt from the consumer's spec, of which it
///   is a pure function (delay rules and partitions are send-time windows
///   resolved at build time, so there is no link state to carry over);
/// - the **fork blackboard**, deep-copied into a fresh `Arc` and rebound
///   into every committee replica's behavior, so the fork never aliases
///   the producer run's live coordination state (and later scheduled
///   colluders join the fork's own board; uncoordinated behaviors ignore
///   the rebind).
fn fork_from(spec: &ScenarioSpec, entry: &CheckpointEntry) -> Built {
    let network = network_model(spec).into_model();
    let mut sim = Simulation::restore(&entry.snapshot, network);
    let board: Blackboard = std::sync::Arc::new(std::sync::Mutex::new(entry.board.clone()));
    // Only committee seats (0..n) carry behaviors; clients have none.
    for i in 0..spec.n {
        replica_mut(&mut sim, NodeId(i)).rebind_behavior_state(&board);
    }
    let collusion: HashSet<NodeId> = spec.censor_collusion().into_iter().map(NodeId).collect();
    Built {
        sim,
        board,
        collusion,
    }
}

/// Extracts the [`RunRecord`] from a finished simulation: one [`analyze`]
/// pass over the honest seats, σ classified from its verdicts, the
/// spec's transaction columns read off the same honest chains, and the
/// [`crate::INVARIANTS`] rows that read the simulation. Generic so
/// that callers wrapping the nodes (the benchmark's timing wrappers) can
/// still summarize; the workload section is attached by [`run_one_with`],
/// not here.
///
/// Utilities are `Σ_{r<R} δ^r · f(σ, θ) − L·[player burned]`: the stream
/// runs over *time periods*, not protocol progress (a jammed system keeps
/// paying the σ_NP penalty), and the penalty applies iff any honest
/// player's ledger burned the player.
pub fn summarize<N: Node + AsReplica>(
    spec: &ScenarioSpec,
    sim: &Simulation<N>,
    seed: u64,
    outcome: prft_sim::RunOutcome,
) -> RunRecord {
    let report = analyze(sim);
    let chains: Vec<&Chain> = report
        .honest
        .iter()
        .map(|&id| replica(sim, id).chain())
        .collect();
    let final_nowhere = |&id: &u64| chains.iter().all(|c| !c.contains_tx_final(TxId(id)));
    let sigma = classify(&StateObservation {
        agreement: report.agreement,
        max_final_height: report.max_final_height,
        censored: spec.watched.iter().any(final_nowhere),
    });
    let utilities = match spec.utility {
        Some(u) => {
            let per_round = PayoffTable::new(u.alpha).f(sigma, u.theta);
            let stream = discounted_sum(&vec![per_round; u.rounds as usize], u.delta);
            let utility = |i| {
                if report.burned.contains(&NodeId(i)) {
                    stream - u.penalty_l
                } else {
                    stream
                }
            };
            (0..spec.n).map(utility).collect()
        }
        None => Vec::new(),
    };
    let txs_included = spec
        .txs
        .iter()
        .map(|tx| chains.iter().any(|c| c.contains_tx(TxId(tx.id))))
        .collect();
    let watched_finalized = spec
        .watched
        .iter()
        .map(|&id| chains.iter().all(|c| c.contains_tx_final(TxId(id))))
        .collect();
    let hooks = prft_sim::obs::hooks::snapshot();
    RunRecord {
        seed,
        outcome,
        min_final_height: report.min_final_height,
        max_final_height: report.max_final_height,
        agreement: report.agreement,
        verdicts: Finished::new(spec, sim, &report, hooks).verdicts(),
        burned: report.burned.iter().map(|id| id.0).collect(),
        view_changes: report.view_changes,
        exposes: report.exposes,
        rounds_entered: report.rounds_entered,
        txs_included,
        watched_finalized,
        sigma,
        throughput: report.throughput,
        total_messages: sim.meter().total_messages(),
        total_bytes: sim.meter().total_bytes(),
        events_dispatched: sim.events_dispatched(),
        peak_queue_depth: sim.peak_queue_depth() as u64,
        in_flight_messages: sim.in_flight_messages() as u64,
        obs: prft_core::obs::collect(sim, &hooks),
        workload: None,
        utilities,
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    type Delivery = (u64, usize, usize, &'static str);

    fn observed<N: Node + AsReplica>(
        spec: &ScenarioSpec,
        sim: &Simulation<N>,
        seed: u64,
        outcome: RunOutcome,
    ) -> (String, Vec<Delivery>) {
        let deliveries = sim
            .trace()
            .entries()
            .iter()
            .map(|e| (e.at.0, e.from.0, e.to.0, e.kind))
            .collect();
        let record = summarize(spec, sim, seed, outcome);
        (record.to_json().render(), deliveries)
    }

    /// The reference path: a bare `Simulation<Replica>` straight from the
    /// prepared harness, its roles installed through the harness and its
    /// crashes applied by hand, driven by a minimal schedule loop of its
    /// own (crash/recover is all the scenarios below schedule).
    fn reference_run(spec: &ScenarioSpec, seed: u64) -> (String, Vec<Delivery>) {
        prft_sim::obs::hooks::reset();
        let (mut h, board, collusion) = prepared(spec, seed);
        let roles = spec.resolved_roles();
        for (i, role) in roles.iter().enumerate() {
            if let Some(behavior) = behavior_for(spec, role, &board, &collusion) {
                h = h.with_behavior(NodeId(i), behavior);
            }
        }
        let mut sim = h.build();
        sim.set_tracing(true);
        for (i, role) in roles.iter().enumerate() {
            if matches!(role, Role::Crash) {
                sim.crash(NodeId(i));
            }
        }
        for (tick, event) in ordered_events(spec) {
            if tick > 0 {
                sim.run_before(SimTime(tick));
            }
            match event {
                TimelineEvent::Crash(player) => sim.crash(NodeId(*player)),
                TimelineEvent::Recover(player) => sim.recover(NodeId(*player)),
                other => panic!("the reference loop knows crash/recover only, not {other:?}"),
            }
        }
        let outcome = sim.run_until(SimTime(spec.horizon));
        observed(spec, &sim, seed, outcome)
    }

    /// The delay-rule resolver on specs alone: each row is a schedule (in
    /// insertion order) and the `(from, to, from_time, until_time)` windows
    /// it must resolve to.
    #[test]
    fn delay_events_resolve_to_fixed_windows() {
        type Pattern = (Option<usize>, Option<usize>);
        type Window = (Pattern, u64, u64);
        type Row = (&'static str, Vec<(u64, TimelineEvent)>, Vec<Window>);
        const P0: Pattern = (Some(0), None);
        let add = |(from, to): Pattern, window| TimelineEvent::AddDelayRule {
            from,
            to,
            extra: 7,
            window,
        };
        let remove = |(from, to): Pattern| TimelineEvent::RemoveDelayRule { from, to };
        let horizon = 1_000;
        let table: Vec<Row> = vec![
            (
                "add then remove clips to the removal tick",
                vec![(10, add(P0, 500)), (40, remove(P0))],
                vec![(P0, 10, 40)],
            ),
            (
                "remove then add at one tick leaves the rule unclipped",
                vec![(10, remove(P0)), (10, add(P0, 500))],
                vec![(P0, 10, 510)],
            ),
            (
                "add then remove at one tick is an empty window",
                vec![(10, add(P0, 500)), (10, remove(P0))],
                vec![(P0, 10, 10)],
            ),
            (
                "patterns compare as written, in both positions",
                vec![
                    (10, add(P0, 500)),
                    (10, add((None, Some(2)), 500)),
                    (20, remove((Some(1), None))),
                    (20, remove((None, None))),
                    (20, remove((Some(0), Some(2)))),
                ],
                vec![(P0, 10, 510), ((None, Some(2)), 10, 510)],
            ),
            (
                "one removal clips every earlier rule of the pattern",
                vec![(10, add(P0, 500)), (30, add(P0, 20)), (40, remove(P0))],
                vec![(P0, 10, 40), (P0, 30, 40)],
            ),
            (
                "a removal never extends an expired window, a re-add is unclipped",
                vec![(10, add(P0, 5)), (40, remove(P0)), (60, add(P0, 100))],
                vec![(P0, 10, 15), (P0, 60, 160)],
            ),
            (
                "execution order is by tick, not insertion",
                vec![(40, remove(P0)), (10, add(P0, 500))],
                vec![(P0, 10, 40)],
            ),
            (
                "an unbounded window saturates",
                vec![(10, add(P0, u64::MAX))],
                vec![(P0, 10, u64::MAX)],
            ),
            (
                "events past the horizon are dropped",
                vec![
                    (10, add(P0, 5_000)),
                    (horizon + 1, remove(P0)),
                    (horizon + 1, add(P0, 5)),
                ],
                vec![(P0, 10, 5_010)],
            ),
        ];
        for (case, schedule, expected) in table {
            let mut spec = ScenarioSpec::new(case, 4, 1).horizon(horizon);
            for (tick, event) in schedule {
                spec = spec.at(tick, event);
            }
            let resolved: Vec<Window> = scheduled_delay_rules(&spec)
                .iter()
                .map(|r| {
                    assert_eq!(r.extra, SimTime(7), "{case}");
                    let pattern = (r.from.map(|id| id.0), r.to.map(|id| id.0));
                    (pattern, r.from_time.0, r.until_time.0)
                })
                .collect();
            assert_eq!(resolved, expected, "{case}");
        }
    }

    /// Every role's ballot answers, pinned: each phase × {the round-0 plan's
    /// `a`, its `b`, an unrelated `u`} × round 0 (planned; led by P0, the
    /// censor coalition) and round 1 (no plan; led by honest P1). An answer
    /// reads `H` honest, `-` silent, `R<v>` sign `v` instead, `S<v><ids>`
    /// also sign `v` toward seats `ids`; `?` is a value outside `a b u`.
    /// Phases are separated by `|` in the order Vote, Commit, Reveal, Final.
    #[test]
    fn every_role_answers_every_ballot_phase_as_pinned() {
        let (a, b, u) = (
            Digest::of_bytes(b"a"),
            Digest::of_bytes(b"b"),
            Digest::of_bytes(b"u"),
        );
        let name = |v: Digest| {
            [(a, "a"), (b, "b"), (u, "u")]
                .iter()
                .find(|p| p.0 == v)
                .map_or("?", |p| p.1)
        };
        let answer = |action: BallotAction| match action {
            BallotAction::Honest => "H".to_string(),
            BallotAction::Silent => "-".to_string(),
            BallotAction::Replace(v) => format!("R{}", name(v)),
            BallotAction::Split { b, b_recipients } => {
                let mut ids: Vec<usize> = b_recipients.iter().map(|id| id.0).collect();
                ids.sort_unstable();
                let ids: String = ids.iter().map(usize::to_string).collect();
                format!("S{}{ids}", name(b))
            }
        };
        let spec = ScenarioSpec::new("ballots", 4, 1).fork_b_group([3]);
        let board = blackboard();
        board.lock().unwrap().publish(Round(0), a, b);
        let collusion: HashSet<NodeId> = [NodeId(0)].into_iter().collect();

        const HONEST: &str = "H,H,H | H,H,H | H,H,H | H,H,H";
        const SILENT: &str = "-,-,- | -,-,- | -,-,- | -,-,-";
        const FORK: &str = "Sb3,Sa012,H | Sb3,Sa012,H | Sb3,Sa012,H | Sb3,Sa012,H";
        let table: Vec<(Role, [&str; 2])> = vec![
            (Role::Honest, [HONEST; 2]),
            (Role::Crash, [HONEST; 2]),
            (Role::Abstain, [SILENT; 2]),
            (Role::PartialCensor, [HONEST, SILENT]),
            (Role::ForkColluder, [FORK, HONEST]),
            (
                Role::EquivocatingLeader { only_round: None },
                [FORK, HONEST],
            ),
            (
                Role::EquivocatingLeader {
                    only_round: Some(1),
                },
                [FORK, HONEST],
            ),
            (
                Role::GarbageVoter,
                ["R?,R?,R? | R?,R?,R? | R?,R?,R? | H,H,H"; 2],
            ),
            (
                Role::DoubleVoter,
                ["S?23,S?23,S?23 | S?23,S?23,S?23 | H,H,H | H,H,H"; 2],
            ),
            (Role::SilentLeader, [HONEST; 2]),
            (Role::VcSpammer, ["-,-,- | -,-,- | -,-,- | H,H,H"; 2]),
        ];
        for (role, expected) in table {
            let mut behavior =
                behavior_for(&spec, &role, &board, &collusion).unwrap_or_else(|| Box::new(Honest));
            for (round, expected) in (0..).map(Round).zip(expected) {
                let observed: Vec<String> =
                    [Phase::Vote, Phase::Commit, Phase::Reveal, Phase::Final]
                        .into_iter()
                        .map(|phase| {
                            let answers: Vec<String> = [a, b, u]
                                .map(|v| answer(behavior.on_ballot(phase, round, v)))
                                .into();
                            answers.join(",")
                        })
                        .collect();
                assert_eq!(observed.join(" | "), expected, "{role:?} in {round}");
            }
        }
    }

    /// A zero-client `Actor` population is semantics-free: boxing the
    /// committee behind the enum changes neither the record nor a single
    /// delivery.
    #[test]
    fn zero_client_population_matches_bare_committee() {
        for name in ["honest-sync", "fork-attack", "crash-churn"] {
            let spec = &crate::registry::find(name).expect("registered").specs[0];
            let seed = crate::runner::derive_seed(spec.base_seed, 0);
            prft_sim::obs::hooks::reset();
            let (sim, outcome) = run_sim(spec, seed, |sim| sim.set_tracing(true));
            let unified = observed(spec, &sim, seed, outcome);
            assert!(!unified.1.is_empty(), "{name}: nothing was delivered");
            assert_eq!(unified, reference_run(spec, seed), "{name}");
        }
    }
}
