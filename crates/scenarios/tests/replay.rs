//! Exact-replay regression tests: two builds of the same spec + seed must
//! produce identical message traces within one process and across spec
//! clones.
//!
//! The fork path regressed here once: queued split-commit recipients were
//! held in a `HashSet`, whose per-instance hashing state randomized the
//! send order (and with it the link-RNG draw order), so two identical fork
//! runs in the same process could diverge. Recipients are now kept in a
//! `BTreeSet`; this test pins the invariant for the most
//! adversarially-busy scenario shape.

use prft_game::Theta;
use prft_lab::{Role, ScenarioSpec, TimelineEvent, UtilitySpec};
use prft_sim::SimTime;

fn fork_spec() -> ScenarioSpec {
    ScenarioSpec::new("replay-probe", 9, 3)
        .base_seed(0xf0_17c)
        .role(
            0,
            Role::EquivocatingLeader {
                only_round: Some(0),
            },
        )
        .roles(1..=3, Role::ForkColluder)
        .fork_b_group([7, 8])
        .utility(UtilitySpec::standard(Theta::ForkSeeking, 3))
        .horizon(600_000)
}

fn trace_of(spec: &ScenarioSpec, seed: u64) -> Vec<(u64, usize, usize, &'static str)> {
    let mut sim = prft_lab::build_sim(spec, seed);
    sim.set_tracing(true);
    sim.run_until(SimTime(spec.horizon));
    sim.trace()
        .entries()
        .iter()
        .map(|e| (e.at.0, e.from.0, e.to.0, e.kind))
        .collect()
}

/// Like [`trace_of`], but executes the spec's timeline schedule (the
/// `run_sim` path), so crash/recover events actually fire.
fn scheduled_trace_of(spec: &ScenarioSpec, seed: u64) -> Vec<(u64, usize, usize, &'static str)> {
    let (sim, _) = prft_lab::run_sim(spec, seed, |sim| sim.set_tracing(true));
    sim.trace()
        .entries()
        .iter()
        .map(|e| (e.at.0, e.from.0, e.to.0, e.kind))
        .collect()
}

#[test]
fn fork_run_replays_identically() {
    let spec = fork_spec();
    let a = trace_of(&spec, 42);
    let b = trace_of(&spec, 42);
    assert!(!a.is_empty());
    assert_eq!(a, b, "same spec + seed must replay the same trace");
}

#[test]
fn equal_specs_share_dynamics_whatever_their_economics() {
    // Economics (L) feed utility measurement only; the simulated dynamics
    // must be bit-equal across L values.
    let cheap = fork_spec();
    let expensive = ScenarioSpec {
        utility: Some(UtilitySpec {
            penalty_l: 1_000.0,
            ..UtilitySpec::standard(Theta::ForkSeeking, 3)
        }),
        ..fork_spec()
    };
    assert_eq!(trace_of(&cheap, 7), trace_of(&expensive, 7));
}

/// A spec that hammers the engine's crash/cancel bookkeeping: rolling
/// crash/recover churn makes the `crashed` set churn mid-run and drives
/// phase-timeout timers (and their cancellations) hard.
fn churn_spec() -> ScenarioSpec {
    ScenarioSpec::new("churn-probe", 9, 4)
        .base_seed(0xc4a5)
        .role(8, Role::Abstain)
        .phase_timeout(400)
        .at(3_000, TimelineEvent::Crash(6))
        .at(3_000, TimelineEvent::Crash(7))
        .at(40_000, TimelineEvent::Recover(6))
        .at(90_000, TimelineEvent::Recover(7))
        .horizon(400_000)
}

#[test]
fn crash_and_cancel_bookkeeping_replays_identically() {
    // PR-5 determinism audit companion: the engine's `crashed` and
    // `cancelled` sets moved from `HashSet` to `BTreeSet`. They are only
    // ever probed, never iterated — but this pins the invariant the same
    // way the PR-1 `replica.rs` fix is pinned, so a future iteration over
    // either set cannot quietly reintroduce per-instance hash-order
    // nondeterminism. The scenario crashes and recovers players mid-run
    // (churning `crashed`) under a tight phase timeout (churning timer
    // cancellations).
    let spec = churn_spec();
    let a = scheduled_trace_of(&spec, 13);
    let b = scheduled_trace_of(&spec, 13);
    assert!(!a.is_empty());
    assert_eq!(a, b, "crash/cancel-heavy run must replay the same trace");
}
