//! Checkpoint/fork warm starts for sweep-scale reuse.
//!
//! Grid sweeps and game explorations evaluate many [`ScenarioSpec`]s that
//! share a *timeline prefix*: the static committee/network configuration
//! plus every scheduled event before some tick `t` are identical, and the
//! specs only diverge later (a defection at tick 500, a delay rule lifted
//! at GST, …). Because the simulation is bit-deterministic, the state at
//! the first divergent tick is a pure function of (prefix, seed) — so it
//! can be captured once and *forked* by every sibling cell instead of
//! re-simulated from `t = 0`.
//!
//! This module provides the three pieces:
//!
//! - [`prefix_fingerprint`]: the canonical text of "the simulation a
//!   spec describes, up to (excluding) tick `t`". Two specs with equal
//!   prefix texts and equal derived seeds are guaranteed to be in
//!   byte-identical states at any capture point below `t`.
//! - [`CheckpointEntry`]: a captured state — one engine snapshot
//!   (committee plus any workload clients) plus the scenario-layer shared
//!   state the engine cannot see (the fork blackboard and the
//!   thread-local observability hook counters).
//! - [`CheckpointStore`]: an in-memory, LRU-bounded, thread-shared map
//!   from `(prefix text, seed)` to captured states at increasing
//!   depths, with fork/reuse accounting ([`ReuseStats`]) and optional
//!   *capture hints* ([`CheckpointStore::set_capture_hints_for`]) that
//!   let producing runs take deep captures at sibling boundaries past
//!   their own divergence (suffix texts).
//!
//! The warm-start run path lives in `build::run_one_with`; this module is
//! purely the bookkeeping. See `docs/CHECKPOINTING.md` for the full
//! contract (what is and is not in a checkpoint, and why the reuse
//! counters deliberately stay out of per-run reports).

use crate::spec::{ScenarioSpec, TimelineEvent};
use prft_adversary::ForkPlan;
use prft_sim::obs::hooks::HookSnapshot;
use prft_sim::SimSnapshot;
use prft_workload::Actor;
use std::collections::{BTreeMap, HashMap};
use std::sync::{Arc, Mutex};

/// Default number of checkpoints a store retains before evicting the
/// least-recently-used one. Checkpoints hold a full committee clone, so
/// the bound is deliberately modest.
pub const DEFAULT_CAPACITY: usize = 64;

/// The canonical text of `spec`'s simulation prefix below `tick_bound`:
/// the checkpoint store's key, and the head of the explorer cache's key
/// ([`ScenarioSpec::fingerprint`]).
///
/// Two cells whose prefix texts are equal (and that run under the same
/// derived seed) are guaranteed to traverse byte-identical simulation
/// states up to the first event at or after `tick_bound` — so a state
/// captured by one at any tick `≤ tick_bound` is a valid resume point for
/// the other. A hit is text equality, so two different prefixes can
/// never share a key.
///
/// The text covers, in a canonical form:
///
/// - every *static* field that shapes the build: `n`, `max_rounds`,
///   `horizon`, `synchrony`, `partitions` (every window, whatever its
///   ticks: the link stack is built at `t = 0`), `roles`, `censored`,
///   `fork_b_group`, `txs`, `tau_override`, `accountable`,
///   `phase_timeout`, and the `workload` section (every workload knob
///   shapes the population and its traffic from `t = 0`);
/// - the whole-schedule-derived build inputs: the censor collusion set
///   (baked into `PartialCensor` behaviors at `t = 0` even when the
///   censoring seat is only scheduled later) and the presence of a
///   `TargetedDelay` wrapper;
/// - the *dynamic prefix*: every scheduled event with
///   `tick < tick_bound`, in execution order (stable tick sort). Delay
///   events count here although they too resolve into build-time
///   windows: one at `t` only shapes sends from `t` on, so cells agreeing
///   below the bound saw identical delays below it.
///
/// It canonicalizes away the fields that provably cannot affect the
/// simulation state: `label`, `watched` and `utility` (post-run
/// measurement only) and `base_seed` (the store is keyed by the *derived*
/// seed separately). Derived `Debug` escapes tabs and newlines, so the
/// text is always one tab-free line.
pub fn prefix_fingerprint(spec: &ScenarioSpec, tick_bound: u64) -> String {
    state_text(spec, |tick| tick < tick_bound)
}

/// [`prefix_fingerprint`]'s text over the scheduled events `keep` admits.
pub(crate) fn state_text(spec: &ScenarioSpec, keep: impl Fn(u64) -> bool) -> String {
    let mut canonical = spec.clone();
    canonical.label = String::new();
    canonical.base_seed = 0;
    canonical.watched = Vec::new();
    canonical.utility = None;
    canonical.schedule = Vec::new();
    let prefix = ordered_events(spec)
        .into_iter()
        .filter(|&(t, _)| keep(t))
        .collect::<Vec<_>>();
    let collusion = spec.censor_collusion();
    let delay_wrapped = spec.uses_targeted_delay();
    format!("{canonical:?}|collusion:{collusion:?}|delay:{delay_wrapped}|prefix:{prefix:?}")
}

/// The spec's schedule in execution order (ascending tick, same-tick
/// events in insertion order, events beyond the horizon dropped) —
/// exactly the order the timeline executor applies them.
pub(crate) fn ordered_events(spec: &ScenarioSpec) -> Vec<(u64, &TimelineEvent)> {
    let mut events: Vec<(u64, &TimelineEvent)> = spec
        .schedule
        .iter()
        .filter(|(tick, _)| *tick <= spec.horizon)
        .map(|(t, e)| (*t, e))
        .collect();
    events.sort_by_key(|(t, _)| *t); // stable: same-tick in insertion order
    events
}

/// The spec's distinct event ticks in `(0, horizon]`,
/// ascending — the boundaries a warm run captures at, and the
/// capture-hint contribution a grid sibling advertises.
pub(crate) fn event_ticks(spec: &ScenarioSpec) -> Vec<u64> {
    let mut out: Vec<u64> = ordered_events(spec)
        .into_iter()
        .map(|(t, _)| t)
        .filter(|&t| t > 0)
        .collect();
    out.dedup();
    out
}

/// The candidate fork boundaries of a spec, ascending: every distinct
/// event tick `> 0`, plus the horizon as a pseudo-boundary so a
/// schedule-free cell can still fork from a sibling's captured prefix.
/// An event scheduled exactly at the horizon contributes one boundary
/// (the trailing `dedup` collapses it into the pseudo-boundary).
pub(crate) fn boundaries(spec: &ScenarioSpec) -> Vec<u64> {
    let mut out = event_ticks(spec);
    out.push(spec.horizon);
    out.dedup();
    out
}

/// One captured prefix state: everything a sibling cell needs to resume
/// the run from `tick` without replaying the prefix.
///
/// The engine snapshot carries nodes (behaviors, verify caches, RNG —
/// and, for workload runs, every client's in-flight/retry state), queue,
/// arena, meter, counters, and the broadcast domain. The two pieces of
/// state the engine cannot see ride alongside: the fork blackboard
/// content (deep-copied so forks never alias the producer's live
/// `Arc<Mutex<…>>`) and the thread-local observability hook counters
/// accumulated over the prefix. The link stack is not captured: it is
/// rebuilt from the consumer's spec, of which it is a pure function (see
/// `docs/CHECKPOINTING.md`).
pub struct CheckpointEntry {
    /// Engine-level state at the capture point.
    pub(crate) snapshot: SimSnapshot<Actor>,
    /// Deep copy of the fork blackboard content at the capture point.
    pub(crate) board: ForkPlan,
    /// Thread-local observability hook counters at the capture point.
    pub(crate) hooks: HookSnapshot,
    /// The capture boundary: state reflects `run_before(tick)`, before
    /// any event scheduled at `tick` was applied.
    pub(crate) tick: u64,
}

impl CheckpointEntry {
    /// The capture boundary tick.
    pub fn tick(&self) -> u64 {
        self.tick
    }
}

/// Reuse accounting for one [`CheckpointStore`].
///
/// These are the `sim.checkpoint.{created,forked,prefix_ticks_saved}`
/// counters. They live at store level — **not** in the per-run
/// observability registry — because whether a given cell forks or runs
/// fresh depends on worker scheduling, and per-run reports are pinned
/// byte-identical across `--threads`. Surface: `prft-lab … --explain-reuse`
/// and `prft-bench checkpoint`.
#[derive(Debug, Default, Clone, Copy, PartialEq, Eq)]
pub struct ReuseStats {
    /// Checkpoints captured (`sim.checkpoint.created`).
    pub created: u64,
    /// Runs resumed from a checkpoint (`sim.checkpoint.forked`).
    pub forked: u64,
    /// Virtual ticks of prefix not re-simulated, summed over forks
    /// (`sim.checkpoint.prefix_ticks_saved`).
    pub prefix_ticks_saved: u64,
}

/// A store key: `(prefix text, derived seed)`.
type Key = (String, u64);

struct Slot {
    entry: Arc<CheckpointEntry>,
    last_used: u64,
}

#[derive(Default)]
struct Inner {
    /// `(prefix text, derived seed)` → capture tick → state.
    map: HashMap<Key, BTreeMap<u64, Slot>>,
    /// Capture hints, sorted: `(tick, prefix text at that tick)` pairs
    /// advertising the boundaries *sibling* cells will probe. A run
    /// captures at a hint tick exactly when its own prefix text at that
    /// tick matches — so deep captures past its last scheduled event (the
    /// suffix texts of forked cells included) are taken only where some
    /// sibling can actually consume them. Shared, so a run reads them
    /// without copying.
    hints: Arc<[(u64, String)]>,
    clock: u64,
    len: usize,
    stats: ReuseStats,
}

/// In-memory, thread-shared checkpoint cache for one sweep invocation.
///
/// Keys are `(prefix text, derived seed)`; each key holds captures
/// at increasing depths and [`CheckpointStore::lookup`] returns the
/// deepest one not past the requested boundary. Capacity-bounded with
/// least-recently-used eviction (capacity counts individual checkpoints).
///
/// The store is in-memory only: committee state holds boxed behaviors and
/// shared `Arc` structure that have no serialized form, so checkpoints do
/// not persist across processes — reuse is scoped to one sweep
/// invocation, which is where the shared-prefix redundancy lives.
pub struct CheckpointStore {
    inner: Mutex<Inner>,
    capacity: usize,
}

impl Default for CheckpointStore {
    fn default() -> Self {
        CheckpointStore::new(DEFAULT_CAPACITY)
    }
}

impl CheckpointStore {
    /// Creates a store retaining at most `capacity` checkpoints
    /// (minimum 1).
    pub fn new(capacity: usize) -> Self {
        CheckpointStore {
            inner: Mutex::new(Inner::default()),
            capacity: capacity.max(1),
        }
    }

    /// The deepest checkpoint for `key` captured at a tick `≤ boundary`,
    /// if any. A hit counts as a fork in [`ReuseStats`].
    pub fn lookup(&self, key: &Key, boundary: u64) -> Option<Arc<CheckpointEntry>> {
        let mut inner = self.inner.lock().unwrap();
        let clock = {
            inner.clock += 1;
            inner.clock
        };
        let slot = inner
            .map
            .get_mut(key)?
            .range_mut(..=boundary)
            .next_back()
            .map(|(_, slot)| {
                slot.last_used = clock;
                Arc::clone(&slot.entry)
            })?;
        inner.stats.forked += 1;
        inner.stats.prefix_ticks_saved += slot.tick;
        Some(slot)
    }

    /// Whether a checkpoint already exists for `key` at exactly `tick` —
    /// producers check this before paying for the committee clone.
    pub fn contains(&self, key: &Key, tick: u64) -> bool {
        let inner = self.inner.lock().unwrap();
        inner.map.get(key).is_some_and(|m| m.contains_key(&tick))
    }

    /// Inserts a capture, first writer wins (a concurrent duplicate is
    /// dropped — both captured the same deterministic state). A duplicate
    /// still *touches* the surviving slot's LRU stamp: a checkpoint being
    /// actively re-produced by concurrent workers is about to be probed by
    /// their sibling cells, so it must not be the next eviction victim.
    /// Counts toward `created` only on actual insert; evicts the
    /// least-recently-used checkpoint when over capacity.
    pub fn insert(&self, key: Key, entry: CheckpointEntry) {
        let tick = entry.tick;
        let mut inner = self.inner.lock().unwrap();
        inner.clock += 1;
        let clock = inner.clock;
        let by_tick = inner.map.entry(key).or_default();
        if let Some(slot) = by_tick.get_mut(&tick) {
            slot.last_used = clock;
            return;
        }
        by_tick.insert(
            tick,
            Slot {
                entry: Arc::new(entry),
                last_used: clock,
            },
        );
        inner.len += 1;
        inner.stats.created += 1;
        while inner.len > self.capacity {
            // O(total entries) scan — capacity is small by construction.
            let victim = inner
                .map
                .iter()
                .flat_map(|(key, m)| m.iter().map(move |(t, s)| (s.last_used, key, *t)))
                .min()
                .map(|(_, key, t)| (key.clone(), t));
            if let Some((key, t)) = victim {
                if let Some(m) = inner.map.get_mut(&key) {
                    m.remove(&t);
                    if m.is_empty() {
                        inner.map.remove(&key);
                    }
                }
                inner.len -= 1;
            } else {
                break;
            }
        }
    }

    /// Drops every checkpoint captured after `bound`, keeping shallower
    /// ones. This bounds how deep forks can start; the differential suite
    /// uses it to pin fork-vs-fresh equivalence at *each* boundary of a
    /// schedule, not just the deepest.
    pub fn retain_ticks_at_most(&self, bound: u64) {
        let mut inner = self.inner.lock().unwrap();
        let mut removed = 0;
        for m in inner.map.values_mut() {
            let before = m.len();
            m.retain(|&t, _| t <= bound);
            removed += before - m.len();
        }
        inner.map.retain(|_, m| !m.is_empty());
        inner.len -= removed;
    }

    /// Installs capture hints derived from `specs` — the cells of the
    /// sweep this store serves. Every sibling's event boundary becomes a
    /// `(tick, prefix text)` pair; a producing run then captures at a hint
    /// tick whenever its own prefix text there matches, even when the tick
    /// lies *past its last scheduled event* (a post-divergence deep
    /// capture under the suffix text). Hints never change any
    /// run's observables — captures are invisible — and never cause a
    /// capture no sibling boundary could consume.
    ///
    /// Replaces any previous hints. Install before fanning runs out: the
    /// capture plan of a run is a pure function of `(spec, hints)`, so the
    /// hint set must be fixed for the whole sweep to keep records
    /// thread-count-invariant.
    pub fn set_capture_hints_for<'a>(&self, specs: impl IntoIterator<Item = &'a ScenarioSpec>) {
        let mut hints: Vec<(u64, String)> = specs
            .into_iter()
            .flat_map(|spec| {
                event_ticks(spec)
                    .into_iter()
                    .map(|t| (t, prefix_fingerprint(spec, t)))
            })
            .collect();
        hints.sort_unstable();
        hints.dedup();
        self.inner.lock().unwrap().hints = hints.into();
    }

    /// The hint ticks applicable to a run of `spec`: every installed hint
    /// tick whose advertised prefix text equals `spec`'s own at that tick
    /// (sorted, deduplicated). Store *contents* never influence this —
    /// only the fixed hint set does.
    pub(crate) fn capture_ticks_for(&self, spec: &ScenarioSpec) -> Vec<u64> {
        let hints = Arc::clone(&self.inner.lock().unwrap().hints);
        let mut out = Vec::new();
        let mut i = 0;
        while i < hints.len() {
            let tick = hints[i].0;
            let fp = prefix_fingerprint(spec, tick);
            while i < hints.len() && hints[i].0 == tick {
                if hints[i].1 == fp {
                    out.push(tick);
                }
                i += 1;
            }
        }
        out.dedup();
        out
    }

    /// Number of checkpoints currently held.
    pub fn len(&self) -> usize {
        self.inner.lock().unwrap().len
    }

    /// Whether the store holds no checkpoints.
    pub fn is_empty(&self) -> bool {
        self.len() == 0
    }

    /// Snapshot of the reuse counters.
    pub fn stats(&self) -> ReuseStats {
        self.inner.lock().unwrap().stats
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::spec::{PartitionSpec, Role, Synchrony};

    fn spec() -> ScenarioSpec {
        ScenarioSpec::new("base", 4, 3)
    }

    /// Every `ScenarioSpec` field changed alone: `(field, spec, moves the
    /// state key, moves the cache key)`. The destructuring names every
    /// field, so a new field does not compile until it is classified here.
    #[rustfmt::skip]
    fn one_field_changed() -> Vec<(&'static str, ScenarioSpec, bool, bool)> {
        use crate::spec::{TxSpec, UtilitySpec};
        use prft_game::Theta;
        use prft_workload::WorkloadSpec;
        // `queue` and `verify_mode` are unit shims: no value changes them.
        let ScenarioSpec {
            label, n, max_rounds, horizon, base_seed, synchrony: _, partitions: _, roles: _,
            fork_b_group: _, txs: _, watched: _, censored: _, tau_override: _, accountable,
            phase_timeout: _, utility: _, schedule: _, workload: _, queue: (), verify_mode: (),
        } = spec();
        let window = PartitionSpec {
            start: 900,
            end: 2_000,
            groups: vec![vec![0, 1], vec![2, 3]],
            bridges: vec![],
        };
        let tx = TxSpec { id: 5, to: None, payload: vec![1] };
        let utility = UtilitySpec::standard(Theta::Honest, 3);
        vec![
            ("label", ScenarioSpec { label: label + "'", ..spec() }, false, true),
            ("n", ScenarioSpec { n: n + 1, ..spec() }, true, true),
            ("max_rounds", ScenarioSpec { max_rounds: max_rounds + 1, ..spec() }, true, true),
            ("horizon", ScenarioSpec { horizon: horizon + 1, ..spec() }, true, true),
            ("base_seed", ScenarioSpec { base_seed: base_seed + 1, ..spec() }, false, true),
            ("synchrony", ScenarioSpec { synchrony: Synchrony::Asynchronous, ..spec() }, true, true),
            ("partitions", ScenarioSpec { partitions: vec![window], ..spec() }, true, true),
            ("roles", ScenarioSpec { roles: vec![(1, Role::Abstain)], ..spec() }, true, true),
            ("fork_b_group", ScenarioSpec { fork_b_group: vec![2], ..spec() }, true, true),
            ("txs", ScenarioSpec { txs: vec![tx], ..spec() }, true, true),
            ("watched", ScenarioSpec { watched: vec![9], ..spec() }, false, true),
            ("censored", ScenarioSpec { censored: vec![9], ..spec() }, true, true),
            ("tau_override", ScenarioSpec { tau_override: Some(3), ..spec() }, true, true),
            ("accountable", ScenarioSpec { accountable: !accountable, ..spec() }, true, true),
            ("phase_timeout", ScenarioSpec { phase_timeout: Some(50), ..spec() }, true, true),
            ("utility", ScenarioSpec { utility: Some(utility), ..spec() }, false, true),
            ("schedule", ScenarioSpec { schedule: vec![(500, TimelineEvent::Crash(1))], ..spec() }, true, true),
            ("workload", ScenarioSpec { workload: Some(WorkloadSpec::steady(4, 100)), ..spec() }, true, true),
        ]
    }

    #[test]
    fn fingerprint_ignores_measurement_only_fields() {
        let a = spec();
        let mut b = spec();
        b.label = "other".into();
        b.base_seed = 77;
        b.watched = vec![9];
        let t = 1000;
        assert_eq!(prefix_fingerprint(&a, t), prefix_fingerprint(&b, t));
        // Only the measurement fields leave the state key unchanged; the
        // cache key still sees them.
        let mut neutral = Vec::new();
        for (field, changed, moves_state, moves_cache) in one_field_changed() {
            if !moves_state {
                let same = prefix_fingerprint(&changed, t) == prefix_fingerprint(&a, t);
                assert!(same, "{field}");
                assert_eq!(
                    changed.fingerprint() != a.fingerprint(),
                    moves_cache,
                    "{field}"
                );
                neutral.push(field);
            }
        }
        let listed = "label base_seed watched utility";
        assert_eq!(neutral.join(" "), listed);
    }

    #[test]
    fn fingerprint_tracks_static_fields() {
        let a = spec();
        let mut b = spec();
        b.n = 5;
        assert_ne!(prefix_fingerprint(&a, 10), prefix_fingerprint(&b, 10));
        let mut c = spec();
        c.accountable = !c.accountable;
        assert_ne!(prefix_fingerprint(&a, 10), prefix_fingerprint(&c, 10));
        // Every other field moves both keys.
        for (field, changed, moves_state, moves_cache) in one_field_changed() {
            if moves_state {
                assert!(moves_cache, "{field}");
                let t = 1000;
                assert_ne!(
                    prefix_fingerprint(&changed, t),
                    prefix_fingerprint(&a, t),
                    "{field}"
                );
                assert_ne!(changed.fingerprint(), a.fingerprint(), "{field}");
            }
        }
    }

    #[test]
    fn fingerprint_sees_only_events_below_bound() {
        let a = spec();
        let b = spec().at(500, TimelineEvent::Crash(1));
        assert_eq!(prefix_fingerprint(&a, 500), prefix_fingerprint(&b, 500));
        assert_ne!(prefix_fingerprint(&a, 501), prefix_fingerprint(&b, 501));
    }

    #[test]
    fn fingerprint_sees_suffix_censor_collusion() {
        // A censoring seat scheduled *after* the bound still shapes the
        // t = 0 build (collusion set baked into behaviors), so it must
        // break prefix equality.
        let a = spec();
        let b = spec().at(500, TimelineEvent::SetRole(1, Role::PartialCensor));
        assert_ne!(prefix_fingerprint(&a, 100), prefix_fingerprint(&b, 100));
    }

    #[test]
    fn fingerprint_sees_every_partition_window() {
        let a = spec();
        let b = spec().partition(PartitionSpec {
            start: 900,
            end: 2_000,
            groups: vec![vec![0, 1], vec![2, 3]],
            bridges: vec![],
        });
        // A window opening at tick 900 is static network config: even a
        // bound of 10 must see it.
        assert_ne!(prefix_fingerprint(&a, 10), prefix_fingerprint(&b, 10));
    }

    #[test]
    fn boundaries_include_horizon_pseudo_boundary() {
        let s = spec().at(500, TimelineEvent::Crash(1));
        assert_eq!(boundaries(&s), vec![500, s.horizon]);
        assert_eq!(boundaries(&spec()), vec![spec().horizon]);
    }

    #[test]
    fn at_horizon_event_collapses_into_pseudo_boundary() {
        // An event scheduled exactly at the horizon must yield ONE
        // boundary there, and the fingerprint at that boundary must not
        // see the event (prefix is strictly below the bound) — so it
        // agrees with a sibling that has no at-horizon event at all.
        let h = spec().horizon;
        let s = spec().at(h, TimelineEvent::Crash(1));
        assert_eq!(boundaries(&s), vec![h]);
        assert_eq!(prefix_fingerprint(&s, h), prefix_fingerprint(&spec(), h));
        assert_ne!(
            prefix_fingerprint(&s, h + 1),
            prefix_fingerprint(&spec(), h + 1)
        );
    }

    #[test]
    fn fingerprint_tracks_workload_knobs() {
        use prft_workload::WorkloadSpec;
        let a = spec();
        let b = spec().workload(WorkloadSpec::steady(4, 100));
        let c = spec().workload(WorkloadSpec::steady(5, 100));
        assert_ne!(
            prefix_fingerprint(&a, 10),
            prefix_fingerprint(&b, 10),
            "a workload section must separate fingerprints"
        );
        assert_ne!(
            prefix_fingerprint(&b, 10),
            prefix_fingerprint(&c, 10),
            "every workload knob is fingerprint-significant"
        );
    }

    #[test]
    fn capture_hints_match_only_shared_prefixes() {
        let store = CheckpointStore::default();
        assert!(store.capture_ticks_for(&spec()).is_empty());
        let crash = spec().at(500, TimelineEvent::Crash(1));
        let late = spec().at(900, TimelineEvent::Crash(2));
        store.set_capture_hints_for([&crash, &late]);
        // The schedule-free sibling shares both prefixes: it should
        // capture at both hint ticks, even though it has no events.
        assert_eq!(store.capture_ticks_for(&spec()), vec![500, 900]);
        // `crash` diverges at 500, so 900 advertises a fingerprint its
        // own trajectory can't match; `late` still matches 500.
        assert_eq!(store.capture_ticks_for(&crash), vec![500]);
        assert_eq!(store.capture_ticks_for(&late), vec![500, 900]);
        // A spec with different statics matches nothing.
        let mut other = spec();
        other.n = 5;
        assert!(store.capture_ticks_for(&other).is_empty());
    }

    #[test]
    fn lru_evicts_least_recently_used() {
        let store = CheckpointStore::new(2);
        let entry = |tick| CheckpointEntry {
            snapshot: fake_snapshot(),
            board: ForkPlan::default(),
            hooks: HookSnapshot::default(),
            tick,
        };
        store.insert(key(1, 0), entry(10));
        store.insert(key(2, 0), entry(20));
        // Touch (1, 0) so (2, 0) is the LRU victim.
        assert!(store.lookup(&key(1, 0), 100).is_some());
        store.insert(key(3, 0), entry(30));
        assert_eq!(store.len(), 2);
        assert!(store.lookup(&key(2, 0), 100).is_none());
        assert!(store.lookup(&key(3, 0), 100).is_some());
        let stats = store.stats();
        assert_eq!(stats.created, 3);
        assert_eq!(stats.forked, 2, "the miss on the evicted key is not a fork");
        assert_eq!(stats.prefix_ticks_saved, 10 + 30);
    }

    #[test]
    fn duplicate_insert_refreshes_the_surviving_slot() {
        let store = CheckpointStore::new(2);
        let entry = |tick| CheckpointEntry {
            snapshot: fake_snapshot(),
            board: ForkPlan::default(),
            hooks: HookSnapshot::default(),
            tick,
        };
        store.insert(key(1, 0), entry(10));
        store.insert(key(2, 0), entry(20));
        // A racing worker re-produces (1, 0, 10): the duplicate is
        // dropped, but it must *touch* the surviving slot — the sibling
        // cells about to probe it make it the hottest entry, not the
        // coldest.
        store.insert(key(1, 0), entry(10));
        store.insert(key(3, 0), entry(30));
        assert_eq!(store.len(), 2);
        assert!(
            store.lookup(&key(1, 0), 100).is_some(),
            "the re-produced checkpoint was evicted despite being hot"
        );
        assert!(
            store.lookup(&key(2, 0), 100).is_none(),
            "(2, 0) was the LRU"
        );
        assert_eq!(store.stats().created, 3, "duplicates don't count");
    }

    #[test]
    fn lookup_returns_deepest_at_or_below_boundary() {
        let store = CheckpointStore::new(8);
        for tick in [10, 20, 30] {
            store.insert(
                key(7, 1),
                CheckpointEntry {
                    snapshot: fake_snapshot(),
                    board: ForkPlan::default(),
                    hooks: HookSnapshot::default(),
                    tick,
                },
            );
        }
        assert_eq!(store.lookup(&key(7, 1), 25).unwrap().tick(), 20);
        assert_eq!(store.lookup(&key(7, 1), 30).unwrap().tick(), 30);
        assert!(store.lookup(&key(7, 1), 5).is_none());
        assert!(
            store.lookup(&key(7, 2), 30).is_none(),
            "seed is part of the key"
        );
        store.retain_ticks_at_most(15);
        assert_eq!(store.lookup(&key(7, 1), 30).unwrap().tick(), 10);
        assert_eq!(store.len(), 1);
    }

    /// A store key for a stand-in prefix text.
    fn key(text: u64, seed: u64) -> Key {
        (text.to_string(), seed)
    }

    /// A minimal real snapshot (the store never inspects it).
    fn fake_snapshot() -> SimSnapshot<Actor> {
        crate::build::build_sim(&spec(), 1).snapshot()
    }
}
