//! The four workloads: what one repetition runs, through which public
//! entry points, and which output checks every repetition makes.
//!
//! An untraced repetition goes through the product path only
//! (`run_sim` + `summarize`, `run_one_with`, `BatchRunner::run_grid_with`,
//! `GameExplorer`, `report::*`). A traced repetition does the same work
//! with spans around those calls; for the single-cell workloads it also
//! assembles the population itself from `Harness::build_parts`, exactly
//! as `prft_lab`'s private `prepared` + `prft_workload::assemble` do,
//! with every node and the link stack wrapped in timing wrappers
//! ([`traced_cell`]). The traced-run validity guard in `main` compares
//! the two repetitions' digests and counts, so a drifted mirror fails
//! the run instead of measuring a different program.

use crate::spans::Tracer;
use crate::stats::median;
use crate::wrap::{self, Timed, TimedLink};
use prft_core::{AsReplica, Config, Harness, NetworkChoice, Phase};
use prft_crypto::Sha256;
use prft_game::{best_reply_summary, mixed_analysis, Profile};
use prft_lab::report::{self, ExploreOpts};
use prft_lab::{
    derive_seed, find, find_game, run_one_with, run_sim, run_workload_sim, summarize, BatchReport,
    BatchRunner, CheckpointStore, Exploration, GameDef, GameEval, GameExplorer, ReuseStats,
    RunRecord, ScenarioSpec, Synchrony, TimelineEvent, UtilityCache, WorkloadRunStats,
    WorkloadSpec,
};
use prft_net::SynchronousNet;
use prft_sim::obs::hooks::{self, HookSnapshot};
use prft_sim::{Node, SimTime, Simulation};
use prft_types::NodeId;
use prft_workload::{Actor, Client, LatencySummary};
use std::collections::BTreeMap;
use std::panic::{catch_unwind, AssertUnwindSafe};
use std::path::Path;
use std::sync::atomic::{AtomicU64, Ordering};
use std::time::Instant;

/// Span layer of the orchestration crate (`prft_lab`).
pub const LAB: &str = "lab";
/// Span layer of the event engine (`prft_sim`).
pub const SIM: &str = "sim";
/// Span layer of the equilibrium analyses (`prft_game`).
pub const GAME: &str = "game";
/// Span "layer" of a product call that runs whole simulations inside and
/// cannot be wrapped from outside (`run_one_with`, a cold explorer
/// sweep): engine, handlers and links in one lump, charged to no layer.
pub const OPAQUE: &str = "opaque";

/// The 20 registry scenarios without a workload section (44 grid
/// points). A fixed list, so a later registry addition cannot change the
/// work.
pub const SCENARIOS: [&str; 20] = [
    "honest-sync",
    "gst-sweep",
    "liveness-attack",
    "censorship-attack",
    "fork-attack",
    "ablation-accountability",
    "collateral-sweep",
    "mixed-rational",
    "partition-storm",
    "tau-window",
    "view-change-churn",
    "crash-cft",
    "committee-scaling",
    "crash-churn",
    "delay-until-gst",
    "delay-lift",
    "colluder-defection",
    "late-tx-flood",
    "scheduled-split",
    "byzantine-noise",
];
/// Seeds per grid point of the registry stage. ISSUE 11 sized this stage
/// at 16; the driver's time cap forced the cut (see README.md).
pub const REGISTRY_SEEDS: u64 = 8;
/// Seeds per simulated cell of the explorer stage.
pub const EXPLORE_SEEDS: u64 = 8;
/// Equilibrium tolerance of the rendered game reports (`prft-lab`'s default).
const EPS: f64 = 1e-9;

/// Committee size and round budget of `committee-large`.
pub const COMMITTEE_N: usize = 256;
/// See [`COMMITTEE_N`].
pub const COMMITTEE_ROUNDS: u64 = 2;

/// Exact (seed-determined) numbers of one repetition, by metric name.
/// Sums unless a `max` is taken explicitly.
#[derive(Debug, Clone, Default, PartialEq)]
pub struct Counts(pub BTreeMap<&'static str, f64>);

impl Counts {
    fn add(&mut self, name: &'static str, value: f64) {
        *self.0.entry(name).or_default() += value;
    }

    fn max(&mut self, name: &'static str, value: f64) {
        let slot = self.0.entry(name).or_default();
        *slot = slot.max(value);
    }

    pub fn get(&self, name: &str) -> f64 {
        self.0.get(name).copied().unwrap_or(0.0)
    }
}

/// What one repetition produced.
#[derive(Debug, Clone, Default)]
pub struct RepOut {
    /// Wall time of the repetition's fixed cell list.
    pub wall_s: f64,
    /// Wall time of each stage (`stage.*` metric name → seconds).
    pub stages: Vec<(&'static str, f64)>,
    /// Seeded runs attempted.
    pub attempted: u64,
    /// Seeded runs that panicked or failed an output check.
    pub failed: u64,
    /// What failed, one line each.
    pub failures: Vec<String>,
    /// SHA-256 over every `RunRecord::to_json` and every rendered report.
    pub digest: String,
    /// SHA-256 over the records alone, per stage, in run order — what a
    /// cold reference run of that stage must reproduce.
    pub records_digests: Vec<(&'static str, String)>,
    /// Exact counts and the three virtual end-to-end metrics.
    pub counts: Counts,
    /// One rendered scenario report and the registry specs, kept for the
    /// `lab` probes (lab-sweep only).
    pub probe_input: Option<(String, Vec<ScenarioSpec>)>,
}

impl RepOut {
    fn fail(&mut self, runs: u64, what: String) {
        self.failed += runs;
        self.failures.push(what);
    }
}

/// Incremental digest of a repetition's outputs: `all` covers every
/// record and every rendered report, `records` the records alone since
/// the last [`Digest::close_stage`].
struct Digest {
    all: Sha256,
    records: Sha256,
}

fn absorb(hasher: &mut Sha256, text: &str) {
    hasher.update(&(text.len() as u64).to_le_bytes());
    hasher.update(text.as_bytes());
}

fn hex(hasher: Sha256) -> String {
    hasher
        .finalize()
        .0
        .iter()
        .map(|b| format!("{b:02x}"))
        .collect()
}

impl Digest {
    fn new() -> Digest {
        Digest {
            all: Sha256::new(),
            records: Sha256::new(),
        }
    }

    fn record(&mut self, record: &RunRecord) {
        let text = record.to_json().render();
        absorb(&mut self.all, &text);
        absorb(&mut self.records, &text);
    }

    fn text(&mut self, text: &str) {
        absorb(&mut self.all, text);
    }

    /// Ends a stage: files the digest of its records under `stage`.
    fn close_stage(&mut self, stage: &'static str, out: &mut RepOut) {
        let records = std::mem::replace(&mut self.records, Sha256::new());
        out.records_digests.push((stage, hex(records)));
    }

    fn finish(self, out: &mut RepOut) {
        out.digest = hex(self.all);
    }
}

/// One finished single-cell run: its record, the crypto hook counters it
/// left behind, and (committee cells) every replica's per-block commit
/// latency.
struct Cell {
    record: RunRecord,
    hooks: HookSnapshot,
    block_latencies: Vec<u64>,
}

/// Runs one repetition of `workload`. `scratch` is a directory inside the
/// checkout for the explorer's on-disk cache.
///
/// # Panics
/// Panics on an unknown workload name (checked by the CLI first).
pub fn repetition(
    workload: &str,
    seed: u64,
    scratch: &Path,
    mut tracer: Option<&mut Tracer>,
) -> RepOut {
    let root = tracer
        .as_deref_mut()
        .map(|t| t.enter("repetition", crate::spans::BENCH_LAYER));
    let started = Instant::now();
    let mut out = match workload {
        "committee-large" => committee_large(seed, tracer.as_deref_mut()),
        "client-steady" => client_workload(steady_spec(seed), true, tracer.as_deref_mut()),
        "client-backpressure" => {
            client_workload(backpressure_spec(seed), false, tracer.as_deref_mut())
        }
        "lab-sweep" => lab_sweep(seed, scratch, tracer.as_deref_mut()),
        other => panic!("unknown workload {other}"),
    };
    out.wall_s = started.elapsed().as_secs_f64();
    if let (Some(t), Some(root)) = (tracer, root) {
        t.exit(root);
    }
    out
}

// ---------------------------------------------------------------------
// Specs
// ---------------------------------------------------------------------

fn seeded(mut spec: ScenarioSpec, seed: u64) -> ScenarioSpec {
    spec.base_seed ^= seed;
    spec
}

/// The two `committee-large` cells: `(stage metric, spec)`.
pub fn committee_specs(seed: u64) -> [(&'static str, ScenarioSpec); 2] {
    let cell = |label: &str, accountable: bool| {
        seeded(
            ScenarioSpec::new(label, COMMITTEE_N, COMMITTEE_ROUNDS).accountable(accountable),
            seed,
        )
    };
    [
        ("stage.plain_s", cell("plain", false)),
        ("stage.accountable_s", cell("accountable", true)),
    ]
}

/// The 10 000-client point of `BENCH_workload.json`.
pub fn steady_spec(seed: u64) -> ScenarioSpec {
    const CLIENTS: usize = 10_000;
    const TXS_PER_CLIENT: u64 = 2;
    const BATCH: u64 = 512;
    let rounds = (CLIENTS as u64 * TXS_PER_CLIENT).div_ceil(BATCH) + 40;
    seeded(
        ScenarioSpec::new("client-steady", 8, rounds)
            .base_seed(0xb_10ad)
            .horizon(20_000_000)
            .workload(
                WorkloadSpec::steady(CLIENTS, 50)
                    .txs_per_client(TXS_PER_CLIENT)
                    .max_batch(BATCH as usize),
            ),
        seed,
    )
}

/// Poisson overload against bounded mempools, through a replica crash.
/// `RetryPolicy::default()` already requeues on reject.
pub fn backpressure_spec(seed: u64) -> ScenarioSpec {
    seeded(
        ScenarioSpec::new("client-backpressure", 8, 150)
            .base_seed(0xbac4)
            .horizon(20_000_000)
            .workload(
                WorkloadSpec::poisson(3_000, 50)
                    .txs_per_client(4)
                    .mempool_capacity(256)
                    .max_batch(256),
            )
            .at(3_000, TimelineEvent::Crash(7)),
        seed,
    )
}

/// The registry stage's grids: `(scenario name, seeded grid points)` for
/// every name on the fixed list.
pub fn registry_grids(seed: u64) -> Vec<(&'static str, Vec<ScenarioSpec>)> {
    SCENARIOS
        .iter()
        .map(|&name| {
            let scenario = find(name).expect("the fixed scenario list names registered scenarios");
            let specs = scenario
                .specs
                .into_iter()
                .map(|s| seeded(s, seed))
                .collect();
            (name, specs)
        })
        .collect()
}

/// The three late-divergence grids of `prft-bench checkpoint` at half its
/// horizon (the driver's time cap, see README.md): n = 8, Δ = 100, busy
/// to the horizon, diverging with a crash near it.
pub fn divergence_grids(seed: u64) -> Vec<(&'static str, Vec<ScenarioSpec>)> {
    const HORIZON: u64 = 60_000;
    const TICKS: [u64; 3] = [50_000, 55_000, 57_500];
    const LIFT_TICK: u64 = 30_000;
    let cell = |label: String, base: u64| {
        seeded(
            ScenarioSpec::new(label, 8, u64::MAX / 2)
                .base_seed(base)
                .synchrony(Synchrony::Synchronous { delta: 100 })
                .horizon(HORIZON),
            seed,
        )
    };
    let crash = |spec: ScenarioSpec, t: u64| spec.at(t, TimelineEvent::Crash(7));

    let mut crash_grid: Vec<ScenarioSpec> = TICKS
        .iter()
        .map(|&t| crash(cell(format!("crash@{t}"), 0xc4e2), t))
        .collect();
    crash_grid.push(cell("no-divergence".into(), 0xc4e2));

    let delayed = |label: String| {
        cell(label, 0xde1a)
            .at(
                0,
                TimelineEvent::AddDelayRule {
                    from: Some(0),
                    to: None,
                    extra: 40,
                    window: u64::MAX,
                },
            )
            .at(
                LIFT_TICK,
                TimelineEvent::RemoveDelayRule {
                    from: Some(0),
                    to: None,
                },
            )
    };
    let mut delay_grid = vec![delayed("lift-only".into())];
    delay_grid.extend(
        TICKS
            .iter()
            .map(|&t| crash(delayed(format!("crash@{t}")), t)),
    );

    let loaded = |label: String| {
        cell(label, 0x10adc).workload(
            WorkloadSpec::steady(30, 150)
                .txs_per_client(4)
                .max_batch(256),
        )
    };
    let mut workload_grid: Vec<ScenarioSpec> = TICKS
        .iter()
        .map(|&t| crash(loaded(format!("crash@{t}")), t))
        .collect();
    workload_grid.push(loaded("no-divergence".into()));

    vec![
        ("crash-divergence", crash_grid),
        ("delay-divergence", delay_grid),
        ("workload-divergence", workload_grid),
    ]
}

/// The run seed of `--seed`, read by the game wrappers below: a
/// `GameDef::spec_of` is a plain `fn`, so it cannot capture it.
static GAME_SEED: AtomicU64 = AtomicU64::new(0);

fn seeded_game_spec(game: &str, profile: &Profile) -> ScenarioSpec {
    let def = find_game(game).expect("the fixed game list names registered games");
    let GameEval::Simulated { spec_of, .. } = def.eval else {
        unreachable!("only simulated games get a seeded wrapper")
    };
    seeded(spec_of(profile), GAME_SEED.load(Ordering::Relaxed))
}

macro_rules! seeded_games {
    ($($wrapper:ident => $game:literal),* $(,)?) => {
        $(fn $wrapper(profile: &Profile) -> ScenarioSpec {
            seeded_game_spec($game, profile)
        })*

        /// The seven registered games, looked up by a fixed list of
        /// names, each simulated one with `--seed` folded into its specs.
        pub fn games(seed: u64) -> Vec<GameDef> {
            GAME_SEED.store(seed, Ordering::Relaxed);
            let simulated: [(&str, fn(&Profile) -> ScenarioSpec); 5] =
                [$(($game, $wrapper)),*];
            GAMES
                .iter()
                .map(|name| {
                    let mut def = find_game(name).expect("the fixed game list is registered");
                    if let GameEval::Simulated { spec_of, .. } = &mut def.eval {
                        *spec_of = simulated
                            .iter()
                            .find(|(game, _)| game == name)
                            .expect("every simulated game has a seeded wrapper")
                            .1;
                    }
                    def
                })
                .collect()
        }
    };
}

/// The explorer stage's games (two analytic, five simulated).
pub const GAMES: [&str; 7] = [
    "lemma4-dsic",
    "lemma4-wide",
    "table2-sigma",
    "abstain-quorum",
    "fork-defection",
    "trap-k3",
    "matching-pennies",
];

seeded_games! {
    lemma4_dsic_spec => "lemma4-dsic",
    lemma4_wide_spec => "lemma4-wide",
    table2_sigma_spec => "table2-sigma",
    abstain_quorum_spec => "abstain-quorum",
    fork_defection_spec => "fork-defection",
}

// ---------------------------------------------------------------------
// Single-cell runs
// ---------------------------------------------------------------------

/// Per-block commit latency at every honest replica: ticks from the
/// replica entering a round's Propose phase to it finalizing the round.
fn block_latencies<N: Node + AsReplica>(sim: &Simulation<N>) -> Vec<u64> {
    let mut out = Vec::new();
    for replica in sim.nodes().filter_map(AsReplica::as_replica) {
        let stats = replica.stats();
        for (round, finalized) in &stats.finalize_times {
            let entered = stats
                .phase_transitions
                .iter()
                .find(|(r, phase, _)| r == round && *phase == Phase::Propose);
            if let Some((_, _, entered)) = entered {
                out.push(finalized.0.saturating_sub(entered.0));
            }
        }
    }
    out
}

/// One committee cell through the product path. `run_one` is exactly
/// `hooks::reset` + `run_sim` + `summarize` for a spec without a workload
/// section; calling the three public pieces keeps the finished simulation
/// in hand for the block latencies.
fn committee_cell(spec: &ScenarioSpec, seed: u64) -> Cell {
    hooks::reset();
    let (sim, outcome) = run_sim(spec, seed, |_| {});
    let record = summarize(spec, &sim, seed, outcome);
    Cell {
        record,
        hooks: hooks::snapshot(),
        block_latencies: block_latencies(&sim),
    }
}

fn client_cell(spec: &ScenarioSpec, seed: u64) -> Cell {
    let record = run_one_with(spec, seed, None);
    Cell {
        record,
        hooks: hooks::snapshot(),
        block_latencies: Vec::new(),
    }
}

/// The traced twin of [`committee_cell`] / [`client_cell`]: the same
/// population, assembled here from `Harness::build_parts` (+ clients, as
/// `prft_workload::assemble` does) with every node and the link stack in
/// timing wrappers. Mirrors `prft_lab`'s private `prepared` for the
/// all-honest synchronous specs the single-cell workloads use, and its
/// timeline executor for `Crash` events; anything else panics rather than
/// silently measuring a different run.
fn traced_cell(spec: &ScenarioSpec, seed: u64, tracer: &mut Tracer) -> Cell {
    assert!(
        spec.roles.is_empty()
            && spec.partitions.is_empty()
            && spec.txs.is_empty()
            && spec.tau_override.is_none()
            && spec.phase_timeout.is_none(),
        "traced cells mirror the all-honest build only"
    );
    let Synchrony::Synchronous { delta } = spec.synchrony else {
        panic!("traced cells mirror the synchronous network only")
    };
    tracer.next_run();
    hooks::reset();
    let cell = tracer.enter("cell", LAB);
    let build = tracer.enter("build", LAB);
    let mut cfg = Config::for_committee(spec.n).with_max_rounds(spec.max_rounds);
    if let Some(batch) = spec.workload.as_ref().and_then(|w| w.max_batch) {
        cfg = cfg.with_max_batch(batch);
    }
    let link = SynchronousNet::new(SimTime(delta));
    let (mut replicas, link, sim_seed, queue) = Harness::new(spec.n, seed)
        .config(cfg)
        .accountable(spec.accountable)
        .network(NetworkChoice::Custom(Box::new(link)))
        .queue(spec.queue)
        .verify_mode(spec.verify_mode)
        .build_parts();
    let link = Box::new(TimedLink(link));
    let out = match &spec.workload {
        None => {
            let nodes = replicas.into_iter().map(|r| Timed::new(r, false)).collect();
            let sim = Simulation::with_backend(nodes, link, sim_seed, queue);
            tracer.exit(build);
            let (record, sim) = drive(spec, seed, sim, tracer);
            let block_latencies = block_latencies(&sim);
            tracer.scope("teardown", SIM, |_| drop(sim));
            Cell {
                record,
                hooks: hooks::snapshot(),
                block_latencies,
            }
        }
        Some(w) => {
            for r in &mut replicas {
                r.mempool_mut().set_capacity(w.mempool_capacity);
            }
            let n = replicas.len();
            let mut nodes: Vec<Timed<Actor>> = replicas
                .into_iter()
                .map(|r| Timed::new(Actor::Replica(Box::new(r)), false))
                .collect();
            for i in 0..w.clients {
                let client = Client::new(NodeId(n + i), n, i, w);
                nodes.push(Timed::new(Actor::Client(Box::new(client)), true));
            }
            let mut sim = Simulation::with_backend(nodes, link, sim_seed, queue);
            sim.set_broadcast_domain(n);
            tracer.exit(build);
            let (mut record, sim) = drive(spec, seed, sim, tracer);
            record.workload = Some(tracer.scope("collect", wrap::WORKLOAD, |_| collect(&sim)));
            tracer.scope("teardown", SIM, |_| drop(sim));
            Cell {
                record,
                hooks: hooks::snapshot(),
                block_latencies: Vec::new(),
            }
        }
    };
    tracer.exit(cell);
    out
}

/// Executes `spec`'s timeline (crashes only) to the horizon inside one
/// `run` span, folds the wrappers' per-event totals under it, and
/// summarizes.
fn drive<N: Node + AsReplica>(
    spec: &ScenarioSpec,
    seed: u64,
    mut sim: Simulation<Timed<N>>,
    tracer: &mut Tracer,
) -> (RunRecord, Simulation<Timed<N>>) {
    let _ = wrap::drain();
    let mut events: Vec<&(u64, TimelineEvent)> = spec.schedule.iter().collect();
    events.sort_by_key(|(tick, _)| *tick);
    let run = tracer.enter("run", SIM);
    for (tick, event) in events {
        if *tick > 0 {
            sim.run_before(SimTime(*tick));
        }
        match event {
            TimelineEvent::Crash(player) => sim.crash(NodeId(*player)),
            other => panic!("traced cells mirror Crash events only, not {other:?}"),
        }
    }
    let outcome = sim.run_until(SimTime(spec.horizon));
    tracer.exit(run);
    for (layer, kind, totals) in wrap::drain() {
        tracer.fold(run, layer, kind, totals);
    }
    let record = tracer.scope("summarize", LAB, |_| summarize(spec, &sim, seed, outcome));
    (record, sim)
}

/// `WorkloadRunStats::collect` over the wrapped population (the original
/// takes `&Simulation<Actor>`).
fn collect(sim: &Simulation<Timed<Actor>>) -> WorkloadRunStats {
    let mut out = WorkloadRunStats::default();
    let mut ticks: Vec<u64> = Vec::new();
    for node in sim.nodes() {
        match node.inner() {
            Actor::Client(c) => {
                let s = c.stats();
                out.clients += 1;
                out.submitted += s.submitted;
                out.committed += s.committed;
                out.dropped += s.dropped;
                out.pending += c.pending();
                out.retries += s.retries;
                out.backpressure_rejects += s.backpressure_rejects;
                ticks.extend_from_slice(c.latencies());
            }
            Actor::Replica(r) => {
                out.mempool_rejected_full += r.mempool().rejected_full();
                out.mempool_peak_occupancy = out
                    .mempool_peak_occupancy
                    .max(r.mempool().peak_len() as u64);
            }
        }
    }
    out.latency = LatencySummary::from_ticks(ticks);
    out
}

/// Runs one single-cell spec, traced or not, with a panic counted as a
/// failed run instead of a dead benchmark.
fn guarded_cell(
    spec: &ScenarioSpec,
    tracer: Option<&mut Tracer>,
    out: &mut RepOut,
) -> Option<Cell> {
    let seed = derive_seed(spec.base_seed, 0);
    out.attempted += 1;
    let result = catch_unwind(AssertUnwindSafe(|| match tracer {
        Some(t) => traced_cell(spec, seed, t),
        None if spec.workload.is_some() => client_cell(spec, seed),
        None => committee_cell(spec, seed),
    }));
    match result {
        Ok(cell) => Some(cell),
        Err(_) => {
            out.fail(1, format!("{}: run panicked", spec.label));
            None
        }
    }
}

/// Folds one record (and the crypto hooks it left) into the counts.
fn count_record(counts: &mut Counts, record: &RunRecord, hooks: Option<&HookSnapshot>) {
    counts.add("sim.events", record.events_dispatched as f64);
    counts.max("sim.peak_queue_depth", record.peak_queue_depth as f64);
    counts.add("core.blocks_finalized", record.min_final_height as f64);
    counts.add("core.messages", record.total_messages as f64);
    counts.add("core.bytes", record.total_bytes as f64);
    counts.add("core.view_changes", record.view_changes as f64);
    counts.add(
        "crypto.sig_verifies",
        record.obs.counter("crypto.sig_verifies") as f64,
    );
    counts.add(
        "crypto.clone_bytes",
        record.obs.counter("engine.clone_bytes") as f64,
    );
    if let Some(h) = hooks {
        counts.add("crypto.memo_hits", h.memo_hits as f64);
        counts.add("crypto.memo_misses", h.memo_misses as f64);
    }
    if let Some(w) = &record.workload {
        counts.add("workload.submitted", w.submitted as f64);
        counts.add("workload.committed", w.committed as f64);
        counts.add("workload.dropped", w.dropped as f64);
        counts.add("workload.pending", w.pending as f64);
        counts.add("workload.retries", w.retries as f64);
        counts.add("workload.rejects", w.backpressure_rejects as f64);
        counts.max("types.mempool_peak", w.mempool_peak_occupancy as f64);
        counts.add(
            "types.mempool_rejected_full",
            w.mempool_rejected_full as f64,
        );
    }
}

/// Derives the per-block and ratio metrics once every record is counted.
fn finish_counts(counts: &mut Counts) {
    let blocks = counts.get("core.blocks_finalized").max(1.0);
    let per_block = |total: f64| (total / blocks).round();
    let msgs = per_block(counts.get("core.messages"));
    let bytes = per_block(counts.get("core.bytes"));
    counts.0.remove("core.messages");
    counts.0.remove("core.bytes");
    counts.add("core.msgs_per_block", msgs);
    counts.add("core.bytes_per_block", bytes);
    let lookups = counts.get("crypto.memo_hits") + counts.get("crypto.memo_misses");
    if lookups > 0.0 {
        counts.add(
            "crypto.memo_hit_ratio",
            counts.get("crypto.memo_hits") / lookups,
        );
    }
    let submitted = counts.get("workload.submitted");
    if submitted > 0.0 {
        counts.add(
            "workload.retry_ratio",
            counts.get("workload.retries") / submitted,
        );
    }
}

// ---------------------------------------------------------------------
// committee-large
// ---------------------------------------------------------------------

fn committee_large(seed: u64, mut tracer: Option<&mut Tracer>) -> RepOut {
    let mut out = RepOut::default();
    let mut digest = Digest::new();
    let mut latencies: Vec<u64> = Vec::new();
    let mut throughput = Vec::new();
    for (stage, spec) in committee_specs(seed) {
        let started = Instant::now();
        let cell = guarded_cell(&spec, tracer.as_deref_mut(), &mut out);
        out.stages.push((stage, started.elapsed().as_secs_f64()));
        let Some(cell) = cell else { continue };
        let r = &cell.record;
        if !r.agreement || r.min_final_height != COMMITTEE_ROUNDS {
            out.fail(
                1,
                format!(
                    "{}: agreement {} and min_final_height {} (want true, {COMMITTEE_ROUNDS})",
                    spec.label, r.agreement, r.min_final_height
                ),
            );
        }
        check_memo(&spec.label, &cell, &mut out);
        digest.record(r);
        count_record(&mut out.counts, r, Some(&cell.hooks));
        latencies.extend(&cell.block_latencies);
        throughput.push(r.throughput);
    }
    finish_counts(&mut out.counts);
    out.counts.add("lab.cells", out.attempted as f64);
    if !latencies.is_empty() {
        let latency = LatencySummary::from_ticks(latencies);
        out.counts.add("e2e.commit_p50_ticks", latency.p50 as f64);
        out.counts.add("e2e.commit_p99_ticks", latency.p99 as f64);
        out.counts.add("e2e.commit_samples", latency.count as f64);
        out.counts.add(
            "e2e.committed_share",
            throughput.iter().sum::<f64>() / throughput.len() as f64,
        );
    }
    digest.finish(&mut out);
    out
}

/// Every memo lookup is a logical verify, answered by the memo or
/// falling through to a real one; only view-change signatures are
/// verified past the memo, so without a view change the two sides are
/// equal.
fn check_memo(label: &str, cell: &Cell, out: &mut RepOut) {
    let h = &cell.hooks;
    let lookups = h.memo_hits + h.memo_misses;
    if lookups > h.sig_verifies || (cell.record.view_changes == 0 && lookups != h.sig_verifies) {
        out.fail(
            1,
            format!(
                "{label}: memo_hits {} + memo_misses {} vs sig_verifies {} ({} view changes)",
                h.memo_hits, h.memo_misses, h.sig_verifies, cell.record.view_changes
            ),
        );
    }
}

// ---------------------------------------------------------------------
// client-steady, client-backpressure
// ---------------------------------------------------------------------

fn client_workload(
    spec: ScenarioSpec,
    all_must_commit: bool,
    tracer: Option<&mut Tracer>,
) -> RepOut {
    let mut out = RepOut::default();
    let mut digest = Digest::new();
    if let Some(cell) = guarded_cell(&spec, tracer, &mut out) {
        let r = &cell.record;
        let w = r.workload.expect("client cells carry workload stats");
        let offered = spec.workload.as_ref().map_or(0, WorkloadSpec::offered_txs);
        if !w.conserved() {
            out.fail(
                1,
                format!(
                    "{}: submitted {} != committed {} + dropped {} + pending {}",
                    spec.label, w.submitted, w.committed, w.dropped, w.pending
                ),
            );
        }
        if all_must_commit && w.committed != offered {
            out.fail(
                1,
                format!(
                    "{}: committed {} of {offered} offered",
                    spec.label, w.committed
                ),
            );
        }
        check_memo(&spec.label, &cell, &mut out);
        digest.record(r);
        count_record(&mut out.counts, r, Some(&cell.hooks));
        out.counts.add("e2e.commit_p50_ticks", w.latency.p50 as f64);
        out.counts.add("e2e.commit_p99_ticks", w.latency.p99 as f64);
        out.counts.add("e2e.commit_samples", w.latency.count as f64);
        // A dropped or refused transaction never commits: it counts
        // against the share of *offered* load.
        out.counts.add(
            "e2e.committed_share",
            w.committed as f64 / offered.max(1) as f64,
        );
    }
    finish_counts(&mut out.counts);
    out.counts.add("lab.cells", out.attempted as f64);
    digest.finish(&mut out);
    out
}

// ---------------------------------------------------------------------
// lab-sweep
// ---------------------------------------------------------------------

/// Stage names of the per-stage record digests.
pub const REGISTRY: &str = "registry";
/// See [`REGISTRY`].
pub const GRIDS: &str = "grids";

/// Runs `f` inside a span when tracing, bare otherwise.
fn spanned<R>(
    tracer: &mut Option<&mut Tracer>,
    name: &'static str,
    layer: &'static str,
    f: impl FnOnce() -> R,
) -> R {
    match tracer.as_deref_mut() {
        Some(t) => {
            let id = t.enter(name, layer);
            let out = f();
            t.exit(id);
            out
        }
        None => f(),
    }
}

fn add_reuse(counts: &mut Counts, stats: ReuseStats) {
    counts.add("lab.ckpt_captured", stats.created as f64);
    counts.add("lab.ckpt_forked", stats.forked as f64);
    counts.add(
        "lab.ckpt_prefix_ticks_saved",
        stats.prefix_ticks_saved as f64,
    );
}

fn lab_sweep(seed: u64, scratch: &Path, mut tracer: Option<&mut Tracer>) -> RepOut {
    let mut out = RepOut::default();
    let mut digest = Digest::new();

    let started = Instant::now();
    registry_stage(seed, &mut tracer, &mut out, &mut digest);
    let registry_s = started.elapsed().as_secs_f64();
    digest.close_stage(REGISTRY, &mut out);

    let (cold_s, cached_s) = explorer_stage(seed, scratch, &mut tracer, &mut out, &mut digest);

    let started = Instant::now();
    let latencies = grids_stage(seed, &mut tracer, &mut out, &mut digest);
    let grids_s = started.elapsed().as_secs_f64();
    digest.close_stage(GRIDS, &mut out);

    out.stages = vec![
        ("stage.registry_s", registry_s),
        ("stage.explore_cold_s", cold_s),
        ("stage.explore_cached_s", cached_s),
        ("stage.grids_warm_s", grids_s),
    ];
    finish_counts(&mut out.counts);
    if !latencies.is_empty() {
        let p50: Vec<f64> = latencies.iter().map(|l| l.p50 as f64).collect();
        let p99: Vec<f64> = latencies.iter().map(|l| l.p99 as f64).collect();
        out.counts.add("e2e.commit_p50_ticks", median(&p50));
        out.counts.add("e2e.commit_p99_ticks", median(&p99));
        out.counts.add(
            "e2e.commit_samples",
            latencies.iter().map(|l| l.count as f64).sum(),
        );
    }
    digest.finish(&mut out);
    out
}

/// Stage (a): every fixed-list registry scenario through the batch
/// runner with warm starts, rendered as JSON (with runs) and CSV.
fn registry_stage(
    seed: u64,
    tracer: &mut Option<&mut Tracer>,
    out: &mut RepOut,
    digest: &mut Digest,
) {
    let mut throughput = Vec::new();
    let mut all_specs = Vec::new();
    let mut document = String::new();
    for (name, specs) in registry_grids(seed) {
        let cells = specs.len() as u64 * REGISTRY_SEEDS;
        out.attempted += cells;
        let store = CheckpointStore::default();
        let result = catch_unwind(AssertUnwindSafe(|| {
            let reports = match tracer.as_deref_mut() {
                None => BatchRunner::new(1).run_grid_with(&specs, REGISTRY_SEEDS, Some(&store)),
                Some(t) => traced_grid(&specs, REGISTRY_SEEDS, &store, t),
            };
            let json = spanned(tracer, "render_json", LAB, || {
                report::scenario_json(name, REGISTRY_SEEDS, &reports, true)
            });
            let csv = spanned(tracer, "render_csv", LAB, || {
                report::scenario_csv(name, &reports)
            });
            (reports, json, csv)
        }));
        let Ok((reports, json, csv)) = result else {
            out.fail(cells, format!("{name}: grid panicked"));
            continue;
        };
        for report in &reports {
            for record in &report.records {
                digest.record(record);
                count_record(&mut out.counts, record, None);
                throughput.push(record.throughput);
            }
        }
        digest.text(&json);
        digest.text(&csv);
        out.counts.add("lab.cells", cells as f64);
        out.counts
            .add("lab.report_bytes", (json.len() + csv.len()) as f64);
        add_reuse(&mut out.counts, store.stats());
        if json.len() > document.len() {
            document = json;
        }
        all_specs.extend(specs);
    }
    if !throughput.is_empty() {
        out.counts.add(
            "e2e.committed_share",
            throughput.iter().sum::<f64>() / throughput.len() as f64,
        );
    }
    out.probe_input = Some((document, all_specs));
}

/// `BatchRunner::new(1).run_grid_with` with a span around every cell and
/// every aggregation: same cells, same order, same hints.
fn traced_grid(
    specs: &[ScenarioSpec],
    seeds: u64,
    store: &CheckpointStore,
    tracer: &mut Tracer,
) -> Vec<BatchReport> {
    store.set_capture_hints_for(specs.iter());
    specs
        .iter()
        .map(|spec| {
            let records = (0..seeds)
                .map(|i| {
                    tracer.next_run();
                    tracer.scope("cell", OPAQUE, |_| {
                        run_one_with(spec, derive_seed(spec.base_seed, i), Some(store))
                    })
                })
                .collect();
            tracer.scope("aggregate", LAB, |_| {
                BatchReport::from_records(spec.label.clone(), spec.n, records)
            })
        })
        .collect()
}

/// Stage (b): the seven games into a fresh on-disk cache, then the
/// identical call again (pure cache reads); both rendered with the mixed
/// and dynamics analyses. Returns `(cold seconds, cached seconds)`.
fn explorer_stage(
    seed: u64,
    scratch: &Path,
    tracer: &mut Option<&mut Tracer>,
    out: &mut RepOut,
    digest: &mut Digest,
) -> (f64, f64) {
    let games = games(seed);
    let dir = scratch.join("utility-cache");
    let _ = std::fs::remove_dir_all(&dir);
    let explorer = GameExplorer::new(BatchRunner::new(1)).with_cache(UtilityCache::new(&dir));
    let opts = ExploreOpts {
        mixed: true,
        dynamics: true,
    };
    let render = |tracer: &mut Option<&mut Tracer>, explorations: &[Exploration]| -> Vec<String> {
        games
            .iter()
            .zip(explorations)
            .map(|(game, e)| {
                spanned(tracer, "render_explore", LAB, || {
                    report::explore_json_with(game, e, EPS, opts)
                })
            })
            .collect()
    };

    let started = Instant::now();
    let cold = catch_unwind(AssertUnwindSafe(|| {
        let (explorations, reuse) = spanned(tracer, "explore_cold", OPAQUE, || {
            explorer.explore_all_with_stats(&games, EXPLORE_SEEDS)
        });
        let reports = render(tracer, &explorations);
        (explorations, reuse, reports)
    }));
    let cold_s = started.elapsed().as_secs_f64();
    let Ok((explorations, reuse, cold_reports)) = cold else {
        out.attempted += 1;
        out.fail(1, "explorer: cold sweep panicked".into());
        return (cold_s, 0.0);
    };
    let evaluated: usize = explorations.iter().map(|e| e.evaluated).sum();
    let runs = evaluated as u64 * EXPLORE_SEEDS;
    out.attempted += runs;
    out.counts.add("lab.cells", runs as f64);
    out.counts.add("lab.cache_evaluated", evaluated as f64);
    out.counts.add(
        "lab.cache_shared",
        explorations.iter().map(|e| e.shared).sum::<usize>() as f64,
    );
    out.counts.add(
        "game.profiles",
        explorations
            .iter()
            .map(|e| e.table.cells().count())
            .sum::<usize>() as f64,
    );
    add_reuse(&mut out.counts, reuse);
    for text in &cold_reports {
        digest.text(text);
        out.counts.add("lab.report_bytes", text.len() as f64);
    }

    if let Some(t) = tracer.as_deref_mut() {
        let mut scopes: Vec<&str> = games.iter().map(|g| g.cache_scope).collect();
        scopes.dedup();
        let cache = UtilityCache::new(&dir);
        for scope in scopes {
            t.scope("cache_load", LAB, |_| cache.load(scope));
        }
        for e in &explorations {
            t.scope("analysis", GAME, |_| {
                std::hint::black_box(e.table.nash_equilibria(EPS));
                std::hint::black_box(mixed_analysis(&e.table, EPS));
                std::hint::black_box(best_reply_summary(&e.table, EPS));
            });
        }
    }

    let started = Instant::now();
    let cached = catch_unwind(AssertUnwindSafe(|| {
        let explorations = spanned(tracer, "explore_cached", LAB, || {
            explorer.explore_all(&games, EXPLORE_SEEDS)
        });
        let reports = render(tracer, &explorations);
        (explorations, reports)
    }));
    let cached_s = started.elapsed().as_secs_f64();
    match cached {
        Ok((explorations, reports)) => {
            out.counts.add(
                "lab.cache_hits",
                explorations.iter().map(|e| e.cached).sum::<usize>() as f64,
            );
            if reports != cold_reports {
                out.fail(
                    runs,
                    "explorer: cached reports differ from the cold sweep's".into(),
                );
            }
        }
        Err(_) => out.fail(runs, "explorer: cached sweep panicked".into()),
    }
    let _ = std::fs::remove_dir_all(&dir);
    (cold_s, cached_s)
}

/// Stage (c): the three late-divergence grids, cells in divergence order,
/// against one shared store. Returns the workload grid's commit latencies.
fn grids_stage(
    seed: u64,
    tracer: &mut Option<&mut Tracer>,
    out: &mut RepOut,
    digest: &mut Digest,
) -> Vec<LatencySummary> {
    let store = CheckpointStore::default();
    let mut latencies = Vec::new();
    for (name, specs) in divergence_grids(seed) {
        store.set_capture_hints_for(specs.iter());
        for spec in &specs {
            out.attempted += 1;
            if let Some(t) = tracer.as_deref_mut() {
                t.next_run();
            }
            let run_seed = derive_seed(spec.base_seed, 0);
            let result = catch_unwind(AssertUnwindSafe(|| {
                spanned(tracer, "cell", OPAQUE, || {
                    run_one_with(spec, run_seed, Some(&store))
                })
            }));
            match result {
                Ok(record) => {
                    digest.record(&record);
                    count_record(&mut out.counts, &record, None);
                    latencies.extend(record.workload.map(|w| w.latency));
                }
                Err(_) => out.fail(1, format!("{name}/{}: run panicked", spec.label)),
            }
        }
        out.counts.add("lab.cells", specs.len() as f64);
    }
    add_reuse(&mut out.counts, store.stats());
    latencies
}

/// The cold reference of one lab-sweep stage ([`REGISTRY`] or
/// [`GRIDS`]): every cell from `t = 0` with no store. Returns the digest
/// of the cold records — which must equal the warm repetition's
/// [`RepOut::records_digests`] entry for the stage — and the cold wall.
/// With a tracer, each cell is split into build / run / summarize spans
/// through the public pieces `run_one` is made of.
pub fn cold_reference(stage: &str, seed: u64, mut tracer: Option<&mut Tracer>) -> (String, f64) {
    let mut records = Sha256::new();
    let mut cold = |spec: &ScenarioSpec, index: u64| {
        let record = cold_cell(spec, derive_seed(spec.base_seed, index), &mut tracer);
        absorb(&mut records, &record.to_json().render());
    };
    let started = Instant::now();
    if stage == REGISTRY {
        for (_, specs) in registry_grids(seed) {
            for spec in &specs {
                (0..REGISTRY_SEEDS).for_each(|i| cold(spec, i));
            }
        }
    } else {
        for (_, specs) in divergence_grids(seed) {
            specs.iter().for_each(|spec| cold(spec, 0));
        }
    }
    let wall_s = started.elapsed().as_secs_f64();
    (hex(records), wall_s)
}

fn cold_cell(spec: &ScenarioSpec, seed: u64, tracer: &mut Option<&mut Tracer>) -> RunRecord {
    let Some(t) = tracer.as_deref_mut() else {
        return run_one_with(spec, seed, None);
    };
    t.next_run();
    hooks::reset();
    let cell = t.enter("cold_cell", LAB);
    let build = t.enter("build", LAB);
    // `configure` runs on the freshly built simulation, before any event:
    // it marks where building ends and running starts.
    let mut run = None;
    let record = if spec.workload.is_some() {
        let (sim, outcome) = run_workload_sim(spec, seed, |_| {
            t.exit(build);
            run = Some(t.enter("run", OPAQUE));
        });
        t.exit(run.expect("configure ran"));
        let mut record = t.scope("summarize", LAB, |_| summarize(spec, &sim, seed, outcome));
        record.workload = Some(WorkloadRunStats::collect(&sim));
        record
    } else {
        let (sim, outcome) = run_sim(spec, seed, |_| {
            t.exit(build);
            run = Some(t.enter("run", OPAQUE));
        });
        t.exit(run.expect("configure ran"));
        t.scope("summarize", LAB, |_| summarize(spec, &sim, seed, outcome))
    };
    t.exit(cell);
    record
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn fixed_lists_name_registered_scenarios_and_games() {
        for name in SCENARIOS {
            let scenario = find(name).unwrap_or_else(|| panic!("{name} is not registered"));
            assert!(
                scenario.specs.iter().all(|s| s.workload.is_none()),
                "{name} carries a workload section"
            );
        }
        let grid_points: usize = SCENARIOS.iter().map(|n| find(n).unwrap().specs.len()).sum();
        assert_eq!(grid_points, 44);
        assert_eq!(games(0).len(), GAMES.len());
    }

    #[test]
    fn seed_is_folded_into_every_spec() {
        for (_, spec) in committee_specs(5) {
            assert_eq!(spec.base_seed, ScenarioSpec::new("x", 4, 1).base_seed ^ 5);
        }
        assert_ne!(steady_spec(1).base_seed, steady_spec(2).base_seed);
        assert_ne!(
            backpressure_spec(1).base_seed,
            backpressure_spec(2).base_seed
        );
        for (a, b) in divergence_grids(1).iter().zip(divergence_grids(2)) {
            assert!(a
                .1
                .iter()
                .zip(&b.1)
                .all(|(x, y)| x.base_seed != y.base_seed));
        }
        let profile = vec![0, 0, 0];
        let spec_of = |seed: u64| match games(seed)[0].eval {
            GameEval::Simulated { spec_of, .. } => spec_of(&profile),
            GameEval::Analytic(_) => unreachable!(),
        };
        assert_eq!(spec_of(0).base_seed ^ 9, spec_of(9).base_seed);
    }

    #[test]
    fn digest_is_stable_and_order_sensitive() {
        let hex = |parts: &[&str]| {
            let mut d = Digest::new();
            for p in parts {
                d.text(p);
            }
            let mut out = RepOut::default();
            d.finish(&mut out);
            out.digest
        };
        let mut staged = Digest::new();
        let mut out = RepOut::default();
        staged.close_stage(REGISTRY, &mut out);
        staged.close_stage(GRIDS, &mut out);
        assert_eq!(
            out.records_digests[0].1, out.records_digests[1].1,
            "both empty"
        );
        assert_eq!(hex(&["a", "b"]), hex(&["a", "b"]));
        assert_ne!(hex(&["a", "b"]), hex(&["b", "a"]));
        assert_ne!(hex(&["ab"]), hex(&["a", "b"]), "length-prefixed parts");
        assert_eq!(hex(&[]).len(), 64);
    }

    /// The guard the benchmark applies to every traced repetition, on a
    /// committee small enough for a unit test.
    #[test]
    fn traced_cell_reproduces_the_product_record() {
        let committee = seeded(ScenarioSpec::new("small", 8, 2), 3);
        let loaded = seeded(
            ScenarioSpec::new("loaded", 4, 12)
                .workload(
                    WorkloadSpec::poisson(20, 50)
                        .txs_per_client(2)
                        .mempool_capacity(8)
                        .max_batch(4),
                )
                .at(500, TimelineEvent::Crash(3)),
            3,
        );
        for spec in [committee, loaded] {
            let seed = derive_seed(spec.base_seed, 0);
            let product = run_one_with(&spec, seed, None);
            let mut tracer = Tracer::new();
            let traced = traced_cell(&spec, seed, &mut tracer);
            assert_eq!(
                traced.record.to_json().render(),
                product.to_json().render(),
                "{}",
                spec.label
            );
            assert_eq!(traced.record.workload, product.workload);
            let handlers =
                tracer.folded_layer(wrap::CORE).count + tracer.folded_layer(wrap::WORKLOAD).count;
            assert_eq!(handlers, product.events_dispatched, "{}", spec.label);
        }
    }
}
