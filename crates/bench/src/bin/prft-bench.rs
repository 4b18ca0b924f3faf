//! The `prft-bench` binary: engine micro-benchmarks with machine-readable
//! output, seeding the repo's recorded perf trajectory (`BENCH_*.json`).
//!
//! ```text
//! prft-bench queue [--quick] [--out FILE] [--repeats R]
//! prft-bench profile [--quick] [--out FILE]
//! prft-bench workload [--quick] [--out FILE]
//! prft-bench checkpoint [--quick] [--out FILE] [--repeats R]
//! prft-bench diff <current.json> <baseline.json>
//! ```
//!
//! Four sweeps, one pipeline. A sweep only measures: it returns its JSON
//! document and its acceptance checks as `(pass, line)`; [`finish`] prints
//! the greppable `check: … (PASS|FAIL)` lines, writes the document to
//! `--out` (or stdout), and exits non-zero if a check failed. `--quick`
//! shrinks each sweep for CI smoke use (sizes: [`main`]).
//!
//! * `queue` ([`queue_bench`], `docs/PERFORMANCE.md`): committee sizes ×
//!   both event-queue backends over a queue-bound flood (~n² events in
//!   flight — the pressure a large-n pRFT committee puts on the engine).
//!   The flood is seeded, so both backends dispatch the same events and
//!   the wall-clock delta is pure queue cost; the calendar backend must at
//!   least match the heap reference at the largest n.
//! * `profile` ([`profile_bench`], `docs/OBSERVABILITY.md`): honest
//!   committees, accountable and plain — logical signature verifies, memo
//!   hits/misses, clone bytes, events, wall time — held to the analytic
//!   models ([`predicted_verifies`], [`predicted_memo_misses`]), the
//!   verify twin of Table 3's O(n³κ) bound.
//! * `workload` ([`workload_bench`], `docs/WORKLOAD.md`): open-loop client
//!   populations against a fixed 8-replica committee — engine throughput
//!   (best of three runs per point, and as a ratio to the smallest
//!   population's) and commit-latency percentiles; transactions must be
//!   conserved, the largest population must commit its whole offered load,
//!   and its events/s must reach half the smallest population's.
//! * `checkpoint` ([`checkpoint_bench`], `docs/CHECKPOINTING.md`): three
//!   late-divergence grids run cold and warm at one thread; warm records
//!   must equal cold and one grid must reach 2× cells/sec.
//!
//! `diff` walks a freshly measured document along its kind's field table
//! ([`SCHEMAS`] — the schema of record for all four documents). Every
//! declared field must be present with its declared type and no
//! undeclared key may appear; each field is then judged by its [`Class`]:
//! `exact` fields (deterministic counters) must equal the committed
//! baseline, `ratio-floor` fields (wall-clock ratios) must reach
//! `baseline × (1 − RATIO_TOLERANCE)` (0.35), `informational` fields
//! are only type-checked, and pass flags must hold. Rows pair up by their
//! key fields: a baseline row the current sweep did not measure is
//! skipped (`--quick` against a full recording), a current row without a
//! baseline twin prints an `UNMATCHED` line, and a row set in which
//! nothing matched fails the run. CI runs it after each `--quick` sweep,
//! so schema drift and regressions fail the build with no JSON toolchain
//! in the workflow.

use prft_core::{predicted_memo_misses, predicted_verifies};
use prft_lab::json::Json;
use prft_lab::{ScenarioSpec, TimelineEvent};
use prft_sim::{
    Context, LinkModel, Node, QueueBackend, SimRng, SimTime, Simulation, TimerId, WireMessage,
};
use prft_types::NodeId;
use std::process::ExitCode;
use std::sync::LazyLock;
use std::time::Instant;

/// A 64-byte inline payload: big enough that moving messages through a
/// sifting heap is visible, small enough to stay allocation-free.
#[derive(Clone)]
struct FloodMsg([u64; 8]);

impl WireMessage for FloodMsg {
    fn kind(&self) -> &'static str {
        "Flood"
    }
    fn wire_bytes(&self) -> usize {
        64
    }
}

/// Jittered constant-delay link: `base + U[0, spread)` ticks, drawn from
/// the engine RNG, so deliveries spread across ticks (the calendar queue
/// sees many occupied buckets, not one burst bucket).
struct JitterLink {
    base: u64,
    spread: u64,
}

impl LinkModel for JitterLink {
    fn deliver_at(&mut self, _f: NodeId, _t: NodeId, sent: SimTime, rng: &mut SimRng) -> SimTime {
        SimTime(sent.0 + self.base + rng.below(self.spread))
    }
}

/// Flood node: broadcasts on start; every time it has heard `n` messages
/// it broadcasts again, until its round budget drains. Keeps ~n² events
/// in flight for the whole run.
struct FloodNode {
    n: usize,
    rounds_left: u64,
    heard: usize,
}

impl Node for FloodNode {
    type Msg = FloodMsg;

    fn on_start(&mut self, ctx: &mut Context<FloodMsg>) {
        ctx.broadcast(FloodMsg([ctx.me().0 as u64; 8]));
    }

    fn on_message(&mut self, ctx: &mut Context<FloodMsg>, _from: NodeId, msg: FloodMsg) {
        self.heard += 1;
        if self.heard >= self.n && self.rounds_left > 0 {
            self.heard = 0;
            self.rounds_left -= 1;
            ctx.broadcast(FloodMsg([msg.0[0].wrapping_add(1); 8]));
        }
    }

    fn on_timer(&mut self, _: &mut Context<FloodMsg>, _: TimerId) {}
}

/// Measures one (n, backend) point of the flood: (events, best-of-
/// `repeats` wall seconds, peak queue depth). Events and peak depth are a
/// pure function of (n, rounds, seed) — identical across repeats and
/// backends, which the caller asserts; only wall time jitters.
fn measure(n: usize, rounds: u64, backend: QueueBackend, repeats: u32) -> (u64, f64, usize) {
    let mut best = (0, f64::INFINITY, 0);
    for _ in 0..repeats {
        let nodes = (0..n)
            .map(|_| FloodNode {
                n,
                rounds_left: rounds,
                heard: 0,
            })
            .collect();
        let link = Box::new(JitterLink {
            base: 8,
            spread: 48,
        });
        let mut sim = Simulation::with_backend(nodes, link, 0xbe9c, backend);
        let t0 = Instant::now();
        sim.run();
        let wall = t0.elapsed().as_secs_f64().min(best.1);
        best = (sim.events_dispatched(), wall, sim.peak_queue_depth());
    }
    best
}

/// Per-n round budget targeting `target_events` total dispatched events,
/// so every n gets a comparable measurement window.
fn rounds_for(n: usize, target_events: u64) -> u64 {
    (target_events / (n * n) as u64).max(2)
}

/// A sweep's acceptance checks, `(pass, line)`, in print order.
type Checks = Vec<(bool, String)>;

/// An array of one object per item.
fn rows<T>(items: &[T], row: impl Fn(&T) -> Json) -> Json {
    Json::Arr(items.iter().map(row).collect())
}

/// Prints a measured row as it lands, `key=value …` (nested arrays are
/// left to the document), and hands it back.
fn progress(row: Json) -> Json {
    let Json::Obj(pairs) = &row else { return row };
    let fields = pairs.iter().filter_map(|(key, value)| match value {
        Json::Arr(_) => None,
        Json::Num(v) => Some(format!("{key}={v:.2}")),
        other => Some(format!("{key}={}", show(other))),
    });
    eprintln!("{}", fields.collect::<Vec<_>>().join(" "));
    row
}

/// The `queue` sweep: `ns` × both backends at ~`target` events per point.
fn queue_bench(quick: bool, ns: &[usize], target: u64, repeats: u32) -> (Json, Checks) {
    let mut points: Vec<Json> = Vec::new();
    let mut speedups: Vec<(usize, f64)> = Vec::new();
    for &n in ns {
        let rounds = rounds_for(n, target);
        let [heap, calendar] = QueueBackend::ALL.map(|backend| {
            let (events, wall_secs, peak_depth) = measure(n, rounds, backend, repeats);
            let events_per_sec = events as f64 / wall_secs;
            points.push(progress(Json::obj([
                ("n", Json::u64(n as u64)),
                ("backend", Json::str(backend.name())),
                ("events", Json::u64(events)),
                ("wall_ms", Json::Num(wall_secs * 1e3)),
                ("events_per_sec", Json::Num(events_per_sec)),
                ("peak_queue_depth", Json::u64(peak_depth as u64)),
            ])));
            (events, events_per_sec)
        });
        // Both backends must have dispatched the identical event stream.
        assert_eq!(
            heap.0, calendar.0,
            "backends dispatched different event counts — determinism bug"
        );
        speedups.push((n, calendar.1 / heap.1));
    }
    // The acceptance line CI greps: calendar vs heap at the largest n.
    let &(largest, ratio) = speedups.last().expect("non-empty sweep");
    let checks = vec![(
        ratio >= 1.0,
        format!("n={largest} calendar/heap = {ratio:.2}x"),
    )];
    let doc = Json::obj([
        ("bench", Json::str("queue")),
        ("workload", Json::str("flood")),
        ("quick", Json::Bool(quick)),
        ("repeats", Json::u64(repeats as u64)),
        ("target_events", Json::u64(target)),
        ("points", Json::Arr(points)),
        (
            "speedup",
            rows(&speedups, |&(n, ratio)| {
                Json::obj([
                    ("n", Json::u64(n as u64)),
                    ("calendar_over_heap", Json::Num(ratio)),
                ])
            }),
        ),
    ]);
    (doc, checks)
}

/// One measured point of the profile sweep: an honest committee of `n`
/// run to `rounds` blocks, with the observability registry snapshot and
/// the analytic verify prediction beside the measurement.
struct ProfilePoint {
    n: usize,
    accountable: bool,
    rounds: u64,
    wall_secs: f64,
    obs: prft_sim::ObsRegistry,
    /// Raw hook counters, including the memo hit/miss split — the memo
    /// counters are deliberately *not* in the scenario-facing registry
    /// (reports stay mode-identical), so the bench carries them here.
    hooks: prft_sim::obs::hooks::HookSnapshot,
    /// The run's `memo_identity` invariant row.
    memo_identity: bool,
    predicted_verifies: u64,
    predicted_memo_misses: u64,
}

/// Runs one honest committee point and snapshots its observability
/// registry. Hooks are reset first so the registry holds this run's
/// exact deltas (same contract as the scenario runner).
fn run_profile_point(n: usize, accountable: bool, rounds: u64) -> ProfilePoint {
    let spec = ScenarioSpec::new(
        format!("profile-n{n}-{}", if accountable { "acc" } else { "plain" }),
        n,
        rounds,
    )
    .accountable(accountable);
    prft_sim::obs::hooks::reset();
    let seed = prft_lab::derive_seed(spec.base_seed, 0);
    let t0 = Instant::now();
    let (sim, outcome) = prft_lab::run_sim(&spec, seed, |_| {});
    let wall_secs = t0.elapsed().as_secs_f64();
    let hooks = prft_sim::obs::hooks::snapshot();
    let record = prft_lab::summarize(&spec, &sim, seed, outcome);
    let memo_identity = record.kept("memo_identity");
    let obs = record.obs;
    // Rounds actually executed (crash-free honest runs complete exactly
    // `max_rounds`, but read it back rather than assume).
    let rounds_done = obs.counter("replica.rounds_entered") / n as u64;
    ProfilePoint {
        n,
        accountable,
        rounds: rounds_done,
        wall_secs,
        obs,
        hooks,
        memo_identity,
        predicted_verifies: predicted_verifies(n, rounds_done, accountable),
        predicted_memo_misses: predicted_memo_misses(n, rounds_done, accountable),
    }
}

/// Wall-clock budget (seconds) for the accountable n = 128 point in
/// `--quick` mode. Deliberately generous — a release build lands well
/// under a second; the gate only trips if the fast path regresses to
/// reference-like O(n·q²) hashing.
const QUICK_WALL_BUDGET_SECS: f64 = 30.0;

/// The size `--quick` reads its model checks and wall budget at (CI greps
/// those lines by size). Its larger points are swept for `diff`: their
/// exact counters are gated at the size the repo benchmark runs.
const QUICK_CHECKED_N: usize = 128;

/// One model check of the checked accountable point: whether `measured`
/// is within `band` of `predicted`, their ratio, and the document block.
fn model_check(n: usize, measured: u64, predicted: u64, band: f64) -> (bool, f64, Json) {
    let ratio = measured as f64 / predicted as f64;
    let pass = (ratio - 1.0).abs() <= band;
    let block = Json::obj([
        ("n", Json::u64(n as u64)),
        ("measured", Json::u64(measured)),
        ("predicted", Json::u64(predicted)),
        ("ratio", Json::Num(ratio)),
        ("pass", Json::Bool(pass)),
    ]);
    (pass, ratio, block)
}

/// The `profile` sweep: plain then accountable committees of each size in
/// `ns`. The model checks read the largest accountable point; `quick`
/// reads them at [`QUICK_CHECKED_N`] and adds the wall budget there, so CI
/// fails if the memoized fast path regresses.
fn profile_bench(quick: bool, ns: &[usize]) -> (Json, Checks) {
    let rounds = 2;
    let mut points: Vec<ProfilePoint> = Vec::new();
    let mut point_rows: Vec<Json> = Vec::new();
    for &accountable in &[false, true] {
        for &n in ns {
            let p = run_profile_point(n, accountable, rounds);
            let counter = |name| Json::u64(p.obs.counter(name));
            let peak_depth = p.obs.gauge("engine.peak_queue_depth");
            point_rows.push(progress(Json::obj([
                ("n", Json::u64(p.n as u64)),
                ("accountable", Json::Bool(p.accountable)),
                ("rounds", Json::u64(p.rounds)),
                ("wall_ms", Json::Num(p.wall_secs * 1e3)),
                ("sig_verifies", counter("crypto.sig_verifies")),
                ("predicted_sig_verifies", Json::u64(p.predicted_verifies)),
                ("verify.memo_hit", Json::u64(p.hooks.memo_hits)),
                ("verify.memo_miss", Json::u64(p.hooks.memo_misses)),
                ("predicted_memo_misses", Json::u64(p.predicted_memo_misses)),
                ("clone_bytes", counter("engine.clone_bytes")),
                ("events_dispatched", counter("engine.events_dispatched")),
                ("peak_queue_depth", Json::u64(peak_depth)),
            ])));
            points.push(p);
        }
    }
    let checked = points
        .iter()
        .filter(|p| p.accountable && (!quick || p.n == QUICK_CHECKED_N))
        .max_by_key(|p| p.n)
        .expect("accountable points swept, the checked size among them");
    let n = checked.n;
    // Check 1 (CI greps this line): measured vs analytic *logical* verify
    // count, within 10%. Mode-invariant by construction — a memo hit
    // charges exactly what the reference path would have paid.
    let verifies = checked.obs.counter("crypto.sig_verifies");
    let (pass, ratio, check) = model_check(n, verifies, checked.predicted_verifies, 0.10);
    // Check 2: the per-seat miss count must match the miss model to
    // 0.1% — every certificate a Reveal quotes is replayed from the
    // certificate table, and nothing else is.
    let (memo_pass, memo_ratio, memo_check) = model_check(
        n,
        checked.hooks.memo_misses,
        checked.predicted_memo_misses,
        0.001,
    );
    // Check 3: conservation — every logical verify is either a memo hit
    // or a miss, at every point, exactly: the `memo_identity`
    // invariant (a seat checks every signature through its memo).
    let identity_pass = points.iter().all(|p| p.memo_identity);
    let mut checks = vec![
        (
            pass,
            format!("n={n} accountable verifies measured/predicted = {ratio:.3}"),
        ),
        (
            memo_pass,
            format!("n={n} accountable memo misses measured/predicted = {memo_ratio:.4}"),
        ),
        (
            identity_pass,
            "memo hits + misses == sig verifies at every point".to_string(),
        ),
    ];
    // Check 4 (--quick only): wall-clock budget on the same point.
    let wall_budget = quick.then(|| {
        let wall_pass = checked.wall_secs <= QUICK_WALL_BUDGET_SECS;
        checks.push((
            wall_pass,
            format!(
                "n={n} accountable quick wall {:.2}s within {QUICK_WALL_BUDGET_SECS:.0}s budget",
                checked.wall_secs
            ),
        ));
        Json::obj([
            ("n", Json::u64(n as u64)),
            ("wall_secs", Json::Num(checked.wall_secs)),
            ("budget_secs", Json::Num(QUICK_WALL_BUDGET_SECS)),
            ("pass", Json::Bool(wall_pass)),
        ])
    });
    let doc = Json::obj([
        ("bench", Json::str("profile")),
        ("quick", Json::Bool(quick)),
        ("rounds", Json::u64(rounds)),
        ("points", Json::Arr(point_rows)),
        ("check", check),
        ("memo_check", memo_check),
        ("memo_identity_pass", Json::Bool(identity_pass)),
        ("wall_budget", wall_budget.unwrap_or(Json::Null)),
    ]);
    (doc, checks)
}

/// One measured point of the workload sweep.
struct WorkloadPoint {
    clients: usize,
    rounds: u64,
    events: u64,
    wall_secs: f64,
    stats: prft_lab::WorkloadRunStats,
    /// The run's `workload_conserved` invariant row.
    conserved: bool,
}

impl WorkloadPoint {
    /// Events dispatched per wall second.
    fn rate(&self) -> f64 {
        self.events as f64 / self.wall_secs
    }
}

/// Runs one open-loop client population against a fixed 8-replica
/// committee and measures engine throughput plus commit-latency
/// percentiles. The round budget scales with the offered load (2 txs per
/// client, 512-tx batches) so every population size gets enough committee
/// rounds to drain its mempool, plus fixed slack for ramp-up and the
/// retry tail.
fn run_workload_point(clients: usize) -> WorkloadPoint {
    const TXS_PER_CLIENT: u64 = 2;
    const BATCH: u64 = 512;
    let offered = clients as u64 * TXS_PER_CLIENT;
    let rounds = offered.div_ceil(BATCH) + 40;
    let spec = ScenarioSpec::new(format!("bench-wl-{clients}"), 8, rounds)
        .base_seed(0xb_10ad)
        .horizon(20_000_000)
        .workload(
            prft_lab::WorkloadSpec::steady(clients, 50)
                .txs_per_client(TXS_PER_CLIENT)
                .max_batch(BATCH as usize),
        );
    // Best of three: the small populations run for tens of milliseconds,
    // and the ratio between points is gated. Everything but the wall is a
    // pure function of the spec, so any of the runs supplies it.
    let seed = prft_lab::derive_seed(spec.base_seed, 0);
    let timed_run = || {
        let t0 = Instant::now();
        let (sim, outcome) = prft_lab::run_sim(&spec, seed, |_| {});
        (t0.elapsed().as_secs_f64(), sim, outcome)
    };
    let (mut wall_secs, sim, outcome) = timed_run();
    for _ in 1..3 {
        wall_secs = wall_secs.min(timed_run().0);
    }
    let record = prft_lab::record_run(&spec, &sim, seed, outcome);
    WorkloadPoint {
        clients,
        rounds,
        events: sim.events_dispatched(),
        wall_secs,
        conserved: record.kept("workload_conserved"),
        stats: record
            .workload
            .expect("a workload spec's record carries its stats"),
    }
}

/// The workload metrics a point records: the declared ones flagged for the
/// bench row, in declaration order. The emitter and [`workload_schema`]
/// both read this, so a new counter is its one declaration.
fn bench_metrics() -> impl Iterator<Item = &'static prft_lab::WorkloadMetric> {
    prft_lab::WORKLOAD_METRICS.iter().filter(|m| m.bench)
}

/// The `workload` sweep: one open-loop population per entry of `ns`.
fn workload_bench(quick: bool, ns: &[usize]) -> (Json, Checks) {
    let mut points: Vec<WorkloadPoint> = Vec::new();
    let mut point_rows: Vec<Json> = Vec::new();
    for &clients in ns {
        let p = run_workload_point(clients);
        let smallest = points.first().unwrap_or(&p);
        let mut row = vec![
            ("clients", Json::u64(p.clients as u64)),
            ("rounds", Json::u64(p.rounds)),
            ("events", Json::u64(p.events)),
            ("wall_ms", Json::Num(p.wall_secs * 1e3)),
            ("events_per_sec", Json::Num(p.rate())),
            ("rate_over_smallest", Json::Num(p.rate() / smallest.rate())),
        ];
        row.extend(bench_metrics().map(|m| (m.name, Json::u64((m.get)(&p.stats)))));
        point_rows.push(progress(Json::obj(row)));
        points.push(p);
    }
    // Check 1 (CI greps this line): conservation at every point, the
    // `workload_conserved` invariant.
    let conserve_pass = points.iter().all(|p| p.conserved);
    // Check 2: the largest population commits its whole offered load —
    // the round budget is sized for it, so leftovers mean a regression in
    // batching, retries, or the client path.
    let largest = points.last().expect("non-empty sweep");
    let (committed, submitted) = (largest.stats.committed, largest.stats.submitted);
    let drain_pass = committed == submitted;
    let drain_line = format!(
        "clients={} committed {committed}/{submitted} of offered load",
        largest.clients
    );
    // Check 3: work per event does not grow with the history a replica
    // holds — the largest population's events/s reaches half the
    // smallest's (a handler that re-walks the chain or the `Final` tally
    // per event reads 0.14× at 10 000 clients).
    let smallest = &points[0];
    let scaling = largest.rate() / smallest.rate();
    let scaling_line = format!(
        "events/s at clients={} >= 0.5x clients={} ({scaling:.2}x)",
        largest.clients, smallest.clients
    );
    let checks = vec![
        (
            conserve_pass,
            "submitted == committed + dropped + pending at every point".to_string(),
        ),
        (drain_pass, drain_line),
        (scaling >= 0.5, scaling_line),
    ];
    let doc = Json::obj([
        ("bench", Json::str("workload")),
        ("quick", Json::Bool(quick)),
        ("committee_n", Json::u64(8)),
        ("arrival", Json::str("steady interval=50")),
        ("points", Json::Arr(point_rows)),
        ("conservation_pass", Json::Bool(conserve_pass)),
        (
            "drain_check",
            Json::obj([
                ("clients", Json::u64(largest.clients as u64)),
                ("committed", Json::u64(committed)),
                ("submitted", Json::u64(submitted)),
                ("pass", Json::Bool(drain_pass)),
            ]),
        ),
    ]);
    (doc, checks)
}

/// One late-divergence grid of the checkpoint bench: cells sharing a
/// long identical prefix, each diverging at a different tick near the
/// horizon (plus one cell that never diverges and forks at the horizon
/// pseudo-boundary).
struct CheckpointGrid {
    name: &'static str,
    specs: Vec<ScenarioSpec>,
    /// Divergence tick per cell (`None` for the never-diverging cell).
    ticks: Vec<Option<u64>>,
}

/// Round cadence for the checkpoint grids: Δ = 100 keeps an unbounded-
/// round n = 8 committee busy (but not event-dense) all the way to the
/// horizon, so prefix ticks translate into real simulation work.
const CHECKPOINT_DELTA: u64 = 100;

/// Tick every delay-divergence cell lifts its shared delay rule at: late
/// enough that forks across the live rule skip real work, early
/// enough to leave a long shared suffix past it.
const DELAY_LIFT_TICK: u64 = 60_000;

/// A grid over `base`: one `crash@t` cell per tick, crashing replica 7
/// there, plus the `calm` cell that never diverges — first or last in
/// run order.
fn divergence_grid(
    name: &'static str,
    (calm, calm_first): (&str, bool),
    ticks: &[u64],
    base: impl Fn(String) -> ScenarioSpec,
) -> CheckpointGrid {
    let crash = |&t: &u64| {
        let spec = base(format!("crash@{t}")).at(t, TimelineEvent::Crash(7));
        (spec, Some(t))
    };
    let mut cells: Vec<(ScenarioSpec, Option<u64>)> = ticks.iter().map(crash).collect();
    let calm_at = if calm_first { 0 } else { cells.len() };
    cells.insert(calm_at, (base(calm.to_string()), None));
    let (specs, ticks) = cells.into_iter().unzip();
    CheckpointGrid { name, specs, ticks }
}

/// The three grids, every cell busy to the `horizon` (the round budget is
/// never reached, so activity is horizon-bound).
fn checkpoint_grids(horizon: u64, ticks: &[u64]) -> [CheckpointGrid; 3] {
    let cell = |label: String, seed: u64| {
        let synchrony = prft_lab::Synchrony::Synchronous {
            delta: CHECKPOINT_DELTA,
        };
        ScenarioSpec::new(label, 8, u64::MAX / 2)
            .base_seed(seed)
            .synchrony(synchrony)
            .horizon(horizon)
    };
    let (from, to) = (Some(0), None);
    let delay = TimelineEvent::AddDelayRule {
        from,
        to,
        extra: 40,
        window: u64::MAX,
    };
    let lift = TimelineEvent::RemoveDelayRule { from, to };
    let clients = prft_lab::WorkloadSpec::steady(30, 150)
        .txs_per_client(4)
        .max_batch(256);
    [
        // Committee only. Every cell's prefix below its own divergence
        // tick is empty, so cell k forks from cell k−1's capture and
        // simulates only its final slice.
        divergence_grid(
            "crash-divergence",
            ("no-divergence", false),
            ticks,
            |label| cell(label, 0xc4e2),
        ),
        // Every cell installs the same targeted delay rule at t = 0 and
        // lifts it at `DELAY_LIFT_TICK`. Forks here cross a live delay
        // rule, so the bench also times the link-stack rebuild the
        // equivalence suite pins for correctness — and because the shared
        // schedule ends at the lift, the crash cells can only fork deep
        // via **suffix captures**: the lift-only cell runs first and
        // captures at the hinted crash ticks, far past its own last event.
        divergence_grid("delay-divergence", ("lift-only", true), ticks, |label| {
            cell(label, 0xde1a)
                .at(0, delay.clone())
                .at(DELAY_LIFT_TICK, lift.clone())
        }),
        // The workload twin of the crash grid: every cell drives the same
        // open-loop client population, so captures carry the clients'
        // in-flight/retry state along with the committee.
        divergence_grid(
            "workload-divergence",
            ("no-divergence", false),
            ticks,
            |label| cell(label, 0x10adc).workload(clients.clone()),
        ),
    ]
}

/// One grid measured both ways.
struct CheckpointResult {
    grid: CheckpointGrid,
    records: Vec<prft_lab::RunRecord>,
    cold_wall: f64,
    warm_wall: f64,
    identical: bool,
    reuse: prft_lab::ReuseStats,
}

/// Runs one leg of a grid (cells in divergence order, one thread). The
/// warm leg installs the grid's capture hints first, exactly as the
/// batch runners do — suffix captures need them.
fn run_checkpoint_leg(
    specs: &[ScenarioSpec],
    store: Option<&prft_lab::CheckpointStore>,
) -> (Vec<prft_lab::RunRecord>, f64) {
    if let Some(store) = store {
        store.set_capture_hints_for(specs.iter());
    }
    let t0 = Instant::now();
    let records = specs
        .iter()
        .map(|s| prft_lab::run_one_with(s, prft_lab::derive_seed(s.base_seed, 0), store))
        .collect();
    (records, t0.elapsed().as_secs_f64())
}

/// Measures one grid cold and warm, best-of-`repeats` walls (records and
/// reuse counters are deterministic at one thread; only walls jitter).
fn measure_checkpoint_grid(grid: CheckpointGrid, repeats: u32) -> CheckpointResult {
    let mut cold_wall = f64::INFINITY;
    let mut warm_wall = f64::INFINITY;
    let mut cold_records = Vec::new();
    let mut warm_records = Vec::new();
    let mut reuse = prft_lab::ReuseStats::default();
    for _ in 0..repeats {
        let (records, wall) = run_checkpoint_leg(&grid.specs, None);
        cold_wall = cold_wall.min(wall);
        cold_records = records;
        let store = prft_lab::CheckpointStore::default();
        let (records, wall) = run_checkpoint_leg(&grid.specs, Some(&store));
        warm_wall = warm_wall.min(wall);
        warm_records = records;
        reuse = store.stats();
    }
    let identical = cold_records == warm_records;
    CheckpointResult {
        grid,
        records: cold_records,
        cold_wall,
        warm_wall,
        identical,
        reuse,
    }
}

/// The `checkpoint` sweep: the three grids diverging at `ticks`, each
/// cold (no store) and warm (one shared store) at one thread.
fn checkpoint_bench(quick: bool, horizon: u64, ticks: &[u64], repeats: u32) -> (Json, Checks) {
    let mut grid_rows: Vec<Json> = Vec::new();
    let grids = checkpoint_grids(horizon, ticks).map(|grid| {
        let r = measure_checkpoint_grid(grid, repeats);
        let cells: Vec<_> = (r.grid.specs.iter().zip(&r.grid.ticks).zip(&r.records)).collect();
        let per_sec = |wall: f64| Json::Num(cells.len() as f64 / wall);
        let cell_rows = rows(&cells, |((spec, tick), record)| {
            Json::obj([
                ("label", Json::str(spec.label.clone())),
                ("divergence_tick", tick.map_or(Json::Null, Json::u64)),
                ("events_dispatched", Json::u64(record.events_dispatched)),
            ])
        });
        let reuse = Json::obj([
            ("created", Json::u64(r.reuse.created)),
            ("forked", Json::u64(r.reuse.forked)),
            ("prefix_ticks_saved", Json::u64(r.reuse.prefix_ticks_saved)),
        ]);
        grid_rows.push(progress(Json::obj([
            ("name", Json::str(r.grid.name)),
            ("cells", cell_rows),
            ("cold_wall_ms", Json::Num(r.cold_wall * 1e3)),
            ("warm_wall_ms", Json::Num(r.warm_wall * 1e3)),
            ("cells_per_sec_cold", per_sec(r.cold_wall)),
            ("cells_per_sec_warm", per_sec(r.warm_wall)),
            ("warm_over_cold", Json::Num(r.cold_wall / r.warm_wall)),
            ("reuse", reuse),
            ("identical", Json::Bool(r.identical)),
        ])));
        r
    });
    let best_speedup = (grids.iter().map(|r| r.cold_wall / r.warm_wall)).fold(0.0, f64::max);
    // Check 1 (CI greps this line): forking must be invisible — warm and
    // cold records byte-equal at every cell of every grid.
    let identical = grids.iter().all(|r| r.identical);
    // Check 2: at least one grid must clear 2x cells/sec warm over cold —
    // the acceptance bar for the warm-start machinery paying for itself.
    let speedup_pass = best_speedup >= 2.0;
    // Check 3: every cell after a grid's first forks from a capture. The
    // fork count is the cell count less one at any sweep size (4 of 5
    // cells in full, 3 of 4 in `--quick`); the capture count is not gated,
    // since how many checkpoints a grid captures follows its divergence
    // ticks and hints.
    let all_forked = grids
        .iter()
        .all(|r| r.reuse.forked + 1 == r.grid.specs.len() as u64);
    let checks = vec![
        (
            identical,
            "warm records identical to cold at every cell".to_string(),
        ),
        (
            speedup_pass,
            format!("best grid warm/cold = {best_speedup:.2}x >= 2.00x"),
        ),
        (
            all_forked,
            "every grid forked every cell after its first".to_string(),
        ),
    ];
    let doc = Json::obj([
        ("bench", Json::str("checkpoint")),
        ("quick", Json::Bool(quick)),
        ("repeats", Json::u64(repeats as u64)),
        ("committee_n", Json::u64(8)),
        ("horizon", Json::u64(horizon)),
        ("grids", Json::Arr(grid_rows)),
        (
            "speedup_check",
            Json::obj([
                ("best_warm_over_cold", Json::Num(best_speedup)),
                ("threshold", Json::Num(2.0)),
                ("pass", Json::Bool(speedup_pass)),
            ]),
        ),
        ("identity_pass", Json::Bool(identical)),
    ]);
    (doc, checks)
}

/// Verdict lines of one run — a sweep's `check:` lines or the differ's
/// `diff:` lines — with the tally the exit code derives from.
struct Tally {
    prefix: &'static str,
    checks: u32,
    failed: Vec<String>,
}

impl Tally {
    fn new(prefix: &'static str) -> Self {
        Tally {
            prefix,
            checks: 0,
            failed: Vec::new(),
        }
    }

    /// Records one check; prints its line with a PASS/FAIL suffix.
    fn check(&mut self, pass: bool, line: String) {
        self.checks += 1;
        let verdict = if pass { "PASS" } else { "FAIL" };
        eprintln!("{}: {line} ({verdict})", self.prefix);
        if !pass {
            self.failed.push(line);
        }
    }

    fn exit_code(&self) -> ExitCode {
        ExitCode::from(u8::from(!self.failed.is_empty()))
    }
}

/// The one exit of every sweep: prints its `check:` lines, writes the
/// document to `--out` (or stdout), and fails the run if a check did.
fn finish((doc, checks): (Json, Checks), out: Option<&str>) -> ExitCode {
    let mut tally = Tally::new("check");
    for (pass, line) in checks {
        tally.check(pass, line);
    }
    let rendered = doc.render_pretty();
    match out {
        Some(path) => {
            if let Err(e) = std::fs::write(path, &rendered) {
                eprintln!("error: writing {path}: {e}");
                return ExitCode::FAILURE;
            }
            eprintln!("wrote {path}");
        }
        None => println!("{rendered}"),
    }
    tally.exit_code()
}

/// The relative band `diff` allows a wall-clock ratio below its baseline.
const RATIO_TOLERANCE: f64 = 0.35;

/// How `prft-bench diff` judges a declared scalar against the baseline.
#[derive(Clone, Copy)]
enum Class {
    /// Names the document kind or, inside a row set, the row: rows pair
    /// up across documents by their key fields.
    Key,
    /// A deterministic counter or constant: must equal the baseline.
    Exact,
    /// A wall-clock ratio: must reach `baseline × (1 − RATIO_TOLERANCE)`.
    RatioFloor,
    /// Recorded, type-checked, never compared: wall times and whatever
    /// scales with the sweep size, which `--quick` shrinks.
    Info,
}

/// The JSON type of a declared scalar.
#[derive(Clone, Copy)]
enum Ty {
    U64,
    /// Any number — a whole float renders without a fraction and parses
    /// back as an integer.
    Num,
    Bool,
    Str,
}

/// One declared field of a bench document, under its key.
enum Field {
    Val(&'static str, Ty, Class),
    /// A pass flag: a `bool` that must be `true` in the current document.
    Flag(&'static str),
    Obj(&'static str, &'static [Field]),
    /// An array of objects, keyed by their [`Class::Key`] fields.
    Rows(&'static str, &'static [Field]),
    /// `null` or the inner field.
    Opt(&'static Field),
}

use Class::{Exact, Info, Key, RatioFloor};
use Field::{Flag, Obj, Opt, Rows, Val};
use Ty::{Bool, Num, Str, U64};

/// The schema of record of the four bench documents, by their `bench`
/// field: what a sweep emits (in this order), what a committed
/// `BENCH_*.json` holds, and how `diff` judges each field. A new recorded
/// trajectory is one more table here plus the sweep that measures it.
/// (Laid out by hand, one line per group of related fields, so a whole
/// document reads on one screen.)
static SCHEMAS: LazyLock<[(&str, &[Field]); 4]> = LazyLock::new(|| {
    [
        ("queue", QUEUE),
        ("profile", PROFILE),
        ("workload", workload_schema()),
        ("checkpoint", CHECKPOINT),
    ]
});

#[rustfmt::skip]
const QUEUE: &[Field] = &[
    Val("bench", Str, Key), Val("workload", Str, Exact), Val("quick", Bool, Info),
    Val("repeats", U64, Info), Val("target_events", U64, Info),
    Rows("points", &[
        Val("n", U64, Key), Val("backend", Str, Key),
        Val("events", U64, Info), Val("wall_ms", Num, Info), Val("events_per_sec", Num, Info),
        Val("peak_queue_depth", U64, Exact),
    ]),
    Rows("speedup", &[Val("n", U64, Key), Val("calendar_over_heap", Num, RatioFloor)]),
];

#[rustfmt::skip]
const PROFILE: &[Field] = &[
    Val("bench", Str, Key), Val("quick", Bool, Info), Val("rounds", U64, Exact),
    Rows("points", &[
        Val("n", U64, Key), Val("accountable", Bool, Key),
        Val("rounds", U64, Exact), Val("wall_ms", Num, Info),
        Val("sig_verifies", U64, Exact), Val("predicted_sig_verifies", U64, Exact),
        Val("verify.memo_hit", U64, Exact), Val("verify.memo_miss", U64, Exact),
        Val("predicted_memo_misses", U64, Exact), Val("clone_bytes", U64, Exact),
        Val("events_dispatched", U64, Exact), Val("peak_queue_depth", U64, Exact),
    ]),
    Obj("check", MODEL_CHECK), Obj("memo_check", MODEL_CHECK), Flag("memo_identity_pass"),
    Opt(&Obj("wall_budget", &[
        Val("n", U64, Info), Val("wall_secs", Num, Info), Val("budget_secs", Num, Info),
        Flag("pass"),
    ])),
];

/// The checked accountable point against a model. Which n that is
/// depends on the sweep size, so only the flag is gated.
#[rustfmt::skip]
const MODEL_CHECK: &[Field] = &[
    Val("n", U64, Info), Val("measured", U64, Info), Val("predicted", U64, Info),
    Val("ratio", Num, Info), Flag("pass"),
];

/// The one table that is not a literal: a point's metric fields are the
/// declared [`bench_metrics`], each a deterministic (exact) counter. Built
/// once, by [`SCHEMAS`].
#[rustfmt::skip]
fn workload_schema() -> &'static [Field] {
    let mut point = vec![
        Val("clients", U64, Key), Val("rounds", U64, Exact), Val("events", U64, Exact),
        Val("wall_ms", Num, Info), Val("events_per_sec", Num, Info),
        Val("rate_over_smallest", Num, RatioFloor),
    ];
    point.extend(bench_metrics().map(|m| Val(m.name, U64, Exact)));
    vec![
        Val("bench", Str, Key), Val("quick", Bool, Info),
        Val("committee_n", U64, Exact), Val("arrival", Str, Exact),
        Rows("points", point.leak()),
        Flag("conservation_pass"),
        Obj("drain_check", &[
            Val("clients", U64, Info), Val("committed", U64, Info), Val("submitted", U64, Info),
            Flag("pass"),
        ]),
    ]
    .leak()
}

#[rustfmt::skip]
const CHECKPOINT: &[Field] = &[
    Val("bench", Str, Key), Val("quick", Bool, Info), Val("repeats", U64, Info),
    Val("committee_n", U64, Exact), Val("horizon", U64, Exact),
    Rows("grids", &[
        Val("name", Str, Key),
        Rows("cells", &[
            Val("label", Str, Key), Opt(&Val("divergence_tick", U64, Info)),
            Val("events_dispatched", U64, Exact),
        ]),
        Val("cold_wall_ms", Num, Info), Val("warm_wall_ms", Num, Info),
        Val("cells_per_sec_cold", Num, Info), Val("cells_per_sec_warm", Num, Info),
        Val("warm_over_cold", Num, RatioFloor),
        Obj("reuse", &[
            Val("created", U64, Info), Val("forked", U64, Info),
            Val("prefix_ticks_saved", U64, Info),
        ]),
        Flag("identical"),
    ]),
    Obj("speedup_check", &[
        Val("best_warm_over_cold", Num, Info), Val("threshold", Num, Exact), Flag("pass"),
    ]),
    Flag("identity_pass"),
];

impl Field {
    fn name(&self) -> &'static str {
        match self {
            Val(name, ..) | Flag(name) | Obj(name, _) | Rows(name, _) => name,
            Opt(inner) => inner.name(),
        }
    }
}

/// A value as it reads in a verdict line (strings unquoted).
fn show(value: &Json) -> String {
    value
        .as_str()
        .map_or_else(|| value.render(), str::to_string)
}

/// A row's identity inside its row set: its key fields, `n=16,backend=heap`.
fn row_key(fields: &[Field], row: &Json) -> String {
    let keys = fields.iter().filter_map(|field| match field {
        Val(name, _, Key) => Some(format!("{name}={}", show(row.get(name)?))),
        _ => None,
    });
    keys.collect::<Vec<_>>().join(",")
}

/// Walks a current document along its kind's field table: schema first
/// (every declared field present and typed, no undeclared key — failures
/// print as `schema: …`), then the pass flags, then — wherever a baseline
/// twin exists — each field by its [`Class`].
struct Walker {
    tally: Tally,
}

impl Walker {
    fn schema_error(&mut self, path: &str, what: &str) {
        self.tally.check(false, format!("schema: {path} {what}"));
    }

    fn object(&mut self, fields: &'static [Field], cur: &Json, base: Option<&Json>, path: &str) {
        let Json::Obj(pairs) = cur else {
            return self.schema_error(path, "is not an object");
        };
        for field in fields {
            let at = format!("{path}.{}", field.name());
            match cur.get(field.name()) {
                // A field the baseline lacks compares against `null`.
                Some(value) => {
                    let base = base.map(|b| b.get(field.name()).unwrap_or(&Json::Null));
                    self.field(field, value, base, &at);
                }
                None => self.schema_error(&at, "is missing"),
            }
        }
        for (key, _) in pairs {
            if !fields.iter().any(|field| field.name() == key) {
                self.schema_error(&format!("{path}.{key}"), "is not a declared field");
            }
        }
    }

    fn field(&mut self, field: &'static Field, cur: &Json, base: Option<&Json>, path: &str) {
        let typed = match (field, cur) {
            (Opt(inner), _) => {
                if *cur != Json::Null {
                    self.field(inner, cur, base.filter(|b| **b != Json::Null), path);
                }
                return;
            }
            (Val(_, U64, _), Json::UInt(_))
            | (Val(_, Num, _), Json::UInt(_) | Json::Num(_))
            | (Val(_, Bool, _) | Flag(_), Json::Bool(_))
            | (Val(_, Str, _), Json::Str(_))
            | (Obj(..), Json::Obj(_))
            | (Rows(..), Json::Arr(_)) => true,
            _ => false,
        };
        if !typed {
            return self.schema_error(path, &format!("is {}", cur.render()));
        }
        match (field, base) {
            (Flag(_), _) => self
                .tally
                .check(*cur == Json::Bool(true), format!("{path} holds")),
            (Obj(_, fields), _) => self.object(fields, cur, base, path),
            (Rows(_, fields), _) => self.rows(fields, cur.as_arr().unwrap_or(&[]), base, path),
            (Val(_, _, Exact), Some(base)) => {
                let same = match (cur.as_f64(), base.as_f64()) {
                    (Some(c), Some(b)) => c == b,
                    _ => cur == base,
                };
                let line = format!("{path} {} vs baseline {}", show(cur), show(base));
                self.tally.check(same, line);
            }
            (Val(_, _, RatioFloor), Some(base)) => {
                let ratio = |v: &Json| v.as_f64().unwrap_or(f64::NAN);
                let (c, b) = (ratio(cur), ratio(base));
                let floor = b * (1.0 - RATIO_TOLERANCE);
                let line = format!("{path} {c:.2} vs baseline {b:.2} (floor {floor:.2})");
                self.tally.check(c >= floor, line);
            }
            _ => {}
        }
    }

    fn rows(&mut self, fields: &'static [Field], rows: &[Json], base: Option<&Json>, path: &str) {
        let base_rows = base.map(|b| b.as_arr().unwrap_or(&[]));
        let mut matched = base_rows.is_none();
        for row in rows {
            let key = row_key(fields, row);
            let at = format!("{path}[{key}]");
            let twin = base_rows.and_then(|rs| rs.iter().find(|r| row_key(fields, r) == key));
            if twin.is_some() {
                matched = true;
            } else if base_rows.is_some() {
                eprintln!("diff: {at} has no baseline row (UNMATCHED)");
            }
            self.object(fields, row, twin, &at);
        }
        if !matched {
            let line = format!("{path} shares a row with the baseline");
            self.tally.check(false, line);
        }
    }
}

/// Walks `current` along its kind's table — against `baseline` where one
/// is given (both must be of one kind), schema and pass flags only
/// otherwise.
fn walk_document(current: &Json, baseline: Option<&Json>) -> Result<Tally, String> {
    let kind_of = |doc: &Json| show(doc.get("bench").unwrap_or(&Json::Null));
    let kind = kind_of(current);
    if let Some(base_kind) = baseline.map(kind_of).filter(|k| *k != kind) {
        return Err(format!("bench kinds differ: {kind} vs {base_kind}"));
    }
    let Some((_, fields)) = SCHEMAS.iter().find(|(name, _)| *name == kind) else {
        return Err(format!("unknown bench kind: {kind}"));
    };
    let mut walker = Walker {
        tally: Tally::new("diff"),
    };
    walker.object(fields, current, baseline, &kind);
    Ok(walker.tally)
}

/// `prft-bench diff <current> <baseline>`: schema check of the current
/// document plus regression gate against the baseline.
fn diff_bench(current_path: &str, baseline_path: &str) -> ExitCode {
    let load = |path: &str| -> Result<Json, String> {
        let text = std::fs::read_to_string(path).map_err(|e| format!("reading {path}: {e}"))?;
        Json::parse(&text).map_err(|e| format!("{path}: {e}"))
    };
    let tally = load(current_path).and_then(|current| {
        let baseline = load(baseline_path)?;
        walk_document(&current, Some(&baseline))
    });
    match tally {
        Ok(tally) => {
            eprintln!(
                "diff: {} of {} check(s) failed (tolerance {RATIO_TOLERANCE}, {current_path} vs \
                 {baseline_path})",
                tally.failed.len(),
                tally.checks
            );
            tally.exit_code()
        }
        Err(e) => {
            eprintln!("error: {e}");
            ExitCode::FAILURE
        }
    }
}

fn usage() -> ExitCode {
    eprintln!(
        "usage: prft-bench queue [--quick] [--out FILE] [--repeats R]\n\
         \x20      prft-bench profile [--quick] [--out FILE]\n\
         \x20      prft-bench workload [--quick] [--out FILE]\n\
         \x20      prft-bench checkpoint [--quick] [--out FILE] [--repeats R]\n\
         \x20      prft-bench diff <current.json> <baseline.json>\n\
         \n\
         queue       event-queue backends under a flood workload (BENCH_queue.json)\n\
         profile     honest committees vs the verify-count models (BENCH_profile.json)\n\
         workload    open-loop client populations on n = 8 (BENCH_workload.json)\n\
         checkpoint  late-divergence grids, cold vs warm (BENCH_checkpoint.json)\n\
         diff        schema check + regression gate against a committed baseline\n\
         \n\
         options:\n\
         \x20 --quick        small sweep for CI smoke\n\
         \x20 --out FILE     write the JSON to FILE instead of stdout\n\
         \x20 --repeats R    best-of-R wall times per point (default 3)"
    );
    ExitCode::from(2)
}

/// Every flag of every subcommand, at its default.
struct Opts {
    quick: bool,
    out: Option<String>,
    repeats: u32,
    files: Vec<String>,
}

/// Parses `args` for a subcommand that accepts the `allowed` flags and
/// exactly `files` positional arguments; `None` is a usage error. A valued
/// flag must be followed by a word that is not itself a flag.
fn parse_opts(args: &[String], allowed: &[&str], files: usize) -> Option<Opts> {
    let mut opts = Opts {
        quick: false,
        out: None,
        repeats: 3,
        files: Vec::new(),
    };
    let mut it = args.iter();
    while let Some(arg) = it.next() {
        let mut value = || it.next().filter(|v| !v.starts_with("--"));
        match arg.as_str() {
            flag if flag.starts_with("--") && !allowed.contains(&flag) => return None,
            "--quick" => opts.quick = true,
            "--out" => opts.out = Some(value()?.clone()),
            "--repeats" => opts.repeats = value()?.parse().ok().filter(|r| *r > 0)?,
            file => opts.files.push(file.to_string()),
        }
    }
    (opts.files.len() == files).then_some(opts)
}

fn main() -> ExitCode {
    let args: Vec<String> = std::env::args().skip(1).collect();
    let Some((command, rest)) = args.split_first() else {
        return usage();
    };
    let (allowed, files) = match command.as_str() {
        "queue" | "checkpoint" => (&["--quick", "--out", "--repeats"][..], 0),
        "profile" | "workload" => (&["--quick", "--out"][..], 0),
        "diff" => (&[][..], 2),
        "--help" | "-h" | "help" => {
            usage();
            return ExitCode::SUCCESS;
        }
        _ => return usage(),
    };
    let Some(opts) = parse_opts(rest, allowed, files) else {
        return usage();
    };
    // Each sweep at its `--quick` / full size. The checkpoint sizes share
    // the horizon, so per-cell event counts compare exactly across them;
    // quick just drops a divergence point.
    let (quick, repeats) = (opts.quick, opts.repeats);
    let sweep = match command.as_str() {
        "queue" if quick => queue_bench(quick, &[16, 128], 400_000, repeats),
        "queue" => queue_bench(quick, &[16, 64, 128, 256], 3_000_000, repeats),
        "profile" if quick => profile_bench(quick, &[8, 16, 128, 256]),
        "profile" => profile_bench(quick, &[16, 64, 128, 256, 512, 1024]),
        "workload" if quick => workload_bench(quick, &[100, 1000]),
        "workload" => workload_bench(quick, &[100, 300, 1000, 3000, 10_000]),
        "checkpoint" if quick => {
            checkpoint_bench(quick, 120_000, &[100_000, 110_000, 115_000], repeats)
        }
        "checkpoint" => {
            let ticks = [100_000, 105_000, 110_000, 115_000];
            checkpoint_bench(quick, 120_000, &ticks, repeats)
        }
        _ => return diff_bench(&opts.files[0], &opts.files[1]),
    };
    finish(sweep, opts.out.as_deref())
}

#[cfg(test)]
mod tests {
    use super::*;

    /// A two-grid-cell checkpoint document, small enough to read.
    const CHECKPOINT_DOC: &str = r#"{
        "bench": "checkpoint", "quick": true, "repeats": 1, "committee_n": 8, "horizon": 120000,
        "grids": [{
            "name": "crash-divergence",
            "cells": [
                {"label": "crash@100000", "divergence_tick": 100000, "events_dispatched": 500},
                {"label": "no-divergence", "divergence_tick": null, "events_dispatched": 700}
            ],
            "cold_wall_ms": 30.5, "warm_wall_ms": 10, "cells_per_sec_cold": 65.5,
            "cells_per_sec_warm": 200, "warm_over_cold": 3.0,
            "reuse": {"created": 1, "forked": 1, "prefix_ticks_saved": 100000},
            "identical": true
        }],
        "speedup_check": {"best_warm_over_cold": 3.0, "threshold": 2, "pass": true},
        "identity_pass": true
    }"#;

    /// A one-point profile document carrying the `--quick` wall budget.
    const PROFILE_DOC: &str = r#"{
        "bench": "profile", "quick": true, "rounds": 2,
        "points": [{
            "n": 16, "accountable": true, "rounds": 2, "wall_ms": 5.5, "sig_verifies": 85158,
            "predicted_sig_verifies": 85120, "verify.memo_hit": 75712, "verify.memo_miss": 9446,
            "predicted_memo_misses": 9408, "clone_bytes": 161568, "events_dispatched": 2224,
            "peak_queue_depth": 240
        }],
        "check": {"n": 16, "measured": 85158, "predicted": 85120, "ratio": 1.0004, "pass": true},
        "memo_check": {"n": 16, "measured": 9446, "predicted": 9408, "ratio": 1.004, "pass": true},
        "memo_identity_pass": true,
        "wall_budget": {"n": 128, "wall_secs": 0.6, "budget_secs": 30, "pass": true}
    }"#;

    /// `text` with its one occurrence of `from` replaced, parsed.
    fn edited(text: &str, from: &str, to: &str) -> Json {
        assert_eq!(text.matches(from).count(), 1, "needle {from:?}");
        Json::parse(&text.replace(from, to)).expect("test document parses")
    }

    /// The failed lines of diffing `current` against the pristine `text`.
    fn failures(text: &str, current: &Json) -> Vec<String> {
        let baseline = Json::parse(text).expect("test document parses");
        let tally = walk_document(current, Some(&baseline)).expect("one known kind");
        tally.failed
    }

    #[test]
    fn a_valued_flag_followed_by_a_flag_is_a_usage_error() {
        let parse = |line: &str| {
            let args: Vec<String> = line.split_whitespace().map(String::from).collect();
            parse_opts(&args, &["--quick", "--out", "--repeats"], 0)
        };
        let malformed = "--out --quick|--repeats --quick|--quick --out|--repeats 0|--repeats x";
        for line in malformed.split('|').chain(["--bogus", "stray"]) {
            assert!(parse(line).is_none(), "{line}");
        }
        let opts = parse("--out f.json --quick --repeats 5").expect("well-formed");
        assert_eq!(opts.out.as_deref(), Some("f.json"));
        assert_eq!((opts.quick, opts.repeats), (true, 5));
    }

    #[test]
    fn a_document_diffed_against_itself_passes_every_check() {
        for (text, checks) in [(CHECKPOINT_DOC, 9), (PROFILE_DOC, 14)] {
            let doc = Json::parse(text).unwrap();
            let tally = walk_document(&doc, Some(&doc)).unwrap();
            assert_eq!(tally.failed, Vec::<String>::new());
            assert_eq!(tally.checks, checks);
        }
    }

    #[test]
    fn renamed_cell_labels_fail_instead_of_vanishing() {
        let current =
            Json::parse(&CHECKPOINT_DOC.replace("\"label\": \"", "\"label\": \"x-")).unwrap();
        let failed = failures(CHECKPOINT_DOC, &current);
        assert_eq!(failed.len(), 1, "{failed:?}");
        assert!(failed[0].contains("cells shares a row with the baseline"));
    }

    #[test]
    fn shifted_n_fails_instead_of_vanishing() {
        let failed = failures(
            PROFILE_DOC,
            &edited(PROFILE_DOC, "\"n\": 16, \"acc", "\"n\": 17, \"acc"),
        );
        assert_eq!(failed.len(), 1, "{failed:?}");
        assert!(failed[0].contains("profile.points shares a row with the baseline"));
    }

    #[test]
    fn baseline_rows_the_current_sweep_skipped_stay_skipped() {
        // `--quick` against a full recording: the baseline's extra cell is
        // not a failure as long as some current row found its twin.
        let quick = edited(
            CHECKPOINT_DOC,
            r#"{"label": "crash@100000", "divergence_tick": 100000, "events_dispatched": 500},"#,
            "",
        );
        assert_eq!(failures(CHECKPOINT_DOC, &quick), Vec::<String>::new());
    }

    #[test]
    fn schema_violations_fail() {
        let missing = edited(CHECKPOINT_DOC, "\"horizon\": 120000,", "");
        let mistyped = edited(
            CHECKPOINT_DOC,
            "\"events_dispatched\": 700",
            "\"events_dispatched\": 7.5",
        );
        let undeclared = edited(
            PROFILE_DOC,
            "\"wall_ms\": 5.5,",
            "\"wall_ms\": 5.5, \"timers\": {},",
        );
        for (text, current, line) in [
            (
                CHECKPOINT_DOC,
                missing,
                "schema: checkpoint.horizon is missing",
            ),
            (
                CHECKPOINT_DOC,
                mistyped,
                "schema: checkpoint.grids[name=crash-divergence].cells[label=no-divergence]\
                 .events_dispatched is 7.5",
            ),
            (
                PROFILE_DOC,
                undeclared,
                "schema: profile.points[n=16,accountable=true].timers is not a declared field",
            ),
        ] {
            assert_eq!(failures(text, &current), [line]);
            // The same violations surface without a baseline.
            assert_eq!(walk_document(&current, None).unwrap().failed, [line]);
        }
    }

    #[test]
    fn an_exact_field_drifting_by_one_fails() {
        let failed = failures(CHECKPOINT_DOC, &edited(CHECKPOINT_DOC, "500}", "501}"));
        assert_eq!(
            failed,
            [
                "checkpoint.grids[name=crash-divergence].cells[label=crash@100000]\
              .events_dispatched 501 vs baseline 500"
            ]
        );
    }

    #[test]
    fn a_ratio_passes_at_its_floor_and_fails_just_under() {
        // Baseline 3.0 at tolerance 0.35: the floor is 1.95.
        let at = |ratio: &str| edited(CHECKPOINT_DOC, "\"warm_over_cold\": 3.0", ratio);
        assert_eq!(
            failures(CHECKPOINT_DOC, &at("\"warm_over_cold\": 1.951")),
            Vec::<String>::new()
        );
        let failed = failures(CHECKPOINT_DOC, &at("\"warm_over_cold\": 1.949"));
        assert_eq!(failed.len(), 1, "{failed:?}");
        assert!(failed[0].ends_with("warm_over_cold 1.95 vs baseline 3.00 (floor 1.95)"));
    }

    /// A workload document of `(clients, rate_over_smallest)` points, every
    /// other declared field a placeholder.
    fn workload_doc(points: &[(u64, f64)]) -> Json {
        let point = |&(clients, rate): &(u64, f64)| {
            let mut row = vec![("clients", Json::u64(clients))];
            row.extend(
                ["rounds", "events", "wall_ms", "events_per_sec"].map(|f| (f, Json::u64(1))),
            );
            row.push(("rate_over_smallest", Json::Num(rate)));
            row.extend(bench_metrics().map(|m| (m.name, Json::u64(0))));
            Json::obj(row)
        };
        let drain = ["clients", "committed", "submitted"].map(|f| (f, Json::u64(1)));
        let drain = drain.into_iter().chain([("pass", Json::Bool(true))]);
        Json::obj([
            ("bench", Json::str("workload")),
            ("quick", Json::Bool(false)),
            ("committee_n", Json::u64(8)),
            ("arrival", Json::str("steady interval=50")),
            ("points", Json::arr(points, point)),
            ("conservation_pass", Json::Bool(true)),
            ("drain_check", Json::obj(drain)),
        ])
    }

    #[test]
    fn a_quick_workload_sweep_gates_its_rates_against_the_full_recording() {
        // Rows pair by `clients`, so the two populations `--quick` measures
        // meet their twins among the full sweep's.
        let full = workload_doc(&[(100, 1.0), (300, 1.1), (1000, 1.2)]);
        let failed = |rate: f64| {
            let quick = workload_doc(&[(100, 1.0), (1000, rate)]);
            walk_document(&quick, Some(&full)).unwrap().failed
        };
        assert_eq!(failed(0.79), Vec::<String>::new());
        assert_eq!(
            failed(0.3),
            ["workload.points[clients=1000].rate_over_smallest 0.30 vs baseline 1.20 (floor 0.78)"]
        );
    }

    #[test]
    fn a_false_pass_flag_fails() {
        let budget = edited(
            PROFILE_DOC,
            "\"budget_secs\": 30, \"pass\": true",
            "\"budget_secs\": 30, \"pass\": false",
        );
        assert_eq!(
            failures(PROFILE_DOC, &budget),
            ["profile.wall_budget.pass holds"]
        );
        let grid = edited(
            CHECKPOINT_DOC,
            "\"identical\": true",
            "\"identical\": false",
        );
        assert_eq!(
            failures(CHECKPOINT_DOC, &grid),
            ["checkpoint.grids[name=crash-divergence].identical holds"]
        );
    }

    #[test]
    fn documents_of_different_or_unknown_kinds_are_errors() {
        let (checkpoint, profile) = (
            Json::parse(CHECKPOINT_DOC).unwrap(),
            Json::parse(PROFILE_DOC).unwrap(),
        );
        assert!(walk_document(&checkpoint, Some(&profile)).is_err());
        assert!(walk_document(&Json::obj([("bench", Json::str("e2e"))]), None).is_err());
        assert!(walk_document(&Json::Null, None).is_err());
    }

    /// Schema violations of `doc` alone (pass flags are the sweep's own
    /// business: a tiny sweep need not clear the full-size bars).
    fn schema_errors(doc: &Json) -> Vec<String> {
        let mut failed = walk_document(doc, None).expect("a known kind").failed;
        failed.retain(|line| line.starts_with("schema:"));
        failed
    }

    #[test]
    fn every_sweep_emits_exactly_its_declared_fields() {
        for (doc, _checks) in [
            queue_bench(true, &[4, 8], 2_000, 1),
            profile_bench(false, &[8, 16]),
            workload_bench(true, &[20, 50]),
            checkpoint_bench(true, 3_000, &[2_000], 1),
        ] {
            // Through the renderer and back, as `diff` reads it.
            let doc = Json::parse(&doc.render_pretty()).unwrap();
            assert_eq!(schema_errors(&doc), Vec::<String>::new());
        }
    }

    #[test]
    fn the_committed_baselines_match_their_tables_and_hold_their_flags() {
        for &(kind, _) in SCHEMAS.iter() {
            let path = format!("{}/../../BENCH_{kind}.json", env!("CARGO_MANIFEST_DIR"));
            let text = std::fs::read_to_string(&path).expect("committed baseline");
            let doc = Json::parse(&text).unwrap();
            assert_eq!(show(doc.get("bench").unwrap()), kind);
            let tally = walk_document(&doc, Some(&doc)).unwrap();
            assert_eq!(tally.failed, Vec::<String>::new(), "{path}");
        }
    }
}
