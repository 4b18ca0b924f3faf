//! The `prft-bench` binary: engine micro-benchmarks with machine-readable
//! output, seeding the repo's recorded perf trajectory (`BENCH_*.json`).
//!
//! ```text
//! prft-bench queue [--quick] [--out FILE] [--repeats R]
//! prft-bench profile [--quick] [--out FILE]
//! prft-bench workload [--quick] [--out FILE]
//! prft-bench checkpoint [--quick] [--out FILE] [--repeats R]
//! prft-bench diff <current.json> <baseline.json> [--tolerance F]
//! ```
//!
//! `queue` sweeps committee sizes n ∈ {16, 64, 128, 256} × both event-queue
//! backends (heap reference, calendar) over a queue-bound flood workload
//! (every node broadcasts through a jittered link until a per-node round
//! budget drains; queue depth is ~n², which is exactly the pressure a
//! large-n pRFT committee puts on the engine) and reports events/sec, wall
//! time, and peak queue depth per point. `--quick` shrinks the sweep to
//! n ∈ {16, 128} with fewer events for CI smoke use.
//!
//! `profile` runs honest pRFT committees (accountable and non-accountable,
//! n ∈ {16, 64, 128, 256, 512}; `--quick` shrinks to n ∈ {8, 16, 128})
//! and reports where the work goes: logical signature verifies, actual
//! memo hits/misses (`verify.memo_hit` / `verify.memo_miss`), fan-out
//! clone bytes, events dispatched, wall time — plus per-scope wall-clock
//! timers when built with `--features profiling`. Three checks guard the
//! accountable points, each with a greppable PASS/FAIL line:
//! * the **logical** verify count must match the analytic per-round
//!   prediction within 10% (the O(n·q²) Reveal-phase term, the verify
//!   twin of Table 3's O(n³κ) bound) — this count is mode-invariant, so
//!   it also pins the fast path's counting discipline;
//! * the **actual** hash count (`verify.memo_miss`) must match the
//!   distinct-content model within 0.1% — with memoization each distinct
//!   signed content is hashed once per replica, collapsing O(n·q²) to
//!   O(n) per replica-round;
//! * `verify.memo_hit + verify.memo_miss == crypto.sig_verifies` exactly
//!   (every verification is either answered from cache or hashed).
//!
//! `--quick` additionally enforces a generous wall-clock budget on the
//! accountable n = 128 point, so CI fails if the fast path regresses.
//!
//! `workload` sweeps open-loop client populations n ∈ {100, 300, 1000,
//! 3000, 10000} against a fixed 8-replica committee (steady arrivals,
//! batched proposals) and reports engine throughput (events/sec) and
//! commit-latency percentiles (p50/p90/p99 in virtual ticks) per point.
//! `--quick` shrinks the sweep to n ∈ {100, 1000}. Two greppable checks:
//! every point must conserve transactions (submitted == committed +
//! dropped + pending) and the largest population must commit its entire
//! offered load (no drops, nothing left pending).
//!
//! The workload is deterministic (seeded link jitter), so both backends
//! dispatch the **same** events in the same order — the wall-clock delta
//! is pure queue cost. The binary exits non-zero if the calendar backend
//! fails to at least match the heap backend at the largest swept n, which
//! is what lets CI grep a PASS line instead of parsing JSON.
//!
//! `checkpoint` measures the sweep-scale payoff of checkpoint/fork warm
//! starts (`docs/CHECKPOINTING.md`) on three late-divergence grids —
//! cells sharing a long common prefix that diverge only near the
//! horizon, the shape where forking pays most: committee crash
//! divergence, delay-rule cells diverging *after* a shared lift
//! (exercising suffix captures via the batch capture hints), and a
//! workload (committee-plus-clients) grid whose captures carry client
//! state. Each grid runs twice at one
//! thread: cold (no store) and warm (one shared store with capture hints
//! installed, as the batch runners do); the report carries per-cell
//! deterministic event counts, both walls, the reuse accounting, and the
//! warm/cold speedup. Exits non-zero if warm and cold records differ
//! anywhere or no grid reaches 2× cells/sec warm over cold.
//!
//! `diff` compares a freshly measured bench JSON against a committed
//! baseline (`BENCH_*.json`) and exits non-zero on regression: exact
//! equality for deterministic counters (profile verify/memo counts,
//! workload conservation and latency percentiles, checkpoint per-cell
//! event counts), a relative tolerance (default 0.35) for wall-clock
//! ratios (queue calendar/heap, checkpoint warm/cold). CI runs it after
//! each `--quick` bench so perf regressions fail the build without any
//! JSON toolchain in the workflow.
//!
//! Schema of the emitted JSON: see `docs/PERFORMANCE.md`.

use prft_lab::json::Json;
use prft_sim::{
    Context, LinkModel, Node, QueueBackend, SimRng, SimTime, Simulation, TimerId, WireMessage,
};
use prft_types::NodeId;
use std::process::ExitCode;
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

/// One measured point of the sweep.
struct Point {
    n: usize,
    backend: QueueBackend,
    events: u64,
    wall_secs: f64,
    events_per_sec: f64,
    peak_depth: usize,
}

/// Runs the flood once and returns (events, wall seconds, peak depth).
/// The event count is a pure function of (n, rounds, seed) — identical
/// across backends, which the caller asserts.
fn run_flood(n: usize, rounds: u64, backend: QueueBackend, seed: u64) -> (u64, f64, usize) {
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
    let mut sim = Simulation::with_backend(nodes, link, seed, backend);
    let t0 = Instant::now();
    sim.run();
    let wall = t0.elapsed().as_secs_f64();
    (sim.events_dispatched(), wall, sim.peak_queue_depth())
}

/// Measures one (n, backend) point: best-of-`repeats` wall time (the
/// event count and peak depth are deterministic; only wall time jitters).
fn measure(n: usize, rounds: u64, backend: QueueBackend, repeats: u32) -> Point {
    let mut best_wall = f64::INFINITY;
    let mut events = 0;
    let mut peak = 0;
    for _ in 0..repeats {
        let (e, w, p) = run_flood(n, rounds, backend, 0xbe9c);
        best_wall = best_wall.min(w);
        events = e;
        peak = p;
    }
    Point {
        n,
        backend,
        events,
        wall_secs: best_wall,
        events_per_sec: events as f64 / best_wall,
        peak_depth: peak,
    }
}

/// Per-n round budget targeting `target_events` total dispatched events,
/// so every n gets a comparable measurement window.
fn rounds_for(n: usize, target_events: u64) -> u64 {
    (target_events / (n * n) as u64).max(2)
}

fn queue_bench(quick: bool, repeats: u32, out: Option<&str>) -> ExitCode {
    let (ns, target): (&[usize], u64) = if quick {
        (&[16, 128], 400_000)
    } else {
        (&[16, 64, 128, 256], 3_000_000)
    };
    let mut points: Vec<Point> = Vec::new();
    for &n in ns {
        let rounds = rounds_for(n, target);
        for backend in QueueBackend::ALL {
            let p = measure(n, rounds, backend, repeats);
            eprintln!(
                "n={:>3} {:>8}: {:>9} events in {:>8.1}ms  ({:>11.0} events/s, peak depth {})",
                p.n,
                p.backend.name(),
                p.events,
                p.wall_secs * 1e3,
                p.events_per_sec,
                p.peak_depth
            );
            points.push(p);
        }
        // Both backends must have dispatched the identical event stream.
        let [heap_point, cal_point] = &points[points.len() - 2..] else {
            unreachable!("two backends just measured");
        };
        assert_eq!(
            heap_point.events, cal_point.events,
            "backends dispatched different event counts — determinism bug"
        );
    }
    // The acceptance line CI greps: calendar vs heap at the largest n.
    let largest = *ns.last().expect("non-empty sweep");
    let eps_of = |backend: QueueBackend| {
        points
            .iter()
            .find(|p| p.n == largest && p.backend == backend)
            .expect("measured")
            .events_per_sec
    };
    let ratio = eps_of(QueueBackend::Calendar) / eps_of(QueueBackend::Heap);
    let pass = ratio >= 1.0;
    eprintln!(
        "check: n={largest} calendar/heap = {ratio:.2}x ({})",
        if pass { "PASS" } else { "FAIL" }
    );

    let doc = Json::obj([
        ("bench", Json::str("queue")),
        ("workload", Json::str("flood")),
        ("quick", Json::Bool(quick)),
        ("repeats", Json::u64(repeats as u64)),
        ("target_events", Json::u64(target)),
        (
            "points",
            Json::Arr(
                points
                    .iter()
                    .map(|p| {
                        Json::obj([
                            ("n", Json::u64(p.n as u64)),
                            ("backend", Json::str(p.backend.name())),
                            ("events", Json::u64(p.events)),
                            ("wall_ms", Json::Num(p.wall_secs * 1e3)),
                            ("events_per_sec", Json::Num(p.events_per_sec)),
                            ("peak_queue_depth", Json::u64(p.peak_depth as u64)),
                        ])
                    })
                    .collect(),
            ),
        ),
        (
            "speedup",
            Json::Arr(
                ns.iter()
                    .map(|&n| {
                        let of = |b: QueueBackend| {
                            points
                                .iter()
                                .find(|p| p.n == n && p.backend == b)
                                .expect("measured")
                                .events_per_sec
                        };
                        Json::obj([
                            ("n", Json::u64(n as u64)),
                            (
                                "calendar_over_heap",
                                Json::Num(of(QueueBackend::Calendar) / of(QueueBackend::Heap)),
                            ),
                        ])
                    })
                    .collect(),
            ),
        ),
    ]);
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
    if pass {
        ExitCode::SUCCESS
    } else {
        ExitCode::FAILURE
    }
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
    predicted_verifies: u64,
    predicted_memo_misses: u64,
}

/// Analytic signature-verify count for one honest run: `rounds` rounds,
/// committee `n`, quorum `q = n − t0`, `t0 = ⌈n/4⌉ − 1`.
///
/// Per replica per round, from the handler structure (each broadcast is
/// self-delivered, so a phase's quorum of n senders lands n messages on
/// every replica; messages from *past* rounds are dropped unverified —
/// except Finals — so a phase that advances the round leaves its tail
/// unchecked):
/// * Propose: 1 (leader ballot);
/// * Vote: n votes × (ballot + attached propose `s_pro`) = 2n;
/// * Commit: each commit costs ballot + certificate (commit + q votes)
///   = q + 2. Non-accountable rounds finalize at the commit quorum, so
///   only q commits are checked: q(q+2). Accountable rounds stay open
///   through Reveal, so all n are: n(q+2);
/// * Reveal (accountable only): each reveal carries q commit
///   certificates of q + 1 signatures each, and the round advances at
///   the reveal quorum: q(1 + q(q+1)) — the O(n·q²) ≈ O(n³/
///   replica-round) term that dominates at scale, the verify-side twin
///   of Table 3's O(n³κ) communication bound;
/// * Final: 1 each; Finals act across rounds, so each non-final round
///   contributes n (the last round's tail hits passive replicas).
///
/// The constant factors are derived, not fitted; the `profile` check
/// fails if measurement drifts more than 10% from this model.
fn predicted_verifies(n: usize, rounds: u64, accountable: bool) -> u64 {
    let n64 = n as u64;
    let t0 = n64.div_ceil(4) - 1;
    let q = n64 - t0;
    let per_replica_round = if accountable {
        1 + 2 * n64 + n64 * (q + 2) + q * (1 + q * (q + 1))
    } else {
        1 + 2 * n64 + q * (q + 2)
    };
    n64 * (rounds * per_replica_round + rounds.saturating_sub(1) * n64)
}

/// Distinct-content model: how many verifications the memoized fast path
/// actually hashes (`verify.memo_miss`). Each replica verifies every
/// distinct signed content exactly once; all re-checks — vote attachments,
/// certificate walks, Reveal-phase certificate re-validation — are memo
/// hits because their contents arrived earlier in the same round (votes
/// precede the certificates quoting them; the `Arc`-shared certificate
/// allocations in a Reveal are the very ones validated at Commit):
/// * Propose: 1 distinct leader ballot;
/// * Vote: n distinct vote ballots (the attached propose is a hit);
/// * Commit: each certificate's commit ballot is distinct per sender —
///   n in accountable rounds (all commits processed), q when the round
///   finalizes at the commit quorum; every vote inside is a hit;
/// * Reveal (accountable): q distinct reveal ballots; every quoted
///   certificate is a pointer-keyed cache hit;
/// * Final: n distinct finals per non-final round.
///
/// So per replica-round: accountable `1 + 2n + q`, plain `1 + n + q` —
/// the O(n·q²) verify term collapses to O(n). The `profile` check holds
/// this model to 0.1%: every constant is structural, nothing is fitted.
fn predicted_memo_misses(n: usize, rounds: u64, accountable: bool) -> u64 {
    let n64 = n as u64;
    let t0 = n64.div_ceil(4) - 1;
    let q = n64 - t0;
    let per_replica_round = if accountable {
        1 + 2 * n64 + q
    } else {
        1 + n64 + q
    };
    n64 * (rounds * per_replica_round + rounds.saturating_sub(1) * n64)
}

/// Runs one honest committee point and snapshots its observability
/// registry. Hooks and timers are reset first so the registry holds this
/// run's exact deltas (same contract as the scenario runner).
fn run_profile_point(n: usize, accountable: bool, rounds: u64) -> ProfilePoint {
    let spec = prft_lab::ScenarioSpec::new(
        format!("profile-n{n}-{}", if accountable { "acc" } else { "plain" }),
        n,
        rounds,
    )
    .accountable(accountable);
    prft_sim::obs::hooks::reset();
    prft_sim::obs::profile_reset();
    let t0 = Instant::now();
    let (sim, _outcome) =
        prft_lab::run_sim(&spec, prft_lab::derive_seed(spec.base_seed, 0), |_| {});
    let wall_secs = t0.elapsed().as_secs_f64();
    let hooks = prft_sim::obs::hooks::snapshot();
    let obs = prft_core::obs::collect(&sim, &hooks);
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
        predicted_verifies: predicted_verifies(n, rounds_done, accountable),
        predicted_memo_misses: predicted_memo_misses(n, rounds_done, accountable),
    }
}

/// Renders the per-scope wall-clock timer table (empty unless the binary
/// was built with `--features profiling`).
fn timers_json() -> Json {
    Json::obj(
        prft_sim::obs::profile_snapshot()
            .into_iter()
            .map(|(name, stat)| {
                (
                    name,
                    Json::obj([
                        ("calls", Json::u64(stat.calls)),
                        ("total_ns", Json::u64(stat.total_ns)),
                    ]),
                )
            }),
    )
}

/// Wall-clock budget (seconds) for the accountable n = 128 point in
/// `--quick` mode. Deliberately generous — a release build lands well
/// under a second; the gate only trips if the fast path regresses to
/// reference-like O(n·q²) hashing.
const QUICK_WALL_BUDGET_SECS: f64 = 30.0;

fn profile_bench(quick: bool, out: Option<&str>) -> ExitCode {
    let ns: &[usize] = if quick {
        &[8, 16, 128]
    } else {
        &[16, 64, 128, 256, 512]
    };
    let rounds = 2;
    let mut points: Vec<(ProfilePoint, Json)> = Vec::new();
    for &accountable in &[false, true] {
        for &n in ns {
            let p = run_profile_point(n, accountable, rounds);
            let timers = timers_json();
            let verifies = p.obs.counter("crypto.sig_verifies");
            eprintln!(
                "n={:>3} {:>5}: {:>11} verifies (predicted {:>11}), {:>8} hashed \
                 (memo {:>11} hits / {:>8} misses), {:>9} clone bytes, \
                 {:>8} events, {:>8.1}ms",
                p.n,
                if p.accountable { "acc" } else { "plain" },
                verifies,
                p.predicted_verifies,
                p.hooks.memo_misses,
                p.hooks.memo_hits,
                p.hooks.memo_misses,
                p.obs.counter("engine.clone_bytes"),
                p.obs.counter("engine.events_dispatched"),
                p.wall_secs * 1e3,
            );
            points.push((p, timers));
        }
    }
    // Check 1 (CI greps this line): measured vs analytic *logical* verify
    // count at the largest accountable n. Mode-invariant by construction —
    // a memo hit charges exactly what the reference path would have paid.
    let largest = points
        .iter()
        .filter(|(p, _)| p.accountable)
        .max_by_key(|(p, _)| p.n)
        .map(|(p, _)| p)
        .expect("accountable points swept");
    let measured = largest.obs.counter("crypto.sig_verifies");
    let predicted = largest.predicted_verifies;
    let ratio = measured as f64 / predicted as f64;
    let pass = (ratio - 1.0).abs() <= 0.10;
    eprintln!(
        "check: n={} accountable verifies measured/predicted = {ratio:.3} ({})",
        largest.n,
        if pass { "PASS" } else { "FAIL" }
    );
    // Check 2: the *actual* hash count must match the distinct-content
    // model to 0.1% — this is the memoization working, not a tuning knob.
    let memo_measured = largest.hooks.memo_misses;
    let memo_predicted = largest.predicted_memo_misses;
    let memo_ratio = memo_measured as f64 / memo_predicted as f64;
    let memo_pass = (memo_ratio - 1.0).abs() <= 0.001;
    eprintln!(
        "check: n={} accountable memo misses measured/predicted = {memo_ratio:.4} ({})",
        largest.n,
        if memo_pass { "PASS" } else { "FAIL" }
    );
    // Check 3: conservation — every logical verify is either a memo hit
    // or a real hash, at every point, exactly. (Honest runs have no
    // view-change traffic, the one path that verifies outside the cache.)
    let identity_pass = points
        .iter()
        .all(|(p, _)| p.hooks.memo_hits + p.hooks.memo_misses == p.hooks.sig_verifies);
    eprintln!(
        "check: memo hits + misses == sig verifies at every point ({})",
        if identity_pass { "PASS" } else { "FAIL" }
    );
    // Check 4 (--quick only): wall-clock budget on accountable n = 128.
    let wall_check = quick.then(|| {
        let p128 = points
            .iter()
            .map(|(p, _)| p)
            .find(|p| p.accountable && p.n == 128)
            .expect("quick sweep includes accountable n=128");
        let wall_pass = p128.wall_secs <= QUICK_WALL_BUDGET_SECS;
        eprintln!(
            "check: n=128 accountable quick wall {:.2}s within {QUICK_WALL_BUDGET_SECS:.0}s \
             budget ({})",
            p128.wall_secs,
            if wall_pass { "PASS" } else { "FAIL" }
        );
        (p128.wall_secs, wall_pass)
    });
    let all_pass = pass && memo_pass && identity_pass && wall_check.is_none_or(|(_, p)| p);

    let doc = Json::obj([
        ("bench", Json::str("profile")),
        ("quick", Json::Bool(quick)),
        ("rounds", Json::u64(rounds)),
        (
            "profiling_enabled",
            Json::Bool(prft_sim::obs::profiling_enabled()),
        ),
        (
            "points",
            Json::Arr(
                points
                    .iter()
                    .map(|(p, timers)| {
                        Json::obj([
                            ("n", Json::u64(p.n as u64)),
                            ("accountable", Json::Bool(p.accountable)),
                            ("rounds", Json::u64(p.rounds)),
                            ("wall_ms", Json::Num(p.wall_secs * 1e3)),
                            (
                                "sig_verifies",
                                Json::u64(p.obs.counter("crypto.sig_verifies")),
                            ),
                            ("predicted_sig_verifies", Json::u64(p.predicted_verifies)),
                            ("verify.memo_hit", Json::u64(p.hooks.memo_hits)),
                            ("verify.memo_miss", Json::u64(p.hooks.memo_misses)),
                            ("predicted_memo_misses", Json::u64(p.predicted_memo_misses)),
                            (
                                "clone_bytes",
                                Json::u64(p.obs.counter("engine.clone_bytes")),
                            ),
                            (
                                "events_dispatched",
                                Json::u64(p.obs.counter("engine.events_dispatched")),
                            ),
                            (
                                "peak_queue_depth",
                                Json::u64(p.obs.gauge("engine.peak_queue_depth")),
                            ),
                            ("timers", timers.clone()),
                        ])
                    })
                    .collect(),
            ),
        ),
        (
            "check",
            Json::obj([
                ("n", Json::u64(largest.n as u64)),
                ("measured", Json::u64(measured)),
                ("predicted", Json::u64(predicted)),
                ("ratio", Json::Num(ratio)),
                ("pass", Json::Bool(pass)),
            ]),
        ),
        (
            "memo_check",
            Json::obj([
                ("n", Json::u64(largest.n as u64)),
                ("measured", Json::u64(memo_measured)),
                ("predicted", Json::u64(memo_predicted)),
                ("ratio", Json::Num(memo_ratio)),
                ("pass", Json::Bool(memo_pass)),
            ]),
        ),
        ("memo_identity_pass", Json::Bool(identity_pass)),
        (
            "wall_budget",
            match wall_check {
                Some((wall_secs, wall_pass)) => Json::obj([
                    ("n", Json::u64(128)),
                    ("wall_secs", Json::Num(wall_secs)),
                    ("budget_secs", Json::Num(QUICK_WALL_BUDGET_SECS)),
                    ("pass", Json::Bool(wall_pass)),
                ]),
                None => Json::Null,
            },
        ),
    ]);
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
    if all_pass {
        ExitCode::SUCCESS
    } else {
        ExitCode::FAILURE
    }
}

/// One measured point of the workload sweep.
struct WorkloadPoint {
    clients: usize,
    rounds: u64,
    events: u64,
    wall_secs: f64,
    stats: prft_lab::WorkloadRunStats,
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
    let spec = prft_lab::ScenarioSpec::new(format!("bench-wl-{clients}"), 8, rounds)
        .base_seed(0xb_10ad)
        .horizon(20_000_000)
        .workload(
            prft_lab::WorkloadSpec::steady(clients, 50)
                .txs_per_client(TXS_PER_CLIENT)
                .max_batch(BATCH as usize),
        );
    let t0 = Instant::now();
    let (sim, _outcome) =
        prft_lab::run_sim(&spec, prft_lab::derive_seed(spec.base_seed, 0), |_| {});
    let wall_secs = t0.elapsed().as_secs_f64();
    WorkloadPoint {
        clients,
        rounds,
        events: sim.events_dispatched(),
        wall_secs,
        stats: prft_lab::WorkloadRunStats::collect(&sim),
    }
}

fn workload_bench(quick: bool, out: Option<&str>) -> ExitCode {
    let ns: &[usize] = if quick {
        &[100, 1000]
    } else {
        &[100, 300, 1000, 3000, 10_000]
    };
    let mut points: Vec<WorkloadPoint> = Vec::new();
    for &clients in ns {
        let p = run_workload_point(clients);
        eprintln!(
            "clients={:>6}: {:>9} events in {:>9.1}ms ({:>11.0} events/s), \
             {}/{} committed, latency p50={} p90={} p99={} ticks",
            p.clients,
            p.events,
            p.wall_secs * 1e3,
            p.events as f64 / p.wall_secs,
            p.stats.committed,
            p.stats.submitted,
            p.stats.latency.p50,
            p.stats.latency.p90,
            p.stats.latency.p99,
        );
        points.push(p);
    }
    // Check 1 (CI greps this line): conservation at every point.
    let conserve_pass = points
        .iter()
        .all(|p| p.stats.submitted == p.stats.committed + p.stats.dropped + p.stats.pending);
    eprintln!(
        "check: submitted == committed + dropped + pending at every point ({})",
        if conserve_pass { "PASS" } else { "FAIL" }
    );
    // Check 2: the largest population commits its whole offered load —
    // the round budget is sized for it, so leftovers mean a regression in
    // batching, retries, or the client path.
    let largest = points.last().expect("non-empty sweep");
    let drain_pass = largest.stats.committed == largest.stats.submitted;
    eprintln!(
        "check: clients={} committed {}/{} of offered load ({})",
        largest.clients,
        largest.stats.committed,
        largest.stats.submitted,
        if drain_pass { "PASS" } else { "FAIL" }
    );

    let doc = Json::obj([
        ("bench", Json::str("workload")),
        ("quick", Json::Bool(quick)),
        ("committee_n", Json::u64(8)),
        ("arrival", Json::str("steady interval=50")),
        (
            "points",
            Json::Arr(
                points
                    .iter()
                    .map(|p| {
                        Json::obj([
                            ("clients", Json::u64(p.clients as u64)),
                            ("rounds", Json::u64(p.rounds)),
                            ("events", Json::u64(p.events)),
                            ("wall_ms", Json::Num(p.wall_secs * 1e3)),
                            ("events_per_sec", Json::Num(p.events as f64 / p.wall_secs)),
                            ("submitted", Json::u64(p.stats.submitted)),
                            ("committed", Json::u64(p.stats.committed)),
                            ("dropped", Json::u64(p.stats.dropped)),
                            ("pending", Json::u64(p.stats.pending)),
                            ("retries", Json::u64(p.stats.retries)),
                            ("latency_p50", Json::u64(p.stats.latency.p50)),
                            ("latency_p90", Json::u64(p.stats.latency.p90)),
                            ("latency_p99", Json::u64(p.stats.latency.p99)),
                            ("latency_max", Json::u64(p.stats.latency.max)),
                            (
                                "mempool_peak_occupancy",
                                Json::u64(p.stats.mempool_peak_occupancy),
                            ),
                        ])
                    })
                    .collect(),
            ),
        ),
        ("conservation_pass", Json::Bool(conserve_pass)),
        (
            "drain_check",
            Json::obj([
                ("clients", Json::u64(largest.clients as u64)),
                ("committed", Json::u64(largest.stats.committed)),
                ("submitted", Json::u64(largest.stats.submitted)),
                ("pass", Json::Bool(drain_pass)),
            ]),
        ),
    ]);
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
    if conserve_pass && drain_pass {
        ExitCode::SUCCESS
    } else {
        ExitCode::FAILURE
    }
}

/// One late-divergence grid of the checkpoint bench: cells sharing a
/// long identical prefix, each diverging at a different tick near the
/// horizon (plus one cell that never diverges and forks at the horizon
/// pseudo-boundary).
struct CheckpointGrid {
    name: &'static str,
    specs: Vec<prft_lab::ScenarioSpec>,
    /// Divergence tick per cell (`None` for the never-diverging tail).
    ticks: Vec<Option<u64>>,
}

/// Round cadence for the checkpoint grids: Δ = 100 keeps an unbounded-
/// round n = 8 committee busy (but not event-dense) all the way to the
/// horizon, so prefix ticks translate into real simulation work.
const CHECKPOINT_DELTA: u64 = 100;

/// A busy-to-the-horizon checkpoint cell: the round budget is never
/// reached, so activity is horizon-bound.
fn checkpoint_cell(label: String, seed: u64, horizon: u64) -> prft_lab::ScenarioSpec {
    prft_lab::ScenarioSpec::new(label, 8, u64::MAX / 2)
        .base_seed(seed)
        .synchrony(prft_lab::Synchrony::Synchronous {
            delta: CHECKPOINT_DELTA,
        })
        .horizon(horizon)
}

/// The crash-divergence grid: one crash landing at `t` per cell (plus a
/// crash-free tail cell). Every cell's prefix below its own divergence
/// tick is empty, so cell k forks from cell k−1's capture and simulates
/// only its final slice.
fn crash_grid(horizon: u64, ticks: &[u64]) -> CheckpointGrid {
    use prft_lab::TimelineEvent;
    let mut specs: Vec<prft_lab::ScenarioSpec> = ticks
        .iter()
        .map(|&t| {
            checkpoint_cell(format!("crash@{t}"), 0xc4e2, horizon).at(t, TimelineEvent::Crash(7))
        })
        .collect();
    specs.push(checkpoint_cell(
        "no-divergence".to_string(),
        0xc4e2,
        horizon,
    ));
    CheckpointGrid {
        name: "crash-divergence",
        specs,
        ticks: ticks.iter().map(|&t| Some(t)).chain([None]).collect(),
    }
}

/// Tick every delay-divergence cell lifts its shared delay rule at: late
/// enough that forks across the live rule do real replay work, early
/// enough to leave a long shared suffix past it.
const DELAY_LIFT_TICK: u64 = 60_000;

/// The delay-divergence grid: every cell installs the same targeted
/// delay rule at t = 0 and lifts it at [`DELAY_LIFT_TICK`], then
/// diverges with a crash near the horizon (one cell never does). Forks
/// here cross a live delay rule, so the bench also times the
/// delay-replay path the equivalence suite pins for correctness — and
/// because the shared schedule ends at the lift, the crash cells can
/// only fork deep via **suffix captures**: the lift-only cell runs
/// first and captures at the hinted crash ticks, far past its own last
/// event.
fn delay_grid(horizon: u64, ticks: &[u64]) -> CheckpointGrid {
    use prft_lab::TimelineEvent;
    let base = |label: String| {
        checkpoint_cell(label, 0xde1a, horizon)
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
                DELAY_LIFT_TICK,
                TimelineEvent::RemoveDelayRule {
                    from: Some(0),
                    to: None,
                },
            )
    };
    let mut specs = vec![base("lift-only".to_string())];
    specs.extend(
        ticks
            .iter()
            .map(|&t| base(format!("crash@{t}")).at(t, TimelineEvent::Crash(7))),
    );
    CheckpointGrid {
        name: "delay-divergence",
        specs,
        ticks: [None]
            .into_iter()
            .chain(ticks.iter().map(|&t| Some(t)))
            .collect(),
    }
}

/// The workload-divergence grid: every cell drives the same open-loop
/// client population against the committee and diverges with a crash
/// near the horizon (plus a crash-free tail cell) — the workload twin of
/// the crash grid, checkpointing clients' in-flight/retry state along
/// with the committee.
fn workload_grid(horizon: u64, ticks: &[u64]) -> CheckpointGrid {
    use prft_lab::TimelineEvent;
    let base = |label: String| {
        checkpoint_cell(label, 0x10adc, horizon).workload(
            prft_lab::WorkloadSpec::steady(30, 150)
                .txs_per_client(4)
                .max_batch(256),
        )
    };
    let mut specs: Vec<prft_lab::ScenarioSpec> = ticks
        .iter()
        .map(|&t| base(format!("crash@{t}")).at(t, TimelineEvent::Crash(7)))
        .collect();
    specs.push(base("no-divergence".to_string()));
    CheckpointGrid {
        name: "workload-divergence",
        specs,
        ticks: ticks.iter().map(|&t| Some(t)).chain([None]).collect(),
    }
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
    specs: &[prft_lab::ScenarioSpec],
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

fn checkpoint_bench(quick: bool, repeats: u32, out: Option<&str>) -> ExitCode {
    // Both modes share the horizon, so per-cell event counts are directly
    // comparable across quick and full runs (`prft-bench diff` relies on
    // that); quick just drops the middle divergence points.
    const HORIZON: u64 = 120_000;
    let divergence_ticks: &[u64] = if quick {
        &[100_000, 110_000, 115_000]
    } else {
        &[100_000, 105_000, 110_000, 115_000]
    };
    let grids = vec![
        measure_checkpoint_grid(crash_grid(HORIZON, divergence_ticks), repeats),
        measure_checkpoint_grid(delay_grid(HORIZON, divergence_ticks), repeats),
        measure_checkpoint_grid(workload_grid(HORIZON, divergence_ticks), repeats),
    ];
    let mut best_speedup = 0.0f64;
    for r in &grids {
        let cells = r.grid.specs.len() as f64;
        let speedup = r.cold_wall / r.warm_wall;
        best_speedup = best_speedup.max(speedup);
        eprintln!(
            "{}: {} cells, cold {:>7.1}ms ({:.1} cells/s), warm {:>7.1}ms ({:.1} cells/s), \
             {:.2}x — {} captured, {} forked, {} prefix ticks saved",
            r.grid.name,
            r.grid.specs.len(),
            r.cold_wall * 1e3,
            cells / r.cold_wall,
            r.warm_wall * 1e3,
            cells / r.warm_wall,
            speedup,
            r.reuse.created,
            r.reuse.forked,
            r.reuse.prefix_ticks_saved,
        );
    }
    // Check 1 (CI greps this line): forking must be invisible — warm and
    // cold records byte-equal at every cell of every grid.
    let identical = grids.iter().all(|r| r.identical);
    eprintln!(
        "check: warm records identical to cold at every cell ({})",
        if identical { "PASS" } else { "FAIL" }
    );
    // Check 2: at least one grid must clear 2x cells/sec warm over cold —
    // the acceptance bar for the warm-start machinery paying for itself.
    let speedup_pass = best_speedup >= 2.0;
    eprintln!(
        "check: best grid warm/cold = {best_speedup:.2}x >= 2.00x ({})",
        if speedup_pass { "PASS" } else { "FAIL" }
    );

    let doc = Json::obj([
        ("bench", Json::str("checkpoint")),
        ("quick", Json::Bool(quick)),
        ("repeats", Json::u64(repeats as u64)),
        ("committee_n", Json::u64(8)),
        ("horizon", Json::u64(HORIZON)),
        (
            "grids",
            Json::Arr(
                grids
                    .iter()
                    .map(|r| {
                        let cells = r.grid.specs.len() as f64;
                        Json::obj([
                            ("name", Json::str(r.grid.name)),
                            (
                                "cells",
                                Json::Arr(
                                    r.grid
                                        .specs
                                        .iter()
                                        .zip(&r.grid.ticks)
                                        .zip(&r.records)
                                        .map(|((spec, tick), record)| {
                                            Json::obj([
                                                ("label", Json::str(spec.label.clone())),
                                                (
                                                    "divergence_tick",
                                                    match tick {
                                                        Some(t) => Json::u64(*t),
                                                        None => Json::Null,
                                                    },
                                                ),
                                                (
                                                    "events_dispatched",
                                                    Json::u64(record.events_dispatched),
                                                ),
                                            ])
                                        })
                                        .collect(),
                                ),
                            ),
                            ("cold_wall_ms", Json::Num(r.cold_wall * 1e3)),
                            ("warm_wall_ms", Json::Num(r.warm_wall * 1e3)),
                            ("cells_per_sec_cold", Json::Num(cells / r.cold_wall)),
                            ("cells_per_sec_warm", Json::Num(cells / r.warm_wall)),
                            ("warm_over_cold", Json::Num(r.cold_wall / r.warm_wall)),
                            (
                                "reuse",
                                Json::obj([
                                    ("created", Json::u64(r.reuse.created)),
                                    ("forked", Json::u64(r.reuse.forked)),
                                    ("prefix_ticks_saved", Json::u64(r.reuse.prefix_ticks_saved)),
                                ]),
                            ),
                            ("identical", Json::Bool(r.identical)),
                        ])
                    })
                    .collect(),
            ),
        ),
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
    if identical && speedup_pass {
        ExitCode::SUCCESS
    } else {
        ExitCode::FAILURE
    }
}

/// Field access helpers over the hand-rolled [`Json`] model (no serde in
/// the build environment, so the diff reads documents through these).
mod jx {
    use prft_lab::json::Json;

    pub fn get<'a>(j: &'a Json, key: &str) -> Option<&'a Json> {
        match j {
            Json::Obj(pairs) => pairs.iter().find(|(k, _)| k == key).map(|(_, v)| v),
            _ => None,
        }
    }

    pub fn arr(j: &Json) -> &[Json] {
        match j {
            Json::Arr(items) => items,
            _ => &[],
        }
    }

    pub fn u64_at(j: &Json, key: &str) -> Option<u64> {
        match get(j, key)? {
            Json::UInt(v) => Some(*v),
            _ => None,
        }
    }

    pub fn f64_at(j: &Json, key: &str) -> Option<f64> {
        match get(j, key)? {
            Json::Num(v) => Some(*v),
            Json::UInt(v) => Some(*v as f64),
            _ => None,
        }
    }

    pub fn str_at<'a>(j: &'a Json, key: &str) -> Option<&'a str> {
        match get(j, key)? {
            Json::Str(s) => Some(s),
            _ => None,
        }
    }

    pub fn bool_at(j: &Json, key: &str) -> Option<bool> {
        match get(j, key)? {
            Json::Bool(b) => Some(*b),
            _ => None,
        }
    }
}

/// Accumulates diff verdicts: every failed check prints its own line, and
/// one failure fails the run.
struct DiffChecks {
    failures: u32,
    checks: u32,
}

impl DiffChecks {
    fn new() -> Self {
        DiffChecks {
            failures: 0,
            checks: 0,
        }
    }

    /// Records one check; prints the line with a PASS/FAIL suffix.
    fn check(&mut self, pass: bool, line: String) {
        self.checks += 1;
        if !pass {
            self.failures += 1;
        }
        eprintln!("diff: {line} ({})", if pass { "PASS" } else { "FAIL" });
    }
}

/// `queue` regression rule: at every committee size both documents swept,
/// the calendar/heap throughput ratio must not have regressed by more
/// than the tolerance (wall-clock ratios jitter; the event counts backing
/// them are asserted equal by the bench itself).
fn diff_queue(current: &Json, baseline: &Json, tol: f64, checks: &mut DiffChecks) {
    for base_point in jx::arr(jx::get(baseline, "speedup").unwrap_or(&Json::Null)) {
        let Some(n) = jx::u64_at(base_point, "n") else {
            continue;
        };
        let Some(base_ratio) = jx::f64_at(base_point, "calendar_over_heap") else {
            continue;
        };
        let cur_ratio = jx::arr(jx::get(current, "speedup").unwrap_or(&Json::Null))
            .iter()
            .find(|p| jx::u64_at(p, "n") == Some(n))
            .and_then(|p| jx::f64_at(p, "calendar_over_heap"));
        let Some(cur_ratio) = cur_ratio else {
            continue; // n not in the current sweep (quick vs full)
        };
        let floor = base_ratio * (1.0 - tol);
        checks.check(
            cur_ratio >= floor,
            format!("queue n={n} calendar/heap {cur_ratio:.2} vs baseline {base_ratio:.2} (floor {floor:.2})"),
        );
    }
}

/// `profile` regression rule: the verify and memo counters are exact
/// deterministic functions of (n, accountable, rounds), so at every point
/// both documents measured they must match exactly — any drift means the
/// verification path changed behavior, not just speed.
fn diff_profile(current: &Json, baseline: &Json, checks: &mut DiffChecks) {
    for base_point in jx::arr(jx::get(baseline, "points").unwrap_or(&Json::Null)) {
        let (Some(n), Some(acc)) = (
            jx::u64_at(base_point, "n"),
            jx::bool_at(base_point, "accountable"),
        ) else {
            continue;
        };
        let cur_point = jx::arr(jx::get(current, "points").unwrap_or(&Json::Null))
            .iter()
            .find(|p| jx::u64_at(p, "n") == Some(n) && jx::bool_at(p, "accountable") == Some(acc));
        let Some(cur_point) = cur_point else {
            continue;
        };
        for field in ["sig_verifies", "verify.memo_miss", "events_dispatched"] {
            let base_v = jx::u64_at(base_point, field);
            let cur_v = jx::u64_at(cur_point, field);
            checks.check(
                cur_v == base_v,
                format!(
                    "profile n={n} acc={acc} {field} {} vs baseline {}",
                    cur_v.map_or("missing".into(), |v| v.to_string()),
                    base_v.map_or("missing".into(), |v| v.to_string()),
                ),
            );
        }
    }
    checks.check(
        jx::bool_at(current, "memo_identity_pass") == Some(true),
        "profile memo identity (hits + misses == verifies) holds".to_string(),
    );
}

/// `workload` regression rule: the client pipeline is fully deterministic,
/// so conservation counters and latency percentiles must match exactly at
/// every population both documents swept.
fn diff_workload(current: &Json, baseline: &Json, checks: &mut DiffChecks) {
    const FIELDS: [&str; 8] = [
        "submitted",
        "committed",
        "dropped",
        "pending",
        "retries",
        "latency_p50",
        "latency_p90",
        "latency_p99",
    ];
    for base_point in jx::arr(jx::get(baseline, "points").unwrap_or(&Json::Null)) {
        let Some(clients) = jx::u64_at(base_point, "clients") else {
            continue;
        };
        let cur_point = jx::arr(jx::get(current, "points").unwrap_or(&Json::Null))
            .iter()
            .find(|p| jx::u64_at(p, "clients") == Some(clients));
        let Some(cur_point) = cur_point else {
            continue;
        };
        for field in FIELDS {
            let base_v = jx::u64_at(base_point, field);
            let cur_v = jx::u64_at(cur_point, field);
            checks.check(
                cur_v == base_v,
                format!(
                    "workload clients={clients} {field} {} vs baseline {}",
                    cur_v.map_or("missing".into(), |v| v.to_string()),
                    base_v.map_or("missing".into(), |v| v.to_string()),
                ),
            );
        }
    }
}

/// `checkpoint` regression rule: per-cell event counts are deterministic
/// (quick and full share the horizon, so common cells compare exactly);
/// the warm/cold speedup is wall-clock and gets the tolerance band, and
/// the fork-identity flag must hold in the current run.
fn diff_checkpoint(current: &Json, baseline: &Json, tol: f64, checks: &mut DiffChecks) {
    for base_grid in jx::arr(jx::get(baseline, "grids").unwrap_or(&Json::Null)) {
        let Some(name) = jx::str_at(base_grid, "name") else {
            continue;
        };
        let cur_grid = jx::arr(jx::get(current, "grids").unwrap_or(&Json::Null))
            .iter()
            .find(|g| jx::str_at(g, "name") == Some(name));
        let Some(cur_grid) = cur_grid else {
            continue;
        };
        for base_cell in jx::arr(jx::get(base_grid, "cells").unwrap_or(&Json::Null)) {
            let Some(label) = jx::str_at(base_cell, "label") else {
                continue;
            };
            let cur_cell = jx::arr(jx::get(cur_grid, "cells").unwrap_or(&Json::Null))
                .iter()
                .find(|c| jx::str_at(c, "label") == Some(label));
            let Some(cur_cell) = cur_cell else {
                continue; // cell not in the current sweep (quick vs full)
            };
            let base_v = jx::u64_at(base_cell, "events_dispatched");
            let cur_v = jx::u64_at(cur_cell, "events_dispatched");
            checks.check(
                cur_v == base_v,
                format!(
                    "checkpoint {name}/{label} events_dispatched {} vs baseline {}",
                    cur_v.map_or("missing".into(), |v| v.to_string()),
                    base_v.map_or("missing".into(), |v| v.to_string()),
                ),
            );
        }
        if let (Some(base_speedup), Some(cur_speedup)) = (
            jx::f64_at(base_grid, "warm_over_cold"),
            jx::f64_at(cur_grid, "warm_over_cold"),
        ) {
            let floor = base_speedup * (1.0 - tol);
            checks.check(
                cur_speedup >= floor,
                format!(
                    "checkpoint {name} warm/cold {cur_speedup:.2}x vs baseline \
                     {base_speedup:.2}x (floor {floor:.2}x)"
                ),
            );
        }
    }
    checks.check(
        jx::bool_at(current, "identity_pass") == Some(true),
        "checkpoint warm records identical to cold".to_string(),
    );
}

/// `prft-bench diff <current> <baseline> [--tolerance F]`: regression
/// gate over two bench documents of the same kind.
fn diff_bench(current_path: &str, baseline_path: &str, tol: f64) -> ExitCode {
    let load = |path: &str| -> Result<Json, String> {
        let text = std::fs::read_to_string(path).map_err(|e| format!("reading {path}: {e}"))?;
        Json::parse(&text).map_err(|e| format!("{path}: {e}"))
    };
    let (current, baseline) = match (load(current_path), load(baseline_path)) {
        (Ok(c), Ok(b)) => (c, b),
        (Err(e), _) | (_, Err(e)) => {
            eprintln!("error: {e}");
            return ExitCode::FAILURE;
        }
    };
    let (cur_kind, base_kind) = (
        jx::str_at(&current, "bench").unwrap_or("?"),
        jx::str_at(&baseline, "bench").unwrap_or("?"),
    );
    if cur_kind != base_kind {
        eprintln!("error: bench kinds differ: {cur_kind} vs {base_kind}");
        return ExitCode::FAILURE;
    }
    let mut checks = DiffChecks::new();
    match cur_kind {
        "queue" => diff_queue(&current, &baseline, tol, &mut checks),
        "profile" => diff_profile(&current, &baseline, &mut checks),
        "workload" => diff_workload(&current, &baseline, &mut checks),
        "checkpoint" => diff_checkpoint(&current, &baseline, tol, &mut checks),
        other => {
            eprintln!("error: unknown bench kind: {other}");
            return ExitCode::FAILURE;
        }
    }
    eprintln!(
        "diff: {} of {} check(s) failed ({cur_kind}, tolerance {tol}, {current_path} vs \
         {baseline_path})",
        checks.failures, checks.checks
    );
    if checks.failures == 0 && checks.checks > 0 {
        ExitCode::SUCCESS
    } else {
        ExitCode::FAILURE
    }
}

fn usage() -> ExitCode {
    eprintln!(
        "usage: prft-bench queue [--quick] [--out FILE] [--repeats R]\n\
         \x20      prft-bench profile [--quick] [--out FILE]\n\
         \x20      prft-bench workload [--quick] [--out FILE]\n\
         \x20      prft-bench checkpoint [--quick] [--out FILE] [--repeats R]\n\
         \x20      prft-bench diff <current.json> <baseline.json> [--tolerance F]\n\
         \n\
         queue: sweeps committee sizes × event-queue backends over a\n\
         queue-bound flood workload and emits a BENCH_queue.json document\n\
         (schema: docs/PERFORMANCE.md). Exits non-zero if the calendar\n\
         backend is slower than the heap reference at the largest swept n.\n\
         \n\
         profile: runs honest pRFT committees (accountable × plain,\n\
         n = 16, 64, 128, 256, 512) and emits a BENCH_profile.json\n\
         document of logical verify counts, memo hits/misses, clone\n\
         bytes, and wall time per point (schema: docs/OBSERVABILITY.md).\n\
         Build with --features profiling to add per-scope wall-clock\n\
         timers. Exits non-zero if the logical verify count drifts >10%\n\
         from the analytic model, the hashed count (verify.memo_miss)\n\
         drifts >0.1% from the distinct-content model, memo hits + misses\n\
         != sig verifies anywhere, or (--quick) the accountable n = 128\n\
         point blows its wall-clock budget.\n\
         \n\
         workload: sweeps open-loop client populations (n = 100 … 10000)\n\
         against an 8-replica committee and emits a BENCH_workload.json\n\
         document of events/sec and commit-latency percentiles per point\n\
         (schema: docs/WORKLOAD.md). Exits non-zero if any point leaks\n\
         transactions or the largest population fails to commit its\n\
         offered load.\n\
         \n\
         checkpoint: measures checkpoint/fork warm starts on three\n\
         late-divergence grids — crash, delay with a late crash, and\n\
         open-loop workload (cells sharing a long prefix, diverging\n\
         near the horizon) — cold vs warm at one thread, and emits a\n\
         BENCH_checkpoint.json document of per-cell event counts, walls,\n\
         reuse accounting, and warm/cold speedup (schema:\n\
         docs/CHECKPOINTING.md). Exits non-zero if warm records differ\n\
         from cold anywhere or no grid reaches 2x cells/sec warm/cold.\n\
         \n\
         diff: compares a fresh bench JSON against a committed baseline\n\
         (BENCH_*.json): deterministic counters must match exactly at\n\
         every point both documents measured; wall-clock ratios (queue\n\
         calendar/heap, checkpoint warm/cold) must stay within the\n\
         tolerance of the baseline. Exits non-zero on any regression.\n\
         \n\
         options:\n\
         \x20 --quick        small sweep for CI smoke (queue: n = 16, 128;\n\
         \x20                profile: n = 8, 16, 128; workload: 100, 1000;\n\
         \x20                checkpoint: fewer divergence points, same\n\
         \x20                horizon)\n\
         \x20 --out FILE     write the JSON to FILE instead of stdout\n\
         \x20 --repeats R    best-of-R wall times per point (queue and\n\
         \x20                checkpoint, default 3)\n\
         \x20 --tolerance F  relative regression band for wall-clock\n\
         \x20                ratios in diff (default 0.35)"
    );
    ExitCode::from(2)
}

fn main() -> ExitCode {
    let args: Vec<String> = std::env::args().skip(1).collect();
    let Some(command) = args.first() else {
        return usage();
    };
    match command.as_str() {
        "queue" => {
            let mut quick = false;
            let mut out: Option<String> = None;
            let mut repeats = 3u32;
            let mut it = args[1..].iter();
            while let Some(arg) = it.next() {
                match arg.as_str() {
                    "--quick" => quick = true,
                    "--out" => match it.next() {
                        Some(path) => out = Some(path.clone()),
                        None => return usage(),
                    },
                    "--repeats" => match it.next().and_then(|r| r.parse().ok()) {
                        Some(r) if r > 0 => repeats = r,
                        _ => return usage(),
                    },
                    _ => return usage(),
                }
            }
            queue_bench(quick, repeats, out.as_deref())
        }
        "profile" => {
            let mut quick = false;
            let mut out: Option<String> = None;
            let mut it = args[1..].iter();
            while let Some(arg) = it.next() {
                match arg.as_str() {
                    "--quick" => quick = true,
                    "--out" => match it.next() {
                        Some(path) => out = Some(path.clone()),
                        None => return usage(),
                    },
                    _ => return usage(),
                }
            }
            profile_bench(quick, out.as_deref())
        }
        "workload" => {
            let mut quick = false;
            let mut out: Option<String> = None;
            let mut it = args[1..].iter();
            while let Some(arg) = it.next() {
                match arg.as_str() {
                    "--quick" => quick = true,
                    "--out" => match it.next() {
                        Some(path) => out = Some(path.clone()),
                        None => return usage(),
                    },
                    _ => return usage(),
                }
            }
            workload_bench(quick, out.as_deref())
        }
        "checkpoint" => {
            let mut quick = false;
            let mut out: Option<String> = None;
            let mut repeats = 3u32;
            let mut it = args[1..].iter();
            while let Some(arg) = it.next() {
                match arg.as_str() {
                    "--quick" => quick = true,
                    "--out" => match it.next() {
                        Some(path) => out = Some(path.clone()),
                        None => return usage(),
                    },
                    "--repeats" => match it.next().and_then(|r| r.parse().ok()) {
                        Some(r) if r > 0 => repeats = r,
                        _ => return usage(),
                    },
                    _ => return usage(),
                }
            }
            checkpoint_bench(quick, repeats, out.as_deref())
        }
        "diff" => {
            let (Some(current), Some(baseline)) = (args.get(1), args.get(2)) else {
                return usage();
            };
            let mut tol = 0.35f64;
            let mut it = args[3..].iter();
            while let Some(arg) = it.next() {
                match arg.as_str() {
                    "--tolerance" => match it.next().and_then(|t| t.parse().ok()) {
                        Some(t) if (0.0..1.0).contains(&t) => tol = t,
                        _ => return usage(),
                    },
                    _ => return usage(),
                }
            }
            diff_bench(current, baseline, tol)
        }
        "--help" | "-h" | "help" => {
            usage();
            ExitCode::SUCCESS
        }
        _ => usage(),
    }
}
