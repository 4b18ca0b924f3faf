//! The paper's claims as one table (`prft-lab claims`).
//!
//! Every theorem, table, claim and figure the repo reproduces is one
//! [`Claim`] row of [`CLAIMS`]: what it drives (a registered scenario, a
//! registered game, or a private spec / direct call) and an `eval` that
//! runs it through the one batch engine and returns [`Check`]s — a named
//! predicate with the verdict the paper expects (`holds` or `breaks`),
//! the verdict observed, and the numbers behind it. Specs, seeds and seed
//! counts are constants of the row, so the whole document is a pure
//! function of the code: the committed `CLAIMS.json` is regenerated and
//! `cmp`-ed by CI at two thread counts, and `prft-lab claims` exits
//! non-zero iff some check's observed verdict differs from its expected
//! one. Tolerances and directions live in the row that uses them.

use crate::build::{replica, run_one, run_sim, summarize};
use crate::explore::{Exploration, GameExplorer};
use crate::games::{find_game, trap_game, trap_play};
use crate::json::Json;
use crate::record::{BatchReport, RunRecord};
use crate::registry::find;
use crate::runner::{derive_seed, BatchRunner};
use crate::spec::{PartitionSpec, Role, ScenarioSpec, Synchrony};
use prft_baselines::{bracha, hotstuff, pbft, raft_lite, sync_ba};
use prft_core::analysis::analyze;
use prft_core::{construct_proof, signed_ballot, verify_expose, KeyRegistry, Phase, SignedBallot};
use prft_game::{
    analytic, PayoffTable, ProfileSpace, SystemState, Theta, UtilityParams, UtilityTable,
};
use prft_metrics::{fit_power_law, AsciiTable};
use prft_net::{AsynchronousNet, PartiallySynchronousNet, SynchronousNet};
use prft_sim::{LinkModel, Node, SimRng, SimTime, Simulation};
use prft_types::{BlockStatus, Digest, NodeId, Round};
use std::collections::{BTreeMap, BTreeSet};
use Expect::{Breaks, Holds};

/// The verdict a check's predicate is expected (or observed) to have.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum Expect {
    /// The predicate is true of the run.
    Holds,
    /// The predicate is false of the run — the expected verdict outside a
    /// bound the paper proves tight.
    Breaks,
}

impl Expect {
    fn of(holds: bool) -> Expect {
        if holds {
            Holds
        } else {
            Breaks
        }
    }

    /// `"holds"` / `"breaks"`, as the document spells it.
    pub fn as_str(self) -> &'static str {
        match self {
            Holds => "holds",
            Breaks => "breaks",
        }
    }
}

/// One named predicate of a claim, evaluated.
#[derive(Debug, Clone)]
pub struct Check {
    /// What was asked, unique within its claim.
    pub name: String,
    /// The verdict the paper predicts.
    pub expected: Expect,
    /// Whether the predicate held in the run.
    pub observed: bool,
    /// The numbers and labels the verdict was read from.
    pub evidence: Vec<(String, Json)>,
}

impl Check {
    /// Whether the observed verdict is the expected one.
    pub fn agrees(&self) -> bool {
        Expect::of(self.observed) == self.expected
    }

    /// The evidence as `key=value, …`, values rendered as JSON.
    pub fn evidence_text(&self) -> String {
        let pairs = self
            .evidence
            .iter()
            .map(|(k, v)| format!("{k}={}", v.render()));
        pairs.collect::<Vec<_>>().join(", ")
    }
}

/// What a claim's evaluation drives.
#[derive(Debug, Clone, Copy)]
pub enum Drives {
    /// A scenario of [`crate::registry`].
    Scenario(&'static str),
    /// A game of [`crate::game_registry`].
    Game(&'static str),
    /// Private specs or a direct library call, described.
    Direct(&'static str),
}

/// One row of the claims table.
pub struct Claim {
    /// Short id (`prft-lab claims <id>`).
    pub id: &'static str,
    /// The statement in the paper.
    pub paper: &'static str,
    /// The registered scenario or game behind it, if any.
    pub drives: Drives,
    /// Evaluates the row's checks, fanning runs through the given pool.
    pub eval: fn(&BatchRunner) -> Vec<Check>,
}

/// Every claim of the paper the repo reproduces, in document order.
#[rustfmt::skip]
pub const CLAIMS: &[Claim] = &[
    Claim { id: "thm1", paper: "Theorem 1", drives: Drives::Scenario("liveness-attack"), eval: thm1 },
    Claim { id: "thm2", paper: "Theorem 2", drives: Drives::Scenario("censorship-attack"), eval: thm2 },
    Claim { id: "thm3", paper: "Theorem 3", drives: Drives::Direct("closed-form TRAP game, k = 1..3"), eval: thm3 },
    Claim { id: "lemma4", paper: "Lemma 4 / Theorem 5", drives: Drives::Game("lemma4-dsic"), eval: lemma4 },
    Claim { id: "table1", paper: "Table 1", drives: Drives::Direct("baseline protocols and pRFT inside/outside each bound"), eval: table1 },
    Claim { id: "table2", paper: "Table 2", drives: Drives::Game("table2-sigma"), eval: table2 },
    Claim { id: "table3", paper: "Table 3", drives: Drives::Scenario("committee-scaling"), eval: table3 },
    Claim { id: "claim1", paper: "Claim 1", drives: Drives::Direct("liveness and safety probes per τ"), eval: claim1 },
    Claim { id: "claim2", paper: "Claim 2", drives: Drives::Scenario("view-change-churn"), eval: claim2 },
    Claim { id: "claim3", paper: "Claim 3", drives: Drives::Direct("random partitions of P∖T"), eval: claim3 },
    Claim { id: "fig2", paper: "Figure 2", drives: Drives::Direct("one honest n = 4 round"), eval: fig2 },
    Claim { id: "fig4", paper: "Figure 4", drives: Drives::Direct("ConstructProof on adversarial commit matrices"), eval: fig4 },
    Claim { id: "ablation", paper: "Accountability ablation", drives: Drives::Scenario("ablation-accountability"), eval: ablation },
];

/// Evaluates the rows named by `ids` (all of them when empty), in table
/// order.
pub fn evaluate(
    runner: &BatchRunner,
    ids: &[String],
) -> Result<Vec<(&'static Claim, Vec<Check>)>, String> {
    if let Some(unknown) = ids.iter().find(|id| CLAIMS.iter().all(|c| c.id != **id)) {
        let known: Vec<&str> = CLAIMS.iter().map(|c| c.id).collect();
        return Err(format!(
            "unknown claim: {unknown} (known: {})",
            known.join(" ")
        ));
    }
    Ok(CLAIMS
        .iter()
        .filter(|c| ids.is_empty() || ids.iter().any(|id| id == c.id))
        .map(|c| (c, (c.eval)(runner)))
        .collect())
}

/// Every check that disagrees with its expected verdict, beside its claim.
pub fn mismatches<'a>(
    results: &'a [(&'a Claim, Vec<Check>)],
) -> impl Iterator<Item = (&'a Claim, &'a Check)> + 'a {
    let checks = results
        .iter()
        .flat_map(|(claim, checks)| checks.iter().map(move |c| (*claim, c)));
    checks.filter(|(_, c)| !c.agrees())
}

/// The claims document (`CLAIMS.json`): no wall-clock field, so equal
/// code renders equal bytes.
pub fn to_json(results: &[(&Claim, Vec<Check>)]) -> Json {
    let claim_json = |(claim, checks): &(&Claim, Vec<Check>)| {
        let (kind, what) = match claim.drives {
            Drives::Scenario(name) => ("scenario", name),
            Drives::Game(name) => ("game", name),
            Drives::Direct(what) => ("direct", what),
        };
        let check_json = |c: &Check| {
            Json::obj([
                ("name", Json::str(&c.name)),
                ("expected", Json::str(c.expected.as_str())),
                ("observed", Json::str(Expect::of(c.observed).as_str())),
                ("evidence", Json::Obj(c.evidence.clone())),
            ])
        };
        Json::obj([
            ("id", Json::str(claim.id)),
            ("paper", Json::str(claim.paper)),
            ("drives", Json::obj([(kind, Json::str(what))])),
            ("checks", Json::Arr(checks.iter().map(check_json).collect())),
        ])
    };
    let claims = Json::Arr(results.iter().map(claim_json).collect());
    Json::obj([("schema", Json::str("prft-claims/v1")), ("claims", claims)])
}

/// The one human rendering: claim · check · expected · observed · evidence.
pub fn table(results: &[(&Claim, Vec<Check>)]) -> String {
    let mut table = AsciiTable::new(vec!["claim", "check", "expected", "observed", "evidence"]);
    for (claim, c) in results
        .iter()
        .flat_map(|(claim, checks)| checks.iter().map(move |c| (claim, c)))
    {
        let mark = if c.agrees() { "" } else { " ✗ MISMATCH" };
        table.row(vec![
            format!("{} ({})", claim.id, claim.paper),
            c.name.clone(),
            c.expected.as_str().into(),
            format!("{}{mark}", Expect::of(c.observed).as_str()),
            c.evidence_text(),
        ]);
    }
    let (total, wrong) = (table.len(), mismatches(results).count());
    format!(
        "{}\n{total} checks, {wrong} disagree with the paper\n",
        table.render()
    )
}

// ---- shared helpers ----

fn check(
    name: impl Into<String>,
    expected: Expect,
    observed: bool,
    evidence: Vec<(&str, Json)>,
) -> Check {
    let evidence = evidence
        .into_iter()
        .map(|(k, v)| (k.to_string(), v))
        .collect();
    Check {
        name: name.into(),
        expected,
        observed,
        evidence,
    }
}

fn holds(name: impl Into<String>, observed: bool, evidence: Vec<(&str, Json)>) -> Check {
    check(name, Holds, observed, evidence)
}

fn breaks(name: impl Into<String>, observed: bool, evidence: Vec<(&str, Json)>) -> Check {
    check(name, Breaks, observed, evidence)
}

fn num(v: f64) -> Json {
    Json::Num(v)
}

fn int(v: usize) -> Json {
    Json::UInt(v as u64)
}

fn flag(v: bool) -> Json {
    Json::Bool(v)
}

/// Rounds a value that passed through `ln` to 1e-6, so the committed
/// document does not hinge on libm's last bit.
fn round6(v: f64) -> f64 {
    (v * 1e6).round() / 1e6
}

/// The check every row that drives pRFT runs ends with: each of its `runs`
/// kept every [`crate::INVARIANTS`] row that applies to it; `breaches`
/// names the rows it broke ([`RunRecord::breaches`]).
fn invariants_kept(runs: u64, breaches: Vec<String>) -> Check {
    holds(
        "every run kept every applicable invariant",
        breaches.is_empty(),
        vec![
            ("runs", Json::u64(runs)),
            (
                "breaches",
                Json::Arr(breaches.iter().map(Json::str).collect()),
            ),
        ],
    )
}

/// [`invariants_kept`] over every run of `reports`.
fn reports_kept(reports: &[BatchReport]) -> Check {
    let runs = reports.iter().map(|r| r.seeds).sum();
    invariants_kept(
        runs,
        reports.iter().flat_map(BatchReport::breaches).collect(),
    )
}

/// [`invariants_kept`] over single runs, each beside its spec.
fn records_kept<'a>(runs: impl IntoIterator<Item = (&'a ScenarioSpec, &'a RunRecord)>) -> Check {
    let runs: Vec<_> = runs.into_iter().collect();
    let breaches = runs.iter().flat_map(|(spec, r)| r.breaches(&spec.label));
    invariants_kept(runs.len() as u64, breaches.collect())
}

/// [`invariants_kept`] over the runs a game sweep simulated.
fn explored_kept(exploration: &Exploration) -> Check {
    let runs = exploration.evaluated as u64 * exploration.seeds;
    invariants_kept(runs, exploration.breaches.clone())
}

fn scenario_specs(name: &str) -> Vec<ScenarioSpec> {
    find(name).expect("claims name registered scenarios").specs
}

/// The integer after `prefix` in a grid-point label (`k+t=4` → 4).
fn label_value(label: &str, prefix: &str) -> usize {
    let value = label.trim_start_matches(prefix);
    value.parse().expect("grid labels end in their sweep value")
}

fn psync(gst: u64) -> Box<dyn LinkModel> {
    Box::new(PartiallySynchronousNet::new(SimTime(gst), SimTime(10)))
}

/// The same network as `psync(2_000)`, for a pRFT spec.
const PSYNC_GST_2000: Synchrony = Synchrony::PartiallySynchronous {
    gst: 2_000,
    delta: 10,
};

fn sync_net() -> Box<dyn LinkModel> {
    Box::new(SynchronousNet::new(SimTime(10)))
}

/// Runs a baseline committee to `horizon` with its last `crashes` seats
/// crashed from the start (abstention ≡ crash for message purposes).
fn crashed_run<N: Node>(
    nodes: Vec<N>,
    net: Box<dyn LinkModel>,
    seed: u64,
    crashes: usize,
    horizon: u64,
) -> Simulation<N> {
    let n = nodes.len();
    let mut sim = Simulation::new(nodes, net, seed);
    for i in 0..crashes {
        sim.crash(NodeId(n - 1 - i));
    }
    sim.run_until(SimTime(horizon));
    sim
}

fn honest_pbft(cfg: &pbft::PbftConfig, key_seed: u64) -> Vec<pbft::PbftReplica> {
    pbft::committee(cfg, key_seed, &vec![pbft::PbftMode::Honest; cfg.n]).0
}

/// (some survivor committed ≥ 3 entries, all survivors' logs are
/// prefix-consistent).
fn live_and_consistent<T: PartialEq>(logs: &[Vec<T>]) -> (bool, bool) {
    let prefix = |a: &Vec<T>, b: &Vec<T>| a.iter().zip(b).all(|(x, y)| x == y);
    let safe = logs.iter().all(|a| logs.iter().all(|b| prefix(a, b)));
    (logs.iter().any(|l| l.len() >= 3), safe)
}

/// Messages and bytes per decided block of a synchronous honest baseline
/// run (Table 3's normal case).
fn baseline_cost<N: Node>(nodes: Vec<N>, decided: fn(&N) -> usize) -> (f64, f64) {
    let sim = crashed_run(nodes, sync_net(), 7, 0, 5_000_000);
    let decided = decided(sim.node(NodeId(0))).max(1) as f64;
    let meter = sim.meter();
    (
        meter.total_messages() as f64 / decided,
        meter.total_bytes() as f64 / decided,
    )
}

/// Messages and bytes per finalized block of one pRFT grid point.
fn report_cost(report: &BatchReport) -> (f64, f64) {
    let decided = report.agg("min_final_height").mean.max(1.0);
    (
        report.agg("total_messages").mean / decided,
        report.agg("total_bytes").mean / decided,
    )
}

// ---- Theorems ----

/// Theorem 1: for ⌈n/3⌉ ≤ k+t ≤ ⌈n/2⌉−1 a θ=3 coalition playing π_abs
/// stalls pRFT *and* pBFT, is never burned (abstention ≡ crash), and
/// earns 0 = U(π_0) < U(π_abs) ≤ α/(1−δ). An implication: rows outside
/// the regime are evidence (pRFT already stalls at k+t = 3 because
/// τ = n − t0 = 9).
fn thm1(runner: &BatchRunner) -> Vec<Check> {
    const SEEDS: u64 = 8;
    let specs = scenario_specs("liveness-attack");
    let n = specs[0].n;
    let reports = runner.run_grid(&specs, SEEDS);
    // pBFT under the same coalition: the longest survivor log, averaged.
    let pbft_blocks = runner.map(&specs, |_, spec| {
        let coalition = label_value(&spec.label, "k+t=");
        let blocks = |i| {
            let committee = honest_pbft(&pbft::PbftConfig::new(n, 6), 3);
            let seed = derive_seed(spec.base_seed, i);
            let sim = crashed_run(committee, psync(1_000), seed, coalition, 400_000);
            let logs = (0..n - coalition).map(|i| sim.node(NodeId(i)).log().len());
            logs.max().unwrap_or(0) as f64
        };
        (0..SEEDS).map(blocks).sum::<f64>() / SEEDS as f64
    });
    let params = UtilityParams::default();
    let bound = analytic::theorem1_abstain_utility(params.alpha, params.delta);
    let row = |(report, &pbft): (&BatchReport, &f64)| {
        let coalition = label_value(&report.label, "k+t=");
        let in_regime = analytic::in_impossibility_regime(n, coalition, 0);
        let (prft, burned) = (
            report.agg("min_final_height").mean,
            report.agg("burned_players").mean,
        );
        // The coalition's measured utility: its last seat, averaged.
        let u_abs = report.utilities[n - 1].mean;
        let unpunished_stall = prft == 0.0 && pbft == 0.0 && burned == 0.0;
        holds(
            format!("k+t={coalition}: in regime ⇒ both stall, nobody burned, U(π_abs) > 0"),
            !in_regime || (unpunished_stall && u_abs > 0.0 && u_abs <= bound),
            vec![
                ("in_regime", flag(in_regime)),
                ("prft_blocks", num(prft)),
                ("pbft_blocks", num(pbft)),
                ("burned_players", num(burned)),
                ("u_abs_theta3", num(u_abs)),
                ("analytic_bound", num(bound)),
            ],
        )
    };
    let mut checks: Vec<Check> = reports.iter().zip(&pbft_blocks).map(row).collect();
    checks.push(reports_kept(&reports));
    checks
}

/// Theorem 2: a θ=2 coalition playing π_pc keeps the watched transaction
/// out of every block (σ_CP) while background traffic confirms at a
/// throughput within 0.05 of its leader share (k+t)/n, is never burned,
/// and earns 0 < U(π_pc) ≤ α/(1−δ); with no coalition the watched
/// transaction confirms too (σ_0).
fn thm2(runner: &BatchRunner) -> Vec<Check> {
    const SEEDS: u64 = 8;
    let specs = scenario_specs("censorship-attack");
    let n = specs[0].n;
    let bound = analytic::theorem2_censor_utility(1.0, 0.9, 0);
    let row = |report: &BatchReport| {
        let coalition = label_value(&report.label, "k+t=");
        // Spec order: tx 999 (censored) first, then background traffic.
        let included = |r: &RunRecord, tx: usize| *r.txs_included.get(tx).unwrap_or(&false);
        let censored_in = report.records.iter().any(|r| included(r, 0));
        let background_in = report.records.iter().all(|r| included(r, 1));
        let (throughput, burned) = (
            report.agg("throughput").mean,
            report.agg("burned_players").mean,
        );
        let u_pc = report.utilities[0].mean;
        let share = coalition as f64 / n as f64;
        let sigma = report.modal_sigma();
        let observed = if coalition == 0 {
            censored_in && sigma == SystemState::HonestExecution
        } else {
            let profitable = u_pc > 0.0 && u_pc <= bound && burned == 0.0;
            let at_leader_share = (throughput - share).abs() <= 0.05;
            !censored_in && sigma == SystemState::Censorship && profitable && at_leader_share
        };
        holds(
            format!("k+t={coalition}: π_pc censors unpunished at ≈(k+t)/n throughput"),
            observed && background_in,
            vec![
                ("blocks", num(report.agg("min_final_height").mean)),
                ("rounds", num(report.agg("rounds_entered").mean)),
                ("throughput", num(throughput)),
                ("leader_share", num(share)),
                ("censored_tx_in_chain", flag(censored_in)),
                ("background_tx_in_chain", flag(background_in)),
                ("burned_players", num(burned)),
                ("modal_sigma", Json::str(sigma.symbol())),
                ("u_pc_theta2", num(u_pc)),
                ("analytic_bound", num(bound)),
            ],
        )
    };
    let reports = runner.run_grid(&specs, SEEDS);
    let mut checks: Vec<Check> = reports.iter().map(row).collect();
    checks.push(reports_kept(&reports));
    checks
}

/// Theorem 3: in TRAP (n = 20, t = 6, G = 8, R = 2, L = 10) `k > 2+t0−t`
/// is *sufficient* for all-fork to be a Nash equilibrium that no lone
/// baiter averts (min baiters > 1, G/k > U(bait alone)) — not necessary:
/// at k = 2 the condition fails yet enumeration finds all-fork a NE and
/// focal. All-bait is a NE throughout.
fn thm3(_: &BatchRunner) -> Vec<Check> {
    // (k, all-fork is a NE, focal equilibrium) as the paper's argument predicts
    let rows = [
        (1, false, "π_bait"),
        (2, true, "π_fork"),
        (3, true, "π_fork"),
    ];
    let row = |&(k, fork_is_ne, focal): &(usize, bool, &str)| {
        let game = trap_game(k);
        let space = ProfileSpace::uniform(k, 2).fully_symmetric();
        let table = UtilityTable::exact(space, |profile| trap_play(&game, profile));
        let ne = table.nash_equilibria(1e-9);
        let (all_fork, all_bait) = (vec![0; k], vec![1; k]);
        let players: Vec<usize> = (0..k).collect();
        let enumerated_focal = match table.focal_among(&ne, &players) {
            Some(p) if *p == all_fork => "π_fork",
            Some(p) if *p == all_bait => "π_bait",
            _ => "other",
        };
        let mut lone_baiter = all_fork.clone();
        lone_baiter[0] = 1;
        let u_fork = game.params.gain_g / k as f64;
        let u_bait_alone = table.utilities(&lone_baiter)[0];
        let tolerated = analytic::trap_tolerates(game.n, k, game.t);
        let sufficient = analytic::trap_fork_is_nash(k, game.t, game.t0);
        let (fork_ne, bait_ne) = (ne.contains(&all_fork), ne.contains(&all_bait));
        let as_predicted = (fork_ne, bait_ne, enumerated_focal) == (fork_is_ne, true, focal);
        let unavertable = fork_ne && game.min_baiters() > 1.0 && u_fork > u_bait_alone;
        holds(
            format!("k={k}: all-fork NE = {fork_is_ne}, focal {focal}; k > 2+t0−t ⇒ unavertable"),
            tolerated && as_predicted && (!sufficient || unavertable),
            vec![
                ("trap_tolerates", flag(tolerated)),
                ("k_gt_2_plus_t0_minus_t", flag(sufficient)),
                ("min_baiters", num(game.min_baiters())),
                ("u_fork", num(u_fork)),
                ("u_bait_alone", num(u_bait_alone)),
                ("all_fork_is_ne", flag(fork_ne)),
                ("all_bait_is_ne", flag(bait_ne)),
                ("focal", Json::str(enumerated_focal)),
            ],
        )
    };
    rows.iter().map(row).collect()
}

/// Lemma 4 / Theorem 5: over the 27 measured profiles of `lemma4-dsic`
/// (4 seeds per cell, ε = 1e-9) π_0 is weakly dominant for every
/// rational player, no profile reaches σ_Fork, and no deviator anywhere
/// earns more than U(π_0) = 0.
fn lemma4(runner: &BatchRunner) -> Vec<Check> {
    const EPS: f64 = 1e-9;
    let game = find_game("lemma4-dsic").expect("registered game");
    let exploration = GameExplorer::new(*runner).explore(&game, 4);
    let table = &exploration.table;
    let deviators_gain = |profile: &Vec<usize>, utilities: &[f64]| {
        (0..3).any(|p| profile[p] != 0 && utilities[p] > EPS)
    };
    let selected = [
        [0, 0, 0],
        [1, 0, 0],
        [2, 0, 0],
        [2, 2, 0],
        [2, 2, 2],
        [1, 1, 1],
    ];
    let mut checks: Vec<Check> = Vec::new();
    for profile in selected.map(Vec::from) {
        let stats = table.get(&profile).expect("complete sweep");
        checks.push(breaks(
            format!("{}: a deviator gains", game.profile_label(&profile)),
            deviators_gain(&profile, &stats.utilities),
            vec![
                ("sigma", Json::str(stats.sigma.symbol())),
                ("u_p1", num(stats.utilities[0])),
                ("u_p2", num(stats.utilities[1])),
                ("u_p3", num(stats.utilities[2])),
            ],
        ));
    }
    for p in 0..game.players() {
        checks.push(holds(
            format!("P{}: π_0 is dominant", p + 1),
            table.is_dominant(p, 0, EPS),
            vec![
                ("pi_abs_dominant", flag(table.is_dominant(p, 1, EPS))),
                ("pi_fork_dominant", flag(table.is_dominant(p, 2, EPS))),
            ],
        ));
    }
    let forked = table
        .cells()
        .filter(|(_, s)| s.sigma == SystemState::Fork)
        .count();
    let gainers = table
        .cells()
        .filter(|(p, s)| deviators_gain(p, &s.utilities))
        .count();
    checks.push(breaks(
        "some profile reaches σ_Fork or pays a deviator more than U(π_0) = 0",
        forked + gainers > 0,
        vec![
            ("profiles", int(table.cells().count())),
            ("forked", int(forked)),
            ("gainers", int(gainers)),
        ],
    ));
    checks.push(explored_kept(&exploration));
    checks
}

// ---- Tables ----

/// Table 1's committee size and run horizon.
const T1_N: usize = 9;
const T1_HORIZON: u64 = 3_000_000;

/// Raft-lite with `c` crashes: (live, safe), both iff 2c < n.
fn raft_cell(c: usize, partial_sync: bool) -> (bool, bool) {
    let net = if partial_sync {
        psync(2_000)
    } else {
        sync_net()
    };
    let cluster = raft_lite::cluster(&raft_lite::RaftConfig::new(T1_N, 3));
    let sim = crashed_run(cluster, net, 17, c, T1_HORIZON);
    let log = |i| sim.node(NodeId(i)).committed().to_vec();
    live_and_consistent(&(0..T1_N - c).map(log).collect::<Vec<_>>())
}

/// Dolev–Strong majority consensus with `t` coordinated adversarial
/// inputs: (agreement, validity) — agreement always, validity iff 2t < n.
fn dolev_strong_cell(t: usize) -> (bool, bool) {
    let mut modes = vec![sync_ba::DsMode::Honest(7); T1_N];
    modes[T1_N - t..].fill(sync_ba::DsMode::Honest(9));
    let committee = sync_ba::committee(&sync_ba::DsConfig::new(T1_N, t.max(1)), 5, &modes);
    let sim = crashed_run(committee, sync_net(), 23, 0, T1_HORIZON);
    let honest_value = Digest::of_bytes(&[b"ds-input".as_slice(), &[7]].concat());
    let decision = |i| sim.node(NodeId(i)).decision().flatten();
    let decisions: Vec<Option<Digest>> = (0..T1_N - t).map(decision).collect();
    let agree = decisions.iter().all(|d| *d == decisions[0]);
    (agree, decisions.iter().all(|d| *d == Some(honest_value)))
}

/// pBFT with `t` crash faults: (live, safe), live iff 3t < n.
fn pbft_cell(t: usize) -> (bool, bool) {
    let committee = honest_pbft(&pbft::PbftConfig::new(T1_N, 3), 1);
    let sim = crashed_run(committee, psync(2_000), 3, t, T1_HORIZON);
    let log = |i| sim.node(NodeId(i)).log();
    live_and_consistent(&(0..T1_N - t).map(log).collect::<Vec<_>>())
}

/// pRFT with `t` byzantine crashes (seats 1..=t, distinct from leader 0)
/// and `k` rational players: inside the bound θ=1 rationals follow π_0
/// (Lemma 4), outside they abstain (Theorem 1's coalition).
fn prft_cell(t: usize, k: usize, abstain: bool) -> Cell {
    let abstainers = if abstain { (T1_N - k)..T1_N } else { 0..0 };
    let spec = ScenarioSpec::new(format!("rft t={t} k={k}"), T1_N, 8)
        .base_seed(9)
        .synchrony(PSYNC_GST_2000)
        .roles(1..=t, Role::Crash)
        .roles(abstainers, Role::Abstain)
        .horizon(T1_HORIZON);
    let record = run_one(&spec, spec.base_seed);
    let breaches = record.breaches(&spec.label).collect();
    (
        (record.min_final_height >= 2, record.agreement),
        Some(breaches),
    )
}

/// Bracha RBC configured for, and running with, `t` silent faults:
/// (all deliver, consistently); its 2t+1 quorums need t < n/3.
fn bracha_cell(t: usize) -> (bool, bool) {
    let (n, sender, value) = (T1_N, NodeId(0), Digest::of_bytes(b"async-payload"));
    let mut modes = vec![bracha::BrachaMode::Honest; n];
    modes[n - t..].fill(bracha::BrachaMode::Silent);
    let cfg = bracha::BrachaConfig {
        n,
        t,
        sender,
        value,
    };
    let net = Box::new(AsynchronousNet::new(SimTime(20), 0.3, SimTime(5_000)));
    let sim = crashed_run(bracha::committee(&cfg, &modes), net, 11, 0, 20_000_000);
    let delivered: Vec<_> = (0..n - t)
        .map(|i| sim.node(NodeId(i)).delivered())
        .collect();
    let consistent = delivered.iter().flatten().all(|d| *d == value);
    (delivered.iter().all(Option::is_some), consistent)
}

/// The two checks of a (live, safe) probe pair against the paper's cell.
fn live_and_safe(
    name: &str,
    paper: (Expect, Expect),
    (live, safe): (bool, bool),
    evidence: Vec<(&str, Json)>,
) -> [Check; 2] {
    [
        check(format!("{name}: live"), paper.0, live, evidence),
        check(format!("{name}: safe"), paper.1, safe, vec![]),
    ]
}

/// A Table 1 cell's (live, safe) pair and, for a pRFT cell, the
/// invariant rows its run broke ([`RunRecord::breaches`]).
type Cell = ((bool, bool), Option<Vec<String>>);

/// Table 1 (n = 9): every cited protocol is live and safe (valid, for
/// Dolev–Strong) just inside its fault bound; just outside, exactly the
/// property the paper's cell names breaks — a stall keeps safety,
/// Dolev–Strong keeps agreement (reported as `live`) but loses validity.
fn table1(runner: &BatchRunner) -> Vec<Check> {
    type Row = (
        &'static str,
        &'static str,
        &'static str,
        &'static str,
        fn() -> Cell,
        (Expect, Expect),
    );
    // (network, model, protocol + faults, bound, run, the paper's cell: live, safe/valid)
    #[rustfmt::skip]
    let rows: [Row; 11] = [
        ("sync", "CFT(c)", "raft-lite c=4", "2c<n", || (raft_cell(4, false), None), (Holds, Holds)),
        ("sync", "CFT(c)", "raft-lite c=5", "2c≥n", || (raft_cell(5, false), None), (Breaks, Holds)),
        ("sync", "BFT(t)", "dolev-strong t=4", "2t<n", || (dolev_strong_cell(4), None), (Holds, Holds)),
        ("sync", "BFT(t)", "dolev-strong t=5", "2t≥n", || (dolev_strong_cell(5), None), (Holds, Breaks)),
        ("psync", "CFT(c)", "raft-lite c=4", "2c<n", || (raft_cell(4, true), None), (Holds, Holds)),
        ("psync", "BFT(t)", "pbft t=2", "3t<n", || (pbft_cell(2), None), (Holds, Holds)),
        ("psync", "BFT(t)", "pbft t=3", "3t≥n", || (pbft_cell(3), None), (Breaks, Holds)),
        ("psync", "RFT(t,k)", "pRFT t=2,k=2 (π_0)", "t<n/4,t+k<n/2", || prft_cell(2, 2, false), (Holds, Holds)),
        ("psync", "RFT(t,k)", "pRFT t=1,k=4 (π_abs)", "t+k≥n/2", || prft_cell(1, 4, true), (Breaks, Holds)),
        ("async", "CFT/BFT/RFT", "bracha t=2", "t<n/3", || (bracha_cell(2), None), (Holds, Holds)),
        ("async", "CFT/BFT/RFT", "bracha t=3", "t≥n/3", || (bracha_cell(3), None), (Breaks, Holds)),
    ];
    let outcomes = runner.map(&rows, |_, row| (row.4)());
    let (mut checks, mut prft_runs, mut breaches) = (Vec::new(), 0, Vec::new());
    for (&(network, model, faults, bound, _, paper), (outcome, kept)) in rows.iter().zip(outcomes) {
        if let Some(broken) = kept {
            prft_runs += 1;
            breaches.extend(broken);
        }
        let evidence = vec![("model", Json::str(model)), ("bound", Json::str(bound))];
        checks.extend(live_and_safe(
            &format!("{network} {faults}"),
            paper,
            outcome,
            evidence,
        ));
    }
    checks.push(invariants_kept(prft_runs, breaches));
    checks
}

/// Table 2: each coalition script of `table2-sigma` drives the system
/// into its σ state, and f(σ, θ) over the realized states is exactly the
/// paper's row (α = 1).
fn table2(runner: &BatchRunner) -> Vec<Check> {
    const A: f64 = 1.0;
    let game = find_game("table2-sigma").expect("registered game");
    let exploration = GameExplorer::new(*runner).explore(&game, 1);
    // The paper's column order (σ_NP, σ_CP, σ_Fork, σ_0) as strategy indices.
    let realized = [1usize, 2, 3, 0].map(|s| {
        let stats = exploration.table.get(&vec![s]).expect("complete sweep");
        (game.label(0, s), stats.sigma)
    });
    let mut checks: Vec<Check> = Vec::new();
    for (target, got) in realized {
        let evidence = vec![("classified", Json::str(got.symbol()))];
        checks.push(holds(
            format!("a live run realizes {target}"),
            got.symbol() == target,
            evidence,
        ));
    }
    let payoffs = PayoffTable::new(A);
    let paper_rows = [
        (Theta::LivenessAttacking, [A, A, A, 0.0]),
        (Theta::CensorSeeking, [-A, A, A, 0.0]),
        (Theta::ForkSeeking, [-A, -A, A, 0.0]),
        (Theta::Honest, [-A, -A, -A, 0.0]),
    ];
    for (theta, paper) in paper_rows {
        let measured = realized.map(|(_, state)| payoffs.f(state, theta));
        let evidence = realized
            .iter()
            .zip(measured)
            .map(|(&(target, _), v)| (target, num(v)));
        let name = format!("{theta}: measured payoffs equal the paper's row");
        checks.push(holds(name, measured == paper, evidence.collect()));
    }
    checks.push(explored_kept(&exploration));
    checks
}

/// Table 3: per-decision normal-case cost (3 rounds, synchronous) at
/// n ∈ {4, 8, 16, 32}, fitted to power laws. The measured exponents stay
/// at or below the paper's worst-case ones ([`analytic::table3_row`])
/// with R² ≥ 0.99; HotStuff is cheapest in bytes at n = 32;
/// accountability costs pRFT about one factor n over pBFT (byte-exponent
/// gap in [0.5, 1.5]); pRFT and Polygraph are peers (gap ≤ 0.25, ≤ 1.5×
/// bytes at n = 32).
fn table3(runner: &BatchRunner) -> Vec<Check> {
    const NS: [usize; 4] = [4, 8, 16, 32];
    let pbft_cost = |n: usize, accountable: bool| {
        let cfg = pbft::PbftConfig::new(n, 3);
        let cfg = if accountable { cfg.accountable() } else { cfg };
        baseline_cost(honest_pbft(&cfg, 1), |node| node.log().len())
    };
    let hotstuff_cost = |n: usize| {
        let committee = hotstuff::committee(&hotstuff::HsConfig::new(n, 3), 11);
        baseline_cost(committee, |node| node.log().len())
    };
    // The pRFT column is one seed per grid point of `committee-scaling`.
    let prft_reports = runner.run_grid(&scenario_specs("committee-scaling"), 1);
    let pbft_costs = runner.map(&NS, |_, &n| pbft_cost(n, false));
    let hotstuff_costs = runner.map(&NS, |_, &n| hotstuff_cost(n));
    let polygraph_costs = runner.map(&NS, |_, &n| pbft_cost(n, true));
    let prft_costs: Vec<(f64, f64)> = prft_reports.iter().map(report_cost).collect();
    let columns = [
        ("pBFT", "pbft", pbft_costs),
        ("HotStuff", "hotstuff", hotstuff_costs),
        ("Polygraph", "polygraph", polygraph_costs),
        ("pRFT", "prft", prft_costs),
    ];
    let mut checks = Vec::new();
    // Per column: (byte exponent, bytes per decision at n = 32).
    let [pbft, hotstuff, polygraph, prft] = columns.map(|(name, key, costs)| {
        let (paper_msgs, paper_bytes, accountable) = analytic::table3_row(key).expect("paper row");
        let samples = |pick: fn(&(f64, f64)) -> f64| -> Vec<(f64, f64)> {
            NS.iter()
                .zip(&costs)
                .map(|(&n, cost)| (n as f64, pick(cost)))
                .collect()
        };
        let msgs = fit_power_law(&samples(|c| c.0));
        let bytes = fit_power_law(&samples(|c| c.1));
        let within = msgs.exponent <= paper_msgs && bytes.exponent <= paper_bytes;
        let mut fit = holds(
            format!("{name}: fitted exponents ≤ the paper's worst case, R² ≥ 0.99"),
            within && bytes.r_squared >= 0.99,
            vec![
                ("msgs_exponent", num(round6(msgs.exponent))),
                ("bytes_exponent", num(round6(bytes.exponent))),
                ("bytes_r_squared", num(round6(bytes.r_squared))),
                ("paper_msgs_exponent", num(paper_msgs)),
                ("paper_bytes_exponent", num(paper_bytes)),
                ("accountable", flag(accountable)),
            ],
        );
        for (n, &(m, b)) in NS.iter().zip(&costs) {
            let per_decision = [("msgs", m), ("bytes", b)];
            let evidence =
                per_decision.map(|(what, v)| (format!("{what}_per_decision_n{n}"), num(v)));
            fit.evidence.extend(evidence);
        }
        checks.push(fit);
        (bytes.exponent, costs[NS.len() - 1].1)
    });
    checks.push(holds(
        "HotStuff is cheapest in bytes at n = 32",
        hotstuff.1 < pbft.1.min(polygraph.1).min(prft.1),
        vec![
            ("hotstuff_bytes", num(hotstuff.1)),
            ("pbft_bytes", num(pbft.1)),
        ],
    ));
    checks.push(holds(
        "accountability costs ≈ one factor n: pRFT − pBFT byte-exponent gap in [0.5, 1.5]",
        (0.5..=1.5).contains(&(prft.0 - pbft.0)),
        vec![("gap", num(round6(prft.0 - pbft.0)))],
    ));
    let (peer_gap, peer_ratio) = ((prft.0 - polygraph.0).abs(), prft.1 / polygraph.1);
    checks.push(holds(
        "pRFT ≈ Polygraph: byte-exponent gap ≤ 0.25, ≤ 1.5× its bytes at n = 32",
        peer_gap <= 0.25 && peer_ratio <= 1.5,
        vec![
            ("gap", num(round6(peer_gap))),
            ("bytes_ratio_n32", num(peer_ratio)),
        ],
    ));
    checks.push(reports_kept(&prft_reports));
    checks
}

// ---- Claims, figures, ablation ----

/// Claim 1: at n = 10, t0 = 2 the `live` probe (t0 abstainers) passes
/// iff τ ≤ n − t0 and the `safe` probe (equivocating leader, colluders
/// bridging two partitioned honest halves) passes iff τ ≥ ⌊(n+t0)/2⌋+1,
/// so both pass exactly inside the window [7, 8].
fn claim1(runner: &BatchRunner) -> Vec<Check> {
    const N: usize = 10;
    const T0: usize = 2;
    let liveness = |tau: usize| {
        ScenarioSpec::new(format!("live tau={tau}"), N, 4)
            .base_seed(3)
            .tau(tau)
            .roles((N - T0)..N, Role::Abstain)
            .horizon(400_000)
    };
    let safety = |tau: usize| {
        let groups = vec![(3..6).collect(), (6..N).collect()];
        let only_round = Some(0);
        ScenarioSpec::new(format!("safe tau={tau}"), N, 1)
            .base_seed(13)
            .tau(tau)
            .partition(PartitionSpec {
                start: 0,
                end: 100_000,
                groups,
                bridges: vec![0, 1, 2],
            })
            .role(0, Role::EquivocatingLeader { only_round })
            .roles([1, 2], Role::ForkColluder)
            .fork_b_group(6..N)
            .horizon(50_000)
    };
    let taus = [4usize, 5, 6, 7, 8, 9, 10];
    let probes: Vec<ScenarioSpec> = taus
        .iter()
        .flat_map(|&tau| [liveness(tau), safety(tau)])
        .collect();
    let records = runner.map(&probes, |_, spec| run_one(spec, spec.base_seed));
    let (lo, hi) = analytic::tau_window(N, T0);
    let window = || vec![("window_lo", int(lo)), ("window_hi", int(hi))];
    let mut checks = Vec::new();
    for (&tau, probe) in taus.iter().zip(records.chunks(2)) {
        let outcome = (probe[0].min_final_height >= 2, probe[1].agreement);
        let paper = (Expect::of(tau <= hi), Expect::of(tau >= lo));
        checks.extend(live_and_safe(&format!("τ={tau}"), paper, outcome, window()));
    }
    checks.push(records_kept(probes.iter().zip(&records)));
    checks
}

/// Claim 2: Consistency — over 20 seeds of a pre-GST n = 9 committee no
/// honest player finalizes a round another abandoned, on a non-empty set
/// of view-changed rounds; Robustness — in `view-change-churn` (8 seeds)
/// up to t0 = 2 VC-hungry byzantine players force no view change and
/// every round finalizes, while 3 of them starve the quorum; agreement
/// is kept either way.
fn claim2(runner: &BatchRunner) -> Vec<Check> {
    let spec = ScenarioSpec::new("consistency", 9, 6)
        .base_seed(0)
        .synchrony(PSYNC_GST_2000)
        .horizon(2_000_000);
    let consistency = runner.run(&spec, 20);
    let inconsistent = consistency.broken("vc_consistent");
    let consistent = inconsistent == 0 && consistency.rate("agreement_rate") == 1.0;
    let checked_rounds = consistency.agg("view_changes").mean * consistency.seeds as f64;
    let mut checks = vec![holds(
        "consistency: no honest player finalizes a view-changed round",
        consistent && checked_rounds > 0.0,
        vec![
            ("vc_consistent_broken", Json::u64(inconsistent)),
            ("agreement_rate", num(consistency.rate("agreement_rate"))),
            ("view_changed_rounds_checked", num(checked_rounds)),
        ],
    )];
    let specs = scenario_specs("view-change-churn");
    let mut reports = runner.run_grid(&specs, 8);
    for (spec, report) in specs.iter().zip(&reports) {
        let byzantine = label_value(&report.label, "byz=");
        let (view_changes, blocks) = (
            report.agg("view_changes").mean,
            report.agg("min_final_height").mean,
        );
        checks.push(check(
            format!("robustness byz={byzantine}: no view change, every round finalizes"),
            Expect::of(byzantine <= 2),
            view_changes == 0.0 && blocks == spec.max_rounds as f64,
            vec![
                ("honest_view_changes", num(view_changes)),
                ("blocks_finalized", num(blocks)),
            ],
        ));
        let evidence = vec![("agreement_rate", num(report.rate("agreement_rate")))];
        let name = format!("robustness byz={byzantine}: agreement kept");
        checks.push(holds(name, report.rate("agreement_rate") == 1.0, evidence));
    }
    reports.push(consistency);
    checks.push(reports_kept(&reports));
    checks
}

/// Claim 3: at n = 9, t0 = 2 with t = 2 byzantine bridges, a double
/// quorum is arithmetically infeasible (k+t+2·t0 < n), and in each of 12
/// random partitions of the honest players no round is finalized with
/// two values, agreement is kept, and rounds finalize iff one side plus
/// the bridges reaches the n − t0 quorum (otherwise they time out).
fn claim3(runner: &BatchRunner) -> Vec<Check> {
    const N: usize = 9;
    const T: usize = 2;
    const T0: usize = 2;
    let mut checks = vec![breaks(
        "a double quorum is feasible (k+t+2·t0 ≥ n)",
        analytic::double_quorum_feasible(N, T0, 0, T),
        vec![("n", int(N)), ("t", int(T)), ("t0", int(T0))],
    )];
    // Seats 0..t are the bridges; a seeded shuffle and cut splits the rest.
    let partition_spec = |seed: u64| {
        let mut rng = SimRng::new(seed * 77 + 5);
        let mut honest: Vec<usize> = (T..N).collect();
        rng.shuffle(&mut honest);
        let cut = 1 + rng.below((honest.len() - 1) as u64) as usize;
        let (a, b) = honest.split_at(cut);
        let (groups, bridges) = (vec![a.to_vec(), b.to_vec()], (0..T).collect());
        ScenarioSpec::new(format!("{}|{}", a.len(), b.len()), N, 3)
            .base_seed(seed)
            .partition(PartitionSpec {
                start: 0,
                end: 30_000,
                groups,
                bridges,
            })
            .horizon(25_000) // strictly inside the partition
    };
    let specs: Vec<ScenarioSpec> = (0..12).map(partition_spec).collect();
    let probes = runner.map(&specs, |seed, spec| {
        prft_sim::obs::hooks::reset();
        let (sim, outcome) = run_sim(spec, spec.base_seed, |_| {});
        let record = summarize(spec, &sim, spec.base_seed, outcome);
        let (mut finalized, mut timed_out) = (BTreeSet::new(), BTreeSet::new());
        let mut values_per_round = BTreeMap::new();
        let report = analyze(&sim);
        for &id in &report.honest {
            let node = replica(&sim, id);
            finalized.extend(node.stats().finalize_times.iter().map(|(r, _)| *r));
            timed_out.extend(node.stats().view_changed_rounds.iter().copied());
            for entry in node.chain().iter().skip(1) {
                if entry.status == BlockStatus::Final {
                    let values: &mut BTreeSet<Digest> =
                        values_per_round.entry(entry.block.round).or_default();
                    values.insert(entry.block.id());
                }
            }
        }
        let double_agreement = values_per_round.values().any(|v| v.len() > 1);
        let agreement = report.agreement;
        let sides = &spec.partitions[0].groups;
        let quorum_side = sides[0].len().max(sides[1].len()) + T >= N - T0;
        let check = holds(
            format!("seed={seed}: one-sided agreement xor timeout"),
            !double_agreement && agreement && quorum_side != finalized.is_empty(),
            vec![
                ("partition", Json::str(&spec.label)),
                ("rounds_finalized", int(finalized.len())),
                ("rounds_timed_out", int(timed_out.len())),
                ("double_agreement", flag(double_agreement)),
                ("agreement", flag(agreement)),
            ],
        );
        (check, record)
    });
    let (probes, records): (Vec<Check>, Vec<RunRecord>) = probes.into_iter().unzip();
    checks.extend(probes);
    checks.push(records_kept(specs.iter().zip(&records)));
    checks
}

/// Figure 2: one honest n = 4 round walks the ladder Propose → Vote →
/// Commit → Reveal at every replica, and the engine's send ledger (the
/// Meter) counts the leader broadcast (n messages), each all-to-all wave
/// (n²) and the absent kinds (0: Expose and the view-change messages
/// never appear). The run's `ledger` invariant holds its delivery ledger
/// to the send side: in a crash-free run with nothing in flight, every
/// message sent is delivered once.
fn fig2(_: &BatchRunner) -> Vec<Check> {
    const N: usize = 4;
    let spec = ScenarioSpec::new("fig2", N, 1)
        .base_seed(7)
        .horizon(100_000);
    prft_sim::obs::hooks::reset();
    let (sim, outcome) = run_sim(&spec, spec.base_seed, |_| {});
    let record = summarize(&spec, &sim, spec.base_seed, outcome);
    let mut ladder = holds(
        "every replica enters Propose ≤ Vote ≤ Commit ≤ Reveal",
        true,
        vec![],
    );
    for i in 0..N {
        let transitions = &replica(&sim, NodeId(i)).stats().phase_transitions;
        let first_entry = |label: &str| {
            let entered =
                |(_, phase, at): &(Round, Phase, SimTime)| (phase.label() == label).then_some(at.0);
            transitions.iter().filter_map(entered).min()
        };
        let rungs =
            ["Propose", "Vote", "Commit", "Reveal"].map(|label| (label, first_entry(label)));
        ladder.observed &= rungs[0].1.is_some() && rungs.windows(2).all(|w| w[0].1 <= w[1].1);
        for (label, at) in rungs {
            let entry = at.map(|at| (format!("P{i}.{label}"), Json::u64(at)));
            ladder.evidence.extend(entry);
        }
    }
    let mut checks = vec![ladder];
    let waves = [
        ("Propose", N),
        ("Vote", N * N),
        ("Commit", N * N),
        ("Reveal", N * N),
        ("Final", N * N),
    ];
    let absent = ["Expose", "ViewChange", "CommitView"].map(|kind| (kind, 0));
    for (kind, wave) in waves.into_iter().chain(absent) {
        let sent = sim.meter().kind(kind);
        checks.push(holds(
            format!("{kind}: {wave} messages sent"),
            sent.count == wave as u64,
            vec![
                ("count", Json::u64(sent.count)),
                ("mean_bytes", Json::u64(sent.bytes / sent.count.max(1))),
                ("sent_bytes", Json::u64(sent.bytes)),
            ],
        ));
    }
    checks.push(records_kept([(&spec, &record)]));
    checks
}

/// The reveal-phase ballot matrix for `n` players of which the first
/// `cheats` double-sign their commits.
fn commit_matrix(n: usize, cheats: usize, seed: u64) -> (Vec<SignedBallot>, KeyRegistry) {
    let (registry, keys) = KeyRegistry::trusted_setup(n, seed);
    let (va, vb) = (Digest::of_bytes(b"block-a"), Digest::of_bytes(b"block-b"));
    let mut ballots = Vec::new();
    for (i, key) in keys.iter().enumerate() {
        ballots.push(signed_ballot(key, Round(1), Phase::Commit, va));
        if i < cheats {
            ballots.push(signed_ballot(key, Round(1), Phase::Commit, vb));
        }
    }
    (ballots, registry)
}

/// Figure 4: `ConstructProof` names exactly the double-signers, the
/// Expose fires iff more than t0 are convicted, a tampered copy of an
/// honest ballot convicts nobody, and the proof has one entry per
/// double-signer at 600 / 6 000 / 60 000 ballots scanned.
fn fig4(runner: &BatchRunner) -> Vec<Check> {
    let grid = [
        (9, 2, 0),
        (9, 2, 1),
        (9, 2, 2),
        (9, 2, 3),
        (9, 2, 5),
        (33, 8, 9),
    ];
    let mut checks = runner.map(&grid, |_, &(n, t0, cheats)| {
        let (ballots, registry) = commit_matrix(n, cheats, 42);
        let proof = construct_proof(&ballots);
        let convicted: Vec<NodeId> = proof.iter().map(|e| e.accused()).collect();
        let exact = convicted == (0..cheats).map(NodeId).collect::<Vec<_>>();
        let exposed = verify_expose(&proof, &registry, t0).is_some();
        holds(
            format!("n={n} t0={t0} double-signers={cheats}: exact set, Expose iff > t0"),
            exact && exposed == (cheats > t0),
            vec![
                ("convicted", int(convicted.len())),
                ("exact_set", flag(exact)),
                ("expose_fires", flag(exposed)),
            ],
        )
    });
    let (registry, keys) = KeyRegistry::trusted_setup(4, 7);
    let honest = signed_ballot(&keys[0], Round(1), Phase::Commit, Digest::of_bytes(b"a"));
    let mut tampered = honest.clone();
    tampered.payload.value = Digest::of_bytes(b"b");
    let framed = verify_expose(&construct_proof(&[honest, tampered]), &registry, 0).is_some();
    checks.push(breaks(
        "a tampered copy of an honest ballot convicts its signer",
        framed,
        vec![],
    ));
    for scale in [1_000usize, 10_000, 100_000] {
        let (ballots, _) = commit_matrix(scale / 2, scale / 10, 3);
        let proof = construct_proof(&ballots);
        checks.push(holds(
            format!("{} ballots: a proof entry per double-signer", ballots.len()),
            proof.len() == scale / 10,
            vec![
                ("double_signers", int(scale / 10)),
                ("proof_len", int(proof.len())),
            ],
        ));
    }
    checks
}

/// Ablation: the Reveal phase costs bytes — savings > 1× at every n and
/// growing with n — and buys punishment: under the θ=1 fork collusion of
/// `ablation-accountability` both variants prevent the fork (quorum
/// intersection suffices), but only full pRFT burns the deviators.
fn ablation(runner: &BatchRunner) -> Vec<Check> {
    let cost_spec = |n: usize, tag: &str, accountable: bool| {
        ScenarioSpec::new(format!("n={n} {tag}"), n, 3)
            .base_seed(7)
            .accountable(accountable)
    };
    let pair = |n| [cost_spec(n, "full", true), cost_spec(n, "ablated", false)];
    let cost_specs: Vec<ScenarioSpec> = [8, 16, 32].into_iter().flat_map(pair).collect();
    let mut last_savings = 1.0;
    let mut checks = Vec::new();
    let mut reports = runner.run_grid(&cost_specs, 1);
    for pair in reports.chunks(2) {
        let (msgs_full, bytes_full) = report_cost(&pair[0]);
        let (msgs_ablated, bytes_ablated) = report_cost(&pair[1]);
        let (n, savings) = (pair[0].n, bytes_full / bytes_ablated);
        checks.push(holds(
            format!("n={n}: ablating Reveal saves more bytes than at the smaller n"),
            savings > last_savings,
            vec![
                ("msgs_per_decision_full", num(msgs_full)),
                ("msgs_per_decision_ablated", num(msgs_ablated)),
                ("bytes_per_decision_full", num(bytes_full)),
                ("bytes_per_decision_ablated", num(bytes_ablated)),
                ("byte_savings", num(savings)),
            ],
        ));
        last_savings = savings;
    }
    let attack = runner.run_grid(&scenario_specs("ablation-accountability"), 1);
    for (variant, report, burns) in [("full", &attack[0], Holds), ("ablated", &attack[1], Breaks)] {
        let (burned, blocks) = (
            report.agg("burned_players").mean,
            report.agg("min_final_height").mean,
        );
        let evidence = vec![
            ("deviators_burned", num(burned)),
            ("blocks_finalized", num(blocks)),
        ];
        let prevented = report.rate("agreement_rate") == 1.0;
        checks.push(holds(
            format!("{variant}: fork prevented"),
            prevented,
            vec![],
        ));
        checks.push(check(
            format!("{variant}: deviators burned"),
            burns,
            burned > 0.0,
            evidence,
        ));
    }
    reports.extend(attack);
    checks.push(reports_kept(&reports));
    checks
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn ids_are_unique_and_drive_registered_names() {
        let ids: BTreeSet<&str> = CLAIMS.iter().map(|c| c.id).collect();
        assert_eq!(ids.len(), CLAIMS.len());
        for claim in CLAIMS {
            match claim.drives {
                Drives::Scenario(name) => assert!(find(name).is_some(), "{name}"),
                Drives::Game(name) => assert!(find_game(name).is_some(), "{name}"),
                Drives::Direct(_) => {}
            }
        }
    }

    #[test]
    fn unknown_ids_are_errors_and_selection_keeps_table_order() {
        let runner = BatchRunner::new(1);
        assert!(evaluate(&runner, &["thm9".into()]).is_err());
        let picked = evaluate(&runner, &["fig2".into(), "thm3".into()]).unwrap();
        let ids: Vec<&str> = picked.iter().map(|(c, _)| c.id).collect();
        assert_eq!(ids, ["thm3", "fig2"]);
    }

    #[test]
    fn a_disagreeing_check_is_counted_and_flagged() {
        let agree = check("a", Breaks, false, vec![]);
        let disagree = check("b", Holds, false, vec![("x", num(1.5))]);
        assert!(agree.agrees() && !disagree.agrees());
        let results = vec![(&CLAIMS[0], vec![agree, disagree])];
        assert_eq!(mismatches(&results).count(), 1);
        assert!(table(&results).contains("breaks ✗ MISMATCH"));
        let doc = to_json(&results).render();
        assert!(doc.contains(r#""expected":"holds","observed":"breaks","evidence":{"x":1.5}"#));
    }
}
