//! Per-run observables and their batch aggregates.

use crate::build::{replica, scheduled_delay_rules};
use crate::json::Json;
use crate::spec::{Role, ScenarioSpec, Synchrony, TimelineEvent};
use prft_core::analysis::RunReport;
use prft_core::{AsReplica, Phase, Replica};
use prft_game::{analytic, SystemState};
use prft_sim::obs::hooks::HookSnapshot;
use prft_sim::{Node, ObsRegistry, RunOutcome, Simulation};
use prft_types::NodeId;
use prft_workload::{Merge, WorkloadRunStats, METRICS as WORKLOAD_METRICS};

/// Everything one seeded run produces that experiments read.
#[derive(Debug, Clone, PartialEq)]
pub struct RunRecord {
    /// The derived simulation seed of this run.
    pub seed: u64,
    /// Why the simulation stopped.
    pub outcome: RunOutcome,
    /// Smallest finalized height among honest players.
    pub min_final_height: u64,
    /// Largest finalized height among honest players.
    pub max_final_height: u64,
    /// Honest finalized prefixes agree (no fork).
    pub agreement: bool,
    /// Per [`INVARIANTS`] row that reads the simulation, in table order:
    /// whether this run kept it (a row that does not apply is kept). Read
    /// them through [`RunRecord::invariants`].
    pub verdicts: Vec<bool>,
    /// Players burned in any honest view.
    pub burned: Vec<usize>,
    /// View changes completed across honest replicas.
    pub view_changes: u64,
    /// Valid exposes applied across honest replicas.
    pub exposes: u64,
    /// Largest `rounds_entered` among honest replicas.
    pub rounds_entered: u64,
    /// Per-[`crate::TxSpec`] (in spec order): the tx appears in some honest
    /// chain, even tentatively.
    pub txs_included: Vec<bool>,
    /// Per-watched-id (in spec order): the tx is finalized at every honest
    /// player (the censorship-resistance observable).
    pub watched_finalized: Vec<bool>,
    /// The run's σ state.
    pub sigma: SystemState,
    /// Finalized blocks per entered round, averaged over honest replicas.
    pub throughput: f64,
    /// Messages sent during the run.
    pub total_messages: u64,
    /// Wire bytes sent during the run.
    pub total_bytes: u64,
    /// Events the engine dispatched during the run.
    pub events_dispatched: u64,
    /// The deepest the event queue ever got during the run.
    pub peak_queue_depth: u64,
    /// Messages still in flight when the run stopped (nonzero only when
    /// the horizon cut traffic off mid-air).
    pub in_flight_messages: u64,
    /// The run's full observability registry (see `docs/OBSERVABILITY.md`
    /// for the counter catalog). Aggregated into the batch `observability`
    /// section; not serialized per run.
    pub obs: ObsRegistry,
    /// The client-workload view of the run (`Some` only when the spec
    /// carries a workload section): conservation counters and the
    /// submit→commit latency summary in virtual time.
    pub workload: Option<WorkloadRunStats>,
    /// Per-player discounted utilities (empty unless the spec asks).
    pub utilities: Vec<f64>,
}

/// JSON object for one run's workload stats: the declared metrics, the
/// latency ones inside a `latency` object between its sample count and mean.
fn stats_json(w: &WorkloadRunStats) -> Json {
    let mut fields = Vec::new();
    let mut latency = vec![("count", Json::u64(w.latency.count))];
    for m in WORKLOAD_METRICS {
        let value = Json::u64((m.get)(w));
        match m.latency_key() {
            Some(key) => latency.push((key, value)),
            None => fields.push((m.name, value)),
        }
    }
    latency.push(("mean", Json::u64(w.latency.mean())));
    fields.push(("latency", Json::obj(latency)));
    Json::obj(fields)
}

impl RunRecord {
    /// Stable string name for the run outcome.
    fn outcome_str(&self) -> &'static str {
        match self.outcome {
            RunOutcome::Quiescent => "quiescent",
            RunOutcome::HorizonReached => "horizon",
            RunOutcome::EventLimit => "event-limit",
        }
    }

    /// Every [`INVARIANTS`] row with whether this run kept it, in table
    /// order: the stored verdicts of the rows that read the simulation,
    /// the others read off the record now.
    pub fn invariants(&self) -> impl Iterator<Item = (&'static str, bool)> + '_ {
        let mut stored = self.verdicts.iter();
        INVARIANTS.iter().map(move |row| {
            let kept = match row.check {
                Reads::Run(_) => *stored.next().expect("a verdict per simulation row"),
                Reads::Record(check) => check(self).unwrap_or(true),
            };
            (row.name, kept)
        })
    }

    /// Whether this run kept the [`INVARIANTS`] row called `row`.
    ///
    /// # Panics
    /// Panics if no such row is declared.
    pub fn kept(&self, row: &str) -> bool {
        let mut rows = self.invariants();
        let found = rows.find(|&(name, _)| name == row);
        found.unwrap_or_else(|| panic!("no invariant `{row}`")).1
    }

    /// Each row this run broke, as `<row> broken: <label> seed <seed>`
    /// for the grid point labelled `label`, in table order.
    pub fn breaches<'a>(&'a self, label: &'a str) -> impl Iterator<Item = String> + 'a {
        let broken = self.invariants().filter(|&(_, kept)| !kept);
        broken.map(move |(row, _)| format!("{row} broken: {label} seed {}", self.seed))
    }

    /// JSON object for one run. The `workload` object appears only when
    /// the run carried one, so non-workload reports stay byte-identical to
    /// the previous schema.
    pub fn to_json(&self) -> Json {
        let flags = |flags: &[bool]| Json::arr(flags, |&b| Json::Bool(b));
        let mut fields = vec![
            ("seed", Json::u64(self.seed)),
            ("outcome", Json::str(self.outcome_str())),
            ("min_final_height", Json::u64(self.min_final_height)),
            ("max_final_height", Json::u64(self.max_final_height)),
            ("agreement", Json::Bool(self.agreement)),
            (
                "invariants",
                Json::obj(self.invariants().map(|(row, kept)| (row, Json::Bool(kept)))),
            ),
            ("burned", Json::arr(&self.burned, |&b| Json::u64(b as u64))),
            ("view_changes", Json::u64(self.view_changes)),
            ("exposes", Json::u64(self.exposes)),
            ("rounds_entered", Json::u64(self.rounds_entered)),
            ("txs_included", flags(&self.txs_included)),
            ("watched_finalized", flags(&self.watched_finalized)),
            ("sigma", Json::str(self.sigma.symbol())),
            ("throughput", Json::Num(self.throughput)),
            ("total_messages", Json::u64(self.total_messages)),
            ("total_bytes", Json::u64(self.total_bytes)),
            ("events_dispatched", Json::u64(self.events_dispatched)),
            ("peak_queue_depth", Json::u64(self.peak_queue_depth)),
            ("in_flight_messages", Json::u64(self.in_flight_messages)),
        ];
        if let Some(w) = &self.workload {
            fields.push(("workload", stats_json(w)));
        }
        fields.push(("utilities", Json::arr(&self.utilities, |&u| Json::Num(u))));
        Json::obj(fields)
    }
}

/// JSON object for an observability registry: counters then gauges, each
/// alphabetical by key — deterministic by construction.
fn obs_to_json(reg: &ObsRegistry) -> Json {
    let section = |entries: &mut dyn Iterator<Item = (&str, u64)>| {
        Json::obj(entries.map(|(k, v)| (k, Json::u64(v))))
    };
    Json::obj([
        ("counters", section(&mut reg.counters())),
        ("gauges", section(&mut reg.gauges())),
    ])
}

/// Mean / min / max / standard deviation / 95% CI over one metric.
///
/// Always computed over the batch in seed-index order, so a parallel sweep
/// and a serial sweep aggregate in the same floating-point order and
/// produce byte-identical values.
#[derive(Debug, Clone, Copy, PartialEq, Default)]
pub struct Aggregate {
    /// Sample count.
    pub count: usize,
    /// Arithmetic mean.
    pub mean: f64,
    /// Smallest sample.
    pub min: f64,
    /// Largest sample.
    pub max: f64,
    /// Population standard deviation.
    pub std_dev: f64,
    /// Normal-approximation 95% confidence half-width (1.96·σ/√count).
    pub ci95: f64,
}

impl Aggregate {
    /// Aggregates `values` in the order given (all zero for no values).
    pub fn over(values: &[f64]) -> Aggregate {
        if values.is_empty() {
            return Aggregate::default();
        }
        let n = values.len() as f64;
        let mean = values.iter().fold(0.0, |sum, v| sum + v) / n;
        let var = values
            .iter()
            .fold(0.0, |var, v| var + (v - mean) * (v - mean))
            / n;
        let std_dev = var.sqrt();
        Aggregate {
            count: values.len(),
            mean,
            min: values.iter().copied().fold(f64::INFINITY, f64::min),
            max: values.iter().copied().fold(f64::NEG_INFINITY, f64::max),
            std_dev,
            ci95: 1.96 * std_dev / n.sqrt(),
        }
    }

    /// JSON object for this aggregate.
    pub fn to_json(&self) -> Json {
        Json::obj([
            ("count", Json::u64(self.count as u64)),
            ("mean", Json::Num(self.mean)),
            ("min", Json::Num(self.min)),
            ("max", Json::Num(self.max)),
            ("std_dev", Json::Num(self.std_dev)),
            ("ci95", Json::Num(self.ci95)),
        ])
    }
}

/// One declared per-run committee metric. The batch aggregation, the batch
/// JSON object and the scenario CSV's columns are all read off this
/// declaration (`docs/REPORT_SCHEMA.md` is checked against it by a test).
pub struct BatchMetric {
    /// Key in the batch JSON object.
    pub name: &'static str,
    /// Reads the metric off one run.
    pub get: fn(&RunRecord) -> f64,
    /// A rate is a 0/1 indicator reported as its mean, a plain number ahead
    /// of the σ histogram; every other metric reports an [`Aggregate`]
    /// object after it.
    pub rate: bool,
    /// Scenario-CSV columns: header and path below the metric's batch value
    /// (`["mean"]` of its aggregate; `[]` = the value itself).
    pub csv: &'static [(&'static str, &'static [&'static str])],
}

/// Every aggregated committee metric, in report order (laid out by hand).
/// A new one is a [`RunRecord`] field and an entry here.
#[rustfmt::skip]
pub const BATCH_METRICS: &[BatchMetric] = &[
    BatchMetric { name: "agreement_rate", get: |r| r.agreement as u8 as f64, rate: true,
                  csv: &[("agreement_rate", &[])] },
    BatchMetric { name: "min_final_height", get: |r| r.min_final_height as f64, rate: false,
                  csv: &[("min_final_height_mean", &["mean"]), ("min_final_height_ci95", &["ci95"])] },
    BatchMetric { name: "throughput", get: |r| r.throughput, rate: false,
                  csv: &[("throughput_mean", &["mean"])] },
    BatchMetric { name: "rounds_entered", get: |r| r.rounds_entered as f64, rate: false,
                  csv: &[] },
    BatchMetric { name: "view_changes", get: |r| r.view_changes as f64, rate: false,
                  csv: &[("view_changes_mean", &["mean"])] },
    BatchMetric { name: "exposes", get: |r| r.exposes as f64, rate: false,
                  csv: &[("exposes_mean", &["mean"])] },
    BatchMetric { name: "burned_players", get: |r| r.burned.len() as f64, rate: false,
                  csv: &[("burned_mean", &["mean"])] },
    BatchMetric { name: "total_messages", get: |r| r.total_messages as f64, rate: false,
                  csv: &[("messages_mean", &["mean"])] },
    BatchMetric { name: "total_bytes", get: |r| r.total_bytes as f64, rate: false,
                  csv: &[("bytes_mean", &["mean"])] },
    BatchMetric { name: "events_dispatched", get: |r| r.events_dispatched as f64, rate: false,
                  csv: &[("events_dispatched_mean", &["mean"])] },
    BatchMetric { name: "peak_queue_depth", get: |r| r.peak_queue_depth as f64, rate: false,
                  csv: &[("peak_queue_depth_max", &["max"])] },
    BatchMetric { name: "in_flight_messages", get: |r| r.in_flight_messages as f64, rate: false,
                  csv: &[("in_flight_max", &["max"])] },
];

/// What an [`INVARIANTS`] row reads. A check answers `Some(kept)`, or
/// `None` when the row does not apply to the run, which counts as kept.
#[derive(Clone, Copy)]
pub enum Reads {
    /// The finished simulation, once, inside [`crate::summarize`]; the
    /// record stores the verdict ([`RunRecord::verdicts`]).
    Run(fn(&Finished) -> Option<bool>),
    /// The record itself, when its section is attached after
    /// [`crate::summarize`].
    Record(fn(&RunRecord) -> Option<bool>),
}

/// One self-check every run makes: a property the paper or the engine
/// promises, checked over one finished run.
pub struct Invariant {
    /// Key in the per-run and batch `invariants` objects.
    pub name: &'static str,
    /// The check.
    pub check: Reads,
}

/// Every self-check of a run, in report order. Each run evaluates the
/// table once; the record, the reports, the claims rows, `prft-bench`
/// and the CLI's exit status all read the verdicts
/// (`docs/REPORT_SCHEMA.md` lists when each row applies).
#[rustfmt::skip]
pub const INVARIANTS: &[Invariant] = &[
    // (t,k)-agreement, 1-strict ordering and Claim 2's view-change
    // consistency over the honest ledgers, where Claim 1's τ is safe.
    Invariant { name: "agreement", check: Reads::Run(|f| f.tau_is_safe().then_some(f.report.agreement)) },
    Invariant { name: "strict_ordering", check: Reads::Run(|f| f.tau_is_safe().then_some(f.report.strict_ordering)) },
    Invariant { name: "vc_consistent", check: Reads::Run(|f| f.tau_is_safe().then_some(f.report.vc_consistent)) },
    Invariant { name: "honest_never_burned", check: Reads::Run(|f| {
        Some(f.report.burned.iter().all(|id| !f.honest_throughout.contains(id)))
    }) },
    // A burn is its proof: each seat's stored pairs convict, under its own
    // trusted setup alone, the players they burned.
    Invariant { name: "burns_proven", check: Reads::Run(|f| Some(f.seats.iter().all(|s| s.burns_proven()))) },
    Invariant { name: "tx_census", check: Reads::Run(|f| {
        Some(f.honest_throughout.iter().all(|id| f.seats[id.0].census_holds()))
    }) },
    Invariant { name: "workload_conserved", check: Reads::Record(|r| r.workload.as_ref().map(WorkloadRunStats::conserved)) },
    Invariant { name: "engine_books", check: Reads::Run(|f| Some(f.engine_books)) },
    Invariant { name: "ledger", check: Reads::Run(|f| Some(f.ledger)) },
    Invariant { name: "memo_identity", check: Reads::Run(memo_identity) },
    Invariant { name: "progress_after_disruption", check: Reads::Run(progress_after_disruption) },
];

/// `memo_hits + memo_misses == sig_verifies`: a seat checks every
/// signature through its verify memo (the reference verifier charges each
/// of its verifications as a miss).
fn memo_identity(f: &Finished) -> Option<bool> {
    Some(f.hooks.memo_hits + f.hooks.memo_misses == f.hooks.sig_verifies)
}

/// The tick after which nothing disrupts a run of `spec`: the latest of
/// GST, the last `Crash` or `Recover`, the end of a delay rule and the end
/// of a partition. An asynchronous run never settles.
fn disrupted_until(spec: &ScenarioSpec) -> u64 {
    let gst = match spec.synchrony {
        Synchrony::Synchronous { .. } => 0,
        Synchrony::PartiallySynchronous { gst, .. } => gst,
        Synchrony::Asynchronous => return u64::MAX,
    };
    let faults = spec.schedule.iter().filter_map(|(tick, event)| {
        matches!(event, TimelineEvent::Crash(_) | TimelineEvent::Recover(_)).then_some(*tick)
    });
    let delays = scheduled_delay_rules(spec)
        .into_iter()
        .map(|rule| rule.until_time.0);
    let partitions = spec.partitions.iter().map(|p| p.end);
    faults.chain(delays).chain(partitions).fold(gst, u64::max)
}

/// Liveness once the run settles at [`disrupted_until`]'s `D`: every seat
/// up at the end finalizes a block after `D`. Applies where every seat is
/// honest throughout, τ is not overridden and some up seat is in a round
/// after `D` — it enters one, or the run stops after `D` with the seat
/// still in one (a committee frozen in its round enters none). A run whose
/// round budget is spent by `D` has nothing left to decide.
fn progress_after_disruption(f: &Finished) -> Option<bool> {
    if f.honest_throughout.len() < f.spec.n || f.spec.tau_override.is_some() {
        return None;
    }
    let settled = disrupted_until(f.spec);
    let up = || {
        f.seats
            .iter()
            .zip(&f.up)
            .filter(|(_, &up)| up)
            .map(|(seat, _)| *seat)
    };
    // Both logs are in time order, so the last entry decides.
    let in_round = |seat: &Replica| {
        let mut log = seat.stats().phase_transitions.iter().rev();
        let entered = log.find(|&&(_, phase, _)| phase == Phase::Propose);
        entered.is_some_and(|&(_, _, at)| at.0 > settled)
            || (!seat.is_passive() && f.stopped_at > settled)
    };
    let finalized = |seat: &Replica| {
        let last = seat.stats().finalize_times.last();
        last.is_some_and(|&(_, at)| at.0 > settled)
    };
    up().any(in_round).then(|| up().all(finalized))
}

/// The checks of the [`Reads::Run`] rows, in table order: one
/// [`RunRecord::verdicts`] entry each.
pub(crate) fn run_checks() -> impl Iterator<Item = fn(&Finished) -> Option<bool>> {
    INVARIANTS.iter().filter_map(|row| match row.check {
        Reads::Run(check) => Some(check),
        Reads::Record(_) => None,
    })
}

/// A finished run as the [`Reads::Run`] rows read it.
pub struct Finished<'a> {
    spec: &'a ScenarioSpec,
    report: &'a RunReport,
    /// The committee, seat by seat.
    seats: Vec<&'a Replica>,
    /// Seats honest for the whole run: honest at t = 0 and named by no
    /// `SetRole`.
    honest_throughout: Vec<NodeId>,
    hooks: HookSnapshot,
    /// [`Simulation::books_balance`].
    engine_books: bool,
    /// [`Simulation::ledger_balances`], exact unless a seat was ever
    /// crashed (by a `Crash` role, a `Crash` event or `SetRole(_, Crash)`).
    ledger: bool,
    /// Per seat: not crashed when the run stopped.
    up: Vec<bool>,
    /// The tick the run stopped at.
    stopped_at: u64,
}

impl<'a> Finished<'a> {
    pub(crate) fn new<N: Node + AsReplica>(
        spec: &'a ScenarioSpec,
        sim: &'a Simulation<N>,
        report: &'a RunReport,
        hooks: HookSnapshot,
    ) -> Finished<'a> {
        let roles = spec.resolved_roles();
        let events = || spec.schedule.iter().map(|(_, event)| event);
        let switched =
            |i| events().any(|e| matches!(e, TimelineEvent::SetRole(seat, _) if *seat == i));
        let crash = |e: &TimelineEvent| {
            matches!(
                e,
                TimelineEvent::Crash(_) | TimelineEvent::SetRole(_, Role::Crash)
            )
        };
        let lossless = !roles.contains(&Role::Crash) && !events().any(crash);
        Finished {
            spec,
            report,
            seats: (0..spec.n).map(|i| replica(sim, NodeId(i))).collect(),
            honest_throughout: (0..spec.n)
                .filter(|&i| roles[i] == Role::Honest && !switched(i))
                .map(NodeId)
                .collect(),
            hooks,
            engine_books: sim.books_balance(),
            ledger: sim.ledger_balances(lossless),
            up: (0..spec.n).map(|i| !sim.is_crashed(NodeId(i))).collect(),
            stopped_at: sim.now().0,
        }
    }

    /// The verdicts of the [`Reads::Run`] rows, in table order.
    pub(crate) fn verdicts(&self) -> Vec<bool> {
        run_checks()
            .map(|check| check(self).unwrap_or(true))
            .collect()
    }

    /// Whether the spec's agreement threshold τ is at least Claim 1's
    /// safety bound `⌊(n + t0)/2⌋ + 1` (an override below it forks by
    /// design).
    fn tau_is_safe(&self) -> bool {
        let t0 = self.seats[0].config().t0;
        let bound = analytic::tau_window(self.spec.n, t0).0;
        self.spec.tau_override.is_none_or(|tau| tau >= bound)
    }
}

/// Aggregated report for one grid point of a scenario, over all its seeds.
#[derive(Debug, Clone, PartialEq)]
pub struct BatchReport {
    /// Grid-point label from the spec.
    pub label: String,
    /// Committee size.
    pub n: usize,
    /// Number of seeded runs aggregated.
    pub seeds: u64,
    /// σ-state histogram in [`SystemState::ALL`] order (NP, CP, Fork, σ_0).
    pub sigma_hist: [u64; 4],
    /// One aggregate per [`BATCH_METRICS`] entry, in declaration order
    /// (read by name through [`BatchReport::agg`] / [`BatchReport::rate`]).
    pub metrics: Vec<Aggregate>,
    /// Per [`INVARIANTS`] row, in table order: how many runs broke it
    /// (read by name through [`BatchReport::broken`]).
    pub invariants: Vec<u64>,
    /// The merged observability registry over all runs (counters summed,
    /// gauges maxed — order-independent, so byte-identical at any thread
    /// count and across queue backends).
    pub observability: ObsRegistry,
    /// One aggregate per [`prft_workload::METRICS`] entry (`Some` only when
    /// the spec carries a workload section — every seed of the batch then
    /// has per-run stats). A percentile's aggregate is over the per-run
    /// percentile values, not a re-ranking of the pooled latencies — runs
    /// stay the unit.
    pub workload: Option<Vec<Aggregate>>,
    /// Per-player utility aggregates (one per player index; empty unless
    /// the spec measures utilities).
    pub utilities: Vec<Aggregate>,
    /// The per-run records, in seed-index order.
    pub records: Vec<RunRecord>,
}

impl BatchReport {
    /// Aggregates `records` (already in seed-index order) for `label`.
    pub fn from_records(label: String, n: usize, records: Vec<RunRecord>) -> BatchReport {
        let over = |f: &dyn Fn(&RunRecord) -> f64| {
            Aggregate::over(&records.iter().map(f).collect::<Vec<_>>())
        };
        let sigma_hist =
            SystemState::ALL.map(|s| records.iter().filter(|r| r.sigma == s).count() as u64);
        let players = records.first().map_or(0, |r| r.utilities.len());
        let mut observability = ObsRegistry::new();
        let mut invariants = vec![0; INVARIANTS.len()];
        for r in &records {
            observability.merge(&r.obs);
            for (broken, (_, kept)) in invariants.iter_mut().zip(r.invariants()) {
                *broken += u64::from(!kept);
            }
        }
        // `None` when any run lacks stats (mixed batches never happen — the
        // workload section is a property of the spec, not the seed).
        let stats: Option<Vec<&WorkloadRunStats>> =
            records.iter().map(|r| r.workload.as_ref()).collect();
        let workload = stats.filter(|s| !s.is_empty()).map(|stats| {
            let over = |m: &prft_workload::Metric| {
                stats.iter().map(|s| (m.get)(s) as f64).collect::<Vec<_>>()
            };
            WORKLOAD_METRICS
                .iter()
                .map(|m| Aggregate::over(&over(m)))
                .collect()
        });
        BatchReport {
            label,
            n,
            seeds: records.len() as u64,
            sigma_hist,
            metrics: BATCH_METRICS.iter().map(|m| over(&m.get)).collect(),
            invariants,
            observability,
            workload,
            utilities: (0..players).map(|p| over(&|r| r.utilities[p])).collect(),
            records,
        }
    }

    /// The aggregate of the [`BATCH_METRICS`] entry called `name`.
    ///
    /// # Panics
    /// Panics if no such metric is declared.
    pub fn agg(&self, name: &str) -> &Aggregate {
        let declared = BATCH_METRICS.iter().position(|m| m.name == name);
        &self.metrics[declared.unwrap_or_else(|| panic!("no batch metric `{name}`"))]
    }

    /// The fraction of runs for which the rate metric `name` held.
    pub fn rate(&self, name: &str) -> f64 {
        self.agg(name).mean
    }

    /// How many runs broke the [`INVARIANTS`] row called `row`.
    ///
    /// # Panics
    /// Panics if no such row is declared.
    pub fn broken(&self, row: &str) -> u64 {
        let declared = INVARIANTS.iter().position(|r| r.name == row);
        self.invariants[declared.unwrap_or_else(|| panic!("no invariant `{row}`"))]
    }

    /// Each broken row of each run ([`RunRecord::breaches`]), in
    /// seed-index order.
    pub fn breaches(&self) -> impl Iterator<Item = String> + '_ {
        self.records.iter().flat_map(|r| r.breaches(&self.label))
    }

    /// The aggregate of the [`prft_workload::METRICS`] entry called `name`,
    /// for a batch that carried a workload.
    pub fn workload_agg(&self, name: &str) -> Option<&Aggregate> {
        let declared = WORKLOAD_METRICS.iter().position(|m| m.name == name)?;
        Some(&self.workload.as_ref()?[declared])
    }

    /// The modal σ state of the batch (ties break toward severity).
    pub fn modal_sigma(&self) -> SystemState {
        let hist = SystemState::ALL.into_iter().zip(self.sigma_hist);
        let modal = hist.rev().max_by_key(|&(_, count)| count);
        modal.expect("four states").0
    }

    /// The batch object's fields ahead of `runs`. The `workload` section
    /// appears only when the batch carried one; a constant renders as the
    /// value itself, latency metrics after the others.
    fn summary_fields(&self) -> Vec<(&'static str, Json)> {
        let declared = |rate: bool| {
            let of_shape = BATCH_METRICS.iter().zip(&self.metrics);
            of_shape
                .filter(move |(m, _)| m.rate == rate)
                .map(move |(m, a)| (m.name, if rate { Json::Num(a.mean) } else { a.to_json() }))
        };
        let mut fields = vec![
            ("label", Json::str(&self.label)),
            ("n", Json::u64(self.n as u64)),
            ("seeds", Json::u64(self.seeds)),
        ];
        fields.extend(declared(true));
        let broken = INVARIANTS.iter().zip(&self.invariants);
        let broken = broken.map(|(row, &count)| (row.name, Json::u64(count)));
        fields.push(("invariants", Json::obj(broken)));
        let hist = SystemState::ALL.iter().zip(self.sigma_hist);
        let hist = hist.map(|(s, c)| (s.symbol(), Json::u64(c)));
        fields.push(("sigma_hist", Json::obj(hist)));
        fields.extend(declared(false));
        fields.push(("observability", obs_to_json(&self.observability)));
        if let Some(w) = &self.workload {
            let section = |latency: bool| {
                let metrics = WORKLOAD_METRICS.iter().zip(w);
                metrics
                    .filter(move |(m, _)| m.latency_key().is_some() == latency)
                    .map(|(m, a)| match m.merge {
                        Merge::Constant => (m.name, Json::u64(a.max as u64)),
                        _ => (m.name, a.to_json()),
                    })
            };
            let section = section(false).chain(section(true));
            fields.push(("workload", Json::obj(section)));
        }
        fields.push(("utilities", Json::arr(&self.utilities, Aggregate::to_json)));
        fields
    }

    /// JSON object for this batch without its `runs` — the document every
    /// scenario view (JSON, CSV, terminal table) is read off.
    pub fn summary_json(&self) -> Json {
        Json::obj(self.summary_fields())
    }

    /// [`BatchReport::summary_json`] plus the per-run records under `runs`.
    pub fn to_json(&self) -> Json {
        let mut fields = self.summary_fields();
        fields.push(("runs", Json::arr(&self.records, RunRecord::to_json)));
        Json::obj(fields)
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn record(seed: u64, height: u64, sigma: SystemState) -> RunRecord {
        RunRecord {
            seed,
            outcome: RunOutcome::Quiescent,
            min_final_height: height,
            max_final_height: height,
            agreement: true,
            verdicts: vec![true; run_checks().count()],
            burned: vec![],
            view_changes: 0,
            exposes: 0,
            rounds_entered: height,
            txs_included: vec![],
            watched_finalized: vec![],
            sigma,
            throughput: 1.0,
            total_messages: 10,
            total_bytes: 100,
            events_dispatched: 20,
            peak_queue_depth: 5,
            in_flight_messages: 0,
            obs: ObsRegistry::new(),
            workload: None,
            utilities: vec![],
        }
    }

    #[test]
    fn aggregate_basics() {
        let a = Aggregate::over(&[1.0, 2.0, 3.0]);
        assert_eq!(a.count, 3);
        assert_eq!(a.mean, 2.0);
        assert_eq!(a.min, 1.0);
        assert_eq!(a.max, 3.0);
        assert!(a.std_dev > 0.8 && a.std_dev < 0.9);
        let empty = Aggregate::over(&[]);
        assert_eq!(empty.count, 0);
        assert_eq!(empty.mean, 0.0);
    }

    #[test]
    fn histogram_and_modal_state() {
        let report = BatchReport::from_records(
            "x".into(),
            4,
            vec![
                record(0, 3, SystemState::HonestExecution),
                record(1, 3, SystemState::HonestExecution),
                record(2, 0, SystemState::NoProgress),
            ],
        );
        assert_eq!(report.sigma_hist, [1, 0, 0, 2]);
        assert_eq!(report.modal_sigma(), SystemState::HonestExecution);
        assert_eq!(report.rate("agreement_rate"), 1.0);
        assert_eq!(report.agg("min_final_height").mean, 2.0);
        assert_eq!(report.workload_agg("retries"), None);
    }

    #[test]
    fn declared_names_keys_and_columns_are_unique() {
        fn assert_unique(what: &str, mut names: Vec<&str>) {
            let declared = names.len();
            names.sort_unstable();
            names.dedup();
            assert_eq!(names.len(), declared, "duplicate {what}");
        }
        let (batch, workload) = (BATCH_METRICS, WORKLOAD_METRICS);
        assert_unique("batch JSON name", batch.iter().map(|m| m.name).collect());
        assert_unique(
            "workload JSON name",
            workload.iter().map(|m| m.name).collect(),
        );
        let obs_key = |m: &prft_workload::Metric| match m.merge {
            Merge::Constant => None,
            Merge::Counter(key) | Merge::Gauge(key) => Some(key),
        };
        assert_unique("obs key", workload.iter().filter_map(obs_key).collect());
        let batch_csv = batch.iter().flat_map(|m| m.csv).map(|(header, _)| *header);
        let workload_csv = workload.iter().filter_map(|m| Some(m.csv?.0));
        assert_unique("CSV column", batch_csv.chain(workload_csv).collect());
    }

    /// A ledger whose burned seats each hold another burned seat's
    /// conviction — seat A's pair stored as the proof that burned seat B —
    /// breaks `burns_proven` and nothing else, and the audit moves no
    /// `sig_verifies`.
    #[test]
    fn a_pair_stored_under_another_seat_breaks_burns_proven() {
        use prft_core::CollateralLedger;
        let spec = ScenarioSpec::new("fork", 9, 3)
            .base_seed(0xf0_17c)
            .role(
                0,
                Role::EquivocatingLeader {
                    only_round: Some(0),
                },
            )
            .roles(1..=3, Role::ForkColluder)
            .fork_b_group([7, 8])
            .horizon(600_000);
        let seed = crate::derive_seed(spec.base_seed, 0);
        let (mut sim, outcome) = crate::run_sim(&spec, seed, |_| {});
        let kept = crate::summarize(&spec, &sim, seed, outcome);
        assert!(kept.invariants().all(|(_, kept)| kept));
        let seat = NodeId(4);
        let ledger = replica(&sim, seat).collateral().clone();
        let burned: Vec<NodeId> = ledger.burned().collect();
        assert!(burned.len() > 1, "{burned:?}");
        let mut rotated = CollateralLedger::new(ledger.deposit());
        for (i, &player) in burned.iter().enumerate() {
            let other = burned[(i + 1) % burned.len()];
            rotated.burn(player, ledger.proof(other).expect("burned").clone());
        }
        let node = sim.node_mut(seat).as_replica_mut().expect("a replica");
        *node.collateral_mut() = rotated;
        let before = prft_sim::obs::hooks::snapshot().sig_verifies;
        let broken = crate::summarize(&spec, &sim, seed, outcome);
        assert_eq!(prft_sim::obs::hooks::snapshot().sig_verifies, before);
        assert_eq!(broken.burned, kept.burned);
        let rows: Vec<&str> = broken.invariants().filter(|r| !r.1).map(|r| r.0).collect();
        assert_eq!(rows, ["burns_proven"]);
    }
}
