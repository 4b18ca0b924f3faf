//! One workload in one process: what the `child` subcommand does.
//!
//! `run` starts each workload in a child of its own so `peak_rss_mb` is
//! per workload and `setup_s` starts from a cold process. A child runs in
//! one of three modes:
//!
//! * `measure` — warm-up repetition (its end is `setup_s`), then measured
//!   repetitions until `--seconds` have passed (at least [`MIN_REPS`]),
//!   then the checks that need a reference run;
//! * `setup` — the warm-up repetition only: a second `setup_s` sample;
//! * `trace` — warm-up, [`TRACE_BASELINE_REPS`] untraced repetitions, one
//!   traced repetition, the traced-run validity guard, the probes, and the
//!   per-layer ledger.
//!
//! The child prints one JSON object on its last stdout line; `run` reads
//! it back.

use crate::calib::Calibrator;
use crate::check::{get, number};
use crate::probes;
use crate::schema::{Exact, PER_LAYER};
use crate::spans::{Tracer, BENCH_LAYER};
use crate::stats::{median, percentile, quartiles};
use crate::workloads::{self, repetition, RepOut, GAME, LAB, OPAQUE, SIM};
use crate::wrap::{CORE, NET, WORKLOAD};
use prft_lab::json::Json;
use prft_lab::{BatchRunner, CheckpointStore};
use std::collections::BTreeMap;
use std::path::{Path, PathBuf};
use std::time::Instant;

/// Fewest measured repetitions a `measure` child makes, however short
/// `--seconds` is: a median of fewer is no median.
pub const MIN_REPS: usize = 3;
/// Untraced repetitions a `trace` child makes after the warm-up: the
/// baseline `bench.trace_overhead` and the `stage.*` medians come from.
pub const TRACE_BASELINE_REPS: usize = 2;

/// What the child was asked to do.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum Mode {
    Measure,
    Setup,
    Trace,
}

impl Mode {
    pub fn parse(text: &str) -> Option<Mode> {
        match text {
            "measure" => Some(Mode::Measure),
            "setup" => Some(Mode::Setup),
            "trace" => Some(Mode::Trace),
            _ => None,
        }
    }

    pub fn as_str(self) -> &'static str {
        match self {
            Mode::Measure => "measure",
            Mode::Setup => "setup",
            Mode::Trace => "trace",
        }
    }
}

/// Everything one child reports back.
#[derive(Debug, Clone, Default)]
pub struct ChildReport {
    /// Calibrated (see `calib.rs`); the raw timing is `raw_setup_s`.
    pub setup_s: f64,
    pub raw_setup_s: f64,
    /// Calibrated; the raw timings are `raw_wall_samples`.
    pub wall_samples: Vec<f64>,
    pub raw_wall_samples: Vec<f64>,
    pub stage_samples: BTreeMap<String, Vec<f64>>,
    pub attempted: u64,
    pub failed: u64,
    pub failures: Vec<String>,
    pub digest: String,
    pub counts: BTreeMap<String, f64>,
    pub peak_rss_mb: f64,
    pub cpu_s: f64,
    pub per_layer: BTreeMap<String, f64>,
}

impl ChildReport {
    fn absorb(&mut self, rep: &RepOut) {
        self.attempted += rep.attempted;
        self.failed += rep.failed;
        self.failures.extend(rep.failures.iter().cloned());
    }

    fn fail(&mut self, runs: u64, what: String) {
        self.failed += runs.max(1);
        self.failures.push(what);
    }

    pub fn to_json(&self) -> Json {
        let nums = |v: &[f64]| Json::Arr(v.iter().map(|&x| Json::Num(x)).collect());
        let map = |m: &BTreeMap<String, f64>| {
            Json::Obj(m.iter().map(|(k, v)| (k.clone(), Json::Num(*v))).collect())
        };
        Json::obj([
            ("setup_s", Json::Num(self.setup_s)),
            ("raw_setup_s", Json::Num(self.raw_setup_s)),
            ("wall_samples", nums(&self.wall_samples)),
            ("raw_wall_samples", nums(&self.raw_wall_samples)),
            (
                "stage_samples",
                Json::Obj(
                    self.stage_samples
                        .iter()
                        .map(|(k, v)| (k.clone(), nums(v)))
                        .collect(),
                ),
            ),
            ("attempted", Json::u64(self.attempted)),
            ("failed", Json::u64(self.failed)),
            (
                "failures",
                Json::Arr(self.failures.iter().map(Json::str).collect()),
            ),
            ("digest", Json::str(&self.digest)),
            ("counts", map(&self.counts)),
            ("peak_rss_mb", Json::Num(self.peak_rss_mb)),
            ("cpu_s", Json::Num(self.cpu_s)),
            ("per_layer", map(&self.per_layer)),
        ])
    }

    /// Reads a report back from the child's last stdout line.
    pub fn from_json(doc: &Json) -> Result<ChildReport, String> {
        let field = |key: &str| get(doc, key).ok_or_else(|| format!("child report lacks `{key}`"));
        let num = |key: &str| number(field(key)?).ok_or_else(|| format!("`{key}` is not a number"));
        let nums = |value: &Json| match value {
            Json::Arr(items) => items.iter().map(number).collect::<Option<Vec<f64>>>(),
            _ => None,
        };
        let pairs = |key: &str| match field(key)? {
            Json::Obj(pairs) => Ok(pairs),
            _ => Err(format!("`{key}` is not an object")),
        };
        let map = |key: &str| -> Result<BTreeMap<String, f64>, String> {
            pairs(key)?
                .iter()
                .map(|(k, v)| Some((k.clone(), number(v)?)))
                .collect::<Option<_>>()
                .ok_or_else(|| format!("`{key}` holds a non-number"))
        };
        let strings = |key: &str| match field(key)? {
            Json::Arr(items) => Ok(items
                .iter()
                .filter_map(|i| match i {
                    Json::Str(s) => Some(s.clone()),
                    _ => None,
                })
                .collect::<Vec<String>>()),
            _ => Err(format!("`{key}` is not an array")),
        };
        let samples =
            |key: &str| nums(field(key)?).ok_or_else(|| format!("`{key}` is not a number array"));
        Ok(ChildReport {
            setup_s: num("setup_s")?,
            raw_setup_s: num("raw_setup_s")?,
            wall_samples: samples("wall_samples")?,
            raw_wall_samples: samples("raw_wall_samples")?,
            stage_samples: pairs("stage_samples")?
                .iter()
                .map(|(stage, v)| Some((stage.clone(), nums(v)?)))
                .collect::<Option<_>>()
                .ok_or("`stage_samples` holds a non-number array")?,
            attempted: num("attempted")? as u64,
            failed: num("failed")? as u64,
            failures: strings("failures")?,
            digest: match field("digest")? {
                Json::Str(s) => s.clone(),
                _ => return Err("`digest` is not a string".into()),
            },
            counts: map("counts")?,
            peak_rss_mb: num("peak_rss_mb")?,
            cpu_s: num("cpu_s")?,
            per_layer: map("per_layer")?,
        })
    }
}

/// `VmHWM` of this process, MiB.
fn peak_rss_mb() -> f64 {
    std::fs::read_to_string("/proc/self/status")
        .ok()
        .and_then(|s| {
            let line = s.lines().find(|l| l.starts_with("VmHWM:"))?;
            line.split_whitespace().nth(1)?.parse::<f64>().ok()
        })
        .map_or(0.0, |kb| kb / 1024.0)
}

/// CPU time this process has run, seconds (`/proc/self/schedstat`).
fn cpu_s() -> f64 {
    std::fs::read_to_string("/proc/self/schedstat")
        .ok()
        .and_then(|s| s.split_whitespace().next()?.parse::<f64>().ok())
        .map_or(0.0, |ns| ns / 1e9)
}

/// A scratch directory next to the executable — inside the checkout,
/// under the build directory — removed when the child is done.
fn scratch_dir() -> PathBuf {
    let exe = std::env::current_exe().expect("the benchmark knows its own path");
    let dir = exe
        .parent()
        .unwrap_or(Path::new("."))
        .join(format!("prft-benchmark-scratch-{}", std::process::id()));
    std::fs::create_dir_all(&dir).expect("scratch directory inside the build directory");
    dir
}

/// Runs one child to completion.
pub fn run_child(
    workload: &str,
    mode: Mode,
    seed: u64,
    seconds: f64,
    trace_out: Option<&Path>,
    process_start: Instant,
) -> ChildReport {
    let calibrator = Calibrator::start();
    let scratch = scratch_dir();
    let mut report = ChildReport::default();

    let warmup = repetition(workload, seed, &scratch, None);
    report.raw_setup_s = process_start.elapsed().as_secs_f64();
    report.setup_s = report.raw_setup_s * calibrator.scale(process_start, Instant::now());
    report.absorb(&warmup);
    report.digest = warmup.digest.clone();
    eprintln!(
        "[{workload}] set-up (process start to end of warm-up repetition): {:.3} s calibrated, {:.3} s raw",
        report.setup_s, report.raw_setup_s
    );

    let mut done = 0;
    let measuring = Instant::now();
    let enough = |done: usize| match mode {
        Mode::Setup => true,
        Mode::Measure => done >= MIN_REPS && measuring.elapsed().as_secs_f64() >= seconds,
        Mode::Trace => done >= TRACE_BASELINE_REPS,
    };
    while !enough(done) {
        let started = Instant::now();
        let rep = repetition(workload, seed, &scratch, None);
        let calibrated = rep.wall_s * calibrator.scale(started, Instant::now());
        eprintln!(
            "[{workload}] repetition {}: {calibrated:.3} s calibrated, {:.3} s raw",
            done + 1,
            rep.wall_s
        );
        report.absorb(&rep);
        if rep.digest != warmup.digest || rep.counts != warmup.counts {
            report.fail(
                rep.attempted,
                format!(
                    "repetition {} differs from the warm-up repetition",
                    done + 1
                ),
            );
        }
        report.wall_samples.push(calibrated);
        report.raw_wall_samples.push(rep.wall_s);
        for (stage, s) in &rep.stages {
            report
                .stage_samples
                .entry((*stage).to_string())
                .or_default()
                .push(*s);
        }
        done += 1;
    }
    report.counts = warmup
        .counts
        .0
        .iter()
        .map(|(k, v)| ((*k).to_string(), *v))
        .collect();

    match mode {
        Mode::Setup => {}
        Mode::Measure => {
            if workload == "lab-sweep" {
                cold_check(workloads::GRIDS, seed, &warmup, None, &mut report);
            }
        }
        Mode::Trace => trace(
            workload,
            seed,
            &scratch,
            &calibrator,
            &warmup,
            &mut report,
            trace_out,
        ),
    }

    let _ = std::fs::remove_dir_all(&scratch);
    report.peak_rss_mb = peak_rss_mb();
    report.cpu_s = cpu_s();
    if mode == Mode::Trace {
        report.per_layer.insert("bench.cpu_s".into(), report.cpu_s);
        for p in &PER_LAYER {
            report.per_layer.entry(p.name.to_string()).or_insert(0.0);
        }
    }
    report
}

/// Runs the cold reference of one lab-sweep stage and fails the stage's
/// runs unless its records equal the warm repetition's. Returns the cold
/// wall.
fn cold_check(
    stage: &'static str,
    seed: u64,
    warm: &RepOut,
    tracer: Option<&mut Tracer>,
    report: &mut ChildReport,
) -> f64 {
    let (cold, wall_s) = workloads::cold_reference(stage, seed, tracer);
    let warm_digest = warm.records_digests.iter().find(|(s, _)| *s == stage);
    if warm_digest.map(|(_, d)| d) != Some(&cold) {
        report.fail(
            warm.attempted,
            format!("{stage}: warm-start records differ from the cold reference run"),
        );
    }
    wall_s
}

/// The traced repetition, its validity guard, the reference legs and
/// probes, and the per-layer ledger.
fn trace(
    workload: &str,
    seed: u64,
    scratch: &Path,
    calibrator: &Calibrator,
    untraced: &RepOut,
    report: &mut ChildReport,
    trace_out: Option<&Path>,
) {
    let mut tracer = Tracer::new();
    let started = Instant::now();
    let traced = repetition(workload, seed, scratch, Some(&mut tracer));
    let traced_calibrated = traced.wall_s * calibrator.scale(started, Instant::now());
    eprintln!(
        "[{workload}] traced repetition: {traced_calibrated:.3} s calibrated, {:.3} s raw",
        traced.wall_s
    );
    report.absorb(&traced);

    // Validity guard: the wrapper-built run must be the product's run.
    // The digest covers every record's events, heights and workload stats.
    if traced.digest != untraced.digest || traced.counts != untraced.counts {
        report.fail(
            traced.attempted,
            "traced-run validity guard: the traced repetition's records or counts differ from \
             the untraced repetition's"
                .into(),
        );
    }

    let mut ledger: BTreeMap<String, f64> = BTreeMap::new();
    let mut put = |name: &str, value: f64| {
        ledger.insert(name.to_string(), value);
    };

    // Exact counts, straight from the (guard-checked) untraced repetition.
    for p in PER_LAYER.iter().filter(|p| p.class == Exact) {
        put(p.name, untraced.counts.get(p.name));
    }

    // Reference legs that only lab-sweep has.
    let mut cold_tracer = Tracer::new();
    if workload == "lab-sweep" {
        cold_check(
            workloads::REGISTRY,
            seed,
            untraced,
            Some(&mut cold_tracer),
            report,
        );
        let cold_grids_s = cold_check(
            workloads::GRIDS,
            seed,
            untraced,
            Some(&mut cold_tracer),
            report,
        );
        let warm_grids_s = median(&report.stage_samples["stage.grids_warm_s"]);
        put("lab.ckpt_warm_over_cold", cold_grids_s / warm_grids_s);

        let (document, specs) = untraced.probe_input.as_ref().expect("lab-sweep keeps them");
        for (name, value) in probes::lab_probes(document, specs) {
            put(name, value);
        }
        put("lab.pool_efficiency", pool_efficiency(seed, report));
    }

    // Spans of the traced repetition.
    let folded = |layer: &str, kind: &str| tracer.folded(layer, kind).total_ns as f64 / 1e9;
    let core = tracer.folded_layer(CORE);
    let clients = tracer.folded_layer(WORKLOAD);
    let links = tracer.folded_layer(NET);
    let layers = tracer.layer_self_s();
    let layer = |name: &str| layers.get(name).copied().unwrap_or(0.0);
    let events = (core.count + clients.count) as f64;
    put("sim.self_s", layer(SIM));
    if events > 0.0 {
        put("sim.self_ns_per_event", layer(SIM) * 1e9 / events);
    }
    put("net.deliver_calls", links.count as f64);
    put("net.deliver_s", links.total_ns as f64 / 1e9);
    if links.count > 0 {
        put(
            "net.deliver_ns_per_call",
            links.total_ns as f64 / links.count as f64,
        );
    }
    put("core.handler_s", core.total_ns as f64 / 1e9);
    put("core.handler_calls", core.count as f64);
    put("core.handler_max_us", core.max_ns as f64 / 1e3);
    for (metric, kind) in [
        ("core.propose_s", "Propose"),
        ("core.vote_s", "Vote"),
        ("core.commit_s", "Commit"),
        ("core.reveal_s", "Reveal"),
        ("core.final_s", "Final"),
        ("core.submit_s", "Submit"),
        ("core.timer_s", "timer"),
    ] {
        put(metric, folded(CORE, kind));
    }
    put("workload.client_s", clients.total_ns as f64 / 1e9);
    put("workload.client_calls", clients.count as f64);
    put("workload.collect_ms", tracer.total_s("collect") * 1e3);
    put("game.analysis_ms", tracer.total_s("analysis") * 1e3);
    let cell_ms: Vec<f64> = tracer.durations_s("cell").iter().map(|s| s * 1e3).collect();
    put("lab.cell_ms_p50", percentile(&cell_ms, 50.0));
    put("lab.cell_ms_p90", percentile(&cell_ms, 90.0));
    put(
        "lab.build_s",
        tracer.total_s("build") + cold_tracer.total_s("build"),
    );
    put(
        "lab.summarize_s",
        tracer.total_s("summarize") + cold_tracer.total_s("summarize"),
    );
    put("lab.aggregate_ms", tracer.total_s("aggregate") * 1e3);
    put(
        "lab.render_json_ms",
        (tracer.total_s("render_json") + tracer.total_s("render_explore")) * 1e3,
    );
    put("lab.render_csv_ms", tracer.total_s("render_csv") * 1e3);
    put("lab.cache_load_ms", tracer.total_s("cache_load") * 1e3);

    // Probes on single layers.
    let crypto = probes::crypto_probes(seed);
    let verify_ns = crypto
        .iter()
        .find(|(name, _)| *name == "crypto.verify_ns")
        .map_or(0.0, |(_, ns)| *ns);
    let micro = [
        probes::sim_probes(seed),
        probes::net_probes(seed),
        crypto,
        probes::types_probes(),
    ];
    for (name, value) in micro.into_iter().flatten() {
        put(name, value);
    }
    put(
        "crypto.est_s",
        untraced.counts.get("crypto.memo_misses") * verify_ns / 1e9,
    );

    // Untraced stage medians and the measurement's own diagnostics.
    for (stage, samples) in &report.stage_samples {
        put(stage, median(samples));
    }
    let (q1, q3) = quartiles(&report.wall_samples);
    put("bench.wall_iqr_s", q3 - q1);
    put("bench.reps", report.wall_samples.len() as f64);
    put(
        "bench.trace_overhead",
        traced_calibrated / median(&report.wall_samples) - 1.0,
    );
    let attributed: f64 = [SIM, NET, CORE, WORKLOAD, LAB, GAME]
        .iter()
        .map(|l| layer(l))
        .sum();
    put("bench.unattributed_share", 1.0 - attributed / traced.wall_s);

    // Self times over the span tree must add up to the repetition.
    let total: f64 = layers.values().sum();
    if (total - traced.wall_s).abs() > 0.01 * traced.wall_s {
        report.fail(
            1,
            format!(
                "layer self times sum to {total:.4} s but the traced repetition took {:.4} s",
                traced.wall_s
            ),
        );
    }
    eprintln!(
        "[{workload}] self time by layer: {}",
        [SIM, NET, CORE, WORKLOAD, LAB, GAME, OPAQUE, BENCH_LAYER]
            .iter()
            .map(|l| format!("{l} {:.3} s", layer(l)))
            .collect::<Vec<_>>()
            .join(", ")
    );

    if let Some(path) = trace_out {
        if let Err(e) = std::fs::write(path, tracer.to_json().render_pretty()) {
            report.fail(1, format!("cannot write {}: {e}", path.display()));
        }
    }
    report.per_layer = ledger;
}

/// `lab.pool_efficiency`: the registry stage once more on
/// T = min(2, cores) workers; T1 ÷ (T · wall_T), 1.0 = perfect scaling.
fn pool_efficiency(seed: u64, report: &ChildReport) -> f64 {
    let threads = std::thread::available_parallelism()
        .map_or(1, |n| n.get())
        .min(2);
    let started = Instant::now();
    for (name, specs) in workloads::registry_grids(seed) {
        let reports = BatchRunner::new(threads).run_grid_with(
            &specs,
            workloads::REGISTRY_SEEDS,
            Some(&CheckpointStore::default()),
        );
        std::hint::black_box(prft_lab::report::scenario_json(
            name,
            workloads::REGISTRY_SEEDS,
            &reports,
            true,
        ));
        std::hint::black_box(prft_lab::report::scenario_csv(name, &reports));
    }
    let wall_t = started.elapsed().as_secs_f64();
    median(&report.stage_samples["stage.registry_s"]) / (threads as f64 * wall_t)
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn child_report_round_trips_through_its_json_line() {
        let mut report = ChildReport {
            setup_s: 1.25,
            raw_setup_s: 1.5,
            wall_samples: vec![0.5, 0.75],
            raw_wall_samples: vec![0.625, 0.875],
            attempted: 7,
            failed: 1,
            failures: vec!["x: run panicked".into()],
            digest: "ab".repeat(32),
            peak_rss_mb: 12.5,
            cpu_s: 3.0,
            ..ChildReport::default()
        };
        report
            .stage_samples
            .insert("stage.plain_s".into(), vec![0.25]);
        report.counts.insert("sim.events".into(), 922_624.0);
        report.per_layer.insert("core.final_s".into(), 0.125);
        let line = report.to_json().render();
        assert!(!line.contains('\n'));
        let back = ChildReport::from_json(&Json::parse(&line).unwrap()).unwrap();
        assert_eq!(back.to_json().render(), line);
        assert_eq!(back.failures, report.failures);
        assert_eq!(back.counts["sim.events"], 922_624.0);
    }

    #[test]
    fn modes_parse_and_print() {
        for mode in [Mode::Measure, Mode::Setup, Mode::Trace] {
            assert_eq!(Mode::parse(mode.as_str()), Some(mode));
        }
        assert_eq!(Mode::parse("nope"), None);
    }
}
