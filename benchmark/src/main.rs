//! The repo benchmark (see README.md).
//!
//! ```text
//! prft-benchmark run [--workload W] [--seed N] [--seconds S] [--trace 0|1]
//!                    [--traced] [--out FILE] [--trace-out FILE]
//! prft-benchmark check <a.json> <b.json>
//! ```
//!
//! `run --workload W --seed N --seconds S --trace T` is the form the
//! driver calls: one workload, end-to-end metrics (`--trace 0`) or the
//! per-layer ledger (`--trace 1`), a result object on the last stdout
//! line. Without `--workload` it runs all four workloads (`--traced`
//! adds a traced run of each). Exit code 0 means every output check
//! passed.

mod calib;
mod check;
mod child;
mod floor;
mod probes;
mod schema;
mod spans;
mod stats;
mod workloads;
mod wrap;

use child::{ChildReport, Mode};
use prft_lab::json::Json;
use schema::{END_TO_END, PER_LAYER, RUN_SECONDS, WORKLOADS};
use stats::{median, Summary};
use std::collections::BTreeMap;
use std::path::{Path, PathBuf};
use std::process::{Command, ExitCode, Stdio};
use std::time::Instant;

const USAGE: &str = "usage:
  prft-benchmark run [--workload W] [--seed N] [--seconds S] [--trace 0|1]
                     [--traced] [--out FILE] [--trace-out FILE]
  prft-benchmark check <a.json> <b.json>

workloads: committee-large, client-steady, client-backpressure, lab-sweep
  --workload W    run one workload (default: all four)
  --seed N        folded into every spec's base seed (default 0)
  --seconds S     how long one run measures (default 12)
  --trace 0|1     0: end-to-end metrics, 1: the per-layer ledger (default 0)
  --traced        all-workloads mode: add a traced run of each workload
  --out FILE      write every result to FILE (input of `check`)
  --trace-out F   traced run: write the recorded spans to F";

/// One finished run of one workload: what `run` prints and `--out` keeps.
pub struct RunResult {
    pub workload: String,
    pub trace: bool,
    pub attempted: u64,
    pub failed: u64,
    pub failures: Vec<String>,
    pub digest: String,
    /// `(name, value, unit)` in schema order.
    pub metrics: Vec<(&'static str, f64, &'static str)>,
    /// Samples behind the timed end-to-end metrics (calibrated, like the
    /// metrics themselves).
    pub samples: BTreeMap<&'static str, Vec<f64>>,
    /// Uncalibrated medians of the calibrated metrics, for the reader.
    pub raw: BTreeMap<&'static str, f64>,
    /// Work size, printed beside `wall_s`.
    pub runs_per_rep: f64,
    pub events_per_rep: f64,
}

impl RunResult {
    pub fn correct(&self) -> bool {
        self.failed == 0
    }

    /// The four fields the driver's contract names, in its order.
    fn contract_fields(&self) -> Vec<(String, Json)> {
        let metrics = self
            .metrics
            .iter()
            .map(|(name, value, unit)| {
                let metric = Json::obj([("value", Json::Num(*value)), ("unit", Json::str(*unit))]);
                ((*name).to_string(), metric)
            })
            .collect();
        vec![
            ("correct".into(), Json::Bool(self.correct())),
            ("attempted".into(), Json::u64(self.attempted.max(1))),
            ("failed".into(), Json::u64(self.failed)),
            ("metrics".into(), Json::Obj(metrics)),
        ]
    }

    /// The result object the driver reads from the last stdout line.
    pub fn driver_line(&self) -> String {
        Json::Obj(self.contract_fields()).render()
    }

    /// The entry `--out` keeps: the contract fields plus what `check` needs.
    fn to_json(&self) -> Json {
        let samples = self
            .samples
            .iter()
            .map(|(name, values)| {
                let values = values.iter().map(|&x| Json::Num(x)).collect();
                ((*name).to_string(), Json::Arr(values))
            })
            .collect();
        let mut fields = vec![
            ("workload".to_string(), Json::str(&self.workload)),
            ("trace".to_string(), Json::u64(u64::from(self.trace))),
        ];
        fields.extend(self.contract_fields());
        fields.extend([
            ("sim_digest".to_string(), Json::str(&self.digest)),
            ("samples".to_string(), Json::Obj(samples)),
            (
                "failures".to_string(),
                Json::Arr(self.failures.iter().map(Json::str).collect()),
            ),
        ]);
        Json::Obj(fields)
    }

    fn print(&self) {
        let kind = if self.trace {
            "per-layer ledger"
        } else {
            "end-to-end"
        };
        println!("== {} ({kind}) ==", self.workload);
        if let Some(w) = WORKLOADS.iter().find(|w| w.name == self.workload) {
            println!("why: {}", w.why);
        }
        for (name, value, unit) in &self.metrics {
            let mut line = format!("{name:<28} {value:>16.6} {unit}");
            if let Some(samples) = self.samples.get(name).filter(|s| !s.is_empty()) {
                let s = Summary::of(samples);
                line.push_str(&format!(
                    "   median of {} (q1 {:.4}, q3 {:.4}, min {:.4}, max {:.4})",
                    s.n, s.q1, s.q3, s.min, s.max
                ));
            }
            if let Some(raw) = self.raw.get(name) {
                line.push_str(&format!("   raw {raw:.4}"));
            }
            if *name == "wall_s" {
                line.push_str(&format!(
                    "   per repetition: {} runs, {} sim.events",
                    self.runs_per_rep, self.events_per_rep
                ));
            }
            println!("{line}");
        }
        println!("sim_digest                   {}", self.digest);
        println!(
            "checks                       {} runs attempted, {} failed",
            self.attempted, self.failed
        );
        for failure in &self.failures {
            println!("FAILED CHECK: {failure}");
        }
    }
}

/// Spawns this executable as a `child` and reads its report back.
fn spawn_child(
    workload: &str,
    mode: Mode,
    seed: u64,
    seconds: f64,
    trace_out: Option<&Path>,
) -> Result<ChildReport, String> {
    let exe = std::env::current_exe().map_err(|e| format!("cannot find own executable: {e}"))?;
    let mut command = Command::new(exe);
    command
        .args(["child", "--workload", workload, "--mode", mode.as_str()])
        .args([
            "--seed",
            &seed.to_string(),
            "--seconds",
            &seconds.to_string(),
        ])
        .stdin(Stdio::null())
        .stdout(Stdio::piped())
        .stderr(Stdio::inherit());
    if let Some(path) = trace_out {
        command.arg("--trace-out").arg(path);
    }
    let output = command
        .output()
        .map_err(|e| format!("cannot start the {} child: {e}", mode.as_str()))?;
    if !output.status.success() {
        return Err(format!(
            "the {} child of {workload} ended with {}",
            mode.as_str(),
            output.status
        ));
    }
    let stdout = String::from_utf8_lossy(&output.stdout);
    let line = stdout
        .lines()
        .rev()
        .find(|l| !l.trim().is_empty())
        .ok_or("the child printed no report")?;
    ChildReport::from_json(&Json::parse(line)?)
}

/// Runs one workload once: the `measure` child plus a `setup` child
/// (`--trace 0`), or the `trace` child (`--trace 1`).
fn run_workload(
    workload: &str,
    seed: u64,
    seconds: f64,
    trace: bool,
    trace_out: Option<&Path>,
) -> Result<RunResult, String> {
    let mut samples = BTreeMap::new();
    let mut raw = BTreeMap::new();
    let (main, metrics) = if trace {
        let report = spawn_child(workload, Mode::Trace, seed, seconds, trace_out)?;
        let metrics = PER_LAYER
            .iter()
            .map(|p| {
                (
                    p.name,
                    report.per_layer.get(p.name).copied().unwrap_or(0.0),
                    p.unit,
                )
            })
            .collect();
        (report, metrics)
    } else {
        let mut report = spawn_child(workload, Mode::Measure, seed, seconds, None)?;
        let second = spawn_child(workload, Mode::Setup, seed, seconds, None)?;
        report.attempted += second.attempted;
        report.failed += second.failed;
        report.failures.extend(second.failures);
        if second.digest != report.digest {
            report.failed += second.attempted.max(1);
            report
                .failures
                .push("the set-up child's records differ from the measuring child's".into());
        }
        let setup = vec![report.setup_s, second.setup_s];
        let virt = |name: &str| {
            report
                .counts
                .get(&format!("e2e.{name}"))
                .copied()
                .unwrap_or(0.0)
        };
        let value = |name: &str| match name {
            "wall_s" => median(&report.wall_samples),
            "setup_s" => median(&setup),
            "peak_rss_mb" => report.peak_rss_mb,
            "passed_share" => 1.0 - report.failed as f64 / report.attempted.max(1) as f64,
            other => virt(other),
        };
        let metrics = END_TO_END
            .iter()
            .map(|e| (e.name, value(e.name), e.unit))
            .collect();
        samples.insert("wall_s", report.wall_samples.clone());
        samples.insert("setup_s", setup);
        raw.insert("wall_s", median(&report.raw_wall_samples));
        raw.insert("setup_s", median(&[report.raw_setup_s, second.raw_setup_s]));
        (report, metrics)
    };
    Ok(RunResult {
        workload: workload.to_string(),
        trace,
        attempted: main.attempted,
        failed: main.failed,
        failures: main.failures,
        digest: main.digest,
        metrics,
        samples,
        raw,
        runs_per_rep: main.counts.get("lab.cells").copied().unwrap_or(0.0),
        events_per_rep: main.counts.get("sim.events").copied().unwrap_or(0.0),
    })
}

struct Args {
    workload: Option<String>,
    seed: u64,
    seconds: f64,
    trace: bool,
    traced: bool,
    mode: Option<Mode>,
    out: Option<PathBuf>,
    trace_out: Option<PathBuf>,
}

fn parse_args(args: &[String]) -> Result<Args, String> {
    let mut parsed = Args {
        workload: None,
        seed: 0,
        seconds: RUN_SECONDS as f64,
        trace: false,
        traced: false,
        mode: None,
        out: None,
        trace_out: None,
    };
    let mut it = args.iter();
    while let Some(flag) = it.next() {
        let mut value = || {
            it.next()
                .ok_or_else(|| format!("{flag} needs a value"))
                .map(String::as_str)
        };
        match flag.as_str() {
            "--workload" => {
                let name = value()?;
                if !WORKLOADS.iter().any(|w| w.name == name) {
                    return Err(format!("unknown workload `{name}`"));
                }
                parsed.workload = Some(name.to_string());
            }
            "--seed" => {
                parsed.seed = value()?
                    .parse()
                    .map_err(|_| "--seed must be an unsigned integer".to_string())?;
            }
            "--seconds" => {
                parsed.seconds = value()?
                    .parse()
                    .ok()
                    .filter(|s: &f64| s.is_finite() && *s >= 0.0)
                    .ok_or("--seconds must be a non-negative number")?;
            }
            "--trace" => {
                parsed.trace = match value()? {
                    "0" => false,
                    "1" => true,
                    _ => return Err("--trace must be 0 or 1".into()),
                };
            }
            "--traced" => parsed.traced = true,
            "--mode" => {
                parsed.mode = Some(Mode::parse(value()?).ok_or("unknown child mode")?);
            }
            "--out" => parsed.out = Some(PathBuf::from(value()?)),
            "--trace-out" => parsed.trace_out = Some(PathBuf::from(value()?)),
            other => return Err(format!("unknown argument `{other}`")),
        }
    }
    Ok(parsed)
}

fn run(args: &Args) -> Result<bool, String> {
    let plan: Vec<(&str, bool)> = match &args.workload {
        Some(w) => vec![(w.as_str(), args.trace || args.traced)],
        None => WORKLOADS
            .iter()
            .flat_map(|w| {
                let traced = (args.trace || args.traced).then_some((w.name, true));
                let untraced = (!args.trace).then_some((w.name, false));
                untraced.into_iter().chain(traced)
            })
            .collect(),
    };
    let mut results = Vec::new();
    for (workload, trace) in plan {
        let trace_out = args.trace_out.as_deref().filter(|_| trace);
        let result = run_workload(workload, args.seed, args.seconds, trace, trace_out)?;
        result.print();
        results.push(result);
    }
    if let Some(path) = &args.out {
        let doc = Json::obj([
            ("benchmark", Json::str("prft-benchmark")),
            ("seed", Json::u64(args.seed)),
            (
                "results",
                Json::Arr(results.iter().map(RunResult::to_json).collect()),
            ),
        ]);
        std::fs::write(path, doc.render_pretty())
            .map_err(|e| format!("cannot write {}: {e}", path.display()))?;
    }
    // The driver reads the last stdout line of a single-workload run.
    for result in &results {
        println!("{}", result.driver_line());
    }
    Ok(results.iter().all(RunResult::correct))
}

fn main() -> ExitCode {
    let process_start = Instant::now();
    let argv: Vec<String> = std::env::args().skip(1).collect();
    let outcome = match argv.split_first() {
        Some((cmd, rest)) if cmd == "run" => parse_args(rest).and_then(|args| run(&args)),
        Some((cmd, rest)) if cmd == "child" => parse_args(rest).and_then(|args| {
            let workload = args.workload.as_deref().ok_or("child needs --workload")?;
            let mode = args.mode.ok_or("child needs --mode")?;
            let report = child::run_child(
                workload,
                mode,
                args.seed,
                args.seconds,
                args.trace_out.as_deref(),
                process_start,
            );
            println!("{}", report.to_json().render());
            Ok(true)
        }),
        Some((cmd, rest)) if cmd == "check" => match rest {
            [a, b] => check::check(Path::new(a), Path::new(b)),
            _ => Err("check takes exactly two result files".into()),
        },
        _ => Err(USAGE.to_string()),
    };
    match outcome {
        Ok(true) => ExitCode::SUCCESS,
        Ok(false) => ExitCode::FAILURE,
        Err(message) => {
            eprintln!("{message}");
            ExitCode::from(2)
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn result(trace: bool) -> RunResult {
        let metrics = if trace {
            PER_LAYER.iter().map(|p| (p.name, 1.5, p.unit)).collect()
        } else {
            END_TO_END.iter().map(|e| (e.name, 1.5, e.unit)).collect()
        };
        RunResult {
            workload: "client-steady".into(),
            trace,
            attempted: 4,
            failed: 0,
            failures: Vec::new(),
            digest: "00".repeat(32),
            metrics,
            samples: BTreeMap::new(),
            raw: BTreeMap::new(),
            runs_per_rep: 1.0,
            events_per_rep: 10.0,
        }
    }

    #[test]
    fn driver_line_has_exactly_the_contract_keys_and_metrics() {
        for trace in [false, true] {
            let line = result(trace).driver_line();
            assert!(!line.contains('\n'));
            let Json::Obj(fields) = Json::parse(&line).unwrap() else {
                panic!("not an object")
            };
            let keys: Vec<&str> = fields.iter().map(|(k, _)| k.as_str()).collect();
            assert_eq!(keys, ["correct", "attempted", "failed", "metrics"]);
            let Json::Obj(metrics) = &fields[3].1 else {
                panic!("metrics is not an object")
            };
            let names: Vec<&str> = metrics.iter().map(|(k, _)| k.as_str()).collect();
            let expected: Vec<&str> = if trace {
                PER_LAYER.iter().map(|p| p.name).collect()
            } else {
                END_TO_END.iter().map(|e| e.name).collect()
            };
            assert_eq!(names, expected);
            for (_, metric) in metrics {
                let Json::Obj(pair) = metric else {
                    panic!("metric is not an object")
                };
                let keys: Vec<&str> = pair.iter().map(|(k, _)| k.as_str()).collect();
                assert_eq!(keys, ["value", "unit"]);
            }
        }
    }

    #[test]
    fn arguments_parse_in_the_driver_form() {
        let argv: Vec<String> = "--workload lab-sweep --seed 7 --seconds 3 --trace 1"
            .split(' ')
            .map(String::from)
            .collect();
        let args = parse_args(&argv).unwrap();
        assert_eq!(args.workload.as_deref(), Some("lab-sweep"));
        assert_eq!((args.seed, args.seconds, args.trace), (7, 3.0, true));
        assert!(parse_args(&["--workload".into(), "nope".into()]).is_err());
        assert!(parse_args(&["--trace".into(), "2".into()]).is_err());
        assert!(parse_args(&["--seed".into()]).is_err());
    }
}
