//! The `prft-lab` CLI: list and run registered scenarios and explore
//! registered empirical games.
//!
//! `prft-lab help` prints every command and flag; [`COMMANDS`] is the
//! table of which command takes which flag, and a flag outside its
//! command's row is an error. Aggregates are independent of `--threads`:
//! `--threads 1` and `--threads 8` emit byte-identical JSON, for scenario
//! reports and equilibrium reports alike. `run` and `run-all` run their
//! scenarios' grid points as **one** flattened warm-started batch, and
//! `explore run` / `run-all` sweep their games the same way, so games
//! sharing a cache scope evaluate shared cells once (the `shared` count in
//! the stderr stats). The `-all` forms with `--out FILE` also write a
//! machine-readable manifest mapping each scenario (game) to its report
//! file.

use prft_lab::{
    claims, registry, report, BatchReport, BatchRunner, Exploration, GameDef, GameEval,
    GameExplorer, Scenario, ScenarioSpec,
};
use std::io::Write;
use std::process::ExitCode;

/// One command of the CLI: its words, how many operands (words that are
/// neither a flag nor a flag's value) it takes — `None` for any number,
/// the claim ids of `claims` — every flag it accepts, and what runs it.
struct Command {
    name: &'static str,
    operands: Option<usize>,
    flags: &'static [&'static str],
    run: fn(&Options) -> Result<(), String>,
}

/// The CLI, one row per command. `tests/cli.rs` reads this table's quoted
/// words as the commands and flags `usage()` must list, so no other
/// string literal belongs in it.
#[rustfmt::skip]
const COMMANDS: &[Command] = &[
    Command { name: "list", operands: Some(0), flags: &[], run: list_scenarios },
    Command {
        name: "run", operands: Some(1),
        flags: &["--seeds", "--threads", "--format", "--out", "--runs", "--trace-out"],
        run: |opts| run_scenarios(&[scenario(&opts.operands[0])?], opts, false),
    },
    Command {
        name: "run-all", operands: Some(0),
        flags: &["--seeds", "--threads", "--format", "--out", "--runs"],
        run: |opts| run_scenarios(&registry(), opts, true),
    },
    Command { name: "explore list", operands: Some(0), flags: &[], run: list_games },
    Command {
        name: "explore run", operands: Some(1),
        flags: &["--seeds", "--threads", "--format", "--out", "--eps", "--mixed",
                 "--dynamics", "--explain-reuse"],
        run: |opts| explore_games(&[game(&opts.operands[0])?], opts, false),
    },
    Command {
        name: "explore run-all", operands: Some(0),
        flags: &["--seeds", "--threads", "--format", "--out", "--eps", "--mixed",
                 "--dynamics", "--explain-reuse"],
        run: |opts| explore_games(&prft_lab::game_registry(), opts, true),
    },
    Command {
        name: "claims", operands: None,
        flags: &["--threads", "--format", "--out"], run: claims_command,
    },
    Command { name: "diff", operands: Some(2), flags: &["--eps"], run: diff_reports },
];

/// What one command line set. A flag the command does not take stays at
/// its zero value; `seeds` and `eps` stay `None` unless given, and each
/// command applies its own default.
#[derive(Debug, Default)]
struct Options {
    operands: Vec<String>,
    seeds: Option<u64>,
    threads: usize,
    format: Format,
    out: Option<String>,
    runs: bool,
    trace_out: Option<String>,
    eps: Option<f64>,
    mixed: bool,
    dynamics: bool,
    explain_reuse: bool,
}

#[derive(Debug, Default, PartialEq, Clone, Copy)]
enum Format {
    #[default]
    Table,
    Json,
    Csv,
}

fn usage() -> ExitCode {
    eprintln!(
        "usage: prft-lab <command> [operands] [flags]\n\
         \n\
         commands:\n\
         \x20 list                     registered scenarios, which carry fault schedules\n\
         \x20 run <scenario> [flags]   run one scenario's grid\n\
         \x20 run-all [flags]          run every registered scenario as one batch\n\
         \x20 explore list             registered empirical games\n\
         \x20 explore run <game> [flags]\n\
         \x20                          sweep a game's strategy space, report its equilibria\n\
         \x20 explore run-all [flags]  sweep every registered game as one batch (shared\n\
         \x20                          cells evaluate once)\n\
         \x20 diff <a.json> <b.json> [--eps E]\n\
         \x20                          compare two JSON reports, numeric leaves equal within\n\
         \x20                          the relative band E (default 0); exits non-zero and\n\
         \x20                          lists every path that drifted\n\
         \x20 claims [ID…] [--threads T] [--format table|json] [--out FILE]\n\
         \x20                          evaluate the paper's claims table (all rows, or the\n\
         \x20                          given ids); exits non-zero when a verdict disagrees\n\
         \x20 help | --help | -h       print this message\n\
         \n\
         run flags (a flag outside its command's list is an error):\n\
         \x20 --seeds N      seeded runs per grid point (default 16)\n\
         \x20 --threads T    worker threads, 0 = all cores (default 0)\n\
         \x20 --format F     table | json | csv (default table)\n\
         \x20 --out FILE     write the report to FILE instead of stdout (the -all forms\n\
         \x20                write one FILE-<name> per report plus a FILE-manifest index)\n\
         \x20 --runs         include per-run records in JSON output\n\
         \x20 --trace-out F  (run only) also write a Chrome Trace Event JSON of one traced\n\
         \x20                run (seed index 0 of the first grid point) to F — open in\n\
         \x20                Perfetto or chrome://tracing\n\
         \n\
         explore flags: --seeds N (default 8 per profile), --threads, --format, --out,\n\
         \x20 --eps E        equilibrium tolerance, finite and >= 0 (default 1e-9)\n\
         \x20 --mixed        append the mixed-strategy equilibrium analysis\n\
         \x20 --dynamics     append the best-reply dynamics analysis\n\
         \x20 --explain-reuse\n\
         \x20                print the per-game cell-reuse table and the batch's checkpoint\n\
         \x20                warm-start accounting to stderr"
    );
    ExitCode::from(2)
}

/// Fills [`Options`] from the words after `command`'s name. Every flag
/// must be in the command's row, a valued flag must be followed by a word
/// that is not itself a flag, and the operands must be as many as the
/// command takes. Errors name the command. Pure: nothing is read,
/// written or run.
fn parse(command: &Command, args: &[String]) -> Result<Options, String> {
    fill(command, args).map_err(|e| format!("{}: {e}", command.name))
}

fn fill(command: &Command, args: &[String]) -> Result<Options, String> {
    let mut opts = Options::default();
    let mut it = args.iter();
    while let Some(arg) = it.next() {
        let flag = arg.as_str();
        if !flag.starts_with("--") {
            opts.operands.push(arg.clone());
            continue;
        }
        if !command.flags.contains(&flag) {
            return Err(match command.flags {
                [] => format!("takes no flags, got {flag}"),
                flags => format!("does not take {flag} (its flags: {})", flags.join(" ")),
            });
        }
        let mut value = || {
            it.next()
                .filter(|v| !v.starts_with("--"))
                .ok_or_else(|| format!("{flag} needs a value"))
        };
        match flag {
            "--seeds" => match number(flag, value()?)? {
                0 => return Err("--seeds must be at least 1".to_string()),
                seeds => opts.seeds = Some(seeds),
            },
            "--threads" => opts.threads = number(flag, value()?)?,
            "--format" => {
                opts.format = match value()?.as_str() {
                    "table" => Format::Table,
                    "json" => Format::Json,
                    "csv" => Format::Csv,
                    other => return Err(format!("unknown format: {other}")),
                };
            }
            "--out" => opts.out = Some(value()?.clone()),
            "--trace-out" => opts.trace_out = Some(value()?.clone()),
            "--eps" => {
                let eps: f64 = number(flag, value()?)?;
                if !(eps.is_finite() && eps >= 0.0) {
                    return Err(format!("--eps must be finite and >= 0, got {eps}"));
                }
                // `-0` passes the check; the reports print it as 0.
                opts.eps = Some(eps.abs());
            }
            "--runs" => opts.runs = true,
            "--mixed" => opts.mixed = true,
            "--dynamics" => opts.dynamics = true,
            "--explain-reuse" => opts.explain_reuse = true,
            _ => return Err(format!("lists {flag}, which no parse arm reads")),
        }
    }
    match command.operands {
        Some(n) if opts.operands.len() != n => Err(format!(
            "takes {n} operand(s), got {} (see `prft-lab help`)",
            opts.operands.len()
        )),
        _ => Ok(opts),
    }
}

fn number<T: std::str::FromStr>(flag: &str, text: &str) -> Result<T, String> {
    text.parse()
        .map_err(|_| format!("{flag} must be a number, got {text}"))
}

/// Writes `content` to stdout through one locked handle — every byte the
/// CLI prints to stdout comes through here. A reader that closed the pipe
/// early (`prft-lab list | head -1`) is a normal way for a pipeline to
/// end: the process exits 0 silently instead of panicking in `println!`.
/// Any other I/O error is a runtime failure.
fn print_stdout(content: &str) -> Result<(), String> {
    let mut stdout = std::io::stdout().lock();
    match stdout
        .write_all(content.as_bytes())
        .and_then(|()| stdout.flush())
    {
        Ok(()) => Ok(()),
        Err(e) if e.kind() == std::io::ErrorKind::BrokenPipe => std::process::exit(0),
        Err(e) => Err(format!("writing to stdout: {e}")),
    }
}

fn emit(content: String, out: &Option<String>) -> Result<(), String> {
    match out {
        Some(path) => {
            std::fs::write(path, &content).map_err(|e| format!("writing {path}: {e}"))?;
            eprintln!("wrote {path}");
            Ok(())
        }
        None => print_stdout(&content),
    }
}

/// Emits one `(name, report)` per scenario or game: to `--out` verbatim
/// (or stdout) for a single report; for an `-all` command (`manifest`
/// names it), to one `--out` path per name plus a manifest indexing them.
fn emit_reports<'a>(
    reports: impl Iterator<Item = (&'a str, String)>,
    opts: &Options,
    seeds: u64,
    manifest: Option<&str>,
) -> Result<(), String> {
    let mut written: Vec<(String, String)> = Vec::new();
    for (name, content) in reports {
        let out = out_path_for(&opts.out, name, manifest.is_some());
        if let Some(path) = &out {
            written.push((name.to_string(), path.clone()));
        }
        emit(content, &out)?;
    }
    match (manifest, &opts.out) {
        (Some(command), Some(out)) => emit(
            manifest_doc(command, seeds, &written),
            &Some(manifest_path_for(out)),
        ),
        // Nothing written to disk: nothing to index.
        _ => Ok(()),
    }
}

/// `path` as (directory with its slash, file stem, extension with its
/// dot). A dot in a directory (`runs.v2/report`) or opening the file name
/// (`.hidden`) does not start an extension.
fn split_path(path: &str) -> (&str, &str, &str) {
    let (dir, file) = path.split_at(path.rfind('/').map_or(0, |i| i + 1));
    let stem = match file.rfind('.') {
        Some(dot) if dot > 0 => dot,
        _ => file.len(),
    };
    (dir, &file[..stem], &file[stem..])
}

/// The output path for one report: `--out` verbatim for a single one; for
/// an `-all` command, the name is spliced in before the extension so each
/// report survives (instead of the last one overwriting the file).
fn out_path_for(out: &Option<String>, name: &str, multi: bool) -> Option<String> {
    out.as_ref().map(|path| match split_path(path) {
        (dir, stem, ext) if multi => format!("{dir}{stem}-{name}{ext}"),
        _ => path.clone(),
    })
}

fn scenario(name: &str) -> Result<Scenario, String> {
    prft_lab::find(name).ok_or_else(|| format!("unknown scenario: {name} (try `prft-lab list`)"))
}

fn game(name: &str) -> Result<GameDef, String> {
    prft_lab::find_game(name)
        .ok_or_else(|| format!("unknown game: {name} (try `prft-lab explore list`)"))
}

/// `run` and `run-all`: every grid point of `scenarios` as one flattened
/// batch with checkpoint/fork warm starts (grid points sharing a timeline
/// prefix fork from one captured state; the checkpoint_equiv suite pins
/// the reports byte-identical to cold runs), then one report per scenario.
fn run_scenarios(scenarios: &[Scenario], opts: &Options, all: bool) -> Result<(), String> {
    let seeds = opts.seeds.unwrap_or(16);
    let runner = BatchRunner::new(opts.threads);
    for scenario in scenarios {
        eprintln!(
            "running {} ({} grid points × {} seeds, {} threads)",
            scenario.name,
            scenario.specs.len(),
            seeds,
            runner.threads(),
        );
    }
    let specs: Vec<ScenarioSpec> = scenarios.iter().flat_map(|s| s.specs.clone()).collect();
    let mut reports = runner.run_grid(&specs, seeds).into_iter();
    // The trace file goes first: a closed stdout ends the process inside
    // `emit`, and must not cost the user the file they asked for.
    if let Some(path) = &opts.trace_out {
        // One traced run of the first grid point, at the same derived
        // seed the batch used for seed index 0, so the trace lines up
        // with the report next to it.
        let spec = &specs[0];
        let trace = prft_lab::chrome_trace_for(spec, prft_lab::derive_seed(spec.base_seed, 0));
        let rendered = prft_lab::render_chrome_trace(&trace);
        std::fs::write(path, rendered).map_err(|e| format!("writing {path}: {e}"))?;
        // Spans and instants; the per-track metadata is not counted.
        let events = trace
            .iter()
            .filter(|e| e.get("ph").and_then(|ph| ph.as_str()) != Some("M"));
        eprintln!("wrote trace {path} ({} events)", events.count());
    }
    let mut breaches = Vec::new();
    let rendered = scenarios.iter().map(|scenario| {
        let reports: Vec<_> = reports.by_ref().take(scenario.specs.len()).collect();
        let broken = reports.iter().flat_map(BatchReport::breaches);
        breaches.extend(broken.map(|b| format!("{}: {b}", scenario.name)));
        let content = match opts.format {
            Format::Table => report::scenario_table(scenario.name, seeds, &reports),
            Format::Json => report::scenario_json(scenario.name, seeds, &reports, opts.runs),
            Format::Csv => report::scenario_csv(scenario.name, &reports),
        };
        (scenario.name, content)
    });
    // The run-all manifest is a machine-readable index of what was just
    // produced, so downstream tooling never has to re-derive the
    // per-scenario file-naming scheme (schema: docs/REPORT_SCHEMA.md).
    emit_reports(rendered, opts, seeds, all.then_some("run-all"))?;
    invariants_verdict(&breaches)
}

/// The exit path of every command that simulates runs, once its reports
/// are written: a run that broke an invariant row is a failure, named by
/// row, scenario (or game), grid-point label and seed.
fn invariants_verdict(breaches: &[String]) -> Result<(), String> {
    match breaches {
        [] => Ok(()),
        _ => Err(format!(
            "{} invariant breach(es):\n  {}",
            breaches.len(),
            breaches.join("\n  ")
        )),
    }
}

/// `explore run` and `explore run-all`: `games` swept as one flattened
/// batch, then one equilibrium report per game. Cost accounting goes to
/// stderr: a report is a pure function of (game, seeds, eps, analyses),
/// byte-identical whatever the batch shared.
fn explore_games(games: &[GameDef], opts: &Options, all: bool) -> Result<(), String> {
    let seeds = opts.seeds.unwrap_or(8);
    let eps = opts.eps.unwrap_or(1e-9);
    let runner = BatchRunner::new(opts.threads);
    for game in games {
        // Analytic games are evaluated exactly once per profile; announce
        // what will actually happen rather than the requested seed count.
        let per_profile = match (&game.eval, opts.seeds) {
            (GameEval::Analytic(_), None) => "exact evaluation".to_string(),
            (GameEval::Analytic(_), Some(_)) => "exact evaluation, --seeds ignored".to_string(),
            _ => format!("{seeds} seeds"),
        };
        let space = game.space(true);
        eprintln!(
            "exploring {} ({} profiles, {} to evaluate, {per_profile} per profile, {} threads)",
            game.name,
            space.len(),
            space.canonical_profiles().len(),
            runner.threads(),
        );
    }
    let (explorations, reuse) = GameExplorer::new(runner).explore_all_with_stats(games, seeds);
    let analyses = report::ExploreOpts {
        mixed: opts.mixed,
        dynamics: opts.dynamics,
    };
    let rendered = games.iter().zip(&explorations).map(|(game, exploration)| {
        eprintln!(
            "{}: evaluated {} cells, {} shared, {} by symmetry",
            game.name, exploration.evaluated, exploration.shared, exploration.expanded
        );
        let content = match opts.format {
            Format::Table => report::explore_table_with(game, exploration, eps, analyses),
            Format::Json => report::explore_json_with(game, exploration, eps, analyses),
            Format::Csv => report::explore_csv_with(game, exploration, eps, analyses),
        };
        (game.name, content)
    });
    emit_reports(rendered, opts, seeds, all.then_some("explore run-all"))?;
    if opts.explain_reuse {
        let rows: Vec<(&str, &Exploration)> = games
            .iter()
            .zip(&explorations)
            .map(|(g, e)| (g.name, e))
            .collect();
        eprint!("{}", report::explain_reuse_table(&rows, reuse));
    }
    let breaches = games
        .iter()
        .zip(&explorations)
        .flat_map(|(game, exploration)| {
            let broken = exploration.breaches.iter();
            broken.map(move |b| format!("{}: {b}", game.name))
        });
    invariants_verdict(&breaches.collect::<Vec<_>>())
}

fn list_games(_: &Options) -> Result<(), String> {
    let mut table =
        prft_metrics::AsciiTable::new(vec!["game", "space", "evaluated", "description"])
            .with_title("registered games (prft-lab explore run <name>)");
    // Stable name order: the listing is diffable whatever the registry's
    // declaration order becomes.
    let mut games = prft_lab::game_registry();
    games.sort_by_key(|g| g.name);
    for g in games {
        let space = g.space(true);
        table.row(vec![
            g.name.to_string(),
            space.len().to_string(),
            space.canonical_profiles().len().to_string(),
            g.description.to_string(),
        ]);
    }
    print_stdout(&format!("{}\n", table.render()))
}

/// Renders the timeline column for one scenario: the number of scheduled
/// events across its grid, or a dash for static scenarios.
fn timeline_cell(scenario: &Scenario) -> String {
    let events: usize = scenario.specs.iter().map(|s| s.schedule.len()).sum();
    match events {
        0 => "—".to_string(),
        1 => "1 event".to_string(),
        n => format!("{n} events"),
    }
}

fn list_scenarios(_: &Options) -> Result<(), String> {
    let headers = vec!["scenario", "grid", "timeline", "description"];
    let mut table = prft_metrics::AsciiTable::new(headers)
        .with_title("registered scenarios (prft-lab run <name>)");
    for s in registry() {
        table.row(vec![
            s.name.to_string(),
            s.specs.len().to_string(),
            timeline_cell(&s),
            s.description.to_string(),
        ]);
    }
    print_stdout(&format!("{}\n", table.render()))
}

/// The manifest path for an `-all --out` base path: the stem plus
/// `-manifest.json`, whatever the report format was (the manifest itself
/// is always JSON).
fn manifest_path_for(out: &str) -> String {
    let (dir, stem, _) = split_path(out);
    format!("{dir}{stem}-manifest.json")
}

/// The manifest document for a multi-report command (`run-all`,
/// `explore run-all`): name → report file, in run order.
fn manifest_doc(command: &str, seeds: u64, written: &[(String, String)]) -> String {
    use prft_lab::json::Json;
    Json::obj([
        ("command", Json::str(command)),
        ("seeds", Json::u64(seeds)),
        (
            "reports",
            Json::Arr(
                written
                    .iter()
                    .map(|(scenario, file)| {
                        Json::obj([("scenario", Json::str(scenario)), ("file", Json::str(file))])
                    })
                    .collect(),
            ),
        ),
    ])
    .render_pretty()
}

/// `prft-lab diff a.json b.json [--eps E]`: parse both reports and list
/// every path where they disagree beyond the tolerance. Exit code 0 means
/// "same report" (within eps), 1 means drift — scriptable, so CI can pin
/// the determinism contract (`--eps` defaults to 0) without shipping a
/// JSON toolchain.
fn diff_reports(opts: &Options) -> Result<(), String> {
    let [path_a, path_b] = &opts.operands[..] else {
        unreachable!("the diff row takes two operands")
    };
    let eps = opts.eps.unwrap_or(0.0);
    let load = |path: &String| -> Result<prft_lab::json::Json, String> {
        let text = std::fs::read_to_string(path).map_err(|e| format!("reading {path}: {e}"))?;
        prft_lab::json::Json::parse(&text).map_err(|e| format!("{path}: {e}"))
    };
    let a = load(path_a)?;
    let b = load(path_b)?;
    let entries = prft_lab::diff::diff(&a, &b, eps);
    if entries.is_empty() {
        eprintln!("reports match ({path_a} vs {path_b}, eps {eps})");
        return Ok(());
    }
    // Full drift lists can be huge (per-run sections); show enough to
    // localise the problem and summarise the rest.
    const SHOWN: usize = 50;
    let mut listing = String::new();
    for e in entries.iter().take(SHOWN) {
        listing.push_str(&format!("{}: {}\n", e.path, e.detail));
    }
    if entries.len() > SHOWN {
        listing.push_str(&format!("... and {} more\n", entries.len() - SHOWN));
    }
    print_stdout(&listing)?;
    Err(format!(
        "{} difference(s) beyond eps {eps} between {path_a} and {path_b}",
        entries.len()
    ))
}

/// `prft-lab claims [ID…] [options]`: evaluate the claims table (all rows,
/// or the ones the operands name). Seeds are constants of each row.
fn claims_command(opts: &Options) -> Result<(), String> {
    if opts.format == Format::Csv {
        return Err("claims renders as table or json".to_string());
    }
    let results = claims::evaluate(&BatchRunner::new(opts.threads), &opts.operands)?;
    let content = match opts.format {
        Format::Json => claims::to_json(&results).render_pretty(),
        _ => claims::table(&results),
    };
    emit(content, &opts.out)?;
    claims_verdict(&results)
}

/// The exit path of `claims`: any disagreeing check is a failure, named
/// with its evidence (where a broken invariant names its run).
fn claims_verdict(results: &[(&claims::Claim, Vec<claims::Check>)]) -> Result<(), String> {
    let disagreeing: Vec<String> = claims::mismatches(results)
        .map(|(claim, c)| format!("{}: {} ({})", claim.id, c.name, c.evidence_text()))
        .collect();
    match disagreeing.len() {
        0 => Ok(()),
        n => Err(format!(
            "{n} check(s) disagree with their expected verdict:\n  {}",
            disagreeing.join("\n  ")
        )),
    }
}

/// The table row `args` names, and the words after the command's name.
fn command_for(args: &[String]) -> Option<(&'static Command, &[String])> {
    COMMANDS.iter().find_map(|command| {
        let words = command.name.split(' ').count();
        (args.get(..words)?.join(" ") == command.name).then(|| (command, &args[words..]))
    })
}

fn main() -> ExitCode {
    let args: Vec<String> = std::env::args().skip(1).collect();
    match args.first().map(String::as_str) {
        None => return usage(),
        Some("help" | "--help" | "-h") => {
            usage();
            return ExitCode::SUCCESS;
        }
        Some(_) => {}
    }
    let Some((command, rest)) = command_for(&args) else {
        eprintln!("unknown command: {}\n", args.join(" "));
        return usage();
    };
    match parse(command, rest).and_then(|opts| (command.run)(&opts)) {
        Ok(()) => ExitCode::SUCCESS,
        Err(msg) => {
            eprintln!("error: {msg}");
            ExitCode::FAILURE
        }
    }
}

#[cfg(test)]
mod tests {
    use super::{
        claims_verdict, command_for, invariants_verdict, manifest_doc, manifest_path_for,
        out_path_for, parse, timeline_cell, Options, COMMANDS,
    };
    use proptest::prelude::*;

    fn every_flag() -> Vec<&'static str> {
        let mut flags: Vec<&str> = COMMANDS.iter().flat_map(|c| c.flags).copied().collect();
        flags.sort_unstable();
        flags.dedup();
        flags
    }

    /// `line` split at its spaces, looked up in the table and parsed.
    fn parse_line(line: &str) -> Result<Options, String> {
        let args: Vec<String> = line.split(' ').map(String::from).collect();
        let (command, rest) = command_for(&args).ok_or("no such command")?;
        parse(command, rest)
    }

    #[test]
    fn each_command_accepts_exactly_the_flags_its_row_lists() {
        let flags = every_flag();
        assert_eq!(flags.len(), 10, "{flags:?}");
        for command in COMMANDS {
            let operands = " x".repeat(command.operands.unwrap_or(0));
            for flag in &flags {
                let value = match *flag {
                    "--seeds" | "--threads" => " 4",
                    "--format" => " json",
                    "--eps" => " 0.5",
                    "--out" | "--trace-out" => " f",
                    _ => "",
                };
                let line = format!("{}{operands} {flag}{value}", command.name);
                let parsed = parse_line(&line);
                assert_eq!(parsed.is_ok(), command.flags.contains(flag), "{line}");
                if let Err(e) = parsed {
                    assert!(e.starts_with(&format!("{}: ", command.name)), "{e}");
                }
            }
            let bare = parse_line(&format!("{}{operands}", command.name)).expect("bare command");
            assert_eq!((bare.seeds, bare.eps), (None, None));
        }
    }

    #[test]
    fn malformed_values_and_operand_counts_are_errors() {
        for eps in ["NaN", "inf", "-inf", "-1", "x", "--full"] {
            for (command, operands) in [("explore run", "g"), ("diff", "a b")] {
                let e = parse_line(&format!("{command} {operands} --eps {eps}")).unwrap_err();
                assert!(e.starts_with(&format!("{command}: ")), "{e}");
            }
        }
        let eps = parse_line("explore run g --eps -0").unwrap().eps;
        assert_eq!(eps.map(f64::to_bits), Some(0));
        let malformed = "run x --seeds 0|run x --format xml|run x --out|run|explore run|diff a";
        for line in malformed.split('|').chain(["explore", "bogus"]) {
            assert!(parse_line(line).is_err(), "{line}");
        }
        let claims = parse_line("claims thm1 fig2").unwrap();
        assert_eq!(claims.operands, ["thm1", "fig2"]);
    }

    /// The fuzz vocabulary besides the flags: every command word, values
    /// of each shape a flag reads, and junk.
    #[rustfmt::skip]
    const WORDS: &[&str] = &[
        "list", "run", "run-all", "explore", "claims", "diff", "help", "4", "0", "-1", "NaN",
        "inf", "1e-9", "json", "csv", "table", "on", "off", "honest-sync", "", "--", "--bogus",
        "-h",
    ];

    proptest! {
        #![proptest_config(ProptestConfig::with_cases(512))]
        #[test]
        fn parse_never_panics_and_rejects_every_flag_outside_its_row(
            row in 0..COMMANDS.len(),
            picks in proptest::collection::vec(0..WORDS.len() + every_flag().len(), 0..8),
        ) {
            let (command, flags) = (&COMMANDS[row], every_flag());
            let word = |i: usize| WORDS.get(i).copied().unwrap_or_else(|| flags[i - WORDS.len()]);
            let args: Vec<String> = picks.iter().map(|&i| word(i).to_string()).collect();
            let parsed = parse(command, &args);
            if args.iter().any(|a| a.starts_with("--") && !command.flags.contains(&a.as_str())) {
                prop_assert!(parsed.is_err(), "{} {args:?}", command.name);
            }
            if let Ok(opts) = parsed {
                if let Some(n) = command.operands {
                    prop_assert_eq!(opts.operands.len(), n);
                }
                prop_assert!(opts.eps.is_none_or(|e| e.is_finite() && e >= 0.0));
                prop_assert!(opts.seeds != Some(0));
            }
        }
    }

    #[test]
    fn a_check_observed_against_its_expectation_fails_claims() {
        use prft_lab::claims::{Check, Expect, CLAIMS};
        let check = |expected, observed| Check {
            name: "injected".into(),
            expected,
            observed,
            evidence: Vec::new(),
        };
        let agreeing = vec![check(Expect::Holds, true), check(Expect::Breaks, false)];
        assert!(claims_verdict(&[(&CLAIMS[0], agreeing.clone())]).is_ok());
        let mut injected = agreeing;
        injected.push(check(Expect::Breaks, true));
        let err = claims_verdict(&[(&CLAIMS[0], injected)]).unwrap_err();
        assert!(err.starts_with("1 check(s) disagree"), "{err}");
    }

    /// A pool that loses an admitted, unfinalized tx after the run breaks
    /// `tx_census`: the record, the batch count and the exit path name it.
    #[test]
    fn a_lost_transaction_breaks_the_census_and_fails_the_run() {
        use prft_lab::{derive_seed, summarize, BatchReport, ScenarioSpec, TimelineEvent, TxSpec};
        use prft_types::{NodeId, TxId};
        // Tx 7 reaches seat 0 after the last round: it stays pending there.
        let tx = TxSpec {
            id: 7,
            to: Some(0),
            payload: b"tx".to_vec(),
        };
        let spec = ScenarioSpec::new("census", 4, 2).at(100_000, TimelineEvent::InjectTx(tx));
        let seed = derive_seed(spec.base_seed, 0);
        let (mut sim, outcome) = prft_lab::run_sim(&spec, seed, |_| {});
        let kept = summarize(&spec, &sim, seed, outcome);
        assert!(kept.invariants().all(|(_, kept)| kept));
        let seat = sim.node_mut(NodeId(0)).as_replica_mut().expect("a replica");
        assert!(seat.mempool().contains(TxId(7)) && !seat.chain().contains_tx(TxId(7)));
        seat.mempool_mut().remove_included([&TxId(7)]);
        let lost = summarize(&spec, &sim, seed, outcome);
        let broken: Vec<&str> = lost.invariants().filter(|r| !r.1).map(|r| r.0).collect();
        assert_eq!(broken, ["tx_census"]);
        let batch = BatchReport::from_records(spec.label.clone(), spec.n, vec![kept, lost]);
        assert_eq!(batch.broken("tx_census"), 1);
        let breaches: Vec<String> = batch.breaches().map(|b| format!("s: {b}")).collect();
        let err = invariants_verdict(&breaches).unwrap_err();
        assert!(
            err.ends_with(&format!("s: tx_census broken: census seed {seed}")),
            "{err}"
        );
        assert!(invariants_verdict(&[]).is_ok());
    }

    #[test]
    fn timeline_cells_count_scheduled_events() {
        use prft_lab::{Scenario, ScenarioSpec, TimelineEvent};
        let static_scenario = Scenario {
            name: "s",
            description: "d",
            specs: vec![ScenarioSpec::new("x", 4, 1)],
        };
        assert_eq!(timeline_cell(&static_scenario), "—");
        let scheduled = Scenario {
            name: "t",
            description: "d",
            specs: vec![
                ScenarioSpec::new("x", 4, 1).at(5, TimelineEvent::Crash(0)),
                ScenarioSpec::new("y", 4, 1)
                    .at(5, TimelineEvent::Crash(0))
                    .at(9, TimelineEvent::Recover(0)),
            ],
        };
        assert_eq!(timeline_cell(&scheduled), "3 events");
    }

    #[test]
    fn manifest_paths_are_always_json() {
        assert_eq!(manifest_path_for("report.json"), "report-manifest.json");
        assert_eq!(manifest_path_for("nightly.csv"), "nightly-manifest.json");
        assert_eq!(manifest_path_for("out/report"), "out/report-manifest.json");
        assert_eq!(
            manifest_path_for("runs.v2/report.csv"),
            "runs.v2/report-manifest.json"
        );
    }

    #[test]
    fn manifest_lists_reports_in_run_order() {
        let m = manifest_doc(
            "run-all",
            4,
            &[
                ("honest-sync".into(), "report-honest-sync.json".into()),
                ("gst-sweep".into(), "report-gst-sweep.json".into()),
            ],
        );
        assert!(m.contains("\"command\": \"run-all\""));
        assert!(m.contains("\"seeds\": 4"));
        let honest = m.find("honest-sync").unwrap();
        let gst = m.find("gst-sweep").unwrap();
        assert!(honest < gst, "run order preserved");
        assert!(m.contains("\"file\": \"report-gst-sweep.json\""));
    }

    #[test]
    fn out_paths_splice_only_the_filename() {
        let out = Some("report.json".to_string());
        assert_eq!(
            out_path_for(&out, "fork-attack", true).unwrap(),
            "report-fork-attack.json"
        );
        assert_eq!(
            out_path_for(&out, "fork-attack", false).unwrap(),
            "report.json"
        );
        let dotted_dir = Some("runs.v2/report".to_string());
        assert_eq!(
            out_path_for(&dotted_dir, "x", true).unwrap(),
            "runs.v2/report-x"
        );
        let dotted_both = Some("runs.v2/report.csv".to_string());
        assert_eq!(
            out_path_for(&dotted_both, "x", true).unwrap(),
            "runs.v2/report-x.csv"
        );
        let hidden = Some(".hidden".to_string());
        assert_eq!(out_path_for(&hidden, "x", true).unwrap(), ".hidden-x");
        assert_eq!(out_path_for(&None, "x", true), None);
    }
}
