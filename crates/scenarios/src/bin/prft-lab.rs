//! The `prft-lab` CLI: list and run registered scenarios and explore
//! registered empirical games.
//!
//! ```text
//! prft-lab list [--timeline]
//! prft-lab run <scenario> [--seeds N] [--threads T]
//!                         [--format table|json|csv] [--out FILE] [--runs]
//!                         [--trace-out FILE] [--warm-starts on|off]
//! prft-lab run-all [--seeds N] [--threads T] [--out FILE]
//!                  [--warm-starts on|off]
//! prft-lab explore list
//! prft-lab explore run <game> [--seeds N] [--threads T]
//!                             [--format table|json|csv] [--out FILE]
//!                             [--cache DIR] [--full] [--eps E]
//!                             [--mixed] [--dynamics]
//!                             [--warm-starts on|off] [--explain-reuse]
//! prft-lab explore run-all [same options as explore run]
//! prft-lab diff <a.json> <b.json> [--eps E]
//! prft-lab claims [ID…] [--threads T] [--format table|json] [--out FILE]
//! ```
//!
//! Aggregates are independent of `--threads`: `--threads 1` and
//! `--threads 8` emit byte-identical JSON, for scenario reports and
//! equilibrium reports alike. `run-all --out FILE` (and `explore
//! run-all --out FILE`) also writes a machine-readable manifest mapping
//! each scenario (game) to its report file. `explore run-all` sweeps
//! every registered game as **one** flattened work list, so games
//! sharing a cache scope evaluate shared cells once (the `shared` count
//! in the stderr stats).

use prft_lab::{
    claims, registry, report, BatchRunner, CheckpointStore, Exploration, GameDef, GameExplorer,
    Scenario, UtilityCache,
};
use std::io::Write;
use std::process::ExitCode;

struct Options {
    seeds: u64,
    threads: usize,
    format: Format,
    out: Option<String>,
    include_runs: bool,
    cache: Option<String>,
    full: bool,
    eps: f64,
    mixed: bool,
    dynamics: bool,
    seeds_given: bool,
    trace_out: Option<String>,
    warm: bool,
    explain_reuse: bool,
}

#[derive(PartialEq, Clone, Copy)]
enum Format {
    Table,
    Json,
    Csv,
}

fn usage() -> ExitCode {
    eprintln!(
        "usage: prft-lab <command>\n\
         \n\
         commands:\n\
         \x20 list [--timeline]         list registered scenarios\n\
         \x20                           (--timeline adds a column showing\n\
         \x20                           which carry fault schedules)\n\
         \x20 run <scenario> [options]  run one scenario's grid\n\
         \x20 run-all [options]         run every registered scenario\n\
         \x20 explore list              list registered empirical games\n\
         \x20 explore run <game> [options]\n\
         \x20                           sweep a game's strategy space and\n\
         \x20                           report its equilibria\n\
         \x20 explore run-all [options]\n\
         \x20                           sweep every registered game as one\n\
         \x20                           batch (shared cells evaluate once)\n\
         \x20 diff <a.json> <b.json> [--eps E]\n\
         \x20                           compare two JSON reports; numeric\n\
         \x20                           leaves within the relative band E\n\
         \x20                           (default 0 = byte-exact semantics)\n\
         \x20                           count as equal; exits non-zero and\n\
         \x20                           lists every path that drifted\n\
         \x20 claims [ID…] [--threads T] [--format table|json] [--out FILE]\n\
         \x20                           evaluate the paper's claims table\n\
         \x20                           (all rows, or the given ids); exits\n\
         \x20                           non-zero when an observed verdict\n\
         \x20                           differs from the expected one\n\
         \x20 help | --help | -h        print this message\n\
         \n\
         options:\n\
         \x20 --seeds N      seeded runs per grid point (default 16;\n\
         \x20                explore default 8 per profile)\n\
         \x20 --threads T    worker threads, 0 = all cores (default 0)\n\
         \x20 --format F     table | json | csv (default table)\n\
         \x20 --out FILE     write the report to FILE instead of stdout\n\
         \x20                (run-all writes one FILE-<scenario> per\n\
         \x20                scenario plus a FILE-manifest index)\n\
         \x20 --runs         include per-run records in JSON output\n\
         \x20 --trace-out F  also write a Chrome Trace Event JSON of one\n\
         \x20                traced run (seed index 0 of the first grid\n\
         \x20                point) to F — open in Perfetto or\n\
         \x20                chrome://tracing (run only)\n\
         \x20 --warm-starts on|off\n\
         \x20                checkpoint/fork warm starts: cells sharing a\n\
         \x20                timeline prefix fork from one captured state\n\
         \x20                instead of re-simulating it (default on;\n\
         \x20                results are byte-identical either way)\n\
         \n\
         explore options:\n\
         \x20 --cache DIR    reuse finished profile cells from DIR and\n\
         \x20                persist new ones (skips already-swept cells)\n\
         \x20 --full         evaluate every profile even when the game\n\
         \x20                declares a player symmetry\n\
         \x20 --eps E        equilibrium tolerance (default 1e-9)\n\
         \x20 --mixed        append the mixed-strategy equilibrium analysis\n\
         \x20                (support enumeration / symmetric indifference)\n\
         \x20 --dynamics     append the best-reply dynamics analysis\n\
         \x20                (path from honest, attractor basins, cycles)\n\
         \x20 --explain-reuse\n\
         \x20                print a per-game cell-reuse table (cached /\n\
         \x20                shared / symmetry) plus the batch's checkpoint\n\
         \x20                warm-start accounting to stderr"
    );
    ExitCode::from(2)
}

fn parse_options(args: &[String]) -> Result<Options, String> {
    let mut opts = Options {
        seeds: 16,
        threads: 0,
        format: Format::Table,
        out: None,
        include_runs: false,
        cache: None,
        full: false,
        eps: 1e-9,
        mixed: false,
        dynamics: false,
        seeds_given: false,
        trace_out: None,
        warm: true,
        explain_reuse: false,
    };
    let mut it = args.iter();
    while let Some(arg) = it.next() {
        let mut value = |flag: &str| {
            it.next()
                .cloned()
                .ok_or_else(|| format!("{flag} needs a value"))
        };
        match arg.as_str() {
            "--seeds" => {
                opts.seeds = value("--seeds")?
                    .parse()
                    .map_err(|_| "--seeds must be a number".to_string())?;
                opts.seeds_given = true;
            }
            "--threads" => {
                opts.threads = value("--threads")?
                    .parse()
                    .map_err(|_| "--threads must be a number".to_string())?;
            }
            "--format" => {
                opts.format = match value("--format")?.as_str() {
                    "table" => Format::Table,
                    "json" => Format::Json,
                    "csv" => Format::Csv,
                    other => return Err(format!("unknown format: {other}")),
                };
            }
            "--out" => opts.out = Some(value("--out")?),
            "--trace-out" => opts.trace_out = Some(value("--trace-out")?),
            "--warm-starts" => {
                opts.warm = match value("--warm-starts")?.as_str() {
                    "on" => true,
                    "off" => false,
                    other => return Err(format!("--warm-starts must be on or off, got {other}")),
                };
            }
            "--explain-reuse" => opts.explain_reuse = true,
            "--runs" => opts.include_runs = true,
            "--cache" => opts.cache = Some(value("--cache")?),
            "--full" => opts.full = true,
            "--mixed" => opts.mixed = true,
            "--dynamics" => opts.dynamics = true,
            "--eps" => {
                opts.eps = value("--eps")?
                    .parse()
                    .map_err(|_| "--eps must be a number".to_string())?;
            }
            other => return Err(format!("unknown option: {other}")),
        }
    }
    if opts.seeds == 0 {
        return Err("--seeds must be at least 1".to_string());
    }
    Ok(opts)
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

/// The output path for one scenario: `--out` verbatim for a single run;
/// for `run-all`, the scenario name is spliced in before the extension so
/// each scenario's report survives (instead of the last one overwriting
/// the file).
fn out_path_for(out: &Option<String>, scenario: &str, multi: bool) -> Option<String> {
    out.as_ref().map(|path| {
        if !multi {
            return path.clone();
        }
        // Split off the directory first: a dot in a directory component
        // (`runs.v2/report`) is not an extension separator.
        let (dir, file) = match path.rsplit_once('/') {
            Some((dir, file)) => (Some(dir), file),
            None => (None, path.as_str()),
        };
        let file = match file.rsplit_once('.') {
            Some((stem, ext)) if !stem.is_empty() => format!("{stem}-{scenario}.{ext}"),
            _ => format!("{file}-{scenario}"),
        };
        match dir {
            Some(dir) => format!("{dir}/{file}"),
            None => file,
        }
    })
}

/// Builds the configured explorer for the explore subcommands.
fn explorer_for(opts: &Options) -> GameExplorer {
    let mut explorer = GameExplorer::new(BatchRunner::new(opts.threads)).warm_starts(opts.warm);
    if let Some(dir) = &opts.cache {
        explorer = explorer.with_cache(UtilityCache::new(dir));
    }
    if opts.full {
        explorer = explorer.without_symmetry();
    }
    explorer
}

fn report_opts(opts: &Options) -> report::ExploreOpts {
    report::ExploreOpts {
        mixed: opts.mixed,
        dynamics: opts.dynamics,
    }
}

/// Emits one game's equilibrium report. Cost accounting goes to stderr:
/// the report itself is a pure function of (game, seeds, eps, analyses),
/// byte-identical whatever the cache held or the batch shared.
fn emit_exploration(
    game: &GameDef,
    exploration: &Exploration,
    opts: &Options,
    out: Option<String>,
) -> Result<(), String> {
    eprintln!(
        "{}: evaluated {} cells, {} from cache, {} shared, {} by symmetry",
        game.name,
        exploration.evaluated,
        exploration.cached,
        exploration.shared,
        exploration.expanded
    );
    let content = match opts.format {
        Format::Table => report::explore_table_with(game, exploration, opts.eps, report_opts(opts)),
        Format::Json => report::explore_json_with(game, exploration, opts.eps, report_opts(opts)),
        Format::Csv => report::explore_csv_with(game, exploration, opts.eps, report_opts(opts)),
    };
    emit(content, &out)
}

fn explore_game(name: &str, opts: &Options) -> Result<(), String> {
    let Some(game) = prft_lab::find_game(name) else {
        return Err(format!(
            "unknown game: {name} (try `prft-lab explore list`)"
        ));
    };
    let seeds = if opts.seeds_given { opts.seeds } else { 8 };
    // Analytic games are evaluated exactly once per profile; announce what
    // will actually happen rather than the requested seed count.
    let analytic = matches!(game.eval, prft_lab::GameEval::Analytic(_));
    if analytic && opts.seeds_given {
        eprintln!("note: {} is analytic — --seeds is ignored", game.name);
    }
    let space = game.space(!opts.full);
    eprintln!(
        "exploring {} ({} profiles, {} to evaluate, {} per profile, {} threads)",
        game.name,
        space.len(),
        space.canonical_profiles().len(),
        if analytic {
            "exact evaluation".to_string()
        } else {
            format!("{seeds} seeds")
        },
        BatchRunner::new(opts.threads).threads(),
    );
    let (explorations, reuse) =
        explorer_for(opts).explore_all_with_stats(std::slice::from_ref(&game), seeds);
    let exploration = &explorations[0];
    emit_exploration(&game, exploration, opts, opts.out.clone())?;
    if opts.explain_reuse {
        eprint!(
            "{}",
            report::explain_reuse_table(&[(game.name, exploration)], reuse)
        );
    }
    Ok(())
}

/// `explore run-all`: every registered game as one flattened batch.
fn explore_run_all(opts: &Options) -> Result<(), String> {
    let games = prft_lab::game_registry();
    let seeds = if opts.seeds_given { opts.seeds } else { 8 };
    eprintln!(
        "exploring {} games ({} seeds per simulated cell, {} threads, one flattened batch)",
        games.len(),
        seeds,
        BatchRunner::new(opts.threads).threads(),
    );
    let (explorations, reuse) = explorer_for(opts).explore_all_with_stats(&games, seeds);
    let mut written: Vec<(String, String)> = Vec::new();
    for (game, exploration) in games.iter().zip(&explorations) {
        let out = out_path_for(&opts.out, game.name, true);
        if let Some(path) = &out {
            written.push((game.name.to_string(), path.clone()));
        }
        emit_exploration(game, exploration, opts, out)?;
    }
    write_manifest("explore run-all", seeds, &written, &opts.out)?;
    if opts.explain_reuse {
        let rows: Vec<(&str, &Exploration)> = games
            .iter()
            .zip(&explorations)
            .map(|(g, e)| (g.name, e))
            .collect();
        eprint!("{}", report::explain_reuse_table(&rows, reuse));
    }
    Ok(())
}

/// Writes the multi-report manifest next to the per-report files — a
/// no-op without `--out` (nothing was written to disk to index).
fn write_manifest(
    command: &str,
    seeds: u64,
    written: &[(String, String)],
    out: &Option<String>,
) -> Result<(), String> {
    if written.is_empty() {
        return Ok(());
    }
    let manifest_path = manifest_path_for(out.as_ref().expect("out is set"));
    let manifest = manifest_doc(command, seeds, written);
    std::fs::write(&manifest_path, manifest)
        .map_err(|e| format!("writing {manifest_path}: {e}"))?;
    eprintln!("wrote {manifest_path}");
    Ok(())
}

/// `--trace-out` applies to single `run` only: a trace is one seeded
/// run's timeline, so `run-all` (many scenarios, one path) and explore
/// (profile sweeps) have no single run to export.
fn reject_trace_flag(opts: &Options, context: &str) -> Result<(), String> {
    match opts.trace_out {
        Some(_) => Err(format!(
            "--trace-out applies to `run <scenario>` only ({context})"
        )),
        None => Ok(()),
    }
}

/// `--explain-reuse` applies to the explore subcommands only: scenario
/// grids have no cell-reuse plan (no cache, no symmetry, no cross-game
/// sharing) to explain.
fn reject_explain_flag(opts: &Options) -> Result<(), String> {
    if opts.explain_reuse {
        return Err("--explain-reuse applies to explore run/run-all only".to_string());
    }
    Ok(())
}

fn explore_command(args: &[String]) -> Result<(), String> {
    match args.first().map(String::as_str) {
        Some("list") => {
            let mut table =
                prft_metrics::AsciiTable::new(vec!["game", "space", "evaluated", "description"])
                    .with_title("registered games (prft-lab explore run <name>)");
            // Stable name order: the listing is diffable whatever the
            // registry's declaration order becomes.
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
        Some("run") => match args.get(1) {
            Some(name) => parse_options(&args[2..]).and_then(|opts| {
                reject_trace_flag(&opts, "explore sweeps profiles, not one run")?;
                explore_game(name, &opts)
            }),
            None => Err("explore run needs a game name".to_string()),
        },
        Some("run-all") => parse_options(&args[1..]).and_then(|opts| {
            reject_trace_flag(&opts, "explore sweeps profiles, not one run")?;
            explore_run_all(&opts)
        }),
        _ => Err("usage: prft-lab explore <list | run <game> | run-all>".to_string()),
    }
}

/// Renders the `--timeline` column for one scenario: the number of
/// scheduled events across its grid, or a dash for static scenarios.
fn timeline_cell(scenario: &Scenario) -> String {
    let events: usize = scenario.specs.iter().map(|s| s.schedule.len()).sum();
    match events {
        0 => "—".to_string(),
        1 => "1 event".to_string(),
        n => format!("{n} events"),
    }
}

fn list_scenarios(args: &[String]) -> Result<(), String> {
    let mut timeline = false;
    for arg in args {
        if arg == "--timeline" {
            timeline = true;
        } else {
            return Err(format!(
                "unknown list option: {arg} (the only list option is --timeline)"
            ));
        }
    }
    let headers = if timeline {
        vec!["scenario", "grid", "timeline", "description"]
    } else {
        vec!["scenario", "grid", "description"]
    };
    let mut table = prft_metrics::AsciiTable::new(headers)
        .with_title("registered scenarios (prft-lab run <name>)");
    for s in registry() {
        let mut row = vec![s.name.to_string(), s.specs.len().to_string()];
        if timeline {
            row.push(timeline_cell(&s));
        }
        row.push(s.description.to_string());
        table.row(row);
    }
    print_stdout(&format!("{}\n", table.render()))
}

fn run_scenario(scenario: &Scenario, opts: &Options, out: Option<String>) -> Result<(), String> {
    let runner = BatchRunner::new(opts.threads);
    eprintln!(
        "running {} ({} grid points × {} seeds, {} threads)",
        scenario.name,
        scenario.specs.len(),
        opts.seeds,
        runner.threads(),
    );
    // Warm starts are a pure speed knob: grid points sharing a timeline
    // prefix fork from one captured state, and reports stay byte-identical
    // (the checkpoint_equiv suite pins this).
    let store = opts.warm.then(CheckpointStore::default);
    let reports = runner.run_grid_with(&scenario.specs, opts.seeds, store.as_ref());
    let content = match opts.format {
        Format::Table => report::scenario_table(scenario.name, opts.seeds, &reports),
        Format::Json => {
            report::scenario_json(scenario.name, opts.seeds, &reports, opts.include_runs)
        }
        Format::Csv => report::scenario_csv(scenario.name, &reports),
    };
    // The trace file goes first: a closed stdout ends the process inside
    // `emit`, and must not cost the user the file they asked for.
    if let Some(path) = &opts.trace_out {
        // One traced run of the first grid point, at the same derived
        // seed the batch used for seed index 0, so the trace lines up
        // with the report next to it.
        let spec = &scenario.specs[0];
        let trace = prft_lab::chrome_trace_for(spec, prft_lab::derive_seed(spec.base_seed, 0));
        std::fs::write(path, trace.render()).map_err(|e| format!("writing {path}: {e}"))?;
        eprintln!("wrote trace {path} ({} events)", trace.len());
    }
    emit(content, &out)
}

/// The manifest path for a `run-all --out` base path: the stem plus
/// `-manifest.json`, whatever the report format was (the manifest itself
/// is always JSON).
fn manifest_path_for(out: &str) -> String {
    let (dir, file) = match out.rsplit_once('/') {
        Some((dir, file)) => (Some(dir), file),
        None => (None, out),
    };
    let stem = match file.rsplit_once('.') {
        Some((stem, _)) if !stem.is_empty() => stem,
        _ => file,
    };
    match dir {
        Some(dir) => format!("{dir}/{stem}-manifest.json"),
        None => format!("{stem}-manifest.json"),
    }
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
fn diff_reports(args: &[String]) -> Result<(), String> {
    let (Some(path_a), Some(path_b)) = (args.first(), args.get(1)) else {
        return Err("diff needs two report files: prft-lab diff <a.json> <b.json>".to_string());
    };
    let mut eps = 0.0f64;
    let mut it = args[2..].iter();
    while let Some(arg) = it.next() {
        match arg.as_str() {
            "--eps" => {
                eps = it
                    .next()
                    .ok_or("--eps needs a value")?
                    .parse()
                    .map_err(|_| "--eps must be a number".to_string())?;
                if eps.is_nan() || eps < 0.0 {
                    return Err("--eps must be non-negative".to_string());
                }
            }
            other => return Err(format!("unknown diff option: {other}")),
        }
    }
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

/// `prft-lab claims [ID…] [options]`: evaluate the claims table. Seeds are
/// constants of each row, so only the three shared output options apply
/// (each takes a value, so flags sit at the even positions after the ids).
fn claims_command(args: &[String]) -> Result<(), String> {
    let first_flag = args.iter().position(|a| a.starts_with("--"));
    let (ids, flags) = args.split_at(first_flag.unwrap_or(args.len()));
    let allowed = ["--threads", "--format", "--out"];
    if let Some(flag) = flags
        .iter()
        .step_by(2)
        .find(|f| !allowed.contains(&f.as_str()))
    {
        return Err(format!(
            "claims takes only {}, not {flag}",
            allowed.join(", ")
        ));
    }
    let opts = parse_options(flags)?;
    let results = claims::evaluate(&BatchRunner::new(opts.threads), ids)?;
    let content = match opts.format {
        Format::Table => claims::table(&results),
        Format::Json => claims::to_json(&results).render_pretty(),
        Format::Csv => return Err("claims renders as table or json".to_string()),
    };
    emit(content, &opts.out)?;
    claims_verdict(&results)
}

/// The exit path of `claims`: any disagreeing check is a failure.
fn claims_verdict(results: &[(&claims::Claim, Vec<claims::Check>)]) -> Result<(), String> {
    match claims::mismatches(results) {
        0 => Ok(()),
        n => Err(format!("{n} check(s) disagree with their expected verdict")),
    }
}

fn main() -> ExitCode {
    let args: Vec<String> = std::env::args().skip(1).collect();
    let Some(command) = args.first() else {
        return usage();
    };
    let result = match command.as_str() {
        "list" => list_scenarios(&args[1..]),
        "run" => {
            let Some(name) = args.get(1) else {
                return usage();
            };
            match prft_lab::find(name) {
                Some(scenario) => parse_options(&args[2..]).and_then(|opts| {
                    reject_explain_flag(&opts)?;
                    let out = out_path_for(&opts.out, scenario.name, false);
                    run_scenario(&scenario, &opts, out)
                }),
                None => Err(format!("unknown scenario: {name} (try `prft-lab list`)")),
            }
        }
        "run-all" => parse_options(&args[1..]).and_then(|opts| {
            reject_trace_flag(&opts, "run-all would overwrite one trace per scenario")?;
            reject_explain_flag(&opts)?;
            let mut written: Vec<(String, String)> = Vec::new();
            for scenario in registry() {
                let out = out_path_for(&opts.out, scenario.name, true);
                if let Some(path) = &out {
                    written.push((scenario.name.to_string(), path.clone()));
                }
                run_scenario(&scenario, &opts, out)?;
            }
            // A machine-readable index of what was just produced, so
            // downstream tooling never has to re-derive the per-scenario
            // file-naming scheme (schema: docs/REPORT_SCHEMA.md).
            write_manifest("run-all", opts.seeds, &written, &opts.out)
        }),
        "explore" => explore_command(&args[1..]),
        "diff" => diff_reports(&args[1..]),
        "claims" => claims_command(&args[1..]),
        "--help" | "-h" | "help" => {
            usage();
            Ok(())
        }
        _ => {
            eprintln!("unknown command: {command}\n");
            return usage();
        }
    };
    match result {
        Ok(()) => ExitCode::SUCCESS,
        Err(msg) => {
            eprintln!("error: {msg}");
            ExitCode::FAILURE
        }
    }
}

#[cfg(test)]
mod tests {
    use super::{claims_verdict, manifest_doc, manifest_path_for, out_path_for, timeline_cell};

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
