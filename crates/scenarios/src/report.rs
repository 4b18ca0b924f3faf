//! Report emission: JSON documents, CSV tables, and terminal summaries
//! over one scenario's batch reports, plus the equilibrium reports of
//! `prft-lab explore` (schemas documented in `docs/REPORT_SCHEMA.md`).
//!
//! Every reported number is computed or selected exactly once, into the
//! JSON document ([`BatchReport::summary_json`], [`explore_json_with`]'s
//! document). The CSV and terminal renderers are *views*: column and
//! section lists read off that document, so a view cannot show what the
//! document lacks, and a header and its cells cannot shift apart.

use crate::checkpoint::ReuseStats;
use crate::explore::{Exploration, GameDef};
use crate::json::Json;
use crate::record::{BatchReport, BATCH_METRICS};
use prft_game::{
    best_reply_path, best_reply_summary, mixed_analysis, mixture_label, Confidence,
    DynamicsOutcome, SystemState, UtilityTable,
};
use prft_metrics::AsciiTable;

/// Which optional analyses an equilibrium report includes — the
/// `--mixed` / `--dynamics` flags of `prft-lab explore`. Both analyses
/// are pure functions of the finished utility table, so enabling them
/// never perturbs the base report and stays byte-identical at any thread
/// count or memo state.
#[derive(Debug, Clone, Copy, Default, PartialEq, Eq)]
pub struct ExploreOpts {
    /// Append the mixed-strategy equilibrium analysis.
    pub mixed: bool,
    /// Append the best-reply dynamics analysis.
    pub dynamics: bool,
}

/// The JSON document for one scenario run (`prft-lab run <name>`).
///
/// Aggregates are computed in seed-index order, so this document is
/// byte-identical whatever `--threads` was.
pub fn scenario_json(
    scenario: &str,
    seeds: u64,
    reports: &[BatchReport],
    include_runs: bool,
) -> String {
    let batch = if include_runs {
        BatchReport::to_json
    } else {
        BatchReport::summary_json
    };
    Json::obj([
        ("scenario", Json::str(scenario)),
        ("seeds", Json::u64(seeds)),
        ("batches", Json::Arr(reports.iter().map(batch).collect())),
    ])
    .render_pretty()
}

/// The field `key` every report document of this shape carries.
fn field<'a>(doc: &'a Json, key: &str) -> &'a Json {
    doc.get(key)
        .unwrap_or_else(|| panic!("report document lacks `{key}`"))
}

fn text<'a>(doc: &'a Json, key: &str) -> &'a str {
    field(doc, key).as_str().unwrap_or_default()
}

fn num(doc: &Json, key: &str) -> f64 {
    value(field(doc, key))
}

fn items<'a>(doc: &'a Json, key: &str) -> &'a [Json] {
    field(doc, key).as_arr().unwrap_or_default()
}

/// An integer field, as it prints.
fn int(doc: &Json, key: &str) -> String {
    field(doc, key).render()
}

fn value(number: &Json) -> f64 {
    number.as_f64().unwrap_or(f64::NAN)
}

fn holds(doc: &Json, key: &str) -> bool {
    *field(doc, key) == Json::Bool(true)
}

fn joined(parts: impl Iterator<Item = String>, separator: &str) -> String {
    parts.collect::<Vec<_>>().join(separator)
}

/// An object's `(key, count)` pairs (a σ histogram).
fn counts(doc: &Json) -> impl DoubleEndedIterator<Item = (&str, u64)> {
    let Json::Obj(pairs) = doc else {
        panic!("a histogram is an object")
    };
    pairs.iter().map(|(k, v)| (k.as_str(), value(v) as u64))
}

/// Quotes a CSV field when it contains a delimiter, quote, or newline
/// (grid labels like "abs=2,fork=2" would otherwise shift columns).
fn csv_field(s: &str) -> String {
    if s.contains([',', '"', '\n']) {
        format!("\"{}\"", s.replace('"', "\"\""))
    } else {
        s.to_string()
    }
}

/// A document value as a CSV cell: numbers in shortest-roundtrip form, an
/// index array dash-joined (`0-2-1`), and `0` where the document has no
/// such value (a batch without a workload, a counter never touched).
fn csv_cell(value: Option<&Json>) -> String {
    match value {
        None => "0".to_string(),
        Some(Json::Str(s)) => csv_field(s),
        Some(Json::Num(v)) => v.to_string(),
        Some(Json::Arr(items)) => joined(items.iter().map(|i| csv_cell(Some(i))), "-"),
        Some(other) => other.render(),
    }
}

/// One CSV column: its header and how its cell reads off a row object.
type Column<'a> = (String, Box<dyn Fn(&Json) -> String + 'a>);

/// The column holding `value` in every row.
fn constant<'a>(header: &str, value: &'a str) -> Column<'a> {
    (header.to_string(), Box::new(move |_| csv_field(value)))
}

/// The column reading the value at `path` below the row.
fn column<'a>(header: impl Into<String>, path: Vec<&'a str>) -> Column<'a> {
    (header.into(), Box::new(move |row| csv_cell(row.at(&path))))
}

/// One column per key, each named after the row field it reads.
fn keyed<'a>(keys: &'a [&'a str]) -> impl Iterator<Item = Column<'a>> {
    keys.iter().map(|key| column(*key, vec![*key]))
}

/// The column reading item `i` of the row's array `key`.
fn nth<'a>(header: String, key: &'a str, i: usize) -> Column<'a> {
    let item = move |row: &Json| csv_cell(items(row, key).get(i));
    (header, Box::new(item))
}

/// One CSV table: the header line, then a line per row.
fn csv_table<'r>(columns: &[Column], rows: impl IntoIterator<Item = &'r Json>) -> String {
    let line = |cells: Vec<String>| cells.join(",") + "\n";
    let mut out = line(columns.iter().map(|(header, _)| header.clone()).collect());
    for row in rows {
        out.push_str(&line(columns.iter().map(|(_, cell)| cell(row)).collect()));
    }
    out
}

/// The modal key of a batch's σ histogram (ties break toward the earlier,
/// more severe state).
fn modal_sigma(batch: &Json) -> String {
    let hist = counts(field(batch, "sigma_hist"));
    let modal = hist.rev().max_by_key(|&(_, count)| count);
    modal.map_or_else(String::new, |(state, _)| state.to_string())
}

/// The scenario CSV's columns over a batch object, in the object's own
/// order: identity, declared rates, σ histogram, declared aggregates, the
/// verify counter, then the declared workload columns.
fn scenario_columns(scenario: &str) -> Vec<Column<'_>> {
    let declared = |rate: bool| {
        let metrics = BATCH_METRICS.iter().filter(move |m| m.rate == rate);
        metrics.flat_map(|m| {
            let csv = m.csv.iter();
            csv.map(move |(header, below)| column(*header, [&[m.name], *below].concat()))
        })
    };
    let mut columns = vec![constant("scenario", scenario)];
    columns.extend(keyed(&["label", "n", "seeds"]));
    columns.extend(declared(true));
    columns.push(("sigma_modal".to_string(), Box::new(modal_sigma)));
    columns.extend(SystemState::ALL.iter().map(|state| {
        let header = state.symbol().replace("σ_", "sigma_").to_lowercase();
        column(header, vec!["sigma_hist", state.symbol()])
    }));
    columns.extend(declared(false));
    let verifies = vec!["observability", "counters", "crypto.sig_verifies"];
    columns.push(column("sig_verifies_total", verifies));
    columns.extend(prft_workload::METRICS.iter().filter_map(|m| {
        let (header, below) = m.csv?;
        Some(column(header, [&["workload", m.name], below].concat()))
    }));
    columns
}

/// CSV with one row per grid point (aggregate means plus rates). The
/// workload columns read all-zero for batches without a workload section.
pub fn scenario_csv(scenario: &str, reports: &[BatchReport]) -> String {
    let batches: Vec<Json> = reports.iter().map(BatchReport::summary_json).collect();
    csv_table(&scenario_columns(scenario), &batches)
}

/// Human-readable table for the terminal: like the CSV, header and cell
/// pairs over the batch object.
pub fn scenario_table(scenario: &str, seeds: u64, reports: &[BatchReport]) -> String {
    fn mean(batch: &Json, metric: &str) -> f64 {
        num(field(batch, metric), "mean")
    }
    type Cell = fn(&Json) -> String;
    let columns: [(&str, Cell); 8] = [
        ("label", |b| text(b, "label").to_string()),
        ("agree", |b| {
            format!("{:.0}%", num(b, "agreement_rate") * 100.0)
        }),
        ("σ (modal)", |b| {
            let seen = counts(field(b, "sigma_hist")).filter(|&(_, count)| count > 0);
            joined(seen.map(|(state, count)| format!("{state}:{count}")), " ")
        }),
        ("blocks (mean±ci95)", |b| {
            let blocks = field(b, "min_final_height");
            format!("{:.2}±{:.2}", num(blocks, "mean"), num(blocks, "ci95"))
        }),
        ("throughput", |b| format!("{:.2}", mean(b, "throughput"))),
        ("VCs", |b| format!("{:.1}", mean(b, "view_changes"))),
        ("burned", |b| format!("{:.1}", mean(b, "burned_players"))),
        ("msgs/run", |b| format!("{:.0}", mean(b, "total_messages"))),
    ];
    let mut table = AsciiTable::new(columns.iter().map(|(header, _)| *header).collect())
        .with_title(&format!("{scenario} — {seeds} seeded runs per grid point"));
    for batch in reports.iter().map(BatchReport::summary_json) {
        table.row(columns.iter().map(|(_, cell)| cell(&batch)).collect());
    }
    table.render()
}

fn confidence(c: Confidence) -> Json {
    Json::str(match c {
        Confidence::Certified => "certified",
        Confidence::Tentative => "tentative",
    })
}

fn f64_arr(values: &[f64]) -> Json {
    Json::arr(values, |&v| Json::Num(v))
}

fn index_arr(indices: &[usize]) -> Json {
    Json::arr(indices, |&i| Json::u64(i as u64))
}

/// A document object about one profile: its `profile` and `label`, then
/// `rest`.
fn profile_obj<const N: usize>(
    game: &GameDef,
    profile: &[usize],
    rest: [(&'static str, Json); N],
) -> Json {
    let label = Json::str(game.profile_label(profile));
    let head = [("profile", index_arr(profile)), ("label", label)];
    Json::obj(head.into_iter().chain(rest))
}

/// The `mixed` JSON section: solver method plus verified strictly mixed
/// equilibria (pure equilibria stay in `nash`).
fn mixed_json(game: &GameDef, table: &UtilityTable, eps: f64) -> Json {
    let analysis = mixed_analysis(table, eps);
    let equilibrium = |eq: &prft_game::MixedEquilibrium| {
        // `(0.539·π_fork + 0.461·π_bait, …)`, in the game's strategy names.
        let label = mixture_label(&eq.distributions, |p, s| game.label(p, s).to_string());
        Json::obj([
            (
                "distributions",
                Json::arr(&eq.distributions, |d| f64_arr(d)),
            ),
            ("label", Json::str(label)),
            ("expected", f64_arr(&eq.expected)),
            ("regret", Json::Num(eq.regret)),
        ])
    };
    Json::obj([
        ("method", Json::str(analysis.method)),
        ("equilibria", Json::arr(&analysis.equilibria, equilibrium)),
    ])
}

/// The `dynamics` JSON section: the deterministic best-reply path from
/// the game's honest profile plus the whole-space attractor summary.
fn dynamics_json(game: &GameDef, table: &UtilityTable, eps: f64) -> Json {
    let from_honest = best_reply_path(table, game.honest.clone(), eps);
    let summary = best_reply_summary(table, eps);
    let outcome = match from_honest.outcome {
        DynamicsOutcome::Converged => "converged",
        DynamicsOutcome::Cycled => "cycled",
    };
    let labels = |p: &Vec<usize>| Json::str(game.profile_label(p));
    let cycle_start = from_honest.cycle_start.map(|i| Json::u64(i as u64));
    let from_honest = Json::obj([
        ("path", Json::arr(&from_honest.path, |p| index_arr(p))),
        ("labels", Json::arr(&from_honest.path, labels)),
        ("outcome", Json::str(outcome)),
        ("steps", Json::u64(from_honest.steps() as u64)),
        ("cycle_start", cycle_start.unwrap_or(Json::Null)),
    ]);
    let attractor = |(profile, basin): &(Vec<usize>, usize)| {
        profile_obj(game, profile, [("basin", Json::u64(*basin as u64))])
    };
    Json::obj([
        ("from_honest", from_honest),
        ("attractors", Json::arr(&summary.attractors, attractor)),
        ("cycling_starts", Json::u64(summary.cycling_starts as u64)),
        ("longest_path", Json::u64(summary.longest_path as u64)),
    ])
}

/// The equilibrium-report document for one explored game: the one place
/// its analyses run, whatever format the report is then rendered in.
fn explore_doc(game: &GameDef, exploration: &Exploration, eps: f64, opts: ExploreOpts) -> Json {
    let table = &exploration.table;
    let cell = |(profile, stats): (&Vec<usize>, &prft_game::ProfileStats)| {
        let rest = [
            ("sigma", Json::str(stats.sigma.symbol())),
            ("utilities", f64_arr(&stats.utilities)),
            ("ci95", f64_arr(&stats.ci95)),
            ("seeds", Json::u64(stats.seeds)),
        ];
        profile_obj(game, profile, rest)
    };
    let equilibrium = |profile: Vec<usize>| {
        let cert = table.certify_nash(&profile, eps);
        let rest = [
            ("confidence", confidence(cert.confidence)),
            ("worst_gain", Json::Num(cert.worst_gain)),
        ];
        profile_obj(game, &profile, rest)
    };
    // One certificate per player × strategy; DSIC reads the honest ones.
    let strategies = |p: usize| (0..game.strategies[p].len()).map(move |s| (p, s));
    let certs: Vec<_> = (0..game.players())
        .flat_map(strategies)
        .map(|(p, s)| (p, s, table.certify_dominant(p, s, eps)))
        .collect();
    let dominance = |(player, s, cert): &(usize, usize, prft_game::Certificate)| {
        Json::obj([
            ("player", Json::u64(*player as u64)),
            ("strategy", Json::u64(*s as u64)),
            ("label", Json::str(game.label(*player, *s))),
            ("dominant", Json::Bool(cert.holds)),
            ("confidence", confidence(cert.confidence)),
            ("worst_gain", Json::Num(cert.worst_gain)),
        ])
    };
    let honest = certs.iter().filter(|(p, s, _)| game.honest[*p] == *s);
    let holds = honest.clone().all(|(_, _, cert)| cert.holds);
    let weakest = honest.map(|(_, _, cert)| cert.confidence).max();
    let weakest = confidence(weakest.unwrap_or(Confidence::Certified));
    let dsic = [("holds", Json::Bool(holds)), ("confidence", weakest)];
    let strategy_names = |names: &Vec<&str>| Json::arr(names, |&name| Json::str(name));
    let mut doc: Vec<(&str, Json)> = vec![
        ("game", Json::str(game.name)),
        ("seeds", Json::u64(exploration.seeds)),
        ("eps", Json::Num(eps)),
        ("players", Json::u64(game.players() as u64)),
        ("strategies", Json::arr(&game.strategies, strategy_names)),
        ("symmetry", Json::arr(&game.symmetry, |g| index_arr(g))),
        ("cells", Json::arr(table.cells(), cell)),
        ("nash", Json::arr(table.nash_equilibria(eps), equilibrium)),
        ("dominant", Json::arr(&certs, dominance)),
        ("dsic", profile_obj(game, &game.honest, dsic)),
        ("regret", Json::arr(&table.regret_matrix(), |r| f64_arr(r))),
    ];
    if opts.mixed {
        doc.push(("mixed", mixed_json(game, table, eps)));
    }
    if opts.dynamics {
        doc.push(("dynamics", dynamics_json(game, table, eps)));
    }
    Json::obj(doc)
}

/// The equilibrium-report JSON for one explored game (`prft-lab explore
/// run <name> --format json`), with the optional `mixed` / `dynamics`
/// sections selected by `opts`.
///
/// Everything in the document is a pure function of `(game, seeds, eps,
/// opts)` — memo state and thread count never appear, so a sweep served
/// from the memo and a fresh one at any `--threads` emit byte-identical
/// reports.
pub fn explore_json_with(
    game: &GameDef,
    exploration: &Exploration,
    eps: f64,
    opts: ExploreOpts,
) -> String {
    explore_doc(game, exploration, eps, opts).render_pretty()
}

/// CSV over the explored cells: one row per profile, per-player utility
/// and CI columns. Each enabled analysis appends, after a blank line, its
/// own header + rows (a multi-table CSV file; `docs/REPORT_SCHEMA.md`
/// documents the blocks).
pub fn explore_csv_with(
    game: &GameDef,
    exploration: &Exploration,
    eps: f64,
    opts: ExploreOpts,
) -> String {
    let doc = explore_doc(game, exploration, eps, opts);
    let name = text(&doc, "game");
    // Per-player columns over a row's arrays: `u0,ci0,u1,ci1,…`.
    let per_player = |columns: &mut Vec<Column>, arrays: &[(&str, &'static str)]| {
        for p in 0..game.players() {
            let of_player = arrays.iter();
            columns.extend(of_player.map(|(stem, key)| nth(format!("{stem}{p}"), key, p)));
        }
    };
    let mut columns = vec![constant("game", name), column("profile", vec!["profile"])];
    columns.extend(keyed(&["label", "sigma", "seeds"]));
    per_player(&mut columns, &[("u", "utilities"), ("ci", "ci95")]);
    let mut out = csv_table(&columns, items(&doc, "cells"));
    if let Some(mixed) = doc.get("mixed") {
        let method = constant("method", text(mixed, "method"));
        let mut columns = vec![constant("game", name), method];
        columns.extend(keyed(&["label", "regret"]));
        per_player(&mut columns, &[("eu", "expected")]);
        out.push('\n');
        out.push_str(&csv_table(&columns, items(mixed, "equilibria")));
    }
    if let Some(dynamics) = doc.get("dynamics") {
        let mut columns = vec![constant("game", name), column("attractor", vec!["profile"])];
        columns.extend(keyed(&["label", "basin"]));
        out.push('\n');
        out.push_str(&csv_table(&columns, items(dynamics, "attractors")));
        let cycling = csv_cell(dynamics.get("cycling_starts"));
        out.push_str(&format!("{},cycling,—,{cycling}\n", csv_field(name)));
    }
    out
}

/// The `--explain-reuse` accounting table: per-game cell reuse plus the
/// batch-level checkpoint warm-start stats (`prft-lab explore run[-all]
/// --explain-reuse`).
///
/// The per-game columns are scheduling-independent (each cell's source is
/// decided by the batch *plan*, before any work runs). The checkpoint
/// line is batch-level — cells of different games fork from each other's
/// checkpoints, so per-game attribution would be arbitrary — and its
/// counts are deterministic at `--threads 1` (the golden test pins that).
pub fn explain_reuse_table(rows: &[(&str, &Exploration)], stats: ReuseStats) -> String {
    let mut table = AsciiTable::new(vec!["game", "cells", "evaluated", "shared", "by symmetry"])
        .with_title("cell reuse per game (cells = full profile space)");
    for (name, e) in rows {
        table.row(vec![
            name.to_string(),
            e.table.space().len().to_string(),
            e.evaluated.to_string(),
            e.shared.to_string(),
            e.expanded.to_string(),
        ]);
    }
    let mut out = table.render();
    out.push_str(&format!(
        "\ncheckpoint warm starts (whole batch): {} captured, {} forked, \
         {} prefix ticks saved\n",
        stats.created, stats.forked, stats.prefix_ticks_saved
    ));
    out
}

/// Human-readable equilibrium report for the terminal, with the optional
/// mixed/dynamics sections.
pub fn explore_table_with(
    game: &GameDef,
    exploration: &Exploration,
    eps: f64,
    opts: ExploreOpts,
) -> String {
    let doc = explore_doc(game, exploration, eps, opts);
    let (eps, seeds) = (num(&doc, "eps"), int(&doc, "seeds"));
    let profiles = items(&doc, "cells").len();

    let mut headers = vec!["profile".to_string(), "σ".to_string()];
    headers.extend((0..game.players()).map(|p| format!("U(P{p})")));
    let title = format!(
        "{} — {profiles} profiles × {seeds} seeds",
        text(&doc, "game")
    );
    let mut cells =
        AsciiTable::new(headers.iter().map(String::as_str).collect()).with_title(&title);
    for cell in items(&doc, "cells") {
        let mut row = vec![text(cell, "label").to_string(), text(cell, "sigma").into()];
        let per_player = items(cell, "utilities").iter().zip(items(cell, "ci95"));
        row.extend(per_player.map(|(u, ci)| match (value(u), value(ci)) {
            (u, ci) if ci > 0.0 => format!("{u:.3}±{ci:.3}"),
            (u, _) => format!("{u:.3}"),
        }));
        cells.row(row);
    }
    let mut out = cells.render() + "\n";

    out += &format!("\nPure Nash equilibria (ε = {eps}):\n");
    if items(&doc, "nash").is_empty() {
        out += "  (none)\n";
    }
    for ne in items(&doc, "nash") {
        let (label, confidence) = (text(ne, "label"), text(ne, "confidence"));
        let gain = num(ne, "worst_gain");
        out += &format!("  {label}  [{confidence}; worst deviation gain {gain:.3}]\n");
    }

    let headers = vec!["player", "strategy", "dominant", "confidence", "max regret"];
    let mut dom =
        AsciiTable::new(headers).with_title("Dominance and regret (per player × strategy)");
    let regrets = items(&doc, "regret")
        .iter()
        .flat_map(|row| row.as_arr().unwrap_or_default());
    for (cert, regret) in items(&doc, "dominant").iter().zip(regrets) {
        dom.row(vec![
            format!("P{}", int(cert, "player")),
            text(cert, "label").to_string(),
            if holds(cert, "dominant") {
                "✓"
            } else {
                "✗"
            }
            .to_string(),
            text(cert, "confidence").to_string(),
            format!("{:.3}", value(regret)),
        ]);
    }
    out += &format!("\n{}\n", dom.render());

    let dsic = field(&doc, "dsic");
    let verdict = if holds(dsic, "holds") {
        "✓ (every component is weakly dominant)"
    } else {
        "✗"
    };
    out += &format!("\nDSIC at {}: {verdict}\n", text(dsic, "label"));

    if let Some(mixed) = doc.get("mixed") {
        let method = text(mixed, "method");
        out += &format!("\nMixed equilibria ({method}, ε = {eps}):\n");
        if items(mixed, "equilibria").is_empty() {
            out += if method == "unsupported" {
                "  (no exact solver for this game shape — see the dynamics analysis)\n"
            } else {
                "  (none beyond the pure equilibria above)\n"
            };
        }
        for eq in items(mixed, "equilibria") {
            let expected = items(eq, "expected")
                .iter()
                .map(|u| format!("{:.3}", value(u)));
            let (label, expected, regret) =
                (text(eq, "label"), joined(expected, ", "), num(eq, "regret"));
            out += &format!("  {label}  [expected: {expected}; regret {regret:.3e}]\n");
        }
    }

    if let Some(dynamics) = doc.get("dynamics") {
        let from_honest = field(dynamics, "from_honest");
        out += &format!("\nBest-reply dynamics (ε = {eps}):\n");
        let labels = items(from_honest, "labels").iter().filter_map(Json::as_str);
        let trail = joined(labels.map(str::to_string), " → ");
        out += &if text(from_honest, "outcome") == "converged" {
            let steps = int(from_honest, "steps");
            format!("  from honest: converged in {steps} step(s): {trail}\n")
        } else {
            let repeat = field(from_honest, "cycle_start").as_f64().unwrap_or(0.0);
            format!("  from honest: cycles (first repeat at step {repeat}): {trail}\n")
        };
        if items(dynamics, "attractors").is_empty() {
            out += "  attractors: (none — every start cycles)\n";
        } else {
            out += "  attractors (basin / starts):\n";
        }
        for attractor in items(dynamics, "attractors") {
            let (label, basin) = (text(attractor, "label"), int(attractor, "basin"));
            out += &format!("    {label}  {basin}/{profiles}\n");
        }
        let (cycling, longest) = (
            int(dynamics, "cycling_starts"),
            int(dynamics, "longest_path"),
        );
        out += &format!("  cycling starts: {cycling}; longest path: {longest} step(s)\n");
    }
    out
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::record::RunRecord;
    use prft_sim::RunOutcome;

    fn report() -> BatchReport {
        BatchReport::from_records(
            "k=1".into(),
            4,
            vec![RunRecord {
                seed: 9,
                outcome: RunOutcome::Quiescent,
                min_final_height: 3,
                max_final_height: 3,
                agreement: true,
                verdicts: vec![true; crate::record::run_checks().count()],
                burned: vec![2],
                view_changes: 1,
                exposes: 1,
                rounds_entered: 4,
                txs_included: vec![true],
                watched_finalized: vec![],
                sigma: SystemState::HonestExecution,
                throughput: 1.0,
                total_messages: 100,
                total_bytes: 5_000,
                events_dispatched: 20,
                peak_queue_depth: 5,
                in_flight_messages: 0,
                obs: prft_sim::ObsRegistry::new(),
                workload: None,
                utilities: vec![0.0, -10.0],
            }],
        )
    }

    #[test]
    fn json_modes_differ_only_in_runs() {
        let r = [report()];
        let with = scenario_json("s", 1, &r, true);
        let without = scenario_json("s", 1, &r, false);
        assert!(with.contains("\"runs\""));
        assert!(!without.contains("\"runs\""));
        assert!(without.contains("\"agreement_rate\": 1"));
    }

    #[test]
    fn csv_has_header_and_row() {
        let csv = scenario_csv("s", &[report()]);
        let lines: Vec<_> = csv.lines().collect();
        assert_eq!(lines.len(), 2);
        assert!(lines[0].starts_with("scenario,label"));
        assert!(lines[1].starts_with("s,k=1,4,1,1,"));
    }

    #[test]
    fn csv_quotes_labels_with_commas() {
        let mut r = report();
        r.label = "abs=2,fork=2".into();
        let csv = scenario_csv("s", &[r]);
        let row = csv.lines().nth(1).unwrap();
        assert!(row.starts_with("s,\"abs=2,fork=2\",4,"));
        // Column count must match the header whatever the label contains.
        let header_cols = csv.lines().next().unwrap().split(',').count();
        let quoted_extra = 1; // the one comma inside the quoted label
        assert_eq!(row.split(',').count(), header_cols + quoted_extra);
    }

    #[test]
    fn table_renders() {
        let t = scenario_table("s", 1, &[report()]);
        assert!(t.contains("k=1"));
        assert!(t.contains("100%"));
    }

    #[test]
    fn explore_reports_render_the_trap_game() {
        use crate::games::find_game;
        use crate::runner::BatchRunner;
        let game = find_game("trap-k3").unwrap();
        let out = crate::explore::GameExplorer::new(BatchRunner::new(1)).explore(&game, 1);
        let opts = ExploreOpts::default();
        let json = explore_json_with(&game, &out, 1e-9, opts);
        assert!(json.contains("\"game\": \"trap-k3\""));
        assert!(json.contains("\"nash\""));
        // Theorem 3: both all-fork and all-bait are equilibria.
        assert!(json.contains("(π_fork, π_fork, π_fork)"));
        assert!(json.contains("(π_bait, π_bait, π_bait)"));
        let csv = explore_csv_with(&game, &out, 1e-9, opts);
        assert_eq!(csv.lines().count(), 1 + 8, "header + 2^3 profiles");
        assert!(csv
            .lines()
            .next()
            .unwrap()
            .ends_with("u0,ci0,u1,ci1,u2,ci2"));
        let table = explore_table_with(&game, &out, 1e-9, opts);
        assert!(table.contains("Pure Nash equilibria"));
        assert!(table.contains("DSIC"));
    }
}
