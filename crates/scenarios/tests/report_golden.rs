//! Golden files for the six report renderers: `scenario_{json,csv,table}`
//! over a two-point grid (one committee-only point, one workload point)
//! and `explore_{json,csv,table}_with` with both optional analyses on the
//! two analytic games. A renderer refactor that moves an emitted byte
//! fails here instead of needing a hand-run `cmp`. Regenerate after an
//! intentional schema change with:
//!
//! ```text
//! UPDATE_GOLDEN=1 cargo test -p prft-lab --test report_golden
//! ```

use prft_game::Theta;
use prft_lab::report::{self, ExploreOpts};
use prft_lab::{
    find_game, BatchRunner, GameExplorer, Role, ScenarioSpec, UtilitySpec, WorkloadSpec,
};

/// Compares `rendered` with `tests/golden/<name>` (or rewrites the file
/// under `UPDATE_GOLDEN`).
fn assert_golden(name: &str, rendered: &str) {
    let path = format!("{}/tests/golden/{name}", env!("CARGO_MANIFEST_DIR"));
    if std::env::var_os("UPDATE_GOLDEN").is_some() {
        std::fs::write(&path, rendered).expect("write golden");
        return;
    }
    let golden = std::fs::read_to_string(&path)
        .expect("golden file missing — run with UPDATE_GOLDEN=1 to create it");
    assert_eq!(
        rendered, golden,
        "report drifted from tests/golden/{name} \
         (UPDATE_GOLDEN=1 regenerates after intentional changes)"
    );
}

/// The registry's fork attack, committee-only (a mixed σ histogram, burned
/// players, exposes, utilities; the comma in the label exercises CSV
/// quoting and the `wl_*` columns are zero-filled) next to a
/// bounded-mempool workload point (every `wl_*` column and the
/// `workload.*` mirror populated).
fn grid() -> Vec<ScenarioSpec> {
    vec![
        ScenarioSpec::new("fork,colluders=3", 9, 3)
            .base_seed(0xf0_17c)
            .role(
                0,
                Role::EquivocatingLeader {
                    only_round: Some(0),
                },
            )
            .roles(1..=3, Role::ForkColluder)
            .fork_b_group([7, 8])
            .utility(UtilitySpec::standard(Theta::ForkSeeking, 3))
            .horizon(600_000),
        ScenarioSpec::new("wl-bounded", 4, 40)
            .base_seed(0xcab)
            .horizon(40_000)
            .workload(
                WorkloadSpec::poisson(60, 30)
                    .txs_per_client(3)
                    .mempool_capacity(16),
            ),
    ]
}

#[test]
fn scenario_renderers_match_golden_files() {
    const SEEDS: u64 = 2;
    let reports = BatchRunner::new(2).run_grid(&grid(), SEEDS);
    assert!(reports[0].workload.is_none() && reports[1].workload.is_some());
    assert_golden(
        "scenario_runs.json",
        &report::scenario_json("golden", SEEDS, &reports, true),
    );
    assert_golden(
        "scenario.json",
        &report::scenario_json("golden", SEEDS, &reports, false),
    );
    assert_golden("scenario.csv", &report::scenario_csv("golden", &reports));
    assert_golden(
        "scenario.txt",
        &report::scenario_table("golden", SEEDS, &reports),
    );
}

#[test]
fn explore_renderers_match_golden_files() {
    const EPS: f64 = 1e-9;
    let opts = ExploreOpts {
        mixed: true,
        dynamics: true,
    };
    for name in ["trap-k3", "matching-pennies"] {
        let game = find_game(name).expect("registered");
        let out = GameExplorer::new(BatchRunner::new(1)).explore(&game, 1);
        assert_golden(
            &format!("explore_{name}.json"),
            &report::explore_json_with(&game, &out, EPS, opts),
        );
        assert_golden(
            &format!("explore_{name}.csv"),
            &report::explore_csv_with(&game, &out, EPS, opts),
        );
        assert_golden(
            &format!("explore_{name}.txt"),
            &report::explore_table_with(&game, &out, EPS, opts),
        );
    }
}

/// The lines of the first markdown table after `heading` in `doc`, header
/// and separator rows dropped.
fn table_after<'a>(doc: &'a str, heading: &str) -> Vec<&'a str> {
    let section = &doc[doc.find(heading).expect("heading in REPORT_SCHEMA.md")..];
    let rows = section.lines().skip_while(|line| !line.starts_with('|'));
    rows.take_while(|line| line.starts_with('|'))
        .skip(2)
        .collect()
}

/// docs/REPORT_SCHEMA.md is written from the declarations, and stays so:
/// its batch-field table is the batch object's keys, its invariants table
/// names the `INVARIANTS` rows in order, its workload table is
/// `prft_workload::METRICS` row for row, and its CSV header is the one
/// `scenario_csv` emits.
#[test]
fn report_schema_doc_matches_the_declarations() {
    use prft_lab::json::Json;
    use prft_workload::Merge;
    let path = concat!(env!("CARGO_MANIFEST_DIR"), "/../../docs/REPORT_SCHEMA.md");
    let doc = std::fs::read_to_string(path).expect("docs/REPORT_SCHEMA.md");

    let batch = BatchRunner::new(1).run(&grid()[1], 1).to_json();
    let Json::Obj(fields) = &batch else {
        panic!("a batch is an object")
    };
    let keys: Vec<String> = fields.iter().map(|(key, _)| format!("`{key}`")).collect();
    let documented: Vec<&str> = table_after(&doc, "### Batch object")
        .iter()
        .map(|row| row.split('|').nth(1).expect("first cell").trim())
        .collect();
    assert_eq!(
        documented, keys,
        "batch-field table vs BatchReport::to_json"
    );

    let rows: Vec<&str> = table_after(&doc, "### Invariants object")
        .iter()
        .map(|row| row.split('|').nth(1).expect("first cell").trim())
        .collect();
    let names: Vec<String> = prft_lab::INVARIANTS
        .iter()
        .map(|row| format!("`{}`", row.name))
        .collect();
    assert_eq!(rows, names, "invariants table vs INVARIANTS");

    let declared: Vec<String> = prft_lab::WORKLOAD_METRICS
        .iter()
        .map(|m| {
            let per_run = match m.latency_key() {
                Some(key) => format!("latency.{key}"),
                None => m.name.to_string(),
            };
            let (per_batch, mirror) = match m.merge {
                Merge::Constant => ("value", "—".to_string()),
                Merge::Counter(key) => ("aggregate", format!("counter `{key}`")),
                Merge::Gauge(key) => ("aggregate", format!("gauge `{key}`")),
            };
            let csv = m
                .csv
                .map_or("—".to_string(), |(column, _)| format!("`{column}`"));
            let bench = if m.bench { "✓" } else { "—" };
            format!(
                "| `{}` | `{per_run}` | {per_batch} | {mirror} | {csv} | {bench} |",
                m.name
            )
        })
        .collect();
    assert_eq!(
        table_after(&doc, "### Workload object"),
        declared,
        "workload table vs prft_workload::METRICS"
    );

    let csv_section = &doc[doc.find("## Scenario CSV").expect("CSV section")..];
    let fenced: Vec<&str> = csv_section
        .split("```")
        .nth(1)
        .expect("header block")
        .lines()
        .collect();
    let header = report::scenario_csv("", &[]);
    assert_eq!(fenced.concat(), header.trim_end(), "documented CSV header");
}
