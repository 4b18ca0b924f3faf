//! The committed `CLAIMS.json` and docs/REPRODUCING.md against the
//! claims table they are generated from.

use prft_lab::claims::{evaluate, mismatches, to_json, CLAIMS};
use prft_lab::json::Json;
use prft_lab::BatchRunner;

fn repo_file(path: &str) -> String {
    let full = format!("{}/../../{path}", env!("CARGO_MANIFEST_DIR"));
    std::fs::read_to_string(&full).unwrap_or_else(|e| panic!("{full}: {e}"))
}

/// The `claims` array of a claims document.
fn claims_of(doc: &Json) -> &[Json] {
    doc.get("claims").and_then(Json::as_arr).expect("claims")
}

fn id_of(claim: &Json) -> &str {
    claim.get("id").and_then(Json::as_str).expect("claim id")
}

/// Every row cheap enough for a debug build (≈ 5 s together) is
/// re-evaluated and compared field for field with the committed document.
/// `thm1`, `table1` and `table3` take 7–27 s unoptimized; CI regenerates
/// the whole file in release and `cmp`s it.
#[test]
fn cheap_rows_match_the_committed_document() {
    let ids = [
        "thm2", "thm3", "lemma4", "table2", "claim1", "claim2", "claim3", "fig2", "fig4",
        "ablation",
    ];
    let results = evaluate(&BatchRunner::new(0), &ids.map(String::from)).expect("known ids");
    assert_eq!(results.len(), ids.len());
    assert_eq!(
        mismatches(&results).count(),
        0,
        "a check disagrees with the paper"
    );
    let committed = Json::parse(&repo_file("CLAIMS.json")).expect("CLAIMS.json parses");
    let fresh = to_json(&results);
    for claim in claims_of(&fresh) {
        let id = id_of(claim);
        let pinned = claims_of(&committed).iter().find(|c| id_of(c) == id);
        let drift = prft_lab::diff::diff(pinned.expect("row in CLAIMS.json"), claim, 0.0);
        assert!(
            drift.is_empty(),
            "{id} drifted from CLAIMS.json — if intended, regenerate it with \
             `prft-lab claims --format json --out CLAIMS.json`: {drift:?}"
        );
    }
}

/// CLAIMS.json holds exactly the table's rows, and the three claim tables
/// of docs/REPRODUCING.md name exactly those ids (second column) and only
/// check names (third column, backticked) that the row really emits.
#[test]
fn committed_document_and_reproducing_md_follow_the_table() {
    let table_ids: Vec<&str> = CLAIMS.iter().map(|c| c.id).collect();
    let committed = Json::parse(&repo_file("CLAIMS.json")).expect("CLAIMS.json parses");
    let committed_ids: Vec<&str> = claims_of(&committed).iter().map(id_of).collect();
    assert_eq!(committed_ids, table_ids);

    let doc = repo_file("docs/REPRODUCING.md");
    let mut doc_ids = Vec::new();
    for line in doc.lines().filter(|l| l.starts_with("| **")) {
        let cells: Vec<&str> = line.split(" | ").collect();
        let id = cells[1].trim_matches('`');
        let row = claims_of(&committed).iter().find(|c| id_of(c) == id);
        let checks = row.and_then(|c| c.get("checks")).and_then(Json::as_arr);
        let names: Vec<&str> = checks
            .unwrap_or_else(|| panic!("REPRODUCING.md names unknown claim {id}"))
            .iter()
            .filter_map(|c| c.get("name").and_then(Json::as_str))
            .collect();
        for quoted in cells[2].split('`').skip(1).step_by(2) {
            assert!(names.contains(&quoted), "{id} has no check `{quoted}`");
        }
        doc_ids.push(id);
    }
    assert_eq!(doc_ids, table_ids);
}
