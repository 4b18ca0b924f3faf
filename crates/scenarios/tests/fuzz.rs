//! Inputs from outside the program cannot panic it: the JSON reader and
//! the utility-cache loader, fuzzed with the proptest shim at fixed seeds
//! and bounded cases.

use prft_game::{ProfileStats, SystemState};
use prft_lab::json::Json;
use prft_lab::{CacheKey, UtilityCache};
use proptest::prelude::*;

/// Characters a string has to escape or carry through as UTF-8.
const CHARS: &[char] = &[
    'a', 'é', '€', '😀', '"', '\\', '/', '\n', '\r', '\t', '\u{0}', '\u{1f}', '\u{7f}', ' ',
];

/// Fragments of documents, well-formed or not.
const TOKENS: &[&str] = &[
    "{", "}", "[", "]", ",", ":", "\"", "\\", "\"k\"", "\\u", "\\u00e9", "\\ud800", "\\x", "0",
    "-", ".", "e", "+", "12", "1e999", "-0", "null", "tru", "false", " ", "\n", "é", "😀", "\u{0}",
];

fn draw(draws: &mut impl Iterator<Item = u64>) -> u64 {
    draws.next().unwrap_or(0)
}

fn text(draws: &mut impl Iterator<Item = u64>) -> String {
    let len = draw(draws) % 6;
    (0..len)
        .map(|_| CHARS[(draw(draws) % CHARS.len() as u64) as usize])
        .collect()
}

/// A finite document read off `draws`, nested at most `depth` deep. A
/// whole non-negative `f64` is drawn as the `UInt` it renders to.
fn document(draws: &mut impl Iterator<Item = u64>, depth: usize) -> Json {
    let kinds = if depth == 0 { 5 } else { 7 };
    match draw(draws) % kinds {
        0 => Json::Null,
        1 => Json::Bool(draw(draws) & 1 == 1),
        2 => Json::UInt(draw(draws)),
        3 => {
            let bits = draw(draws);
            let v = f64::from_bits(bits);
            if v.is_finite() && (v.fract() != 0.0 || v < 0.0) {
                Json::Num(v)
            } else {
                Json::UInt(bits)
            }
        }
        4 => Json::Str(text(draws)),
        5 => Json::Arr(
            (0..draw(draws) % 4)
                .map(|_| document(draws, depth - 1))
                .collect(),
        ),
        _ => Json::Obj(
            (0..draw(draws) % 4)
                .map(|_| (text(draws), document(draws, depth - 1)))
                .collect(),
        ),
    }
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(512))]
    #[test]
    fn random_finite_documents_round_trip_both_renderings(
        draws in proptest::collection::vec(any::<u64>(), 1..96),
    ) {
        let doc = document(&mut draws.into_iter(), 4);
        prop_assert_eq!(Json::parse(&doc.render()).as_ref(), Ok(&doc));
        prop_assert_eq!(Json::parse(&doc.render_pretty()).as_ref(), Ok(&doc));
    }

    #[test]
    fn token_soup_never_panics_and_a_parsed_document_re_renders_stably(
        picks in proptest::collection::vec(0..TOKENS.len(), 0..24),
    ) {
        let soup: String = picks.iter().map(|&i| TOKENS[i]).collect();
        if let Ok(doc) = Json::parse(&soup) {
            let text = doc.render();
            let again = Json::parse(&text).expect("a rendered document parses");
            prop_assert_eq!(again.render(), text);
        }
    }
}

/// Candidates for the last six of a cache line's eight fields: the first
/// two of a row are what the cache writes, the rest parse as the field's
/// type but are spelled otherwise, are out of range, or are junk.
#[rustfmt::skip]
const FIELDS: [&[&str]; 6] = [
    &["4", "1", "+4", "04", "-1", "18446744073709551616"],
    &["0,2,1", "1", "0,,1", "+1", " 1"],
    &["1,2,3", "0", "1,2,", "-1"],
    &["σ_0", "σ_Fork", "σ_??", "σ_0 "],
    &["0.5,-10.25", "-0,3", "0.50,1", "1e0,2", "NaN,1", "inf,1", "-inf,1", "0.5"],
    &["0,0.125", "0.001,0", "-0.125,0", "0,NaN", "0,inf", "0.0,1", "1"],
];

/// The first field of a line this cache appends: the running build's
/// identity.
fn build_identity(cache: &UtilityCache) -> String {
    let key = CacheKey {
        fingerprint: "k".into(),
        seeds: 1,
        profile: vec![0],
        seats: vec![0],
    };
    let stats = ProfileStats {
        utilities: vec![1.0],
        ci95: vec![0.0],
        seeds: 1,
        sigma: SystemState::Fork,
    };
    cache.append("probe", &[(key, stats)]).unwrap();
    let line = std::fs::read_to_string(cache.dir().join("probe.cells")).unwrap();
    line.split('\t').next().unwrap().to_owned()
}

/// Tab-joined field soup as a one-line cache file, at fixed seeds: each
/// field is one of its row's written forms three times in four, and now
/// and then a field goes missing or one too many trails. The first field
/// is this build's identity or another's, the second a key text. No line
/// panics the loader, and every cell it serves is finite and appends back
/// as the same line.
#[test]
fn cache_field_soup_never_panics_and_every_hit_appends_back_as_its_line() {
    let dir = std::env::temp_dir().join(format!("prft-fuzz-cache-{}", std::process::id()));
    let _ = std::fs::remove_dir_all(&dir);
    std::fs::create_dir_all(&dir).unwrap();
    let cache = UtilityCache::new(&dir);
    let build = build_identity(&cache);
    let builds: &[&str] = &[&build, &build, "v1", "foreign", ""];
    let keys: &[&str] = &[
        "ScenarioSpec { n: 4 }|label:\"a\\tb\"",
        "k",
        "00000000deadbeef",
        "",
    ];
    let rows = [builds, keys].into_iter().chain(FIELDS);
    let draws = proptest::collection::vec(0..16usize, 9..10);
    let mut hits = 0;
    for case in 0..1024 {
        let draw = draws.sample(&mut proptest::test_rng("cache-field-soup", case));
        let mut fields: Vec<&str> = rows
            .clone()
            .zip(&draw)
            .map(|(row, &d)| match d {
                0..12 => row[d % 2],
                _ => row[2 + d % (row.len() - 2)],
            })
            .collect();
        match draw[8] {
            0..8 => drop(fields.remove(draw[8])),
            8 => fields.push("0"),
            _ => {}
        }
        let line = fields.join("\t") + "\n";
        std::fs::write(dir.join("soup.cells"), &line).unwrap();
        let cells: Vec<_> = cache.load("soup").into_iter().collect();
        if cells.is_empty() {
            continue;
        }
        hits += 1;
        let (_, stats) = &cells[0];
        assert!(stats
            .utilities
            .iter()
            .chain(&stats.ci95)
            .all(|v| v.is_finite()));
        let _ = std::fs::remove_file(dir.join("echo.cells"));
        cache.append("echo", &cells).unwrap();
        assert_eq!(
            std::fs::read_to_string(dir.join("echo.cells")).unwrap(),
            line
        );
    }
    let _ = std::fs::remove_dir_all(&dir);
    assert!(hits >= 20, "{hits} of 1024 lines were hits");
}
