//! Reports read back from outside the program cannot panic it: the JSON
//! reader, fuzzed with the proptest shim at fixed seeds and bounded cases.
//! A finite document round-trips through both renderings, and token soup
//! either fails to parse or re-renders stably.

use prft_lab::json::Json;
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
