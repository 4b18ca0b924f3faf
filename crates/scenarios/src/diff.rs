//! Tolerance-aware comparison of two report documents
//! (`prft-lab diff a.json b.json`).
//!
//! The determinism contract pins reports byte-identical across `--threads`,
//! queue backends, and verify modes — for those, `--eps 0` (the default)
//! and any drift is a bug. The tolerance exists for the *other* use: diffing
//! reports across code revisions or parameter tweaks, where counters are
//! expected to move a little and the question is "did anything move more
//! than ε?". Numeric leaves compare within a relative-or-absolute ε band;
//! everything else (strings, booleans, structure, key sets) must match
//! exactly. Array elements pair up by index — reports are deterministic, so
//! reordering *is* a difference.

use crate::json::Json;

/// One place two documents disagree.
#[derive(Debug, Clone, PartialEq)]
pub struct DiffEntry {
    /// Dotted path from the document root, array steps as `[i]`
    /// (e.g. `reports[0].aggregates.committed_height.mean`).
    pub path: String,
    /// What disagrees there, human-readable.
    pub detail: String,
}

impl DiffEntry {
    fn new(path: &str, detail: String) -> Self {
        DiffEntry {
            path: if path.is_empty() {
                "$".into()
            } else {
                path.into()
            },
            detail,
        }
    }
}

/// Compares two parsed documents. Numbers match when
/// `|a - b| <= eps * max(1, |a|, |b|)` — a relative band that degrades to
/// absolute near zero, so `--eps 0.01` means "within 1%" for large
/// aggregates and "within 0.01" for values under one. Returns every
/// disagreement, in document order; empty means the reports agree.
pub fn diff(a: &Json, b: &Json, eps: f64) -> Vec<DiffEntry> {
    let mut out = Vec::new();
    walk(a, b, eps, "", &mut out);
    out
}

fn type_name(v: &Json) -> &'static str {
    match v {
        Json::Null => "null",
        Json::Bool(_) => "bool",
        Json::UInt(_) | Json::Num(_) => "number",
        Json::Str(_) => "string",
        Json::Arr(_) => "array",
        Json::Obj(_) => "object",
    }
}

fn numbers_match(x: f64, y: f64, eps: f64) -> bool {
    if x == y {
        return true; // covers infinities of the same sign
    }
    if !x.is_finite() || !y.is_finite() {
        return false; // NaN or mismatched infinities never match
    }
    (x - y).abs() <= eps * x.abs().max(y.abs()).max(1.0)
}

fn child_path(path: &str, key: &str) -> String {
    if path.is_empty() {
        key.to_string()
    } else {
        format!("{path}.{key}")
    }
}

fn walk(a: &Json, b: &Json, eps: f64, path: &str, out: &mut Vec<DiffEntry>) {
    // Numbers first: UInt vs Num is a representation detail, not a diff.
    if let (Some(x), Some(y)) = (a.as_f64(), b.as_f64()) {
        if !numbers_match(x, y, eps) {
            let delta = y - x;
            out.push(DiffEntry::new(
                path,
                format!(
                    "{} != {} (delta {delta:+}, eps {eps})",
                    a.render(),
                    b.render()
                ),
            ));
        }
        return;
    }
    match (a, b) {
        (Json::Null, Json::Null) => {}
        (Json::Bool(x), Json::Bool(y)) => {
            if x != y {
                out.push(DiffEntry::new(path, format!("{x} != {y}")));
            }
        }
        (Json::Str(x), Json::Str(y)) => {
            if x != y {
                out.push(DiffEntry::new(path, format!("{x:?} != {y:?}")));
            }
        }
        (Json::Arr(xs), Json::Arr(ys)) => {
            if xs.len() != ys.len() {
                out.push(DiffEntry::new(
                    path,
                    format!("array length {} != {}", xs.len(), ys.len()),
                ));
            }
            for (i, (x, y)) in xs.iter().zip(ys).enumerate() {
                walk(x, y, eps, &format!("{path}[{i}]"), out);
            }
        }
        (Json::Obj(xs), Json::Obj(ys)) => {
            for (k, x) in xs {
                match ys.iter().find(|(yk, _)| yk == k) {
                    Some((_, y)) => walk(x, y, eps, &child_path(path, k), out),
                    None => out.push(DiffEntry::new(
                        &child_path(path, k),
                        "only in first report".to_string(),
                    )),
                }
            }
            for (k, _) in ys {
                if !xs.iter().any(|(xk, _)| xk == k) {
                    out.push(DiffEntry::new(
                        &child_path(path, k),
                        "only in second report".to_string(),
                    ));
                }
            }
        }
        _ => out.push(DiffEntry::new(
            path,
            format!("type mismatch: {} != {}", type_name(a), type_name(b)),
        )),
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn parse(s: &str) -> Json {
        Json::parse(s).unwrap()
    }

    #[test]
    fn identical_documents_produce_no_entries() {
        let doc = parse(r#"{"a": 1, "b": {"c": [1, 2.5, "x"]}}"#);
        assert!(diff(&doc, &doc, 0.0).is_empty());
    }

    #[test]
    fn eps_zero_flags_any_numeric_drift() {
        let a = parse(r#"{"m": 100}"#);
        let b = parse(r#"{"m": 100.000001}"#);
        let d = diff(&a, &b, 0.0);
        assert_eq!(d.len(), 1);
        assert_eq!(d[0].path, "m");
    }

    #[test]
    fn eps_band_is_relative_above_one_absolute_below() {
        let a = parse(r#"{"big": 1000, "small": 0.001}"#);
        let b = parse(r#"{"big": 1005, "small": 0.005}"#);
        assert!(diff(&a, &b, 0.01).is_empty(), "within 1% / 0.01");
        assert_eq!(diff(&a, &b, 1e-6).len(), 2, "tighter eps flags both");
    }

    #[test]
    fn uint_and_num_compare_numerically() {
        let a = Json::obj([("n", Json::u64(4))]);
        let b = Json::obj([("n", Json::Num(4.0))]);
        assert!(diff(&a, &b, 0.0).is_empty());
    }

    #[test]
    fn missing_keys_and_type_mismatches_are_reported_with_paths() {
        let a = parse(r#"{"x": {"y": 1, "gone": 2}, "arr": [1, 2]}"#);
        let b = parse(r#"{"x": {"y": "1"}, "arr": [1], "new": true}"#);
        let d = diff(&a, &b, 0.0);
        let paths: Vec<&str> = d.iter().map(|e| e.path.as_str()).collect();
        assert!(paths.contains(&"x.y"), "type mismatch surfaced: {paths:?}");
        assert!(paths.contains(&"x.gone"));
        assert!(paths.contains(&"arr"));
        assert!(paths.contains(&"new"));
    }

    #[test]
    fn strings_and_bools_never_get_tolerance() {
        let a = parse(r#"{"s": "abc", "b": true}"#);
        let b = parse(r#"{"s": "abd", "b": false}"#);
        assert_eq!(diff(&a, &b, 1e9).len(), 2);
    }
}
