//! `check <a.json> <b.json>`: do two result files (written by
//! `run --out`) agree?
//!
//! Exact metrics — everything the seeded scheduler alone determines: the
//! virtual end-to-end metrics, `passed_share`, every count of the layer
//! table, and `sim_digest` — must be bit-equal. Timed end-to-end metrics
//! must have `b`'s median no worse than `a`'s by more than the metric's
//! bound; when either side's quartile spread is wider than the bound the
//! row reads `unresolved` instead (unless every sample of `b` is better
//! than every sample of `a`). Timed per-layer metrics are shown, not
//! judged. One row per (metric, workload); `Ok(false)` on disagreement.

use crate::schema::{Class, END_TO_END, PER_LAYER};
use crate::stats::Summary;
use prft_lab::json::Json;
use std::path::Path;

/// A row's verdict.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum Verdict {
    Equal,
    Within,
    Info,
    Unresolved,
    Differs,
    Worse,
}

impl Verdict {
    fn label(self) -> &'static str {
        match self {
            Verdict::Equal => "equal",
            Verdict::Within => "within bound",
            Verdict::Info => "info",
            Verdict::Unresolved => "unresolved",
            Verdict::Differs => "DIFFERS",
            Verdict::Worse => "WORSE",
        }
    }

    pub fn disagrees(self) -> bool {
        matches!(self, Verdict::Differs | Verdict::Worse)
    }
}

/// Judges one timed end-to-end metric from both sides' samples (or the
/// single values when no samples were kept).
pub fn judge_timed(a: &[f64], b: &[f64], lower_is_better: bool, bound: f64) -> Verdict {
    let (sa, sb) = (Summary::of(a), Summary::of(b));
    let worse_by = if lower_is_better {
        (sb.median - sa.median) / sa.median
    } else {
        (sa.median - sb.median) / sa.median
    };
    if sa.spread() > bound || sb.spread() > bound {
        let b_always_better = if lower_is_better {
            sb.max < sa.min
        } else {
            sb.min > sa.max
        };
        if !b_always_better {
            return Verdict::Unresolved;
        }
    }
    if worse_by > bound {
        Verdict::Worse
    } else {
        Verdict::Within
    }
}

pub fn get<'a>(doc: &'a Json, key: &str) -> Option<&'a Json> {
    match doc {
        Json::Obj(pairs) => pairs.iter().find(|(k, _)| k == key).map(|(_, v)| v),
        _ => None,
    }
}

pub fn number(doc: &Json) -> Option<f64> {
    match doc {
        Json::Num(v) => Some(*v),
        Json::UInt(v) => Some(*v as f64),
        _ => None,
    }
}

fn load(path: &Path) -> Result<Json, String> {
    let text = std::fs::read_to_string(path)
        .map_err(|e| format!("cannot read {}: {e}", path.display()))?;
    Json::parse(&text).map_err(|e| format!("{}: {e}", path.display()))
}

fn results(doc: &Json) -> Result<&[Json], String> {
    match get(doc, "results") {
        Some(Json::Arr(items)) => Ok(items),
        _ => Err("not a result file: no `results` array".into()),
    }
}

fn metric_value(result: &Json, name: &str) -> Option<f64> {
    number(get(get(get(result, "metrics")?, name)?, "value")?)
}

fn samples(result: &Json, name: &str) -> Option<Vec<f64>> {
    match get(get(result, "samples")?, name)? {
        Json::Arr(items) if !items.is_empty() => items.iter().map(number).collect(),
        _ => None,
    }
}

/// Compares two result files; prints one row per (metric, workload).
pub fn check(a_path: &Path, b_path: &Path) -> Result<bool, String> {
    let (a, b) = (load(a_path)?, load(b_path)?);
    if get(&a, "seed") != get(&b, "seed") {
        return Err(
            "the two files were run with different seeds: exact metrics cannot agree".into(),
        );
    }
    let mut rows: Vec<(String, String, String, String, Verdict)> = Vec::new();
    for ra in results(&a)? {
        let workload = match get(ra, "workload") {
            Some(Json::Str(s)) => s.clone(),
            _ => return Err("a result without a workload name".into()),
        };
        let trace = get(ra, "trace");
        let Some(rb) = results(&b)?
            .iter()
            .find(|r| get(r, "workload") == get(ra, "workload") && get(r, "trace") == trace)
        else {
            rows.push((
                "(run)".into(),
                workload,
                "present".into(),
                "missing".into(),
                Verdict::Differs,
            ));
            continue;
        };
        let traced = trace == Some(&Json::UInt(1));
        let table: Vec<(&str, Class, &str, f64)> = if traced {
            PER_LAYER
                .iter()
                .map(|p| (p.name, p.class, p.better, 0.0))
                .collect()
        } else {
            END_TO_END
                .iter()
                .map(|e| (e.name, e.class, e.better, e.bound))
                .collect()
        };
        for (name, class, better, bound) in table {
            let (Some(va), Some(vb)) = (metric_value(ra, name), metric_value(rb, name)) else {
                rows.push((
                    name.into(),
                    workload.clone(),
                    "?".into(),
                    "?".into(),
                    Verdict::Differs,
                ));
                continue;
            };
            let verdict = match class {
                Class::Exact if va.to_bits() == vb.to_bits() => Verdict::Equal,
                Class::Exact => Verdict::Differs,
                Class::Timed if traced => Verdict::Info,
                Class::Timed => judge_timed(
                    &samples(ra, name).unwrap_or(vec![va]),
                    &samples(rb, name).unwrap_or(vec![vb]),
                    better == "lower",
                    bound,
                ),
            };
            rows.push((
                name.into(),
                workload.clone(),
                format!("{va}"),
                format!("{vb}"),
                verdict,
            ));
        }
        let digest = |r: &Json| match get(r, "sim_digest") {
            Some(Json::Str(s)) => s.clone(),
            _ => "?".into(),
        };
        let (da, db) = (digest(ra), digest(rb));
        let verdict = if da == db && da != "?" {
            Verdict::Equal
        } else {
            Verdict::Differs
        };
        rows.push((
            "sim_digest".into(),
            workload.clone(),
            da[..da.len().min(16)].into(),
            db[..db.len().min(16)].into(),
            verdict,
        ));
    }
    println!(
        "{:<30} {:<20} {:>18} {:>18}  verdict",
        "metric", "workload", "a", "b"
    );
    for (metric, workload, va, vb, verdict) in &rows {
        println!(
            "{metric:<30} {workload:<20} {va:>18} {vb:>18}  {}",
            verdict.label()
        );
    }
    let count = |v: Verdict| rows.iter().filter(|r| r.4 == v).count();
    println!(
        "{} rows: {} equal, {} within bound, {} unresolved, {} info, {} disagree",
        rows.len(),
        count(Verdict::Equal),
        count(Verdict::Within),
        count(Verdict::Unresolved),
        count(Verdict::Info),
        count(Verdict::Differs) + count(Verdict::Worse),
    );
    Ok(!rows.iter().any(|r| r.4.disagrees()))
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn timed_metrics_are_judged_against_their_bound() {
        let a = [1.00, 1.01, 0.99];
        assert_eq!(
            judge_timed(&a, &[1.05, 1.06, 1.04], true, 0.10),
            Verdict::Within
        );
        assert_eq!(
            judge_timed(&a, &[1.20, 1.21, 1.19], true, 0.10),
            Verdict::Worse
        );
        assert_eq!(
            judge_timed(&a, &[0.50, 0.51, 0.49], true, 0.10),
            Verdict::Within
        );
        // higher-is-better flips the direction
        assert_eq!(
            judge_timed(&a, &[0.80, 0.81, 0.79], false, 0.10),
            Verdict::Worse
        );
    }

    #[test]
    fn a_spread_wider_than_the_bound_is_unresolved_unless_b_always_wins() {
        let noisy = [1.0, 1.4, 0.8, 1.2];
        assert_eq!(
            judge_timed(&noisy, &[1.0, 1.0, 1.0], true, 0.10),
            Verdict::Unresolved
        );
        assert_eq!(
            judge_timed(&[1.0, 1.0, 1.0], &noisy, true, 0.10),
            Verdict::Unresolved
        );
        assert_eq!(
            judge_timed(&noisy, &[0.5, 0.6, 0.7], true, 0.10),
            Verdict::Within
        );
    }
}
