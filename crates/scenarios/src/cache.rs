//! The explorer's on-disk utility cache.
//!
//! A sweep cell is expensive (seeds × simulated committee runs) but pure:
//! its result is a function of `(profile, spec key text, seed count)` and
//! of the build that simulated it, because the batch runner derives every
//! per-run seed from the spec's base seed and the run index. The cache
//! persists finished cells so a re-sweep — or a strictly larger sweep
//! sharing profiles with an earlier one — only simulates the cells it has
//! never seen.
//!
//! Format: one append-only text file per cache scope
//! (`<dir>/<scope>.cells`), one line per cell:
//!
//! ```text
//! build <TAB> key <TAB> seeds <TAB> profile(csv) <TAB> seats(csv) <TAB> σ <TAB> utilities(csv) <TAB> ci95(csv)
//! ```
//!
//! `build` is the writing executable's length and mtime: a cache is reused
//! only by the build that wrote it. `key` is the spec's canonical text
//! ([`crate::ScenarioSpec::fingerprint`]); `seats` records which committee
//! seats the utilities were read from, so two games sharing a scope (and
//! even a spec) can never exchange cells measured for different seats.
//!
//! Floats are written with Rust's shortest-roundtrip formatting, so a
//! cache hit reproduces the computed cell *bit-exactly* and cached and
//! uncached sweeps emit byte-identical reports. Unreadable lines are
//! treated as misses (the cell is simply recomputed and re-appended): a
//! line is a hit only if it is exactly what [`UtilityCache::append`] would
//! write for finite utilities and finite, non-negative CIs. The last line
//! for a key wins.

use prft_game::{Profile, ProfileStats, SystemState};
use std::collections::BTreeMap;
use std::io::Write as _;
use std::path::{Path, PathBuf};
use std::sync::OnceLock;
use std::time::UNIX_EPOCH;

/// The identity of one sweep cell.
#[derive(Debug, Clone, PartialEq, Eq, PartialOrd, Ord)]
pub struct CacheKey {
    /// [`crate::ScenarioSpec::fingerprint`] of the cell's spec.
    pub fingerprint: String,
    /// Seeded runs aggregated into the cell.
    pub seeds: u64,
    /// The strategy profile the spec realizes.
    pub profile: Profile,
    /// Committee seats the per-player utilities were read from.
    pub seats: Vec<usize>,
}

/// A directory of per-game cell files.
#[derive(Debug, Clone)]
pub struct UtilityCache {
    dir: PathBuf,
}

impl UtilityCache {
    /// A cache rooted at `dir` (created on first write).
    pub fn new(dir: impl Into<PathBuf>) -> Self {
        UtilityCache { dir: dir.into() }
    }

    /// The cache directory.
    pub fn dir(&self) -> &Path {
        &self.dir
    }

    fn file(&self, game: &str) -> PathBuf {
        self.dir.join(format!("{game}.cells"))
    }

    /// Loads every readable cell this build wrote for `game` (empty when
    /// the file does not exist yet). Later lines shadow earlier ones.
    pub fn load(&self, game: &str) -> BTreeMap<CacheKey, ProfileStats> {
        let mut cells = BTreeMap::new();
        let Some(build) = build() else {
            return cells;
        };
        let Ok(content) = std::fs::read_to_string(self.file(game)) else {
            return cells;
        };
        for line in content.lines() {
            if let Some((key, stats)) = parse_line(build, line) {
                cells.insert(key, stats);
            }
        }
        cells
    }

    /// Appends finished cells for `game`, creating the directory and file
    /// as needed. I/O errors are reported, not fatal — a read-only cache
    /// directory degrades to cache-off behavior.
    pub fn append(&self, game: &str, entries: &[(CacheKey, ProfileStats)]) -> std::io::Result<()> {
        let Some(build) = build().filter(|_| !entries.is_empty()) else {
            return Ok(());
        };
        std::fs::create_dir_all(&self.dir)?;
        let mut file = std::fs::OpenOptions::new()
            .create(true)
            .append(true)
            .open(self.file(game))?;
        let mut out = String::new();
        for (key, stats) in entries {
            out.push_str(&render_line(build, key, stats));
            out.push('\n');
        }
        file.write_all(out.as_bytes())
    }
}

fn csv<T: ToString>(values: &[T]) -> String {
    values
        .iter()
        .map(T::to_string)
        .collect::<Vec<_>>()
        .join(",")
}

fn parse_csv<T: std::str::FromStr>(field: &str) -> Option<Vec<T>> {
    field.split(',').map(|s| s.parse().ok()).collect()
}

/// The running executable's length and modification time — one `stat`,
/// read once per process. `None` (with one warning) when the executable
/// cannot be stat'ed: the cache then reads nothing and writes nothing.
fn build() -> Option<&'static str> {
    static BUILD: OnceLock<Option<String>> = OnceLock::new();
    let stamp = || -> std::io::Result<String> {
        let meta = std::fs::metadata(std::env::current_exe()?)?;
        let mtime = meta.modified()?.duration_since(UNIX_EPOCH);
        let mtime = mtime.map_err(std::io::Error::other)?.as_nanos();
        Ok(format!("{}-{mtime}", meta.len()))
    };
    let warn = |e| eprintln!("warning: utility cache off: cannot stat this executable: {e}");
    BUILD.get_or_init(|| stamp().map_err(warn).ok()).as_deref()
}

fn render_line(build: &str, key: &CacheKey, stats: &ProfileStats) -> String {
    format!(
        "{build}\t{}\t{}\t{}\t{}\t{}\t{}\t{}",
        key.fingerprint,
        key.seeds,
        csv(&key.profile),
        csv(&key.seats),
        stats.sigma.symbol(),
        csv(&stats.utilities),
        csv(&stats.ci95),
    )
}

fn parse_line(build: &str, line: &str) -> Option<(CacheKey, ProfileStats)> {
    let fields: Vec<&str> = line.split('\t').collect();
    let [_, fingerprint, seeds, profile, seats, sigma, utilities, ci95] = fields[..] else {
        return None;
    };
    let seeds: u64 = seeds.parse().ok()?;
    let sigma = *SystemState::ALL.iter().find(|s| s.symbol() == sigma)?;
    let (utilities, ci95): (Vec<f64>, Vec<f64>) = (parse_csv(utilities)?, parse_csv(ci95)?);
    if utilities.len() != ci95.len() || utilities.is_empty() {
        return None;
    }
    // `f64` parses `NaN` and `inf`, but no sweep measures them, and every
    // deviation comparison against a NaN cell would read as "no gain".
    let finite = utilities.iter().chain(&ci95).all(|v| v.is_finite());
    if !finite || ci95.iter().any(|&c| c < 0.0) {
        return None;
    }
    let key = CacheKey {
        fingerprint: fingerprint.to_owned(),
        seeds,
        profile: parse_csv(profile)?,
        seats: parse_csv(seats)?,
    };
    let stats = ProfileStats {
        utilities,
        ci95,
        seeds,
        sigma,
    };
    // Only the exact bytes `render_line` writes for this build are a hit:
    // another build's line, or one that parses but is spelled otherwise
    // (`+4`, `1.0`), is not.
    (render_line(build, &key, &stats) == line).then_some((key, stats))
}

#[cfg(test)]
mod tests {
    use super::*;

    fn stats() -> ProfileStats {
        ProfileStats {
            utilities: vec![0.5, -10.25, 1.0 / 3.0],
            ci95: vec![0.0, 0.125, 0.001],
            seeds: 4,
            sigma: SystemState::Fork,
        }
    }

    fn key() -> CacheKey {
        CacheKey {
            fingerprint: "ScenarioSpec { n: 4 }|label:\"σ\\t\"".into(),
            seeds: 4,
            profile: vec![0, 2, 1],
            seats: vec![1, 2, 3],
        }
    }

    #[test]
    fn lines_round_trip_bit_exactly() {
        let line = render_line("build", &key(), &stats());
        assert_eq!(line.split('\t').nth(1), Some(key().fingerprint.as_str()));
        let (k, s) = parse_line("build", &line).expect("parses");
        assert_eq!(k, key());
        assert_eq!(s, stats());
    }

    #[test]
    fn malformed_lines_are_misses() {
        // Each line differs from this hit in the one field it names.
        let line = |build, fp, sigma, utilities, ci95| {
            format!("{build}\t{fp}\t1\t0\t0\t{sigma}\t{utilities}\t{ci95}")
        };
        let parse = |line: &str| parse_line("b", line);
        let fp = "ScenarioSpec { n: 4 }";
        assert!(parse(&line("b", fp, "σ_0", "1", "0")).is_some());
        assert!(parse("").is_none());
        // Another build's line, and a line of the retired `v1` format.
        assert!(parse(&line("c", fp, "σ_0", "1", "0")).is_none());
        assert!(parse(&line("v1", "000000000000ffff", "σ_0", "1", "0")).is_none());
        assert!(parse(&line("b", fp, "σ_??", "1", "0")).is_none());
        // Arity mismatch between utilities and CIs.
        assert!(parse(&line("b", fp, "σ_0", "1,2", "0")).is_none());
        // A pre-seats line (the old 7-field shape) is a miss, not a panic.
        assert!(parse(&format!("b\t{fp}\t1\t0\tσ_0\t1\t0")).is_none());
        // `f64` parses these, but a cell is finite and its CIs are >= 0.
        let cells = ["NaN 0", "inf 0", "-inf 0", "1 NaN", "1 inf", "1 -0.5"];
        for (utilities, ci95) in cells.map(|c| c.split_once(' ').unwrap()) {
            let tampered = line("b", fp, "σ_0", utilities, ci95);
            assert!(parse(&tampered).is_none(), "{tampered}");
        }
    }

    #[test]
    fn missing_file_loads_empty_and_append_creates() {
        let dir = std::env::temp_dir().join(format!("prft-cache-test-{}", std::process::id()));
        let _ = std::fs::remove_dir_all(&dir);
        let cache = UtilityCache::new(&dir);
        assert!(cache.load("g").is_empty());
        cache.append("g", &[(key(), stats())]).expect("append");
        let loaded = cache.load("g");
        assert_eq!(loaded.len(), 1);
        assert_eq!(loaded.get(&key()), Some(&stats()));
        // Appending the same key again shadows, not duplicates.
        cache.append("g", &[(key(), stats())]).expect("append");
        assert_eq!(cache.load("g").len(), 1);
        let _ = std::fs::remove_dir_all(&dir);
    }
}
