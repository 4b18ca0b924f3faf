//! Iterated best-reply dynamics over a measured [`UtilityTable`]:
//! deterministic improvement paths, convergence/cycle detection, and
//! whole-space basin summaries.
//!
//! Exhaustive equilibrium checks walk every profile of the space; for
//! spaces too large to enumerate comfortably (or to ask *how play gets
//! to* an equilibrium, not just whether one exists) game theory uses
//! *dynamics*: start somewhere, let one player at a time switch to a
//! best response, and watch where the path goes. Over a finite table
//! every such path either **converges** (no player can improve — the
//! terminal profile is a pure Nash equilibrium at the step tolerance) or
//! **cycles** (a profile repeats; matching-pennies-like games have no
//! pure equilibrium to converge to).
//!
//! The update rule is deliberately deterministic — players are scanned
//! in index order and the first player with an improving deviation moves
//! to their [`UtilityTable::best_response`] (ties break toward the lower
//! strategy index) — so a path is a pure function of `(table, start,
//! eps)` and reports built from it are byte-stable across thread counts.

use crate::space::Profile;
use crate::utility_table::UtilityTable;
use std::collections::BTreeMap;

/// How a best-reply path ended.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum DynamicsOutcome {
    /// No player can gain more than the tolerance: the final profile of
    /// the path is a pure Nash equilibrium (at that tolerance).
    Converged,
    /// A profile repeated: play orbits a best-reply cycle forever.
    Cycled,
}

/// One deterministic best-reply path.
#[derive(Debug, Clone, PartialEq)]
pub struct BestReplyPath {
    /// Every profile visited, starting profile first. On convergence the
    /// last entry is the equilibrium; on a cycle the last entry is the
    /// first *repeated* profile (also present earlier in the path).
    pub path: Vec<Profile>,
    /// Whether the path converged or cycled.
    pub outcome: DynamicsOutcome,
    /// For a cycle: the index in `path` where the repeated profile first
    /// appeared — `path[cycle_start..]` is the cycle itself.
    pub cycle_start: Option<usize>,
}

impl BestReplyPath {
    /// Number of best-reply moves taken (path length minus the start).
    pub fn steps(&self) -> usize {
        self.path.len() - 1
    }

    /// The profile the path settled on, when it converged.
    pub fn attractor(&self) -> Option<&Profile> {
        match self.outcome {
            DynamicsOutcome::Converged => self.path.last(),
            DynamicsOutcome::Cycled => None,
        }
    }
}

/// Runs deterministic best-reply dynamics from `start`: repeatedly, the
/// lowest-indexed player with a deviation gaining more than `eps` moves
/// to their best response. Terminates in at most `|space|` moves — every
/// visited profile is recorded, and revisiting any of them is a cycle.
///
/// # Panics
/// Panics if the table is incomplete or `start` is out of range.
pub fn best_reply_path(table: &UtilityTable, start: Profile, eps: f64) -> BestReplyPath {
    assert!(table.is_complete(), "run dynamics over a complete table");
    assert!(
        table.space().contains(&start),
        "start profile {start:?} out of range"
    );
    let mut seen: BTreeMap<Profile, usize> = BTreeMap::new();
    let mut path = vec![start];
    loop {
        let current = path.last().expect("non-empty path").clone();
        seen.insert(current.clone(), path.len() - 1);
        let mover = (0..table.space().players()).find_map(|player| {
            let (alt, gain) = table.best_response(&current, player);
            (gain > eps).then_some((player, alt))
        });
        let Some((player, alt)) = mover else {
            return BestReplyPath {
                path,
                outcome: DynamicsOutcome::Converged,
                cycle_start: None,
            };
        };
        let mut next = current;
        next[player] = alt;
        if let Some(&first) = seen.get(&next) {
            path.push(next);
            return BestReplyPath {
                path,
                outcome: DynamicsOutcome::Cycled,
                cycle_start: Some(first),
            };
        }
        path.push(next);
    }
}

/// The whole-space dynamics picture: one best-reply path from *every*
/// profile of the space.
#[derive(Debug, Clone, PartialEq)]
pub struct DynamicsSummary {
    /// Converged terminal profiles with their basin sizes — how many
    /// starting profiles flow into each attractor (lexicographic order).
    pub attractors: Vec<(Profile, usize)>,
    /// Number of starting profiles whose path ends in a cycle.
    pub cycling_starts: usize,
    /// The longest number of moves any start took.
    pub longest_path: usize,
}

/// Runs [`best_reply_path`] from every profile (lexicographic order) and
/// aggregates attractor basins. Attractors are exactly the pure Nash
/// equilibria reachable by best-reply play; an equilibrium with an empty
/// basin apart from itself still shows up (its own path converges in
/// zero steps).
pub fn best_reply_summary(table: &UtilityTable, eps: f64) -> DynamicsSummary {
    let mut basins: BTreeMap<Profile, usize> = BTreeMap::new();
    let mut cycling_starts = 0;
    let mut longest_path = 0;
    for start in table.space().profiles() {
        let run = best_reply_path(table, start, eps);
        longest_path = longest_path.max(run.steps());
        match run.attractor() {
            Some(attractor) => *basins.entry(attractor.clone()).or_insert(0) += 1,
            None => cycling_starts += 1,
        }
    }
    DynamicsSummary {
        attractors: basins.into_iter().collect(),
        cycling_starts,
        longest_path,
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::space::ProfileSpace;
    use crate::types::SystemState;

    fn pd() -> UtilityTable {
        UtilityTable::exact(ProfileSpace::uniform(2, 2), |p| {
            let u = match (p[0], p[1]) {
                (0, 0) => vec![3.0, 3.0],
                (0, 1) => vec![0.0, 5.0],
                (1, 0) => vec![5.0, 0.0],
                (1, 1) => vec![1.0, 1.0],
                _ => unreachable!(),
            };
            (u, SystemState::HonestExecution)
        })
    }

    fn pennies() -> UtilityTable {
        UtilityTable::exact(ProfileSpace::uniform(2, 2), |p| {
            let win = if p[0] == p[1] { 1.0 } else { -1.0 };
            (vec![win, -win], SystemState::HonestExecution)
        })
    }

    #[test]
    fn prisoners_dilemma_converges_to_all_defect() {
        let run = best_reply_path(&pd(), vec![0, 0], 0.0);
        assert_eq!(run.outcome, DynamicsOutcome::Converged);
        assert_eq!(run.path, vec![vec![0, 0], vec![1, 0], vec![1, 1]]);
        assert_eq!(run.steps(), 2);
        assert_eq!(run.attractor(), Some(&vec![1, 1]));
    }

    #[test]
    fn matching_pennies_cycles() {
        let run = best_reply_path(&pennies(), vec![0, 0], 0.0);
        assert_eq!(run.outcome, DynamicsOutcome::Cycled);
        // (0,0) →₁ (0,1) →₀ (1,1) →₁ (1,0) →₀ (0,0): the 4-cycle.
        assert_eq!(run.cycle_start, Some(0));
        assert_eq!(run.path.len(), 5);
        assert_eq!(run.path.first(), run.path.last());
        assert_eq!(run.attractor(), None);
    }

    #[test]
    fn summaries_count_basins() {
        let summary = best_reply_summary(&pd(), 0.0);
        // Every start flows into the unique equilibrium.
        assert_eq!(summary.attractors, vec![(vec![1, 1], 4)]);
        assert_eq!(summary.cycling_starts, 0);
        assert_eq!(summary.longest_path, 2);

        let pennies = best_reply_summary(&pennies(), 0.0);
        assert!(pennies.attractors.is_empty());
        assert_eq!(pennies.cycling_starts, 4);
    }

    #[test]
    fn equilibrium_starts_converge_in_zero_steps() {
        let run = best_reply_path(&pd(), vec![1, 1], 0.0);
        assert_eq!(run.steps(), 0);
        assert_eq!(run.attractor(), Some(&vec![1, 1]));
    }

    #[test]
    #[should_panic(expected = "out of range")]
    fn bad_start_rejected() {
        let _ = best_reply_path(&pd(), vec![2, 0], 0.0);
    }
}
