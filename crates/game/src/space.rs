//! Strategy-profile spaces: who plays, what they can play, and which
//! profiles are equivalent under player symmetry.
//!
//! A [`ProfileSpace`] is the domain of an empirical game: `players ×
//! strategy sets`, enumerated in lexicographic order so sweeps and reports
//! are deterministic. Declaring a *symmetry group* — a set of players with
//! identical strategy sets whose identities do not matter to the game —
//! collapses every permutation of strategies within the group onto one
//! canonical representative, so a sweep evaluates each orbit once and the
//! full table is reconstructed by permuting utilities back
//! ([`ProfileSpace::expand_values`]). For `p` interchangeable players
//! with `s` strategies each this cuts `s^p` evaluations to
//! `C(s + p − 1, p)` (multisets), e.g. 27 → 10 for the paper's 3×3×3
//! Lemma 4 game.

/// A pure-strategy profile: one strategy index per player.
pub type Profile = Vec<usize>;

/// The strategy space of an empirical game: one strategy count per player,
/// plus optional symmetry groups of interchangeable players.
///
/// Symmetry is *declared*, never inferred: only mark players symmetric when
/// the game's utility really is invariant under permuting them (same role
/// menu, no player-specific position such as a leader slot or a partition
/// side that distinguishes them).
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct ProfileSpace {
    counts: Vec<usize>,
    symmetry: Vec<Vec<usize>>,
}

impl ProfileSpace {
    /// A space with the given per-player strategy counts and no symmetry.
    ///
    /// # Panics
    /// Panics if there are no players or any player has zero strategies.
    pub fn new(counts: Vec<usize>) -> Self {
        assert!(!counts.is_empty(), "a game needs at least one player");
        assert!(
            counts.iter().all(|&c| c > 0),
            "every player needs at least one strategy"
        );
        ProfileSpace {
            counts,
            symmetry: Vec::new(),
        }
    }

    /// `players` players, each choosing among `strategies` strategies.
    pub fn uniform(players: usize, strategies: usize) -> Self {
        ProfileSpace::new(vec![strategies; players])
    }

    /// Declares `group` as interchangeable players.
    ///
    /// # Panics
    /// Panics if the group has fewer than two players, an index is out of
    /// range or already in a group, or the members' strategy counts differ.
    #[must_use]
    pub fn with_symmetry(mut self, group: impl IntoIterator<Item = usize>) -> Self {
        let mut group: Vec<usize> = group.into_iter().collect();
        group.sort_unstable();
        group.dedup();
        assert!(group.len() >= 2, "a symmetry group needs ≥ 2 players");
        for &p in &group {
            assert!(p < self.counts.len(), "player {p} out of range");
            assert!(
                !self.symmetry.iter().any(|g| g.contains(&p)),
                "player {p} is already in a symmetry group"
            );
            assert_eq!(
                self.counts[p], self.counts[group[0]],
                "symmetric players must share a strategy set"
            );
        }
        self.symmetry.push(group);
        self
    }

    /// Declares *all* players interchangeable (requires uniform counts).
    #[must_use]
    pub fn fully_symmetric(self) -> Self {
        let players = self.counts.len();
        if players < 2 {
            return self;
        }
        self.with_symmetry(0..players)
    }

    /// Number of players.
    pub fn players(&self) -> usize {
        self.counts.len()
    }

    /// Per-player strategy counts.
    pub fn counts(&self) -> &[usize] {
        &self.counts
    }

    /// Total number of profiles (the full product space).
    pub fn len(&self) -> usize {
        self.counts.iter().product()
    }

    /// Whether the space is empty (it never is; kept for clippy symmetry
    /// with [`ProfileSpace::len`]).
    pub fn is_empty(&self) -> bool {
        false
    }

    /// Whether `profile` has the right arity and in-range strategies.
    pub fn contains(&self, profile: &Profile) -> bool {
        profile.len() == self.counts.len() && profile.iter().zip(&self.counts).all(|(&s, &c)| s < c)
    }

    /// Every profile, in lexicographic order (last player varies fastest).
    pub fn profiles(&self) -> Vec<Profile> {
        let mut out = Vec::with_capacity(self.len());
        let mut profile = vec![0usize; self.counts.len()];
        loop {
            out.push(profile.clone());
            // Odometer over the last index first = lexicographic ascending.
            let mut i = self.counts.len();
            loop {
                if i == 0 {
                    return out;
                }
                i -= 1;
                profile[i] += 1;
                if profile[i] < self.counts[i] {
                    break;
                }
                profile[i] = 0;
            }
        }
    }

    /// The canonical representative of `profile`'s symmetry orbit:
    /// strategies within each symmetry group sorted ascending (positions
    /// outside any group are untouched).
    ///
    /// # Panics
    /// Panics if `profile` is not in the space.
    pub fn canonical(&self, profile: &Profile) -> Profile {
        assert!(self.contains(profile), "profile {profile:?} out of range");
        let mut out = profile.clone();
        for group in &self.symmetry {
            let mut strategies: Vec<usize> = group.iter().map(|&p| out[p]).collect();
            strategies.sort_unstable();
            for (&p, s) in group.iter().zip(strategies) {
                out[p] = s;
            }
        }
        out
    }

    /// Whether `profile` is its own orbit representative.
    pub fn is_canonical(&self, profile: &Profile) -> bool {
        self.canonical(profile) == *profile
    }

    /// The canonical representatives only, in lexicographic order — the
    /// profiles a symmetry-reduced sweep actually evaluates.
    pub fn canonical_profiles(&self) -> Vec<Profile> {
        self.profiles()
            .into_iter()
            .filter(|p| self.is_canonical(p))
            .collect()
    }

    /// Transfers a per-player value vector measured at the canonical
    /// representative onto `profile`: each player receives the value of a
    /// same-group canonical position playing the same strategy (multiset
    /// matching, first unused match — deterministic). Positions outside any
    /// symmetry group keep their own value.
    ///
    /// # Panics
    /// Panics if `profile` is out of range, `values` has the wrong arity,
    /// or `profile` is not in the orbit of its canonical form (cannot
    /// happen for values of [`ProfileSpace::canonical`]).
    pub fn expand_values(&self, profile: &Profile, values: &[f64]) -> Vec<f64> {
        assert_eq!(values.len(), self.counts.len(), "one value per player");
        let canonical = self.canonical(profile);
        let mut out = values.to_vec();
        for group in &self.symmetry {
            let mut used = vec![false; group.len()];
            for &i in group {
                let j = group
                    .iter()
                    .enumerate()
                    .position(|(gj, &p)| !used[gj] && canonical[p] == profile[i])
                    .expect("canonical form is a permutation of the profile");
                used[j] = true;
                out[i] = values[group[j]];
            }
        }
        out
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn enumeration_is_lexicographic_and_complete() {
        let space = ProfileSpace::new(vec![2, 3]);
        assert_eq!(space.len(), 6);
        assert_eq!(
            space.profiles(),
            vec![
                vec![0, 0],
                vec![0, 1],
                vec![0, 2],
                vec![1, 0],
                vec![1, 1],
                vec![1, 2],
            ]
        );
        assert!(space.contains(&vec![1, 2]));
        assert!(!space.contains(&vec![2, 0]));
        assert!(!space.contains(&vec![0]));
    }

    #[test]
    fn canonicalization_sorts_within_groups_only() {
        // Players 1 and 2 symmetric; player 0 independent.
        let space = ProfileSpace::new(vec![2, 3, 3]).with_symmetry([1, 2]);
        assert_eq!(space.canonical(&vec![1, 2, 0]), vec![1, 0, 2]);
        assert_eq!(space.canonical(&vec![1, 0, 2]), vec![1, 0, 2]);
        assert!(space.is_canonical(&vec![0, 1, 1]));
        assert!(!space.is_canonical(&vec![0, 2, 1]));
    }

    #[test]
    fn symmetric_reduction_counts_multisets() {
        // 3 players × 3 strategies, fully symmetric: C(5,3) = 10 multisets.
        let space = ProfileSpace::uniform(3, 3).fully_symmetric();
        assert_eq!(space.len(), 27);
        assert_eq!(space.canonical_profiles().len(), 10);
        // 4 strategies: C(6,3) = 20 of 64.
        let wide = ProfileSpace::uniform(3, 4).fully_symmetric();
        assert_eq!(wide.canonical_profiles().len(), 20);
        assert_eq!(wide.len(), 64);
    }

    #[test]
    fn expand_values_permutes_group_values_back() {
        let space = ProfileSpace::uniform(3, 3).fully_symmetric();
        // Canonical [0, 1, 2] measured u = [10, 20, 30]; profile [2, 0, 1]
        // puts strategy 2 on player 0, 0 on player 1, 1 on player 2.
        let u = space.expand_values(&vec![2, 0, 1], &[10.0, 20.0, 30.0]);
        assert_eq!(u, vec![30.0, 10.0, 20.0]);
        // Duplicate strategies assign deterministically, first-match-first.
        let u = space.expand_values(&vec![1, 0, 0], &[1.0, 2.0, 3.0]);
        assert_eq!(u, vec![3.0, 1.0, 2.0]);
        // A canonical profile maps to itself.
        let u = space.expand_values(&vec![0, 1, 2], &[1.0, 2.0, 3.0]);
        assert_eq!(u, vec![1.0, 2.0, 3.0]);
    }

    #[test]
    fn no_symmetry_means_identity() {
        let space = ProfileSpace::new(vec![2, 2]);
        assert_eq!(space.canonical_profiles().len(), 4);
        assert_eq!(
            space.expand_values(&vec![1, 0], &[5.0, 6.0]),
            vec![5.0, 6.0]
        );
    }

    #[test]
    #[should_panic(expected = "share a strategy set")]
    fn asymmetric_counts_cannot_be_grouped() {
        let _ = ProfileSpace::new(vec![2, 3]).with_symmetry([0, 1]);
    }

    #[test]
    #[should_panic(expected = "already in a symmetry group")]
    fn overlapping_groups_rejected() {
        let _ = ProfileSpace::uniform(3, 2)
            .with_symmetry([0, 1])
            .with_symmetry([1, 2]);
    }
}
