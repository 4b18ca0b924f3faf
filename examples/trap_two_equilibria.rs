//! The TRAP dilemma (Theorem 3): the baiting game has two Nash equilibria,
//! and the insecure one is the focal point. This example builds the full
//! normal-form game for a rational collusion and prints both equilibria
//! with their utilities.
//!
//! ```sh
//! cargo run --example trap_two_equilibria
//! ```

use prft::baselines::trap::{TrapGame, TrapStrategy};
use prft::game::{analytic, ProfileSpace, UtilityParams, UtilityTable};

fn main() {
    // Theorem 3's regime: n = 20, t = 6 byzantine, k = 3 rational —
    // inside TRAP's advertised tolerance (3t < n, 2(k+t) < n) and with
    // k > 2 + t0 − t, so a lone baiter cannot stop the fork.
    let n: usize = 20;
    let (t, k) = (6usize, 3usize);
    let t0 = n.div_ceil(3) - 1;
    let params = UtilityParams {
        gain_g: 8.0,
        reward_r: 2.0,
        penalty_l: 10.0,
        ..UtilityParams::default()
    };
    let game = TrapGame::new(n, t, k, params);

    println!("== the TRAP baiting game ==");
    println!(
        "n = {n}, t = {t}, k = {k}, t0 = {t0}; G = {}, R = {}, L = {}",
        params.gain_g, params.reward_r, params.penalty_l
    );
    println!(
        "TRAP tolerates this configuration: {}",
        analytic::trap_tolerates(n, k, t)
    );
    println!(
        "fork-NE condition k > 2 + t0 − t:  {}",
        analytic::trap_fork_is_nash(k, t, t0)
    );
    println!(
        "baiters needed to avert the fork:  > {:.0}\n",
        game.min_baiters()
    );

    // Enumerate the full 2^k game.
    let strategies = [TrapStrategy::Fork, TrapStrategy::Bait];
    let labels = ["π_fork", "π_bait"];
    let eg = UtilityTable::exact(ProfileSpace::uniform(k, 2), |profile| {
        let chosen: Vec<TrapStrategy> = profile.iter().map(|&i| strategies[i]).collect();
        let out = game.play(&chosen);
        (out.utilities, out.state)
    });

    println!("full payoff table ({} profiles):", 1usize << k);
    for f1 in 0..2 {
        for f2 in 0..2 {
            for f3 in 0..2 {
                let profile = vec![f1, f2, f3];
                let us = eg.utilities(&profile);
                let ne = if eg.is_nash(&profile, 1e-9) {
                    "  ← NASH EQUILIBRIUM"
                } else {
                    ""
                };
                println!(
                    "  ({:6}, {:6}, {:6}) → ({:5.2}, {:5.2}, {:5.2}){ne}",
                    labels[f1], labels[f2], labels[f3], us[0], us[1], us[2]
                );
            }
        }
    }

    let ne = eg.nash_equilibria(1e-9);
    let players: Vec<usize> = (0..k).collect();
    let focal = eg.focal_among(&ne, &players).unwrap();
    println!("\nNash equilibria: {}", ne.len());
    println!(
        "focal equilibrium (highest collusion utility): ({}, {}, {})",
        labels[focal[0]], labels[focal[1]], labels[focal[2]]
    );
    println!(
        "all-fork Pareto-dominates all-bait for the rational players: {}",
        eg.pareto_dominates_for(&vec![0; k], &vec![1; k], &players)
    );

    assert!(ne.contains(&vec![0; k]), "the insecure equilibrium exists");
    assert!(
        ne.contains(&vec![1; k]),
        "TRAP's secure equilibrium exists too"
    );
    assert_eq!(focal, &vec![0; k], "…but the insecure one is focal");
    println!(
        "\nThis is Theorem 3: TRAP's security argument selects the all-bait\n\
         equilibrium, but rational players prefer (and will coordinate on)\n\
         the all-fork one. pRFT removes the second equilibrium entirely by\n\
         making honest play dominant (see `cargo run --example rational_attack`)."
    );
}
