//! A committee that loses its quorum to crashes is live again once the
//! crashed seats recover. A recovered seat restarts through `on_start`: it
//! re-arms its phase timer and asks the committee with a `SyncRequest`,
//! and the answer carries every block the helper holds with its proof —
//! the `Final` tally of a final block, the helper's Reveal of a tentative
//! one — and the helper's own `ViewChange` for its round.

use prft_lab::{
    derive_seed, replica, run_one, run_sim, ScenarioSpec, Synchrony, TimelineEvent, TxSpec,
};
use prft_types::NodeId;
use std::ops::Range;

/// `n` seats over 40 rounds, GST 0, every seat honest; the seats in
/// `seats` crash at `down` and recover at `up`.
fn outage(n: usize, seats: Range<usize>, down: u64, up: u64) -> ScenarioSpec {
    let spec = ScenarioSpec::new("outage", n, 40)
        .synchrony(Synchrony::PartiallySynchronous { gst: 0, delta: 10 });
    let spec = seats
        .clone()
        .fold(spec, |spec, seat| spec.at(down, TimelineEvent::Crash(seat)));
    seats.fold(spec, |spec, seat| spec.at(up, TimelineEvent::Recover(seat)))
}

/// A transaction that reaches seat 0 at `at`.
fn tx_at(spec: ScenarioSpec, at: u64) -> ScenarioSpec {
    let tx = TxSpec {
        id: 7,
        to: Some(0),
        payload: b"tx".to_vec(),
    };
    spec.at(at, TimelineEvent::InjectTx(tx))
}

/// Every seat's final height after the run.
fn final_heights(spec: &ScenarioSpec, seed: u64) -> Vec<u64> {
    let (sim, _) = run_sim(spec, seed, |_| {});
    let height = |seat| replica(&sim, NodeId(seat)).chain().final_height();
    (0..spec.n).map(height).collect()
}

/// The control: the same outage ending at 500 is live.
#[test]
fn a_committee_recovered_soon_after_losing_quorum_is_live() {
    let heights = final_heights(&outage(4, 2..4, 300, 500), derive_seed(0x5eed, 0));
    assert!(
        heights.iter().all(|&h| h >= 39),
        "final heights {heights:?}"
    );
}

/// The rounds froze: a long outage (recovery at 700) left every seat at
/// final height 10 in round 10 with no view change. A timeout re-arms the
/// timer but sends nothing new, and a recovered seat's timer was discarded
/// while it was down. A restart now re-arms it, and the helpers' answer
/// carries their `ViewChange` for round 10.
#[test]
fn a_committee_recovered_after_a_long_outage_is_live() {
    let heights = final_heights(&outage(4, 2..4, 300, 700), derive_seed(0x5eed, 0));
    assert!(
        heights.iter().all(|&h| h >= 39),
        "final heights {heights:?}"
    );
}

/// The rounds spun: a ten-tick outage right after a transaction arrives
/// leaves seats 0–1 holding round 8's block tentatively at height 9, while
/// seats 2–3, down through its Commit certificates, lack it. Seats 2–3
/// cannot finalize round 7's block either: only seats 0 and 1 ever sent its
/// `Final` (2 of the 3 needed). Each half then refuses the other half's
/// proposals, and every seat changed views through all 40 rounds, stuck at
/// final height 7–8, while a helper forwarded final blocks only. Now it
/// also forwards round 8's block with its Reveal, which seats 2–3 append.
#[test]
fn a_committee_recovered_after_a_short_outage_is_live() {
    let spec = tx_at(outage(4, 2..4, 252, 262), 250);
    let heights = final_heights(&spec, derive_seed(0x5eed, 2));
    assert!(
        heights.iter().all(|&h| h >= 39),
        "final heights {heights:?}"
    );
}

/// A committee that crashes whole keeps no timer: only the restarts'
/// re-armed phase timers move it out of the round it froze in.
#[test]
fn a_committee_that_crashed_whole_is_live_once_it_recovers() {
    let heights = final_heights(&outage(4, 0..4, 300, 700), derive_seed(0x5eed, 0));
    assert!(
        heights.iter().all(|&h| h >= 39),
        "final heights {heights:?}"
    );
}

/// Every cell of the outage grid keeps `progress_after_disruption` and
/// ends with every seat at final height ≥ 34 of 40. The spin class (n = 4)
/// crashes seats 2–3 for ten ticks starting 2 or 5 ticks after a
/// transaction reaches seat 0 at t ∈ {250, 260, …, 320}, over six seeds;
/// the freeze classes crash seats 2–3 of n = 4 and seats 4–6 of n = 7 at
/// 300 and recover them at 500, 700, 1 000, 2 000 or 20 000, over four.
#[test]
fn every_cell_of_the_outage_grid_makes_progress_after_recovery() {
    let mut cells = Vec::new();
    for t in (250..=320).step_by(10) {
        for lag in [2, 5] {
            let spec = tx_at(outage(4, 2..4, t + lag, t + lag + 10), t);
            cells.extend((0..6).map(|i| (spec.clone(), derive_seed(0x5eed, i))));
        }
    }
    for (n, seats) in [(4, 2..4), (7, 4..7)] {
        for up in [500, 700, 1_000, 2_000, 20_000] {
            let spec = outage(n, seats.clone(), 300, up);
            cells.extend((0..4).map(|i| (spec.clone(), derive_seed(0x5eed, i))));
        }
    }
    assert_eq!(cells.len(), 136);
    let stalled: Vec<String> = cells
        .iter()
        .map(|(spec, seed)| (spec, seed, run_one(spec, *seed)))
        .filter(|(_, _, r)| !r.kept("progress_after_disruption") || r.min_final_height < 34)
        .map(|(spec, seed, r)| {
            let schedule: Vec<u64> = spec.schedule.iter().map(|(tick, _)| *tick).collect();
            format!(
                "n={} at {schedule:?} seed {seed:#x}: min final height {}",
                spec.n, r.min_final_height
            )
        })
        .collect();
    assert!(stalled.is_empty(), "{stalled:#?}");
}
