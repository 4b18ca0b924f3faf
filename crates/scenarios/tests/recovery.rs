//! A committee that loses its quorum to crashes is live again once the
//! crashed seats recover. Not yet: both reproductions below stall today
//! (ROADMAP item 13), so they are ignored until recovery re-enters a seat
//! the way a start does.

use prft_lab::{derive_seed, replica, run_sim, ScenarioSpec, Synchrony, TimelineEvent, TxSpec};
use prft_types::NodeId;

/// n = 4 over 40 rounds, GST 0, every seat honest; seats 2 and 3 crash at
/// `down` and recover at `up`.
fn outage(down: u64, up: u64) -> ScenarioSpec {
    ScenarioSpec::new("outage", 4, 40)
        .synchrony(Synchrony::PartiallySynchronous { gst: 0, delta: 10 })
        .at(down, TimelineEvent::Crash(2))
        .at(down, TimelineEvent::Crash(3))
        .at(up, TimelineEvent::Recover(2))
        .at(up, TimelineEvent::Recover(3))
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
    let heights = final_heights(&outage(300, 500), derive_seed(0x5eed, 0));
    assert!(
        heights.iter().all(|&h| h >= 39),
        "final heights {heights:?}"
    );
}

/// The rounds freeze: a long outage (recovery at 700) leaves every seat at
/// final height 10 in round 10 with no view change. A timeout re-arms the
/// timer but sends nothing, and a recovered seat's timer was discarded
/// while it was down.
#[test]
#[ignore = "ROADMAP 13: after a long outage that loses quorum the rounds freeze"]
fn a_committee_recovered_after_a_long_outage_is_live() {
    let heights = final_heights(&outage(300, 700), derive_seed(0x5eed, 0));
    assert!(
        heights.iter().all(|&h| h >= 39),
        "final heights {heights:?}"
    );
}

/// The rounds spin: a ten-tick outage right after a transaction arrives
/// leaves seats 2–3 with a tentative block that seats 0–1 lack; every
/// later proposal builds below it, so no quorum forms and each seat changes
/// views through all 40 rounds, stuck at final height 7–8.
#[test]
#[ignore = "ROADMAP 13: after a short outage that loses quorum the rounds spin"]
fn a_committee_recovered_after_a_short_outage_is_live() {
    let tx = TxSpec {
        id: 7,
        to: Some(0),
        payload: b"tx".to_vec(),
    };
    let spec = outage(252, 262).at(250, TimelineEvent::InjectTx(tx));
    let heights = final_heights(&spec, derive_seed(0x5eed, 2));
    assert!(
        heights.iter().all(|&h| h >= 39),
        "final heights {heights:?}"
    );
}
