//! A transaction leaves a seat's mempool only when a block carrying it is
//! finalized there: nothing an honest seat admitted is lost to a proposal
//! that never finalizes, nothing final at a seat is admitted there again,
//! and nothing is finalized twice.

use prft_lab::{
    derive_seed, par_map, registry, replica, run_one, ScenarioSpec, Synchrony, TimelineEvent,
    TxSpec,
};
use prft_sim::Simulation;
use prft_types::{BlockStatus, NodeId, TxId};
use prft_workload::Actor;

/// Guards the drain at proposal: a leader that removed its batch from the
/// pool when proposing lost the tx for good once that proposal failed to
/// finalize. Here seat 0 holds the only copy of tx 7, and seats 2 and 3
/// crash for ten ticks right after it arrives, so seat 0's proposal of it
/// does not finalize; the tx must still reach every chain.
#[test]
fn a_tx_whose_proposal_fails_to_finalize_is_proposed_again() {
    const TX: u64 = 7;
    let spec = ScenarioSpec::new("crash-during-proposal", 4, 40)
        .synchrony(Synchrony::PartiallySynchronous { gst: 0, delta: 10 })
        .at(
            250,
            TimelineEvent::InjectTx(TxSpec {
                id: TX,
                to: Some(0),
                payload: b"tx".to_vec(),
            }),
        )
        .at(252, TimelineEvent::Crash(2))
        .at(252, TimelineEvent::Crash(3))
        .at(262, TimelineEvent::Recover(2))
        .at(262, TimelineEvent::Recover(3));
    let (sim, _) = prft_lab::run_sim(&spec, derive_seed(0x05ee_d1ab, 0), |_| {});
    assert_final_once_everywhere(&sim, spec.n, TX);
}

/// Guards admission: a tx final at a seat that never admitted it must be
/// refused there, not pooled and proposed again. Tx 7 reaches seat 0 and
/// is final everywhere long before it reaches seat 1.
#[test]
fn a_tx_final_at_a_seat_is_never_admitted_there_again() {
    const TX: u64 = 7;
    let inject = |to| {
        TimelineEvent::InjectTx(TxSpec {
            id: TX,
            to: Some(to),
            payload: b"tx".to_vec(),
        })
    };
    let spec = ScenarioSpec::new("reinject", 4, 40)
        .synchrony(Synchrony::Synchronous { delta: 10 })
        .at(100, inject(0))
        .at(300, inject(1));
    let seed = derive_seed(spec.base_seed, 0);
    let (sim, _) = prft_lab::run_sim(&spec, seed, |_| {});
    assert_final_once_everywhere(&sim, spec.n, TX);
    let breaches: Vec<String> = run_one(&spec, seed).breaches("reinject").collect();
    assert!(breaches.is_empty(), "{}", breaches.join("\n"));
}

/// Every seat is live and holds `tx` in exactly one final block.
fn assert_final_once_everywhere(sim: &Simulation<Actor>, n: usize, tx: u64) {
    for seat in 0..n {
        let chain = replica(sim, NodeId(seat)).chain();
        assert!(chain.final_height() >= 39, "seat {seat} stays live");
        let final_txs = chain
            .iter()
            .filter(|e| e.status == BlockStatus::Final)
            .flat_map(|e| e.block.txs.iter());
        assert_eq!(
            final_txs.filter(|t| t.id == TxId(tx)).count(),
            1,
            "seat {seat} finalizes the tx exactly once"
        );
    }
}

/// The pool census and exactly-once inclusion over every registry cell at
/// two seeds: at every seat honest for the whole run each admitted id is
/// pending there or final in its chain, and no id is final twice in its
/// chain (the `tx_census` row) — and every other invariant row holds.
#[test]
fn every_admitted_tx_is_pending_or_final_once_at_every_honest_seat() {
    let cells: Vec<(String, ScenarioSpec, u64)> = registry()
        .into_iter()
        .flat_map(|scenario| {
            let name = scenario.name;
            scenario.specs.into_iter().flat_map(move |spec| {
                (0..2).map(move |i| {
                    let seed = derive_seed(spec.base_seed, i);
                    (format!("{name} {}", spec.label), spec.clone(), seed)
                })
            })
        })
        .collect();
    let breaches: Vec<String> = par_map(2, &cells, |_, (cell, spec, seed)| {
        let record = run_one(spec, *seed);
        record.breaches(cell).collect::<Vec<_>>()
    })
    .into_iter()
    .flatten()
    .collect();
    assert!(breaches.is_empty(), "{}", breaches.join("\n"));
}
