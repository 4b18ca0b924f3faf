//! The workload subsystem's reproducibility and accounting contracts:
//! client populations ride the same deterministic engine as the committee,
//! so a workload sweep is byte-identical at any thread count and across
//! queue backends — including at the 1000-client scale the acceptance
//! criteria pin — and every run conserves transactions
//! (`submitted == committed + dropped + pending`).

use prft_lab::{
    report, BatchRunner, QueueBackend, RejectAction, RetryPolicy, ScenarioSpec, WorkloadSpec,
};
use proptest::prelude::*;

/// A 1000-client steady-load spec sized for test (debug-build) speed:
/// one tx per client, a short round budget, everything else the
/// registry's `steady-load` shape.
fn kiloclient_spec() -> ScenarioSpec {
    ScenarioSpec::new("wl-1k", 8, 60)
        .base_seed(0x77a0)
        .horizon(40_000)
        .workload(
            WorkloadSpec::steady(1_000, 20)
                .txs_per_client(1)
                .max_batch(512),
        )
}

/// A bursty spec exercising the on/off arrival gate and retries.
fn burst_spec() -> ScenarioSpec {
    ScenarioSpec::new("wl-burst", 8, 60)
        .base_seed(0xb57)
        .horizon(40_000)
        .workload(
            WorkloadSpec::bursty(200, 1_000, 3_000, 25)
                .txs_per_client(4)
                .max_batch(256),
        )
}

#[test]
fn thousand_clients_thread_invariant() {
    let spec = kiloclient_spec();
    const SEEDS: u64 = 2;
    let serial = BatchRunner::new(1).run(&spec, SEEDS);
    let parallel = BatchRunner::new(8).run(&spec, SEEDS);
    let s = report::scenario_json("wl", SEEDS, std::slice::from_ref(&serial), true);
    let p = report::scenario_json("wl", SEEDS, std::slice::from_ref(&parallel), true);
    assert_eq!(s, p, "1000-client workload must be --threads invariant");
    assert_eq!(
        report::scenario_csv("wl", &[serial]),
        report::scenario_csv("wl", &[parallel])
    );
}

#[test]
fn thousand_clients_backend_invariant() {
    let spec = kiloclient_spec();
    const SEEDS: u64 = 2;
    let heap = BatchRunner::new(4).run(&spec.clone().queue(QueueBackend::Heap), SEEDS);
    let calendar = BatchRunner::new(4).run(&spec.queue(QueueBackend::Calendar), SEEDS);
    let h = report::scenario_json("wl", SEEDS, &[heap], true);
    let c = report::scenario_json("wl", SEEDS, &[calendar], true);
    assert_eq!(h, c, "queue backend must never change a workload report");
}

#[test]
fn burst_load_thread_and_backend_invariant() {
    let spec = burst_spec();
    const SEEDS: u64 = 3;
    let serial = BatchRunner::new(1).run(&spec, SEEDS);
    let parallel = BatchRunner::new(8).run(&spec.clone().queue(QueueBackend::Calendar), SEEDS);
    // One cross-product probe: serial+heap vs parallel+calendar.
    let s = report::scenario_json("wl", SEEDS, &[serial], true);
    let p = report::scenario_json("wl", SEEDS, &[parallel], true);
    assert_eq!(s, p);
}

#[test]
fn workload_runs_conserve_and_commit_transactions() {
    let rec = prft_lab::run_one(&kiloclient_spec(), 7);
    assert!(rec.kept("workload_conserved"), "transaction conservation");
    let w = rec.workload.expect("workload spec yields workload stats");
    assert_eq!(w.clients, 1_000);
    assert_eq!(w.submitted, 1_000, "open-loop offer is fixed by the spec");
    assert!(w.committed > 0, "steady load must make commit progress");
    assert!(w.latency.p50 <= w.latency.p90 && w.latency.p90 <= w.latency.p99);
    assert!(w.latency.p99 <= w.latency.max);
    // The protocol observables stay alongside the workload ones.
    assert!(rec.agreement);
    assert!(rec.min_final_height > 0);
}

#[test]
fn workload_metrics_flow_through_reports() {
    let spec = kiloclient_spec();
    let batch = BatchRunner::new(2).run(&spec, 2);
    let agg = |metric| batch.workload_agg(metric).expect("workload aggregates");
    assert_eq!(agg("clients").max, 1_000.0);
    assert!(agg("committed").mean > 0.0);
    // JSON carries both the batch section and the per-run objects …
    let json = report::scenario_json("wl", 2, std::slice::from_ref(&batch), true);
    assert!(json.contains("\"workload\""));
    assert!(json.contains("\"latency_p99\""));
    assert!(json.contains("\"mempool_peak_occupancy\""));
    // … the observability registry mirrors the counters …
    assert!(batch.observability.counter("workload.txs_submitted") > 0);
    assert!(batch.observability.gauge("workload.latency_p99") > 0);
    // … and the CSV row has the workload columns populated.
    let csv = report::scenario_csv("wl", &[batch]);
    let header_cols = csv.lines().next().unwrap().split(',').count();
    let row = csv.lines().nth(1).unwrap();
    assert_eq!(row.split(',').count(), header_cols);
    assert!(row.contains(",1000,"), "wl_clients column");
}

#[test]
fn non_workload_reports_have_no_workload_section() {
    let spec = ScenarioSpec::new("plain", 5, 2).horizon(200_000);
    let batch = BatchRunner::new(1).run(&spec, 2);
    assert!(batch.workload.is_none());
    let json = report::scenario_json("plain", 2, std::slice::from_ref(&batch), true);
    assert!(!json.contains("\"workload\""));
    // CSV still has the columns, zero-filled.
    let csv = report::scenario_csv("plain", &[batch]);
    assert!(csv
        .lines()
        .nth(1)
        .unwrap()
        .ends_with(",0,0,0,0,0,0,0,0,0,0,0"));
}

#[test]
fn backpressure_saturation_rejects_and_accounts() {
    let spec = ScenarioSpec::new("wl-bp", 8, 40)
        .base_seed(0xcab)
        .horizon(40_000)
        .workload(
            WorkloadSpec::poisson(150, 30)
                .txs_per_client(4)
                .mempool_capacity(16),
        );
    let rec = prft_lab::run_one(&spec, 3);
    assert!(rec.kept("workload_conserved"));
    let w = rec.workload.expect("workload stats");
    assert_eq!(w.submitted, 600);
    assert!(
        w.mempool_rejected_full > 0,
        "a 16-slot mempool under 150-client Poisson load must reject"
    );
    assert!(w.backpressure_rejects > 0, "rejects must reach clients");
    assert!(w.mempool_peak_occupancy <= 16, "capacity bound respected");
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(8))]

    /// Transaction conservation holds for arbitrary workload shapes: every
    /// submitted transaction is committed, dropped, or still pending at
    /// run end — across arrival models, mempool capacities, and both
    /// reject reactions — and the latency histogram only counts commits.
    #[test]
    fn any_workload_conserves_transactions(
        clients in 5usize..40,
        txs in 1u64..4,
        arrival in 0u8..3,
        interval in 10u64..120,
        cap in 0usize..48,
        drop_on_reject in any::<bool>(),
        seed in 0u64..1_000,
    ) {
        let mut w = match arrival {
            0 => WorkloadSpec::steady(clients, interval),
            1 => WorkloadSpec::poisson(clients, interval),
            _ => WorkloadSpec::bursty(clients, 800, 2_400, interval),
        };
        w = w.txs_per_client(txs).retry(RetryPolicy {
            on_reject: if drop_on_reject { RejectAction::Drop } else { RejectAction::Requeue },
            ..RetryPolicy::default()
        });
        if cap >= 8 {
            w = w.mempool_capacity(cap);
        }
        let spec = ScenarioSpec::new("wl-prop", 5, 20)
            .base_seed(0x9009)
            .horizon(30_000)
            .workload(w);
        let rec = prft_lab::run_one(&spec, seed);
        prop_assert!(rec.kept("workload_conserved"));
        let s = rec.workload.expect("workload stats");
        prop_assert_eq!(s.clients, clients as u64);
        prop_assert_eq!(s.submitted, clients as u64 * txs);
        prop_assert_eq!(s.latency.count, s.committed);
        if cap >= 8 {
            prop_assert!(s.mempool_peak_occupancy <= cap as u64);
        }
    }
}
