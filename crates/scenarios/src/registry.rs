//! The named scenario registry: every paper experiment that runs a pRFT
//! committee, plus workloads beyond the paper (mixed-rational committees,
//! GST sweeps, partition storms, collateral sweeps, committee scaling,
//! and the timeline-scheduled dynamic adversaries of spec v2).
//!
//! A scenario is a grid of [`ScenarioSpec`]s; `prft-lab run <name>` runs
//! every grid point over the requested seed count and reports aggregates
//! per point.

use crate::spec::{
    PartitionSpec, Role, ScenarioSpec, Synchrony, TimelineEvent, TxSpec, UtilitySpec,
};
use prft_game::Theta;
use prft_workload::{RejectAction, RetryPolicy, WorkloadSpec};

/// A named, described grid of scenario specs.
#[derive(Debug, Clone)]
pub struct Scenario {
    /// Registry name (`prft-lab run <name>`).
    pub name: &'static str,
    /// One-line description for `prft-lab list`.
    pub description: &'static str,
    /// The grid points.
    pub specs: Vec<ScenarioSpec>,
}

fn fork_attack_spec(label: &str, n: usize, colluders: usize, penalty_l: f64) -> ScenarioSpec {
    ScenarioSpec::new(label, n, 3)
        .base_seed(0xf0_17c)
        .role(
            0,
            Role::EquivocatingLeader {
                only_round: Some(0),
            },
        )
        .roles(1..=colluders, Role::ForkColluder)
        .fork_b_group([n - 2, n - 1])
        .utility(UtilitySpec {
            penalty_l,
            ..UtilitySpec::standard(Theta::ForkSeeking, 3)
        })
        .horizon(600_000)
}

/// Builds the full registry.
pub fn registry() -> Vec<Scenario> {
    vec![
        Scenario {
            name: "honest-sync",
            description: "all-honest committee under a synchronous network (the σ_0 baseline)",
            specs: vec![ScenarioSpec::new("n=8", 8, 4).base_seed(0xba5e)],
        },
        Scenario {
            name: "gst-sweep",
            description: "all-honest committee under partial synchrony, sweeping the GST",
            specs: [500u64, 2_000, 8_000]
                .into_iter()
                .map(|gst| {
                    ScenarioSpec::new(format!("gst={gst}"), 8, 5)
                        .base_seed(0x657)
                        .synchrony(Synchrony::PartiallySynchronous { gst, delta: 10 })
                })
                .collect(),
        },
        Scenario {
            name: "liveness-attack",
            description: "Theorem 1: θ=3 abstention coalitions of growing size starve the quorum",
            // k+t = 4 and 5 are the two in-regime points of Theorem 1's
            // impossibility window ⌈n/3⌉ ≤ k+t ≤ ⌈n/2⌉−1 at n = 12.
            specs: [0usize, 2, 3, 4, 5, 6]
                .into_iter()
                .map(|k| {
                    let n = 12;
                    ScenarioSpec::new(format!("k+t={k}"), n, 6)
                        .base_seed(0x7411)
                        .synchrony(Synchrony::PartiallySynchronous {
                            gst: 1_000,
                            delta: 10,
                        })
                        .roles((n - k)..n, Role::Abstain)
                        .utility(UtilitySpec::standard(Theta::LivenessAttacking, 6))
                        .horizon(400_000)
                })
                .collect(),
        },
        Scenario {
            name: "censorship-attack",
            description:
                "Theorem 2: π_pc coalitions censor a watched tx while keeping blocks flowing",
            specs: [0usize, 1, 2]
                .into_iter()
                .map(|k| {
                    ScenarioSpec::new(format!("k+t={k}"), 4, 12)
                        .base_seed(0xce45)
                        .roles(0..k, Role::PartialCensor)
                        .tx(999, None, b"the censored tx")
                        .tx(1, None, b"background-1")
                        .tx(2, None, b"background-2")
                        .watch([999])
                        .censor([999])
                        .utility(UtilitySpec::standard(Theta::CensorSeeking, 12))
                })
                .collect(),
        },
        Scenario {
            name: "fork-attack",
            description: "Lemma 4: equivocating leader + π_fork colluders against full pRFT",
            specs: vec![fork_attack_spec("colluders=3", 9, 3, 10.0)],
        },
        Scenario {
            name: "ablation-accountability",
            description:
                "the fork attack with and without the Reveal/PoF phase (what accountability buys)",
            specs: vec![
                fork_attack_spec("full", 9, 3, 10.0),
                fork_attack_spec("ablated", 9, 3, 10.0).accountable(false),
            ],
        },
        Scenario {
            name: "collateral-sweep",
            description:
                "the fork attack across collateral deposits L (how much stake deters deviation)",
            specs: [0.0, 5.0, 20.0]
                .into_iter()
                .map(|l| fork_attack_spec(&format!("L={l}"), 9, 3, l))
                .collect(),
        },
        Scenario {
            name: "mixed-rational",
            description:
                "committees mixing abstainers, fork colluders, and censors inside k+t < n/2",
            specs: vec![
                ScenarioSpec::new("abs=2,fork=2", 16, 4)
                    .base_seed(0x312ed)
                    .role(
                        0,
                        Role::EquivocatingLeader {
                            only_round: Some(1),
                        },
                    )
                    .roles([1, 2], Role::ForkColluder)
                    .fork_b_group([14, 15])
                    .roles([12, 13], Role::Abstain)
                    .utility(UtilitySpec::standard(Theta::ForkSeeking, 4))
                    .horizon(800_000),
                ScenarioSpec::new("abs=3,censor=2", 16, 4)
                    .base_seed(0x312ed)
                    .roles([11, 12, 13], Role::Abstain)
                    .roles([0, 1], Role::PartialCensor)
                    .tx(999, None, b"watched")
                    .tx(1, None, b"bg")
                    .watch([999])
                    .censor([999])
                    .utility(UtilitySpec::standard(Theta::CensorSeeking, 4))
                    .horizon(800_000),
            ],
        },
        Scenario {
            name: "partition-storm",
            description: "repeated partition windows battering a partially synchronous committee",
            specs: vec![ScenarioSpec::new("3-storms", 9, 6)
                .base_seed(0x5707)
                .synchrony(Synchrony::PartiallySynchronous {
                    gst: 500,
                    delta: 10,
                })
                .partition(PartitionSpec {
                    start: 0,
                    end: 15_000,
                    groups: vec![vec![0, 1, 2, 3], vec![4, 5, 6, 7, 8]],
                    bridges: vec![],
                })
                .partition(PartitionSpec {
                    start: 30_000,
                    end: 45_000,
                    groups: vec![vec![0, 2, 4, 6, 8], vec![1, 3, 5, 7]],
                    bridges: vec![],
                })
                .partition(PartitionSpec {
                    start: 60_000,
                    end: 75_000,
                    groups: vec![vec![0, 1, 2], vec![3, 4, 5], vec![6, 7, 8]],
                    bridges: vec![],
                })
                .horizon(1_000_000)],
        },
        Scenario {
            name: "tau-window",
            description: "Claim 1: liveness under t0 abstainers across agreement thresholds τ",
            specs: [6usize, 7, 8, 9, 10]
                .into_iter()
                .map(|tau| {
                    let n = 10;
                    let t0 = 2;
                    ScenarioSpec::new(format!("tau={tau}"), n, 4)
                        .base_seed(0x7a0)
                        .tau(tau)
                        .roles((n - t0)..n, Role::Abstain)
                        .horizon(400_000)
                })
                .collect(),
        },
        Scenario {
            name: "view-change-churn",
            description:
                "Claim 2 robustness: silent VC-hungry byzantine players under honest leaders",
            specs: [1usize, 2, 3]
                .into_iter()
                .map(|byz| {
                    let n = 9;
                    ScenarioSpec::new(format!("byz={byz}"), n, 3)
                        .base_seed(0xc4c4)
                        .roles((n - byz)..n, Role::VcSpammer)
                })
                .collect(),
        },
        Scenario {
            name: "crash-cft",
            description: "crash faults only (the CFT column): committee survives c < n/2 crashes",
            specs: [2usize, 4]
                .into_iter()
                .map(|c| {
                    let n = 9;
                    ScenarioSpec::new(format!("crashes={c}"), n, 4)
                        .base_seed(0xcf7)
                        .synchrony(Synchrony::PartiallySynchronous {
                            gst: 2_000,
                            delta: 10,
                        })
                        .roles((n - c)..n, Role::Crash)
                        .horizon(3_000_000)
                })
                .collect(),
        },
        Scenario {
            name: "committee-scaling",
            description: "message/byte cost per decision across committee sizes (Table 3 shape)",
            specs: [4usize, 8, 16, 32]
                .into_iter()
                .map(|n| {
                    ScenarioSpec::new(format!("n={n}"), n, 3)
                        .base_seed(0x5ca1e)
                        .horizon(5_000_000)
                })
                .collect(),
        },
        Scenario {
            name: "crash-churn",
            description:
                "timeline: rolling crash/recover churn (≤2 down at once) — liveness must survive",
            specs: vec![ScenarioSpec::new("churn", 9, 5)
                .base_seed(0xc42c)
                .synchrony(Synchrony::PartiallySynchronous {
                    gst: 2_000,
                    delta: 10,
                })
                .at(5_000, TimelineEvent::Crash(7))
                .at(5_000, TimelineEvent::Crash(8))
                .at(60_000, TimelineEvent::Recover(7))
                .at(60_000, TimelineEvent::Recover(8))
                .at(120_000, TimelineEvent::Crash(5))
                .at(120_000, TimelineEvent::Crash(6))
                .at(180_000, TimelineEvent::Recover(5))
                .at(180_000, TimelineEvent::Recover(6))
                .horizon(3_000_000)],
        },
        Scenario {
            name: "delay-until-gst",
            description:
                "timeline: targeted delay rules slow the first leaders' outbound traffic until GST",
            specs: vec![ScenarioSpec::new("slow-leaders-0-1", 8, 4)
                .base_seed(0xde1a)
                .synchrony(Synchrony::PartiallySynchronous {
                    gst: 2_000,
                    delta: 10,
                })
                .at(
                    0,
                    TimelineEvent::AddDelayRule {
                        from: Some(0),
                        to: None,
                        extra: 1_500,
                        window: 2_000,
                    },
                )
                .at(
                    0,
                    TimelineEvent::AddDelayRule {
                        from: Some(1),
                        to: None,
                        extra: 1_500,
                        window: 2_000,
                    },
                )
                .horizon(400_000)],
        },
        Scenario {
            name: "delay-lift",
            description:
                "timeline: an open-ended delay on the first leader is lifted at GST (RemoveDelayRule) vs never lifted",
            specs: {
                // An AddDelayRule with an effectively unbounded window —
                // only the scheduled RemoveDelayRule can end it ("T stops
                // delaying at GST", the honest reading of partial
                // synchrony the window-based rule cannot express).
                let slowed = |label: &str| {
                    ScenarioSpec::new(label, 8, 4)
                        .base_seed(0xd11f7)
                        .synchrony(Synchrony::PartiallySynchronous {
                            gst: 2_000,
                            delta: 10,
                        })
                        .at(
                            0,
                            TimelineEvent::AddDelayRule {
                                from: Some(0),
                                to: None,
                                extra: 1_500,
                                window: u64::MAX,
                            },
                        )
                        .horizon(400_000)
                };
                vec![
                    slowed("lift@gst").at(
                        2_000,
                        TimelineEvent::RemoveDelayRule {
                            from: Some(0),
                            to: None,
                        },
                    ),
                    slowed("never-lifted"),
                ]
            },
        },
        Scenario {
            name: "colluder-defection",
            description:
                "timeline: two of three fork colluders defect to π_0 mid-attack (Lemma 4, dynamic)",
            specs: vec![fork_attack_spec("defect@500", 9, 3, 10.0)
                .at(500, TimelineEvent::SetRole(2, Role::Honest))
                .at(500, TimelineEvent::SetRole(3, Role::Honest))],
        },
        Scenario {
            name: "late-tx-flood",
            description:
                "timeline: a watched tx plus a flood injected mid-run into a censoring committee",
            specs: vec![{
                let mut spec = ScenarioSpec::new("flood@1000", 4, 12)
                    .base_seed(0xf100d)
                    .roles(0..2, Role::PartialCensor)
                    .tx(1, None, b"background-1")
                    .tx(2, None, b"background-2")
                    .watch([999])
                    .censor([999])
                    .utility(UtilitySpec::standard(Theta::CensorSeeking, 12))
                    .at(
                        1_000,
                        TimelineEvent::InjectTx(TxSpec {
                            id: 999,
                            to: None,
                            payload: b"the late censored tx".to_vec(),
                        }),
                    );
                for id in 1_000..1_004u64 {
                    spec = spec.at(
                        1_000,
                        TimelineEvent::InjectTx(TxSpec {
                            id,
                            to: None,
                            payload: b"flood".to_vec(),
                        }),
                    );
                }
                spec
            }],
        },
        Scenario {
            name: "scheduled-split",
            description:
                "two mid-run partition windows open and heal after GST over partial synchrony",
            specs: vec![ScenarioSpec::new("2-splits", 9, 6)
                .base_seed(0x59117)
                .synchrony(Synchrony::PartiallySynchronous {
                    gst: 500,
                    delta: 10,
                })
                .partition(PartitionSpec {
                    start: 10_000,
                    end: 25_000,
                    groups: vec![vec![0, 1, 2, 3], vec![4, 5, 6, 7, 8]],
                    bridges: vec![],
                })
                .partition(PartitionSpec {
                    start: 40_000,
                    end: 55_000,
                    groups: vec![vec![0, 2, 4, 6, 8], vec![1, 3, 5, 7]],
                    bridges: vec![],
                })
                .horizon(1_000_000)],
        },
        Scenario {
            name: "byzantine-noise",
            description:
                "garbage voters and double-signers inside t0: absorbed (no fork; ≤ t0 convictions, so no Expose)",
            specs: vec![ScenarioSpec::new("garbage+double", 9, 3)
                .base_seed(0xb42)
                .role(7, Role::GarbageVoter)
                .role(8, Role::DoubleVoter)
                .utility(UtilitySpec::standard(Theta::ForkSeeking, 3))],
        },
        Scenario {
            name: "steady-load",
            description:
                "open-loop steady client workload baseline: commit-latency percentiles vs client count",
            specs: [100usize, 1_000]
                .into_iter()
                .map(|clients| {
                    ScenarioSpec::new(format!("clients={clients}"), 8, 400)
                        .base_seed(0x10ad)
                        .horizon(600_000)
                        .workload(
                            WorkloadSpec::steady(clients, 100)
                                .txs_per_client(4)
                                .max_batch(512),
                        )
                })
                .collect(),
        },
        Scenario {
            name: "tx-flood-burst",
            description:
                "on/off burst arrivals flood the committee: latency tail and mempool high-water under bursts",
            specs: vec![ScenarioSpec::new("burst", 8, 400)
                .base_seed(0xf100d)
                .horizon(600_000)
                .workload(
                    WorkloadSpec::bursty(500, 2_000, 8_000, 20)
                        .txs_per_client(8)
                        .max_batch(256),
                )],
        },
        Scenario {
            name: "retry-storm-gst",
            description:
                "clients submitting through a pre-GST delay window: timeout-driven retries across round-robin targets",
            specs: vec![ScenarioSpec::new("gst=20000", 8, 400)
                .base_seed(0x6577)
                .synchrony(Synchrony::PartiallySynchronous {
                    gst: 20_000,
                    delta: 10,
                })
                .horizon(600_000)
                .workload(
                    WorkloadSpec::steady(200, 150)
                        .txs_per_client(4)
                        .max_batch(256),
                )],
        },
        Scenario {
            name: "load-crash",
            description:
                "open-loop clients ride through a mid-stream replica crash: latency and drop accounting across the outage",
            specs: [80_000u64, 120_000]
                .into_iter()
                .map(|tick| {
                    ScenarioSpec::new(format!("crash@{tick}"), 8, 400)
                        .base_seed(0x10adc4)
                        .horizon(200_000)
                        .workload(
                            WorkloadSpec::steady(40, 150)
                                .txs_per_client(4)
                                .max_batch(256),
                        )
                        .at(tick, TimelineEvent::Crash(7))
                })
                .collect(),
        },
        Scenario {
            name: "backpressure-saturation",
            description:
                "bounded mempools under Poisson overload: capacity rejects, client backoff, and drop accounting",
            specs: vec![ScenarioSpec::new("cap=32", 8, 300)
                .base_seed(0xcab)
                .horizon(600_000)
                .workload(
                    WorkloadSpec::poisson(400, 50)
                        .txs_per_client(6)
                        .mempool_capacity(32)
                        .retry(RetryPolicy {
                            on_reject: RejectAction::Requeue,
                            ..RetryPolicy::default()
                        }),
                )],
        },
    ]
}

/// Looks a scenario up by name.
pub fn find(name: &str) -> Option<Scenario> {
    registry().into_iter().find(|s| s.name == name)
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn registry_is_populated_and_unique() {
        let reg = registry();
        assert!(reg.len() >= 10, "ISSUE requires ≥10 scenarios");
        let mut names: Vec<_> = reg.iter().map(|s| s.name).collect();
        names.sort_unstable();
        names.dedup();
        assert_eq!(names.len(), reg.len(), "names must be unique");
        for s in &reg {
            assert!(!s.specs.is_empty(), "{} has no grid points", s.name);
        }
    }

    #[test]
    fn find_known_and_unknown() {
        assert!(find("fork-attack").is_some());
        assert!(find("no-such-scenario").is_none());
    }

    #[test]
    fn timeline_scenarios_carry_schedules() {
        for name in [
            "crash-churn",
            "delay-until-gst",
            "delay-lift",
            "colluder-defection",
            "late-tx-flood",
            "load-crash",
        ] {
            let scenario = find(name).expect("registered");
            assert!(
                scenario.specs.iter().all(|s| s.has_schedule()),
                "{name} must be timeline-driven"
            );
        }
        // … and the static scenarios stay schedule-free.
        assert!(find("honest-sync")
            .unwrap()
            .specs
            .iter()
            .all(|s| !s.has_schedule()));
    }

    #[test]
    fn workload_scenarios_carry_workload_sections() {
        for name in [
            "steady-load",
            "tx-flood-burst",
            "retry-storm-gst",
            "backpressure-saturation",
            "load-crash",
        ] {
            let scenario = find(name).expect("registered");
            assert!(
                scenario.specs.iter().all(|s| s.workload.is_some()),
                "{name} must carry a workload section"
            );
        }
        // The acceptance bar: at least one registry point runs ≥1000
        // clients (the determinism suite reuses it).
        assert!(find("steady-load")
            .unwrap()
            .specs
            .iter()
            .any(|s| s.workload.as_ref().is_some_and(|w| w.clients >= 1_000)));
        // … and the non-workload scenarios stay client-free.
        assert!(find("honest-sync")
            .unwrap()
            .specs
            .iter()
            .all(|s| s.workload.is_none()));
    }
}
