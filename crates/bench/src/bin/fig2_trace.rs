//! **E8 — Figure 2a/2b**: the normal execution of one pRFT round (phase
//! ladder per replica, as in the paper's diagram) and the message
//! inventory with wire sizes.
//!
//! A single traced run built through the `prft-lab` spec path, rendered
//! from the observability layer: the phase ladder comes from the
//! replicas' recorded phase spans (the same spans `prft-lab run
//! --trace-out` exports as Chrome Trace JSON), and the message inventory
//! is cross-checked against the counter registry — the engine-side Meter
//! and the replica-side `recv.P*` counters must agree on every kind's
//! message and byte totals in a quiescent run, or the binary exits
//! non-zero.
//!
//! Run: `cargo run -p prft-bench --release --bin fig2_trace`

use prft_lab::ScenarioSpec;
use prft_metrics::AsciiTable;
use prft_types::NodeId;
use std::process::ExitCode;

fn main() -> ExitCode {
    println!("E8 — Figure 2a: normal execution of pRFT (n = 4, one round)\n");
    let n = 4;
    let spec = ScenarioSpec::new("fig2", n, 1)
        .base_seed(7)
        .horizon(100_000);
    prft_sim::obs::hooks::reset();
    let (sim, _outcome) = prft_lab::run_sim(&spec, spec.base_seed, |sim| sim.set_tracing(true));
    let obs = prft_core::obs::collect(&sim, &prft_sim::obs::hooks::snapshot());

    // Phase timeline: entry/exit of each phase across the committee,
    // straight from the recorded per-replica phase spans.
    let phases = ["Propose", "Vote", "Commit", "Reveal", "Final"];
    let mut timeline = AsciiTable::new(vec!["phase", "replicas", "first entry", "last entry"])
        .with_title("Phase timeline (times in simulation ticks, Δ = 10)");
    for label in phases {
        let entries: Vec<u64> = (0..n)
            .flat_map(|i| {
                prft_lab::replica(&sim, NodeId(i))
                    .stats()
                    .phase_transitions
                    .iter()
                    .filter(|(_, phase, _)| phase.label() == label)
                    .map(|(_, _, at)| at.0)
                    .collect::<Vec<_>>()
            })
            .collect();
        let first = entries.iter().min();
        let last = entries.iter().max();
        timeline.row(vec![
            label.into(),
            entries.len().to_string(),
            first.map_or("-".into(), |t| t.to_string()),
            last.map_or("-".into(), |t| t.to_string()),
        ]);
    }
    println!("{timeline}\n");

    // The ladder: when each replica entered each phase (one span per
    // phase in a crash-free single round).
    println!("Ladder (phase entry at each replica, from the recorded spans):");
    let mut ladder = AsciiTable::new(vec![
        "replica", "Propose", "Vote", "Commit", "Reveal", "Final",
    ]);
    for i in 0..n {
        let mut row = vec![format!("P{i}")];
        let transitions = &prft_lab::replica(&sim, NodeId(i)).stats().phase_transitions;
        for label in phases {
            let at = transitions
                .iter()
                .filter(|(_, phase, _)| phase.label() == label)
                .map(|(_, _, at)| at.0)
                .min();
            row.push(at.map_or("-".into(), |t| t.to_string()));
        }
        ladder.row(row);
    }
    println!("{ladder}\n");

    // Figure 2b: message inventory with measured wire sizes.
    println!("Figure 2b: pRFT message inventory (measured mean wire bytes)\n");
    let mut inventory = AsciiTable::new(vec!["message", "paper form", "count", "mean bytes"]);
    let forms = [
        ("Propose", "(⟨Propose, B_l, h_l, r⟩, s_pro)"),
        ("Vote", "(⟨Vote, h_i, s_pro, r⟩, s_vote)"),
        ("Commit", "(⟨Commit, h*, s_pro, V_i, r⟩, s_com)"),
        ("Reveal", "(⟨Reveal, h_tc, h_l, W_i, r⟩, s_rev)"),
        ("Expose", "(⟨Expose, D_i, r⟩, s_exp)"),
        ("Final", "(⟨Final, h_l, s_pro⟩, s_fin)"),
        ("ViewChange", "(⟨ViewChange, Phase, r⟩, s_vc)"),
        ("CommitView", "(⟨CommitView, V_i, r⟩, s_cv)"),
    ];
    for (kind, form) in forms {
        let stats = sim.meter().kind(kind);
        let mean =
            (stats.bytes.checked_div(stats.count)).map_or_else(|| "-".into(), |b| b.to_string());
        inventory.row(vec![
            kind.into(),
            form.into(),
            stats.count.to_string(),
            mean,
        ]);
    }
    println!("{inventory}\n");

    // Cross-check: the engine-side Meter (what was sent) against the
    // replica-side registry (what was received and counted in
    // `on_message`). A quiescent run delivers every send, so any drift
    // between the two accounting paths is a bug in one of them.
    println!("Meter ↔ registry cross-check (sent vs received per kind):");
    let mut ok = true;
    for (kind, _) in forms {
        let sent = sim.meter().kind(kind);
        if sent.count == 0 {
            continue;
        }
        let recv_msgs: u64 = (0..n)
            .map(|i| obs.counter(&format!("recv.P{i}.{kind}.msgs")))
            .sum();
        let recv_bytes: u64 = (0..n)
            .map(|i| obs.counter(&format!("recv.P{i}.{kind}.bytes")))
            .sum();
        let matches = sent.count == recv_msgs && sent.bytes == recv_bytes;
        ok &= matches;
        println!(
            "  {} {kind}: sent {} msgs / {} bytes, received {recv_msgs} msgs / {recv_bytes} bytes",
            if matches { "✓" } else { "✗" },
            sent.count,
            sent.bytes,
        );
    }
    println!();
    if !ok {
        eprintln!("error: Meter and counter registry disagree — accounting bug");
        return ExitCode::FAILURE;
    }
    println!(
        "The round proceeds exactly as the paper's ladder: one leader\n\
         broadcast, then three all-to-all waves (Vote → Commit → Reveal),\n\
         then Finals; Expose and the view-change messages never appear in a\n\
         normal execution. Certificate nesting is visible in the sizes:\n\
         Commit carries n−t0 votes, Reveal carries n−t0 such commits."
    );
    ExitCode::SUCCESS
}
