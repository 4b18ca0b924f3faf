//! **E12 — Claim 3**: with a non-deviating majority, any partition of
//! `P ∖ T` yields *either* agreement in exactly one partition *or* a
//! timeout — never two disjoint quorums (since `k + t + 2·t0 < n`).
//!
//! We sweep random partitions of the honest players (with the byzantine
//! set bridging, per the paper's model): each seed becomes a `prft-lab`
//! scenario spec and the sweep fans across cores; the per-round outcome
//! inspection reads the built simulation directly (the engine's
//! single-run escape hatch).
//!
//! Run: `cargo run -p prft-bench --release --bin claim3_partitions`

use prft_bench::verdict;
use prft_core::analysis::{analyze, honest_ids};
use prft_lab::{BatchRunner, PartitionSpec, ScenarioSpec};
use prft_metrics::AsciiTable;
use prft_sim::{SimRng, SimTime};

struct Outcome {
    split: String,
    finalized: usize,
    timed_out: usize,
    double_agreement: bool,
    agreement: bool,
}

fn partition_spec(seed: u64, n: usize, t: usize) -> ScenarioSpec {
    // Random split of the honest players {t..n}; P0..P_{t-1} are the
    // byzantine bridges (they participate and talk to both sides).
    let mut rng = SimRng::new(seed * 77 + 5);
    let mut honest: Vec<usize> = (t..n).collect();
    rng.shuffle(&mut honest);
    let cut = 1 + rng.below((honest.len() - 1) as u64) as usize;
    let (a, b) = honest.split_at(cut);
    ScenarioSpec::new(format!("{}|{}", a.len(), b.len()), n, 3)
        .base_seed(seed)
        .partition(PartitionSpec {
            start: 0,
            end: 30_000,
            groups: vec![a.to_vec(), b.to_vec()],
            bridges: (0..t).collect(),
        })
        .horizon(25_000) // strictly inside the partition
}

fn run_probe(spec: &ScenarioSpec) -> Outcome {
    let mut sim = prft_lab::build_sim(spec, spec.base_seed);
    sim.run_until(SimTime(spec.horizon));

    let honest_ids = honest_ids(&sim);
    let mut finalized_rounds = std::collections::BTreeSet::new();
    let mut timed_out_rounds = std::collections::BTreeSet::new();
    let mut per_round_values: std::collections::HashMap<
        u64,
        std::collections::HashSet<prft_types::Digest>,
    > = std::collections::HashMap::new();
    for &id in &honest_ids {
        let node = prft_lab::replica(&sim, id);
        for (r, _) in &node.stats().finalize_times {
            finalized_rounds.insert(r.0);
        }
        for r in &node.stats().view_changed_rounds {
            timed_out_rounds.insert(r.0);
        }
        // Values finalized per height for double-agreement detection.
        for (h, entry) in node.chain().iter().enumerate() {
            if entry.status == prft_types::BlockStatus::Final && h > 0 {
                per_round_values
                    .entry(entry.block.round.0)
                    .or_default()
                    .insert(entry.block.id());
            }
        }
    }
    let double_agreement = per_round_values.values().any(|v| v.len() > 1);
    let report = analyze(&sim);
    Outcome {
        split: spec.label.clone(),
        finalized: finalized_rounds.len(),
        timed_out: timed_out_rounds.len(),
        double_agreement,
        agreement: report.agreement,
    }
}

fn main() {
    println!("E12 — Claim 3: partitions yield one agreement xor timeout\n");
    let n = 9; // t0 = 2, quorum 7
    let t = 2; // byzantine bridges: they talk to both sides (worst case)
    println!(
        "n = {n}, t0 = 2, t = {t}; byzantine bridge both sides; double quorum\n\
         feasible iff k+t+2·t0 ≥ n: {} — so at most one side can ever reach\n\
         the n−t0 = 7 quorum (side + t ≥ 7 needs a side of ≥ 5 of the 7 honest)\n",
        prft_game::analytic::double_quorum_feasible(n, 2, 0, t)
    );

    let specs: Vec<ScenarioSpec> = (0..12u64).map(|seed| partition_spec(seed, n, t)).collect();
    let outcomes = BatchRunner::all_cores().map(&specs, |_, spec| run_probe(spec));

    let mut table = AsciiTable::new(vec![
        "seed",
        "partition of P∖T",
        "rounds finalized",
        "rounds timed out",
        "double agreement",
        "agreement kept",
    ])
    .with_title("Random partitions, 3-round budget, partition heals at t = 30_000");

    let mut all_ok = true;
    for (seed, o) in outcomes.iter().enumerate() {
        let ok = !o.double_agreement && o.agreement;
        all_ok &= ok;
        let outcome = if o.finalized > 0 {
            "one-sided agreement"
        } else {
            "timeout/stall"
        };
        table.row(vec![
            seed.to_string(),
            o.split.clone(),
            format!("{} ({outcome})", o.finalized),
            o.timed_out.to_string(),
            verdict(o.double_agreement),
            verdict(o.agreement),
        ]);
    }
    println!("{table}\n");
    println!(
        "All partitions behave as Claim 3 requires: {} — a side with\n\
         ≥ n − t0 live players finalizes alone; otherwise the round times\n\
         out into a view change; no split ever produces two quorums, because\n\
         k + t + 2·t0 < n makes disjoint (n − t0)-quorums impossible.",
        verdict(all_ok)
    );
}
