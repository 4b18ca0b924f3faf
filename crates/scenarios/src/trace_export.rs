//! Chrome-trace export for scenario runs (`prft-lab run --trace-out`).
//!
//! A trace is always produced from **one** seeded run with delivery
//! tracing enabled — batch aggregation makes no sense for a timeline. The
//! run is rebuilt from the spec with the same derived seed the batch
//! runner would use, so the exported spans correspond exactly to seed
//! index 0 of the report next to it.
//!
//! The document is Chrome Trace Event Format JSON, built from [`Json`]
//! values: it opens in Perfetto (<https://ui.perfetto.dev>) or
//! `chrome://tracing`. One virtual tick is one microsecond, the unit of
//! the format's `ts`/`dur` fields. Events are emitted in a fixed order
//! (tracks by actor id, spans by replica then time, instants in delivery
//! order), so a run renders to the same bytes every time.

use crate::build::run_sim;
use crate::json::Json;
use crate::spec::ScenarioSpec;
use prft_core::AsReplica;

/// Runs one traced simulation of `spec` at `seed` and returns its
/// Chrome-trace events in file order: a `thread_name` metadata event per
/// actor (replicas `P<i>`, workload clients `C<i>`), then one `"X"` span
/// per replica phase transition (each phase lasts until the next
/// transition, the last until the run's stop tick), then one `"i"`
/// instant per message delivery. Write them with [`render_chrome_trace`].
pub fn chrome_trace_for(spec: &ScenarioSpec, seed: u64) -> Vec<Json> {
    let (sim, _outcome) = run_sim(spec, seed, |sim| sim.set_tracing(true));
    // Every event ends with its track and its one argument.
    let on_track = |mut head: Vec<(&'static str, Json)>, tid: usize, arg: (&'static str, Json)| {
        head.extend([
            ("pid", Json::u64(0)),
            ("tid", Json::u64(tid as u64)),
            ("args", Json::obj([arg])),
        ]);
        Json::obj(head)
    };
    let mut events = Vec::new();
    for (i, node) in sim.nodes().enumerate() {
        let seat = if node.as_replica().is_some() {
            'P'
        } else {
            'C'
        };
        let head = vec![("name", Json::str("thread_name")), ("ph", Json::str("M"))];
        events.push(on_track(head, i, ("name", Json::str(format!("{seat}{i}")))));
    }
    for (i, node) in sim.nodes().enumerate() {
        let Some(replica) = node.as_replica() else {
            continue;
        };
        let transitions = &replica.stats().phase_transitions;
        for (j, (round, phase, at)) in transitions.iter().enumerate() {
            let end = transitions.get(j + 1).map_or(sim.now(), |(_, _, t)| *t);
            let head = vec![
                ("name", Json::str(phase.label())),
                ("cat", Json::str("phase")),
                ("ph", Json::str("X")),
                ("ts", Json::u64(at.0)),
                ("dur", Json::u64(end.0.saturating_sub(at.0))),
            ];
            events.push(on_track(head, i, ("round", Json::u64(round.0))));
        }
    }
    for e in sim.trace().entries() {
        let head = vec![
            ("name", Json::str(e.kind)),
            ("cat", Json::str("msg")),
            ("ph", Json::str("i")),
            ("ts", Json::u64(e.at.0)),
            ("s", Json::str("t")),
        ];
        events.push(on_track(head, e.to.0, ("from", Json::u64(e.from.0 as u64))));
    }
    events
}

/// Renders [`chrome_trace_for`]'s events as the trace file: the document
/// header, each event's compact [`Json::render`] on its own line, and the
/// closing brackets.
pub fn render_chrome_trace(events: &[Json]) -> String {
    let lines: Vec<String> = events.iter().map(Json::render).collect();
    format!(
        "{{\"displayTimeUnit\":\"ms\",\"traceEvents\":[\n{}\n]}}\n",
        lines.join(",\n")
    )
}
