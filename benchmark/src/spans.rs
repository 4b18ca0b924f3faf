//! The benchmark's own tracer: run-level spans kept in memory, per-event
//! handler and link time folded into accumulators.
//!
//! A span is `{name, layer, start, end, parent, run}`; the layer is the
//! crate whose public function the span wraps. Spans nest by a stack, so
//! a span's parent is whatever was open when it started. Per-event time
//! (hundreds of thousands of handler and link calls per run) is not kept
//! span by span: the wrappers in [`crate::wrap`] fold it into one
//! `{count, total, max}` accumulator per (layer, kind), and
//! [`Tracer::fold`] hangs those totals under the span they ran inside.
//!
//! A span's **self time** is its duration minus its child spans and
//! folded totals, so self times over a tree sum to the root's duration:
//! nothing is counted twice and the remainder (`unattributed`) is
//! exactly the benchmark's own glue between spans.

use prft_lab::json::Json;
use std::collections::BTreeMap;
use std::time::Instant;

/// The layer of the benchmark's own bookkeeping spans (repetition roots).
pub const BENCH_LAYER: &str = "bench";

/// One recorded span. Times are nanoseconds since the tracer started.
#[derive(Debug, Clone, PartialEq)]
pub struct Span {
    pub name: &'static str,
    pub layer: &'static str,
    pub start_ns: u64,
    pub end_ns: u64,
    pub parent: Option<usize>,
    /// Which seeded run the span belongs to (0 = outside any run).
    pub run: u32,
}

impl Span {
    pub fn duration_ns(&self) -> u64 {
        self.end_ns - self.start_ns
    }
}

/// Per-event time folded under one span: `count` calls of `kind` in
/// `layer` took `total_ns` together, the slowest `max_ns`.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Default)]
pub struct Folded {
    pub count: u64,
    pub total_ns: u64,
    pub max_ns: u64,
}

impl Folded {
    pub fn add(&mut self, ns: u64) {
        self.count += 1;
        self.total_ns += ns;
        self.max_ns = self.max_ns.max(ns);
    }

    pub fn merge(&mut self, other: &Folded) {
        self.count += other.count;
        self.total_ns += other.total_ns;
        self.max_ns = self.max_ns.max(other.max_ns);
    }
}

/// In-memory span recorder for one traced repetition.
pub struct Tracer {
    origin: Instant,
    spans: Vec<Span>,
    open: Vec<usize>,
    run: u32,
    /// `(parent span, layer, kind, totals)`.
    folded: Vec<(usize, &'static str, &'static str, Folded)>,
}

impl Default for Tracer {
    fn default() -> Self {
        Tracer::new()
    }
}

impl Tracer {
    pub fn new() -> Tracer {
        Tracer {
            origin: Instant::now(),
            spans: Vec::new(),
            open: Vec::new(),
            run: 0,
            folded: Vec::new(),
        }
    }

    fn now_ns(&self) -> u64 {
        self.origin.elapsed().as_nanos() as u64
    }

    /// Starts the next seeded run: spans opened from here on carry its id.
    pub fn next_run(&mut self) -> u32 {
        self.run += 1;
        self.run
    }

    /// Opens a span under whatever span is currently open.
    pub fn enter(&mut self, name: &'static str, layer: &'static str) -> usize {
        let id = self.spans.len();
        let start_ns = self.now_ns();
        self.spans.push(Span {
            name,
            layer,
            start_ns,
            end_ns: start_ns,
            parent: self.open.last().copied(),
            run: self.run,
        });
        self.open.push(id);
        id
    }

    /// Closes span `id` — and any span still open inside it, which only
    /// happens when a panic (caught per run) unwound past their exits.
    pub fn exit(&mut self, id: usize) {
        let end_ns = self.now_ns();
        while let Some(top) = self.open.pop() {
            self.spans[top].end_ns = end_ns;
            if top == id {
                break;
            }
        }
    }

    /// Runs `f` inside a span.
    pub fn scope<R>(
        &mut self,
        name: &'static str,
        layer: &'static str,
        f: impl FnOnce(&mut Tracer) -> R,
    ) -> R {
        let id = self.enter(name, layer);
        let out = f(self);
        self.exit(id);
        out
    }

    /// Hangs per-event totals under span `parent` (the `run_until` span
    /// the events were dispatched inside).
    pub fn fold(&mut self, parent: usize, layer: &'static str, kind: &'static str, totals: Folded) {
        if totals.count > 0 {
            self.folded.push((parent, layer, kind, totals));
        }
    }

    /// Self time of every span, in span order: duration minus child spans
    /// minus folded totals.
    pub fn self_ns(&self) -> Vec<u64> {
        let mut own: Vec<u64> = self.spans.iter().map(Span::duration_ns).collect();
        for span in &self.spans {
            if let Some(p) = span.parent {
                own[p] = own[p].saturating_sub(span.duration_ns());
            }
        }
        for (parent, _, _, totals) in &self.folded {
            own[*parent] = own[*parent].saturating_sub(totals.total_ns);
        }
        own
    }

    /// Self time per layer in seconds: span self times plus folded totals.
    pub fn layer_self_s(&self) -> BTreeMap<&'static str, f64> {
        let mut out: BTreeMap<&'static str, f64> = BTreeMap::new();
        for (span, own) in self.spans.iter().zip(self.self_ns()) {
            *out.entry(span.layer).or_default() += own as f64 / 1e9;
        }
        for (_, layer, _, totals) in &self.folded {
            *out.entry(layer).or_default() += totals.total_ns as f64 / 1e9;
        }
        out
    }

    /// Durations (seconds) of every span called `name`, in span order.
    pub fn durations_s(&self, name: &str) -> Vec<f64> {
        self.spans
            .iter()
            .filter(|s| s.name == name)
            .map(|s| s.duration_ns() as f64 / 1e9)
            .collect()
    }

    /// Total duration (seconds) of every span called `name`.
    pub fn total_s(&self, name: &str) -> f64 {
        self.durations_s(name).iter().sum()
    }

    /// Folded totals of one (layer, kind) summed over all runs.
    pub fn folded(&self, layer: &str, kind: &str) -> Folded {
        let mut out = Folded::default();
        for (_, l, k, totals) in &self.folded {
            if *l == layer && *k == kind {
                out.merge(totals);
            }
        }
        out
    }

    /// Folded totals of a whole layer summed over all kinds and runs.
    pub fn folded_layer(&self, layer: &str) -> Folded {
        let mut out = Folded::default();
        for (_, l, _, totals) in &self.folded {
            if *l == layer {
                out.merge(totals);
            }
        }
        out
    }

    /// The whole trace as one JSON document (`--trace-out`).
    pub fn to_json(&self) -> Json {
        let spans = self
            .spans
            .iter()
            .enumerate()
            .map(|(id, s)| {
                Json::obj([
                    ("id", Json::u64(id as u64)),
                    ("name", Json::str(s.name)),
                    ("layer", Json::str(s.layer)),
                    ("start_ns", Json::u64(s.start_ns)),
                    ("end_ns", Json::u64(s.end_ns)),
                    (
                        "parent",
                        s.parent.map_or(Json::Null, |p| Json::u64(p as u64)),
                    ),
                    ("run", Json::u64(u64::from(s.run))),
                ])
            })
            .collect();
        let folded = self
            .folded
            .iter()
            .map(|(parent, layer, kind, t)| {
                Json::obj([
                    ("parent", Json::u64(*parent as u64)),
                    ("run", Json::u64(u64::from(self.spans[*parent].run))),
                    ("layer", Json::str(*layer)),
                    ("kind", Json::str(*kind)),
                    ("count", Json::u64(t.count)),
                    ("total_ns", Json::u64(t.total_ns)),
                    ("max_ns", Json::u64(t.max_ns)),
                ])
            })
            .collect();
        Json::obj([("spans", Json::Arr(spans)), ("folded", Json::Arr(folded))])
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    /// A tracer with hand-set times: root [0, 100] ⊃ a [10, 60] ⊃ b [20, 30],
    /// and c [70, 90] under root.
    fn fixture() -> Tracer {
        let mut t = Tracer::new();
        let root = t.enter("rep", BENCH_LAYER);
        let a = t.enter("run", "sim");
        let b = t.enter("build", "lab");
        t.exit(b);
        t.exit(a);
        let c = t.enter("summarize", "lab");
        t.exit(c);
        t.exit(root);
        for (id, (start, end)) in [(0, 100), (10, 60), (20, 30), (70, 90)].iter().enumerate() {
            t.spans[id].start_ns = *start;
            t.spans[id].end_ns = *end;
        }
        t
    }

    #[test]
    fn parents_follow_the_open_stack() {
        let t = fixture();
        let parents: Vec<Option<usize>> = t.spans.iter().map(|s| s.parent).collect();
        assert_eq!(parents, vec![None, Some(0), Some(1), Some(0)]);
    }

    #[test]
    fn self_time_subtracts_children_only_once_per_level() {
        let t = fixture();
        // root: 100 − a(50) − c(20); a: 50 − b(10); b: 10; c: 20.
        assert_eq!(t.self_ns(), vec![30, 40, 10, 20]);
        assert_eq!(t.self_ns().iter().sum::<u64>(), 100, "sums to the root");
    }

    #[test]
    fn folded_totals_count_as_children_of_their_span() {
        let mut t = fixture();
        t.fold(
            1,
            "core",
            "Vote",
            Folded {
                count: 3,
                total_ns: 25,
                max_ns: 12,
            },
        );
        t.fold(1, "net", "deliver", Folded::default()); // empty: dropped
        assert_eq!(t.self_ns(), vec![30, 15, 10, 20]);
        let layers = t.layer_self_s();
        let ns = |layer: &str| (layers[layer] * 1e9).round() as u64;
        assert_eq!(
            (ns("core"), ns("sim"), ns("lab"), ns(BENCH_LAYER)),
            (25, 15, 30, 30)
        );
        let total: f64 = layers.values().sum();
        assert_eq!((total * 1e9).round() as u64, 100, "layers sum to the root");
        assert_eq!(t.folded("core", "Vote").count, 3);
        assert_eq!(t.folded_layer("net").count, 0);
    }

    #[test]
    fn run_ids_tag_spans_opened_after_next_run() {
        let mut t = Tracer::new();
        let a = t.enter("outside", BENCH_LAYER);
        t.exit(a);
        assert_eq!(t.next_run(), 1);
        let b = t.enter("cell", "lab");
        t.exit(b);
        assert_eq!(t.spans[0].run, 0);
        assert_eq!(t.spans[1].run, 1);
        assert_eq!(t.durations_s("cell").len(), 1);
    }
}
