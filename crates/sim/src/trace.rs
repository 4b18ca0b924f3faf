//! Traces: delivery records for timeline rendering (paper Figure 2a) and
//! a [`ChromeTrace`] builder emitting Chrome Trace Event Format JSON.
//!
//! A [`Trace`] is the raw chronological record the engine fills in at
//! each dispatched delivery; a
//! [`ChromeTrace`] is an export surface — phase spans and message-delivery
//! instants assembled by a higher layer open directly in Perfetto
//! (<https://ui.perfetto.dev>) or `chrome://tracing`. One virtual tick is
//! rendered as one microsecond, the unit of the format's `ts`/`dur`
//! fields.

use crate::SimTime;
use prft_types::NodeId;
use std::fmt::Write as _;

/// One delivered message.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct TraceEntry {
    /// Virtual time of delivery.
    pub at: SimTime,
    /// Sender.
    pub from: NodeId,
    /// Receiver.
    pub to: NodeId,
    /// Message kind label.
    pub kind: &'static str,
}

/// Deliveries in dispatch order (`at` never decreases; one discarded at a
/// crashed receiver is absent), recorded only when enabled on the
/// simulation — tracing every message is memory-heavy for large sweeps.
#[derive(Debug, Clone, Default)]
pub struct Trace {
    entries: Vec<TraceEntry>,
    enabled: bool,
}

impl Trace {
    /// Creates a disabled trace.
    pub fn new() -> Self {
        Trace::default()
    }

    /// Enables or disables recording.
    pub fn set_enabled(&mut self, enabled: bool) {
        self.enabled = enabled;
    }

    /// Records a delivery if enabled.
    pub fn record(&mut self, entry: TraceEntry) {
        if self.enabled {
            self.entries.push(entry);
        }
    }

    /// All recorded entries in delivery order.
    pub fn entries(&self) -> &[TraceEntry] {
        &self.entries
    }
}

/// One event in a Chrome trace: a complete span (`"ph":"X"`) or an
/// instant (`"ph":"i"`).
#[derive(Debug, Clone, PartialEq, Eq)]
struct ChromeEvent {
    name: String,
    cat: &'static str,
    /// Duration in microseconds for a complete span; `None` for instants.
    dur: Option<u64>,
    ts: u64,
    pid: u32,
    tid: u32,
    args: Vec<(&'static str, u64)>,
}

/// Builder for a Chrome Trace Event Format JSON document.
///
/// Events render in insertion order, so a builder filled deterministically
/// (replicas in id order, events in virtual-time order) renders to a
/// byte-identical document every run — the golden-file tests rely on it.
#[derive(Debug, Clone, Default, PartialEq, Eq)]
pub struct ChromeTrace {
    threads: Vec<(u32, u32, String)>,
    events: Vec<ChromeEvent>,
}

impl ChromeTrace {
    /// An empty trace document.
    pub fn new() -> Self {
        ChromeTrace::default()
    }

    /// Names the track `(pid, tid)` — shown as the row label in Perfetto.
    pub fn thread_name(&mut self, pid: u32, tid: u32, name: &str) {
        self.threads.push((pid, tid, name.to_string()));
    }

    /// Adds a complete span (`ph:"X"`) lasting from `begin` to `end`
    /// virtual ticks on track `(pid, tid)`, with optional numeric args.
    #[allow(clippy::too_many_arguments)] // mirrors the format's event fields
    pub fn complete(
        &mut self,
        name: &str,
        cat: &'static str,
        pid: u32,
        tid: u32,
        begin: SimTime,
        end: SimTime,
        args: &[(&'static str, u64)],
    ) {
        self.events.push(ChromeEvent {
            name: name.to_string(),
            cat,
            dur: Some(end.0.saturating_sub(begin.0)),
            ts: begin.0,
            pid,
            tid,
            args: args.to_vec(),
        });
    }

    /// Adds an instant event (`ph:"i"`, thread scope) at `at` on track
    /// `(pid, tid)`.
    pub fn instant(
        &mut self,
        name: &str,
        cat: &'static str,
        pid: u32,
        tid: u32,
        at: SimTime,
        args: &[(&'static str, u64)],
    ) {
        self.events.push(ChromeEvent {
            name: name.to_string(),
            cat,
            dur: None,
            ts: at.0,
            pid,
            tid,
            args: args.to_vec(),
        });
    }

    /// Number of span/instant events recorded (metadata excluded).
    pub fn len(&self) -> usize {
        self.events.len()
    }

    /// Whether no span or instant has been recorded.
    pub fn is_empty(&self) -> bool {
        self.events.is_empty()
    }

    /// Renders the Chrome Trace Event Format JSON document.
    pub fn render(&self) -> String {
        let mut out = String::new();
        out.push_str("{\"displayTimeUnit\":\"ms\",\"traceEvents\":[");
        let mut first = true;
        for (pid, tid, name) in &self.threads {
            if !first {
                out.push(',');
            }
            first = false;
            let _ = write!(
                out,
                "\n{{\"name\":\"thread_name\",\"ph\":\"M\",\"pid\":{pid},\"tid\":{tid},\
                 \"args\":{{\"name\":\"{}\"}}}}",
                escape_json(name)
            );
        }
        for e in &self.events {
            if !first {
                out.push(',');
            }
            first = false;
            let ph = if e.dur.is_some() { "X" } else { "i" };
            let _ = write!(
                out,
                "\n{{\"name\":\"{}\",\"cat\":\"{}\",\"ph\":\"{ph}\",\"ts\":{}",
                escape_json(&e.name),
                e.cat,
                e.ts
            );
            if let Some(dur) = e.dur {
                let _ = write!(out, ",\"dur\":{dur}");
            } else {
                out.push_str(",\"s\":\"t\"");
            }
            let _ = write!(out, ",\"pid\":{},\"tid\":{}", e.pid, e.tid);
            if !e.args.is_empty() {
                out.push_str(",\"args\":{");
                for (i, (k, v)) in e.args.iter().enumerate() {
                    if i > 0 {
                        out.push(',');
                    }
                    let _ = write!(out, "\"{k}\":{v}");
                }
                out.push('}');
            }
            out.push('}');
        }
        out.push_str("\n]}\n");
        out
    }
}

/// Escapes a string for embedding inside a JSON string literal.
fn escape_json(s: &str) -> String {
    let mut out = String::with_capacity(s.len());
    for c in s.chars() {
        match c {
            '"' => out.push_str("\\\""),
            '\\' => out.push_str("\\\\"),
            '\n' => out.push_str("\\n"),
            '\t' => out.push_str("\\t"),
            '\r' => out.push_str("\\r"),
            c if (c as u32) < 0x20 => {
                let _ = write!(out, "\\u{:04x}", c as u32);
            }
            c => out.push(c),
        }
    }
    out
}

#[cfg(test)]
mod tests {
    use super::*;

    fn entry(at: u64, kind: &'static str) -> TraceEntry {
        TraceEntry {
            at: SimTime(at),
            from: NodeId(0),
            to: NodeId(1),
            kind,
        }
    }

    #[test]
    fn disabled_trace_records_nothing() {
        let mut t = Trace::new();
        t.record(entry(1, "Vote"));
        assert!(t.entries().is_empty());
    }

    #[test]
    fn enabled_trace_records() {
        let mut t = Trace::new();
        t.set_enabled(true);
        t.record(entry(1, "Vote"));
        t.record(entry(2, "Commit"));
        assert_eq!(t.entries(), [entry(1, "Vote"), entry(2, "Commit")]);
    }

    #[test]
    fn chrome_trace_renders_spans_instants_and_metadata() {
        let mut c = ChromeTrace::new();
        assert!(c.is_empty());
        c.thread_name(0, 1, "P1");
        c.complete(
            "Vote",
            "phase",
            0,
            1,
            SimTime(10),
            SimTime(25),
            &[("round", 3)],
        );
        c.instant("Commit", "msg", 0, 1, SimTime(12), &[("from", 2)]);
        assert_eq!(c.len(), 2);
        let json = c.render();
        assert!(json.starts_with("{\"displayTimeUnit\":\"ms\",\"traceEvents\":["));
        assert!(json.contains(
            "{\"name\":\"thread_name\",\"ph\":\"M\",\"pid\":0,\"tid\":1,\
             \"args\":{\"name\":\"P1\"}}"
        ));
        assert!(json.contains(
            "{\"name\":\"Vote\",\"cat\":\"phase\",\"ph\":\"X\",\"ts\":10,\
             \"dur\":15,\"pid\":0,\"tid\":1,\"args\":{\"round\":3}}"
        ));
        assert!(json.contains(
            "{\"name\":\"Commit\",\"cat\":\"msg\",\"ph\":\"i\",\"ts\":12,\
             \"s\":\"t\",\"pid\":0,\"tid\":1,\"args\":{\"from\":2}}"
        ));
        assert!(json.ends_with("\n]}\n"));
    }

    #[test]
    fn chrome_trace_escapes_names() {
        let mut c = ChromeTrace::new();
        c.instant("a\"b\\c", "msg", 0, 0, SimTime(0), &[]);
        assert!(c.render().contains("\"name\":\"a\\\"b\\\\c\""));
        assert_eq!(escape_json("x\ny\u{1}"), "x\\ny\\u0001");
    }
}
