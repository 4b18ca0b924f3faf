//! The delivery record for timeline rendering (paper Figure 2a).
//!
//! A [`Trace`] is the raw chronological record the engine fills in at
//! each dispatched delivery. Rendering it (the Chrome-trace export) is a
//! higher layer's job: `prft_lab::chrome_trace_for`.

use crate::SimTime;
use prft_types::NodeId;

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
}
