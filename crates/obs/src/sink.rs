//! Where telemetry goes: the [`TraceSink`] trait and the in-memory
//! [`Recorder`] that backs every exporter in the repo.

use std::sync::Arc;

use parking_lot::Mutex;

use crate::span::TraceEvent;

/// A destination for [`TraceEvent`]s. Implementations must be `Send +
/// Sync`: the real executor records from worker threads concurrently.
pub trait TraceSink: Send + Sync {
    /// Record one event. Ordering between threads is unspecified; events
    /// carry absolute timestamps so the exporter never depends on record
    /// order across processes.
    fn record(&self, event: TraceEvent);
}

impl<S: TraceSink + ?Sized> TraceSink for Arc<S> {
    fn record(&self, event: TraceEvent) {
        (**self).record(event);
    }
}

/// A sink that drops everything (telemetry disabled).
#[derive(Debug, Default, Clone, Copy)]
pub struct NullSink;

impl TraceSink for NullSink {
    fn record(&self, _event: TraceEvent) {}
}

/// The standard in-memory sink: an append log of events, shareable
/// behind an `Arc` across sim observers, real-executor workers, and the
/// driver at once.
#[derive(Default)]
pub struct Recorder {
    events: Mutex<Vec<TraceEvent>>,
}

impl Recorder {
    /// An empty recorder.
    pub fn new() -> Self {
        Self::default()
    }

    /// An empty recorder already wrapped for sharing.
    pub fn shared() -> Arc<Self> {
        Arc::new(Self::new())
    }

    /// Copy of every event recorded so far, in record order.
    pub fn events(&self) -> Vec<TraceEvent> {
        self.events.lock().clone()
    }

    /// Number of events recorded so far.
    pub fn len(&self) -> usize {
        self.events.lock().len()
    }

    /// Whether nothing has been recorded yet.
    pub fn is_empty(&self) -> bool {
        self.events.lock().is_empty()
    }

    /// Render everything recorded so far as Perfetto-loadable
    /// Chrome-trace JSON (see [`crate::perfetto::to_perfetto_json`]) —
    /// also the file `micco certify` reads back.
    pub fn to_perfetto_json(&self) -> String {
        crate::perfetto::to_perfetto_json(&self.events())
    }
}

impl TraceSink for Recorder {
    fn record(&self, event: TraceEvent) {
        self.events.lock().push(event);
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::span::Track;

    #[test]
    fn recorder_appends_in_order() {
        let r = Recorder::new();
        assert!(r.is_empty());
        for i in 0..3 {
            r.record(TraceEvent::Instant {
                pid: 0,
                track: Track::Control,
                name: format!("e{i}"),
                ts_us: i as f64,
                args: Vec::new(),
            });
        }
        assert_eq!(r.len(), 3);
        let names: Vec<String> = r
            .events()
            .iter()
            .map(|e| match e {
                TraceEvent::Instant { name, .. } => name.clone(),
                _ => unreachable!(),
            })
            .collect();
        assert_eq!(names, vec!["e0", "e1", "e2"]);
    }

    #[test]
    fn arc_of_sink_is_a_sink() {
        let r = Recorder::shared();
        let as_dyn: Arc<dyn TraceSink> = r.clone();
        as_dyn.record(TraceEvent::ProcessLabel {
            pid: 1,
            label: "gpu1".into(),
        });
        assert_eq!(r.len(), 1);
    }

    #[test]
    fn null_sink_swallows() {
        NullSink.record(TraceEvent::ProcessLabel {
            pid: 0,
            label: "x".into(),
        });
    }
}
