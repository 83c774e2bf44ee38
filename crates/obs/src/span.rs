//! The span model: what a MICCO timeline is made of.
//!
//! A run is rendered as one *process* per device (`pid`), each with a small
//! fixed set of *tracks* (Chrome-trace threads): the compute engine, the
//! copy engine, and a control lane for instants that belong to neither. A
//! synthetic control process ([`CONTROL_PID`]) carries the run/stage
//! hierarchy: the whole run on one track, the per-stage spans on another,
//! so `run → stage → task` nesting is visible at a glance.
//!
//! Timestamps are microseconds (`f64`): simulated seconds × 10⁶ for sim
//! runs, wall-clock microseconds since run start for real runs — the same
//! unit `chrome://tracing` and Perfetto expect in the JSON `ts`/`dur`
//! fields.

/// The synthetic process id carrying run- and stage-level control spans
/// (deliberately far above any realistic device pid).
pub const CONTROL_PID: u32 = 1_000_000;

/// Base process id for per-link utilization lanes: link `i` renders as
/// process `LINK_PID_BASE + i` (above [`CONTROL_PID`] so link lanes sort
/// after devices and control in the viewer).
pub const LINK_PID_BASE: u32 = 2_000_000;

/// Which lane of a process a span or instant lands on. Maps to the
/// Chrome-trace `tid` within the event's `pid`.
#[derive(Debug, Clone, Copy, PartialEq, Eq, PartialOrd, Ord, Hash)]
pub enum Track {
    /// The device's compute engine (kernels / real task execution).
    Compute,
    /// The device's copy engine (staging, evictions, peer-copy charges).
    Copy,
    /// Control-flow instants and stage spans.
    Control,
    /// The whole-run span (only used on [`CONTROL_PID`]).
    Run,
    /// Per-link transfer occupancy (only used on [`LINK_PID_BASE`]+ pids).
    Link,
}

impl Track {
    /// Every track, in [`Track::tid`] order.
    pub const ALL: [Track; 5] = [
        Track::Compute,
        Track::Copy,
        Track::Control,
        Track::Run,
        Track::Link,
    ];

    /// The Chrome-trace thread id this track renders on.
    pub fn tid(self) -> u32 {
        match self {
            Track::Compute => 0,
            Track::Copy => 1,
            Track::Control => 2,
            Track::Run => 3,
            Track::Link => 4,
        }
    }

    /// Human-readable track name (also the exported event category).
    pub fn label(self) -> &'static str {
        match self {
            Track::Compute => "compute",
            Track::Copy => "copy",
            Track::Control => "control",
            Track::Run => "run",
            Track::Link => "link",
        }
    }
}

/// One endpoint of a flow arrow.
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct FlowPoint {
    /// Process the endpoint attaches to.
    pub pid: u32,
    /// Track within the process.
    pub track: Track,
    /// Timestamp in microseconds.
    pub ts_us: f64,
}

/// A single telemetry event, the unit a [`crate::TraceSink`] records.
///
/// Events carry their full coordinates (`pid`, [`Track`], µs timestamps)
/// so a sink can stay a dumb append log and the exporter a pure function.
#[derive(Debug, Clone, PartialEq)]
pub enum TraceEvent {
    /// A complete span `[start_us, start_us + dur_us)` on one track.
    Span {
        /// Owning process (device or [`CONTROL_PID`]).
        pid: u32,
        /// Track within the process.
        track: Track,
        /// Display name (e.g. `task 17`, `copy`, `stage 2`).
        name: String,
        /// Start timestamp in microseconds.
        start_us: f64,
        /// Duration in microseconds.
        dur_us: f64,
        /// Extra key/value annotations rendered in the event's `args`.
        args: Vec<(String, String)>,
    },
    /// A point event (eviction, fault, retry, device loss).
    Instant {
        /// Owning process.
        pid: u32,
        /// Track within the process.
        track: Track,
        /// Display name.
        name: String,
        /// Timestamp in microseconds.
        ts_us: f64,
        /// Extra key/value annotations.
        args: Vec<(String, String)>,
    },
    /// A flow arrow between two tracks (D2D transfer, work steal).
    Flow {
        /// Unique flow id (pairs the start and end halves on export).
        id: u64,
        /// Display name.
        name: String,
        /// Arrow tail.
        from: FlowPoint,
        /// Arrow head.
        to: FlowPoint,
    },
    /// Names a process in the exported trace (emitted once per pid).
    ProcessLabel {
        /// The process being named.
        pid: u32,
        /// Label shown by the viewer (e.g. `gpu0`, `node1/gpu2`).
        label: String,
    },
}

impl TraceEvent {
    /// The process this event belongs to (the `from` side for flows).
    pub fn pid(&self) -> u32 {
        match self {
            TraceEvent::Span { pid, .. }
            | TraceEvent::Instant { pid, .. }
            | TraceEvent::ProcessLabel { pid, .. } => *pid,
            TraceEvent::Flow { from, .. } => from.pid,
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn tracks_map_to_distinct_tids() {
        let tids: Vec<u32> = Track::ALL.into_iter().map(Track::tid).collect();
        assert_eq!(tids, [0, 1, 2, 3, 4]);
    }

    #[test]
    fn event_pid_accessor_covers_all_variants() {
        let span = TraceEvent::Span {
            pid: 3,
            track: Track::Compute,
            name: "task 0".into(),
            start_us: 0.0,
            dur_us: 1.0,
            args: Vec::new(),
        };
        assert_eq!(span.pid(), 3);
        let flow = TraceEvent::Flow {
            id: 1,
            name: "d2d".into(),
            from: FlowPoint {
                pid: 7,
                track: Track::Copy,
                ts_us: 0.0,
            },
            to: FlowPoint {
                pid: 8,
                track: Track::Copy,
                ts_us: 1.0,
            },
        };
        assert_eq!(flow.pid(), 7);
    }
}
