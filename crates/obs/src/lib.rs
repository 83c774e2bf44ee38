//! # micco-obs — telemetry for MICCO runs
//!
//! The instrument panel of the stack: turns scheduler/executor activity
//! into **hierarchical spans** (run → stage → task, with copy, compute,
//! steal, retry and fault sub-events) and a **Chrome-trace / Perfetto
//! JSON exporter** with its reader — so a schedule can be *seen*, not
//! just summarized, and an executed trace can be certified against its
//! plan.
//!
//! ## Architecture
//!
//! ```text
//!  SimMachine ──ExecObserver hooks──▶ SpanObserver ─┐
//!  micco-exec workers ──wall-clock records──────────┼─▶ TraceSink (Recorder)
//!  Session ──run spans──────────────────────────────┘        │
//!                                                     to_perfetto_json
//!                                                            │  trace file
//!                                 micco certify ◀── from_perfetto_json
//! ```
//!
//! Everything funnels through [`TraceSink`], a thread-safe append sink.
//! The in-memory [`Recorder`] is the standard implementation; it keeps
//! the event log and renders Perfetto JSON on demand. That JSON is the
//! one trace file: the viewer loads it, and [`from_perfetto_json`] reads
//! it back for the certifier. Simulated runs attach a [`SpanObserver`]
//! to a `micco_gpusim::SimMachine`; the real executor records wall-clock
//! spans directly from its workers. Both produce the same span taxonomy,
//! so sim and real timelines are comparable side by side.
//!
//! The spans draw what the simulator counts; they do not count it again.
//! A run's totals are its `micco_gpusim::ExecStats`, and
//! [`reconcile_with_stats`] checks the per-device spans against them.
//! [`MetricsRegistry`] holds the daemon's `serve.*`/`tenant.*` counters
//! and gauges (its `/metrics` endpoint), not a simulated run's.
//!
//! ## Example: trace a simulated run
//!
//! ```
//! use micco_gpusim::{GpuId, MachineConfig, SimMachine};
//! use micco_obs::{from_perfetto_json, reconcile_with_stats, Recorder, SpanObserver};
//! use micco_workload::WorkloadSpec;
//!
//! let stream = WorkloadSpec::new(6, 48).with_vectors(2).with_seed(1).generate();
//! let recorder = Recorder::shared();
//! let mut machine = SimMachine::new(MachineConfig::mi100_like(2))
//!     .with_observer(Box::new(SpanObserver::new(recorder.clone())));
//! let mut i = 0usize;
//! for v in stream.vectors() {
//!     for t in &v.tasks {
//!         machine.execute(t, GpuId(i % 2)).unwrap();
//!         i += 1;
//!     }
//!     machine.barrier();
//! }
//! // per-device span totals reconstruct the simulator's accounting
//! reconcile_with_stats(&recorder.events(), machine.stats(), 1e-9).unwrap();
//! // and the trace file reads back to the same spans, bit for bit
//! let json = recorder.to_perfetto_json();
//! let read = from_perfetto_json(&json).unwrap();
//! reconcile_with_stats(&read, machine.stats(), 1e-9).unwrap();
//! ```

#![warn(missing_docs)]

pub mod json;
pub mod metrics;
pub mod observer;
pub mod perfetto;
pub mod sink;
pub mod span;

pub use json::{JsonError, ObjBuilder, Value};
pub use metrics::{MetricsRegistry, MetricsSnapshot};
pub use observer::{SpanObserver, SECS_TO_US};
pub use perfetto::{
    from_perfetto_json, reconcile_with_stats, span_track_totals, to_perfetto_json, PerfettoError,
};
pub use sink::{NullSink, Recorder, TraceSink};
pub use span::{FlowPoint, TraceEvent, Track, CONTROL_PID, LINK_PID_BASE};
