//! # micco-obs — telemetry for MICCO runs
//!
//! The instrument panel of the stack: turns scheduler/executor activity
//! into **hierarchical spans** (run → stage → task, with copy, compute,
//! steal, retry and fault sub-events), a **counter/gauge metrics
//! registry**, and a **Chrome-trace / Perfetto JSON exporter** — so a
//! schedule can be *seen*, not just summarized.
//!
//! ## Architecture
//!
//! ```text
//!  SimMachine ──ExecObserver hooks──▶ SpanObserver ─┐
//!  micco-exec workers ──wall-clock records──────────┼─▶ TraceSink (Recorder)
//!  Session / cluster projection ──run, stage spans──┘        │
//!                                                  ┌─────────┴─────────┐
//!                                            MetricsRegistry    to_perfetto_json
//! ```
//!
//! Everything funnels through [`TraceSink`], a thread-safe append sink.
//! The in-memory [`Recorder`] is the standard implementation; it pairs the
//! event log with a [`MetricsRegistry`] and renders Perfetto JSON on
//! demand. Simulated runs attach a [`SpanObserver`] to a
//! `micco_gpusim::SimMachine`; the real executor records wall-clock spans
//! directly from its workers. Both produce the same span taxonomy, so sim
//! and real timelines are comparable side by side.
//!
//! ## Example: trace a simulated run
//!
//! ```
//! use micco_gpusim::{GpuId, MachineConfig, SimMachine};
//! use micco_obs::{reconcile_with_stats, Recorder, SpanObserver};
//! use micco_workload::WorkloadSpec;
//!
//! let stream = WorkloadSpec::new(6, 48).with_vectors(2).with_seed(1).generate();
//! let recorder = Recorder::shared();
//! let obs = SpanObserver::new(recorder.clone()).with_metrics(recorder.metrics());
//! let mut machine = SimMachine::new(MachineConfig::mi100_like(2))
//!     .with_observer(Box::new(obs));
//! let mut i = 0usize;
//! for v in stream.vectors() {
//!     for t in &v.tasks {
//!         machine.execute(t, GpuId(i % 2)).unwrap();
//!         i += 1;
//!     }
//!     machine.barrier();
//! }
//! // per-device span totals reconstruct the simulator's accounting
//! reconcile_with_stats(&recorder.events(), machine.stats(), 0, 1e-9).unwrap();
//! let json = recorder.to_perfetto_json();
//! assert!(json.contains("\"traceEvents\""));
//! ```

#![warn(missing_docs)]

pub mod json;
pub mod metrics;
pub mod observer;
pub mod perfetto;
pub mod sink;
pub mod span;
pub mod textio;

pub use json::{JsonError, ObjBuilder, Value};
pub use metrics::{MetricsRegistry, MetricsSnapshot, ScopedMetrics};
pub use observer::{SpanObserver, SECS_TO_US};
pub use perfetto::{reconcile_with_stats, span_track_totals, to_perfetto_json};
pub use sink::{NullSink, Recorder, TraceSink};
pub use span::{FlowPoint, TraceEvent, Track, CONTROL_PID, LINK_PID_BASE};
pub use textio::{parse_trace_text, write_trace_text, TraceTextError, TRACE_TEXT_HEADER};
