#![warn(missing_docs)]

//! # micco-exec
//!
//! A multi-threaded CPU execution engine that *actually runs* a scheduled
//! contraction stream with the real `micco-tensor` kernels — one worker
//! thread per simulated device draining a per-stage deque of its assigned
//! tasks (and, with stealing on, reuse-eligible tasks of its peers), a
//! shared tensor store behind a `parking_lot::RwLock`, and `crossbeam`
//! scoped threads with per-stage barriers mirroring the stage semantics
//! of the simulator.
//!
//! The simulator (`micco-gpusim`) answers "how long would this placement
//! take on the modelled hardware"; this crate answers "does the placement
//! actually compute the right thing, in parallel, on this host". Its
//! headline guarantee, enforced by tests: **the computed correlation
//! checksum is bit-identical for every scheduler, every placement, and
//! every worker count** — scheduling decides time, never values.

pub mod engine;
pub mod store;

pub use engine::{
    execute_assignments, execute_plan, ExecError, ExecOptions, ExecOutcome, TensorShape,
};
pub use store::TensorStore;

// Re-exported so chaos-testing callers don't need a direct gpusim
// dependency just to describe the faults they inject.
pub use micco_gpusim::{FaultKind, FaultPlan};
// Re-exported so callers can wire a telemetry sink without a direct
// micco-obs dependency.
pub use micco_obs::{Recorder, TraceSink};
