#![warn(missing_docs)]

//! # micco
//!
//! Facade crate for the MICCO reproduction: a data-reuse-aware multi-GPU
//! scheduling framework for many-body correlation functions (Wang, Ren,
//! Chen, Edwards — IPDPS 2022), rebuilt as a pure-Rust system with a
//! discrete-event multi-GPU simulator as the device substrate.
//!
//! Re-exports every subsystem under one roof:
//!
//! * [`tensor`] — batched complex tensor kernels (the "hipBLAS" substrate)
//! * [`graph`] — contraction graphs and dependency-analysis staging
//! * [`gpusim`] — the simulated multi-GPU machine (memory, transfers, timing)
//! * [`sched`] — the MICCO scheduler, reuse patterns/bounds, and baselines
//! * [`ml`] — from-scratch regression models (random forest & friends)
//! * [`workload`] — synthetic workload generators from the evaluation
//! * [`redstar`] — the Redstar-like correlation-function front end
//! * [`cluster`] — the multi-node extension (the paper's future work)
//! * [`exec`] — multi-threaded CPU execution engine (real kernels)
//! * [`store`] — crash-safe write-ahead-logged plan store (durable cache)
//! * [`analysis`] — static plan verifier / lint engine over the plan IR
//! * [`obs`] — telemetry: spans, the Chrome-trace/Perfetto export and its
//!   reader, and the daemon's metrics registry
//!
//! ## Quickstart
//!
//! ```
//! use micco::prelude::*;
//!
//! // a synthetic stream of tensor-pair vectors, as in the paper's Fig. 7
//! let spec = WorkloadSpec::new(16, 384)
//!     .with_repeat_rate(0.5)
//!     .with_distribution(RepeatDistribution::Uniform)
//!     .with_vectors(4)
//!     .with_seed(7);
//! let workload = spec.generate();
//!
//! // an 8-GPU machine and the MICCO scheduler with fixed reuse bounds
//! let report = Session::new(MachineConfig::mi100_like(8))
//!     .run(&mut MiccoScheduler::new(ReuseBounds::new(0, 2, 0)), &workload)
//!     .expect("workload fits the machine");
//! assert!(report.gflops() > 0.0);
//! ```
//!
//! [`sched::Session`] is the one way to plan: `run` is `plan` followed by
//! `execute`, and a [`sched::SessionConfig`] builds the same session from
//! the JSON document (or CLI flags) that `micco` and `micco serve` read.
//!
//! ## Decide once, execute later
//!
//! Scheduling decisions can be captured into a [`sched::SchedulePlan`]
//! against the simulator, serialized, and replayed on a fresh machine —
//! the assignments and statistics match the interleaved run exactly:
//!
//! ```
//! use micco::prelude::*;
//!
//! let workload = WorkloadSpec::new(8, 64).with_vectors(2).with_seed(1).generate();
//! let session = Session::new(MachineConfig::mi100_like(2));
//! let plan = session
//!     .plan(&mut RoundRobinScheduler::new(), &workload)
//!     .expect("workload fits")
//!     .into_plan();
//! let restored = SchedulePlan::from_text(&plan.to_text()).expect("round-trips");
//! let report = session
//!     .replay(&restored, &workload)
//!     .expect("plan matches this workload");
//! assert_eq!(report.assignments.len(), plan.total_tasks());
//! ```
//!
//! ## Sessions and telemetry
//!
//! [`sched::Session`] wraps the same flow in one fluent builder and wires
//! an optional trace sink through every layer; the recorded timeline
//! exports as Perfetto-loadable JSON:
//!
//! ```
//! use micco::prelude::*;
//!
//! let workload = WorkloadSpec::new(8, 64).with_vectors(2).with_seed(1).generate();
//! let recorder = Recorder::shared();
//! let report = Session::new(MachineConfig::mi100_like(2))
//!     .overlap(true)
//!     .trace(recorder.clone())
//!     .plan(&mut MiccoScheduler::new(ReuseBounds::new(0, 2, 0)), &workload)
//!     .expect("workload fits")
//!     .execute(&workload)
//!     .expect("plan matches");
//! assert!(report.gflops() > 0.0);
//! assert!(recorder.to_perfetto_json().contains("traceEvents"));
//! ```

pub use micco_analysis as analysis;
pub use micco_cluster as cluster;
pub use micco_core as sched;
pub use micco_exec as exec;
pub use micco_gpusim as gpusim;
pub use micco_graph as graph;
pub use micco_ml as ml;
pub use micco_obs as obs;
pub use micco_redstar as redstar;
pub use micco_store as store;
pub use micco_tensor as tensor;
pub use micco_workload as workload;

/// One-stop imports for examples and downstream users.
pub mod prelude {
    pub use micco_analysis::{
        analyze_plan, analyze_plan_with, AnalysisConfig, Code as LintCode, Report as LintReport,
        Severity as LintSeverity,
    };
    pub use micco_core::{
        execute_plan, Assignment, DriverOptions, DurablePlanCache, GrouteScheduler, MiccoScheduler,
        Planned, ReuseBounds, RoundRobinScheduler, SchedulePlan, ScheduleReport, Scheduler,
        Session, SessionConfig,
    };
    pub use micco_gpusim::{CostModel, LinkSpec, LinkTopology, MachineConfig, SimMachine};
    pub use micco_obs::{MetricsRegistry, Recorder, SpanObserver, TraceSink};
    pub use micco_workload::{RepeatDistribution, TensorPairStream, Vector, WorkloadSpec};
}
