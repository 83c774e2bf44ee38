#![warn(missing_docs)]

//! # micco-analysis
//!
//! A static plan verifier and lint engine over the `SchedulePlan` IR.
//!
//! PR 2 made schedules first-class data; this crate makes them
//! *checkable without executing them*. The paper's invariants — local
//! reuse patterns (Fig. 4), reuse bounds (Table II), `balanceNum` load
//! caps (Alg. 1), memory-capacity/eviction safety — are all decidable
//! from the task stream and residency maps alone, so an abstract
//! interpreter can replay a plan symbolically and flag violations before
//! any GPU time is spent.
//!
//! The pieces:
//!
//! * [`analyze_plan`] / [`analyze_plan_with`] — the linter: a structural
//!   gate (fingerprint, shape, device ranges) then a semantic replay of
//!   the plan through the shared [`micco_gpusim::SimMachine`] transition
//!   function, tracking per-GPU residency, occupancy under the configured
//!   eviction policy, per-stage load counts and, with a link topology,
//!   avoidable cross-island fetches;
//! * [`certify_trace`] / [`certify_trace_with`] — the certifier: the same
//!   structural gate, then a check that an executed trace is a
//!   linearization of the plan's dependence DAG;
//! * [`Code`] — the stable diagnostic registry (`MICCO-E001
//!   capacity-exceeded` … `MICCO-I301 dead-transfer`, DESIGN.md §10);
//! * [`Report`] — aggregation, severity thresholds (`--deny warnings`
//!   style via [`Report::denies`]), and JSON / SARIF 2.1.0 / text
//!   encodings.
//!
//! ```
//! use micco_analysis::{analyze_plan, Code, Severity};
//! use micco_core::{RoundRobinScheduler, Session};
//! use micco_gpusim::MachineConfig;
//! use micco_workload::WorkloadSpec;
//!
//! let stream = WorkloadSpec::new(8, 64).with_vectors(2).generate();
//! let cfg = MachineConfig::mi100_like(2);
//! let mut plan = Session::new(cfg)
//!     .plan(&mut RoundRobinScheduler::new(), &stream)
//!     .unwrap()
//!     .into_plan();
//! assert!(!analyze_plan(&plan, &stream, &cfg).denies(Severity::Warning));
//!
//! // corrupt the plan: the analyzer pins the exact assignment
//! plan.stages[0].assignments[0].gpu = micco_gpusim::GpuId(99);
//! let report = analyze_plan(&plan, &stream, &cfg);
//! assert!(report.has(Code::AssignmentOutOfRange));
//! assert!(report.denies(Severity::Error));
//! ```

mod certify;
mod diag;
mod engine;
mod render;

pub use certify::{certify_trace, certify_trace_with, CertifyConfig, TransferStrictness};
pub use diag::{Code, Diagnostic, Report, Severity};
pub use engine::{analyze_plan, analyze_plan_with, AnalysisConfig};
