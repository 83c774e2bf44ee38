#![warn(missing_docs)]

//! # micco-core
//!
//! The MICCO multi-GPU scheduler — the paper's primary contribution — plus
//! the baselines it is evaluated against.
//!
//! ## What MICCO does
//!
//! Tensor-pair contractions arrive online, one stage vector at a time. For
//! every pair MICCO must pick a device, trading **data reuse** (placing a
//! pair where its operands already live avoids allocations and transfers)
//! against **load balance** (piling reuse onto one device starves the rest),
//! while steering clear of **memory eviction** under oversubscription.
//!
//! The pieces map one-to-one onto the paper:
//!
//! * [`pattern::LocalReusePattern`] — the four-way classification of an
//!   incoming pair against current device residency (Fig. 4);
//! * [`ReuseBounds`] — three integers bounding the load imbalance the
//!   scheduler may accept for each pattern class (Table II);
//! * [`MiccoScheduler`] — the heuristic (Alg. 1 + Alg. 2) toggling the
//!   data-centric, computation-centric and memory-eviction-sensitive
//!   policies;
//! * [`GrouteScheduler`] — the earliest-available-device baseline the paper
//!   compares against (reuse-oblivious load balancing);
//! * [`Session`] — the one entry point that plans a stream (Alg. 1 + 2
//!   against a shadow machine) and replays the plan on the simulator,
//!   measuring both achieved GFLOPS and scheduling overhead; a
//!   [`SessionConfig`] builds one from the same JSON/flag grammar the CLI
//!   and the `micco serve` daemon read;
//! * [`tuner`] — grid search over reuse-bound settings (ground truth for the
//!   regression model) and the Fig. 8 candidate set;
//! * [`model::RegressionBounds`] — the pre-trained random-forest provider
//!   that predicts per-vector optimal bounds from data characteristics.

mod arena;
pub mod baselines;
pub mod bounds;
pub mod config;
pub mod driver;
pub mod mapping;
pub mod micco;
pub mod model;
pub mod pattern;
pub mod plan;
pub mod reorder;
pub mod seedref;
pub mod session;
pub mod state;
pub mod store;
pub mod tuner;

pub use baselines::{CodaScheduler, GrouteScheduler, RoundRobinScheduler};
pub use bounds::{BoundsProvider, FixedBounds, ReuseBounds};
pub use config::{ConfigError, RetryPolicy, SessionConfig, CONFIG_KEYS};
pub use driver::{
    execute_plan, run_schedule_on, Assignment, DriverOptions, ScheduleError, ScheduleReport,
    Scheduler,
};
pub use mapping::{mapping_histogram, Mapping, MappingHistogram};
pub use micco::MiccoScheduler;
pub use model::RegressionBounds;
pub use pattern::LocalReusePattern;
pub use plan::{
    repair_plan, repair_plan_with, PlanCache, PlanError, PlanFormatError, PlanKey, PlanStage,
    RepairError, SchedulePlan, PLAN_VERSION,
};
pub use reorder::{reorder_stream, reuse_clustered_order};
pub use seedref::plan_schedule_seed;
pub use session::{Planned, Session};
pub use state::VectorState;
pub use store::{DurableError, DurablePlanCache, DurableStats, PlanSource};
