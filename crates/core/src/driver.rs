//! The scheduling driver, split into *decide* and *execute*.
//!
//! [`crate::Session::plan`] runs the scheduler against a [`SimMachine`]
//! (the shadow's scheduler-visible state plus the statistics observer) and
//! produces a [`SchedulePlan`] together with the [`ExecStats`] of running
//! it, so a freshly decided plan never needs a second simulation pass.
//! [`execute_plan`] replays a validated plan on a [`SimMachine`] and
//! reports achieved performance; it serves plans that arrive without
//! statistics (plan files, store records) and runs that must be observed
//! or fault-injected. Because both passes step one state-transition
//! function, the split reproduces the interleaved [`run_schedule_on`]
//! exactly; that path remains for warm machines and as the conformance
//! reference.

use std::time::Instant;

use micco_gpusim::{
    ExecError, ExecStats, GpuId, LinkTopology, MachineConfig, MachineView, SimMachine,
};
use micco_workload::{ContractionTask, TensorPairStream, Vector};

use crate::arena::PlanArena;
use crate::bounds::ReuseBounds;
use crate::plan::{PlanError, SchedulePlan};

/// An online multi-GPU scheduler.
///
/// The driver calls [`Scheduler::begin_vector`] at each stage boundary and
/// then [`Scheduler::assign`] once per tensor pair, in order. The machine
/// state passed in reflects all previously executed tasks, so residency
/// lookups see the real (simulated) world, including evictions.
pub trait Scheduler {
    /// Name for reports (e.g. `"micco(0,2,0)"`, `"groute"`).
    fn name(&self) -> String;
    /// Write [`Scheduler::name`] into `out` without building a `String`.
    /// The default forwards to `name()`; hot callers (the plan cache's
    /// key computation) rely on overrides being allocation-free, and every
    /// scheduler in this crate provides one.
    fn write_name(&self, out: &mut dyn std::fmt::Write) -> std::fmt::Result {
        out.write_str(&self.name())
    }
    /// Called once per stage vector before its tasks are assigned.
    fn begin_vector(&mut self, vector: &Vector, view: &dyn MachineView);
    /// Pick the device for one tensor pair.
    fn assign(&mut self, task: &ContractionTask, view: &dyn MachineView) -> GpuId;
    /// The reuse bounds in effect for the current vector, when the
    /// scheduler uses any (recorded into [`SchedulePlan`] stages by the
    /// planner). Defaults to `None` for bound-free schedulers.
    fn stage_bounds(&self) -> Option<ReuseBounds> {
        None
    }
    /// Toggle topology-aware candidate scoring. Called by the planner with
    /// [`DriverOptions::topology_aware`] before the first vector; the
    /// default is a no-op so topology-oblivious schedulers keep their
    /// decisions bit-identical whether or not the knob is set.
    fn set_topology_aware(&mut self, _on: bool) {}
}

/// A single placement decision (exposed for tests and traces).
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct Assignment {
    /// The task assigned.
    pub task: micco_workload::TaskId,
    /// The chosen device.
    pub gpu: GpuId,
}

/// Failure of a scheduled run.
#[derive(Debug, Clone, PartialEq)]
pub enum ScheduleError {
    /// The simulated machine rejected a placement.
    Exec {
        /// Offending task.
        task: micco_workload::TaskId,
        /// Underlying machine error.
        source: ExecError,
    },
    /// A plan failed validation against the stream or machine.
    Plan(PlanError),
}

impl std::fmt::Display for ScheduleError {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        match self {
            ScheduleError::Exec { task, source } => {
                write!(f, "execution of task {:?} failed: {source}", task)
            }
            ScheduleError::Plan(e) => write!(f, "invalid plan: {e}"),
        }
    }
}

impl std::error::Error for ScheduleError {}

impl From<PlanError> for ScheduleError {
    fn from(e: PlanError) -> Self {
        ScheduleError::Plan(e)
    }
}

/// Outcome of a scheduled run ([`crate::Session::run`],
/// [`execute_plan`] or [`run_schedule_on`]).
#[derive(Debug, Clone, PartialEq)]
pub struct ScheduleReport {
    /// Scheduler name.
    pub scheduler: String,
    /// Simulated execution statistics.
    pub stats: ExecStats,
    /// Real wall-clock seconds spent inside the scheduler while planning —
    /// every `Scheduler::begin_vector` (bound selection: characteristics
    /// and regression inference for MICCO-optimal) and every
    /// `Scheduler::assign` — the paper's "scheduling overhead" (Table V).
    /// Measured only when [`DriverOptions::measure_overhead`] is set;
    /// `0.0` otherwise.
    pub scheduling_overhead_secs: f64,
    /// Real wall-clock seconds of the execute phase itself, not the
    /// simulated time. For [`crate::Session::replay`] that is a full
    /// replay on the simulator. For [`crate::Planned::execute`] (and so
    /// [`crate::Session::run`]) it is what the call actually did: checking
    /// the plan against the stream and returning the statistics the
    /// planning pass carried, or a replay when the session injects faults,
    /// records a trace, or the plan carries no statistics. Measured only
    /// when [`DriverOptions::measure_overhead`] is set; `0.0` otherwise,
    /// and always for [`execute_plan`] and [`run_schedule_on`].
    pub execution_overhead_secs: f64,
    /// Every placement decision, in task order.
    pub assignments: Vec<Assignment>,
}

impl ScheduleReport {
    /// Achieved throughput in GFLOP/s (simulated).
    pub fn gflops(&self) -> f64 {
        self.stats.gflops()
    }

    /// Simulated execution time in seconds.
    pub fn elapsed_secs(&self) -> f64 {
        self.stats.elapsed_secs
    }

    /// Speedup of `self` over `other` (ratio of simulated times).
    pub fn speedup_over(&self, other: &ScheduleReport) -> f64 {
        other.stats.elapsed_secs / self.stats.elapsed_secs
    }

    /// One-line human summary (scheduler, throughput, memory behaviour).
    pub fn summary(&self) -> String {
        format!(
            "{}: {:.0} GFLOPS in {:.3} ms | h2d {} d2d {} reuse {} evict {} | imbalance {:.3} | overhead {:.3} ms",
            self.scheduler,
            self.gflops(),
            self.elapsed_secs() * 1e3,
            self.stats.total_h2d(),
            self.stats.total_d2d(),
            self.stats.total_reuse_hits(),
            self.stats.total_evictions(),
            self.stats.imbalance(),
            self.scheduling_overhead_secs * 1e3,
        )
    }

    /// Total measured driver overhead: decide-phase (`begin_vector` and
    /// `assign` timing) plus execute-phase wall clock. Only meaningful
    /// when the run opted into [`DriverOptions::measure_overhead`].
    pub fn total_overhead_secs(&self) -> f64 {
        self.scheduling_overhead_secs + self.execution_overhead_secs
    }
}

impl std::fmt::Display for ScheduleReport {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        write!(f, "{}", self.summary())
    }
}

/// Execution-engine options applied on top of a [`MachineConfig`] —
/// what the CLI's `--overlap`/`--prefetch-tasks` flags carry into the
/// simulator.
#[derive(Debug, Clone, Copy, Default, PartialEq, Eq)]
pub struct DriverOptions {
    /// Enable the asynchronous copy engine (copy/compute overlap).
    pub overlap: bool,
    /// Staging-buffer depth bounding DMA lookahead (`0` = unbounded;
    /// only meaningful with `overlap`).
    pub prefetch_tasks: usize,
    /// Time every `Scheduler::begin_vector` and `Scheduler::assign` call
    /// with a wall-clock pair and report the total as
    /// `scheduling_overhead_secs`. Off by default: the clock pair per task
    /// inflates reported overhead for sub-microsecond schedulers and adds
    /// noise to benchmarks that only care about simulated time.
    pub measure_overhead: bool,
    /// Let topology-capable schedulers penalize candidates whose operand
    /// fetches route over slow cross-island/cross-node links. Off by
    /// default (the pinned flat behaviour); has no effect unless a
    /// [`LinkTopology`] is actually threaded into the run (e.g. via
    /// [`crate::Session::with_topology`]).
    pub topology_aware: bool,
}

impl DriverOptions {
    /// Options with copy/compute overlap enabled.
    pub fn with_overlap(mut self) -> Self {
        self.overlap = true;
        self
    }

    /// Options with a staging window of `k` tasks.
    pub fn with_prefetch_tasks(mut self, k: usize) -> Self {
        self.prefetch_tasks = k;
        self
    }

    /// Options with per-task scheduling-overhead timing enabled.
    pub fn with_measure_overhead(mut self) -> Self {
        self.measure_overhead = true;
        self
    }

    /// Options with topology-aware candidate scoring enabled.
    pub fn with_topology_aware(mut self) -> Self {
        self.topology_aware = true;
        self
    }

    /// `config` with these options applied to its cost model.
    pub fn apply(&self, config: &MachineConfig) -> MachineConfig {
        let mut cfg = *config;
        if self.overlap {
            cfg.cost.async_copy = true;
        }
        cfg.cost.prefetch_tasks = self.prefetch_tasks;
        cfg
    }
}

/// The planning loop behind [`crate::Session::plan`] and the plan caches:
/// run `scheduler` over `stream` against a [`SimMachine`] built from
/// `config` (with `options` applied and `topology` routed), capture every
/// placement into a [`SchedulePlan`] assembled in `arena`, and return the
/// plan with the statistics of the run it just decided. The plan carries
/// the stream's fingerprint, which the stream computes here unless a plan
/// cache already asked for it to build its key.
///
/// Schedulers are online: each pair is placed against the residency and
/// load the previous placements produced, so deciding and simulating are
/// one walk over the stream. The simulator is the shadow plus the
/// statistics observer, the scheduler sees the same [`MachineView`]
/// either way, and the returned
/// [`ExecStats`] equal those of replaying the plan with [`execute_plan`]
/// bit for bit. The arena is reset on entry and left populated on return,
/// ready for the next pass.
pub(crate) fn plan_in(
    scheduler: &mut dyn Scheduler,
    stream: &TensorPairStream,
    config: &MachineConfig,
    options: DriverOptions,
    arena: &mut PlanArena,
    topology: Option<&LinkTopology>,
) -> Result<(SchedulePlan, ExecStats), ScheduleError> {
    let cfg = options.apply(config);
    let mut machine = SimMachine::new(cfg);
    machine.set_topology(topology.cloned());
    scheduler.set_topology_aware(options.topology_aware && topology.is_some());
    // Pre-intern every tensor of the stream so the per-symbol SoA tables
    // are sized once instead of growing inside the hot loop.
    machine.reserve_stream(stream);
    arena.reset();
    let mut overhead = 0.0;
    for vector in stream.vectors() {
        // bound selection (e.g. characteristics and regression inference)
        // is scheduling work too, so it is timed with the assignments
        if options.measure_overhead {
            let t0 = Instant::now();
            scheduler.begin_vector(vector, &machine);
            overhead += t0.elapsed().as_secs_f64();
        } else {
            scheduler.begin_vector(vector, &machine);
        }
        let bounds = scheduler.stage_bounds();
        for task in &vector.tasks {
            let gpu = if options.measure_overhead {
                let t0 = Instant::now();
                let gpu = scheduler.assign(task, &machine);
                overhead += t0.elapsed().as_secs_f64();
                gpu
            } else {
                scheduler.assign(task, &machine)
            };
            machine
                .execute(task, gpu)
                .map_err(|source| ScheduleError::Exec {
                    task: task.id,
                    source,
                })?;
            arena.push(Assignment { task: task.id, gpu });
        }
        machine.barrier();
        arena.close_stage(bounds);
    }
    let plan = arena.to_plan(
        scheduler.name(),
        cfg.num_gpus,
        stream.fingerprint(),
        overhead,
    );
    Ok((plan, machine.stats().clone()))
}

/// The statistics of `plan` on a fresh, unobserved and fault-free
/// simulator for `config` (with `options` applied and `topology` routed) —
/// what [`plan_in`] returns beside a plan it decides, computed for a plan
/// that arrived without them. The plan is validated against `stream`
/// first.
pub(crate) fn simulate(
    plan: &SchedulePlan,
    stream: &TensorPairStream,
    config: &MachineConfig,
    options: DriverOptions,
    topology: Option<&LinkTopology>,
) -> Result<ExecStats, ScheduleError> {
    plan.validate_for(stream, config.num_gpus)?;
    let mut machine = SimMachine::new(options.apply(config));
    machine.set_topology(topology.cloned());
    Ok(replay_validated(plan, stream, &mut machine)?.stats)
}

/// Execute a validated plan on `machine`, one stage per stream vector with
/// a barrier between stages. The plan is checked against the stream and
/// the machine first ([`SchedulePlan::validate_for`]); a plan decided for
/// a different workload or device count is a typed error, not a panic.
///
/// [`crate::Session::replay`] runs this on a simulator it builds; call it
/// directly to replay on a machine you own and read its state afterwards
/// (e.g. [`SimMachine::cross_island_traffic`]).
pub fn execute_plan(
    plan: &SchedulePlan,
    stream: &TensorPairStream,
    machine: &mut SimMachine,
) -> Result<ScheduleReport, ScheduleError> {
    plan.validate_for(stream, MachineView::num_gpus(machine))?;
    replay_validated(plan, stream, machine)
}

/// [`execute_plan`] past its validation.
fn replay_validated(
    plan: &SchedulePlan,
    stream: &TensorPairStream,
    machine: &mut SimMachine,
) -> Result<ScheduleReport, ScheduleError> {
    let mut assignments = Vec::with_capacity(plan.total_tasks());
    for (vector, stage) in stream.vectors().iter().zip(&plan.stages) {
        for (task, a) in vector.tasks.iter().zip(&stage.assignments) {
            machine
                .execute(task, a.gpu)
                .map_err(|source| ScheduleError::Exec {
                    task: task.id,
                    source,
                })?;
            assignments.push(*a);
        }
        machine.barrier();
    }
    Ok(ScheduleReport {
        scheduler: plan.scheduler.clone(),
        stats: machine.stats().clone(),
        scheduling_overhead_secs: plan.overhead_secs,
        execution_overhead_secs: 0.0,
        assignments,
    })
}

/// Run `scheduler` over `stream` on an existing machine (lets callers enable
/// tracing or chain multiple streams on warm devices). This is the
/// interleaved path: decisions and execution advance the same machine, so
/// it works from any starting state — but produces no reusable plan.
pub fn run_schedule_on(
    scheduler: &mut dyn Scheduler,
    stream: &TensorPairStream,
    machine: &mut SimMachine,
) -> Result<ScheduleReport, ScheduleError> {
    let mut assignments = Vec::with_capacity(stream.total_tasks());
    for vector in stream.vectors() {
        scheduler.begin_vector(vector, machine);
        for task in &vector.tasks {
            let gpu = scheduler.assign(task, machine);
            machine
                .execute(task, gpu)
                .map_err(|source| ScheduleError::Exec {
                    task: task.id,
                    source,
                })?;
            assignments.push(Assignment { task: task.id, gpu });
        }
        machine.barrier();
    }
    Ok(ScheduleReport {
        scheduler: scheduler.name(),
        stats: machine.stats().clone(),
        scheduling_overhead_secs: 0.0,
        execution_overhead_secs: 0.0,
        assignments,
    })
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::baselines::RoundRobinScheduler;
    use crate::session::Session;
    use micco_workload::WorkloadSpec;

    fn run_rr(stream: &TensorPairStream, cfg: MachineConfig) -> ScheduleReport {
        Session::new(cfg)
            .run(&mut RoundRobinScheduler::new(), stream)
            .unwrap()
    }

    #[test]
    fn round_robin_runs_and_reports() {
        let stream = WorkloadSpec::new(8, 64)
            .with_vectors(3)
            .with_seed(1)
            .generate();
        let report = run_rr(&stream, MachineConfig::mi100_like(4));
        assert_eq!(report.assignments.len(), stream.total_tasks());
        assert_eq!(report.stats.total_tasks() as usize, stream.total_tasks());
        assert!(report.gflops() > 0.0);
        assert!(report.scheduling_overhead_secs >= 0.0);
        assert_eq!(report.scheduler, "round-robin");
        // all four devices used
        let mut used: Vec<usize> = report.assignments.iter().map(|a| a.gpu.0).collect();
        used.sort_unstable();
        used.dedup();
        assert_eq!(used, vec![0, 1, 2, 3]);
    }

    #[test]
    fn out_of_memory_surfaces_as_schedule_error() {
        let stream = WorkloadSpec::new(4, 512).with_vectors(1).generate();
        // device memory smaller than one task's working set
        let cfg = MachineConfig::mi100_like(1).with_mem_bytes(1024);
        let err = Session::new(cfg)
            .run(&mut RoundRobinScheduler::new(), &stream)
            .unwrap_err();
        assert!(matches!(err, ScheduleError::Exec { .. }));
        assert!(err.to_string().contains("failed"));
    }

    #[test]
    fn speedup_is_ratio_of_elapsed() {
        let stream = WorkloadSpec::new(8, 64).with_vectors(2).generate();
        let a = run_rr(&stream, MachineConfig::mi100_like(2));
        let b = a.clone();
        assert!((a.speedup_over(&b) - 1.0).abs() < 1e-12);
    }

    #[test]
    fn empty_stream_is_a_clean_noop() {
        let stream = micco_workload::TensorPairStream::default();
        let r = run_rr(&stream, MachineConfig::mi100_like(2));
        assert!(r.assignments.is_empty());
        assert_eq!(r.stats.total_tasks(), 0);
        assert_eq!(r.gflops(), 0.0);
        assert!(r.stats.stage_makespans.is_empty());
    }

    #[test]
    fn summary_and_display_agree() {
        let stream = WorkloadSpec::new(4, 64).with_vectors(1).generate();
        let r = run_rr(&stream, MachineConfig::mi100_like(2));
        assert_eq!(r.summary(), r.to_string());
        assert!(r.summary().contains("round-robin"));
        assert!(r.summary().contains("GFLOPS"));
    }

    #[test]
    fn driver_options_apply_to_cost_model() {
        let cfg = MachineConfig::mi100_like(2);
        let applied = DriverOptions::default()
            .with_overlap()
            .with_prefetch_tasks(2)
            .apply(&cfg);
        assert!(applied.cost.async_copy);
        assert_eq!(applied.cost.prefetch_tasks, 2);
        // defaults leave the config untouched
        assert_eq!(DriverOptions::default().apply(&cfg), cfg);
    }

    #[test]
    fn overlap_run_matches_async_config_and_keeps_assignments_comparable() {
        let stream = WorkloadSpec::new(8, 64)
            .with_vectors(2)
            .with_seed(4)
            .generate();
        let cfg = MachineConfig::mi100_like(2);
        let via_options = Session::new(cfg)
            .overlap(true)
            .run(&mut RoundRobinScheduler::new(), &stream)
            .unwrap();
        let via_cost = run_rr(&stream, cfg.with_cost(cfg.cost.with_async_copy()));
        assert_eq!(via_options.stats, via_cost.stats);
        assert_eq!(via_options.assignments, via_cost.assignments);
    }

    #[test]
    fn stage_makespans_match_vector_count() {
        let stream = WorkloadSpec::new(4, 64).with_vectors(5).generate();
        let r = run_rr(&stream, MachineConfig::mi100_like(2));
        assert_eq!(r.stats.stage_makespans.len(), 5);
    }

    #[test]
    fn overhead_zero_unless_opted_in() {
        let stream = WorkloadSpec::new(8, 64).with_vectors(2).generate();
        let cfg = MachineConfig::mi100_like(2);
        let silent = run_rr(&stream, cfg);
        assert_eq!(silent.scheduling_overhead_secs, 0.0);
        assert_eq!(silent.execution_overhead_secs, 0.0);
        let measured = Session::new(cfg)
            .measure_overhead(true)
            .run(&mut RoundRobinScheduler::new(), &stream)
            .unwrap();
        assert!(measured.scheduling_overhead_secs > 0.0);
        // timing never changes the decisions or the simulated outcome
        assert_eq!(silent.assignments, measured.assignments);
        assert_eq!(silent.stats, measured.stats);
    }

    /// A scheduler whose bound selection is slow: `begin_vector` sleeps.
    struct SlowBounds(RoundRobinScheduler);

    impl Scheduler for SlowBounds {
        fn name(&self) -> String {
            "slow-bounds".to_owned()
        }

        fn begin_vector(&mut self, vector: &Vector, view: &dyn MachineView) {
            std::thread::sleep(std::time::Duration::from_millis(2));
            self.0.begin_vector(vector, view);
        }

        fn assign(&mut self, task: &ContractionTask, view: &dyn MachineView) -> GpuId {
            self.0.assign(task, view)
        }
    }

    #[test]
    fn scheduling_overhead_counts_bound_selection() {
        let stream = WorkloadSpec::new(4, 64).with_vectors(3).generate();
        let report = Session::new(MachineConfig::mi100_like(2))
            .measure_overhead(true)
            .run(&mut SlowBounds(RoundRobinScheduler::new()), &stream)
            .unwrap();
        // three vectors, each with 2 ms of begin_vector
        assert!(
            report.scheduling_overhead_secs >= 6e-3,
            "overhead {}s",
            report.scheduling_overhead_secs
        );
    }

    #[test]
    fn execute_phase_overhead_is_measured_when_opted_in() {
        let stream = WorkloadSpec::new(8, 64).with_vectors(2).generate();
        let cfg = MachineConfig::mi100_like(2);
        let plan = Session::new(cfg)
            .plan(&mut RoundRobinScheduler::new(), &stream)
            .unwrap()
            .into_plan();

        // the plan-replay path honours measure_overhead
        let timed = Session::new(cfg)
            .measure_overhead(true)
            .replay(&plan, &stream)
            .unwrap();
        assert!(timed.execution_overhead_secs > 0.0);

        // and measurement never perturbs the simulated outcome
        let mut machine = SimMachine::new(cfg);
        let silent = execute_plan(&plan, &stream, &mut machine).unwrap();
        assert_eq!(silent.execution_overhead_secs, 0.0);
        assert_eq!(silent.stats, timed.stats);
        assert_eq!(silent.assignments, timed.assignments);
        assert!(timed.total_overhead_secs() >= timed.execution_overhead_secs);

        // decide-and-execute runs forward the options to the execute phase
        let composed = Session::new(cfg)
            .measure_overhead(true)
            .run(&mut RoundRobinScheduler::new(), &stream)
            .unwrap();
        assert!(composed.execution_overhead_secs > 0.0);
    }

    #[test]
    fn composition_matches_interleaved_path() {
        let stream = WorkloadSpec::new(12, 96)
            .with_vectors(3)
            .with_seed(9)
            .generate();
        let cfg = MachineConfig::mi100_like(3);
        let composed = run_rr(&stream, cfg);
        let mut machine = SimMachine::new(cfg);
        let interleaved =
            run_schedule_on(&mut RoundRobinScheduler::new(), &stream, &mut machine).unwrap();
        assert_eq!(composed.assignments, interleaved.assignments);
        assert_eq!(composed.stats, interleaved.stats);
    }

    #[test]
    fn execute_plan_rejects_mismatched_stream() {
        let stream = WorkloadSpec::new(8, 64).with_vectors(2).generate();
        let cfg = MachineConfig::mi100_like(2);
        let plan = Session::new(cfg)
            .plan(&mut RoundRobinScheduler::new(), &stream)
            .unwrap()
            .into_plan();
        let other = WorkloadSpec::new(8, 64)
            .with_vectors(2)
            .with_seed(99)
            .generate();
        let mut machine = SimMachine::new(cfg);
        let err = execute_plan(&plan, &other, &mut machine).unwrap_err();
        assert!(matches!(
            err,
            ScheduleError::Plan(PlanError::FingerprintMismatch { .. })
        ));
        // and a machine with the wrong shape is rejected too
        let mut small = SimMachine::new(MachineConfig::mi100_like(1));
        let err = execute_plan(&plan, &stream, &mut small).unwrap_err();
        assert!(matches!(
            err,
            ScheduleError::Plan(PlanError::DeviceCountMismatch { .. })
        ));
    }
}
