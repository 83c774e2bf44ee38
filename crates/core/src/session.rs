//! One front door for a scheduled run: [`Session`] bundles the machine
//! shape ([`MachineConfig`]), the driver knobs ([`DriverOptions`]) and an
//! optional telemetry sink ([`TraceSink`]) behind a fluent builder, so the
//! decide/execute split reads as one sentence:
//!
//! ```
//! use micco_core::{MiccoScheduler, ReuseBounds, Session};
//! use micco_gpusim::MachineConfig;
//! use micco_obs::Recorder;
//! use micco_workload::WorkloadSpec;
//!
//! let stream = WorkloadSpec::new(8, 64).with_vectors(2).with_seed(3).generate();
//! let recorder = Recorder::shared();
//! let report = Session::new(MachineConfig::mi100_like(2))
//!     .overlap(true)
//!     .trace(recorder.clone())
//!     .plan(&mut MiccoScheduler::new(ReuseBounds::new(0, 2, 0)), &stream)?
//!     .execute(&stream)?;
//! assert!(report.gflops() > 0.0);
//! // the traced timeline is ready for Perfetto
//! assert!(recorder.to_perfetto_json().contains("traceEvents"));
//! # Ok::<(), micco_core::ScheduleError>(())
//! ```
//!
//! A [`Session`] is cheap to clone and immutable once built: `plan` hands a
//! [`Planned`] run back, which can be executed as many times as needed.
//! Planning already simulates the plan it decides, so the [`Planned`] run
//! carries its statistics and executing it only checks the plan against
//! the stream. A session with a fault plan or a trace sink replays
//! instead, on a fresh simulator per execution that re-attaches the sink
//! and emits the run-level span that parents the observer's stage and task
//! spans.

use std::path::PathBuf;
use std::sync::Arc;
use std::time::{Duration, Instant};

use micco_gpusim::{ExecStats, FaultPlan, LinkTopology, MachineConfig, SimMachine};
use micco_obs::{
    MetricsRegistry, SpanObserver, TraceEvent, TraceSink, Track, CONTROL_PID, SECS_TO_US,
};
use micco_workload::TensorPairStream;

use crate::arena::PlanArena;
use crate::driver::{
    execute_plan, plan_in, DriverOptions, ScheduleError, ScheduleReport, Scheduler,
};
use crate::plan::SchedulePlan;
use crate::store::{DurableError, DurablePlanCache, DurableStats, PlanSource};

/// A configured scheduling context: machine + driver options + telemetry.
///
/// See the [module docs](self) for the fluent flow. All builder methods
/// take and return `self`, so a whole session can be assembled on one
/// temporary; [`Session::plan`] borrows (`&self`) and clones the session
/// into the returned [`Planned`], keeping the chain alive.
#[derive(Clone)]
pub struct Session {
    config: MachineConfig,
    options: DriverOptions,
    topology: Option<LinkTopology>,
    sink: Option<Arc<dyn TraceSink>>,
    metrics: Option<Arc<MetricsRegistry>>,
    faults: Option<FaultPlan>,
    retry: Option<(u32, Duration)>,
    store: Option<PathBuf>,
}

impl std::fmt::Debug for Session {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        f.debug_struct("Session")
            .field("config", &self.config)
            .field("options", &self.options)
            .field("topology", &self.topology)
            .field("sink", &self.sink.as_ref().map(|_| "dyn TraceSink"))
            .field("metrics", &self.metrics.as_ref().map(|_| "MetricsRegistry"))
            .field("faults", &self.faults)
            .field("retry", &self.retry)
            .field("store", &self.store)
            .finish()
    }
}

impl Session {
    /// Session over `config` with default options and no telemetry.
    pub fn new(config: MachineConfig) -> Self {
        Session {
            config,
            options: DriverOptions::default(),
            topology: None,
            sink: None,
            metrics: None,
            faults: None,
            retry: None,
            store: None,
        }
    }

    /// Replace the driver options wholesale (for callers that already
    /// assembled a [`DriverOptions`], e.g. from CLI flags).
    pub fn with_options(mut self, options: DriverOptions) -> Self {
        self.options = options;
        self
    }

    /// Toggle copy/compute overlap (the async-copy engine).
    pub fn overlap(mut self, on: bool) -> Self {
        self.options.overlap = on;
        self
    }

    /// Bound the DMA staging window to `k` tasks (`0` = unbounded).
    pub fn prefetch_tasks(mut self, k: usize) -> Self {
        self.options.prefetch_tasks = k;
        self
    }

    /// Toggle wall-clock overhead measurement for both phases (decide-time
    /// `Scheduler::begin_vector` and `Scheduler::assign`, and the execute
    /// phase, see [`ScheduleReport::execution_overhead_secs`]).
    pub fn measure_overhead(mut self, on: bool) -> Self {
        self.options.measure_overhead = on;
        self
    }

    /// Simulate transfers over an explicit link topology: both the
    /// planning shadow and every execution machine route device-to-device
    /// copies through `topology` and charge per-hop link time, so planned
    /// and executed timelines stay bit-identical. Panics on execution if
    /// the topology's GPU count differs from the machine config's.
    ///
    /// Routing alone does not change *placement*; pair it with
    /// [`Session::topology_aware`] to let schedulers penalize cross-island
    /// candidates.
    pub fn with_topology(mut self, topology: LinkTopology) -> Self {
        self.topology = Some(topology);
        self
    }

    /// Let the scheduler see the topology when scoring candidates
    /// (adds the routed fetch cost for each candidate's missing operands).
    /// A no-op unless a topology is attached with [`Session::with_topology`].
    pub fn topology_aware(mut self, on: bool) -> Self {
        self.options.topology_aware = on;
        self
    }

    /// Attach a telemetry sink; executions then carry a [`SpanObserver`]
    /// on the simulator and emit a run-level control span.
    pub fn trace(mut self, sink: Arc<dyn TraceSink>) -> Self {
        self.sink = Some(sink);
        self
    }

    /// Aggregate observer metrics into `registry` instead of a private
    /// one (lets several sessions — or the real executor — share totals).
    pub fn metrics(mut self, registry: Arc<MetricsRegistry>) -> Self {
        self.metrics = Some(registry);
        self
    }

    /// Inject a deterministic [`FaultPlan`] into every simulator this
    /// session builds: kernel faults, transfer timeouts and device losses
    /// fire at the planned points during [`Session::replay`] /
    /// [`Session::run`] and surface as fault/retry telemetry.
    pub fn with_faults(mut self, faults: FaultPlan) -> Self {
        self.faults = Some(faults);
        self
    }

    /// Retry policy for fault-tolerant execution: up to `max_attempts`
    /// tries per task with `base_delay` backoff. Recorded on the session
    /// (see [`Session::retry_policy`]) for executors that honour it —
    /// the simulator itself models retries through the fault plan.
    pub fn retry(mut self, max_attempts: u32, base_delay: Duration) -> Self {
        self.retry = Some((max_attempts, base_delay));
        self
    }

    /// Route planning through the durable plan store at `dir`:
    /// [`Session::plan_durable`] serves warm plans from the store's
    /// write-ahead log (scheduler not invoked) and appends fresh
    /// decisions before returning.
    pub fn with_store(mut self, dir: impl Into<PathBuf>) -> Self {
        self.store = Some(dir.into());
        self
    }

    /// The machine shape this session simulates.
    pub fn config(&self) -> &MachineConfig {
        &self.config
    }

    /// The driver options in effect.
    pub fn options(&self) -> &DriverOptions {
        &self.options
    }

    /// The link topology transfers are routed over, if one is attached.
    pub fn topology(&self) -> Option<&LinkTopology> {
        self.topology.as_ref()
    }

    /// The fault plan injected into this session's simulators, if any.
    pub fn faults(&self) -> Option<&FaultPlan> {
        self.faults.as_ref()
    }

    /// The retry policy, if one was set with [`Session::retry`].
    pub fn retry_policy(&self) -> Option<(u32, Duration)> {
        self.retry
    }

    /// The durable store directory, if one was set with
    /// [`Session::with_store`].
    pub fn store_dir(&self) -> Option<&std::path::Path> {
        self.store.as_deref()
    }

    /// Decide a schedule for `stream`. The planning pass steps a simulator,
    /// so the returned [`Planned`] carries the statistics of running the
    /// plan as well ([`Planned::simulated_stats`]). It owns a clone of this
    /// session, so the fluent chain works on temporaries and the plan can
    /// be executed repeatedly.
    pub fn plan(
        &self,
        scheduler: &mut dyn Scheduler,
        stream: &TensorPairStream,
    ) -> Result<Planned, ScheduleError> {
        let mut arena = PlanArena::with_capacity(stream.total_tasks(), stream.vectors().len());
        let (plan, stats) = plan_in(
            scheduler,
            stream,
            &self.config,
            self.options,
            &mut arena,
            self.topology.as_ref(),
        )?;
        Ok(Planned {
            session: self.clone(),
            plan,
            stats: Some(stats),
            source: PlanSource::Decided,
        })
    }

    /// [`Session::plan`] through the durable store configured with
    /// [`Session::with_store`]: the store is opened, the plan is served
    /// from memory/log when the key matches (scheduler not invoked) or
    /// freshly decided and appended, and the store's hit/miss counters
    /// are returned alongside the planned run.
    ///
    /// # Errors
    /// [`DurableError::Plan`] wraps scheduling failures; other variants
    /// are store I/O. Calling without a configured store is an error.
    pub fn plan_durable(
        &self,
        scheduler: &mut dyn Scheduler,
        stream: &TensorPairStream,
    ) -> Result<(Planned, DurableStats), DurableError> {
        let dir = self.store.clone().ok_or_else(|| {
            DurableError::Store(micco_store::StoreError::Io {
                path: PathBuf::new(),
                source: std::io::Error::new(
                    std::io::ErrorKind::InvalidInput,
                    "plan_durable needs a store: Session::with_store(dir)",
                ),
            })
        })?;
        let cache = DurablePlanCache::open(dir)?;
        let planned = self.plan_with_cache(&cache, scheduler, stream)?;
        Ok((planned, cache.stats()))
    }

    /// [`Session::plan`] against a caller-held [`DurablePlanCache`] — the
    /// long-running form used by `micco serve`, where one cache outlives
    /// many sessions and its counters accumulate across jobs. The cache is
    /// shared by reference: concurrent calls plan different keys in
    /// parallel, and calls for one key wait for its single decision. The
    /// planned run carries the statistics the cache keeps beside the plan,
    /// so a served hit executes without simulating, and
    /// [`Planned::source`] tells which level of the cache answered.
    pub fn plan_with_cache(
        &self,
        cache: &DurablePlanCache,
        scheduler: &mut dyn Scheduler,
        stream: &TensorPairStream,
    ) -> Result<Planned, DurableError> {
        let (cached, source) = cache.cached_for(
            scheduler,
            stream,
            &self.config,
            self.options,
            self.topology.as_ref(),
        )?;
        Ok(Planned {
            session: self.clone(),
            plan: cached.plan.clone(),
            stats: cached.stats.clone(),
            source,
        })
    }

    /// Decide and execute in one call (`plan` + `execute`).
    pub fn run(
        &self,
        scheduler: &mut dyn Scheduler,
        stream: &TensorPairStream,
    ) -> Result<ScheduleReport, ScheduleError> {
        self.plan(scheduler, stream)?.execute(stream)
    }

    /// Replay an externally decided plan (e.g. one deserialized with
    /// [`SchedulePlan::from_text`]) under this session's machine, options
    /// and telemetry — the plan-file counterpart of [`Session::run`].
    /// With [`Session::measure_overhead`] on, the wall clock of the replay
    /// is reported as [`ScheduleReport::execution_overhead_secs`]; timing
    /// never changes the simulated outcome.
    pub fn replay(
        &self,
        plan: &SchedulePlan,
        stream: &TensorPairStream,
    ) -> Result<ScheduleReport, ScheduleError> {
        let mut machine = self.machine();
        let t0 = self.options.measure_overhead.then(Instant::now);
        let mut report = execute_plan(plan, stream, &mut machine)?;
        report.execution_overhead_secs = t0.map_or(0.0, |t| t.elapsed().as_secs_f64());
        self.record_run_span(plan, &report);
        Ok(report)
    }

    /// Fresh simulator for this session: options applied, topology routed,
    /// faults armed, and the telemetry observer attached when a sink is
    /// configured.
    fn machine(&self) -> SimMachine {
        let cfg = self.options.apply(&self.config);
        let mut machine = SimMachine::new(cfg);
        machine.set_topology(self.topology.clone());
        if let Some(faults) = &self.faults {
            machine.set_faults(faults.clone());
        }
        if let Some(sink) = &self.sink {
            let mut obs = SpanObserver::new(Arc::clone(sink));
            if let Some(metrics) = &self.metrics {
                obs = obs.with_metrics(Arc::clone(metrics));
            }
            machine.set_observer(Box::new(obs));
        }
        machine
    }

    /// Emit the run-level span that parents the observer's stage spans,
    /// carrying the measured overheads as span arguments so the timeline
    /// reports them alongside the simulated time.
    fn record_run_span(&self, plan: &SchedulePlan, report: &ScheduleReport) {
        let Some(sink) = &self.sink else { return };
        let mut args = vec![
            ("scheduler".to_owned(), plan.scheduler.clone()),
            ("stages".to_owned(), plan.stages.len().to_string()),
            ("tasks".to_owned(), plan.total_tasks().to_string()),
        ];
        if self.options.measure_overhead {
            args.push((
                "scheduling_overhead_ms".to_owned(),
                format!("{:.6}", report.scheduling_overhead_secs * 1e3),
            ));
            args.push((
                "execution_overhead_ms".to_owned(),
                format!("{:.6}", report.execution_overhead_secs * 1e3),
            ));
        }
        sink.record(TraceEvent::Span {
            pid: CONTROL_PID,
            track: Track::Run,
            name: format!("run {}", plan.scheduler),
            start_us: 0.0,
            dur_us: report.elapsed_secs() * SECS_TO_US,
            args,
        });
    }
}

/// A decided schedule bound to the [`Session`] that produced it, with the
/// simulated statistics of running it when the planning pass (or the plan
/// cache) provided them.
#[derive(Debug, Clone)]
pub struct Planned {
    session: Session,
    plan: SchedulePlan,
    stats: Option<ExecStats>,
    source: PlanSource,
}

impl Planned {
    /// The decided plan IR.
    pub fn plan(&self) -> &SchedulePlan {
        &self.plan
    }

    /// Unwrap into the plan IR (e.g. to serialize it with
    /// [`SchedulePlan::to_text`]).
    pub fn into_plan(self) -> SchedulePlan {
        self.plan
    }

    /// The session this plan was decided under.
    pub fn session(&self) -> &Session {
        &self.session
    }

    /// The statistics of simulating this plan under its session, without
    /// faults or telemetry — carried from the planning pass or the plan
    /// cache. `None` when they were not available; [`Self::execute`] then
    /// replays.
    pub fn simulated_stats(&self) -> Option<&ExecStats> {
        self.stats.as_ref()
    }

    /// Where this plan came from: [`PlanSource::Decided`] for
    /// [`Session::plan`], and for [`Session::plan_with_cache`] the level of
    /// the cache that answered this call.
    pub fn source(&self) -> PlanSource {
        self.source
    }

    /// Execute the plan on `stream`. The plan is checked against the
    /// stream and the session's device count first, exactly as a replay
    /// checks it; the check reads the fingerprint the stream cached when
    /// it was planned or keyed, so a served job hashes its stream once.
    /// When the plan carries its statistics and the session
    /// neither injects faults nor records a trace, those statistics are
    /// the result and nothing is simulated again; otherwise the plan is
    /// replayed on a fresh simulator built from the session
    /// ([`Session::replay`]), since a fault plan changes the simulated
    /// outcome and a trace sink needs the replay's events.
    pub fn execute(&self, stream: &TensorPairStream) -> Result<ScheduleReport, ScheduleError> {
        let session = &self.session;
        let Some(stats) = self
            .stats
            .as_ref()
            .filter(|_| session.faults.is_none() && session.sink.is_none())
        else {
            return session.replay(&self.plan, stream);
        };
        let t0 = session.options.measure_overhead.then(Instant::now);
        self.plan.validate_for(stream, session.config.num_gpus)?;
        let mut report = ScheduleReport {
            scheduler: self.plan.scheduler.clone(),
            stats: stats.clone(),
            scheduling_overhead_secs: self.plan.overhead_secs,
            execution_overhead_secs: 0.0,
            assignments: self.plan.flat_assignments(),
        };
        report.execution_overhead_secs = t0.map_or(0.0, |t| t.elapsed().as_secs_f64());
        Ok(report)
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::baselines::RoundRobinScheduler;
    use crate::bounds::ReuseBounds;
    use crate::driver::run_schedule_on;
    use crate::micco::MiccoScheduler;
    use micco_obs::{reconcile_with_stats, Recorder};
    use micco_workload::WorkloadSpec;

    fn stream() -> TensorPairStream {
        WorkloadSpec::new(10, 64)
            .with_repeat_rate(0.5)
            .with_vectors(3)
            .with_seed(11)
            .generate()
    }

    #[test]
    fn session_run_matches_the_classic_driver() {
        let stream = stream();
        let cfg = MachineConfig::mi100_like(2);
        let opts = DriverOptions::default()
            .with_overlap()
            .with_prefetch_tasks(2);
        let classic = run_schedule_on(
            &mut MiccoScheduler::new(ReuseBounds::new(0, 2, 0)),
            &stream,
            &mut SimMachine::new(opts.apply(&cfg)),
        )
        .expect("fits");
        let via_session = Session::new(cfg)
            .with_options(opts)
            .run(&mut MiccoScheduler::new(ReuseBounds::new(0, 2, 0)), &stream)
            .expect("fits");
        assert_eq!(classic.assignments, via_session.assignments);
        assert_eq!(classic.stats, via_session.stats);
    }

    #[test]
    fn fluent_chain_works_on_a_temporary_and_replays() {
        let stream = stream();
        let planned = Session::new(MachineConfig::mi100_like(2))
            .overlap(true)
            .prefetch_tasks(1)
            .plan(&mut RoundRobinScheduler::new(), &stream)
            .expect("fits");
        let a = planned.execute(&stream).expect("replays");
        let b = planned.execute(&stream).expect("replays");
        assert_eq!(a.assignments, b.assignments);
        assert_eq!(a.stats, b.stats);
        assert_eq!(planned.plan().stages.len(), stream.vectors().len());
    }

    #[test]
    fn traced_session_reconciles_and_carries_a_run_span() {
        let stream = stream();
        let recorder = Recorder::shared();
        let session = Session::new(MachineConfig::mi100_like(2))
            .trace(recorder.clone())
            .metrics(recorder.metrics())
            .measure_overhead(true);
        let report = session
            .run(&mut MiccoScheduler::new(ReuseBounds::new(0, 2, 0)), &stream)
            .expect("fits");
        let events = recorder.events();
        // per-device span totals reconstruct the simulator's accounting
        reconcile_with_stats(&events, &report.stats, 0, 1e-9).expect("spans match stats");
        // the run span parents the timeline and reports the overheads
        let run_span = events
            .iter()
            .find_map(|e| match e {
                TraceEvent::Span {
                    pid: CONTROL_PID,
                    track: Track::Run,
                    dur_us,
                    args,
                    ..
                } => Some((*dur_us, args.clone())),
                _ => None,
            })
            .expect("session emits a run span");
        assert!((run_span.0 - report.elapsed_secs() * SECS_TO_US).abs() < 1e-9);
        assert!(run_span.1.iter().any(|(k, _)| k == "execution_overhead_ms"));
        // metrics aggregate through the shared registry
        let snap = recorder.metrics_snapshot();
        assert_eq!(snap.counter("tasks"), report.stats.total_tasks());
        // the execute-phase overhead was actually measured
        assert!(report.execution_overhead_secs > 0.0);
    }

    #[test]
    fn topology_session_threads_links_through_plan_and_replay() {
        let stream = stream();
        let cfg = MachineConfig::mi100_like(4);
        // single island: routing through NVLink with the flat-equivalent
        // spec must reproduce the flat session bit-for-bit
        let flat = Session::new(cfg)
            .run(&mut MiccoScheduler::new(ReuseBounds::new(0, 2, 0)), &stream)
            .expect("fits");
        let one_island =
            LinkTopology::nvlink(4, 4).with_nvlink(micco_gpusim::LinkSpec::new(25.0, 10.0));
        let routed = Session::new(cfg)
            .with_topology(one_island)
            .run(&mut MiccoScheduler::new(ReuseBounds::new(0, 2, 0)), &stream)
            .expect("fits");
        assert_eq!(flat.assignments, routed.assignments);
        assert_eq!(flat.stats, routed.stats);
        // split islands: the session still plans and replays deterministically
        let split = LinkTopology::nvlink(4, 2);
        let session = Session::new(cfg)
            .with_topology(split.clone())
            .topology_aware(true);
        assert_eq!(session.topology().map(|t| t.num_islands()), Some(2));
        let planned = session
            .plan(&mut MiccoScheduler::new(ReuseBounds::new(0, 2, 0)), &stream)
            .expect("fits");
        let a = planned.execute(&stream).expect("replays");
        let b = planned.execute(&stream).expect("replays");
        assert_eq!(a.assignments, b.assignments);
        assert_eq!(a.stats, b.stats);
    }

    #[test]
    fn faulted_session_injects_and_retry_policy_is_recorded() {
        let stream = stream();
        let cfg = MachineConfig::mi100_like(2);
        let clean = Session::new(cfg)
            .run(&mut RoundRobinScheduler::new(), &stream)
            .expect("fits");
        // a kernel fault on task 0 slows that task but the run completes:
        // the faulted session replays rather than serving the fault-free
        // statistics its planning pass carried
        let faulted = Session::new(cfg)
            .with_faults(FaultPlan::none().with_kernel_fault(0, 1))
            .retry(3, Duration::from_micros(10))
            .run(&mut RoundRobinScheduler::new(), &stream)
            .expect("retries through");
        assert_eq!(clean.assignments, faulted.assignments);
        assert_eq!(clean.stats.total_faults(), 0);
        assert_eq!(faulted.stats.total_faults(), 1);
        assert!(faulted.elapsed_secs() > clean.elapsed_secs());
        let session = Session::new(cfg).retry(5, Duration::from_micros(7));
        assert_eq!(session.retry_policy(), Some((5, Duration::from_micros(7))));
        assert!(session.faults().is_none());
    }

    #[test]
    fn durable_planning_replays_from_the_log_without_the_scheduler() {
        let stream = stream();
        let dir = std::env::temp_dir().join(format!(
            "micco-session-store-{}-{:?}",
            std::process::id(),
            std::thread::current().id()
        ));
        let _ = std::fs::remove_dir_all(&dir);
        let cfg = MachineConfig::mi100_like(2);
        let session = Session::new(cfg).with_store(&dir);
        assert_eq!(session.store_dir(), Some(dir.as_path()));
        // cold: the scheduler decides, the plan is appended
        let (cold, stats) = session
            .plan_durable(&mut MiccoScheduler::new(ReuseBounds::new(0, 2, 0)), &stream)
            .expect("plans");
        assert_eq!((stats.misses, stats.log_hits), (1, 0));
        // warm (fresh cache over the same dir): served from the log
        let (warm, stats) = session
            .plan_durable(&mut MiccoScheduler::new(ReuseBounds::new(0, 2, 0)), &stream)
            .expect("replays");
        assert_eq!((stats.misses, stats.log_hits), (0, 1));
        assert_eq!(cold.plan().to_text(), warm.plan().to_text());
        // the planned run executes like any other
        let report = warm.execute(&stream).expect("replays");
        assert!(report.gflops() > 0.0);
        // without a store the durable path refuses
        assert!(Session::new(cfg)
            .plan_durable(&mut RoundRobinScheduler::new(), &stream)
            .is_err());
        let _ = std::fs::remove_dir_all(&dir);
    }

    #[test]
    fn untraced_session_emits_nothing_and_changes_nothing() {
        let stream = stream();
        let cfg = MachineConfig::mi100_like(2);
        let plain = Session::new(cfg)
            .run(&mut RoundRobinScheduler::new(), &stream)
            .expect("fits");
        let recorder = Recorder::shared();
        let traced = Session::new(cfg)
            .trace(recorder.clone())
            .run(&mut RoundRobinScheduler::new(), &stream)
            .expect("fits");
        assert_eq!(plain.assignments, traced.assignments);
        assert_eq!(plain.stats, traced.stats);
        assert!(!recorder.events().is_empty());
        let debug = format!("{:?}", Session::new(cfg).trace(recorder));
        assert!(debug.contains("dyn TraceSink"));
    }
}
