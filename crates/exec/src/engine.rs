//! The stage-parallel execution engine.
//!
//! Two execution modes share the same checksum contract:
//!
//! - **static** (the default): each worker runs exactly the tasks its
//!   device was assigned, in order — a faithful replay of the schedule.
//! - **work stealing** ([`ExecOptions::steal`]): per-worker deques with
//!   *reuse-aware* intra-stage stealing — an idle worker may only take a
//!   victim's task when it already holds both operands (the tasks a
//!   device could run without extra transfers), mirroring the
//!   data-centric placement rule the schedulers optimise for.
//!
//! Either way the per-task outputs are identical, so the order-fixed
//! checksum reduction is bit-identical across modes, schedulers, and
//! worker counts.
//!
//! ## One entry point
//!
//! All configuration — stealing, prefetch, retry budgets, fault plans,
//! and the telemetry sink — travels in [`ExecOptions`]; the two canonical
//! entry points are [`execute_plan`] (plan IR in, validated first) and
//! [`execute_assignments`] (raw assignment slice in). The historical
//! `execute_stream*`/`execute_plan_opts`/`execute_plan_faults` sprawl
//! was removed after a deprecation cycle; a checksum-pinned conformance
//! test keeps the two canonical entries bit-for-bit interchangeable.
//!
//! ## Telemetry
//!
//! With [`ExecOptions::with_trace`] the engine records wall-clock spans to
//! a [`micco_obs::TraceSink`]: one process per worker with compute and
//! copy tracks (kernel spans and operand staging), control-process stage
//! spans, steal flow arrows, and fault/retry instants — the same span
//! taxonomy the simulator's `SpanObserver` emits, so sim and real
//! timelines render side by side in Perfetto.

use std::any::Any;
use std::collections::{HashSet, VecDeque};
use std::fmt;
use std::sync::atomic::{AtomicU64, AtomicUsize, Ordering};
use std::sync::Arc;
use std::time::{Duration, Instant};

use parking_lot::Mutex;

use micco_core::{Assignment, PlanError, SchedulePlan};
use micco_gpusim::FaultPlan;
use micco_obs::{FlowPoint, TraceEvent, TraceSink, Track, CONTROL_PID};
use micco_tensor::{Complex64, TensorError};
use micco_workload::{TensorId, TensorPairStream, Vector};

use crate::store::TensorStore;

/// Shape of the tensors in a uniform stream (the synthetic generator and
/// the per-correlator pipelines both produce uniform shapes).
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct TensorShape {
    /// Batch count.
    pub batch: usize,
    /// Mode length.
    pub dim: usize,
}

/// Tuning knobs for [`execute_plan`] / [`execute_assignments`] — every
/// engine behaviour that is not the schedule itself lives here: stealing,
/// prefetch, the retry budget, the fault plan, and the telemetry sink.
#[derive(Clone, Default)]
pub struct ExecOptions {
    /// Reuse-aware intra-stage work stealing: idle workers take tasks from
    /// the back of other workers' queues, but only tasks whose operands
    /// they already hold (no extra transfers on the modelled device).
    pub steal: bool,
    /// Overlap operand staging with compute: a per-stage prefetch thread
    /// warms the tensor store with the stage's operands while workers
    /// crunch — the execution-engine analogue of the simulator's
    /// asynchronous copy engine.
    pub prefetch: bool,
    /// Maximum attempts per kernel under transient faults. `0` and `1`
    /// both mean "no retry": the first transient failure is final.
    pub max_attempts: u32,
    /// Base delay of the exponential backoff between retry attempts:
    /// attempt `n` waits `base_delay · 2^(n-1)`, capped at 100 ms.
    pub base_delay: Duration,
    /// Deterministic fault plan to inject (transfer timeouts, transient
    /// kernel faults, device losses). [`FaultPlan::none`] — the default —
    /// is behaviour-neutral.
    pub faults: FaultPlan,
    /// Telemetry sink for wall-clock spans. `None` (the default) records
    /// nothing and costs nothing beyond per-task busy accounting.
    pub trace: Option<Arc<dyn TraceSink>>,
}

impl fmt::Debug for ExecOptions {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        f.debug_struct("ExecOptions")
            .field("steal", &self.steal)
            .field("prefetch", &self.prefetch)
            .field("max_attempts", &self.max_attempts)
            .field("base_delay", &self.base_delay)
            .field("faults", &self.faults)
            .field("trace", &self.trace.as_ref().map(|_| "dyn TraceSink"))
            .finish()
    }
}

impl ExecOptions {
    /// Options with stealing enabled.
    pub fn with_steal(mut self) -> Self {
        self.steal = true;
        self
    }

    /// Options with operand prefetch enabled.
    pub fn with_prefetch(mut self) -> Self {
        self.prefetch = true;
        self
    }

    /// Options with bounded-backoff retry: up to `max_attempts` attempts
    /// per kernel, sleeping `base_delay · 2^(attempt-1)` between attempts.
    pub fn retry(mut self, max_attempts: u32, base_delay: Duration) -> Self {
        self.max_attempts = max_attempts;
        self.base_delay = base_delay;
        self
    }

    /// Options with a deterministic fault plan to inject.
    pub fn with_faults(mut self, faults: FaultPlan) -> Self {
        self.faults = faults;
        self
    }

    /// Options recording wall-clock telemetry to `sink`.
    pub fn with_trace(mut self, sink: Arc<dyn TraceSink>) -> Self {
        self.trace = Some(sink);
        self
    }
}

/// Why the execution engine refused to run a schedule.
///
/// These used to be `panic!`/`assert!` contract violations; they are now
/// typed errors so callers (the CLI in particular) can report them without
/// aborting the process.
#[derive(Debug, Clone, PartialEq)]
pub enum ExecError {
    /// `workers == 0` — there is nobody to run the kernels.
    NoWorkers,
    /// The assignment slice does not cover the stream's tasks.
    AssignmentShortfall {
        /// Tasks in the stream.
        expected: usize,
        /// Assignments provided.
        got: usize,
    },
    /// An assignment names a device outside the worker pool.
    DeviceOutOfRange {
        /// Offending device index.
        gpu: usize,
        /// Worker-pool size.
        workers: usize,
    },
    /// A [`SchedulePlan`] failed validation against the stream.
    Plan(PlanError),
    /// A kernel rejected its operands — the stream fed it incompatible
    /// shapes.
    ShapeMismatch {
        /// Task whose contraction failed.
        task: u64,
        /// Left operand (batch, dim).
        lhs: (usize, usize),
        /// Right operand (batch, dim).
        rhs: (usize, usize),
    },
    /// A worker thread failed: it panicked, or a transient fault outlived
    /// the retry budget. A panic is caught at the join and reported here
    /// instead of aborting the process.
    WorkerFailed {
        /// Device index of the failed worker, when attributable.
        gpu: Option<usize>,
        /// Task being executed when the worker failed, when known.
        task: Option<u64>,
        /// Human-readable failure cause (panic payload or fault detail).
        cause: String,
    },
    /// Every worker was lost before `stage` — nobody left to drain it.
    AllWorkersLost {
        /// First stage with no surviving worker.
        stage: usize,
    },
}

impl fmt::Display for ExecError {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        match self {
            ExecError::NoWorkers => write!(f, "need at least one worker"),
            ExecError::AssignmentShortfall { expected, got } => write!(
                f,
                "assignments must cover every task: stream has {expected}, got {got}"
            ),
            ExecError::DeviceOutOfRange { gpu, workers } => {
                write!(f, "assignment to device {gpu} ≥ {workers} workers")
            }
            ExecError::Plan(e) => write!(f, "invalid plan: {e}"),
            ExecError::ShapeMismatch { task, lhs, rhs } => write!(
                f,
                "task {task}: shape mismatch lhs (batch {}, dim {}) vs rhs (batch {}, dim {})",
                lhs.0, lhs.1, rhs.0, rhs.1
            ),
            ExecError::WorkerFailed { gpu, task, cause } => {
                write!(f, "worker")?;
                if let Some(g) = gpu {
                    write!(f, " {g}")?;
                }
                if let Some(t) = task {
                    write!(f, " (task {t})")?;
                }
                write!(f, " failed: {cause}")
            }
            ExecError::AllWorkersLost { stage } => {
                write!(f, "all workers lost before stage {stage}")
            }
        }
    }
}

impl std::error::Error for ExecError {
    fn source(&self) -> Option<&(dyn std::error::Error + 'static)> {
        match self {
            ExecError::Plan(e) => Some(e),
            _ => None,
        }
    }
}

impl From<PlanError> for ExecError {
    fn from(e: PlanError) -> Self {
        ExecError::Plan(e)
    }
}

/// Result of executing a stream.
#[derive(Debug, Clone, PartialEq)]
pub struct ExecOutcome {
    /// Wall-clock seconds of the parallel execution.
    pub wall_secs: f64,
    /// Kernels *assigned* per worker by the schedule (the conformance
    /// contract against `ScheduleReport.assignments` — independent of
    /// stealing).
    pub per_worker_tasks: Vec<usize>,
    /// Kernels actually *executed* per worker. Equal to
    /// `per_worker_tasks` unless stealing moved work.
    pub per_worker_executed: Vec<usize>,
    /// Wall-clock seconds each worker spent inside kernels (operand
    /// staging, backoff sleeps, and queue contention excluded). The
    /// compute-track spans of a traced run sum to exactly these values —
    /// the real-backend analogue of the simulator's per-GPU busy seconds.
    pub per_worker_busy_secs: Vec<f64>,
    /// Tasks that ran on a different worker than assigned.
    pub steals: usize,
    /// Order-independent checksum: per-task output traces summed in task
    /// order (bit-identical across schedulers, worker counts, and
    /// execution modes).
    pub checksum: Complex64,
    /// Total kernels computed.
    pub kernels: usize,
    /// Injected faults that fired during execution (kernel faults and
    /// transfer timeouts; device losses are counted in `lost_workers`).
    pub faults: u64,
    /// Retried attempts after transient faults.
    pub retries: u64,
    /// Workers that were lost — transiently or permanently — in at least
    /// one stage of the run.
    pub lost_workers: usize,
}

/// Execute `stream` with real kernels following the per-task device
/// `assignments` (one per task, in stream task order — exactly what
/// [`micco_core::ScheduleReport::assignments`] provides). Devices map to
/// worker threads; stages are barriers, as on the simulated machine.
/// Everything else — stealing, prefetch, retries, fault injection, and
/// telemetry — is configured through [`ExecOptions`].
///
/// # Examples
///
/// ```
/// use micco_core::{MiccoScheduler, ReuseBounds, Session};
/// use micco_exec::{execute_assignments, ExecOptions, TensorStore};
/// use micco_gpusim::MachineConfig;
/// use micco_workload::WorkloadSpec;
///
/// let stream = WorkloadSpec::new(4, 8).with_batch(2).with_vectors(2).generate();
/// let report = Session::new(MachineConfig::mi100_like(2))
///     .run(&mut MiccoScheduler::new(ReuseBounds::new(0, 2, 0)), &stream)
///     .unwrap();
/// let store = TensorStore::new(2, 8, 7);
/// let out = execute_assignments(&stream, &report.assignments, 2, &store, &ExecOptions::default())
///     .unwrap();
/// assert_eq!(out.kernels, stream.total_tasks());
/// assert!(out.checksum.is_finite());
/// ```
///
/// # Errors
///
/// Returns [`ExecError`] if `assignments` does not cover every task of
/// `stream`, if an assignment names a device ≥ `workers`, if
/// `workers == 0`, or — under a fault plan — when a transient fault
/// outlives the retry budget ([`ExecError::WorkerFailed`]) or no worker
/// survives a stage ([`ExecError::AllWorkersLost`]).
pub fn execute_assignments(
    stream: &TensorPairStream,
    assignments: &[Assignment],
    workers: usize,
    store: &TensorStore,
    opts: &ExecOptions,
) -> Result<ExecOutcome, ExecError> {
    if workers == 0 {
        return Err(ExecError::NoWorkers);
    }
    if assignments.len() != stream.total_tasks() {
        return Err(ExecError::AssignmentShortfall {
            expected: stream.total_tasks(),
            got: assignments.len(),
        });
    }
    if let Some(a) = assignments.iter().find(|a| a.gpu.0 >= workers) {
        return Err(ExecError::DeviceOutOfRange {
            gpu: a.gpu.0,
            workers,
        });
    }
    execute_unchecked(stream, assignments, workers, store, opts)
}

/// Execute a validated [`SchedulePlan`] with real kernels — the canonical
/// plan-IR entry point of the engine. The plan's device count sizes the
/// worker pool, and [`SchedulePlan::validate`] runs first, so a stale or
/// foreign plan is a typed error instead of a panic deep in a worker
/// thread.
///
/// # Examples
///
/// ```
/// use micco_core::{MiccoScheduler, ReuseBounds, Session};
/// use micco_exec::{execute_plan, ExecOptions, TensorStore};
/// use micco_gpusim::MachineConfig;
/// use micco_workload::WorkloadSpec;
///
/// let stream = WorkloadSpec::new(4, 8).with_batch(2).with_vectors(2).generate();
/// let plan = Session::new(MachineConfig::mi100_like(2))
///     .plan(&mut MiccoScheduler::new(ReuseBounds::new(0, 2, 0)), &stream)
///     .unwrap()
///     .into_plan();
/// let store = TensorStore::new(2, 8, 7);
/// let out = execute_plan(&stream, &plan, &store, &ExecOptions::default()).unwrap();
/// assert_eq!(out.kernels, stream.total_tasks());
/// ```
///
/// # Errors
///
/// Returns [`ExecError::Plan`] when the plan does not validate against
/// `stream`, [`ExecError::NoWorkers`] for a zero-device plan, and the
/// fault-path errors of [`execute_assignments`].
pub fn execute_plan(
    stream: &TensorPairStream,
    plan: &SchedulePlan,
    store: &TensorStore,
    opts: &ExecOptions,
) -> Result<ExecOutcome, ExecError> {
    plan.validate(stream)?;
    if plan.num_gpus == 0 {
        return Err(ExecError::NoWorkers);
    }
    execute_unchecked(stream, &plan.flat_assignments(), plan.num_gpus, store, opts)
}

/// Wall-clock telemetry shared by the stage runners: a sink, the run's
/// epoch, and a flow-id counter for steal arrows.
struct Telemetry {
    sink: Arc<dyn TraceSink>,
    t0: Instant,
    next_flow: AtomicU64,
}

impl Telemetry {
    /// Microseconds since the run started.
    fn now_us(&self) -> f64 {
        self.t0.elapsed().as_secs_f64() * 1e6
    }

    fn span(&self, pid: u32, track: Track, name: String, start_us: f64, dur_us: f64) {
        self.span_with(pid, track, name, start_us, dur_us, Vec::new());
    }

    #[allow(clippy::too_many_arguments)]
    fn span_with(
        &self,
        pid: u32,
        track: Track,
        name: String,
        start_us: f64,
        dur_us: f64,
        args: Vec<(String, String)>,
    ) {
        self.sink.record(TraceEvent::Span {
            pid,
            track,
            name,
            start_us,
            dur_us,
            args,
        });
    }

    fn instant(&self, pid: u32, track: Track, name: String, args: Vec<(String, String)>) {
        self.sink.record(TraceEvent::Instant {
            pid,
            track,
            name,
            ts_us: self.now_us(),
            args,
        });
    }

    /// A steal arrow: victim's compute track → thief's compute track.
    fn steal_flow(&self, victim: usize, thief: usize, task: u64) {
        let id = self.next_flow.fetch_add(1, Ordering::Relaxed);
        let ts_us = self.now_us();
        self.sink.record(TraceEvent::Flow {
            id,
            name: format!("steal task {task}"),
            from: FlowPoint {
                pid: victim as u32,
                track: Track::Compute,
                ts_us,
            },
            to: FlowPoint {
                pid: thief as u32,
                track: Track::Compute,
                ts_us,
            },
        });
    }
}

/// Shared fault-injection context handed down to the stage runners.
struct FaultCtx<'a> {
    faults: &'a FaultPlan,
    max_attempts: u32,
    base_delay: Duration,
    fault_events: &'a AtomicU64,
    retry_events: &'a AtomicU64,
    tele: Option<&'a Telemetry>,
}

impl FaultCtx<'_> {
    /// Sleep the bounded exponential backoff before retry `attempt`.
    fn backoff(&self, attempt: u32) {
        if self.base_delay.is_zero() {
            return;
        }
        let exp = attempt.saturating_sub(1).min(16);
        let delay = self
            .base_delay
            .saturating_mul(1 << exp)
            .min(Duration::from_millis(100));
        std::thread::sleep(delay);
    }
}

/// Render a worker thread's panic payload into a typed [`ExecError`].
fn panic_to_error(gpu: Option<usize>, payload: Box<dyn Any + Send>) -> ExecError {
    let cause = if let Some(s) = payload.downcast_ref::<&str>() {
        (*s).to_string()
    } else if let Some(s) = payload.downcast_ref::<String>() {
        s.clone()
    } else {
        "worker panicked with a non-string payload".to_string()
    };
    ExecError::WorkerFailed {
        gpu,
        task: None,
        cause,
    }
}

/// Fold an explicitly joined worker result into the engine's error type:
/// a panic becomes [`ExecError::WorkerFailed`] instead of aborting the
/// process.
fn join_worker<T>(
    gpu: usize,
    joined: std::thread::Result<Result<T, ExecError>>,
) -> Result<T, ExecError> {
    match joined {
        Ok(r) => r,
        Err(payload) => Err(panic_to_error(Some(gpu), payload)),
    }
}

/// The engine proper. Inputs are already validated: `workers > 0`, one
/// assignment per task, every device in range.
fn execute_unchecked(
    stream: &TensorPairStream,
    assignments: &[Assignment],
    workers: usize,
    store: &TensorStore,
    opts: &ExecOptions,
) -> Result<ExecOutcome, ExecError> {
    let t0 = Instant::now();
    let tele = opts.trace.as_ref().map(|sink| Telemetry {
        sink: Arc::clone(sink),
        t0,
        next_flow: AtomicU64::new(0),
    });
    if let Some(t) = &tele {
        for w in 0..workers {
            t.sink.record(TraceEvent::ProcessLabel {
                pid: w as u32,
                label: format!("worker{w}"),
            });
        }
    }
    let faults = &opts.faults;
    let mut per_worker_tasks = vec![0usize; workers];
    let mut per_worker_executed = vec![0usize; workers];
    let mut per_worker_busy_secs = vec![0f64; workers];
    let steals = AtomicUsize::new(0);
    let fault_events = AtomicU64::new(0);
    let retry_events = AtomicU64::new(0);
    let fx = FaultCtx {
        faults,
        max_attempts: opts.max_attempts,
        base_delay: opts.base_delay,
        fault_events: &fault_events,
        retry_events: &retry_events,
        tele: tele.as_ref(),
    };
    // A device loss strands the victim's queue, so those runs go through
    // the stealing path: survivors drain the lost workers' work.
    let any_loss = (0..workers).any(|g| faults.loss_of(g).is_some());
    let steal_mode = opts.steal || any_loss;
    // the modelled residency of each worker's device: operands and outputs
    // of tasks it executed (persists across stages, like device memory)
    let mut residents: Vec<HashSet<TensorId>> = vec![HashSet::new(); workers];
    // per-task traces, collected in global task order so the final
    // checksum reduction is order-fixed regardless of thread interleaving
    let mut traces: Vec<Complex64> = vec![Complex64::ZERO; stream.total_tasks()];
    let mut offset = 0usize;

    for (stage, vector) in stream.vectors().iter().enumerate() {
        let stage_start_us = tele.as_ref().map(|t| t.now_us());
        let lost: Vec<bool> = (0..workers).map(|w| faults.is_lost(w, stage)).collect();
        if lost.iter().all(|&l| l) {
            return Err(ExecError::AllWorkersLost { stage });
        }
        for (w, &l) in lost.iter().enumerate() {
            if l {
                // the device rebooted (transient) or died (permanent):
                // either way its modelled memory is gone
                residents[w].clear();
                if let Some(t) = &tele {
                    t.instant(
                        w as u32,
                        Track::Compute,
                        format!("device lost (stage {stage})"),
                        Vec::new(),
                    );
                }
            }
        }
        let stage_assign = &assignments[offset..offset + vector.len()];
        // partition this stage's task indices per worker
        let mut buckets: Vec<Vec<usize>> = vec![Vec::new(); workers];
        for (i, a) in stage_assign.iter().enumerate() {
            debug_assert_eq!(
                a.task, vector.tasks[i].id,
                "assignment order must match stream"
            );
            buckets[a.gpu.0].push(i);
        }
        for (w, b) in buckets.iter().enumerate() {
            per_worker_tasks[w] += b.len();
        }
        let stage_traces = &mut traces[offset..offset + vector.len()];
        if steal_mode {
            run_stage_stealing(
                vector,
                &buckets,
                &mut residents,
                store,
                stage_traces,
                &steals,
                &mut per_worker_executed,
                &mut per_worker_busy_secs,
                opts.prefetch,
                &fx,
                &lost,
            )?;
        } else {
            run_stage_static(
                vector,
                &buckets,
                store,
                stage_traces,
                &mut per_worker_busy_secs,
                opts.prefetch,
                &fx,
            )?;
            for (w, b) in buckets.iter().enumerate() {
                per_worker_executed[w] += b.len();
            }
        }
        if let (Some(t), Some(start)) = (&tele, stage_start_us) {
            t.span(
                CONTROL_PID,
                Track::Control,
                format!("stage {stage}"),
                start,
                t.now_us() - start,
            );
        }
        offset += vector.len();
    }

    let checksum = traces.iter().copied().sum();
    let stages = stream.vectors().len();
    let lost_workers = (0..workers)
        .filter(|&w| faults.loss_of(w).is_some_and(|(s, _)| s < stages))
        .count();
    if let Some(t) = &tele {
        let end = t.now_us();
        t.span(CONTROL_PID, Track::Run, "exec".to_owned(), 0.0, end);
    }
    Ok(ExecOutcome {
        wall_secs: t0.elapsed().as_secs_f64(),
        per_worker_tasks,
        per_worker_executed,
        per_worker_busy_secs,
        steals: steals.into_inner(),
        checksum,
        kernels: stream.total_tasks(),
        faults: fault_events.into_inner(),
        retries: retry_events.into_inner(),
        lost_workers,
    })
}

/// Run one task's kernel: fetch operands, contract, register the output,
/// and return the per-task trace (computed sequentially per batch element —
/// no cross-thread reduction ⇒ bitwise determinism).
fn run_task(store: &TensorStore, vector: &Vector, i: usize) -> Result<Complex64, ExecError> {
    let task = &vector.tasks[i];
    let a = store.fetch(task.a.id);
    let b = store.fetch(task.b.id);
    let out = a.matmul(&b).map_err(|e| match e {
        TensorError::ShapeMismatch { lhs, rhs } => ExecError::ShapeMismatch {
            task: task.id.0,
            lhs,
            rhs,
        },
        other => ExecError::WorkerFailed {
            gpu: None,
            task: Some(task.id.0),
            cause: other.to_string(),
        },
    })?;
    let mut tr = Complex64::ZERO;
    for bi in 0..out.batch() {
        tr += out.element(bi).trace();
    }
    store.insert(task.out.id, Arc::new(out));
    Ok(tr)
}

/// [`run_task`] under the fault plan and the telemetry layer. A transfer
/// timeout re-stages the operands once per charged retry; a transient
/// kernel fault burns attempts from the retry budget (with exponential
/// backoff) before its deterministic success — or exhausts the budget into
/// a typed [`ExecError::WorkerFailed`]. Returns the per-task trace plus
/// the wall-clock seconds spent inside the kernel (the duration of the
/// compute span it records when tracing is on — span sums and busy sums
/// agree exactly by construction).
fn run_task_faulty(
    store: &TensorStore,
    vector: &Vector,
    i: usize,
    gpu: usize,
    fx: &FaultCtx<'_>,
) -> Result<(Complex64, f64), ExecError> {
    let task = &vector.tasks[i];
    let pid = gpu as u32;
    let timeouts = fx.faults.transfer_retries(task.id.0);
    if timeouts > 0 {
        fx.fault_events.fetch_add(1, Ordering::Relaxed);
        if let Some(t) = fx.tele {
            t.instant(
                pid,
                Track::Copy,
                format!("transfer timeout task {}", task.id.0),
                vec![("retries".to_owned(), timeouts.to_string())],
            );
        }
        for attempt in 1..=timeouts {
            fx.retry_events.fetch_add(1, Ordering::Relaxed);
            fx.backoff(attempt);
            store.fetch(task.a.id);
            store.fetch(task.b.id);
        }
    }
    let kernel_faults = fx.faults.kernel_failures(task.id.0);
    if kernel_faults > 0 {
        fx.fault_events.fetch_add(1, Ordering::Relaxed);
        if let Some(t) = fx.tele {
            t.instant(
                pid,
                Track::Compute,
                format!("fault task {}", task.id.0),
                vec![("transient_failures".to_owned(), kernel_faults.to_string())],
            );
        }
        let budget = fx.max_attempts.max(1);
        if kernel_faults >= budget {
            return Err(ExecError::WorkerFailed {
                gpu: Some(gpu),
                task: Some(task.id.0),
                cause: format!("transient kernel fault persisted through {budget} attempt(s)"),
            });
        }
        for attempt in 1..=kernel_faults {
            fx.retry_events.fetch_add(1, Ordering::Relaxed);
            if let Some(t) = fx.tele {
                t.instant(
                    pid,
                    Track::Compute,
                    format!("retry task {}", task.id.0),
                    vec![("attempt".to_owned(), attempt.to_string())],
                );
            }
            fx.backoff(attempt);
        }
    }
    // operand staging: with tracing on, warm the store explicitly so the
    // fetch cost lands on the worker's copy track (the fetches are cached,
    // so the kernel's own fetches below are then free)
    if let Some(t) = fx.tele {
        let cs = t.now_us();
        store.fetch(task.a.id);
        store.fetch(task.b.id);
        let ce = t.now_us();
        if ce > cs {
            // the `task` arg ties the transfer span to its consumer — the
            // happens-before certifier's W205 check keys on it
            t.span_with(
                pid,
                Track::Copy,
                format!("fetch t{}/t{}", task.a.id.0, task.b.id.0),
                cs,
                ce - cs,
                vec![("task".to_owned(), task.id.0.to_string())],
            );
        }
    }
    let span_start_us = fx.tele.map(|t| t.now_us());
    let k0 = Instant::now();
    let tr = run_task(store, vector, i)?;
    let busy = k0.elapsed().as_secs_f64();
    if let (Some(t), Some(start)) = (fx.tele, span_start_us) {
        t.span(
            pid,
            Track::Compute,
            format!("task {}", task.id.0),
            start,
            busy * 1e6,
        );
    }
    Ok((tr, busy))
}

/// Static replay: one scoped thread per non-empty bucket; the scope join
/// is the stage barrier. Every handle — workers and prefetcher — is
/// joined explicitly, so a panicking thread surfaces as
/// [`ExecError::WorkerFailed`] instead of unwinding through the scope.
fn run_stage_static(
    vector: &Vector,
    buckets: &[Vec<usize>],
    store: &TensorStore,
    stage_traces: &mut [Complex64],
    per_worker_busy_secs: &mut [f64],
    prefetch: bool,
    fx: &FaultCtx<'_>,
) -> Result<(), ExecError> {
    let trace_slices = split_by_buckets(stage_traces, buckets);
    let scoped = crossbeam::thread::scope(|scope| -> Result<Vec<(usize, f64)>, ExecError> {
        let prefetcher = prefetch.then(|| {
            scope.spawn(move |_| {
                for t in &vector.tasks {
                    store.fetch(t.a.id);
                    store.fetch(t.b.id);
                }
            })
        });
        let handles: Vec<_> = buckets
            .iter()
            .zip(trace_slices)
            .enumerate()
            .filter(|(_, (bucket, _))| !bucket.is_empty())
            .map(|(w, (bucket, slots))| {
                let h = scope.spawn(move |_| -> Result<f64, ExecError> {
                    let mut busy = 0.0;
                    for (&i, slot) in bucket.iter().zip(slots) {
                        let (tr, b) = run_task_faulty(store, vector, i, w, fx)?;
                        *slot = tr;
                        busy += b;
                    }
                    Ok(busy)
                });
                (w, h)
            })
            .collect();
        let mut busy_per: Vec<(usize, f64)> = Vec::new();
        let mut first_err = None;
        for (w, h) in handles {
            match join_worker(w, h.join()) {
                Ok(busy) => busy_per.push((w, busy)),
                Err(e) => {
                    first_err.get_or_insert(e);
                }
            }
        }
        if let Some(h) = prefetcher {
            if let Err(payload) = h.join() {
                first_err.get_or_insert(panic_to_error(None, payload));
            }
        }
        match first_err {
            Some(e) => Err(e),
            None => Ok(busy_per),
        }
    });
    let busy_per = scoped.unwrap_or_else(|payload| Err(panic_to_error(None, payload)))?;
    for (w, busy) in busy_per {
        per_worker_busy_secs[w] += busy;
    }
    Ok(())
}

/// Work-stealing stage: per-worker deques; a worker drains its own queue
/// from the front, then scans victims' queues from the back for tasks
/// whose operands it already holds. Results come back through the join
/// handles tagged with their stage-local task index, so the caller writes
/// them into the order-fixed trace array.
#[allow(clippy::too_many_arguments)]
fn run_stage_stealing(
    vector: &Vector,
    buckets: &[Vec<usize>],
    residents: &mut [HashSet<TensorId>],
    store: &TensorStore,
    stage_traces: &mut [Complex64],
    steals: &AtomicUsize,
    per_worker_executed: &mut [usize],
    per_worker_busy_secs: &mut [f64],
    prefetch: bool,
    fx: &FaultCtx<'_>,
    lost: &[bool],
) -> Result<(), ExecError> {
    let workers = buckets.len();
    let queues: Vec<Mutex<VecDeque<usize>>> = buckets
        .iter()
        .map(|b| Mutex::new(b.iter().copied().collect()))
        .collect();
    // queue-ordering events: one push per seeded task, so a trace reader
    // can replay the deque history against the pops recorded below
    if let Some(t) = fx.tele {
        for (w, bucket) in buckets.iter().enumerate() {
            for &i in bucket {
                t.instant(
                    w as u32,
                    Track::Control,
                    format!("queue push task {}", vector.tasks[i].id.0),
                    Vec::new(),
                );
            }
        }
    }
    type StageDone = (Vec<(usize, Complex64)>, f64);
    let scoped = crossbeam::thread::scope(|scope| -> Result<Vec<StageDone>, ExecError> {
        let prefetcher = prefetch.then(|| {
            scope.spawn(move |_| {
                for t in &vector.tasks {
                    store.fetch(t.a.id);
                    store.fetch(t.b.id);
                }
            })
        });
        // lost workers spawn no thread: their queues sit as carrion for
        // the survivors' drain path in `steal_one`
        let handles: Vec<_> = residents
            .iter_mut()
            .enumerate()
            .filter(|(w, _)| !lost[*w])
            .map(|(w, resident)| {
                let queues = &queues;
                let h = scope.spawn(move |_| -> Result<StageDone, ExecError> {
                    let mut done: Vec<(usize, Complex64)> = Vec::new();
                    let mut busy = 0.0;
                    loop {
                        let own = queues[w].lock().pop_front();
                        let (i, stolen_from) = match own {
                            Some(i) => (i, None),
                            None => match steal_one(queues, w, vector, resident, lost) {
                                Some((victim, i)) => (i, Some(victim)),
                                None => break,
                            },
                        };
                        if let Some(victim) = stolen_from {
                            steals.fetch_add(1, Ordering::Relaxed);
                            if let Some(t) = fx.tele {
                                t.steal_flow(victim, w, vector.tasks[i].id.0);
                            }
                        }
                        if let Some(t) = fx.tele {
                            let args = match stolen_from {
                                Some(v) => vec![("stolen_from".to_owned(), v.to_string())],
                                None => Vec::new(),
                            };
                            t.instant(
                                w as u32,
                                Track::Control,
                                format!("queue pop task {}", vector.tasks[i].id.0),
                                args,
                            );
                        }
                        let (tr, b) = run_task_faulty(store, vector, i, w, fx)?;
                        busy += b;
                        let task = &vector.tasks[i];
                        resident.insert(task.a.id);
                        resident.insert(task.b.id);
                        resident.insert(task.out.id);
                        done.push((i, tr));
                    }
                    Ok((done, busy))
                });
                (w, h)
            })
            .collect();
        let mut per: Vec<StageDone> = vec![(Vec::new(), 0.0); workers];
        let mut first_err = None;
        for (w, h) in handles {
            match join_worker(w, h.join()) {
                Ok(done) => per[w] = done,
                Err(e) => {
                    first_err.get_or_insert(e);
                }
            }
        }
        if let Some(h) = prefetcher {
            if let Err(payload) = h.join() {
                first_err.get_or_insert(panic_to_error(None, payload));
            }
        }
        match first_err {
            Some(e) => Err(e),
            None => Ok(per),
        }
    });
    let per = scoped.unwrap_or_else(|payload| Err(panic_to_error(None, payload)))?;
    for (w, (rs, busy)) in per.into_iter().enumerate() {
        per_worker_executed[w] += rs.len();
        per_worker_busy_secs[w] += busy;
        for (i, tr) in rs {
            stage_traces[i] = tr;
        }
    }
    Ok(())
}

/// Pop one steal-eligible task for `thief`: scanning other workers'
/// queues, take from the *back* (the victim's coldest work) the first
/// task whose operands the thief already holds. A *lost* victim cannot
/// run anything itself, so its queue is drained from the *front*
/// unconditionally — the reuse gate would strand its tasks. Returns the
/// victim's index alongside the stolen stage-local task index.
fn steal_one(
    queues: &[Mutex<VecDeque<usize>>],
    thief: usize,
    vector: &Vector,
    resident: &HashSet<TensorId>,
    lost: &[bool],
) -> Option<(usize, usize)> {
    for (v, queue) in queues.iter().enumerate() {
        if v == thief {
            continue;
        }
        let mut q = queue.lock();
        if lost[v] {
            if let Some(i) = q.pop_front() {
                return Some((v, i));
            }
            continue;
        }
        if let Some(pos) = q.iter().rposition(|&i| {
            let t = &vector.tasks[i];
            resident.contains(&t.a.id) && resident.contains(&t.b.id)
        }) {
            return q.remove(pos).map(|i| (v, i));
        }
    }
    None
}

/// Split `slice` into per-bucket mutable views: bucket `w` receives one
/// `&mut Complex64` per entry, in order. Implemented with `split_first_mut`
/// walking the slice once per bucket ordering — buckets index disjoint
/// positions, so we hand out raw disjoint sub-borrows via sorting.
fn split_by_buckets<'a>(
    slice: &'a mut [Complex64],
    buckets: &[Vec<usize>],
) -> Vec<Vec<&'a mut Complex64>> {
    // Decorate every slot with its bucket, then walk the slice once,
    // routing each &mut to its bucket — safe disjoint splitting without
    // unsafe code.
    let mut owner: Vec<usize> = vec![usize::MAX; slice.len()];
    for (w, bucket) in buckets.iter().enumerate() {
        for &i in bucket {
            owner[i] = w;
        }
    }
    let mut out: Vec<Vec<&mut Complex64>> = (0..buckets.len()).map(|_| Vec::new()).collect();
    for (slot, &w) in slice.iter_mut().zip(&owner) {
        if w != usize::MAX {
            out[w].push(slot);
        }
    }
    out
}

#[cfg(test)]
mod tests {
    use super::*;
    use micco_core::{
        GrouteScheduler, MiccoScheduler, ReuseBounds, RoundRobinScheduler, Scheduler, Session,
    };
    use micco_gpusim::MachineConfig;
    use micco_obs::Recorder;
    use micco_workload::WorkloadSpec;

    const SHAPE: TensorShape = TensorShape { batch: 2, dim: 8 };

    fn stream() -> TensorPairStream {
        WorkloadSpec::new(12, SHAPE.dim)
            .with_batch(SHAPE.batch)
            .with_repeat_rate(0.6)
            .with_vectors(3)
            .with_seed(21)
            .generate()
    }

    fn store(seed: u64) -> TensorStore {
        TensorStore::new(SHAPE.batch, SHAPE.dim, seed)
    }

    fn exec(
        stream: &TensorPairStream,
        assignments: &[Assignment],
        workers: usize,
        seed: u64,
        opts: &ExecOptions,
    ) -> Result<ExecOutcome, ExecError> {
        execute_assignments(stream, assignments, workers, &store(seed), opts)
    }

    fn assignments_for(
        s: &mut dyn Scheduler,
        stream: &TensorPairStream,
        gpus: usize,
    ) -> Vec<Assignment> {
        Session::new(MachineConfig::mi100_like(gpus))
            .run(s, stream)
            .expect("fits")
            .assignments
    }

    #[test]
    fn executes_and_counts() {
        let stream = stream();
        let assignments = assignments_for(&mut RoundRobinScheduler::new(), &stream, 4);
        let out = exec(&stream, &assignments, 4, 5, &ExecOptions::default()).unwrap();
        assert_eq!(out.kernels, stream.total_tasks());
        assert_eq!(
            out.per_worker_tasks.iter().sum::<usize>(),
            stream.total_tasks()
        );
        assert!(out.checksum.is_finite());
        assert!(out.wall_secs >= 0.0);
        assert_eq!(out.per_worker_busy_secs.len(), 4);
        assert!(out.per_worker_busy_secs.iter().all(|&b| b >= 0.0));
    }

    #[test]
    fn checksum_is_scheduler_invariant() {
        let stream = stream();
        let mut checksums = Vec::new();
        let mut schedulers: Vec<Box<dyn Scheduler>> = vec![
            Box::new(GrouteScheduler::new()),
            Box::new(RoundRobinScheduler::new()),
            Box::new(MiccoScheduler::new(ReuseBounds::new(0, 2, 0))),
            Box::new(MiccoScheduler::new(ReuseBounds::unbounded())),
        ];
        for s in schedulers.iter_mut() {
            let assignments = assignments_for(s.as_mut(), &stream, 4);
            checksums.push(
                exec(&stream, &assignments, 4, 5, &ExecOptions::default())
                    .unwrap()
                    .checksum,
            );
        }
        for w in checksums.windows(2) {
            assert_eq!(w[0], w[1], "placement must never change the physics");
        }
    }

    #[test]
    fn checksum_is_worker_count_invariant() {
        let stream = stream();
        let mut reference = None;
        for gpus in [1usize, 2, 3, 8] {
            let assignments = assignments_for(&mut RoundRobinScheduler::new(), &stream, gpus);
            let out = exec(&stream, &assignments, gpus, 5, &ExecOptions::default()).unwrap();
            if let Some(r) = reference {
                assert_eq!(out.checksum, r, "{gpus} workers changed the checksum");
            } else {
                reference = Some(out.checksum);
            }
        }
    }

    #[test]
    fn repeated_runs_are_bit_identical() {
        let stream = stream();
        let assignments = assignments_for(&mut MiccoScheduler::naive(), &stream, 3);
        let a = exec(&stream, &assignments, 3, 9, &ExecOptions::default())
            .unwrap()
            .checksum;
        let b = exec(&stream, &assignments, 3, 9, &ExecOptions::default())
            .unwrap()
            .checksum;
        assert_eq!(a, b);
    }

    #[test]
    fn seed_changes_checksum() {
        let stream = stream();
        let assignments = assignments_for(&mut RoundRobinScheduler::new(), &stream, 2);
        let a = exec(&stream, &assignments, 2, 1, &ExecOptions::default())
            .unwrap()
            .checksum;
        let b = exec(&stream, &assignments, 2, 2, &ExecOptions::default())
            .unwrap()
            .checksum;
        assert_ne!(a, b);
    }

    #[test]
    fn matches_single_threaded_reference() {
        // hand-rolled sequential reference over the same leaf generator
        let stream = WorkloadSpec::new(4, SHAPE.dim)
            .with_batch(SHAPE.batch)
            .with_repeat_rate(0.0)
            .with_vectors(1)
            .with_seed(2)
            .generate();
        let reference = crate::store::TensorStore::new(SHAPE.batch, SHAPE.dim, 77);
        let mut expect = Complex64::ZERO;
        for t in &stream.vectors()[0].tasks {
            let out = reference
                .fetch(t.a.id)
                .matmul(&reference.fetch(t.b.id))
                .unwrap();
            // group per task exactly as the engine does — float addition is
            // not associative, and the test demands bit equality
            let mut tr = Complex64::ZERO;
            for bi in 0..out.batch() {
                tr += out.element(bi).trace();
            }
            expect += tr;
        }
        let assignments = assignments_for(&mut RoundRobinScheduler::new(), &stream, 2);
        let got = exec(&stream, &assignments, 2, 77, &ExecOptions::default())
            .unwrap()
            .checksum;
        assert_eq!(got, expect);
    }

    #[test]
    fn stealing_preserves_checksum_and_totals() {
        let stream = stream();
        for workers in [1usize, 2, 4] {
            let assignments = assignments_for(&mut RoundRobinScheduler::new(), &stream, workers);
            let base = exec(&stream, &assignments, workers, 5, &ExecOptions::default()).unwrap();
            let stolen = exec(
                &stream,
                &assignments,
                workers,
                5,
                &ExecOptions::default().with_steal(),
            )
            .unwrap();
            assert_eq!(stolen.checksum, base.checksum, "{workers} workers");
            assert_eq!(stolen.per_worker_tasks, base.per_worker_tasks);
            assert_eq!(
                stolen.per_worker_executed.iter().sum::<usize>(),
                stream.total_tasks(),
                "every task executed exactly once"
            );
            assert_eq!(stolen.kernels, stream.total_tasks());
        }
    }

    #[test]
    fn prefetch_is_checksum_neutral() {
        let stream = stream();
        let assignments = assignments_for(&mut MiccoScheduler::naive(), &stream, 3);
        let base = exec(&stream, &assignments, 3, 9, &ExecOptions::default()).unwrap();
        for opts in [
            ExecOptions::default().with_prefetch(),
            ExecOptions::default().with_steal().with_prefetch(),
        ] {
            let out = exec(&stream, &assignments, 3, 9, &opts).unwrap();
            assert_eq!(out.checksum, base.checksum, "{opts:?}");
        }
    }

    #[test]
    fn static_mode_reports_zero_steals() {
        let stream = stream();
        let assignments = assignments_for(&mut RoundRobinScheduler::new(), &stream, 2);
        let out = exec(&stream, &assignments, 2, 5, &ExecOptions::default()).unwrap();
        assert_eq!(out.steals, 0);
        assert_eq!(out.per_worker_executed, out.per_worker_tasks);
    }

    #[test]
    fn steals_only_move_work_between_workers() {
        // a lopsided hand-built schedule: everything on worker 0, so worker
        // 1 can only help via stealing — and only for operands it holds
        // (none at first, so stage 1 must not be stolen)
        let stream = stream();
        let assignments: Vec<Assignment> = stream
            .vectors()
            .iter()
            .flat_map(|v| v.tasks.iter())
            .map(|t| Assignment {
                task: t.id,
                gpu: micco_gpusim::GpuId(0),
            })
            .collect();
        let out = exec(
            &stream,
            &assignments,
            2,
            5,
            &ExecOptions::default().with_steal(),
        )
        .unwrap();
        assert_eq!(out.per_worker_tasks, vec![stream.total_tasks(), 0]);
        assert_eq!(
            out.per_worker_executed.iter().sum::<usize>(),
            stream.total_tasks()
        );
        assert_eq!(
            out.steals, out.per_worker_executed[1],
            "worker 1 only runs stolen work"
        );
        // worker 1 held nothing when stage 0 started, so every stage-0 task
        // stayed on worker 0 — reuse-aware stealing never moves cold tasks
        let stage0 = stream.vectors()[0].len();
        assert!(out.per_worker_executed[0] >= stage0);
        // and the physics is unchanged
        let base = exec(&stream, &assignments, 2, 5, &ExecOptions::default()).unwrap();
        assert_eq!(out.checksum, base.checksum);
    }

    #[test]
    fn steal_one_is_reuse_aware_and_takes_from_the_back() {
        use micco_workload::{ContractionTask, TaskId, TensorDesc};
        let t = |id: u64, a: u64, b: u64, out: u64| ContractionTask {
            id: TaskId(id),
            a: TensorDesc {
                id: TensorId(a),
                bytes: 1,
            },
            b: TensorDesc {
                id: TensorId(b),
                bytes: 1,
            },
            out: TensorDesc {
                id: TensorId(out),
                bytes: 1,
            },
            flops: 0,
        };
        // tasks 0 and 2 use tensors {1,2}; task 1 uses {3,4}
        let vector = Vector::new(vec![t(0, 1, 2, 10), t(1, 3, 4, 11), t(2, 1, 2, 12)]);
        let queues = vec![
            Mutex::new(VecDeque::from(vec![0usize, 1, 2])),
            Mutex::new(VecDeque::new()),
        ];
        let resident: HashSet<TensorId> = [TensorId(1), TensorId(2)].into_iter().collect();
        let alive = [false, false];
        // the thief takes eligible work back-to-front, skipping task 1
        assert_eq!(
            steal_one(&queues, 1, &vector, &resident, &alive),
            Some((0, 2))
        );
        assert_eq!(
            steal_one(&queues, 1, &vector, &resident, &alive),
            Some((0, 0))
        );
        assert_eq!(
            steal_one(&queues, 1, &vector, &resident, &alive),
            None,
            "task 1 is cold"
        );
        assert_eq!(
            queues[0].lock().len(),
            1,
            "ineligible work stays with its owner"
        );
        // a worker never steals from itself
        assert_eq!(steal_one(&queues, 0, &vector, &resident, &alive), None);
        // a lost victim is drained from the front, reuse gate waived
        let lost = [true, false];
        assert_eq!(
            steal_one(&queues, 1, &vector, &resident, &lost),
            Some((0, 1)),
            "cold work drains from a lost victim"
        );
    }

    #[test]
    fn short_assignments_are_a_typed_error() {
        let stream = stream();
        let err = exec(&stream, &[], 2, 0, &ExecOptions::default()).unwrap_err();
        assert_eq!(
            err,
            ExecError::AssignmentShortfall {
                expected: stream.total_tasks(),
                got: 0
            }
        );
        assert!(err.to_string().contains("cover every task"));
    }

    #[test]
    fn zero_workers_are_a_typed_error() {
        let stream = stream();
        let assignments = assignments_for(&mut RoundRobinScheduler::new(), &stream, 1);
        let err = exec(&stream, &assignments, 0, 0, &ExecOptions::default()).unwrap_err();
        assert_eq!(err, ExecError::NoWorkers);
        assert!(err.to_string().contains("at least one worker"));
    }

    #[test]
    fn out_of_range_device_is_a_typed_error() {
        let stream = stream();
        let assignments = assignments_for(&mut RoundRobinScheduler::new(), &stream, 4);
        let err = exec(&stream, &assignments, 2, 0, &ExecOptions::default()).unwrap_err();
        assert!(matches!(
            err,
            ExecError::DeviceOutOfRange { gpu, workers: 2 } if gpu >= 2
        ));
    }

    #[test]
    fn worker_panic_is_a_typed_error() {
        let joined =
            std::thread::spawn(|| -> Result<(), ExecError> { panic!("kernel crashed") }).join();
        let err = join_worker(3, joined).unwrap_err();
        assert!(matches!(
            &err,
            ExecError::WorkerFailed { gpu: Some(3), task: None, cause } if cause.contains("kernel crashed")
        ));
        assert!(err.to_string().contains("worker 3 failed"));
        // a String payload is captured too
        let joined = std::thread::spawn(|| -> Result<(), ExecError> {
            panic!("{}", String::from("owned payload"))
        })
        .join();
        assert!(matches!(
            join_worker(0, joined).unwrap_err(),
            ExecError::WorkerFailed { cause, .. } if cause.contains("owned payload")
        ));
    }

    #[test]
    fn shape_mismatch_is_a_typed_error() {
        use micco_workload::{ContractionTask, TaskId, TensorDesc};
        let store = TensorStore::new(2, 4, 1);
        // pre-register operand b with a different dim than the store default
        store.insert(
            TensorId(8),
            Arc::new(micco_tensor::BatchedMatrix::identity(2, 6)),
        );
        let vector = Vector::new(vec![ContractionTask {
            id: TaskId(0),
            a: TensorDesc {
                id: TensorId(7),
                bytes: 1,
            },
            b: TensorDesc {
                id: TensorId(8),
                bytes: 1,
            },
            out: TensorDesc {
                id: TensorId(9),
                bytes: 1,
            },
            flops: 0,
        }]);
        let err = run_task(&store, &vector, 0).unwrap_err();
        assert!(matches!(err, ExecError::ShapeMismatch { task: 0, .. }));
        assert!(err.to_string().contains("shape mismatch"));
    }

    #[test]
    fn transient_faults_retry_to_the_same_checksum() {
        let stream = stream();
        let assignments = assignments_for(&mut RoundRobinScheduler::new(), &stream, 2);
        let clean = exec(&stream, &assignments, 2, 5, &ExecOptions::default()).unwrap();
        let t0 = stream.vectors()[0].tasks[0].id.0;
        let t1 = stream.vectors()[0].tasks[1].id.0;
        let faults = FaultPlan::none()
            .with_kernel_fault(t0, 2)
            .with_transfer_timeout(t1, 1);
        let opts = ExecOptions::default()
            .retry(4, Duration::ZERO)
            .with_faults(faults);
        let out = exec(&stream, &assignments, 2, 5, &opts).unwrap();
        assert_eq!(out.checksum, clean.checksum, "faults never change values");
        assert_eq!(out.faults, 2);
        assert_eq!(out.retries, 3);
        assert_eq!(out.lost_workers, 0);
        // the recovery is deterministic: same (seed, FaultPlan) ⇒ same run
        let again = exec(&stream, &assignments, 2, 5, &opts).unwrap();
        assert_eq!(again.checksum, out.checksum);
        assert_eq!(again.retries, out.retries);
    }

    #[test]
    fn exhausted_retry_budget_is_worker_failed() {
        let stream = stream();
        let assignments = assignments_for(&mut RoundRobinScheduler::new(), &stream, 2);
        let tid = stream.vectors()[0].tasks[0].id.0;
        let faults = FaultPlan::none().with_kernel_fault(tid, 3);
        // default options: no retry budget, first transient failure is final
        let err = exec(
            &stream,
            &assignments,
            2,
            5,
            &ExecOptions::default().with_faults(faults.clone()),
        )
        .unwrap_err();
        assert!(matches!(
            err,
            ExecError::WorkerFailed { task: Some(t), .. } if t == tid
        ));
        // a budget larger than the fault count rides it out
        let opts = ExecOptions::default()
            .retry(4, Duration::ZERO)
            .with_faults(faults);
        assert!(exec(&stream, &assignments, 2, 5, &opts).is_ok());
    }

    #[test]
    fn permanent_single_gpu_loss_preserves_checksum() {
        let stream = stream();
        let assignments = assignments_for(&mut RoundRobinScheduler::new(), &stream, 2);
        let clean = exec(&stream, &assignments, 2, 5, &ExecOptions::default()).unwrap();
        // gpu 1 dies at stage 1 and never returns
        let faults = FaultPlan::none().with_device_loss(1, 1, true);
        let opts = ExecOptions::default().with_faults(faults);
        let out = exec(&stream, &assignments, 2, 5, &opts).unwrap();
        assert_eq!(
            out.checksum, clean.checksum,
            "survivors drain the dead queue"
        );
        assert_eq!(out.lost_workers, 1);
        assert_eq!(
            out.per_worker_executed.iter().sum::<usize>(),
            stream.total_tasks(),
            "every task executed exactly once"
        );
        assert_eq!(out.per_worker_tasks, clean.per_worker_tasks);
        let again = exec(&stream, &assignments, 2, 5, &opts).unwrap();
        assert_eq!(again.checksum, out.checksum, "recovery is deterministic");
    }

    #[test]
    fn transient_loss_returns_the_worker_next_stage() {
        let stream = stream();
        let assignments = assignments_for(&mut RoundRobinScheduler::new(), &stream, 3);
        let clean = exec(&stream, &assignments, 3, 5, &ExecOptions::default()).unwrap();
        // gpu 2 flakes in stage 0 only
        let faults = FaultPlan::none().with_device_loss(2, 0, false);
        let out = exec(
            &stream,
            &assignments,
            3,
            5,
            &ExecOptions::default().with_faults(faults),
        )
        .unwrap();
        assert_eq!(out.checksum, clean.checksum);
        assert_eq!(out.lost_workers, 1);
        assert_eq!(
            out.per_worker_executed.iter().sum::<usize>(),
            stream.total_tasks()
        );
    }

    #[test]
    fn all_workers_lost_is_a_typed_error() {
        let stream = stream();
        let assignments = assignments_for(&mut RoundRobinScheduler::new(), &stream, 2);
        let faults = FaultPlan::none()
            .with_device_loss(0, 0, true)
            .with_device_loss(1, 0, true);
        let err = exec(
            &stream,
            &assignments,
            2,
            5,
            &ExecOptions::default().with_faults(faults),
        )
        .unwrap_err();
        assert_eq!(err, ExecError::AllWorkersLost { stage: 0 });
        assert!(err.to_string().contains("all workers lost"));
    }

    #[test]
    fn empty_fault_plan_is_behavior_neutral() {
        let stream = stream();
        let assignments = assignments_for(&mut RoundRobinScheduler::new(), &stream, 2);
        let base = exec(&stream, &assignments, 2, 5, &ExecOptions::default()).unwrap();
        let via_faults = exec(
            &stream,
            &assignments,
            2,
            5,
            &ExecOptions::default().with_faults(FaultPlan::none()),
        )
        .unwrap();
        assert_eq!(via_faults.checksum, base.checksum);
        assert_eq!(via_faults.faults, 0);
        assert_eq!(via_faults.retries, 0);
        assert_eq!(via_faults.lost_workers, 0);
        assert_eq!(via_faults.per_worker_executed, base.per_worker_executed);
    }

    #[test]
    fn plan_path_matches_slice_path() {
        use micco_gpusim::MachineConfig;

        let stream = stream();
        let cfg = MachineConfig::mi100_like(3);
        let report = Session::new(cfg)
            .run(&mut MiccoScheduler::new(ReuseBounds::new(0, 2, 0)), &stream)
            .unwrap();
        let plan = Session::new(cfg)
            .plan(&mut MiccoScheduler::new(ReuseBounds::new(0, 2, 0)), &stream)
            .unwrap()
            .into_plan();
        let via_slices = exec(&stream, &report.assignments, 3, 5, &ExecOptions::default()).unwrap();
        let via_plan = execute_plan(&stream, &plan, &store(5), &ExecOptions::default()).unwrap();
        assert_eq!(via_plan.checksum, via_slices.checksum);
        assert_eq!(via_plan.per_worker_tasks, via_slices.per_worker_tasks);
        assert_eq!(via_plan.kernels, via_slices.kernels);
    }

    #[test]
    fn stale_plan_is_rejected_before_any_kernel_runs() {
        use micco_core::PlanError;
        use micco_gpusim::MachineConfig;

        let stream = stream();
        let plan = Session::new(MachineConfig::mi100_like(2))
            .plan(&mut RoundRobinScheduler::new(), &stream)
            .unwrap()
            .into_plan();
        // mutate the workload after planning: the fingerprint catches it
        let mut vectors = stream.clone().into_vectors();
        vectors[0].tasks[0].flops += 1;
        let drifted = TensorPairStream::new(vectors);
        let err = execute_plan(&drifted, &plan, &store(5), &ExecOptions::default()).unwrap_err();
        assert!(matches!(
            err,
            ExecError::Plan(PlanError::FingerprintMismatch { .. })
        ));
    }

    #[test]
    fn canonical_entry_points_agree_bit_for_bit() {
        use micco_gpusim::MachineConfig;

        let stream = stream();
        let cfg = MachineConfig::mi100_like(3);
        let plan = Session::new(cfg)
            .plan(&mut RoundRobinScheduler::new(), &stream)
            .unwrap()
            .into_plan();
        let assignments = plan.flat_assignments();
        let faults = FaultPlan::none().with_kernel_fault(stream.vectors()[0].tasks[0].id.0, 1);

        // the two canonical entries — assignment slice vs plan IR — are
        // one engine: identical checksums for the same placement
        let via_assignments = exec(&stream, &assignments, 3, 5, &ExecOptions::default()).unwrap();
        let via_plan = execute_plan(&stream, &plan, &store(5), &ExecOptions::default()).unwrap();
        assert_eq!(via_assignments.checksum, via_plan.checksum);
        assert_eq!(via_assignments.per_worker_tasks, via_plan.per_worker_tasks);

        // execution-side knobs reorder work but never change the result
        let steal = exec(
            &stream,
            &assignments,
            3,
            5,
            &ExecOptions::default().with_steal().with_prefetch(),
        )
        .unwrap();
        assert_eq!(steal.checksum, via_assignments.checksum);

        // chaos riding in ExecOptions::faults retries to the same bits,
        // through both entries
        let chaos_opts = ExecOptions::default()
            .retry(3, Duration::ZERO)
            .with_faults(faults.clone());
        let faulty = exec(&stream, &assignments, 3, 5, &chaos_opts).unwrap();
        let faulty_plan = execute_plan(&stream, &plan, &store(5), &chaos_opts).unwrap();
        assert_eq!(faulty.checksum, via_assignments.checksum);
        assert_eq!(faulty_plan.checksum, via_assignments.checksum);
        assert_eq!(faulty.faults, faulty_plan.faults);
        assert!(faulty.retries >= 1);

        // and the whole surface is deterministic run to run
        let again = execute_plan(&stream, &plan, &store(5), &ExecOptions::default()).unwrap();
        assert_eq!(again.checksum, via_plan.checksum);
    }

    #[test]
    fn traced_run_spans_reconcile_with_busy_secs() {
        use micco_obs::span_track_totals;

        let stream = stream();
        let assignments = assignments_for(&mut RoundRobinScheduler::new(), &stream, 2);
        let recorder = Recorder::shared();
        let opts = ExecOptions::default()
            .with_prefetch()
            .with_trace(recorder.clone());
        let out = exec(&stream, &assignments, 2, 5, &opts).unwrap();
        let events = recorder.events();
        // compute-track spans per worker sum to exactly the reported busy
        // seconds — span durations and busy accounting share a measurement
        let totals = span_track_totals(&events);
        for (w, &busy) in out.per_worker_busy_secs.iter().enumerate() {
            let spans = totals
                .get(&(w as u32, Track::Compute))
                .copied()
                .unwrap_or(0.0);
            assert!(
                (spans - busy).abs() < 1e-9,
                "worker {w}: spans {spans} vs busy {busy}"
            );
        }
        // one control span per stage plus the run span
        let stage_spans = events
            .iter()
            .filter(|e| {
                matches!(e, TraceEvent::Span { pid, track, .. }
                    if *pid == CONTROL_PID && *track == Track::Control)
            })
            .count();
        assert_eq!(stage_spans, stream.vectors().len());
        assert!(events.iter().any(|e| {
            matches!(e, TraceEvent::Span { pid, track, name, .. }
                if *pid == CONTROL_PID && *track == Track::Run && name == "exec")
        }));
        // worker processes are labelled
        assert!(events.iter().any(|e| {
            matches!(e, TraceEvent::ProcessLabel { pid: 0, label } if label == "worker0")
        }));
        // tracing never perturbs the physics
        let untr = exec(&stream, &assignments, 2, 5, &ExecOptions::default()).unwrap();
        assert_eq!(out.checksum, untr.checksum);
    }

    #[test]
    fn traced_steals_emit_flow_arrows() {
        let stream = stream();
        // lopsided: all work on worker 0, worker 1 helps via stealing
        let assignments: Vec<Assignment> = stream
            .vectors()
            .iter()
            .flat_map(|v| v.tasks.iter())
            .map(|t| Assignment {
                task: t.id,
                gpu: micco_gpusim::GpuId(0),
            })
            .collect();
        let recorder = Recorder::shared();
        let opts = ExecOptions::default()
            .with_steal()
            .with_trace(recorder.clone());
        let out = exec(&stream, &assignments, 2, 5, &opts).unwrap();
        let flows = recorder
            .events()
            .iter()
            .filter(|e| matches!(e, TraceEvent::Flow { name, .. } if name.starts_with("steal")))
            .count();
        assert_eq!(flows, out.steals, "one flow arrow per steal");
    }
}
