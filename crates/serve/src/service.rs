//! The scheduling service: job table, admission queue, dispatcher and
//! executor threads over one shared simulated GPU pool.
//!
//! Two scheduling levels compose here. This module decides *which job
//! runs next* (priority classes + weighted fair share, see
//! [`crate::sched`]); each dispatched job then plans its own placement
//! through the existing per-job [`micco_core::Session`] machinery —
//! hitting the shared [`micco_core::DurablePlanCache`] for warm starts.
//! The cache locks itself only to probe and commit, so jobs that miss
//! decide their plans in parallel, and jobs asking for the same plan wait
//! for its one decision.
//! Planning simulates the plan on a machine sized to the job's GPU
//! request, so executing it returns that report without a second pass
//! (jobs with injected faults replay). Running jobs hold GPUs out of the
//! shared pool, and `time_scale` optionally keeps a finished job's GPUs
//! for its scaled makespan so the pool exhibits real contention.
//! `Pool` owns every wait: that hold is a deadline the dispatcher
//! settles, and a cancel is a flag under the pool mutex, so an executor
//! thread lives only while its job computes. Every job-state change and
//! `serve.*`/`tenant.*` metric update is made by one of `Pool`'s
//! lifecycle methods, under the pool mutex.

use std::collections::BTreeMap;
use std::panic::{catch_unwind, AssertUnwindSafe};
use std::path::PathBuf;
use std::sync::{Arc, Condvar, Mutex, MutexGuard, PoisonError};
use std::time::{Duration, Instant};

use micco_core::{DurablePlanCache, PlanSource, SessionConfig};
use micco_obs::MetricsRegistry;

use crate::sched::{
    admission_victim, estimated_bytes, pick_next, Candidate, Priority, TenantSpec, TenantState,
};

/// Service configuration (the daemon-level knobs; per-job knobs live in
/// [`SessionConfig`]).
#[derive(Debug, Clone)]
pub struct ServeConfig {
    /// Size of the shared simulated GPU pool.
    pub pool_gpus: usize,
    /// Admission queue depth; submissions beyond it are rejected (429)
    /// unless they outrank a queued job.
    pub max_queue: usize,
    /// Fraction of the pool's total memory a single job's estimated
    /// working set may claim before being rejected outright (413).
    pub mem_headroom: f64,
    /// Durable plan store directory shared by all jobs (warm starts).
    pub store: Option<PathBuf>,
    /// Wall-clock seconds a finished job keeps its GPUs per simulated
    /// second, up to 5 s (0 = jobs release them as soon as the simulator
    /// returns).
    pub time_scale: f64,
    /// Pre-declared tenants; unknown tenants are admitted with
    /// `default_priority` / `default_weight`.
    pub tenants: Vec<TenantSpec>,
    /// Priority class for undeclared tenants.
    pub default_priority: Priority,
    /// Fair-share weight for undeclared tenants.
    pub default_weight: u32,
}

impl Default for ServeConfig {
    fn default() -> Self {
        ServeConfig {
            pool_gpus: 8,
            max_queue: 32,
            mem_headroom: 1.0,
            store: None,
            time_scale: 0.0,
            tenants: Vec::new(),
            default_priority: Priority::Normal,
            default_weight: 1,
        }
    }
}

/// Per-GPU memory of the simulated pool (the paper's MI100 platform).
const POOL_GPU_MEM_BYTES: u64 = 32 * (1 << 30);

/// Lifecycle of a job.
#[derive(Debug, Clone, PartialEq)]
pub enum JobState {
    /// Admitted, waiting for dispatch.
    Queued,
    /// Dispatched; planning, executing or holding its GPUs.
    Running,
    /// Finished successfully; result available.
    Done,
    /// Failed (message in [`JobRecord::error`]).
    Failed,
    /// Canceled by the client.
    Canceled,
    /// Evicted from the admission queue by a higher-priority submission.
    Preempted,
}

impl JobState {
    /// Lowercase wire name.
    pub fn as_str(&self) -> &'static str {
        match self {
            JobState::Queued => "queued",
            JobState::Running => "running",
            JobState::Done => "done",
            JobState::Failed => "failed",
            JobState::Canceled => "canceled",
            JobState::Preempted => "preempted",
        }
    }

    /// Whether the job can no longer change state.
    pub fn is_terminal(&self) -> bool {
        matches!(
            self,
            JobState::Done | JobState::Failed | JobState::Canceled | JobState::Preempted
        )
    }
}

/// Outcome of a completed job.
#[derive(Debug, Clone, PartialEq)]
pub struct JobResult {
    /// Scheduler that decided the plan.
    pub scheduler: String,
    /// Simulated throughput.
    pub gflops: f64,
    /// Simulated makespan, milliseconds.
    pub sim_elapsed_ms: f64,
    /// Stages in the decided plan.
    pub plan_stages: usize,
    /// Tasks in the decided plan.
    pub plan_tasks: usize,
    /// Whether the plan came from the durable store (memory or log)
    /// rather than invoking the scheduler.
    pub warm: bool,
    /// Wall-clock planning time, milliseconds.
    pub plan_ms: f64,
    /// Wall-clock execute time, milliseconds: checking the plan against
    /// the stream and taking the report its planning pass carried, or a
    /// full simulator replay for jobs with injected faults.
    pub exec_ms: f64,
}

/// One submitted job. The daemon keeps every record for its lifetime, so
/// a record holds only what the job API serves and the dispatcher reads:
/// the job's config moves into its executor at dispatch.
#[derive(Debug, Clone)]
pub struct JobRecord {
    /// Job id (dense from 1, unique for the daemon's lifetime).
    pub id: u64,
    /// Owning tenant.
    pub tenant: String,
    /// Priority class the job was admitted with.
    pub priority: Priority,
    /// When the job was admitted.
    pub submitted_at: Instant,
    /// Current lifecycle state.
    pub state: JobState,
    /// GPUs the job occupies while running.
    pub gpus: usize,
    /// Dispatch order (None until dispatched).
    pub dispatch_seq: Option<u64>,
    /// Milliseconds spent queued before dispatch.
    pub wait_ms: Option<f64>,
    /// Milliseconds from submission to a terminal state.
    pub total_ms: Option<f64>,
    /// Result when [`JobState::Done`].
    pub result: Option<JobResult>,
    /// Error message for failed/preempted jobs.
    pub error: Option<String>,
}

/// Why a submission was not admitted.
#[derive(Debug, Clone, PartialEq)]
pub enum SubmitError {
    /// The queue is full and the job outranks nothing (HTTP 429).
    QueueFull {
        /// Current queue depth.
        depth: usize,
    },
    /// The job's estimated working set exceeds the pool headroom
    /// (HTTP 413).
    MemoryExceeded {
        /// The job's estimate.
        estimated: u64,
        /// The admission limit.
        limit: u64,
    },
    /// The config itself is unusable (HTTP 400).
    BadConfig(String),
    /// The daemon is shutting down (HTTP 503).
    ShuttingDown,
}

impl SubmitError {
    /// The HTTP status this error maps to.
    pub fn status(&self) -> u16 {
        match self {
            SubmitError::QueueFull { .. } => 429,
            SubmitError::MemoryExceeded { .. } => 413,
            SubmitError::BadConfig(_) => 400,
            SubmitError::ShuttingDown => 503,
        }
    }
}

impl std::fmt::Display for SubmitError {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        match self {
            SubmitError::QueueFull { depth } => {
                write!(f, "admission queue full ({depth} jobs queued)")
            }
            SubmitError::MemoryExceeded { estimated, limit } => write!(
                f,
                "estimated working set {estimated} B exceeds pool headroom {limit} B"
            ),
            SubmitError::BadConfig(msg) => write!(f, "{msg}"),
            SubmitError::ShuttingDown => write!(f, "service is shutting down"),
        }
    }
}

/// Why a cancel was refused.
#[derive(Debug, Clone, PartialEq)]
pub enum CancelError {
    /// No job has this id (HTTP 404).
    Unknown(u64),
    /// The job already settled, in the given state (HTTP 409).
    Terminal(u64, JobState),
}

impl CancelError {
    /// The HTTP status this error maps to.
    pub fn status(&self) -> u16 {
        match self {
            CancelError::Unknown(_) => 404,
            CancelError::Terminal(..) => 409,
        }
    }
}

impl std::fmt::Display for CancelError {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        match self {
            CancelError::Unknown(id) => write!(f, "unknown job {id}"),
            CancelError::Terminal(id, state) => write!(f, "job {id} is already {}", state.as_str()),
        }
    }
}

/// An admitted job waiting for dispatch; it owns its config until then.
struct Queued {
    id: u64,
    config: SessionConfig,
}

/// A dispatched job, handed to its executor thread.
struct Dispatched {
    id: u64,
    config: SessionConfig,
}

/// A running job's claim on the pool.
struct Running {
    gpus: usize,
    /// A cancel came while the job computed: it settles Canceled when its
    /// work returns.
    canceled: bool,
    /// A finished job holding its GPUs: when the hold ends, and the
    /// result it settles Done with then.
    hold: Option<(Instant, JobResult)>,
}

/// The job table, queue, tenants and GPU holds behind the pool mutex.
/// Its methods are the job lifecycle, each called under the mutex with
/// its caller's `now`: they alone write a job's state, bump a `serve.*`
/// or `tenant.*` counter, or set a `serve.*` gauge.
struct Pool {
    config: ServeConfig,
    /// Every admitted job, at index `id - 1`: ids are dense from 1 and
    /// never reused.
    jobs: Vec<JobRecord>,
    queue: Vec<Queued>,
    tenants: BTreeMap<String, TenantState>,
    /// Each running job's claim, dropped as it settles; the free GPUs are
    /// the pool less these claims.
    running: BTreeMap<u64, Running>,
    next_dispatch: u64,
    shutdown: bool,
    metrics: Arc<MetricsRegistry>,
}

impl Pool {
    fn new(config: ServeConfig, metrics: Arc<MetricsRegistry>) -> Pool {
        let tenants = config
            .tenants
            .iter()
            .map(|spec| (spec.name.clone(), TenantState::new(spec.clone())));
        metrics.set_gauge("serve.pool_gpus", config.pool_gpus as f64);
        let pool = Pool {
            tenants: tenants.collect(),
            config,
            jobs: Vec::new(),
            queue: Vec::new(),
            running: BTreeMap::new(),
            next_dispatch: 0,
            shutdown: false,
            metrics,
        };
        pool.publish_gauges();
        pool
    }

    fn job(&self, id: u64) -> Option<&JobRecord> {
        self.jobs.get(usize::try_from(id).ok()?.checked_sub(1)?)
    }

    fn free_gpus(&self) -> usize {
        self.config.pool_gpus - self.running.values().map(|r| r.gpus).sum::<usize>()
    }

    /// Bump `serve.{name}` and `tenant.<tenant>.{tenant_name}`.
    fn count(&self, name: &str, tenant: &str, tenant_name: &str) {
        self.metrics.inc(&format!("serve.{name}"));
        self.metrics.inc(&format!("tenant.{tenant}.{tenant_name}"));
    }

    fn publish_gauges(&self) {
        let m = &self.metrics;
        m.set_gauge("serve.queue_depth", self.queue.len() as f64);
        m.set_gauge("serve.running", self.running.len() as f64);
        m.set_gauge("serve.free_gpus", self.free_gpus() as f64);
    }

    /// The queued jobs as the dispatch and admission policies see them.
    fn candidates(&self) -> Vec<Candidate> {
        let free = self.free_gpus();
        self.queue
            .iter()
            .map(|q| {
                let j = &self.jobs[q.id as usize - 1];
                Candidate {
                    priority: j.priority,
                    vtime: self.tenants.get(&j.tenant).map_or(0.0, |t| t.vtime),
                    seq: j.id,
                    fits: j.gpus <= free,
                }
            })
            .collect()
    }

    /// Admission control, then enqueue: the memory gate, then the queue
    /// bound, passed only by preempting a queued job of strictly lower
    /// priority. Returns the new id and whether a job was preempted.
    fn admit(
        &mut self,
        tenant: &str,
        priority: Option<Priority>,
        config: SessionConfig,
        now: Instant,
    ) -> Result<(u64, bool), SubmitError> {
        if self.shutdown {
            return Err(SubmitError::ShuttingDown);
        }
        let pool_bytes = (self.config.pool_gpus as u64 * POOL_GPU_MEM_BYTES) as f64;
        let limit = (pool_bytes * self.config.mem_headroom) as u64;
        let estimated = estimated_bytes(&config);
        if estimated > limit {
            self.count("rejected_memory", tenant, "rejected");
            return Err(SubmitError::MemoryExceeded { estimated, limit });
        }
        let priority = priority
            .or_else(|| self.tenants.get(tenant).map(|t| t.spec.priority))
            .unwrap_or(self.config.default_priority);
        let depth = self.config.max_queue;
        let preempted = self.queue.len() >= depth;
        if preempted {
            let Some(idx) = admission_victim(&self.candidates(), priority) else {
                self.count("rejected_queue", tenant, "rejected");
                return Err(SubmitError::QueueFull { depth });
            };
            let victim = self.queue.remove(idx).id;
            let error = "preempted from the queue by a higher-priority submission";
            self.settle(victim, JobState::Preempted, Some(error.into()), None, now);
        }
        if !self.tenants.contains_key(tenant) {
            // fairness: a brand-new tenant starts at the minimum live
            // vtime, not 0 — otherwise reconnecting under a fresh name
            // would jump the share queue
            let floor = self.tenants.values().map(|t| t.vtime).reduce(f64::min);
            let mut state = TenantState::new(TenantSpec {
                name: tenant.to_owned(),
                priority: self.config.default_priority,
                weight: self.config.default_weight,
            });
            state.vtime = floor.unwrap_or(0.0);
            self.tenants.insert(tenant.to_owned(), state);
        }
        let id = self.jobs.len() as u64 + 1;
        self.jobs.push(JobRecord {
            id,
            tenant: tenant.to_owned(),
            priority,
            submitted_at: now,
            state: JobState::Queued,
            gpus: config.gpus,
            dispatch_seq: None,
            wait_ms: None,
            total_ms: None,
            result: None,
            error: None,
        });
        self.queue.push(Queued { id, config });
        self.count("submitted", tenant, "submitted");
        self.publish_gauges();
        Ok((id, preempted))
    }

    /// Dequeue the next runnable job, if one fits: mark it Running and
    /// hold its GPUs.
    fn dispatch(&mut self, now: Instant) -> Option<Dispatched> {
        let idx = pick_next(&self.candidates())?;
        let Queued { id, config } = self.queue.remove(idx);
        let j = &mut self.jobs[id as usize - 1];
        j.state = JobState::Running;
        j.dispatch_seq = Some(self.next_dispatch);
        j.wait_ms = Some(ms_between(j.submitted_at, now));
        self.next_dispatch += 1;
        let claim = Running {
            gpus: j.gpus,
            canceled: false,
            hold: None,
        };
        self.running.insert(id, claim);
        self.publish_gauges();
        Some(Dispatched { id, config })
    }

    /// Cancel a job: a queued or holding one settles now, one still
    /// computing is flagged and settles when its work returns. Returns
    /// the state the client saw: Canceled for a queued job, else Running.
    fn cancel(&mut self, id: u64, now: Instant) -> Result<JobState, CancelError> {
        let state = self.job(id).ok_or(CancelError::Unknown(id))?.state.clone();
        match state {
            JobState::Queued => {
                self.queue.retain(|q| q.id != id);
                self.settle(id, JobState::Canceled, None, None, now);
                self.publish_gauges();
                Ok(JobState::Canceled)
            }
            JobState::Running => {
                match self.running.get_mut(&id) {
                    Some(r) if r.hold.is_none() => r.canceled = true,
                    _ => self.settle(id, JobState::Canceled, None, None, now),
                }
                self.publish_gauges();
                Ok(JobState::Running)
            }
            state => Err(CancelError::Terminal(id, state)),
        }
    }

    /// Settle a running job whose work returned `outcome`: Canceled when
    /// a cancel came while it computed, Failed on an error, and Done —
    /// after a hold of its makespan × `time_scale` (at most 5 s), which
    /// [`Pool::step`] ends, unless the service is shutting down.
    fn finish(&mut self, id: u64, outcome: Result<JobResult, String>, now: Instant) {
        let canceled = self.running.get(&id).is_some_and(|r| r.canceled);
        match outcome {
            _ if canceled => self.settle(id, JobState::Canceled, None, None, now),
            Err(msg) => self.settle(id, JobState::Failed, Some(msg), None, now),
            Ok(r) => {
                let secs = r.sim_elapsed_ms / 1e3 * self.config.time_scale;
                match self.running.get_mut(&id) {
                    Some(claim) if secs > 0.0 && !self.shutdown => {
                        claim.hold = Some((now + Duration::from_secs_f64(secs.min(5.0)), r));
                    }
                    _ => self.settle(id, JobState::Done, None, Some(r), now),
                }
            }
        }
        self.publish_gauges();
    }

    /// Settle Done every holding job whose deadline `due` accepts.
    /// Returns whether one settled.
    fn end_holds(&mut self, due: impl Fn(Instant) -> bool, now: Instant) -> bool {
        let ended: Vec<u64> = (self.running.iter())
            .filter(|(_, r)| r.hold.as_ref().is_some_and(|(at, _)| due(*at)))
            .map(|(id, _)| *id)
            .collect();
        for &id in &ended {
            let result = self.running.get_mut(&id).and_then(|r| r.hold.take());
            self.settle(id, JobState::Done, None, result.map(|(_, r)| r), now);
        }
        self.publish_gauges();
        !ended.is_empty()
    }

    /// The dispatcher's pass at `now`: end the holds that are due, then
    /// dispatch every queued job that fits. Returns whether a hold ended,
    /// the dispatched jobs, and the next hold deadline.
    fn step(&mut self, now: Instant) -> (bool, Vec<Dispatched>, Option<Instant>) {
        let ended = self.end_holds(|at| at <= now, now);
        let jobs = std::iter::from_fn(|| self.dispatch(now)).collect();
        let holds = self.running.values().filter_map(|r| r.hold.as_ref());
        (ended, jobs, holds.map(|(at, _)| *at).min())
    }

    /// Refuse all further submissions, cancel every queued job, which
    /// will never run, and end every hold.
    fn shutdown(&mut self, now: Instant) {
        self.shutdown = true;
        for q in std::mem::take(&mut self.queue) {
            let error = Some("service shut down".into());
            self.settle(q.id, JobState::Canceled, error, None, now);
        }
        self.end_holds(|_| true, now);
    }

    /// Move job `id` to the terminal `state`, dropping any claim it has on
    /// the pool, and count it, daemon-wide and for its tenant, so
    /// `serve.submitted == completed + failed + canceled + preempted` once
    /// nothing is queued or running. Fair share charges the tenant
    /// simulated GPU-seconds, for Done jobs only.
    fn settle(
        &mut self,
        id: u64,
        state: JobState,
        error: Option<String>,
        result: Option<JobResult>,
        now: Instant,
    ) {
        let name = match state {
            JobState::Done => "completed",
            JobState::Failed => "failed",
            JobState::Canceled => "canceled",
            JobState::Preempted => "preempted",
            JobState::Queued | JobState::Running => unreachable!("settle to a terminal state"),
        };
        self.running.remove(&id);
        let j = &mut self.jobs[id as usize - 1];
        if let (Some(r), Some(t)) = (&result, self.tenants.get_mut(&j.tenant)) {
            t.charge(r.sim_elapsed_ms / 1e3 * j.gpus as f64);
        }
        j.state = state;
        j.total_ms = Some(ms_between(j.submitted_at, now));
        j.error = error;
        j.result = result;
        let j = &self.jobs[id as usize - 1];
        self.count(name, &j.tenant, name);
        if j.result.as_ref().is_some_and(|r| r.warm) {
            self.metrics.inc(&format!("tenant.{}.warm_hits", j.tenant));
        }
    }
}

/// Milliseconds from `since` to `now`.
fn ms_between(since: Instant, now: Instant) -> f64 {
    now.duration_since(since).as_secs_f64() * 1e3
}

/// The shared heart of the daemon: the job table and pool accounting
/// behind one mutex, the plan cache (which guards itself), and a metrics
/// registry. HTTP handlers and executor threads all talk to this; each
/// call validates, runs one `Pool` method under the mutex, then
/// notifies and spawns.
pub struct Scheduling {
    config: ServeConfig,
    pool: Mutex<Pool>,
    /// Signaled whenever dispatch conditions may have changed.
    dispatch_cv: Condvar,
    /// Signaled whenever a job reaches a terminal state.
    done_cv: Condvar,
    cache: Option<DurablePlanCache>,
    metrics: Arc<MetricsRegistry>,
}

impl Scheduling {
    /// Build the shared state; opens the durable store when configured.
    pub fn new(config: ServeConfig) -> Result<Arc<Scheduling>, String> {
        let cache = match &config.store {
            Some(dir) => Some(DurablePlanCache::open(dir).map_err(|e| format!("open store: {e}"))?),
            None => None,
        };
        let metrics = Arc::new(MetricsRegistry::new());
        let pool = Pool::new(config.clone(), Arc::clone(&metrics));
        if cache.is_some() {
            for source in [PlanSource::Memory, PlanSource::Log, PlanSource::Decided] {
                metrics.set_gauge(plan_cache_gauge(source), 0.0);
            }
        }
        Ok(Arc::new(Scheduling {
            config,
            pool: Mutex::new(pool),
            dispatch_cv: Condvar::new(),
            done_cv: Condvar::new(),
            cache,
            metrics,
        }))
    }

    /// The daemon-level configuration.
    pub fn config(&self) -> &ServeConfig {
        &self.config
    }

    /// Lock the pool, recovering from a poisoned mutex (an executor
    /// panic must not wedge the whole daemon).
    fn lock_pool(&self) -> MutexGuard<'_, Pool> {
        self.pool.lock().unwrap_or_else(PoisonError::into_inner)
    }

    /// The metrics registry (`/metrics` renders its snapshot).
    pub fn metrics(&self) -> &Arc<MetricsRegistry> {
        &self.metrics
    }

    /// Submit a job: admission control, then enqueue. Returns the job id.
    pub fn submit(
        self: &Arc<Self>,
        tenant: &str,
        priority: Option<Priority>,
        config: SessionConfig,
    ) -> Result<u64, SubmitError> {
        if tenant.is_empty() {
            return Err(SubmitError::BadConfig(
                "tenant name must not be empty".into(),
            ));
        }
        config
            .validate()
            .map_err(|e| SubmitError::BadConfig(e.to_string()))?;
        if config.gpus > self.config.pool_gpus {
            return Err(SubmitError::BadConfig(format!(
                "job requests {} GPUs but the pool has {}",
                config.gpus, self.config.pool_gpus
            )));
        }
        if config.store.is_some() {
            return Err(SubmitError::BadConfig(
                "per-job 'store' is not allowed: the daemon owns the plan store".into(),
            ));
        }
        let (id, preempted) = self
            .lock_pool()
            .admit(tenant, priority, config, Instant::now())?;
        if preempted {
            self.done_cv.notify_all();
        }
        self.dispatch_cv.notify_all();
        Ok(id)
    }

    /// A copy of the job record, if the id exists.
    pub fn job(&self, id: u64) -> Option<JobRecord> {
        self.lock_pool().job(id).cloned()
    }

    /// Copies of all job records, in id order.
    pub fn jobs(&self) -> Vec<JobRecord> {
        self.lock_pool().jobs.clone()
    }

    /// Cancel a job. Queued and holding jobs cancel immediately; a job
    /// still computing cancels when its work returns. Returns Canceled
    /// for a queued job and Running for a running one.
    pub fn cancel(&self, id: u64) -> Result<JobState, CancelError> {
        let state = self.lock_pool().cancel(id, Instant::now())?;
        self.dispatch_cv.notify_all();
        self.done_cv.notify_all();
        Ok(state)
    }

    /// Wait on `done_cv` until `settled` returns a value or `timeout`
    /// elapses.
    fn wait_for<T>(&self, timeout: Duration, settled: impl Fn(&Pool) -> Option<T>) -> Option<T> {
        let deadline = Instant::now() + timeout;
        let mut pool = self.lock_pool();
        loop {
            if let Some(value) = settled(&pool) {
                return Some(value);
            }
            let now = Instant::now();
            if now >= deadline {
                return None;
            }
            pool = self
                .done_cv
                .wait_timeout(pool, deadline - now)
                .unwrap_or_else(PoisonError::into_inner)
                .0;
        }
    }

    /// Block until every submitted job is terminal, or `timeout` elapses.
    /// Returns `true` when the table drained.
    pub fn wait_idle(&self, timeout: Duration) -> bool {
        let idle = |pool: &Pool| (pool.queue.is_empty() && pool.running.is_empty()).then_some(());
        self.wait_for(timeout, idle).is_some()
    }

    /// Block until job `id` is terminal, or `timeout` elapses. Returns
    /// the final record when it settled in time.
    pub fn wait_job(&self, id: u64, timeout: Duration) -> Option<JobRecord> {
        self.wait_for(timeout, |pool| match pool.job(id) {
            None => Some(None),
            Some(j) if j.state.is_terminal() => Some(Some(j.clone())),
            Some(_) => None,
        })
        .flatten()
    }

    /// The dispatcher loop: runs until shutdown, stepping the pool
    /// whenever it changes or a hold runs out, and spawning an executor
    /// thread per dispatched job.
    pub(crate) fn dispatcher(self: &Arc<Self>) {
        let mut pool = self.lock_pool();
        while !pool.shutdown {
            let now = Instant::now();
            let (ended, jobs, next) = pool.step(now);
            if ended {
                self.done_cv.notify_all();
            }
            if jobs.is_empty() {
                // Duration::MAX waits until notified
                let wait = next.map_or(Duration::MAX, |at| at.saturating_duration_since(now));
                let woke = self.dispatch_cv.wait_timeout(pool, wait);
                pool = woke.unwrap_or_else(PoisonError::into_inner).0;
                continue;
            }
            drop(pool);
            for job in jobs {
                let shared = Arc::clone(self);
                // one detached executor thread per computing job, bounded
                // by the pool; a holding job needs none
                std::thread::spawn(move || {
                    shared.execute(job, |c| shared.run_job(c), Instant::now)
                });
            }
            pool = self.lock_pool();
        }
    }

    /// Run a dispatched job's `work` and finish the job at the time
    /// `clock` reads when the work returns. A panic in the work fails the
    /// job with the panic's text, so its GPUs are still released.
    fn execute(
        &self,
        job: Dispatched,
        work: impl FnOnce(&SessionConfig) -> Result<JobResult, String>,
        clock: impl FnOnce() -> Instant,
    ) {
        let outcome = catch_unwind(AssertUnwindSafe(|| work(&job.config))).unwrap_or_else(|e| {
            let text = (e.downcast_ref::<&str>().map(|s| s.to_string()))
                .or_else(|| e.downcast_ref::<String>().cloned());
            Err(format!("job panicked: {}", text.unwrap_or_default()))
        });
        self.lock_pool().finish(job.id, outcome, clock());
        self.dispatch_cv.notify_all();
        self.done_cv.notify_all();
    }

    /// Plan (through the shared durable cache when configured) and
    /// execute one job's config.
    fn run_job(&self, cfg: &SessionConfig) -> Result<JobResult, String> {
        let stream = cfg.stream().map_err(|e| e.to_string())?;
        let session = cfg.session(&stream).map_err(|e| e.to_string())?;
        let mut scheduler = cfg.build_scheduler().map_err(|e| e.to_string())?;
        let t_plan = Instant::now();
        let planned = match &self.cache {
            Some(cache) => session
                .plan_with_cache(cache, scheduler.as_mut(), &stream)
                .map_err(|e| e.to_string())?,
            None => session
                .plan(scheduler.as_mut(), &stream)
                .map_err(|e| e.to_string())?,
        };
        // this job's own lookup says which level answered it, however
        // many other jobs' lookups overlapped it
        let warm = planned.source() != PlanSource::Decided;
        if self.cache.is_some() {
            self.metrics
                .add_gauge(plan_cache_gauge(planned.source()), 1.0);
        }
        let plan_ms = t_plan.elapsed().as_secs_f64() * 1e3;
        // execute: the plan carries the statistics of its planning pass,
        // so this checks the plan against the stream and returns them
        let t_exec = Instant::now();
        let report = planned.execute(&stream).map_err(|e| e.to_string())?;
        let exec_ms = t_exec.elapsed().as_secs_f64() * 1e3;
        let plan = planned.plan();
        Ok(JobResult {
            scheduler: plan.scheduler.clone(),
            gflops: report.gflops(),
            sim_elapsed_ms: report.elapsed_secs() * 1e3,
            plan_stages: plan.stages.len(),
            plan_tasks: plan.total_tasks(),
            warm,
            plan_ms,
            exec_ms,
        })
    }

    /// Whether shutdown has begun.
    pub fn is_shutdown(&self) -> bool {
        self.lock_pool().shutdown
    }

    /// Flip the shutdown flag, cancel queued jobs and wake everything.
    pub(crate) fn begin_shutdown(&self) {
        self.lock_pool().shutdown(Instant::now());
        self.dispatch_cv.notify_all();
        self.done_cv.notify_all();
    }

    /// Wait for running jobs to finish (used by shutdown).
    pub(crate) fn drain_running(&self, timeout: Duration) -> bool {
        self.wait_for(timeout, |pool| pool.running.is_empty().then_some(()))
            .is_some()
    }

    /// The durable cache's `(mem_hits, log_hits, misses)` counters, when
    /// the daemon runs with a store.
    pub fn cache_stats(&self) -> Option<(u64, u64, u64)> {
        self.cache.as_ref().map(|c| {
            let stats = c.stats();
            (stats.mem_hits, stats.log_hits, stats.misses)
        })
    }
}

/// The `plan_cache.*` gauge counting the jobs `source` answered.
fn plan_cache_gauge(source: PlanSource) -> &'static str {
    match source {
        PlanSource::Memory => "plan_cache.mem_hits",
        PlanSource::Log => "plan_cache.log_hits",
        PlanSource::Decided => "plan_cache.misses",
    }
}

#[cfg(test)]
mod harness;

#[cfg(test)]
mod tests {
    use super::*;

    fn tiny_config(gpus: usize) -> SessionConfig {
        SessionConfig {
            vector_size: 6,
            tensor_size: 32,
            vectors: 2,
            gpus,
            ..SessionConfig::default()
        }
    }

    fn start(config: ServeConfig) -> Arc<Scheduling> {
        let shared = Scheduling::new(config).expect("scheduling state");
        let d = Arc::clone(&shared);
        std::thread::spawn(move || d.dispatcher());
        shared
    }

    #[test]
    fn a_job_never_waits_for_another_jobs_plan() {
        // regression: one mutex around the whole plan-cache lookup made
        // every store-backed job (and every cache_stats() call) wait for
        // whichever job was planning, however small its own plan
        let dir = std::env::temp_dir().join(format!(
            "micco-serve-parallel-{}-{:?}",
            std::process::id(),
            std::thread::current().id()
        ));
        let _ = std::fs::remove_dir_all(&dir);
        let s = start(ServeConfig {
            pool_gpus: 8,
            store: Some(dir.clone()),
            ..ServeConfig::default()
        });
        let big = SessionConfig {
            vector_size: 256,
            vectors: 160,
            tensor_size: 64,
            gpus: 4,
            ..SessionConfig::default()
        };
        let big = s.submit("t", None, big).expect("admitted");
        let t0 = Instant::now();
        while s.job(big).expect("known").state == JobState::Queued {
            assert!(t0.elapsed() < Duration::from_secs(10), "never dispatched");
            std::thread::sleep(Duration::from_millis(1));
        }
        std::thread::sleep(Duration::from_millis(50));
        let small = s.submit("t", None, tiny_config(2)).expect("admitted");
        let t_stats = Instant::now();
        assert!(s.cache_stats().is_some());
        let stats_ms = t_stats.elapsed().as_secs_f64() * 1e3;
        let small = s
            .wait_job(small, Duration::from_secs(60))
            .expect("finishes");
        let big = s.wait_job(big, Duration::from_secs(60)).expect("finishes");
        assert_eq!(
            (&small.state, &big.state),
            (&JobState::Done, &JobState::Done)
        );
        let big_plan_ms = big.result.expect("result").plan_ms;
        let small_ms = small.total_ms.expect("timed");
        assert!(
            small_ms < big_plan_ms / 4.0,
            "the small job took {small_ms:.1} ms beside a {big_plan_ms:.1} ms plan"
        );
        assert!(
            stats_ms < big_plan_ms / 4.0,
            "cache_stats() took {stats_ms:.1} ms beside a {big_plan_ms:.1} ms plan"
        );
        assert_eq!(s.cache_stats(), Some((0, 0, 2)));
        s.begin_shutdown();
        let _ = std::fs::remove_dir_all(&dir);
    }

    /// One step of the lifecycle model test, driven straight at `Pool`.
    #[derive(Debug, Clone)]
    enum Step {
        /// A submission from tenant `t{tenant}` (`t0` is declared high);
        /// a `huge` one exceeds the pool's memory.
        Admit {
            tenant: usize,
            priority: Option<Priority>,
            gpus: usize,
            huge: bool,
        },
        Dispatch,
        /// Finish the `pick`-th running job (mod their count): 0 done,
        /// 1 failed; a job canceled while running settles canceled.
        Finish {
            pick: usize,
            outcome: u8,
            sim_ms: f64,
            warm: bool,
        },
        /// Cancel any id, unknown ones included.
        Cancel(u64),
        Shutdown,
    }

    fn step() -> impl proptest::strategy::Strategy<Value = Step> {
        use proptest::prelude::*;
        (
            0u32..100,
            0usize..3,
            0usize..4,
            1usize..=8,
            0u64..24,
            0u8..2,
            any::<bool>(),
        )
            .prop_map(|(kind, tenant, p, gpus, n, outcome, warm)| match kind {
                0..=34 => Step::Admit {
                    tenant,
                    priority: [None, Some(Priority::Low), Some(Priority::Normal)]
                        .get(p)
                        .copied()
                        .unwrap_or(Some(Priority::High)),
                    gpus,
                    huge: n == 0,
                },
                35..=59 => Step::Dispatch,
                60..=79 => Step::Finish {
                    pick: n as usize,
                    outcome,
                    sim_ms: 1.0 + n as f64,
                    warm,
                },
                80..=97 => Step::Cancel(n),
                _ => Step::Shutdown,
            })
    }

    /// What a terminal record holds; it must never change again.
    type Settled = (JobState, Option<f64>, Option<String>, Option<JobResult>);

    /// Invariants that hold after every step, read from the records
    /// rather than from the pool's own bookkeeping.
    fn check_pool(
        pool: &Pool,
        settled: &mut BTreeMap<u64, Settled>,
    ) -> Result<(), proptest::test_runner::TestCaseError> {
        use proptest::prelude::*;
        let snap = pool.metrics.snapshot();
        let in_state = |tenant: Option<&str>, state: JobState| {
            pool.jobs
                .iter()
                .filter(|j| j.state == state && tenant.is_none_or(|t| j.tenant == t))
                .count() as u64
        };
        // closure, daemon-wide and per tenant
        let scopes = std::iter::once(("serve".to_owned(), None)).chain(
            pool.tenants
                .keys()
                .map(|t| (format!("tenant.{t}"), Some(t.as_str()))),
        );
        for (scope, tenant) in scopes {
            let n = |name: &str| snap.counter(&format!("{scope}.{name}"));
            prop_assert_eq!(
                n("submitted"),
                n("completed")
                    + n("failed")
                    + n("canceled")
                    + n("preempted")
                    + in_state(tenant, JobState::Queued)
                    + in_state(tenant, JobState::Running),
                "closure of {}",
                scope
            );
        }
        // gauges
        let held: usize = pool
            .jobs
            .iter()
            .filter(|j| j.state == JobState::Running)
            .map(|j| j.gpus)
            .sum();
        prop_assert_eq!(
            snap.gauge("serve.queue_depth"),
            in_state(None, JobState::Queued) as f64,
            "queue_depth gauge"
        );
        prop_assert_eq!(
            snap.gauge("serve.running"),
            in_state(None, JobState::Running) as f64,
            "running gauge"
        );
        prop_assert_eq!(
            snap.gauge("serve.free_gpus") as usize + held,
            pool.config.pool_gpus,
            "free_gpus gauge plus held GPUs"
        );
        prop_assert_eq!(
            pool.free_gpus() + held,
            pool.config.pool_gpus,
            "free plus held GPUs"
        );
        // records
        for j in &pool.jobs {
            let queued = pool.queue.iter().any(|q| q.id == j.id);
            prop_assert_eq!(j.state == JobState::Queued, queued, "job {} queued", j.id);
            let running = pool.running.contains_key(&j.id);
            prop_assert_eq!(
                j.state == JobState::Running,
                running,
                "job {} running",
                j.id
            );
            let now = (
                j.state.clone(),
                j.total_ms,
                j.error.clone(),
                j.result.clone(),
            );
            match settled.get(&j.id) {
                Some(then) => prop_assert_eq!(&now, then, "terminal job {} changed", j.id),
                None if j.state.is_terminal() => {
                    settled.insert(j.id, now);
                }
                None => {}
            }
        }
        Ok(())
    }

    proptest::proptest! {
        #![proptest_config(proptest::test_runner::ProptestConfig::with_cases(256))]

        #[test]
        fn pool_lifecycle_matches_the_model(
            pool_gpus in 1usize..=4,
            max_queue in 1usize..=4,
            steps in proptest::collection::vec(step(), 1..80),
        ) {
            use proptest::prelude::*;
            let config = ServeConfig {
                pool_gpus,
                max_queue,
                tenants: vec![TenantSpec {
                    name: "t0".into(),
                    priority: Priority::High,
                    weight: 2,
                }],
                ..ServeConfig::default()
            };
            let metrics = Arc::new(MetricsRegistry::new());
            let mut pool = Pool::new(config, Arc::clone(&metrics));
            let base = Instant::now();
            let mut settled = BTreeMap::new();
            let mut shut = false;
            for (i, step) in steps.iter().enumerate() {
                let now = base + Duration::from_millis(i as u64 + 1);
                let before = metrics.snapshot();
                let delta = |name: &str| metrics.snapshot().counter(name) - before.counter(name);
                let vtimes: BTreeMap<String, f64> =
                    pool.tenants.iter().map(|(n, t)| (n.clone(), t.vtime)).collect();
                let vtime = |j: &JobRecord| vtimes.get(&j.tenant).copied().unwrap_or(0.0);
                let queued: Vec<JobRecord> = pool
                    .queue
                    .iter()
                    .filter_map(|q| pool.job(q.id).cloned())
                    .collect();
                let mut charged = None;
                match step {
                    Step::Admit {
                        tenant,
                        priority,
                        gpus,
                        huge,
                    } => {
                        let tenant = format!("t{tenant}");
                        let config = SessionConfig {
                            gpus: (gpus - 1) % pool_gpus + 1,
                            vectors: if *huge { 4096 } else { 10 },
                            ..SessionConfig::default()
                        };
                        let incoming = priority
                            .or_else(|| pool.tenants.get(&tenant).map(|t| t.spec.priority))
                            .unwrap_or(Priority::Normal);
                        let victim = queued
                            .iter()
                            .min_by(|a, b| a.priority.cmp(&b.priority).then(b.id.cmp(&a.id)))
                            .filter(|v| queued.len() >= max_queue && v.priority < incoming)
                            .map(|v| v.id);
                        let next = pool.jobs.len() as u64 + 1;
                        let admitted = pool.admit(&tenant, *priority, config, now);
                        if shut {
                            prop_assert_eq!(admitted, Err(SubmitError::ShuttingDown));
                            prop_assert_eq!(
                                &metrics.snapshot().counters,
                                &before.counters,
                                "a refused submission moved a counter"
                            );
                        } else if *huge {
                            prop_assert!(
                                matches!(admitted, Err(SubmitError::MemoryExceeded { .. })),
                                "step {}: {:?}",
                                i,
                                admitted
                            );
                            prop_assert_eq!(delta("serve.rejected_memory"), 1);
                            prop_assert_eq!(delta(&format!("tenant.{tenant}.rejected")), 1);
                        } else if queued.len() < max_queue {
                            prop_assert_eq!(admitted, Ok((next, false)), "step {}", i);
                        } else if let Some(victim) = victim {
                            prop_assert_eq!(admitted, Ok((next, true)), "step {}", i);
                            let v = pool.job(victim).expect("victim record");
                            prop_assert_eq!(
                                &v.state,
                                &JobState::Preempted,
                                "a full queue preempts the latest-arrived job of the \
                                 lowest class, job {}",
                                victim
                            );
                            prop_assert!(v.error.as_deref().unwrap_or("").contains("preempted"));
                        } else {
                            prop_assert_eq!(
                                admitted,
                                Err(SubmitError::QueueFull { depth: max_queue }),
                                "step {}",
                                i
                            );
                            prop_assert_eq!(delta("serve.rejected_queue"), 1);
                            prop_assert_eq!(delta(&format!("tenant.{tenant}.rejected")), 1);
                        }
                    }
                    Step::Dispatch => {
                        let held: usize = pool
                            .jobs
                            .iter()
                            .filter(|j| j.state == JobState::Running)
                            .map(|j| j.gpus)
                            .sum();
                        let fitting: Vec<&JobRecord> =
                            queued.iter().filter(|j| j.gpus + held <= pool_gpus).collect();
                        let got = pool.dispatch(now).map(|d| d.id);
                        let Some(id) = got else {
                            prop_assert!(
                                fitting.is_empty(),
                                "dispatch returned nothing while job {} fits",
                                fitting[0].id
                            );
                            continue;
                        };
                        let j = pool.job(id).expect("dispatched record").clone();
                        prop_assert!(fitting.iter().any(|f| f.id == id), "job {} does not fit", id);
                        for f in &fitting {
                            prop_assert!(
                                f.priority <= j.priority,
                                "dispatch passed over fitting job {} of higher priority for {}",
                                f.id,
                                id
                            );
                        }
                        let expected = fitting
                            .iter()
                            .min_by(|a, b| {
                                b.priority
                                    .cmp(&a.priority)
                                    .then(vtime(a).total_cmp(&vtime(b)))
                                    .then(a.id.cmp(&b.id))
                            })
                            .map(|f| f.id);
                        prop_assert_eq!(got, expected, "fair share, then FIFO");
                        prop_assert_eq!(j.wait_ms, Some(ms_between(j.submitted_at, now)));
                    }
                    Step::Finish { pick, outcome, sim_ms, warm } => {
                        let running: Vec<u64> = pool
                            .jobs
                            .iter()
                            .filter(|j| j.state == JobState::Running)
                            .map(|j| j.id)
                            .collect();
                        if running.is_empty() {
                            continue;
                        }
                        let id = running[pick % running.len()];
                        let tenant = pool.job(id).expect("running record").tenant.clone();
                        let (outcome, state) = match outcome {
                            0 => (
                                Ok(JobResult {
                                    scheduler: "micco".into(),
                                    gflops: 1.0,
                                    sim_elapsed_ms: *sim_ms,
                                    plan_stages: 1,
                                    plan_tasks: 1,
                                    warm: *warm,
                                    plan_ms: 0.0,
                                    exec_ms: 0.0,
                                }),
                                JobState::Done,
                            ),
                            _ => (Err("boom".into()), JobState::Failed),
                        };
                        // a cancel acknowledged while the job ran wins
                        let state = if pool.running[&id].canceled {
                            JobState::Canceled
                        } else {
                            state
                        };
                        pool.finish(id, outcome, now);
                        prop_assert_eq!(&pool.job(id).expect("record").state, &state);
                        let warm_hit = state == JobState::Done && *warm;
                        prop_assert_eq!(
                            delta(&format!("tenant.{tenant}.warm_hits")),
                            u64::from(warm_hit)
                        );
                        if state == JobState::Done {
                            prop_assert!(
                                pool.tenants[&tenant].vtime > vtimes[&tenant],
                                "a Done job charges its tenant"
                            );
                            charged = Some(tenant);
                        }
                    }
                    Step::Cancel(id) => {
                        let state = pool.job(*id).map(|j| j.state.clone());
                        let got = pool.cancel(*id, now);
                        match state {
                            None => prop_assert_eq!(got, Err(CancelError::Unknown(*id))),
                            Some(JobState::Queued) => {
                                prop_assert_eq!(got, Ok(JobState::Canceled));
                            }
                            Some(JobState::Running) => {
                                prop_assert_eq!(got, Ok(JobState::Running));
                                prop_assert!(pool.running[id].canceled);
                            }
                            Some(state) => {
                                prop_assert_eq!(got, Err(CancelError::Terminal(*id, state)));
                            }
                        }
                    }
                    Step::Shutdown => {
                        pool.shutdown(now);
                        shut = true;
                        for q in &queued {
                            let j = pool.job(q.id).expect("record");
                            prop_assert_eq!(
                                (&j.state, j.error.as_deref()),
                                (&JobState::Canceled, Some("service shut down")),
                                "queued job {} at shutdown",
                                q.id
                            );
                        }
                    }
                }
                // fair share: vtime only grows, and only a Done job charges it
                for (tenant, &then) in &vtimes {
                    let now = pool.tenants[tenant].vtime;
                    prop_assert!(now >= then, "tenant {} vtime fell", tenant);
                    prop_assert!(
                        now == then || charged.as_deref() == Some(tenant.as_str()),
                        "tenant {} charged by {:?}",
                        tenant,
                        step
                    );
                }
                check_pool(&pool, &mut settled)
                    .map_err(|e| TestCaseError::fail(format!("after step {i} {step:?}: {e:?}")))?;
            }
        }
    }
}
