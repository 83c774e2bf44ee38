//! The scheduling service: job table, admission queue, dispatcher and
//! executor threads over one shared simulated GPU pool.
//!
//! Two scheduling levels compose here. This module decides *which job
//! runs next* (priority classes + weighted fair share, see
//! [`crate::sched`]); each dispatched job then plans its own placement
//! through the existing per-job [`micco_core::Session`] machinery —
//! hitting the shared [`micco_core::DurablePlanCache`] for warm starts.
//! Planning simulates the plan on a machine sized to the job's GPU
//! request, so executing it returns that report without a second pass
//! (jobs with injected faults replay). Running jobs hold GPUs out of the
//! shared pool; `time_scale` optionally converts simulated seconds into
//! wall-clock hold time so the pool exhibits real contention.

use std::collections::BTreeMap;
use std::path::PathBuf;
use std::sync::atomic::{AtomicBool, Ordering};
use std::sync::{Arc, Condvar, Mutex, MutexGuard, PoisonError};
use std::time::{Duration, Instant};

use micco_core::{DurablePlanCache, SessionConfig};
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
    /// Wall-clock seconds the pool stays busy per simulated second
    /// (0 = jobs release their GPUs as soon as the simulator returns).
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
    /// Dispatched; planning or executing.
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

/// One submitted job.
#[derive(Debug, Clone)]
pub struct JobRecord {
    /// Job id (monotone, unique for the daemon's lifetime).
    pub id: u64,
    /// Owning tenant.
    pub tenant: String,
    /// Priority class the job was admitted with.
    pub priority: Priority,
    /// The job's session config.
    pub config: SessionConfig,
    /// Current lifecycle state.
    pub state: JobState,
    /// GPUs the job occupies while running.
    pub gpus: usize,
    /// Admission order (fair-share FIFO tie-break).
    pub seq: u64,
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

struct Pool {
    jobs: BTreeMap<u64, JobRecord>,
    queue: Vec<u64>,
    tenants: BTreeMap<String, TenantState>,
    free_gpus: usize,
    running: usize,
    next_id: u64,
    next_seq: u64,
    next_dispatch: u64,
    shutdown: bool,
    submitted_at: BTreeMap<u64, Instant>,
    cancel_flags: BTreeMap<u64, Arc<AtomicBool>>,
}

/// The shared heart of the daemon: the job table and pool accounting
/// behind one mutex, the plan cache behind another, and a metrics
/// registry. HTTP handlers and executor threads all talk to this.
pub struct Scheduling {
    config: ServeConfig,
    pool: Mutex<Pool>,
    /// Signaled whenever dispatch conditions may have changed.
    dispatch_cv: Condvar,
    /// Signaled whenever a job reaches a terminal state.
    done_cv: Condvar,
    cache: Option<Mutex<DurablePlanCache>>,
    metrics: Arc<MetricsRegistry>,
}

impl Scheduling {
    /// Build the shared state; opens the durable store when configured.
    pub fn new(config: ServeConfig) -> Result<Arc<Scheduling>, String> {
        let cache = match &config.store {
            Some(dir) => Some(Mutex::new(
                DurablePlanCache::open(dir).map_err(|e| format!("open store: {e}"))?,
            )),
            None => None,
        };
        let mut tenants = BTreeMap::new();
        for spec in &config.tenants {
            tenants.insert(spec.name.clone(), TenantState::new(spec.clone()));
        }
        let pool = Pool {
            jobs: BTreeMap::new(),
            queue: Vec::new(),
            tenants,
            free_gpus: config.pool_gpus,
            running: 0,
            next_id: 1,
            next_seq: 0,
            next_dispatch: 0,
            shutdown: false,
            submitted_at: BTreeMap::new(),
            cancel_flags: BTreeMap::new(),
        };
        let metrics = Arc::new(MetricsRegistry::new());
        metrics.set_gauge("serve.pool_gpus", config.pool_gpus as f64);
        metrics.set_gauge("serve.free_gpus", config.pool_gpus as f64);
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

    fn tenant_metric(&self, tenant: &str, name: &str) {
        self.metrics.inc(&format!("tenant.{tenant}.{name}"));
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
        let limit = ((self.config.pool_gpus as u64 * POOL_GPU_MEM_BYTES) as f64
            * self.config.mem_headroom) as u64;
        let estimated = estimated_bytes(&config);
        if estimated > limit {
            self.metrics.inc("serve.rejected_memory");
            self.tenant_metric(tenant, "rejected");
            return Err(SubmitError::MemoryExceeded { estimated, limit });
        }

        let mut pool = self.lock_pool();
        if pool.shutdown {
            return Err(SubmitError::ShuttingDown);
        }
        let priority = priority
            .or_else(|| pool.tenants.get(tenant).map(|t| t.spec.priority))
            .unwrap_or(self.config.default_priority);
        // admission queue bound, with priority preemption of queued work
        if pool.queue.len() >= self.config.max_queue {
            let queued: Vec<Candidate> = pool
                .queue
                .iter()
                .map(|id| {
                    let j = &pool.jobs[id];
                    Candidate {
                        priority: j.priority,
                        vtime: 0.0,
                        seq: j.seq,
                        fits: true,
                    }
                })
                .collect();
            match admission_victim(&queued, priority) {
                Some(idx) => {
                    let victim = pool.queue.remove(idx);
                    let now = Instant::now();
                    let submitted = pool.submitted_at.get(&victim).copied();
                    if let Some(j) = pool.jobs.get_mut(&victim) {
                        j.state = JobState::Preempted;
                        j.error =
                            Some("preempted from the queue by a higher-priority submission".into());
                        j.total_ms = submitted.map(|t| now.duration_since(t).as_secs_f64() * 1e3);
                        self.metrics.inc("serve.preempted");
                        self.tenant_metric(&j.tenant.clone(), "preempted");
                    }
                    self.done_cv.notify_all();
                }
                None => {
                    drop(pool);
                    self.metrics.inc("serve.rejected_queue");
                    self.tenant_metric(tenant, "rejected");
                    return Err(SubmitError::QueueFull {
                        depth: self.config.max_queue,
                    });
                }
            }
        }
        // admit
        let id = pool.next_id;
        pool.next_id += 1;
        let seq = pool.next_seq;
        pool.next_seq += 1;
        if !pool.tenants.contains_key(tenant) {
            let mut spec = TenantSpec::new(tenant);
            spec.priority = self.config.default_priority;
            spec.weight = self.config.default_weight;
            // fairness: a brand-new tenant starts at the minimum live
            // vtime, not 0 — otherwise reconnecting under a fresh name
            // would jump the share queue
            let floor = pool
                .tenants
                .values()
                .map(|t| t.vtime)
                .fold(f64::INFINITY, f64::min);
            let mut state = TenantState::new(spec);
            if floor.is_finite() {
                state.vtime = floor;
            }
            pool.tenants.insert(tenant.to_owned(), state);
        }
        let gpus = config.gpus;
        pool.jobs.insert(
            id,
            JobRecord {
                id,
                tenant: tenant.to_owned(),
                priority,
                config,
                state: JobState::Queued,
                gpus,
                seq,
                dispatch_seq: None,
                wait_ms: None,
                total_ms: None,
                result: None,
                error: None,
            },
        );
        pool.queue.push(id);
        pool.submitted_at.insert(id, Instant::now());
        pool.cancel_flags
            .insert(id, Arc::new(AtomicBool::new(false)));
        self.metrics.inc("serve.submitted");
        self.tenant_metric(tenant, "submitted");
        self.metrics
            .set_gauge("serve.queue_depth", pool.queue.len() as f64);
        drop(pool);
        self.dispatch_cv.notify_all();
        Ok(id)
    }

    /// A copy of the job record, if the id exists.
    pub fn job(&self, id: u64) -> Option<JobRecord> {
        self.lock_pool().jobs.get(&id).cloned()
    }

    /// Copies of all job records, in id order.
    pub fn jobs(&self) -> Vec<JobRecord> {
        self.lock_pool().jobs.values().cloned().collect()
    }

    /// Cancel a job. Queued jobs cancel immediately; running jobs are
    /// flagged and cancel at the next phase boundary. Returns the state
    /// after the call, or `Err` when the id is unknown or already
    /// terminal.
    pub fn cancel(&self, id: u64) -> Result<JobState, String> {
        let mut pool = self.lock_pool();
        let (state, tenant) = match pool.jobs.get(&id) {
            Some(job) => (job.state.clone(), job.tenant.clone()),
            None => return Err(format!("unknown job {id}")),
        };
        match state {
            JobState::Queued => {
                pool.queue.retain(|&q| q != id);
                let now = Instant::now();
                let submitted = pool.submitted_at.get(&id).copied();
                if let Some(j) = pool.jobs.get_mut(&id) {
                    j.state = JobState::Canceled;
                    j.total_ms = submitted.map(|t| now.duration_since(t).as_secs_f64() * 1e3);
                }
                self.metrics.inc("serve.canceled");
                self.tenant_metric(&tenant, "canceled");
                self.metrics
                    .set_gauge("serve.queue_depth", pool.queue.len() as f64);
                self.done_cv.notify_all();
                Ok(JobState::Canceled)
            }
            JobState::Running => {
                if let Some(flag) = pool.cancel_flags.get(&id) {
                    flag.store(true, Ordering::SeqCst);
                }
                Ok(JobState::Running)
            }
            terminal => Err(format!("job {id} is already {}", terminal.as_str())),
        }
    }

    /// Block until every submitted job is terminal, or `timeout` elapses.
    /// Returns `true` when the table drained.
    pub fn wait_idle(&self, timeout: Duration) -> bool {
        let deadline = Instant::now() + timeout;
        let mut pool = self.lock_pool();
        loop {
            let busy = pool.jobs.values().any(|j| !j.state.is_terminal());
            if !busy {
                return true;
            }
            let now = Instant::now();
            if now >= deadline {
                return false;
            }
            pool = self
                .done_cv
                .wait_timeout(pool, deadline - now)
                .unwrap_or_else(PoisonError::into_inner)
                .0;
        }
    }

    /// Block until job `id` is terminal, or `timeout` elapses. Returns
    /// the final record when it settled in time.
    pub fn wait_job(&self, id: u64, timeout: Duration) -> Option<JobRecord> {
        let deadline = Instant::now() + timeout;
        let mut pool = self.lock_pool();
        loop {
            match pool.jobs.get(&id) {
                None => return None,
                Some(j) if j.state.is_terminal() => return Some(j.clone()),
                Some(_) => {}
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

    /// The dispatcher loop: runs until shutdown, picking jobs off the
    /// admission queue whenever pool resources allow and spawning an
    /// executor thread per dispatched job.
    pub(crate) fn dispatcher(self: &Arc<Self>) {
        loop {
            let dispatched = {
                let mut pool = self.lock_pool();
                if pool.shutdown {
                    return;
                }
                match self.try_dispatch(&mut pool) {
                    Some(job) => Some(job),
                    None => {
                        drop(
                            self.dispatch_cv
                                .wait(pool)
                                .unwrap_or_else(PoisonError::into_inner),
                        );
                        None
                    }
                }
            };
            if let Some(job) = dispatched {
                let shared = Arc::clone(self);
                // one detached executor thread per running job; bounded
                // by the pool (a job dispatches only when GPUs free up)
                std::thread::spawn(move || shared.execute_job(job));
            }
        }
    }

    /// Pick and dequeue the next runnable job under the lock; marks it
    /// Running and reserves its GPUs.
    fn try_dispatch(&self, pool: &mut Pool) -> Option<JobRecord> {
        let candidates: Vec<Candidate> = pool
            .queue
            .iter()
            .map(|id| {
                let j = &pool.jobs[id];
                Candidate {
                    priority: j.priority,
                    vtime: pool.tenants.get(&j.tenant).map(|t| t.vtime).unwrap_or(0.0),
                    seq: j.seq,
                    fits: j.gpus <= pool.free_gpus,
                }
            })
            .collect();
        let idx = pick_next(&candidates)?;
        let id = pool.queue.remove(idx);
        let dispatch_seq = pool.next_dispatch;
        pool.next_dispatch += 1;
        let now = Instant::now();
        let submitted = pool.submitted_at.get(&id).copied();
        let job = {
            let j = pool.jobs.get_mut(&id)?;
            j.state = JobState::Running;
            j.dispatch_seq = Some(dispatch_seq);
            j.wait_ms = submitted.map(|t| now.duration_since(t).as_secs_f64() * 1e3);
            j.clone()
        };
        pool.free_gpus -= job.gpus;
        pool.running += 1;
        self.metrics
            .set_gauge("serve.free_gpus", pool.free_gpus as f64);
        self.metrics.set_gauge("serve.running", pool.running as f64);
        self.metrics
            .set_gauge("serve.queue_depth", pool.queue.len() as f64);
        Some(job)
    }

    /// Run one dispatched job end to end: plan (through the shared
    /// durable cache when configured), execute on a fresh simulator,
    /// optionally hold the GPUs for scaled wall time, then release.
    fn execute_job(self: &Arc<Self>, job: JobRecord) {
        let cancel = self
            .lock_pool()
            .cancel_flags
            .get(&job.id)
            .cloned()
            .unwrap_or_else(|| Arc::new(AtomicBool::new(false)));
        let outcome = self.run_job(&job, &cancel);
        let mut pool = self.lock_pool();
        pool.free_gpus += job.gpus;
        pool.running -= 1;
        let now = Instant::now();
        let submitted = pool.submitted_at.get(&job.id).copied();
        // fair share: charge simulated GPU-seconds to the tenant
        if let RunOutcome::Done(result) = &outcome {
            if let Some(t) = pool.tenants.get_mut(&job.tenant) {
                t.charge(result.sim_elapsed_ms / 1e3 * job.gpus as f64);
            }
        }
        if let Some(j) = pool.jobs.get_mut(&job.id) {
            j.total_ms = submitted.map(|t| now.duration_since(t).as_secs_f64() * 1e3);
            match outcome {
                RunOutcome::Done(result) => {
                    if result.warm {
                        self.tenant_metric(&job.tenant, "warm_hits");
                    }
                    j.state = JobState::Done;
                    j.result = Some(result);
                    self.metrics.inc("serve.completed");
                    self.tenant_metric(&job.tenant, "completed");
                }
                RunOutcome::Failed(msg) => {
                    j.state = JobState::Failed;
                    j.error = Some(msg);
                    self.metrics.inc("serve.failed");
                    self.tenant_metric(&job.tenant, "failed");
                }
                RunOutcome::Canceled => {
                    j.state = JobState::Canceled;
                    self.metrics.inc("serve.canceled");
                    self.tenant_metric(&job.tenant, "canceled");
                }
            }
        }
        self.metrics
            .set_gauge("serve.free_gpus", pool.free_gpus as f64);
        self.metrics.set_gauge("serve.running", pool.running as f64);
        drop(pool);
        self.dispatch_cv.notify_all();
        self.done_cv.notify_all();
    }

    /// Plan + execute, honouring the cancel flag at phase boundaries.
    fn run_job(&self, job: &JobRecord, cancel: &AtomicBool) -> RunOutcome {
        if cancel.load(Ordering::SeqCst) {
            return RunOutcome::Canceled;
        }
        let cfg = &job.config;
        let stream = match cfg.stream() {
            Ok(s) => s,
            Err(e) => return RunOutcome::Failed(e.to_string()),
        };
        let session = match cfg.session(&stream) {
            Ok(s) => s,
            Err(e) => return RunOutcome::Failed(e.to_string()),
        };
        let mut scheduler = match cfg.build_scheduler() {
            Ok(s) => s,
            Err(e) => return RunOutcome::Failed(e.to_string()),
        };
        // decide (through the shared durable cache when the daemon has one)
        let t_plan = Instant::now();
        let (planned, warm) = match &self.cache {
            Some(cache) => {
                let mut cache = cache.lock().unwrap_or_else(PoisonError::into_inner);
                let before = cache.mem_hits() + cache.log_hits();
                let planned = session.plan_with_cache(&mut cache, scheduler.as_mut(), &stream);
                let warm = cache.mem_hits() + cache.log_hits() > before;
                // refreshed under the cache lock this job already holds:
                // a finishing job must never wait for the cache mutex
                // while it holds the pool lock
                self.metrics
                    .set_gauge("plan_cache.mem_hits", cache.mem_hits() as f64);
                self.metrics
                    .set_gauge("plan_cache.log_hits", cache.log_hits() as f64);
                self.metrics
                    .set_gauge("plan_cache.misses", cache.misses() as f64);
                drop(cache);
                match planned {
                    Ok(p) => (p, warm),
                    Err(e) => return RunOutcome::Failed(e.to_string()),
                }
            }
            None => match session.plan(scheduler.as_mut(), &stream) {
                Ok(p) => (p, false),
                Err(e) => return RunOutcome::Failed(e.to_string()),
            },
        };
        let plan_ms = t_plan.elapsed().as_secs_f64() * 1e3;
        if cancel.load(Ordering::SeqCst) {
            return RunOutcome::Canceled;
        }
        // execute: the plan carries the statistics of its planning pass,
        // so this checks the plan against the stream and returns them
        let t_exec = Instant::now();
        let report = match planned.execute(&stream) {
            Ok(r) => r,
            Err(e) => return RunOutcome::Failed(e.to_string()),
        };
        let exec_ms = t_exec.elapsed().as_secs_f64() * 1e3;
        // hold the pool for scaled simulated time, checking the cancel
        // flag so a cancel releases the GPUs promptly
        if self.config.time_scale > 0.0 {
            let hold =
                Duration::from_secs_f64((report.elapsed_secs() * self.config.time_scale).min(5.0));
            let step = Duration::from_millis(2);
            let t0 = Instant::now();
            while t0.elapsed() < hold {
                if cancel.load(Ordering::SeqCst) {
                    return RunOutcome::Canceled;
                }
                std::thread::sleep(step.min(hold - t0.elapsed()));
            }
        }
        let plan = planned.plan();
        RunOutcome::Done(JobResult {
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

    /// Flip the shutdown flag and wake everything.
    pub(crate) fn begin_shutdown(&self) {
        let mut pool = self.lock_pool();
        pool.shutdown = true;
        // queued jobs will never run: cancel them
        let queued: Vec<u64> = pool.queue.drain(..).collect();
        let now = Instant::now();
        for id in queued {
            let submitted = pool.submitted_at.get(&id).copied();
            if let Some(j) = pool.jobs.get_mut(&id) {
                j.state = JobState::Canceled;
                j.error = Some("service shut down".into());
                j.total_ms = submitted.map(|t| now.duration_since(t).as_secs_f64() * 1e3);
            }
        }
        drop(pool);
        self.dispatch_cv.notify_all();
        self.done_cv.notify_all();
    }

    /// Wait for running jobs to finish (used by shutdown).
    pub(crate) fn drain_running(&self, timeout: Duration) -> bool {
        let deadline = Instant::now() + timeout;
        let mut pool = self.lock_pool();
        while pool.running > 0 {
            let now = Instant::now();
            if now >= deadline {
                return false;
            }
            pool = self
                .done_cv
                .wait_timeout(pool, deadline - now)
                .unwrap_or_else(PoisonError::into_inner)
                .0;
        }
        true
    }

    /// The durable cache's `(mem_hits, log_hits, misses)` counters, when
    /// the daemon runs with a store.
    pub fn cache_stats(&self) -> Option<(u64, u64, u64)> {
        self.cache.as_ref().map(|c| {
            let c = c.lock().unwrap_or_else(PoisonError::into_inner);
            (c.mem_hits(), c.log_hits(), c.misses())
        })
    }
}

/// How one dispatched job ended.
enum RunOutcome {
    Done(JobResult),
    Failed(String),
    Canceled,
}

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
    fn submit_runs_to_done_and_counts_metrics() {
        let s = start(ServeConfig {
            pool_gpus: 2,
            ..ServeConfig::default()
        });
        let id = s.submit("acme", None, tiny_config(2)).expect("admitted");
        let job = s.wait_job(id, Duration::from_secs(30)).expect("finishes");
        assert_eq!(job.state, JobState::Done);
        let r = job.result.expect("result");
        assert!(r.gflops > 0.0);
        assert!(r.plan_tasks > 0);
        assert!(!r.warm, "no store configured");
        let snap = s.metrics().snapshot();
        assert_eq!(snap.counter("serve.submitted"), 1);
        assert_eq!(snap.counter("serve.completed"), 1);
        assert_eq!(snap.counter("tenant.acme.submitted"), 1);
        assert_eq!(snap.counter("tenant.acme.completed"), 1);
        s.begin_shutdown();
    }

    #[test]
    fn oversized_requests_are_rejected() {
        let s = start(ServeConfig {
            pool_gpus: 2,
            ..ServeConfig::default()
        });
        // more GPUs than the pool
        let err = s.submit("acme", None, tiny_config(4)).unwrap_err();
        assert_eq!(err.status(), 400);
        // a working set beyond the memory headroom
        let mut big = tiny_config(2);
        big.tensor_size = 1 << 14;
        big.vector_size = 512;
        big.vectors = 64;
        let err = s.submit("acme", None, big).unwrap_err();
        assert_eq!(err.status(), 413);
        // empty tenant
        let err = s.submit("", None, tiny_config(1)).unwrap_err();
        assert_eq!(err.status(), 400);
        s.begin_shutdown();
    }

    #[test]
    fn topology_gpu_mismatch_is_a_bad_request_and_the_pool_stays_whole() {
        // admitted, such a job would panic its planning thread and never
        // hand its GPUs back
        let s = start(ServeConfig {
            pool_gpus: 8,
            ..ServeConfig::default()
        });
        let mismatched = SessionConfig {
            topology: Some("nvlink{gpus:8, island:4}".into()),
            ..tiny_config(4)
        };
        let err = s.submit("acme", None, mismatched).unwrap_err();
        assert_eq!(err.status(), 400);
        assert!(err.to_string().contains("topology"), "{err}");
        let snap = s.metrics().snapshot();
        assert_eq!(snap.counter("serve.submitted"), 0);
        assert_eq!(snap.gauge("serve.free_gpus"), 8.0);
        // the pool still serves a well-formed job on every device
        let ok = SessionConfig {
            topology: Some("nvlink{gpus:8, island:4}".into()),
            ..tiny_config(8)
        };
        let id = s.submit("acme", None, ok).expect("admitted");
        let job = s.wait_job(id, Duration::from_secs(30)).expect("finishes");
        assert_eq!(job.state, JobState::Done);
        assert!(s.wait_idle(Duration::from_secs(30)));
        assert_eq!(s.metrics().snapshot().gauge("serve.free_gpus"), 8.0);
        s.begin_shutdown();
    }

    #[test]
    fn warm_start_through_the_shared_store() {
        let dir = std::env::temp_dir().join(format!(
            "micco-serve-store-{}-{:?}",
            std::process::id(),
            std::thread::current().id()
        ));
        let _ = std::fs::remove_dir_all(&dir);
        let s = start(ServeConfig {
            pool_gpus: 2,
            store: Some(dir.clone()),
            ..ServeConfig::default()
        });
        let cold = s.submit("t", None, tiny_config(2)).unwrap();
        let cold = s.wait_job(cold, Duration::from_secs(30)).unwrap();
        assert!(!cold.result.as_ref().unwrap().warm, "first plan is a miss");
        let warm = s.submit("t", None, tiny_config(2)).unwrap();
        let warm = s.wait_job(warm, Duration::from_secs(30)).unwrap();
        assert!(warm.result.as_ref().unwrap().warm, "second plan is served");
        s.begin_shutdown();

        // a restarted daemon over the same dir serves from the log
        let s2 = start(ServeConfig {
            pool_gpus: 2,
            store: Some(dir.clone()),
            ..ServeConfig::default()
        });
        let restart = s2.submit("t", None, tiny_config(2)).unwrap();
        let restart = s2.wait_job(restart, Duration::from_secs(30)).unwrap();
        assert!(
            restart.result.as_ref().unwrap().warm,
            "warm restart serves the logged plan without re-planning"
        );
        let (_, log_hits, misses) = s2.cache_stats().unwrap();
        assert_eq!((log_hits, misses), (1, 0));
        s2.begin_shutdown();
        let _ = std::fs::remove_dir_all(&dir);
    }

    #[test]
    fn a_finishing_job_never_waits_for_the_plan_cache_mutex() {
        // regression: the plan-cache gauges were refreshed when a job
        // finished, under the pool lock, so a job finishing while another
        // thread planned stalled every submit, wait and dispatch until the
        // cache mutex came free
        let dir = std::env::temp_dir().join(format!(
            "micco-serve-gauges-{}-{:?}",
            std::process::id(),
            std::thread::current().id()
        ));
        let _ = std::fs::remove_dir_all(&dir);
        let sim_secs = tiny_config(2).run().expect("runs").elapsed_secs();
        let s = start(ServeConfig {
            pool_gpus: 2,
            store: Some(dir.clone()),
            // the job holds its GPUs for ~300 ms after planning
            time_scale: 0.3 / sim_secs,
            ..ServeConfig::default()
        });
        let id = s.submit("t", None, tiny_config(2)).expect("admitted");
        let t0 = Instant::now();
        while s.cache_stats() != Some((0, 0, 1)) {
            assert!(t0.elapsed() < Duration::from_secs(10), "never planned");
            std::thread::sleep(Duration::from_millis(1));
        }
        // the job has planned: a helper takes the cache mutex and keeps it
        // until told to let go, or for 10 s
        let (let_go, told) = std::sync::mpsc::channel::<()>();
        let (locked, is_locked) = std::sync::mpsc::channel::<()>();
        let released = Arc::new(AtomicBool::new(false));
        let helper = {
            let s = Arc::clone(&s);
            let released = Arc::clone(&released);
            std::thread::spawn(move || {
                let cache = s.cache.as_ref().expect("store-backed").lock();
                let cache = cache.unwrap_or_else(PoisonError::into_inner);
                locked.send(()).expect("test waits");
                let _ = told.recv_timeout(Duration::from_secs(10));
                released.store(true, Ordering::SeqCst);
                drop(cache);
            })
        };
        is_locked.recv().expect("helper locks");
        let job = s.wait_job(id, Duration::from_secs(30)).expect("finishes");
        let still_held = !released.load(Ordering::SeqCst);
        let _ = let_go.send(());
        helper.join().expect("helper exits");
        assert_eq!(job.state, JobState::Done);
        assert!(
            still_held,
            "the job finished only after the helper let go of the cache mutex"
        );
        s.begin_shutdown();
        let _ = std::fs::remove_dir_all(&dir);
    }

    #[test]
    fn cancel_semantics() {
        // pool of 1 so a long hold keeps later jobs queued
        let s = start(ServeConfig {
            pool_gpus: 1,
            time_scale: 50.0,
            ..ServeConfig::default()
        });
        let running = s.submit("t", None, tiny_config(1)).unwrap();
        // wait until it actually dispatches
        let t0 = Instant::now();
        while s.job(running).unwrap().state == JobState::Queued {
            assert!(t0.elapsed() < Duration::from_secs(10), "never dispatched");
            std::thread::sleep(Duration::from_millis(2));
        }
        let queued = s.submit("t", None, tiny_config(1)).unwrap();
        assert_eq!(s.job(queued).unwrap().state, JobState::Queued);
        // queued cancels immediately
        assert_eq!(s.cancel(queued), Ok(JobState::Canceled));
        assert_eq!(s.job(queued).unwrap().state, JobState::Canceled);
        // canceling again is an error
        assert!(s.cancel(queued).is_err());
        // running cancels at the next checkpoint
        assert_eq!(s.cancel(running), Ok(JobState::Running));
        let done = s.wait_job(running, Duration::from_secs(30)).unwrap();
        assert_eq!(done.state, JobState::Canceled);
        // unknown id
        assert!(s.cancel(9999).is_err());
        s.begin_shutdown();
    }
}
