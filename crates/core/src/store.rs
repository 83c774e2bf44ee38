//! Durable plan cache: an in-memory plan map with a crash-safe
//! write-ahead log behind it (`micco-store`), shared by concurrent
//! requests.
//!
//! [`DurablePlanCache`] is the one plan cache: requests reach it through
//! [`crate::Session::plan_with_cache`], and it stores each plan under the
//! key [`crate::PlanCache::key_for_with_topology`] derives.
//!
//! The layering keeps each half simple:
//!
//! * `micco-store`'s [`PlanStore`] is payload-agnostic — bytes keyed by
//!   `u64`, with per-record CRC + digest verification, torn-tail recovery
//!   and atomic manifests;
//! * this module is the plan-aware layer: it serialises every freshly
//!   decided [`SchedulePlan`] through the log (write-through), and on a
//!   warm start serves previously planned requests from the log **without
//!   invoking the scheduler** — after parsing the stored text and
//!   re-serialising it to prove byte equality. A record that parses but
//!   does not round-trip bit-identically is rejected, never served.
//!
//! Three-level lookup, with counters distinguishing the levels:
//!
//! ```text
//! request ──► memory ──► log (PlanStore) ──► scheduler
//!           mem_hits()     log_hits()         misses()
//! ```
//!
//! Log hits promote the plan into memory, so a request pays the parse
//! cost at most once per process lifetime. A fresh decision keeps the
//! simulated statistics of its planning pass beside the plan in memory; a
//! plan that reaches memory without them (promoted from the log by
//! [`DurablePlanCache::lookup`]) is replayed once under the first request
//! that asks for it, and the statistics are kept from then on.
//! Statistics are never written to or read from the log: the record format
//! is the plan text alone.
//!
//! A request's key is built from the stream's fingerprint, which the
//! stream computes on that first call and caches. The flight's replay and
//! the served job's [`crate::Planned::execute`] validate the plan against
//! the same stream and read the cached value, so a request hashes its
//! stream once.
//!
//! # Concurrency
//!
//! One mutex guards the plan map, the log handle, the counters and the set
//! of keys in flight. It is held only to probe, to claim a key and to
//! commit — never while a scheduler runs, a plan is serialised or parsed,
//! or a simulator steps. A request with work to do for its key (decide
//! it, promote its log record, or replay a report-less entry) claims the
//! key, does the work unlocked, and locks again to append to the log and
//! insert the entry in one critical section. Requests for a claimed key
//! wait until its flight ends and probe again, so each key is decided
//! once and logged once (single-flight). A flight that fails or panics
//! releases its key, and a waiting request then does the work itself.

use std::fmt;
use std::path::Path;
use std::sync::{Arc, Condvar, Mutex, MutexGuard, PoisonError};

use micco_gpusim::{ExecStats, LinkTopology, MachineConfig};
use micco_workload::{FastIdMap, FastIdSet, TensorPairStream};

use crate::driver::{plan_in, simulate, DriverOptions, ScheduleError, Scheduler};
use crate::plan::{PlanCache, PlanKey, SchedulePlan};
use micco_store::{CompactReport, PlanStore, RecoveryReport, StoreError, StoreStats, VerifyReport};

/// Failure of a durable-cache operation: planning itself failed, or the
/// underlying store did.
#[derive(Debug)]
pub enum DurableError {
    /// The scheduler could not decide a plan.
    Plan(ScheduleError),
    /// The write-ahead log could not be read or written.
    Store(StoreError),
}

impl fmt::Display for DurableError {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        match self {
            DurableError::Plan(e) => write!(f, "planning failed: {e}"),
            DurableError::Store(e) => write!(f, "plan store failed: {e}"),
        }
    }
}

impl std::error::Error for DurableError {
    fn source(&self) -> Option<&(dyn std::error::Error + 'static)> {
        match self {
            DurableError::Plan(e) => Some(e),
            DurableError::Store(e) => Some(e),
        }
    }
}

impl From<ScheduleError> for DurableError {
    fn from(e: ScheduleError) -> Self {
        DurableError::Plan(e)
    }
}

impl From<StoreError> for DurableError {
    fn from(e: StoreError) -> Self {
        DurableError::Store(e)
    }
}

/// Counter snapshot of a [`DurablePlanCache`], including the underlying
/// store's shape.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct DurableStats {
    /// Requests served from the in-memory cache.
    pub mem_hits: u64,
    /// Requests served from the log (parsed, byte-verified, promoted).
    pub log_hits: u64,
    /// Requests that invoked the scheduler (and were written through).
    pub misses: u64,
    /// Log records rejected at serve time (unparseable or not
    /// byte-identical after a round-trip) — never served.
    pub rejected: u64,
    /// The underlying store's shape and recovery report.
    pub store: StoreStats,
}

/// Which level of a [`DurablePlanCache`] answered one request — the
/// counter that request incremented.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum PlanSource {
    /// Served from memory, including a request that waited for a
    /// concurrent request's decision of the same key to land.
    Memory,
    /// Parsed, byte-verified and promoted from the write-ahead log.
    Log,
    /// Decided by the scheduler for this request and appended to the log.
    Decided,
}

/// One [`DurablePlanCache`] entry: a plan and, when known, the statistics
/// of simulating it under the request its key describes.
pub(crate) struct CachedPlan {
    pub(crate) plan: SchedulePlan,
    pub(crate) stats: Option<ExecStats>,
}

/// The plan cache: a plan map with write-through persistence to a
/// [`PlanStore`], shared by concurrent requests.
///
/// Every plan decided through [`crate::Session::plan_with_cache`] is
/// appended to the write-ahead log before any request receives it;
/// reopening the same directory warm-starts the cache, so repeated runs of
/// the same workload skip the scheduler entirely (the log-hit counter
/// proves it). Keys come from [`PlanCache::key_for_with_topology`].
///
/// # Thread safety
///
/// The cache is `Send + Sync` and every method takes `&self`: share one
/// cache between threads by reference or behind an `Arc`, with no outer
/// lock. Its one internal mutex is held only to probe, claim a key and
/// commit, so requests for different keys decide their plans in
/// parallel. Requests for the same key are single-flight: one runs the
/// scheduler (or the log promotion, or the one replay of a report-less
/// entry) while the others wait, and they are then served the landed
/// entry as memory hits — each key is decided once and logged once. The
/// log append and the memory insert happen in the same critical section,
/// so memory and disk agree on the last writer of every key. A flight
/// that returns an error or panics releases its key; a waiting request
/// then runs the request itself.
///
/// # Examples
///
/// ```
/// use micco_core::{DurablePlanCache, PlanSource, RoundRobinScheduler, Session};
/// use micco_gpusim::MachineConfig;
/// use micco_workload::WorkloadSpec;
///
/// let dir = std::env::temp_dir().join(format!("micco-durable-doc-{}", std::process::id()));
/// # std::fs::remove_dir_all(&dir).ok();
/// let stream = WorkloadSpec::new(8, 64).with_vectors(2).generate();
/// let session = Session::new(MachineConfig::mi100_like(2));
///
/// let cache = DurablePlanCache::open(&dir)?;
/// let planned = session.plan_with_cache(&cache, &mut RoundRobinScheduler::new(), &stream)?;
/// assert_eq!((planned.source(), cache.misses()), (PlanSource::Decided, 1));
/// drop(cache);
///
/// // warm restart: served from the log, scheduler not invoked
/// let cache = DurablePlanCache::open(&dir)?;
/// let planned = session.plan_with_cache(&cache, &mut RoundRobinScheduler::new(), &stream)?;
/// assert_eq!(planned.source(), PlanSource::Log);
/// assert_eq!((cache.log_hits(), cache.misses()), (1, 0));
/// # std::fs::remove_dir_all(&dir).ok();
/// # Ok::<(), micco_core::DurableError>(())
/// ```
pub struct DurablePlanCache {
    inner: Mutex<Inner>,
    /// Notified whenever a key's flight ends, landed or not.
    landed: Condvar,
    /// What the store's recovery found at open; fixed from then on.
    recovery: RecoveryReport,
}

/// Everything the cache mutex guards.
struct Inner {
    plans: FastIdMap<u64, Arc<CachedPlan>>,
    store: PlanStore,
    /// Keys whose decision, promotion or replay runs outside the lock.
    /// Only the request holding a key's claim writes that key's entry.
    in_flight: FastIdSet<u64>,
    mem_hits: u64,
    log_hits: u64,
    misses: u64,
    rejected: u64,
}

/// What one probe under the lock settled for a key.
enum Probe<'a> {
    /// A landed entry, already counted as a memory hit.
    Hit(Arc<CachedPlan>),
    /// The caller now owns the key's flight, starting from what it found.
    Claimed(Flight<'a>, Found),
}

/// What a claimed key's flight starts from.
enum Found {
    /// A memory entry without its report, to replay.
    Unreported(Arc<CachedPlan>),
    /// The key's log record, to verify and promote.
    Logged(Vec<u8>),
    /// Neither: the scheduler decides.
    Nothing,
}

/// A claimed key. Dropping it without landing — on an error or a panic —
/// releases the key and wakes the requests waiting for it.
struct Flight<'a> {
    cache: &'a DurablePlanCache,
    key: u64,
    released: bool,
}

impl Flight<'_> {
    /// Run `commit` under the cache lock and release the key in the same
    /// critical section, then wake the waiters.
    fn land<T>(mut self, commit: impl FnOnce(&mut Inner) -> T) -> T {
        let mut inner = self.cache.lock();
        let out = commit(&mut inner);
        inner.in_flight.remove(&self.key);
        self.released = true;
        drop(inner);
        self.cache.landed.notify_all();
        out
    }
}

impl Drop for Flight<'_> {
    fn drop(&mut self) {
        if !self.released {
            self.cache.lock().in_flight.remove(&self.key);
            self.cache.landed.notify_all();
        }
    }
}

/// The plan a log record holds, when the bytes are UTF-8, parse, and
/// re-serialise to exactly the same bytes; `None` rejects the record.
fn verified(bytes: &[u8]) -> Option<SchedulePlan> {
    let plan = SchedulePlan::from_text(std::str::from_utf8(bytes).ok()?).ok()?;
    (plan.to_text().as_bytes() == bytes).then_some(plan)
}

impl DurablePlanCache {
    /// Open (creating if necessary) the durable cache backed by the store
    /// in `dir`, running the store's crash recovery. Previously persisted
    /// plans become servable immediately — they are parsed and verified
    /// lazily, on first request.
    ///
    /// # Errors
    ///
    /// Propagates the store's I/O and manifest errors; torn or corrupt
    /// records are not errors (see [`DurablePlanCache::recovery`]).
    pub fn open(dir: impl AsRef<Path>) -> Result<DurablePlanCache, DurableError> {
        let store = PlanStore::open(dir)?;
        Ok(DurablePlanCache {
            recovery: *store.recovery(),
            inner: Mutex::new(Inner {
                plans: FastIdMap::default(),
                store,
                in_flight: FastIdSet::default(),
                mem_hits: 0,
                log_hits: 0,
                misses: 0,
                rejected: 0,
            }),
            landed: Condvar::new(),
        })
    }

    /// Lock the guarded state, recovering from a poisoned mutex: every
    /// commit leaves the map, log and counters consistent before it can
    /// panic, so a panicking request must not wedge the others.
    fn lock(&self) -> MutexGuard<'_, Inner> {
        self.inner.lock().unwrap_or_else(PoisonError::into_inner)
    }

    /// The plan for `(scheduler, stream, config, options, topology)` —
    /// from memory, else from the log (parsed and byte-verified), else
    /// freshly decided and durably appended before this call returns —
    /// with its simulated statistics and the level that answered. Keys
    /// follow [`PlanCache::key_for_with_topology`]. On a miss the
    /// statistics are those of the planning pass, and on a hit the ones
    /// cached beside the plan — replayed once, by the key's flight, when
    /// the plan reached memory without them (a log hit). A replay that
    /// fails (a logged plan that does not fit the request) caches nothing,
    /// so executing the plan surfaces the error.
    pub(crate) fn cached_for(
        &self,
        scheduler: &mut dyn Scheduler,
        stream: &TensorPairStream,
        config: &MachineConfig,
        options: DriverOptions,
        topology: Option<&LinkTopology>,
    ) -> Result<(Arc<CachedPlan>, PlanSource), DurableError> {
        let key = PlanCache::key_for_with_topology(scheduler, stream, config, options, topology);
        let replay = |plan: &SchedulePlan| simulate(plan, stream, config, topology);
        let (flight, found) = match self.probe(key, true) {
            Probe::Hit(cached) => return Ok((cached, PlanSource::Memory)),
            Probe::Claimed(flight, found) => (flight, found),
        };
        match found {
            Found::Unreported(old) => {
                let cached = Arc::new(CachedPlan {
                    plan: old.plan.clone(),
                    stats: replay(&old.plan).ok(),
                });
                flight.land(|inner| {
                    inner.mem_hits += 1;
                    inner.plans.insert(key.raw(), Arc::clone(&cached));
                });
                return Ok((cached, PlanSource::Memory));
            }
            Found::Logged(bytes) => match verified(&bytes) {
                Some(plan) => {
                    let stats = replay(&plan).ok();
                    let cached = Arc::new(CachedPlan { plan, stats });
                    flight.land(|inner| {
                        inner.log_hits += 1;
                        inner.plans.insert(key.raw(), Arc::clone(&cached));
                    });
                    return Ok((cached, PlanSource::Log));
                }
                None => self.lock().rejected += 1,
            },
            Found::Nothing => {}
        }
        // genuine miss: decide, serialise, then write through to the log
        // in the critical section that publishes it
        let (plan, stats) = plan_in(scheduler, stream, config, options, topology)?;
        let text = plan.to_text();
        let cached = Arc::new(CachedPlan {
            plan,
            stats: Some(stats),
        });
        flight.land(|inner| {
            inner.misses += 1;
            inner.store.put(key.raw(), text.as_bytes())?;
            inner.plans.insert(key.raw(), Arc::clone(&cached));
            Ok::<_, DurableError>(())
        })?;
        Ok((cached, PlanSource::Decided))
    }

    /// Probe `key` under the lock, waiting out any flight of it. A memory
    /// entry is a hit, except that a `planning` caller (one that decides
    /// on a miss and needs the report) takes only an entry carrying its
    /// report. Otherwise the key is claimed for the caller, with what the
    /// cache holds for it to work from.
    fn probe(&self, key: PlanKey, planning: bool) -> Probe<'_> {
        let key = key.raw();
        let mut inner = self.lock();
        loop {
            if let Some(cached) = inner.plans.get(&key) {
                if cached.stats.is_some() || !planning {
                    let cached = Arc::clone(cached);
                    inner.mem_hits += 1;
                    return Probe::Hit(cached);
                }
            }
            if !inner.in_flight.contains(&key) {
                break;
            }
            inner = self
                .landed
                .wait(inner)
                .unwrap_or_else(PoisonError::into_inner);
        }
        let found = match (inner.plans.get(&key), inner.store.get(key)) {
            (Some(cached), _) => Found::Unreported(Arc::clone(cached)),
            (None, Some(bytes)) => Found::Logged(bytes.to_vec()),
            (None, None) => Found::Nothing,
        };
        inner.in_flight.insert(key);
        let flight = Flight {
            cache: self,
            key,
            released: false,
        };
        Probe::Claimed(flight, found)
    }

    /// The plan under `key` from memory or log, without ever planning.
    /// Counts as a memory/log hit; `None` counts nothing, except a
    /// rejected log record.
    pub fn lookup(&self, key: PlanKey) -> Option<SchedulePlan> {
        let (flight, found) = match self.probe(key, false) {
            Probe::Hit(cached) => return Some(cached.plan.clone()),
            Probe::Claimed(flight, found) => (flight, found),
        };
        let Found::Logged(bytes) = found else {
            return None;
        };
        let Some(plan) = verified(&bytes) else {
            flight.land(|inner| inner.rejected += 1);
            return None;
        };
        let cached = Arc::new(CachedPlan {
            plan: plan.clone(),
            stats: None,
        });
        flight.land(|inner| {
            inner.log_hits += 1;
            inner.plans.insert(key.raw(), cached);
        });
        Some(plan)
    }

    /// Requests served from the in-memory cache.
    pub fn mem_hits(&self) -> u64 {
        self.lock().mem_hits
    }

    /// Requests served from the log (parse + byte-equality verified).
    pub fn log_hits(&self) -> u64 {
        self.lock().log_hits
    }

    /// Requests that invoked the scheduler.
    pub fn misses(&self) -> u64 {
        self.lock().misses
    }

    /// Log records rejected at serve time.
    pub fn rejected(&self) -> u64 {
        self.lock().rejected
    }

    /// What the store's crash recovery found when this cache was opened.
    pub fn recovery(&self) -> &RecoveryReport {
        &self.recovery
    }

    /// Fold the log into a single snapshot fragment and GC dead files.
    ///
    /// # Errors
    ///
    /// Propagates store I/O errors.
    pub fn compact(&self) -> Result<CompactReport, DurableError> {
        Ok(self.lock().store.compact()?)
    }

    /// Read-only integrity scan of the underlying store.
    ///
    /// # Errors
    ///
    /// Propagates store I/O errors.
    pub fn verify(&self) -> Result<VerifyReport, DurableError> {
        Ok(self.lock().store.verify()?)
    }

    /// Counter snapshot plus the store's shape, taken in one critical
    /// section.
    pub fn stats(&self) -> DurableStats {
        let inner = self.lock();
        DurableStats {
            mem_hits: inner.mem_hits,
            log_hits: inner.log_hits,
            misses: inner.misses,
            rejected: inner.rejected,
            store: inner.store.stats(),
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::baselines::RoundRobinScheduler;
    use crate::session::Session;
    use micco_gpusim::{ExecError, GpuId, MachineView};
    use micco_workload::{ContractionTask, Vector, WorkloadSpec};
    use std::path::PathBuf;
    use std::sync::atomic::{AtomicUsize, Ordering};
    use std::sync::{mpsc, Barrier};
    use std::time::Duration;

    fn tmp_dir(name: &str) -> PathBuf {
        let dir = std::env::temp_dir().join(format!("micco-durable-{}-{name}", std::process::id()));
        let _ = std::fs::remove_dir_all(&dir);
        dir
    }

    fn fixture() -> (TensorPairStream, MachineConfig) {
        let stream = WorkloadSpec::new(8, 48)
            .with_vectors(3)
            .with_seed(7)
            .generate();
        (stream, MachineConfig::mi100_like(2))
    }

    /// The plan `cache` serves round-robin's request for `stream`.
    fn served(
        cache: &DurablePlanCache,
        stream: &TensorPairStream,
        cfg: &MachineConfig,
        opts: DriverOptions,
    ) -> SchedulePlan {
        let (cached, _) = cache
            .cached_for(&mut RoundRobinScheduler::new(), stream, cfg, opts, None)
            .unwrap();
        cached.plan.clone()
    }

    /// Runs once, in a scheduler's first `assign`: may block, panic, or
    /// return a device to place the task on instead.
    type Hook<'a> = Box<dyn FnOnce() -> Option<GpuId> + Send + 'a>;

    /// Round-robin under its own name (so its requests share round-robin's
    /// keys), with a hook in its first `assign` and a shared count of
    /// `begin_vector` calls: one per stage of every scheduler run.
    struct Hooked<'a> {
        inner: RoundRobinScheduler,
        hook: Option<Hook<'a>>,
        begun: &'a AtomicUsize,
    }

    fn hooked<'a>(
        begun: &'a AtomicUsize,
        hook: impl FnOnce() -> Option<GpuId> + Send + 'a,
    ) -> Hooked<'a> {
        Hooked {
            inner: RoundRobinScheduler::new(),
            hook: Some(Box::new(hook)),
            begun,
        }
    }

    impl Scheduler for Hooked<'_> {
        fn name(&self) -> String {
            self.inner.name()
        }

        fn write_name(&self, out: &mut dyn std::fmt::Write) -> std::fmt::Result {
            self.inner.write_name(out)
        }

        fn begin_vector(&mut self, vector: &Vector, view: &dyn MachineView) {
            self.begun.fetch_add(1, Ordering::SeqCst);
            self.inner.begin_vector(vector, view);
        }

        fn assign(&mut self, task: &ContractionTask, view: &dyn MachineView) -> GpuId {
            match self.hook.take().and_then(|hook| hook()) {
                Some(gpu) => gpu,
                None => self.inner.assign(task, view),
            }
        }
    }

    #[test]
    fn warm_restart_serves_from_log_without_scheduling() {
        let dir = tmp_dir("warm");
        let (stream, cfg) = fixture();
        let opts = DriverOptions::default();
        let first = {
            let cache = DurablePlanCache::open(&dir).unwrap();
            let plan = served(&cache, &stream, &cfg, opts);
            assert_eq!(
                (cache.mem_hits(), cache.log_hits(), cache.misses()),
                (0, 0, 1)
            );
            // second request in the same process: memory hit
            served(&cache, &stream, &cfg, opts);
            assert_eq!(cache.mem_hits(), 1);
            plan
        };
        // warm restart: log hit, and the replayed plan is bit-identical
        let cache = DurablePlanCache::open(&dir).unwrap();
        let replayed = served(&cache, &stream, &cfg, opts);
        assert_eq!(replayed.to_text(), first.to_text());
        assert_eq!(replayed.digest(), first.digest());
        assert_eq!(
            (cache.mem_hits(), cache.log_hits(), cache.misses()),
            (0, 1, 0)
        );
        // and the promotion sticks: next request is a memory hit
        served(&cache, &stream, &cfg, opts);
        assert_eq!(cache.mem_hits(), 1);
        std::fs::remove_dir_all(&dir).unwrap();
    }

    #[test]
    fn tampered_log_record_is_rejected_and_replanned() {
        let dir = tmp_dir("tamper");
        let (stream, cfg) = fixture();
        let opts = DriverOptions::default();
        let key = PlanCache::key_for_with_topology(
            &RoundRobinScheduler::new(),
            &stream,
            &cfg,
            opts,
            None,
        );
        {
            let cache = DurablePlanCache::open(&dir).unwrap();
            served(&cache, &stream, &cfg, opts);
        }
        // store a record that parses but is NOT the canonical serialisation
        // (trailing comment changes the bytes, not the parse)
        {
            let mut store = PlanStore::open(&dir).unwrap();
            let text = String::from_utf8(store.get(key.raw()).unwrap().to_vec()).unwrap();
            store
                .put(key.raw(), format!("{text}# sneaky\n").as_bytes())
                .unwrap();
        }
        let cache = DurablePlanCache::open(&dir).unwrap();
        let plan = served(&cache, &stream, &cfg, opts);
        assert_eq!(plan.validate(&stream), Ok(()));
        assert_eq!(cache.rejected(), 1, "non-canonical record must be rejected");
        assert_eq!(cache.misses(), 1, "and the request replanned");
        assert_eq!(cache.log_hits(), 0);
        std::fs::remove_dir_all(&dir).unwrap();
    }

    #[test]
    fn lookup_serves_logged_plans_without_planning() {
        let dir = tmp_dir("lookup");
        let (stream, cfg) = fixture();
        let opts = DriverOptions::default();
        let key = PlanCache::key_for_with_topology(
            &RoundRobinScheduler::new(),
            &stream,
            &cfg,
            opts,
            None,
        );
        let decided = {
            let cache = DurablePlanCache::open(&dir).unwrap();
            served(&cache, &stream, &cfg, opts)
        };
        let cache = DurablePlanCache::open(&dir).unwrap();
        assert_eq!(cache.lookup(key), Some(decided));
        assert!(cache.lookup(PlanKey::from_raw(key.raw() ^ 1)).is_none());
        assert_eq!((cache.log_hits(), cache.misses()), (1, 0));
        std::fs::remove_dir_all(&dir).unwrap();
    }

    #[test]
    fn a_looked_up_plan_is_replayed_once_for_its_stats() {
        let dir = tmp_dir("lookup-stats");
        let (stream, cfg) = fixture();
        let opts = DriverOptions::default();
        let key = PlanCache::key_for_with_topology(
            &RoundRobinScheduler::new(),
            &stream,
            &cfg,
            opts,
            None,
        );
        {
            let cache = DurablePlanCache::open(&dir).unwrap();
            served(&cache, &stream, &cfg, opts);
        }
        let cache = DurablePlanCache::open(&dir).unwrap();
        let plan = cache.lookup(key).expect("logged");
        assert!(cache.lock().plans[&key.raw()].stats.is_none());
        // the next planning request replays the promoted plan once and
        // keeps its statistics from then on
        let (served, source) = cache
            .cached_for(&mut RoundRobinScheduler::new(), &stream, &cfg, opts, None)
            .unwrap();
        assert_eq!((&served.plan, source), (&plan, PlanSource::Memory));
        let replayed = Session::new(cfg).replay(&plan, &stream).unwrap();
        assert_eq!(served.stats.as_ref(), Some(&replayed.stats));
        assert!(Arc::ptr_eq(&cache.lock().plans[&key.raw()], &served));
        let (again, _) = cache
            .cached_for(&mut RoundRobinScheduler::new(), &stream, &cfg, opts, None)
            .unwrap();
        assert!(Arc::ptr_eq(&again, &served));
        assert_eq!(
            (cache.log_hits(), cache.mem_hits(), cache.misses()),
            (1, 2, 0)
        );
        std::fs::remove_dir_all(&dir).unwrap();
    }

    #[test]
    fn measuring_request_misses_a_plan_cached_without_measurement() {
        // regression: measure_overhead was omitted from the cache key, so
        // a measuring caller was served the unmeasured plan and silently
        // reported a scheduling overhead of zero
        let dir = tmp_dir("measuring");
        let (stream, cfg) = fixture();
        let cache = DurablePlanCache::open(&dir).unwrap();
        let overhead = |measuring: bool| {
            Session::new(cfg)
                .measure_overhead(measuring)
                .plan_with_cache(&cache, &mut RoundRobinScheduler::new(), &stream)
                .unwrap()
                .plan()
                .overhead_secs
        };
        assert_eq!(overhead(false), 0.0);
        assert_eq!((cache.mem_hits(), cache.misses()), (0, 1));
        assert!(
            overhead(true) > 0.0,
            "a measuring request must plan fresh and carry a real overhead"
        );
        assert_eq!((cache.mem_hits(), cache.misses()), (0, 2));
        // both variants are now cached; repeats hit their own entry
        assert!(overhead(true) > 0.0);
        assert_eq!(overhead(false), 0.0);
        assert_eq!((cache.mem_hits(), cache.misses()), (2, 2));
        std::fs::remove_dir_all(&dir).unwrap();
    }

    #[test]
    fn compact_keeps_every_plan_servable_and_stats_track() {
        let dir = tmp_dir("compact");
        let (stream, cfg) = fixture();
        let opts = DriverOptions::default();
        let measuring = DriverOptions::default().with_measure_overhead();
        {
            let cache = DurablePlanCache::open(&dir).unwrap();
            served(&cache, &stream, &cfg, opts);
            served(&cache, &stream, &cfg, measuring);
            let report = cache.compact().unwrap();
            assert_eq!(report.live_records, 2);
            assert!(cache.verify().unwrap().is_clean());
        }
        let cache = DurablePlanCache::open(&dir).unwrap();
        served(&cache, &stream, &cfg, opts);
        served(&cache, &stream, &cfg, measuring);
        let stats = cache.stats();
        assert_eq!((stats.log_hits, stats.misses), (2, 0));
        assert_eq!(stats.store.live_records, 2);
        assert!(stats.store.snapshot.is_some());
        std::fs::remove_dir_all(&dir).unwrap();
    }

    #[test]
    fn misses_of_different_keys_plan_in_parallel() {
        fn shared<T: Send + Sync>() {}
        shared::<DurablePlanCache>();
        let dir = tmp_dir("parallel");
        let cfg = MachineConfig::mi100_like(2);
        let cache = DurablePlanCache::open(&dir).unwrap();
        let begun = AtomicUsize::new(0);
        // each scheduler blocks in its first assign until the other one
        // arrives there; with planning serialised behind one lock, neither
        // would
        let arrivals = (Mutex::new(0usize), Condvar::new());
        let rendezvous = || {
            let (count, arrived) = &arrivals;
            let mut n = count.lock().unwrap();
            *n += 1;
            arrived.notify_all();
            let (n, _) = arrived
                .wait_timeout_while(n, Duration::from_secs(10), |n| *n < 2)
                .unwrap();
            *n >= 2
        };
        let met: Vec<bool> = std::thread::scope(|s| {
            let threads: Vec<_> = [1u64, 2]
                .into_iter()
                .map(|seed| {
                    let (cache, cfg, begun, rendezvous) = (&cache, &cfg, &begun, &rendezvous);
                    s.spawn(move || {
                        let met = AtomicUsize::new(0);
                        let mut sched = hooked(begun, || {
                            met.store(usize::from(rendezvous()), Ordering::SeqCst);
                            None
                        });
                        let stream = WorkloadSpec::new(8, 48)
                            .with_vectors(3)
                            .with_seed(seed)
                            .generate();
                        Session::new(*cfg)
                            .plan_with_cache(cache, &mut sched, &stream)
                            .expect("plans");
                        met.load(Ordering::SeqCst) == 1
                    })
                })
                .collect();
            threads.into_iter().map(|t| t.join().unwrap()).collect()
        });
        assert_eq!(met, [true, true], "both schedulers ran at the same time");
        let stats = cache.stats();
        assert_eq!((stats.misses, stats.store.appended), (2, 2));
        std::fs::remove_dir_all(&dir).unwrap();
    }

    #[test]
    fn one_key_requested_at_once_is_decided_and_logged_once() {
        let dir = tmp_dir("single-flight");
        let (stream, cfg) = fixture();
        let opts = DriverOptions::default();
        let cache = DurablePlanCache::open(&dir).unwrap();
        let begun = AtomicUsize::new(0);
        let start = Barrier::new(4);
        let served: Vec<(SchedulePlan, PlanSource)> = std::thread::scope(|s| {
            let threads: Vec<_> = (0..4)
                .map(|_| {
                    s.spawn(|| {
                        // the deciding run lingers so the others arrive during it
                        let mut sched = hooked(&begun, || {
                            std::thread::sleep(Duration::from_millis(50));
                            None
                        });
                        start.wait();
                        let (cached, source) = cache
                            .cached_for(&mut sched, &stream, &cfg, opts, None)
                            .expect("served");
                        (cached.plan.clone(), source)
                    })
                })
                .collect();
            threads.into_iter().map(|t| t.join().unwrap()).collect()
        });
        assert_eq!(
            begun.load(Ordering::SeqCst),
            stream.vectors().len(),
            "exactly one scheduler run"
        );
        let stats = cache.stats();
        assert_eq!(
            (stats.misses, stats.mem_hits, stats.log_hits),
            (1, 3, 0),
            "the waiters are memory hits"
        );
        assert_eq!(stats.store.appended, 1, "exactly one WAL record");
        let decided = Session::new(cfg)
            .plan(&mut RoundRobinScheduler::new(), &stream)
            .unwrap()
            .into_plan()
            .to_text();
        for (plan, _) in &served {
            assert_eq!(plan.to_text(), decided);
        }
        let decisions = served
            .iter()
            .filter(|(_, source)| *source == PlanSource::Decided)
            .count();
        assert_eq!(decisions, 1);
        drop(cache);
        let reopened = DurablePlanCache::open(&dir).unwrap();
        assert_eq!(reopened.recovery().records_loaded, 1);
        std::fs::remove_dir_all(&dir).unwrap();
    }

    #[test]
    fn a_flight_that_fails_or_panics_releases_its_key_to_a_waiter() {
        for panics in [false, true] {
            let dir = tmp_dir(if panics {
                "flight-panic"
            } else {
                "flight-error"
            });
            let (stream, cfg) = fixture();
            let opts = DriverOptions::default();
            let cache = DurablePlanCache::open(&dir).unwrap();
            let begun = AtomicUsize::new(0);
            let (owner_in, owner_started) = mpsc::channel();
            let (waiter_in, waiter_started) = mpsc::channel();
            let (served, source) = std::thread::scope(|s| {
                let owner = s.spawn(|| {
                    let mut sched = hooked(&begun, move || {
                        owner_in.send(()).unwrap();
                        // give the waiter time to block on the claimed key
                        waiter_started
                            .recv_timeout(Duration::from_secs(10))
                            .unwrap();
                        std::thread::sleep(Duration::from_millis(50));
                        assert!(!panics, "scheduler bug");
                        Some(GpuId(99))
                    });
                    cache
                        .cached_for(&mut sched, &stream, &cfg, opts, None)
                        .map(|_| ())
                });
                owner_started.recv().unwrap();
                let waiter = s.spawn(|| {
                    waiter_in.send(()).unwrap();
                    let mut sched = hooked(&begun, || None);
                    cache.cached_for(&mut sched, &stream, &cfg, opts, None)
                });
                match owner.join() {
                    Err(_) => assert!(panics),
                    Ok(failed) => assert!(
                        matches!(
                            failed,
                            Err(DurableError::Plan(ScheduleError::Exec {
                                source: ExecError::BadGpu { .. },
                                ..
                            }))
                        ),
                        "{failed:?}"
                    ),
                }
                waiter.join().unwrap().expect("the waiter plans itself")
            });
            assert_eq!(source, PlanSource::Decided);
            let decided = Session::new(cfg)
                .plan(&mut RoundRobinScheduler::new(), &stream)
                .unwrap();
            assert_eq!(&served.plan, decided.plan());
            assert_eq!(served.stats.as_ref(), decided.simulated_stats());
            assert_eq!((cache.misses(), cache.mem_hits()), (1, 0));
            // the key is free again: later requests are served normally
            let (hit, source) = cache
                .cached_for(&mut RoundRobinScheduler::new(), &stream, &cfg, opts, None)
                .unwrap();
            assert!(Arc::ptr_eq(&hit, &served));
            assert_eq!(source, PlanSource::Memory);
            assert_eq!(cache.stats().store.appended, 1);
            std::fs::remove_dir_all(&dir).unwrap();
        }
    }

    #[test]
    fn error_displays_and_sources() {
        let e = DurableError::from(StoreError::BadManifest {
            line: 1,
            reason: "x".into(),
        });
        assert!(e.to_string().contains("plan store"));
        assert!(std::error::Error::source(&e).is_some());
    }
}
