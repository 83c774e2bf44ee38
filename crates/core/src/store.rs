//! Durable plan cache: [`PlanCache`] with a crash-safe write-ahead log
//! behind it (`micco-store`).
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
//! request ──► memory (PlanCache) ──► log (PlanStore) ──► scheduler
//!                 mem_hits()           log_hits()         misses()
//! ```
//!
//! Log hits promote the plan into memory, so a request pays the parse
//! cost at most once per process lifetime. A fresh decision keeps the
//! simulated statistics of its planning pass beside the plan in memory; a
//! plan that reaches memory without them (promoted from the log, or
//! [`DurablePlanCache::persist`]ed) is replayed once under the first
//! request that asks for it, and the statistics are kept from then on.
//! Statistics are never written to or read from the log: the record format
//! is the plan text alone.

use std::fmt;
use std::path::Path;

use micco_gpusim::MachineConfig;
use micco_workload::TensorPairStream;

use crate::driver::{simulate, DriverOptions, ScheduleError, Scheduler};
use crate::plan::{CachedPlan, PlanCache, PlanKey, SchedulePlan};
use micco_store::{
    CompactReport, PlanStore, RecoveryReport, StoreError, StoreOptions, StoreStats, VerifyReport,
};

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

/// A [`PlanCache`] with write-through persistence to a [`PlanStore`].
///
/// Every plan decided through [`DurablePlanCache::plan_for_with_topology`]
/// (which [`crate::Session::plan_with_cache`] calls) is appended to the
/// write-ahead log before being returned; reopening the same
/// directory warm-starts the cache, so repeated runs of the same workload
/// skip the scheduler entirely (the log-hit counter proves it).
///
/// # Examples
///
/// ```
/// use micco_core::{DurablePlanCache, RoundRobinScheduler, Session};
/// use micco_gpusim::MachineConfig;
/// use micco_workload::WorkloadSpec;
///
/// let dir = std::env::temp_dir().join(format!("micco-durable-doc-{}", std::process::id()));
/// # std::fs::remove_dir_all(&dir).ok();
/// let stream = WorkloadSpec::new(8, 64).with_vectors(2).generate();
/// let session = Session::new(MachineConfig::mi100_like(2));
///
/// let mut cache = DurablePlanCache::open(&dir)?;
/// session.plan_with_cache(&mut cache, &mut RoundRobinScheduler::new(), &stream)?;
/// assert_eq!(cache.misses(), 1);
/// drop(cache);
///
/// // warm restart: served from the log, scheduler not invoked
/// let mut cache = DurablePlanCache::open(&dir)?;
/// session.plan_with_cache(&mut cache, &mut RoundRobinScheduler::new(), &stream)?;
/// assert_eq!((cache.log_hits(), cache.misses()), (1, 0));
/// # std::fs::remove_dir_all(&dir).ok();
/// # Ok::<(), micco_core::DurableError>(())
/// ```
pub struct DurablePlanCache {
    cache: PlanCache,
    store: PlanStore,
    mem_hits: u64,
    log_hits: u64,
    misses: u64,
    rejected: u64,
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
        Ok(DurablePlanCache::from_store(PlanStore::open(dir)?))
    }

    /// [`DurablePlanCache::open`] with explicit [`StoreOptions`].
    pub fn open_with(
        dir: impl AsRef<Path>,
        options: StoreOptions,
    ) -> Result<DurablePlanCache, DurableError> {
        Ok(DurablePlanCache::from_store(PlanStore::open_with(
            dir, options,
        )?))
    }

    /// Wrap an already opened [`PlanStore`].
    pub fn from_store(store: PlanStore) -> DurablePlanCache {
        DurablePlanCache {
            cache: PlanCache::new(),
            store,
            mem_hits: 0,
            log_hits: 0,
            misses: 0,
            rejected: 0,
        }
    }

    /// The plan for `(scheduler, stream, config, options, topology)` —
    /// from memory, else from the log (parsed and byte-verified), else
    /// freshly decided and durably appended before this call returns. Keys
    /// follow [`PlanCache::key_for_with_topology`]. A plan served without
    /// simulated statistics in memory (a log hit, or a persisted plan) is
    /// replayed once under this request so later hits carry them.
    pub fn plan_for_with_topology(
        &mut self,
        scheduler: &mut dyn Scheduler,
        stream: &TensorPairStream,
        config: &MachineConfig,
        options: DriverOptions,
        topology: Option<&micco_gpusim::LinkTopology>,
    ) -> Result<&SchedulePlan, DurableError> {
        self.cached_for(scheduler, stream, config, options, topology)
            .map(|cached| &cached.plan)
    }

    /// [`Self::plan_for_with_topology`] with the plan's simulated
    /// statistics: those of the planning pass on a miss, and on a hit the
    /// ones cached beside the plan — replayed once under this request
    /// when the plan reached memory without them. A replay that fails (a
    /// persisted plan that does not fit the request) caches nothing, so
    /// executing the plan surfaces the error.
    pub(crate) fn cached_for(
        &mut self,
        scheduler: &mut dyn Scheduler,
        stream: &TensorPairStream,
        config: &MachineConfig,
        options: DriverOptions,
        topology: Option<&micco_gpusim::LinkTopology>,
    ) -> Result<&CachedPlan, DurableError> {
        let fingerprint = stream.fingerprint();
        let key = PlanCache::key_for_fingerprint(fingerprint, scheduler, config, options, topology);
        if self.cache.contains(key) {
            self.mem_hits += 1;
        } else if self.promote(key) {
            self.log_hits += 1;
        } else {
            // genuine miss: decide through the inner cache (reusing its
            // arena), then write through to the log before returning
            let text = self
                .cache
                .cached_for(key, scheduler, stream, config, options, topology)?
                .plan
                .to_text();
            self.misses += 1;
            self.store.put(key.raw(), text.as_bytes())?;
        }
        let cached = self.cache.get_mut(key).expect("served or just planned");
        if cached.stats.is_none() {
            cached.stats =
                simulate(&cached.plan, stream, fingerprint, config, options, topology).ok();
        }
        Ok(cached)
    }

    /// The plan under `key` from memory or log, without ever planning.
    /// Counts as a memory/log hit; `None` never touches the counters.
    pub fn lookup(&mut self, key: PlanKey) -> Option<&SchedulePlan> {
        if self.cache.contains(key) {
            self.mem_hits += 1;
            return self.cache.get(key);
        }
        if self.promote(key) {
            self.log_hits += 1;
            return self.cache.get(key);
        }
        None
    }

    /// Durably persist an externally decided plan under `key` (e.g. a
    /// cluster node projection under a node-qualified key) and make it
    /// servable from memory.
    pub fn persist(&mut self, key: PlanKey, plan: &SchedulePlan) -> Result<(), DurableError> {
        self.store.put(key.raw(), plan.to_text().as_bytes())?;
        self.cache.insert(key, plan.clone());
        Ok(())
    }

    /// Pull `key` out of the log into memory, enforcing full byte
    /// equality: the stored text must parse *and* re-serialise to the
    /// identical bytes. Anything less is rejected (counted, never served).
    fn promote(&mut self, key: PlanKey) -> bool {
        let Some(bytes) = self.store.get(key.raw()) else {
            return false;
        };
        let Ok(text) = std::str::from_utf8(bytes) else {
            self.rejected += 1;
            return false;
        };
        let Ok(plan) = SchedulePlan::from_text(text) else {
            self.rejected += 1;
            return false;
        };
        if plan.to_text().as_bytes() != bytes {
            self.rejected += 1;
            return false;
        }
        self.cache.insert(key, plan);
        true
    }

    /// Requests served from the in-memory cache.
    pub fn mem_hits(&self) -> u64 {
        self.mem_hits
    }

    /// Requests served from the log (parse + byte-equality verified).
    pub fn log_hits(&self) -> u64 {
        self.log_hits
    }

    /// Requests that invoked the scheduler.
    pub fn misses(&self) -> u64 {
        self.misses
    }

    /// Log records rejected at serve time.
    pub fn rejected(&self) -> u64 {
        self.rejected
    }

    /// What the store's crash recovery found when this cache was opened.
    pub fn recovery(&self) -> &RecoveryReport {
        self.store.recovery()
    }

    /// Fold the log into a single snapshot fragment and GC dead files.
    ///
    /// # Errors
    ///
    /// Propagates store I/O errors.
    pub fn compact(&mut self) -> Result<CompactReport, DurableError> {
        Ok(self.store.compact()?)
    }

    /// Read-only integrity scan of the underlying store.
    ///
    /// # Errors
    ///
    /// Propagates store I/O errors.
    pub fn verify(&self) -> Result<VerifyReport, DurableError> {
        Ok(self.store.verify()?)
    }

    /// Counter snapshot plus the store's shape.
    pub fn stats(&self) -> DurableStats {
        DurableStats {
            mem_hits: self.mem_hits,
            log_hits: self.log_hits,
            misses: self.misses,
            rejected: self.rejected,
            store: self.store.stats(),
        }
    }

    /// The underlying store (read-only).
    pub fn store(&self) -> &PlanStore {
        &self.store
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::baselines::RoundRobinScheduler;
    use crate::bounds::ReuseBounds;
    use crate::micco::MiccoScheduler;
    use micco_workload::WorkloadSpec;
    use std::path::PathBuf;

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

    #[test]
    fn warm_restart_serves_from_log_without_scheduling() {
        let dir = tmp_dir("warm");
        let (stream, cfg) = fixture();
        let opts = DriverOptions::default();
        let first = {
            let mut cache = DurablePlanCache::open(&dir).unwrap();
            let plan = cache
                .plan_for_with_topology(&mut RoundRobinScheduler::new(), &stream, &cfg, opts, None)
                .unwrap()
                .clone();
            assert_eq!(
                (cache.mem_hits(), cache.log_hits(), cache.misses()),
                (0, 0, 1)
            );
            // second request in the same process: memory hit
            cache
                .plan_for_with_topology(&mut RoundRobinScheduler::new(), &stream, &cfg, opts, None)
                .unwrap();
            assert_eq!(cache.mem_hits(), 1);
            plan
        };
        // warm restart: log hit, and the replayed plan is bit-identical
        let mut cache = DurablePlanCache::open(&dir).unwrap();
        let replayed = cache
            .plan_for_with_topology(&mut RoundRobinScheduler::new(), &stream, &cfg, opts, None)
            .unwrap();
        assert_eq!(replayed.to_text(), first.to_text());
        assert_eq!(replayed.digest(), first.digest());
        assert_eq!(
            (cache.mem_hits(), cache.log_hits(), cache.misses()),
            (0, 1, 0)
        );
        // and the promotion sticks: next request is a memory hit
        cache
            .plan_for_with_topology(&mut RoundRobinScheduler::new(), &stream, &cfg, opts, None)
            .unwrap();
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
            let mut cache = DurablePlanCache::open(&dir).unwrap();
            cache
                .plan_for_with_topology(&mut RoundRobinScheduler::new(), &stream, &cfg, opts, None)
                .unwrap();
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
        let mut cache = DurablePlanCache::open(&dir).unwrap();
        let plan = cache
            .plan_for_with_topology(&mut RoundRobinScheduler::new(), &stream, &cfg, opts, None)
            .unwrap();
        assert_eq!(plan.validate(&stream), Ok(()));
        assert_eq!(cache.rejected(), 1, "non-canonical record must be rejected");
        assert_eq!(cache.misses(), 1, "and the request replanned");
        assert_eq!(cache.log_hits(), 0);
        std::fs::remove_dir_all(&dir).unwrap();
    }

    #[test]
    fn persist_and_lookup_under_node_qualified_keys() {
        let dir = tmp_dir("nodes");
        let (stream, cfg) = fixture();
        let opts = DriverOptions::default();
        let base = PlanCache::key_for_with_topology(
            &RoundRobinScheduler::new(),
            &stream,
            &cfg,
            opts,
            None,
        );
        {
            let mut cache = DurablePlanCache::open(&dir).unwrap();
            let plan = cache
                .plan_for_with_topology(&mut RoundRobinScheduler::new(), &stream, &cfg, opts, None)
                .unwrap()
                .clone();
            cache.persist(base.with_node("node0"), &plan).unwrap();
            cache.persist(base.with_node("node1"), &plan).unwrap();
        }
        let mut cache = DurablePlanCache::open(&dir).unwrap();
        assert!(cache.lookup(base.with_node("node0")).is_some());
        assert!(cache.lookup(base.with_node("node1")).is_some());
        assert!(cache.lookup(base.with_node("node2")).is_none());
        assert_eq!(cache.log_hits(), 2);
        std::fs::remove_dir_all(&dir).unwrap();
    }

    #[test]
    fn persist_over_a_decided_key_drops_the_old_plans_stats() {
        let dir = tmp_dir("persist-stats");
        let (stream, cfg) = fixture();
        let opts = DriverOptions::default();
        let key = PlanCache::key_for_with_topology(
            &RoundRobinScheduler::new(),
            &stream,
            &cfg,
            opts,
            None,
        );
        let mut cache = DurablePlanCache::open(&dir).unwrap();
        let old_stats = cache
            .cached_for(&mut RoundRobinScheduler::new(), &stream, &cfg, opts, None)
            .unwrap()
            .stats
            .clone()
            .expect("a miss carries its planning pass's stats");
        let other = crate::Session::new(cfg)
            .plan(&mut MiccoScheduler::new(ReuseBounds::new(0, 2, 0)), &stream)
            .unwrap()
            .into_plan();
        cache.persist(key, &other).unwrap();
        assert!(cache.cache.get_mut(key).unwrap().stats.is_none());
        // the next request replays the persisted plan once and keeps that
        let served = cache
            .cached_for(&mut RoundRobinScheduler::new(), &stream, &cfg, opts, None)
            .unwrap();
        assert_eq!(served.plan, other);
        let replayed = crate::Session::new(cfg).replay(&other, &stream).unwrap();
        assert_eq!(served.stats.as_ref(), Some(&replayed.stats));
        assert_ne!(served.stats.as_ref(), Some(&old_stats));
        assert_eq!((cache.misses(), cache.mem_hits()), (1, 1));
        std::fs::remove_dir_all(&dir).unwrap();
    }

    #[test]
    fn compact_keeps_every_plan_servable_and_stats_track() {
        let dir = tmp_dir("compact");
        let (stream, cfg) = fixture();
        let opts = DriverOptions::default();
        let measuring = DriverOptions::default().with_measure_overhead();
        {
            let mut cache = DurablePlanCache::open(&dir).unwrap();
            cache
                .plan_for_with_topology(&mut RoundRobinScheduler::new(), &stream, &cfg, opts, None)
                .unwrap();
            cache
                .plan_for_with_topology(
                    &mut RoundRobinScheduler::new(),
                    &stream,
                    &cfg,
                    measuring,
                    None,
                )
                .unwrap();
            let report = cache.compact().unwrap();
            assert_eq!(report.live_records, 2);
            assert!(cache.verify().unwrap().is_clean());
        }
        let mut cache = DurablePlanCache::open(&dir).unwrap();
        cache
            .plan_for_with_topology(&mut RoundRobinScheduler::new(), &stream, &cfg, opts, None)
            .unwrap();
        cache
            .plan_for_with_topology(
                &mut RoundRobinScheduler::new(),
                &stream,
                &cfg,
                measuring,
                None,
            )
            .unwrap();
        let stats = cache.stats();
        assert_eq!((stats.log_hits, stats.misses), (2, 0));
        assert_eq!(stats.store.live_records, 2);
        assert!(stats.store.snapshot.is_some());
        std::fs::remove_dir_all(&dir).unwrap();
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
