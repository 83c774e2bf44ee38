//! Conformance and caching contracts of the `SchedulePlan` IR.
//!
//! The decide/execute split is only sound if it is invisible: for every
//! scheduler, `Session::plan` + `Session::replay` must reproduce the
//! interleaved driver's assignments and per-GPU statistics **bit for
//! bit** — same placements, same simulated timings, same eviction counts.
//! The plan cache must likewise be invisible except for cost: a hit
//! serves the identical plan without invoking the scheduler at all, and
//! any mutation of the workload (cost, shape, order, structure) must miss.
//!
//! Planning steps a simulator, so a planned run carries the statistics of
//! running its plan: those must equal a replay and the interleaved driver
//! bit for bit, whether the plan was just decided or served by the
//! durable plan cache from memory or from its log.

use proptest::prelude::*;

use micco::gpusim::{EvictionPolicy, GpuId, LinkTopology, MachineConfig, MachineView, SimMachine};
use micco::sched::{
    execute_plan, run_schedule_on, CodaScheduler, DriverOptions, DurablePlanCache, GrouteScheduler,
    MiccoScheduler, PlanCache, PlanError, PlanSource, ReuseBounds, RoundRobinScheduler,
    ScheduleError, ScheduleReport, Scheduler, Session,
};
use micco::workload::{
    ContractionTask, RepeatDistribution, TensorPairStream, Vector, WorkloadSpec,
};

/// A named factory producing fresh instances of one scheduler.
type SchedulerFactory = (&'static str, fn() -> Box<dyn Scheduler>);

/// Fresh instances of all four schedulers under test, by name.
fn scheduler_zoo() -> Vec<SchedulerFactory> {
    vec![
        ("micco", || {
            Box::new(MiccoScheduler::new(ReuseBounds::new(0, 2, 0)))
        }),
        ("groute", || Box::new(GrouteScheduler::new())),
        ("coda", || Box::new(CodaScheduler::new())),
        ("round-robin", || Box::new(RoundRobinScheduler::new())),
    ]
}

fn stream() -> TensorPairStream {
    WorkloadSpec::new(12, 96)
        .with_repeat_rate(0.6)
        .with_distribution(RepeatDistribution::Gaussian)
        .with_vectors(3)
        .with_seed(11)
        .generate()
}

/// For every scheduler: decide-then-execute equals the interleaved driver
/// in every observable — assignments and full per-GPU statistics.
#[test]
fn plan_then_execute_matches_interleaved_bit_for_bit() {
    let stream = stream();
    let cfg = MachineConfig::mi100_like(3);
    for (name, fresh) in scheduler_zoo() {
        let mut machine = SimMachine::new(cfg);
        let interleaved = run_schedule_on(&mut *fresh(), &stream, &mut machine)
            .unwrap_or_else(|e| panic!("{name}: interleaved run failed: {e}"));

        let session = Session::new(cfg);
        let plan = session
            .plan(&mut *fresh(), &stream)
            .unwrap_or_else(|e| panic!("{name}: planning failed: {e}"))
            .into_plan();
        let replayed = session
            .replay(&plan, &stream)
            .unwrap_or_else(|e| panic!("{name}: replay failed: {e}"));
        // replaying on a caller-owned machine takes the same path
        let mut machine = SimMachine::new(cfg);
        let on_machine = execute_plan(&plan, &stream, &mut machine)
            .unwrap_or_else(|e| panic!("{name}: replay failed: {e}"));
        assert_eq!(on_machine.stats, replayed.stats, "{name}");

        assert_eq!(
            interleaved.assignments, replayed.assignments,
            "{name}: placements must be identical"
        );
        // GpuStats bit-for-bit: simulated times, transfer counts, evictions.
        assert_eq!(
            interleaved.stats, replayed.stats,
            "{name}: statistics must be identical"
        );

        // The public composition takes the same path.
        let composed = Session::new(cfg).run(&mut *fresh(), &stream).expect("fits");
        assert_eq!(composed.assignments, replayed.assignments, "{name}");
        assert_eq!(composed.stats, replayed.stats, "{name}");
    }
}

/// A scheduler wrapper that counts `assign` invocations, to prove cache
/// hits never consult the scheduler.
struct Counting<S> {
    inner: S,
    assigns: usize,
}

impl<S: Scheduler> Scheduler for Counting<S> {
    fn name(&self) -> String {
        self.inner.name()
    }
    fn begin_vector(&mut self, vector: &Vector, view: &dyn MachineView) {
        self.inner.begin_vector(vector, view)
    }
    fn assign(&mut self, task: &ContractionTask, view: &dyn MachineView) -> GpuId {
        self.assigns += 1;
        self.inner.assign(task, view)
    }
    fn stage_bounds(&self) -> Option<ReuseBounds> {
        self.inner.stage_bounds()
    }
}

#[test]
fn cache_hit_serves_the_same_plan_with_zero_scheduler_invocations() {
    let stream = stream();
    let cfg = MachineConfig::mi100_like(2);
    let mut cache = PlanCache::new();
    let mut sched = Counting {
        inner: MiccoScheduler::new(ReuseBounds::new(0, 2, 0)),
        assigns: 0,
    };

    let first = cache
        .plan_for_with_topology(&mut sched, &stream, &cfg, DriverOptions::default(), None)
        .expect("fits")
        .clone();
    assert_eq!(sched.assigns, stream.total_tasks());
    assert_eq!((cache.hits(), cache.misses()), (0, 1));

    let second = cache
        .plan_for_with_topology(&mut sched, &stream, &cfg, DriverOptions::default(), None)
        .expect("cached")
        .clone();
    assert_eq!(
        sched.assigns,
        stream.total_tasks(),
        "a cache hit must not invoke the scheduler"
    );
    assert_eq!((cache.hits(), cache.misses()), (1, 1));
    assert_eq!(first, second, "hits serve the identical plan");
    assert_eq!(cache.len(), 1);
}

#[test]
fn any_stream_mutation_misses_the_cache() {
    let base = stream();
    let cfg = MachineConfig::mi100_like(2);
    let mut cache = PlanCache::new();
    let mut sched = RoundRobinScheduler::new();
    cache
        .plan_for_with_topology(&mut sched, &base, &cfg, DriverOptions::default(), None)
        .expect("fits");

    // Each mutation rebuilds the stream from a changed copy of its vectors.
    let mutate = |change: fn(&mut Vec<Vector>)| {
        let mut vectors = base.clone().into_vectors();
        change(&mut vectors);
        TensorPairStream::new(vectors)
    };
    // Cost mutation: one task got more expensive.
    let costlier = mutate(|v| v[0].tasks[0].flops += 1);
    // Shape mutation: one input tensor grew by a byte.
    let fatter = mutate(|v| v[1].tasks[0].a.bytes += 1);
    // Order mutation: two tasks of a stage swapped.
    let swapped = mutate(|v| v[0].tasks.swap(0, 1));
    // Structure mutation: the last stage lost a task.
    let truncated = mutate(|v| {
        v.last_mut().unwrap().tasks.pop();
    });

    for (label, mutated) in [
        ("flops", &costlier),
        ("bytes", &fatter),
        ("order", &swapped),
        ("length", &truncated),
    ] {
        assert_ne!(
            base.fingerprint(),
            mutated.fingerprint(),
            "{label} mutation must change the fingerprint"
        );
        cache
            .plan_for_with_topology(&mut sched, mutated, &cfg, DriverOptions::default(), None)
            .expect("fits");
    }
    assert_eq!(
        (cache.hits(), cache.misses()),
        (0, 5),
        "every mutated stream must be re-planned"
    );
    assert_eq!(cache.len(), 5);

    // Different driver options also key separately (overlap changes what
    // load-aware schedulers observe)…
    cache
        .plan_for_with_topology(
            &mut sched,
            &base,
            &cfg,
            DriverOptions::default().with_overlap(),
            None,
        )
        .expect("fits");
    assert_eq!(cache.misses(), 6);
    // …while the untouched original still hits.
    cache
        .plan_for_with_topology(&mut sched, &base, &cfg, DriverOptions::default(), None)
        .expect("cached");
    assert_eq!(cache.hits(), 1);
}

const POLICIES: [EvictionPolicy; 4] = [
    EvictionPolicy::Lru,
    EvictionPolicy::Fifo,
    EvictionPolicy::LargestFirst,
    EvictionPolicy::Clairvoyant,
];

/// Every session the one-pass property covers on 8 GPUs whose memory
/// holds about two working sets: 4 eviction policies × {flat, routed over
/// two NVLink islands, routed with topology-aware scoring} × {default,
/// overlap, overlap with a 2-task staging window}.
fn sessions(stream: &TensorPairStream) -> Vec<Session> {
    let worst = stream
        .vectors()
        .iter()
        .flat_map(|v| v.tasks.iter())
        .map(|t| t.a.bytes + t.b.bytes + t.out.bytes)
        .max()
        .unwrap_or(1);
    let topo = LinkTopology::parse("nvlink{gpus:8, island:4}").expect("valid spec");
    let option_sets = [
        DriverOptions::default(),
        DriverOptions::default().with_overlap(),
        DriverOptions::default()
            .with_overlap()
            .with_prefetch_tasks(2),
    ];
    let mut out = Vec::new();
    for policy in POLICIES {
        let cfg = MachineConfig::mi100_like(8)
            .with_mem_bytes(worst * 2 + 1)
            .with_eviction(policy);
        for opts in option_sets {
            let flat = Session::new(cfg).with_options(opts);
            out.push(flat.clone());
            out.push(flat.clone().with_topology(topo.clone()));
            out.push(flat.with_topology(topo.clone()).topology_aware(true));
        }
    }
    out
}

/// The interleaved driver on a fresh machine built like `session`'s.
fn interleaved(
    session: &Session,
    scheduler: &mut dyn Scheduler,
    stream: &TensorPairStream,
) -> Result<ScheduleReport, ScheduleError> {
    let mut machine = SimMachine::new(session.options().apply(session.config()));
    machine.set_topology(session.topology().cloned());
    scheduler.set_topology_aware(session.options().topology_aware && session.topology().is_some());
    run_schedule_on(scheduler, stream, &mut machine)
}

fn temp_store_dir(label: &str) -> std::path::PathBuf {
    let dir = std::env::temp_dir().join(format!(
        "micco-conformance-{label}-{}-{:?}",
        std::process::id(),
        std::thread::current().id()
    ));
    let _ = std::fs::remove_dir_all(&dir);
    dir
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(12))]

    /// One simulation pass per job: the statistics `Session::plan` carries
    /// equal a replay of its plan and the interleaved driver, bit for bit,
    /// for 4 schedulers × 4 eviction policies × 3 topologies × 3 option
    /// sets under oversubscribed memory; and a durable-cache miss, memory
    /// hit and (after reopening) log hit all carry that same report.
    #[test]
    fn the_planning_pass_carries_the_replayed_report(
        vector_size in 1usize..10,
        rate in 0.0f64..=1.0,
        vectors in 1usize..4,
        seed in any::<u64>(),
    ) {
        let stream = WorkloadSpec::new(vector_size, 64)
            .with_repeat_rate(rate)
            .with_distribution(RepeatDistribution::Gaussian)
            .with_vectors(vectors)
            .with_seed(seed)
            .generate();
        let dir = temp_store_dir("one-pass");
        let cache = DurablePlanCache::open(&dir).expect("store opens");
        let mut carried = Vec::new();
        for session in sessions(&stream) {
            for (_, fresh) in scheduler_zoo() {
                let reference = interleaved(&session, &mut *fresh(), &stream);
                let planned = match session.plan(&mut *fresh(), &stream) {
                    Ok(planned) => planned,
                    Err(e) => {
                        prop_assert_eq!(Err(e), reference.map(|_| ()));
                        continue;
                    }
                };
                let stats = planned.simulated_stats().expect("planning carries stats").clone();
                let replayed = session.replay(planned.plan(), &stream).expect("replays");
                let reference = reference.expect("the interleaved driver fits too");
                prop_assert_eq!(&stats, &replayed.stats);
                prop_assert_eq!(&stats, &reference.stats);
                prop_assert_eq!(&planned.plan().flat_assignments(), &replayed.assignments);
                prop_assert_eq!(&replayed.assignments, &reference.assignments);
                let executed = planned.execute(&stream).expect("executes");
                prop_assert_eq!(&executed.stats, &stats);
                prop_assert_eq!(&executed.assignments, &reference.assignments);

                // durable cache: a miss carries the planning pass's report…
                let miss = session
                    .plan_with_cache(&cache, &mut *fresh(), &stream)
                    .expect("plans");
                prop_assert_eq!(miss.plan(), planned.plan());
                prop_assert_eq!(miss.simulated_stats(), Some(&stats));
                prop_assert_eq!(miss.source(), PlanSource::Decided);
                // …and so does a memory hit
                let hit = session
                    .plan_with_cache(&cache, &mut *fresh(), &stream)
                    .expect("hits");
                prop_assert_eq!(hit.simulated_stats(), Some(&stats));
                prop_assert_eq!(hit.source(), PlanSource::Memory);
                carried.push((session.clone(), fresh, stats));
            }
        }
        let decided = carried.len() as u64;
        prop_assert_eq!((cache.misses(), cache.mem_hits()), (decided, decided));
        drop(cache);

        // reopened: every request is a log hit carrying the same report
        let cache = DurablePlanCache::open(&dir).expect("store reopens");
        for (session, fresh, stats) in &carried {
            let served = session
                .plan_with_cache(&cache, &mut *fresh(), &stream)
                .expect("log hit");
            prop_assert_eq!(served.simulated_stats(), Some(stats));
            prop_assert_eq!(served.source(), PlanSource::Log);
            prop_assert_eq!(&served.execute(&stream).expect("executes").stats, stats);
        }
        prop_assert_eq!((cache.log_hits(), cache.misses()), (decided, 0));
        let _ = std::fs::remove_dir_all(&dir);
    }
}

/// A plan decided for another stream, persisted under this stream's key,
/// is served by the cache but never executed: execution checks the plan
/// against the stream first, carried report or not.
#[test]
fn a_plan_persisted_under_the_wrong_key_fails_validation_and_returns_no_result() {
    let a = stream();
    let b = WorkloadSpec::new(12, 96)
        .with_repeat_rate(0.6)
        .with_vectors(3)
        .with_seed(12)
        .generate();
    let cfg = MachineConfig::mi100_like(2);
    let session = Session::new(cfg);
    let for_b = session
        .plan(&mut RoundRobinScheduler::new(), &b)
        .expect("fits")
        .into_plan();
    let key_a = PlanCache::key_for_with_topology(
        &RoundRobinScheduler::new(),
        &a,
        &cfg,
        *session.options(),
        None,
    );
    // a carried report never stands in for a run on another stream
    let err = session
        .plan(&mut RoundRobinScheduler::new(), &a)
        .expect("fits")
        .execute(&b)
        .expect_err("must not run");
    assert!(
        matches!(
            err,
            ScheduleError::Plan(PlanError::FingerprintMismatch { .. })
        ),
        "{err:?}"
    );
    let dir = temp_store_dir("wrong-key");
    for reopen in [false, true] {
        let cache = DurablePlanCache::open(&dir).expect("store opens");
        if !reopen {
            // a fresh decision first, so the key held a report before
            session
                .plan_with_cache(&cache, &mut RoundRobinScheduler::new(), &a)
                .expect("plans");
            cache.persist(key_a, &for_b).expect("persists");
        }
        // from memory, then (reopened) from the log
        let planned = session
            .plan_with_cache(&cache, &mut RoundRobinScheduler::new(), &a)
            .expect("served");
        assert_eq!(planned.plan(), &for_b);
        assert_eq!(
            planned.simulated_stats(),
            None,
            "no report for a misfit plan"
        );
        let err = planned.execute(&a).expect_err("must not run");
        assert!(
            matches!(
                err,
                ScheduleError::Plan(PlanError::FingerprintMismatch { .. })
            ),
            "{err:?}"
        );
    }
    let _ = std::fs::remove_dir_all(&dir);
}
