//! Conformance and caching contracts of the `SchedulePlan` IR.
//!
//! The decide/execute split is only sound if it is invisible: for every
//! scheduler, `Session::plan` + `Session::replay` must reproduce the
//! interleaved driver's assignments and per-GPU statistics **bit for
//! bit** — same placements, same simulated timings, same eviction counts.
//! The plan cache must likewise be invisible except for cost: a hit
//! serves the identical plan without invoking the scheduler at all, and
//! any mutation of the workload (cost, shape, order, structure) must miss.

use micco::gpusim::{GpuId, MachineConfig, MachineView, SimMachine};
use micco::sched::{
    execute_plan, run_schedule_on, CodaScheduler, DriverOptions, GrouteScheduler, MiccoScheduler,
    PlanCache, ReuseBounds, RoundRobinScheduler, Scheduler, Session,
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

    // Cost mutation: one task got more expensive.
    let mut costlier = base.clone();
    costlier.vectors[0].tasks[0].flops += 1;
    // Shape mutation: one input tensor grew by a byte.
    let mut fatter = base.clone();
    fatter.vectors[1].tasks[0].a.bytes += 1;
    // Order mutation: two tasks of a stage swapped.
    let mut swapped = base.clone();
    swapped.vectors[0].tasks.swap(0, 1);
    // Structure mutation: the last stage lost a task.
    let mut truncated = base.clone();
    truncated.vectors.last_mut().unwrap().tasks.pop();

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
