//! Equivalence tests for the fast planner (interned IDs, SoA machine state,
//! a per-symbol residency index) against the retained slow reference path
//! (`plan_schedule_seed`, a frozen copy of the seed planner's map-based
//! machine).
//!
//! The contract is strict: for the same scheduler, stream, and machine
//! config, the fast path must produce a **byte-identical** serialized plan
//! and an equal content digest — across all four schedulers, every eviction
//! policy, oversubscribed memory, degenerate streams, and streams whose
//! tensor ids are sparse rather than the generator's dense runs.

use std::collections::{HashMap, HashSet};

use proptest::prelude::*;

use micco::gpusim::{EvictionPolicy, GpuId, MachineConfig, MachineView, SimMachine};
use micco::sched::{
    plan_schedule_seed, CodaScheduler, GrouteScheduler, MiccoScheduler, Planned, ReuseBounds,
    RoundRobinScheduler, Scheduler, Session,
};
use micco::tensor::ContractionKind;
use micco::workload::{
    ContractionTask, RepeatDistribution, TaskId, TensorId, TensorPairStream, Vector, WorkloadSpec,
    OUTPUT_ID_BASE,
};

/// Strategy: a modest random workload (same shape as plan_properties.rs).
fn spec_strategy() -> impl Strategy<Value = WorkloadSpec> {
    (
        1usize..12,   // vector size (pairs per stage)
        0.0f64..=1.0, // repeat rate
        any::<bool>(),
        1usize..4, // vectors (stages)
        any::<u64>(),
    )
        .prop_map(|(vs, rate, gaussian, nv, seed)| {
            WorkloadSpec::new(vs, 64)
                .with_repeat_rate(rate)
                .with_distribution(if gaussian {
                    RepeatDistribution::Gaussian
                } else {
                    RepeatDistribution::Uniform
                })
                .with_vectors(nv)
                .with_seed(seed)
        })
}

/// One of the four schedulers, with per-case bounds for MICCO.
fn scheduler_for(which: usize, bounds: (u8, u8, u8)) -> Box<dyn Scheduler> {
    match which {
        0 => Box::new(MiccoScheduler::new(ReuseBounds::new(
            bounds.0 as usize,
            bounds.1 as usize,
            bounds.2 as usize,
        ))),
        1 => Box::new(GrouteScheduler::new()),
        2 => Box::new(CodaScheduler::new()),
        _ => Box::new(RoundRobinScheduler::new()),
    }
}

fn policy_for(which: usize) -> EvictionPolicy {
    match which {
        0 => EvictionPolicy::Lru,
        1 => EvictionPolicy::Fifo,
        2 => EvictionPolicy::LargestFirst,
        _ => EvictionPolicy::Clairvoyant,
    }
}

/// Plan the same stream with a fresh scheduler on both paths and demand
/// identical outcomes: byte-identical text, equal digests, or the same
/// typed error.
fn assert_paths_agree(
    which: usize,
    bounds: (u8, u8, u8),
    stream: &TensorPairStream,
    cfg: &MachineConfig,
) {
    // Fresh scheduler per path: both start from the same RNG seed, so a
    // divergence can only come from the machine model underneath.
    let mut fast_sched = scheduler_for(which, bounds);
    let mut slow_sched = scheduler_for(which, bounds);
    // no overhead timing: both emit 0.0
    let fast = Session::new(*cfg)
        .plan(&mut *fast_sched, stream)
        .map(Planned::into_plan);
    let slow = plan_schedule_seed(&mut *slow_sched, stream, cfg);
    // Collapse Ok plans to their serialized bytes and Err to the debug
    // repr: one comparison covers "same outcome" in every combination
    // (byte-identical plan text, or the same typed error).
    let fast_repr = fast
        .as_ref()
        .map(|p| p.to_text())
        .map_err(|e| format!("{e:?}"));
    let slow_repr = slow
        .as_ref()
        .map(|p| p.to_text())
        .map_err(|e| format!("{e:?}"));
    assert_eq!(
        fast_repr, slow_repr,
        "fast and reference planners must agree byte-for-byte"
    );
    if let (Ok(fast), Ok(slow)) = (fast, slow) {
        assert_eq!(fast.digest(), slow.digest(), "digest must match");
        assert_eq!(fast, slow, "structural plan equality must hold too");
    }
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(32))]

    /// Random workloads, all four schedulers, ample memory.
    #[test]
    fn fast_planner_matches_reference(
        spec in spec_strategy(),
        which in 0usize..4,
        bounds in (0u8..4, 0u8..4, 0u8..4),
        gpus in 1usize..5,
        policy in 0usize..4,
    ) {
        let stream = spec.generate();
        let cfg = MachineConfig::mi100_like(gpus).with_eviction(policy_for(policy));
        assert_paths_agree(which, bounds, &stream, &cfg);
    }

    /// Oversubscribed memory: the budget holds only a couple of working
    /// sets, so the eviction machinery is exercised on every stage. The
    /// tie-breaking inside victim selection must agree between the dense
    /// SoA store and the reference map-based store.
    #[test]
    fn fast_planner_matches_reference_under_eviction_pressure(
        spec in spec_strategy(),
        which in 0usize..4,
        bounds in (0u8..4, 0u8..4, 0u8..4),
        gpus in 1usize..4,
        policy in 0usize..4,
    ) {
        let stream = spec.generate();
        assert_paths_agree(which, bounds, &stream, &machine(&stream, gpus, policy, true));
    }

    /// The same contract after relabelling every tensor id to a sparse
    /// value, so the fast planner's interner hashes ids instead of
    /// indexing its dense runs.
    #[test]
    fn fast_planner_matches_reference_on_sparse_ids(
        spec in spec_strategy(),
        which in 0usize..4,
        bounds in (0u8..4, 0u8..4, 0u8..4),
        gpus in 1usize..5,
        policy in 0usize..4,
        pressure in any::<bool>(),
        relabel in any::<u64>(),
    ) {
        let stream = sparsify(&spec.generate(), relabel);
        assert_paths_agree(which, bounds, &stream, &machine(&stream, gpus, policy, pressure));
    }
}

/// Memory for `gpus` devices under `policy`: ample, or (`pressure`) just
/// over two tasks' full working sets (a + b + out), so that no single task
/// ever fails to fit but residency churns.
fn machine(stream: &TensorPairStream, gpus: usize, policy: usize, pressure: bool) -> MachineConfig {
    let cfg = MachineConfig::mi100_like(gpus).with_eviction(policy_for(policy));
    if !pressure {
        return cfg;
    }
    let worst = stream
        .vectors()
        .iter()
        .flat_map(|v| v.tasks.iter())
        .map(|t| t.a.bytes + t.b.bytes + t.out.bytes)
        .max()
        .unwrap_or(1);
    cfg.with_mem_bytes(worst * 2 + 1)
}

// ---------------------------------------------------------------------------
// Sparse tensor ids
// ---------------------------------------------------------------------------

/// `stream` with its tensor ids relabelled through a random injective map
/// (seeded by `seed`) onto sparse values: `u64::MAX`, `2⁴⁰ − 1`, ids at
/// either dense run's reach (the interner admits an id to a run's array
/// only below twice its interned count plus 1024, so these land on both
/// sides of that bound), and random 64-bit values. Task ids, sizes and
/// flops are unchanged.
fn sparsify(stream: &TensorPairStream, seed: u64) -> TensorPairStream {
    let mut state = seed;
    let mut next = move || {
        // splitmix64
        state = state.wrapping_add(0x9e37_79b9_7f4a_7c15);
        let mut z = state;
        z = (z ^ (z >> 30)).wrapping_mul(0xbf58_476d_1ce4_e5b9);
        z = (z ^ (z >> 27)).wrapping_mul(0x94d0_49bb_1331_11eb);
        z ^ (z >> 31)
    };
    let mut labels: HashMap<TensorId, TensorId> = HashMap::new();
    let mut used: HashSet<u64> = HashSet::new();
    let mut relabel = |id: TensorId| -> TensorId {
        let distinct = labels.len() as u64;
        *labels.entry(id).or_insert_with(|| loop {
            // the run's reach when this id is interned as the next symbol
            let reach = 2 * (distinct + 1) + 1024;
            let candidate = match (distinct, next() % 4) {
                (0, _) => u64::MAX,
                (1, _) => OUTPUT_ID_BASE - 1,
                (_, 0) => reach - 1 + next() % 3,
                (_, 1) => OUTPUT_ID_BASE + reach - 1 + next() % 3,
                _ => next(),
            };
            if used.insert(candidate) {
                break TensorId(candidate);
            }
        })
    };
    let vectors = stream
        .vectors()
        .iter()
        .map(|v| {
            Vector::new(
                v.tasks
                    .iter()
                    .map(|t| {
                        let mut t = t.clone();
                        t.a.id = relabel(t.a.id);
                        t.b.id = relabel(t.b.id);
                        t.out.id = relabel(t.out.id);
                        t
                    })
                    .collect(),
            )
        })
        .collect();
    TensorPairStream::new(vectors)
}

/// Hot tensors on 4 GPUs: every scheduler × policy, with and without
/// eviction pressure, on sparse ids. The MICCO plans are replayed to show
/// that some tensor really reached a third holder, so the residency
/// index's overflow path is compared too.
#[test]
fn sparse_ids_with_three_or_more_holders_match_on_4_gpus() {
    let stream = sparsify(
        &WorkloadSpec::new(24, 64)
            .with_repeat_rate(0.9)
            .with_distribution(RepeatDistribution::Gaussian)
            .with_vectors(6)
            .with_seed(11)
            .generate(),
        0xdecaf,
    );
    let mut widest = 0;
    for pressure in [false, true] {
        for which in 0..4 {
            for policy in 0..4 {
                let cfg = machine(&stream, 4, policy, pressure);
                assert_paths_agree(which, (0, 2, 0), &stream, &cfg);
                let plan = Session::new(cfg)
                    .plan(&mut *scheduler_for(which, (0, 2, 0)), &stream)
                    .expect("plans")
                    .into_plan();
                let mut m = SimMachine::new(cfg);
                let tasks = stream.vectors().iter().flat_map(|v| &v.tasks);
                for (t, a) in tasks.zip(plan.flat_assignments()) {
                    m.execute(t, a.gpu).expect("replays");
                    widest = widest.max(m.holders(t.a.id).len().max(m.holders(t.b.id).len()));
                }
                assert!((0..4).all(|g| m.mem_used(GpuId(g)) <= cfg.mem_bytes));
            }
        }
    }
    assert!(
        widest >= 3,
        "no tensor reached a third holder (widest {widest})"
    );
}

// ---------------------------------------------------------------------------
// Degenerate streams (deterministic, exhaustive over schedulers × policies)
// ---------------------------------------------------------------------------

fn all_cases(stream: &TensorPairStream) {
    for which in 0..4 {
        for policy in 0..4 {
            for gpus in [1usize, 3] {
                let cfg = MachineConfig::mi100_like(gpus).with_eviction(policy_for(policy));
                assert_paths_agree(which, (0, 2, 0), stream, &cfg);
            }
        }
    }
}

#[test]
fn degenerate_empty_stream() {
    all_cases(&TensorPairStream::default());
}

#[test]
fn degenerate_single_task() {
    let task = ContractionTask::uniform(
        TaskId(0),
        TensorId(1),
        TensorId(2),
        TensorId(3),
        ContractionKind::Meson,
        4,
        64,
    );
    all_cases(&TensorPairStream::new(vec![Vector::new(vec![task])]));
}

#[test]
fn degenerate_all_tasks_share_one_tensor_pair() {
    // Every task contracts the SAME two input tensors (maximal reuse —
    // the TwoRepeatedSame fast path on every assignment after the first).
    let mut vectors = Vec::new();
    let mut next_task = 0u64;
    let mut next_out = 100u64;
    for _ in 0..3 {
        let mut tasks = Vec::new();
        for _ in 0..6 {
            tasks.push(ContractionTask::uniform(
                TaskId(next_task),
                TensorId(1),
                TensorId(2),
                TensorId(next_out),
                ContractionKind::Meson,
                4,
                64,
            ));
            next_task += 1;
            next_out += 1;
        }
        vectors.push(Vector::new(tasks));
    }
    all_cases(&TensorPairStream::new(vectors));
}

#[test]
fn degenerate_empty_vectors_between_work() {
    // Stages may be empty; the barrier/stage accounting must still agree.
    let task = |id: u64, a: u64, b: u64| {
        ContractionTask::uniform(
            TaskId(id),
            TensorId(a),
            TensorId(b),
            TensorId(1000 + id),
            ContractionKind::Meson,
            4,
            64,
        )
    };
    let stream = TensorPairStream::new(vec![
        Vector::new(vec![]),
        Vector::new(vec![task(0, 1, 2), task(1, 2, 3)]),
        Vector::new(vec![]),
        Vector::new(vec![task(2, 1, 3)]),
    ]);
    all_cases(&stream);
}
