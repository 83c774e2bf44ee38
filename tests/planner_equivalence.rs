//! Equivalence tests for the fast planner (interned IDs, SoA shadow state,
//! arena-allocated plans) against the retained slow reference path
//! (`plan_schedule_seed`, a frozen copy of the seed planner's map-based
//! machine).
//!
//! The contract is strict: for the same scheduler, stream, and machine
//! config, the fast path must produce a **byte-identical** serialized plan
//! and an equal content digest — across all four schedulers, every eviction
//! policy, oversubscribed memory, and degenerate streams.

use proptest::prelude::*;

use micco::gpusim::{EvictionPolicy, MachineConfig};
use micco::sched::{
    plan_schedule_seed, CodaScheduler, DriverOptions, GrouteScheduler, MiccoScheduler, Planned,
    ReuseBounds, RoundRobinScheduler, Scheduler, Session,
};
use micco::tensor::ContractionKind;
use micco::workload::{
    ContractionTask, RepeatDistribution, TaskId, TensorId, TensorPairStream, Vector, WorkloadSpec,
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
    let opts = DriverOptions::default(); // no overhead timing: both emit 0.0
    let fast = Session::new(*cfg)
        .with_options(opts)
        .plan(&mut *fast_sched, stream)
        .map(Planned::into_plan);
    let slow = plan_schedule_seed(&mut *slow_sched, stream, cfg, opts);
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
        // Size memory to just over two tasks' full working sets (a + b +
        // out): enough that no single task ever WontFits, tight enough
        // that residency churns.
        let worst = stream
            .vectors()
            .iter()
            .flat_map(|v| v.tasks.iter())
            .map(|t| t.a.bytes + t.b.bytes + t.out.bytes)
            .max()
            .unwrap_or(1);
        let cfg = MachineConfig::mi100_like(gpus)
            .with_mem_bytes(worst * 2 + 1)
            .with_eviction(policy_for(policy));
        assert_paths_agree(which, bounds, &stream, &cfg);
    }
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
