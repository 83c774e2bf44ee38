//! Guard rails for the extension experiments' claims (the counterparts of
//! `paper_claims.rs` for everything we built beyond the paper).

use micco::cluster::{
    run_cluster_schedule, ClusterConfig, FlatClusterScheduler, HierarchicalScheduler,
};
use micco::gpusim::{CostModel, MachineConfig};
use micco::prelude::*;
use micco::redstar::{
    build_correlator, build_correlator_shared, build_job, f0d2, f0d4, PresetScale,
};
use micco::sched::{mapping_histogram, GrouteScheduler};

/// Async copy (future work): never slower, and faster on transfer-heavy
/// streams.
#[test]
fn async_copy_helps() {
    let stream = WorkloadSpec::new(64, 384)
        .with_repeat_rate(0.25)
        .with_vectors(6)
        .generate();
    let run = |async_copy: bool| {
        let cost = if async_copy {
            CostModel::mi100_like().with_async_copy()
        } else {
            CostModel::mi100_like()
        };
        let cfg = MachineConfig::mi100_like(8).with_cost(cost);
        Session::new(cfg)
            .run(&mut MiccoScheduler::new(ReuseBounds::new(0, 2, 0)), &stream)
            .unwrap()
            .elapsed_secs()
    };
    let sync = run(false);
    let overlapped = run(true);
    assert!(
        overlapped < sync,
        "async {overlapped} must beat sync {sync}"
    );
}

/// Cluster (future work): hierarchical scheduling eliminates network
/// traffic relative to the flat baseline on chained stages.
#[test]
fn hierarchical_cluster_cuts_network_traffic() {
    let base = WorkloadSpec::new(32, 384)
        .with_repeat_rate(0.5)
        .with_vectors(6)
        .with_seed(3)
        .generate();
    let mut vectors = base.into_vectors();
    for v in 1..vectors.len() {
        let prev: Vec<_> = vectors[v - 1].tasks.iter().map(|t| t.out).collect();
        for (i, t) in vectors[v].tasks.iter_mut().enumerate() {
            if i % 2 == 0 {
                t.a = prev[i % prev.len()];
            }
        }
    }
    let stream = TensorPairStream::new(vectors);
    let cfg = ClusterConfig::mi100_cluster(2, 4);
    let flat = run_cluster_schedule(&mut FlatClusterScheduler::new(), &stream, &cfg).unwrap();
    let mut hier = HierarchicalScheduler::new(16, ReuseBounds::new(0, 2, 0));
    let h = run_cluster_schedule(&mut hier, &stream, &cfg).unwrap();
    assert!(
        flat.inter_transfers > 0,
        "the baseline must actually cross the network"
    );
    assert!(h.inter_transfers < flat.inter_transfers / 2);
    assert!(h.elapsed_secs <= flat.elapsed_secs);
}

/// Joint (frequency-guided) planning: never more unique steps, strictly
/// fewer on the f0 systems. (Paper scale: CI shrinks the momentum sweep to
/// the point where per-graph planning already shares everything. No
/// numeric-equality assertion across *planners*: our unoriented-edge
/// abstraction makes ≥4-node cycle values contraction-order-sensitive —
/// see `micco_redstar::numeric` docs.)
#[test]
fn joint_planning_reduces_work() {
    let spec = f0d2(PresetScale::Paper);
    let isolated = build_correlator(&spec);
    let shared = build_correlator_shared(&spec);
    assert!(shared.unique_steps < isolated.unique_steps);
    assert_eq!(shared.graph_count, isolated.graph_count);
    assert_eq!(shared.stream.total_tasks(), shared.unique_steps);
}

/// Multi-correlator jobs dedupe across correlators.
#[test]
fn job_dedupes_across_correlators() {
    // the two f0 systems share the f0 source and the pion sinks
    let specs = vec![f0d2(PresetScale::Paper), f0d4(PresetScale::Paper)];
    let separate: usize = specs
        .iter()
        .map(|s| build_correlator_shared(s).unique_steps)
        .sum();
    let job = build_job(&specs);
    assert!(
        job.unique_steps < separate,
        "job {} must be under separate total {}",
        job.unique_steps,
        separate
    );
    assert_eq!(job.stream.total_tasks(), job.unique_steps);
}

/// The Fig. 4 mapping histogram: MICCO's placements carry strictly fewer
/// memory operations per task than Groute's on reuse-heavy streams.
#[test]
fn micco_mapping_histogram_dominates() {
    let stream = WorkloadSpec::new(64, 256)
        .with_repeat_rate(0.75)
        .with_vectors(5)
        .generate();
    let cfg = MachineConfig::mi100_like(8);
    let micco = Session::new(cfg)
        .run(&mut MiccoScheduler::new(ReuseBounds::new(0, 2, 0)), &stream)
        .unwrap();
    let groute = Session::new(cfg)
        .run(&mut GrouteScheduler::new(), &stream)
        .unwrap();
    let hm = mapping_histogram(&stream, &micco.assignments, &cfg);
    let hg = mapping_histogram(&stream, &groute.assignments, &cfg);
    assert!(hm.mean_memory_ops() < hg.mean_memory_ops());
    assert!(hm.m1_fraction() > hg.m1_fraction());
}

/// Clairvoyant eviction is an upper bound: never more evictions than LRU
/// for the same schedule under pressure.
#[test]
fn clairvoyant_eviction_upper_bound() {
    use micco::gpusim::{EvictionPolicy, SimMachine};
    use micco::sched::driver::run_schedule_on;
    let stream = WorkloadSpec::new(48, 384)
        .with_repeat_rate(0.6)
        .with_vectors(6)
        .with_seed(5)
        .generate();
    let run = |policy: EvictionPolicy| {
        let cfg = MachineConfig::mi100_like(4)
            .with_oversubscription(stream.unique_bytes(), 1.5)
            .with_eviction(policy);
        let mut machine = SimMachine::new(cfg).with_oracle(&stream);
        let mut s = MiccoScheduler::new(ReuseBounds::new(0, 2, 0));
        run_schedule_on(&mut s, &stream, &mut machine)
            .unwrap()
            .stats
            .total_evictions()
    };
    let lru = run(EvictionPolicy::Lru);
    let belady = run(EvictionPolicy::Clairvoyant);
    assert!(lru > 0, "the workload must actually evict");
    assert!(belady <= lru, "belady {belady} must not exceed lru {lru}");
}
