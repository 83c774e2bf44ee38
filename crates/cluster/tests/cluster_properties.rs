//! Property-based tests of the cluster layer.

use proptest::prelude::*;

use micco_cluster::{
    run_cluster_schedule, ClusterConfig, ClusterScheduler, FlatClusterScheduler,
    HierarchicalScheduler,
};
use micco_core::ReuseBounds;
use micco_workload::{RepeatDistribution, TensorPairStream, WorkloadSpec};

fn spec() -> impl Strategy<Value = WorkloadSpec> {
    (
        2usize..16,
        16usize..64,
        0.0f64..=1.0,
        any::<bool>(),
        1usize..4,
        any::<u64>(),
    )
        .prop_map(|(vs, dim, rate, gaussian, nv, seed)| {
            WorkloadSpec::new(vs, dim)
                .with_repeat_rate(rate)
                .with_distribution(if gaussian {
                    RepeatDistribution::Gaussian
                } else {
                    RepeatDistribution::Uniform
                })
                .with_vectors(nv)
                .with_seed(seed)
                .with_batch(2)
        })
}

fn chained(stream: &TensorPairStream) -> TensorPairStream {
    let mut vectors = stream.vectors().to_vec();
    for v in 1..vectors.len() {
        let prev: Vec<_> = vectors[v - 1].tasks.iter().map(|t| t.out).collect();
        for (i, t) in vectors[v].tasks.iter_mut().enumerate() {
            if i % 2 == 0 {
                t.a = prev[i % prev.len()];
            }
        }
    }
    TensorPairStream::new(vectors)
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(32))]

    /// Both cluster schedulers execute every task and produce consistent
    /// flop totals; network traffic is never negative and hierarchical
    /// never pays *more* network than flat on chained streams.
    #[test]
    fn cluster_runs_complete(s in spec(), nodes in 1usize..4) {
        let stream = chained(&s.generate());
        let cfg = ClusterConfig::mi100_cluster(nodes, 2);
        let flat = run_cluster_schedule(&mut FlatClusterScheduler::new(), &stream, &cfg).unwrap();
        let mut hier = HierarchicalScheduler::new(8, ReuseBounds::new(0, 2, 0));
        let h = run_cluster_schedule(&mut hier, &stream, &cfg).unwrap();
        prop_assert_eq!(flat.total_flops, stream.total_flops());
        prop_assert_eq!(h.total_flops, stream.total_flops());
        prop_assert!(flat.elapsed_secs > 0.0);
        prop_assert!(h.elapsed_secs > 0.0);
        prop_assert!(
            h.inter_transfers <= flat.inter_transfers,
            "hier {} > flat {}", h.inter_transfers, flat.inter_transfers
        );
        if nodes == 1 {
            prop_assert_eq!(flat.inter_transfers, 0);
            prop_assert_eq!(h.inter_transfers, 0);
        }
    }

    /// Cluster scheduling is deterministic.
    #[test]
    fn cluster_deterministic(s in spec()) {
        let stream = chained(&s.generate());
        let cfg = ClusterConfig::mi100_cluster(2, 2);
        let run = || {
            let mut hier = HierarchicalScheduler::new(8, ReuseBounds::new(0, 2, 0));
            let r = run_cluster_schedule(&mut hier, &stream, &cfg).unwrap();
            (r.elapsed_secs.to_bits(), r.inter_transfers)
        };
        prop_assert_eq!(run(), run());
    }

    /// Scheduler assignments always name valid nodes/devices.
    #[test]
    fn assignments_in_range(s in spec(), nodes in 1usize..4, gpus in 1usize..3) {
        let stream = s.generate();
        let cfg = ClusterConfig::mi100_cluster(nodes, gpus);
        let cluster = micco_cluster::SimCluster::new(cfg);
        let mut sched = HierarchicalScheduler::new(4, ReuseBounds::naive());
        for v in stream.vectors() {
            sched.begin_vector(v, &cluster);
            for t in &v.tasks {
                let (n, g) = sched.assign(t, &cluster);
                prop_assert!(n.0 < nodes);
                prop_assert!(g.0 < gpus);
            }
        }
    }
}
