//! Multi-node cluster demo (the paper's future-work extension): the same
//! 8-GPU budget as one fat node, two nodes, and four thin nodes, scheduled
//! flat (node-oblivious) vs hierarchically (node-level data-centric MICCO).
//!
//! Run with:
//! ```text
//! cargo run --release --example multi_node
//! ```

use micco::cluster::{
    run_cluster_schedule, ClusterConfig, FlatClusterScheduler, HierarchicalScheduler,
};
use micco::prelude::*;
use micco::workload::TensorPairStream;

/// Chain stages so later vectors consume earlier vectors' outputs —
/// the shape a staged correlation function has, and the thing that makes
/// node locality matter (intermediates live only where they were made).
fn chained_stream() -> TensorPairStream {
    let base = WorkloadSpec::new(48, 384)
        .with_repeat_rate(0.5)
        .with_vectors(8)
        .with_seed(123)
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
    TensorPairStream::new(vectors)
}

fn main() {
    let stream = chained_stream();
    println!(
        "workload: {} stages, {} tasks, {:.1} GFLOP, chained intermediates\n",
        stream.vectors().len(),
        stream.total_tasks(),
        stream.total_flops() as f64 / 1e9
    );
    println!(
        "{:<10} {:<22} {:>10} {:>12} {:>14}",
        "topology", "scheduler", "GFLOPS", "net xfers", "net volume"
    );
    for (nodes, gpus) in [(1usize, 8usize), (2, 4), (4, 2)] {
        let cfg = ClusterConfig::mi100_cluster(nodes, gpus);
        let flat =
            run_cluster_schedule(&mut FlatClusterScheduler::new(), &stream, &cfg).expect("fits");
        let mut hier = HierarchicalScheduler::new(nodes, 16, ReuseBounds::new(0, 2, 0));
        let h = run_cluster_schedule(&mut hier, &stream, &cfg).expect("fits");
        for r in [&flat, &h] {
            println!(
                "{:<10} {:<22} {:>10.0} {:>12} {:>11.1} MiB",
                format!("{nodes}x{gpus}"),
                r.scheduler,
                r.gflops(),
                r.inter_transfers,
                r.inter_bytes as f64 / (1 << 20) as f64
            );
        }
    }
    println!("\nThe flat baseline scatters producer-consumer chains across nodes and pays");
    println!("network transfers for every crossing; hierarchical MICCO keeps chains local.");
}
