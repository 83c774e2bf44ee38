//! Memory-oversubscription scenario: the workload's working set exceeds
//! aggregate device memory, so evictions are unavoidable and the
//! memory-eviction-sensitive policy earns its keep. Also demonstrates the
//! eviction-policy ablation.
//!
//! Run with:
//! ```text
//! cargo run --release --example oversubscribed
//! ```

use micco::gpusim::EvictionPolicy;
use micco::prelude::*;
use micco::sched::GrouteScheduler;

fn main() {
    let stream = WorkloadSpec::new(64, 384)
        .with_repeat_rate(0.5)
        .with_distribution(RepeatDistribution::Gaussian)
        .with_vectors(10)
        .with_seed(77)
        .generate();

    // Size the machine so the working set is 150 % of aggregate memory —
    // the middle of the paper's Fig. 11 sweep.
    let base = MachineConfig::mi100_like(8).with_oversubscription(stream.unique_bytes(), 1.5);
    println!(
        "working set {:.1} MiB vs aggregate memory {:.1} MiB (150% oversubscribed)",
        stream.unique_bytes() as f64 / (1 << 20) as f64,
        (base.mem_bytes * 8) as f64 / (1 << 20) as f64,
    );

    println!(
        "\n{:<24} {:>10} {:>12} {:>11} {:>14}",
        "configuration", "GFLOPS", "evictions", "writebacks", "vs groute"
    );
    let mut groute_elapsed = 0.0;
    for (name, policy, micco) in [
        ("groute + LRU", EvictionPolicy::Lru, false),
        ("micco + LRU", EvictionPolicy::Lru, true),
        ("micco + FIFO", EvictionPolicy::Fifo, true),
        ("micco + largest-first", EvictionPolicy::LargestFirst, true),
    ] {
        let session = Session::new(base.with_eviction(policy));
        let report = if micco {
            session.run(&mut MiccoScheduler::new(ReuseBounds::new(0, 2, 0)), &stream)
        } else {
            session.run(&mut GrouteScheduler::new(), &stream)
        }
        .expect("fits with eviction");
        if !micco {
            groute_elapsed = report.elapsed_secs();
        }
        let wb: u64 = report.stats.per_gpu.iter().map(|g| g.writeback_bytes).sum();
        println!(
            "{:<24} {:>10.0} {:>12} {:>8} MiB {:>13.2}x",
            name,
            report.gflops(),
            report.stats.total_evictions(),
            wb / (1 << 20),
            groute_elapsed / report.elapsed_secs(),
        );
    }
    println!("\nMICCO reduces evictions by placing reused tensors where they already live;");
    println!("the eviction-policy rows are the DESIGN.md §6.2 ablation.");
}
