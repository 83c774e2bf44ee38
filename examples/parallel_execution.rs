//! Drive the multi-threaded CPU execution engine with MICCO's placements:
//! schedule on the simulated machine, then *actually compute* every
//! contraction on worker threads (one per simulated device) and verify the
//! physics checksum is identical for every scheduler.
//!
//! Run with:
//! ```text
//! cargo run --release --example parallel_execution
//! ```

use micco::exec::{execute_assignments, ExecOptions, TensorShape, TensorStore};
use micco::prelude::*;
use micco::sched::{GrouteScheduler, RoundRobinScheduler, Scheduler};

fn main() {
    let shape = TensorShape { batch: 4, dim: 96 };
    let stream = WorkloadSpec::new(24, shape.dim)
        .with_batch(shape.batch)
        .with_repeat_rate(0.6)
        .with_vectors(6)
        .with_seed(11)
        .generate();
    let workers = 4;
    let machine = MachineConfig::mi100_like(workers);
    println!(
        "{} tasks of batched {}×{}×{} complex GEMM on {workers} worker threads\n",
        stream.total_tasks(),
        shape.batch,
        shape.dim,
        shape.dim
    );

    println!(
        "{:<22} {:>12} {:>12} {:>14} {:>28}",
        "scheduler", "sim (ms)", "wall (ms)", "tasks/worker", "checksum"
    );
    let mut checksums = Vec::new();
    let mut schedulers: Vec<Box<dyn Scheduler>> = vec![
        Box::new(GrouteScheduler::new()),
        Box::new(RoundRobinScheduler::new()),
        Box::new(MiccoScheduler::new(ReuseBounds::new(0, 2, 0))),
    ];
    let opts = ExecOptions::default();
    for s in schedulers.iter_mut() {
        let report = Session::new(machine)
            .run(s.as_mut(), &stream)
            .expect("fits");
        let store = TensorStore::new(shape.batch, shape.dim, 2026);
        let out = execute_assignments(&stream, &report.assignments, workers, &store, &opts)
            .expect("schedule covers the stream");
        checksums.push(out.checksum);
        println!(
            "{:<22} {:>12.3} {:>12.3} {:>14} {:>28}",
            report.scheduler,
            report.elapsed_secs() * 1e3,
            out.wall_secs * 1e3,
            format!("{:?}", out.per_worker_tasks),
            out.checksum.to_string(),
        );
    }
    assert!(
        checksums.windows(2).all(|w| w[0] == w[1]),
        "schedulers must never change computed values"
    );
    println!("\nall checksums identical: placement changes time, never physics ✓");
}
