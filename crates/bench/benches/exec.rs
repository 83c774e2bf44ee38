//! Execution-engine benchmarks: real-kernel throughput vs worker count.
//!
//! Expect *flat* scaling on most hosts: the batched kernels are already
//! rayon-parallel across the batch dimension, so the worker threads add an
//! outer layer of parallelism over cores the inner layer saturates. The
//! interesting readout is that extra workers also cost almost nothing —
//! the engine's locking (one `RwLock` around the store) does not
//! serialise.

// Bench bodies unwrap freely: a bench that cannot set up its workload
// should abort, same as a test.
#![allow(clippy::unwrap_used)]

use std::time::Duration;

use criterion::{criterion_group, criterion_main, BenchmarkId, Criterion};
use std::hint::black_box;

use micco_core::{MiccoScheduler, ReuseBounds, Session};
use micco_exec::{execute_assignments, ExecOptions, TensorShape, TensorStore};
use micco_gpusim::MachineConfig;
use micco_workload::WorkloadSpec;

fn bench_exec_scaling(c: &mut Criterion) {
    let shape = TensorShape { batch: 2, dim: 64 };
    let stream = WorkloadSpec::new(16, shape.dim)
        .with_batch(shape.batch)
        .with_repeat_rate(0.5)
        .with_vectors(4)
        .with_seed(7)
        .generate();
    let mut g = c.benchmark_group("exec/worker_scaling");
    g.sample_size(10)
        .warm_up_time(Duration::from_millis(300))
        .measurement_time(Duration::from_secs(1));
    let opts = ExecOptions::default();
    for workers in [1usize, 2, 4] {
        let assignments = Session::new(MachineConfig::mi100_like(workers))
            .run(&mut MiccoScheduler::new(ReuseBounds::new(0, 2, 0)), &stream)
            .expect("fits")
            .assignments;
        g.bench_with_input(BenchmarkId::from_parameter(workers), &workers, |b, &w| {
            b.iter(|| {
                let store = TensorStore::new(shape.batch, shape.dim, 3);
                black_box(
                    execute_assignments(&stream, &assignments, w, &store, &opts)
                        .unwrap()
                        .checksum,
                )
            });
        });
    }
    g.finish();
}

criterion_group!(benches, bench_exec_scaling);
criterion_main!(benches);
