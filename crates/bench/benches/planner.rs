//! Planner throughput micro-benchmarks: end-to-end `Session::plan`
//! (decide-only) at 10⁴–10⁵ tasks on 8–64 simulated GPUs,
//! plus plan validation and static-analysis (lint) throughput over the
//! decided plan. The 10⁶-task point lives in `src/bin/bench_planner.rs`
//! (too heavy for the default criterion loop; run it via
//! `scripts/bench_planner.sh`).

// Bench bodies unwrap freely: a bench that cannot set up its workload
// should abort, same as a test.
#![allow(clippy::unwrap_used)]

use std::time::Duration;

use criterion::{criterion_group, criterion_main, BenchmarkId, Criterion, Throughput};
use std::hint::black_box;

use micco_core::{MiccoScheduler, ReuseBounds, Session};
use micco_gpusim::MachineConfig;
use micco_workload::{RepeatDistribution, TensorPairStream, WorkloadSpec};

fn quick(c: &mut Criterion) -> criterion::BenchmarkGroup<'_, criterion::measurement::WallTime> {
    let mut g = c.benchmark_group("planner");
    g.sample_size(10)
        .warm_up_time(Duration::from_millis(200))
        .measurement_time(Duration::from_secs(2));
    g
}

/// `tasks` total contractions split over stages of 1000 pairs.
fn stream_of(tasks: usize) -> TensorPairStream {
    let per_stage = 1000.min(tasks);
    WorkloadSpec::new(per_stage, 64)
        .with_repeat_rate(0.6)
        .with_distribution(RepeatDistribution::Gaussian)
        .with_vectors(tasks.div_ceil(per_stage))
        .with_seed(42)
        .generate()
}

fn bench_plan_throughput(c: &mut Criterion) {
    let mut group = quick(c);
    for tasks in [10_000usize, 100_000] {
        let stream = stream_of(tasks);
        for gpus in [8usize, 64] {
            let session = Session::new(MachineConfig::mi100_like(gpus));
            group.throughput(Throughput::Elements(stream.total_tasks() as u64));
            group.bench_function(
                BenchmarkId::new(format!("plan/{tasks}tasks"), format!("{gpus}gpus")),
                |b| {
                    b.iter(|| {
                        let mut sched = MiccoScheduler::new(ReuseBounds::new(0, 2, 0));
                        let planned = session.plan(&mut sched, black_box(&stream)).unwrap();
                        black_box(planned.plan().fingerprint)
                    })
                },
            );
        }
    }
    group.finish();
}

fn bench_validate_and_lint(c: &mut Criterion) {
    let stream = stream_of(10_000);
    let cfg = MachineConfig::mi100_like(8);
    let mut sched = MiccoScheduler::new(ReuseBounds::new(0, 2, 0));
    let plan = Session::new(cfg)
        .plan(&mut sched, &stream)
        .unwrap()
        .into_plan();

    let mut group = quick(c);
    group.throughput(Throughput::Elements(stream.total_tasks() as u64));
    group.bench_function(BenchmarkId::new("validate", "10000tasks"), |b| {
        b.iter(|| black_box(&plan).validate(black_box(&stream)).unwrap())
    });
    group.bench_function(BenchmarkId::new("lint", "10000tasks"), |b| {
        b.iter(|| {
            let report =
                micco_analysis::analyze_plan(black_box(&plan), black_box(&stream), black_box(&cfg));
            black_box(report.errors())
        })
    });
    group.finish();
}

criterion_group!(benches, bench_plan_throughput, bench_validate_and_lint);
criterion_main!(benches);
