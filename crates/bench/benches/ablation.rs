//! Ablation benches for the design decisions called out in DESIGN.md §6:
//! eviction policy, per-pattern bounds vs a single shared bound, and
//! d2d source charging. Each variant runs the same reference workload;
//! compare the reported simulated times across group entries.

// Bench bodies unwrap freely: a bench that cannot set up its workload
// should abort, same as a test.
#![allow(clippy::unwrap_used)]

use std::time::Duration;

use criterion::{criterion_group, criterion_main, BenchmarkId, Criterion};
use std::hint::black_box;

use micco_core::{MiccoScheduler, ReuseBounds, Session};
use micco_gpusim::{CostModel, EvictionPolicy, MachineConfig};
use micco_workload::{RepeatDistribution, TensorPairStream, WorkloadSpec};

fn reference_stream() -> TensorPairStream {
    WorkloadSpec::new(48, 384)
        .with_repeat_rate(0.6)
        .with_distribution(RepeatDistribution::Gaussian)
        .with_vectors(6)
        .with_seed(31)
        .generate()
}

fn group<'a>(
    c: &'a mut Criterion,
    name: &str,
) -> criterion::BenchmarkGroup<'a, criterion::measurement::WallTime> {
    let mut g = c.benchmark_group(name);
    g.sample_size(10)
        .warm_up_time(Duration::from_millis(200))
        .measurement_time(Duration::from_millis(900));
    g
}

/// DESIGN.md §6.2 — eviction policy under oversubscription. The metric of
/// interest is the *simulated* time; this bench reports both (wall time of
/// the run is roughly proportional to simulated events processed).
fn bench_eviction_policy(c: &mut Criterion) {
    let stream = reference_stream();
    let mut g = group(c, "ablation/eviction_policy");
    for policy in [
        EvictionPolicy::Lru,
        EvictionPolicy::Fifo,
        EvictionPolicy::LargestFirst,
        EvictionPolicy::Clairvoyant,
    ] {
        let cfg = MachineConfig::mi100_like(8)
            .with_oversubscription(stream.unique_bytes(), 1.5)
            .with_eviction(policy);
        g.bench_with_input(
            BenchmarkId::from_parameter(format!("{policy:?}")),
            &cfg,
            |b, cfg| {
                b.iter(|| {
                    let mut machine = micco_gpusim::SimMachine::new(*cfg).with_oracle(&stream);
                    let mut s = MiccoScheduler::new(ReuseBounds::new(0, 2, 0));
                    let r =
                        micco_core::driver::run_schedule_on(&mut s, &stream, &mut machine).unwrap();
                    black_box(r.elapsed_secs())
                });
            },
        );
    }
    g.finish();
}

/// DESIGN.md §6.1 — three per-pattern bounds (Table II) vs one shared
/// bound applied to every pattern class.
fn bench_per_pattern_bounds(c: &mut Criterion) {
    let stream = reference_stream();
    let cfg = MachineConfig::mi100_like(8);
    let mut g = group(c, "ablation/bounds_shape");
    for (name, bounds) in [
        ("per_pattern_020", ReuseBounds::new(0, 2, 0)),
        ("shared_0", ReuseBounds::new(0, 0, 0)),
        ("shared_1", ReuseBounds::new(1, 1, 1)),
        ("shared_2", ReuseBounds::new(2, 2, 2)),
    ] {
        g.bench_function(name, |b| {
            b.iter(|| {
                let mut s = MiccoScheduler::new(bounds);
                let r = Session::new(cfg).run(&mut s, &stream).unwrap();
                black_box(r.elapsed_secs())
            });
        });
    }
    g.finish();
}

/// DESIGN.md §6 — whether peer copies charge the source device.
fn bench_d2d_source_charge(c: &mut Criterion) {
    let stream = reference_stream();
    let mut g = group(c, "ablation/d2d_source_charge");
    for (name, charge) in [("charged", true), ("free", false)] {
        let cfg = MachineConfig::mi100_like(8).with_cost(CostModel {
            d2d_charges_source: charge,
            ..CostModel::mi100_like()
        });
        g.bench_function(name, |b| {
            b.iter(|| {
                let mut s = MiccoScheduler::new(ReuseBounds::new(0, 2, 0));
                let r = Session::new(cfg).run(&mut s, &stream).unwrap();
                black_box(r.elapsed_secs())
            });
        });
    }
    g.finish();
}

criterion_group!(
    benches,
    bench_eviction_policy,
    bench_per_pattern_bounds,
    bench_d2d_source_charge
);
criterion_main!(benches);
