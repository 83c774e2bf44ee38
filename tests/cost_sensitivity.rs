//! Cost-model sensitivity (DESIGN.md §6.4): the qualitative conclusion —
//! MICCO beats the load-balance-only baseline on reuse-heavy streams —
//! must hold when every rate in the cost model is perturbed by 2× in
//! either direction. Absolute GFLOPS may move; the ordering may not.

use micco::gpusim::{CostModel, MachineConfig};
use micco::sched::{GrouteScheduler, MiccoScheduler, ReuseBounds, Session};
use micco::workload::{RepeatDistribution, WorkloadSpec};

fn reference_stream() -> micco::workload::TensorPairStream {
    WorkloadSpec::new(64, 384)
        .with_repeat_rate(0.75)
        .with_distribution(RepeatDistribution::Uniform)
        .with_vectors(8)
        .with_seed(42)
        .generate()
}

fn compare(cost: CostModel) -> (f64, f64) {
    let cfg = MachineConfig::mi100_like(8).with_cost(cost);
    let stream = reference_stream();
    let groute = Session::new(cfg)
        .run(&mut GrouteScheduler::new(), &stream)
        .expect("fits");
    let micco = Session::new(cfg)
        .run(&mut MiccoScheduler::new(ReuseBounds::new(0, 2, 0)), &stream)
        .expect("fits");
    (groute.elapsed_secs(), micco.elapsed_secs())
}

#[test]
fn ordering_survives_2x_compute_rate() {
    for factor in [0.5, 1.0, 2.0] {
        let cost = CostModel {
            device_gflops: 10_000.0 * factor,
            ..CostModel::mi100_like()
        };
        let (groute, micco) = compare(cost);
        assert!(
            micco <= groute * 1.01,
            "factor {factor}: micco {micco} vs groute {groute}"
        );
    }
}

#[test]
fn ordering_survives_2x_h2d_bandwidth() {
    for factor in [0.5, 2.0] {
        let cost = CostModel {
            h2d_gib_s: 12.0 * factor,
            ..CostModel::mi100_like()
        };
        let (groute, micco) = compare(cost);
        assert!(
            micco <= groute * 1.01,
            "factor {factor}: micco {micco} vs groute {groute}"
        );
    }
}

#[test]
fn ordering_survives_2x_d2d_bandwidth() {
    for factor in [0.5, 2.0] {
        let cost = CostModel {
            d2d_gib_s: 25.0 * factor,
            ..CostModel::mi100_like()
        };
        let (groute, micco) = compare(cost);
        assert!(
            micco <= groute * 1.01,
            "factor {factor}: micco {micco} vs groute {groute}"
        );
    }
}

#[test]
fn ordering_survives_latency_perturbation() {
    for factor in [0.0, 2.0, 4.0] {
        let cost = CostModel {
            transfer_latency_us: 10.0 * factor,
            alloc_latency_us: 5.0 * factor,
            ..CostModel::mi100_like()
        };
        let (groute, micco) = compare(cost);
        assert!(
            micco <= groute * 1.01,
            "factor {factor}: micco {micco} vs groute {groute}"
        );
    }
}

#[test]
fn ordering_survives_disabling_source_charging() {
    let cost = CostModel {
        d2d_charges_source: false,
        ..CostModel::mi100_like()
    };
    let (groute, micco) = compare(cost);
    assert!(micco <= groute * 1.01, "micco {micco} vs groute {groute}");
}

#[test]
fn reuse_advantage_grows_with_memory_cost() {
    // When transfers get slower, MICCO's advantage must widen (its whole
    // point is avoiding transfers).
    let slow = CostModel {
        h2d_gib_s: 6.0,
        d2d_gib_s: 12.0,
        ..CostModel::mi100_like()
    };
    let fast = CostModel {
        h2d_gib_s: 48.0,
        d2d_gib_s: 100.0,
        ..CostModel::mi100_like()
    };
    let (g_slow, m_slow) = compare(slow);
    let (g_fast, m_fast) = compare(fast);
    let speedup_slow = g_slow / m_slow;
    let speedup_fast = g_fast / m_fast;
    assert!(
        speedup_slow > speedup_fast,
        "slow-link speedup {speedup_slow:.3} should exceed fast-link {speedup_fast:.3}"
    );
}
