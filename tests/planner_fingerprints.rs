//! Golden fingerprint corpus: pins the plan content digest
//! ([`SchedulePlan::digest`]) for a fixed matrix of scheduler × machine
//! configurations over a deterministic workload. Any change to scheduling
//! decisions, plan serialization, or the digest itself shows up as a diff
//! against `tests/fixtures/fingerprints.txt`.
//!
//! Regenerate (after an *intentional* change) with
//! `MICCO_BLESS=1 cargo test --test planner_fingerprints`.

use micco::gpusim::{EvictionPolicy, LinkTopology, MachineConfig};
use micco::sched::{
    CodaScheduler, DriverOptions, GrouteScheduler, MiccoScheduler, ReuseBounds,
    RoundRobinScheduler, Scheduler, Session,
};
use micco::workload::{RepeatDistribution, WorkloadSpec};

fn schedulers() -> Vec<Box<dyn Scheduler>> {
    vec![
        Box::new(MiccoScheduler::new(ReuseBounds::new(0, 2, 0))),
        Box::new(GrouteScheduler::new()),
        Box::new(CodaScheduler::new()),
        Box::new(RoundRobinScheduler::new()),
    ]
}

/// The fixed corpus stream: large enough to exercise reuse, eviction, and
/// multi-stage barriers; small enough to plan in milliseconds.
fn corpus_stream() -> micco::workload::TensorPairStream {
    WorkloadSpec::new(24, 64)
        .with_repeat_rate(0.6)
        .with_distribution(RepeatDistribution::Gaussian)
        .with_vectors(6)
        .with_seed(0x5eed)
        .generate()
}

#[test]
fn golden_fingerprint_corpus_is_pinned() {
    let stream = corpus_stream();
    let configs: Vec<(&str, MachineConfig)> = vec![
        ("mi100x2-lru", MachineConfig::mi100_like(2)),
        ("mi100x4-lru", MachineConfig::mi100_like(4)),
        ("mi100x8-lru", MachineConfig::mi100_like(8)),
        (
            "mi100x4-fifo",
            MachineConfig::mi100_like(4).with_eviction(EvictionPolicy::Fifo),
        ),
        (
            "mi100x4-largest",
            MachineConfig::mi100_like(4).with_eviction(EvictionPolicy::LargestFirst),
        ),
        (
            "mi100x4-clairvoyant",
            MachineConfig::mi100_like(4).with_eviction(EvictionPolicy::Clairvoyant),
        ),
    ];

    let mut lines = String::new();
    lines.push_str("# planner fingerprint corpus v1\n");
    lines.push_str("# <scheduler> <config> workload=<fingerprint> digest=<digest>\n");
    for (label, cfg) in &configs {
        for mut sched in schedulers() {
            let plan = Session::new(*cfg)
                .plan(&mut *sched, &stream)
                .expect("corpus workload plans cleanly")
                .into_plan();
            lines.push_str(&format!(
                "{} {} workload={:016x} digest={:016x}\n",
                plan.scheduler,
                label,
                plan.fingerprint,
                plan.digest()
            ));
        }
    }

    // Topology block, appended after the flat corpus so the 24 flat entries
    // above stay byte-identical across the link-topology refactor. Two
    // modes per scheduler on an 8-GPU / two-island machine: `routed` only
    // charges per-hop link time (decisions must match flat bit-for-bit on
    // reuse-oblivious schedulers), `aware` also lets the scheduler penalize
    // cross-island fetches.
    lines.push_str("# topology corpus: nvlink{gpus:8, island:4}, routed vs topology-aware\n");
    let topo = LinkTopology::nvlink(8, 4);
    let cfg8 = MachineConfig::mi100_like(8);
    for (mode, opts) in [
        ("routed", DriverOptions::default()),
        ("aware", DriverOptions::default().with_topology_aware()),
    ] {
        for mut sched in schedulers() {
            let plan = Session::new(cfg8)
                .with_options(opts)
                .with_topology(topo.clone())
                .plan(&mut *sched, &stream)
                .expect("corpus workload plans cleanly under a topology")
                .into_plan();
            lines.push_str(&format!(
                "{} mi100x8-nvlink4-{} workload={:016x} digest={:016x}\n",
                plan.scheduler,
                mode,
                plan.fingerprint,
                plan.digest()
            ));
        }
    }

    let root = env!("CARGO_MANIFEST_DIR");
    let path = format!("{root}/tests/fixtures/fingerprints.txt");
    if std::env::var_os("MICCO_BLESS").is_some() {
        std::fs::write(&path, &lines).expect("write fingerprint corpus");
        return;
    }
    let golden = std::fs::read_to_string(&path)
        .expect("fingerprint corpus fixture (regenerate with MICCO_BLESS=1)");
    assert_eq!(
        lines, golden,
        "plan fingerprints drifted from tests/fixtures/fingerprints.txt; \
         scheduling decisions or plan serialization changed. Regenerate with \
         MICCO_BLESS=1 only if the change is intentional"
    );
}

/// The digest is a pure function of the serialized text — replanning the
/// corpus twice (fresh schedulers) must reproduce every digest bit-for-bit.
#[test]
fn corpus_digests_are_reproducible_within_a_process() {
    let stream = corpus_stream();
    let cfg = MachineConfig::mi100_like(4);
    for _ in 0..2 {
        for mut sched in schedulers() {
            let a = Session::new(cfg)
                .plan(&mut *sched, &stream)
                .expect("plans")
                .into_plan();
            let mut again = schedulers()
                .into_iter()
                .find(|s| s.name() == a.scheduler)
                .expect("same scheduler");
            let b = Session::new(cfg)
                .plan(&mut *again, &stream)
                .expect("plans")
                .into_plan();
            assert_eq!(a.digest(), b.digest());
            assert_eq!(a.to_text(), b.to_text());
        }
    }
}
