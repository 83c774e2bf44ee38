//! Sim-vs-real conformance: the CPU execution engine, replaying a
//! `ScheduleReport`'s placement decisions with real kernels, must agree
//! with the simulated machine on every observable the two share — kernel
//! counts, per-worker task totals — and must produce the same correlator
//! checksum no matter which scheduler placed the work, whether the
//! simulator ran with copy/compute overlap, or whether the executor stole
//! work between workers.

use micco::exec::{execute_assignments, ExecOptions, FaultPlan, TensorShape, TensorStore};
use micco::gpusim::MachineConfig;
use micco::sched::{
    GrouteScheduler, MiccoScheduler, ReuseBounds, RoundRobinScheduler, ScheduleReport, Scheduler,
    Session,
};
use micco::workload::{TensorId, TensorPairStream, WorkloadSpec};

const WORKERS: usize = 3;
const SHAPE: TensorShape = TensorShape { batch: 2, dim: 12 };

fn stream() -> TensorPairStream {
    WorkloadSpec::new(18, SHAPE.dim)
        .with_batch(SHAPE.batch)
        .with_repeat_rate(0.6)
        .with_vectors(4)
        .with_seed(23)
        .generate()
}

fn store() -> TensorStore {
    TensorStore::new(SHAPE.batch, SHAPE.dim, 23)
}

fn schedulers() -> Vec<Box<dyn Scheduler>> {
    vec![
        Box::new(RoundRobinScheduler::new()),
        Box::new(GrouteScheduler::new()),
        Box::new(MiccoScheduler::new(ReuseBounds::new(0, 2, 0))),
    ]
}

/// Per-worker assigned-task counts derived straight from the report — the
/// contract `ExecOutcome::per_worker_tasks` must honour.
fn assigned_counts(report: &ScheduleReport, workers: usize) -> Vec<usize> {
    let mut counts = vec![0usize; workers];
    for a in &report.assignments {
        counts[a.gpu.0] += 1;
    }
    counts
}

#[test]
fn real_execution_matches_simulated_kernel_and_worker_counts() {
    let stream = stream();
    let cfg = MachineConfig::mi100_like(WORKERS);
    for mut s in schedulers() {
        let report = Session::new(cfg)
            .run(s.as_mut(), &stream)
            .expect("workload fits");
        let out = execute_assignments(
            &stream,
            &report.assignments,
            WORKERS,
            &store(),
            &ExecOptions::default(),
        )
        .expect("valid");

        // Kernel counts: real engine, simulator, and stream all agree.
        assert_eq!(out.kernels, stream.total_tasks());
        assert_eq!(out.kernels as u64, report.stats.total_tasks());
        assert_eq!(report.assignments.len(), out.kernels);

        // Per-worker totals: engine == assignments == simulator's per-GPU.
        let expected = assigned_counts(&report, WORKERS);
        assert_eq!(out.per_worker_tasks, expected, "{}", s.name());
        let sim_counts: Vec<usize> = report
            .stats
            .per_gpu
            .iter()
            .map(|g| g.tasks as usize)
            .collect();
        assert_eq!(out.per_worker_tasks, sim_counts, "{}", s.name());
    }
}

#[test]
fn checksum_is_independent_of_the_scheduler() {
    let stream = stream();
    let cfg = MachineConfig::mi100_like(WORKERS);
    let mut checksums = Vec::new();
    for mut s in schedulers() {
        let report = Session::new(cfg)
            .run(s.as_mut(), &stream)
            .expect("workload fits");
        checksums.push((
            s.name(),
            execute_assignments(
                &stream,
                &report.assignments,
                WORKERS,
                &store(),
                &ExecOptions::default(),
            )
            .expect("valid")
            .checksum,
        ));
    }
    for (name, c) in &checksums[1..] {
        assert_eq!(
            *c, checksums[0].1,
            "{name} diverged from {}",
            checksums[0].0
        );
    }
}

#[test]
fn overlap_changes_timing_only_never_placements_or_physics() {
    let stream = stream();
    let cfg = MachineConfig::mi100_like(WORKERS);
    let sync = Session::new(cfg)
        .run(&mut MiccoScheduler::new(ReuseBounds::new(0, 2, 0)), &stream)
        .expect("workload fits");
    let overlapped = Session::new(cfg)
        .overlap(true)
        .prefetch_tasks(2)
        .run(&mut MiccoScheduler::new(ReuseBounds::new(0, 2, 0)), &stream)
        .expect("workload fits");

    // Overlap is a timing-model switch: identical placement decisions.
    assert_eq!(sync.assignments, overlapped.assignments);
    assert!(overlapped.elapsed_secs() <= sync.elapsed_secs());

    // So the real engine replays both to the same outcome, bit for bit.
    let opts = ExecOptions::default();
    let a =
        execute_assignments(&stream, &sync.assignments, WORKERS, &store(), &opts).expect("valid");
    let b = execute_assignments(&stream, &overlapped.assignments, WORKERS, &store(), &opts)
        .expect("valid");
    assert_eq!(a.checksum, b.checksum);
    assert_eq!(a.per_worker_tasks, b.per_worker_tasks);
}

#[test]
fn stealing_keeps_the_conformance_contract_intact() {
    let stream = stream();
    let cfg = MachineConfig::mi100_like(WORKERS);
    let report = Session::new(cfg)
        .run(&mut MiccoScheduler::new(ReuseBounds::new(0, 2, 0)), &stream)
        .expect("workload fits");
    let expected = assigned_counts(&report, WORKERS);

    let baseline = execute_assignments(
        &stream,
        &report.assignments,
        WORKERS,
        &store(),
        &ExecOptions::default(),
    )
    .expect("valid");
    for opts in [
        ExecOptions::default().with_steal(),
        ExecOptions::default().with_prefetch(),
        ExecOptions::default().with_steal().with_prefetch(),
    ] {
        let out = execute_assignments(&stream, &report.assignments, WORKERS, &store(), &opts)
            .expect("valid");
        // Assigned counts report the *schedule*, not who ran what…
        assert_eq!(out.per_worker_tasks, expected, "{opts:?}");
        // …executed counts report reality, and conserve work.
        assert_eq!(
            out.per_worker_executed.iter().sum::<usize>(),
            out.kernels,
            "{opts:?}"
        );
        assert_eq!(out.kernels, baseline.kernels, "{opts:?}");
        // Physics is invariant to who ran what.
        assert_eq!(out.checksum, baseline.checksum, "{opts:?}");
    }
}

#[test]
fn conformance_holds_across_worker_counts() {
    let stream = stream();
    let mut checksums = Vec::new();
    for workers in [1usize, 2, 4, 6] {
        let cfg = MachineConfig::mi100_like(workers);
        let report = Session::new(cfg)
            .run(&mut GrouteScheduler::new(), &stream)
            .expect("fits");
        let out = execute_assignments(
            &stream,
            &report.assignments,
            workers,
            &store(),
            &ExecOptions::default().with_steal(),
        )
        .expect("valid");
        assert_eq!(out.per_worker_tasks, assigned_counts(&report, workers));
        assert_eq!(out.kernels, stream.total_tasks());
        checksums.push(out.checksum);
    }
    assert!(
        checksums.windows(2).all(|w| w[0] == w[1]),
        "checksum must not depend on the machine width: {checksums:?}"
    );
}

/// `to_bits()` of a complex value's real and imaginary parts.
type Bits = (u64, u64);

fn bits(c: micco::tensor::Complex64) -> Bits {
    (c.re.to_bits(), c.im.to_bits())
}

/// Checksum bits of the pinned workloads `(batch, dim, bits)`. They come
/// from the scalar `i, k, j` kernel that preceded the register-tiled one,
/// so a kernel that moves a single rounding anywhere fails here. Dim 32
/// at batch 4 on 2 workers is the real-verification benchmark's shape;
/// dims 33 and 7 leave a partial row and partial column tiles in every
/// product.
const PINNED: [(usize, usize, Bits); 3] = [
    (4, 32, (0xc043_6604_f2d5_ae5b, 0x402f_e1f8_ab5f_a6f6)),
    (2, 33, (0xc030_4147_f6c9_e62b, 0xc03d_dfc9_2de3_cc74)),
    (3, 7, (0x4018_4d3a_85fb_48ea, 0xc011_8f0a_6c89_b031)),
];

/// A pinned workload and its 2-GPU MICCO placement.
fn pinned_case(batch: usize, dim: usize) -> (TensorPairStream, ScheduleReport) {
    let stream = WorkloadSpec::new(24, dim)
        .with_batch(batch)
        .with_repeat_rate(0.5)
        .with_vectors(2)
        .with_seed(41)
        .generate();
    let report = Session::new(MachineConfig::mi100_like(2))
        .run(&mut MiccoScheduler::new(ReuseBounds::new(0, 2, 0)), &stream)
        .expect("workload fits");
    (stream, report)
}

#[test]
fn real_executor_values_are_pinned_across_builds() {
    // Every other checksum test compares two runs of one build; these
    // constants come from an earlier kernel (see `PINNED`).
    for (batch, dim, want) in PINNED {
        let (stream, report) = pinned_case(batch, dim);
        let out = execute_assignments(
            &stream,
            &report.assignments,
            2,
            &TensorStore::new(batch, dim, 41),
            &ExecOptions::default().with_steal(),
        )
        .expect("valid");
        assert_eq!(bits(out.checksum), want, "batch {batch}, dim {dim}");
    }

    // The leaves every product starts from: first and last element of a
    // few ids, one input and one output-range id among them.
    let store = TensorStore::new(4, 32, 7771);
    let leaves: [(u64, Bits, Bits); 3] = [
        (
            0,
            (0x3fb4_9562_bee2_c988, 0xbfd3_4741_2d96_c2ce),
            (0xbfd2_d389_a146_0524, 0x3fc0_cb71_ff41_e1d0),
        ),
        (
            17,
            (0x3fd7_fee4_8764_254a, 0xbfa1_cde3_cb4c_be30),
            (0x3fde_e1d1_6db9_77d4, 0xbfd2_266e_d0d1_4d96),
        ),
        (
            1 << 40,
            (0xbfc8_8611_b428_89f4, 0x3fd6_cf5e_4f3e_da98),
            (0x3fa4_2e7f_69cb_d4d0, 0x3fdf_2afa_6acc_51ac),
        ),
    ];
    for (id, first, last) in leaves {
        let leaf = store.fetch(TensorId(id));
        let slab = leaf.slab(leaf.batch() - 1);
        assert_eq!(bits(leaf.slab(0)[0]), first, "leaf {id}");
        assert_eq!(bits(slab[slab.len() - 1]), last, "leaf {id}");
    }
}

#[test]
fn every_execution_path_keeps_the_pins_and_empties_the_store() {
    // The store drops each tensor after its last use. Whatever order the
    // workers, a thief or a lagging prefetcher touch tensors in, every
    // path must still see every operand it reads and end with an empty
    // store.
    for (batch, dim, want) in PINNED {
        let (stream, report) = pinned_case(batch, dim);
        let first = stream.vectors()[0].tasks[0].id.0;
        let last = stream.vectors()[1].tasks[0].id.0;
        let faults = FaultPlan::none()
            .with_transfer_timeout(first, 2)
            .with_kernel_fault(last, 1)
            .with_device_loss(1, 1, true);
        for opts in [
            ExecOptions::default(),
            ExecOptions::default().with_steal(),
            ExecOptions::default().with_steal().with_prefetch(),
            ExecOptions::default()
                .retry(2, std::time::Duration::ZERO)
                .with_faults(faults),
        ] {
            let store = TensorStore::new(batch, dim, 41);
            let out =
                execute_assignments(&stream, &report.assignments, 2, &store, &opts).expect("valid");
            assert_eq!(
                bits(out.checksum),
                want,
                "batch {batch}, dim {dim}, {opts:?}"
            );
            assert!(
                store.is_empty(),
                "batch {batch}, dim {dim}, {opts:?}: {} left",
                store.len()
            );
        }
    }
}
