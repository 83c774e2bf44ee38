//! Extension experiment (the paper's future work, Sec. VII): asynchronous
//! data copy / prefetching.
//!
//! The paper's evaluated system is synchronous — every memory operation
//! blocks the device. The conclusion sketches "further optimizations on
//! both intra-node and inter-node communications, including asynchronous
//! data copy and prefetching data". This binary measures that extension on
//! the simulator: each device gets an independent DMA engine so the next
//! contraction's transfers overlap the current kernel.
//!
//! Expected shape: async copy lifts *both* schedulers, but lifts Groute
//! more (its schedule is transfer-heavy, so it has more to hide), narrowing
//! — not closing — MICCO's advantage. Reuse still wins because a reused
//! operand costs nothing at all, overlapped or not.

use micco_bench::{
    distributions, markdown_table, run, standard_stream, DEFAULT_GPUS, DEFAULT_TENSOR_SIZE,
};
use micco_core::{GrouteScheduler, MiccoScheduler, ReuseBounds, RoundRobinScheduler, Session};
use micco_exec::{execute_assignments, ExecOptions, TensorShape, TensorStore};
use micco_gpusim::{CostModel, MachineConfig};
use micco_workload::{RepeatDistribution, WorkloadSpec};

/// Copy-bound makespan study: repeat rate 0 (no reuse to eliminate) and
/// large tensors make every task transfer-dominated, the best case for
/// copy/compute overlap. Asserts the acceptance property: overlap on
/// strictly reduces the simulated makespan.
fn overlap_makespan_study() {
    println!("\n# Pipelined execution — copy-bound makespan (rate 0%, tensor 768)");
    let stream = standard_stream(64, 768, 0.0, RepeatDistribution::Uniform, 17);
    let cfg = MachineConfig::mi100_like(DEFAULT_GPUS);
    let mut rows = Vec::new();
    for (label, overlap, prefetch_tasks) in [
        ("overlap off", false, 0),
        ("overlap on (unbounded)", true, 0),
        ("overlap on, 2 buffers", true, 2),
        ("overlap on, 1 buffer", true, 1),
    ] {
        let r = Session::new(cfg)
            .overlap(overlap)
            .prefetch_tasks(prefetch_tasks)
            .run(&mut MiccoScheduler::new(ReuseBounds::new(0, 2, 0)), &stream)
            .expect("workload fits");
        rows.push((label, r));
    }
    let header = [
        "mode",
        "makespan (ms)",
        "GFLOPS",
        "overlap (ms)",
        "idle (ms)",
    ];
    let cells: Vec<Vec<String>> = rows
        .iter()
        .map(|(label, r)| {
            vec![
                (*label).to_owned(),
                format!("{:.3}", r.elapsed_secs() * 1e3),
                format!("{:.0}", r.gflops()),
                format!("{:.3}", r.stats.total_overlap_secs() * 1e3),
                format!("{:.3}", r.stats.total_idle_secs() * 1e3),
            ]
        })
        .collect();
    print!("{}", markdown_table(&header, &cells));
    let sync = rows[0].1.elapsed_secs();
    let overlapped = rows[1].1.elapsed_secs();
    assert!(
        overlapped < sync,
        "overlap must strictly reduce the copy-bound makespan: {overlapped} vs {sync}"
    );
    println!(
        "\noverlap hides {:.1}% of the copy-bound makespan; tighter staging windows",
        (1.0 - overlapped / sync) * 100.0
    );
    println!("(1–2 buffers) trade some of that back for bounded staging memory.");
}

/// Checksum validation: the real execution engine computes bit-identical
/// correlator checksums across overlap/steal settings and worker counts.
fn checksum_validation() {
    println!("\n# Checksum validation — physics is invariant to execution strategy");
    let shape = TensorShape { batch: 2, dim: 16 };
    let stream = WorkloadSpec::new(16, shape.dim)
        .with_batch(shape.batch)
        .with_repeat_rate(0.5)
        .with_vectors(3)
        .with_seed(17)
        .generate();
    let mut reference = None;
    for workers in [1usize, 2, 4] {
        let report = Session::new(MachineConfig::mi100_like(workers))
            .overlap(true)
            .run(&mut RoundRobinScheduler::new(), &stream)
            .expect("workload fits");
        for opts in [
            ExecOptions::default(),
            ExecOptions::default().with_steal(),
            ExecOptions::default().with_steal().with_prefetch(),
        ] {
            let store = TensorStore::new(shape.batch, shape.dim, 17);
            let out = execute_assignments(&stream, &report.assignments, workers, &store, &opts)
                .expect("schedule covers the stream");
            match reference {
                None => reference = Some(out.checksum),
                Some(r) => assert_eq!(
                    out.checksum, r,
                    "checksum diverged: {workers} workers, {opts:?}"
                ),
            }
        }
    }
    println!(
        "checksum {} identical across 1/2/4 workers × {{static, steal, steal+prefetch}}",
        reference.expect("ran")
    );
}

fn main() {
    println!("# Extension — Asynchronous Data Copy (vector 64, tensor {DEFAULT_TENSOR_SIZE}, {DEFAULT_GPUS} GPUs)");
    for (dist, dist_name) in distributions() {
        println!("\n## {dist_name}");
        let mut rows = Vec::new();
        for &rate in &[0.25, 0.5, 0.75] {
            let stream = standard_stream(64, DEFAULT_TENSOR_SIZE, rate, dist, 41);
            let mut cells = vec![format!("{:.0}%", rate * 100.0)];
            let mut elapsed = [[0.0f64; 2]; 2]; // [sched][async]
            for (si, micco) in [false, true].iter().enumerate() {
                for (ai, async_copy) in [false, true].iter().enumerate() {
                    let cost = if *async_copy {
                        CostModel::mi100_like().with_async_copy()
                    } else {
                        CostModel::mi100_like()
                    };
                    let cfg = MachineConfig::mi100_like(DEFAULT_GPUS).with_cost(cost);
                    let point = if *micco {
                        run(
                            &mut MiccoScheduler::new(ReuseBounds::new(0, 2, 0)),
                            &stream,
                            &cfg,
                        )
                    } else {
                        run(&mut GrouteScheduler::new(), &stream, &cfg)
                    };
                    elapsed[si][ai] = point.elapsed_secs;
                    cells.push(format!("{:.0}", point.gflops));
                }
            }
            cells.push(format!("{:.2}x", elapsed[0][0] / elapsed[0][1])); // groute async gain
            cells.push(format!("{:.2}x", elapsed[1][0] / elapsed[1][1])); // micco async gain
            cells.push(format!("{:.2}x", elapsed[0][1] / elapsed[1][1])); // micco vs groute, both async
            rows.push(cells);
        }
        print!(
            "{}",
            markdown_table(
                &[
                    "rate",
                    "Groute sync",
                    "Groute async",
                    "MICCO sync",
                    "MICCO async",
                    "async gain (Groute)",
                    "async gain (MICCO)",
                    "MICCO/Groute (async)"
                ],
                &rows
            )
        );
    }
    println!("\nReading: asynchronous copy hides transfer latency behind kernels for both");
    println!("schedulers; MICCO keeps a speedup even with perfect-overlap hardware because");
    println!("reuse eliminates the transfers outright rather than hiding them.");

    overlap_makespan_study();
    checksum_validation();
}
