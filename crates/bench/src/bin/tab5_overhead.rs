//! Table V — Scheduling overhead.
//!
//! Wall-clock time spent inside MICCO's scheduling decisions — per-vector
//! bound selection (characteristics and regression inference) plus the
//! per-pair placement — vs the total execution time, for a sum of ten
//! vectors (vector size 64, tensor size 384, repeated rate 50 %).
//!
//! Paper reference: 8.27 ms overhead / 4925.73 ms total (Uniform, 0.17 %…
//! the paper quotes 5.4 % including model inference) and 8.52 / 1550.88 ms
//! (Gaussian). The claim under test: the scheduler is *lightweight* —
//! overhead is a vanishing fraction of execution time.

use micco_bench::{
    distributions, standard_stream, trained_model, DEFAULT_GPUS, DEFAULT_TENSOR_SIZE,
};
use micco_core::{MiccoScheduler, Session};
use micco_gpusim::MachineConfig;

fn main() {
    let cfg = MachineConfig::mi100_like(DEFAULT_GPUS);
    eprintln!("# training regression model (one-off)…");
    let model = trained_model(60, &cfg, 7);

    println!("# Table V — Execution Time (ms). Tensor 384, vector 64, rate 50%, 10 vectors.");
    let mut rows = Vec::new();
    for (dist, dist_name) in distributions() {
        let stream = standard_stream(64, DEFAULT_TENSOR_SIZE, 0.5, dist, 29);
        let mut sched = MiccoScheduler::with_provider(model.clone());
        // overhead timing is opt-in since the decide/execute split
        let report = Session::new(cfg)
            .measure_overhead(true)
            .run(&mut sched, &stream)
            .expect("workload fits");
        let overhead_ms = report.scheduling_overhead_secs * 1e3;
        let total_ms = report.elapsed_secs() * 1e3;
        rows.push(vec![
            dist_name.to_string(),
            format!("{overhead_ms:.3}"),
            format!("{total_ms:.2}"),
            format!("{:.2}%", overhead_ms / total_ms * 100.0),
        ]);
    }
    micco_bench::report::emit(
        "tab5_overhead",
        &[
            "Distribution",
            "Scheduling Overhead (ms)",
            "Total Time (ms)",
            "fraction",
        ],
        &rows,
    );
    println!("\nPaper: Uniform 8.27 / 4925.73 ms, Gaussian 8.52 / 1550.88 ms — the");
    println!("reproduction claim is the *ratio* (overhead ≪ total), not absolute ms:");
    println!("the total here is simulated device time while the overhead is real");
    println!("host time, exactly as in the paper's measurement.");
}
