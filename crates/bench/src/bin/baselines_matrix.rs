//! Scheduler comparison matrix: every scheduler in the repository on the
//! standard configuration grid — a one-stop overview complementing the
//! per-figure binaries (which stick to the paper's Groute-vs-MICCO framing).
//!
//! Schedulers: round-robin, Groute-like (earliest available device),
//! CODA-like (static compute-follows-data), MICCO-naive (bounds 0),
//! MICCO fixed (0,2,0), MICCO unbounded (pure data-centric, Fig. 2 case ①).

use micco_bench::{distributions, run, standard_stream, DEFAULT_GPUS, DEFAULT_TENSOR_SIZE};
use micco_core::{
    CodaScheduler, GrouteScheduler, MiccoScheduler, ReuseBounds, RoundRobinScheduler, Scheduler,
};
use micco_gpusim::MachineConfig;

fn contenders() -> Vec<Box<dyn Scheduler>> {
    vec![
        Box::new(RoundRobinScheduler::new()),
        Box::new(GrouteScheduler::new()),
        Box::new(CodaScheduler::new()),
        Box::new(MiccoScheduler::naive()),
        Box::new(MiccoScheduler::new(ReuseBounds::new(0, 2, 0))),
        Box::new(MiccoScheduler::new(ReuseBounds::unbounded())),
    ]
}

fn main() {
    let cfg = MachineConfig::mi100_like(DEFAULT_GPUS);
    println!(
        "# Scheduler Matrix (GFLOPS; vector 64, tensor {DEFAULT_TENSOR_SIZE}, {DEFAULT_GPUS} GPUs)"
    );
    let names: Vec<String> = contenders().iter().map(|s| s.name()).collect();
    let mut won = vec![0usize; names.len()];
    let mut lost = vec![0usize; names.len()];
    let mut cells = 0;
    for (dist, dist_name) in distributions() {
        println!("\n## {dist_name}");
        let headers: Vec<&str> = std::iter::once("rate")
            .chain(names.iter().map(String::as_str))
            .collect();
        let mut rows = Vec::new();
        for &rate in &[0.25, 0.5, 0.75, 1.0] {
            let stream = standard_stream(64, DEFAULT_TENSOR_SIZE, rate, dist, 71);
            let gflops: Vec<String> = contenders()
                .iter_mut()
                .map(|s| format!("{:.0}", run(s.as_mut(), &stream, &cfg).gflops))
                .collect();
            tally(&gflops, &mut won, &mut lost);
            cells += 1;
            rows.push(
                std::iter::once(format!("{:.0}%", rate * 100.0))
                    .chain(gflops)
                    .collect(),
            );
        }
        micco_bench::report::emit(
            &format!("baselines_{}", dist_name.to_lowercase()),
            &headers,
            &rows,
        );
    }
    let counts = |of: &[usize]| {
        names
            .iter()
            .zip(of)
            .map(|(name, n)| format!("{name} {n}"))
            .collect::<Vec<_>>()
            .join(", ")
    };
    println!("\nReading, counted from the tables above (a row is won by its highest");
    println!("GFLOPS and lost by its lowest, as printed; a tie counts for each):");
    println!("- rows won of {cells}: {}", counts(&won));
    println!("- rows lost of {cells}: {}", counts(&lost));
}

/// Count the columns holding a row's highest and lowest printed GFLOPS.
fn tally(gflops: &[String], won: &mut [usize], lost: &mut [usize]) {
    let values: Vec<f64> = gflops
        .iter()
        .map(|g| g.parse().expect("a printed GFLOPS value parses back"))
        .collect();
    let best = values.iter().copied().fold(f64::NEG_INFINITY, f64::max);
    let worst = values.iter().copied().fold(f64::INFINITY, f64::min);
    for (v, (w, l)) in values.iter().zip(won.iter_mut().zip(lost.iter_mut())) {
        *w += usize::from(*v == best);
        *l += usize::from(*v == worst);
    }
}
