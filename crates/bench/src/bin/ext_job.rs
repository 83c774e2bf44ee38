//! Extension experiment: multi-correlator jobs.
//!
//! Production Redstar campaigns evaluate many correlation functions against
//! the same gauge configurations in one session; operators (pions are
//! everywhere) and whole sub-chains recur *across* correlators. This binary
//! compares running the three Table VI correlators separately vs as one
//! jointly-planned job, and prints the Fig. 4 mapping histograms showing
//! where the savings come from.

use micco_bench::markdown_table;
use micco_core::{mapping_histogram, MiccoScheduler, ReuseBounds, Session};
use micco_gpusim::MachineConfig;
use micco_redstar::{al_rhopi, build_correlator, build_job, f0d2, f0d4, PresetScale};

fn main() {
    let cfg = MachineConfig::mi100_like(8);
    let specs = vec![
        al_rhopi(PresetScale::Paper),
        f0d2(PresetScale::Paper),
        f0d4(PresetScale::Paper),
    ];

    println!("# Extension — Multi-correlator Job (Table VI presets together, 8 GPUs)");
    let mut rows = Vec::new();
    let mut separate_steps = 0usize;
    let mut separate_secs = 0.0;
    for spec in &specs {
        let program = build_correlator(spec);
        let mut micco = MiccoScheduler::new(ReuseBounds::new(0, 2, 0));
        let r = Session::new(cfg)
            .run(&mut micco, &program.stream)
            .expect("fits");
        separate_steps += program.unique_steps;
        separate_secs += r.elapsed_secs();
        let hist = mapping_histogram(&program.stream, &r.assignments, &cfg);
        rows.push(vec![
            program.name.clone(),
            program.unique_steps.to_string(),
            format!("{:.2}", r.elapsed_secs() * 1e3),
            format!("{:.1}%", hist.m1_fraction() * 100.0),
            format!("{:.2}", hist.mean_memory_ops()),
        ]);
    }
    let job = build_job(&specs);
    let mut micco = MiccoScheduler::new(ReuseBounds::new(0, 2, 0));
    let rj = Session::new(cfg)
        .run(&mut micco, &job.stream)
        .expect("fits");
    let hist = mapping_histogram(&job.stream, &rj.assignments, &cfg);
    rows.push(vec![
        format!("JOB: {}", job.name),
        job.unique_steps.to_string(),
        format!("{:.2}", rj.elapsed_secs() * 1e3),
        format!("{:.1}%", hist.m1_fraction() * 100.0),
        format!("{:.2}", hist.mean_memory_ops()),
    ]);
    print!(
        "{}",
        markdown_table(
            &[
                "program",
                "unique steps",
                "MICCO time (ms)",
                "mapping (1) share",
                "mean mem-ops"
            ],
            &rows
        )
    );
    println!(
        "\nseparate: {} steps in {:.2} ms | job: {} steps in {:.2} ms → {:.2}x end-to-end",
        separate_steps,
        separate_secs * 1e3,
        job.unique_steps,
        rj.elapsed_secs() * 1e3,
        separate_secs / rj.elapsed_secs(),
    );
    println!("\nThe win comes from the front end, not the scheduler: joint frequency-guided");
    println!("planning eliminates whole steps (shared sub-chains are computed once for the");
    println!("entire job), so the machine simply has less work. The mapping histogram of");
    println!("the surviving steps stays comparable — reuse that used to be a repeated");
    println!("computation became no computation at all.");
}
