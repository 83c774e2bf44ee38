//! Extension experiment: cross-graph-aware contraction planning.
//!
//! Redstar's milestone reports describe "graph-based contractions with
//! optimal evaluation strategies" — choosing reduction orders that maximise
//! sharing across a correlation function's diagram family. This binary
//! compares per-graph (min-degree) planning against the joint
//! frequency-guided planner on the Table VI presets: unique steps, CSE
//! savings, and the MICCO-scheduled execution time of the resulting
//! streams.

use micco_bench::markdown_table;
use micco_core::{MiccoScheduler, ReuseBounds, Session};
use micco_gpusim::MachineConfig;
use micco_redstar::{al_rhopi, build_correlator, build_correlator_shared, f0d2, f0d4, PresetScale};

fn main() {
    let cfg = MachineConfig::mi100_like(8);
    println!("# Extension — Cross-graph-aware Planning (Table VI presets, 8 GPUs)");
    let mut rows = Vec::new();
    for build in [al_rhopi, f0d2, f0d4] {
        let spec = build(PresetScale::Paper);
        let isolated = build_correlator(&spec);
        let shared = build_correlator_shared(&spec);
        let time = |p: &micco_redstar::CorrelatorProgram| {
            let mut s = MiccoScheduler::new(ReuseBounds::new(0, 2, 0));
            Session::new(cfg)
                .run(&mut s, &p.stream)
                .expect("fits")
                .elapsed_secs()
        };
        let ti = time(&isolated);
        let ts = time(&shared);
        rows.push(vec![
            spec.name.clone(),
            format!(
                "{} ({:.1}%)",
                isolated.unique_steps,
                isolated.cse_savings() * 100.0
            ),
            format!(
                "{} ({:.1}%)",
                shared.unique_steps,
                shared.cse_savings() * 100.0
            ),
            format!("{:.2}x", ti / ts),
        ]);
    }
    print!(
        "{}",
        markdown_table(
            &[
                "correlator",
                "unique steps, per-graph planning (CSE)",
                "unique steps, joint planning (CSE)",
                "MICCO time gain"
            ],
            &rows
        )
    );
    println!("\nJoint planning steers every diagram toward the same intermediates, so more");
    println!("steps collapse before the scheduler ever sees them — less work beats faster");
    println!("placement of the same work.");
}
