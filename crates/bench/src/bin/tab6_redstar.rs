//! Table VI — Real many-body correlation functions in the Redstar system.
//!
//! The three correlators of the `a1` and `f0` systems (al_rhopi, f0d2,
//! f0d4), built by the `micco-redstar` front end across sixteen time
//! slices, scheduled on eight GPUs. Groute vs MICCO.
//!
//! Paper reference: tensor sizes 128/256/256; total device memory 56 GB /
//! 4645 GB / 4065 GB; speedups 1.49× / 1.41× / 1.36×. Our front end
//! reproduces the structure (operator content, momentum sweep, 16 slices,
//! cross-diagram sharing) at reproduction scale; the claim under test is
//! that MICCO's gains carry from synthetic streams to Redstar-shaped ones.

use micco_core::{GrouteScheduler, MiccoScheduler, ReuseBounds, Session};
use micco_gpusim::MachineConfig;
use micco_redstar::{al_rhopi, build_correlator, f0d2, f0d4, PresetScale};

fn main() {
    let cfg = MachineConfig::mi100_like(8);
    println!("# Table VI — Real Many-body Correlation Functions (8 GPUs, 16 time slices)");
    let mut rows = Vec::new();
    let paper = [("al_rhopi", 1.49), ("f0d2", 1.41), ("f0d4", 1.36)];
    for (build, (pname, pspeed)) in [al_rhopi as fn(PresetScale) -> _, f0d2, f0d4]
        .iter()
        .zip(paper)
    {
        let spec = build(PresetScale::Paper);
        eprintln!("# building {} (this enumerates every diagram)…", spec.name);
        let program = build_correlator(&spec);
        // Size memory to the per-vector peak so the large correlators run
        // under pressure, as the paper's 4.6 TB jobs do on 8×32 GB.
        let cfg_run = cfg.with_oversubscription(program.stream.peak_vector_bytes() * 2, 1.0);
        let groute = Session::new(cfg_run)
            .run(&mut GrouteScheduler::new(), &program.stream)
            .expect("fits");
        // MICCO with the small-bounds setting that Fig. 8 favours; real
        // Redstar deployments would use the regression model identically.
        let mut micco = MiccoScheduler::new(ReuseBounds::new(0, 2, 0));
        let m = Session::new(cfg_run)
            .run(&mut micco, &program.stream)
            .expect("fits");
        let speedup = groute.elapsed_secs() / m.elapsed_secs();
        rows.push(vec![
            spec.name.clone(),
            spec.tensor_dim.to_string(),
            format!(
                "{:.2} GiB",
                program.working_set_bytes as f64 / (1u64 << 30) as f64
            ),
            format!("{}", program.graph_count),
            format!("{:.1}%", program.cse_savings() * 100.0),
            format!("{speedup:.2}x"),
            format!("{pspeed:.2}x ({pname})"),
        ]);
    }
    micco_bench::report::emit(
        "tab6_redstar",
        &[
            "Function",
            "Tensor Size",
            "Memory Cost",
            "Graphs",
            "CSE savings",
            "Speedup",
            "Paper speedup",
        ],
        &rows,
    );
    println!("\nMemory cost is at reproduction scale (batch 4 instead of the production");
    println!("dilution count); the structure — graphs, sharing, stage shape — is faithful.");
}
