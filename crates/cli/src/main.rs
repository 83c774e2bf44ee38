//! `micco` — command-line driver for the MICCO reproduction.
//!
//! Every command that builds a request reads one `SessionConfig`, spelled
//! as flags or as a `--config FILE` JSON document (the body `micco serve`
//! accepts), and plans through `Session`:
//!
//! ```text
//! micco run     --vector-size 64 --tensor-size 384 --rate 0.5 \
//!               --dist gaussian --vectors 10 --gpus 8 --scheduler micco --bounds 0,2,0
//! micco plan    --config request.json --out plan.txt
//! micco execute --config request.json --plan plan.txt --backend real
//! micco redstar --preset al_rhopi --scale ci --gpus 8
//! micco train   --samples 40 --seed 7
//! micco cluster --nodes 2 --gpus-per-node 4
//! micco info
//! ```
//!
//! A flag the command does not read is an error that names it. The
//! paper's parameter sweeps are the `micco-bench` binaries (`fig7_overall`
//! … `fig11_oversub`, `baselines_matrix`); one row of any of them is one
//! `micco run`.

mod args;
mod commands;

use std::process::ExitCode;

fn main() -> ExitCode {
    let raw: Vec<String> = std::env::args().skip(1).collect();
    let parsed = match args::Args::parse(raw) {
        Ok(a) => a,
        Err(e) => {
            // a stray positional breaks the grammar as an unknown flag does
            eprintln!("error: {e}");
            eprintln!();
            eprintln!("{}", commands::USAGE);
            return ExitCode::FAILURE;
        }
    };
    match commands::dispatch(&parsed) {
        Ok(()) => ExitCode::SUCCESS,
        Err(commands::Failure::Usage(e)) => {
            eprintln!("error: {e}");
            eprintln!();
            eprintln!("{}", commands::USAGE);
            ExitCode::FAILURE
        }
        Err(commands::Failure::Command(e)) => {
            eprintln!("error: {e}");
            ExitCode::FAILURE
        }
    }
}
