//! `perfbench`: the MICCO stack's end-to-end benchmark.
//!
//! ```text
//! perfbench --workload <oversub_cold|store_cold|store_warm|real_verify>
//!           --seed N --seconds S --trace 0|1 [--smoke] [--work-dir DIR]
//! ```
//!
//! Every workload is a closed loop over a seeded job list. With
//! `--trace 0` the run reports the end-to-end metrics; with `--trace 1`
//! a separate run replays the same list, records spans around every call
//! the benchmark makes into a layer, and reports the per-layer ledger.
//! The last line of standard output is one JSON object:
//! `{"correct", "attempted", "failed", "metrics"}`.

mod jobs;
mod layers;
mod probe;
mod real;
mod served;

use std::collections::BTreeMap;
use std::fmt;
use std::path::PathBuf;
use std::process::ExitCode;
use std::time::{Duration, Instant};

use jobs::Workload;
use micco_core::ScheduleReport;
use probe::SpanLog;

/// End-to-end metrics (`--trace 0`): name and unit.
const END_TO_END: &[(&str, &str)] = &[
    ("setup_s", "s"),
    ("jobs_per_s", "1/s"),
    ("latency_p50_ms", "ms"),
    ("cpu_ms_per_job", "ms"),
    ("sim_gflops", "GFLOP/s"),
    ("peak_rss_mb", "MB"),
];

/// Per-layer metrics (`--trace 1`): name and unit. A layer a workload
/// does not load reports 0.
const PER_LAYER: &[(&str, &str)] = &[
    ("gpusim.shadow_ms", "ms"),
    ("gpusim.replay_ms", "ms"),
    ("gpusim.served_replay_ms", "ms"),
    ("gpusim.evictions", "count"),
    ("gpusim.transfers", "count"),
    ("gpusim.reuse_ratio", "ratio"),
    ("core.plan_ms", "ms"),
    ("core.assign_ms", "ms"),
    ("core.served_plan_ms", "ms"),
    ("core.lock_wait_ms", "ms"),
    ("store.put_ms", "ms"),
    ("store.bytes_per_plan", "B"),
    ("store.lookup_ms", "ms"),
    ("store.log_lookup_ms", "ms"),
    ("store.hit_ratio", "ratio"),
    ("store.recovery_ms", "ms"),
    ("serve.submit_ms", "ms"),
    ("serve.result_ms", "ms"),
    ("serve.wait_ms", "ms"),
    ("serve.unattributed_ms", "ms"),
    ("serve.ledger_residual_ms", "ms"),
    ("serve.ledger_max_excess_ms", "ms"),
    ("serve.latency_p90_ms", "ms"),
    ("serve.samples", "count"),
    ("serve.failed", "count"),
    ("workload.gen_ms", "ms"),
    ("workload.tasks", "count"),
    ("exec.wall_ms", "ms"),
    ("exec.busy_frac", "ratio"),
    ("exec.steals", "count"),
    ("tensor.kernel_gflops", "GFLOP/s"),
    ("tensor.alone_gflops", "GFLOP/s"),
    ("analysis.lint_ms", "ms"),
    ("analysis.certify_ms", "ms"),
    ("analysis.errors", "count"),
    ("obs.events", "count"),
    ("trace.overhead_ms", "ms"),
    ("host.steal_ticks", "count"),
];

/// How many times set-up runs in a timed run; `setup_s` is the median.
const SETUP_REPEATS: usize = 5;

/// Jobs per window of a `--smoke` run.
const SMOKE_JOBS: u64 = 6;

/// When a closed-loop window stops taking new jobs: at a deadline or
/// before a job-list index, whichever comes first.
#[derive(Clone, Copy)]
pub struct Stop {
    deadline: Option<Instant>,
    end: Option<u64>,
}

impl Stop {
    /// Whether job `index`, about to start, falls past the stop.
    pub fn reached(self, index: u64) -> bool {
        self.end.is_some_and(|end| index >= end)
            || self.deadline.is_some_and(|d| Instant::now() >= d)
    }
}

/// Parsed command line.
pub struct Args {
    /// Which workload to run.
    pub workload: Workload,
    /// Seed of the job list.
    pub seed: u64,
    /// Length of the timed window.
    pub window: Duration,
    /// Traced run (per-layer metrics) instead of the end-to-end one.
    pub trace: bool,
    /// Fixed small job count instead of a timed window (self-test).
    pub smoke: bool,
    /// Scratch directory for stores and the span log.
    pub work_dir: PathBuf,
}

impl Args {
    fn parse(mut argv: impl Iterator<Item = String>) -> Result<Args, String> {
        let (mut workload, mut seed, mut seconds, mut trace) = (None, None, None, None);
        let (mut smoke, mut work_dir) = (false, PathBuf::from(".perfbench"));
        while let Some(flag) = argv.next() {
            if flag == "--smoke" {
                smoke = true;
                continue;
            }
            let value = argv.next().ok_or_else(|| format!("{flag} needs a value"))?;
            match flag.as_str() {
                "--workload" => {
                    workload = Some(
                        Workload::parse(&value)
                            .ok_or_else(|| format!("unknown workload {value}"))?,
                    )
                }
                "--seed" => {
                    seed = Some(
                        value
                            .parse::<u64>()
                            .map_err(|_| format!("bad --seed {value}"))?,
                    )
                }
                "--seconds" => {
                    seconds = Some(
                        value
                            .parse::<f64>()
                            .map_err(|_| format!("bad --seconds {value}"))?,
                    )
                }
                "--trace" => {
                    trace = Some(match value.as_str() {
                        "0" => false,
                        "1" => true,
                        _ => return Err(format!("--trace takes 0 or 1, not {value}")),
                    })
                }
                "--work-dir" => work_dir = PathBuf::from(value),
                _ => return Err(format!("unknown flag {flag}")),
            }
        }
        let seconds = seconds.ok_or("--seconds is required")?;
        if !(seconds > 0.0 && seconds <= 120.0) {
            return Err(format!("--seconds must be in (0, 120], not {seconds}"));
        }
        Ok(Args {
            workload: workload.ok_or("--workload is required")?,
            seed: seed.ok_or("--seed is required")?,
            window: Duration::from_secs_f64(seconds),
            trace: trace.ok_or("--trace is required")?,
            smoke,
            work_dir,
        })
    }

    /// Where a window of `w` starting at job-list index `next` stops:
    /// after `len` or the workload's job cap for `len`, whichever comes
    /// first, or after a fixed job count on a smoke run.
    pub fn stop(&self, w: Workload, next: u64, len: Duration) -> Stop {
        if self.smoke {
            Stop {
                deadline: None,
                end: Some(next + SMOKE_JOBS),
            }
        } else {
            Stop {
                deadline: Some(Instant::now() + len),
                end: w.job_cap(len).map(|cap| next + cap),
            }
        }
    }

    /// Write a traced run's span log and print each span name's median
    /// self time.
    pub fn write_spans(&self, spans: &SpanLog) {
        let path = self
            .work_dir
            .join(format!("spans-{}.jsonl", self.workload.name()));
        if let Err(e) = std::fs::write(&path, spans.to_jsonl()) {
            eprintln!("perfbench: cannot write {}: {e}", path.display());
        }
        for (name, self_ms) in spans.self_ms_by_name() {
            eprintln!("perfbench: self time {name}: {self_ms:.3} ms (median)");
        }
    }

    /// Set-up repetitions `(before, after)` the timed window: several
    /// on a timed run, spread over it so that their median samples the
    /// host across the run as the window does; one otherwise.
    pub fn setup_repeats(&self) -> (usize, usize) {
        if self.trace || self.smoke {
            (1, 0)
        } else {
            (SETUP_REPEATS.div_ceil(2), SETUP_REPEATS / 2)
        }
    }
}

/// What simulating one job produced. Two runs of one config agree bit
/// for bit, whichever path decided the plan.
#[derive(Debug, PartialEq)]
pub struct SimOutcome {
    scheduler: String,
    gflops_bits: u64,
    elapsed_ms_bits: u64,
    tasks: usize,
}

impl SimOutcome {
    /// From the fields a served result or a flow reports.
    pub fn new(scheduler: &str, gflops: f64, sim_elapsed_ms: f64, tasks: usize) -> SimOutcome {
        SimOutcome {
            scheduler: scheduler.to_owned(),
            gflops_bits: gflops.to_bits(),
            elapsed_ms_bits: sim_elapsed_ms.to_bits(),
            tasks,
        }
    }

    /// From a simulator report.
    pub fn of_report(report: &ScheduleReport) -> SimOutcome {
        SimOutcome::new(
            &report.scheduler,
            report.gflops(),
            report.elapsed_secs() * 1e3,
            report.stats.total_tasks() as usize,
        )
    }

    /// Simulated throughput.
    pub fn gflops(&self) -> f64 {
        f64::from_bits(self.gflops_bits)
    }

    /// `Ok` when `self` equals `expected`, else both sides.
    pub fn expect(&self, expected: &SimOutcome) -> Result<(), String> {
        if self == expected {
            Ok(())
        } else {
            Err(format!("got {self} but expected {expected}"))
        }
    }
}

impl fmt::Display for SimOutcome {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        write!(
            f,
            "{} GFLOP/s in {} ms over {} tasks ({})",
            self.gflops(),
            f64::from_bits(self.elapsed_ms_bits),
            self.tasks,
            self.scheduler
        )
    }
}

/// What one run measured and what its checks found.
#[derive(Default)]
pub struct Outcome {
    /// Jobs (or flows) submitted, warm-up and pre-fill included.
    pub attempted: u64,
    /// Refused at admission.
    pub rejected: u64,
    /// Ended in an error or a non-done state.
    pub failed: u64,
    /// Completed with a result that failed a check.
    pub wrong: u64,
    /// Run-level check failures (closure, ledger, counters).
    pub problems: Vec<String>,
    /// Measured values by metric name.
    pub metrics: BTreeMap<&'static str, f64>,
}

impl Outcome {
    /// Record a metric value.
    pub fn set(&mut self, name: &'static str, value: f64) {
        self.metrics.insert(name, value);
    }

    /// The end-to-end metrics of a timed window (and the p90 diagnostic):
    /// per-job latencies and simulated GFLOP/s of the completed jobs, the
    /// window's wall and CPU seconds, and the set-up times.
    pub fn end_to_end(
        &mut self,
        setups: &[f64],
        latencies: &[f64],
        gflops: &[f64],
        wall_secs: f64,
        cpu_secs: f64,
    ) {
        let n = latencies.len() as f64;
        self.set("setup_s", probe::median(setups));
        self.set("jobs_per_s", n / wall_secs);
        self.set("latency_p50_ms", probe::median(latencies));
        self.set("cpu_ms_per_job", cpu_secs * 1e3 / n);
        self.set("sim_gflops", probe::mean(gflops));
        self.set("peak_rss_mb", probe::peak_rss_mb());
        self.set("serve.latency_p90_ms", probe::percentile(latencies, 90.0));
        self.set("serve.samples", n);
    }

    /// Record a run-level check failure.
    pub fn problem(&mut self, msg: impl Into<String>) {
        self.problems.push(msg.into());
    }

    fn correct(&self) -> bool {
        self.problems.is_empty() && self.rejected + self.failed + self.wrong == 0
    }

    /// The result line: the metric set the run kind reports, with units.
    fn to_json(&self, trace: bool) -> String {
        let table = if trace { PER_LAYER } else { END_TO_END };
        let metrics: Vec<String> = table
            .iter()
            .map(|(name, unit)| {
                let value = self.metrics.get(name).copied().unwrap_or(0.0);
                let value = if value.is_finite() { value } else { 0.0 };
                format!("\"{name}\": {{\"value\": {value}, \"unit\": \"{unit}\"}}")
            })
            .collect();
        format!(
            "{{\"correct\": {}, \"attempted\": {}, \"failed\": {}, \"metrics\": {{{}}}}}",
            self.correct(),
            self.attempted,
            self.rejected + self.failed + self.wrong,
            metrics.join(", ")
        )
    }
}

fn main() -> ExitCode {
    let args = match Args::parse(std::env::args().skip(1)) {
        Ok(a) => a,
        Err(msg) => {
            eprintln!("perfbench: {msg}");
            return ExitCode::from(2);
        }
    };
    if let Err(e) = std::fs::create_dir_all(&args.work_dir) {
        eprintln!("perfbench: create {}: {e}", args.work_dir.display());
        return ExitCode::FAILURE;
    }
    let steal_before = probe::steal_ticks();
    let result = match args.workload {
        Workload::RealVerify => real::run(&args),
        w => served::run(w, &args),
    };
    let mut outcome = match result {
        Ok(o) => o,
        Err(msg) => {
            eprintln!("perfbench: {}: {msg}", args.workload.name());
            return ExitCode::FAILURE;
        }
    };
    let steal = probe::steal_ticks().saturating_sub(steal_before);
    outcome.set("host.steal_ticks", steal as f64);
    // ungated diagnostics: never used to drop or adjust a run
    println!(
        "# {} seed {}: p90 {:.3} ms over {} samples, host steal ticks {steal}, \
         available parallelism {}, attempted {} rejected {} failed {} wrong {}",
        args.workload.name(),
        args.seed,
        outcome.metrics.get("serve.latency_p90_ms").unwrap_or(&0.0),
        outcome.metrics.get("serve.samples").unwrap_or(&0.0),
        std::thread::available_parallelism().map_or(0, |n| n.get()),
        outcome.attempted,
        outcome.rejected,
        outcome.failed,
        outcome.wrong,
    );
    for p in &outcome.problems {
        eprintln!("perfbench: check failed: {p}");
    }
    println!("{}", outcome.to_json(args.trace));
    ExitCode::SUCCESS
}
