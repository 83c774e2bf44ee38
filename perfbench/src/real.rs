//! `real_verify`: one flow at a time, no daemon. Each flow plans a job,
//! lints the plan, replays it on the simulator, runs it with real
//! kernels on worker threads under a trace recorder, and certifies the
//! recorded trace against the plan.

use std::hint::black_box;
use std::time::{Duration, Instant};

use micco_analysis::{analyze_plan, certify_trace};
use micco_core::{SchedulePlan, SessionConfig};
use micco_exec::{execute_assignments, execute_plan, ExecOptions, Recorder, TensorStore};
use micco_gpusim::GpuId;
use micco_tensor::{contraction_flops, BatchedMatrix, Complex64, ContractionKind};

use crate::jobs::Workload;
use crate::layers::{Calls, Job, LayerSamples};
use crate::probe::{self, mean, median, SpanLog};
use crate::{Args, Outcome, SimOutcome};

/// Flows whose checksum is re-computed on a single worker after the
/// window; it must match bit for bit.
const CHECK_SAMPLE: u64 = 2;

/// What one flow produced and how long each of its calls took.
struct Flow {
    calls: Calls,
    sim: SimOutcome,
    report: micco_core::ScheduleReport,
    assign_ms: f64,
    errors: usize,
    tasks: usize,
    kernels: usize,
    flops: f64,
    busy_secs: f64,
    workers: usize,
    steals: usize,
    events: usize,
    checksum: Complex64,
    /// Kept for the single-worker check.
    plan: Option<SchedulePlan>,
}

impl Flow {
    fn latency_ms(&self) -> f64 {
        self.calls.total_ms()
    }
}

fn flow(cfg: &SessionConfig, keep_plan: bool) -> Result<Flow, String> {
    let err = |e: &dyn std::fmt::Display| e.to_string();
    let mut calls = Calls::default();
    let mut job = Job::generate(cfg, &mut calls)?;
    let planned = job.plan(&mut calls)?;
    let machine = cfg.machine(&job.stream);
    let lint = calls.time("analysis.lint", || {
        analyze_plan(planned.plan(), &job.stream, &machine)
    });
    let report = job.replay(&planned, &mut calls)?;
    let recorder = Recorder::shared();
    let mut opts = ExecOptions::default().with_trace(recorder.clone());
    if cfg.steal {
        opts = opts.with_steal();
    }
    if cfg.prefetch {
        opts = opts.with_prefetch();
    }
    let store = TensorStore::new(cfg.batch, cfg.tensor_size, cfg.seed);
    let out = calls
        .time("exec.execute_plan", || {
            execute_plan(&job.stream, planned.plan(), &store, &opts)
        })
        .map_err(|e| err(&e))?;
    let (events, cert) = calls.time("analysis.certify", || {
        let events = recorder.events();
        let cert = certify_trace(planned.plan(), &job.stream, &machine, &events);
        (events.len(), cert)
    });
    Ok(Flow {
        calls,
        sim: SimOutcome::of_report(&report),
        report,
        assign_ms: planned.plan().overhead_secs * 1e3,
        errors: lint.errors() + cert.errors(),
        tasks: job.stream.total_tasks(),
        kernels: out.kernels,
        flops: job.stream.total_flops() as f64,
        busy_secs: out.per_worker_busy_secs.iter().sum(),
        workers: out.per_worker_busy_secs.len(),
        steals: out.steals,
        events,
        checksum: out.checksum,
        plan: keep_plan.then(|| planned.into_plan()),
    })
}

/// Count one flow and check what it can show on its own: every kernel
/// ran, and lint and certify found no errors.
fn tally(index: u64, flow: &Result<Flow, String>, out: &mut Outcome) {
    out.attempted += 1;
    match flow {
        Err(msg) => {
            out.failed += 1;
            eprintln!("perfbench: flow {index} failed: {msg}");
        }
        Ok(f) if f.kernels != f.tasks || f.errors > 0 => {
            out.wrong += 1;
            eprintln!(
                "perfbench: flow {index} wrong: {} of {} kernels, {} lint/certify errors",
                f.kernels, f.tasks, f.errors
            );
        }
        Ok(_) => {}
    }
}

/// The same plan on a single worker must give the same checksum, and the
/// simulator replay must equal `SessionConfig::run` for the config.
fn check(cfg: &SessionConfig, f: &Flow) -> Result<(), String> {
    let err = |e: &dyn std::fmt::Display| e.to_string();
    let plan = f.plan.as_ref().ok_or("plan not kept")?;
    let stream = cfg.stream().map_err(|e| err(&e))?;
    let mut one = plan.flat_assignments();
    for a in &mut one {
        a.gpu = GpuId(0);
    }
    let store = TensorStore::new(cfg.batch, cfg.tensor_size, cfg.seed);
    let single = execute_assignments(&stream, &one, 1, &store, &ExecOptions::default())
        .map_err(|e| err(&e))?;
    if single.checksum != f.checksum {
        return Err(format!(
            "checksum {:?} on {} workers but {:?} on one",
            f.checksum, f.workers, single.checksum
        ));
    }
    let report = cfg.run().map_err(|e| err(&e))?;
    f.sim.expect(&SimOutcome::of_report(&report))
}

/// Flows of one closed-loop window.
struct Window {
    flows: Vec<Flow>,
    wall_secs: f64,
    cpu_secs: f64,
}

fn window(
    args: &Args,
    next: &mut u64,
    len: Duration,
    mut log: Option<&mut SpanLog>,
    out: &mut Outcome,
) -> Window {
    let w = Workload::RealVerify;
    let stop = args.stop(w, *next, len);
    let cpu0 = probe::process_cpu_secs();
    let t0 = Instant::now();
    let mut results = Vec::new();
    while !stop.reached(*next) {
        let index = *next;
        *next += 1;
        let cfg = w.job(args.seed, index);
        results.push((index, flow(&cfg, index < CHECK_SAMPLE)));
    }
    let wall_secs = t0.elapsed().as_secs_f64();
    let cpu_secs = probe::process_cpu_secs() - cpu0;
    let mut flows = Vec::new();
    for (index, result) in results {
        tally(index, &result, out);
        if let Ok(f) = result {
            if let Some(log) = log.as_deref_mut() {
                f.calls.log(log, "flow", index);
            }
            if f.plan.is_some() {
                if let Err(msg) = check(&w.job(args.seed, index), &f) {
                    out.wrong += 1;
                    eprintln!("perfbench: flow {index} wrong: {msg}");
                }
            }
            flows.push(f);
        }
    }
    Window {
        flows,
        wall_secs,
        cpu_secs,
    }
}

/// One `micco-tensor` batched kernel of the flows' shape, alone in a
/// loop: the reference the executor's kernel throughput is read against.
fn kernel_alone_gflops(cfg: &SessionConfig) -> f64 {
    let (batch, n) = (cfg.batch, cfg.tensor_size);
    let a = BatchedMatrix::from_fn(batch, n, |b, i, j| {
        Complex64::new((b + i) as f64 * 0.5, j as f64 * 0.25)
    });
    let b = BatchedMatrix::from_fn(batch, n, |b, i, j| {
        Complex64::new(j as f64 * 0.125, (b + i) as f64)
    });
    let reps = cfg.vector_size * cfg.vectors;
    let t = Instant::now();
    for _ in 0..reps {
        let _ = black_box(black_box(&a).matmul(black_box(&b)));
    }
    let flops = reps as f64 * contraction_flops(ContractionKind::Meson, batch, n) as f64;
    flops / t.elapsed().as_secs_f64() / 1e9
}

/// Run `real_verify`; see [`crate::Args`].
pub fn run(args: &Args) -> Result<Outcome, String> {
    let w = Workload::RealVerify;
    let mut out = Outcome::default();
    // no daemon or store: set-up is the warm-up flows
    let setup = |out: &mut Outcome| {
        let t = Instant::now();
        let warm: Vec<_> = (0..w.warmup_jobs() as u64)
            .map(|j| (j, flow(&w.warmup(args.seed, j), false)))
            .collect();
        let secs = t.elapsed().as_secs_f64();
        for (j, f) in &warm {
            tally(*j, f, out);
        }
        secs
    };
    let (before, after) = args.setup_repeats();
    let mut setups: Vec<f64> = (0..before).map(|_| setup(&mut out)).collect();
    let mut next = 0;
    let epoch = Instant::now();
    let timed = if args.trace {
        let half = args.window / 2;
        let plain = window(args, &mut next, half, None, &mut out);
        let mut log = SpanLog::new(epoch);
        let traced = window(args, &mut next, half, Some(&mut log), &mut out);
        let p50 =
            |win: &Window| median(&win.flows.iter().map(Flow::latency_ms).collect::<Vec<_>>());
        out.set("trace.overhead_ms", p50(&traced) - p50(&plain));
        per_layer(&traced, &mut out);
        out.set(
            "tensor.alone_gflops",
            kernel_alone_gflops(&w.job(args.seed, 0)),
        );
        args.write_spans(&log);
        traced
    } else {
        window(args, &mut next, args.window, None, &mut out)
    };
    setups.extend((0..after).map(|_| setup(&mut out)));
    let lat: Vec<f64> = timed.flows.iter().map(Flow::latency_ms).collect();
    let gflops: Vec<f64> = timed.flows.iter().map(|f| f.sim.gflops()).collect();
    out.end_to_end(&setups, &lat, &gflops, timed.wall_secs, timed.cpu_secs);
    Ok(out)
}

/// The layers a flow calls, from the traced window.
fn per_layer(win: &Window, out: &mut Outcome) {
    let flows = &win.flows;
    let mut layers = LayerSamples::default();
    for f in flows {
        layers.add(&f.calls, Some(f.assign_ms), &f.report, f.tasks);
    }
    layers.report(out);
    let med = |f: &dyn Fn(&Flow) -> f64| median(&flows.iter().map(f).collect::<Vec<_>>());
    let avg = |f: &dyn Fn(&Flow) -> f64| mean(&flows.iter().map(f).collect::<Vec<_>>());
    out.set("exec.wall_ms", layers.median_ms("exec.execute_plan"));
    out.set(
        "exec.busy_frac",
        med(&|f| f.busy_secs * 1e3 / (f.workers as f64 * f.calls.ms("exec.execute_plan"))),
    );
    out.set("exec.steals", avg(&|f| f.steals as f64));
    out.set(
        "tensor.kernel_gflops",
        med(&|f| f.flops / f.busy_secs / 1e9),
    );
    out.set("analysis.lint_ms", layers.median_ms("analysis.lint"));
    out.set("analysis.certify_ms", layers.median_ms("analysis.certify"));
    out.set(
        "analysis.errors",
        flows.iter().map(|f| f.errors as f64).sum(),
    );
    out.set("obs.events", avg(&|f| f.events as f64));
}
