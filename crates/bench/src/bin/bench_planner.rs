//! Planner throughput benchmark with a machine-readable report.
//!
//! Plans the same workload twice — once with the fast planner
//! (`Session::plan`: interned IDs, SoA machine state, holder bitsets) and
//! once with the retained seed reference (`plan_schedule_seed`, the
//! frozen map-based machine) — asserts the two plans are
//! **byte-identical**, and writes `BENCH_planner.json` with tasks/sec for
//! both paths, the speedup, the planning pass's eviction count, and peak
//! RSS.
//!
//! Usage:
//!   bench_planner [--tasks N] [--gpus G] [--oversub F] [--out PATH] [--skip-seed]
//!
//! Defaults are the full acceptance point (1,000,000 tasks on 64 GPUs);
//! CI smoke runs use `--tasks 20000 --gpus 8`, once as is and once with
//! `--oversub 2`. `--oversub F` sizes device memory so the stream's
//! working set oversubscribes it `F`-fold, so both planners pick eviction
//! victims (the seed reference by its frozen map scan); the default 0
//! keeps the full 32 GiB per device. `--skip-seed` omits the slow
//! reference pass (speedup is then reported as null).

use std::time::Instant;

use micco_core::{plan_schedule_seed, MiccoScheduler, ReuseBounds, Scheduler, Session};
use micco_gpusim::MachineConfig;
use micco_workload::{RepeatDistribution, TensorPairStream, WorkloadSpec};

struct Args {
    tasks: usize,
    gpus: usize,
    oversub: f64,
    out: String,
    skip_seed: bool,
}

fn usage_error(msg: &str) -> ! {
    eprintln!("bench_planner: {msg}");
    eprintln!(
        "usage: bench_planner [--tasks N] [--gpus G] [--oversub F] [--out PATH] [--skip-seed]"
    );
    std::process::exit(2)
}

fn parse_args() -> Args {
    let mut args = Args {
        tasks: 1_000_000,
        gpus: 64,
        oversub: 0.0,
        out: "BENCH_planner.json".to_string(),
        skip_seed: false,
    };
    let mut it = std::env::args().skip(1);
    while let Some(flag) = it.next() {
        let mut value = |name: &str| {
            it.next()
                .unwrap_or_else(|| usage_error(&format!("{name} requires a value")))
        };
        let int = |name: &str, v: String| {
            v.parse()
                .unwrap_or_else(|_| usage_error(&format!("{name} expects an integer, got {v}")))
        };
        match flag.as_str() {
            "--tasks" => args.tasks = int("--tasks", value("--tasks")),
            "--gpus" => args.gpus = int("--gpus", value("--gpus")),
            "--oversub" => {
                let v = value("--oversub");
                args.oversub = match v.parse::<f64>() {
                    Ok(f) if f.is_finite() && f >= 0.0 => f,
                    _ => usage_error(&format!("--oversub expects a rate >= 0, got {v}")),
                };
            }
            "--out" => args.out = value("--out"),
            "--skip-seed" => args.skip_seed = true,
            other => usage_error(&format!("unknown flag {other}")),
        }
    }
    args
}

fn stream_of(tasks: usize) -> TensorPairStream {
    let per_stage = 1000.min(tasks.max(1));
    WorkloadSpec::new(per_stage, 64)
        .with_repeat_rate(0.6)
        .with_distribution(RepeatDistribution::Gaussian)
        .with_vectors(tasks.div_ceil(per_stage))
        .with_seed(42)
        .generate()
}

/// Peak resident set size in bytes from /proc/self/status (Linux only).
fn peak_rss_bytes() -> Option<u64> {
    let status = std::fs::read_to_string("/proc/self/status").ok()?;
    let line = status.lines().find(|l| l.starts_with("VmHWM:"))?;
    let kib: u64 = line.split_whitespace().nth(1)?.parse().ok()?;
    Some(kib * 1024)
}

fn time_plan<T>(f: impl FnOnce() -> T) -> (T, f64) {
    let start = Instant::now();
    let plan = f();
    (plan, start.elapsed().as_secs_f64())
}

fn json_f64(v: f64) -> String {
    // JSON has no NaN/Inf; the schema checker rejects them anyway.
    if v.is_finite() {
        format!("{v:.6}")
    } else {
        "null".to_string()
    }
}

fn main() {
    let args = parse_args();
    eprintln!(
        "bench_planner: {} tasks on {} gpus, oversubscription {}{}",
        args.tasks,
        args.gpus,
        args.oversub,
        if args.skip_seed {
            " (seed pass skipped)"
        } else {
            ""
        }
    );

    let stream = stream_of(args.tasks);
    let total = stream.total_tasks();
    let mut cfg = MachineConfig::mi100_like(args.gpus);
    if args.oversub > 0.0 {
        cfg = cfg.with_oversubscription(stream.unique_bytes(), args.oversub);
    }
    let mk = || MiccoScheduler::new(ReuseBounds::new(0, 2, 0));

    // Warm-up pass (touches the allocator and page cache), then the
    // measured fast pass — the steady-state shape.
    let session = Session::new(cfg);
    session.plan(&mut mk(), &stream).expect("warm-up plans");
    let (planned, fast_secs) =
        time_plan(|| session.plan(&mut mk(), &stream).expect("fast path plans"));
    let evictions = planned
        .simulated_stats()
        .expect("a planning pass carries its stats")
        .total_evictions();
    let fast_plan = planned.into_plan();
    let fast_rate = total as f64 / fast_secs;
    eprintln!("fast: {fast_secs:.3}s ({fast_rate:.0} tasks/sec), {evictions} evictions");

    let seed = if args.skip_seed {
        None
    } else {
        let (seed_plan, seed_secs) = time_plan(|| {
            let mut sched = mk();
            plan_schedule_seed(&mut sched as &mut dyn Scheduler, &stream, &cfg)
                .expect("seed path plans")
        });
        assert_eq!(
            fast_plan.to_text(),
            seed_plan.to_text(),
            "fast and seed planners must emit byte-identical plans"
        );
        assert_eq!(fast_plan.digest(), seed_plan.digest());
        eprintln!(
            "seed: {seed_secs:.3}s ({:.0} tasks/sec); plans byte-identical",
            total as f64 / seed_secs
        );
        Some(seed_secs)
    };

    let speedup = seed.map(|s| s / fast_secs);
    if let Some(x) = speedup {
        eprintln!("speedup: {x:.1}x");
    }

    let rss = peak_rss_bytes();
    let json = format!(
        concat!(
            "{{\n",
            "  \"bench\": \"planner\",\n",
            "  \"version\": 1,\n",
            "  \"tasks\": {tasks},\n",
            "  \"gpus\": {gpus},\n",
            "  \"oversub\": {oversub},\n",
            "  \"stages\": {stages},\n",
            "  \"scheduler\": \"{sched}\",\n",
            "  \"digest\": \"{digest:016x}\",\n",
            "  \"evictions\": {evictions},\n",
            "  \"fast_secs\": {fast_secs},\n",
            "  \"fast_tasks_per_sec\": {fast_rate},\n",
            "  \"seed_secs\": {seed_secs},\n",
            "  \"seed_tasks_per_sec\": {seed_rate},\n",
            "  \"speedup\": {speedup},\n",
            "  \"peak_rss_bytes\": {rss}\n",
            "}}\n"
        ),
        tasks = total,
        gpus = args.gpus,
        oversub = json_f64(args.oversub),
        stages = stream.vectors().len(),
        sched = fast_plan.scheduler,
        digest = fast_plan.digest(),
        evictions = evictions,
        fast_secs = json_f64(fast_secs),
        fast_rate = json_f64(fast_rate),
        seed_secs = seed.map_or("null".into(), json_f64),
        seed_rate = seed.map_or("null".into(), |s| json_f64(total as f64 / s)),
        speedup = speedup.map_or("null".into(), json_f64),
        rss = rss.map_or("null".to_string(), |b| b.to_string()),
    );
    std::fs::write(&args.out, &json).expect("write report");
    eprintln!("wrote {}", args.out);
    print!("{json}");
}
