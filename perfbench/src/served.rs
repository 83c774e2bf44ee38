//! The served workloads (`oversub_cold`, `store_cold`, `store_warm`): a
//! closed loop of HTTP clients against an in-process `micco-serve`
//! daemon, and the in-process layer pass of a traced run.

use std::collections::BTreeMap;
use std::path::{Path, PathBuf};
use std::sync::atomic::{AtomicU64, Ordering};
use std::time::{Duration, Instant};

use micco_core::{DurablePlanCache, PlanCache, SessionConfig};
use micco_load::{ApiError, Client};
use micco_obs::Value;
use micco_serve::{JobResult, ServeConfig, Service};
use micco_store::PlanStore;

use crate::jobs::{Workload, WARM_CONFIGS};
use crate::layers::{Calls, Job, LayerSamples};
use crate::probe::{self, mean, median, ms_since, percentile, SpanLog};
use crate::{Args, Outcome, SimOutcome, Stop};

/// Timed jobs re-run in-process through `SessionConfig::run` after the
/// window; their served results must match bit for bit.
const RUN_CHECK_SAMPLE: usize = 3;

/// How long a client waits for one job before counting it failed.
const JOB_TIMEOUT: Duration = Duration::from_secs(60);

/// Ledger tolerance, ms: how much later than the server's completion
/// stamp the median job's client may wake, beyond the plan-cache hold of
/// a concurrent job (see [`ledger`]).
const LEDGER_EPS_MS: f64 = 1.0;

/// A live daemon and a client for it.
struct Daemon {
    service: Service,
    client: Client,
}

impl Daemon {
    fn start(w: Workload, store: Option<&Path>) -> Result<Daemon, String> {
        let service = Service::start(
            "127.0.0.1:0",
            ServeConfig {
                pool_gpus: w.pool_gpus(),
                store: store.map(Path::to_path_buf),
                ..ServeConfig::default()
            },
        )?;
        let client = Client::new(service.addr());
        Ok(Daemon { service, client })
    }

    /// Check the metrics closure, then shut the daemon down.
    fn stop(self, out: &mut Outcome) -> Result<(), String> {
        closure(&self, out)?;
        self.service.shutdown();
        Ok(())
    }

    /// `/metrics` counters and gauges by name.
    fn metrics(&self) -> Result<BTreeMap<String, f64>, String> {
        Ok(self
            .client
            .metrics()?
            .lines()
            .filter_map(|line| {
                let (k, v) = line.split_once(' ')?;
                Some((k.to_owned(), v.trim().parse().ok()?))
            })
            .collect())
    }
}

/// How one served job ended, as its client saw it.
enum End {
    Done {
        result: JobResult,
        /// Server-side queue wait.
        wait_ms: f64,
        /// Server-side submission to terminal state.
        total_ms: f64,
    },
    Rejected(String),
    Failed(String),
}

/// One served job: its place in the job list, the client that ran it,
/// the client's clock at the ends of its three legs and how it ended.
struct JobRun {
    index: u64,
    client: usize,
    /// POST sent, POST answered, wait returned, result read.
    at: [Instant; 4],
    end: End,
}

impl JobRun {
    /// Leg 0 (submit), 1 (wait) or 2 (result), ms.
    fn leg_ms(&self, leg: usize) -> f64 {
        self.at[leg + 1].duration_since(self.at[leg]).as_secs_f64() * 1e3
    }

    fn latency_ms(&self) -> f64 {
        self.at[3].duration_since(self.at[0]).as_secs_f64() * 1e3
    }

    fn done(&self) -> Option<(&JobResult, f64, f64)> {
        match &self.end {
            End::Done {
                result,
                wait_ms,
                total_ms,
            } => Some((result, *wait_ms, *total_ms)),
            _ => None,
        }
    }
}

/// Submit one job over HTTP, wait for it in-process (no polling), fetch
/// its result over HTTP. Both HTTP legs are part of the latency.
fn serve_one(
    d: &Daemon,
    cfg: &SessionConfig,
    index: u64,
    client: usize,
    log: Option<&mut SpanLog>,
) -> JobRun {
    let t0 = Instant::now();
    let submitted = d.client.submit("bench", None, cfg);
    let t1 = Instant::now();
    let (end, t2, t3) = match submitted {
        Err(
            e @ ApiError::Server {
                status: 413 | 429 | 503,
                ..
            },
        ) => (End::Rejected(e.to_string()), t1, t1),
        Err(e) => (End::Failed(e.to_string()), t1, t1),
        Ok(id) => {
            let settled = d.service.scheduling().wait_job(id, JOB_TIMEOUT);
            let t2 = Instant::now();
            let end = match settled {
                Some(_) => fetch_result(&d.client, id),
                None => End::Failed(format!("job {id} did not settle")),
            };
            (end, t2, Instant::now())
        }
    };
    if let Some(log) = log {
        let root = log.push("job", t0, t3, None, index);
        log.push("serve.submit", t0, t1, Some(root), index);
        log.push("serve.wait", t1, t2, Some(root), index);
        log.push("serve.result", t2, t3, Some(root), index);
    }
    JobRun {
        index,
        client,
        at: [t0, t1, t2, t3],
        end,
    }
}

fn fetch_result(client: &Client, id: u64) -> End {
    match client.request("GET", &format!("/v1/jobs/{id}/result"), "") {
        Ok((200, body)) => {
            parse_done(&body).unwrap_or_else(|e| End::Failed(format!("job {id}: {e}")))
        }
        Ok((status, body)) => End::Failed(format!("job {id} result: HTTP {status}: {body}")),
        Err(e) => End::Failed(format!("job {id} result: {e}")),
    }
}

fn parse_done(body: &str) -> Result<End, String> {
    let v = Value::parse(body).map_err(|e| e.to_string())?;
    let state = v.get("state").and_then(Value::as_str).unwrap_or("?");
    if state != "done" {
        let error = v.get("error").and_then(Value::as_str).unwrap_or("");
        return Err(format!("ended {state}: {error}"));
    }
    let r = v.get("result").ok_or("no result")?;
    let num = |obj: &Value, k: &str| {
        obj.get(k)
            .and_then(Value::as_f64)
            .ok_or_else(|| format!("missing {k}"))
    };
    let count = |k: &str| {
        r.get(k)
            .and_then(Value::as_u64)
            .map(|n| n as usize)
            .ok_or_else(|| format!("missing {k}"))
    };
    Ok(End::Done {
        result: JobResult {
            scheduler: r
                .get("scheduler")
                .and_then(Value::as_str)
                .ok_or("missing scheduler")?
                .to_owned(),
            gflops: num(r, "gflops")?,
            sim_elapsed_ms: num(r, "sim_elapsed_ms")?,
            plan_stages: count("plan_stages")?,
            plan_tasks: count("plan_tasks")?,
            warm: r
                .get("warm")
                .and_then(Value::as_bool)
                .ok_or("missing warm")?,
            plan_ms: num(r, "plan_ms")?,
            exec_ms: num(r, "exec_ms")?,
        },
        wait_ms: num(&v, "wait_ms")?,
        total_ms: num(&v, "total_ms")?,
    })
}

/// One closed-loop window: each client submits, waits, fetches, repeats.
struct Window {
    runs: Vec<JobRun>,
    wall_secs: f64,
    cpu_secs: f64,
    spans: Option<SpanLog>,
}

impl Window {
    fn done(&self) -> impl Iterator<Item = (&JobRun, &JobResult, f64, f64)> {
        self.runs
            .iter()
            .filter_map(|r| r.done().map(|(res, wait, total)| (r, res, wait, total)))
    }

    fn latencies(&self) -> Vec<f64> {
        self.done().map(|(r, ..)| r.latency_ms()).collect()
    }
}

fn window(
    w: Workload,
    seed: u64,
    d: &Daemon,
    next: &AtomicU64,
    stop: Stop,
    traced: Option<Instant>,
) -> Window {
    let cpu0 = probe::process_cpu_secs();
    let t0 = Instant::now();
    let per_client: Vec<(Vec<JobRun>, Option<SpanLog>)> = std::thread::scope(|s| {
        let clients: Vec<_> = (0..w.clients())
            .map(|client| {
                s.spawn(move || {
                    let mut log = traced.map(SpanLog::new);
                    let mut runs = Vec::new();
                    loop {
                        // a job counter only; it publishes no other data
                        let index = next.fetch_add(1, Ordering::Relaxed);
                        if stop.reached(index) {
                            break;
                        }
                        let cfg = w.job(seed, index);
                        runs.push(serve_one(d, &cfg, index, client, log.as_mut()));
                    }
                    (runs, log)
                })
            })
            .collect();
        clients
            .into_iter()
            .map(|c| c.join().expect("client thread panicked"))
            .collect()
    });
    let wall_secs = t0.elapsed().as_secs_f64();
    let cpu_secs = probe::process_cpu_secs() - cpu0;
    let mut runs = Vec::new();
    let mut spans = traced.map(SpanLog::new);
    for (r, log) in per_client {
        runs.extend(r);
        if let (Some(all), Some(log)) = (spans.as_mut(), log) {
            all.append(log);
        }
    }
    runs.sort_by_key(|r| r.index);
    Window {
        runs,
        wall_secs,
        cpu_secs,
        spans,
    }
}

fn sim_outcome(r: &JobResult) -> SimOutcome {
    SimOutcome::new(&r.scheduler, r.gflops, r.sim_elapsed_ms, r.plan_tasks)
}

/// Check one completed job against its workload: task count, whether
/// the plan was a store hit, and on `store_warm` the cold result.
fn check_result(
    w: Workload,
    cfg: &SessionConfig,
    slot: u64,
    result: &JobResult,
    cold: &[JobResult],
) -> Result<(), String> {
    let tasks = cfg.vector_size * cfg.vectors;
    if result.plan_tasks != tasks {
        return Err(format!(
            "{} tasks planned, {tasks} submitted",
            result.plan_tasks
        ));
    }
    let warm = w == Workload::StoreWarm && !cold.is_empty();
    if result.warm != warm {
        return Err(format!("warm = {} where {warm} was expected", result.warm));
    }
    match cold.get(slot as usize % WARM_CONFIGS) {
        Some(c) if warm => sim_outcome(result).expect(&sim_outcome(c)),
        _ => Ok(()),
    }
}

/// Count every job of `runs` and check the completed ones.
fn tally(
    w: Workload,
    runs: &[JobRun],
    config: impl Fn(u64) -> SessionConfig,
    cold: &[JobResult],
    out: &mut Outcome,
) {
    for run in runs {
        out.attempted += 1;
        match &run.end {
            End::Rejected(msg) => {
                out.rejected += 1;
                eprintln!("perfbench: job {} rejected: {msg}", run.index);
            }
            End::Failed(msg) => {
                out.failed += 1;
                eprintln!("perfbench: job {} failed: {msg}", run.index);
            }
            End::Done { result, .. } => {
                if let Err(msg) = check_result(w, &config(run.index), run.index, result, cold) {
                    out.wrong += 1;
                    eprintln!("perfbench: job {} wrong: {msg}", run.index);
                }
            }
        }
    }
}

/// `store_warm` input: serve each working-set config once on a fresh
/// store, so the log holds its plans; returns the cold results.
fn prefill(
    w: Workload,
    seed: u64,
    dir: &Path,
    out: &mut Outcome,
) -> Result<Vec<JobResult>, String> {
    let d = Daemon::start(w, Some(dir))?;
    let runs: Vec<JobRun> = (0..WARM_CONFIGS as u64)
        .map(|i| serve_one(&d, &w.job(seed, i), i, 0, None))
        .collect();
    d.stop(out)?;
    tally(w, &runs, |i| w.job(seed, i), &[], out);
    runs.iter()
        .map(|r| {
            r.done()
                .map(|(res, ..)| res.clone())
                .ok_or_else(|| format!("pre-fill job {} did not complete", r.index))
        })
        .collect()
}

/// Start the daemon (opening and recovering its store) and run the
/// warm-up jobs; returns the daemon and the seconds it took.
fn setup(
    w: Workload,
    seed: u64,
    store: Option<&Path>,
    cold: &[JobResult],
    out: &mut Outcome,
) -> Result<(Daemon, f64), String> {
    let t = Instant::now();
    let d = Daemon::start(w, store)?;
    let runs: Vec<JobRun> = (0..w.warmup_jobs() as u64)
        .map(|j| serve_one(&d, &w.warmup(seed, j), j, 0, None))
        .collect();
    let secs = t.elapsed().as_secs_f64();
    tally(w, &runs, |j| w.warmup(seed, j), cold, out);
    Ok((d, secs))
}

/// Run one served workload end to end; see [`crate::Args`].
pub fn run(w: Workload, args: &Args) -> Result<Outcome, String> {
    let work = args
        .work_dir
        .join(format!("{}-{}", w.name(), std::process::id()));
    std::fs::create_dir_all(&work).map_err(|e| format!("create {}: {e}", work.display()))?;
    let mut out = Outcome::default();
    let result = run_in(w, args, &work, &mut out);
    let _ = std::fs::remove_dir_all(&work);
    result.map(|()| out)
}

fn run_in(w: Workload, args: &Args, work: &Path, out: &mut Outcome) -> Result<(), String> {
    let seed = args.seed;
    let prefill_dir = work.join("prefill");
    let cold_dir = |r: usize| work.join(format!("cold-{r}"));
    let cold = match w {
        Workload::StoreWarm => prefill(w, seed, &prefill_dir, out)?,
        _ => Vec::new(),
    };
    let store_dir = |r: usize| -> Option<PathBuf> {
        match w {
            Workload::StoreCold => Some(cold_dir(r)),
            Workload::StoreWarm => Some(prefill_dir.clone()),
            _ => None,
        }
    };
    let (before, after) = args.setup_repeats();
    let mut setups = Vec::new();
    let mut live: Option<Daemon> = None;
    for r in 0..before {
        if let Some(d) = live.take() {
            d.stop(out)?;
            let _ = std::fs::remove_dir_all(cold_dir(r - 1));
        }
        let (d, secs) = setup(w, seed, store_dir(r).as_deref(), &cold, out)?;
        setups.push(secs);
        live = Some(d);
    }
    let d = live.ok_or("no set-up ran")?;

    let next = AtomicU64::new(0);
    let stop = |len: Duration| args.stop(w, next.load(Ordering::Relaxed), len);
    let epoch = Instant::now();
    let timed = if args.trace {
        let half = args.window / 2;
        let plain = window(w, seed, &d, &next, stop(half), None);
        let gauges_before = d.metrics()?;
        let traced = window(w, seed, &d, &next, stop(half), Some(epoch));
        let gauges_after = d.metrics()?;
        ledger(&traced, out);
        let p50 = |win: &Window| median(&win.latencies());
        out.set("trace.overhead_ms", p50(&traced) - p50(&plain));
        out.set("store.hit_ratio", hit_ratio(&gauges_before, &gauges_after));
        tally(w, &plain.runs, |i| w.job(seed, i), &cold, out);
        traced
    } else {
        window(w, seed, &d, &next, stop(args.window), None)
    };
    tally(w, &timed.runs, |i| w.job(seed, i), &cold, out);
    run_check(&timed, |i| w.job(seed, i), out);
    d.stop(out)?;
    for r in before..before + after {
        let (d, secs) = setup(w, seed, store_dir(r).as_deref(), &cold, out)?;
        setups.push(secs);
        d.stop(out)?;
        let _ = std::fs::remove_dir_all(cold_dir(r));
    }
    let gflops: Vec<f64> = timed.done().map(|(_, res, ..)| res.gflops).collect();
    let (wall, cpu) = (timed.wall_secs, timed.cpu_secs);
    out.end_to_end(&setups, &timed.latencies(), &gflops, wall, cpu);

    if args.trace {
        let mut spans = timed.spans.unwrap_or_else(|| SpanLog::new(epoch));
        layer_pass(w, seed, work, &mut spans, out)?;
        args.write_spans(&spans);
        if w.uses_store() {
            // the served plan call minus the bare work it did: what is
            // left is waiting for the plan-cache mutex
            let get = |k: &str| out.metrics.get(k).copied().unwrap_or(0.0);
            let bare = get("store.lookup_ms") + get("core.plan_ms") + get("store.put_ms");
            out.set("core.lock_wait_ms", get("core.served_plan_ms") - bare);
        }
    }
    let failed_jobs = out.rejected + out.failed;
    out.set("serve.failed", failed_jobs as f64);
    Ok(())
}

/// A sample of timed jobs, re-run in-process: the served result must be
/// what `SessionConfig::run` returns for the same config.
fn run_check(win: &Window, config: impl Fn(u64) -> SessionConfig, out: &mut Outcome) {
    for (run, served, ..) in win.done().take(RUN_CHECK_SAMPLE) {
        let cfg = config(run.index);
        let verdict = cfg
            .run()
            .map_err(|e| e.to_string())
            .and_then(|report| sim_outcome(served).expect(&SimOutcome::of_report(&report)));
        if let Err(msg) = verdict {
            out.wrong += 1;
            eprintln!(
                "perfbench: job {} differs from SessionConfig::run: {msg}",
                run.index
            );
        }
    }
}

/// `serve.submitted == completed + failed + canceled + preempted`.
fn closure(d: &Daemon, out: &mut Outcome) -> Result<(), String> {
    let m = d.metrics()?;
    let c = |k: &str| m.get(k).copied().unwrap_or(0.0);
    let settled =
        c("serve.completed") + c("serve.failed") + c("serve.canceled") + c("serve.preempted");
    if c("serve.submitted") != settled {
        out.problem(format!(
            "metrics closure: serve.submitted {} != {settled} settled",
            c("serve.submitted")
        ));
    }
    Ok(())
}

/// Plan-cache hits over all lookups between two `/metrics` readings.
fn hit_ratio(before: &BTreeMap<String, f64>, after: &BTreeMap<String, f64>) -> f64 {
    let delta = |k: &str| after.get(k).unwrap_or(&0.0) - before.get(k).unwrap_or(&0.0);
    let hits = delta("plan_cache.mem_hits") + delta("plan_cache.log_hits");
    let lookups = hits + delta("plan_cache.misses");
    if lookups > 0.0 {
        hits / lookups
    } else {
        0.0
    }
}

/// Per-job latency ledger of the traced window: client submit leg,
/// server wait, plan and exec, unattributed (`total_ms` minus those
/// three) and client result leg, summed against the client latency. The
/// unattributed remainder is reported on its own, never folded into a
/// phase.
///
/// By construction the phases sum to submit leg + `total_ms` + result
/// leg, so a job's residual (latency minus phases) is the client's wait
/// leg minus `total_ms`. The server stamps the submission inside the
/// submit leg, so the residual is at least minus that leg; what can make
/// it large is the time from the completion stamp to the client waking.
/// The server stamps completion under the pool lock and, with a store,
/// then takes the plan-cache mutex to refresh its gauges, so the client
/// cannot wake before a concurrent job's plan has released that mutex.
/// A job's excess is its residual beyond that hold, bounded per other
/// client's job by its served `plan_ms` and by how long its plan can
/// have overlapped the time between this job's completion stamp and its
/// client waking (see [`plan_cache_hold`]). The median excess must be at
/// most [`LEDGER_EPS_MS`]: a phase missed or counted twice, or a client
/// that polls, shifts every job. Single jobs are not held to it, because
/// a host that deschedules a vCPU for a few milliseconds delays that
/// job's wake-up on any workload; their worst excess is reported.
fn ledger(win: &Window, out: &mut Outcome) {
    let done: Vec<_> = win.done().collect();
    let (mut submit, mut result, mut wait, mut plan, mut exec) =
        (vec![], vec![], vec![], vec![], vec![]);
    let (mut unattributed, mut residuals, mut excess) = (vec![], vec![], vec![]);
    for (j, &(run, res, wait_ms, total_ms)) in done.iter().enumerate() {
        let unattr = total_ms - wait_ms - res.plan_ms - res.exec_ms;
        let phases = run.leg_ms(0) + wait_ms + res.plan_ms + res.exec_ms + unattr + run.leg_ms(2);
        let residual = run.latency_ms() - phases;
        let hold = plan_cache_hold(&done, j);
        submit.push(run.leg_ms(0));
        result.push(run.leg_ms(2));
        wait.push(wait_ms);
        plan.push(res.plan_ms);
        exec.push(res.exec_ms);
        unattributed.push(unattr);
        residuals.push(residual);
        excess.push(residual - hold);
    }
    let worst = excess.iter().copied().fold(f64::NEG_INFINITY, f64::max);
    let typical = median(&excess);
    let outside = excess.iter().filter(|&&e| e > LEDGER_EPS_MS).count();
    if typical > LEDGER_EPS_MS {
        out.problem(format!(
            "ledger: the median job reached its client {typical:.3} ms after the server's \
             completion stamp beyond a concurrent plan-cache hold (more than {LEDGER_EPS_MS} ms)"
        ));
    }
    eprintln!(
        "perfbench: ledger excess beyond the concurrent hold: p50 {typical:.3} ms, \
         p99 {:.3} ms, max {worst:.3} ms; {outside} of {} jobs above {LEDGER_EPS_MS} ms",
        percentile(&excess, 99.0),
        excess.len()
    );
    let lat = win.latencies();
    out.set("serve.submit_ms", median(&submit));
    out.set("serve.result_ms", median(&result));
    out.set("serve.wait_ms", median(&wait));
    out.set("core.served_plan_ms", median(&plan));
    out.set("gpusim.served_replay_ms", median(&exec));
    out.set("serve.unattributed_ms", median(&unattributed));
    out.set("serve.ledger_residual_ms", median(&residuals));
    out.set("serve.ledger_max_excess_ms", worst);
    out.set("serve.latency_p90_ms", percentile(&lat, 90.0));
    out.set("serve.samples", lat.len() as f64);
}

/// A done job as the ledger reads it: the client's view and the server's
/// result, `wait_ms` and `total_ms`.
type DoneJob<'a> = (&'a JobRun, &'a JobResult, f64, f64);

/// How long job `j`'s client can have been kept from waking by another
/// client's plan holding the plan-cache mutex, ms. In client time the
/// server stamps `j` complete no earlier than its POST start + `total_ms`,
/// and another job's plan runs no earlier than that job's POST start +
/// `wait_ms` and no later than its POST end + `total_ms` − `exec_ms`.
/// The hold is at most the overlap of those two intervals, and at most
/// that job's served `plan_ms`.
fn plan_cache_hold(done: &[DoneJob<'_>], j: usize) -> f64 {
    let (run, _, _, total_ms) = done[j];
    // client instants as ms after this job's POST start (negative before)
    let ms = |t: Instant| match t.checked_duration_since(run.at[0]) {
        Some(d) => d.as_secs_f64() * 1e3,
        None => -(run.at[0].duration_since(t).as_secs_f64() * 1e3),
    };
    let pending = (total_ms, ms(run.at[2]));
    done.iter()
        .filter(|(other, ..)| other.client != run.client)
        .map(|&(other, res, wait_ms, total_ms)| {
            let planning = (
                ms(other.at[0]) + wait_ms,
                ms(other.at[1]) + total_ms - res.exec_ms,
            );
            let overlap = pending.1.min(planning.1) - pending.0.max(planning.0);
            overlap.clamp(0.0, res.plan_ms)
        })
        .fold(0.0, f64::max)
}

/// Send the workload's configs through each layer's public entry point
/// in-process, along the path its served jobs take, timing every call.
fn layer_pass(
    w: Workload,
    seed: u64,
    work: &Path,
    log: &mut SpanLog,
    out: &mut Outcome,
) -> Result<(), String> {
    let err = |e: &dyn std::fmt::Display| e.to_string();
    let mut warm_cache = None;
    let mut put_store = None;
    let layer_dir = work.join("layer-store");
    match w {
        Workload::StoreWarm => {
            let t = Instant::now();
            warm_cache = Some(DurablePlanCache::open(work.join("prefill")).map_err(|e| err(&e))?);
            out.set("store.recovery_ms", ms_since(t));
        }
        Workload::StoreCold => {
            put_store = Some(PlanStore::open(&layer_dir).map_err(|e| err(&e))?);
        }
        _ => {}
    }
    let mut layers = LayerSamples::default();
    let mut bytes = Vec::new();
    for i in 0..w.layer_sample() as u64 {
        let mut calls = Calls::default();
        let mut job = Job::generate(&w.job(seed, i), &mut calls)?;
        let (planned, assign_ms) = match warm_cache.as_mut() {
            Some(cache) => {
                // the first request after a reopen is served from the log,
                // later ones from memory
                let Job {
                    stream,
                    session,
                    scheduler,
                } = &mut job;
                let mut lookup = |name| {
                    calls.time(name, || {
                        session.plan_with_cache(cache, scheduler.as_mut(), stream)
                    })
                };
                lookup("store.log_lookup").map_err(|e| err(&e))?;
                (lookup("store.lookup").map_err(|e| err(&e))?, None)
            }
            None => {
                let p = job.plan(&mut calls)?;
                if let Some(store) = put_store.as_mut() {
                    let key = PlanCache::key_for_with_topology(
                        job.scheduler.as_ref(),
                        &job.stream,
                        job.session.config(),
                        *job.session.options(),
                        job.session.topology(),
                    );
                    let len = calls
                        .time("store.put", || {
                            let text = p.plan().to_text();
                            store.put(key.raw(), text.as_bytes()).map(|_| text.len())
                        })
                        .map_err(|e| err(&e))?;
                    bytes.push(len as f64);
                }
                let assign_ms = p.plan().overhead_secs * 1e3;
                (p, Some(assign_ms))
            }
        };
        let report = job.replay(&planned, &mut calls)?;
        calls.log(log, "layer", i);
        layers.add(&calls, assign_ms, &report, job.stream.total_tasks());
    }
    if let Some(store) = put_store.take() {
        drop(store);
        let t = Instant::now();
        DurablePlanCache::open(&layer_dir).map_err(|e| err(&e))?;
        out.set("store.recovery_ms", ms_since(t));
    }
    if let Some(cache) = &warm_cache {
        if cache.misses() > 0 {
            out.problem(format!(
                "layer pass: {} store_warm lookups missed",
                cache.misses()
            ));
        }
    }
    layers.report(out);
    out.set("store.put_ms", layers.median_ms("store.put"));
    out.set("store.bytes_per_plan", mean(&bytes));
    out.set("store.lookup_ms", layers.median_ms("store.lookup"));
    out.set("store.log_lookup_ms", layers.median_ms("store.log_lookup"));
    Ok(())
}
