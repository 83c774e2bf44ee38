//! Subcommand implementations.
//!
//! One grammar: every command that builds a workload, machine or
//! scheduler reads one [`SessionConfig`] — from `--config FILE` or from
//! the flags that mirror its keys — and plans through [`Session`].

use std::sync::Arc;
use std::time::Duration;

use micco_analysis::{
    analyze_plan_with, certify_trace_with, AnalysisConfig, CertifyConfig, Code, Report, Severity,
    TransferStrictness,
};
use micco_cluster::{
    run_cluster_schedule, ClusterConfig, FlatClusterScheduler, HierarchicalScheduler,
};
use micco_core::model::RegressionBounds;
use micco_core::tuner::{build_training_set, TrainingConfig};
use micco_core::{
    DurablePlanCache, GrouteScheduler, PlanCache, PlanSource, Planned, RetryPolicy, ReuseBounds,
    SchedulePlan, ScheduleReport, Session, SessionConfig,
};
use micco_exec::{execute_plan as execute_plan_real, ExecOptions, TensorStore};
use micco_gpusim::{CostModel, MachineConfig};
use micco_load::{run_open_loop, TenantLoad};
use micco_obs::{from_perfetto_json, Recorder};
use micco_redstar::{al_rhopi, build_correlator, f0d2, f0d4, kk_pipi, nucleon_pipi, PresetScale};
use micco_serve::{Priority, ServeConfig, Service, TenantSpec};
use micco_store::PlanStore;
use micco_workload::{DataCharacteristics, TensorPairStream};

use crate::args::Args;

/// Top-level usage text.
pub const USAGE: &str = "\
usage: micco <command> [options]

commands that read a request take the SessionConfig flags listed below,
or --config FILE in their place:
  run         decide and simulate the request through the Session API
              --trace-out FILE records spans as Perfetto-loadable JSON
              (the file `certify` reads back); --mappings prints the
              Fig. 4 mapping histogram; with --store DIR the decision
              goes through a durable write-ahead-logged plan cache, and a
              warm restart replays the plan from the log without invoking
              the scheduler
  plan        decide a schedule without executing and write the plan IR
              --out FILE; --lint runs the static verifier on the freshly
              decided plan (--format/--deny/--thrash-window as in lint);
              with --store DIR the decided plan is appended to a crash-safe
              log (re-running the same request serves it back)
  lint        statically verify a plan against the rebuilt workload
              --plan FILE --format text|json|sarif --deny error|warn|info
              --mem-mib N (shrink device memory) --thrash-window N; exits
              non-zero when any finding reaches the --deny threshold
              (default: error); --deny also takes specific codes,
              comma-separated with levels (e.g. --deny error,MICCO-W205);
              a --topology adds the W204 cross-island route check
  certify     prove an executed trace is a linearization of its plan
              --plan FILE --trace FILE (the Perfetto JSON written by
              --trace-out) --transfers auto|strict|lenient --eps-us F plus
              the --format/--deny options of lint; a --topology adds
              per-hop link-route checks
  execute     execute a previously written plan on the rebuilt workload
              --plan FILE --backend sim|real; sim replays on the simulator,
              real computes kernels on one worker per planned GPU;
              --trace-out FILE writes Perfetto JSON for either backend;
              without --plan, --store DIR fetches the plan the same
              request keyed
  replay      re-execute a plan several times and verify determinism
              --plan FILE (or --store DIR) --times N
  exec        decide the request and compute its kernels on one worker
              thread per GPU (plan, then execute --backend real);
              --trace-out FILE as in execute
  redstar     a Table VI correlator preset on the configured machine
              --preset al_rhopi|f0d2|f0d4|nucleon_pipi|kk_pipi --scale paper|ci
  load        open-loop load generator against a running daemon; every job
              submits the request (its seed also seeds the arrival clocks)
              --addr HOST:PORT --duration SECS --drain SECS --jobs-per-sec F
              --tenants NAME[:PRIORITY[:RATE]],... (per-tenant Poisson
              arrival rates; RATE defaults to --jobs-per-sec); prints
              per-tenant p50/p99 latency and jobs/sec

other commands:
  cluster     multi-node run (flat vs hierarchical) --nodes N
              --gpus-per-node N; reads only the workload flags
              (--vector-size ... --dims, --save/--load FILE) and
              --bounds A,B,C of the request flags below
  serve       run the multi-tenant scheduling daemon (JSON over HTTP)
              --addr HOST:PORT (default 127.0.0.1:7070, port 0 = ephemeral)
              --pool-gpus N --max-queue N --mem-headroom F
              --store DIR (shared durable plan cache: repeat submissions
              and restarts warm-start without re-planning)
              --time-scale F (wall seconds the pool stays busy per
              simulated second; 0 = release immediately)
              --tenants NAME[:PRIORITY[:WEIGHT]],... pre-declares tenant
              classes (high|normal|low) and fair-share weights
              --default-priority P --default-weight W (undeclared tenants)
              --max-runtime-secs N (self-terminate, for scripted runs)
              endpoints: POST /v1/jobs {tenant, priority?, config?} where
              config is a SessionConfig document (the same schema
              --config reads); GET /v1/jobs[/ID[/result]];
              POST /v1/jobs/ID/cancel; GET /metrics; GET /healthz
  train       train the reuse-bound regression model and show predictions
              --samples N --seed N
  store       inspect and maintain a durable plan store
              store stats --dir DIR    recover + print shape and counters
              store verify --dir DIR   read-only integrity scan: reports
                                       torn tails, corrupt regions, missing
                                       fragments and orphans WITHOUT
                                       repairing; --strict exits non-zero
                                       on any finding
              store compact --dir DIR  fold live records into a snapshot
                                       fragment and delete dead files
  info        print the default cost model and platform assumptions

SessionConfig flags (each mirrors a key of the --config JSON document, the
schema `serve` accepts in submission bodies, so a request exercised on the
CLI submits to the daemon unchanged and keys the durable store identically):
  workload    --vector-size N --tensor-size N --rate F
              --dist uniform|gaussian|zipf --vectors N --seed N --batch N
              --dims A,B,...
  machine     --gpus N --oversub F
  scheduler   --scheduler micco|micco-naive|groute|coda|rr --bounds A,B,C
  driver      --overlap --prefetch-tasks K
              --topology FILE|SPEC --topology-aware
  resilience  --inject-faults SPEC (deterministic chaos: kernel:T[*N],
              timeout:T[*N], lose:G@S, flake:G@S, comma-separated)
              --retry MAX[,DELAY_US] (per-task retry budget with backoff)
  store       --store DIR
  executor    --steal (reuse-aware work stealing) --prefetch (warm operands)

A flag the command does not read is an error, and so is a SessionConfig
flag given beside --config. Commands that read a plan take the GPU count
from the plan. Commands that rebuild a workload also take --save FILE /
--load FILE to persist or replay the exact workload (text format, see
micco_workload::serialize); plan consumers validate the plan's workload
fingerprint before running.

--topology takes a file path or an inline spec; 'flat' (the default) keeps
the uniform device-to-device cost model. Spec grammar:
  nvlink{gpus:N, island:K, node:M, nv:BW@LAT, pcie:BW@LAT, ib:BW@LAT}
with BW in GiB/s and LAT in µs; island/node/link tiers are optional
(defaults: island=node=gpus, nv:200@1, pcie:16@3, ib:23@30); the
topology's GPU count must equal the request's";

/// SessionConfig flags that take a value (space-separated).
const CONFIG_VALUES: &str = "vector-size tensor-size rate dist vectors seed batch dims gpus \
                             oversub scheduler bounds prefetch-tasks topology inject-faults \
                             retry store";

/// SessionConfig flags that stand bare.
const CONFIG_SWITCHES: &str = "overlap topology-aware steal prefetch";

/// A subcommand: its handler, whether it reads a [`SessionConfig`], and
/// the flags it reads besides SessionConfig's — space-separated, those
/// taking a value and bare switches.
struct Grammar {
    run: fn(&Args) -> Result<(), String>,
    config: bool,
    values: &'static str,
    switches: &'static str,
}

fn grammar(name: &str) -> Option<Grammar> {
    let g = |run, config, values, switches| Grammar {
        run,
        config,
        values,
        switches,
    };
    Some(match name {
        "run" => g(run_cmd, true, "load save trace-out", "mappings"),
        "plan" => g(
            plan,
            true,
            "load save out format deny thrash-window",
            "lint",
        ),
        "lint" => g(
            lint,
            true,
            "load save plan format deny mem-mib thrash-window",
            "",
        ),
        "certify" => g(
            certify,
            true,
            "load save plan trace transfers eps-us format deny",
            "",
        ),
        "execute" => g(execute, true, "load save plan backend trace-out", ""),
        "replay" => g(replay, true, "load save plan times", ""),
        "exec" => g(exec, true, "load save trace-out", ""),
        "redstar" => g(redstar, true, "preset scale", ""),
        "cluster" => g(
            cluster,
            false,
            "load save nodes gpus-per-node vector-size tensor-size rate dist vectors seed \
             batch dims bounds",
            "",
        ),
        "load" => g(
            load_cmd,
            true,
            "addr duration drain jobs-per-sec tenants",
            "",
        ),
        "serve" => g(
            serve_cmd,
            false,
            "addr pool-gpus max-queue mem-headroom time-scale store tenants \
             default-priority default-weight max-runtime-secs",
            "",
        ),
        "train" => g(train, false, "samples seed", ""),
        "store" => g(store_cmd, false, "dir store", "strict"),
        "info" => g(info, false, "", ""),
        _ => return None,
    })
}

/// Whether the space-separated `list` names `key`.
fn lists(list: &str, key: &str) -> bool {
    list.split_whitespace().any(|k| k == key)
}

/// Why a command line failed.
#[derive(Debug, Clone, PartialEq, Eq)]
pub enum Failure {
    /// The line breaks the grammar: no or an unknown command, an
    /// unexpected sub-action, or a flag the command does not take (or
    /// takes otherwise). The usage text belongs after it.
    Usage(String),
    /// The command ran and failed: a lint or certify verdict, a plan that
    /// does not fit its workload, an unreadable file.
    Command(String),
}

/// Dispatch a parsed command line.
pub fn dispatch(args: &Args) -> Result<(), Failure> {
    let name = args
        .command
        .as_deref()
        .ok_or_else(|| Failure::Usage("no command given".into()))?;
    let grammar =
        grammar(name).ok_or_else(|| Failure::Usage(format!("unknown command '{name}'")))?;
    // only `store` takes a sub-action (`store stats` etc.)
    if let Some(sub) = &args.subaction {
        if name != "store" {
            return Err(Failure::Usage(format!("unexpected argument '{sub}'")));
        }
    }
    check_flags(args, &grammar).map_err(Failure::Usage)?;
    (grammar.run)(args).map_err(Failure::Command)
}

/// Reject every flag `grammar` does not read, a value-taking flag given
/// bare (or a switch given a value), and a SessionConfig flag given
/// beside `--config` — each error names the flag.
fn check_flags(args: &Args, grammar: &Grammar) -> Result<(), String> {
    let beside_file = grammar.config && args.get("config").is_some();
    for (key, has_value) in args.given() {
        let (takes_value, config_key) =
            if lists(grammar.values, key) || (grammar.config && key == "config") {
                (true, false)
            } else if lists(grammar.switches, key) {
                (false, false)
            } else if grammar.config && lists(CONFIG_VALUES, key) {
                (true, true)
            } else if grammar.config && lists(CONFIG_SWITCHES, key) {
                (false, true)
            } else {
                return Err(format!("unknown flag --{key}"));
            };
        if config_key && beside_file {
            return Err(format!(
                "--{key} cannot be combined with --config: set it in the config file"
            ));
        }
        if takes_value && !has_value {
            return Err(format!("--{key} needs a value"));
        }
        if !takes_value && has_value {
            return Err(format!("--{key} takes no value"));
        }
    }
    Ok(())
}

/// The one config grammar: fold the command line into a validated
/// [`SessionConfig`]. With `--config FILE` the file is the whole request
/// (the same JSON schema `serve` accepts in submission bodies); otherwise
/// every flag mirrors into the struct, so both spellings drive identical
/// machinery and key the durable plan store identically. `plan_gpus`,
/// when given, replaces the device count before validation: commands
/// that read a plan take it from the plan.
fn session_config_from_args(
    args: &Args,
    plan_gpus: Option<usize>,
) -> Result<SessionConfig, String> {
    let mut cfg = match args.get("config") {
        Some(path) => {
            let text = std::fs::read_to_string(path).map_err(|e| format!("{path}: {e}"))?;
            SessionConfig::parse(&text).map_err(|e| format!("{path}: {e}"))?
        }
        None => config_from_flags(args)?,
    };
    if let Some(gpus) = plan_gpus {
        cfg.gpus = gpus;
    }
    cfg.validate().map_err(|e| e.to_string())?;
    Ok(cfg)
}

/// [`SessionConfig`] from its mirrored flags, defaults elsewhere
/// (validated by the caller).
fn config_from_flags(args: &Args) -> Result<SessionConfig, String> {
    let mut cfg = SessionConfig::default();
    cfg.vector_size = args
        .parse_or("vector-size", cfg.vector_size)
        .map_err(|e| e.to_string())?;
    cfg.tensor_size = args
        .parse_or("tensor-size", cfg.tensor_size)
        .map_err(|e| e.to_string())?;
    cfg.rate = args.parse_or("rate", cfg.rate).map_err(|e| e.to_string())?;
    cfg.dist = args.str_or("dist", &cfg.dist);
    cfg.vectors = args
        .parse_or("vectors", cfg.vectors)
        .map_err(|e| e.to_string())?;
    cfg.seed = args.parse_or("seed", cfg.seed).map_err(|e| e.to_string())?;
    cfg.batch = args
        .parse_or("batch", cfg.batch)
        .map_err(|e| e.to_string())?;
    cfg.dims = args
        .parse_list_or("dims", cfg.dims)
        .map_err(|e| e.to_string())?;
    cfg.gpus = args.parse_or("gpus", cfg.gpus).map_err(|e| e.to_string())?;
    cfg.oversub = args
        .parse_or("oversub", cfg.oversub)
        .map_err(|e| e.to_string())?;
    cfg.scheduler = args.str_or("scheduler", &cfg.scheduler);
    let bounds = args
        .parse_list_or("bounds", cfg.bounds.to_vec())
        .map_err(|e| e.to_string())?;
    if bounds.len() != 3 {
        return Err("--bounds needs exactly three comma-separated integers".into());
    }
    cfg.bounds = [bounds[0], bounds[1], bounds[2]];
    cfg.overlap = args.flag("overlap");
    cfg.prefetch_tasks = args
        .parse_or("prefetch-tasks", cfg.prefetch_tasks)
        .map_err(|e| e.to_string())?;
    // --topology takes a file or an inline spec; the config holds the
    // spec text itself so the document stays self-contained
    if let Some(value) = args.get("topology") {
        if value != "flat" {
            let spec = if std::path::Path::new(value).is_file() {
                std::fs::read_to_string(value).map_err(|e| format!("{value}: {e}"))?
            } else {
                value.to_owned()
            };
            cfg.topology = Some(spec.trim().to_owned());
        }
    }
    cfg.topology_aware = args.flag("topology-aware");
    if let Some(spec) = args.get("inject-faults") {
        cfg.faults = Some(spec.to_owned());
    }
    if let Some(spec) = args.get("retry") {
        let mut parts = spec.splitn(2, ',');
        let max_attempts: u32 = parts
            .next()
            .unwrap_or_default()
            .trim()
            .parse()
            .map_err(|_| format!("--retry: bad attempt count in '{spec}'"))?;
        let delay_us: u64 = match parts.next() {
            Some(d) => d
                .trim()
                .parse()
                .map_err(|_| format!("--retry: bad delay in '{spec}'"))?,
            None => 0,
        };
        cfg.retry = Some(RetryPolicy {
            max_attempts,
            delay_us,
        });
    }
    if let Some(dir) = args.get("store") {
        cfg.store = Some(dir.to_owned());
    }
    cfg.steal = args.flag("steal");
    cfg.prefetch = args.flag("prefetch");
    Ok(cfg)
}

/// The workload of the request: `--load FILE` when given, else the
/// config's synthetic stream (written to `--save FILE` when asked).
fn stream_for(args: &Args, cfg: &SessionConfig) -> Result<TensorPairStream, String> {
    if let Some(path) = args.get("load") {
        let text = std::fs::read_to_string(path).map_err(|e| format!("{path}: {e}"))?;
        return micco_workload::from_text(&text).map_err(|e| e.to_string());
    }
    let stream = cfg.stream().map_err(|e| e.to_string())?;
    if let Some(path) = args.get("save") {
        std::fs::write(path, micco_workload::to_text(&stream))
            .map_err(|e| format!("{path}: {e}"))?;
        println!("saved workload to {path}");
    }
    Ok(stream)
}

/// The request of a command that needs no plan: its config, workload and
/// session.
fn request(args: &Args) -> Result<(SessionConfig, TensorPairStream, Session), String> {
    let cfg = session_config_from_args(args, None)?;
    let stream = stream_for(args, &cfg)?;
    let session = cfg.session(&stream).map_err(|e| e.to_string())?;
    Ok((cfg, stream, session))
}

/// The request of a command that consumes a plan: `--plan FILE` when
/// given (its GPU count applied to the config), else the plan the same
/// request keyed into the durable store named by `--store DIR`.
fn planned_request(
    args: &Args,
) -> Result<(SessionConfig, TensorPairStream, Session, SchedulePlan), String> {
    let file_plan = match args.get("plan") {
        Some(_) => Some(load_plan(args)?),
        None => None,
    };
    let cfg = session_config_from_args(args, file_plan.as_ref().map(|p| p.num_gpus))?;
    let stream = stream_for(args, &cfg)?;
    let session = cfg.session(&stream).map_err(|e| e.to_string())?;
    let plan = match (file_plan, &cfg.store) {
        (Some(plan), _) => plan,
        (None, Some(dir)) => fetch_plan_from_store(&cfg, &session, dir, &stream)?,
        (None, None) => return Err("this command needs --plan FILE or --store DIR".to_owned()),
    };
    Ok((cfg, stream, session, plan))
}

/// Read a plan written by [`plan`] from `--plan FILE`.
fn load_plan(args: &Args) -> Result<SchedulePlan, String> {
    let path = args
        .get("plan")
        .ok_or_else(|| "this command needs --plan FILE".to_owned())?;
    let text = std::fs::read_to_string(path).map_err(|e| format!("{path}: {e}"))?;
    SchedulePlan::from_text(&text).map_err(|e| format!("{path}: {e}"))
}

/// Open the durable plan cache at `dir`, surfacing anything recovery had
/// to repair or quarantine on the way in.
fn open_store(dir: &str) -> Result<DurablePlanCache, String> {
    let cache = DurablePlanCache::open(dir).map_err(|e| e.to_string())?;
    let rec = cache.recovery();
    if !rec.is_clean() {
        println!("store recovery: {rec}");
    }
    Ok(cache)
}

/// Decide the request's plan with `session`, or durably re-serve it from
/// the store the config names, reporting where it came from. The CLI and
/// the `serve` daemon key plans the same way, so each warm-starts the
/// other's store.
fn decide(
    cfg: &SessionConfig,
    session: &Session,
    stream: &TensorPairStream,
) -> Result<Planned, String> {
    let mut sched = cfg.build_scheduler().map_err(|e| e.to_string())?;
    let Some(dir) = &cfg.store else {
        return session
            .plan(sched.as_mut(), stream)
            .map_err(|e| e.to_string());
    };
    let cache = open_store(dir)?;
    let planned = session
        .plan_with_cache(&cache, sched.as_mut(), stream)
        .map_err(|e| e.to_string())?;
    let source = match planned.source() {
        PlanSource::Decided => "freshly decided, appended to log",
        PlanSource::Log | PlanSource::Memory => "replayed from log (scheduler not invoked)",
    };
    let stats = cache.stats();
    println!(
        "store {dir}: {source} | {} live plan(s), {} rejected",
        stats.store.live_records, stats.rejected,
    );
    Ok(planned)
}

/// Fetch a previously decided plan from the store at `dir` without ever
/// planning: the key is rebuilt from the same request `plan --store`
/// keyed it under, so the command line must describe the same request.
fn fetch_plan_from_store(
    cfg: &SessionConfig,
    session: &Session,
    dir: &str,
    stream: &TensorPairStream,
) -> Result<SchedulePlan, String> {
    let sched = cfg.build_scheduler().map_err(|e| e.to_string())?;
    let key = PlanCache::key_for_with_topology(
        sched.as_ref(),
        stream,
        session.config(),
        *session.options(),
        session.topology(),
    );
    let cache = open_store(dir)?;
    let plan = cache.lookup(key).ok_or_else(|| {
        let stats = cache.stats();
        format!(
            "no plan for this request in {dir} ({} live plan(s), {} rejected) — \
             decide one first: micco plan --store {dir} <same request flags>",
            stats.store.live_records, stats.rejected,
        )
    })?;
    println!("store {dir}: plan replayed from log (scheduler not invoked)");
    Ok(plan)
}

/// Fresh recorder when `--trace-out FILE` was given, `None` otherwise.
fn trace_recorder(args: &Args) -> Option<Arc<Recorder>> {
    args.get("trace-out").is_some().then(Recorder::shared)
}

/// `session` recording into `recorder`, when there is one.
fn traced(session: Session, recorder: &Option<Arc<Recorder>>) -> Session {
    match recorder {
        Some(r) => session.trace(r.clone()),
        None => session,
    }
}

/// Honour `--trace-out FILE`: the Perfetto JSON the viewer loads and
/// `certify` reads back.
fn write_trace_file(recorder: &Option<Arc<Recorder>>, args: &Args) -> Result<(), String> {
    let (Some(recorder), Some(path)) = (recorder, args.get("trace-out")) else {
        return Ok(());
    };
    std::fs::write(path, recorder.to_perfetto_json()).map_err(|e| format!("{path}: {e}"))?;
    println!(
        "wrote {} trace event(s) to {path} (open in Perfetto / chrome://tracing)",
        recorder.len()
    );
    Ok(())
}

/// `micco run`: decide and simulate the request through the [`Session`]
/// API, with optional end-to-end telemetry.
fn run_cmd(args: &Args) -> Result<(), String> {
    let (cfg, stream, session) = request(args)?;
    let recorder = trace_recorder(args);
    let session = traced(session, &recorder);
    let report = decide(&cfg, &session, &stream)?
        .execute(&stream)
        .map_err(|e| e.to_string())?;
    print_report(&report);
    if args.flag("mappings") {
        let hist = micco_core::mapping_histogram(&stream, &report.assignments, session.config());
        println!("  Fig. 4 mappings: {hist}");
    }
    write_trace_file(&recorder, args)
}

fn print_report(r: &ScheduleReport) {
    let exec_overhead = if r.execution_overhead_secs > 0.0 {
        format!(" (+{:.3} ms exec)", r.execution_overhead_secs * 1e3)
    } else {
        String::new()
    };
    println!(
        "{}: {:.0} GFLOPS | elapsed {:.3} ms | overhead {:.3} ms{exec_overhead}",
        r.scheduler,
        r.gflops(),
        r.elapsed_secs() * 1e3,
        r.scheduling_overhead_secs * 1e3
    );
    println!(
        "  h2d {} | d2d {} | reuse hits {} | evictions {} | imbalance {:.3}",
        r.stats.total_h2d(),
        r.stats.total_d2d(),
        r.stats.total_reuse_hits(),
        r.stats.total_evictions(),
        r.stats.imbalance()
    );
}

/// Decide a schedule without executing it: write the plan IR to `--out`.
fn plan(args: &Args) -> Result<(), String> {
    let (cfg, stream, session) = request(args)?;
    let plan = decide(&cfg, &session, &stream)?.into_plan();
    let out = args.str_or("out", "micco-plan.txt");
    std::fs::write(&out, plan.to_text()).map_err(|e| format!("{out}: {e}"))?;
    println!(
        "plan: {} | {} stages, {} tasks on {} GPUs | fingerprint {:#018x}",
        plan.scheduler,
        plan.stages.len(),
        plan.total_tasks(),
        plan.num_gpus,
        plan.fingerprint,
    );
    println!(
        "decide overhead {:.3} ms; wrote {out}",
        plan.overhead_secs * 1e3
    );
    if args.flag("lint") {
        let report = analyze_plan_with(
            &plan,
            &stream,
            session.config(),
            &analysis_config(args)?,
            session.topology(),
        );
        emit_report(&report, args, &out)?;
    }
    Ok(())
}

/// Statically verify a plan file against the rebuilt workload: replay it
/// through the abstract interpreter and report diagnostics without
/// spending any (simulated) GPU time.
fn lint(args: &Args) -> Result<(), String> {
    let path = args.get("plan").ok_or("lint needs --plan FILE")?;
    let (_, stream, session, plan) = planned_request(args)?;
    let mut machine = *session.config();
    let mem_mib: u64 = args.parse_or("mem-mib", 0).map_err(|e| e.to_string())?;
    if mem_mib > 0 {
        machine = machine.with_mem_bytes(mem_mib << 20);
    }
    let report = analyze_plan_with(
        &plan,
        &stream,
        &machine,
        &analysis_config(args)?,
        session.topology(),
    );
    emit_report(&report, args, path)
}

/// Prove an executed trace is a linearization of its plan: rebuild the
/// dependence DAG by symbolic replay, read the Perfetto JSON that
/// `--trace-out` wrote from `--trace FILE`, and report every
/// happens-before violation through the same `--format`/`--deny`
/// pipeline as `lint`.
fn certify(args: &Args) -> Result<(), String> {
    args.get("plan").ok_or("certify needs --plan FILE")?;
    let trace_path = args
        .get("trace")
        .ok_or("certify needs --trace FILE (the Perfetto JSON written by --trace-out)")?;
    let text = std::fs::read_to_string(trace_path).map_err(|e| format!("{trace_path}: {e}"))?;
    let events = from_perfetto_json(&text).map_err(|e| format!("{trace_path}: {e}"))?;
    let (_, stream, session, plan) = planned_request(args)?;
    let report = certify_trace_with(
        &plan,
        &stream,
        session.config(),
        &certify_config(args)?,
        session.topology(),
        &events,
    );
    emit_report(&report, args, trace_path)
}

/// Execute a previously decided plan on the rebuilt workload, on the
/// simulator (`--backend sim`, the default) or with real kernels
/// (`--backend real`).
fn execute(args: &Args) -> Result<(), String> {
    let (cfg, stream, session, plan) = planned_request(args)?;
    let recorder = trace_recorder(args);
    match args.str_or("backend", "sim").as_str() {
        "sim" => {
            let report = traced(session, &recorder)
                .replay(&plan, &stream)
                .map_err(|e| e.to_string())?;
            print_report(&report);
        }
        "real" => compute(&cfg, &stream, &plan, &recorder)?,
        other => return Err(format!("unknown backend '{other}' (sim|real)")),
    }
    write_trace_file(&recorder, args)
}

/// Replay a plan `--times N` times on fresh simulators and verify the
/// outcome is identical on every run (plans are deterministic artifacts).
fn replay(args: &Args) -> Result<(), String> {
    let (_, stream, session, plan) = planned_request(args)?;
    let times: usize = args.parse_or("times", 3).map_err(|e| e.to_string())?;
    if times == 0 {
        return Err("--times must be at least 1".into());
    }
    let mut reference: Option<ScheduleReport> = None;
    for _ in 0..times {
        let report = session.replay(&plan, &stream).map_err(|e| e.to_string())?;
        match &reference {
            None => reference = Some(report),
            Some(r) => {
                if report.assignments != r.assignments || report.elapsed_secs() != r.elapsed_secs()
                {
                    return Err("replay diverged between runs".into());
                }
            }
        }
    }
    let r = reference.expect("times >= 1");
    println!(
        "replayed {} × {} tasks: {:.0} GFLOPS | elapsed {:.3} ms | identical on all {times} runs",
        times,
        r.assignments.len(),
        r.gflops(),
        r.elapsed_secs() * 1e3
    );
    Ok(())
}

/// `micco exec`: decide the request, then compute its kernels on one
/// worker thread per GPU — `plan` and `execute --backend real` in one step.
fn exec(args: &Args) -> Result<(), String> {
    let (cfg, stream, session) = request(args)?;
    let plan = decide(&cfg, &session, &stream)?.into_plan();
    let recorder = trace_recorder(args);
    compute(&cfg, &stream, &plan, &recorder)?;
    write_trace_file(&recorder, args)
}

/// Compute `plan`'s kernels with the real executor on one worker per
/// planned GPU, under the config's tensor shape, seed, stealing,
/// prefetching, retry budget and injected faults.
fn compute(
    cfg: &SessionConfig,
    stream: &TensorPairStream,
    plan: &SchedulePlan,
    recorder: &Option<Arc<Recorder>>,
) -> Result<(), String> {
    let faults = cfg.fault_plan().map_err(|e| e.to_string())?;
    let mut opts = ExecOptions::default().with_faults(faults.clone());
    if cfg.steal {
        opts = opts.with_steal();
    }
    if cfg.prefetch {
        opts = opts.with_prefetch();
    }
    if let Some(r) = cfg.retry {
        opts = opts.retry(r.max_attempts, Duration::from_micros(r.delay_us));
    }
    if let Some(r) = recorder {
        opts = opts.with_trace(r.clone());
    }
    let store = TensorStore::new(cfg.batch, cfg.tensor_size, cfg.seed);
    let out = execute_plan_real(stream, plan, &store, &opts).map_err(|e| e.to_string())?;
    println!(
        "{}: computed {} kernels on {} threads in {:.1} ms",
        plan.scheduler,
        out.kernels,
        plan.num_gpus,
        out.wall_secs * 1e3
    );
    println!("tasks per worker (assigned): {:?}", out.per_worker_tasks);
    if opts.steal {
        println!(
            "tasks per worker (executed): {:?} ({} stolen)",
            out.per_worker_executed, out.steals
        );
    }
    if faults.fault_count() > 0 {
        println!(
            "chaos: {} fault(s) injected | {} hit | {} retries | {} worker(s) lost",
            faults.fault_count(),
            out.faults,
            out.retries,
            out.lost_workers
        );
    }
    println!("checksum: {}", out.checksum);
    Ok(())
}

/// A Table VI correlator preset: Groute against the configured scheduler
/// on the configured machine.
fn redstar(args: &Args) -> Result<(), String> {
    let cfg = session_config_from_args(args, None)?;
    let scale = match args.str_or("scale", "ci").as_str() {
        "paper" => PresetScale::Paper,
        "ci" => PresetScale::Ci,
        other => return Err(format!("unknown scale '{other}' (paper|ci)")),
    };
    let spec = match args.str_or("preset", "al_rhopi").as_str() {
        "al_rhopi" => al_rhopi(scale),
        "f0d2" => f0d2(scale),
        "f0d4" => f0d4(scale),
        "nucleon_pipi" => nucleon_pipi(scale),
        "kk_pipi" => kk_pipi(scale),
        other => {
            return Err(format!(
                "unknown preset '{other}' (al_rhopi|f0d2|f0d4|nucleon_pipi|kk_pipi)"
            ))
        }
    };
    println!("building correlator {}…", spec.name);
    let program = build_correlator(&spec);
    println!(
        "{} graphs → {} steps → {} unique ({:.1}% CSE), {} stages, working set {:.2} GiB",
        program.graph_count,
        program.total_steps,
        program.unique_steps,
        program.cse_savings() * 100.0,
        program.stream.vectors().len(),
        program.working_set_bytes as f64 / (1u64 << 30) as f64,
    );
    let session = cfg.session(&program.stream).map_err(|e| e.to_string())?;
    let groute = session
        .run(&mut GrouteScheduler::new(), &program.stream)
        .map_err(|e| e.to_string())?;
    let mut sched = cfg.build_scheduler().map_err(|e| e.to_string())?;
    let m = session
        .run(sched.as_mut(), &program.stream)
        .map_err(|e| e.to_string())?;
    print_report(&groute);
    print_report(&m);
    println!(
        "speedup {}/Groute: {:.2}x",
        m.scheduler,
        m.speedup_over(&groute)
    );
    Ok(())
}

/// Multi-node run of the configured workload: flat against hierarchical
/// scheduling (with the configured reuse bounds inside each node).
fn cluster(args: &Args) -> Result<(), String> {
    let nodes: usize = args.parse_or("nodes", 2).map_err(|e| e.to_string())?;
    let gpus: usize = args
        .parse_or("gpus-per-node", 4)
        .map_err(|e| e.to_string())?;
    if nodes == 0 {
        return Err("--nodes must be at least 1".into());
    }
    if gpus == 0 {
        return Err("--gpus-per-node must be at least 1".into());
    }
    let cfg = session_config_from_args(args, None)?;
    let stream = stream_for(args, &cfg)?;
    let cluster = ClusterConfig::mi100_cluster(nodes, gpus);
    let flat = run_cluster_schedule(&mut FlatClusterScheduler::new(), &stream, &cluster)
        .map_err(|e| e.to_string())?;
    let mut hier = HierarchicalScheduler::new(16, ReuseBounds::from(cfg.bounds));
    let h = run_cluster_schedule(&mut hier, &stream, &cluster).map_err(|e| e.to_string())?;
    for r in [&flat, &h] {
        println!(
            "{}: {:.0} GFLOPS | elapsed {:.3} ms | network transfers {} ({:.1} MiB)",
            r.scheduler,
            r.gflops(),
            r.elapsed_secs * 1e3,
            r.inter_transfers,
            r.inter_bytes as f64 / (1 << 20) as f64
        );
    }
    println!(
        "hierarchical speedup: {:.2}x",
        flat.elapsed_secs / h.elapsed_secs
    );
    Ok(())
}

fn train(args: &Args) -> Result<(), String> {
    let samples: usize = args.parse_or("samples", 40).map_err(|e| e.to_string())?;
    let seed: u64 = args.parse_or("seed", 7).map_err(|e| e.to_string())?;
    let tc = TrainingConfig {
        samples,
        seed,
        ..TrainingConfig::default()
    };
    println!("labelling {samples} samples by bound sweeps (deterministic)…");
    let set = build_training_set(&tc, &MachineConfig::mi100_like(8));
    let model = RegressionBounds::train(&set, seed);
    println!("trained 3 random forests on {} samples\n", set.len());
    println!("{:<8} {:<8} {:>12}", "rate", "bias", "bounds");
    for rate in [0.1, 0.3, 0.5, 0.7, 0.9] {
        for bias in [0.1, 0.6] {
            let c = DataCharacteristics {
                vector_size: 64,
                tensor_bytes: (4 * 384 * 384 * 16) as f64,
                repeated_rate: rate,
                distribution_bias: bias,
            };
            println!(
                "{:<8} {:<8} {:>12}",
                rate,
                bias,
                model.predict(&c).to_string()
            );
        }
    }
    Ok(())
}

/// Parse the analyzer tunables shared by `lint` and `plan --lint`.
fn analysis_config(args: &Args) -> Result<AnalysisConfig, String> {
    let defaults = AnalysisConfig::default();
    Ok(AnalysisConfig {
        thrash_window: args
            .parse_or("thrash-window", defaults.thrash_window)
            .map_err(|e| e.to_string())?,
        ..defaults
    })
}

/// Print a report in the requested `--format` and apply the `--deny`
/// gate (default: error). The gate takes a comma-separated mix of
/// severity levels (`error|warn|info`, the lowest one wins) and specific
/// registry codes (`MICCO-W205`); anything else is rejected loudly.
/// Returns `Err` — a non-zero exit — when any finding reaches the
/// severity threshold or carries a denied code.
fn emit_report(report: &Report, args: &Args, artifact: &str) -> Result<(), String> {
    match args.str_or("format", "text").as_str() {
        "text" => print!("{}", report.render_text()),
        "json" => println!("{}", report.to_json()),
        "sarif" => println!("{}", report.to_sarif(artifact)),
        other => return Err(format!("unknown format '{other}' (text|json|sarif)")),
    }
    let deny = args.str_or("deny", "error");
    let mut threshold: Option<Severity> = None;
    let mut codes: Vec<Code> = Vec::new();
    for part in deny.split(',').map(str::trim).filter(|p| !p.is_empty()) {
        if let Some(sev) = Severity::parse(part) {
            threshold = Some(threshold.map_or(sev, |t: Severity| t.min(sev)));
        } else if let Some(code) = Code::parse(part) {
            codes.push(code);
        } else {
            return Err(format!(
                "unknown --deny value '{part}' (a severity error|warn|info or a code like MICCO-W205)"
            ));
        }
    }
    if threshold.is_none() && codes.is_empty() {
        return Err(format!(
            "--deny '{deny}' names no severity level and no code"
        ));
    }
    let mut reasons = Vec::new();
    if let Some(t) = threshold {
        if report.denies(t) {
            reasons.push(format!("findings at or above '{}'", t.as_str()));
        }
    }
    for code in codes {
        let hits = report.with_code(code).len();
        if hits > 0 {
            reasons.push(format!("{hits} finding(s) carrying {}", code.id()));
        }
    }
    if !reasons.is_empty() {
        return Err(format!(
            "lint failed: {} error(s), {} warning(s), {} info(s) — denied: {}",
            report.errors(),
            report.warnings(),
            report.infos(),
            reasons.join("; ")
        ));
    }
    Ok(())
}

/// Parse the certifier tunables (`--eps-us`, `--transfers`).
fn certify_config(args: &Args) -> Result<CertifyConfig, String> {
    let transfers = match args.str_or("transfers", "auto").as_str() {
        "auto" => TransferStrictness::Auto,
        "strict" => TransferStrictness::Strict,
        "lenient" => TransferStrictness::Lenient,
        other => {
            return Err(format!(
                "unknown --transfers mode '{other}' (auto|strict|lenient)"
            ))
        }
    };
    Ok(CertifyConfig {
        eps_us: args
            .parse_or("eps-us", CertifyConfig::default().eps_us)
            .map_err(|e| e.to_string())?,
        transfers,
    })
}

/// `micco store <stats|verify|compact> --dir DIR`: inspect and maintain
/// a durable plan store outside any planning command.
fn store_cmd(args: &Args) -> Result<(), String> {
    let dir = args
        .get("dir")
        .or_else(|| args.get("store"))
        .ok_or_else(|| "store needs --dir DIR (or --store DIR)".to_owned())?;
    match args.subaction.as_deref() {
        None | Some("stats") => {
            let store = PlanStore::open(dir).map_err(|e| e.to_string())?;
            let s = store.stats();
            println!(
                "store {dir}: {} live record(s) in {} fragment(s), {} bytes on disk",
                s.live_records, s.fragments, s.disk_bytes
            );
            match s.snapshot {
                Some(seq) => println!("  snapshot watermark: seq {seq}"),
                None => println!("  snapshot watermark: none"),
            }
            println!("  next fragment seq: {}", s.next_seq);
            println!("  recovery: {}", s.recovery);
            Ok(())
        }
        Some("verify") => {
            let report = PlanStore::verify_dir(dir).map_err(|e| e.to_string())?;
            println!("{report}");
            if report.is_clean() {
                println!(
                    "store {dir}: clean ({} record(s) verified)",
                    report.records()
                );
                Ok(())
            } else if args.flag("strict") {
                Err(format!("store {dir}: integrity findings (see above)"))
            } else {
                println!(
                    "store {dir}: integrity findings — reopening recovers the clean \
                     prefix; `micco store compact --dir {dir}` then drops the damage"
                );
                Ok(())
            }
        }
        Some("compact") => {
            let mut store = PlanStore::open(dir).map_err(|e| e.to_string())?;
            let r = store.compact().map_err(|e| e.to_string())?;
            println!(
                "store {dir}: folded {} fragment(s) into a snapshot of {} live record(s); \
                 removed {} file(s), reclaimed {} bytes",
                r.folded_fragments, r.live_records, r.removed_files, r.reclaimed_bytes
            );
            Ok(())
        }
        Some(other) => Err(format!(
            "unknown store action '{other}' (stats|verify|compact)"
        )),
    }
}

/// `micco serve`: the multi-tenant scheduling daemon. Binds the HTTP
/// endpoint, prints where it listens, and parks until killed (or for
/// `--max-runtime-secs N`, for scripted runs).
fn serve_cmd(args: &Args) -> Result<(), String> {
    let mut config = ServeConfig::default();
    config.pool_gpus = args
        .parse_or("pool-gpus", config.pool_gpus)
        .map_err(|e| e.to_string())?;
    config.max_queue = args
        .parse_or("max-queue", config.max_queue)
        .map_err(|e| e.to_string())?;
    config.mem_headroom = args
        .parse_or("mem-headroom", config.mem_headroom)
        .map_err(|e| e.to_string())?;
    config.time_scale = args
        .parse_or("time-scale", config.time_scale)
        .map_err(|e| e.to_string())?;
    if let Some(dir) = args.get("store") {
        config.store = Some(dir.into());
    }
    if let Some(list) = args.get("tenants") {
        config.tenants = list
            .split(',')
            .filter(|s| !s.trim().is_empty())
            .map(|s| TenantSpec::parse(s.trim()))
            .collect::<Result<_, _>>()?;
    }
    if let Some(p) = args.get("default-priority") {
        config.default_priority = Priority::parse(p)?;
    }
    config.default_weight = args
        .parse_or("default-weight", config.default_weight)
        .map_err(|e| e.to_string())?;
    if config.default_weight == 0 {
        return Err("--default-weight must be at least 1".into());
    }
    let max_runtime: u64 = args
        .parse_or("max-runtime-secs", 0)
        .map_err(|e| e.to_string())?;

    let addr = args.str_or("addr", "127.0.0.1:7070");
    let service = Service::start(&addr, config)?;
    println!("micco-serve listening on http://{}", service.addr());
    println!(
        "  POST /v1/jobs | GET /v1/jobs[/ID[/result]] | POST /v1/jobs/ID/cancel | \
         GET /metrics | GET /healthz"
    );
    if max_runtime > 0 {
        std::thread::sleep(Duration::from_secs(max_runtime));
        println!("max runtime reached; draining and shutting down");
        service.shutdown();
    } else {
        // park forever; ^C tears the process down
        loop {
            std::thread::sleep(Duration::from_secs(3600));
        }
    }
    Ok(())
}

/// `micco load`: open-loop load generator. Each tenant submits the
/// request on its own Poisson clock (seeded by the request's seed) for
/// `--duration`, the run drains, and the per-tenant latency distribution
/// is printed.
fn load_cmd(args: &Args) -> Result<(), String> {
    let addr: std::net::SocketAddr = args
        .str_or("addr", "127.0.0.1:7070")
        .parse()
        .map_err(|e| format!("--addr: {e}"))?;
    let duration: f64 = args.parse_or("duration", 5.0).map_err(|e| e.to_string())?;
    let drain: f64 = args.parse_or("drain", 30.0).map_err(|e| e.to_string())?;
    let default_rate: f64 = args
        .parse_or("jobs-per-sec", 4.0)
        .map_err(|e| e.to_string())?;
    if duration <= 0.0 || default_rate <= 0.0 {
        return Err("--duration and --jobs-per-sec must be positive".into());
    }
    let job_config = session_config_from_args(args, None)?;
    let mut tenants = Vec::new();
    // NAME[:PRIORITY[:RATE]] — the priority travels with each submission,
    // the rate overrides --jobs-per-sec for that tenant
    for spec in args
        .str_or("tenants", "default")
        .split(',')
        .filter(|s| !s.trim().is_empty())
    {
        let mut parts = spec.trim().split(':');
        let name = parts.next().filter(|n| !n.is_empty()).ok_or_else(|| {
            format!("empty tenant in --tenants '{spec}' (NAME[:PRIORITY[:RATE]])")
        })?;
        let mut load = TenantLoad::new(name, default_rate, job_config.clone());
        if let Some(p) = parts.next() {
            Priority::parse(p)?; // validate the grammar client-side
            load = load.with_priority(p);
        }
        if let Some(r) = parts.next() {
            load.rate = r
                .parse::<f64>()
                .ok()
                .filter(|r| *r > 0.0)
                .ok_or_else(|| format!("bad rate '{r}' in --tenants '{spec}'"))?;
        }
        if parts.next().is_some() {
            return Err(format!("too many ':' in --tenants '{spec}'"));
        }
        tenants.push(load);
    }

    println!(
        "open-loop load against http://{addr}: {} tenant(s), {duration:.1}s window",
        tenants.len()
    );
    let report = run_open_loop(
        addr,
        &tenants,
        Duration::from_secs_f64(duration),
        Duration::from_secs_f64(drain),
        job_config.seed,
    )?;
    println!(
        "{:<12} {:>6} {:>6} {:>6} {:>6} {:>6} {:>9} {:>9} {:>8}",
        "tenant", "sub", "done", "rej", "evict", "fail", "p50 ms", "p99 ms", "jobs/s"
    );
    for t in &report.tenants {
        println!(
            "{:<12} {:>6} {:>6} {:>6} {:>6} {:>6} {:>9.1} {:>9.1} {:>8.2}",
            t.tenant,
            t.submitted,
            t.completed,
            t.rejected,
            t.evicted,
            t.failed,
            t.latency.p50(),
            t.latency.p99(),
            t.jobs_per_sec,
        );
    }
    println!(
        "total: {:.2} jobs/s over {:.1}s wall",
        report.total_jobs_per_sec(),
        report.wall_secs
    );
    Ok(())
}

fn info(_: &Args) -> Result<(), String> {
    let c = CostModel::mi100_like();
    println!("MICCO reproduction — simulated platform defaults");
    println!(
        "  device throughput : {:.0} GFLOP/s (batched complex GEMM)",
        c.device_gflops
    );
    println!(
        "  host→device       : {:.0} GiB/s + {:.0} µs latency",
        c.h2d_gib_s, c.transfer_latency_us
    );
    println!(
        "  device→device     : {:.0} GiB/s (+source charge: {})",
        c.d2d_gib_s, c.d2d_charges_source
    );
    println!(
        "  alloc / evict     : {:.0} µs / {:.0} µs (+write-back for intermediates)",
        c.alloc_latency_us, c.evict_latency_us
    );
    println!(
        "  async copy        : {} (enable with --overlap)",
        c.async_copy
    );
    println!("  device memory     : 32 GiB per GPU (MI100-like)");
    println!("  eviction policy   : LRU (FIFO / largest-first available)");
    println!();
    println!("{USAGE}");
    Ok(())
}

#[cfg(test)]
mod tests {
    use super::*;

    fn run(cmd: &str) -> Result<(), String> {
        let args = Args::parse(cmd.split_whitespace().map(String::from)).unwrap();
        dispatch(&args).map_err(|(Failure::Usage(msg) | Failure::Command(msg))| msg)
    }

    #[test]
    fn run_runs() {
        run("run --vector-size 8 --tensor-size 64 --vectors 2 --gpus 2").unwrap();
    }

    #[test]
    fn run_with_all_schedulers() {
        for s in ["micco", "micco-naive", "groute", "coda", "rr"] {
            run(&format!(
                "run --vector-size 4 --tensor-size 32 --vectors 1 --gpus 2 --scheduler {s}"
            ))
            .unwrap();
        }
    }

    #[test]
    fn run_oversub_and_async() {
        run("run --vector-size 8 --tensor-size 64 --vectors 2 --gpus 2 --oversub 1.5 --overlap")
            .unwrap();
    }

    #[test]
    fn run_overlap_and_prefetch_window() {
        run("run --vector-size 8 --tensor-size 64 --vectors 2 --gpus 2 --overlap --prefetch-tasks 2")
            .unwrap();
    }

    #[test]
    fn redstar_ci_preset_runs() {
        run("redstar --preset al_rhopi --scale ci --gpus 2").unwrap();
    }

    #[test]
    fn train_runs_small() {
        run("train --samples 3 --seed 1").unwrap();
    }

    #[test]
    fn cluster_runs() {
        run("cluster --nodes 2 --gpus-per-node 2 --vectors 2").unwrap();
        run("cluster --nodes 2 --gpus-per-node 2 --vector-size 8 --tensor-size 64 --vectors 2 --bounds 1,1,1")
            .unwrap();
    }

    #[test]
    fn info_runs() {
        run("info").unwrap();
    }

    #[test]
    fn run_with_mappings() {
        run("run --vector-size 4 --tensor-size 32 --vectors 2 --gpus 2 --mappings").unwrap();
    }

    #[test]
    fn exec_runs_small() {
        run("exec --vector-size 4 --tensor-size 16 --vectors 2 --gpus 2").unwrap();
    }

    #[test]
    fn exec_with_stealing_and_prefetch() {
        run("exec --vector-size 4 --tensor-size 16 --vectors 2 --gpus 2 --steal --prefetch")
            .unwrap();
    }

    #[test]
    fn exec_with_fault_injection_and_retry() {
        // transient kernel fault on task 0 survives a 3-attempt budget
        run(
            "exec --vector-size 4 --tensor-size 16 --vectors 2 --gpus 2 \
             --inject-faults kernel:0 --retry 3",
        )
        .unwrap();
        // permanent loss of gpu 1 at stage 1: survivors drain its queues
        run(
            "exec --vector-size 4 --tensor-size 16 --vectors 2 --gpus 2 \
             --inject-faults lose:1@1 --retry 2,10",
        )
        .unwrap();
        // without a retry budget a kernel fault fails the run
        let err = run(
            "exec --vector-size 4 --tensor-size 16 --vectors 2 --gpus 2 \
             --inject-faults kernel:0",
        )
        .unwrap_err();
        assert!(err.contains("failed"), "{err}");
        // malformed specs are rejected up front
        assert!(run("exec --gpus 2 --inject-faults bogus:0").is_err());
        assert!(run("exec --gpus 2 --retry many").is_err());
        assert!(run("exec --gpus 2 --retry 3,slow").is_err());
        // the worker count is the request's GPU count; --workers is gone
        let err = run("exec --vector-size 4 --tensor-size 16 --vectors 2 --workers 2").unwrap_err();
        assert!(err.contains("--workers"), "{err}");
    }

    #[test]
    fn execute_real_with_fault_injection() {
        let dir = std::env::temp_dir();
        let plan_path = dir.join(format!("micco-cli-chaos-{}.txt", std::process::id()));
        let wl = "--vector-size 4 --tensor-size 16 --batch 2 --vectors 2 --seed 3";
        run(&format!(
            "plan {wl} --gpus 2 --scheduler micco --out {}",
            plan_path.display()
        ))
        .unwrap();
        run(&format!(
            "execute {wl} --plan {} --backend real --inject-faults kernel:1,lose:0@1 --retry 3",
            plan_path.display()
        ))
        .unwrap();
        let _ = std::fs::remove_file(plan_path);
    }

    #[test]
    fn plan_execute_replay_roundtrip_sim_and_real() {
        let dir = std::env::temp_dir();
        let plan_path = dir.join(format!("micco-cli-plan-{}.txt", std::process::id()));
        let wl = "--vector-size 4 --tensor-size 16 --batch 2 --vectors 2 --seed 3";
        run(&format!(
            "plan {wl} --gpus 2 --scheduler micco --out {}",
            plan_path.display()
        ))
        .unwrap();
        let text = std::fs::read_to_string(&plan_path).unwrap();
        assert!(text.starts_with("micco-plan v2"));
        // sim backend replays the plan on the simulator
        run(&format!("execute {wl} --plan {}", plan_path.display())).unwrap();
        // real backend computes actual kernels from the same plan
        run(&format!(
            "execute {wl} --plan {} --backend real",
            plan_path.display()
        ))
        .unwrap();
        // replay verifies determinism across repeated executions
        run(&format!(
            "replay {wl} --plan {} --times 2",
            plan_path.display()
        ))
        .unwrap();
        let _ = std::fs::remove_file(plan_path);
    }

    #[test]
    fn execute_rejects_mismatched_workload() {
        let dir = std::env::temp_dir();
        let plan_path = dir.join(format!("micco-cli-plan-drift-{}.txt", std::process::id()));
        run(&format!(
            "plan --vector-size 4 --tensor-size 16 --vectors 2 --seed 3 --gpus 2 --out {}",
            plan_path.display()
        ))
        .unwrap();
        // different seed ⇒ different stream ⇒ fingerprint mismatch
        let err = run(&format!(
            "execute --vector-size 4 --tensor-size 16 --vectors 2 --seed 4 --plan {}",
            plan_path.display()
        ))
        .unwrap_err();
        assert!(err.contains("fingerprint"), "{err}");
        let _ = std::fs::remove_file(plan_path);
    }

    #[test]
    fn plan_and_execute_report_bad_inputs() {
        assert!(run("execute").is_err());
        assert!(run("replay").is_err());
        assert!(run("execute --plan /nonexistent/plan.txt").is_err());
        let dir = std::env::temp_dir();
        let p = dir.join(format!("micco-cli-badplan-{}.txt", std::process::id()));
        std::fs::write(&p, "micco-plan v99\n").unwrap();
        let err = run(&format!("execute --plan {}", p.display())).unwrap_err();
        assert!(err.contains("not supported"), "{err}");
        let _ = std::fs::remove_file(p);
    }

    #[test]
    fn lint_accepts_clean_plan() {
        let dir = std::env::temp_dir();
        let plan_path = dir.join(format!("micco-cli-lint-{}.txt", std::process::id()));
        let wl = "--vector-size 4 --tensor-size 16 --vectors 2 --seed 3";
        // plan --lint verifies the freshly decided plan inline
        run(&format!(
            "plan {wl} --gpus 2 --scheduler micco --lint --out {}",
            plan_path.display()
        ))
        .unwrap();
        for format in ["text", "json", "sarif"] {
            run(&format!(
                "lint {wl} --plan {} --format {format} --deny warn",
                plan_path.display()
            ))
            .unwrap();
        }
        assert!(run(&format!(
            "lint {wl} --plan {} --format bogus",
            plan_path.display()
        ))
        .is_err());
        assert!(run(&format!(
            "lint {wl} --plan {} --deny bogus",
            plan_path.display()
        ))
        .is_err());
        // --deny also takes specific codes, mixed with severity levels
        run(&format!(
            "lint {wl} --plan {} --deny error,MICCO-W101",
            plan_path.display()
        ))
        .unwrap();
        assert!(run(&format!(
            "lint {wl} --plan {} --deny MICCO-X999",
            plan_path.display()
        ))
        .is_err());
        assert!(run("lint").is_err());
        let _ = std::fs::remove_file(plan_path);
    }

    #[test]
    fn lint_denies_capacity_violation() {
        let dir = std::env::temp_dir();
        let plan_path = dir.join(format!("micco-cli-lint-oom-{}.txt", std::process::id()));
        // 384³ batched tensors are ~9 MiB each: a 1 MiB device cannot hold
        // a single working set, so the replay reports MICCO-E001
        let wl = "--vector-size 4 --tensor-size 384 --vectors 1 --seed 3";
        run(&format!("plan {wl} --gpus 2 --out {}", plan_path.display())).unwrap();
        let err = run(&format!(
            "lint {wl} --plan {} --mem-mib 1",
            plan_path.display()
        ))
        .unwrap_err();
        assert!(err.contains("lint failed"), "{err}");
        // a different workload geometry ⇒ fingerprint mismatch ⇒ denied
        let err = run(&format!(
            "lint --vector-size 4 --tensor-size 128 --vectors 1 --seed 3 --plan {}",
            plan_path.display()
        ))
        .unwrap_err();
        assert!(err.contains("lint failed"), "{err}");
        let _ = std::fs::remove_file(plan_path);
    }

    #[test]
    fn certify_roundtrip_mutation_and_code_deny() {
        let dir = std::env::temp_dir();
        let pid = std::process::id();
        let plan_path = dir.join(format!("micco-cli-cert-plan-{pid}.txt"));
        let trace_path = dir.join(format!("micco-cli-cert-trace-{pid}.json"));
        let bad_path = dir.join(format!("micco-cli-cert-bad-{pid}.json"));
        let (p, t, b) = (
            plan_path.display(),
            trace_path.display(),
            bad_path.display(),
        );
        let wl = "--vector-size 4 --tensor-size 16 --batch 2 --vectors 2 --seed 3";
        run(&format!("plan {wl} --gpus 2 --out {p}")).unwrap();
        // sim backend: the Perfetto trace certifies clean even under the
        // strictest gates (every severity denied, strict transfers)
        run(&format!("execute {wl} --plan {p} --trace-out {t}")).unwrap();
        for format in ["text", "json", "sarif"] {
            run(&format!(
                "certify {wl} --plan {p} --trace {t} --format {format} \
                 --deny info --transfers strict"
            ))
            .unwrap();
        }
        // drop the first compute span (one event per line; every line but
        // the last event's ends in a comma, so the rest stays valid JSON):
        // certification must fail with E006
        let text = std::fs::read_to_string(&trace_path).unwrap();
        let mut dropped = false;
        let mutated: Vec<&str> = text
            .lines()
            .filter(|l| {
                let is_compute = l.contains("\"ph\":\"X\"")
                    && l.contains("\"tid\":0,")
                    && l.contains("\"name\":\"task ")
                    && l.ends_with(',');
                if is_compute && !dropped {
                    dropped = true;
                    return false;
                }
                true
            })
            .collect();
        assert!(dropped, "trace has a compute span to drop");
        std::fs::write(&bad_path, mutated.join("\n")).unwrap();
        let err = run(&format!("certify {wl} --plan {p} --trace {b} --deny error")).unwrap_err();
        assert!(err.contains("lint failed"), "{err}");
        // the same violation is deniable by its specific code…
        let err = run(&format!(
            "certify {wl} --plan {p} --trace {b} --deny MICCO-E006"
        ))
        .unwrap_err();
        assert!(err.contains("MICCO-E006"), "{err}");
        // …while a code-only gate for a different code lets it through
        run(&format!(
            "certify {wl} --plan {p} --trace {b} --deny MICCO-W205"
        ))
        .unwrap();
        // real backend wall-clock traces certify clean too
        run(&format!(
            "execute {wl} --plan {p} --backend real --trace-out {t}"
        ))
        .unwrap();
        run(&format!("certify {wl} --plan {p} --trace {t} --deny warn")).unwrap();
        // bad inputs are rejected loudly
        assert!(run("certify").is_err());
        assert!(run(&format!("certify {wl} --plan {p}")).is_err());
        assert!(run(&format!(
            "certify {wl} --plan {p} --trace /nonexistent/t.txt"
        ))
        .is_err());
        assert!(run(&format!(
            "certify {wl} --plan {p} --trace {t} --deny MICCO-E999"
        ))
        .is_err());
        assert!(run(&format!(
            "certify {wl} --plan {p} --trace {t} --transfers bogus"
        ))
        .is_err());
        assert!(run(&format!("certify {wl} --plan {p} --trace {t} --deny ,")).is_err());
        for path in [&plan_path, &trace_path, &bad_path] {
            let _ = std::fs::remove_file(path);
        }
    }

    #[test]
    fn run_with_trace_out_writes_perfetto_json() {
        let out = std::env::temp_dir().join(format!("micco-cli-run-{}.json", std::process::id()));
        run(&format!(
            "run --vector-size 4 --tensor-size 32 --vectors 2 --gpus 2 --overlap \
             --mappings --trace-out {}",
            out.display()
        ))
        .unwrap();
        let text = std::fs::read_to_string(&out).unwrap();
        assert!(text.starts_with('{'), "perfetto export is an object");
        assert!(text.contains("traceEvents"));
        assert!(text.contains("\"run "), "run span is recorded");
        let events = from_perfetto_json(&text).unwrap();
        assert!(!events.is_empty(), "the trace file reads back");
        let _ = std::fs::remove_file(out);
        // without --trace-out the command still runs (no file written)
        run("run --vector-size 4 --tensor-size 32 --vectors 1 --gpus 2").unwrap();
    }

    #[test]
    fn exec_and_execute_accept_trace_out() {
        let dir = std::env::temp_dir();
        let exec_out = dir.join(format!("micco-cli-exec-tr-{}.json", std::process::id()));
        run(&format!(
            "exec --vector-size 4 --tensor-size 16 --vectors 2 --gpus 2 --trace-out {}",
            exec_out.display()
        ))
        .unwrap();
        let text = std::fs::read_to_string(&exec_out).unwrap();
        assert!(text.starts_with('{') && text.contains("traceEvents"));
        let _ = std::fs::remove_file(exec_out);

        let plan_path = dir.join(format!("micco-cli-ex-tr-plan-{}.txt", std::process::id()));
        let wl = "--vector-size 4 --tensor-size 16 --batch 2 --vectors 2 --seed 3";
        run(&format!("plan {wl} --gpus 2 --out {}", plan_path.display())).unwrap();
        for backend in ["sim", "real"] {
            let out = dir.join(format!(
                "micco-cli-ex-tr-{backend}-{}.json",
                std::process::id()
            ));
            run(&format!(
                "execute {wl} --plan {} --backend {backend} --trace-out {}",
                plan_path.display(),
                out.display()
            ))
            .unwrap();
            let text = std::fs::read_to_string(&out).unwrap();
            assert!(
                text.starts_with('{') && text.contains("traceEvents"),
                "{backend} backend writes perfetto json"
            );
            let _ = std::fs::remove_file(out);
        }
        let _ = std::fs::remove_file(plan_path);
    }

    #[test]
    fn topology_flag_threads_through_plan_lint_run_and_trace() {
        let dir = std::env::temp_dir();
        let pid = std::process::id();
        let plan_path = dir.join(format!("micco-cli-topo-plan-{pid}.txt"));
        let topo_path = dir.join(format!("micco-cli-topo-{pid}.txt"));
        let trace_path = dir.join(format!("micco-cli-topo-trace-{pid}.json"));
        std::fs::write(&topo_path, "nvlink{gpus:4, island:2}\n").unwrap();
        let wl = "--vector-size 8 --tensor-size 16 --vectors 2 --seed 3";
        // inline spec on plan (with --lint and --topology-aware)
        run(&format!(
            "plan {wl} --gpus 4 --topology nvlink{{gpus:4,island:2}} --topology-aware \
             --lint --out {}",
            plan_path.display()
        ))
        .unwrap();
        // file spec on lint: the topology-decided plan stays clean
        run(&format!(
            "lint {wl} --plan {} --topology {} --deny error",
            plan_path.display(),
            topo_path.display()
        ))
        .unwrap();
        // run through the session with routed transfers
        run(&format!(
            "run {wl} --gpus 4 --topology {}",
            topo_path.display()
        ))
        .unwrap();
        // execute replays the plan and exports link lanes
        run(&format!(
            "execute {wl} --plan {} --topology {} --trace-out {}",
            plan_path.display(),
            topo_path.display(),
            trace_path.display()
        ))
        .unwrap();
        let text = std::fs::read_to_string(&trace_path).unwrap();
        assert!(text.contains("link0"), "link lanes exported");
        // 'flat' is accepted and means no topology; garbage is rejected
        run(&format!("run {wl} --gpus 4 --topology flat")).unwrap();
        assert!(run(&format!("run {wl} --gpus 4 --topology bogus{{}}")).is_err());
        for p in [&plan_path, &topo_path, &trace_path] {
            let _ = std::fs::remove_file(p);
        }
    }

    #[test]
    fn save_and_load_roundtrip() {
        let path = std::env::temp_dir().join(format!("micco-cli-wl-{}.txt", std::process::id()));
        run(&format!(
            "run --vector-size 4 --tensor-size 32 --vectors 2 --gpus 2 --save {}",
            path.display()
        ))
        .unwrap();
        run(&format!("run --gpus 2 --load {}", path.display())).unwrap();
        let _ = std::fs::remove_file(path);
    }

    #[test]
    fn heterogeneous_dims_flag() {
        run("run --vector-size 4 --vectors 3 --gpus 2 --dims 32,64").unwrap();
        assert!(run("run --dims 32,x --gpus 2").is_err());
    }

    /// The usage text follows a grammar error only: a command that ran
    /// and failed reports its own message.
    #[test]
    fn grammar_errors_are_told_apart_from_command_failures() {
        let failure = |cmd: &str| {
            let args = Args::parse(cmd.split_whitespace().map(String::from)).unwrap();
            dispatch(&args).unwrap_err()
        };
        assert_eq!(
            dispatch(&Args::default()),
            Err(Failure::Usage("no command given".into()))
        );
        for (cmd, msg) in [
            ("bogus", "unknown command 'bogus'"),
            ("run extra", "unexpected argument 'extra'"),
            ("lint --bogus", "unknown flag --bogus"),
            ("lint --plan", "--plan needs a value"),
            ("plan --lint yes", "--lint takes no value"),
        ] {
            assert_eq!(failure(cmd), Failure::Usage(msg.into()), "{cmd}");
        }
        assert!(matches!(
            failure("run --dist sideways"),
            Failure::Command(_)
        ));
        assert!(matches!(
            failure("lint --plan /nonexistent/micco-plan.txt"),
            Failure::Command(_)
        ));
    }

    #[test]
    fn errors_are_reported() {
        assert!(run("bogus").is_err());
        assert!(run("run --dist sideways").is_err());
        assert!(run("run --scheduler alien").is_err());
        assert!(run("redstar --preset nope").is_err());
        assert!(run("run --bounds 1,2").is_err());
        assert!(dispatch(&Args::default()).is_err());
        // the duplicate subcommands are gone: `run` and `execute` cover
        // them, and the bench binaries own the sweeps
        for gone in ["synthetic", "trace", "compare", "sweep"] {
            let err = run(&format!("{gone} --gpus 2")).unwrap_err();
            assert!(err.contains("unknown command"), "{err}");
        }
        // a cluster needs a node and a device per node
        for (flag, line) in [
            ("--nodes", "cluster --nodes 0"),
            ("--gpus-per-node", "cluster --gpus-per-node 0"),
        ] {
            let err = run(line).unwrap_err();
            assert!(err.contains(flag), "{err}");
        }
    }

    fn store_dir(name: &str) -> std::path::PathBuf {
        let dir =
            std::env::temp_dir().join(format!("micco-cli-store-{name}-{}", std::process::id()));
        let _ = std::fs::remove_dir_all(&dir);
        dir
    }

    const STORE_WL: &str = "--vector-size 4 --tensor-size 32 --vectors 2 --gpus 2";

    #[test]
    fn plan_with_store_warm_restart_and_replay() {
        let dir = store_dir("warm");
        let d = dir.display();
        // cold: decide and append; warm: serve from the log
        run(&format!("plan {STORE_WL} --store {d} --out /dev/null")).unwrap();
        run(&format!("plan {STORE_WL} --store {d} --out /dev/null")).unwrap();
        // execute + replay fetch the plan from the store, no --plan file
        run(&format!("execute {STORE_WL} --store {d}")).unwrap();
        run(&format!("replay {STORE_WL} --store {d} --times 2")).unwrap();
        // run serves the decision from the store and executes it
        run(&format!("run {STORE_WL} --store {d}")).unwrap();
        // a different request is not in the store
        assert!(run(&format!(
            "replay --vector-size 4 --tensor-size 32 --vectors 2 --gpus 2 --seed 99 --store {d}"
        ))
        .is_err());
        // the warm path really hit the log, not the scheduler
        let cache = open_store(&d.to_string()).unwrap();
        let args = Args::parse(
            format!("plan {STORE_WL}")
                .split_whitespace()
                .map(String::from),
        )
        .unwrap();
        let (scfg, stream, session) = request(&args).unwrap();
        let mut sched = scfg.build_scheduler().unwrap();
        session
            .plan_with_cache(&cache, sched.as_mut(), &stream)
            .unwrap();
        assert_eq!((cache.log_hits(), cache.misses()), (1, 0));
        let _ = std::fs::remove_dir_all(&dir);
    }

    #[test]
    fn store_subcommand_stats_verify_compact() {
        let dir = store_dir("sub");
        let d = dir.display();
        run(&format!("plan {STORE_WL} --store {d} --out /dev/null")).unwrap();
        run(&format!("store stats --dir {d}")).unwrap();
        run(&format!("store verify --dir {d} --strict")).unwrap();
        run(&format!("store compact --dir {d}")).unwrap();
        // compacted store still serves the plan
        run(&format!("execute {STORE_WL} --store {d}")).unwrap();
        // corrupt the snapshot tail: verify reports it, --strict denies it
        let snap = std::fs::read_dir(&dir)
            .unwrap()
            .filter_map(|e| e.ok())
            .map(|e| e.path())
            .find(|p| p.extension().is_some_and(|x| x == "wal"))
            .expect("compact left a snapshot fragment");
        let bytes = std::fs::read(&snap).unwrap();
        std::fs::write(&snap, &bytes[..bytes.len() - 3]).unwrap();
        run(&format!("store verify --dir {d}")).unwrap();
        assert!(run(&format!("store verify --dir {d} --strict")).is_err());
        // errors: no dir, unknown action, stray subaction on other commands
        assert!(run("store stats").is_err());
        assert!(run(&format!("store polish --dir {d}")).is_err());
        assert!(run("info extra").is_err());
        let _ = std::fs::remove_dir_all(&dir);
    }

    #[test]
    fn execute_without_plan_or_store_is_rejected() {
        assert!(run(&format!("execute {STORE_WL}"))
            .unwrap_err()
            .contains("--plan FILE or --store DIR"));
    }

    #[test]
    fn config_file_and_flags_are_one_grammar() {
        // the same request spelled as flags and as a --config document
        // must produce byte-identical plans (and store keys)
        let flags = Args::parse(
            format!("plan {STORE_WL} --topology-aware --scheduler micco --bounds 0,2,0")
                .split_whitespace()
                .map(String::from),
        )
        .unwrap();
        let from_flags = session_config_from_args(&flags, None).unwrap();
        let doc = from_flags.to_json();
        let path = std::env::temp_dir().join(format!("micco-cli-cfg-{}.json", std::process::id()));
        std::fs::write(&path, &doc).unwrap();
        let by_file = Args::parse(
            format!("plan --config {}", path.display())
                .split_whitespace()
                .map(String::from),
        )
        .unwrap();
        let from_file = session_config_from_args(&by_file, None).unwrap();
        assert_eq!(from_flags, from_file);
        let stream = from_flags.stream().unwrap();
        let plan_of = |scfg: &SessionConfig| {
            let mut sched = scfg.build_scheduler().unwrap();
            scfg.session(&stream)
                .unwrap()
                .plan(sched.as_mut(), &stream)
                .unwrap()
                .into_plan()
        };
        let (plan_a, plan_b) = (plan_of(&from_flags), plan_of(&from_file));
        // overhead_secs is wall clock; the decision itself must match
        assert_eq!(plan_a.stages, plan_b.stages);
        assert_eq!(plan_a.fingerprint, plan_b.fingerprint);
        assert_eq!(plan_a.scheduler, plan_b.scheduler);
        let _ = std::fs::remove_file(&path);
    }

    #[test]
    fn config_flag_mirror_covers_resilience_knobs() {
        let args = Args::parse(
            "run --vector-size 4 --tensor-size 32 --vectors 2 --gpus 2 \
             --inject-faults kernel:0*2 --retry 3,50 --overlap --prefetch-tasks 2 \
             --steal --prefetch"
                .split_whitespace()
                .map(String::from),
        )
        .unwrap();
        let cfg = session_config_from_args(&args, None).unwrap();
        assert_eq!(cfg.faults.as_deref(), Some("kernel:0*2"));
        assert_eq!(
            cfg.retry,
            Some(RetryPolicy {
                max_attempts: 3,
                delay_us: 50
            })
        );
        assert!(cfg.overlap && cfg.steal && cfg.prefetch);
        assert_eq!(cfg.prefetch_tasks, 2);
        // bad spellings are rejected with pointed messages
        for bad in [
            "run --retry zero",
            "run --retry 3,soon",
            "run --bounds 1,2",
            "run --gpus 0",
        ] {
            assert!(run(bad).is_err(), "{bad} should fail");
        }
    }

    #[test]
    fn unknown_and_misplaced_flags_are_errors_that_name_the_flag() {
        // a typo is an error, never a silent run of the default workload
        let err = run("run --vector-szie 4 --tensor-size 16 --vectors 2 --gpus 2").unwrap_err();
        assert!(err.contains("--vector-szie"), "{err}");
        // the config file is the whole request: a flag beside it is an error
        let path =
            std::env::temp_dir().join(format!("micco-cli-beside-{}.json", std::process::id()));
        std::fs::write(
            &path,
            r#"{"vector_size": 4, "tensor_size": 16, "vectors": 2, "gpus": 2}"#,
        )
        .unwrap();
        let err = run(&format!("run --config {} --gpus 7", path.display())).unwrap_err();
        assert!(err.contains("--gpus") && err.contains("--config"), "{err}");
        run(&format!("run --config {}", path.display())).unwrap();
        // workload files still combine with a config document
        run(&format!("run --config {} --save /dev/null", path.display())).unwrap();
        let _ = std::fs::remove_file(&path);
        // values and switches are checked: a value-taking flag given bare
        // no longer falls back to its default, a switch takes no value
        let err = run("run --vector-size 4 --vectors 2 --gpus").unwrap_err();
        assert!(err.contains("--gpus needs a value"), "{err}");
        let err = run("run --vector-size 4 --vectors 2 --steal 3").unwrap_err();
        assert!(err.contains("--steal takes no value"), "{err}");
        // `--overlap` is the one spelling of pipelined copies
        let err = run("run --vector-size 4 --vectors 2 --async-copy").unwrap_err();
        assert!(err.contains("--async-copy"), "{err}");
        // each command reads its own flags only
        let err = run("replay --out x.txt").unwrap_err();
        assert!(err.contains("--out"), "{err}");
        let err = run("train --samples 3 --gpus 2").unwrap_err();
        assert!(err.contains("--gpus"), "{err}");
        let err = run("info --verbose").unwrap_err();
        assert!(err.contains("--verbose"), "{err}");
        // `cluster` reads the workload and bounds, not machine or scheduler flags
        let cluster = "cluster --nodes 2 --gpus-per-node 2 --vectors 2";
        for flag in ["--gpus 3", "--scheduler groute", "--overlap"] {
            let err = run(&format!("{cluster} {flag}")).unwrap_err();
            let name = flag.split(' ').next().unwrap();
            assert_eq!(err, format!("unknown flag {name}"));
        }
    }

    #[test]
    fn topology_gpu_mismatch_is_an_error_not_a_panic() {
        let err = run("run --vector-size 4 --tensor-size 16 --vectors 2 --gpus 4 \
             --topology nvlink{gpus:8,island:4}")
        .unwrap_err();
        assert!(err.contains("covers 8 GPUs"), "{err}");
    }

    #[test]
    fn serve_and_load_round_trip_through_the_daemon() {
        // ephemeral daemon, then drive it with the load generator exactly
        // as the CLI command would
        let config = ServeConfig {
            pool_gpus: 2,
            ..ServeConfig::default()
        };
        let service = Service::start("127.0.0.1:0", config).unwrap();
        let addr = service.addr();
        let job = SessionConfig {
            vector_size: 4,
            tensor_size: 32,
            vectors: 2,
            gpus: 2,
            ..SessionConfig::default()
        };
        let tenants = vec![
            TenantLoad::new("flags", 20.0, job.clone()).with_priority("high"),
            TenantLoad::new("cfg", 20.0, job),
        ];
        let report = run_open_loop(
            addr,
            &tenants,
            std::time::Duration::from_millis(300),
            std::time::Duration::from_secs(30),
            7,
        )
        .unwrap();
        for t in &report.tenants {
            assert!(t.submitted > 0, "{} submitted nothing", t.tenant);
            assert_eq!(t.completed, t.submitted, "{} lost jobs", t.tenant);
            assert!(t.latency.p50() > 0.0);
        }
        service.shutdown();
        // the CLI grammar for the same run parses (daemon is gone, so the
        // command itself must fail with a transport error, not a panic)
        let err = run(&format!(
            "load --addr {addr} --duration 0.1 --jobs-per-sec 5 \
             --tenants a:high:2,b --vector-size 4 --tensor-size 32 --vectors 2 --gpus 2"
        ))
        .unwrap_err();
        assert!(err.contains("daemon not ready"), "{err}");
        // grammar errors surface before any connection attempt
        assert!(run("load --addr not-an-addr").is_err());
        assert!(run(&format!("load --addr {addr} --tenants a:mid")).is_err());
        assert!(run(&format!("load --addr {addr} --tenants a:low:fast")).is_err());
        assert!(run(&format!("load --addr {addr} --duration 0")).is_err());
        assert!(run(&format!("serve --addr {addr} --default-weight 0")).is_err());
        assert!(run(&format!("serve --addr {addr} --tenants x:mid")).is_err());
    }
}
