//! The served path as a deterministic simulation. One seeded test drives
//! the whole daemon on one thread: HTTP requests go through
//! `handle_connection` as byte buffers, the dispatcher's pass
//! ([`Pool::step`]) and each job's work ([`Scheduling::execute`]) are
//! called directly, and a virtual clock decides when holds run out. After
//! every step it checks the daemon's invariants against a model of what
//! each job should be doing.

use std::collections::{BTreeMap, BTreeSet};
use std::path::PathBuf;
use std::sync::atomic::{AtomicUsize, Ordering};
use std::sync::{Arc, OnceLock};
use std::time::{Duration, Instant};

use micco_core::SessionConfig;
use micco_obs::Value;
use proptest::prelude::*;

use super::{Dispatched, JobState, Scheduling, ServeConfig};
use crate::sched::{Priority, TenantSpec};
use crate::MAX_BODY_BYTES;

/// The valid configs clients submit; one names a link topology.
fn valid_configs() -> Vec<SessionConfig> {
    let tiny = |gpus, seed| SessionConfig {
        vector_size: 6,
        tensor_size: 32,
        vectors: 2,
        gpus,
        seed,
        ..SessionConfig::default()
    };
    let linked = SessionConfig {
        topology: Some("nvlink{gpus:2, island:1}".into()),
        ..tiny(2, 2)
    };
    vec![tiny(1, 1), tiny(2, 1), linked, tiny(4, 3)]
}

/// What `SessionConfig::run()` gives for each valid config: scheduler,
/// GFLOPS, simulated milliseconds and task count.
fn expected() -> &'static [(String, f64, f64, usize)] {
    static EXPECTED: OnceLock<Vec<(String, f64, f64, usize)>> = OnceLock::new();
    EXPECTED.get_or_init(|| {
        let run = |c: &SessionConfig| {
            let r = c.run().expect("a valid config runs");
            let tasks = r.stats.total_tasks() as usize;
            (
                r.scheduler.clone(),
                r.gflops(),
                r.elapsed_secs() * 1e3,
                tasks,
            )
        };
        valid_configs().iter().map(run).collect()
    })
}

/// Submission bodies past the valid configs, each refused with a status.
/// A body naming a per-job store follows them.
const REFUSED: [(u16, &str); 6] = [
    (413, r#"{"tenant":"t1","config":{"gpus":1,"vectors":4096}}"#),
    (
        400,
        r#"{"tenant":"t1","config":{"gpus":2,"topology":"nvlink{gpus:8, island:4}"}}"#,
    ),
    (
        400,
        r#"{"tenant":"t1","config":{"gpus":1,"oversub":1e999}}"#,
    ),
    (400, r#"{"tenant":"","config":{"gpus":1}}"#),
    (400, r#"{"tenant":"t1","prio":"high"}"#),
    (400, "not json"),
];

/// One client or daemon action.
#[derive(Debug, Clone)]
enum Step {
    /// `POST /v1/jobs` from tenant `t{tenant}` (`t0` is declared high):
    /// kinds below 4 name a valid config, the rest a refused body.
    Submit {
        tenant: usize,
        priority: Option<Priority>,
        kind: usize,
    },
    /// A request outside the job API: an oversized body, an endless
    /// head, a wrong method, an unknown route or a health check.
    Stray(usize),
    /// Read the `pick`-th issued job's record or result, or an unknown id.
    Poll {
        pick: usize,
        result: bool,
    },
    /// Cancel the `pick`-th issued job, or an unknown id.
    Cancel(usize),
    /// One dispatcher pass at the virtual now.
    Dispatch,
    /// Run the `pick`-th computing job's work, or a panic in its place.
    Work {
        pick: usize,
        panic: bool,
    },
    /// Move the virtual clock on.
    Advance(Duration),
    Shutdown,
    /// Drop the daemon without a shutdown and open a new one over its
    /// store.
    Crash,
}

fn step() -> impl Strategy<Value = Step> {
    (0u32..1000, 0usize..3, 0usize..4, 0usize..64, any::<bool>()).prop_map(
        |(kind, tenant, p, n, flag)| match kind {
            0..=299 => Step::Submit {
                tenant,
                priority: [None, Some(Priority::Low), Some(Priority::Normal)]
                    .get(p)
                    .copied()
                    .unwrap_or(Some(Priority::High)),
                kind: if n < 40 {
                    n % 4
                } else {
                    4 + n % (REFUSED.len() + 1)
                },
            },
            300..=319 => Step::Stray(n),
            320..=489 => Step::Dispatch,
            490..=659 => Step::Work {
                pick: n,
                panic: n % 6 == 0,
            },
            660..=759 => Step::Advance(Duration::from_millis([1, 7, 50, 400, 2_000, 6_000][n % 6])),
            760..=819 => Step::Cancel(n),
            820..=979 => Step::Poll {
                pick: n,
                result: flag,
            },
            980..=989 => Step::Shutdown,
            _ => Step::Crash,
        },
    )
}

/// One HTTP exchange through the daemon's connection handler: the status
/// and the body of the response.
fn call(shared: &Arc<Scheduling>, raw: &[u8]) -> (u16, String) {
    let mut out = Vec::new();
    crate::handle_connection(raw, &mut out, shared);
    let text = String::from_utf8(out).expect("the response is UTF-8");
    let (head, body) = text.split_once("\r\n\r\n").expect("a response head");
    let status = head.split(' ').nth(1).and_then(|s| s.parse().ok());
    let length = format!("Content-Length: {}\r\n", body.len());
    assert!(
        head.contains(&length),
        "{head:?} for a {} B body",
        body.len()
    );
    (status.expect("a status line"), body.to_owned())
}

fn request(shared: &Arc<Scheduling>, method: &str, path: &str, body: &str) -> (u16, String) {
    let n = body.len();
    call(
        shared,
        format!("{method} {path} HTTP/1.1\r\nContent-Length: {n}\r\n\r\n{body}").as_bytes(),
    )
}

fn field(body: &str, key: &str) -> Option<Value> {
    Value::parse(body).ok()?.get(key).cloned()
}

/// A job's state as the daemon holds it.
fn state_of(shared: &Scheduling, id: u64) -> Option<JobState> {
    shared.job(id).map(|j| j.state)
}

/// The case's store directory, removed when the case ends.
struct TempDir(PathBuf);

impl Drop for TempDir {
    fn drop(&mut self) {
        let _ = std::fs::remove_dir_all(&self.0);
    }
}

/// The daemon under test and the model of what each job should be doing.
struct Sim {
    config: ServeConfig,
    /// The case's temporary directory; the store, when there is one.
    dir: PathBuf,
    shared: Arc<Scheduling>,
    now: Instant,
    /// Every id this daemon issued, with the valid config it runs.
    issued: BTreeMap<u64, usize>,
    /// Dispatched jobs whose work has not run.
    computing: Vec<Dispatched>,
    /// Finished jobs holding their GPUs, with the deadline of each hold.
    holds: BTreeMap<u64, Instant>,
    /// Jobs canceled while they computed.
    flagged: BTreeSet<u64>,
    /// Whether each job whose work ran found its plan in the store.
    warm: BTreeMap<u64, bool>,
    /// Configs this daemon's cache has planned, and those the store
    /// holds across reopens.
    cached: BTreeSet<usize>,
    logged: BTreeSet<usize>,
    /// This daemon's expected `plan_cache.{mem_hits,log_hits,misses}`.
    lookups: [f64; 3],
    shut: bool,
}

type Checked = Result<(), TestCaseError>;

impl Sim {
    fn get(&self, path: &str) -> (u16, String) {
        request(&self.shared, "GET", path, "")
    }

    /// The `pick`-th issued id, or an id never issued.
    fn pick_id(&self, pick: usize) -> u64 {
        let ids: Vec<u64> = self.issued.keys().copied().collect();
        ids.get(pick % (ids.len() + 1))
            .copied()
            .unwrap_or(1_000 + pick as u64)
    }

    fn submit(&mut self, tenant: usize, priority: Option<Priority>, kind: usize) -> Checked {
        let configs = valid_configs();
        let tenant = format!("t{tenant}");
        let queued: Vec<Priority> = (self.shared.jobs().into_iter())
            .filter(|j| j.state == JobState::Queued)
            .map(|j| j.priority)
            .collect();
        let refused = kind.checked_sub(configs.len()).and_then(|i| REFUSED.get(i));
        let (expect, body) = match (configs.get(kind), refused) {
            (Some(config), _) => {
                let incoming = priority.unwrap_or(if tenant == "t0" {
                    Priority::High
                } else {
                    Priority::Normal
                });
                let fits =
                    queued.len() < self.config.max_queue || queued.iter().any(|p| *p < incoming);
                let expect = match () {
                    _ if config.gpus > self.config.pool_gpus => 400,
                    _ if self.shut => 503,
                    _ => [429, 201][usize::from(fits)],
                };
                let priority = priority.map_or(String::new(), |p| {
                    format!(r#","priority":"{}""#, p.as_str())
                });
                let config = config.to_json();
                let body = format!(r#"{{"tenant":"{tenant}"{priority},"config":{config}}}"#);
                (expect, body)
            }
            (None, Some((413, body))) if self.shut => (503, body.to_string()),
            (None, Some((status, body))) => (*status, body.to_string()),
            (None, None) => {
                // a per-job store is refused and its path never created
                let path = self
                    .dir
                    .join("job-store")
                    .to_string_lossy()
                    .replace('\\', "/");
                let body = format!(r#"{{"tenant":"t1","config":{{"store":"{path}"}}}}"#);
                (400, body)
            }
        };
        let next = self.shared.jobs().len() as u64 + 1;
        let (status, reply) = request(&self.shared, "POST", "/v1/jobs", &body);
        prop_assert_eq!(status, expect, "{} -> {}", body, reply);
        if status == 201 {
            prop_assert_eq!(field(&reply, "id").and_then(|v| v.as_u64()), Some(next));
            self.issued.insert(next, kind);
        }
        prop_assert!(
            !self.dir.join("job-store").exists(),
            "a per-job store was created"
        );
        Ok(())
    }

    fn stray(&mut self, which: usize) -> Checked {
        let too_long = format!(
            "POST /v1/jobs HTTP/1.1\r\nContent-Length: {}\r\n\r\n",
            MAX_BODY_BYTES + 1
        );
        let endless = format!("GET /{} HTTP/1.1\r\n\r\n", "a".repeat(70_000));
        let (status, body) = match which % 5 {
            0 => call(&self.shared, too_long.as_bytes()),
            1 => call(&self.shared, endless.as_bytes()),
            2 => request(&self.shared, "DELETE", "/v1/jobs/1", ""),
            3 => self.get("/v1/nowhere"),
            _ => self.get("/healthz"),
        };
        prop_assert_eq!(status, [400, 400, 405, 404, 200][which % 5]);
        prop_assert!(which % 5 < 4 || body == r#"{"ok":true}"#, "{}", body);
        Ok(())
    }

    fn poll(&mut self, pick: usize, result: bool) -> Checked {
        let id = self.pick_id(pick);
        let path = format!("/v1/jobs/{id}{}", if result { "/result" } else { "" });
        let (status, body) = self.get(&path);
        let expect = match state_of(&self.shared, id) {
            None => 404,
            Some(s) if result && !s.is_terminal() => 409,
            Some(_) => 200,
        };
        prop_assert_eq!(status, expect, "{} -> {}", path, body);
        let (status, body) = self.get("/v1/jobs");
        let listed = field(&body, "jobs").and_then(|v| v.as_arr().map(|a| a.len()));
        prop_assert_eq!((status, listed), (200, Some(self.issued.len())));
        Ok(())
    }

    fn cancel(&mut self, pick: usize) -> Checked {
        let id = self.pick_id(pick);
        let before = state_of(&self.shared, id);
        let (status, body) = request(&self.shared, "POST", &format!("/v1/jobs/{id}/cancel"), "");
        let answer = field(&body, "state");
        let answer = answer.as_ref().and_then(|v| v.as_str());
        let after = state_of(&self.shared, id);
        match before {
            None => prop_assert_eq!(status, 404),
            Some(JobState::Queued) => {
                prop_assert_eq!((status, answer), (202, Some("canceled")));
                prop_assert_eq!(after, Some(JobState::Canceled));
            }
            Some(JobState::Running) => {
                prop_assert_eq!((status, answer), (202, Some("running")));
                if self.holds.remove(&id).is_some() {
                    // a holding job is released without waiting for its
                    // deadline
                    prop_assert_eq!(after, Some(JobState::Canceled), "holding job {}", id);
                } else {
                    self.flagged.insert(id);
                    prop_assert_eq!(after, Some(JobState::Running), "computing job {}", id);
                }
            }
            Some(_) => prop_assert_eq!(status, 409),
        }
        Ok(())
    }

    fn dispatch(&mut self) -> Checked {
        let (ended, jobs, next) = self.shared.lock_pool().step(self.now);
        let due: Vec<u64> = (self.holds.iter())
            .filter(|(_, at)| **at <= self.now)
            .map(|(id, _)| *id)
            .collect();
        prop_assert_eq!(ended, !due.is_empty(), "holds ending at {:?}", self.now);
        for id in due {
            self.holds.remove(&id);
            prop_assert_eq!(
                state_of(&self.shared, id),
                Some(JobState::Done),
                "hold of {}",
                id
            );
        }
        prop_assert_eq!(next, self.holds.values().min().copied(), "next deadline");
        prop_assert!(!self.shut || jobs.is_empty(), "dispatched after shutdown");
        self.computing.extend(jobs);
        Ok(())
    }

    fn work(&mut self, pick: usize, panic: bool) -> Checked {
        if self.computing.is_empty() {
            return Ok(());
        }
        let job = self.computing.remove(pick % self.computing.len());
        let (id, kind) = (job.id, self.issued[&job.id]);
        let (shared, now) = (Arc::clone(&self.shared), self.now);
        shared.execute(
            job,
            |c| {
                if panic {
                    panic!("injected")
                } else {
                    shared.run_job(c)
                }
            },
            || now,
        );
        if !panic && self.config.store.is_some() {
            let level = if self.cached.contains(&kind) {
                0
            } else {
                usize::from(!self.logged.contains(&kind)) + 1
            };
            self.lookups[level] += 1.0;
            self.warm.insert(id, level < 2);
            self.cached.insert(kind);
            self.logged.insert(kind);
        } else if !panic {
            self.warm.insert(id, false);
        }
        let secs = expected()[kind].2 / 1e3 * self.config.time_scale;
        let record = self.shared.job(id).expect("a dispatched job's record");
        let expect = match () {
            _ if self.flagged.remove(&id) => JobState::Canceled,
            _ if panic => {
                prop_assert_eq!(record.error.as_deref(), Some("job panicked: injected"));
                JobState::Failed
            }
            _ if secs > 0.0 && !self.shut => {
                let deadline = now + Duration::from_secs_f64(secs.min(5.0));
                self.holds.insert(id, deadline);
                JobState::Running
            }
            _ => JobState::Done,
        };
        prop_assert_eq!(record.state, expect, "job {} after its work", id);
        Ok(())
    }

    fn shutdown(&mut self) -> Checked {
        let queued: Vec<u64> = (self.shared.jobs().into_iter())
            .filter(|j| j.state == JobState::Queued)
            .map(|j| j.id)
            .collect();
        self.shared.begin_shutdown();
        self.shut = true;
        for id in queued {
            let j = self.shared.job(id).expect("a queued job's record");
            let settled = (j.state, j.error.as_deref());
            prop_assert_eq!(settled, (JobState::Canceled, Some("service shut down")));
        }
        // a holding job has its result, so shutdown ends its hold
        for id in std::mem::take(&mut self.holds).into_keys() {
            prop_assert_eq!(
                state_of(&self.shared, id),
                Some(JobState::Done),
                "held job {}",
                id
            );
        }
        Ok(())
    }

    fn crash(&mut self) -> Checked {
        self.shared = Scheduling::new(self.config.clone()).expect("the store reopens");
        // the jobs died with the daemon: their ids answer 404, never
        // another job's record
        for id in std::mem::take(&mut self.issued).into_keys() {
            prop_assert_eq!(self.get(&format!("/v1/jobs/{id}")).0, 404);
            prop_assert_eq!(self.get(&format!("/v1/jobs/{id}/result")).0, 404);
        }
        self.computing.clear();
        self.holds.clear();
        self.flagged.clear();
        self.warm.clear();
        self.cached.clear();
        self.lookups = [0.0; 3];
        self.shut = false;
        Ok(())
    }

    /// The invariants that hold after every step.
    fn check(&self) -> Checked {
        let (pool_gpus, jobs) = (self.config.pool_gpus, self.shared.jobs());
        // `/metrics` parses as `name value` lines
        let (status, text) = self.get("/metrics");
        prop_assert_eq!(status, 200);
        let mut metrics = BTreeMap::new();
        for line in text.lines() {
            let parsed = line.split_once(' ').filter(|(k, _)| !k.is_empty());
            let value = parsed.and_then(|(k, v)| Some((k, v.parse::<f64>().ok()?)));
            let Some((name, value)) = value else {
                return Err(TestCaseError::fail(format!("metrics line {line:?}")));
            };
            metrics.insert(name.to_owned(), value);
        }
        let m = |k: &str| metrics.get(k).copied().unwrap_or(0.0);
        // the closure, daemon-wide and per tenant, with queued and
        // running jobs counted
        let tenants: BTreeSet<&str> = jobs.iter().map(|j| j.tenant.as_str()).collect();
        for tenant in std::iter::once(None).chain(tenants.into_iter().map(Some)) {
            let scope = tenant.map_or("serve".to_owned(), |t| format!("tenant.{t}"));
            let n = |k: &str| m(&format!("{scope}.{k}"));
            let live = jobs.iter().filter(|j| !j.state.is_terminal());
            let live = live
                .filter(|j| tenant.is_none_or(|t| j.tenant == t))
                .count();
            let settled = n("completed") + n("failed") + n("canceled") + n("preempted");
            prop_assert_eq!(
                n("submitted"),
                settled + live as f64,
                "closure of {}",
                scope
            );
        }
        // the held GPUs are the Running jobs' GPUs, and a Running job is
        // computing or holding
        let running = jobs.iter().filter(|j| j.state == JobState::Running);
        let held: usize = running.clone().map(|j| j.gpus).sum();
        let mut busy: BTreeSet<u64> = self.computing.iter().map(|d| d.id).collect();
        busy.extend(self.holds.keys());
        prop_assert_eq!(running.map(|j| j.id).collect::<BTreeSet<_>>(), busy);
        prop_assert_eq!(m("serve.free_gpus") as usize + held, pool_gpus);
        let pool = self.shared.lock_pool();
        prop_assert_eq!(pool.free_gpus() + held, pool_gpus);
        for (id, at) in &self.holds {
            let hold = pool.running[id].hold.as_ref().map(|(at, _)| *at);
            prop_assert_eq!(hold, Some(*at), "deadline of {}", id);
        }
        drop(pool);
        // every id this daemon issued answers with its own record, and
        // every Done result is what `SessionConfig::run()` gives
        prop_assert_eq!(
            jobs.len(),
            self.issued.len(),
            "every admitted id was issued"
        );
        for j in &jobs {
            let (status, body) = self.get(&format!("/v1/jobs/{}", j.id));
            let state = field(&body, "state");
            prop_assert_eq!(status, 200);
            prop_assert_eq!(field(&body, "id").and_then(|v| v.as_u64()), Some(j.id));
            prop_assert_eq!(
                state.as_ref().and_then(|v| v.as_str()),
                Some(j.state.as_str())
            );
            prop_assert_eq!(
                j.result.is_some(),
                j.state == JobState::Done,
                "job {}",
                j.id
            );
            let Some(r) = &j.result else { continue };
            let (scheduler, gflops, ms, tasks) = &expected()[self.issued[&j.id]];
            prop_assert_eq!(&r.scheduler, scheduler);
            prop_assert_eq!(r.gflops.to_bits(), gflops.to_bits(), "job {} GFLOPS", j.id);
            prop_assert_eq!(r.sim_elapsed_ms.to_bits(), ms.to_bits(), "job {} ms", j.id);
            prop_assert_eq!(r.plan_tasks, *tasks);
            prop_assert_eq!(Some(&r.warm), self.warm.get(&j.id), "job {} warm", j.id);
        }
        if self.config.store.is_some() {
            let gauges = ["mem_hits", "log_hits", "misses"].map(|k| m(&format!("plan_cache.{k}")));
            prop_assert_eq!(gauges, self.lookups);
        }
        Ok(())
    }

    fn run(&mut self, step: &Step) -> Checked {
        match step {
            Step::Submit {
                tenant,
                priority,
                kind,
            } => self.submit(*tenant, *priority, *kind),
            Step::Stray(which) => self.stray(*which),
            Step::Poll { pick, result } => self.poll(*pick, *result),
            Step::Cancel(pick) => self.cancel(*pick),
            Step::Dispatch => self.dispatch(),
            Step::Work { pick, panic } => self.work(*pick, *panic),
            Step::Advance(by) => {
                self.now += *by;
                Ok(())
            }
            Step::Shutdown => self.shutdown(),
            Step::Crash => self.crash(),
        }
    }
}

proptest::proptest! {
    // each case plans through a real store: kept low enough for the
    // ThreadSanitizer CI job, which runs every case
    #![proptest_config(ProptestConfig::with_cases(48))]

    #[test]
    fn served_path_keeps_its_invariants_step_by_step(
        pool_gpus in 2usize..=4,
        max_queue in 1usize..=4,
        scale in 0usize..4,
        store in any::<bool>(),
        steps in proptest::collection::vec(step(), 1..128),
    ) {
        static CASE: AtomicUsize = AtomicUsize::new(0);
        let case = CASE.fetch_add(1, Ordering::Relaxed);
        let dir = std::env::temp_dir()
            .join(format!("micco-serve-harness-{}-{case}", std::process::id()));
        let _cleanup = TempDir(dir.clone());
        // holds of about 2 ms and 300 ms for the shortest job, and the
        // 5 s cap for all of them
        let shortest = expected().iter().map(|e| e.2 / 1e3).fold(f64::INFINITY, f64::min);
        let time_scale = [0.0, 0.002 / shortest, 0.3 / shortest, f64::INFINITY][scale];
        let config = ServeConfig {
            pool_gpus,
            max_queue,
            store: store.then(|| dir.clone()),
            time_scale,
            tenants: vec![TenantSpec {
                name: "t0".into(),
                priority: Priority::High,
                weight: 2,
            }],
            ..ServeConfig::default()
        };
        let shared = Scheduling::new(config.clone()).expect("the daemon opens");
        let mut sim = Sim {
            config,
            dir,
            shared,
            now: Instant::now(),
            issued: BTreeMap::new(),
            computing: Vec::new(),
            holds: BTreeMap::new(),
            flagged: BTreeSet::new(),
            warm: BTreeMap::new(),
            cached: BTreeSet::new(),
            logged: BTreeSet::new(),
            lookups: [0.0; 3],
            shut: false,
        };
        sim.check()?;
        for (i, step) in steps.iter().chain([&Step::Shutdown]).enumerate() {
            sim.run(step)
                .and_then(|()| sim.check())
                .map_err(|e| TestCaseError::fail(format!("after step {i} {step:?}: {e:?}")))?;
        }
        // shutdown leaves no job queued, and none running once the last
        // work returns
        while !sim.computing.is_empty() {
            sim.work(0, false)?;
            sim.check()?;
        }
        let jobs = sim.shared.jobs();
        prop_assert!(jobs.iter().all(|j| j.state.is_terminal()), "{:?}", jobs);
    }
}
