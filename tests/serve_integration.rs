//! End-to-end tests for the multi-tenant scheduling service: a running
//! daemon driven over HTTP through the load-generator client, asserting
//! the inter-job scheduling contract — weighted fair-share dispatch
//! order, admission-queue priority preemption, cancel semantics, warm
//! restarts over a shared durable plan store, and exact per-job plan-cache
//! accounting while jobs plan concurrently.

use std::time::Duration;

use micco_core::SessionConfig;
use micco_load::Client;
use micco_serve::{JobState, Priority, ServeConfig, Service, TenantSpec};

/// A job that needs `gpus` devices; sized so simulated time is tiny and
/// the wall-clock hold comes from the daemon's `time_scale`.
fn job(gpus: usize) -> SessionConfig {
    SessionConfig {
        vector_size: 6,
        tensor_size: 32,
        vectors: 2,
        gpus,
        ..SessionConfig::default()
    }
}

/// A job with a much longer simulated makespan: used to pin the pool
/// busy while the queue is assembled, so dispatch order reflects the
/// policy, not HTTP submission races. Canceled once the queue is built
/// (cancel checkpoints every 2 ms, so release is prompt).
fn blocker_job() -> SessionConfig {
    SessionConfig {
        vector_size: 32,
        tensor_size: 48,
        vectors: 12,
        gpus: 2,
        ..SessionConfig::default()
    }
}

#[test]
fn weighted_fair_share_orders_concurrent_tenants() {
    // one-slot pool (every job takes both GPUs): dispatches are serial
    let service = Service::start(
        "127.0.0.1:0",
        ServeConfig {
            pool_gpus: 2,
            time_scale: 150.0,
            tenants: vec![
                TenantSpec {
                    name: "heavy".into(),
                    priority: Priority::Normal,
                    weight: 3,
                },
                TenantSpec {
                    name: "light".into(),
                    priority: Priority::Normal,
                    weight: 1,
                },
            ],
            ..ServeConfig::default()
        },
    )
    .unwrap();
    let client = Client::new(service.addr());
    let shared = service.scheduling().clone();

    // pin the slot, then queue 4 jobs per tenant back-to-back
    let blocker = client.submit("boot", None, &blocker_job()).unwrap();
    let mut ids = Vec::new();
    for _ in 0..4 {
        ids.push(("heavy", client.submit("heavy", None, &job(2)).unwrap()));
    }
    for _ in 0..4 {
        ids.push(("light", client.submit("light", None, &job(2)).unwrap()));
    }
    client.cancel(blocker).unwrap();
    assert!(shared.wait_idle(Duration::from_secs(30)), "pool drained");

    // reconstruct the dispatch order from the daemon's records
    let mut order: Vec<(u64, &str)> = ids
        .iter()
        .map(|(tenant, id)| {
            let rec = shared.job(*id).unwrap();
            assert_eq!(rec.state, JobState::Done, "{tenant} job {id} finished");
            (rec.dispatch_seq.unwrap(), *tenant)
        })
        .collect();
    order.sort_unstable();
    let tenants: Vec<&str> = order.iter().map(|(_, t)| *t).collect();

    // weight 3 vs 1 with equal-cost jobs: the heavy tenant owns the
    // early slots, the light tenant's backlog drains last
    assert_eq!(tenants[0], "heavy", "FIFO tie-break on fresh vtimes");
    let heavy_in_first_five = tenants[..5].iter().filter(|t| **t == "heavy").count();
    assert!(
        heavy_in_first_five >= 3,
        "weight-3 tenant should dominate the early dispatches, got {tenants:?}"
    );
    assert_eq!(
        &tenants[6..],
        &["light", "light"],
        "the weight-1 backlog drains last, got {tenants:?}"
    );
    service.shutdown();
}

#[test]
fn admission_queue_preempts_by_priority() {
    let service = Service::start(
        "127.0.0.1:0",
        ServeConfig {
            pool_gpus: 2,
            max_queue: 2,
            time_scale: 200.0,
            ..ServeConfig::default()
        },
    )
    .unwrap();
    let client = Client::new(service.addr());
    let shared = service.scheduling().clone();

    // one job runs, two low-priority jobs fill the whole queue
    let running = client.submit("t", Some("normal"), &blocker_job()).unwrap();
    let low_a = client.submit("t", Some("low"), &job(2)).unwrap();
    let low_b = client.submit("t", Some("low"), &job(2)).unwrap();

    // an equal-priority submission cannot displace anything: 429
    let err = client.submit("t", Some("low"), &job(2)).unwrap_err();
    assert_eq!(err.status(), Some(429), "queue full for equals: {err}");

    // a higher class evicts the latest-arrived low job — never the
    // running one, never the earlier-queued one
    let high = client.submit("t", Some("high"), &job(2)).unwrap();
    let evicted = client.job(low_b).unwrap();
    assert_eq!(
        evicted.get("state").and_then(|v| v.as_str()),
        Some("preempted"),
        "latest low job preempted from the queue"
    );
    assert!(
        evicted
            .get("error")
            .and_then(|v| v.as_str())
            .unwrap_or_default()
            .contains("preempted"),
        "preemption reason recorded"
    );
    for still_there in [running, low_a] {
        let state = client
            .job(still_there)
            .unwrap()
            .get("state")
            .and_then(|v| v.as_str())
            .unwrap()
            .to_owned();
        assert_ne!(state, "preempted", "job {still_there} survived admission");
    }

    // unblock the pool and let everything settle; the high job must have
    // dispatched before the surviving low one
    client.cancel(running).unwrap();
    assert!(shared.wait_idle(Duration::from_secs(30)), "pool drained");
    let high_seq = shared.job(high).unwrap().dispatch_seq.unwrap();
    let low_seq = shared.job(low_a).unwrap().dispatch_seq.unwrap();
    assert!(
        high_seq < low_seq,
        "high priority dispatches first ({high_seq} vs {low_seq})"
    );
    service.shutdown();
}

#[test]
fn cancel_semantics_over_http() {
    let service = Service::start(
        "127.0.0.1:0",
        ServeConfig {
            pool_gpus: 2,
            time_scale: 200.0,
            ..ServeConfig::default()
        },
    )
    .unwrap();
    let client = Client::new(service.addr());
    let shared = service.scheduling().clone();

    let running = client.submit("t", None, &blocker_job()).unwrap();
    let queued = client.submit("t", None, &job(2)).unwrap();

    // a queued job cancels instantly and never dispatches
    assert_eq!(client.cancel(queued).unwrap(), "canceled");
    let rec = client.job(queued).unwrap();
    assert_eq!(rec.get("state").and_then(|v| v.as_str()), Some("canceled"));
    assert!(rec.get("dispatch_seq").is_none(), "never dispatched");

    // cancelling twice is a conflict, unknown ids are 404
    let err = client.cancel(queued).unwrap_err();
    assert_eq!(err.status(), Some(409), "double cancel: {err}");
    let err = client.cancel(999_999).unwrap_err();
    assert_eq!(err.status(), Some(404), "unknown id: {err}");

    // a running job acknowledges the cancel and stops at the next
    // checkpoint
    assert_eq!(client.cancel(running).unwrap(), "running");
    let rec = shared.wait_job(running, Duration::from_secs(30)).unwrap();
    assert_eq!(rec.state, JobState::Canceled);
    service.shutdown();
}

#[test]
fn warm_restart_serves_cached_plans_without_replanning() {
    let store = std::env::temp_dir().join(format!(
        "micco-serve-int-{}-{:?}",
        std::process::id(),
        std::thread::current().id()
    ));
    let _ = std::fs::remove_dir_all(&store);
    let config = || ServeConfig {
        pool_gpus: 2,
        store: Some(store.clone()),
        ..ServeConfig::default()
    };

    // first daemon: the submission plans cold and logs the decision
    let service = Service::start("127.0.0.1:0", config()).unwrap();
    let client = Client::new(service.addr());
    let shared = service.scheduling().clone();
    let cold = client.submit("acme", None, &job(2)).unwrap();
    let rec = shared.wait_job(cold, Duration::from_secs(30)).unwrap();
    assert_eq!(rec.state, JobState::Done);
    assert!(!rec.result.unwrap().warm, "fresh store plans cold");
    let (_, log_hits, misses) = shared.cache_stats().unwrap();
    assert_eq!((log_hits, misses), (0, 1), "one miss, no log hits yet");
    service.shutdown();

    // second daemon over the same directory: the identical submission is
    // served from the durable log — the scheduler is never invoked
    let service = Service::start("127.0.0.1:0", config()).unwrap();
    let client = Client::new(service.addr());
    let shared = service.scheduling().clone();
    let warm = client.submit("acme", None, &job(2)).unwrap();
    let rec = shared.wait_job(warm, Duration::from_secs(30)).unwrap();
    assert_eq!(rec.state, JobState::Done);
    assert!(rec.result.unwrap().warm, "restart serves the logged plan");
    let (_, log_hits, misses) = shared.cache_stats().unwrap();
    assert_eq!((log_hits, misses), (1, 0), "replayed, not re-planned");

    // and the warm start is visible to operators via /metrics
    let metrics = client.metrics().unwrap();
    assert!(
        metrics.contains("plan_cache.log_hits 1"),
        "log hit exported: {metrics}"
    );
    service.shutdown();
    let _ = std::fs::remove_dir_all(&store);
}

/// The daemon owns the plan store: a request body naming a `store` of its
/// own is a bad request, is never admitted, and never reaches the path.
#[test]
fn a_per_job_store_is_refused_and_its_path_never_created() {
    let scratch = std::env::temp_dir().join(format!(
        "micco-serve-job-store-{}-{:?}",
        std::process::id(),
        std::thread::current().id()
    ));
    let _ = std::fs::remove_dir_all(&scratch);
    let forbidden = scratch.join("must-not-exist");
    let service = Service::start(
        "127.0.0.1:0",
        ServeConfig {
            pool_gpus: 2,
            ..ServeConfig::default()
        },
    )
    .unwrap();
    let client = Client::new(service.addr());
    let shared = service.scheduling().clone();
    let submitted = || shared.metrics().snapshot().counter("serve.submitted");

    let with_store = SessionConfig {
        store: Some(forbidden.to_string_lossy().into_owned()),
        ..job(2)
    };
    let err = client.submit("acme", None, &with_store).unwrap_err();
    assert_eq!(err.status(), Some(400), "{err}");
    assert!(err.to_string().contains("'store'"), "{err}");
    assert_eq!(submitted(), 0, "a refused job is never admitted");
    assert!(!forbidden.exists(), "the daemon created {forbidden:?}");
    assert!(!scratch.exists(), "the daemon created {scratch:?}");

    // the same job without a store of its own runs
    let id = client.submit("acme", None, &job(2)).unwrap();
    let rec = shared.wait_job(id, Duration::from_secs(30)).unwrap();
    assert_eq!(rec.state, JobState::Done);
    assert_eq!(submitted(), 1);
    assert!(!scratch.exists());
    service.shutdown();
}

/// Run `f` on a helper thread and fail unless it returns within 5 s, so a
/// request that makes validation build tables sized by the request's own
/// device count fails the test instead of hanging it.
fn within_5s<T: Send + 'static>(f: impl FnOnce() -> T + Send + 'static) -> T {
    let (tx, rx) = std::sync::mpsc::channel();
    // a receiver gone after a timeout has already failed the test
    let worker = std::thread::spawn(move || {
        let _ = tx.send(f());
    });
    let out = rx
        .recv_timeout(Duration::from_secs(5))
        .expect("no answer within 5 s");
    worker.join().expect("the helper thread finished");
    out
}

#[test]
fn a_huge_topology_fails_validation_without_building_its_links() {
    let err = within_5s(|| {
        SessionConfig::parse(r#"{"gpus": 8, "topology": "nvlink{gpus:100000}"}"#).unwrap_err()
    });
    assert!(err.to_string().contains("'topology'"), "{err}");
}

#[test]
fn a_huge_topology_is_refused_by_the_pool_size_before_it_is_built() {
    let service = Service::start(
        "127.0.0.1:0",
        ServeConfig {
            pool_gpus: 2,
            ..ServeConfig::default()
        },
    )
    .unwrap();
    let client = Client::new(service.addr());
    let body =
        r#"{"tenant": "acme", "config": {"gpus": 100000, "topology": "nvlink{gpus:100000}"}}"#;
    let (status, reply) = within_5s(move || client.request("POST", "/v1/jobs", body).unwrap());
    assert_eq!(status, 400, "{reply}");
    assert!(reply.contains("the pool has 2"), "{reply}");
    service.shutdown();
}

#[test]
fn a_non_finite_oversub_is_refused_before_admission() {
    // 1e999 parses to infinity, which used to pass validation and fail the
    // admitted job in planning with every device sized to 1 B
    let service = Service::start(
        "127.0.0.1:0",
        ServeConfig {
            pool_gpus: 2,
            ..ServeConfig::default()
        },
    )
    .unwrap();
    let client = Client::new(service.addr());
    let body = r#"{"tenant": "acme", "config": {"gpus": 2, "oversub": 1e999}}"#;
    let (status, reply) = client.request("POST", "/v1/jobs", body).unwrap();
    assert_eq!(status, 400, "{reply}");
    assert!(reply.contains("'oversub'"), "{reply}");
    let submitted = service
        .scheduling()
        .metrics()
        .snapshot()
        .counter("serve.submitted");
    assert_eq!(submitted, 0, "a refused job is never admitted");
    service.shutdown();
}

/// The value of `name` in a `/metrics` text snapshot.
fn metric(text: &str, name: &str) -> f64 {
    text.lines()
        .filter_map(|line| line.trim().rsplit_once(' '))
        .find(|(key, _)| *key == name)
        .and_then(|(_, value)| value.parse().ok())
        .expect("the metric is exported as a number")
}

#[test]
fn overlapping_jobs_learn_warmth_from_their_own_lookup() {
    let store = std::env::temp_dir().join(format!(
        "micco-serve-overlap-{}-{:?}",
        std::process::id(),
        std::thread::current().id()
    ));
    let _ = std::fs::remove_dir_all(&store);
    // the second config plans ~4x longer, so hits on the first land
    // while the second is still being decided
    let configs = [(1u64, 8), (2, 32)].map(|(seed, vectors)| SessionConfig {
        vector_size: 128,
        vectors,
        seed,
        ..job(2)
    });
    let sim_secs = configs[0].run().expect("runs").elapsed_secs();
    // four 2-GPU jobs run at once, each holding its GPUs ~30 ms or more,
    // so lookups of both configs overlap
    let service = Service::start(
        "127.0.0.1:0",
        ServeConfig {
            pool_gpus: 8,
            store: Some(store.clone()),
            time_scale: 0.03 / sim_secs,
            ..ServeConfig::default()
        },
    )
    .unwrap();
    let client = Client::new(service.addr());
    let shared = service.scheduling().clone();
    let ids: Vec<(usize, u64)> = (0..16)
        .map(|i| (i % 2, client.submit("acme", None, &configs[i % 2]).unwrap()))
        .collect();
    let mut cold = [0; 2];
    for (config, id) in &ids {
        let rec = shared.wait_job(*id, Duration::from_secs(60)).unwrap();
        assert_eq!(rec.state, JobState::Done);
        if !rec.result.unwrap().warm {
            cold[*config] += 1;
        }
    }
    assert_eq!(cold, [1, 1], "exactly one job per config plans cold");

    let jobs = ids.len() as f64;
    let text = client.metrics().unwrap();
    assert_eq!(metric(&text, "serve.completed"), jobs);
    assert_eq!(metric(&text, "plan_cache.misses"), 2.0);
    let lookups = metric(&text, "plan_cache.mem_hits")
        + metric(&text, "plan_cache.log_hits")
        + metric(&text, "plan_cache.misses");
    assert_eq!(lookups, jobs, "one lookup per completed job: {text}");
    let (mem_hits, log_hits, misses) = shared.cache_stats().unwrap();
    assert_eq!(misses, 2);
    assert_eq!((mem_hits + log_hits + misses) as f64, jobs);
    service.shutdown();
    let _ = std::fs::remove_dir_all(&store);
}
