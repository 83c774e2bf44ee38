//! `micco-serve`: a multi-tenant scheduling service over the MICCO
//! planner.
//!
//! The daemon accepts concurrent contraction-job submissions over a
//! small JSON/HTTP API and multiplexes them onto one shared simulated
//! GPU pool. Scheduling happens at two levels:
//!
//! - **Inter-job** (this crate): admission control bounds the queue and
//!   rejects jobs that could never fit in pool memory; priority classes
//!   and weighted fair share pick which admitted job dispatches next
//!   ([`sched`]).
//! - **Intra-job** (micco-core): each dispatched job plans its own
//!   placement through the existing [`micco_core::Session`] API —
//!   warm-starting from the shared [`micco_core::DurablePlanCache`]
//!   when the daemon runs with a store — and replays on the simulator.
//!
//! Submission bodies embed a [`micco_core::SessionConfig`], the same
//! JSON grammar the CLI's `--config` flag reads: one config schema
//! end to end.
//!
//! ```no_run
//! use micco_serve::{ServeConfig, Service};
//!
//! let service = Service::start("127.0.0.1:0", ServeConfig::default()).unwrap();
//! println!("serving on {}", service.addr());
//! service.shutdown();
//! ```

pub mod api;
pub mod http;
pub mod sched;
pub mod service;

pub use api::Submission;
pub use http::{Request, Response, MAX_BODY_BYTES};
pub use sched::{
    admission_victim, estimated_bytes, pick_next, Candidate, Priority, TenantSpec, TenantState,
};
pub use service::{JobRecord, JobResult, JobState, Scheduling, ServeConfig, SubmitError};

use std::net::{TcpListener, TcpStream};
use std::sync::Arc;
use std::time::Duration;

/// A running daemon: TCP acceptor + dispatcher threads over shared
/// [`Scheduling`] state.
pub struct Service {
    shared: Arc<Scheduling>,
    addr: std::net::SocketAddr,
    acceptor: Option<std::thread::JoinHandle<()>>,
    dispatcher: Option<std::thread::JoinHandle<()>>,
}

impl Service {
    /// Bind `addr` (use port 0 for an ephemeral port) and start serving.
    pub fn start(addr: &str, config: ServeConfig) -> Result<Service, String> {
        let shared = Scheduling::new(config)?;
        let listener = TcpListener::bind(addr).map_err(|e| format!("bind {addr}: {e}"))?;
        let local = listener
            .local_addr()
            .map_err(|e| format!("local_addr: {e}"))?;
        let dispatcher = {
            let shared = Arc::clone(&shared);
            std::thread::spawn(move || shared.dispatcher())
        };
        let acceptor = {
            let shared = Arc::clone(&shared);
            std::thread::spawn(move || {
                for stream in listener.incoming() {
                    if shared.is_shutdown() {
                        return;
                    }
                    let Ok(mut stream) = stream else { continue };
                    let shared = Arc::clone(&shared);
                    // thread per connection; exchanges are short-lived
                    // (Connection: close), so the thread count tracks
                    // in-flight requests, not total requests
                    std::thread::spawn(move || handle_connection(&mut stream, &shared));
                }
            })
        };
        Ok(Service {
            shared,
            addr: local,
            acceptor: Some(acceptor),
            dispatcher: Some(dispatcher),
        })
    }

    /// The bound address (resolves ephemeral ports).
    pub fn addr(&self) -> std::net::SocketAddr {
        self.addr
    }

    /// The shared scheduling state (tests and in-process benches drive
    /// this directly; remote clients go through the HTTP API).
    pub fn scheduling(&self) -> &Arc<Scheduling> {
        &self.shared
    }

    /// Stop accepting, cancel queued jobs, wait briefly for running jobs,
    /// and join the daemon threads.
    pub fn shutdown(mut self) {
        self.stop();
    }

    fn stop(&mut self) {
        self.shared.begin_shutdown();
        self.shared.drain_running(Duration::from_secs(10));
        // unblock the acceptor's blocking accept() with one last connection
        let _ = TcpStream::connect(self.addr);
        if let Some(h) = self.acceptor.take() {
            let _ = h.join();
        }
        if let Some(h) = self.dispatcher.take() {
            let _ = h.join();
        }
    }
}

impl Drop for Service {
    fn drop(&mut self) {
        if self.acceptor.is_some() || self.dispatcher.is_some() {
            self.stop();
        }
    }
}

fn handle_connection(stream: &mut TcpStream, shared: &Arc<Scheduling>) {
    let _ = stream.set_read_timeout(Some(Duration::from_secs(10)));
    let response = match Request::read_from(stream) {
        Ok(Some(req)) => api::handle(&req, shared),
        Ok(None) => return, // client connected and left
        Err(msg) => Response::json(400, api::error_body(&msg)),
    };
    response.write_to(stream);
}

#[cfg(test)]
mod tests {
    use super::*;
    use std::io::{Read, Write};

    /// Minimal test client: one request, one response, connection closed.
    fn call(addr: std::net::SocketAddr, method: &str, path: &str, body: &str) -> (u16, String) {
        let mut s = TcpStream::connect(addr).expect("connect");
        let req = format!(
            "{method} {path} HTTP/1.1\r\nHost: test\r\nContent-Length: {}\r\n\r\n{body}",
            body.len()
        );
        s.write_all(req.as_bytes()).expect("send");
        let mut raw = String::new();
        s.read_to_string(&mut raw).expect("recv");
        let status: u16 = raw
            .split_whitespace()
            .nth(1)
            .and_then(|s| s.parse().ok())
            .expect("status line");
        let body = raw
            .split_once("\r\n\r\n")
            .map(|(_, b)| b.to_owned())
            .unwrap_or_default();
        (status, body)
    }

    #[test]
    fn http_round_trip_submit_status_result() {
        let service = Service::start(
            "127.0.0.1:0",
            ServeConfig {
                pool_gpus: 2,
                ..ServeConfig::default()
            },
        )
        .expect("start");
        let addr = service.addr();

        let (status, body) = call(addr, "GET", "/healthz", "");
        assert_eq!((status, body.as_str()), (200, "{\"ok\":true}"));

        let (status, body) = call(
            addr,
            "POST",
            "/v1/jobs",
            "{\"tenant\":\"acme\",\"config\":{\"vector_size\":6,\"tensor_size\":32,\"vectors\":2,\"gpus\":2}}",
        );
        assert_eq!(status, 201, "submit: {body}");
        let id = micco_obs::Value::parse(&body)
            .expect("json")
            .get("id")
            .and_then(micco_obs::Value::as_u64)
            .expect("id");

        assert!(service.scheduling().wait_idle(Duration::from_secs(30)));

        let (status, body) = call(addr, "GET", &format!("/v1/jobs/{id}"), "");
        assert_eq!(status, 200);
        let v = micco_obs::Value::parse(&body).expect("json");
        assert_eq!(
            v.get("state").and_then(micco_obs::Value::as_str),
            Some("done")
        );

        let (status, body) = call(addr, "GET", &format!("/v1/jobs/{id}/result"), "");
        assert_eq!(status, 200);
        let v = micco_obs::Value::parse(&body).expect("json");
        let gflops = v
            .get("result")
            .and_then(|r| r.get("gflops"))
            .and_then(micco_obs::Value::as_f64)
            .expect("gflops");
        assert!(gflops > 0.0);

        // metrics expose the tenant's counters
        let (status, text) = call(addr, "GET", "/metrics", "");
        assert_eq!(status, 200);
        assert!(text.contains("serve.completed 1"), "metrics:\n{text}");
        assert!(text.contains("tenant.acme.completed 1"), "metrics:\n{text}");

        // error paths
        let (status, _) = call(addr, "GET", "/v1/jobs/999", "");
        assert_eq!(status, 404);
        let (status, _) = call(addr, "POST", "/v1/jobs", "{\"no\":\"tenant\"}");
        assert_eq!(status, 400);
        let (status, _) = call(addr, "DELETE", "/v1/jobs/1", "");
        assert_eq!(status, 405);

        service.shutdown();
    }

    #[test]
    fn shutdown_cancels_queued_jobs_inside_the_job_closure() {
        // one-slot pool: a job held for a few hundred ms runs while two
        // more stay queued
        let service = Service::start(
            "127.0.0.1:0",
            ServeConfig {
                pool_gpus: 1,
                time_scale: 1000.0,
                ..ServeConfig::default()
            },
        )
        .expect("start");
        let shared = Arc::clone(service.scheduling());
        let job = micco_core::SessionConfig {
            vector_size: 6,
            tensor_size: 32,
            vectors: 2,
            gpus: 1,
            ..micco_core::SessionConfig::default()
        };
        let running = shared.submit("a", None, job.clone()).expect("admitted");
        let t0 = std::time::Instant::now();
        while shared.job(running).expect("known").state == JobState::Queued {
            assert!(t0.elapsed() < Duration::from_secs(10), "never dispatched");
            std::thread::sleep(Duration::from_millis(1));
        }
        let queued = [
            shared.submit("a", None, job.clone()).expect("admitted"),
            shared.submit("b", None, job).expect("admitted"),
        ];
        service.shutdown();

        for id in queued {
            assert_eq!(shared.job(id).expect("known").state, JobState::Canceled);
        }
        assert!(shared.job(running).expect("known").state.is_terminal());
        let snap = shared.metrics().snapshot();
        assert_eq!(snap.counter("serve.submitted"), 3);
        for scope in ["serve", "tenant.a", "tenant.b"] {
            let n = |name: &str| snap.counter(&format!("{scope}.{name}"));
            assert_eq!(
                n("submitted"),
                n("completed") + n("failed") + n("canceled") + n("preempted"),
                "{scope} closure:\n{}",
                snap.to_text()
            );
        }
        assert_eq!(snap.gauge("serve.queue_depth"), 0.0);
    }
}
