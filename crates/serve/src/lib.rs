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
//! end to end. Threads only carry bytes and compute: the job lifecycle,
//! GPU holds and cancels live behind one pool mutex, so the daemon's
//! tests can step it on one thread under a virtual clock.
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
pub use service::{
    CancelError, JobRecord, JobResult, JobState, Scheduling, ServeConfig, SubmitError,
};

use std::io::{Read, Write};
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
                    let Ok(stream) = stream else { continue };
                    let _ = stream.set_read_timeout(Some(Duration::from_secs(10)));
                    let shared = Arc::clone(&shared);
                    // thread per connection; exchanges are short-lived
                    // (Connection: close), so the thread count tracks
                    // in-flight requests, not total requests
                    std::thread::spawn(move || handle_connection(&stream, &stream, &shared));
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

    /// Stop accepting, cancel queued jobs, end every hold, wait briefly
    /// for jobs still computing, and join the daemon threads.
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

/// Answer the one request read from `input` on `output`.
fn handle_connection(input: impl Read, output: impl Write, shared: &Arc<Scheduling>) {
    let response = match Request::read_from(input) {
        Ok(Some(req)) => api::handle(&req, shared),
        Ok(None) => return, // client connected and left
        Err(msg) => Response::json(400, api::error_body(&msg)),
    };
    response.write_to(output);
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn shutdown_cancels_queued_jobs_inside_the_job_closure() {
        // one-slot pool: a job held for a few hundred ms runs while two
        // more stay queued; shutdown cancels those and ends the hold
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
        assert_eq!(shared.job(running).expect("known").state, JobState::Done);
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
