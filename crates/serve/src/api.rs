//! The JSON wire format and request routing.
//!
//! One config grammar: the `config` object in a submission body is
//! exactly a [`SessionConfig`] document — the same schema `micco plan
//! --config` and `micco run --config` accept, so a config file tested
//! on the CLI submits to the daemon unchanged.
//!
//! Endpoints:
//!
//! | method | path                  | body                                  |
//! |--------|-----------------------|---------------------------------------|
//! | POST   | `/v1/jobs`            | `{"tenant", "priority"?, "config"?}`  |
//! | GET    | `/v1/jobs`            | —                                     |
//! | GET    | `/v1/jobs/<id>`       | —                                     |
//! | POST   | `/v1/jobs/<id>/cancel`| —                                     |
//! | GET    | `/v1/jobs/<id>/result`| —                                     |
//! | GET    | `/metrics`            | —                                     |
//! | GET    | `/healthz`            | —                                     |

use std::sync::Arc;

use micco_core::SessionConfig;
use micco_obs::{ObjBuilder, Value};

use crate::http::{Request, Response};
use crate::sched::Priority;
use crate::service::{JobRecord, JobState, Scheduling};

/// A parsed submission body.
#[derive(Debug, Clone)]
pub struct Submission {
    /// The submitting tenant.
    pub tenant: String,
    /// Explicit priority override (defaults to the tenant's class).
    pub priority: Option<Priority>,
    /// The job's session config (defaults when omitted).
    pub config: SessionConfig,
}

impl Submission {
    /// Parse a submission body. Unknown top-level keys are rejected so
    /// typos fail loudly instead of silently running defaults.
    pub fn parse(body: &str) -> Result<Submission, String> {
        let v = Value::parse(body).map_err(|e| e.to_string())?;
        let obj = v
            .as_obj()
            .ok_or_else(|| "submission body must be a JSON object".to_owned())?;
        for key in obj.keys() {
            if !matches!(key.as_str(), "tenant" | "priority" | "config") {
                return Err(format!(
                    "unknown submission key '{key}' (tenant|priority|config)"
                ));
            }
        }
        let tenant = obj
            .get("tenant")
            .and_then(Value::as_str)
            .ok_or_else(|| "submission needs a string 'tenant'".to_owned())?
            .to_owned();
        let priority = match obj.get("priority") {
            Some(p) => Some(Priority::parse(p.as_str().ok_or_else(|| {
                "'priority' must be a string (high|normal|low)".to_owned()
            })?)?),
            None => None,
        };
        let config = match obj.get("config") {
            Some(c) => SessionConfig::from_value(c).map_err(|e| e.to_string())?,
            None => SessionConfig::default(),
        };
        Ok(Submission {
            tenant,
            priority,
            config,
        })
    }
}

/// `{"error": msg}`.
pub fn error_body(msg: &str) -> String {
    ObjBuilder::new().field("error", msg).build().to_json()
}

fn result_value(r: &crate::service::JobResult) -> Value {
    ObjBuilder::new()
        .field("scheduler", r.scheduler.as_str())
        .field("gflops", r.gflops)
        .field("sim_elapsed_ms", r.sim_elapsed_ms)
        .field("plan_stages", r.plan_stages)
        .field("plan_tasks", r.plan_tasks)
        .field("warm", r.warm)
        .field("plan_ms", r.plan_ms)
        .field("exec_ms", r.exec_ms)
        .build()
}

/// The full job record as a JSON value.
pub fn job_value(job: &JobRecord) -> Value {
    ObjBuilder::new()
        .field("id", job.id)
        .field("tenant", job.tenant.as_str())
        .field("priority", job.priority.as_str())
        .field("state", job.state.as_str())
        .field("gpus", job.gpus)
        .opt("dispatch_seq", job.dispatch_seq)
        .opt("wait_ms", job.wait_ms)
        .opt("total_ms", job.total_ms)
        .opt("result", job.result.as_ref().map(result_value))
        .opt("error", job.error.as_deref())
        .build()
}

fn parse_job_path(path: &str) -> Option<(u64, Option<&str>)> {
    let rest = path.strip_prefix("/v1/jobs/")?;
    match rest.split_once('/') {
        Some((id, action)) => Some((id.parse().ok()?, Some(action))),
        None => Some((rest.parse().ok()?, None)),
    }
}

/// Route one request against the shared scheduling state.
pub fn handle(req: &Request, shared: &Arc<Scheduling>) -> Response {
    match (req.method.as_str(), req.path.as_str()) {
        ("GET", "/healthz") => Response::json(200, "{\"ok\":true}"),
        ("GET", "/metrics") => Response::text(200, shared.metrics().snapshot().to_text()),
        ("POST", "/v1/jobs") => submit(req, shared),
        ("GET", "/v1/jobs") => {
            let jobs: Vec<Value> = shared.jobs().iter().map(job_value).collect();
            let body = ObjBuilder::new().field("jobs", Value::Arr(jobs)).build();
            Response::json(200, body.to_json())
        }
        (method, path) => match parse_job_path(path) {
            Some((id, None)) if method == "GET" => match shared.job(id) {
                Some(job) => Response::json(200, job_value(&job).to_json()),
                None => Response::json(404, error_body(&format!("unknown job {id}"))),
            },
            Some((id, Some("cancel"))) if method == "POST" => match shared.cancel(id) {
                Ok(state) => {
                    let body = ObjBuilder::new()
                        .field("id", id)
                        .field("state", state.as_str())
                        .build();
                    Response::json(202, body.to_json())
                }
                Err(e) => Response::json(e.status(), error_body(&e.to_string())),
            },
            Some((id, Some("result"))) if method == "GET" => match shared.job(id) {
                Some(job) if job.state.is_terminal() => {
                    Response::json(200, job_value(&job).to_json())
                }
                Some(job) => Response::json(
                    409,
                    error_body(&format!("job {id} is still {}", job.state.as_str())),
                ),
                None => Response::json(404, error_body(&format!("unknown job {id}"))),
            },
            Some(_) => Response::json(405, error_body("method not allowed")),
            None => Response::json(404, error_body(&format!("no route for {path}"))),
        },
    }
}

fn submit(req: &Request, shared: &Arc<Scheduling>) -> Response {
    let body = match req.body_utf8() {
        Ok(b) => b,
        Err(msg) => return Response::json(400, error_body(&msg)),
    };
    let sub = match Submission::parse(body) {
        Ok(s) => s,
        Err(msg) => return Response::json(400, error_body(&msg)),
    };
    match shared.submit(&sub.tenant, sub.priority, sub.config) {
        Ok(id) => {
            let body = ObjBuilder::new()
                .field("id", id)
                .field("state", JobState::Queued.as_str())
                .build();
            Response::json(201, body.to_json())
        }
        Err(e) => Response::json(e.status(), error_body(&e.to_string())),
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn submission_grammar() {
        let s = Submission::parse(
            "{\"tenant\":\"acme\",\"priority\":\"high\",\"config\":{\"gpus\":4}}",
        )
        .unwrap();
        assert_eq!(s.tenant, "acme");
        assert_eq!(s.priority, Some(Priority::High));
        assert_eq!(s.config.gpus, 4);
        // config and priority default
        let s = Submission::parse("{\"tenant\":\"t\"}").unwrap();
        assert_eq!(s.priority, None);
        assert_eq!(s.config, SessionConfig::default());
        // failures are loud
        assert!(Submission::parse("{}").is_err(), "tenant required");
        assert!(Submission::parse("{\"tenant\":\"t\",\"prio\":\"high\"}").is_err());
        assert!(Submission::parse("{\"tenant\":\"t\",\"priority\":\"urgent\"}").is_err());
        assert!(
            Submission::parse("{\"tenant\":\"t\",\"config\":{\"gpsu\":4}}").is_err(),
            "config typos rejected by the shared grammar"
        );
        assert!(Submission::parse("not json").is_err());
    }

    #[test]
    fn job_paths_parse() {
        assert_eq!(parse_job_path("/v1/jobs/7"), Some((7, None)));
        assert_eq!(
            parse_job_path("/v1/jobs/7/cancel"),
            Some((7, Some("cancel")))
        );
        assert_eq!(parse_job_path("/v1/jobs/x"), None);
        assert_eq!(parse_job_path("/other"), None);
    }
}
