//! One config grammar for the whole stack: [`SessionConfig`] captures the
//! full decision surface of a scheduled run — workload shape, machine
//! shape, scheduler choice, driver knobs, topology, faults, retry policy
//! and durable store — and round-trips to JSON, so the CLI's
//! `plan`/`run`/`execute` flags and the `micco serve` submission body
//! deserialize into exactly the same struct.
//!
//! ```
//! use micco_core::SessionConfig;
//!
//! let cfg = SessionConfig::parse(r#"{"gpus": 2, "vectors": 2, "vector_size": 8,
//!                                    "tensor_size": 48, "scheduler": "micco"}"#)?;
//! let report = cfg.run()?;
//! assert!(report.gflops() > 0.0);
//! // serialization round-trips
//! assert_eq!(SessionConfig::parse(&cfg.to_json())?, cfg);
//! # Ok::<(), micco_core::ConfigError>(())
//! ```

use std::fmt;

use micco_gpusim::{FaultPlan, LinkTopology, MachineConfig};
use micco_obs::json::{ObjBuilder, Value};
use micco_workload::{ContractionTask, RepeatDistribution, TensorPairStream, WorkloadSpec};

use crate::baselines::{CodaScheduler, GrouteScheduler, RoundRobinScheduler};
use crate::bounds::ReuseBounds;
use crate::driver::{DriverOptions, ScheduleReport, Scheduler};
use crate::micco::MiccoScheduler;
use crate::session::Session;
use crate::store::DurablePlanCache;

/// A retry policy for fault-tolerant execution: up to `max_attempts`
/// tries per task with `delay_us` microseconds of backoff between them.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct RetryPolicy {
    /// Maximum attempts per task (1 = no retry).
    pub max_attempts: u32,
    /// Backoff between attempts, microseconds.
    pub delay_us: u64,
}

/// Config error: a field failed validation or the JSON was malformed.
#[derive(Debug, Clone, PartialEq)]
pub struct ConfigError(pub String);

impl fmt::Display for ConfigError {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        write!(f, "config error: {}", self.0)
    }
}

impl std::error::Error for ConfigError {}

impl From<crate::driver::ScheduleError> for ConfigError {
    fn from(e: crate::driver::ScheduleError) -> Self {
        ConfigError(e.to_string())
    }
}

impl From<crate::store::DurableError> for ConfigError {
    fn from(e: crate::store::DurableError) -> Self {
        ConfigError(e.to_string())
    }
}

/// The full decision surface of one scheduled contraction job.
///
/// Every field has a default matching the CLI's defaults, so a config can
/// be as sparse as `{}`. Unknown JSON keys are rejected — a typoed field
/// fails loudly instead of silently running with defaults.
#[derive(Debug, Clone, PartialEq)]
pub struct SessionConfig {
    // -- workload --
    /// Pairs per correlation vector.
    pub vector_size: usize,
    /// Square tensor dimension.
    pub tensor_size: usize,
    /// Cross-vector operand repeat rate in `[0, 1]`.
    pub rate: f64,
    /// Repeat distribution: `uniform` | `gaussian` | `zipf`.
    pub dist: String,
    /// Number of correlation vectors (stages).
    pub vectors: usize,
    /// Workload RNG seed.
    pub seed: u64,
    /// Tensors per batch slot.
    pub batch: usize,
    /// Optional explicit dimension choices (empty = generator default).
    pub dims: Vec<usize>,
    // -- machine --
    /// Simulated GPU count.
    pub gpus: usize,
    /// Memory oversubscription factor (0 = off): per-GPU memory is sized
    /// to `working_set / oversub / gpus`, so the working set is `oversub`
    /// times the aggregate memory (`2` halves it).
    pub oversub: f64,
    // -- scheduler --
    /// Scheduler name: `micco` | `micco-naive` | `groute` | `coda` | `rr`.
    pub scheduler: String,
    /// MICCO reuse bounds `(l, r, v)`.
    pub bounds: [usize; 3],
    // -- driver --
    /// Copy/compute overlap (the async-copy engine).
    pub overlap: bool,
    /// DMA staging window in tasks (0 = unbounded).
    pub prefetch_tasks: usize,
    /// Link topology spec (`nvlink{…}` grammar), `None` = flat.
    pub topology: Option<String>,
    /// Let the scheduler see the topology when scoring candidates.
    pub topology_aware: bool,
    // -- resilience --
    /// Fault-injection spec (`kernel:T*N,timeout:T*N,lose:G@S,flake:G@S`
    /// grammar), `None` = no faults.
    pub faults: Option<String>,
    /// Retry policy for fault-tolerant execution, `None` = engine default.
    pub retry: Option<RetryPolicy>,
    // -- persistence --
    /// Durable plan store directory; planning goes through the
    /// write-ahead log for warm starts.
    pub store: Option<String>,
    // -- real-engine knobs --
    /// Work stealing between executor workers.
    pub steal: bool,
    /// Prefetch hints in the real engine.
    pub prefetch: bool,
}

impl Default for SessionConfig {
    fn default() -> Self {
        SessionConfig {
            vector_size: 64,
            tensor_size: 384,
            rate: 0.5,
            dist: "uniform".to_owned(),
            vectors: 10,
            seed: 0,
            batch: 4,
            dims: Vec::new(),
            gpus: 8,
            oversub: 0.0,
            scheduler: "micco".to_owned(),
            bounds: [0, 2, 0],
            overlap: false,
            prefetch_tasks: 0,
            topology: None,
            topology_aware: false,
            faults: None,
            retry: None,
            store: None,
            steal: false,
            prefetch: false,
        }
    }
}

/// All keys `SessionConfig::parse` accepts, in schema order.
pub const CONFIG_KEYS: &[&str] = &[
    "vector_size",
    "tensor_size",
    "rate",
    "dist",
    "vectors",
    "seed",
    "batch",
    "dims",
    "gpus",
    "oversub",
    "scheduler",
    "bounds",
    "overlap",
    "prefetch_tasks",
    "topology",
    "topology_aware",
    "faults",
    "retry",
    "store",
    "steal",
    "prefetch",
];

impl SessionConfig {
    /// A config with every field at its CLI default.
    pub fn new() -> Self {
        Self::default()
    }

    // ---- JSON ----

    /// Parse from JSON. Absent fields take defaults; unknown keys and
    /// type mismatches are errors.
    pub fn parse(json: &str) -> Result<SessionConfig, ConfigError> {
        let v = Value::parse(json).map_err(|e| ConfigError(e.to_string()))?;
        Self::from_value(&v)
    }

    /// Parse from an already decoded JSON value (e.g. a field of a larger
    /// request body).
    pub fn from_value(v: &Value) -> Result<SessionConfig, ConfigError> {
        let obj = v
            .as_obj()
            .ok_or_else(|| ConfigError("config must be a JSON object".into()))?;
        for key in obj.keys() {
            if !CONFIG_KEYS.contains(&key.as_str()) {
                return Err(ConfigError(format!("unknown config key '{key}'")));
            }
        }
        let mut cfg = SessionConfig::default();
        get_usize(v, "vector_size", &mut cfg.vector_size)?;
        get_usize(v, "tensor_size", &mut cfg.tensor_size)?;
        get_f64(v, "rate", &mut cfg.rate)?;
        get_str(v, "dist", &mut cfg.dist)?;
        get_usize(v, "vectors", &mut cfg.vectors)?;
        get_u64(v, "seed", &mut cfg.seed)?;
        get_usize(v, "batch", &mut cfg.batch)?;
        if let Some(dims) = v.get("dims") {
            let arr = dims
                .as_arr()
                .ok_or_else(|| ConfigError("'dims' must be an array".into()))?;
            cfg.dims = arr
                .iter()
                .map(|d| {
                    d.as_u64().map(|n| n as usize).ok_or_else(|| {
                        ConfigError("'dims' entries must be non-negative integers".into())
                    })
                })
                .collect::<Result<_, _>>()?;
        }
        get_usize(v, "gpus", &mut cfg.gpus)?;
        get_f64(v, "oversub", &mut cfg.oversub)?;
        get_str(v, "scheduler", &mut cfg.scheduler)?;
        if let Some(b) = v.get("bounds") {
            let arr = b
                .as_arr()
                .ok_or_else(|| ConfigError("'bounds' must be an array".into()))?;
            if arr.len() != 3 {
                return Err(ConfigError("'bounds' needs exactly three integers".into()));
            }
            for (i, x) in arr.iter().enumerate() {
                cfg.bounds[i] = x.as_u64().ok_or_else(|| {
                    ConfigError("'bounds' entries must be non-negative integers".into())
                })? as usize;
            }
        }
        get_bool(v, "overlap", &mut cfg.overlap)?;
        get_usize(v, "prefetch_tasks", &mut cfg.prefetch_tasks)?;
        get_opt_str(v, "topology", &mut cfg.topology)?;
        get_bool(v, "topology_aware", &mut cfg.topology_aware)?;
        get_opt_str(v, "faults", &mut cfg.faults)?;
        if let Some(r) = v.get("retry") {
            if *r != Value::Null {
                let max = r
                    .get("max_attempts")
                    .and_then(Value::as_u64)
                    .ok_or_else(|| ConfigError("'retry.max_attempts' must be an integer".into()))?;
                let max = u32::try_from(max).map_err(|_| {
                    ConfigError(format!(
                        "'retry.max_attempts' must be at most {}, got {max}",
                        u32::MAX
                    ))
                })?;
                let delay = match r.get("delay_us") {
                    None => 0,
                    Some(d) => d
                        .as_u64()
                        .ok_or_else(|| ConfigError("'retry.delay_us' must be an integer".into()))?,
                };
                cfg.retry = Some(RetryPolicy {
                    max_attempts: max,
                    delay_us: delay,
                });
            }
        }
        get_opt_str(v, "store", &mut cfg.store)?;
        get_bool(v, "steal", &mut cfg.steal)?;
        get_bool(v, "prefetch", &mut cfg.prefetch)?;
        cfg.validate()?;
        Ok(cfg)
    }

    /// Serialize to compact JSON (round-trips through [`Self::parse`]).
    pub fn to_json(&self) -> String {
        self.to_value().to_json()
    }

    /// The config as a JSON value (for embedding in larger documents).
    pub fn to_value(&self) -> Value {
        let mut b = ObjBuilder::new()
            .field("vector_size", self.vector_size)
            .field("tensor_size", self.tensor_size)
            .field("rate", self.rate)
            .field("dist", self.dist.as_str())
            .field("vectors", self.vectors)
            .field("seed", self.seed)
            .field("batch", self.batch)
            .field("gpus", self.gpus)
            .field("oversub", self.oversub)
            .field("scheduler", self.scheduler.as_str())
            .field(
                "bounds",
                Value::Arr(self.bounds.iter().map(|&x| Value::from(x)).collect()),
            )
            .field("overlap", self.overlap)
            .field("prefetch_tasks", self.prefetch_tasks)
            .field("topology_aware", self.topology_aware)
            .field("steal", self.steal)
            .field("prefetch", self.prefetch);
        if !self.dims.is_empty() {
            b = b.field(
                "dims",
                Value::Arr(self.dims.iter().map(|&d| Value::from(d)).collect()),
            );
        }
        b = b
            .opt("topology", self.topology.as_deref())
            .opt("faults", self.faults.as_deref())
            .opt("store", self.store.as_deref());
        if let Some(r) = &self.retry {
            b = b.field(
                "retry",
                ObjBuilder::new()
                    .field("max_attempts", r.max_attempts as u64)
                    .field("delay_us", r.delay_us)
                    .build(),
            );
        }
        b.build()
    }

    // ---- validation ----

    /// Check every field that has a constrained domain; the builders
    /// below assume a validated config.
    pub fn validate(&self) -> Result<(), ConfigError> {
        if self.gpus == 0 {
            return Err(ConfigError("'gpus' must be at least 1".into()));
        }
        if self.vector_size == 0 || self.vectors == 0 {
            return Err(ConfigError(
                "'vector_size' and 'vectors' must be at least 1".into(),
            ));
        }
        if self.tensor_size == 0 {
            return Err(ConfigError("'tensor_size' must be at least 1".into()));
        }
        if self.batch == 0 {
            return Err(ConfigError("'batch' must be at least 1".into()));
        }
        if self.dims.contains(&0) {
            return Err(ConfigError("'dims' entries must be at least 1".into()));
        }
        if !(0.0..=1.0).contains(&self.rate) {
            return Err(ConfigError("'rate' must be in [0, 1]".into()));
        }
        self.distribution()?;
        self.check_stream_totals()?;
        // JSON maps an overflowing number such as 1e999 to infinity, which
        // would size every device to 1 B
        if !(self.oversub.is_finite() && self.oversub >= 0.0) {
            return Err(ConfigError(format!(
                "'oversub' must be finite and non-negative, got {}",
                self.oversub
            )));
        }
        // scheduler + bounds check by construction
        self.build_scheduler()?;
        // topology / faults specs must parse, and a topology must cover
        // exactly the configured devices (the simulators assert on it).
        // Only the spec is checked: the session builds the link tables,
        // which grow with the cube of the device count, so a daemon builds
        // them only for a job whose device count it has admitted.
        if let Some(spec) = self.topology_spec() {
            let gpus = LinkTopology::check_spec(spec).map_err(topology_error)?;
            if gpus != self.gpus {
                return Err(ConfigError(format!(
                    "'topology' covers {gpus} GPUs but 'gpus' is {}",
                    self.gpus
                )));
            }
        }
        self.fault_plan()?;
        if let Some(r) = &self.retry {
            if r.max_attempts == 0 {
                return Err(ConfigError(
                    "'retry.max_attempts' must be at least 1".into(),
                ));
            }
        }
        Ok(())
    }

    /// Reject a shape whose stream totals — flops, or bytes touched — do
    /// not fit `u64`, for `tensor_size` and for every `dims` entry, using
    /// the generator's own formulas: past this check, generating the
    /// stream and summing its work cannot overflow.
    fn check_stream_totals(&self) -> Result<(), ConfigError> {
        let spec = self.workload()?;
        let tasks = (self.vector_size as u64)
            .checked_mul(self.vectors as u64)
            .ok_or_else(|| ConfigError("'vector_size' * 'vectors' overflows u64".into()))?;
        let sizes = std::iter::once(("tensor_size", self.tensor_size))
            .chain(self.dims.iter().map(|&dim| ("dims", dim)));
        for (key, dim) in sizes {
            if ContractionTask::checked_totals(spec.kind, spec.batch, dim, tasks).is_none() {
                return Err(ConfigError(format!(
                    "'{key}' {dim}: the stream's total flops or bytes overflow u64 \
                     ({tasks} tasks of batch {})",
                    spec.batch
                )));
            }
        }
        Ok(())
    }

    fn distribution(&self) -> Result<RepeatDistribution, ConfigError> {
        match self.dist.as_str() {
            "uniform" => Ok(RepeatDistribution::Uniform),
            "gaussian" => Ok(RepeatDistribution::Gaussian),
            "zipf" => Ok(RepeatDistribution::Zipf),
            other => Err(ConfigError(format!(
                "unknown distribution '{other}' (uniform|gaussian|zipf)"
            ))),
        }
    }

    // ---- builders ----

    /// Generate the synthetic workload this config describes.
    pub fn stream(&self) -> Result<TensorPairStream, ConfigError> {
        Ok(self.workload()?.generate())
    }

    /// The generator spec behind [`Self::stream`].
    fn workload(&self) -> Result<WorkloadSpec, ConfigError> {
        let mut spec = WorkloadSpec::new(self.vector_size, self.tensor_size)
            .with_repeat_rate(self.rate)
            .with_distribution(self.distribution()?)
            .with_vectors(self.vectors)
            .with_seed(self.seed)
            .with_batch(self.batch);
        if !self.dims.is_empty() {
            spec = spec.with_dim_choices(self.dims.clone());
        }
        Ok(spec)
    }

    /// The machine shape (needs the stream for oversubscription sizing),
    /// with `overlap` and `prefetch_tasks` on its cost model.
    pub fn machine(&self, stream: &TensorPairStream) -> MachineConfig {
        let mut cfg = MachineConfig::mi100_like(self.gpus);
        if self.overlap {
            cfg = cfg.with_cost(cfg.cost.with_async_copy());
        }
        if self.prefetch_tasks > 0 {
            cfg = cfg.with_cost(cfg.cost.with_prefetch_tasks(self.prefetch_tasks));
        }
        if self.oversub > 0.0 {
            cfg = cfg.with_oversubscription(stream.unique_bytes(), self.oversub);
        }
        cfg
    }

    /// The scheduler this config names.
    pub fn build_scheduler(&self) -> Result<Box<dyn Scheduler>, ConfigError> {
        match self.scheduler.as_str() {
            "micco" => Ok(Box::new(MiccoScheduler::new(ReuseBounds::new(
                self.bounds[0],
                self.bounds[1],
                self.bounds[2],
            )))),
            "micco-naive" => Ok(Box::new(MiccoScheduler::naive())),
            "groute" => Ok(Box::new(GrouteScheduler::new())),
            "coda" => Ok(Box::new(CodaScheduler::new())),
            "rr" | "round-robin" => Ok(Box::new(RoundRobinScheduler::new())),
            other => Err(ConfigError(format!(
                "unknown scheduler '{other}' (micco|micco-naive|groute|coda|rr)"
            ))),
        }
    }

    /// The planning knobs the config's [`Session`] plans and replays
    /// under: overhead timing (always on) and `topology_aware`. Its plan
    /// keys mix them in beside [`Self::machine`], which carries `overlap`
    /// and `prefetch_tasks`.
    pub fn driver_options(&self) -> DriverOptions {
        let opts = DriverOptions::default().with_measure_overhead();
        if self.topology_aware {
            opts.with_topology_aware()
        } else {
            opts
        }
    }

    /// The parsed link topology, `None` when flat.
    pub fn link_topology(&self) -> Result<Option<LinkTopology>, ConfigError> {
        self.topology_spec()
            .map(|spec| LinkTopology::parse(spec).map_err(topology_error))
            .transpose()
    }

    /// The topology spec, `None` when flat.
    fn topology_spec(&self) -> Option<&str> {
        match self.topology.as_deref() {
            None | Some("flat") => None,
            Some(spec) => Some(spec.trim()),
        }
    }

    /// The parsed fault plan (empty when none configured).
    pub fn fault_plan(&self) -> Result<FaultPlan, ConfigError> {
        match self.faults.as_deref() {
            None => Ok(FaultPlan::none()),
            Some(spec) => FaultPlan::parse(spec).map_err(|e| ConfigError(format!("'faults': {e}"))),
        }
    }

    /// Assemble the [`Session`] this config describes: machine + planning
    /// knobs + topology + faults, ready to plan or run. The session holds
    /// no store and no retry policy: [`Self::run`] plans through `store`,
    /// and `retry` is for the real executor (the simulator models retries
    /// through the fault plan).
    pub fn session(&self, stream: &TensorPairStream) -> Result<Session, ConfigError> {
        let mut session = Session::new(self.machine(stream)).with_options(self.driver_options());
        if let Some(topo) = self.link_topology()? {
            session = session.with_topology(topo);
        }
        let faults = self.fault_plan()?;
        if faults.fault_count() > 0 {
            session = session.with_faults(faults);
        }
        Ok(session)
    }

    /// Decide and execute in one call — generates the stream, builds the
    /// session and scheduler, plans (through a [`DurablePlanCache`] opened
    /// over `store` when one is configured, so a repeated request is
    /// served from its log) and executes.
    pub fn run(&self) -> Result<ScheduleReport, ConfigError> {
        let stream = self.stream()?;
        let session = self.session(&stream)?;
        let mut scheduler = self.build_scheduler()?;
        let planned = match &self.store {
            Some(dir) => {
                let cache = DurablePlanCache::open(dir)?;
                session.plan_with_cache(&cache, scheduler.as_mut(), &stream)?
            }
            None => session.plan(scheduler.as_mut(), &stream)?,
        };
        Ok(planned.execute(&stream)?)
    }
}

fn topology_error(e: String) -> ConfigError {
    ConfigError(format!("'topology': {e}"))
}

fn get_usize(v: &Value, key: &str, out: &mut usize) -> Result<(), ConfigError> {
    if let Some(x) = v.get(key) {
        *out = x
            .as_u64()
            .ok_or_else(|| ConfigError(format!("'{key}' must be a non-negative integer")))?
            as usize;
    }
    Ok(())
}

fn get_u64(v: &Value, key: &str, out: &mut u64) -> Result<(), ConfigError> {
    if let Some(x) = v.get(key) {
        *out = x
            .as_u64()
            .ok_or_else(|| ConfigError(format!("'{key}' must be a non-negative integer")))?;
    }
    Ok(())
}

fn get_f64(v: &Value, key: &str, out: &mut f64) -> Result<(), ConfigError> {
    if let Some(x) = v.get(key) {
        *out = x
            .as_f64()
            .ok_or_else(|| ConfigError(format!("'{key}' must be a number")))?;
    }
    Ok(())
}

fn get_bool(v: &Value, key: &str, out: &mut bool) -> Result<(), ConfigError> {
    if let Some(x) = v.get(key) {
        *out = x
            .as_bool()
            .ok_or_else(|| ConfigError(format!("'{key}' must be a boolean")))?;
    }
    Ok(())
}

fn get_str(v: &Value, key: &str, out: &mut String) -> Result<(), ConfigError> {
    if let Some(x) = v.get(key) {
        *out = x
            .as_str()
            .ok_or_else(|| ConfigError(format!("'{key}' must be a string")))?
            .to_owned();
    }
    Ok(())
}

fn get_opt_str(v: &Value, key: &str, out: &mut Option<String>) -> Result<(), ConfigError> {
    match v.get(key) {
        None | Some(Value::Null) => Ok(()),
        Some(x) => {
            *out = Some(
                x.as_str()
                    .ok_or_else(|| ConfigError(format!("'{key}' must be a string")))?
                    .to_owned(),
            );
            Ok(())
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn default_round_trips_and_runs() {
        let cfg = SessionConfig {
            vector_size: 8,
            tensor_size: 48,
            vectors: 2,
            gpus: 2,
            ..SessionConfig::default()
        };
        let json = cfg.to_json();
        let back = SessionConfig::parse(&json).expect("round trip");
        assert_eq!(back, cfg);
        let report = cfg.run().expect("runs");
        assert!(report.gflops() > 0.0);
    }

    #[test]
    fn sparse_json_takes_defaults() {
        let cfg = SessionConfig::parse("{}").expect("empty object is the default config");
        assert_eq!(cfg, SessionConfig::default());
        let cfg = SessionConfig::parse(r#"{"gpus": 4, "scheduler": "rr"}"#).unwrap();
        assert_eq!(cfg.gpus, 4);
        assert_eq!(cfg.scheduler, "rr");
        assert_eq!(cfg.vector_size, 64);
    }

    #[test]
    fn full_surface_round_trips() {
        let cfg = SessionConfig {
            vector_size: 16,
            tensor_size: 96,
            rate: 0.25,
            dist: "zipf".into(),
            vectors: 3,
            seed: 42,
            batch: 2,
            dims: vec![32, 64],
            gpus: 4,
            oversub: 1.5,
            scheduler: "micco".into(),
            bounds: [1, 3, 1],
            overlap: true,
            prefetch_tasks: 2,
            topology: Some("nvlink{gpus: 4, island: 2}".into()),
            topology_aware: true,
            faults: Some("kernel:3*1".into()),
            retry: Some(RetryPolicy {
                max_attempts: 3,
                delay_us: 50,
            }),
            store: Some("/tmp/plans".into()),
            steal: true,
            prefetch: true,
        };
        let back = SessionConfig::parse(&cfg.to_json()).expect("round trip");
        assert_eq!(back, cfg);
    }

    #[test]
    fn unknown_keys_and_bad_values_are_rejected() {
        assert!(SessionConfig::parse(r#"{"gpu": 4}"#).is_err(), "typo key");
        assert!(SessionConfig::parse(r#"{"gpus": -1}"#).is_err());
        assert!(SessionConfig::parse(r#"{"gpus": 0}"#).is_err());
        assert!(SessionConfig::parse(r#"{"rate": 1.5}"#).is_err());
        assert!(SessionConfig::parse(r#"{"scheduler": "magic"}"#).is_err());
        assert!(SessionConfig::parse(r#"{"dist": "pareto"}"#).is_err());
        assert!(SessionConfig::parse(r#"{"bounds": [1, 2]}"#).is_err());
        assert!(SessionConfig::parse(r#"{"topology": "nvlink{"}"#).is_err());
        assert!(SessionConfig::parse(r#"{"faults": "bogus"}"#).is_err());
        assert!(SessionConfig::parse(r#"{"retry": {"max_attempts": 0}}"#).is_err());
        assert!(SessionConfig::parse("[1]").is_err(), "non-object");
        assert!(SessionConfig::parse("not json").is_err());
    }

    #[test]
    fn topology_flat_is_none_and_specs_parse() {
        let mut cfg = SessionConfig {
            topology: Some("flat".into()),
            ..SessionConfig::default()
        };
        assert!(cfg.link_topology().unwrap().is_none());
        cfg.topology = Some("nvlink{gpus: 8, island: 4}".into());
        let topo = cfg.link_topology().unwrap().expect("parses");
        assert_eq!(topo.num_gpus(), 8);
    }

    #[test]
    fn topology_must_cover_the_configured_gpus() {
        // a mismatch must stop at validation: past it, the simulators
        // assert that the topology and the machine agree
        let err = SessionConfig::parse(r#"{"gpus": 4, "topology": "nvlink{gpus:8, island:4}"}"#)
            .unwrap_err();
        assert!(err.to_string().contains("covers 8 GPUs"), "{err}");
        let mut cfg = SessionConfig {
            gpus: 4,
            topology: Some("nvlink{gpus:8, island:4}".into()),
            ..SessionConfig::default()
        };
        assert!(cfg.validate().is_err());
        cfg.gpus = 8;
        assert_eq!(cfg.validate(), Ok(()));
    }

    #[test]
    fn same_config_decides_the_same_plan() {
        let cfg = SessionConfig {
            vector_size: 8,
            tensor_size: 48,
            vectors: 2,
            gpus: 2,
            ..SessionConfig::default()
        };
        let stream = cfg.stream().unwrap();
        let session = cfg.session(&stream).unwrap();
        let a = session
            .plan(cfg.build_scheduler().unwrap().as_mut(), &stream)
            .unwrap();
        let b = session
            .plan(cfg.build_scheduler().unwrap().as_mut(), &stream)
            .unwrap();
        // the decided placement is deterministic (the measured overhead
        // float is wall-clock and excluded from the comparison)
        assert_eq!(a.plan().stages, b.plan().stages);
        assert_eq!(a.plan().fingerprint, b.plan().fingerprint);
    }

    #[test]
    fn a_store_backed_run_decides_once_then_replays_from_the_log() {
        let dir = std::env::temp_dir().join(format!(
            "micco-config-store-{}-{:?}",
            std::process::id(),
            std::thread::current().id()
        ));
        let _ = std::fs::remove_dir_all(&dir);
        let cfg = SessionConfig {
            vector_size: 10,
            tensor_size: 64,
            vectors: 3,
            seed: 11,
            gpus: 2,
            store: Some(dir.to_string_lossy().into_owned()),
            ..SessionConfig::default()
        };
        let records = || {
            let recovery = *DurablePlanCache::open(&dir).unwrap().recovery();
            (recovery.records_loaded, recovery.records_superseded)
        };
        // cold: the scheduler decides and the plan is appended
        let cold = cfg.run().expect("plans");
        assert_eq!(records(), (1, 0));
        // warm: served from the log, so nothing is appended and the plan
        // keeps the scheduling overhead measured when it was decided
        let warm = cfg.run().expect("replays");
        assert_eq!(records(), (1, 0));
        // the execute phase's wall clock is the one field that may differ
        let untimed = |report: ScheduleReport| ScheduleReport {
            execution_overhead_secs: 0.0,
            ..report
        };
        assert!(cold.scheduling_overhead_secs > 0.0);
        assert_eq!(untimed(cold), untimed(warm));
        std::fs::remove_dir_all(&dir).unwrap();
    }

    /// The plan-cache key of the request `cfg` describes, in hex.
    fn key_hex(cfg: &SessionConfig) -> String {
        let stream = cfg.stream().unwrap();
        let session = cfg.session(&stream).unwrap();
        let key = crate::plan::PlanCache::key_for_with_topology(
            cfg.build_scheduler().unwrap().as_ref(),
            &stream,
            session.config(),
            *session.options(),
            session.topology(),
        );
        format!("{:016x}", key.raw())
    }

    #[test]
    fn plan_cache_keys_built_from_configs_are_pinned() {
        // every on-disk store is keyed by these bytes: a drift makes every
        // stored plan unreachable
        let cases = [
            (SessionConfig::default(), "232c41041d4ad6cf"),
            (
                SessionConfig {
                    overlap: true,
                    prefetch_tasks: 2,
                    ..SessionConfig::default()
                },
                "77d0f7772893428f",
            ),
            (
                SessionConfig {
                    topology: Some("nvlink{gpus:8, island:4}".into()),
                    topology_aware: true,
                    ..SessionConfig::default()
                },
                "e2dbf32dfbb60d45",
            ),
            (
                SessionConfig {
                    oversub: 2.0,
                    ..SessionConfig::default()
                },
                "622f9541a7c173df",
            ),
            (
                SessionConfig {
                    scheduler: "groute".into(),
                    ..SessionConfig::default()
                },
                "df628b01e450f643",
            ),
        ];
        let keys: Vec<String> = cases.iter().map(|(cfg, _)| key_hex(cfg)).collect();
        let pinned: Vec<&str> = cases.iter().map(|&(_, key)| key).collect();
        assert_eq!(keys, pinned);
    }

    /// The error `json` parses to; panics if it parses.
    fn rejected(json: &str) -> String {
        SessionConfig::parse(json).unwrap_err().to_string()
    }

    #[test]
    fn retry_counts_past_u32_are_rejected_not_wrapped() {
        for max in [4_294_967_296u64, 4_294_967_297, 4_294_967_302] {
            let err = rejected(&format!(r#"{{"retry": {{"max_attempts": {max}}}}}"#));
            assert!(
                err.contains("'retry.max_attempts' must be at most 4294967295"),
                "{err}"
            );
        }
        let cfg = SessionConfig::parse(r#"{"retry": {"max_attempts": 4294967295}}"#).unwrap();
        assert_eq!(cfg.retry.map(|r| r.max_attempts), Some(u32::MAX));
    }

    #[test]
    fn shapes_whose_stream_totals_overflow_are_rejected() {
        // per-task flops already overflow: (2^53)^3
        let err = rejected(r#"{"tensor_size": 9007199254740992}"#);
        assert!(err.contains("'tensor_size'"), "{err}");
        // the release build used to wrap this one to 0 GFLOPS
        let err =
            rejected(r#"{"tensor_size": 4294967296, "vectors": 1, "vector_size": 1, "gpus": 2}"#);
        assert!(err.contains("'tensor_size'"), "{err}");
        // every dims entry is checked, not just the first
        let err = rejected(r#"{"dims": [64, 9007199254740992]}"#);
        assert!(err.contains("'dims'"), "{err}");
        // each task fits, the stream's total flops do not: 2^30 tasks of
        // 2^47 flops
        let err = rejected(r#"{"tensor_size": 16384, "vector_size": 1048576, "vectors": 1024}"#);
        assert!(err.contains("'tensor_size'"), "{err}");
        // the total flops fit (2^58 tasks of 32), the total bytes do not
        let err = rejected(r#"{"tensor_size": 1, "vector_size": 536870912, "vectors": 536870912}"#);
        assert!(err.contains("'tensor_size'"), "{err}");
    }

    #[test]
    fn a_non_finite_or_negative_oversub_is_rejected() {
        let err = rejected(r#"{"oversub": 1e999}"#);
        assert_eq!(
            err,
            "config error: 'oversub' must be finite and non-negative, got inf"
        );
        let err = rejected(r#"{"oversub": -1e999}"#);
        assert!(err.contains("'oversub'"), "{err}");
        let err = rejected(r#"{"oversub": -0.5}"#);
        assert!(err.contains("'oversub'"), "{err}");
        let nan = SessionConfig {
            oversub: f64::NAN,
            ..SessionConfig::default()
        };
        assert!(nan.validate().is_err(), "NaN must not pass");
        assert!(SessionConfig::parse(r#"{"oversub": 3.0}"#).is_ok());
    }

    #[test]
    fn zero_batches_and_dims_are_rejected() {
        let err = rejected(r#"{"batch": 0}"#);
        assert!(err.contains("'batch'"), "{err}");
        let err = rejected(r#"{"dims": [64, 0]}"#);
        assert!(err.contains("'dims'"), "{err}");
    }

    #[test]
    fn realistic_shapes_still_validate() {
        assert_eq!(SessionConfig::default().validate(), Ok(()));
        // the benchmark's job templates
        for (vector_size, vectors, tensor_size, gpus) in
            [(256, 20, 384, 8), (256, 80, 192, 4), (150, 2, 32, 2)]
        {
            let cfg = SessionConfig {
                vector_size,
                vectors,
                tensor_size,
                gpus,
                ..SessionConfig::default()
            };
            assert_eq!(cfg.validate(), Ok(()));
        }
        // the largest per-task shape the daemon still answers with 413
        let cfg = SessionConfig {
            tensor_size: 1 << 14,
            vector_size: 512,
            vectors: 64,
            gpus: 2,
            ..SessionConfig::default()
        };
        assert_eq!(cfg.validate(), Ok(()));
    }
}
