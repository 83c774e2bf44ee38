#![warn(missing_docs)]

//! # micco-bench
//!
//! Experiment harnesses regenerating every table and figure of the paper's
//! evaluation (Sec. V).
//!
//! Each `src/bin/*.rs` binary reproduces one exhibit and prints the same
//! rows/series the paper reports:
//!
//! | Binary | Paper exhibit |
//! |---|---|
//! | `fig5_spearman` | Fig. 5 — Spearman correlation heatmap |
//! | `tab4_regression` | Table IV — R² of the three regressors |
//! | `tab5_overhead` | Table V — scheduling overhead vs total time |
//! | `fig7_overall` | Fig. 7 — overall performance (8 panels) |
//! | `fig8_bounds` | Fig. 8 — impact of reuse bounds (13 settings × 3 cases) |
//! | `fig9_scalability` | Fig. 9 — 1–8 GPU scalability |
//! | `fig10_tensor_size` | Fig. 10 — tensor size sweep |
//! | `fig11_oversub` | Fig. 11 — memory oversubscription sweep |
//! | `tab6_redstar` | Table VI — real correlation functions in Redstar |
//!
//! This library crate holds the shared pieces: deterministic spec grids,
//! the trained-model builder, table printers, and geometric means.

pub mod report;

use micco_core::model::RegressionBounds;
use micco_core::tuner::{build_training_set, TrainingConfig};
use micco_core::{MiccoScheduler, ReuseBounds, ScheduleReport, Scheduler, Session};
use micco_gpusim::MachineConfig;
use micco_workload::{RepeatDistribution, TensorPairStream, WorkloadSpec};

/// The evaluation's standard synthetic tensor size (Sec. V-A).
pub const DEFAULT_TENSOR_SIZE: usize = 384;
/// Default GPU count (the paper's platform has eight MI100s).
pub const DEFAULT_GPUS: usize = 8;
/// Default vectors per synthetic stream (Table V sums ten vectors).
pub const DEFAULT_VECTORS: usize = 10;

/// Build the standard synthetic stream for a configuration point.
pub fn standard_stream(
    vector_size: usize,
    tensor_size: usize,
    rate: f64,
    dist: RepeatDistribution,
    seed: u64,
) -> TensorPairStream {
    WorkloadSpec::new(vector_size, tensor_size)
        .with_repeat_rate(rate)
        .with_distribution(dist)
        .with_vectors(DEFAULT_VECTORS)
        .with_seed(seed)
        .generate()
}

/// Result of running one scheduler on one stream.
#[derive(Debug, Clone)]
pub struct RunPoint {
    /// Scheduler name.
    pub scheduler: String,
    /// Achieved GFLOPS.
    pub gflops: f64,
    /// Simulated elapsed seconds.
    pub elapsed_secs: f64,
    /// Wall-clock scheduling overhead in seconds.
    pub overhead_secs: f64,
}

impl From<&ScheduleReport> for RunPoint {
    fn from(r: &ScheduleReport) -> Self {
        RunPoint {
            scheduler: r.scheduler.clone(),
            gflops: r.gflops(),
            elapsed_secs: r.elapsed_secs(),
            overhead_secs: r.scheduling_overhead_secs,
        }
    }
}

/// Run one scheduler over a stream, panicking with a readable message if
/// the workload does not fit the machine (experiments are sized to fit).
///
/// Scheduling-overhead timing is opted in (it is off by default since the
/// plan-IR split) so [`RunPoint::overhead_secs`] stays meaningful.
pub fn run(s: &mut dyn Scheduler, stream: &TensorPairStream, cfg: &MachineConfig) -> RunPoint {
    let report = Session::new(*cfg)
        .with_options(micco_core::DriverOptions::default().with_measure_overhead())
        .run(s, stream)
        .expect("experiment workload must fit the machine");
    RunPoint::from(&report)
}

/// Train the paper's regression model on grid-search-labelled samples.
/// `samples = 300` reproduces Table IV's setup exactly; figure binaries may
/// use fewer for faster start-up.
pub fn trained_model(samples: usize, machine: &MachineConfig, seed: u64) -> RegressionBounds {
    let tc = TrainingConfig {
        samples,
        seed,
        ..TrainingConfig::default()
    };
    let training = build_training_set(&tc, machine);
    RegressionBounds::train(&training, seed)
}

/// MICCO with the best fixed bounds found by a grid search over the Fig. 8
/// candidate set on a reference stream — a cheaper stand-in for the full
/// regression model in sweeps that only need "well-tuned MICCO".
pub fn tuned_fixed_micco(
    stream: &TensorPairStream,
    cfg: &MachineConfig,
) -> (MiccoScheduler, ReuseBounds) {
    let (bounds, _) =
        micco_core::tuner::grid_search(stream, cfg, &micco_core::tuner::FIG8_BOUND_SETTINGS);
    (MiccoScheduler::new(bounds), bounds)
}

/// Geometric mean of a non-empty slice of positive numbers.
pub fn geomean(values: &[f64]) -> f64 {
    assert!(!values.is_empty(), "geomean of empty slice");
    let log_sum: f64 = values.iter().map(|v| v.ln()).sum();
    (log_sum / values.len() as f64).exp()
}

/// Render a markdown table.
pub fn markdown_table(headers: &[&str], rows: &[Vec<String>]) -> String {
    let mut out = String::new();
    out.push_str("| ");
    out.push_str(&headers.join(" | "));
    out.push_str(" |\n|");
    for _ in headers {
        out.push_str("---|");
    }
    out.push('\n');
    for row in rows {
        out.push_str("| ");
        out.push_str(&row.join(" | "));
        out.push_str(" |\n");
    }
    out
}

/// Both repeated-data distributions with their paper names.
pub fn distributions() -> [(RepeatDistribution, &'static str); 2] {
    [
        (RepeatDistribution::Uniform, "Uniform"),
        (RepeatDistribution::Gaussian, "Gaussian"),
    ]
}

#[cfg(test)]
mod tests {
    use super::*;
    use micco_core::GrouteScheduler;

    #[test]
    fn geomean_basics() {
        assert!((geomean(&[2.0, 8.0]) - 4.0).abs() < 1e-12);
        assert!((geomean(&[3.0]) - 3.0).abs() < 1e-12);
    }

    #[test]
    #[should_panic(expected = "empty")]
    fn geomean_empty_panics() {
        let _ = geomean(&[]);
    }

    #[test]
    fn markdown_table_shape() {
        let t = markdown_table(&["a", "b"], &[vec!["1".into(), "2".into()]]);
        assert!(t.contains("| a | b |"));
        assert!(t.contains("| 1 | 2 |"));
        assert_eq!(t.lines().count(), 3);
    }

    #[test]
    fn standard_stream_is_deterministic() {
        let a = standard_stream(8, 128, 0.5, RepeatDistribution::Uniform, 1);
        let b = standard_stream(8, 128, 0.5, RepeatDistribution::Uniform, 1);
        assert_eq!(a, b);
        assert_eq!(a.vectors.len(), DEFAULT_VECTORS);
    }

    #[test]
    fn run_produces_sane_point() {
        let stream = standard_stream(8, 64, 0.5, RepeatDistribution::Uniform, 1);
        let cfg = MachineConfig::mi100_like(2);
        let p = run(&mut GrouteScheduler::new(), &stream, &cfg);
        assert!(p.gflops > 0.0);
        assert!(p.elapsed_secs > 0.0);
        assert_eq!(p.scheduler, "groute");
    }

    #[test]
    fn tuned_fixed_micco_returns_fig8_setting() {
        let stream = standard_stream(8, 64, 0.75, RepeatDistribution::Uniform, 2);
        let cfg = MachineConfig::mi100_like(2);
        let (_, bounds) = tuned_fixed_micco(&stream, &cfg);
        assert!(micco_core::tuner::FIG8_BOUND_SETTINGS.contains(&bounds.as_array()));
    }

    #[test]
    fn trained_model_smoke() {
        let cfg = MachineConfig::mi100_like(2);
        let model = trained_model(6, &cfg, 1);
        let c = micco_workload::DataCharacteristics {
            vector_size: 16,
            tensor_bytes: 1e6,
            repeated_rate: 0.5,
            distribution_bias: 0.1,
        };
        let b = model.predict(&c);
        assert!(b.as_array().iter().all(|&v| v <= 8));
    }
}
