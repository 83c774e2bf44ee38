#![warn(missing_docs)]

//! # micco-workload
//!
//! Workload vocabulary and synthetic generators for MICCO.
//!
//! A many-body correlation calculation reaches the scheduler as a stream of
//! *vectors* (the paper's stages, Fig. 1): each vector is a list of
//! independent *tensor pairs*, and each pair is one hadron contraction to be
//! placed on some GPU. This crate defines those types —
//! [`TensorDesc`], [`ContractionTask`], [`Vector`], [`TensorPairStream`] —
//! plus:
//!
//! * [`WorkloadSpec`]: the synthetic generator used throughout the paper's
//!   evaluation (Sec. V-A), parameterised by vector size, tensor size,
//!   repeated rate, and the Uniform/Gaussian repeated-data distribution;
//! * [`DataCharacteristics`]: the per-vector features fed to the regression
//!   model (Table I);
//! * [`TensorInterner`]: sparse tensor ids → dense `u32` symbols, so
//!   planners can keep per-tensor state in flat vectors instead of maps.

pub mod characteristics;
pub mod generator;
pub mod intern;
pub mod serialize;
pub mod stats;
pub mod task;
mod xxh64;

pub use characteristics::DataCharacteristics;
pub use generator::{RepeatDistribution, WorkloadSpec};
pub use intern::{FastIdHasher, FastIdMap, FastIdSet, TensorInterner, TensorSym};
pub use serialize::{from_text, to_text, StreamFormatError};
pub use stats::StreamStats;
pub use task::{ContractionTask, TaskId, TensorDesc, TensorId, TensorPairStream, Vector};
