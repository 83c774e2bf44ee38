#![warn(missing_docs)]

//! # micco-gpusim
//!
//! A deterministic discrete-event simulator of a multi-GPU node — the
//! device substrate for the MICCO reproduction.
//!
//! The paper evaluates on 8× AMD MI100 (32 GB each) attached to one EPYC
//! host. No GPUs are available here, so this crate models exactly the costs
//! the scheduler's decisions control:
//!
//! * **kernel computation** — `flops / device_gflops` per contraction;
//! * **memory allocation** — a fixed latency plus a per-byte charge;
//! * **data communication** — host→device and device→device transfers with
//!   bandwidth + latency;
//! * **memory eviction** — when an allocation oversubscribes device memory,
//!   victims are chosen (LRU by default) and charged; device-created data
//!   (intermediate outputs) pays a write-back to the host, and a tensor
//!   evicted earlier must be re-fetched if used again.
//!
//! Each GPU executes its assigned contractions serially on its own timeline;
//! stage vectors are separated by a barrier (stages are sequential in the
//! application, Fig. 1 of the paper). Everything is deterministic, so every
//! experiment in `micco-bench` is exactly reproducible.
//!
//! The scheduler sees the machine through [`MachineView`]: residency of
//! tensors per device, per-device memory occupancy and compute load —
//! the paper's `mapGPUTensor` / `mapGPUCom` / `mapGPUMem` structures.
//!
//! [`SimMachine`] is the one machine: planning, plan replay, and the plan
//! linter's and certifier's replays all step its transition function, which
//! counts [`ExecStats`] and reports every effect to an [`ExecObserver`].

pub mod cost;
pub mod fault;
pub mod machine;
pub mod memory;
mod residency;
pub mod stats;
pub mod topology;

pub use cost::{CostModel, MachineConfig};
pub use fault::{FaultKind, FaultPlan};
pub use machine::{ExecError, ExecObserver, GpuId, MachineView, NullObserver, SimMachine};
pub use memory::{AllocError, DeviceMemory, Evicted, EvictionPolicy, Provenance};
pub use stats::{ExecStats, GpuStats};
pub use topology::{Link, LinkClass, LinkSpec, LinkTopology};
