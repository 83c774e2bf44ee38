#![warn(missing_docs)]

//! # micco-cluster
//!
//! Multi-node extension of MICCO — the paper's stated future work
//! (Sec. VII: "we plan to extend the design of MICCO to a multi-node
//! cluster with GPUs … exploring further optimizations on both intra-node
//! and inter-node communications").
//!
//! A [`SimCluster`] is a set of `micco-gpusim` nodes joined by an
//! interconnect that is slower than intra-node links. Original (host-backed)
//! tensors are replicated on every node's host, so first touches cost a
//! local H2D anywhere; *intermediates* exist only where they were produced,
//! so consuming one on a different node pays D2H + network + H2D. That makes
//! producer-consumer locality the new scheduling currency, layered on top of
//! the intra-node reuse/balance trade-off.
//!
//! [`run_cluster_schedule`] drives a cluster scheduler over a stream on a
//! fresh [`SimCluster`] and returns its [`ClusterReport`]. That one pass is
//! what the `ext_cluster` exhibit, the CLI's `cluster` command and the
//! `multi_node` example run.
//!
//! Two cluster schedulers are provided:
//!
//! * [`FlatClusterScheduler`] — treats the cluster as one flat pool of GPUs
//!   and runs any single-node [`micco_core::Scheduler`] over it, oblivious
//!   to node boundaries (the natural baseline);
//! * [`HierarchicalScheduler`] — MICCO's idea applied twice: a node-level
//!   data-centric step (prefer the node already holding the pair's
//!   intermediates, gated by a node-level reuse bound) followed by the
//!   standard intra-node MICCO heuristic on the chosen node.

pub mod cluster;
pub mod hierarchical;

pub use cluster::{ClusterConfig, ClusterReport, NodeId, SimCluster};
pub use hierarchical::{
    run_cluster_schedule, ClusterScheduler, FlatClusterScheduler, HierarchicalScheduler,
};
