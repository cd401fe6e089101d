//! # adapt-core — the ADAPT event-driven collective framework
//!
//! The paper's primary contribution, reproduced over the simulated MPI
//! runtime: collective operations expressed as events and callbacks with
//! **no Wait/Waitall anywhere**. Completion of a low-level non-blocking
//! operation triggers the posting of the next data movements; only the
//! minimal *data* dependencies of the collective remain (a segment must
//! arrive before it is forwarded / folded), while every *synchronization*
//! dependency of the blocking and Waitall designs is relaxed (§2.2).
//!
//! Key pieces:
//! - [`Tree`] / [`topology_aware_tree`]: pluggable communication trees,
//!   including the multi-level single-communicator tree of §3.2;
//! - [`BcastSpec`] / [`AdaptBcast`]: pipelined broadcast with per-child
//!   independent windows (`N` outstanding sends per child, `M ≥ N`
//!   outstanding receives), on CPU ranks or on GPU ranks with the
//!   explicit CPU staging buffer of §4.1 ([`BcastSpec::staged_programs`]);
//! - [`ReduceSpec`] / [`AdaptReduce`]: pipelined reduce with per-segment
//!   independent upward flow and CPU- or GPU-stream-executed folds (§4.2).

pub mod allreduce;
pub mod alltoall;
pub mod barrier;
pub mod bcast;
pub mod config;
pub mod gather;
pub mod reduce;
pub mod scan;
pub mod scatter;
pub mod segments;
pub mod tree;

pub use allreduce::{AdaptAllreduce, AllreduceSpec};
pub use alltoall::{AdaptAlltoall, AlltoallSpec};
pub use barrier::{AdaptAllgather, AdaptBarrier, AllgatherSpec, BarrierSpec};
pub use bcast::{AdaptBcast, BcastSpec};
pub use config::AdaptConfig;
pub use gather::{AdaptGather, GatherSpec};
pub use reduce::{AdaptReduce, ReduceData, ReduceExec, ReduceSpec};
pub use scan::{AdaptScan, ScanSpec};
pub use scatter::{AdaptScatter, ScatterSpec};
pub use segments::{binomial_subtree, BlockPartition, Segments};
pub use tree::{topology_aware_tree, topology_aware_tree_rooted, TopoTreeConfig, Tree, TreeKind};
