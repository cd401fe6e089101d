//! # adapt-gpu — GPU cluster support (paper §4)
//!
//! The two GPU optimizations of the paper on the simulated PCIe/NIC
//! substrate:
//!
//! - **Explicit CPU staging buffer** (§4.1, [`GpuBcastSpec`]): node leaders
//!   cache received segments in host memory and feed all their outgoing
//!   lanes from the cache, splitting NIC, flush, and neighbour traffic
//!   across different PCIe lanes instead of congesting one direction.
//! - **GPU-offloaded reduction** (§4.2): the fold executes asynchronously
//!   on the rank's GPU stream (`ReduceExec::GpuAsync` in `adapt-core`),
//!   overlapping with communication instead of blocking the progress
//!   engine.
//!
//! [`runner`] maps the Figure 11 comparators (MVAPICH2, OMPI-default,
//! OMPI-adapt) to concrete GPU data paths.

pub mod bcast;
pub mod runner;

pub use bcast::{GpuAdaptBcast, GpuBcastSpec};
pub use runner::{GpuCase, GpuLibrary};
