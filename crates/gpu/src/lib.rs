//! # adapt-gpu — GPU cluster support (paper §4)
//!
//! The paper's two GPU optimizations are data-path modes of the ADAPT
//! collectives in `adapt-core`, not separate engines:
//!
//! - **Explicit CPU staging buffer** (§4.1,
//!   `BcastSpec::staged_programs`): node leaders cache received segments
//!   in host memory and feed all their outgoing lanes from the cache,
//!   splitting NIC, flush, and neighbour traffic across different PCIe
//!   lanes instead of congesting one direction.
//! - **GPU-offloaded reduction** (§4.2, `ReduceExec::GpuAsync`): the
//!   fold executes asynchronously on the rank's GPU stream, overlapping
//!   with communication instead of blocking the progress engine.
//!
//! This crate keeps the Figure 11 presets: [`runner`] maps the
//! comparators (MVAPICH2, OMPI-default, OMPI-adapt) to concrete GPU data
//! paths.

pub mod runner;

pub use runner::{GpuCase, GpuLibrary};
