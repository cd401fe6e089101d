//! # adapt-collectives — baselines and the unified collective runner
//!
//! Every comparator of the paper's evaluation, implemented for real on the
//! simulated MPI runtime:
//!
//! - [`blocking`] — blocking P2P pipelined trees (Algorithm 1; the
//!   MPICH/MVAPICH-style design, maximal noise amplification);
//! - [`waitall`] — non-blocking + Waitall pipelined trees (Algorithm 2;
//!   Open MPI's `tuned` module, "OMPI-default");
//! - [`hier`] — multi-communicator hierarchical collectives (§3.1; the
//!   Intel-MPI "SHM-based" topo family) with per-level algorithms;
//! - [`exchange`] — scatter/allgather and reduce-scatter/gather composite
//!   algorithms (recursive doubling, ring, Rabenseifner);
//! - [`tuned`] — the decision function that picks algorithms by message
//!   size and communicator size, as the `tuned` module does;
//! - [`runner`] — the [`runner::Library`] presets mapping each of
//!   the paper's comparators to concrete implementations, the one run
//!   path ([`execute`] over a [`RunSpec`]), and the trial harness used by
//!   every figure.

pub mod blocking;
pub mod exchange;
pub mod hier;
pub mod runner;
pub mod tuned;
pub mod waitall;

use adapt_mpi::{DType, ReduceOp};
use bytes::Bytes;
use std::sync::Arc;

/// Real reduce inputs, shared by all reduce implementations.
#[derive(Clone)]
pub struct ReduceInputs {
    /// The operator.
    pub op: ReduceOp,
    /// Element type.
    pub dtype: DType,
    /// `contributions[r]` is rank `r`'s input vector.
    pub contributions: Arc<Vec<Bytes>>,
}

impl ReduceInputs {
    /// Sum of f64 vectors — the workload used throughout the tests.
    pub fn f64_sum(contributions: Vec<Bytes>) -> ReduceInputs {
        ReduceInputs {
            op: ReduceOp::Sum,
            dtype: DType::F64,
            contributions: Arc::new(contributions),
        }
    }
}

pub use blocking::{BlockingBcastSpec, BlockingReduceSpec};
pub use exchange::{AllgatherKind, RabenseifnerReduceSpec, ScatterAllgatherBcastSpec};
pub use hier::{HierBcastSpec, HierLevels, HierProgram, HierReduceSpec, PhasedProgram};
pub use runner::{
    execute, run_trial, CollectiveCase, Device, IntelAlg, Library, Noise, NoiseScope, OpKind,
    ProgramBuilder, Recording, RunSpec, Trial, TrialResult,
};
pub use waitall::{WaitallBcastSpec, WaitallReduceSpec};
