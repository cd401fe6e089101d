//! # adapt-mpi — the simulated MPI runtime
//!
//! A deterministic, event-driven stand-in for the Open MPI communication
//! engine the paper integrates with: ranks with per-CPU progress engines,
//! tag/source matching with an unexpected-message queue, eager and
//! rendezvous protocols, noise-preemptible callbacks, GPU streams, and
//! asynchronous staging copies.
//!
//! Algorithms are [`RankProgram`]s driven by [`Completion`] events — the
//! exact "completion of a non-blocking P2P routine is an event that
//! triggers a callback" model of the paper's §2.2, one level *below*
//! `MPI_Isend`/`MPI_Irecv`, which is why Waitall-free collectives can be
//! expressed here while the MPI-level API cannot.

pub mod analysis;
pub mod datatype;
mod matching;
pub mod payload;
pub mod program;
pub mod world;

pub use adapt_faults::{FaultPlan, RelConfig};
pub use adapt_sim::audit::{AuditReport, RankAudit};
pub use analysis::{busy_fractions, comm_matrix, finish_skew};
pub use datatype::{bytes_to_f64, combine, f64_to_bytes, DType, ReduceOp};
pub use payload::Payload;
pub use program::{Completion, Op, ProgramCtx, RankProgram, Tag, Token};
pub use world::{FailureDiagnosis, RunError, RunResult, StallDiagnosis, World, WorldStats};
