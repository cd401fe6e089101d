//! # adapt — an event-based adaptive collective communication framework
//!
//! A comprehensive Rust reproduction of *"ADAPT: An Event-Based Adaptive
//! Collective Communication Framework"* (Luo et al., HPDC 2018), built on a
//! deterministic flow-level cluster simulator.
//!
//! The paper's contribution lives inside Open MPI's communication engine,
//! below any public MPI API; this workspace therefore rebuilds the whole
//! stack — hardware topology, max-min-fair network, an MPI-like runtime
//! with eager/rendezvous protocols and noise-preemptible progress engines —
//! and implements ADAPT **and every comparator** as real programs on top of
//! it. See `DESIGN.md` for the substitution rationale and `EXPERIMENTS.md`
//! for paper-vs-measured results of every figure and table.
//!
//! ## Quick start
//!
//! ```
//! use adapt::prelude::*;
//! use std::sync::Arc;
//!
//! // A 4-node machine, 32 ranks, no noise.
//! let machine = profiles::minicluster(4, 2, 4);
//! let nranks = 32;
//!
//! // ADAPT broadcast of 1 MiB over the topology-aware tree.
//! let placement = Placement::block_cpu(machine.shape, nranks);
//! let tree = Arc::new(topology_aware_tree(&placement, TopoTreeConfig::default()));
//! let spec = BcastSpec {
//!     tree,
//!     msg_bytes: 1 << 20,
//!     cfg: AdaptConfig::default(),
//!     data: None,
//! };
//! let world = World::cpu(machine, nranks, ClusterNoise::silent(nranks));
//! let result = world.try_run(spec.programs()).unwrap();
//! println!("broadcast took {}", result.makespan);
//! assert!(result.makespan.as_nanos() > 0);
//! ```
//!
//! ## Crate map
//!
//! | Crate | Role |
//! |---|---|
//! | [`sim`] | deterministic discrete-event engine |
//! | [`topology`] | hwloc-like hardware model and machine profiles |
//! | [`net`] | flow-level max-min fair network |
//! | [`mpi`] | simulated MPI runtime (matching, protocols, progress engine) |
//! | [`obs`] | cross-layer tracing, time-series metrics, critical-path analysis |
//! | [`core`] | **the ADAPT framework** (event-driven bcast/reduce, trees) |
//! | [`collectives`] | baselines: blocking, Waitall, hierarchical, composite |
//! | [`noise`] | system-noise injection |
//! | [`faults`] | deterministic fault injection: loss, degradation, stalls |
//! | [`gpu`] | GPU substrate: staging buffers, stream-offloaded reduction |
//! | [`apps`] | ASP (parallel Floyd–Warshall) |

/// The discrete-event simulation engine.
pub use adapt_sim as sim;

/// Hardware topology model and machine profiles.
pub use adapt_topology as topology;

/// Flow-level network model.
pub use adapt_net as net;

/// Simulated MPI runtime.
pub use adapt_mpi as mpi;

/// Cross-layer observability: tracing, metrics, critical-path analysis.
pub use adapt_obs as obs;

/// The ADAPT event-driven collective framework (the paper's contribution).
pub use adapt_core as core;

/// Baseline collective implementations and the measurement runner.
pub use adapt_collectives as collectives;

/// System-noise injection.
pub use adapt_noise as noise;

/// Deterministic fault injection: lossy links, degradation windows, rank
/// stalls, and the reliability-layer configuration.
pub use adapt_faults as faults;

/// GPU cluster support.
pub use adapt_gpu as gpu;

/// Applications (ASP).
pub use adapt_apps as apps;

/// Everything a typical experiment needs, in one import.
pub mod prelude {
    pub use adapt_collectives::{
        execute, run_trial, CollectiveCase, IntelAlg, Library, OpKind, RunSpec, Trial,
    };
    pub use adapt_core::{
        topology_aware_tree, topology_aware_tree_rooted, AdaptConfig, AllgatherSpec, AllreduceSpec,
        AlltoallSpec, BarrierSpec, BcastSpec, GatherSpec, ReduceData, ReduceExec, ReduceSpec,
        ScanSpec, ScatterSpec, TopoTreeConfig, Tree, TreeKind,
    };
    pub use adapt_faults::FaultPlan;
    pub use adapt_gpu::{GpuBcastSpec, GpuCase, GpuLibrary};
    pub use adapt_mpi::{AuditReport, Completion, Payload, ProgramCtx, RankProgram, Token, World};
    pub use adapt_noise::{ClusterNoise, NoiseSpec};
    pub use adapt_sim::rng::MasterSeed;
    pub use adapt_sim::time::{Duration, Time};
    pub use adapt_topology::{profiles, ClusterShape, MachineSpec, Placement};
}
