//! GPU library presets and measurement harness (paper Figure 11).
//!
//! ### Comparator emulation
//!
//! | Paper series | Emulation |
//! |---|---|
//! | OMPI-adapt | Event-driven engine + topology-aware tree + explicit CPU staging (§4.1) + GPU-stream reduction (§4.2) |
//! | MVAPICH | Waitall engine over the topology-aware tree (GPU-aware pairwise paths, no staging, no level overlap); CPU-executed reduction |
//! | OMPI-default | Waitall engine with the `tuned` decision — which was not designed for GPUs and picks a non-chain tree (§5.2.2); CPU-executed reduction |

use adapt_collectives::{tuned, Device, RunSpec, WaitallBcastSpec, WaitallReduceSpec};
use adapt_core::{
    topology_aware_tree, AdaptConfig, BcastSpec, ReduceData, ReduceExec, ReduceSpec,
    TopoTreeConfig, Tree,
};
use adapt_mpi::RankProgram;
use adapt_topology::{MachineSpec, Placement};
use std::sync::Arc;

/// GPU-data collective libraries compared in Figure 11.
#[derive(Clone, Copy, Debug, PartialEq, Eq, Hash)]
pub enum GpuLibrary {
    /// ADAPT with both GPU optimizations.
    OmpiAdapt,
    /// MVAPICH2 emulation.
    Mvapich,
    /// Open MPI default (tuned) emulation.
    OmpiDefault,
}

impl GpuLibrary {
    /// Display label matching the paper's figure legends.
    pub fn label(&self) -> &'static str {
        match self {
            GpuLibrary::OmpiAdapt => "OMPI-adapt",
            GpuLibrary::Mvapich => "MVAPICH",
            GpuLibrary::OmpiDefault => "OMPI-default",
        }
    }
}

/// One GPU collective configuration.
#[derive(Clone)]
pub struct GpuCase {
    /// GPU machine profile (PSG-like).
    pub machine: MachineSpec,
    /// Ranks (one per GPU).
    pub nranks: u32,
    /// The operation.
    pub op: adapt_collectives::OpKind,
    /// The library preset.
    pub library: GpuLibrary,
    /// Message size in bytes.
    pub msg_bytes: u64,
}

impl GpuCase {
    fn placement(&self) -> Placement {
        Placement::block_gpu(self.machine.shape, self.nranks)
    }

    fn topo_tree(&self) -> Arc<Tree> {
        Arc::new(topology_aware_tree(
            &self.placement(),
            TopoTreeConfig::default(),
        ))
    }

    /// A plain run of this case: one rank per GPU, silent, nothing
    /// attached.
    pub fn spec(&self) -> RunSpec {
        let case = self.clone();
        RunSpec {
            device: Device::Gpu,
            ..RunSpec::new(
                self.machine.clone(),
                self.nranks,
                Arc::new(move || case.programs()),
            )
        }
    }

    /// Build the per-rank programs (synthetic payloads).
    pub fn programs(&self) -> Vec<Box<dyn RankProgram>> {
        use adapt_collectives::OpKind;
        let msg = self.msg_bytes;
        match (self.op, self.library) {
            (OpKind::Bcast, GpuLibrary::OmpiAdapt) => BcastSpec {
                tree: self.topo_tree(),
                msg_bytes: msg,
                cfg: AdaptConfig::default(),
                data: None,
            }
            .staged_programs(&self.placement()),
            (OpKind::Bcast, GpuLibrary::Mvapich) => WaitallBcastSpec {
                tree: self.topo_tree(),
                msg_bytes: msg,
                seg_size: 256 * 1024,
                data: None,
            }
            .programs(),
            (OpKind::Bcast, GpuLibrary::OmpiDefault) => {
                let d = tuned::bcast(self.nranks, msg);
                WaitallBcastSpec {
                    tree: Arc::new(Tree::build(d.tree, self.nranks, 0)),
                    msg_bytes: msg,
                    seg_size: d.seg_size,
                    data: None,
                }
                .programs()
            }
            (OpKind::Reduce, GpuLibrary::OmpiAdapt) => ReduceSpec {
                tree: self.topo_tree(),
                msg_bytes: msg,
                cfg: AdaptConfig::default(),
                data: ReduceData::Synthetic,
                exec: ReduceExec::GpuAsync,
            }
            .programs(),
            (OpKind::Reduce, GpuLibrary::Mvapich) => WaitallReduceSpec {
                tree: self.topo_tree(),
                msg_bytes: msg,
                seg_size: 256 * 1024,
                data: None,
            }
            .programs(),
            (OpKind::Reduce, GpuLibrary::OmpiDefault) => {
                let d = tuned::reduce(self.nranks, msg);
                WaitallReduceSpec {
                    tree: Arc::new(Tree::build(d.tree, self.nranks, 0)),
                    msg_bytes: msg,
                    seg_size: d.seg_size,
                    data: None,
                }
                .programs()
            }
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use adapt_collectives::{execute, OpKind};
    use adapt_topology::profiles;

    fn case(lib: GpuLibrary, op: OpKind, nodes: u32, msg: u64) -> GpuCase {
        let machine = profiles::psg(nodes);
        GpuCase {
            nranks: machine.gpu_job_size(),
            machine,
            op,
            library: lib,
            msg_bytes: msg,
        }
    }

    /// Completion time (µs) of a plain run of `case`.
    fn run_us(case: &GpuCase) -> f64 {
        execute(&case.spec()).unwrap().makespan.as_micros_f64()
    }

    #[test]
    fn all_gpu_libraries_run() {
        for lib in [
            GpuLibrary::OmpiAdapt,
            GpuLibrary::Mvapich,
            GpuLibrary::OmpiDefault,
        ] {
            for op in [OpKind::Bcast, OpKind::Reduce] {
                let us = run_us(&case(lib, op, 2, 4 << 20));
                assert!(us > 0.0, "{} {:?}", lib.label(), op);
            }
        }
    }

    #[test]
    fn adapt_wins_gpu_broadcast() {
        let msg = 32 << 20;
        let adapt = run_us(&case(GpuLibrary::OmpiAdapt, OpKind::Bcast, 4, msg));
        for lib in [GpuLibrary::Mvapich, GpuLibrary::OmpiDefault] {
            let other = run_us(&case(lib, OpKind::Bcast, 4, msg));
            assert!(
                adapt < other,
                "adapt {adapt:.0}us vs {} {other:.0}us",
                lib.label()
            );
        }
    }

    #[test]
    fn adapt_gpu_scaling_is_nearly_flat() {
        // Figure 11b: ADAPT's GPU broadcast time barely grows from 1 to 4
        // nodes, while OMPI-default's (wrong tree, no staging) does.
        let t = |lib: GpuLibrary, nodes: u32| run_us(&case(lib, OpKind::Bcast, nodes, 32 << 20));
        let adapt_growth = t(GpuLibrary::OmpiAdapt, 4) / t(GpuLibrary::OmpiAdapt, 1);
        let default_growth = t(GpuLibrary::OmpiDefault, 4) / t(GpuLibrary::OmpiDefault, 1);
        assert!(adapt_growth < 1.5, "adapt growth {adapt_growth:.2}x");
        assert!(
            default_growth > adapt_growth,
            "default {default_growth:.2}x vs adapt {adapt_growth:.2}x"
        );
    }

    #[test]
    fn adapt_gpu_reduce_is_much_faster() {
        // Figure 11a: the GPU-offloaded, overlapped reduction wins by a
        // large factor over CPU-executed folds.
        let msg = 32 << 20;
        let adapt = run_us(&case(GpuLibrary::OmpiAdapt, OpKind::Reduce, 4, msg));
        let mvapich = run_us(&case(GpuLibrary::Mvapich, OpKind::Reduce, 4, msg));
        assert!(
            adapt * 3.0 < mvapich,
            "expected ≥3x win, got adapt={adapt:.0}us mvapich={mvapich:.0}us"
        );
    }
}
