//! GPU collectives: broadcast and reduce across a simulated multi-GPU
//! cluster (PSG-like: 4 K40s per node behind per-socket PCIe switches),
//! including the §4.1 explicit-CPU-staging ablation and the §4.2
//! GPU-offloaded reduction — the experiments behind Figure 11.
//!
//! ```text
//! cargo run --release --example gpu_broadcast
//! ```

use adapt::core::{topology_aware_tree, AdaptConfig, TopoTreeConfig};
use adapt::mpi::RunError;
use adapt::prelude::*;
use std::process::ExitCode;
use std::sync::Arc;

fn main() -> ExitCode {
    match run() {
        Ok(()) => ExitCode::SUCCESS,
        Err(e) => {
            eprintln!("gpu_broadcast: {e}");
            ExitCode::FAILURE
        }
    }
}

fn run() -> Result<(), Box<RunError>> {
    let nodes = 4;
    let machine = profiles::psg(nodes);
    let nranks = machine.gpu_job_size();
    let msg = 32 << 20;

    println!(
        "GPU cluster: {nodes} nodes x 4 K40 = {nranks} GPUs, message {} MiB\n",
        msg >> 20
    );

    // --- Figure 11a: libraries compared ------------------------------
    println!("Broadcast:");
    for library in [
        GpuLibrary::OmpiAdapt,
        GpuLibrary::Mvapich,
        GpuLibrary::OmpiDefault,
    ] {
        let case = GpuCase {
            machine: machine.clone(),
            nranks,
            op: OpKind::Bcast,
            library,
            msg_bytes: msg,
        };
        let res = execute(&case.spec())?;
        println!(
            "  {:<14} {:>10.1} us",
            library.label(),
            res.makespan.as_micros_f64()
        );
    }
    println!("Reduce:");
    for library in [
        GpuLibrary::OmpiAdapt,
        GpuLibrary::Mvapich,
        GpuLibrary::OmpiDefault,
    ] {
        let case = GpuCase {
            machine: machine.clone(),
            nranks,
            op: OpKind::Reduce,
            library,
            msg_bytes: msg,
        };
        let res = execute(&case.spec())?;
        println!(
            "  {:<14} {:>10.1} us",
            library.label(),
            res.makespan.as_micros_f64()
        );
    }

    // --- §4.1 ablation: explicit CPU staging buffer ------------------
    let placement = Placement::block_gpu(machine.shape, nranks);
    let tree = Arc::new(topology_aware_tree(&placement, TopoTreeConfig::default()));
    let run_staging = |staging: bool| {
        let spec = GpuBcastSpec {
            placement: placement.clone(),
            tree: tree.clone(),
            msg_bytes: msg,
            cfg: AdaptConfig::default(),
            staging,
        };
        let world = World::gpu(machine.clone(), nranks, ClusterNoise::silent(nranks));
        Ok::<_, Box<RunError>>(world.try_run(spec.programs())?.makespan.as_micros_f64())
    };
    let with = run_staging(true)?;
    let without = run_staging(false)?;
    println!("\nExplicit CPU staging buffer (ADAPT broadcast):");
    println!("  with staging    {with:>10.1} us");
    println!(
        "  without staging {without:>10.1} us   ({:.2}x slower)",
        without / with
    );
    println!(
        "\nWithout staging the node leader pulls the same segment out of \n\
         GPU memory once per outgoing lane, so NIC, inter-socket, and \n\
         neighbour traffic share one PCIe direction at a third of its \n\
         bandwidth each (Figure 6). The staged leader reads once, then \n\
         feeds every lane from host memory while flushing its own GPU \n\
         copy asynchronously."
    );
    Ok(())
}
