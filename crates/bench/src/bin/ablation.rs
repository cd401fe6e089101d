//! Ablations of ADAPT's design choices:
//!
//! - `--study m_over_n`: the §2.2.1 rule that the receive window `M` must
//!   exceed the send window `N`, measured through the unexpected-message
//!   count and its latency cost;
//! - `--study staging`: the §4.1 explicit CPU staging buffer on the GPU
//!   broadcast;
//! - `--study gpu_reduce`: the §4.2 GPU-offloaded asynchronous fold vs a
//!   CPU fold on the same tree;
//! - `--study seg_size`: pipeline segment-size sensitivity (the §5.2.1
//!   "perfect pipeline" criteria);
//! - `--study nvlink`: the same GPU broadcast on K40-era PCIe peers vs a
//!   V100-era NVLink cluster (post-paper hardware sensitivity).
//!
//! Default: all studies.
//!
//! ```text
//! cargo run --release -p adapt-bench --bin ablation [-- --study m_over_n]
//! ```

use adapt_bench::{parse_args, print_table};
use adapt_core::{
    topology_aware_tree, AdaptConfig, BcastSpec, ReduceData, ReduceExec, ReduceSpec, TopoTreeConfig,
};
use adapt_gpu::GpuBcastSpec;
use adapt_mpi::{RunError, World};
use adapt_noise::ClusterNoise;
use adapt_topology::{profiles, Placement};
use std::process::ExitCode;
use std::sync::Arc;

fn run_bcast_cfg(cfg: AdaptConfig) -> Result<(f64, u64), Box<RunError>> {
    let machine = profiles::cori(8);
    let nranks = machine.cpu_job_size();
    let placement = Placement::block_cpu(machine.shape, nranks);
    let tree = Arc::new(topology_aware_tree(&placement, TopoTreeConfig::default()));
    let spec = BcastSpec {
        tree,
        msg_bytes: 4 << 20,
        cfg,
        data: None,
    };
    let world = World::cpu(machine, nranks, ClusterNoise::silent(nranks));
    let res = world.try_run(spec.programs())?;
    Ok((
        res.makespan.as_micros_f64() / 1000.0,
        res.stats.unexpected_matches,
    ))
}

fn study_m_over_n() -> Result<(), Box<RunError>> {
    // The unexpected-message hazard is an *eager* phenomenon: an eager
    // segment that lands before its receive is posted is buffered and
    // later copied out (rendezvous segments just wait at the RTS). Use
    // eager-sized segments (8 KB = the Cori profile's eager limit).
    let n = 8u32;
    let rows: Vec<(String, Vec<String>)> = [2u32, 4, 8, 12, 16]
        .iter()
        .map(|&m| {
            let (ms, unexpected) = run_bcast_cfg(
                AdaptConfig::default()
                    .with_seg_size(8 * 1024)
                    .with_outstanding(n, m),
            )?;
            Ok((
                format!("N={n}, M={m}{}", if m > n { "  (M>N)" } else { "" }),
                vec![format!("{ms:.3}ms"), format!("{unexpected}")],
            ))
        })
        .collect::<Result<_, Box<RunError>>>()?;
    print_table(
        "Ablation: receive window depth M vs send window N (4MB bcast, eager 8K segments, 256 ranks)",
        &["time".to_string(), "unexpected msgs".to_string()],
        &rows,
    );
    println!(
        "Deeper receive windows keep more eager arrivals matched (the paper's\n\
         M > N rule 'minimizes the chance of unexpected segments'); segments\n\
         above the eager limit avoid the copy entirely via rendezvous, which\n\
         is why ADAPT's defaults use rendezvous-sized segments."
    );
    Ok(())
}

fn study_staging() -> Result<(), Box<RunError>> {
    let machine = profiles::psg(8);
    let nranks = machine.gpu_job_size();
    let placement = Placement::block_gpu(machine.shape, nranks);
    let tree = Arc::new(topology_aware_tree(&placement, TopoTreeConfig::default()));
    let rows: Vec<(String, Vec<String>)> = [true, false]
        .iter()
        .map(|&staging| {
            let spec = GpuBcastSpec {
                placement: placement.clone(),
                tree: tree.clone(),
                msg_bytes: 32 << 20,
                cfg: AdaptConfig::default(),
                staging,
            };
            let world = World::gpu(machine.clone(), nranks, ClusterNoise::silent(nranks));
            let res = world.try_run(spec.programs())?;
            Ok((
                if staging {
                    "explicit CPU staging (Fig 6c)".to_string()
                } else {
                    "direct device paths (Fig 6a)".to_string()
                },
                vec![format!("{:.3}ms", res.makespan.as_micros_f64() / 1000.0)],
            ))
        })
        .collect::<Result<_, Box<RunError>>>()?;
    print_table(
        "Ablation: §4.1 node-leader staging buffer (32MB GPU bcast, 32 GPUs)",
        &["time".to_string()],
        &rows,
    );
    Ok(())
}

fn study_gpu_reduce() -> Result<(), Box<RunError>> {
    let machine = profiles::psg(8);
    let nranks = machine.gpu_job_size();
    let placement = Placement::block_gpu(machine.shape, nranks);
    let tree = Arc::new(topology_aware_tree(&placement, TopoTreeConfig::default()));
    let rows: Vec<(String, Vec<String>)> = [
        (ReduceExec::Cpu, "CPU fold (blocks progress engine)"),
        (ReduceExec::GpuAsync, "GPU stream fold (§4.2, overlapped)"),
    ]
    .iter()
    .map(|&(exec, label)| {
        let spec = ReduceSpec {
            tree: tree.clone(),
            msg_bytes: 32 << 20,
            cfg: AdaptConfig::default(),
            data: ReduceData::Synthetic,
            exec,
        };
        let world = World::gpu(machine.clone(), nranks, ClusterNoise::silent(nranks));
        let res = world.try_run(spec.programs())?;
        Ok((
            label.to_string(),
            vec![format!("{:.3}ms", res.makespan.as_micros_f64() / 1000.0)],
        ))
    })
    .collect::<Result<_, Box<RunError>>>()?;
    print_table(
        "Ablation: §4.2 reduction offload (32MB GPU reduce, 32 GPUs)",
        &["time".to_string()],
        &rows,
    );
    Ok(())
}

fn study_seg_size() -> Result<(), Box<RunError>> {
    let rows: Vec<(String, Vec<String>)> = [8u64, 16, 32, 64, 128, 256, 512, 4096]
        .iter()
        .map(|&kb| {
            let (ms, _) = run_bcast_cfg(AdaptConfig::default().with_seg_size(kb * 1024))?;
            Ok((format!("seg {kb}K"), vec![format!("{ms:.3}ms")]))
        })
        .collect::<Result<_, Box<RunError>>>()?;
    print_table(
        "Ablation: pipeline segment size (4MB bcast, 256 ranks)",
        &["time".to_string()],
        &rows,
    );
    println!(
        "Small segments pay per-message latency; one giant segment cannot \n\
         pipeline (the §5.2.1 'perfect pipeline' criteria)."
    );
    Ok(())
}

fn study_nvlink() -> Result<(), Box<RunError>> {
    let rows: Vec<(String, Vec<String>)> = [
        ("PSG (K40, PCIe peers)", profiles::psg(4)),
        ("NVLink cluster (V100)", profiles::nvlink_cluster(4)),
    ]
    .into_iter()
    .map(|(label, machine)| {
        let nranks = machine.gpu_job_size();
        let placement = Placement::block_gpu(machine.shape, nranks);
        let tree = Arc::new(topology_aware_tree(&placement, TopoTreeConfig::default()));
        let spec = GpuBcastSpec {
            placement,
            tree,
            msg_bytes: 32 << 20,
            cfg: AdaptConfig::default(),
            staging: true,
        };
        let world = World::gpu(machine, nranks, ClusterNoise::silent(nranks));
        let res = world.try_run(spec.programs())?;
        Ok((
            label.to_string(),
            vec![format!("{:.3}ms", res.makespan.as_micros_f64() / 1000.0)],
        ))
    })
    .collect::<Result<_, Box<RunError>>>()?;
    print_table(
        "Sensitivity: NVLink peers vs PCIe peers (32MB ADAPT GPU bcast, 16 GPUs)",
        &["time".to_string()],
        &rows,
    );
    Ok(())
}

fn main() -> ExitCode {
    let args = parse_args();
    let done = match args.get("study").map(String::as_str) {
        Some("m_over_n") => study_m_over_n(),
        Some("staging") => study_staging(),
        Some("gpu_reduce") => study_gpu_reduce(),
        Some("seg_size") => study_seg_size(),
        Some("nvlink") => study_nvlink(),
        _ => study_m_over_n()
            .and_then(|()| study_staging())
            .and_then(|()| study_gpu_reduce())
            .and_then(|()| study_seg_size())
            .and_then(|()| study_nvlink()),
    };
    match done {
        Ok(()) => ExitCode::SUCCESS,
        Err(e) => {
            eprintln!("ablation: {e}");
            ExitCode::FAILURE
        }
    }
}
