//! Figure 11: broadcast and reduce with GPU data on the PSG-like cluster.
//!
//! - `--mode sweep` (11a): message sizes 1–32 MB on 8 nodes (32 GPUs);
//! - `--mode scaling` (11b): 1–8 nodes at 32 MB.
//! - default: both.
//!
//! ```text
//! cargo run --release -p adapt-bench --bin fig11 [-- --mode sweep|scaling]
//! ```

use adapt_bench::{parse_args, print_table, try_par_grid};
use adapt_collectives::{execute, OpKind};
use adapt_gpu::{GpuCase, GpuLibrary};
use adapt_topology::profiles;
use std::process::ExitCode;

const LIBS: [GpuLibrary; 3] = [
    GpuLibrary::Mvapich,
    GpuLibrary::OmpiDefault,
    GpuLibrary::OmpiAdapt,
];

fn sweep() -> Result<(), String> {
    let sizes: Vec<u64> = [1u64, 2, 4, 8, 16, 32].iter().map(|m| m << 20).collect();
    for op in [OpKind::Bcast, OpKind::Reduce] {
        let cells = try_par_grid(&LIBS, &sizes, |&library, &msg_bytes| {
            let machine = profiles::psg(8);
            let case = GpuCase {
                nranks: machine.gpu_job_size(),
                machine,
                op,
                library,
                msg_bytes,
            };
            execute(&case.spec())
                .map(|r| r.makespan.as_micros_f64() / 1000.0)
                .map_err(|e| format!("{} {}MB: {e}", library.label(), msg_bytes >> 20))
        })?;
        let header: Vec<String> = sizes.iter().map(|s| format!("{}MB", s >> 20)).collect();
        let rows: Vec<(String, Vec<String>)> = LIBS
            .iter()
            .zip(&cells)
            .map(|(lib, t)| {
                (
                    lib.label().to_string(),
                    t.iter().map(|x| format!("{x:.3}ms")).collect(),
                )
            })
            .collect();
        print_table(
            &format!(
                "Figure 11a: GPU {} vs message size, 8 nodes / 32 GPUs",
                match op {
                    OpKind::Bcast => "Broadcast",
                    OpKind::Reduce => "Reduce",
                }
            ),
            &header,
            &rows,
        );
        let adapt = cells[2].last().unwrap();
        println!(
            "speedup of OMPI-adapt at 32MB: {:.1}x vs MVAPICH, {:.1}x vs OMPI-default",
            cells[0].last().unwrap() / adapt,
            cells[1].last().unwrap() / adapt
        );
    }
    Ok(())
}

fn scaling() -> Result<(), String> {
    let node_counts = [1u32, 2, 4, 8];
    for op in [OpKind::Bcast, OpKind::Reduce] {
        let cells = try_par_grid(&LIBS, &node_counts, |&library, &nodes| {
            let machine = profiles::psg(nodes);
            let case = GpuCase {
                nranks: machine.gpu_job_size(),
                machine,
                op,
                library,
                msg_bytes: 32 << 20,
            };
            execute(&case.spec())
                .map(|r| r.makespan.as_micros_f64() / 1000.0)
                .map_err(|e| format!("{} 32MB on {nodes} nodes: {e}", library.label()))
        })?;
        let header: Vec<String> = node_counts
            .iter()
            .map(|n| format!("{}:{}", n, n * 4))
            .collect();
        let rows: Vec<(String, Vec<String>)> = LIBS
            .iter()
            .zip(&cells)
            .map(|(lib, t)| {
                (
                    lib.label().to_string(),
                    t.iter().map(|x| format!("{x:.3}ms")).collect(),
                )
            })
            .collect();
        print_table(
            &format!(
                "Figure 11b: GPU {} strong scaling (nodes:GPUs), 32MB",
                match op {
                    OpKind::Bcast => "Broadcast",
                    OpKind::Reduce => "Reduce",
                }
            ),
            &header,
            &rows,
        );
    }
    Ok(())
}

fn main() -> ExitCode {
    let args = parse_args();
    let run = match args.get("mode").map(String::as_str) {
        Some("sweep") => sweep(),
        Some("scaling") => scaling(),
        _ => sweep().and_then(|()| scaling()),
    };
    match run {
        Ok(()) => ExitCode::SUCCESS,
        Err(e) => {
            eprintln!("fig11: {e}");
            ExitCode::FAILURE
        }
    }
}
