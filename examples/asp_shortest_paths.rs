//! ASP: the all-pairs-shortest-path application of §5.3 (Table 1).
//!
//! Runs the parallel Floyd–Warshall communication schedule (one pivot-row
//! broadcast per outer iteration, rotating roots) under four libraries and
//! reports total vs communication time — then numerically verifies the
//! distributed algorithm against a sequential solve.
//!
//! ```text
//! cargo run --release --example asp_shortest_paths
//! ```

use adapt::apps::{run_asp, verify_distributed_fw, AspConfig};
use adapt::mpi::RunError;
use adapt::prelude::*;
use std::process::ExitCode;

fn main() -> ExitCode {
    match run() {
        Ok(()) => ExitCode::SUCCESS,
        Err(e) => {
            eprintln!("asp_shortest_paths: {e}");
            ExitCode::FAILURE
        }
    }
}

fn run() -> Result<(), Box<RunError>> {
    let machine = profiles::minicluster(4, 2, 8);
    let nranks = machine.cpu_job_size();

    println!(
        "ASP on {nranks} ranks: 1 MiB pivot-row broadcast per iteration, \n\
         40 iterations, 50 us of local relaxation per iteration.\n"
    );
    println!(
        "{:<16} {:>14} {:>18} {:>8}",
        "library", "total (ms)", "communication (ms)", "comm %"
    );

    for library in [
        Library::OmpiAdapt,
        Library::CrayMpi,
        Library::IntelMpi,
        Library::OmpiDefault,
    ] {
        let cfg = AspConfig {
            machine: machine.clone(),
            nranks,
            library,
            row_bytes: 1 << 20,
            iterations: 40,
            compute_per_iter: Duration::from_micros(50),
        };
        let r = run_asp(&cfg)?;
        println!(
            "{:<16} {:>12.2}ms {:>16.2}ms {:>7.0}%",
            library.label(),
            r.total_s * 1e3,
            r.communication_s * 1e3,
            r.comm_fraction() * 100.0
        );
    }

    // Numeric verification at small scale: the distributed Floyd-Warshall
    // must match the sequential solve exactly.
    let dev = verify_distributed_fw(8, 32, 2024)?;
    println!("\nDistributed Floyd-Warshall vs sequential: max deviation = {dev}");
    assert_eq!(dev, 0.0, "distributed result must be exact");
    println!("verified: distributed result is exact.");
    Ok(())
}
