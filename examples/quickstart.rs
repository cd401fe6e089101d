//! Quickstart: broadcast 4 MiB over 64 simulated ranks with ADAPT and the
//! classic baselines, and see who wins and why.
//!
//! ```text
//! cargo run --release --example quickstart
//! ```

use adapt::prelude::*;

fn main() {
    // A small cluster: 4 nodes x 2 sockets x 8 cores.
    let machine = profiles::minicluster(4, 2, 8);
    let nranks = machine.cpu_job_size();
    let msg = 4 << 20;

    println!("Machine: {} nodes, {} ranks", machine.shape.nodes, nranks);
    println!("Broadcast of {} MiB:\n", msg >> 20);

    let libraries = [
        Library::OmpiAdapt,
        Library::OmpiDefaultTopo,
        Library::OmpiDefault,
        Library::IntelMpi,
        Library::Mvapich,
    ];

    let mut results: Vec<(String, f64)> = libraries
        .iter()
        .map(|&library| {
            let case = CollectiveCase {
                machine: machine.clone(),
                nranks,
                op: OpKind::Bcast,
                library,
                msg_bytes: msg,
            };
            let res = execute(&case.spec()).expect("a plain run completes audit-clean");
            (library.label(), res.makespan.as_micros_f64())
        })
        .collect();

    results.sort_by(|a, b| a.1.total_cmp(&b.1));
    let best = results[0].1;
    println!("{:<20} {:>12}  {:>8}", "library", "time (us)", "vs best");
    for (label, us) in &results {
        println!("{label:<20} {us:>12.1}  {:>7.2}x", us / best);
    }

    println!(
        "\nADAPT relaxes every synchronization dependency: each child's \n\
         pipeline and each segment progress independently, so the chain of \n\
         heterogeneous lanes (shm / inter-socket / NIC) runs at full speed."
    );
}
