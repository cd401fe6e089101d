//! Figure 10: strong scaling of broadcast and reduce with CPU data on
//! Cori — 128 to 1024 ranks (8 to 32 nodes), 4 MB messages. ADAPT's chain
//! cost is ~independent of rank count (Hockney: `T ≈ ns(α + βm)` once the
//! pipeline is full), so its curve should stay flat.
//!
//! ```text
//! cargo run --release -p adapt-bench --bin fig10 [--scale quick]
//! ```

use adapt_bench::{parse_args, print_table, try_par_grid, Scale};
use adapt_collectives::{execute, CollectiveCase, Library, OpKind};
use adapt_topology::profiles;
use std::process::ExitCode;

fn main() -> ExitCode {
    let args = parse_args();
    let scale = Scale::from_args(&args);
    // 8, 16, 24, 32 nodes -> 256..1024 ranks (paper sweeps 128-1024; 128
    // ranks = 4 nodes on the 32-core Cori nodes).
    let node_counts: Vec<u32> = if scale == Scale::Quick {
        vec![4, 8]
    } else {
        vec![4, 8, 16, 32]
    };
    let libs = [
        Library::CrayMpi,
        Library::IntelMpi,
        Library::OmpiDefault,
        Library::OmpiAdapt,
    ];

    for op in [OpKind::Bcast, OpKind::Reduce] {
        let cells = try_par_grid(&libs, &node_counts, |&library, &nodes| {
            let machine = profiles::cori(nodes);
            let nranks = machine.cpu_job_size();
            let case = CollectiveCase {
                machine,
                nranks,
                op,
                library,
                msg_bytes: 4 << 20,
            };
            execute(&case.spec())
                .map(|r| r.makespan.as_micros_f64() / 1000.0)
                .map_err(|e| format!("{} 4M {nranks}p: {e}", library.label()))
        });
        let cells: Vec<Vec<f64>> = match cells {
            Ok(cells) => cells,
            Err(e) => {
                eprintln!("fig10: {e}");
                return ExitCode::FAILURE;
            }
        };

        let header: Vec<String> = node_counts.iter().map(|n| format!("{}p", n * 32)).collect();
        let rows: Vec<(String, Vec<String>)> = libs
            .iter()
            .zip(&cells)
            .map(|(lib, t)| (lib.label(), t.iter().map(|x| format!("{x:.3}ms")).collect()))
            .collect();
        print_table(
            &format!(
                "Figure 10: Strong scalability of {} (Cori, 4MB)",
                match op {
                    OpKind::Bcast => "Broadcast",
                    OpKind::Reduce => "Reduce",
                }
            ),
            &header,
            &rows,
        );

        // Flatness metric for ADAPT: time at max scale / time at min scale.
        let adapt = cells.last().unwrap();
        println!(
            "OMPI-adapt growth from {}p to {}p: {:.2}x (ideal: ~1.0x)",
            node_counts[0] * 32,
            node_counts.last().unwrap() * 32,
            adapt.last().unwrap() / adapt[0]
        );
    }
    ExitCode::SUCCESS
}
