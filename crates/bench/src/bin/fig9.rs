//! Figure 9: end-to-end broadcast and reduce vs message size.
//!
//! ```text
//! cargo run --release -p adapt-bench --bin fig9 -- --machine cori [--scale quick]
//! ```

use adapt_bench::{
    parse_args, print_table, size_label, try_par_grid, CpuMachine, Scale, FIG89_SIZES,
};
use adapt_collectives::{execute, CollectiveCase, Library, OpKind};
use std::process::ExitCode;

fn main() -> ExitCode {
    let args = parse_args();
    let machine = CpuMachine::from_args(&args);
    let scale = Scale::from_args(&args);
    let (spec, nranks) = machine.instantiate(scale);

    // Cray MPI does not support Omni-Path; MVAPICH does not support Aries
    // (paper §5.2.1), so each machine compares a different vendor stack.
    let libs: Vec<Library> = match machine {
        CpuMachine::Cori => vec![
            Library::CrayMpi,
            Library::IntelMpi,
            Library::OmpiDefault,
            Library::OmpiAdapt,
        ],
        CpuMachine::Stampede2 => vec![
            Library::Mvapich,
            Library::IntelMpi,
            Library::OmpiDefault,
            Library::OmpiAdapt,
        ],
    };

    for op in [OpKind::Bcast, OpKind::Reduce] {
        let cells = try_par_grid(&libs, &FIG89_SIZES, |&library, &msg_bytes| {
            let case = CollectiveCase {
                machine: spec.clone(),
                nranks,
                op,
                library,
                msg_bytes,
            };
            execute(&case.spec())
                .map(|r| r.makespan.as_micros_f64() / 1000.0)
                .map_err(|e| format!("{} {}: {e}", library.label(), size_label(msg_bytes)))
        });
        let cells: Vec<Vec<f64>> = match cells {
            Ok(cells) => cells,
            Err(e) => {
                eprintln!("fig9: {e}");
                return ExitCode::FAILURE;
            }
        };

        let header: Vec<String> = FIG89_SIZES.iter().map(|&s| size_label(s)).collect();
        let rows: Vec<(String, Vec<String>)> = libs
            .iter()
            .zip(&cells)
            .map(|(lib, times)| {
                (
                    lib.label(),
                    times.iter().map(|t| format!("{t:.3}ms")).collect(),
                )
            })
            .collect();
        print_table(
            &format!(
                "Figure 9 ({}): {} time vs message size, {} ranks",
                machine.name(),
                match op {
                    OpKind::Bcast => "Broadcast",
                    OpKind::Reduce => "Reduce",
                },
                nranks
            ),
            &header,
            &rows,
        );

        // Headline speedups at 4 MB (paper: 10x/10x/1.6x on Cori bcast).
        let adapt_idx = libs.len() - 1;
        let last = FIG89_SIZES.len() - 1;
        print!("speedup of OMPI-adapt at 4M:");
        for (i, lib) in libs.iter().enumerate() {
            if i != adapt_idx {
                print!(
                    "  {:.1}x vs {}",
                    cells[i][last] / cells[adapt_idx][last],
                    lib.label()
                );
            }
        }
        println!();
    }
    ExitCode::SUCCESS
}
