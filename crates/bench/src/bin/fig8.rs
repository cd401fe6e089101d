//! Figure 8: topology-aware broadcast and reduce vs all the Intel-MPI
//! topology-aware algorithm selections, plus OMPI-default-topo (the
//! Waitall engine on ADAPT's own tree) and OMPI-adapt.
//!
//! ```text
//! cargo run --release -p adapt-bench --bin fig8 -- --machine cori [--scale quick]
//! ```

use adapt_bench::{
    parse_args, print_table, size_label, try_par_grid, CpuMachine, Scale, FIG89_SIZES,
};
use adapt_collectives::{execute, CollectiveCase, IntelAlg, Library, OpKind};
use std::process::ExitCode;

fn main() -> ExitCode {
    let args = parse_args();
    let machine = CpuMachine::from_args(&args);
    let scale = Scale::from_args(&args);
    let (spec, nranks) = machine.instantiate(scale);

    let bcast_libs: Vec<Library> = vec![
        Library::IntelTopo(IntelAlg::Binomial),
        Library::IntelTopo(IntelAlg::RecursiveDoubling),
        Library::IntelTopo(IntelAlg::Ring),
        Library::IntelTopo(IntelAlg::ShmFlat),
        Library::IntelTopo(IntelAlg::ShmKnomial),
        Library::IntelTopo(IntelAlg::ShmKnary),
        Library::OmpiDefaultTopo,
        Library::OmpiAdapt,
    ];
    let reduce_libs: Vec<Library> = vec![
        Library::IntelTopo(IntelAlg::Shumilin),
        Library::IntelTopo(IntelAlg::Binomial),
        Library::IntelTopo(IntelAlg::Rabenseifner),
        Library::IntelTopo(IntelAlg::ShmFlat),
        Library::IntelTopo(IntelAlg::ShmKnomial),
        Library::IntelTopo(IntelAlg::ShmKnary),
        Library::IntelTopo(IntelAlg::ShmBinomial),
        Library::OmpiDefaultTopo,
        Library::OmpiAdapt,
    ];

    for (op, libs) in [(OpKind::Bcast, bcast_libs), (OpKind::Reduce, reduce_libs)] {
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
                eprintln!("fig8: {e}");
                return ExitCode::FAILURE;
            }
        };

        let header: Vec<String> = FIG89_SIZES.iter().map(|&s| size_label(s)).collect();
        let rows: Vec<(String, Vec<String>)> = libs
            .iter()
            .zip(&cells)
            .map(|(lib, t)| (lib.label(), t.iter().map(|x| format!("{x:.3}ms")).collect()))
            .collect();
        print_table(
            &format!(
                "Figure 8 ({}): Topology-aware {} vs message size, {} ranks",
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

        // The §5.1.2 claim: same tree, ~20% faster than OMPI-default-topo
        // at large messages thanks to independent per-lane progress.
        let adapt = cells.last().unwrap().last().unwrap();
        let topo = cells[cells.len() - 2].last().unwrap();
        println!(
            "OMPI-adapt vs OMPI-default-topo at 4M: {:.2}x",
            topo / adapt
        );
    }
    ExitCode::SUCCESS
}
