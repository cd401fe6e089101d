//! Figure 7: noise impact on broadcast and reduce (4 MB messages).
//!
//! Noise model: 10 Hz windows of uniform duration (0–10 ms ≙ "5%",
//! 0–20 ms ≙ "10%"), injected on one rank per 4 nodes — the intensity
//! calibrated to the paper's observed interference regime (the paper does
//! not state its injection layout; see EXPERIMENTS.md E1 for the scope
//! sensitivity study).
//!
//! ```text
//! cargo run --release -p adapt-bench --bin fig7 -- --machine cori [--scale quick]
//! ```

use adapt_bench::{parse_args, print_table, try_par_grid, CpuMachine, Scale};
use adapt_collectives::{run_trial, CollectiveCase, Library, NoiseScope, OpKind, Trial};
use std::num::NonZeroU32;
use std::process::ExitCode;

fn main() -> ExitCode {
    let args = parse_args();
    let machine = CpuMachine::from_args(&args);
    let scale = Scale::from_args(&args);
    let (spec, nranks) = machine.instantiate(scale);
    let iterations = if scale == Scale::Quick {
        const { NonZeroU32::new(4).unwrap() }
    } else {
        const { NonZeroU32::new(12).unwrap() }
    };

    let libs: Vec<Library> = match machine {
        CpuMachine::Cori => vec![
            Library::IntelMpi,
            Library::CrayMpi,
            Library::OmpiDefault,
            Library::OmpiAdapt,
        ],
        CpuMachine::Stampede2 => vec![
            Library::IntelMpi,
            Library::Mvapich,
            Library::OmpiDefault,
            Library::OmpiAdapt,
        ],
    };
    let noise_levels = [0.0, 5.0, 10.0];

    for op in [OpKind::Bcast, OpKind::Reduce] {
        let cells = try_par_grid(&libs, &noise_levels, |&library, &noise_percent| {
            run_trial(&Trial {
                case: CollectiveCase {
                    machine: spec.clone(),
                    nranks,
                    op,
                    library,
                    msg_bytes: 4 << 20,
                },
                noise_percent,
                scope: NoiseScope::SparseNodes(4),
                iterations,
                repeats: const { NonZeroU32::new(4).unwrap() },
                seed: 2018,
            })
            .map(|r| r.mean_us / 1000.0)
            .map_err(|e| format!("{} at {noise_percent}% noise: {e}", library.label()))
        });
        let cells: Vec<Vec<f64>> = match cells {
            Ok(cells) => cells,
            Err(e) => {
                eprintln!("fig7: {e}");
                return ExitCode::FAILURE;
            }
        };

        let header = vec![
            "no noise".to_string(),
            "5% noise".to_string(),
            "10% noise".to_string(),
            "slow@5%".to_string(),
            "slow@10%".to_string(),
        ];
        let rows: Vec<(String, Vec<String>)> = libs
            .iter()
            .zip(&cells)
            .map(|(lib, t)| {
                (
                    lib.label(),
                    vec![
                        format!("{:.2}ms", t[0]),
                        format!("{:.2}ms", t[1]),
                        format!("{:.2}ms", t[2]),
                        format!("{:.0}%", (t[1] / t[0] - 1.0) * 100.0),
                        format!("{:.0}%", (t[2] / t[0] - 1.0) * 100.0),
                    ],
                )
            })
            .collect();
        print_table(
            &format!(
                "Figure 7 ({}): {} with noise injection, 4MB, {} ranks, {} iterations",
                machine.name(),
                match op {
                    OpKind::Bcast => "Broadcast",
                    OpKind::Reduce => "Reduce",
                },
                nranks,
                iterations
            ),
            &header,
            &rows,
        );
    }
    ExitCode::SUCCESS
}
