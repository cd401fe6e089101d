//! Noise resilience: inject the paper's OS noise (10 Hz, uniform
//! durations) and watch synchronization-heavy designs amplify it while
//! ADAPT absorbs it — the experiment behind Figure 7.
//!
//! ```text
//! cargo run --release --example noise_resilience
//! ```

use adapt::prelude::*;
use std::num::NonZeroU32;
use std::process::ExitCode;

fn main() -> ExitCode {
    let machine = profiles::minicluster(4, 2, 8);
    let nranks = machine.cpu_job_size();
    let msg = 4 << 20;
    let iterations = const { NonZeroU32::new(10).unwrap() };

    println!(
        "Broadcast of 4 MiB on {nranks} ranks, {iterations} iterations per cell.\n\
         Noise: 10 Hz windows, uniform 0-10 ms (5%) / 0-20 ms (10%).\n"
    );
    println!(
        "{:<20} {:>12} {:>12} {:>12} {:>9} {:>9}",
        "library", "no noise", "5% noise", "10% noise", "slow@5%", "slow@10%"
    );

    for library in [
        Library::OmpiAdapt,
        Library::OmpiDefault,
        Library::IntelMpi,
        Library::CrayMpi,
        Library::Mvapich,
    ] {
        let mut cells = [0.0f64; 3];
        for (i, &noise) in [0.0, 5.0, 10.0].iter().enumerate() {
            let trial = Trial {
                case: CollectiveCase {
                    machine: machine.clone(),
                    nranks,
                    op: OpKind::Bcast,
                    library,
                    msg_bytes: msg,
                },
                noise_percent: noise,
                scope: adapt::collectives::NoiseScope::PerNode,
                iterations,
                repeats: const { NonZeroU32::new(2).unwrap() },
                seed: 42,
            };
            cells[i] = match adapt::collectives::run_trial(&trial) {
                Ok(r) => r.mean_us,
                Err(e) => {
                    eprintln!(
                        "noise_resilience: {} at {noise}% noise: {e}",
                        library.label()
                    );
                    return ExitCode::FAILURE;
                }
            };
        }
        println!(
            "{:<20} {:>10.1}us {:>10.1}us {:>10.1}us {:>8.0}% {:>8.0}%",
            library.label(),
            cells[0],
            cells[1],
            cells[2],
            (cells[1] / cells[0] - 1.0) * 100.0,
            (cells[2] / cells[0] - 1.0) * 100.0,
        );
    }

    println!(
        "\nBlocking designs couple every rank to its parent and siblings \n\
         through rendezvous handshakes and ordering, so one rank's noise \n\
         window delays the whole tree. ADAPT keeps N sends per child and \n\
         M receives in flight: transfers already in the network progress \n\
         through the noise (DMA needs no host CPU), and the delayed rank \n\
         catches up without stalling anyone else."
    );
    ExitCode::SUCCESS
}
