//! Data-parallel training: the deep-learning workload the paper's
//! introduction motivates. Compares gradient-exchange strategies per
//! training step and verifies distributed SGD numerically.
//!
//! ```text
//! cargo run --release --example data_parallel_training
//! ```

use adapt::apps::{run_training, verify_data_parallel_sgd, GradStrategy, TrainConfig};
use adapt::mpi::RunError;
use adapt::prelude::*;
use std::process::ExitCode;

fn main() -> ExitCode {
    match run() {
        Ok(()) => ExitCode::SUCCESS,
        Err(e) => {
            eprintln!("data_parallel_training: {e}");
            ExitCode::FAILURE
        }
    }
}

fn run() -> Result<(), Box<RunError>> {
    let machine = profiles::cori(8);
    let nranks = machine.cpu_job_size();
    let grad_bytes = 64 << 20; // a 16M-parameter f32 model

    println!(
        "Data-parallel training on {nranks} workers, {} MiB of gradients per step,\n\
         10 steps, 5 ms forward+backward per step.\n",
        grad_bytes >> 20
    );
    println!(
        "{:<18} {:>12} {:>12} {:>9}",
        "strategy", "total (ms)", "ms/step", "comm %"
    );
    for (label, strategy) in [
        ("ring allreduce", GradStrategy::RingAllreduce),
        ("reduce + bcast", GradStrategy::ReduceBcast),
    ] {
        let r = run_training(&TrainConfig {
            machine: machine.clone(),
            nranks,
            grad_bytes,
            steps: 10,
            compute_per_step: Duration::from_millis(5),
            strategy,
        })?;
        println!(
            "{label:<18} {:>10.1}ms {:>10.2}ms {:>8.0}%",
            r.total_s * 1e3,
            r.step_ms,
            r.comm_fraction * 100.0
        );
    }

    let dev = verify_data_parallel_sgd(8, 1000, 3, 0.05)?;
    println!("\ndistributed SGD vs sequential reference: max deviation = {dev:e}");
    assert!(dev < 1e-12);
    println!("verified: the distributed update is exact.");
    Ok(())
}
