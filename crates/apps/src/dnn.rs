//! Data-parallel training step — the deep-learning workload the paper's
//! introduction motivates ("more and more applications, including ...
//! deep learning applications, are adopting accelerators").
//!
//! Each training step computes local gradients (modelled compute) and
//! allreduces them across ranks. Two gradient-exchange strategies are
//! compared:
//!
//! - [`GradStrategy::RingAllreduce`] — the event-driven ring allreduce
//!   (bandwidth-optimal, every link busy);
//! - [`GradStrategy::ReduceBcast`] — reduce to rank 0 then broadcast,
//!   both ADAPT engines over the topology-aware tree (the classic
//!   parameter-server-ish composition).
//!
//! The training loop also verifies numerically: run with real gradients
//! and the final weights must equal the sequential data-parallel update.

use adapt_collectives::PhasedProgram;
use adapt_core::{
    topology_aware_tree, AdaptBcast, AdaptConfig, AdaptReduce, AllreduceSpec, BcastSpec,
    ReduceData, ReduceExec, ReduceSpec, TopoTreeConfig,
};
use adapt_mpi::{RankProgram, RunError, World};
use adapt_noise::ClusterNoise;
use adapt_sim::time::Duration;
use adapt_topology::{MachineSpec, Placement};
use std::sync::Arc;

/// How gradients are combined each step.
#[derive(Clone, Copy, Debug, PartialEq, Eq)]
pub enum GradStrategy {
    /// Event-driven ring allreduce.
    RingAllreduce,
    /// ADAPT reduce to rank 0 followed by ADAPT broadcast.
    ReduceBcast,
}

/// Configuration of the synthetic training run.
#[derive(Clone)]
pub struct TrainConfig {
    /// Machine profile.
    pub machine: MachineSpec,
    /// Ranks (data-parallel workers).
    pub nranks: u32,
    /// Gradient size in bytes (model size).
    pub grad_bytes: u64,
    /// Training steps.
    pub steps: u32,
    /// Forward+backward compute per step per rank.
    pub compute_per_step: Duration,
    /// Gradient exchange strategy.
    pub strategy: GradStrategy,
}

/// Result of a training run.
#[derive(Clone, Copy, Debug)]
pub struct TrainResult {
    /// Total wall time (seconds).
    pub total_s: f64,
    /// Time per step (milliseconds).
    pub step_ms: f64,
    /// Fraction of the runtime spent communicating.
    pub comm_fraction: f64,
}

/// Per-rank phase list for one step's gradient exchange.
fn exchange_phases(cfg: &TrainConfig) -> Vec<Vec<Box<dyn RankProgram>>> {
    match cfg.strategy {
        GradStrategy::RingAllreduce => AllreduceSpec {
            nranks: cfg.nranks,
            msg_bytes: cfg.grad_bytes,
            cfg: AdaptConfig::default(),
            data: None,
        }
        .programs()
        .into_iter()
        .map(|p| vec![p])
        .collect(),
        GradStrategy::ReduceBcast => {
            let placement = Placement::block_cpu(cfg.machine.shape, cfg.nranks);
            let tree = Arc::new(topology_aware_tree(&placement, TopoTreeConfig::default()));
            let reduce = ReduceSpec {
                tree: tree.clone(),
                msg_bytes: cfg.grad_bytes,
                cfg: AdaptConfig::default(),
                data: ReduceData::Synthetic,
                exec: ReduceExec::Cpu,
            };
            let bcast = BcastSpec {
                tree,
                msg_bytes: cfg.grad_bytes,
                cfg: AdaptConfig::default(),
                data: None,
            };
            (0..cfg.nranks)
                .map(|r| {
                    vec![
                        Box::new(AdaptReduce::new(&reduce, r)) as Box<dyn RankProgram>,
                        Box::new(AdaptBcast::new(&bcast, r)) as Box<dyn RankProgram>,
                    ]
                })
                .collect()
        }
    }
}

/// Run the synthetic training loop (timing model; numerics are covered by
/// [`verify_data_parallel_sgd`]).
pub fn run_training(cfg: &TrainConfig) -> Result<TrainResult, Box<RunError>> {
    use adapt_mpi::{Completion, Op, ProgramCtx, Token};

    const STEP_COMPUTE: Token = Token(u64::MAX - 11);

    /// Wraps a phase list element: compute first, then the exchange.
    struct ComputeThen {
        inner: Option<Box<dyn RankProgram>>,
        work: Duration,
        started: bool,
    }
    impl RankProgram for ComputeThen {
        fn on_start(&mut self, ctx: &mut dyn ProgramCtx) {
            ctx.post(Op::Compute {
                work: self.work,
                token: STEP_COMPUTE,
            });
        }
        fn on_completion(&mut self, ctx: &mut dyn ProgramCtx, c: Completion) {
            if !self.started {
                debug_assert_eq!(c.token(), STEP_COMPUTE);
                self.started = true;
                self.inner.as_mut().expect("inner").on_start(ctx);
                return;
            }
            self.inner.as_mut().expect("inner").on_completion(ctx, c);
        }
    }

    let mut per_rank: Vec<Vec<Box<dyn RankProgram>>> =
        (0..cfg.nranks).map(|_| Vec::new()).collect();
    for _ in 0..cfg.steps {
        for (r, mut phases) in exchange_phases(cfg).into_iter().enumerate() {
            // Compute gates the step's first exchange phase.
            let first = phases.remove(0);
            per_rank[r].push(Box::new(ComputeThen {
                inner: Some(first),
                work: cfg.compute_per_step,
                started: false,
            }));
            per_rank[r].extend(phases);
        }
    }
    let programs: Vec<Box<dyn RankProgram>> = per_rank
        .into_iter()
        .map(|p| Box::new(PhasedProgram::new(p)) as Box<dyn RankProgram>)
        .collect();
    let world = World::cpu(
        cfg.machine.clone(),
        cfg.nranks,
        ClusterNoise::silent(cfg.nranks),
    );
    let res = world.try_run(programs)?;
    let total_s = res.makespan.as_secs_f64();
    let compute_s = cfg.steps as f64 * cfg.compute_per_step.as_secs_f64();
    Ok(TrainResult {
        total_s,
        step_ms: total_s * 1e3 / cfg.steps as f64,
        comm_fraction: ((total_s - compute_s) / total_s).max(0.0),
    })
}

/// Numeric twin: run `steps` data-parallel SGD steps with real gradients
/// through the ring allreduce and compare the final weights against a
/// sequential simulation. Returns the maximum absolute deviation.
pub fn verify_data_parallel_sgd(
    nranks: u32,
    params: usize,
    steps: u32,
    lr: f64,
) -> Result<f64, Box<RunError>> {
    use adapt_core::AdaptAllreduce;
    use adapt_mpi::{bytes_to_f64, f64_to_bytes, DType, ReduceOp};
    use bytes::Bytes;

    // Deterministic synthetic "gradients": g_r(step, i) depends on rank,
    // step, and parameter index.
    let grad = |r: u32, step: u32, i: usize| -> f64 {
        (((r as usize * 31 + step as usize * 17 + i) % 23) as f64) - 11.0
    };

    // Sequential reference.
    let mut reference = vec![0.0f64; params];
    for step in 0..steps {
        for (i, w) in reference.iter_mut().enumerate() {
            let total: f64 = (0..nranks).map(|r| grad(r, step, i)).sum();
            *w -= lr * total / nranks as f64;
        }
    }

    // Distributed: one allreduce per step (fresh world per step keeps the
    // harness simple; the timing model above covers chained steps).
    let mut weights = vec![0.0f64; params];
    let machine = adapt_topology::profiles::minicluster(2, 2, (nranks).div_ceil(4).max(1));
    for step in 0..steps {
        let contributions: Arc<Vec<Bytes>> = Arc::new(
            (0..nranks)
                .map(|r| {
                    let g: Vec<f64> = (0..params).map(|i| grad(r, step, i)).collect();
                    Bytes::from(f64_to_bytes(&g))
                })
                .collect(),
        );
        let spec = AllreduceSpec {
            nranks,
            msg_bytes: (params * 8) as u64,
            cfg: AdaptConfig::default(),
            data: Some((ReduceOp::Sum, DType::F64, contributions)),
        };
        let world = World::cpu(machine.clone(), nranks, ClusterNoise::silent(nranks));
        let res = world.try_run(spec.programs())?;
        // Every rank applies the same update; check rank 0's view.
        let any: Box<dyn std::any::Any> = res.programs.into_iter().next().unwrap();
        let a = any.downcast::<AdaptAllreduce>().expect("allreduce");
        let summed = bytes_to_f64(&a.result().expect("result"));
        for (w, g) in weights.iter_mut().zip(&summed) {
            *w -= lr * g / nranks as f64;
        }
    }

    Ok(weights
        .iter()
        .zip(&reference)
        .map(|(a, b)| (a - b).abs())
        .fold(0.0, f64::max))
}

#[cfg(test)]
mod tests {
    use super::*;
    use adapt_topology::profiles;

    fn cfg(strategy: GradStrategy) -> TrainConfig {
        TrainConfig {
            machine: profiles::minicluster(4, 2, 4),
            nranks: 32,
            grad_bytes: 8 << 20, // a 2M-parameter f32 model
            steps: 4,
            compute_per_step: Duration::from_micros(800),
            strategy,
        }
    }

    #[test]
    fn ring_allreduce_beats_reduce_bcast() {
        // The ring moves 2·msg/n per link per step; reduce+bcast moves the
        // full message twice through the tree's root links.
        let ring = run_training(&cfg(GradStrategy::RingAllreduce)).unwrap();
        let rb = run_training(&cfg(GradStrategy::ReduceBcast)).unwrap();
        assert!(
            ring.total_s < rb.total_s,
            "ring {:.3}ms/step vs reduce+bcast {:.3}ms/step",
            ring.step_ms,
            rb.step_ms
        );
    }

    #[test]
    fn training_time_accounts_comm_and_compute() {
        let r = run_training(&cfg(GradStrategy::RingAllreduce)).unwrap();
        assert!(r.comm_fraction > 0.0 && r.comm_fraction < 1.0);
        assert!(r.step_ms > 0.8, "steps include the compute");
    }

    #[test]
    fn distributed_sgd_matches_sequential() {
        let dev = verify_data_parallel_sgd(8, 500, 3, 0.01).unwrap();
        assert!(dev < 1e-12, "max deviation {dev}");
    }
}
