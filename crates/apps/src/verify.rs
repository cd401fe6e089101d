//! Numerically verified distributed Floyd–Warshall.
//!
//! A small-scale, real-data twin of the [`crate::asp`] performance model:
//! the full distance matrix is distributed cyclically over ranks, each
//! iteration the owner broadcasts the pivot row, every rank relaxes its
//! local rows, and the final distributed result is checked against a
//! sequential Floyd–Warshall — end-to-end evidence that the simulated
//! runtime moves application data correctly.

use adapt_mpi::{
    f64_to_bytes, Completion, Payload, ProgramCtx, RankProgram, RunError, Token, World,
};
use adapt_noise::ClusterNoise;
use adapt_sim::rng::{MasterSeed, StreamTag};
use adapt_topology::profiles;
use rand::Rng;

/// Sequential Floyd–Warshall on an `n × n` weight matrix (row-major).
pub fn sequential_fw(n: usize, mut d: Vec<f64>) -> Vec<f64> {
    for k in 0..n {
        for i in 0..n {
            let dik = d[i * n + k];
            for j in 0..n {
                let cand = dik + d[k * n + j];
                if cand < d[i * n + j] {
                    d[i * n + j] = cand;
                }
            }
        }
    }
    d
}

/// Random dense weight matrix with zero diagonal.
pub fn random_weights(n: usize, seed: u64) -> Vec<f64> {
    let mut rng = MasterSeed(seed).rng(StreamTag::App, 0);
    let mut d = vec![0.0f64; n * n];
    for i in 0..n {
        for j in 0..n {
            if i != j {
                d[i * n + j] = rng.random_range(1.0..100.0);
            }
        }
    }
    d
}

/// One rank of the distributed Floyd–Warshall (cyclic row distribution,
/// flat pivot-row broadcast).
struct FwRank {
    rank: u32,
    nranks: u32,
    n: usize,
    /// Owned rows: `rows[i]` is row `rank + i * nranks`.
    rows: Vec<Vec<f64>>,
    k: usize,
    sends_left: u32,
    current_pivot: Option<Vec<f64>>,
}

impl FwRank {
    fn new(rank: u32, nranks: u32, n: usize, full: &[f64]) -> FwRank {
        let rows = (0..n)
            .filter(|&i| i % nranks as usize == rank as usize)
            .map(|i| full[i * n..(i + 1) * n].to_vec())
            .collect();
        FwRank {
            rank,
            nranks,
            n,
            rows,
            k: 0,
            sends_left: 0,
            current_pivot: None,
        }
    }

    fn owner(&self, k: usize) -> u32 {
        (k % self.nranks as usize) as u32
    }

    fn local_row(&self, k: usize) -> usize {
        k / self.nranks as usize
    }

    /// Start iteration `k`: owner ships the pivot row, others post the
    /// receive.
    fn start_iteration(&mut self, ctx: &mut dyn ProgramCtx) {
        loop {
            if self.k == self.n {
                ctx.finish();
                return;
            }
            let k = self.k;
            if self.owner(k) == self.rank {
                let row = self.rows[self.local_row(k)].clone();
                let payload = Payload::from(f64_to_bytes(&row));
                self.current_pivot = Some(row);
                self.sends_left = self.nranks - 1;
                if self.sends_left == 0 {
                    self.relax_and_advance();
                    continue;
                }
                for peer in 0..self.nranks {
                    if peer != self.rank {
                        ctx.isend(peer, k as u32, payload.clone(), Token(k as u64));
                    }
                }
            } else {
                ctx.irecv(self.owner(k), k as u32, Token(k as u64));
            }
            return;
        }
    }

    /// Relax all owned rows against the current pivot, then move to the
    /// next iteration.
    fn relax_and_advance(&mut self) {
        let pivot = self.current_pivot.take().expect("pivot row present");
        let k = self.k;
        for row in &mut self.rows {
            let dik = row[k];
            for j in 0..self.n {
                let cand = dik + pivot[j];
                if cand < row[j] {
                    row[j] = cand;
                }
            }
        }
        self.k += 1;
    }
}

impl RankProgram for FwRank {
    fn on_start(&mut self, ctx: &mut dyn ProgramCtx) {
        self.start_iteration(ctx);
    }

    fn on_completion(&mut self, ctx: &mut dyn ProgramCtx, completion: Completion) {
        match completion {
            Completion::SendDone { .. } => {
                self.sends_left -= 1;
                if self.sends_left == 0 {
                    self.relax_and_advance();
                    self.start_iteration(ctx);
                }
            }
            Completion::RecvDone { data, .. } => {
                let bytes = data.bytes().expect("real pivot row");
                self.current_pivot = Some(adapt_mpi::bytes_to_f64(bytes));
                self.relax_and_advance();
                self.start_iteration(ctx);
            }
            other => panic!("fw rank got {other:?}"),
        }
    }
}

/// Run the distributed Floyd–Warshall on `nranks` ranks for an `n × n`
/// matrix and compare against the sequential result. Returns the maximum
/// absolute deviation (0.0 for an exact match).
pub fn verify_distributed_fw(nranks: u32, n: usize, seed: u64) -> Result<f64, Box<RunError>> {
    let weights = random_weights(n, seed);
    let expected = sequential_fw(n, weights.clone());

    let machine = profiles::minicluster(2, 2, 4.max(nranks.div_ceil(4)));
    let machine = if machine.cpu_job_size() < nranks {
        profiles::minicluster(2, 2, nranks.div_ceil(4))
    } else {
        machine
    };
    let world = World::cpu(machine, nranks, ClusterNoise::silent(nranks));
    let programs: Vec<Box<dyn RankProgram>> = (0..nranks)
        .map(|r| Box::new(FwRank::new(r, nranks, n, &weights)) as Box<dyn RankProgram>)
        .collect();
    let res = world.try_run(programs)?;

    let mut max_dev = 0.0f64;
    for p in res.programs {
        let any: Box<dyn std::any::Any> = p;
        let fw = any.downcast::<FwRank>().expect("fw rank");
        for (local, row) in fw.rows.iter().enumerate() {
            let global = fw.rank as usize + local * nranks as usize;
            for j in 0..n {
                let dev = (row[j] - expected[global * n + j]).abs();
                max_dev = max_dev.max(dev);
            }
        }
    }
    Ok(max_dev)
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn sequential_fw_small_case() {
        // 0 -> 1 (1), 1 -> 2 (2), 0 -> 2 (10): shortest 0->2 is 3.
        let inf = 1e18;
        let d = vec![
            0.0, 1.0, 10.0, //
            inf, 0.0, 2.0, //
            inf, inf, 0.0,
        ];
        let r = sequential_fw(3, d);
        assert_eq!(r[2], 3.0);
    }

    #[test]
    fn distributed_matches_sequential() {
        for (nranks, n) in [(4u32, 16usize), (8, 24), (6, 13)] {
            let dev = verify_distributed_fw(nranks, n, 42).unwrap();
            assert_eq!(dev, 0.0, "nranks={nranks} n={n}");
        }
    }

    #[test]
    fn single_rank_degenerates_to_sequential() {
        let dev = verify_distributed_fw(1, 12, 7).unwrap();
        assert_eq!(dev, 0.0);
    }
}
