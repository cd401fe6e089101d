//! ADAPT event-driven alltoall — §2.2.3 explicitly includes "some
//! all-to-all collectives" in the basic-building-block argument.
//!
//! Every rank sends a personalized block to every other rank. The
//! schedule is the classic ring-offset order (step `s`: send to `r+s`,
//! receive from `r−s`, mod `n`), but without any step barrier: sends and
//! receives are windowed (`N` outstanding sends, `M` outstanding
//! receives) and progress purely on completions, so a slow peer delays
//! only its own exchange.

use crate::config::{pack_token, unpack_token, AdaptConfig};
use adapt_mpi::{Completion, Payload, ProgramCtx, RankProgram, Token};
use bytes::Bytes;
use std::sync::Arc;

const KIND_SEND: u8 = 1;
const KIND_RECV: u8 = 2;

/// Uniform block `i` of an `n`-way partitioned buffer. `MPI_Alltoall`
/// exchanges equal counts between every pair, so the buffer must divide
/// evenly ([`AlltoallSpec::programs`] asserts it).
fn block_range(msg: u64, n: u64, i: u64) -> (u64, u64) {
    let base = msg / n;
    (i * base, (i + 1) * base)
}

/// Description of one ADAPT alltoall.
#[derive(Clone)]
pub struct AlltoallSpec {
    /// Number of ranks.
    pub nranks: u32,
    /// Total buffer size per rank (block `i` goes to rank `i`).
    pub msg_bytes: u64,
    /// Pipeline configuration (windows over the peer schedule).
    pub cfg: AdaptConfig,
    /// Real inputs: `contributions[r]` is rank `r`'s full send buffer
    /// (`None` = synthetic).
    pub data: Option<Arc<Vec<Bytes>>>,
}

impl AlltoallSpec {
    /// Instantiate the per-rank programs. Panics unless `msg_bytes` divides
    /// evenly by the rank count (alltoall exchanges equal counts).
    pub fn programs(&self) -> Vec<Box<dyn RankProgram>> {
        assert_eq!(
            self.msg_bytes % self.nranks as u64,
            0,
            "alltoall buffers must divide evenly over ranks"
        );
        (0..self.nranks)
            .map(|r| Box::new(AdaptAlltoall::new(self, r)) as Box<dyn RankProgram>)
            .collect()
    }
}

/// One rank's event-driven alltoall.
pub struct AdaptAlltoall {
    rank: u32,
    n: u64,
    msg: u64,
    cfg: AdaptConfig,
    own: Option<Bytes>,
    result: Option<Vec<u8>>,
    /// Next schedule step to send (1..n).
    send_step: u64,
    outstanding_sends: u32,
    sends_done: u64,
    /// Next schedule step to post a receive for (1..n).
    recv_step: u64,
    recvs_done: u64,
    finished: bool,
    /// Completion time, for inspection after the run.
    pub finished_at: Option<adapt_sim::time::Time>,
}

impl AdaptAlltoall {
    fn new(spec: &AlltoallSpec, rank: u32) -> AdaptAlltoall {
        let n = spec.nranks as u64;
        let own = spec.data.as_deref().map(|c| {
            let b = &c[rank as usize];
            assert_eq!(b.len() as u64, spec.msg_bytes, "contribution size");
            b.clone()
        });
        let mut result = spec
            .data
            .is_some()
            .then(|| vec![0u8; spec.msg_bytes as usize]);
        // Own block "arrives" locally.
        if let (Some(res), Some(own)) = (result.as_mut(), own.as_ref()) {
            let (lo, hi) = block_range(spec.msg_bytes, n, rank as u64);
            res[lo as usize..hi as usize].copy_from_slice(&own[lo as usize..hi as usize]);
        }
        AdaptAlltoall {
            rank,
            n,
            msg: spec.msg_bytes,
            cfg: spec.cfg,
            own,
            result,
            send_step: 1,
            outstanding_sends: 0,
            sends_done: 0,
            recv_step: 1,
            recvs_done: 0,
            finished: false,
            finished_at: None,
        }
    }

    fn push_sends(&mut self, ctx: &mut dyn ProgramCtx) {
        while self.send_step < self.n && self.outstanding_sends < self.cfg.outstanding_sends {
            let s = self.send_step;
            self.send_step += 1;
            self.outstanding_sends += 1;
            let dst = ((self.rank as u64 + s) % self.n) as u32;
            let (lo, hi) = block_range(self.msg, self.n, dst as u64);
            let payload = match &self.own {
                Some(b) => Payload::Data(b.slice(lo as usize..hi as usize)),
                None => Payload::Synthetic(hi - lo),
            };
            ctx.isend(dst, 0, payload, pack_token(KIND_SEND, dst, s));
        }
    }

    fn push_recvs(&mut self, ctx: &mut dyn ProgramCtx) {
        while self.recv_step < self.n
            && (self.recv_step - 1) - self.recvs_done < self.cfg.outstanding_recvs as u64
        {
            let s = self.recv_step;
            self.recv_step += 1;
            let src = ((self.rank as u64 + self.n - s) % self.n) as u32;
            ctx.irecv(src, 0, pack_token(KIND_RECV, src, s));
        }
    }

    fn check_done(&mut self, ctx: &mut dyn ProgramCtx) {
        if self.finished {
            return;
        }
        if self.sends_done == self.n - 1 && self.recvs_done == self.n - 1 {
            self.finished = true;
            self.finished_at = Some(ctx.now());
            ctx.finish();
        }
    }

    /// The received buffer (real mode, after the run): block `q` holds
    /// what rank `q` sent to this rank.
    pub fn result(&self) -> Option<Vec<u8>> {
        self.result.clone()
    }
}

impl RankProgram for AdaptAlltoall {
    fn on_start(&mut self, ctx: &mut dyn ProgramCtx) {
        if self.n == 1 || self.msg == 0 {
            self.finished = true;
            self.finished_at = Some(ctx.now());
            ctx.finish();
            return;
        }
        self.push_recvs(ctx);
        self.push_sends(ctx);
        self.check_done(ctx);
    }

    fn on_completion(&mut self, ctx: &mut dyn ProgramCtx, completion: Completion) {
        match completion {
            Completion::SendDone { token } => {
                let (kind, _, _) = unpack_token(token);
                debug_assert_eq!(kind, KIND_SEND);
                self.outstanding_sends -= 1;
                self.sends_done += 1;
                self.push_sends(ctx);
            }
            Completion::RecvDone { src, data, .. } => {
                self.recvs_done += 1;
                if let (Some(res), Some(bytes)) = (self.result.as_mut(), data.bytes()) {
                    let (lo, hi) = block_range(self.msg, self.n, src as u64);
                    debug_assert_eq!((hi - lo) as usize, bytes.len());
                    res[lo as usize..hi as usize].copy_from_slice(bytes);
                }
                self.push_recvs(ctx);
            }
            other => panic!("alltoall got {other:?}"),
        }
        self.check_done(ctx);
    }
}

/// Token type used in tests below (kept for symmetry with other modules).
#[allow(dead_code)]
fn _token_type(_: Token) {}

#[cfg(test)]
mod tests {
    use super::*;
    use adapt_mpi::World;
    use adapt_noise::ClusterNoise;
    use adapt_topology::profiles;

    fn run_alltoall(n: u32, msg: u64, sends: u32, recvs: u32) {
        let contributions: Arc<Vec<Bytes>> = Arc::new(
            (0..n as u64)
                .map(|r| {
                    Bytes::from(
                        (0..msg)
                            .map(|i| ((r * 97 + i * 13) % 251) as u8)
                            .collect::<Vec<_>>(),
                    )
                })
                .collect(),
        );
        let spec = AlltoallSpec {
            nranks: n,
            msg_bytes: msg,
            cfg: AdaptConfig::default().with_outstanding(sends, recvs),
            data: Some(contributions.clone()),
        };
        let world = World::cpu(profiles::minicluster(3, 2, 4), n, ClusterNoise::silent(n));
        let res = world.try_run(spec.programs()).unwrap();
        for (r, p) in res.programs.into_iter().enumerate() {
            let any: Box<dyn std::any::Any> = p;
            let a = any.downcast::<AdaptAlltoall>().unwrap();
            let got = a.result().unwrap();
            // Block q of rank r's result == block r of rank q's buffer.
            for q in 0..n as u64 {
                let (lo, hi) = block_range(msg, n as u64, r as u64);
                let expected = &contributions[q as usize][lo as usize..hi as usize];
                let (dlo, dhi) = block_range(msg, n as u64, q);
                assert_eq!(
                    &got[dlo as usize..dhi as usize],
                    expected,
                    "rank {r} block from {q}"
                );
            }
        }
    }

    #[test]
    fn alltoall_exchanges_every_block() {
        run_alltoall(2, 1000, 4, 8);
        run_alltoall(5, 7775, 2, 4);
        run_alltoall(8, 40_000, 4, 8);
        run_alltoall(13, 1300, 3, 6);
    }

    #[test]
    #[should_panic(expected = "divide evenly")]
    fn alltoall_rejects_ragged_buffers() {
        let _ = AlltoallSpec {
            nranks: 3,
            msg_bytes: 1000,
            cfg: AdaptConfig::default(),
            data: None,
        }
        .programs();
    }

    #[test]
    fn alltoall_synthetic_large() {
        let spec = AlltoallSpec {
            nranks: 32,
            msg_bytes: 8 << 20,
            cfg: AdaptConfig::default(),
            data: None,
        };
        let world = World::cpu(profiles::minicluster(4, 2, 4), 32, ClusterNoise::silent(32));
        let res = world.try_run(spec.programs()).unwrap();
        assert!(res.makespan.as_nanos() > 0);
        assert_eq!(res.stats.messages, 32 * 31);
    }

    #[test]
    fn single_rank_alltoall_is_local() {
        let data = Bytes::from(vec![7u8; 100]);
        let spec = AlltoallSpec {
            nranks: 1,
            msg_bytes: 100,
            cfg: AdaptConfig::default(),
            data: Some(Arc::new(vec![data.clone()])),
        };
        let world = World::cpu(profiles::minicluster(1, 1, 1), 1, ClusterNoise::silent(1));
        let res = world.try_run(spec.programs()).unwrap();
        let p: Box<dyn std::any::Any> = res.programs.into_iter().next().unwrap();
        let a = p.downcast::<AdaptAlltoall>().unwrap();
        assert_eq!(a.result().unwrap(), data.to_vec());
    }
}
