//! Event-driven dissemination barrier and ring allgather — more of the §7
//! "coverage" extensions.
//!
//! The dissemination barrier runs ⌈log₂ n⌉ rounds; in round `k` rank `r`
//! signals `(r + 2^k) mod n` and proceeds when the matching signal from
//! `(r − 2^k) mod n` arrives. Rounds are data dependencies (a rank cannot
//! signal round `k+1` before completing round `k`), so this is already
//! Waitall-free.
//!
//! The ring allgather is the allgather phase of
//! [`crate::allreduce::AdaptAllreduce`] standalone: every rank's block
//! makes an independent (n−1)-hop journey.

use crate::config::{pack_token, unpack_token, AdaptConfig};
use adapt_mpi::{program::ANY_TAG, Completion, Payload, ProgramCtx, RankProgram, Tag};
use bytes::Bytes;
use std::collections::VecDeque;
use std::sync::Arc;

const KIND_SEND: u8 = 1;
const KIND_RECV: u8 = 2;

/// Description of a dissemination barrier.
#[derive(Clone, Copy)]
pub struct BarrierSpec {
    /// Number of ranks.
    pub nranks: u32,
}

impl BarrierSpec {
    /// Instantiate the per-rank programs.
    pub fn programs(&self) -> Vec<Box<dyn RankProgram>> {
        (0..self.nranks)
            .map(|r| Box::new(AdaptBarrier::new(self.nranks, r)) as Box<dyn RankProgram>)
            .collect()
    }
}

/// One rank's dissemination barrier.
pub struct AdaptBarrier {
    rank: u32,
    n: u32,
    rounds: u32,
    round: u32,
    /// Signals that arrived early (round index).
    early: Vec<u32>,
    send_pending: bool,
    recv_pending: bool,
    finished: bool,
    /// Completion time, for inspection after the run.
    pub finished_at: Option<adapt_sim::time::Time>,
}

impl AdaptBarrier {
    fn new(n: u32, rank: u32) -> AdaptBarrier {
        let rounds = 32 - (n - 1).leading_zeros();
        AdaptBarrier {
            rank,
            n,
            rounds: if n == 1 { 0 } else { rounds },
            round: 0,
            early: Vec::new(),
            send_pending: false,
            recv_pending: false,
            finished: false,
            finished_at: None,
        }
    }

    fn start_round(&mut self, ctx: &mut dyn ProgramCtx) {
        loop {
            if self.round == self.rounds {
                if !self.finished {
                    self.finished = true;
                    self.finished_at = Some(ctx.now());
                    ctx.finish();
                }
                return;
            }
            let k = self.round;
            let dist = 1u32 << k;
            let to = (self.rank + dist) % self.n;
            let from = (self.rank + self.n - dist % self.n) % self.n;
            self.send_pending = true;
            ctx.isend(
                to,
                k,
                Payload::Synthetic(0),
                pack_token(KIND_SEND, 0, k as u64),
            );
            if let Some(pos) = self.early.iter().position(|&e| e == k) {
                self.early.swap_remove(pos);
                self.recv_pending = false;
            } else {
                self.recv_pending = true;
                ctx.irecv(from, k, pack_token(KIND_RECV, 0, k as u64));
            }
            if self.send_pending || self.recv_pending {
                return;
            }
            self.round += 1;
        }
    }

    fn try_advance(&mut self, ctx: &mut dyn ProgramCtx) {
        if !self.send_pending && !self.recv_pending {
            self.round += 1;
            self.start_round(ctx);
        }
    }
}

impl RankProgram for AdaptBarrier {
    fn on_start(&mut self, ctx: &mut dyn ProgramCtx) {
        self.start_round(ctx);
    }

    fn on_completion(&mut self, ctx: &mut dyn ProgramCtx, completion: Completion) {
        match completion {
            Completion::SendDone { token } => {
                let (kind, _, k) = unpack_token(token);
                debug_assert_eq!(kind, KIND_SEND);
                debug_assert_eq!(k, self.round as u64);
                self.send_pending = false;
            }
            Completion::RecvDone { tag, .. } => {
                if tag == self.round {
                    self.recv_pending = false;
                } else {
                    // A faster peer signalled a future round already.
                    debug_assert!(tag > self.round);
                    self.early.push(tag);
                }
            }
            other => panic!("barrier got {other:?}"),
        }
        self.try_advance(ctx);
    }
}

/// Description of one ADAPT ring allgather.
#[derive(Clone)]
pub struct AllgatherSpec {
    /// Number of ranks.
    pub nranks: u32,
    /// Total gathered size (each rank contributes its ~`msg/n` block).
    pub msg_bytes: u64,
    /// Pipeline configuration.
    pub cfg: AdaptConfig,
    /// Real per-rank block contributions (`None` = synthetic).
    pub data: Option<Arc<Vec<Bytes>>>,
}

impl AllgatherSpec {
    /// Instantiate the per-rank programs.
    pub fn programs(&self) -> Vec<Box<dyn RankProgram>> {
        (0..self.nranks)
            .map(|r| Box::new(AdaptAllgather::new(self, r)) as Box<dyn RankProgram>)
            .collect()
    }
}

fn block_range(msg: u64, n: u64, i: u64) -> (u64, u64) {
    let off = |i: u64| -> u64 {
        let base = msg / n;
        let rem = msg % n;
        i * base + i.min(rem)
    };
    (off(i), off(i + 1))
}

/// One rank's event-driven ring allgather.
pub struct AdaptAllgather {
    rank: u32,
    n: u64,
    msg: u64,
    cfg: AdaptConfig,
    real: bool,
    result: Option<Vec<u8>>,
    have: u64,
    queue: VecDeque<(Tag, Payload)>,
    outstanding: u32,
    sends_done: u64,
    recvs_posted: u64,
    recvs_done: u64,
    finished: bool,
    /// Completion time, for inspection after the run.
    pub finished_at: Option<adapt_sim::time::Time>,
}

impl AdaptAllgather {
    fn new(spec: &AllgatherSpec, rank: u32) -> AdaptAllgather {
        let n = spec.nranks as u64;
        let mut result = spec
            .data
            .is_some()
            .then(|| vec![0u8; spec.msg_bytes as usize]);
        if let (Some(res), Some(contribs)) = (result.as_mut(), spec.data.as_deref()) {
            let (lo, hi) = block_range(spec.msg_bytes, n, rank as u64);
            let own = &contribs[rank as usize];
            assert_eq!(own.len() as u64, hi - lo, "contribution size");
            res[lo as usize..hi as usize].copy_from_slice(own);
        }
        AdaptAllgather {
            rank,
            n,
            msg: spec.msg_bytes,
            cfg: spec.cfg,
            real: spec.data.is_some(),
            result,
            have: 1,
            queue: VecDeque::new(),
            outstanding: 0,
            sends_done: 0,
            recvs_posted: 0,
            recvs_done: 0,
            finished: false,
            finished_at: None,
        }
    }

    fn block_payload(&self, b: u64) -> Payload {
        let (lo, hi) = block_range(self.msg, self.n, b);
        match &self.result {
            Some(res) => Payload::from(res[lo as usize..hi as usize].to_vec()),
            None => Payload::Synthetic(hi - lo),
        }
    }

    fn push_sends(&mut self, ctx: &mut dyn ProgramCtx) {
        let next = ((self.rank as u64 + 1) % self.n) as u32;
        while self.outstanding < self.cfg.outstanding_sends {
            let Some((tag, payload)) = self.queue.pop_front() else {
                return;
            };
            self.outstanding += 1;
            ctx.isend(next, tag, payload, pack_token(KIND_SEND, 0, tag as u64));
        }
    }

    fn push_recvs(&mut self, ctx: &mut dyn ProgramCtx) {
        let prev = ((self.rank as u64 + self.n - 1) % self.n) as u32;
        let total = self.n - 1;
        while self.recvs_posted < total
            && self.recvs_posted - self.recvs_done < self.cfg.outstanding_recvs as u64
        {
            let idx = self.recvs_posted;
            self.recvs_posted += 1;
            ctx.irecv(prev, ANY_TAG, pack_token(KIND_RECV, 0, idx));
        }
    }

    fn check_done(&mut self, ctx: &mut dyn ProgramCtx) {
        if self.finished {
            return;
        }
        if self.have == self.n && self.sends_done == self.n - 1 {
            self.finished = true;
            self.finished_at = Some(ctx.now());
            ctx.finish();
        }
    }

    /// The gathered vector (real mode, after the run).
    pub fn result(&self) -> Option<Vec<u8>> {
        self.result.clone()
    }
}

impl RankProgram for AdaptAllgather {
    fn on_start(&mut self, ctx: &mut dyn ProgramCtx) {
        if self.n == 1 {
            self.finished = true;
            self.finished_at = Some(ctx.now());
            ctx.finish();
            return;
        }
        self.push_recvs(ctx);
        // The own block starts its (n−1)-hop journey.
        let b = self.rank as u64;
        let payload = self.block_payload(b);
        self.queue.push_back((b as Tag, payload));
        self.push_sends(ctx);
        self.check_done(ctx);
    }

    fn on_completion(&mut self, ctx: &mut dyn ProgramCtx, completion: Completion) {
        match completion {
            Completion::SendDone { .. } => {
                self.outstanding -= 1;
                self.sends_done += 1;
                self.push_sends(ctx);
            }
            Completion::RecvDone { tag, data, .. } => {
                self.recvs_done += 1;
                let b = tag as u64;
                let (lo, hi) = block_range(self.msg, self.n, b);
                if let (Some(res), Some(bytes)) = (self.result.as_mut(), data.bytes()) {
                    res[lo as usize..hi as usize].copy_from_slice(bytes);
                }
                debug_assert!(self.real == data.bytes().is_some());
                self.have += 1;
                // Forward unless the successor is the block's origin.
                if (self.rank as u64 + 1) % self.n != b {
                    self.queue.push_back((tag, data));
                    self.push_sends(ctx);
                }
                self.push_recvs(ctx);
            }
            other => panic!("allgather got {other:?}"),
        }
        self.check_done(ctx);
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use adapt_mpi::World;
    use adapt_noise::ClusterNoise;
    use adapt_topology::profiles;

    #[test]
    fn barrier_completes_for_any_rank_count() {
        for n in [1u32, 2, 3, 7, 16, 33] {
            let world = World::cpu(
                profiles::minicluster(4, 2, 8),
                n.min(64),
                ClusterNoise::silent(n.min(64)),
            );
            let res = world.try_run(BarrierSpec { nranks: n }.programs()).unwrap();
            assert!(res.makespan.as_micros_f64() < 1_000.0, "n={n}");
        }
    }

    #[test]
    fn barrier_is_a_synchronization_point() {
        // A rank that computes for 1 ms before entering the barrier holds
        // everyone back: all ranks finish at ≥ 1 ms.
        use adapt_mpi::{Op, Token};
        struct LateBarrier {
            inner: AdaptBarrier,
            delayed: bool,
            started: bool,
        }
        impl RankProgram for LateBarrier {
            fn on_start(&mut self, ctx: &mut dyn ProgramCtx) {
                if self.delayed {
                    ctx.post(Op::Compute {
                        work: adapt_sim::time::Duration::from_millis(1),
                        token: Token(u64::MAX - 7),
                    });
                } else {
                    self.started = true;
                    self.inner.on_start(ctx);
                }
            }
            fn on_completion(&mut self, ctx: &mut dyn ProgramCtx, c: Completion) {
                if !self.started {
                    self.started = true;
                    self.inner.on_start(ctx);
                    return;
                }
                self.inner.on_completion(ctx, c);
            }
        }
        let n = 8u32;
        let world = World::cpu(profiles::minicluster(2, 2, 2), n, ClusterNoise::silent(n));
        let programs: Vec<Box<dyn RankProgram>> = (0..n)
            .map(|r| {
                Box::new(LateBarrier {
                    inner: AdaptBarrier::new(n, r),
                    delayed: r == 3,
                    started: false,
                }) as Box<dyn RankProgram>
            })
            .collect();
        let res = world.try_run(programs).unwrap();
        for (r, t) in res.per_rank_finish.iter().enumerate() {
            assert!(
                t.as_millis_f64() >= 1.0,
                "rank {r} left the barrier at {t} before the straggler"
            );
        }
    }

    #[test]
    fn allgather_assembles_all_blocks_everywhere() {
        for n in [2u32, 5, 8, 13] {
            let msg = 40_000u64;
            let contributions: Vec<Bytes> = (0..n)
                .map(|r| {
                    let (lo, hi) = block_range(msg, n as u64, r as u64);
                    Bytes::from(
                        (lo..hi)
                            .map(|i| ((i * 7 + r as u64) % 251) as u8)
                            .collect::<Vec<_>>(),
                    )
                })
                .collect();
            let mut expected = Vec::new();
            for c in &contributions {
                expected.extend_from_slice(c);
            }
            let spec = AllgatherSpec {
                nranks: n,
                msg_bytes: msg,
                cfg: AdaptConfig::default(),
                data: Some(Arc::new(contributions)),
            };
            let world = World::cpu(profiles::minicluster(4, 2, 4), n, ClusterNoise::silent(n));
            let res = world.try_run(spec.programs()).unwrap();
            for (r, p) in res.programs.into_iter().enumerate() {
                let any: Box<dyn std::any::Any> = p;
                let a = any.downcast::<AdaptAllgather>().unwrap();
                assert_eq!(a.result().unwrap(), expected, "rank {r} of {n}");
            }
        }
    }
}
