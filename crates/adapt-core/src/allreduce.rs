//! ADAPT event-driven ring allreduce (and allgather) — the "increasing
//! the collective communications coverage" direction of the paper's §7.
//!
//! The bandwidth-optimal ring algorithm decomposes naturally into ADAPT's
//! building blocks: each of the `n` message blocks makes an independent
//! 2(n−1)-hop journey around the ring (reduce-scatter phase folding
//! contributions, then allgather phase distributing the finished block).
//! Blocks never synchronize with each other — every hop is a non-blocking
//! send posted from the completion callback of the receive that enabled
//! it, with an `N`-deep send window to the successor and an `M`-deep
//! wildcard receive window from the predecessor.

use crate::config::{pack_token, unpack_token, AdaptConfig};
use adapt_mpi::{
    combine, program::ANY_TAG, Completion, DType, Payload, ProgramCtx, RankProgram, ReduceOp, Tag,
};
use bytes::Bytes;
use std::collections::VecDeque;
use std::sync::Arc;

const KIND_SEND: u8 = 1;
const KIND_RECV: u8 = 2;
const PHASE_RS: u32 = 0;
const PHASE_AG: u32 = 1;

/// Block `i`'s byte range, partitioning `msg` into `n` blocks aligned to
/// `grain` bytes (the element size — splitting an element across blocks
/// would corrupt the fold).
fn block_range(msg: u64, n: u64, grain: u64, i: u64) -> (u64, u64) {
    let units = msg / grain;
    let off = |i: u64| -> u64 {
        let base = units / n;
        let rem = units % n;
        (i * base + i.min(rem)) * grain
    };
    (off(i), off(i + 1))
}

/// Description of one ADAPT ring allreduce.
#[derive(Clone)]
pub struct AllreduceSpec {
    /// Number of ranks.
    pub nranks: u32,
    /// Message size in bytes (every rank contributes and receives this).
    pub msg_bytes: u64,
    /// Pipeline configuration (`outstanding_sends`/`_recvs` window the
    /// per-neighbour block streams; blocks are the pipelining granularity).
    pub cfg: AdaptConfig,
    /// Real inputs: `(op, dtype, contributions[r])`; `None` = synthetic.
    pub data: Option<(ReduceOp, DType, Arc<Vec<Bytes>>)>,
}

impl AllreduceSpec {
    /// Instantiate the per-rank programs.
    pub fn programs(&self) -> Vec<Box<dyn RankProgram>> {
        (0..self.nranks)
            .map(|r| Box::new(AdaptAllreduce::new(self, r)) as Box<dyn RankProgram>)
            .collect()
    }
}

/// One rank's event-driven ring allreduce.
pub struct AdaptAllreduce {
    rank: u32,
    n: u64,
    msg: u64,
    grain: u64,
    cfg: AdaptConfig,
    real: Option<(ReduceOp, DType)>,
    /// Own contribution (real mode).
    own: Option<Bytes>,
    /// Final result (real mode), assembled block by block.
    result: Option<Vec<u8>>,
    /// Blocks finalized on this rank.
    finals: u64,
    /// Outgoing block queue to the successor: `(tag, payload)`.
    queue: VecDeque<(Tag, Payload)>,
    outstanding: u32,
    sends_done: u64,
    sends_total: u64,
    recvs_posted: u64,
    recvs_done: u64,
    recvs_total: u64,
    /// Folds in flight: `(block, folded payload)` awaiting their modelled
    /// compute completion before forwarding.
    pending_folds: Vec<(u64, Payload)>,
    finished: bool,
    /// Completion time, for inspection after the run.
    pub finished_at: Option<adapt_sim::time::Time>,
}

impl AdaptAllreduce {
    fn new(spec: &AllreduceSpec, rank: u32) -> AdaptAllreduce {
        let n = spec.nranks as u64;
        let (real, own) = match &spec.data {
            None => (None, None),
            Some((op, dtype, contributions)) => {
                let own = contributions[rank as usize].clone();
                assert_eq!(own.len() as u64, spec.msg_bytes, "contribution size");
                (Some((*op, *dtype)), Some(own))
            }
        };
        let grain = real.map(|(_, dtype)| dtype.size() as u64).unwrap_or(1);
        assert_eq!(spec.msg_bytes % grain, 0, "message not whole elements");
        AdaptAllreduce {
            rank,
            n,
            msg: spec.msg_bytes,
            grain,
            cfg: spec.cfg,
            real,
            own,
            result: real.is_some().then(|| vec![0u8; spec.msg_bytes as usize]),
            finals: 0,
            queue: VecDeque::new(),
            outstanding: 0,
            sends_done: 0,
            sends_total: 2 * (n - 1),
            recvs_posted: 0,
            recvs_done: 0,
            recvs_total: 2 * (n - 1),
            pending_folds: Vec::new(),
            finished: false,
            finished_at: None,
        }
    }

    fn next_rank(&self) -> u32 {
        ((self.rank as u64 + 1) % self.n) as u32
    }

    fn prev_rank(&self) -> u32 {
        ((self.rank as u64 + self.n - 1) % self.n) as u32
    }

    /// Own contribution of block `b` (real mode).
    fn own_block(&self, b: u64) -> Option<&[u8]> {
        let (lo, hi) = block_range(self.msg, self.n, self.grain, b);
        self.own.as_ref().map(|o| &o[lo as usize..hi as usize])
    }

    fn block_len(&self, b: u64) -> u64 {
        let (lo, hi) = block_range(self.msg, self.n, self.grain, b);
        hi - lo
    }

    /// Record a finalized block (real mode stores it into the result).
    fn finalize(&mut self, b: u64, data: &Payload) {
        let (lo, hi) = block_range(self.msg, self.n, self.grain, b);
        if let (Some(result), Some(bytes)) = (self.result.as_mut(), data.bytes()) {
            result[lo as usize..hi as usize].copy_from_slice(bytes);
        } else if let (Some(result), None) = (self.result.as_mut(), data.bytes()) {
            // Synthetic payload in real mode cannot happen (same spec).
            let _ = result;
            unreachable!("payload mode mismatch");
        }
        let _ = (lo, hi);
        self.finals += 1;
    }

    fn enqueue(&mut self, ctx: &mut dyn ProgramCtx, phase: u32, b: u64, payload: Payload) {
        self.queue.push_back(((2 * b as u32) + phase, payload));
        self.push_sends(ctx);
    }

    fn push_sends(&mut self, ctx: &mut dyn ProgramCtx) {
        while self.outstanding < self.cfg.outstanding_sends {
            let Some((tag, payload)) = self.queue.pop_front() else {
                return;
            };
            self.outstanding += 1;
            ctx.isend(
                self.next_rank(),
                tag,
                payload,
                pack_token(KIND_SEND, 0, tag as u64),
            );
        }
    }

    fn push_recvs(&mut self, ctx: &mut dyn ProgramCtx) {
        while self.recvs_posted < self.recvs_total
            && self.recvs_posted - self.recvs_done < self.cfg.outstanding_recvs as u64
        {
            let idx = self.recvs_posted;
            self.recvs_posted += 1;
            ctx.irecv(self.prev_rank(), ANY_TAG, pack_token(KIND_RECV, 0, idx));
        }
    }

    fn check_done(&mut self, ctx: &mut dyn ProgramCtx) {
        if self.finished {
            return;
        }
        if self.finals == self.n && self.sends_done == self.sends_total {
            self.finished = true;
            self.finished_at = Some(ctx.now());
            ctx.finish();
        }
    }

    /// The allreduced vector on this rank (real mode, after the run).
    pub fn result(&self) -> Option<Vec<u8>> {
        self.result.clone()
    }
}

impl RankProgram for AdaptAllreduce {
    fn on_start(&mut self, ctx: &mut dyn ProgramCtx) {
        if self.n == 1 {
            // Trivial: the result is the own contribution.
            if let (Some(result), Some(own)) = (self.result.as_mut(), self.own.as_ref()) {
                result.copy_from_slice(own);
            }
            self.finals = 1;
            self.finished = true;
            self.finished_at = Some(ctx.now());
            ctx.finish();
            return;
        }
        self.push_recvs(ctx);
        // Initiate the reduce-scatter journey of block (rank − 1) mod n.
        let b = (self.rank as u64 + self.n - 1) % self.n;
        let payload = match self.own_block(b) {
            Some(bytes) => Payload::from(bytes.to_vec()),
            None => Payload::Synthetic(self.block_len(b)),
        };
        self.enqueue(ctx, PHASE_RS, b, payload);
        self.check_done(ctx);
    }

    fn on_completion(&mut self, ctx: &mut dyn ProgramCtx, completion: Completion) {
        match completion {
            Completion::SendDone { token } => {
                let (kind, _, _) = unpack_token(token);
                debug_assert_eq!(kind, KIND_SEND);
                self.outstanding -= 1;
                self.sends_done += 1;
                self.push_sends(ctx);
            }
            Completion::RecvDone { tag, data, .. } => {
                self.recvs_done += 1;
                let b = (tag / 2) as u64;
                let phase = tag % 2;
                if phase == PHASE_RS {
                    // Fold the own contribution into the travelling partial.
                    let folded = match (&self.real, data.bytes(), self.own_block(b)) {
                        (Some((op, dtype)), Some(partial), Some(mine)) => {
                            let mut acc = partial.to_vec();
                            combine(*op, *dtype, &mut acc, mine);
                            Payload::from(acc)
                        }
                        _ => Payload::Synthetic(self.block_len(b)),
                    };
                    // Charge the fold cost; forwarding continues from the
                    // compute completion to keep the data dependency honest.
                    ctx.cpu_reduce(self.block_len(b), pack_token(3, phase, b));
                    // Stash the folded payload until the fold "completes".
                    self.pending_folds.push((b, folded));
                } else {
                    // Allgather: the block is final.
                    self.finalize(b, &data);
                    if (self.rank as u64 + 1) % self.n != b {
                        self.enqueue(ctx, PHASE_AG, b, data.clone());
                    }
                }
                self.push_recvs(ctx);
            }
            Completion::ComputeDone { token } => {
                let (_, _phase, b) = unpack_token(token);
                let pos = self
                    .pending_folds
                    .iter()
                    .position(|(pb, _)| *pb == b)
                    .expect("fold pending");
                // Stash order is irrelevant (blocks are unique keys), so the
                // O(1) removal is safe.
                let (_, folded) = self.pending_folds.swap_remove(pos);
                if self.rank as u64 == b {
                    // Journey complete on this rank: finalize and start the
                    // allgather phase.
                    self.finalize(b, &folded);
                    self.enqueue(ctx, PHASE_AG, b, folded);
                } else {
                    self.enqueue(ctx, PHASE_RS, b, folded);
                }
            }
            other => panic!("allreduce got {other:?}"),
        }
        self.check_done(ctx);
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use adapt_mpi::{bytes_to_f64, f64_to_bytes, World};
    use adapt_noise::ClusterNoise;
    use adapt_topology::profiles;

    fn run_real(n: u32, elems: usize) {
        let contributions: Arc<Vec<Bytes>> = Arc::new(
            (0..n)
                .map(|r| {
                    let v: Vec<f64> = (0..elems)
                        .map(|i| ((r as usize * 3 + i) % 53) as f64)
                        .collect();
                    Bytes::from(f64_to_bytes(&v))
                })
                .collect(),
        );
        let expected: Vec<f64> = (0..elems)
            .map(|i| (0..n).map(|r| ((r as usize * 3 + i) % 53) as f64).sum())
            .collect();
        let spec = AllreduceSpec {
            nranks: n,
            msg_bytes: (elems * 8) as u64,
            cfg: AdaptConfig::default(),
            data: Some((ReduceOp::Sum, DType::F64, contributions)),
        };
        let world = World::cpu(profiles::minicluster(4, 2, 4), n, ClusterNoise::silent(n));
        let res = world.try_run(spec.programs()).unwrap();
        for (r, p) in res.programs.into_iter().enumerate() {
            let any: Box<dyn std::any::Any> = p;
            let a = any.downcast::<AdaptAllreduce>().unwrap();
            assert_eq!(
                bytes_to_f64(&a.result().unwrap()),
                expected,
                "rank {r} of {n}"
            );
        }
    }

    #[test]
    fn allreduce_matches_sequential_fold_on_every_rank() {
        run_real(2, 100);
        run_real(5, 999);
        run_real(8, 4096);
        run_real(13, 777);
    }

    #[test]
    fn allreduce_synthetic_large() {
        let spec = AllreduceSpec {
            nranks: 32,
            msg_bytes: 16 << 20,
            cfg: AdaptConfig::default(),
            data: None,
        };
        let world = World::cpu(profiles::minicluster(4, 2, 4), 32, ClusterNoise::silent(32));
        let res = world.try_run(spec.programs()).unwrap();
        assert!(res.makespan.as_nanos() > 0);
        // Ring allreduce moves ~2x the message through each rank pair.
        assert!(res.stats.delivered_bytes >= 2 * (16 << 20));
    }

    #[test]
    fn single_rank_allreduce_is_identity() {
        let data: Vec<f64> = (0..64).map(|x| x as f64).collect();
        let spec = AllreduceSpec {
            nranks: 1,
            msg_bytes: 64 * 8,
            cfg: AdaptConfig::default(),
            data: Some((
                ReduceOp::Sum,
                DType::F64,
                Arc::new(vec![Bytes::from(f64_to_bytes(&data))]),
            )),
        };
        let world = World::cpu(profiles::minicluster(1, 1, 1), 1, ClusterNoise::silent(1));
        let res = world.try_run(spec.programs()).unwrap();
        let p: Box<dyn std::any::Any> = res.programs.into_iter().next().unwrap();
        let a = p.downcast::<AdaptAllreduce>().unwrap();
        assert_eq!(bytes_to_f64(&a.result().unwrap()), data);
    }
}
