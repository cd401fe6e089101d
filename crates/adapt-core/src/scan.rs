//! ADAPT event-driven inclusive scan (`MPI_Scan`) — prefix reduction along
//! rank order, more §7 coverage (the paper cites Sanders et al.'s
//! broadcast/reduction/scan family as the advanced-tree frontier).
//!
//! Rank `r` ends with `op(x_0, ..., x_r)`. The linear-pipeline algorithm
//! segments the message: rank `r` receives the prefix-so-far for segment
//! `s` from rank `r−1`, folds its contribution, stores the result, and
//! forwards it to `r+1` — every segment's journey is independent, windowed
//! by `N` outstanding sends and `M` wildcard receives exactly like the
//! broadcast engine.

use crate::config::{pack_token, unpack_token, AdaptConfig};
use crate::segments::Segments;
use adapt_mpi::{
    combine, program::ANY_TAG, Completion, DType, Payload, ProgramCtx, RankProgram, ReduceOp, Tag,
};
use bytes::Bytes;
use std::sync::Arc;

const KIND_SEND: u8 = 1;
const KIND_RECV: u8 = 2;
const KIND_FOLD: u8 = 3;

/// Description of one ADAPT scan.
#[derive(Clone)]
pub struct ScanSpec {
    /// Number of ranks.
    pub nranks: u32,
    /// Message size in bytes.
    pub msg_bytes: u64,
    /// Pipeline configuration.
    pub cfg: AdaptConfig,
    /// Real inputs: `(op, dtype, contributions[r])`; `None` = synthetic.
    pub data: Option<(ReduceOp, DType, Arc<Vec<Bytes>>)>,
}

impl ScanSpec {
    /// Instantiate the per-rank programs.
    pub fn programs(&self) -> Vec<Box<dyn RankProgram>> {
        (0..self.nranks)
            .map(|r| Box::new(AdaptScan::new(self, r)) as Box<dyn RankProgram>)
            .collect()
    }
}

/// One rank's event-driven scan.
pub struct AdaptScan {
    rank: u32,
    n: u32,
    segs: Segments,
    cfg: AdaptConfig,
    real: Option<(ReduceOp, DType)>,
    /// This rank's running prefix (starts as its own contribution).
    acc: Option<Vec<u8>>,
    /// Per segment: prefix folded (ready to forward / final for this rank).
    folded: Vec<bool>,
    /// Segments ready to forward, in completion order.
    ready: Vec<u64>,
    cursor: usize,
    outstanding: u32,
    sends_done: u64,
    recvs_posted: u64,
    recvs_done: u64,
    folds_done: u64,
    finished: bool,
    /// Completion time, for inspection after the run.
    pub finished_at: Option<adapt_sim::time::Time>,
}

impl AdaptScan {
    fn new(spec: &ScanSpec, rank: u32) -> AdaptScan {
        let segs = Segments::new(spec.msg_bytes, spec.cfg.seg_size);
        let (real, acc) = match &spec.data {
            None => (None, None),
            Some((op, dtype, contributions)) => {
                let own = contributions[rank as usize].to_vec();
                assert_eq!(own.len() as u64, spec.msg_bytes, "contribution size");
                (Some((*op, *dtype)), Some(own))
            }
        };
        let nseg = segs.count();
        // Rank 0 has nothing to fold: every segment is final immediately.
        let (folded, ready, folds_done) = if rank == 0 {
            (vec![true; nseg as usize], (0..nseg).collect(), nseg)
        } else {
            (vec![false; nseg as usize], Vec::new(), 0)
        };
        AdaptScan {
            rank,
            n: spec.nranks,
            segs,
            cfg: spec.cfg,
            real,
            acc,
            folded,
            ready,
            cursor: 0,
            outstanding: 0,
            sends_done: 0,
            recvs_posted: 0,
            recvs_done: 0,
            folds_done,
            finished: false,
            finished_at: None,
        }
    }

    fn is_last(&self) -> bool {
        self.rank + 1 == self.n
    }

    fn seg_payload(&self, s: u64) -> Payload {
        match &self.acc {
            Some(acc) => {
                let off = self.segs.offset(s) as usize;
                let len = self.segs.len(s) as usize;
                Payload::from(acc[off..off + len].to_vec())
            }
            None => Payload::Synthetic(self.segs.len(s)),
        }
    }

    fn push_sends(&mut self, ctx: &mut dyn ProgramCtx) {
        if self.is_last() {
            return;
        }
        while self.outstanding < self.cfg.outstanding_sends && self.cursor < self.ready.len() {
            let seg = self.ready[self.cursor];
            self.cursor += 1;
            self.outstanding += 1;
            let payload = self.seg_payload(seg);
            ctx.isend(
                self.rank + 1,
                seg as Tag,
                payload,
                pack_token(KIND_SEND, 0, seg),
            );
        }
    }

    fn push_recvs(&mut self, ctx: &mut dyn ProgramCtx) {
        if self.rank == 0 {
            return;
        }
        while self.recvs_posted < self.segs.count()
            && self.recvs_posted - self.recvs_done < self.cfg.outstanding_recvs as u64
        {
            let idx = self.recvs_posted;
            self.recvs_posted += 1;
            ctx.irecv(self.rank - 1, ANY_TAG, pack_token(KIND_RECV, 0, idx));
        }
    }

    fn check_done(&mut self, ctx: &mut dyn ProgramCtx) {
        if self.finished {
            return;
        }
        let folded_all = self.folds_done == self.segs.count();
        let sent_all = self.is_last() || self.sends_done == self.segs.count();
        if folded_all && sent_all {
            self.finished = true;
            self.finished_at = Some(ctx.now());
            ctx.finish();
        }
    }

    /// This rank's inclusive prefix (real mode, after the run).
    pub fn result(&self) -> Option<Vec<u8>> {
        self.acc.clone()
    }
}

impl RankProgram for AdaptScan {
    fn on_start(&mut self, ctx: &mut dyn ProgramCtx) {
        if self.segs.count() == 0 {
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
                self.outstanding -= 1;
                self.sends_done += 1;
                self.push_sends(ctx);
            }
            Completion::RecvDone { tag, data, .. } => {
                self.recvs_done += 1;
                let seg = tag as u64;
                // Fold the incoming prefix (of ranks 0..r-1) into the own
                // contribution: acc[seg] = op(prefix, own).
                if let (Some((op, dtype)), Some(acc), Some(prefix)) =
                    (self.real, self.acc.as_mut(), data.bytes())
                {
                    let off = self.segs.offset(seg) as usize;
                    let len = self.segs.len(seg) as usize;
                    combine(op, dtype, &mut acc[off..off + len], prefix);
                }
                ctx.cpu_reduce(self.segs.len(seg), pack_token(KIND_FOLD, 0, seg));
                self.push_recvs(ctx);
            }
            Completion::ComputeDone { token } => {
                let (kind, _, seg) = unpack_token(token);
                debug_assert_eq!(kind, KIND_FOLD);
                debug_assert!(!self.folded[seg as usize]);
                self.folded[seg as usize] = true;
                self.folds_done += 1;
                self.ready.push(seg);
                self.push_sends(ctx);
            }
            other => panic!("scan got {other:?}"),
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

    fn run_scan(n: u32, elems: usize, seg: u64) {
        let contributions: Arc<Vec<Bytes>> = Arc::new(
            (0..n)
                .map(|r| {
                    let v: Vec<f64> = (0..elems)
                        .map(|i| ((r as usize * 7 + i) % 19) as f64)
                        .collect();
                    Bytes::from(f64_to_bytes(&v))
                })
                .collect(),
        );
        let spec = ScanSpec {
            nranks: n,
            msg_bytes: (elems * 8) as u64,
            cfg: AdaptConfig::default().with_seg_size(seg),
            data: Some((ReduceOp::Sum, DType::F64, contributions)),
        };
        let world = World::cpu(profiles::minicluster(3, 2, 4), n, ClusterNoise::silent(n));
        let res = world.try_run(spec.programs()).unwrap();
        for (r, p) in res.programs.into_iter().enumerate() {
            let any: Box<dyn std::any::Any> = p;
            let s = any.downcast::<AdaptScan>().unwrap();
            let expected: Vec<f64> = (0..elems)
                .map(|i| (0..=r).map(|q| ((q * 7 + i) % 19) as f64).sum())
                .collect();
            assert_eq!(
                bytes_to_f64(&s.result().unwrap()),
                expected,
                "rank {r} of {n}"
            );
        }
    }

    #[test]
    fn scan_computes_inclusive_prefixes() {
        run_scan(2, 100, 256);
        run_scan(7, 1000, 1024);
        run_scan(12, 3000, 4096);
    }

    #[test]
    fn scan_synthetic_pipelines() {
        let spec = ScanSpec {
            nranks: 16,
            msg_bytes: 4 << 20,
            cfg: AdaptConfig::default(),
            data: None,
        };
        let world = World::cpu(profiles::minicluster(4, 2, 2), 16, ClusterNoise::silent(16));
        let res = world.try_run(spec.programs()).unwrap();
        assert!(res.makespan.as_nanos() > 0);
        // Pipelining: the scan should take far less than 15 sequential
        // full-message hops.
        let one_hop_us = (4u64 << 20) as f64 / 10e9 * 1e6;
        assert!(
            res.makespan.as_micros_f64() < 15.0 * one_hop_us,
            "scan did not pipeline: {}",
            res.makespan
        );
    }

    #[test]
    fn single_rank_scan_is_identity() {
        let v: Vec<f64> = (0..64).map(|x| x as f64).collect();
        let spec = ScanSpec {
            nranks: 1,
            msg_bytes: 64 * 8,
            cfg: AdaptConfig::default(),
            data: Some((
                ReduceOp::Sum,
                DType::F64,
                Arc::new(vec![Bytes::from(f64_to_bytes(&v))]),
            )),
        };
        let world = World::cpu(profiles::minicluster(1, 1, 1), 1, ClusterNoise::silent(1));
        let res = world.try_run(spec.programs()).unwrap();
        let p: Box<dyn std::any::Any> = res.programs.into_iter().next().unwrap();
        let s = p.downcast::<AdaptScan>().unwrap();
        assert_eq!(bytes_to_f64(&s.result().unwrap()), v);
    }
}
