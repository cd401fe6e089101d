//! ADAPT event-driven gather: every rank contributes its block, subtree
//! ranges funnel to the root through per-child independent windows with no
//! Waitall (the all-to-one counterpart of [`crate::scatter`]).
//!
//! A rank's accumulated range fills from its own block plus its children's
//! subtree ranges; any fully-filled segment of the range is immediately
//! eligible for forwarding, in arrival order — segments never wait for
//! unrelated bytes.

use crate::config::{pack_token, unpack_token, AdaptConfig};
use crate::segments::BlockPartition;
use crate::tree::{Tree, TreeKind};
use adapt_mpi::{program::ANY_TAG, Completion, Payload, ProgramCtx, RankProgram, Tag};
use bytes::Bytes;
use std::sync::Arc;

const KIND_SEND: u8 = 1;
const KIND_RECV: u8 = 2;

/// Description of one ADAPT gather (root = rank 0, binomial routing).
#[derive(Clone)]
pub struct GatherSpec {
    /// Number of ranks.
    pub nranks: u32,
    /// Total gathered size (each rank contributes its ~`msg/n` block).
    pub msg_bytes: u64,
    /// Pipeline configuration.
    pub cfg: AdaptConfig,
    /// Real per-rank contributions (`contributions[r]` must have rank
    /// `r`'s block length); `None` = synthetic.
    pub data: Option<Arc<Vec<Bytes>>>,
}

impl GatherSpec {
    /// Instantiate the per-rank programs.
    pub fn programs(&self) -> Vec<Box<dyn RankProgram>> {
        let tree = Arc::new(Tree::build(TreeKind::Binomial, self.nranks, 0));
        (0..self.nranks)
            .map(|r| Box::new(AdaptGather::new(self, &tree, r)) as Box<dyn RankProgram>)
            .collect()
    }
}

/// One rank's event-driven gather.
pub struct AdaptGather {
    n: u64,
    msg: u64,
    parent: Option<u32>,
    children: Vec<u32>,
    cfg: AdaptConfig,
    /// The subtree range this rank accumulates.
    range: (u64, u64),
    buffer: Option<Vec<u8>>,
    /// Per own-grid segment: bytes filled so far.
    filled: Vec<u64>,
    /// Segments fully filled, in completion order (ready to forward).
    ready: Vec<u64>,
    cursor: usize,
    outstanding: u32,
    sends_done: u64,
    /// Per child: receives posted / arrived.
    child_ranges: Vec<(u64, u64)>,
    posted: Vec<u64>,
    arrived: Vec<u64>,
    finished: bool,
    /// Completion time, for inspection after the run.
    pub finished_at: Option<adapt_sim::time::Time>,
}

impl AdaptGather {
    fn new(spec: &GatherSpec, tree: &Tree, rank: u32) -> AdaptGather {
        let n = spec.nranks as u64;
        let part = BlockPartition::new(spec.msg_bytes, n);
        let (lo, hi) = part.subtree(rank as u64);
        let children = tree.children(rank).to_vec();
        let child_ranges: Vec<(u64, u64)> =
            children.iter().map(|&c| part.subtree(c as u64)).collect();
        let seg = spec.cfg.seg_size;
        let nseg = (hi - lo).div_ceil(seg) as usize;
        let mut g = AdaptGather {
            n,
            msg: spec.msg_bytes,
            parent: tree.parent(rank),
            outstanding: 0,
            sends_done: 0,
            posted: vec![0; children.len()],
            arrived: vec![0; children.len()],
            children,
            cfg: spec.cfg,
            range: (lo, hi),
            buffer: spec.data.is_some().then(|| vec![0u8; (hi - lo) as usize]),
            filled: vec![0; nseg],
            ready: Vec::new(),
            cursor: 0,
            child_ranges,
            finished: false,
            finished_at: None,
        };
        // The own block is present from the start.
        let (own_lo, own_hi) = part.block(rank as u64);
        if let (Some(buf), Some(contribs)) = (g.buffer.as_mut(), spec.data.as_deref()) {
            let own = &contribs[rank as usize];
            assert_eq!(own.len() as u64, own_hi - own_lo, "contribution size");
            buf[..own.len()].copy_from_slice(own);
        }
        g.fill(own_lo, own_hi - own_lo);
        g
    }

    /// Mark `[off, off+len)` filled; fully-filled segments become ready.
    fn fill(&mut self, off: u64, len: u64) {
        let seg = self.cfg.seg_size;
        let (lo, hi) = self.range;
        debug_assert!(off >= lo && off + len <= hi);
        let mut cur = off;
        let end = off + len;
        while cur < end {
            let idx = ((cur - lo) / seg) as usize;
            let seg_end = (lo + (idx as u64 + 1) * seg).min(hi);
            let take = seg_end.min(end) - cur;
            self.filled[idx] += take;
            let seg_len = seg_end - (lo + idx as u64 * seg);
            debug_assert!(self.filled[idx] <= seg_len);
            if self.filled[idx] == seg_len {
                self.ready.push(idx as u64);
            }
            cur += take;
        }
    }

    /// Keep the parent pipeline `N` deep.
    fn push_sends(&mut self, ctx: &mut dyn ProgramCtx) {
        let Some(parent) = self.parent else { return };
        let seg = self.cfg.seg_size;
        let (lo, hi) = self.range;
        while self.outstanding < self.cfg.outstanding_sends && self.cursor < self.ready.len() {
            let idx = self.ready[self.cursor];
            self.cursor += 1;
            self.outstanding += 1;
            let off = lo + idx * seg;
            let len = (hi - off).min(seg);
            let payload = match &self.buffer {
                Some(buf) => {
                    let rel = (off - lo) as usize;
                    Payload::from(buf[rel..rel + len as usize].to_vec())
                }
                None => Payload::Synthetic(len),
            };
            ctx.isend(parent, idx as Tag, payload, pack_token(KIND_SEND, 0, idx));
        }
    }

    fn push_recvs(&mut self, ctx: &mut dyn ProgramCtx, c: usize) {
        let (clo, chi) = self.child_ranges[c];
        let nseg = (chi - clo).div_ceil(self.cfg.seg_size);
        while self.posted[c] < nseg
            && self.posted[c] - self.arrived[c] < self.cfg.outstanding_recvs as u64
        {
            let idx = self.posted[c];
            self.posted[c] += 1;
            ctx.irecv(
                self.children[c],
                ANY_TAG,
                pack_token(KIND_RECV, c as u32, idx),
            );
        }
    }

    fn check_done(&mut self, ctx: &mut dyn ProgramCtx) {
        if self.finished {
            return;
        }
        let nseg = self.filled.len() as u64;
        let all_filled = self.ready.len() as u64 == nseg;
        let done = if self.parent.is_none() {
            all_filled
        } else {
            self.sends_done == nseg
        };
        if done {
            self.finished = true;
            self.finished_at = Some(ctx.now());
            ctx.finish();
        }
    }

    /// The fully gathered message (root, real mode, after the run).
    pub fn result(&self) -> Option<Vec<u8>> {
        if self.parent.is_some() {
            return None;
        }
        self.buffer.clone()
    }
}

impl RankProgram for AdaptGather {
    fn on_start(&mut self, ctx: &mut dyn ProgramCtx) {
        if self.msg == 0 || self.n == 1 {
            self.finished = true;
            self.finished_at = Some(ctx.now());
            ctx.finish();
            return;
        }
        for c in 0..self.children.len() {
            self.push_recvs(ctx, c);
        }
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
            Completion::RecvDone {
                token,
                src,
                tag,
                data,
            } => {
                let (kind, c, _) = unpack_token(token);
                debug_assert_eq!(kind, KIND_RECV);
                let c = c as usize;
                debug_assert_eq!(self.children[c], src);
                self.arrived[c] += 1;
                // The tag is the segment index in the child's grid.
                let (clo, chi) = self.child_ranges[c];
                let off = clo + tag as u64 * self.cfg.seg_size;
                let len = (chi - off).min(self.cfg.seg_size);
                debug_assert_eq!(len, data.len());
                if let (Some(buf), Some(bytes)) = (self.buffer.as_mut(), data.bytes()) {
                    let rel = (off - self.range.0) as usize;
                    buf[rel..rel + len as usize].copy_from_slice(bytes);
                }
                self.fill(off, len);
                self.push_recvs(ctx, c);
                self.push_sends(ctx);
            }
            other => panic!("gather got {other:?}"),
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

    fn run_gather(n: u32, msg: u64, seg: u64) {
        let contributions: Vec<Bytes> = (0..n)
            .map(|r| {
                let (lo, hi) = BlockPartition::new(msg, n as u64).block(r as u64);
                Bytes::from(
                    (lo..hi)
                        .map(|i| ((i * 13 + r as u64) % 251) as u8)
                        .collect::<Vec<_>>(),
                )
            })
            .collect();
        let mut expected = Vec::with_capacity(msg as usize);
        for c in &contributions {
            expected.extend_from_slice(c);
        }
        let spec = GatherSpec {
            nranks: n,
            msg_bytes: msg,
            cfg: AdaptConfig::default().with_seg_size(seg),
            data: Some(Arc::new(contributions)),
        };
        let world = World::cpu(profiles::minicluster(4, 2, 4), n, ClusterNoise::silent(n));
        let res = world.try_run(spec.programs()).unwrap();
        let root: Box<dyn std::any::Any> = res.programs.into_iter().next().unwrap();
        let root = root.downcast::<AdaptGather>().unwrap();
        assert_eq!(
            root.result().unwrap(),
            expected,
            "n={n} msg={msg} seg={seg}"
        );
    }

    #[test]
    fn gather_reassembles_all_blocks() {
        run_gather(8, 100_000, 4 * 1024);
        run_gather(13, 77_777, 2 * 1024);
        run_gather(5, 9_999, 512);
        run_gather(2, 100, 64);
    }

    #[test]
    fn gather_synthetic_mode_runs() {
        let spec = GatherSpec {
            nranks: 16,
            msg_bytes: 8 << 20,
            cfg: AdaptConfig::default(),
            data: None,
        };
        let world = World::cpu(profiles::minicluster(4, 2, 4), 16, ClusterNoise::silent(16));
        assert!(world.try_run(spec.programs()).unwrap().makespan.as_nanos() > 0);
    }

    #[test]
    fn single_rank_gather() {
        let spec = GatherSpec {
            nranks: 1,
            msg_bytes: 4096,
            cfg: AdaptConfig::default(),
            data: None,
        };
        let world = World::cpu(profiles::minicluster(1, 1, 1), 1, ClusterNoise::silent(1));
        assert!(world.try_run(spec.programs()).unwrap().makespan.as_nanos() < 1_000_000);
    }
}
