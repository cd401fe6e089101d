//! ADAPT event-driven scatter (§2.2.3: for other one-to-all and
//! all-to-one collectives, a process always needs to send or receive
//! data from other processes — the same basic building block applies).
//!
//! Scatter sends rank `v` its own block of the root's buffer; the tree
//! routes the contiguous range `[v, v + subtree(v))` through rank `v`.
//! Gather is the mirror image. Both use per-child independent windows and
//! no Waitall, like the broadcast engine; ranges large enough to need
//! pipelining are segmented.

use crate::config::{pack_token, unpack_token, AdaptConfig};
use crate::segments::BlockPartition;
use crate::tree::{Tree, TreeKind};
use adapt_mpi::{program::ANY_TAG, Completion, Payload, ProgramCtx, RankProgram, Tag};
use bytes::Bytes;
use std::sync::Arc;

const KIND_SEND: u8 = 1;
const KIND_RECV: u8 = 2;

/// Description of one ADAPT scatter (root = rank 0, binomial routing — the
/// shape under which subtree block ranges are contiguous).
#[derive(Clone)]
pub struct ScatterSpec {
    /// Number of ranks.
    pub nranks: u32,
    /// Total message size (each rank receives its ~`msg/n` block).
    pub msg_bytes: u64,
    /// Pipeline configuration (segmentation applies to each child range).
    pub cfg: AdaptConfig,
    /// Real payload at the root (`None` = synthetic).
    pub data: Option<Bytes>,
}

impl ScatterSpec {
    /// Instantiate the per-rank programs.
    pub fn programs(&self) -> Vec<Box<dyn RankProgram>> {
        let tree = Arc::new(Tree::build(TreeKind::Binomial, self.nranks, 0));
        (0..self.nranks)
            .map(|r| Box::new(AdaptScatter::new(self, &tree, r)) as Box<dyn RankProgram>)
            .collect()
    }
}

/// One rank's event-driven scatter.
pub struct AdaptScatter {
    rank: u32,
    n: u64,
    msg: u64,
    parent: Option<u32>,
    children: Vec<u32>,
    cfg: AdaptConfig,
    /// Range this rank is responsible for (bytes), and what has arrived.
    range: (u64, u64),
    buffer: Option<Vec<u8>>,
    /// Per own-range segment: arrived yet? (segments may arrive out of
    /// order through the wildcard window).
    have: Vec<bool>,
    /// Contiguous prefix of arrived segments (forwarding bound).
    prefix_segs: u64,
    recvs_posted: u64,
    recvs_done: u64,
    is_root: bool,
    root_data: Option<Bytes>,
    /// Per child: (range, next unsent offset, outstanding, done bytes).
    child_ranges: Vec<(u64, u64)>,
    next_off: Vec<u64>,
    outstanding: Vec<u32>,
    sent: Vec<u64>,
    finished: bool,
    /// Completion time, for inspection after the run.
    pub finished_at: Option<adapt_sim::time::Time>,
}

impl AdaptScatter {
    fn new(spec: &ScatterSpec, tree: &Tree, rank: u32) -> AdaptScatter {
        let n = spec.nranks as u64;
        let part = BlockPartition::new(spec.msg_bytes, n);
        let (lo, hi) = part.subtree(rank as u64);
        let children = tree.children(rank).to_vec();
        let child_ranges: Vec<(u64, u64)> =
            children.iter().map(|&c| part.subtree(c as u64)).collect();
        let own_segs = (hi - lo).div_ceil(spec.cfg.seg_size) as usize;
        AdaptScatter {
            rank,
            n,
            msg: spec.msg_bytes,
            parent: tree.parent(rank),
            outstanding: vec![0; children.len()],
            sent: vec![0; children.len()],
            children,
            cfg: spec.cfg,
            range: (lo, hi),
            buffer: spec.data.is_some().then(|| vec![0u8; (hi - lo) as usize]),
            have: vec![false; own_segs],
            prefix_segs: 0,
            recvs_posted: 0,
            recvs_done: 0,
            is_root: rank == 0,
            root_data: spec.data.clone(),
            next_off: child_ranges.iter().map(|&(lo, _)| lo).collect(),
            child_ranges,
            finished: false,
            finished_at: None,
        }
    }

    /// Bytes of range `[off, off+len)` as a payload (root slices its data;
    /// intermediates slice their received buffer).
    fn payload_for(&self, off: u64, len: u64) -> Payload {
        if let Some(d) = &self.root_data {
            return Payload::Data(d.slice(off as usize..(off + len) as usize));
        }
        if let Some(buf) = &self.buffer {
            let rel = (off - self.range.0) as usize;
            return Payload::from(buf[rel..rel + len as usize].to_vec());
        }
        Payload::Synthetic(len)
    }

    /// Bytes of the own range available for forwarding so far. The root
    /// has everything; others can forward the contiguous arrived prefix
    /// (segments may arrive out of order; forwarding holds at gaps).
    fn available_until(&self) -> u64 {
        if self.is_root {
            self.msg
        } else {
            (self.range.0 + self.prefix_segs * self.cfg.seg_size).min(self.range.1)
        }
    }

    fn push_sends(&mut self, ctx: &mut dyn ProgramCtx, c: usize) {
        let (_, hi) = self.child_ranges[c];
        while self.outstanding[c] < self.cfg.outstanding_sends && self.next_off[c] < hi {
            let off = self.next_off[c];
            let seg_len = (hi - off).min(self.cfg.seg_size);
            if self.available_until() < off + seg_len {
                return; // waiting for more of the range to arrive
            }
            self.next_off[c] = off + seg_len;
            self.outstanding[c] += 1;
            let payload = self.payload_for(off, seg_len);
            // The tag is the segment index in the *receiver's* own-range
            // grid (child ranges are rarely aligned to a global grid).
            let (child_lo, _) = self.child_ranges[c];
            let seg_idx = (off - child_lo) / self.cfg.seg_size;
            ctx.isend(
                self.children[c],
                seg_idx as Tag,
                payload,
                pack_token(KIND_SEND, c as u32, off),
            );
        }
    }

    /// Keep the receive window for the own range `M` deep.
    fn push_recvs(&mut self, ctx: &mut dyn ProgramCtx) {
        let Some(parent) = self.parent else { return };
        let nseg = self.have.len() as u64;
        while self.recvs_posted < nseg
            && self.recvs_posted - self.recvs_done < self.cfg.outstanding_recvs as u64
        {
            let idx = self.recvs_posted;
            self.recvs_posted += 1;
            ctx.irecv(parent, ANY_TAG, pack_token(KIND_RECV, 0, idx));
        }
    }

    fn check_done(&mut self, ctx: &mut dyn ProgramCtx) {
        if self.finished {
            return;
        }
        let recv_done = self.is_root || self.recvs_done == self.have.len() as u64;
        let send_done = self
            .child_ranges
            .iter()
            .zip(&self.sent)
            .all(|(&(lo, hi), &sent)| sent == hi - lo);
        if recv_done && send_done {
            self.finished = true;
            self.finished_at = Some(ctx.now());
            ctx.finish();
        }
    }

    /// The rank's own block after the run (real mode).
    pub fn own_block(&self) -> Option<Vec<u8>> {
        let (lo, hi) = BlockPartition::new(self.msg, self.n).block(self.rank as u64);
        if let Some(d) = &self.root_data {
            return Some(d.slice(lo as usize..hi as usize).to_vec());
        }
        let buf = self.buffer.as_ref()?;
        let rel = (lo - self.range.0) as usize;
        Some(buf[rel..rel + (hi - lo) as usize].to_vec())
    }
}

impl RankProgram for AdaptScatter {
    fn on_start(&mut self, ctx: &mut dyn ProgramCtx) {
        if self.msg == 0 || self.n == 1 {
            self.finished = true;
            self.finished_at = Some(ctx.now());
            ctx.finish();
            return;
        }
        self.push_recvs(ctx);
        for c in 0..self.children.len() {
            self.push_sends(ctx, c);
        }
        self.check_done(ctx);
    }

    fn on_completion(&mut self, ctx: &mut dyn ProgramCtx, completion: Completion) {
        match completion {
            Completion::SendDone { token } => {
                let (kind, c, off) = unpack_token(token);
                debug_assert_eq!(kind, KIND_SEND);
                let c = c as usize;
                self.outstanding[c] -= 1;
                let (_, hi) = self.child_ranges[c];
                self.sent[c] += (hi - off).min(self.cfg.seg_size);
                self.push_sends(ctx, c);
            }
            Completion::RecvDone { tag, data, .. } => {
                // The tag is the segment index in this rank's own grid.
                let own_idx = tag as usize;
                let off = self.range.0 + tag as u64 * self.cfg.seg_size;
                let len = data.len();
                if let (Some(buf), Some(bytes)) = (self.buffer.as_mut(), data.bytes()) {
                    let rel = (off - self.range.0) as usize;
                    buf[rel..rel + len as usize].copy_from_slice(bytes);
                }
                debug_assert!(!self.have[own_idx], "duplicate segment");
                self.have[own_idx] = true;
                self.recvs_done += 1;
                while (self.prefix_segs as usize) < self.have.len()
                    && self.have[self.prefix_segs as usize]
                {
                    self.prefix_segs += 1;
                }
                self.push_recvs(ctx);
                for c in 0..self.children.len() {
                    self.push_sends(ctx, c);
                }
            }
            other => panic!("scatter got {other:?}"),
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

    fn run_scatter(n: u32, msg: u64, seg: u64) {
        let data: Vec<u8> = (0..msg).map(|i| (i * 17 % 253) as u8).collect();
        let spec = ScatterSpec {
            nranks: n,
            msg_bytes: msg,
            cfg: AdaptConfig::default().with_seg_size(seg),
            data: Some(Bytes::from(data.clone())),
        };
        let world = World::cpu(profiles::minicluster(4, 2, 4), n, ClusterNoise::silent(n));
        let res = world.try_run(spec.programs()).unwrap();
        for (r, p) in res.programs.into_iter().enumerate() {
            let any: Box<dyn std::any::Any> = p;
            let s = any.downcast::<AdaptScatter>().unwrap();
            let (lo, hi) = BlockPartition::new(msg, n as u64).block(r as u64);
            assert_eq!(
                s.own_block().unwrap(),
                &data[lo as usize..hi as usize],
                "rank {r} of {n}"
            );
        }
    }

    #[test]
    fn scatter_delivers_each_block() {
        run_scatter(8, 100_000, 4 * 1024);
        run_scatter(13, 77_777, 2 * 1024);
        run_scatter(2, 10_000, 64 * 1024);
    }

    #[test]
    fn single_rank_scatter() {
        let spec = ScatterSpec {
            nranks: 1,
            msg_bytes: 1024,
            cfg: AdaptConfig::default(),
            data: None,
        };
        let world = World::cpu(profiles::minicluster(1, 1, 1), 1, ClusterNoise::silent(1));
        assert!(world.try_run(spec.programs()).unwrap().makespan.as_nanos() < 1_000_000);
    }
}
