//! GPU-aware ADAPT broadcast with the explicit CPU staging buffer of §4.1.
//!
//! Node leaders are the PCI-Express hot spots: unoptimized they pull the
//! same segment out of GPU memory once per outgoing lane (next node leader,
//! next socket leader, intra-socket neighbour), so the three flows share
//! one PCIe direction at a third of its bandwidth each (paper Figure 6a/b).
//! With the explicit buffer:
//!
//! - non-root node leaders **receive into host memory**, forward every
//!   child from that cached host copy (no repeated device reads), and
//!   flush each segment to their own GPU with an asynchronous copy;
//! - the root caches its GPU payload into host memory segment by segment
//!   and sends from the cache.
//!
//! NIC↔host, host→GPU flush, and GPU→GPU neighbour traffic then ride
//! different PCIe lanes and overlap (Figure 6c).

use adapt_core::{AdaptConfig, Segments, Tree};
use adapt_mpi::{program::ANY_TAG, Completion, Payload, ProgramCtx, RankProgram, Tag, Token};
use adapt_topology::{Hierarchy, MemSpace, Placement};
use std::sync::Arc;

const KIND_SEND: u8 = 1;
const KIND_RECV: u8 = 2;
const KIND_CACHE: u8 = 3;
const KIND_FLUSH: u8 = 4;

fn tok(kind: u8, peer: u32, seg: u64) -> Token {
    Token(((kind as u64) << 56) | ((peer as u64) << 32) | seg)
}

fn untok(t: Token) -> (u8, u32, u64) {
    (
        (t.0 >> 56) as u8,
        ((t.0 >> 32) & 0xFF_FFFF) as u32,
        t.0 & 0xFFFF_FFFF,
    )
}

/// Description of one GPU-aware ADAPT broadcast.
#[derive(Clone)]
pub struct GpuBcastSpec {
    /// GPU job placement (one rank per GPU).
    pub placement: Placement,
    /// Communication tree (usually the topology-aware tree).
    pub tree: Arc<Tree>,
    /// Message size in bytes.
    pub msg_bytes: u64,
    /// Pipeline configuration.
    pub cfg: AdaptConfig,
    /// Enable the explicit CPU staging buffer (§4.1). Disabled = every
    /// transfer originates/terminates in device memory (the baseline data
    /// path, used by the staging ablation).
    pub staging: bool,
}

impl GpuBcastSpec {
    /// Instantiate the per-rank programs.
    pub fn programs(&self) -> Vec<Box<dyn RankProgram>> {
        let h = Hierarchy::build(&self.placement);
        (0..self.tree.len())
            .map(|r| {
                let leader = h.is_node_leader(r);
                Box::new(GpuAdaptBcast::new(self, r, leader)) as Box<dyn RankProgram>
            })
            .collect()
    }
}

/// One rank's GPU-aware event-driven broadcast.
pub struct GpuAdaptBcast {
    parent: Option<u32>,
    children: Vec<u32>,
    segs: Segments,
    cfg: AdaptConfig,
    /// Staging active on this rank (node leader with staging enabled).
    staged: bool,
    is_root: bool,
    /// Host and device memory spaces of this rank.
    host: Option<MemSpace>,
    device: Option<MemSpace>,
    /// Segments available for forwarding, in availability order.
    ready: Vec<u64>,
    cursor: Vec<usize>,
    outstanding: Vec<u32>,
    sends_done: u64,
    recvs_done: u64,
    recvs_posted: u64,
    /// Root staging: cache (device→host) copies issued / completed.
    caches_issued: u64,
    caches_done: u64,
    /// Leader staging: flush (host→device) copies completed.
    flushes_done: u64,
    finished: bool,
    /// Completion time, for inspection after the run.
    pub finished_at: Option<adapt_sim::time::Time>,
}

impl GpuAdaptBcast {
    fn new(spec: &GpuBcastSpec, rank: u32, node_leader: bool) -> GpuAdaptBcast {
        let segs = Segments::new(spec.msg_bytes, spec.cfg.seg_size);
        let children = spec.tree.children(rank).to_vec();
        let is_root = rank == spec.tree.root();
        let staged = spec.staging && node_leader;
        let nseg = segs.count();
        let ready = if is_root && !staged {
            (0..nseg).collect()
        } else {
            Vec::new() // root-with-staging readies segments as caches land
        };
        GpuAdaptBcast {
            parent: spec.tree.parent(rank),
            children: children.clone(),
            segs,
            cfg: spec.cfg,
            staged,
            is_root,
            host: Some(spec.placement.host_mem(rank)),
            device: Some(spec.placement.default_mem(rank)),
            ready,
            cursor: vec![0; children.len()],
            outstanding: vec![0; children.len()],
            sends_done: 0,
            recvs_done: 0,
            recvs_posted: 0,
            caches_issued: 0,
            caches_done: 0,
            flushes_done: 0,
            finished: false,
            finished_at: None,
        }
    }

    fn nseg(&self) -> u64 {
        self.segs.count()
    }

    /// Memory segments are sent from on this rank.
    fn send_mem(&self) -> MemSpace {
        if self.staged {
            self.host.expect("host mem")
        } else {
            self.device.expect("device mem")
        }
    }

    /// Memory receives land in on this rank.
    fn recv_mem(&self) -> MemSpace {
        if self.staged {
            self.host.expect("host mem")
        } else {
            self.device.expect("device mem")
        }
    }

    fn push_sends(&mut self, ctx: &mut dyn ProgramCtx, c: usize) {
        while self.outstanding[c] < self.cfg.outstanding_sends && self.cursor[c] < self.ready.len()
        {
            let seg = self.ready[self.cursor[c]];
            self.cursor[c] += 1;
            self.outstanding[c] += 1;
            let payload = Payload::Synthetic(self.segs.len(seg));
            ctx.isend_from(
                self.send_mem(),
                self.children[c],
                seg as Tag,
                payload,
                tok(KIND_SEND, c as u32, seg),
            );
        }
    }

    fn push_recvs(&mut self, ctx: &mut dyn ProgramCtx) {
        let Some(parent) = self.parent else { return };
        while self.recvs_posted < self.nseg()
            && self.recvs_posted - self.recvs_done < self.cfg.outstanding_recvs as u64
        {
            let idx = self.recvs_posted;
            self.recvs_posted += 1;
            ctx.irecv_into(self.recv_mem(), parent, ANY_TAG, tok(KIND_RECV, 0, idx));
        }
    }

    /// Root staging: keep a window of device→host cache copies in flight.
    fn push_caches(&mut self, ctx: &mut dyn ProgramCtx) {
        if !(self.is_root && self.staged) {
            return;
        }
        while self.caches_issued < self.nseg()
            && self.caches_issued - self.caches_done < self.cfg.outstanding_recvs as u64
        {
            let seg = self.caches_issued;
            self.caches_issued += 1;
            ctx.copy(
                self.device.expect("device"),
                self.host.expect("host"),
                self.segs.len(seg),
                tok(KIND_CACHE, 0, seg),
            );
        }
    }

    fn check_done(&mut self, ctx: &mut dyn ProgramCtx) {
        if self.finished {
            return;
        }
        let recv_done = self.is_root || self.recvs_done == self.nseg();
        let send_done = self.sends_done == self.nseg() * self.children.len() as u64;
        // Staged non-root leaders must also have flushed their own GPU copy.
        let flush_done = !self.staged || self.is_root || self.flushes_done == self.nseg();
        let cache_done = !(self.is_root && self.staged) || self.caches_done == self.nseg();
        if recv_done && send_done && flush_done && cache_done {
            self.finished = true;
            self.finished_at = Some(ctx.now());
            ctx.finish();
        }
    }
}

impl RankProgram for GpuAdaptBcast {
    fn on_start(&mut self, ctx: &mut dyn ProgramCtx) {
        if self.nseg() == 0 {
            self.finished = true;
            self.finished_at = Some(ctx.now());
            ctx.finish();
            return;
        }
        self.push_caches(ctx);
        self.push_recvs(ctx);
        for c in 0..self.children.len() {
            self.push_sends(ctx, c);
        }
        self.check_done(ctx);
    }

    fn on_completion(&mut self, ctx: &mut dyn ProgramCtx, completion: Completion) {
        match completion {
            Completion::SendDone { token } => {
                let (kind, c, _) = untok(token);
                debug_assert_eq!(kind, KIND_SEND);
                let c = c as usize;
                self.outstanding[c] -= 1;
                self.sends_done += 1;
                self.push_sends(ctx, c);
            }
            Completion::RecvDone { token, tag, .. } => {
                let (kind, _, _) = untok(token);
                debug_assert_eq!(kind, KIND_RECV);
                let seg = tag as u64;
                self.recvs_done += 1;
                self.ready.push(seg);
                self.push_recvs(ctx);
                for c in 0..self.children.len() {
                    self.push_sends(ctx, c);
                }
                if self.staged {
                    // Flush the cached segment to this rank's own GPU.
                    ctx.copy(
                        self.host.expect("host"),
                        self.device.expect("device"),
                        self.segs.len(seg),
                        tok(KIND_FLUSH, 0, seg),
                    );
                }
            }
            Completion::CopyDone { token } => {
                let (kind, _, seg) = untok(token);
                match kind {
                    KIND_CACHE => {
                        self.caches_done += 1;
                        self.ready.push(seg);
                        self.push_caches(ctx);
                        for c in 0..self.children.len() {
                            self.push_sends(ctx, c);
                        }
                    }
                    KIND_FLUSH => {
                        self.flushes_done += 1;
                    }
                    k => panic!("unexpected copy kind {k}"),
                }
            }
            other => panic!("gpu bcast got {other:?}"),
        }
        self.check_done(ctx);
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use adapt_core::{topology_aware_tree, TopoTreeConfig};
    use adapt_mpi::World;
    use adapt_noise::ClusterNoise;
    use adapt_topology::profiles;

    fn run(staging: bool, nodes: u32, msg: u64) -> adapt_sim::time::Duration {
        let machine = profiles::psg(nodes);
        let nranks = machine.gpu_job_size();
        let placement = Placement::block_gpu(machine.shape, nranks);
        let tree = Arc::new(topology_aware_tree(&placement, TopoTreeConfig::default()));
        let spec = GpuBcastSpec {
            placement,
            tree,
            msg_bytes: msg,
            cfg: AdaptConfig::default(),
            staging,
        };
        let world = World::gpu(machine, nranks, ClusterNoise::silent(nranks));
        world.try_run(spec.programs()).unwrap().makespan
    }

    #[test]
    fn staged_broadcast_completes() {
        let t = run(true, 2, 8 << 20);
        assert!(t.as_nanos() > 0);
    }

    #[test]
    fn staging_beats_unstaged_on_multinode_jobs() {
        // The §4.1 claim: with the explicit CPU buffer the node leader's
        // lanes overlap instead of sharing one PCIe direction.
        let msg = 32 << 20;
        let staged = run(true, 4, msg);
        let unstaged = run(false, 4, msg);
        assert!(
            staged.as_nanos() < unstaged.as_nanos(),
            "staged={staged} unstaged={unstaged}"
        );
    }

    #[test]
    fn single_node_job_runs() {
        let t = run(true, 1, 4 << 20);
        assert!(t.as_nanos() > 0);
    }
}
