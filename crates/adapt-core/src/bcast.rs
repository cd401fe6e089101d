//! ADAPT event-driven broadcast (paper §2.2.1, Figure 4, Algorithm 3).
//!
//! Every rank keeps *per-child independent* send pipelines (`N` outstanding
//! sends each) and an *independent* receive pipeline from its parent
//! (`M >= N` outstanding receives). The completion callback of each low-level
//! operation posts the next one — there is no Wait/Waitall anywhere, so a
//! delayed segment or a slow child never stalls its siblings
//! (child independence) and segments rebalance across the in-flight window
//! (segment independence).
//!
//! On GPU ranks the same state machine runs with the explicit CPU staging
//! buffer of §4.1 ([`BcastSpec::staged_programs`]). Node leaders are the
//! PCI-Express hot spots: without the buffer they pull each segment out of
//! GPU memory once per outgoing lane (next node leader, next socket
//! leader, intra-socket neighbour), so those flows share one PCIe
//! direction (paper Figure 6a/b). With it:
//!
//! - the root caches its GPU payload into host memory segment by segment
//!   (device→host copies, `M` in flight) and sends each segment once its
//!   cache lands;
//! - every other node leader receives into host memory, forwards to all
//!   children from that host copy, and flushes the first arrival of each
//!   segment to its own GPU with an asynchronous copy.
//!
//! NIC↔host, host→GPU flush and GPU→GPU neighbour traffic then ride
//! different PCIe lanes and overlap (Figure 6c). Staging changes only
//! where the data lives; the pipeline, the shrink recovery and the
//! first-arrival dedup are the same on CPU and GPU.

use crate::config::{pack_token, unpack_token, AdaptConfig};
use crate::segments::Segments;
use crate::tree::Tree;
use adapt_mpi::{program::ANY_TAG, Completion, Op, Payload, ProgramCtx, RankProgram, Tag};
use adapt_topology::{Hierarchy, MemSpace, Placement};
use bytes::Bytes;
use std::sync::Arc;

const KIND_SEND: u8 = 1;
const KIND_RECV: u8 = 2;
const KIND_CACHE: u8 = 3;
const KIND_FLUSH: u8 = 4;

/// Description of one ADAPT broadcast, shared by all ranks.
#[derive(Clone)]
pub struct BcastSpec {
    /// Communication tree (any shape, including the topology-aware tree).
    pub tree: Arc<Tree>,
    /// Message size in bytes.
    pub msg_bytes: u64,
    /// Pipeline configuration.
    pub cfg: AdaptConfig,
    /// Real payload at the root (`None` runs in synthetic timing mode).
    pub data: Option<Bytes>,
}

impl BcastSpec {
    /// Instantiate the per-rank programs.
    pub fn programs(&self) -> Vec<Box<dyn RankProgram>> {
        (0..self.tree.len())
            .map(|r| Box::new(AdaptBcast::new(self, r)) as Box<dyn RankProgram>)
            .collect()
    }

    /// The per-rank programs of a GPU job with the §4.1 staging buffer:
    /// every node leader of `placement` sends and receives through its
    /// host memory; the other ranks use their default (device) memory.
    pub fn staged_programs(&self, placement: &Placement) -> Vec<Box<dyn RankProgram>> {
        let h = Hierarchy::build(placement);
        (0..self.tree.len())
            .map(|r| {
                let mut p = AdaptBcast::new(self, r);
                if h.is_node_leader(r) {
                    p.stage(placement.host_mem(r), placement.default_mem(r));
                }
                Box::new(p) as Box<dyn RankProgram>
            })
            .collect()
    }
}

/// A node leader's explicit CPU staging buffer (§4.1).
struct Staging {
    /// Host memory: every send and receive of this rank goes through it.
    host: MemSpace,
    /// The rank's GPU memory, which the buffer caches or flushes.
    device: MemSpace,
    /// Root: device→host cache copies issued.
    caches_issued: u64,
    /// Copies landed: caches on the root, flushes of first arrivals on
    /// every other leader. The rank finishes only once all `nseg` land.
    copies_done: u64,
}

/// One rank's state machine for the ADAPT broadcast.
///
/// Fault tolerance (ULFM-style shrink): on a revoke notification the
/// rank rebuilds the tree around the agreed dead set. A child whose
/// parent died re-posts a full receive window toward its adopting
/// parent; the adopting parent resends every segment from 0 to each
/// adopted child. Both sides derive the decision from the *same*
/// runtime snapshot (`dead` + `active`), so the resend and the re-post
/// always pair up. Duplicate payloads are ignored; dead children are
/// dropped from the completion target. When the root dies no survivor
/// holds the payload authoritatively — the rank stops posting and the
/// runtime reports a structured `RanksFailed` instead of hanging.
pub struct AdaptBcast {
    rank: u32,
    parent: Option<u32>,
    /// The original tree, kept for deterministic rebuilds on failure.
    tree: Arc<Tree>,
    /// Child slots only grow (send tokens encode the slot index): a dead
    /// child is masked via `alive`, an adopted child appends a new slot.
    children: Vec<u32>,
    /// Per child: still alive? Dead slots stop refilling and leave the
    /// completion target.
    alive: Vec<bool>,
    segs: Segments,
    cfg: AdaptConfig,
    /// The root's full payload (root only).
    root_payload: Option<Payload>,
    /// Received segments, indexed by segment id (non-root).
    received: Vec<Option<Payload>>,
    /// Segment ids available for forwarding, in availability order. For the
    /// root this is `0..nseg` up front (the paper's "segment pool").
    /// Distinct: a duplicate arrival is never pushed twice.
    ready: Vec<u64>,
    /// Per child: cursor into `ready`.
    cursor: Vec<usize>,
    /// Per child: sends currently in flight.
    outstanding: Vec<u32>,
    /// Per child: SendDone count.
    done: Vec<u64>,
    /// Receives completed from the *current* parent (resets on adoption).
    recvs_done: u64,
    /// Receives posted toward the current parent (resets on adoption).
    recvs_posted: u64,
    /// The staging buffer of a staged GPU node leader.
    staging: Option<Staging>,
    finished: bool,
    /// Completion time, for inspection after the run.
    pub finished_at: Option<adapt_sim::time::Time>,
}

impl AdaptBcast {
    /// Build rank `rank`'s program for `spec`.
    pub fn new(spec: &BcastSpec, rank: u32) -> AdaptBcast {
        let segs = Segments::new(spec.msg_bytes, spec.cfg.seg_size);
        let children = spec.tree.children(rank).to_vec();
        let is_root = rank == spec.tree.root();
        let root_payload = if is_root {
            Some(match &spec.data {
                Some(b) => Payload::Data(b.clone()),
                None => Payload::Synthetic(spec.msg_bytes),
            })
        } else {
            None
        };
        let nseg = segs.count();
        let ready = if is_root {
            (0..nseg).collect()
        } else {
            Vec::new()
        };
        AdaptBcast {
            rank,
            parent: spec.tree.parent(rank),
            tree: spec.tree.clone(),
            alive: vec![true; children.len()],
            cursor: vec![0; children.len()],
            outstanding: vec![0; children.len()],
            done: vec![0; children.len()],
            children,
            segs,
            cfg: spec.cfg,
            root_payload,
            received: vec![None; nseg as usize],
            ready,
            recvs_done: 0,
            recvs_posted: 0,
            staging: None,
            finished: false,
            finished_at: None,
        }
    }

    /// Route this rank's traffic through a staging buffer in `host`. A
    /// staged root's segments become sendable as their caches land.
    fn stage(&mut self, host: MemSpace, device: MemSpace) {
        if self.is_root() {
            self.ready.clear();
        }
        self.staging = Some(Staging {
            host,
            device,
            caches_issued: 0,
            copies_done: 0,
        });
    }

    fn is_root(&self) -> bool {
        self.parent.is_none()
    }

    /// The memory space sends leave from and receives land in: the
    /// staging buffer, or `None` for the rank's default memory.
    fn comm_mem(&self) -> Option<MemSpace> {
        self.staging.as_ref().map(|s| s.host)
    }

    fn nseg(&self) -> u64 {
        self.segs.count()
    }

    /// The payload of segment `s` as this rank knows it.
    fn seg_payload(&self, s: u64) -> Payload {
        match &self.root_payload {
            Some(p) => p.slice(self.segs.offset(s), self.segs.len(s)),
            None => self.received[s as usize]
                .clone()
                .expect("forwarding a segment that has not arrived"),
        }
    }

    /// Keep child `c`'s pipeline full: post sends while below `N` and
    /// segments are available. A dead child's pipeline never refills.
    fn push_sends(&mut self, ctx: &mut dyn ProgramCtx, c: usize) {
        if !self.alive[c] {
            return;
        }
        while self.outstanding[c] < self.cfg.outstanding_sends && self.cursor[c] < self.ready.len()
        {
            let seg = self.ready[self.cursor[c]];
            self.cursor[c] += 1;
            self.outstanding[c] += 1;
            ctx.post(Op::Isend {
                dst: self.children[c],
                tag: seg as Tag,
                payload: self.seg_payload(seg),
                token: pack_token(KIND_SEND, c as u32, seg),
                src_mem: self.comm_mem(),
            });
        }
    }

    /// Keep the receive pipeline `M` deep. Receives are wildcard-tagged so
    /// the window accepts whichever segments the parent completes first —
    /// segment identity travels in the message tag.
    fn push_recvs(&mut self, ctx: &mut dyn ProgramCtx) {
        let Some(parent) = self.parent else { return };
        while self.recvs_posted < self.nseg()
            && self.recvs_posted - self.recvs_done < self.cfg.outstanding_recvs as u64
        {
            let idx = self.recvs_posted;
            self.recvs_posted += 1;
            ctx.post(Op::Irecv {
                src: parent,
                tag: ANY_TAG,
                token: pack_token(KIND_RECV, 0, idx),
                dst_mem: self.comm_mem(),
            });
        }
    }

    /// Staged root: keep `M` device→host cache copies in flight.
    fn push_caches(&mut self, ctx: &mut dyn ProgramCtx) {
        let nseg = self.nseg();
        let window = self.cfg.outstanding_recvs as u64;
        let Some(s) = self.staging.as_mut().filter(|_| self.parent.is_none()) else {
            return;
        };
        while s.caches_issued < nseg && s.caches_issued - s.copies_done < window {
            let seg = s.caches_issued;
            s.caches_issued += 1;
            let token = pack_token(KIND_CACHE, 0, seg);
            ctx.copy(s.device, s.host, self.segs.len(seg), token);
        }
    }

    fn push_all_sends(&mut self, ctx: &mut dyn ProgramCtx) {
        for c in 0..self.children.len() {
            self.push_sends(ctx, c);
        }
    }

    fn check_done(&mut self, ctx: &mut dyn ProgramCtx) {
        if self.finished {
            return;
        }
        let nseg = self.nseg();
        let recv_done = self.is_root() || self.recvs_done == nseg;
        // Shrink semantics: only live children count toward completion;
        // a dead child's outstanding sends complete (or are completed by
        // the failure detector) but its remaining segments are owed to
        // no one.
        let send_done = (0..self.children.len()).all(|c| !self.alive[c] || self.done[c] == nseg);
        let copies_done = self.staging.as_ref().is_none_or(|s| s.copies_done == nseg);
        if recv_done && send_done && copies_done {
            self.finished = true;
            self.finished_at = Some(ctx.now());
            ctx.finish();
        }
    }

    /// The rank this program runs on.
    pub fn rank(&self) -> u32 {
        self.rank
    }

    /// Received segments reassembled into the full message (testing aid;
    /// root returns its own payload).
    pub fn assembled(&self) -> Option<Vec<u8>> {
        if let Some(p) = &self.root_payload {
            return p.bytes().map(|b| b.to_vec());
        }
        let mut out = Vec::with_capacity(self.segs.total() as usize);
        for seg in &self.received {
            out.extend_from_slice(seg.as_ref()?.bytes()?);
        }
        Some(out)
    }
}

impl RankProgram for AdaptBcast {
    fn on_start(&mut self, ctx: &mut dyn ProgramCtx) {
        if self.nseg() == 0 {
            self.finished = true;
            self.finished_at = Some(ctx.now());
            ctx.finish();
            return;
        }
        self.push_caches(ctx);
        self.push_recvs(ctx);
        self.push_all_sends(ctx);
        self.check_done(ctx);
    }

    fn on_completion(&mut self, ctx: &mut dyn ProgramCtx, completion: Completion) {
        match completion {
            Completion::SendDone { token } => {
                let (kind, c, _seg) = unpack_token(token);
                debug_assert_eq!(kind, KIND_SEND);
                let c = c as usize;
                self.outstanding[c] -= 1;
                self.done[c] += 1;
                self.push_sends(ctx, c);
            }
            Completion::RecvDone {
                token,
                src,
                tag,
                data,
            } => {
                let (kind, _, _idx) = unpack_token(token);
                debug_assert_eq!(kind, KIND_RECV);
                let seg = tag as u64;
                // First arrival wins: after an adoption the new parent
                // resends everything, so segments the dead parent already
                // delivered arrive again and are dropped here.
                let first = self.received[seg as usize].is_none();
                if first {
                    self.received[seg as usize] = Some(data);
                    self.ready.push(seg);
                }
                // Only the current parent's deliveries advance the
                // pipeline: a straggler from a dead parent (matched
                // before the revoke) still contributes its data above
                // but must not distort the new window's accounting.
                if Some(src) == self.parent {
                    self.recvs_done += 1;
                    self.push_recvs(ctx);
                }
                self.push_all_sends(ctx);
                // A staged leader flushes the host copy to its own GPU.
                if let Some(s) = self.staging.as_ref().filter(|_| first) {
                    let token = pack_token(KIND_FLUSH, 0, seg);
                    ctx.copy(s.host, s.device, self.segs.len(seg), token);
                }
            }
            Completion::CopyDone { token } if self.staging.is_some() => {
                let (kind, _, seg) = unpack_token(token);
                if let Some(s) = self.staging.as_mut() {
                    s.copies_done += 1;
                }
                if kind == KIND_CACHE {
                    self.ready.push(seg);
                    self.push_caches(ctx);
                    self.push_all_sends(ctx);
                }
            }
            // Broadcast posts no compute/GPU work, and copies only when
            // staged; a stray completion is a harness bug, but never
            // worth killing a fault-injected run over.
            other => debug_assert!(false, "broadcast got unexpected completion {other:?}"),
        }
        self.check_done(ctx);
    }

    fn on_peer_failed(&mut self, ctx: &mut dyn ProgramCtx, dead: &[u32], active: &[u32]) {
        if self.finished || self.nseg() == 0 {
            return;
        }
        // Dead children leave the completion target; their slots stay
        // (send tokens encode the slot index) but never refill.
        for (c, &child) in self.children.iter().enumerate() {
            if dead.contains(&child) {
                self.alive[c] = false;
            }
        }
        let Ok(rebuilt) = self.tree.rebuild_without(dead) else {
            // The root died: no survivor holds the payload with
            // authority, so recovery is impossible. Posting nothing lets
            // the runtime diagnose a structured RanksFailed.
            return;
        };
        // Child side: my parent died — attach to the adopting parent.
        if let Some(p) = self.parent {
            if dead.contains(&p) {
                let np = rebuilt.parent(self.rank);
                self.parent = np;
                if np.is_some_and(|np| active.contains(&np)) {
                    // The adopting parent (same snapshot) commits to
                    // resending every segment from 0; mirror it with a
                    // fresh full receive window. Anything the dead parent
                    // already delivered arrives again and deduplicates.
                    self.recvs_posted = 0;
                    self.recvs_done = 0;
                    self.push_recvs(ctx);
                }
                // Otherwise the adopting parent already finished (or no
                // live ancestor remains): no resend can come. If segments
                // are missing this rank stalls and the run ends in a
                // structured RanksFailed — partial completion, no panic.
            }
        }
        // Parent side: adopt the orphans the rebuilt tree assigns to us,
        // skipping any that already finished (they need nothing, and
        // sending to a finished rank would poison the run).
        for &child in rebuilt.children(self.rank) {
            if !self.children.contains(&child) && active.contains(&child) {
                self.children.push(child);
                self.alive.push(true);
                self.cursor.push(0);
                self.outstanding.push(0);
                self.done.push(0);
                let c = self.children.len() - 1;
                self.push_sends(ctx, c);
            }
        }
        self.check_done(ctx);
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::tree::{topology_aware_tree, TopoTreeConfig, TreeKind};
    use adapt_mpi::World;
    use adapt_noise::ClusterNoise;
    use adapt_topology::profiles;

    fn run(
        kind: TreeKind,
        nranks: u32,
        msg: u64,
        cfg: AdaptConfig,
        data: Option<Bytes>,
    ) -> (adapt_sim::time::Duration, Vec<Box<dyn RankProgram>>) {
        let spec = BcastSpec {
            tree: Arc::new(Tree::build(kind, nranks, 0)),
            msg_bytes: msg,
            cfg,
            data,
        };
        let machine = profiles::minicluster(4, 2, 2);
        let world = World::cpu(machine, nranks, ClusterNoise::silent(nranks));
        let res = world.try_run(spec.programs()).unwrap();
        (res.makespan, res.programs)
    }

    fn assert_all_received(programs: Vec<Box<dyn RankProgram>>, expect: &[u8]) {
        for (r, p) in programs.into_iter().enumerate() {
            let any: Box<dyn std::any::Any> = p;
            let b = any.downcast::<AdaptBcast>().expect("bcast program");
            let got = b
                .assembled()
                .unwrap_or_else(|| panic!("rank {r} incomplete"));
            assert_eq!(got, expect, "rank {r} data mismatch");
        }
    }

    #[test]
    fn delivers_data_on_every_tree_shape() {
        let data: Vec<u8> = (0..200_000u32).map(|i| (i * 31 % 251) as u8).collect();
        for kind in [
            TreeKind::Chain,
            TreeKind::Binary,
            TreeKind::Binomial,
            TreeKind::Knomial(4),
            TreeKind::Flat,
        ] {
            let (_, programs) = run(
                kind,
                16,
                data.len() as u64,
                AdaptConfig::default().with_seg_size(16 * 1024),
                Some(Bytes::from(data.clone())),
            );
            assert_all_received(programs, &data);
        }
    }

    #[test]
    fn synthetic_mode_times_out_of_order_pipelines() {
        let (t, _) = run(TreeKind::Chain, 8, 1 << 20, AdaptConfig::default(), None);
        assert!(t.as_nanos() > 0);
    }

    #[test]
    fn zero_byte_broadcast_finishes() {
        let (t, _) = run(TreeKind::Binomial, 8, 0, AdaptConfig::default(), None);
        assert!(t.as_nanos() < 1_000_000);
    }

    #[test]
    fn single_rank_broadcast() {
        let (t, _) = run(TreeKind::Chain, 1, 1 << 20, AdaptConfig::default(), None);
        assert!(t.as_nanos() < 1_000_000);
    }

    #[test]
    fn single_segment_message() {
        let data: Vec<u8> = vec![7u8; 1000];
        let (_, programs) = run(
            TreeKind::Binary,
            5,
            1000,
            AdaptConfig::default(),
            Some(Bytes::from(data.clone())),
        );
        assert_all_received(programs, &data);
    }

    #[test]
    fn pipelining_beats_single_segment_on_chain() {
        // A chain with pipelining overlaps hops; one giant segment cannot.
        let msg = 4 << 20;
        let (pipelined, _) = run(
            TreeKind::Chain,
            8,
            msg,
            AdaptConfig::default().with_seg_size(64 * 1024),
            None,
        );
        let (mono, _) = run(
            TreeKind::Chain,
            8,
            msg,
            AdaptConfig::default().with_seg_size(msg),
            None,
        );
        assert!(
            pipelined.as_nanos() * 2 < mono.as_nanos(),
            "pipelined={pipelined} vs monolithic={mono}"
        );
    }

    #[test]
    fn m_greater_than_n_avoids_unexpected_messages() {
        let spec = BcastSpec {
            tree: Arc::new(Tree::build(TreeKind::Chain, 4, 0)),
            msg_bytes: 2 << 20,
            cfg: AdaptConfig::default().with_outstanding(4, 8),
            data: None,
        };
        let world = World::cpu(profiles::minicluster(4, 1, 1), 4, ClusterNoise::silent(4));
        let res = world.try_run(spec.programs()).unwrap();
        assert_eq!(res.stats.unexpected_matches, 0, "M > N keeps recvs ahead");
    }

    /// The ADAPT broadcast on a psg GPU job, staged (§4.1) or direct.
    fn run_gpu(staged: bool, nodes: u32, msg: u64) -> adapt_sim::time::Duration {
        let machine = profiles::psg(nodes);
        let nranks = machine.gpu_job_size();
        let placement = Placement::block_gpu(machine.shape, nranks);
        let spec = BcastSpec {
            tree: Arc::new(topology_aware_tree(&placement, TopoTreeConfig::default())),
            msg_bytes: msg,
            cfg: AdaptConfig::default(),
            data: None,
        };
        let programs = if staged {
            spec.staged_programs(&placement)
        } else {
            spec.programs()
        };
        let world = World::gpu(machine, nranks, ClusterNoise::silent(nranks));
        world.try_run(programs).unwrap().makespan
    }

    #[test]
    fn staged_broadcast_completes() {
        let t = run_gpu(true, 2, 8 << 20);
        assert!(t.as_nanos() > 0);
    }

    #[test]
    fn staging_beats_direct_on_multinode_jobs() {
        // The §4.1 claim: with the explicit CPU buffer the node leader's
        // lanes overlap instead of sharing one PCIe direction.
        let msg = 32 << 20;
        let staged = run_gpu(true, 4, msg);
        let direct = run_gpu(false, 4, msg);
        assert!(
            staged.as_nanos() < direct.as_nanos(),
            "staged={staged} direct={direct}"
        );
    }

    #[test]
    fn staged_single_node_job_runs() {
        let t = run_gpu(true, 1, 4 << 20);
        assert!(t.as_nanos() > 0);
    }
}
