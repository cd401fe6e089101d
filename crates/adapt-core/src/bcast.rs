//! ADAPT event-driven broadcast (paper §2.2.1, Figure 4, Algorithm 3).
//!
//! Every rank keeps *per-child independent* send pipelines (`N` outstanding
//! sends each) and an *independent* receive pipeline from its parent
//! (`M >= N` outstanding receives). The completion callback of each low-level
//! operation posts the next one — there is no Wait/Waitall anywhere, so a
//! delayed segment or a slow child never stalls its siblings
//! (child independence) and segments rebalance across the in-flight window
//! (segment independence).

use crate::config::{pack_token, unpack_token, AdaptConfig};
use crate::segments::Segments;
use crate::tree::Tree;
use adapt_mpi::{program::ANY_TAG, Completion, Payload, ProgramCtx, RankProgram, Tag};
use bytes::Bytes;
use std::sync::Arc;

const KIND_SEND: u8 = 1;
const KIND_RECV: u8 = 2;

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
            finished: false,
            finished_at: None,
        }
    }

    fn is_root(&self) -> bool {
        self.parent.is_none()
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
            let payload = self.seg_payload(seg);
            ctx.isend(
                self.children[c],
                seg as Tag,
                payload,
                pack_token(KIND_SEND, c as u32, seg),
            );
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
            ctx.irecv(parent, ANY_TAG, pack_token(KIND_RECV, 0, idx));
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
        if recv_done && send_done {
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
        self.push_recvs(ctx);
        for c in 0..self.children.len() {
            self.push_sends(ctx, c);
        }
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
                if self.received[seg as usize].is_none() {
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
                for c in 0..self.children.len() {
                    self.push_sends(ctx, c);
                }
            }
            // Broadcast posts no compute/copy/GPU work; a stray
            // completion of those kinds is a harness bug, but never
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
    use crate::tree::TreeKind;
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
}
