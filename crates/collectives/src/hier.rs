//! Multi-communicator hierarchical collectives (paper §3.1) — the design
//! ADAPT's single-communicator topology-aware tree replaces.
//!
//! A collective is a *sequence of phases*, each a collective over one
//! topology group (cluster → node → socket for broadcast; the reverse for
//! reduce). A rank enters phase `k+1` only after its phase-`k` role
//! completes locally — which is why the levels never overlap and large
//! messages leave lanes idle (the §3.1 critique, and the behaviour the
//! Intel-MPI "SHM-based" algorithm family exhibits).
//!
//! Mechanically, [`PhasedProgram`] runs one sub-program per phase,
//! remapping tags into per-phase ranges and tokens into a private space,
//! and intercepting each sub-program's `finish` to chain the next phase.
//! Data moves between a rank's phases through a [`DataSlot`].

use crate::waitall::{DataSlot, WaitallBcast, WaitallReduce};
use adapt_core::{Tree, TreeKind};
use adapt_mpi::program::{any_tag_in_block, ANY_TAG, TAG_BLOCK};
use adapt_mpi::{Completion, Op, Payload, ProgramCtx, RankProgram, Token};
use adapt_sim::fxhash::FxHashMap;
use adapt_topology::{Hierarchy, Placement};
use bytes::Bytes;
use std::rc::Rc;

/// Tag range reserved per phase (segment/block tags must stay below this).
const TAG_STRIDE: u32 = TAG_BLOCK;

/// Number of distinct tag blocks phases cycle through. Long phase chains
/// (e.g. one phase per application iteration) reuse blocks modulo this
/// window; a collision would need one rank to run `MAX_PHASE_BLOCKS`
/// phases ahead of a peer it exchanges messages with, which the phases'
/// own data dependencies make impossible.
const MAX_PHASE_BLOCKS: u32 = 2040;

fn phase_offset(index: usize) -> u32 {
    ((index as u32 % MAX_PHASE_BLOCKS) + 1) * TAG_STRIDE
}

/// Runs a sequence of sub-programs, each isolated in its own tag range and
/// token space; a sub-program's `finish` starts the next phase instead of
/// finishing the rank.
pub struct PhasedProgram {
    phases: Vec<Option<Box<dyn RankProgram>>>,
    current: usize,
    tokens: FxHashMap<u64, Token>,
    next_token: u64,
    /// Completion time, for inspection after the run.
    pub finished_at: Option<adapt_sim::time::Time>,
}

impl PhasedProgram {
    /// Chain the given phase programs.
    pub fn new(phases: Vec<Box<dyn RankProgram>>) -> PhasedProgram {
        PhasedProgram {
            phases: phases.into_iter().map(Some).collect(),
            current: 0,
            tokens: FxHashMap::default(),
            next_token: 0,
            finished_at: None,
        }
    }

    fn drive(&mut self, ctx: &mut dyn ProgramCtx, mut event: Option<Completion>) {
        // Phase-boundary marks are observability-only ops (zero cost, no
        // events): traces show which collective phase each rank was in.
        if event.is_none() && self.current < self.phases.len() {
            ctx.post(Op::Phase {
                index: self.current as u32,
                begin: true,
            });
        }
        loop {
            if self.current == self.phases.len() {
                self.finished_at = Some(ctx.now());
                ctx.finish();
                return;
            }
            let mut phase = self.phases[self.current]
                .take()
                .expect("phase not re-entrant");
            let mut finished = false;
            {
                let mut pctx = PhasedCtx {
                    inner: ctx,
                    tag_offset: phase_offset(self.current),
                    tokens: &mut self.tokens,
                    next_token: &mut self.next_token,
                    finished: &mut finished,
                };
                match event.take() {
                    None => phase.on_start(&mut pctx),
                    Some(c) => phase.on_completion(&mut pctx, c),
                }
            }
            self.phases[self.current] = Some(phase);
            if !finished {
                return;
            }
            ctx.post(Op::Phase {
                index: self.current as u32,
                begin: false,
            });
            self.current += 1;
            if self.current < self.phases.len() {
                ctx.post(Op::Phase {
                    index: self.current as u32,
                    begin: true,
                });
            }
            // Loop: start the next phase (event is now None).
        }
    }

    /// Translate a runtime completion back into the current phase's terms.
    fn translate(&mut self, c: Completion) -> Completion {
        let orig = self
            .tokens
            .remove(&c.token().0)
            .expect("completion for unknown phase token");
        let offset = phase_offset(self.current);
        match c {
            Completion::SendDone { .. } => Completion::SendDone { token: orig },
            Completion::RecvDone { src, tag, data, .. } => Completion::RecvDone {
                token: orig,
                src,
                tag: tag - offset,
                data,
            },
            Completion::ComputeDone { .. } => Completion::ComputeDone { token: orig },
            Completion::CopyDone { .. } => Completion::CopyDone { token: orig },
            Completion::GpuDone { .. } => Completion::GpuDone { token: orig },
        }
    }

    /// Phase programs, for post-run inspection.
    pub fn phases(&self) -> impl Iterator<Item = &dyn RankProgram> {
        self.phases
            .iter()
            .map(|p| p.as_ref().expect("phase present").as_ref())
    }
}

impl RankProgram for PhasedProgram {
    fn on_start(&mut self, ctx: &mut dyn ProgramCtx) {
        self.drive(ctx, None);
    }

    fn on_completion(&mut self, ctx: &mut dyn ProgramCtx, completion: Completion) {
        let c = self.translate(completion);
        self.drive(ctx, Some(c));
    }
}

/// Ctx facade for one phase: remaps tags and tokens, captures `finish`.
struct PhasedCtx<'a> {
    inner: &'a mut dyn ProgramCtx,
    tag_offset: u32,
    tokens: &'a mut FxHashMap<u64, Token>,
    next_token: &'a mut u64,
    finished: &'a mut bool,
}

impl PhasedCtx<'_> {
    fn wrap_token(&mut self, t: Token) -> Token {
        let id = *self.next_token;
        *self.next_token += 1;
        self.tokens.insert(id, t);
        Token(id)
    }

    fn wrap_tag(&self, tag: u32) -> u32 {
        if tag == ANY_TAG {
            // Wildcard windows stay scoped to this phase's tag block, so an
            // ADAPT-style engine can run inside a phase without capturing
            // traffic of earlier/later phases.
            return any_tag_in_block(self.tag_offset / TAG_STRIDE);
        }
        assert!(tag < TAG_STRIDE, "phase tag out of range (got {tag})");
        tag + self.tag_offset
    }
}

impl ProgramCtx for PhasedCtx<'_> {
    fn rank(&self) -> u32 {
        self.inner.rank()
    }
    fn nranks(&self) -> u32 {
        self.inner.nranks()
    }
    fn now(&self) -> adapt_sim::time::Time {
        self.inner.now()
    }
    fn mem_of(&self, rank: u32) -> adapt_topology::MemSpace {
        self.inner.mem_of(rank)
    }
    fn host_of(&self, rank: u32) -> adapt_topology::MemSpace {
        self.inner.host_of(rank)
    }
    fn cpu_reduce_cost(&self, bytes: u64) -> adapt_sim::time::Duration {
        self.inner.cpu_reduce_cost(bytes)
    }
    fn eager_limit(&self) -> u64 {
        self.inner.eager_limit()
    }
    fn post(&mut self, op: Op) {
        let wrapped = match op {
            Op::Isend {
                dst,
                tag,
                payload,
                token,
                src_mem,
            } => Op::Isend {
                dst,
                tag: self.wrap_tag(tag),
                payload,
                token: self.wrap_token(token),
                src_mem,
            },
            Op::Irecv {
                src,
                tag,
                token,
                dst_mem,
            } => Op::Irecv {
                src,
                tag: self.wrap_tag(tag),
                token: self.wrap_token(token),
                dst_mem,
            },
            Op::Compute { work, token } => Op::Compute {
                work,
                token: self.wrap_token(token),
            },
            Op::GpuReduce { bytes, token } => Op::GpuReduce {
                bytes,
                token: self.wrap_token(token),
            },
            Op::Copy {
                from,
                to,
                bytes,
                token,
            } => Op::Copy {
                from,
                to,
                bytes,
                token: self.wrap_token(token),
            },
            // Nested phase marks pass through untouched (no tag/token).
            Op::Phase { index, begin } => Op::Phase { index, begin },
            Op::Finish => {
                *self.finished = true;
                return;
            }
        };
        self.inner.post(wrapped);
    }
}

/// Per-level shapes and segment sizes for hierarchical collectives.
#[derive(Clone, Copy, Debug, PartialEq, Eq)]
pub struct HierLevels {
    /// Shape among node leaders.
    pub cluster: TreeKind,
    /// Shape among socket leaders within a node.
    pub node: TreeKind,
    /// Shape within a socket.
    pub socket: TreeKind,
    /// Pipeline segment size used by every level.
    pub seg_size: u64,
}

impl Default for HierLevels {
    fn default() -> Self {
        HierLevels {
            cluster: TreeKind::Binomial,
            node: TreeKind::Flat,
            socket: TreeKind::Flat,
            seg_size: 64 * 1024,
        }
    }
}

/// Hierarchical (multi-communicator) broadcast: cluster phase, then node,
/// then socket.
#[derive(Clone)]
pub struct HierBcastSpec {
    /// Job placement (defines the groups).
    pub placement: Placement,
    /// Broadcast root.
    pub root: u32,
    /// Message size in bytes.
    pub msg_bytes: u64,
    /// Per-level configuration.
    pub levels: HierLevels,
    /// Real payload at the root (`None` = synthetic).
    pub data: Option<Bytes>,
}

impl HierBcastSpec {
    /// The per-rank phase lists and data slots, for callers that compose
    /// hierarchical broadcasts into larger phase chains (e.g. one broadcast
    /// per application iteration in ASP).
    pub fn phase_lists(&self) -> Vec<(Vec<Box<dyn RankProgram>>, DataSlot)> {
        let n = self.placement.len();
        let h = Hierarchy::build_rooted(&self.placement, self.root);
        let cluster_tree = Tree::partial(self.levels.cluster, n, &h.cluster_group.ranks);
        let node_trees: Vec<Tree> = h
            .node_groups
            .iter()
            .map(|g| Tree::partial(self.levels.node, n, &g.ranks))
            .collect();
        let socket_trees: Vec<Tree> = h
            .socket_groups
            .iter()
            .map(|g| Tree::partial(self.levels.socket, n, &g.ranks))
            .collect();
        (0..n)
            .map(|r| {
                let slot: DataSlot = Rc::new(std::cell::RefCell::new(if r == self.root {
                    Some(match &self.data {
                        Some(b) => Payload::Data(b.clone()),
                        None => Payload::Synthetic(self.msg_bytes),
                    })
                } else {
                    None
                }));
                // Every rank runs every phase in the same order so the
                // per-phase tag ranges agree across ranks; phases that do
                // not involve `r` no-op instantly.
                let phases: Vec<Box<dyn RankProgram>> = std::iter::once(&cluster_tree)
                    .chain(node_trees.iter())
                    .chain(socket_trees.iter())
                    .map(|tree| {
                        Box::new(WaitallBcast::phase(
                            tree,
                            self.msg_bytes,
                            self.levels.seg_size,
                            slot.clone(),
                            r,
                        )) as Box<dyn RankProgram>
                    })
                    .collect();
                (phases, slot)
            })
            .collect()
    }

    /// Instantiate the per-rank programs.
    pub fn programs(&self) -> Vec<Box<dyn RankProgram>> {
        self.phase_lists()
            .into_iter()
            .map(|(phases, slot)| {
                Box::new(HierProgram {
                    inner: PhasedProgram::new(phases),
                    slot,
                }) as Box<dyn RankProgram>
            })
            .collect()
    }
}

/// Hierarchical (multi-communicator) reduce: socket phase, then node, then
/// cluster.
#[derive(Clone)]
pub struct HierReduceSpec {
    /// Job placement (defines the groups).
    pub placement: Placement,
    /// Reduce root.
    pub root: u32,
    /// Message size in bytes.
    pub msg_bytes: u64,
    /// Per-level configuration.
    pub levels: HierLevels,
    /// Real per-rank contributions (`None` = synthetic).
    pub data: Option<crate::ReduceInputs>,
}

impl HierReduceSpec {
    /// The per-rank phase lists and data slots (see
    /// [`HierBcastSpec::phase_lists`]).
    pub fn phase_lists(&self) -> Vec<(Vec<Box<dyn RankProgram>>, DataSlot)> {
        let n = self.placement.len();
        let h = Hierarchy::build_rooted(&self.placement, self.root);
        let cluster_tree = Tree::partial(self.levels.cluster, n, &h.cluster_group.ranks);
        let node_trees: Vec<Tree> = h
            .node_groups
            .iter()
            .map(|g| Tree::partial(self.levels.node, n, &g.ranks))
            .collect();
        let socket_trees: Vec<Tree> = h
            .socket_groups
            .iter()
            .map(|g| Tree::partial(self.levels.socket, n, &g.ranks))
            .collect();
        let op_dtype = self.data.as_ref().map(|d| (d.op, d.dtype));
        (0..n)
            .map(|r| {
                let own = match &self.data {
                    Some(inputs) => Payload::Data(inputs.contributions[r as usize].clone()),
                    None => Payload::Synthetic(self.msg_bytes),
                };
                let slot: DataSlot = Rc::new(std::cell::RefCell::new(Some(own)));
                // Reduce flows bottom-up: socket first, cluster last. As in
                // broadcast, every rank runs every phase so tag ranges agree.
                let phases: Vec<Box<dyn RankProgram>> = socket_trees
                    .iter()
                    .chain(node_trees.iter())
                    .chain(std::iter::once(&cluster_tree))
                    .map(|tree| {
                        Box::new(WaitallReduce::phase(
                            tree,
                            self.msg_bytes,
                            self.levels.seg_size,
                            op_dtype,
                            slot.clone(),
                            r,
                        )) as Box<dyn RankProgram>
                    })
                    .collect();
                (phases, slot)
            })
            .collect()
    }

    /// Instantiate the per-rank programs.
    pub fn programs(&self) -> Vec<Box<dyn RankProgram>> {
        self.phase_lists()
            .into_iter()
            .map(|(phases, slot)| {
                Box::new(HierProgram {
                    inner: PhasedProgram::new(phases),
                    slot,
                }) as Box<dyn RankProgram>
            })
            .collect()
    }
}

/// Phased program plus its data slot, for post-run verification.
pub struct HierProgram {
    inner: PhasedProgram,
    slot: DataSlot,
}

impl HierProgram {
    /// The rank's final data (broadcast: delivered payload; reduce on the
    /// global root: the folded result).
    pub fn data(&self) -> Option<Vec<u8>> {
        match self.slot.borrow().as_ref() {
            Some(Payload::Data(b)) => Some(b.to_vec()),
            _ => None,
        }
    }

    /// Completion time of the last phase.
    pub fn finished_at(&self) -> Option<adapt_sim::time::Time> {
        self.inner.finished_at
    }
}

impl RankProgram for HierProgram {
    fn on_start(&mut self, ctx: &mut dyn ProgramCtx) {
        self.inner.on_start(ctx);
    }
    fn on_completion(&mut self, ctx: &mut dyn ProgramCtx, completion: Completion) {
        self.inner.on_completion(ctx, completion);
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use adapt_mpi::{bytes_to_f64, f64_to_bytes, World};
    use adapt_noise::ClusterNoise;
    use adapt_topology::profiles;
    use std::sync::Arc;

    #[test]
    fn hier_bcast_delivers_data() {
        let machine = profiles::minicluster(3, 2, 4);
        let n = 24;
        let data: Vec<u8> = (0..120_000u32).map(|i| (i % 253) as u8).collect();
        let spec = HierBcastSpec {
            placement: Placement::block_cpu(machine.shape, n),
            root: 0,
            msg_bytes: data.len() as u64,
            levels: HierLevels::default(),
            data: Some(Bytes::from(data.clone())),
        };
        let world = World::cpu(machine, n, ClusterNoise::silent(n));
        let res = world.try_run(spec.programs()).unwrap();
        for (r, p) in res.programs.into_iter().enumerate() {
            let any: Box<dyn std::any::Any> = p;
            let h = any.downcast::<HierProgram>().unwrap();
            assert_eq!(h.data().unwrap(), data, "rank {r}");
        }
    }

    #[test]
    fn hier_reduce_computes_sum() {
        let machine = profiles::minicluster(2, 2, 3);
        let n = 12u32;
        let elems = 1500usize;
        let contributions: Vec<Bytes> = (0..n)
            .map(|r| Bytes::from(f64_to_bytes(&vec![r as f64 + 0.5; elems])))
            .collect();
        let spec = HierReduceSpec {
            placement: Placement::block_cpu(machine.shape, n),
            root: 0,
            msg_bytes: (elems * 8) as u64,
            levels: HierLevels {
                cluster: TreeKind::Binomial,
                node: TreeKind::Flat,
                socket: TreeKind::Knomial(4),
                seg_size: 4 * 1024,
            },
            data: Some(crate::ReduceInputs::f64_sum(contributions)),
        };
        let world = World::cpu(machine, n, ClusterNoise::silent(n));
        let res = world.try_run(spec.programs()).unwrap();
        let root: Box<dyn std::any::Any> = res.programs.into_iter().next().unwrap();
        let root = root.downcast::<HierProgram>().unwrap();
        let got = bytes_to_f64(&root.data().unwrap());
        let expect: f64 = (0..n).map(|r| r as f64 + 0.5).sum();
        assert_eq!(got, vec![expect; elems]);
    }

    #[test]
    fn hier_levels_do_not_overlap_but_adapt_topo_does() {
        // The §3.1 critique quantified: same message, same machine — the
        // phased hierarchy must be slower than ADAPT's single-communicator
        // topology-aware tree, which overlaps all levels.
        let machine = profiles::minicluster(4, 2, 4);
        let n = 32;
        let msg = 4 << 20;
        let hier = {
            let spec = HierBcastSpec {
                placement: Placement::block_cpu(machine.shape, n),
                root: 0,
                msg_bytes: msg,
                levels: HierLevels::default(),
                data: None,
            };
            let world = World::cpu(machine.clone(), n, ClusterNoise::silent(n));
            world.try_run(spec.programs()).unwrap().makespan
        };
        let adapt = {
            let placement = Placement::block_cpu(machine.shape, n);
            let tree = Arc::new(adapt_core::topology_aware_tree(
                &placement,
                adapt_core::TopoTreeConfig::default(),
            ));
            let spec = adapt_core::BcastSpec {
                tree,
                msg_bytes: msg,
                cfg: adapt_core::AdaptConfig::default(),
                data: None,
            };
            let world = World::cpu(machine, n, ClusterNoise::silent(n));
            world.try_run(spec.programs()).unwrap().makespan
        };
        assert!(
            adapt.as_nanos() < hier.as_nanos(),
            "adapt={adapt} hier={hier}"
        );
    }

    #[test]
    fn adapt_engine_runs_inside_phases() {
        // Two back-to-back ADAPT broadcasts as phases of one program: the
        // scoped wildcard windows must not capture each other's segments,
        // and both payloads must arrive intact.
        let machine = profiles::minicluster(2, 2, 2);
        let n = 8u32;
        let d1: Vec<u8> = (0..40_000u32).map(|i| (i % 201) as u8).collect();
        let d2: Vec<u8> = (0..40_000u32).map(|i| (i % 119) as u8).collect();
        let mk_spec = |data: &[u8]| adapt_core::BcastSpec {
            tree: Arc::new(adapt_core::Tree::build(TreeKind::Binomial, n, 0)),
            msg_bytes: data.len() as u64,
            cfg: adapt_core::AdaptConfig::default().with_seg_size(4 * 1024),
            data: Some(Bytes::from(data.to_vec())),
        };
        let s1 = mk_spec(&d1);
        let s2 = mk_spec(&d2);
        let programs: Vec<Box<dyn RankProgram>> = (0..n)
            .map(|r| {
                Box::new(PhasedProgram::new(vec![
                    Box::new(adapt_core::AdaptBcast::new(&s1, r)) as Box<dyn RankProgram>,
                    Box::new(adapt_core::AdaptBcast::new(&s2, r)) as Box<dyn RankProgram>,
                ])) as Box<dyn RankProgram>
            })
            .collect();
        let world = World::cpu(machine, n, ClusterNoise::silent(n));
        let res = world.try_run(programs).unwrap();
        for (r, p) in res.programs.into_iter().enumerate() {
            let any: Box<dyn std::any::Any> = p;
            let phased = any.downcast::<PhasedProgram>().unwrap();
            let phases: Vec<&dyn RankProgram> = phased.phases().collect();
            for (want, phase) in [&d1, &d2].iter().zip(&phases) {
                let b = (*phase as &dyn std::any::Any)
                    .downcast_ref::<adapt_core::AdaptBcast>()
                    .expect("adapt bcast phase");
                assert_eq!(&b.assembled().unwrap(), *want, "rank {r}");
            }
        }
    }

    #[test]
    fn single_rank_hier_job() {
        let machine = profiles::minicluster(1, 1, 1);
        let spec = HierBcastSpec {
            placement: Placement::block_cpu(machine.shape, 1),
            root: 0,
            msg_bytes: 1 << 20,
            levels: HierLevels::default(),
            data: None,
        };
        let world = World::cpu(machine, 1, ClusterNoise::silent(1));
        let res = world.try_run(spec.programs()).unwrap();
        assert!(res.makespan.as_nanos() < 1_000_000);
    }
}
