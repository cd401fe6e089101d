//! ADAPT event-driven reduce (paper §2.2.3 / §4.2).
//!
//! Data flows leaves → root along the tree. Each rank keeps `M` receives
//! outstanding per child and `N` sends outstanding toward its parent; a
//! segment travels upward as soon as every child's contribution has been
//! folded into it, independently of all other segments — no Waitall, no
//! cross-segment ordering.
//!
//! The fold itself can execute on the host CPU (blocking the progress
//! engine, as every mainstream MPI does) or be offloaded to the rank's GPU
//! stream (asynchronous, §4.2) — the ablation of Figure 11's reduce wins.

use crate::config::{pack_token, unpack_token, AdaptConfig};
use crate::segments::Segments;
use crate::tree::Tree;
use adapt_mpi::{
    combine, program::ANY_TAG, Completion, DType, Payload, ProgramCtx, RankProgram, ReduceOp, Tag,
};
use bytes::Bytes;
use std::sync::Arc;

const KIND_SEND: u8 = 1;
const KIND_RECV: u8 = 2;
const KIND_FOLD: u8 = 3;

/// What the reduction operates on.
///
/// Folds apply in completion order, so operators are assumed commutative
/// and associative (all predefined [`ReduceOp`]s are). Non-commutative
/// user operators would need rank-ordered folding, which MPI requires but
/// the paper's evaluation never exercises.
#[derive(Clone)]
pub enum ReduceData {
    /// Timing-only: no arithmetic, buffers are length-only.
    Synthetic,
    /// Real data: per-rank contributions, verified numerically after the
    /// run.
    Real {
        /// The operator.
        op: ReduceOp,
        /// Element type.
        dtype: DType,
        /// `contributions[r]` is rank `r`'s input vector.
        contributions: Arc<Vec<Bytes>>,
    },
}

/// Where the fold executes.
#[derive(Clone, Copy, Debug, PartialEq, Eq)]
pub enum ReduceExec {
    /// Host CPU: blocks the rank's progress engine for γ·bytes.
    Cpu,
    /// GPU stream: asynchronous, overlaps with communication (§4.2).
    GpuAsync,
}

/// Description of one ADAPT reduce, shared by all ranks.
#[derive(Clone)]
pub struct ReduceSpec {
    /// Communication tree (data flows child → parent).
    pub tree: Arc<Tree>,
    /// Message size in bytes.
    pub msg_bytes: u64,
    /// Pipeline configuration.
    pub cfg: AdaptConfig,
    /// Data mode.
    pub data: ReduceData,
    /// Fold execution target.
    pub exec: ReduceExec,
}

impl ReduceSpec {
    /// Instantiate the per-rank programs.
    pub fn programs(&self) -> Vec<Box<dyn RankProgram>> {
        (0..self.tree.len())
            .map(|r| Box::new(AdaptReduce::new(self, r)) as Box<dyn RankProgram>)
            .collect()
    }
}

struct SegState {
    /// Accumulated value (real mode only).
    value: Option<Vec<u8>>,
    /// Child contributions not yet folded.
    remaining: u32,
}

/// One rank's state machine for the ADAPT reduce.
pub struct AdaptReduce {
    rank: u32,
    parent: Option<u32>,
    children: Vec<u32>,
    segs: Segments,
    cfg: AdaptConfig,
    exec: ReduceExec,
    real: Option<(ReduceOp, DType)>,
    seg_state: Vec<SegState>,
    /// Segments whose fold is complete, in completion order.
    ready: Vec<u64>,
    /// Cursor into `ready` for the parent pipeline.
    cursor: usize,
    /// Sends in flight toward the parent.
    outstanding: u32,
    sends_done: u64,
    /// Per child: receives posted so far.
    posted: Vec<u64>,
    /// Per child: receives arrived so far.
    arrived: Vec<u64>,
    /// Segments fully folded (the root completes when all are).
    complete_segs: u64,
    finished: bool,
    /// Completion time, for inspection after the run.
    pub finished_at: Option<adapt_sim::time::Time>,
}

impl AdaptReduce {
    /// Build rank `rank`'s program for `spec`.
    pub fn new(spec: &ReduceSpec, rank: u32) -> AdaptReduce {
        let segs = Segments::new(spec.msg_bytes, spec.cfg.seg_size);
        let children = spec.tree.children(rank).to_vec();
        let nseg = segs.count();
        let (real, own): (Option<(ReduceOp, DType)>, Option<&Bytes>) = match &spec.data {
            ReduceData::Synthetic => (None, None),
            ReduceData::Real {
                op,
                dtype,
                contributions,
            } => {
                assert_eq!(
                    contributions[rank as usize].len() as u64,
                    spec.msg_bytes,
                    "contribution size mismatch"
                );
                (Some((*op, *dtype)), Some(&contributions[rank as usize]))
            }
        };
        let seg_state = (0..nseg)
            .map(|s| SegState {
                value: own.map(|b| {
                    b.slice(segs.offset(s) as usize..(segs.offset(s) + segs.len(s)) as usize)
                        .to_vec()
                }),
                remaining: children.len() as u32,
            })
            .collect::<Vec<_>>();
        // Leaves have nothing to fold: every segment is ready immediately.
        let ready = if children.is_empty() {
            (0..nseg).collect()
        } else {
            Vec::new()
        };
        let complete_segs = if children.is_empty() { nseg } else { 0 };
        AdaptReduce {
            rank,
            parent: spec.tree.parent(rank),
            children: children.clone(),
            segs,
            cfg: spec.cfg,
            exec: spec.exec,
            real,
            seg_state,
            ready,
            cursor: 0,
            outstanding: 0,
            sends_done: 0,
            posted: vec![0; children.len()],
            arrived: vec![0; children.len()],
            complete_segs,
            finished: false,
            finished_at: None,
        }
    }

    fn nseg(&self) -> u64 {
        self.segs.count()
    }

    /// Keep each child's receive pipeline `M` deep. Wildcard-tagged: a
    /// child's folds complete in arbitrary order, and the window accepts
    /// whichever segment it ships next (identity travels in the tag).
    fn push_recvs(&mut self, ctx: &mut dyn ProgramCtx, c: usize) {
        while self.posted[c] < self.nseg()
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

    /// Keep the parent pipeline `N` deep.
    fn push_sends(&mut self, ctx: &mut dyn ProgramCtx) {
        let Some(parent) = self.parent else { return };
        while self.outstanding < self.cfg.outstanding_sends && self.cursor < self.ready.len() {
            let seg = self.ready[self.cursor];
            self.cursor += 1;
            self.outstanding += 1;
            let payload = match &self.seg_state[seg as usize].value {
                Some(v) => Payload::from(v.clone()),
                None => Payload::Synthetic(self.segs.len(seg)),
            };
            ctx.isend(parent, seg as Tag, payload, pack_token(KIND_SEND, 0, seg));
        }
    }

    fn check_done(&mut self, ctx: &mut dyn ProgramCtx) {
        if self.finished {
            return;
        }
        let done = if self.parent.is_none() {
            self.complete_segs == self.nseg()
        } else {
            self.sends_done == self.nseg()
        };
        if done {
            self.finished = true;
            self.finished_at = Some(ctx.now());
            ctx.finish();
        }
    }

    /// The rank this program runs on.
    pub fn rank(&self) -> u32 {
        self.rank
    }

    /// The fully reduced message (root, real mode, after the run).
    pub fn result(&self) -> Option<Vec<u8>> {
        if self.parent.is_some() {
            return None;
        }
        let mut out = Vec::with_capacity(self.segs.total() as usize);
        for st in &self.seg_state {
            out.extend_from_slice(st.value.as_ref()?);
        }
        Some(out)
    }

    /// Charge the modelled cost of folding one child contribution.
    fn fold_cost(&self, ctx: &mut dyn ProgramCtx, c: usize, seg: u64) {
        let bytes = self.segs.len(seg);
        let token = pack_token(KIND_FOLD, c as u32, seg);
        match self.exec {
            ReduceExec::Cpu => ctx.cpu_reduce(bytes, token),
            ReduceExec::GpuAsync => ctx.gpu_reduce(bytes, token),
        }
    }
}

impl RankProgram for AdaptReduce {
    fn on_start(&mut self, ctx: &mut dyn ProgramCtx) {
        if self.nseg() == 0 {
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
            Completion::RecvDone {
                token, tag, data, ..
            } => {
                let (kind, c, _idx) = unpack_token(token);
                debug_assert_eq!(kind, KIND_RECV);
                let c = c as usize;
                let seg = tag as u64;
                self.arrived[c] += 1;
                // Fold the values now (costs are modelled separately via the
                // fold completion below).
                if let (Some((op, dtype)), Some(operand)) = (self.real, data.bytes()) {
                    let st = &mut self.seg_state[seg as usize];
                    combine(op, dtype, st.value.as_mut().expect("acc"), operand);
                }
                self.fold_cost(ctx, c, seg);
                self.push_recvs(ctx, c);
            }
            Completion::ComputeDone { token } | Completion::GpuDone { token } => {
                let (kind, _c, seg) = unpack_token(token);
                debug_assert_eq!(kind, KIND_FOLD);
                let st = &mut self.seg_state[seg as usize];
                st.remaining -= 1;
                if st.remaining == 0 {
                    self.complete_segs += 1;
                    self.ready.push(seg);
                    self.push_sends(ctx);
                }
            }
            Completion::SendDone { token } => {
                let (kind, _, _) = unpack_token(token);
                debug_assert_eq!(kind, KIND_SEND);
                self.outstanding -= 1;
                self.sends_done += 1;
                self.push_sends(ctx);
            }
            other => panic!("reduce got unexpected completion {other:?}"),
        }
        self.check_done(ctx);
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::tree::TreeKind;
    use adapt_mpi::{f64_to_bytes, World};
    use adapt_noise::ClusterNoise;
    use adapt_topology::profiles;

    fn contributions(nranks: u32, elems: usize) -> Arc<Vec<Bytes>> {
        Arc::new(
            (0..nranks)
                .map(|r| {
                    let v: Vec<f64> = (0..elems).map(|i| (r as f64) + (i % 7) as f64).collect();
                    Bytes::from(f64_to_bytes(&v))
                })
                .collect(),
        )
    }

    fn expected_sum(nranks: u32, elems: usize) -> Vec<f64> {
        (0..elems)
            .map(|i| (0..nranks).map(|r| (r as f64) + (i % 7) as f64).sum())
            .collect()
    }

    fn run_real(kind: TreeKind, nranks: u32, elems: usize, exec: ReduceExec) -> Vec<f64> {
        let spec = ReduceSpec {
            tree: Arc::new(Tree::build(kind, nranks, 0)),
            msg_bytes: (elems * 8) as u64,
            cfg: AdaptConfig::default().with_seg_size(4 * 1024),
            data: ReduceData::Real {
                op: ReduceOp::Sum,
                dtype: DType::F64,
                contributions: contributions(nranks, elems),
            },
            exec,
        };
        let machine = if exec == ReduceExec::GpuAsync {
            profiles::mini_gpu(2)
        } else {
            profiles::minicluster(4, 2, 2)
        };
        let world = if exec == ReduceExec::GpuAsync {
            World::gpu(machine, nranks, ClusterNoise::silent(nranks))
        } else {
            World::cpu(machine, nranks, ClusterNoise::silent(nranks))
        };
        let res = world.try_run(spec.programs()).unwrap();
        let root: Box<dyn std::any::Any> = res.programs.into_iter().next().unwrap();
        let root = root.downcast::<AdaptReduce>().expect("reduce program");
        adapt_mpi::bytes_to_f64(&root.result().expect("root result"))
    }

    #[test]
    fn sums_match_sequential_fold_on_every_tree() {
        let elems = 3000;
        let expect = expected_sum(12, elems);
        for kind in [
            TreeKind::Chain,
            TreeKind::Binary,
            TreeKind::Binomial,
            TreeKind::Knomial(4),
            TreeKind::Flat,
        ] {
            assert_eq!(
                run_real(kind, 12, elems, ReduceExec::Cpu),
                expect,
                "{kind:?}"
            );
        }
    }

    #[test]
    fn gpu_offloaded_fold_produces_same_values() {
        let elems = 2000;
        let expect = expected_sum(8, elems);
        assert_eq!(
            run_real(TreeKind::Binary, 8, elems, ReduceExec::GpuAsync),
            expect
        );
    }

    #[test]
    fn gpu_async_fold_is_faster_than_cpu_fold() {
        // On a GPU machine the stream folds at 60 GB/s and overlaps with
        // communication; the CPU fold at 3 GB/s blocks the progress engine.
        let mk = |exec| {
            let spec = ReduceSpec {
                tree: Arc::new(Tree::build(TreeKind::Chain, 8, 0)),
                msg_bytes: 8 << 20,
                cfg: AdaptConfig::default(),
                data: ReduceData::Synthetic,
                exec,
            };
            let world = World::gpu(profiles::mini_gpu(2), 8, ClusterNoise::silent(8));
            world.try_run(spec.programs()).unwrap().makespan
        };
        let cpu = mk(ReduceExec::Cpu);
        let gpu = mk(ReduceExec::GpuAsync);
        assert!(
            gpu.as_nanos() < cpu.as_nanos(),
            "gpu fold {gpu} should beat cpu fold {cpu}"
        );
    }

    #[test]
    fn zero_byte_reduce_finishes() {
        let spec = ReduceSpec {
            tree: Arc::new(Tree::build(TreeKind::Binomial, 6, 0)),
            msg_bytes: 0,
            cfg: AdaptConfig::default(),
            data: ReduceData::Synthetic,
            exec: ReduceExec::Cpu,
        };
        let world = World::cpu(profiles::minicluster(2, 2, 2), 6, ClusterNoise::silent(6));
        let res = world.try_run(spec.programs()).unwrap();
        assert!(res.makespan.as_nanos() < 1_000_000);
    }

    #[test]
    fn max_and_min_ops() {
        for (op, pick) in [(ReduceOp::Max, 7.0f64), (ReduceOp::Min, 0.0f64)] {
            let elems = 100;
            let spec = ReduceSpec {
                tree: Arc::new(Tree::build(TreeKind::Binomial, 8, 0)),
                msg_bytes: (elems * 8) as u64,
                cfg: AdaptConfig::default().with_seg_size(256),
                data: ReduceData::Real {
                    op,
                    dtype: DType::F64,
                    contributions: Arc::new(
                        (0..8u32)
                            .map(|r| Bytes::from(f64_to_bytes(&vec![r as f64; elems])))
                            .collect(),
                    ),
                },
                exec: ReduceExec::Cpu,
            };
            let world = World::cpu(profiles::minicluster(4, 1, 2), 8, ClusterNoise::silent(8));
            let res = world.try_run(spec.programs()).unwrap();
            let root: Box<dyn std::any::Any> = res.programs.into_iter().next().unwrap();
            let root = root.downcast::<AdaptReduce>().unwrap();
            let got = adapt_mpi::bytes_to_f64(&root.result().unwrap());
            assert_eq!(got, vec![pick; elems]);
        }
    }

    #[test]
    fn non_root_result_is_none() {
        let spec = ReduceSpec {
            tree: Arc::new(Tree::build(TreeKind::Chain, 4, 0)),
            msg_bytes: 1024,
            cfg: AdaptConfig::default(),
            data: ReduceData::Synthetic,
            exec: ReduceExec::Cpu,
        };
        let world = World::cpu(profiles::minicluster(2, 1, 2), 4, ClusterNoise::silent(4));
        let res = world.try_run(spec.programs()).unwrap();
        for (i, p) in res.programs.into_iter().enumerate().skip(1) {
            let any: Box<dyn std::any::Any> = p;
            let r = any.downcast::<AdaptReduce>().unwrap();
            assert!(r.result().is_none(), "rank {i}");
            assert_eq!(r.rank(), i as u32);
        }
    }
}
