//! Blocking point-to-point collective implementations (paper §2.1.1,
//! Figure 1, Algorithm 1) — the MPICH/MVAPICH-style baseline.
//!
//! Exactly one operation is in flight per rank at any time: a rank
//! receives segment `i` *completely*, then sends it to child 0, waits,
//! child 1, waits, … before touching segment `i+1`. Every hand-off is a
//! rendezvous, so noise on either side of any edge stalls both — the
//! synchronization-dependency amplification the paper analyzes.

use adapt_core::{Segments, Tree};
use adapt_mpi::{Completion, Payload, ProgramCtx, RankProgram, Tag, Token};
use bytes::Bytes;
use std::sync::Arc;

/// Description of a blocking pipelined broadcast.
#[derive(Clone)]
pub struct BlockingBcastSpec {
    /// Communication tree.
    pub tree: Arc<Tree>,
    /// Message size in bytes.
    pub msg_bytes: u64,
    /// Pipeline segment size.
    pub seg_size: u64,
    /// Real payload at the root (`None` = synthetic).
    pub data: Option<Bytes>,
}

impl BlockingBcastSpec {
    /// Instantiate the per-rank programs.
    pub fn programs(&self) -> Vec<Box<dyn RankProgram>> {
        (0..self.tree.len())
            .map(|r| Box::new(BlockingBcast::new(self, r)) as Box<dyn RankProgram>)
            .collect()
    }
}

/// Sequential script steps of the blocking engine.
#[derive(Clone, Copy, Debug, PartialEq, Eq)]
enum Step {
    Recv { seg: u64 },
    Send { seg: u64, child: usize },
}

/// One rank's blocking broadcast: a strictly ordered script with one
/// operation in flight.
pub struct BlockingBcast {
    parent: Option<u32>,
    children: Vec<u32>,
    segs: Segments,
    script: Vec<Step>,
    pc: usize,
    root_payload: Option<Payload>,
    received: Vec<Option<Payload>>,
    /// Completion time, for inspection after the run.
    pub finished_at: Option<adapt_sim::time::Time>,
}

impl BlockingBcast {
    /// Build rank `rank`'s program.
    pub fn new(spec: &BlockingBcastSpec, rank: u32) -> BlockingBcast {
        let segs = Segments::new(spec.msg_bytes, spec.seg_size);
        let children = spec.tree.children(rank).to_vec();
        let parent = spec.tree.parent(rank);
        let mut script = Vec::new();
        for seg in 0..segs.count() {
            if parent.is_some() {
                script.push(Step::Recv { seg });
            }
            for child in 0..children.len() {
                script.push(Step::Send { seg, child });
            }
        }
        let root_payload = (rank == spec.tree.root()).then(|| match &spec.data {
            Some(b) => Payload::Data(b.clone()),
            None => Payload::Synthetic(spec.msg_bytes),
        });
        BlockingBcast {
            parent,
            children,
            segs,
            script,
            pc: 0,
            root_payload,
            received: vec![None; segs.count() as usize],
            finished_at: None,
        }
    }

    fn seg_payload(&self, s: u64) -> Payload {
        match &self.root_payload {
            Some(p) => p.slice(self.segs.offset(s), self.segs.len(s)),
            None => self.received[s as usize].clone().expect("segment present"),
        }
    }

    /// Issue the operation at the program counter (exactly one in flight).
    fn issue(&mut self, ctx: &mut dyn ProgramCtx) {
        match self.script.get(self.pc) {
            None => {
                self.finished_at = Some(ctx.now());
                ctx.finish();
            }
            Some(&Step::Recv { seg }) => {
                ctx.irecv(self.parent.expect("non-root"), seg as Tag, Token(seg));
            }
            Some(&Step::Send { seg, child }) => {
                let payload = self.seg_payload(seg);
                ctx.isend(self.children[child], seg as Tag, payload, Token(seg));
            }
        }
    }

    /// Received segments reassembled (testing aid).
    pub fn assembled(&self) -> Option<Vec<u8>> {
        if let Some(p) = &self.root_payload {
            return p.bytes().map(|b| b.to_vec());
        }
        let mut out = Vec::new();
        for seg in &self.received {
            out.extend_from_slice(seg.as_ref()?.bytes()?);
        }
        Some(out)
    }
}

impl RankProgram for BlockingBcast {
    fn on_start(&mut self, ctx: &mut dyn ProgramCtx) {
        self.issue(ctx);
    }

    fn on_completion(&mut self, ctx: &mut dyn ProgramCtx, completion: Completion) {
        match completion {
            Completion::RecvDone { data, tag, .. } => {
                debug_assert!(
                    matches!(self.script[self.pc], Step::Recv { seg } if seg == tag as u64)
                );
                self.received[tag as usize] = Some(data);
            }
            Completion::SendDone { .. } => {
                debug_assert!(matches!(self.script[self.pc], Step::Send { .. }));
            }
            other => panic!("blocking bcast got {other:?}"),
        }
        self.pc += 1;
        self.issue(ctx);
    }
}

/// Description of a blocking pipelined reduce.
#[derive(Clone)]
pub struct BlockingReduceSpec {
    /// Communication tree (data flows child → parent).
    pub tree: Arc<Tree>,
    /// Message size in bytes.
    pub msg_bytes: u64,
    /// Pipeline segment size.
    pub seg_size: u64,
    /// Real per-rank contributions (`None` = synthetic).
    pub data: Option<crate::ReduceInputs>,
}

impl BlockingReduceSpec {
    /// Instantiate the per-rank programs.
    pub fn programs(&self) -> Vec<Box<dyn RankProgram>> {
        (0..self.tree.len())
            .map(|r| Box::new(BlockingReduce::new(self, r)) as Box<dyn RankProgram>)
            .collect()
    }
}

#[derive(Clone, Copy, Debug, PartialEq, Eq)]
enum RStep {
    Recv { seg: u64, child: usize },
    Send { seg: u64 },
}

/// One rank's blocking reduce: receive each child's segment in order, fold
/// (CPU-blocking), then forward upward — one operation in flight.
pub struct BlockingReduce {
    parent: Option<u32>,
    children: Vec<u32>,
    segs: Segments,
    script: Vec<RStep>,
    pc: usize,
    real: Option<(adapt_mpi::ReduceOp, adapt_mpi::DType)>,
    acc: Vec<Option<Vec<u8>>>,
    /// Waiting for the fold compute of the last received contribution.
    folding: bool,
    /// Completion time, for inspection after the run.
    pub finished_at: Option<adapt_sim::time::Time>,
}

impl BlockingReduce {
    /// Build rank `rank`'s program.
    pub fn new(spec: &BlockingReduceSpec, rank: u32) -> BlockingReduce {
        let segs = Segments::new(spec.msg_bytes, spec.seg_size);
        let children = spec.tree.children(rank).to_vec();
        let parent = spec.tree.parent(rank);
        let mut script = Vec::new();
        for seg in 0..segs.count() {
            for child in 0..children.len() {
                script.push(RStep::Recv { seg, child });
            }
            if parent.is_some() {
                script.push(RStep::Send { seg });
            }
        }
        let (real, acc) = match &spec.data {
            None => (None, vec![None; segs.count() as usize]),
            Some(inputs) => {
                let own = &inputs.contributions[rank as usize];
                assert_eq!(own.len() as u64, spec.msg_bytes);
                let acc = (0..segs.count())
                    .map(|s| {
                        Some(
                            own.slice(
                                segs.offset(s) as usize..(segs.offset(s) + segs.len(s)) as usize,
                            )
                            .to_vec(),
                        )
                    })
                    .collect();
                (Some((inputs.op, inputs.dtype)), acc)
            }
        };
        BlockingReduce {
            parent,
            children,
            segs,
            script,
            pc: 0,
            real,
            acc,
            folding: false,
            finished_at: None,
        }
    }

    fn issue(&mut self, ctx: &mut dyn ProgramCtx) {
        match self.script.get(self.pc) {
            None => {
                self.finished_at = Some(ctx.now());
                ctx.finish();
            }
            Some(&RStep::Recv { seg, child }) => {
                ctx.irecv(self.children[child], seg as Tag, Token(seg));
            }
            Some(&RStep::Send { seg }) => {
                let payload = match &self.acc[seg as usize] {
                    Some(v) => Payload::from(v.clone()),
                    None => Payload::Synthetic(self.segs.len(seg)),
                };
                ctx.isend(
                    self.parent.expect("non-root"),
                    seg as Tag,
                    payload,
                    Token(seg),
                );
            }
        }
    }

    /// The fully reduced message (root, real mode, after the run).
    pub fn result(&self) -> Option<Vec<u8>> {
        if self.parent.is_some() {
            return None;
        }
        let mut out = Vec::new();
        for st in &self.acc {
            out.extend_from_slice(st.as_ref()?);
        }
        Some(out)
    }
}

impl RankProgram for BlockingReduce {
    fn on_start(&mut self, ctx: &mut dyn ProgramCtx) {
        self.issue(ctx);
    }

    fn on_completion(&mut self, ctx: &mut dyn ProgramCtx, completion: Completion) {
        match completion {
            Completion::RecvDone { data, tag, .. } => {
                let seg = tag as u64;
                debug_assert!(
                    matches!(self.script[self.pc], RStep::Recv { seg: s, .. } if s == seg)
                );
                if let (Some((op, dtype)), Some(operand)) = (self.real, data.bytes()) {
                    adapt_mpi::combine(
                        op,
                        dtype,
                        self.acc[seg as usize].as_mut().expect("acc"),
                        operand,
                    );
                }
                // Blocking fold before anything else may proceed.
                self.folding = true;
                ctx.cpu_reduce(self.segs.len(seg), Token(u64::MAX));
                return;
            }
            Completion::ComputeDone { .. } => {
                debug_assert!(self.folding);
                self.folding = false;
            }
            Completion::SendDone { .. } => {
                debug_assert!(matches!(self.script[self.pc], RStep::Send { .. }));
            }
            other => panic!("blocking reduce got {other:?}"),
        }
        self.pc += 1;
        self.issue(ctx);
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use adapt_core::TreeKind;
    use adapt_mpi::{f64_to_bytes, World};
    use adapt_noise::ClusterNoise;
    use adapt_topology::profiles;

    #[test]
    fn blocking_bcast_delivers_data() {
        let data: Vec<u8> = (0..100_000u32).map(|i| (i % 256) as u8).collect();
        let spec = BlockingBcastSpec {
            tree: Arc::new(Tree::build(TreeKind::Binomial, 12, 0)),
            msg_bytes: data.len() as u64,
            seg_size: 16 * 1024,
            data: Some(Bytes::from(data.clone())),
        };
        let world = World::cpu(profiles::minicluster(4, 1, 4), 12, ClusterNoise::silent(12));
        let res = world.try_run(spec.programs()).unwrap();
        for (r, p) in res.programs.into_iter().enumerate() {
            let any: Box<dyn std::any::Any> = p;
            let b = any.downcast::<BlockingBcast>().unwrap();
            assert_eq!(b.assembled().unwrap(), data, "rank {r}");
        }
    }

    #[test]
    fn blocking_reduce_computes_sum() {
        let n = 8u32;
        let elems = 2048usize;
        let contributions: Vec<Bytes> = (0..n)
            .map(|r| Bytes::from(f64_to_bytes(&vec![r as f64 + 1.0; elems])))
            .collect();
        let spec = BlockingReduceSpec {
            tree: Arc::new(Tree::build(TreeKind::Binary, n, 0)),
            msg_bytes: (elems * 8) as u64,
            seg_size: 4096,
            data: Some(crate::ReduceInputs {
                op: adapt_mpi::ReduceOp::Sum,
                dtype: adapt_mpi::DType::F64,
                contributions: Arc::new(contributions),
            }),
        };
        let world = World::cpu(profiles::minicluster(4, 1, 2), n, ClusterNoise::silent(n));
        let res = world.try_run(spec.programs()).unwrap();
        let root: Box<dyn std::any::Any> = res.programs.into_iter().next().unwrap();
        let root = root.downcast::<BlockingReduce>().unwrap();
        let got = adapt_mpi::bytes_to_f64(&root.result().unwrap());
        let expect: f64 = (1..=n as u64).sum::<u64>() as f64;
        assert_eq!(got, vec![expect; elems]);
    }

    #[test]
    fn blocking_is_slower_than_adapt_on_chain() {
        let msg = 2 << 20;
        let tree = Arc::new(Tree::build(TreeKind::Chain, 8, 0));
        let blocking = {
            let spec = BlockingBcastSpec {
                tree: tree.clone(),
                msg_bytes: msg,
                seg_size: 64 * 1024,
                data: None,
            };
            let world = World::cpu(profiles::minicluster(8, 1, 1), 8, ClusterNoise::silent(8));
            world.try_run(spec.programs()).unwrap().makespan
        };
        let adapt = {
            let spec = adapt_core::BcastSpec {
                tree,
                msg_bytes: msg,
                cfg: adapt_core::AdaptConfig::default(),
                data: None,
            };
            let world = World::cpu(profiles::minicluster(8, 1, 1), 8, ClusterNoise::silent(8));
            world.try_run(spec.programs()).unwrap().makespan
        };
        assert!(
            adapt.as_nanos() < blocking.as_nanos(),
            "adapt={adapt} blocking={blocking}"
        );
    }
}
