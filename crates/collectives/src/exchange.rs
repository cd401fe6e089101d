//! Composite exchange algorithms: scatter + allgather broadcast
//! (recursive-doubling and ring variants, §2.2.3's "scatter followed by an
//! allgather" example) and Rabenseifner's reduce (reduce-scatter by
//! recursive halving + binomial gather).
//!
//! These are the classic large-message algorithms the Intel-MPI comparator
//! exposes (`Intel-topo-recursive-doubling`, `Intel-topo-ring`,
//! `Intel-topo-Rabenseifner's`). Each is a single program over the full
//! communicator using exact tags.

use adapt_core::{binomial_subtree, BlockPartition, Tree};
use adapt_mpi::{Completion, Payload, ProgramCtx, RankProgram, Tag, Token};
use adapt_topology::Rank;
use bytes::Bytes;

/// Allgather strategy for [`ScatterAllgatherBcast`].
#[derive(Clone, Copy, Debug, PartialEq, Eq)]
pub enum AllgatherKind {
    /// `n-1` neighbour steps; bandwidth-optimal, latency `O(n)`.
    Ring,
    /// `log n` pairwise doubling steps; requires a power-of-two rank count
    /// (the constructor falls back to [`AllgatherKind::Ring`] otherwise, as
    /// production libraries do).
    RecursiveDoubling,
}

/// Large-message broadcast as binomial scatter + allgather.
#[derive(Clone)]
pub struct ScatterAllgatherBcastSpec {
    /// Number of ranks (root is rank 0).
    pub nranks: u32,
    /// Message size in bytes.
    pub msg_bytes: u64,
    /// Allgather variant.
    pub allgather: AllgatherKind,
    /// Real payload at the root (`None` = synthetic).
    pub data: Option<Bytes>,
}

impl ScatterAllgatherBcastSpec {
    /// Instantiate the per-rank programs.
    pub fn programs(&self) -> Vec<Box<dyn RankProgram>> {
        let kind = if self.allgather == AllgatherKind::RecursiveDoubling
            && !self.nranks.is_power_of_two()
        {
            AllgatherKind::Ring
        } else {
            self.allgather
        };
        (0..self.nranks)
            .map(|r| Box::new(ScatterAllgatherBcast::new(self, kind, r)) as Box<dyn RankProgram>)
            .collect()
    }
}

#[derive(Clone, Copy, Debug, PartialEq, Eq)]
enum SagState {
    /// Waiting for the scatter range from the binomial parent.
    ScatterRecv,
    /// Forwarding scatter sub-ranges to binomial children.
    ScatterSend {
        next_child: usize,
        outstanding: u32,
    },
    /// Allgather step `s`; bits: send and/or recv still pending.
    Allgather {
        step: u32,
        send_pending: bool,
        recv_pending: bool,
    },
    Done,
}

/// One rank's scatter-allgather broadcast.
pub struct ScatterAllgatherBcast {
    rank: Rank,
    n: u64,
    part: BlockPartition,
    kind: AllgatherKind,
    /// Real block contents (index = block id) or None in synthetic mode.
    blocks: Option<Vec<Option<Bytes>>>,
    synthetic: bool,
    children: Vec<Rank>,
    parent: Option<Rank>,
    state: SagState,
    /// Completion time, for inspection after the run.
    pub finished_at: Option<adapt_sim::time::Time>,
}

const TAG_SCATTER: Tag = 0;
const TAG_AG_BASE: Tag = 1;

impl ScatterAllgatherBcast {
    fn new(spec: &ScatterAllgatherBcastSpec, kind: AllgatherKind, rank: Rank) -> Self {
        let n = spec.nranks as u64;
        let part = BlockPartition::new(spec.msg_bytes, n);
        let tree = Tree::build(adapt_core::TreeKind::Binomial, spec.nranks, 0);
        let blocks = match &spec.data {
            None => None,
            Some(b) => {
                let mut blocks = vec![None; n as usize];
                if rank == 0 {
                    for i in 0..n {
                        let off = part.offset(i) as usize;
                        let len = part.len(i) as usize;
                        blocks[i as usize] = Some(b.slice(off..off + len));
                    }
                }
                Some(blocks)
            }
        };
        ScatterAllgatherBcast {
            rank,
            n,
            part,
            kind,
            blocks,
            synthetic: spec.data.is_none(),
            children: tree.children(rank).to_vec(),
            parent: tree.parent(rank),
            state: if rank == 0 {
                SagState::ScatterSend {
                    next_child: 0,
                    outstanding: 0,
                }
            } else {
                SagState::ScatterRecv
            },
            finished_at: None,
        }
    }

    /// Payload for the contiguous block range `[lo, hi)`.
    fn range_payload(&self, lo: u64, hi: u64) -> Payload {
        if self.synthetic {
            return Payload::Synthetic(self.part.range_len(lo, hi));
        }
        let blocks = self.blocks.as_ref().expect("real mode");
        let mut out = Vec::with_capacity(self.part.range_len(lo, hi) as usize);
        for b in lo..hi {
            out.extend_from_slice(blocks[b as usize].as_ref().expect("block present"));
        }
        Payload::from(out)
    }

    /// Store a received payload into the block range `[lo, hi)`.
    fn store_range(&mut self, lo: u64, hi: u64, data: Payload) {
        let Some(blocks) = self.blocks.as_mut() else {
            return;
        };
        let Payload::Data(bytes) = data else { return };
        let mut off = 0usize;
        for b in lo..hi {
            let len = self.part.len(b) as usize;
            blocks[b as usize] = Some(bytes.slice(off..off + len));
            off += len;
        }
    }

    /// The block range rank `v`'s binomial subtree owns after the scatter.
    fn subtree_range(&self, v: u64) -> (u64, u64) {
        (v, v + binomial_subtree(v, self.n))
    }

    /// Blocks owned after allgather step `s` (recursive doubling): own
    /// block index's aligned group of size `2^s`.
    fn rd_owned(&self, step: u32) -> (u64, u64) {
        let group = 1u64 << step;
        let lo = (self.rank as u64 / group) * group;
        (lo, (lo + group).min(self.n))
    }

    fn advance(&mut self, ctx: &mut dyn ProgramCtx) {
        loop {
            match self.state {
                SagState::ScatterRecv => return, // waiting on parent
                SagState::ScatterSend {
                    mut next_child,
                    outstanding,
                } => {
                    if next_child < self.children.len() {
                        let child = self.children[next_child];
                        let (lo, hi) = self.subtree_range(child as u64);
                        let payload = self.range_payload(lo, hi);
                        ctx.isend(child, TAG_SCATTER, payload, Token(0));
                        next_child += 1;
                        self.state = SagState::ScatterSend {
                            next_child,
                            outstanding: outstanding + 1,
                        };
                        continue;
                    }
                    if outstanding > 0 {
                        return; // waitall on scatter sends
                    }
                    // Scatter done: enter the allgather.
                    self.state = SagState::Allgather {
                        step: 0,
                        send_pending: false,
                        recv_pending: false,
                    };
                    continue;
                }
                SagState::Allgather {
                    step,
                    send_pending,
                    recv_pending,
                } => {
                    if send_pending || recv_pending {
                        return;
                    }
                    let steps = match self.kind {
                        AllgatherKind::Ring => self.n as u32 - 1,
                        AllgatherKind::RecursiveDoubling => self.n.trailing_zeros(),
                    };
                    if step >= steps || self.n == 1 {
                        self.state = SagState::Done;
                        self.finished_at = Some(ctx.now());
                        ctx.finish();
                        return;
                    }
                    let tag = TAG_AG_BASE + step;
                    match self.kind {
                        AllgatherKind::Ring => {
                            let r = self.rank as u64;
                            let next = ((r + 1) % self.n) as Rank;
                            let prev = ((r + self.n - 1) % self.n) as Rank;
                            let send_block = (r + self.n - step as u64) % self.n;
                            let recv_block = (r + self.n - step as u64 - 1) % self.n;
                            let payload = self.range_payload(send_block, send_block + 1);
                            ctx.isend(next, tag, payload, Token(send_block));
                            ctx.irecv(prev, tag, Token(recv_block));
                        }
                        AllgatherKind::RecursiveDoubling => {
                            let partner = (self.rank ^ (1 << step)) as Rank;
                            let (lo, hi) = self.rd_owned(step);
                            let payload = self.range_payload(lo, hi);
                            ctx.isend(partner, tag, payload, Token(lo));
                            // Partner's owned range at this step.
                            let pg = 1u64 << step;
                            let plo = (partner as u64 / pg) * pg;
                            ctx.irecv(partner, tag, Token(plo));
                        }
                    }
                    self.state = SagState::Allgather {
                        step,
                        send_pending: true,
                        recv_pending: true,
                    };
                    return;
                }
                SagState::Done => return,
            }
        }
    }

    /// The full reassembled message (testing aid).
    pub fn assembled(&self) -> Option<Vec<u8>> {
        let blocks = self.blocks.as_ref()?;
        let mut out = Vec::new();
        for b in blocks {
            out.extend_from_slice(b.as_ref()?);
        }
        Some(out)
    }
}

impl RankProgram for ScatterAllgatherBcast {
    fn on_start(&mut self, ctx: &mut dyn ProgramCtx) {
        if self.part.is_empty() || self.n == 1 {
            self.state = SagState::Done;
            self.finished_at = Some(ctx.now());
            ctx.finish();
            return;
        }
        if self.rank != 0 {
            ctx.irecv(self.parent.expect("non-root"), TAG_SCATTER, Token(0));
        }
        self.advance(ctx);
    }

    fn on_completion(&mut self, ctx: &mut dyn ProgramCtx, completion: Completion) {
        match (&mut self.state, completion) {
            (SagState::ScatterRecv, Completion::RecvDone { data, .. }) => {
                let (lo, hi) = self.subtree_range(self.rank as u64);
                self.store_range(lo, hi, data);
                self.state = SagState::ScatterSend {
                    next_child: 0,
                    outstanding: 0,
                };
            }
            (SagState::ScatterSend { outstanding, .. }, Completion::SendDone { .. }) => {
                *outstanding -= 1;
            }
            (SagState::Allgather { send_pending, .. }, Completion::SendDone { .. }) => {
                *send_pending = false;
            }
            (
                SagState::Allgather {
                    step, recv_pending, ..
                },
                Completion::RecvDone { token, data, .. },
            ) => {
                let lo = token.0;
                let count = match self.kind {
                    AllgatherKind::Ring => 1,
                    AllgatherKind::RecursiveDoubling => (1u64 << *step).min(self.n - lo),
                };
                let s = *step;
                *recv_pending = false;
                *step = s + 1;
                self.store_range(lo, lo + count, data);
            }
            (st, c) => panic!("scatter-allgather: state {st:?} got {c:?}"),
        }
        self.advance(ctx);
    }
}

/// Rabenseifner's reduce: reduce-scatter by recursive halving, then a
/// binomial gather of the reduced ranges to the root. Requires a
/// power-of-two rank count; [`RabenseifnerReduceSpec::programs`] asserts it
/// (the runner falls back to a tree reduce otherwise, as libraries do).
#[derive(Clone)]
pub struct RabenseifnerReduceSpec {
    /// Number of ranks (root is rank 0; must be a power of two).
    pub nranks: u32,
    /// Message size in bytes.
    pub msg_bytes: u64,
    /// Real per-rank contributions (`None` = synthetic).
    pub data: Option<crate::ReduceInputs>,
}

impl RabenseifnerReduceSpec {
    /// Instantiate the per-rank programs.
    pub fn programs(&self) -> Vec<Box<dyn RankProgram>> {
        assert!(
            self.nranks.is_power_of_two(),
            "Rabenseifner requires a power-of-two rank count"
        );
        (0..self.nranks)
            .map(|r| Box::new(RabenseifnerReduce::new(self, r)) as Box<dyn RankProgram>)
            .collect()
    }
}

#[derive(Clone, Copy, Debug, PartialEq, Eq)]
enum RabState {
    /// Recursive-halving step with pair distance `d`.
    Halving {
        d: u64,
        send_pending: bool,
        recv_pending: bool,
        fold_pending: bool,
    },
    /// Binomial gather: waiting for `outstanding` child ranges.
    GatherRecv {
        outstanding: u32,
    },
    /// Binomial gather: own range sent to parent.
    GatherSend,
    Done,
}

/// One rank's Rabenseifner reduce.
pub struct RabenseifnerReduce {
    rank: Rank,
    n: u64,
    msg: u64,
    real: Option<(adapt_mpi::ReduceOp, adapt_mpi::DType)>,
    /// Own working vector (real mode).
    acc: Option<Vec<u8>>,
    /// Currently owned byte range `[lo, hi)`.
    lo: u64,
    hi: u64,
    /// Gathered ranges (root side): final result assembled here.
    gathered: Option<Vec<u8>>,
    children: Vec<Rank>,
    parent: Option<Rank>,
    state: RabState,
    /// Gather arrivals that landed while still in the halving phase.
    early_gathers: u32,
    /// Completion time, for inspection after the run.
    pub finished_at: Option<adapt_sim::time::Time>,
}

const TAG_GATHER: Tag = 1000;

impl RabenseifnerReduce {
    fn new(spec: &RabenseifnerReduceSpec, rank: Rank) -> Self {
        let n = spec.nranks as u64;
        let tree = Tree::build(adapt_core::TreeKind::Binomial, spec.nranks, 0);
        let (real, acc) = match &spec.data {
            None => (None, None),
            Some(inputs) => {
                let own = inputs.contributions[rank as usize].to_vec();
                assert_eq!(own.len() as u64, spec.msg_bytes);
                (Some((inputs.op, inputs.dtype)), Some(own))
            }
        };
        RabenseifnerReduce {
            rank,
            n,
            msg: spec.msg_bytes,
            real,
            acc,
            lo: 0,
            hi: spec.msg_bytes,
            gathered: real.is_some().then(|| vec![0u8; spec.msg_bytes as usize]),
            children: tree.children(rank).to_vec(),
            parent: tree.parent(rank),
            state: RabState::Halving {
                d: n / 2,
                send_pending: false,
                recv_pending: false,
                fold_pending: false,
            },
            early_gathers: 0,
            finished_at: None,
        }
    }

    /// The byte range rank `v` owns after the full halving phase.
    fn final_range(&self, v: u64) -> (u64, u64) {
        let (mut lo, mut hi) = (0u64, self.msg);
        let mut d = self.n / 2;
        while d >= 1 {
            let mid = lo + (hi - lo) / 2;
            if v & d == 0 {
                hi = mid;
            } else {
                lo = mid;
            }
            if d == 1 {
                break;
            }
            d /= 2;
        }
        (lo, hi)
    }

    /// The contiguous byte range gathered from rank `v`'s binomial subtree.
    fn subtree_byte_range(&self, v: u64) -> (u64, u64) {
        let size = binomial_subtree(v, self.n);
        let (lo, _) = self.final_range(v);
        let (_, hi) = self.final_range(v + size - 1);
        (lo, hi)
    }

    fn advance(&mut self, ctx: &mut dyn ProgramCtx) {
        loop {
            match self.state {
                RabState::Halving {
                    d,
                    send_pending,
                    recv_pending,
                    fold_pending,
                } => {
                    if send_pending || recv_pending || fold_pending {
                        return;
                    }
                    if d == 0 || self.n == 1 {
                        // Halving finished: start the gather.
                        if self.children.is_empty() {
                            self.state = RabState::GatherSend;
                        } else {
                            // Seed the gather buffer with the own reduced
                            // range (intermediates forward it as part of
                            // their subtree span; the root keeps it).
                            if let (Some(acc), Some(g)) = (&self.acc, self.gathered.as_mut()) {
                                let (lo, hi) = (self.lo as usize, self.hi as usize);
                                g[lo..hi].copy_from_slice(&acc[lo..hi]);
                            }
                            self.state = RabState::GatherRecv {
                                outstanding: self.children.len() as u32 - self.early_gathers,
                            };
                            self.early_gathers = 0;
                        }
                        continue;
                    }
                    let partner = (self.rank as u64 ^ d) as Rank;
                    let mid = self.lo + (self.hi - self.lo) / 2;
                    let keep_low = self.rank as u64 & d == 0;
                    let (send_lo, send_hi, keep_lo, keep_hi) = if keep_low {
                        (mid, self.hi, self.lo, mid)
                    } else {
                        (self.lo, mid, mid, self.hi)
                    };
                    let tag = d.trailing_zeros(); // unique per step
                    let payload = match &self.acc {
                        Some(acc) => {
                            Payload::from(acc[send_lo as usize..send_hi as usize].to_vec())
                        }
                        None => Payload::Synthetic(send_hi - send_lo),
                    };
                    ctx.isend(partner, tag, payload, Token(0));
                    ctx.irecv(partner, tag, Token(1));
                    self.lo = keep_lo;
                    self.hi = keep_hi;
                    self.state = RabState::Halving {
                        d: d / 2,
                        send_pending: true,
                        recv_pending: true,
                        fold_pending: false,
                    };
                    return;
                }
                RabState::GatherRecv { outstanding } => {
                    if outstanding > 0 {
                        return;
                    }
                    if self.rank == 0 {
                        self.state = RabState::Done;
                        self.finished_at = Some(ctx.now());
                        ctx.finish();
                        return;
                    }
                    self.state = RabState::GatherSend;
                    continue;
                }
                RabState::GatherSend => {
                    let (lo, hi) = self.subtree_byte_range(self.rank as u64);
                    let payload = match &self.gathered {
                        Some(g) if self.real.is_some() && !self.children.is_empty() => {
                            Payload::from(g[lo as usize..hi as usize].to_vec())
                        }
                        _ => match &self.acc {
                            Some(acc) => {
                                Payload::from(acc[self.lo as usize..self.hi as usize].to_vec())
                            }
                            None => Payload::Synthetic(hi - lo),
                        },
                    };
                    ctx.isend(
                        self.parent.expect("non-root"),
                        TAG_GATHER,
                        payload,
                        Token(2),
                    );
                    self.state = RabState::Done;
                    return; // finish on SendDone
                }
                RabState::Done => return,
            }
        }
    }

    /// The fully reduced message (root, real mode, after the run).
    pub fn result(&self) -> Option<Vec<u8>> {
        (self.rank == 0).then(|| self.gathered.clone()).flatten()
    }
}

impl RankProgram for RabenseifnerReduce {
    fn on_start(&mut self, ctx: &mut dyn ProgramCtx) {
        if self.msg == 0 || self.n == 1 {
            if self.rank == 0 {
                if let (Some(acc), Some(g)) = (&self.acc, self.gathered.as_mut()) {
                    g.copy_from_slice(acc);
                }
            }
            self.state = RabState::Done;
            self.finished_at = Some(ctx.now());
            ctx.finish();
            return;
        }
        // Post the gather receives up front (children ranges are disjoint).
        let children = self.children.clone();
        for &c in &children {
            ctx.irecv(c, TAG_GATHER, Token(100 + c as u64));
        }
        self.advance(ctx);
    }

    fn on_completion(&mut self, ctx: &mut dyn ProgramCtx, completion: Completion) {
        match completion {
            Completion::SendDone { .. } => match &mut self.state {
                RabState::Halving { send_pending, .. } => *send_pending = false,
                RabState::Done => {
                    // Gather send completed: the rank is done.
                    self.finished_at = Some(ctx.now());
                    ctx.finish();
                    return;
                }
                st => panic!("SendDone in state {st:?}"),
            },
            Completion::RecvDone { token, data, .. } => {
                if token.0 >= 100 {
                    // Gather arrival from child (may come early; the state
                    // machine counts it when it reaches GatherRecv).
                    let child = token.0 - 100;
                    let (lo, hi) = self.subtree_byte_range(child);
                    if let (Some(g), Payload::Data(b)) = (self.gathered.as_mut(), &data) {
                        g[lo as usize..hi as usize].copy_from_slice(b);
                    }
                    match &mut self.state {
                        RabState::GatherRecv { outstanding } => *outstanding -= 1,
                        RabState::Halving { .. } => {
                            // Early arrival: remember by decrementing later.
                            self.early_gathers += 1;
                        }
                        st => panic!("gather recv in state {st:?}"),
                    }
                } else {
                    // Halving operand: fold into the kept range.
                    if let (Some((op, dtype)), Some(acc), Payload::Data(b)) =
                        (self.real, self.acc.as_mut(), &data)
                    {
                        adapt_mpi::combine(
                            op,
                            dtype,
                            &mut acc[self.lo as usize..self.hi as usize],
                            b,
                        );
                    }
                    match &mut self.state {
                        RabState::Halving {
                            recv_pending,
                            fold_pending,
                            ..
                        } => {
                            *recv_pending = false;
                            *fold_pending = true;
                        }
                        st => panic!("halving recv in state {st:?}"),
                    }
                    ctx.cpu_reduce(self.hi - self.lo, Token(3));
                }
            }
            Completion::ComputeDone { .. } => match &mut self.state {
                RabState::Halving { fold_pending, .. } => *fold_pending = false,
                st => panic!("fold done in state {st:?}"),
            },
            other => panic!("rabenseifner got {other:?}"),
        }
        self.advance(ctx);
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use adapt_mpi::{bytes_to_f64, f64_to_bytes, World};
    use adapt_noise::ClusterNoise;
    use adapt_topology::profiles;

    fn run_sag(kind: AllgatherKind, n: u32, data: &[u8]) {
        let spec = ScatterAllgatherBcastSpec {
            nranks: n,
            msg_bytes: data.len() as u64,
            allgather: kind,
            data: Some(Bytes::from(data.to_vec())),
        };
        let world = World::cpu(profiles::minicluster(4, 2, 4), n, ClusterNoise::silent(n));
        let res = world.try_run(spec.programs()).unwrap();
        for (r, p) in res.programs.into_iter().enumerate() {
            let any: Box<dyn std::any::Any> = p;
            let b = any.downcast::<ScatterAllgatherBcast>().unwrap();
            assert_eq!(b.assembled().unwrap(), data, "rank {r} of {n}, {kind:?}");
        }
    }

    #[test]
    fn scatter_allgather_ring_delivers() {
        let data: Vec<u8> = (0..50_000u32).map(|i| (i % 241) as u8).collect();
        for n in [2u32, 5, 8, 13] {
            run_sag(AllgatherKind::Ring, n, &data);
        }
    }

    #[test]
    fn scatter_allgather_recursive_doubling_delivers() {
        let data: Vec<u8> = (0..50_000u32).map(|i| (i % 239) as u8).collect();
        for n in [2u32, 4, 8, 16] {
            run_sag(AllgatherKind::RecursiveDoubling, n, &data);
        }
    }

    #[test]
    fn recursive_doubling_falls_back_to_ring_for_odd_counts() {
        let data: Vec<u8> = (0..10_000u32).map(|i| (i % 251) as u8).collect();
        run_sag(AllgatherKind::RecursiveDoubling, 6, &data);
    }

    #[test]
    fn rabenseifner_reduce_sums() {
        for n in [2u32, 4, 8, 16] {
            let elems = 4096usize;
            let contributions: Vec<Bytes> = (0..n)
                .map(|r| Bytes::from(f64_to_bytes(&vec![(r + 1) as f64; elems])))
                .collect();
            let spec = RabenseifnerReduceSpec {
                nranks: n,
                msg_bytes: (elems * 8) as u64,
                data: Some(crate::ReduceInputs::f64_sum(contributions)),
            };
            let world = World::cpu(profiles::minicluster(4, 2, 4), n, ClusterNoise::silent(n));
            let res = world.try_run(spec.programs()).unwrap();
            let root: Box<dyn std::any::Any> = res.programs.into_iter().next().unwrap();
            let root = root.downcast::<RabenseifnerReduce>().unwrap();
            let got = bytes_to_f64(&root.result().unwrap());
            let expect: f64 = (1..=n as u64).sum::<u64>() as f64;
            assert_eq!(got, vec![expect; elems], "n={n}");
        }
    }

    #[test]
    fn rabenseifner_synthetic_mode_runs() {
        let spec = RabenseifnerReduceSpec {
            nranks: 8,
            msg_bytes: 4 << 20,
            data: None,
        };
        let world = World::cpu(profiles::minicluster(4, 1, 2), 8, ClusterNoise::silent(8));
        let res = world.try_run(spec.programs()).unwrap();
        assert!(res.makespan.as_nanos() > 0);
    }

    #[test]
    #[should_panic(expected = "power-of-two")]
    fn rabenseifner_rejects_odd_counts() {
        let spec = RabenseifnerReduceSpec {
            nranks: 6,
            msg_bytes: 1024,
            data: None,
        };
        let _ = spec.programs();
    }
}
