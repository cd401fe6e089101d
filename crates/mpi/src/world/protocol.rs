//! The point-to-point protocol and the program interface: posting and
//! matching sends and receives, running rank programs and applying the
//! operations they post.
//!
//! *Eager* (size ≤ eager limit): data is injected immediately. If it
//! arrives before the matching receive is posted it is buffered as
//! *unexpected* and the receiver later pays an extra copy
//! (`unexpected_overhead + bytes / unexpected_copy_bandwidth`) — the cost
//! ADAPT's `M > N` rule exists to avoid (§2.2.1).
//!
//! *Rendezvous* (size > eager limit): the sender posts a zero-byte RTS;
//! the receiver answers CTS once a matching receive is posted; data flows
//! after the CTS returns. The handshake is what couples a noisy receiver
//! back to its sender in blocking implementations.

use super::{Ev, FlowKind, Msg, MsgFlow, MsgId, RankItem, Step, World, NO_MSG};
use crate::matching::PostedRecv;
use crate::payload::Payload;
use crate::program::{Completion, Op, ProgramCtx, RankProgram, Tag, Token};
use adapt_net::Path;
use adapt_obs::{Layer, MsgEvent, ProtoKind, Recorder, Trigger};
use adapt_sim::time::{Duration, Time};
use adapt_topology::{MachineSpec, MemSpace, Placement, Rank};

/// Fixed CPU cost of handling any completion in the progress engine.
pub(super) const PROGRESS_OVERHEAD: Duration = Duration(50);
/// Fixed CPU cost of protocol actions (posting a receive, sending CTS,
/// launching rendezvous data, enqueueing GPU work).
pub(super) const CTRL_OVERHEAD: Duration = Duration(100);

/// Operation sink handed to program handlers (implements [`ProgramCtx`]).
struct OpSink<'a> {
    rank: Rank,
    now: Time,
    placement: &'a Placement,
    spec: &'a MachineSpec,
    ops: Vec<Op>,
}

impl ProgramCtx for OpSink<'_> {
    fn rank(&self) -> Rank {
        self.rank
    }
    fn nranks(&self) -> u32 {
        self.placement.len()
    }
    fn now(&self) -> Time {
        self.now
    }
    fn mem_of(&self, rank: Rank) -> MemSpace {
        self.placement.default_mem(rank)
    }
    fn host_of(&self, rank: Rank) -> MemSpace {
        self.placement.host_mem(rank)
    }
    fn cpu_reduce_cost(&self, bytes: u64) -> Duration {
        Duration::from_secs_f64(bytes as f64 / self.spec.cpu_reduce_bandwidth)
    }
    fn eager_limit(&self) -> u64 {
        self.spec.eager_limit
    }
    fn post(&mut self, op: Op) {
        self.ops.push(op);
    }
}

impl World {
    /// Run `rank`'s program on a completion (`None` = start), charging
    /// the progress engine's cost for it.
    pub(super) fn run_handler(
        &mut self,
        rank: Rank,
        t: Time,
        completion: Option<Completion>,
        cause_msg: MsgId,
    ) {
        let trigger = if self.obs_on {
            Some(match &completion {
                None => Trigger::Start,
                Some(Completion::SendDone { .. }) => Trigger::SendDone { msg: cause_msg },
                Some(Completion::RecvDone { .. }) => Trigger::RecvDone { msg: cause_msg },
                Some(Completion::ComputeDone { token }) => Trigger::ComputeDone { token: token.0 },
                Some(Completion::CopyDone { token }) => Trigger::CopyDone { token: token.0 },
                Some(Completion::GpuDone { token }) => Trigger::GpuDone { token: token.0 },
            })
        } else {
            None
        };
        let base_cost = match &completion {
            Some(Completion::SendDone { .. }) => {
                self.ranks[rank as usize].audit.sends_completed += 1;
                PROGRESS_OVERHEAD
            }
            Some(Completion::RecvDone { data, .. }) => {
                self.ranks[rank as usize].audit.recvs_completed += 1;
                self.byte_audit.recv_completed += data.len();
                self.spec.recv_overhead
            }
            _ => PROGRESS_OVERHEAD,
        };
        self.run_program(rank, t, base_cost, trigger, |prog, ctx| match completion {
            None => prog.on_start(ctx),
            Some(c) => prog.on_completion(ctx, c),
        });
    }

    /// Call into `rank`'s program at `t` through an op sink, then apply
    /// the operations it posted (the callback itself costs `base_cost`).
    pub(super) fn run_program(
        &mut self,
        rank: Rank,
        t: Time,
        base_cost: Duration,
        trigger: Option<Trigger>,
        call: impl FnOnce(&mut dyn RankProgram, &mut dyn ProgramCtx),
    ) {
        let mut sink = OpSink {
            rank,
            now: t,
            placement: &self.placement,
            spec: &self.spec,
            ops: std::mem::take(&mut self.ops_buf),
        };
        call(self.programs[rank as usize].as_mut(), &mut sink);
        let ops = sink.ops;
        self.apply_ops(rank, t, base_cost, ops, trigger);
    }

    /// Apply the ops a handler posted, then hand the emptied buffer back
    /// to `ops_buf` for the next handler call.
    fn apply_ops(
        &mut self,
        rank: Rank,
        t: Time,
        base_cost: Duration,
        mut ops: Vec<Op>,
        trigger: Option<Trigger>,
    ) {
        let mut cost = self.cost(Layer::Callback, base_cost);
        for op in ops.drain(..) {
            match op {
                Op::Isend {
                    dst,
                    tag,
                    payload,
                    token,
                    src_mem,
                } => {
                    cost += self.cost(Layer::Callback, self.spec.send_overhead);
                    let at = self.finish_rank_work(rank, t, cost);
                    self.start_send(at, rank, dst, tag, payload, token, src_mem);
                }
                Op::Irecv {
                    src,
                    tag,
                    token,
                    dst_mem,
                } => {
                    cost += self.cost(Layer::Callback, CTRL_OVERHEAD);
                    let at = self.finish_rank_work(rank, t, cost);
                    self.ranks[rank as usize].audit.recvs_posted += 1;
                    let extra = self.post_recv(at, rank, src, tag, token, dst_mem);
                    cost += extra;
                }
                Op::Compute { work, token } => {
                    let work = self.cost(Layer::Compute, work);
                    // The begin query is observability-only: the noise window
                    // stream is deterministic and idempotent, so asking early
                    // returns the same instant a later call would.
                    let begin = if self.obs_on {
                        Some(self.finish_rank_work(rank, t, cost))
                    } else {
                        None
                    };
                    cost += work;
                    let at = self.finish_rank_work(rank, t, cost);
                    if let Some(begin) = begin {
                        self.obs
                            .compute(rank, token.0, begin.as_nanos(), at.as_nanos(), false);
                    }
                    self.deliver(at, rank, Completion::ComputeDone { token }, NO_MSG);
                }
                Op::GpuReduce { bytes, token } => {
                    cost += self.cost(Layer::Callback, CTRL_OVERHEAD);
                    let enq = self.finish_rank_work(rank, t, cost);
                    assert!(
                        self.spec.gpu_reduce_bandwidth > 0.0,
                        "gpu_reduce on a machine without GPUs"
                    );
                    let start = self.ranks[rank as usize].gpu_stream_busy.max(enq);
                    let dur =
                        Duration::from_secs_f64(bytes as f64 / self.spec.gpu_reduce_bandwidth);
                    let done = start + self.cost(Layer::Gpu, dur);
                    let state = &mut self.ranks[rank as usize];
                    state.gpu_stream_busy = done;
                    if self.obs_on {
                        self.obs
                            .compute(rank, token.0, start.as_nanos(), done.as_nanos(), true);
                    }
                    self.deliver(done, rank, Completion::GpuDone { token }, NO_MSG);
                }
                Op::Copy {
                    from,
                    to,
                    bytes,
                    token,
                } => {
                    cost += self.cost(Layer::Callback, CTRL_OVERHEAD);
                    let at = self.finish_rank_work(rank, t, cost);
                    let path = self.fabric.route(from, to);
                    let wire = self.scaled(Layer::Copy, bytes);
                    self.byte_audit.copy_posted += bytes;
                    self.byte_audit.copy_wire += wire;
                    self.queue.schedule(
                        at,
                        Ev::Launch {
                            kind: FlowKind::Copy { rank, token, bytes },
                            path,
                            bytes: wire,
                        },
                    );
                }
                Op::Phase { index, begin } => {
                    // A pure observability mark: zero cost, no events, so
                    // posting it cannot move the simulation.
                    if self.obs_on {
                        let at = self.finish_rank_work(rank, t, cost);
                        self.obs.phase(rank, index, begin, at.as_nanos());
                    }
                }
                Op::Finish => {
                    let at = self.finish_rank_work(rank, t, cost);
                    let state = &mut self.ranks[rank as usize];
                    if state.finished_at.is_none() {
                        state.finished_at = Some(at);
                        self.finished += 1;
                    }
                }
            }
        }
        let done = self.finish_rank_work(rank, t, cost);
        if let Some(trigger) = trigger {
            self.obs
                .dispatch(rank, t.as_nanos(), done.as_nanos(), trigger);
        }
        let state = &mut self.ranks[rank as usize];
        state.busy_until = state.busy_until.max(done);
        state.busy_accum += cost;
        self.ops_buf = ops;
    }

    #[allow(clippy::too_many_arguments)] // the MPI send signature is what it is
    fn start_send(
        &mut self,
        at: Time,
        src: Rank,
        dst: Rank,
        tag: Tag,
        payload: Payload,
        token: Token,
        src_mem: Option<MemSpace>,
    ) {
        self.stats.messages += 1;
        self.ranks[src as usize].audit.sends_posted += 1;
        self.byte_audit.send_posted += payload.len();
        let src_mem = src_mem.unwrap_or_else(|| self.placement.default_mem(src));
        let dst_mem = self.placement.default_mem(dst);
        let bytes = payload.len();
        let m = self.next_msg;
        self.next_msg += 1;
        if self.obs_on {
            self.obs.msg_posted(
                m,
                src,
                dst,
                tag,
                bytes,
                bytes <= self.spec.eager_limit,
                at.as_nanos(),
            );
        }
        self.msgs.insert(
            m,
            Msg {
                src,
                dst,
                tag,
                payload,
                send_token: token,
                src_mem,
                dst_mem,
                recv_token: None,
            },
        );
        if bytes <= self.spec.eager_limit {
            // Eager: data goes out now, landing in the receiver's default
            // space.
            let path = self.fabric.route_p2p(
                src_mem,
                dst_mem,
                Some(self.core_of(src)),
                Some(self.core_of(dst)),
            );
            self.schedule_launch(at, m, Step::Eager, path, bytes);
            if bytes == 0 {
                // Zero-byte sends complete locally right away.
                self.deliver(at, src, Completion::SendDone { token }, m);
            }
        } else {
            // Rendezvous: RTS control message first.
            let path = self
                .fabric
                .route(self.placement.host_mem(src), self.placement.host_mem(dst));
            self.schedule_launch(at, m, Step::Rts, path, 0);
        }
    }

    /// Post a receive at time `at`; returns extra CPU cost incurred by an
    /// unexpected-queue match.
    fn post_recv(
        &mut self,
        at: Time,
        rank: Rank,
        src: Rank,
        tag: Tag,
        token: Token,
        dst_mem: Option<MemSpace>,
    ) -> Duration {
        let posted = PostedRecv {
            src,
            tag,
            token,
            mem: dst_mem.unwrap_or_else(|| self.placement.default_mem(rank)),
            posted_at: at,
        };
        // Unexpected eager data first (MPI matching order).
        let (hit, probes) = self.ranks[rank as usize].unexp_eager.match_posted(src, tag);
        self.stats.match_probes += probes;
        if let Some(m) = hit {
            self.stats.unexpected_matches += 1;
            self.note_match(m, at, true, at);
            let bytes = self.msgs[&m].payload.len();
            let copy_cost = self.cost(
                Layer::Matching,
                self.spec.unexpected_overhead
                    + Duration::from_secs_f64(bytes as f64 / self.spec.unexpected_copy_bandwidth),
            );
            // RecvDone is scheduled at the post instant; busy-horizon
            // deferral makes it fire after the copy cost elapses.
            let done = self.finish_rank_work(rank, at, copy_cost);
            let c = self.take_recv(done, m, token);
            self.deliver(done, rank, c, m);
            return copy_cost;
        }
        // Pending rendezvous next.
        let (hit, probes) = self.ranks[rank as usize].unexp_rts.match_posted(src, tag);
        self.stats.match_probes += probes;
        if let Some(m) = hit {
            self.note_match(m, at, true, at);
            self.accept_rndv(at, rank, m, posted);
            return self.cost(Layer::Protocol, CTRL_OVERHEAD);
        }
        self.ranks[rank as usize].posted.push(posted);
        Duration::ZERO
    }

    /// An eager payload (`rndv == false`) or a rendezvous RTS reached
    /// `rank`. Matching happens at arrival time: "unexpected" means the
    /// receive had not been *posted* when the message landed (§2.2.1),
    /// not that the CPU was momentarily busy. The CPU-side consequences
    /// (CTS, copies, callbacks) still honour the busy horizon and noise.
    pub(super) fn on_arrival(&mut self, t: Time, rank: Rank, m: MsgId, rndv: bool) {
        let (src, tag) = {
            let msg = &self.msgs[&m];
            (msg.src, msg.tag)
        };
        let state = &mut self.ranks[rank as usize];
        let (hit, probes) = state.posted.match_arrival(src, tag);
        self.stats.match_probes += probes;
        let Some(posted) = hit else {
            let unexpected = if rndv {
                &mut state.unexp_rts
            } else {
                &mut state.unexp_eager
            };
            unexpected.push(src, tag, m);
            let e = self.cpu_ready(rank, t);
            let done = self.bump_busy(rank, e, self.cost(Layer::Protocol, CTRL_OVERHEAD));
            if self.obs_on {
                self.obs.protocol(
                    rank,
                    e.as_nanos(),
                    done.as_nanos(),
                    ProtoKind::Unexpected,
                    m,
                );
            }
            return;
        };
        // An eager payload completes the receive at once; an RTS waits
        // for the CPU to answer with a CTS.
        let at = if rndv { self.cpu_ready(rank, t) } else { t };
        self.note_match(m, posted.posted_at, false, at);
        if rndv {
            self.accept_rndv(at, rank, m, posted);
        } else {
            let c = self.take_recv(at, m, posted.token);
            self.hand_off(at, rank, RankItem::Deliver { c, msg: m });
        }
    }

    /// Record at `at` that message `m` matched a receive posted at
    /// `posted_at` (observability only).
    fn note_match(&mut self, m: MsgId, posted_at: Time, unexpected: bool, at: Time) {
        if self.obs_on {
            let posted_ns = Some(posted_at.as_nanos());
            let ev = MsgEvent::Matched {
                posted_ns,
                unexpected,
            };
            self.obs.msg_event(m, ev, at.as_nanos());
        }
    }

    /// The CTS for message `m` reached its sender: launch the data flow.
    pub(super) fn launch_rndv_data(&mut self, t: Time, rank: Rank, m: MsgId) {
        // A CTS still in flight while the failure detector completed this
        // send (the receiver died) must not launch the data: the send
        // already completed-in-error and the payload is accounted as
        // failed-unlaunched.
        if self.faults.as_deref().is_some_and(|f| f.send_failed(m)) {
            return;
        }
        let (path, bytes) = {
            let msg = &self.msgs[&m];
            let src_core = self.core_of(msg.src);
            let dst_core = self.core_of(msg.dst);
            (
                self.fabric
                    .route_p2p(msg.src_mem, msg.dst_mem, Some(src_core), Some(dst_core)),
                msg.payload.len(),
            )
        };
        let at = self.bump_busy(rank, t, self.cost(Layer::Protocol, CTRL_OVERHEAD));
        if self.obs_on {
            self.obs
                .protocol(rank, t.as_nanos(), at.as_nanos(), ProtoKind::DataLaunch, m);
        }
        self.schedule_launch(at, m, Step::Rndv, path, bytes);
    }

    /// Receiver accepted a rendezvous: record the landing space and send CTS.
    fn accept_rndv(&mut self, t: Time, rank: Rank, m: MsgId, posted: PostedRecv) {
        self.stats.rendezvous += 1;
        let cts_path = {
            let msg = self.msgs.get_mut(&m).expect("msg");
            msg.dst_mem = posted.mem;
            msg.recv_token = Some(posted.token);
            // Control messages travel host-to-host.
            self.fabric.route(
                self.placement.host_mem(msg.dst),
                self.placement.host_mem(msg.src),
            )
        };
        let at = self.bump_busy(rank, t, self.cost(Layer::Protocol, CTRL_OVERHEAD));
        if self.obs_on {
            self.obs
                .protocol(rank, t.as_nanos(), at.as_nanos(), ProtoKind::CtsSend, m);
        }
        self.schedule_launch(at, m, Step::Cts, cts_path, 0);
    }

    /// Schedule the launch of step `step` of message `m` over `path` at `at`.
    fn schedule_launch(&mut self, at: Time, m: MsgId, step: Step, path: Path, bytes: u64) {
        let kind = FlowKind::Msg(MsgFlow { msg: m, step });
        self.queue.schedule(at, Ev::Launch { kind, path, bytes });
    }

    /// Retire message `m` into the RecvDone completion of the receive
    /// `token`, ready at `t`.
    pub(super) fn take_recv(&mut self, t: Time, m: MsgId, token: Token) -> Completion {
        let msg = self.msgs.remove(&m).expect("msg");
        if self.obs_on {
            self.obs.msg_event(m, MsgEvent::RecvReady, t.as_nanos());
        }
        Completion::RecvDone {
            token,
            src: msg.src,
            tag: msg.tag,
            data: msg.payload,
        }
    }
}
