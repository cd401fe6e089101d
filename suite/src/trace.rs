//! Tracing from outside the simulator, through public calls only: a
//! handler clock around every rank program, a recorder that keeps the
//! flow log next to a `StreamRecorder`, and a replay of that log through
//! a fresh `adapt_net::Network`.

use adapt_mpi::{Completion, ProgramCtx, RankProgram};
use adapt_net::{Fabric, FlowId, FlowScheduler, FlowSpec, LinkId, NetStep, Network, Path};
use adapt_obs::{
    FlowClass, FlowStart, GaugeMetric, HealthAlert, MsgEvent, ObsData, ObsSummary, ProtoKind,
    Recorder, StreamRecorder, Trigger,
};
use adapt_sim::queue::EventKey;
use adapt_sim::time::Time;
use adapt_topology::MachineSpec;
use std::cell::{Cell, RefCell};
use std::cmp::Reverse;
use std::collections::BinaryHeap;
use std::rc::Rc;
use std::time::Instant;

/// Host time spent inside rank-program handlers.
#[derive(Default)]
pub struct HandlerClock {
    pub ns: Cell<u64>,
    pub calls: Cell<u64>,
}

impl HandlerClock {
    fn add(&self, since: Instant) {
        self.ns
            .set(self.ns.get() + since.elapsed().as_nanos() as u64);
        self.calls.set(self.calls.get() + 1);
    }
}

/// Clocks `on_start`, `on_completion` and `on_peer_failed` of the wrapped
/// program. `ProgramCtx::post` only buffers, so this is algorithm time
/// and none of the engine's.
pub struct Timed {
    inner: Box<dyn RankProgram>,
    clock: Rc<HandlerClock>,
}

impl Timed {
    pub fn wrap(
        programs: Vec<Box<dyn RankProgram>>,
        clock: &Rc<HandlerClock>,
    ) -> Vec<Box<dyn RankProgram>> {
        programs
            .into_iter()
            .map(|inner| {
                Box::new(Timed {
                    inner,
                    clock: Rc::clone(clock),
                }) as Box<dyn RankProgram>
            })
            .collect()
    }
}

impl RankProgram for Timed {
    fn on_start(&mut self, ctx: &mut dyn ProgramCtx) {
        let t = Instant::now();
        self.inner.on_start(ctx);
        self.clock.add(t);
    }

    fn on_completion(&mut self, ctx: &mut dyn ProgramCtx, completion: Completion) {
        let t = Instant::now();
        self.inner.on_completion(ctx, completion);
        self.clock.add(t);
    }

    fn on_peer_failed(&mut self, ctx: &mut dyn ProgramCtx, dead: &[u32], active: &[u32]) {
        let t = Instant::now();
        self.inner.on_peer_failed(ctx, dead, active);
        self.clock.add(t);
    }
}

/// One recorded flow. Positions count the probes the run emitted, so
/// they order its processing steps.
pub struct Flow {
    pub t_ns: u64,
    pub bytes: u64,
    pub path: Path,
    /// The step that scheduled the launch (the send posting, the CTS or
    /// the rendezvous data decision) and the launch itself.
    sched_pos: u32,
    start_pos: u32,
    /// `(time, position)` of the drain and of the delivery.
    drained: Option<(u64, u32)>,
    delivered: Option<(u64, u32)>,
}

impl Flow {
    pub fn delivered_ns(&self) -> Option<u64> {
        self.delivered.map(|(t, _)| t)
    }
}

/// What one traced run leaves behind besides its `RunResult`.
#[derive(Default)]
pub struct ProbeLog {
    /// In launch order.
    pub flows: Vec<Flow>,
    /// OS-noise time inside `[0, makespan]`, summed over ranks.
    pub noise_ns: u64,
}

/// Forwards every probe to a `StreamRecorder` (for the summary and its
/// histograms) and keeps the flow log for the network replay.
pub struct Probe {
    inner: StreamRecorder,
    log: ProbeLog,
    /// Probes seen so far that order the replay.
    pos: u32,
    /// Per message: positions of the send posting, the CTS decision and
    /// the rendezvous data decision — the steps that schedule launches.
    marks: Vec<[u32; 3]>,
    /// Network slot → index of the latest flow that occupied it.
    slot_flow: Vec<u32>,
    noise: Vec<Vec<(u64, u64)>>,
    out: Rc<RefCell<Option<ProbeLog>>>,
}

const MARK_POSTED: usize = 0;
const MARK_CTS: usize = 1;
const MARK_DATA: usize = 2;

impl Probe {
    /// The probe and the slot its log lands in when the run finishes.
    pub fn new() -> (Probe, Rc<RefCell<Option<ProbeLog>>>) {
        let out = Rc::new(RefCell::new(None));
        let probe = Probe {
            inner: StreamRecorder::new(),
            log: ProbeLog::default(),
            pos: 0,
            marks: Vec::new(),
            slot_flow: Vec::new(),
            noise: Vec::new(),
            out: Rc::clone(&out),
        };
        (probe, out)
    }

    fn step(&mut self) -> u32 {
        self.pos += 1;
        self.pos
    }

    fn mark(&mut self, msg: u64, which: usize) {
        let pos = self.step();
        let m = msg as usize;
        if self.marks.len() <= m {
            self.marks.resize(m + 1, [0; 3]);
        }
        self.marks[m][which] = pos;
    }

    fn flow_of(&self, slot: u32) -> Option<usize> {
        self.slot_flow.get(slot as usize).map(|&i| i as usize)
    }
}

impl Recorder for Probe {
    fn enabled(&self) -> bool {
        true
    }

    fn meta(&mut self, nranks: u32, link_labels: Vec<String>) {
        self.noise = vec![Vec::new(); nranks as usize];
        self.inner.meta(nranks, link_labels);
    }

    fn link_params(&mut self, caps: Vec<f64>, lat_ns: Vec<u64>) {
        self.inner.link_params(caps, lat_ns);
    }

    fn rank_windows(&mut self, rank: u32, noise: Vec<(u64, u64)>, stalls: Vec<(u64, u64)>) {
        if let Some(w) = self.noise.get_mut(rank as usize) {
            w.clone_from(&noise);
        }
        self.inner.rank_windows(rank, noise, stalls);
    }

    fn msg_posted(
        &mut self,
        msg: u64,
        src: u32,
        dst: u32,
        tag: u32,
        bytes: u64,
        eager: bool,
        t_ns: u64,
    ) {
        self.mark(msg, MARK_POSTED);
        self.inner
            .msg_posted(msg, src, dst, tag, bytes, eager, t_ns);
    }

    fn msg_event(&mut self, msg: u64, ev: MsgEvent, t_ns: u64) {
        self.inner.msg_event(msg, ev, t_ns);
    }

    fn flow_start(&mut self, slot: u32, rec: FlowStart, links: &[u32]) {
        let start_pos = self.step();
        let mark = match rec.class {
            FlowClass::Eager | FlowClass::Rts => Some(MARK_POSTED),
            FlowClass::Cts => Some(MARK_CTS),
            FlowClass::Rndv => Some(MARK_DATA),
            FlowClass::Copy | FlowClass::Ack => None,
        };
        let marked = mark.and_then(|k| self.marks.get(rec.msg? as usize).map(|m| m[k]));
        // Acks and copies carry no mark: take the launch as scheduled
        // by the step just before it.
        let sched_pos = marked.filter(|&p| p > 0).unwrap_or(start_pos - 1);
        let mut path = Path::EMPTY;
        for &l in links {
            path.push(LinkId(l));
        }
        let idx = self.log.flows.len() as u32;
        self.log.flows.push(Flow {
            t_ns: rec.t_ns,
            bytes: rec.bytes,
            path,
            sched_pos,
            start_pos,
            drained: None,
            delivered: None,
        });
        let s = slot as usize;
        if self.slot_flow.len() <= s {
            self.slot_flow.resize(s + 1, u32::MAX);
        }
        self.slot_flow[s] = idx;
        self.inner.flow_start(slot, rec, links);
    }

    fn flow_drained(&mut self, slot: u32, t_ns: u64) {
        if let Some(i) = self.flow_of(slot) {
            let pos = self.step();
            self.log.flows[i].drained = Some((t_ns, pos));
        }
        self.inner.flow_drained(slot, t_ns);
    }

    fn flow_delivered(&mut self, slot: u32, t_ns: u64) {
        if let Some(i) = self.flow_of(slot) {
            let pos = self.step();
            self.log.flows[i].delivered = Some((t_ns, pos));
        }
        self.inner.flow_delivered(slot, t_ns);
    }

    fn dispatch(&mut self, rank: u32, begin_ns: u64, end_ns: u64, trigger: Trigger) {
        self.inner.dispatch(rank, begin_ns, end_ns, trigger);
    }

    fn protocol(&mut self, rank: u32, begin_ns: u64, end_ns: u64, kind: ProtoKind, msg: u64) {
        match kind {
            ProtoKind::CtsSend => self.mark(msg, MARK_CTS),
            ProtoKind::DataLaunch => self.mark(msg, MARK_DATA),
            ProtoKind::Unexpected => {}
        }
        self.inner.protocol(rank, begin_ns, end_ns, kind, msg);
    }

    fn compute(&mut self, rank: u32, token: u64, begin_ns: u64, end_ns: u64, gpu: bool) {
        self.inner.compute(rank, token, begin_ns, end_ns, gpu);
    }

    fn phase(&mut self, rank: u32, phase: u32, begin: bool, t_ns: u64) {
        self.inner.phase(rank, phase, begin, t_ns);
    }

    fn gauge(&mut self, t_ns: u64, metric: GaugeMetric, index: u32, value: f64) {
        self.inner.gauge(t_ns, metric, index, value);
    }

    fn alert(&mut self, a: HealthAlert) {
        self.inner.alert(a);
    }

    fn finish(&mut self, per_rank_finish_ns: &[u64]) -> Option<ObsData> {
        // The runtime exports noise windows well past the makespan (for
        // what-if replays); count only the part inside the run.
        let end = per_rank_finish_ns.iter().copied().max().unwrap_or(0);
        self.log.noise_ns = self
            .noise
            .iter()
            .flatten()
            .map(|&(b, e)| e.min(end).saturating_sub(b.min(end)))
            .sum();
        *self.out.borrow_mut() = Some(std::mem::take(&mut self.log));
        self.inner.finish(per_rank_finish_ns)
    }

    fn finish_summary(&mut self) -> Option<ObsSummary> {
        self.inner.finish_summary()
    }

    fn flight_dump(&mut self) -> Option<String> {
        self.inner.flight_dump()
    }
}

/// A scheduled network event: time, scheduling step, sequence number,
/// network slot and generation.
type Pending = (Time, u64, u64, u32, u32);

/// The replay's event queue. The simulator pops same-instant events in
/// the order they were scheduled, so each entry carries the run's
/// position of the step that scheduled it (doubled; odd for a drain
/// estimate re-arming itself, a step no probe marks) and a tie-breaking
/// counter. Each flow has at most one pending network event, so a
/// per-slot generation number marks the ones the network has replaced,
/// and `cancel` has nothing to do.
#[derive(Default)]
struct ReplayQueue {
    heap: BinaryHeap<Reverse<Pending>>,
    /// Order key of the step being replayed.
    step: u64,
    seq: u64,
    gen: Vec<u32>,
}

impl FlowScheduler for ReplayQueue {
    fn schedule(&mut self, at: Time, flow: FlowId) -> EventKey {
        let slot = flow.0 as usize;
        if self.gen.len() <= slot {
            self.gen.resize(slot + 1, 0);
        }
        self.gen[slot] += 1;
        self.seq += 1;
        self.heap.push(Reverse((
            at,
            self.step,
            self.seq,
            slot as u32,
            self.gen[slot],
        )));
        EventKey::default()
    }

    fn cancel(&mut self, _key: EventKey) {}
}

/// Outcome of replaying one run's flows.
pub struct Replay {
    pub ns: u64,
    pub flows: u64,
    /// Flows the run delivered whose replayed delivery time is identical.
    pub exact: u64,
    /// Flows the run delivered (lost flows never deliver).
    pub delivered: u64,
}

/// The replay's network and which recorded flow owns each slot.
struct Replayer<'a> {
    flows: &'a [Flow],
    net: Network,
    queue: ReplayQueue,
    /// Network slot → recorded flow index.
    owner: Vec<u32>,
    draining: Vec<bool>,
    delivered: Vec<Option<u64>>,
    /// Latest probe position replayed.
    last_pos: u32,
}

impl Replayer<'_> {
    fn start(&mut self, i: usize) {
        let f = &self.flows[i];
        let spec = FlowSpec {
            path: f.path,
            bytes: f.bytes,
            tag: i as u64,
        };
        self.queue.step = 2 * f.start_pos as u64;
        self.last_pos = self.last_pos.max(f.start_pos);
        let slot = self.net.start_flow(Time(f.t_ns), spec, &mut self.queue).0 as usize;
        if self.owner.len() <= slot {
            self.owner.resize(slot + 1, u32::MAX);
        }
        self.owner[slot] = i as u32;
        self.draining[i] = f.bytes > 0 && !f.path.is_empty();
    }

    /// Order key `(time, scheduling step)` of the next live event.
    fn peek(&mut self) -> Option<(Time, u64)> {
        while let Some(&Reverse((t, step, _, slot, gen))) = self.queue.heap.peek() {
            if self.queue.gen[slot as usize] == gen {
                return Some((t, step));
            }
            self.queue.heap.pop();
        }
        None
    }

    /// Handle the event `peek` returned.
    fn handle_next(&mut self) {
        let Some(Reverse((t, _, _, slot, _))) = self.queue.heap.pop() else {
            return;
        };
        let i = self.owner[slot as usize] as usize;
        let f = &self.flows[i];
        // Which step this is decides where the run scheduled its follow-ups.
        let pos = match (self.draining[i], f.drained, f.delivered) {
            (true, Some((dt, p)), _) if dt == t.as_nanos() => Some(p),
            (false, _, Some((_, p))) => Some(p),
            _ => None,
        };
        self.queue.step = match pos {
            Some(p) => {
                self.last_pos = self.last_pos.max(p);
                2 * p as u64
            }
            None => 2 * self.last_pos as u64 + 1,
        };
        match self
            .net
            .handle_event(t, FlowId(slot as u64), &mut self.queue)
        {
            NetStep::Drained { .. } => self.draining[i] = false,
            NetStep::Delivered(_) | NetStep::Dropped(_) => self.delivered[i] = Some(t.as_nanos()),
            NetStep::Progress => {}
        }
    }
}

/// Replay `log` through a fresh network over `spec`'s fabric, driven by
/// a bench-side event queue that pops in the run's order, and compare
/// every delivery time.
pub fn replay(spec: &MachineSpec, log: &ProbeLog) -> Replay {
    let t0 = Instant::now();
    let n = log.flows.len();
    let mut r = Replayer {
        flows: &log.flows,
        net: Network::new(Fabric::build(spec).1),
        queue: ReplayQueue::default(),
        owner: Vec::new(),
        draining: vec![false; n],
        delivered: vec![None; n],
        last_pos: 0,
    };
    for (i, f) in log.flows.iter().enumerate() {
        // A launch is an event scheduled by its marking step; events the
        // network scheduled in that same step run before it.
        let launch = (Time(f.t_ns), 2 * f.sched_pos as u64);
        while r.peek().is_some_and(|next| next <= launch) {
            r.handle_next();
        }
        r.start(i);
    }
    while r.peek().is_some() {
        r.handle_next();
    }
    let ns = t0.elapsed().as_nanos() as u64;
    let (mut exact, mut delivered) = (0, 0);
    for (f, got) in log.flows.iter().zip(&r.delivered) {
        if let Some(d) = f.delivered_ns() {
            delivered += 1;
            exact += (*got == Some(d)) as u64;
        }
    }
    Replay {
        ns,
        flows: n as u64,
        exact,
        delivered,
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::gen::{Coll, Machine, Op};
    use crate::run::{execute, Mode};
    use adapt_collectives::Library;

    fn clean_bcast_64() -> Op {
        Op {
            machine: Machine::Cori,
            nodes: 2,
            coll: Coll::Bcast,
            library: Library::OmpiAdapt,
            msg_bytes: 1 << 20,
            noise_pct: 0.0,
            noise_seed: 0,
            loss: None,
            fault_seed: 0,
            observed: false,
        }
    }

    #[test]
    fn replay_reproduces_every_delivery_of_a_clean_64_rank_bcast() {
        let op = clean_bcast_64();
        let log = execute(&op, Mode::Traced)
            .log
            .expect("traced runs keep a log");
        let rep = replay(&op.machine.spec(op.nodes), &log);
        assert!(rep.flows > 1000, "{} flows", rep.flows);
        assert_eq!(rep.delivered, rep.flows);
        assert_eq!(rep.exact, rep.delivered);
    }

    #[test]
    fn tracing_leaves_the_run_bit_identical() {
        for op in [
            clean_bcast_64(),
            Op {
                coll: Coll::Allreduce,
                msg_bytes: 16 << 10,
                noise_pct: 10.0,
                noise_seed: 3,
                ..clean_bcast_64()
            },
        ] {
            let plain = execute(&op, Mode::Plain).result.expect("plain run");
            let traced = execute(&op, Mode::Traced);
            let clock = traced
                .handlers
                .as_ref()
                .expect("traced runs clock handlers");
            assert!(clock.calls.get() > 0);
            let traced = traced.result.expect("traced run");
            assert_eq!(plain.per_rank_finish, traced.per_rank_finish);
            assert_eq!(plain.stats, traced.stats);
        }
    }
}
