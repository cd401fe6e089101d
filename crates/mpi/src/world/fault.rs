//! The fault layer: injected loss, outages, degradation, stalls and kills,
//! the ack/retransmit reliability that recovers from transport faults, and
//! the heartbeat failure detector that converges survivors on a kill.
//!
//! The layer exists only when a non-inert plan is attached
//! ([`World::with_faults`]). Inside it, the reliability machinery exists
//! only when [`FaultPlan::needs_reliability`] says so, and the kill/detect
//! bookkeeping only when the plan kills ranks or nodes — each sub-layer is
//! an `Option`, so code that needs one asks for it by type.

use super::protocol::PROGRESS_OVERHEAD;
use super::{Ev, FlowKind, Msg, MsgFlow, MsgId, RunError, World};
use crate::program::{Completion, Token};
use adapt_faults::{FaultPlan, Schedule};
use adapt_net::Path;
use adapt_noise::ClusterNoise;
use adapt_obs::{MsgEvent, Recorder};
use adapt_sim::audit::AuditReport;
use adapt_sim::fxhash::{FxHashMap, FxHashSet};
use adapt_sim::queue::{EventKey, EventQueue};
use adapt_sim::rng::{MasterSeed, StreamTag};
use adapt_sim::time::{Duration, Time};
use adapt_topology::{Placement, Rank};
use rand::rngs::SmallRng;
use rand::Rng;

/// Key of one reliable transfer lane (see [`MsgFlow::key`]).
pub(super) type XferKey = u64;

/// Runtime state of the fault layer, boxed behind an `Option` in
/// [`World`]: a fault-free run carries a single `None` and executes
/// exactly the code it did before this layer existed.
pub(super) struct Faults {
    plan: FaultPlan,
    /// Loss draws and backoff jitter, seeded from the plan via
    /// [`StreamTag::Faults`] so fault randomness never perturbs noise or
    /// workload streams. Draw order: loss at launch, then jitter when the
    /// launch arms its timer.
    rng: SmallRng,
    /// Per-rank stall schedules (`None` = rank never stalls, delegating
    /// straight to the noise model).
    stalls: Vec<Option<Schedule>>,
    /// The ack/retransmit machinery.
    rel: Option<Reliability>,
    /// The kill/detect bookkeeping.
    failures: Option<Failures>,
}

/// Sender-side retransmit timers and receiver-side duplicate suppression.
#[derive(Default)]
struct Reliability {
    /// Sender-side: un-acked transfers by lane key.
    xfers: FxHashMap<XferKey, Xfer>,
    /// Receiver-side duplicate suppression: lanes already processed once,
    /// with the ack return route and acking rank for re-acking
    /// retransmitted duplicates.
    seen: FxHashMap<XferKey, (Rank, Path)>,
    /// Sender messages whose payload drain already fired SendDone
    /// (retransmit drains must not fire it again).
    done_fired: FxHashSet<MsgId>,
    /// Payload bytes injected by retransmissions (audit ledger column).
    retrans_bytes: u64,
}

/// One in-flight reliable transfer: everything needed to relaunch it
/// when its retransmit timer fires.
struct Xfer {
    flow: MsgFlow,
    path: Path,
    bytes: u64,
    /// The rank the transfer is attributed to in traces (the sender
    /// side of the lane). Kept here because a late retransmit can
    /// outlive the message record it belongs to.
    owner: Rank,
    /// Retransmissions performed so far (0 = first attempt in flight).
    attempt: u32,
    /// The pending retransmit timer (cancelled by the ack).
    timer: EventKey,
}

/// The failure model: who was killed when, and what the detector has
/// told the survivors.
pub(super) struct Failures {
    /// Heartbeat-detector latency: a rank is declared dead after
    /// `max_retries + 1` silent heartbeat periods of length `rto` — the
    /// same budget the reliability layer grants a lossy lane, so tuning
    /// the RTO moves detection latency linearly.
    detect_delay: Duration,
    /// Per-rank kill instants (`None` = alive). Ground truth of the
    /// failure model; survivors only learn of a death via `detected`.
    pub(super) dead_at: Vec<Option<Time>>,
    /// Cached "some rank has died": the hot paths pay one boolean test
    /// until the first kill actually fires.
    any_dead: bool,
    /// The agreed failed set in detection order, with detection instants
    /// — the ranks are exactly the slice `on_peer_failed` hands to
    /// survivor programs.
    pub(super) detected: Vec<(Rank, Time)>,
    /// Payload flows (eager or rendezvous data) actually injected into
    /// the network: the audit uses it to split failed bytes into
    /// launched and never-launched.
    data_injected: FxHashSet<MsgId>,
    /// Sends completed (SendDone) by the failure detector because their
    /// receiver died before the payload launched — a CTS already in
    /// flight at detection time must not start the data after all.
    send_failed: FxHashSet<MsgId>,
}

impl Failures {
    /// Is either endpoint of the pair dead?
    fn endpoint_dead(&self, a: Rank, b: Rank) -> bool {
        self.dead_at[a as usize].is_some() || self.dead_at[b as usize].is_some()
    }
}

impl Faults {
    pub(super) fn new(plan: FaultPlan, nranks: u32) -> Faults {
        let kills = !plan.kills.is_empty() || !plan.node_kills.is_empty();
        Faults {
            rng: MasterSeed(plan.seed).rng(StreamTag::Faults, 0),
            stalls: (0..nranks)
                .map(|r| Some(plan.stalls_for(r)).filter(|s| !s.is_empty()))
                .collect(),
            rel: plan.needs_reliability().then(Reliability::default),
            failures: kills.then(|| Failures {
                detect_delay: Duration::from_nanos(
                    plan.rel
                        .rto
                        .as_nanos()
                        .saturating_mul(plan.rel.max_retries as u64 + 1),
                ),
                dead_at: vec![None; nranks as usize],
                any_dead: false,
                detected: Vec::new(),
                data_injected: FxHashSet::default(),
                send_failed: FxHashSet::default(),
            }),
            plan,
        }
    }

    /// `rank`'s stall schedule, if the plan ever stalls it.
    pub(super) fn stall(&self, rank: Rank) -> Option<&Schedule> {
        self.stalls[rank as usize].as_ref()
    }

    /// Reliable lanes still waiting for their ack.
    pub(super) fn pending_lanes(&self) -> usize {
        self.rel.as_ref().map_or(0, |r| r.xfers.len())
    }

    /// Payload bytes injected by retransmissions.
    pub(super) fn retrans_bytes(&self) -> u64 {
        self.rel.as_ref().map_or(0, |r| r.retrans_bytes)
    }

    /// The failure bookkeeping, once at least one rank has died.
    pub(super) fn dead(&self) -> Option<&Failures> {
        self.failures.as_ref().filter(|f| f.any_dead)
    }

    /// True for the first drain of message `m`'s payload: SendDone fires
    /// then only — the sender's buffer is reusable once the reliability
    /// layer holds the payload, and a retransmit drain may postdate the
    /// message's removal from the in-flight table. Without retransmits
    /// every payload drains exactly once.
    pub(super) fn first_drain(&mut self, m: MsgId) -> bool {
        self.rel.as_mut().is_none_or(|r| r.done_fired.insert(m))
    }

    /// True when the failure detector already completed message `m`'s
    /// send because its receiver died before the payload launched.
    pub(super) fn send_failed(&self, m: MsgId) -> bool {
        self.failures
            .as_ref()
            .is_some_and(|f| f.send_failed.contains(&m))
    }

    /// True when `rank` is alive and `msg` has a killed endpoint: a
    /// survivor that finished during recovery still harvests such a
    /// send's completion.
    pub(super) fn live_send_to_dead(&self, rank: Rank, msg: Option<&Msg>) -> bool {
        self.dead().is_some_and(|f| {
            f.dead_at[rank as usize].is_none() && msg.is_some_and(|m| f.endpoint_dead(m.src, m.dst))
        })
    }

    /// Schedule the plan's timed events: degradation-window boundaries
    /// (scale a link at the window start, restore its pristine baseline
    /// at the end) and kills. Targeted windows resolve their label
    /// against `labels`, the links' debug names; a label matching nothing
    /// is silently inert, so one plan is reusable across fabrics. Node
    /// kills expand against the placement; out-of-range ranks and nodes
    /// are ignored (a plan is written independently of any job size).
    pub(super) fn schedule(
        &self,
        labels: &[String],
        placement: &Placement,
        queue: &mut EventQueue<Ev>,
    ) {
        let every = self.plan.degrade.iter().map(|d| (None, d));
        let targeted = self.plan.degrade_links.iter().map(|(l, d)| (Some(l), d));
        for (label, d) in every.chain(targeted) {
            let bounds = [
                (d.window.0, d.cap_factor, d.lat_factor),
                (d.window.1, 1.0, 1.0),
            ];
            for (link, name) in labels.iter().enumerate() {
                if label.is_none_or(|l| l == name) {
                    for (at, cap, lat) in bounds {
                        let link = link as u32;
                        queue.schedule_untracked(at, Ev::FaultCmd { link, cap, lat });
                    }
                }
            }
        }
        let n = placement.len();
        let mut kills: Vec<(Time, Rank)> = self
            .plan
            .kills
            .iter()
            .filter(|&&(r, _)| r < n)
            .map(|&(r, at)| (at, r))
            .collect();
        for &(node, at) in &self.plan.node_kills {
            kills.extend(
                (0..n)
                    .filter(|&r| placement.location(r).node == node)
                    .map(|r| (at, r)),
            );
        }
        kills.sort_unstable();
        for (at, rank) in kills {
            queue.schedule_untracked(at, Ev::Kill { rank });
        }
    }

    /// Draw a launching flow's fate: per-hop loss (one fault-RNG draw),
    /// an outage window, or a killed endpoint dooms it. A doomed flow
    /// still spends bandwidth and then drains as dropped. Local copies
    /// and empty paths never traverse a faulty link.
    pub(super) fn dooms(
        &mut self,
        t: Time,
        kind: FlowKind,
        path: &Path,
        msgs: &FxHashMap<MsgId, Msg>,
    ) -> bool {
        let mut doomed = false;
        if !matches!(kind, FlowKind::Copy { .. }) && !path.is_empty() {
            if self.plan.loss > 0.0 {
                // The flow survives only if every link keeps it.
                let p = 1.0 - (1.0 - self.plan.loss).powi(path.len() as i32);
                doomed = self.rng.random::<f64>() < p;
            }
            doomed |= self.plan.down.active_at(t);
        }
        if let Some(f) = self.failures.as_mut() {
            // Payload launches are tracked so the audit can tell
            // "launched then dropped at the dead host" apart from
            // "never launched at all" (a rendezvous whose CTS the dead
            // receiver never sent).
            if let FlowKind::Msg(mf) = kind {
                if mf.step.carries_payload() {
                    f.data_injected.insert(mf.msg);
                }
            }
            // A killed host neither sources nor sinks traffic. The live
            // sender still observes the drain, so its buffer is released
            // as usual.
            if f.any_dead {
                doomed |= match kind {
                    FlowKind::Msg(mf) => msgs
                        .get(&mf.msg)
                        .is_some_and(|m| f.endpoint_dead(m.src, m.dst)),
                    FlowKind::Ack { from, .. } => f.dead_at[from as usize].is_some(),
                    FlowKind::Copy { .. } => false,
                };
            }
        }
        doomed
    }
}

/// Fixed point of the noise and stall deferrals: each pass can only move
/// forward, and each stall window is crossed at most once.
fn defer_past(noise: &mut ClusterNoise, stall: &Schedule, rank: Rank, t: Time) -> Time {
    let mut cur = t;
    loop {
        let a = noise.defer(rank, cur);
        let b = stall.defer(a);
        if b == a {
            return a;
        }
        cur = b;
    }
}

/// The noise model's `finish_work` with `stall`'s windows preempting the
/// rank as well.
fn finish_past(
    noise: &mut ClusterNoise,
    stall: &Schedule,
    rank: Rank,
    t: Time,
    work: Duration,
) -> Time {
    let mut cur = t;
    let mut left = work;
    loop {
        cur = defer_past(noise, stall, rank, cur);
        if left.is_zero() {
            return cur;
        }
        let done = noise.finish_work(rank, cur, left);
        match stall.next_start_at_or_after(cur) {
            Some(s) if s < done => {
                // The stall interrupts: bank the noise-free work done
                // before it and resume (deferred) at the stall start.
                let did = noise.work_in(rank, cur, s);
                left = Duration::from_nanos(left.as_nanos().saturating_sub(did.as_nanos()));
                cur = s;
            }
            _ => return done,
        }
    }
}

impl World {
    /// Noise- and stall-aware deferral: the earliest instant at or after
    /// `t` outside both the rank's noise windows and its injected stall
    /// windows. Without a stall schedule this is exactly the noise model's
    /// `defer` — the fault-free path is bit-identical.
    pub(super) fn rank_defer(&mut self, rank: Rank, t: Time) -> Time {
        match self.faults.as_deref().and_then(|f| f.stall(rank)) {
            None => self.noise.defer(rank, t),
            Some(stall) => defer_past(&mut self.noise, stall, rank, t),
        }
    }

    /// Noise- and stall-aware work completion: like the noise model's
    /// `finish_work`, but injected stall windows also preempt the rank.
    pub(super) fn finish_rank_work(&mut self, rank: Rank, t: Time, work: Duration) -> Time {
        match self.faults.as_deref().and_then(|f| f.stall(rank)) {
            None => self.noise.finish_work(rank, t, work),
            Some(stall) => finish_past(&mut self.noise, stall, rank, t, work),
        }
    }

    /// Arm (or re-arm) the retransmit timer for a launched message flow
    /// when the plan needs reliability. The deadline is two
    /// current-contention transfer estimates (out and ack back) plus the
    /// exponentially backed-off RTO with jitter.
    pub(super) fn arm_timer(&mut self, t: Time, flow: MsgFlow, path: Path, bytes: u64) {
        let Some(fs) = self.faults.as_deref_mut() else {
            return;
        };
        let Some(rel) = fs.rel.as_mut() else {
            return;
        };
        let key = flow.key();
        // A first launch always finds its message in flight; only a
        // retransmit can outlive it, and that one has its lane.
        let (attempt, owner) = match rel.xfers.get(&key) {
            Some(x) => (x.attempt, x.owner),
            None => (0, flow.endpoints(&self.msgs[&flow.msg]).0),
        };
        let rto_ns = fs.plan.rel.rto.as_nanos();
        let backoff_ns = rto_ns.saturating_mul(1u64 << attempt.min(20));
        let jmax = (backoff_ns as f64 * fs.plan.rel.jitter_frac) as u64;
        let jitter = if jmax > 0 {
            fs.rng.random_range(0..jmax)
        } else {
            0
        };
        if attempt >= 1 {
            self.stats.backoff_time += backoff_ns.saturating_add(jitter) - rto_ns;
        }
        let est = self.net.estimate_transfer(&path, bytes);
        let deadline = t + est + est + Duration::from_nanos(backoff_ns.saturating_add(jitter));
        let timer = self.queue.schedule(deadline, Ev::Timer { key });
        rel.xfers
            .entry(key)
            .and_modify(|x| x.timer = timer)
            .or_insert(Xfer {
                flow,
                path,
                bytes,
                owner,
                attempt: 0,
                timer,
            });
    }

    /// The rank a retransmitted lane is attributed to once its message
    /// has retired.
    pub(super) fn lane_owner(&self, flow: MsgFlow) -> Option<Rank> {
        let rel = self.faults.as_deref()?.rel.as_ref()?;
        rel.xfers.get(&flow.key()).map(|x| x.owner)
    }

    /// A retransmit timer fired: if the lane is still un-acked, relaunch
    /// it (which re-arms the timer with a doubled backoff).
    ///
    /// A lane whose message touches a killed rank is *retired* instead —
    /// retransmitting into a dead host forever would be a storm, and
    /// giving up on it is not an error: the failure detector owns that
    /// outcome. A live↔live lane that exhausts its retry budget raises a
    /// structured [`RunError::RetryBudgetExhausted`]; it never panics.
    pub(super) fn on_timer(&mut self, t: Time, key: XferKey) {
        let Some(fs) = self.faults.as_deref_mut() else {
            return;
        };
        let Some(rel) = fs.rel.as_mut() else {
            return;
        };
        let Some(x) = rel.xfers.get_mut(&key) else {
            return; // acked while the timer was in flight
        };
        x.attempt += 1;
        let (flow, path, bytes, owner, attempt) = (x.flow, x.path, x.bytes, x.owner, x.attempt);
        let m = flow.msg;
        if let Some(f) = fs.failures.as_ref().filter(|f| f.any_dead) {
            let dead = match self.msgs.get(&m) {
                Some(msg) => f.endpoint_dead(msg.src, msg.dst),
                None => f.dead_at[owner as usize].is_some(),
            };
            if dead {
                rel.xfers.remove(&key);
                return;
            }
        }
        if attempt > fs.plan.rel.max_retries {
            let max_retries = fs.plan.rel.max_retries;
            let lane = flow.step.lane() as u32;
            let peer = self
                .msgs
                .get(&m)
                .map(|msg| if msg.src == owner { msg.dst } else { msg.src })
                .unwrap_or(owner);
            let detail = format!(
                "reliability: msg {m} lane {lane} exhausted its retry budget \
                 ({max_retries} retransmissions) between live ranks {owner} \
                 and {peer} — the fault schedule is not survivable"
            );
            rel.xfers.remove(&key);
            self.run_error = Some(RunError::RetryBudgetExhausted {
                rank: owner,
                peer,
                msg: m,
                lane,
                attempts: attempt,
                at: t,
                detail,
                flight: None,
            });
            return;
        }
        rel.retrans_bytes += bytes;
        self.stats.retransmits += 1;
        if self.obs_on {
            self.obs.msg_event(m, MsgEvent::Retransmit, t.as_nanos());
        }
        self.launch_flow(t, FlowKind::Msg(flow), path, bytes);
    }

    /// Reliability handling for a delivered flow. Returns `true` when the
    /// delivery was fully consumed here (an ack, or a duplicate of an
    /// already-processed lane) and must not reach the protocol layer.
    pub(super) fn reliable_delivery(&mut self, t: Time, kind: FlowKind) -> bool {
        let Some(rel) = self.faults.as_deref_mut().and_then(|f| f.rel.as_mut()) else {
            return false;
        };
        let flow = match kind {
            FlowKind::Ack { key, .. } => {
                if let Some(x) = rel.xfers.remove(&key) {
                    self.queue.cancel(x.timer);
                    self.stats.acks += 1;
                    if self.obs_on {
                        self.obs.msg_event(key >> 2, MsgEvent::Acked, t.as_nanos());
                    }
                }
                return true;
            }
            FlowKind::Copy { .. } => return false, // not a reliable lane
            FlowKind::Msg(flow) => flow,
        };
        let key = flow.key();
        // A retransmitted duplicate of an already-processed lane (its
        // message may be long gone) is only acked again. A first delivery
        // records the ack's host-to-host reverse route (CTS travels
        // receiver→sender, so its ack flows sender→receiver).
        let duplicate = rel.seen.get(&key).copied();
        let (from, back) = match duplicate {
            Some(seen) => {
                self.stats.duplicates_suppressed += 1;
                seen
            }
            None => {
                let (to, from) = flow.endpoints(&self.msgs[&flow.msg]);
                let back = self
                    .fabric
                    .route(self.placement.host_mem(from), self.placement.host_mem(to));
                rel.seen.insert(key, (from, back));
                (from, back)
            }
        };
        self.queue.schedule_untracked(
            t,
            Ev::Launch {
                kind: FlowKind::Ack { key, from },
                path: back,
                bytes: 0,
            },
        );
        duplicate.is_some()
    }

    /// A `kill=` / `killnode=` instant arrived: stop the rank's progress
    /// engine permanently. Everything already addressed to it is dropped
    /// by the stray-event path; flows launched to or from it after this
    /// instant are doomed at launch. The heartbeat failure detector is
    /// armed to converge survivors on the death one detection delay
    /// later.
    pub(super) fn on_kill(&mut self, t: Time, rank: Rank) {
        let Some(f) = self.faults.as_deref_mut().and_then(|f| f.failures.as_mut()) else {
            return;
        };
        if f.dead_at[rank as usize].is_some() {
            return; // doubly killed (rank kill + node kill)
        }
        f.dead_at[rank as usize] = Some(t);
        f.any_dead = true;
        self.stats.ranks_killed += 1;
        self.queue
            .schedule_untracked(t + f.detect_delay, Ev::Detect { rank });
        let state = &mut self.ranks[rank as usize];
        if state.finished_at.is_none() {
            // The killed rank's clock stops here. Counting it as finished
            // lets the survivors alone decide when the run is over; the
            // audit accounts its unfinished operations via the failed
            // columns instead of the per-rank completion checks.
            state.finished_at = Some(t);
            self.finished += 1;
        }
    }

    /// The heartbeat detector's timeout for a killed rank expired: the
    /// survivors now agree it is dead (ULFM-style revoke). Complete the
    /// operations that can no longer progress, cancel receives naming the
    /// dead source, and notify every unfinished survivor program. Each
    /// killed rank is detected once: [`World::on_kill`] arms one detection
    /// per death.
    pub(super) fn on_detect(&mut self, t: Time, rank: Rank) {
        let Some(f) = self.faults.as_deref_mut().and_then(|f| f.failures.as_mut()) else {
            return;
        };
        f.detected.push((rank, t));
        self.stats.failures_detected += 1;
        // Pending rendezvous sends whose payload can never launch (the
        // receiver died before answering CTS) complete now: the sender's
        // buffer is reusable, exactly like ULFM completing the request
        // with an error class instead of leaving it forever pending.
        let mut to_complete: Vec<(MsgId, Rank, Token)> = Vec::new();
        for (&m, msg) in &self.msgs {
            if msg.dst == rank
                && msg.payload.len() > self.spec.eager_limit
                && f.dead_at[msg.src as usize].is_none()
                && !f.data_injected.contains(&m)
                && f.send_failed.insert(m)
            {
                to_complete.push((m, msg.src, msg.send_token));
            }
        }
        // Revoke notifications run *synchronously*, all against the same
        // snapshot of who is dead and who is still running. Handlers on
        // both sides of a repaired edge (a new parent and an adopted
        // child, say) therefore decide from identical information — a
        // rank that finishes inside this batch was already excluded from
        // `active`, so no survivor commits traffic to a rank that will
        // never consume it.
        let dead: Vec<Rank> = f.detected.iter().map(|&(r, _)| r).collect();
        // Hash-map iteration order is capacity-history dependent; sorting
        // by message id keeps the event schedule deterministic.
        to_complete.sort_unstable_by_key(|&(m, _, _)| m);
        for (m, src, token) in to_complete {
            self.deliver(t, src, Completion::SendDone { token }, m);
        }
        // Cancel survivors' posted receives naming the dead source so
        // they can re-post around it; the matches they were waiting for
        // will never arrive. (Cancelled receives look like the M > N
        // rule's legitimate over-posting to the audit.)
        for (r, state) in self.ranks.iter_mut().enumerate() {
            if r != rank as usize && state.finished_at.is_none() {
                state.posted.remove_src(rank);
            }
        }
        let active: Vec<Rank> = (0..self.nranks())
            .filter(|&r| self.ranks[r as usize].finished_at.is_none())
            .collect();
        for &r in &active {
            self.run_program(r, t, PROGRESS_OVERHEAD, None, |prog, ctx| {
                prog.on_peer_failed(ctx, &dead, &active)
            });
        }
    }

    /// Triage end-of-run leftovers against the failed set: traffic
    /// addressed to or from a killed rank moves to the audit's `failed_*`
    /// columns; everything between live ranks must still balance exactly
    /// as in a fault-free run.
    pub(super) fn triage_failures(&self, audit: &mut AuditReport) {
        let Some(f) = self.faults.as_deref().and_then(Faults::dead) else {
            return;
        };
        audit.failed_ranks = (0..self.nranks())
            .filter(|&r| f.dead_at[r as usize].is_some())
            .collect();
        audit.unclaimed_messages = 0;
        for (&m, msg) in &self.msgs {
            if f.endpoint_dead(msg.src, msg.dst) {
                audit.failed_bytes += msg.payload.len();
                if !f.data_injected.contains(&m) {
                    audit.failed_unlaunched_bytes += msg.payload.len();
                }
            } else {
                audit.unclaimed_messages += 1;
            }
        }
        // Dead ranks keep whatever unexpected-queue state they had at the
        // kill instant; live ranks may legitimately hold unmatched
        // arrivals from (or addressed around) the dead.
        audit.unexpected_leftovers = 0;
        for (r, state) in self.ranks.iter().enumerate() {
            if f.dead_at[r].is_some() {
                continue;
            }
            for id in state
                .unexp_eager
                .ids()
                .into_iter()
                .chain(state.unexp_rts.ids())
            {
                let live = self
                    .msgs
                    .get(&id)
                    .is_none_or(|msg| !f.endpoint_dead(msg.src, msg.dst));
                if live {
                    audit.unexpected_leftovers += 1;
                }
            }
        }
    }
}
