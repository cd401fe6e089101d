//! The simulated MPI runtime: progress engine, P2P protocol, event loop.
//!
//! ## Execution model
//!
//! Each rank is a single-threaded MPI process: every action that needs its
//! CPU (posting operations, matching, handshakes, completion callbacks,
//! compute) serializes through the rank's *busy horizon* and is preempted
//! by its noise windows. Work that finds the CPU busy parks in per-rank
//! bands ([`ParkedBands`]) and is woken by one event per band, not one
//! re-queued event per item. In-flight network transfers progress
//! regardless — DMA does not need the host — which is precisely the
//! asymmetry that lets event-driven collectives absorb noise (§2.2.2 of
//! the paper).
//!
//! ## P2P protocol
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

use crate::matching::{PostedQueue, PostedRecv, UnexpQueue};
use crate::payload::Payload;
use crate::program::{Completion, Op, ProgramCtx, RankProgram, Tag, Token};
use adapt_faults::{FaultPlan, Schedule};
use adapt_net::{Fabric, FlowId, FlowScheduler, FlowSpec, NetStep, Network, Path};
use adapt_noise::ClusterNoise;
use adapt_obs::{
    AnyRecorder, FlowClass, FlowStart, GaugeMetric, HealthReport, Monitor, MsgEvent, NullRecorder,
    ObsData, ObsSummary, ProtoKind, Recorder, SnapshotInput, Trigger,
};
use adapt_sim::audit::{AuditReport, RankAudit};
use adapt_sim::fxhash::{FxHashMap, FxHashSet};
use adapt_sim::park::ParkedBands;
use adapt_sim::queue::{EventKey, EventQueue};
use adapt_sim::rng::{MasterSeed, StreamTag};
use adapt_sim::time::{Duration, Time};
use adapt_topology::{MachineSpec, MemSpace, Placement, Rank};
use rand::rngs::SmallRng;
use rand::Rng;

/// Fixed CPU cost of handling any completion in the progress engine.
const PROGRESS_OVERHEAD: Duration = Duration(50);
/// Fixed CPU cost of protocol actions (posting a receive, sending CTS,
/// launching rendezvous data, enqueueing GPU work).
const CTRL_OVERHEAD: Duration = Duration(100);

/// Message id in the in-flight table.
use crate::matching::MsgId;

#[derive(Debug)]
struct Msg {
    src: Rank,
    dst: Rank,
    tag: Tag,
    payload: Payload,
    send_token: Token,
    src_mem: MemSpace,
    dst_mem: MemSpace,
    recv_token: Option<Token>,
}

#[derive(Clone, Copy, Debug)]
enum FlowKind {
    Rts(MsgId),
    Cts(MsgId),
    EagerData(MsgId),
    RndvData(MsgId),
    Copy {
        rank: Rank,
        token: Token,
        bytes: u64,
    },
    /// Reliability-layer acknowledgement for transfer lane `key`
    /// (zero-byte, receiver host to sender host, lossy but untracked —
    /// a lost ack is recovered by the sender's retransmit timer).
    Ack {
        key: XferKey,
        from: Rank,
    },
}

/// Key of one reliable transfer lane: `msg * 4 + lane`, where the lane
/// distinguishes the protocol steps that each need their own ack (a
/// message never uses both the eager and rendezvous data lanes).
type XferKey = u64;

const LANE_RTS: u64 = 0;
const LANE_CTS: u64 = 1;
const LANE_DATA: u64 = 2;

/// The retransmit lane a flow kind travels on (`None` for local copies
/// and acks themselves, which the reliability layer does not track).
fn xfer_key(kind: FlowKind) -> Option<XferKey> {
    match kind {
        FlowKind::Rts(m) => Some(m * 4 + LANE_RTS),
        FlowKind::Cts(m) => Some(m * 4 + LANE_CTS),
        FlowKind::EagerData(m) | FlowKind::RndvData(m) => Some(m * 4 + LANE_DATA),
        FlowKind::Copy { .. } | FlowKind::Ack { .. } => None,
    }
}

/// Sentinel for "no causing message" in [`RankItem::Deliver`].
const NO_MSG: MsgId = u64::MAX;

#[derive(Debug)]
enum RankItem {
    Start,
    Deliver {
        c: Completion,
        /// The message whose protocol step produced the completion
        /// (send/recv completions only; `NO_MSG` otherwise) —
        /// observability causality only, never consulted by the
        /// simulation itself. A bare sentinel rather than an `Option`
        /// saves `Option<u64>`'s eight padding bytes, though the field
        /// itself still cost one word of event size (56 → 64 bytes when
        /// it landed). The event queue stores payloads out-of-line in a
        /// slab precisely so growth like this stays off the heap's
        /// sift path.
        msg: MsgId,
    },
    RtsArrived(MsgId),
    CtsArrived(MsgId),
    EagerArrived(MsgId),
    RndvDataArrived(MsgId),
}

enum Ev {
    Net(FlowId),
    Rank {
        rank: Rank,
        item: RankItem,
    },
    /// The oldest band of items this rank parked behind its busy CPU is
    /// due (see [`ParkedBands`]).
    Wake {
        rank: Rank,
    },
    Launch {
        kind: FlowKind,
        path: Path,
        bytes: u64,
    },
    /// Retransmit timer for a reliable transfer lane (tracked so the ack
    /// can cancel it).
    Timer {
        key: XferKey,
    },
    /// A degradation-window boundary: rescale one link's capacity and
    /// latency relative to its pristine baseline.
    FaultCmd {
        link: u32,
        cap: f64,
        lat: f64,
    },
    /// The fault plan kills this rank permanently at the event's time.
    Kill {
        rank: Rank,
    },
    /// The heartbeat failure detector declares this rank dead: survivors
    /// converge on the new failed set and are notified.
    Detect {
        rank: Rank,
    },
    /// Health-monitor snapshot timer: read world state, run the
    /// detectors, reschedule. Rides the deterministic queue like any
    /// other event, so the alert stream is thread-count invariant.
    Snapshot,
}

#[derive(Debug, Default)]
struct RankState {
    busy_until: Time,
    /// Progress-thread horizon (used when asynchronous progress is on:
    /// protocol work and callbacks run here, application compute on
    /// `busy_until`).
    prog_busy_until: Time,
    /// Pure CPU work performed (noise stretching excluded).
    busy_accum: Duration,
    posted: PostedQueue,
    unexp_eager: UnexpQueue,
    unexp_rts: UnexpQueue,
    finished_at: Option<Time>,
    gpu_stream_busy: Time,
    /// Posted/completed operation counters for the audit layer.
    audit: RankAudit,
}

/// World-level byte counters feeding the end-of-run [`AuditReport`].
#[derive(Debug, Default)]
struct ByteAudit {
    send_posted: u64,
    recv_completed: u64,
    copy_posted: u64,
    copy_completed: u64,
}

/// One in-flight reliable transfer: everything needed to relaunch it
/// when its retransmit timer fires.
#[derive(Debug)]
struct Xfer {
    kind: FlowKind,
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

/// Runtime state of the fault-injection and reliability layer. Boxed
/// behind an `Option` in [`World`]: a fault-free run carries a single
/// `None` and executes exactly the code it did before this layer existed.
struct FaultState {
    plan: FaultPlan,
    /// Loss draws and backoff jitter, seeded from the plan via
    /// [`StreamTag::Faults`] so fault randomness never perturbs noise or
    /// workload streams.
    rng: SmallRng,
    /// Sender-side: un-acked transfers by lane key.
    xfers: FxHashMap<XferKey, Xfer>,
    /// Receiver-side duplicate suppression: lanes already processed once,
    /// with the ack return route and acking rank for re-acking
    /// retransmitted duplicates.
    seen: FxHashMap<XferKey, (Rank, Path)>,
    /// Sender messages whose payload drain already fired SendDone
    /// (retransmit drains must not fire it again).
    done_fired: FxHashSet<MsgId>,
    /// Per-rank stall schedules (`None` = rank never stalls, delegating
    /// straight to the noise model).
    stalls: Vec<Option<Schedule>>,
    /// Payload bytes injected by retransmissions (audit ledger column).
    retrans_bytes: u64,
    /// Per-rank kill instants (`None` = alive). Ground truth of the
    /// failure model; survivors only learn of a death via `detected_at`.
    dead_at: Vec<Option<Time>>,
    /// Cached "some rank has died": the hot paths pay one boolean test
    /// until the first kill actually fires.
    any_dead: bool,
    /// Per-rank detection instants: when the heartbeat failure detector
    /// converged survivors on the rank being dead.
    detected_at: Vec<Option<Time>>,
    /// The agreed failed set in detection order — exactly the slice
    /// `on_peer_failed` hands to survivor programs.
    failed_order: Vec<Rank>,
    /// Whether the ack/retransmit machinery is armed. Any plan that was
    /// expressible before kills existed (loss, outages, stalls,
    /// degradation) keeps it on, preserving those runs bit-for-bit;
    /// kill-only plans leave it off — a dead peer is detected, not
    /// retransmitted to — so an inert kill plan costs ~nothing.
    rel_active: bool,
    /// The plan can kill ranks (cheap gate for the kill bookkeeping).
    kills_enabled: bool,
    /// Payload flows (eager or rendezvous data) actually injected into
    /// the network, tracked only when kills are enabled: the audit uses
    /// it to split failed bytes into launched and never-launched.
    data_injected: FxHashSet<MsgId>,
    /// Sends completed (SendDone) by the failure detector because their
    /// receiver died before the payload launched — a CTS already in
    /// flight at detection time must not start the data after all.
    send_failed: FxHashSet<MsgId>,
}

impl FaultState {
    fn new(plan: FaultPlan, nranks: u32) -> FaultState {
        let rng = MasterSeed(plan.seed).rng(StreamTag::Faults, 0);
        let stalls: Vec<Option<Schedule>> = (0..nranks)
            .map(|r| {
                let s = plan.stalls_for(r);
                if s.is_empty() {
                    None
                } else {
                    Some(s)
                }
            })
            .collect();
        let rel_active = plan.loss > 0.0
            || !plan.down.is_empty()
            || !plan.degrade.is_empty()
            || !plan.stalls.is_empty();
        let kills_enabled = !plan.kills.is_empty() || !plan.node_kills.is_empty();
        FaultState {
            plan,
            rng,
            xfers: FxHashMap::default(),
            seen: FxHashMap::default(),
            done_fired: FxHashSet::default(),
            stalls,
            retrans_bytes: 0,
            dead_at: vec![None; nranks as usize],
            any_dead: false,
            detected_at: vec![None; nranks as usize],
            failed_order: Vec::new(),
            rel_active,
            kills_enabled,
            data_injected: FxHashSet::default(),
            send_failed: FxHashSet::default(),
        }
    }

    /// Heartbeat-detector latency: a rank is declared dead after
    /// `max_retries + 1` silent heartbeat periods of length `rto` — the
    /// same budget the reliability layer grants a lossy lane, so tuning
    /// the RTO moves detection latency linearly.
    fn detect_delay(&self) -> Duration {
        Duration::from_nanos(
            self.plan
                .rel
                .rto
                .as_nanos()
                .saturating_mul(self.plan.rel.max_retries as u64 + 1),
        )
    }

    /// Is either endpoint of the pair dead?
    fn endpoint_dead(&self, a: Rank, b: Rank) -> bool {
        self.dead_at[a as usize].is_some() || self.dead_at[b as usize].is_some()
    }
}

/// Why a run stopped making progress: returned by [`World::try_run`]
/// instead of hanging (or panicking without context). Carries a full
/// per-rank report of what each unfinished rank was blocked on.
#[derive(Debug)]
pub struct StallDiagnosis {
    /// Simulated instant at which the stall was detected.
    pub at: Time,
    /// Ranks that had not finished.
    pub stuck: Vec<Rank>,
    /// `true` when the progress watchdog horizon fired; `false` when the
    /// event queue ran dry with unfinished ranks (classic deadlock).
    pub watchdog_fired: bool,
    /// Human-readable report (starts with `deadlock:`); also what
    /// [`std::fmt::Display`] prints.
    pub detail: String,
    /// Flight-recorder tail (a Chrome-trace fragment of the most recent
    /// spans), when the attached recorder keeps one — the post-mortem
    /// companion to the per-rank stuck report.
    pub flight: Option<String>,
}

impl std::fmt::Display for StallDiagnosis {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        f.write_str(&self.detail)
    }
}

/// Per-rank post-mortem for a run abandoned because of rank failures.
#[derive(Debug)]
pub struct FailureDiagnosis {
    /// Simulated instant at which the run was abandoned.
    pub at: Time,
    /// The failed set: every killed rank, detection order first, then
    /// killed-but-not-yet-detected ranks by id.
    pub failed: Vec<Rank>,
    /// Detection instants for the subset the failure detector agreed on.
    pub detected_at: Vec<(Rank, Time)>,
    /// Surviving ranks that had not finished.
    pub stuck: Vec<Rank>,
    /// Human-readable report (what [`std::fmt::Display`] prints).
    pub detail: String,
    /// Flight-recorder tail, when the attached recorder keeps one.
    pub flight: Option<String>,
}

impl std::fmt::Display for FailureDiagnosis {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        f.write_str(&self.detail)
    }
}

/// Why a run could not complete: returned by [`World::try_run`] instead
/// of panicking. Every variant carries a human-readable `detail` (what
/// `Display` prints) and the flight-recorder tail when the attached
/// recorder keeps one, so no failure mode escapes without a post-mortem.
#[derive(Debug)]
pub enum RunError {
    /// The run stopped making progress with no rank failure to blame:
    /// the event queue ran dry or the progress watchdog fired.
    Stalled(StallDiagnosis),
    /// A reliable transfer lane between two *live* ranks exhausted its
    /// retry budget: the loss/outage schedule is not survivable.
    RetryBudgetExhausted {
        /// The lane's owning (sending) rank.
        rank: Rank,
        /// The lane's remote endpoint.
        peer: Rank,
        /// The message the lane belongs to.
        msg: u64,
        /// Protocol lane within the message (0 = RTS, 1 = CTS, 2 = data).
        lane: u32,
        /// Retransmissions performed before giving up.
        attempts: u32,
        /// Simulated instant of the final expiry.
        at: Time,
        /// Human-readable report (what `Display` prints).
        detail: String,
        /// Flight-recorder tail, when the attached recorder keeps one.
        flight: Option<String>,
    },
    /// Ranks were killed and the survivors could not complete around
    /// them; the diagnosis names the agreed failed set per rank.
    RanksFailed(FailureDiagnosis),
    /// The run processed more than [`World::max_events`] events without
    /// completing: a livelock, or a cap set below the run's real size.
    EventCap {
        /// Events processed, the one that crossed the cap included.
        events: u64,
        /// Simulated instant of the event that crossed the cap.
        at: Time,
        /// Flight-recorder tail, when the attached recorder keeps one.
        flight: Option<String>,
    },
    /// The run completed but its end-of-run invariant audit is dirty.
    /// [`World::try_run`] never returns this (it hands back the result
    /// with its report); the collectives runner's `execute` does, so no
    /// caller has to remember to check [`RunResult::audit`].
    AuditFailed {
        /// The dirty report.
        audit: AuditReport,
        /// Flight-recorder tail, when the attached recorder keeps one.
        flight: Option<String>,
    },
    /// A what-if intervention has no real-configuration equivalent
    /// (a virtual-only layer scaling, or a link pattern matching no
    /// link), so there is no run to execute.
    NoRealEquivalent(String),
}

impl RunError {
    /// The flight-recorder tail attached to the error, if any.
    pub fn flight(&self) -> Option<&str> {
        match self {
            RunError::Stalled(d) => d.flight.as_deref(),
            RunError::RetryBudgetExhausted { flight, .. }
            | RunError::EventCap { flight, .. }
            | RunError::AuditFailed { flight, .. } => flight.as_deref(),
            RunError::RanksFailed(d) => d.flight.as_deref(),
            RunError::NoRealEquivalent(_) => None,
        }
    }

    /// Ranks that had not finished when the run was abandoned.
    pub fn stuck(&self) -> &[Rank] {
        match self {
            RunError::Stalled(d) => &d.stuck,
            RunError::RetryBudgetExhausted { .. }
            | RunError::EventCap { .. }
            | RunError::AuditFailed { .. }
            | RunError::NoRealEquivalent(_) => &[],
            RunError::RanksFailed(d) => &d.stuck,
        }
    }

    fn set_flight(&mut self, dump: Option<String>) {
        match self {
            RunError::Stalled(d) => d.flight = dump,
            RunError::RetryBudgetExhausted { flight, .. }
            | RunError::EventCap { flight, .. }
            | RunError::AuditFailed { flight, .. } => *flight = dump,
            RunError::RanksFailed(d) => d.flight = dump,
            RunError::NoRealEquivalent(_) => {}
        }
    }
}

impl std::fmt::Display for RunError {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        match self {
            RunError::Stalled(d) => d.fmt(f),
            RunError::RetryBudgetExhausted { detail, .. } => f.write_str(detail),
            RunError::RanksFailed(d) => d.fmt(f),
            RunError::EventCap { events, at, .. } => write!(
                f,
                "event cap exceeded: {events} events processed by t={}ns without \
                 completing (livelock?)",
                at.as_nanos()
            ),
            RunError::AuditFailed { audit, .. } => audit.fmt(f),
            RunError::NoRealEquivalent(detail) => f.write_str(detail),
        }
    }
}

impl std::error::Error for RunError {}

/// Defines [`WorldStats`] once and derives everything that must agree
/// with the field list: [`WorldStats::FIELD_NAMES`],
/// [`WorldStats::fields`], and the `Display` impl. Adding a counter here
/// automatically adds it to the CLI output and its completeness test.
macro_rules! world_stats {
    ($($(#[$doc:meta])* $name:ident),+ $(,)?) => {
        /// Aggregate counters for one run.
        #[derive(Clone, Copy, Debug, Default, PartialEq, Eq)]
        pub struct WorldStats {
            $($(#[$doc])* pub $name: u64,)+
        }

        impl WorldStats {
            /// Every counter's name, in declaration order.
            pub const FIELD_NAMES: &'static [&'static str] = &[$(stringify!($name)),+];

            /// Iterate `(name, value)` over every counter, in declaration
            /// order.
            pub fn fields(&self) -> impl Iterator<Item = (&'static str, u64)> {
                [$((stringify!($name), self.$name)),+].into_iter()
            }
        }

        impl std::fmt::Display for WorldStats {
            fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
                for (name, value) in self.fields() {
                    writeln!(f, "  {name:<20} {value}")?;
                }
                Ok(())
            }
        }
    };
}

world_stats! {
    /// Events processed by the main loop.
    events,
    /// Point-to-point messages initiated.
    messages,
    /// Receives that matched an already-arrived (unexpected) eager message.
    unexpected_matches,
    /// Rendezvous handshakes performed.
    rendezvous,
    /// Payload bytes delivered by the network.
    delivered_bytes,
    /// Network-engine diagnostics: neighbour refresh scans.
    net_refreshes,
    /// Network-engine diagnostics: drain-event reschedules.
    net_reschedules,
    /// Matching-engine diagnostics: queue entries examined while matching
    /// arrivals against posted receives and posted receives against the
    /// unexpected queues. The per-event matching cost of the progress
    /// engine is `match_probes / events` — the complexity claim made by
    /// the matching index is checkable from this number alone.
    match_probes,
    /// Network-engine diagnostics: full path-minimum share recomputations
    /// performed while refreshing flows after a perturbation.
    net_share_recomputes,
    /// Flows lost to injected faults (loss draws and link-down windows).
    drops_injected,
    /// Reliability-layer retransmissions launched after an RTO expiry.
    retransmits,
    /// Acknowledgements that reached a sender and retired its timer.
    acks,
    /// Duplicate deliveries suppressed (and re-acked) at receivers.
    duplicates_suppressed,
    /// Nanoseconds of exponential backoff + jitter added beyond the base
    /// RTO across all retransmissions.
    backoff_time,
    /// Events addressed to already-finished ranks and dropped. The audit
    /// flags these in fault-free runs.
    stray_events,
    /// Ranks killed by the fault plan (the failure model's ground truth).
    ranks_killed,
    /// Rank failures the heartbeat detector converged on and announced
    /// to survivors.
    failures_detected,
}

/// Outcome of a completed simulation.
pub struct RunResult {
    /// Time at which the last rank finished.
    pub makespan: Duration,
    /// Per-rank finish times.
    pub per_rank_finish: Vec<Time>,
    /// Per-rank pure CPU work performed (overheads, matching, folds,
    /// application compute; noise stretching excluded).
    pub per_rank_busy: Vec<Duration>,
    /// Aggregate counters.
    pub stats: WorldStats,
    /// End-of-run invariant report: byte conservation, causality,
    /// matched completions, and event-queue consistency. A violation
    /// means the simulator (or an algorithm driving it) miscounted;
    /// the collectives runner's `execute` turns it into
    /// [`RunError::AuditFailed`], direct callers check
    /// [`AuditReport::is_clean`].
    pub audit: AuditReport,
    /// The rank programs, returned for inspection (downcast with
    /// `as Box<dyn Any>` — `RankProgram` upcasts to `Any`).
    pub programs: Vec<Box<dyn RankProgram>>,
    /// Full observability record (`None` unless a recorder was attached
    /// via [`World::with_recorder`]).
    pub obs: Option<ObsData>,
    /// Bounded-memory streaming summary (`None` unless the attached
    /// recorder aggregates online, e.g. `StreamRecorder`).
    pub summary: Option<ObsSummary>,
    /// Flight-recorder tail, captured only when the audit is dirty and
    /// the attached recorder keeps a flight ring — the post-mortem for
    /// a run that completed but violated an invariant.
    pub flight: Option<String>,
    /// Health-monitor report (`None` unless a monitor was attached via
    /// [`World::with_monitor`]).
    pub health: Option<HealthReport>,
}

struct QueueSched<'a>(&'a mut EventQueue<Ev>);

impl FlowScheduler for QueueSched<'_> {
    fn schedule(&mut self, at: Time, flow: FlowId) -> EventKey {
        self.0.schedule(at, Ev::Net(flow))
    }
    fn cancel(&mut self, key: EventKey) {
        self.0.cancel(key);
    }
}

/// Operation sink handed to program handlers (implements [`ProgramCtx`]).
struct OpSink<'a> {
    rank: Rank,
    nranks: u32,
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
        self.nranks
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

/// The simulated job: machine + placement + noise + rank programs.
pub struct World {
    spec: MachineSpec,
    placement: Placement,
    fabric: Fabric,
    net: Network,
    noise: ClusterNoise,
    /// The one event queue. The max-min fair-share network couples every
    /// node with zero lookahead (a flow launch instantly changes every
    /// contending flow's share), so the event stream is inherently
    /// sequential; parallelism lives one level up, across independent
    /// runs ([`adapt_sim::WorkerPool`]).
    queue: EventQueue<Ev>,
    ranks: Vec<RankState>,
    /// Start/Deliver/CTS items waiting for their rank's busy CPU, in
    /// per-rank bands woken by one [`Ev::Wake`] each.
    parked: ParkedBands<RankItem>,
    msgs: FxHashMap<MsgId, Msg>,
    next_msg: MsgId,
    /// Per-flow protocol kind, indexed by the network's slab id (flow ids
    /// are small and reused, so a flat vector beats any hash table here).
    flow_kinds: Vec<Option<FlowKind>>,
    programs: Vec<Option<Box<dyn RankProgram>>>,
    finished: u32,
    stats: WorldStats,
    byte_audit: ByteAudit,
    /// Hard cap on processed events (livelock guard): crossing it ends
    /// the run with [`RunError::EventCap`].
    pub max_events: u64,
    /// Asynchronous progress (paper §7 future work): when enabled, each
    /// rank has a dedicated progress thread — completion callbacks and
    /// protocol actions no longer wait for application `compute` to
    /// finish, so non-blocking collectives overlap with computation.
    async_progress: bool,
    /// Fault-injection and reliability layer (`None` = pristine network,
    /// zero-cost transport exactly as before the layer existed).
    faults: Option<Box<FaultState>>,
    /// A fatal condition raised inside an event handler (handlers cannot
    /// return errors); the main loop checks it after every event.
    run_error: Option<RunError>,
    /// Progress-watchdog horizon: a gap of simulated time between
    /// consecutive events larger than this, while ranks are unfinished,
    /// aborts the run with a [`StallDiagnosis`].
    watchdog: Option<Duration>,
    /// Observability recorder (a no-op [`NullRecorder`] by default).
    /// Stored as [`AnyRecorder`] so enabled probes dispatch statically.
    obs: AnyRecorder,
    /// Cached `obs.enabled()` — every probe site branches on this flag
    /// only, so a disabled recorder costs one predictable branch.
    obs_on: bool,
    /// Reusable link-id buffer for the `flow_start` probe; the recorder
    /// borrows it, so the per-flow path copy never allocates after the
    /// first few flows.
    links_scratch: Vec<u32>,
    /// Online health monitor (`None` = no snapshot timer scheduled, the
    /// event stream is byte-identical to a pre-monitor build).
    monitor: Option<Box<Monitor>>,
    /// Reusable per-link utilization buffer (permille) for snapshots.
    util_scratch: Vec<u32>,
    /// Reusable per-rank snapshot buffers — refilled in one pass over
    /// the rank table so a 10µs monitor cadence stays within the
    /// barometer's 5% overhead gate.
    snap_scratch: SnapScratch,
}

/// Per-rank columns of one monitor snapshot (see [`World::on_snapshot`]).
#[derive(Default)]
struct SnapScratch {
    progress_ns: Vec<u64>,
    finished_at_ns: Vec<Option<u64>>,
    posted: Vec<u32>,
    unexp: Vec<u32>,
}

impl World {
    /// Build a world over an explicit placement.
    pub fn custom(spec: MachineSpec, placement: Placement, noise: ClusterNoise) -> World {
        assert_eq!(
            noise.len(),
            placement.len() as usize,
            "noise model must cover every rank"
        );
        let (fabric, links) = Fabric::build(&spec);
        let nranks = placement.len() as usize;
        World {
            spec,
            placement,
            fabric,
            net: Network::new(links),
            noise,
            queue: EventQueue::new(),
            ranks: (0..nranks).map(|_| RankState::default()).collect(),
            parked: ParkedBands::new(nranks),
            msgs: FxHashMap::default(),
            next_msg: 0,
            flow_kinds: Vec::new(),
            programs: Vec::new(),
            finished: 0,
            stats: WorldStats::default(),
            byte_audit: ByteAudit::default(),
            max_events: 2_000_000_000,
            async_progress: false,
            faults: None,
            run_error: None,
            watchdog: None,
            obs: AnyRecorder::Null(NullRecorder),
            obs_on: false,
            links_scratch: Vec::new(),
            monitor: None,
            util_scratch: Vec::new(),
            snap_scratch: SnapScratch::default(),
        }
    }

    /// Attach a fault plan: lossy links, down/degradation windows, rank
    /// stalls — with the ack/retransmit reliability layer that recovers
    /// from them. An [inert](FaultPlan::is_inert) plan attaches nothing,
    /// so `--faults` with zero rates is bit-identical to no flag at all.
    pub fn with_faults(mut self, plan: FaultPlan) -> World {
        if !plan.is_inert() {
            let nranks = self.nranks();
            self.faults = Some(Box::new(FaultState::new(plan, nranks)));
        }
        self
    }

    /// Rescale the pristine capacity/latency of every link whose debug
    /// label (e.g. `NicTx(3)`) matches `pred` — a what-if intervention
    /// ("what if the NICs were 2× faster?") applied to a real re-run so
    /// the counterfactual prediction can be validated against ground
    /// truth. Returns the number of links rescaled.
    pub fn prescale_links(
        &mut self,
        cap_factor: f64,
        lat_factor: f64,
        pred: impl Fn(&str) -> bool,
    ) -> usize {
        let matching: Vec<u32> = self
            .net
            .links()
            .iter()
            .enumerate()
            .filter(|(_, l)| pred(&format!("{:?}", l.class)))
            .map(|(i, _)| i as u32)
            .collect();
        for &l in &matching {
            self.net.prescale_link(l, cap_factor, lat_factor);
        }
        matching.len()
    }

    /// Abort (with a per-rank [`StallDiagnosis`]) instead of hanging when
    /// no event fires for `horizon` of simulated time while ranks are
    /// still unfinished.
    pub fn with_watchdog(mut self, horizon: Duration) -> World {
        self.watchdog = Some(horizon);
        self
    }

    /// Attach an observability recorder (see [`adapt_obs`]): structured
    /// spans, message lifetimes, sampled gauges. Recording must never
    /// move a single event — all probes piggyback on values the
    /// simulation computes anyway (noise window generation is
    /// deterministic and idempotent, so obs-only `finish_work` queries
    /// return what a later call would have returned regardless).
    pub fn with_recorder(mut self, rec: impl Into<AnyRecorder>) -> World {
        let rec = rec.into();
        self.obs_on = rec.enabled();
        self.obs = rec;
        self
    }

    /// Attach an online health monitor (see [`adapt_obs::Monitor`]): a
    /// snapshot timer event rides the deterministic queue every
    /// `monitor.interval_ns()` of simulated time, the detectors run over
    /// consecutive snapshots, and the report lands in
    /// [`RunResult::health`]. Keep a [`adapt_obs::HealthView`] (from
    /// [`Monitor::view`]) to query alerts live, mid-run. Snapshots read
    /// state the simulation maintains anyway and never perturb an event,
    /// so the monitored run's makespan and audit are byte-identical to
    /// the unmonitored run.
    pub fn with_monitor(mut self, monitor: Monitor) -> World {
        self.monitor = Some(Box::new(monitor));
        self
    }

    /// Enable asynchronous progress (a per-rank progress thread): protocol
    /// actions and completion callbacks run concurrently with application
    /// `compute`, which is how the paper's §7 envisions non-blocking
    /// collectives overlapping computation. Noise still preempts both.
    pub fn enable_async_progress(mut self) -> World {
        self.async_progress = true;
        self
    }

    /// CPU job: `nranks` ranks block-placed one per core.
    pub fn cpu(spec: MachineSpec, nranks: u32, noise: ClusterNoise) -> World {
        let placement = Placement::block_cpu(spec.shape, nranks);
        World::custom(spec, placement, noise)
    }

    /// GPU job: `nranks` ranks block-placed one per GPU.
    pub fn gpu(spec: MachineSpec, nranks: u32, noise: ClusterNoise) -> World {
        let placement = Placement::block_gpu(spec.shape, nranks);
        World::custom(spec, placement, noise)
    }

    /// Number of ranks.
    pub fn nranks(&self) -> u32 {
        self.placement.len()
    }

    /// The machine description.
    pub fn spec(&self) -> &MachineSpec {
        &self.spec
    }

    /// The placement.
    pub fn placement(&self) -> &Placement {
        &self.placement
    }

    /// Run the given per-rank programs to completion (every rank must
    /// eventually call `finish`). Panics on any [`RunError`] — a deadlock
    /// or unsurvivable fault schedule indicates a broken algorithm or
    /// test setup, which tests want loudly. Fault-tolerant callers (the
    /// CLI, the collectives runner, chaos suites) use [`World::try_run`]
    /// to get the diagnosis as a value instead.
    pub fn run(self, programs: Vec<Box<dyn RankProgram>>) -> RunResult {
        match self.try_run(programs) {
            Ok(r) => r,
            Err(d) => panic!("{d}"),
        }
    }

    /// Like [`World::run`], but a run that cannot complete — deadlock,
    /// watchdog expiry, retry-budget exhaustion between live ranks, rank
    /// failures the survivors could not absorb, or a blown event cap —
    /// returns a typed [`RunError`] instead of panicking. No fault plan
    /// can panic this path.
    pub fn try_run(
        mut self,
        programs: Vec<Box<dyn RankProgram>>,
    ) -> Result<RunResult, Box<RunError>> {
        assert_eq!(
            programs.len(),
            self.nranks() as usize,
            "one program per rank"
        );
        self.programs = programs.into_iter().map(Some).collect();
        for r in 0..self.nranks() {
            self.queue.schedule_untracked(
                Time::ZERO,
                Ev::Rank {
                    rank: r,
                    item: RankItem::Start,
                },
            );
        }

        if let Some(fs) = &self.faults {
            // Degradation windows become boundary events: scale every
            // link's capacity/latency at the window start, restore the
            // pristine baseline at the end.
            let nlinks = self.net.links().len() as u32;
            for d in &fs.plan.degrade {
                for link in 0..nlinks {
                    self.queue.schedule_untracked(
                        d.window.0,
                        Ev::FaultCmd {
                            link,
                            cap: d.cap_factor,
                            lat: d.lat_factor,
                        },
                    );
                    self.queue.schedule_untracked(
                        d.window.1,
                        Ev::FaultCmd {
                            link,
                            cap: 1.0,
                            lat: 1.0,
                        },
                    );
                }
            }
            // Targeted degradation (`degradelink=LABEL:FACTOR:WIN`)
            // resolves its label against the links' debug names; labels
            // matching nothing are silently inert, so one plan is
            // reusable across fabrics of different shapes.
            for (label, d) in &fs.plan.degrade_links {
                let matching: Vec<u32> = self
                    .net
                    .links()
                    .iter()
                    .enumerate()
                    .filter(|(_, l)| format!("{:?}", l.class) == *label)
                    .map(|(i, _)| i as u32)
                    .collect();
                for link in matching {
                    self.queue.schedule_untracked(
                        d.window.0,
                        Ev::FaultCmd {
                            link,
                            cap: d.cap_factor,
                            lat: d.lat_factor,
                        },
                    );
                    self.queue.schedule_untracked(
                        d.window.1,
                        Ev::FaultCmd {
                            link,
                            cap: 1.0,
                            lat: 1.0,
                        },
                    );
                }
            }
        }

        // Kills become events; node kills expand against the placement.
        // Out-of-range ranks and nodes are ignored (a plan is written
        // independently of any particular job size).
        let kills: Vec<(Time, Rank)> = match &self.faults {
            Some(fs) if fs.kills_enabled => {
                let mut kills: Vec<(Time, Rank)> = fs
                    .plan
                    .kills
                    .iter()
                    .filter(|&&(r, _)| r < self.placement.len())
                    .map(|&(r, at)| (at, r))
                    .collect();
                for &(node, at) in &fs.plan.node_kills {
                    for r in 0..self.placement.len() {
                        if self.placement.location(r).node == node {
                            kills.push((at, r));
                        }
                    }
                }
                kills.sort_unstable();
                kills
            }
            _ => Vec::new(),
        };
        for (at, rank) in kills {
            self.queue.schedule_untracked(at, Ev::Kill { rank });
        }

        if self.obs_on {
            let labels = self
                .net
                .links()
                .iter()
                .map(|l| format!("{:?}", l.class))
                .collect();
            self.obs.meta(self.nranks(), labels);
            // Pristine link parameters, so a recording is enough to
            // rebuild the network for counterfactual replay.
            let caps = self.net.links().iter().map(|l| l.capacity).collect();
            let lats = self
                .net
                .links()
                .iter()
                .map(|l| l.latency.as_nanos())
                .collect();
            self.obs.link_params(caps, lats);
        }
        if let Some(mut mon) = self.monitor.take() {
            let nranks = self.nranks();
            let labels: Vec<String> = self
                .net
                .links()
                .iter()
                .map(|l| format!("{:?}", l.class))
                .collect();
            self.util_scratch = vec![0; labels.len()];
            mon.meta(nranks, &labels);
            let iv = mon.interval_ns();
            // First snapshot one interval in: at t=0 nothing has run, so
            // a snapshot there would only dilute every detector's window.
            self.queue.schedule_untracked(Time(iv), Ev::Snapshot);
            self.monitor = Some(mon);
        }
        let sample_iv = if self.obs_on {
            self.obs.metrics_interval().unwrap_or(0)
        } else {
            0
        };
        let mut next_sample = 0u64;
        let mut prev_t = Time::ZERO;

        while let Some((t, ev)) = self.queue.pop() {
            if sample_iv > 0 {
                // Gauges sample the state *between* events, on interval
                // boundaries up to the event about to be processed.
                while next_sample <= t.as_nanos() {
                    self.sample_gauges(next_sample);
                    next_sample += sample_iv;
                }
            }
            if let Some(h) = self.watchdog {
                if self.finished < self.nranks() && t.saturating_since(prev_t) > h {
                    let mut diag = self.stall_diagnosis(prev_t, t, true);
                    diag.flight = self.obs.flight_dump();
                    return Err(self.classify(diag));
                }
            }
            // Snapshot timers observe the world but are not progress:
            // if they advanced the watchdog's horizon, any monitored
            // stall shorter-period than the snapshot interval could
            // never be diagnosed.
            if !matches!(ev, Ev::Snapshot) {
                prev_t = t;
            }
            self.stats.events += 1;
            if self.stats.events > self.max_events {
                let mut e = RunError::EventCap {
                    events: self.stats.events,
                    at: t,
                    flight: None,
                };
                e.set_flight(self.obs.flight_dump());
                return Err(Box::new(e));
            }
            match ev {
                Ev::Net(flow) => self.on_net_event(t, flow),
                Ev::Rank { rank, item } => self.rank_step(t, rank, item),
                Ev::Wake { rank } => self.on_wake(t, rank),
                Ev::Launch { kind, path, bytes } => self.launch_flow(t, kind, path, bytes),
                Ev::Timer { key } => self.on_timer(t, key),
                Ev::FaultCmd { link, cap, lat } => {
                    let mut sched = QueueSched(&mut self.queue);
                    self.net.scale_link(t, link, cap, lat, &mut sched);
                }
                Ev::Kill { rank } => self.on_kill(t, rank),
                Ev::Detect { rank } => self.on_detect(t, rank),
                Ev::Snapshot => self.on_snapshot(t),
            }
            if let Some(mut e) = self.run_error.take() {
                e.set_flight(self.obs.flight_dump());
                return Err(Box::new(e));
            }
            if self.finished == self.nranks() && self.faults.is_none() {
                // With faults active the queue drains fully instead:
                // in-flight retransmissions, acks, and timers must
                // resolve so the audit sees a settled network.
                break;
            }
        }

        if self.finished != self.nranks() {
            let mut diag = self.stall_diagnosis(prev_t, prev_t, false);
            diag.flight = self.obs.flight_dump();
            return Err(self.classify(diag));
        }

        let per_rank_finish: Vec<Time> = self
            .ranks
            .iter()
            .map(|r| r.finished_at.expect("finished rank has a time"))
            .collect();
        let per_rank_busy: Vec<Duration> = self.ranks.iter().map(|r| r.busy_accum).collect();
        let makespan = per_rank_finish
            .iter()
            .copied()
            .max()
            .unwrap_or(Time::ZERO)
            .saturating_since(Time::ZERO);
        self.stats.delivered_bytes = self.net.delivered_bytes();
        let net_perf = self.net.perf_counters();
        self.stats.net_refreshes = net_perf.refreshes;
        self.stats.net_reschedules = net_perf.reschedules;
        self.stats.net_share_recomputes = net_perf.share_recomputes;
        let audit = self.build_audit();
        let obs = if self.obs_on {
            let finish_ns: Vec<u64> = per_rank_finish.iter().map(|t| t.as_nanos()).collect();
            // Snapshot per-rank preemption windows for the what-if engine.
            // The noise stream is deterministic and idempotent, so
            // generating past the makespan here cannot perturb anything;
            // the slack lets a slowed-down counterfactual replay keep
            // stretching work beyond the recorded end.
            let horizon = Time(
                makespan
                    .as_nanos()
                    .saturating_mul(2)
                    .saturating_add(200_000_000),
            );
            for r in 0..self.nranks() {
                let noise_w: Vec<(u64, u64)> = self
                    .noise
                    .export_windows(r, horizon)
                    .into_iter()
                    .map(|(s, e)| (s.as_nanos(), e.as_nanos()))
                    .collect();
                let stall_w: Vec<(u64, u64)> = self
                    .faults
                    .as_ref()
                    .and_then(|f| f.stalls[r as usize].as_ref())
                    .map(|s| {
                        s.windows()
                            .iter()
                            .map(|&(s, e)| (s.as_nanos(), e.as_nanos()))
                            .collect()
                    })
                    .unwrap_or_default();
                self.obs.rank_windows(r, noise_w, stall_w);
            }
            self.obs.finish(&finish_ns)
        } else {
            None
        };
        let summary = if self.obs_on {
            self.obs.finish_summary()
        } else {
            None
        };
        // A dirty audit is the completed-run analogue of a stall: dump
        // the flight tail (when one is kept) so the violation comes with
        // its most recent spans.
        let flight = if self.obs_on && !audit.is_clean() {
            self.obs.flight_dump()
        } else {
            None
        };
        Ok(RunResult {
            makespan,
            per_rank_finish,
            per_rank_busy,
            audit,
            obs,
            summary,
            flight,
            health: self.monitor.take().map(|m| m.into_report()),
            stats: self.stats,
            programs: self
                .programs
                .into_iter()
                .map(|p| p.expect("program"))
                .collect(),
        })
    }

    /// Assemble the per-rank blocked-on report for a stalled run.
    /// Build the per-rank deadlock report. `since` is the last time any
    /// event fired (the silent gap the watchdog measured runs from
    /// `since` to `at`); a rank counts as stalled if its fault schedule
    /// covers any part of that gap.
    fn stall_diagnosis(&self, since: Time, at: Time, watchdog_fired: bool) -> StallDiagnosis {
        let stuck: Vec<u32> = (0..self.nranks())
            .filter(|&r| self.ranks[r as usize].finished_at.is_none())
            .collect();
        let mut sample: Vec<String> = self
            .msgs
            .iter()
            .take(8)
            .map(|(id, m)| {
                format!(
                    "msg{id}: {}->{} tag={} bytes={} recv_token={:?}",
                    m.src,
                    m.dst,
                    m.tag,
                    m.payload.len(),
                    m.recv_token
                )
            })
            .collect();
        sample.sort();
        let mut detail = format!(
            "deadlock: {} of {} ranks never finished (e.g. ranks {:?}) — {} at t={}ns; \
             posted={}, unexpected_eager={}, unexpected_rts={}, in-flight msgs={}, \
             net flows={}, flow_kinds={}, pending retransmit lanes={}",
            stuck.len(),
            self.nranks(),
            &stuck[..stuck.len().min(8)],
            if watchdog_fired {
                "progress watchdog fired"
            } else {
                "event queue ran dry"
            },
            at.as_nanos(),
            self.ranks.iter().map(|r| r.posted.len()).sum::<usize>(),
            self.ranks
                .iter()
                .map(|r| r.unexp_eager.len())
                .sum::<usize>(),
            self.ranks.iter().map(|r| r.unexp_rts.len()).sum::<usize>(),
            self.msgs.len(),
            self.net.active_flows(),
            self.flow_kinds.iter().flatten().count(),
            self.faults.as_ref().map_or(0, |f| f.xfers.len()),
        );
        for &r in stuck.iter().take(8) {
            let st = &self.ranks[r as usize];
            let stall = self
                .faults
                .as_ref()
                .and_then(|f| f.stalls[r as usize].as_ref());
            let next_wake = match self.parked.next_wake(r as usize) {
                Some(w) => format!("{}ns", w.as_nanos()),
                None => "-".into(),
            };
            detail.push_str(&format!(
                "\n  rank {r}: busy_until={:?} parked={} next_wake={next_wake} posted={:?} \
                 unexp_rts_tags={:?} stalled={}",
                st.busy_until,
                self.parked.parked(r as usize),
                st.posted.entries(),
                st.unexp_rts
                    .ids()
                    .iter()
                    .map(|m| (self.msgs[m].src, self.msgs[m].tag))
                    .collect::<Vec<_>>(),
                stall.is_some_and(|s| {
                    s.active_at(since) || s.next_start_at_or_after(since).is_some_and(|w| w <= at)
                }),
            ));
        }
        if !sample.is_empty() {
            detail.push_str("\n  sample msgs:\n    ");
            detail.push_str(&sample.join("\n    "));
        }
        StallDiagnosis {
            at,
            stuck,
            watchdog_fired,
            detail,
            flight: None,
        }
    }

    /// Turn a stall into the right [`RunError`]: once any rank has been
    /// killed, a run that cannot finish is a rank-failure outcome, not a
    /// plain deadlock — the diagnosis names the agreed failed set and the
    /// survivors still stuck on it.
    fn classify(&self, mut diag: StallDiagnosis) -> Box<RunError> {
        let err = match self.faults.as_deref() {
            Some(fs) if fs.any_dead => {
                let mut failed = fs.failed_order.clone();
                for r in 0..self.nranks() {
                    if fs.dead_at[r as usize].is_some() && !failed.contains(&r) {
                        failed.push(r);
                    }
                }
                let detected_at: Vec<(Rank, Time)> = fs
                    .failed_order
                    .iter()
                    .map(|&r| {
                        (
                            r,
                            fs.detected_at[r as usize].expect("detected rank has a time"),
                        )
                    })
                    .collect();
                let stuck = std::mem::take(&mut diag.stuck);
                let detail = format!(
                    "rank failure: {:?} killed ({} of them detected by t={}ns) and {} \
                     survivor(s) could not complete around them\n{}",
                    failed,
                    detected_at.len(),
                    diag.at.as_nanos(),
                    stuck.len(),
                    diag.detail
                );
                RunError::RanksFailed(FailureDiagnosis {
                    at: diag.at,
                    failed,
                    detected_at,
                    stuck,
                    detail,
                    flight: diag.flight.take(),
                })
            }
            _ => RunError::Stalled(diag),
        };
        Box::new(err)
    }

    // ------------------------------------------------------------------
    // Fault injection and the reliability layer
    // ------------------------------------------------------------------

    /// A `kill=` / `killnode=` instant arrived: stop the rank's progress
    /// engine permanently. Everything already addressed to it is dropped
    /// by the stray-event path; flows launched to or from it after this
    /// instant are doomed at launch. The heartbeat failure detector is
    /// armed to converge survivors on the death one detection delay
    /// later.
    fn on_kill(&mut self, t: Time, rank: Rank) {
        let fs = self.faults.as_mut().expect("kills imply a fault plan");
        if fs.dead_at[rank as usize].is_some() {
            return; // doubly killed (rank kill + node kill)
        }
        fs.dead_at[rank as usize] = Some(t);
        fs.any_dead = true;
        let detect_at = t + fs.detect_delay();
        self.stats.ranks_killed += 1;
        self.queue
            .schedule_untracked(detect_at, Ev::Detect { rank });
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
    /// dead source, and notify every unfinished survivor program.
    fn on_detect(&mut self, t: Time, rank: Rank) {
        let nranks = self.nranks();
        let fs = self.faults.as_mut().expect("detect implies a fault plan");
        if fs.detected_at[rank as usize].is_some() {
            return;
        }
        fs.detected_at[rank as usize] = Some(t);
        fs.failed_order.push(rank);
        self.stats.failures_detected += 1;
        // Pending rendezvous sends whose payload can never launch (the
        // receiver died before answering CTS) complete now: the sender's
        // buffer is reusable, exactly like ULFM completing the request
        // with an error class instead of leaving it forever pending.
        let mut to_complete: Vec<(MsgId, Rank, Token)> = Vec::new();
        for (&m, msg) in &self.msgs {
            if msg.dst == rank
                && msg.payload.len() > self.spec.eager_limit
                && fs.dead_at[msg.src as usize].is_none()
                && !fs.data_injected.contains(&m)
                && fs.send_failed.insert(m)
            {
                to_complete.push((m, msg.src, msg.send_token));
            }
        }
        // Hash-map iteration order is capacity-history dependent; sorting
        // by message id keeps the event schedule deterministic.
        to_complete.sort_unstable_by_key(|&(m, _, _)| m);
        for (m, src, token) in to_complete {
            self.queue.schedule_untracked(
                t,
                Ev::Rank {
                    rank: src,
                    item: RankItem::Deliver {
                        c: Completion::SendDone { token },
                        msg: m,
                    },
                },
            );
        }
        // Cancel survivors' posted receives naming the dead source so
        // they can re-post around it; the matches they were waiting for
        // will never arrive. (Cancelled receives look like the M > N
        // rule's legitimate over-posting to the audit.)
        for r in 0..nranks {
            if r != rank && self.ranks[r as usize].finished_at.is_none() {
                self.ranks[r as usize].posted.remove_src(rank);
            }
        }
        // Revoke notifications run *synchronously*, all against the same
        // snapshot of who is dead and who is still running. Handlers on
        // both sides of a repaired edge (a new parent and an adopted
        // child, say) therefore decide from identical information — a
        // rank that finishes inside this batch was already excluded from
        // `active`, so no survivor commits traffic to a rank that will
        // never consume it.
        let dead: Vec<Rank> = self
            .faults
            .as_ref()
            .expect("detect implies a fault plan")
            .failed_order
            .clone();
        let active: Vec<Rank> = (0..nranks)
            .filter(|&r| self.ranks[r as usize].finished_at.is_none())
            .collect();
        for &r in &active {
            self.run_failure_handler(r, t, &dead, &active);
        }
    }

    /// Deliver the revoke notification to one survivor's program: calls
    /// [`RankProgram::on_peer_failed`] with the agreed failed set and the
    /// snapshot of still-active survivors, then applies whatever recovery
    /// operations it posts.
    fn run_failure_handler(&mut self, rank: Rank, t: Time, dead: &[Rank], active: &[Rank]) {
        let mut prog = self.programs[rank as usize]
            .take()
            .expect("program present");
        let ops = {
            let mut sink = OpSink {
                rank,
                nranks: self.nranks(),
                now: t,
                placement: &self.placement,
                spec: &self.spec,
                ops: Vec::new(),
            };
            prog.on_peer_failed(&mut sink, dead, active);
            sink.ops
        };
        self.programs[rank as usize] = Some(prog);
        self.apply_ops(rank, t, PROGRESS_OVERHEAD, ops, None);
    }

    /// Start the flow an `Ev::Launch` describes. With a fault plan
    /// attached this is also where losses are injected (the launch draws
    /// its fate from the fault RNG) and where reliable lanes arm their
    /// retransmit timer.
    fn launch_flow(&mut self, t: Time, kind: FlowKind, path: Path, bytes: u64) {
        if self.obs_on {
            self.links_scratch.clear();
            self.links_scratch
                .extend(path.as_slice().iter().map(|l| l.0));
        }
        let mut doomed = false;
        if let Some(fs) = self.faults.as_mut() {
            // Local copies never traverse faulty links; empty paths are
            // purely local too.
            let lossable = !matches!(kind, FlowKind::Copy { .. }) && !path.is_empty();
            if lossable {
                if fs.plan.loss > 0.0 {
                    // Per-hop independent loss: the flow survives only if
                    // every link on the path keeps it.
                    let p = 1.0 - (1.0 - fs.plan.loss).powi(path.len() as i32);
                    doomed = fs.rng.random::<f64>() < p;
                }
                doomed |= fs.plan.down.active_at(t);
            }
            if fs.kills_enabled {
                // Payload launches are tracked so the audit can tell
                // "launched then dropped at the dead host" apart from
                // "never launched at all" (a rendezvous whose CTS the
                // dead receiver never sent).
                if let FlowKind::EagerData(m) | FlowKind::RndvData(m) = kind {
                    fs.data_injected.insert(m);
                }
                // A killed host neither sources nor sinks traffic: any
                // protocol flow touching it is doomed — it still spends
                // bandwidth (the packets left the live side) and then
                // drains as dropped. The live sender still observes the
                // drain, so its buffer is released as usual.
                if fs.any_dead {
                    doomed |= match kind {
                        FlowKind::Rts(m)
                        | FlowKind::Cts(m)
                        | FlowKind::EagerData(m)
                        | FlowKind::RndvData(m) => self
                            .msgs
                            .get(&m)
                            .is_some_and(|msg| fs.endpoint_dead(msg.src, msg.dst)),
                        FlowKind::Ack { from, .. } => fs.dead_at[from as usize].is_some(),
                        FlowKind::Copy { .. } => false,
                    };
                }
            }
        }
        if doomed {
            self.stats.drops_injected += 1;
        }
        let mut sched = QueueSched(&mut self.queue);
        let flow = self.net.start_flow_doomed(
            t,
            FlowSpec {
                path,
                bytes,
                tag: 0,
            },
            doomed,
            &mut sched,
        );
        let slot = flow.0 as usize;
        if slot >= self.flow_kinds.len() {
            self.flow_kinds.resize_with(slot + 1, || None);
        }
        self.flow_kinds[slot] = Some(kind);
        if self.obs_on {
            let (class, msg, frank, token) = match kind {
                FlowKind::Rts(m) => (FlowClass::Rts, Some(m), self.flow_sender(kind), 0),
                FlowKind::Cts(m) => (FlowClass::Cts, Some(m), self.flow_sender(kind), 0),
                FlowKind::EagerData(m) => (FlowClass::Eager, Some(m), self.flow_sender(kind), 0),
                FlowKind::RndvData(m) => (FlowClass::Rndv, Some(m), self.flow_sender(kind), 0),
                FlowKind::Copy { rank, token, .. } => (FlowClass::Copy, None, rank, token.0),
                FlowKind::Ack { key, from } => (FlowClass::Ack, Some(key >> 2), from, 0),
            };
            match kind {
                FlowKind::Cts(m) => self.obs.msg_event(m, MsgEvent::CtsLaunch, t.as_nanos()),
                FlowKind::RndvData(m) => self.obs.msg_event(m, MsgEvent::DataLaunch, t.as_nanos()),
                _ => {}
            }
            self.obs.flow_start(
                flow.0 as u32,
                FlowStart {
                    class,
                    msg,
                    rank: frank,
                    token,
                    bytes,
                    t_ns: t.as_nanos(),
                },
                &self.links_scratch,
            );
        }
        // Retransmit lanes exist only when the plan injects transport
        // faults (loss, link-down, degradation or stalls). A kill-only
        // plan leaves the reliability machinery off entirely: no timers,
        // no acks, and therefore no overhead relative to a pristine run.
        if self.faults.as_deref().is_some_and(|f| f.rel_active) {
            if let Some(key) = xfer_key(kind) {
                self.arm_timer(t, key, kind, path, bytes);
            }
        }
    }

    /// Arm (or re-arm) the retransmit timer for lane `key`. The deadline
    /// is two current-contention transfer estimates (out and ack back)
    /// plus the exponentially backed-off RTO with jitter.
    fn arm_timer(&mut self, t: Time, key: XferKey, kind: FlowKind, path: Path, bytes: u64) {
        let owner = self.flow_sender(kind);
        let fs = self.faults.as_mut().expect("faults active");
        let attempt = fs.xfers.get(&key).map_or(0, |x| x.attempt);
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
        let fs = self.faults.as_mut().expect("faults active");
        let x = fs.xfers.entry(key).or_insert(Xfer {
            kind,
            path,
            bytes,
            owner,
            attempt: 0,
            timer,
        });
        x.timer = timer;
    }

    /// The rank a protocol flow is attributed to in traces: the sender
    /// of the transfer (the destination for a CTS, the source for
    /// everything else). Falls back to the reliability lane's recorded
    /// owner when the message has already completed — a retransmit whose
    /// ack was lost can fire after the receive retired the message.
    fn flow_sender(&self, kind: FlowKind) -> Rank {
        let (m, is_cts) = match kind {
            FlowKind::Cts(m) => (m, true),
            FlowKind::Rts(m) | FlowKind::EagerData(m) | FlowKind::RndvData(m) => (m, false),
            FlowKind::Copy { .. } | FlowKind::Ack { .. } => {
                unreachable!("copies and acks are not reliability lanes")
            }
        };
        if let Some(msg) = self.msgs.get(&m) {
            return if is_cts { msg.dst } else { msg.src };
        }
        let key = xfer_key(kind).expect("protocol lanes always have a key");
        self.faults
            .as_ref()
            .and_then(|f| f.xfers.get(&key))
            .map(|x| x.owner)
            .expect("a lane for a retired message is still tracked until acked")
    }

    /// A retransmit timer fired: if the lane is still un-acked, relaunch
    /// it (which re-arms the timer with a doubled backoff).
    ///
    /// A lane whose message touches a killed rank is *retired* instead —
    /// retransmitting into a dead host forever would be a storm, and
    /// giving up on it is not an error: the failure detector owns that
    /// outcome. A live↔live lane that exhausts its retry budget raises a
    /// structured [`RunError::RetryBudgetExhausted`]; it never panics.
    fn on_timer(&mut self, t: Time, key: XferKey) {
        let Some(fs) = self.faults.as_mut() else {
            return;
        };
        let Some(x) = fs.xfers.get_mut(&key) else {
            return; // acked while the timer was in flight
        };
        x.attempt += 1;
        let owner = x.owner;
        let attempt = x.attempt;
        let (kind, path, bytes) = (x.kind, x.path, x.bytes);
        let m = key >> 2;
        if fs.any_dead {
            let dead = self
                .msgs
                .get(&m)
                .map(|msg| fs.endpoint_dead(msg.src, msg.dst))
                .unwrap_or_else(|| fs.dead_at[owner as usize].is_some());
            if dead {
                fs.xfers.remove(&key);
                return;
            }
        }
        if attempt > fs.plan.rel.max_retries {
            let max_retries = fs.plan.rel.max_retries;
            let lane = (key & 3) as u32;
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
            fs.xfers.remove(&key);
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
        fs.retrans_bytes += bytes;
        self.stats.retransmits += 1;
        if self.obs_on {
            self.obs
                .msg_event(key >> 2, MsgEvent::Retransmit, t.as_nanos());
        }
        self.launch_flow(t, kind, path, bytes);
    }

    /// Reliability handling for a delivered flow. Returns `true` when the
    /// delivery was fully consumed here (an ack, or a duplicate of an
    /// already-processed lane) and must not reach the protocol layer.
    fn reliable_delivery(&mut self, t: Time, kind: FlowKind) -> bool {
        if let FlowKind::Ack { key, .. } = kind {
            let fs = self.faults.as_mut().expect("faults active");
            if let Some(x) = fs.xfers.remove(&key) {
                self.queue.cancel(x.timer);
                self.stats.acks += 1;
                if self.obs_on {
                    self.obs.msg_event(key >> 2, MsgEvent::Acked, t.as_nanos());
                }
            }
            return true;
        }
        let Some(key) = xfer_key(kind) else {
            return false; // local copy: not a reliable lane
        };
        let fs = self.faults.as_mut().expect("faults active");
        if let Some(&(from, back)) = fs.seen.get(&key) {
            // Retransmitted duplicate: the lane was already processed
            // (its message may be long gone) — just ack again.
            self.stats.duplicates_suppressed += 1;
            self.queue.schedule_untracked(
                t,
                Ev::Launch {
                    kind: FlowKind::Ack { key, from },
                    path: back,
                    bytes: 0,
                },
            );
            return true;
        }
        // First delivery of this lane: record it and send the ack over
        // the host-to-host reverse route (CTS travels receiver→sender, so
        // its ack flows sender→receiver).
        let m = key >> 2;
        let msg = &self.msgs[&m];
        let from = if key & 3 == LANE_CTS {
            msg.src
        } else {
            msg.dst
        };
        let to = if key & 3 == LANE_CTS {
            msg.dst
        } else {
            msg.src
        };
        let back = self
            .fabric
            .route(self.placement.host_mem(from), self.placement.host_mem(to));
        let fs = self.faults.as_mut().expect("faults active");
        fs.seen.insert(key, (from, back));
        self.queue.schedule_untracked(
            t,
            Ev::Launch {
                kind: FlowKind::Ack { key, from },
                path: back,
                bytes: 0,
            },
        );
        false
    }

    /// Assemble the end-of-run invariant report (see
    /// [`adapt_sim::audit`] for what each check means).
    fn build_audit(&self) -> AuditReport {
        // Triage end-of-run leftovers against the failed set: traffic
        // addressed to or from a killed rank is accounted through the
        // `failed_*` columns; everything between live ranks must still
        // balance exactly as in a fault-free run.
        let mut failed_ranks: Vec<Rank> = Vec::new();
        let mut failed_bytes = 0u64;
        let mut failed_unlaunched = 0u64;
        let unclaimed_live;
        let unexp_live;
        match self.faults.as_deref() {
            Some(fs) if fs.any_dead => {
                for r in 0..self.nranks() {
                    if fs.dead_at[r as usize].is_some() {
                        failed_ranks.push(r);
                    }
                }
                let mut unclaimed = 0u64;
                for (&m, msg) in &self.msgs {
                    if fs.endpoint_dead(msg.src, msg.dst) {
                        failed_bytes += msg.payload.len();
                        if !fs.data_injected.contains(&m) {
                            failed_unlaunched += msg.payload.len();
                        }
                    } else {
                        unclaimed += 1;
                    }
                }
                unclaimed_live = unclaimed;
                // Dead ranks keep whatever unexpected-queue state they had
                // at the kill instant; live ranks may legitimately hold
                // unmatched arrivals from (or addressed around) the dead.
                let mut unexp = 0u64;
                for (r, state) in self.ranks.iter().enumerate() {
                    if fs.dead_at[r].is_some() {
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
                            .is_none_or(|msg| !fs.endpoint_dead(msg.src, msg.dst));
                        if live {
                            unexp += 1;
                        }
                    }
                }
                unexp_live = unexp;
            }
            _ => {
                unclaimed_live = self.msgs.len() as u64;
                unexp_live = self
                    .ranks
                    .iter()
                    .map(|r| (r.unexp_eager.len() + r.unexp_rts.len()) as u64)
                    .sum();
            }
        }
        AuditReport {
            queue: self.queue.audit(),
            send_posted_bytes: self.byte_audit.send_posted,
            recv_completed_bytes: self.byte_audit.recv_completed,
            copy_posted_bytes: self.byte_audit.copy_posted,
            copy_completed_bytes: self.byte_audit.copy_completed,
            net_injected_bytes: self.net.injected_bytes(),
            net_delivered_bytes: self.net.delivered_bytes(),
            net_flows_in_flight: self.net.active_flows(),
            net_dropped_bytes: self.net.dropped_bytes(),
            retrans_injected_bytes: self.faults.as_ref().map_or(0, |f| f.retrans_bytes),
            stray_events: self.stats.stray_events,
            faults_active: self.faults.is_some(),
            per_rank: self.ranks.iter().map(|r| r.audit).collect(),
            unclaimed_messages: unclaimed_live,
            unexpected_leftovers: unexp_live,
            leftover_posted_recvs: self.ranks.iter().map(|r| r.posted.len() as u64).sum(),
            failed_ranks,
            failed_bytes,
            failed_unlaunched_bytes: failed_unlaunched,
            failed_copy_bytes: 0,
        }
    }

    /// Record one round of time-series gauges at `t_ns` (recorder
    /// attached and sampling enabled only).
    fn sample_gauges(&mut self, t_ns: u64) {
        let posted: usize = self.ranks.iter().map(|r| r.posted.len()).sum();
        let unexp: usize = self
            .ranks
            .iter()
            .map(|r| r.unexp_eager.len() + r.unexp_rts.len())
            .sum();
        self.obs
            .gauge(t_ns, GaugeMetric::PostedDepth, 0, posted as f64);
        self.obs
            .gauge(t_ns, GaugeMetric::UnexpectedDepth, 0, unexp as f64);
        self.obs.gauge(
            t_ns,
            GaugeMetric::LiveFlows,
            0,
            self.net.active_flows() as f64,
        );
        self.obs
            .gauge(t_ns, GaugeMetric::EventQueueLen, 0, self.queue.len() as f64);
        let obs = &mut self.obs;
        self.net.for_each_link_load(|link, count, util| {
            obs.gauge(t_ns, GaugeMetric::LinkFlows, link, count as f64);
            obs.gauge(t_ns, GaugeMetric::LinkUtil, link, util);
        });
    }

    /// Handle the health-monitor snapshot timer: assemble a
    /// [`SnapshotInput`] from state the simulation maintains anyway, run
    /// the detectors, forward fired alerts to the recorder, and re-arm
    /// the timer one interval out. Re-arming stops once every rank has
    /// finished or the queue has drained — a dead queue must stay dead
    /// so the deadlock diagnosis still fires, and a finished run needs
    /// no further snapshots.
    fn on_snapshot(&mut self, t: Time) {
        let Some(mut mon) = self.monitor.take() else {
            return;
        };
        let snap = &mut self.snap_scratch;
        snap.progress_ns.clear();
        snap.finished_at_ns.clear();
        snap.posted.clear();
        snap.unexp.clear();
        for r in &self.ranks {
            snap.progress_ns.push(r.busy_accum.as_nanos());
            snap.finished_at_ns
                .push(r.finished_at.map(|f| f.as_nanos()));
            snap.posted.push(r.posted.len() as u32);
            snap.unexp
                .push((r.unexp_eager.len() + r.unexp_rts.len()) as u32);
        }
        self.util_scratch.fill(0);
        let util = &mut self.util_scratch;
        self.net.for_each_link_load(|link, _count, u| {
            if let Some(slot) = util.get_mut(link as usize) {
                *slot = (u * 1000.0).round().clamp(0.0, 1000.0) as u32;
            }
        });
        let injected = self.net.injected_bytes();
        let delivered = self.net.delivered_bytes();
        let dropped = self.net.dropped_bytes();
        let input = SnapshotInput {
            t_ns: t.as_nanos(),
            progress_ns: &self.snap_scratch.progress_ns,
            finished_at_ns: &self.snap_scratch.finished_at_ns,
            posted: &self.snap_scratch.posted,
            unexp: &self.snap_scratch.unexp,
            link_util_pm: &self.util_scratch,
            in_flight_bytes: injected.saturating_sub(delivered).saturating_sub(dropped),
            active_flows: self.net.active_flows() as u64,
            delivered_bytes: delivered,
            retransmits: self.stats.retransmits,
            acks: self.stats.acks,
        };
        let alerts = mon.observe(&input);
        if self.obs_on {
            for &a in alerts {
                self.obs.alert(a);
            }
        }
        if self.finished < self.nranks() && !self.queue.is_empty() {
            self.queue
                .schedule_untracked(t + Duration(mon.interval_ns()), Ev::Snapshot);
        }
        self.monitor = Some(mon);
    }

    // ------------------------------------------------------------------
    // Network event dispatch
    // ------------------------------------------------------------------

    fn on_net_event(&mut self, t: Time, flow: FlowId) {
        let mut sched = QueueSched(&mut self.queue);
        let step = self.net.handle_event(t, flow, &mut sched);
        match step {
            NetStep::Progress => {}
            NetStep::Drained { flow, .. } => {
                if self.obs_on {
                    self.obs.flow_drained(flow.0 as u32, t.as_nanos());
                }
                match self.flow_kinds[flow.0 as usize].expect("drain of unknown flow") {
                    FlowKind::EagerData(m) | FlowKind::RndvData(m) => {
                        if let Some(fs) = self.faults.as_mut() {
                            // SendDone fires at the *first* drain only —
                            // the sender's buffer is reusable once the
                            // reliability layer holds the payload, and a
                            // retransmit drain may postdate the message's
                            // removal from the in-flight table. Without
                            // retransmits (kill-only plans) every payload
                            // drains exactly once, so nothing to dedupe.
                            if fs.rel_active && !fs.done_fired.insert(m) {
                                return;
                            }
                        }
                        if self.obs_on {
                            self.obs.msg_event(m, MsgEvent::Drained, t.as_nanos());
                        }
                        let msg = &self.msgs[&m];
                        let (src, token) = (msg.src, msg.send_token);
                        self.queue.schedule_untracked(
                            t,
                            Ev::Rank {
                                rank: src,
                                item: RankItem::Deliver {
                                    c: Completion::SendDone { token },
                                    msg: m,
                                },
                            },
                        );
                    }
                    FlowKind::Copy { .. } => {}
                    FlowKind::Rts(_) | FlowKind::Cts(_) | FlowKind::Ack { .. } => {
                        unreachable!("control flows are zero-byte and never drain")
                    }
                }
            }
            NetStep::Delivered(d) => {
                let kind = self.flow_kinds[d.flow.0 as usize]
                    .take()
                    .expect("delivery of unknown flow");
                if self.faults.as_deref().is_some_and(|f| f.rel_active)
                    && self.reliable_delivery(t, kind)
                {
                    // An ack, or a duplicate of an already-processed
                    // lane: consumed by the reliability layer.
                    if self.obs_on {
                        self.obs.flow_delivered(d.flow.0 as u32, t.as_nanos());
                    }
                    return;
                }
                if self.obs_on {
                    self.obs.flow_delivered(d.flow.0 as u32, t.as_nanos());
                    match kind {
                        FlowKind::Rts(m) => {
                            self.obs.msg_event(m, MsgEvent::RtsArrived, t.as_nanos())
                        }
                        FlowKind::Cts(m) => {
                            self.obs.msg_event(m, MsgEvent::CtsArrived, t.as_nanos())
                        }
                        FlowKind::EagerData(m) | FlowKind::RndvData(m) => {
                            self.obs.msg_event(m, MsgEvent::Delivered, t.as_nanos())
                        }
                        FlowKind::Copy { .. } | FlowKind::Ack { .. } => {}
                    }
                }
                let (rank, item) = match kind {
                    FlowKind::Rts(m) => (self.msgs[&m].dst, RankItem::RtsArrived(m)),
                    FlowKind::Cts(m) => (self.msgs[&m].src, RankItem::CtsArrived(m)),
                    FlowKind::EagerData(m) => (self.msgs[&m].dst, RankItem::EagerArrived(m)),
                    FlowKind::RndvData(m) => (self.msgs[&m].dst, RankItem::RndvDataArrived(m)),
                    FlowKind::Copy { rank, token, bytes } => {
                        self.byte_audit.copy_completed += bytes;
                        (
                            rank,
                            RankItem::Deliver {
                                c: Completion::CopyDone { token },
                                msg: NO_MSG,
                            },
                        )
                    }
                    FlowKind::Ack { .. } => {
                        unreachable!("acks are consumed by the reliability layer")
                    }
                };
                self.queue.schedule_untracked(t, Ev::Rank { rank, item });
            }
            NetStep::Dropped(d) => {
                // An injected fault ate the flow: bandwidth was spent but
                // nothing arrived. No rank event fires — recovery is the
                // sender's retransmit timer.
                let kind = self.flow_kinds[d.flow.0 as usize]
                    .take()
                    .expect("drop of unknown flow");
                if self.obs_on {
                    let m = match kind {
                        FlowKind::Ack { key, .. } => Some(key >> 2),
                        k => xfer_key(k).map(|key| key >> 2),
                    };
                    if let Some(m) = m {
                        self.obs.msg_event(m, MsgEvent::Dropped, t.as_nanos());
                    }
                }
            }
        }
    }

    // ------------------------------------------------------------------
    // Rank CPU steps (deferred by busy horizon and noise)
    // ------------------------------------------------------------------

    /// An item reached a rank that has already finished (or was killed).
    fn drop_after_finish(&mut self, rank: Rank, item: RankItem) {
        // A live rank that finished during failure recovery (its dead
        // peers were masked out of the completion target) may still
        // harvest SendDones for transfers addressed to the dead — a
        // doomed payload's drain, or the detector completing a
        // rendezvous that never got its CTS. The sender's buffer is
        // reusable and the op ledger must balance, so count the
        // completion; the program itself is done and is not re-entered.
        if let RankItem::Deliver {
            c: Completion::SendDone { .. },
            msg,
        } = &item
        {
            let to_dead = self.faults.as_deref().is_some_and(|f| {
                f.any_dead
                    && f.dead_at[rank as usize].is_none()
                    && self
                        .msgs
                        .get(msg)
                        .is_some_and(|mm| f.endpoint_dead(mm.src, mm.dst))
            });
            if to_dead {
                self.ranks[rank as usize].audit.sends_completed += 1;
                return;
            }
        }
        // Stray events after finish are dropped — but counted, so the
        // audit can flag a leaked completion in a fault-free run.
        self.stats.stray_events += 1;
    }

    fn rank_step(&mut self, t: Time, rank: Rank, item: RankItem) {
        if self.ranks[rank as usize].finished_at.is_some() {
            self.drop_after_finish(rank, item);
            return;
        }

        // Arrival matching happens at arrival time: "unexpected" means the
        // receive had not been *posted* when the data landed (§2.2.1), not
        // that the CPU was momentarily busy. The CPU-side consequences
        // (CTS, copies, callbacks) still honour the busy horizon and noise.
        match item {
            RankItem::EagerArrived(m) => {
                let (src, tag) = {
                    let msg = &self.msgs[&m];
                    (msg.src, msg.tag)
                };
                let state = &mut self.ranks[rank as usize];
                let (hit, probes) = state.posted.match_arrival(src, tag);
                self.stats.match_probes += probes;
                if let Some(posted) = hit {
                    if self.obs_on {
                        self.obs.msg_event(
                            m,
                            MsgEvent::Matched {
                                posted_ns: Some(posted.posted_at.as_nanos()),
                                unexpected: false,
                            },
                            t.as_nanos(),
                        );
                    }
                    self.complete_recv(t, rank, m, posted.token);
                } else {
                    state.unexp_eager.push(src, tag, m);
                    let e = self.cpu_ready(rank, t);
                    let done = self.bump_busy(rank, e, CTRL_OVERHEAD);
                    if self.obs_on {
                        self.obs.protocol(
                            rank,
                            e.as_nanos(),
                            done.as_nanos(),
                            ProtoKind::Unexpected,
                            m,
                        );
                    }
                }
                return;
            }
            RankItem::RtsArrived(m) => {
                let (src, tag) = {
                    let msg = &self.msgs[&m];
                    (msg.src, msg.tag)
                };
                let state = &mut self.ranks[rank as usize];
                let (hit, probes) = state.posted.match_arrival(src, tag);
                self.stats.match_probes += probes;
                if let Some(posted) = hit {
                    let e = self.cpu_ready(rank, t);
                    if self.obs_on {
                        self.obs.msg_event(
                            m,
                            MsgEvent::Matched {
                                posted_ns: Some(posted.posted_at.as_nanos()),
                                unexpected: false,
                            },
                            e.as_nanos(),
                        );
                    }
                    self.accept_rndv(e, rank, m, posted);
                } else {
                    state.unexp_rts.push(src, tag, m);
                    let e = self.cpu_ready(rank, t);
                    let done = self.bump_busy(rank, e, CTRL_OVERHEAD);
                    if self.obs_on {
                        self.obs.protocol(
                            rank,
                            e.as_nanos(),
                            done.as_nanos(),
                            ProtoKind::Unexpected,
                            m,
                        );
                    }
                }
                return;
            }
            RankItem::RndvDataArrived(m) => {
                let token = self.msgs[&m].recv_token.expect("rendezvous was matched");
                self.complete_recv(t, rank, m, token);
                return;
            }
            _ => {}
        }

        let ready = self.cpu_ready(rank, t);
        if ready > t {
            if self.parked.park(rank as usize, ready, item) {
                self.queue.schedule_untracked(ready, Ev::Wake { rank });
            }
            return;
        }
        self.rank_run(t, rank, item);
    }

    /// A band of `rank`'s parked items fell due: serve them in order for
    /// as long as the CPU stays ready, then re-park the rest as one block
    /// at the new ready instant (see [`ParkedBands`]).
    fn on_wake(&mut self, t: Time, rank: Rank) {
        let r = rank as usize;
        debug_assert_eq!(self.parked.next_wake(r), Some(t), "wake matches its band");
        while self.parked.next_wake(r) == Some(t) {
            if self.ranks[r].finished_at.is_some() {
                let item = self.parked.pop(r).expect("a due band is non-empty");
                self.drop_after_finish(rank, item);
                continue;
            }
            let ready = self.cpu_ready(rank, t);
            if ready > t {
                if self.parked.repark(r, ready) {
                    self.queue.schedule_untracked(ready, Ev::Wake { rank });
                }
                return;
            }
            let item = self.parked.pop(r).expect("a due band is non-empty");
            self.rank_run(t, rank, item);
        }
    }

    /// Run a CPU-bound item on a ready, unfinished rank.
    fn rank_run(&mut self, t: Time, rank: Rank, item: RankItem) {
        match item {
            RankItem::Start => self.run_handler(rank, t, None, NO_MSG),
            RankItem::Deliver { c, msg } => self.run_handler(rank, t, Some(c), msg),
            RankItem::CtsArrived(m) => {
                // A CTS still in flight while the failure detector
                // completed this send (the receiver died) must not launch
                // the data: the send already completed-in-error and the
                // payload is accounted as failed-unlaunched.
                if self
                    .faults
                    .as_deref()
                    .is_some_and(|f| f.send_failed.contains(&m))
                {
                    return;
                }
                // Sender side: launch the data flow.
                let (path, bytes) = {
                    let msg = &self.msgs[&m];
                    let src_core = self.core_of(msg.src);
                    let dst_core = self.core_of(msg.dst);
                    (
                        self.fabric.route_p2p(
                            msg.src_mem,
                            msg.dst_mem,
                            Some(src_core),
                            Some(dst_core),
                        ),
                        msg.payload.len(),
                    )
                };
                let at = self.bump_busy(rank, t, CTRL_OVERHEAD);
                if self.obs_on {
                    self.obs
                        .protocol(rank, t.as_nanos(), at.as_nanos(), ProtoKind::DataLaunch, m);
                }
                self.queue.schedule_untracked(
                    at,
                    Ev::Launch {
                        kind: FlowKind::RndvData(m),
                        path,
                        bytes,
                    },
                );
            }
            RankItem::EagerArrived(_) | RankItem::RtsArrived(_) | RankItem::RndvDataArrived(_) => {
                unreachable!("arrivals are handled at arrival time, never parked")
            }
        }
    }

    /// Global core index of a rank (for the per-core copy-engine lanes).
    fn core_of(&self, rank: Rank) -> u32 {
        let loc = self.placement.location(rank);
        self.fabric.global_core(loc.node, loc.socket, loc.core)
    }

    /// First instant at or after `t` at which `rank`'s CPU serving the
    /// progress engine is free and not preempted. With asynchronous
    /// progress the dedicated progress thread's horizon applies; otherwise
    /// the single application CPU must also be past its compute.
    fn cpu_ready(&mut self, rank: Rank, t: Time) -> Time {
        let state = &self.ranks[rank as usize];
        let busy = if self.async_progress {
            state.prog_busy_until
        } else {
            state.busy_until
        };
        self.rank_defer(rank, t.max(busy))
    }

    /// True when the fault plan stalls `rank` at some point.
    fn has_stall(&self, rank: Rank) -> bool {
        self.faults
            .as_ref()
            .is_some_and(|f| f.stalls[rank as usize].is_some())
    }

    /// Noise- and stall-aware deferral: the earliest instant at or after
    /// `t` outside both the rank's noise windows and its injected stall
    /// windows. Without a stall schedule this is exactly the noise model's
    /// `defer` — the fault-free path is bit-identical.
    fn rank_defer(&mut self, rank: Rank, t: Time) -> Time {
        if !self.has_stall(rank) {
            return self.noise.defer(rank, t);
        }
        // Fixed point of the two deferrals: each pass can only move
        // forward, and each stall window is crossed at most once.
        let mut cur = t;
        loop {
            let a = self.noise.defer(rank, cur);
            let fs = self.faults.as_ref().expect("stall implies faults");
            let b = fs.stalls[rank as usize]
                .as_ref()
                .expect("has_stall")
                .defer(a);
            if b == a {
                return a;
            }
            cur = b;
        }
    }

    /// Noise- and stall-aware work completion: like the noise model's
    /// `finish_work`, but injected stall windows also preempt the rank.
    fn finish_rank_work(&mut self, rank: Rank, t: Time, work: Duration) -> Time {
        if !self.has_stall(rank) {
            return self.noise.finish_work(rank, t, work);
        }
        let mut cur = t;
        let mut left = work;
        loop {
            cur = self.rank_defer(rank, cur);
            if left.is_zero() {
                return cur;
            }
            let done = self.noise.finish_work(rank, cur, left);
            let next_stall = {
                let fs = self.faults.as_ref().expect("stall implies faults");
                fs.stalls[rank as usize]
                    .as_ref()
                    .expect("has_stall")
                    .next_start_at_or_after(cur)
            };
            match next_stall {
                Some(s) if s < done => {
                    // The stall interrupts: bank the noise-free work done
                    // before it and resume (deferred) at the stall start.
                    let did = self.noise.work_in(rank, cur, s);
                    left = Duration::from_nanos(left.as_nanos().saturating_sub(did.as_nanos()));
                    cur = s;
                }
                _ => return done,
            }
        }
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
        let at = self.bump_busy(rank, t, CTRL_OVERHEAD);
        if self.obs_on {
            self.obs
                .protocol(rank, t.as_nanos(), at.as_nanos(), ProtoKind::CtsSend, m);
        }
        self.queue.schedule_untracked(
            at,
            Ev::Launch {
                kind: FlowKind::Cts(m),
                path: cts_path,
                bytes: 0,
            },
        );
    }

    /// Deliver a RecvDone completion for message `m` to `rank`.
    fn complete_recv(&mut self, t: Time, rank: Rank, m: MsgId, token: Token) {
        let msg = self.msgs.remove(&m).expect("msg");
        if self.obs_on {
            self.obs.msg_event(m, MsgEvent::RecvReady, t.as_nanos());
        }
        self.queue.schedule_untracked(
            t,
            Ev::Rank {
                rank,
                item: RankItem::Deliver {
                    c: Completion::RecvDone {
                        token,
                        src: msg.src,
                        tag: msg.tag,
                        data: msg.payload,
                    },
                    msg: m,
                },
            },
        );
    }

    /// Extend a rank's (progress) busy horizon by `work` starting at `t`;
    /// returns the completion instant.
    fn bump_busy(&mut self, rank: Rank, t: Time, work: Duration) -> Time {
        let done = self.finish_rank_work(rank, t, work);
        let state = &mut self.ranks[rank as usize];
        if self.async_progress {
            state.prog_busy_until = done;
        } else {
            state.busy_until = done;
        }
        state.busy_accum += work;
        done
    }

    // ------------------------------------------------------------------
    // Program handlers and op application
    // ------------------------------------------------------------------

    fn run_handler(
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
        match &completion {
            Some(Completion::SendDone { .. }) => {
                self.ranks[rank as usize].audit.sends_completed += 1;
            }
            Some(Completion::RecvDone { data, .. }) => {
                self.ranks[rank as usize].audit.recvs_completed += 1;
                self.byte_audit.recv_completed += data.len();
            }
            _ => {}
        }
        let base_cost = match &completion {
            Some(Completion::RecvDone { .. }) => self.spec.recv_overhead,
            Some(_) => PROGRESS_OVERHEAD,
            None => PROGRESS_OVERHEAD,
        };
        let mut prog = self.programs[rank as usize]
            .take()
            .expect("program present");
        let ops = {
            let mut sink = OpSink {
                rank,
                nranks: self.nranks(),
                now: t,
                placement: &self.placement,
                spec: &self.spec,
                ops: Vec::new(),
            };
            match completion {
                None => prog.on_start(&mut sink),
                Some(c) => prog.on_completion(&mut sink, c),
            }
            sink.ops
        };
        self.programs[rank as usize] = Some(prog);
        self.apply_ops(rank, t, base_cost, ops, trigger);
    }

    fn apply_ops(
        &mut self,
        rank: Rank,
        t: Time,
        base_cost: Duration,
        ops: Vec<Op>,
        trigger: Option<Trigger>,
    ) {
        let mut cost = base_cost;
        for op in ops {
            match op {
                Op::Isend {
                    dst,
                    tag,
                    payload,
                    token,
                    src_mem,
                } => {
                    cost += self.spec.send_overhead;
                    let at = self.finish_rank_work(rank, t, cost);
                    self.start_send(at, rank, dst, tag, payload, token, src_mem);
                }
                Op::Irecv {
                    src,
                    tag,
                    token,
                    dst_mem,
                } => {
                    cost += CTRL_OVERHEAD;
                    let at = self.finish_rank_work(rank, t, cost);
                    self.ranks[rank as usize].audit.recvs_posted += 1;
                    let extra = self.post_recv(at, rank, src, tag, token, dst_mem);
                    cost += extra;
                }
                Op::Compute { work, token } => {
                    if self.async_progress {
                        // Application compute runs on the main thread,
                        // serialized with earlier compute but not with the
                        // progress engine.
                        let posted = self.finish_rank_work(rank, t, cost);
                        let start = posted.max(self.ranks[rank as usize].busy_until);
                        let done = self.finish_rank_work(rank, start, work);
                        let state = &mut self.ranks[rank as usize];
                        state.busy_until = done;
                        state.busy_accum += work;
                        if self.obs_on {
                            self.obs.compute(
                                rank,
                                token.0,
                                start.as_nanos(),
                                done.as_nanos(),
                                false,
                            );
                        }
                        self.queue.schedule_untracked(
                            done,
                            Ev::Rank {
                                rank,
                                item: RankItem::Deliver {
                                    c: Completion::ComputeDone { token },
                                    msg: NO_MSG,
                                },
                            },
                        );
                    } else {
                        // The begin query is observability-only: the noise
                        // window stream is deterministic and idempotent,
                        // so asking early returns the same instant a later
                        // call would.
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
                        self.queue.schedule_untracked(
                            at,
                            Ev::Rank {
                                rank,
                                item: RankItem::Deliver {
                                    c: Completion::ComputeDone { token },
                                    msg: NO_MSG,
                                },
                            },
                        );
                    }
                }
                Op::GpuReduce { bytes, token } => {
                    cost += CTRL_OVERHEAD;
                    let enq = self.finish_rank_work(rank, t, cost);
                    assert!(
                        self.spec.gpu_reduce_bandwidth > 0.0,
                        "gpu_reduce on a machine without GPUs"
                    );
                    let state = &mut self.ranks[rank as usize];
                    let start = state.gpu_stream_busy.max(enq);
                    let done = start
                        + Duration::from_secs_f64(bytes as f64 / self.spec.gpu_reduce_bandwidth);
                    state.gpu_stream_busy = done;
                    if self.obs_on {
                        self.obs
                            .compute(rank, token.0, start.as_nanos(), done.as_nanos(), true);
                    }
                    self.queue.schedule_untracked(
                        done,
                        Ev::Rank {
                            rank,
                            item: RankItem::Deliver {
                                c: Completion::GpuDone { token },
                                msg: NO_MSG,
                            },
                        },
                    );
                }
                Op::Copy {
                    from,
                    to,
                    bytes,
                    token,
                } => {
                    cost += CTRL_OVERHEAD;
                    let at = self.finish_rank_work(rank, t, cost);
                    let path = self.fabric.route(from, to);
                    self.byte_audit.copy_posted += bytes;
                    self.queue.schedule_untracked(
                        at,
                        Ev::Launch {
                            kind: FlowKind::Copy { rank, token, bytes },
                            path,
                            bytes,
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
        if self.async_progress {
            state.prog_busy_until = state.prog_busy_until.max(done);
        } else {
            state.busy_until = state.busy_until.max(done);
        }
        state.busy_accum += cost;
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
            self.queue.schedule_untracked(
                at,
                Ev::Launch {
                    kind: FlowKind::EagerData(m),
                    path,
                    bytes,
                },
            );
            if bytes == 0 {
                // Zero-byte sends complete locally right away.
                self.queue.schedule_untracked(
                    at,
                    Ev::Rank {
                        rank: src,
                        item: RankItem::Deliver {
                            c: Completion::SendDone { token },
                            msg: m,
                        },
                    },
                );
            }
        } else {
            // Rendezvous: RTS control message first.
            let path = self
                .fabric
                .route(self.placement.host_mem(src), self.placement.host_mem(dst));
            self.queue.schedule_untracked(
                at,
                Ev::Launch {
                    kind: FlowKind::Rts(m),
                    path,
                    bytes: 0,
                },
            );
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
        let mem = dst_mem.unwrap_or_else(|| self.placement.default_mem(rank));
        // Unexpected eager data first (MPI matching order).
        let (hit, probes) = self.ranks[rank as usize].unexp_eager.match_posted(src, tag);
        self.stats.match_probes += probes;
        if let Some(m) = hit {
            self.stats.unexpected_matches += 1;
            if self.obs_on {
                self.obs.msg_event(
                    m,
                    MsgEvent::Matched {
                        posted_ns: Some(at.as_nanos()),
                        unexpected: true,
                    },
                    at.as_nanos(),
                );
            }
            let bytes = self.msgs[&m].payload.len();
            let copy_cost = self.spec.unexpected_overhead
                + Duration::from_secs_f64(bytes as f64 / self.spec.unexpected_copy_bandwidth);
            // RecvDone is scheduled at the post instant; busy-horizon
            // deferral makes it fire after the copy cost elapses.
            let done = self.finish_rank_work(rank, at, copy_cost);
            self.complete_recv(done, rank, m, token);
            return copy_cost;
        }
        // Pending rendezvous next.
        let (hit, probes) = self.ranks[rank as usize].unexp_rts.match_posted(src, tag);
        self.stats.match_probes += probes;
        if let Some(m) = hit {
            if self.obs_on {
                self.obs.msg_event(
                    m,
                    MsgEvent::Matched {
                        posted_ns: Some(at.as_nanos()),
                        unexpected: true,
                    },
                    at.as_nanos(),
                );
            }
            let posted = PostedRecv {
                src,
                tag,
                token,
                mem,
                posted_at: at,
            };
            self.accept_rndv(at, rank, m, posted);
            return CTRL_OVERHEAD;
        }
        self.ranks[rank as usize].posted.push(PostedRecv {
            src,
            tag,
            token,
            mem,
            posted_at: at,
        });
        Duration::ZERO
    }
}
