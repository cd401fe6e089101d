//! The simulated MPI runtime: the world, its builders and the event loop.
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
//! ## Layers
//!
//! This module owns the event loop: it pops events and dispatches each to
//! the layer that owns the decision. `protocol` runs the eager/rendezvous
//! protocol and the rank programs, `fault` injects faults and recovers
//! from them (present only when a plan is attached), `monitor` samples
//! gauges and health snapshots, and `error` turns a run that cannot
//! complete into a typed [`RunError`].

mod error;
mod fault;
mod monitor;
mod protocol;

pub use error::{FailureDiagnosis, RunError, StallDiagnosis};

use crate::matching::{MsgId, PostedQueue, UnexpQueue};
use crate::payload::Payload;
use crate::program::{Completion, RankProgram, Tag, Token};
use adapt_faults::FaultPlan;
use adapt_net::{Fabric, FlowId, FlowScheduler, FlowSpec, NetStep, Network, Path};
use adapt_noise::ClusterNoise;
use adapt_obs::{
    AnyRecorder, FlowClass, FlowStart, HealthReport, Layer, Monitor, MsgEvent, NullRecorder,
    ObsData, ObsSummary, Recorder,
};
use adapt_sim::audit::{AuditReport, RankAudit};
use adapt_sim::fxhash::FxHashMap;
use adapt_sim::park::ParkedBands;
use adapt_sim::queue::{EventKey, EventQueue};
use adapt_sim::time::{Duration, Time};
use adapt_topology::{MachineSpec, MemSpace, Placement, Rank};
use fault::{Faults, XferKey};
use monitor::Health;

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

/// One protocol step of a message. Each step is a reliability lane of
/// its own: the fault layer acks and retransmits it separately.
#[derive(Clone, Copy, Debug)]
struct MsgFlow {
    msg: MsgId,
    step: Step,
}

#[derive(Clone, Copy, Debug, PartialEq, Eq)]
enum Step {
    Rts,
    Cts,
    Eager,
    Rndv,
}

impl Step {
    /// The step's lane within its message. A message never uses both the
    /// eager and the rendezvous data lane, so they share one.
    fn lane(self) -> u64 {
        match self {
            Step::Rts => 0,
            Step::Cts => 1,
            Step::Eager | Step::Rndv => 2,
        }
    }

    fn carries_payload(self) -> bool {
        matches!(self, Step::Eager | Step::Rndv)
    }
}

impl MsgFlow {
    /// Key of the flow's reliable transfer lane: `msg * 4 + lane`.
    fn key(self) -> XferKey {
        self.msg * 4 + self.step.lane()
    }

    /// The flow's `(sender, receiver)`: a CTS travels from the message's
    /// destination back to its source, every other step the other way.
    fn endpoints(self, msg: &Msg) -> (Rank, Rank) {
        if self.step == Step::Cts {
            (msg.dst, msg.src)
        } else {
            (msg.src, msg.dst)
        }
    }
}

#[derive(Clone, Copy, Debug)]
enum FlowKind {
    Msg(MsgFlow),
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
        /// keeps the event one word smaller.
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
    /// Copy bytes put on the wire: `copy_posted` unless a what-if
    /// scales the copy layer.
    copy_wire: u64,
}

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
    /// Network-engine diagnostics: flows examined for a bottleneck move
    /// (those crossing a link whose share fell, plus those bottlenecked on
    /// a link whose share rose).
    net_refreshes,
    /// Network-engine diagnostics: pending drain events replaced because
    /// their link's head flow or share changed.
    net_reschedules,
    /// Matching-engine diagnostics: queue entries examined while matching
    /// arrivals against posted receives and posted receives against the
    /// unexpected queues. The per-event matching cost of the progress
    /// engine is `match_probes / events` — the complexity claim made by
    /// the matching index is checkable from this number alone.
    match_probes,
    /// Network-engine diagnostics: path-minimum share computations, one
    /// per flow launch plus one per flow re-checked against its other
    /// links when its bottleneck's share rose.
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
    /// runs (the figure grids of `adapt-bench`).
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
    programs: Vec<Box<dyn RankProgram>>,
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
    /// The fault layer (`None` = pristine network, zero-cost transport
    /// exactly as before the layer existed).
    faults: Option<Box<Faults>>,
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
    monitor: Option<Box<Health>>,
    /// What-if cost scale: every cost charged to the layer is multiplied
    /// by the factor (`None` = the model's own costs).
    layer_scale: Option<(Layer, f64)>,
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
            layer_scale: None,
        }
    }

    /// Attach a fault plan: lossy links, down/degradation windows, rank
    /// stalls and kills — with the ack/retransmit reliability layer and
    /// the failure detector that recover from them. An
    /// [inert](FaultPlan::is_inert) plan attaches nothing, so `--faults`
    /// with zero rates is bit-identical to no flag at all.
    pub fn with_faults(mut self, plan: FaultPlan) -> World {
        if !plan.is_inert() {
            let nranks = self.nranks();
            self.faults = Some(Box::new(Faults::new(plan, nranks)));
        }
        self
    }

    /// Every link's debug label (e.g. `NicTx(3)`), indexed by link id:
    /// the names recordings, health reports and fault plans use.
    fn link_labels(&self) -> Vec<String> {
        self.net
            .links()
            .iter()
            .map(|l| format!("{:?}", l.class))
            .collect()
    }

    /// Rescale the pristine capacity/latency of every link whose debug
    /// label (e.g. `NicTx(3)`) matches `pred` — a what-if intervention
    /// ("what if the NICs were 2× faster?"). Both factors must be
    /// positive. Returns the number of links rescaled.
    pub fn prescale_links(
        &mut self,
        cap_factor: f64,
        lat_factor: f64,
        pred: impl Fn(&str) -> bool,
    ) -> usize {
        let labels = self.link_labels();
        let mut scaled = 0;
        for (l, label) in labels.iter().enumerate() {
            if pred(label) {
                self.net.prescale_link(l as u32, cap_factor, lat_factor);
                scaled += 1;
            }
        }
        scaled
    }

    /// Multiply every cost the world charges to `layer` by `factor`
    /// (0.8 = "20% faster"), the layers being the ones the critical path
    /// attributes time to: callback (dispatch overheads), protocol (CTS,
    /// data launch and unexpected-arrival steps), matching (the
    /// unexpected copy-out), compute, gpu (GPU reduce time), copy (copy
    /// bytes on the wire; the byte audit keeps counting logical bytes)
    /// and network (every link's capacity ÷ `factor`, latency ×
    /// `factor`; `factor` must then be positive). `Blocked` is derived
    /// waiting and charges nothing. A factor of 1.0 changes nothing.
    pub fn with_layer_scale(mut self, layer: Layer, factor: f64) -> World {
        if factor == 1.0 {
            return self;
        }
        if layer == Layer::Network {
            self.prescale_links(1.0 / factor, factor, |_| true);
        } else {
            self.layer_scale = Some((layer, factor));
        }
        self
    }

    /// `amount` (nanoseconds of work, or bytes of copy traffic) charged
    /// to `layer`, under the what-if layer scale.
    fn scaled(&self, layer: Layer, amount: u64) -> u64 {
        match self.layer_scale {
            Some((l, f)) if l == layer => (amount as f64 * f).round() as u64,
            _ => amount,
        }
    }

    /// A CPU cost charged to `layer`, under the what-if layer scale.
    fn cost(&self, layer: Layer, work: Duration) -> Duration {
        Duration(self.scaled(layer, work.as_nanos()))
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
        self.monitor = Some(Box::new(Health::new(monitor)));
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
    /// eventually call `finish`). A run that cannot complete — deadlock,
    /// watchdog expiry, retry-budget exhaustion between live ranks, rank
    /// failures the survivors could not absorb, or a blown event cap —
    /// returns a typed [`RunError`]. No fault plan can panic this path.
    pub fn try_run(
        mut self,
        programs: Vec<Box<dyn RankProgram>>,
    ) -> Result<RunResult, Box<RunError>> {
        assert_eq!(
            programs.len(),
            self.nranks() as usize,
            "one program per rank"
        );
        self.programs = programs;
        for r in 0..self.nranks() {
            self.queue.schedule(
                Time::ZERO,
                Ev::Rank {
                    rank: r,
                    item: RankItem::Start,
                },
            );
        }
        let labels = if self.obs_on || self.faults.is_some() || self.monitor.is_some() {
            self.link_labels()
        } else {
            Vec::new()
        };
        if let Some(fs) = &self.faults {
            fs.schedule(&labels, &self.placement, &mut self.queue);
        }
        if let Some(h) = self.monitor.as_deref_mut() {
            // First snapshot one interval in: at t=0 nothing has run, so
            // a snapshot there would only dilute every detector's window.
            let iv = h.start(self.placement.len(), &labels);
            self.queue.schedule(Time(iv), Ev::Snapshot);
        }
        let mut sample_iv = 0;
        if self.obs_on {
            self.obs.meta(self.nranks(), labels);
            // Pristine link parameters, so a recording carries the
            // network it ran on.
            let links = self.net.links();
            let caps = links.iter().map(|l| l.capacity).collect();
            let lats = links.iter().map(|l| l.latency.as_nanos()).collect();
            self.obs.link_params(caps, lats);
            sample_iv = self.obs.metrics_interval().unwrap_or(0);
        }
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
                    return Err(self.stalled(prev_t, t, true));
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
                return Err(self.abandon(RunError::EventCap {
                    events: self.stats.events,
                    at: t,
                    flight: None,
                }));
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
            if let Some(e) = self.run_error.take() {
                return Err(self.abandon(e));
            }
            if self.finished == self.nranks() && self.faults.is_none() {
                // With faults active the queue drains fully instead:
                // in-flight retransmissions, acks, and timers must
                // resolve so the audit sees a settled network.
                break;
            }
        }
        if self.finished != self.nranks() {
            return Err(self.stalled(prev_t, prev_t, false));
        }
        Ok(self.into_result())
    }

    /// Assemble the outcome of a run every rank finished.
    fn into_result(mut self) -> RunResult {
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
        let (mut obs, mut summary, mut flight) = (None, None, None);
        if self.obs_on {
            // Snapshot per-rank preemption windows into the recording,
            // out to twice the makespan plus 200 ms. The noise stream is
            // deterministic and idempotent, so generating past the
            // makespan here cannot perturb anything.
            let horizon = Time(
                makespan
                    .as_nanos()
                    .saturating_mul(2)
                    .saturating_add(200_000_000),
            );
            let ns = |w: &[(Time, Time)]| -> Vec<(u64, u64)> {
                w.iter()
                    .map(|&(s, e)| (s.as_nanos(), e.as_nanos()))
                    .collect()
            };
            for r in 0..self.nranks() {
                let noise_w = ns(&self.noise.export_windows(r, horizon));
                let stall_w = self
                    .faults
                    .as_deref()
                    .and_then(|f| f.stall(r))
                    .map_or_else(Vec::new, |s| ns(s.windows()));
                self.obs.rank_windows(r, noise_w, stall_w);
            }
            let finish_ns: Vec<u64> = per_rank_finish.iter().map(|t| t.as_nanos()).collect();
            obs = self.obs.finish(&finish_ns);
            summary = self.obs.finish_summary();
            // A dirty audit is the completed-run analogue of a stall:
            // dump the flight tail (when one is kept) so the violation
            // comes with its most recent spans.
            if !audit.is_clean() {
                flight = self.obs.flight_dump();
            }
        }
        RunResult {
            makespan,
            per_rank_finish,
            per_rank_busy,
            audit,
            obs,
            summary,
            flight,
            health: self.monitor.map(|h| h.monitor.into_report()),
            stats: self.stats,
            programs: self.programs,
        }
    }

    /// Assemble the end-of-run invariant report (see
    /// [`adapt_sim::audit`] for what each check means).
    fn build_audit(&self) -> AuditReport {
        let mut audit = AuditReport {
            queue: self.queue.audit(),
            send_posted_bytes: self.byte_audit.send_posted,
            recv_completed_bytes: self.byte_audit.recv_completed,
            copy_posted_bytes: self.byte_audit.copy_posted,
            copy_completed_bytes: self.byte_audit.copy_completed,
            copy_wire_bytes: self.byte_audit.copy_wire,
            net_injected_bytes: self.net.injected_bytes(),
            net_delivered_bytes: self.net.delivered_bytes(),
            net_flows_in_flight: self.net.active_flows(),
            net_dropped_bytes: self.net.dropped_bytes(),
            retrans_injected_bytes: self.faults.as_deref().map_or(0, Faults::retrans_bytes),
            stray_events: self.stats.stray_events,
            faults_active: self.faults.is_some(),
            per_rank: self.ranks.iter().map(|r| r.audit).collect(),
            unclaimed_messages: self.msgs.len() as u64,
            unexpected_leftovers: self
                .ranks
                .iter()
                .map(|r| (r.unexp_eager.len() + r.unexp_rts.len()) as u64)
                .sum(),
            leftover_posted_recvs: self.ranks.iter().map(|r| r.posted.len() as u64).sum(),
            failed_ranks: Vec::new(),
            failed_bytes: 0,
            failed_unlaunched_bytes: 0,
            failed_copy_bytes: 0,
        };
        self.triage_failures(&mut audit);
        audit
    }

    // ------------------------------------------------------------------
    // Network events
    // ------------------------------------------------------------------

    /// Start the flow an `Ev::Launch` describes. With a fault plan
    /// attached this is also where losses are injected and where reliable
    /// lanes arm their retransmit timer.
    fn launch_flow(&mut self, t: Time, kind: FlowKind, path: Path, bytes: u64) {
        if self.obs_on {
            self.links_scratch.clear();
            self.links_scratch
                .extend(path.as_slice().iter().map(|l| l.0));
        }
        let doomed = match self.faults.as_deref_mut() {
            Some(fs) => fs.dooms(t, kind, &path, &self.msgs),
            None => false,
        };
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
                FlowKind::Msg(f) => {
                    let class = match f.step {
                        Step::Rts => FlowClass::Rts,
                        Step::Cts => FlowClass::Cts,
                        Step::Eager => FlowClass::Eager,
                        Step::Rndv => FlowClass::Rndv,
                    };
                    (class, Some(f.msg), self.flow_sender(f), 0)
                }
                FlowKind::Copy { rank, token, .. } => (FlowClass::Copy, None, rank, token.0),
                FlowKind::Ack { key, from } => (FlowClass::Ack, Some(key >> 2), from, 0),
            };
            if let FlowKind::Msg(f) = kind {
                match f.step {
                    Step::Cts => self.obs.msg_event(f.msg, MsgEvent::CtsLaunch, t.as_nanos()),
                    Step::Rndv => self
                        .obs
                        .msg_event(f.msg, MsgEvent::DataLaunch, t.as_nanos()),
                    Step::Rts | Step::Eager => {}
                }
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
        if let FlowKind::Msg(f) = kind {
            self.arm_timer(t, f, path, bytes);
        }
    }

    /// The rank a message flow is attributed to in traces: its sender.
    /// A retransmit whose ack was lost can fire after the receive retired
    /// the message; the reliability lane's recorded owner answers then.
    fn flow_sender(&self, f: MsgFlow) -> Rank {
        match self.msgs.get(&f.msg) {
            Some(msg) => f.endpoints(msg).0,
            None => self
                .lane_owner(f)
                .expect("a lane for a retired message is still tracked until acked"),
        }
    }

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
                    FlowKind::Msg(f) if f.step.carries_payload() => {
                        let m = f.msg;
                        if self
                            .faults
                            .as_deref_mut()
                            .is_some_and(|fs| !fs.first_drain(m))
                        {
                            return;
                        }
                        if self.obs_on {
                            self.obs.msg_event(m, MsgEvent::Drained, t.as_nanos());
                        }
                        let msg = &self.msgs[&m];
                        let (src, token) = (msg.src, msg.send_token);
                        self.deliver(t, src, Completion::SendDone { token }, m);
                    }
                    FlowKind::Copy { .. } => {}
                    FlowKind::Msg(_) | FlowKind::Ack { .. } => {
                        unreachable!("control flows are zero-byte and never drain")
                    }
                }
            }
            NetStep::Delivered(d) => {
                let kind = self.flow_kinds[d.flow.0 as usize]
                    .take()
                    .expect("delivery of unknown flow");
                // An ack, or a duplicate of an already-processed lane, is
                // consumed by the reliability layer.
                let consumed = self.reliable_delivery(t, kind);
                if self.obs_on {
                    self.obs.flow_delivered(d.flow.0 as u32, t.as_nanos());
                }
                if consumed {
                    return;
                }
                let (rank, item) = match kind {
                    FlowKind::Msg(f) => {
                        let msg = &self.msgs[&f.msg];
                        let m = f.msg;
                        let (event, rank, item) = match f.step {
                            Step::Rts => (MsgEvent::RtsArrived, msg.dst, RankItem::RtsArrived(m)),
                            Step::Cts => (MsgEvent::CtsArrived, msg.src, RankItem::CtsArrived(m)),
                            Step::Eager => {
                                (MsgEvent::Delivered, msg.dst, RankItem::EagerArrived(m))
                            }
                            Step::Rndv => {
                                (MsgEvent::Delivered, msg.dst, RankItem::RndvDataArrived(m))
                            }
                        };
                        if self.obs_on {
                            self.obs.msg_event(m, event, t.as_nanos());
                        }
                        (rank, item)
                    }
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
                self.queue.schedule(t, Ev::Rank { rank, item });
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
                        FlowKind::Msg(f) => Some(f.msg),
                        FlowKind::Ack { key, .. } => Some(key >> 2),
                        FlowKind::Copy { .. } => None,
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
            if self
                .faults
                .as_deref()
                .is_some_and(|f| f.live_send_to_dead(rank, self.msgs.get(msg)))
            {
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
        match item {
            RankItem::EagerArrived(m) => self.on_arrival(t, rank, m, false),
            RankItem::RtsArrived(m) => self.on_arrival(t, rank, m, true),
            RankItem::RndvDataArrived(m) => {
                let token = self.msgs[&m].recv_token.expect("rendezvous was matched");
                self.complete_recv(t, rank, m, token);
            }
            item => {
                let ready = self.cpu_ready(rank, t);
                if ready > t {
                    if self.parked.park(rank as usize, ready, item) {
                        self.queue.schedule(ready, Ev::Wake { rank });
                    }
                    return;
                }
                self.rank_run(t, rank, item);
            }
        }
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
                    self.queue.schedule(ready, Ev::Wake { rank });
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
            RankItem::CtsArrived(m) => self.launch_rndv_data(t, rank, m),
            RankItem::EagerArrived(_) | RankItem::RtsArrived(_) | RankItem::RndvDataArrived(_) => {
                unreachable!("arrivals are handled at arrival time, never parked")
            }
        }
    }

    /// Hand completion `c` to `rank`'s program at `at`; `msg` is the
    /// message whose protocol step produced it ([`NO_MSG`] for none).
    fn deliver(&mut self, at: Time, rank: Rank, c: Completion, msg: MsgId) {
        let item = RankItem::Deliver { c, msg };
        self.queue.schedule(at, Ev::Rank { rank, item });
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
}
