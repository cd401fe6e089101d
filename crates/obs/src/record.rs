//! The recorded data model: everything a run leaves behind when a
//! [`MemRecorder`](crate::MemRecorder) is attached.
//!
//! All timestamps are simulation time in integer nanoseconds — the same
//! deterministic clock the event queue orders on — so two runs of the
//! same configuration produce byte-identical records. Ranks, links,
//! message ids, and tokens are plain integers to keep this crate free of
//! simulator dependencies (the runtime adapts its own types at the
//! [`Recorder`](crate::Recorder) boundary).

/// What woke a rank's progress engine for one handler dispatch.
#[derive(Clone, Copy, Debug, PartialEq, Eq)]
pub enum Trigger {
    /// The initial `on_start` dispatch at simulation start.
    Start,
    /// An `isend` completed (its data flow drained).
    SendDone {
        /// Message id of the completed send.
        msg: u64,
    },
    /// An `irecv` completed (data arrived and matched).
    RecvDone {
        /// Message id of the completed receive.
        msg: u64,
    },
    /// A blocking compute finished.
    ComputeDone {
        /// Token of the compute operation.
        token: u64,
    },
    /// An asynchronous copy finished.
    CopyDone {
        /// Token of the copy operation.
        token: u64,
    },
    /// A GPU-stream operation finished.
    GpuDone {
        /// Token of the GPU operation.
        token: u64,
    },
}

impl Trigger {
    /// Stable lowercase label (trace event name).
    pub fn label(&self) -> &'static str {
        match self {
            Trigger::Start => "start",
            Trigger::SendDone { .. } => "send_done",
            Trigger::RecvDone { .. } => "recv_done",
            Trigger::ComputeDone { .. } => "compute_done",
            Trigger::CopyDone { .. } => "copy_done",
            Trigger::GpuDone { .. } => "gpu_done",
        }
    }
}

/// One handler dispatch of the progress engine: the span from the event
/// being picked up to the rank's CPU finishing the handler and every
/// operation cost it posted.
#[derive(Clone, Copy, Debug, PartialEq, Eq)]
pub struct DispatchSpan {
    /// Rank whose handler ran.
    pub rank: u32,
    /// Dispatch instant (ns).
    pub begin_ns: u64,
    /// Handler CPU completion instant (ns, noise stretching included).
    pub end_ns: u64,
    /// What woke the handler.
    pub trigger: Trigger,
}

/// Protocol actions the progress engine performs outside program
/// handlers.
#[derive(Clone, Copy, Debug, PartialEq, Eq)]
pub enum ProtoKind {
    /// Receiver accepted a rendezvous and sent CTS.
    CtsSend,
    /// Sender received CTS and launched the data flow.
    DataLaunch,
    /// An arrival found no posted receive and was queued unexpected.
    Unexpected,
}

impl ProtoKind {
    /// Stable lowercase label (trace event name).
    pub fn label(&self) -> &'static str {
        match self {
            ProtoKind::CtsSend => "cts_send",
            ProtoKind::DataLaunch => "data_launch",
            ProtoKind::Unexpected => "unexpected",
        }
    }
}

/// One protocol action span on a rank's CPU.
#[derive(Clone, Copy, Debug, PartialEq, Eq)]
pub struct ProtoSpan {
    /// Rank whose CPU did the work.
    pub rank: u32,
    /// Start instant (ns).
    pub begin_ns: u64,
    /// Completion instant (ns).
    pub end_ns: u64,
    /// Which protocol action.
    pub kind: ProtoKind,
    /// The message the action belongs to.
    pub msg: u64,
}

/// Full lifetime of one point-to-point message, indexed by message id.
/// Fields are `None` until (or unless) the corresponding protocol step
/// happens; eager messages never fill the rendezvous fields.
#[derive(Clone, Debug, Default, PartialEq, Eq)]
pub struct MsgRec {
    /// Sending rank.
    pub src: u32,
    /// Receiving rank.
    pub dst: u32,
    /// Message tag.
    pub tag: u32,
    /// Payload bytes.
    pub bytes: u64,
    /// Eager protocol (`true`) or rendezvous (`false`).
    pub eager: bool,
    /// Send posted (ns).
    pub posted_ns: Option<u64>,
    /// RTS control message reached the receiver (rendezvous only).
    pub rts_arrived_ns: Option<u64>,
    /// Receiver launched the CTS reply (rendezvous only).
    pub cts_launch_ns: Option<u64>,
    /// CTS reached the sender (rendezvous only).
    pub cts_arrived_ns: Option<u64>,
    /// Sender launched the payload flow (rendezvous only; eager data
    /// launches at `posted_ns`).
    pub data_launch_ns: Option<u64>,
    /// Payload fully injected (sender buffer reusable).
    pub drained_ns: Option<u64>,
    /// Payload fully delivered at the receiver.
    pub delivered_ns: Option<u64>,
    /// The matching receive's posting instant.
    pub recv_posted_ns: Option<u64>,
    /// Arrival matched a posted receive, or a posted receive matched the
    /// unexpected queue.
    pub matched_ns: Option<u64>,
    /// The message waited in an unexpected queue (arrived before its
    /// receive was posted).
    pub unexpected: bool,
    /// RecvDone scheduled for the receiving program (after any
    /// unexpected-copy cost).
    pub recv_ready_ns: Option<u64>,
    /// Flows of this message lost to injected faults.
    pub drops: u32,
    /// Reliability-layer retransmissions for this message.
    pub retransmits: u32,
    /// First acknowledgement back at the sender (reliable runs only).
    pub acked_ns: Option<u64>,
}

/// Protocol class of a network flow.
#[derive(Clone, Copy, Debug, PartialEq, Eq)]
pub enum FlowClass {
    /// Rendezvous ready-to-send control message (zero bytes).
    Rts,
    /// Rendezvous clear-to-send control message (zero bytes).
    Cts,
    /// Eager payload.
    Eager,
    /// Rendezvous payload.
    Rndv,
    /// Local asynchronous copy (e.g. GPU staging DMA).
    Copy,
    /// Reliability-layer acknowledgement (zero bytes, receiver to sender).
    Ack,
}

impl FlowClass {
    /// Every class, in canonical index order: a class's position here is
    /// its `index` in the metrics-CSV summary rows and the streaming
    /// summary's per-class tables.
    pub const ALL: [FlowClass; 6] = [
        FlowClass::Rts,
        FlowClass::Cts,
        FlowClass::Eager,
        FlowClass::Rndv,
        FlowClass::Copy,
        FlowClass::Ack,
    ];

    /// Position in [`FlowClass::ALL`] in O(1) — the declaration order is
    /// the canonical order, which `flow_class_index_is_its_all_position`
    /// pins.
    pub const fn index(self) -> usize {
        self as usize
    }

    /// Stable lowercase label (trace event name).
    pub fn label(&self) -> &'static str {
        match self {
            FlowClass::Rts => "rts",
            FlowClass::Cts => "cts",
            FlowClass::Eager => "eager",
            FlowClass::Rndv => "rndv",
            FlowClass::Copy => "copy",
            FlowClass::Ack => "ack",
        }
    }
}

/// One network flow: a transfer occupying every link on its path from
/// launch until it drains, delivered one path latency later.
#[derive(Clone, Debug, PartialEq, Eq)]
pub struct FlowRec {
    /// Protocol class.
    pub class: FlowClass,
    /// Owning message (`None` for copies).
    pub msg: Option<u64>,
    /// Initiating rank (sender for RTS/data, receiver for CTS, owner for
    /// copies).
    pub rank: u32,
    /// Copy token (copies only; zero otherwise).
    pub token: u64,
    /// Bytes carried.
    pub bytes: u64,
    /// Link ids along the path, in order.
    pub links: Vec<u32>,
    /// Launch instant (ns).
    pub launch_ns: u64,
    /// Fully injected (ns).
    pub drained_ns: Option<u64>,
    /// Fully delivered (ns).
    pub delivered_ns: Option<u64>,
}

/// One compute or GPU-stream work span.
#[derive(Clone, Copy, Debug, PartialEq, Eq)]
pub struct ComputeRec {
    /// Rank that did (or enqueued) the work.
    pub rank: u32,
    /// Completion token of the operation.
    pub token: u64,
    /// Work start (ns).
    pub begin_ns: u64,
    /// Work completion (ns).
    pub end_ns: u64,
    /// GPU-stream work (`true`) or CPU compute (`false`).
    pub gpu: bool,
}

/// A collective-phase boundary mark posted by a phased program.
#[derive(Clone, Copy, Debug, PartialEq, Eq)]
pub struct PhaseRec {
    /// Rank reporting the boundary.
    pub rank: u32,
    /// Phase index within the rank's phase chain.
    pub phase: u32,
    /// Phase start (`true`) or phase completion (`false`).
    pub begin: bool,
    /// The boundary instant (ns).
    pub t_ns: u64,
}

/// What a sampled gauge measures.
#[derive(Clone, Copy, Debug, PartialEq, Eq)]
pub enum GaugeMetric {
    /// Total posted receives across all ranks.
    PostedDepth,
    /// Total unexpected messages (eager + RTS) across all ranks.
    UnexpectedDepth,
    /// Flows currently in the network.
    LiveFlows,
    /// Events pending in the simulator queue.
    EventQueueLen,
    /// One link's utilization (drain rate over capacity, 0..=1); `index`
    /// is the link id. Idle links are not sampled.
    LinkUtil,
    /// One link's active-flow count; `index` is the link id.
    LinkFlows,
}

impl GaugeMetric {
    /// Stable lowercase label (CSV column value / counter name).
    pub fn label(&self) -> &'static str {
        match self {
            GaugeMetric::PostedDepth => "posted_depth",
            GaugeMetric::UnexpectedDepth => "unexpected_depth",
            GaugeMetric::LiveFlows => "live_flows",
            GaugeMetric::EventQueueLen => "event_queue_len",
            GaugeMetric::LinkUtil => "link_util",
            GaugeMetric::LinkFlows => "link_flows",
        }
    }
}

/// One time-series sample.
#[derive(Clone, Copy, Debug, PartialEq)]
pub struct GaugeRec {
    /// Sample instant (ns) — a multiple of the metrics interval.
    pub t_ns: u64,
    /// What was measured.
    pub metric: GaugeMetric,
    /// Sub-index (link id for per-link metrics, 0 otherwise).
    pub index: u32,
    /// The sampled value.
    pub value: f64,
}

/// Everything one recorded run leaves behind.
#[derive(Clone, Debug, Default)]
pub struct ObsData {
    /// Number of ranks in the job.
    pub nranks: u32,
    /// Human label per link id (e.g. `NicTx(3)`).
    pub link_labels: Vec<String>,
    /// Pristine capacity per link id (bytes/sec).
    pub link_caps: Vec<f64>,
    /// Pristine latency per link id (ns). Same length as `link_caps`.
    pub link_lat_ns: Vec<u64>,
    /// Per-rank OS-noise preemption windows `(start_ns, end_ns)`, sorted
    /// and non-overlapping, generated out to past the makespan.
    pub noise_windows: Vec<Vec<(u64, u64)>>,
    /// Per-rank injected stall windows from the fault plan (same shape).
    pub stall_windows: Vec<Vec<(u64, u64)>>,
    /// Gauge sampling interval (ns); zero when sampling was off.
    pub metrics_interval_ns: u64,
    /// Message lifetimes, indexed by message id.
    pub msgs: Vec<MsgRec>,
    /// Network flows, in launch order.
    pub flows: Vec<FlowRec>,
    /// Handler dispatch spans, in execution order.
    pub dispatches: Vec<DispatchSpan>,
    /// Protocol action spans, in execution order.
    pub protocols: Vec<ProtoSpan>,
    /// Compute/GPU spans, in posting order.
    pub computes: Vec<ComputeRec>,
    /// Collective-phase boundary marks, in execution order.
    pub phases: Vec<PhaseRec>,
    /// Sampled gauges, in sampling order.
    pub gauges: Vec<GaugeRec>,
    /// Health-monitor alerts, in firing order. Empty unless a monitor
    /// was attached (recordings made without one carry no field).
    pub alerts: Vec<crate::monitor::HealthAlert>,
    /// Per-rank finish times (ns).
    pub per_rank_finish_ns: Vec<u64>,
}

impl ObsData {
    /// The run's makespan in nanoseconds (latest rank finish).
    pub fn makespan_ns(&self) -> u64 {
        self.per_rank_finish_ns.iter().copied().max().unwrap_or(0)
    }
}

#[cfg(test)]
mod tests {
    use super::FlowClass;

    #[test]
    fn flow_class_index_is_its_all_position() {
        for (i, c) in FlowClass::ALL.iter().enumerate() {
            assert_eq!(c.index(), i, "{c:?} moved out of canonical order");
        }
    }
}
