//! The [`Recorder`] boundary between the runtime and the observability
//! layer, plus its two implementations.
//!
//! The runtime caches `enabled()` in a flag and guards every probe with
//! it, so the disabled path costs one predictable branch per probe and
//! allocates nothing — the perf harness' `fig8_quick_bcast_256` scenario
//! runs with the [`NullRecorder`] and must show no regression.

use crate::record::*;
use crate::stream::ObsSummary;

/// A step in a message's lifetime, reported as it happens.
#[derive(Clone, Copy, Debug, PartialEq, Eq)]
pub enum MsgEvent {
    /// RTS control message reached the receiver.
    RtsArrived,
    /// Receiver launched the CTS reply.
    CtsLaunch,
    /// CTS reached the sender.
    CtsArrived,
    /// Sender launched the rendezvous payload flow.
    DataLaunch,
    /// Payload fully injected (sender side complete).
    Drained,
    /// Payload fully delivered at the receiver.
    Delivered,
    /// Arrival and posted receive matched.
    Matched {
        /// When the matching receive was posted (ns), if known.
        posted_ns: Option<u64>,
        /// The message had been queued unexpected before the match.
        unexpected: bool,
    },
    /// RecvDone scheduled for the receiving program.
    RecvReady,
    /// A flow carrying this message was lost to an injected fault.
    Dropped,
    /// The reliability layer relaunched a lost flow after its RTO.
    Retransmit,
    /// The sender's acknowledgement arrived; the retransmit timer died.
    Acked,
}

impl MsgEvent {
    /// Stable lowercase label (flight-recorder marker name).
    pub fn label(&self) -> &'static str {
        match self {
            MsgEvent::RtsArrived => "rts_arrived",
            MsgEvent::CtsLaunch => "cts_launch",
            MsgEvent::CtsArrived => "cts_arrived",
            MsgEvent::DataLaunch => "data_launch",
            MsgEvent::Drained => "drained",
            MsgEvent::Delivered => "delivered",
            MsgEvent::Matched { .. } => "matched",
            MsgEvent::RecvReady => "recv_ready",
            MsgEvent::Dropped => "dropped",
            MsgEvent::Retransmit => "retransmit",
            MsgEvent::Acked => "acked",
        }
    }
}

/// A flow launch. The link ids along the path travel as a borrowed
/// slice parameter of [`Recorder::flow_start`] (not owned here), so the
/// per-flow probe costs no allocation — sinks that keep the routing copy
/// it, sinks that aggregate read it in place.
#[derive(Clone, Copy, Debug)]
pub struct FlowStart {
    /// Protocol class.
    pub class: FlowClass,
    /// Owning message (`None` for copies).
    pub msg: Option<u64>,
    /// Initiating rank.
    pub rank: u32,
    /// Copy token (copies only).
    pub token: u64,
    /// Bytes carried.
    pub bytes: u64,
    /// Launch instant (ns).
    pub t_ns: u64,
}

/// What the runtime reports to an attached observability sink. Every
/// method has a no-op default so sinks implement only what they need;
/// timestamps are deterministic simulation nanoseconds.
///
/// Attaching a recorder must never change simulation behaviour: probes
/// only read state the runtime computed anyway, and the golden tests
/// assert run results are identical with recording on and off.
///
/// Attaching a *disabled* recorder must also cost nothing measurable:
/// the runtime calls [`Recorder::enabled`] once at attach time and
/// caches the answer, so no virtual call sits on the hot path — every
/// probe site is a single predictable branch on the cached flag. The
/// benchmark barometer holds this to account: `fig8_quick_bcast_256`
/// (recording compiled in, disabled) is gated against the ledger, and
/// `fig8_quick_bcast_256_traced` tracks what enabling actually costs.
pub trait Recorder {
    /// Should the runtime fire probes at all? Called once when the
    /// recorder is attached and cached by the runtime — not consulted
    /// per probe.
    fn enabled(&self) -> bool {
        false
    }
    /// Gauge sampling interval in sim-time ns (`None` = no sampling).
    fn metrics_interval(&self) -> Option<u64> {
        None
    }
    /// Job shape, reported once at run start.
    fn meta(&mut self, _nranks: u32, _link_labels: Vec<String>) {}
    /// Pristine link parameters (capacity bytes/sec, latency ns per
    /// link id), reported once at run start, so a recording carries the
    /// network it ran on.
    fn link_params(&mut self, _caps: Vec<f64>, _lat_ns: Vec<u64>) {}
    /// One rank's preemption windows, reported once at run end: OS-noise
    /// windows (generated past the makespan) and injected stall windows,
    /// both sorted and non-overlapping.
    fn rank_windows(&mut self, _rank: u32, _noise: Vec<(u64, u64)>, _stalls: Vec<(u64, u64)>) {}
    /// A send was posted (creates message id `_msg`).
    #[allow(clippy::too_many_arguments)] // mirrors the send signature
    fn msg_posted(
        &mut self,
        _msg: u64,
        _src: u32,
        _dst: u32,
        _tag: u32,
        _bytes: u64,
        _eager: bool,
        _t_ns: u64,
    ) {
    }
    /// A lifetime step of message `_msg`.
    fn msg_event(&mut self, _msg: u64, _ev: MsgEvent, _t_ns: u64) {}
    /// A flow launched into network slot `_slot` (slots are reused; the
    /// latest launch owns the slot). `_links` are the link ids along the
    /// flow's path, borrowed from the runtime.
    fn flow_start(&mut self, _slot: u32, _rec: FlowStart, _links: &[u32]) {}
    /// The flow in `_slot` fully injected its bytes.
    fn flow_drained(&mut self, _slot: u32, _t_ns: u64) {}
    /// The flow in `_slot` delivered (and left the network).
    fn flow_delivered(&mut self, _slot: u32, _t_ns: u64) {}
    /// A program handler dispatch completed.
    fn dispatch(&mut self, _rank: u32, _begin_ns: u64, _end_ns: u64, _trigger: Trigger) {}
    /// A protocol action completed on a rank's CPU.
    fn protocol(&mut self, _rank: u32, _begin_ns: u64, _end_ns: u64, _kind: ProtoKind, _msg: u64) {}
    /// A compute or GPU work span completed (times may be in the future
    /// at report time — the simulator schedules deterministically).
    fn compute(&mut self, _rank: u32, _token: u64, _begin_ns: u64, _end_ns: u64, _gpu: bool) {}
    /// A collective-phase boundary mark.
    fn phase(&mut self, _rank: u32, _phase: u32, _begin: bool, _t_ns: u64) {}
    /// A sampled gauge value.
    fn gauge(&mut self, _t_ns: u64, _metric: GaugeMetric, _index: u32, _value: f64) {}
    /// A health-monitor alert fired at a snapshot boundary (only when a
    /// [`Monitor`](crate::Monitor) is attached alongside the recorder).
    fn alert(&mut self, _a: crate::monitor::HealthAlert) {}
    /// The run completed; return the accumulated data, if any.
    fn finish(&mut self, _per_rank_finish_ns: &[u64]) -> Option<ObsData> {
        None
    }
    /// The bounded-memory run summary, if this sink aggregates online
    /// (see [`StreamRecorder`](crate::StreamRecorder)). Called by the
    /// runtime right after [`Recorder::finish`].
    fn finish_summary(&mut self) -> Option<ObsSummary> {
        None
    }
    /// The flight-recorder tail as a Chrome-trace fragment, if this sink
    /// keeps one. Called by the runtime on a stall diagnosis or a failed
    /// audit — the recorder may be mid-run, so implementations must not
    /// assume [`Recorder::finish`] ran.
    fn flight_dump(&mut self) -> Option<String> {
        None
    }
}

/// The default sink: recording off, every probe a no-op.
#[derive(Clone, Copy, Debug, Default)]
pub struct NullRecorder;

impl Recorder for NullRecorder {}

/// Accumulates every probe into an [`ObsData`] for export and analysis.
#[derive(Debug, Default)]
pub struct MemRecorder {
    data: ObsData,
    interval_ns: Option<u64>,
    /// Network slot → index into `data.flows` of the latest flow that
    /// occupied it (slots are reused).
    slot_flows: Vec<u32>,
}

impl MemRecorder {
    /// Record spans only (no gauge sampling).
    pub fn new() -> MemRecorder {
        MemRecorder::default()
    }

    /// Record spans and sample gauges every `interval_ns` of sim time.
    pub fn with_metrics(interval_ns: u64) -> MemRecorder {
        MemRecorder {
            interval_ns: Some(interval_ns.max(1)),
            ..MemRecorder::default()
        }
    }

    fn msg_mut(&mut self, msg: u64) -> &mut MsgRec {
        let i = msg as usize;
        if self.data.msgs.len() <= i {
            self.data.msgs.resize(i + 1, MsgRec::default());
        }
        &mut self.data.msgs[i]
    }

    fn slot_flow_mut(&mut self, slot: u32) -> Option<&mut FlowRec> {
        let idx = *self.slot_flows.get(slot as usize)?;
        self.data.flows.get_mut(idx as usize)
    }
}

impl Recorder for MemRecorder {
    fn enabled(&self) -> bool {
        true
    }

    fn metrics_interval(&self) -> Option<u64> {
        self.interval_ns
    }

    fn meta(&mut self, nranks: u32, link_labels: Vec<String>) {
        self.data.nranks = nranks;
        self.data.link_labels = link_labels;
        self.data.metrics_interval_ns = self.interval_ns.unwrap_or(0);
    }

    fn link_params(&mut self, caps: Vec<f64>, lat_ns: Vec<u64>) {
        self.data.link_caps = caps;
        self.data.link_lat_ns = lat_ns;
    }

    fn rank_windows(&mut self, rank: u32, noise: Vec<(u64, u64)>, stalls: Vec<(u64, u64)>) {
        let i = rank as usize;
        if self.data.noise_windows.len() <= i {
            self.data.noise_windows.resize(i + 1, Vec::new());
            self.data.stall_windows.resize(i + 1, Vec::new());
        }
        self.data.noise_windows[i] = noise;
        self.data.stall_windows[i] = stalls;
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
        let rec = self.msg_mut(msg);
        rec.src = src;
        rec.dst = dst;
        rec.tag = tag;
        rec.bytes = bytes;
        rec.eager = eager;
        rec.posted_ns = Some(t_ns);
    }

    fn msg_event(&mut self, msg: u64, ev: MsgEvent, t_ns: u64) {
        let rec = self.msg_mut(msg);
        match ev {
            MsgEvent::RtsArrived => rec.rts_arrived_ns = Some(t_ns),
            MsgEvent::CtsLaunch => rec.cts_launch_ns = Some(t_ns),
            MsgEvent::CtsArrived => rec.cts_arrived_ns = Some(t_ns),
            MsgEvent::DataLaunch => rec.data_launch_ns = Some(t_ns),
            MsgEvent::Drained => rec.drained_ns = Some(t_ns),
            MsgEvent::Delivered => rec.delivered_ns = Some(t_ns),
            MsgEvent::Matched {
                posted_ns,
                unexpected,
            } => {
                rec.matched_ns = Some(t_ns);
                rec.recv_posted_ns = posted_ns;
                rec.unexpected = unexpected;
            }
            MsgEvent::RecvReady => rec.recv_ready_ns = Some(t_ns),
            MsgEvent::Dropped => rec.drops += 1,
            MsgEvent::Retransmit => rec.retransmits += 1,
            MsgEvent::Acked => rec.acked_ns = Some(t_ns),
        }
    }

    fn flow_start(&mut self, slot: u32, rec: FlowStart, links: &[u32]) {
        let idx = self.data.flows.len() as u32;
        self.data.flows.push(FlowRec {
            class: rec.class,
            msg: rec.msg,
            rank: rec.rank,
            token: rec.token,
            bytes: rec.bytes,
            links: links.to_vec(),
            launch_ns: rec.t_ns,
            drained_ns: None,
            delivered_ns: None,
        });
        let s = slot as usize;
        if self.slot_flows.len() <= s {
            self.slot_flows.resize(s + 1, u32::MAX);
        }
        self.slot_flows[s] = idx;
    }

    fn flow_drained(&mut self, slot: u32, t_ns: u64) {
        if let Some(f) = self.slot_flow_mut(slot) {
            f.drained_ns = Some(t_ns);
        }
    }

    fn flow_delivered(&mut self, slot: u32, t_ns: u64) {
        if let Some(f) = self.slot_flow_mut(slot) {
            if f.drained_ns.is_none() {
                // Zero-byte control flows skip the drain step.
                f.drained_ns = Some(t_ns);
            }
            f.delivered_ns = Some(t_ns);
        }
    }

    fn dispatch(&mut self, rank: u32, begin_ns: u64, end_ns: u64, trigger: Trigger) {
        self.data.dispatches.push(DispatchSpan {
            rank,
            begin_ns,
            end_ns,
            trigger,
        });
    }

    fn protocol(&mut self, rank: u32, begin_ns: u64, end_ns: u64, kind: ProtoKind, msg: u64) {
        self.data.protocols.push(ProtoSpan {
            rank,
            begin_ns,
            end_ns,
            kind,
            msg,
        });
    }

    fn compute(&mut self, rank: u32, token: u64, begin_ns: u64, end_ns: u64, gpu: bool) {
        self.data.computes.push(ComputeRec {
            rank,
            token,
            begin_ns,
            end_ns,
            gpu,
        });
    }

    fn phase(&mut self, rank: u32, phase: u32, begin: bool, t_ns: u64) {
        self.data.phases.push(PhaseRec {
            rank,
            phase,
            begin,
            t_ns,
        });
    }

    fn gauge(&mut self, t_ns: u64, metric: GaugeMetric, index: u32, value: f64) {
        self.data.gauges.push(GaugeRec {
            t_ns,
            metric,
            index,
            value,
        });
    }

    fn alert(&mut self, a: crate::monitor::HealthAlert) {
        self.data.alerts.push(a);
    }

    fn finish(&mut self, per_rank_finish_ns: &[u64]) -> Option<ObsData> {
        self.data.per_rank_finish_ns = per_rank_finish_ns.to_vec();
        Some(std::mem::take(&mut self.data))
    }
}

/// Static dispatch over the crate's recorders. The runtime stores this
/// instead of a bare `Box<dyn Recorder>` so every probe on the hot path
/// compiles to a predictable branch plus a direct call — an indirect
/// vtable call per probe is measurable at millions of probes per run,
/// especially on hosts with indirect-branch hardening. Sinks from
/// outside the crate still attach through the [`AnyRecorder::Dyn`] arm
/// at the old virtual-call cost.
pub enum AnyRecorder {
    /// Recording off (the default attachment).
    Null(NullRecorder),
    /// Full in-memory event recording ([`MemRecorder`]).
    Mem(Box<MemRecorder>),
    /// Bounded-memory streaming aggregation
    /// ([`StreamRecorder`](crate::stream::StreamRecorder)).
    Stream(Box<crate::stream::StreamRecorder>),
    /// Any other sink, dispatched virtually.
    Dyn(Box<dyn Recorder>),
}

/// Forward one call to whichever recorder is inside.
macro_rules! fan_out {
    ($self:ident, $r:ident => $call:expr) => {
        match $self {
            AnyRecorder::Null($r) => $call,
            AnyRecorder::Mem($r) => $call,
            AnyRecorder::Stream($r) => $call,
            AnyRecorder::Dyn($r) => $call,
        }
    };
}

impl Recorder for AnyRecorder {
    #[inline]
    fn enabled(&self) -> bool {
        fan_out!(self, r => r.enabled())
    }

    #[inline]
    fn metrics_interval(&self) -> Option<u64> {
        fan_out!(self, r => r.metrics_interval())
    }

    #[inline]
    fn meta(&mut self, nranks: u32, link_labels: Vec<String>) {
        fan_out!(self, r => r.meta(nranks, link_labels))
    }

    #[inline]
    fn link_params(&mut self, caps: Vec<f64>, lat_ns: Vec<u64>) {
        fan_out!(self, r => r.link_params(caps, lat_ns))
    }

    #[inline]
    fn rank_windows(&mut self, rank: u32, noise: Vec<(u64, u64)>, stalls: Vec<(u64, u64)>) {
        fan_out!(self, r => r.rank_windows(rank, noise, stalls))
    }

    #[inline]
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
        fan_out!(self, r => r.msg_posted(msg, src, dst, tag, bytes, eager, t_ns))
    }

    #[inline]
    fn msg_event(&mut self, msg: u64, ev: MsgEvent, t_ns: u64) {
        fan_out!(self, r => r.msg_event(msg, ev, t_ns))
    }

    #[inline]
    fn flow_start(&mut self, slot: u32, rec: FlowStart, links: &[u32]) {
        fan_out!(self, r => r.flow_start(slot, rec, links))
    }

    #[inline]
    fn flow_drained(&mut self, slot: u32, t_ns: u64) {
        fan_out!(self, r => r.flow_drained(slot, t_ns))
    }

    #[inline]
    fn flow_delivered(&mut self, slot: u32, t_ns: u64) {
        fan_out!(self, r => r.flow_delivered(slot, t_ns))
    }

    #[inline]
    fn dispatch(&mut self, rank: u32, begin_ns: u64, end_ns: u64, trigger: Trigger) {
        fan_out!(self, r => r.dispatch(rank, begin_ns, end_ns, trigger))
    }

    #[inline]
    fn protocol(&mut self, rank: u32, begin_ns: u64, end_ns: u64, kind: ProtoKind, msg: u64) {
        fan_out!(self, r => r.protocol(rank, begin_ns, end_ns, kind, msg))
    }

    #[inline]
    fn compute(&mut self, rank: u32, token: u64, begin_ns: u64, end_ns: u64, gpu: bool) {
        fan_out!(self, r => r.compute(rank, token, begin_ns, end_ns, gpu))
    }

    #[inline]
    fn phase(&mut self, rank: u32, phase: u32, begin: bool, t_ns: u64) {
        fan_out!(self, r => r.phase(rank, phase, begin, t_ns))
    }

    #[inline]
    fn gauge(&mut self, t_ns: u64, metric: GaugeMetric, index: u32, value: f64) {
        fan_out!(self, r => r.gauge(t_ns, metric, index, value))
    }

    #[inline]
    fn alert(&mut self, a: crate::monitor::HealthAlert) {
        fan_out!(self, r => r.alert(a))
    }

    fn finish(&mut self, per_rank_finish_ns: &[u64]) -> Option<ObsData> {
        fan_out!(self, r => r.finish(per_rank_finish_ns))
    }

    fn finish_summary(&mut self) -> Option<ObsSummary> {
        fan_out!(self, r => r.finish_summary())
    }

    fn flight_dump(&mut self) -> Option<String> {
        fan_out!(self, r => r.flight_dump())
    }
}

impl From<NullRecorder> for AnyRecorder {
    fn from(r: NullRecorder) -> AnyRecorder {
        AnyRecorder::Null(r)
    }
}

impl From<MemRecorder> for AnyRecorder {
    fn from(r: MemRecorder) -> AnyRecorder {
        AnyRecorder::Mem(Box::new(r))
    }
}

impl From<crate::stream::StreamRecorder> for AnyRecorder {
    fn from(r: crate::stream::StreamRecorder) -> AnyRecorder {
        AnyRecorder::Stream(Box::new(r))
    }
}

impl From<Box<MemRecorder>> for AnyRecorder {
    fn from(r: Box<MemRecorder>) -> AnyRecorder {
        AnyRecorder::Mem(r)
    }
}

impl From<Box<crate::stream::StreamRecorder>> for AnyRecorder {
    fn from(r: Box<crate::stream::StreamRecorder>) -> AnyRecorder {
        AnyRecorder::Stream(r)
    }
}

impl From<Box<dyn Recorder>> for AnyRecorder {
    fn from(r: Box<dyn Recorder>) -> AnyRecorder {
        AnyRecorder::Dyn(r)
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn null_recorder_is_disabled_and_returns_nothing() {
        let mut r = NullRecorder;
        assert!(!r.enabled());
        assert!(r.metrics_interval().is_none());
        r.dispatch(0, 0, 10, Trigger::Start);
        assert!(r.finish(&[10]).is_none());
    }

    #[test]
    fn mem_recorder_accumulates_msg_lifetime() {
        let mut r = MemRecorder::new();
        assert!(r.enabled());
        r.msg_posted(0, 1, 2, 7, 4096, true, 100);
        r.msg_event(
            0,
            MsgEvent::Matched {
                posted_ns: Some(50),
                unexpected: false,
            },
            400,
        );
        r.msg_event(0, MsgEvent::RecvReady, 400);
        let data = r.finish(&[500, 600]).unwrap();
        assert_eq!(data.msgs.len(), 1);
        let m = &data.msgs[0];
        assert_eq!((m.src, m.dst, m.bytes), (1, 2, 4096));
        assert_eq!(m.recv_posted_ns, Some(50));
        assert_eq!(m.recv_ready_ns, Some(400));
        assert!(!m.unexpected);
        assert_eq!(data.makespan_ns(), 600);
    }

    #[test]
    fn slot_reuse_tracks_the_latest_flow() {
        let mut r = MemRecorder::new();
        let start = |t| FlowStart {
            class: FlowClass::Eager,
            msg: Some(0),
            rank: 0,
            token: 0,
            bytes: 8,
            t_ns: t,
        };
        r.flow_start(3, start(10), &[1]);
        r.flow_drained(3, 20);
        r.flow_delivered(3, 25);
        r.flow_start(3, start(30), &[1]); // slot reused
        r.flow_delivered(3, 45);
        let data = r.finish(&[50]).unwrap();
        assert_eq!(data.flows.len(), 2);
        assert_eq!(data.flows[0].delivered_ns, Some(25));
        assert_eq!(data.flows[1].delivered_ns, Some(45));
        // Zero-drain flows backfill drained at delivery.
        assert_eq!(data.flows[1].drained_ns, Some(45));
    }
}
