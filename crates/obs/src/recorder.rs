//! The [`Recorder`] boundary between the runtime and the observability
//! layer, the full [`MemRecorder`], and the [`Sinks`] set the runtime
//! holds: one probe stream feeding any combination of the full
//! recording, the streaming summary, the flight ring and one external
//! sink.
//!
//! The runtime caches `enabled()` in a flag and guards every probe with
//! it, so with no sink attached each probe costs one predictable branch
//! and allocates nothing — the barometer's `fig8_quick_bcast_256`
//! scenario runs that path and must show no regression.

use crate::flight::FlightRecorder;
use crate::record::*;
use crate::stream::{ObsSummary, StreamRecorder};

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
pub trait Recorder {
    /// Should the runtime fire probes at all? Called when a sink is
    /// attached and cached by the runtime — not consulted per probe.
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

/// The fixed set of sinks one probe stream feeds: a full recording, a
/// streaming summary, a flight ring and one external sink, each
/// optional. Every probe goes to every attached sink; the crate's own
/// sinks are called directly, and only `ext` pays a virtual call. Each
/// probe site calls the fan-out instead of inlining it, which keeps the
/// runtime's hot paths small (EXPERIMENTS.md, "One recorder pipeline").
#[derive(Default)]
pub struct Sinks {
    full: Option<Box<MemRecorder>>,
    stream: Option<Box<StreamRecorder>>,
    flight: Option<Box<FlightRecorder>>,
    ext: Option<Box<dyn Recorder>>,
}

/// A sink with a slot in [`Sinks`]. Attaching a second sink of the same
/// kind replaces the first.
pub trait Sink {
    /// Put the sink into its slot.
    fn attach(self, sinks: &mut Sinks);
}

macro_rules! slots {
    ($($ty:ty => $slot:ident),*) => {$(
        impl Sink for $ty {
            fn attach(self, sinks: &mut Sinks) {
                sinks.$slot = Some(Box::new(self));
            }
        }
    )*};
}
slots!(MemRecorder => full, StreamRecorder => stream, FlightRecorder => flight);

/// A disabled external sink takes no slot: it asked for no probes.
impl Sink for Box<dyn Recorder> {
    fn attach(self, sinks: &mut Sinks) {
        sinks.ext = self.enabled().then_some(self);
    }
}

/// Forward each listed probe to every attached sink.
macro_rules! probes {
    ($($name:ident($($arg:ident: $ty:ty),*);)*) => {$(
        fn $name(&mut self, $($arg: $ty),*) {
            if let Some(r) = &mut self.full { r.$name($($arg),*); }
            if let Some(r) = &mut self.stream { r.$name($($arg),*); }
            if let Some(r) = &mut self.flight { r.$name($($arg),*); }
            if let Some(r) = &mut self.ext { r.$name($($arg),*); }
        }
    )*};
}

impl Sinks {
    /// Hand a once-per-run vector to every sink that keeps one (the
    /// flight ring does not), cloning it for all but the last.
    fn hand_out<T: Clone>(&mut self, v: T, call: impl Fn(&mut dyn Recorder, T)) {
        let full = self.full.as_deref_mut().map(|r| r as &mut dyn Recorder);
        let stream = self.stream.as_deref_mut().map(|r| r as &mut dyn Recorder);
        let mut takers: Vec<_> = [full, stream, self.ext.as_deref_mut()]
            .into_iter()
            .flatten()
            .collect();
        if let Some(last) = takers.pop() {
            for r in takers {
                call(r, v.clone());
            }
            call(last, v);
        }
    }
}

impl Recorder for Sinks {
    fn enabled(&self) -> bool {
        self.full.is_some() || self.stream.is_some() || self.flight.is_some() || self.ext.is_some()
    }

    /// The full recording's gauge interval, or else the external sink's.
    fn metrics_interval(&self) -> Option<u64> {
        let full = self.full.as_ref().and_then(|r| r.metrics_interval());
        full.or_else(|| self.ext.as_ref().and_then(|r| r.metrics_interval()))
    }

    fn meta(&mut self, nranks: u32, link_labels: Vec<String>) {
        self.hand_out(link_labels, |r, l| r.meta(nranks, l));
    }

    fn link_params(&mut self, caps: Vec<f64>, lat_ns: Vec<u64>) {
        self.hand_out((caps, lat_ns), |r, (c, l)| r.link_params(c, l));
    }

    fn rank_windows(&mut self, rank: u32, noise: Vec<(u64, u64)>, stalls: Vec<(u64, u64)>) {
        self.hand_out((noise, stalls), |r, (n, s)| r.rank_windows(rank, n, s));
    }

    probes! {
        msg_posted(msg: u64, src: u32, dst: u32, tag: u32, bytes: u64, eager: bool, t_ns: u64);
        msg_event(msg: u64, ev: MsgEvent, t_ns: u64);
        flow_start(slot: u32, rec: FlowStart, links: &[u32]);
        flow_drained(slot: u32, t_ns: u64);
        flow_delivered(slot: u32, t_ns: u64);
        dispatch(rank: u32, begin_ns: u64, end_ns: u64, trigger: Trigger);
        protocol(rank: u32, begin_ns: u64, end_ns: u64, kind: ProtoKind, msg: u64);
        compute(rank: u32, token: u64, begin_ns: u64, end_ns: u64, gpu: bool);
        phase(rank: u32, phase: u32, begin: bool, t_ns: u64);
        gauge(t_ns: u64, metric: GaugeMetric, index: u32, value: f64);
        alert(a: crate::monitor::HealthAlert);
    }

    /// Finish every sink; the full recording wins over the external one.
    fn finish(&mut self, per_rank_finish_ns: &[u64]) -> Option<ObsData> {
        let full = self
            .full
            .as_mut()
            .and_then(|r| r.finish(per_rank_finish_ns));
        if let Some(r) = &mut self.stream {
            r.finish(per_rank_finish_ns);
        }
        let ext = self.ext.as_mut().and_then(|r| r.finish(per_rank_finish_ns));
        full.or(ext)
    }

    fn finish_summary(&mut self) -> Option<ObsSummary> {
        let stream = self.stream.as_mut().and_then(|r| r.finish_summary());
        stream.or_else(|| self.ext.as_mut().and_then(|r| r.finish_summary()))
    }

    fn flight_dump(&mut self) -> Option<String> {
        let flight = self.flight.as_mut().and_then(|r| r.flight_dump());
        flight.or_else(|| self.ext.as_mut().and_then(|r| r.flight_dump()))
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn an_empty_sink_set_is_disabled_and_returns_nothing() {
        let mut r = Sinks::default();
        assert!(!r.enabled());
        assert!(r.metrics_interval().is_none());
        r.dispatch(0, 0, 10, Trigger::Start);
        assert!(r.finish(&[10]).is_none());
        assert!(r.finish_summary().is_none() && r.flight_dump().is_none());
        // A disabled external sink takes no slot.
        struct Off;
        impl Recorder for Off {}
        (Box::new(Off) as Box<dyn Recorder>).attach(&mut r);
        assert!(!r.enabled());
    }

    /// A short run's probe stream: two ranks, one eager and one
    /// rendezvous message, a compute span, a phase, a gauge and an alert.
    fn feed(r: &mut impl Recorder) -> Option<ObsData> {
        let flow = |class, msg, rank, bytes, t_ns| FlowStart {
            class,
            msg,
            rank,
            token: 0,
            bytes,
            t_ns,
        };
        r.meta(2, vec!["NicTx(0)".into(), "NicRx(1)".into()]);
        r.link_params(vec![1e10, 1e10], vec![500, 500]);
        r.dispatch(0, 0, 40, Trigger::Start);
        r.dispatch(1, 0, 30, Trigger::Start);
        r.msg_posted(0, 0, 1, 7, 64, true, 10);
        r.flow_start(0, flow(FlowClass::Eager, Some(0), 0, 64, 10), &[0, 1]);
        r.flow_drained(0, 20);
        r.flow_delivered(0, 520);
        r.msg_event(0, MsgEvent::Delivered, 520);
        let matched = MsgEvent::Matched {
            posted_ns: Some(30),
            unexpected: false,
        };
        r.msg_event(0, matched, 520);
        r.msg_event(0, MsgEvent::RecvReady, 520);
        r.dispatch(1, 520, 560, Trigger::RecvDone { msg: 0 });
        r.msg_posted(1, 1, 0, 7, 1 << 20, false, 560);
        r.flow_start(1, flow(FlowClass::Rts, Some(1), 1, 0, 560), &[1, 0]);
        r.flow_delivered(1, 1060);
        r.msg_event(1, MsgEvent::RtsArrived, 1060);
        r.protocol(0, 1060, 1100, ProtoKind::CtsSend, 1);
        r.compute(0, 3, 1100, 2100, false);
        r.phase(0, 1, true, 1100);
        r.gauge(1000, GaugeMetric::LiveFlows, 0, 1.0);
        r.alert(crate::monitor::HealthAlert {
            kind: crate::monitor::AlertKind::Straggler,
            t_ns: 2000,
            subject: 1,
            value: 3,
            threshold: 2,
        });
        r.rank_windows(0, vec![(5, 9)], Vec::new());
        r.rank_windows(1, Vec::new(), vec![(100, 200)]);
        r.finish(&[2100, 1060])
    }

    #[test]
    fn each_sink_writes_the_same_artifact_alone_and_composed() {
        let full = crate::to_json(&feed(&mut MemRecorder::with_metrics(500)).unwrap());
        let mut stream = StreamRecorder::new();
        feed(&mut stream);
        let summary = crate::summary_json(&stream.finish_summary().unwrap());
        let mut flight = FlightRecorder::new(8);
        feed(&mut flight);
        let fragment = flight.chrome_fragment();

        let mut all = Sinks::default();
        MemRecorder::with_metrics(500).attach(&mut all);
        StreamRecorder::new().attach(&mut all);
        FlightRecorder::new(8).attach(&mut all);
        (Box::new(MemRecorder::new()) as Box<dyn Recorder>).attach(&mut all);
        assert_eq!(all.metrics_interval(), Some(500));
        assert_eq!(crate::to_json(&feed(&mut all).unwrap()), full);
        assert_eq!(crate::summary_json(&all.finish_summary().unwrap()), summary);
        assert_eq!(all.flight_dump().unwrap(), fragment);
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
