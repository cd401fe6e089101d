//! Counterfactual prediction: replay a recording under a virtual
//! intervention and predict the resulting schedule.
//!
//! The engine reconstructs the full causal event graph from an
//! [`ObsData`] recording — which dispatch launched which flow, which
//! delivery woke which handler, what each handler cost in *pure* CPU
//! work (recorded durations minus recorded preemption windows) — and
//! then re-executes that graph with the same event-queue discipline the
//! simulator uses, against a real [`Network`] rebuilt from the recorded
//! link parameters and per-rank preemption [`Schedule`]s rebuilt from
//! the recorded noise/stall windows. An [`Intervention`] perturbs the
//! inputs (drop a rank's noise, rescale a link, Coz-style virtual
//! speedup of one layer) and the replay recomputes every completion
//! time downstream.
//!
//! ## Exactness contract
//!
//! The replay is *structure-preserving*: message matching outcomes
//! (posted vs unexpected) and handler triggering are taken from the
//! recording, while all timing is recomputed. Consequences:
//!
//! * A no-op intervention reproduces the recorded schedule **exactly**
//!   (bit-equal per-rank finish times) — asserted in tests and CI.
//! * An intervention that is expressible as a real simulator
//!   configuration (noise off, link rescale, stall removal) predicts
//!   the re-run exactly as long as it does not flip a matching race
//!   (an arrival overtaking its receive posting, or vice versa) or
//!   reorder two same-instant events. When a race does flip, the
//!   prediction degrades gracefully: the error is bounded by the cost
//!   difference of the flipped protocol path (one unexpected-copy /
//!   CTS handshake), not by the makespan.
//! * Recordings that contain dropped or retransmitted flows are
//!   refused — loss recovery re-randomizes (RTO jitter), so no
//!   counterfactual replay of it can be validated. Degradation-window
//!   plans are likewise out of scope (the windows are not recorded).
//!
//! Virtual-speedup interventions ([`Intervention::ScaleLayer`]) have no
//! real-config equivalent; they answer Coz-style questions ("how much
//! faster would the run be if all `Matching` work cost 20% less?") and
//! are validated indirectly through the no-op and real-config cases.

use std::collections::HashMap;
use std::collections::VecDeque;

use adapt_faults::Schedule;
use adapt_net::{FlowId, FlowScheduler, FlowSpec, Link, LinkClass, LinkId, NetStep, Network, Path};
use adapt_sim::park::ParkedBands;
use adapt_sim::queue::{EventKey, EventQueue};
use adapt_sim::time::{Duration, Time};

use crate::critical::Layer;
use crate::record::{FlowClass, ObsData, ProtoKind, Trigger};

/// A virtual change to apply to a recorded run.
#[derive(Clone, Debug, PartialEq)]
pub enum Intervention {
    /// Change nothing (must predict the recording exactly).
    Noop,
    /// Remove every rank's OS-noise windows (`--noise 0`).
    NoiseOff,
    /// Remove one rank's OS-noise windows.
    RankNoiseOff(u32),
    /// Remove every injected stall window from the fault plan.
    StallsOff,
    /// Rescale every link whose label starts with `pattern` by a
    /// *speedup* factor: capacity × `factor`, latency ÷ `factor`.
    ScaleLink {
        /// Link-label prefix (e.g. `NicTx`, `Backbone`, `NicTx(3)`).
        pattern: String,
        /// Speedup (> 1 is faster, < 1 slower). Must be positive.
        factor: f64,
    },
    /// Coz-style virtual speedup: multiply every duration charged to
    /// `layer` by `factor` (< 1 is faster). `Layer::Blocked` is derived
    /// waiting time and cannot be scaled.
    ScaleLayer {
        /// The layer whose costs are scaled.
        layer: Layer,
        /// Duration multiplier (0.8 = "20% virtual speedup").
        factor: f64,
    },
}

impl Intervention {
    /// Parse an intervention spec string:
    ///
    /// * `noop`
    /// * `noise-off`
    /// * `rank-noise-off=R`
    /// * `stalls-off`
    /// * `scale-link=PATTERN:FACTOR` (speedup: cap ×F, lat ÷F)
    /// * `scale-layer=LAYER:FACTOR` (duration multiplier)
    /// * `speedup=LAYER:PERCENT` (sugar for `scale-layer=LAYER:1-P/100`)
    pub fn parse(spec: &str) -> Result<Intervention, String> {
        let spec = spec.trim();
        if let Some((key, val)) = spec.split_once('=') {
            return match key {
                "rank-noise-off" => {
                    let r: u32 = val.parse().map_err(|_| format!("bad rank in {spec:?}"))?;
                    Ok(Intervention::RankNoiseOff(r))
                }
                "scale-link" => {
                    let (pat, f) = val
                        .split_once(':')
                        .ok_or_else(|| format!("{spec:?}: want scale-link=PATTERN:FACTOR"))?;
                    let factor: f64 = f.parse().map_err(|_| format!("bad factor in {spec:?}"))?;
                    if !factor.is_finite() || factor <= 0.0 {
                        return Err(format!("{spec:?}: factor must be positive"));
                    }
                    Ok(Intervention::ScaleLink {
                        pattern: pat.to_string(),
                        factor,
                    })
                }
                "scale-layer" => {
                    let (l, f) = val
                        .split_once(':')
                        .ok_or_else(|| format!("{spec:?}: want scale-layer=LAYER:FACTOR"))?;
                    let layer = parse_layer(l)?;
                    let factor: f64 = f.parse().map_err(|_| format!("bad factor in {spec:?}"))?;
                    if !factor.is_finite() || factor < 0.0 {
                        return Err(format!("{spec:?}: factor must be non-negative"));
                    }
                    Ok(Intervention::ScaleLayer { layer, factor })
                }
                "speedup" => {
                    let (l, p) = val
                        .split_once(':')
                        .ok_or_else(|| format!("{spec:?}: want speedup=LAYER:PERCENT"))?;
                    let layer = parse_layer(l)?;
                    let pct: f64 = p.parse().map_err(|_| format!("bad percent in {spec:?}"))?;
                    if !(0.0..=100.0).contains(&pct) {
                        return Err(format!("{spec:?}: percent must be in 0..=100"));
                    }
                    Ok(Intervention::ScaleLayer {
                        layer,
                        factor: 1.0 - pct / 100.0,
                    })
                }
                _ => Err(format!("unknown intervention {spec:?}")),
            };
        }
        match spec {
            "noop" => Ok(Intervention::Noop),
            "noise-off" => Ok(Intervention::NoiseOff),
            "stalls-off" => Ok(Intervention::StallsOff),
            _ => Err(format!("unknown intervention {spec:?}")),
        }
    }

    /// Human-readable description for reports.
    pub fn describe(&self) -> String {
        match self {
            Intervention::Noop => "no-op (replay the recording unchanged)".into(),
            Intervention::NoiseOff => "remove all OS-noise windows".into(),
            Intervention::RankNoiseOff(r) => format!("remove rank {r}'s OS-noise windows"),
            Intervention::StallsOff => "remove all injected stall windows".into(),
            Intervention::ScaleLink { pattern, factor } => {
                format!("links '{pattern}*': capacity x{factor}, latency /{factor}")
            }
            Intervention::ScaleLayer { layer, factor } => {
                format!("scale {} durations x{factor}", layer.label())
            }
        }
    }
}

/// Parse a [`Layer`] from its lowercase label.
pub fn parse_layer(s: &str) -> Result<Layer, String> {
    crate::critical::LAYERS
        .iter()
        .copied()
        .find(|l| l.label() == s)
        .ok_or_else(|| format!("unknown layer {s:?}"))
}

/// What the replay predicts for an intervened run.
#[derive(Clone, Debug, PartialEq, Eq)]
pub struct Prediction {
    /// The recording's makespan (ns).
    pub baseline_ns: u64,
    /// Predicted makespan under the intervention (ns).
    pub predicted_ns: u64,
    /// Predicted per-rank finish times (ns).
    pub per_rank_finish_ns: Vec<u64>,
}

impl Prediction {
    /// Predicted − baseline, negative for a speedup.
    pub fn delta_ns(&self) -> i64 {
        self.predicted_ns as i64 - self.baseline_ns as i64
    }

    /// Baseline / predicted (> 1 means the intervention helps).
    pub fn speedup(&self) -> f64 {
        if self.predicted_ns == 0 {
            1.0
        } else {
            self.baseline_ns as f64 / self.predicted_ns as f64
        }
    }
}

// ---------------------------------------------------------------------
// Causal-graph reconstruction
// ---------------------------------------------------------------------

/// Handler-trigger identity: mirrors [`Trigger`] as a map key.
#[derive(Clone, Copy, Debug, PartialEq, Eq, Hash)]
enum TrigKey {
    Start,
    SendDone(u64),
    RecvDone(u64),
    ComputeDone(u64),
    CopyDone(u64),
    GpuDone(u64),
}

impl From<Trigger> for TrigKey {
    fn from(t: Trigger) -> TrigKey {
        match t {
            Trigger::Start => TrigKey::Start,
            Trigger::SendDone { msg } => TrigKey::SendDone(msg),
            Trigger::RecvDone { msg } => TrigKey::RecvDone(msg),
            Trigger::ComputeDone { token } => TrigKey::ComputeDone(token),
            Trigger::CopyDone { token } => TrigKey::CopyDone(token),
            Trigger::GpuDone { token } => TrigKey::GpuDone(token),
        }
    }
}

/// One side effect of a dispatch, at a pure-work offset from its begin.
#[derive(Clone, Debug)]
enum Act {
    /// Launch recorded flow `fi` into the network.
    Launch(usize),
    /// Zero-byte send completing locally (SendDone to self).
    LocalSendDone(u64),
    /// RecvDone becomes deliverable (posted-match copy-out finished).
    CompleteRecv(u64),
    /// Synchronous compute finished.
    ComputeDone(u64),
    /// GPU-stream enqueue: serialized on the rank's stream, runs `dur`.
    Gpu { token: u64, dur: Duration },
    /// The rank's program called finish.
    Finish,
    /// Pure scaling anchor (a cost boundary with no side effect).
    Mark,
}

/// A dispatch with its side effects at layer-scaled pure-work offsets.
#[derive(Clone, Debug, Default)]
struct DispatchPlan {
    /// `(pure offset from begin, act)`, sorted by offset.
    acts: Vec<(Duration, Act)>,
    /// Pure cost of the whole handler (busy horizon advance).
    end_off: Duration,
}

/// Replay event. Mirrors the simulator's `Ev` one-to-one so the event
/// interleaving (and the queue's `(time, seq)` total order) matches the
/// original run's.
enum REv {
    /// Network engine step for a live flow.
    Net(FlowId),
    /// A protocol/data arrival at its destination rank (recorded flow
    /// index): Eager/Rts/Cts/Rndv handling.
    Arrive(usize),
    /// A completion delivery waking a handler.
    Deliver { rank: u32, key: TrigKey },
    /// Start recorded flow `fi` now.
    Launch(usize),
    /// The rank's oldest band of parked items is due.
    Wake { rank: u32 },
}

/// CPU-bound work a busy rank parks, mirroring the simulator's parked
/// CTS arrivals and completion deliveries.
enum Parked {
    /// A CTS arrived at the sender (recorded flow index): launch the
    /// rendezvous payload.
    Cts(usize),
    /// A completion wakes a handler.
    Deliver(TrigKey),
}

struct QSched<'a>(&'a mut EventQueue<REv>);

impl FlowScheduler for QSched<'_> {
    fn schedule(&mut self, at: Time, flow: FlowId) -> EventKey {
        self.0.schedule(at, REv::Net(flow))
    }
    fn cancel(&mut self, key: EventKey) {
        self.0.cancel(key);
    }
}

/// Per-layer duration multipliers (identity unless `ScaleLayer`).
#[derive(Clone, Copy, Debug)]
struct Factors {
    callback: f64,
    protocol: f64,
    matching: f64,
    compute: f64,
    gpu: f64,
    copy: f64,
    network: f64,
}

impl Factors {
    fn identity() -> Factors {
        Factors {
            callback: 1.0,
            protocol: 1.0,
            matching: 1.0,
            compute: 1.0,
            gpu: 1.0,
            copy: 1.0,
            network: 1.0,
        }
    }
}

fn scale_dur(d: Duration, f: f64) -> Duration {
    if f == 1.0 {
        d
    } else {
        Duration::from_nanos((d.as_nanos() as f64 * f).round() as u64)
    }
}

/// Predict the schedule of `data`'s run under `iv`.
///
/// See the module docs for the exactness contract. Returns an error for
/// recordings the replay cannot be faithful to: pre-what-if recordings
/// (no link parameters / windows), runs with dropped or retransmitted
/// flows, or a structural divergence during replay.
pub fn predict(data: &ObsData, iv: &Intervention) -> Result<Prediction, String> {
    Replay::build(data, iv)?.run()
}

struct Replay<'a> {
    data: &'a ObsData,
    nranks: usize,
    /// Intervened per-rank preemption schedule (noise ∪ stalls, minus
    /// whatever the intervention removed).
    sched: Vec<Schedule>,
    plans: Vec<DispatchPlan>,
    /// `(rank, trigger) → dispatch indices`, in recorded order.
    fifo: HashMap<(u32, TrigKey), VecDeque<usize>>,
    /// Scaled pure durations of protocol spans, keyed by message and
    /// kind (0 = CtsSend, 1 = DataLaunch, 2 = Unexpected).
    proto: HashMap<(u64, u8), Duration>,
    /// Per-message flow indices by class.
    cts_flow: HashMap<u64, usize>,
    rndv_flow: HashMap<u64, usize>,
    net: Network,
    factors: Factors,
    q: EventQueue<REv>,
    /// Per-rank CPU busy horizon.
    busy: Vec<Time>,
    /// Per-rank GPU-stream busy horizon.
    gpu_busy: Vec<Time>,
    finished: Vec<Option<Time>>,
    finished_count: usize,
    /// Items waiting for their rank's busy CPU, banded exactly as the
    /// simulator bands them.
    parked: ParkedBands<Parked>,
    /// Network slab slot → recorded flow index.
    net2rec: Vec<usize>,
}

impl<'a> Replay<'a> {
    fn build(data: &'a ObsData, iv: &Intervention) -> Result<Replay<'a>, String> {
        let nranks = data.nranks as usize;
        if nranks == 0 || data.dispatches.is_empty() {
            return Err("empty recording".into());
        }
        if data.link_caps.len() != data.link_labels.len() || data.link_caps.is_empty() {
            return Err("recording lacks link parameters (made before the what-if engine?)".into());
        }
        if data.noise_windows.len() != nranks || data.stall_windows.len() != nranks {
            return Err("recording lacks per-rank preemption windows".into());
        }
        let dropped: u32 = data.msgs.iter().map(|m| m.drops).sum();
        let retrans: u32 = data.msgs.iter().map(|m| m.retransmits).sum();
        if dropped > 0 || retrans > 0 {
            return Err(format!(
                "recording contains loss recovery ({dropped} drops, {retrans} retransmits); \
                 counterfactual replay is not defined for re-randomized recovery"
            ));
        }

        let mut factors = Factors::identity();
        if let Intervention::ScaleLayer { layer, factor } = iv {
            match layer {
                Layer::Callback => factors.callback = *factor,
                Layer::Protocol => factors.protocol = *factor,
                Layer::Matching => factors.matching = *factor,
                Layer::Compute => factors.compute = *factor,
                Layer::Gpu => factors.gpu = *factor,
                Layer::Copy => factors.copy = *factor,
                Layer::Network => factors.network = *factor,
                Layer::Blocked => {
                    return Err("blocked time is derived waiting; it cannot be scaled".into())
                }
            }
        }

        // Recorded (ground-truth) preemption schedules: the union of
        // noise and stall windows reproduces the simulator's composed
        // defer/finish-work arithmetic exactly. Used to strip recorded
        // timestamps down to pure work.
        let to_sched = |wins: &[(u64, u64)]| -> Vec<(Time, Time)> {
            wins.iter().map(|&(s, e)| (Time(s), Time(e))).collect()
        };
        let mut rec_sched = Vec::with_capacity(nranks);
        let mut sched = Vec::with_capacity(nranks);
        for r in 0..nranks {
            let noise = to_sched(&data.noise_windows[r]);
            let stalls = to_sched(&data.stall_windows[r]);
            let mut both = noise.clone();
            both.extend_from_slice(&stalls);
            rec_sched.push(Schedule::new(both));
            let kept: Vec<(Time, Time)> = match iv {
                Intervention::NoiseOff => stalls,
                Intervention::RankNoiseOff(rr) if *rr as usize == r => stalls,
                Intervention::StallsOff => noise,
                _ => {
                    sched.push(rec_sched[r].clone());
                    continue;
                }
            };
            sched.push(Schedule::new(kept));
        }

        // The network, rebuilt from recorded pristine parameters (the
        // class is diagnostics-only in the flow engine, so a placeholder
        // is fine — interventions select links by recorded label).
        let mut links = Vec::with_capacity(data.link_caps.len());
        for i in 0..data.link_caps.len() {
            let mut cap = data.link_caps[i];
            let mut lat = data.link_lat_ns[i] as f64;
            if let Intervention::ScaleLink { pattern, factor } = iv {
                if data.link_labels[i].starts_with(pattern.as_str()) {
                    cap *= factor;
                    lat /= factor;
                }
            }
            if factors.network != 1.0 {
                cap /= factors.network;
                lat *= factors.network;
            }
            links.push(Link {
                class: LinkClass::Backbone,
                capacity: cap,
                latency: Duration::from_nanos(lat.round() as u64),
            });
        }
        if let Intervention::ScaleLink { pattern, .. } = iv {
            if !data
                .link_labels
                .iter()
                .any(|l| l.starts_with(pattern.as_str()))
            {
                return Err(format!("no link label starts with {pattern:?}"));
            }
        }
        let net = Network::new(links);

        // Per-message flow indices. Duplicates mean retransmission.
        let mut eager_flow = HashMap::new();
        let mut rts_flow = HashMap::new();
        let mut cts_flow = HashMap::new();
        let mut rndv_flow = HashMap::new();
        for (fi, f) in data.flows.iter().enumerate() {
            let map = match f.class {
                FlowClass::Eager => &mut eager_flow,
                FlowClass::Rts => &mut rts_flow,
                FlowClass::Cts => &mut cts_flow,
                FlowClass::Rndv => &mut rndv_flow,
                FlowClass::Copy | FlowClass::Ack => continue,
            };
            let m = f.msg.ok_or("protocol flow without a message")?;
            if map.insert(m, fi).is_some() {
                return Err(format!(
                    "message {m} has duplicate {} flows (retransmission?)",
                    f.class.label()
                ));
            }
        }

        // Scaled pure protocol-span durations.
        let mut proto = HashMap::new();
        for p in &data.protocols {
            let pure = rec_sched[p.rank as usize].work_in(Time(p.begin_ns), Time(p.end_ns));
            let (k, f) = match p.kind {
                ProtoKind::CtsSend => (0u8, factors.protocol),
                ProtoKind::DataLaunch => (1, factors.protocol),
                ProtoKind::Unexpected => (2, factors.protocol),
            };
            proto.insert((p.msg, k), scale_dur(pure, f));
        }

        // --- Rebuild per-dispatch action lists -------------------------
        // Dispatches are serialized per rank (next begin ≥ previous end)
        // and every anchored side effect lands at finish_work(begin, c)
        // with cost c > 0, i.e. strictly inside (begin, end]. Assignment
        // by binary search over the rank's dispatch list is therefore
        // unambiguous.
        let mut by_rank: Vec<Vec<usize>> = vec![Vec::new(); nranks];
        for (di, d) in data.dispatches.iter().enumerate() {
            by_rank[d.rank as usize].push(di);
        }
        for list in &mut by_rank {
            list.sort_by_key(|&di| data.dispatches[di].begin_ns);
        }
        let assign = |rank: u32, t_ns: u64| -> Result<usize, String> {
            let list = &by_rank[rank as usize];
            // Last dispatch with begin < t.
            let i = list.partition_point(|&di| data.dispatches[di].begin_ns < t_ns);
            if i == 0 {
                return Err(format!("no dispatch on rank {rank} contains t={t_ns}ns"));
            }
            let di = list[i - 1];
            if t_ns > data.dispatches[di].end_ns {
                return Err(format!(
                    "t={t_ns}ns on rank {rank} falls between dispatches"
                ));
            }
            Ok(di)
        };

        // Raw (unscaled) actions per dispatch, with the layer the cost
        // delta leading to each anchor belongs to.
        #[derive(Clone, Copy, PartialEq)]
        enum DeltaLayer {
            Callback,
            Protocol,
            Matching,
            Compute,
        }
        let mut raw: Vec<Vec<(u64, u32, DeltaLayer, Act)>> =
            vec![Vec::new(); data.dispatches.len()];
        let mut push = |di: usize, t_ns: u64, seq: u32, dl: DeltaLayer, act: Act| {
            raw[di].push((t_ns, seq, dl, act));
        };

        for (mi, m) in data.msgs.iter().enumerate() {
            let m_id = mi as u64;
            // The send side.
            let posted = m
                .posted_ns
                .ok_or_else(|| format!("message {m_id} has no posting time"))?;
            let di = assign(m.src, posted)?;
            if m.eager {
                let fi = *eager_flow
                    .get(&m_id)
                    .ok_or_else(|| format!("message {m_id}: eager flow missing"))?;
                push(di, posted, 0, DeltaLayer::Callback, Act::Launch(fi));
                if m.bytes == 0 {
                    push(
                        di,
                        posted,
                        1,
                        DeltaLayer::Callback,
                        Act::LocalSendDone(m_id),
                    );
                }
            } else {
                let fi = *rts_flow
                    .get(&m_id)
                    .ok_or_else(|| format!("message {m_id}: RTS flow missing"))?;
                push(di, posted, 0, DeltaLayer::Callback, Act::Launch(fi));
            }
            // The receive side.
            if let Some(rp) = m.recv_posted_ns {
                let di = assign(m.dst, rp)?;
                push(di, rp, 0, DeltaLayer::Callback, Act::Mark);
                if m.unexpected && m.eager {
                    // Unexpected-queue copy-out; RecvDone at its end.
                    let ready = m.recv_ready_ns.ok_or_else(|| {
                        format!("message {m_id}: unexpected eager without recv_ready")
                    })?;
                    push(di, ready, 1, DeltaLayer::Matching, Act::CompleteRecv(m_id));
                } else if m.unexpected {
                    // Pending-RTS match: CTS handshake runs inside the
                    // posting dispatch.
                    let cts = m.cts_launch_ns.ok_or_else(|| {
                        format!("message {m_id}: unexpected rendezvous without CTS launch")
                    })?;
                    let fi = *cts_flow
                        .get(&m_id)
                        .ok_or_else(|| format!("message {m_id}: CTS flow missing"))?;
                    push(di, cts, 1, DeltaLayer::Protocol, Act::Launch(fi));
                }
            }
        }
        for c in &data.computes {
            if c.gpu {
                // The stream-enqueue instant is not recorded; anchoring
                // at the recorded start is exact whenever the stream was
                // idle (the common case) and an approximation otherwise.
                let di = assign_gpu(&by_rank, data, c.rank, c.begin_ns)?;
                let dur = scale_dur(Duration::from_nanos(c.end_ns - c.begin_ns), factors.gpu);
                push(
                    di,
                    c.begin_ns.min(data.dispatches[di].end_ns),
                    0,
                    DeltaLayer::Callback,
                    Act::Gpu {
                        token: c.token,
                        dur,
                    },
                );
            } else {
                let di = assign(c.rank, c.begin_ns)?;
                push(di, c.begin_ns, 0, DeltaLayer::Callback, Act::Mark);
                push(
                    di,
                    c.end_ns,
                    1,
                    DeltaLayer::Compute,
                    Act::ComputeDone(c.token),
                );
            }
        }
        for (fi, f) in data.flows.iter().enumerate() {
            if f.class == FlowClass::Copy {
                let di = assign(f.rank, f.launch_ns)?;
                push(di, f.launch_ns, 0, DeltaLayer::Callback, Act::Launch(fi));
            }
        }
        if data.per_rank_finish_ns.len() != nranks {
            return Err("recording lacks per-rank finish times".into());
        }
        for (r, &f) in data.per_rank_finish_ns.iter().enumerate() {
            let di = assign(r as u32, f)?;
            push(di, f, 0, DeltaLayer::Callback, Act::Finish);
        }

        // Convert anchors to layer-scaled pure offsets from each
        // dispatch begin. Pure deltas between consecutive anchors are
        // scaled by the layer that caused the delta, then re-accumulated.
        let mut plans = Vec::with_capacity(data.dispatches.len());
        for (di, d) in data.dispatches.iter().enumerate() {
            let rs = &rec_sched[d.rank as usize];
            let begin = Time(d.begin_ns);
            let mut items = std::mem::take(&mut raw[di]);
            items.sort_by_key(|&(t, seq, _, _)| (t, seq));
            let mut acts = Vec::with_capacity(items.len());
            let mut prev_pure = Duration::ZERO;
            let mut prev_scaled = Duration::ZERO;
            for (t_ns, _, dl, act) in items {
                let pure = rs.work_in(begin, Time(t_ns));
                let delta =
                    Duration::from_nanos(pure.as_nanos().saturating_sub(prev_pure.as_nanos()));
                let f = match dl {
                    DeltaLayer::Callback => factors.callback,
                    DeltaLayer::Protocol => factors.protocol,
                    DeltaLayer::Matching => factors.matching,
                    DeltaLayer::Compute => factors.compute,
                };
                let scaled = prev_scaled + scale_dur(delta, f);
                prev_pure = prev_pure.max(pure);
                prev_scaled = scaled;
                acts.push((scaled, act));
            }
            let total = rs.work_in(begin, Time(d.end_ns));
            let tail = Duration::from_nanos(total.as_nanos().saturating_sub(prev_pure.as_nanos()));
            let end_off = prev_scaled + scale_dur(tail, factors.callback);
            plans.push(DispatchPlan { acts, end_off });
        }

        let mut fifo: HashMap<(u32, TrigKey), VecDeque<usize>> = HashMap::new();
        for (di, d) in data.dispatches.iter().enumerate() {
            fifo.entry((d.rank, d.trigger.into()))
                .or_default()
                .push_back(di);
        }

        Ok(Replay {
            data,
            nranks,
            sched,
            plans,
            fifo,
            proto,
            cts_flow,
            rndv_flow,
            net,
            factors,
            q: EventQueue::new(),
            busy: vec![Time::ZERO; nranks],
            gpu_busy: vec![Time::ZERO; nranks],
            finished: vec![None; nranks],
            finished_count: 0,
            parked: ParkedBands::new(nranks),
            net2rec: Vec::new(),
        })
    }

    fn run(mut self) -> Result<Prediction, String> {
        let data = self.data;
        for r in 0..self.nranks {
            self.q.schedule(
                Time::ZERO,
                REv::Deliver {
                    rank: r as u32,
                    key: TrigKey::Start,
                },
            );
        }

        // Generous cap: structural divergence must not hang the caller.
        let max_events = 64 * (data.dispatches.len() + data.flows.len() + 16) as u64;
        let mut events = 0u64;
        while let Some((t, ev)) = self.q.pop() {
            events += 1;
            if events > max_events {
                return Err("replay exceeded its event budget (structural divergence?)".into());
            }
            match ev {
                REv::Net(fid) => self.on_net(t, fid)?,
                REv::Launch(fi) => self.launch(t, fi),
                REv::Arrive(fi) => self.arrive(t, fi)?,
                REv::Deliver { rank, key } => self.step(t, rank, Parked::Deliver(key))?,
                REv::Wake { rank } => self.wake(t, rank)?,
            }
            if self.finished_count == self.nranks {
                break;
            }
        }

        if self.finished_count != self.nranks {
            return Err(format!(
                "replay deadlocked: {} of {} ranks finished (structural divergence)",
                self.finished_count, self.nranks
            ));
        }
        let per_rank: Vec<u64> = self
            .finished
            .iter()
            .map(|f| f.expect("all finished").as_nanos())
            .collect();
        let predicted = per_rank.iter().copied().max().unwrap_or(0);
        Ok(Prediction {
            baseline_ns: data.makespan_ns(),
            predicted_ns: predicted,
            per_rank_finish_ns: per_rank,
        })
    }

    fn cpu_ready(&self, rank: usize, t: Time) -> Time {
        self.sched[rank].defer(t.max(self.busy[rank]))
    }

    fn on_net(&mut self, t: Time, fid: FlowId) -> Result<(), String> {
        let data = self.data;
        let mut sched = QSched(&mut self.q);
        match self.net.handle_event(t, fid, &mut sched) {
            NetStep::Progress => {}
            NetStep::Drained { flow, .. } => {
                let f = &data.flows[self.net2rec[flow.0 as usize]];
                if matches!(f.class, FlowClass::Eager | FlowClass::Rndv) {
                    let m = f.msg.expect("data flow has a message");
                    self.q.schedule(
                        t,
                        REv::Deliver {
                            rank: data.msgs[m as usize].src,
                            key: TrigKey::SendDone(m),
                        },
                    );
                }
            }
            NetStep::Delivered(d) => {
                let fi = self.net2rec[d.flow.0 as usize];
                let f = &data.flows[fi];
                let ev = match f.class {
                    FlowClass::Copy => REv::Deliver {
                        rank: f.rank,
                        key: TrigKey::CopyDone(f.token),
                    },
                    _ => REv::Arrive(fi),
                };
                self.q.schedule(t, ev);
            }
            NetStep::Dropped(_) => return Err("replayed network dropped a flow".into()),
        }
        Ok(())
    }

    fn launch(&mut self, t: Time, fi: usize) {
        let f = &self.data.flows[fi];
        let links: Vec<LinkId> = f.links.iter().map(|&l| LinkId(l)).collect();
        let bytes = if f.class == FlowClass::Copy {
            scale_dur(Duration::from_nanos(f.bytes), self.factors.copy).as_nanos()
        } else {
            f.bytes
        };
        let mut sched = QSched(&mut self.q);
        let fid = self.net.start_flow(
            t,
            FlowSpec {
                path: Path::new(&links),
                bytes,
                tag: 0,
            },
            &mut sched,
        );
        let slot = fid.0 as usize;
        if self.net2rec.len() <= slot {
            self.net2rec.resize(slot + 1, usize::MAX);
        }
        self.net2rec[slot] = fi;
    }

    /// A protocol or data flow reached its destination. Matching-side
    /// work happens at arrival time; only the CTS takes the CPU path.
    fn arrive(&mut self, t: Time, fi: usize) -> Result<(), String> {
        let f = &self.data.flows[fi];
        let m = f.msg.expect("protocol flow has a message") as usize;
        let mr = &self.data.msgs[m];
        let dst = mr.dst as usize;
        match f.class {
            FlowClass::Cts => return self.step(t, mr.src, Parked::Cts(fi)),
            _ if self.finished[dst].is_some() => {}
            FlowClass::Eager | FlowClass::Rts if mr.unexpected => {
                // Unexpected-queue insertion: protocol work at cpu_ready.
                let e = self.cpu_ready(dst, t);
                let pure = self.proto_cost(m, 2);
                self.busy[dst] = self.sched[dst].finish_work(e, pure);
            }
            FlowClass::Eager | FlowClass::Rndv => {
                self.q.schedule(
                    t,
                    REv::Deliver {
                        rank: mr.dst,
                        key: TrigKey::RecvDone(m as u64),
                    },
                );
            }
            FlowClass::Rts => {
                // Posted match: CTS handshake at cpu_ready.
                let e = self.cpu_ready(dst, t);
                let end = self.sched[dst].finish_work(e, self.proto_cost(m, 0));
                self.busy[dst] = end;
                let cfi = *self
                    .cts_flow
                    .get(&(m as u64))
                    .ok_or_else(|| format!("message {m}: CTS flow missing"))?;
                self.q.schedule(end, REv::Launch(cfi));
            }
            FlowClass::Copy | FlowClass::Ack => {
                unreachable!("copies/acks never take the arrival path")
            }
        }
        Ok(())
    }

    /// Scaled pure duration of message `m`'s protocol span of kind `k`.
    fn proto_cost(&self, m: usize, k: u8) -> Duration {
        self.proto
            .get(&(m as u64, k))
            .copied()
            .unwrap_or(Duration::ZERO)
    }

    /// CPU-bound work reached `rank`: run it now, or park it behind the
    /// busy CPU exactly as the simulator does.
    fn step(&mut self, t: Time, rank: u32, item: Parked) -> Result<(), String> {
        let r = rank as usize;
        if self.finished[r].is_some() {
            return Ok(());
        }
        let ready = self.cpu_ready(r, t);
        if ready > t {
            if self.parked.park(r, ready, item) {
                self.q.schedule(ready, REv::Wake { rank });
            }
            return Ok(());
        }
        self.serve(t, rank, item)
    }

    /// A band fell due: serve it while the CPU stays ready, re-park the
    /// rest as one block.
    fn wake(&mut self, t: Time, rank: u32) -> Result<(), String> {
        let r = rank as usize;
        while self.parked.next_wake(r) == Some(t) {
            if self.finished[r].is_some() {
                self.parked.pop(r);
                continue;
            }
            let ready = self.cpu_ready(r, t);
            if ready > t {
                if self.parked.repark(r, ready) {
                    self.q.schedule(ready, REv::Wake { rank });
                }
                return Ok(());
            }
            let item = self.parked.pop(r).expect("a due band is non-empty");
            self.serve(t, rank, item)?;
        }
        Ok(())
    }

    /// Run a parked-or-ready item on a ready, unfinished rank.
    fn serve(&mut self, t: Time, rank: u32, item: Parked) -> Result<(), String> {
        let r = rank as usize;
        let key = match item {
            Parked::Cts(fi) => {
                // Sender side: launch the rendezvous payload.
                let m = self.data.flows[fi]
                    .msg
                    .expect("protocol flow has a message");
                let end = self.sched[r].finish_work(t, self.proto_cost(m as usize, 1));
                self.busy[r] = end;
                let rfi = *self
                    .rndv_flow
                    .get(&m)
                    .ok_or_else(|| format!("message {m}: payload flow missing"))?;
                self.q.schedule(end, REv::Launch(rfi));
                return Ok(());
            }
            Parked::Deliver(key) => key,
        };
        let di = self
            .fifo
            .get_mut(&(rank, key))
            .and_then(|f| f.pop_front())
            .ok_or_else(|| format!("rank {rank}: no recorded dispatch for {key:?} (divergence)"))?;
        let plan = &self.plans[di];
        for (off, act) in &plan.acts {
            let at = self.sched[r].finish_work(t, *off);
            let deliver = |key| REv::Deliver { rank, key };
            match act {
                Act::Launch(fi) => {
                    self.q.schedule(at, REv::Launch(*fi));
                }
                Act::LocalSendDone(m) => {
                    self.q.schedule(at, deliver(TrigKey::SendDone(*m)));
                }
                Act::CompleteRecv(m) => {
                    self.q.schedule(at, deliver(TrigKey::RecvDone(*m)));
                }
                Act::ComputeDone(tok) => {
                    self.q.schedule(at, deliver(TrigKey::ComputeDone(*tok)));
                }
                Act::Gpu { token, dur } => {
                    let start = self.gpu_busy[r].max(at);
                    let done = start + *dur;
                    self.gpu_busy[r] = done;
                    self.q.schedule(
                        done,
                        REv::Deliver {
                            rank,
                            key: TrigKey::GpuDone(*token),
                        },
                    );
                }
                Act::Finish => {
                    if self.finished[r].is_none() {
                        self.finished[r] = Some(at);
                        self.finished_count += 1;
                    }
                }
                Act::Mark => {}
            }
        }
        let end = self.sched[r].finish_work(t, plan.end_off);
        self.busy[r] = self.busy[r].max(end);
        Ok(())
    }
}

/// Dispatch assignment for a GPU span: the recorded begin is the stream
/// start (`max(enqueue, stream busy)`), which can postdate the enqueuing
/// dispatch. Fall back to the last dispatch beginning before it.
fn assign_gpu(
    by_rank: &[Vec<usize>],
    data: &ObsData,
    rank: u32,
    begin_ns: u64,
) -> Result<usize, String> {
    let list = &by_rank[rank as usize];
    let i = list.partition_point(|&di| data.dispatches[di].begin_ns < begin_ns);
    if i == 0 {
        return Err(format!("gpu span on rank {rank} precedes every dispatch"));
    }
    Ok(list[i - 1])
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn parse_round_trips() {
        assert_eq!(Intervention::parse("noop").unwrap(), Intervention::Noop);
        assert_eq!(
            Intervention::parse("noise-off").unwrap(),
            Intervention::NoiseOff
        );
        assert_eq!(
            Intervention::parse("rank-noise-off=7").unwrap(),
            Intervention::RankNoiseOff(7)
        );
        assert_eq!(
            Intervention::parse("stalls-off").unwrap(),
            Intervention::StallsOff
        );
        assert_eq!(
            Intervention::parse("scale-link=NicTx:2").unwrap(),
            Intervention::ScaleLink {
                pattern: "NicTx".into(),
                factor: 2.0
            }
        );
        match Intervention::parse("speedup=network:20").unwrap() {
            Intervention::ScaleLayer { layer, factor } => {
                assert_eq!(layer, Layer::Network);
                assert!((factor - 0.8).abs() < 1e-12);
            }
            other => panic!("unexpected {other:?}"),
        }
        assert!(Intervention::parse("bogus").is_err());
        assert!(Intervention::parse("scale-link=NicTx:-1").is_err());
        assert!(Intervention::parse("speedup=blocked:200").is_err());
    }

    #[test]
    fn refuses_pre_whatif_recordings() {
        let data = ObsData {
            nranks: 2,
            ..ObsData::default()
        };
        assert!(predict(&data, &Intervention::Noop).is_err());
    }

    #[test]
    fn blocked_layer_cannot_be_scaled() {
        let mut data = ObsData {
            nranks: 1,
            link_labels: vec!["Backbone".into()],
            link_caps: vec![1e9],
            link_lat_ns: vec![100],
            noise_windows: vec![vec![]],
            stall_windows: vec![vec![]],
            per_rank_finish_ns: vec![10],
            ..ObsData::default()
        };
        data.dispatches.push(crate::record::DispatchSpan {
            rank: 0,
            begin_ns: 0,
            end_ns: 10,
            trigger: Trigger::Start,
        });
        let err = predict(
            &data,
            &Intervention::ScaleLayer {
                layer: Layer::Blocked,
                factor: 0.5,
            },
        )
        .unwrap_err();
        assert!(err.contains("cannot be scaled"), "{err}");
    }
}
