//! Critical-path analysis over recorded span causality.
//!
//! [`critical_path`] starts at the last rank to finish and walks
//! backwards: from each handler dispatch to the event that triggered it
//! (a drained send, a delivered message, a finished compute …), across
//! the network to the rank that caused *that*, and so on until the
//! initial `Start` dispatch. The result is a causally connected chain of
//! segments, each attributed to a layer (callback compute, protocol
//! work, matching, network transfer, compute, blocked waiting), tiled so
//! the segment durations sum exactly to the makespan.

use std::collections::HashMap;

use crate::record::{FlowClass, ObsData, ProtoKind, Trigger};

/// Which layer of the stack a critical-path segment charges time to.
#[derive(Clone, Copy, Debug, PartialEq, Eq, PartialOrd, Ord, Hash)]
pub enum Layer {
    /// Program handler execution (dispatch spans, includes posted
    /// operation overheads and inline synchronous compute).
    Callback,
    /// Progress-engine protocol work (CTS send, data launch,
    /// unexpected-queue bookkeeping).
    Protocol,
    /// Unexpected-message matching and copy-out on the receiver.
    Matching,
    /// Time on the wire: RTS/CTS control and payload flows.
    Network,
    /// Asynchronous CPU compute.
    Compute,
    /// GPU-stream work.
    Gpu,
    /// Local asynchronous copies (staging DMA).
    Copy,
    /// Gaps: the chain's rank was waiting (or doing off-path work) with
    /// nothing on the critical chain running.
    Blocked,
}

/// Every layer, in report order.
pub const LAYERS: [Layer; 8] = [
    Layer::Callback,
    Layer::Protocol,
    Layer::Matching,
    Layer::Network,
    Layer::Compute,
    Layer::Gpu,
    Layer::Copy,
    Layer::Blocked,
];

impl Layer {
    /// Stable lowercase label.
    pub fn label(&self) -> &'static str {
        match self {
            Layer::Callback => "callback",
            Layer::Protocol => "protocol",
            Layer::Matching => "matching",
            Layer::Network => "network",
            Layer::Compute => "compute",
            Layer::Gpu => "gpu",
            Layer::Copy => "copy",
            Layer::Blocked => "blocked",
        }
    }
}

/// One tile of the critical path.
#[derive(Clone, Debug, PartialEq, Eq)]
pub struct Segment {
    /// Rank the segment runs on (for network segments: the initiating
    /// rank).
    pub rank: u32,
    /// Tile start (ns).
    pub begin_ns: u64,
    /// Tile end (ns).
    pub end_ns: u64,
    /// Layer charged.
    pub layer: Layer,
    /// Human-readable description of what ran.
    pub what: String,
}

impl Segment {
    /// Tile duration in nanoseconds.
    pub fn dur_ns(&self) -> u64 {
        self.end_ns - self.begin_ns
    }
}

/// The critical-path report: a chronological chain of segments tiling
/// `[0, makespan]` exactly.
#[derive(Clone, Debug, Default)]
pub struct CriticalPath {
    /// The run's makespan (ns).
    pub makespan_ns: u64,
    /// The last rank to finish (the walk's starting point).
    pub last_rank: u32,
    /// Chronological, non-overlapping, gap-free segments covering
    /// `[0, makespan]`.
    pub segments: Vec<Segment>,
}

impl CriticalPath {
    /// Sum of segment durations — equals `makespan_ns` by construction.
    pub fn total_ns(&self) -> u64 {
        self.segments.iter().map(Segment::dur_ns).sum()
    }

    /// Nanoseconds attributed to each layer, in [`LAYERS`] order.
    pub fn layer_totals(&self) -> Vec<(Layer, u64)> {
        LAYERS
            .iter()
            .map(|&l| {
                (
                    l,
                    self.segments
                        .iter()
                        .filter(|s| s.layer == l)
                        .map(Segment::dur_ns)
                        .sum(),
                )
            })
            .collect()
    }

    /// The `k` longest segments, longest first (ties: earliest first).
    pub fn longest_segments(&self, k: usize) -> Vec<&Segment> {
        let mut v: Vec<&Segment> = self.segments.iter().collect();
        v.sort_by_key(|s| (std::cmp::Reverse(s.dur_ns()), s.begin_ns));
        v.truncate(k);
        v
    }

    /// Render the report as human-readable text.
    pub fn render(&self) -> String {
        let mut out = String::new();
        out.push_str(&format!(
            "critical path: rank {} finished last at {:.3} us; {} segments\n",
            self.last_rank,
            self.makespan_ns as f64 / 1000.0,
            self.segments.len()
        ));
        out.push_str("layer attribution:\n");
        for (layer, ns) in self.layer_totals() {
            if ns == 0 {
                continue;
            }
            let pct = if self.makespan_ns > 0 {
                100.0 * ns as f64 / self.makespan_ns as f64
            } else {
                0.0
            };
            out.push_str(&format!(
                "  {:<9} {:>12.3} us  {:>5.1}%\n",
                layer.label(),
                ns as f64 / 1000.0,
                pct
            ));
        }
        let top = self.longest_segments(5);
        if !top.is_empty() {
            out.push_str(&format!("longest segments (top {}):\n", top.len()));
            for s in top {
                out.push_str(&format!(
                    "  {:>12.3} us  [{:>12.3} .. {:>12.3}]  rank {:<4} {:<9} {}\n",
                    s.dur_ns() as f64 / 1000.0,
                    s.begin_ns as f64 / 1000.0,
                    s.end_ns as f64 / 1000.0,
                    s.rank,
                    s.layer.label(),
                    s.what
                ));
            }
        }
        out.push_str("chain (chronological):\n");
        const SHOW: usize = 80;
        for s in self.segments.iter().take(SHOW) {
            out.push_str(&format!(
                "  [{:>12.3} .. {:>12.3}] us  rank {:<4} {:<9} {}\n",
                s.begin_ns as f64 / 1000.0,
                s.end_ns as f64 / 1000.0,
                s.rank,
                s.layer.label(),
                s.what
            ));
        }
        if self.segments.len() > SHOW {
            out.push_str(&format!(
                "  ... {} more segments\n",
                self.segments.len() - SHOW
            ));
        }
        out
    }
}

#[derive(Clone, Copy)]
enum SpanKind {
    Disp(usize),
    Proto(usize),
}

/// Walk span causality backwards from the last completing rank and
/// return the tiled critical-path report.
pub fn critical_path(data: &ObsData) -> CriticalPath {
    let makespan = data.makespan_ns();
    let last_rank = data
        .per_rank_finish_ns
        .iter()
        .enumerate()
        .max_by_key(|&(i, &t)| (t, std::cmp::Reverse(i)))
        .map(|(i, _)| i as u32)
        .unwrap_or(0);

    // Per-rank CPU spans (dispatch + protocol), sorted by begin.
    let nranks = data.nranks.max(data.per_rank_finish_ns.len() as u32) as usize;
    let mut per_rank: Vec<Vec<(u64, u64, SpanKind)>> = vec![Vec::new(); nranks];
    for (i, d) in data.dispatches.iter().enumerate() {
        if (d.rank as usize) < nranks {
            per_rank[d.rank as usize].push((d.begin_ns, d.end_ns, SpanKind::Disp(i)));
        }
    }
    for (i, p) in data.protocols.iter().enumerate() {
        if (p.rank as usize) < nranks {
            per_rank[p.rank as usize].push((p.begin_ns, p.end_ns, SpanKind::Proto(i)));
        }
    }
    for spans in &mut per_rank {
        spans.sort_by_key(|&(b, e, _)| (b, e));
    }

    // Flow lookups by message / by copy token.
    let nmsgs = data.msgs.len();
    let mut data_flow: Vec<Option<usize>> = vec![None; nmsgs];
    let mut rts_flow: Vec<Option<usize>> = vec![None; nmsgs];
    let mut cts_flow: Vec<Option<usize>> = vec![None; nmsgs];
    let mut copies: HashMap<(u32, u64), Vec<usize>> = HashMap::new();
    for (i, f) in data.flows.iter().enumerate() {
        match (f.class, f.msg) {
            (FlowClass::Eager | FlowClass::Rndv, Some(m)) if (m as usize) < nmsgs => {
                data_flow[m as usize] = Some(i)
            }
            (FlowClass::Rts, Some(m)) if (m as usize) < nmsgs => rts_flow[m as usize] = Some(i),
            (FlowClass::Cts, Some(m)) if (m as usize) < nmsgs => cts_flow[m as usize] = Some(i),
            (FlowClass::Copy, _) => copies.entry((f.rank, f.token)).or_default().push(i),
            _ => {}
        }
    }
    let mut computes: HashMap<(u32, u64), Vec<usize>> = HashMap::new();
    for (i, c) in data.computes.iter().enumerate() {
        computes.entry((c.rank, c.token)).or_default().push(i);
    }

    // Latest CPU span on `rank` beginning strictly before `cursor`.
    let latest_span = |rank: u32, cursor: u64| -> Option<(u64, u64, SpanKind)> {
        let spans = per_rank.get(rank as usize)?;
        let idx = spans.partition_point(|&(b, _, _)| b < cursor);
        (idx > 0).then(|| spans[idx - 1])
    };
    // Latest entry in `list` whose key time is strictly before `cursor`.
    let latest_before = |list: Option<&Vec<usize>>, cursor: u64, key: &dyn Fn(usize) -> u64| {
        list.and_then(|v| v.iter().rev().copied().find(|&i| key(i) < cursor))
    };

    // The backward walk. `rev` collects segments newest-first.
    let mut rev: Vec<Segment> = Vec::new();
    let mut rank = last_rank;
    let mut cursor = makespan;
    let limit = data.dispatches.len() + data.protocols.len() + data.flows.len() + 16;
    for _ in 0..limit {
        if cursor == 0 {
            break;
        }
        let Some((begin, end, kind)) = latest_span(rank, cursor) else {
            break;
        };
        let prev_cursor = cursor;
        match kind {
            SpanKind::Disp(i) => {
                let d = &data.dispatches[i];
                rev.push(Segment {
                    rank,
                    begin_ns: begin,
                    end_ns: end.min(cursor),
                    layer: Layer::Callback,
                    what: d.trigger.label().to_string(),
                });
                cursor = begin;
                match d.trigger {
                    // The failure detector is not recorded: the time
                    // before a revoke handler is waiting.
                    Trigger::Start | Trigger::PeerFailed { .. } => break,
                    Trigger::ComputeDone { token } | Trigger::GpuDone { token } => {
                        if let Some(ci) =
                            latest_before(computes.get(&(rank, token)), cursor, &|i| {
                                data.computes[i].begin_ns
                            })
                        {
                            let c = &data.computes[ci];
                            rev.push(Segment {
                                rank,
                                begin_ns: c.begin_ns,
                                end_ns: c.end_ns.min(cursor),
                                layer: if c.gpu { Layer::Gpu } else { Layer::Compute },
                                what: format!("token {token}"),
                            });
                            cursor = c.begin_ns;
                        }
                    }
                    Trigger::CopyDone { token } => {
                        if let Some(fi) = latest_before(copies.get(&(rank, token)), cursor, &|i| {
                            data.flows[i].launch_ns
                        }) {
                            let f = &data.flows[fi];
                            rev.push(Segment {
                                rank,
                                begin_ns: f.launch_ns,
                                end_ns: f.delivered_ns.unwrap_or(cursor).min(cursor),
                                layer: Layer::Copy,
                                what: format!("copy token {token}"),
                            });
                            cursor = f.launch_ns;
                        }
                    }
                    Trigger::SendDone { msg } => {
                        if let Some(fi) = data_flow.get(msg as usize).copied().flatten() {
                            let f = &data.flows[fi];
                            if f.launch_ns < cursor {
                                rev.push(Segment {
                                    rank,
                                    begin_ns: f.launch_ns,
                                    end_ns: f.drained_ns.unwrap_or(cursor).min(cursor),
                                    layer: Layer::Network,
                                    what: format!("drain m{msg}"),
                                });
                                cursor = f.launch_ns;
                            }
                        }
                    }
                    Trigger::RecvDone { msg } => {
                        let m = &data.msgs[msg as usize];
                        if m.unexpected && m.eager {
                            // The gate was the local receive post: the
                            // copy-out from the unexpected queue runs
                            // between match and readiness.
                            if let (Some(ma), Some(rr)) = (m.matched_ns, m.recv_ready_ns) {
                                if ma < cursor {
                                    rev.push(Segment {
                                        rank,
                                        begin_ns: ma,
                                        end_ns: rr.min(cursor),
                                        layer: Layer::Matching,
                                        what: format!("unexpected copy m{msg}"),
                                    });
                                    cursor = ma;
                                }
                            }
                        } else if let Some(fi) = data_flow.get(msg as usize).copied().flatten() {
                            // The gate was the wire: follow the payload
                            // back to the sender.
                            let f = &data.flows[fi];
                            if f.launch_ns < cursor {
                                rev.push(Segment {
                                    rank: m.src,
                                    begin_ns: f.launch_ns,
                                    end_ns: f.delivered_ns.unwrap_or(cursor).min(cursor),
                                    layer: Layer::Network,
                                    what: format!("deliver m{msg} ({} B)", m.bytes),
                                });
                                rank = m.src;
                                cursor = f.launch_ns;
                            }
                        }
                    }
                }
            }
            SpanKind::Proto(i) => {
                let p = &data.protocols[i];
                rev.push(Segment {
                    rank,
                    begin_ns: begin,
                    end_ns: end.min(cursor),
                    layer: Layer::Protocol,
                    what: format!("{} m{}", p.kind.label(), p.msg),
                });
                cursor = begin;
                let m = &data.msgs[p.msg as usize];
                let arrival = match p.kind {
                    // Caused by the CTS arriving from the receiver.
                    ProtoKind::DataLaunch => cts_flow
                        .get(p.msg as usize)
                        .copied()
                        .flatten()
                        .map(|fi| (fi, m.dst)),
                    // Caused by the RTS arriving — unless the message sat
                    // unexpected, in which case the local receive post
                    // (the enclosing dispatch) is the cause.
                    ProtoKind::CtsSend if !m.unexpected => rts_flow
                        .get(p.msg as usize)
                        .copied()
                        .flatten()
                        .map(|fi| (fi, m.src)),
                    ProtoKind::CtsSend => None,
                    // Queuing an unexpected arrival: follow the arriving
                    // flow (payload for eager, RTS for rendezvous).
                    ProtoKind::Unexpected => {
                        let fi = if m.eager {
                            data_flow.get(p.msg as usize).copied().flatten()
                        } else {
                            rts_flow.get(p.msg as usize).copied().flatten()
                        };
                        fi.map(|fi| (fi, m.src))
                    }
                };
                if let Some((fi, from)) = arrival {
                    let f = &data.flows[fi];
                    if f.launch_ns < cursor {
                        rev.push(Segment {
                            rank: from,
                            begin_ns: f.launch_ns,
                            end_ns: f.delivered_ns.unwrap_or(cursor).min(cursor),
                            layer: Layer::Network,
                            what: format!("{} m{}", f.class.label(), p.msg),
                        });
                        rank = from;
                        cursor = f.launch_ns;
                    }
                }
            }
        }
        if cursor >= prev_cursor {
            break;
        }
    }

    // Tile: reverse to chronological, clamp overlaps, fill gaps with
    // Blocked segments so durations sum exactly to the makespan.
    rev.reverse();
    let mut segments: Vec<Segment> = Vec::with_capacity(rev.len() + 8);
    let mut cur = 0u64;
    let mut blocked_rank = rev.first().map(|s| s.rank).unwrap_or(last_rank);
    for s in rev {
        let end = s.end_ns.min(makespan);
        if s.begin_ns > cur {
            segments.push(Segment {
                rank: blocked_rank,
                begin_ns: cur,
                end_ns: s.begin_ns,
                layer: Layer::Blocked,
                what: "waiting".to_string(),
            });
            cur = s.begin_ns;
        }
        if end > cur {
            segments.push(Segment {
                rank: s.rank,
                begin_ns: cur,
                end_ns: end,
                layer: s.layer,
                what: s.what.clone(),
            });
            cur = end;
        }
        blocked_rank = s.rank;
    }
    if cur < makespan {
        segments.push(Segment {
            rank: last_rank,
            begin_ns: cur,
            end_ns: makespan,
            layer: Layer::Blocked,
            what: "waiting".to_string(),
        });
    }

    CriticalPath {
        makespan_ns: makespan,
        last_rank,
        segments,
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::record::*;

    /// Two ranks, one eager message: rank 0's start handler posts the
    /// send, the payload crosses the wire, rank 1's recv-done handler
    /// closes the run.
    fn eager_run() -> ObsData {
        let mut d = ObsData {
            nranks: 2,
            per_rank_finish_ns: vec![150, 300],
            ..ObsData::default()
        };
        d.dispatches.push(DispatchSpan {
            rank: 0,
            begin_ns: 0,
            end_ns: 100,
            trigger: Trigger::Start,
        });
        d.dispatches.push(DispatchSpan {
            rank: 1,
            begin_ns: 0,
            end_ns: 40,
            trigger: Trigger::Start,
        });
        d.dispatches.push(DispatchSpan {
            rank: 1,
            begin_ns: 220,
            end_ns: 300,
            trigger: Trigger::RecvDone { msg: 0 },
        });
        d.msgs.push(MsgRec {
            src: 0,
            dst: 1,
            bytes: 64,
            eager: true,
            posted_ns: Some(50),
            matched_ns: Some(210),
            recv_ready_ns: Some(210),
            delivered_ns: Some(210),
            drained_ns: Some(150),
            ..MsgRec::default()
        });
        d.flows.push(FlowRec {
            class: FlowClass::Eager,
            msg: Some(0),
            rank: 0,
            token: 0,
            bytes: 64,
            links: vec![0],
            launch_ns: 50,
            drained_ns: Some(150),
            delivered_ns: Some(210),
        });
        d
    }

    #[test]
    fn chain_tiles_the_makespan_exactly() {
        let data = eager_run();
        let cp = critical_path(&data);
        assert_eq!(cp.makespan_ns, 300);
        assert_eq!(cp.last_rank, 1);
        assert_eq!(cp.total_ns(), cp.makespan_ns);
        // Tiles are chronological, contiguous, and start at zero.
        assert_eq!(cp.segments.first().unwrap().begin_ns, 0);
        assert_eq!(cp.segments.last().unwrap().end_ns, 300);
        for w in cp.segments.windows(2) {
            assert_eq!(w[0].end_ns, w[1].begin_ns);
        }
    }

    #[test]
    fn chain_crosses_the_network_back_to_the_sender() {
        let cp = critical_path(&eager_run());
        let layers: Vec<Layer> = cp.segments.iter().map(|s| s.layer).collect();
        assert!(layers.contains(&Layer::Network), "chain: {layers:?}");
        assert!(layers.contains(&Layer::Callback));
        // The walk reached rank 0's start handler.
        assert_eq!(cp.segments.first().unwrap().rank, 0);
        let net_ns = cp.layer_totals()[3].1;
        assert!(net_ns > 0);
    }

    #[test]
    fn render_mentions_every_active_layer() {
        let cp = critical_path(&eager_run());
        let text = cp.render();
        assert!(text.contains("critical path: rank 1"));
        assert!(text.contains("network"));
        assert!(text.contains("callback"));
    }

    #[test]
    fn longest_segments_are_sorted_and_reported() {
        let cp = critical_path(&eager_run());
        let top = cp.longest_segments(3);
        assert!(!top.is_empty() && top.len() <= 3);
        for w in top.windows(2) {
            assert!(w[0].dur_ns() >= w[1].dur_ns());
        }
        assert!(cp.render().contains("longest segments (top"));
    }

    #[test]
    fn empty_data_degrades_gracefully() {
        let cp = critical_path(&ObsData::default());
        assert_eq!(cp.makespan_ns, 0);
        assert_eq!(cp.total_ns(), 0);
        assert!(cp.render().contains("critical path"));
    }
}
