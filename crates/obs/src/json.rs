//! `ObsData` ⇄ JSON: the on-disk recording format consumed by
//! `obs-whatif` (and produced by `adapt-cli --obs-out`).
//!
//! Hand-rolled writer plus the crate's own JSON parser
//! ([`parse_json`](crate::validate::parse_json)) keep the crate
//! dependency-free. Integer fields round-trip exactly below 2^53 (all
//! simulation timestamps are far below that); capacities are written in
//! Rust's shortest-round-trip float form.

use crate::record::{
    ComputeRec, DispatchSpan, FlowClass, FlowRec, GaugeMetric, GaugeRec, MsgRec, ObsData, PhaseRec,
    ProtoKind, ProtoSpan, Trigger,
};
use crate::validate::{parse_json, Json};

/// Format tag written into (and required from) every recording file.
pub const FORMAT: &str = "adapt-obs-v1";

// ---------------------------------------------------------------------
// Writing
// ---------------------------------------------------------------------

fn push_opt(out: &mut String, v: Option<u64>) {
    match v {
        Some(n) => out.push_str(&n.to_string()),
        None => out.push_str("null"),
    }
}

fn push_str_escaped(out: &mut String, s: &str) {
    out.push('"');
    for c in s.chars() {
        match c {
            '"' => out.push_str("\\\""),
            '\\' => out.push_str("\\\\"),
            '\n' => out.push_str("\\n"),
            '\t' => out.push_str("\\t"),
            '\r' => out.push_str("\\r"),
            c if (c as u32) < 0x20 => out.push_str(&format!("\\u{:04x}", c as u32)),
            c => out.push(c),
        }
    }
    out.push('"');
}

fn push_windows(out: &mut String, wins: &[Vec<(u64, u64)>]) {
    out.push('[');
    for (i, rank) in wins.iter().enumerate() {
        if i > 0 {
            out.push(',');
        }
        out.push('[');
        for (j, (s, e)) in rank.iter().enumerate() {
            if j > 0 {
                out.push(',');
            }
            out.push_str(&format!("[{s},{e}]"));
        }
        out.push(']');
    }
    out.push(']');
}

fn trigger_parts(t: Trigger) -> (&'static str, u64) {
    match t {
        Trigger::Start => ("start", 0),
        Trigger::SendDone { msg } => ("send_done", msg),
        Trigger::RecvDone { msg } => ("recv_done", msg),
        Trigger::ComputeDone { token } => ("compute_done", token),
        Trigger::CopyDone { token } => ("copy_done", token),
        Trigger::GpuDone { token } => ("gpu_done", token),
        Trigger::PeerFailed { rank } => ("peer_failed", rank.into()),
    }
}

/// Serialize a recording to a JSON document (one line per record for
/// reviewable diffs of committed fixtures).
pub fn to_json(data: &ObsData) -> String {
    let mut o = String::with_capacity(4096);
    o.push_str("{\n");
    o.push_str(&format!("\"format\":\"{FORMAT}\",\n"));
    o.push_str(&format!("\"nranks\":{},\n", data.nranks));

    o.push_str("\"link_labels\":[");
    for (i, l) in data.link_labels.iter().enumerate() {
        if i > 0 {
            o.push(',');
        }
        push_str_escaped(&mut o, l);
    }
    o.push_str("],\n");

    o.push_str("\"link_caps\":[");
    for (i, c) in data.link_caps.iter().enumerate() {
        if i > 0 {
            o.push(',');
        }
        o.push_str(&format!("{c:?}"));
    }
    o.push_str("],\n");

    o.push_str("\"link_lat_ns\":[");
    for (i, l) in data.link_lat_ns.iter().enumerate() {
        if i > 0 {
            o.push(',');
        }
        o.push_str(&l.to_string());
    }
    o.push_str("],\n");

    o.push_str("\"noise_windows\":");
    push_windows(&mut o, &data.noise_windows);
    o.push_str(",\n\"stall_windows\":");
    push_windows(&mut o, &data.stall_windows);
    o.push_str(",\n");
    o.push_str(&format!(
        "\"metrics_interval_ns\":{},\n",
        data.metrics_interval_ns
    ));

    o.push_str("\"msgs\":[");
    for (i, m) in data.msgs.iter().enumerate() {
        if i > 0 {
            o.push(',');
        }
        o.push_str(&format!(
            "\n{{\"src\":{},\"dst\":{},\"tag\":{},\"bytes\":{},\"eager\":{},\"unexpected\":{},\
             \"drops\":{},\"retransmits\":{},",
            m.src, m.dst, m.tag, m.bytes, m.eager, m.unexpected, m.drops, m.retransmits
        ));
        for (key, v) in [
            ("posted_ns", m.posted_ns),
            ("rts_arrived_ns", m.rts_arrived_ns),
            ("cts_launch_ns", m.cts_launch_ns),
            ("cts_arrived_ns", m.cts_arrived_ns),
            ("data_launch_ns", m.data_launch_ns),
            ("drained_ns", m.drained_ns),
            ("delivered_ns", m.delivered_ns),
            ("recv_posted_ns", m.recv_posted_ns),
            ("matched_ns", m.matched_ns),
            ("recv_ready_ns", m.recv_ready_ns),
            ("acked_ns", m.acked_ns),
        ] {
            o.push_str(&format!("\"{key}\":"));
            push_opt(&mut o, v);
            o.push(',');
        }
        o.pop();
        o.push('}');
    }
    o.push_str("],\n");

    o.push_str("\"flows\":[");
    for (i, f) in data.flows.iter().enumerate() {
        if i > 0 {
            o.push(',');
        }
        o.push_str(&format!("\n{{\"class\":\"{}\",\"msg\":", f.class.label()));
        push_opt(&mut o, f.msg);
        o.push_str(&format!(
            ",\"rank\":{},\"token\":{},\"bytes\":{},\"links\":[",
            f.rank, f.token, f.bytes
        ));
        for (j, l) in f.links.iter().enumerate() {
            if j > 0 {
                o.push(',');
            }
            o.push_str(&l.to_string());
        }
        o.push_str(&format!("],\"launch_ns\":{},\"drained_ns\":", f.launch_ns));
        push_opt(&mut o, f.drained_ns);
        o.push_str(",\"delivered_ns\":");
        push_opt(&mut o, f.delivered_ns);
        o.push('}');
    }
    o.push_str("],\n");

    o.push_str("\"dispatches\":[");
    for (i, d) in data.dispatches.iter().enumerate() {
        if i > 0 {
            o.push(',');
        }
        let (kind, arg) = trigger_parts(d.trigger);
        o.push_str(&format!(
            "\n{{\"rank\":{},\"begin_ns\":{},\"end_ns\":{},\"trigger\":\"{kind}\",\"arg\":{arg}}}",
            d.rank, d.begin_ns, d.end_ns
        ));
    }
    o.push_str("],\n");

    o.push_str("\"protocols\":[");
    for (i, p) in data.protocols.iter().enumerate() {
        if i > 0 {
            o.push(',');
        }
        o.push_str(&format!(
            "\n{{\"rank\":{},\"begin_ns\":{},\"end_ns\":{},\"kind\":\"{}\",\"msg\":{}}}",
            p.rank,
            p.begin_ns,
            p.end_ns,
            p.kind.label(),
            p.msg
        ));
    }
    o.push_str("],\n");

    o.push_str("\"computes\":[");
    for (i, c) in data.computes.iter().enumerate() {
        if i > 0 {
            o.push(',');
        }
        o.push_str(&format!(
            "\n{{\"rank\":{},\"token\":{},\"begin_ns\":{},\"end_ns\":{},\"gpu\":{}}}",
            c.rank, c.token, c.begin_ns, c.end_ns, c.gpu
        ));
    }
    o.push_str("],\n");

    o.push_str("\"phases\":[");
    for (i, p) in data.phases.iter().enumerate() {
        if i > 0 {
            o.push(',');
        }
        o.push_str(&format!(
            "\n{{\"rank\":{},\"phase\":{},\"begin\":{},\"t_ns\":{}}}",
            p.rank, p.phase, p.begin, p.t_ns
        ));
    }
    o.push_str("],\n");

    o.push_str("\"gauges\":[");
    for (i, g) in data.gauges.iter().enumerate() {
        if i > 0 {
            o.push(',');
        }
        o.push_str(&format!(
            "\n{{\"t_ns\":{},\"metric\":\"{}\",\"index\":{},\"value\":{:?}}}",
            g.t_ns,
            g.metric.label(),
            g.index,
            g.value
        ));
    }
    o.push_str("],\n");

    // Health alerts only exist on monitored runs; the key is omitted
    // entirely (and optional on parse) so unmonitored recordings —
    // including every committed golden fixture — keep their exact bytes.
    if !data.alerts.is_empty() {
        o.push_str("\"alerts\":[");
        for (i, a) in data.alerts.iter().enumerate() {
            if i > 0 {
                o.push(',');
            }
            o.push_str(&format!(
                "\n{{\"kind\":\"{}\",\"t_ns\":{},\"subject\":{},\"value\":{},\"threshold\":{}}}",
                a.kind.label(),
                a.t_ns,
                a.subject,
                a.value,
                a.threshold
            ));
        }
        o.push_str("],\n");
    }

    o.push_str("\"per_rank_finish_ns\":[");
    for (i, f) in data.per_rank_finish_ns.iter().enumerate() {
        if i > 0 {
            o.push(',');
        }
        o.push_str(&f.to_string());
    }
    o.push_str("]\n}\n");
    o
}

// ---------------------------------------------------------------------
// Reading
// ---------------------------------------------------------------------

fn want<'a>(v: &'a Json, key: &str) -> Result<&'a Json, String> {
    v.get(key).ok_or_else(|| format!("missing field {key:?}"))
}

fn get_u64(v: &Json, key: &str) -> Result<u64, String> {
    want(v, key)?
        .as_num()
        .map(|n| n as u64)
        .ok_or_else(|| format!("field {key:?} is not a number"))
}

fn get_u32(v: &Json, key: &str) -> Result<u32, String> {
    Ok(get_u64(v, key)? as u32)
}

fn get_opt(v: &Json, key: &str) -> Result<Option<u64>, String> {
    match want(v, key)? {
        Json::Null => Ok(None),
        Json::Num(n) => Ok(Some(*n as u64)),
        _ => Err(format!("field {key:?} is neither null nor a number")),
    }
}

fn get_bool(v: &Json, key: &str) -> Result<bool, String> {
    match want(v, key)? {
        Json::Bool(b) => Ok(*b),
        _ => Err(format!("field {key:?} is not a bool")),
    }
}

fn get_str<'a>(v: &'a Json, key: &str) -> Result<&'a str, String> {
    want(v, key)?
        .as_str()
        .ok_or_else(|| format!("field {key:?} is not a string"))
}

fn get_arr<'a>(v: &'a Json, key: &str) -> Result<&'a [Json], String> {
    want(v, key)?
        .as_arr()
        .ok_or_else(|| format!("field {key:?} is not an array"))
}

fn parse_windows(v: &Json, key: &str) -> Result<Vec<Vec<(u64, u64)>>, String> {
    let mut out = Vec::new();
    for rank in get_arr(v, key)? {
        let rank = rank
            .as_arr()
            .ok_or_else(|| format!("{key}: rank entry is not an array"))?;
        let mut wins = Vec::with_capacity(rank.len());
        for w in rank {
            let pair = w
                .as_arr()
                .ok_or_else(|| format!("{key}: window is not a pair"))?;
            if pair.len() != 2 {
                return Err(format!("{key}: window is not a pair"));
            }
            let s = pair[0]
                .as_num()
                .ok_or_else(|| format!("{key}: bad start"))? as u64;
            let e = pair[1].as_num().ok_or_else(|| format!("{key}: bad end"))? as u64;
            wins.push((s, e));
        }
        out.push(wins);
    }
    Ok(out)
}

fn parse_trigger(kind: &str, arg: u64) -> Result<Trigger, String> {
    Ok(match kind {
        "start" => Trigger::Start,
        "send_done" => Trigger::SendDone { msg: arg },
        "recv_done" => Trigger::RecvDone { msg: arg },
        "compute_done" => Trigger::ComputeDone { token: arg },
        "copy_done" => Trigger::CopyDone { token: arg },
        "gpu_done" => Trigger::GpuDone { token: arg },
        "peer_failed" => Trigger::PeerFailed {
            rank: u32::try_from(arg).map_err(|_| format!("peer_failed rank {arg}"))?,
        },
        other => return Err(format!("unknown trigger {other:?}")),
    })
}

fn parse_flow_class(s: &str) -> Result<FlowClass, String> {
    Ok(match s {
        "rts" => FlowClass::Rts,
        "cts" => FlowClass::Cts,
        "eager" => FlowClass::Eager,
        "rndv" => FlowClass::Rndv,
        "copy" => FlowClass::Copy,
        "ack" => FlowClass::Ack,
        other => return Err(format!("unknown flow class {other:?}")),
    })
}

fn parse_proto_kind(s: &str) -> Result<ProtoKind, String> {
    Ok(match s {
        "cts_send" => ProtoKind::CtsSend,
        "data_launch" => ProtoKind::DataLaunch,
        "unexpected" => ProtoKind::Unexpected,
        other => return Err(format!("unknown protocol kind {other:?}")),
    })
}

fn parse_gauge_metric(s: &str) -> Result<GaugeMetric, String> {
    Ok(match s {
        "posted_depth" => GaugeMetric::PostedDepth,
        "unexpected_depth" => GaugeMetric::UnexpectedDepth,
        "live_flows" => GaugeMetric::LiveFlows,
        "event_queue_len" => GaugeMetric::EventQueueLen,
        "link_util" => GaugeMetric::LinkUtil,
        "link_flows" => GaugeMetric::LinkFlows,
        other => return Err(format!("unknown gauge metric {other:?}")),
    })
}

/// Parse a recording from its JSON form.
pub fn from_json(text: &str) -> Result<ObsData, String> {
    let doc = parse_json(text)?;
    let format = get_str(&doc, "format")?;
    if format != FORMAT {
        return Err(format!("unsupported recording format {format:?}"));
    }
    let mut data = ObsData {
        nranks: get_u32(&doc, "nranks")?,
        metrics_interval_ns: get_u64(&doc, "metrics_interval_ns")?,
        noise_windows: parse_windows(&doc, "noise_windows")?,
        stall_windows: parse_windows(&doc, "stall_windows")?,
        ..ObsData::default()
    };
    for l in get_arr(&doc, "link_labels")? {
        data.link_labels
            .push(l.as_str().ok_or("link label is not a string")?.to_string());
    }
    for c in get_arr(&doc, "link_caps")? {
        data.link_caps
            .push(c.as_num().ok_or("link cap is not a number")?);
    }
    for l in get_arr(&doc, "link_lat_ns")? {
        data.link_lat_ns
            .push(l.as_num().ok_or("link latency is not a number")? as u64);
    }
    if data.link_caps.len() != data.link_labels.len()
        || data.link_lat_ns.len() != data.link_labels.len()
    {
        return Err("link parameter arrays disagree in length".into());
    }
    for m in get_arr(&doc, "msgs")? {
        data.msgs.push(MsgRec {
            src: get_u32(m, "src")?,
            dst: get_u32(m, "dst")?,
            tag: get_u32(m, "tag")?,
            bytes: get_u64(m, "bytes")?,
            eager: get_bool(m, "eager")?,
            unexpected: get_bool(m, "unexpected")?,
            drops: get_u32(m, "drops")?,
            retransmits: get_u32(m, "retransmits")?,
            posted_ns: get_opt(m, "posted_ns")?,
            rts_arrived_ns: get_opt(m, "rts_arrived_ns")?,
            cts_launch_ns: get_opt(m, "cts_launch_ns")?,
            cts_arrived_ns: get_opt(m, "cts_arrived_ns")?,
            data_launch_ns: get_opt(m, "data_launch_ns")?,
            drained_ns: get_opt(m, "drained_ns")?,
            delivered_ns: get_opt(m, "delivered_ns")?,
            recv_posted_ns: get_opt(m, "recv_posted_ns")?,
            matched_ns: get_opt(m, "matched_ns")?,
            recv_ready_ns: get_opt(m, "recv_ready_ns")?,
            acked_ns: get_opt(m, "acked_ns")?,
        });
    }
    for f in get_arr(&doc, "flows")? {
        let mut links = Vec::new();
        for l in get_arr(f, "links")? {
            links.push(l.as_num().ok_or("flow link id is not a number")? as u32);
        }
        data.flows.push(FlowRec {
            class: parse_flow_class(get_str(f, "class")?)?,
            msg: get_opt(f, "msg")?,
            rank: get_u32(f, "rank")?,
            token: get_u64(f, "token")?,
            bytes: get_u64(f, "bytes")?,
            links,
            launch_ns: get_u64(f, "launch_ns")?,
            drained_ns: get_opt(f, "drained_ns")?,
            delivered_ns: get_opt(f, "delivered_ns")?,
        });
    }
    for d in get_arr(&doc, "dispatches")? {
        data.dispatches.push(DispatchSpan {
            rank: get_u32(d, "rank")?,
            begin_ns: get_u64(d, "begin_ns")?,
            end_ns: get_u64(d, "end_ns")?,
            trigger: parse_trigger(get_str(d, "trigger")?, get_u64(d, "arg")?)?,
        });
    }
    for p in get_arr(&doc, "protocols")? {
        data.protocols.push(ProtoSpan {
            rank: get_u32(p, "rank")?,
            begin_ns: get_u64(p, "begin_ns")?,
            end_ns: get_u64(p, "end_ns")?,
            kind: parse_proto_kind(get_str(p, "kind")?)?,
            msg: get_u64(p, "msg")?,
        });
    }
    for c in get_arr(&doc, "computes")? {
        data.computes.push(ComputeRec {
            rank: get_u32(c, "rank")?,
            token: get_u64(c, "token")?,
            begin_ns: get_u64(c, "begin_ns")?,
            end_ns: get_u64(c, "end_ns")?,
            gpu: get_bool(c, "gpu")?,
        });
    }
    for p in get_arr(&doc, "phases")? {
        data.phases.push(PhaseRec {
            rank: get_u32(p, "rank")?,
            phase: get_u32(p, "phase")?,
            begin: get_bool(p, "begin")?,
            t_ns: get_u64(p, "t_ns")?,
        });
    }
    for g in get_arr(&doc, "gauges")? {
        data.gauges.push(GaugeRec {
            t_ns: get_u64(g, "t_ns")?,
            metric: parse_gauge_metric(get_str(g, "metric")?)?,
            index: get_u32(g, "index")?,
            value: want(g, "value")?
                .as_num()
                .ok_or("gauge value is not a number")?,
        });
    }
    if doc.get("alerts").is_some() {
        for a in get_arr(&doc, "alerts")? {
            let kind = get_str(a, "kind")?;
            data.alerts.push(crate::monitor::HealthAlert {
                kind: crate::monitor::AlertKind::from_label(kind)
                    .ok_or_else(|| format!("unknown alert kind {kind:?}"))?,
                t_ns: get_u64(a, "t_ns")?,
                subject: get_u32(a, "subject")?,
                value: get_u64(a, "value")?,
                threshold: get_u64(a, "threshold")?,
            });
        }
    }
    for f in get_arr(&doc, "per_rank_finish_ns")? {
        data.per_rank_finish_ns
            .push(f.as_num().ok_or("finish time is not a number")? as u64);
    }
    Ok(data)
}

#[cfg(test)]
mod tests {
    use super::*;

    fn sample() -> ObsData {
        let mut d = ObsData {
            nranks: 2,
            link_labels: vec!["NicTx(0)".into(), "Backbone".into()],
            link_caps: vec![12.5e9, 100e9],
            link_lat_ns: vec![500, 120],
            noise_windows: vec![vec![(10, 20)], vec![]],
            stall_windows: vec![vec![], vec![(5, 7), (9, 11)]],
            metrics_interval_ns: 1000,
            per_rank_finish_ns: vec![100, 120],
            ..ObsData::default()
        };
        d.msgs.push(MsgRec {
            src: 0,
            dst: 1,
            tag: 7,
            bytes: 4096,
            eager: true,
            posted_ns: Some(3),
            delivered_ns: Some(55),
            recv_posted_ns: Some(1),
            matched_ns: Some(55),
            recv_ready_ns: Some(55),
            ..MsgRec::default()
        });
        d.flows.push(FlowRec {
            class: FlowClass::Eager,
            msg: Some(0),
            rank: 0,
            token: 0,
            bytes: 4096,
            links: vec![0, 1],
            launch_ns: 3,
            drained_ns: Some(40),
            delivered_ns: Some(55),
        });
        d.dispatches.push(DispatchSpan {
            rank: 0,
            begin_ns: 0,
            end_ns: 10,
            trigger: Trigger::Start,
        });
        d.dispatches.push(DispatchSpan {
            rank: 1,
            begin_ns: 55,
            end_ns: 60,
            trigger: Trigger::RecvDone { msg: 0 },
        });
        d.protocols.push(ProtoSpan {
            rank: 1,
            begin_ns: 20,
            end_ns: 25,
            kind: ProtoKind::Unexpected,
            msg: 0,
        });
        d.computes.push(ComputeRec {
            rank: 1,
            token: 4,
            begin_ns: 60,
            end_ns: 90,
            gpu: false,
        });
        d.phases.push(PhaseRec {
            rank: 0,
            phase: 1,
            begin: true,
            t_ns: 2,
        });
        d.gauges.push(GaugeRec {
            t_ns: 1000,
            metric: GaugeMetric::LinkUtil,
            index: 1,
            value: 0.75,
        });
        d
    }

    #[test]
    fn round_trips() {
        let d = sample();
        let text = to_json(&d);
        let back = from_json(&text).unwrap();
        assert_eq!(back.nranks, d.nranks);
        assert_eq!(back.link_labels, d.link_labels);
        assert_eq!(back.link_caps, d.link_caps);
        assert_eq!(back.link_lat_ns, d.link_lat_ns);
        assert_eq!(back.noise_windows, d.noise_windows);
        assert_eq!(back.stall_windows, d.stall_windows);
        assert_eq!(back.msgs, d.msgs);
        assert_eq!(back.flows, d.flows);
        assert_eq!(back.dispatches, d.dispatches);
        assert_eq!(back.protocols, d.protocols);
        assert_eq!(back.computes, d.computes);
        assert_eq!(back.phases, d.phases);
        assert_eq!(back.gauges, d.gauges);
        assert_eq!(back.per_rank_finish_ns, d.per_rank_finish_ns);
        // And the serialized form itself is stable.
        assert_eq!(to_json(&back), text);
    }

    #[test]
    fn rejects_wrong_format() {
        assert!(from_json("{\"format\":\"something-else\"}").is_err());
        assert!(from_json("not json").is_err());
    }

    #[test]
    fn alerts_round_trip_and_stay_absent_when_unmonitored() {
        // Unmonitored recordings — every committed fixture — never carry
        // the key, so their serialized bytes are unchanged.
        let plain = sample();
        assert!(!to_json(&plain).contains("\"alerts\""));

        let mut d = sample();
        d.alerts.push(crate::monitor::HealthAlert {
            kind: crate::monitor::AlertKind::HotLink,
            t_ns: 4000,
            subject: 1,
            value: 910,
            threshold: 850,
        });
        let text = to_json(&d);
        assert!(text.contains("\"kind\":\"hot_link\""));
        let back = from_json(&text).unwrap();
        assert_eq!(back.alerts, d.alerts);
        assert_eq!(to_json(&back), text);
    }
}
