//! Chrome trace-event JSON export (the format Perfetto and
//! `chrome://tracing` load).
//!
//! Layout: process 1 holds one thread track per rank, process 2 one
//! thread track per link that saw traffic. Serial CPU activity (handler
//! dispatches, protocol actions) becomes complete `"X"` events on the
//! rank tracks — they are serialized by each rank's busy horizon, so
//! they nest or tile but never overlap. Concurrent activity (message
//! lifetimes, compute/GPU work, collective phases, per-link flow
//! residency) becomes async `"b"`/`"e"` pairs keyed by `cat` + `id`.
//! Sampled gauges become `"C"` counter events.
//!
//! Timestamps are microseconds with three decimals — exactly the
//! nanosecond clock, no rounding — and events are emitted in the
//! deterministic record order, so the output is byte-identical across
//! runs of the same configuration.

use crate::record::{FlowClass, GaugeMetric, ObsData, Trigger};

/// Format a nanosecond instant as the trace's microsecond timestamp.
pub(crate) fn ts(ns: u64) -> String {
    format!("{}.{:03}", ns / 1000, ns % 1000)
}

/// Format a gauge value: integers stay integers, fractions get a fixed
/// six decimals (both render deterministically).
pub(crate) fn fmt_num(v: f64) -> String {
    if v == v.trunc() && v.abs() < 1e15 {
        format!("{}", v as i64)
    } else {
        format!("{v:.6}")
    }
}

/// Minimal JSON string escape (labels are ASCII identifiers, but stay
/// safe regardless).
pub(crate) fn esc(s: &str) -> String {
    let mut out = String::with_capacity(s.len());
    for c in s.chars() {
        match c {
            '"' => out.push_str("\\\""),
            '\\' => out.push_str("\\\\"),
            '\n' => out.push_str("\\n"),
            c if (c as u32) < 0x20 => out.push_str(&format!("\\u{:04x}", c as u32)),
            c => out.push(c),
        }
    }
    out
}

const PID_RANKS: u32 = 1;
const PID_LINKS: u32 = 2;
const PID_HEALTH: u32 = 5;

struct Emitter {
    out: String,
    first: bool,
}

impl Emitter {
    fn new() -> Emitter {
        Emitter {
            out: String::from("{\"displayTimeUnit\":\"ns\",\"traceEvents\":[\n"),
            first: true,
        }
    }

    /// Append one raw event object (the body without braces).
    fn ev(&mut self, body: String) {
        if !self.first {
            self.out.push_str(",\n");
        }
        self.first = false;
        self.out.push('{');
        self.out.push_str(&body);
        self.out.push('}');
    }

    fn meta_name(&mut self, which: &str, pid: u32, tid: Option<u32>, name: &str) {
        let tid_part = tid.map(|t| format!("\"tid\":{t},")).unwrap_or_default();
        self.ev(format!(
            "\"name\":\"{which}\",\"ph\":\"M\",\"pid\":{pid},{tid_part}\"args\":{{\"name\":\"{}\"}}",
            esc(name)
        ));
    }

    fn complete(
        &mut self,
        name: &str,
        cat: &str,
        tid: u32,
        begin_ns: u64,
        end_ns: u64,
        args: &str,
    ) {
        self.ev(format!(
            "\"name\":\"{name}\",\"cat\":\"{cat}\",\"ph\":\"X\",\"pid\":{PID_RANKS},\
             \"tid\":{tid},\"ts\":{},\"dur\":{},\"args\":{{{args}}}",
            ts(begin_ns),
            ts(end_ns.saturating_sub(begin_ns)),
        ));
    }

    #[allow(clippy::too_many_arguments)] // flat event fields
    fn async_ev(
        &mut self,
        ph: char,
        name: &str,
        cat: &str,
        pid: u32,
        tid: u32,
        id: &str,
        t_ns: u64,
        args: &str,
    ) {
        self.ev(format!(
            "\"name\":\"{name}\",\"cat\":\"{cat}\",\"ph\":\"{ph}\",\"pid\":{pid},\
             \"tid\":{tid},\"id\":\"{id}\",\"ts\":{},\"args\":{{{args}}}",
            ts(t_ns),
        ));
    }

    fn counter(&mut self, name: &str, pid: u32, t_ns: u64, value: f64) {
        self.ev(format!(
            "\"name\":\"{name}\",\"ph\":\"C\",\"pid\":{pid},\"ts\":{},\
             \"args\":{{\"value\":{}}}",
            ts(t_ns),
            fmt_num(value),
        ));
    }

    fn finish(mut self) -> String {
        self.out.push_str("\n]}\n");
        self.out
    }
}

/// Render recorded run data as a Chrome trace-event JSON document.
pub fn chrome_trace(data: &ObsData) -> String {
    let mut e = Emitter::new();

    // Track metadata. Only links that actually carried a flow (or were
    // sampled) get a track; a big machine has hundreds of idle lanes.
    e.meta_name("process_name", PID_RANKS, None, "ranks");
    e.meta_name("process_name", PID_LINKS, None, "links");
    for r in 0..data.nranks {
        e.meta_name("thread_name", PID_RANKS, Some(r), &format!("rank {r}"));
    }
    let mut used_links: Vec<u32> = data
        .flows
        .iter()
        .flat_map(|f| f.links.iter().copied())
        .chain(data.gauges.iter().filter_map(|g| {
            matches!(g.metric, GaugeMetric::LinkUtil | GaugeMetric::LinkFlows).then_some(g.index)
        }))
        .collect();
    used_links.sort_unstable();
    used_links.dedup();
    for &l in &used_links {
        let label = data
            .link_labels
            .get(l as usize)
            .map(String::as_str)
            .unwrap_or("link");
        e.meta_name("thread_name", PID_LINKS, Some(l), &format!("L{l} {label}"));
    }

    // Serial CPU activity: handler dispatches and protocol actions.
    for d in &data.dispatches {
        let args = match d.trigger {
            Trigger::Start => String::new(),
            Trigger::SendDone { msg } | Trigger::RecvDone { msg } => format!("\"msg\":{msg}"),
            Trigger::ComputeDone { token }
            | Trigger::CopyDone { token }
            | Trigger::GpuDone { token } => format!("\"token\":{token}"),
            Trigger::PeerFailed { rank } => format!("\"peer\":{rank}"),
        };
        e.complete(
            d.trigger.label(),
            "dispatch",
            d.rank,
            d.begin_ns,
            d.end_ns,
            &args,
        );
    }
    for p in &data.protocols {
        e.complete(
            p.kind.label(),
            "protocol",
            p.rank,
            p.begin_ns,
            p.end_ns,
            &format!("\"msg\":{}", p.msg),
        );
    }

    // Concurrent activity: compute/GPU spans, collective phases,
    // message lifetimes.
    for (i, c) in data.computes.iter().enumerate() {
        let name = if c.gpu { "gpu" } else { "compute" };
        let id = format!("c{i}");
        let args = format!("\"token\":{}", c.token);
        e.async_ev(
            'b', name, "compute", PID_RANKS, c.rank, &id, c.begin_ns, &args,
        );
        e.async_ev('e', name, "compute", PID_RANKS, c.rank, &id, c.end_ns, "");
    }
    for p in &data.phases {
        let id = format!("p{}.{}", p.rank, p.phase);
        let name = format!("phase {}", p.phase);
        let ph = if p.begin { 'b' } else { 'e' };
        e.async_ev(ph, &name, "phase", PID_RANKS, p.rank, &id, p.t_ns, "");
    }
    for (i, m) in data.msgs.iter().enumerate() {
        let Some(posted) = m.posted_ns else { continue };
        let end = m
            .recv_ready_ns
            .or(m.delivered_ns)
            .or(m.drained_ns)
            .unwrap_or(posted);
        let id = format!("m{i}");
        let name = format!("m{i} {}->{}", m.src, m.dst);
        let args = format!(
            "\"bytes\":{},\"tag\":{},\"eager\":{}",
            m.bytes, m.tag, m.eager
        );
        e.async_ev('b', &name, "msg", PID_RANKS, m.src, &id, posted, &args);
        if let Some(t) = m.matched_ns {
            e.async_ev(
                'n',
                "matched",
                "msg",
                PID_RANKS,
                m.dst,
                &id,
                t,
                &format!("\"unexpected\":{}", m.unexpected),
            );
        }
        e.async_ev(
            'e',
            &name,
            "msg",
            PID_RANKS,
            m.src,
            &id,
            end.max(posted),
            "",
        );
    }

    // Link residency: one async span per (flow, link) on the link track.
    for (i, f) in data.flows.iter().enumerate() {
        let end = f
            .drained_ns
            .or(f.delivered_ns)
            .unwrap_or(f.launch_ns)
            .max(f.launch_ns);
        let args = format!("\"bytes\":{},\"rank\":{}", f.bytes, f.rank);
        let name = match f.class {
            FlowClass::Copy => format!("copy f{i}"),
            c => format!("{} f{i}", c.label()),
        };
        for &l in &f.links {
            let id = format!("f{i}.{l}");
            e.async_ev('b', &name, "flow", PID_LINKS, l, &id, f.launch_ns, &args);
            e.async_ev('e', &name, "flow", PID_LINKS, l, &id, end, "");
        }
    }

    // Time-series gauges as counters.
    for g in &data.gauges {
        match g.metric {
            GaugeMetric::LinkUtil | GaugeMetric::LinkFlows => {
                let name = format!("{}.L{}", g.metric.label(), g.index);
                e.counter(&name, PID_LINKS, g.t_ns, g.value);
            }
            m => e.counter(m.label(), PID_RANKS, g.t_ns, g.value),
        }
    }

    // Health-monitor alerts: zero-duration markers on a dedicated
    // process, one track per detector. Traces recorded without a
    // monitor carry no health process at all.
    if !data.alerts.is_empty() {
        e.meta_name("process_name", PID_HEALTH, None, "health alerts");
        for k in crate::monitor::AlertKind::ALL {
            e.meta_name("thread_name", PID_HEALTH, Some(k.index() as u32), k.label());
        }
        for a in &data.alerts {
            let subject = match a.kind {
                crate::monitor::AlertKind::Straggler => format!("rank {}", a.subject),
                crate::monitor::AlertKind::HotLink => {
                    let label = data
                        .link_labels
                        .get(a.subject as usize)
                        .map(String::as_str)
                        .unwrap_or("link");
                    format!("L{} {}", a.subject, crate::topo_label(label))
                }
                _ => "world".to_string(),
            };
            let name = format!("{} {subject}", a.kind.label());
            let args = format!(
                "\"subject\":{},\"value\":{},\"threshold\":{}",
                a.subject, a.value, a.threshold
            );
            e.ev(format!(
                "\"name\":\"{}\",\"cat\":\"health\",\"ph\":\"X\",\"pid\":{PID_HEALTH},\
                 \"tid\":{},\"ts\":{},\"dur\":0.000,\"args\":{{{args}}}",
                esc(&name),
                a.kind.index(),
                ts(a.t_ns),
            ));
        }
    }

    e.finish()
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::record::*;

    #[test]
    fn ts_keeps_nanosecond_precision() {
        assert_eq!(ts(0), "0.000");
        assert_eq!(ts(1), "0.001");
        assert_eq!(ts(1_234_567), "1234.567");
    }

    #[test]
    fn fmt_num_is_stable() {
        assert_eq!(fmt_num(3.0), "3");
        assert_eq!(fmt_num(0.5), "0.500000");
    }

    #[test]
    fn empty_data_renders_valid_header() {
        let data = ObsData {
            nranks: 2,
            ..ObsData::default()
        };
        let json = chrome_trace(&data);
        assert!(json.contains("\"displayTimeUnit\":\"ns\""));
        assert!(json.contains("rank 1"));
        crate::validate::validate_chrome(&json).unwrap();
    }

    #[test]
    fn spans_and_counters_round_trip_through_the_validator() {
        let mut data = ObsData {
            nranks: 1,
            link_labels: vec!["Backbone".into()],
            ..ObsData::default()
        };
        data.dispatches.push(DispatchSpan {
            rank: 0,
            begin_ns: 0,
            end_ns: 100,
            trigger: Trigger::Start,
        });
        data.protocols.push(ProtoSpan {
            rank: 0,
            begin_ns: 20,
            end_ns: 80,
            kind: ProtoKind::CtsSend,
            msg: 0,
        });
        data.flows.push(FlowRec {
            class: FlowClass::Eager,
            msg: Some(0),
            rank: 0,
            token: 0,
            bytes: 64,
            links: vec![0],
            launch_ns: 10,
            drained_ns: Some(50),
            delivered_ns: Some(60),
        });
        data.gauges.push(GaugeRec {
            t_ns: 0,
            metric: GaugeMetric::LinkUtil,
            index: 0,
            value: 0.25,
        });
        let json = chrome_trace(&data);
        let summary = crate::validate::validate_chrome(&json).unwrap();
        assert_eq!(summary.complete_spans, 2);
        assert_eq!(summary.async_spans, 1);
        assert_eq!(summary.counters, 1);
    }
}
