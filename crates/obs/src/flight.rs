//! Flight recorder: a fixed-capacity ring of the most recent spans,
//! dumped as a Chrome-trace fragment for stall and audit post-mortems.
//!
//! The ring is a [`Recorder`] sink of its own, so it rides alone or next
//! to a full or streaming recording. It holds the recording's own
//! fixed-size records — no strings, no per-event allocation — and
//! overwrites the oldest entry when full, so an always-on recorder costs
//! O(capacity) memory no matter how long the run. When
//! `World::try_run` returns a `StallDiagnosis` (or the audit fails) the
//! tail is rendered with [`FlightRecorder::chrome_fragment`]: the last
//! thing every rank was doing, loadable in Perfetto next to the
//! watchdog's per-rank stuck counts.
//!
//! Each ring entry is a *complete* record (begin and end together), so
//! the fragment only ever emits complete `"X"` spans and zero-duration
//! markers — truncation can never orphan an async begin/end pair, and
//! the output always passes [`validate_chrome`](crate::validate::
//! validate_chrome).

use crate::chrome::{esc, ts};
use crate::monitor::HealthAlert;
use crate::record::{ComputeRec, DispatchSpan, FlowClass, ProtoKind, ProtoSpan, Trigger};
use crate::recorder::{FlowStart, MsgEvent, Recorder};

/// One ring entry: a CPU or compute span, or a zero-duration marker.
#[derive(Clone, Copy, Debug)]
enum FlightSpan {
    Dispatch(DispatchSpan),
    Proto(ProtoSpan),
    Compute(ComputeRec),
    /// A message lifetime step.
    Msg {
        msg: u64,
        ev: MsgEvent,
        t_ns: u64,
    },
    /// A flow launch (with its bytes) or delivery (`end`) in `slot`.
    Flow {
        slot: u32,
        class: FlowClass,
        bytes: u64,
        t_ns: u64,
        end: bool,
    },
    Alert(HealthAlert),
}

/// Fixed-capacity span ring; see the module docs.
pub struct FlightRecorder {
    buf: Vec<FlightSpan>,
    cap: usize,
    /// Next write position; wraps at `cap`.
    next: usize,
    /// Total spans ever pushed (so `dropped = pushed - len`).
    pushed: u64,
    /// Class of the live flow in each network slot (`None` once it
    /// delivered), so a delivery marker names its flow class.
    slots: Vec<Option<FlowClass>>,
}

impl FlightRecorder {
    /// A ring holding the most recent `capacity` spans (min 1).
    pub fn new(capacity: usize) -> FlightRecorder {
        let cap = capacity.max(1);
        FlightRecorder {
            buf: Vec::with_capacity(cap),
            cap,
            next: 0,
            pushed: 0,
            slots: Vec::new(),
        }
    }

    /// Record one span, overwriting the oldest when full.
    fn push(&mut self, s: FlightSpan) {
        if self.buf.len() < self.cap {
            self.buf.push(s);
        } else {
            self.buf[self.next] = s;
        }
        self.next = (self.next + 1) % self.cap;
        self.pushed += 1;
    }

    /// Ring contents, oldest first (until the ring fills, `next` is its
    /// length).
    fn tail(&self) -> impl Iterator<Item = &FlightSpan> {
        self.buf[self.next..].iter().chain(&self.buf[..self.next])
    }

    /// Render the tail as a self-contained Chrome-trace JSON document.
    /// CPU spans land on per-rank tracks (pid 1); message and flow
    /// markers on dedicated tracks (pid 3); compute spans are complete
    /// `"X"` events on a separate compute process (pid 4) so their
    /// overlap with CPU spans can never violate track nesting.
    pub fn chrome_fragment(&self) -> String {
        const PID_RANKS: u32 = 1;
        const PID_MARKS: u32 = 3;
        const PID_COMPUTE: u32 = 4;
        let mut out = String::from("{\"displayTimeUnit\":\"ns\",\"traceEvents\":[\n");
        let mut first = true;
        let mut ev = |out: &mut String, body: String| {
            if !first {
                out.push_str(",\n");
            }
            first = false;
            out.push('{');
            out.push_str(&body);
            out.push('}');
        };
        let meta = |pid: u32, name: &str| {
            format!(
                "\"name\":\"process_name\",\"ph\":\"M\",\"pid\":{pid},\
                 \"args\":{{\"name\":\"{name}\"}}"
            )
        };
        ev(&mut out, meta(PID_RANKS, "ranks (flight tail)"));
        ev(&mut out, meta(PID_MARKS, "messages and flows"));
        ev(&mut out, meta(PID_COMPUTE, "compute"));
        let x = |name: &str, cat: &str, pid: u32, tid: u32, b: u64, e: u64, args: &str| {
            format!(
                "\"name\":\"{}\",\"cat\":\"{cat}\",\"ph\":\"X\",\"pid\":{pid},\
                 \"tid\":{tid},\"ts\":{},\"dur\":{},\"args\":{{{args}}}",
                esc(name),
                ts(b),
                ts(e.saturating_sub(b)),
            )
        };
        // Compute spans get one track each (tid = arrival order):
        // concurrent compute/GPU work on one rank may overlap, which a
        // shared track's nesting check would reject.
        let mut compute_tid = 0u32;
        for s in self.tail() {
            let body = match *s {
                FlightSpan::Dispatch(d) => x(
                    d.trigger.label(),
                    "dispatch",
                    PID_RANKS,
                    d.rank,
                    d.begin_ns,
                    d.end_ns,
                    "",
                ),
                FlightSpan::Proto(p) => x(
                    p.kind.label(),
                    "protocol",
                    PID_RANKS,
                    p.rank,
                    p.begin_ns,
                    p.end_ns,
                    &format!("\"msg\":{}", p.msg),
                ),
                FlightSpan::Compute(c) => {
                    compute_tid += 1;
                    x(
                        if c.gpu { "gpu" } else { "compute" },
                        "compute",
                        PID_COMPUTE,
                        compute_tid - 1,
                        c.begin_ns,
                        c.end_ns,
                        &format!("\"rank\":{},\"token\":{}", c.rank, c.token),
                    )
                }
                FlightSpan::Msg { msg, ev, t_ns } => {
                    let name = format!("m{msg} {}", ev.label());
                    x(&name, "msg", PID_MARKS, 0, t_ns, t_ns, "")
                }
                FlightSpan::Flow {
                    slot,
                    class,
                    bytes,
                    t_ns,
                    end,
                } => {
                    let name = format!(
                        "{} f{slot} {}",
                        class.label(),
                        if end { "delivered" } else { "launch" }
                    );
                    x(
                        &name,
                        "flow",
                        PID_MARKS,
                        1,
                        t_ns,
                        t_ns,
                        &format!("\"bytes\":{bytes}"),
                    )
                }
                FlightSpan::Alert(a) => x(
                    a.kind.label(),
                    "health",
                    PID_MARKS,
                    2,
                    a.t_ns,
                    a.t_ns,
                    &format!("\"subject\":{}", a.subject),
                ),
            };
            ev(&mut out, body);
        }
        // How much of the run the tail covers, as counters at ts 0.
        let c = format!(
            "\"name\":\"flight_spans_dropped\",\"ph\":\"C\",\"pid\":{PID_MARKS},\
             \"ts\":0.000,\"args\":{{\"value\":{}}}",
            self.pushed - self.buf.len() as u64
        );
        ev(&mut out, c);
        out.push_str("\n]}\n");
        out
    }
}

impl Recorder for FlightRecorder {
    fn enabled(&self) -> bool {
        true
    }

    fn msg_event(&mut self, msg: u64, ev: MsgEvent, t_ns: u64) {
        self.push(FlightSpan::Msg { msg, ev, t_ns });
    }

    fn flow_start(&mut self, slot: u32, rec: FlowStart, _links: &[u32]) {
        self.push(FlightSpan::Flow {
            slot,
            class: rec.class,
            bytes: rec.bytes,
            t_ns: rec.t_ns,
            end: false,
        });
        let s = slot as usize;
        if self.slots.len() <= s {
            self.slots.resize(s + 1, None);
        }
        self.slots[s] = Some(rec.class);
    }

    fn flow_delivered(&mut self, slot: u32, t_ns: u64) {
        let Some(class) = self.slots.get_mut(slot as usize).and_then(Option::take) else {
            return;
        };
        self.push(FlightSpan::Flow {
            slot,
            class,
            bytes: 0,
            t_ns,
            end: true,
        });
    }

    fn dispatch(&mut self, rank: u32, begin_ns: u64, end_ns: u64, trigger: Trigger) {
        self.push(FlightSpan::Dispatch(DispatchSpan {
            rank,
            begin_ns,
            end_ns,
            trigger,
        }));
    }

    fn protocol(&mut self, rank: u32, begin_ns: u64, end_ns: u64, kind: ProtoKind, msg: u64) {
        self.push(FlightSpan::Proto(ProtoSpan {
            rank,
            begin_ns,
            end_ns,
            kind,
            msg,
        }));
    }

    fn compute(&mut self, rank: u32, token: u64, begin_ns: u64, end_ns: u64, gpu: bool) {
        self.push(FlightSpan::Compute(ComputeRec {
            rank,
            token,
            begin_ns,
            end_ns,
            gpu,
        }));
    }

    /// Alerts land in the ring next to the spans they explain, so a
    /// post-mortem fragment shows what the monitor saw last.
    fn alert(&mut self, a: HealthAlert) {
        self.push(FlightSpan::Alert(a));
    }

    fn flight_dump(&mut self) -> Option<String> {
        Some(self.chrome_fragment())
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn ring_keeps_the_most_recent_spans() {
        let mut f = FlightRecorder::new(4);
        for i in 0..10u64 {
            f.dispatch(0, i * 10, i * 10 + 5, Trigger::Start);
        }
        assert_eq!((f.buf.len(), f.pushed), (4, 10));
        let begins: Vec<u64> = f
            .tail()
            .map(|s| match s {
                FlightSpan::Dispatch(d) => d.begin_ns,
                _ => unreachable!(),
            })
            .collect();
        assert_eq!(begins, vec![60, 70, 80, 90], "oldest-first tail");
    }

    #[test]
    fn fragment_passes_the_chrome_validator_even_when_truncated() {
        let mut f = FlightRecorder::new(8);
        for i in 0..50u64 {
            let rank = (i % 4) as u32;
            f.dispatch(rank, i * 100, i * 100 + 40, Trigger::Start);
            f.msg_event(i, MsgEvent::Delivered, i * 100 + 20);
            // Overlaps the next dispatch.
            f.compute(rank, i, i * 100 + 10, i * 100 + 90, i % 2 == 0);
            let flow = FlowStart {
                class: FlowClass::Eager,
                msg: Some(i),
                rank,
                token: 0,
                bytes: 64,
                t_ns: i * 100 + 30,
            };
            f.flow_start(3, flow, &[0]);
            f.alert(HealthAlert {
                kind: crate::monitor::AlertKind::Straggler,
                t_ns: i * 100 + 35,
                subject: rank,
                value: 2,
                threshold: 1,
            });
        }
        let json = f.chrome_fragment();
        let summary = crate::validate::validate_chrome(&json).expect("fragment must validate");
        assert!(summary.complete_spans > 0);
        assert!(json.contains("flight_spans_dropped"));
        assert!(json.contains("\"cat\":\"health\""), "alert markers render");
    }

    #[test]
    fn empty_ring_renders_a_valid_document() {
        let f = FlightRecorder::new(16);
        assert!(f.buf.is_empty());
        crate::validate::validate_chrome(&f.chrome_fragment()).unwrap();
    }
}
