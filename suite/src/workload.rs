//! The closed loop: one client runs a workload's op list round after
//! round, one collective at a time, and the rounds become metrics.
//!
//! A round is one pass over the seeded op list. Every round runs the same
//! ops, so simulator counters repeat exactly from round to round and host
//! times are reported from the fastest round.

use crate::gen::{Op, Workload};
use crate::run::{data_twin, execute, Mode, Outcome};
use crate::stats::{fnv, geomean, p90, percentile, MIN_TAIL_SAMPLES};
use crate::trace::replay;
use adapt_mpi::{finish_skew, RunResult};
use adapt_obs::{FlowClass, Hist};
use std::time::Instant;

/// Ops run once, untimed, before the first timed round.
const WARMUP_OPS: usize = 3;
/// Every this-many-th ADAPT op of the list gets a data-carrying twin.
const TWIN_EVERY: usize = 25;

/// How long a run's timed rounds last.
#[derive(Clone, Copy, Debug)]
pub enum Budget {
    /// Whole rounds until this many seconds have passed and, untraced,
    /// the rounds hold enough samples for a tail percentile.
    Seconds(f64),
    /// One round over the first `n` ops of the list (smoke runs).
    Ops(usize),
}

/// A metric as `BENCHMARK.json` declares it.
pub struct Metric {
    pub name: &'static str,
    pub unit: &'static str,
    pub better: &'static str,
}

const fn m(name: &'static str, unit: &'static str, better: &'static str) -> Metric {
    Metric { name, unit, better }
}

/// Printed with tracing off.
pub const END_TO_END: [Metric; 6] = [
    m("ops_per_s", "ops/s", "higher"),
    m("op_ms_p50", "ms", "lower"),
    m("op_ms_p90", "ms", "lower"),
    m("setup_s", "s", "lower"),
    m("peak_rss_mb", "MiB", "lower"),
    m("sim_adapt_us", "us", "lower"),
];

/// Printed by the traced run. Host times are per round (one pass over
/// the op list); counters are per round and repeat exactly.
pub const PER_LAYER: [Metric; 43] = [
    m("sim.events", "count", "lower"),
    m("sim.events_per_msg", "ratio", "lower"),
    m("sim.run_ns_per_event", "ns", "lower"),
    m("mpi.world_build_s", "s", "lower"),
    m("core.programs_build_s", "s", "lower"),
    m("mpi.messages", "count", "lower"),
    m("mpi.match_probes_per_msg", "ratio", "lower"),
    m("mpi.unexpected_frac", "ratio", "lower"),
    m("mpi.rendezvous_frac", "ratio", "lower"),
    m("mpi.stray_events", "count", "lower"),
    m("mpi.engine_s", "s", "lower"),
    m("mpi.sim_posted_to_matched_us_p50", "us", "lower"),
    m("mpi.sim_posted_to_matched_us_p99", "us", "lower"),
    m("mpi.sim_rts_to_cts_us_p50", "us", "lower"),
    m("net.share_recomputes", "count", "lower"),
    m("net.refreshes", "count", "lower"),
    m("net.reschedules", "count", "lower"),
    m("net.flows", "count", "lower"),
    m("net.recomputes_per_flow", "ratio", "lower"),
    m("net.replay_s", "s", "lower"),
    m("net.replay_ns_per_flow", "ns", "lower"),
    m("net.replay_fidelity", "ratio", "higher"),
    m("net.sim_flow_us_p50.rndv", "us", "lower"),
    m("net.sim_flow_us_p99.rndv", "us", "lower"),
    m("net.sim_flow_us_p50.eager", "us", "lower"),
    m("core.handler_calls", "count", "lower"),
    m("core.handler_s", "s", "lower"),
    m("core.handler_ns_per_call", "ns", "lower"),
    m("collectives.handler_calls", "count", "lower"),
    m("collectives.handler_s", "s", "lower"),
    m("core.sim_busy_frac", "ratio", "lower"),
    m("core.sim_finish_skew_us", "us", "lower"),
    m("noise.sim_noise_frac", "ratio", "lower"),
    m("faults.drops", "count", "lower"),
    m("faults.retransmits", "count", "lower"),
    m("faults.acks", "count", "lower"),
    m("faults.duplicates_suppressed", "count", "lower"),
    m("faults.delivery_efficiency", "ratio", "higher"),
    m("obs.overhead_frac", "ratio", "lower"),
    m("obs.snapshots", "count", "lower"),
    m("obs.alerts", "count", "lower"),
    m("obs.dispatches", "count", "lower"),
    m("trace.overhead_frac", "ratio", "lower"),
];

/// Simulator counters summed over one round.
#[derive(Clone, Copy, Default)]
struct Counters {
    events: u64,
    messages: u64,
    unexpected: u64,
    rendezvous: u64,
    match_probes: u64,
    stray: u64,
    share_recomputes: u64,
    refreshes: u64,
    reschedules: u64,
    drops: u64,
    retransmits: u64,
    acks: u64,
    duplicates: u64,
    snapshots: u64,
    alerts: u64,
    dispatches: u64,
}

impl Counters {
    fn add(&mut self, r: &RunResult) {
        let s = &r.stats;
        self.events += s.events;
        self.messages += s.messages;
        self.unexpected += s.unexpected_matches;
        self.rendezvous += s.rendezvous;
        self.match_probes += s.match_probes;
        self.stray += s.stray_events;
        self.share_recomputes += s.net_share_recomputes;
        self.refreshes += s.net_refreshes;
        self.reschedules += s.net_reschedules;
        self.drops += s.drops_injected;
        self.retransmits += s.retransmits;
        self.acks += s.acks;
        self.duplicates += s.duplicates_suppressed;
        if let Some(h) = &r.health {
            self.snapshots += h.snapshots;
            self.alerts += h.total_alerts();
        }
        if let Some(sm) = &r.summary {
            self.dispatches += sm.dispatches;
        }
    }
}

/// What every timed round records, traced or not.
#[derive(Default)]
struct Round {
    /// Per-op host time (set-up + run) and set-up time alone, ms.
    op_ms: Vec<f64>,
    setup_ms: Vec<f64>,
    host_ns: u64,
    world_ns: u64,
    programs_ns: u64,
    run_ns: u64,
    /// Per-op hash of the per-rank finish times.
    finish: Vec<u64>,
    counters: Counters,
    /// ADAPT ops: simulated makespan (µs), mean finish skew (µs), and
    /// busy / (ranks × makespan) numerator and denominator.
    adapt_us: Vec<f64>,
    adapt_skew_us: Vec<f64>,
    adapt_busy_ns: f64,
    adapt_span_ns: f64,
    traced: Option<TracedRound>,
}

/// The traced run's extra measurements for one round.
#[derive(Default)]
struct TracedRound {
    adapt_handler_ns: u64,
    adapt_handler_calls: u64,
    lib_handler_ns: u64,
    lib_handler_calls: u64,
    replay_ns: u64,
    flows: u64,
    replay_exact: u64,
    replay_delivered: u64,
    noise_ns: f64,
    span_ns: f64,
    posted_to_matched: Hist,
    rts_to_cts: Hist,
    flow_rndv: Hist,
    flow_eager: Hist,
}

/// Everything one `suite --workload` invocation measured.
pub struct Report {
    pub attempted: u64,
    /// One line per failed op or check.
    pub failures: Vec<String>,
    /// FNV over every op's per-rank finish times, in list order.
    pub sim_digest: u64,
    pub rounds: usize,
    /// Timed op samples behind the percentiles.
    pub samples: usize,
    /// Name → value, in [`END_TO_END`] or [`PER_LAYER`] order. `None` only
    /// for a p90 refused for lack of samples, or an ADAPT latency when the
    /// (truncated) list holds no ADAPT op.
    pub metrics: Vec<(&'static Metric, Option<f64>)>,
}

struct Runner<'a> {
    ops: &'a [Op],
    attempted: u64,
    failures: Vec<String>,
    /// Round 1's per-op finish hashes: every later round, traced or not,
    /// must reproduce them bit for bit.
    reference: Option<Vec<u64>>,
}

impl Runner<'_> {
    fn round(&mut self, mode: Mode) -> Round {
        let mut r = Round {
            traced: (mode == Mode::Traced).then(TracedRound::default),
            ..Round::default()
        };
        for (i, op) in self.ops.iter().enumerate() {
            self.attempted += 1;
            let out = execute(op, mode);
            r.op_ms.push(out.host_ns() as f64 / 1e6);
            r.setup_ms
                .push((out.world_ns + out.programs_ns) as f64 / 1e6);
            r.host_ns += out.host_ns();
            r.world_ns += out.world_ns;
            r.programs_ns += out.programs_ns;
            r.run_ns += out.run_ns;
            match &out.result {
                Ok(res) => {
                    r.finish
                        .push(fnv(res.per_rank_finish.iter().map(|t| t.as_nanos())));
                    r.counters.add(res);
                    if op.is_adapt() {
                        record_adapt(&mut r, res);
                    }
                }
                Err(e) => {
                    r.finish.push(0);
                    self.failures
                        .push(format!("op {i} ({}): {e}", op.describe()));
                }
            }
            if let Some(t) = r.traced.as_mut() {
                record_traced(t, op, out);
            }
        }
        match &self.reference {
            None => self.reference = Some(r.finish.clone()),
            Some(reference) => {
                if let Some(i) = (0..r.finish.len()).find(|&i| r.finish[i] != reference[i]) {
                    let what = format!("op {i}: per-rank finish times differ from round 1");
                    self.failures.push(what);
                }
            }
        }
        r
    }

    /// Cycles of one round per mode until the budget is spent; each mode's
    /// rounds, in `modes` order. The modes take turns so that the host
    /// conditions their host times are compared under are the same.
    fn rounds(&mut self, modes: &[Mode], budget: Budget, min_samples: usize) -> Vec<Vec<Round>> {
        let start = Instant::now();
        let mut by_mode: Vec<Vec<Round>> = modes.iter().map(|_| Vec::new()).collect();
        loop {
            for (rounds, &mode) in by_mode.iter_mut().zip(modes) {
                rounds.push(self.round(mode));
            }
            let samples = by_mode[0].len() * self.ops.len();
            match budget {
                Budget::Ops(_) => return by_mode,
                Budget::Seconds(s)
                    if start.elapsed().as_secs_f64() >= s && samples >= min_samples =>
                {
                    return by_mode
                }
                Budget::Seconds(_) => {}
            }
        }
    }
}

fn record_adapt(r: &mut Round, res: &RunResult) {
    let makespan = res.makespan.as_nanos() as f64;
    r.adapt_us.push(makespan / 1e3);
    let skew = finish_skew(res);
    let skew_ns: u64 = skew.iter().map(|d| d.as_nanos()).sum();
    r.adapt_skew_us
        .push(skew_ns as f64 / skew.len().max(1) as f64 / 1e3);
    r.adapt_busy_ns += res.per_rank_busy.iter().map(|d| d.as_nanos()).sum::<u64>() as f64;
    r.adapt_span_ns += makespan * res.per_rank_finish.len() as f64;
}

fn record_traced(t: &mut TracedRound, op: &Op, out: Outcome) {
    if let Some(clock) = &out.handlers {
        let (ns, calls) = (clock.ns.get(), clock.calls.get());
        if op.is_adapt() {
            t.adapt_handler_ns += ns;
            t.adapt_handler_calls += calls;
        } else {
            t.lib_handler_ns += ns;
            t.lib_handler_calls += calls;
        }
    }
    let Ok(res) = &out.result else { return };
    if let Some(log) = &out.log {
        let rep = replay(&op.machine.spec(op.nodes), log);
        t.replay_ns += rep.ns;
        t.flows += rep.flows;
        t.replay_exact += rep.exact;
        t.replay_delivered += rep.delivered;
        t.noise_ns += log.noise_ns as f64;
    }
    t.span_ns += res.makespan.as_nanos() as f64 * res.per_rank_finish.len() as f64;
    if let Some(s) = &res.summary {
        t.posted_to_matched.merge(&s.posted_to_matched);
        t.rts_to_cts.merge(&s.rts_to_cts);
        for (class, h) in &s.flow_dur {
            match class {
                FlowClass::Rndv => t.flow_rndv.merge(h),
                FlowClass::Eager => t.flow_eager.merge(h),
                _ => {}
            }
        }
    }
}

/// Peak resident set of this process (`VmHWM`), MiB.
fn peak_rss_mb() -> Option<f64> {
    let status = std::fs::read_to_string("/proc/self/status").ok()?;
    let line = status.lines().find(|l| l.starts_with("VmHWM:"))?;
    let kb: f64 = line.split_whitespace().nth(1)?.parse().ok()?;
    Some(kb / 1024.0)
}

fn ratio(num: f64, den: f64) -> f64 {
    if den > 0.0 {
        num / den
    } else {
        0.0
    }
}

/// The fastest round's value of a per-round host time. Other processes
/// on the host only ever add time, so the fastest repetition is the one
/// closest to the simulator's own cost; a median moved by a quarter when
/// the host got busy.
fn fastest(rounds: &[Round], f: impl Fn(&Round) -> f64) -> f64 {
    rounds.iter().map(f).reduce(f64::min).unwrap_or(0.0)
}

/// [`fastest`] over the traced rounds' measurements.
fn fastest_t(rounds: &[Round], f: impl Fn(&TracedRound) -> f64) -> f64 {
    fastest(rounds, |r| r.traced.as_ref().map_or(0.0, &f))
}

fn hist_us(h: &Hist, q: f64) -> f64 {
    h.percentile(q).map_or(0.0, |ns| ns as f64 / 1e3)
}

/// glibc's malloc raises its mmap and trim thresholds to the size of the
/// largest mmapped block freed so far. Left alone, whichever early op first
/// freed a large block decided whether later set-ups page-faulted on fresh
/// heap, and `library_mix`'s set-up time moved by a third from seed to
/// seed. Freeing one 16 MiB block first puts every run in the state a
/// long-running process reaches. The block is never touched, so it adds
/// nothing to the peak RSS.
fn settle_allocator() {
    drop(std::hint::black_box(Vec::<u8>::with_capacity(16 << 20)));
}

/// Run `workload` for `budget`; `traced` adds the bare and traced phases
/// and reports per-layer metrics instead of end-to-end ones.
pub fn run(workload: Workload, seed: u64, budget: Budget, traced: bool) -> Report {
    settle_allocator();
    let mut ops = workload.ops(seed);
    if let Budget::Ops(n) = budget {
        ops.truncate(n);
    }
    let mut runner = Runner {
        ops: &ops,
        attempted: 0,
        failures: Vec::new(),
        reference: None,
    };
    for op in ops.iter().take(WARMUP_OPS) {
        runner.attempted += 1;
        if let Err(e) = execute(op, Mode::Plain).result {
            runner
                .failures
                .push(format!("warm-up ({}): {e}", op.describe()));
        }
    }
    // A traced run adds to the plain rounds (counters and the untraced
    // reference) the bare rounds of observed workloads and the traced
    // rounds; per-layer numbers need no tail percentile.
    let observed = traced && ops.iter().any(|op| op.observed);
    let (modes, min_samples): (&[Mode], _) = match (traced, observed) {
        (false, _) => (&[Mode::Plain], MIN_TAIL_SAMPLES),
        (true, false) => (&[Mode::Plain, Mode::Traced], 0),
        (true, true) => (&[Mode::Plain, Mode::Bare, Mode::Traced], 0),
    };
    let mut by_mode = runner.rounds(modes, budget, min_samples).into_iter();
    let plain = by_mode.next().unwrap_or_default();
    let bare = if observed {
        by_mode.next().unwrap_or_default()
    } else {
        Vec::new()
    };
    let tr = by_mode.next().unwrap_or_default();
    // Before the twins: their real payloads are a check, not the workload.
    let rss = peak_rss_mb();
    let twins: Vec<&Op> = ops
        .iter()
        .filter(|op| op.is_adapt())
        .step_by(TWIN_EVERY)
        .collect();
    for op in twins {
        runner.attempted += 1;
        if let Err(e) = data_twin(op) {
            runner
                .failures
                .push(format!("data twin ({}): {e}", op.describe()));
        }
    }

    let samples = plain.len() * ops.len();
    let (table, values): (&'static [Metric], _) = if traced {
        (&PER_LAYER, per_layer(&plain, &bare, &tr))
    } else {
        (&END_TO_END, end_to_end(&plain, samples, rss))
    };
    let metrics = table
        .iter()
        .map(|m| {
            let v = values
                .iter()
                .find(|(n, _)| *n == m.name)
                .and_then(|(_, v)| *v);
            (m, v)
        })
        .collect();
    Report {
        attempted: runner.attempted,
        failures: runner.failures,
        sim_digest: fnv(runner.reference.unwrap_or_default()),
        rounds: plain.len(),
        samples,
        metrics,
    }
}

/// Each op's fastest round of a per-op host time, in list order.
fn per_op_fastest(rounds: &[Round], f: impl Fn(&Round) -> &[f64]) -> Vec<f64> {
    let nops = rounds.first().map_or(0, |r| f(r).len());
    (0..nops)
        .map(|i| rounds.iter().map(|r| f(r)[i]).fold(f64::INFINITY, f64::min))
        .collect()
}

fn end_to_end(
    plain: &[Round],
    samples: usize,
    rss: Option<f64>,
) -> Vec<(&'static str, Option<f64>)> {
    // Each op's host time is its fastest round, so a busy host cannot move
    // a percentile; percentiles are then nearest-rank over the ops, which
    // equals nearest rank over the rounds × ops samples with every op's
    // samples replaced by its fastest.
    let op_ms = per_op_fastest(plain, |r| &r.op_ms);
    let setup_ms = per_op_fastest(plain, |r| &r.setup_ms);
    vec![
        (
            "ops_per_s",
            Some(op_ms.len() as f64 / (op_ms.iter().sum::<f64>() / 1e3)),
        ),
        ("op_ms_p50", percentile(&op_ms, 50.0)),
        ("op_ms_p90", p90(&op_ms, samples)),
        ("setup_s", Some(setup_ms.iter().sum::<f64>() / 1e3)),
        ("peak_rss_mb", rss),
        ("sim_adapt_us", geomean(&plain[0].adapt_us)),
    ]
}

fn per_layer(plain: &[Round], bare: &[Round], tr: &[Round]) -> Vec<(&'static str, Option<f64>)> {
    let first = &plain[0];
    let c = first.counters;
    let t1 = tr
        .first()
        .and_then(|r| r.traced.as_ref())
        .expect("a traced run has a traced round");
    let run_s = fastest(plain, |r| r.run_ns as f64 / 1e9);
    let handler_s = fastest_t(tr, |t| (t.adapt_handler_ns + t.lib_handler_ns) as f64 / 1e9);
    let replay_s = fastest_t(tr, |t| t.replay_ns as f64 / 1e9);
    let msgs = c.messages as f64;
    let obs_overhead = if bare.is_empty() {
        0.0
    } else {
        fastest(plain, |r| r.host_ns as f64) / fastest(bare, |r| r.host_ns as f64) - 1.0
    };
    let skew = &first.adapt_skew_us;
    vec![
        ("sim.events", Some(c.events as f64)),
        ("sim.events_per_msg", Some(ratio(c.events as f64, msgs))),
        (
            "sim.run_ns_per_event",
            Some(fastest(plain, |r| ratio(r.run_ns as f64, c.events as f64))),
        ),
        (
            "mpi.world_build_s",
            Some(fastest(tr, |r| r.world_ns as f64 / 1e9)),
        ),
        (
            "core.programs_build_s",
            Some(fastest(tr, |r| r.programs_ns as f64 / 1e9)),
        ),
        ("mpi.messages", Some(msgs)),
        (
            "mpi.match_probes_per_msg",
            Some(ratio(c.match_probes as f64, msgs)),
        ),
        (
            "mpi.unexpected_frac",
            Some(ratio(c.unexpected as f64, msgs)),
        ),
        (
            "mpi.rendezvous_frac",
            Some(ratio(c.rendezvous as f64, msgs)),
        ),
        ("mpi.stray_events", Some(c.stray as f64)),
        ("mpi.engine_s", Some(run_s - handler_s - replay_s)),
        (
            "mpi.sim_posted_to_matched_us_p50",
            Some(hist_us(&t1.posted_to_matched, 50.0)),
        ),
        (
            "mpi.sim_posted_to_matched_us_p99",
            Some(hist_us(&t1.posted_to_matched, 99.0)),
        ),
        (
            "mpi.sim_rts_to_cts_us_p50",
            Some(hist_us(&t1.rts_to_cts, 50.0)),
        ),
        ("net.share_recomputes", Some(c.share_recomputes as f64)),
        ("net.refreshes", Some(c.refreshes as f64)),
        ("net.reschedules", Some(c.reschedules as f64)),
        ("net.flows", Some(t1.flows as f64)),
        (
            "net.recomputes_per_flow",
            Some(ratio(c.share_recomputes as f64, t1.flows as f64)),
        ),
        ("net.replay_s", Some(replay_s)),
        (
            "net.replay_ns_per_flow",
            Some(fastest_t(tr, |t| ratio(t.replay_ns as f64, t.flows as f64))),
        ),
        (
            "net.replay_fidelity",
            Some(ratio(t1.replay_exact as f64, t1.replay_delivered as f64)),
        ),
        (
            "net.sim_flow_us_p50.rndv",
            Some(hist_us(&t1.flow_rndv, 50.0)),
        ),
        (
            "net.sim_flow_us_p99.rndv",
            Some(hist_us(&t1.flow_rndv, 99.0)),
        ),
        (
            "net.sim_flow_us_p50.eager",
            Some(hist_us(&t1.flow_eager, 50.0)),
        ),
        ("core.handler_calls", Some(t1.adapt_handler_calls as f64)),
        (
            "core.handler_s",
            Some(fastest_t(tr, |t| t.adapt_handler_ns as f64 / 1e9)),
        ),
        (
            "core.handler_ns_per_call",
            Some(fastest_t(tr, |t| {
                ratio(t.adapt_handler_ns as f64, t.adapt_handler_calls as f64)
            })),
        ),
        (
            "collectives.handler_calls",
            Some(t1.lib_handler_calls as f64),
        ),
        (
            "collectives.handler_s",
            Some(fastest_t(tr, |t| t.lib_handler_ns as f64 / 1e9)),
        ),
        (
            "core.sim_busy_frac",
            Some(ratio(first.adapt_busy_ns, first.adapt_span_ns)),
        ),
        (
            "core.sim_finish_skew_us",
            Some(ratio(skew.iter().sum(), skew.len() as f64)),
        ),
        ("noise.sim_noise_frac", Some(ratio(t1.noise_ns, t1.span_ns))),
        ("faults.drops", Some(c.drops as f64)),
        ("faults.retransmits", Some(c.retransmits as f64)),
        ("faults.acks", Some(c.acks as f64)),
        ("faults.duplicates_suppressed", Some(c.duplicates as f64)),
        (
            "faults.delivery_efficiency",
            Some(ratio(msgs, msgs + c.retransmits as f64)),
        ),
        ("obs.overhead_frac", Some(obs_overhead)),
        ("obs.snapshots", Some(c.snapshots as f64)),
        ("obs.alerts", Some(c.alerts as f64)),
        ("obs.dispatches", Some(c.dispatches as f64)),
        (
            "trace.overhead_frac",
            Some(fastest(tr, |r| r.host_ns as f64) / fastest(plain, |r| r.host_ns as f64) - 1.0),
        ),
    ]
}

#[cfg(test)]
mod tests {
    use super::*;

    fn names(r: &Report) -> Vec<&str> {
        r.metrics.iter().map(|(m, _)| m.name).collect()
    }

    #[test]
    fn every_workload_emits_every_metric_at_three_ops() {
        for w in Workload::ALL {
            let r = run(w, 2018, Budget::Ops(3), false);
            assert!(r.failures.is_empty(), "{}: {:?}", w.name(), r.failures);
            let expected: Vec<&str> = END_TO_END.iter().map(|m| m.name).collect();
            assert_eq!(names(&r), expected);
            let adapt = w.ops(2018).iter().take(3).any(Op::is_adapt);
            for (m, v) in &r.metrics {
                // Three samples are too few for a p90, which is refused,
                // and three ops may hold no ADAPT op to take a latency of.
                let refused = m.name == "op_ms_p90" || (m.name == "sim_adapt_us" && !adapt);
                assert_eq!(v.is_none(), refused, "{} {}", w.name(), m.name);
            }

            let r = run(w, 2018, Budget::Ops(3), true);
            assert!(r.failures.is_empty(), "{}: {:?}", w.name(), r.failures);
            let expected: Vec<&str> = PER_LAYER.iter().map(|m| m.name).collect();
            assert_eq!(names(&r), expected);
            assert!(r.metrics.iter().all(|(_, v)| v.is_some()), "{}", w.name());
        }
    }
}
