//! Self-timed performance harness for the simulator's hot paths.
//!
//! Every scenario runs `warmup` throwaway iterations and then `k` timed
//! iterations with [`std::time::Instant`], reporting the **median**
//! wall-clock so one noisy iteration cannot skew a recorded number. The
//! layer scenarios drive one hot path each; the fig8 sweeps run whole
//! collectives with one attachment each:
//!
//! | scenario | exercises |
//! |---|---|
//! | `event_queue` | the event queue alone, at the simulator's live depth and cancel share |
//! | `matching_posted` | arrival matching against a long posted-receive list |
//! | `matching_unexpected` | receive posting against long unexpected queues |
//! | `flow_churn` | fair-share refresh on a congested link under flow churn |
//! | `fig8_quick_bcast` | end-to-end 256-rank broadcast sweep (quick fig8) |
//! | `fig8_quick_bcast_256_traced` | the same sweep with observability recording on |
//! | `fig8_quick_bcast_256_streaming` | the sweep with the bounded-memory streaming recorder on |
//! | `fig8_quick_bcast_inert_faults` | the sweep with an inert fault plan — the reliability layer's zero-overhead guard |
//! | `fig8_quick_bcast_inert_kill` | the sweep with a past-completion kill plan — the failure detector's zero-overhead guard |
//! | `fig8_quick_bcast_lossy1pct` | the sweep at 1% per-hop loss through the reliability layer |
//! | `fig8_quick_bcast_256_monitored` | the sweep with the online health monitor snapshotting every 10 µs |
//!
//! Every scenario's parameters come from the declarative TOML corpus
//! (`crates/bench/scenarios/*.toml`); the `bench` binary runs them and
//! records absolute numbers in the barometer ledger
//! (`results/barometer.jsonl`, see [`crate::barometer`]). A scenario whose
//! run fails, or whose sanity check does not hold, returns an error
//! instead of a measurement.

use crate::FIG89_SIZES;
use adapt_collectives::{execute, CollectiveCase, Library, OpKind, Recording, RunSpec};
use adapt_faults::FaultPlan;
use adapt_mpi::{Completion, Op, Payload, ProgramCtx, RankProgram, RunResult, Token, WorldStats};
use adapt_net::{FlowId, FlowScheduler, FlowSpec, Link, LinkClass, LinkId, NetStep, Network, Path};
use adapt_sim::queue::{EventKey, EventQueue, QueueAudit};
use adapt_sim::time::{Duration as SimDuration, Time};
use adapt_topology::profiles;
use std::sync::Arc;
use std::time::Instant;

/// One measured scenario.
#[derive(Clone, Debug)]
pub struct PerfResult {
    /// Scenario name (stable key in the JSON trajectory).
    pub name: String,
    /// Median wall-clock across the timed iterations, milliseconds.
    pub wall_ms: f64,
    /// Fastest timed iteration, milliseconds.
    pub wall_min_ms: f64,
    /// Slowest timed iteration, milliseconds.
    pub wall_max_ms: f64,
    /// Simulator events processed in one iteration.
    pub events: u64,
    /// Events per wall-clock second (throughput figure of merit).
    pub events_per_sec: f64,
    /// Matching probes performed in one iteration (0 where untracked).
    pub match_probes: u64,
    /// Fair-share recomputations in one iteration (0 where untracked).
    pub share_recomputes: u64,
}

/// Wall-clock distribution of one timed scenario: the median that gets
/// recorded, plus the min/max spread that says how far to trust it. A
/// spread much wider than a CI gate's threshold means the gate would be
/// reading noise, not regressions.
#[derive(Clone, Copy, Debug)]
pub struct Timing {
    /// Median of the timed iterations, milliseconds.
    pub median_ms: f64,
    /// Fastest timed iteration, milliseconds.
    pub min_ms: f64,
    /// Slowest timed iteration, milliseconds.
    pub max_ms: f64,
}

/// Run `f` with `warmup` throwaway and `k` timed iterations; returns the
/// median/min/max wall-clock plus the last iteration's payload. The
/// median is what gets recorded (robust to a single noisy iteration); the
/// spread is recorded alongside so a diff can tell signal from noise.
/// The first failing iteration's error is returned, as is an error for
/// `k == 0`.
pub fn time_median<T>(
    warmup: usize,
    k: usize,
    mut f: impl FnMut() -> Result<T, String>,
) -> Result<(Timing, T), String> {
    for _ in 0..warmup {
        f()?;
    }
    let mut samples = Vec::with_capacity(k);
    let mut last = None;
    for _ in 0..k {
        let start = Instant::now();
        let out = f()?;
        samples.push(start.elapsed().as_secs_f64() * 1e3);
        last = Some(out);
    }
    let Some(last) = last else {
        return Err("a timed scenario needs at least one timed iteration".to_string());
    };
    samples.sort_by(|a, b| a.total_cmp(b));
    let t = Timing {
        median_ms: samples[k / 2],
        min_ms: samples[0],
        max_ms: samples[k - 1],
    };
    Ok((t, last))
}

/// `Ok` when `ok` holds, else the scenario error `why` describes.
fn ensure(ok: bool, why: impl FnOnce() -> String) -> Result<(), String> {
    if ok {
        Ok(())
    } else {
        Err(why())
    }
}

// ---------------------------------------------------------------------
// Event queue: the queue layer alone, no world around it.
// ---------------------------------------------------------------------

/// Parameters of the event-queue scenario.
#[derive(Clone, Copy, Debug)]
pub struct QueueParams {
    /// Live events the queue holds throughout the timed loop.
    pub live: u64,
    /// Pops in the timed loop (the final drain pops `live` more).
    pub pops: u64,
    /// Throwaway iterations before timing starts.
    pub warmup: usize,
    /// Timed iterations (median recorded).
    pub iters: usize,
}

/// What one event-queue iteration did, for its conservation check.
#[derive(Clone, Copy, Debug)]
struct QueueTally {
    scheduled: u64,
    cancelled: u64,
    popped: u64,
    audit: QueueAudit,
}

/// Spread of the scattered scheduling delays, in nanoseconds.
const QUEUE_SPAN_NS: u64 = 1 << 20;

/// A hold model with the simulator's queue shape: `live` events at
/// scattered instants, then `pops` pops. Every two pops schedule three
/// events and cancel one — two fire-once events, and a far-future event
/// that replaces (cancels) the previous one, the way a link's drain event
/// is replaced when its share changes — so the live count holds steady.
/// Then the queue pops dry.
fn queue_hold(live: u64, pops: u64) -> QueueTally {
    let mut q = EventQueue::new();
    let mut x = 0x9E37_79B9_7F4A_7C15u64;
    let mut delay = move || {
        x ^= x << 13;
        x ^= x >> 7;
        x ^= x << 17;
        1 + x % QUEUE_SPAN_NS
    };
    for i in 0..live {
        q.schedule(Time(delay()), i);
    }
    let mut scheduled = live;
    let mut cancelled = 0u64;
    let mut popped = 0u64;
    let mut replaced: Option<EventKey> = None;
    for step in 0..pops {
        let Some((now, _)) = q.pop() else { break };
        popped += 1;
        if step % 2 == 0 {
            q.schedule(Time(now.0 + delay()), step);
            q.schedule(Time(now.0 + delay()), step);
            scheduled += 2;
        } else {
            if let Some(k) = replaced {
                cancelled += u64::from(q.cancel(k));
            }
            replaced = Some(q.schedule(Time(now.0 + QUEUE_SPAN_NS + delay()), step));
            scheduled += 1;
        }
    }
    while q.pop().is_some() {
        popped += 1;
    }
    QueueTally {
        scheduled,
        cancelled,
        popped,
        audit: q.audit(),
    }
}

/// Event-queue throughput on the simulator's queue shape: `p.live`
/// events held while `p.pops` pop, a third of the schedules cancelled.
/// Checked to pop exactly the events scheduled minus those cancelled,
/// with a consistent queue audit and no causality clamps.
pub fn bench_event_queue(p: &QueueParams) -> Result<PerfResult, String> {
    let (t, tally) = time_median(p.warmup, p.iters, || {
        let tally = queue_hold(p.live, p.pops);
        ensure(
            tally.popped == tally.scheduled - tally.cancelled
                && tally.audit.is_consistent()
                && tally.audit.causality_violations == 0,
            || format!("event queue lost or invented events: {tally:?}"),
        )?;
        Ok(tally)
    })?;
    Ok(PerfResult {
        name: "event_queue".into(),
        wall_ms: t.median_ms,
        wall_min_ms: t.min_ms,
        wall_max_ms: t.max_ms,
        events: tally.popped,
        events_per_sec: tally.popped as f64 / (t.median_ms / 1e3),
        match_probes: 0,
        share_recomputes: 0,
    })
}

// ---------------------------------------------------------------------
// Matching scenarios: a two-rank world where rank 0 floods rank 1.
// ---------------------------------------------------------------------

/// Rank 0: send `count` eager messages to rank 1, tags in *descending*
/// order (worst case for a linear posted-list scan), `window` outstanding
/// at a time so the network stays small while the match lists stay long.
struct FloodSender {
    count: u32,
    window: u32,
    bytes: u64,
    next: u32,
    inflight: u32,
}

impl FloodSender {
    fn pump(&mut self, ctx: &mut dyn ProgramCtx) {
        while self.next < self.count && self.inflight < self.window {
            let tag = self.count - 1 - self.next; // descending tags
            ctx.post(Op::Isend {
                dst: 1,
                tag,
                payload: Payload::Synthetic(self.bytes),
                token: Token(tag as u64),
                src_mem: None,
            });
            self.next += 1;
            self.inflight += 1;
        }
        if self.next == self.count && self.inflight == 0 {
            ctx.post(Op::Finish);
        }
    }
}

impl RankProgram for FloodSender {
    fn on_start(&mut self, ctx: &mut dyn ProgramCtx) {
        self.pump(ctx);
    }
    fn on_completion(&mut self, ctx: &mut dyn ProgramCtx, c: Completion) {
        if matches!(c, Completion::SendDone { .. }) {
            self.inflight -= 1;
        }
        self.pump(ctx);
    }
}

/// Rank 1 (posted-scan stress): pre-post all `count` receives with exact
/// ascending tags, then count completions. Descending-tag arrivals force
/// a deep scan of the posted list on every match.
struct PrePoster {
    count: u32,
    done: u32,
}

impl RankProgram for PrePoster {
    fn on_start(&mut self, ctx: &mut dyn ProgramCtx) {
        for tag in 0..self.count {
            ctx.irecv(0, tag, Token(tag as u64));
        }
    }
    fn on_completion(&mut self, ctx: &mut dyn ProgramCtx, c: Completion) {
        if matches!(c, Completion::RecvDone { .. }) {
            self.done += 1;
            if self.done == self.count {
                ctx.finish();
            }
        }
    }
}

/// Rank 1 (unexpected-scan stress): compute for a long time so every
/// message lands unexpected, then post receives in *ascending* tag order —
/// each post scans the unexpected queue (descending arrival tags) deeply.
struct LatePoster {
    count: u32,
    delay: SimDuration,
    done: u32,
}

impl RankProgram for LatePoster {
    fn on_start(&mut self, ctx: &mut dyn ProgramCtx) {
        ctx.compute(self.delay, Token(u64::MAX));
    }
    fn on_completion(&mut self, ctx: &mut dyn ProgramCtx, c: Completion) {
        match c {
            Completion::ComputeDone { .. } => {
                for tag in 0..self.count {
                    ctx.irecv(0, tag, Token(tag as u64));
                }
            }
            Completion::RecvDone { .. } => {
                self.done += 1;
                if self.done == self.count {
                    ctx.finish();
                }
            }
            _ => {}
        }
    }
}

/// Rank 0 floods `count` messages of `bytes` at rank 1, which runs the
/// program `receiver` builds.
fn matching_world(
    count: u32,
    bytes: u64,
    receiver: impl Fn() -> Box<dyn RankProgram> + Send + Sync + 'static,
) -> Result<WorldStats, String> {
    let programs = Arc::new(move || {
        let sender = Box::new(FloodSender {
            count,
            window: 32,
            bytes,
            next: 0,
            inflight: 0,
        });
        vec![sender, receiver()]
    });
    execute(&RunSpec::new(profiles::minicluster(1, 1, 2), 2, programs))
        .map(|res| res.stats)
        .map_err(|e| format!("matching run of {count} messages: {e}"))
}

/// Parameters of the two matching scenarios, normally loaded from the
/// scenario corpus (`crates/bench/scenarios/*.toml`).
#[derive(Clone, Copy, Debug)]
pub struct MatchingParams {
    /// Messages flooded from rank 0 to rank 1.
    pub count: u32,
    /// Payload bytes per message.
    pub bytes: u64,
    /// Throwaway iterations before timing starts.
    pub warmup: usize,
    /// Timed iterations (median recorded).
    pub iters: usize,
}

/// Posted-receive matching throughput (descending arrivals vs a long
/// pre-posted list).
pub fn bench_matching_posted(p: &MatchingParams) -> Result<PerfResult, String> {
    let count = p.count;
    let (t, stats) = time_median(p.warmup, p.iters, || {
        matching_world(count, p.bytes, move || {
            Box::new(PrePoster { count, done: 0 })
        })
    })?;
    Ok(result("matching_posted", t, stats))
}

/// Unexpected-queue matching throughput (late posts vs a long unexpected
/// queue).
pub fn bench_matching_unexpected(p: &MatchingParams) -> Result<PerfResult, String> {
    let count = p.count;
    let (t, stats) = time_median(p.warmup, p.iters, || {
        matching_world(count, p.bytes, move || {
            Box::new(LatePoster {
                count,
                delay: SimDuration::from_millis(500),
                done: 0,
            })
        })
    })?;
    Ok(result("matching_unexpected", t, stats))
}

// ---------------------------------------------------------------------
// Flow churn: drive the network engine directly.
// ---------------------------------------------------------------------

struct BenchSched(EventQueue<FlowId>);

impl FlowScheduler for BenchSched {
    fn schedule(&mut self, at: Time, flow: FlowId) -> EventKey {
        self.0.schedule(at, flow)
    }
    fn cancel(&mut self, key: EventKey) {
        self.0.cancel(key);
    }
}

/// Parameters of the flow-churn scenario.
#[derive(Clone, Copy, Debug)]
pub struct ChurnParams {
    /// Endpoint lanes funnelling into the shared backbone.
    pub lanes: u32,
    /// Flows started over the run.
    pub flows: u64,
    /// Throwaway iterations before timing starts.
    pub warmup: usize,
    /// Timed iterations (median recorded).
    pub iters: usize,
}

/// Start `flows` staggered flows over `lanes` endpoint lanes that all
/// funnel through one backbone link, and drive the engine dry. This is the
/// fan-in congestion pattern of a large reduce: every start and drain
/// perturbs the shared bottleneck.
pub fn bench_flow_churn(p: &ChurnParams) -> Result<PerfResult, String> {
    let (lanes, flows) = (p.lanes, p.flows);
    let (t, (events, perf)) = time_median(p.warmup, p.iters, || {
        let mut links = vec![Link {
            class: LinkClass::Backbone,
            capacity: 100e9,
            latency: SimDuration::from_nanos(500),
        }];
        for _ in 0..lanes {
            links.push(Link {
                class: LinkClass::NicTx(0),
                capacity: 12e9,
                latency: SimDuration::from_nanos(300),
            });
        }
        let mut net = Network::new(links);
        let mut q = BenchSched(EventQueue::new());
        // Deterministic LCG for lane choice and stagger (no RNG dep).
        let mut s: u64 = 0x9e3779b97f4a7c15;
        let mut lcg = move || {
            s = s
                .wrapping_mul(6364136223846793005)
                .wrapping_add(1442695040888963407);
            s >> 33
        };
        let mut started = 0u64;
        let mut events = 0u64;
        let mut next_start = Time::ZERO;
        // Seed a first batch; afterwards each delivery spawns a successor,
        // keeping a steady churn of concurrent flows on the backbone.
        for _ in 0..256 {
            let lane = 1 + (lcg() % lanes as u64) as u32;
            net.start_flow(
                next_start,
                FlowSpec {
                    path: Path::new(&[LinkId(lane), LinkId(0)]),
                    bytes: 64 * 1024 + (lcg() % 8) * 8 * 1024,
                    tag: started,
                },
                &mut q,
            );
            started += 1;
            next_start += SimDuration::from_nanos(lcg() % 2_000);
        }
        while let Some((t, fid)) = q.0.pop() {
            events += 1;
            if let NetStep::Delivered(_) = net.handle_event(t, fid, &mut q) {
                if started < flows {
                    let lane = 1 + (lcg() % lanes as u64) as u32;
                    net.start_flow(
                        t,
                        FlowSpec {
                            path: Path::new(&[LinkId(lane), LinkId(0)]),
                            bytes: 64 * 1024 + (lcg() % 8) * 8 * 1024,
                            tag: started,
                        },
                        &mut q,
                    );
                    started += 1;
                }
            }
        }
        ensure(
            net.active_flows() == 0 && net.injected_bytes() == net.delivered_bytes(),
            || {
                format!(
                    "flow churn did not drain: {} flows active, {} of {} bytes delivered",
                    net.active_flows(),
                    net.delivered_bytes(),
                    net.injected_bytes()
                )
            },
        )?;
        Ok((events, net.perf_counters()))
    })?;
    Ok(PerfResult {
        name: "flow_churn".into(),
        wall_ms: t.median_ms,
        wall_min_ms: t.min_ms,
        wall_max_ms: t.max_ms,
        events,
        events_per_sec: events as f64 / (t.median_ms / 1e3),
        match_probes: 0,
        share_recomputes: perf.share_recomputes,
    })
}

// ---------------------------------------------------------------------
// End-to-end: quick-scale fig8 broadcast sweep at 256 ranks.
// ---------------------------------------------------------------------

/// What rides along on the fig8 sweep: the plain run, or one of the
/// cross-layer attachments whose overhead the suite tracks.
#[derive(Clone, Copy, Debug, PartialEq)]
pub enum Fig8Mode {
    /// Plain sweep — the acceptance scenario.
    Plain,
    /// Full observability recording (spans + 10 µs gauge sampling).
    Traced,
    /// Bounded-memory streaming telemetry ([`adapt_obs::StreamRecorder`]): online
    /// aggregation only, no span buffers, no gauge sampling.
    Streaming,
    /// Inert fault plan attached — the reliability layer's zero-overhead
    /// guard (counters asserted bit-identical to an unfaulted run).
    InertFaults,
    /// Kill plan whose instant lies beyond the run's completion — the
    /// failure detector's zero-overhead guard: a kill-only plan arms no
    /// reliability machinery (no ack traffic, no retransmit timers), so
    /// the simulated schedule must be bit-identical to the plain run and
    /// only the kill/detection counters may differ.
    InertKill,
    /// Per-hop message loss at the given probability, with an 80 µs RTO.
    Lossy(f64),
    /// Online health monitor attached at a 10 µs snapshot cadence: the
    /// snapshot timer rides the event queue and the four anomaly
    /// detectors run over every consecutive pair — the cost of always-on
    /// health monitoring, gated at the standard 5% against the plain run.
    Monitored,
}

/// Parameters of the fig8 end-to-end sweep.
#[derive(Clone, Copy, Debug)]
pub struct Fig8Params {
    /// Cori nodes (32 ranks each).
    pub nodes: u32,
    /// Total ranks.
    pub nranks: u32,
    /// Throwaway iterations before timing starts.
    pub warmup: usize,
    /// Timed iterations (median recorded).
    pub iters: usize,
    /// Attachment under test.
    pub mode: Fig8Mode,
}

/// The spec of one fig8 size with `mode`'s attachment.
fn fig8_spec(case: &CollectiveCase, mode: Fig8Mode) -> RunSpec {
    let plain = case.spec();
    match mode {
        Fig8Mode::Plain => plain,
        Fig8Mode::Traced => RunSpec {
            recorder: Recording {
                full: true,
                metrics_interval_ns: Some(10_000),
                ..Recording::default()
            },
            ..plain
        },
        Fig8Mode::Streaming => RunSpec {
            recorder: Recording {
                summary: true,
                ..Recording::default()
            },
            ..plain
        },
        Fig8Mode::InertFaults => RunSpec {
            faults: Some(FaultPlan::lossy(1, 0.0)),
            ..plain
        },
        // Kill the last rank long after the run completes.
        Fig8Mode::InertKill => RunSpec {
            faults: Some(FaultPlan::lossy(1, 0.0).with_kill(
                case.nranks - 1,
                Time::ZERO + SimDuration::from_millis(10_000),
            )),
            ..plain
        },
        Fig8Mode::Lossy(p_loss) => RunSpec {
            faults: Some(FaultPlan::lossy(1, p_loss).with_rto(SimDuration::from_micros(80))),
            ..plain
        },
        Fig8Mode::Monitored => RunSpec {
            monitor_ns: Some(10_000),
            ..plain
        },
    }
}

/// Run one spec of the sweep; a failed run is a broken scenario.
fn run_fig8(case: &CollectiveCase, mode: Fig8Mode) -> Result<RunResult, String> {
    execute(&fig8_spec(case, mode)).map_err(|e| format!("fig8 {mode:?} {}B: {e}", case.msg_bytes))
}

/// One size of the fig8 sweep under `mode`'s attachment, with the
/// attachment's own sanity checks.
fn run_fig8_size(case: &CollectiveCase, mode: Fig8Mode) -> Result<WorldStats, String> {
    let res = run_fig8(case, mode)?;
    let at = case.msg_bytes;
    match mode {
        Fig8Mode::Traced => {
            ensure(
                res.obs
                    .as_ref()
                    .is_some_and(|o| !o.dispatches.is_empty() && !o.gauges.is_empty()),
                || format!("fig8 traced {at}B: no dispatch spans or gauges recorded"),
            )?;
        }
        Fig8Mode::Streaming => {
            ensure(
                res.summary
                    .as_ref()
                    .is_some_and(|s| s.msgs_posted > 0 && s.dispatches > 0),
                || format!("fig8 streaming {at}B: the summary saw no messages or dispatches"),
            )?;
        }
        Fig8Mode::Lossy(_) => {
            ensure(res.stats.retransmits > 0, || {
                format!("fig8 lossy {at}B: loss never exercised recovery")
            })?;
        }
        Fig8Mode::Monitored => {
            let Some(health) = &res.health else {
                return Err(format!("fig8 monitored {at}B: no health report"));
            };
            ensure(health.snapshots > 0, || {
                format!("fig8 monitored {at}B: the snapshot timer never fired")
            })?;
            ensure(health.total_alerts() == 0, || {
                format!("fig8 monitored {at}B: a clean sweep paged the monitor: {health:?}")
            })?;
        }
        Fig8Mode::Plain | Fig8Mode::InertFaults | Fig8Mode::InertKill => {}
    }
    Ok(res.stats)
}

/// A kill scheduled past the run's completion must not perturb the
/// simulated schedule at all: kill-only plans keep the reliability layer
/// off (no acks, no timers), so per-rank finish times and every counter
/// except the kill/detection tallies must match the plain run.
fn check_inert_kill(case: &CollectiveCase) -> Result<(), String> {
    let at = case.msg_bytes;
    let spec = fig8_spec(case, Fig8Mode::InertKill);
    ensure(spec.faults.as_ref().is_some_and(|p| !p.is_inert()), || {
        format!("fig8 inert kill {at}B: a kill plan must not read as inert")
    })?;
    let res = run_fig8(case, Fig8Mode::InertKill)?;
    let plain = run_fig8(case, Fig8Mode::Plain)?;
    let mut masked = res.stats;
    ensure(
        masked.ranks_killed == 1 && masked.failures_detected == 1,
        || {
            format!(
                "fig8 inert kill {at}B: killed={} detected={}, expected 1 and 1",
                masked.ranks_killed, masked.failures_detected
            )
        },
    )?;
    masked.ranks_killed = 0;
    masked.failures_detected = 0;
    // The Kill and Detect events themselves are the only extras.
    masked.events = masked.events.saturating_sub(2);
    ensure(
        res.per_rank_finish == plain.per_rank_finish && masked == plain.stats,
        || format!("fig8 inert kill {at}B: a kill-only plan added reliability overhead"),
    )
}

/// The inert fault plan's bit-identical guarantee: every counter and
/// per-rank finish time matches the plain run.
fn check_inert_faults(case: &CollectiveCase) -> Result<(), String> {
    let at = case.msg_bytes;
    let spec = fig8_spec(case, Fig8Mode::InertFaults);
    ensure(
        spec.faults.as_ref().is_some_and(FaultPlan::is_inert),
        || format!("fig8 inert faults {at}B: the plan is not inert"),
    )?;
    let res = run_fig8(case, Fig8Mode::InertFaults)?;
    let plain = run_fig8(case, Fig8Mode::Plain)?;
    ensure(
        res.stats == plain.stats && res.per_rank_finish == plain.per_rank_finish,
        || format!("fig8 inert faults {at}B: an inert plan changed the run"),
    )
}

/// The fig8 sweep with explicit parameters: one collective run per
/// message size, with `p.mode`'s attachment, summed stats per iteration.
/// The inert modes' equivalence checks run once, outside the timed loop,
/// so the recorded wall clock measures only the attached run and compares
/// directly against `fig8_quick_bcast_256`.
pub fn bench_fig8(name: &str, p: &Fig8Params) -> Result<PerfResult, String> {
    let spec = profiles::cori(p.nodes);
    let cases: Vec<CollectiveCase> = FIG89_SIZES
        .iter()
        .map(|&msg_bytes| CollectiveCase {
            machine: spec.clone(),
            nranks: p.nranks,
            op: OpKind::Bcast,
            library: Library::OmpiAdapt,
            msg_bytes,
        })
        .collect();
    for case in &cases {
        match p.mode {
            Fig8Mode::InertKill => check_inert_kill(case)?,
            Fig8Mode::InertFaults => check_inert_faults(case)?,
            _ => {}
        }
    }
    let (t, stats_sum) = time_median(p.warmup, p.iters, || {
        let mut sum = WorldStats::default();
        // Largest size first: the order the fig8 ledger history was
        // timed in, so the series stays comparable.
        for case in cases.iter().rev() {
            let stats = run_fig8_size(case, p.mode)?;
            sum.events += stats.events;
            sum.match_probes += stats.match_probes;
            sum.net_share_recomputes += stats.net_share_recomputes;
        }
        Ok(sum)
    })?;
    Ok(result(name, t, stats_sum))
}

fn result(name: &str, t: Timing, stats: WorldStats) -> PerfResult {
    PerfResult {
        name: name.into(),
        wall_ms: t.median_ms,
        wall_min_ms: t.min_ms,
        wall_max_ms: t.max_ms,
        events: stats.events,
        events_per_sec: stats.events as f64 / (t.median_ms / 1e3),
        match_probes: stats.match_probes,
        share_recomputes: stats.net_share_recomputes,
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn median_is_robust_to_one_outlier() {
        let mut i = 0;
        let (t, _) = time_median(0, 3, || {
            i += 1;
            if i == 2 {
                std::thread::sleep(std::time::Duration::from_millis(5));
            }
            Ok(())
        })
        .unwrap();
        assert!(
            t.median_ms < 5.0,
            "median {} should dodge the 5ms outlier",
            t.median_ms
        );
        // The outlier still shows up in the spread.
        assert!(t.max_ms >= 5.0);
        assert!(t.min_ms <= t.median_ms && t.median_ms <= t.max_ms);
    }

    #[test]
    fn sinks_add_zero_counters() {
        // Recording must be observationally free: identical timing and
        // identical WorldStats counters with no sink attached, with a
        // live MemRecorder, and with a StreamRecorder plus a flight ring.
        use adapt_mpi::World;
        use adapt_noise::ClusterNoise;
        use adapt_obs::{FlightRecorder, MemRecorder, StreamRecorder};
        let run = |attach: &dyn Fn(World) -> World| {
            let spec = profiles::minicluster(2, 2, 4);
            let world = attach(World::cpu(spec, 16, ClusterNoise::silent(16)));
            let case = CollectiveCase {
                machine: profiles::minicluster(2, 2, 4),
                nranks: 16,
                op: OpKind::Bcast,
                library: Library::OmpiAdapt,
                msg_bytes: 1 << 20,
            };
            let res = world.try_run(case.programs()).unwrap();
            assert!(res.audit.is_clean(), "{}", res.audit);
            res
        };
        let plain = run(&|w| w);
        let mem = run(&|w| w.with_recorder(MemRecorder::with_metrics(10_000)));
        let stream = run(&|w| {
            w.with_recorder(StreamRecorder::new())
                .with_recorder(FlightRecorder::new(64))
        });
        for other in [&mem, &stream] {
            assert_eq!(format!("{}", plain.stats), format!("{}", other.stats));
            assert_eq!(plain.makespan, other.makespan);
        }
        assert!(plain.obs.is_none() && plain.summary.is_none());
        assert!(mem.obs.is_some());
        assert!(stream.obs.is_none() && stream.summary.is_some());
    }

    #[test]
    fn time_median_reports_failures_instead_of_panicking() {
        assert!(time_median(0, 0, || Ok(())).is_err());
        let mut i = 0;
        let err = time_median(1, 3, || {
            i += 1;
            if i == 3 {
                Err("iteration 3 failed".to_string())
            } else {
                Ok(i)
            }
        })
        .unwrap_err();
        assert_eq!(err, "iteration 3 failed");
    }

    #[test]
    fn event_queue_pops_what_it_scheduled_minus_cancels() {
        let tally = queue_hold(64, 1000);
        // 64 prefilled + 3 per two pops; every replacement but the
        // first cancels its predecessor.
        assert_eq!(tally.scheduled, 64 + 1500);
        assert_eq!(tally.cancelled, 499);
        assert_eq!(tally.popped, tally.scheduled - tally.cancelled);
        assert!(tally.audit.is_consistent(), "{:?}", tally.audit);
        assert_eq!(tally.audit.causality_violations, 0);
        let r = bench_event_queue(&QueueParams {
            live: 64,
            pops: 1000,
            warmup: 0,
            iters: 1,
        })
        .unwrap();
        assert_eq!(r.events, tally.popped);
    }

    #[test]
    fn matching_worlds_run_clean_at_tiny_scale() {
        let stats =
            matching_world(64, 1024, || Box::new(PrePoster { count: 64, done: 0 })).unwrap();
        assert_eq!(stats.messages, 64);
        let stats = matching_world(64, 1024, || {
            Box::new(LatePoster {
                count: 64,
                delay: SimDuration::from_millis(50),
                done: 0,
            })
        })
        .unwrap();
        assert_eq!(stats.unexpected_matches, 64);
        assert!(stats.match_probes > 0);
    }
}
