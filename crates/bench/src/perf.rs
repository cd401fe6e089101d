//! Self-timed performance harness for the simulator's hot paths.
//!
//! The vendored criterion is an API stub, so this module carries its own
//! measurement loop: every scenario runs `warmup` throwaway iterations and
//! then `k` timed iterations with [`std::time::Instant`], reporting the
//! **median** wall-clock so one noisy iteration cannot skew a recorded
//! number. Three scenarios cover the three per-event hot paths:
//!
//! | scenario | exercises |
//! |---|---|
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
//! (`results/barometer.jsonl`, see [`crate::barometer`]).

use crate::FIG89_SIZES;
use adapt_collectives::{execute, CollectiveCase, Library, OpKind, Recording, RunSpec};
use adapt_faults::FaultPlan;
use adapt_mpi::{Completion, Op, Payload, ProgramCtx, RankProgram, RunResult, Token, WorldStats};
use adapt_net::{FlowId, FlowScheduler, FlowSpec, Link, LinkClass, LinkId, NetStep, Network, Path};
use adapt_sim::queue::{EventKey, EventQueue};
use adapt_sim::time::{Duration as SimDuration, Time};
use adapt_sim::WorkerPool;
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
    /// Worker threads the scenario ran on (1 = the sequential engine).
    /// Throughput at different widths is not comparable — the ledger keys
    /// on this so a diff never pairs them silently.
    pub threads: usize,
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
pub fn time_median<T>(warmup: usize, k: usize, mut f: impl FnMut() -> T) -> (Timing, T) {
    assert!(k >= 1);
    for _ in 0..warmup {
        f();
    }
    let mut samples = Vec::with_capacity(k);
    let mut last = None;
    for _ in 0..k {
        let start = Instant::now();
        let out = f();
        samples.push(start.elapsed().as_secs_f64() * 1e3);
        last = Some(out);
    }
    samples.sort_by(|a, b| a.total_cmp(b));
    let t = Timing {
        median_ms: samples[k / 2],
        min_ms: samples[0],
        max_ms: samples[k - 1],
    };
    (t, last.expect("k >= 1"))
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
) -> WorldStats {
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
        .expect("a matching scenario completes audit-clean")
        .stats
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
pub fn bench_matching_posted(p: &MatchingParams) -> PerfResult {
    let count = p.count;
    let (t, stats) = time_median(p.warmup, p.iters, || {
        matching_world(count, p.bytes, move || {
            Box::new(PrePoster { count, done: 0 })
        })
    });
    result("matching_posted", t, stats)
}

/// Unexpected-queue matching throughput (late posts vs a long unexpected
/// queue).
pub fn bench_matching_unexpected(p: &MatchingParams) -> PerfResult {
    let count = p.count;
    let (t, stats) = time_median(p.warmup, p.iters, || {
        matching_world(count, p.bytes, move || {
            Box::new(LatePoster {
                count,
                delay: SimDuration::from_millis(500),
                done: 0,
            })
        })
    });
    result("matching_unexpected", t, stats)
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
pub fn bench_flow_churn(p: &ChurnParams) -> PerfResult {
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
        assert_eq!(net.active_flows(), 0);
        assert_eq!(net.injected_bytes(), net.delivered_bytes());
        (events, net.perf_counters())
    });
    PerfResult {
        name: "flow_churn".into(),
        wall_ms: t.median_ms,
        wall_min_ms: t.min_ms,
        wall_max_ms: t.max_ms,
        events,
        events_per_sec: events as f64 / (t.median_ms / 1e3),
        match_probes: 0,
        share_recomputes: perf.share_recomputes,
        threads: 1,
    }
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
    /// Worker-pool width for the sweep: the per-size runs are independent
    /// worlds, so the pool maps one run per thread (largest sizes first).
    /// 1 keeps the historical sequential sweep, inline on this thread.
    pub threads: usize,
}

/// The spec of one fig8 size with `mode`'s attachment.
fn fig8_spec(case: &CollectiveCase, mode: Fig8Mode) -> RunSpec {
    let plain = case.spec();
    match mode {
        Fig8Mode::Plain => plain,
        Fig8Mode::Traced => RunSpec {
            recorder: Recording::Full {
                metrics_interval_ns: Some(10_000),
            },
            ..plain
        },
        Fig8Mode::Streaming => RunSpec {
            recorder: Recording::Streaming { flight: None },
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
fn run_fig8(case: &CollectiveCase, mode: Fig8Mode) -> RunResult {
    execute(&fig8_spec(case, mode))
        .unwrap_or_else(|e| panic!("fig8 {mode:?} {}B: {e}", case.msg_bytes))
}

/// One size of the fig8 sweep under `mode`'s attachment, with the
/// attachment's own sanity checks.
fn run_fig8_size(case: &CollectiveCase, mode: Fig8Mode) -> WorldStats {
    let res = run_fig8(case, mode);
    match mode {
        Fig8Mode::Traced => {
            let obs = res.obs.expect("recorded run carries observability data");
            assert!(!obs.dispatches.is_empty() && !obs.gauges.is_empty());
        }
        Fig8Mode::Streaming => {
            let summary = res.summary.expect("streaming run carries a summary");
            assert!(summary.msgs_posted > 0 && summary.dispatches > 0);
        }
        Fig8Mode::Lossy(_) => {
            assert!(res.stats.retransmits > 0, "loss must exercise recovery");
        }
        Fig8Mode::Monitored => {
            let health = res.health.expect("monitored run carries a health report");
            assert!(health.snapshots > 0, "the snapshot timer must have fired");
            assert_eq!(
                health.total_alerts(),
                0,
                "a clean sweep must not page anyone: {health:?}"
            );
        }
        Fig8Mode::Plain | Fig8Mode::InertFaults | Fig8Mode::InertKill => {}
    }
    res.stats
}

/// The fig8 sweep with explicit parameters: one collective run per
/// message size, with `p.mode`'s attachment, summed stats per iteration.
/// At `p.threads > 1` the independent per-size runs are fanned out on a
/// [`WorkerPool`] (largest sizes first, so the longest run starts
/// earliest); the summed counters are commutative, so the recorded totals
/// are identical at any width — only the wall clock moves.
pub fn bench_fig8(name: &str, p: &Fig8Params) -> PerfResult {
    let sizes: &[u64] = &FIG89_SIZES;
    let spec = profiles::cori(p.nodes);
    let nranks = p.nranks;
    let mk_case = |msg_bytes| CollectiveCase {
        machine: spec.clone(),
        nranks,
        op: OpKind::Bcast,
        library: Library::OmpiAdapt,
        msg_bytes,
    };
    if p.mode == Fig8Mode::InertKill {
        // A kill scheduled past the run's completion must not perturb the
        // simulated schedule at all: kill-only plans keep the reliability
        // layer off (no acks, no timers), so per-rank finish times and
        // every counter except the kill/detection tallies are asserted
        // bit-identical to the plain run before timing starts.
        for &msg_bytes in sizes {
            let case = mk_case(msg_bytes);
            let spec = fig8_spec(&case, Fig8Mode::InertKill);
            let plan = spec.faults.as_ref().expect("a kill plan");
            assert!(!plan.is_inert(), "a kill plan is not inert to the audit");
            let res = run_fig8(&case, Fig8Mode::InertKill);
            let plain = run_fig8(&case, Fig8Mode::Plain);
            assert_eq!(res.per_rank_finish, plain.per_rank_finish);
            let mut masked = res.stats;
            assert_eq!(masked.ranks_killed, 1);
            assert_eq!(masked.failures_detected, 1);
            masked.ranks_killed = 0;
            masked.failures_detected = 0;
            // The Kill and Detect events themselves are the only extras.
            assert_eq!(masked.events, plain.stats.events + 2);
            masked.events = plain.stats.events;
            assert_eq!(
                masked, plain.stats,
                "a kill-only plan must add zero reliability overhead"
            );
        }
    }
    if p.mode == Fig8Mode::InertFaults {
        // The bit-identical guarantee, checked once outside the timed
        // loop so the recorded wall clock measures only the inert-faulted
        // run and compares directly against `fig8_quick_bcast_256`.
        for &msg_bytes in sizes {
            let case = mk_case(msg_bytes);
            let spec = fig8_spec(&case, Fig8Mode::InertFaults);
            assert!(spec.faults.as_ref().is_some_and(FaultPlan::is_inert));
            let res = run_fig8(&case, Fig8Mode::InertFaults);
            let plain = run_fig8(&case, Fig8Mode::Plain);
            assert_eq!(
                res.stats, plain.stats,
                "an inert fault plan must leave every counter bit-identical"
            );
            assert_eq!(res.per_rank_finish, plain.per_rank_finish);
        }
    }
    let threads = p.threads.max(1);
    let pool = WorkerPool::new(threads);
    // Longest-processing-time-first: the 4 MB run dominates the sweep, so
    // it must be in flight from the first instant for the pool to pay off.
    let mut order: Vec<u64> = sizes.to_vec();
    order.sort_unstable_by(|a, b| b.cmp(a));
    let mode = p.mode;
    let (t, stats_sum) = time_median(p.warmup, p.iters, || {
        let jobs: Vec<Box<dyn FnOnce() -> WorldStats + Send>> = order
            .iter()
            .map(|&msg_bytes| {
                let case = mk_case(msg_bytes);
                Box::new(move || run_fig8_size(&case, mode))
                    as Box<dyn FnOnce() -> WorldStats + Send>
            })
            .collect();
        let mut sum = WorldStats::default();
        for stats in pool.run_batch(jobs) {
            sum.events += stats.events;
            sum.match_probes += stats.match_probes;
            sum.net_share_recomputes += stats.net_share_recomputes;
        }
        sum
    });
    let mut r = result(name, t, stats_sum);
    r.threads = threads;
    r
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
        threads: 1,
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
        });
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
    fn null_recorder_adds_zero_counters() {
        // The default (recorder-off) path must be observationally free:
        // identical timing and identical WorldStats counters whether the
        // NullRecorder is implicit, explicit, or replaced by a live
        // MemRecorder.
        use adapt_mpi::World;
        use adapt_noise::ClusterNoise;
        use adapt_obs::{MemRecorder, NullRecorder};
        let run = |rec: Option<Box<dyn adapt_obs::Recorder>>| {
            let spec = profiles::minicluster(2, 2, 4);
            let mut world = World::cpu(spec, 16, ClusterNoise::silent(16));
            if let Some(rec) = rec {
                world = world.with_recorder(rec);
            }
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
        let plain = run(None);
        let null = run(Some(Box::new(NullRecorder)));
        let mem = run(Some(Box::new(MemRecorder::with_metrics(10_000))));
        assert_eq!(format!("{}", plain.stats), format!("{}", null.stats));
        assert_eq!(format!("{}", plain.stats), format!("{}", mem.stats));
        assert_eq!(plain.makespan, null.makespan);
        assert_eq!(plain.makespan, mem.makespan);
        assert!(plain.obs.is_none() && null.obs.is_none());
        assert!(mem.obs.is_some());
    }

    #[test]
    fn fig8_totals_are_pool_width_invariant() {
        // The pooled sweep only reorders which world runs when; the summed
        // counters must not notice the pool width.
        let mk = |threads| Fig8Params {
            nodes: 1,
            nranks: 32,
            warmup: 0,
            iters: 1,
            mode: Fig8Mode::Plain,
            threads,
        };
        let seq = bench_fig8("fig8_width_probe", &mk(1));
        let par = bench_fig8("fig8_width_probe", &mk(4));
        assert_eq!(seq.events, par.events);
        assert_eq!(seq.match_probes, par.match_probes);
        assert_eq!(seq.share_recomputes, par.share_recomputes);
        assert_eq!(seq.threads, 1);
        assert_eq!(par.threads, 4);
    }

    #[test]
    fn matching_worlds_run_clean_at_tiny_scale() {
        let stats = matching_world(64, 1024, || Box::new(PrePoster { count: 64, done: 0 }));
        assert_eq!(stats.messages, 64);
        let stats = matching_world(64, 1024, || {
            Box::new(LatePoster {
                count: 64,
                delay: SimDuration::from_millis(50),
                done: 0,
            })
        });
        assert_eq!(stats.unexpected_matches, 64);
        assert!(stats.match_probes > 0);
    }
}
