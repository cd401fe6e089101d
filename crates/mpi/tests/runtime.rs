//! End-to-end tests of the simulated MPI runtime: protocol behaviour,
//! timing, noise interaction, determinism.

use adapt_mpi::{Completion, Payload, ProgramCtx, RankProgram, RunError, Token, World};
use adapt_noise::{ClusterNoise, NoiseSpec};
use adapt_obs::{events_csv, MemRecorder};
use adapt_sim::rng::MasterSeed;
use adapt_sim::time::{Duration, Time};
use adapt_topology::profiles;

/// A rank that does nothing but finish.
struct Idle;
impl RankProgram for Idle {
    fn on_start(&mut self, ctx: &mut dyn ProgramCtx) {
        ctx.finish();
    }
    fn on_completion(&mut self, _: &mut dyn ProgramCtx, _: Completion) {}
}

/// Sends one message to rank 1, finishes on SendDone.
struct Sender {
    bytes: u64,
    payload: Option<Payload>,
}
impl RankProgram for Sender {
    fn on_start(&mut self, ctx: &mut dyn ProgramCtx) {
        let payload = self
            .payload
            .take()
            .unwrap_or(Payload::Synthetic(self.bytes));
        ctx.isend(1, 0, payload, Token(1));
    }
    fn on_completion(&mut self, ctx: &mut dyn ProgramCtx, c: Completion) {
        assert!(matches!(c, Completion::SendDone { token: Token(1) }));
        ctx.finish();
    }
}

/// Receives one message from rank 0, optionally after local compute,
/// records arrival time and data.
struct Receiver {
    delay: Duration,
    got: Option<(Time, Payload)>,
}
impl RankProgram for Receiver {
    fn on_start(&mut self, ctx: &mut dyn ProgramCtx) {
        if self.delay.is_zero() {
            ctx.irecv(0, 0, Token(2));
        } else {
            ctx.compute(self.delay, Token(9));
        }
    }
    fn on_completion(&mut self, ctx: &mut dyn ProgramCtx, c: Completion) {
        match c {
            Completion::ComputeDone { .. } => ctx.irecv(0, 0, Token(2)),
            Completion::RecvDone { data, .. } => {
                self.got = Some((ctx.now(), data));
                ctx.finish();
            }
            other => panic!("unexpected completion {other:?}"),
        }
    }
}

fn two_rank_world(noise: ClusterNoise) -> World {
    World::cpu(profiles::minicluster(2, 1, 1), 2, noise)
}

fn send_recv(bytes: u64, recv_delay: Duration) -> (Duration, adapt_mpi::WorldStats) {
    let world = two_rank_world(ClusterNoise::silent(2));
    let programs: Vec<Box<dyn RankProgram>> = vec![
        Box::new(Sender {
            bytes,
            payload: None,
        }),
        Box::new(Receiver {
            delay: recv_delay,
            got: None,
        }),
    ];
    let res = world.try_run(programs).unwrap();
    (res.makespan, res.stats)
}

#[test]
fn idle_world_finishes_at_time_zero_ish() {
    let world = two_rank_world(ClusterNoise::silent(2));
    let res = world.try_run(vec![Box::new(Idle), Box::new(Idle)]).unwrap();
    assert!(res.makespan < Duration::from_micros(1));
}

#[test]
fn rendezvous_transfer_time_matches_hockney() {
    // 1 MB inter-node on minicluster: NIC 6 GB/s, latency 1.5 us per NIC
    // side. Transfer alone: 1e6 / 6e9 s ≈ 166.7 us, plus 3 us path latency,
    // plus RTS + CTS round trip (≈ 6 us) and overheads.
    let (t, stats) = send_recv(1_000_000, Duration::ZERO);
    let us = t.as_secs_f64() * 1e6;
    assert!(us > 166.0, "faster than the wire: {us} us");
    assert!(us < 200.0, "too much overhead: {us} us");
    assert_eq!(stats.rendezvous, 1);
    assert_eq!(stats.unexpected_matches, 0);
}

#[test]
fn eager_message_can_be_unexpected() {
    // 2 KB eager message; receiver busy for 1 ms before posting.
    let world = two_rank_world(ClusterNoise::silent(2));
    let res = world
        .try_run(vec![
            Box::new(Sender {
                bytes: 2_048,
                payload: None,
            }),
            Box::new(Receiver {
                delay: Duration::from_millis(1),
                got: None,
            }),
        ])
        .unwrap();
    assert_eq!(res.stats.unexpected_matches, 1);
    // The receive completes only after the late post + unexpected copy.
    assert!(res.makespan > Duration::from_millis(1));
}

#[test]
fn eager_message_matched_when_posted_early() {
    let (_, stats) = send_recv(2_048, Duration::ZERO);
    assert_eq!(stats.unexpected_matches, 0);
    assert_eq!(stats.rendezvous, 0);
}

#[test]
fn rendezvous_waits_for_receiver() {
    // Large message, receiver posts after 1 ms: data cannot start flowing
    // until the handshake completes, so total time ≈ 1 ms + transfer.
    let world = two_rank_world(ClusterNoise::silent(2));
    let res = world
        .try_run(vec![
            Box::new(Sender {
                bytes: 1_000_000,
                payload: None,
            }),
            Box::new(Receiver {
                delay: Duration::from_millis(1),
                got: None,
            }),
        ])
        .unwrap();
    let us = res.makespan.as_secs_f64() * 1e6;
    assert!(us > 1_000.0 + 160.0, "handshake not serialized: {us} us");
}

#[test]
fn real_payload_arrives_intact() {
    let data: Vec<u8> = (0..100_000u32).map(|x| (x % 251) as u8).collect();
    let world = two_rank_world(ClusterNoise::silent(2));
    let res = world
        .try_run(vec![
            Box::new(Sender {
                bytes: 0,
                payload: Some(Payload::from(data.clone())),
            }),
            Box::new(Receiver {
                delay: Duration::ZERO,
                got: None,
            }),
        ])
        .unwrap();
    let receiver = res
        .programs
        .into_iter()
        .nth(1)
        .map(|p| {
            let any: Box<dyn std::any::Any> = p;
            *any.downcast::<Receiver>().expect("receiver program")
        })
        .unwrap();
    let (_, payload) = receiver.got.expect("received");
    assert_eq!(payload.bytes().expect("real data").as_ref(), &data[..]);
}

#[test]
fn noise_on_receiver_slows_rendezvous() {
    // Heavy noise on the receiving rank delays the RTS processing and CTS,
    // stalling the sender — the coupling §2.1 describes.
    let clean = {
        let world = two_rank_world(ClusterNoise::silent(2));
        world
            .try_run(vec![
                Box::new(Sender {
                    bytes: 4_000_000,
                    payload: None,
                }),
                Box::new(Receiver {
                    delay: Duration::ZERO,
                    got: None,
                }),
            ])
            .unwrap()
            .makespan
    };
    // A single exchange exposes the receiver's CPU only briefly (that is
    // the point of non-blocking transfers), so sample several seeds and
    // require noise to hurt in at least one, and help in none.
    let noisy_max = (0..8u64)
        .map(|seed| {
            // Short period so windows land inside the ~700 us exchange.
            let spec = NoiseSpec {
                period: Duration::from_micros(100),
                max_duration: Duration::from_micros(90),
            };
            let noise = ClusterNoise::single_rank(2, 1, spec, MasterSeed(seed));
            let world = two_rank_world(noise);
            world
                .try_run(vec![
                    Box::new(Sender {
                        bytes: 4_000_000,
                        payload: None,
                    }),
                    Box::new(Receiver {
                        delay: Duration::ZERO,
                        got: None,
                    }),
                ])
                .unwrap()
                .makespan
        })
        .max()
        .unwrap();
    assert!(
        noisy_max.as_nanos() > clean.as_nanos(),
        "noise must slow the exchange: clean={clean}, noisy_max={noisy_max}"
    );
}

#[test]
fn determinism_with_noise() {
    let mk = || {
        let spec = NoiseSpec::uniform_percent(10.0);
        let noise = ClusterNoise::uniform(2, spec, MasterSeed(42));
        let world = two_rank_world(noise);
        world
            .try_run(vec![
                Box::new(Sender {
                    bytes: 4_000_000,
                    payload: None,
                }),
                Box::new(Receiver {
                    delay: Duration::ZERO,
                    got: None,
                }),
            ])
            .unwrap()
            .makespan
    };
    assert_eq!(mk().as_nanos(), mk().as_nanos());
}

#[test]
fn unmatched_recv_deadlocks_loudly() {
    struct RecvForever;
    impl RankProgram for RecvForever {
        fn on_start(&mut self, ctx: &mut dyn ProgramCtx) {
            ctx.irecv(0, 99, Token(0));
        }
        fn on_completion(&mut self, _: &mut dyn ProgramCtx, _: Completion) {}
    }
    let world = two_rank_world(ClusterNoise::silent(2));
    let Err(err) = world.try_run(vec![Box::new(Idle), Box::new(RecvForever)]) else {
        panic!("an unmatched receive cannot complete");
    };
    assert!(matches!(*err, RunError::Stalled(_)), "{err}");
    assert!(err.to_string().starts_with("deadlock:"), "{err}");
}

#[test]
fn compute_blocks_the_rank() {
    struct TwoComputes {
        first_done: Option<Time>,
    }
    impl RankProgram for TwoComputes {
        fn on_start(&mut self, ctx: &mut dyn ProgramCtx) {
            ctx.compute(Duration::from_micros(100), Token(0));
        }
        fn on_completion(&mut self, ctx: &mut dyn ProgramCtx, c: Completion) {
            match c.token() {
                Token(0) => {
                    assert!(ctx.now().as_nanos() >= 100_000, "first compute ran");
                    self.first_done = Some(ctx.now());
                    ctx.compute(Duration::from_micros(100), Token(1));
                }
                Token(1) => {
                    let first = self.first_done.expect("token order");
                    // Sequentially executed: second ends ~100 us after first.
                    assert!(ctx.now().as_nanos() >= first.as_nanos() + 100_000);
                    ctx.finish();
                }
                _ => unreachable!(),
            }
        }
    }
    let world = World::cpu(profiles::minicluster(1, 1, 1), 1, ClusterNoise::silent(1));
    world
        .try_run(vec![Box::new(TwoComputes { first_done: None })])
        .unwrap();
}

#[test]
fn gpu_stream_serializes_reductions() {
    struct GpuTwice {
        done: u32,
        t0: Option<Time>,
    }
    impl RankProgram for GpuTwice {
        fn on_start(&mut self, ctx: &mut dyn ProgramCtx) {
            // Two 60 MB reductions at 60 GB/s = 1 ms each, enqueued together:
            // the stream runs them back to back while the CPU stays free.
            ctx.gpu_reduce(60_000_000, Token(0));
            ctx.gpu_reduce(60_000_000, Token(1));
        }
        fn on_completion(&mut self, ctx: &mut dyn ProgramCtx, c: Completion) {
            self.done += 1;
            match c.token() {
                Token(0) => self.t0 = Some(ctx.now()),
                Token(1) => {
                    let t0 = self.t0.expect("in order");
                    assert!(ctx.now().as_nanos() >= t0.as_nanos() + 1_000_000);
                    ctx.finish();
                }
                _ => unreachable!(),
            }
        }
    }
    let world = World::gpu(profiles::mini_gpu(1), 2, ClusterNoise::silent(2));
    struct IdleG;
    impl RankProgram for IdleG {
        fn on_start(&mut self, ctx: &mut dyn ProgramCtx) {
            ctx.finish();
        }
        fn on_completion(&mut self, _: &mut dyn ProgramCtx, _: Completion) {}
    }
    world
        .try_run(vec![
            Box::new(GpuTwice { done: 0, t0: None }),
            Box::new(IdleG),
        ])
        .unwrap();
}

#[test]
fn staging_copy_crosses_pcie() {
    struct Stager {
        done_at: Option<Time>,
    }
    impl RankProgram for Stager {
        fn on_start(&mut self, ctx: &mut dyn ProgramCtx) {
            let dev = ctx.mem_of(ctx.rank());
            let host = ctx.host_of(ctx.rank());
            assert!(dev.is_device());
            // 10 MB over PCIe at 10 GB/s = 1 ms + 1 us latency.
            ctx.copy(dev, host, 10_000_000, Token(0));
        }
        fn on_completion(&mut self, ctx: &mut dyn ProgramCtx, c: Completion) {
            assert!(matches!(c, Completion::CopyDone { .. }));
            self.done_at = Some(ctx.now());
            ctx.finish();
        }
    }
    let world = World::gpu(profiles::mini_gpu(1), 1, ClusterNoise::silent(1));
    let res = world
        .try_run(vec![Box::new(Stager { done_at: None })])
        .unwrap();
    let us = res.makespan.as_secs_f64() * 1e6;
    assert!(us > 1_000.0 && us < 1_010.0, "PCIe copy took {us} us");
}

#[test]
fn isend_overhead_sequences_multiple_sends() {
    // Root posting N sends in one handler pays N send overheads before the
    // last flow starts — the injection serialization real MPI has.
    struct Fan {
        outstanding: u32,
    }
    impl RankProgram for Fan {
        fn on_start(&mut self, ctx: &mut dyn ProgramCtx) {
            for child in 1..ctx.nranks() {
                ctx.isend(child, 0, Payload::Synthetic(1024), Token(child as u64));
            }
        }
        fn on_completion(&mut self, ctx: &mut dyn ProgramCtx, _: Completion) {
            self.outstanding -= 1;
            if self.outstanding == 0 {
                ctx.finish();
            }
        }
    }
    struct RecvOne;
    impl RankProgram for RecvOne {
        fn on_start(&mut self, ctx: &mut dyn ProgramCtx) {
            ctx.irecv(0, 0, Token(0));
        }
        fn on_completion(&mut self, ctx: &mut dyn ProgramCtx, c: Completion) {
            assert!(matches!(c, Completion::RecvDone { .. }));
            ctx.finish();
        }
    }
    let world = World::cpu(profiles::minicluster(1, 1, 8), 8, ClusterNoise::silent(8));
    let res = world
        .try_run(
            std::iter::once(Box::new(Fan { outstanding: 7 }) as Box<dyn RankProgram>)
                .chain((1..8).map(|_| Box::new(RecvOne) as Box<dyn RankProgram>))
                .collect(),
        )
        .unwrap();
    // 7 sends x 400 ns overhead alone is 2.8 us of injection serialization.
    assert!(res.makespan > Duration::from_nanos(2_800));
    assert_eq!(res.stats.messages, 7);
}

#[test]
fn trace_records_the_exchange() {
    let world = two_rank_world(ClusterNoise::silent(2)).with_recorder(MemRecorder::new());
    let res = world
        .try_run(vec![
            Box::new(Sender {
                bytes: 100_000,
                payload: None,
            }),
            Box::new(Receiver {
                delay: Duration::ZERO,
                got: None,
            }),
        ])
        .unwrap();
    let csv = events_csv(res.obs.as_ref().expect("recorder attached"));
    assert!(csv.starts_with("time_ns,rank,kind,peer,amount\n"));
    let rows: Vec<Vec<&str>> = csv
        .lines()
        .skip(1)
        .map(|l| l.split(',').collect())
        .collect();
    let kinds: Vec<&str> = rows.iter().map(|r| r[2]).collect();
    for kind in ["send_posted", "recv_posted", "recv_done", "send_done"] {
        assert_eq!(kinds.iter().filter(|&&k| k == kind).count(), 1, "{kind}");
    }
    assert_eq!(
        kinds.iter().filter(|&&k| k == "finish").count(),
        2,
        "both ranks finish"
    );
    // Timeline is monotone.
    let times: Vec<u64> = rows.iter().map(|r| r[0].parse().unwrap()).collect();
    assert!(times.windows(2).all(|w| w[0] <= w[1]));
    // The recv event carries the payload size and the sender's rank.
    let recv = rows.iter().find(|r| r[2] == "recv_done").unwrap();
    assert_eq!(recv[1..], ["1", "recv_done", "0", "100000"]);
}

#[test]
fn trace_disabled_by_default() {
    let world = two_rank_world(ClusterNoise::silent(2));
    let res = world.try_run(vec![Box::new(Idle), Box::new(Idle)]).unwrap();
    assert!(res.obs.is_none() && res.summary.is_none());
}

#[test]
fn analysis_over_a_traced_run() {
    use adapt_mpi::{busy_fractions, comm_matrix, finish_skew};
    let world = two_rank_world(ClusterNoise::silent(2)).with_recorder(MemRecorder::new());
    let res = world
        .try_run(vec![
            Box::new(Sender {
                bytes: 500_000,
                payload: None,
            }),
            Box::new(Receiver {
                delay: Duration::ZERO,
                got: None,
            }),
        ])
        .unwrap();
    let m = comm_matrix(res.obs.as_ref().expect("recorder attached"));
    assert_eq!(m[0][1], 500_000);
    assert_eq!(m[1][0], 0);
    let busy = busy_fractions(&res);
    assert!(busy.iter().all(|&b| (0.0..=1.0).contains(&b)));
    let skew = finish_skew(&res);
    assert_eq!(
        skew.iter().filter(|d| d.is_zero()).count(),
        1,
        "exactly one last rank"
    );
}

/// Rank 0: a rendezvous-sized send (tag 7) then an eager send (tag 5).
struct RndvThenEager {
    done: u32,
}
impl RankProgram for RndvThenEager {
    fn on_start(&mut self, ctx: &mut dyn ProgramCtx) {
        ctx.isend(1, 7, Payload::Synthetic(1_000_000), Token(1));
        ctx.isend(1, 5, Payload::Synthetic(1_024), Token(2));
    }
    fn on_completion(&mut self, ctx: &mut dyn ProgramCtx, c: Completion) {
        assert!(matches!(c, Completion::SendDone { .. }));
        self.done += 1;
        if self.done == 2 {
            ctx.finish();
        }
    }
}

/// Rank 1: stays busy long enough for both arrivals to be unexpected,
/// then drains them with wildcard receives, recording tag order.
struct LateWildcardReceiver {
    tags: Vec<u32>,
}
impl RankProgram for LateWildcardReceiver {
    fn on_start(&mut self, ctx: &mut dyn ProgramCtx) {
        ctx.compute(Duration::from_millis(1), Token(9));
    }
    fn on_completion(&mut self, ctx: &mut dyn ProgramCtx, c: Completion) {
        match c {
            Completion::ComputeDone { .. } => {
                ctx.irecv(0, adapt_mpi::program::ANY_TAG, Token(10));
            }
            Completion::RecvDone { tag, .. } => {
                self.tags.push(tag);
                if self.tags.len() == 1 {
                    ctx.irecv(0, adapt_mpi::program::ANY_TAG, Token(11));
                } else {
                    ctx.finish();
                }
            }
            other => panic!("unexpected completion {other:?}"),
        }
    }
}

#[test]
fn unexpected_eager_matches_before_unexpected_rts() {
    // The RTS (rendezvous, tag 7) reaches the busy receiver before the
    // eager data (tag 5) is even sent, but MPI matching order consults the
    // unexpected-eager queue first: the first wildcard receive must take
    // tag 5, the second tag 7.
    let world = two_rank_world(ClusterNoise::silent(2));
    let res = world
        .try_run(vec![
            Box::new(RndvThenEager { done: 0 }),
            Box::new(LateWildcardReceiver { tags: Vec::new() }),
        ])
        .unwrap();
    assert!(res.audit.is_clean(), "{}", res.audit);
    assert_eq!(res.stats.rendezvous, 1);
    assert_eq!(res.stats.unexpected_matches, 1);
    let recv = res.programs.into_iter().nth(1).unwrap();
    let recv = (recv as Box<dyn std::any::Any>)
        .downcast::<LateWildcardReceiver>()
        .unwrap();
    assert_eq!(recv.tags, vec![5, 7], "eager must match before RTS");
}

/// Posts `k` receives from rank 1, then computes through a long window;
/// finishes once the compute and every receive completed.
struct BusyReceiver {
    k: u32,
    left: u32,
}
impl RankProgram for BusyReceiver {
    fn on_start(&mut self, ctx: &mut dyn ProgramCtx) {
        for i in 0..self.k {
            ctx.irecv(1, i, Token(i as u64));
        }
        ctx.compute(Duration::from_millis(5), Token(u64::MAX));
        self.left = self.k + 1;
    }
    fn on_completion(&mut self, ctx: &mut dyn ProgramCtx, _: Completion) {
        self.left -= 1;
        if self.left == 0 {
            ctx.finish();
        }
    }
}

/// Sends `k` small eager messages to rank 0 at once.
struct EagerBurst {
    k: u32,
    left: u32,
}
impl RankProgram for EagerBurst {
    fn on_start(&mut self, ctx: &mut dyn ProgramCtx) {
        for i in 0..self.k {
            ctx.isend(0, i, Payload::Synthetic(64), Token(i as u64));
        }
        self.left = self.k;
    }
    fn on_completion(&mut self, ctx: &mut dyn ProgramCtx, _: Completion) {
        self.left -= 1;
        if self.left == 0 {
            ctx.finish();
        }
    }
}

fn burst_events(k: u32) -> u64 {
    let res = two_rank_world(ClusterNoise::silent(2))
        .try_run(vec![
            Box::new(BusyReceiver { k, left: 0 }),
            Box::new(EagerBurst { k, left: 0 }),
        ])
        .unwrap();
    assert!(res.audit.is_clean(), "{}", res.audit);
    assert!(res.makespan > Duration::from_millis(5));
    res.stats.events
}

#[test]
fn completions_parked_behind_compute_cost_linear_events() {
    // All k receive completions land while rank 0 computes, so every one
    // of them waits for the CPU. Re-queueing each waiter after every
    // handler would cost O(k²) events; parked bands cost one wake per
    // band served, so doubling k must roughly double the count.
    let (e1, e2, e4) = (burst_events(100), burst_events(200), burst_events(400));
    assert!(e2 < 2 * e1 + e1 / 10, "k=100: {e1} events, k=200: {e2}");
    assert!(e4 < 2 * e2 + e2 / 10, "k=200: {e2} events, k=400: {e4}");
}

#[test]
fn event_cap_is_a_typed_error() {
    let run = |cap: u64| {
        let mut world = two_rank_world(ClusterNoise::silent(2));
        world.max_events = cap;
        world.try_run(vec![
            Box::new(BusyReceiver { k: 4, left: 0 }),
            Box::new(EagerBurst { k: 4, left: 0 }),
        ])
    };
    let events = run(u64::MAX).expect("uncapped run completes").stats.events;
    assert!(events > 10);
    match run(10).map(|r| r.stats.events) {
        Err(e) => match *e {
            adapt_mpi::RunError::EventCap { events, .. } => {
                assert_eq!(events, 11, "the event that crossed the cap is counted");
                assert!(e.to_string().contains("event cap exceeded"), "{e}");
            }
            other => panic!("expected EventCap, got {other}"),
        },
        Ok(n) => panic!("a cap of 10 must stop a {n}-event run"),
    }
    // A cap at exactly the run's size is not exceeded.
    assert!(run(events).is_ok());
}
