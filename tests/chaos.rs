//! Chaos suite: seeded randomized fault schedules against the reliability
//! layer.
//!
//! The contract under test is the tentpole claim of the fault-injection
//! work: **any survivable fault schedule changes timing, never data**.
//! Every test here runs a real collective carrying real payload bytes
//! under injected loss, link-down windows, degradation windows, or rank
//! stalls, and asserts
//!
//! 1. byte-identical results to a fault-free run (assembled broadcast
//!    buffers, numerically exact reductions),
//! 2. a clean end-of-run audit (the faulted byte ledger balances:
//!    `injected == delivered + dropped`, exactly-once delivery),
//! 3. determinism — the same seed reproduces the same trace, stats, and
//!    per-rank finish times bit-for-bit,
//! 4. an inert plan is indistinguishable from no plan at all,
//! 5. a guaranteed stall trips the watchdog with a per-rank diagnosis
//!    instead of hanging.

use adapt::collectives::{execute, CollectiveCase, Library, OpKind, RunSpec};
use adapt::prelude::*;
use bytes::Bytes;
use std::sync::Arc;

/// Broadcast payload with a recognizable, position-dependent pattern.
fn payload(len: usize) -> Vec<u8> {
    (0..len as u32).map(|i| (i % 249) as u8).collect()
}

/// Absolute simulated time `us` microseconds after start.
fn t_us(us: u64) -> Time {
    Time::ZERO + Duration::from_micros(us)
}

/// Build the standard chaos workload: 16-rank ADAPT broadcast of real
/// bytes on the two-node minicluster.
fn bcast_world(data: &[u8]) -> (World, Vec<Box<dyn RankProgram>>) {
    let machine = profiles::minicluster(2, 2, 4);
    let nranks = 16;
    let placement = Placement::block_cpu(machine.shape, nranks);
    let tree = Arc::new(topology_aware_tree(&placement, TopoTreeConfig::default()));
    let spec = BcastSpec {
        tree,
        msg_bytes: data.len() as u64,
        cfg: AdaptConfig::default().with_seg_size(32 * 1024),
        data: Some(Bytes::from(data.to_vec())),
    };
    let world = World::cpu(machine, nranks, ClusterNoise::silent(nranks));
    (world, spec.programs())
}

/// Assert every rank assembled exactly `data`.
fn assert_bytes(res: adapt::mpi::RunResult, data: &[u8]) {
    assert!(res.audit.is_clean(), "{}", res.audit);
    for (r, p) in res.programs.into_iter().enumerate() {
        let any: Box<dyn std::any::Any> = p;
        let b = any.downcast::<adapt::core::AdaptBcast>().unwrap();
        assert_eq!(b.assembled().unwrap(), data, "rank {r}");
    }
}

#[test]
fn lossy_bcast_is_byte_identical_and_recovers() {
    let data = payload(300_000);
    let (world, programs) = bcast_world(&data);
    let plan = FaultPlan::lossy(7, 0.02).with_rto(Duration::from_micros(60));
    let res = world.with_faults(plan).try_run(programs).unwrap();
    assert!(res.stats.drops_injected > 0, "2% loss must drop something");
    assert!(res.stats.retransmits > 0, "drops must trigger retransmits");
    assert!(res.stats.acks > 0, "delivered transfers must be acked");
    assert_bytes(res, &data);
}

#[test]
fn lossy_reduce_is_numerically_exact() {
    let machine = profiles::minicluster(2, 2, 4);
    let nranks = 16u32;
    let elems = 4000usize;
    let contributions: Arc<Vec<Bytes>> = Arc::new(
        (0..nranks)
            .map(|r| {
                let v: Vec<f64> = (0..elems).map(|i| ((r as usize + i) % 37) as f64).collect();
                Bytes::from(adapt::mpi::f64_to_bytes(&v))
            })
            .collect(),
    );
    let expected: Vec<f64> = (0..elems)
        .map(|i| (0..nranks).map(|r| ((r as usize + i) % 37) as f64).sum())
        .collect();
    let placement = Placement::block_cpu(machine.shape, nranks);
    let tree = Arc::new(topology_aware_tree(&placement, TopoTreeConfig::default()));
    let spec = ReduceSpec {
        tree,
        msg_bytes: (elems * 8) as u64,
        cfg: AdaptConfig::default().with_seg_size(8 * 1024),
        data: ReduceData::Real {
            op: adapt::mpi::ReduceOp::Sum,
            dtype: adapt::mpi::DType::F64,
            contributions,
        },
        exec: ReduceExec::Cpu,
    };
    let world = World::cpu(machine, nranks, ClusterNoise::silent(nranks));
    let plan = FaultPlan::lossy(11, 0.03).with_rto(Duration::from_micros(60));
    let res = world.with_faults(plan).try_run(spec.programs()).unwrap();
    assert!(res.audit.is_clean(), "{}", res.audit);
    assert!(
        res.stats.retransmits > 0,
        "3% loss must trigger retransmits"
    );
    let root: Box<dyn std::any::Any> = res.programs.into_iter().next().unwrap();
    let root = root.downcast::<adapt::core::AdaptReduce>().unwrap();
    assert_eq!(
        adapt::mpi::bytes_to_f64(&root.result().unwrap()),
        expected,
        "loss must never corrupt a reduction"
    );
}

#[test]
fn same_seed_reproduces_the_same_faulted_run() {
    // Loss alone, loss plus a rank stall (fault commands and tracked
    // retransmit timers), and loss plus an early interior kill (detector,
    // revoke snapshot, recovery resends): each must reproduce every
    // counter, completion time, busy time, and the audit bit-for-bit.
    let data = payload(200_000);
    let tree = chaos_tree();
    let victim = (1u32..16).find(|&r| !tree.children(r).is_empty()).unwrap();
    let plans = [
        FaultPlan::lossy(42, 0.02).with_rto(Duration::from_micros(80)),
        FaultPlan::lossy(7, 0.02)
            .with_stall(3, t_us(20), t_us(120))
            .with_rto(Duration::from_micros(60)),
        FaultPlan::lossy(3, 0.01)
            .with_kill(victim, t_us(5))
            .with_rto(Duration::from_micros(5)),
    ];
    for plan in plans {
        let label = plan.render();
        let run = || {
            let (world, programs) = bcast_world(&data);
            world.with_faults(plan.clone()).try_run(programs).unwrap()
        };
        let a = run();
        let b = run();
        assert!(a.stats.drops_injected > 0, "{label}");
        assert_eq!(
            a.stats, b.stats,
            "{label}: same seed must reproduce every counter"
        );
        assert_eq!(
            a.per_rank_finish, b.per_rank_finish,
            "{label}: same seed must reproduce per-rank completion times exactly"
        );
        assert_eq!(a.per_rank_busy, b.per_rank_busy, "{label}");
        assert_eq!(a.makespan, b.makespan, "{label}");
        assert_eq!(a.audit.to_string(), b.audit.to_string(), "{label}");
        if plan.kills.is_empty() {
            assert_bytes(a, &data);
        } else {
            assert_eq!(a.stats.ranks_killed, 1, "{label}");
            assert_bytes_survivors(a, &data, &[victim]);
        }
    }
}

#[test]
fn inert_plan_is_indistinguishable_from_no_plan() {
    let data = payload(150_000);
    let (world, programs) = bcast_world(&data);
    let baseline = world.try_run(programs).unwrap();
    let (world, programs) = bcast_world(&data);
    let plan = FaultPlan::lossy(9, 0.0); // zero loss, no windows: inert
    assert!(plan.is_inert());
    let faulted = world.with_faults(plan).try_run(programs).unwrap();
    assert_eq!(
        baseline.stats, faulted.stats,
        "inert plan must attach nothing"
    );
    assert_eq!(baseline.per_rank_finish, faulted.per_rank_finish);
}

#[test]
fn faults_change_timing_never_data() {
    // The makespan under loss must not beat the fault-free run: drops
    // only ever cost time (drained bandwidth + RTO waits), never save it.
    let data = payload(200_000);
    let (world, programs) = bcast_world(&data);
    let clean = world.try_run(programs).unwrap();
    let (world, programs) = bcast_world(&data);
    let plan = FaultPlan::lossy(3, 0.05).with_rto(Duration::from_micros(60));
    let faulted = world.with_faults(plan).try_run(programs).unwrap();
    assert!(faulted.stats.retransmits > 0);
    assert!(
        faulted.makespan >= clean.makespan,
        "loss cannot speed a run up: clean={} faulted={}",
        clean.makespan,
        faulted.makespan
    );
    assert_bytes(faulted, &data);
}

#[test]
fn down_window_is_survivable() {
    // Take the whole fabric down for a window mid-run: every flow
    // launched inside it is dropped, and the reliability layer must
    // carry the collective across the outage.
    let data = payload(200_000);
    let (world, programs) = bcast_world(&data);
    let plan = FaultPlan::lossy(5, 0.0)
        .with_down(t_us(40), t_us(160))
        .with_rto(Duration::from_micros(60));
    let res = world.with_faults(plan).try_run(programs).unwrap();
    assert!(
        res.stats.drops_injected > 0,
        "the outage must hit in-window launches"
    );
    assert!(res.stats.retransmits > 0);
    assert_bytes(res, &data);
}

#[test]
fn degrade_window_slows_but_never_corrupts() {
    let data = payload(200_000);
    let (world, programs) = bcast_world(&data);
    let clean = world.try_run(programs).unwrap();
    let (world, programs) = bcast_world(&data);
    // 5% capacity, 4x latency across a window covering the whole run.
    let plan = FaultPlan::lossy(5, 0.0).with_degrade(
        0.05,
        4.0,
        Time::ZERO,
        Time::ZERO + Duration::from_millis(100),
    );
    let res = world.with_faults(plan).try_run(programs).unwrap();
    assert!(
        res.makespan > clean.makespan,
        "a 20x-slower fabric must inflate the makespan: clean={} degraded={}",
        clean.makespan,
        res.makespan
    );
    assert_bytes(res, &data);
}

#[test]
fn stalled_rank_delays_but_never_corrupts() {
    let data = payload(150_000);
    let (world, programs) = bcast_world(&data);
    let clean = world.try_run(programs).unwrap();
    // Stall a mid-tree rank well past the fault-free makespan: the whole
    // subtree must wait for it and still assemble the right bytes.
    let (world, programs) = bcast_world(&data);
    let stall_end = clean.makespan.as_nanos() * 2;
    let stall_end = Time::ZERO + Duration::from_nanos(stall_end);
    let plan = FaultPlan::lossy(5, 0.0).with_stall(3, Time::ZERO, stall_end);
    let res = world.with_faults(plan).try_run(programs).unwrap();
    assert!(
        res.per_rank_finish[3] >= stall_end,
        "rank 3 cannot finish before its stall window ends"
    );
    assert!(res.makespan > clean.makespan);
    assert_bytes(res, &data);
}

#[test]
fn randomized_schedules_are_all_survivable() {
    // Seeded pseudo-random fault schedules: loss rate, an outage window,
    // and a rank stall all derived from the seed. Every schedule must be
    // survived byte-correct with a clean audit.
    let data = payload(120_000);
    for seed in 0..6u64 {
        let loss = 0.005 + 0.008 * (seed as f64);
        let down_start = 30 + 17 * seed;
        let stall_rank = (seed * 5 % 16) as u32;
        let plan = FaultPlan::lossy(seed, loss)
            .with_down(t_us(down_start), t_us(down_start + 40))
            .with_stall(stall_rank, t_us(10 * seed), t_us(10 * seed + 50))
            .with_rto(Duration::from_micros(80));
        let (world, programs) = bcast_world(&data);
        let res = world.with_faults(plan).try_run(programs).unwrap();
        assert!(
            res.stats.drops_injected > 0,
            "seed {seed}: outage must drop flows"
        );
        assert_bytes(res, &data);
    }
}

#[test]
fn chaos_matrix_every_library_survives_loss() {
    // Every comparator library, broadcast and reduce, under seeded loss:
    // the reliability layer sits below the protocol layer, so recovery
    // must be algorithm-agnostic. `execute` fails on a dirty audit.
    let machine = profiles::minicluster(2, 2, 4);
    for library in [
        Library::OmpiAdapt,
        Library::OmpiDefault,
        Library::OmpiBlocking,
        Library::IntelMpi,
    ] {
        for op in [OpKind::Bcast, OpKind::Reduce] {
            let case = CollectiveCase {
                machine: machine.clone(),
                nranks: 16,
                op,
                library,
                msg_bytes: 64 * 1024,
            };
            let plan = FaultPlan::lossy(13, 0.015).with_rto(Duration::from_micros(60));
            let res = execute(&RunSpec {
                faults: Some(plan),
                ..case.spec()
            })
            .unwrap_or_else(|e| panic!("{library:?} {op:?}: {e}"));
            assert!(
                res.stats.drops_injected == 0 || res.stats.retransmits > 0,
                "{library:?} {op:?}: drops without retransmits"
            );
        }
    }
}

#[test]
fn faults_compose_with_noise() {
    // Loss + OS noise together: the two RNG streams are independent and
    // the composed run must still be deterministic and byte-correct.
    let data = payload(150_000);
    let run = || {
        let machine = profiles::minicluster(2, 2, 4);
        let nranks = 16;
        let placement = Placement::block_cpu(machine.shape, nranks);
        let tree = Arc::new(topology_aware_tree(&placement, TopoTreeConfig::default()));
        let spec = BcastSpec {
            tree,
            msg_bytes: data.len() as u64,
            cfg: AdaptConfig::default().with_seg_size(32 * 1024),
            data: Some(Bytes::from(data.clone())),
        };
        let noise = ClusterNoise::uniform(
            nranks,
            NoiseSpec {
                period: Duration::from_micros(300),
                max_duration: Duration::from_micros(150),
            },
            MasterSeed(5),
        );
        let world = World::cpu(machine, nranks, noise);
        let plan = FaultPlan::lossy(21, 0.02).with_rto(Duration::from_micros(80));
        world.with_faults(plan).try_run(spec.programs()).unwrap()
    };
    let a = run();
    assert!(a.stats.retransmits > 0);
    let b = run();
    assert_eq!(a.stats, b.stats);
    assert_eq!(a.per_rank_finish, b.per_rank_finish);
    assert_bytes(a, &data);
}

#[test]
fn faults_compose_with_observability() {
    // Recording must survive the reliability layer's edge cases — in
    // particular a retransmit whose timer fires after the message it
    // belongs to has completed (lost ack, delivered original). High
    // loss and a tight RTO make those races common.
    let data = payload(200_000);
    let (world, programs) = bcast_world(&data);
    let plan = FaultPlan::lossy(29, 0.05).with_rto(Duration::from_micros(40));
    let res = world
        .with_faults(plan)
        .with_recorder(adapt::obs::MemRecorder::new())
        .try_run(programs)
        .unwrap();
    assert!(res.stats.retransmits > 0);
    let obs = res.obs.as_ref().expect("recorded run carries obs data");
    let drops: u32 = obs.msgs.iter().map(|m| m.drops).sum();
    let rtx: u32 = obs.msgs.iter().map(|m| m.retransmits).sum();
    assert!(drops > 0, "per-message drop events must be recorded");
    assert_eq!(
        rtx as u64, res.stats.retransmits,
        "per-message retransmit events must match the world counter"
    );
    assert_bytes(res, &data);
}

#[test]
fn watchdog_diagnoses_a_guaranteed_stall() {
    // Rank 2 stalls for a simulated hour; a 1ms watchdog horizon must
    // surface a diagnosis naming it instead of running the stall out.
    let data = payload(100_000);
    let (world, programs) = bcast_world(&data);
    let plan = FaultPlan::lossy(1, 0.0).with_stall(
        2,
        Time::ZERO,
        Time::ZERO + Duration::from_millis(3_600_000),
    );
    let err = match world
        .with_faults(plan)
        .with_watchdog(Duration::from_millis(1))
        .try_run(programs)
    {
        Err(e) => e,
        Ok(_) => panic!("an hour-long stall must trip a 1ms watchdog"),
    };
    let diag = match err.as_ref() {
        adapt::mpi::RunError::Stalled(d) => d,
        other => panic!("a stall without kills must classify as Stalled: {other}"),
    };
    assert!(diag.watchdog_fired, "horizon breach, not a dry queue");
    assert!(diag.stuck.contains(&2), "rank 2 is the stalled rank: {err}");
    let text = err.to_string();
    assert!(
        text.contains("deadlock"),
        "diagnosis must lead with deadlock: {text}"
    );
    assert!(
        text.contains("stalled=true"),
        "diagnosis must flag the stall: {text}"
    );
    // Rank 2's own work is parked until the stall ends, not queued as
    // events, so the diagnosis must show the backlog and when it wakes.
    let line = text
        .lines()
        .find(|l| l.trim_start().starts_with("rank 2:"))
        .unwrap_or_else(|| panic!("no per-rank line for rank 2: {text}"));
    let parked: usize = line
        .split("parked=")
        .nth(1)
        .and_then(|s| s.split_whitespace().next())
        .and_then(|n| n.parse().ok())
        .unwrap_or_else(|| panic!("rank 2's line lacks parked=N: {line}"));
    assert!(parked >= 1, "the stalled rank's start is parked: {line}");
    assert!(
        line.contains("next_wake=3600000000000ns"),
        "the backlog wakes when the stall ends: {line}"
    );
}

/// Assert every *surviving* rank assembled exactly `data` (dead ranks
/// hold whatever partial state they had at the kill instant).
fn assert_bytes_survivors(res: adapt::mpi::RunResult, data: &[u8], dead: &[u32]) {
    assert!(res.audit.is_clean(), "{}", res.audit);
    assert_eq!(res.audit.failed_ranks, dead, "audit must name the dead");
    for (r, p) in res.programs.into_iter().enumerate() {
        if dead.contains(&(r as u32)) {
            continue;
        }
        let any: Box<dyn std::any::Any> = p;
        let b = any.downcast::<adapt::core::AdaptBcast>().unwrap();
        assert_eq!(
            b.assembled().unwrap(),
            data,
            "surviving rank {r} must still assemble the full broadcast"
        );
    }
}

/// The chaos workload's broadcast tree (for picking interior victims).
fn chaos_tree() -> Tree {
    let machine = profiles::minicluster(2, 2, 4);
    let placement = Placement::block_cpu(machine.shape, 16);
    topology_aware_tree(&placement, TopoTreeConfig::default())
}

#[test]
fn killed_interior_rank_is_survivable() {
    // Kill a rank that has children early in the broadcast, with an RTO
    // tight enough that the detector converges while the victim's parent
    // is still inside the operation: the tree is rebuilt around the hole,
    // the adopting parent resends from segment 0, and every survivor
    // assembles the full payload. (Detection converging only *after* the
    // adopter finished is the honest-failure case covered by
    // `killed_root_is_a_structured_failure_not_a_panic`.)
    let data = payload(200_000);
    let tree = chaos_tree();
    let victim = (1u32..16)
        .find(|&r| !tree.children(r).is_empty())
        .expect("the 16-rank topo tree has an interior non-root rank");
    let (world, programs) = bcast_world(&data);
    let plan = FaultPlan::lossy(1, 0.0)
        .with_kill(victim, t_us(5))
        .with_rto(Duration::from_micros(5));
    let res = world
        .with_faults(plan)
        .try_run(programs)
        .unwrap_or_else(|e| panic!("an interior kill must be survivable: {e}"));
    assert_eq!(res.stats.ranks_killed, 1);
    assert_eq!(res.stats.failures_detected, 1);
    assert_bytes_survivors(res, &data, &[victim]);
}

/// A kill anywhere below the root of the staged GPU broadcast (§4.1) is
/// survivable: staging is a data path of the one ADAPT broadcast, so the
/// GPU job gets the same shrink recovery and first-arrival dedup as the
/// CPU one. Every non-root rank of a two-node psg job dies once at each
/// of four instants, from the first segments to the tail of the
/// pipeline, and every survivor still assembles the root's bytes.
#[test]
fn staged_gpu_broadcast_survives_any_non_root_kill() {
    let data = payload(1 << 20);
    let machine = profiles::psg(2);
    let nranks = machine.gpu_job_size();
    let placement = Placement::block_gpu(machine.shape, nranks);
    let spec = BcastSpec {
        tree: Arc::new(topology_aware_tree(&placement, TopoTreeConfig::default())),
        msg_bytes: data.len() as u64,
        cfg: AdaptConfig::default(),
        data: Some(Bytes::from(data.clone())),
    };
    for victim in 1..nranks {
        for at in [2, 5, 20, 100] {
            let plan = FaultPlan::lossy(1, 0.0)
                .with_kill(victim, t_us(at))
                .with_rto(Duration::from_micros(5));
            let res = World::gpu(machine.clone(), nranks, ClusterNoise::silent(nranks))
                .with_faults(plan)
                .try_run(spec.staged_programs(&placement))
                .unwrap_or_else(|e| panic!("kill of rank {victim} at {at}us: {e}"));
            assert_eq!(res.stats.ranks_killed, 1);
            assert_eq!(res.stats.failures_detected, 1);
            assert_bytes_survivors(res, &data, &[victim]);
        }
    }
}

#[test]
fn killed_leaf_never_blocks_the_others() {
    let data = payload(150_000);
    let tree = chaos_tree();
    let victim = (1u32..16)
        .find(|&r| tree.children(r).is_empty())
        .expect("the tree has leaves");
    let (world, programs) = bcast_world(&data);
    let plan = FaultPlan::lossy(1, 0.0).with_kill(victim, t_us(20));
    let res = world
        .with_faults(plan)
        .try_run(programs)
        .unwrap_or_else(|e| panic!("a leaf kill must be survivable: {e}"));
    assert_bytes_survivors(res, &data, &[victim]);
}

#[test]
fn killed_root_is_a_structured_failure_not_a_panic() {
    // The data source dying is not survivable — the run must end with a
    // diagnosis naming rank 0, never a panic and never a hang.
    let data = payload(150_000);
    let (world, programs) = bcast_world(&data);
    let plan = FaultPlan::lossy(1, 0.0).with_kill(0, t_us(10));
    let err = match world
        .with_faults(plan)
        .with_watchdog(Duration::from_millis(50))
        .try_run(programs)
    {
        Err(e) => e,
        Ok(_) => panic!("a dead broadcast root cannot complete"),
    };
    let adapt::mpi::RunError::RanksFailed(diag) = err.as_ref() else {
        panic!("a kill-induced stall must classify as RanksFailed: {err}");
    };
    assert_eq!(diag.failed, vec![0], "the diagnosis must name the root");
    assert!(
        !diag.stuck.is_empty(),
        "survivors waiting on the dead root are stuck"
    );
    let text = err.to_string();
    assert!(text.contains("rank failure"), "{text}");
}

#[test]
fn killed_node_is_survivable_when_the_root_lives() {
    // Node 1 (ranks 8..16 on the 2x2x4 minicluster) dies wholesale; the
    // root's node survives and completes among its own eight ranks.
    let data = payload(200_000);
    let (world, programs) = bcast_world(&data);
    let plan = FaultPlan::lossy(1, 0.0).with_node_kill(1, t_us(30));
    let res = world
        .with_faults(plan)
        .try_run(programs)
        .unwrap_or_else(|e| panic!("losing the non-root node must be survivable: {e}"));
    let dead: Vec<u32> = (8..16).collect();
    assert_eq!(res.stats.ranks_killed, 8);
    assert_eq!(res.stats.failures_detected, 8);
    assert_bytes_survivors(res, &data, &dead);
}

#[test]
fn detection_latency_tracks_the_rto() {
    // The heartbeat detector declares a rank dead after rto x
    // (max_retries + 1) of silence, so the recovery makespan is bounded
    // below by the kill instant plus that delay — and shrinking the RTO
    // shrinks time-to-recovery (the EXPERIMENTS detection-latency study).
    let data = payload(150_000);
    let tree = chaos_tree();
    let victim = (1u32..16).find(|&r| !tree.children(r).is_empty()).unwrap();
    let kill_at = t_us(5);
    let run = |rto_us: u64| {
        let (world, programs) = bcast_world(&data);
        let plan = FaultPlan::lossy(1, 0.0)
            .with_kill(victim, kill_at)
            .with_rto(Duration::from_micros(rto_us));
        world
            .with_faults(plan)
            .try_run(programs)
            .unwrap_or_else(|e| panic!("rto={rto_us}us: {e}"))
    };
    let slow = run(8);
    let fast = run(3);
    // Default retries = 16, so detection lands at kill + 17 x rto.
    let floor = |rto_us: u64| kill_at + Duration::from_micros(17 * rto_us);
    assert!(
        slow.makespan >= floor(8).saturating_since(Time::ZERO),
        "recovery cannot beat the detector: makespan={}",
        slow.makespan
    );
    assert!(
        fast.makespan < slow.makespan,
        "a 4x tighter RTO must recover sooner: fast={} slow={}",
        fast.makespan,
        slow.makespan
    );
    assert_bytes_survivors(fast, &data, &[victim]);
}

#[test]
fn kill_after_completion_is_harmless() {
    // A kill instant past the fault-free makespan: the rank already
    // finished, so the late death changes nothing about the data and the
    // audit stays clean (no failed bytes — everything was consumed).
    let data = payload(100_000);
    let (world, programs) = bcast_world(&data);
    let clean = world.try_run(programs).unwrap();
    let (world, programs) = bcast_world(&data);
    let late = Time::ZERO + Duration::from_nanos(clean.makespan.as_nanos() * 3);
    let plan = FaultPlan::lossy(1, 0.0).with_kill(5, late);
    let res = world
        .with_faults(plan)
        .try_run(programs)
        .unwrap_or_else(|e| panic!("a post-completion kill must be harmless: {e}"));
    assert_eq!(res.audit.failed_bytes, 0, "{}", res.audit);
    assert_eq!(res.per_rank_finish, clean.per_rank_finish);
    assert_bytes(res, &data);
}

#[test]
fn kills_compose_with_loss_and_stalls() {
    // The full gauntlet: packet loss, a transient stall, and a permanent
    // interior death in one schedule. Survivors must still converge.
    let data = payload(150_000);
    let tree = chaos_tree();
    let victim = (1u32..16).rfind(|&r| !tree.children(r).is_empty()).unwrap();
    let stalled = (1u32..16).find(|&r| r != victim).unwrap();
    let (world, programs) = bcast_world(&data);
    let plan = FaultPlan::lossy(11, 0.01)
        .with_stall(stalled, t_us(5), t_us(60))
        .with_kill(victim, t_us(8))
        .with_rto(Duration::from_micros(5));
    let res = world
        .with_faults(plan)
        .try_run(programs)
        .unwrap_or_else(|e| panic!("composed schedule must be survivable: {e}"));
    assert_eq!(res.stats.ranks_killed, 1);
    assert_bytes_survivors(res, &data, &[victim]);
}

#[test]
fn watchdog_stays_silent_on_survivable_schedules() {
    // A generous horizon must never fire on a run that recovers on its
    // own, even under heavy loss.
    let data = payload(150_000);
    let (world, programs) = bcast_world(&data);
    let plan = FaultPlan::lossy(17, 0.04).with_rto(Duration::from_micros(60));
    let res = match world
        .with_faults(plan)
        .with_watchdog(Duration::from_millis(1000))
        .try_run(programs)
    {
        Ok(r) => r,
        Err(d) => panic!("a survivable schedule must complete under a generous watchdog: {d}"),
    };
    assert!(res.stats.retransmits > 0);
    assert_bytes(res, &data);
}
