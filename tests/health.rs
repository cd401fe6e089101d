//! End-to-end contract of the online health monitor: seeded faults fire
//! the matching detector, clean runs fire nothing, and the live
//! [`HealthView`] agrees with the final report.
//!
//! Every fixture here is deterministic (seeded noise, seeded faults), so
//! the assertions are exact — an alert either fires on every run or on
//! none.

use adapt::collectives::{execute, CollectiveCase, Library, Noise, NoiseScope, OpKind, RunSpec};
use adapt::obs::{AlertKind, HealthReport, Monitor, MonitorConfig};
use adapt::prelude::*;
use bytes::Bytes;
use std::sync::Arc;

/// The golden quick-scale broadcast (fig8's shape) with a monitor
/// attached.
fn monitored_fig8(interval_ns: u64) -> HealthReport {
    let case = CollectiveCase {
        machine: profiles::cori(4),
        nranks: 128,
        op: OpKind::Bcast,
        library: Library::OmpiAdapt,
        msg_bytes: 1 << 20,
    };
    let res = execute(&RunSpec {
        noise: Noise {
            percent: 10.0,
            scope: NoiseScope::PerNode,
            seed: 42,
        },
        monitor_ns: Some(interval_ns),
        ..case.spec()
    })
    .unwrap();
    res.health.expect("monitored run carries a health report")
}

/// A small two-node broadcast with an explicit fault plan; returns the
/// health report of the completed run.
fn monitored_minicluster(plan: FaultPlan, monitor: Monitor) -> HealthReport {
    let (world, programs) = minicluster_bcast(plan, monitor);
    let res = world.try_run(programs).unwrap();
    res.health.expect("monitored run carries a health report")
}

/// A straggler-sensitive monitor: the 20µs cadence of every fixture
/// here, with the finish quorum dropped from 90% to 80% — a stalled
/// rank also wedges its rendezvous parent (the CTS never comes back),
/// so on 16 ranks two laggards are normal for one injected stall.
fn straggler_monitor() -> Monitor {
    Monitor::with_config(MonitorConfig {
        straggler_quorum_pm: 800,
        ..MonitorConfig::new(20_000)
    })
}

fn minicluster_bcast(plan: FaultPlan, monitor: Monitor) -> (World, Vec<Box<dyn RankProgram>>) {
    let machine = profiles::minicluster(2, 2, 4);
    let nranks = 16;
    let data: Vec<u8> = (0..200_000u32).map(|i| (i % 249) as u8).collect();
    let placement = Placement::block_cpu(machine.shape, nranks);
    let tree = Arc::new(topology_aware_tree(&placement, TopoTreeConfig::default()));
    let spec = BcastSpec {
        tree,
        msg_bytes: data.len() as u64,
        cfg: AdaptConfig::default().with_seg_size(32 * 1024),
        data: Some(Bytes::from(data)),
    };
    let world = World::cpu(machine, nranks, ClusterNoise::silent(nranks))
        .with_faults(plan)
        .with_monitor(monitor);
    (world, spec.programs())
}

#[test]
fn a_clean_run_takes_snapshots_and_fires_zero_alerts() {
    let health = monitored_fig8(20_000);
    assert!(health.snapshots > 10, "{health:?}");
    assert_eq!(
        health.total_alerts(),
        0,
        "a healthy run must stay quiet: {:?}",
        health.alerts
    );
    assert_eq!(health.nranks, 128);
    assert_eq!(health.interval_ns, 20_000);
}

#[test]
fn a_seeded_stall_fires_a_straggler_alert_for_the_stalled_rank() {
    // Rank 15 (a tree leaf — nothing downstream, so the other 15 ranks
    // finish on time and arm the quorum) freezes from 20µs to 5ms, then
    // resumes, so the run still completes.
    let plan = FaultPlan::default().with_stall(
        15,
        Time::ZERO + Duration::from_micros(20),
        Time::ZERO + Duration::from_millis(5),
    );
    let health = monitored_minicluster(plan, straggler_monitor());
    assert!(
        health.counts[AlertKind::Straggler.index()] >= 1,
        "the stalled rank must be flagged: {health:?}"
    );
    let stragglers: Vec<u32> = health
        .alerts
        .iter()
        .filter(|(a, _)| a.kind == AlertKind::Straggler)
        .map(|(a, _)| a.subject)
        .collect();
    assert!(
        stragglers.contains(&15),
        "rank 15 is the straggler: {stragglers:?}"
    );
    assert!(
        !stragglers.contains(&0),
        "the root made normal progress: {stragglers:?}"
    );
}

#[test]
fn a_degraded_link_fires_a_hot_link_alert_on_that_link() {
    // Socket 1's shared-memory link at 2% capacity for most of the run:
    // it stays saturated long after its three sibling shm links drain.
    // (The shm class is the one where a 2-node broadcast keeps several
    // peers active — each NIC class has exactly one sender here, and the
    // detector refuses to judge a class with a single active member.)
    let plan = FaultPlan::default().with_degrade_link(
        "Shm(1)",
        0.02,
        1.0,
        Time::ZERO + Duration::from_micros(10),
        Time::ZERO + Duration::from_millis(50),
    );
    let health = monitored_minicluster(plan, Monitor::new(20_000));
    assert!(
        health.counts[AlertKind::HotLink.index()] >= 1,
        "the degraded shm link must be flagged: {health:?}"
    );
    let hot: Vec<&str> = health
        .alerts
        .iter()
        .filter(|(a, _)| a.kind == AlertKind::HotLink)
        .map(|(_, label)| label.as_str())
        .collect();
    assert!(
        hot.iter().all(|l| l.contains("socket1/shm")),
        "alerts resolve to the topology name of the link: {hot:?}"
    );
}

#[test]
fn the_same_fixture_without_the_fault_stays_quiet() {
    // The control for the two detector tests above: identical world,
    // inert plan (attaches nothing), zero alerts.
    let health = monitored_minicluster(FaultPlan::default(), Monitor::new(20_000));
    assert_eq!(health.total_alerts(), 0, "{:?}", health.alerts);
    assert!(health.snapshots > 0);
}

#[test]
fn the_live_view_agrees_with_the_final_report() {
    let plan = FaultPlan::default().with_stall(
        15,
        Time::ZERO + Duration::from_micros(20),
        Time::ZERO + Duration::from_millis(5),
    );
    let monitor = straggler_monitor();
    let view = monitor.view();
    let machine = profiles::minicluster(2, 2, 4);
    let nranks = 16;
    let data: Vec<u8> = (0..200_000u32).map(|i| (i % 249) as u8).collect();
    let placement = Placement::block_cpu(machine.shape, nranks);
    let tree = Arc::new(topology_aware_tree(&placement, TopoTreeConfig::default()));
    let spec = BcastSpec {
        tree,
        msg_bytes: data.len() as u64,
        cfg: AdaptConfig::default().with_seg_size(32 * 1024),
        data: Some(Bytes::from(data)),
    };
    let world = World::cpu(machine, nranks, ClusterNoise::silent(nranks))
        .with_faults(plan)
        .with_monitor(monitor);
    let res = world.try_run(spec.programs()).unwrap();
    let health = res.health.expect("health report");
    // The view outlives the monitor (shared state) and saw every alert.
    assert_eq!(view.total_alerts(), health.total_alerts());
    assert!(view.total_alerts() >= 1, "the stall fired through the view");
    assert_eq!(view.snapshots(), health.snapshots);
    // The straggler latch is *live*: rank 15 was flagged while stalled,
    // then recovered and finished, so by end-of-run it reads healthy
    // again (the report above still carries the alert it fired).
    assert!(!view.is_straggler(15), "a recovered rank reads healthy");
    assert!(view.last_alert().is_some());
    assert_eq!(
        view.count(AlertKind::Straggler),
        health.counts[AlertKind::Straggler.index()]
    );
}

#[test]
fn a_global_stall_flatlines_before_the_watchdog_would_fire() {
    // Every rank freezes for 2ms mid-run: no flows, no progress, a
    // perfectly flat world. The flatline detector needs 3 unchanged
    // 20µs snapshots (≈60µs of quiet) — two orders of magnitude before
    // a 100ms watchdog would have diagnosed anything.
    let mut plan = FaultPlan::default();
    for r in 0..16 {
        plan = plan.with_stall(
            r,
            Time::ZERO + Duration::from_micros(40),
            Time::ZERO + Duration::from_millis(2),
        );
    }
    let (world, programs) = minicluster_bcast(plan, Monitor::new(20_000));
    let res = world
        .with_watchdog(Duration::from_millis(100))
        .try_run(programs)
        .unwrap();
    let health = res.health.expect("health report");
    assert!(
        health.counts[AlertKind::ProgressFlatline.index()] >= 1,
        "a silent world must flatline: {health:?}"
    );
    let first_flatline = health
        .alerts
        .iter()
        .find(|(a, _)| a.kind == AlertKind::ProgressFlatline)
        .map(|(a, _)| a.t_ns)
        .expect("a flatline alert is kept");
    assert!(
        first_flatline < 2_000_000,
        "detected during the stall, not after: {first_flatline}ns"
    );
}
