//! Golden fixture for the online health monitor.
//!
//! One seeded-stall ADAPT broadcast with the monitor attached, its
//! `adapt-obs-health-v1` artifact pinned byte-for-byte: snapshot count,
//! detector thresholds, the alert timeline (kinds, subjects, firing
//! times), and the JSON shape downstream tooling parses. Any change to
//! the snapshot cadence, the detector arithmetic, or the export format
//! moves this fixture and must be reviewed as a behaviour change, not
//! silently absorbed.
//!
//! Regenerate (only when a behaviour change is intended and reviewed):
//!
//! ```text
//! GOLDEN_REGEN=1 cargo test --test health_golden
//! ```

use adapt::obs::{health_json, Monitor, MonitorConfig};
use adapt::prelude::*;
use bytes::Bytes;
use std::path::PathBuf;
use std::sync::Arc;

fn golden_dir() -> PathBuf {
    PathBuf::from(env!("CARGO_MANIFEST_DIR")).join("tests/golden")
}

fn check(name: &str, got: String) {
    let path = golden_dir().join(name);
    if std::env::var_os("GOLDEN_REGEN").is_some() {
        std::fs::create_dir_all(golden_dir()).unwrap();
        std::fs::write(&path, &got).unwrap();
        return;
    }
    let want = std::fs::read_to_string(&path).unwrap_or_else(|e| {
        panic!(
            "missing fixture {} ({e}); run GOLDEN_REGEN=1",
            path.display()
        )
    });
    assert_eq!(
        got,
        want,
        "health golden artifact diverged from {} — if the change is \
         intentional, regenerate with GOLDEN_REGEN=1",
        path.display()
    );
}

#[test]
fn stalled_bcast_16r_200k_health_artifact() {
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
    // Leaf rank 15 freezes from 20µs to 5ms; its rendezvous parent
    // wedges with it, so the quorum is dropped to 80% to let the other
    // fourteen ranks arm the straggler detector (see tests/health.rs).
    let plan = FaultPlan::default().with_stall(
        15,
        Time::ZERO + Duration::from_micros(20),
        Time::ZERO + Duration::from_millis(5),
    );
    let monitor = Monitor::with_config(MonitorConfig {
        straggler_quorum_pm: 800,
        ..MonitorConfig::new(20_000)
    });
    let world = World::cpu(machine, nranks, ClusterNoise::silent(nranks))
        .with_faults(plan)
        .with_monitor(monitor);
    let res = world.try_run(spec.programs()).unwrap();
    assert!(res.audit.is_clean(), "{}", res.audit);
    let health = res.health.as_ref().expect("monitored run carries health");
    assert!(
        health.total_alerts() > 0,
        "the pinned run must exercise the detectors"
    );
    check("health_stall15_16r_200k.json", health_json(health));
}
