//! Golden fixtures for the fault layer.
//!
//! One lossy ADAPT broadcast on a fixed seed, pinned byte-for-byte:
//! per-rank completion times *and* the recovery counters (drops,
//! retransmits, acks, duplicate suppressions). Any change to the loss
//! draw order, the RTO arithmetic, the ack path, or the retransmit
//! bookkeeping moves this fixture and must be reviewed as a behaviour
//! change, not silently absorbed.
//!
//! A second fixture pins every fault-plan shape (loss, outage,
//! degradation, targeted degradation, stall, rank kill, node kill, and
//! a composed kill + loss + stall) under ADAPT bcast and ADAPT reduce:
//! makespan, per-rank finish times, recovery counters, kill/detection
//! counts and the audit line — or the full error text when the survivors
//! cannot complete. Each shape exercises a different part of the fault
//! layer, so a refactor that moves any of it must leave this file alone.
//!
//! Regenerate (only when a behaviour change is intended and reviewed):
//!
//! ```text
//! GOLDEN_REGEN=1 cargo test --test faults_golden
//! ```

use adapt::prelude::*;
use bytes::Bytes;
use std::fmt::Write as _;
use std::path::PathBuf;
use std::sync::Arc;

fn golden_dir() -> PathBuf {
    PathBuf::from(env!("CARGO_MANIFEST_DIR")).join("tests/golden")
}

/// Serialize the faulted run: recovery counters first (the part this
/// fixture exists to pin), then one line per rank with its completion
/// time in integer nanoseconds.
fn serialize(res: &adapt::mpi::RunResult) -> String {
    let mut out = String::new();
    writeln!(
        out,
        "drops={} retransmits={} acks={} dups={} backoff_ns={}",
        res.stats.drops_injected,
        res.stats.retransmits,
        res.stats.acks,
        res.stats.duplicates_suppressed,
        res.stats.backoff_time,
    )
    .unwrap();
    writeln!(
        out,
        "events={} messages={} delivered_bytes={}",
        res.stats.events, res.stats.messages, res.stats.delivered_bytes
    )
    .unwrap();
    for (rank, t) in res.per_rank_finish.iter().enumerate() {
        writeln!(out, "{rank},{}", t.as_nanos()).unwrap();
    }
    out
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
        "faulted golden trace diverged from {} — if the change is \
         intentional, regenerate with GOLDEN_REGEN=1",
        path.display()
    );
}

const NRANKS: u32 = 16;
const MSG_BYTES: usize = 300_000;

fn tree() -> Arc<Tree> {
    let placement = Placement::block_cpu(profiles::minicluster(2, 2, 4).shape, NRANKS);
    Arc::new(topology_aware_tree(&placement, TopoTreeConfig::default()))
}

fn bcast_programs() -> Vec<Box<dyn RankProgram>> {
    let data: Vec<u8> = (0..MSG_BYTES as u32).map(|i| (i % 249) as u8).collect();
    BcastSpec {
        tree: tree(),
        msg_bytes: data.len() as u64,
        cfg: AdaptConfig::default().with_seg_size(32 * 1024),
        data: Some(Bytes::from(data)),
    }
    .programs()
}

fn reduce_programs() -> Vec<Box<dyn RankProgram>> {
    let elems = MSG_BYTES / 8;
    let contributions = (0..NRANKS as usize)
        .map(|r| {
            let v: Vec<f64> = (0..elems).map(|i| ((r + i) % 37) as f64).collect();
            Bytes::from(adapt::mpi::f64_to_bytes(&v))
        })
        .collect();
    ReduceSpec {
        tree: tree(),
        msg_bytes: (elems * 8) as u64,
        cfg: AdaptConfig::default().with_seg_size(32 * 1024),
        data: ReduceData::Real {
            op: adapt::mpi::ReduceOp::Sum,
            dtype: adapt::mpi::DType::F64,
            contributions: Arc::new(contributions),
        },
        exec: ReduceExec::Cpu,
    }
    .programs()
}

fn faulted_world(plan: FaultPlan) -> World {
    World::cpu(
        profiles::minicluster(2, 2, 4),
        NRANKS,
        ClusterNoise::silent(NRANKS),
    )
    .with_faults(plan)
}

#[test]
fn lossy_bcast_16r_300k_seed7() {
    let plan = FaultPlan::lossy(7, 0.02).with_rto(Duration::from_micros(60));
    let res = faulted_world(plan)
        .try_run(bcast_programs())
        .unwrap_or_else(|e| panic!("{e}"));
    assert!(res.audit.is_clean(), "{}", res.audit);
    assert!(
        res.stats.retransmits > 0,
        "the pinned run must exercise recovery"
    );
    check("faulted_bcast_16r_300k_seed7.txt", serialize(&res));
}

/// One `--faults` plan per shape the fault layer distinguishes. Rank 4
/// is interior in the 16-rank topology-aware tree and node 1 holds
/// ranks 8..16, so the kills exercise tree repair around a live root.
const SHAPES: &[(&str, &str)] = &[
    ("loss", "loss=0.02,rto=60us"),
    ("down", "down=20us-60us,rto=30us"),
    ("degrade", "degrade=0.1:20us-80us"),
    ("degradelink", "degradelink=NicTx(0):0.1:10us-80us"),
    ("stall", "stall=5:20us-80us"),
    ("kill", "kill=4:5us,rto=5us"),
    ("killnode", "killnode=1:30us,rto=5us"),
    (
        "kill+loss+stall",
        "loss=0.01,stall=5:5us-60us,kill=4:8us,rto=5us",
    ),
];

#[test]
fn every_fault_shape_16r_300k_seed7() {
    let mut out = String::new();
    for &(name, spec) in SHAPES {
        for (op, programs) in [("bcast", bcast_programs()), ("reduce", reduce_programs())] {
            let plan = FaultPlan::parse(spec, 7).expect("shape plans parse");
            writeln!(out, "## {name} {op} ({spec})").unwrap();
            match faulted_world(plan).try_run(programs) {
                Ok(res) => {
                    writeln!(
                        out,
                        "makespan_ns={} killed={} detected={}",
                        res.makespan.as_nanos(),
                        res.stats.ranks_killed,
                        res.stats.failures_detected
                    )
                    .unwrap();
                    writeln!(out, "{}", res.audit).unwrap();
                    out.push_str(&serialize(&res));
                }
                Err(e) => writeln!(out, "error: {e}").unwrap(),
            }
        }
    }
    check("faulted_shapes_16r_300k_seed7.txt", out);
}
