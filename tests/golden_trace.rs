//! Golden-trace determinism tests.
//!
//! The matching index and the fair-share engine's data structures are
//! performance work: they must not move a single delivery by a single
//! nanosecond. These tests run quick-scale ADAPT broadcast and reduce on
//! fixed seeds (with noise, so preemption and deferral paths are
//! exercised) and compare per-rank completion times byte-for-byte against
//! fixtures under `tests/golden/`.
//!
//! The fixtures moved once, on purpose, when the network switched to
//! per-link service clocks: drain events used to keep a stale estimate
//! unless a share change moved it by more than 10%, and now fire at the
//! exact drain time. The re-blessed fixtures are byte-identical to the
//! output of the old engine with that tolerance set to zero, so the move
//! is the tolerance's effect alone (bcast makespan 480 130 → 479 698 ns,
//! reduce 895 587 → 898 092 ns, quiet and noisy alike).
//!
//! Regenerate (only when a behaviour change is intended and reviewed):
//!
//! ```text
//! GOLDEN_REGEN=1 cargo test --test golden_trace
//! ```
//!
//! A what-if layer scale of 1.0 is the identity: with it, on any layer,
//! every fixture reproduces byte for byte.
//!
//! The event-timeline fixtures under `tests/golden/trace/` are the older
//! per-event tracer's output (captured before it was folded into the
//! recorder), rows sorted by every column. The recording's CSV view
//! must reproduce them byte for byte; they are never regenerated.

use adapt::collectives::{
    execute, CollectiveCase, Library, Noise, NoiseScope, OpKind, Recording, RunSpec,
};
use adapt::obs::{events_csv, Intervention, Layer, LAYERS};
use adapt::prelude::*;
use std::fmt::Write as _;
use std::path::PathBuf;

fn golden_dir() -> PathBuf {
    PathBuf::from(env!("CARGO_MANIFEST_DIR")).join("tests/golden")
}

/// Serialize a run: header with aggregate counters, then one line per
/// rank with its completion time in integer nanoseconds.
fn serialize(res: &adapt::mpi::RunResult) -> String {
    let mut out = String::new();
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

/// Run one fixture case: ADAPT on a 128-rank Cori slice.
fn run_case(op: OpKind, msg_bytes: u64, noise_percent: f64, seed: u64) -> String {
    run_scaled(op, msg_bytes, noise_percent, seed, None)
}

/// Run one fixture case under an optional what-if intervention.
fn run_scaled(
    op: OpKind,
    msg_bytes: u64,
    noise_percent: f64,
    seed: u64,
    intervention: Option<Intervention>,
) -> String {
    let case = CollectiveCase {
        machine: profiles::cori(4),
        nranks: 128,
        op,
        library: Library::OmpiAdapt,
        msg_bytes,
    };
    let res = execute(&RunSpec {
        noise: Noise {
            percent: noise_percent,
            scope: NoiseScope::PerNode,
            seed,
        },
        intervention,
        ..case.spec()
    })
    .unwrap();
    serialize(&res)
}

fn check(name: &str, got: String) {
    let path = golden_dir().join(name);
    if std::env::var_os("GOLDEN_REGEN").is_some() {
        std::fs::create_dir_all(golden_dir()).unwrap();
        std::fs::write(&path, &got).unwrap();
        eprintln!("regenerated {}", path.display());
        return;
    }
    let want = std::fs::read_to_string(&path)
        .unwrap_or_else(|e| panic!("missing golden fixture {}: {e}", path.display()));
    assert_eq!(
        got, want,
        "golden trace {name} diverged — per-rank completion times moved; \
         a perf-only change must be time-identical"
    );
}

#[test]
fn golden_bcast_quiet() {
    check(
        "bcast_128r_1m_quiet.txt",
        run_case(OpKind::Bcast, 1 << 20, 0.0, 1),
    );
}

#[test]
fn golden_bcast_noisy() {
    check(
        "bcast_128r_1m_noise10_seed42.txt",
        run_case(OpKind::Bcast, 1 << 20, 10.0, 42),
    );
}

#[test]
fn golden_reduce_quiet() {
    check(
        "reduce_128r_1m_quiet.txt",
        run_case(OpKind::Reduce, 1 << 20, 0.0, 1),
    );
}

#[test]
fn golden_reduce_noisy() {
    check(
        "reduce_128r_1m_noise10_seed42.txt",
        run_case(OpKind::Reduce, 1 << 20, 10.0, 42),
    );
}

#[test]
fn identity_layer_scales_reproduce_every_fixture() {
    let fixtures = [
        ("bcast_128r_1m_quiet.txt", OpKind::Bcast, 0.0, 1),
        ("bcast_128r_1m_noise10_seed42.txt", OpKind::Bcast, 10.0, 42),
        ("reduce_128r_1m_quiet.txt", OpKind::Reduce, 0.0, 1),
        (
            "reduce_128r_1m_noise10_seed42.txt",
            OpKind::Reduce,
            10.0,
            42,
        ),
    ];
    for (name, op, noise, seed) in fixtures {
        for layer in LAYERS.into_iter().filter(|&l| l != Layer::Blocked) {
            let iv = Intervention::ScaleLayer { layer, factor: 1.0 };
            check(name, run_scaled(op, 1 << 20, noise, seed, Some(iv)));
        }
    }
}

/// The recorded event timeline of a quiet 256 KiB run on the two-node
/// minicluster (32 ranks), against its legacy-tracer fixture.
fn check_events(name: &str, op: OpKind, library: Library) {
    let case = CollectiveCase {
        machine: profiles::minicluster(2, 2, 8),
        nranks: 32,
        op,
        library,
        msg_bytes: 256 << 10,
    };
    let res = execute(&RunSpec {
        recorder: Recording::Full {
            metrics_interval_ns: None,
        },
        ..case.spec()
    })
    .unwrap();
    let got = events_csv(res.obs.as_ref().expect("recorder attached"));
    let path = golden_dir().join("trace").join(name);
    let want = std::fs::read_to_string(&path)
        .unwrap_or_else(|e| panic!("missing legacy trace fixture {}: {e}", path.display()));
    assert_eq!(got, want, "the event CSV view no longer reproduces {name}");
}

#[test]
fn event_view_reproduces_legacy_bcast_trace() {
    check_events(
        "bcast_mini32_256k_adapt.csv",
        OpKind::Bcast,
        Library::OmpiAdapt,
    );
}

#[test]
fn event_view_reproduces_legacy_reduce_trace() {
    check_events(
        "reduce_mini32_256k_default.csv",
        OpKind::Reduce,
        Library::OmpiDefault,
    );
}
