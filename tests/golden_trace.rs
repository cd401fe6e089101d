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
//! `gpu_bcast_psg.txt` pins the ADAPT GPU broadcast the same way: psg
//! at 2 and 4 nodes, 1 MiB and 32 MiB, with the §4.1 staging buffer
//! and without it, each case with its makespan.
//!
//! A what-if layer scale of 1.0 is the identity: with it, on any layer,
//! every fixture reproduces byte for byte.
//!
//! The event-timeline fixtures under `tests/golden/trace/` are the older
//! per-event tracer's output (captured before it was folded into the
//! recorder), rows sorted by every column. The recording's CSV view
//! must reproduce them byte for byte; they are never regenerated.

use adapt::collectives::{
    execute, CollectiveCase, Device, Library, Noise, NoiseScope, OpKind, Recording, RunSpec,
};
use adapt::obs::{events_csv, Intervention, Layer, LAYERS};
use adapt::prelude::*;
use std::fmt::Write as _;
use std::path::PathBuf;
use std::sync::Arc;

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
    serialize(&run_result(
        op,
        msg_bytes,
        noise_percent,
        seed,
        intervention,
    ))
}

/// The run behind a fixture case.
fn run_result(
    op: OpKind,
    msg_bytes: u64,
    noise_percent: f64,
    seed: u64,
    intervention: Option<Intervention>,
) -> adapt::mpi::RunResult {
    let case = CollectiveCase {
        machine: profiles::cori(4),
        nranks: 128,
        op,
        library: Library::OmpiAdapt,
        msg_bytes,
    };
    execute(&RunSpec {
        noise: Noise {
            percent: noise_percent,
            scope: NoiseScope::PerNode,
            seed,
        },
        intervention,
        ..case.spec()
    })
    .unwrap()
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

/// A hand-off runs an event the moment its dispatch ends, exactly where
/// the queue would have popped it next: the quiet broadcast hands off a
/// share of its events and still counts them all, so the fixture's
/// `events=` line is unchanged.
#[test]
fn handoffs_leave_the_quiet_bcast_event_count_unchanged() {
    let res = run_result(OpKind::Bcast, 1 << 20, 0.0, 1, None);
    let (events, handoffs) = (res.stats.events, res.stats.handoffs);
    assert!(handoffs > 0 && handoffs < events, "{handoffs} of {events}");
    let want = std::fs::read_to_string(golden_dir().join("bcast_128r_1m_quiet.txt")).unwrap();
    assert_eq!(serialize(&res).lines().next(), want.lines().next());
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
        recorder: Recording {
            full: true,
            ..Recording::default()
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

/// The ADAPT GPU broadcast on psg, one rank per GPU, staged (§4.1) and
/// direct: no engine change may move a GPU delivery either. Each case
/// holds `events=`, the makespan and every rank's finish time.
#[test]
fn golden_gpu_bcast_psg() {
    let mut out = String::new();
    for nodes in [2, 4] {
        for msg_bytes in [1 << 20, 32 << 20] {
            for staged in [true, false] {
                let machine = profiles::psg(nodes);
                let nranks = machine.gpu_job_size();
                let placement = Placement::block_gpu(machine.shape, nranks);
                let tree = topology_aware_tree(&placement, TopoTreeConfig::default());
                let spec = BcastSpec {
                    tree: Arc::new(tree),
                    msg_bytes,
                    cfg: AdaptConfig::default(),
                    data: None,
                };
                let programs = Arc::new(move || {
                    if staged {
                        spec.staged_programs(&placement)
                    } else {
                        spec.programs()
                    }
                });
                let res = execute(&RunSpec {
                    device: Device::Gpu,
                    ..RunSpec::new(machine, nranks, programs)
                })
                .unwrap();
                let path = if staged { "staged" } else { "direct" };
                writeln!(out, "case psg({nodes}) msg={msg_bytes} {path}").unwrap();
                writeln!(out, "makespan={}", res.makespan.as_nanos()).unwrap();
                out.push_str(&serialize(&res));
            }
        }
    }
    check("gpu_bcast_psg.txt", out);
}
