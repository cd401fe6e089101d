//! Observability determinism and acceptance tests.
//!
//! The recorder rides on the deterministic simulation clock, so its
//! exports must be bit-reproducible: two identical runs produce
//! byte-identical Chrome traces and metrics CSVs. And recording must be
//! free of observer effects: a run's results (per-rank completion times,
//! counters) are identical with recording on or off, quiet or noisy.

use adapt::collectives::{
    execute, CollectiveCase, Library, Noise, NoiseScope, OpKind, Recording, RunSpec,
};
use adapt::obs::{
    chrome_trace, critical_path, metrics_csv, summary_json, summary_report, validate_chrome,
    validate_metrics_csv, validate_summary, Layer,
};
use adapt::prelude::*;

/// The acceptance scenario: quick-scale fig8 broadcast — 128 ranks on a
/// 4-node Cori slice, OMPI-adapt, 1 MiB.
fn fig8_case() -> CollectiveCase {
    CollectiveCase {
        machine: profiles::cori(4),
        nranks: 128,
        op: OpKind::Bcast,
        library: Library::OmpiAdapt,
        msg_bytes: 1 << 20,
    }
}

/// The fig8 case at `percent` per-node noise, with `recorder` attached.
fn fig8_spec(percent: f64, seed: u64, recorder: Recording) -> RunSpec {
    RunSpec {
        noise: Noise {
            percent,
            scope: NoiseScope::PerNode,
            seed,
        },
        recorder,
        ..fig8_case().spec()
    }
}

fn run(noise: f64, seed: u64, record: bool) -> adapt::mpi::RunResult {
    let recorder = if record {
        Recording {
            full: true,
            metrics_interval_ns: Some(10_000),
            ..Recording::default()
        }
    } else {
        Recording::default()
    };
    execute(&fig8_spec(noise, seed, recorder)).unwrap()
}

#[test]
fn exports_are_byte_identical_across_runs() {
    let a = run(0.0, 1, true);
    let b = run(0.0, 1, true);
    let (oa, ob) = (a.obs.as_ref().unwrap(), b.obs.as_ref().unwrap());
    let (ja, jb) = (chrome_trace(oa), chrome_trace(ob));
    assert_eq!(ja, jb, "Chrome trace must be bit-reproducible");
    let (ca, cb) = (metrics_csv(oa), metrics_csv(ob));
    assert_eq!(ca, cb, "metrics CSV must be bit-reproducible");

    // And both exports are well-formed by the repo's own validator.
    let summary = validate_chrome(&ja).expect("trace must validate");
    assert!(summary.complete_spans > 0, "expected dispatch spans");
    assert!(summary.async_spans > 0, "expected message/flow spans");
    assert!(summary.counters > 0, "expected gauge counters");
    let rows = validate_metrics_csv(&ca).expect("metrics must validate");
    assert!(rows > 0, "expected gauge samples");
}

#[test]
fn recording_is_free_and_critical_path_tiles_the_makespan() {
    for (noise, seed) in [(0.0, 1), (10.0, 42)] {
        let off = run(noise, seed, false);
        let res = run(noise, seed, true);
        // Observer-effect freedom: results identical with recording on.
        assert_eq!(
            off.per_rank_finish, res.per_rank_finish,
            "per-rank completion times moved with recording on \
             (noise={noise}, seed={seed})"
        );
        assert_eq!(off.makespan, res.makespan);
        assert_eq!(format!("{}", off.stats), format!("{}", res.stats));
        assert!(off.obs.is_none() && res.obs.is_some());

        let obs = res.obs.as_ref().unwrap();
        let cp = critical_path(obs);
        assert_eq!(
            cp.makespan_ns,
            res.makespan.as_nanos(),
            "critical path must start from the run's makespan"
        );
        assert_eq!(
            cp.total_ns(),
            cp.makespan_ns,
            "chain segments must sum exactly to the makespan"
        );
        // Gap-free chronological tiling of [0, makespan].
        let mut cursor = 0;
        for seg in &cp.segments {
            assert_eq!(seg.begin_ns, cursor, "segment chain has a gap/overlap");
            assert!(seg.end_ns >= seg.begin_ns);
            cursor = seg.end_ns;
        }
        assert_eq!(cursor, cp.makespan_ns);
        // A broadcast's path crosses the network and runs real callbacks.
        let totals = cp.layer_totals();
        let sum_of = |l: Layer| totals.iter().find(|(k, _)| *k == l).map_or(0, |(_, v)| *v);
        assert!(sum_of(Layer::Network) > 0, "path never crossed a link");
        assert!(sum_of(Layer::Callback) > 0, "path never ran a callback");
        // The report renders without panicking and names the makespan.
        let text = cp.render();
        assert!(text.contains(&format!("{:.3} us", cp.makespan_ns as f64 / 1000.0)));
    }
}

#[test]
fn streaming_summary_is_reproducible_validated_and_observer_free() {
    let stream = |noise: f64, seed: u64| {
        execute(&fig8_spec(
            noise,
            seed,
            Recording {
                summary: true,
                ..Recording::default()
            },
        ))
        .unwrap()
    };
    let a = stream(10.0, 42);
    let b = stream(10.0, 42);
    let (sa, sb) = (a.summary.as_ref().unwrap(), b.summary.as_ref().unwrap());
    let (ja, jb) = (summary_json(sa), summary_json(sb));
    assert_eq!(ja, jb, "summary JSON must be bit-reproducible");

    // The export is well-formed by the repo's own validator, and the
    // check's shape matches the run.
    let check = validate_summary(&ja).expect("summary must validate");
    assert_eq!(check.ranks as u32, fig8_case().nranks);
    assert!(check.msgs > 0 && check.flows > 0 && check.hot_links > 0);

    // Observer-effect freedom: streaming aggregation never perturbs the
    // simulation, and the aggregate recorder carries no span buffers.
    let off = run(10.0, 42, false);
    assert_eq!(off.per_rank_finish, a.per_rank_finish);
    assert_eq!(off.makespan, a.makespan);
    assert!(a.obs.is_none(), "streaming runs build no ObsData");

    // The human-readable report renders and names the headline numbers.
    let text = summary_report(sa);
    assert!(text.contains("streaming telemetry summary"));
    assert!(text.contains("posted->matched"));
}

#[test]
fn stall_dumps_a_valid_flight_fragment() {
    // A guaranteed stall under a tight watchdog: the flight ring must
    // come back attached to the diagnosis as a self-contained
    // Chrome-trace fragment that passes the validator — next to a
    // streaming summary or next to a full recording, with the same bytes.
    let case = CollectiveCase {
        machine: profiles::minicluster(2, 2, 4),
        nranks: 16,
        op: OpKind::Bcast,
        library: Library::OmpiAdapt,
        msg_bytes: 256 << 10,
    };
    let plan = FaultPlan::lossy(1, 0.0).with_stall(
        2,
        Time::ZERO,
        Time::ZERO + Duration::from_millis(3_600_000),
    );
    let fragment = |recorder| {
        let err = match execute(&RunSpec {
            faults: Some(plan.clone()),
            watchdog: Some(Duration::from_millis(1)),
            recorder,
            ..case.spec()
        }) {
            Err(e) => e,
            Ok(_) => panic!("an hour-long stall must trip a 1ms watchdog"),
        };
        let adapt::mpi::RunError::Stalled(diag) = *err else {
            panic!("a stall without kills must classify as Stalled: {err}");
        };
        assert!(diag.watchdog_fired);
        diag.flight.expect("a flight ring must dump its tail")
    };
    let flight = Some(512);
    let streamed = fragment(Recording {
        summary: true,
        flight,
        ..Recording::default()
    });
    let recorded = fragment(Recording {
        full: true,
        flight,
        ..Recording::default()
    });
    assert_eq!(streamed, recorded, "the ring sees the same probes");
    let summary = validate_chrome(&recorded).expect("flight fragment must validate");
    assert!(summary.complete_spans > 0, "tail must hold recent spans");
    assert!(recorded.contains("flight_spans_dropped"));
}

#[test]
fn phase_spans_nest_and_cover_hierarchical_runs() {
    // A hierarchical (phased) library emits phase begin/end marks; the
    // trace still validates, and every begin has a matching end.
    let case = CollectiveCase {
        machine: profiles::minicluster(2, 2, 4),
        nranks: 16,
        op: OpKind::Bcast,
        library: Library::IntelMpi,
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
    let obs = res.obs.as_ref().unwrap();
    let begins = obs.phases.iter().filter(|p| p.begin).count();
    let ends = obs.phases.iter().filter(|p| !p.begin).count();
    assert!(begins > 0, "hierarchical run recorded no phase marks");
    assert_eq!(begins, ends, "unbalanced phase begin/end marks");
    validate_chrome(&chrome_trace(obs)).expect("phased trace must validate");
}
