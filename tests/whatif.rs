//! What-if by re-run: every intervention is a real configuration of the
//! simulator, so its answer (the prediction `--whatif` prints) is a
//! re-run of the same spec, and the `diff` engine attributes the
//! makespan delta across layer × rank × phase.
//!
//! 1. the no-op re-run reproduces the run bit-exactly (determinism);
//! 2. noise-off, rank-noise-off and link rescales do exactly what they
//!    say, checked against independently configured runs and against
//!    the recorded link parameters;
//! 3. a layer scale of 0.5 halves that layer's critical-path time on a
//!    two-rank single-chain run, ±1 ns per charge;
//! 4. `diff(a, a)` is all-zero and diff attribution always covers 100%
//!    of the makespan delta;
//! 5. a recording holds its whole causal structure, and a tampered one
//!    is rejected naming the dispatch that lost its cause; a kill run
//!    records every survivor's revoke handler.

use adapt::collectives::{
    execute, CollectiveCase, Device, Library, Noise, NoiseScope, OpKind, Recording, RunSpec,
};
use adapt::obs::{
    chrome_trace, critical_path, diff_runs, events_csv, from_json, to_json, validate_chrome,
    validate_recording, Intervention, Layer, ObsData, Trigger,
};
use adapt::prelude::*;
use std::sync::Arc;

/// Mini machine, 8 ranks, eager+rendezvous mix: small enough that every
/// re-run takes milliseconds.
fn mini_case(msg_bytes: u64) -> CollectiveCase {
    CollectiveCase {
        machine: profiles::minicluster(2, 1, 4),
        nranks: 8,
        op: OpKind::Bcast,
        library: Library::OmpiAdapt,
        msg_bytes,
    }
}

/// A fully recorded run of `case` at `percent` noise over `scope`.
fn recorded(case: &CollectiveCase, scope: NoiseScope, percent: f64, seed: u64) -> RunSpec {
    RunSpec {
        noise: Noise {
            percent,
            scope,
            seed,
        },
        recorder: Recording {
            full: true,
            ..Recording::default()
        },
        ..case.spec()
    }
}

/// The recording of `spec` re-run under `iv`.
fn rerun(spec: &RunSpec, iv: Intervention) -> ObsData {
    execute(&RunSpec {
        intervention: Some(iv),
        ..spec.clone()
    })
    .unwrap()
    .obs
    .expect("recorder attached")
}

fn record(case: &CollectiveCase, noise: f64, seed: u64) -> ObsData {
    execute(&recorded(case, NoiseScope::PerNode, noise, seed))
        .unwrap()
        .obs
        .expect("recorder attached")
}

/// Noise windows arrive on a 100 ms period; seed 1032 is one whose phase
/// lands windows inside this mini run (95 µs quiet → ~11.7 ms noisy), so
/// the noise interventions below remove real preemption stretching.
const NOISY_SEED: u64 = 1032;

fn noisy_spec(case: &CollectiveCase) -> RunSpec {
    recorded(case, NoiseScope::AllRanks, 10.0, NOISY_SEED)
}

fn record_noisy(case: &CollectiveCase) -> ObsData {
    execute(&noisy_spec(case))
        .unwrap()
        .obs
        .expect("recorder attached")
}

#[test]
fn noop_rerun_reports_a_zero_delta() {
    for spec in [
        noisy_spec(&mini_case(256 * 1024)),
        recorded(
            &CollectiveCase {
                op: OpKind::Reduce,
                ..mini_case(128 * 1024)
            },
            NoiseScope::PerNode,
            5.0,
            7,
        ),
    ] {
        let base = execute(&spec).unwrap().obs.expect("recorder attached");
        let again = rerun(&spec, Intervention::Noop);
        assert_eq!(again.per_rank_finish_ns, base.per_rank_finish_ns);
        let d = diff_runs(&base, &again);
        assert_eq!(d.delta_ns(), 0);
        assert!(d.buckets.iter().all(|b| b.delta_ns() == 0));
    }
}

#[test]
fn noise_off_prediction_matches_real_rerun_bit_exactly() {
    let case = mini_case(256 * 1024);
    let noisy = record_noisy(&case);
    let quiet = record(&case, 0.0, NOISY_SEED);
    assert_ne!(
        noisy.makespan_ns(),
        quiet.makespan_ns(),
        "noise must actually perturb the mini scenario"
    );
    let rerun = rerun(&noisy_spec(&case), Intervention::NoiseOff);
    assert_eq!(
        rerun.per_rank_finish_ns, quiet.per_rank_finish_ns,
        "the noise-off re-run must equal a --noise 0 run, rank by rank"
    );
    let d = diff_runs(&noisy, &rerun);
    assert_eq!(d.attributed_ns(), d.delta_ns());
    assert!(d.delta_ns() < 0, "removing the noise must speed the run up");
}

#[test]
fn rank_noise_off_prediction_matches_real_rerun() {
    let case = mini_case(256 * 1024);
    let noisy = record_noisy(&case);
    // Find a rank whose windows actually bit during the recorded run.
    let victim = noisy
        .noise_windows
        .iter()
        .position(|w| w.iter().any(|&(s, _)| s < noisy.makespan_ns()))
        .expect("some rank was preempted");
    let rerun = rerun(
        &noisy_spec(&case),
        Intervention::RankNoiseOff(victim as u32),
    );
    // Windows are recorded out to twice the makespan, so compare the
    // stretch both recordings cover.
    for (r, (before, after)) in noisy
        .noise_windows
        .iter()
        .zip(&rerun.noise_windows)
        .enumerate()
    {
        let n = before.len().min(after.len());
        if r == victim {
            assert!(after.is_empty(), "rank {r} kept its noise");
        } else {
            assert!(n > 0 && after[..n] == before[..n], "rank {r}'s noise moved");
        }
    }
    let d = diff_runs(&noisy, &rerun);
    assert_eq!(d.attributed_ns(), d.delta_ns());
}

#[test]
fn link_scale_prediction_matches_real_rerun() {
    let case = mini_case(256 * 1024);
    let spec = recorded(&case, NoiseScope::PerNode, 0.0, 3);
    let base = record(&case, 0.0, 3);
    for (pattern, factor) in [("NicTx", 2.0), ("Shm", 1.5), ("InterSocket", 0.5)] {
        let scaled = rerun(
            &spec,
            Intervention::ScaleLink {
                pattern: pattern.into(),
                factor,
            },
        );
        let mut touched = 0;
        for (i, label) in base.link_labels.iter().enumerate() {
            let (cap, lat) = (base.link_caps[i], base.link_lat_ns[i]);
            if label.starts_with(pattern) {
                touched += 1;
                assert_eq!(scaled.link_caps[i], cap * factor, "{label}");
                assert_eq!(
                    scaled.link_lat_ns[i],
                    (lat as f64 / factor).round() as u64,
                    "{label}"
                );
            } else {
                assert_eq!((scaled.link_caps[i], scaled.link_lat_ns[i]), (cap, lat));
            }
        }
        assert!(touched > 0, "{pattern} matched no link");
        let d = diff_runs(&base, &scaled);
        assert_eq!(d.attributed_ns(), d.delta_ns(), "{pattern} x{factor}");
    }
}

#[test]
fn speedup_predictions_brake_and_accelerate_sanely() {
    let case = mini_case(512 * 1024);
    let spec = recorded(&case, NoiseScope::PerNode, 0.0, 5);
    let base = record(&case, 0.0, 5).makespan_ns();
    // Faster NICs must not slow the run; slower must not speed it.
    let nics = |factor| {
        rerun(
            &spec,
            Intervention::ScaleLink {
                pattern: "NicTx".into(),
                factor,
            },
        )
        .makespan_ns()
    };
    let (fast, slow) = (nics(4.0), nics(0.25));
    assert!(fast <= base, "{fast} > {base}");
    assert!(slow >= base, "{slow} < {base}");
}

/// Two ranks, one causal chain through every CPU-side layer. Rank 0
/// sends a 1 KiB eager message and posts a receive for the reply. Rank 1
/// computes for 20 µs, so the eager message waits unexpected and its
/// receive pays the copy-out (matching); it then answers with a 256 KiB
/// rendezvous reply (RTS, CTS and payload flows, both protocol steps).
struct Chain;

impl RankProgram for Chain {
    fn on_start(&mut self, ctx: &mut dyn ProgramCtx) {
        if ctx.rank() == 0 {
            ctx.isend(1, 0, Payload::Synthetic(1024), Token(0));
            ctx.irecv(1, 1, Token(1));
        } else {
            ctx.compute(Duration::from_micros(20), Token(0));
        }
    }

    fn on_completion(&mut self, ctx: &mut dyn ProgramCtx, c: Completion) {
        match (ctx.rank(), c) {
            (0, Completion::RecvDone { .. }) => ctx.finish(),
            (1, Completion::ComputeDone { .. }) => ctx.irecv(0, 0, Token(1)),
            (1, Completion::RecvDone { .. }) => {
                ctx.isend(0, 1, Payload::Synthetic(256 << 10), Token(2))
            }
            (1, Completion::SendDone { .. }) => ctx.finish(),
            _ => {}
        }
    }
}

/// Two GPU ranks; rank 0 stages 1 MiB device → host, then reduces 1 MiB
/// on its GPU stream, so its chain runs through the copy and gpu layers.
struct Staged;

impl RankProgram for Staged {
    fn on_start(&mut self, ctx: &mut dyn ProgramCtx) {
        if ctx.rank() == 0 {
            let (dev, host) = (ctx.mem_of(0), ctx.host_of(0));
            ctx.copy(dev, host, 1 << 20, Token(0));
        } else {
            ctx.finish();
        }
    }

    fn on_completion(&mut self, ctx: &mut dyn ProgramCtx, c: Completion) {
        match c {
            Completion::CopyDone { .. } => ctx.gpu_reduce(1 << 20, Token(1)),
            Completion::GpuDone { .. } => ctx.finish(),
            _ => {}
        }
    }
}

/// Critical-path nanoseconds and segment count of `layer` in `data`.
fn on_path(data: &ObsData, layer: Layer) -> (u64, u64) {
    let path = critical_path(data);
    let segs = path.segments.iter().filter(|s| s.layer == layer);
    (segs.clone().map(|s| s.dur_ns()).sum(), segs.count() as u64)
}

#[test]
fn halving_a_layer_halves_its_critical_path_time() {
    let chain = RunSpec {
        recorder: Recording {
            full: true,
            ..Recording::default()
        },
        ..RunSpec::new(
            profiles::minicluster(2, 1, 1),
            2,
            Arc::new(|| {
                (0..2)
                    .map(|_| Box::new(Chain) as Box<dyn RankProgram>)
                    .collect()
            }),
        )
    };
    let staged = RunSpec {
        device: Device::Gpu,
        recorder: Recording {
            full: true,
            ..Recording::default()
        },
        ..RunSpec::new(
            profiles::psg(1),
            2,
            Arc::new(|| {
                (0..2)
                    .map(|_| Box::new(Staged) as Box<dyn RankProgram>)
                    .collect()
            }),
        )
    };
    let cases = [
        (&chain, Layer::Callback),
        (&chain, Layer::Protocol),
        (&chain, Layer::Matching),
        (&chain, Layer::Compute),
        (&chain, Layer::Network),
        (&staged, Layer::Gpu),
        (&staged, Layer::Copy),
    ];
    for (spec, layer) in cases {
        let base = execute(spec).unwrap().obs.expect("recorder attached");
        validate_recording(&base).unwrap();
        let (ns, charges) = on_path(&base, layer);
        assert!(ns > 0, "{layer:?} is not on the chain's critical path");
        // The copy layer scales the bytes on the wire; the path latency
        // of the copy flow stays.
        let fixed: u64 = if layer == Layer::Copy {
            let f = base.flows.iter().find(|f| f.token == 0).expect("copy flow");
            f.links.iter().map(|&l| base.link_lat_ns[l as usize]).sum()
        } else {
            0
        };
        let halved = rerun(spec, Intervention::ScaleLayer { layer, factor: 0.5 });
        let (got, _) = on_path(&halved, layer);
        let want = fixed as f64 + (ns - fixed) as f64 / 2.0;
        assert!(
            (got as f64 - want).abs() <= charges as f64,
            "{layer:?}: {ns} ns -> {got} ns, want {want} ± {charges}"
        );
        let d = diff_runs(&base, &halved);
        assert!(
            d.delta_ns() < 0,
            "{layer:?}: halving made the run no faster"
        );
        assert_eq!(d.attributed_ns(), d.delta_ns());
    }
}

#[test]
fn json_round_trips_a_real_recording() {
    let data = record_noisy(&mini_case(256 * 1024));
    let back = from_json(&to_json(&data)).unwrap();
    assert_eq!(back.per_rank_finish_ns, data.per_rank_finish_ns);
    assert_eq!(back.msgs, data.msgs);
    assert_eq!(back.flows, data.flows);
    assert_eq!(back.dispatches, data.dispatches);
    assert_eq!(back.noise_windows, data.noise_windows);
    // The round-tripped recording still holds the whole causal graph.
    validate_recording(&back).unwrap();
}

#[test]
fn a_recording_missing_a_cause_is_rejected() {
    let reduce = CollectiveCase {
        op: OpKind::Reduce,
        ..mini_case(128 * 1024)
    };
    let data = record(&reduce, 0.0, 1);
    validate_recording(&data).unwrap();

    // Drop a rendezvous payload: the dispatch it completed is named.
    let mut tampered = data.clone();
    let fi = tampered
        .flows
        .iter()
        .position(|f| f.class == adapt::obs::FlowClass::Rndv)
        .expect("a rendezvous payload");
    let m = tampered.flows.remove(fi).msg.unwrap();
    let err = validate_recording(&tampered).unwrap_err();
    assert!(
        err.contains("dispatch") && err.contains(&format!("payload flow of m{m}")),
        "{err}"
    );

    // Drop a compute span: the ComputeDone dispatch it fed is named.
    let mut tampered = data.clone();
    let c = tampered.computes.remove(0);
    let err = validate_recording(&tampered).unwrap_err();
    assert!(
        err.contains("compute_done on rank") && err.contains(&format!("token {}", c.token)),
        "{err}"
    );
}

#[test]
fn self_diff_is_all_zero_on_a_real_recording() {
    let data = record_noisy(&mini_case(256 * 1024));
    let d = diff_runs(&data, &data);
    assert_eq!(d.delta_ns(), 0);
    assert!(d.buckets.iter().all(|b| b.delta_ns() == 0));
}

#[test]
fn diff_attributes_the_whole_delta_between_real_runs() {
    let quiet = record(&mini_case(256 * 1024), 0.0, NOISY_SEED);
    let noisy = record_noisy(&mini_case(256 * 1024));
    let d = diff_runs(&quiet, &noisy);
    assert_ne!(d.delta_ns(), 0);
    assert_eq!(
        d.attributed_ns(),
        d.delta_ns(),
        "attribution must cover 100% of the makespan delta"
    );
    // Differencing two different libraries also attributes fully.
    let tuned = record(
        &CollectiveCase {
            library: Library::OmpiDefault,
            ..mini_case(256 * 1024)
        },
        0.0,
        42,
    );
    let d2 = diff_runs(&quiet, &tuned);
    assert_eq!(d2.attributed_ns(), d2.delta_ns());
}

#[test]
fn every_survivor_records_its_revoke_handler() {
    // Rank 4 dies at 5 us of a 32-rank bcast; the survivors repair the
    // tree in their `on_peer_failed` handlers.
    let spec = RunSpec {
        faults: Some(FaultPlan::parse("kill=4:5us,rto=5us", 7).unwrap()),
        recorder: Recording {
            full: true,
            ..Recording::default()
        },
        ..CollectiveCase {
            machine: profiles::minicluster(2, 2, 8),
            nranks: 32,
            op: OpKind::Bcast,
            library: Library::OmpiAdapt,
            msg_bytes: 256 * 1024,
        }
        .spec()
    };
    let data = execute(&spec).unwrap().obs.unwrap();
    let revokes: Vec<_> = data
        .dispatches
        .iter()
        .filter(|d| matches!(d.trigger, Trigger::PeerFailed { .. }))
        .collect();
    assert!(
        !revokes.is_empty(),
        "the detector fired before the run ended"
    );
    let detected = revokes[0].begin_ns;
    let mut handled: Vec<u32> = revokes.iter().map(|d| d.rank).collect();
    handled.sort_unstable();
    let running: Vec<u32> = (0..32)
        .filter(|&r| data.per_rank_finish_ns[r as usize] > detected)
        .collect();
    assert_eq!(handled, running, "one revoke handler per running survivor");
    for d in &revokes {
        assert_eq!(d.begin_ns, detected);
        assert_eq!(d.trigger, Trigger::PeerFailed { rank: 4 });
    }

    validate_recording(&data).expect("a kill run's recording is causally complete");
    validate_chrome(&chrome_trace(&data)).expect("the trace validates");
    assert_eq!(
        events_csv(&data).matches(",peer_failed,4,0").count(),
        revokes.len()
    );
    let round = from_json(&to_json(&data)).unwrap();
    assert_eq!(to_json(&round), to_json(&data), "peer_failed round-trips");
    let cp = critical_path(&data);
    assert_eq!(cp.segments.first().map(|s| s.begin_ns), Some(0));
    assert!(cp.segments.windows(2).all(|w| w[0].end_ns == w[1].begin_ns));
    assert_eq!(cp.total_ns(), data.makespan_ns(), "the path tiles the run");
    let noop = rerun(&spec, Intervention::Noop);
    assert!(diff_runs(&data, &noop)
        .render()
        .contains("(0 ns unexplained)"));
}
