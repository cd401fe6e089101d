//! What-if engine acceptance tests: counterfactual predictions validated
//! against ground-truth re-runs of the real simulator.
//!
//! The exactness ladder, weakest to strongest:
//! 1. a no-op intervention predicts the recording **bit-exactly**
//!    (per-rank finish times, not just the makespan);
//! 2. "disable noise" predicted from a *noisy* recording matches an
//!    actual `--noise 0` re-run bit-exactly;
//! 3. link rescales predicted from a quiet recording match the rescaled
//!    re-run bit-exactly on the mini scenario (no matching race flips);
//! 4. `diff(a, a)` is all-zero and diff attribution always covers 100%
//!    of the makespan delta.

use adapt::collectives::{
    execute, CollectiveCase, Library, Noise, NoiseScope, OpKind, Recording, RunSpec,
};
use adapt::obs::{diff_runs, from_json, predict, to_json, Intervention, ObsData};
use adapt::prelude::*;

/// Mini machine, 8 ranks, eager+rendezvous mix: small enough that the
/// full predict→replay→compare cycle runs in milliseconds.
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
        recorder: Recording::Full {
            metrics_interval_ns: None,
        },
        ..case.spec()
    }
}

/// The real-configuration re-run of `spec` under `iv`.
fn rerun(spec: &RunSpec, iv: &Intervention) -> adapt::mpi::RunResult {
    execute(&RunSpec {
        intervention: Some(iv.clone()),
        ..spec.clone()
    })
    .unwrap()
}

fn record(case: &CollectiveCase, noise: f64, seed: u64) -> ObsData {
    execute(&recorded(case, NoiseScope::PerNode, noise, seed))
        .unwrap()
        .obs
        .expect("recorder attached")
}

#[test]
fn noop_prediction_is_bit_exact_quiet() {
    let data = record(&mini_case(256 * 1024), 0.0, 1);
    let p = predict(&data, &Intervention::Noop).unwrap();
    assert_eq!(p.per_rank_finish_ns, data.per_rank_finish_ns);
    assert_eq!(p.predicted_ns, p.baseline_ns);
    assert_eq!(p.delta_ns(), 0);
}

/// Noise windows arrive on a 100 ms period; seed 1032 is one whose phase
/// lands windows inside this mini run (95 µs quiet → ~11.7 ms noisy), so
/// the noisy predictions below exercise real preemption stretching — and
/// one where the stretching does not reorder any program decision, the
/// precondition for bit-exact cross-configuration prediction (the
/// documented exactness contract in `obs::whatif`).
const NOISY_SEED: u64 = 1032;

fn record_noisy(case: &CollectiveCase) -> ObsData {
    execute(&recorded(case, NoiseScope::AllRanks, 10.0, NOISY_SEED))
        .unwrap()
        .obs
        .expect("recorder attached")
}

#[test]
fn noop_prediction_is_bit_exact_noisy() {
    let data = record_noisy(&mini_case(256 * 1024));
    assert!(
        data.noise_windows.iter().any(|w| !w.is_empty()),
        "scenario must record noise windows"
    );
    let p = predict(&data, &Intervention::Noop).unwrap();
    assert_eq!(p.per_rank_finish_ns, data.per_rank_finish_ns);
    assert_eq!(p.predicted_ns, p.baseline_ns);
}

#[test]
fn noop_prediction_is_bit_exact_for_reduce() {
    let case = CollectiveCase {
        op: OpKind::Reduce,
        ..mini_case(128 * 1024)
    };
    let data = record(&case, 5.0, 7);
    let p = predict(&data, &Intervention::Noop).unwrap();
    assert_eq!(p.per_rank_finish_ns, data.per_rank_finish_ns);
}

/// `adapt-cli --machine stampede2 --nodes 1 --op reduce --lib intel
/// --msg 65536`: several of the hierarchical reduce's ranks have
/// completions parked behind busy CPUs at the same instant, so the
/// order in which their wakes fire decides who finishes first. A replay
/// that re-queued each parked item instead of banding it like the
/// simulator predicts ranks 4 and 12 with their finish times swapped.
#[test]
fn noop_prediction_is_bit_exact_across_parked_band_ties() {
    let machine = profiles::stampede2(1);
    let case = CollectiveCase {
        nranks: machine.cpu_job_size(),
        machine,
        op: OpKind::Reduce,
        library: Library::IntelMpi,
        msg_bytes: 65536,
    };
    let data = record(&case, 0.0, 1);
    let p = predict(&data, &Intervention::Noop).unwrap();
    assert_eq!(p.per_rank_finish_ns, data.per_rank_finish_ns);
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
    let p = predict(&noisy, &Intervention::NoiseOff).unwrap();
    assert_eq!(
        p.per_rank_finish_ns, quiet.per_rank_finish_ns,
        "predicted quiet schedule must equal the real quiet run"
    );
    assert_eq!(p.predicted_ns, quiet.makespan_ns());
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
        .expect("some rank was preempted") as u32;
    let iv = Intervention::RankNoiseOff(victim);
    let p = predict(&noisy, &iv).unwrap();
    let actual = rerun(
        &recorded(&case, NoiseScope::AllRanks, 10.0, NOISY_SEED),
        &iv,
    );
    let actual_data = actual.obs.expect("recorder attached");
    assert_eq!(p.per_rank_finish_ns, actual_data.per_rank_finish_ns);
}

#[test]
fn link_scale_prediction_matches_real_rerun() {
    let case = mini_case(256 * 1024);
    let data = record(&case, 0.0, 3);
    for (pattern, factor) in [("NicTx", 2.0), ("Shm", 1.5), ("InterSocket", 0.5)] {
        let iv = Intervention::ScaleLink {
            pattern: pattern.into(),
            factor,
        };
        let p = predict(&data, &iv).unwrap();
        let actual = rerun(&recorded(&case, NoiseScope::PerNode, 0.0, 3), &iv);
        let actual_ns = actual.makespan.as_nanos();
        assert_eq!(
            p.predicted_ns, actual_ns,
            "{pattern} x{factor}: predicted {} vs actual {actual_ns}",
            p.predicted_ns
        );
    }
}

#[test]
fn speedup_predictions_brake_and_accelerate_sanely() {
    let data = record(&mini_case(512 * 1024), 0.0, 5);
    let base = data.makespan_ns();
    // Faster NICs must not slow the run; slower must not speed it.
    let fast = predict(
        &data,
        &Intervention::ScaleLink {
            pattern: "NicTx".into(),
            factor: 4.0,
        },
    )
    .unwrap();
    let slow = predict(
        &data,
        &Intervention::ScaleLink {
            pattern: "NicTx".into(),
            factor: 0.25,
        },
    )
    .unwrap();
    assert!(fast.predicted_ns <= base, "{} > {base}", fast.predicted_ns);
    assert!(slow.predicted_ns >= base, "{} < {base}", slow.predicted_ns);
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
    // The replay of the round-tripped recording is still bit-exact.
    let p = predict(&back, &Intervention::Noop).unwrap();
    assert_eq!(p.per_rank_finish_ns, data.per_rank_finish_ns);
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
