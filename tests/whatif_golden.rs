//! Golden recordings for the run diff and the CI regression gate.
//!
//! Two pinned `adapt-obs-v1` recordings of the mini scenario the CI
//! gate diffs against — the same configuration `adapt-cli --machine mini
//! --nodes 2 --msg 262144 --seed 42 --obs-out ...` exports, for the
//! ADAPT and OMPI-default libraries. The fixtures must stay
//! byte-identical to a fresh recording (full determinism), causally
//! complete, and diff-clean against a fresh run (the `--gate` check CI
//! applies).
//!
//! Regenerate (only when a behaviour change is intended and reviewed):
//!
//! ```text
//! GOLDEN_REGEN=1 cargo test --test whatif_golden
//! ```

use adapt::collectives::{execute, CollectiveCase, Library, OpKind, Recording, RunSpec};
use adapt::obs::{diff_runs, from_json, to_json, validate_recording};
use adapt::prelude::*;
use std::path::PathBuf;

fn golden_dir() -> PathBuf {
    PathBuf::from(env!("CARGO_MANIFEST_DIR")).join("tests/golden/whatif")
}

/// The CI gate scenario: `--machine mini --nodes 2` (32 ranks),
/// 256 KiB broadcast, quiet, seed 42, PerNode scope — exactly what
/// `adapt-cli` records for the fresh side of the gate diff.
fn gate_case(library: Library) -> CollectiveCase {
    CollectiveCase {
        machine: profiles::minicluster(2, 2, 8),
        nranks: 32,
        op: OpKind::Bcast,
        library,
        msg_bytes: 256 * 1024,
    }
}

fn check(name: &str, got: &str) -> String {
    let path = golden_dir().join(name);
    if std::env::var_os("GOLDEN_REGEN").is_some() {
        std::fs::create_dir_all(golden_dir()).unwrap();
        std::fs::write(&path, got).unwrap();
        return got.to_string();
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
        "golden recording diverged from {} — a behaviour change moved the \
         simulation; if intentional, regenerate with GOLDEN_REGEN=1",
        path.display()
    );
    want
}

/// A full recording of a quiet run of `case`.
fn record(case: &CollectiveCase) -> adapt::obs::ObsData {
    execute(&RunSpec {
        recorder: Recording::Full {
            metrics_interval_ns: None,
        },
        ..case.spec()
    })
    .unwrap()
    .obs
    .expect("recorder attached")
}

#[test]
fn golden_recordings_stay_byte_identical_and_gate_clean() {
    for (name, library) in [
        ("bcast_mini32_256k_adapt.json", Library::OmpiAdapt),
        ("bcast_mini32_256k_default.json", Library::OmpiDefault),
    ] {
        let case = gate_case(library);
        let fresh = record(&case);
        let committed = from_json(&check(name, &to_json(&fresh))).unwrap();
        validate_recording(&committed).unwrap();
        // The CI gate: a fresh run of the same configuration must not
        // regress against the committed baseline — today it is exactly 0.
        let d = diff_runs(&committed, &fresh);
        assert_eq!(d.delta_ns(), 0, "{name}: fresh run drifted");
        assert!(d.regression_pct() <= 5.0);
    }
}

#[test]
fn golden_gap_attribution_between_libraries() {
    let load = |name: &str| {
        let case = gate_case(if name.contains("adapt") {
            Library::OmpiAdapt
        } else {
            Library::OmpiDefault
        });
        record(&case)
    };
    let adapt = load("adapt");
    let default = load("default");
    let d = diff_runs(&default, &adapt);
    // The walkthrough's claim: the diff attributes the whole gap.
    assert_eq!(d.attributed_ns(), d.delta_ns());
    assert_eq!(
        d.delta_ns(),
        adapt.makespan_ns() as i64 - default.makespan_ns() as i64
    );
}
