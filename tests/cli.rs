//! Command-line input errors: every malformed invocation of `adapt-cli`
//! exits 2 with a one-line reason plus the usage on stderr, runs nothing,
//! and never panics. A valid invocation still runs and exits 0.

use std::process::{Command, Output};

/// Run the CLI with `extra` as its arguments.
fn cli(extra: &[&str]) -> Output {
    Command::new(env!("CARGO_BIN_EXE_adapt-cli"))
        .args(extra)
        .output()
        .expect("spawn adapt-cli")
}

/// Assert a usage error whose reason line contains `reason`.
fn assert_usage_error(extra: &[&str], reason: &str) {
    let out = cli(extra);
    let stderr = String::from_utf8_lossy(&out.stderr);
    assert_eq!(out.status.code(), Some(2), "{extra:?}: stderr:\n{stderr}");
    let first = stderr.lines().next().unwrap_or_default();
    assert!(
        first.starts_with("adapt-cli: ") && first.contains(reason),
        "{extra:?}: reason line {first:?} should mention {reason:?}"
    );
    assert!(stderr.contains("usage: adapt-cli"), "{extra:?}: no usage");
    assert!(!stderr.contains("panicked"), "{extra:?}: panicked");
    assert!(out.stdout.is_empty(), "{extra:?}: ran something");
}

const MINI: [&str; 4] = ["--machine", "mini", "--nodes", "2"];

fn mini(extra: &[&'static str]) -> Vec<&'static str> {
    MINI.iter().chain(extra).copied().collect()
}

#[test]
fn unknown_flags_are_rejected() {
    assert_usage_error(&mini(&["--mesg", "1"]), "unknown flag `--mesg`");
    // A single run has no thread option; `--threads` belongs to the
    // bench harness and must be refused here, not swallowed.
    assert_usage_error(&mini(&["--threads", "4"]), "unknown flag `--threads`");
    assert_usage_error(&mini(&["stray"]), "unexpected argument `stray`");
}

#[test]
fn missing_and_malformed_values_are_rejected() {
    assert_usage_error(&mini(&["--msg"]), "`--msg` needs a value");
    assert_usage_error(&mini(&["--msg", "--noise", "5"]), "`--msg` needs a value");
    assert_usage_error(&mini(&["--msg", "abc"]), "--msg `abc`");
    assert_usage_error(&mini(&["--seed", "-1"]), "--seed `-1`");
    assert_usage_error(&mini(&["--noise", "100"]), "--noise 100");
    assert_usage_error(&mini(&["--msg", "1", "--msg", "2"]), "given twice");
    assert_usage_error(&["--nodes", "0"], "--nodes must be at least 1");
}

#[test]
fn unknown_names_are_rejected() {
    assert_usage_error(&mini(&["--lib", "nope"]), "unknown library `nope`");
    assert_usage_error(
        &mini(&["--op", "allreduce", "--lib", "nope"]),
        "unknown library `nope`",
    );
    assert_usage_error(&mini(&["--op", "nope"]), "unknown op `nope`");
    assert_usage_error(&["--machine", "nope"], "unknown machine `nope`");
    assert_usage_error(
        &["--machine", "psg", "--lib", "cray"],
        "unknown GPU library `cray`",
    );
    assert_usage_error(&["--machine", "psg", "--op", "scan"], "not `scan`");
}

#[test]
fn incompatible_gpu_flags_are_rejected() {
    assert_usage_error(&mini(&["--gpu"]), "--gpu needs a machine with GPUs");
    let psg = |extra: &[&'static str]| {
        ["--machine", "psg", "--nodes", "2", "--gpu"]
            .iter()
            .chain(extra)
            .copied()
            .collect::<Vec<_>>()
    };
    assert_usage_error(&psg(&["--faults", "loss=0.01"]), "run on the CPU path");
    assert_usage_error(&psg(&["--obs-out", "x.json"]), "run on the CPU path");
    assert_usage_error(&psg(&["--monitor", "10000"]), "CPU event loop");
}

#[test]
fn a_valid_run_exits_zero() {
    let out = cli(&mini(&["--op", "bcast", "--msg", "65536"]));
    let stdout = String::from_utf8_lossy(&out.stdout);
    assert_eq!(
        out.status.code(),
        Some(0),
        "stderr:\n{}",
        String::from_utf8_lossy(&out.stderr)
    );
    assert!(stdout.contains("bcast (OMPI-adapt) on 32 ranks, 65536 bytes"));
    assert!(stdout.contains("audit: clean"));
}
