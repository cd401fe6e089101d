//! Command-line input errors: every malformed invocation of `adapt-cli`
//! exits 2 with a one-line reason plus the usage on stderr, runs nothing,
//! and never panics. A valid invocation still runs and exits 0, and every
//! flag composes with every other on CPU and GPU placements alike.

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
        &["--machine", "psg", "--gpu", "--lib", "cray"],
        "unknown GPU library `cray`",
    );
    assert_usage_error(&["--machine", "psg", "--gpu", "--op", "scan"], "not `scan`");
}

#[test]
fn incompatible_gpu_flags_are_rejected() {
    // The only GPU refusal left: there is nothing to place ranks on. Every
    // attachment composes with GPU placement (see the cross product).
    assert_usage_error(&mini(&["--gpu"]), "--gpu needs a machine with GPUs");
}

#[test]
fn full_and_streaming_recorders_are_exclusive() {
    for full in [
        &["--trace", "t.csv"][..],
        &["--trace-out", "t.json"],
        &["--obs-out", "r.json"],
        &["--whatif", "noop"],
    ] {
        for streaming in [&["--summary-out", "s.json"][..], &["--flight", "16"]] {
            let extra: Vec<&str> = full.iter().chain(streaming).copied().collect();
            assert_usage_error(&mini(&extra), "pick one side");
        }
    }
}

#[test]
fn alltoall_rejects_a_size_that_rounds_to_nothing() {
    // 16 ranks: 7 bytes is less than one byte per rank.
    assert_usage_error(
        &[
            "--machine",
            "mini",
            "--nodes",
            "1",
            "--op",
            "alltoall",
            "--msg",
            "7",
        ],
        "alltoall needs at least one byte per rank",
    );
    // 40 bytes rounds down to 32, and the header says so.
    let out = cli(&[
        "--machine",
        "mini",
        "--nodes",
        "1",
        "--op",
        "alltoall",
        "--msg",
        "40",
    ]);
    let stdout = String::from_utf8_lossy(&out.stdout);
    assert_eq!(out.status.code(), Some(0));
    assert!(stdout.contains("on 16 ranks, 32 bytes"), "{stdout}");
}

#[test]
fn describe_prints_the_topology_and_runs_nothing() {
    for machine in [&["--machine", "psg", "--nodes", "1"][..], &MINI] {
        let args: Vec<&str> = machine.iter().chain(&["--describe"]).copied().collect();
        let out = cli(&args);
        let stdout = String::from_utf8_lossy(&out.stdout);
        assert_eq!(out.status.code(), Some(0), "{args:?}");
        assert!(
            !stdout.contains("audit"),
            "{args:?} ran a collective:\n{stdout}"
        );
        assert!(!stdout.is_empty(), "{args:?} printed no topology");
    }
}

#[test]
fn psg_places_ranks_on_cores_unless_gpu_is_given() {
    let psg = ["--machine", "psg", "--nodes", "1", "--msg", "65536"];
    let cpu = cli(&psg);
    let gpu = cli(&psg.iter().chain(&["--gpu"]).copied().collect::<Vec<_>>());
    let (cpu, gpu) = (
        String::from_utf8_lossy(&cpu.stdout),
        String::from_utf8_lossy(&gpu.stdout),
    );
    assert!(cpu.contains("on 20 ranks,"), "{cpu}");
    assert!(gpu.contains("on 4 GPUs,"), "{gpu}");
}

/// A fresh scratch directory under the build's temp area.
fn scratch(name: &str) -> std::path::PathBuf {
    let dir = std::path::PathBuf::from(env!("CARGO_TARGET_TMPDIR")).join(name);
    let _ = std::fs::remove_dir_all(&dir);
    std::fs::create_dir_all(&dir).unwrap();
    dir
}

#[test]
fn every_feature_composes_on_cpu_and_gpu() {
    let placements: [(&str, &[&str]); 2] = [
        (
            "mini",
            &["--machine", "mini", "--nodes", "2", "--msg", "262144"],
        ),
        (
            "gpu",
            &[
                "--machine",
                "psg",
                "--nodes",
                "2",
                "--gpu",
                "--msg",
                "1048576",
            ],
        ),
    ];
    // (name, flags, files the run must write)
    let features: [(&str, &[&str], &[&str]); 5] = [
        ("plain", &[], &[]),
        ("lossy", &["--faults", "loss=0.01,rto=80us"], &[]),
        (
            "monitor",
            &["--monitor", "10000", "--health-out", "health.json"],
            &["health.json"],
        ),
        (
            "recorded",
            &[
                "--obs-out",
                "rec.json",
                "--trace",
                "events.csv",
                "--whatif",
                "noop",
            ],
            &["rec.json", "events.csv"],
        ),
        (
            "summary",
            &["--summary-out", "summary.json"],
            &["summary.json"],
        ),
    ];
    for (pname, placement) in placements {
        for (fname, flags, files) in features {
            let dir = scratch(&format!("compose-{pname}-{fname}"));
            let out = Command::new(env!("CARGO_BIN_EXE_adapt-cli"))
                .args(placement.iter().chain(flags))
                .current_dir(&dir)
                .output()
                .expect("spawn adapt-cli");
            let stdout = String::from_utf8_lossy(&out.stdout);
            let what = format!("{pname} x {fname}");
            assert_eq!(
                out.status.code(),
                Some(0),
                "{what}: stderr:\n{}",
                String::from_utf8_lossy(&out.stderr)
            );
            assert!(stdout.contains("audit: clean"), "{what}:\n{stdout}");
            for file in files {
                let meta = std::fs::metadata(dir.join(file))
                    .unwrap_or_else(|e| panic!("{what}: {file} not written: {e}"));
                assert!(meta.len() > 0, "{what}: {file} is empty");
            }
            if fname == "lossy" {
                assert!(stdout.contains("recovery: drops="), "{what}:\n{stdout}");
            }
            if fname == "recorded" {
                let noop = stdout
                    .lines()
                    .find(|l| l.starts_with("whatif no-op"))
                    .unwrap_or_else(|| panic!("{what}: no what-if line:\n{stdout}"));
                assert!(noop.contains("delta +0 ns"), "{what}: {noop}");
                assert!(stdout.contains("(0 ns unexplained)"), "{what}:\n{stdout}");
            }
        }
    }
}

#[test]
fn bad_interventions_exit_2() {
    assert_usage_error(
        &mini(&["--whatif", "scale-layer=blocked:0.5"]),
        "cannot be scaled",
    );
    assert_usage_error(
        &mini(&["--whatif", "speedup=network:100"]),
        "infinitely fast",
    );
    assert_usage_error(
        &mini(&["--whatif", "rank-noise-off=32"]),
        "the job has 32 ranks",
    );
    // A link pattern is only known to match nothing once the world is
    // built: the baseline runs, the re-run is refused with exit 2.
    let out = cli(&mini(&["--whatif", "scale-link=NoSuch:2"]));
    let stderr = String::from_utf8_lossy(&out.stderr);
    assert_eq!(out.status.code(), Some(2), "stderr:\n{stderr}");
    assert!(
        stderr.contains("no link label starts with \"NoSuch\""),
        "{stderr}"
    );
    assert!(!stderr.contains("panicked"), "{stderr}");
}

#[test]
fn whatif_reruns_compose_with_every_fault_plan() {
    let placements: [(&str, &[&str], &str); 2] = [
        (
            "mini",
            &["--machine", "mini", "--nodes", "2", "--msg", "262144"],
            "kill=4:5us,rto=5us",
        ),
        // The GPU pipeline does not repair around a dead rank (exit 4),
        // so its kill lands after the collective completed.
        (
            "gpu",
            &[
                "--machine",
                "psg",
                "--nodes",
                "2",
                "--gpu",
                "--msg",
                "1048576",
            ],
            "kill=7:1ms",
        ),
    ];
    for (pname, placement, kill) in placements {
        for plan in [
            "loss=0.01,rto=80us",
            "degrade=0.5:0us-50us",
            "stall=3:0us-40us",
            kill,
        ] {
            let out = Command::new(env!("CARGO_BIN_EXE_adapt-cli"))
                .args(placement)
                .args(["--seed", "7", "--faults", plan])
                .args(["--whatif", "noop,noise-off,stalls-off"])
                .output()
                .expect("spawn adapt-cli");
            let stdout = String::from_utf8_lossy(&out.stdout);
            let what = format!("{pname} x {plan}");
            assert_eq!(
                out.status.code(),
                Some(0),
                "{what}: stderr:\n{}",
                String::from_utf8_lossy(&out.stderr)
            );
            assert!(!stdout.contains("refused"), "{what}:\n{stdout}");
            assert_eq!(
                stdout.matches("(0 ns unexplained)").count(),
                3,
                "{what}: one fully attributed diff per intervention:\n{stdout}"
            );
            let noop = stdout
                .lines()
                .find(|l| l.starts_with("whatif no-op"))
                .unwrap_or_else(|| panic!("{what}: no what-if line:\n{stdout}"));
            assert!(noop.contains("delta +0 ns"), "{what}: {noop}");
        }
    }
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
