//! Error-path coverage for the `obs-validate` binary: exit codes and
//! diagnostics for missing, malformed, and truncated artifacts. The
//! happy paths are exercised end-to-end by CI's obs-smoke job; these
//! tests pin the failure contract CI relies on (nonzero exit + an
//! `INVALID` line naming the file).

use std::process::Command;

fn run(args: &[&str]) -> (i32, String, String) {
    let out = Command::new(env!("CARGO_BIN_EXE_obs-validate"))
        .args(args)
        .output()
        .expect("spawn obs-validate");
    (
        out.status.code().unwrap_or(-1),
        String::from_utf8_lossy(&out.stdout).into_owned(),
        String::from_utf8_lossy(&out.stderr).into_owned(),
    )
}

fn write_tmp(name: &str, content: &str) -> std::path::PathBuf {
    let dir = std::env::temp_dir().join(format!("obs-validate-cli-{}", std::process::id()));
    std::fs::create_dir_all(&dir).unwrap();
    let path = dir.join(name);
    std::fs::write(&path, content).unwrap();
    path
}

#[test]
fn no_arguments_is_a_usage_error() {
    let (code, _, err) = run(&[]);
    assert_eq!(code, 2, "usage errors exit 2");
    assert!(err.contains("usage:"), "{err}");
}

#[test]
fn unreadable_file_fails_with_the_path_in_the_message() {
    let (code, _, err) = run(&["/nonexistent/no-such-artifact.json"]);
    assert_eq!(code, 1);
    assert!(err.contains("cannot read /nonexistent/no-such-artifact.json"));
}

#[test]
fn malformed_artifacts_fail_with_an_invalid_line() {
    // Sniffed as a Chrome trace, fails the parse.
    let p = write_tmp("garbage.json", "{\"traceEvents\": [ {\"name\": ");
    let (code, _, err) = run(&[p.to_str().unwrap()]);
    assert_eq!(code, 1);
    assert!(
        err.contains("INVALID") && err.contains("garbage.json"),
        "{err}"
    );

    // Sniffed as a summary by its format tag, fails validation.
    let p = write_tmp(
        "bad-summary.json",
        "{\"format\": \"adapt-obs-summary-v1\", \"nranks\": 2}",
    );
    let (code, _, err) = run(&[p.to_str().unwrap()]);
    assert_eq!(code, 1);
    assert!(err.contains("INVALID"), "{err}");

    // Sniffed as a health artifact, fails validation.
    let p = write_tmp(
        "bad-health.json",
        "{\"format\": \"adapt-obs-health-v1\", \"interval_ns\": 0}",
    );
    let (code, _, err) = run(&[p.to_str().unwrap()]);
    assert_eq!(code, 1);
    assert!(err.contains("INVALID") && err.contains("positive"), "{err}");
}

#[test]
fn truncated_health_artifact_fails_cleanly() {
    let good = concat!(
        "{\"format\": \"adapt-obs-health-v1\",\n\"interval_ns\": 1000,\n\"nranks\": 2,\n",
        "\"nlinks\": 1,\n\"snapshots\": 3,\n\"last_t_ns\": 3000,\n",
        "\"counts\": {\"straggler\": 0, \"hot_link\": 0, \"retransmit_storm\": 0, ",
        "\"progress_flatline\": 0},\n\"alerts\": [],\n\"dropped_alerts\": 0\n}\n"
    );
    let p = write_tmp("good-health.json", good);
    let (code, out, _) = run(&[p.to_str().unwrap()]);
    assert_eq!(code, 0, "the untampered artifact validates");
    assert!(out.contains("OK") && out.contains("3 snapshots"), "{out}");

    // Cut mid-document: a parse error, not a panic, and exit 1.
    let p = write_tmp("truncated-health.json", &good[..good.len() / 2]);
    let (code, _, err) = run(&[p.to_str().unwrap()]);
    assert_eq!(code, 1);
    assert!(err.contains("INVALID"), "{err}");
}

#[test]
fn first_invalid_artifact_stops_the_line() {
    let good = write_tmp("ok-trace.json", "{\"traceEvents\": []}");
    let bad = write_tmp("bad-trace.json", "{\"traceEvents\": [17]}");
    let also_good = write_tmp("ok-trace-2.json", "{\"traceEvents\": []}");
    let (code, out, err) = run(&[
        good.to_str().unwrap(),
        bad.to_str().unwrap(),
        also_good.to_str().unwrap(),
    ]);
    assert_eq!(code, 1);
    assert!(out.contains("ok-trace.json: OK"), "{out}");
    assert!(err.contains("bad-trace.json: INVALID"), "{err}");
    assert!(
        !out.contains("ok-trace-2.json"),
        "stops at the first failure"
    );
}

#[test]
fn recordings_are_checked_for_causal_completeness() {
    let golden = std::path::Path::new(env!("CARGO_MANIFEST_DIR"))
        .join("../../tests/golden/whatif/bcast_mini32_256k_adapt.json");
    let (code, out, err) = run(&[golden.to_str().unwrap()]);
    assert_eq!(code, 0, "{err}");
    assert!(
        out.contains("OK") && out.contains("causally complete"),
        "{out}"
    );

    // Drop the first rendezvous payload: the dispatch it completed loses
    // its cause.
    let mut data = adapt_obs::from_json(&std::fs::read_to_string(&golden).unwrap()).unwrap();
    let fi = data
        .flows
        .iter()
        .position(|f| f.class == adapt_obs::FlowClass::Rndv)
        .expect("a rendezvous payload");
    let m = data.flows.remove(fi).msg.unwrap();
    let p = write_tmp("tampered-recording.json", &adapt_obs::to_json(&data));
    let (code, _, err) = run(&[p.to_str().unwrap()]);
    assert_eq!(code, 1);
    assert!(
        err.contains("INVALID") && err.contains("dispatch") && err.contains(&format!("m{m}")),
        "{err}"
    );
}
