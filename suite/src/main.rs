//! `suite`: the repository benchmark. Four seeded closed-loop workloads
//! run through the simulator's public APIs; every output is checked and
//! every metric printed by name and unit. See README.md.
//!
//! ```text
//! suite [--workload NAME] [--seed N] [--seconds S] [--trace 0|1] [--ops N]
//! suite compare PARENT.out... -- CANDIDATE.out...
//! ```
//!
//! With `--workload` the last line of stdout is one JSON object with the
//! keys `correct`, `attempted`, `failed` and `metrics`. Without it the
//! four workloads run one after another, each in a child process so that
//! its peak RSS is its own.

mod compare;
mod gen;
mod run;
mod stats;
mod trace;
mod workload;

use gen::Workload;
use std::process::{Command, ExitCode};
use workload::{Budget, Report};

const USAGE: &str =
    "usage: suite [--workload NAME] [--seed N] [--seconds S] [--trace 0|1] [--ops N]
       suite compare PARENT.out... -- CANDIDATE.out...
workloads: bcast_pipeline allreduce_noisy library_mix bcast_observed_lossy";

struct Cli {
    workload: Option<Workload>,
    seed: u64,
    budget: Budget,
    traced: bool,
}

fn parse(args: &[String]) -> Result<Cli, String> {
    let mut cli = Cli {
        workload: None,
        seed: 2018,
        budget: Budget::Seconds(20.0),
        traced: false,
    };
    let mut ops = None;
    let mut it = args.iter();
    while let Some(flag) = it.next() {
        let mut value = || it.next().ok_or(format!("{flag} needs a value"));
        match flag.as_str() {
            "--workload" => {
                let v = value()?;
                cli.workload =
                    Some(Workload::from_name(v).ok_or(format!("unknown workload {v:?}"))?);
            }
            "--seed" => cli.seed = value()?.parse().map_err(|e| format!("--seed: {e}"))?,
            "--seconds" => {
                let s: f64 = value()?.parse().map_err(|e| format!("--seconds: {e}"))?;
                if !(s.is_finite() && s >= 0.0) {
                    return Err("--seconds must be a non-negative number".into());
                }
                cli.budget = Budget::Seconds(s);
            }
            "--trace" => {
                cli.traced = match value()?.as_str() {
                    "0" => false,
                    "1" => true,
                    v => return Err(format!("--trace takes 0 or 1, not {v:?}")),
                }
            }
            "--ops" => {
                let n: usize = value()?.parse().map_err(|e| format!("--ops: {e}"))?;
                if n == 0 {
                    return Err("--ops must be at least 1".into());
                }
                ops = Some(n);
            }
            other => return Err(format!("unknown argument {other:?}")),
        }
    }
    if let Some(n) = ops {
        cli.budget = Budget::Ops(n);
    }
    Ok(cli)
}

fn json_number(v: Option<f64>) -> String {
    match v {
        Some(v) if v.is_finite() => format!("{v}"),
        _ => "null".into(),
    }
}

/// The machine-readable result line.
fn result_json(r: &Report) -> String {
    let metrics: Vec<String> = r
        .metrics
        .iter()
        .map(|(m, v)| {
            format!(
                "\"{}\": {{\"value\": {}, \"unit\": \"{}\"}}",
                m.name,
                json_number(*v),
                m.unit
            )
        })
        .collect();
    format!(
        "{{\"correct\": {}, \"attempted\": {}, \"failed\": {}, \"metrics\": {{{}}}}}",
        r.failures.is_empty(),
        r.attempted,
        r.failures.len(),
        metrics.join(", ")
    )
}

fn run_one(workload: Workload, cli: &Cli) -> ExitCode {
    let r = workload::run(workload, cli.seed, cli.budget, cli.traced);
    println!(
        "# suite workload={} seed={} trace={} rounds={} ops_per_round={} samples={} sim_digest={:016x}",
        workload.name(),
        cli.seed,
        cli.traced as u8,
        r.rounds,
        r.samples / r.rounds.max(1),
        r.samples,
        r.sim_digest
    );
    for (m, v) in &r.metrics {
        let shown = v.map_or("refused (too few samples)".into(), |v| format!("{v:.6}"));
        println!(
            "#   {:<36} {shown} {} ({} is better)",
            m.name, m.unit, m.better
        );
    }
    for f in &r.failures {
        eprintln!("suite: FAILED {f}");
    }
    println!("{}", result_json(&r));
    if r.failures.is_empty() {
        ExitCode::SUCCESS
    } else {
        ExitCode::FAILURE
    }
}

/// Every workload, each in a child process of this binary.
fn run_all(args: &[String]) -> ExitCode {
    let exe = match std::env::current_exe() {
        Ok(exe) => exe,
        Err(e) => {
            eprintln!("suite: cannot locate own executable: {e}");
            return ExitCode::FAILURE;
        }
    };
    let mut ok = true;
    for w in Workload::ALL {
        let out = Command::new(&exe)
            .args(args)
            .args(["--workload", w.name()])
            .stderr(std::process::Stdio::inherit())
            .output();
        match out {
            Ok(out) => {
                print!("{}", String::from_utf8_lossy(&out.stdout));
                ok &= out.status.success();
            }
            Err(e) => {
                eprintln!("suite: cannot run {}: {e}", w.name());
                ok = false;
            }
        }
    }
    if ok {
        ExitCode::SUCCESS
    } else {
        ExitCode::FAILURE
    }
}

fn main() -> ExitCode {
    let args: Vec<String> = std::env::args().skip(1).collect();
    if args.first().map(String::as_str) == Some("compare") {
        return compare::main(&args[1..]);
    }
    let cli = match parse(&args) {
        Ok(cli) => cli,
        Err(e) => {
            eprintln!("suite: {e}\n{USAGE}");
            return ExitCode::from(2);
        }
    };
    match cli.workload {
        Some(w) => run_one(w, &cli),
        None => run_all(&args),
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use adapt_obs::{parse_json, Json};
    use workload::{Metric, END_TO_END, PER_LAYER};

    fn list<'a>(doc: &'a Json, key: &str) -> &'a [Json] {
        match doc.get(key) {
            Some(Json::Arr(v)) => v,
            _ => panic!("BENCHMARK.json has no {key} list"),
        }
    }

    fn text<'a>(m: &'a Json, key: &str) -> &'a str {
        match m.get(key) {
            Some(Json::Str(s)) => s,
            _ => panic!("entry without {key}"),
        }
    }

    fn check(listed: &[Json], table: &[Metric]) {
        assert_eq!(listed.len(), table.len());
        for (j, m) in listed.iter().zip(table) {
            assert_eq!(text(j, "name"), m.name);
            assert_eq!(text(j, "unit"), m.unit);
            assert_eq!(text(j, "better"), m.better);
        }
    }

    #[test]
    fn benchmark_json_declares_what_the_suite_prints() {
        let path = concat!(env!("CARGO_MANIFEST_DIR"), "/../BENCHMARK.json");
        let doc = parse_json(&std::fs::read_to_string(path).expect("BENCHMARK.json"))
            .expect("valid JSON");
        check(list(&doc, "end_to_end"), &END_TO_END);
        check(list(&doc, "per_layer"), &PER_LAYER);
        let workloads: Vec<&str> = list(&doc, "workloads")
            .iter()
            .map(|w| text(w, "name"))
            .collect();
        let ours: Vec<&str> = Workload::ALL.iter().map(|w| w.name()).collect();
        assert_eq!(workloads, ours);
    }

    #[test]
    fn cli_rejects_bad_input() {
        let args = |v: &[&str]| v.iter().map(|s| s.to_string()).collect::<Vec<_>>();
        assert!(parse(&args(&["--workload", "nope"])).is_err());
        assert!(parse(&args(&["--trace", "2"])).is_err());
        assert!(parse(&args(&["--seconds", "-1"])).is_err());
        assert!(parse(&args(&["--ops", "0"])).is_err());
        assert!(parse(&args(&["--seed"])).is_err());
        assert!(parse(&args(&["--frobnicate"])).is_err());
        let cli = parse(&args(&[
            "--workload",
            "library_mix",
            "--seed",
            "7",
            "--trace",
            "1",
        ]))
        .expect("valid");
        assert_eq!(cli.workload, Some(Workload::LibraryMix));
        assert_eq!(cli.seed, 7);
        assert!(cli.traced);
    }
}
