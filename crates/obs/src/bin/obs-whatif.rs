//! Run differencing over exported `adapt-obs-v1` recordings.
//!
//! Usage:
//!   obs-whatif diff <a.json> <b.json> [--json] [--gate PCT]
//!
//! `diff --gate PCT` exits 1 when run B's makespan regresses more than
//! PCT percent over run A's — the CI regression gate. What-if questions
//! are answered by re-running: `adapt-cli --whatif SPEC[,SPEC...]`.

use std::process::ExitCode;

use adapt_obs::{diff_runs, from_json, ObsData};

const USAGE: &str = "usage: obs-whatif diff <a.json> <b.json> [--json] [--gate PCT]";

fn load(path: &str) -> Result<ObsData, String> {
    let text = std::fs::read_to_string(path).map_err(|e| format!("cannot read {path}: {e}"))?;
    from_json(&text).map_err(|e| format!("{path}: {e}"))
}

fn cmd_diff(args: &[String]) -> Result<ExitCode, String> {
    let mut paths: Vec<&String> = Vec::new();
    let mut json = false;
    let mut gate: Option<f64> = None;
    let mut it = args.iter();
    while let Some(a) = it.next() {
        match a.as_str() {
            "--json" => json = true,
            "--gate" => {
                let pct = it.next().ok_or("--gate needs a percentage")?;
                gate = Some(pct.parse().map_err(|e| format!("--gate {pct}: {e}"))?);
            }
            _ if paths.len() < 2 => paths.push(a),
            _ => return Err(format!("unexpected argument {a}")),
        }
    }
    if paths.len() != 2 {
        return Err("diff needs exactly two recording paths".into());
    }
    let a = load(paths[0])?;
    let b = load(paths[1])?;
    let d = diff_runs(&a, &b);
    if json {
        print!("{}", d.to_json());
    } else {
        print!("{}", d.render());
    }
    if let Some(pct) = gate {
        if d.regression_pct() > pct {
            eprintln!(
                "obs-whatif: REGRESSION — makespan {:.2}% worse than baseline (gate {pct}%)",
                d.regression_pct()
            );
            return Ok(ExitCode::FAILURE);
        }
        eprintln!(
            "obs-whatif: gate OK — makespan change {:+.2}% within {pct}%",
            d.regression_pct()
        );
    }
    Ok(ExitCode::SUCCESS)
}

fn main() -> ExitCode {
    let args: Vec<String> = std::env::args().skip(1).collect();
    let Some(cmd) = args.first() else {
        eprintln!("{USAGE}");
        return ExitCode::from(2);
    };
    let rest = &args[1..];
    let out = match cmd.as_str() {
        "diff" => cmd_diff(rest),
        _ => {
            eprintln!("obs-whatif: unknown command {cmd}\n{USAGE}");
            return ExitCode::from(2);
        }
    };
    match out {
        Ok(code) => code,
        Err(e) => {
            eprintln!("obs-whatif: {e}\n{USAGE}");
            ExitCode::from(2)
        }
    }
}
