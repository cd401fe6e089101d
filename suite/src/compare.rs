//! `suite compare PARENT.out... -- CANDIDATE.out...`: judge a candidate
//! commit's runs against the parent's with the bounds in `BENCHMARK.json`.
//!
//! Each file is the saved stdout of `suite` runs; a `# suite workload=…`
//! header names the workload of the JSON line that follows it. For every
//! (workload, metric) it prints each side's median and quartiles and a
//! verdict:
//!
//! * `REGRESSION` — the candidate's median is worse than the parent's by
//!   more than the metric's bound;
//! * `unresolved` — the parent's own inter-quartile spread exceeds the
//!   bound, so "no worse" cannot be shown (unless every candidate run
//!   beats every parent run);
//! * `GAIN` — at least ten runs a side, taken as pairs in file order, the
//!   candidate wins at least nine tenths of the pairs, and the medians
//!   differ by more than the parent's inter-quartile spread;
//! * `ok` — none of the above. Per-layer metrics have no bound and only
//!   get their medians printed.

use crate::stats::{median, quartiles};
use adapt_obs::{parse_json, Json};
use std::collections::BTreeMap;
use std::process::ExitCode;

/// (workload, metric) → values in file order.
type Runs = BTreeMap<(String, String), Vec<f64>>;

/// `end_to_end` metric → (bound, lower is better).
fn bounds(path: &str) -> Result<BTreeMap<String, (f64, bool)>, String> {
    let text = std::fs::read_to_string(path).map_err(|e| format!("{path}: {e}"))?;
    let doc = parse_json(&text).map_err(|e| format!("{path}: {e}"))?;
    let Some(Json::Arr(metrics)) = doc.get("end_to_end") else {
        return Err(format!("{path}: no end_to_end list"));
    };
    let mut out = BTreeMap::new();
    for m in metrics {
        match (m.get("name"), m.get("bound"), m.get("better")) {
            (Some(Json::Str(name)), Some(Json::Num(bound)), Some(Json::Str(better))) => {
                out.insert(name.clone(), (*bound, better == "lower"));
            }
            _ => return Err(format!("{path}: malformed end_to_end entry")),
        }
    }
    Ok(out)
}

fn read_runs(files: &[String]) -> Result<Runs, String> {
    let mut runs = Runs::new();
    for file in files {
        let text = std::fs::read_to_string(file).map_err(|e| format!("{file}: {e}"))?;
        let mut workload = None;
        for line in text.lines() {
            if let Some(rest) = line.strip_prefix("# suite workload=") {
                workload = rest.split_whitespace().next().map(str::to_string);
            } else if line.starts_with('{') {
                let w = workload
                    .clone()
                    .ok_or(format!("{file}: result before header"))?;
                let doc = parse_json(line).map_err(|e| format!("{file}: {e}"))?;
                let Some(Json::Obj(metrics)) = doc.get("metrics") else {
                    return Err(format!("{file}: result without metrics"));
                };
                for (name, m) in metrics {
                    if let Some(Json::Num(v)) = m.get("value") {
                        runs.entry((w.clone(), name.clone())).or_default().push(*v);
                    }
                }
            }
        }
    }
    Ok(runs)
}

/// Relative spread of a sample: (q3 − q1) / median.
fn rel_iqr(v: &[f64]) -> Option<f64> {
    let (q1, q3) = quartiles(v)?;
    Some((q3 - q1) / median(v)?.abs())
}

/// The verdict for one bounded metric.
pub fn verdict(parent: &[f64], cand: &[f64], bound: f64, lower_is_better: bool) -> &'static str {
    let (Some(mp), Some(mc)) = (median(parent), median(cand)) else {
        return "no data";
    };
    // Positive = candidate better.
    let gain = |p: f64, c: f64| if lower_is_better { p - c } else { c - p };
    if -gain(mp, mc) > bound * mp.abs() {
        return "REGRESSION";
    }
    let all_better = parent
        .iter()
        .all(|&p| cand.iter().all(|&c| gain(p, c) > 0.0));
    let iqr = quartiles(parent).map_or(f64::INFINITY, |(q1, q3)| q3 - q1);
    if iqr > bound * mp.abs() && !all_better {
        return "unresolved";
    }
    let pairs = parent.len().min(cand.len());
    let wins = parent
        .iter()
        .zip(cand)
        .filter(|(&p, &c)| gain(p, c) > 0.0)
        .count();
    if pairs >= 10 && wins * 10 >= pairs * 9 && gain(mp, mc) > iqr {
        return "GAIN";
    }
    "ok"
}

fn describe(v: &[f64]) -> String {
    match (median(v), quartiles(v)) {
        (Some(m), Some((q1, q3))) => format!("{m:.6} [{q1:.6}, {q3:.6}] n={}", v.len()),
        (Some(m), None) => format!("{m:.6} n={}", v.len()),
        _ => "-".into(),
    }
}

pub fn main(args: &[String]) -> ExitCode {
    let Some(split) = args.iter().position(|a| a == "--") else {
        eprintln!("usage: suite compare PARENT.out... -- CANDIDATE.out...");
        return ExitCode::from(2);
    };
    let result = (|| -> Result<bool, String> {
        let bounds = bounds("BENCHMARK.json")?;
        let parent = read_runs(&args[..split])?;
        let cand = read_runs(&args[split + 1..])?;
        let mut regressed = false;
        for ((workload, metric), pv) in &parent {
            let Some(cv) = cand.get(&(workload.clone(), metric.clone())) else {
                continue;
            };
            let mp = median(pv).unwrap_or(0.0);
            let delta = 100.0 * (median(cv).unwrap_or(0.0) - mp) / mp.abs().max(f64::MIN_POSITIVE);
            let judged = bounds.get(metric).map(|&(bound, lower)| {
                let v = verdict(pv, cv, bound, lower);
                let spread = rel_iqr(pv).map_or("-".into(), |s| format!("{:.2}%", 100.0 * s));
                (
                    v,
                    format!("bound {:.1}% parent spread {spread}", 100.0 * bound),
                )
            });
            let (v, note) = judged.unwrap_or(("-", String::new()));
            regressed |= v == "REGRESSION";
            println!(
                "{workload:<22} {metric:<36} parent {} | candidate {} | {delta:+.2}% {v} {note}",
                describe(pv),
                describe(cv)
            );
        }
        Ok(regressed)
    })();
    match result {
        Ok(false) => ExitCode::SUCCESS,
        Ok(true) => ExitCode::FAILURE,
        Err(e) => {
            eprintln!("suite compare: {e}");
            ExitCode::from(2)
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn around(center: f64, spread: f64) -> Vec<f64> {
        (0..10)
            .map(|i| center + spread * (i as f64 - 4.5) / 4.5)
            .collect()
    }

    #[test]
    fn verdicts() {
        let parent = around(100.0, 1.0);
        // Lower is better: 20% slower breaks a 10% bound.
        assert_eq!(
            verdict(&parent, &around(120.0, 1.0), 0.10, true),
            "REGRESSION"
        );
        assert_eq!(verdict(&parent, &around(105.0, 1.0), 0.10, true), "ok");
        // Every pair won and the gap exceeds the parent's spread.
        assert_eq!(verdict(&parent, &around(90.0, 1.0), 0.10, true), "GAIN");
        // Higher is better flips the sign.
        assert_eq!(
            verdict(&parent, &around(90.0, 1.0), 0.05, false),
            "REGRESSION"
        );
        // A parent wider than the bound cannot show "no worse".
        assert_eq!(
            verdict(&around(100.0, 30.0), &parent, 0.10, true),
            "unresolved"
        );
        // Fewer than ten pairs never claim a gain.
        assert_eq!(
            verdict(&parent[..9], &around(90.0, 1.0)[..9], 0.10, true),
            "ok"
        );
    }
}
