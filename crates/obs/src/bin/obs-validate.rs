//! Validate exported observability artifacts (used by CI).
//!
//! Usage: `obs-validate <artifact> [artifact ...]`
//!
//! Each file's kind is sniffed from its content, so the historical
//! positional form `obs-validate trace.json metrics.csv critical.txt`
//! keeps working and streaming summaries (`--summary-out`) or flight
//! dumps can be appended anywhere on the line:
//!
//! - `{"format": "adapt-obs-v1"`         → full recording (`--obs-out`),
//!   checked for causal completeness
//! - `{"format": "adapt-obs-summary-v1"` → streaming telemetry summary
//! - `{"format": "adapt-obs-health-v1"`  → health-monitor artifact
//! - the metrics CSV header                → gauge/summary metrics CSV
//! - any other `{`                         → Chrome trace (full or flight fragment)
//! - anything else                         → critical-path report
//!
//! Exits non-zero with a diagnostic on the first invalid artifact.

use std::process::ExitCode;

/// The `"format"` tag a JSON artifact opens with, if any.
fn format_tag(text: &str) -> Option<&str> {
    let rest = text.trim_start().strip_prefix('{')?.trim_start();
    let rest = rest
        .strip_prefix("\"format\"")?
        .trim_start()
        .strip_prefix(':')?;
    rest.trim_start().strip_prefix('"')?.split('"').next()
}

/// Validate one artifact by content; `Ok` is the success line to print.
fn check(path: &str, text: &str) -> Result<String, String> {
    let head = text.trim_start();
    let tag = format_tag(text);
    if tag == Some(adapt_obs::FORMAT) {
        let data = adapt_obs::from_json(text)?;
        let r = adapt_obs::validate_recording(&data)?;
        return Ok(format!(
            "{path}: OK — recording of {} ranks ({} msgs, {} flows, {} dispatches), \
             causally complete",
            r.ranks, r.msgs, r.flows, r.dispatches
        ));
    }
    if tag == Some(adapt_obs::SUMMARY_FORMAT) {
        let s = adapt_obs::validate_summary(text)?;
        return Ok(format!(
            "{path}: OK — summary of {} ranks ({} msgs, {} flows, {} classes, \
             {} hot links)",
            s.ranks, s.msgs, s.flows, s.classes, s.hot_links
        ));
    }
    if tag == Some(adapt_obs::HEALTH_FORMAT) {
        let h = adapt_obs::validate_health(text)?;
        return Ok(format!(
            "{path}: OK — health of {} ranks ({} snapshots, {} alerts, {} kept)",
            h.ranks, h.snapshots, h.alerts, h.kept_alerts
        ));
    }
    if text.lines().next() == Some(adapt_obs::CSV_HEADER) {
        let rows = adapt_obs::validate_metrics_csv(text)?;
        return Ok(format!("{path}: OK — {rows} metric rows"));
    }
    if head.starts_with('{') {
        let s = adapt_obs::validate_chrome(text)?;
        return Ok(format!(
            "{path}: OK — {} events ({} complete spans on {} tracks, \
             {} async spans, {} counters)",
            s.events, s.complete_spans, s.tracks, s.async_spans, s.counters
        ));
    }
    let sum = adapt_obs::validate_critical_report(text)?;
    Ok(format!("{path}: OK — layer percentages sum to {sum:.1}%"))
}

fn main() -> ExitCode {
    let args: Vec<String> = std::env::args().skip(1).collect();
    if args.is_empty() {
        eprintln!("usage: obs-validate <artifact> [artifact ...]");
        return ExitCode::from(2);
    }
    for path in &args {
        let text = match std::fs::read_to_string(path) {
            Ok(t) => t,
            Err(e) => {
                eprintln!("obs-validate: cannot read {path}: {e}");
                return ExitCode::FAILURE;
            }
        };
        match check(path, &text) {
            Ok(line) => println!("{line}"),
            Err(e) => {
                eprintln!("{path}: INVALID — {e}");
                return ExitCode::FAILURE;
            }
        }
    }
    ExitCode::SUCCESS
}
