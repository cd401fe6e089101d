//! The barometer CLI: record, compare, and render benchmark history.
//!
//! ```text
//! bench record --pr N [--quick] [--rev R] [--filter SUBSTR]
//!              [--ledger results/barometer.jsonl] [--scenarios DIR]
//! bench diff   [--from SEL] [--to SEL] [--scale quick|full] [--gate PCT]
//! bench rank   [--scale quick|full]
//! ```
//!
//! Selectors are `latest`, `prev`, `pr:N`, or `rev:PREFIX`; `diff`
//! defaults to `prev -> latest`, which is what the CI gate wants right
//! after a `record`: the freshly appended entry against the last
//! committed one. `--gate PCT` makes `diff` exit non-zero when any
//! scenario's wall time rises more than PCT percent.
//!
//! `record` stamps every row with the PR number `--pr` names; it has no
//! default. Rows carry the short `HEAD` rev, with a `+` when tracked
//! files differ from it; `--rev` overrides both. A scenario whose run or sanity check fails stops `record`
//! with `bench: <scenario>: <reason>` and appends nothing.

use adapt_bench::barometer::{
    append_entries, diff, gate, load_corpus, load_ledger, render_diff, render_rank, LedgerEntry,
    Sel, LEDGER_PATH,
};
use adapt_bench::Scale;
use std::path::PathBuf;
use std::process::ExitCode;

struct Cli {
    cmd: String,
    quick: bool,
    pr: Option<u32>,
    rev: Option<String>,
    ledger: PathBuf,
    scenarios: PathBuf,
    filter: Option<String>,
    from: Sel,
    to: Sel,
    scale: Option<String>,
    gate_pct: Option<f64>,
}

fn parse_cli() -> Result<Cli, String> {
    let mut cli = Cli {
        cmd: String::new(),
        quick: false,
        pr: None,
        rev: None,
        ledger: PathBuf::from(LEDGER_PATH),
        scenarios: PathBuf::from(env!("CARGO_MANIFEST_DIR")).join("scenarios"),
        filter: None,
        from: Sel::Prev,
        to: Sel::Latest,
        scale: None,
        gate_pct: None,
    };
    let mut args = std::env::args().skip(1);
    let value = |args: &mut dyn Iterator<Item = String>, flag: &str| {
        args.next().ok_or_else(|| format!("{flag} needs a value"))
    };
    while let Some(a) = args.next() {
        match a.as_str() {
            "--quick" => cli.quick = true,
            "--pr" => {
                cli.pr = Some(
                    value(&mut args, "--pr")?
                        .parse()
                        .map_err(|e| format!("--pr: {e}"))?,
                )
            }
            "--rev" => cli.rev = Some(value(&mut args, "--rev")?),
            "--ledger" => cli.ledger = PathBuf::from(value(&mut args, "--ledger")?),
            "--scenarios" => cli.scenarios = PathBuf::from(value(&mut args, "--scenarios")?),
            "--filter" => cli.filter = Some(value(&mut args, "--filter")?),
            "--from" => cli.from = Sel::parse(&value(&mut args, "--from")?)?,
            "--to" => cli.to = Sel::parse(&value(&mut args, "--to")?)?,
            "--scale" => {
                let s = value(&mut args, "--scale")?;
                if s != "quick" && s != "full" {
                    return Err(format!("--scale must be quick or full, got `{s}`"));
                }
                cli.scale = Some(s);
            }
            "--gate" => {
                cli.gate_pct = Some(
                    value(&mut args, "--gate")?
                        .parse()
                        .map_err(|e| format!("--gate: {e}"))?,
                )
            }
            flag if flag.starts_with("--") => return Err(format!("unknown flag `{flag}`")),
            word if cli.cmd.is_empty() => cli.cmd = word.to_string(),
            word => return Err(format!("unexpected argument `{word}`")),
        }
    }
    if cli.cmd.is_empty() {
        return Err("usage: bench <record|diff|rank> [flags]".to_string());
    }
    Ok(cli)
}

/// Short rev of the working tree (see [`stamp_rev`]), or `unknown`
/// outside a git checkout.
fn git_rev() -> String {
    let git = |args: &[&str]| {
        std::process::Command::new("git")
            .args(args)
            .output()
            .ok()
            .filter(|o| o.status.success())
            .map(|o| String::from_utf8_lossy(&o.stdout).into_owned())
    };
    match git(&["rev-parse", "--short", "HEAD"]) {
        Some(head) => {
            let porcelain = git(&["status", "--porcelain", "--untracked-files=no"]);
            stamp_rev(&head, &porcelain.unwrap_or_default())
        }
        None => "unknown".to_string(),
    }
}

/// The rev a ledger row is stamped with: `head`, or `head+` when
/// `porcelain` (`git status --porcelain --untracked-files=no`) lists a
/// changed tracked file, so rows measured on a dirty tree never pass for
/// the clean commit. `rev:PREFIX` selectors still match both.
fn stamp_rev(head: &str, porcelain: &str) -> String {
    let head = head.trim();
    if porcelain.trim().is_empty() {
        head.to_string()
    } else {
        format!("{head}+")
    }
}

fn run(cli: Cli) -> Result<(), String> {
    match cli.cmd.as_str() {
        "record" => {
            let scale = if cli.quick { Scale::Quick } else { Scale::Full };
            let scale_name = if cli.quick { "quick" } else { "full" };
            let pr = cli
                .pr
                .ok_or("record needs --pr N, the PR number stamped on the ledger rows")?;
            let rev = cli.rev.unwrap_or_else(git_rev);
            let corpus = load_corpus(&cli.scenarios)?;
            let corpus: Vec<_> = match &cli.filter {
                Some(f) => corpus.into_iter().filter(|s| s.name.contains(f)).collect(),
                None => corpus,
            };
            if corpus.is_empty() {
                return Err("filter matched no scenarios".to_string());
            }
            let mut entries = Vec::new();
            for s in &corpus {
                let r = s.run(scale).map_err(|e| format!("{}: {e}", s.name))?;
                println!(
                    "{:<32} {:>10.2} ms ({:.2}-{:.2})  {:>12.0} events/s",
                    r.name, r.wall_ms, r.wall_min_ms, r.wall_max_ms, r.events_per_sec
                );
                entries.push(LedgerEntry::from_result(&r, pr, &rev, scale));
            }
            append_entries(&cli.ledger, &entries)?;
            println!(
                "appended {} {scale_name}-scale entries (pr{pr}, {rev}) to {}",
                entries.len(),
                cli.ledger.display()
            );
            Ok(())
        }
        "diff" => {
            let ledger = load_ledger(&cli.ledger)?;
            if ledger.is_empty() {
                return Err(format!("ledger {} is empty", cli.ledger.display()));
            }
            let rows = diff(&ledger, &cli.from, &cli.to, cli.scale.as_deref());
            if rows.is_empty() {
                return Err("selectors matched no scenario pairs".to_string());
            }
            print!("{}", render_diff(&rows));
            match cli.gate_pct {
                Some(pct) => gate(&rows, pct),
                None => Ok(()),
            }
        }
        "rank" => {
            let ledger = load_ledger(&cli.ledger)?;
            if ledger.is_empty() {
                return Err(format!("ledger {} is empty", cli.ledger.display()));
            }
            print!("{}", render_rank(&ledger, cli.scale.as_deref()));
            Ok(())
        }
        other => Err(format!("unknown subcommand `{other}`")),
    }
}

fn main() -> ExitCode {
    match parse_cli().and_then(run) {
        Ok(()) => ExitCode::SUCCESS,
        Err(e) => {
            eprintln!("bench: {e}");
            ExitCode::FAILURE
        }
    }
}

#[cfg(test)]
mod tests {
    use super::stamp_rev;

    #[test]
    fn clean_tree_is_stamped_with_head() {
        assert_eq!(stamp_rev("5315cbd\n", ""), "5315cbd");
    }

    #[test]
    fn dirty_tree_is_stamped_head_plus() {
        let porcelain = " M crates/sim/src/queue.rs\nM  CHANGES.md\n";
        assert_eq!(stamp_rev("5315cbd\n", porcelain), "5315cbd+");
    }
}
