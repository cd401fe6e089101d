//! The benchmark barometer: a declarative scenario corpus plus an
//! append-only measurement ledger, in the style of BurntSushi's rebar.
//!
//! The pre-barometer harness recorded one `BENCH_PRn.json` per PR, each
//! folding the *previous* file in as its baseline. That chains ratios:
//! PR 4's "speedup" was measured against PR 3's already-regressed
//! numbers, so the trajectory read as a sequence of local wins while the
//! absolute throughput was still below PR 2. The barometer stores
//! **absolute measurements only** — one JSONL line per (scenario, pr,
//! git rev) — and ratios exist only in the eye of `bench diff`, which
//! can compare any two ledger entries, however far apart.
//!
//! Three pieces:
//!
//! * **Corpus** — `crates/bench/scenarios/*.toml`, one declarative file
//!   per scenario (a flat TOML subset; unknown keys are rejected so a
//!   typo'd parameter fails loudly instead of silently measuring the
//!   default).
//! * **Ledger** — `results/barometer.jsonl`, append-only, one flat JSON
//!   object per line. Committed to the repo so every checkout carries
//!   the full measurement history.
//! * **CLI** — `bench record | diff | rank` (see
//!   `src/bin/bench.rs`), with `diff --gate <pct>` as the CI tripwire
//!   that fails the build on a wall-time rise (events/sec stays as a
//!   secondary column: it rewards redundant events).

use crate::perf::{
    bench_event_queue, bench_fig8, bench_flow_churn, bench_matching_posted,
    bench_matching_unexpected, ChurnParams, Fig8Mode, Fig8Params, MatchingParams, PerfResult,
    QueueParams,
};
use crate::Scale;
use std::collections::BTreeMap;
use std::fmt::Write as _;
use std::path::Path;

/// Default ledger location, relative to the repo root.
pub const LEDGER_PATH: &str = "results/barometer.jsonl";

// ---------------------------------------------------------------------
// Flat TOML subset parser.
// ---------------------------------------------------------------------

/// A scenario-file value: the corpus needs nothing richer.
#[derive(Clone, Debug, PartialEq)]
pub enum TomlVal {
    /// Double-quoted string.
    Str(String),
    /// Integer literal.
    Int(i64),
    /// Float literal.
    Float(f64),
    /// `true` / `false`.
    Bool(bool),
}

impl TomlVal {
    fn type_name(&self) -> &'static str {
        match self {
            TomlVal::Str(_) => "string",
            TomlVal::Int(_) => "integer",
            TomlVal::Float(_) => "float",
            TomlVal::Bool(_) => "bool",
        }
    }
}

/// Parse a flat `key = value` TOML document: comments and blank lines
/// are skipped, tables/arrays are rejected (the corpus is deliberately
/// flat), duplicate keys are rejected.
pub fn parse_flat_toml(text: &str) -> Result<Vec<(String, TomlVal)>, String> {
    let mut out: Vec<(String, TomlVal)> = Vec::new();
    for (lineno, raw) in text.lines().enumerate() {
        let line = raw.trim();
        if line.is_empty() || line.starts_with('#') {
            continue;
        }
        if line.starts_with('[') {
            return Err(format!(
                "line {}: tables are not supported (corpus files are flat)",
                lineno + 1
            ));
        }
        let (key, val) = line
            .split_once('=')
            .ok_or_else(|| format!("line {}: expected `key = value`", lineno + 1))?;
        let key = key.trim();
        if key.is_empty()
            || !key
                .chars()
                .all(|c| c.is_ascii_alphanumeric() || c == '_' || c == '-')
        {
            return Err(format!("line {}: malformed key `{key}`", lineno + 1));
        }
        if out.iter().any(|(k, _)| k == key) {
            return Err(format!("line {}: duplicate key `{key}`", lineno + 1));
        }
        let val = val.trim();
        let parsed = if let Some(rest) = val.strip_prefix('"') {
            let end = rest
                .find('"')
                .ok_or_else(|| format!("line {}: unterminated string", lineno + 1))?;
            let tail = rest[end + 1..].trim();
            if !tail.is_empty() && !tail.starts_with('#') {
                return Err(format!("line {}: trailing junk after string", lineno + 1));
            }
            TomlVal::Str(rest[..end].to_string())
        } else {
            // Strip a trailing comment, then try bool / int / float.
            let bare = val.split('#').next().unwrap_or("").trim();
            match bare {
                "true" => TomlVal::Bool(true),
                "false" => TomlVal::Bool(false),
                _ => {
                    let cleaned: String = bare.chars().filter(|&c| c != '_').collect();
                    if let Ok(i) = cleaned.parse::<i64>() {
                        TomlVal::Int(i)
                    } else if let Ok(f) = cleaned.parse::<f64>() {
                        TomlVal::Float(f)
                    } else {
                        return Err(format!(
                            "line {}: unparseable value `{bare}` for key `{key}`",
                            lineno + 1
                        ));
                    }
                }
            }
        };
        out.push((key.to_string(), parsed));
    }
    Ok(out)
}

// ---------------------------------------------------------------------
// Scenario corpus.
// ---------------------------------------------------------------------

/// One corpus scenario: a stable name plus the fully validated
/// parameters of the harness function it drives.
#[derive(Clone, Debug)]
pub struct Scenario {
    /// Ledger key. Must be unique across the corpus.
    pub name: String,
    /// Which harness function runs, with its parameters.
    pub kind: Kind,
}

/// The scenario kinds the corpus can express, mirroring the harness's
/// parameterized entry points. Scale-dependent sizes carry both
/// variants; the choice is made at `record` time.
#[derive(Clone, Debug)]
pub enum Kind {
    /// The event queue alone ([`bench_event_queue`]).
    EventQueue {
        quick: QueueParams,
        full: QueueParams,
    },
    /// Posted-receive matching stress ([`bench_matching_posted`]).
    MatchingPosted {
        quick: MatchingParams,
        full: MatchingParams,
    },
    /// Unexpected-queue matching stress ([`bench_matching_unexpected`]).
    MatchingUnexpected {
        quick: MatchingParams,
        full: MatchingParams,
    },
    /// Fair-share churn on a congested backbone ([`bench_flow_churn`]).
    FlowChurn {
        quick: ChurnParams,
        full: ChurnParams,
    },
    /// End-to-end fig8 sweep ([`bench_fig8`]); same at either scale.
    Fig8(Fig8Params),
}

/// A consuming view over a scenario's parsed key/value pairs: every
/// accessor removes the key, and [`Pairs::finish`] rejects whatever is
/// left — the "unknown key" guarantee.
struct Pairs {
    file: String,
    pairs: Vec<(String, TomlVal)>,
}

impl Pairs {
    fn take(&mut self, key: &str) -> Option<TomlVal> {
        let i = self.pairs.iter().position(|(k, _)| k == key)?;
        Some(self.pairs.remove(i).1)
    }

    fn string(&mut self, key: &str) -> Result<String, String> {
        match self.take(key) {
            Some(TomlVal::Str(s)) => Ok(s),
            Some(v) => Err(format!(
                "{}: key `{key}` must be a string, got {}",
                self.file,
                v.type_name()
            )),
            None => Err(format!("{}: missing required key `{key}`", self.file)),
        }
    }

    fn int(&mut self, key: &str, default: i64) -> Result<i64, String> {
        match self.take(key) {
            Some(TomlVal::Int(i)) if i >= 0 => Ok(i),
            Some(v) => Err(format!(
                "{}: key `{key}` must be a non-negative integer, got {v:?}",
                self.file
            )),
            None => Ok(default),
        }
    }

    fn req_int(&mut self, key: &str) -> Result<i64, String> {
        match self.take(key) {
            Some(TomlVal::Int(i)) if i > 0 => Ok(i),
            Some(v) => Err(format!(
                "{}: key `{key}` must be a positive integer, got {v:?}",
                self.file
            )),
            None => Err(format!("{}: missing required key `{key}`", self.file)),
        }
    }

    fn float(&mut self, key: &str) -> Result<f64, String> {
        match self.take(key) {
            Some(TomlVal::Float(f)) => Ok(f),
            Some(TomlVal::Int(i)) => Ok(i as f64),
            Some(v) => Err(format!(
                "{}: key `{key}` must be a number, got {}",
                self.file,
                v.type_name()
            )),
            None => Err(format!("{}: missing required key `{key}`", self.file)),
        }
    }

    fn finish(self) -> Result<(), String> {
        if let Some((k, _)) = self.pairs.first() {
            return Err(format!("{}: unknown key `{k}`", self.file));
        }
        Ok(())
    }
}

impl Scenario {
    /// Validate one parsed corpus file. `file` names the source in
    /// error messages.
    pub fn from_pairs(file: &str, pairs: Vec<(String, TomlVal)>) -> Result<Scenario, String> {
        let mut p = Pairs {
            file: file.to_string(),
            pairs,
        };
        let name = p.string("name")?;
        let kind = p.string("kind")?;
        let kind = match kind.as_str() {
            "event_queue" => {
                let warmup = p.int("warmup", 1)? as usize;
                let iters = p.req_int("iters")? as usize;
                let live = p.req_int("live")? as u64;
                let mk = |pops: i64| QueueParams {
                    live,
                    pops: pops as u64,
                    warmup,
                    iters,
                };
                let quick = mk(p.req_int("pops_quick")?);
                let full = mk(p.req_int("pops_full")?);
                Kind::EventQueue { quick, full }
            }
            "matching_posted" | "matching_unexpected" => {
                let warmup = p.int("warmup", 1)? as usize;
                let iters = p.req_int("iters")? as usize;
                let bytes = p.req_int("bytes")? as u64;
                let mk = |count: i64| MatchingParams {
                    count: count as u32,
                    bytes,
                    warmup,
                    iters,
                };
                let quick = mk(p.req_int("count_quick")?);
                let full = mk(p.req_int("count_full")?);
                if kind == "matching_posted" {
                    Kind::MatchingPosted { quick, full }
                } else {
                    Kind::MatchingUnexpected { quick, full }
                }
            }
            "flow_churn" => {
                let warmup = p.int("warmup", 1)? as usize;
                let iters = p.req_int("iters")? as usize;
                let lanes = p.req_int("lanes")? as u32;
                let mk = |flows: i64| ChurnParams {
                    lanes,
                    flows: flows as u64,
                    warmup,
                    iters,
                };
                let quick = mk(p.req_int("flows_quick")?);
                let full = mk(p.req_int("flows_full")?);
                Kind::FlowChurn { quick, full }
            }
            "fig8_plain" | "fig8_traced" | "fig8_streaming" | "fig8_inert_faults"
            | "fig8_inert_kill" | "fig8_lossy" | "fig8_monitored" => {
                let warmup = p.int("warmup", 1)? as usize;
                let iters = p.req_int("iters")? as usize;
                let nodes = p.req_int("nodes")? as u32;
                let nranks = p.req_int("nranks")? as u32;
                let mode = match kind.as_str() {
                    "fig8_plain" => Fig8Mode::Plain,
                    "fig8_traced" => Fig8Mode::Traced,
                    "fig8_streaming" => Fig8Mode::Streaming,
                    "fig8_inert_faults" => Fig8Mode::InertFaults,
                    "fig8_inert_kill" => Fig8Mode::InertKill,
                    "fig8_monitored" => Fig8Mode::Monitored,
                    _ => Fig8Mode::Lossy(p.float("loss")?),
                };
                Kind::Fig8(Fig8Params {
                    nodes,
                    nranks,
                    warmup,
                    iters,
                    mode,
                })
            }
            other => return Err(format!("{file}: unknown kind `{other}`")),
        };
        p.finish()?;
        Ok(Scenario { name, kind })
    }

    /// Run the scenario at the given scale. A failed run or sanity check
    /// is an error, not a measurement.
    pub fn run(&self, scale: Scale) -> Result<PerfResult, String> {
        fn pick<T>(scale: Scale, q: T, f: T) -> T {
            match scale {
                Scale::Quick => q,
                Scale::Full => f,
            }
        }
        let mut r = match &self.kind {
            Kind::EventQueue { quick, full } => bench_event_queue(pick(scale, quick, full)),
            Kind::MatchingPosted { quick, full } => bench_matching_posted(pick(scale, quick, full)),
            Kind::MatchingUnexpected { quick, full } => {
                bench_matching_unexpected(pick(scale, quick, full))
            }
            Kind::FlowChurn { quick, full } => bench_flow_churn(pick(scale, quick, full)),
            Kind::Fig8(p) => bench_fig8(&self.name, p),
        }?;
        r.name = self.name.clone();
        Ok(r)
    }
}

/// Load every `*.toml` under `dir`, sorted by file name so the corpus
/// runs in a stable order. Duplicate scenario names are rejected.
pub fn load_corpus(dir: &Path) -> Result<Vec<Scenario>, String> {
    let mut files: Vec<_> = std::fs::read_dir(dir)
        .map_err(|e| format!("read corpus dir {}: {e}", dir.display()))?
        .filter_map(|e| e.ok().map(|e| e.path()))
        .filter(|p| p.extension().is_some_and(|x| x == "toml"))
        .collect();
    files.sort();
    let mut out = Vec::new();
    for f in &files {
        let text = std::fs::read_to_string(f).map_err(|e| format!("read {}: {e}", f.display()))?;
        let shown = f.file_name().unwrap_or_default().to_string_lossy();
        let pairs = parse_flat_toml(&text).map_err(|e| format!("{shown}: {e}"))?;
        let s = Scenario::from_pairs(&shown, pairs)?;
        if out.iter().any(|o: &Scenario| o.name == s.name) {
            return Err(format!("{shown}: duplicate scenario name `{}`", s.name));
        }
        out.push(s);
    }
    if out.is_empty() {
        return Err(format!("no *.toml scenarios under {}", dir.display()));
    }
    Ok(out)
}

// ---------------------------------------------------------------------
// The ledger.
// ---------------------------------------------------------------------

/// One absolute measurement: a scenario run pinned to a PR and git rev.
/// No `before_*` fields by design — ratios are computed by `diff`, never
/// stored.
#[derive(Clone, Debug, PartialEq)]
pub struct LedgerEntry {
    /// Corpus scenario name.
    pub scenario: String,
    /// PR sequence number of the measured tree.
    pub pr: u32,
    /// Short git rev of the measured tree (`unknown` when not a checkout).
    pub rev: String,
    /// `quick` or `full`.
    pub scale: String,
    /// Median wall-clock, milliseconds.
    pub wall_ms: f64,
    /// Fastest timed iteration, milliseconds.
    pub wall_min_ms: f64,
    /// Slowest timed iteration, milliseconds.
    pub wall_max_ms: f64,
    /// Simulator events per iteration.
    pub events: u64,
    /// Simulator events per wall-clock second (secondary; the gate reads
    /// `wall_ms`).
    pub events_per_sec: f64,
    /// Worker threads the scenario ran on. Every run records 1; ledger
    /// lines from the retired threaded fig8 series carry their width, and
    /// `diff` and `rank` keep them a series of their own.
    pub threads: u32,
    /// Logical cores of the recording host (0 on ledger lines written
    /// before this field existed) — context for comparing numbers
    /// recorded on different hardware.
    pub host_cores: u32,
}

impl LedgerEntry {
    /// Build from a harness result plus provenance.
    pub fn from_result(r: &PerfResult, pr: u32, rev: &str, scale: Scale) -> LedgerEntry {
        LedgerEntry {
            scenario: r.name.clone(),
            pr,
            rev: rev.to_string(),
            scale: match scale {
                Scale::Quick => "quick",
                Scale::Full => "full",
            }
            .to_string(),
            wall_ms: r.wall_ms,
            wall_min_ms: r.wall_min_ms,
            wall_max_ms: r.wall_max_ms,
            events: r.events,
            events_per_sec: r.events_per_sec,
            threads: 1,
            host_cores: crate::host_cores() as u32,
        }
    }

    /// The series this entry belongs to when pairing measurements: the
    /// scenario name, qualified by the thread width of the retired
    /// threaded series. Sequential entries (every entry recorded today,
    /// and pre-field ledger lines) keep the bare scenario name.
    pub fn series(&self) -> String {
        if self.threads <= 1 {
            self.scenario.clone()
        } else {
            format!("{}@threads={}", self.scenario, self.threads)
        }
    }

    /// One flat JSON object, no trailing newline.
    pub fn to_line(&self) -> String {
        format!(
            "{{\"scenario\": \"{}\", \"pr\": {}, \"rev\": \"{}\", \"scale\": \"{}\", \
             \"wall_ms\": {:.3}, \"wall_min_ms\": {:.3}, \"wall_max_ms\": {:.3}, \
             \"events\": {}, \"events_per_sec\": {:.1}, \"threads\": {}, \"host_cores\": {}}}",
            self.scenario,
            self.pr,
            self.rev,
            self.scale,
            self.wall_ms,
            self.wall_min_ms,
            self.wall_max_ms,
            self.events,
            self.events_per_sec,
            self.threads,
            self.host_cores
        )
    }

    /// Parse one ledger line. Tolerates unknown fields (forward
    /// compatibility) but requires every field above.
    pub fn parse_line(line: &str) -> Result<LedgerEntry, String> {
        let inner = line
            .trim()
            .strip_prefix('{')
            .and_then(|s| s.strip_suffix('}'))
            .ok_or_else(|| format!("not a JSON object: {line}"))?;
        let mut fields: BTreeMap<String, String> = BTreeMap::new();
        // Split on top-level commas, respecting double-quoted strings.
        let mut depth_in_str = false;
        let mut start = 0usize;
        let bytes = inner.as_bytes();
        let mut parts: Vec<&str> = Vec::new();
        for (i, &b) in bytes.iter().enumerate() {
            match b {
                b'"' => depth_in_str = !depth_in_str,
                b',' if !depth_in_str => {
                    parts.push(&inner[start..i]);
                    start = i + 1;
                }
                _ => {}
            }
        }
        parts.push(&inner[start..]);
        for part in parts {
            let (k, v) = part
                .split_once(':')
                .ok_or_else(|| format!("malformed field `{part}`"))?;
            fields.insert(
                k.trim().trim_matches('"').to_string(),
                v.trim().trim_matches('"').to_string(),
            );
        }
        let get = |k: &str| -> Result<String, String> {
            fields
                .get(k)
                .cloned()
                .ok_or_else(|| format!("missing field `{k}` in ledger line"))
        };
        let num = |k: &str| -> Result<f64, String> {
            get(k)?.parse().map_err(|e| format!("field `{k}`: {e}"))
        };
        Ok(LedgerEntry {
            scenario: get("scenario")?,
            pr: get("pr")?.parse().map_err(|e| format!("field `pr`: {e}"))?,
            rev: get("rev")?,
            scale: get("scale")?,
            wall_ms: num("wall_ms")?,
            wall_min_ms: num("wall_min_ms")?,
            wall_max_ms: num("wall_max_ms")?,
            events: get("events")?
                .parse()
                .map_err(|e| format!("field `events`: {e}"))?,
            events_per_sec: num("events_per_sec")?,
            // Absent on ledger lines older than the threaded series:
            // those were all sequential runs on unrecorded hardware.
            threads: match fields.get("threads") {
                Some(v) => v.parse().map_err(|e| format!("field `threads`: {e}"))?,
                None => 1,
            },
            host_cores: match fields.get("host_cores") {
                Some(v) => v.parse().map_err(|e| format!("field `host_cores`: {e}"))?,
                None => 0,
            },
        })
    }
}

/// Load the full ledger (empty if the file doesn't exist yet).
pub fn load_ledger(path: &Path) -> Result<Vec<LedgerEntry>, String> {
    let text = match std::fs::read_to_string(path) {
        Ok(t) => t,
        Err(e) if e.kind() == std::io::ErrorKind::NotFound => return Ok(Vec::new()),
        Err(e) => return Err(format!("read {}: {e}", path.display())),
    };
    text.lines()
        .filter(|l| !l.trim().is_empty())
        .map(LedgerEntry::parse_line)
        .collect()
}

/// Append entries to the ledger, creating it (and its directory) on
/// first use. Never rewrites existing lines — the ledger is history.
pub fn append_entries(path: &Path, entries: &[LedgerEntry]) -> Result<(), String> {
    use std::io::Write;
    if let Some(dir) = path.parent() {
        if !dir.as_os_str().is_empty() {
            std::fs::create_dir_all(dir).map_err(|e| format!("mkdir {}: {e}", dir.display()))?;
        }
    }
    let mut f = std::fs::OpenOptions::new()
        .create(true)
        .append(true)
        .open(path)
        .map_err(|e| format!("open {}: {e}", path.display()))?;
    for e in entries {
        writeln!(f, "{}", e.to_line()).map_err(|e| format!("write {}: {e}", path.display()))?;
    }
    Ok(())
}

// ---------------------------------------------------------------------
// diff / rank.
// ---------------------------------------------------------------------

/// How `diff` picks an entry per scenario.
#[derive(Clone, Debug, PartialEq)]
pub enum Sel {
    /// Newest entry for the scenario.
    Latest,
    /// Newest entry *before* the one `Latest` picks — the default
    /// baseline for the CI gate.
    Prev,
    /// Newest entry recorded for the given PR.
    Pr(u32),
    /// Newest entry whose rev starts with the given prefix.
    Rev(String),
}

impl Sel {
    /// Parse `latest`, `prev`, `pr:N`, or `rev:PREFIX`.
    pub fn parse(s: &str) -> Result<Sel, String> {
        if s == "latest" {
            return Ok(Sel::Latest);
        }
        if s == "prev" {
            return Ok(Sel::Prev);
        }
        if let Some(n) = s.strip_prefix("pr:") {
            return n
                .parse()
                .map(Sel::Pr)
                .map_err(|e| format!("bad pr selector `{s}`: {e}"));
        }
        if let Some(r) = s.strip_prefix("rev:") {
            return Ok(Sel::Rev(r.to_string()));
        }
        Err(format!(
            "bad selector `{s}` (expected latest, prev, pr:N, or rev:PREFIX)"
        ))
    }

    fn pick<'a>(&self, entries: &[&'a LedgerEntry]) -> Option<&'a LedgerEntry> {
        match self {
            Sel::Latest => entries.last().copied(),
            Sel::Prev => entries.len().checked_sub(2).map(|i| entries[i]),
            Sel::Pr(n) => entries.iter().rev().find(|e| e.pr == *n).copied(),
            Sel::Rev(p) => entries.iter().rev().find(|e| e.rev.starts_with(p)).copied(),
        }
    }
}

/// One scenario's before/after pair.
#[derive(Clone, Debug)]
pub struct DiffRow {
    /// Scenario name.
    pub scenario: String,
    /// Baseline entry.
    pub from: LedgerEntry,
    /// Candidate entry.
    pub to: LedgerEntry,
}

impl DiffRow {
    /// Candidate wall time over baseline wall time (<1 is faster): the
    /// gated figure. Each scenario is a fixed workload, so its wall time
    /// is the end-to-end cost; events/sec would read a change that
    /// removes redundant events as a slowdown. Not finite when the
    /// baseline has no wall time.
    pub fn wall_ratio(&self) -> f64 {
        self.to.wall_ms / self.from.wall_ms
    }

    /// Candidate throughput over baseline throughput: the secondary
    /// column, for reading how the event count moved alongside.
    pub fn events_per_sec_ratio(&self) -> f64 {
        if self.from.events_per_sec > 0.0 {
            self.to.events_per_sec / self.from.events_per_sec
        } else {
            0.0
        }
    }
}

/// Pair up entries per series — scenario name qualified by thread width
/// (see [`LedgerEntry::series`]), so a threaded sweep is never silently
/// compared against a sequential one. Entries are grouped in ledger
/// order (append order is history order), optionally filtered to one
/// scale first so quick and full runs never get compared. Series where
/// either selector comes up empty are skipped.
pub fn diff(ledger: &[LedgerEntry], from: &Sel, to: &Sel, scale: Option<&str>) -> Vec<DiffRow> {
    let mut by_series: BTreeMap<String, Vec<&LedgerEntry>> = BTreeMap::new();
    for e in ledger {
        if scale.is_some_and(|s| s != e.scale) {
            continue;
        }
        by_series.entry(e.series()).or_default().push(e);
    }
    let mut out = Vec::new();
    for (name, entries) in &by_series {
        let (Some(a), Some(b)) = (from.pick(entries), to.pick(entries)) else {
            continue;
        };
        out.push(DiffRow {
            scenario: name.to_string(),
            from: a.clone(),
            to: b.clone(),
        });
    }
    out
}

/// Render a diff as an aligned table.
pub fn render_diff(rows: &[DiffRow]) -> String {
    let mut s = String::new();
    let _ = writeln!(
        s,
        "{:<32} {:>12} {:>12} {:>8} {:>14} {:>14} {:>8}  from -> to",
        "scenario", "from ms", "to ms", "wall", "from ev/s", "to ev/s", "ev/s"
    );
    for r in rows {
        let _ = writeln!(
            s,
            "{:<32} {:>12.3} {:>12.3} {:>7.3}x {:>14.0} {:>14.0} {:>7.3}x  pr{} {} -> pr{} {}",
            r.scenario,
            r.from.wall_ms,
            r.to.wall_ms,
            r.wall_ratio(),
            r.from.events_per_sec,
            r.to.events_per_sec,
            r.events_per_sec_ratio(),
            r.from.pr,
            r.from.rev,
            r.to.pr,
            r.to.rev
        );
    }
    s
}

/// Apply a gate: any scenario whose candidate wall time rose more than
/// `pct` percent above its baseline fails, listed in the error. A
/// baseline without a wall time fails closed.
pub fn gate(rows: &[DiffRow], pct: f64) -> Result<(), String> {
    let ceiling = 1.0 + pct / 100.0;
    let bad: Vec<String> = rows
        .iter()
        .filter(|r| {
            let w = r.wall_ratio();
            w.is_nan() || w > ceiling
        })
        .map(|r| {
            format!(
                "{}: {:.3} -> {:.3} ms ({:+.1}%)",
                r.scenario,
                r.from.wall_ms,
                r.to.wall_ms,
                (r.wall_ratio() - 1.0) * 100.0
            )
        })
        .collect();
    if bad.is_empty() {
        Ok(())
    } else {
        Err(format!(
            "performance gate (-{pct}%) violated:\n  {}",
            bad.join("\n  ")
        ))
    }
}

/// Render the full trajectory: per scenario, every ledger entry in
/// order, with each entry's throughput as a ratio of the scenario's
/// *first* recorded entry — the regression and its reclaim read off
/// directly.
pub fn render_rank(ledger: &[LedgerEntry], scale: Option<&str>) -> String {
    let mut by_scenario: BTreeMap<String, Vec<&LedgerEntry>> = BTreeMap::new();
    for e in ledger {
        if scale.is_some_and(|s| s != e.scale) {
            continue;
        }
        by_scenario.entry(e.series()).or_default().push(e);
    }
    let mut s = String::new();
    for (name, entries) in &by_scenario {
        let base = entries[0].events_per_sec;
        let _ = writeln!(s, "{name} [{}]:", entries[0].scale);
        for e in entries {
            let ratio = if base > 0.0 {
                e.events_per_sec / base
            } else {
                0.0
            };
            let _ = writeln!(
                s,
                "  pr{:<2} {:<14} {:>14.0} ev/s  {:>7.3}x  ({:.3} ms, spread {:.3}-{:.3})",
                e.pr, e.rev, e.events_per_sec, ratio, e.wall_ms, e.wall_min_ms, e.wall_max_ms
            );
        }
    }
    s
}

#[cfg(test)]
mod tests {
    use super::*;

    fn entry(scenario: &str, pr: u32, rev: &str, eps: f64) -> LedgerEntry {
        LedgerEntry {
            scenario: scenario.to_string(),
            pr,
            rev: rev.to_string(),
            scale: "quick".to_string(),
            wall_ms: 100.0,
            wall_min_ms: 95.0,
            wall_max_ms: 112.5,
            events: 1_000_000,
            events_per_sec: eps,
            threads: 1,
            host_cores: 16,
        }
    }

    fn entry_at(scenario: &str, pr: u32, rev: &str, eps: f64, threads: u32) -> LedgerEntry {
        LedgerEntry {
            threads,
            ..entry(scenario, pr, rev, eps)
        }
    }

    #[test]
    fn toml_parses_typed_values() {
        let doc = r#"
# a comment
name = "matching_posted"   # trailing comment
kind = "matching_posted"
iters = 5
bytes = 1_024
loss = 0.01
gated = true
"#;
        let pairs = parse_flat_toml(doc).unwrap();
        assert_eq!(
            pairs[0],
            ("name".into(), TomlVal::Str("matching_posted".into()))
        );
        assert_eq!(pairs[2], ("iters".into(), TomlVal::Int(5)));
        assert_eq!(pairs[3], ("bytes".into(), TomlVal::Int(1024)));
        assert_eq!(pairs[4], ("loss".into(), TomlVal::Float(0.01)));
        assert_eq!(pairs[5], ("gated".into(), TomlVal::Bool(true)));
    }

    #[test]
    fn toml_rejects_tables_duplicates_and_junk() {
        assert!(parse_flat_toml("[section]").is_err());
        assert!(parse_flat_toml("a = 1\na = 2").is_err());
        assert!(parse_flat_toml("a 1").is_err());
        assert!(parse_flat_toml("a = what").is_err());
        assert!(parse_flat_toml("a = \"unterminated").is_err());
    }

    #[test]
    fn scenario_rejects_unknown_keys() {
        let doc = r#"
name = "m"
kind = "matching_posted"
iters = 5
bytes = 1024
count_quick = 100
count_full = 200
cout_quick = 300
"#;
        let pairs = parse_flat_toml(doc).unwrap();
        let err = Scenario::from_pairs("m.toml", pairs).unwrap_err();
        assert!(err.contains("unknown key `cout_quick`"), "{err}");
    }

    #[test]
    fn scenario_requires_its_keys() {
        let doc = "name = \"m\"\nkind = \"flow_churn\"\niters = 3\nlanes = 8\nflows_quick = 10\n";
        let pairs = parse_flat_toml(doc).unwrap();
        let err = Scenario::from_pairs("m.toml", pairs).unwrap_err();
        assert!(err.contains("flows_full"), "{err}");
    }

    #[test]
    fn corpus_dir_parses_and_covers_the_acceptance_scenarios() {
        let dir = Path::new(env!("CARGO_MANIFEST_DIR")).join("scenarios");
        let corpus = load_corpus(&dir).unwrap();
        for required in [
            "event_queue",
            "matching_posted",
            "matching_unexpected",
            "flow_churn",
            "fig8_quick_bcast_256",
        ] {
            assert!(
                corpus.iter().any(|s| s.name == required),
                "corpus is missing the acceptance scenario `{required}`"
            );
        }
    }

    #[test]
    fn ledger_entry_roundtrips() {
        let e = entry("matching_posted", 6, "abc1234", 9_876_543.2);
        let parsed = LedgerEntry::parse_line(&e.to_line()).unwrap();
        assert_eq!(parsed, e);
        // Threaded entries carry their width through the line format.
        let e = entry_at("fig8_quick_bcast_256", 7, "abc1234", 9e6, 4);
        let parsed = LedgerEntry::parse_line(&e.to_line()).unwrap();
        assert_eq!(parsed, e);
        assert_eq!(parsed.threads, 4);
    }

    #[test]
    fn ledger_lines_without_thread_fields_parse_as_sequential() {
        // A line older than the threaded series: no `threads`,
        // no `host_cores`. It must still load, as a 1-thread entry.
        let line = "{\"scenario\": \"s1\", \"pr\": 5, \"rev\": \"abcd\", \"scale\": \"quick\", \
                    \"wall_ms\": 100.000, \"wall_min_ms\": 95.000, \"wall_max_ms\": 112.500, \
                    \"events\": 1000000, \"events_per_sec\": 1000.0}";
        let e = LedgerEntry::parse_line(line).unwrap();
        assert_eq!(e.threads, 1);
        assert_eq!(e.host_cores, 0);
        assert_eq!(e.series(), "s1");
    }

    #[test]
    fn diff_never_pairs_threaded_with_sequential() {
        // A 4-thread sweep lands in the ledger after two sequential
        // entries. prev -> latest must compare sequential against
        // sequential; the threaded entry is its own series with only one
        // entry, so it produces no row at all.
        let ledger = vec![
            entry("s1", 6, "aaaa", 1000.0),
            entry("s1", 7, "bbbb", 1010.0),
            entry_at("s1", 7, "bbbb", 2500.0, 4),
        ];
        let rows = diff(&ledger, &Sel::Prev, &Sel::Latest, Some("quick"));
        assert_eq!(rows.len(), 1);
        assert_eq!(rows[0].scenario, "s1");
        assert_eq!(rows[0].from.events_per_sec, 1000.0);
        assert_eq!(rows[0].to.events_per_sec, 1010.0);
        assert!(rows[0].to.threads == 1 && rows[0].from.threads == 1);
        // Once a second threaded entry exists, the threaded series pairs
        // against itself.
        let mut ledger = ledger;
        ledger.push(entry_at("s1", 8, "cccc", 3000.0, 4));
        let rows = diff(&ledger, &Sel::Prev, &Sel::Latest, Some("quick"));
        assert_eq!(rows.len(), 2);
        let threaded = rows
            .iter()
            .find(|r| r.scenario.contains("threads=4"))
            .unwrap();
        assert_eq!(threaded.from.events_per_sec, 2500.0);
        assert_eq!(threaded.to.events_per_sec, 3000.0);
    }

    #[test]
    fn ledger_append_and_load_roundtrip() {
        let dir = std::env::temp_dir().join(format!("barometer-test-{}", std::process::id()));
        let path = dir.join("ledger.jsonl");
        let a = entry("s1", 2, "aaaa", 1000.0);
        let b = entry("s1", 3, "bbbb", 800.0);
        append_entries(&path, std::slice::from_ref(&a)).unwrap();
        append_entries(&path, std::slice::from_ref(&b)).unwrap();
        let loaded = load_ledger(&path).unwrap();
        assert_eq!(loaded, vec![a, b]);
        std::fs::remove_dir_all(&dir).ok();
    }

    /// An entry for a run of `events` events taking `wall_ms`.
    fn timed(scenario: &str, pr: u32, rev: &str, wall_ms: f64, events: u64) -> LedgerEntry {
        LedgerEntry {
            wall_ms,
            events,
            events_per_sec: events as f64 / (wall_ms / 1e3),
            ..entry(scenario, pr, rev, 0.0)
        }
    }

    #[test]
    fn diff_pairs_selectors_and_gate_trips() {
        let ledger = vec![
            timed("s1", 2, "aaaa", 100.0, 1_000_000),
            // Same events, 6% more wall time: the regression.
            timed("s1", 3, "bbbb", 106.0, 1_000_000),
            // Half the events at lower wall time: events/sec falls by a
            // third, but the workload got faster.
            timed("s1", 6, "cccc", 80.0, 500_000),
            timed("s2", 6, "cccc", 50.0, 1_000), // single entry: no prev, skipped
        ];
        // pr:2 -> pr:3 is the regression.
        let rows = diff(&ledger, &Sel::Pr(2), &Sel::Pr(3), Some("quick"));
        assert_eq!(rows.len(), 1);
        assert!((rows[0].wall_ratio() - 1.06).abs() < 1e-9);
        let err = gate(&rows, 5.0).unwrap_err();
        assert!(err.contains("100.000 -> 106.000 ms (+6.0%)"), "{err}");
        // prev -> latest removed redundant events; a 5% gate passes.
        let rows = diff(&ledger, &Sel::Prev, &Sel::Latest, Some("quick"));
        assert_eq!(rows.len(), 1);
        assert!(rows[0].wall_ratio() < 1.0);
        assert!(rows[0].events_per_sec_ratio() < 0.95, "ev/s fell");
        assert!(gate(&rows, 5.0).is_ok());
        let table = render_diff(&rows);
        assert!(table.contains("0.755x"), "wall ratio column: {table}");
        let eps = format!("{:.3}x", rows[0].events_per_sec_ratio());
        assert!(table.contains(&eps), "ev/s column: {table}");
        // rev selector finds by prefix.
        let rows = diff(
            &ledger,
            &Sel::Rev("aa".into()),
            &Sel::Rev("cc".into()),
            None,
        );
        assert_eq!(rows.len(), 1); // s2 has no `aa` rev, so it is skipped
        assert!((rows[0].wall_ratio() - 0.8).abs() < 1e-9);
        // A baseline with no wall time cannot vouch for anything.
        let blank = DiffRow {
            scenario: "s3".into(),
            from: timed("s3", 1, "aaaa", 0.0, 0),
            to: timed("s3", 2, "bbbb", 10.0, 1_000),
        };
        assert!(gate(&[blank], 5.0).is_err());
        // Wrong scale filter yields nothing.
        assert!(diff(&ledger, &Sel::Prev, &Sel::Latest, Some("full")).is_empty());
    }

    #[test]
    fn selector_parses() {
        assert_eq!(Sel::parse("latest").unwrap(), Sel::Latest);
        assert_eq!(Sel::parse("prev").unwrap(), Sel::Prev);
        assert_eq!(Sel::parse("pr:4").unwrap(), Sel::Pr(4));
        assert_eq!(Sel::parse("rev:ab12").unwrap(), Sel::Rev("ab12".into()));
        assert!(Sel::parse("pr4").is_err());
    }

    #[test]
    fn rank_renders_trajectory_against_first_entry() {
        let ledger = vec![
            entry("s1", 2, "aaaa", 1000.0),
            entry("s1", 3, "bbbb", 800.0),
            entry("s1", 6, "cccc", 1100.0),
        ];
        let out = render_rank(&ledger, Some("quick"));
        assert!(out.contains("0.800x"), "{out}");
        assert!(out.contains("1.100x"), "{out}");
    }
}
