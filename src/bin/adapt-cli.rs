//! `adapt-cli` — run any collective configuration from the command line.
//!
//! ```text
//! adapt-cli --machine cori --nodes 8 --op bcast --lib adapt --msg 4194304 --noise 10 --seed 3
//! adapt-cli --machine psg --nodes 4 --op reduce --lib adapt --msg 33554432 --gpu
//! adapt-cli --machine mini --obs-out run.json --whatif noise-off,scale-link=NicTx:2,speedup=network:25
//! adapt-cli --op allreduce --nodes 4 --msg 1048576
//! ```

use adapt::collectives::{
    execute, CollectiveCase, Device, Library, Noise, NoiseScope, OpKind, ProgramBuilder, Recording,
    RunSpec,
};
use adapt::mpi::{RunError, RunResult};
use adapt::obs::{
    chrome_trace, critical_path, diff_runs, events_csv, from_json, health_json, health_report_text,
    metrics_csv, summary_json, summary_report, to_json, Intervention, ObsData,
};
use adapt::prelude::*;
use std::sync::Arc;

/// Exit code when the progress watchdog (or a dry event queue) cuts a
/// run short: distinguishes "the schedule was not survivable" from
/// argument errors and panics.
const EXIT_STALLED: i32 = 3;

/// Exit code when ranks were killed (`kill=`/`killnode=`) and the
/// survivors could not complete around them, or a live↔live transfer
/// exhausted its retry budget: a structured failure outcome, distinct
/// from both a plain deadlock ([`EXIT_STALLED`]) and argument errors.
const EXIT_FAILED: i32 = 4;

/// Exit code when a run completes but its end-of-run invariant audit is
/// dirty: the simulator (or an algorithm driving it) miscounted. The
/// flight-recorder tail, when `--flight` kept one, is dumped first.
const EXIT_AUDIT: i32 = 5;

/// Every flag the CLI understands: `(name, value placeholder, help)`.
/// An empty placeholder marks a boolean flag. The usage string is
/// generated from this table, and [`arg`]/[`flag`] refuse names that are
/// not in it — a flag cannot be parsed without appearing in the usage.
const FLAGS: &[(&str, &str, &str)] = &[
    (
        "machine",
        "cori|stampede2|psg|mini",
        "machine profile (default mini)",
    ),
    ("nodes", "N", "node count (default 4)"),
    (
        "op",
        "bcast|reduce|allreduce|allgather|alltoall|scan|scatter|gather|barrier",
        "collective operation (default bcast)",
    ),
    (
        "lib",
        "adapt|default|default-topo|intel|cray|mvapich",
        "library preset (default adapt)",
    ),
    ("msg", "BYTES", "message size (default 4 MiB)"),
    (
        "noise",
        "PCT",
        "noise intensity percent, 0 to <50 (default 0); bcast/reduce inject it on \
one rank per node, the other ops on every rank",
    ),
    ("seed", "S", "master seed (default 1)"),
    (
        "gpu",
        "",
        "place one rank per GPU instead of per core (bcast/reduce only)",
    ),
    (
        "trace",
        "FILE.csv",
        "write the per-rank event timeline (time_ns,rank,kind,peer,amount) as CSV",
    ),
    ("describe", "", "print the machine topology and exit"),
    (
        "trace-out",
        "FILE.json",
        "write a Chrome trace from a recorded run",
    ),
    ("metrics-out", "FILE.csv", "write time-series metrics CSV"),
    (
        "metrics-interval",
        "NS",
        "gauge sampling interval (default 10000)",
    ),
    ("critical-path", "", "print the critical-path report"),
    (
        "obs-out",
        "FILE.json",
        "export the full recording (adapt-obs-v1 JSON)",
    ),
    (
        "summary-out",
        "FILE.json",
        "stream a bounded-memory telemetry summary (adapt-obs-summary-v1 \
JSON) and print the percentile/hot-spot report",
    ),
    (
        "flight",
        "N",
        "keep a flight ring of the last N spans (streaming recorder); \
dumped to adapt-flight.json on a stall, a failure or a dirty audit (exit 5)",
    ),
    (
        "whatif",
        "SPEC[,SPEC...]",
        "re-run with each intervention (noop|noise-off|rank-noise-off=R|stalls-off|\
scale-link=PAT:F|scale-layer=LAYER:F|speedup=LAYER:PCT) and attribute the makespan delta",
    ),
    (
        "diff-against",
        "FILE.json",
        "diff this run against a baseline recording",
    ),
    (
        "faults",
        "loss=P,rto=DUR,retries=N,jitter=F,stall=R:S-E,down=S-E,degrade=F:S-E,\
kill=R:T,killnode=N:T",
        "fault-injection plan",
    ),
    ("watchdog-horizon", "DUR", "abort if no progress for DUR"),
    (
        "monitor",
        "NS",
        "online health monitor: snapshot the run every NS of simulated time \
and run the anomaly detectors (straggler, hot-link, retransmit-storm, flatline)",
    ),
    (
        "health-out",
        "FILE.json",
        "write the health report (adapt-obs-health-v1 JSON); implies \
--monitor at the default 10000ns cadence",
    ),
    ("help", "", "print this usage"),
];

fn usage() -> String {
    let mut o = String::from("usage: adapt-cli [flags]\n");
    for (name, value, help) in FLAGS {
        let left = if value.is_empty() {
            format!("--{name}")
        } else {
            format!("--{name} {value}")
        };
        if left.len() > 38 {
            o.push_str(&format!("  {left}\n  {:38}  {help}\n", ""));
        } else {
            o.push_str(&format!("  {left:38}  {help}\n"));
        }
    }
    o
}

fn known(key: &str) -> bool {
    FLAGS.iter().any(|&(name, _, _)| name == key)
}

/// Exit code for bad input (unknown flag, missing or malformed value,
/// incompatible flags): the reason and the usage go to stderr.
const EXIT_USAGE: i32 = 2;

/// Reject the command line with a one-line reason plus usage.
fn usage_error(reason: impl std::fmt::Display) -> ! {
    eprint!("adapt-cli: {reason}\n{}", usage());
    std::process::exit(EXIT_USAGE);
}

/// Check the command line's shape before anything reads it: every token
/// is a known `--flag`, each valued flag is followed by its value, and no
/// flag is given twice. [`arg`]/[`flag`] can then trust what they find.
fn check_args(args: &[String]) -> Result<(), String> {
    let mut seen: Vec<&str> = Vec::new();
    let mut i = 0;
    while i < args.len() {
        let tok = &args[i];
        let Some(name) = tok.strip_prefix("--") else {
            return Err(format!("unexpected argument `{tok}`"));
        };
        let Some(&(_, value, _)) = FLAGS.iter().find(|&&(n, _, _)| n == name) else {
            return Err(format!("unknown flag `{tok}`"));
        };
        if seen.contains(&name) {
            return Err(format!("`{tok}` given twice"));
        }
        seen.push(name);
        if !value.is_empty() {
            match args.get(i + 1) {
                Some(v) if !v.starts_with("--") => i += 1,
                _ => return Err(format!("`{tok}` needs a value ({value})")),
            }
        }
        i += 1;
    }
    Ok(())
}

fn arg(args: &[String], key: &str) -> Option<String> {
    assert!(known(key), "flag --{key} is missing from the FLAGS table");
    args.iter()
        .position(|a| a == &format!("--{key}"))
        .and_then(|i| args.get(i + 1).cloned())
}

fn flag(args: &[String], key: &str) -> bool {
    assert!(known(key), "flag --{key} is missing from the FLAGS table");
    args.iter().any(|a| a == &format!("--{key}"))
}

/// `--key`'s value parsed as `T`, or a usage error naming the bad value.
fn parsed<T: std::str::FromStr>(args: &[String], key: &str) -> Option<T>
where
    T::Err: std::fmt::Display,
{
    arg(args, key).map(|s| {
        s.parse()
            .unwrap_or_else(|e| usage_error(format!("--{key} `{s}`: {e}")))
    })
}

/// Observability flags: the event-timeline CSV, the Chrome trace and
/// metrics CSV, whether to print the critical path, and the
/// bounded-memory streaming path (`--summary-out` / `--flight`).
struct ObsArgs {
    events_csv: Option<String>,
    trace_out: Option<String>,
    metrics_out: Option<String>,
    critical: bool,
    interval_ns: u64,
    summary_out: Option<String>,
    flight: Option<usize>,
}

impl ObsArgs {
    fn parse(args: &[String]) -> ObsArgs {
        let o = ObsArgs {
            events_csv: arg(args, "trace"),
            trace_out: arg(args, "trace-out"),
            metrics_out: arg(args, "metrics-out"),
            critical: flag(args, "critical-path"),
            interval_ns: parsed(args, "metrics-interval").unwrap_or(10_000),
            summary_out: arg(args, "summary-out"),
            flight: parsed(args, "flight"),
        };
        if o.interval_ns == 0 {
            usage_error("--metrics-interval needs a positive interval");
        }
        if o.flight == Some(0) {
            usage_error("--flight needs at least 1 span");
        }
        o
    }

    /// The recorder this invocation asks for. The streaming recorder
    /// keeps only aggregates, so it cannot serve any flag that needs the
    /// full recording (what-if included). Gauge sampling only runs when
    /// a metrics file was requested.
    fn recording(&self, whatif: &WhatIfArgs) -> Recording {
        let full = self.events_csv.is_some()
            || self.trace_out.is_some()
            || self.metrics_out.is_some()
            || self.critical
            || whatif.wanted();
        if self.summary_out.is_some() || self.flight.is_some() {
            if full {
                usage_error(
                    "--summary-out/--flight use the bounded-memory streaming recorder; \
                     --trace/--trace-out/--metrics-out/--critical-path/--obs-out/--whatif/\
                     --diff-against need the full recorder — pick one side",
                );
            }
            Recording::Streaming {
                flight: self.flight,
            }
        } else if full {
            Recording::Full {
                metrics_interval_ns: self.metrics_out.as_ref().map(|_| self.interval_ns),
            }
        } else {
            Recording::Off
        }
    }

    /// Write/print whatever was requested from a recorded run.
    fn emit(&self, res: &RunResult) {
        if let Some(s) = &res.summary {
            if let Some(path) = &self.summary_out {
                std::fs::write(path, summary_json(s)).expect("write summary");
                println!(
                    "  summary: {} msgs, {} flows aggregated online -> {path}",
                    s.msgs_posted, s.flow_starts
                );
            }
            print!("{}", summary_report(s));
        }
        let Some(obs) = &res.obs else { return };
        if let Some(path) = &self.trace_out {
            std::fs::write(path, chrome_trace(obs)).expect("write trace");
            println!(
                "  trace: {} spans over {} msgs -> {path}",
                obs.dispatches.len() + obs.protocols.len(),
                obs.msgs.len()
            );
        }
        if let Some(path) = &self.metrics_out {
            std::fs::write(path, metrics_csv(obs)).expect("write metrics");
            println!("  metrics: {} samples -> {path}", obs.gauges.len());
        }
        if self.critical {
            print!("{}", critical_path(obs).render());
        }
        if let Some(path) = &self.events_csv {
            let csv = events_csv(obs);
            std::fs::write(path, &csv).expect("write event CSV");
            println!("  events: {} rows -> {path}", csv.lines().count() - 1);
        }
    }
}

/// Health-monitor flags: the snapshot cadence (`--monitor`) and the
/// optional artifact path (`--health-out`, which implies monitoring at
/// the default cadence).
struct MonitorArgs {
    interval_ns: Option<u64>,
    health_out: Option<String>,
}

impl MonitorArgs {
    fn parse(args: &[String]) -> MonitorArgs {
        let interval_ns = parsed(args, "monitor");
        if interval_ns == Some(0) {
            usage_error("--monitor needs a positive interval");
        }
        MonitorArgs {
            interval_ns,
            health_out: arg(args, "health-out"),
        }
    }

    /// The snapshot cadence, when monitoring was asked for.
    fn interval(&self) -> Option<u64> {
        self.interval_ns
            .or(self.health_out.as_ref().map(|_| 10_000))
    }

    /// Print the health summary and write the artifact from a completed
    /// monitored run. A run cut short by a stall or failure never gets
    /// here — its post-mortem is the watchdog diagnosis and flight tail.
    fn emit(&self, res: &RunResult) {
        let Some(h) = &res.health else { return };
        print!("{}", health_report_text(h));
        if let Some(path) = &self.health_out {
            std::fs::write(path, health_json(h)).expect("write health");
            println!("  health artifact -> {path}");
        }
    }
}

/// Where a stall or audit post-mortem lands (see `--flight`).
const FLIGHT_DUMP_PATH: &str = "adapt-flight.json";

/// What-if flags: recording export, intervention re-runs, and baseline
/// differencing. All three force a recorded run.
struct WhatIfArgs {
    ivs: Vec<Intervention>,
    diff_against: Option<String>,
    obs_out: Option<String>,
}

impl WhatIfArgs {
    fn parse(args: &[String]) -> WhatIfArgs {
        WhatIfArgs {
            ivs: arg(args, "whatif")
                .map(|list| {
                    list.split(',')
                        .map(|s| {
                            Intervention::parse(s.trim())
                                .unwrap_or_else(|e| usage_error(format!("--whatif {s}: {e}")))
                        })
                        .collect()
                })
                .unwrap_or_default(),
            diff_against: arg(args, "diff-against"),
            obs_out: arg(args, "obs-out"),
        }
    }

    fn wanted(&self) -> bool {
        !self.ivs.is_empty() || self.diff_against.is_some() || self.obs_out.is_some()
    }

    /// Refuse a `rank-noise-off` rank outside the job before anything runs.
    fn check_ranks(&self, nranks: u32) {
        for iv in &self.ivs {
            if let Intervention::RankNoiseOff(r) = iv {
                if *r >= nranks {
                    usage_error(format!(
                        "--whatif rank-noise-off={r}: the job has {nranks} ranks"
                    ));
                }
            }
        }
    }

    /// Emit everything what-if-related from a recorded run: the export,
    /// then per intervention a re-run of `spec` with it applied, its
    /// makespan delta, and the diff attributing that delta.
    fn emit(&self, obs: &ObsData, spec: &RunSpec) {
        if let Some(path) = &self.obs_out {
            std::fs::write(path, to_json(obs)).expect("write recording");
            println!(
                "  recording: {} msgs, {} dispatches -> {path}",
                obs.msgs.len(),
                obs.dispatches.len()
            );
        }
        for iv in &self.ivs {
            let rerun = RunSpec {
                intervention: Some(iv.clone()),
                ..spec.clone()
            };
            let res = execute(&rerun).unwrap_or_else(|err| fail(&err));
            let Some(data) = &res.obs else { continue };
            let (base, new) = (obs.makespan_ns(), data.makespan_ns());
            println!(
                "whatif {}: baseline {:.3} us, re-run {:.3} us, delta {:+} ns, ratio x{:.4}",
                iv.describe(),
                base as f64 / 1000.0,
                new as f64 / 1000.0,
                new as i64 - base as i64,
                new as f64 / base.max(1) as f64
            );
            print!("{}", diff_runs(obs, data).render());
        }
        if let Some(base) = &self.diff_against {
            let text = std::fs::read_to_string(base)
                .unwrap_or_else(|e| usage_error(format!("--diff-against {base}: {e}")));
            let a = from_json(&text)
                .unwrap_or_else(|e| usage_error(format!("--diff-against {base}: {e}")));
            print!("{}", diff_runs(&a, obs).render());
        }
    }
}

/// Fault-injection flags: a `--faults` plan (see [`FaultPlan::parse`] for
/// the grammar) and an optional `--watchdog-horizon`.
struct FaultArgs {
    plan: Option<FaultPlan>,
    watchdog: Option<Duration>,
}

impl FaultArgs {
    fn parse(args: &[String], seed: u64) -> FaultArgs {
        FaultArgs {
            plan: arg(args, "faults").map(|s| {
                FaultPlan::parse(&s, seed)
                    .unwrap_or_else(|e| usage_error(format!("--faults {s}: {e}")))
            }),
            watchdog: arg(args, "watchdog-horizon").map(|s| {
                adapt::faults::parse_duration(&s)
                    .unwrap_or_else(|e| usage_error(format!("--watchdog-horizon {s}: {e}")))
            }),
        }
    }

    /// One-line recovery summary; the CI smoke job greps for this. A
    /// monitored run appends its alert count, so the one grep also
    /// answers "did the detectors notice".
    fn summary(&self, res: &RunResult) {
        if self.plan.is_none() {
            return;
        }
        let s = &res.stats;
        let alerts = res
            .health
            .as_ref()
            .map(|h| format!(" alerts={}", h.total_alerts()))
            .unwrap_or_default();
        println!(
            "  recovery: drops={} retransmits={} acks={} dups={} backoff={}ns \
             killed={} detected={}{alerts}",
            s.drops_injected,
            s.retransmits,
            s.acks,
            s.duplicates_suppressed,
            s.backoff_time,
            s.ranks_killed,
            s.failures_detected
        );
    }
}

/// A run that produced no result: dump the flight-recorder tail when one
/// was kept, print the diagnosis, and exit with the outcome's code — a
/// deadlock or blown event cap [`EXIT_STALLED`], killed ranks the
/// survivors could not complete around (or an exhausted live↔live retry
/// budget) [`EXIT_FAILED`], a dirty invariant audit [`EXIT_AUDIT`], a
/// what-if link rescale matching no link [`EXIT_USAGE`].
fn fail(err: &RunError) -> ! {
    if let Some(frag) = err.flight() {
        std::fs::write(FLIGHT_DUMP_PATH, frag).expect("write flight dump");
        eprintln!("flight recorder: last spans -> {FLIGHT_DUMP_PATH}");
    }
    eprintln!("{err}");
    std::process::exit(match err {
        RunError::Stalled(_) | RunError::EventCap { .. } => EXIT_STALLED,
        RunError::RanksFailed(_) | RunError::RetryBudgetExhausted { .. } => EXIT_FAILED,
        RunError::AuditFailed { .. } => EXIT_AUDIT,
        RunError::NoSuchLink { .. } => EXIT_USAGE,
    })
}

/// The collective a command line names: the base [`RunSpec`] (machine,
/// ranks, placement, programs), its op and library labels for the
/// header, the bytes it actually moves, and where its noise lands.
struct Job {
    spec: RunSpec,
    op: String,
    label: String,
    msg: u64,
    scope: NoiseScope,
}

impl Job {
    fn parse(args: &[String], machine: MachineSpec, device: Device) -> Job {
        let msg: u64 = parsed(args, "msg").unwrap_or(4 << 20);
        let op = arg(args, "op").unwrap_or_else(|| "bcast".into());
        let lib = arg(args, "lib").unwrap_or_else(|| "adapt".into());
        let opk = match op.as_str() {
            "bcast" => Some(OpKind::Bcast),
            "reduce" => Some(OpKind::Reduce),
            _ => None,
        };
        if device == Device::Gpu {
            let library = match lib.as_str() {
                "adapt" => GpuLibrary::OmpiAdapt,
                "default" => GpuLibrary::OmpiDefault,
                "mvapich" => GpuLibrary::Mvapich,
                other => usage_error(format!("unknown GPU library `{other}`")),
            };
            let Some(kind) = opk else {
                usage_error(format!("the GPU runner supports bcast/reduce, not `{op}`"))
            };
            let case = GpuCase {
                nranks: machine.gpu_job_size(),
                machine,
                op: kind,
                library,
                msg_bytes: msg,
            };
            return Job {
                spec: case.spec(),
                op,
                label: library.label().into(),
                msg,
                scope: NoiseScope::PerNode,
            };
        }
        // Checked for every op, although only bcast/reduce read it: a
        // typo'd library must not silently run ADAPT.
        let library = match lib.as_str() {
            "adapt" => Library::OmpiAdapt,
            "default" => Library::OmpiDefault,
            "default-topo" => Library::OmpiDefaultTopo,
            "intel" => Library::IntelMpi,
            "cray" => Library::CrayMpi,
            "mvapich" => Library::Mvapich,
            other => usage_error(format!("unknown library `{other}`")),
        };
        let nranks = machine.cpu_job_size();
        if let Some(kind) = opk {
            let case = CollectiveCase {
                machine,
                nranks,
                op: kind,
                library,
                msg_bytes: msg,
            };
            return Job {
                spec: case.spec(),
                op,
                label: library.label(),
                msg,
                scope: NoiseScope::PerNode,
            };
        }
        // Collectives beyond bcast/reduce run through their adapt-core
        // specs. Alltoall moves whole per-rank blocks.
        let msg_bytes = if op == "alltoall" {
            msg - msg % nranks as u64
        } else {
            msg
        };
        if msg > 0 && msg_bytes == 0 {
            usage_error(format!(
                "--msg {msg}: alltoall needs at least one byte per rank ({nranks})"
            ));
        }
        // Every adapt-core spec but the barrier has the same four fields.
        macro_rules! adapt_core {
            ($spec:ident) => {
                Arc::new(move || {
                    let cfg = AdaptConfig::default();
                    let data = None;
                    $spec {
                        nranks,
                        msg_bytes,
                        cfg,
                        data,
                    }
                    .programs()
                })
            };
        }
        let programs: ProgramBuilder = match op.as_str() {
            "allreduce" => adapt_core!(AllreduceSpec),
            "allgather" => adapt_core!(AllgatherSpec),
            "alltoall" => adapt_core!(AlltoallSpec),
            "scan" => adapt_core!(ScanSpec),
            "scatter" => adapt_core!(ScatterSpec),
            "gather" => adapt_core!(GatherSpec),
            "barrier" => Arc::new(move || BarrierSpec { nranks }.programs()),
            other => usage_error(format!("unknown op `{other}`")),
        };
        Job {
            spec: RunSpec::new(machine, nranks, programs),
            op,
            label: "ADAPT".into(),
            msg: msg_bytes,
            scope: NoiseScope::AllRanks,
        }
    }
}

fn main() {
    let args: Vec<String> = std::env::args().skip(1).collect();
    if let Err(reason) = check_args(&args) {
        usage_error(reason);
    }
    if flag(&args, "help") || args.is_empty() {
        eprint!("{}", usage());
        return;
    }
    let nodes: u32 = parsed(&args, "nodes").unwrap_or(4);
    if nodes == 0 {
        usage_error("--nodes must be at least 1");
    }
    let machine = match arg(&args, "machine").as_deref() {
        Some("stampede2") => profiles::stampede2(nodes),
        Some("psg") => profiles::psg(nodes),
        Some("mini") | None => profiles::minicluster(nodes, 2, 8),
        Some("cori") => profiles::cori(nodes),
        Some(other) => usage_error(format!("unknown machine `{other}`")),
    };
    let device = if flag(&args, "gpu") {
        if machine.shape.gpus_per_socket == 0 {
            usage_error("--gpu needs a machine with GPUs (--machine psg)");
        }
        Device::Gpu
    } else {
        Device::Cpu
    };
    if flag(&args, "describe") {
        print!("{}", adapt::topology::describe_machine(&machine));
        return;
    }
    let noise: f64 = parsed(&args, "noise").unwrap_or(0.0);
    if !(0.0..50.0).contains(&noise) {
        usage_error(format!("--noise {noise}: must be at least 0 and below 50"));
    }
    let seed: u64 = parsed(&args, "seed").unwrap_or(1);
    let faults = FaultArgs::parse(&args, seed);
    let whatif = WhatIfArgs::parse(&args);
    let monitor = MonitorArgs::parse(&args);
    let obs = ObsArgs::parse(&args);
    let job = Job::parse(&args, machine, device);
    whatif.check_ranks(job.spec.nranks);

    let spec = RunSpec {
        noise: Noise {
            percent: noise,
            scope: job.scope,
            seed,
        },
        faults: faults.plan.clone(),
        watchdog: faults.watchdog,
        monitor_ns: monitor.interval(),
        recorder: obs.recording(&whatif),
        ..job.spec
    };
    let res = execute(&spec).unwrap_or_else(|err| fail(&err));

    let units = match spec.device {
        Device::Cpu => "ranks",
        Device::Gpu => "GPUs",
    };
    println!(
        "{} ({}) on {} {units}, {} bytes, {noise}% noise: {:.1} us",
        job.op,
        job.label,
        spec.nranks,
        job.msg,
        res.makespan.as_micros_f64()
    );
    print!("{}", res.stats);
    faults.summary(&res);
    println!("  {}", res.audit);
    monitor.emit(&res);
    obs.emit(&res);
    if let Some(data) = &res.obs {
        whatif.emit(data, &spec);
    }
}

#[cfg(test)]
mod tests {
    use super::{known, usage, FLAGS};
    use adapt::mpi::WorldStats;

    /// Satellite guarantee: the CLI's stats block is generated from the
    /// struct itself, so every counter — present and future — appears.
    #[test]
    fn stats_display_covers_every_field() {
        let stats = WorldStats::default();
        let shown = format!("{stats}");
        for name in WorldStats::FIELD_NAMES {
            assert!(
                shown.contains(name),
                "WorldStats Display is missing field {name:?}:\n{shown}"
            );
        }
        assert_eq!(shown.lines().count(), WorldStats::FIELD_NAMES.len());
    }

    /// Satellite guarantee: every flag the CLI parses appears in the
    /// usage string. `arg`/`flag` assert membership in [`FLAGS`], and the
    /// usage is generated from the same table, so the two cannot drift.
    #[test]
    fn usage_lists_every_parsed_flag() {
        let text = usage();
        for (name, _, help) in FLAGS {
            assert!(
                text.contains(&format!("--{name}")),
                "usage is missing --{name}:\n{text}"
            );
            assert!(!help.is_empty(), "--{name} needs a help line");
        }
        assert!(known("whatif") && known("diff-against") && known("obs-out"));
    }

    #[test]
    #[should_panic(expected = "missing from the FLAGS table")]
    fn unknown_flags_cannot_be_parsed() {
        super::arg(&[], "no-such-flag");
    }
}
