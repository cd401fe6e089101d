//! `adapt-cli` — run any collective configuration from the command line.
//!
//! ```text
//! adapt-cli --machine cori --nodes 8 --op bcast --lib adapt --msg 4194304 --noise 10 --seed 3
//! adapt-cli --machine psg --nodes 4 --op reduce --lib adapt --msg 33554432 --gpu
//! adapt-cli --machine mini --obs-out run.json --whatif noise-off,scale-link=NicTx:2
//! adapt-cli --op allreduce --nodes 4 --msg 1048576
//! ```

use adapt::collectives::{
    run_intervened, run_once_scoped, world_for_case, CollectiveCase, Library, NoiseScope, OpKind,
};
use adapt::obs::{
    chrome_trace, critical_path, diff_runs, from_json, health_json, health_report_text,
    metrics_csv, predict, render_prediction, render_validation, summary_json, summary_report,
    to_json, AnyRecorder, Intervention, MemRecorder, Monitor, ObsData, StreamRecorder,
};
use adapt::prelude::*;

/// Exit code when the progress watchdog (or a dry event queue) cuts a
/// run short: distinguishes "the schedule was not survivable" from
/// argument errors and panics.
const EXIT_STALLED: i32 = 3;

/// Exit code when ranks were killed (`kill=`/`killnode=`) and the
/// survivors could not complete around them, or a live↔live transfer
/// exhausted its retry budget: a structured failure outcome, distinct
/// from both a plain deadlock ([`EXIT_STALLED`]) and argument errors.
const EXIT_FAILED: i32 = 4;

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
        "noise intensity percent, 0 to <50 (default 0)",
    ),
    ("seed", "S", "master seed (default 1)"),
    ("gpu", "", "run the GPU path (bcast/reduce only)"),
    ("trace", "FILE.csv", "write the event trace as CSV"),
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
dumped to adapt-flight.json on a stall or failed audit",
    ),
    (
        "whatif",
        "SPEC[,SPEC...]",
        "predict interventions (noop|noise-off|rank-noise-off=R|stalls-off|\
scale-link=PAT:F|scale-layer=LAYER:F|speedup=LAYER:PCT); validated by re-run when possible",
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

/// Observability flags: where to write the Chrome trace and metrics CSV,
/// whether to print the critical path, and the bounded-memory streaming
/// path (`--summary-out` / `--flight`).
struct ObsArgs {
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
        if o.streaming() && (o.trace_out.is_some() || o.metrics_out.is_some() || o.critical) {
            usage_error(
                "--summary-out/--flight use the bounded-memory streaming recorder; \
                 --trace-out/--metrics-out/--critical-path need the full recorder — pick one side",
            );
        }
        o
    }

    fn wanted(&self) -> bool {
        self.trace_out.is_some() || self.metrics_out.is_some() || self.critical || self.streaming()
    }

    /// Streaming (aggregate-only) mode: memory stays O(ranks + links +
    /// buckets) no matter how long the run.
    fn streaming(&self) -> bool {
        self.summary_out.is_some() || self.flight.is_some()
    }

    /// The recorder this invocation asked for. Gauge sampling only runs
    /// when a metrics file was requested.
    fn recorder(&self) -> AnyRecorder {
        if self.streaming() {
            let mut r = StreamRecorder::new();
            if let Some(n) = self.flight {
                r = r.with_flight(n);
            }
            r.into()
        } else if self.metrics_out.is_some() {
            MemRecorder::with_metrics(self.interval_ns).into()
        } else {
            MemRecorder::new().into()
        }
    }

    /// Write/print whatever was requested from a recorded run.
    fn emit(&self, res: &adapt::mpi::RunResult) {
        if self.streaming() {
            let s = res
                .summary
                .as_ref()
                .expect("streaming run carries a summary");
            if let Some(path) = &self.summary_out {
                std::fs::write(path, summary_json(s)).expect("write summary");
                println!(
                    "  summary: {} msgs, {} flows aggregated online -> {path}",
                    s.msgs_posted, s.flow_starts
                );
            }
            print!("{}", summary_report(s));
            return;
        }
        let obs = res
            .obs
            .as_ref()
            .expect("recorded run carries observability data");
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

    fn active(&self) -> bool {
        self.interval_ns.is_some() || self.health_out.is_some()
    }

    /// Attach a monitor at the requested (or default) cadence.
    fn attach(&self, world: World) -> World {
        if self.active() {
            world.with_monitor(Monitor::new(self.interval_ns.unwrap_or(10_000)))
        } else {
            world
        }
    }

    /// Print the health summary and write the artifact from a completed
    /// monitored run. A run cut short by a stall or failure never gets
    /// here — its post-mortem is the watchdog diagnosis and flight tail.
    fn emit(&self, res: &adapt::mpi::RunResult) {
        if !self.active() {
            return;
        }
        let h = res
            .health
            .as_ref()
            .expect("monitored run carries a health report");
        print!("{}", health_report_text(h));
        if let Some(path) = &self.health_out {
            std::fs::write(path, health_json(h)).expect("write health");
            println!("  health artifact -> {path}");
        }
    }
}

/// Where a stall or audit post-mortem lands (see `--flight`).
const FLIGHT_DUMP_PATH: &str = "adapt-flight.json";

/// If the run completed but the audit is dirty and a flight ring was
/// kept, write the tail before the audit assert fires.
fn dump_flight_on_dirty_audit(res: &adapt::mpi::RunResult) {
    if let Some(frag) = &res.flight {
        std::fs::write(FLIGHT_DUMP_PATH, frag).expect("write flight dump");
        eprintln!("  flight recorder: audit failed, tail -> {FLIGHT_DUMP_PATH}");
    }
}

/// What-if flags: recording export, counterfactual predictions, and
/// baseline differencing. All three force a recorded run.
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

    /// What-if needs the full recording; the streaming recorder keeps only
    /// aggregates.
    fn check_recorder(&self, obs: &ObsArgs) {
        if self.wanted() && obs.streaming() {
            usage_error(
                "--whatif/--diff-against/--obs-out need the full recorder; \
                 drop --summary-out/--flight",
            );
        }
    }

    /// Emit everything what-if-related from a recorded run. `rerun`
    /// produces the ground-truth makespan of the equivalent real
    /// configuration, or `None` when the intervention is virtual-only
    /// (then the prediction prints without a validation line).
    fn emit(&self, obs: &ObsData, rerun: &dyn Fn(&Intervention) -> Option<u64>) {
        if let Some(path) = &self.obs_out {
            std::fs::write(path, to_json(obs)).expect("write recording");
            println!(
                "  recording: {} msgs, {} dispatches -> {path}",
                obs.msgs.len(),
                obs.dispatches.len()
            );
        }
        for iv in &self.ivs {
            match predict(obs, iv) {
                Ok(p) => match rerun(iv) {
                    Some(actual) => print!("{}", render_validation(iv, &p, actual)),
                    None => print!("{}", render_prediction(iv, &p)),
                },
                Err(e) => println!("whatif {}: refused — {e}", iv.describe()),
            }
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

    fn active(&self) -> bool {
        self.plan.is_some() || self.watchdog.is_some()
    }

    /// Attach the plan and watchdog, then run. An unsurvivable schedule
    /// never panics: a plain deadlock (or a livelock that blows the event
    /// cap) prints its diagnosis and exits with [`EXIT_STALLED`]; killed
    /// ranks the survivors could not complete around (or an exhausted
    /// live↔live retry budget) exit with [`EXIT_FAILED`]. Either way the
    /// flight-recorder tail, when one was kept, is dumped for the
    /// post-mortem.
    fn run(&self, mut world: World, programs: Vec<Box<dyn RankProgram>>) -> adapt::mpi::RunResult {
        if let Some(plan) = &self.plan {
            world = world.with_faults(plan.clone());
        }
        if let Some(h) = self.watchdog {
            world = world.with_watchdog(h);
        }
        match world.try_run(programs) {
            Ok(res) => res,
            Err(err) => {
                if let Some(frag) = err.flight() {
                    std::fs::write(FLIGHT_DUMP_PATH, frag).expect("write flight dump");
                    eprintln!("flight recorder: last spans -> {FLIGHT_DUMP_PATH}");
                }
                eprintln!("{err}");
                let code = match *err {
                    adapt::mpi::RunError::Stalled(_) | adapt::mpi::RunError::EventCap { .. } => {
                        EXIT_STALLED
                    }
                    adapt::mpi::RunError::RanksFailed(_)
                    | adapt::mpi::RunError::RetryBudgetExhausted { .. } => EXIT_FAILED,
                };
                std::process::exit(code);
            }
        }
    }

    /// One-line recovery summary; the CI smoke job greps for this. A
    /// monitored run appends its alert count, so the one grep also
    /// answers "did the detectors notice".
    fn summary(&self, res: &adapt::mpi::RunResult) {
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
    if flag(&args, "gpu") && machine.shape.gpus_per_socket == 0 {
        usage_error("--gpu needs a machine with GPUs (--machine psg)");
    }
    let gpu = machine.shape.gpus_per_socket > 0;
    let msg: u64 = parsed(&args, "msg").unwrap_or(4 << 20);
    let noise: f64 = parsed(&args, "noise").unwrap_or(0.0);
    if !(0.0..50.0).contains(&noise) {
        usage_error(format!("--noise {noise}: must be at least 0 and below 50"));
    }
    let seed: u64 = parsed(&args, "seed").unwrap_or(1);
    let op = arg(&args, "op").unwrap_or_else(|| "bcast".into());
    let lib = arg(&args, "lib").unwrap_or_else(|| "adapt".into());
    let faults = FaultArgs::parse(&args, seed);
    let whatif = WhatIfArgs::parse(&args);
    let monitor = MonitorArgs::parse(&args);

    if gpu {
        if faults.active() {
            usage_error("--faults/--watchdog-horizon run on the CPU path; drop --gpu");
        }
        if whatif.wanted() {
            usage_error("--whatif/--diff-against/--obs-out run on the CPU path");
        }
        if monitor.active() {
            usage_error("--monitor/--health-out snapshot the CPU event loop; drop --gpu");
        }
        let library = match lib.as_str() {
            "adapt" => GpuLibrary::OmpiAdapt,
            "default" => GpuLibrary::OmpiDefault,
            "mvapich" => GpuLibrary::Mvapich,
            other => usage_error(format!("unknown GPU library `{other}`")),
        };
        let opk = match op.as_str() {
            "bcast" => OpKind::Bcast,
            "reduce" => OpKind::Reduce,
            other => usage_error(format!(
                "the GPU runner supports bcast/reduce, not `{other}`"
            )),
        };
        let case = GpuCase {
            nranks: machine.gpu_job_size(),
            machine,
            op: opk,
            library,
            msg_bytes: msg,
        };
        let (us, stats) = run_gpu_once(&case);
        println!(
            "{op} ({}) on {} GPUs, {msg} bytes: {us:.1} us",
            library.label(),
            case.nranks
        );
        println!(
            "  events={} messages={} rendezvous={}",
            stats.events, stats.messages, stats.rendezvous
        );
        println!("  audit: clean (invariants asserted by the runner)");
        return;
    }

    // Checked for every op, although only bcast/reduce read it: a typo'd
    // library must not silently run ADAPT.
    let library = match lib.as_str() {
        "adapt" => Library::OmpiAdapt,
        "default" => Library::OmpiDefault,
        "default-topo" => Library::OmpiDefaultTopo,
        "intel" => Library::IntelMpi,
        "cray" => Library::CrayMpi,
        "mvapich" => Library::Mvapich,
        other => usage_error(format!("unknown library `{other}`")),
    };

    if flag(&args, "describe") {
        print!("{}", adapt::topology::describe_machine(&machine));
        return;
    }

    let nranks = machine.cpu_job_size();
    // Collectives beyond bcast/reduce run through their adapt-core specs.
    match op.as_str() {
        "allreduce" | "allgather" | "alltoall" | "scan" | "scatter" | "gather" | "barrier" => {
            let cfg = AdaptConfig::default();
            let programs = match op.as_str() {
                "allreduce" => AllreduceSpec {
                    nranks,
                    msg_bytes: msg,
                    cfg,
                    data: None,
                }
                .programs(),
                "allgather" => AllgatherSpec {
                    nranks,
                    msg_bytes: msg,
                    cfg,
                    data: None,
                }
                .programs(),
                "alltoall" => adapt::core::AlltoallSpec {
                    nranks,
                    msg_bytes: msg - msg % nranks as u64,
                    cfg,
                    data: None,
                }
                .programs(),
                "scan" => adapt::core::ScanSpec {
                    nranks,
                    msg_bytes: msg,
                    cfg,
                    data: None,
                }
                .programs(),
                "scatter" => ScatterSpec {
                    nranks,
                    msg_bytes: msg,
                    cfg,
                    data: None,
                }
                .programs(),
                "gather" => GatherSpec {
                    nranks,
                    msg_bytes: msg,
                    cfg,
                    data: None,
                }
                .programs(),
                _ => BarrierSpec { nranks }.programs(),
            };
            let noise_model = if noise > 0.0 {
                ClusterNoise::uniform(nranks, NoiseSpec::uniform_percent(noise), MasterSeed(seed))
            } else {
                ClusterNoise::silent(nranks)
            };
            let obs = ObsArgs::parse(&args);
            whatif.check_recorder(&obs);
            let mut world = monitor.attach(World::cpu(machine, nranks, noise_model));
            if obs.wanted() || whatif.wanted() {
                world = world.with_recorder(obs.recorder());
            }
            let res = faults.run(world, programs);
            dump_flight_on_dirty_audit(&res);
            println!(
                "{op} (ADAPT) on {nranks} ranks, {msg} bytes: {:.1} us",
                res.makespan.as_micros_f64()
            );
            print!("{}", res.stats);
            faults.summary(&res);
            println!("  {}", res.audit);
            monitor.emit(&res);
            if obs.wanted() {
                obs.emit(&res);
            }
            if whatif.wanted() {
                // No runner-level re-run path for spec-built programs:
                // predictions print without a ground-truth line.
                let data = res.obs.as_ref().expect("recorder attached");
                whatif.emit(data, &|_| None);
            }
            return;
        }
        _ => {}
    }

    let opk = match op.as_str() {
        "bcast" => OpKind::Bcast,
        "reduce" => OpKind::Reduce,
        other => usage_error(format!("unknown op `{other}`")),
    };
    let case = CollectiveCase {
        machine,
        nranks,
        op: opk,
        library,
        msg_bytes: msg,
    };
    if let Some(path) = arg(&args, "trace") {
        // Traced single run (ignores --noise scope subtleties).
        let noise_model =
            adapt::collectives::noise_for_case(&case, NoiseScope::PerNode, noise, seed);
        let world = monitor
            .attach(World::cpu(case.machine.clone(), case.nranks, noise_model))
            .enable_trace();
        let res = faults.run(world, case.programs());
        std::fs::write(&path, adapt::mpi::trace_to_csv(&res.trace)).expect("write trace");
        println!(
            "{op} ({}) on {nranks} ranks: {:.1} us — {} trace events written to {path}",
            library.label(),
            res.makespan.as_micros_f64(),
            res.trace.len()
        );
        faults.summary(&res);
        println!("  {}", res.audit);
        monitor.emit(&res);
        return;
    }
    let obs = ObsArgs::parse(&args);
    whatif.check_recorder(&obs);
    if obs.wanted() || whatif.wanted() {
        // Recorded run: same world and programs as run_once_scoped, with a
        // recorder attached. Results are identical either way — recording
        // never perturbs the simulation.
        let (world, programs) = world_for_case(&case, NoiseScope::PerNode, noise, seed);
        let res = faults.run(
            monitor.attach(world).with_recorder(obs.recorder()),
            programs,
        );
        dump_flight_on_dirty_audit(&res);
        assert!(res.audit.is_clean(), "{}", res.audit);
        println!(
            "{op} ({}) on {nranks} ranks, {msg} bytes, {noise}% noise: {:.1} us",
            library.label(),
            res.makespan.as_micros_f64()
        );
        print!("{}", res.stats);
        faults.summary(&res);
        println!("  audit: clean (invariants asserted by the runner)");
        monitor.emit(&res);
        if obs.wanted() {
            obs.emit(&res);
        }
        if whatif.wanted() {
            let data = res.obs.as_ref().expect("recorder attached");
            let no_faults = !faults.active();
            whatif.emit(data, &|iv| {
                // Ground truth: re-run the real simulator under the
                // equivalent configuration. Virtual-only interventions
                // (layer scaling) and faulted runs have no equivalent.
                if !no_faults {
                    return None;
                }
                run_intervened(&case, NoiseScope::PerNode, noise, seed, iv, 0)
                    .ok()
                    .map(|r| r.makespan.as_nanos())
            });
        }
        return;
    }
    if faults.active() {
        let (world, programs) = world_for_case(&case, NoiseScope::PerNode, noise, seed);
        let res = faults.run(monitor.attach(world), programs);
        assert!(res.audit.is_clean(), "{}", res.audit);
        println!(
            "{op} ({}) on {nranks} ranks, {msg} bytes, {noise}% noise: {:.1} us",
            library.label(),
            res.makespan.as_micros_f64()
        );
        print!("{}", res.stats);
        faults.summary(&res);
        println!("  audit: clean (invariants asserted by the runner)");
        monitor.emit(&res);
        return;
    }
    if monitor.active() {
        // Same world and programs as run_once_scoped, with the health
        // monitor attached — the printed times must match the plain run
        // byte for byte; only the health block is new.
        let (world, programs) = world_for_case(&case, NoiseScope::PerNode, noise, seed);
        let res = monitor.attach(world).run(programs);
        assert!(res.audit.is_clean(), "{}", res.audit);
        println!(
            "{op} ({}) on {nranks} ranks, {msg} bytes, {noise}% noise: {:.1} us",
            library.label(),
            res.makespan.as_micros_f64()
        );
        print!("{}", res.stats);
        println!("  audit: clean (invariants asserted by the runner)");
        monitor.emit(&res);
        return;
    }
    let (us, stats) = run_once_scoped(&case, NoiseScope::PerNode, noise, seed);
    println!(
        "{op} ({}) on {nranks} ranks, {msg} bytes, {noise}% noise: {us:.1} us",
        library.label()
    );
    print!("{stats}");
    println!("  audit: clean (invariants asserted by the runner)");
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
