//! # adapt-obs — cross-layer observability for the simulator
//!
//! A zero-cost-when-disabled instrumentation layer threaded through the
//! event loop, the network engine, the MPI progress engine, and the
//! collectives runner:
//!
//! * **Structured spans** — typed begin/end records for event-loop
//!   dispatch, protocol actions (CTS handshakes, rendezvous data
//!   launches, unexpected-queue bookkeeping), per-message lifetimes
//!   (post → match → rendezvous → delivery → callback), compute/GPU
//!   work, and collective phases. All timestamps ride the deterministic
//!   simulation clock (integer nanoseconds), so recorded output is
//!   bit-reproducible across runs.
//! * **Time-series metrics** — sampled gauges (posted/unexpected queue
//!   depth, live-flow count, per-link utilization, event-queue
//!   occupancy) taken at fixed sim-time intervals.
//! * **Streaming telemetry** — the bounded-memory [`StreamRecorder`]
//!   folds every probe into fixed-size aggregates as it fires:
//!   mergeable log-bucketed [`Hist`]ograms (per-flow-class durations,
//!   per-message-stage latencies), a link×time utilization heatmap, and
//!   per-rank busy/idle accounting, exported as an [`ObsSummary`] via
//!   [`summary_json`] / [`summary_report`]. An optional
//!   [`FlightRecorder`] ring keeps the most recent spans and is dumped
//!   as a Chrome-trace fragment on a stall diagnosis or failed audit.
//! * **Exporters** — Chrome trace-event JSON ([`chrome_trace`],
//!   loadable in Perfetto / `chrome://tracing`, one track per rank and
//!   one per link), a flat CSV metrics dump ([`metrics_csv`]), and a
//!   per-rank event timeline CSV ([`events_csv`]).
//! * **Critical-path analysis** — [`critical_path`] walks span
//!   causality backwards from the last completing rank and attributes
//!   the makespan to layers (network, matching, protocol, callbacks,
//!   compute, blocked waiting).
//! * **What-if by re-run** — an [`Intervention`] (noise removal, link
//!   rescale, Coz-style per-layer speedup) is a real configuration of
//!   the simulator: `adapt-cli --whatif` re-runs the spec with it, and
//!   [`diff_runs`] attributes the makespan delta between the two
//!   recordings across (layer × rank × phase) with no unexplained
//!   remainder. The `obs-whatif diff` binary differences exported
//!   recordings (JSON via [`to_json`]/[`from_json`]), and
//!   [`validate_recording`] checks that a recording holds the whole
//!   causal structure.
//!
//! The runtime talks to the layer through the [`Recorder`] trait. The
//! default [`NullRecorder`] compiles every probe down to a single
//! predictable branch on a cached flag; [`MemRecorder`] accumulates an
//! [`ObsData`] for export and analysis. The contract the test suite
//! enforces: attaching any recorder must not move a single event — run
//! results are identical with recording on or off.

mod chrome;
mod critical;
mod diff;
mod events;
mod flight;
mod hist;
mod json;
mod metrics;
mod monitor;
mod record;
mod recorder;
mod stream;
mod validate;
mod whatif;

/// Resolve a link class debug label (`NicTx(3)`, `Backbone`) to a
/// topology name (`node3/nic-tx`, `backbone`). Reports and the health
/// monitor print these instead of raw class labels; unknown labels pass
/// through unchanged, so the mapping is safe on any input.
pub fn topo_label(class: &str) -> String {
    let (variant, arg) = match class.find('(') {
        Some(p) => (&class[..p], class[p + 1..].trim_end_matches(')')),
        None => (class, ""),
    };
    match variant {
        "Shm" => format!("socket{arg}/shm"),
        "InterSocket" => format!("node{arg}/xsocket"),
        "NicTx" => format!("node{arg}/nic-tx"),
        "NicRx" => format!("node{arg}/nic-rx"),
        "Backbone" => "backbone".to_string(),
        "PcieUp" => format!("socket{arg}/pcie-up"),
        "PcieDown" => format!("socket{arg}/pcie-down"),
        "NvLink" => format!("socket{arg}/nvlink"),
        "CoreTx" => format!("core{arg}/core-tx"),
        "CoreRx" => format!("core{arg}/core-rx"),
        _ => class.to_string(),
    }
}

pub use chrome::chrome_trace;
pub use critical::{critical_path, CriticalPath, Layer, Segment, LAYERS};
pub use diff::{diff_runs, DiffBucket, RunDiff};
pub use events::events_csv;
pub use flight::{FlightRecorder, FlightSpan};
pub use hist::{nearest_rank, percentile, Hist, HIST_BUCKETS};
pub use json::{from_json, to_json, FORMAT};
pub use metrics::{metrics_csv, CSV_HEADER, FLOW_CLASSES};
pub use monitor::{
    health_json, health_report_text, AlertKind, HealthAlert, HealthReport, HealthView, Monitor,
    MonitorConfig, SnapshotInput, HEALTH_FORMAT, MAX_REPORT_ALERTS,
};
pub use record::{
    ComputeRec, DispatchSpan, FlowClass, FlowRec, GaugeMetric, GaugeRec, MsgRec, ObsData, PhaseRec,
    ProtoKind, ProtoSpan, Trigger,
};
pub use recorder::{AnyRecorder, FlowStart, MemRecorder, MsgEvent, NullRecorder, Recorder};
pub use stream::{summary_json, summary_report, ObsSummary, StreamRecorder, SUMMARY_FORMAT};
pub use validate::{
    parse_json, validate_chrome, validate_critical_report, validate_health, validate_metrics_csv,
    validate_recording, validate_summary, ChromeSummary, HealthCheck, Json, RecordingCheck,
    SummaryCheck,
};
pub use whatif::{parse_layer, Intervention};
