//! Online health monitor: periodic in-run snapshots, deterministic
//! anomaly detectors and a final [`HealthReport`] — the sensing half of
//! the paper's adaptive loop.
//!
//! A [`Monitor`] rides the deterministic event queue: the world pops a
//! snapshot timer event every `interval_ns` of *simulated* time and
//! feeds the monitor a [`SnapshotInput`] assembled from state the
//! simulation maintains anyway (per-rank progress watermarks and
//! posted/unexpected queue depths, per-link utilization, in-flight
//! bytes, retransmit/ack counters). Four typed detectors run over
//! consecutive snapshots, entirely in integer arithmetic, so the alert
//! stream is a pure function of the event stream — byte-identical at
//! any worker-thread count:
//!
//! * **straggler** — once a configurable quorum of ranks has finished,
//!   a rank still unfinished past `factor ×` the quorum-percentile
//!   finish watermark is lagging its peers anomalously. Keying the lag
//!   off the peers' *finish* watermarks (not raw busy time) keeps
//!   legitimately-waiting leaves of a broadcast tree from ever firing
//!   on a clean run.
//! * **hot link** — a link whose utilization EWMA holds more than a
//!   threshold share of its link class (NIC-tx vs NIC-tx, backbone vs
//!   backbone) for K consecutive snapshots. Shares within a class make
//!   a degraded link stand out while a uniformly saturated fabric
//!   (every NIC busy in a pipelined broadcast) stays quiet.
//! * **retransmit storm** — the reliability layer's retransmit counter
//!   jumping by more than a threshold within one snapshot interval.
//! * **progress flatline** — a softer, earlier signal than the
//!   watchdog: several consecutive snapshots in which no rank finished,
//!   no busy time accrued, no bytes moved, and the network is empty,
//!   while ranks remain unfinished.
//!
//! Every alert is latched (one per subject per sustained episode) and
//! re-armed when the condition clears, so the stream stays bounded and
//! readable. Alerts flow two ways: into the attached recorder (Chrome
//! trace + flight ring) and into the final [`HealthReport`], exported as
//! the dependency-free `adapt-obs-health-v1` JSON artifact
//! ([`health_json`], validated by `obs-validate`).

/// Format tag written into (and required from) every health artifact.
pub const HEALTH_FORMAT: &str = "adapt-obs-health-v1";

/// Alerts kept verbatim in the report; later ones are counted but
/// dropped (`HealthReport::dropped_alerts`) so a pathological run
/// cannot grow the artifact without bound.
pub const MAX_REPORT_ALERTS: usize = 1024;

/// What a detector fired on.
#[derive(Clone, Copy, Debug, PartialEq, Eq)]
pub enum AlertKind {
    /// A rank lagging the quorum finish watermark by the factor.
    Straggler,
    /// A link holding an outsized utilization share of its class.
    HotLink,
    /// Retransmits spiking within one snapshot interval.
    RetransmitStorm,
    /// Nothing progressed for several consecutive snapshots.
    ProgressFlatline,
}

impl AlertKind {
    /// Every kind, in canonical index order (the order of the `counts`
    /// object in the health artifact).
    pub const ALL: [AlertKind; 4] = [
        AlertKind::Straggler,
        AlertKind::HotLink,
        AlertKind::RetransmitStorm,
        AlertKind::ProgressFlatline,
    ];

    /// Position in [`AlertKind::ALL`].
    pub const fn index(self) -> usize {
        self as usize
    }

    /// Stable lowercase label (artifact field name / trace event name).
    pub fn label(&self) -> &'static str {
        match self {
            AlertKind::Straggler => "straggler",
            AlertKind::HotLink => "hot_link",
            AlertKind::RetransmitStorm => "retransmit_storm",
            AlertKind::ProgressFlatline => "progress_flatline",
        }
    }

    /// Parse a stable label back into the kind.
    pub fn from_label(s: &str) -> Option<AlertKind> {
        AlertKind::ALL.iter().copied().find(|k| k.label() == s)
    }
}

/// One structured alert. `subject` is a rank for [`AlertKind::
/// Straggler`], a link id for [`AlertKind::HotLink`], and zero for the
/// global kinds. `value`/`threshold` carry the measurement that fired
/// (sim-time ns for stragglers/flatlines, permille share for hot links,
/// a retransmit delta for storms).
#[derive(Clone, Copy, Debug, PartialEq, Eq)]
pub struct HealthAlert {
    /// Which detector fired.
    pub kind: AlertKind,
    /// Snapshot instant the detector fired at (ns).
    pub t_ns: u64,
    /// Rank or link id (kind-dependent; zero for global kinds).
    pub subject: u32,
    /// The measured value that crossed the threshold.
    pub value: u64,
    /// The threshold it crossed.
    pub threshold: u64,
}

/// Detector thresholds. All ratios are permille so the detectors stay
/// in integer arithmetic end to end.
#[derive(Clone, Copy, Debug)]
pub struct MonitorConfig {
    /// Snapshot interval in simulated nanoseconds (must be positive).
    pub interval_ns: u64,
    /// Straggler: fraction of ranks (permille) that must have finished
    /// before the detector arms.
    pub straggler_quorum_pm: u64,
    /// Straggler: fire for a still-unfinished rank once the snapshot
    /// time exceeds `factor × ` the quorum-percentile finish watermark.
    pub straggler_factor_pm: u64,
    /// Hot link: EWMA smoothing weight (permille) given to the newest
    /// utilization sample.
    pub ewma_alpha_pm: u64,
    /// Hot link: share of the link class's summed utilization EWMA
    /// (permille) a single link must hold to count as hot.
    pub hot_link_share_pm: u64,
    /// Hot link: consecutive snapshots the share must hold.
    pub hot_link_streak: u32,
    /// Hot link: minimum summed class utilization (permille) for shares
    /// to be meaningful — a near-idle class never flags.
    pub hot_link_min_class_util_pm: u64,
    /// Retransmit storm: retransmits within one interval at or above
    /// this fire.
    pub retransmit_storm_delta: u64,
    /// Flatline: consecutive fully-quiet snapshots before firing.
    pub flatline_streak: u32,
}

impl MonitorConfig {
    /// Defaults tuned so a clean run fires nothing (see the detector
    /// tests and the CI obs-smoke monitor step).
    pub fn new(interval_ns: u64) -> MonitorConfig {
        MonitorConfig {
            interval_ns,
            straggler_quorum_pm: 900,
            straggler_factor_pm: 2000,
            ewma_alpha_pm: 500,
            hot_link_share_pm: 850,
            hot_link_streak: 4,
            hot_link_min_class_util_pm: 200,
            retransmit_storm_delta: 16,
            flatline_streak: 3,
        }
    }
}

/// One snapshot of world state, assembled by the world at a snapshot
/// timer event. Plain integers only — the monitor never touches
/// simulator types.
pub struct SnapshotInput<'a> {
    /// Snapshot instant (ns).
    pub t_ns: u64,
    /// Per-rank pure-CPU progress watermark (busy time accrued, ns).
    pub progress_ns: &'a [u64],
    /// Per-rank finish watermark (`None` while the rank runs).
    pub finished_at_ns: &'a [Option<u64>],
    /// Per-rank posted-receive queue depth.
    pub posted: &'a [u32],
    /// Per-rank unexpected-queue depth (eager + RTS).
    pub unexp: &'a [u32],
    /// Per-link instantaneous utilization in permille (0..=1000).
    pub link_util_pm: &'a [u32],
    /// Bytes injected into the network but not yet delivered or dropped.
    pub in_flight_bytes: u64,
    /// Flows currently in the network.
    pub active_flows: u64,
    /// Cumulative delivered bytes.
    pub delivered_bytes: u64,
    /// Cumulative reliability-layer retransmits.
    pub retransmits: u64,
    /// Cumulative reliability-layer acks.
    pub acks: u64,
}

/// Final health record of one monitored run: everything the CLI prints,
/// the artifact serializes, and the golden fixtures pin.
#[derive(Clone, Debug, Default, PartialEq)]
pub struct HealthReport {
    /// Snapshot interval (ns).
    pub interval_ns: u64,
    /// Ranks in the job.
    pub nranks: u32,
    /// Links in the fabric.
    pub nlinks: u32,
    /// Snapshots taken.
    pub snapshots: u64,
    /// Last snapshot instant (ns; zero when none fired).
    pub last_t_ns: u64,
    /// Total alerts per kind, indexed by [`AlertKind::index`].
    pub counts: [u64; 4],
    /// The alert stream (first [`MAX_REPORT_ALERTS`]), with resolved
    /// human subjects ("rank 3", "L7 node1/nic-tx").
    pub alerts: Vec<(HealthAlert, String)>,
    /// Alerts beyond the cap (counted, not kept).
    pub dropped_alerts: u64,
}

impl HealthReport {
    /// Total alerts across all kinds.
    pub fn total_alerts(&self) -> u64 {
        self.counts.iter().sum()
    }
}

/// What the monitor has accumulated so far: the report's counters and
/// alert stream, plus the per-subject latches.
#[derive(Default)]
struct HealthState {
    snapshots: u64,
    last_t_ns: u64,
    counts: [u64; 4],
    alerts: Vec<(HealthAlert, String)>,
    dropped_alerts: u64,
    straggler_latched: Vec<bool>,
    hot_latched: Vec<bool>,
}

/// The online health monitor; see the module docs. Owned by the world
/// ([`World::with_monitor`]) and fed one [`SnapshotInput`] per snapshot
/// timer event.
///
/// [`World::with_monitor`]: ../adapt/struct.World.html
pub struct Monitor {
    cfg: MonitorConfig,
    state: HealthState,
    nranks: u32,
    /// Resolved per-link topology names (see [`crate::topo_label`]).
    link_labels: Vec<String>,
    /// Per-link class group id (links of one class are compared against
    /// each other by the hot-link detector).
    link_group: Vec<u32>,
    /// Per-link utilization EWMA, permille.
    ewma_pm: Vec<u64>,
    /// Per-link consecutive snapshots above the hot share.
    hot_streak: Vec<u32>,
    /// Scratch: per-group summed EWMA, rebuilt each snapshot.
    group_sum: Vec<u64>,
    /// Scratch: per-group count of ever-active links, rebuilt each
    /// snapshot.
    group_active: Vec<u32>,
    /// Scratch: finish watermarks, sorted each snapshot.
    fins: Vec<u64>,
    /// Alerts fired by the most recent `observe` call.
    fired: Vec<HealthAlert>,
    prev_retransmits: u64,
    storm_latched: bool,
    /// Progress fingerprint of the previous snapshot: (sum busy,
    /// finished count, delivered bytes, retransmits, acks).
    prev_progress: Option<(u64, u32, u64, u64, u64)>,
    flat_streak: u32,
    flat_latched: bool,
}

impl Monitor {
    /// A monitor snapshotting every `interval_ns` of simulated time with
    /// default thresholds.
    pub fn new(interval_ns: u64) -> Monitor {
        Monitor::with_config(MonitorConfig::new(interval_ns))
    }

    /// A monitor with explicit thresholds.
    pub fn with_config(cfg: MonitorConfig) -> Monitor {
        assert!(cfg.interval_ns > 0, "snapshot interval must be positive");
        Monitor {
            cfg,
            state: HealthState::default(),
            nranks: 0,
            link_labels: Vec::new(),
            link_group: Vec::new(),
            ewma_pm: Vec::new(),
            hot_streak: Vec::new(),
            group_sum: Vec::new(),
            group_active: Vec::new(),
            fins: Vec::new(),
            fired: Vec::new(),
            prev_retransmits: 0,
            storm_latched: false,
            prev_progress: None,
            flat_streak: 0,
            flat_latched: false,
        }
    }

    /// Snapshot interval (ns).
    pub fn interval_ns(&self) -> u64 {
        self.cfg.interval_ns
    }

    /// Describe the job: rank count and raw link class labels (debug
    /// form, e.g. `NicTx(3)`); the monitor resolves them to topology
    /// names and derives the hot-link class groups. Called once by the
    /// world before the first snapshot.
    pub fn meta(&mut self, nranks: u32, link_labels: &[String]) {
        self.nranks = nranks;
        self.link_labels = link_labels.iter().map(|l| crate::topo_label(l)).collect();
        // Group key: the class part of the topology name ("nic-tx",
        // "backbone", ...). Group ids are assigned in first-seen link
        // order, which is deterministic.
        let mut groups: Vec<&str> = Vec::new();
        self.link_group = self
            .link_labels
            .iter()
            .map(|label| {
                let class = label.rsplit('/').next().unwrap_or(label);
                match groups.iter().position(|g| *g == class) {
                    Some(i) => i as u32,
                    None => {
                        groups.push(class);
                        (groups.len() - 1) as u32
                    }
                }
            })
            .collect();
        let nlinks = link_labels.len();
        self.ewma_pm = vec![0; nlinks];
        self.hot_streak = vec![0; nlinks];
        self.group_sum = vec![0; groups.len()];
        self.group_active = vec![0; groups.len()];
        self.state.straggler_latched = vec![false; nranks as usize];
        self.state.hot_latched = vec![false; nlinks];
    }

    /// Ingest one snapshot and run every detector. Returns the alerts
    /// fired by *this* snapshot, in deterministic order (stragglers by
    /// rank, hot links by link id, then storm, then flatline).
    pub fn observe(&mut self, input: &SnapshotInput<'_>) -> &[HealthAlert] {
        self.fired.clear();
        let nranks = self.nranks as usize;
        debug_assert_eq!(input.progress_ns.len(), nranks);
        debug_assert_eq!(input.finished_at_ns.len(), nranks);

        let finished = input.finished_at_ns.iter().flatten().count();
        self.detect_stragglers(input, finished);
        self.detect_hot_links(input);
        self.detect_storm(input);
        self.detect_flatline(input, finished);

        let s = &mut self.state;
        s.snapshots += 1;
        s.last_t_ns = input.t_ns;
        for a in &self.fired {
            s.counts[a.kind.index()] += 1;
            match a.kind {
                AlertKind::Straggler => s.straggler_latched[a.subject as usize] = true,
                AlertKind::HotLink => s.hot_latched[a.subject as usize] = true,
                _ => {}
            }
        }
        // Re-arm bookkeeping lives in the detectors; clear the latches of
        // subjects whose condition ended.
        for r in 0..nranks {
            if input.finished_at_ns[r].is_some() {
                s.straggler_latched[r] = false;
            }
        }
        for (l, &streak) in self.hot_streak.iter().enumerate() {
            if streak == 0 {
                s.hot_latched[l] = false;
            }
        }
        for a in &self.fired {
            if s.alerts.len() < MAX_REPORT_ALERTS {
                let label = match a.kind {
                    AlertKind::Straggler => format!("rank {}", a.subject),
                    AlertKind::HotLink => {
                        let name = self
                            .link_labels
                            .get(a.subject as usize)
                            .map(String::as_str)
                            .unwrap_or("link");
                        format!("L{} {name}", a.subject)
                    }
                    _ => "world".to_string(),
                };
                s.alerts.push((*a, label));
            } else {
                s.dropped_alerts += 1;
            }
        }
        &self.fired
    }

    /// Straggler: armed once `quorum_pm` of ranks finished; an
    /// unfinished rank fires when `t` exceeds `factor_pm ×` the
    /// quorum-percentile finish watermark. Latched per rank until it
    /// finishes.
    fn detect_stragglers(&mut self, input: &SnapshotInput<'_>, finished: usize) {
        let cfg = &self.cfg;
        let n = self.nranks as u64;
        if n == 0 || (finished as u64) * 1000 < cfg.straggler_quorum_pm * n {
            return;
        }
        self.fins.clear();
        self.fins
            .extend(input.finished_at_ns.iter().flatten().copied());
        self.fins.sort_unstable();
        // The quorum-percentile watermark: the k-th smallest finish,
        // where k = ceil(quorum × nranks). Quorum held, so k ≤ len.
        let k = (cfg.straggler_quorum_pm * n).div_ceil(1000) as usize;
        let watermark = self.fins[k.saturating_sub(1).min(self.fins.len() - 1)];
        let threshold = watermark.saturating_mul(cfg.straggler_factor_pm) / 1000;
        if input.t_ns <= threshold {
            return;
        }
        for (r, &latched) in self.state.straggler_latched.iter().enumerate() {
            if input.finished_at_ns[r].is_none() && !latched {
                self.fired.push(HealthAlert {
                    kind: AlertKind::Straggler,
                    t_ns: input.t_ns,
                    subject: r as u32,
                    value: input.t_ns,
                    threshold,
                });
            }
        }
    }

    /// Hot link: EWMA share within the link's class above the threshold
    /// for K consecutive snapshots. Latched per link until the streak
    /// breaks.
    fn detect_hot_links(&mut self, input: &SnapshotInput<'_>) {
        let cfg = self.cfg;
        let nlinks = self.ewma_pm.len();
        debug_assert!(input.link_util_pm.len() >= nlinks);
        let alpha = cfg.ewma_alpha_pm.min(1000);
        self.group_sum.iter_mut().for_each(|s| *s = 0);
        self.group_active.iter_mut().for_each(|a| *a = 0);
        // Peers only count once they have ever carried traffic (the
        // EWMA's round-half-up keeps any ever-busy link at ≥1‰
        // forever): early in a run a lone active NIC owns 100% of its
        // class by construction, and paging on a startup transient
        // would make the detector useless.
        for l in 0..nlinks {
            let cur = input.link_util_pm[l].min(1000) as u64;
            let prev = self.ewma_pm[l];
            self.ewma_pm[l] = (alpha * cur + (1000 - alpha) * prev + 500) / 1000;
            let g = self.link_group[l] as usize;
            self.group_sum[g] += self.ewma_pm[l];
            if self.ewma_pm[l] > 0 {
                self.group_active[g] += 1;
            }
        }
        // Classes with a single (ever-active) link — e.g. the backbone,
        // or a lone busy NIC — have no peers to stand out against and
        // are skipped.
        for l in 0..nlinks {
            let g = self.link_group[l] as usize;
            let peers = self.group_active[g] as usize;
            let sum = self.group_sum[g];
            let share_pm = (self.ewma_pm[l] * 1000).checked_div(sum).unwrap_or(0);
            let hot = peers >= 2
                && sum >= cfg.hot_link_min_class_util_pm
                && share_pm >= cfg.hot_link_share_pm;
            if hot {
                self.hot_streak[l] += 1;
                if self.hot_streak[l] >= cfg.hot_link_streak && !self.state.hot_latched[l] {
                    self.fired.push(HealthAlert {
                        kind: AlertKind::HotLink,
                        t_ns: input.t_ns,
                        subject: l as u32,
                        value: share_pm,
                        threshold: cfg.hot_link_share_pm,
                    });
                }
            } else {
                self.hot_streak[l] = 0;
            }
        }
    }

    /// Retransmit storm: the cumulative retransmit counter jumping by at
    /// least the configured delta within one interval. Latched while the
    /// storm sustains; re-arms after one calm interval.
    fn detect_storm(&mut self, input: &SnapshotInput<'_>) {
        let delta = input.retransmits.saturating_sub(self.prev_retransmits);
        self.prev_retransmits = input.retransmits;
        if delta >= self.cfg.retransmit_storm_delta {
            if !self.storm_latched {
                self.fired.push(HealthAlert {
                    kind: AlertKind::RetransmitStorm,
                    t_ns: input.t_ns,
                    subject: 0,
                    value: delta,
                    threshold: self.cfg.retransmit_storm_delta,
                });
            }
            self.storm_latched = true;
        } else {
            self.storm_latched = false;
        }
    }

    /// Flatline: `flatline_streak` consecutive snapshots with an
    /// unchanged progress fingerprint, an empty network, and unfinished
    /// ranks. Fires once per episode.
    fn detect_flatline(&mut self, input: &SnapshotInput<'_>, finished: usize) {
        let fp = (
            input.progress_ns.iter().sum::<u64>(),
            finished as u32,
            input.delivered_bytes,
            input.retransmits,
            input.acks,
        );
        let all_finished = finished == self.nranks as usize;
        let flat = !all_finished
            && input.active_flows == 0
            && input.in_flight_bytes == 0
            && self.prev_progress == Some(fp);
        self.prev_progress = Some(fp);
        if flat {
            self.flat_streak += 1;
            if self.flat_streak >= self.cfg.flatline_streak && !self.flat_latched {
                self.fired.push(HealthAlert {
                    kind: AlertKind::ProgressFlatline,
                    t_ns: input.t_ns,
                    subject: 0,
                    value: self.flat_streak as u64 * self.cfg.interval_ns,
                    threshold: self.cfg.flatline_streak as u64 * self.cfg.interval_ns,
                });
                self.flat_latched = true;
            }
        } else {
            self.flat_streak = 0;
            self.flat_latched = false;
        }
    }

    /// Consume the monitor into its final report.
    pub fn into_report(self) -> HealthReport {
        let nlinks = self.link_labels.len() as u32;
        let s = self.state;
        HealthReport {
            interval_ns: self.cfg.interval_ns,
            nranks: self.nranks,
            nlinks,
            snapshots: s.snapshots,
            last_t_ns: s.last_t_ns,
            counts: s.counts,
            alerts: s.alerts,
            dropped_alerts: s.dropped_alerts,
        }
    }
}

/// Serialize a health report as the `adapt-obs-health-v1` artifact.
/// Hand-rolled with a fixed key order, so the bytes are a pure function
/// of the report — the thread-count invariance tests compare these
/// strings directly.
pub fn health_json(r: &HealthReport) -> String {
    use std::fmt::Write;
    let mut o = String::with_capacity(1024);
    let _ = write!(
        o,
        "{{\"format\": \"{HEALTH_FORMAT}\",\n\"interval_ns\": {},\n\"nranks\": {},\n\
         \"nlinks\": {},\n\"snapshots\": {},\n\"last_t_ns\": {},\n",
        r.interval_ns, r.nranks, r.nlinks, r.snapshots, r.last_t_ns
    );
    o.push_str("\"counts\": {");
    for (i, k) in AlertKind::ALL.iter().enumerate() {
        if i > 0 {
            o.push_str(", ");
        }
        let _ = write!(o, "\"{}\": {}", k.label(), r.counts[k.index()]);
    }
    o.push_str("},\n\"alerts\": [");
    for (i, (a, label)) in r.alerts.iter().enumerate() {
        if i > 0 {
            o.push(',');
        }
        let _ = write!(
            o,
            "\n{{\"kind\": \"{}\", \"t_ns\": {}, \"subject\": {}, \"label\": \"{}\", \
             \"value\": {}, \"threshold\": {}}}",
            a.kind.label(),
            a.t_ns,
            a.subject,
            crate::chrome::esc(label),
            a.value,
            a.threshold
        );
    }
    let _ = write!(o, "],\n\"dropped_alerts\": {}\n}}\n", r.dropped_alerts);
    o
}

/// One-screen human rendering of a health report (the CLI's final
/// health summary).
pub fn health_report_text(r: &HealthReport) -> String {
    use std::fmt::Write;
    let mut o = String::new();
    let _ = writeln!(
        o,
        "  health: {} snapshots every {}ns, {} alerts",
        r.snapshots,
        r.interval_ns,
        r.total_alerts()
    );
    if r.total_alerts() > 0 {
        let mut parts: Vec<String> = Vec::new();
        for k in AlertKind::ALL {
            if r.counts[k.index()] > 0 {
                parts.push(format!("{}={}", k.label(), r.counts[k.index()]));
            }
        }
        let _ = writeln!(o, "    by kind: {}", parts.join(" "));
        for (a, label) in r.alerts.iter().take(8) {
            let _ = writeln!(
                o,
                "    {:>12}ns  {:<17} {:<22} value={} threshold={}",
                a.t_ns,
                a.kind.label(),
                label,
                a.value,
                a.threshold
            );
        }
        if r.alerts.len() > 8 {
            let _ = writeln!(o, "    ... {} more", r.alerts.len() - 8);
        }
    }
    o
}

#[cfg(test)]
mod tests {
    use super::*;

    /// Feed one synthetic snapshot to `m` and return fired alerts.
    #[allow(clippy::too_many_arguments)]
    fn snap(
        m: &mut Monitor,
        t_ns: u64,
        progress: &[u64],
        finished: &[Option<u64>],
        util_pm: &[u32],
        active_flows: u64,
        delivered: u64,
        retrans: u64,
    ) -> Vec<HealthAlert> {
        let posted = vec![0u32; progress.len()];
        let unexp = vec![0u32; progress.len()];
        m.observe(&SnapshotInput {
            t_ns,
            progress_ns: progress,
            finished_at_ns: finished,
            posted: &posted,
            unexp: &unexp,
            link_util_pm: util_pm,
            in_flight_bytes: if active_flows > 0 { 1 } else { 0 },
            active_flows,
            delivered_bytes: delivered,
            retransmits: retrans,
            acks: 0,
        })
        .to_vec()
    }

    fn two_nic_monitor(nranks: u32) -> Monitor {
        let mut m = Monitor::new(1000);
        m.meta(nranks, &["NicTx(0)".to_string(), "NicTx(1)".to_string()]);
        m
    }

    #[test]
    fn straggler_fires_for_the_lagging_rank_only() {
        let fin = [Some(100), Some(110), Some(120), None];
        // With the default 90% quorum, 4 ranks need all 4 finished before
        // the detector arms; drop the quorum to 75% so 3 finishers arm it.
        let mut cfg = MonitorConfig::new(1000);
        cfg.straggler_quorum_pm = 750;
        let mut m2 = Monitor::with_config(cfg);
        m2.meta(4, &["NicTx(0)".to_string(), "NicTx(1)".to_string()]);
        // Watermark = 3rd smallest finish (ceil(0.75*4)=3) = 120;
        // threshold = 240. Below it: nothing.
        let a = snap(&mut m2, 200, &[50, 50, 50, 0], &fin, &[0, 0], 1, 10, 0);
        assert!(a.is_empty(), "below threshold: {a:?}");
        // Past it: rank 3 fires, exactly once.
        let a = snap(&mut m2, 300, &[50, 50, 50, 0], &fin, &[0, 0], 1, 10, 0);
        assert_eq!(a.len(), 1);
        assert_eq!(a[0].kind, AlertKind::Straggler);
        assert_eq!(a[0].subject, 3);
        // Latched: no repeat while still unfinished.
        let a = snap(&mut m2, 400, &[50, 50, 50, 0], &fin, &[0, 0], 1, 10, 0);
        assert!(a.is_empty(), "straggler must latch: {a:?}");
        // Rank recovers: the latch clears, so lagging again fires again.
        let fin_done = [Some(100), Some(110), Some(120), Some(450)];
        let a = snap(&mut m2, 500, &[50; 4], &fin_done, &[0, 0], 0, 10, 0);
        assert!(a.is_empty(), "a finished rank is no straggler: {a:?}");
        let a = snap(&mut m2, 600, &[50, 50, 50, 0], &fin, &[0, 0], 1, 10, 0);
        assert_eq!(a.len(), 1, "re-armed straggler fires again: {a:?}");
        assert_eq!(a[0].subject, 3);
        let r = m2.into_report();
        assert_eq!(r.counts[AlertKind::Straggler.index()], 2);
        assert_eq!(r.alerts.len(), 2);
    }

    #[test]
    fn hot_link_needs_a_sustained_outsized_share() {
        let mut m = two_nic_monitor(2);
        let fin = [None, None];
        // Balanced load: both NICs equally busy -> shares 500, never hot.
        for i in 0..10 {
            let a = snap(&mut m, 1000 * (i + 1), &[0, 0], &fin, &[800, 800], 1, 0, 0);
            assert!(a.is_empty(), "balanced load must stay quiet: {a:?}");
        }
        // One NIC saturated, the peer idle: hot after the streak (4).
        let mut fired = Vec::new();
        for i in 10..20 {
            fired.extend(snap(
                &mut m,
                1000 * (i + 1),
                &[0, 0],
                &fin,
                &[1000, 0],
                1,
                0,
                0,
            ));
        }
        assert_eq!(fired.len(), 1, "one latched alert: {fired:?}");
        assert_eq!(fired[0].kind, AlertKind::HotLink);
        assert_eq!(fired[0].subject, 0);
        // Load rebalances: streak breaks, latch re-arms, and a second
        // sustained episode on the cooled link fires again.
        for i in 20..26 {
            let a = snap(&mut m, 1000 * (i + 1), &[0, 0], &fin, &[500, 500], 1, 0, 0);
            assert!(a.is_empty(), "rebalanced load must stay quiet: {a:?}");
        }
        let mut refired = Vec::new();
        for i in 26..36 {
            refired.extend(snap(
                &mut m,
                1000 * (i + 1),
                &[0, 0],
                &fin,
                &[1000, 0],
                1,
                0,
                0,
            ));
        }
        assert_eq!(refired.len(), 1, "{refired:?}");
        assert_eq!(refired[0].subject, 0);
        assert_eq!(m.into_report().counts[AlertKind::HotLink.index()], 2);
    }

    #[test]
    fn single_link_classes_never_flag() {
        let mut m = Monitor::new(1000);
        m.meta(2, &["Backbone".to_string()]);
        let fin = [None, None];
        for i in 0..10 {
            let a = snap(&mut m, 1000 * (i + 1), &[0, 0], &fin, &[1000], 1, 0, 0);
            assert!(a.is_empty(), "peerless link must stay quiet: {a:?}");
        }
    }

    #[test]
    fn retransmit_storm_fires_on_the_delta_and_rearms() {
        let mut m = two_nic_monitor(2);
        let fin = [None, None];
        let a = snap(&mut m, 1000, &[0, 0], &fin, &[0, 0], 1, 0, 5);
        assert!(a.is_empty(), "5 retransmits in one interval is calm");
        let a = snap(&mut m, 2000, &[0, 0], &fin, &[0, 0], 1, 0, 40);
        assert_eq!(a.len(), 1, "35 in one interval is a storm: {a:?}");
        assert_eq!(a[0].kind, AlertKind::RetransmitStorm);
        assert_eq!(a[0].value, 35);
        // Sustained storm stays latched.
        let a = snap(&mut m, 3000, &[0, 0], &fin, &[0, 0], 1, 0, 80);
        assert!(a.is_empty(), "latched: {a:?}");
        // Calm interval re-arms; a new storm fires again.
        snap(&mut m, 4000, &[0, 0], &fin, &[0, 0], 1, 0, 81);
        let a = snap(&mut m, 5000, &[0, 0], &fin, &[0, 0], 1, 0, 140);
        assert_eq!(a.len(), 1);
    }

    #[test]
    fn flatline_needs_consecutive_quiet_snapshots_and_an_empty_network() {
        let mut m = two_nic_monitor(2);
        let fin = [Some(10), None];
        // Identical fingerprints, but flows in flight: not flat.
        for i in 0..6 {
            let a = snap(&mut m, 1000 * (i + 1), &[5, 5], &fin, &[0, 0], 1, 100, 0);
            assert!(a.is_empty(), "in-flight data is progress: {a:?}");
        }
        // Network empty and nothing changes: streak 3 fires once.
        let mut fired = Vec::new();
        for i in 6..12 {
            fired.extend(snap(
                &mut m,
                1000 * (i + 1),
                &[5, 5],
                &fin,
                &[0, 0],
                0,
                100,
                0,
            ));
        }
        assert_eq!(fired.len(), 1, "{fired:?}");
        assert_eq!(fired[0].kind, AlertKind::ProgressFlatline);
        // Progress resumes, then stalls again: a second episode fires.
        snap(&mut m, 13_000, &[6, 5], &fin, &[0, 0], 0, 100, 0);
        let mut refired = Vec::new();
        for i in 13..19 {
            refired.extend(snap(
                &mut m,
                1000 * (i + 1),
                &[6, 5],
                &fin,
                &[0, 0],
                0,
                100,
                0,
            ));
        }
        assert_eq!(refired.len(), 1, "{refired:?}");
    }

    #[test]
    fn all_finished_never_flatlines() {
        let mut m = two_nic_monitor(2);
        let fin = [Some(10), Some(20)];
        for i in 0..8 {
            let a = snap(&mut m, 1000 * (i + 1), &[5, 5], &fin, &[0, 0], 0, 100, 0);
            assert!(a.is_empty(), "a finished world is healthy: {a:?}");
        }
    }

    #[test]
    fn health_json_is_stable_and_validates() {
        let fin = [Some(100), Some(110), Some(120), None];
        let mut cfg = MonitorConfig::new(1000);
        cfg.straggler_quorum_pm = 750;
        let mut m2 = Monitor::with_config(cfg);
        m2.meta(4, &["NicTx(0)".to_string(), "NicTx(1)".to_string()]);
        snap(&mut m2, 300, &[50, 50, 50, 0], &fin, &[0, 0], 1, 10, 0);
        let report = m2.into_report();
        assert_eq!(report.total_alerts(), 1);
        let json = health_json(&report);
        let again = health_json(&report);
        assert_eq!(json, again, "serialization must be deterministic");
        let check = crate::validate::validate_health(&json).expect("artifact must validate");
        assert_eq!(check.alerts, 1);
        assert_eq!(check.snapshots, 1);
        assert!(json.contains("\"kind\": \"straggler\""));
        assert!(json.contains("\"label\": \"rank 3\""));
    }

    #[test]
    fn report_caps_alerts_and_counts_the_rest() {
        let mut cfg = MonitorConfig::new(1000);
        cfg.retransmit_storm_delta = 1;
        let mut m = Monitor::with_config(cfg);
        m.meta(2, &["NicTx(0)".to_string(), "NicTx(1)".to_string()]);
        let fin = [None, None];
        // Alternate storm / calm so every other snapshot fires.
        let mut retrans = 0;
        for i in 0..(2 * MAX_REPORT_ALERTS as u64 + 64) {
            if i % 2 == 0 {
                retrans += 10;
            }
            snap(
                &mut m,
                1000 * (i + 1),
                &[0, 0],
                &fin,
                &[0, 0],
                1,
                0,
                retrans,
            );
        }
        let r = m.into_report();
        assert_eq!(r.alerts.len(), MAX_REPORT_ALERTS);
        assert!(r.dropped_alerts > 0);
        assert_eq!(
            r.total_alerts(),
            r.alerts.len() as u64 + r.dropped_alerts,
            "counts cover kept and dropped alerts"
        );
        let json = health_json(&r);
        crate::validate::validate_health(&json).unwrap();
    }
}
