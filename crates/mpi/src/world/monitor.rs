//! Reading the running world without moving it: the health monitor's
//! snapshot timer and the recorder's time-series gauges. Both read state
//! the simulation maintains anyway and never perturb an event.

use super::{Ev, World};
use adapt_obs::{GaugeMetric, Monitor, Recorder, SnapshotInput};
use adapt_sim::time::{Duration, Time};

/// An attached health monitor with its reusable snapshot columns,
/// refilled in one pass over the rank table so a 10µs monitor cadence
/// stays within the barometer's 5% overhead gate.
pub(super) struct Health {
    pub(super) monitor: Monitor,
    progress_ns: Vec<u64>,
    finished_at_ns: Vec<Option<u64>>,
    posted: Vec<u32>,
    unexp: Vec<u32>,
    /// Per-link utilization in permille.
    link_util_pm: Vec<u32>,
}

impl Health {
    pub(super) fn new(monitor: Monitor) -> Health {
        Health {
            monitor,
            progress_ns: Vec::new(),
            finished_at_ns: Vec::new(),
            posted: Vec::new(),
            unexp: Vec::new(),
            link_util_pm: Vec::new(),
        }
    }

    /// Report the job shape to the monitor; returns the snapshot interval
    /// in nanoseconds.
    pub(super) fn start(&mut self, nranks: u32, link_labels: &[String]) -> u64 {
        self.link_util_pm = vec![0; link_labels.len()];
        self.monitor.meta(nranks, link_labels);
        self.monitor.interval_ns()
    }
}

impl World {
    /// Handle the health-monitor snapshot timer: assemble a
    /// [`SnapshotInput`] from state the simulation maintains anyway, run
    /// the detectors, forward fired alerts to the recorder, and re-arm
    /// the timer one interval out. Re-arming stops once every rank has
    /// finished or the queue has drained — a dead queue must stay dead
    /// so the deadlock diagnosis still fires, and a finished run needs
    /// no further snapshots.
    pub(super) fn on_snapshot(&mut self, t: Time) {
        let Some(h) = self.monitor.as_deref_mut() else {
            return;
        };
        h.progress_ns.clear();
        h.finished_at_ns.clear();
        h.posted.clear();
        h.unexp.clear();
        for r in &self.ranks {
            h.progress_ns.push(r.busy_accum.as_nanos());
            h.finished_at_ns.push(r.finished_at.map(|f| f.as_nanos()));
            h.posted.push(r.posted.len() as u32);
            h.unexp
                .push((r.unexp_eager.len() + r.unexp_rts.len()) as u32);
        }
        h.link_util_pm.fill(0);
        let util = &mut h.link_util_pm;
        self.net.for_each_link_load(|link, _count, u| {
            if let Some(slot) = util.get_mut(link as usize) {
                *slot = (u * 1000.0).round().clamp(0.0, 1000.0) as u32;
            }
        });
        let injected = self.net.injected_bytes();
        let delivered = self.net.delivered_bytes();
        let dropped = self.net.dropped_bytes();
        let input = SnapshotInput {
            t_ns: t.as_nanos(),
            progress_ns: &h.progress_ns,
            finished_at_ns: &h.finished_at_ns,
            posted: &h.posted,
            unexp: &h.unexp,
            link_util_pm: &h.link_util_pm,
            in_flight_bytes: injected.saturating_sub(delivered).saturating_sub(dropped),
            active_flows: self.net.active_flows() as u64,
            delivered_bytes: delivered,
            retransmits: self.stats.retransmits,
            acks: self.stats.acks,
        };
        let alerts = h.monitor.observe(&input);
        if self.obs_on {
            for &a in alerts {
                self.obs.alert(a);
            }
        }
        let next = t + Duration(h.monitor.interval_ns());
        if self.finished < self.nranks() && !self.queue.is_empty() {
            self.queue.schedule_untracked(next, Ev::Snapshot);
        }
    }

    /// Record one round of time-series gauges at `t_ns` (recorder
    /// attached and sampling enabled only).
    pub(super) fn sample_gauges(&mut self, t_ns: u64) {
        let posted: usize = self.ranks.iter().map(|r| r.posted.len()).sum();
        let unexp: usize = self
            .ranks
            .iter()
            .map(|r| r.unexp_eager.len() + r.unexp_rts.len())
            .sum();
        self.obs
            .gauge(t_ns, GaugeMetric::PostedDepth, 0, posted as f64);
        self.obs
            .gauge(t_ns, GaugeMetric::UnexpectedDepth, 0, unexp as f64);
        self.obs.gauge(
            t_ns,
            GaugeMetric::LiveFlows,
            0,
            self.net.active_flows() as f64,
        );
        self.obs
            .gauge(t_ns, GaugeMetric::EventQueueLen, 0, self.queue.len() as f64);
        let obs = &mut self.obs;
        self.net.for_each_link_load(|link, count, util| {
            obs.gauge(t_ns, GaugeMetric::LinkFlows, link, count as f64);
            obs.gauge(t_ns, GaugeMetric::LinkUtil, link, util);
        });
    }
}
