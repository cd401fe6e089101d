//! Why a run could not complete: the typed [`RunError`] and the per-rank
//! diagnoses [`World::try_run`] returns instead of hanging or panicking.

use super::World;
use adapt_obs::Recorder;
use adapt_sim::audit::AuditReport;
use adapt_sim::time::Time;
use adapt_topology::Rank;

/// Why a run stopped making progress: returned by [`World::try_run`]
/// instead of hanging (or panicking without context). Carries a full
/// per-rank report of what each unfinished rank was blocked on.
#[derive(Debug)]
pub struct StallDiagnosis {
    /// Simulated instant at which the stall was detected.
    pub at: Time,
    /// Ranks that had not finished.
    pub stuck: Vec<Rank>,
    /// `true` when the progress watchdog horizon fired; `false` when the
    /// event queue ran dry with unfinished ranks (classic deadlock).
    pub watchdog_fired: bool,
    /// Human-readable report (starts with `deadlock:`); also what
    /// [`std::fmt::Display`] prints.
    pub detail: String,
    /// Flight-recorder tail (a Chrome-trace fragment of the most recent
    /// spans), when the attached recorder keeps one — the post-mortem
    /// companion to the per-rank stuck report.
    pub flight: Option<String>,
}

impl std::fmt::Display for StallDiagnosis {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        f.write_str(&self.detail)
    }
}

/// Per-rank post-mortem for a run abandoned because of rank failures.
#[derive(Debug)]
pub struct FailureDiagnosis {
    /// Simulated instant at which the run was abandoned.
    pub at: Time,
    /// The failed set: every killed rank, detection order first, then
    /// killed-but-not-yet-detected ranks by id.
    pub failed: Vec<Rank>,
    /// Detection instants for the subset the failure detector agreed on.
    pub detected_at: Vec<(Rank, Time)>,
    /// Surviving ranks that had not finished.
    pub stuck: Vec<Rank>,
    /// Human-readable report (what [`std::fmt::Display`] prints).
    pub detail: String,
    /// Flight-recorder tail, when the attached recorder keeps one.
    pub flight: Option<String>,
}

impl std::fmt::Display for FailureDiagnosis {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        f.write_str(&self.detail)
    }
}

/// Why a run could not complete: returned by [`World::try_run`] instead
/// of panicking. Every variant carries a human-readable `detail` (what
/// `Display` prints) and the flight-recorder tail when the attached
/// recorder keeps one, so no failure mode escapes without a post-mortem.
#[derive(Debug)]
pub enum RunError {
    /// The run stopped making progress with no rank failure to blame:
    /// the event queue ran dry or the progress watchdog fired.
    Stalled(StallDiagnosis),
    /// A reliable transfer lane between two *live* ranks exhausted its
    /// retry budget: the loss/outage schedule is not survivable.
    RetryBudgetExhausted {
        /// The lane's owning (sending) rank.
        rank: Rank,
        /// The lane's remote endpoint.
        peer: Rank,
        /// The message the lane belongs to.
        msg: u64,
        /// Protocol lane within the message (0 = RTS, 1 = CTS, 2 = data).
        lane: u32,
        /// Retransmissions performed before giving up.
        attempts: u32,
        /// Simulated instant of the final expiry.
        at: Time,
        /// Human-readable report (what `Display` prints).
        detail: String,
        /// Flight-recorder tail, when the attached recorder keeps one.
        flight: Option<String>,
    },
    /// Ranks were killed and the survivors could not complete around
    /// them; the diagnosis names the agreed failed set per rank.
    RanksFailed(FailureDiagnosis),
    /// The run processed more than [`World::max_events`] events without
    /// completing: a livelock, or a cap set below the run's real size.
    EventCap {
        /// Events processed, the one that crossed the cap included.
        events: u64,
        /// Simulated instant of the event that crossed the cap.
        at: Time,
        /// Flight-recorder tail, when the attached recorder keeps one.
        flight: Option<String>,
    },
    /// The run completed but its end-of-run invariant audit is dirty.
    /// [`World::try_run`] never returns this (it hands back the result
    /// with its report); the collectives runner's `execute` does, so no
    /// caller has to remember to check
    /// [`RunResult::audit`](super::RunResult::audit).
    AuditFailed {
        /// The dirty report.
        audit: AuditReport,
        /// Flight-recorder tail, when the attached recorder keeps one.
        flight: Option<String>,
    },
    /// A what-if link rescale names a link label prefix that no link of
    /// the machine has (bad input: there is nothing to rescale).
    NoSuchLink {
        /// The label prefix that matched nothing.
        pattern: String,
    },
}

impl RunError {
    /// The flight-recorder tail attached to the error, if any.
    pub fn flight(&self) -> Option<&str> {
        match self {
            RunError::Stalled(d) => d.flight.as_deref(),
            RunError::RetryBudgetExhausted { flight, .. }
            | RunError::EventCap { flight, .. }
            | RunError::AuditFailed { flight, .. } => flight.as_deref(),
            RunError::RanksFailed(d) => d.flight.as_deref(),
            RunError::NoSuchLink { .. } => None,
        }
    }

    fn set_flight(&mut self, dump: Option<String>) {
        match self {
            RunError::Stalled(d) => d.flight = dump,
            RunError::RetryBudgetExhausted { flight, .. }
            | RunError::EventCap { flight, .. }
            | RunError::AuditFailed { flight, .. } => *flight = dump,
            RunError::RanksFailed(d) => d.flight = dump,
            RunError::NoSuchLink { .. } => {}
        }
    }
}

impl std::fmt::Display for RunError {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        match self {
            RunError::Stalled(d) => d.fmt(f),
            RunError::RetryBudgetExhausted { detail, .. } => f.write_str(detail),
            RunError::RanksFailed(d) => d.fmt(f),
            RunError::EventCap { events, at, .. } => write!(
                f,
                "event cap exceeded: {events} events processed by t={}ns without \
                 completing (livelock?)",
                at.as_nanos()
            ),
            RunError::AuditFailed { audit, .. } => audit.fmt(f),
            RunError::NoSuchLink { pattern } => {
                write!(f, "no link label starts with {pattern:?}")
            }
        }
    }
}

impl std::error::Error for RunError {}

impl World {
    /// End the run with `err`, attaching the flight-recorder tail when
    /// the recorder keeps one: no failure mode escapes without its
    /// post-mortem.
    pub(super) fn abandon(&mut self, mut err: RunError) -> Box<RunError> {
        err.set_flight(self.obs.flight_dump());
        Box::new(err)
    }

    /// End a run that stopped making progress (see
    /// [`World::stall_diagnosis`] for `since`/`at`).
    pub(super) fn stalled(&mut self, since: Time, at: Time, watchdog_fired: bool) -> Box<RunError> {
        let err = self.classify(self.stall_diagnosis(since, at, watchdog_fired));
        self.abandon(err)
    }

    /// Build the per-rank deadlock report. `since` is the last time any
    /// event fired (the silent gap the watchdog measured runs from
    /// `since` to `at`); a rank counts as stalled if its fault schedule
    /// covers any part of that gap.
    fn stall_diagnosis(&self, since: Time, at: Time, watchdog_fired: bool) -> StallDiagnosis {
        let stuck: Vec<u32> = (0..self.nranks())
            .filter(|&r| self.ranks[r as usize].finished_at.is_none())
            .collect();
        let mut sample: Vec<String> = self
            .msgs
            .iter()
            .take(8)
            .map(|(id, m)| {
                format!(
                    "msg{id}: {}->{} tag={} bytes={} recv_token={:?}",
                    m.src,
                    m.dst,
                    m.tag,
                    m.payload.len(),
                    m.recv_token
                )
            })
            .collect();
        sample.sort();
        let faults = self.faults.as_deref();
        let mut detail = format!(
            "deadlock: {} of {} ranks never finished (e.g. ranks {:?}) — {} at t={}ns; \
             posted={}, unexpected_eager={}, unexpected_rts={}, in-flight msgs={}, \
             net flows={}, flow_kinds={}, pending retransmit lanes={}",
            stuck.len(),
            self.nranks(),
            &stuck[..stuck.len().min(8)],
            if watchdog_fired {
                "progress watchdog fired"
            } else {
                "event queue ran dry"
            },
            at.as_nanos(),
            self.ranks.iter().map(|r| r.posted.len()).sum::<usize>(),
            self.ranks
                .iter()
                .map(|r| r.unexp_eager.len())
                .sum::<usize>(),
            self.ranks.iter().map(|r| r.unexp_rts.len()).sum::<usize>(),
            self.msgs.len(),
            self.net.active_flows(),
            self.flow_kinds.iter().flatten().count(),
            faults.map_or(0, |f| f.pending_lanes()),
        );
        for &r in stuck.iter().take(8) {
            let st = &self.ranks[r as usize];
            let stall = faults.and_then(|f| f.stall(r));
            let next_wake = match self.parked.next_wake(r as usize) {
                Some(w) => format!("{}ns", w.as_nanos()),
                None => "-".into(),
            };
            detail.push_str(&format!(
                "\n  rank {r}: busy_until={:?} parked={} next_wake={next_wake} posted={:?} \
                 unexp_rts_tags={:?} stalled={}",
                st.busy_until,
                self.parked.parked(r as usize),
                st.posted.entries(),
                st.unexp_rts
                    .ids()
                    .iter()
                    .map(|m| (self.msgs[m].src, self.msgs[m].tag))
                    .collect::<Vec<_>>(),
                stall.is_some_and(|s| {
                    s.active_at(since) || s.next_start_at_or_after(since).is_some_and(|w| w <= at)
                }),
            ));
        }
        if !sample.is_empty() {
            detail.push_str("\n  sample msgs:\n    ");
            detail.push_str(&sample.join("\n    "));
        }
        StallDiagnosis {
            at,
            stuck,
            watchdog_fired,
            detail,
            flight: None,
        }
    }

    /// Turn a stall into the right [`RunError`]: once any rank has been
    /// killed, a run that cannot finish is a rank-failure outcome, not a
    /// plain deadlock — the diagnosis names the agreed failed set and the
    /// survivors still stuck on it.
    fn classify(&self, mut diag: StallDiagnosis) -> RunError {
        let Some(fl) = self.faults.as_deref().and_then(|f| f.dead()) else {
            return RunError::Stalled(diag);
        };
        let mut failed: Vec<Rank> = fl.detected.iter().map(|&(r, _)| r).collect();
        for r in 0..self.nranks() {
            if fl.dead_at[r as usize].is_some() && !failed.contains(&r) {
                failed.push(r);
            }
        }
        let stuck = std::mem::take(&mut diag.stuck);
        let detail = format!(
            "rank failure: {:?} killed ({} of them detected by t={}ns) and {} \
             survivor(s) could not complete around them\n{}",
            failed,
            fl.detected.len(),
            diag.at.as_nanos(),
            stuck.len(),
            diag.detail
        );
        RunError::RanksFailed(FailureDiagnosis {
            at: diag.at,
            failed,
            detected_at: fl.detected.clone(),
            stuck,
            detail,
            flight: None,
        })
    }
}
