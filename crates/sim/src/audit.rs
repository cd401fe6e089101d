//! Simulator-wide invariant audit.
//!
//! The audit layer accumulates cheap counters while a simulation runs and
//! cross-checks them once it finishes, so bookkeeping bugs (lost
//! completions, double-counted cancellations, bytes that vanish between a
//! send and its matching receive) surface as a reportable diagnosis
//! instead of silently skewing results. The checks mirror the paper's
//! correctness obligations for an event-based progress engine:
//!
//! 1. **Conservation of bytes** — every posted send byte is eventually
//!    matched by a completed-receive byte, and both totals agree with what
//!    the network engine says it delivered (plus explicit copy traffic).
//!    Under fault injection the ledger gains two columns — bytes lost to
//!    injected drops and bytes re-injected by retransmissions — and the
//!    equations generalize to `injected == delivered + dropped` and
//!    `delivered + dropped == sends + copies + retransmitted`. The
//!    exactly-once obligation (`send bytes == completed-receive bytes`)
//!    is unchanged: the reliability layer must deliver every message
//!    exactly once no matter how many attempts the network ate.
//! 2. **Causality** — no event is ever scheduled before the simulation's
//!    current time (see [`crate::queue::EventQueue::schedule`]).
//! 3. **Matched completions** — per rank, sends posted equal send
//!    completions delivered, and no message is left unclaimed in the
//!    runtime's in-flight table or unexpected queues.
//! 4. **Queue consistency** — the event queue's reported live count
//!    matches an actual scan of its heap at drain time
//!    ([`crate::queue::QueueAudit`]).
//!
//! Leftover *posted* receives are reported but do **not** make a run
//! dirty: ADAPT's `M > N` receive-window rule (§2.2.1 of the paper)
//! deliberately over-posts receives that never match.

use crate::queue::QueueAudit;

/// Per-rank posted/completed operation counters.
#[derive(Clone, Copy, Debug, Default, PartialEq, Eq)]
pub struct RankAudit {
    /// Sends posted by the rank's program.
    pub sends_posted: u64,
    /// Send completions delivered back to the program.
    pub sends_completed: u64,
    /// Receives posted by the rank's program.
    pub recvs_posted: u64,
    /// Receive completions delivered back to the program.
    pub recvs_completed: u64,
}

/// End-of-run invariant report, surfaced through the runtime's
/// `RunResult`.
#[derive(Clone, Debug, Default, PartialEq, Eq)]
pub struct AuditReport {
    /// Event-queue internal consistency snapshot at drain time.
    pub queue: QueueAudit,
    /// Total payload bytes across posted sends.
    pub send_posted_bytes: u64,
    /// Total payload bytes across completed receives.
    pub recv_completed_bytes: u64,
    /// Bytes of explicit memory-copy flows requested (staging, unpack).
    pub copy_posted_bytes: u64,
    /// Bytes of explicit memory-copy flows fully delivered.
    pub copy_completed_bytes: u64,
    /// Bytes copy flows put on the wire: `copy_posted_bytes`, unless a
    /// what-if scaled the copy layer's traffic.
    pub copy_wire_bytes: u64,
    /// Bytes the network engine injected into flows.
    pub net_injected_bytes: u64,
    /// Bytes the network engine delivered to endpoints.
    pub net_delivered_bytes: u64,
    /// Bytes the network engine dropped (injected faults): drained —
    /// bandwidth was spent — but never delivered.
    pub net_dropped_bytes: u64,
    /// Bytes injected by reliability-layer retransmissions, over and
    /// above the bytes the programs posted.
    pub retrans_injected_bytes: u64,
    /// Events addressed to already-finished ranks and silently dropped.
    /// Nonzero in a fault-free run means the runtime leaked a completion.
    pub stray_events: u64,
    /// A fault plan was active: stray events may legitimately arise from
    /// late retransmissions, so they are not flagged.
    pub faults_active: bool,
    /// Flows still in flight in the network engine at the end of the run.
    pub net_flows_in_flight: usize,
    /// Per-rank posted/completed counters.
    pub per_rank: Vec<RankAudit>,
    /// Messages still sitting in the runtime's in-flight table at the end
    /// of the run (sent but never claimed by a receive).
    pub unclaimed_messages: u64,
    /// Unexpected-queue entries (eager data or RTS) never matched by a
    /// posted receive.
    pub unexpected_leftovers: u64,
    /// Posted receives that never matched a message. Informational only:
    /// the `M > N` pre-posting rule legitimately leaves these behind.
    pub leftover_posted_recvs: u64,
    /// Ranks in the agreed failed set: killed by the fault plan, their
    /// progress engines stopped permanently. The per-rank completion
    /// checks skip them, and the byte equations account their traffic
    /// through the `failed_*` columns below.
    pub failed_ranks: Vec<u32>,
    /// Payload bytes posted in sends that can never complete a receive
    /// because one endpoint of the message failed. Byte conservation
    /// generalizes to `send_posted == recv_completed + failed`.
    pub failed_bytes: u64,
    /// Subset of `failed_bytes` never injected into the network: the
    /// protocol stopped before launching the data flow when an endpoint
    /// died (e.g. a rendezvous whose CTS never came back).
    pub failed_unlaunched_bytes: u64,
    /// Copy bytes posted at a rank that died before the copy completed.
    pub failed_copy_bytes: u64,
}

impl AuditReport {
    /// All invariant violations found, as human-readable one-liners. An
    /// empty list means the run was clean.
    pub fn issues(&self) -> Vec<String> {
        let mut out = Vec::new();
        if self.queue.causality_violations > 0 {
            out.push(format!(
                "{} event(s) scheduled before the current simulation time (clamped forward)",
                self.queue.causality_violations
            ));
        }
        if !self.queue.is_consistent() {
            out.push(format!(
                "event queue reports {} live event(s) but holds {} (of {} stored entries)",
                self.queue.reported_live, self.queue.actual_live, self.queue.stored
            ));
        }
        if self.send_posted_bytes != self.recv_completed_bytes + self.failed_bytes {
            out.push(format!(
                "byte conservation: {} bytes posted in sends vs {} bytes completed in receives + {} failed",
                self.send_posted_bytes, self.recv_completed_bytes, self.failed_bytes
            ));
        }
        if self.copy_posted_bytes != self.copy_completed_bytes + self.failed_copy_bytes {
            out.push(format!(
                "copy conservation: {} bytes posted vs {} bytes completed + {} failed",
                self.copy_posted_bytes, self.copy_completed_bytes, self.failed_copy_bytes
            ));
        }
        let expected_carried =
            (self.send_posted_bytes + self.copy_wire_bytes + self.retrans_injected_bytes)
                .saturating_sub(self.failed_unlaunched_bytes);
        if self.net_delivered_bytes + self.net_dropped_bytes != expected_carried {
            out.push(format!(
                "network delivered {} + dropped {} bytes, expected sends + copies + retransmits - unlaunched = {}",
                self.net_delivered_bytes, self.net_dropped_bytes, expected_carried
            ));
        }
        if self.net_injected_bytes != self.net_delivered_bytes + self.net_dropped_bytes {
            out.push(format!(
                "network injected {} bytes but delivered {} and dropped {}",
                self.net_injected_bytes, self.net_delivered_bytes, self.net_dropped_bytes
            ));
        }
        if self.stray_events > 0 && !self.faults_active {
            out.push(format!(
                "{} event(s) addressed to already-finished ranks in a fault-free run",
                self.stray_events
            ));
        }
        if self.net_flows_in_flight > 0 {
            out.push(format!(
                "{} network flow(s) still in flight at end of run",
                self.net_flows_in_flight
            ));
        }
        for (rank, r) in self.per_rank.iter().enumerate() {
            if self.failed_ranks.contains(&(rank as u32)) {
                // A killed rank legitimately leaves posted operations
                // incomplete; its bytes are in the failed columns.
                continue;
            }
            if r.sends_posted != r.sends_completed {
                out.push(format!(
                    "rank {rank}: {} send(s) posted but {} completed",
                    r.sends_posted, r.sends_completed
                ));
            }
        }
        if self.unclaimed_messages > 0 {
            out.push(format!(
                "{} message(s) left unclaimed in the in-flight table",
                self.unclaimed_messages
            ));
        }
        if self.unexpected_leftovers > 0 {
            out.push(format!(
                "{} unexpected-queue entr(ies) never matched by a receive",
                self.unexpected_leftovers
            ));
        }
        out
    }

    /// True when every invariant held. Leftover posted receives do not
    /// count against cleanliness (the `M > N` rule over-posts on purpose).
    pub fn is_clean(&self) -> bool {
        self.issues().is_empty()
    }

    /// Total sends posted across all ranks.
    pub fn total_sends_posted(&self) -> u64 {
        self.per_rank.iter().map(|r| r.sends_posted).sum()
    }

    /// Total receives completed across all ranks.
    pub fn total_recvs_completed(&self) -> u64 {
        self.per_rank.iter().map(|r| r.recvs_completed).sum()
    }
}

impl std::fmt::Display for AuditReport {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        let issues = self.issues();
        if issues.is_empty() {
            write!(
                f,
                "audit: clean — {} sends, {} recvs, {} bytes conserved ({} over-posted recv(s))",
                self.total_sends_posted(),
                self.total_recvs_completed(),
                self.send_posted_bytes,
                self.leftover_posted_recvs
            )?;
            if !self.failed_ranks.is_empty() {
                write!(
                    f,
                    "; {} failed rank(s) {:?}, {} bytes accounted to failures",
                    self.failed_ranks.len(),
                    self.failed_ranks,
                    self.failed_bytes
                )?;
            }
            Ok(())
        } else {
            writeln!(f, "audit found {} issue(s):", issues.len())?;
            for (i, issue) in issues.iter().enumerate() {
                if i > 0 {
                    writeln!(f)?;
                }
                write!(f, "  - {issue}")?;
            }
            Ok(())
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn clean_report() -> AuditReport {
        AuditReport {
            send_posted_bytes: 100,
            recv_completed_bytes: 100,
            net_injected_bytes: 140,
            net_delivered_bytes: 140,
            copy_posted_bytes: 40,
            copy_completed_bytes: 40,
            copy_wire_bytes: 40,
            per_rank: vec![
                RankAudit {
                    sends_posted: 2,
                    sends_completed: 2,
                    recvs_posted: 3,
                    recvs_completed: 1,
                },
                RankAudit {
                    sends_posted: 1,
                    sends_completed: 1,
                    recvs_posted: 2,
                    recvs_completed: 2,
                },
            ],
            leftover_posted_recvs: 2,
            ..AuditReport::default()
        }
    }

    #[test]
    fn clean_report_has_no_issues() {
        let r = clean_report();
        assert!(r.is_clean(), "{r}");
        assert_eq!(r.total_sends_posted(), 3);
        assert_eq!(r.total_recvs_completed(), 3);
        assert!(r.to_string().starts_with("audit: clean — "));
    }

    #[test]
    fn overposted_receives_do_not_dirty_the_report() {
        // The M > N receive-window rule legitimately leaves posted
        // receives unmatched.
        let mut r = clean_report();
        r.leftover_posted_recvs = 17;
        assert!(r.is_clean());
    }

    #[test]
    fn byte_mismatch_is_reported() {
        let mut r = clean_report();
        r.recv_completed_bytes = 90;
        assert!(!r.is_clean());
        assert!(r.issues().iter().any(|i| i.contains("byte conservation")));
    }

    #[test]
    fn send_completion_mismatch_names_the_rank() {
        let mut r = clean_report();
        r.per_rank[1].sends_completed = 0;
        let issues = r.issues();
        assert_eq!(issues.len(), 1);
        assert!(issues[0].starts_with("rank 1:"), "{issues:?}");
    }

    #[test]
    fn causality_and_queue_inconsistency_are_reported() {
        let mut r = clean_report();
        r.queue.causality_violations = 3;
        r.queue.reported_live = 5;
        r.queue.actual_live = 4;
        r.queue.stored = 6;
        let issues = r.issues();
        assert_eq!(issues.len(), 2, "{issues:?}");
        assert!(r.to_string().contains("2 issue(s)"));
    }

    #[test]
    fn unclaimed_and_unexpected_leftovers_are_dirty() {
        let mut r = clean_report();
        r.unclaimed_messages = 1;
        r.unexpected_leftovers = 2;
        assert_eq!(r.issues().len(), 2);
    }

    #[test]
    fn faulted_ledger_balances_with_drops_and_retransmits() {
        // 100 send bytes, one 30-byte retransmission, 30 bytes dropped:
        // injected = 140 + 30, delivered stays 140 + copies.
        let mut r = clean_report();
        r.faults_active = true;
        r.retrans_injected_bytes = 30;
        r.net_dropped_bytes = 30;
        r.net_injected_bytes = 170;
        assert!(r.is_clean(), "{r}");
        // An unbalanced drop column is flagged.
        r.net_dropped_bytes = 20;
        assert!(!r.is_clean());
    }

    #[test]
    fn failed_rank_bytes_balance_the_ledger() {
        // Rank 1 is killed: its one posted send (30 bytes) never
        // completes, the bytes land in the failed column, and its
        // unbalanced per-rank counters are excused.
        let mut r = clean_report();
        r.faults_active = true;
        r.failed_ranks = vec![1];
        r.per_rank[1].sends_completed = 0;
        r.recv_completed_bytes = 70;
        r.failed_bytes = 30;
        r.net_delivered_bytes = 110;
        r.net_dropped_bytes = 30;
        r.net_injected_bytes = 140;
        assert!(r.is_clean(), "{r}");
        let shown = r.to_string();
        assert!(shown.contains("1 failed rank(s)"), "{shown}");
        // The same counters without the failed-set attribution are dirty.
        r.failed_ranks.clear();
        r.failed_bytes = 0;
        assert!(!r.is_clean());
    }

    #[test]
    fn unlaunched_failed_bytes_excuse_the_network_ledger() {
        // A rendezvous send whose peer died before CTS: 30 bytes posted,
        // never injected into the network at all.
        let mut r = clean_report();
        r.faults_active = true;
        r.failed_ranks = vec![0];
        r.per_rank[0].sends_completed = 0;
        r.recv_completed_bytes = 70;
        r.failed_bytes = 30;
        r.failed_unlaunched_bytes = 30;
        r.net_injected_bytes = 110;
        r.net_delivered_bytes = 110;
        assert!(r.is_clean(), "{r}");
    }

    #[test]
    fn stray_events_dirty_only_fault_free_runs() {
        let mut r = clean_report();
        r.stray_events = 3;
        assert!(!r.is_clean());
        assert!(r.issues()[0].contains("already-finished"));
        r.faults_active = true;
        assert!(r.is_clean());
    }
}
