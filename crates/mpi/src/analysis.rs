//! Post-run analysis over recordings and run results.

use crate::world::RunResult;
use adapt_obs::{ObsData, Trigger};
use adapt_sim::time::Duration;

/// Bytes moved rank → rank (`m[src][dst]`), from a recording: every
/// receive-completion dispatch adds its message's bytes, so only bytes
/// that actually arrived count.
pub fn comm_matrix(obs: &ObsData) -> Vec<Vec<u64>> {
    let n = obs.nranks as usize;
    let mut m = vec![vec![0u64; n]; n];
    for d in &obs.dispatches {
        if let Trigger::RecvDone { msg } = d.trigger {
            let rec = &obs.msgs[msg as usize];
            m[rec.src as usize][d.rank as usize] += rec.bytes;
        }
    }
    m
}

/// Per-rank CPU utilization: pure work divided by the run's makespan.
pub fn busy_fractions(result: &RunResult) -> Vec<f64> {
    let total = result.makespan.as_secs_f64();
    if total <= 0.0 {
        return vec![0.0; result.per_rank_busy.len()];
    }
    result
        .per_rank_busy
        .iter()
        .map(|busy| busy.as_secs_f64() / total)
        .collect()
}

/// Idle tail per rank: how long each rank waited between its own finish
/// and the slowest rank's finish — the skew a synchronizing caller would
/// observe.
pub fn finish_skew(result: &RunResult) -> Vec<Duration> {
    let last = result
        .per_rank_finish
        .iter()
        .copied()
        .max()
        .unwrap_or(adapt_sim::time::Time::ZERO);
    result
        .per_rank_finish
        .iter()
        .map(|&t| last.saturating_since(t))
        .collect()
}

#[cfg(test)]
mod tests {
    use super::*;
    use adapt_obs::{DispatchSpan, MsgRec};

    #[test]
    fn comm_matrix_accumulates_by_sender() {
        let msg = |src, dst, bytes| MsgRec {
            src,
            dst,
            bytes,
            ..MsgRec::default()
        };
        let done = |rank, msg| DispatchSpan {
            rank,
            begin_ns: 0,
            end_ns: 0,
            trigger: Trigger::RecvDone { msg },
        };
        let obs = ObsData {
            nranks: 3,
            msgs: vec![msg(0, 1, 100), msg(0, 1, 50), msg(1, 2, 25), msg(0, 2, 999)],
            dispatches: vec![
                done(1, 0),
                done(1, 1),
                done(2, 2),
                // A send completion moves no bytes into the matrix, and
                // message 3 never completed at its receiver.
                DispatchSpan {
                    rank: 0,
                    begin_ns: 0,
                    end_ns: 0,
                    trigger: Trigger::SendDone { msg: 3 },
                },
            ],
            ..ObsData::default()
        };
        let m = comm_matrix(&obs);
        assert_eq!(m[0][1], 150);
        assert_eq!(m[1][2], 25);
        assert_eq!(m[0][2], 0);
    }

    /// A RunResult with the given per-rank finish and busy times (µs);
    /// makespan is the latest finish.
    fn result(finish_us: &[u64], busy_us: &[u64]) -> RunResult {
        use adapt_sim::time::Time;
        RunResult {
            makespan: Duration::from_micros(finish_us.iter().copied().max().unwrap_or(0)),
            per_rank_finish: finish_us
                .iter()
                .map(|&u| Time::ZERO + Duration::from_micros(u))
                .collect(),
            per_rank_busy: busy_us.iter().map(|&u| Duration::from_micros(u)).collect(),
            stats: Default::default(),
            audit: Default::default(),
            programs: Vec::new(),
            obs: None,
            summary: None,
            flight: None,
            health: None,
        }
    }

    #[test]
    fn busy_fractions_divide_work_by_makespan() {
        let mut r = result(&[100, 100], &[50, 25]);
        let f = busy_fractions(&r);
        assert!((f[0] - 0.5).abs() < 1e-12, "{f:?}");
        assert!((f[1] - 0.25).abs() < 1e-12, "{f:?}");
        // Recorded dispatch spans do not change the active/makespan ratio.
        r.obs = Some(ObsData {
            nranks: 2,
            dispatches: vec![DispatchSpan {
                rank: 0,
                begin_ns: 0,
                end_ns: 40_000,
                trigger: Trigger::Start,
            }],
            ..ObsData::default()
        });
        assert_eq!(busy_fractions(&r), f);
    }

    #[test]
    fn busy_fractions_of_empty_run_are_zero() {
        let r = result(&[0, 0, 0], &[0, 0, 0]);
        assert_eq!(busy_fractions(&r), vec![0.0; 3]);
    }

    #[test]
    fn finish_skew_measures_idle_tail_behind_slowest_rank() {
        let r = result(&[100, 70, 40], &[0, 0, 0]);
        assert_eq!(
            finish_skew(&r),
            vec![
                Duration::ZERO,
                Duration::from_micros(30),
                Duration::from_micros(60),
            ]
        );
    }

    #[test]
    fn finish_skew_of_empty_result_is_empty() {
        let r = result(&[], &[]);
        assert!(finish_skew(&r).is_empty());
    }
}
