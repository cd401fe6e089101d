//! Fixed-frequency uniform-duration noise processes.

use adapt_faults::Schedule;
use adapt_sim::rng::{MasterSeed, StreamTag};
use adapt_sim::time::{Duration, Time};
use rand::rngs::SmallRng;
use rand::Rng;

/// Statistical description of one rank's noise process.
#[derive(Clone, Copy, Debug, PartialEq)]
pub struct NoiseSpec {
    /// Interval between successive noise events (the paper uses 100 ms,
    /// i.e. a fixed 10 Hz frequency).
    pub period: Duration,
    /// Window durations are drawn uniformly from `[0, max_duration]`.
    pub max_duration: Duration,
}

impl NoiseSpec {
    /// The paper's parameterization: 10 Hz with an average duty cycle of
    /// `percent`. 5% ⇒ uniform 0–10 ms; 10% ⇒ uniform 0–20 ms.
    pub fn uniform_percent(percent: f64) -> NoiseSpec {
        assert!((0.0..50.0).contains(&percent), "duty cycle out of range");
        let period = Duration::from_millis(100);
        let max = Duration::from_secs_f64(2.0 * (percent / 100.0) * period.as_secs_f64());
        NoiseSpec {
            period,
            max_duration: max,
        }
    }
}

/// One rank's lazily generated stream of noise windows.
///
/// Window `i` starts at `phase + i·period` (the phase is drawn once per
/// rank so ranks are not synchronized) and lasts `U(0, max_duration)`.
/// Windows never overlap as long as `max_duration < period`.
#[derive(Clone, Debug)]
pub struct RankNoise {
    spec: NoiseSpec,
    phase: Duration,
    rng: SmallRng,
    /// Generated windows, in order (appended verbatim — the schedule's
    /// defer/finish-work arithmetic is shared with injected fault stalls).
    windows: Schedule,
    /// Index of the next window to generate.
    next_index: u64,
}

impl RankNoise {
    /// Create the process for one rank from its derived seed.
    pub fn new(spec: NoiseSpec, seed: u64) -> RankNoise {
        use rand::SeedableRng;
        let mut rng = SmallRng::seed_from_u64(seed);
        let phase =
            Duration::from_secs_f64(rng.random_range(0.0..spec.period.as_secs_f64().max(1e-12)));
        RankNoise {
            spec,
            phase,
            rng,
            windows: Schedule::empty(),
            next_index: 0,
        }
    }

    /// Ensure windows are generated past time `t`.
    fn ensure(&mut self, t: Time) {
        while self.windows.last().map(|(s, _)| s <= t).unwrap_or(true) {
            let start = Time::ZERO
                + self.phase
                + Duration::from_nanos(self.next_index.saturating_mul(self.spec.period.as_nanos()));
            let max = self.spec.max_duration.as_secs_f64().max(1e-12);
            let dur = Duration::from_secs_f64(self.rng.random_range(0.0..=max));
            self.windows.push_back(start, start + dur);
            self.next_index += 1;
            if self.spec.max_duration.is_zero() {
                // Degenerate zero-noise spec: one dummy window is enough.
                break;
            }
        }
    }

    /// Earliest instant at or after `t` at which the CPU is not preempted.
    pub fn defer(&mut self, t: Time) -> Time {
        if self.spec.max_duration.is_zero() {
            return t;
        }
        self.ensure(t);
        self.windows.defer(t)
    }

    /// Completion time of `work` CPU time starting at `start`, accounting
    /// for preemption windows (work pauses during windows and resumes
    /// after).
    pub fn finish_work(&mut self, start: Time, work: Duration) -> Time {
        if self.spec.max_duration.is_zero() {
            return start + work;
        }
        let mut cur = self.defer(start);
        let mut left = work;
        loop {
            if left.is_zero() {
                return cur;
            }
            // Find the next window beginning after `cur`.
            self.ensure(cur + left);
            match self.windows.next_blocking(cur) {
                Some((s, e)) if s <= cur => {
                    // Inside a window (possible when called directly).
                    cur = e;
                }
                Some((s, e)) if s < cur + left => {
                    let done = s - cur;
                    left = Duration::from_nanos(left.as_nanos() - done.as_nanos());
                    cur = e;
                }
                _ => return cur + left,
            }
        }
    }

    /// Busy time available on this rank in `[start, deadline)` — elapsed
    /// span minus preempted time. The stall-composition logic uses this to
    /// account partial progress before a frozen window begins.
    pub fn work_in(&mut self, start: Time, deadline: Time) -> Duration {
        if self.spec.max_duration.is_zero() {
            return deadline.saturating_since(start);
        }
        self.ensure(deadline);
        self.windows.work_in(start, deadline)
    }

    /// Total preempted time in `[0, until)`, for reporting.
    pub fn stolen_until(&mut self, until: Time) -> Duration {
        if self.spec.max_duration.is_zero() {
            return Duration::ZERO;
        }
        self.ensure(until);
        self.windows.stolen_until(until)
    }

    /// Generate windows out to `until` and return every window generated
    /// so far. The stream is deterministic and idempotent, so exporting
    /// never perturbs later `defer`/`finish_work` queries — the what-if
    /// engine relies on this to snapshot the process at run end.
    pub fn windows_until(&mut self, until: Time) -> Vec<(Time, Time)> {
        if self.spec.max_duration.is_zero() {
            return Vec::new();
        }
        self.ensure(until);
        self.windows.windows().to_vec()
    }
}

/// Per-rank noise for a whole job. `None` entries are noise-free ranks.
#[derive(Clone, Debug)]
pub struct ClusterNoise {
    ranks: Vec<Option<RankNoise>>,
}

impl ClusterNoise {
    /// No noise anywhere (the baseline configuration).
    pub fn silent(nranks: u32) -> ClusterNoise {
        ClusterNoise {
            ranks: vec![None; nranks as usize],
        }
    }

    /// Identical independent noise processes on every rank, seeded from the
    /// master seed (stream = `Noise`, index = rank).
    pub fn uniform(nranks: u32, spec: NoiseSpec, seed: MasterSeed) -> ClusterNoise {
        let ranks = (0..nranks)
            .map(|r| {
                if spec.max_duration.is_zero() {
                    None
                } else {
                    Some(RankNoise::new(
                        spec,
                        seed.stream(StreamTag::Noise, r as u64),
                    ))
                }
            })
            .collect();
        ClusterNoise { ranks }
    }

    /// Noise on a single rank only (used by the noise-propagation study).
    pub fn single_rank(nranks: u32, noisy: u32, spec: NoiseSpec, seed: MasterSeed) -> ClusterNoise {
        ClusterNoise::on_ranks(nranks, &[noisy], spec, seed)
    }

    /// Noise on an explicit subset of ranks; all other ranks are clean.
    pub fn on_ranks(nranks: u32, noisy: &[u32], spec: NoiseSpec, seed: MasterSeed) -> ClusterNoise {
        let mut cn = ClusterNoise::silent(nranks);
        if spec.max_duration.is_zero() {
            return cn;
        }
        for &r in noisy {
            cn.ranks[r as usize] = Some(RankNoise::new(
                spec,
                seed.stream(StreamTag::Noise, r as u64),
            ));
        }
        cn
    }

    /// Number of ranks covered.
    pub fn len(&self) -> usize {
        self.ranks.len()
    }

    /// True when no rank has a noise process.
    pub fn is_empty(&self) -> bool {
        self.ranks.iter().all(|r| r.is_none())
    }

    /// Earliest instant at or after `t` at which `rank`'s CPU can run.
    pub fn defer(&mut self, rank: u32, t: Time) -> Time {
        match &mut self.ranks[rank as usize] {
            Some(n) => n.defer(t),
            None => t,
        }
    }

    /// Completion time of `work` CPU time on `rank` starting at `start`.
    pub fn finish_work(&mut self, rank: u32, start: Time, work: Duration) -> Time {
        match &mut self.ranks[rank as usize] {
            Some(n) => n.finish_work(start, work),
            None => start + work,
        }
    }

    /// Busy time available to `rank` in `[start, deadline)`.
    pub fn work_in(&mut self, rank: u32, start: Time, deadline: Time) -> Duration {
        match &mut self.ranks[rank as usize] {
            Some(n) => n.work_in(start, deadline),
            None => deadline.saturating_since(start),
        }
    }

    /// Remove `rank`'s noise process entirely (the "what if this rank had
    /// no noise" intervention applied to a real re-run).
    pub fn silence_rank(&mut self, rank: u32) {
        self.ranks[rank as usize] = None;
    }

    /// Export `rank`'s preemption windows generated out to `until`
    /// (empty for a clean rank). See [`RankNoise::windows_until`].
    pub fn export_windows(&mut self, rank: u32, until: Time) -> Vec<(Time, Time)> {
        match &mut self.ranks[rank as usize] {
            Some(n) => n.windows_until(until),
            None => Vec::new(),
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn spec_ms(period_ms: u64, max_ms: u64) -> NoiseSpec {
        NoiseSpec {
            period: Duration::from_millis(period_ms),
            max_duration: Duration::from_millis(max_ms),
        }
    }

    #[test]
    fn percent_parameterization_matches_paper() {
        let five = NoiseSpec::uniform_percent(5.0);
        assert_eq!(five.period, Duration::from_millis(100));
        assert_eq!(five.max_duration, Duration::from_millis(10));
        // The mean window is max/2, so the duty cycle is max / (2 · period).
        let duty = |s: NoiseSpec| s.max_duration.as_secs_f64() / 2.0 / s.period.as_secs_f64();
        assert!((duty(five) - 0.05).abs() < 1e-12);
        let ten = NoiseSpec::uniform_percent(10.0);
        assert_eq!(ten.max_duration, Duration::from_millis(20));
        assert!((duty(ten) - 0.10).abs() < 1e-12);
    }

    #[test]
    fn defer_skips_windows() {
        let mut n = RankNoise::new(spec_ms(100, 10), 1);
        n.ensure(Time::ZERO + Duration::from_millis(1000));
        let (s0, e0) = n.windows.windows()[0];
        assert!(e0 > s0, "window has positive duration almost surely");
        // Before the window: unchanged.
        let before = Time(s0.as_nanos().saturating_sub(1));
        assert_eq!(n.defer(before), before);
        // Inside: deferred to the end.
        let inside = Time(s0.as_nanos() + (e0.as_nanos() - s0.as_nanos()) / 2);
        assert_eq!(n.defer(inside), e0);
        // Exactly at the end: runnable.
        assert_eq!(n.defer(e0), e0);
    }

    #[test]
    fn finish_work_stretches_across_window() {
        let mut n = RankNoise::new(spec_ms(100, 10), 7);
        n.ensure(Time::ZERO + Duration::from_millis(500));
        let (s0, e0) = n.windows.windows()[0];
        // Start 1 ms before the window with 2 ms of work: 1 ms done before,
        // the window passes, 1 ms after.
        let start = Time(s0.as_nanos() - 1_000_000);
        let done = n.finish_work(start, Duration::from_millis(2));
        assert_eq!(done.as_nanos(), e0.as_nanos() + 1_000_000);
    }

    #[test]
    fn finish_work_without_noise_is_additive() {
        let mut cn = ClusterNoise::silent(4);
        let t = cn.finish_work(2, Time(100), Duration::from_nanos(50));
        assert_eq!(t, Time(150));
        assert_eq!(cn.defer(1, Time(42)), Time(42));
        assert!(cn.is_empty());
    }

    #[test]
    fn cluster_noise_is_deterministic_per_seed() {
        let mk = || {
            let mut cn = ClusterNoise::uniform(8, spec_ms(100, 10), MasterSeed(5));
            (0..8)
                .map(|r| cn.defer(r, Time::ZERO + Duration::from_millis(50)).0)
                .collect::<Vec<_>>()
        };
        assert_eq!(mk(), mk());
        // Different ranks have different phases/durations (almost surely),
        // so the same work finishes at different times on different ranks.
        let mut cn = ClusterNoise::uniform(8, spec_ms(100, 10), MasterSeed(5));
        let d: Vec<u64> = (0..8)
            .map(|r| cn.finish_work(r, Time::ZERO, Duration::from_millis(1000)).0)
            .collect();
        assert!(d.iter().collect::<std::collections::HashSet<_>>().len() > 1);
    }

    #[test]
    fn stolen_time_tracks_duty_cycle() {
        let mut n = RankNoise::new(NoiseSpec::uniform_percent(10.0), 3);
        let horizon = Time::ZERO + Duration::from_millis(100 * 1000); // 100 s
        let stolen = n.stolen_until(horizon);
        let frac = stolen.as_secs_f64() / horizon.as_secs_f64();
        assert!(
            (frac - 0.10).abs() < 0.02,
            "empirical duty cycle {frac} should be near 0.10"
        );
    }

    #[test]
    fn single_rank_noise() {
        let mut cn = ClusterNoise::single_rank(4, 2, spec_ms(100, 50), MasterSeed(1));
        assert!(!cn.is_empty());
        // Rank 0 is clean.
        assert_eq!(cn.defer(0, Time(12345)), Time(12345));
    }

    #[test]
    fn work_spanning_multiple_windows() {
        let mut n = RankNoise::new(spec_ms(10, 5), 11);
        // 100 ms of work crosses ~10 windows; completion must exceed the
        // pure duration and every deferred instant must be runnable.
        let done = n.finish_work(Time::ZERO, Duration::from_millis(100));
        assert!(done > Time::ZERO + Duration::from_millis(100));
        assert_eq!(n.defer(done), done);
    }
}
