//! Fault plans: one run's complete, deterministic fault schedule.

use crate::schedule::Schedule;
use adapt_sim::time::{Duration, Time};

/// Retransmission knobs for the reliability layer.
#[derive(Clone, Copy, Debug, PartialEq)]
pub struct RelConfig {
    /// Base retransmission timeout, added on top of twice the estimated
    /// transfer time (the estimate stands in for an RTT measurement).
    pub rto: Duration,
    /// The timeout doubles per attempt; this caps how many retransmissions
    /// a single transfer may consume before the run aborts.
    pub max_retries: u32,
    /// Deterministic jitter drawn uniformly from `[0, jitter_frac ×
    /// backoff)` and added to each timeout, desynchronizing retransmit
    /// storms.
    pub jitter_frac: f64,
}

impl Default for RelConfig {
    fn default() -> RelConfig {
        RelConfig {
            rto: Duration::from_micros(100),
            max_retries: 16,
            jitter_frac: 0.1,
        }
    }
}

/// One bandwidth/latency degradation window, applied to every link.
#[derive(Clone, Copy, Debug, PartialEq)]
pub struct Degrade {
    /// Capacity multiplier inside the window (e.g. `0.1` = 10% bandwidth).
    pub cap_factor: f64,
    /// Latency multiplier inside the window (e.g. `4.0` = 4× latency).
    pub lat_factor: f64,
    /// The `[start, end)` window.
    pub window: (Time, Time),
}

/// A complete fault schedule for one run.
///
/// The plan is pure data; the world derives the loss/jitter RNG stream
/// from `MasterSeed(seed)` with `StreamTag::Faults`, so the same plan and
/// seed reproduce the same drops bit-for-bit.
#[derive(Clone, Debug, PartialEq)]
pub struct FaultPlan {
    /// Seed for the fault RNG stream (loss draws, retransmit jitter).
    pub seed: u64,
    /// Per-hop loss probability in `[0, 1)`; a flow crossing `n` links is
    /// lost with probability `1 − (1 − loss)^n`.
    pub loss: f64,
    /// Windows during which every link is down: transfers launched inside
    /// a window are lost (and recovered by retransmission).
    pub down: Schedule,
    /// Bandwidth/latency degradation windows (applied to every link).
    pub degrade: Vec<Degrade>,
    /// Per-link degradation windows: `(link class label, window)`. The
    /// label matches the world's link class labels (e.g. `NicTx(3)`), so
    /// a plan can degrade one NIC and leave its peers alone — the hot-link
    /// ground truth. Labels naming no link in the run's fabric are
    /// silently inert (consistent with out-of-range kills).
    pub degrade_links: Vec<(String, Degrade)>,
    /// Injected rank stalls: `(rank, [start, end))` freezes well beyond
    /// the OS-noise model.
    pub stalls: Vec<(u32, (Time, Time))>,
    /// Permanent rank kills: `(rank, at)` stops the rank's progress
    /// engine at `at`, forever. In-flight flows to or from it drain as
    /// dropped and the audit ledger accounts their bytes as failed.
    pub kills: Vec<(u32, Time)>,
    /// Permanent node kills: `(node, at)` kills every rank placed on the
    /// node (expanded against the run's placement by the world).
    pub node_kills: Vec<(u32, Time)>,
    /// Retransmission configuration.
    pub rel: RelConfig,
}

impl Default for FaultPlan {
    fn default() -> FaultPlan {
        FaultPlan {
            seed: 1,
            loss: 0.0,
            down: Schedule::empty(),
            degrade: Vec::new(),
            degrade_links: Vec::new(),
            stalls: Vec::new(),
            kills: Vec::new(),
            node_kills: Vec::new(),
            rel: RelConfig::default(),
        }
    }
}

impl FaultPlan {
    /// A plan that injects uniform per-hop loss and nothing else.
    pub fn lossy(seed: u64, loss: f64) -> FaultPlan {
        FaultPlan {
            seed,
            loss,
            ..FaultPlan::default()
        }
    }

    /// Add a rank stall window.
    pub fn with_stall(mut self, rank: u32, start: Time, end: Time) -> FaultPlan {
        self.stalls.push((rank, (start, end)));
        self
    }

    /// Add an all-links down window.
    pub fn with_down(mut self, start: Time, end: Time) -> FaultPlan {
        let mut w: Vec<(Time, Time)> = self.down.windows().to_vec();
        w.push((start, end));
        self.down = Schedule::new(w);
        self
    }

    /// Add a degradation window over every link.
    pub fn with_degrade(
        mut self,
        cap_factor: f64,
        lat_factor: f64,
        start: Time,
        end: Time,
    ) -> FaultPlan {
        self.degrade.push(Degrade {
            cap_factor,
            lat_factor,
            window: (start, end),
        });
        self
    }

    /// Add a degradation window over the links whose class label equals
    /// `label` (e.g. `NicTx(3)`).
    pub fn with_degrade_link(
        mut self,
        label: &str,
        cap_factor: f64,
        lat_factor: f64,
        start: Time,
        end: Time,
    ) -> FaultPlan {
        self.degrade_links.push((
            label.to_string(),
            Degrade {
                cap_factor,
                lat_factor,
                window: (start, end),
            },
        ));
        self
    }

    /// Override the base retransmission timeout.
    pub fn with_rto(mut self, rto: Duration) -> FaultPlan {
        self.rel.rto = rto;
        self
    }

    /// Kill one rank permanently at `at`.
    pub fn with_kill(mut self, rank: u32, at: Time) -> FaultPlan {
        self.kills.push((rank, at));
        self
    }

    /// Kill every rank on one node permanently at `at`.
    pub fn with_node_kill(mut self, node: u32, at: Time) -> FaultPlan {
        self.node_kills.push((node, at));
        self
    }

    /// True when the plan injects nothing: no loss, no outages, no
    /// degradation, no stalls, no kills. The world treats an inert plan
    /// exactly like no plan at all, so the fault-free fast path stays
    /// untouched.
    pub fn is_inert(&self) -> bool {
        self.loss <= 0.0
            && self.down.is_empty()
            && self.degrade.is_empty()
            && self.degrade_links.is_empty()
            && self.stalls.is_empty()
            && self.kills.is_empty()
            && self.node_kills.is_empty()
    }

    /// True when the world arms the ack/retransmit reliability layer for
    /// this plan: loss, outage, all-link degradation or stall windows.
    /// Only loss and outages drop transfers, but degradation and stalls
    /// were expressible before kills existed and always ran with the
    /// layer on; keeping it on keeps those runs bit-for-bit. Per-link
    /// degradation (`degradelink=`) and kills came later and leave it
    /// off: they lose nothing a timer could recover (a killed peer is
    /// detected, not retransmitted to), so such a plan pays no per-lane
    /// timers and a kill scheduled past the end of the run costs nothing.
    pub fn needs_reliability(&self) -> bool {
        self.loss > 0.0
            || !self.down.is_empty()
            || !self.degrade.is_empty()
            || !self.stalls.is_empty()
    }

    /// The stall schedule for one rank (windows normalized/merged).
    pub fn stalls_for(&self, rank: u32) -> Schedule {
        Schedule::new(
            self.stalls
                .iter()
                .filter(|&&(r, _)| r == rank)
                .map(|&(_, w)| w)
                .collect(),
        )
    }

    /// Parse the CLI `--faults` mini-grammar: comma-separated `key=value`
    /// terms.
    ///
    /// ```text
    /// loss=0.02                    per-hop loss probability
    /// rto=500us                    base retransmission timeout
    /// retries=8                    retry budget per transfer
    /// jitter=0.2                   backoff jitter fraction
    /// stall=3:10ms-20ms            freeze rank 3 over [10ms, 20ms)
    /// down=1ms-2ms                 all links down over [1ms, 2ms)
    /// degrade=0.1:5ms-8ms          all links at 10% bandwidth over [5ms, 8ms)
    /// degradelink=NicTx(3):0.1:5ms-8ms   only links labelled NicTx(3)
    /// kill=3:10ms                  kill rank 3 permanently at 10ms
    /// killnode=1:2ms               kill every rank on node 1 at 2ms
    /// ```
    ///
    /// Durations accept `ns`, `us`, `ms`, and `s` suffixes (bare numbers
    /// are nanoseconds).
    pub fn parse(spec: &str, seed: u64) -> Result<FaultPlan, String> {
        let mut plan = FaultPlan {
            seed,
            ..FaultPlan::default()
        };
        for term in spec.split(',').filter(|t| !t.trim().is_empty()) {
            let (key, value) = term
                .split_once('=')
                .ok_or_else(|| format!("fault term {term:?} is not key=value"))?;
            match key.trim() {
                "loss" => {
                    let p: f64 = value.parse().map_err(|_| format!("bad loss {value:?}"))?;
                    if !(0.0..1.0).contains(&p) {
                        return Err(format!("loss {p} out of [0, 1)"));
                    }
                    plan.loss = p;
                }
                "rto" => plan.rel.rto = parse_duration(value)?,
                "retries" => {
                    plan.rel.max_retries = value
                        .parse()
                        .map_err(|_| format!("bad retries {value:?}"))?;
                }
                "jitter" => {
                    plan.rel.jitter_frac =
                        value.parse().map_err(|_| format!("bad jitter {value:?}"))?;
                }
                "stall" => {
                    let (rank, window) = value
                        .split_once(':')
                        .ok_or_else(|| format!("stall {value:?} is not RANK:START-END"))?;
                    let rank: u32 = rank.parse().map_err(|_| format!("bad rank {rank:?}"))?;
                    let (s, e) = parse_window(window)?;
                    plan.stalls.push((rank, (s, e)));
                }
                "down" => {
                    let (s, e) = parse_window(value)?;
                    plan = plan.with_down(s, e);
                }
                "degrade" => {
                    let (factor, window) = value
                        .split_once(':')
                        .ok_or_else(|| format!("degrade {value:?} is not FACTOR:START-END"))?;
                    let f: f64 = factor
                        .parse()
                        .map_err(|_| format!("bad degrade factor {factor:?}"))?;
                    if !f.is_finite() || f <= 0.0 {
                        return Err(format!("degrade factor {f} must be positive"));
                    }
                    let (s, e) = parse_window(window)?;
                    plan.degrade.push(Degrade {
                        cap_factor: f,
                        lat_factor: 1.0,
                        window: (s, e),
                    });
                }
                "degradelink" => {
                    // LABEL:FACTOR:START-END. The label is a link class
                    // label (`NicTx(3)`) and never contains ':' itself,
                    // so two splits take it apart unambiguously.
                    let (label, rest) = value.split_once(':').ok_or_else(|| {
                        format!("degradelink {value:?} is not LABEL:FACTOR:START-END")
                    })?;
                    let (factor, window) = rest.split_once(':').ok_or_else(|| {
                        format!("degradelink {value:?} is not LABEL:FACTOR:START-END")
                    })?;
                    if label.is_empty() {
                        return Err(format!("degradelink {value:?} has an empty label"));
                    }
                    let f: f64 = factor
                        .parse()
                        .map_err(|_| format!("bad degradelink factor {factor:?}"))?;
                    if !f.is_finite() || f <= 0.0 {
                        return Err(format!("degradelink factor {f} must be positive"));
                    }
                    let (s, e) = parse_window(window)?;
                    plan.degrade_links.push((
                        label.to_string(),
                        Degrade {
                            cap_factor: f,
                            lat_factor: 1.0,
                            window: (s, e),
                        },
                    ));
                }
                "kill" => {
                    let (rank, at) = parse_id_at(value, "kill", "RANK")?;
                    plan.kills.push((rank, at));
                }
                "killnode" => {
                    let (node, at) = parse_id_at(value, "killnode", "NODE")?;
                    plan.node_kills.push((node, at));
                }
                other => return Err(format!("unknown fault key {other:?}")),
            }
        }
        Ok(plan)
    }

    /// Render the plan back into the `--faults` mini-grammar. Terms that
    /// sit at their default are omitted, so the output is canonical:
    /// `parse(render(p), p.seed)` reproduces `p` exactly for any plan the
    /// grammar can express (degradation windows with a latency factor —
    /// a programmatic-only feature — render their capacity factor only).
    pub fn render(&self) -> String {
        let mut terms: Vec<String> = Vec::new();
        let def = RelConfig::default();
        if self.loss > 0.0 {
            terms.push(format!("loss={}", self.loss));
        }
        if self.rel.rto != def.rto {
            terms.push(format!("rto={}ns", self.rel.rto.as_nanos()));
        }
        if self.rel.max_retries != def.max_retries {
            terms.push(format!("retries={}", self.rel.max_retries));
        }
        if self.rel.jitter_frac != def.jitter_frac {
            terms.push(format!("jitter={}", self.rel.jitter_frac));
        }
        for &(rank, (s, e)) in &self.stalls {
            terms.push(format!("stall={rank}:{}", render_window(s, e)));
        }
        for &(s, e) in self.down.windows() {
            terms.push(format!("down={}", render_window(s, e)));
        }
        for d in &self.degrade {
            terms.push(format!(
                "degrade={}:{}",
                d.cap_factor,
                render_window(d.window.0, d.window.1)
            ));
        }
        for (label, d) in &self.degrade_links {
            terms.push(format!(
                "degradelink={label}:{}:{}",
                d.cap_factor,
                render_window(d.window.0, d.window.1)
            ));
        }
        for &(rank, at) in &self.kills {
            terms.push(format!("kill={rank}:{}ns", nanos_from_start(at)));
        }
        for &(node, at) in &self.node_kills {
            terms.push(format!("killnode={node}:{}ns", nanos_from_start(at)));
        }
        terms.join(",")
    }
}

/// Parse `ID:TIME` (the kill/killnode value shape).
fn parse_id_at(s: &str, key: &str, what: &str) -> Result<(u32, Time), String> {
    let (id, at) = s
        .split_once(':')
        .ok_or_else(|| format!("{key} {s:?} is not {what}:TIME"))?;
    let id: u32 = id
        .parse()
        .map_err(|_| format!("bad {key} {} {id:?}", what.to_lowercase()))?;
    Ok((id, Time::ZERO + parse_duration(at)?))
}

fn nanos_from_start(t: Time) -> u64 {
    (t - Time::ZERO).as_nanos()
}

fn render_window(s: Time, e: Time) -> String {
    format!("{}ns-{}ns", nanos_from_start(s), nanos_from_start(e))
}

/// Parse a duration with an optional `ns`/`us`/`ms`/`s` suffix.
pub fn parse_duration(s: &str) -> Result<Duration, String> {
    let s = s.trim();
    let (digits, mult) = if let Some(d) = s.strip_suffix("ns") {
        (d, 1u64)
    } else if let Some(d) = s.strip_suffix("us") {
        (d, 1_000)
    } else if let Some(d) = s.strip_suffix("ms") {
        (d, 1_000_000)
    } else if let Some(d) = s.strip_suffix('s') {
        (d, 1_000_000_000)
    } else {
        (s, 1)
    };
    let n: u64 = digits
        .trim()
        .parse()
        .map_err(|_| format!("bad duration {s:?}"))?;
    Ok(Duration::from_nanos(n.saturating_mul(mult)))
}

fn parse_window(s: &str) -> Result<(Time, Time), String> {
    let (a, b) = s
        .split_once('-')
        .ok_or_else(|| format!("window {s:?} is not START-END"))?;
    let start = Time::ZERO + parse_duration(a)?;
    let end = Time::ZERO + parse_duration(b)?;
    if end <= start {
        return Err(format!("window {s:?} is empty or inverted"));
    }
    Ok((start, end))
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn default_plan_is_inert() {
        assert!(FaultPlan::default().is_inert());
        assert!(!FaultPlan::lossy(1, 0.01).is_inert());
        assert!(!FaultPlan::default()
            .with_stall(0, Time(0), Time(10))
            .is_inert());
    }

    #[test]
    fn parse_full_grammar() {
        let p = FaultPlan::parse(
            "loss=0.02,rto=500us,retries=8,jitter=0.2,stall=3:10ms-20ms,down=1ms-2ms,degrade=0.1:5ms-8ms",
            7,
        )
        .unwrap();
        assert_eq!(p.seed, 7);
        assert!((p.loss - 0.02).abs() < 1e-12);
        assert_eq!(p.rel.rto, Duration::from_micros(500));
        assert_eq!(p.rel.max_retries, 8);
        assert!((p.rel.jitter_frac - 0.2).abs() < 1e-12);
        assert_eq!(p.stalls, vec![(3, (Time(10_000_000), Time(20_000_000)))]);
        assert_eq!(p.down.windows(), &[(Time(1_000_000), Time(2_000_000))]);
        assert_eq!(p.degrade.len(), 1);
        assert!((p.degrade[0].cap_factor - 0.1).abs() < 1e-12);
    }

    #[test]
    fn parse_degradelink_grammar() {
        let p = FaultPlan::parse("degradelink=NicTx(3):0.25:5ms-8ms", 7).unwrap();
        assert_eq!(p.degrade_links.len(), 1);
        let (label, d) = &p.degrade_links[0];
        assert_eq!(label, "NicTx(3)");
        assert!((d.cap_factor - 0.25).abs() < 1e-12);
        assert_eq!(d.window, (Time(5_000_000), Time(8_000_000)));
        assert!(!p.is_inert(), "a per-link degrade plan is never inert");
        assert!(
            !p.needs_reliability(),
            "per-link degradation loses nothing a timer could recover"
        );
        assert!(
            FaultPlan::parse("degrade=0.25:5ms-8ms", 7)
                .unwrap()
                .needs_reliability(),
            "all-link degradation predates kills and keeps the reliability layer"
        );
        assert!(FaultPlan::parse("degradelink=NicTx(3):0.25", 1).is_err());
        assert!(FaultPlan::parse("degradelink=:0.25:5ms-8ms", 1).is_err());
        assert!(FaultPlan::parse("degradelink=NicTx(3):0:5ms-8ms", 1).is_err());
        assert!(FaultPlan::parse("degradelink=NicTx(3):x:5ms-8ms", 1).is_err());
    }

    #[test]
    fn parse_rejects_malformed_terms() {
        assert!(FaultPlan::parse("loss=1.5", 1).is_err());
        assert!(FaultPlan::parse("bogus=1", 1).is_err());
        assert!(FaultPlan::parse("stall=zz", 1).is_err());
        assert!(FaultPlan::parse("down=5ms-1ms", 1).is_err());
        assert!(FaultPlan::parse("loss", 1).is_err());
        assert!(FaultPlan::parse("degrade=0:1ms-2ms", 1).is_err());
    }

    #[test]
    fn duration_suffixes() {
        assert_eq!(parse_duration("10").unwrap(), Duration::from_nanos(10));
        assert_eq!(parse_duration("10ns").unwrap(), Duration::from_nanos(10));
        assert_eq!(parse_duration("3us").unwrap(), Duration::from_micros(3));
        assert_eq!(parse_duration("2ms").unwrap(), Duration::from_millis(2));
        assert_eq!(
            parse_duration("1s").unwrap(),
            Duration::from_nanos(1_000_000_000)
        );
        assert!(parse_duration("1.5ms").is_err());
    }

    #[test]
    fn parse_kill_grammar() {
        let p = FaultPlan::parse("kill=3:10ms,killnode=1:2ms,kill=7:500us", 9).unwrap();
        assert_eq!(p.kills, vec![(3, Time(10_000_000)), (7, Time(500_000))]);
        assert_eq!(p.node_kills, vec![(1, Time(2_000_000))]);
        assert!(!p.is_inert(), "a kill plan is never inert");
        assert!(
            !p.needs_reliability(),
            "kills alone must not arm the retransmission machinery"
        );
        assert!(
            FaultPlan::parse("stall=3:10ms-20ms", 1)
                .unwrap()
                .needs_reliability(),
            "stalls predate kills and keep the reliability layer"
        );
        assert!(FaultPlan::parse("kill=3", 1).is_err());
        assert!(FaultPlan::parse("kill=x:10ms", 1).is_err());
        assert!(FaultPlan::parse("killnode=1:abc", 1).is_err());
    }

    /// Tiny deterministic generator for the hand-rolled property loops.
    struct Gen(u64);
    impl Gen {
        fn next(&mut self) -> u64 {
            // splitmix64: enough mixing for test-case generation.
            self.0 = self.0.wrapping_add(0x9e3779b97f4a7c15);
            let mut z = self.0;
            z = (z ^ (z >> 30)).wrapping_mul(0xbf58476d1ce4e5b9);
            z = (z ^ (z >> 27)).wrapping_mul(0x94d049bb133111eb);
            z ^ (z >> 31)
        }
        fn below(&mut self, n: u64) -> u64 {
            self.next() % n.max(1)
        }
    }

    /// Generate a random grammar-expressible plan from the seed.
    fn random_plan(g: &mut Gen) -> FaultPlan {
        let mut p = FaultPlan::default();
        if g.below(2) == 1 {
            p.loss = (1 + g.below(98)) as f64 / 100.0;
        }
        if g.below(2) == 1 {
            p.rel.rto = Duration::from_nanos(1 + g.below(1_000_000));
        }
        if g.below(2) == 1 {
            p.rel.max_retries = g.below(64) as u32;
        }
        if g.below(2) == 1 {
            p.rel.jitter_frac = g.below(100) as f64 / 100.0;
        }
        for _ in 0..g.below(3) {
            let s = g.below(1_000_000);
            p = p.with_stall(
                g.below(16) as u32,
                Time(s),
                Time(s + 1 + g.below(1_000_000)),
            );
        }
        for _ in 0..g.below(3) {
            let s = g.below(1_000_000);
            p = p.with_down(Time(s), Time(s + 1 + g.below(1_000_000)));
        }
        for _ in 0..g.below(3) {
            let s = g.below(1_000_000);
            p = p.with_degrade(
                (1 + g.below(99)) as f64 / 100.0,
                1.0,
                Time(s),
                Time(s + 1 + g.below(1_000_000)),
            );
        }
        for _ in 0..g.below(3) {
            let s = g.below(1_000_000);
            let labels = ["NicTx(0)", "NicRx(3)", "Backbone", "Shm(1)"];
            p = p.with_degrade_link(
                labels[g.below(labels.len() as u64) as usize],
                (1 + g.below(99)) as f64 / 100.0,
                1.0,
                Time(s),
                Time(s + 1 + g.below(1_000_000)),
            );
        }
        for _ in 0..g.below(3) {
            p = p.with_kill(g.below(16) as u32, Time(g.below(1_000_000)));
        }
        for _ in 0..g.below(2) {
            p = p.with_node_kill(g.below(4) as u32, Time(g.below(1_000_000)));
        }
        p
    }

    #[test]
    fn render_parse_round_trip_property() {
        // Hand-rolled property loop: 200 seeded random plans covering
        // every grammar key must survive render -> parse bit-exactly.
        let mut g = Gen(0xADA97);
        for case in 0..200 {
            let p = random_plan(&mut g);
            let rendered = p.render();
            let back = FaultPlan::parse(&rendered, p.seed)
                .unwrap_or_else(|e| panic!("case {case}: render {rendered:?} unparseable: {e}"));
            assert_eq!(back, p, "case {case}: round trip changed {rendered:?}");
        }
    }

    #[test]
    fn default_plan_renders_empty_and_round_trips() {
        let p = FaultPlan::default();
        assert_eq!(p.render(), "");
        assert_eq!(FaultPlan::parse("", 1).unwrap(), p);
    }

    #[test]
    fn malformed_inputs_error_never_panic() {
        // Seeded fuzz over mangled grammar strings: parse must return
        // Err (or Ok for accidentally-valid mutants), never panic.
        let seeds = [
            "loss=0.02,rto=500us,retries=8,jitter=0.2",
            "stall=3:10ms-20ms,down=1ms-2ms,degrade=0.1:5ms-8ms",
            "kill=3:10ms,killnode=1:2ms",
        ];
        let garbage = b"=:,-xq0179 .\x00";
        let mut g = Gen(0xFA0175);
        for round in 0..400 {
            let base = seeds[round % seeds.len()];
            let mut bytes = base.as_bytes().to_vec();
            for _ in 0..1 + g.below(4) {
                let i = g.below(bytes.len() as u64) as usize;
                match g.below(3) {
                    0 => bytes[i] = garbage[g.below(garbage.len() as u64) as usize],
                    1 => {
                        bytes.remove(i);
                    }
                    _ => bytes.insert(i, garbage[g.below(garbage.len() as u64) as usize]),
                }
            }
            if let Ok(mangled) = String::from_utf8(bytes) {
                let _ = FaultPlan::parse(&mangled, round as u64); // must not panic
            }
        }
        // A few shapes that must specifically be rejected.
        for bad in [
            "kill=",
            "kill=:",
            "kill=1:",
            "kill=-1:5ms",
            "killnode=1:1.5ms",
            "stall=1:5ms-",
            "down=-",
            "degrade=:1ms-2ms",
            "degradelink=",
            "degradelink=NicTx(0)",
            "degradelink=NicTx(0):-0.5:1ms-2ms",
            "loss=nan",
            "jitter=,",
            "=",
            ",=,",
        ] {
            assert!(
                FaultPlan::parse(bad, 1).is_err(),
                "{bad:?} must be rejected"
            );
        }
    }

    #[test]
    fn overlapping_down_windows_normalize() {
        // Overlap handling is pinned: with_down and the grammar both
        // funnel through Schedule::new, which merges touching windows.
        let p = FaultPlan::parse("down=1ms-3ms,down=2ms-4ms,down=10ms-11ms", 1).unwrap();
        assert_eq!(
            p.down.windows(),
            &[
                (Time(1_000_000), Time(4_000_000)),
                (Time(10_000_000), Time(11_000_000))
            ]
        );
        // Round trip renders the *normalized* windows and re-parses to
        // the same schedule.
        let back = FaultPlan::parse(&p.render(), 1).unwrap();
        assert_eq!(back.down.windows(), p.down.windows());
    }

    #[test]
    fn stalls_for_merges_per_rank() {
        let p = FaultPlan::default()
            .with_stall(2, Time(10), Time(30))
            .with_stall(2, Time(20), Time(40))
            .with_stall(5, Time(0), Time(5));
        assert_eq!(p.stalls_for(2).windows(), &[(Time(10), Time(40))]);
        assert_eq!(p.stalls_for(5).windows(), &[(Time(0), Time(5))]);
        assert!(p.stalls_for(0).is_empty());
    }
}
