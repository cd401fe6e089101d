//! Seeded chaos soak: randomized fault schedules — including permanent
//! rank and node kills — against every comparator library.
//!
//! The contract: **never panic, never hang.** Every schedule either
//! completes with a clean audit (dead ranks' bytes accounted through the
//! failed columns, everything between live ranks delivered exactly once)
//! or returns a structured [`RunError`](adapt::mpi::RunError) naming the
//! failed set and the stuck survivors.
//!
//! The schedule generator is a hand-rolled splitmix64 so the suite has
//! no dev-dependencies; every case prints its seed on failure and is
//! reproducible from it.

use adapt::collectives::{execute, CollectiveCase, Library, OpKind, RunSpec};
use adapt::mpi::RunError;
use adapt::prelude::*;

/// splitmix64: tiny, well-mixed, good enough to derive schedule knobs.
fn splitmix64(state: &mut u64) -> u64 {
    *state = state.wrapping_add(0x9e37_79b9_7f4a_7c15);
    let mut z = *state;
    z = (z ^ (z >> 30)).wrapping_mul(0xbf58_476d_1ce4_e5b9);
    z = (z ^ (z >> 27)).wrapping_mul(0x94d0_49bb_1331_11eb);
    z ^ (z >> 31)
}

fn unit_f64(state: &mut u64) -> f64 {
    (splitmix64(state) >> 11) as f64 / (1u64 << 53) as f64
}

fn t_us(us: u64) -> Time {
    Time::ZERO + Duration::from_micros(us)
}

/// Derive a randomized fault plan from one seed. Roughly half the plans
/// include a permanent kill (rank or whole node); the rest mix loss,
/// outage windows, and stalls that the reliability layer must absorb.
fn random_plan(seed: u64, nranks: u32) -> FaultPlan {
    let mut s = seed.wrapping_mul(0x5851_f42d_4c95_7f2d) ^ 0xda3e_39cb_94b9_5bdb;
    let loss = if unit_f64(&mut s) < 0.6 {
        0.002 + 0.02 * unit_f64(&mut s)
    } else {
        0.0
    };
    let mut plan =
        FaultPlan::lossy(seed, loss).with_rto(Duration::from_micros(20 + splitmix64(&mut s) % 60));
    if unit_f64(&mut s) < 0.4 {
        let start = 20 + splitmix64(&mut s) % 120;
        plan = plan.with_down(t_us(start), t_us(start + 10 + splitmix64(&mut s) % 50));
    }
    if unit_f64(&mut s) < 0.4 {
        let rank = (splitmix64(&mut s) % nranks as u64) as u32;
        let start = splitmix64(&mut s) % 80;
        plan = plan.with_stall(
            rank,
            t_us(start),
            t_us(start + 20 + splitmix64(&mut s) % 80),
        );
    }
    let roll = unit_f64(&mut s);
    if roll < 0.35 {
        let rank = (splitmix64(&mut s) % nranks as u64) as u32;
        plan = plan.with_kill(rank, t_us(splitmix64(&mut s) % 400));
    } else if roll < 0.5 {
        // Node kill: the 2x2x4 minicluster has two 8-rank nodes.
        plan = plan.with_node_kill(
            (splitmix64(&mut s) % 2) as u32,
            t_us(splitmix64(&mut s) % 400),
        );
    }
    plan
}

/// One schedule's outcome, flattened for comparison.
#[derive(Debug, PartialEq)]
enum Outcome {
    /// Completed: clean audit (`execute` fails on a dirty one), finish
    /// times.
    Done {
        makespan: Duration,
        per_rank_finish: Vec<Time>,
        ranks_killed: u64,
        failures_detected: u64,
        retransmits: u64,
    },
    /// Structured failure: the full rendered diagnosis.
    Failed(String),
}

fn run_case(case: &CollectiveCase, plan: FaultPlan) -> Outcome {
    let spec = RunSpec {
        faults: Some(plan),
        ..case.spec()
    };
    match execute(&spec) {
        Ok(res) => Outcome::Done {
            makespan: res.makespan,
            per_rank_finish: res.per_rank_finish,
            ranks_killed: res.stats.ranks_killed,
            failures_detected: res.stats.failures_detected,
            retransmits: res.stats.retransmits,
        },
        // A corrupted ledger is a simulator bug, never a survivable
        // outcome: fail loudly with the report.
        Err(e) if matches!(*e, RunError::AuditFailed { .. }) => panic!("{e}"),
        Err(e) => Outcome::Failed(e.to_string()),
    }
}

#[test]
fn soak_every_library_never_panics_under_random_schedules() {
    // Every library x both ops x randomized schedules with kills: the run
    // must end in a clean completion or a structured error. A dirty
    // audit panics in `run_case`, so a schedule that corrupts the ledger
    // fails loudly here with its seed.
    let machine = profiles::minicluster(2, 2, 4);
    let mut completions = 0u32;
    let mut failures = 0u32;
    let mut kills_survived = 0u32;
    for library in [
        Library::OmpiAdapt,
        Library::OmpiDefault,
        Library::OmpiBlocking,
        Library::IntelMpi,
    ] {
        for op in [OpKind::Bcast, OpKind::Reduce] {
            for seed in 0..8u64 {
                let case = CollectiveCase {
                    machine: machine.clone(),
                    nranks: 16,
                    op,
                    library,
                    msg_bytes: 96 * 1024,
                };
                let plan = random_plan(seed ^ (op as u64) << 8, 16);
                let killing = !plan.kills.is_empty() || !plan.node_kills.is_empty();
                match run_case(&case, plan) {
                    Outcome::Done { ranks_killed, .. } => {
                        completions += 1;
                        if killing && ranks_killed > 0 {
                            kills_survived += 1;
                        }
                    }
                    Outcome::Failed(text) => {
                        failures += 1;
                        assert!(
                            text.contains("rank failure")
                                || text.contains("deadlock")
                                || text.contains("retry budget"),
                            "{library:?} {op:?} seed {seed}: \
                             diagnosis must be structured, got: {text}"
                        );
                    }
                }
            }
        }
    }
    // The mix must actually exercise both endings.
    assert!(completions > 0, "no schedule completed");
    assert!(failures > 0, "no schedule produced a structured failure");
    assert!(
        kills_survived > 0,
        "some kill schedules must be survived outright"
    );
}

#[test]
fn soak_adapt_survives_every_early_interior_kill() {
    // Sharper than the random mix: kill *each* rank of the broadcast tree
    // in turn (except the root), early enough for the detector to beat
    // the adopter's completion. ADAPT's shrink recovery must carry every
    // single case — no rank is load-bearing beyond the root.
    let machine = profiles::minicluster(2, 2, 4);
    for victim in 1..16u32 {
        let case = CollectiveCase {
            machine: machine.clone(),
            nranks: 16,
            op: OpKind::Bcast,
            library: Library::OmpiAdapt,
            msg_bytes: 96 * 1024,
        };
        let plan = FaultPlan::lossy(victim as u64, 0.0)
            .with_kill(victim, t_us(5))
            .with_rto(Duration::from_micros(5));
        match run_case(&case, plan) {
            Outcome::Done {
                ranks_killed,
                failures_detected,
                ..
            } => {
                assert_eq!(ranks_killed, 1, "victim {victim}");
                assert_eq!(failures_detected, 1, "victim {victim}");
            }
            Outcome::Failed(text) => {
                panic!("killing rank {victim} early must be survivable: {text}")
            }
        }
    }
}
