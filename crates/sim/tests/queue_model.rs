//! Reference-model property test of the event queue.
//!
//! The model is the textbook queue the radix buckets replace: a
//! `BinaryHeap` of `Reverse((time, seq))` with a global insertion sequence
//! to break ties, plus a set of cancelled sequence numbers skipped at pop.
//! Random interleavings of schedule (at now, near, far and in the past),
//! cancel (of live, popped, cancelled and stale keys, and of the default
//! key), pop, and peek-then-schedule-before-the-peeked-time must give the
//! same answers from both.

use adapt_sim::queue::{EventKey, EventQueue};
use adapt_sim::time::Time;
use proptest::prelude::*;
use std::cmp::Reverse;
use std::collections::{BinaryHeap, HashSet};

#[derive(Default)]
struct Model {
    heap: BinaryHeap<Reverse<(u64, u64)>>,
    cancelled: HashSet<u64>,
    live: HashSet<u64>,
    next_seq: u64,
    now: u64,
    clamped: u64,
}

impl Model {
    fn schedule(&mut self, time: u64) -> u64 {
        let seq = self.next_seq;
        self.next_seq += 1;
        self.clamped += u64::from(time < self.now);
        self.heap.push(Reverse((time.max(self.now), seq)));
        self.live.insert(seq);
        seq
    }

    fn cancel(&mut self, seq: u64) -> bool {
        let was_live = self.live.remove(&seq);
        if was_live {
            self.cancelled.insert(seq);
        }
        was_live
    }

    fn skip_cancelled(&mut self) {
        while let Some(&Reverse((_, seq))) = self.heap.peek() {
            if !self.cancelled.remove(&seq) {
                break;
            }
            self.heap.pop();
        }
    }

    fn pop(&mut self) -> Option<(u64, u64)> {
        self.skip_cancelled();
        let Reverse((time, seq)) = self.heap.pop()?;
        self.live.remove(&seq);
        self.now = time;
        Some((time, seq))
    }

    fn peek_time(&mut self) -> Option<u64> {
        self.skip_cancelled();
        self.heap.peek().map(|&Reverse((time, _))| time)
    }
}

/// Apply one drawn operation to both queues and compare their answers.
/// `keys` holds every key handed out, with its sequence number, so cancels
/// can aim at live, popped, cancelled and reused-slot keys alike.
fn step(
    q: &mut EventQueue<u64>,
    m: &mut Model,
    keys: &mut Vec<(EventKey, u64)>,
    op: u8,
    arg: u64,
) -> Result<(), TestCaseError> {
    let now = m.now;
    let mut schedule = |q: &mut EventQueue<u64>, m: &mut Model, t: u64| {
        let seq = m.schedule(t);
        keys.push((q.schedule(Time(t), seq), seq));
    };
    match op {
        // Schedule at now, near, far, and in the past.
        0 => schedule(q, m, now),
        1 | 13..=16 => schedule(q, m, now + arg % 64),
        2 | 17..=19 => schedule(q, m, now + (arg % (1 << 40))),
        3 => schedule(q, m, now.saturating_sub(arg % 1000)),
        // Cancel any key handed out so far: live, popped, cancelled, or
        // stale after its slot was reused.
        4 | 5 => {
            if keys.is_empty() {
                return Ok(());
            }
            let (key, seq) = keys[(arg % keys.len() as u64) as usize];
            prop_assert_eq!(q.cancel(key), m.cancel(seq), "cancel of seq {}", seq);
        }
        // Cancel the newest still-live key (the common case in the world).
        6 => {
            if let Some(&(key, seq)) = keys.iter().rev().find(|(_, s)| m.live.contains(s)) {
                prop_assert!(q.cancel(key));
                prop_assert!(m.cancel(seq));
            }
        }
        7 => prop_assert!(!q.cancel(EventKey::default())),
        // Pop.
        8..=10 => prop_assert_eq!(q.pop().map(|(t, v)| (t.0, v)), m.pop()),
        // Peek, then schedule between now and the peeked time.
        11 | 12 => {
            let peeked = q.peek_time().map(|t| t.0);
            prop_assert_eq!(peeked, m.peek_time());
            if let Some(p) = peeked {
                let span = p - now;
                schedule(q, m, now + if span == 0 { 0 } else { arg % span });
            }
        }
        _ => unreachable!("op drawn from 0..20"),
    }
    prop_assert_eq!(q.len(), m.live.len());
    prop_assert_eq!(q.now().0, m.now);
    prop_assert_eq!(q.causality_violations(), m.clamped);
    Ok(())
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(256))]

    /// Ops 13..20 are extra schedules, so queues grow to hundreds of
    /// entries. Under `churn` they alternate far schedules with cancels of
    /// the newest live key instead, so debris piles up and compacts.
    #[test]
    fn queue_matches_a_binary_heap_with_a_cancelled_set(
        ops in proptest::collection::vec((0u8..20, 0u64..u64::MAX), 1..600),
        churn in proptest::bool::ANY,
    ) {
        let mut q = EventQueue::new();
        let mut m = Model::default();
        let mut keys = Vec::new();
        for &(op, arg) in &ops {
            let op = match op {
                13.. if churn => [6, 2][op as usize % 2],
                op => op,
            };
            step(&mut q, &mut m, &mut keys, op, arg)?;
        }
        prop_assert!(q.audit().is_consistent(), "{:?}", q.audit());
        // Drain: every remaining event pops in the model's order.
        loop {
            let (a, b) = (q.pop().map(|(t, v)| (t.0, v)), m.pop());
            prop_assert_eq!(a, b);
            if a.is_none() {
                break;
            }
        }
        prop_assert_eq!(q.audit().stored, 0);
    }
}
