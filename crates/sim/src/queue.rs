//! Deterministic event queue.
//!
//! A binary min-heap keyed on `(time, sequence)`. The sequence number is a
//! monotonically increasing insertion counter, so two events scheduled for
//! the same instant pop in insertion order. This makes every simulation run
//! a pure function of its inputs and seeds.
//!
//! Cancellation is supported through [`EventKey`]s: `cancel` marks a
//! scheduled entry dead without paying for heap surgery, and dead entries
//! are skipped on pop (lazy deletion). Liveness is tracked by a single
//! `pending` set holding exactly the sequence numbers that are scheduled
//! and not yet popped or cancelled, so cancelling an event that has already
//! fired (or was already cancelled) is a detectable no-op rather than a
//! corruption of the live count, and the bookkeeping never outgrows the
//! heap contents.
//!
//! Most simulator events are never cancelled — rank steps, callback
//! completions, flow launches all fire exactly once. Routing them through
//! the cancellation bookkeeping costs two hash-table operations per event
//! (insert on schedule, remove on pop), which profiling shows is the
//! single largest line item in the event loop. [`EventQueue::schedule_untracked`]
//! is the fast path for those: the entry carries a `tracked: false` flag,
//! skips the `pending` set entirely, and is counted live by a plain
//! integer. Pop order is identical either way — both paths draw sequence
//! numbers from the same counter, so `(time, seq)` ordering (and hence
//! every golden trace) is unaffected by which path scheduled an event.
//!
//! Payloads are stored out-of-line in a slot slab and the heap sifts only
//! 24-byte `(time, seq, slot)` keys. With the MPI world's ~72-byte event
//! enum, sifting full entries made heap push/pop ~70% of event-loop time
//! (gprofng, fig8 sweep); the indirection removes the payload `memcpy`
//! from every sift level while leaving pop order — a pure function of
//! `(time, seq)` — untouched.
//!
//! Lazy deletion alone lets cancelled debris pile up: a noise-heavy run
//! whose drain events are rescheduled far more often than they fire can
//! carry a heap many times its live size. Whenever the debris exceeds the
//! live entries (and the heap is big enough to care), the queue rebuilds
//! itself keeping only live entries — an O(heap) pass paid at most once
//! per heap-doubling of cancellations, so the amortized cost per cancel is
//! O(1) and heap occupancy stays within a constant factor of the live
//! count.

use crate::fxhash::FxHashSet;
use crate::time::Time;

/// Sequence number reserved for [`EventKey::default`]. `schedule` hands out
/// sequence numbers counting up from zero, so this value is never assigned
/// to a real event.
const SENTINEL_SEQ: u64 = u64::MAX;

/// Heaps smaller than this are never compacted — the rebuild would cost
/// more than the debris it reclaims.
const COMPACT_MIN_HEAP: usize = 64;

/// Handle to a scheduled event, usable for cancellation. The default key
/// is a reserved sentinel (`u64::MAX`) that never matches a live event:
/// cancelling it is always a no-op returning `false`.
#[derive(Clone, Copy, PartialEq, Eq, Hash, Debug)]
pub struct EventKey {
    seq: u64,
}

impl Default for EventKey {
    fn default() -> Self {
        EventKey { seq: SENTINEL_SEQ }
    }
}

/// One heap entry: ordering key plus the slab slot holding the payload.
///
/// The payload itself lives out-of-line in [`EventQueue`]'s slab, so heap
/// sift operations move this 24-byte POD instead of the full event — with
/// a large event enum (the MPI world's is ~72 bytes) the heap was the
/// single largest line item of the event loop, and most of that was
/// `memcpy` of payloads that sift up and down without being consumed.
#[derive(Clone, Copy)]
struct Entry {
    time: Time,
    seq: u64,
    /// Index into the slab where the payload waits.
    slot: u32,
    /// Whether this entry participates in cancellation bookkeeping. An
    /// untracked entry is always live; a tracked one is live iff its seq
    /// is in the `pending` set.
    tracked: bool,
}

impl Entry {
    /// Heap ordering key. `(time, seq)` is a *strict* total order (seqs
    /// are unique), so every correct min-heap pops the same sequence —
    /// the heap's internal shape can never influence a simulation.
    ///
    /// Packed as `time << 64 | seq`: a single `u128` compare is
    /// branchless (sub/sbb), where the equivalent tuple compare turns
    /// into data-dependent branches that mispredict badly in the sift
    /// loops. Ordering is identical to the lexicographic `(time, seq)`.
    #[inline]
    fn key(&self) -> u128 {
        ((self.time.0 as u128) << 64) | self.seq as u128
    }
}

/// Branching factor of the sift heap. A 4-ary heap is half as deep as a
/// binary one and its four children sit in at most two cache lines of
/// 24-byte entries, which measurably beats `std::collections::BinaryHeap`
/// on the simulator's pop-heavy workload.
const HEAP_ARITY: usize = 4;

/// A `Vec`-backed 4-ary min-heap of [`Entry`]s ordered by `(time, seq)`.
/// Only the minimum is ever observable (pop/peek), and `(time, seq)` is a
/// strict total order, so the internal shape — binary, 4-ary, or anything
/// else — can never change which event pops next.
#[derive(Default)]
struct MinHeap {
    v: Vec<Entry>,
}

impl MinHeap {
    #[inline]
    fn len(&self) -> usize {
        self.v.len()
    }

    #[inline]
    fn peek(&self) -> Option<&Entry> {
        self.v.first()
    }

    fn push(&mut self, e: Entry) {
        let mut i = self.v.len();
        self.v.push(e);
        // Sift up: move the hole toward the root until the parent is
        // smaller, writing the new entry once at its final position.
        while i > 0 {
            let parent = (i - 1) / HEAP_ARITY;
            if self.v[parent].key() <= e.key() {
                break;
            }
            self.v[i] = self.v[parent];
            i = parent;
        }
        self.v[i] = e;
    }

    fn pop(&mut self) -> Option<Entry> {
        let last = self.v.pop()?;
        if self.v.is_empty() {
            return Some(last);
        }
        let top = self.v[0];
        // Sift the former tail down from the root: descend to the
        // smallest child until none is smaller than it.
        let n = self.v.len();
        let mut i = 0;
        loop {
            let first = i * HEAP_ARITY + 1;
            if first >= n {
                break;
            }
            let mut min = first;
            let mut min_key = self.v[first].key();
            for c in (first + 1)..(first + HEAP_ARITY).min(n) {
                let k = self.v[c].key();
                if k < min_key {
                    min = c;
                    min_key = k;
                }
            }
            if min_key >= last.key() {
                break;
            }
            self.v[i] = self.v[min];
            i = min;
        }
        self.v[i] = last;
        Some(top)
    }

    /// Rebuild from arbitrary entries (Floyd's heapify, bottom-up).
    fn rebuild(v: Vec<Entry>) -> MinHeap {
        let mut h = MinHeap { v };
        let n = h.v.len();
        if n > 1 {
            for i in (0..=(n - 2) / HEAP_ARITY).rev() {
                h.sift_down(i);
            }
        }
        h
    }

    fn sift_down(&mut self, mut i: usize) {
        let e = self.v[i];
        let n = self.v.len();
        loop {
            let first = i * HEAP_ARITY + 1;
            if first >= n {
                break;
            }
            let mut min = first;
            let mut min_key = self.v[first].key();
            for c in (first + 1)..(first + HEAP_ARITY).min(n) {
                let k = self.v[c].key();
                if k < min_key {
                    min = c;
                    min_key = k;
                }
            }
            if min_key >= e.key() {
                break;
            }
            self.v[i] = self.v[min];
            i = min;
        }
        self.v[i] = e;
    }

    fn iter(&self) -> std::slice::Iter<'_, Entry> {
        self.v.iter()
    }

    fn into_vec(self) -> Vec<Entry> {
        self.v
    }
}

/// Internal-consistency snapshot of an [`EventQueue`], used by the
/// simulator-wide audit layer ([`crate::audit::AuditReport`]).
#[derive(Clone, Copy, Debug, Default, PartialEq, Eq)]
pub struct QueueAudit {
    /// Live events as reported by [`EventQueue::len`] (the live counter).
    pub reported_live: usize,
    /// Live events actually present in the heap (full scan counting
    /// untracked entries plus tracked entries whose sequence is in the
    /// pending set).
    pub actual_live: usize,
    /// Total heap entries, including cancelled debris awaiting lazy
    /// removal.
    pub heap_total: usize,
    /// Number of schedule calls that targeted the past and were clamped
    /// forward (see [`EventQueue::schedule`]).
    pub causality_violations: u64,
}

impl QueueAudit {
    /// True when the reported live count matches the heap contents.
    pub fn is_consistent(&self) -> bool {
        self.reported_live == self.actual_live && self.actual_live <= self.heap_total
    }
}

/// A deterministic time-ordered event queue.
pub struct EventQueue<E> {
    heap: MinHeap,
    /// Payload storage, indexed by [`Entry::slot`]. A slot is occupied
    /// from schedule until its entry pops (live or as lazy-deleted
    /// debris), then recycled through `free`. Payloads are written once
    /// and read once — they never participate in heap sifts.
    slab: Vec<Option<E>>,
    /// Recycled slab slots.
    free: Vec<u32>,
    next_seq: u64,
    /// Sequence numbers of *tracked* entries that are scheduled and
    /// neither popped nor cancelled. A tracked entry in the heap is live
    /// iff its seq is here, so cancelling an event that already fired (or
    /// was already cancelled) is a detectable no-op, and the bookkeeping
    /// never outgrows the heap contents. Untracked entries bypass this set.
    pending: FxHashSet<u64>,
    /// Live entries (tracked + untracked). Kept as a counter so the hot
    /// untracked path touches no hash table; the audit layer cross-checks
    /// it against the heap.
    live: usize,
    /// Last time popped; used to detect causality violations.
    last_popped: Time,
    /// Schedule calls that targeted the past and were clamped forward.
    causality_violations: u64,
    /// Debris-compaction rebuilds performed (diagnostics).
    compactions: u64,
}

impl<E> Default for EventQueue<E> {
    fn default() -> Self {
        Self::new()
    }
}

impl<E> EventQueue<E> {
    /// Create an empty queue.
    pub fn new() -> Self {
        EventQueue {
            heap: MinHeap::default(),
            slab: Vec::new(),
            free: Vec::new(),
            next_seq: 0,
            pending: FxHashSet::default(),
            live: 0,
            last_popped: Time::ZERO,
            causality_violations: 0,
            compactions: 0,
        }
    }

    /// Rebuild the heap keeping only live entries once cancelled debris
    /// outnumbers them. Pop order is unaffected — `(time, seq)` is a total
    /// order — so compaction is invisible to the simulation.
    fn maybe_compact(&mut self) {
        if self.heap.len() < COMPACT_MIN_HEAP || self.heap.len() <= 2 * self.live {
            return;
        }
        self.compactions += 1;
        let pending = &self.pending;
        let slab = &mut self.slab;
        let free = &mut self.free;
        let live: Vec<Entry> = std::mem::take(&mut self.heap)
            .into_vec()
            .into_iter()
            .filter(|e| {
                let alive = !e.tracked || pending.contains(&e.seq);
                if !alive {
                    // Cancelled debris: release its payload slot now
                    // instead of waiting for the entry to pop.
                    slab[e.slot as usize] = None;
                    free.push(e.slot);
                }
                alive
            })
            .collect();
        self.heap = MinHeap::rebuild(live);
    }

    /// Schedule `payload` at absolute time `time`.
    ///
    /// Scheduling in the past (before the last popped event) is a logic
    /// error in the caller; it is clamped forward to preserve causality
    /// and counted in [`EventQueue::causality_violations`] so the audit
    /// layer can report it instead of the bug silently disappearing.
    #[inline]
    pub fn schedule(&mut self, time: Time, payload: E) -> EventKey {
        let seq = self.push_entry(time, payload, true);
        EventKey { seq }
    }

    /// Schedule `payload` at absolute time `time` without a cancellation
    /// handle. The hot path for fire-exactly-once events: no hash-table
    /// bookkeeping on schedule or pop. Ordering is identical to
    /// [`EventQueue::schedule`] — both draw from the same sequence counter.
    #[inline]
    pub fn schedule_untracked(&mut self, time: Time, payload: E) {
        self.push_entry(time, payload, false);
    }

    #[inline]
    fn push_entry(&mut self, time: Time, payload: E, tracked: bool) -> u64 {
        if time < self.last_popped {
            self.causality_violations += 1;
        }
        let time = time.max(self.last_popped);
        let seq = self.next_seq;
        assert!(seq != SENTINEL_SEQ, "event sequence space exhausted");
        self.next_seq += 1;
        let slot = match self.free.pop() {
            Some(s) => {
                self.slab[s as usize] = Some(payload);
                s
            }
            None => {
                let s = self.slab.len();
                assert!(s < u32::MAX as usize, "event slab exhausted");
                self.slab.push(Some(payload));
                s as u32
            }
        };
        self.heap.push(Entry {
            time,
            seq,
            slot,
            tracked,
        });
        if tracked {
            self.pending.insert(seq);
        }
        self.live += 1;
        seq
    }

    /// Cancel a previously scheduled event. Returns true if the event was
    /// still pending — i.e. scheduled and not yet popped or cancelled.
    /// Cancelling a popped event, a cancelled event, or the default
    /// sentinel key is a no-op returning false and leaves `len()` intact.
    pub fn cancel(&mut self, key: EventKey) -> bool {
        let was_pending = self.pending.remove(&key.seq);
        if was_pending {
            self.live -= 1;
            self.maybe_compact();
        }
        was_pending
    }

    /// Remove and return the earliest live event.
    #[inline]
    pub fn pop(&mut self) -> Option<(Time, E)> {
        self.maybe_compact();
        while let Some(entry) = self.heap.pop() {
            let payload = self.slab[entry.slot as usize]
                .take()
                .expect("scheduled slot holds a payload");
            self.free.push(entry.slot);
            if entry.tracked && !self.pending.remove(&entry.seq) {
                continue; // cancelled entry: lazy deletion
            }
            self.live -= 1;
            self.last_popped = entry.time;
            return Some((entry.time, payload));
        }
        None
    }

    /// Time of the earliest live event without removing it.
    pub fn peek_time(&mut self) -> Option<Time> {
        self.maybe_compact();
        while let Some(entry) = self.heap.peek() {
            if !entry.tracked || self.pending.contains(&entry.seq) {
                return Some(entry.time);
            }
            let entry = self.heap.pop().expect("peeked entry pops");
            self.slab[entry.slot as usize] = None;
            self.free.push(entry.slot);
        }
        None
    }

    /// Number of live scheduled events.
    pub fn len(&self) -> usize {
        self.live
    }

    /// True when no live events remain.
    pub fn is_empty(&self) -> bool {
        self.live == 0
    }

    /// The time of the last popped event (the queue's notion of "now").
    pub fn now(&self) -> Time {
        self.last_popped
    }

    /// Number of schedule calls that targeted an instant before `now()`
    /// and were clamped forward.
    pub fn causality_violations(&self) -> u64 {
        self.causality_violations
    }

    /// Number of debris-compaction rebuilds performed.
    pub fn compactions(&self) -> u64 {
        self.compactions
    }

    /// Cross-check the reported live count against the actual heap
    /// contents (O(heap) scan; intended for end-of-run audits, not the
    /// hot path).
    pub fn audit(&self) -> QueueAudit {
        let actual_live = self
            .heap
            .iter()
            .filter(|e| !e.tracked || self.pending.contains(&e.seq))
            .count();
        QueueAudit {
            reported_live: self.live,
            actual_live,
            heap_total: self.heap.len(),
            causality_violations: self.causality_violations,
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::time::Duration;

    #[test]
    fn pops_in_time_order() {
        let mut q = EventQueue::new();
        q.schedule(Time(30), "c");
        q.schedule(Time(10), "a");
        q.schedule(Time(20), "b");
        assert_eq!(q.pop(), Some((Time(10), "a")));
        assert_eq!(q.pop(), Some((Time(20), "b")));
        assert_eq!(q.pop(), Some((Time(30), "c")));
        assert_eq!(q.pop(), None);
    }

    #[test]
    fn ties_break_by_insertion_order() {
        let mut q = EventQueue::new();
        q.schedule(Time(5), 1);
        q.schedule(Time(5), 2);
        q.schedule(Time(5), 3);
        assert_eq!(q.pop().unwrap().1, 1);
        assert_eq!(q.pop().unwrap().1, 2);
        assert_eq!(q.pop().unwrap().1, 3);
    }

    #[test]
    fn cancel_skips_entry() {
        let mut q = EventQueue::new();
        let _a = q.schedule(Time(1), "a");
        let b = q.schedule(Time(2), "b");
        let _c = q.schedule(Time(3), "c");
        assert!(q.cancel(b));
        assert!(!q.cancel(b), "double cancel reports false");
        assert_eq!(q.len(), 2);
        assert_eq!(q.pop(), Some((Time(1), "a")));
        assert_eq!(q.pop(), Some((Time(3), "c")));
        assert!(q.is_empty());
    }

    #[test]
    fn peek_time_skips_cancelled_head() {
        let mut q = EventQueue::new();
        let a = q.schedule(Time(1), "a");
        q.schedule(Time(2), "b");
        q.cancel(a);
        assert_eq!(q.peek_time(), Some(Time(2)));
    }

    #[test]
    fn now_tracks_last_pop() {
        let mut q = EventQueue::new();
        q.schedule(Time::ZERO + Duration::from_micros(7), ());
        q.pop();
        assert_eq!(q.now(), Time(7_000));
    }

    #[test]
    fn len_counts_live_only() {
        let mut q = EventQueue::new();
        let a = q.schedule(Time(1), ());
        q.schedule(Time(2), ());
        q.cancel(a);
        assert_eq!(q.len(), 1);
    }

    #[test]
    fn default_key_cancel_is_a_noop() {
        // Regression: the default key used to carry seq 0, colliding with
        // the first scheduled event — cancelling a placeholder key would
        // silently kill it.
        let mut q = EventQueue::new();
        assert!(!q.cancel(EventKey::default()), "fresh queue: no-op");
        let first = q.schedule(Time(1), "first");
        assert!(!q.cancel(EventKey::default()), "must not match seq 0");
        assert_eq!(q.len(), 1);
        assert_eq!(q.pop(), Some((Time(1), "first")));
        assert!(!q.cancel(first), "already popped");
        assert!(q.is_empty());
    }

    #[test]
    fn cancel_after_pop_is_a_noop() {
        // Regression: cancel used to return true for already-popped keys,
        // decrementing the live count below reality and leaking an entry
        // in the cancelled set forever.
        let mut q = EventQueue::new();
        let a = q.schedule(Time(1), "a");
        q.schedule(Time(2), "b");
        assert_eq!(q.pop(), Some((Time(1), "a")));
        assert!(!q.cancel(a), "popped event is not cancellable");
        assert_eq!(q.len(), 1, "live count untouched by the failed cancel");
        assert!(!q.is_empty());
        assert_eq!(q.pop(), Some((Time(2), "b")));
        assert!(q.is_empty());
        assert_eq!(q.pop(), None);
    }

    #[test]
    fn cancel_then_reschedule_cycles_stay_bounded_and_consistent() {
        // The drain-reschedule pattern the network engine uses: schedule a
        // replacement, cancel the old event, repeat. Bookkeeping must not
        // grow without bound and len() must match the heap at every step.
        let mut q = EventQueue::new();
        let mut key = q.schedule(Time(10), 0u32);
        for i in 1..1000u32 {
            let new = q.schedule(Time(10 + i as u64), i);
            assert!(q.cancel(key));
            key = new;
            assert_eq!(q.len(), 1);
        }
        let audit = q.audit();
        assert!(audit.is_consistent(), "{audit:?}");
        assert_eq!(audit.reported_live, 1);
        // Draining the queue clears the cancelled debris too.
        assert!(q.pop().is_some());
        assert!(q.pop().is_none());
        let audit = q.audit();
        assert_eq!(audit.heap_total, 0, "no leaked entries: {audit:?}");
        assert!(audit.is_consistent());
    }

    #[test]
    fn debris_stays_bounded_under_schedule_cancel_churn() {
        // A long noise-heavy run reschedules drain events constantly:
        // schedule a replacement, cancel the old key, never pop. Without
        // compaction the heap grows by one dead entry per cycle; with it,
        // occupancy must stay within a constant factor of the live count.
        let mut q = EventQueue::new();
        let mut keys: Vec<EventKey> = (0..100u64).map(|i| q.schedule(Time(i), i)).collect();
        for round in 0..1_000u64 {
            for k in keys.iter_mut() {
                let new = q.schedule(Time(100 + round), round);
                assert!(q.cancel(*k));
                *k = new;
                let audit = q.audit();
                assert!(audit.is_consistent(), "{audit:?}");
                assert!(
                    audit.heap_total <= (2 * audit.reported_live).max(super::COMPACT_MIN_HEAP),
                    "heap debris unbounded: {audit:?}"
                );
            }
        }
        assert!(q.compactions() > 0, "churn this heavy must compact");
        // The queue still pops everything that is live, in order.
        let mut popped = 0;
        while q.pop().is_some() {
            popped += 1;
        }
        assert_eq!(popped, 100);
        assert_eq!(q.audit().heap_total, 0);
    }

    #[test]
    fn compaction_preserves_pop_order_and_len() {
        let mut q = EventQueue::new();
        let keys: Vec<EventKey> = (0..200u64).map(|i| q.schedule(Time(1000 - i), i)).collect();
        // Cancel three quarters; compaction will trigger along the way.
        for k in keys.iter().take(150) {
            q.cancel(*k);
        }
        assert_eq!(q.len(), 50);
        let mut last = Time::ZERO;
        let mut seen = Vec::new();
        while let Some((t, v)) = q.pop() {
            assert!(t >= last);
            last = t;
            seen.push(v);
        }
        // The survivors are exactly the 50 latest-scheduled payloads, in
        // descending payload order (they were scheduled at descending
        // times).
        assert_eq!(seen, (150..200u64).rev().collect::<Vec<_>>());
    }

    #[test]
    fn untracked_and_tracked_events_interleave_by_time_and_seq() {
        let mut q = EventQueue::new();
        q.schedule_untracked(Time(5), "u5");
        let t3 = q.schedule(Time(3), "t3");
        q.schedule_untracked(Time(3), "u3"); // later seq than t3, same time
        q.schedule(Time(1), "t1");
        assert_eq!(q.len(), 4);
        assert_eq!(q.pop(), Some((Time(1), "t1")));
        assert_eq!(q.pop(), Some((Time(3), "t3")));
        assert_eq!(q.pop(), Some((Time(3), "u3")));
        assert_eq!(q.pop(), Some((Time(5), "u5")));
        assert!(q.is_empty());
        assert!(!q.cancel(t3), "popped tracked key stays uncancellable");
    }

    #[test]
    fn untracked_events_survive_compaction_and_audit() {
        let mut q = EventQueue::new();
        for i in 0..50u64 {
            q.schedule_untracked(Time(1000 + i), i);
        }
        // Pile up enough cancelled debris to force a rebuild.
        let keys: Vec<EventKey> = (0..200u64).map(|i| q.schedule(Time(i), 100 + i)).collect();
        for k in &keys {
            assert!(q.cancel(*k));
        }
        assert!(q.compactions() > 0, "debris must trigger a rebuild");
        let audit = q.audit();
        assert!(audit.is_consistent(), "{audit:?}");
        assert_eq!(audit.reported_live, 50);
        let mut popped = Vec::new();
        while let Some((_, v)) = q.pop() {
            popped.push(v);
        }
        assert_eq!(popped, (0..50u64).collect::<Vec<_>>());
        assert_eq!(q.audit().heap_total, 0);
    }

    #[test]
    fn peek_time_sees_untracked_head_past_cancelled_debris() {
        let mut q = EventQueue::new();
        let a = q.schedule(Time(1), 0);
        q.schedule_untracked(Time(2), 1);
        assert!(q.cancel(a));
        assert_eq!(q.peek_time(), Some(Time(2)));
        assert_eq!(q.len(), 1);
    }

    #[test]
    fn causality_violations_are_counted_and_clamped() {
        let mut q = EventQueue::new();
        q.schedule(Time(100), "late");
        assert_eq!(q.pop(), Some((Time(100), "late")));
        assert_eq!(q.causality_violations(), 0);
        // Scheduling before now() clamps forward and counts.
        q.schedule(Time(50), "past");
        assert_eq!(q.causality_violations(), 1);
        assert_eq!(q.pop(), Some((Time(100), "past")));
        assert_eq!(q.audit().causality_violations, 1);
    }

    #[test]
    fn audit_matches_reality_through_mixed_operations() {
        let mut q = EventQueue::new();
        let keys: Vec<EventKey> = (0..20).map(|i| q.schedule(Time(i), i)).collect();
        for k in keys.iter().step_by(3) {
            q.cancel(*k);
        }
        for _ in 0..5 {
            q.pop();
        }
        let audit = q.audit();
        assert!(audit.is_consistent(), "{audit:?}");
        assert_eq!(audit.reported_live, q.len());
    }
}
