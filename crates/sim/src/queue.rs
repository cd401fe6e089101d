//! Deterministic event queue.
//!
//! Events pop in `(time, sequence)` order. The sequence number is a
//! monotonically increasing insertion counter, so two events scheduled for
//! the same instant pop in insertion order. This makes every simulation run
//! a pure function of its inputs and seeds.
//!
//! Two stores hold the scheduled entries:
//!
//! * a 4-ary min-heap of 24-byte `(time, seq, slot)` keys for the future;
//! * a FIFO *lane* for the present: an event scheduled for the instant of
//!   the last pop (a quarter to a third of all schedules in the suite
//!   workloads — the handler a message completion wakes, the step a drain
//!   unblocks) is appended to the lane instead of sifting through the
//!   heap. Its sequence number is the largest yet and its time the
//!   smallest possible, so the lane stays sorted by `(time, seq)` for
//!   free.
//!
//! `pop` takes the lane front or the heap head, whichever is smaller by
//! `(time, seq)`: a heap entry at the current instant with a lower
//! sequence number (scheduled before the clock got there) still pops
//! first, so the pop order is exactly that of one heap.
//!
//! Payloads are stored out-of-line in a slot slab, so heap sifts move only
//! the keys. Each slot also carries its owner's sequence number (its
//! *stamp*). An [`EventKey`] names a slot and a sequence number; `cancel`
//! is one indexed compare — the stamp matches and the slot still holds a
//! payload exactly while the event is scheduled and neither popped nor
//! cancelled — after which the stamp is cleared and the entry left behind
//! as debris (lazy deletion). A key whose event fired, was cancelled, or
//! whose slot was since reused returns `false` and leaves the live count
//! intact. Every event is cancellable; there is no separate untracked
//! path.
//!
//! Lazy deletion alone lets cancelled debris pile up: a noise-heavy run
//! whose events are rescheduled far more often than they fire can carry
//! heap and lane many times their live size. Whenever the debris exceeds
//! the live entries (and the queue is big enough to care), the queue
//! rebuilds itself keeping only live entries — an O(entries) pass paid at
//! most once per doubling of cancellations, so the amortized cost per
//! cancel is O(1) and occupancy stays within a constant factor of the live
//! count.

use crate::time::Time;
use std::collections::VecDeque;

/// Sequence number reserved for [`EventKey::default`] and for the stamp
/// of a slot with no scheduled event. `schedule` hands out sequence
/// numbers counting up from zero, so this value is never assigned to a
/// real event.
const SENTINEL_SEQ: u64 = u64::MAX;

/// Queues with fewer entries than this are never compacted — the rebuild
/// would cost more than the debris it reclaims.
const COMPACT_MIN_HEAP: usize = 64;

/// Handle to a scheduled event, usable for cancellation. The default key
/// is a reserved sentinel that never matches a live event: cancelling it
/// is always a no-op returning `false`.
#[derive(Clone, Copy, PartialEq, Eq, Hash, Debug)]
pub struct EventKey {
    seq: u64,
    slot: u32,
}

impl Default for EventKey {
    fn default() -> Self {
        EventKey {
            seq: SENTINEL_SEQ,
            slot: u32::MAX,
        }
    }
}

/// One heap or lane entry: ordering key plus the slab slot holding the
/// payload.
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
}

impl Entry {
    /// Ordering key. `(time, seq)` is a *strict* total order (seqs are
    /// unique), so every correct min-heap pops the same sequence — the
    /// heap's internal shape can never influence a simulation.
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
    /// Live events actually present in heap and lane (full scan counting
    /// the entries whose slot still carries their stamp).
    pub actual_live: usize,
    /// Total heap and lane entries, including cancelled debris awaiting
    /// lazy removal.
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
    /// Entries after the current instant, and current-instant entries
    /// scheduled before the clock got there.
    heap: MinHeap,
    /// Entries scheduled for the current instant while it was current, in
    /// sequence order.
    lane: VecDeque<Entry>,
    /// Payload storage, indexed by [`Entry::slot`]. A slot is occupied
    /// from schedule until its entry leaves heap or lane (popped, or
    /// dropped as debris), then recycled through `free`. Payloads are
    /// written once and read once — they never participate in heap sifts.
    slab: Vec<Option<E>>,
    /// Per slot: the sequence number of the event it was last given,
    /// cleared to [`SENTINEL_SEQ`] when that event is cancelled. A popped
    /// event's slot keeps its stamp but holds no payload.
    stamps: Vec<u64>,
    /// Recycled slab slots.
    free: Vec<u32>,
    next_seq: u64,
    /// Live entries. Kept as a counter; the audit layer cross-checks it
    /// against heap and lane.
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
            lane: VecDeque::new(),
            slab: Vec::new(),
            stamps: Vec::new(),
            free: Vec::new(),
            next_seq: 0,
            live: 0,
            last_popped: Time::ZERO,
            causality_violations: 0,
            compactions: 0,
        }
    }

    /// True while `e`'s slot still carries its stamp (scheduled, neither
    /// popped nor cancelled).
    #[inline]
    fn is_live(&self, e: &Entry) -> bool {
        self.stamps[e.slot as usize] == e.seq
    }

    /// Release the slot of an entry that left heap or lane. Its stamp
    /// stays until the slot is reused; `cancel` also requires a payload,
    /// so a popped event's key cannot cancel it.
    #[inline]
    fn release(&mut self, e: &Entry) -> Option<E> {
        self.free.push(e.slot);
        self.slab[e.slot as usize].take()
    }

    /// Rebuild heap and lane keeping only live entries once cancelled
    /// debris outnumbers them. Pop order is unaffected — `(time, seq)` is a
    /// total order — so compaction is invisible to the simulation.
    fn maybe_compact(&mut self) {
        let total = self.heap.len() + self.lane.len();
        if total < COMPACT_MIN_HEAP || total <= 2 * self.live {
            return;
        }
        self.compactions += 1;
        let (slab, stamps, free) = (&mut self.slab, &self.stamps, &mut self.free);
        let mut keep = |e: &Entry| {
            let alive = stamps[e.slot as usize] == e.seq;
            if !alive {
                // Cancelled debris: release its slot now instead of
                // waiting for the entry to pop.
                slab[e.slot as usize] = None;
                free.push(e.slot);
            }
            alive
        };
        self.lane.retain(&mut keep);
        let live: Vec<Entry> = std::mem::take(&mut self.heap)
            .into_vec()
            .into_iter()
            .filter(keep)
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
                self.stamps[s as usize] = seq;
                s
            }
            None => {
                let s = self.slab.len();
                assert!(s < u32::MAX as usize, "event slab exhausted");
                self.slab.push(Some(payload));
                self.stamps.push(seq);
                s as u32
            }
        };
        let e = Entry { time, seq, slot };
        if time == self.last_popped {
            self.lane.push_back(e);
        } else {
            self.heap.push(e);
        }
        self.live += 1;
        EventKey { seq, slot }
    }

    /// Cancel a previously scheduled event. Returns true if the event was
    /// still pending — i.e. scheduled and not yet popped or cancelled.
    /// Cancelling a popped event, a cancelled event, a key whose slot was
    /// since reused, or the default sentinel key is a no-op returning
    /// false and leaves `len()` intact.
    pub fn cancel(&mut self, key: EventKey) -> bool {
        let slot = key.slot as usize;
        match self.stamps.get_mut(slot) {
            Some(stamp) if *stamp == key.seq && self.slab[slot].is_some() => {
                *stamp = SENTINEL_SEQ;
                self.live -= 1;
                self.maybe_compact();
                true
            }
            _ => false,
        }
    }

    /// Remove and return the earliest live event.
    #[inline]
    pub fn pop(&mut self) -> Option<(Time, E)> {
        self.maybe_compact();
        loop {
            let from_lane = match (self.lane.front(), self.heap.peek()) {
                (None, None) => return None,
                (None, Some(_)) => false,
                (Some(_), None) => true,
                (Some(l), Some(h)) => l.key() < h.key(),
            };
            let entry = if from_lane {
                self.lane.pop_front()
            } else {
                self.heap.pop()
            }
            .expect("a store was non-empty");
            let live = self.is_live(&entry);
            let payload = self.release(&entry);
            if !live {
                continue; // cancelled entry: lazy deletion
            }
            self.live -= 1;
            self.last_popped = entry.time;
            return Some((entry.time, payload.expect("live slot holds a payload")));
        }
    }

    /// Time of the earliest live event without removing it.
    pub fn peek_time(&mut self) -> Option<Time> {
        self.maybe_compact();
        while let Some(e) = self.lane.front().copied() {
            if self.is_live(&e) {
                break;
            }
            self.lane.pop_front();
            self.release(&e);
        }
        while let Some(e) = self.heap.peek().copied() {
            if self.is_live(&e) {
                break;
            }
            self.heap.pop();
            self.release(&e);
        }
        match (self.lane.front(), self.heap.peek()) {
            (Some(l), Some(h)) => Some(l.time.min(h.time)),
            (l, h) => l.or(h).map(|e| e.time),
        }
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

    /// Cross-check the reported live count against the actual heap and
    /// lane contents (O(entries) scan; intended for end-of-run audits, not
    /// the hot path).
    pub fn audit(&self) -> QueueAudit {
        let actual_live = self
            .heap
            .iter()
            .chain(self.lane.iter())
            .filter(|e| self.is_live(e))
            .count();
        QueueAudit {
            reported_live: self.live,
            actual_live,
            heap_total: self.heap.len() + self.lane.len(),
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
    fn fire_once_and_cancellable_events_interleave_by_time_and_seq() {
        let mut q = EventQueue::new();
        q.schedule(Time(5), "u5");
        let t3 = q.schedule(Time(3), "t3");
        q.schedule(Time(3), "u3"); // later seq than t3, same time
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
    fn never_cancelled_events_survive_compaction_and_audit() {
        let mut q = EventQueue::new();
        for i in 0..50u64 {
            q.schedule(Time(1000 + i), i);
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
    fn peek_time_sees_live_head_past_cancelled_debris() {
        let mut q = EventQueue::new();
        let a = q.schedule(Time(1), 0);
        q.schedule(Time(2), 1);
        assert!(q.cancel(a));
        assert_eq!(q.peek_time(), Some(Time(2)));
        assert_eq!(q.len(), 1);
    }

    #[test]
    fn heap_entry_at_now_with_lower_seq_pops_before_the_lane() {
        let mut q = EventQueue::new();
        q.schedule(Time(10), "first");
        q.schedule(Time(20), "heap-early");
        q.schedule(Time(20), "heap-late");
        assert_eq!(q.pop(), Some((Time(10), "first")));
        assert_eq!(q.pop(), Some((Time(20), "heap-early")));
        // Now at 20: these go to the lane, behind the heap's remaining
        // entry at 20, which has a lower sequence number.
        q.schedule(Time(20), "lane-a");
        q.schedule(Time(20), "lane-b");
        assert_eq!(q.peek_time(), Some(Time(20)));
        assert_eq!(q.pop(), Some((Time(20), "heap-late")));
        assert_eq!(q.pop(), Some((Time(20), "lane-a")));
        assert_eq!(q.pop(), Some((Time(20), "lane-b")));
        assert_eq!(q.pop(), None);
    }

    #[test]
    fn lane_entries_pop_before_later_heap_entries() {
        let mut q = EventQueue::new();
        q.schedule(Time(5), "a");
        q.schedule(Time(9), "later");
        assert_eq!(q.pop(), Some((Time(5), "a")));
        q.schedule(Time(5), "now");
        q.schedule(Time(7), "soon");
        assert_eq!(q.pop(), Some((Time(5), "now")));
        assert_eq!(q.pop(), Some((Time(7), "soon")));
        assert_eq!(q.pop(), Some((Time(9), "later")));
    }

    #[test]
    fn cancelling_a_lane_entry_skips_it() {
        let mut q = EventQueue::new();
        q.schedule(Time(3), "start");
        assert_eq!(q.pop(), Some((Time(3), "start")));
        let a = q.schedule(Time(3), "a");
        let b = q.schedule(Time(3), "b");
        q.schedule(Time(3), "c");
        assert!(q.cancel(b));
        assert!(!q.cancel(b), "double cancel reports false");
        assert_eq!(q.len(), 2);
        let audit = q.audit();
        assert!(audit.is_consistent(), "{audit:?}");
        assert_eq!((audit.actual_live, audit.heap_total), (2, 3));
        assert_eq!(q.pop(), Some((Time(3), "a")));
        assert!(!q.cancel(a), "popped lane entry is not cancellable");
        assert_eq!(q.pop(), Some((Time(3), "c")));
        assert!(q.is_empty());
        assert_eq!(q.pop(), None);
    }

    #[test]
    fn stale_key_of_a_reused_slot_is_rejected() {
        let mut q = EventQueue::new();
        let a = q.schedule(Time(1), "a");
        assert_eq!(q.pop(), Some((Time(1), "a")));
        // The freed slot is reused by the next schedule.
        let b = q.schedule(Time(2), "b");
        assert!(
            !q.cancel(a),
            "stale key must not cancel the slot's new owner"
        );
        assert_eq!(q.len(), 1);
        assert_eq!(q.audit().actual_live, 1);
        assert!(q.cancel(b));
        assert!(q.is_empty());
    }

    #[test]
    fn compaction_drops_lane_debris() {
        let mut q = EventQueue::new();
        q.schedule(Time(0), 0u64);
        assert_eq!(q.pop(), Some((Time(0), 0)));
        for i in 0..10u64 {
            q.schedule(Time(100 + i), i);
        }
        let keys: Vec<EventKey> = (0..200u64).map(|i| q.schedule(Time(0), 1000 + i)).collect();
        assert_eq!(q.audit().heap_total, 210, "lane entries are counted");
        for k in &keys {
            assert!(q.cancel(*k));
        }
        assert!(q.compactions() > 0, "lane debris must trigger a rebuild");
        let audit = q.audit();
        assert!(audit.is_consistent(), "{audit:?}");
        assert!(audit.heap_total <= 2 * audit.reported_live.max(super::COMPACT_MIN_HEAP));
        let popped: Vec<u64> = std::iter::from_fn(|| q.pop().map(|(_, v)| v)).collect();
        assert_eq!(popped, (0..10u64).collect::<Vec<_>>());
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
