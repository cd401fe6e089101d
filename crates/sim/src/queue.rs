//! Deterministic event queue.
//!
//! Events pop in time order, and events due at the same instant pop in
//! the order they were scheduled. This makes every simulation run a pure
//! function of its inputs and seeds.
//!
//! ## Buckets
//!
//! The queue is a monotone radix queue. Time never runs backwards, so it
//! keeps a *base* (the instant of the last pop) and sorts every entry into
//! one of 65 buckets by the highest bit in which its time differs from
//! the base:
//!
//! * bucket 0 holds the entries due at the base itself, the current
//!   instant, and is served first in, first out;
//! * bucket `i` (1–64) holds the entries whose time first differs from the
//!   base at bit `i - 1`. Every entry of bucket `i` is earlier than every
//!   entry of bucket `i + 1`, each bucket keeps its minimum, and a bitmask
//!   marks the non-empty ones.
//!
//! When bucket 0 runs dry, `pop` moves the base to the minimum of the
//! lowest non-empty bucket and redistributes that bucket's entries into
//! the (empty) buckets below it. An entry moves down at most 64 times in
//! its life; in the benchmark's 1024-rank broadcasts it moves about three
//! times between schedule and pop, each move a shift, a compare and an
//! append instead of a heap sift. A bucket holding a single entry (two
//! rebases in five there) becomes the current instant without moving it.
//!
//! ## Ties are FIFO by construction
//!
//! Two entries with the same time always sit in the same bucket (the
//! bucket is a function of the time and the base), appends keep insertion
//! order within a bucket, and redistribution walks a bucket in order into
//! buckets that are empty. So equal times pop in insertion order without a
//! sequence number in the key, including an entry scheduled in the past:
//! it is clamped forward to the current instant and appended behind
//! everything already due there.
//!
//! ## Payloads stay in a slab
//!
//! Buckets hold 16-byte `(time, slot, generation)` entries; the payload
//! (the MPI world's event is several words) waits in a slab slot and is
//! written once at schedule and read once at pop, never moved by a
//! redistribution. Moving payloads through the buckets measured slower.
//!
//! Each slot carries a *generation*, bumped whenever its event pops or is
//! cancelled. An [`EventKey`] names a slot and a generation, so `cancel`
//! is one indexed compare: the key is live exactly while its slot is still
//! on that generation. Cancelling releases the slot at once and leaves the
//! bucket entry behind as debris that pop and redistribution skip (lazy
//! deletion). A key whose event fired, was cancelled, or whose slot was
//! since reused no longer matches and `cancel` returns `false`. A slot
//! whose generation would reach the sentinel is retired, never reused, so
//! a stale key can never match a later owner. Whenever debris exceeds the
//! live entries (and the queue is big enough to care), the buckets are
//! filtered in place, so stored entries stay within twice the live count.
//!
//! ## The peek rule
//!
//! [`EventQueue::peek_time`] never moves the base. A caller may peek at the
//! next due time `T` and then schedule something between `now()` and `T`;
//! had the peek rebased to `T`, that entry would be earlier than the base
//! and land in the wrong bucket. Peek only drops the debris of the lowest
//! non-empty bucket and reads its live minimum. (A bucket's kept minimum
//! may be a cancelled entry's time; `pop` may rebase onto it, as every
//! live entry is at least that late.) When the queue runs empty, `pop`
//! resets the base to `now()`: a base advanced past `now()` by cancelled
//! debris must not outlive the debris.

use crate::time::Time;

/// Generation reserved for [`EventKey::default`]. A slot is retired
/// before its generation reaches this value, so no live event carries it.
const SENTINEL_GEN: u32 = u32::MAX;

/// Queues with fewer stored entries than this are never compacted — the
/// pass would cost more than the debris it reclaims.
const COMPACT_MIN: usize = 64;

/// Bucket 0 (the current instant) plus one bucket per bit of a time.
const BUCKETS: usize = 65;

/// Handle to a scheduled event, usable for cancellation. The default key
/// is a reserved sentinel that never matches a live event: cancelling it
/// is always a no-op returning `false`.
#[derive(Clone, Copy, PartialEq, Eq, Hash, Debug)]
pub struct EventKey {
    slot: u32,
    gen: u32,
}

impl Default for EventKey {
    fn default() -> Self {
        EventKey {
            slot: u32::MAX,
            gen: SENTINEL_GEN,
        }
    }
}

/// One bucket entry: the event's time and the slab slot holding its
/// payload, with the slot's generation when it was scheduled.
#[derive(Clone, Copy)]
struct Entry {
    time: Time,
    slot: u32,
    gen: u32,
}

/// Internal-consistency snapshot of an [`EventQueue`], used by the
/// simulator-wide audit layer ([`crate::audit::AuditReport`]).
#[derive(Clone, Copy, Debug, Default, PartialEq, Eq)]
pub struct QueueAudit {
    /// Live events as reported by [`EventQueue::len`] (the live counter).
    pub reported_live: usize,
    /// Live events actually present in the buckets (full scan counting
    /// the entries whose slot is still on their generation).
    pub actual_live: usize,
    /// Entries stored in the buckets, including cancelled debris awaiting
    /// lazy removal.
    pub stored: usize,
    /// Number of schedule calls that targeted the past and were clamped
    /// forward (see [`EventQueue::schedule`]).
    pub causality_violations: u64,
}

impl QueueAudit {
    /// True when the reported live count matches the stored entries.
    pub fn is_consistent(&self) -> bool {
        self.reported_live == self.actual_live && self.actual_live <= self.stored
    }
}

/// A deterministic time-ordered event queue.
pub struct EventQueue<E> {
    /// `buckets[0]`: entries due at `base`, served FIFO from `head`.
    /// `buckets[i]`, `i >= 1`: entries whose time first differs from
    /// `base` at bit `i - 1`, in insertion order.
    buckets: [Vec<Entry>; BUCKETS],
    /// Entries of bucket 0 already served or skipped.
    head: usize,
    /// Per bucket `i >= 1`: the least time stored in it, cancelled
    /// entries included (`Time::MAX` while the bucket is empty).
    mins: [Time; BUCKETS],
    /// Bit `i - 1` is set while bucket `i` is non-empty.
    mask: u64,
    /// The instant bucket 0 holds. Equals `last_popped` between calls.
    base: Time,
    /// Entries stored in the buckets, debris included.
    stored: usize,
    /// Payload storage, indexed by [`Entry::slot`]. A slot is occupied
    /// from schedule until its event pops or is cancelled, then recycled
    /// through `free`.
    slab: Vec<Option<E>>,
    /// Per slot: its current generation.
    gens: Vec<u32>,
    /// Recycled slab slots.
    free: Vec<u32>,
    /// Live entries. Kept as a counter; the audit layer cross-checks it
    /// against the buckets.
    live: usize,
    /// Last time popped; used to detect causality violations.
    last_popped: Time,
    /// Schedule calls that targeted the past and were clamped forward.
    causality_violations: u64,
    /// Debris-compaction passes performed (diagnostics).
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
            buckets: std::array::from_fn(|_| Vec::new()),
            head: 0,
            mins: [Time::MAX; BUCKETS],
            mask: 0,
            base: Time::ZERO,
            stored: 0,
            slab: Vec::new(),
            gens: Vec::new(),
            free: Vec::new(),
            live: 0,
            last_popped: Time::ZERO,
            causality_violations: 0,
            compactions: 0,
        }
    }

    /// True while `e`'s slot is still on its generation (scheduled,
    /// neither popped nor cancelled).
    #[inline]
    fn is_live(&self, e: &Entry) -> bool {
        self.gens[e.slot as usize] == e.gen
    }

    /// End a slot's current generation and hand back its payload. The
    /// slot is recycled unless its next generation is the sentinel.
    #[inline]
    fn release(&mut self, slot: u32) -> E {
        let gen = &mut self.gens[slot as usize];
        *gen += 1;
        if *gen != SENTINEL_GEN {
            self.free.push(slot);
        }
        self.slab[slot as usize]
            .take()
            .expect("a live slot holds a payload")
    }

    /// The bucket an entry at `time` belongs in, relative to the base.
    #[inline]
    fn bucket_of(&self, time: Time) -> usize {
        (u64::BITS - (time.0 ^ self.base.0).leading_zeros()) as usize
    }

    /// Append `e` to its bucket (which keeps insertion order).
    #[inline]
    fn push(&mut self, e: Entry) {
        let b = self.bucket_of(e.time);
        self.buckets[b].push(e);
        if b > 0 {
            self.mins[b] = self.mins[b].min(e.time);
            self.mask |= 1u64 << (b - 1);
        }
    }

    /// Bucket 0 is spent: move the base to the minimum of the lowest
    /// non-empty bucket and redistribute that bucket, in order, into the
    /// empty buckets below it. Debris is dropped on the way.
    fn rebase(&mut self) {
        let b = self.mask.trailing_zeros() as usize + 1;
        self.mask &= !(1u64 << (b - 1));
        self.base = std::mem::replace(&mut self.mins[b], Time::MAX);
        if self.buckets[b].len() == 1 {
            // A lone entry is its bucket's minimum: it becomes the current
            // instant as it is.
            self.buckets.swap(0, b);
            return;
        }
        let mut moving = std::mem::take(&mut self.buckets[b]);
        for e in moving.drain(..) {
            if self.is_live(&e) {
                self.push(e);
            } else {
                self.stored -= 1;
            }
        }
        // Keep the allocation for the bucket's next fill.
        self.buckets[b] = moving;
    }

    /// Filter every bucket down to its live entries once cancelled debris
    /// outnumbers them. Filtering keeps each bucket's order, so compaction
    /// is invisible to the simulation.
    fn maybe_compact(&mut self) {
        if self.stored < COMPACT_MIN || self.stored <= 2 * self.live {
            return;
        }
        self.compactions += 1;
        let gens = &self.gens;
        let live = |e: &Entry| gens[e.slot as usize] == e.gen;
        self.buckets[0].drain(..self.head);
        self.head = 0;
        self.buckets[0].retain(live);
        for b in 1..BUCKETS {
            let bucket = &mut self.buckets[b];
            if bucket.is_empty() {
                continue;
            }
            bucket.retain(live);
            self.mins[b] = bucket.iter().map(|e| e.time).min().unwrap_or(Time::MAX);
            if bucket.is_empty() {
                self.mask &= !(1u64 << (b - 1));
            }
        }
        self.stored = self.live;
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
        let slot = match self.free.pop() {
            Some(s) => {
                self.slab[s as usize] = Some(payload);
                s
            }
            None => {
                let s = self.slab.len();
                assert!(s < u32::MAX as usize, "event slab exhausted");
                self.slab.push(Some(payload));
                self.gens.push(0);
                s as u32
            }
        };
        let gen = self.gens[slot as usize];
        self.push(Entry { time, slot, gen });
        self.stored += 1;
        self.live += 1;
        EventKey { slot, gen }
    }

    /// Cancel a previously scheduled event. Returns true if the event was
    /// still pending — i.e. scheduled and not yet popped or cancelled.
    /// Cancelling a popped event, a cancelled event, a key whose slot was
    /// since reused, or the default sentinel key is a no-op returning
    /// false and leaves `len()` intact.
    pub fn cancel(&mut self, key: EventKey) -> bool {
        if !self.is_scheduled(key) {
            return false;
        }
        self.release(key.slot);
        self.live -= 1;
        self.maybe_compact();
        true
    }

    /// True while the event `key` names is scheduled: neither popped nor
    /// cancelled.
    pub fn is_scheduled(&self, key: EventKey) -> bool {
        self.gens.get(key.slot as usize) == Some(&key.gen)
    }

    /// Remove and return the earliest live event.
    #[inline]
    pub fn pop(&mut self) -> Option<(Time, E)> {
        loop {
            while let Some(&e) = self.buckets[0].get(self.head) {
                self.head += 1;
                self.stored -= 1;
                if self.is_live(&e) {
                    self.live -= 1;
                    self.last_popped = e.time;
                    return Some((e.time, self.release(e.slot)));
                }
            }
            self.buckets[0].clear();
            self.head = 0;
            if self.mask == 0 {
                // Empty: a base advanced past `now()` through debris must
                // not outlive it.
                self.base = self.last_popped;
                return None;
            }
            self.rebase();
        }
    }

    /// Time of the earliest live event without removing it. Never moves
    /// the base (see the module docs), so scheduling anywhere between
    /// `now()` and the peeked time afterwards stays exact.
    pub fn peek_time(&mut self) -> Option<Time> {
        if !self.quiet_now() {
            return Some(self.base);
        }
        while self.mask != 0 {
            // The lowest non-empty bucket holds the earliest entries; drop
            // its debris in place and read its live minimum.
            let b = self.mask.trailing_zeros() as usize + 1;
            let gens = &self.gens;
            let bucket = &mut self.buckets[b];
            let before = bucket.len();
            bucket.retain(|e| gens[e.slot as usize] == e.gen);
            self.stored -= before - bucket.len();
            self.mins[b] = bucket.iter().map(|e| e.time).min().unwrap_or(Time::MAX);
            if !bucket.is_empty() {
                return Some(self.mins[b]);
            }
            self.mask &= !(1u64 << (b - 1));
        }
        None
    }

    /// True when no live event is due at `now()` any more: the next pop,
    /// if any, advances the clock. A caller that would schedule an event
    /// at `now()` and has nothing else to do this instant may then run it
    /// directly — it would have been the very next pop.
    #[inline]
    pub fn quiet_now(&mut self) -> bool {
        // Skip debris at the front of bucket 0.
        while let Some(e) = self.buckets[0].get(self.head) {
            if self.is_live(e) {
                return false;
            }
            self.head += 1;
            self.stored -= 1;
        }
        true
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

    /// Number of debris-compaction passes performed.
    pub fn compactions(&self) -> u64 {
        self.compactions
    }

    /// Cross-check the reported live count against the actual bucket
    /// contents (O(entries) scan; intended for end-of-run audits, not the
    /// hot path).
    pub fn audit(&self) -> QueueAudit {
        let unserved = &self.buckets[0][self.head..];
        let entries = || unserved.iter().chain(self.buckets[1..].iter().flatten());
        QueueAudit {
            reported_live: self.live,
            actual_live: entries().filter(|e| self.is_live(e)).count(),
            stored: entries().count(),
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
        assert!(
            !q.cancel(EventKey::default()),
            "must not match the first event"
        );
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
        // grow without bound and len() must match the buckets at every step.
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
        assert_eq!(audit.stored, 0, "no leaked entries: {audit:?}");
        assert!(audit.is_consistent());
    }

    #[test]
    fn debris_stays_bounded_under_schedule_cancel_churn() {
        // A long noise-heavy run reschedules drain events constantly:
        // schedule a replacement, cancel the old key, never pop. Without
        // compaction the queue grows by one dead entry per cycle; with it,
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
                    audit.stored <= (2 * audit.reported_live).max(super::COMPACT_MIN),
                    "debris unbounded: {audit:?}"
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
        assert_eq!(q.audit().stored, 0);
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
        // Pile up enough cancelled debris to force a compaction.
        let keys: Vec<EventKey> = (0..200u64).map(|i| q.schedule(Time(i), 100 + i)).collect();
        for k in &keys {
            assert!(q.cancel(*k));
        }
        assert!(q.compactions() > 0, "debris must trigger a compaction");
        let audit = q.audit();
        assert!(audit.is_consistent(), "{audit:?}");
        assert_eq!(audit.reported_live, 50);
        let mut popped = Vec::new();
        while let Some((_, v)) = q.pop() {
            popped.push(v);
        }
        assert_eq!(popped, (0..50u64).collect::<Vec<_>>());
        assert_eq!(q.audit().stored, 0);
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
    fn entry_at_now_scheduled_earlier_pops_first() {
        let mut q = EventQueue::new();
        q.schedule(Time(10), "first");
        q.schedule(Time(20), "early");
        q.schedule(Time(20), "late");
        assert_eq!(q.pop(), Some((Time(10), "first")));
        assert_eq!(q.pop(), Some((Time(20), "early")));
        // Now at 20: these queue behind the remaining entry at 20, which
        // was scheduled before the clock got there.
        q.schedule(Time(20), "now-a");
        q.schedule(Time(20), "now-b");
        assert_eq!(q.peek_time(), Some(Time(20)));
        assert_eq!(q.pop(), Some((Time(20), "late")));
        assert_eq!(q.pop(), Some((Time(20), "now-a")));
        assert_eq!(q.pop(), Some((Time(20), "now-b")));
        assert_eq!(q.pop(), None);
    }

    #[test]
    fn current_instant_entries_pop_before_later_ones() {
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
    fn cancelling_a_current_instant_entry_skips_it() {
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
        assert_eq!((audit.actual_live, audit.stored), (2, 3));
        assert_eq!(q.pop(), Some((Time(3), "a")));
        assert!(!q.cancel(a), "popped entry is not cancellable");
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
    fn compaction_drops_current_instant_debris() {
        let mut q = EventQueue::new();
        q.schedule(Time(0), 0u64);
        assert_eq!(q.pop(), Some((Time(0), 0)));
        for i in 0..10u64 {
            q.schedule(Time(100 + i), i);
        }
        let keys: Vec<EventKey> = (0..200u64).map(|i| q.schedule(Time(0), 1000 + i)).collect();
        assert_eq!(q.audit().stored, 210, "current-instant entries are counted");
        for k in &keys {
            assert!(q.cancel(*k));
        }
        assert!(
            q.compactions() > 0,
            "current-instant debris must trigger a compaction"
        );
        let audit = q.audit();
        assert!(audit.is_consistent(), "{audit:?}");
        assert!(audit.stored <= 2 * audit.reported_live.max(super::COMPACT_MIN));
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

    #[test]
    fn peek_never_moves_the_base() {
        let mut q = EventQueue::new();
        q.schedule(Time(100), "a");
        q.schedule(Time(1000), "far");
        assert_eq!(q.pop(), Some((Time(100), "a")));
        assert_eq!(q.peek_time(), Some(Time(1000)));
        // Between now() and the peeked time: must still pop first.
        q.schedule(Time(500), "between");
        q.schedule(Time(100), "now");
        assert_eq!(q.pop(), Some((Time(100), "now")));
        assert_eq!(q.pop(), Some((Time(500), "between")));
        assert_eq!(q.pop(), Some((Time(1000), "far")));
        assert_eq!(q.causality_violations(), 0);
    }

    #[test]
    fn peek_past_a_cancelled_minimum_finds_the_live_one() {
        let mut q = EventQueue::new();
        q.schedule(Time(2), "start");
        assert_eq!(q.pop(), Some((Time(2), "start")));
        let a = q.schedule(Time(300), "a");
        q.schedule(Time(400), "b");
        q.schedule(Time(390), "c");
        assert!(q.cancel(a));
        assert_eq!(q.peek_time(), Some(Time(390)));
        q.schedule(Time(350), "d");
        assert_eq!(q.peek_time(), Some(Time(350)));
        let order: Vec<_> = std::iter::from_fn(|| q.pop()).collect();
        assert_eq!(
            order,
            [(Time(350), "d"), (Time(390), "c"), (Time(400), "b")]
        );
    }

    #[test]
    fn an_emptied_queue_rebases_to_now() {
        let mut q = EventQueue::new();
        q.schedule(Time(10), "a");
        assert_eq!(q.pop(), Some((Time(10), "a")));
        let far = q.schedule(Time(1 << 40), "far");
        q.schedule(Time(1 << 41), "farther");
        assert!(q.cancel(far));
        q.cancel(EventKey::default());
        // Pop walks the base through the debris at 2^40 and then serves
        // 2^41; cancel that one too and the queue runs dry.
        assert_eq!(q.pop(), Some((Time(1 << 41), "farther")));
        let past = q.schedule(Time(1 << 42), "x");
        assert!(q.cancel(past));
        assert_eq!(q.pop(), None);
        assert_eq!(q.now(), Time(1 << 41));
        q.schedule(Time((1 << 41) + 1), "next");
        assert_eq!(q.pop(), Some((Time((1 << 41) + 1), "next")));
        assert_eq!(q.causality_violations(), 0);
        assert_eq!(q.audit().stored, 0);
    }

    #[test]
    fn ties_stay_fifo_across_redistributions() {
        let mut q = EventQueue::new();
        q.schedule(Time(1000), 0);
        q.schedule(Time(3), 100);
        q.schedule(Time(1000), 1);
        assert_eq!(q.pop(), Some((Time(3), 100)));
        // Scheduled at a different base, same instant: still behind.
        q.schedule(Time(1000), 2);
        q.schedule(Time(999), 99);
        assert_eq!(q.pop(), Some((Time(999), 99)));
        q.schedule(Time(1000), 3);
        let rest: Vec<_> = std::iter::from_fn(|| q.pop().map(|(_, v)| v)).collect();
        assert_eq!(rest, [0, 1, 2, 3]);
    }

    #[test]
    fn the_top_bucket_holds_the_end_of_time() {
        let mut q = EventQueue::new();
        q.schedule(Time::MAX, "end");
        q.schedule(Time(u64::MAX >> 1), "half");
        q.schedule(Time(1), "one");
        assert_eq!(q.pop(), Some((Time(1), "one")));
        assert_eq!(q.pop(), Some((Time(u64::MAX >> 1), "half")));
        assert_eq!(q.pop(), Some((Time::MAX, "end")));
        assert_eq!(q.pop(), None);
    }

    #[test]
    fn quiet_now_tracks_live_entries_at_the_current_instant() {
        let mut q = EventQueue::new();
        q.schedule(Time(5), "a");
        let b = q.schedule(Time(5), "b");
        q.schedule(Time(6), "c");
        assert_eq!(q.pop(), Some((Time(5), "a")));
        assert!(!q.quiet_now(), "b is still due at 5");
        assert!(q.cancel(b));
        assert!(q.quiet_now(), "only debris is left at 5");
        q.schedule(Time(5), "d");
        assert!(!q.quiet_now());
        assert_eq!(q.pop(), Some((Time(5), "d")));
        assert!(q.quiet_now(), "c is due later");
        assert_eq!(q.pop(), Some((Time(6), "c")));
    }

    #[test]
    fn a_slot_is_retired_before_its_generation_wraps() {
        let mut q = EventQueue::new();
        q.schedule(Time(1), "a");
        assert_eq!(q.pop(), Some((Time(1), "a")));
        q.gens[0] = SENTINEL_GEN - 1;
        let last = q.schedule(Time(2), "last");
        assert_eq!((last.slot, last.gen), (0, SENTINEL_GEN - 1));
        assert_eq!(q.pop(), Some((Time(2), "last")));
        let next = q.schedule(Time(3), "next");
        assert_eq!(next.slot, 1, "the exhausted slot is never reused");
        assert!(!q.cancel(last));
        assert!(!q.cancel(EventKey::default()));
        assert!(q.cancel(next));
    }
}
