//! Parked bands: the deferral discipline for work that finds its owner's
//! CPU busy.
//!
//! A simulated rank serializes everything that needs its CPU through a
//! busy horizon. An item that arrives while the horizon lies in the
//! future must wait until the CPU is ready. The naive way to wait is to
//! re-queue the item as an event at the ready instant and re-check when
//! it pops — but every sibling parked behind the same busy window then
//! re-queues again after each handler that runs before it, so `k` items
//! parked in one window cost O(k²) events.
//!
//! [`ParkedBands`] replaces the per-item re-queue with *bands*. An owner
//! parks an item for the instant its CPU becomes ready; items parked for
//! the same instant share one band, and only the first item of a band
//! asks the caller to schedule a wake event. When the wake fires, the
//! caller serves the band's items in order for as long as the CPU stays
//! ready, then [re-parks](ParkedBands::repark) the rest as one block at
//! the new ready instant — behind every band parked since, exactly where
//! the per-item re-queue would have put each of them. The per-owner
//! service order is unchanged; the event count per busy period drops
//! from one per item to one per band.
//!
//! Every owner's items live in one shared slab, threaded into
//! singly-linked lists (free-list reuse, as in the event queue's slab),
//! so parking, serving, and re-parking a whole remainder are all O(1)
//! relinks and memory tracks the peak number of parked items, not the
//! number of owners times a per-owner buffer.
//!
//! The discipline relies on one property of its caller: the ready
//! instant an owner parks for never moves backwards (busy horizons only
//! grow, and deferral past preemption windows is monotone). Bands are
//! therefore due in the order they were opened, and a re-parked
//! remainder always lands at the back.

use crate::time::Time;

/// End-of-list marker for slab links.
const NIL: u32 = u32::MAX;

/// One parked item and the link to the next item of its band (or of the
/// free list, while the slot is vacant).
struct Slot<T> {
    item: Option<T>,
    next: u32,
}

/// A run of items parked for the same instant: a slice of the item list
/// plus the link to the owner's next band.
struct Band {
    at: Time,
    head: u32,
    tail: u32,
    next: u32,
}

/// One owner's bands, oldest first, and how many items they hold.
#[derive(Clone, Copy)]
struct Lane {
    front: u32,
    back: u32,
    parked: u32,
}

impl Lane {
    const EMPTY: Lane = Lane {
        front: NIL,
        back: NIL,
        parked: 0,
    };
}

/// Per-owner parked bands over one shared slab (see the module docs).
pub struct ParkedBands<T> {
    items: Vec<Slot<T>>,
    /// Head of the vacant-item list, threaded through `Slot::next`.
    free_items: u32,
    bands: Vec<Band>,
    /// Head of the vacant-band list, threaded through `Band::next`.
    free_bands: u32,
    lanes: Vec<Lane>,
}

impl<T> ParkedBands<T> {
    /// Empty bands for `owners` owners (ids `0..owners`).
    pub fn new(owners: usize) -> ParkedBands<T> {
        ParkedBands {
            items: Vec::new(),
            free_items: NIL,
            bands: Vec::new(),
            free_bands: NIL,
            lanes: vec![Lane::EMPTY; owners],
        }
    }

    /// Park `item` for `owner` until `at`, behind everything the owner
    /// already parked. Returns `true` when this opened a new band: the
    /// caller must then schedule exactly one wake for `owner` at `at`.
    /// `at` must not precede the owner's latest band.
    pub fn park(&mut self, owner: usize, at: Time, item: T) -> bool {
        let slot = self.alloc_item(item);
        let lane = self.lanes[owner];
        self.lanes[owner].parked += 1;
        if lane.back != NIL {
            let back = &mut self.bands[lane.back as usize];
            debug_assert!(back.at <= at, "bands are opened in due order");
            if back.at == at {
                let tail = back.tail;
                back.tail = slot;
                self.items[tail as usize].next = slot;
                return false;
            }
        }
        let band = self.alloc_band(Band {
            at,
            head: slot,
            tail: slot,
            next: NIL,
        });
        self.push_back(owner, band);
        true
    }

    /// The instant `owner`'s oldest band is due, if anything is parked.
    #[inline]
    pub fn next_wake(&self, owner: usize) -> Option<Time> {
        let front = self.lanes[owner].front;
        (front != NIL).then(|| self.bands[front as usize].at)
    }

    /// Items `owner` has parked, across all its bands.
    pub fn parked(&self, owner: usize) -> usize {
        self.lanes[owner].parked as usize
    }

    /// Take the next item of `owner`'s oldest band. A band is retired
    /// with its last item, so the following call serves the next band.
    pub fn pop(&mut self, owner: usize) -> Option<T> {
        let front = self.lanes[owner].front;
        if front == NIL {
            return None;
        }
        let band = &mut self.bands[front as usize];
        let slot = band.head;
        let next = self.items[slot as usize].next;
        if slot == band.tail {
            let after = band.next;
            self.free_band(front);
            self.lanes[owner].front = after;
            if after == NIL {
                self.lanes[owner].back = NIL;
            }
        } else {
            band.head = next;
        }
        self.lanes[owner].parked -= 1;
        Some(self.free_item(slot))
    }

    /// Move what is left of `owner`'s oldest band to `at`, behind every
    /// band parked since: appended to the newest band when that one is
    /// due at `at` too, else as a band of its own. O(1). Returns `true`
    /// when the remainder became a new band and needs a wake at `at`.
    pub fn repark(&mut self, owner: usize, at: Time) -> bool {
        let lane = self.lanes[owner];
        debug_assert!(lane.front != NIL, "repark of an empty lane");
        let front = lane.front;
        if lane.back == front {
            debug_assert!(
                self.bands[front as usize].at <= at,
                "ready never moves back"
            );
            self.bands[front as usize].at = at;
            return true;
        }
        self.lanes[owner].front = self.bands[front as usize].next;
        let (head, tail) = {
            let b = &self.bands[front as usize];
            (b.head, b.tail)
        };
        let back = &mut self.bands[lane.back as usize];
        debug_assert!(back.at <= at, "ready never moves back");
        if back.at == at {
            let old_tail = back.tail;
            back.tail = tail;
            self.items[old_tail as usize].next = head;
            self.free_band(front);
            return false;
        }
        let b = &mut self.bands[front as usize];
        b.at = at;
        b.next = NIL;
        self.push_back(owner, front);
        true
    }

    fn push_back(&mut self, owner: usize, band: u32) {
        let lane = &mut self.lanes[owner];
        if lane.back == NIL {
            lane.front = band;
        } else {
            self.bands[lane.back as usize].next = band;
        }
        lane.back = band;
    }

    fn alloc_item(&mut self, item: T) -> u32 {
        if self.free_items != NIL {
            let s = self.free_items;
            let slot = &mut self.items[s as usize];
            self.free_items = slot.next;
            slot.item = Some(item);
            slot.next = NIL;
            s
        } else {
            let s = self.items.len();
            assert!(s < NIL as usize, "parked-item slab exhausted");
            self.items.push(Slot {
                item: Some(item),
                next: NIL,
            });
            s as u32
        }
    }

    fn free_item(&mut self, s: u32) -> T {
        let slot = &mut self.items[s as usize];
        slot.next = self.free_items;
        self.free_items = s;
        slot.item.take().expect("parked slot holds an item")
    }

    fn alloc_band(&mut self, band: Band) -> u32 {
        if self.free_bands != NIL {
            let b = self.free_bands;
            self.free_bands = self.bands[b as usize].next;
            self.bands[b as usize] = band;
            b
        } else {
            let b = self.bands.len();
            assert!(b < NIL as usize, "band slab exhausted");
            self.bands.push(band);
            b as u32
        }
    }

    fn free_band(&mut self, b: u32) {
        self.bands[b as usize].next = self.free_bands;
        self.free_bands = b;
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::queue::EventQueue;
    use crate::rng::{MasterSeed, StreamTag};
    use rand::Rng;

    #[test]
    fn same_instant_items_share_one_band() {
        let mut p = ParkedBands::new(2);
        assert!(p.park(0, Time(10), 'a'));
        assert!(!p.park(0, Time(10), 'b'), "joins the open band");
        assert!(p.park(1, Time(10), 'x'), "owners never share bands");
        assert!(p.park(0, Time(20), 'c'));
        assert_eq!(p.parked(0), 3);
        assert_eq!(p.next_wake(0), Some(Time(10)));
        assert_eq!(p.pop(0), Some('a'));
        assert_eq!(p.pop(0), Some('b'));
        assert_eq!(
            p.next_wake(0),
            Some(Time(20)),
            "band retired with its last item"
        );
        assert_eq!(p.pop(0), Some('c'));
        assert_eq!(p.pop(0), None);
        assert_eq!(p.next_wake(0), None);
        assert_eq!(p.pop(1), Some('x'));
    }

    #[test]
    fn repark_lands_behind_every_band_parked_since() {
        let mut p = ParkedBands::new(1);
        p.park(0, Time(10), 1);
        p.park(0, Time(10), 2);
        p.park(0, Time(10), 3);
        p.park(0, Time(30), 4);
        assert_eq!(p.pop(0), Some(1));
        // The rest of the t=10 band moves to t=30: appended behind 4.
        assert!(
            !p.repark(0, Time(30)),
            "merges into the band already due then"
        );
        assert_eq!(p.next_wake(0), Some(Time(30)));
        // A lone band moves in place and needs a wake of its own.
        assert_eq!(p.pop(0), Some(4));
        assert!(p.repark(0, Time(40)));
        assert_eq!(p.next_wake(0), Some(Time(40)));
        // A later-due remainder becomes the newest band.
        p.park(0, Time(50), 5);
        assert!(p.repark(0, Time(60)));
        assert_eq!(p.next_wake(0), Some(Time(50)));
        let order: Vec<i32> = std::iter::from_fn(|| p.pop(0)).collect();
        assert_eq!(order, vec![5, 2, 3]);
        assert_eq!(p.parked(0), 0);
    }

    #[test]
    fn slots_are_reused() {
        let mut p = ParkedBands::new(1);
        for round in 0..100u64 {
            for i in 0..8 {
                p.park(0, Time(round), i);
            }
            while p.pop(0).is_some() {}
        }
        assert_eq!(p.items.len(), 8, "the slab tracks the peak, not the total");
        assert_eq!(p.bands.len(), 1);
    }

    // -----------------------------------------------------------------
    // Differential test: bands against the per-item re-queue they
    // replace, on a model of the simulator's rank CPU.
    // -----------------------------------------------------------------

    /// One owner's CPU: a busy horizon plus preemption windows.
    struct Cpu {
        busy: Time,
        windows: Vec<(Time, Time)>,
    }

    impl Cpu {
        fn defer(&self, t: Time) -> Time {
            let mut t = t;
            for &(s, e) in &self.windows {
                if t >= s && t < e {
                    t = e;
                }
            }
            t
        }
        fn ready(&self, t: Time) -> Time {
            self.defer(t.max(self.busy))
        }
        /// `work` ns of CPU from `t`, stretched over preemption windows.
        fn finish(&self, t: Time, work: u64) -> Time {
            let mut t = self.defer(t).0;
            let mut left = work;
            for &(s, e) in &self.windows {
                if e.0 <= t {
                    continue;
                }
                if s.0 >= t + left {
                    break;
                }
                left -= s.0 - t;
                t = e.0;
            }
            Time(t + left)
        }
    }

    enum Ev {
        /// An item reaches its owner: run it if the CPU is ready.
        Item { owner: usize, id: u64 },
        /// Protocol work at arrival time (an unexpected message, a CTS
        /// handshake): takes the CPU at its ready instant whatever is
        /// parked.
        Bump { owner: usize, cost: u64 },
        /// A band fell due (bands driver only).
        Wake { owner: usize },
    }

    const HORIZON: u64 = 20_000;

    /// Serve item `id` at `t`: log it, charge its handler cost, and post
    /// its follow-up (a pure function of the id): none, a completion due
    /// exactly when the handler ends (the compute-done tie), or one due
    /// mid-handler (a receive completing inside it).
    fn serve(
        q: &mut EventQueue<Ev>,
        cpu: &mut Cpu,
        log: &mut Vec<(u64, u64)>,
        t: Time,
        owner: usize,
        id: u64,
    ) {
        log.push((id, t.0));
        let h = MasterSeed(id).stream(StreamTag::Test, 1);
        let end = cpu.finish(t, 1 + h % 40);
        cpu.busy = cpu.busy.max(end);
        let child = MasterSeed(id).stream(StreamTag::Test, 2);
        let at = match (h >> 8) % 4 {
            1 => Some(end),
            2 => Some(Time(t.0 + (end.0 - t.0) / 2)),
            _ => None,
        };
        if let Some(at) = at.filter(|at| at.0 < HORIZON) {
            q.schedule(at, Ev::Item { owner, id: child });
        }
    }

    /// Seed the queue with each owner's arrivals and protocol bumps, and
    /// build each owner's preemption windows.
    fn scenario(seed: u64, owners: usize) -> (EventQueue<Ev>, Vec<Cpu>) {
        let mut rng = MasterSeed(seed).rng(StreamTag::Test, 0);
        let mut q = EventQueue::new();
        let mut cpus = Vec::new();
        for owner in 0..owners {
            for _ in 0..rng.random_range(0..60u32) {
                let at = Time(rng.random_range(0..HORIZON / 2));
                if rng.random_bool(0.2) {
                    let cost = rng.random_range(1..30u64);
                    q.schedule(at, Ev::Bump { owner, cost });
                } else {
                    let id = rng.random::<u64>();
                    q.schedule(at, Ev::Item { owner, id });
                }
            }
            let mut windows = Vec::new();
            let mut t = rng.random_range(0..2_000u64);
            while t < HORIZON {
                let len = rng.random_range(1..400u64);
                windows.push((Time(t), Time(t + len)));
                t += len + rng.random_range(1..3_000u64);
            }
            cpus.push(Cpu {
                busy: Time::ZERO,
                windows,
            });
        }
        (q, cpus)
    }

    /// The discipline the bands replace: re-queue an unready item at its
    /// ready instant, re-check when it pops.
    fn requeue_reference(seed: u64, owners: usize) -> (Vec<Vec<(u64, u64)>>, u64) {
        let (mut q, mut cpus) = scenario(seed, owners);
        let mut logs = vec![Vec::new(); owners];
        let mut events = 0;
        while let Some((t, ev)) = q.pop() {
            events += 1;
            match ev {
                Ev::Item { owner, id } => {
                    let ready = cpus[owner].ready(t);
                    if ready > t {
                        q.schedule(ready, Ev::Item { owner, id });
                    } else {
                        serve(&mut q, &mut cpus[owner], &mut logs[owner], t, owner, id);
                    }
                }
                Ev::Bump { owner, cost } => {
                    let cpu = &mut cpus[owner];
                    cpu.busy = cpu.finish(cpu.ready(t), cost);
                }
                Ev::Wake { .. } => unreachable!("the reference never parks"),
            }
        }
        (logs, events)
    }

    fn bands(seed: u64, owners: usize) -> (Vec<Vec<(u64, u64)>>, u64) {
        let (mut q, mut cpus) = scenario(seed, owners);
        let mut logs = vec![Vec::new(); owners];
        let mut parked: ParkedBands<u64> = ParkedBands::new(owners);
        let mut events = 0;
        while let Some((t, ev)) = q.pop() {
            events += 1;
            match ev {
                Ev::Item { owner, id } => {
                    let ready = cpus[owner].ready(t);
                    if ready > t {
                        if parked.park(owner, ready, id) {
                            q.schedule(ready, Ev::Wake { owner });
                        }
                    } else {
                        serve(&mut q, &mut cpus[owner], &mut logs[owner], t, owner, id);
                    }
                }
                Ev::Bump { owner, cost } => {
                    let cpu = &mut cpus[owner];
                    cpu.busy = cpu.finish(cpu.ready(t), cost);
                }
                Ev::Wake { owner } => {
                    debug_assert_eq!(parked.next_wake(owner), Some(t));
                    while parked.next_wake(owner) == Some(t) {
                        let ready = cpus[owner].ready(t);
                        if ready > t {
                            if parked.repark(owner, ready) {
                                q.schedule(ready, Ev::Wake { owner });
                            }
                            break;
                        }
                        let id = parked.pop(owner).expect("a due band is non-empty");
                        serve(&mut q, &mut cpus[owner], &mut logs[owner], t, owner, id);
                    }
                }
            }
        }
        for owner in 0..owners {
            assert_eq!(parked.parked(owner), 0, "everything parked was served");
        }
        (logs, events)
    }

    #[test]
    fn bands_serve_every_owner_in_the_requeue_order() {
        let (mut ref_events, mut band_events) = (0, 0);
        for seed in 0..200 {
            let (want, re) = requeue_reference(seed, 4);
            let (got, be) = bands(seed, 4);
            for owner in 0..4 {
                assert_eq!(
                    got[owner], want[owner],
                    "seed {seed}, owner {owner}: service sequence diverged"
                );
            }
            assert!(
                be <= re,
                "seed {seed}: bands cost {be} events, re-queue {re}"
            );
            ref_events += re;
            band_events += be;
        }
        assert!(
            band_events < ref_events,
            "busy windows must actually park: {band_events} vs {ref_events}"
        );
    }
}
