//! Flow-level network simulation with per-link fair bandwidth sharing.
//!
//! Every in-flight message is a *flow* over a path of links. Each link's
//! capacity is shared equally among the flows crossing it (processor
//! sharing), and a flow drains at the minimum share along its path:
//!
//! ```text
//! rate(f) = min over links l of f:  capacity(l) / active_flows(l)
//! ```
//!
//! This is the classic equal-share approximation of max-min fairness. It
//! is *local*: a flow entering or leaving only perturbs flows that share
//! one of its links, which keeps the engine O(affected flows) per event —
//! essential for thousand-rank collectives with tens of thousands of
//! concurrent flows — while still producing the congestion effects the
//! ADAPT paper reasons about (three flows on one PCIe direction each see a
//! third of its bandwidth, §4.1; heterogeneous lanes progress
//! independently, §3.2.2).
//!
//! Each flow passes through two phases:
//!
//! 1. **Draining** — its bytes leave the sender at the allotted rate; a
//!    *drain* event fires when the last byte is injected, at which point
//!    the flow stops consuming link capacity.
//! 2. **Latency tail** — the path's propagation latency elapses; a
//!    *delivery* event fires and the owner is handed the flow's tag.
//!
//! # Service clocks
//!
//! Shares move on every join and leave, so tracking each flow's remaining
//! bytes eagerly would touch every neighbour at every perturbation.
//! Instead each link keeps a *service clock* (the virtual time of a
//! processor-sharing queue): the bytes served so far to any one flow
//! bottlenecked on it, advanced by `share × elapsed` just before its share
//! or its flows change. A draining flow waits in the min-heap of its
//! *bottleneck* link (a link of its path with the smallest share) for a
//! *target*: the clock value at which its last byte leaves. A share change
//! re-rates every flow bottlenecked on the link without touching one of
//! them, and each link schedules one drain event, for the head of its
//! heap.
//!
//! Flows change heaps only when their bottleneck moves:
//!
//! * a join (or a capacity cut) lowers shares: flows on the link
//!   bottlenecked elsewhere at a higher share move onto it;
//! * a leave (or a capacity rise) raises shares: the link's own flows are
//!   re-checked against the other links of their paths, and move to one
//!   whose share is now lower.
//!
//! A link whose share does not move — an idle link taking its first flow
//! or losing its last — is left alone, so an uncontended flow touches
//! only its bottleneck's clock.
//!
//! # Exact drain times
//!
//! The clock orders a heap; it does not time the drain. Each draining flow
//! also keeps its remaining bytes as of its last rate change, and each
//! link logs its share changes while its heap is non-empty. A flow
//! catches up on its link's log only when it becomes the head or moves,
//! applying each change in order — `remaining −= rate × elapsed`, then the
//! new rate — exactly as a per-flow reconciliation at every change would.
//! Its drain event is then `last change + ⌈remaining / rate⌉` nanoseconds:
//! exact up to that ceiling, with no tolerance that keeps a stale
//! estimate and no drain event that fires early. A log is cleared when its
//! heap empties, and caught up and cleared once it outgrows the heap.
//!
//! Two flows with equal targets on one link drain later launch first (by
//! a per-flow sequence number), never in slab-slot order, so a reused
//! slot cannot reorder same-instant drains. Later-first is the order the
//! per-flow engine this one replaced produced with exact drain estimates;
//! the GPU reduce of Figure 11 depends on it.
//!
//! # Scheduler contract
//!
//! The engine does not own the event queue (the MPI runtime does); it
//! talks to it through [`FlowScheduler`], so flows, rank events, and noise
//! share one deterministic timeline. A flow has at most one pending event:
//! its link's head drain, or its delivery. When a link's head or share
//! changes, the old head event is cancelled. A scheduler whose `cancel`
//! does nothing (a trace replay that drops superseded events itself) may
//! still deliver such an event; [`Network::handle_event`] recognises it —
//! the flow is not its link's scheduled head for that instant — and
//! returns [`NetStep::Progress`] without touching any clock or heap.

use crate::links::{Link, Path, MAX_PATH};
use adapt_sim::queue::EventKey;
use adapt_sim::time::{Duration, Time};

/// Identifier of an in-flight flow.
#[derive(Clone, Copy, Debug, PartialEq, Eq, Hash, PartialOrd, Ord)]
pub struct FlowId(pub u64);

/// How the owner's event queue is driven by the network engine.
pub trait FlowScheduler {
    /// Schedule a network event for `flow` at `at`; return a cancellable key.
    fn schedule(&mut self, at: Time, flow: FlowId) -> EventKey;
    /// Cancel a previously scheduled network event.
    fn cancel(&mut self, key: EventKey);
}

/// Description of a new flow.
#[derive(Clone, Copy, Debug)]
pub struct FlowSpec {
    /// Links the flow traverses, in order.
    pub path: Path,
    /// Payload size in bytes. Zero-byte flows model control messages and
    /// are charged latency only.
    pub bytes: u64,
    /// Opaque tag returned on delivery (the MPI layer keys its bookkeeping
    /// on this).
    pub tag: u64,
}

/// Outcome handed to the owner when a delivery event fires.
#[derive(Clone, Copy, Debug, PartialEq, Eq)]
pub struct Delivery {
    /// The completed flow.
    pub flow: FlowId,
    /// The tag from the original [`FlowSpec`].
    pub tag: u64,
    /// Bytes that were carried.
    pub bytes: u64,
}

/// What a network event meant.
#[derive(Clone, Copy, Debug, PartialEq, Eq)]
pub enum NetStep {
    /// A drain event the network had superseded (only a scheduler that
    /// does not cancel delivers one); nothing to act on.
    Progress,
    /// The flow's last byte left the sender: its buffer is reusable and it
    /// stopped consuming link capacity. Delivery follows after the path
    /// latency.
    Drained {
        /// The draining flow.
        flow: FlowId,
        /// The tag from the original [`FlowSpec`].
        tag: u64,
        /// Bytes carried.
        bytes: u64,
    },
    /// The flow arrived at the receiver.
    Delivered(Delivery),
    /// The flow was lost: injected fault (link loss or outage) consumed
    /// the transfer. The flow drained normally — bandwidth was spent — but
    /// nothing arrives; recovery is the reliability layer's job.
    Dropped(Delivery),
}

#[derive(Debug)]
struct Flow {
    spec: FlowSpec,
    /// Marked lost at injection time by the fault layer: the flow drains
    /// and ties up bandwidth as usual, but delivery reports
    /// [`NetStep::Dropped`] instead of handing data to the receiver.
    doomed: bool,
    /// For each path position, this flow's index inside that link's
    /// `link_flows` list — a slot map that turns the leave-link update into
    /// an O(1) `swap_remove` instead of a linear `position()` scan.
    slots: [u32; MAX_PATH],
}

/// [`Network::bneck`] entry of a flow past its drain (in its latency
/// tail), or of a free slot.
const TAIL: u32 = u32::MAX;

/// A draining flow in its bottleneck link's heap.
#[derive(Clone, Copy, Debug)]
struct Target {
    /// The link's clock value at which the flow's last byte leaves.
    at: f64,
    /// The flow's launch order.
    seq: u64,
    /// The flow's slab index.
    flow: u32,
}

impl Target {
    /// Heap order: smaller target first; among equal targets, the later
    /// launch first.
    #[inline]
    fn before(&self, other: &Target) -> bool {
        self.at < other.at || (self.at == other.at && self.seq > other.seq)
    }
}

/// A draining flow's remaining bytes as of its last rate change.
#[derive(Clone, Copy, Debug, Default)]
struct Drain {
    /// Bytes left at `last`.
    rem: f64,
    /// When the rate last changed.
    last: Time,
    /// Rate since `last`, bytes/sec.
    rate: f64,
    /// Absolute index of the first entry of its bottleneck's share log
    /// not yet applied.
    lpos: usize,
}

impl Drain {
    /// Apply one rate change at `t`. A change within 1e-9 relative is no
    /// change at all.
    #[inline]
    fn rerate(&mut self, t: Time, rate: f64) {
        if (self.rate - rate).abs() <= 1e-9 * rate.max(self.rate) {
            return;
        }
        let dt = t.saturating_since(self.last).as_secs_f64();
        self.rem = (self.rem - self.rate * dt).max(0.0);
        self.last = t;
        self.rate = rate;
    }

    /// When the last byte leaves at the current rate.
    #[inline]
    fn end(&self) -> Time {
        self.last + Duration::from_secs_f64_ceil(self.rem / self.rate)
    }
}

/// A link's service clock and the flows it bottlenecks.
#[derive(Debug, Default)]
struct Clock {
    /// Bytes served to each flow bottlenecked here, counted from the last
    /// time the heap was empty.
    value: f64,
    /// When `value` was last advanced.
    updated: Time,
    /// Draining flows whose bottleneck is this link: a binary min-heap in
    /// [`Target::before`] order. Each flow's index in it is in
    /// [`Network::hpos`].
    heap: Vec<Target>,
    /// The pending drain event: the head flow it is for and when it fires.
    head: Option<(u32, Time)>,
    /// Key of the pending drain event.
    event: EventKey,
    /// Share changes `(when, new rate)` since the heap was last empty or
    /// the log last compacted.
    log: Vec<(Time, f64)>,
    /// Absolute index of `log[0]`.
    log_base: usize,
    /// The last log entry is the current perturbation's.
    fresh: bool,
    /// What the current perturbation did to the link (see
    /// [`Network::touch`]): 0 nothing, 1 its heap changed, 2 its share
    /// changed.
    touched: u8,
}

impl Clock {
    /// Absolute index one past the last log entry.
    #[inline]
    fn log_end(&self) -> usize {
        self.log_base + self.log.len()
    }

    /// Apply the log entries in `[d.lpos, upto)` to a flow bottlenecked
    /// here.
    #[inline]
    fn catch_up(&self, d: &mut Drain, upto: usize) {
        while d.lpos < upto {
            let (t, rate) = self.log[d.lpos - self.log_base];
            d.rerate(t, rate);
            d.lpos += 1;
        }
    }
}

/// A share log shorter than this is never compacted.
const LOG_COMPACT_MIN: usize = 64;

/// The flow-level network engine. Flows live in a slab (vector plus free
/// list) so the per-event bookkeeping is direct indexing rather than
/// hashing — the hot path with tens of thousands of concurrent flows.
pub struct Network {
    links: Vec<Link>,
    /// Pristine `(capacity, latency)` of every link, kept so degradation
    /// windows can scale from the base values rather than compounding.
    base_links: Vec<(f64, Duration)>,
    slab: Vec<Option<Flow>>,
    free: Vec<u32>,
    active: usize,
    /// Flows currently draining through each link (unordered slab indices).
    link_flows: Vec<Vec<u32>>,
    /// Cached equal-share rate of each link: `capacity / active.max(1)`,
    /// maintained on every occupancy change.
    link_share: Vec<f64>,
    /// Service clock of each link; empty until the first flow drains
    /// (see [`Network::clocks_ready`]).
    clocks: Vec<Clock>,
    /// Per slab slot: the bottleneck link of a draining flow, else [`TAIL`].
    bneck: Vec<u32>,
    /// Per slab slot: a draining flow's index in its bottleneck's heap.
    hpos: Vec<u32>,
    /// Per slab slot: a draining flow's remaining bytes.
    drain: Vec<Drain>,
    /// Launch sequence number of the next flow.
    next_seq: u64,
    /// Cumulative bytes injected by `start_flow` (audit).
    injected_bytes: u64,
    /// Cumulative bytes delivered (diagnostics and audit).
    delivered_bytes: u64,
    /// Cumulative bytes consumed by doomed flows (injected faults).
    dropped_bytes: u64,
    /// Links the current perturbation touched, in first-touch order; their
    /// drain events are re-armed once, at its end.
    touched: Vec<u32>,
    /// Scratch: flows whose bottleneck moves, collected before moving them.
    moves: Vec<u32>,
    /// Diagnostics (see [`NetPerf`]).
    refreshes: u64,
    reschedules: u64,
    share_recomputes: u64,
}

/// Network-engine perf counters (diagnostics, surfaced through the MPI
/// runtime's `WorldStats`).
#[derive(Clone, Copy, Debug, Default, PartialEq, Eq)]
pub struct NetPerf {
    /// Flows examined for a bottleneck move: those crossing a link whose
    /// share fell, plus those bottlenecked on a link whose share rose.
    pub refreshes: u64,
    /// Pending drain events replaced (cancelled and scheduled anew)
    /// because their link's head or share changed.
    pub reschedules: u64,
    /// Path-minimum share computations: one per flow launch, plus one per
    /// flow re-checked against its other links when its bottleneck's share
    /// rose.
    pub share_recomputes: u64,
}

/// Rate below which a flow is considered stalled; avoids division blow-ups
/// from floating-point corner cases. One byte per second.
const MIN_RATE: f64 = 1.0;

fn sift_up(heap: &mut [Target], hpos: &mut [u32], mut i: usize) {
    let t = heap[i];
    while i > 0 {
        let parent = (i - 1) / 2;
        if !t.before(&heap[parent]) {
            break;
        }
        heap[i] = heap[parent];
        hpos[heap[i].flow as usize] = i as u32;
        i = parent;
    }
    heap[i] = t;
    hpos[t.flow as usize] = i as u32;
}

fn sift_down(heap: &mut [Target], hpos: &mut [u32], mut i: usize) {
    let t = heap[i];
    let n = heap.len();
    loop {
        let mut c = 2 * i + 1;
        if c >= n {
            break;
        }
        if c + 1 < n && heap[c + 1].before(&heap[c]) {
            c += 1;
        }
        if !heap[c].before(&t) {
            break;
        }
        heap[i] = heap[c];
        hpos[heap[i].flow as usize] = i as u32;
        i = c;
    }
    heap[i] = t;
    hpos[t.flow as usize] = i as u32;
}

fn heap_push(heap: &mut Vec<Target>, hpos: &mut [u32], t: Target) {
    let i = heap.len();
    heap.push(t);
    sift_up(heap, hpos, i);
}

fn heap_remove(heap: &mut Vec<Target>, hpos: &mut [u32], i: usize) -> Target {
    let removed = heap[i];
    let last = heap.pop().expect("heap holds the removed entry");
    if i < heap.len() {
        heap[i] = last;
        if i > 0 && last.before(&heap[(i - 1) / 2]) {
            sift_up(heap, hpos, i);
        } else {
            sift_down(heap, hpos, i);
        }
    }
    removed
}

impl Network {
    /// Create an engine over a fixed set of links.
    pub fn new(links: Vec<Link>) -> Network {
        let n = links.len();
        // An idle link's share is `capacity / 1` (the `.max(1)` clamp), and
        // dividing by one is exact, so seeding with the raw capacity is
        // bit-identical to the formula.
        let link_share = links.iter().map(|l| l.capacity).collect();
        let base_links = links.iter().map(|l| (l.capacity, l.latency)).collect();
        Network {
            links,
            base_links,
            slab: Vec::new(),
            free: Vec::new(),
            active: 0,
            link_flows: vec![Vec::new(); n],
            link_share,
            clocks: Vec::new(),
            bneck: Vec::new(),
            hpos: Vec::new(),
            drain: Vec::new(),
            next_seq: 0,
            injected_bytes: 0,
            delivered_bytes: 0,
            dropped_bytes: 0,
            touched: Vec::new(),
            moves: Vec::new(),
            refreshes: 0,
            reschedules: 0,
            share_recomputes: 0,
        }
    }

    fn alloc(&mut self, flow: Flow) -> u32 {
        self.active += 1;
        match self.free.pop() {
            Some(i) => {
                self.slab[i as usize] = Some(flow);
                i
            }
            None => {
                self.slab.push(Some(flow));
                self.bneck.push(TAIL);
                self.hpos.push(0);
                self.drain.push(Drain::default());
                (self.slab.len() - 1) as u32
            }
        }
    }

    /// The link table (for diagnostics and fabric queries).
    pub fn links(&self) -> &[Link] {
        &self.links
    }

    /// Permanently rescale one link's pristine capacity and latency before
    /// any flow starts (a what-if intervention applied to a real re-run).
    /// Unlike [`Network::scale_link`], the *baseline* moves too, so later
    /// degradation windows scale relative to the intervened values.
    ///
    /// # Panics
    /// Panics if called while flows are active — the rescale would bypass
    /// the service clocks.
    pub fn prescale_link(&mut self, link: u32, cap_factor: f64, lat_factor: f64) {
        assert_eq!(self.active, 0, "prescale_link requires an idle network");
        assert!(
            cap_factor > 0.0 && lat_factor > 0.0,
            "scale factors must be positive"
        );
        let l = link as usize;
        let cap = self.base_links[l].0 * cap_factor;
        let lat = Duration::from_nanos(
            (self.base_links[l].1.as_nanos() as f64 * lat_factor).round() as u64,
        );
        self.base_links[l] = (cap, lat);
        self.links[l].capacity = cap;
        self.links[l].latency = lat;
        self.link_share[l] = cap;
    }

    /// Number of flows currently in the network (draining or in tail).
    pub fn active_flows(&self) -> usize {
        self.active
    }

    /// Total bytes delivered so far.
    pub fn delivered_bytes(&self) -> u64 {
        self.delivered_bytes
    }

    /// Total bytes injected into flows so far. Once the network is idle
    /// ([`Network::active_flows`] is zero) this must equal
    /// [`Network::delivered_bytes`] plus [`Network::dropped_bytes`] — the
    /// audit layer checks exactly that.
    pub fn injected_bytes(&self) -> u64 {
        self.injected_bytes
    }

    /// Total bytes consumed by doomed flows (injected faults) so far.
    pub fn dropped_bytes(&self) -> u64 {
        self.dropped_bytes
    }

    /// Visit every link currently carrying flows, for time-series
    /// sampling: calls `f(link_id, flow_count, utilization)` where
    /// `utilization` is the summed drain rate of the link's flows (each
    /// its bottleneck link's share) over its capacity. Flows in tail no
    /// longer occupy a link. Idle links are skipped — a large machine has
    /// mostly-idle lanes.
    pub fn for_each_link_load(&self, mut f: impl FnMut(u32, usize, f64)) {
        for (l, flows) in self.link_flows.iter().enumerate() {
            if flows.is_empty() {
                continue;
            }
            let mut used = 0.0;
            for &fi in flows {
                used += self.rate(self.bneck[fi as usize] as usize);
            }
            let cap = self.links[l].capacity;
            let util = if cap > 0.0 { used / cap } else { 0.0 };
            f(l as u32, flows.len(), util);
        }
    }

    /// Diagnostics: perf counters accumulated so far.
    pub fn perf_counters(&self) -> NetPerf {
        NetPerf {
            refreshes: self.refreshes,
            reschedules: self.reschedules,
            share_recomputes: self.share_recomputes,
        }
    }

    /// Sum of path latencies for `path`.
    pub fn path_latency(&self, path: &Path) -> Duration {
        let mut d = Duration::ZERO;
        for l in path {
            d += self.links[l.0 as usize].latency;
        }
        d
    }

    /// Recompute a link's cached share after its occupancy or capacity
    /// changed at `now`. When the share moves, the link's clock first runs
    /// up to `now` at the old share, the link is marked touched, and the
    /// change is logged for the flows bottlenecked on it. Returns whether
    /// the share moved (a link going from no flow to one keeps its
    /// share). The expression is `capacity / count.max(1)`, so cached
    /// values are bit-identical to an on-the-fly recomputation.
    fn set_share(&mut self, l: usize, now: Time) -> bool {
        let count = self.link_flows[l].len().max(1) as f64;
        let share = self.links[l].capacity / count;
        if share == self.link_share[l] {
            return false;
        }
        self.advance(l, now);
        self.link_share[l] = share;
        self.touch(l, true);
        let rate = self.rate(l);
        let c = &mut self.clocks[l];
        if !c.heap.is_empty() {
            c.log.push((now, rate));
            c.fresh = true;
        }
        true
    }

    /// The drain rate of a flow bottlenecked on link `l`.
    #[inline]
    fn rate(&self, l: usize) -> f64 {
        self.link_share[l].max(MIN_RATE)
    }

    /// The first link of `path` with the smallest share: where a flow over
    /// it is bottlenecked.
    fn bottleneck(&self, path: &Path) -> usize {
        let links = path.as_slice();
        let mut b = links[0].0 as usize;
        for l in &links[1..] {
            if self.link_share[l.0 as usize] < self.link_share[b] {
                b = l.0 as usize;
            }
        }
        b
    }

    /// Allocate the per-link clocks on first use. They are run state, and
    /// at thousands of links the table is large enough that building it
    /// with the world would add to every world's set-up time.
    fn clocks_ready(&mut self) {
        if self.clocks.is_empty() {
            self.clocks.resize_with(self.links.len(), Clock::default);
        }
    }

    /// Bring link `l`'s clock up to `now` at its current share. Called
    /// before anything changes the link's share or heap.
    #[inline]
    fn advance(&mut self, l: usize, now: Time) {
        let rate = self.rate(l);
        let c = &mut self.clocks[l];
        if now > c.updated {
            if !c.heap.is_empty() {
                c.value += rate * now.saturating_since(c.updated).as_secs_f64();
            }
            c.updated = now;
        }
    }

    /// Note that the current perturbation changed link `l`'s heap, or also
    /// its share (`share_moved`), so its drain event is re-armed at the end.
    #[inline]
    fn touch(&mut self, l: usize, share_moved: bool) {
        let c = &mut self.clocks[l];
        if c.touched == 0 {
            self.touched.push(l as u32);
        }
        c.touched = c.touched.max(1 + share_moved as u8);
    }

    /// Move draining flow `g` from its bottleneck's heap to link `to`'s,
    /// carrying its remaining bytes from one clock to the other. The flow
    /// catches up on the old link's share changes from before this
    /// perturbation (it never ran at the old link's new share) and changes
    /// rate now, to the new link's.
    fn move_flow(&mut self, g: u32, to: usize, now: Time) {
        let from = self.bneck[g as usize] as usize;
        self.advance(from, now);
        self.advance(to, now);
        let pos = self.hpos[g as usize] as usize;
        let t = heap_remove(&mut self.clocks[from].heap, &mut self.hpos, pos);
        let c = &self.clocks[from];
        let d = &mut self.drain[g as usize];
        c.catch_up(d, c.log_end() - c.fresh as usize);
        d.rerate(now, self.link_share[to].max(MIN_RATE));
        d.lpos = self.clocks[to].log_end();
        let remaining = (t.at - c.value).max(0.0);
        let at = self.clocks[to].value + remaining;
        heap_push(
            &mut self.clocks[to].heap,
            &mut self.hpos,
            Target { at, ..t },
        );
        self.bneck[g as usize] = to as u32;
        self.touch(from, false);
        self.touch(to, false);
    }

    /// Link `l`'s share fell: flows crossing it that are bottlenecked
    /// elsewhere at a higher share now bottleneck here.
    fn pull_onto(&mut self, l: usize, now: Time) {
        let share = self.link_share[l];
        let flows = &self.link_flows[l];
        self.refreshes += flows.len() as u64;
        self.moves.clear();
        for &g in flows {
            let b = self.bneck[g as usize] as usize;
            if b != l && share < self.link_share[b] {
                self.moves.push(g);
            }
        }
        for i in 0..self.moves.len() {
            let g = self.moves[i];
            self.move_flow(g, l, now);
        }
    }

    /// Link `l`'s share rose: each flow bottlenecked here is re-checked
    /// against the other links of its path and moves to one whose share is
    /// now lower. Flows bottlenecked elsewhere cannot speed up.
    fn release_from(&mut self, l: usize, now: Time) {
        let share = self.link_share[l];
        let heap = &self.clocks[l].heap;
        self.refreshes += heap.len() as u64;
        self.share_recomputes += heap.len() as u64;
        self.moves.clear();
        for t in heap {
            let f = self.slab[t.flow as usize].as_ref().expect("queued flow");
            if f.spec
                .path
                .into_iter()
                .any(|k| self.link_share[k.0 as usize] < share)
            {
                self.moves.push(t.flow);
            }
        }
        for i in 0..self.moves.len() {
            let g = self.moves[i];
            let path = self.slab[g as usize]
                .as_ref()
                .expect("queued flow")
                .spec
                .path;
            let to = self.bottleneck(&path);
            self.move_flow(g, to, now);
        }
    }

    /// End of a perturbation: give every touched link's heap head a drain
    /// event at its exact time. A link whose share and head are unchanged
    /// keeps its event; an emptied link cancels its event and resets its
    /// clock and log.
    fn rearm_touched(&mut self, now: Time, sched: &mut impl FlowScheduler) {
        for i in 0..self.touched.len() {
            let l = self.touched[i] as usize;
            let c = &mut self.clocks[l];
            let share_moved = c.touched == 2;
            c.touched = 0;
            c.fresh = false;
            let Some(&top) = c.heap.first() else {
                if c.head.take().is_some() {
                    sched.cancel(c.event);
                }
                c.value = 0.0;
                c.log_base += c.log.len();
                c.log.clear();
                continue;
            };
            if c.log.len() >= LOG_COMPACT_MIN.max(2 * c.heap.len()) {
                // Every queued flow applies the whole log now instead of
                // later: the same work, and the log's memory is freed.
                for t in &c.heap {
                    c.catch_up(&mut self.drain[t.flow as usize], c.log_end());
                }
                c.log_base += c.log.len();
                c.log.clear();
            }
            if !share_moved && c.head.is_some_and(|(f, _)| f == top.flow) {
                continue;
            }
            let d = &mut self.drain[top.flow as usize];
            c.catch_up(d, c.log_end());
            let at = d.end().max(now);
            if c.head == Some((top.flow, at)) {
                continue;
            }
            if c.head.is_some() {
                sched.cancel(c.event);
                self.reschedules += 1;
            }
            c.event = sched.schedule(at, FlowId(top.flow as u64));
            c.head = Some((top.flow, at));
        }
        self.touched.clear();
    }

    /// Time a hypothetical `bytes`-sized transfer over `path` would take
    /// under the *current* share allocation: path latency plus the drain
    /// at today's equal-share rate. The reliability layer uses this as its
    /// RTT stand-in when arming retransmission timers; it is an estimate,
    /// not a promise — shares move as flows come and go.
    pub fn estimate_transfer(&self, path: &Path, bytes: u64) -> Duration {
        let latency = self.path_latency(path);
        if bytes == 0 || path.is_empty() {
            return latency;
        }
        latency + Duration::from_secs_f64_ceil(bytes as f64 / self.rate(self.bottleneck(path)))
    }

    /// Scale one link's capacity and latency to `cap_factor` / `lat_factor`
    /// times its *base* values (factors of 1.0 restore the link). Flows
    /// currently draining through the link are re-rated immediately;
    /// latency changes apply to drains and launches that happen after the
    /// call.
    pub fn scale_link(
        &mut self,
        now: Time,
        link: u32,
        cap_factor: f64,
        lat_factor: f64,
        sched: &mut impl FlowScheduler,
    ) {
        let l = link as usize;
        let (base_cap, base_lat) = self.base_links[l];
        self.clocks_ready();
        self.links[l].capacity = base_cap * cap_factor;
        self.links[l].latency =
            Duration::from_nanos((base_lat.as_nanos() as f64 * lat_factor).round() as u64);
        let old_share = self.link_share[l];
        self.set_share(l, now);
        if self.link_share[l] < old_share {
            self.pull_onto(l, now);
        } else if self.link_share[l] > old_share {
            self.release_from(l, now);
        }
        self.rearm_touched(now, sched);
    }

    /// Inject a new flow at time `now`. Returns its id; a delivery (or
    /// drain) event is scheduled through `sched`.
    pub fn start_flow(
        &mut self,
        now: Time,
        spec: FlowSpec,
        sched: &mut impl FlowScheduler,
    ) -> FlowId {
        self.start_flow_doomed(now, spec, false, sched)
    }

    /// [`Network::start_flow`] with a fault verdict attached: a doomed
    /// flow drains and consumes bandwidth normally but reports
    /// [`NetStep::Dropped`] at delivery time instead of arriving.
    pub fn start_flow_doomed(
        &mut self,
        now: Time,
        spec: FlowSpec,
        doomed: bool,
        sched: &mut impl FlowScheduler,
    ) -> FlowId {
        self.injected_bytes += spec.bytes;
        let seq = self.next_seq;
        self.next_seq += 1;
        let id = self.alloc(Flow {
            spec,
            doomed,
            slots: [0; MAX_PATH],
        });
        if spec.bytes == 0 || spec.path.is_empty() {
            // Control message or purely local hand-off: latency only.
            let latency = self.path_latency(&spec.path);
            sched.schedule(now + latency, FlowId(id as u64));
            return FlowId(id as u64);
        }
        // Join the links; shares fall except on a link that was idle.
        self.clocks_ready();
        let mut fell = [false; MAX_PATH];
        for (i, l) in spec.path.as_slice().iter().enumerate() {
            let l = l.0 as usize;
            let v = &mut self.link_flows[l];
            v.push(id);
            let slot = (v.len() - 1) as u32;
            self.slab[id as usize]
                .as_mut()
                .expect("just allocated")
                .slots[i] = slot;
            fell[i] = self.set_share(l, now);
        }
        self.share_recomputes += 1;
        let b = self.bottleneck(&spec.path);
        self.advance(b, now);
        self.touch(b, false);
        let at = self.clocks[b].value + spec.bytes as f64;
        self.bneck[id as usize] = b as u32;
        self.drain[id as usize] = Drain {
            rem: spec.bytes as f64,
            last: now,
            rate: self.rate(b),
            lpos: self.clocks[b].log_end(),
        };
        heap_push(
            &mut self.clocks[b].heap,
            &mut self.hpos,
            Target { at, seq, flow: id },
        );
        for (i, l) in spec.path.as_slice().iter().enumerate() {
            if fell[i] {
                self.pull_onto(l.0 as usize, now);
            }
        }
        self.rearm_touched(now, sched);
        FlowId(id as u64)
    }

    /// Handle a network event for `flow`: either the drain (last byte
    /// injected — the flow stops consuming bandwidth and its delivery is
    /// scheduled one path-latency later) or the delivery itself.
    pub fn handle_event(
        &mut self,
        now: Time,
        flow: FlowId,
        sched: &mut impl FlowScheduler,
    ) -> NetStep {
        let idx = flow.0 as usize;
        let b = self.bneck[idx];
        if b == TAIL {
            let f = self.slab[idx].take().expect("event for unknown flow");
            self.active -= 1;
            self.free.push(flow.0 as u32);
            let delivery = Delivery {
                flow,
                tag: f.spec.tag,
                bytes: f.spec.bytes,
            };
            return if f.doomed {
                self.dropped_bytes += f.spec.bytes;
                NetStep::Dropped(delivery)
            } else {
                self.delivered_bytes += f.spec.bytes;
                NetStep::Delivered(delivery)
            };
        }
        let b = b as usize;
        if self.clocks[b].head != Some((flow.0 as u32, now)) {
            return NetStep::Progress;
        }
        // The head of its link's heap drained: the event is spent.
        self.clocks[b].head = None;
        let f = self.slab[idx].as_ref().expect("draining flow");
        let (path, tag, bytes, slots) = (f.spec.path, f.spec.tag, f.spec.bytes, f.slots);
        self.advance(b, now);
        let pos = self.hpos[idx] as usize;
        heap_remove(&mut self.clocks[b].heap, &mut self.hpos, pos);
        self.bneck[idx] = TAIL;
        self.touch(b, false);
        let mut rose = [false; MAX_PATH];
        // Stop consuming capacity; neighbours speed up. The slot map
        // makes each leave O(1): swap_remove this flow's recorded slot,
        // then repoint the slot of whichever flow got moved into it.
        for (i, l) in path.as_slice().iter().enumerate() {
            let l = l.0 as usize;
            let pos = slots[i] as usize;
            let v = &mut self.link_flows[l];
            debug_assert_eq!(v[pos], flow.0 as u32, "slot map out of sync");
            let last = v.len() - 1;
            v.swap_remove(pos);
            if pos != last {
                let moved = v[pos];
                let mf = self.slab[moved as usize]
                    .as_mut()
                    .expect("moved flow vanished");
                for (j, ml) in mf.spec.path.as_slice().iter().enumerate() {
                    if ml.0 as usize == l && mf.slots[j] as usize == last {
                        mf.slots[j] = pos as u32;
                        break;
                    }
                }
            }
            rose[i] = self.set_share(l, now);
        }
        let latency = self.path_latency(&path);
        sched.schedule(now + latency, flow);
        for (i, l) in path.as_slice().iter().enumerate() {
            if rose[i] {
                self.release_from(l.0 as usize, now);
            }
        }
        self.rearm_touched(now, sched);
        NetStep::Drained { flow, tag, bytes }
    }

    /// Test-only invariant: every cached link share equals the formula
    /// recomputed from scratch, bit for bit.
    #[cfg(test)]
    fn check_share_cache(&self) {
        for (i, link) in self.links.iter().enumerate() {
            let count = self.link_flows[i].len().max(1) as f64;
            assert_eq!(
                self.link_share[i].to_bits(),
                (link.capacity / count).to_bits(),
                "stale share cache on link {i}"
            );
        }
    }

    /// Test-only invariant: the slot map and the per-link flow lists agree
    /// in both directions.
    #[cfg(test)]
    fn check_slots(&self) {
        for (l, v) in self.link_flows.iter().enumerate() {
            for (pos, &id) in v.iter().enumerate() {
                let f = self.slab[id as usize]
                    .as_ref()
                    .expect("listed flow vanished");
                assert!(
                    f.spec
                        .path
                        .as_slice()
                        .iter()
                        .enumerate()
                        .any(|(j, pl)| pl.0 as usize == l && f.slots[j] as usize == pos),
                    "flow {id} at link {l} pos {pos} has no matching slot"
                );
            }
        }
    }

    /// Test-only invariant: every draining flow sits in the heap of a
    /// minimum-share link of its path at its recorded position, every
    /// heap is ordered, and every non-empty heap has a drain event for its
    /// head.
    #[cfg(test)]
    fn check_clocks(&self) {
        for (i, f) in self.slab.iter().enumerate() {
            let Some(f) = f else { continue };
            let b = self.bneck[i];
            if b == TAIL {
                continue;
            }
            let min = self.link_share[self.bottleneck(&f.spec.path)];
            assert_eq!(self.link_share[b as usize], min, "bottleneck of flow {i}");
            let t = self.clocks[b as usize].heap[self.hpos[i] as usize];
            assert_eq!(t.flow as usize, i, "heap position of flow {i}");
        }
        for (l, c) in self.clocks.iter().enumerate() {
            for (j, t) in c.heap.iter().enumerate().skip(1) {
                assert!(!t.before(&c.heap[(j - 1) / 2]), "heap order on link {l}");
            }
            assert_eq!(
                c.head.map(|(f, _)| f),
                c.heap.first().map(|t| t.flow),
                "head event of link {l}"
            );
            assert_eq!(c.touched, 0);
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::links::LinkId;
    use adapt_sim::queue::EventQueue;

    /// Test scheduler backed directly by an EventQueue.
    struct Q(EventQueue<FlowId>);

    impl FlowScheduler for Q {
        fn schedule(&mut self, at: Time, flow: FlowId) -> EventKey {
            self.0.schedule(at, flow)
        }
        fn cancel(&mut self, key: EventKey) {
            self.0.cancel(key);
        }
    }

    fn one_link(bw: f64, lat_ns: u64) -> Network {
        Network::new(vec![Link {
            class: crate::links::LinkClass::Backbone,
            capacity: bw,
            latency: Duration::from_nanos(lat_ns),
        }])
    }

    fn drive_until_delivery(net: &mut Network, q: &mut Q) -> Vec<(Time, Delivery)> {
        let mut out = Vec::new();
        while let Some((t, fid)) = q.0.pop() {
            if let NetStep::Delivered(d) = net.handle_event(t, fid, q) {
                out.push((t, d));
            }
        }
        out
    }

    #[test]
    fn single_flow_hockney_time() {
        // 1e6 bytes at 1e9 B/s = 1 ms drain + 1 us latency.
        let mut net = one_link(1e9, 1_000);
        let mut q = Q(EventQueue::new());
        net.start_flow(
            Time::ZERO,
            FlowSpec {
                path: Path::new(&[LinkId(0)]),
                bytes: 1_000_000,
                tag: 7,
            },
            &mut q,
        );
        let deliveries = drive_until_delivery(&mut net, &mut q);
        assert_eq!(deliveries.len(), 1);
        let (t, d) = deliveries[0];
        assert_eq!(d.tag, 7);
        assert_eq!(t.as_nanos(), 1_000_000 + 1_000);
        assert_eq!(net.active_flows(), 0);
        assert_eq!(net.delivered_bytes(), 1_000_000);
    }

    #[test]
    fn two_flows_share_fairly() {
        // Two equal flows on one link: each runs at half speed for the
        // duration, so both finish at 2 ms (plus latency).
        let mut net = one_link(1e9, 0);
        let mut q = Q(EventQueue::new());
        for tag in 0..2 {
            net.start_flow(
                Time::ZERO,
                FlowSpec {
                    path: Path::new(&[LinkId(0)]),
                    bytes: 1_000_000,
                    tag,
                },
                &mut q,
            );
        }
        let deliveries = drive_until_delivery(&mut net, &mut q);
        assert_eq!(deliveries.len(), 2);
        for (t, _) in deliveries {
            assert_eq!(t.as_nanos(), 2_000_000);
        }
    }

    #[test]
    fn three_flows_get_third_bandwidth() {
        // The §4.1 congestion claim: three concurrent flows on one PCIe
        // direction each see one third of the bandwidth.
        let mut net = one_link(9e9, 0);
        let mut q = Q(EventQueue::new());
        for tag in 0..3 {
            net.start_flow(
                Time::ZERO,
                FlowSpec {
                    path: Path::new(&[LinkId(0)]),
                    bytes: 3_000_000,
                    tag,
                },
                &mut q,
            );
        }
        let deliveries = drive_until_delivery(&mut net, &mut q);
        // 3 MB at 3 GB/s = 1 ms each.
        for (t, _) in &deliveries {
            assert_eq!(t.as_nanos(), 1_000_000);
        }
    }

    #[test]
    fn late_second_flow_speeds_up_after_first_drains() {
        let mut net = one_link(1e9, 0);
        let mut q = Q(EventQueue::new());
        net.start_flow(
            Time::ZERO,
            FlowSpec {
                path: Path::new(&[LinkId(0)]),
                bytes: 1_000_000,
                tag: 0,
            },
            &mut q,
        );
        let d = drive_until_delivery(&mut net, &mut q);
        assert_eq!(d[0].0.as_nanos(), 1_000_000);
        net.start_flow(
            Time(1_000_000),
            FlowSpec {
                path: Path::new(&[LinkId(0)]),
                bytes: 1_000_000,
                tag: 1,
            },
            &mut q,
        );
        let d = drive_until_delivery(&mut net, &mut q);
        assert_eq!(d[0].0.as_nanos(), 2_000_000);
    }

    #[test]
    fn preempted_flow_finishes_later() {
        // A (2 MB) starts alone; B (1 MB) joins at 0.5 ms. From then on each
        // gets 0.5 GB/s. B drains after 2 ms shared (at t=2.5ms), after
        // which A runs alone: A drained 0.5 MB by 0.5 ms, another 1 MB
        // while sharing, 0.5 MB left alone at 1 GB/s -> finishes at 3.0 ms.
        let mut net = one_link(1e9, 0);
        let mut q = Q(EventQueue::new());
        net.start_flow(
            Time::ZERO,
            FlowSpec {
                path: Path::new(&[LinkId(0)]),
                bytes: 2_000_000,
                tag: 0,
            },
            &mut q,
        );
        net.start_flow(
            Time(500_000),
            FlowSpec {
                path: Path::new(&[LinkId(0)]),
                bytes: 1_000_000,
                tag: 1,
            },
            &mut q,
        );
        let deliveries = drive_until_delivery(&mut net, &mut q);
        let t_b = deliveries.iter().find(|(_, d)| d.tag == 1).unwrap().0;
        let t_a = deliveries.iter().find(|(_, d)| d.tag == 0).unwrap().0;
        assert_eq!(t_b.as_nanos(), 2_500_000, "B at {t_b:?}");
        assert_eq!(t_a.as_nanos(), 3_000_000, "A at {t_a:?}");
    }

    #[test]
    fn equal_share_on_shared_bottleneck() {
        // Links: L0 cap 1.0, L1 cap 3.0 (GB/s). Flow A on [L0], flow B on
        // [L0, L1], flow C on [L1]. Equal-share: A and B get 0.5 each on
        // L0; C gets min(3.0 / 2) = 1.5 on L1 (the equal-share model does
        // not redistribute B's unused L1 share — see module docs).
        let mk = |cap| Link {
            class: crate::links::LinkClass::Backbone,
            capacity: cap,
            latency: Duration::ZERO,
        };
        let mut net = Network::new(vec![mk(1e9), mk(3e9)]);
        let mut q = Q(EventQueue::new());
        net.start_flow(
            Time::ZERO,
            FlowSpec {
                path: Path::new(&[LinkId(0)]),
                bytes: 500_000,
                tag: 0,
            },
            &mut q,
        );
        net.start_flow(
            Time::ZERO,
            FlowSpec {
                path: Path::new(&[LinkId(0), LinkId(1)]),
                bytes: 500_000,
                tag: 1,
            },
            &mut q,
        );
        net.start_flow(
            Time::ZERO,
            FlowSpec {
                path: Path::new(&[LinkId(1)]),
                bytes: 1_500_000,
                tag: 2,
            },
            &mut q,
        );
        let deliveries = drive_until_delivery(&mut net, &mut q);
        // A and B: 0.5 MB at 0.5 GB/s = 1 ms. C: 1.5 MB at 1.5 GB/s = 1 ms.
        for (t, d) in &deliveries {
            assert_eq!(t.as_nanos(), 1_000_000, "flow {} at {t:?}", d.tag);
        }
    }

    #[test]
    fn equal_targets_drain_later_launch_first() {
        // Two identical flows on one link drain at the same instant; the
        // later launch drains first, in a fresh slot (higher index) or a
        // reused one (lower index) alike.
        for reuse in [false, true] {
            let mut net = one_link(1e9, 0);
            let mut q = Q(EventQueue::new());
            let spec = |bytes, tag| FlowSpec {
                path: Path::new(&[LinkId(0)]),
                bytes,
                tag,
            };
            if reuse {
                // Occupy slot 0 with a control message, then free it.
                net.start_flow(Time::ZERO, spec(0, 9), &mut q);
            }
            net.start_flow(Time::ZERO, spec(1_000, 0), &mut q);
            if reuse {
                let (t, fid) = q.0.pop().unwrap();
                assert!(matches!(
                    net.handle_event(t, fid, &mut q),
                    NetStep::Delivered(d) if d.tag == 9
                ));
            }
            let second = net.start_flow(Time::ZERO, spec(1_000, 1), &mut q);
            assert_eq!(second.0, if reuse { 0 } else { 1 });
            let mut drained = Vec::new();
            while let Some((t, fid)) = q.0.pop() {
                if let NetStep::Drained { tag, .. } = net.handle_event(t, fid, &mut q) {
                    drained.push((t.as_nanos(), tag));
                }
            }
            assert_eq!(drained, vec![(2_000, 1), (2_000, 0)], "reuse={reuse}");
        }
    }

    #[test]
    fn zero_byte_flow_is_latency_only() {
        let mut net = one_link(1e9, 2_000);
        let mut q = Q(EventQueue::new());
        net.start_flow(
            Time::ZERO,
            FlowSpec {
                path: Path::new(&[LinkId(0)]),
                bytes: 0,
                tag: 9,
            },
            &mut q,
        );
        let d = drive_until_delivery(&mut net, &mut q);
        assert_eq!(d[0].0.as_nanos(), 2_000);
    }

    #[test]
    fn empty_path_delivers_immediately() {
        let mut net = one_link(1e9, 2_000);
        let mut q = Q(EventQueue::new());
        net.start_flow(
            Time(5),
            FlowSpec {
                path: Path::EMPTY,
                bytes: 123,
                tag: 4,
            },
            &mut q,
        );
        let d = drive_until_delivery(&mut net, &mut q);
        assert_eq!(d[0].0, Time(5));
        assert_eq!(d[0].1.bytes, 123);
    }

    #[test]
    fn determinism_two_identical_runs() {
        let run = || {
            let mut net = one_link(7e8, 300);
            let mut q = Q(EventQueue::new());
            for tag in 0..20 {
                net.start_flow(
                    Time(tag * 10_000),
                    FlowSpec {
                        path: Path::new(&[LinkId(0)]),
                        bytes: 100_000 + tag * 7_777,
                        tag,
                    },
                    &mut q,
                );
            }
            drive_until_delivery(&mut net, &mut q)
                .into_iter()
                .map(|(t, d)| (t.as_nanos(), d.tag))
                .collect::<Vec<_>>()
        };
        assert_eq!(run(), run());
    }

    #[test]
    fn share_cache_and_slot_map_survive_churn() {
        // Overlapping paths over a small fabric, staggered starts, drains
        // interleaved with joins: after every event the cached shares must
        // equal the from-scratch formula and the slot map must be
        // consistent both ways.
        let mk = |cap| Link {
            class: crate::links::LinkClass::Backbone,
            capacity: cap,
            latency: Duration::from_nanos(100),
        };
        let mut net = Network::new(vec![mk(1e9), mk(2e9), mk(4e9), mk(8e9)]);
        let mut q = Q(EventQueue::new());
        let paths = [
            Path::new(&[LinkId(0)]),
            Path::new(&[LinkId(0), LinkId(1)]),
            Path::new(&[LinkId(1), LinkId(2)]),
            Path::new(&[LinkId(2), LinkId(3)]),
            Path::new(&[LinkId(0), LinkId(2), LinkId(3)]),
        ];
        let mut tag = 0u64;
        let mut seed = 1u64;
        for wave in 0..40u64 {
            let wave_start = Time(wave * 20_000);
            // Process everything due before this wave so joins and leaves
            // overlap without time running backwards.
            while q.0.peek_time().is_some_and(|t| t <= wave_start) {
                let (t, fid) = q.0.pop().unwrap();
                net.handle_event(t, fid, &mut q);
                net.check_share_cache();
                net.check_slots();
                net.check_clocks();
            }
            for (i, p) in paths.iter().enumerate() {
                seed = seed
                    .wrapping_mul(6364136223846793005)
                    .wrapping_add(1442695040888963407);
                let bytes = 10_000 + (seed >> 48);
                net.start_flow(
                    wave_start + Duration::from_nanos(i as u64),
                    FlowSpec {
                        path: *p,
                        bytes,
                        tag,
                    },
                    &mut q,
                );
                tag += 1;
                net.check_share_cache();
                net.check_slots();
                net.check_clocks();
            }
        }
        while let Some((t, fid)) = q.0.pop() {
            net.handle_event(t, fid, &mut q);
            net.check_share_cache();
            net.check_slots();
            net.check_clocks();
        }
        assert_eq!(net.active_flows(), 0);
        assert_eq!(net.injected_bytes(), net.delivered_bytes());
    }

    #[test]
    fn doomed_flow_consumes_bandwidth_but_never_arrives() {
        // A doomed flow shares the link like any other (the honest model of
        // a transfer corrupted in flight), then reports Dropped.
        let mut net = one_link(1e9, 0);
        let mut q = Q(EventQueue::new());
        net.start_flow_doomed(
            Time::ZERO,
            FlowSpec {
                path: Path::new(&[LinkId(0)]),
                bytes: 1_000_000,
                tag: 0,
            },
            true,
            &mut q,
        );
        net.start_flow(
            Time::ZERO,
            FlowSpec {
                path: Path::new(&[LinkId(0)]),
                bytes: 1_000_000,
                tag: 1,
            },
            &mut q,
        );
        let mut dropped = Vec::new();
        let mut delivered = Vec::new();
        while let Some((t, fid)) = q.0.pop() {
            match net.handle_event(t, fid, &mut q) {
                NetStep::Dropped(d) => dropped.push((t, d)),
                NetStep::Delivered(d) => delivered.push((t, d)),
                _ => {}
            }
        }
        assert_eq!(dropped.len(), 1);
        assert_eq!(delivered.len(), 1);
        assert_eq!(dropped[0].1.tag, 0);
        // Both flows shared the link: each finishes around 2 ms.
        assert_eq!(dropped[0].0.as_nanos(), 2_000_000);
        assert_eq!(delivered[0].0.as_nanos(), 2_000_000);
        assert_eq!(net.dropped_bytes(), 1_000_000);
        assert_eq!(net.delivered_bytes(), 1_000_000);
        assert_eq!(
            net.injected_bytes(),
            net.delivered_bytes() + net.dropped_bytes()
        );
    }

    #[test]
    fn scale_link_rerates_inflight_flows() {
        // One flow alone at 1 GB/s; halfway through, the link degrades to
        // 10%: 1 MB total = 0.5 ms at full speed + 5 ms for the rest.
        let mut net = one_link(1e9, 0);
        let mut q = Q(EventQueue::new());
        net.start_flow(
            Time::ZERO,
            FlowSpec {
                path: Path::new(&[LinkId(0)]),
                bytes: 1_000_000,
                tag: 0,
            },
            &mut q,
        );
        // Drive events up to the degradation instant.
        while q.0.peek_time().is_some_and(|t| t <= Time(500_000)) {
            let (t, fid) = q.0.pop().unwrap();
            net.handle_event(t, fid, &mut q);
        }
        net.scale_link(Time(500_000), 0, 0.1, 1.0, &mut q);
        net.check_share_cache();
        let d = drive_until_delivery(&mut net, &mut q);
        assert_eq!(d.len(), 1);
        assert_eq!(
            d[0].0.as_nanos(),
            5_500_000,
            "degraded delivery at {:?}",
            d[0].0
        );
        // Restoring uses base values, not compounded ones.
        net.scale_link(Time(6_000_000), 0, 1.0, 1.0, &mut q);
        assert_eq!(net.links()[0].capacity, 1e9);
    }

    #[test]
    fn estimate_transfer_matches_hockney() {
        let net = one_link(1e9, 1_000);
        let p = Path::new(&[LinkId(0)]);
        assert_eq!(net.estimate_transfer(&p, 0), Duration::from_nanos(1_000));
        assert_eq!(
            net.estimate_transfer(&p, 1_000_000),
            Duration::from_nanos(1_001_000)
        );
        assert_eq!(net.estimate_transfer(&Path::EMPTY, 123), Duration::ZERO);
    }

    #[test]
    fn disjoint_links_do_not_interact() {
        // A flow joining link 1 must not reschedule flows on link 0.
        let mk = |cap| Link {
            class: crate::links::LinkClass::Backbone,
            capacity: cap,
            latency: Duration::ZERO,
        };
        let mut net = Network::new(vec![mk(1e9), mk(1e9)]);
        let mut q = Q(EventQueue::new());
        net.start_flow(
            Time::ZERO,
            FlowSpec {
                path: Path::new(&[LinkId(0)]),
                bytes: 1_000_000,
                tag: 0,
            },
            &mut q,
        );
        net.start_flow(
            Time(100),
            FlowSpec {
                path: Path::new(&[LinkId(1)]),
                bytes: 1_000_000,
                tag: 1,
            },
            &mut q,
        );
        let deliveries = drive_until_delivery(&mut net, &mut q);
        let t0 = deliveries.iter().find(|(_, d)| d.tag == 0).unwrap().0;
        let t1 = deliveries.iter().find(|(_, d)| d.tag == 1).unwrap().0;
        assert_eq!(t0.as_nanos(), 1_000_000);
        assert_eq!(t1.as_nanos(), 1_000_100);
    }
}
