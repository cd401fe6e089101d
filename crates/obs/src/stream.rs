//! Bounded-memory streaming telemetry: the [`StreamRecorder`].
//!
//! Where [`MemRecorder`](crate::MemRecorder) stores every probe —
//! memory O(events) — the streaming recorder folds each probe into
//! fixed-size aggregates the moment it fires: per-flow-class duration
//! histograms, per-message-stage latency histograms, a link×time
//! utilization heatmap, and per-rank busy/idle accounting. Resident
//! state is O(ranks + links + histogram buckets) plus the in-flight
//! working set (open messages and occupied network slots), which is
//! bounded by simulation concurrency, never by run length — so
//! recording can stay on for long, large runs.
//!
//! Every aggregate is integer arithmetic over the deterministic probe
//! stream, so the exported [`ObsSummary`] JSON is byte-identical across
//! re-runs of the same seed.

use crate::hist::{percentile, Hist};
use crate::record::{FlowClass, ObsData, ProtoKind, Trigger};
use crate::recorder::{FlowStart, MsgEvent, Recorder};
use adapt_sim::fxhash::FxHashMap;
use std::fmt::Write as _;

/// Columns in the link×time utilization heatmap.
pub const HEAT_COLS: usize = 64;
/// Initial heatmap column width (ns); doubles (folding the columns
/// pairwise) whenever the run outgrows the grid.
const HEAT_BASE_NS: u64 = 1 << 10;

/// Format tag of the summary JSON export.
pub const SUMMARY_FORMAT: &str = "adapt-obs-summary-v1";

/// In-flight message state — lives only between posting and delivery.
#[derive(Clone, Copy, Default)]
struct OpenMsg {
    posted_ns: u64,
    matched_ns: Option<u64>,
    delivered_ns: Option<u64>,
    recv_ready: bool,
    acked: bool,
    retransmits: u64,
}

impl OpenMsg {
    /// Nothing more can happen to this message; its aggregates are final.
    fn settled(&self) -> bool {
        self.delivered_ns.is_some() && self.recv_ready && (self.retransmits == 0 || self.acked)
    }
}

/// Occupied-network-slot state (slots are reused; latest launch owns).
#[derive(Clone)]
struct SlotState {
    class: FlowClass,
    launch_ns: u64,
    bytes: u64,
    links: Vec<u32>,
    drained: bool,
    live: bool,
}

impl Default for SlotState {
    fn default() -> SlotState {
        SlotState {
            class: FlowClass::Rts,
            launch_ns: 0,
            bytes: 0,
            links: Vec::new(),
            drained: false,
            live: false,
        }
    }
}

/// Link×time byte heatmap with a fixed `links × HEAT_COLS` grid. Column
/// width starts at [`HEAT_BASE_NS`] and doubles — folding the existing
/// columns pairwise — whenever a span lands past the grid, so the grid
/// always covers the whole run at fixed memory. Folding depends only on
/// the probe stream, never on wall-clock, so the result is
/// deterministic.
#[derive(Default)]
struct Heatmap {
    // Column width as a power-of-two shift: the per-flow hot path maps
    // times to columns with shifts, never divisions.
    shift: u32,
    // Column-major: cells[col * nlinks + link]. Flows complete in rough
    // time order, so the hot path hammers one ~nlinks-sized column slice
    // that stays cached, instead of scattering across per-link rows.
    cells: Vec<u64>,
    nlinks: usize,
}

impl Heatmap {
    fn init(&mut self, nlinks: usize) {
        self.shift = HEAT_BASE_NS.trailing_zeros();
        self.nlinks = nlinks;
        self.cells = vec![0; nlinks * HEAT_COLS];
    }

    fn width_ns(&self) -> u64 {
        1 << self.shift
    }

    fn fold(&mut self) {
        self.shift += 1;
        let n = self.nlinks;
        for i in 0..HEAT_COLS / 2 {
            for l in 0..n {
                self.cells[i * n + l] = self.cells[2 * i * n + l] + self.cells[(2 * i + 1) * n + l];
            }
        }
        for c in &mut self.cells[(HEAT_COLS / 2) * n..] {
            *c = 0;
        }
    }

    /// Spread `bytes` over the span `[t0, t1)` on every listed link,
    /// prorated per column by integer overlap (remainder to the last
    /// column, so per-link totals stay exact).
    fn add_span(&mut self, links: &[u32], t0: u64, t1: u64, bytes: u64) {
        if bytes == 0 || links.is_empty() || self.cells.is_empty() {
            return;
        }
        let last_ns = t1.max(t0 + 1) - 1;
        while (last_ns >> self.shift) >= HEAT_COLS as u64 {
            self.fold();
        }
        let sh = self.shift;
        let n = self.nlinks;
        let (b0, b1) = ((t0 >> sh) as usize, (last_ns >> sh) as usize);
        if b0 == b1 {
            // Fast path: the span fits one column (the common case once
            // the grid has folded a few times), so no proration.
            let col = &mut self.cells[b0 * n..(b0 + 1) * n];
            for &link in links {
                if let Some(c) = col.get_mut(link as usize) {
                    *c += bytes;
                }
            }
            return;
        }
        // The per-column proration is identical for every link on the
        // path, so compute it once, then sweep column-by-column — each
        // column is one contiguous slice of the col-major grid.
        let dur = t1.saturating_sub(t0);
        let mut portions = [0u64; HEAT_COLS];
        let mut assigned = 0u64;
        for (slot, b) in portions[b0..=b1].iter_mut().zip(b0..) {
            let portion = if b == b1 || dur == 0 {
                bytes - assigned
            } else {
                let lo = ((b as u64) << sh).max(t0);
                let hi = (((b + 1) as u64) << sh).min(t1);
                ((bytes as u128 * (hi - lo) as u128) / dur as u128) as u64
            };
            *slot = portion;
            assigned += portion;
        }
        for (&portion, b) in portions[b0..=b1].iter().zip(b0..) {
            if portion == 0 {
                continue;
            }
            let col = &mut self.cells[b * n..(b + 1) * n];
            for &link in links {
                if let Some(c) = col.get_mut(link as usize) {
                    *c += portion;
                }
            }
        }
    }
}

/// The bounded-memory run summary a [`StreamRecorder`] produces:
/// exact totals, mergeable histograms, the link heatmap, and per-rank
/// accounting. Exported as dependency-free JSON by [`summary_json`] and
/// rendered human-readable by [`summary_report`].
#[derive(Debug)]
pub struct ObsSummary {
    /// Ranks in the job.
    pub nranks: u32,
    /// Latest rank completion (ns).
    pub makespan_ns: u64,
    /// Sends posted.
    pub msgs_posted: u64,
    /// Sends that took the eager path.
    pub eager_msgs: u64,
    /// Arrivals queued unexpected before their receive was posted.
    pub unexpected_matches: u64,
    /// Flows lost to injected faults.
    pub drops: u64,
    /// Reliability-layer relaunches.
    pub retransmits: u64,
    /// Payload bytes posted.
    pub bytes_posted: u64,
    /// Flows launched into the network.
    pub flow_starts: u64,
    /// Program handler dispatches.
    pub dispatches: u64,
    /// Protocol actions on rank CPUs.
    pub protocols: u64,
    /// High-water mark of in-flight messages held by the recorder.
    pub peak_open_msgs: u64,
    /// High-water mark of tracked network slots.
    pub peak_slots: u64,
    /// Launch→delivery duration per flow class, in [`FlowClass::ALL`]
    /// order.
    pub flow_dur: Vec<(FlowClass, Hist)>,
    /// Send posted → arrival matched (ns).
    pub posted_to_matched: Hist,
    /// Matched → payload delivered (ns; 0 when delivery preceded the
    /// match, i.e. unexpected arrivals).
    pub matched_to_delivered: Hist,
    /// Send posted → CTS back at the sender (rendezvous handshake, ns).
    pub rts_to_cts: Hist,
    /// Retransmits per message (one sample per settled message).
    pub retransmits_per_msg: Hist,
    /// Heatmap column width (ns).
    pub heat_bucket_ns: u64,
    /// Link labels (all links, indexed by link id).
    pub link_labels: Vec<String>,
    /// `(link id, HEAT_COLS byte counts)` for links that carried bytes.
    pub heat: Vec<(u32, Vec<u64>)>,
    /// Per-rank completion times (ns).
    pub finish_ns: Vec<u64>,
    /// Per-rank CPU busy time: dispatch + protocol spans (they tile the
    /// rank's busy horizon, so the sum is exact union time).
    pub busy_ns: Vec<u64>,
    /// Per-rank compute/GPU span time (may overlap CPU busy time).
    pub compute_ns: Vec<u64>,
    /// Per-rank injected OS-noise time (ns).
    pub noise_ns: Vec<u64>,
    /// Per-rank injected stall time (ns).
    pub stall_ns: Vec<u64>,
}

/// Aggregates the probe stream online; memory never grows with run
/// length. See the module docs for the contract.
#[derive(Default)]
pub struct StreamRecorder {
    nranks: u32,
    link_labels: Vec<String>,
    // Aggregates ---------------------------------------------------
    flow_dur: Vec<Hist>, // FlowClass::ALL order
    posted_to_matched: Hist,
    matched_to_delivered: Hist,
    rts_to_cts: Hist,
    retransmits_per_msg: Hist,
    heat: Heatmap,
    msgs_posted: u64,
    eager_msgs: u64,
    unexpected_matches: u64,
    drops: u64,
    retransmits: u64,
    bytes_posted: u64,
    flow_starts: u64,
    dispatches: u64,
    protocols: u64,
    busy_ns: Vec<u64>,
    compute_ns: Vec<u64>,
    noise_ns: Vec<u64>,
    stall_ns: Vec<u64>,
    // In-flight working set (bounded by concurrency, not run length) -
    open_msgs: FxHashMap<u64, OpenMsg>,
    slots: Vec<SlotState>,
    peak_open_msgs: u64,
    peak_slots: u64,
    // Output -------------------------------------------------------
    summary: Option<ObsSummary>,
}

impl StreamRecorder {
    /// A streaming recorder.
    pub fn new() -> StreamRecorder {
        StreamRecorder {
            flow_dur: vec![Hist::new(); FlowClass::ALL.len()],
            ..StreamRecorder::default()
        }
    }

    /// Current in-flight working-set size `(open messages, tracked
    /// slots)` — the only state that is not a fixed-size aggregate. The
    /// bounded-memory test pins this against a million-probe stream.
    pub fn resident_state(&self) -> (usize, usize) {
        (self.open_msgs.len(), self.slots.len())
    }
}

impl Recorder for StreamRecorder {
    fn enabled(&self) -> bool {
        true
    }

    // No gauge sampling: the heatmap is built from flow probes, so the
    // hot loop never pays the sampler.
    fn metrics_interval(&self) -> Option<u64> {
        None
    }

    fn meta(&mut self, nranks: u32, link_labels: Vec<String>) {
        self.nranks = nranks;
        // Steady-state in-flight windows are a few hundred messages;
        // reserving up front keeps rehashes off the probe path.
        self.open_msgs.reserve(1024);
        self.busy_ns = vec![0; nranks as usize];
        self.compute_ns = vec![0; nranks as usize];
        self.noise_ns = vec![0; nranks as usize];
        self.stall_ns = vec![0; nranks as usize];
        self.heat.init(link_labels.len());
        self.link_labels = link_labels;
    }

    fn rank_windows(&mut self, rank: u32, noise: Vec<(u64, u64)>, stalls: Vec<(u64, u64)>) {
        let r = rank as usize;
        if let Some(n) = self.noise_ns.get_mut(r) {
            *n = noise.iter().map(|(b, e)| e - b).sum();
        }
        if let Some(s) = self.stall_ns.get_mut(r) {
            *s = stalls.iter().map(|(b, e)| e - b).sum();
        }
    }

    #[inline]
    fn msg_posted(
        &mut self,
        msg: u64,
        _src: u32,
        _dst: u32,
        _tag: u32,
        bytes: u64,
        eager: bool,
        t_ns: u64,
    ) {
        self.msgs_posted += 1;
        self.bytes_posted += bytes;
        self.eager_msgs += eager as u64;
        self.open_msgs.insert(
            msg,
            OpenMsg {
                posted_ns: t_ns,
                ..OpenMsg::default()
            },
        );
        self.peak_open_msgs = self.peak_open_msgs.max(self.open_msgs.len() as u64);
    }

    #[inline]
    fn msg_event(&mut self, msg: u64, ev: MsgEvent, t_ns: u64) {
        match ev {
            MsgEvent::Dropped => self.drops += 1,
            MsgEvent::Retransmit => self.retransmits += 1,
            _ => {}
        }
        let Some(m) = self.open_msgs.get_mut(&msg) else {
            return; // already settled (or not a tracked posting)
        };
        match ev {
            MsgEvent::Matched { unexpected, .. } => {
                self.unexpected_matches += unexpected as u64;
                m.matched_ns = Some(t_ns);
                self.posted_to_matched
                    .record(t_ns.saturating_sub(m.posted_ns));
                if let Some(d) = m.delivered_ns {
                    // Delivery preceded the match: unexpected arrival.
                    self.matched_to_delivered.record(d.saturating_sub(t_ns));
                }
            }
            MsgEvent::Delivered => {
                m.delivered_ns = Some(t_ns);
                if let Some(mt) = m.matched_ns {
                    self.matched_to_delivered.record(t_ns.saturating_sub(mt));
                }
            }
            MsgEvent::CtsArrived => {
                self.rts_to_cts.record(t_ns.saturating_sub(m.posted_ns));
            }
            MsgEvent::RecvReady => m.recv_ready = true,
            MsgEvent::Retransmit => m.retransmits += 1,
            MsgEvent::Acked => m.acked = true,
            _ => {}
        }
        if m.settled() {
            // Nothing more can happen: evict, finalizing the aggregates.
            let retransmits = m.retransmits;
            self.open_msgs.remove(&msg);
            self.retransmits_per_msg.record(retransmits);
        }
    }

    #[inline]
    fn flow_start(&mut self, slot: u32, rec: FlowStart, links: &[u32]) {
        self.flow_starts += 1;
        let s = slot as usize;
        if self.slots.len() <= s {
            self.slots.resize(s + 1, SlotState::default());
            self.peak_slots = self.slots.len() as u64;
        }
        // Slots are reused, so refilling the existing link buffer keeps
        // the steady-state flow probe allocation-free.
        let state = &mut self.slots[s];
        state.class = rec.class;
        state.launch_ns = rec.t_ns;
        state.bytes = rec.bytes;
        state.links.clear();
        state.links.extend_from_slice(links);
        state.drained = false;
        state.live = true;
    }

    #[inline]
    fn flow_drained(&mut self, slot: u32, t_ns: u64) {
        let Some(s) = self.slots.get_mut(slot as usize).filter(|s| s.live) else {
            return;
        };
        s.drained = true;
        let (t0, bytes) = (s.launch_ns, s.bytes);
        // `heat` and `slots` are disjoint fields, so the span borrows the
        // slot's link list in place — no per-flow buffer shuffling.
        self.heat
            .add_span(&self.slots[slot as usize].links, t0, t_ns, bytes);
    }

    #[inline]
    fn flow_delivered(&mut self, slot: u32, t_ns: u64) {
        let Some(s) = self.slots.get_mut(slot as usize).filter(|s| s.live) else {
            return;
        };
        s.live = false;
        let (class, t0, drained, bytes) = (s.class, s.launch_ns, s.drained, s.bytes);
        if !drained {
            // Zero-byte control flows skip the drain step (no bytes, so
            // the heatmap ignores them anyway).
            self.heat
                .add_span(&self.slots[slot as usize].links, t0, t_ns, bytes);
        }
        self.flow_dur[class.index()].record(t_ns.saturating_sub(t0));
    }

    #[inline]
    fn dispatch(&mut self, rank: u32, begin_ns: u64, end_ns: u64, _trigger: Trigger) {
        self.dispatches += 1;
        if let Some(b) = self.busy_ns.get_mut(rank as usize) {
            *b += end_ns.saturating_sub(begin_ns);
        }
    }

    #[inline]
    fn protocol(&mut self, rank: u32, begin_ns: u64, end_ns: u64, _kind: ProtoKind, _msg: u64) {
        self.protocols += 1;
        if let Some(b) = self.busy_ns.get_mut(rank as usize) {
            *b += end_ns.saturating_sub(begin_ns);
        }
    }

    #[inline]
    fn compute(&mut self, rank: u32, _token: u64, begin_ns: u64, end_ns: u64, _gpu: bool) {
        if let Some(c) = self.compute_ns.get_mut(rank as usize) {
            *c += end_ns.saturating_sub(begin_ns);
        }
    }

    fn finish(&mut self, per_rank_finish_ns: &[u64]) -> Option<ObsData> {
        // Flush messages still open at end of run (their retransmit
        // counts are final now). Histogram adds commute, so HashMap
        // iteration order cannot show in the result.
        let leftovers: Vec<u64> = self.open_msgs.values().map(|m| m.retransmits).collect();
        for r in leftovers {
            self.retransmits_per_msg.record(r);
        }
        self.open_msgs.clear();
        let nlinks = self.heat.nlinks;
        let heat: Vec<(u32, Vec<u64>)> = (0..nlinks)
            .filter_map(|l| {
                let row: Vec<u64> = (0..HEAT_COLS)
                    .map(|c| self.heat.cells[c * nlinks + l])
                    .collect();
                row.iter().any(|&c| c > 0).then_some((l as u32, row))
            })
            .collect();
        self.summary = Some(ObsSummary {
            nranks: self.nranks,
            makespan_ns: per_rank_finish_ns.iter().copied().max().unwrap_or(0),
            msgs_posted: self.msgs_posted,
            eager_msgs: self.eager_msgs,
            unexpected_matches: self.unexpected_matches,
            drops: self.drops,
            retransmits: self.retransmits,
            bytes_posted: self.bytes_posted,
            flow_starts: self.flow_starts,
            dispatches: self.dispatches,
            protocols: self.protocols,
            peak_open_msgs: self.peak_open_msgs,
            peak_slots: self.peak_slots,
            flow_dur: FlowClass::ALL
                .iter()
                .zip(self.flow_dur.drain(..))
                .map(|(c, h)| (*c, h))
                .collect(),
            posted_to_matched: std::mem::take(&mut self.posted_to_matched),
            matched_to_delivered: std::mem::take(&mut self.matched_to_delivered),
            rts_to_cts: std::mem::take(&mut self.rts_to_cts),
            retransmits_per_msg: std::mem::take(&mut self.retransmits_per_msg),
            heat_bucket_ns: self.heat.width_ns(),
            link_labels: std::mem::take(&mut self.link_labels),
            heat,
            finish_ns: per_rank_finish_ns.to_vec(),
            busy_ns: std::mem::take(&mut self.busy_ns),
            compute_ns: std::mem::take(&mut self.compute_ns),
            noise_ns: std::mem::take(&mut self.noise_ns),
            stall_ns: std::mem::take(&mut self.stall_ns),
        });
        None
    }

    fn finish_summary(&mut self) -> Option<ObsSummary> {
        self.summary.take()
    }
}

// ---------------------------------------------------------------------
// JSON export
// ---------------------------------------------------------------------

fn hist_json(out: &mut String, h: &Hist) {
    out.push('{');
    write!(out, "\"count\":{},\"sum\":{}", h.count(), h.sum()).unwrap();
    if let (Some(min), Some(max)) = (h.min(), h.max()) {
        write!(out, ",\"min\":{min},\"max\":{max}").unwrap();
    }
    out.push_str(",\"buckets\":[");
    for (i, (low, c)) in h.nonzero_buckets().enumerate() {
        if i > 0 {
            out.push(',');
        }
        write!(out, "[{low},{c}]").unwrap();
    }
    out.push_str("]}");
}

fn u64s_json(out: &mut String, vs: &[u64]) {
    out.push('[');
    for (i, v) in vs.iter().enumerate() {
        if i > 0 {
            out.push(',');
        }
        write!(out, "{v}").unwrap();
    }
    out.push(']');
}

/// Serialize a summary as dependency-free JSON (format
/// [`SUMMARY_FORMAT`]). Key order and number formatting are fixed, so
/// identical summaries serialize byte-identically.
pub fn summary_json(s: &ObsSummary) -> String {
    let mut out = String::with_capacity(4096 + 16 * s.nranks as usize);
    write!(
        out,
        "{{\"format\": \"{SUMMARY_FORMAT}\",\n\"nranks\": {},\n\"makespan_ns\": {},\n",
        s.nranks, s.makespan_ns
    )
    .unwrap();
    writeln!(
        out,
        "\"totals\": {{\"msgs\":{},\"eager_msgs\":{},\"unexpected_matches\":{},\
         \"drops\":{},\"retransmits\":{},\"bytes_posted\":{},\"flow_starts\":{},\
         \"dispatches\":{},\"protocols\":{},\"peak_open_msgs\":{},\"peak_slots\":{}}},",
        s.msgs_posted,
        s.eager_msgs,
        s.unexpected_matches,
        s.drops,
        s.retransmits,
        s.bytes_posted,
        s.flow_starts,
        s.dispatches,
        s.protocols,
        s.peak_open_msgs,
        s.peak_slots,
    )
    .unwrap();
    out.push_str("\"flow_dur\": [");
    let mut first = true;
    for (class, h) in &s.flow_dur {
        if h.count() == 0 {
            continue; // absent classes emit no entries
        }
        if !first {
            out.push(',');
        }
        first = false;
        write!(out, "\n{{\"class\": \"{}\", \"hist\": ", class.label()).unwrap();
        hist_json(&mut out, h);
        out.push('}');
    }
    out.push_str("],\n\"stages\": {");
    for (i, (name, h)) in [
        ("posted_to_matched", &s.posted_to_matched),
        ("matched_to_delivered", &s.matched_to_delivered),
        ("rts_to_cts", &s.rts_to_cts),
        ("retransmits_per_msg", &s.retransmits_per_msg),
    ]
    .into_iter()
    .enumerate()
    {
        if i > 0 {
            out.push(',');
        }
        write!(out, "\n\"{name}\": ").unwrap();
        hist_json(&mut out, h);
    }
    write!(
        out,
        "}},\n\"heat\": {{\"bucket_ns\": {}, \"cols\": {HEAT_COLS}, \"links\": [",
        s.heat_bucket_ns
    )
    .unwrap();
    for (i, (link, cells)) in s.heat.iter().enumerate() {
        if i > 0 {
            out.push(',');
        }
        let label = s
            .link_labels
            .get(*link as usize)
            .map(String::as_str)
            .unwrap_or("link");
        write!(
            out,
            "\n{{\"link\": {link}, \"label\": \"{}\", \"cells\": [",
            crate::chrome::esc(label)
        )
        .unwrap();
        // Sparse: only non-zero columns, as [col, bytes] pairs.
        let mut cfirst = true;
        for (col, &v) in cells.iter().enumerate() {
            if v == 0 {
                continue;
            }
            if !cfirst {
                out.push(',');
            }
            cfirst = false;
            write!(out, "[{col},{v}]").unwrap();
        }
        out.push_str("]}");
    }
    out.push_str("]},\n\"ranks\": {");
    for (i, (name, vs)) in [
        ("finish_ns", &s.finish_ns),
        ("busy_ns", &s.busy_ns),
        ("compute_ns", &s.compute_ns),
        ("noise_ns", &s.noise_ns),
        ("stall_ns", &s.stall_ns),
    ]
    .into_iter()
    .enumerate()
    {
        if i > 0 {
            out.push(',');
        }
        write!(out, "\n\"{name}\": ").unwrap();
        u64s_json(&mut out, vs);
    }
    out.push_str("}\n}\n");
    out
}

// ---------------------------------------------------------------------
// Human-readable report
// ---------------------------------------------------------------------

fn hist_row(out: &mut String, name: &str, h: &Hist) {
    let p = |q| h.percentile(q).unwrap_or(0);
    writeln!(
        out,
        "    {name:<22} {:>10} {:>12} {:>12} {:>12} {:>12}",
        h.count(),
        p(50.0),
        p(90.0),
        p(99.0),
        h.max().unwrap_or(0),
    )
    .unwrap();
}

fn fmt_bytes(b: u64) -> String {
    match b {
        0..=1023 => format!("{b} B"),
        _ if b < 1 << 20 => format!("{:.1} KiB", b as f64 / 1024.0),
        _ if b < 1 << 30 => format!("{:.1} MiB", b as f64 / (1 << 20) as f64),
        _ => format!("{:.1} GiB", b as f64 / (1 << 30) as f64),
    }
}

/// Render a summary as a human-readable report: exact totals, tail
/// percentile tables (via the shared nearest-rank util), and the top-k
/// link hot-spot map.
pub fn summary_report(s: &ObsSummary) -> String {
    let mut out = String::with_capacity(2048);
    writeln!(out, "streaming telemetry summary").unwrap();
    writeln!(
        out,
        "  ranks {}  makespan {}.{:03} us",
        s.nranks,
        s.makespan_ns / 1000,
        s.makespan_ns % 1000
    )
    .unwrap();
    writeln!(
        out,
        "  msgs {} ({} eager, {} unexpected)  bytes {}  drops {}  retransmits {}",
        s.msgs_posted,
        s.eager_msgs,
        s.unexpected_matches,
        fmt_bytes(s.bytes_posted),
        s.drops,
        s.retransmits
    )
    .unwrap();
    writeln!(
        out,
        "  flows {}  dispatches {}  protocols {}  (recorder peak: {} open msgs, {} slots)",
        s.flow_starts, s.dispatches, s.protocols, s.peak_open_msgs, s.peak_slots
    )
    .unwrap();

    let header = format!(
        "    {:<22} {:>10} {:>12} {:>12} {:>12} {:>12}",
        "", "count", "p50", "p90", "p99", "max"
    );
    writeln!(out, "\n  stage latencies (ns)\n{header}").unwrap();
    hist_row(&mut out, "posted->matched", &s.posted_to_matched);
    hist_row(&mut out, "matched->delivered", &s.matched_to_delivered);
    hist_row(&mut out, "rts->cts", &s.rts_to_cts);
    hist_row(&mut out, "retransmits/msg", &s.retransmits_per_msg);

    writeln!(out, "\n  flow durations (ns)\n{header}").unwrap();
    for (class, h) in &s.flow_dur {
        if h.count() > 0 {
            hist_row(&mut out, class.label(), h);
        }
    }

    // Top-k hot links by total bytes (ties broken by link id: stable).
    let mut totals: Vec<(u64, u32, &[u64])> = s
        .heat
        .iter()
        .map(|(l, cells)| (cells.iter().sum::<u64>(), *l, cells.as_slice()))
        .collect();
    totals.sort_by(|a, b| b.0.cmp(&a.0).then(a.1.cmp(&b.1)));
    let k = totals.len().min(5);
    writeln!(
        out,
        "\n  link hot spots (top {k} of {} by bytes; column {} ns)",
        totals.len(),
        s.heat_bucket_ns
    )
    .unwrap();
    for &(total, link, cells) in totals.iter().take(k) {
        let (peak_col, peak) = cells
            .iter()
            .enumerate()
            .max_by(|a, b| a.1.cmp(b.1).then(b.0.cmp(&a.0)))
            .map(|(c, &v)| (c, v))
            .unwrap_or((0, 0));
        // Resolve the raw class label to a topology name so the hot-spot
        // table reads "node3/nic-tx", not "NicTx(3)".
        let label = crate::topo_label(
            s.link_labels
                .get(link as usize)
                .map(String::as_str)
                .unwrap_or("link"),
        );
        writeln!(
            out,
            "    L{link:<4} {label:<18} {:>10}   peak {:>10} @ col {peak_col}",
            fmt_bytes(total),
            fmt_bytes(peak),
        )
        .unwrap();
    }

    // Rank busy/idle: exact per-rank numbers through the shared
    // nearest-rank percentile (sorted copies; O(ranks) memory).
    let mut busy = s.busy_ns.clone();
    busy.sort_unstable();
    let p = |q| percentile(&busy, q).unwrap_or(0);
    let idle: Vec<u64> = s
        .busy_ns
        .iter()
        .map(|&b| s.makespan_ns.saturating_sub(b))
        .collect();
    let mean_idle = if idle.is_empty() {
        0
    } else {
        idle.iter().sum::<u64>() / idle.len() as u64
    };
    writeln!(
        out,
        "\n  rank busy (ns): min {}  p50 {}  p99 {}  max {}   mean idle {}",
        busy.first().copied().unwrap_or(0),
        p(50.0),
        p(99.0),
        busy.last().copied().unwrap_or(0),
        mean_idle
    )
    .unwrap();
    out
}

#[cfg(test)]
mod tests {
    use super::*;

    fn probe_msg(r: &mut StreamRecorder, id: u64, t: u64) {
        r.msg_posted(id, 0, 1, 9, 4096, true, t);
        r.msg_event(id, MsgEvent::Delivered, t + 50);
        r.msg_event(
            id,
            MsgEvent::Matched {
                posted_ns: Some(t),
                unexpected: false,
            },
            t + 50,
        );
        r.msg_event(id, MsgEvent::RecvReady, t + 60);
    }

    fn flow(class: FlowClass, bytes: u64, t: u64) -> FlowStart {
        FlowStart {
            class,
            msg: None,
            rank: 0,
            token: 0,
            bytes,
            t_ns: t,
        }
    }

    #[test]
    fn million_probes_leave_only_aggregate_state() {
        let mut r = StreamRecorder::new();
        r.meta(8, (0..4).map(|l| format!("L{l}")).collect());
        // A rolling in-flight window of 32 messages and 4 flow slots,
        // one million probes total: resident state must track the
        // window, never the probe count.
        const N: u64 = 250_000; // 4 probes per message
        for i in 0..N {
            probe_msg(&mut r, i, i * 100);
            let slot = (i % 4) as u32;
            r.flow_start(
                slot,
                flow(FlowClass::Eager, 4096, i * 100),
                &[(i % 4) as u32],
            );
            r.flow_drained(slot, i * 100 + 40);
            r.flow_delivered(slot, i * 100 + 50);
            r.dispatch((i % 8) as u32, i * 100, i * 100 + 10, Trigger::Start);
        }
        let (open, slots) = r.resident_state();
        assert_eq!(open, 0, "settled messages must be evicted");
        assert!(slots <= 4, "slots track peak concurrency, got {slots}");
        r.finish(&[N * 100; 8]);
        let s = r.finish_summary().expect("summary");
        assert_eq!(s.msgs_posted, N);
        assert_eq!(s.flow_starts, N);
        assert_eq!(s.dispatches, N);
        assert!(s.peak_open_msgs <= 2, "got {}", s.peak_open_msgs);
        assert_eq!(s.peak_slots, 4);
        assert_eq!(s.flow_dur[FlowClass::Eager.index()].1.count(), N);
        assert_eq!(s.posted_to_matched.count(), N);
        // 4096 B per flow, spread over 4 links' heat rows.
        let heat_total: u64 = s.heat.iter().flat_map(|(_, c)| c.iter()).sum();
        assert_eq!(heat_total, N * 4096);
        assert_eq!(s.busy_ns.iter().sum::<u64>(), N * 10);
    }

    #[test]
    fn stage_latencies_follow_the_lifecycle() {
        let mut r = StreamRecorder::new();
        r.meta(2, vec!["L0".into()]);
        // Rendezvous: posted 100, CTS back 300, delivered 700, matched 150.
        r.msg_posted(7, 0, 1, 1, 1 << 20, false, 100);
        r.msg_event(
            7,
            MsgEvent::Matched {
                posted_ns: Some(90),
                unexpected: false,
            },
            150,
        );
        r.msg_event(7, MsgEvent::CtsArrived, 300);
        r.msg_event(7, MsgEvent::Delivered, 700);
        r.msg_event(7, MsgEvent::RecvReady, 710);
        r.finish(&[1000, 1000]);
        let s = r.finish_summary().unwrap();
        assert_eq!(s.posted_to_matched.max(), Some(50));
        assert_eq!(s.rts_to_cts.max(), Some(200));
        assert_eq!(s.matched_to_delivered.max(), Some(550));
        assert_eq!(s.retransmits_per_msg.count(), 1);
        assert_eq!(s.retransmits_per_msg.max(), Some(0));
    }

    #[test]
    fn retransmitted_messages_settle_on_ack() {
        let mut r = StreamRecorder::new();
        r.meta(2, vec![]);
        r.msg_posted(0, 0, 1, 0, 64, true, 0);
        r.msg_event(0, MsgEvent::Dropped, 10);
        r.msg_event(0, MsgEvent::Retransmit, 60);
        r.msg_event(0, MsgEvent::Delivered, 90);
        r.msg_event(
            0,
            MsgEvent::Matched {
                posted_ns: None,
                unexpected: false,
            },
            90,
        );
        r.msg_event(0, MsgEvent::RecvReady, 95);
        assert_eq!(r.resident_state().0, 1, "held until the ack");
        r.msg_event(0, MsgEvent::Acked, 120);
        assert_eq!(r.resident_state().0, 0);
        r.finish(&[200, 200]);
        let s = r.finish_summary().unwrap();
        assert_eq!((s.drops, s.retransmits), (1, 1));
        assert_eq!(s.retransmits_per_msg.max(), Some(1));
    }

    #[test]
    fn heatmap_folds_instead_of_growing() {
        let mut h = Heatmap::default();
        h.init(1);
        // One span per millisecond for 1000 ms: far beyond the initial
        // 64 × 1024 ns grid.
        for i in 0..1000u64 {
            h.add_span(&[0], i * 1_000_000, i * 1_000_000 + 500_000, 1000);
        }
        assert_eq!(h.cells.len(), HEAT_COLS);
        assert_eq!(h.cells.iter().sum::<u64>(), 1_000_000);
        assert!(h.width_ns() >= 1_000_000_000 / HEAT_COLS as u64);
        assert!(h.width_ns().is_power_of_two());
    }

    #[test]
    fn heat_fold_on_the_exact_column_boundary_conserves_bytes() {
        // A run whose length lands exactly on a power-of-two column
        // boundary: fill every column of the initial 64 × 1024 ns grid
        // across two links, then land one span exactly at t = 64 × 1024
        // (first ns past the grid) to force a single pairwise fold.
        let mut h = Heatmap::default();
        h.init(2);
        let grid_ns = HEAT_COLS as u64 * HEAT_BASE_NS;
        for c in 0..HEAT_COLS as u64 {
            h.add_span(&[0], c * HEAT_BASE_NS, c * HEAT_BASE_NS + 1, 10);
            h.add_span(&[1], c * HEAT_BASE_NS, c * HEAT_BASE_NS + 1, 3);
        }
        let before: u64 = h.cells.iter().sum();
        assert_eq!(before, HEAT_COLS as u64 * 13);
        let shift_before = h.shift;

        h.add_span(&[0, 1], grid_ns, grid_ns + 1, 7);

        // Exactly one fold: column width doubled, the grid stayed fixed
        // size, and the folded-out half is zero except the new span's
        // landing column.
        assert_eq!(h.shift, shift_before + 1);
        assert_eq!(h.cells.len(), 2 * HEAT_COLS);
        assert_eq!(
            h.cells.iter().sum::<u64>(),
            before + 14,
            "pairwise fold must conserve per-link byte totals"
        );
        // Per-link conservation, not just the grand total: link 0 rows
        // sum to 64×10 + 7, link 1 rows to 64×3 + 7.
        let link_total = |l: usize| (0..HEAT_COLS).map(|c| h.cells[c * 2 + l]).sum::<u64>();
        assert_eq!(link_total(0), HEAT_COLS as u64 * 10 + 7);
        assert_eq!(link_total(1), HEAT_COLS as u64 * 3 + 7);
        // The fold halved the populated region: the old 64 columns now
        // occupy the first 32, and the boundary span sits at column 32.
        for l in 0..2 {
            assert_eq!(h.cells[32 * 2 + l], 7, "boundary span lands at col 32");
            for c in 33..HEAT_COLS {
                assert_eq!(h.cells[c * 2 + l], 0, "tail must be zeroed (col {c})");
            }
        }
    }

    #[test]
    fn heat_proration_is_exact_per_flow() {
        let mut h = Heatmap::default();
        h.init(1);
        // Spans straddling column boundaries keep exact byte totals.
        h.add_span(&[0], 100, 5000, 7777);
        h.add_span(&[0], 0, 1, 13);
        assert_eq!(h.cells.iter().sum::<u64>(), 7790);
    }

    #[test]
    fn summary_json_is_stable_and_validates() {
        let mut r = StreamRecorder::new();
        r.meta(2, vec!["NicTx(0)".into(), "NicTx(1)".into()]);
        probe_msg(&mut r, 0, 100);
        r.flow_start(0, flow(FlowClass::Eager, 4096, 100), &[1]);
        r.flow_drained(0, 140);
        r.flow_delivered(0, 150);
        r.finish(&[150, 160]);
        let s = r.finish_summary().unwrap();
        let json = summary_json(&s);
        assert!(json.starts_with("{\"format\": \"adapt-obs-summary-v1\""));
        let chk = crate::validate::validate_summary(&json).expect("valid");
        assert_eq!(chk.msgs, 1);
        assert_eq!(chk.hot_links, 1);
        // Absent flow classes emit no entries.
        assert!(!json.contains("\"class\": \"rndv\""));
        let report = summary_report(&s);
        assert!(report.contains("posted->matched"), "{report}");
        assert!(report.contains("L1"), "{report}");
    }
}
