//! Self-contained validation of the exported artifacts, used by the
//! test suite and the `obs-validate` binary (and CI).
//!
//! Ships its own minimal recursive-descent JSON parser so the check is
//! a real parse, not a regex, while keeping the crate dependency-free.
//! [`validate_chrome`] then checks trace semantics: the document shape,
//! that every complete (`"X"`) span on a track nests or tiles without
//! partial overlap, and that async `"b"`/`"e"` events pair up.

use std::collections::HashMap;

/// A parsed JSON value.
#[derive(Clone, Debug, PartialEq)]
pub enum Json {
    /// `null`
    Null,
    /// `true` / `false`
    Bool(bool),
    /// Any number (parsed as `f64`).
    Num(f64),
    /// A string.
    Str(String),
    /// An array.
    Arr(Vec<Json>),
    /// An object, in source order.
    Obj(Vec<(String, Json)>),
}

impl Json {
    /// Look up a key in an object.
    pub fn get(&self, key: &str) -> Option<&Json> {
        match self {
            Json::Obj(pairs) => pairs.iter().find(|(k, _)| k == key).map(|(_, v)| v),
            _ => None,
        }
    }

    /// The value as a number, if it is one.
    pub fn as_num(&self) -> Option<f64> {
        match self {
            Json::Num(n) => Some(*n),
            _ => None,
        }
    }

    /// The value as a string, if it is one.
    pub fn as_str(&self) -> Option<&str> {
        match self {
            Json::Str(s) => Some(s),
            _ => None,
        }
    }

    /// The value as an array, if it is one.
    pub fn as_arr(&self) -> Option<&[Json]> {
        match self {
            Json::Arr(items) => Some(items),
            _ => None,
        }
    }
}

struct Parser<'a> {
    bytes: &'a [u8],
    pos: usize,
}

impl<'a> Parser<'a> {
    fn err<T>(&self, what: &str) -> Result<T, String> {
        Err(format!("json parse error at byte {}: {}", self.pos, what))
    }

    fn skip_ws(&mut self) {
        while let Some(&b) = self.bytes.get(self.pos) {
            if b == b' ' || b == b'\t' || b == b'\n' || b == b'\r' {
                self.pos += 1;
            } else {
                break;
            }
        }
    }

    fn peek(&self) -> Option<u8> {
        self.bytes.get(self.pos).copied()
    }

    fn expect(&mut self, b: u8) -> Result<(), String> {
        if self.peek() == Some(b) {
            self.pos += 1;
            Ok(())
        } else {
            self.err(&format!("expected '{}'", b as char))
        }
    }

    fn value(&mut self) -> Result<Json, String> {
        self.skip_ws();
        match self.peek() {
            Some(b'{') => self.object(),
            Some(b'[') => self.array(),
            Some(b'"') => Ok(Json::Str(self.string()?)),
            Some(b't') => self.literal("true", Json::Bool(true)),
            Some(b'f') => self.literal("false", Json::Bool(false)),
            Some(b'n') => self.literal("null", Json::Null),
            Some(b) if b == b'-' || b.is_ascii_digit() => self.number(),
            _ => self.err("expected a value"),
        }
    }

    fn literal(&mut self, lit: &str, val: Json) -> Result<Json, String> {
        if self.bytes[self.pos..].starts_with(lit.as_bytes()) {
            self.pos += lit.len();
            Ok(val)
        } else {
            self.err(&format!("expected '{lit}'"))
        }
    }

    fn number(&mut self) -> Result<Json, String> {
        let start = self.pos;
        if self.peek() == Some(b'-') {
            self.pos += 1;
        }
        while let Some(b) = self.peek() {
            if b.is_ascii_digit() || b == b'.' || b == b'e' || b == b'E' || b == b'+' || b == b'-' {
                self.pos += 1;
            } else {
                break;
            }
        }
        let text = std::str::from_utf8(&self.bytes[start..self.pos]).unwrap_or("");
        text.parse::<f64>()
            .map(Json::Num)
            .or_else(|_| self.err("bad number"))
    }

    fn string(&mut self) -> Result<String, String> {
        self.expect(b'"')?;
        let mut out = String::new();
        loop {
            match self.peek() {
                None => return self.err("unterminated string"),
                Some(b'"') => {
                    self.pos += 1;
                    return Ok(out);
                }
                Some(b'\\') => {
                    self.pos += 1;
                    match self.peek() {
                        Some(b'"') => out.push('"'),
                        Some(b'\\') => out.push('\\'),
                        Some(b'/') => out.push('/'),
                        Some(b'n') => out.push('\n'),
                        Some(b't') => out.push('\t'),
                        Some(b'r') => out.push('\r'),
                        Some(b'b') => out.push('\u{8}'),
                        Some(b'f') => out.push('\u{c}'),
                        Some(b'u') => {
                            let hex = self
                                .bytes
                                .get(self.pos + 1..self.pos + 5)
                                .and_then(|h| std::str::from_utf8(h).ok())
                                .and_then(|h| u32::from_str_radix(h, 16).ok());
                            match hex.and_then(char::from_u32) {
                                Some(c) => {
                                    out.push(c);
                                    self.pos += 4;
                                }
                                None => return self.err("bad \\u escape"),
                            }
                        }
                        _ => return self.err("bad escape"),
                    }
                    self.pos += 1;
                }
                Some(b) if b < 0x80 => {
                    out.push(b as char);
                    self.pos += 1;
                }
                Some(b) => {
                    // Consume one multi-byte UTF-8 scalar (at most 4 bytes —
                    // never re-validate the whole remaining input).
                    let len = match b {
                        0xC0..=0xDF => 2,
                        0xE0..=0xEF => 3,
                        0xF0..=0xF7 => 4,
                        _ => return self.err("invalid utf-8 in string"),
                    };
                    let chunk = self
                        .bytes
                        .get(self.pos..self.pos + len)
                        .and_then(|c| std::str::from_utf8(c).ok())
                        .ok_or_else(|| {
                            format!("json parse error at byte {}: invalid utf-8", self.pos)
                        })?;
                    out.push_str(chunk);
                    self.pos += len;
                }
            }
        }
    }

    fn array(&mut self) -> Result<Json, String> {
        self.expect(b'[')?;
        let mut items = Vec::new();
        self.skip_ws();
        if self.peek() == Some(b']') {
            self.pos += 1;
            return Ok(Json::Arr(items));
        }
        loop {
            items.push(self.value()?);
            self.skip_ws();
            match self.peek() {
                Some(b',') => {
                    self.pos += 1;
                }
                Some(b']') => {
                    self.pos += 1;
                    return Ok(Json::Arr(items));
                }
                _ => return self.err("expected ',' or ']'"),
            }
        }
    }

    fn object(&mut self) -> Result<Json, String> {
        self.expect(b'{')?;
        let mut pairs = Vec::new();
        self.skip_ws();
        if self.peek() == Some(b'}') {
            self.pos += 1;
            return Ok(Json::Obj(pairs));
        }
        loop {
            self.skip_ws();
            let key = self.string()?;
            self.skip_ws();
            self.expect(b':')?;
            let val = self.value()?;
            pairs.push((key, val));
            self.skip_ws();
            match self.peek() {
                Some(b',') => {
                    self.pos += 1;
                }
                Some(b'}') => {
                    self.pos += 1;
                    return Ok(Json::Obj(pairs));
                }
                _ => return self.err("expected ',' or '}'"),
            }
        }
    }
}

/// Parse a JSON document. The whole input must be one value (trailing
/// whitespace allowed).
pub fn parse_json(text: &str) -> Result<Json, String> {
    let mut p = Parser {
        bytes: text.as_bytes(),
        pos: 0,
    };
    let v = p.value()?;
    p.skip_ws();
    if p.pos != p.bytes.len() {
        return p.err("trailing garbage after document");
    }
    Ok(v)
}

/// What [`validate_chrome`] found in a well-formed trace.
#[derive(Clone, Copy, Debug, Default, PartialEq, Eq)]
pub struct ChromeSummary {
    /// Total events in `traceEvents`.
    pub events: usize,
    /// Complete (`"X"`) spans.
    pub complete_spans: usize,
    /// Paired async (`"b"`/`"e"`) spans.
    pub async_spans: usize,
    /// Counter (`"C"`) samples.
    pub counters: usize,
    /// Tracks (distinct `(pid, tid)` pairs carrying `"X"` spans).
    pub tracks: usize,
}

/// Nanoseconds from a trace timestamp in microseconds (exact: the
/// exporter always emits three decimals).
fn ev_ns(v: &Json, key: &str) -> Result<u64, String> {
    let n = v
        .get(key)
        .and_then(Json::as_num)
        .ok_or_else(|| format!("event missing numeric '{key}'"))?;
    if n < 0.0 {
        return Err(format!("negative '{key}'"));
    }
    Ok((n * 1000.0).round() as u64)
}

/// Parse and semantically validate a Chrome trace-event document.
///
/// Checks, beyond the parse itself:
/// * top level is an object with a `traceEvents` array of objects, each
///   carrying string `ph` and `name` and a numeric `pid`;
/// * `"X"` spans have `ts`/`dur`, and on every `(pid, tid)` track any
///   two spans either nest or are disjoint — partial overlap on a
///   serial track means broken instrumentation;
/// * every async `"b"` has a matching `"e"` (same `cat` + `id`) at an
///   equal-or-later timestamp, with no `"e"` left unmatched.
pub fn validate_chrome(text: &str) -> Result<ChromeSummary, String> {
    let doc = parse_json(text)?;
    let events = doc
        .get("traceEvents")
        .and_then(Json::as_arr)
        .ok_or("top level must be an object with a traceEvents array")?;

    let mut summary = ChromeSummary {
        events: events.len(),
        ..ChromeSummary::default()
    };
    // (pid, tid) -> [(begin_ns, end_ns)]
    let mut tracks: HashMap<(u64, u64), Vec<(u64, u64)>> = HashMap::new();
    // (cat, id) -> stack of open 'b' timestamps
    let mut open_async: HashMap<(String, String), Vec<u64>> = HashMap::new();

    for (i, ev) in events.iter().enumerate() {
        let at = |what: &str| format!("traceEvents[{i}]: {what}");
        let ph = ev
            .get("ph")
            .and_then(Json::as_str)
            .ok_or_else(|| at("missing string 'ph'"))?;
        ev.get("name")
            .and_then(Json::as_str)
            .ok_or_else(|| at("missing string 'name'"))?;
        let pid = ev
            .get("pid")
            .and_then(Json::as_num)
            .ok_or_else(|| at("missing numeric 'pid'"))? as u64;
        match ph {
            "X" => {
                let tid = ev
                    .get("tid")
                    .and_then(Json::as_num)
                    .ok_or_else(|| at("X event missing 'tid'"))? as u64;
                let ts = ev_ns(ev, "ts").map_err(|e| at(&e))?;
                let dur = ev_ns(ev, "dur").map_err(|e| at(&e))?;
                tracks.entry((pid, tid)).or_default().push((ts, ts + dur));
                summary.complete_spans += 1;
            }
            "b" | "e" | "n" => {
                let cat = ev
                    .get("cat")
                    .and_then(Json::as_str)
                    .ok_or_else(|| at("async event missing 'cat'"))?
                    .to_string();
                let id = ev
                    .get("id")
                    .and_then(Json::as_str)
                    .ok_or_else(|| at("async event missing 'id'"))?
                    .to_string();
                let ts = ev_ns(ev, "ts").map_err(|e| at(&e))?;
                match ph {
                    "b" => open_async.entry((cat, id)).or_default().push(ts),
                    "e" => {
                        let begin = open_async
                            .get_mut(&(cat.clone(), id.clone()))
                            .and_then(Vec::pop)
                            .ok_or_else(|| {
                                at(&format!("'e' for {cat}/{id} without an open 'b'"))
                            })?;
                        if ts < begin {
                            return Err(at(&format!(
                                "async span {cat}/{id} ends before it begins"
                            )));
                        }
                        summary.async_spans += 1;
                    }
                    // Instant inside an async span: must land inside one.
                    _ => {
                        if open_async
                            .get(&(cat.clone(), id.clone()))
                            .is_none_or(|stack| stack.is_empty())
                        {
                            return Err(at(&format!("'n' for {cat}/{id} outside an open span")));
                        }
                    }
                }
            }
            "C" => {
                ev_ns(ev, "ts").map_err(|e| at(&e))?;
                summary.counters += 1;
            }
            "M" => {}
            other => return Err(at(&format!("unsupported event phase '{other}'"))),
        }
    }

    for ((cat, id), stack) in &open_async {
        if !stack.is_empty() {
            return Err(format!(
                "async span {cat}/{id} has {} unclosed 'b'",
                stack.len()
            ));
        }
    }

    // Nesting discipline per serial track: sort by (start asc, end desc)
    // so a parent precedes the spans it contains, then sweep a
    // containment stack. A span overlapping the stack top without being
    // contained by it is a partial overlap.
    summary.tracks = tracks.len();
    for ((pid, tid), mut spans) in tracks {
        spans.sort_by(|a, b| a.0.cmp(&b.0).then(b.1.cmp(&a.1)));
        let mut stack: Vec<(u64, u64)> = Vec::new();
        for (b, e) in spans {
            while let Some(&(_, pe)) = stack.last() {
                if pe <= b {
                    stack.pop();
                } else {
                    break;
                }
            }
            if let Some(&(_, pe)) = stack.last() {
                if e > pe {
                    return Err(format!(
                        "track pid={pid} tid={tid}: span [{b},{e}) partially overlaps [.., {pe})"
                    ));
                }
            }
            stack.push((b, e));
        }
    }

    Ok(summary)
}

/// Validate the metrics CSV: header row plus `time_ns,metric,index,value`
/// records with numeric fields and non-decreasing timestamps. Returns the
/// number of data rows.
pub fn validate_metrics_csv(text: &str) -> Result<usize, String> {
    let mut lines = text.lines();
    let header = lines.next().ok_or("empty metrics file")?;
    if header != crate::metrics::CSV_HEADER {
        return Err(format!("bad header: {header:?}"));
    }
    let mut rows = 0usize;
    let mut last_t = 0u64;
    for (i, line) in lines.enumerate() {
        if line.is_empty() {
            continue;
        }
        let fields: Vec<&str> = line.split(',').collect();
        if fields.len() != 4 {
            return Err(format!(
                "row {}: expected 4 fields, got {}",
                i + 1,
                fields.len()
            ));
        }
        let t: u64 = fields[0]
            .parse()
            .map_err(|_| format!("row {}: bad time_ns {:?}", i + 1, fields[0]))?;
        if t < last_t {
            return Err(format!("row {}: time goes backwards", i + 1));
        }
        last_t = t;
        if fields[1].is_empty() {
            return Err(format!("row {}: empty metric name", i + 1));
        }
        fields[2]
            .parse::<u32>()
            .map_err(|_| format!("row {}: bad index {:?}", i + 1, fields[2]))?;
        fields[3]
            .parse::<f64>()
            .map_err(|_| format!("row {}: bad value {:?}", i + 1, fields[3]))?;
        rows += 1;
    }
    Ok(rows)
}

/// Validate a rendered critical-path report (see
/// [`CriticalPath::render`](crate::critical::CriticalPath::render)): the
/// layer-attribution percentages must sum to 100 within the per-line
/// rounding tolerance (each line prints one decimal place). Returns the
/// sum on success.
pub fn validate_critical_report(text: &str) -> Result<f64, String> {
    let mut in_attr = false;
    let mut sum = 0.0;
    let mut lines = 0usize;
    for line in text.lines() {
        if line.starts_with("layer attribution:") {
            in_attr = true;
            continue;
        }
        if !in_attr {
            continue;
        }
        // Attribution lines end with a percentage; the first line that
        // doesn't (the next section header) ends the block.
        let Some(pct) = line.trim_end().strip_suffix('%') else {
            break;
        };
        let tok = pct.rsplit(' ').next().unwrap_or("");
        sum += tok
            .parse::<f64>()
            .map_err(|_| format!("bad attribution line {line:?}"))?;
        lines += 1;
    }
    if lines == 0 {
        return Err("no layer-attribution lines found".into());
    }
    let tolerance = 0.05 * lines as f64 + 1e-9;
    if (sum - 100.0).abs() > tolerance {
        return Err(format!(
            "layer percentages sum to {sum:.2}%, not 100% (±{tolerance:.2})"
        ));
    }
    Ok(sum)
}

/// What [`validate_summary`] found in a well-formed streaming summary.
#[derive(Clone, Copy, Debug, Default, PartialEq, Eq)]
pub struct SummaryCheck {
    /// `totals.msgs`.
    pub msgs: u64,
    /// `totals.flow_starts`.
    pub flows: u64,
    /// Flow classes carrying at least one sample.
    pub classes: usize,
    /// Links with heatmap traffic.
    pub hot_links: usize,
    /// Ranks (length of every per-rank array).
    pub ranks: usize,
}

/// Non-negative integer field of a summary object.
fn sum_u64(v: &Json, key: &str) -> Result<u64, String> {
    let n = v
        .get(key)
        .and_then(Json::as_num)
        .ok_or_else(|| format!("missing numeric '{key}'"))?;
    if n < 0.0 || n != n.trunc() {
        return Err(format!("'{key}' must be a non-negative integer, got {n}"));
    }
    Ok(n as u64)
}

/// Check one serialized histogram: the exact counters must agree with
/// the sparse buckets (counts sum up; bounds ascending; min/max present
/// exactly when non-empty). Returns the sample count.
fn check_hist(v: &Json, what: &str) -> Result<u64, String> {
    let at = |e: String| format!("{what}: {e}");
    let count = sum_u64(v, "count").map_err(at)?;
    sum_u64(v, "sum").map_err(at)?;
    let buckets = v
        .get("buckets")
        .and_then(Json::as_arr)
        .ok_or_else(|| format!("{what}: missing 'buckets' array"))?;
    let mut total = 0u64;
    let mut prev_low: Option<u64> = None;
    for (i, b) in buckets.iter().enumerate() {
        let pair = b
            .as_arr()
            .filter(|p| p.len() == 2)
            .ok_or_else(|| format!("{what}: buckets[{i}] must be a [lower_bound, count] pair"))?;
        let low = pair[0].as_num().unwrap_or(-1.0);
        let c = pair[1].as_num().unwrap_or(0.0);
        if low < 0.0 || c <= 0.0 {
            return Err(format!("{what}: buckets[{i}] has bad values"));
        }
        if prev_low.is_some_and(|p| p >= low as u64) {
            return Err(format!("{what}: bucket bounds not ascending at [{i}]"));
        }
        prev_low = Some(low as u64);
        total += c as u64;
    }
    if total != count {
        return Err(format!(
            "{what}: bucket counts sum to {total}, 'count' says {count}"
        ));
    }
    match (count, v.get("min"), v.get("max")) {
        (0, None, None) => {}
        (0, _, _) => return Err(format!("{what}: empty histogram carries min/max")),
        (_, Some(min), Some(max)) => {
            let (min, max) = (min.as_num().unwrap_or(-1.0), max.as_num().unwrap_or(-1.0));
            if min < 0.0 || max < min {
                return Err(format!("{what}: bad min/max"));
            }
        }
        _ => return Err(format!("{what}: non-empty histogram missing min/max")),
    }
    Ok(count)
}

/// Parse and semantically validate a streaming summary JSON document
/// (format `adapt-obs-summary-v1`, produced by
/// [`summary_json`](crate::stream::summary_json)).
///
/// Checks, beyond the parse itself: the format tag; that every
/// histogram's sparse buckets agree with its exact `count`; that the
/// four stage histograms are present; that heatmap cells are in-range
/// `[column, bytes]` pairs; and that all five per-rank arrays have
/// exactly `nranks` entries.
pub fn validate_summary(text: &str) -> Result<SummaryCheck, String> {
    let doc = parse_json(text)?;
    let format = doc
        .get("format")
        .and_then(Json::as_str)
        .ok_or("missing 'format'")?;
    if format != crate::stream::SUMMARY_FORMAT {
        return Err(format!("unsupported summary format {format:?}"));
    }
    let nranks = sum_u64(&doc, "nranks")?;
    sum_u64(&doc, "makespan_ns")?;
    let totals = doc.get("totals").ok_or("missing 'totals'")?;
    for key in [
        "msgs",
        "eager_msgs",
        "unexpected_matches",
        "drops",
        "retransmits",
        "bytes_posted",
        "flow_starts",
        "dispatches",
        "protocols",
        "peak_open_msgs",
        "peak_slots",
    ] {
        sum_u64(totals, key).map_err(|e| format!("totals: {e}"))?;
    }
    let mut chk = SummaryCheck {
        msgs: sum_u64(totals, "msgs")?,
        flows: sum_u64(totals, "flow_starts")?,
        ranks: nranks as usize,
        ..SummaryCheck::default()
    };

    let classes = doc
        .get("flow_dur")
        .and_then(Json::as_arr)
        .ok_or("missing 'flow_dur' array")?;
    let known: Vec<&str> = crate::record::FlowClass::ALL
        .iter()
        .map(|c| c.label())
        .collect();
    for (i, entry) in classes.iter().enumerate() {
        let class = entry
            .get("class")
            .and_then(Json::as_str)
            .ok_or_else(|| format!("flow_dur[{i}]: missing 'class'"))?;
        if !known.contains(&class) {
            return Err(format!("flow_dur[{i}]: unknown class {class:?}"));
        }
        let h = entry
            .get("hist")
            .ok_or_else(|| format!("flow_dur[{i}]: missing 'hist'"))?;
        if check_hist(h, &format!("flow_dur[{i}] ({class})"))? == 0 {
            return Err(format!(
                "flow_dur[{i}] ({class}): empty classes must be omitted"
            ));
        }
        chk.classes += 1;
    }

    let stages = doc.get("stages").ok_or("missing 'stages'")?;
    for name in [
        "posted_to_matched",
        "matched_to_delivered",
        "rts_to_cts",
        "retransmits_per_msg",
    ] {
        let h = stages
            .get(name)
            .ok_or_else(|| format!("stages: missing '{name}'"))?;
        let count = check_hist(h, &format!("stages.{name}"))?;
        // Every stage sample came from a posted message; a stage count
        // above totals.msgs means the totals or a histogram is corrupt.
        // (The reverse is legal — a stalled run posts messages that
        // never reach later stages.)
        if count > chk.msgs {
            return Err(format!(
                "stages.{name}: count {count} exceeds totals.msgs {}",
                chk.msgs
            ));
        }
    }

    let heat = doc.get("heat").ok_or("missing 'heat'")?;
    sum_u64(heat, "bucket_ns")?;
    let cols = sum_u64(heat, "cols")?;
    let links = heat
        .get("links")
        .and_then(Json::as_arr)
        .ok_or("heat: missing 'links' array")?;
    for (i, l) in links.iter().enumerate() {
        sum_u64(l, "link").map_err(|e| format!("heat.links[{i}]: {e}"))?;
        l.get("label")
            .and_then(Json::as_str)
            .ok_or_else(|| format!("heat.links[{i}]: missing 'label'"))?;
        let cells = l
            .get("cells")
            .and_then(Json::as_arr)
            .ok_or_else(|| format!("heat.links[{i}]: missing 'cells'"))?;
        if cells.is_empty() {
            return Err(format!(
                "heat.links[{i}]: traffic-free links must be omitted"
            ));
        }
        for (j, c) in cells.iter().enumerate() {
            let pair = c.as_arr().filter(|p| p.len() == 2).ok_or_else(|| {
                format!("heat.links[{i}].cells[{j}] must be a [column, bytes] pair")
            })?;
            let col = pair[0].as_num().unwrap_or(-1.0);
            if col < 0.0 || col >= cols as f64 {
                return Err(format!("heat.links[{i}].cells[{j}]: column out of range"));
            }
        }
        chk.hot_links += 1;
    }

    let ranks = doc.get("ranks").ok_or("missing 'ranks'")?;
    for name in ["finish_ns", "busy_ns", "compute_ns", "noise_ns", "stall_ns"] {
        let arr = ranks
            .get(name)
            .and_then(Json::as_arr)
            .ok_or_else(|| format!("ranks: missing '{name}' array"))?;
        if arr.len() != nranks as usize {
            return Err(format!(
                "ranks.{name}: {} entries for {nranks} ranks",
                arr.len()
            ));
        }
        if arr.iter().any(|v| v.as_num().is_none_or(|n| n < 0.0)) {
            return Err(format!("ranks.{name}: non-numeric or negative entry"));
        }
    }
    Ok(chk)
}

/// What [`validate_health`] found in a well-formed health artifact.
#[derive(Clone, Copy, Debug, Default, PartialEq, Eq)]
pub struct HealthCheck {
    /// Snapshots taken.
    pub snapshots: u64,
    /// Total alerts across all kinds (`counts`, kept + dropped).
    pub alerts: u64,
    /// Alert records present in the `alerts` array.
    pub kept_alerts: usize,
    /// Ranks in the monitored job.
    pub ranks: u64,
}

/// Parse and semantically validate a health artifact (format
/// `adapt-obs-health-v1`, produced by
/// [`health_json`](crate::monitor::health_json)).
///
/// Checks, beyond the parse itself: the format tag; a positive snapshot
/// interval; that `counts` covers exactly the known alert kinds; that
/// every alert record carries a known kind, a timestamp within the
/// snapshotted range, and its subject label; that alert timestamps are
/// non-decreasing (the stream is an in-run timeline); and that the
/// per-kind counts equal the kept records plus `dropped_alerts`.
pub fn validate_health(text: &str) -> Result<HealthCheck, String> {
    let doc = parse_json(text)?;
    let format = doc
        .get("format")
        .and_then(Json::as_str)
        .ok_or("missing 'format'")?;
    if format != crate::monitor::HEALTH_FORMAT {
        return Err(format!("unsupported health format {format:?}"));
    }
    let interval = sum_u64(&doc, "interval_ns")?;
    if interval == 0 {
        return Err("'interval_ns' must be positive".into());
    }
    let nranks = sum_u64(&doc, "nranks")?;
    sum_u64(&doc, "nlinks")?;
    let snapshots = sum_u64(&doc, "snapshots")?;
    let last_t = sum_u64(&doc, "last_t_ns")?;

    let counts = doc.get("counts").ok_or("missing 'counts'")?;
    let known: Vec<&str> = crate::monitor::AlertKind::ALL
        .iter()
        .map(|k| k.label())
        .collect();
    let Json::Obj(pairs) = counts else {
        return Err("'counts' must be an object".into());
    };
    if pairs.len() != known.len() || pairs.iter().any(|(k, _)| !known.contains(&k.as_str())) {
        return Err(format!(
            "'counts' must carry exactly the known alert kinds {known:?}"
        ));
    }
    let mut total = 0u64;
    for kind in &known {
        total += sum_u64(counts, kind).map_err(|e| format!("counts: {e}"))?;
    }

    let alerts = doc
        .get("alerts")
        .and_then(Json::as_arr)
        .ok_or("missing 'alerts' array")?;
    let mut prev_t = 0u64;
    for (i, a) in alerts.iter().enumerate() {
        let kind = a
            .get("kind")
            .and_then(Json::as_str)
            .ok_or_else(|| format!("alerts[{i}]: missing 'kind'"))?;
        if !known.contains(&kind) {
            return Err(format!("alerts[{i}]: unknown kind {kind:?}"));
        }
        let t = sum_u64(a, "t_ns").map_err(|e| format!("alerts[{i}]: {e}"))?;
        if t < prev_t {
            return Err(format!("alerts[{i}]: timestamps must be non-decreasing"));
        }
        if t > last_t {
            return Err(format!(
                "alerts[{i}]: t_ns {t} beyond last snapshot {last_t}"
            ));
        }
        prev_t = t;
        let subject = sum_u64(a, "subject").map_err(|e| format!("alerts[{i}]: {e}"))?;
        if kind == "straggler" && subject >= nranks {
            return Err(format!(
                "alerts[{i}]: straggler rank {subject} out of range"
            ));
        }
        if a.get("label").and_then(Json::as_str).is_none() {
            return Err(format!("alerts[{i}]: missing 'label'"));
        }
        sum_u64(a, "value").map_err(|e| format!("alerts[{i}]: {e}"))?;
        sum_u64(a, "threshold").map_err(|e| format!("alerts[{i}]: {e}"))?;
    }

    let dropped = sum_u64(&doc, "dropped_alerts")?;
    if alerts.len() as u64 + dropped != total {
        return Err(format!(
            "counts sum to {total}, but {} kept + {dropped} dropped alerts",
            alerts.len()
        ));
    }
    if snapshots == 0 && total > 0 {
        return Err("alerts recorded with zero snapshots".into());
    }
    Ok(HealthCheck {
        snapshots,
        alerts: total,
        kept_alerts: alerts.len(),
        ranks: nranks,
    })
}

/// What [`validate_recording`] found in a causally complete recording.
#[derive(Clone, Copy, Debug, Default, PartialEq, Eq)]
pub struct RecordingCheck {
    /// Ranks in the recorded job.
    pub ranks: u32,
    /// Messages, each with its protocol flows.
    pub msgs: usize,
    /// Network flows.
    pub flows: usize,
    /// Handler dispatches, each with its recorded cause.
    pub dispatches: usize,
}

/// Which flow classes of one message a recording holds, and whether a
/// payload (eager or rendezvous) flow drained and was delivered.
#[derive(Clone, Copy, Default)]
struct MsgFlows {
    classes: [bool; crate::record::FlowClass::ALL.len()],
    drained: bool,
    delivered: bool,
}

/// Check that a full recording (`adapt-obs-v1`, see
/// [`from_json`](crate::from_json)) holds the run's whole causal
/// structure. Every message has its protocol flows (eager, or RTS, CTS
/// and payload), and every dispatch but `Start` has its recorded cause:
///
/// * `SendDone(m)`: a drained payload flow of m, or m is zero-byte;
/// * `RecvDone(m)`: a delivered payload flow of m, or the
///   unexpected-eager copy-out (`recv_ready`) of m;
/// * `ComputeDone`/`GpuDone(token)`: a compute span with that token on
///   the dispatch's rank;
/// * `CopyDone(token)`: a copy flow with that token from that rank.
///
/// A message its receiver never got (no `recv_ready`) can only come from
/// a run with killed ranks: its protocol stops where the failure cut it,
/// and the failure detector completes its send in error, so neither rule
/// applies to it.
///
/// The critical-path walk fills a missing cause with `Blocked` time, so
/// it cannot tell an incomplete recording from waiting; this check can.
pub fn validate_recording(data: &crate::ObsData) -> Result<RecordingCheck, String> {
    use crate::record::{FlowClass, Trigger};
    use std::collections::HashSet;

    let mut msgs = vec![MsgFlows::default(); data.msgs.len()];
    let mut copies: HashSet<(u32, u64)> = HashSet::new();
    for (i, f) in data.flows.iter().enumerate() {
        match f.class {
            FlowClass::Copy => {
                copies.insert((f.rank, f.token));
            }
            FlowClass::Ack => {}
            class => {
                let seen = f
                    .msg
                    .and_then(|m| msgs.get_mut(m as usize))
                    .ok_or_else(|| {
                        format!("flow {i}: {} flow of no known message", class.label())
                    })?;
                seen.classes[class.index()] = true;
                if matches!(class, FlowClass::Eager | FlowClass::Rndv) {
                    seen.drained |= f.drained_ns.is_some();
                    seen.delivered |= f.delivered_ns.is_some();
                }
            }
        }
    }
    let computes: HashSet<(u32, u64)> = data.computes.iter().map(|c| (c.rank, c.token)).collect();
    let msg = |m: u64| data.msgs.get(m as usize).zip(msgs.get(m as usize));
    for (i, d) in data.dispatches.iter().enumerate() {
        let (found, want) = match d.trigger {
            Trigger::Start => continue,
            Trigger::SendDone { msg: m } => (
                msg(m).is_some_and(|(rec, seen)| {
                    rec.bytes == 0 || seen.drained || rec.recv_ready_ns.is_none()
                }),
                format!("a drained payload flow of m{m}"),
            ),
            Trigger::RecvDone { msg: m } => (
                msg(m).is_some_and(|(rec, seen)| {
                    seen.delivered || (rec.unexpected && rec.eager && rec.recv_ready_ns.is_some())
                }),
                format!("a delivered payload flow or an unexpected copy-out of m{m}"),
            ),
            Trigger::ComputeDone { token } | Trigger::GpuDone { token } => (
                computes.contains(&(d.rank, token)),
                format!("a compute span with token {token}"),
            ),
            Trigger::CopyDone { token } => (
                copies.contains(&(d.rank, token)),
                format!("a copy flow with token {token}"),
            ),
        };
        if !found {
            return Err(format!(
                "dispatch {i} ({} on rank {} at {} ns) has no recorded cause: want {want}",
                d.trigger.label(),
                d.rank,
                d.begin_ns
            ));
        }
    }
    for (m, (rec, seen)) in data.msgs.iter().zip(&msgs).enumerate() {
        let wanted: &[FlowClass] = match (rec.recv_ready_ns, rec.eager) {
            (None, _) => &[],
            (Some(_), true) => &[FlowClass::Eager],
            (Some(_), false) => &[FlowClass::Rts, FlowClass::Cts, FlowClass::Rndv],
        };
        let missing: Vec<&str> = wanted
            .iter()
            .filter(|c| !seen.classes[c.index()])
            .map(FlowClass::label)
            .collect();
        if !missing.is_empty() {
            return Err(format!(
                "message m{m} (rank {} -> {}, {} B) has no {} flow",
                rec.src,
                rec.dst,
                rec.bytes,
                missing.join("/")
            ));
        }
    }
    Ok(RecordingCheck {
        ranks: data.nranks,
        msgs: data.msgs.len(),
        flows: data.flows.len(),
        dispatches: data.dispatches.len(),
    })
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn parses_scalars_and_nesting() {
        let doc = parse_json(r#"{"a":[1,2.5,-3e2],"b":"x\ny","c":null,"d":true}"#).unwrap();
        assert_eq!(
            doc.get("a").unwrap().as_arr().unwrap()[2].as_num(),
            Some(-300.0)
        );
        assert_eq!(doc.get("b").unwrap().as_str(), Some("x\ny"));
        assert_eq!(doc.get("c"), Some(&Json::Null));
        assert_eq!(doc.get("d"), Some(&Json::Bool(true)));
    }

    #[test]
    fn rejects_trailing_garbage_and_bad_syntax() {
        assert!(parse_json("{} x").is_err());
        assert!(parse_json("[1,]").is_err());
        assert!(parse_json("{\"a\"}").is_err());
    }

    #[test]
    fn accepts_nested_and_tiled_spans() {
        let doc = r#"{"traceEvents":[
            {"name":"a","ph":"X","pid":1,"tid":0,"ts":0.000,"dur":10.000},
            {"name":"b","ph":"X","pid":1,"tid":0,"ts":2.000,"dur":3.000},
            {"name":"c","ph":"X","pid":1,"tid":0,"ts":5.000,"dur":5.000},
            {"name":"d","ph":"X","pid":1,"tid":0,"ts":10.000,"dur":1.000}
        ]}"#;
        let s = validate_chrome(doc).unwrap();
        assert_eq!(s.complete_spans, 4);
        assert_eq!(s.tracks, 1);
    }

    #[test]
    fn rejects_partial_overlap() {
        let doc = r#"{"traceEvents":[
            {"name":"a","ph":"X","pid":1,"tid":0,"ts":0.000,"dur":10.000},
            {"name":"b","ph":"X","pid":1,"tid":0,"ts":5.000,"dur":10.000}
        ]}"#;
        assert!(validate_chrome(doc)
            .unwrap_err()
            .contains("partially overlaps"));
    }

    #[test]
    fn rejects_unpaired_async() {
        let doc = r#"{"traceEvents":[
            {"name":"m","cat":"msg","ph":"b","pid":1,"tid":0,"id":"m0","ts":0.000}
        ]}"#;
        assert!(validate_chrome(doc).unwrap_err().contains("unclosed"));
        let doc = r#"{"traceEvents":[
            {"name":"m","cat":"msg","ph":"e","pid":1,"tid":0,"id":"m0","ts":0.000}
        ]}"#;
        assert!(validate_chrome(doc)
            .unwrap_err()
            .contains("without an open"));
    }

    #[test]
    fn metrics_csv_checks_shape() {
        assert_eq!(
            validate_metrics_csv("time_ns,metric,index,value\n0,posted_depth,0,3\n").unwrap(),
            1
        );
        assert!(validate_metrics_csv("nope\n").is_err());
        assert!(validate_metrics_csv("time_ns,metric,index,value\n5,x,0,1\n2,x,0,1\n").is_err());
        assert!(validate_metrics_csv("time_ns,metric,index,value\n0,x,0\n").is_err());
    }

    #[test]
    fn critical_report_percentages_must_sum_to_100() {
        let good = "critical path: rank 1 finished last at 0.300 us; 4 segments\n\
                    layer attribution:\n\
                    \x20 callback        0.180 us   60.0%\n\
                    \x20 network         0.120 us   40.0%\n\
                    chain (chronological):\n";
        assert!((validate_critical_report(good).unwrap() - 100.0).abs() < 0.2);
        let bad = good.replace("60.0%", "45.0%");
        assert!(validate_critical_report(&bad)
            .unwrap_err()
            .contains("not 100%"));
        assert!(validate_critical_report("no report here\n").is_err());
    }

    #[test]
    fn summary_check_catches_tampering() {
        use crate::recorder::Recorder as _;
        let mut r = crate::stream::StreamRecorder::new();
        r.meta(2, vec!["L0".into()]);
        r.msg_posted(0, 0, 1, 0, 64, true, 10);
        r.msg_event(
            0,
            crate::recorder::MsgEvent::Matched {
                posted_ns: Some(5),
                unexpected: false,
            },
            40,
        );
        r.finish(&[100, 100]);
        let good = crate::stream::summary_json(&r.finish_summary().unwrap());
        validate_summary(&good).unwrap();
        // A histogram count that no longer matches its buckets.
        let bad = good.replacen("\"count\":1,", "\"count\":2,", 1);
        assert!(validate_summary(&bad).unwrap_err().contains("sum to"));
        // Per-rank arrays must match nranks.
        let bad = good.replace("\"nranks\": 2", "\"nranks\": 3");
        assert!(validate_summary(&bad).unwrap_err().contains("ranks"));
        // Deflated totals: a stage histogram counting more samples than
        // messages posted is corruption (the reverse is a stalled run).
        let bad = good.replacen("\"msgs\":1,", "\"msgs\":0,", 1);
        assert!(validate_summary(&bad)
            .unwrap_err()
            .contains("exceeds totals.msgs"));
        assert!(validate_summary("{\"format\": \"nope\"}").is_err());
        assert!(validate_summary("not json").is_err());
    }

    /// A minimal well-formed health artifact the tampering tests mutate.
    fn good_health() -> String {
        "{\"format\": \"adapt-obs-health-v1\",\n\"interval_ns\": 1000,\n\"nranks\": 4,\n\
         \"nlinks\": 2,\n\"snapshots\": 9,\n\"last_t_ns\": 9000,\n\
         \"counts\": {\"straggler\": 1, \"hot_link\": 1, \"retransmit_storm\": 0, \
         \"progress_flatline\": 0},\n\"alerts\": [\n\
         {\"kind\": \"straggler\", \"t_ns\": 5000, \"subject\": 3, \"label\": \"rank 3\", \
         \"value\": 5000, \"threshold\": 2400},\n\
         {\"kind\": \"hot_link\", \"t_ns\": 8000, \"subject\": 1, \"label\": \"L1 node1/nic-tx\", \
         \"value\": 900, \"threshold\": 850}],\n\"dropped_alerts\": 0\n}\n"
            .to_string()
    }

    #[test]
    fn health_check_accepts_a_well_formed_artifact() {
        let chk = validate_health(&good_health()).unwrap();
        assert_eq!(chk.snapshots, 9);
        assert_eq!(chk.alerts, 2);
        assert_eq!(chk.kept_alerts, 2);
        assert_eq!(chk.ranks, 4);
    }

    #[test]
    fn health_check_rejects_tampered_artifacts() {
        let good = good_health();
        // Wrong or missing format tag.
        assert!(validate_health(&good.replacen("health-v1", "health-v2", 1))
            .unwrap_err()
            .contains("unsupported health format"));
        // Counts that disagree with the alert records.
        let bad = good.replacen("\"straggler\": 1", "\"straggler\": 2", 1);
        assert!(validate_health(&bad).unwrap_err().contains("counts sum"));
        // An unknown alert kind.
        let bad = good.replacen("\"kind\": \"hot_link\"", "\"kind\": \"gremlin\"", 1);
        assert!(validate_health(&bad).unwrap_err().contains("unknown kind"));
        // A counts object missing a known kind.
        let bad = good.replacen("\"retransmit_storm\": 0, ", "", 1);
        assert!(validate_health(&bad)
            .unwrap_err()
            .contains("exactly the known alert kinds"));
        // Timestamps running backwards.
        let bad = good.replacen("\"t_ns\": 8000", "\"t_ns\": 4000", 1);
        assert!(validate_health(&bad)
            .unwrap_err()
            .contains("non-decreasing"));
        // An alert claiming to come after the last snapshot.
        let bad = good.replacen("\"t_ns\": 8000", "\"t_ns\": 9500", 1);
        assert!(validate_health(&bad)
            .unwrap_err()
            .contains("beyond last snapshot"));
        // A straggler rank outside the job.
        let bad = good.replacen("\"subject\": 3", "\"subject\": 7", 1);
        assert!(validate_health(&bad).unwrap_err().contains("out of range"));
        // A zero snapshot interval.
        let bad = good.replacen("\"interval_ns\": 1000", "\"interval_ns\": 0", 1);
        assert!(validate_health(&bad).unwrap_err().contains("positive"));
        // Alerts without any snapshots.
        let bad = good
            .replacen("\"snapshots\": 9", "\"snapshots\": 0", 1)
            .replacen("\"last_t_ns\": 9000", "\"last_t_ns\": 0", 1)
            .replacen("\"t_ns\": 5000", "\"t_ns\": 0", 1)
            .replacen("\"t_ns\": 8000", "\"t_ns\": 0", 1);
        assert!(validate_health(&bad)
            .unwrap_err()
            .contains("zero snapshots"));
        // Truncation and non-JSON input parse-fail, never panic.
        assert!(validate_health(&good[..good.len() / 2]).is_err());
        assert!(validate_health("not json").is_err());
        assert!(validate_health("{}").is_err());
    }

    #[test]
    fn critical_report_check_accepts_a_real_render() {
        let data = crate::record::ObsData {
            nranks: 1,
            per_rank_finish_ns: vec![100],
            dispatches: vec![crate::record::DispatchSpan {
                rank: 0,
                begin_ns: 0,
                end_ns: 100,
                trigger: crate::record::Trigger::Start,
            }],
            ..Default::default()
        };
        let text = crate::critical::critical_path(&data).render();
        validate_critical_report(&text).unwrap();
    }
}
