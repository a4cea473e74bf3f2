//! Chrome `trace_event` export and a minimal in-repo validity checker.
//!
//! [`to_chrome_trace`] renders a [`Snapshot`]'s span tree and message
//! flows in the JSON object format understood by `chrome://tracing`,
//! Perfetto's legacy importer, and `speedscope`:
//!
//! * every [`SpanRecord`](crate::span::SpanRecord) becomes a complete
//!   duration event (`"ph":"X"`, microsecond `ts`/`dur`) on process 1,
//!   one lane (`tid`) per originating thread, with `span_id`/`parent_id`
//!   in `args` so the causal tree survives the round trip;
//! * every [`FlowRecord`](crate::collector::FlowRecord) becomes a short
//!   anchor slice on process 2 — one lane per **node** — plus a flow
//!   event (`"ph":"s"` at send, `"ph":"f"` with `"bp":"e"` at deliver)
//!   sharing `id` `<kind>:<seq>`, so delivered messages draw as arrows
//!   between node lanes: a sequence chart. Drops render as instant
//!   events (`"ph":"i"`) on the receiver lane;
//! * `"M"` metadata events name both processes and every lane.
//!
//! [`validate_chrome_trace`] is the paired checker used by tests and the
//! `tracecheck` binary: it parses the document with the private
//! recursive-descent JSON reader below (std-only — the workspace has no
//! serde) and enforces the structural contract: known phase letters,
//! numeric `ts`, non-negative `dur` (span end ≥ start), every flow-end
//! preceded by a matching flow-start, and span-tree parent containment.

use std::collections::BTreeMap;

use crate::collector::{FlowPhase, Snapshot};
use crate::export::json_string;

/// Process id used for span lanes in the exported trace.
const PID_SPANS: u64 = 1;
/// Process id used for per-node message lanes.
const PID_NODES: u64 = 2;
/// Width of the anchor slices flow arrows attach to, in microseconds.
const ANCHOR_US: f64 = 1.0;

fn us(ns: u64) -> String {
    format!("{:.3}", ns as f64 / 1000.0)
}

/// Renders the snapshot's spans and flows as a Chrome `trace_event` JSON
/// document (see module docs for the mapping).
pub fn to_chrome_trace(snap: &Snapshot) -> String {
    let mut out = String::from("{\"traceEvents\":[\n");
    let mut first = true;
    let mut push = |out: &mut String, line: String| {
        if !std::mem::take(&mut first) {
            out.push_str(",\n");
        }
        out.push_str(&line);
    };

    if !snap.spans.is_empty() {
        push(
            &mut out,
            format!(
                "{{\"ph\":\"M\",\"pid\":{PID_SPANS},\"tid\":0,\"name\":\"process_name\",\
                 \"args\":{{\"name\":\"truthcast spans\"}}}}"
            ),
        );
        let mut threads: Vec<u64> = snap.spans.iter().map(|s| s.thread).collect();
        threads.sort_unstable();
        threads.dedup();
        for t in threads {
            push(
                &mut out,
                format!(
                    "{{\"ph\":\"M\",\"pid\":{PID_SPANS},\"tid\":{t},\"name\":\"thread_name\",\
                     \"args\":{{\"name\":\"thread {t}\"}}}}"
                ),
            );
        }
    }
    for s in &snap.spans {
        let parent = match s.parent {
            Some(p) => format!(",\"parent_id\":{p}"),
            None => String::new(),
        };
        push(
            &mut out,
            format!(
                "{{\"ph\":\"X\",\"pid\":{PID_SPANS},\"tid\":{},\"name\":{},\"cat\":\"span\",\
                 \"ts\":{},\"dur\":{},\"args\":{{\"span_id\":{}{parent}}}}}",
                s.thread,
                json_string(s.name),
                us(s.start_ns),
                us(s.duration_ns()),
                s.id,
            ),
        );
    }

    if !snap.flows.is_empty() {
        push(
            &mut out,
            format!(
                "{{\"ph\":\"M\",\"pid\":{PID_NODES},\"tid\":0,\"name\":\"process_name\",\
                 \"args\":{{\"name\":\"distsim nodes\"}}}}"
            ),
        );
        let mut nodes: Vec<u32> = snap.flows.iter().flat_map(|f| [f.from, f.to]).collect();
        nodes.sort_unstable();
        nodes.dedup();
        for n in nodes {
            push(
                &mut out,
                format!(
                    "{{\"ph\":\"M\",\"pid\":{PID_NODES},\"tid\":{n},\"name\":\"thread_name\",\
                     \"args\":{{\"name\":\"node {n}\"}}}}"
                ),
            );
        }
    }
    for f in &snap.flows {
        let id = json_string(&format!("{}:{}", f.kind, f.seq));
        let label = |verb: &str| {
            json_string(&format!(
                "{verb} {} {}->{} #{}",
                f.kind, f.from, f.to, f.seq
            ))
        };
        match f.phase {
            FlowPhase::Send => {
                push(
                    &mut out,
                    format!(
                        "{{\"ph\":\"X\",\"pid\":{PID_NODES},\"tid\":{},\"name\":{},\
                         \"cat\":\"msg\",\"ts\":{},\"dur\":{ANCHOR_US:.3}}}",
                        f.from,
                        label("send"),
                        us(f.at_nanos),
                    ),
                );
                push(
                    &mut out,
                    format!(
                        "{{\"ph\":\"s\",\"pid\":{PID_NODES},\"tid\":{},\"name\":\"msg\",\
                         \"cat\":\"msg\",\"id\":{id},\"ts\":{}}}",
                        f.from,
                        us(f.at_nanos),
                    ),
                );
            }
            FlowPhase::Deliver => {
                push(
                    &mut out,
                    format!(
                        "{{\"ph\":\"X\",\"pid\":{PID_NODES},\"tid\":{},\"name\":{},\
                         \"cat\":\"msg\",\"ts\":{},\"dur\":{ANCHOR_US:.3}}}",
                        f.to,
                        label("recv"),
                        us(f.at_nanos),
                    ),
                );
                push(
                    &mut out,
                    format!(
                        "{{\"ph\":\"f\",\"bp\":\"e\",\"pid\":{PID_NODES},\"tid\":{},\
                         \"name\":\"msg\",\"cat\":\"msg\",\"id\":{id},\"ts\":{}}}",
                        f.to,
                        us(f.at_nanos),
                    ),
                );
            }
            FlowPhase::Drop => {
                push(
                    &mut out,
                    format!(
                        "{{\"ph\":\"i\",\"pid\":{PID_NODES},\"tid\":{},\"name\":{},\
                         \"cat\":\"msg\",\"s\":\"t\",\"ts\":{}}}",
                        f.to,
                        label("drop"),
                        us(f.at_nanos),
                    ),
                );
            }
        }
    }
    out.push_str("\n],\"displayTimeUnit\":\"ms\"}\n");
    out
}

/// Counts reported by a successful [`validate_chrome_trace`] run.
#[derive(Clone, Copy, Debug, Default, PartialEq, Eq)]
pub struct ChromeTraceStats {
    /// Total events in `traceEvents`.
    pub events: usize,
    /// Complete duration events (`"ph":"X"`).
    pub spans: usize,
    /// Flow-start events (`"ph":"s"`).
    pub flow_starts: usize,
    /// Flow-end events (`"ph":"f"`), each matched to an earlier start.
    pub flow_ends: usize,
}

/// Parses `text` as a Chrome `trace_event` JSON document and checks the
/// structural contract (module docs). Returns event counts on success,
/// a description of the first problem found otherwise.
pub fn validate_chrome_trace(text: &str) -> Result<ChromeTraceStats, String> {
    let doc = Json::parse(text)?;
    let events = doc
        .get("traceEvents")
        .ok_or("missing traceEvents key")?
        .as_arr()
        .ok_or("traceEvents is not an array")?;
    let mut stats = ChromeTraceStats {
        events: events.len(),
        ..ChromeTraceStats::default()
    };
    // Flow starts seen so far: id -> earliest ts.
    let mut open_flows: BTreeMap<String, f64> = BTreeMap::new();
    // Span-tree containment: span_id -> (ts, ts+dur), plus deferred
    // parent links (events may arrive in any order).
    let mut span_ivals: BTreeMap<u64, (f64, f64)> = BTreeMap::new();
    let mut parent_links: Vec<(u64, u64)> = Vec::new();
    for (i, ev) in events.iter().enumerate() {
        let ctx = |msg: String| format!("event {i}: {msg}");
        let ph = ev
            .get("ph")
            .and_then(Json::as_str)
            .ok_or_else(|| ctx("missing ph".into()))?;
        if !matches!(ph, "X" | "M" | "i" | "s" | "f" | "b" | "e") {
            return Err(ctx(format!("unknown phase {ph:?}")));
        }
        if ev.get("name").and_then(Json::as_str).is_none() {
            return Err(ctx("missing name".into()));
        }
        if ev.get("pid").and_then(Json::as_f64).is_none()
            || ev.get("tid").and_then(Json::as_f64).is_none()
        {
            return Err(ctx("missing numeric pid/tid".into()));
        }
        if ph == "M" {
            continue;
        }
        let ts = ev
            .get("ts")
            .and_then(Json::as_f64)
            .ok_or_else(|| ctx("missing numeric ts".into()))?;
        match ph {
            "X" => {
                let dur = ev
                    .get("dur")
                    .and_then(Json::as_f64)
                    .ok_or_else(|| ctx("X event missing numeric dur".into()))?;
                if dur < 0.0 {
                    return Err(ctx(format!("negative dur {dur}")));
                }
                stats.spans += 1;
                if let Some(args) = ev.get("args") {
                    if let Some(id) = args.get("span_id").and_then(Json::as_f64) {
                        if span_ivals.insert(id as u64, (ts, ts + dur)).is_some() {
                            return Err(ctx(format!("duplicate span_id {id}")));
                        }
                        if let Some(p) = args.get("parent_id").and_then(Json::as_f64) {
                            parent_links.push((id as u64, p as u64));
                        }
                    }
                }
            }
            "s" | "f" => {
                let id = match ev.get("id") {
                    Some(Json::Str(s)) => s.clone(),
                    Some(Json::Num(n)) => format!("{n}"),
                    _ => return Err(ctx("flow event missing id".into())),
                };
                if ph == "s" {
                    stats.flow_starts += 1;
                    open_flows.entry(id).or_insert(ts);
                } else {
                    stats.flow_ends += 1;
                    let start_ts = open_flows
                        .get(&id)
                        .ok_or_else(|| ctx(format!("flow-end id {id:?} has no flow-start")))?;
                    if ts + 1e-6 < *start_ts {
                        return Err(ctx(format!(
                            "flow-end at {ts} precedes its start at {start_ts}"
                        )));
                    }
                }
            }
            _ => {}
        }
    }
    // ts/dur are microseconds rounded to 3 decimals, so exact-ns nesting
    // survives with at most ~1e-3 µs of rounding per endpoint.
    const EPS: f64 = 0.0025;
    for (child, parent) in parent_links {
        let &(cs, ce) = span_ivals
            .get(&child)
            .expect("child was inserted when its link was recorded");
        let &(ps, pe) = span_ivals
            .get(&parent)
            .ok_or_else(|| format!("span {child} names missing parent {parent}"))?;
        if cs + EPS < ps || ce > pe + EPS {
            return Err(format!(
                "span {child} [{cs}, {ce}] escapes parent {parent} [{ps}, {pe}]"
            ));
        }
    }
    Ok(stats)
}

/// The payment service's session outcome counters: every offered session
/// ends settled, shed or unreachable.
const SESSION_COUNTERS: [&str; 4] = [
    "service.sessions.offered",
    "service.sessions.settled",
    "service.sessions.shed",
    "service.sessions.unreachable",
];

/// Checks that `text` is well-formed truthcast-obs JSONL: every line a
/// standalone JSON object with a string `type` field. When the stream
/// carries the service's session counters, they must reconcile:
/// `offered = settled + shed + unreachable` (the last reading of each
/// counter; an absent one reads 0). Returns the line count.
pub fn validate_jsonl(text: &str) -> Result<usize, String> {
    let mut lines = 0;
    let mut sessions: [Option<f64>; 4] = [None; 4];
    for (i, line) in text.lines().enumerate() {
        let doc = Json::parse(line).map_err(|e| format!("line {}: {e}", i + 1))?;
        let kind = doc.get("type").and_then(Json::as_str);
        let Some(kind) = kind else {
            return Err(format!("line {}: missing string \"type\" field", i + 1));
        };
        if kind == "counter" {
            let name = doc.get("name").and_then(Json::as_str);
            if let Some(k) = SESSION_COUNTERS.iter().position(|&c| Some(c) == name) {
                sessions[k] = doc.get("value").and_then(Json::as_f64);
            }
        }
        lines += 1;
    }
    if sessions.iter().any(Option::is_some) {
        let [offered, settled, shed, unreachable] = sessions.map(|v| v.unwrap_or(0.0));
        if offered != settled + shed + unreachable {
            return Err(format!(
                "sessions do not reconcile: offered {offered} != settled {settled} \
                 + shed {shed} + unreachable {unreachable}"
            ));
        }
    }
    Ok(lines)
}

/// A parsed JSON value (private minimal reader — the workspace is
/// std-only, so the checker carries its own recursive-descent parser).
#[derive(Clone, Debug, PartialEq)]
pub(crate) enum Json {
    /// `null`.
    Null,
    /// `true` / `false`.
    Bool(bool),
    /// Any number, as `f64`.
    Num(f64),
    /// A string.
    Str(String),
    /// An array.
    Arr(Vec<Json>),
    /// An object, fields in document order.
    Obj(Vec<(String, Json)>),
}

impl Json {
    pub(crate) fn parse(text: &str) -> Result<Json, String> {
        let mut p = Parser {
            bytes: text.as_bytes(),
            pos: 0,
            depth: 0,
        };
        p.skip_ws();
        let v = p.value()?;
        p.skip_ws();
        if p.pos != p.bytes.len() {
            return Err(format!("trailing garbage at byte {}", p.pos));
        }
        Ok(v)
    }

    pub(crate) fn get(&self, key: &str) -> Option<&Json> {
        match self {
            Json::Obj(fields) => fields.iter().find(|(k, _)| k == key).map(|(_, v)| v),
            _ => None,
        }
    }

    pub(crate) fn as_f64(&self) -> Option<f64> {
        match self {
            Json::Num(n) => Some(*n),
            _ => None,
        }
    }

    pub(crate) fn as_str(&self) -> Option<&str> {
        match self {
            Json::Str(s) => Some(s),
            _ => None,
        }
    }

    pub(crate) fn as_arr(&self) -> Option<&[Json]> {
        match self {
            Json::Arr(v) => Some(v),
            _ => None,
        }
    }
}

/// Deepest array/object nesting the reader accepts: far beyond anything
/// the exporters write, and shallow enough that the recursive descent
/// cannot exhaust the stack on hostile input.
const MAX_DEPTH: usize = 128;

struct Parser<'a> {
    bytes: &'a [u8],
    pos: usize,
    /// Arrays and objects currently open.
    depth: usize,
}

impl Parser<'_> {
    fn skip_ws(&mut self) {
        while let Some(&b) = self.bytes.get(self.pos) {
            if matches!(b, b' ' | b'\t' | b'\n' | b'\r') {
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
            Err(format!(
                "expected {:?} at byte {}, found {:?}",
                b as char,
                self.pos,
                self.peek().map(|c| c as char)
            ))
        }
    }

    fn literal(&mut self, word: &str, v: Json) -> Result<Json, String> {
        if self.bytes[self.pos..].starts_with(word.as_bytes()) {
            self.pos += word.len();
            Ok(v)
        } else {
            Err(format!("bad literal at byte {}", self.pos))
        }
    }

    fn value(&mut self) -> Result<Json, String> {
        match self.peek() {
            Some(b'n') => self.literal("null", Json::Null),
            Some(b't') => self.literal("true", Json::Bool(true)),
            Some(b'f') => self.literal("false", Json::Bool(false)),
            Some(b'"') => Ok(Json::Str(self.string()?)),
            Some(open @ (b'[' | b'{')) => {
                if self.depth == MAX_DEPTH {
                    return Err(format!(
                        "nesting deeper than {MAX_DEPTH} at byte {}",
                        self.pos
                    ));
                }
                self.depth += 1;
                let v = if open == b'[' {
                    self.array()
                } else {
                    self.object()
                };
                self.depth -= 1;
                v
            }
            Some(c) if c == b'-' || c.is_ascii_digit() => self.number(),
            other => Err(format!(
                "unexpected {:?} at byte {}",
                other.map(|c| c as char),
                self.pos
            )),
        }
    }

    fn string(&mut self) -> Result<String, String> {
        self.expect(b'"')?;
        let mut out = String::new();
        loop {
            match self.peek() {
                None => return Err("unterminated string".into()),
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
                                .ok_or("truncated \\u escape")?;
                            let code = u32::from_str_radix(
                                std::str::from_utf8(hex).map_err(|_| "bad \\u escape")?,
                                16,
                            )
                            .map_err(|_| "bad \\u escape")?;
                            // Surrogate pairs don't occur in our own output;
                            // map lone surrogates to the replacement char.
                            out.push(char::from_u32(code).unwrap_or('\u{fffd}'));
                            self.pos += 4;
                        }
                        other => return Err(format!("bad escape {other:?}")),
                    }
                    self.pos += 1;
                }
                Some(_) => {
                    // Consume one UTF-8 scalar (input is &str, so valid).
                    let rest = &self.bytes[self.pos..];
                    let s = std::str::from_utf8(rest).map_err(|e| e.to_string())?;
                    let c = s.chars().next().expect("peeked non-empty");
                    out.push(c);
                    self.pos += c.len_utf8();
                }
            }
        }
    }

    fn number(&mut self) -> Result<Json, String> {
        let start = self.pos;
        if self.peek() == Some(b'-') {
            self.pos += 1;
        }
        while let Some(c) = self.peek() {
            if c.is_ascii_digit() || matches!(c, b'.' | b'e' | b'E' | b'+' | b'-') {
                self.pos += 1;
            } else {
                break;
            }
        }
        std::str::from_utf8(&self.bytes[start..self.pos])
            .ok()
            .and_then(|s| s.parse::<f64>().ok())
            .map(Json::Num)
            .ok_or_else(|| format!("bad number at byte {start}"))
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
            self.skip_ws();
            items.push(self.value()?);
            self.skip_ws();
            match self.peek() {
                Some(b',') => self.pos += 1,
                Some(b']') => {
                    self.pos += 1;
                    return Ok(Json::Arr(items));
                }
                other => return Err(format!("expected , or ] found {other:?}")),
            }
        }
    }

    fn object(&mut self) -> Result<Json, String> {
        self.expect(b'{')?;
        let mut fields = Vec::new();
        self.skip_ws();
        if self.peek() == Some(b'}') {
            self.pos += 1;
            return Ok(Json::Obj(fields));
        }
        loop {
            self.skip_ws();
            let key = self.string()?;
            self.skip_ws();
            self.expect(b':')?;
            self.skip_ws();
            let value = self.value()?;
            fields.push((key, value));
            self.skip_ws();
            match self.peek() {
                Some(b',') => self.pos += 1,
                Some(b'}') => {
                    self.pos += 1;
                    return Ok(Json::Obj(fields));
                }
                other => return Err(format!("expected , or }} found {other:?}")),
            }
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::collector::Collector;
    use crate::span::SpanRecord;

    fn sample_snapshot() -> Snapshot {
        let c = Collector::new();
        c.record_span(SpanRecord {
            id: 1,
            parent: None,
            name: "core.all_sources",
            thread: 1,
            start_ns: 1_000,
            end_ns: 101_000,
        });
        c.record_span(SpanRecord {
            id: 2,
            parent: Some(1),
            name: "all_sources.spt_sweep",
            thread: 1,
            start_ns: 2_000,
            end_ns: 50_000,
        });
        c.flow(FlowPhase::Send, 0, 1, 7, "bcast");
        c.flow(FlowPhase::Deliver, 0, 1, 7, "bcast");
        c.flow(FlowPhase::Send, 1, 2, 8, "direct");
        c.flow(FlowPhase::Drop, 1, 2, 8, "direct");
        c.snapshot()
    }

    #[test]
    fn exported_trace_validates() {
        let doc = to_chrome_trace(&sample_snapshot());
        let stats = validate_chrome_trace(&doc).expect("emitted trace must validate");
        // 2 spans + 2 send anchors + 1 recv anchor = 5 X events.
        assert_eq!(stats.spans, 5);
        assert_eq!(stats.flow_starts, 2);
        assert_eq!(stats.flow_ends, 1);
    }

    #[test]
    fn empty_snapshot_exports_empty_valid_trace() {
        let doc = to_chrome_trace(&Snapshot::default());
        let stats = validate_chrome_trace(&doc).unwrap();
        assert_eq!(stats.events, 0);
    }

    #[test]
    fn validator_rejects_structural_problems() {
        assert!(validate_chrome_trace("not json").is_err());
        assert!(validate_chrome_trace("{\"events\":[]}").is_err());
        // Unknown phase letter.
        let bad = "{\"traceEvents\":[{\"ph\":\"Z\",\"pid\":1,\"tid\":1,\"name\":\"x\"}]}";
        assert!(validate_chrome_trace(bad).unwrap_err().contains("phase"));
        // Negative duration (span end < start).
        let bad = "{\"traceEvents\":[{\"ph\":\"X\",\"pid\":1,\"tid\":1,\"name\":\"x\",\
                    \"ts\":5.0,\"dur\":-1.0}]}";
        assert!(validate_chrome_trace(bad).unwrap_err().contains("dur"));
        // Flow-end with no start.
        let bad = "{\"traceEvents\":[{\"ph\":\"f\",\"bp\":\"e\",\"pid\":2,\"tid\":1,\
                    \"name\":\"msg\",\"id\":\"m:1\",\"ts\":3.0}]}";
        assert!(validate_chrome_trace(bad)
            .unwrap_err()
            .contains("no flow-start"));
        // Child escaping its parent interval.
        let bad = "{\"traceEvents\":[\
            {\"ph\":\"X\",\"pid\":1,\"tid\":1,\"name\":\"p\",\"ts\":10.0,\"dur\":5.0,\
             \"args\":{\"span_id\":1}},\
            {\"ph\":\"X\",\"pid\":1,\"tid\":1,\"name\":\"c\",\"ts\":14.0,\"dur\":5.0,\
             \"args\":{\"span_id\":2,\"parent_id\":1}}]}";
        assert!(validate_chrome_trace(bad).unwrap_err().contains("escapes"));
    }

    #[test]
    fn jsonl_validator_accepts_export_and_rejects_junk() {
        let c = Collector::new();
        c.add("a.b", 1);
        c.sample("lat", 7);
        let doc = crate::export::to_jsonl(&c.snapshot());
        assert!(validate_jsonl(&doc).unwrap() >= 3);
        assert!(validate_jsonl("{\"no_type\":1}").is_err());
        assert!(validate_jsonl("{truncated").is_err());
    }

    #[test]
    fn json_parser_handles_escapes_and_numbers() {
        let v = Json::parse(r#"{"a":[1,-2.5,1e3],"s":"x\n\"A","b":true,"n":null}"#).unwrap();
        assert_eq!(v.get("a").unwrap().as_arr().unwrap().len(), 3);
        assert_eq!(v.get("a").unwrap().as_arr().unwrap()[2].as_f64(), Some(1e3));
        assert_eq!(v.get("s").unwrap().as_str(), Some("x\n\"A"));
        assert_eq!(v.get("b"), Some(&Json::Bool(true)));
        assert_eq!(v.get("n"), Some(&Json::Null));
        assert!(Json::parse("[1,]").is_err());
        assert!(Json::parse("{\"a\":1} x").is_err());
    }

    #[test]
    fn deep_nesting_is_an_error_not_a_stack_overflow() {
        let nested = |d: usize| format!("{}{}", "[".repeat(d), "]".repeat(d));
        assert!(Json::parse(&nested(MAX_DEPTH)).is_ok());
        let err = Json::parse(&nested(MAX_DEPTH + 1)).unwrap_err();
        assert!(err.contains("nesting deeper"), "{err}");
        // A million unclosed brackets must not exhaust the stack.
        assert!(validate_jsonl(&"[".repeat(1_000_000)).is_err());
        assert!(validate_jsonl(&"{\"a\":".repeat(1_000_000)).is_err());
    }

    /// A service run's session counters reconcile: 10 offered = 6 settled
    /// + 3 shed + 1 unreachable.
    fn service_counters() -> String {
        let c = Collector::new();
        for (name, v) in SESSION_COUNTERS.iter().zip([10, 6, 3, 1]) {
            c.add(name, v);
        }
        crate::export::to_jsonl(&c.snapshot())
    }

    #[test]
    fn jsonl_validator_accepts_reconciled_sessions() {
        assert!(validate_jsonl(&service_counters()).is_ok());
    }

    #[test]
    fn jsonl_validator_rejects_unreconciled_sessions() {
        // Hand-break the fixture: one shed session goes missing.
        let doc = service_counters().replace(
            "\"name\":\"service.sessions.shed\",\"value\":3",
            "\"name\":\"service.sessions.shed\",\"value\":2",
        );
        assert_ne!(doc, service_counters(), "the fixture edit must apply");
        let err = validate_jsonl(&doc).unwrap_err();
        assert!(err.contains("do not reconcile"), "{err}");
    }
}
