//! Chrome trace-event JSON export for [`TraceBuffer`]s.
//!
//! [`write_trace`] lays the deterministic span records out on a
//! synthesized timeline and streams the Chrome trace-event format that
//! Perfetto and `chrome://tracing` load directly. Timestamps are
//! *virtual*: tick `t` starts where tick `t-1`'s wall-clock span
//! ended, phases run back-to-back from their tick's start, and
//! instants land at `tick_start + seq` nanoseconds — so the layout is
//! a pure function of the records and needs no wall clock of its own.
//! Each record is printed as the walk reaches it, in the layout
//! `serde_json`'s pretty printer gives the equivalent object tree, so
//! the output never exists as a tree and, through a buffered file,
//! never as one string either. [`render_trace`] collects it into a
//! `String`.
//!
//! [`validate_trace`] and [`parse_trace`] are the strict in-repo
//! consumers: the CLI's `check-trace` validates exported files, and
//! `explain` keeps one job's events to reconstruct its decision chain.
//! Both read the text once with a small pull reader that borrows
//! strings from the input (allocating only for escaped ones), checks
//! each event as it arrives and drops it. The reader admits exactly
//! the JSON the vendored `serde_json` parser does, including its
//! nesting cap of 128 levels; the schema on top rejects
//! unknown fields outright. Validation then checks structural
//! invariants — legal event phases, finite non-negative times, proper
//! span nesting per thread lane, unique `(tick, seq)` ids — not just
//! JSON well-formedness.
//!
//! A syntax error anywhere outranks every other finding, and a schema
//! error anywhere outranks a failed check, so the reader finishes the
//! document before it reports.

use crate::tracer::{SpanCandidate, SpanRecord, TraceBuffer};
use serde::{Serialize, Value};
use std::borrow::Cow;
use std::collections::{HashMap, HashSet};
use std::fmt::{self, Write as _};
use std::io;

/// Thread lane carrying the tick and phase spans.
pub const LANE_TICK: u32 = 1;
/// Thread lane carrying per-zone physics/CRAC spans.
pub const LANE_ZONES: u32 = 2;
/// Thread lane carrying placement and decision instants.
pub const LANE_PLACEMENT: u32 = 3;
/// Thread lane carrying watchdog anomaly instants.
pub const LANE_ANOMALIES: u32 = 4;

/// Deepest nesting of arrays and objects the trace reader accepts:
/// `serde_json`'s default recursion limit, which the vendored parser
/// enforces too. Deeper input is a parse error, not a stack overflow.
const MAX_DEPTH: usize = 128;

/// One event in the Chrome trace-event format. Only the fields the
/// renderer emits are admitted — unknown fields fail the strict parse.
#[derive(Debug, Clone, PartialEq)]
pub struct ChromeEvent {
    /// Display name (phase name, `"tick"`, watchdog kind, ...).
    pub name: String,
    /// Category: `"tick"`, `"phase"`, `"zone"`, `"placement"`,
    /// `"decision"`, `"anomaly"`, or `"__metadata"`.
    pub cat: String,
    /// Event phase: `"X"` (complete span), `"i"` (instant), or `"M"`
    /// (metadata).
    pub ph: String,
    /// Timestamp in microseconds on the synthesized timeline.
    pub ts: f64,
    /// Span duration in microseconds (`"X"` events only; omitted from
    /// the JSON otherwise).
    pub dur: Option<f64>,
    /// Process id (always 1).
    pub pid: u32,
    /// Thread lane (see the `LANE_*` constants).
    pub tid: u32,
    /// Instant scope (`"t"`; `"i"` events only, omitted otherwise).
    pub s: Option<String>,
    /// Typed payload: the record's fields, including its `(tick,
    /// seq)` id. `Value::Null` when absent.
    pub args: Value,
}

impl Serialize for ChromeEvent {
    fn to_value(&self) -> Value {
        let mut pairs = vec![
            ("name".to_string(), Value::Str(self.name.clone())),
            ("cat".to_string(), Value::Str(self.cat.clone())),
            ("ph".to_string(), Value::Str(self.ph.clone())),
            ("ts".to_string(), Value::F64(self.ts)),
        ];
        if let Some(dur) = self.dur {
            pairs.push(("dur".to_string(), Value::F64(dur)));
        }
        pairs.push(("pid".to_string(), Value::U64(self.pid as u64)));
        pairs.push(("tid".to_string(), Value::U64(self.tid as u64)));
        if let Some(s) = &self.s {
            pairs.push(("s".to_string(), Value::Str(s.clone())));
        }
        if !matches!(self.args, Value::Null) {
            pairs.push(("args".to_string(), self.args.clone()));
        }
        Value::Object(pairs)
    }
}

/// A parsed Chrome trace file.
#[derive(Debug, Clone, PartialEq)]
pub struct ChromeTrace {
    /// The events, in emission order (JSON key `traceEvents`).
    pub trace_events: Vec<ChromeEvent>,
    /// Display hint for viewers (JSON key `displayTimeUnit`).
    pub display_time_unit: String,
    /// Exporter metadata: schema version and ring-drop count (JSON key
    /// `otherData`).
    pub other_data: Value,
}

impl Serialize for ChromeTrace {
    fn to_value(&self) -> Value {
        Value::Object(vec![
            (
                "traceEvents".to_string(),
                Value::Array(self.trace_events.iter().map(Serialize::to_value).collect()),
            ),
            (
                "displayTimeUnit".to_string(),
                Value::Str(self.display_time_unit.clone()),
            ),
            ("otherData".to_string(), self.other_data.clone()),
        ])
    }
}

/// Summary statistics `validate_trace` returns (and `check-trace`
/// prints).
#[derive(Debug, Clone, Copy, PartialEq, Eq, Default)]
pub struct TraceStats {
    /// Total events, metadata included.
    pub events: usize,
    /// Distinct simulation ticks with a tick span.
    pub ticks: usize,
    /// Complete (`"X"`) spans.
    pub spans: usize,
    /// Phase spans.
    pub phases: usize,
    /// Per-zone spans.
    pub zones: usize,
    /// Placement instants.
    pub placements: usize,
    /// Decision instants.
    pub decisions: usize,
    /// Anomaly instants.
    pub anomalies: usize,
    /// Records the exporter's ring dropped before rendering.
    pub dropped: u64,
}

/// Why a trace failed to parse or validate.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct TraceError {
    /// Human-readable reason, with an event index where applicable.
    pub message: String,
}

impl fmt::Display for TraceError {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        f.write_str(&self.message)
    }
}

impl std::error::Error for TraceError {}

fn err(message: impl Into<String>) -> TraceError {
    TraceError {
        message: message.into(),
    }
}

// ---------------------------------------------------------------------
// Writer
// ---------------------------------------------------------------------

fn us(ns: u64) -> f64 {
    ns as f64 / 1000.0
}

/// `serde_json`'s float form: the shortest round-tripping `{:?}`
/// string, `null` when not finite.
fn push_f64(out: &mut String, x: f64) {
    if x.is_finite() {
        let _ = write!(out, "{x:?}");
    } else {
        out.push_str("null");
    }
}

fn push_u64(out: &mut String, mut n: u64) {
    let mut digits = [0u8; 20];
    let mut start = digits.len();
    loop {
        start -= 1;
        digits[start] = b'0' + (n % 10) as u8;
        n /= 10;
        if n == 0 {
            break;
        }
    }
    out.push_str(std::str::from_utf8(&digits[start..]).expect("ASCII digits"));
}

/// A JSON string literal with `serde_json`'s escapes: `\"`, `\\`,
/// `\n`, `\r`, `\t`, `\u00XX` for other control characters, and
/// everything else verbatim.
fn push_json_str(out: &mut String, s: &str) {
    out.push('"');
    let mut start = 0;
    for (i, b) in s.bytes().enumerate() {
        let escape = match b {
            b'"' => "\\\"",
            b'\\' => "\\\\",
            b'\n' => "\\n",
            b'\r' => "\\r",
            b'\t' => "\\t",
            0..=0x1f => "",
            _ => continue,
        };
        // Escaped bytes are ASCII, so `i` is a char boundary.
        out.push_str(&s[start..i]);
        if escape.is_empty() {
            let _ = write!(out, "\\u{b:04x}");
        } else {
            out.push_str(escape);
        }
        start = i + 1;
    }
    out.push_str(&s[start..]);
    out.push('"');
}

/// One value in an event's `args`.
enum Arg<'r> {
    Int(u64),
    Float(f64),
    Str(&'r str),
    Null,
    Candidates(&'r [SpanCandidate]),
}

fn opt_arg(value: Option<impl Into<u64>>) -> Arg<'static> {
    value.map_or(Arg::Null, |n| Arg::Int(n.into()))
}

/// Where an event sits on the timeline.
enum Place {
    /// Metadata: `ph` `M` at time 0.
    Meta,
    /// A complete span: `ph` `X`.
    Span { ts_ns: u64, dur_ns: u64 },
    /// A thread-scoped instant: `ph` `i`.
    Instant { ts_ns: u64 },
}

/// Formats each event into a reused buffer and hands it to the sink in
/// one write.
struct EventWriter<W> {
    out: W,
    buf: String,
    events: usize,
}

impl<W: io::Write> EventWriter<W> {
    fn event(
        &mut self,
        name: &str,
        cat: &str,
        place: Place,
        tid: u32,
        args: &[(&str, Arg)],
    ) -> io::Result<()> {
        let b = &mut self.buf;
        b.clear();
        if self.events > 0 {
            b.push_str(",\n");
        }
        self.events += 1;
        b.push_str("    {\n      \"name\": ");
        push_json_str(b, name);
        b.push_str(",\n      \"cat\": ");
        push_json_str(b, cat);
        let (ph, ts_ns, dur_ns) = match place {
            Place::Meta => ("M", 0, None),
            Place::Span { ts_ns, dur_ns } => ("X", ts_ns, Some(dur_ns)),
            Place::Instant { ts_ns } => ("i", ts_ns, None),
        };
        b.push_str(",\n      \"ph\": \"");
        b.push_str(ph);
        b.push_str("\",\n      \"ts\": ");
        push_f64(b, us(ts_ns));
        if let Some(dur_ns) = dur_ns {
            b.push_str(",\n      \"dur\": ");
            push_f64(b, us(dur_ns));
        }
        b.push_str(",\n      \"pid\": 1,\n      \"tid\": ");
        push_u64(b, tid.into());
        if ph == "i" {
            b.push_str(",\n      \"s\": \"t\"");
        }
        b.push_str(",\n      \"args\": {");
        for (i, (key, value)) in args.iter().enumerate() {
            b.push_str(if i == 0 { "\n" } else { ",\n" });
            b.push_str("        \"");
            b.push_str(key);
            b.push_str("\": ");
            match value {
                Arg::Int(n) => push_u64(b, *n),
                Arg::Float(x) => push_f64(b, *x),
                Arg::Str(s) => push_json_str(b, s),
                Arg::Null => b.push_str("null"),
                Arg::Candidates([]) => b.push_str("[]"),
                Arg::Candidates(candidates) => {
                    b.push('[');
                    for (c, candidate) in candidates.iter().enumerate() {
                        b.push_str(if c == 0 { "\n" } else { ",\n" });
                        b.push_str("          {\n            \"server\": ");
                        push_u64(b, candidate.server.into());
                        b.push_str(",\n            \"key\": ");
                        push_f64(b, candidate.key);
                        b.push_str("\n          }");
                    }
                    b.push_str("\n        ]");
                }
            }
        }
        b.push_str("\n      }\n    }");
        self.out.write_all(b.as_bytes())
    }
}

/// Renders a finished trace as Chrome trace-event JSON.
///
/// The timeline is synthesized deterministically from the records (see
/// the module docs); the only wall-clock content is the span `dur`
/// values, which come from the records' `dur_ns` fields.
pub fn render_trace(buffer: &TraceBuffer) -> String {
    let mut out = Vec::new();
    write_trace(buffer, &mut out).expect("writing to a Vec cannot fail");
    String::from_utf8(out).expect("the writer emits UTF-8")
}

/// Streams a finished trace into `out` as Chrome trace-event JSON,
/// byte for byte what [`render_trace`] returns. Each record is printed
/// as the walk reaches it; pass a buffered writer for a file.
pub fn write_trace(buffer: &TraceBuffer, out: impl io::Write) -> io::Result<()> {
    let mut w = EventWriter {
        out,
        buf: String::new(),
        events: 0,
    };
    w.out.write_all(b"{\n  \"traceEvents\": [\n")?;
    for (name, tid, label) in [
        ("process_name", LANE_TICK, "vmt-sim"),
        ("thread_name", LANE_TICK, "tick"),
        ("thread_name", LANE_ZONES, "zones"),
        ("thread_name", LANE_PLACEMENT, "placement"),
        ("thread_name", LANE_ANOMALIES, "anomalies"),
    ] {
        w.event(
            name,
            "__metadata",
            Place::Meta,
            tid,
            &[("name", Arg::Str(label))],
        )?;
    }
    // Group records by tick (they arrive in tick order) and lay each
    // tick out from a running cursor.
    let mut cursor_ns: u64 = 0;
    for group in buffer.records.chunk_by(|a, b| a.tick() == b.tick()) {
        let tick_record = group.iter().find_map(|r| match r {
            SpanRecord::Tick { tick, seq, dur_ns } => Some((*tick, *seq, *dur_ns)),
            _ => None,
        });
        // The tick span (pushed last in its group) sets the group's
        // width; a group whose tick record was dropped by the ring
        // falls back to the sum of its phase spans.
        let tick_dur_ns = tick_record.map_or_else(
            || {
                group
                    .iter()
                    .map(|r| match r {
                        SpanRecord::Phase { dur_ns, .. } => *dur_ns,
                        _ => 0,
                    })
                    .sum()
            },
            |(_, _, dur_ns)| dur_ns,
        );
        // The tick span must be *emitted* first: the nesting validator
        // — like trace viewers — expects an enclosing span to open
        // before its children.
        if let Some((tick, seq, dur_ns)) = tick_record {
            let place = Place::Span {
                ts_ns: cursor_ns,
                dur_ns,
            };
            let id = [("tick", Arg::Int(tick)), ("seq", Arg::Int(seq.into()))];
            w.event("tick", "tick", place, LANE_TICK, &id)?;
        }
        let mut phase_cursor_ns = cursor_ns;
        let mut zone_cursor_ns = cursor_ns;
        for record in group {
            match record {
                SpanRecord::Tick { .. } => {}
                SpanRecord::Phase {
                    tick,
                    seq,
                    phase,
                    dur_ns,
                } => {
                    let place = Place::Span {
                        ts_ns: phase_cursor_ns,
                        dur_ns: *dur_ns,
                    };
                    let id = [("tick", Arg::Int(*tick)), ("seq", Arg::Int((*seq).into()))];
                    w.event(phase.name(), "phase", place, LANE_TICK, &id)?;
                    phase_cursor_ns += dur_ns;
                }
                SpanRecord::Zone {
                    tick,
                    seq,
                    zone,
                    dur_ns,
                    temp_c,
                    duty,
                } => {
                    let place = Place::Span {
                        ts_ns: zone_cursor_ns,
                        dur_ns: *dur_ns,
                    };
                    let args = [
                        ("tick", Arg::Int(*tick)),
                        ("seq", Arg::Int((*seq).into())),
                        ("zone", Arg::Int((*zone).into())),
                        ("temp_c", Arg::Float(*temp_c)),
                        ("duty", Arg::Float(*duty)),
                    ];
                    w.event(&format!("zone {zone}"), "zone", place, LANE_ZONES, &args)?;
                    zone_cursor_ns += dur_ns;
                }
                SpanRecord::Placement {
                    tick,
                    seq,
                    job,
                    kind,
                    server,
                    zone,
                    duration_ticks,
                } => {
                    let place = Place::Instant {
                        ts_ns: cursor_ns + *seq as u64,
                    };
                    let args = [
                        ("tick", Arg::Int(*tick)),
                        ("seq", Arg::Int((*seq).into())),
                        ("job", Arg::Int(*job)),
                        ("kind", Arg::Int((*kind).into())),
                        ("server", opt_arg(*server)),
                        ("zone", opt_arg(*zone)),
                        ("duration_ticks", Arg::Int((*duration_ticks).into())),
                    ];
                    w.event("placement", "placement", place, LANE_PLACEMENT, &args)?;
                }
                SpanRecord::Decision {
                    tick,
                    seq,
                    job,
                    rung,
                    chosen,
                    winning_key,
                    candidates,
                } => {
                    let place = Place::Instant {
                        ts_ns: cursor_ns + *seq as u64,
                    };
                    let args = [
                        ("tick", Arg::Int(*tick)),
                        ("seq", Arg::Int((*seq).into())),
                        ("job", Arg::Int(*job)),
                        ("rung", Arg::Str(rung)),
                        ("chosen", opt_arg(*chosen)),
                        ("winning_key", winning_key.map_or(Arg::Null, Arg::Float)),
                        ("candidates", Arg::Candidates(candidates)),
                    ];
                    w.event("decision", "decision", place, LANE_PLACEMENT, &args)?;
                }
                SpanRecord::Anomaly {
                    tick,
                    seq,
                    watchdog,
                    server,
                    value,
                } => {
                    let place = Place::Instant {
                        ts_ns: cursor_ns + *seq as u64,
                    };
                    let args = [
                        ("tick", Arg::Int(*tick)),
                        ("seq", Arg::Int((*seq).into())),
                        ("watchdog", Arg::Str(watchdog)),
                        ("server", opt_arg(*server)),
                        ("value", Arg::Float(*value)),
                    ];
                    w.event(watchdog, "anomaly", place, LANE_ANOMALIES, &args)?;
                }
            }
        }
        // Advance past this tick; a floor of 1 µs keeps zero-duration
        // ticks (possible on a coarse clock) from stacking instants of
        // successive ticks on the same timestamp.
        cursor_ns += tick_dur_ns.max(1000);
    }
    write!(
        w.out,
        "\n  ],\n  \"displayTimeUnit\": \"ms\",\n  \"otherData\": {{\n    \
         \"exporter\": \"vmt-telemetry\",\n    \"schema\": 1,\n    \"dropped\": {}\n  }}\n}}\n",
        buffer.dropped
    )
}

// ---------------------------------------------------------------------
// Reader
// ---------------------------------------------------------------------

/// One token of a JSON document. Strings borrow from the input unless
/// they hold an escape.
#[derive(Debug, PartialEq)]
enum Token<'a> {
    Null,
    Bool(bool),
    U64(u64),
    I64(i64),
    F64(f64),
    Str(Cow<'a, str>),
    BeginObject,
    BeginArray,
    /// An object key, its `:` already consumed.
    Key(Cow<'a, str>),
    /// The end of the innermost open object or array.
    End,
}

impl Token<'_> {
    /// A non-negative integer, as `serde_json` reads one.
    fn as_u64(&self) -> Option<u64> {
        match *self {
            Token::U64(n) => Some(n),
            Token::I64(n) => u64::try_from(n).ok(),
            _ => None,
        }
    }

    /// Any number, as a float.
    fn as_f64(&self) -> Option<f64> {
        match *self {
            Token::F64(x) => Some(x),
            Token::U64(n) => Some(n as f64),
            Token::I64(n) => Some(n as f64),
            _ => None,
        }
    }

    fn as_str(&self) -> Option<&str> {
        match self {
            Token::Str(s) => Some(s),
            _ => None,
        }
    }
}

/// What the reader expects next.
#[derive(Clone, Copy, PartialEq, Eq)]
enum Expect {
    /// A value: at the start or after `:`.
    Value,
    /// A value or `]`, just after `[`.
    FirstItem,
    /// A key or `}`, just after `{`.
    FirstKey,
    /// `,` and then a key or value, or the closing bracket, after a
    /// value; or the end of input after the top-level one.
    Next,
    /// Nothing: the document and its trailing whitespace are read.
    Done,
}

/// Why a strict read failed.
#[derive(Debug)]
enum Fail {
    /// Malformed JSON (or nesting past [`MAX_DEPTH`]).
    Syntax(String),
    /// Well-formed JSON the trace schema does not admit.
    Shape(String),
}

fn shape(message: impl Into<String>) -> Fail {
    Fail::Shape(message.into())
}

/// A strict pull reader over one JSON document, admitting exactly the
/// grammar of the vendored `serde_json` parser.
struct Reader<'a> {
    text: &'a str,
    pos: usize,
    /// Open containers, innermost last: `true` for an object.
    open: Vec<bool>,
    expect: Expect,
}

impl<'a> Reader<'a> {
    fn new(text: &'a str) -> Self {
        Reader {
            text,
            pos: 0,
            open: Vec::new(),
            expect: Expect::Value,
        }
    }

    #[cold]
    fn syntax<T>(&self, what: &str) -> Result<T, Fail> {
        Err(Fail::Syntax(format!("{what} at byte {}", self.pos)))
    }

    fn peek(&self) -> Option<u8> {
        self.text.as_bytes().get(self.pos).copied()
    }

    fn skip_ws(&mut self) {
        let rest = &self.text.as_bytes()[self.pos..];
        self.pos += rest
            .iter()
            .position(|b| !matches!(b, b' ' | b'\t' | b'\n' | b'\r'))
            .unwrap_or(rest.len());
    }

    /// Whether the document and any trailing whitespace are read.
    fn done(&self) -> bool {
        self.expect == Expect::Done
    }

    /// The next token. Once the top-level value is complete, the next
    /// call checks that only whitespace follows and returns `End`.
    fn token(&mut self) -> Result<Token<'a>, Fail> {
        self.skip_ws();
        let object = match self.expect {
            Expect::Value => return self.value(),
            Expect::FirstItem if self.peek() == Some(b']') => return Ok(self.close()),
            Expect::FirstItem => return self.value(),
            Expect::FirstKey if self.peek() == Some(b'}') => return Ok(self.close()),
            Expect::FirstKey => return self.key_token(),
            Expect::Done => return Ok(Token::End),
            Expect::Next => match self.open.last() {
                Some(&object) => object,
                None if self.pos < self.text.len() => return self.syntax("trailing characters"),
                None => {
                    self.expect = Expect::Done;
                    return Ok(Token::End);
                }
            },
        };
        match (self.peek(), object) {
            (Some(b','), _) => {
                self.pos += 1;
                self.skip_ws();
                if object {
                    self.key_token()
                } else {
                    self.value()
                }
            }
            (Some(b'}'), true) | (Some(b']'), false) => Ok(self.close()),
            (_, true) => self.syntax("expected `,` or `}`"),
            (_, false) => self.syntax("expected `,` or `]`"),
        }
    }

    fn key_token(&mut self) -> Result<Token<'a>, Fail> {
        let key = self.string()?;
        self.skip_ws();
        if self.peek() != Some(b':') {
            return self.syntax("expected `:`");
        }
        self.pos += 1;
        self.expect = Expect::Value;
        Ok(Token::Key(key))
    }

    fn close(&mut self) -> Token<'a> {
        self.pos += 1;
        self.open.pop();
        self.expect = Expect::Next;
        Token::End
    }

    fn value(&mut self) -> Result<Token<'a>, Fail> {
        self.expect = Expect::Next;
        match self.peek() {
            Some(b @ (b'{' | b'[')) => {
                if self.open.len() == MAX_DEPTH {
                    return self.syntax(&format!("nesting deeper than {MAX_DEPTH} levels"));
                }
                self.pos += 1;
                let object = b == b'{';
                self.open.push(object);
                if object {
                    self.expect = Expect::FirstKey;
                    Ok(Token::BeginObject)
                } else {
                    self.expect = Expect::FirstItem;
                    Ok(Token::BeginArray)
                }
            }
            Some(b'"') => self.string().map(Token::Str),
            Some(b'n') => self.literal("null", Token::Null),
            Some(b't') => self.literal("true", Token::Bool(true)),
            Some(b'f') => self.literal("false", Token::Bool(false)),
            Some(b'-' | b'0'..=b'9') => self.number(),
            Some(_) => self.syntax("unexpected character"),
            None => self.syntax("unexpected end of input"),
        }
    }

    fn literal(&mut self, word: &str, token: Token<'a>) -> Result<Token<'a>, Fail> {
        if self.text[self.pos..].starts_with(word) {
            self.pos += word.len();
            Ok(token)
        } else {
            self.syntax("invalid literal")
        }
    }

    /// Same scan and the same conversions, in the same order, as the
    /// vendored parser: an integer that fits `u64`, else `i64`, else a
    /// float.
    fn number(&mut self) -> Result<Token<'a>, Fail> {
        let start = self.pos;
        if self.peek() == Some(b'-') {
            self.pos += 1;
        }
        let mut is_float = false;
        while let Some(b) = self.peek() {
            match b {
                b'0'..=b'9' => {}
                b'.' | b'e' | b'E' | b'+' | b'-' => is_float = true,
                _ => break,
            }
            self.pos += 1;
        }
        let text = &self.text[start..self.pos];
        if !is_float {
            if let Ok(n) = text.parse() {
                return Ok(Token::U64(n));
            }
            if let Ok(n) = text.parse() {
                return Ok(Token::I64(n));
            }
        }
        match text.parse() {
            Ok(x) => Ok(Token::F64(x)),
            Err(_) => Err(Fail::Syntax(format!(
                "invalid number `{text}` at byte {start}"
            ))),
        }
    }

    /// A string literal: borrowed up to its closing quote unless an
    /// escape forces a copy. Like the vendored parser, it admits raw
    /// control characters and rejects `\u` escapes that are not a
    /// scalar value (so surrogates, paired or not).
    fn string(&mut self) -> Result<Cow<'a, str>, Fail> {
        if self.peek() != Some(b'"') {
            return self.syntax("expected `\"`");
        }
        let start = self.pos + 1;
        let mut run = start;
        let mut owned: Option<String> = None;
        loop {
            // Quotes and backslashes are ASCII, so every stop lands on
            // a char boundary.
            let rest = &self.text.as_bytes()[run..];
            let Some(len) = rest.iter().position(|&b| b == b'"' || b == b'\\') else {
                self.pos = self.text.len();
                return self.syntax("unterminated string");
            };
            let stop = run + len;
            let text = &self.text[run..stop];
            if rest[len] == b'"' {
                self.pos = stop + 1;
                return Ok(match owned {
                    Some(mut owned) => {
                        owned.push_str(text);
                        Cow::Owned(owned)
                    }
                    None => Cow::Borrowed(&self.text[start..stop]),
                });
            }
            let owned = owned.get_or_insert_with(String::new);
            owned.push_str(text);
            self.pos = stop;
            owned.push(self.escape()?);
            run = self.pos;
        }
    }

    /// Decodes the escape at `pos` (its backslash) and steps past it.
    fn escape(&mut self) -> Result<char, Fail> {
        self.pos += 1;
        let c = match self.peek() {
            Some(b'"') => '"',
            Some(b'\\') => '\\',
            Some(b'/') => '/',
            Some(b'n') => '\n',
            Some(b'r') => '\r',
            Some(b't') => '\t',
            Some(b'b') => '\u{0008}',
            Some(b'f') => '\u{000c}',
            Some(b'u') => {
                let code = self
                    .text
                    .as_bytes()
                    .get(self.pos + 1..self.pos + 5)
                    .and_then(|hex| std::str::from_utf8(hex).ok())
                    .and_then(|hex| u32::from_str_radix(hex, 16).ok());
                match code.and_then(char::from_u32) {
                    Some(c) => {
                        self.pos += 4;
                        c
                    }
                    None => return self.syntax("invalid \\u escape"),
                }
            }
            _ => return self.syntax("invalid escape"),
        };
        self.pos += 1;
        Ok(c)
    }

    /// The next key of the open object, or `None` at its end.
    fn key(&mut self) -> Result<Option<Cow<'a, str>>, Fail> {
        match self.token()? {
            Token::Key(key) => Ok(Some(key)),
            Token::End => Ok(None),
            _ => self.syntax("expected a key"),
        }
    }

    /// Consumes the rest of the value that begins with `first`.
    fn skip(&mut self, first: Token<'a>) -> Result<(), Fail> {
        let mut depth = usize::from(matches!(first, Token::BeginObject | Token::BeginArray));
        while depth > 0 {
            match self.token()? {
                Token::BeginObject | Token::BeginArray => depth += 1,
                Token::End => depth -= 1,
                _ => {}
            }
        }
        Ok(())
    }

    /// The rest of the value that begins with `first`, as a tree.
    /// Recursion is bounded by [`MAX_DEPTH`].
    fn tree(&mut self, first: Token<'a>) -> Result<Value, Fail> {
        Ok(match first {
            Token::Null => Value::Null,
            Token::Bool(b) => Value::Bool(b),
            Token::U64(n) => Value::U64(n),
            Token::I64(n) => Value::I64(n),
            Token::F64(x) => Value::F64(x),
            Token::Str(s) => Value::Str(s.into_owned()),
            Token::BeginArray => {
                let mut items = Vec::new();
                loop {
                    match self.token()? {
                        Token::End => break Value::Array(items),
                        item => items.push(self.tree(item)?),
                    }
                }
            }
            Token::BeginObject => {
                let mut pairs = Vec::new();
                while let Some(key) = self.key()? {
                    let first = self.token()?;
                    pairs.push((key.into_owned(), self.tree(first)?));
                }
                Value::Object(pairs)
            }
            Token::Key(_) | Token::End => return self.syntax("expected a value"),
        })
    }
}

/// One event as read, before the pass looks at it.
struct Event<'a, A> {
    name: Cow<'a, str>,
    cat: Cow<'a, str>,
    ph: Cow<'a, str>,
    ts: f64,
    dur: Option<f64>,
    pid: u32,
    tid: u32,
    s: Option<Cow<'a, str>>,
    args: A,
}

/// What one pass over a trace document does with what it reads.
trait Pass<'a> {
    /// How the pass holds an event's `args`.
    type Args: Default;
    /// Reads one `args` value; the reader sits just before it.
    fn read_args(r: &mut Reader<'a>) -> Result<Self::Args, Fail>;
    /// Reads the `otherData` value; the reader sits just before it.
    fn other_data(&mut self, r: &mut Reader<'a>) -> Result<(), Fail>;
    /// Takes the `displayTimeUnit` value.
    fn display_time_unit(&mut self, _unit: Cow<'a, str>) {}
    /// Takes the next event, in document order.
    fn event(&mut self, event: Event<'a, Self::Args>);
}

/// Reads a whole trace document through `pass`. A syntax error
/// anywhere outranks a schema error, so after a schema error the rest
/// of the document is still read to its end.
fn read_trace<'a, P: Pass<'a>>(text: &'a str, pass: &mut P) -> Result<(), TraceError> {
    let mut r = Reader::new(text);
    let not_parsed = |message: String| err(format!("trace does not parse: {message}"));
    let shape_error = match read_document(&mut r, pass) {
        Ok(()) => None,
        Err(Fail::Shape(message)) => Some(message),
        Err(Fail::Syntax(message)) => return Err(not_parsed(message)),
    };
    while !r.done() {
        if let Err(Fail::Syntax(message) | Fail::Shape(message)) = r.token() {
            return Err(not_parsed(message));
        }
    }
    shape_error.map_or(Ok(()), |message| Err(not_parsed(message)))
}

fn read_document<'a, P: Pass<'a>>(r: &mut Reader<'a>, pass: &mut P) -> Result<(), Fail> {
    if r.token()? != Token::BeginObject {
        return Err(shape("trace is not an object"));
    }
    let mut has_events = false;
    while let Some(key) = r.key()? {
        match key.as_ref() {
            // Rejected rather than last-one-wins: the first array's
            // events have already been handed to the pass.
            "traceEvents" if has_events => {
                return Err(shape("trace has duplicate field `traceEvents`"));
            }
            "traceEvents" => {
                has_events = true;
                if r.token()? != Token::BeginArray {
                    return Err(shape("traceEvents is not an array"));
                }
                loop {
                    match r.token()? {
                        Token::End => break,
                        Token::BeginObject => pass.event(read_event::<P>(r)?),
                        _ => return Err(shape("trace event is not an object")),
                    }
                }
            }
            "displayTimeUnit" => match r.token()? {
                Token::Str(unit) => pass.display_time_unit(unit),
                _ => return Err(shape("trace field `displayTimeUnit` is not a string")),
            },
            "otherData" => pass.other_data(r)?,
            unknown => return Err(shape(format!("trace has unknown field `{unknown}`"))),
        }
    }
    if !has_events {
        return Err(shape("trace missing traceEvents"));
    }
    Ok(())
}

/// Reads one event's fields; the reader sits just inside its `{`. A
/// repeated field keeps its last value.
fn read_event<'a, P: Pass<'a>>(r: &mut Reader<'a>) -> Result<Event<'a, P::Args>, Fail> {
    let mut event = Event {
        name: Cow::Borrowed(""),
        cat: Cow::Borrowed(""),
        ph: Cow::Borrowed(""),
        ts: f64::NAN,
        dur: None,
        pid: 0,
        tid: 0,
        s: None,
        args: P::Args::default(),
    };
    let mut seen = [false; 4];
    while let Some(key) = r.key()? {
        let field = key.as_ref();
        if field == "args" {
            event.args = P::read_args(r)?;
            continue;
        }
        let value = r.token()?;
        let string = |value: Token<'a>| match value {
            Token::Str(s) => Ok(s),
            _ => Err(shape(format!("trace field `{field}` is not a string"))),
        };
        let number = |value: &Token| {
            value
                .as_f64()
                .ok_or_else(|| shape(format!("trace event {field} is not a number")))
        };
        let small_int = |value: &Token| {
            value
                .as_u64()
                .and_then(|n| u32::try_from(n).ok())
                .ok_or_else(|| shape(format!("trace field `{field}` is not a small integer")))
        };
        match field {
            "name" => (event.name, seen[0]) = (string(value)?, true),
            "cat" => (event.cat, seen[1]) = (string(value)?, true),
            "ph" => (event.ph, seen[2]) = (string(value)?, true),
            "ts" => (event.ts, seen[3]) = (number(&value)?, true),
            "dur" => event.dur = Some(number(&value)?),
            "pid" => event.pid = small_int(&value)?,
            "tid" => event.tid = small_int(&value)?,
            "s" => event.s = Some(string(value)?),
            unknown => return Err(shape(format!("trace event has unknown field `{unknown}`"))),
        }
    }
    for (ok, field) in seen.iter().zip(["name", "cat", "ph", "ts"]) {
        if !ok {
            return Err(shape(format!("trace event missing field `{field}`")));
        }
    }
    Ok(event)
}

// ---------------------------------------------------------------------
// Parse: collect events as trees
// ---------------------------------------------------------------------

/// Collects the events `keep` accepts, with their `args` as trees.
struct Collect<F> {
    events: Vec<ChromeEvent>,
    display_time_unit: String,
    other_data: Value,
    keep: F,
}

impl<'a, F: FnMut(&ChromeEvent) -> bool> Pass<'a> for Collect<F> {
    /// `None` until an `args` field is read.
    type Args = Option<Value>;

    fn read_args(r: &mut Reader<'a>) -> Result<Option<Value>, Fail> {
        let first = r.token()?;
        r.tree(first).map(Some)
    }

    fn other_data(&mut self, r: &mut Reader<'a>) -> Result<(), Fail> {
        let first = r.token()?;
        self.other_data = r.tree(first)?;
        Ok(())
    }

    fn display_time_unit(&mut self, unit: Cow<'a, str>) {
        self.display_time_unit = unit.into_owned();
    }

    fn event(&mut self, event: Event<'a, Option<Value>>) {
        let event = ChromeEvent {
            name: event.name.into_owned(),
            cat: event.cat.into_owned(),
            ph: event.ph.into_owned(),
            ts: event.ts,
            dur: event.dur,
            pid: event.pid,
            tid: event.tid,
            s: event.s.map(Cow::into_owned),
            args: event.args.unwrap_or(Value::Null),
        };
        if (self.keep)(&event) {
            self.events.push(event);
        }
    }
}

/// Strictly parses Chrome trace-event JSON produced by
/// [`render_trace`]. Unknown fields and malformed shapes are errors.
pub fn parse_trace(text: &str) -> Result<ChromeTrace, TraceError> {
    parse_trace_filtered(text, |_| true)
}

/// [`parse_trace`], keeping only the events `keep` accepts. Every
/// event is still read and held to the same strict schema; the others
/// are dropped as soon as they are read, so memory follows what is
/// kept rather than the file.
pub fn parse_trace_filtered(
    text: &str,
    keep: impl FnMut(&ChromeEvent) -> bool,
) -> Result<ChromeTrace, TraceError> {
    let mut collect = Collect {
        events: Vec::new(),
        display_time_unit: "ms".to_string(),
        other_data: Value::Null,
        keep,
    };
    read_trace(text, &mut collect)?;
    Ok(ChromeTrace {
        trace_events: collect.events,
        display_time_unit: collect.display_time_unit,
        other_data: collect.other_data,
    })
}

// ---------------------------------------------------------------------
// Validate: check events as they stream past
// ---------------------------------------------------------------------

/// The `args` fields the checks read. As with [`Value::get_field`],
/// the first occurrence of a repeated key wins. A field holding an
/// array or object is kept as `Null`, which no check accepts either.
#[derive(Default)]
struct Payload<'a> {
    tick: Option<Token<'a>>,
    seq: Option<Token<'a>>,
    job: Option<Token<'a>>,
    duration_ticks: Option<Token<'a>>,
    zone: Option<Token<'a>>,
    temp_c: Option<Token<'a>>,
    duty: Option<Token<'a>>,
    value: Option<Token<'a>>,
    rung: Option<Token<'a>>,
    /// `Some(None)` when `candidates` is not an array.
    candidates: Option<Option<Vec<Candidate>>>,
}

/// A decision candidate's `server` (if an integer) and `key` (if a
/// number).
type Candidate = (Option<u64>, Option<f64>);

/// Hands each member of the object that begins with `first` to
/// `member`, which must consume the member's value; a value that is
/// not an object is skipped.
fn members<'a>(
    r: &mut Reader<'a>,
    first: Token<'a>,
    mut member: impl FnMut(&mut Reader<'a>, Cow<'a, str>) -> Result<(), Fail>,
) -> Result<(), Fail> {
    if first != Token::BeginObject {
        return r.skip(first);
    }
    while let Some(key) = r.key()? {
        member(r, key)?;
    }
    Ok(())
}

/// Reads the next value into `slot` if the slot is given and still
/// empty (an array or object as `Null`), and skips it otherwise.
fn fill<'a>(r: &mut Reader<'a>, slot: Option<&mut Option<Token<'a>>>) -> Result<(), Fail> {
    let value = r.token()?;
    let container = matches!(value, Token::BeginObject | Token::BeginArray);
    match slot {
        Some(slot) if slot.is_none() && !container => {
            *slot = Some(value);
            Ok(())
        }
        Some(slot) if slot.is_none() => {
            *slot = Some(Token::Null);
            r.skip(value)
        }
        _ => r.skip(value),
    }
}

fn read_candidates(r: &mut Reader<'_>) -> Result<Option<Vec<Candidate>>, Fail> {
    let first = r.token()?;
    if first != Token::BeginArray {
        return r.skip(first).map(|()| None);
    }
    let mut candidates = Vec::new();
    loop {
        let item = r.token()?;
        if item == Token::End {
            return Ok(Some(candidates));
        }
        let (mut server, mut key) = (None, None);
        members(r, item, |r, field| match field.as_ref() {
            "server" => fill(r, Some(&mut server)),
            "key" => fill(r, Some(&mut key)),
            _ => fill(r, None),
        })?;
        candidates.push((
            server.as_ref().and_then(Token::as_u64),
            key.as_ref().and_then(Token::as_f64),
        ));
    }
}

/// Validates events as they stream past, keeping only the state the
/// cross-event checks need. The first failed check is kept and later
/// events are only counted: a schema error further on still outranks
/// it.
#[derive(Default)]
struct Validate {
    stats: TraceStats,
    ids: HashSet<(u64, u64)>,
    ticks: HashSet<u64>,
    /// Per-lane stack of open span extents for the nesting check.
    open: HashMap<u32, Vec<(f64, f64)>>,
    failed: Option<TraceError>,
}

impl<'a> Pass<'a> for Validate {
    type Args = Payload<'a>;

    fn read_args(r: &mut Reader<'a>) -> Result<Payload<'a>, Fail> {
        let mut p = Payload::default();
        let first = r.token()?;
        members(r, first, |r, field| {
            let slot = match field.as_ref() {
                "candidates" if p.candidates.is_none() => {
                    p.candidates = Some(read_candidates(r)?);
                    return Ok(());
                }
                "tick" => &mut p.tick,
                "seq" => &mut p.seq,
                "job" => &mut p.job,
                "duration_ticks" => &mut p.duration_ticks,
                "zone" => &mut p.zone,
                "temp_c" => &mut p.temp_c,
                "duty" => &mut p.duty,
                "value" => &mut p.value,
                "rung" => &mut p.rung,
                _ => return fill(r, None),
            };
            fill(r, Some(slot))
        })?;
        Ok(p)
    }

    /// Only `otherData.dropped` matters; the last `otherData` wins.
    fn other_data(&mut self, r: &mut Reader<'a>) -> Result<(), Fail> {
        let mut dropped = None;
        let first = r.token()?;
        members(r, first, |r, field| {
            fill(r, (field == "dropped").then_some(&mut dropped))
        })?;
        self.stats.dropped = dropped.as_ref().and_then(Token::as_u64).unwrap_or(0);
        Ok(())
    }

    fn event(&mut self, event: Event<'a, Payload<'a>>) {
        let at = self.stats.events;
        self.stats.events += 1;
        if self.failed.is_none() {
            self.failed = self.check(&event, at).err();
        }
    }
}

fn require_u64(value: &Option<Token>, field: &str, at: usize) -> Result<u64, TraceError> {
    value.as_ref().and_then(Token::as_u64).ok_or_else(|| {
        err(format!(
            "event {at}: args.{field} missing or not an integer"
        ))
    })
}

fn require_finite(value: &Option<Token>, field: &str, at: usize) -> Result<f64, TraceError> {
    let value = value
        .as_ref()
        .and_then(Token::as_f64)
        .ok_or_else(|| err(format!("event {at}: args.{field} missing or not a number")))?;
    if !value.is_finite() {
        return Err(err(format!("event {at}: args.{field} is not finite")));
    }
    Ok(value)
}

impl Validate {
    fn check(&mut self, event: &Event<'_, Payload<'_>>, at: usize) -> Result<(), TraceError> {
        let stats = &mut self.stats;
        if !event.ts.is_finite() || event.ts < 0.0 {
            return Err(err(format!("event {at}: ts must be finite and >= 0")));
        }
        if event.pid != 1 {
            return Err(err(format!("event {at}: unexpected pid {}", event.pid)));
        }
        match event.ph.as_ref() {
            "M" => {
                if event.cat != "__metadata" {
                    return Err(err(format!("event {at}: metadata must use cat __metadata")));
                }
                return Ok(());
            }
            "X" => {
                let dur = event
                    .dur
                    .ok_or_else(|| err(format!("event {at}: complete span without dur")))?;
                if !dur.is_finite() || dur < 0.0 {
                    return Err(err(format!("event {at}: dur must be finite and >= 0")));
                }
                stats.spans += 1;
                // Nesting: pop closed spans, then require the new span
                // to fit inside whatever is still open on this lane.
                // Work in integral nanoseconds: the renderer lays spans
                // out on an integer ns timeline and divides by 1000 for
                // the µs `ts`/`dur` fields, so scaling back and rounding
                // recovers that timeline exactly — summing the µs floats
                // directly would accumulate ulp error and misreport
                // back-to-back spans as partial overlaps.
                let ts_ns = (event.ts * 1000.0).round();
                let end_ns = ts_ns + (dur * 1000.0).round();
                let lane = self.open.entry(event.tid).or_default();
                while lane.last().is_some_and(|&(_, lane_end)| ts_ns >= lane_end) {
                    lane.pop();
                }
                if let Some(&(start, lane_end)) = lane.last() {
                    if ts_ns < start || end_ns > lane_end {
                        return Err(err(format!(
                            "event {at}: span [{ts_ns}, {end_ns}] ns partially overlaps open span [{start}, {lane_end}] ns on lane {}",
                            event.tid
                        )));
                    }
                }
                lane.push((ts_ns, end_ns));
            }
            "i" => {
                if event.s.as_deref() != Some("t") {
                    return Err(err(format!("event {at}: instant without thread scope")));
                }
            }
            other => return Err(err(format!("event {at}: unsupported ph {other:?}"))),
        }
        let args = &event.args;
        let tick = require_u64(&args.tick, "tick", at)?;
        let seq = require_u64(&args.seq, "seq", at)?;
        if !self.ids.insert((tick, seq)) {
            return Err(err(format!(
                "event {at}: duplicate id (tick {tick}, seq {seq})"
            )));
        }
        let is_span = event.ph == "X";
        match event.cat.as_ref() {
            "tick" => {
                if !is_span {
                    return Err(err(format!("event {at}: tick events must be spans")));
                }
                if !self.ticks.insert(tick) {
                    return Err(err(format!(
                        "event {at}: duplicate tick span for tick {tick}"
                    )));
                }
            }
            "phase" => {
                if !is_span {
                    return Err(err(format!("event {at}: phase events must be spans")));
                }
                stats.phases += 1;
            }
            "zone" => {
                if !is_span {
                    return Err(err(format!("event {at}: zone events must be spans")));
                }
                require_u64(&args.zone, "zone", at)?;
                require_finite(&args.temp_c, "temp_c", at)?;
                require_finite(&args.duty, "duty", at)?;
                stats.zones += 1;
            }
            "placement" => {
                if is_span {
                    return Err(err(format!(
                        "event {at}: placement events must be instants"
                    )));
                }
                require_u64(&args.job, "job", at)?;
                require_u64(&args.duration_ticks, "duration_ticks", at)?;
                stats.placements += 1;
            }
            "decision" => {
                if is_span {
                    return Err(err(format!("event {at}: decision events must be instants")));
                }
                require_u64(&args.job, "job", at)?;
                let rung = args
                    .rung
                    .as_ref()
                    .and_then(Token::as_str)
                    .ok_or_else(|| err(format!("event {at}: args.rung missing")))?;
                if rung.is_empty() {
                    return Err(err(format!("event {at}: args.rung is empty")));
                }
                let candidates = args
                    .candidates
                    .as_ref()
                    .and_then(Option::as_ref)
                    .ok_or_else(|| err(format!("event {at}: args.candidates missing")))?;
                for (c, &(server, key)) in candidates.iter().enumerate() {
                    if server.is_none() {
                        return Err(err(format!("event {at}: candidate {c} has no server")));
                    }
                    let key =
                        key.ok_or_else(|| err(format!("event {at}: candidate {c} has no key")))?;
                    if !key.is_finite() {
                        return Err(err(format!("event {at}: candidate {c} key is not finite")));
                    }
                }
                stats.decisions += 1;
            }
            "anomaly" => {
                if is_span {
                    return Err(err(format!("event {at}: anomaly events must be instants")));
                }
                require_finite(&args.value, "value", at)?;
                stats.anomalies += 1;
            }
            other => return Err(err(format!("event {at}: unknown category {other:?}"))),
        }
        Ok(())
    }
}

/// Validates a rendered trace end to end and returns its statistics.
///
/// Beyond parsing, this checks the renderer's structural contract:
/// every event has a legal `ph` for its shape, timestamps are finite
/// and non-negative, complete spans nest properly within each thread
/// lane (a span starts at or after its predecessor ends, or lies
/// entirely inside it), payloads carry the fields their category
/// promises, and `(tick, seq)` ids are unique. The text is read once;
/// each event is checked as it is read and then dropped.
pub fn validate_trace(text: &str) -> Result<TraceStats, TraceError> {
    let mut validate = Validate::default();
    read_trace(text, &mut validate)?;
    if let Some(failed) = validate.failed {
        return Err(failed);
    }
    let mut stats = validate.stats;
    stats.ticks = validate.ticks.len();
    if stats.spans + stats.placements + stats.decisions + stats.anomalies == 0 {
        return Err(err("trace contains no events"));
    }
    Ok(stats)
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::phases::TickPhase;
    use crate::tracer::{SpanCandidate, TraceSpec, Tracer};

    fn sample_buffer() -> TraceBuffer {
        let mut tracer = Tracer::new(&TraceSpec::default());
        for tick in 1..=3u64 {
            tracer.begin_tick(tick);
            tracer.phase(TickPhase::Inlet, 100);
            tracer.phase(TickPhase::Placement, 2_000);
            tracer.decision(
                tick * 10,
                "hot-balancer",
                Some(5),
                Some(23.0),
                vec![
                    SpanCandidate {
                        server: 5,
                        key: 23.0,
                    },
                    SpanCandidate {
                        server: 9,
                        key: 23.5,
                    },
                ],
            );
            tracer.placement(tick * 10, 0, Some(5), Some(0), 12);
            tracer.phase(TickPhase::Physics, 1_500);
            tracer.zone(0, 700, 22.4, 0.61);
            tracer.zone(1, 650, 22.1, 0.55);
            tracer.anomaly("ThermalViolation", Some(5), 30.2);
            tracer.end_tick(5_000);
        }
        tracer.into_buffer()
    }

    #[test]
    fn render_parse_validate_round_trip() {
        let buffer = sample_buffer();
        let json = render_trace(&buffer);
        let trace = parse_trace(&json).expect("parses");
        // 5 metadata + 9 records per tick * 3 ticks.
        assert_eq!(trace.trace_events.len(), 5 + 9 * 3);
        let stats = validate_trace(&json).expect("validates");
        assert_eq!(stats.ticks, 3);
        assert_eq!(stats.phases, 9);
        assert_eq!(stats.zones, 6);
        assert_eq!(stats.placements, 3);
        assert_eq!(stats.decisions, 3);
        assert_eq!(stats.anomalies, 3);
        assert_eq!(stats.dropped, 0);
    }

    #[test]
    fn render_is_deterministic() {
        let buffer = sample_buffer();
        assert_eq!(render_trace(&buffer), render_trace(&buffer));
    }

    #[test]
    fn event_serde_round_trips() {
        let buffer = sample_buffer();
        let trace = parse_trace(&render_trace(&buffer)).expect("parses");
        let json = serde_json::to_string(&trace).expect("serializes");
        let back = parse_trace(&json).expect("re-parses");
        assert_eq!(back, trace);
    }

    #[test]
    fn ticks_lay_out_sequentially() {
        let buffer = sample_buffer();
        let trace = parse_trace(&render_trace(&buffer)).expect("parses");
        let ticks: Vec<&ChromeEvent> = trace
            .trace_events
            .iter()
            .filter(|e| e.cat == "tick")
            .collect();
        assert_eq!(ticks.len(), 3);
        for pair in ticks.windows(2) {
            assert!(pair[1].ts >= pair[0].ts + pair[0].dur.unwrap());
        }
    }

    #[test]
    fn rejects_garbage_and_unknown_fields() {
        assert!(parse_trace("not json").is_err());
        assert!(parse_trace("{}").is_err());
        let json = r#"{"traceEvents": [], "displayTimeUnit": "ms", "bogus": 1}"#;
        assert!(parse_trace(json).is_err());
        let json = r#"{"traceEvents": [{"name": "x", "cat": "tick", "ph": "X", "ts": 0.0, "dur": 1.0, "pid": 1, "tid": 1, "extra": 2}]}"#;
        assert!(parse_trace(json).is_err());
        // Parses but holds no events: validation rejects it.
        let json = r#"{"traceEvents": [], "displayTimeUnit": "ms"}"#;
        assert!(validate_trace(json).is_err());
    }

    #[test]
    fn rejects_duplicate_ids_and_bad_shapes() {
        let buffer = sample_buffer();
        let json = render_trace(&buffer);
        // Duplicate an event: its (tick, seq) id collides.
        let mut trace = parse_trace(&json).expect("parses");
        let dup = trace
            .trace_events
            .iter()
            .find(|e| e.cat == "placement")
            .expect("has a placement")
            .clone();
        trace.trace_events.push(dup);
        let json = serde_json::to_string(&trace).expect("serializes");
        let error = validate_trace(&json).expect_err("duplicate id rejected");
        assert!(error.message.contains("duplicate id"), "{error}");
        // A span whose dur is missing.
        let mut trace = parse_trace(&render_trace(&buffer)).expect("parses");
        for event in &mut trace.trace_events {
            if event.cat == "tick" {
                event.dur = None;
            }
        }
        let json = serde_json::to_string(&trace).expect("serializes");
        assert!(validate_trace(&json).is_err());
        // An instant stripped of its thread scope.
        let mut trace = parse_trace(&render_trace(&buffer)).expect("parses");
        for event in &mut trace.trace_events {
            if event.ph == "i" {
                event.s = None;
            }
        }
        let json = serde_json::to_string(&trace).expect("serializes");
        assert!(validate_trace(&json).is_err());
    }

    #[test]
    fn rejects_partial_overlap() {
        let buffer = sample_buffer();
        let mut trace = parse_trace(&render_trace(&buffer)).expect("parses");
        // Stretch a phase span past its tick span's end: partial
        // overlap on the tick lane.
        let tick_end = trace
            .trace_events
            .iter()
            .find(|e| e.cat == "tick")
            .map(|e| e.ts + e.dur.unwrap())
            .expect("has a tick span");
        for event in &mut trace.trace_events {
            if event.cat == "phase" {
                event.dur = Some(tick_end - event.ts + 5.0);
                break;
            }
        }
        let json = serde_json::to_string(&trace).expect("serializes");
        let error = validate_trace(&json).expect_err("overlap rejected");
        assert!(error.message.contains("overlaps"), "{error}");
    }

    #[test]
    fn phase_spans_nest_inside_their_tick_span() {
        let buffer = sample_buffer();
        let trace = parse_trace(&render_trace(&buffer)).expect("parses");
        let ticks: Vec<(f64, f64)> = trace
            .trace_events
            .iter()
            .filter(|e| e.cat == "tick")
            .map(|e| (e.ts, e.ts + e.dur.unwrap()))
            .collect();
        for event in trace.trace_events.iter().filter(|e| e.cat == "phase") {
            let end = event.ts + event.dur.unwrap();
            assert!(
                ticks.iter().any(|&(s, e)| event.ts >= s && end <= e),
                "phase span [{}, {end}] outside every tick span",
                event.ts
            );
        }
    }

    #[test]
    fn dropped_count_rides_metadata() {
        let mut buffer = sample_buffer();
        buffer.dropped = 42;
        let stats = validate_trace(&render_trace(&buffer)).expect("validates");
        assert_eq!(stats.dropped, 42);
    }

    /// Whether the pull reader accepts `text` as one JSON document.
    fn is_json(text: &str) -> bool {
        let mut r = Reader::new(text);
        while !r.done() {
            if r.token().is_err() {
                return false;
            }
        }
        true
    }

    fn serde_accepts(text: &str) -> bool {
        serde_json::from_str::<Value>(text).is_ok()
    }

    fn nested(depth: usize) -> String {
        format!("{}{}", "[".repeat(depth), "]".repeat(depth))
    }

    #[test]
    fn reader_admits_exactly_what_serde_json_admits() {
        let cases = [
            "",
            " ",
            "null",
            "nul",
            "nullx",
            "true",
            "tru",
            "false",
            "0",
            "-0",
            "01",
            "1.",
            ".5",
            "-",
            "--1",
            "-.5",
            "1e5",
            "1E+5",
            "1e",
            "1.5e-3",
            "1.e5",
            "18446744073709551616",
            "-9223372036854775809",
            "1e400",
            "1-2",
            "1x",
            "\"\"",
            "\"a",
            "\"\\u0041\"",
            "\"\\u+041\"",
            "\"\\u004\"",
            "\"\\u004g\"",
            "\"\\ud83d\\ude00\"",
            "\"\\udc00\"",
            "\"\\x\"",
            "\"\\/\\b\\f\"",
            "\"raw\ttab\"",
            "\"\u{1}\"",
            "\"θ\\u03b8\"",
            "[]",
            "[ ]",
            "[1,]",
            "[,1]",
            "[1 2]",
            "[1],",
            "{}",
            "{ }",
            "{\"a\":1,}",
            "{\"a\" 1}",
            "{\"a\"}",
            "{1:2}",
            "{\"a\":1}x",
            "[1]\n\t\r ",
            "\u{feff}[]",
            "[\"a\",{\"b\":[]}]",
            "{\"a\":1,\"a\":2}",
            "[1]]",
            "[[1]",
            "{\"a\":{}}}",
        ];
        for text in cases {
            assert_eq!(is_json(text), serde_accepts(text), "{text:?}");
        }
        // The nesting cap: 128 levels parse, 129 do not, and neither
        // does a hostile 100,000-deep opening run.
        for (text, ok) in [
            (nested(MAX_DEPTH), true),
            (nested(MAX_DEPTH + 1), false),
            ("[".repeat(100_000), false),
        ] {
            assert_eq!(is_json(&text), ok);
            assert_eq!(serde_accepts(&text), ok);
        }
    }

    #[test]
    fn strings_borrow_unless_escaped() {
        let mut r = Reader::new(r#"["plain θ", "esc\"aped\u0041"]"#);
        assert_eq!(r.token().unwrap(), Token::BeginArray);
        let Token::Str(plain) = r.token().unwrap() else {
            panic!("expected a string")
        };
        assert!(matches!(plain, Cow::Borrowed("plain θ")));
        let Token::Str(escaped) = r.token().unwrap() else {
            panic!("expected a string")
        };
        assert!(matches!(escaped, Cow::Owned(ref s) if s == "esc\"apedA"));
    }

    #[test]
    fn write_errors_propagate() {
        struct Full;
        impl io::Write for Full {
            fn write(&mut self, _: &[u8]) -> io::Result<usize> {
                Err(io::Error::other("disk full"))
            }
            fn flush(&mut self) -> io::Result<()> {
                Ok(())
            }
        }
        let error = write_trace(&sample_buffer(), Full).expect_err("the sink refuses");
        assert_eq!(error.to_string(), "disk full");
    }

    #[test]
    fn non_finite_floats_render_as_null() {
        let mut tracer = Tracer::new(&TraceSpec::default());
        tracer.begin_tick(1);
        tracer.decision(7, "hot-balancer", Some(2), Some(f64::NAN), Vec::new());
        tracer.zone(0, 10, f64::INFINITY, 0.5);
        tracer.end_tick(100);
        let json = render_trace(&tracer.into_buffer());
        assert!(json.contains("\"winning_key\": null"), "{json}");
        assert!(json.contains("\"temp_c\": null"), "{json}");
        let error = validate_trace(&json).expect_err("a zone temperature must be a number");
        assert!(error.message.contains("args.temp_c"), "{error}");
    }

    #[test]
    fn escaped_keys_count_as_their_text() {
        let json = render_trace(&sample_buffer());
        let escaped = json
            .replace("\"name\":", "\"na\\u006de\":")
            .replace("\"traceEvents\"", "\"trace\\u0045vents\"");
        assert_ne!(escaped, json);
        assert_eq!(validate_trace(&escaped), validate_trace(&json));
        assert_eq!(parse_trace(&escaped), parse_trace(&json));
    }

    #[test]
    fn rejects_wrong_types_and_shapes() {
        let json = render_trace(&sample_buffer());
        let cases = [
            (
                "\"pid\": 1",
                "\"pid\": \"1\"",
                "`pid` is not a small integer",
            ),
            ("\"pid\": 1", "\"pid\": -1", "`pid` is not a small integer"),
            ("\"pid\": 1", "\"pid\": 1.0", "`pid` is not a small integer"),
            (
                "\"tid\": 1",
                "\"tid\": 4294967296",
                "`tid` is not a small integer",
            ),
            (
                "\"tid\": 3",
                "\"tid\": null",
                "`tid` is not a small integer",
            ),
            ("\"ts\": 0.0", "\"ts\": \"0\"", "ts is not a number"),
            ("\"dur\": 0.1", "\"dur\": [0.1]", "dur is not a number"),
            ("\"s\": \"t\"", "\"s\": 1", "`s` is not a string"),
            ("\"cat\": \"tick\"", "\"cat\": {}", "`cat` is not a string"),
            ("\"name\": \"tick\",", "", "missing field `name`"),
            (
                "\"pid\": 1",
                "\"pid\": 1, \"extra\": 2",
                "unknown field `extra`",
            ),
            (
                "\"displayTimeUnit\": \"ms\"",
                "\"displayTimeUnit\": 1",
                "displayTimeUnit",
            ),
            ("\"displayTimeUnit\"", "\"bogus\"", "unknown field `bogus`"),
        ];
        for (from, to, needle) in cases {
            assert!(json.contains(from), "{from}");
            let broken = json.replacen(from, to, 1);
            let error = validate_trace(&broken).expect_err(to);
            assert!(error.message.starts_with("trace does not parse"), "{error}");
            assert!(error.message.contains(needle), "{to}: {error}");
            assert!(parse_trace(&broken).is_err(), "{to}");
        }
        for (text, needle) in [
            ("[]", "trace is not an object"),
            (r#"{"traceEvents": {}}"#, "traceEvents is not an array"),
            (r#"{"traceEvents": [1]}"#, "trace event is not an object"),
            (r#"{"traceEvents": [[]]}"#, "trace event is not an object"),
            (r#"{"otherData": {}}"#, "missing traceEvents"),
        ] {
            let error = validate_trace(text).expect_err(text);
            assert!(error.message.contains(needle), "{text}: {error}");
        }
    }

    #[test]
    fn trailing_bytes_are_rejected_and_whitespace_is_not() {
        let json = render_trace(&sample_buffer());
        assert!(validate_trace(&format!("{json} \n\t")).is_ok());
        for tail in ["x", "{}", ",", "\u{0}"] {
            let error = validate_trace(&format!("{json}{tail}")).expect_err(tail);
            assert!(error.message.contains("trailing characters"), "{error}");
        }
    }

    /// Serializes `trace` compactly with one event appended: a copy of
    /// its first placement, so the `(tick, seq)` id collides.
    fn with_duplicate_placement(trace: &ChromeTrace) -> String {
        let mut trace = trace.clone();
        let dup = trace
            .trace_events
            .iter()
            .find(|e| e.cat == "placement")
            .expect("has a placement")
            .clone();
        trace.trace_events.push(dup);
        serde_json::to_string(&trace).expect("serializes")
    }

    #[test]
    fn syntax_outranks_schema_outranks_checks() {
        let trace = parse_trace(&render_trace(&sample_buffer())).expect("parses");
        let json = with_duplicate_placement(&trace);
        let error = validate_trace(&json).expect_err("duplicate id");
        assert!(error.message.contains("duplicate id"), "{error}");
        // A later syntax error outranks the earlier failed check ...
        let broken = json.replace("\"displayTimeUnit\":\"ms\"", "\"displayTimeUnit\":ms");
        let error = validate_trace(&broken).expect_err("syntax error");
        assert!(error.message.starts_with("trace does not parse"), "{error}");
        // ... and so does a later schema error ...
        let unknown = json.replace("\"displayTimeUnit\"", "\"displayUnit\"");
        let error = validate_trace(&unknown).expect_err("schema error");
        assert!(
            error.message.contains("unknown field `displayUnit`"),
            "{error}"
        );
        // ... which a later syntax error outranks in turn.
        let both = format!("{unknown}x");
        let error = validate_trace(&both).expect_err("syntax error");
        assert!(error.message.contains("trailing characters"), "{error}");
    }

    #[test]
    fn duplicate_trace_events_are_rejected() {
        let json = render_trace(&sample_buffer());
        let events_start = json.find("\"traceEvents\"").unwrap();
        let events_end = json.find("\"displayTimeUnit\"").unwrap();
        let events = &json[events_start..events_end];
        let doubled = json.replacen(events, &format!("{events}{events}"), 1);
        assert!(serde_accepts(&doubled));
        let error = validate_trace(&doubled).expect_err("two traceEvents arrays");
        assert!(
            error.message.contains("duplicate field `traceEvents`"),
            "{error}"
        );
        assert!(parse_trace(&doubled).is_err());
    }

    #[test]
    fn deep_nesting_is_a_parse_error() {
        let json = render_trace(&sample_buffer());
        for depth in [MAX_DEPTH, 100_000] {
            let hostile = json.replacen(
                "\"traceEvents\": [",
                &format!("\"traceEvents\": [{}", "[".repeat(depth)),
                1,
            );
            let error = validate_trace(&hostile).expect_err("too deep or malformed");
            assert!(error.message.starts_with("trace does not parse"), "{error}");
        }
        // Document, `traceEvents`, event and `args` are four levels.
        let deep_args = json.replacen(
            "\"seq\": 0",
            &format!("\"seq\": 0, \"deep\": {}", nested(MAX_DEPTH - 4)),
            1,
        );
        assert!(
            validate_trace(&deep_args).is_ok(),
            "event args may nest to the cap"
        );
        let too_deep = json.replacen(
            "\"seq\": 0",
            &format!("\"seq\": 0, \"deep\": {}", nested(MAX_DEPTH - 3)),
            1,
        );
        let error = validate_trace(&too_deep).expect_err("one level past the cap");
        assert!(error.message.contains("nesting deeper than 128"), "{error}");
    }

    #[test]
    fn first_occurrence_of_an_args_key_wins() {
        let json = render_trace(&sample_buffer());
        // A later non-integer `tick` is ignored, as `Value::get_field`
        // ignores it ...
        let later = json.replace("\"seq\": 0", "\"seq\": 0, \"tick\": \"x\"");
        assert_eq!(validate_trace(&later), validate_trace(&json));
        // ... but an earlier one is what the check sees.
        let earlier = json.replacen("\"tick\": 1,", "\"tick\": \"x\", \"tick\": 1,", 1);
        let error = validate_trace(&earlier).expect_err("first tick is a string");
        assert!(error.message.contains("args.tick"), "{error}");
    }

    #[test]
    fn filtered_parse_keeps_only_what_is_asked_for() {
        let json = render_trace(&sample_buffer());
        let full = parse_trace(&json).expect("parses");
        let decisions =
            parse_trace_filtered(&json, |e| e.cat == "decision").expect("parses filtered");
        let expected: Vec<ChromeEvent> = full
            .trace_events
            .iter()
            .filter(|e| e.cat == "decision")
            .cloned()
            .collect();
        assert_eq!(decisions.trace_events, expected);
        assert_eq!(decisions.other_data, full.other_data);
        // The filter does not relax the schema.
        let broken = json.replacen("\"pid\": 1", "\"pid\": 1, \"extra\": 2", 1);
        assert!(parse_trace_filtered(&broken, |_| false).is_err());
    }

    /// Interesting bytes and fragments for the mutation property.
    const FRAGMENTS: [&str; 32] = [
        "{", "}", "[", "]", ",", ":", "\"", "\\", "\\u", "\\ud800", "\\u+041", "0", "-", ".", "e",
        "+", " ", "\n", "n", "t", "f", "x", "\u{1}", "θ", "01", "1e999", "null", "[[", "]]", "{}",
        "\"a\":1,", "-0",
    ];

    proptest::proptest! {
        #![proptest_config(proptest::prelude::ProptestConfig::with_cases(3000))]

        /// Single edits of a rendered trace — a replaced character, a
        /// truncation, an insertion — are JSON to the reader exactly
        /// when they are to `serde_json`; malformed text is always a
        /// parse error, and nothing panics.
        #[test]
        fn edits_are_json_exactly_when_serde_json_says_so(
            kind in 0u8..3,
            at in 0usize..1_000_000,
            fragment in 0usize..FRAGMENTS.len(),
        ) {
            let json = render_trace(&sample_buffer());
            let mut at = at % (json.len() + 1);
            while !json.is_char_boundary(at) {
                at -= 1;
            }
            let fragment = FRAGMENTS[fragment];
            let edited = match kind {
                0 => {
                    let next = json[at..].chars().next().map_or(0, char::len_utf8);
                    format!("{}{fragment}{}", &json[..at], &json[at + next..])
                }
                1 => json[..at].to_string(),
                _ => format!("{}{fragment}{}", &json[..at], &json[at..]),
            };
            let json_ok = serde_accepts(&edited);
            proptest::prop_assert_eq!(is_json(&edited), json_ok);
            let validated = validate_trace(&edited);
            let parsed = parse_trace(&edited);
            if !json_ok {
                let error = validated.expect_err("malformed text never validates");
                proptest::prop_assert!(error.message.starts_with("trace does not parse"));
                proptest::prop_assert!(parsed.is_err());
            }
        }
    }
}
