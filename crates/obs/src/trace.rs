//! Chrome `trace_event` sink and validator.
//!
//! Events are written in the JSON Array Format that `chrome://tracing`
//! and Perfetto consume: an opening `[`, then one event object per line
//! (each line after the first prefixed with `,`), then a closing `]`
//! written by [`TraceSink::finish`]. Both viewers tolerate a missing
//! `]`, so a trace from a crashed run still loads — and our own
//! [`validate_trace`] accepts the truncated form too.
//!
//! Only complete `"ph":"X"` events are emitted for spans: the duration
//! is known when the span guard drops, so there is no risk of an
//! unmatched `B`/`E` pair even when a panic unwinds through open spans.

use std::fmt::Write as _;
use std::fs::File;
use std::io::{BufWriter, Write};
use std::path::Path;
use std::sync::atomic::{AtomicU64, Ordering};
use std::sync::Mutex;
use std::time::Instant;

/// Global source of small trace thread ids (`tid` fields). Thread ids
/// from the OS are large and unstable; these are dense and stable
/// within a process, which keeps the viewer's track list tidy.
static NEXT_TID: AtomicU64 = AtomicU64::new(0);

thread_local! {
    static MY_TID: u64 = NEXT_TID.fetch_add(1, Ordering::Relaxed);
}

/// The calling thread's dense trace id.
pub fn trace_tid() -> u64 {
    MY_TID.with(|&t| t)
}

/// An argument value attached to a trace event.
#[derive(Clone, Debug)]
pub enum Arg {
    /// Unsigned integer argument.
    U64(u64),
    /// String argument.
    Str(String),
}

impl From<u64> for Arg {
    fn from(v: u64) -> Arg {
        Arg::U64(v)
    }
}

impl From<&str> for Arg {
    fn from(v: &str) -> Arg {
        Arg::Str(v.to_string())
    }
}

impl From<String> for Arg {
    fn from(v: String) -> Arg {
        Arg::Str(v)
    }
}

/// Escapes `s` as JSON string contents (no surrounding quotes): the one
/// escaper behind every hand-rolled JSON document in the workspace, and
/// the inverse of the string rule in [`parse_json`].
pub fn json_escape(s: &str) -> String {
    let mut out = String::with_capacity(s.len());
    for c in s.chars() {
        match c {
            '"' => out.push_str("\\\""),
            '\\' => out.push_str("\\\\"),
            '\n' => out.push_str("\\n"),
            '\r' => out.push_str("\\r"),
            '\t' => out.push_str("\\t"),
            c if (c as u32) < 0x20 => {
                let _ = write!(out, "\\u{:04x}", c as u32);
            }
            c => out.push(c),
        }
    }
    out
}

struct TraceWriter {
    out: BufWriter<File>,
    first: bool,
    finished: bool,
}

/// A thread-safe Chrome trace_event writer anchored at its creation
/// instant (all timestamps are microseconds since then).
pub struct TraceSink {
    w: Mutex<TraceWriter>,
    start: Instant,
    fail_io: std::sync::atomic::AtomicBool,
    dropped: AtomicU64,
}

impl TraceSink {
    /// Opens `path` for writing and emits the array opener plus a
    /// process-name metadata event.
    pub fn create(path: &Path) -> std::io::Result<TraceSink> {
        let mut out = BufWriter::new(File::create(path)?);
        out.write_all(b"[\n")?;
        let sink = TraceSink {
            w: Mutex::new(TraceWriter {
                out,
                first: true,
                finished: false,
            }),
            start: Instant::now(),
            fail_io: std::sync::atomic::AtomicBool::new(false),
            dropped: AtomicU64::new(0),
        };
        sink.emit_raw(
            "{\"name\":\"process_name\",\"ph\":\"M\",\"pid\":1,\"tid\":0,\
             \"args\":{\"name\":\"dsolve\"}}",
        );
        Ok(sink)
    }

    /// Microseconds elapsed since the sink was created at `t`.
    pub fn ts_us(&self, t: Instant) -> u64 {
        t.saturating_duration_since(self.start).as_micros() as u64
    }

    /// Simulates a trace-writer I/O failure (the `trace-io` fault
    /// point): every subsequent event write and the closing bracket are
    /// dropped, exactly as a really failed `write` is. Verification must
    /// be unaffected — the trace file is simply truncated.
    pub fn simulate_io_failure(&self) {
        self.fail_io.store(true, Ordering::Relaxed);
    }

    /// Events dropped because the writer was (simulated-)failing.
    pub fn dropped_events(&self) -> u64 {
        self.dropped.load(Ordering::Relaxed)
    }

    fn emit_raw(&self, line: &str) {
        if self.fail_io.load(Ordering::Relaxed) {
            self.dropped.fetch_add(1, Ordering::Relaxed);
            return;
        }
        let mut w = self.w.lock().unwrap_or_else(|e| e.into_inner());
        if w.finished {
            return;
        }
        let prefix: &[u8] = if w.first { b"" } else { b",\n" };
        w.first = false;
        // Trace IO failure must never fail verification; drop the event.
        let _ = w.out.write_all(prefix);
        let _ = w.out.write_all(line.as_bytes());
    }

    fn render_common(name: &str, cat: &str, tid: u64) -> String {
        let mut line = String::with_capacity(128);
        line.push_str("{\"name\":\"");
        line.push_str(&json_escape(name));
        line.push_str("\",\"cat\":\"");
        line.push_str(&json_escape(cat));
        let _ = write!(line, "\",\"pid\":1,\"tid\":{tid}");
        line
    }

    fn render_args(line: &mut String, args: &[(&str, Arg)]) {
        if args.is_empty() {
            return;
        }
        line.push_str(",\"args\":{");
        for (i, (k, v)) in args.iter().enumerate() {
            if i > 0 {
                line.push(',');
            }
            line.push('"');
            line.push_str(&json_escape(k));
            line.push_str("\":");
            match v {
                Arg::U64(n) => {
                    let _ = write!(line, "{n}");
                }
                Arg::Str(s) => {
                    line.push('"');
                    line.push_str(&json_escape(s));
                    line.push('"');
                }
            }
        }
        line.push('}');
    }

    /// Emits a complete (`"ph":"X"`) span event.
    pub fn emit_complete(
        &self,
        name: &str,
        cat: &str,
        start: Instant,
        dur_us: u64,
        args: &[(&str, Arg)],
    ) {
        let mut line = Self::render_common(name, cat, trace_tid());
        let _ = write!(
            line,
            ",\"ph\":\"X\",\"ts\":{},\"dur\":{}",
            self.ts_us(start),
            dur_us
        );
        Self::render_args(&mut line, args);
        line.push('}');
        self.emit_raw(&line);
    }

    /// Emits an instant (`"ph":"i"`) event.
    pub fn emit_instant(&self, name: &str, cat: &str, args: &[(&str, Arg)]) {
        let mut line = Self::render_common(name, cat, trace_tid());
        let _ = write!(
            line,
            ",\"ph\":\"i\",\"s\":\"t\",\"ts\":{}",
            self.ts_us(Instant::now())
        );
        Self::render_args(&mut line, args);
        line.push('}');
        self.emit_raw(&line);
    }

    /// Closes the JSON array and flushes. Further events are dropped.
    pub fn finish(&self) {
        let mut w = self.w.lock().unwrap_or_else(|e| e.into_inner());
        if w.finished {
            return;
        }
        w.finished = true;
        if self.fail_io.load(Ordering::Relaxed) {
            return;
        }
        let _ = w.out.write_all(b"\n]\n");
        let _ = w.out.flush();
    }
}

impl Drop for TraceSink {
    fn drop(&mut self) {
        self.finish();
    }
}

// ---------------------------------------------------------------------
// Validation: a minimal JSON parser plus trace_event schema checks,
// used by the schema tests and the check.sh trace smoke.
// ---------------------------------------------------------------------

/// A parsed JSON value (just enough for trace validation).
#[derive(Clone, Debug, PartialEq)]
pub enum Json {
    /// `null`
    Null,
    /// `true` / `false`
    Bool(bool),
    /// Any number.
    Num(f64),
    /// A string.
    Str(String),
    /// An array.
    Arr(Vec<Json>),
    /// An object, fields in source order.
    Obj(Vec<(String, Json)>),
}

impl Json {
    /// Field lookup on objects.
    pub fn get(&self, key: &str) -> Option<&Json> {
        match self {
            Json::Obj(fields) => fields.iter().find(|(k, _)| k == key).map(|(_, v)| v),
            _ => None,
        }
    }

    /// The string contents, if this is a string.
    pub fn as_str(&self) -> Option<&str> {
        match self {
            Json::Str(s) => Some(s),
            _ => None,
        }
    }

    /// The numeric value, if this is a number.
    pub fn as_num(&self) -> Option<f64> {
        match self {
            Json::Num(n) => Some(*n),
            _ => None,
        }
    }

    /// The elements, if this is an array.
    pub fn as_arr(&self) -> Option<&[Json]> {
        match self {
            Json::Arr(items) => Some(items),
            _ => None,
        }
    }

    /// The fields in source order, if this is an object.
    pub fn as_obj(&self) -> Option<&[(String, Json)]> {
        match self {
            Json::Obj(fields) => Some(fields),
            _ => None,
        }
    }
}

struct Parser<'a> {
    s: &'a [u8],
    i: usize,
}

impl<'a> Parser<'a> {
    fn err(&self, msg: &str) -> String {
        format!("json error at byte {}: {}", self.i, msg)
    }

    fn skip_ws(&mut self) {
        while self.i < self.s.len() && self.s[self.i].is_ascii_whitespace() {
            self.i += 1;
        }
    }

    fn peek(&mut self) -> Option<u8> {
        self.skip_ws();
        self.s.get(self.i).copied()
    }

    fn expect(&mut self, b: u8) -> Result<(), String> {
        if self.peek() == Some(b) {
            self.i += 1;
            Ok(())
        } else {
            Err(self.err(&format!("expected '{}'", b as char)))
        }
    }

    fn value(&mut self) -> Result<Json, String> {
        match self.peek() {
            Some(b'{') => self.object(),
            Some(b'[') => self.array(),
            Some(b'"') => Ok(Json::Str(self.string()?)),
            Some(b't') => self.lit("true", Json::Bool(true)),
            Some(b'f') => self.lit("false", Json::Bool(false)),
            Some(b'n') => self.lit("null", Json::Null),
            Some(c) if c == b'-' || c.is_ascii_digit() => self.number(),
            _ => Err(self.err("expected a value")),
        }
    }

    fn lit(&mut self, word: &str, v: Json) -> Result<Json, String> {
        if self.s[self.i..].starts_with(word.as_bytes()) {
            self.i += word.len();
            Ok(v)
        } else {
            Err(self.err(&format!("expected '{word}'")))
        }
    }

    fn number(&mut self) -> Result<Json, String> {
        let start = self.i;
        if self.s.get(self.i) == Some(&b'-') {
            self.i += 1;
        }
        while self
            .s
            .get(self.i)
            .is_some_and(|c| c.is_ascii_digit() || matches!(c, b'.' | b'e' | b'E' | b'+' | b'-'))
        {
            self.i += 1;
        }
        std::str::from_utf8(&self.s[start..self.i])
            .ok()
            .and_then(|t| t.parse::<f64>().ok())
            .map(Json::Num)
            .ok_or_else(|| self.err("bad number"))
    }

    fn string(&mut self) -> Result<String, String> {
        self.expect(b'"')?;
        let mut out = String::new();
        loop {
            match self.s.get(self.i) {
                None => return Err(self.err("unterminated string")),
                Some(b'"') => {
                    self.i += 1;
                    return Ok(out);
                }
                Some(b'\\') => {
                    self.i += 1;
                    match self.s.get(self.i) {
                        Some(b'"') => out.push('"'),
                        Some(b'\\') => out.push('\\'),
                        Some(b'/') => out.push('/'),
                        Some(b'n') => out.push('\n'),
                        Some(b'r') => out.push('\r'),
                        Some(b't') => out.push('\t'),
                        Some(b'b') => out.push('\u{8}'),
                        Some(b'f') => out.push('\u{c}'),
                        Some(b'u') => {
                            let hex = self
                                .s
                                .get(self.i + 1..self.i + 5)
                                .ok_or_else(|| self.err("short \\u escape"))?;
                            let code = std::str::from_utf8(hex)
                                .ok()
                                .and_then(|h| u32::from_str_radix(h, 16).ok())
                                .ok_or_else(|| self.err("bad \\u escape"))?;
                            out.push(char::from_u32(code).unwrap_or('\u{fffd}'));
                            self.i += 4;
                        }
                        _ => return Err(self.err("bad escape")),
                    }
                    self.i += 1;
                }
                Some(&c) => {
                    // Multi-byte UTF-8: copy the whole sequence through.
                    let len = match c {
                        c if c < 0x80 => 1,
                        c if c >= 0xf0 => 4,
                        c if c >= 0xe0 => 3,
                        _ => 2,
                    };
                    let chunk = self
                        .s
                        .get(self.i..self.i + len)
                        .ok_or_else(|| self.err("truncated utf-8"))?;
                    out.push_str(
                        std::str::from_utf8(chunk).map_err(|_| self.err("invalid utf-8"))?,
                    );
                    self.i += len;
                }
            }
        }
    }

    fn array(&mut self) -> Result<Json, String> {
        self.expect(b'[')?;
        let mut items = Vec::new();
        if self.peek() == Some(b']') {
            self.i += 1;
            return Ok(Json::Arr(items));
        }
        loop {
            items.push(self.value()?);
            match self.peek() {
                Some(b',') => self.i += 1,
                Some(b']') => {
                    self.i += 1;
                    return Ok(Json::Arr(items));
                }
                // A trace from a crashed run may simply end here.
                None => return Ok(Json::Arr(items)),
                _ => return Err(self.err("expected ',' or ']'")),
            }
        }
    }

    fn object(&mut self) -> Result<Json, String> {
        self.expect(b'{')?;
        let mut fields = Vec::new();
        if self.peek() == Some(b'}') {
            self.i += 1;
            return Ok(Json::Obj(fields));
        }
        loop {
            let key = self.string()?;
            self.expect(b':')?;
            let val = self.value()?;
            fields.push((key, val));
            match self.peek() {
                Some(b',') => self.i += 1,
                Some(b'}') => {
                    self.i += 1;
                    return Ok(Json::Obj(fields));
                }
                _ => return Err(self.err("expected ',' or '}'")),
            }
        }
    }
}

/// Parses a complete JSON document.
pub fn parse_json(text: &str) -> Result<Json, String> {
    let mut p = Parser {
        s: text.as_bytes(),
        i: 0,
    };
    let v = p.value()?;
    p.skip_ws();
    if p.i != p.s.len() {
        return Err(p.err("trailing garbage"));
    }
    Ok(v)
}

/// Summary of a validated trace.
#[derive(Debug, Default)]
pub struct TraceSummary {
    /// Total events.
    pub events: usize,
    /// Complete (`X`) span events.
    pub spans: usize,
    /// Instant (`i`) events.
    pub instants: usize,
    /// Metadata (`M`) events.
    pub metadata: usize,
    /// Distinct span names seen.
    pub names: Vec<String>,
}

impl TraceSummary {
    /// Whether any span with this exact name was seen.
    pub fn has_span(&self, name: &str) -> bool {
        self.names.iter().any(|n| n == name)
    }

    /// Whether any span name starts with `prefix`.
    pub fn has_span_prefix(&self, prefix: &str) -> bool {
        self.names.iter().any(|n| n.starts_with(prefix))
    }
}

/// Validates trace text against the Chrome trace_event schema: the
/// document must parse as a JSON array (a missing closing `]` is
/// tolerated, matching the viewers), every element must be an object
/// with string `name`/`ph` fields, and every `X` event must carry
/// numeric non-negative `ts` and `dur`.
pub fn validate_trace(text: &str) -> Result<TraceSummary, String> {
    let doc = parse_json(text.trim_end().trim_end_matches(','))?;
    let events = match doc {
        Json::Arr(events) => events,
        _ => return Err("trace is not a JSON array".into()),
    };
    let mut summary = TraceSummary::default();
    for (i, ev) in events.iter().enumerate() {
        let fail = |msg: &str| Err(format!("event {i}: {msg}"));
        if !matches!(ev, Json::Obj(_)) {
            return fail("not an object");
        }
        let name = match ev.get("name").and_then(Json::as_str) {
            Some(n) => n,
            None => return fail("missing string 'name'"),
        };
        let ph = match ev.get("ph").and_then(Json::as_str) {
            Some(p) => p,
            None => return fail("missing string 'ph'"),
        };
        summary.events += 1;
        match ph {
            "X" => {
                for field in ["ts", "dur"] {
                    match ev.get(field).and_then(Json::as_num) {
                        Some(v) if v >= 0.0 => {}
                        _ => return fail(&format!("'X' event missing numeric '{field}'")),
                    }
                }
                summary.spans += 1;
                if !summary.names.iter().any(|n| n == name) {
                    summary.names.push(name.to_string());
                }
            }
            "i" => summary.instants += 1,
            "M" => summary.metadata += 1,
            other => return fail(&format!("unsupported phase '{other}'")),
        }
    }
    Ok(summary)
}

/// Reads and validates a trace file.
pub fn validate_trace_file(path: &Path) -> Result<TraceSummary, String> {
    let text =
        std::fs::read_to_string(path).map_err(|e| format!("read {}: {e}", path.display()))?;
    validate_trace(&text)
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn escapes_special_chars() {
        let raw = "a\"b\\c\nd\u{1}\te\r";
        let s = json_escape(raw);
        assert_eq!(s, "a\\\"b\\\\c\\nd\\u0001\\te\\r");
        // The escaped text parses back to the original string.
        let doc = format!("{{\"name\": \"{s}\"}}");
        let v = parse_json(&doc).unwrap();
        assert_eq!(v.get("name").and_then(Json::as_str), Some(raw));
    }

    #[test]
    fn parses_round_trip() {
        let v = parse_json(r#"{"a":[1,2.5,"x\"y"],"b":null,"c":true}"#).unwrap();
        assert_eq!(v.get("b"), Some(&Json::Null));
        assert_eq!(v.get("c"), Some(&Json::Bool(true)));
        match v.get("a") {
            Some(Json::Arr(items)) => {
                assert_eq!(items[1].as_num(), Some(2.5));
                assert_eq!(items[2].as_str(), Some("x\"y"));
            }
            other => panic!("bad parse: {other:?}"),
        }
    }

    #[test]
    fn truncated_array_is_tolerated() {
        let text = "[\n{\"name\":\"p\",\"ph\":\"M\",\"pid\":1}\n,{\"name\":\"s\",\
                    \"ph\":\"X\",\"ts\":1,\"dur\":2}";
        let summary = validate_trace(text).unwrap();
        assert_eq!(summary.events, 2);
        assert_eq!(summary.spans, 1);
    }

    #[test]
    fn rejects_span_without_duration() {
        let text = "[{\"name\":\"s\",\"ph\":\"X\",\"ts\":1}]";
        assert!(validate_trace(text).is_err());
    }
}
