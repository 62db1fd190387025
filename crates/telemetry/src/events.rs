//! Structured JSONL event log.
//!
//! One global log, disabled by default. Each event is a single JSON line —
//! `{"ms":…,"seq":…,"level":"info","target":"wal","msg":"…", …fields}` —
//! written to an installed sink (stderr, a file, or a test buffer). Events
//! carry a `target` (component name: `"wal"`, `"compaction"`), are
//! filtered by one global minimum level, and are rate-limited per target
//! per second so a hot loop cannot flood the sink; [`uninstall_events`]
//! returns how many were suppressed.
//!
//! The disabled path is one relaxed atomic load; levels, limits, and the
//! sink are only consulted once an event passes it.

use std::collections::HashMap;
use std::io::Write;
use std::sync::atomic::{AtomicBool, Ordering};
use std::sync::Mutex;
use std::time::Instant;

/// Event severity, in ascending order.
#[derive(Clone, Copy, Debug, PartialEq, Eq, PartialOrd, Ord)]
pub enum Level {
    Debug,
    Info,
    Warn,
    Error,
}

impl Level {
    fn as_str(self) -> &'static str {
        match self {
            Level::Debug => "debug",
            Level::Info => "info",
            Level::Warn => "warn",
            Level::Error => "error",
        }
    }
}

/// A typed field value; renders as native JSON.
#[derive(Clone, Debug)]
pub enum FieldValue {
    U64(u64),
    I64(i64),
    F64(f64),
    Bool(bool),
    Str(String),
}

impl From<u64> for FieldValue {
    fn from(v: u64) -> Self {
        FieldValue::U64(v)
    }
}
impl From<usize> for FieldValue {
    fn from(v: usize) -> Self {
        FieldValue::U64(v as u64)
    }
}
impl From<i64> for FieldValue {
    fn from(v: i64) -> Self {
        FieldValue::I64(v)
    }
}
impl From<f64> for FieldValue {
    fn from(v: f64) -> Self {
        FieldValue::F64(v)
    }
}
impl From<bool> for FieldValue {
    fn from(v: bool) -> Self {
        FieldValue::Bool(v)
    }
}
impl From<&str> for FieldValue {
    fn from(v: &str) -> Self {
        FieldValue::Str(v.to_string())
    }
}
impl From<String> for FieldValue {
    fn from(v: String) -> Self {
        FieldValue::Str(v)
    }
}

struct LogState {
    sink: Box<dyn Write + Send>,
    start: Instant,
    seq: u64,
    min_level: Level,
    /// Max events per target per second; 0 = unlimited.
    rate_limit: u32,
    /// target -> (second window, events emitted in it).
    windows: HashMap<String, (u64, u32)>,
    dropped: u64,
}

static ACTIVE: AtomicBool = AtomicBool::new(false);
static STATE: Mutex<Option<LogState>> = Mutex::new(None);

/// Installs a sink and enables the event log. Events below `min_level` are
/// dropped; `rate_limit` caps events per target per second (0 = unlimited).
pub fn install_events(sink: Box<dyn Write + Send>, min_level: Level, rate_limit: u32) {
    let mut state = STATE.lock().unwrap();
    *state = Some(LogState {
        sink,
        start: Instant::now(),
        seq: 0,
        min_level,
        rate_limit,
        windows: HashMap::new(),
        dropped: 0,
    });
    ACTIVE.store(true, Ordering::Relaxed);
}

/// Disables the log, flushes, and drops the sink. Returns the number of
/// rate-limited (dropped) events over the log's lifetime.
pub fn uninstall_events() -> u64 {
    ACTIVE.store(false, Ordering::Relaxed);
    let mut state = STATE.lock().unwrap();
    match state.take() {
        Some(mut s) => {
            let _ = s.sink.flush();
            s.dropped
        }
        None => 0,
    }
}

// String escaping is the shared JSON module's — one implementation for the
// event log, the exposition, and the server DTOs.
use crate::json::{escape_into, render_number};

/// Emits one structured event. Cheap no-op (one atomic load) while the log
/// is not installed. `fields` render as extra JSON keys on the line.
pub fn event(level: Level, target: &str, msg: &str, fields: &[(&str, FieldValue)]) {
    if !ACTIVE.load(Ordering::Relaxed) {
        return;
    }
    let mut guard = STATE.lock().unwrap();
    let state = match guard.as_mut() {
        Some(s) => s,
        None => return,
    };
    if level < state.min_level {
        return;
    }
    let ms = state.start.elapsed().as_millis() as u64;
    if state.rate_limit > 0 {
        let window = ms / 1000;
        let entry = state
            .windows
            .entry(target.to_string())
            .or_insert((window, 0));
        if entry.0 != window {
            *entry = (window, 0);
        }
        if entry.1 >= state.rate_limit {
            state.dropped += 1;
            return;
        }
        entry.1 += 1;
    }
    state.seq += 1;
    let mut line = String::with_capacity(96);
    line.push_str(&format!(
        "{{\"ms\":{ms},\"seq\":{},\"level\":\"{}\",\"target\":\"",
        state.seq,
        level.as_str()
    ));
    escape_into(&mut line, target);
    line.push_str("\",\"msg\":\"");
    escape_into(&mut line, msg);
    line.push('"');
    for (key, value) in fields {
        line.push_str(",\"");
        escape_into(&mut line, key);
        line.push_str("\":");
        match value {
            FieldValue::U64(v) => line.push_str(&v.to_string()),
            FieldValue::I64(v) => line.push_str(&v.to_string()),
            FieldValue::F64(v) => render_number(&mut line, *v),
            FieldValue::Bool(v) => line.push_str(if *v { "true" } else { "false" }),
            FieldValue::Str(v) => {
                line.push('"');
                escape_into(&mut line, v);
                line.push('"');
            }
        }
    }
    line.push_str("}\n");
    let _ = state.sink.write_all(line.as_bytes());
}

/// `event!(Level::Info, "wal", "replayed records", applied = n, path = p)` —
/// sugar over [`event`] converting field values via `Into<FieldValue>`.
#[macro_export]
macro_rules! event {
    ($level:expr, $target:expr, $msg:expr $(, $key:ident = $value:expr)* $(,)?) => {
        $crate::event(
            $level,
            $target,
            $msg,
            &[$((stringify!($key), $crate::FieldValue::from($value))),*],
        )
    };
}

#[cfg(test)]
mod tests {
    use super::*;
    use std::sync::{Arc, Mutex as StdMutex};

    /// Shared in-memory sink for asserting on emitted lines.
    #[derive(Clone, Default)]
    struct Buffer(Arc<StdMutex<Vec<u8>>>);

    impl Write for Buffer {
        fn write(&mut self, buf: &[u8]) -> std::io::Result<usize> {
            self.0.lock().unwrap().extend_from_slice(buf);
            Ok(buf.len())
        }
        fn flush(&mut self) -> std::io::Result<()> {
            Ok(())
        }
    }

    impl Buffer {
        fn contents(&self) -> String {
            String::from_utf8(self.0.lock().unwrap().clone()).unwrap()
        }
    }

    // The log is process-global; serialize tests that install it.
    static GATE: StdMutex<()> = StdMutex::new(());

    #[test]
    fn events_render_as_jsonl_with_fields() {
        let _g = GATE.lock().unwrap();
        let buf = Buffer::default();
        install_events(Box::new(buf.clone()), Level::Debug, 0);
        event!(
            Level::Info,
            "wal",
            "replayed",
            applied = 42u64,
            clean = true,
            path = "shard-0/wal.log"
        );
        uninstall_events();
        let out = buf.contents();
        assert_eq!(out.lines().count(), 1);
        let line = out.lines().next().unwrap();
        assert!(line.starts_with("{\"ms\":"));
        assert!(line.contains("\"level\":\"info\""));
        assert!(line.contains("\"target\":\"wal\""));
        assert!(line.contains("\"msg\":\"replayed\""));
        assert!(line.contains("\"applied\":42"));
        assert!(line.contains("\"clean\":true"));
        assert!(line.contains("\"path\":\"shard-0/wal.log\""));
        assert!(line.ends_with('}'));
    }

    // The name predates the removal of per-target level overrides; the
    // level is global now, and the last event checks that another target
    // is filtered by it too.
    #[test]
    fn level_filtering_global_and_per_target() {
        let _g = GATE.lock().unwrap();
        let buf = Buffer::default();
        install_events(Box::new(buf.clone()), Level::Warn, 0);
        event(Level::Info, "engine", "suppressed by global min", &[]);
        event(Level::Warn, "engine", "passes", &[]);
        event(Level::Debug, "chatty", "suppressed on every target", &[]);
        uninstall_events();
        let out = buf.contents();
        assert_eq!(out.lines().count(), 1, "got: {out}");
        assert!(!out.contains("suppressed"));
    }

    #[test]
    fn rate_limit_drops_and_counts() {
        let _g = GATE.lock().unwrap();
        let buf = Buffer::default();
        install_events(Box::new(buf.clone()), Level::Debug, 3);
        for i in 0..10u64 {
            event!(Level::Info, "hot", "tick", i = i);
        }
        // A different target has its own budget.
        event(Level::Info, "cool", "unaffected", &[]);
        let dropped = uninstall_events();
        assert_eq!(buf.contents().lines().count(), 4);
        assert_eq!(dropped, 7);
    }

    #[test]
    fn disabled_log_is_silent() {
        let _g = GATE.lock().unwrap();
        uninstall_events();
        event(Level::Error, "x", "nobody listening", &[]);
        // Nothing to assert beyond "did not panic": no sink installed.
    }

    #[test]
    fn messages_are_escaped() {
        let _g = GATE.lock().unwrap();
        let buf = Buffer::default();
        install_events(Box::new(buf.clone()), Level::Debug, 0);
        event(Level::Info, "t", "quote \" backslash \\ newline \n", &[]);
        uninstall_events();
        let out = buf.contents();
        assert_eq!(out.lines().count(), 1, "newline must be escaped");
        assert!(out.contains("quote \\\" backslash \\\\ newline \\n"));
    }
}
