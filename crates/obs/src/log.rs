//! Leveled structured event log with pluggable sinks.
//!
//! Call sites use the `obs_*!` macros, which compile to a relaxed atomic
//! level check; when the level is disabled no event is built and no
//! sink runs. Events carry a static target (usually the crate name), a
//! message, and typed key-value fields.

use std::io::Write;
use std::sync::atomic::{AtomicU8, Ordering};
use std::sync::Arc;
use std::time::{SystemTime, UNIX_EPOCH};

use parking_lot::RwLock;

/// Log severity. `Off` disables everything.
#[derive(Debug, Clone, Copy, PartialEq, Eq, PartialOrd, Ord)]
#[repr(u8)]
pub enum Level {
    Trace = 0,
    Debug = 1,
    Info = 2,
    Warn = 3,
    Error = 4,
    Off = 5,
}

impl Level {
    pub fn parse(s: &str) -> Option<Level> {
        Some(match s.to_ascii_lowercase().as_str() {
            "trace" => Level::Trace,
            "debug" => Level::Debug,
            "info" => Level::Info,
            "warn" | "warning" => Level::Warn,
            "error" => Level::Error,
            "off" | "none" => Level::Off,
            _ => return None,
        })
    }

    pub fn as_str(self) -> &'static str {
        match self {
            Level::Trace => "trace",
            Level::Debug => "debug",
            Level::Info => "info",
            Level::Warn => "warn",
            Level::Error => "error",
            Level::Off => "off",
        }
    }
}

/// A typed field value attached to an event.
#[derive(Debug, Clone, PartialEq)]
pub enum FieldValue {
    I64(i64),
    U64(u64),
    F64(f64),
    Bool(bool),
    Str(String),
}

macro_rules! impl_field_from {
    ($variant:ident: $($t:ty),*) => {$(
        impl From<$t> for FieldValue {
            fn from(v: $t) -> FieldValue {
                FieldValue::$variant(v as _)
            }
        }
    )*};
}
impl_field_from!(I64: i8, i16, i32, i64);
impl_field_from!(U64: u8, u16, u32, u64, usize);
impl_field_from!(F64: f32, f64);

impl From<bool> for FieldValue {
    fn from(v: bool) -> FieldValue {
        FieldValue::Bool(v)
    }
}

impl From<&str> for FieldValue {
    fn from(v: &str) -> FieldValue {
        FieldValue::Str(v.to_string())
    }
}

impl From<String> for FieldValue {
    fn from(v: String) -> FieldValue {
        FieldValue::Str(v)
    }
}

impl std::fmt::Display for FieldValue {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        match self {
            FieldValue::I64(v) => write!(f, "{v}"),
            FieldValue::U64(v) => write!(f, "{v}"),
            FieldValue::F64(v) => write!(f, "{v}"),
            FieldValue::Bool(v) => write!(f, "{v}"),
            FieldValue::Str(v) => write!(f, "{v}"),
        }
    }
}

/// One log event, as delivered to sinks.
#[derive(Debug, Clone)]
pub struct Event {
    pub level: Level,
    /// Subsystem that emitted the event, e.g. `"server"`.
    pub target: &'static str,
    pub message: String,
    pub fields: Vec<(&'static str, FieldValue)>,
    /// Wall-clock micros since the unix epoch at emission.
    pub unix_micros: u64,
}

impl Event {
    /// `2021-01-01T00:00:00.000000Z`-style rendering of the timestamp
    /// without a date-time dependency: seconds since epoch plus micros.
    fn ts(&self) -> String {
        format!(
            "{}.{:06}",
            self.unix_micros / 1_000_000,
            self.unix_micros % 1_000_000
        )
    }

    /// Single-line human-readable rendering.
    pub fn render_text(&self) -> String {
        use std::fmt::Write as _;
        let mut line = format!(
            "[{} {:5} {}] {}",
            self.ts(),
            self.level.as_str(),
            self.target,
            self.message
        );
        for (k, v) in &self.fields {
            match v {
                FieldValue::Str(s) => {
                    let _ = write!(line, " {k}={s:?}");
                }
                v => {
                    let _ = write!(line, " {k}={v}");
                }
            }
        }
        line
    }

    /// JSON-lines rendering.
    pub fn render_json(&self) -> String {
        use std::fmt::Write as _;
        let mut line = format!(
            "{{\"ts\":{},\"level\":\"{}\",\"target\":\"{}\",\"msg\":",
            self.ts(),
            self.level.as_str(),
            self.target
        );
        push_json_string(&mut line, &self.message);
        for (k, v) in &self.fields {
            let _ = write!(line, ",\"{k}\":");
            match v {
                FieldValue::I64(v) => {
                    let _ = write!(line, "{v}");
                }
                FieldValue::U64(v) => {
                    let _ = write!(line, "{v}");
                }
                FieldValue::F64(v) if v.is_finite() => {
                    let _ = write!(line, "{v}");
                }
                FieldValue::F64(_) => line.push_str("null"),
                FieldValue::Bool(v) => {
                    let _ = write!(line, "{v}");
                }
                FieldValue::Str(s) => push_json_string(&mut line, s),
            }
        }
        line.push('}');
        line
    }
}

fn push_json_string(out: &mut String, s: &str) {
    out.push('"');
    for c in s.chars() {
        match c {
            '"' => out.push_str("\\\""),
            '\\' => out.push_str("\\\\"),
            '\n' => out.push_str("\\n"),
            '\r' => out.push_str("\\r"),
            '\t' => out.push_str("\\t"),
            c if (c as u32) < 0x20 => {
                out.push_str(&format!("\\u{:04x}", c as u32));
            }
            c => out.push(c),
        }
    }
    out.push('"');
}

/// Receives events that pass the level gate.
pub trait Sink: Send + Sync {
    fn accept(&self, event: &Event);
}

// Off until a binary opts in via init_from_env()/set_level, so library
// call sites cost one relaxed load in tests and embedding programs.
static GLOBAL_LEVEL: AtomicU8 = AtomicU8::new(Level::Off as u8);
static SINKS: RwLock<Vec<Arc<dyn Sink>>> = RwLock::new(Vec::new());

/// Sets the global minimum level.
pub fn set_level(level: Level) {
    GLOBAL_LEVEL.store(level as u8, Ordering::Relaxed);
}

pub fn level() -> Level {
    match GLOBAL_LEVEL.load(Ordering::Relaxed) {
        0 => Level::Trace,
        1 => Level::Debug,
        2 => Level::Info,
        3 => Level::Warn,
        4 => Level::Error,
        _ => Level::Off,
    }
}

/// The macro-side fast path: one relaxed atomic load.
#[inline]
pub fn enabled(level: Level) -> bool {
    level as u8 >= GLOBAL_LEVEL.load(Ordering::Relaxed)
}

/// Installs an additional sink.
pub fn add_sink(sink: Arc<dyn Sink>) {
    SINKS.write().push(sink);
}

/// Removes all sinks (used by tests to detach the sinks they installed).
pub fn clear_sinks() {
    SINKS.write().clear();
}

/// Builds the event and fans it out; called by the macros after the
/// level gate passed.
pub fn emit(
    level: Level,
    target: &'static str,
    message: std::fmt::Arguments<'_>,
    fields: &[(&'static str, FieldValue)],
) {
    let unix_micros = SystemTime::now()
        .duration_since(UNIX_EPOCH)
        .map(|d| d.as_micros() as u64)
        .unwrap_or(0);
    let event = Event {
        level,
        target,
        message: message.to_string(),
        fields: fields.to_vec(),
        unix_micros,
    };
    for sink in SINKS.read().iter() {
        sink.accept(&event);
    }
}

/// Output encoding for [`StderrSink`].
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum StderrFormat {
    Text,
    Json,
}

/// Writes each event as one line to stderr.
pub struct StderrSink {
    format: StderrFormat,
}

impl StderrSink {
    pub fn new(format: StderrFormat) -> StderrSink {
        StderrSink { format }
    }
}

impl Sink for StderrSink {
    fn accept(&self, event: &Event) {
        let line = match self.format {
            StderrFormat::Text => event.render_text(),
            StderrFormat::Json => event.render_json(),
        };
        // One write call per event keeps concurrent lines intact.
        let mut err = std::io::stderr().lock();
        let _ = writeln!(err, "{line}");
    }
}

/// Logs at an explicit level: `obs_log!(Level::Info, "target", "msg {}", x; k => v, ...)`.
/// Fields follow the format arguments after a `;`.
#[macro_export]
macro_rules! obs_log {
    ($level:expr, $target:expr, $($fmt:expr),+ $(; $($k:ident => $v:expr),* $(,)?)?) => {
        if $crate::log::enabled($level) {
            $crate::log::emit(
                $level,
                $target,
                format_args!($($fmt),+),
                &[$($((stringify!($k), $crate::log::FieldValue::from($v))),*)?],
            );
        }
    };
}

#[macro_export]
macro_rules! obs_trace {
    ($target:expr, $($rest:tt)+) => { $crate::obs_log!($crate::Level::Trace, $target, $($rest)+) };
}

#[macro_export]
macro_rules! obs_debug {
    ($target:expr, $($rest:tt)+) => { $crate::obs_log!($crate::Level::Debug, $target, $($rest)+) };
}

#[macro_export]
macro_rules! obs_info {
    ($target:expr, $($rest:tt)+) => { $crate::obs_log!($crate::Level::Info, $target, $($rest)+) };
}

#[macro_export]
macro_rules! obs_warn {
    ($target:expr, $($rest:tt)+) => { $crate::obs_log!($crate::Level::Warn, $target, $($rest)+) };
}

#[macro_export]
macro_rules! obs_error {
    ($target:expr, $($rest:tt)+) => { $crate::obs_log!($crate::Level::Error, $target, $($rest)+) };
}

/// Serializes tests that mutate the process-global level/sinks.
#[cfg(test)]
pub(crate) static TEST_GLOBAL_LOCK: parking_lot::Mutex<()> = parking_lot::Mutex::new(());

#[cfg(test)]
mod tests {
    use super::*;

    fn event(msg: &str) -> Event {
        Event {
            level: Level::Info,
            target: "test",
            message: msg.to_string(),
            fields: vec![
                ("count", FieldValue::U64(3)),
                ("name", FieldValue::Str("a\"b".to_string())),
            ],
            unix_micros: 1_700_000_000_123_456,
        }
    }

    #[test]
    fn text_rendering_is_single_line() {
        let line = event("hello").render_text();
        assert!(!line.contains('\n'));
        assert!(line.contains("count=3"), "{line}");
        assert!(line.contains("name=\"a\\\"b\""), "{line}");
    }

    #[test]
    fn json_rendering_escapes() {
        let line = event("say \"hi\"\n").render_json();
        assert!(line.contains(r#""msg":"say \"hi\"\n""#), "{line}");
        assert!(line.contains(r#""name":"a\"b""#), "{line}");
        assert!(line.starts_with('{') && line.ends_with('}'));
    }

    #[test]
    fn level_gate_blocks_below_threshold() {
        let _guard = TEST_GLOBAL_LOCK.lock();
        set_level(Level::Warn);
        assert!(enabled(Level::Error));
        assert!(enabled(Level::Warn));
        assert!(!enabled(Level::Info));
        set_level(Level::Off);
    }

    #[test]
    fn parse_levels() {
        assert_eq!(Level::parse("INFO"), Some(Level::Info));
        assert_eq!(Level::parse("warning"), Some(Level::Warn));
        assert_eq!(Level::parse("nope"), None);
    }
}
