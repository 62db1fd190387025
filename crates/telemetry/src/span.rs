//! RAII stage timers.
//!
//! `span!("refine")` returns an `Option<Span>` that, while telemetry is
//! enabled, measures the enclosed scope and on drop records the elapsed
//! nanoseconds into the global histogram `refine`.
//!
//! While telemetry is disabled (the default) the macro is a single relaxed
//! atomic load and returns `None`: no allocation, no clock read, no
//! histogram lookup. That disabled path is what the bench overhead gate
//! measures.

use std::sync::atomic::{AtomicBool, Ordering};
use std::sync::Arc;
use std::time::Instant;

use crate::histogram::LatencyHistogram;

static ENABLED: AtomicBool = AtomicBool::new(false);

/// Whether spans and events are live. A single relaxed load — safe to call
/// on any hot path.
#[inline]
pub fn enabled() -> bool {
    ENABLED.load(Ordering::Relaxed)
}

/// Turns span timing on or off process-wide. Benches flip this from
/// `--telemetry`.
pub fn set_enabled(on: bool) {
    ENABLED.store(on, Ordering::Relaxed);
}

/// Live RAII timer; records on drop. Construct via the [`span!`](crate::span!) macro.
pub struct Span {
    hist: Arc<LatencyHistogram>,
    start: Instant,
}

impl Span {
    #[doc(hidden)]
    pub fn begin(hist: Arc<LatencyHistogram>) -> Self {
        Span {
            hist,
            start: Instant::now(),
        }
    }
}

impl Drop for Span {
    fn drop(&mut self) {
        let nanos = self.start.elapsed().as_nanos().min(u128::from(u64::MAX)) as u64;
        self.hist.record(nanos);
    }
}

/// Opens a named RAII stage timer: `let _s = span!("refine");`.
///
/// `$name` must be a string literal; it names the global histogram the span
/// records into. Returns `Option<Span>` — `None` (after one relaxed atomic
/// load) while telemetry is disabled. The histogram handle is resolved once
/// per call site and cached in a static.
#[macro_export]
macro_rules! span {
    ($name:literal) => {{
        if $crate::enabled() {
            static HANDLE: ::std::sync::OnceLock<::std::sync::Arc<$crate::LatencyHistogram>> =
                ::std::sync::OnceLock::new();
            let hist = HANDLE.get_or_init(|| {
                $crate::global().histogram($name, concat!("nanoseconds spent in ", $name))
            });
            ::std::option::Option::Some($crate::Span::begin(::std::sync::Arc::clone(hist)))
        } else {
            ::std::option::Option::None
        }
    }};
}

#[cfg(test)]
mod tests {
    use super::*;
    use std::sync::Mutex;

    // Spans flip process-global state; serialize the tests that do.
    static GATE: Mutex<()> = Mutex::new(());

    #[test]
    fn disabled_span_is_none() {
        let _g = GATE.lock().unwrap();
        set_enabled(false);
        assert!(span!("test_disabled_nanos").is_none());
    }

    #[test]
    fn span_records_into_global_histogram() {
        let _g = GATE.lock().unwrap();
        set_enabled(true);
        {
            let _s = span!("test_span_basic_nanos");
            std::thread::sleep(std::time::Duration::from_millis(1));
        }
        set_enabled(false);
        let h = crate::global().histogram("test_span_basic_nanos", "");
        assert!(h.count() >= 1);
        assert!(h.percentile(1.0) >= 1_000_000, "slept >= 1ms");
    }
}
