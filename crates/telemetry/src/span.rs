//! RAII stage timers.
//!
//! `span!("refine")` returns an `Option<Span>` that, while telemetry is
//! enabled, measures the enclosed scope and on drop records the elapsed
//! nanoseconds into the global histogram `refine` *and* into the current
//! thread's stage collector (if one is installed via [`collect_stages`]),
//! tagged with its nesting depth — which is how a bench run turns a query
//! into a per-stage breakdown table.
//!
//! While telemetry is disabled (the default) the macro is a single relaxed
//! atomic load and returns `None`: no allocation, no clock read, no
//! histogram lookup. That disabled path is what the bench overhead gate
//! measures.
//!
//! Spans dropped on worker-pool threads still feed their histograms; only
//! the per-query breakdown is thread-local, so a stage that fans out to
//! the pool should open its span on the calling thread around the fan-out.

use std::cell::RefCell;
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

/// Turns span timing (and with it the stage-breakdown machinery) on or off
/// process-wide. Benches flip this from `--telemetry`.
pub fn set_enabled(on: bool) {
    ENABLED.store(on, Ordering::Relaxed);
}

/// One completed span inside a [`collect_stages`] scope.
#[derive(Clone, Debug, PartialEq, Eq)]
pub struct StageRecord {
    pub name: &'static str,
    pub nanos: u64,
    /// 0 for top-level spans, +1 per enclosing span on the same thread.
    pub depth: u32,
}

struct Collector {
    records: Vec<StageRecord>,
    depth: u32,
}

thread_local! {
    static COLLECTOR: RefCell<Option<Collector>> = const { RefCell::new(None) };
}

/// Live RAII timer; records on drop. Construct via the [`span!`](crate::span!) macro.
pub struct Span {
    name: &'static str,
    hist: Arc<LatencyHistogram>,
    start: Instant,
}

impl Span {
    #[doc(hidden)]
    pub fn begin(name: &'static str, hist: Arc<LatencyHistogram>) -> Self {
        COLLECTOR.with(|c| {
            if let Some(col) = c.borrow_mut().as_mut() {
                col.depth += 1;
            }
        });
        Span {
            name,
            hist,
            start: Instant::now(),
        }
    }
}

impl Drop for Span {
    fn drop(&mut self) {
        let nanos = self.start.elapsed().as_nanos().min(u128::from(u64::MAX)) as u64;
        self.hist.record(nanos);
        COLLECTOR.with(|c| {
            if let Some(col) = c.borrow_mut().as_mut() {
                col.depth -= 1;
                col.records.push(StageRecord {
                    name: self.name,
                    nanos,
                    depth: col.depth,
                });
            }
        });
    }
}

/// Runs `f` with a stage collector installed on this thread and returns its
/// result alongside every span that completed inside it (in completion
/// order, innermost first for nested spans).
pub fn collect_stages<R>(f: impl FnOnce() -> R) -> (R, Vec<StageRecord>) {
    COLLECTOR.with(|c| {
        *c.borrow_mut() = Some(Collector {
            records: Vec::new(),
            depth: 0,
        });
    });
    let result = f();
    let records = COLLECTOR.with(|c| c.borrow_mut().take().map(|col| col.records));
    (result, records.unwrap_or_default())
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
            ::std::option::Option::Some($crate::Span::begin(
                $name,
                ::std::sync::Arc::clone(hist),
            ))
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

    #[test]
    fn collect_stages_sees_nesting() {
        let _g = GATE.lock().unwrap();
        set_enabled(true);
        let ((), stages) = collect_stages(|| {
            let _outer = span!("test_outer_nanos");
            let _inner = span!("test_inner_nanos");
        });
        set_enabled(false);
        // Locals drop in reverse declaration order: _inner completes first
        // (depth 1), then _outer (depth 0).
        assert_eq!(stages.len(), 2);
        assert_eq!(stages[0].name, "test_inner_nanos");
        assert_eq!(stages[0].depth, 1);
        assert_eq!(stages[1].name, "test_outer_nanos");
        assert_eq!(stages[1].depth, 0);
        assert!(stages[1].nanos >= stages[0].nanos);
    }

    #[test]
    fn collect_without_enable_is_empty() {
        let _g = GATE.lock().unwrap();
        set_enabled(false);
        let (v, stages) = collect_stages(|| {
            let _s = span!("test_never_nanos");
            42
        });
        assert_eq!(v, 42);
        assert!(stages.is_empty());
    }

    #[test]
    fn spans_outside_collect_scope_do_not_leak_records() {
        let _g = GATE.lock().unwrap();
        set_enabled(true);
        {
            let _s = span!("test_outside_nanos");
        }
        let ((), stages) = collect_stages(|| {});
        set_enabled(false);
        assert!(stages.is_empty());
    }
}
