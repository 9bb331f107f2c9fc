//! `rpol-obs`: zero-dependency observability for the RPoL workspace.
//!
//! Three pieces, one handle:
//!
//! * a lock-cheap [`MetricsRegistry`] of named counters (striped per-thread),
//!   gauges, and fixed-bucket histograms, merged on [`Recorder::snapshot`]
//!   with deterministic name-sorted ordering;
//! * a structured span/event tracer ([`span!`], [`event!`]) stamped by a
//!   logical clock, so same-seed runs emit byte-identical traces;
//! * JSONL / metrics-JSON / summary-table exporters built on `rpol-json`
//!   ([`export`]).
//!
//! # Recorder plumbing
//!
//! Components that can thread a handle take an explicit `Arc<Recorder>`
//! (`MiningPool::with_recorder`, `Verifier::set_recorder`, the transport's
//! `chaos_send`), defaulting to the shared [`noop`] recorder, so tests get
//! fully isolated recorders and library users pay a single relaxed atomic
//! load when observability is off. Leaf layers that cannot thread a
//! parameter (tensor GEMM, nn forward/backward) bump counters on the
//! process-wide [`global`] recorder, which starts *disabled* and is only
//! switched on by the CLI's `--trace-out`/`--metrics-out` flags.
//!
//! Naming scheme: `crate.component.event` (e.g. `rpol.transport.retries`,
//! `tensor.gemm.flops_total`, span `rpol.verify.replay_segment`). See
//! DESIGN.md §11 for the full catalogue and the determinism contract.
//!
//! # Example
//!
//! ```
//! use rpol_obs::{Recorder, span, event};
//!
//! let rec = Recorder::logical();
//! {
//!     let _g = span!(rec, "demo.phase", epoch = 3u64);
//!     event!(rec, "demo.tick", worker = 1u64, ok = true);
//!     rec.counter_add("demo.ticks", 1);
//! }
//! let trace = rpol_obs::export::events_to_jsonl(&rec.events()).unwrap();
//! assert_eq!(trace.lines().count(), 2);
//! assert_eq!(rec.snapshot().counter("demo.ticks"), 1);
//! ```

pub mod export;
pub mod metrics;
pub mod stitch;
pub mod trace;

pub use metrics::{Counter, HistogramSnapshot, MetricsRegistry, MetricsSnapshot};
pub use trace::{Event, EventKind, Recorder, SpanGuard, TraceContext, Value};

use std::sync::{Arc, LazyLock};

static GLOBAL: LazyLock<Arc<Recorder>> = LazyLock::new(|| {
    let rec = Recorder::logical();
    rec.disable();
    Arc::new(rec)
});

static NOOP: LazyLock<Arc<Recorder>> = LazyLock::new(|| Arc::new(Recorder::new_noop()));

/// Process-wide recorder for layers that cannot thread an explicit handle
/// (tensor/nn counters) and for the CLI. Starts disabled; enabling it is an
/// explicit opt-in (the CLI does so for `--trace-out`/`--metrics-out`).
pub fn global() -> &'static Arc<Recorder> {
    &GLOBAL
}

/// Cheap check used to guard global-recorder instrumentation on hot paths.
#[inline]
pub fn global_enabled() -> bool {
    GLOBAL.enabled()
}

/// Shared permanently disabled recorder — the default for every component
/// that accepts an `Arc<Recorder>`. Calling `enable()` on it is a no-op, so
/// holding the shared handle can never accidentally switch instrumentation
/// on for unrelated components.
pub fn noop() -> &'static Arc<Recorder> {
    &NOOP
}

/// Builds the `&[(&str, Value)]` field slice for [`span!`]/[`event!`].
/// Accepts a comma list mixing bare identifiers (`epoch`) and explicit pairs
/// (`worker = w as u64`), in any order. Internal — use the two macros above.
#[doc(hidden)]
#[macro_export]
macro_rules! obs_fields {
    (@acc [$($out:tt)*]) => {
        &[$($out)*]
    };
    (@acc [$($out:tt)*] $k:ident = $v:expr $(, $($rest:tt)*)?) => {
        $crate::obs_fields!(@acc [$($out)* (stringify!($k), $crate::Value::from($v)),] $($($rest)*)?)
    };
    (@acc [$($out:tt)*] $k:ident $(, $($rest:tt)*)?) => {
        $crate::obs_fields!(@acc [$($out)* (stringify!($k), $crate::Value::from($k)),] $($($rest)*)?)
    };
}

/// Open a span on a recorder: `span!(rec, "name")`,
/// `span!(rec, "name", epoch, worker)` (field names from the identifiers) or
/// `span!(rec, "name", epoch = e, worker = w as u64)` — the two field styles
/// can be mixed. Returns a guard; bind it (`let _g = span!(...)`) so the
/// span covers the intended scope.
#[macro_export]
macro_rules! span {
    ($rec:expr, $name:expr $(,)?) => {
        $rec.span($name, &[])
    };
    ($rec:expr, $name:expr, $($fields:tt)+) => {
        $rec.span($name, $crate::obs_fields!(@acc [] $($fields)+))
    };
}

/// Record a point event on a recorder; same field syntax as [`span!`].
#[macro_export]
macro_rules! event {
    ($rec:expr, $name:expr $(,)?) => {
        $rec.event($name, &[])
    };
    ($rec:expr, $name:expr, $($fields:tt)+) => {
        $rec.event($name, $crate::obs_fields!(@acc [] $($fields)+))
    };
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn macros_accept_bare_idents_and_pairs() {
        let rec = Recorder::logical();
        let epoch = 7u64;
        let worker = 2usize;
        {
            let _g = span!(rec, "m.span", epoch, worker);
        }
        event!(rec, "m.event", epoch = epoch + 1, label = "x");
        event!(rec, "m.bare");
        let ev = rec.events();
        assert_eq!(ev.len(), 3);
        // The span guard drops at the end of its block, so it lands first.
        assert_eq!(
            ev[0].fields,
            vec![
                ("epoch".to_string(), Value::U64(7)),
                ("worker".to_string(), Value::U64(2)),
            ]
        );
        assert_eq!(
            ev[1].fields,
            vec![
                ("epoch".to_string(), Value::U64(8)),
                ("label".to_string(), Value::Str("x".to_string())),
            ]
        );
        assert!(ev[2].fields.is_empty());
    }

    #[test]
    fn global_starts_disabled_and_noop_stays_off() {
        assert!(!noop().enabled());
        noop().enable();
        assert!(!noop().enabled());
    }

    #[test]
    fn same_call_sequence_same_bytes() {
        let run = || {
            let rec = Recorder::logical();
            for epoch in 0..3u64 {
                let _g = span!(rec, "r.epoch", epoch);
                event!(rec, "r.work", epoch, n = epoch * 2);
                rec.counter_add("r.count", epoch + 1);
                rec.gauge_set("r.level", epoch as f64 * 0.5);
            }
            (
                export::events_to_jsonl(&rec.events()).unwrap(),
                export::snapshot_to_json(&rec.snapshot()).unwrap(),
            )
        };
        assert_eq!(run(), run());
    }
}
