//! Structured span/event tracer on a logical clock.
//!
//! Every record is an [`Event`]: a named point (`kind: "event"`) or a closed
//! span (`kind: "span"`, with `ts` = start and `dur` = elapsed). Spans are
//! recorded when their guard drops, so the trace never needs back-patching
//! and a single append-only buffer suffices. Timestamps come from a logical
//! clock that ticks, so same-seed runs emit byte-identical traces.

use crate::metrics::{MetricsRegistry, MetricsSnapshot};
use serde::ser::{Serialize, SerializeMap, Serializer};
use std::cell::RefCell;
use std::collections::BTreeMap;
use std::sync::atomic::{AtomicBool, AtomicU64, Ordering};
use std::sync::Mutex;

/// The tracer's deterministic clock: every `now_ns` call returns the next
/// tick, and `advance_ns` jumps forward (the pool folds simulated transport
/// seconds in this way), so identical call sequences yield identical
/// timestamps regardless of host speed.
#[derive(Default)]
struct LogicalClock {
    ticks: AtomicU64,
}

impl LogicalClock {
    fn now_ns(&self) -> u64 {
        self.ticks.fetch_add(1, Ordering::Relaxed)
    }

    fn advance_ns(&self, ns: u64) {
        self.ticks.fetch_add(ns, Ordering::Relaxed);
    }

    /// Adopts a remote watermark: every later `now_ns` returns a value
    /// `> ts` (Lamport merge).
    fn witness(&self, ts: u64) {
        // Lamport: local time jumps past the remote watermark so events that
        // causally follow the message stamp later than its send.
        self.ticks
            .fetch_max(ts.saturating_add(1), Ordering::Relaxed);
    }

    fn reset(&self) {
        self.ticks.store(0, Ordering::Relaxed);
    }
}

/// Causal context carried across process boundaries (DESIGN.md §16): which
/// trace a remote span belongs to, which span caused it, and the sender's
/// clock watermark at send time. The receiver `witness`es the watermark
/// before opening a child span, so stitched timelines order cause before
/// effect even across independently ticking logical clocks.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Default)]
pub struct TraceContext {
    /// Identifier of the distributed trace (one per pool run).
    pub trace_id: u64,
    /// Span id of the remote parent, or 0 for a root context.
    pub parent_span: u64,
    /// Sender's clock reading at send time.
    pub watermark: u64,
}

impl TraceContext {
    /// Encoded size on the wire: three little-endian u64s.
    pub const WIRE_BYTES: usize = 24;

    pub fn to_bytes(self) -> [u8; Self::WIRE_BYTES] {
        let mut out = [0u8; Self::WIRE_BYTES];
        out[0..8].copy_from_slice(&self.trace_id.to_le_bytes());
        out[8..16].copy_from_slice(&self.parent_span.to_le_bytes());
        out[16..24].copy_from_slice(&self.watermark.to_le_bytes());
        out
    }

    pub fn from_bytes(b: &[u8]) -> Option<Self> {
        if b.len() != Self::WIRE_BYTES {
            return None;
        }
        let word = |i: usize| u64::from_le_bytes(b[i..i + 8].try_into().unwrap());
        Some(Self {
            trace_id: word(0),
            parent_span: word(8),
            watermark: word(16),
        })
    }
}

/// A field value attached to a span or event.
#[derive(Debug, Clone, PartialEq)]
pub enum Value {
    U64(u64),
    I64(i64),
    F64(f64),
    Bool(bool),
    Str(String),
}

macro_rules! value_from {
    ($($ty:ty => $variant:ident as $conv:ty),+ $(,)?) => {
        $(impl From<$ty> for Value {
            fn from(v: $ty) -> Self {
                Value::$variant(v as $conv)
            }
        })+
    };
}

value_from!(
    u8 => U64 as u64,
    u16 => U64 as u64,
    u32 => U64 as u64,
    u64 => U64 as u64,
    usize => U64 as u64,
    i32 => I64 as i64,
    i64 => I64 as i64,
    f32 => F64 as f64,
    f64 => F64 as f64,
);

impl From<bool> for Value {
    fn from(v: bool) -> Self {
        Value::Bool(v)
    }
}

impl From<&str> for Value {
    fn from(v: &str) -> Self {
        Value::Str(v.to_string())
    }
}

impl From<String> for Value {
    fn from(v: String) -> Self {
        Value::Str(v)
    }
}

impl Serialize for Value {
    fn serialize<S: Serializer>(&self, serializer: S) -> Result<S::Ok, S::Error> {
        match self {
            Value::U64(v) => serializer.serialize_u64(*v),
            Value::I64(v) => serializer.serialize_i64(*v),
            Value::F64(v) => serializer.serialize_f64(*v),
            Value::Bool(v) => serializer.serialize_bool(*v),
            Value::Str(v) => serializer.serialize_str(v),
        }
    }
}

/// What a trace record represents.
#[derive(Debug, Clone, Copy, PartialEq, Eq, PartialOrd, Ord)]
pub enum EventKind {
    /// Closed span: `ts` is the start, `dur` the elapsed ticks/ns.
    Span,
    /// Instantaneous point event; `dur` is absent.
    Event,
}

impl EventKind {
    pub fn label(self) -> &'static str {
        match self {
            EventKind::Span => "span",
            EventKind::Event => "event",
        }
    }
}

/// One trace record. Serialized with a fixed key order
/// (`seq, ts, kind, name, dur?, f`) so byte-identical traces are a matter of
/// identical event sequences, not serializer luck.
#[derive(Debug, Clone, PartialEq)]
pub struct Event {
    /// Global emission order (assigned when the record lands in the buffer).
    pub seq: u64,
    /// Start timestamp from the recorder's clock.
    pub ts: u64,
    pub kind: EventKind,
    pub name: String,
    /// Elapsed ticks/ns for spans, `None` for point events.
    pub dur: Option<u64>,
    pub fields: Vec<(String, Value)>,
}

impl Serialize for Event {
    fn serialize<S: Serializer>(&self, serializer: S) -> Result<S::Ok, S::Error> {
        let mut map = serializer.serialize_map(None)?;
        map.serialize_key("seq")?;
        map.serialize_value(&self.seq)?;
        map.serialize_key("ts")?;
        map.serialize_value(&self.ts)?;
        map.serialize_key("kind")?;
        map.serialize_value(self.kind.label())?;
        map.serialize_key("name")?;
        map.serialize_value(&self.name)?;
        if let Some(dur) = self.dur {
            map.serialize_key("dur")?;
            map.serialize_value(&dur)?;
        }
        map.serialize_key("f")?;
        map.serialize_value(&FieldMap(&self.fields))?;
        map.end()
    }
}

struct FieldMap<'a>(&'a [(String, Value)]);

impl Serialize for FieldMap<'_> {
    fn serialize<S: Serializer>(&self, serializer: S) -> Result<S::Ok, S::Error> {
        let mut map = serializer.serialize_map(Some(self.0.len()))?;
        for (k, v) in self.0 {
            map.serialize_key(k.as_str())?;
            map.serialize_value(v)?;
        }
        map.end()
    }
}

/// Append-only event buffer with a global sequence counter.
#[derive(Default)]
struct Tracer {
    seq: AtomicU64,
    events: Mutex<Vec<Event>>,
}

impl Tracer {
    fn record(
        &self,
        ts: u64,
        kind: EventKind,
        name: &str,
        dur: Option<u64>,
        fields: Vec<(String, Value)>,
    ) {
        let seq = self.seq.fetch_add(1, Ordering::Relaxed);
        self.events.lock().unwrap().push(Event {
            seq,
            ts,
            kind,
            name: name.to_string(),
            dur,
            fields,
        });
    }
}

/// The top-level observability handle: an on/off switch, a clock, a metrics
/// registry, and a trace buffer. Everything in the workspace records through
/// one of these — either an explicitly threaded `Arc<Recorder>` (pool,
/// manager, verifier, transport) or the process-wide [`crate::global`]
/// recorder (GEMM/NN counters, CLI).
pub struct Recorder {
    enabled: AtomicBool,
    /// A permanently disabled recorder (see [`crate::noop`]) ignores
    /// `enable()` so that code holding the shared no-op handle can never
    /// switch on instrumentation for unrelated components.
    locked_off: bool,
    clock: LogicalClock,
    metrics: MetricsRegistry,
    tracer: Tracer,
    /// Next span id handed out by [`Recorder::child_span`]; 0 means "no
    /// parent", so ids start at 1.
    span_seq: AtomicU64,
    /// Aggregated span self-times keyed by `;`-joined stack path
    /// (flamegraph-folded form, see [`Recorder::folded_profile`]).
    profile: Mutex<BTreeMap<String, u64>>,
}

/// Per-thread stack of open spans, used to attribute self-time to stack
/// paths without touching the clock. Entries are tagged with the owning
/// recorder's address so interleaved spans from different recorders on one
/// thread never contaminate each other's paths.
struct StackEntry {
    rec: usize,
    name: String,
    /// Ticks spent in already-closed child spans (same recorder).
    child_ticks: u64,
}

thread_local! {
    static SPAN_STACK: RefCell<Vec<StackEntry>> = const { RefCell::new(Vec::new()) };
}

impl Recorder {
    /// Deterministic recorder (logical clock), enabled.
    pub fn logical() -> Self {
        Self {
            enabled: AtomicBool::new(true),
            locked_off: false,
            clock: LogicalClock::default(),
            metrics: MetricsRegistry::new(),
            tracer: Tracer::default(),
            span_seq: AtomicU64::new(0),
            profile: Mutex::new(BTreeMap::new()),
        }
    }

    pub(crate) fn new_noop() -> Self {
        let mut r = Self::logical();
        r.enabled = AtomicBool::new(false);
        r.locked_off = true;
        r
    }

    #[inline]
    pub fn enabled(&self) -> bool {
        self.enabled.load(Ordering::Relaxed)
    }

    pub fn enable(&self) {
        if !self.locked_off {
            self.enabled.store(true, Ordering::Relaxed);
        }
    }

    pub fn disable(&self) {
        self.enabled.store(false, Ordering::Relaxed);
    }

    #[inline]
    pub fn now_ns(&self) -> u64 {
        self.clock.now_ns()
    }

    /// Advance the clock.
    pub fn advance_ns(&self, ns: u64) {
        if self.enabled() {
            self.clock.advance_ns(ns);
        }
    }

    /// Allocate a fresh span id (1-based; 0 means "no parent").
    fn next_span_id(&self) -> u64 {
        self.span_seq.fetch_add(1, Ordering::Relaxed) + 1
    }

    // ---- metrics ----

    #[inline]
    pub fn counter_add(&self, name: &str, n: u64) {
        if self.enabled() {
            self.metrics.counter_add(name, n);
        }
    }

    #[inline]
    pub fn gauge_set(&self, name: &str, v: f64) {
        if self.enabled() {
            self.metrics.gauge_set(name, v);
        }
    }

    #[inline]
    pub fn gauge_add(&self, name: &str, v: f64) {
        if self.enabled() {
            self.metrics.gauge_add(name, v);
        }
    }

    #[inline]
    pub fn observe(&self, name: &str, v: u64) {
        if self.enabled() {
            self.metrics.observe(name, v);
        }
    }

    /// Observe into a log-bucketed latency histogram (see
    /// [`MetricsRegistry::observe_log`]).
    #[inline]
    pub fn observe_log(&self, name: &str, v: u64) {
        if self.enabled() {
            self.metrics.observe_log(name, v);
        }
    }

    /// Observe into a fine-grained latency histogram (see
    /// [`MetricsRegistry::observe_latency`]).
    #[inline]
    pub fn observe_latency(&self, name: &str, v: u64) {
        if self.enabled() {
            self.metrics.observe_latency(name, v);
        }
    }

    /// Direct registry access (for caching metric handles or custom buckets).
    pub fn metrics(&self) -> &MetricsRegistry {
        &self.metrics
    }

    pub fn snapshot(&self) -> MetricsSnapshot {
        self.metrics.snapshot()
    }

    // ---- tracing ----

    /// Record a point event.
    pub fn event(&self, name: &str, fields: &[(&str, Value)]) {
        if !self.enabled() {
            return;
        }
        let ts = self.clock.now_ns();
        self.tracer
            .record(ts, EventKind::Event, name, None, own_fields(fields));
    }

    /// Open a span; the returned guard records it (with duration) on drop.
    /// When the recorder is disabled the guard is inert and free.
    pub fn span(&self, name: &str, fields: &[(&str, Value)]) -> SpanGuard<'_> {
        self.open_span(name, own_fields(fields))
    }

    /// Open a span as the child of a (possibly remote) [`TraceContext`]:
    /// witnesses the context watermark first, allocates a local span id, and
    /// records `trace`/`parent`/`span` as ordinary fields so the event JSON
    /// shape is unchanged. Returns the guard plus the new span's id, which
    /// callers embed in downstream contexts
    /// (`TraceContext { trace_id, parent_span: id, watermark: rec.now_ns() }`).
    pub fn child_span(
        &self,
        name: &str,
        ctx: TraceContext,
        fields: &[(&str, Value)],
    ) -> (SpanGuard<'_>, u64) {
        if !self.enabled() {
            return (SpanGuard(None), 0);
        }
        self.clock.witness(ctx.watermark);
        let id = self.next_span_id();
        let mut owned = own_fields(fields);
        owned.push(("trace".to_string(), Value::U64(ctx.trace_id)));
        owned.push(("parent".to_string(), Value::U64(ctx.parent_span)));
        owned.push(("span".to_string(), Value::U64(id)));
        (self.open_span(name, owned), id)
    }

    /// Record a point event as the child of a (possibly remote)
    /// [`TraceContext`]: witnesses the watermark, then records the event with
    /// `trace`/`parent` appended as ordinary fields. Used for ingest points
    /// where the causal link matters but no duration does.
    pub fn child_event(&self, name: &str, ctx: TraceContext, fields: &[(&str, Value)]) {
        if !self.enabled() {
            return;
        }
        self.clock.witness(ctx.watermark);
        let ts = self.clock.now_ns();
        let mut owned = own_fields(fields);
        owned.push(("trace".to_string(), Value::U64(ctx.trace_id)));
        owned.push(("parent".to_string(), Value::U64(ctx.parent_span)));
        self.tracer.record(ts, EventKind::Event, name, None, owned);
    }

    fn open_span(&self, name: &str, fields: Vec<(String, Value)>) -> SpanGuard<'_> {
        if !self.enabled() {
            return SpanGuard(None);
        }
        let start = self.clock.now_ns();
        SPAN_STACK.with(|stack| {
            stack.borrow_mut().push(StackEntry {
                rec: self as *const Recorder as usize,
                name: name.to_string(),
                child_ticks: 0,
            });
        });
        SpanGuard(Some(OpenSpan {
            rec: self,
            name: name.to_string(),
            fields,
            start,
        }))
    }

    /// Copy of the trace buffer, in emission order.
    pub fn events(&self) -> Vec<Event> {
        self.tracer.events.lock().unwrap().clone()
    }

    /// Take the trace buffer, leaving it empty (sequence numbers keep
    /// counting).
    pub fn drain_events(&self) -> Vec<Event> {
        std::mem::take(&mut *self.tracer.events.lock().unwrap())
    }

    /// Aggregated span self-times in collapsed-stack ("flamegraph folded")
    /// form: one `path;to;span <self_ticks>` line per distinct stack path,
    /// sorted by path. Feed straight into `flamegraph.pl` / `inferno`.
    /// Self-time excludes ticks spent in child spans of the same recorder,
    /// so the column sums equal total traced time without double-counting.
    pub fn folded_profile(&self) -> String {
        let mut out = String::new();
        for (path, ticks) in self.profile.lock().unwrap().iter() {
            out.push_str(path);
            out.push(' ');
            out.push_str(&ticks.to_string());
            out.push('\n');
        }
        out
    }

    /// Clear all state: metrics to zero, trace buffer emptied, sequence and
    /// clock rewound. Used by the CLI so every command run starts from a
    /// clean, reproducible recorder.
    pub fn reset(&self) {
        self.metrics.reset();
        self.tracer.events.lock().unwrap().clear();
        self.tracer.seq.store(0, Ordering::Relaxed);
        self.span_seq.store(0, Ordering::Relaxed);
        self.profile.lock().unwrap().clear();
        self.clock.reset();
    }
}

fn own_fields(fields: &[(&str, Value)]) -> Vec<(String, Value)> {
    fields
        .iter()
        .map(|(k, v)| (k.to_string(), v.clone()))
        .collect()
}

struct OpenSpan<'a> {
    rec: &'a Recorder,
    name: String,
    fields: Vec<(String, Value)>,
    start: u64,
}

/// RAII guard returned by [`Recorder::span`]; records the closed span when
/// dropped.
pub struct SpanGuard<'a>(Option<OpenSpan<'a>>);

impl Drop for SpanGuard<'_> {
    fn drop(&mut self) {
        if let Some(open) = self.0.take() {
            let end = open.rec.clock.now_ns();
            let dur = end.saturating_sub(open.start);
            let rec_key = open.rec as *const Recorder as usize;
            // Attribute self-time to the current stack path and credit the
            // whole duration to the nearest same-recorder parent, so nested
            // spans never double-count in the folded profile.
            SPAN_STACK.with(|stack| {
                let mut stack = stack.borrow_mut();
                let Some(pos) = stack
                    .iter()
                    .rposition(|e| e.rec == rec_key && e.name == open.name)
                else {
                    return;
                };
                let entry = stack.remove(pos);
                let mut path = String::new();
                for e in stack.iter().filter(|e| e.rec == rec_key) {
                    path.push_str(&e.name);
                    path.push(';');
                }
                path.push_str(&entry.name);
                if let Some(parent) = stack.iter_mut().rev().find(|e| e.rec == rec_key) {
                    parent.child_ticks = parent.child_ticks.saturating_add(dur);
                }
                let self_ticks = dur.saturating_sub(entry.child_ticks);
                *open.rec.profile.lock().unwrap().entry(path).or_insert(0) += self_ticks;
            });
            open.rec.tracer.record(
                open.start,
                EventKind::Span,
                &open.name,
                Some(dur),
                open.fields,
            );
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn logical_clock_is_deterministic() {
        let a = LogicalClock::default();
        let b = LogicalClock::default();
        for _ in 0..5 {
            assert_eq!(a.now_ns(), b.now_ns());
        }
        a.advance_ns(100);
        assert_eq!(a.now_ns(), 105);
    }

    #[test]
    fn span_records_on_drop_with_duration() {
        let rec = Recorder::logical();
        {
            let _g = rec.span("t.outer", &[("epoch", Value::U64(3))]);
            rec.event("t.inner", &[]);
        }
        let ev = rec.events();
        assert_eq!(ev.len(), 2);
        // Inner event lands first (span closes after it).
        assert_eq!(ev[0].name, "t.inner");
        assert_eq!(ev[0].kind, EventKind::Event);
        assert_eq!(ev[1].name, "t.outer");
        assert_eq!(ev[1].kind, EventKind::Span);
        assert_eq!(ev[1].ts, 0);
        assert_eq!(ev[1].dur, Some(2)); // inner now() + closing now()
        assert_eq!(ev[1].fields, vec![("epoch".to_string(), Value::U64(3))]);
    }

    #[test]
    fn disabled_recorder_records_nothing() {
        let rec = Recorder::logical();
        rec.disable();
        {
            let _g = rec.span("t.s", &[]);
            rec.event("t.e", &[]);
            rec.counter_add("t.c", 1);
        }
        assert!(rec.events().is_empty());
        assert_eq!(rec.snapshot().counter("t.c"), 0);
    }

    #[test]
    fn noop_recorder_cannot_be_enabled() {
        let rec = Recorder::new_noop();
        rec.enable();
        assert!(!rec.enabled());
    }

    #[test]
    fn event_json_shape_is_fixed() {
        let rec = Recorder::logical();
        rec.event(
            "t.e",
            &[("worker", Value::U64(2)), ("ok", Value::Bool(true))],
        );
        let ev = rec.events();
        let line = rpol_json::to_string(&ev[0]).unwrap();
        assert_eq!(
            line,
            r#"{"seq":0,"ts":0,"kind":"event","name":"t.e","f":{"worker":2,"ok":true}}"#
        );
    }

    #[test]
    fn trace_context_roundtrips_through_bytes() {
        let ctx = TraceContext {
            trace_id: 0xDEAD_BEEF_0BAD_F00D,
            parent_span: 42,
            watermark: u64::MAX - 1,
        };
        let bytes = ctx.to_bytes();
        assert_eq!(bytes.len(), TraceContext::WIRE_BYTES);
        assert_eq!(TraceContext::from_bytes(&bytes), Some(ctx));
        assert_eq!(TraceContext::from_bytes(&bytes[..23]), None);
    }

    #[test]
    fn witness_merges_lamport_style() {
        let clock = LogicalClock::default();
        clock.witness(100);
        assert_eq!(clock.now_ns(), 101, "local time jumps past the watermark");
        clock.witness(5); // stale watermark must not rewind
        assert_eq!(clock.now_ns(), 102);
    }

    #[test]
    fn child_span_witnesses_and_tags_context_fields() {
        let rec = Recorder::logical();
        let ctx = TraceContext {
            trace_id: 7,
            parent_span: 3,
            watermark: 500,
        };
        let id = {
            let (_g, id) = rec.child_span("t.child", ctx, &[("epoch", Value::U64(1))]);
            id
        };
        assert_eq!(id, 1);
        let ev = rec.events();
        assert_eq!(ev.len(), 1);
        assert!(ev[0].ts > 500, "span must start after the witnessed mark");
        assert_eq!(
            ev[0].fields,
            vec![
                ("epoch".to_string(), Value::U64(1)),
                ("trace".to_string(), Value::U64(7)),
                ("parent".to_string(), Value::U64(3)),
                ("span".to_string(), Value::U64(1)),
            ]
        );
        // Disabled recorders hand back id 0 and record nothing.
        rec.disable();
        let (_g, id) = rec.child_span("t.child", ctx, &[]);
        assert_eq!(id, 0);
    }

    #[test]
    fn folded_profile_attributes_self_time_without_double_counting() {
        let rec = Recorder::logical();
        {
            let _outer = rec.span("outer", &[]);
            rec.advance_ns(10); // outer self-time
            {
                let _inner = rec.span("inner", &[]);
                rec.advance_ns(100); // inner self-time
            }
            rec.advance_ns(10); // more outer self-time
        }
        let folded = rec.folded_profile();
        let lines: Vec<&str> = folded.lines().collect();
        assert_eq!(lines.len(), 2);
        // Exact tick math: each now_ns() call also ticks the logical clock,
        // but what matters is inner's whole duration is excluded from outer.
        let get = |prefix: &str| {
            lines
                .iter()
                .find(|l| l.starts_with(prefix))
                .and_then(|l| l.rsplit(' ').next())
                .and_then(|n| n.parse::<u64>().ok())
                .unwrap()
        };
        let inner = get("outer;inner ");
        let outer = get("outer ");
        assert!(inner >= 100, "inner self-time covers its advance");
        assert!((20..100).contains(&outer), "outer excludes inner's ticks");
        // Same call sequence → same folded bytes.
        let rec2 = Recorder::logical();
        {
            let _o = rec2.span("outer", &[]);
            rec2.advance_ns(10);
            {
                let _i = rec2.span("inner", &[]);
                rec2.advance_ns(100);
            }
            rec2.advance_ns(10);
        }
        assert_eq!(folded, rec2.folded_profile());
    }

    #[test]
    fn reset_rewinds_seq_and_clock() {
        let rec = Recorder::logical();
        rec.event("a", &[]);
        rec.event("b", &[]);
        rec.reset();
        rec.event("a", &[]);
        let ev = rec.events();
        assert_eq!(ev.len(), 1);
        assert_eq!(ev[0].seq, 0);
        assert_eq!(ev[0].ts, 0);
    }
}
