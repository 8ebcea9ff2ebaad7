//! Request-scoped tracing: timed spans with propagated request IDs,
//! retained in a bounded ring buffer and optionally mirrored to a
//! JSONL file sink.
//!
//! A [`Tracer`] mints one [`TraceHandle`] per request. The handle is a
//! cheap `Arc` clone, so it survives arbitrary hand-offs between
//! thread pools (HTTP worker → model-call worker): any clone can open
//! child spans or attach attributes, and the request's span tree is
//! assembled no matter which thread closed which span. Timestamps are
//! injected by the caller (simulation clock or a monotonic anchor) —
//! the tracer itself never reads a clock, which keeps simulated traces
//! deterministic.
//!
//! A request's spans and attributes are appended to one presized
//! buffer with static names and integer or static-string values, so
//! recording a served request allocates the handle and its buffer and
//! nothing else. Finished traces land in a retention ring of bounded
//! capacity (oldest evicted first) with one lock per slot rather than
//! one for the ring, readable via [`Tracer::recent`]; each finished
//! trace can also be appended as one JSON line to a file sink for
//! offline correlation with load-generator logs.

use std::borrow::Cow;
use std::fmt::Write as _;
use std::io::Write as _;
use std::path::PathBuf;
use std::sync::atomic::{AtomicBool, AtomicU64, Ordering};
use std::sync::{Arc, Mutex};

/// An attribute value on a span.
#[derive(Debug, Clone, PartialEq)]
#[cfg_attr(feature = "serde", derive(serde::Serialize, serde::Deserialize))]
pub enum AttrValue {
    /// An integer attribute (counts, versions, microseconds).
    Int(i64),
    /// A string attribute (names, outcomes): a static label on the
    /// serving path, an owned string for rare details (error text).
    Str(Cow<'static, str>),
}

/// One timed span inside a request trace.
#[derive(Debug, Clone, PartialEq)]
#[cfg_attr(feature = "serde", derive(serde::Serialize, serde::Deserialize))]
pub struct SpanEvent {
    /// Span ID, unique within the request.
    pub id: u32,
    /// Parent span ID; `None` for the root.
    pub parent: Option<u32>,
    /// Span name (static, from the instrumentation site).
    pub name: &'static str,
    /// Start timestamp in caller-defined microseconds.
    pub start_us: u64,
    /// End timestamp; `u64::MAX` until closed.
    pub end_us: u64,
    /// Attributes in attachment order.
    pub attrs: Vec<(&'static str, AttrValue)>,
}

impl SpanEvent {
    /// Whether the span was closed before the trace finished.
    pub fn closed(&self) -> bool {
        self.end_us != u64::MAX
    }
}

/// The wire-carried distributed-tracing context: which fleet-wide
/// trace a request belongs to, which remote span is its parent, and
/// how many proxy hops deep it is.
///
/// The front tier originates a context (hop 0, no parent) and stamps
/// it on proxied requests via the `X-Trace-Id` / `X-Parent-Span`
/// headers; a node receiving those headers joins its local span tree
/// to the remote parent via [`Tracer::begin_remote`].
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
#[cfg_attr(feature = "serde", derive(serde::Serialize, serde::Deserialize))]
pub struct TraceContext {
    /// Fleet-wide trace ID, minted once at the originating tier.
    pub trace_id: u64,
    /// The remote parent span's ID (in the hop-above trace); `None`
    /// at the originating tier.
    pub parent_span: Option<u32>,
    /// Proxy depth: 0 at the originating tier, parent's hop + 1 below.
    pub hop: u32,
}

impl TraceContext {
    /// A locally-originated context: this request is its own trace.
    pub fn local(trace_id: u64) -> Self {
        TraceContext {
            trace_id,
            parent_span: None,
            hop: 0,
        }
    }
}

/// A finished request trace: the request ID plus its spans in open
/// order.
#[derive(Debug, Clone, PartialEq)]
#[cfg_attr(feature = "serde", derive(serde::Serialize, serde::Deserialize))]
pub struct RequestTrace {
    /// The propagated request ID (local to the tracing process).
    pub request_id: u64,
    /// Fleet-wide trace ID (equals `request_id` when locally minted).
    pub trace_id: u64,
    /// Remote parent span ID, when this trace joined a remote parent.
    pub parent_span: Option<u32>,
    /// Proxy depth of this trace within its fleet-wide tree.
    pub hop: u32,
    /// Spans in the order they were opened.
    pub spans: Vec<SpanEvent>,
}

impl RequestTrace {
    /// The first span with `name`, if any.
    pub fn span(&self, name: &str) -> Option<&SpanEvent> {
        self.spans.iter().find(|s| s.name == name)
    }

    /// All spans with `name`.
    pub fn spans_named<'a>(&'a self, name: &'a str) -> impl Iterator<Item = &'a SpanEvent> + 'a {
        self.spans.iter().filter(move |s| s.name == name)
    }

    /// Render as a single JSON line (hand-rolled: IDs and integer
    /// microseconds need no float formatting).
    pub fn to_json_line(&self) -> String {
        let mut out = String::with_capacity(64 + self.spans.len() * 96);
        let _ = write!(
            out,
            "{{\"request_id\": {}, \"trace_id\": {}, \"hop\": {}, \"parent_span\": ",
            self.request_id, self.trace_id, self.hop
        );
        match self.parent_span {
            Some(p) => {
                let _ = write!(out, "{p}");
            }
            None => out.push_str("null"),
        }
        out.push_str(", \"spans\": [");
        for (i, s) in self.spans.iter().enumerate() {
            if i > 0 {
                out.push_str(", ");
            }
            let _ = write!(out, "{{\"id\": {}, \"parent\": ", s.id);
            match s.parent {
                Some(p) => {
                    let _ = write!(out, "{p}");
                }
                None => out.push_str("null"),
            }
            let _ = write!(
                out,
                ", \"name\": \"{}\", \"start_us\": {}",
                s.name, s.start_us
            );
            if s.closed() {
                let _ = write!(out, ", \"end_us\": {}", s.end_us);
            } else {
                out.push_str(", \"end_us\": null");
            }
            if !s.attrs.is_empty() {
                out.push_str(", \"attrs\": {");
                for (j, (k, v)) in s.attrs.iter().enumerate() {
                    if j > 0 {
                        out.push_str(", ");
                    }
                    let _ = write!(out, "\"{k}\": ");
                    match v {
                        AttrValue::Int(n) => {
                            let _ = write!(out, "{n}");
                        }
                        AttrValue::Str(text) => {
                            out.push('"');
                            for ch in text.chars() {
                                match ch {
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
                            out.push('"');
                        }
                    }
                }
                out.push('}');
            }
            out.push('}');
        }
        out.push_str("]}");
        out
    }
}

/// One entry of a request's span buffer: a span, or an attribute on a
/// span opened earlier. Spans and attributes share one buffer in the
/// order they were recorded; [`RawTrace::materialize`] groups them
/// into [`SpanEvent`]s only when a reader asks.
#[derive(Debug)]
enum Record {
    Span {
        id: u32,
        parent: Option<u32>,
        name: &'static str,
        start_us: u64,
        end_us: u64,
    },
    Attr {
        span: u32,
        key: &'static str,
        value: AttrValue,
    },
}

/// Records a served request typically needs (five to seven spans and
/// their attributes). The buffer is allocated once at this size and
/// grows only on a long journey (retries, degradation).
const RECORDS_PRESIZED: usize = 32;

#[derive(Debug)]
struct HandleState {
    records: Vec<Record>,
    spans: u32,
}

impl HandleState {
    /// The end timestamp of span `id`, if it was opened.
    fn end_us_mut(&mut self, id: u32) -> Option<&mut u64> {
        self.records.iter_mut().rev().find_map(|r| match r {
            Record::Span {
                id: sid, end_us, ..
            } if *sid == id => Some(end_us),
            _ => None,
        })
    }
}

#[derive(Debug)]
struct HandleInner {
    request_id: u64,
    context: TraceContext,
    state: Mutex<HandleState>,
}

/// A per-request tracing handle. Clone freely across threads; all
/// clones append to the same span tree.
#[derive(Debug, Clone)]
pub struct TraceHandle {
    inner: Arc<HandleInner>,
}

impl TraceHandle {
    /// A standalone handle (not attached to a [`Tracer`]) — useful in
    /// tests and simulations that only want the span tree. The trace
    /// context is local: the request is its own trace at hop 0.
    pub fn detached(request_id: u64) -> Self {
        Self::detached_with_context(request_id, TraceContext::local(request_id))
    }

    /// A standalone handle joined to an explicit (possibly remote)
    /// trace context.
    pub fn detached_with_context(request_id: u64, context: TraceContext) -> Self {
        TraceHandle {
            inner: Arc::new(HandleInner {
                request_id,
                context,
                state: Mutex::new(HandleState {
                    records: Vec::with_capacity(RECORDS_PRESIZED),
                    spans: 0,
                }),
            }),
        }
    }

    /// The propagated request ID.
    pub fn request_id(&self) -> u64 {
        self.inner.request_id
    }

    /// The fleet-wide trace ID this handle's spans belong to.
    pub fn trace_id(&self) -> u64 {
        self.inner.context.trace_id
    }

    /// The full trace context (trace ID, remote parent, hop).
    pub fn context(&self) -> TraceContext {
        self.inner.context
    }

    fn state(&self) -> std::sync::MutexGuard<'_, HandleState> {
        self.inner.state.lock().expect("trace handle poisoned")
    }

    /// Open a span; returns its ID for closing and parenting.
    pub fn open(&self, name: &'static str, parent: Option<u32>, start_us: u64) -> u32 {
        let mut state = self.state();
        let id = state.spans;
        state.spans += 1;
        state.records.push(Record::Span {
            id,
            parent,
            name,
            start_us,
            end_us: u64::MAX,
        });
        id
    }

    /// Close a span at `end_us`. Unknown IDs and double-closes are
    /// ignored (a cancelled hedge call may race the trace finishing).
    pub fn close(&self, id: u32, end_us: u64) {
        if let Some(end) = self.state().end_us_mut(id) {
            if *end == u64::MAX {
                *end = end_us;
            }
        }
    }

    fn attr(&self, span: u32, key: &'static str, value: AttrValue) {
        let mut state = self.state();
        if span < state.spans {
            state.records.push(Record::Attr { span, key, value });
        }
    }

    /// Attach an integer attribute to a span.
    pub fn attr_int(&self, id: u32, key: &'static str, value: i64) {
        self.attr(id, key, AttrValue::Int(value));
    }

    /// Attach a string attribute to a span. A `&'static str` is stored
    /// as a reference, so the serving path's labels cost no allocation.
    pub fn attr_str(&self, id: u32, key: &'static str, value: impl Into<Cow<'static, str>>) {
        self.attr(id, key, AttrValue::Str(value.into()));
    }

    /// Record an already-timed span in one call.
    pub fn span(&self, name: &'static str, parent: Option<u32>, start_us: u64, end_us: u64) -> u32 {
        let id = self.open(name, parent, start_us);
        self.close(id, end_us);
        id
    }

    fn take_trace(&self) -> RawTrace {
        RawTrace {
            request_id: self.inner.request_id,
            context: self.inner.context,
            records: std::mem::take(&mut self.state().records),
        }
    }
}

/// A finished trace as recorded: its span buffer, moved out of the
/// handle without copying.
#[derive(Debug)]
struct RawTrace {
    request_id: u64,
    context: TraceContext,
    records: Vec<Record>,
}

impl RawTrace {
    /// Group the buffer into spans with their attributes (span IDs are
    /// their opening order, so a span's ID is its index).
    fn materialize(&self) -> RequestTrace {
        let mut spans: Vec<SpanEvent> = Vec::new();
        for record in &self.records {
            match record {
                Record::Span {
                    id,
                    parent,
                    name,
                    start_us,
                    end_us,
                } => spans.push(SpanEvent {
                    id: *id,
                    parent: *parent,
                    name,
                    start_us: *start_us,
                    end_us: *end_us,
                    attrs: Vec::new(),
                }),
                Record::Attr { span, key, value } => {
                    if let Some(s) = spans.get_mut(*span as usize) {
                        s.attrs.push((key, value.clone()));
                    }
                }
            }
        }
        RequestTrace {
            request_id: self.request_id,
            trace_id: self.context.trace_id,
            parent_span: self.context.parent_span,
            hop: self.context.hop,
            spans,
        }
    }
}

/// One retention slot: the finished trace with sequence number `seq`
/// (the tracer's finish order), or nothing yet.
#[derive(Debug, Default)]
struct Slot {
    seq: u64,
    trace: Option<RawTrace>,
}

/// The per-process trace collector: mints request IDs, retains the
/// last `capacity` finished traces, and optionally appends each as a
/// JSON line to `file_sink`.
///
/// Retention is a ring of `capacity` slots, each behind its own lock.
/// A finishing trace takes the next sequence number from an atomic
/// counter and lands in slot `seq % capacity`, replacing the trace
/// `capacity` finishes older, so concurrent finishes contend only when
/// they map to the same slot. A slot never goes back to an older
/// sequence number: if the trace `capacity` finishes newer got there
/// first, the older one is the one evicted. Evicted traces are dropped
/// after the slot's lock is released.
pub struct Tracer {
    capacity: usize,
    next_id: AtomicU64,
    finished: AtomicU64,
    ring: Box<[Mutex<Slot>]>,
    sink: Option<Mutex<std::fs::File>>,
    sink_error: AtomicBool,
    sink_path: Option<PathBuf>,
}

impl Tracer {
    /// A tracer retaining the last `capacity` traces in memory.
    pub fn new(capacity: usize) -> Self {
        let capacity = capacity.max(1);
        Tracer {
            capacity,
            next_id: AtomicU64::new(1),
            finished: AtomicU64::new(0),
            ring: (0..capacity).map(|_| Mutex::default()).collect(),
            sink: None,
            sink_error: AtomicBool::new(false),
            sink_path: None,
        }
    }

    /// Attach a JSONL file sink: every finished trace is appended as
    /// one line. Sink I/O errors are recorded (see
    /// [`Tracer::sink_healthy`]) but never fail the request path.
    pub fn with_file_sink(mut self, path: impl Into<PathBuf>) -> std::io::Result<Self> {
        let path = path.into();
        let file = std::fs::OpenOptions::new()
            .create(true)
            .append(true)
            .open(&path)?;
        self.sink = Some(Mutex::new(file));
        self.sink_path = Some(path);
        Ok(self)
    }

    /// Begin a trace for a new request, minting the next request ID.
    /// The request is the origin of its own fleet-wide trace (hop 0).
    pub fn begin(&self) -> TraceHandle {
        let id = self.next_id.fetch_add(1, Ordering::Relaxed);
        TraceHandle::detached(id)
    }

    /// Begin a trace for a request that arrived with a remote trace
    /// context (`X-Trace-Id` / `X-Parent-Span` on the wire): a local
    /// request ID is minted as usual, but the finished trace carries
    /// the remote trace ID, parent span, and hop so a fleet-level
    /// assembler can join this node's span tree to the remote parent.
    pub fn begin_remote(&self, context: TraceContext) -> TraceHandle {
        let id = self.next_id.fetch_add(1, Ordering::Relaxed);
        TraceHandle::detached_with_context(id, context)
    }

    fn slot(&self, seq: u64) -> std::sync::MutexGuard<'_, Slot> {
        self.ring[(seq % self.capacity as u64) as usize]
            .lock()
            .expect("tracer slot poisoned")
    }

    /// Finish a trace: move its span buffer into the retention ring
    /// (evicting the trace `capacity` finishes older) and mirror it to
    /// the file sink if attached. Spans opened on surviving handle
    /// clones *after* this call are dropped silently — a cancelled
    /// hedge call that loses the race cannot resurrect the request's
    /// trace.
    pub fn finish(&self, handle: &TraceHandle) {
        let trace = handle.take_trace();
        let line = self
            .sink
            .is_some()
            .then(|| trace.materialize().to_json_line());
        let seq = self.finished.fetch_add(1, Ordering::AcqRel);
        let evicted = {
            let mut slot = self.slot(seq);
            if slot.trace.is_none() || slot.seq < seq {
                slot.seq = seq;
                slot.trace.replace(trace)
            } else {
                Some(trace)
            }
        };
        drop(evicted);
        if let (Some(sink), Some(line)) = (&self.sink, line) {
            let mut file = sink.lock().expect("trace sink poisoned");
            if writeln!(file, "{line}").is_err() {
                self.sink_error.store(true, Ordering::Relaxed);
            }
        }
    }

    /// Visit the retained traces with sequence numbers in the last
    /// `limit` finishes, oldest first. A slot whose trace is still
    /// being stored by a concurrent finish is skipped.
    fn each_retained(&self, limit: usize, mut visit: impl FnMut(&RawTrace)) {
        let finished = self.finished.load(Ordering::Acquire);
        let keep = (limit.min(self.capacity) as u64).min(finished);
        for seq in finished - keep..finished {
            let slot = self.slot(seq);
            if slot.seq == seq {
                if let Some(trace) = &slot.trace {
                    visit(trace);
                }
            }
        }
    }

    /// The most recent finished traces, newest last, at most `limit`.
    pub fn recent(&self, limit: usize) -> Vec<RequestTrace> {
        let mut out = Vec::new();
        self.each_retained(limit, |t| out.push(t.materialize()));
        out
    }

    /// Every retained trace belonging to fleet-wide trace `trace_id`,
    /// oldest first. A node that served several hops of the same trace
    /// (e.g. a retry relanded here) returns them all.
    pub fn find(&self, trace_id: u64) -> Vec<RequestTrace> {
        let mut out = Vec::new();
        self.each_retained(self.capacity, |t| {
            if t.context.trace_id == trace_id {
                out.push(t.materialize());
            }
        });
        out
    }

    /// Total traces finished (including evicted ones).
    pub fn finished_count(&self) -> u64 {
        self.finished.load(Ordering::Acquire)
    }

    /// Finished traces evicted from the bounded ring — the tracer's
    /// drop count, `finished − capacity`. Zero in any run whose request
    /// count stays within the configured retention.
    pub fn dropped_traces(&self) -> u64 {
        self.finished_count().saturating_sub(self.capacity as u64)
    }

    /// In-memory retention capacity.
    pub fn capacity(&self) -> usize {
        self.capacity
    }

    /// Whether the file sink (if any) has seen no write errors.
    pub fn sink_healthy(&self) -> bool {
        !self.sink_error.load(Ordering::Relaxed)
    }

    /// Path of the attached file sink, if any.
    pub fn sink_path(&self) -> Option<&std::path::Path> {
        self.sink_path.as_deref()
    }
}

impl std::fmt::Debug for Tracer {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        f.debug_struct("Tracer")
            .field("capacity", &self.capacity)
            .field("finished", &self.finished_count())
            .field("sink", &self.sink_path)
            .finish()
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn spans_form_a_tree_across_clones() {
        let tracer = Tracer::new(8);
        let handle = tracer.begin();
        let root = handle.open("request", None, 0);
        let clone = handle.clone();
        let worker = std::thread::spawn(move || {
            let call = clone.open("model_call", Some(root), 10);
            clone.attr_str(call, "version", "fast");
            clone.attr_int(call, "attempt", 1);
            clone.close(call, 30);
        });
        worker.join().unwrap();
        handle.close(root, 40);
        tracer.finish(&handle);

        let recent = tracer.recent(10);
        assert_eq!(recent.len(), 1);
        let trace = &recent[0];
        assert_eq!(trace.request_id, 1);
        let call = trace.span("model_call").unwrap();
        assert_eq!(call.parent, Some(0));
        assert_eq!(call.attrs[0], ("version", AttrValue::Str("fast".into())));
        assert!(trace.span("request").unwrap().closed());
    }

    #[test]
    fn ring_evicts_oldest() {
        let tracer = Tracer::new(2);
        for _ in 0..5 {
            let h = tracer.begin();
            h.span("request", None, 0, 1);
            tracer.finish(&h);
        }
        let recent = tracer.recent(10);
        assert_eq!(recent.len(), 2);
        assert_eq!(recent[0].request_id, 4);
        assert_eq!(recent[1].request_id, 5);
        assert_eq!(tracer.finished_count(), 5);
        assert_eq!(tracer.dropped_traces(), 3);
    }

    #[test]
    fn remote_context_joins_and_is_findable() {
        let tracer = Tracer::new(8);
        // A locally-minted request is its own trace.
        let local = tracer.begin();
        assert_eq!(local.trace_id(), local.request_id());
        assert_eq!(local.context().hop, 0);
        local.span("request", None, 0, 1);
        tracer.finish(&local);

        // A proxied request joins the remote parent.
        let ctx = TraceContext {
            trace_id: 9_001,
            parent_span: Some(3),
            hop: 1,
        };
        let remote = tracer.begin_remote(ctx);
        assert_eq!(remote.trace_id(), 9_001);
        assert_ne!(remote.request_id(), 9_001, "local id minted as usual");
        remote.span("request", None, 5, 9);
        tracer.finish(&remote);

        let found = tracer.find(9_001);
        assert_eq!(found.len(), 1);
        assert_eq!(found[0].parent_span, Some(3));
        assert_eq!(found[0].hop, 1);
        assert!(tracer.find(424_242).is_empty());
        assert_eq!(tracer.dropped_traces(), 0);

        let line = found[0].to_json_line();
        assert!(line.contains("\"trace_id\": 9001"));
        assert!(line.contains("\"hop\": 1"));
        assert!(line.contains("\"parent_span\": 3"));
    }

    #[test]
    fn late_spans_after_finish_are_dropped() {
        let tracer = Tracer::new(4);
        let h = tracer.begin();
        h.span("request", None, 0, 5);
        tracer.finish(&h);
        h.open("straggler", None, 6); // cancelled hedge, lost the race
        assert_eq!(tracer.recent(10)[0].spans.len(), 1);
    }

    #[test]
    fn json_line_escapes_strings() {
        let h = TraceHandle::detached(7);
        let s = h.span("request", None, 1, 2);
        h.attr_str(s, "note", "quo\"te\nline");
        let line = h.take_trace().materialize().to_json_line();
        assert!(line.contains("\"request_id\": 7"));
        assert!(line.contains("quo\\\"te\\nline"));
        assert!(line.contains("\"parent\": null"));
    }

    #[test]
    fn file_sink_appends_one_line_per_trace() {
        let dir = std::env::temp_dir().join("tt-obs-span-test");
        std::fs::create_dir_all(&dir).unwrap();
        let path = dir.join(format!("sink-{}.jsonl", std::process::id()));
        let _ = std::fs::remove_file(&path);
        let tracer = Tracer::new(4).with_file_sink(&path).unwrap();
        for _ in 0..3 {
            let h = tracer.begin();
            h.span("request", None, 0, 1);
            tracer.finish(&h);
        }
        assert!(tracer.sink_healthy());
        let body = std::fs::read_to_string(&path).unwrap();
        assert_eq!(body.lines().count(), 3);
        assert!(body.lines().all(|l| l.starts_with("{\"request_id\": ")));
        let _ = std::fs::remove_file(&path);
    }
}
