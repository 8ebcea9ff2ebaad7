//! Spans for the traced run: kept in memory, joined on the request id,
//! folded into a per-layer table of counts and self times, and written
//! to a JSON-lines file at exit.

use crate::client::ID_HEADER;
use crate::driver::Clock;
use std::collections::{BTreeMap, HashMap};
use std::io::{self, Write};
use std::path::Path;
use std::sync::atomic::AtomicBool;
use std::sync::{Arc, Mutex};
use tt_net::server::{HttpHandler, Reply, ReplySink};
use tt_net::Request;

/// One timed interval. A span with `count > 1` times a batch of that
/// many identical calls (ns-scale layers, where reading the clock per
/// call would cost as much as the call).
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct Span {
    /// The request it belongs to; `None` for set-up and batches.
    pub req: Option<u64>,
    /// Layer name.
    pub name: &'static str,
    /// The enclosing span of the same request, by name.
    pub parent: Option<&'static str>,
    /// Start, ns on the shared clock.
    pub start: u64,
    /// End, ns on the shared clock.
    pub end: u64,
    /// Calls covered.
    pub count: u64,
}

/// Spans from every thread, in memory until the run ends.
#[derive(Debug)]
pub struct SpanLog {
    clock: Clock,
    spans: Mutex<Vec<Span>>,
}

impl SpanLog {
    /// An empty log on `clock`.
    pub fn new(clock: Clock) -> Self {
        SpanLog {
            clock,
            spans: Mutex::new(Vec::new()),
        }
    }

    /// The shared clock.
    pub fn clock(&self) -> &Clock {
        &self.clock
    }

    /// Keep one span.
    pub fn record(&self, span: Span) {
        self.spans.lock().expect("span log poisoned").push(span);
    }

    /// Everything recorded so far.
    pub fn spans(&self) -> Vec<Span> {
        self.spans.lock().expect("span log poisoned").clone()
    }
}

/// Wraps a node's handler and records a `handler` span per tagged
/// request, from entry until the reply is handed back (for the async
/// entry point: until its `ReplySink` is called).
pub struct TracedHandler<H> {
    inner: Arc<H>,
    log: Arc<SpanLog>,
}

impl<H> TracedHandler<H> {
    /// Wrap `inner`, recording into `log`.
    pub fn new(inner: Arc<H>, log: Arc<SpanLog>) -> Self {
        TracedHandler { inner, log }
    }
}

fn request_id(request: &Request) -> Option<u64> {
    request.header(ID_HEADER).and_then(|v| v.parse().ok())
}

fn handler_span(req: u64, start: u64, end: u64) -> Span {
    Span {
        req: Some(req),
        name: "handler",
        parent: Some("client.first_byte"),
        start,
        end,
        count: 1,
    }
}

impl<H: HttpHandler> HttpHandler for TracedHandler<H> {
    fn handle(&self, request: &Request, shutdown: &AtomicBool) -> Reply {
        let start = self.log.clock().now();
        let reply = self.inner.handle(request, shutdown);
        if let Some(req) = request_id(request) {
            self.log
                .record(handler_span(req, start, self.log.clock().now()));
        }
        reply
    }

    fn handle_async(&self, request: &Request, shutdown: &AtomicBool, done: ReplySink) {
        let Some(req) = request_id(request) else {
            return self.inner.handle_async(request, shutdown, done);
        };
        let start = self.log.clock().now();
        let log = Arc::clone(&self.log);
        self.inner.handle_async(
            request,
            shutdown,
            Box::new(move |reply| {
                log.record(handler_span(req, start, log.clock().now()));
                done(reply);
            }),
        );
    }

    fn completes_promptly(&self, request: &Request) -> bool {
        self.inner.completes_promptly(request)
    }

    fn on_idle(&self) {
        self.inner.on_idle();
    }

    fn shed(&self) -> Reply {
        self.inner.shed()
    }
}

/// One row of the per-layer table.
#[derive(Debug, Clone, Copy, Default, PartialEq)]
pub struct LayerRow {
    /// Calls.
    pub count: u64,
    /// Summed duration, ns.
    pub total_ns: u64,
    /// Summed duration not covered by child spans, ns.
    pub self_ns: u64,
}

/// Fold spans into per-layer rows. A span's children are the spans of
/// the same request naming it as parent; its self time is its duration
/// minus the part of it they cover.
pub fn layer_table(spans: &[Span]) -> BTreeMap<&'static str, LayerRow> {
    let mut by_key: HashMap<(u64, &'static str), usize> = HashMap::new();
    for (i, span) in spans.iter().enumerate() {
        if let Some(req) = span.req {
            by_key.insert((req, span.name), i);
        }
    }
    let mut covered = vec![0u64; spans.len()];
    for span in spans {
        let (Some(req), Some(parent)) = (span.req, span.parent) else {
            continue;
        };
        if let Some(&p) = by_key.get(&(req, parent)) {
            let outer = &spans[p];
            let overlap = span
                .end
                .min(outer.end)
                .saturating_sub(span.start.max(outer.start));
            covered[p] += overlap;
        }
    }
    let mut table: BTreeMap<&'static str, LayerRow> = BTreeMap::new();
    for (span, covered) in spans.iter().zip(covered) {
        let row = table.entry(span.name).or_default();
        let duration = span.end.saturating_sub(span.start);
        row.count += span.count;
        row.total_ns += duration;
        row.self_ns += duration.saturating_sub(covered);
    }
    table
}

/// Render the table for the report.
pub fn render_table(table: &BTreeMap<&'static str, LayerRow>) -> String {
    let mut out = format!(
        "{:<26} {:>9} {:>14} {:>14} {:>12}\n",
        "layer", "count", "total ms", "self ms", "self/call"
    );
    for (name, row) in table {
        let per_call = row.self_ns as f64 / row.count.max(1) as f64;
        let per_call = if per_call >= 1e4 {
            format!("{:.1} us", per_call / 1e3)
        } else {
            format!("{per_call:.0} ns")
        };
        out.push_str(&format!(
            "{:<26} {:>9} {:>14.3} {:>14.3} {:>12}\n",
            name,
            row.count,
            row.total_ns as f64 / 1e6,
            row.self_ns as f64 / 1e6,
            per_call
        ));
    }
    out
}

/// Write every span as one JSON object per line.
///
/// # Errors
///
/// File-system errors.
pub fn write_spans(path: &Path, spans: &[Span]) -> io::Result<()> {
    if let Some(dir) = path.parent() {
        std::fs::create_dir_all(dir)?;
    }
    let mut out = io::BufWriter::new(std::fs::File::create(path)?);
    for s in spans {
        let req = s.req.map_or("null".to_string(), |r| r.to_string());
        let parent = s.parent.map_or("null".to_string(), |p| format!("\"{p}\""));
        writeln!(
            out,
            "{{\"req\": {req}, \"name\": \"{}\", \"parent\": {parent}, \"start_ns\": {}, \"end_ns\": {}, \"count\": {}}}",
            s.name, s.start, s.end, s.count
        )?;
    }
    out.flush()
}

#[cfg(test)]
mod tests {
    use super::*;

    fn span(
        req: u64,
        name: &'static str,
        parent: Option<&'static str>,
        start: u64,
        end: u64,
    ) -> Span {
        Span {
            req: Some(req),
            name,
            parent,
            start,
            end,
            count: 1,
        }
    }

    #[test]
    fn self_time_subtracts_children_of_the_same_request() {
        let spans = [
            span(1, "client.request", None, 0, 100),
            span(1, "client.first_byte", Some("client.request"), 0, 80),
            span(1, "handler", Some("client.first_byte"), 10, 70),
            span(1, "client.read", Some("client.request"), 80, 100),
            // Another request's handler must not count against request 1.
            span(2, "handler", Some("client.first_byte"), 0, 50),
        ];
        let table = layer_table(&spans);
        assert_eq!(table["client.request"].self_ns, 0);
        assert_eq!(table["client.first_byte"].self_ns, 20);
        assert_eq!(table["handler"].count, 2);
        assert_eq!(table["handler"].self_ns, 110);
        assert_eq!(table["client.read"].total_ns, 20);
    }
}
