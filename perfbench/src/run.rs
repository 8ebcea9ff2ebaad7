//! One benchmark run: the untraced run that yields the end-to-end
//! metrics, and the traced run that yields the per-layer ones.

use crate::checks::{Checker, Findings};
use crate::client::{render_request, Answer, CacheTag, WireResponse};
use crate::deploy::{
    boot, probe_request, BootOptions, Deployment, SetupTimes, Workload, STREAM_LEN,
};
use crate::driver::{drive, ChunkStats, Clock, Done, Pace, PassStats, Plan};
use crate::probe;
use crate::stats::{self, Summary};
use crate::sys;
use crate::trace::{layer_table, render_table, write_spans, Span, SpanLog};
use std::collections::{BTreeMap, HashMap};
use std::hint::black_box;
use std::io;
use std::net::SocketAddr;
use std::path::Path;
use std::sync::atomic::AtomicBool;
use std::sync::Arc;
use std::time::Duration;
use tt_core::objective::Objective;
use tt_core::policy::Policy;
use tt_core::request::ServiceRequest;
use tt_net::server::HttpHandler;
use tt_net::{write_response_with, ComputeService, Limits, ObsConfig, RequestAssembler};

/// Requests per traced pass that get client spans (and are written to
/// the span file).
const SPAN_CAP: usize = 20_000;
/// Requests replayed through each ns-scale layer call.
const REPLAY_FAST: usize = 20_000;
/// Requests replayed through `ComputeService::execute`.
const REPLAY_EXECUTE: usize = 1_000;
/// Request-id base of the direct-to-node pass, so its ids never
/// collide with the front-tier pass over the same stream.
const DIRECT_ID_BASE: u64 = 1 << 40;

/// What to run.
#[derive(Debug, Clone, Copy)]
pub struct Args {
    /// The workload.
    pub workload: Workload,
    /// Seeds the request stream and the arrival schedule.
    pub seed: u64,
    /// Length of the measured window.
    pub seconds: f64,
    /// Set-ups per run (the untraced run's `setup_s` is their median).
    pub setups: usize,
}

/// A metric as printed: name, value, unit.
pub type Metric = (&'static str, f64, &'static str);

/// A finished run.
#[derive(Debug, Clone, Default)]
pub struct Outcome {
    /// The metrics this run reports.
    pub metrics: Vec<Metric>,
    /// Requests sent.
    pub attempted: u64,
    /// Non-200s and transport failures.
    pub failed: u64,
    /// Output-check findings.
    pub findings: Findings,
    /// Human-readable report lines.
    pub report: Vec<String>,
}

impl Outcome {
    /// No output check failed.
    pub fn correct(&self) -> bool {
        self.findings.violations == 0 && self.attempted > 0
    }
}

/// Per-request facts one pass collects.
#[derive(Default)]
struct Samples {
    prefix: u64,
    /// Per measured sub-window: all, strict (`response-time/0%`) and
    /// loose (`response-time/10%`) latencies.
    latency_ms: Vec<Vec<f64>>,
    strict_ms: Vec<Vec<f64>>,
    loose_ms: Vec<Vec<f64>>,
    prefix_answers: u64,
    prefix_price: f64,
    prefix_err: f64,
    measured_ok: u64,
    failed: u64,
    brownouts: u64,
    rejects: u64,
    cache: BTreeMap<&'static str, u64>,
    served_by: BTreeMap<usize, u64>,
    /// Traced passes: per-request timing for spans.
    traced: Vec<Traced>,
    trace_cap: usize,
}

struct Traced {
    id: u64,
    due: u64,
    sent: u64,
    first_byte: u64,
    done: u64,
    latency_us: u64,
}

impl Samples {
    fn new(prefix: u64, trace_cap: usize) -> Self {
        Samples {
            prefix,
            trace_cap,
            ..Samples::default()
        }
    }

    fn add(&mut self, done: &Done<'_>, answer: Option<&Answer>, id_base: u64) {
        let status = done.response.as_ref().map(|r| r.status);
        if status != Some(200) {
            self.failed += 1;
        }
        if status == Some(429) {
            self.rejects += 1;
        }
        if let Some(a) = answer {
            if done.index < self.prefix {
                self.prefix_answers += 1;
                self.prefix_price += a.price_usd;
                self.prefix_err += a.quality_err;
            }
        }
        let Some(chunk) = done.chunk else { return };
        if self.latency_ms.len() <= chunk {
            for per_chunk in [
                &mut self.latency_ms,
                &mut self.strict_ms,
                &mut self.loose_ms,
            ] {
                per_chunk.resize_with(chunk + 1, Vec::new);
            }
        }
        let ms = (done.done - done.due) as f64 / 1e6;
        self.latency_ms[chunk].push(ms);
        let Some(a) = answer else { return };
        self.measured_ok += 1;
        if done.request.objective == Objective::ResponseTime {
            let tolerance = done.request.tolerance.value();
            if tolerance == 0.0 {
                self.strict_ms[chunk].push(ms);
            } else if tolerance == 0.10 {
                self.loose_ms[chunk].push(ms);
            }
        }
        if a.brownout {
            self.brownouts += 1;
        }
        let response = done.response.as_ref().expect("an answer has a response");
        let tag = match response.cache {
            CacheTag::Off => "off",
            CacheTag::Miss => "miss",
            CacheTag::Bypass => "bypass",
            CacheTag::HitExact => "hit-exact",
            CacheTag::HitSemantic => "hit-semantic",
        };
        *self.cache.entry(tag).or_default() += 1;
        if let Some(node) = response.served_by {
            *self.served_by.entry(node).or_default() += 1;
        }
        if self.traced.len() < self.trace_cap {
            self.traced.push(Traced {
                id: id_base + done.index,
                due: done.due,
                sent: done.sent,
                first_byte: done.first_byte,
                done: done.done,
                latency_us: a.latency_us,
            });
        }
    }

    fn cache_count(&self, tag: &str) -> u64 {
        self.cache.get(tag).copied().unwrap_or(0)
    }
}

/// One pass of load against a deployment, every answer checked.
struct Pass {
    stats: PassStats,
    samples: Samples,
}

impl Pass {
    fn run(
        addr: SocketAddr,
        checker: &mut Checker<'_>,
        stream: &[ServiceRequest],
        args: &Args,
        measure: f64,
        tag: Option<u64>,
        clock: &Clock,
    ) -> io::Result<Pass> {
        let plan = Plan {
            pace: args.workload.pace(),
            conns: connections(),
            warmup: Duration::from_secs_f64((measure / 4.0).min(1.0)),
            measure: Duration::from_secs_f64(measure),
            chunk: args.workload.chunk().min(Duration::from_secs_f64(measure)),
            tag,
            seed: args.seed,
        };
        let cap = if tag.is_some() { SPAN_CAP } else { 0 };
        let mut samples = Samples::new(args.workload.fixed_prefix(), cap);
        let id_base = tag.unwrap_or(0);
        let stats = drive(addr, stream, &plan, clock, &mut |done| {
            let answer = checker.record(done.request, done.response.as_ref());
            samples.add(&done, answer.as_ref(), id_base);
        })?;
        Ok(Pass { stats, samples })
    }

    /// `200`s completed per second: the median over the quiet
    /// sub-windows, at the nominal host speed and raw.
    fn throughput_rps(&self) -> Scaled {
        self.per_chunk(|c| c.ok as f64 / c.seconds.max(1e-9), |v, scale| v / scale)
    }

    /// Server-side CPU per completed request, µs: the median over the
    /// quiet sub-windows, at the nominal host speed and raw.
    fn cpu_us_per_req(&self) -> Scaled {
        self.per_chunk(
            |c| c.server_cpu.total_us() / c.completed.max(1) as f64,
            |v, scale| v * scale,
        )
    }

    /// Median over the quiet sub-windows of `metric`, raw and put at the
    /// nominal host speed by `nominal(value, host_scale)`.
    fn per_chunk(
        &self,
        metric: impl Fn(&ChunkStats) -> f64,
        nominal: impl Fn(f64, f64) -> f64,
    ) -> Scaled {
        let quiet: Vec<&ChunkStats> = self
            .stats
            .quiet_chunks()
            .into_iter()
            .map(|i| &self.stats.chunks[i])
            .collect();
        let raw: Vec<f64> = quiet.iter().map(|c| metric(c)).collect();
        let scaled: Vec<f64> = quiet
            .iter()
            .map(|c| nominal(metric(c), c.host_scale()))
            .collect();
        Scaled {
            at_nominal: median_or_zero(&scaled),
            raw: median_or_zero(&raw),
        }
    }

    /// Every measured latency, pooled.
    fn latency(&self) -> Summary {
        Summary::of(&self.samples.latency_ms.concat()).unwrap_or_default()
    }
}

/// A host-speed-dependent metric: the median over the quiet sub-windows
/// of each one's value scaled to the nominal host speed, and of the raw
/// values. The report shows both.
#[derive(Debug, Clone, Copy, Default)]
struct Scaled {
    at_nominal: f64,
    raw: f64,
}

/// Latency percentiles of one class of requests over the sub-windows.
#[derive(Debug, Clone, Copy, Default)]
struct Latency {
    p50: Scaled,
    p99: Scaled,
    /// Every sample, pooled, for the sample-count note.
    pooled: Summary,
}

/// Median over the quiet sub-windows of each one's p50 and p99, raw and
/// scaled to the nominal host speed by that sub-window's reference.
/// `None` without samples.
fn chunked(per_chunk: &[Vec<f64>], pass: &PassStats) -> Option<Latency> {
    let mut p50 = (Vec::new(), Vec::new());
    let mut p99 = (Vec::new(), Vec::new());
    for i in pass.quiet_chunks() {
        let Some(s) = per_chunk.get(i).and_then(|samples| Summary::of(samples)) else {
            continue;
        };
        let scale = pass.chunks[i].host_scale();
        p50.0.push(s.p50 * scale);
        p50.1.push(s.p50);
        p99.0.push(s.p99 * scale);
        p99.1.push(s.p99);
    }
    let scaled = |(at_nominal, raw): &(Vec<f64>, Vec<f64>)| -> Option<Scaled> {
        Some(Scaled {
            at_nominal: stats::median(at_nominal)?,
            raw: stats::median(raw)?,
        })
    };
    Some(Latency {
        p50: scaled(&p50)?,
        p99: scaled(&p99)?,
        pooled: Summary::of(&per_chunk.concat())?,
    })
}

/// Keep-alive connections: one per CPU, but no more than the server's
/// default worker count (the threaded engine holds a worker per
/// connection).
pub fn connections() -> usize {
    let nproc = std::thread::available_parallelism().map_or(1, |n| n.get());
    nproc
        .min(tt_net::ServerConfig::default().http_workers)
        .max(1)
}

fn run_record(args: &Args) -> Vec<String> {
    let command = |program: &str, argv: &[&str]| -> Option<String> {
        let out = std::process::Command::new(program)
            .args(argv)
            .stderr(std::process::Stdio::null())
            .output()
            .ok()?;
        out.status
            .success()
            .then(|| String::from_utf8_lossy(&out.stdout).trim().to_string())
    };
    let commit = command("git", &["rev-parse", "--short=12", "HEAD"]).map_or_else(
        || "unknown (not a git checkout)".to_string(),
        |head| {
            let dirty = command("git", &["status", "--porcelain", "--untracked-files=no"])
                .is_some_and(|s| !s.is_empty());
            format!("{head}{}", if dirty { " (dirty)" } else { "" })
        },
    );
    vec![
        format!(
            "run: workload {} seed {} seconds {} nproc {} connections {}",
            args.workload.name(),
            args.seed,
            args.seconds,
            std::thread::available_parallelism().map_or(1, |n| n.get()),
            connections()
        ),
        format!("commit: {commit}"),
        format!(
            "rustc: {}",
            command("rustc", &["--version"]).unwrap_or_else(|| "unknown".into())
        ),
    ]
}

fn record_probe(checker: &mut Checker<'_>, probe: &WireResponse) {
    let _ = checker.record(&probe_request(), Some(probe));
}

/// The untraced run: set up `args.setups` times, drive the last
/// deployment, check every answer, report the end-to-end metrics.
///
/// # Errors
///
/// Socket or `/proc` errors.
pub fn untraced(args: &Args) -> io::Result<Outcome> {
    let clock = Clock::new();
    let stream = args.workload.stream(args.seed, STREAM_LEN);
    let mut setups = Vec::new();
    let mut current: Option<(Deployment, WireResponse)> = None;
    for _ in 0..args.setups.max(1) {
        if let Some((previous, _)) = current.take() {
            previous.shutdown()?;
        }
        let options = BootOptions {
            obs: ObsConfig::defaults(),
            spans: None,
        };
        let (deployment, times, probe) = boot(args.workload, &options)?;
        setups.push(times.total_s());
        current = Some((deployment, probe));
    }
    let (deployment, probe) = current.expect("at least one set-up");
    let mut checker = Checker::new(&deployment);
    record_probe(&mut checker, &probe);
    let pass = Pass::run(
        deployment.addr,
        &mut checker,
        &stream,
        args,
        args.seconds,
        None,
        &clock,
    )?;
    let peak_rss_mb = sys::peak_rss_mb()?;
    let findings = checker.finish();
    deployment.shutdown()?;

    let s = &pass.samples;
    let chunks = &pass.stats.chunks;
    let quiet = pass.stats.quiet_chunks();
    let all = chunked(&s.latency_ms, &pass.stats).unwrap_or_default();
    let strict = chunked(&s.strict_ms, &pass.stats);
    let loose = chunked(&s.loose_ms, &pass.stats);
    let throughput = pass.throughput_rps();
    let cpu = pass.cpu_us_per_req();
    let setup_s = stats::median(&setups).expect("set-ups ran");
    let prefix = s.prefix_answers.max(1) as f64;
    let usd_per_1k = s.prefix_price / prefix * 1000.0;
    let served_err = s.prefix_err / prefix;
    let fail_share = s.failed as f64 / pass.stats.sent.max(1) as f64;
    let mut report = run_record(args);
    report.push(format!(
        "host steal share over the run: {:.4}",
        pass.stats.steal_share
    ));
    report.push(format!(
        "setup_s {setup_s:.4} s (median of {} set-ups: {})",
        setups.len(),
        setups
            .iter()
            .map(|t| format!("{t:.4}"))
            .collect::<Vec<_>>()
            .join(", ")
    ));
    let readings = &pass.stats.readings;
    report.push(format!(
        "host reference: {} readings, median {:.0} ns per request (nominal {:.0} ns), \
         range {:.0}..{:.0} ns; timings below are medians over the {} of {} sub-windows of {:.2} s \
         with the least steal (a third or more), each scaled by nominal / its reference, \
         then [raw]",
        readings.len(),
        median_or_zero(readings),
        probe::NOMINAL_NS,
        readings.iter().copied().fold(f64::MAX, f64::min),
        readings.iter().copied().fold(0.0, f64::max),
        quiet.len(),
        chunks.len(),
        pass.stats.chunk_seconds,
    ));
    let smallest = s.latency_ms.iter().map(Vec::len).min().unwrap_or(0);
    report.push(format!(
        "latency {}: p50 {:.4} [{:.4}] ms, p99 {:.4} [{:.4}] ms (pooled {}; smallest sub-window n={smallest}, {} beyond its p99)",
        match args.workload.pace() {
            Pace::Open { rate } => format!("open loop at {rate} rps, timed from due time"),
            Pace::Closed => format!("closed loop on {} connections", connections()),
        },
        all.p50.at_nominal,
        all.p50.raw,
        all.p99.at_nominal,
        all.p99.raw,
        all.pooled.note(),
        stats::beyond(smallest, 0.99),
    ));
    report.push(format!(
        "throughput {:.0} [{:.0}] rps; server CPU {:.3} [{:.3}] us per request",
        throughput.at_nominal, throughput.raw, cpu.at_nominal, cpu.raw
    ));
    let by_chunk = |f: &dyn Fn(&ChunkStats) -> String| -> String {
        chunks.iter().map(f).collect::<Vec<_>>().join(", ")
    };
    report.push(format!(
        "reference by sub-window (ns): {}",
        by_chunk(&|c| format!("{:.0}", c.reference_ns))
    ));
    report.push(format!(
        "throughput by sub-window (raw rps): {}",
        by_chunk(&|c| format!("{:.0}", c.ok as f64 / c.seconds.max(1e-9)))
    ));
    report.push(format!(
        "server CPU by sub-window (raw us per request): {}",
        by_chunk(&|c| format!("{:.2}", c.server_cpu.total_us() / c.completed.max(1) as f64))
    ));
    report.push(format!(
        "p99 by sub-window (raw ms): {}",
        s.latency_ms
            .iter()
            .map(|c| Summary::of(c).map_or("-".into(), |x| format!("{:.4}", x.p99)))
            .collect::<Vec<_>>()
            .join(", ")
    ));
    report.push(format!(
        "p50 by sub-window (raw ms): {}",
        s.latency_ms
            .iter()
            .map(|c| Summary::of(c).map_or("-".into(), |x| format!("{:.4}", x.p50)))
            .collect::<Vec<_>>()
            .join(", ")
    ));
    report.push(format!(
        "steal by sub-window: {}",
        by_chunk(&|c| format!("{:.3}", c.steal_share))
    ));
    report.push(format!(
        "driver lateness p50 {:.4} ms, p99 {:.4} ms",
        stats::percentile(&pass.stats.late_ns, 0.5).unwrap_or(0.0) / 1e6,
        stats::percentile(&pass.stats.late_ns, 0.99).unwrap_or(0.0) / 1e6
    ));
    for (name, latency) in [
        ("strict response-time/0%", strict),
        ("loose response-time/10%", loose),
    ] {
        if let Some(l) = latency {
            report.push(format!(
                "{name}: p50 {:.4} [{:.4}] ms ({})",
                l.p50.at_nominal,
                l.p50.raw,
                l.pooled.note()
            ));
        }
    }
    report.push(format!(
        "usd_per_1k_req and served_err over the first {} answered requests of the stream",
        s.prefix_answers
    ));
    report.push(format!(
        "sent {} (measured {}), failed {} (transport {}), fail_share {fail_share}",
        pass.stats.sent, pass.stats.measured, s.failed, pass.stats.transport_failures
    ));
    // A closed loop's throughput and latency follow host speed, so they
    // are reported at the nominal host speed. The open loop's
    // throughput is its offered rate and its latency is mostly model
    // sleep, so those are reported raw. CPU per request always follows
    // host speed.
    let host_bound = args.workload.pace() == Pace::Closed;
    let pick = |m: Scaled| if host_bound { m.at_nominal } else { m.raw };
    report.push(format!(
        "reported: {} throughput and latency, CPU at the nominal host speed",
        if host_bound { "scaled" } else { "raw" }
    ));
    Ok(Outcome {
        metrics: vec![
            ("setup_s", setup_s, "s"),
            ("throughput_rps", pick(throughput), "1/s"),
            ("p50_ms", pick(all.p50), "ms"),
            ("p99_ms", pick(all.p99), "ms"),
            ("strict_p50_ms", strict.map_or(0.0, |l| pick(l.p50)), "ms"),
            ("loose_p50_ms", loose.map_or(0.0, |l| pick(l.p50)), "ms"),
            ("usd_per_1k_req", usd_per_1k, "usd"),
            ("served_err", served_err, "share"),
            ("cpu_us_per_req", cpu.at_nominal, "us"),
            ("peak_rss_mb", peak_rss_mb, "MiB"),
        ],
        attempted: pass.stats.sent + 1,
        failed: s.failed,
        findings,
        report,
    })
}

/// Client spans of one traced pass, joined later with the handler
/// spans of the same request ids.
fn client_spans(samples: &Samples, open: bool) -> Vec<Span> {
    let mut spans = Vec::with_capacity(samples.traced.len() * 4);
    for t in &samples.traced {
        let span = |name, parent, start, end| Span {
            req: Some(t.id),
            name,
            parent,
            start,
            end,
            count: 1,
        };
        spans.push(span("client.request", None, t.sent, t.done));
        spans.push(span(
            "client.first_byte",
            Some("client.request"),
            t.sent,
            t.first_byte,
        ));
        spans.push(span(
            "client.read",
            Some("client.request"),
            t.first_byte,
            t.done,
        ));
        if open {
            spans.push(span("client.send", None, t.due, t.sent));
        }
    }
    spans
}

/// Per-request joins of client and handler spans: (wire µs, handler
/// µs, service overhead µs).
fn joined(
    samples: &Samples,
    handler: &HashMap<u64, u64>,
    scale: f64,
) -> (Vec<f64>, Vec<f64>, Vec<f64>) {
    let mut wire = Vec::new();
    let mut handler_us = Vec::new();
    let mut overhead = Vec::new();
    for t in &samples.traced {
        let Some(&h) = handler.get(&t.id) else {
            continue;
        };
        wire.push((t.done - t.sent) as f64 / 1e3 - h as f64 / 1e3);
        handler_us.push(h as f64 / 1e3);
        overhead.push(h as f64 / 1e3 - t.latency_us as f64 * scale);
    }
    (wire, handler_us, overhead)
}

/// FNV-1a over a request body: the input fingerprint the cache keys
/// bit-exact matches on.
fn fingerprint(bytes: &[u8]) -> u64 {
    bytes.iter().fold(0xcbf2_9ce4_8422_2325, |hash, &b| {
        (hash ^ u64::from(b)).wrapping_mul(0x0000_0100_0000_01b3)
    })
}

/// Per-call costs of the public layer calls, replayed in-process over
/// the head of the same request stream.
#[derive(Debug, Default)]
struct Replay {
    parse_ns: f64,
    render_ns: f64,
    decide_ns: f64,
    route_ns: f64,
    cascade_share: f64,
    execute_us: f64,
    lookup_ns: f64,
}

fn batch(log: &SpanLog, name: &'static str, count: usize, work: impl FnOnce()) -> f64 {
    let start = log.clock().now();
    work();
    let end = log.clock().now();
    log.record(Span {
        req: None,
        name,
        parent: None,
        start,
        end,
        count: count as u64,
    });
    (end - start) as f64 / count.max(1) as f64
}

fn replay(service: &ComputeService, stream: &[ServiceRequest], log: &SpanLog) -> Replay {
    let head = &stream[..REPLAY_FAST.min(stream.len())];
    let wires: Vec<Vec<u8>> = head
        .iter()
        .map(|r| {
            let mut wire = Vec::new();
            render_request(&mut wire, r, None);
            wire
        })
        .collect();
    let mut requests = Vec::with_capacity(wires.len());
    let parse_ns = batch(log, "replay.http.parse", wires.len(), || {
        let mut assembler = RequestAssembler::new(Limits::default());
        for wire in &wires {
            assembler.push(wire);
            let request = assembler
                .next_request()
                .expect("rendered requests parse")
                .expect("a whole request was pushed");
            requests.push(request);
        }
    });
    let shutdown = AtomicBool::new(false);
    let replies: Vec<_> = requests
        .iter()
        .take(200)
        .map(|r| service.handle(r, &shutdown))
        .collect();
    let mut out = Vec::with_capacity(1024);
    let render_ns = batch(log, "replay.http.render", head.len(), || {
        for i in 0..head.len() {
            let reply = &replies[i % replies.len()];
            out.clear();
            write_response_with(
                &mut out,
                reply.status,
                reply.reason,
                reply.content_type,
                &reply.headers,
                reply.body.as_bytes(),
                true,
            )
            .expect("writing to memory cannot fail");
            black_box(&out);
        }
    });
    let decide_ns = batch(log, "replay.admission.decide", head.len(), || {
        for r in head {
            black_box(service.admit(black_box(r)));
        }
    });
    let frontend = service.frontend();
    let mut cascades = 0usize;
    let route_ns = batch(log, "replay.route", head.len(), || {
        for r in head {
            if !matches!(
                black_box(frontend.route(black_box(r))),
                Policy::Single { .. }
            ) {
                cascades += 1;
            }
        }
    });
    let prints: Vec<u64> = head
        .iter()
        .map(|r| fingerprint(format!("payload-{}", r.payload).as_bytes()))
        .collect();
    let lookup_ns = batch(log, "replay.cache.lookup", head.len(), || {
        for (r, print) in head.iter().zip(&prints) {
            black_box(service.cache_serve(r, *print, None));
        }
    });
    let mut execute_ns = 0u64;
    for (i, r) in stream.iter().take(REPLAY_EXECUTE).enumerate() {
        let start = log.clock().now();
        let outcome = service.execute(r);
        let end = log.clock().now();
        black_box(outcome.is_ok());
        execute_ns += end - start;
        log.record(Span {
            req: Some(i as u64),
            name: "replay.service.execute",
            parent: None,
            start,
            end,
            count: 1,
        });
    }
    Replay {
        parse_ns,
        render_ns,
        decide_ns,
        route_ns,
        cascade_share: cascades as f64 / head.len().max(1) as f64,
        execute_us: execute_ns as f64 / 1e3 / REPLAY_EXECUTE.min(stream.len()).max(1) as f64,
        lookup_ns,
    }
}

fn model_invocations(services: &[Arc<ComputeService>]) -> (u64, u64) {
    let calls = services
        .iter()
        .filter_map(|s| s.observability())
        .map(|o| {
            o.registry()
                .snapshot()
                .counters
                .get("model_invocations")
                .copied()
                .unwrap_or(0)
        })
        .sum();
    let served = services.iter().map(|s| s.served() as u64).sum();
    (calls, served)
}

fn median_or_zero(values: &[f64]) -> f64 {
    stats::median(values).unwrap_or(0.0)
}

/// The traced run: one set-up with its phases as spans; a traced pass
/// (client spans, and handler spans from a wrapped handler); for the
/// fleet, a traced pass straight onto a node; an untraced pass on the
/// same deployment; an in-process replay of the layer calls; and a
/// pass on a deployment with observability off.
///
/// # Errors
///
/// Socket, `/proc` or span-file errors.
pub fn traced(args: &Args, span_file: &Path) -> io::Result<Outcome> {
    let clock = Clock::new();
    let log = Arc::new(SpanLog::new(clock));
    let stream = args.workload.stream(args.seed, STREAM_LEN);
    let fleet = args.workload == Workload::FleetZipf;
    let open = matches!(args.workload.pace(), Pace::Open { .. });
    // Each pass gets half the run length, so a traced run costs about
    // two untraced ones.
    let half = (args.seconds / 2.0).max(0.25);

    let setup_start = clock.now();
    let options = BootOptions {
        obs: ObsConfig::defaults(),
        spans: (!fleet).then_some(&log),
    };
    let (deployment, times, probe) = boot(args.workload, &options)?;
    record_setup_spans(&log, setup_start, &times);

    let mut checker = Checker::new(&deployment);
    record_probe(&mut checker, &probe);
    // The untraced pass runs first, on the fresh deployment, so it sees
    // the same state (cold cache, warm-up) as the untraced run and as
    // the observability-off pass below.
    let (calls0, served0) = model_invocations(&deployment.services);
    let plain = Pass::run(
        deployment.addr,
        &mut checker,
        &stream,
        args,
        half,
        None,
        &clock,
    )?;
    let (calls1, served1) = model_invocations(&deployment.services);
    let traced_pass = Pass::run(
        deployment.addr,
        &mut checker,
        &stream,
        args,
        half,
        Some(0),
        &clock,
    )?;
    let direct_pass = if fleet {
        let direct = deployment.direct_node(&log)?;
        let pass = Pass::run(
            direct.addr(),
            &mut checker,
            &stream,
            args,
            half,
            Some(DIRECT_ID_BASE),
            &clock,
        )?;
        direct.stop()?;
        Some(pass)
    } else {
        None
    };
    let mut findings = checker.finish();
    let replayed = replay(&deployment.services[0], &stream, &log);
    let latency_scale = args.workload.latency_scale();

    let (bare, bare_probe) = deployment.reboot_with(args.workload, ObsConfig::disabled())?;
    deployment.shutdown()?;
    let mut bare_checker = Checker::new(&bare);
    record_probe(&mut bare_checker, &bare_probe);
    let bare_pass = Pass::run(
        bare.addr,
        &mut bare_checker,
        &stream,
        args,
        half,
        None,
        &clock,
    )?;
    findings.merge(bare_checker.finish());
    bare.shutdown()?;

    // Spans: set-up and replay spans are already in the log; add the
    // client spans and keep only the handler spans of requests that
    // have client spans.
    let handler_pass = direct_pass.as_ref().unwrap_or(&traced_pass);
    let mut spans: Vec<Span> = client_spans(&traced_pass.samples, open);
    if let Some(direct) = &direct_pass {
        spans.extend(client_spans(&direct.samples, open));
    }
    let with_client: std::collections::HashSet<u64> = spans.iter().filter_map(|s| s.req).collect();
    let mut handler = HashMap::new();
    for s in log.spans() {
        match s.req {
            Some(req) if s.name == "handler" => {
                if with_client.contains(&req) {
                    handler.insert(req, s.end - s.start);
                    spans.push(s);
                }
            }
            _ => spans.push(s),
        }
    }
    write_spans(span_file, &spans)?;
    let table = layer_table(&spans);
    let (wire_us, handler_us, overhead_us) = joined(&handler_pass.samples, &handler, latency_scale);
    let handler_summary = Summary::of(&handler_us);

    let front_proxy_us = match &direct_pass {
        Some(direct) => (traced_pass.latency().p50 - direct.latency().p50) * 1e3,
        None => 0.0,
    };
    let counts: Vec<f64> = plain
        .samples
        .served_by
        .values()
        .map(|&n| n as f64)
        .collect();
    let node_skew = match stats::mean(&counts) {
        Some(mean) if mean > 0.0 => {
            let max = counts.iter().copied().fold(f64::MIN, f64::max);
            let min = counts.iter().copied().fold(f64::MAX, f64::min);
            (max - min) / mean
        }
        _ => 0.0,
    };
    let s = &plain.samples;
    let answered = s.measured_ok.max(1) as f64;
    let hits = s.cache_count("hit-exact") + s.cache_count("hit-semantic");
    let consulted = hits + s.cache_count("miss") + s.cache_count("bypass");
    let server_cpu = plain.stats.server_cpu();
    let obs_cpu = plain.cpu_us_per_req().raw - bare_pass.cpu_us_per_req().raw;
    let trace_cpu = traced_pass.cpu_us_per_req().raw - plain.cpu_us_per_req().raw;
    let trace_p50_us = (traced_pass.latency().p50 - plain.latency().p50) * 1e3;

    let mut report = run_record(args);
    report.push(format!(
        "passes of {half} s each: untraced, traced, {}observability off",
        if fleet {
            "traced straight to node 0, "
        } else {
            ""
        }
    ));
    report.push(format!(
        "spans: {} written to {}",
        spans.len(),
        span_file.display()
    ));
    report.push("per-layer table (self = duration not covered by child spans):".into());
    report.extend(render_table(&table).lines().map(str::to_string));
    report.push(format!(
        "tracing overhead (traced minus untraced pass): {trace_cpu:.3} us CPU per request, \
         {trace_p50_us:.3} us at p50"
    ));
    report.push(format!(
        "handler ({}) ; wire p50 {:.3} us",
        handler_summary.map_or("no handler spans".to_string(), |h| h.note()),
        median_or_zero(&wire_us)
    ));

    let failed = traced_pass.samples.failed
        + direct_pass.as_ref().map_or(0, |p| p.samples.failed)
        + plain.samples.failed
        + bare_pass.samples.failed;
    let attempted = traced_pass.stats.sent
        + direct_pass.as_ref().map_or(0, |p| p.stats.sent)
        + plain.stats.sent
        + bare_pass.stats.sent
        + 2;
    let late_p99_ms = stats::percentile(&plain.stats.late_ns, 0.99).unwrap_or(0.0) / 1e6;
    Ok(Outcome {
        metrics: vec![
            ("driver.late_p99_ms", late_p99_ms, "ms"),
            (
                "driver.cpu_us_per_req",
                plain.stats.driver_cpu().total_us() / plain.stats.completed().max(1) as f64,
                "us",
            ),
            ("host.steal_share", plain.stats.steal_share, "share"),
            (
                "host.reference_us",
                median_or_zero(&plain.stats.readings) / 1e3,
                "us",
            ),
            (
                "fail_share",
                failed as f64 / attempted.max(1) as f64,
                "share",
            ),
            ("wire.p50_us", median_or_zero(&wire_us), "us"),
            (
                "wire.sys_share",
                server_cpu.sys_us / server_cpu.total_us().max(1e-9),
                "share",
            ),
            ("http.parse_ns", replayed.parse_ns, "ns"),
            ("http.render_ns", replayed.render_ns, "ns"),
            ("admission.decide_ns", replayed.decide_ns, "ns"),
            (
                "admission.brownout_share",
                s.brownouts as f64 / answered,
                "share",
            ),
            (
                "admission.reject_share",
                s.rejects as f64 / plain.stats.sent.max(1) as f64,
                "share",
            ),
            ("route.ns", replayed.route_ns, "ns"),
            ("route.cascade_share", replayed.cascade_share, "share"),
            (
                "handler.p50_us",
                handler_summary.map_or(0.0, |h| h.p50),
                "us",
            ),
            (
                "handler.p99_us",
                handler_summary.map_or(0.0, |h| h.p99),
                "us",
            ),
            ("service.execute_us", replayed.execute_us, "us"),
            ("service.overhead_us", median_or_zero(&overhead_us), "us"),
            (
                "model.calls_per_req",
                (calls1 - calls0) as f64 / (served1 - served0).max(1) as f64,
                "count",
            ),
            (
                "cache.hit_ratio",
                hits as f64 / consulted.max(1) as f64,
                "share",
            ),
            (
                "cache.semantic_share",
                s.cache_count("hit-semantic") as f64 / hits.max(1) as f64,
                "share",
            ),
            ("cache.lookup_ns", replayed.lookup_ns, "ns"),
            ("front.proxy_us", front_proxy_us, "us"),
            ("front.node_skew", node_skew, "share"),
            ("setup.profile_s", times.profile_s, "s"),
            ("setup.rulegen_s", times.rulegen_s, "s"),
            ("setup.boot_s", times.boot_s, "s"),
            ("obs.cpu_us_per_req", obs_cpu, "us"),
            ("trace.overhead_cpu_us", trace_cpu, "us"),
        ],
        attempted,
        failed,
        findings,
        report,
    })
}

fn record_setup_spans(log: &SpanLog, start: u64, times: &SetupTimes) {
    let mut at = start;
    for (name, seconds) in [
        ("setup.profile", times.profile_s),
        ("setup.rulegen", times.rulegen_s),
        ("setup.boot", times.boot_s),
    ] {
        let end = at + (seconds * 1e9) as u64;
        log.record(Span {
            req: None,
            name,
            parent: None,
            start: at,
            end,
            count: 1,
        });
        at = end;
    }
}
