//! The load driver: one thread, non-blocking keep-alive sockets, a
//! readiness wait between events (never a spin).
//!
//! Closed loop keeps exactly one request in flight per connection. Open
//! loop sends on a seeded Poisson schedule, pipelining requests on the
//! least-loaded connection, and times each request from when it was
//! due, so a stall is charged to every request it delays; how late the
//! driver itself ran is reported beside it.

use crate::client::{render_request, ResponseParser, WireResponse};
use crate::probe;
use crate::stats;
use crate::sys::{self, Cpu, HostCpu, Interest};
use rand::rngs::StdRng;
use rand::{Rng, SeedableRng};
use std::collections::VecDeque;
use std::io::{self, Read, Write};
use std::net::{SocketAddr, TcpStream};
use std::os::unix::io::AsRawFd;
use std::time::{Duration, Instant};
use tt_core::request::ServiceRequest;

/// How long in-flight requests may take to answer once sending stops.
const DRAIN_LIMIT: Duration = Duration::from_secs(30);
/// Longest single wait, so phase boundaries are noticed promptly.
const MAX_WAIT: Duration = Duration::from_millis(20);

/// Monotonic nanoseconds since one anchor shared by every span source
/// in the process (driver, traced handler, in-process replay).
#[derive(Debug, Clone, Copy)]
pub struct Clock(Instant);

impl Clock {
    /// A clock anchored now.
    pub fn new() -> Self {
        Clock(Instant::now())
    }

    /// Nanoseconds since the anchor.
    pub fn now(&self) -> u64 {
        self.0.elapsed().as_nanos() as u64
    }
}

/// How requests are paced.
#[derive(Debug, Clone, Copy, PartialEq)]
pub enum Pace {
    /// One request in flight per connection.
    Closed,
    /// Poisson arrivals at a fixed rate, pipelined.
    Open {
        /// Mean arrivals per second.
        rate: f64,
    },
}

/// What one sub-window cost.
#[derive(Debug, Clone, Copy, Default)]
pub struct ChunkStats {
    /// Wall time from its first send until its last answer.
    pub seconds: f64,
    /// Process CPU minus the driver thread's.
    pub server_cpu: Cpu,
    /// The driver thread's CPU.
    pub driver_cpu: Cpu,
    /// Host CPU time stolen by the hypervisor, as a share.
    pub steal_share: f64,
    /// Responses completed.
    pub completed: u64,
    /// `200`s completed.
    pub ok: u64,
    /// The host reference around it: the mean of the readings taken
    /// just before and just after it, ns per round trip.
    pub reference_ns: f64,
}

impl ChunkStats {
    /// How much faster than nominal the host ran the reference around
    /// this sub-window: multiply a duration by it to put it at the
    /// nominal host speed.
    pub fn host_scale(&self) -> f64 {
        probe::NOMINAL_NS / self.reference_ns.max(1.0)
    }
}

/// One pass of load.
#[derive(Debug, Clone)]
pub struct Plan {
    /// Pacing.
    pub pace: Pace,
    /// Keep-alive connections.
    pub conns: usize,
    /// Load before the measured window (not measured).
    pub warmup: Duration,
    /// The measured window: the sum of its sub-windows, pauses not
    /// included.
    pub measure: Duration,
    /// Length of one sub-window.
    pub chunk: Duration,
    /// Traced passes: stamp each request with this base plus its
    /// stream index.
    pub tag: Option<u64>,
    /// Seeds the arrival schedule.
    pub seed: u64,
}

impl Plan {
    /// Sub-windows in the measured window.
    pub fn chunks(&self) -> usize {
        ((self.measure.as_secs_f64() / self.chunk.as_secs_f64()).round() as usize).max(1)
    }
}

/// One finished request, handed to the caller as it completes.
#[derive(Debug)]
pub struct Done<'a> {
    /// Position in the request stream.
    pub index: u64,
    /// The request sent.
    pub request: &'a ServiceRequest,
    /// When it was due (open loop) or sent (closed loop), ns.
    pub due: u64,
    /// When its bytes were handed to the socket, ns.
    pub sent: u64,
    /// When the first byte of its response arrived, ns.
    pub first_byte: u64,
    /// When its response was complete, ns.
    pub done: u64,
    /// The measured sub-window it was sent in, if any.
    pub chunk: Option<usize>,
    /// `None` for a transport failure.
    pub response: Option<WireResponse>,
}

/// What the driver saw of one pass.
#[derive(Debug, Clone, Default)]
pub struct PassStats {
    /// Requests sent, warm-up included.
    pub sent: u64,
    /// Requests that failed on the transport (no response).
    pub transport_failures: u64,
    /// Requests sent (or due) in the measured sub-windows.
    pub measured: u64,
    /// Length of one sub-window, seconds.
    pub chunk_seconds: f64,
    /// Per sub-window costs.
    pub chunks: Vec<ChunkStats>,
    /// The host reference readings (ns per request), one before each
    /// sub-window and one after the last.
    pub readings: Vec<f64>,
    /// Open loop: send time minus due time per measured request, ns.
    pub late_ns: Vec<f64>,
    /// Host steal share over the measured sub-windows.
    pub steal_share: f64,
}

impl PassStats {
    /// Server-side CPU (process minus the driver thread) over the
    /// measured sub-windows.
    pub fn server_cpu(&self) -> Cpu {
        self.chunks
            .iter()
            .fold(Cpu::default(), |sum, c| sum.plus(c.server_cpu))
    }

    /// The driver thread's CPU over the measured sub-windows.
    pub fn driver_cpu(&self) -> Cpu {
        self.chunks
            .iter()
            .fold(Cpu::default(), |sum, c| sum.plus(c.driver_cpu))
    }

    /// Responses completed in the measured sub-windows.
    pub fn completed(&self) -> u64 {
        self.chunks.iter().map(|c| c.completed).sum()
    }

    /// The sub-windows in which the hypervisor stole no more CPU than in
    /// the sub-window a third of the way up from the least stolen: at
    /// least a third of them. Steal marks a neighbour's bursts, and even
    /// 2% of it doubles the open loop's p99; the reported medians are
    /// taken over these sub-windows only.
    pub fn quiet_chunks(&self) -> Vec<usize> {
        let steal: Vec<f64> = self.chunks.iter().map(|c| c.steal_share).collect();
        let Some(limit) = stats::percentile(&steal, 1.0 / 3.0) else {
            return Vec::new();
        };
        (0..steal.len()).filter(|&i| steal[i] <= limit).collect()
    }
}

/// Where a pass is.
#[derive(Debug, Clone, Copy)]
enum Phase {
    /// Load, not measured, until the given time.
    Warmup { until: u64 },
    /// Load in sub-window `index` until the given time.
    Measure { index: usize, until: u64 },
    /// Sending stopped at `since`; once nothing is in flight, the
    /// reference is read and sub-window `next` opens (or the pass ends).
    Pause { next: usize, since: u64 },
}

/// Clocks read at either end of a sub-window.
struct Snapshot {
    at: u64,
    process: Cpu,
    driver: Cpu,
    host: HostCpu,
}

impl Snapshot {
    fn now(clock: &Clock) -> io::Result<Snapshot> {
        Ok(Snapshot {
            at: clock.now(),
            process: sys::process_cpu(),
            driver: sys::thread_cpu(),
            host: HostCpu::read()?,
        })
    }
}

struct Pending {
    index: u64,
    due: u64,
    sent: u64,
    first_byte: Option<u64>,
    chunk: Option<usize>,
}

struct Conn {
    stream: TcpStream,
    out: Vec<u8>,
    written: usize,
    pending: VecDeque<Pending>,
    parser: ResponseParser,
    dead: bool,
}

impl Conn {
    fn open(addr: SocketAddr) -> io::Result<Conn> {
        let stream = TcpStream::connect(addr)?;
        stream.set_nodelay(true)?;
        stream.set_nonblocking(true)?;
        Ok(Conn {
            stream,
            out: Vec::with_capacity(4096),
            written: 0,
            pending: VecDeque::new(),
            parser: ResponseParser::default(),
            dead: false,
        })
    }

    /// Write what the socket takes; the rest waits for writability.
    fn flush(&mut self) -> io::Result<()> {
        while self.written < self.out.len() {
            match self.stream.write(&self.out[self.written..]) {
                Ok(0) => return Err(io::ErrorKind::WriteZero.into()),
                Ok(n) => self.written += n,
                Err(e) if e.kind() == io::ErrorKind::WouldBlock => return Ok(()),
                Err(e) if e.kind() == io::ErrorKind::Interrupted => {}
                Err(e) => return Err(e),
            }
        }
        self.out.clear();
        self.written = 0;
        Ok(())
    }
}

/// Run one pass against `addr`, feeding `stream` (cycled from index 0)
/// and calling `on_done` for every request as it finishes.
///
/// After warm-up the pass runs `plan.chunks()` sub-windows. Before
/// each, and after the last, sending stops, the pipeline drains and the
/// host reference is read; so every sub-window starts and ends with
/// nothing in flight and has a host-speed reading on both sides. The
/// open loop's schedule is shifted past each pause, so no request is
/// charged for it.
///
/// # Errors
///
/// Connecting, the readiness wait, or the reference failing.
pub fn drive(
    addr: SocketAddr,
    stream: &[ServiceRequest],
    plan: &Plan,
    clock: &Clock,
    on_done: &mut dyn FnMut(Done<'_>),
) -> io::Result<PassStats> {
    assert!(
        !stream.is_empty() && plan.conns > 0,
        "empty stream or no connections"
    );
    let mut reference = probe::Reference::start(plan.conns)?;
    let mut conns = (0..plan.conns)
        .map(|_| Conn::open(addr))
        .collect::<io::Result<Vec<_>>>()?;
    let mut rng = StdRng::seed_from_u64(plan.seed ^ 0x5eed_0a11_0c0d_e5e7);
    let chunks = plan.chunks();
    let chunk_ns = plan.measure.as_nanos() as u64 / chunks as u64;
    let mut stats = PassStats {
        chunk_seconds: chunk_ns as f64 / 1e9,
        ..PassStats::default()
    };
    let start = clock.now();
    let mut phase = Phase::Warmup {
        until: start + plan.warmup.as_nanos() as u64,
    };
    let mut opening: Option<Snapshot> = None;
    let mut next_index = 0u64;
    let mut next_due = start;
    let mut read_buf = vec![0u8; 64 * 1024];
    let mut interests = Vec::with_capacity(conns.len());
    let open = matches!(plan.pace, Pace::Open { .. });

    loop {
        let now = clock.now();
        if let Phase::Warmup { until } | Phase::Measure { until, .. } = phase {
            let chunk = match phase {
                Phase::Measure { index, .. } => Some(index),
                _ => None,
            };
            let mut enqueue = |conn: &mut Conn, due: u64, sent: u64| {
                let index = next_index;
                next_index += 1;
                let request = &stream[(index % stream.len() as u64) as usize];
                render_request(&mut conn.out, request, plan.tag.map(|base| base + index));
                conn.pending.push_back(Pending {
                    index,
                    due,
                    sent,
                    first_byte: None,
                    chunk,
                });
                stats.sent += 1;
                if chunk.is_some() {
                    stats.measured += 1;
                    if open {
                        stats.late_ns.push(sent.saturating_sub(due) as f64);
                    }
                }
            };
            match plan.pace {
                Pace::Closed if now < until => {
                    for conn in conns.iter_mut().filter(|c| !c.dead && c.pending.is_empty()) {
                        let t = clock.now();
                        enqueue(conn, t, t);
                    }
                }
                Pace::Closed => {}
                Pace::Open { rate } => {
                    while next_due <= now && next_due < until {
                        let Some(conn) = conns
                            .iter_mut()
                            .filter(|c| !c.dead)
                            .min_by_key(|c| c.pending.len())
                        else {
                            break;
                        };
                        enqueue(conn, next_due, clock.now());
                        let u: f64 = rng.gen();
                        next_due += (-(1.0 - u).ln() / rate * 1e9) as u64;
                    }
                }
            }
            if now >= until || conns.iter().all(|c| c.dead) {
                let next = chunk.map_or(0, |index| index + 1);
                phase = Phase::Pause { next, since: until };
            }
        }
        for conn in conns.iter_mut().filter(|c| !c.dead && !c.out.is_empty()) {
            if conn.flush().is_err() {
                fail_all(conn, stream, &mut stats, clock, on_done);
            }
        }

        if let Phase::Pause { next, since } = phase {
            let in_flight = conns.iter().any(|c| !c.pending.is_empty());
            if in_flight && clock.now() >= since + DRAIN_LIMIT.as_nanos() as u64 {
                for conn in &mut conns {
                    fail_all(conn, stream, &mut stats, clock, on_done);
                }
                continue;
            }
            if !in_flight {
                if let Some(o) = opening.take() {
                    let closed = Snapshot::now(clock)?;
                    let chunk = &mut stats.chunks[next - 1];
                    chunk.seconds = (closed.at - o.at) as f64 / 1e9;
                    let driver = closed.driver.since(o.driver);
                    chunk.driver_cpu = driver;
                    chunk.server_cpu = closed.process.since(o.process).since(driver);
                    chunk.steal_share = closed.host.steal_share_since(o.host);
                    stats.steal_share += chunk.steal_share / chunks as f64;
                }
                stats.readings.push(reference.read()?);
                if let (Some(chunk), [.., before, after]) =
                    (next.checked_sub(1), &stats.readings[..])
                {
                    stats.chunks[chunk].reference_ns = (before + after) / 2.0;
                }
                if next == chunks || conns.iter().all(|c| c.dead) {
                    break;
                }
                let o = Snapshot::now(clock)?;
                next_due += o.at - since;
                phase = Phase::Measure {
                    index: next,
                    until: o.at + chunk_ns,
                };
                stats.chunks.push(ChunkStats::default());
                opening = Some(o);
                continue;
            }
        }

        let until = match phase {
            Phase::Warmup { until } | Phase::Measure { until, .. } => until,
            Phase::Pause { since, .. } => since + DRAIN_LIMIT.as_nanos() as u64,
        };
        let now = clock.now();
        let wake = match (plan.pace, phase) {
            (Pace::Open { .. }, Phase::Warmup { .. } | Phase::Measure { .. }) => {
                next_due.min(until)
            }
            _ => until,
        };
        let timeout = Duration::from_nanos(wake.saturating_sub(now)).min(MAX_WAIT);
        interests.clear();
        interests.extend(
            conns
                .iter()
                .filter(|c| !c.dead)
                .map(|c| Interest::new(c.stream.as_raw_fd(), !c.out.is_empty())),
        );
        if interests.is_empty() {
            continue;
        }
        sys::wait(&mut interests, timeout)?;
        let live = conns.iter_mut().filter(|c| !c.dead);
        for (conn, ready) in live.zip(interests.iter()) {
            if ready.readable_now {
                read_ready(conn, &mut read_buf, stream, &mut stats, clock, on_done);
            }
        }
    }
    Ok(stats)
}

#[allow(clippy::too_many_arguments)]
fn read_ready(
    conn: &mut Conn,
    buf: &mut [u8],
    stream: &[ServiceRequest],
    stats: &mut PassStats,
    clock: &Clock,
    on_done: &mut dyn FnMut(Done<'_>),
) {
    loop {
        match conn.stream.read(buf) {
            Ok(0) => break fail_all(conn, stream, stats, clock, on_done),
            Ok(n) => {
                let now = clock.now();
                if let Some(front) = conn.pending.front_mut() {
                    front.first_byte.get_or_insert(now);
                }
                conn.parser.push(&buf[..n]);
                loop {
                    match conn.parser.next_response() {
                        Ok(Some(response)) => {
                            let Some(pending) = conn.pending.pop_front() else {
                                break fail_all(conn, stream, stats, clock, on_done);
                            };
                            finish(pending, Some(response), now, stream, stats, on_done);
                            if let Some(next) = conn.pending.front_mut() {
                                if !conn.parser.is_empty() {
                                    next.first_byte.get_or_insert(now);
                                }
                            }
                        }
                        Ok(None) => break,
                        Err(_) => {
                            fail_all(conn, stream, stats, clock, on_done);
                            return;
                        }
                    }
                }
                if conn.dead {
                    return;
                }
            }
            Err(e) if e.kind() == io::ErrorKind::WouldBlock => break,
            Err(e) if e.kind() == io::ErrorKind::Interrupted => {}
            Err(_) => break fail_all(conn, stream, stats, clock, on_done),
        }
    }
}

#[allow(clippy::too_many_arguments)]
fn finish(
    pending: Pending,
    response: Option<WireResponse>,
    done: u64,
    stream: &[ServiceRequest],
    stats: &mut PassStats,
    on_done: &mut dyn FnMut(Done<'_>),
) {
    if let Some(chunk) = pending.chunk {
        let chunk = &mut stats.chunks[chunk];
        chunk.completed += 1;
        if response.as_ref().is_some_and(|r| r.status == 200) {
            chunk.ok += 1;
        }
    }
    if response.is_none() {
        stats.transport_failures += 1;
    }
    on_done(Done {
        index: pending.index,
        request: &stream[(pending.index % stream.len() as u64) as usize],
        due: pending.due,
        sent: pending.sent,
        first_byte: pending.first_byte.unwrap_or(done),
        done,
        chunk: pending.chunk,
        response,
    });
}

/// The connection is unusable: every request on it failed.
fn fail_all(
    conn: &mut Conn,
    stream: &[ServiceRequest],
    stats: &mut PassStats,
    clock: &Clock,
    on_done: &mut dyn FnMut(Done<'_>),
) {
    conn.dead = true;
    let now = clock.now();
    while let Some(pending) = conn.pending.pop_front() {
        finish(pending, None, now, stream, stats, on_done);
    }
}
