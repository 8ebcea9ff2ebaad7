//! Heap-allocation budget of one served `POST /compute`.
//!
//! A counting global allocator measures the three phases a node runs
//! per request on the demo deployment with the representative tier
//! mix, in process: parse (`RequestAssembler`), handle
//! (`HttpHandler::handle`, which traces, counts and bills the request)
//! and render (`write_response_with`). Each phase's mean count per
//! request is pinned, once with observability on and once off, so a
//! change that adds per-request heap churn fails here rather than as a
//! slower benchmark. The gap between the two handle counts is what
//! recording a request costs.

use std::alloc::{GlobalAlloc, Layout, System};
use std::sync::atomic::{AtomicBool, AtomicU64, Ordering};

use tt_net::demo::demo_service;
use tt_net::server::HttpHandler;
use tt_net::{write_response_with, Limits, ObsConfig, RequestAssembler, ServiceConfig};
use tt_workloads::RequestMix;

/// Counts every allocation and reallocation in the process. The one
/// test below runs its phases serially, and a request's model call
/// runs on the service's worker pool, so a process-wide count is the
/// request's own.
struct CountingAllocator;

static ALLOCATIONS: AtomicU64 = AtomicU64::new(0);

unsafe impl GlobalAlloc for CountingAllocator {
    unsafe fn alloc(&self, layout: Layout) -> *mut u8 {
        ALLOCATIONS.fetch_add(1, Ordering::Relaxed);
        System.alloc(layout)
    }

    unsafe fn dealloc(&self, ptr: *mut u8, layout: Layout) {
        System.dealloc(ptr, layout)
    }

    unsafe fn realloc(&self, ptr: *mut u8, layout: Layout, new_size: usize) -> *mut u8 {
        ALLOCATIONS.fetch_add(1, Ordering::Relaxed);
        System.realloc(ptr, layout, new_size)
    }
}

#[global_allocator]
static ALLOCATOR: CountingAllocator = CountingAllocator;

const PAYLOADS: usize = 300;
const SEED: u64 = 2024;
/// Requests served before counting: fills the trace ring (so every
/// measured finish evicts, as in steady state) and registers every
/// tier's series.
const WARM_UP: usize = 600;
const MEASURED: usize = 1_000;

/// Mean allocations per request of each phase.
#[derive(Debug, Clone, Copy)]
struct Phases {
    parse: f64,
    handle: f64,
    render: f64,
}

fn wire(payload: usize, tolerance: f64, objective: &str) -> Vec<u8> {
    let body = format!("payload-{payload}");
    format!(
        "POST /compute HTTP/1.1\r\nTolerance: {tolerance}\r\nObjective: {objective}\r\n\
         Payload: {payload}\r\nContent-Length: {}\r\nConnection: keep-alive\r\n\r\n{body}",
        body.len()
    )
    .into_bytes()
}

fn measure(obs: ObsConfig) -> Phases {
    let service = demo_service(
        PAYLOADS,
        SEED,
        ServiceConfig {
            latency_scale: 0.0,
            obs,
            ..ServiceConfig::defaults()
        },
    );
    let wires: Vec<Vec<u8>> = RequestMix::representative()
        .sample(WARM_UP + MEASURED, PAYLOADS, SEED)
        .iter()
        .map(|r| wire(r.payload, r.tolerance.value(), r.objective.name()))
        .collect();
    let shutdown = AtomicBool::new(false);
    let mut assembler = RequestAssembler::new(Limits::default());
    let mut out = Vec::with_capacity(4096);
    let (mut parse, mut handle, mut render) = (0, 0, 0);
    for (i, bytes) in wires.iter().enumerate() {
        let t0 = ALLOCATIONS.load(Ordering::Relaxed);
        assembler.push(bytes);
        let request = assembler
            .next_request()
            .expect("well-formed request")
            .expect("whole request pushed");
        let t1 = ALLOCATIONS.load(Ordering::Relaxed);
        let reply = service.handle(&request, &shutdown);
        let t2 = ALLOCATIONS.load(Ordering::Relaxed);
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
        let t3 = ALLOCATIONS.load(Ordering::Relaxed);
        assert_eq!(reply.status, 200, "{}", reply.body);
        drop((request, reply));
        if i >= WARM_UP {
            parse += t1 - t0;
            handle += t2 - t1;
            render += t3 - t2;
        }
    }
    let per = |n: u64| n as f64 / MEASURED as f64;
    Phases {
        parse: per(parse),
        handle: per(handle),
        render: per(render),
    }
}

#[test]
fn served_request_allocation_budget() {
    let on = measure(ObsConfig::defaults());
    let off = measure(ObsConfig {
        enabled: false,
        ..ObsConfig::defaults()
    });
    println!("observability on:  {on:?}");
    println!("observability off: {off:?}");

    // Parsing and rendering do not depend on observability. A reply
    // renders into one buffer.
    for phases in [on, off] {
        assert!(phases.parse <= 16.0, "parse: {phases:?}");
        assert!(phases.render <= 1.0, "render: {phases:?}");
    }
    assert!(off.handle <= 37.0, "handle, observability off: {off:?}");
    assert!(on.handle <= 41.0, "handle, observability on: {on:?}");
    // Tracing, counting and billing a request: the trace handle, its
    // span buffer, the trace id header and the request id in the body.
    assert!(
        on.handle - off.handle <= 6.0,
        "recording costs {} allocations per request",
        on.handle - off.handle
    );
}
