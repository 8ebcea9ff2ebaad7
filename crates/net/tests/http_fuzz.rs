//! Property/fuzz tests for the HTTP wire layer: the parser must never
//! panic on any byte sequence — malformed, truncated, hostile, or
//! oversized — and its limits must map to the documented typed errors
//! (431 for header floods, 413 for oversized bodies).

use proptest::prelude::*;
use std::io::Cursor;
use tt_net::http::{read_request, read_response, HttpError, Limits, RequestAssembler};

fn parse(bytes: &[u8], limits: &Limits) -> Result<Option<tt_net::http::Request>, HttpError> {
    read_request(&mut Cursor::new(bytes.to_vec()), limits)
}

/// A syntactically valid `/compute` request, as the load generator
/// would send it.
fn valid_wire(tolerance: f64, objective: &str, payload: usize, body_len: usize) -> Vec<u8> {
    let body = "x".repeat(body_len);
    format!(
        "POST /compute HTTP/1.1\r\nTolerance: {tolerance}\r\nObjective: {objective}\r\n\
         Payload: {payload}\r\nContent-Length: {}\r\n\r\n{body}",
        body.len()
    )
    .into_bytes()
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(256))]

    #[test]
    fn arbitrary_bytes_never_panic(bytes in prop::collection::vec(0u8..=255u8, 0..1024)) {
        // Any outcome is acceptable; panicking or hanging is not.
        let _ = parse(&bytes, &Limits::default());
    }

    #[test]
    fn rules_epoch_parsing_never_panics_and_matches_a_model(
        raw in prop::collection::vec(32u8..=126u8, 0..24),
    ) {
        let value = String::from_utf8(raw).expect("printable ASCII");
        // Any printable header value either parses as a decimal u64
        // (modulo surrounding whitespace) or maps to the 400 class —
        // never a panic, never a silent None for a present stamp.
        let got = tt_net::http::parse_rules_epoch(Some(&value));
        match value.trim().parse::<u64>() {
            Ok(epoch) => prop_assert_eq!(got, Ok(Some(epoch))),
            Err(_) => {
                let err = got.unwrap_err();
                prop_assert_eq!(err.status(), Some((400, "Bad Request")));
            }
        }
        // And a stamped wire request agrees with direct parsing.
        let wire = format!(
            "POST /compute HTTP/1.1\r\nRules-Epoch: {value}\r\nContent-Length: 0\r\n\r\n"
        );
        if let Ok(Some(request)) = parse(wire.as_bytes(), &Limits::default()) {
            // Header parsing may normalize surrounding whitespace, so
            // compare the epoch/status outcome, not error text.
            prop_assert_eq!(
                request.rules_epoch().map_err(|e| e.status()),
                tt_net::http::parse_rules_epoch(Some(&value)).map_err(|e| e.status())
            );
        }
    }

    #[test]
    fn http_shaped_garbage_never_panics(
        tail in prop::collection::vec(0u8..=255u8, 0..512),
    ) {
        // A plausible request line followed by garbage exercises the
        // header and body paths rather than dying on the first line.
        let mut bytes = b"POST /compute HTTP/1.1\r\n".to_vec();
        bytes.extend_from_slice(&tail);
        let _ = parse(&bytes, &Limits::default());
    }

    #[test]
    fn truncating_a_valid_request_never_panics(
        tolerance in 0.0f64..0.5,
        objective_pick in 0usize..2,
        payload in 0usize..500,
        body_len in 0usize..64,
        cut_permille in 0u32..1000,
    ) {
        let objective = ["response-time", "cost"][objective_pick];
        let wire = valid_wire(tolerance, objective, payload, body_len);
        // The full request parses.
        let full = parse(&wire, &Limits::default());
        prop_assert!(matches!(full, Ok(Some(_))), "full request failed: {full:?}");
        // Every prefix either parses, reports clean EOF, or reports a
        // typed error — truncation mid-request must be `Truncated`.
        let cut = (wire.len() as u64 * u64::from(cut_permille) / 1000) as usize;
        match parse(&wire[..cut], &Limits::default()) {
            Ok(None) => prop_assert_eq!(cut, 0, "clean EOF only on the empty prefix"),
            Ok(Some(_)) => {
                // A prefix that still contains the whole head and a
                // consistent body is a complete request; that can only
                // happen at full length here.
                prop_assert_eq!(cut, wire.len());
            }
            Err(HttpError::Truncated) => {}
            Err(other) => {
                // Typed errors are acceptable (a cut can land inside a
                // number, say), panics are not. They must carry a
                // status for the error path.
                prop_assert!(other.status().is_some(), "unreportable error {other:?}");
            }
        }
    }

    #[test]
    fn header_floods_map_to_431(extra in 0usize..40) {
        let limits = Limits::default();
        let mut wire = b"GET /healthz HTTP/1.1\r\n".to_vec();
        for i in 0..(limits.max_headers + 1 + extra) {
            wire.extend_from_slice(format!("H{i}: v\r\n").as_bytes());
        }
        wire.extend_from_slice(b"\r\n");
        prop_assert_eq!(parse(&wire, &limits), Err(HttpError::HeadersTooLarge));
    }

    #[test]
    fn unbounded_header_lines_map_to_431(line_len in 0usize..100_000) {
        let limits = Limits { max_head_bytes: 4096, ..Limits::default() };
        let mut wire = b"GET / HTTP/1.1\r\nLong: ".to_vec();
        wire.extend(std::iter::repeat_n(b'a', line_len));
        wire.extend_from_slice(b"\r\n\r\n");
        let result = parse(&wire, &limits);
        if wire.len() > limits.max_head_bytes {
            prop_assert_eq!(result, Err(HttpError::HeadersTooLarge));
        } else {
            prop_assert!(matches!(result, Ok(Some(_))), "under-limit failed: {result:?}");
        }
    }

    #[test]
    fn oversized_declared_bodies_map_to_413_without_arrival(
        declared in 1u64..u64::from(u32::MAX),
    ) {
        let limits = Limits { max_body_bytes: 1024, ..Limits::default() };
        // The declaration alone must be enough to refuse: no body bytes
        // follow at all, so an implementation that allocated or waited
        // for them would hang or blow up here.
        let wire = format!("POST /compute HTTP/1.1\r\nContent-Length: {declared}\r\n\r\n");
        let result = parse(wire.as_bytes(), &limits);
        if declared as usize > limits.max_body_bytes {
            prop_assert_eq!(result, Err(HttpError::PayloadTooLarge));
        } else {
            prop_assert_eq!(result, Err(HttpError::Truncated));
        }
    }

    #[test]
    fn response_reader_never_panics(bytes in prop::collection::vec(0u8..=255u8, 0..1024)) {
        let _ = read_response(&mut Cursor::new(bytes), &Limits::default());
    }

    /// The incremental assembler fed a valid request in arbitrary-sized
    /// dribbles must agree byte-for-byte with the blocking reader: one
    /// request, identical fields, nothing left buffered.
    #[test]
    fn dribbled_valid_request_matches_blocking_reader(
        tolerance_milli in 0u32..500,
        objective_pick in 0usize..2,
        payload in 0usize..10_000,
        body_len in 0usize..128,
        chunk in 1usize..7,
    ) {
        let tolerance = f64::from(tolerance_milli) / 1000.0;
        let objective = ["response-time", "cost"][objective_pick];
        let wire = valid_wire(tolerance, objective, payload, body_len);
        let blocking = parse(&wire, &Limits::default()).unwrap().unwrap();

        let mut assembler = RequestAssembler::new(Limits::default());
        let mut yielded = Vec::new();
        for piece in wire.chunks(chunk) {
            assembler.push(piece);
            while let Some(request) = assembler.next_request().unwrap() {
                yielded.push(request);
            }
        }
        prop_assert_eq!(yielded.len(), 1, "dribbling split or dropped the request");
        let incremental = &yielded[0];
        prop_assert_eq!(&incremental.method, &blocking.method);
        prop_assert_eq!(incremental.path(), blocking.path());
        prop_assert_eq!(incremental.header("tolerance"), blocking.header("tolerance"));
        prop_assert_eq!(incremental.header("objective"), blocking.header("objective"));
        prop_assert_eq!(incremental.header("payload"), blocking.header("payload"));
        prop_assert_eq!(&incremental.body, &blocking.body);
        // Never over-read: a lone complete request leaves the buffer empty.
        prop_assert!(assembler.is_empty(), "assembler kept {} stray bytes", assembler.buffered());
        prop_assert!(!assembler.awaiting_body());
    }

    /// Pipelined requests pushed across arbitrary chunk boundaries come
    /// back one per `next_request` call, in order, and a cut that lands
    /// inside request N+1 leaves exactly that prefix buffered — the
    /// parser must not consume bytes belonging to the next request.
    #[test]
    fn pipelined_requests_never_overread_or_reorder(
        payloads in prop::collection::vec(0usize..10_000, 2..5),
        cut_permille in 0u32..1000,
        chunk in 1usize..64,
    ) {
        let wires: Vec<Vec<u8>> = payloads
            .iter()
            .enumerate()
            .map(|(i, &p)| valid_wire(0.01 * (i as f64 + 1.0), "cost", p, i % 9))
            .collect();
        let last = wires.last().unwrap();
        let cut = (last.len() as u64 * u64::from(cut_permille) / 1000) as usize;

        // Everything except a tail of the final request, in one stream.
        let mut stream: Vec<u8> = wires[..wires.len() - 1].concat();
        stream.extend_from_slice(&last[..cut]);

        let mut assembler = RequestAssembler::new(Limits::default());
        let mut yielded = Vec::new();
        for piece in stream.chunks(chunk) {
            assembler.push(piece);
            while let Some(request) = assembler.next_request().unwrap() {
                yielded.push(request);
            }
        }
        prop_assert_eq!(yielded.len(), wires.len() - 1, "complete requests must all surface");
        // The partial tail is exactly what remains buffered: no byte of
        // it leaked into the previous request, none was discarded.
        prop_assert_eq!(assembler.buffered(), cut);

        // Feeding the rest completes the final request.
        assembler.push(&last[cut..]);
        while let Some(request) = assembler.next_request().unwrap() {
            yielded.push(request);
        }
        prop_assert_eq!(yielded.len(), wires.len());
        prop_assert!(assembler.is_empty());
        for (i, request) in yielded.iter().enumerate() {
            let expected = payloads[i].to_string();
            prop_assert_eq!(request.header("payload"), Some(expected.as_str()), "order broke at {}", i);
        }
    }

    /// Arbitrary bytes dribbled one at a time: the assembler must never
    /// panic, and its verdict must match the blocking reader's on the
    /// same bytes — same request out, or the same typed error. The only
    /// allowed divergence is `Truncated`, which for the blocking reader
    /// means EOF mid-request and for the assembler means "still waiting
    /// with bytes buffered".
    #[test]
    fn dribbled_garbage_matches_blocking_verdict(
        bytes in prop::collection::vec(0u8..=255u8, 0..768),
    ) {
        let blocking = parse(&bytes, &Limits::default());

        let mut assembler = RequestAssembler::new(Limits::default());
        let mut outcome: Result<Option<tt_net::http::Request>, HttpError> = Ok(None);
        'feed: for &byte in &bytes {
            assembler.push(&[byte]);
            match assembler.next_request() {
                Ok(Some(request)) => {
                    outcome = Ok(Some(request));
                    break 'feed; // compare first requests only
                }
                Ok(None) => {}
                Err(e) => {
                    outcome = Err(e);
                    break 'feed;
                }
            }
        }

        match blocking {
            Ok(Some(expected)) => {
                let got = outcome.unwrap().expect("assembler missed a complete request");
                prop_assert_eq!(got.method, expected.method);
                prop_assert_eq!(got.target, expected.target);
                prop_assert_eq!(got.body, expected.body);
            }
            Ok(None) => {
                // Empty input: nothing fed, nothing out.
                prop_assert!(matches!(outcome, Ok(None)));
                prop_assert!(assembler.is_empty());
            }
            Err(HttpError::Truncated) => {
                // EOF mid-request: the assembler is simply still waiting.
                prop_assert!(matches!(outcome, Ok(None)), "assembler invented {outcome:?}");
                prop_assert!(!assembler.is_empty());
            }
            Err(expected) => {
                // Typed rejections must agree exactly.
                prop_assert_eq!(outcome, Err(expected));
            }
        }
    }

    #[test]
    fn valid_requests_round_trip_their_annotations(
        tolerance_milli in 0u32..500,
        objective_pick in 0usize..2,
        payload in 0usize..10_000,
        body_len in 0usize..128,
    ) {
        let tolerance = f64::from(tolerance_milli) / 1000.0;
        let objective = ["response-time", "cost"][objective_pick];
        let wire = valid_wire(tolerance, objective, payload, body_len);
        let request = parse(&wire, &Limits::default()).unwrap().unwrap();
        prop_assert_eq!(request.method.as_str(), "POST");
        prop_assert_eq!(request.path(), "/compute");
        prop_assert_eq!(request.header("objective"), Some(objective));
        let payload_text = payload.to_string();
        prop_assert_eq!(request.header("payload"), Some(payload_text.as_str()));
        prop_assert_eq!(request.body.len(), body_len);
        prop_assert!(request.keep_alive);
        let parsed_tolerance: f64 = request.header("tolerance").unwrap().parse().unwrap();
        prop_assert!((parsed_tolerance - tolerance).abs() < 1e-12);
    }
}

/// Slow-loris regression: a client trickling a request one byte at a
/// time must not pin an HTTP worker past the per-request deadline, and
/// the worker must be free to serve well-behaved clients afterwards.
/// Run with the deadline equal to the keep-alive timeout, and with a
/// deadline three times longer, where the read timeout stays at the
/// keep-alive value (and is not re-armed) until the deadline draws
/// closer than that.
#[test]
fn slow_loris_cannot_pin_a_worker_past_the_request_deadline() {
    use std::io::{BufReader, Read, Write};
    use std::net::TcpStream;
    use std::time::{Duration, Instant};

    for (keep_alive_ms, deadline_ms) in [(400, 400), (300, 900)] {
        let (addr, running) = one_worker_server(
            Duration::from_millis(keep_alive_ms),
            Duration::from_millis(deadline_ms),
        );

        // The loris: drip a valid-looking request far slower than the
        // deadline allows, but fast enough that no single read waits
        // out the keep-alive timeout.
        let mut loris = TcpStream::connect(addr).unwrap();
        let started = Instant::now();
        let wire = b"POST /compute HTTP/1.1\r\nTolerance: 0.05\r\n";
        let mut dripped = 0usize;
        for &byte in wire.iter().cycle() {
            if loris.write_all(&[byte]).is_err() {
                break; // server hung up on us — the defense worked
            }
            dripped += 1;
            std::thread::sleep(Duration::from_millis(30));
            if started.elapsed() > Duration::from_secs(3) {
                break;
            }
        }
        // Whether or not the write side noticed the hang-up, the read
        // side must see EOF: the server reaped the connection near the
        // deadline, not after our 3-second patience budget.
        loris
            .set_read_timeout(Some(Duration::from_secs(2)))
            .unwrap();
        let mut sink = [0u8; 64];
        let eof_at = Instant::now();
        while let Ok(n) = loris.read(&mut sink) {
            if n == 0 {
                break;
            }
        }
        assert!(
            eof_at.elapsed() < Duration::from_secs(2),
            "server never closed the loris connection \
             (keep-alive {keep_alive_ms} ms, deadline {deadline_ms} ms, dripped {dripped} bytes)"
        );

        // The single worker is free again: a normal request round-trips.
        let mut probe = TcpStream::connect(addr).unwrap();
        probe
            .write_all(
                b"POST /compute HTTP/1.1\r\nTolerance: 0.05\r\nObjective: cost\r\n\
                  Payload: 3\r\nContent-Length: 0\r\nConnection: close\r\n\r\n",
            )
            .unwrap();
        let mut reader = BufReader::new(probe.try_clone().unwrap());
        let response = tt_net::http::read_response(&mut reader, &Limits::default()).unwrap();
        assert_eq!(response.status, 200);
        running.stop().unwrap();
    }
}

/// A keep-alive connection that goes quiet after one served request is
/// closed once the keep-alive timeout passes — well before the longer
/// request deadline — so an idle client cannot hold the only worker.
#[test]
fn idle_keep_alive_connection_is_reaped_after_a_served_request() {
    use std::io::{BufReader, Read, Write};
    use std::net::TcpStream;
    use std::time::{Duration, Instant};

    let (addr, running) = one_worker_server(Duration::from_millis(300), Duration::from_secs(3));
    let mut conn = TcpStream::connect(addr).unwrap();
    conn.write_all(
        b"POST /compute HTTP/1.1\r\nTolerance: 0.05\r\nObjective: cost\r\n\
          Payload: 3\r\nContent-Length: 0\r\nConnection: keep-alive\r\n\r\n",
    )
    .unwrap();
    let mut reader = BufReader::new(conn.try_clone().unwrap());
    let response = tt_net::http::read_response(&mut reader, &Limits::default()).unwrap();
    assert_eq!(response.status, 200);
    let served_at = Instant::now();

    conn.set_read_timeout(Some(Duration::from_secs(5))).unwrap();
    let mut sink = [0u8; 64];
    let n = conn
        .read(&mut sink)
        .expect("the server closes, not our timeout");
    let idle = served_at.elapsed();
    assert_eq!(n, 0, "no bytes follow the only reply");
    assert!(
        idle >= Duration::from_millis(250) && idle < Duration::from_secs(2),
        "idle connection reaped after {idle:?}, want the 300 ms keep-alive timeout, \
         not the 3 s request deadline"
    );
    running.stop().unwrap();
}

/// A demo server with one HTTP worker, so a pinned worker shows as an
/// unanswered probe.
fn one_worker_server(
    keep_alive_timeout: std::time::Duration,
    request_deadline: std::time::Duration,
) -> (std::net::SocketAddr, tt_net::server::RunningServer) {
    use std::sync::Arc;
    use tt_net::demo::demo_service;
    use tt_net::server::{Server, ServerConfig};
    use tt_net::service::ServiceConfig;

    let service = Arc::new(demo_service(40, 9, ServiceConfig::defaults()));
    let server = Server::bind(
        "127.0.0.1:0",
        service,
        ServerConfig {
            http_workers: 1,
            keep_alive_timeout,
            request_deadline,
            ..ServerConfig::default()
        },
    )
    .unwrap();
    let addr = server.local_addr();
    (addr, server.spawn())
}
