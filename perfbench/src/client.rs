//! The benchmark's own HTTP/1.1 client half: request rendering, an
//! incremental (pipelining-safe) response parser, and extraction of the
//! `POST /compute` answer fields the output checks need.

use std::fmt::Write as _;
use tt_core::request::ServiceRequest;

/// Header carrying the benchmark's request id, so server-side spans can
/// be joined with client spans.
pub const ID_HEADER: &str = "X-Bench-Id";

const MAX_HEAD_BYTES: usize = 16 * 1024;
const MAX_BODY_BYTES: usize = 1024 * 1024;

/// Append one `POST /compute` request for `request` to `out`.
pub fn render_request(out: &mut Vec<u8>, request: &ServiceRequest, id: Option<u64>) {
    let body = format!("payload-{}", request.payload);
    let mut head = String::with_capacity(160);
    let _ = write!(
        head,
        "POST /compute HTTP/1.1\r\nTolerance: {}\r\nObjective: {}\r\nPayload: {}\r\n\
         Content-Length: {}\r\nConnection: keep-alive\r\n",
        request.tolerance.value(),
        request.objective,
        request.payload,
        body.len(),
    );
    if let Some(id) = id {
        let _ = write!(head, "{ID_HEADER}: {id}\r\n");
    }
    head.push_str("\r\n");
    out.extend_from_slice(head.as_bytes());
    out.extend_from_slice(body.as_bytes());
}

/// How the node's result cache disposed of a request (`X-Cache`,
/// `X-Cache-Match`).
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum CacheTag {
    /// No cache header: the node runs without a cache.
    Off,
    /// Consulted, executed.
    Miss,
    /// Not consulted.
    Bypass,
    /// Hit on a bit-equal input.
    HitExact,
    /// Hit under the tolerance rule on a different input.
    HitSemantic,
}

/// One response off the wire.
#[derive(Debug, Clone, PartialEq)]
pub struct WireResponse {
    /// Status code.
    pub status: u16,
    /// Cache disposition.
    pub cache: CacheTag,
    /// Node index from a front tier's `Served-By: node-N`.
    pub served_by: Option<usize>,
    /// The body.
    pub body: String,
}

/// Incremental response parser: feed bytes as they arrive, pop whole
/// responses in wire order.
#[derive(Debug, Default)]
pub struct ResponseParser {
    buf: Vec<u8>,
}

impl ResponseParser {
    /// Feed bytes read off the socket.
    pub fn push(&mut self, bytes: &[u8]) {
        self.buf.extend_from_slice(bytes);
    }

    /// Whether a partial response is buffered.
    pub fn is_empty(&self) -> bool {
        self.buf.is_empty()
    }

    /// Pop the next complete response; `Ok(None)` means more bytes are
    /// needed.
    ///
    /// # Errors
    ///
    /// A malformed or oversized response; the connection is unusable.
    pub fn next_response(&mut self) -> Result<Option<WireResponse>, String> {
        let Some(head_end) = self.buf.windows(4).position(|w| w == b"\r\n\r\n") else {
            if self.buf.len() > MAX_HEAD_BYTES {
                return Err("response head too large".into());
            }
            return Ok(None);
        };
        let head = std::str::from_utf8(&self.buf[..head_end])
            .map_err(|_| "response head is not UTF-8".to_string())?;
        let mut lines = head.split("\r\n");
        let status_line = lines.next().unwrap_or_default();
        let mut parts = status_line.splitn(3, ' ');
        if !parts.next().is_some_and(|v| v.starts_with("HTTP/1.")) {
            return Err(format!("bad status line {status_line:?}"));
        }
        let status: u16 = parts
            .next()
            .and_then(|s| s.parse().ok())
            .ok_or_else(|| format!("bad status line {status_line:?}"))?;
        let mut length = None;
        let mut cache = CacheTag::Off;
        let mut semantic = false;
        let mut served_by = None;
        for line in lines {
            let (name, value) = line
                .split_once(':')
                .ok_or_else(|| format!("bad header line {line:?}"))?;
            let value = value.trim();
            if name.eq_ignore_ascii_case("content-length") {
                length = Some(
                    value
                        .parse::<usize>()
                        .map_err(|_| format!("bad Content-Length {value:?}"))?,
                );
            } else if name.eq_ignore_ascii_case("transfer-encoding") {
                return Err("chunked responses are not expected".into());
            } else if name.eq_ignore_ascii_case("x-cache") {
                cache = match value {
                    "hit" => CacheTag::HitExact,
                    "miss" => CacheTag::Miss,
                    "bypass" => CacheTag::Bypass,
                    other => return Err(format!("unknown X-Cache {other:?}")),
                };
            } else if name.eq_ignore_ascii_case("x-cache-match") {
                semantic = value == "semantic";
            } else if name.eq_ignore_ascii_case("served-by") {
                served_by = value
                    .rsplit('-')
                    .next()
                    .and_then(|n| n.parse::<usize>().ok());
            }
        }
        let length = length.ok_or("response without Content-Length")?;
        if length > MAX_BODY_BYTES {
            return Err(format!("response body of {length} bytes"));
        }
        let total = head_end + 4 + length;
        if self.buf.len() < total {
            return Ok(None);
        }
        let body = String::from_utf8(self.buf[head_end + 4..total].to_vec())
            .map_err(|_| "response body is not UTF-8".to_string())?;
        self.buf.drain(..total);
        if cache == CacheTag::HitExact && semantic {
            cache = CacheTag::HitSemantic;
        }
        Ok(Some(WireResponse {
            status,
            cache,
            served_by,
            body,
        }))
    }
}

/// The fields of a `200` `POST /compute` body the checks use.
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct Answer {
    /// Index of the answering version.
    pub version: usize,
    /// Payload index served.
    pub payload: usize,
    /// Tolerance the request declared.
    pub tolerance: f64,
    /// Tolerance tier billed.
    pub billed_tolerance: f64,
    /// Quality error of the answer.
    pub quality_err: f64,
    /// Profiled latency of the path taken, µs.
    pub latency_us: u64,
    /// Price charged.
    pub price_usd: f64,
    /// Answered by a fallback version.
    pub degraded: bool,
    /// Browned out by admission.
    pub brownout: bool,
}

impl Answer {
    /// Parse a compute body.
    ///
    /// # Errors
    ///
    /// Names the first missing or malformed field.
    pub fn parse(body: &str) -> Result<Answer, String> {
        let num = |key: &str| -> Result<f64, String> {
            field(body, key)
                .and_then(|v| v.parse::<f64>().ok())
                .ok_or_else(|| format!("answer without numeric {key:?}: {body}"))
        };
        let int = |key: &str| -> Result<u64, String> {
            field(body, key)
                .and_then(|v| v.parse::<u64>().ok())
                .ok_or_else(|| format!("answer without integer {key:?}: {body}"))
        };
        Ok(Answer {
            version: int("version")? as usize,
            payload: int("payload")? as usize,
            tolerance: num("tolerance")?,
            billed_tolerance: num("billed_tolerance")?,
            quality_err: num("quality_err")?,
            latency_us: int("latency_us")?,
            price_usd: num("price_usd")?,
            degraded: field(body, "degraded") == Some("true"),
            brownout: field(body, "brownout").is_some(),
        })
    }
}

/// The raw value of top-level-or-nested `"key": value` in a JSON text
/// (strings without their quotes). Enough for the flat bodies the
/// service renders; not a general JSON parser.
pub fn field<'a>(json: &'a str, key: &str) -> Option<&'a str> {
    let pattern = format!("\"{key}\":");
    let start = json.find(&pattern)? + pattern.len();
    let rest = json[start..].trim_start();
    if let Some(quoted) = rest.strip_prefix('"') {
        return quoted.find('"').map(|end| &quoted[..end]);
    }
    let end = rest.find([',', '}', '\n']).unwrap_or(rest.len());
    Some(rest[..end].trim())
}

#[cfg(test)]
mod tests {
    use super::*;
    use tt_core::objective::Objective;
    use tt_core::request::Tolerance;

    const BODY: &str = "{\n  \"answered_by\": \"accurate\",\n  \"version\": 2,\n  \
        \"payload\": 17,\n  \"tolerance\": 0.05,\n  \"billed_tolerance\": 0.05,\n  \
        \"objective\": \"cost\",\n  \"quality_err\": 0.125,\n  \"confidence\": 0.9,\n  \
        \"latency_us\": 31000,\n  \"price_usd\": 0.0005,\n  \"degraded\": false\n}\n";

    fn response(extra: &str, body: &str) -> Vec<u8> {
        format!(
            "HTTP/1.1 200 OK\r\nContent-Type: application/json\r\nContent-Length: {}\r\n{extra}\
             Connection: keep-alive\r\n\r\n{body}",
            body.len()
        )
        .into_bytes()
    }

    #[test]
    fn pipelined_responses_split_anywhere_parse_in_order() {
        let mut wire = response("X-Cache: miss\r\n", BODY);
        wire.extend(response(
            "X-Cache: hit\r\nX-Cache-Match: semantic\r\nServed-By: node-1\r\n",
            "{}",
        ));
        wire.extend(b"HTTP/1.1 429 Too Many Requests\r\nContent-Length: 0\r\n\r\n");
        for split in 0..wire.len() {
            let mut parser = ResponseParser::default();
            let mut got = Vec::new();
            for chunk in [&wire[..split], &wire[split..]] {
                parser.push(chunk);
                while let Some(r) = parser.next_response().expect("well-formed") {
                    got.push(r);
                }
            }
            assert!(parser.is_empty());
            assert_eq!(got.len(), 3, "split at {split}");
            assert_eq!(got[0].cache, CacheTag::Miss);
            assert_eq!(got[0].body, BODY);
            assert_eq!(got[1].cache, CacheTag::HitSemantic);
            assert_eq!(got[1].served_by, Some(1));
            assert_eq!((got[2].status, got[2].cache), (429, CacheTag::Off));
        }
    }

    #[test]
    fn malformed_responses_are_errors() {
        for bad in [
            &b"HTTX/1.1 200 OK\r\n\r\n"[..],
            b"HTTP/1.1 abc OK\r\nContent-Length: 0\r\n\r\n",
            b"HTTP/1.1 200 OK\r\n\r\n",
            b"HTTP/1.1 200 OK\r\nTransfer-Encoding: chunked\r\n\r\n",
            b"HTTP/1.1 200 OK\r\nContent-Length: 99999999\r\n\r\n",
        ] {
            let mut parser = ResponseParser::default();
            parser.push(bad);
            assert!(
                parser.next_response().is_err(),
                "{:?}",
                String::from_utf8_lossy(bad)
            );
        }
    }

    #[test]
    fn answer_fields_round_trip() {
        let a = Answer::parse(BODY).expect("complete body");
        assert_eq!(a.version, 2);
        assert_eq!(a.payload, 17);
        assert_eq!(a.quality_err, 0.125);
        assert_eq!(a.price_usd, 0.0005);
        assert_eq!(a.latency_us, 31_000);
        assert!(!a.degraded && !a.brownout);
        assert!(Answer::parse("{\"version\": 1}").is_err());
        assert_eq!(field(BODY, "objective"), Some("cost"));
    }

    #[test]
    fn rendered_request_carries_annotations_and_id() {
        let mut out = Vec::new();
        let r = ServiceRequest::new(7, Tolerance::new(0.1).unwrap(), Objective::Cost);
        render_request(&mut out, &r, Some(42));
        let text = String::from_utf8(out).unwrap();
        assert!(text.starts_with("POST /compute HTTP/1.1\r\n"));
        assert!(text.contains("Tolerance: 0.1\r\nObjective: cost\r\nPayload: 7\r\n"));
        assert!(text.contains("X-Bench-Id: 42\r\n"));
        assert!(text.ends_with("\r\n\r\npayload-7"));
    }
}
