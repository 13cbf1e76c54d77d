//! A strict, allocation-light HTTP/1.1 request parser.
//!
//! The head parser ([`parse_head`]) is a pure function over a byte buffer —
//! no I/O — so the fuzz harness ([`crate::fuzz`]) can drive it with
//! arbitrary bytes; [`read_request`] layers buffered socket reads and body
//! collection on top for the server's connection loop. Every deviation from
//! the grammar maps to a definite [`RequestError`], and every
//! [`RequestError`] maps to a definite HTTP status — malformed input is
//! never answered with a hang or a panic.

use std::fmt;
use std::io::Read;
use std::time::Instant;

/// Hard cap on the request head (request line + headers + CRLFCRLF).
pub const DEFAULT_HEAD_LIMIT: usize = 8 * 1024;
/// Maximum number of header fields per request.
pub const MAX_HEADERS: usize = 64;
/// Maximum request-line method length.
const MAX_METHOD: usize = 16;
/// Maximum request-target length.
const MAX_TARGET: usize = 2048;

/// Why a request was rejected; [`RequestError::status`] gives the HTTP
/// status the server answers with.
#[derive(Debug, Clone, PartialEq, Eq)]
pub enum RequestError {
    /// The bytes do not form an HTTP/1.x request (400).
    Syntax(&'static str),
    /// The head exceeded the size or header-count limit (431).
    HeadTooLarge,
    /// The declared body exceeds the configured limit (413).
    BodyTooLarge {
        /// The configured body limit in bytes.
        limit: usize,
    },
    /// `Transfer-Encoding` (chunked uploads) is not implemented (501).
    UnsupportedEncoding,
    /// Not an HTTP/1.0 or HTTP/1.1 request (505).
    UnsupportedVersion,
    /// The request was still incomplete when the read deadline passed (408).
    Timeout,
}

impl RequestError {
    /// The HTTP status this rejection is answered with.
    pub fn status(&self) -> u16 {
        match self {
            RequestError::Syntax(_) => 400,
            RequestError::HeadTooLarge => 431,
            RequestError::BodyTooLarge { .. } => 413,
            RequestError::UnsupportedEncoding => 501,
            RequestError::UnsupportedVersion => 505,
            RequestError::Timeout => 408,
        }
    }
}

impl fmt::Display for RequestError {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        match self {
            RequestError::Syntax(m) => write!(f, "malformed request: {m}"),
            RequestError::HeadTooLarge => write!(f, "request head too large"),
            RequestError::BodyTooLarge { limit } => {
                write!(f, "request body exceeds {limit} bytes")
            }
            RequestError::UnsupportedEncoding => {
                write!(f, "transfer encodings are not supported")
            }
            RequestError::UnsupportedVersion => write!(f, "unsupported HTTP version"),
            RequestError::Timeout => write!(f, "request not completed before the deadline"),
        }
    }
}

impl std::error::Error for RequestError {}

/// The parsed request line and header fields.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct RequestHead {
    /// The request method, verbatim (e.g. `GET`).
    pub method: String,
    /// The request target, verbatim (e.g. `/plans/3`).
    pub target: String,
    /// Whether the request was HTTP/1.1 (`false` = HTTP/1.0).
    pub http11: bool,
    /// Header fields in order of appearance, names lower-cased.
    pub headers: Vec<(String, String)>,
}

impl RequestHead {
    /// The first value of a header, looked up case-insensitively.
    pub fn header(&self, name: &str) -> Option<&str> {
        let lower = name.to_ascii_lowercase();
        self.headers
            .iter()
            .find(|(n, _)| *n == lower)
            .map(|(_, v)| v.as_str())
    }

    /// The declared body length (0 when absent). Repeated `Content-Length`
    /// fields with differing values are rejected outright (RFC 9112 §6.3 —
    /// request-smuggling hygiene); identical repeats are collapsed.
    pub fn content_length(&self) -> Result<usize, RequestError> {
        let mut values = self
            .headers
            .iter()
            .filter(|(n, _)| n == "content-length")
            .map(|(_, v)| v.as_str());
        let Some(raw) = values.next() else {
            return Ok(0);
        };
        if values.any(|v| v != raw) {
            return Err(RequestError::Syntax("conflicting content-length headers"));
        }
        if raw.is_empty() || raw.len() > 12 || !raw.bytes().all(|b| b.is_ascii_digit()) {
            return Err(RequestError::Syntax("invalid content-length"));
        }
        raw.parse()
            .map_err(|_| RequestError::Syntax("invalid content-length"))
    }

    /// Whether the connection should stay open after the response.
    /// `Connection` is a comma-separated token list; an explicit `close`
    /// anywhere in it wins over `keep-alive`, and an empty/unknown list
    /// falls back to the HTTP-version default.
    pub fn keep_alive(&self) -> bool {
        let mut keep = None;
        for (name, value) in &self.headers {
            if name != "connection" {
                continue;
            }
            for token in value.split(',') {
                let token = token.trim();
                if token.eq_ignore_ascii_case("close") {
                    return false;
                }
                if token.eq_ignore_ascii_case("keep-alive") {
                    keep = Some(true);
                }
            }
        }
        keep.unwrap_or(self.http11)
    }
}

/// What [`parse_head`] observed in the buffer.
#[derive(Debug)]
pub enum HeadOutcome {
    /// No terminating blank line yet — read more bytes.
    Incomplete,
    /// A complete, well-formed head; `consumed` bytes cover it including
    /// the terminating blank line.
    Parsed {
        /// The parsed head.
        head: RequestHead,
        /// Bytes of `buf` the head occupied.
        consumed: usize,
    },
    /// The bytes can never become a valid request head.
    Invalid(RequestError),
}

fn is_token_byte(b: u8) -> bool {
    b.is_ascii_alphanumeric() || b"!#$%&'*+-.^_`|~".contains(&b)
}

/// Parses one request head from the front of `buf`.
///
/// Pure and total: arbitrary bytes yield [`HeadOutcome::Incomplete`] or
/// [`HeadOutcome::Invalid`], never a panic or an out-of-bounds read — this
/// is the fuzzing entry point.
pub fn parse_head(buf: &[u8], head_limit: usize) -> HeadOutcome {
    let window = &buf[..buf.len().min(head_limit)];
    let Some(end) = find_blank_line(window) else {
        return if buf.len() >= head_limit {
            HeadOutcome::Invalid(RequestError::HeadTooLarge)
        } else {
            HeadOutcome::Incomplete
        };
    };
    // Keep the CRLF that closes the last line so every line (split on
    // `\n`) carries its `\r`; the final empty remainder is skipped below.
    let head = &window[..end + 2];
    let mut lines = head.split(|&b| b == b'\n');
    let Some(request_line) = lines.next() else {
        return HeadOutcome::Invalid(RequestError::Syntax("empty request head"));
    };
    let request_line = match strip_cr(request_line) {
        Some(l) => l,
        None => return HeadOutcome::Invalid(RequestError::Syntax("bare LF in request line")),
    };
    let (method, target, http11) = match parse_request_line(request_line) {
        Ok(parts) => parts,
        Err(e) => return HeadOutcome::Invalid(e),
    };
    let mut headers = Vec::new();
    for line in lines {
        if line.is_empty() {
            continue; // remainder after the final `\n`
        }
        let Some(line) = strip_cr(line) else {
            return HeadOutcome::Invalid(RequestError::Syntax("bare LF in header line"));
        };
        if headers.len() >= MAX_HEADERS {
            return HeadOutcome::Invalid(RequestError::HeadTooLarge);
        }
        match parse_header_line(line) {
            Ok(field) => headers.push(field),
            Err(e) => return HeadOutcome::Invalid(e),
        }
    }
    HeadOutcome::Parsed {
        head: RequestHead {
            method,
            target,
            http11,
            headers,
        },
        consumed: end + 4,
    }
}

/// Index of the `\r\n\r\n` terminator (start position), if present.
fn find_blank_line(buf: &[u8]) -> Option<usize> {
    buf.windows(4).position(|w| w == b"\r\n\r\n")
}

/// Strips a trailing `\r`; `None` when the line does not end with one
/// (i.e. the head used a bare `\n` separator, which we reject).
fn strip_cr(line: &[u8]) -> Option<&[u8]> {
    match line.split_last() {
        Some((b'\r', rest)) => Some(rest),
        _ => None,
    }
}

fn parse_request_line(line: &[u8]) -> Result<(String, String, bool), RequestError> {
    let mut parts = line.split(|&b| b == b' ');
    let (Some(method), Some(target), Some(version), None) =
        (parts.next(), parts.next(), parts.next(), parts.next())
    else {
        return Err(RequestError::Syntax(
            "request line is not METHOD SP TARGET SP VERSION",
        ));
    };
    if method.is_empty() || method.len() > MAX_METHOD || !method.iter().all(|&b| is_token_byte(b)) {
        return Err(RequestError::Syntax("invalid method"));
    }
    if target.is_empty()
        || target.len() > MAX_TARGET
        || !target.iter().all(|&b| (0x21..=0x7e).contains(&b))
    {
        return Err(RequestError::Syntax("invalid request target"));
    }
    let http11 = match version {
        b"HTTP/1.1" => true,
        b"HTTP/1.0" => false,
        v if v.len() == 8 && v.starts_with(b"HTTP/") => {
            return Err(RequestError::UnsupportedVersion)
        }
        _ => return Err(RequestError::Syntax("invalid HTTP version")),
    };
    // `method`/`target` are pure ASCII by the checks above.
    let method = String::from_utf8_lossy(method).into_owned();
    let target = String::from_utf8_lossy(target).into_owned();
    Ok((method, target, http11))
}

fn parse_header_line(line: &[u8]) -> Result<(String, String), RequestError> {
    let Some(colon) = line.iter().position(|&b| b == b':') else {
        return Err(RequestError::Syntax("header line has no colon"));
    };
    let (name, rest) = line.split_at(colon);
    if name.is_empty() || !name.iter().all(|&b| is_token_byte(b)) {
        return Err(RequestError::Syntax("invalid header name"));
    }
    let value = trim_ows(&rest[1..]);
    if !value
        .iter()
        .all(|&b| b == b'\t' || (0x20..=0x7e).contains(&b))
    {
        return Err(RequestError::Syntax("invalid header value"));
    }
    Ok((
        String::from_utf8_lossy(name).to_ascii_lowercase(),
        String::from_utf8_lossy(value).into_owned(),
    ))
}

fn trim_ows(mut bytes: &[u8]) -> &[u8] {
    while let Some((b' ' | b'\t', rest)) = bytes.split_first() {
        bytes = rest;
    }
    while let Some((b' ' | b'\t', rest)) = bytes.split_last() {
        bytes = rest;
    }
    bytes
}

/// One complete request: head plus collected body.
#[derive(Debug, Clone)]
pub struct Request {
    /// The parsed head.
    pub head: RequestHead,
    /// The request body (empty when no `Content-Length`).
    pub body: Vec<u8>,
}

/// Size limits enforced while reading a request.
#[derive(Debug, Clone, Copy)]
pub struct Limits {
    /// Head cap in bytes (431 beyond).
    pub head_bytes: usize,
    /// Body cap in bytes (413 beyond).
    pub body_bytes: usize,
}

impl Default for Limits {
    fn default() -> Self {
        Limits {
            head_bytes: DEFAULT_HEAD_LIMIT,
            body_bytes: 8 * 1024 * 1024,
        }
    }
}

/// What one [`read_request`] call produced.
#[derive(Debug)]
pub enum ReadOutcome {
    /// A complete request; leftover pipelined bytes stay in the buffer.
    Request(Request),
    /// The peer closed the connection at a request boundary.
    Closed,
    /// The bytes were rejected; answer with [`RequestError::status`] and
    /// close.
    Bad(RequestError),
    /// A transport error (including read timeouts — the caller decides
    /// whether to retry; `buf` keeps the partial request).
    Io(std::io::Error),
}

/// Reads one complete request from `stream`, carrying partial bytes across
/// calls in `buf` (which also retains pipelined follow-up requests).
///
/// `deadline` bounds how long an *incomplete* request may keep us reading:
/// whenever more bytes are still needed past it, the read stops with
/// [`RequestError::Timeout`] (408) — so a client trickling a head or body
/// one byte at a time cannot pin the caller forever. A request whose bytes
/// are already buffered never times out.
///
/// Once the head is parsed, `buf` grows once to hold the declared body,
/// socket reads land directly in it, and the body is handed out as that
/// same allocation rather than copied into a new one.
pub fn read_request(
    stream: &mut impl Read,
    buf: &mut Vec<u8>,
    limits: &Limits,
    deadline: Option<Instant>,
) -> ReadOutcome {
    let expired = |deadline: Option<Instant>| deadline.is_some_and(|d| Instant::now() >= d);
    let mut chunk = [0u8; 4096];
    loop {
        match parse_head(buf, limits.head_bytes) {
            HeadOutcome::Invalid(e) => return ReadOutcome::Bad(e),
            HeadOutcome::Parsed { head, consumed } => {
                if head.header("transfer-encoding").is_some() {
                    return ReadOutcome::Bad(RequestError::UnsupportedEncoding);
                }
                let body_len = match head.content_length() {
                    Ok(n) => n,
                    Err(e) => return ReadOutcome::Bad(e),
                };
                if body_len > limits.body_bytes {
                    return ReadOutcome::Bad(RequestError::BodyTooLarge {
                        limit: limits.body_bytes,
                    });
                }
                let end = consumed + body_len;
                if let Some(stopped) = fill_to(stream, buf, end, deadline) {
                    return stopped;
                }
                let body = split_body(buf, consumed, end);
                return ReadOutcome::Request(Request { head, body });
            }
            HeadOutcome::Incomplete => {
                if expired(deadline) {
                    return ReadOutcome::Bad(RequestError::Timeout);
                }
                match stream.read(&mut chunk) {
                    Ok(0) => {
                        return if buf.is_empty() {
                            ReadOutcome::Closed
                        } else {
                            ReadOutcome::Bad(RequestError::Syntax("connection closed mid-head"))
                        }
                    }
                    Ok(n) => buf.extend_from_slice(&chunk[..n]),
                    Err(e) => return ReadOutcome::Io(e),
                }
            }
        }
    }
}

/// Reads from `stream` until `buf` holds `end` bytes. The buffer grows to
/// `end` once and every read lands directly in its unfilled tail, as large
/// as the peer's data allows. Returns why reading stopped short, if it
/// did; `buf` then holds exactly the bytes received so far, so a later
/// call resumes from them.
fn fill_to(
    stream: &mut impl Read,
    buf: &mut Vec<u8>,
    end: usize,
    deadline: Option<Instant>,
) -> Option<ReadOutcome> {
    let mut filled = buf.len();
    if filled >= end {
        return None;
    }
    buf.reserve_exact(end - filled);
    buf.resize(end, 0);
    let stopped = loop {
        if filled == end {
            return None;
        }
        if deadline.is_some_and(|d| Instant::now() >= d) {
            break ReadOutcome::Bad(RequestError::Timeout);
        }
        match stream.read(&mut buf[filled..]) {
            Ok(0) => break ReadOutcome::Bad(RequestError::Syntax("connection closed mid-body")),
            Ok(n) => filled += n,
            Err(e) => break ReadOutcome::Io(e),
        }
    };
    buf.truncate(filled);
    Some(stopped)
}

/// Hands out the body `consumed..end` of the request at the front of `buf`
/// without copying it into a new allocation: the buffer itself becomes the
/// body once the head is shifted out in place, and any pipelined bytes
/// past `end` move to the fresh buffer left behind.
fn split_body(buf: &mut Vec<u8>, consumed: usize, end: usize) -> Vec<u8> {
    let pipelined = buf.split_off(end);
    let mut body = std::mem::replace(buf, pipelined);
    body.drain(..consumed);
    body
}

#[cfg(test)]
mod tests {
    use super::*;

    fn parse_ok(bytes: &[u8]) -> (RequestHead, usize) {
        match parse_head(bytes, DEFAULT_HEAD_LIMIT) {
            HeadOutcome::Parsed { head, consumed } => (head, consumed),
            other => panic!("expected parse, got {other:?}"),
        }
    }

    fn parse_err(bytes: &[u8]) -> RequestError {
        match parse_head(bytes, DEFAULT_HEAD_LIMIT) {
            HeadOutcome::Invalid(e) => e,
            other => panic!("expected rejection, got {other:?}"),
        }
    }

    #[test]
    fn parses_a_minimal_get() {
        let (head, consumed) = parse_ok(b"GET /healthz HTTP/1.1\r\nHost: x\r\n\r\ntrailing");
        assert_eq!(head.method, "GET");
        assert_eq!(head.target, "/healthz");
        assert!(head.http11);
        assert_eq!(head.header("host"), Some("x"));
        assert_eq!(head.header("HOST"), Some("x"));
        assert_eq!(consumed, b"GET /healthz HTTP/1.1\r\nHost: x\r\n\r\n".len());
        assert!(head.keep_alive());
    }

    #[test]
    fn content_length_and_keep_alive_semantics() {
        let (head, _) = parse_ok(
            b"POST /instances HTTP/1.1\r\nContent-Length: 12\r\nConnection: close\r\n\r\n",
        );
        assert_eq!(head.content_length(), Ok(12));
        assert!(!head.keep_alive());
        let (head, _) = parse_ok(b"GET / HTTP/1.0\r\n\r\n");
        assert!(!head.keep_alive());
        let (head, _) = parse_ok(b"GET / HTTP/1.0\r\nConnection: keep-alive\r\n\r\n");
        assert!(head.keep_alive());
        let (head, _) = parse_ok(b"POST / HTTP/1.1\r\nContent-Length: 9999999999999\r\n\r\n");
        assert!(head.content_length().is_err());
    }

    #[test]
    fn conflicting_content_length_headers_are_rejected() {
        let (head, _) =
            parse_ok(b"POST /x HTTP/1.1\r\nContent-Length: 5\r\nContent-Length: 6\r\n\r\n");
        assert_eq!(
            head.content_length(),
            Err(RequestError::Syntax("conflicting content-length headers"))
        );
        // Identical repeats are collapsed, per RFC 9112 §6.3.
        let (head, _) =
            parse_ok(b"POST /x HTTP/1.1\r\nContent-Length: 5\r\nContent-Length: 5\r\n\r\n");
        assert_eq!(head.content_length(), Ok(5));
    }

    #[test]
    fn connection_header_lists_honor_close() {
        let (head, _) = parse_ok(b"GET / HTTP/1.1\r\nConnection: keep-alive, close\r\n\r\n");
        assert!(!head.keep_alive());
        let (head, _) = parse_ok(b"GET / HTTP/1.1\r\nConnection: close, keep-alive\r\n\r\n");
        assert!(!head.keep_alive());
        let (head, _) = parse_ok(b"GET / HTTP/1.0\r\nConnection: Keep-Alive, Upgrade\r\n\r\n");
        assert!(head.keep_alive());
        // `close` wins even when split across repeated Connection fields.
        let (head, _) =
            parse_ok(b"GET / HTTP/1.1\r\nConnection: keep-alive\r\nConnection: close\r\n\r\n");
        assert!(!head.keep_alive());
        // Unknown tokens alone fall back to the version default.
        let (head, _) = parse_ok(b"GET / HTTP/1.1\r\nConnection: upgrade\r\n\r\n");
        assert!(head.keep_alive());
    }

    #[test]
    fn read_request_times_out_incomplete_requests_only() {
        let limits = Limits::default();
        let expired = Some(Instant::now());
        // Incomplete head past the deadline → 408, without reading further.
        let mut cursor = std::io::Cursor::new(b"GET / HT".to_vec());
        let mut buf = Vec::new();
        assert!(matches!(
            read_request(&mut cursor, &mut buf, &limits, expired),
            ReadOutcome::Bad(RequestError::Timeout)
        ));
        // Complete head, missing body bytes past the deadline → 408.
        let mut cursor = std::io::Cursor::new(Vec::new());
        let mut buf = b"POST /x HTTP/1.1\r\nContent-Length: 5\r\n\r\nhel".to_vec();
        assert!(matches!(
            read_request(&mut cursor, &mut buf, &limits, expired),
            ReadOutcome::Bad(RequestError::Timeout)
        ));
        // A fully buffered request never times out, however late.
        let mut cursor = std::io::Cursor::new(Vec::new());
        let mut buf = b"POST /x HTTP/1.1\r\nContent-Length: 5\r\n\r\nhello".to_vec();
        let ReadOutcome::Request(req) = read_request(&mut cursor, &mut buf, &limits, expired)
        else {
            panic!("buffered request should parse despite an expired deadline");
        };
        assert_eq!(req.body, b"hello");
        assert_eq!(RequestError::Timeout.status(), 408);
    }

    #[test]
    fn incomplete_heads_ask_for_more() {
        assert!(matches!(
            parse_head(b"GET / HTTP/1.1\r\nHost: x\r\n", DEFAULT_HEAD_LIMIT),
            HeadOutcome::Incomplete
        ));
        assert!(matches!(
            parse_head(b"", DEFAULT_HEAD_LIMIT),
            HeadOutcome::Incomplete
        ));
    }

    #[test]
    fn malformed_heads_are_rejected_with_the_right_status() {
        assert_eq!(parse_err(b"GET /\r\n\r\n").status(), 400); // missing version
        assert_eq!(parse_err(b"GET / HTTP/2.0\r\n\r\n").status(), 505);
        assert_eq!(parse_err(b"GET / HTTP/9.9\r\n\r\n").status(), 505);
        assert_eq!(parse_err(b"GET / FTP/1.1\r\n\r\n").status(), 400);
        assert_eq!(parse_err(b"GET  / HTTP/1.1\r\n\r\n").status(), 400); // double SP
        assert_eq!(
            parse_err(b"GET / HTTP/1.1\r\nbad header\r\n\r\n").status(),
            400
        );
        assert_eq!(
            parse_err(b"GET / HTTP/1.1\nHost: x\n\r\n\r\n").status(),
            400
        ); // bare LF
        assert_eq!(parse_err(b"G\x01T / HTTP/1.1\r\n\r\n").status(), 400);
        assert_eq!(
            parse_err(b"GET / HTTP/1.1\r\nX: a\x00b\r\n\r\n").status(),
            400
        );
    }

    #[test]
    fn oversized_heads_are_431() {
        let huge = vec![b'a'; 100];
        let mut req = b"GET / HTTP/1.1\r\n".to_vec();
        for i in 0..200 {
            req.extend_from_slice(format!("X-{i}: ").as_bytes());
            req.extend_from_slice(&huge);
            req.extend_from_slice(b"\r\n");
        }
        req.extend_from_slice(b"\r\n");
        assert_eq!(parse_err(&req), RequestError::HeadTooLarge);
        // Also when the terminator never arrives inside the window.
        let endless = vec![b'a'; DEFAULT_HEAD_LIMIT + 1];
        assert_eq!(parse_err(&endless), RequestError::HeadTooLarge);
    }

    #[test]
    fn read_request_collects_bodies_and_pipelines() {
        let wire = b"POST /x HTTP/1.1\r\nContent-Length: 5\r\n\r\nhelloGET /y HTTP/1.1\r\n\r\n";
        let mut cursor = std::io::Cursor::new(wire.to_vec());
        let mut buf = Vec::new();
        let limits = Limits::default();
        let ReadOutcome::Request(first) = read_request(&mut cursor, &mut buf, &limits, None) else {
            panic!("first request should parse");
        };
        assert_eq!(first.body, b"hello");
        let ReadOutcome::Request(second) = read_request(&mut cursor, &mut buf, &limits, None)
        else {
            panic!("pipelined request should parse");
        };
        assert_eq!(second.head.target, "/y");
        assert!(matches!(
            read_request(&mut cursor, &mut buf, &limits, None),
            ReadOutcome::Closed
        ));
    }

    /// Hands out at most `chunk` bytes per read and a `WouldBlock` on every
    /// fourth call, like a socket with a read timeout.
    struct Stalling {
        data: std::io::Cursor<Vec<u8>>,
        chunk: usize,
        calls: usize,
    }

    impl Read for Stalling {
        fn read(&mut self, out: &mut [u8]) -> std::io::Result<usize> {
            self.calls += 1;
            if self.calls.is_multiple_of(4) {
                return Err(std::io::ErrorKind::WouldBlock.into());
            }
            let n = out.len().min(self.chunk);
            self.data.read(&mut out[..n])
        }
    }

    #[test]
    fn large_bodies_survive_stalls_and_keep_pipelined_requests() {
        let body: Vec<u8> = (0..3_000_000u32).map(|i| (i % 251) as u8).collect();
        let mut wire = format!(
            "POST /sessions HTTP/1.1\r\nContent-Length: {}\r\n\r\n",
            body.len()
        )
        .into_bytes();
        wire.extend_from_slice(&body);
        wire.extend_from_slice(b"GET /healthz HTTP/1.1\r\n\r\n");
        let limits = Limits::default();

        // Streamed in chunks with stalls mid-body: a stall keeps the partial
        // request buffered and the next call resumes it.
        let mut stream = Stalling {
            data: std::io::Cursor::new(wire.clone()),
            chunk: 1 << 16,
            calls: 0,
        };
        let mut buf = Vec::new();
        let mut next = |buf: &mut Vec<u8>| loop {
            match read_request(&mut stream, buf, &limits, None) {
                ReadOutcome::Io(e) if e.kind() == std::io::ErrorKind::WouldBlock => continue,
                other => break other,
            }
        };
        let ReadOutcome::Request(first) = next(&mut buf) else {
            panic!("large request should parse");
        };
        assert_eq!(first.head.target, "/sessions");
        assert!(first.body == body, "body bytes differ");
        let ReadOutcome::Request(second) = next(&mut buf) else {
            panic!("pipelined request should parse");
        };
        assert_eq!(second.head.target, "/healthz");
        assert!(second.body.is_empty());
        assert!(matches!(next(&mut buf), ReadOutcome::Closed));

        // Fully buffered: the pipelined request stays behind in the buffer.
        let mut buf = wire;
        let mut empty = std::io::Cursor::new(Vec::new());
        let ReadOutcome::Request(first) = read_request(&mut empty, &mut buf, &limits, None) else {
            panic!("buffered request should parse");
        };
        assert!(first.body == body, "body bytes differ");
        assert_eq!(buf, b"GET /healthz HTTP/1.1\r\n\r\n");
    }

    #[test]
    fn read_request_enforces_body_limit_and_encoding() {
        let limits = Limits {
            head_bytes: DEFAULT_HEAD_LIMIT,
            body_bytes: 4,
        };
        let wire = b"POST /x HTTP/1.1\r\nContent-Length: 5\r\n\r\nhello";
        let mut cursor = std::io::Cursor::new(wire.to_vec());
        let mut buf = Vec::new();
        assert!(matches!(
            read_request(&mut cursor, &mut buf, &limits, None),
            ReadOutcome::Bad(RequestError::BodyTooLarge { limit: 4 })
        ));
        let wire = b"POST /x HTTP/1.1\r\nTransfer-Encoding: chunked\r\n\r\n";
        let mut cursor = std::io::Cursor::new(wire.to_vec());
        let mut buf = Vec::new();
        assert!(matches!(
            read_request(&mut cursor, &mut buf, &limits, None),
            ReadOutcome::Bad(RequestError::UnsupportedEncoding)
        ));
    }
}
