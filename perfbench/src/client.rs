//! Requests through the HTTP crate's test client, and reply scanners that
//! share no code with the server's JSON encoder, so a bug there cannot hide
//! itself.

use revmax_http::testkit::Client;
use std::io;

/// The request bytes exactly as a client sends them.
pub fn raw_request(method: &str, target: &str, body: &[u8]) -> Vec<u8> {
    let mut raw = format!(
        "{method} {target} HTTP/1.1\r\nHost: perfbench\r\nContent-Length: {}\r\n\r\n",
        body.len()
    )
    .into_bytes();
    raw.extend_from_slice(body);
    raw
}

/// One reply with the body bytes each way.
#[derive(Debug, Clone)]
pub struct Reply {
    pub status: u16,
    pub body: String,
    pub request_bytes: usize,
    pub response_bytes: usize,
}

pub fn call(client: &mut Client, method: &str, target: &str, body: &str) -> io::Result<Reply> {
    let (status, reply) = client.request(method, target, Some(body))?;
    Ok(Reply {
        status,
        request_bytes: body.len(),
        response_bytes: reply.len(),
        body: reply,
    })
}

/// The number after `"key":` in a flat reply document.
pub fn number(body: &str, key: &str) -> Option<f64> {
    let pattern = format!("\"{key}\":");
    let rest = &body[body.find(&pattern)? + pattern.len()..];
    let end = rest.find([',', '}']).unwrap_or(rest.len());
    rest[..end].trim().parse().ok()
}

/// How many `[u,i,t]` triples the reply's `"suffix"` array holds.
pub fn suffix_len(body: &str) -> Option<usize> {
    let pattern = "\"suffix\":";
    let rest = &body[body.find(pattern)? + pattern.len()..];
    let mut depth = 0usize;
    let mut triples = 0usize;
    for c in rest.chars() {
        match c {
            '[' => {
                depth += 1;
                if depth == 2 {
                    triples += 1;
                }
            }
            ']' => {
                depth = depth.checked_sub(1)?;
                if depth == 0 {
                    return Some(triples);
                }
            }
            _ => {}
        }
    }
    None
}

/// Relative agreement to 1e-9 (absolute near zero).
pub fn close(a: f64, b: f64) -> bool {
    (a - b).abs() <= 1e-9 * a.abs().max(b.abs()).max(1.0)
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn scanners_read_flat_reply_fields() {
        let body = r#"{"session_id":3,"now":2,"expected_remaining_revenue":1.5e3,"realized_revenue":7.25,"suffix":[[1,2,3],[4,5,6]]}"#;
        assert_eq!(number(body, "session_id"), Some(3.0));
        assert_eq!(number(body, "expected_remaining_revenue"), Some(1500.0));
        assert_eq!(number(body, "realized_revenue"), Some(7.25));
        assert_eq!(number(body, "missing"), None);
        assert_eq!(suffix_len(body), Some(2));
        assert_eq!(suffix_len(r#"{"suffix":[]}"#), Some(0));
        assert_eq!(suffix_len(r#"{"suffix":[[1,2,3]"#), None);
        assert!(close(1.0, 1.0 + 1e-12) && !close(1.0, 1.001));
    }
}
