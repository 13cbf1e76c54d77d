//! A minimal blocking HTTP client for the conformance/stress suites and the
//! benchmark — the test harness must not depend on the parser under test,
//! so responses are read with an independent, trivial scanner (status line
//! + `Content-Length` only, which is everything the server emits).

use std::io::{self, Read, Write};
use std::net::{SocketAddr, TcpStream};
use std::time::Duration;

/// A keep-alive client over one TCP connection.
pub struct Client {
    stream: TcpStream,
    buf: Vec<u8>,
}

impl Client {
    /// Connects to `addr` with generous timeouts.
    pub fn connect(addr: SocketAddr) -> io::Result<Client> {
        let stream = TcpStream::connect(addr)?;
        stream.set_read_timeout(Some(Duration::from_secs(60)))?;
        stream.set_nodelay(true)?;
        Ok(Client {
            stream,
            buf: Vec::new(),
        })
    }

    /// Sends one request and reads the response: `(status, body)`.
    pub fn request(
        &mut self,
        method: &str,
        target: &str,
        body: Option<&str>,
    ) -> io::Result<(u16, String)> {
        let body = body.unwrap_or("");
        let wire = format!(
            "{method} {target} HTTP/1.1\r\nHost: revmax\r\nContent-Length: {}\r\n\r\n{body}",
            body.len()
        );
        self.stream.write_all(wire.as_bytes())?;
        read_response(&mut self.stream, &mut self.buf)
    }
}

/// Sends raw bytes on a fresh connection and reads one response — for the
/// malformed-request conformance cases that no well-formed client can
/// produce.
pub fn send_raw(addr: SocketAddr, bytes: &[u8]) -> io::Result<(u16, String)> {
    let mut stream = TcpStream::connect(addr)?;
    stream.set_read_timeout(Some(Duration::from_secs(60)))?;
    stream.write_all(bytes)?;
    let mut buf = Vec::new();
    read_response(&mut stream, &mut buf)
}

/// One-shot convenience: connect, request, disconnect.
pub fn request(
    addr: SocketAddr,
    method: &str,
    target: &str,
    body: Option<&str>,
) -> io::Result<(u16, String)> {
    Client::connect(addr)?.request(method, target, body)
}

/// Reads one `status + headers + Content-Length body` response, keeping
/// surplus bytes in `buf` for the next keep-alive exchange.
fn read_response(stream: &mut TcpStream, buf: &mut Vec<u8>) -> io::Result<(u16, String)> {
    let head_end = loop {
        if let Some(pos) = buf.windows(4).position(|w| w == b"\r\n\r\n") {
            break pos;
        }
        let mut chunk = [0u8; 4096];
        let n = stream.read(&mut chunk)?;
        if n == 0 {
            return Err(io::Error::new(
                io::ErrorKind::UnexpectedEof,
                "connection closed before response head",
            ));
        }
        buf.extend_from_slice(&chunk[..n]);
    };
    let head = String::from_utf8_lossy(&buf[..head_end]).into_owned();
    let mut lines = head.split("\r\n");
    let status_line = lines.next().unwrap_or("");
    let status: u16 = status_line
        .split(' ')
        .nth(1)
        .and_then(|s| s.parse().ok())
        .ok_or_else(|| {
            io::Error::new(
                io::ErrorKind::InvalidData,
                format!("bad status line {status_line:?}"),
            )
        })?;
    let mut content_length = 0usize;
    for line in lines {
        if let Some((name, value)) = line.split_once(':') {
            if name.eq_ignore_ascii_case("content-length") {
                content_length = value.trim().parse().map_err(|_| {
                    io::Error::new(io::ErrorKind::InvalidData, "bad content-length")
                })?;
            }
        }
    }
    let body_start = head_end + 4;
    while buf.len() < body_start + content_length {
        let mut chunk = [0u8; 4096];
        let n = stream.read(&mut chunk)?;
        if n == 0 {
            return Err(io::Error::new(
                io::ErrorKind::UnexpectedEof,
                "connection closed mid response body",
            ));
        }
        buf.extend_from_slice(&chunk[..n]);
    }
    let body = String::from_utf8_lossy(&buf[body_start..body_start + content_length]).into_owned();
    buf.drain(..body_start + content_length);
    Ok((status, body))
}
