//! A minimal blocking HTTP/1.1 client over `std::net`: one request per
//! connection, as the daemon serves them (`Connection: close`).
//!
//! Not `hetsched_serve::client`: that one retries refused connections
//! with backoff, which would turn a failed operation into a slow success
//! and add the backoff to the measured latency.

use std::io::{Read, Write};
use std::net::{SocketAddr, TcpStream};
use std::time::Duration;

/// A stalled daemon fails the request instead of hanging the run.
const TIMEOUT: Duration = Duration::from_secs(60);

/// Sends one request and reads the whole response: `(status, body)`.
pub fn call(
    addr: SocketAddr,
    method: &str,
    path: &str,
    body: Option<&str>,
) -> Result<(u16, String), String> {
    let fail = |e: std::io::Error| format!("{method} {path}: {e}");
    let mut stream = TcpStream::connect(addr).map_err(fail)?;
    stream.set_read_timeout(Some(TIMEOUT)).map_err(fail)?;
    stream.set_write_timeout(Some(TIMEOUT)).map_err(fail)?;
    let body = body.unwrap_or("");
    let request = format!(
        "{method} {path} HTTP/1.1\r\nHost: {addr}\r\nContent-Type: application/json\r\n\
         Content-Length: {}\r\nConnection: close\r\n\r\n{body}",
        body.len()
    );
    stream.write_all(request.as_bytes()).map_err(fail)?;
    let mut raw = Vec::new();
    stream.read_to_end(&mut raw).map_err(fail)?;
    parse_response(&raw).ok_or_else(|| format!("{method} {path}: malformed response"))
}

/// Splits a raw response into status and body, honouring
/// `Content-Length` when present.
fn parse_response(raw: &[u8]) -> Option<(u16, String)> {
    let split = raw.windows(4).position(|w| w == b"\r\n\r\n")?;
    let head = std::str::from_utf8(&raw[..split]).ok()?;
    let status: u16 = head
        .lines()
        .next()?
        .split_whitespace()
        .nth(1)?
        .parse()
        .ok()?;
    let mut body = &raw[split + 4..];
    let length = head.lines().skip(1).find_map(|line| {
        let (name, value) = line.split_once(':')?;
        name.trim()
            .eq_ignore_ascii_case("content-length")
            .then(|| value.trim().parse::<usize>().ok())?
    });
    if let Some(length) = length {
        body = body.get(..length)?;
    }
    Some((status, String::from_utf8(body.to_vec()).ok()?))
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn parses_status_and_length_delimited_body() {
        let raw = b"HTTP/1.1 201 Created\r\nContent-Type: application/json\r\n\
                    Content-Length: 2\r\nConnection: close\r\n\r\n{}trailing";
        assert_eq!(parse_response(raw), Some((201, "{}".to_string())));
        let no_length = b"HTTP/1.1 200 OK\r\n\r\nbody";
        assert_eq!(parse_response(no_length), Some((200, "body".to_string())));
        assert_eq!(parse_response(b"HTTP/1.1 200 OK\r\n"), None);
        let short = b"HTTP/1.1 200 OK\r\nContent-Length: 9\r\n\r\nabc";
        assert_eq!(parse_response(short), None);
    }
}
