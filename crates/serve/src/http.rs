//! Minimal HTTP/1.1 framing: just enough to parse one request from a
//! stream and write one response back, `Connection: close` semantics.
//!
//! This layer knows nothing about routes or the service — it moves bytes.
//! Swapping in a real HTTP stack later means replacing this module and
//! [`crate::server`] while [`crate::handlers`] keeps its
//! request-in/response-out contract.

use serde::Serialize;
use std::io::{self, BufRead, Read, Write};

/// Upper bound on an accepted request body — campaign specs are a few
/// KiB; anything near this size is a client error, not a workload.
pub const MAX_BODY_BYTES: usize = 4 * 1024 * 1024;

/// Upper bound on the horizons one stream feed may run. A feed ticks
/// synchronously while holding its stream's lock, so a window reaching
/// further past the stream's clock than this is refused with 400 instead
/// of holding the request (and the stream) for as long as it takes.
pub const MAX_FEED_HORIZONS: u32 = 1_000;

/// Upper bound on the request head (request line and headers). The
/// socket timeout applies per read, so without it a sender could grow one
/// header line for as long as it keeps the bytes coming.
const MAX_HEAD_BYTES: u64 = 64 * 1024;

/// One parsed HTTP request: method, path (query string stripped by the
/// router), and raw body bytes.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct Request {
    /// Uppercase method token (`GET`, `POST`, `DELETE`, …).
    pub method: String,
    /// The request target as sent (e.g. `/v1/jobs/j001`).
    pub path: String,
    /// Raw body bytes (`Content-Length` framed; empty when absent).
    pub body: Vec<u8>,
}

impl Request {
    /// Reads one request (request line, headers, `Content-Length`-framed
    /// body) from `reader`.
    ///
    /// # Errors
    ///
    /// [`io::ErrorKind::InvalidData`] on a malformed request line or
    /// header, or an oversized head or body; any transport error otherwise.
    pub fn read_from(mut reader: impl BufRead) -> io::Result<Request> {
        let mut head = (&mut reader).take(MAX_HEAD_BYTES);
        let mut line = String::new();
        read_head_line(&mut head, &mut line)?;
        let mut parts = line.split_whitespace();
        let method = parts
            .next()
            .ok_or_else(|| bad_request("empty request line"))?
            .to_string();
        let path = parts
            .next()
            .ok_or_else(|| bad_request("request line has no target"))?
            .to_string();
        let mut content_length = 0usize;
        loop {
            let mut header = String::new();
            if read_head_line(&mut head, &mut header)? == 0 {
                break;
            }
            let header = header.trim_end();
            if header.is_empty() {
                break;
            }
            if let Some((name, value)) = header.split_once(':') {
                if name.trim().eq_ignore_ascii_case("content-length") {
                    content_length = value
                        .trim()
                        .parse()
                        .map_err(|_| bad_request("unparseable Content-Length"))?;
                }
            }
        }
        if content_length > MAX_BODY_BYTES {
            return Err(bad_request("request body too large"));
        }
        let mut body = vec![0u8; content_length];
        reader.read_exact(&mut body)?;
        Ok(Request { method, path, body })
    }

    /// The body as UTF-8 text.
    ///
    /// # Errors
    ///
    /// [`io::ErrorKind::InvalidData`] when the body is not UTF-8.
    pub fn body_utf8(&self) -> io::Result<&str> {
        std::str::from_utf8(&self.body).map_err(|_| bad_request("request body is not UTF-8"))
    }
}

/// Reads one line of the request head, refusing a head that reaches
/// [`MAX_HEAD_BYTES`] before the line ends.
fn read_head_line(head: &mut io::Take<impl BufRead>, line: &mut String) -> io::Result<usize> {
    let read = head.read_line(line)?;
    if head.limit() == 0 && !line.ends_with('\n') {
        return Err(bad_request("request head too large"));
    }
    Ok(read)
}

fn bad_request(what: &str) -> io::Error {
    io::Error::new(io::ErrorKind::InvalidData, what.to_string())
}

/// One response: status code, content type, body. Always written with
/// `Connection: close` — the server handles exactly one request per
/// connection.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct Response {
    /// HTTP status code.
    pub status: u16,
    /// `Content-Type` header value.
    pub content_type: &'static str,
    /// Body bytes.
    pub body: Vec<u8>,
}

impl Response {
    /// A JSON response: serialises `body` (infallible with the vendored
    /// serializer for the wire types this crate emits; a serialisation
    /// failure degrades to a 500 with a plain-text body).
    pub fn json(status: u16, body: &impl Serialize) -> Response {
        match serde_json::to_string(body) {
            Ok(text) => Response {
                status,
                content_type: "application/json",
                body: text.into_bytes(),
            },
            Err(e) => Response::text(500, format!("response serialisation failed: {e}")),
        }
    }

    /// A plain-text response.
    pub fn text(status: u16, body: impl Into<String>) -> Response {
        Response {
            status,
            content_type: "text/plain; version=0.0.4",
            body: body.into().into_bytes(),
        }
    }

    /// Writes the response (status line, headers, body) to `writer`.
    ///
    /// # Errors
    ///
    /// Any transport error from `writer`.
    pub fn write_to(&self, mut writer: impl Write) -> io::Result<()> {
        write!(
            writer,
            "HTTP/1.1 {} {}\r\nContent-Type: {}\r\nContent-Length: {}\r\nConnection: close\r\n\r\n",
            self.status,
            reason(self.status),
            self.content_type,
            self.body.len()
        )?;
        writer.write_all(&self.body)?;
        writer.flush()
    }
}

/// Canonical reason phrase for the status codes this API emits.
pub fn reason(status: u16) -> &'static str {
    match status {
        200 => "OK",
        201 => "Created",
        400 => "Bad Request",
        404 => "Not Found",
        405 => "Method Not Allowed",
        500 => "Internal Server Error",
        _ => "Unknown",
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use std::io::BufReader;

    #[test]
    fn parses_request_line_headers_and_body() {
        let raw = b"POST /v1/jobs HTTP/1.1\r\nHost: x\r\nContent-Length: 4\r\n\r\nabcd";
        let req = Request::read_from(BufReader::new(&raw[..])).unwrap();
        assert_eq!(req.method, "POST");
        assert_eq!(req.path, "/v1/jobs");
        assert_eq!(req.body, b"abcd");
        assert_eq!(req.body_utf8().unwrap(), "abcd");
    }

    #[test]
    fn bodyless_request_has_empty_body() {
        let raw = b"GET /metrics HTTP/1.1\r\n\r\n";
        let req = Request::read_from(BufReader::new(&raw[..])).unwrap();
        assert_eq!(req.method, "GET");
        assert!(req.body.is_empty());
    }

    #[test]
    fn rejects_malformed_requests() {
        assert!(Request::read_from(BufReader::new(&b"\r\n"[..])).is_err());
        assert!(Request::read_from(BufReader::new(&b"GET\r\n\r\n"[..])).is_err());
        let bad_len = b"POST / HTTP/1.1\r\nContent-Length: many\r\n\r\n";
        assert!(Request::read_from(BufReader::new(&bad_len[..])).is_err());
    }

    #[test]
    fn rejects_a_head_longer_than_the_bound() {
        let mut raw = b"GET / HTTP/1.1\r\nX-Filler: ".to_vec();
        raw.resize(raw.len() + 16 * 1024 * 1024, b'a');
        raw.extend_from_slice(b"\r\n\r\n");
        let err = Request::read_from(BufReader::new(&raw[..])).unwrap_err();
        assert_eq!(err.kind(), io::ErrorKind::InvalidData);
        assert!(err.to_string().contains("head too large"), "{err}");

        // A head just under the bound still parses.
        let mut raw = b"GET / HTTP/1.1\r\nX-Filler: ".to_vec();
        raw.resize(MAX_HEAD_BYTES as usize - 4, b'a');
        raw.extend_from_slice(b"\r\n\r\n");
        let req = Request::read_from(BufReader::new(&raw[..])).unwrap();
        assert_eq!(req.path, "/");
    }

    #[test]
    fn response_writes_status_line_and_framing() {
        let mut out = Vec::new();
        Response::text(404, "nope").write_to(&mut out).unwrap();
        let text = String::from_utf8(out).unwrap();
        assert!(text.starts_with("HTTP/1.1 404 Not Found\r\n"));
        assert!(text.contains("Content-Length: 4\r\n"));
        assert!(text.contains("Connection: close\r\n"));
        assert!(text.ends_with("\r\n\r\nnope"));
    }
}
