//! Property tests on the serve daemon's hand-rolled HTTP/1.1 request
//! framing (`hetsched::serve::http`): no input panics, every rejection is
//! an `io::Error` of the two kinds a malformed or cut-short request
//! produces, and well-formed requests parse back to what was sent.

use hetsched::serve::http::Request;
use proptest::prelude::*;
use std::io::{self, BufReader, ErrorKind};

/// Pieces of real requests, so generated inputs get past the request line
/// and into the header loop and the body framing.
const TOKENS: [&[u8]; 12] = [
    b"GET ",
    b"POST ",
    b"/v1/jobs ",
    b"HTTP/1.1",
    b"\r\n",
    b"\n",
    b"Content-Length: ",
    b"content-length:",
    b"4",
    b"18446744073709551616",
    b": ",
    b" ",
];

fn parse(raw: &[u8]) -> io::Result<Request> {
    Request::read_from(BufReader::new(raw))
}

/// Asserts that `raw` parses or is rejected as invalid or cut short.
fn assert_typed(raw: &[u8]) {
    if let Err(e) = parse(raw) {
        assert!(
            matches!(e.kind(), ErrorKind::InvalidData | ErrorKind::UnexpectedEof),
            "{:?} for {:?}",
            e.kind(),
            String::from_utf8_lossy(raw)
        );
    }
}

/// Runs of framing tokens and random bytes.
fn token_soup() -> impl Strategy<Value = Vec<u8>> {
    prop::collection::vec(
        (
            0usize..TOKENS.len() + 1,
            prop::collection::vec(0u8..=255, 0..6),
        ),
        0..40,
    )
    .prop_map(|pieces| {
        let mut raw = Vec::new();
        for (token, noise) in pieces {
            match TOKENS.get(token) {
                Some(token) => raw.extend_from_slice(token),
                None => raw.extend(noise),
            }
        }
        raw
    })
}

fn ascii(
    range: std::ops::RangeInclusive<u8>,
    len: std::ops::Range<usize>,
) -> impl Strategy<Value = String> {
    prop::collection::vec(range, len).prop_map(|bytes| String::from_utf8(bytes).unwrap())
}

/// A well-formed request: a method token, a path, 0–8 headers with a
/// `Content-Length` among them, and a body of up to 4 KiB.
fn valid_request() -> impl Strategy<Value = (String, String, Vec<(String, String)>, Vec<u8>, usize)>
{
    (
        ascii(b'A'..=b'Z', 1..8),
        ascii(b'a'..=b'z', 0..40).prop_map(|p| format!("/{p}")),
        prop::collection::vec((ascii(b'a'..=b'z', 1..16), ascii(b' '..=b'~', 0..48)), 0..9),
        prop::collection::vec(0u8..=255, 0..4097),
        0usize..9,
    )
}

fn render(
    method: &str,
    path: &str,
    headers: &[(String, String)],
    body: &[u8],
    at: usize,
) -> Vec<u8> {
    let mut lines: Vec<String> = headers
        .iter()
        .map(|(name, value)| format!("X-{name}: {value}"))
        .collect();
    lines.insert(
        at.min(lines.len()),
        format!("Content-Length: {}", body.len()),
    );
    let mut raw = format!("{method} {path} HTTP/1.1\r\n").into_bytes();
    for line in lines {
        raw.extend_from_slice(line.as_bytes());
        raw.extend_from_slice(b"\r\n");
    }
    raw.extend_from_slice(b"\r\n");
    raw.extend_from_slice(body);
    raw
}

proptest! {
    #[test]
    fn arbitrary_bytes_never_panic(raw in prop::collection::vec(0u8..=255, 0..2048)) {
        assert_typed(&raw);
    }

    #[test]
    fn framing_token_soup_is_parsed_or_rejected_as_invalid(raw in token_soup()) {
        assert_typed(&raw);
    }

    #[test]
    fn valid_requests_parse_back_to_what_was_sent(request in valid_request(), cut in 0.0f64..1.0) {
        let (method, path, headers, body, at) = request;
        let raw = render(&method, &path, &headers, &body, at);
        let request = parse(&raw).unwrap();
        prop_assert_eq!(request.method, method);
        prop_assert_eq!(request.path, path);
        prop_assert_eq!(request.body, body);

        // Any prefix of it, as a sender cut off mid-request leaves.
        assert_typed(&raw[..(raw.len() as f64 * cut) as usize]);
    }
}
