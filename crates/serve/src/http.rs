//! A deliberately small HTTP/1.1 server on `std::net` — thread per
//! connection, `Connection: close` semantics, a bounded request head
//! and body.
//!
//! The build environment has no async runtime or HTTP crate, so the
//! daemon speaks just enough of the protocol for its JSON API: request
//! line + headers + optional `Content-Length` body in, status line +
//! headers + body out. Keep-alive is intentionally not implemented —
//! every exchange is one connection, which makes the concurrency story
//! trivially correct (no pipelining, no partial reads across requests).

use std::io::{BufRead, BufReader, Read, Write};

/// Maximum accepted request body, bytes. Submission bodies are small
/// JSON documents; anything larger is a client bug (or abuse).
pub const MAX_BODY_BYTES: usize = 1 << 20;

/// Maximum accepted request head (request line and headers), bytes.
const MAX_HEADER_BYTES: u64 = 64 * 1024;

/// A parsed HTTP request.
#[derive(Debug, Clone)]
pub struct Request {
    /// Uppercased method (`GET`, `POST`, ...).
    pub method: String,
    /// Path component of the request target (query string stripped).
    pub path: String,
    /// Raw query string (without the `?`), empty when absent.
    pub query: String,
    /// Body bytes (empty unless `Content-Length` was sent).
    pub body: Vec<u8>,
}

impl Request {
    /// Read one request from the stream. Returns `None` on a clean EOF
    /// before any bytes (client connected and left).
    pub fn read_from(stream: impl Read) -> Result<Option<Request>, String> {
        let mut reader = BufReader::new(stream);
        // the request line and the headers share one budget
        let mut head = (&mut reader).take(MAX_HEADER_BYTES);
        let mut line = String::new();
        let n = head
            .read_line(&mut line)
            .map_err(|e| format!("read request line: {e}"))?;
        if n == 0 {
            return Ok(None);
        }
        let mut parts = line.split_whitespace();
        let method = parts
            .next()
            .ok_or_else(|| "empty request line".to_owned())?
            .to_ascii_uppercase();
        let target = parts
            .next()
            .ok_or_else(|| "request line missing target".to_owned())?
            .to_owned();
        let (path, query) = match target.split_once('?') {
            Some((p, q)) => (p.to_owned(), q.to_owned()),
            None => (target, String::new()),
        };
        // headers: we only care about Content-Length
        let mut content_length = 0usize;
        loop {
            let mut h = String::new();
            head.read_line(&mut h)
                .map_err(|e| format!("read header: {e}"))?;
            if !h.ends_with('\n') && head.limit() == 0 {
                return Err("request head too large".into());
            }
            if h.is_empty() {
                return Err("connection closed mid-headers".into());
            }
            let h = h.trim_end();
            if h.is_empty() {
                break;
            }
            if let Some((name, value)) = h.split_once(':') {
                if name.eq_ignore_ascii_case("content-length") {
                    content_length = value
                        .trim()
                        .parse()
                        .map_err(|_| format!("bad content-length '{}'", value.trim()))?;
                }
            }
        }
        if content_length > MAX_BODY_BYTES {
            return Err(format!("body too large ({content_length} bytes)"));
        }
        let mut body = vec![0u8; content_length];
        if content_length > 0 {
            reader
                .read_exact(&mut body)
                .map_err(|e| format!("read body: {e}"))?;
        }
        Ok(Some(Request {
            method,
            path,
            query,
            body,
        }))
    }

    /// The body as UTF-8, or an error message suitable for a 400.
    pub fn body_utf8(&self) -> Result<&str, String> {
        std::str::from_utf8(&self.body).map_err(|_| "body is not valid UTF-8".to_owned())
    }
}

/// An HTTP response ready to serialize.
#[derive(Debug, Clone)]
pub struct Response {
    /// Status code (200, 400, 404, 429, ...).
    pub status: u16,
    /// Content type header value.
    pub content_type: &'static str,
    /// Body bytes.
    pub body: Vec<u8>,
}

impl Response {
    /// A JSON response.
    pub fn json(status: u16, body: impl Into<String>) -> Response {
        Response {
            status,
            content_type: "application/json",
            body: body.into().into_bytes(),
        }
    }

    /// A plain-text response (used by `/metrics`).
    pub fn text(status: u16, body: impl Into<String>) -> Response {
        Response {
            status,
            content_type: "text/plain; charset=utf-8",
            body: body.into().into_bytes(),
        }
    }

    /// Serialize and write to the stream (best effort — the client may
    /// already be gone, which is not the server's problem).
    pub fn write_to(&self, mut stream: impl Write) {
        let reason = match self.status {
            200 => "OK",
            201 => "Created",
            202 => "Accepted",
            400 => "Bad Request",
            404 => "Not Found",
            405 => "Method Not Allowed",
            409 => "Conflict",
            413 => "Payload Too Large",
            429 => "Too Many Requests",
            500 => "Internal Server Error",
            503 => "Service Unavailable",
            _ => "Status",
        };
        let head = format!(
            "HTTP/1.1 {} {}\r\nContent-Type: {}\r\nContent-Length: {}\r\nConnection: close\r\n\r\n",
            self.status,
            reason,
            self.content_type,
            self.body.len()
        );
        let _ = stream.write_all(head.as_bytes());
        let _ = stream.write_all(&self.body);
        let _ = stream.flush();
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn parse(raw: &str) -> Result<Option<Request>, String> {
        Request::read_from(raw.as_bytes())
    }

    #[test]
    fn parses_a_post_with_body() {
        let req =
            parse("POST /v1/jobs?x=1 HTTP/1.1\r\nHost: h\r\nContent-Length: 7\r\n\r\n{\"a\":1}")
                .unwrap()
                .unwrap();
        assert_eq!(req.method, "POST");
        assert_eq!(req.path, "/v1/jobs");
        assert_eq!(req.query, "x=1");
        assert_eq!(req.body_utf8().unwrap(), "{\"a\":1}");
    }

    #[test]
    fn parses_a_bare_get() {
        let req = parse("GET /metrics HTTP/1.1\r\n\r\n").unwrap().unwrap();
        assert_eq!(req.method, "GET");
        assert_eq!(req.path, "/metrics");
        assert!(req.body.is_empty());
    }

    #[test]
    fn rejects_oversized_bodies() {
        let raw = format!(
            "POST /v1/jobs HTTP/1.1\r\nContent-Length: {}\r\n\r\n",
            MAX_BODY_BYTES + 1
        );
        assert!(parse(&raw).is_err());
    }

    #[test]
    fn clean_eof_is_none() {
        assert!(parse("").unwrap().is_none());
    }

    /// A reader that counts the bytes taken from it.
    struct Counted<R> {
        inner: R,
        read: u64,
    }

    impl<R: Read> Read for Counted<R> {
        fn read(&mut self, buf: &mut [u8]) -> std::io::Result<usize> {
            let n = self.inner.read(buf)?;
            self.read += n as u64;
            Ok(n)
        }
    }

    #[test]
    fn an_endless_head_is_refused_within_its_budget() {
        // a request line, a target and a header value that never end
        for prefix in ["", "GET /", "GET / HTTP/1.1\r\nHost: "] {
            let inner = prefix.as_bytes().chain(std::io::repeat(b'a'));
            let mut endless = Counted { inner, read: 0 };
            assert!(Request::read_from(&mut endless).is_err(), "{prefix:?}");
            // the reader buffers at most 8 KiB beyond what it parsed
            assert!(
                endless.read <= MAX_HEADER_BYTES + 8 * 1024,
                "{}",
                endless.read
            );
        }
        // short headers share the one budget
        let many = format!("GET / HTTP/1.1\r\n{}\r\n", "X: y\r\n".repeat(20_000));
        assert_eq!(parse(&many).unwrap_err(), "request head too large");
    }

    /// Flip a bit (kind 0), drop a run (1), duplicate a run in place (2)
    /// or splice a copy of a run in elsewhere (3): the byte edits of
    /// `tests/telemetry.rs::trace_reader_survives_byte_mutations`.
    /// Positions wrap around the current length.
    fn mutate(bytes: &mut Vec<u8>, (kind, at, what, len): (u8, u64, u64, usize)) {
        let n = bytes.len() as u64;
        if n == 0 {
            return;
        }
        let at = (at % n) as usize;
        let end = (at + len).min(bytes.len());
        let run = bytes[at..end].to_vec();
        match kind {
            0 => bytes[at] ^= 1 << (what % 8),
            1 => drop(bytes.drain(at..end)),
            2 => drop(bytes.splice(end..end, run)),
            _ => {
                let to = (what % (n + 1)) as usize;
                drop(bytes.splice(to..to, run));
            }
        }
    }

    proptest::proptest! {
        #![proptest_config(proptest::test_runner::ProptestConfig::with_cases(512))]

        /// Mutated valid requests never panic the parser, and whatever it
        /// accepts carries a body within `MAX_BODY_BYTES`.
        #[test]
        fn mutated_requests_never_panic_or_overrun_the_body_bound(
            pick in 0usize..4,
            edits in proptest::collection::vec(
                (0u8..4, proptest::prelude::any::<u64>(), proptest::prelude::any::<u64>(), 1usize..48),
                1..5,
            ),
        ) {
            let valid = [
                "POST /v1/jobs HTTP/1.1\r\nHost: h\r\nContent-Length: 34\r\n\r\n{\"tenant\":\"a\",\"config\":{\"gpus\":2}}",
                "GET /v1/jobs/12/result?verbose=1 HTTP/1.1\r\nHost: h\r\n\r\n",
                "POST /v1/jobs/3/cancel HTTP/1.1\r\ncontent-length: 0\r\n\r\n",
                "GET /metrics HTTP/1.1\r\n\r\n",
            ];
            let mut bytes = valid[pick].as_bytes().to_vec();
            for edit in edits {
                mutate(&mut bytes, edit);
            }
            if let Ok(Some(req)) = Request::read_from(&bytes[..]) {
                proptest::prop_assert!(req.body.len() <= MAX_BODY_BYTES);
            }
        }
    }
}
