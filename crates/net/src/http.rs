//! Incremental HTTP/1.1: a request parser that accepts bytes as the
//! socket delivers them, and a response writer that renders into an
//! outbound buffer.
//!
//! Scope is exactly what the edge needs — `HTTP/1.1` only, identity
//! bodies sized by `Content-Length`, keep-alive by default, `Connection:
//! close` honoured. Chunked transfer encoding is refused with `501`
//! rather than half-implemented. A `Content-Length` must be all ASCII
//! digits, and repeated ones must agree; anything else is a `400`.
//! Pipelined requests are parsed correctly: each
//! [`RequestParser::next_request`] consumes exactly one request, leaving
//! the rest buffered for the connection's thread to serve in order.
//!
//! Both limits in [`Limits`] are enforced incrementally: an over-long
//! header section or declared body fails as soon as it is knowable, not
//! after buffering it.

/// Byte budgets for one request.
#[derive(Debug, Clone, Copy)]
pub struct Limits {
    /// Max bytes for the request line + headers (431 beyond).
    pub max_head_bytes: usize,
    /// Max declared `Content-Length` (413 beyond).
    pub max_body_bytes: usize,
}

impl Default for Limits {
    fn default() -> Self {
        Limits {
            max_head_bytes: 8 * 1024,
            max_body_bytes: 1024 * 1024,
        }
    }
}

/// Why a request could not be parsed. Each maps to one response status;
/// all of them close the connection (framing is unrecoverable).
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum HttpError {
    /// Malformed request line, header, or length field.
    BadRequest(&'static str),
    /// Header section exceeded [`Limits::max_head_bytes`].
    HeadTooLarge,
    /// Declared body exceeds [`Limits::max_body_bytes`].
    BodyTooLarge,
    /// Anything other than `HTTP/1.1`.
    UnsupportedVersion,
    /// `Transfer-Encoding` (chunked bodies are out of scope).
    UnsupportedTransferEncoding,
}

impl HttpError {
    /// The `(status, reason)` this error answers with.
    pub fn status(&self) -> (u16, &'static str) {
        match self {
            HttpError::BadRequest(_) => (400, "Bad Request"),
            HttpError::HeadTooLarge => (431, "Request Header Fields Too Large"),
            HttpError::BodyTooLarge => (413, "Payload Too Large"),
            HttpError::UnsupportedVersion => (505, "HTTP Version Not Supported"),
            HttpError::UnsupportedTransferEncoding => (501, "Not Implemented"),
        }
    }

    /// Human-readable detail for the error body.
    pub fn detail(&self) -> &'static str {
        match self {
            HttpError::BadRequest(detail) => detail,
            HttpError::HeadTooLarge => "request headers exceed the configured limit",
            HttpError::BodyTooLarge => "request body exceeds the configured limit",
            HttpError::UnsupportedVersion => "only HTTP/1.1 is supported",
            HttpError::UnsupportedTransferEncoding => "transfer encodings are not supported",
        }
    }
}

/// Request method (anything else routes to 405 at dispatch).
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum Method {
    /// GET
    Get,
    /// POST
    Post,
    /// Any other token (parsed fine, rejected by the router).
    Other,
}

/// One fully-parsed request.
#[derive(Debug, Clone, PartialEq)]
pub struct Request {
    /// The method.
    pub method: Method,
    /// Request-target path, query string stripped.
    pub path: String,
    /// Whether the connection stays open after the response
    /// (HTTP/1.1 default unless `Connection: close`).
    pub keep_alive: bool,
    /// The body (`Content-Length` bytes; empty when absent).
    pub body: Vec<u8>,
}

/// Incremental parser: feed bytes with [`push`](Self::push), take
/// complete requests with [`next_request`](Self::next_request).
pub struct RequestParser {
    buf: Vec<u8>,
    start: usize,
    limits: Limits,
}

impl RequestParser {
    /// An empty parser with the given limits.
    pub fn new(limits: Limits) -> Self {
        RequestParser {
            buf: Vec::new(),
            start: 0,
            limits,
        }
    }

    /// Appends bytes read off the socket.
    pub fn push(&mut self, bytes: &[u8]) {
        self.compact();
        self.buf.extend_from_slice(bytes);
    }

    /// Bytes buffered but not yet consumed by a parsed request.
    pub fn buffered(&self) -> usize {
        self.buf.len() - self.start
    }

    fn compact(&mut self) {
        if self.start > 0 && (self.start == self.buf.len() || self.start >= 8 * 1024) {
            self.buf.drain(..self.start);
            self.start = 0;
        }
    }

    /// Parses and consumes the next complete request, if one is fully
    /// buffered. `Ok(None)` means "need more bytes". Errors are fatal to
    /// the connection — the buffer position is unspecified afterwards.
    pub fn next_request(&mut self) -> Result<Option<Request>, HttpError> {
        let data = &self.buf[self.start..];
        let Some(head_len) = find_head_end(data) else {
            if data.len() > self.limits.max_head_bytes {
                return Err(HttpError::HeadTooLarge);
            }
            return Ok(None);
        };
        if head_len > self.limits.max_head_bytes {
            return Err(HttpError::HeadTooLarge);
        }
        let head = std::str::from_utf8(&data[..head_len - 4])
            .map_err(|_| HttpError::BadRequest("header bytes are not UTF-8"))?;
        let mut lines = head.split("\r\n");
        let request_line = lines.next().unwrap_or("");
        let mut parts = request_line.split(' ');
        let method = match parts.next().unwrap_or("") {
            "GET" => Method::Get,
            "POST" => Method::Post,
            "" => return Err(HttpError::BadRequest("empty request line")),
            _ => Method::Other,
        };
        let target = parts
            .next()
            .ok_or(HttpError::BadRequest("request line lacks a target"))?;
        let version = parts
            .next()
            .ok_or(HttpError::BadRequest("request line lacks a version"))?;
        if parts.next().is_some() {
            return Err(HttpError::BadRequest("request line has trailing tokens"));
        }
        if version != "HTTP/1.1" {
            return Err(HttpError::UnsupportedVersion);
        }

        let mut content_length: Option<usize> = None;
        let mut keep_alive = true;
        for line in lines {
            let Some((name, value)) = line.split_once(':') else {
                return Err(HttpError::BadRequest("header line lacks a colon"));
            };
            let value = value.trim();
            if name.eq_ignore_ascii_case("content-length") {
                let length = parse_content_length(value)?;
                if content_length.is_some_and(|seen| seen != length) {
                    return Err(HttpError::BadRequest("conflicting Content-Length headers"));
                }
                content_length = Some(length);
            } else if name.eq_ignore_ascii_case("transfer-encoding") {
                return Err(HttpError::UnsupportedTransferEncoding);
            } else if name.eq_ignore_ascii_case("connection") {
                keep_alive = !value.eq_ignore_ascii_case("close");
            }
        }
        let content_length = content_length.unwrap_or(0);
        if content_length > self.limits.max_body_bytes {
            return Err(HttpError::BodyTooLarge);
        }
        if data.len() < head_len + content_length {
            return Ok(None); // head complete, body still arriving
        }

        let path = target.split('?').next().unwrap_or(target).to_owned();
        let body = data[head_len..head_len + content_length].to_vec();
        self.start += head_len + content_length;
        self.compact();
        Ok(Some(Request {
            method,
            path,
            keep_alive,
            body,
        }))
    }
}

/// A `Content-Length` value: ASCII digits only. Rust's integer parse
/// alone would also take a leading `+`.
fn parse_content_length(value: &str) -> Result<usize, HttpError> {
    let bad = HttpError::BadRequest("unparsable Content-Length");
    if value.is_empty() || !value.bytes().all(|b| b.is_ascii_digit()) {
        return Err(bad);
    }
    value.parse().map_err(|_| bad)
}

/// Index just past `\r\n\r\n`, if present.
fn find_head_end(data: &[u8]) -> Option<usize> {
    data.windows(4)
        .position(|w| w == b"\r\n\r\n")
        .map(|i| i + 4)
}

/// One response, rendered with [`write_into`](Self::write_into).
#[derive(Debug, Clone)]
pub struct Response {
    /// Status code.
    pub status: u16,
    /// `Content-Type` value.
    pub content_type: &'static str,
    /// The body.
    pub body: Vec<u8>,
    /// Adds a `Retry-After: <secs>` header (the 429 path).
    pub retry_after_secs: Option<u64>,
    /// Answer with `Connection: close` and drop the connection after
    /// the flush.
    pub close: bool,
}

impl Response {
    /// A JSON response.
    pub fn json(status: u16, body: impl Into<Vec<u8>>) -> Response {
        Response {
            status,
            content_type: "application/json",
            body: body.into(),
            retry_after_secs: None,
            close: false,
        }
    }

    /// A plain-text response.
    pub fn text(status: u16, body: impl Into<Vec<u8>>) -> Response {
        Response {
            status,
            content_type: "text/plain; charset=utf-8",
            body: body.into(),
            retry_after_secs: None,
            close: false,
        }
    }

    fn reason(&self) -> &'static str {
        match self.status {
            200 => "OK",
            202 => "Accepted",
            400 => "Bad Request",
            404 => "Not Found",
            405 => "Method Not Allowed",
            413 => "Payload Too Large",
            429 => "Too Many Requests",
            431 => "Request Header Fields Too Large",
            500 => "Internal Server Error",
            501 => "Not Implemented",
            503 => "Service Unavailable",
            505 => "HTTP Version Not Supported",
            _ => "Response",
        }
    }

    /// Renders status line, headers, and body onto `out`.
    pub fn write_into(&self, out: &mut Vec<u8>) {
        use std::io::Write as _;
        let _ = write!(out, "HTTP/1.1 {} {}\r\n", self.status, self.reason());
        let _ = write!(out, "content-type: {}\r\n", self.content_type);
        let _ = write!(out, "content-length: {}\r\n", self.body.len());
        if let Some(secs) = self.retry_after_secs {
            let _ = write!(out, "retry-after: {secs}\r\n");
        }
        let keep = if self.close { "close" } else { "keep-alive" };
        let _ = write!(out, "connection: {keep}\r\n\r\n");
        out.extend_from_slice(&self.body);
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn parser() -> RequestParser {
        RequestParser::new(Limits::default())
    }

    #[test]
    fn parses_a_request_fed_one_byte_at_a_time() {
        let raw = b"POST /v1/events HTTP/1.1\r\ncontent-length: 4\r\n\r\nbody";
        let mut p = parser();
        for (i, byte) in raw.iter().enumerate() {
            p.push(std::slice::from_ref(byte));
            let parsed = p.next_request().unwrap();
            if i + 1 < raw.len() {
                assert!(parsed.is_none(), "complete only at the last byte");
            } else {
                let req = parsed.expect("complete");
                assert_eq!(req.method, Method::Post);
                assert_eq!(req.path, "/v1/events");
                assert!(req.keep_alive);
                assert_eq!(req.body, b"body");
            }
        }
        assert_eq!(p.buffered(), 0);
    }

    #[test]
    fn pipelined_requests_come_out_one_at_a_time_in_order() {
        let mut p = parser();
        p.push(
            b"GET /healthz HTTP/1.1\r\n\r\nGET /metrics?x=1 HTTP/1.1\r\nConnection: close\r\n\r\n",
        );
        let first = p.next_request().unwrap().unwrap();
        assert_eq!(first.path, "/healthz");
        assert!(first.keep_alive);
        let second = p.next_request().unwrap().unwrap();
        assert_eq!(second.path, "/metrics", "query string stripped");
        assert!(!second.keep_alive);
        assert!(p.next_request().unwrap().is_none());
        assert_eq!(p.buffered(), 0);
    }

    #[test]
    fn oversized_heads_and_bodies_fail_as_soon_as_knowable() {
        let limits = Limits {
            max_head_bytes: 64,
            max_body_bytes: 16,
        };
        let mut p = RequestParser::new(limits);
        p.push(&[b'a'; 65]); // no \r\n\r\n yet, already over budget
        assert_eq!(p.next_request(), Err(HttpError::HeadTooLarge));

        let mut p = RequestParser::new(limits);
        p.push(b"POST / HTTP/1.1\r\ncontent-length: 17\r\n\r\n");
        assert_eq!(
            p.next_request(),
            Err(HttpError::BodyTooLarge),
            "declared length is enough; no body bytes needed"
        );
    }

    #[test]
    fn wrong_version_and_chunked_are_refused() {
        let mut p = parser();
        p.push(b"GET / HTTP/1.0\r\n\r\n");
        assert_eq!(p.next_request(), Err(HttpError::UnsupportedVersion));

        let mut p = parser();
        p.push(b"POST / HTTP/1.1\r\ntransfer-encoding: chunked\r\n\r\n");
        assert_eq!(
            p.next_request(),
            Err(HttpError::UnsupportedTransferEncoding)
        );
        assert_eq!(HttpError::UnsupportedTransferEncoding.status().0, 501);
    }

    #[test]
    fn malformed_lines_are_bad_requests() {
        let mut p = parser();
        p.push(b"GET /\r\n\r\n"); // no version
        assert!(matches!(p.next_request(), Err(HttpError::BadRequest(_))));

        let mut p = parser();
        p.push(b"GET / HTTP/1.1\r\nno-colon-here\r\n\r\n");
        assert!(matches!(p.next_request(), Err(HttpError::BadRequest(_))));

        let mut p = parser();
        p.push(b"POST / HTTP/1.1\r\ncontent-length: nope\r\n\r\n");
        assert!(matches!(p.next_request(), Err(HttpError::BadRequest(_))));
    }

    #[test]
    fn content_length_must_be_all_digits() {
        for value in ["+5", "-5", "5 5", "0x5", "5,5", ""] {
            let mut p = parser();
            p.push(format!("POST / HTTP/1.1\r\ncontent-length: {value}\r\n\r\nhello").as_bytes());
            assert_eq!(
                p.next_request(),
                Err(HttpError::BadRequest("unparsable Content-Length")),
                "{value:?}"
            );
        }
        let mut p = parser();
        p.push(b"POST / HTTP/1.1\r\ncontent-length: 99999999999999999999999\r\n\r\n");
        assert!(
            matches!(p.next_request(), Err(HttpError::BadRequest(_))),
            "overflow is a bad request, not a panic"
        );
    }

    #[test]
    fn conflicting_content_lengths_are_bad_requests() {
        let mut p = parser();
        p.push(b"POST / HTTP/1.1\r\ncontent-length: 1\r\nContent-Length: 5\r\n\r\nhello");
        assert_eq!(
            p.next_request(),
            Err(HttpError::BadRequest("conflicting Content-Length headers"))
        );
        assert_eq!(HttpError::BadRequest("").status().0, 400);

        // a repeated but agreeing length frames the body as one would
        let mut p = parser();
        p.push(b"POST / HTTP/1.1\r\ncontent-length: 5\r\ncontent-length: 5\r\n\r\nhello");
        assert_eq!(p.next_request().unwrap().unwrap().body, b"hello");
    }

    #[test]
    fn response_bytes_are_exactly_as_specified() {
        let mut r = Response::json(
            429,
            br#"{"error":{"Overloaded":{"retry_after_ms":9}},"retry_after_ms":9}"#.to_vec(),
        );
        r.retry_after_secs = Some(1);
        r.close = true;
        let mut out = Vec::new();
        r.write_into(&mut out);
        let text = String::from_utf8(out).unwrap();
        assert_eq!(
            text,
            "HTTP/1.1 429 Too Many Requests\r\n\
             content-type: application/json\r\n\
             content-length: 64\r\n\
             retry-after: 1\r\n\
             connection: close\r\n\r\n\
             {\"error\":{\"Overloaded\":{\"retry_after_ms\":9}},\"retry_after_ms\":9}"
        );
    }

    #[test]
    fn unknown_method_tokens_parse_as_other() {
        let mut p = parser();
        p.push(b"DELETE /v1/events HTTP/1.1\r\n\r\n");
        let req = p.next_request().unwrap().unwrap();
        assert_eq!(req.method, Method::Other);
    }
}
