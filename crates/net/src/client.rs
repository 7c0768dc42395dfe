//! A minimal blocking HTTP/1.1 client over one keep-alive connection:
//! just enough protocol for the edge's routes. Requests carry a
//! `content-length`; responses are framed by theirs. The tests talk to
//! the edge through it; from a shell, curl does the same job.

use std::io::{self, Read, Write};
use std::net::{SocketAddr, TcpStream};
use std::time::Duration;

/// One parsed response.
#[derive(Debug, Clone)]
pub struct Response {
    /// Status code from the status line.
    pub status: u16,
    /// Header `(name, value)` pairs in wire order, trimmed.
    pub headers: Vec<(String, String)>,
    /// The body, decoded as UTF-8 (lossily; every edge route answers
    /// JSON or text).
    pub body: String,
}

impl Response {
    /// The first header named `name`, compared case-insensitively.
    pub fn header(&self, name: &str) -> Option<&str> {
        self.headers
            .iter()
            .find(|(n, _)| n.eq_ignore_ascii_case(name))
            .map(|(_, v)| v.as_str())
    }
}

/// A blocking client on one keep-alive connection. Pipelining works:
/// [`send`](Self::send) several requests, then
/// [`read_response`](Self::read_response) once per request.
pub struct Client {
    stream: TcpStream,
    buf: Vec<u8>,
}

impl Client {
    /// Connects with a generous read timeout (a drain can legitimately
    /// hold a response back for a moment).
    pub fn connect(addr: SocketAddr) -> io::Result<Client> {
        let stream = TcpStream::connect(addr)?;
        stream.set_read_timeout(Some(Duration::from_secs(30)))?;
        let _ = stream.set_nodelay(true);
        Ok(Client {
            stream,
            buf: Vec::new(),
        })
    }

    /// Writes one request without waiting for its answer.
    pub fn send(&mut self, method: &str, path: &str, body: &str) -> io::Result<()> {
        let request = format!(
            "{method} {path} HTTP/1.1\r\ncontent-length: {}\r\n\r\n{body}",
            body.len()
        );
        self.send_raw(request.as_bytes())
    }

    /// Writes raw bytes (for requests the edge must refuse).
    pub fn send_raw(&mut self, bytes: &[u8]) -> io::Result<()> {
        self.stream.write_all(bytes)
    }

    /// Sends one request and reads its response.
    pub fn request(&mut self, method: &str, path: &str, body: &str) -> io::Result<Response> {
        self.send(method, path, body)?;
        self.read_response()
    }

    /// One `GET`.
    pub fn get(&mut self, path: &str) -> io::Result<Response> {
        self.request("GET", path, "")
    }

    /// One `POST` with an opaque body.
    pub fn post(&mut self, path: &str, body: &str) -> io::Result<Response> {
        self.request("POST", path, body)
    }

    /// Reads the next response off the connection. A peer that closes
    /// before a whole response arrived is `UnexpectedEof`.
    pub fn read_response(&mut self) -> io::Result<Response> {
        loop {
            if let Some(head_len) = self
                .buf
                .windows(4)
                .position(|w| w == b"\r\n\r\n")
                .map(|i| i + 4)
            {
                let head = String::from_utf8_lossy(&self.buf[..head_len - 4]).into_owned();
                let mut lines = head.split("\r\n");
                let status = lines
                    .next()
                    .and_then(|l| l.split(' ').nth(1))
                    .and_then(|s| s.parse().ok())
                    .ok_or_else(|| invalid("bad status line"))?;
                let headers: Vec<(String, String)> = lines
                    .filter_map(|l| l.split_once(':'))
                    .map(|(n, v)| (n.trim().to_owned(), v.trim().to_owned()))
                    .collect();
                let mut response = Response {
                    status,
                    headers,
                    body: String::new(),
                };
                let content_length = match response.header("content-length") {
                    Some(v) => v.parse().map_err(|_| invalid("bad content-length"))?,
                    None => 0,
                };
                while self.buf.len() < head_len + content_length {
                    self.fill()?;
                }
                response.body =
                    String::from_utf8_lossy(&self.buf[head_len..head_len + content_length])
                        .into_owned();
                self.buf.drain(..head_len + content_length);
                return Ok(response);
            }
            self.fill()?;
        }
    }

    fn fill(&mut self) -> io::Result<()> {
        let mut chunk = [0u8; 16 * 1024];
        let n = self.stream.read(&mut chunk)?;
        if n == 0 {
            return Err(io::ErrorKind::UnexpectedEof.into());
        }
        self.buf.extend_from_slice(&chunk[..n]);
        Ok(())
    }
}

fn invalid(what: &str) -> io::Error {
    io::Error::new(io::ErrorKind::InvalidData, what.to_owned())
}
