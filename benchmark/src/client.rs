//! The benchmark's HTTP/1.1 clients: the open-loop classify generator
//! (thread A), and a blocking one-request-at-a-time client for ingest
//! posts (thread B), parity probes and idle round trips.
//!
//! The open-loop generator is one thread on one pipelined keep-alive
//! connection. It writes each request when it is due, reads responses in
//! order, and times every request from its **due** time, so a stall in
//! the server (or in the generator) is charged to every request it
//! delays. A socket read timeout cannot pace it — the kernel rounds it
//! to scheduler ticks — so the loop uses a non-blocking socket and sleeps
//! in short slices while responses are outstanding.

use std::collections::VecDeque;
use std::io::{self, Read, Write};
use std::net::{SocketAddr, TcpStream};
use std::time::{Duration, Instant};

use frappe_serve::Verdict;

use crate::schedule::{Planned, Step};

/// Sleep slice while responses are outstanding.
const POLL: Duration = Duration::from_micros(20);

/// A parsed HTTP response: status and body.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct Response {
    /// Status code.
    pub status: u16,
    /// Body bytes (`Content-Length` framed).
    pub body: Vec<u8>,
}

/// Parses one response off the front of `buf`: `Ok(None)` while
/// incomplete, else the response and the bytes it used.
pub fn parse_response(buf: &[u8]) -> io::Result<Option<(Response, usize)>> {
    let Some(head_len) = buf.windows(4).position(|w| w == b"\r\n\r\n").map(|i| i + 4) else {
        return Ok(None);
    };
    let bad = |what: &str| io::Error::new(io::ErrorKind::InvalidData, what.to_string());
    let head = std::str::from_utf8(&buf[..head_len - 4]).map_err(|_| bad("non-UTF-8 head"))?;
    let mut lines = head.split("\r\n");
    let status = lines
        .next()
        .and_then(|l| l.split(' ').nth(1))
        .and_then(|s| s.parse().ok())
        .ok_or_else(|| bad("bad status line"))?;
    let mut content_length = 0usize;
    for line in lines {
        if let Some((name, value)) = line.split_once(':') {
            if name.eq_ignore_ascii_case("content-length") {
                content_length = value
                    .trim()
                    .parse()
                    .map_err(|_| bad("bad content-length"))?;
            }
        }
    }
    if buf.len() < head_len + content_length {
        return Ok(None);
    }
    let body = buf[head_len..head_len + content_length].to_vec();
    Ok(Some((Response { status, body }, head_len + content_length)))
}

/// The request line block of a classify.
pub fn classify_request(app: u64) -> String {
    format!("GET /v1/classify/{app} HTTP/1.1\r\n\r\n")
}

/// The request bytes of an NDJSON ingest post.
pub fn ingest_request(body: &str) -> String {
    format!(
        "POST /v1/events HTTP/1.1\r\ncontent-length: {}\r\n\r\n{body}",
        body.len()
    )
}

/// A blocking keep-alive client, one request at a time.
pub struct BlockingClient {
    stream: TcpStream,
    buf: Vec<u8>,
}

impl BlockingClient {
    /// Connects with a generous read timeout (a fenced swap can hold a
    /// response back for a moment; a dead server must not hang the run).
    pub fn connect(addr: SocketAddr) -> io::Result<BlockingClient> {
        let stream = TcpStream::connect(addr)?;
        stream.set_read_timeout(Some(Duration::from_secs(10)))?;
        stream.set_nodelay(true)?;
        Ok(BlockingClient {
            stream,
            buf: Vec::new(),
        })
    }

    /// Writes `request` (a complete request's bytes) and reads the
    /// response.
    pub fn send(&mut self, request: &[u8]) -> io::Result<Response> {
        self.stream.write_all(request)?;
        let mut chunk = [0u8; 16 * 1024];
        loop {
            if let Some((response, used)) = parse_response(&self.buf)? {
                self.buf.drain(..used);
                return Ok(response);
            }
            let n = self.stream.read(&mut chunk)?;
            if n == 0 {
                return Err(io::ErrorKind::UnexpectedEof.into());
            }
            self.buf.extend_from_slice(&chunk[..n]);
        }
    }

    /// `GET /v1/classify/{app}`, parsed into a verdict when it is a 200.
    pub fn classify(&mut self, app: u64) -> io::Result<(u16, Option<Verdict>)> {
        let response = self.send(classify_request(app).as_bytes())?;
        let verdict = (response.status == 200)
            .then(|| parse_verdict(&response.body))
            .flatten();
        Ok((response.status, verdict))
    }
}

/// A verdict body, or `None` when it does not parse.
pub fn parse_verdict(body: &[u8]) -> Option<Verdict> {
    std::str::from_utf8(body)
        .ok()
        .and_then(|text| serde_json::from_str::<Verdict>(text).ok())
}

/// What happened to one planned classify.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct Outcome {
    /// When its bytes were fully written, ns after the window opened
    /// (`None`: never sent — the ladder stopped before it was due).
    pub sent_ns: Option<u64>,
    /// When its response was read (`None`: no response).
    pub done_ns: Option<u64>,
    /// Response status (0 when there was none or it was malformed).
    pub status: u16,
    /// `model_version` of a 200 verdict for the right app (0 otherwise).
    pub model_version: u64,
}

/// What thread A saw over one window.
#[derive(Debug, Clone)]
pub struct OpenLoopReport {
    /// One entry per planned request, in schedule order.
    pub outcomes: Vec<Outcome>,
    /// Per step: age of the oldest request still unanswered when the
    /// step ended, in ns (`None` for steps that never ran).
    pub backlog_at_end_ns: Vec<Option<u64>>,
    /// Index of the step whose backlog stopped the ladder, if one did.
    pub stopped_at: Option<usize>,
    /// Requests handed to the socket: a prefix of the plan (the rest were
    /// skipped when the ladder stopped, or the connection died).
    pub enqueued: usize,
}

/// A ladder step stops when its oldest unanswered request is older than
/// this: it has missed the latency limit beyond doubt, and more load would
/// only queue requests that cannot be answered in time.
const STOP_AGE: Duration = Duration::from_millis(250);
/// The ladder also stops after a step that ends with a request older than
/// this still unanswered: the backlog is growing, so higher rates cannot
/// meet the limit either.
const STOP_BACKLOG: Duration = Duration::from_millis(50);
/// How long outstanding requests may drain after the last send.
const DRAIN: Duration = Duration::from_secs(5);

fn ns_since(t0: Instant) -> u64 {
    u64::try_from(t0.elapsed().as_nanos()).unwrap_or(u64::MAX)
}

/// Runs the classify schedule against `addr` over one connection.
/// `t0` is the window start; `steps` are the schedule's steps (the first
/// is the base step, which never stops early).
pub fn open_loop(
    addr: SocketAddr,
    plan: &[Planned],
    steps: &[Step],
    t0: Instant,
) -> io::Result<OpenLoopReport> {
    let mut stream = TcpStream::connect(addr)?;
    stream.set_nodelay(true)?;
    stream.set_nonblocking(true)?;

    let mut outcomes = vec![
        Outcome {
            sent_ns: None,
            done_ns: None,
            status: 0,
            model_version: 0,
        };
        plan.len()
    ];
    let mut backlog_at_end_ns: Vec<Option<u64>> = vec![None; steps.len()];
    let mut step_cursor = 0usize; // next step whose end we have not passed
    let mut stopped_at: Option<usize> = None;

    let mut next = 0usize; // next request to enqueue
    let mut out: Vec<u8> = Vec::new();
    let mut written = 0usize; // bytes of `out` on the wire
    let mut unsent: VecDeque<(usize, usize)> = VecDeque::new(); // (request, end offset)
    let mut waiting: VecDeque<usize> = VecDeque::new(); // sent or queued, unanswered
    let mut inbuf: Vec<u8> = Vec::new();
    let mut chunk = vec![0u8; 64 * 1024];
    let mut last_send_ns: Option<u64> = None;

    loop {
        let now = ns_since(t0);

        // steps whose end just passed: record the backlog, and stop the
        // ladder on a step that has fallen hopelessly behind
        while step_cursor < steps.len() && now >= steps[step_cursor].end_ns {
            if stopped_at.is_none_or(|s| step_cursor <= s) {
                let behind = backlog(&waiting, plan, now);
                backlog_at_end_ns[step_cursor] = Some(behind);
                if stopped_at.is_none() && behind > STOP_BACKLOG.as_nanos() as u64 {
                    stopped_at = Some(step_cursor);
                    last_send_ns = Some(now);
                }
            }
            step_cursor += 1;
        }
        if stopped_at.is_none() && next < plan.len() && plan[next].step > 0 {
            if let Some(&oldest) = waiting.front() {
                if now.saturating_sub(plan[oldest].due_ns) > STOP_AGE.as_nanos() as u64 {
                    stopped_at = Some(plan[oldest].step);
                    // every later step is skipped: nothing more is sent
                    last_send_ns = Some(now);
                }
            }
        }

        // enqueue every due request
        if stopped_at.is_none() {
            while next < plan.len() && plan[next].due_ns <= now {
                if written == out.len() {
                    out.clear();
                    written = 0;
                }
                out.extend_from_slice(classify_request(plan[next].app).as_bytes());
                unsent.push_back((next, out.len()));
                waiting.push_back(next);
                next += 1;
            }
        }

        // write what the socket takes
        if written < out.len() {
            match stream.write(&out[written..]) {
                Ok(n) => {
                    written += n;
                    let at = ns_since(t0);
                    while unsent.front().is_some_and(|&(_, end)| end <= written) {
                        let (i, _) = unsent.pop_front().expect("front checked");
                        outcomes[i].sent_ns = Some(at);
                    }
                }
                Err(e) if e.kind() == io::ErrorKind::WouldBlock => {}
                Err(e) if e.kind() == io::ErrorKind::Interrupted => {}
                Err(_) => break,
            }
        }
        if next == plan.len() && last_send_ns.is_none() && unsent.is_empty() {
            last_send_ns = Some(ns_since(t0));
        }

        // read and match responses in order
        let mut closed = false;
        loop {
            match stream.read(&mut chunk) {
                Ok(0) => {
                    closed = true;
                    break;
                }
                Ok(n) => inbuf.extend_from_slice(&chunk[..n]),
                Err(e) if e.kind() == io::ErrorKind::WouldBlock => break,
                Err(e) if e.kind() == io::ErrorKind::Interrupted => {}
                Err(_) => {
                    closed = true;
                    break;
                }
            }
        }
        let read_at = ns_since(t0);
        let mut used = 0usize;
        while let Some((response, n)) = parse_response(&inbuf[used..])? {
            used += n;
            let Some(i) = waiting.pop_front() else {
                return Err(io::Error::new(
                    io::ErrorKind::InvalidData,
                    "response without a request",
                ));
            };
            let outcome = &mut outcomes[i];
            outcome.done_ns = Some(read_at);
            outcome.status = response.status;
            if response.status == 200 {
                match parse_verdict(&response.body) {
                    Some(v) if v.app.raw() == plan[i].app => {
                        outcome.model_version = v.model_version
                    }
                    _ => outcome.status = 0,
                }
            }
        }
        inbuf.drain(..used);
        if closed {
            break;
        }

        let sending_done = stopped_at.is_some() || next == plan.len();
        if sending_done && waiting.is_empty() {
            break;
        }
        if let Some(last) = last_send_ns {
            if ns_since(t0).saturating_sub(last) > DRAIN.as_nanos() as u64 {
                break;
            }
        }

        // sleep until the next request is due, or one slice while
        // responses are outstanding
        let now = ns_since(t0);
        let until_due = (next < plan.len() && stopped_at.is_none())
            .then(|| Duration::from_nanos(plan[next].due_ns.saturating_sub(now)));
        let nap = if waiting.is_empty() && written == out.len() {
            until_due.unwrap_or(POLL)
        } else {
            until_due.map_or(POLL, |d| d.min(POLL))
        };
        if !nap.is_zero() {
            std::thread::sleep(nap);
        }
    }

    // steps that ran but ended after the loop finished
    let now = ns_since(t0);
    for (i, slot) in backlog_at_end_ns.iter_mut().enumerate().skip(step_cursor) {
        if stopped_at.is_none_or(|s| i <= s) {
            *slot = Some(backlog(&waiting, plan, now));
        }
    }
    Ok(OpenLoopReport {
        outcomes,
        backlog_at_end_ns,
        stopped_at,
        enqueued: next,
    })
}

/// Age of the oldest unanswered request at `now`, 0 when none waits.
fn backlog(waiting: &VecDeque<usize>, plan: &[Planned], now: u64) -> u64 {
    waiting
        .front()
        .map_or(0, |&i| now.saturating_sub(plan[i].due_ns))
}

/// What thread B saw for one ingest post.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct PostOutcome {
    /// When it was due, ns after the window opened.
    pub due_ns: u64,
    /// When its response was read (`None`: no response).
    pub done_ns: Option<u64>,
    /// Response status (0 when there was none).
    pub status: u16,
    /// `ingested` count of a 202 answer.
    pub ingested: Option<usize>,
}

/// Posts each pre-rendered NDJSON batch at its due time over one
/// keep-alive connection, timing each from its due time.
pub fn paced_posts(
    addr: SocketAddr,
    bodies: &[String],
    due_ns: &[u64],
    t0: Instant,
) -> io::Result<Vec<PostOutcome>> {
    let mut client = BlockingClient::connect(addr)?;
    let mut outcomes = Vec::with_capacity(bodies.len());
    for (body, &due) in bodies.iter().zip(due_ns) {
        let now = ns_since(t0);
        if due > now {
            std::thread::sleep(Duration::from_nanos(due - now));
        }
        let outcome = match client.send(ingest_request(body).as_bytes()) {
            Ok(response) => PostOutcome {
                due_ns: due,
                done_ns: Some(ns_since(t0)),
                status: response.status,
                ingested: ingested_count(&response.body),
            },
            Err(_) => PostOutcome {
                due_ns: due,
                done_ns: None,
                status: 0,
                ingested: None,
            },
        };
        outcomes.push(outcome);
        if outcome.status == 0 {
            break; // the connection is gone; the rest count as failed
        }
    }
    Ok(outcomes)
}

fn ingested_count(body: &[u8]) -> Option<usize> {
    let text = std::str::from_utf8(body).ok()?;
    let value: serde_json::Value = serde_json::from_str(text).ok()?;
    value
        .get_field("ingested")
        .and_then(serde_json::Value::as_u64)
        .map(|n| n as usize)
}
