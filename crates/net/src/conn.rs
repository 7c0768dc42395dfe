//! One connection's thread: it reads into the parser and serves each
//! complete request in order, scoring its own classifies.
//!
//! ```text
//!   read ──► parser ──► drain gate ──► route ──► respond ──┐
//!    ▲                                (a classify is        │
//!    │                                 scored right here)   │
//!    └──── next buffered request (after a 429: once the     │
//!          in-flight counts recover) ◄──────────────────────┘
//! ```

use std::io::{self, Read as _};
use std::net::TcpStream;
use std::time::Instant;

use crate::http::{HttpError, Limits, RequestParser, Response};
use crate::server::Edge;

/// Serves one accepted connection until the peer leaves, a response
/// closes it, or the edge shuts down; then releases its registration.
pub(crate) fn serve(edge: &Edge, mut stream: TcpStream, id: u64) {
    serve_requests(edge, &mut stream);
    edge.deregister(id);
}

fn serve_requests(edge: &Edge, stream: &mut TcpStream) {
    let mut parser = RequestParser::new(Limits::default());
    // the first traced request records the accept→parse gap as a
    // retroactive `edge/accept` span
    let mut accepted_at = Some(Instant::now());
    let mut chunk = [0u8; 16 * 1024];
    loop {
        let Some(parsed) = parser.next_request().transpose() else {
            match stream.read(&mut chunk) {
                // EOF: every complete request is already answered
                Ok(0) => return,
                Ok(n) => {
                    edge.metrics.bytes_read.add(n as u64);
                    parser.push(&chunk[..n]);
                }
                Err(e) if e.kind() == io::ErrorKind::Interrupted => {}
                Err(_) => return,
            }
            continue;
        };
        let Some(in_flight) = edge.admit() else {
            return;
        };
        edge.metrics.requests.inc();
        let request = match parsed {
            Ok(request) => request,
            Err(err) => {
                // framing is broken — answer and close
                edge.respond(stream, &parse_error_response(err), None, None);
                return;
            }
        };
        let started = Instant::now();
        let trace = edge.begin_request_trace(&mut accepted_at, &request);
        let (mut response, pause) = edge.route(&request, trace.as_ref());
        if pause.is_some() {
            // booked before the write, so a client holding the 429
            // already sees the stall in `/metrics`
            edge.metrics.read_stalls.inc();
        }
        if !request.keep_alive {
            response.close = true;
        }
        if !edge.respond(stream, &response, Some(started), trace) || response.close {
            return;
        }
        drop(in_flight);
        // ring 2: this client just got a 429 — stop reading it until the
        // in-flight counts recover
        if let Some(hint) = pause {
            if !edge.pause_reads(hint) {
                return;
            }
        }
    }
}

/// The answer to a request the parser refused; it closes the connection.
fn parse_error_response(err: HttpError) -> Response {
    let (status, _) = err.status();
    let body = format!(
        "{{\"error\":{}}}",
        serde_json::to_string(err.detail()).expect("strings serialize")
    );
    let mut response = Response::json(status, body.into_bytes());
    response.close = true;
    response
}
