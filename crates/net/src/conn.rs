//! Per-connection state: socket, parser, outbound buffer, edge-trigger
//! memos, and the request phase.
//!
//! A connection is a small state machine the event loop drives:
//!
//! ```text
//!            bytes in           complete request        verdict ready
//!   readable ────────► parser ──────────────────► Scoring ──────────►
//!      ▲                  │  (immediate routes)      │        response
//!      │                  └──────────────────────────┴──────► out buf
//!      └── paused while the scorer queue is saturated          │
//!                                                    writable ─┴─► socket
//! ```
//!
//! The `readable`/`writable` fields are the edge-trigger memos the
//! reactor module's docs demand: `EPOLLET` reports a readiness
//! *transition* once, so the loop records it here and keeps acting until
//! `WouldBlock` clears the memo. Pausing a read under backpressure is
//! then free — the memo stays set, and the loop simply returns to the
//! socket once the scorer queue drains.

use std::io::{self, Read as _, Write as _};
use std::net::TcpStream;
use std::time::Instant;

use frappe_obs::{Span, TraceHandle};
use frappe_serve::PendingVerdict;

use crate::http::{Limits, RequestParser};

/// Where the connection is in its request cycle.
pub(crate) enum Phase {
    /// No request in flight; the parser may produce the next one.
    Idle,
    /// A classify request is queued on the scorer pool; the loop polls
    /// the handle each tick. `keep_alive` is the parsed request's.
    Scoring {
        /// The pollable verdict handle (boxed: it carries span guards,
        /// and an idle connection should not pay for them).
        pending: Box<PendingVerdict>,
        /// Whether to keep the connection after answering.
        keep_alive: bool,
        /// When the request finished parsing (feeds the latency histogram).
        started: Instant,
        /// The request's trace (handle + open `edge/request` root guard);
        /// handed back to the loop with the verdict so the response write
        /// is traced too.
        trace: Option<(TraceHandle, Span)>,
    },
}

/// A response whose bytes are enqueued but not yet flushed, with the
/// trace waiting on that flush. `target` is the connection's cumulative
/// enqueued-byte watermark at which this response is fully on the wire —
/// the trace finishes when `flushed_total` reaches it, closing the
/// still-open `edge/request` and `edge/write` spans whose guards ride
/// here.
pub(crate) struct PendingWrite {
    pub(crate) handle: TraceHandle,
    pub(crate) _root: Span,
    pub(crate) _write: Span,
    pub(crate) outcome: String,
    pub(crate) target: u64,
}

/// One accepted connection.
pub(crate) struct Conn {
    pub(crate) stream: TcpStream,
    pub(crate) parser: RequestParser,
    /// Rendered responses not yet written to the socket.
    pub(crate) out: Vec<u8>,
    /// How much of `out` is already written.
    pub(crate) out_pos: usize,
    /// Edge-trigger memo: the socket may have unread bytes.
    pub(crate) readable: bool,
    /// Edge-trigger memo: the socket can accept writes.
    pub(crate) writable: bool,
    /// Reads deferred while the scorer queue is saturated.
    pub(crate) paused: bool,
    /// Close once `out` is flushed.
    pub(crate) closing: bool,
    pub(crate) phase: Phase,
    /// When the socket was accepted — the first traced request records
    /// the accept→parse gap as a retroactive `edge/accept` span.
    pub(crate) accepted_at: Instant,
    /// Whether the accept span has been recorded (once per connection).
    pub(crate) accept_traced: bool,
    /// Cumulative bytes ever enqueued into `out`.
    pub(crate) enqueued_total: u64,
    /// Cumulative bytes ever flushed to the socket.
    pub(crate) flushed_total: u64,
    /// Traces waiting for their response bytes to hit the wire, in
    /// enqueue order (watermarks are monotone).
    pub(crate) write_traces: Vec<PendingWrite>,
}

/// What a socket-facing step did.
pub(crate) enum IoStep {
    /// Made progress (possibly zero bytes) and the connection lives on.
    Progress(usize),
    /// Peer closed or the socket errored: drop the connection.
    Gone,
}

impl Conn {
    pub(crate) fn new(stream: TcpStream) -> Conn {
        Conn {
            stream,
            parser: RequestParser::new(Limits::default()),
            out: Vec::new(),
            out_pos: 0,
            // A fresh socket is writable until proven otherwise, and
            // registering with EPOLLET reports no initial edge for it.
            readable: false,
            writable: true,
            paused: false,
            closing: false,
            phase: Phase::Idle,
            accepted_at: Instant::now(),
            accept_traced: false,
            enqueued_total: 0,
            flushed_total: 0,
            write_traces: Vec::new(),
        }
    }

    /// Finishes every trace whose response bytes are now fully flushed
    /// (the write span ends at the moment the last byte left the
    /// buffer). Call after each successful flush.
    pub(crate) fn complete_flushed_writes(&mut self) {
        while self
            .write_traces
            .first()
            .is_some_and(|w| w.target <= self.flushed_total)
        {
            let w = self.write_traces.remove(0);
            w.handle.finish(&w.outcome);
        }
    }

    /// Finishes every still-pending write trace as `aborted` — the peer
    /// vanished (or the loop is shutting down) before the response made
    /// it out.
    pub(crate) fn abort_write_traces(&mut self) {
        for w in self.write_traces.drain(..) {
            w.handle.finish("aborted");
        }
    }

    /// A response (or several) is waiting to be flushed.
    pub(crate) fn has_pending_output(&self) -> bool {
        self.out_pos < self.out.len()
    }

    /// A request is being scored right now.
    pub(crate) fn in_flight(&self) -> bool {
        matches!(self.phase, Phase::Scoring { .. })
    }

    /// Drained for the purposes of the edge's drain protocol: nothing in
    /// flight and nothing left to flush.
    pub(crate) fn is_quiesced(&self) -> bool {
        !self.in_flight() && !self.has_pending_output()
    }

    /// Reads until `WouldBlock` (re-arming the edge), pushing bytes into
    /// the parser. Returns the byte count, or [`IoStep::Gone`] on EOF or
    /// a hard error.
    pub(crate) fn fill(&mut self) -> IoStep {
        let mut total = 0usize;
        let mut chunk = [0u8; 16 * 1024];
        loop {
            match self.stream.read(&mut chunk) {
                Ok(0) => return IoStep::Gone,
                Ok(n) => {
                    self.parser.push(&chunk[..n]);
                    total += n;
                }
                Err(e) if e.kind() == io::ErrorKind::WouldBlock => {
                    self.readable = false;
                    return IoStep::Progress(total);
                }
                Err(e) if e.kind() == io::ErrorKind::Interrupted => continue,
                Err(_) => return IoStep::Gone,
            }
        }
    }

    /// Writes buffered output until done or `WouldBlock` (re-arming the
    /// edge). Returns bytes written, or [`IoStep::Gone`] on a hard error.
    pub(crate) fn flush_out(&mut self) -> IoStep {
        let mut total = 0usize;
        while self.out_pos < self.out.len() {
            match self.stream.write(&self.out[self.out_pos..]) {
                Ok(0) => return IoStep::Gone,
                Ok(n) => {
                    self.out_pos += n;
                    total += n;
                }
                Err(e) if e.kind() == io::ErrorKind::WouldBlock => {
                    self.writable = false;
                    return IoStep::Progress(total);
                }
                Err(e) if e.kind() == io::ErrorKind::Interrupted => continue,
                Err(_) => return IoStep::Gone,
            }
        }
        // fully flushed — reclaim the buffer
        self.out.clear();
        self.out_pos = 0;
        IoStep::Progress(total)
    }
}
