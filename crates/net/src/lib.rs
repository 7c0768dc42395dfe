//! # frappe-net — the from-scratch network edge over FRAppE-as-a-service
//!
//! The paper's closing proposal is FRAppE "as a service to which one can
//! query any app ID" (§8). [`frappe_serve`] provides the in-process
//! service; this crate puts a socket in front of it — built from raw
//! parts, no async runtime, in keeping with the workspace's vendored-only
//! discipline:
//!
//! * [`sys`] — one of the workspace's two unsafe surfaces (the other is
//!   the AVX2 scoring engine in `svm::simd`): a thin FFI wrapper
//!   over `epoll` and `eventfd` (std already links libc, so the five
//!   calls are declared directly against the C ABI). Descriptors live in
//!   `OwnedFd`, errors become `io::Error`, and no unsafety escapes.
//! * [`reactor`] — edge-triggered readiness multiplexing with a
//!   cross-thread [`reactor::Waker`]; connections keep readiness *memos*
//!   so backpressure can defer work without losing kernel edges.
//! * [`http`] — an incremental HTTP/1.1 parser (request line, headers,
//!   `Content-Length` bodies, keep-alive, pipelining) with hard byte
//!   limits, plus the response writer.
//! * [`server`] — the single-threaded event loop: nonblocking accept
//!   with a bounded-connection gate, per-connection state machines that
//!   ride the scorer pool via [`frappe_serve::PendingVerdict`] (the loop
//!   never parks on a verdict), 429-triggered read pauses with
//!   hysteresis, and a drain protocol whose [`server::EdgeHandle`]
//!   implements [`frappe_lifecycle::SwapFence`] so model hot-swaps run
//!   with zero responses in flight. It serves a
//!   [`frappe_serve::Deployment`]: one service or a shard-group router.
//! * [`client`] — the blocking keep-alive client the tests use to talk
//!   to the edge.
//!
//! Wire contract: verdicts are [`frappe_serve::Verdict`] JSON; every
//! error is the [`frappe_serve::ErrorEnvelope`], whose exact bytes are
//! pinned by a `frappe-serve` unit test. `tests/edge.rs` (repo root)
//! drives real sockets end to end: byte-identical verdicts against
//! in-process classification, deterministic 429s off a saturated scorer
//! queue, and a mid-load hot-swap with zero dropped or stale responses.
//!
//! ```no_run
//! use std::sync::Arc;
//! use frappe_net::{NetConfig, Server};
//! # fn service() -> frappe_serve::FrappeService { unimplemented!() }
//!
//! let service = Arc::new(service());
//! let server = Server::bind(service, "127.0.0.1:0", NetConfig::default())?;
//! println!("edge at http://{}", server.local_addr());
//! // curl http://$ADDR/healthz ; curl http://$ADDR/v1/classify/app:7
//! # Ok::<(), std::io::Error>(())
//! ```

#![deny(unsafe_code)]
#![warn(missing_docs)]

#[allow(unsafe_code)]
pub mod sys;

pub mod client;
mod conn;
pub mod http;
pub mod reactor;
pub mod server;

pub use server::{EdgeHandle, NetConfig, Server};
