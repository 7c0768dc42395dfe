//! # frappe-net — the from-scratch network edge over FRAppE-as-a-service
//!
//! The paper's closing proposal is FRAppE "as a service to which one can
//! query any app ID" (§8). [`frappe_serve`] provides the in-process
//! service; this crate puts a socket in front of it — built from the
//! standard library's blocking sockets and threads, with no async runtime
//! and no `unsafe`, in keeping with the workspace's vendored-only
//! discipline:
//!
//! * [`http`] — an incremental HTTP/1.1 parser (request line, headers,
//!   `Content-Length` bodies, keep-alive, pipelining) with hard byte
//!   limits, plus the response writer.
//! * [`server`] — an accept thread with a bounded-connection gate, and
//!   one blocking thread per connection: it parses, routes, classifies
//!   on its own thread through the deployment, and writes the response.
//!   A 429 pauses that connection's reads until the in-flight counts
//!   recover, and a drain protocol whose
//!   [`server::EdgeHandle`] implements [`frappe_lifecycle::SwapFence`]
//!   lets model hot-swaps run with zero responses in flight. It serves a
//!   [`frappe_serve::Deployment`]: one service or a shard-group router.
//! * [`client`] — the blocking keep-alive client the tests use to talk
//!   to the edge.
//!
//! Wire contract: verdicts are [`frappe_serve::Verdict`] JSON; every
//! error is the [`frappe_serve::ErrorEnvelope`], whose exact bytes are
//! pinned by a `frappe-serve` unit test. `tests/edge.rs` (repo root)
//! drives real sockets end to end: byte-identical verdicts against
//! in-process classification, deterministic 429s off a full in-flight
//! cap, and a mid-load hot-swap with zero dropped or stale responses.
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

#![forbid(unsafe_code)]
#![warn(missing_docs)]

pub mod client;
mod conn;
pub mod http;
pub mod server;

pub use server::{EdgeHandle, NetConfig, Server, MAX_APP_NAME_BYTES};
