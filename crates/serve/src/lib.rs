//! # frappe-serve — FRAppE as an always-on service
//!
//! The paper closes by arguing FRAppE should run "as a service to which
//! one can query any app ID" (§8). The batch pipeline in [`frappe`]
//! answers that question after the fact, over a finished trace; this
//! crate answers it **while the trace is happening**: it subscribes to
//! the platform event stream, folds every observation into per-app
//! running aggregates, and classifies any app on demand with a
//! pre-trained [`frappe::FrappeModel`].
//!
//! ```text
//!  platform tap ──► ServeEvent ──► FeatureStore (N shards, RwLock)
//!  scenario replay ─┘                   │ snapshot
//!                                       ▼
//!  classify(app) ─► in-flight cap ─► score ─────► VerdictCache
//!                      │ full?     (caller's thread)  │ (generation-
//!                      ▼                  │           │  stamped)
//!                  Overloaded             ▼           │
//!                  {retry_after}       Verdict ◄──────┘
//! ```
//!
//! The load-bearing invariant is **batch parity**: after ingesting a
//! world's event stream, every feature snapshot is bit-for-bit equal to
//! what the offline extractors compute from the same world, so online
//! verdicts coincide with `FrappeModel::predict` exactly
//! (`tests/serve_parity.rs`). Incrementality buys speed, never drift.
//!
//! Module map: [`event`] is the input vocabulary, [`store`] the sharded
//! incremental feature state, [`cache`] the generation-stamped verdict
//! memo, [`metrics`] the observability layer (a thin view over a
//! per-instance [`frappe_obs::Registry`], exportable as Prometheus
//! text), [`service`] the façade (classify on the caller's thread behind
//! an in-flight cap with reject-with-retry-after backpressure), and
//! [`bridge`] the adapter from synthetic scenarios.
//!
//! ## One observation point
//!
//! The scorer is the only place a verdict is produced, for a single
//! service and for every shard group, so it is also the only place one
//! is observed. A [`VerdictObserver`] attached to the deployment's
//! control plane ([`Deployment::set_observer`]) sees **every answered
//! query**, whichever transport asked: in-process `classify`, the socket
//! edge, a router group. A fresh score hands over the exact row it just
//! scored; a cache hit hands over the row re-read from the store, only
//! while it still carries the stamps the hit matched. Observation runs
//! on the caller's thread and finishes before `classify` returns. With
//! nothing attached, the cost per query is one atomic load. The
//! lifecycle layer (`frappe-lifecycle`) attaches its drift window,
//! shadow tally and audit sink here.
//!
//! Each deployment owns one [`ControlPlane`] holding the
//! [`frappe::SharedModel`] epoch-pointer it scores through;
//! [`ControlPlane::swap_model`] is the only install path, so a lifecycle
//! layer (`frappe-lifecycle`) hot-swaps models through
//! [`Deployment::swap_model`]. Every verdict is stamped with the model
//! version that produced it, and the cache's model-epoch stamp
//! guarantees no swap ever serves a stale verdict.
//!
//! ## Scale-out: shard groups
//!
//! One service saturates around its store locks and one in-flight cap.
//! For scale-out, [`router::ShardRouter`] partitions the app-id space
//! across K **shard groups** — each a complete private service (store,
//! cache, in-flight cap, registry) fed through a bounded per-group
//! mailbox — while [`control::ControlPlane`] keeps the mutable control
//! state (model epoch pointer, known-names generation) shared by
//! construction, so hot swaps stay globally atomic. The network edge and
//! the lifecycle layer hold either shape through one closed handle,
//! [`Deployment`], whose match arms are the only place the two shapes
//! differ.

#![forbid(unsafe_code)]
#![warn(missing_docs)]

pub mod bridge;
pub mod cache;
pub mod control;
pub mod deployment;
pub mod event;
pub(crate) mod group;
pub mod metrics;
pub mod router;
pub mod service;
pub mod store;

pub use bridge::{serve_events, service_from_world};
pub use cache::CacheLookup;
pub use control::{ControlPlane, ControlStamp, VerdictObserver};
pub use deployment::Deployment;
pub use event::ServeEvent;
pub use metrics::{LatencySnapshot, MetricsSnapshot};
pub use router::{ShardConfig, ShardRouter};
pub use service::{ErrorEnvelope, FrappeService, ServeConfig, ServeError, Verdict};
pub use store::{FeatureSnapshot, FeatureStore};
