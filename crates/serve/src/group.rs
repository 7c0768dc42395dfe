//! One shard group: a partition-owning serving worker.
//!
//! A [`ShardGroup`] owns a complete, private serving stack for its slice
//! of the app-id space — its own [`crate::store::FeatureStore`] shards,
//! its own [`crate::cache::VerdictCache`], its own in-flight cap, its
//! own metrics registry. Nothing in a group is shared with any other
//! group except the [`crate::control::ControlPlane`] handles (model
//! pointer + known names), so a group never contends on another group's
//! locks: shared-nothing by construction. Classifies run on the
//! router's callers' threads; the group's one thread is its ingest
//! worker, the only writer of its store.
//!
//! **Ingest** goes through a bounded single-consumer mailbox: the router
//! `try_send`s events, one dedicated worker thread drains them into the
//! group's store. A full mailbox rejects with
//! [`ServeError::Overloaded`] carrying the group's retry hint — the same
//! reject-with-retry-after contract the in-flight cap has, so
//! backpressure composes instead of stacking a second policy on top.
//! Per-app event order is preserved end to end: an app has exactly one
//! owner group, the mailbox is FIFO, and one consumer applies events in
//! arrival order.
//!
//! [`ShardGroup::flush`] is the quiesce barrier: it enqueues a marker
//! and waits until the worker answers it, at which point every event
//! sent *before* the flush has been applied. The router flushes all
//! groups before parity-sensitive reads and before a fenced swap
//! measurement begins.

use std::sync::Arc;
use std::thread::JoinHandle;

use crossbeam::channel::{bounded, Sender, TrySendError};

use crate::event::ServeEvent;
use crate::service::{FrappeService, ServeError};

/// Mailbox protocol between the router and a group's ingest worker.
enum GroupMsg {
    /// Apply one event to the group's feature store.
    Event(ServeEvent),
    /// Barrier: acknowledge once everything queued before it is applied.
    Flush(Sender<()>),
}

/// A thread-isolated worker owning one partition of the app-id space.
pub(crate) struct ShardGroup {
    service: Arc<FrappeService>,
    mailbox: Option<Sender<GroupMsg>>,
    worker: Option<JoinHandle<()>>,
    retry_after_ms: u64,
}

impl ShardGroup {
    /// Spawns the group's ingest worker around a ready-built service.
    /// `index` names the worker thread (`frappe-group-<index>`).
    pub(crate) fn new(index: usize, service: FrappeService, mailbox_capacity: usize) -> Self {
        assert!(mailbox_capacity > 0, "a group needs a non-empty mailbox");
        let retry_after_ms = service.config().retry_after_ms;
        let service = Arc::new(service);
        let (tx, rx) = bounded::<GroupMsg>(mailbox_capacity);
        let worker = {
            let service = Arc::clone(&service);
            std::thread::Builder::new()
                .name(format!("frappe-group-{index}"))
                .spawn(move || {
                    while let Ok(msg) = rx.recv() {
                        match msg {
                            GroupMsg::Event(event) => service.ingest(&event),
                            GroupMsg::Flush(ack) => {
                                // The sender may have given up waiting;
                                // a dead ack channel is not our problem.
                                let _ = ack.send(());
                            }
                        }
                    }
                })
                .expect("spawn shard-group ingest worker")
        };
        ShardGroup {
            service,
            mailbox: Some(tx),
            worker: Some(worker),
            retry_after_ms,
        }
    }

    /// The group's private serving stack.
    pub(crate) fn service(&self) -> &Arc<FrappeService> {
        &self.service
    }

    /// Forwards one event into the group's mailbox without blocking.
    /// A full mailbox sheds with the group's retry hint.
    pub(crate) fn ingest(&self, event: &ServeEvent) -> Result<(), ServeError> {
        let mailbox = self.mailbox.as_ref().ok_or(ServeError::ShuttingDown)?;
        match mailbox.try_send(GroupMsg::Event(event.clone())) {
            Ok(()) => Ok(()),
            Err(TrySendError::Full(_)) => Err(ServeError::Overloaded {
                retry_after_ms: self.retry_after_ms,
            }),
            Err(TrySendError::Disconnected(_)) => Err(ServeError::ShuttingDown),
        }
    }

    /// Events waiting in the mailbox (not yet applied to the store).
    pub(crate) fn mailbox_depth(&self) -> usize {
        self.mailbox.as_ref().map_or(0, Sender::len)
    }

    /// Blocks until every event enqueued before this call is applied.
    ///
    /// Unlike [`ingest`](Self::ingest) this *waits* for mailbox space —
    /// a barrier that sheds would be no barrier at all.
    pub(crate) fn flush(&self) {
        let Some(mailbox) = self.mailbox.as_ref() else {
            return;
        };
        let (ack_tx, ack_rx) = bounded(1);
        if mailbox.send(GroupMsg::Flush(ack_tx)).is_ok() {
            let _ = ack_rx.recv();
        }
    }
}

impl Drop for ShardGroup {
    /// Closes the mailbox (the worker drains what is queued, then exits)
    /// and joins the worker, so no event accepted before shutdown is
    /// silently dropped.
    fn drop(&mut self) {
        drop(self.mailbox.take());
        if let Some(worker) = self.worker.take() {
            let _ = worker.join();
        }
    }
}
