//! Holds a classify in flight, for tests of the in-flight cap: an
//! observer on the deployment parks the classify inside the scorer, so
//! its slot stays taken until the test releases it.

use std::sync::{mpsc, Arc, Mutex};
use std::thread::JoinHandle;
use std::time::Duration;

use frappe::{AppFeatures, VersionedModel};
use frappe_serve::{Deployment, ServeError, Verdict, VerdictObserver};
use osn_types::ids::AppId;

/// Parks each observed query of an app in `group` until the gate's
/// sender is dropped.
struct Parker {
    deployment: Deployment,
    group: usize,
    parked: mpsc::Sender<()>,
    gate: Mutex<mpsc::Receiver<()>>,
}

impl VerdictObserver for Parker {
    fn observe(&self, _: &AppFeatures, verdict: &Verdict, _: &VersionedModel, _: bool) {
        if self.deployment.group_of(verdict.app) == self.group {
            let _ = self.parked.send(());
            // returns once the release sender is dropped
            let _ = self.gate.lock().unwrap().recv();
        }
    }
}

/// One in-process classify, parked in flight on a thread of its own.
pub struct Held {
    deployment: Deployment,
    release: mpsc::Sender<()>,
    thread: JoinHandle<Result<Verdict, ServeError>>,
}

impl Held {
    /// Classifies `app` on a new thread and returns once that classify
    /// is parked in the scorer, holding its in-flight slot in the group
    /// that owns `app`.
    pub fn classify(deployment: impl Into<Deployment>, app: AppId) -> Held {
        let deployment = deployment.into();
        let (parked, parked_rx) = mpsc::channel();
        let (release, gate) = mpsc::channel();
        deployment.set_observer(Some(Arc::new(Parker {
            deployment: deployment.clone(),
            group: deployment.group_of(app),
            parked,
            gate: Mutex::new(gate),
        })));
        let thread = std::thread::spawn({
            let deployment = deployment.clone();
            move || deployment.classify_traced(app, None)
        });
        parked_rx
            .recv_timeout(Duration::from_secs(10))
            .expect("the held classify reaches the scorer");
        Held {
            deployment,
            release,
            thread,
        }
    }

    /// Lets every parked classify through, detaches the observer and
    /// returns the held classify's outcome.
    pub fn release(self) -> Result<Verdict, ServeError> {
        drop(self.release);
        let outcome = self.thread.join().expect("held classify thread");
        self.deployment.set_observer(None);
        outcome
    }
}
