//! The remote task runner: dispatches build tasks to a `marshal serve
//! --exec` daemon over the MNET EXEC protocol.
//!
//! A [`RemoteRunner`] wraps one [`RemoteStore`] client (so it inherits the
//! retry/backoff/circuit-breaker policy the fetch path already has) and
//! plugs into the depgraph scheduler as a [`TaskRunner`]. The failure
//! philosophy matches fetching: a remote can *accelerate* a build but
//! never break one. Any remote problem — refused exec, dead transport,
//! failed artifact fetch — makes the runner execute the task locally,
//! report its terminal event, and then retire itself with `RunnerLost` so
//! the scheduler routes the rest of the build elsewhere. A task is never
//! orphaned: the terminal event always precedes the retirement.

use std::sync::Arc;
use std::thread::JoinHandle;

use marshal_depgraph::{run_and_report, Assignment, EventSender, Task, TaskRunner};
use marshal_trace::Recorder;

use crate::client::RemoteStore;

/// Pulls a finished task's artifacts from the remote into the local
/// workdir (manifest plus missing blobs) after the daemon reports success.
/// Returning an error makes the runner fall back to executing locally —
/// a remote build whose artifacts cannot be fetched is worthless.
pub type FetchHook = Arc<dyn Fn(&Task) -> Result<(), String> + Send + Sync>;

/// A [`TaskRunner`] that executes tasks on a `marshal serve --exec`
/// daemon. One slot: the daemon serializes builds anyway, and one
/// in-flight task bounds the damage when the remote dies mid-build.
///
/// Only tasks carrying a serialized description
/// ([`Task::remote_payload`]) are eligible; the scheduler offers the rest
/// to other runners.
pub struct RemoteRunner {
    store: Arc<RemoteStore>,
    fetch: FetchHook,
    recorder: Recorder,
    label: String,
    handles: Vec<JoinHandle<()>>,
}

impl std::fmt::Debug for RemoteRunner {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        f.debug_struct("RemoteRunner")
            .field("label", &self.label)
            .finish_non_exhaustive()
    }
}

impl RemoteRunner {
    /// Creates a runner over an established client. `fetch` runs after
    /// every successful remote exec to localize the artifacts.
    pub fn new(store: Arc<RemoteStore>, fetch: FetchHook) -> RemoteRunner {
        let label = format!("remote:{}", store.label());
        RemoteRunner {
            store,
            fetch,
            recorder: Recorder::disabled(),
            label,
            handles: Vec::new(),
        }
    }
}

impl TaskRunner for RemoteRunner {
    fn label(&self) -> String {
        self.label.clone()
    }

    fn slots(&self) -> usize {
        1
    }

    fn can_run(&self, task: &Task) -> bool {
        task.remote_payload().is_some()
    }

    fn set_recorder(&mut self, recorder: Recorder) {
        self.recorder = recorder;
    }

    fn submit(&mut self, assignment: Assignment, events: &EventSender) {
        let store = Arc::clone(&self.store);
        let fetch = Arc::clone(&self.fetch);
        let rec = self.recorder.clone();
        let label = self.label.clone();
        let events = events.clone();
        self.handles.push(std::thread::spawn(move || {
            let span = assignment.start(&events, &rec, &label);
            let task = assignment.task;
            let id = task.id().to_owned();
            let remote_result = if store.degraded() {
                Err(format!("remote {}: circuit breaker open", store.label()))
            } else {
                let spec = task.remote_payload().expect("can_run admitted this task");
                store.exec_task(&id, spec).and_then(|()| {
                    // The fetch hook writes the task's declared outputs, so
                    // it runs under the task's write claims like the action
                    // itself would.
                    marshal_depgraph::with_claims(&task, || (fetch)(&task))
                        .map_err(|e| format!("fetching remote artifacts for `{id}`: {e}"))
                })
            };
            match remote_result {
                Ok(()) => {
                    // A remote hit is a cache hit: the fetched artifacts are
                    // bit-identical to what a local build would produce.
                    span.end_with(&[("outcome", "executed"), ("remote", "hit")]);
                    events.finished(&id);
                }
                Err(reason) => {
                    store.note(format!(
                        "remote {}: `{id}` fell back to local execution ({reason})",
                        store.label()
                    ));
                    let executed = [("outcome", "executed"), ("remote", "fallback")];
                    run_and_report(&task, span, &events, &executed);
                    // Terminal event first, then retirement: the scheduler
                    // settles the task before it stops offering work here,
                    // so nothing is orphaned and nothing hangs.
                    events.runner_lost(reason);
                }
            }
        }));
    }

    fn shutdown(&mut self) {
        for h in self.handles.drain(..) {
            let _ = h.join();
        }
    }
}

impl Drop for RemoteRunner {
    fn drop(&mut self) {
        self.shutdown();
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::client::RetryPolicy;
    use crate::server::{ExecHandler, ServeRoot};
    use crate::transport::LoopbackTransport;
    use marshal_depgraph::{ExecEvent, ExecOptions, Graph, Plan, StateDb};
    use marshal_qcheck::scratch_dir;
    use std::sync::atomic::{AtomicUsize, Ordering};
    use std::sync::{mpsc, Mutex};

    fn loopback_store(dir: &std::path::Path, handler: Option<ExecHandler>) -> Arc<RemoteStore> {
        let mut root = ServeRoot::new(dir);
        if let Some(h) = handler {
            root.set_exec_handler(h);
        }
        let root = Arc::new(root);
        Arc::new(RemoteStore::with_factory(
            "loopback",
            Box::new(move || Ok(Box::new(LoopbackTransport::new(Arc::clone(&root))) as _)),
            RetryPolicy::fast(),
        ))
    }

    fn no_fetch() -> FetchHook {
        Arc::new(|_task: &Task| Ok(()))
    }

    #[test]
    fn remote_runner_executes_via_daemon_not_locally() {
        let dir = scratch_dir("hit");
        let seen: Arc<Mutex<Vec<String>>> = Arc::new(Mutex::new(Vec::new()));
        let seen2 = Arc::clone(&seen);
        let handler: ExecHandler = Arc::new(move |task, spec| {
            seen2
                .lock()
                .unwrap()
                .push(format!("{task}:{}", String::from_utf8_lossy(spec)));
            Ok(())
        });
        let store = loopback_store(&dir, Some(handler));
        let ran_locally = Arc::new(AtomicUsize::new(0));
        let r = Arc::clone(&ran_locally);
        let task = Task::new("lv", move || {
            r.fetch_add(1, Ordering::SeqCst);
            Ok(())
        })
        .remote_spec(b"spec-bytes".to_vec());

        let mut runner = RemoteRunner::new(store, no_fetch());
        assert!(runner.can_run(&task));
        let (tx, rx) = mpsc::channel();
        let events = EventSender::new(0, tx);
        runner.submit(
            Assignment {
                task,
                claim_wait_us: 0,
            },
            &events,
        );
        assert!(matches!(rx.recv().unwrap(), ExecEvent::Started { .. }));
        assert!(matches!(
            rx.recv().unwrap(),
            ExecEvent::Finished { ref task, .. } if task == "lv"
        ));
        runner.shutdown();
        assert_eq!(
            ran_locally.load(Ordering::SeqCst),
            0,
            "must not run locally"
        );
        assert_eq!(seen.lock().unwrap().as_slice(), ["lv:spec-bytes"]);
        std::fs::remove_dir_all(dir).unwrap();
    }

    #[test]
    fn remote_failure_falls_back_locally_then_retires() {
        let dir = scratch_dir("fallback");
        let handler: ExecHandler = Arc::new(|_task, _spec| Err("disk full".to_owned()));
        let store = loopback_store(&dir, Some(handler));
        let ran_locally = Arc::new(AtomicUsize::new(0));
        let r = Arc::clone(&ran_locally);
        let task = Task::new("lv", move || {
            r.fetch_add(1, Ordering::SeqCst);
            Ok(())
        })
        .remote_spec(b"s".to_vec());

        let mut runner = RemoteRunner::new(Arc::clone(&store), no_fetch());
        let (tx, rx) = mpsc::channel();
        runner.submit(
            Assignment {
                task,
                claim_wait_us: 0,
            },
            &EventSender::new(0, tx),
        );
        let events: Vec<ExecEvent> = rx.iter().take(3).collect();
        assert!(matches!(events[0], ExecEvent::Started { .. }));
        // Terminal event strictly precedes retirement.
        assert!(matches!(
            events[1],
            ExecEvent::Finished { ref task, .. } if task == "lv"
        ));
        assert!(matches!(
            events[2],
            ExecEvent::RunnerLost { ref reason, .. } if reason.contains("disk full")
        ));
        runner.shutdown();
        assert_eq!(ran_locally.load(Ordering::SeqCst), 1);
        let notes = store.take_notes();
        assert!(
            notes.iter().any(|n| n.contains("fell back to local")),
            "{notes:?}"
        );
        std::fs::remove_dir_all(dir).unwrap();
    }

    #[test]
    fn exec_against_daemon_without_handler_is_refused() {
        let dir = scratch_dir("no-exec");
        let store = loopback_store(&dir, None);
        let err = store.exec_task("lv", b"s").unwrap_err();
        assert!(err.contains("exec not enabled"), "{err}");
        std::fs::remove_dir_all(dir).unwrap();
    }

    #[test]
    fn tasks_without_spec_are_declined() {
        let dir = scratch_dir("decline");
        let store = loopback_store(&dir, None);
        let runner = RemoteRunner::new(store, no_fetch());
        assert!(!runner.can_run(&Task::new("plain", || Ok(()))));
        std::fs::remove_dir_all(dir).unwrap();
    }

    /// End-to-end through the scheduler: a failing remote retires after a
    /// local fallback, and the rest of the build lands on the surviving
    /// local runner — the build completes, never hangs.
    #[test]
    fn scheduler_survives_remote_runner_retirement() {
        let dir = scratch_dir("sched");
        let handler: ExecHandler = Arc::new(|_task, _spec| Err("remote broken".to_owned()));
        let store = loopback_store(&dir, Some(handler));
        let count = Arc::new(AtomicUsize::new(0));
        let mut g = Graph::new();
        for id in ["a", "b", "c"] {
            let c = Arc::clone(&count);
            g.add(
                Task::new(id, move || {
                    c.fetch_add(1, Ordering::SeqCst);
                    Ok(())
                })
                .remote_spec(format!("spec-{id}").into_bytes()),
            )
            .unwrap();
        }
        let mut db = StateDb::in_memory();
        let runners: Vec<Box<dyn TaskRunner>> = vec![
            Box::new(RemoteRunner::new(Arc::clone(&store), no_fetch())),
            Box::new(marshal_depgraph::LocalRunner::new(2)),
        ];
        let plan = Plan {
            roots: None,
            runners,
        };
        let report = g.execute(&mut db, plan, &ExecOptions::default()).unwrap();
        assert_eq!(report.executed, vec!["a", "b", "c"]);
        assert_eq!(count.load(Ordering::SeqCst), 3);
        assert!(!store.take_notes().is_empty());
        std::fs::remove_dir_all(dir).unwrap();
    }
}
