//! Task runners: the execution half of the event-driven executor.
//!
//! A [`TaskRunner`] consumes [`Assignment`]s from the scheduler and
//! reports [`crate::ExecEvent`]s back over the channel. The scheduler never
//! runs a task itself; it only decides *what* may run and *where*. Two
//! runners ship here — [`LocalRunner`] (a thread pool) and
//! [`DryRunRunner`] (a no-op plan recorder) — and `marshal-netstore`
//! provides a remote runner speaking the MNET EXEC protocol.

use std::panic::{catch_unwind, AssertUnwindSafe};
use std::path::PathBuf;
use std::sync::mpsc::{channel, Receiver, Sender};
use std::sync::{Arc, Mutex};
use std::thread::JoinHandle;

use marshal_trace::{Recorder, Span};

use crate::claims::ClaimScope;
use crate::events::EventSender;
use crate::task::Task;

/// One unit of work handed from the scheduler to a runner.
#[derive(Debug, Clone)]
pub struct Assignment {
    /// The task to execute (owned clone; actions are `Arc`-shared).
    pub task: Task,
    /// How long the task sat ready before a runner slot claimed it, for
    /// queue-wait attribution in the run journal.
    pub claim_wait_us: u64,
}

impl Assignment {
    /// Reports the task started and opens its `task` span on `recorder`,
    /// attributed to runner `label`. Call it on the thread that will end
    /// the span, so per-thread span nesting stays exact.
    pub fn start(&self, events: &EventSender, recorder: &Recorder, label: &str) -> Span {
        let id = self.task.id();
        events.started(id);
        let wait = self.claim_wait_us.to_string();
        let args = [("task", id), ("claim_wait_us", &wait), ("runner", label)];
        recorder.span("task", &args)
    }
}

/// An execution backend for build tasks.
///
/// Contract (see `docs/executor.md`):
/// - [`TaskRunner::submit`] must not block on task execution; it enqueues
///   the assignment and returns. Every submitted assignment must
///   eventually produce exactly one terminal event (`Finished`, `Failed`,
///   or `Panicked`) *or* be covered by a `RunnerLost` event, so the
///   scheduler never waits forever.
/// - The scheduler keeps at most [`TaskRunner::slots`] assignments in
///   flight on a runner, and only offers tasks for which
///   [`TaskRunner::can_run`] returned `true`.
/// - [`TaskRunner::shutdown`] is called once after the scheduler drains;
///   it must join any worker threads.
pub trait TaskRunner: Send {
    /// Human-readable runner name for journals and error messages.
    fn label(&self) -> String;

    /// How many assignments this runner executes concurrently.
    fn slots(&self) -> usize;

    /// Whether this runner can execute the given task. Runners that need
    /// a serialized task description (remote runners) decline tasks
    /// without one; the scheduler then offers the task elsewhere.
    fn can_run(&self, _task: &Task) -> bool {
        true
    }

    /// Whether this runner only estimates work instead of performing it.
    /// The scheduler refuses to mix dry-run and live runners, and skips
    /// all state-database writes when the whole pool is dry.
    fn is_dry_run(&self) -> bool {
        false
    }

    /// Installs the run-journal recorder. Called once before scheduling.
    fn set_recorder(&mut self, _recorder: Recorder) {}

    /// Accepts an assignment. Terminal events flow through `events`.
    fn submit(&mut self, assignment: Assignment, events: &EventSender);

    /// Stops accepting work and joins workers.
    fn shutdown(&mut self) {}
}

/// Runs a task's action, re-running on failure until the task's retry
/// budget is exhausted. Deterministic: a fixed attempt count, no clock.
/// The task's write claims are installed for the duration, so undeclared
/// writes trip the debug assertion in [`crate::claims::assert_claimed`].
///
/// This is the single action entry point every runner shares; remote
/// runners call it too when they fall back to executing locally.
///
/// # Errors
///
/// The action's final error message, suffixed with the attempt count when
/// the task had a retry budget.
pub fn run_task(task: &Task) -> Result<(), String> {
    let _claims = ClaimScope::enter(task);
    let budget = task.retry_budget();
    let mut attempt = 0;
    loop {
        match task.run() {
            Ok(()) => return Ok(()),
            Err(_) if attempt < budget => attempt += 1,
            Err(message) if budget > 0 => {
                return Err(format!("{message} (after {} attempts)", attempt + 1))
            }
            Err(message) => return Err(message),
        }
    }
}

/// Runs `task` with [`run_task`] on the calling thread, catching a panic,
/// then ends `span` with the outcome and sends the terminal event;
/// `executed` are the span's closing args when the task succeeds. The
/// worker body of [`LocalRunner`]; remote runners call it when they fall
/// back to executing locally.
pub fn run_and_report(task: &Task, span: Span, events: &EventSender, executed: &[(&str, &str)]) {
    let id = task.id();
    match catch_unwind(AssertUnwindSafe(|| run_task(task))) {
        Ok(Ok(())) => {
            span.end_with(executed);
            events.finished(id);
        }
        Ok(Err(message)) => {
            span.end_with(&[("outcome", "failed"), ("error", &message)]);
            events.failed(id, message);
        }
        Err(payload) => {
            let message = panic_message(payload);
            span.end_with(&[("outcome", "panicked"), ("error", &message)]);
            events.panicked(id, message);
        }
    }
}

/// Renders a panic payload for transport through the event channel.
fn panic_message(payload: Box<dyn std::any::Any + Send>) -> String {
    if let Some(s) = payload.downcast_ref::<&str>() {
        (*s).to_owned()
    } else if let Some(s) = payload.downcast_ref::<String>() {
        s.clone()
    } else {
        "task panicked".to_owned()
    }
}

struct LocalJob {
    assignment: Assignment,
    events: EventSender,
}

/// The default runner: a pool of `threads` worker threads executing task
/// actions in-process. Behind [`crate::Plan::local`] this replaces
/// the pre-event-channel Condvar pool; serial builds are simply a
/// one-thread pool, which is what gives serial and parallel runs identical
/// journal shapes (`task` spans with `claim_wait_us`, `busy_workers`
/// samples) at every `-j`.
pub struct LocalRunner {
    threads: usize,
    label: String,
    recorder: Recorder,
    tx: Option<Sender<LocalJob>>,
    shared_rx: Option<Arc<Mutex<Receiver<LocalJob>>>>,
    handles: Vec<JoinHandle<()>>,
}

impl std::fmt::Debug for LocalRunner {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        f.debug_struct("LocalRunner")
            .field("threads", &self.threads)
            .field("workers", &self.handles.len())
            .finish_non_exhaustive()
    }
}

impl LocalRunner {
    /// Creates a pool that executes up to `threads` tasks concurrently
    /// (`0` is clamped to `1`). Worker threads start lazily on the first
    /// [`TaskRunner::submit`], after the recorder is installed.
    pub fn new(threads: usize) -> LocalRunner {
        let threads = threads.max(1);
        LocalRunner {
            threads,
            label: format!("local:{threads}"),
            recorder: Recorder::disabled(),
            tx: None,
            shared_rx: None,
            handles: Vec::new(),
        }
    }

    /// The host's available parallelism (minimum 1): the pool width CLI
    /// front-ends use when the user passes no `-j`. This is the one place
    /// a worker-count default is decided; library callers pick their own
    /// width and get no parallelism they did not ask for.
    pub fn host_threads() -> usize {
        std::thread::available_parallelism()
            .map(|n| n.get())
            .unwrap_or(1)
    }

    fn ensure_workers(&mut self) {
        if self.tx.is_some() {
            return;
        }
        let (tx, rx) = channel::<LocalJob>();
        let rx = Arc::new(Mutex::new(rx));
        for _ in 0..self.threads {
            let rx = Arc::clone(&rx);
            let rec = self.recorder.clone();
            let label = self.label.clone();
            self.handles.push(std::thread::spawn(move || loop {
                // Hold the receiver lock only while claiming, never while
                // executing, so idle workers can claim concurrently.
                let job = { rx.lock().expect("runner queue poisoned").recv() };
                let Ok(LocalJob { assignment, events }) = job else {
                    return;
                };
                // The task span lives on the worker thread that runs the
                // action.
                let span = assignment.start(&events, &rec, &label);
                run_and_report(&assignment.task, span, &events, &[("outcome", "executed")]);
            }));
        }
        self.shared_rx = Some(rx);
        self.tx = Some(tx);
    }
}

impl TaskRunner for LocalRunner {
    fn label(&self) -> String {
        self.label.clone()
    }

    fn slots(&self) -> usize {
        self.threads
    }

    fn set_recorder(&mut self, recorder: Recorder) {
        self.recorder = recorder;
    }

    fn submit(&mut self, assignment: Assignment, events: &EventSender) {
        self.ensure_workers();
        let job = LocalJob {
            assignment,
            events: events.clone(),
        };
        if let Some(tx) = &self.tx {
            // The send only fails after shutdown, which the scheduler
            // never submits past.
            let _ = tx.send(job);
        }
    }

    fn shutdown(&mut self) {
        self.tx = None;
        self.shared_rx = None;
        for h in self.handles.drain(..) {
            let _ = h.join();
        }
    }
}

impl Drop for LocalRunner {
    fn drop(&mut self) {
        self.shutdown();
    }
}

/// One task a dry run would have executed.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct PlannedTask {
    /// The task id.
    pub id: String,
    /// The outputs the task would write.
    pub outputs: Vec<PathBuf>,
    /// The task's retry budget.
    pub retries: u32,
}

/// The plan a [`DryRunRunner`] accumulated, shared with the caller.
#[derive(Debug, Clone, Default)]
pub struct DryRunPlan {
    tasks: Arc<Mutex<Vec<PlannedTask>>>,
}

impl DryRunPlan {
    /// The tasks the dry run would have executed, in dispatch order.
    pub fn tasks(&self) -> Vec<PlannedTask> {
        self.tasks.lock().expect("dry-run plan poisoned").clone()
    }
}

/// A cost-estimating no-op runner: records what *would* run and reports
/// instant success without executing anything. Powers `build --dry-run`.
/// The scheduler persists nothing when the runner pool is dry, so a dry
/// run leaves the state database and the filesystem untouched.
#[derive(Debug, Default)]
pub struct DryRunRunner {
    plan: DryRunPlan,
}

impl DryRunRunner {
    /// Creates the runner and the shared plan it fills in.
    pub fn new() -> (DryRunRunner, DryRunPlan) {
        let plan = DryRunPlan::default();
        (DryRunRunner { plan: plan.clone() }, plan)
    }
}

impl TaskRunner for DryRunRunner {
    fn label(&self) -> String {
        "dry-run".to_owned()
    }

    fn slots(&self) -> usize {
        // Effectively unbounded: nothing executes, so there is nothing to
        // limit. A finite-but-huge value keeps slot arithmetic simple.
        usize::MAX / 2
    }

    fn is_dry_run(&self) -> bool {
        true
    }

    fn submit(&mut self, assignment: Assignment, events: &EventSender) {
        let task = &assignment.task;
        self.plan
            .tasks
            .lock()
            .expect("dry-run plan poisoned")
            .push(PlannedTask {
                id: task.id().to_owned(),
                outputs: task.outputs().to_vec(),
                retries: task.retry_budget(),
            });
        events.started(task.id());
        events.finished(task.id());
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use std::sync::atomic::{AtomicUsize, Ordering};
    use std::sync::mpsc;

    fn harness() -> (EventSender, mpsc::Receiver<crate::ExecEvent>) {
        let (tx, rx) = mpsc::channel();
        (EventSender::new(0, tx), rx)
    }

    #[test]
    fn local_runner_executes_and_reports() {
        let ran = Arc::new(AtomicUsize::new(0));
        let r = ran.clone();
        let task = Task::new("t", move || {
            r.fetch_add(1, Ordering::SeqCst);
            Ok(())
        });
        let mut runner = LocalRunner::new(2);
        let (events, rx) = harness();
        runner.submit(
            Assignment {
                task,
                claim_wait_us: 0,
            },
            &events,
        );
        let first = rx.recv().unwrap();
        let second = rx.recv().unwrap();
        assert!(matches!(first, crate::ExecEvent::Started { ref task, .. } if task == "t"));
        assert!(matches!(second, crate::ExecEvent::Finished { ref task, .. } if task == "t"));
        assert_eq!(ran.load(Ordering::SeqCst), 1);
        runner.shutdown();
    }

    #[test]
    fn local_runner_reports_failures_with_retry_suffix() {
        let task = Task::new("bad", || Err("boom".to_owned())).retries(2);
        let mut runner = LocalRunner::new(1);
        let (events, rx) = harness();
        runner.submit(
            Assignment {
                task,
                claim_wait_us: 0,
            },
            &events,
        );
        let _started = rx.recv().unwrap();
        match rx.recv().unwrap() {
            crate::ExecEvent::Failed { task, message, .. } => {
                assert_eq!(task, "bad");
                assert_eq!(message, "boom (after 3 attempts)");
            }
            other => panic!("expected Failed, got {other:?}"),
        }
        runner.shutdown();
    }

    #[test]
    fn local_runner_converts_panics_to_events() {
        let task = Task::new("explode", || panic!("shrapnel"));
        let mut runner = LocalRunner::new(1);
        let (events, rx) = harness();
        runner.submit(
            Assignment {
                task,
                claim_wait_us: 0,
            },
            &events,
        );
        let _started = rx.recv().unwrap();
        match rx.recv().unwrap() {
            crate::ExecEvent::Panicked { task, message, .. } => {
                assert_eq!(task, "explode");
                assert!(message.contains("shrapnel"), "{message}");
            }
            other => panic!("expected Panicked, got {other:?}"),
        }
        runner.shutdown();
    }

    #[test]
    fn dry_run_records_without_executing() {
        let ran = Arc::new(AtomicUsize::new(0));
        let r = ran.clone();
        let task = Task::new("would-run", move || {
            r.fetch_add(1, Ordering::SeqCst);
            Ok(())
        })
        .output("/tmp/nonexistent-artifact")
        .retries(1);
        let (mut runner, plan) = DryRunRunner::new();
        assert!(runner.is_dry_run());
        let (events, rx) = harness();
        runner.submit(
            Assignment {
                task,
                claim_wait_us: 0,
            },
            &events,
        );
        assert!(matches!(
            rx.recv().unwrap(),
            crate::ExecEvent::Started { .. }
        ));
        assert!(matches!(
            rx.recv().unwrap(),
            crate::ExecEvent::Finished { .. }
        ));
        assert_eq!(ran.load(Ordering::SeqCst), 0, "dry run executes nothing");
        let planned = plan.tasks();
        assert_eq!(planned.len(), 1);
        assert_eq!(planned[0].id, "would-run");
        assert_eq!(planned[0].retries, 1);
        assert_eq!(
            planned[0].outputs,
            vec![PathBuf::from("/tmp/nonexistent-artifact")]
        );
    }
}
