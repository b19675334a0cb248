//! The task runner: the execution half of the event-driven executor.
//!
//! A [`TaskRunner`] consumes [`Assignment`]s from the scheduler and
//! reports [`crate::ExecEvent`]s back over the channel. The scheduler never
//! runs a task itself; it only decides *what* may run and *when*. A build
//! has exactly one runner, and two ship here: [`LocalRunner`] (a thread
//! pool) and [`DryRunRunner`] (a no-op plan recorder).

use std::panic::{catch_unwind, AssertUnwindSafe};
use std::path::PathBuf;
use std::sync::atomic::{AtomicBool, AtomicUsize, Ordering};
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
///   or `Panicked`), so the scheduler never waits forever.
/// - The scheduler keeps at most [`TaskRunner::slots`] assignments in
///   flight.
/// - [`TaskRunner::shutdown`] is called once after the scheduler drains;
///   it must join any worker threads.
pub trait TaskRunner: Send {
    /// How many assignments this runner executes concurrently.
    fn slots(&self) -> usize;

    /// Whether this runner only estimates work instead of performing it.
    /// The scheduler skips all state-database writes for a dry runner.
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
/// # Errors
///
/// The action's final error message, suffixed with the attempt count when
/// the task had a retry budget.
fn run_task(task: &Task) -> Result<(), String> {
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

    /// The host's available parallelism (minimum 1): the width every pool
    /// gets when its `jobs` option is `None` — builds, [`run_ordered`]
    /// (launch, test, cosim, the cycle-exact cluster), and the CLI when the
    /// user passes no `-j`. This is the one place a worker-count default is
    /// decided; a caller that wants serial execution asks for width 1.
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
                let id = assignment.task.id();
                match catch_unwind(AssertUnwindSafe(|| run_task(&assignment.task))) {
                    Ok(Ok(())) => {
                        span.end_with(&[("outcome", "executed")]);
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
            }));
        }
        self.shared_rx = Some(rx);
        self.tx = Some(tx);
    }
}

/// Runs `run(0) .. run(count - 1)` on up to `width` threads and returns
/// their results in index order: the one pool behind every "run N
/// independent jobs" loop (launch, test, cosim, the cycle-exact cluster).
///
/// `width` `None` means [`LocalRunner::host_threads`]; either way it is
/// capped at `count`. At width 1 the calls run inline on the calling
/// thread, in order, and no thread is spawned. Wider, workers claim the
/// next index from a shared counter; once a call has failed, no worker
/// claims another. Claimed indices always form a prefix and every claimed
/// call finishes, so the error returned is the lowest-indexed failure —
/// the one a serial loop would have stopped at.
///
/// # Errors
///
/// The lowest-indexed call's error.
///
/// # Panics
///
/// Re-raises a panic from any call once the workers have stopped.
pub fn run_ordered<R: Send, E: Send>(
    count: usize,
    width: Option<usize>,
    run: impl Fn(usize) -> Result<R, E> + Sync,
) -> Result<Vec<R>, E> {
    let width = width.unwrap_or_else(LocalRunner::host_threads).min(count);
    if width <= 1 {
        return (0..count).map(run).collect();
    }
    // Neither atomic publishes data (results come back through the
    // joins), so both are `Relaxed`.
    let next = AtomicUsize::new(0);
    let failed = AtomicBool::new(false);
    let mut done: Vec<(usize, Result<R, E>)> = std::thread::scope(|scope| {
        let workers: Vec<_> = (0..width)
            .map(|_| {
                scope.spawn(|| {
                    let mut done = Vec::new();
                    while !failed.load(Ordering::Relaxed) {
                        let i = next.fetch_add(1, Ordering::Relaxed);
                        if i >= count {
                            break;
                        }
                        let result = run(i);
                        if result.is_err() {
                            failed.store(true, Ordering::Relaxed);
                        }
                        done.push((i, result));
                    }
                    done
                })
            })
            .collect();
        workers
            .into_iter()
            .flat_map(|w| {
                w.join()
                    .unwrap_or_else(|panic| std::panic::resume_unwind(panic))
            })
            .collect()
    });
    done.sort_unstable_by_key(|(i, _)| *i);
    done.into_iter().map(|(_, result)| result).collect()
}

impl TaskRunner for LocalRunner {
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
/// The scheduler persists nothing for a dry runner, so a dry run leaves
/// the state database and the filesystem untouched.
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
    use std::sync::mpsc;
    use std::time::Duration;

    fn harness() -> (EventSender, mpsc::Receiver<crate::ExecEvent>) {
        let (tx, rx) = mpsc::channel();
        (EventSender::new(tx), rx)
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

    #[test]
    fn run_ordered_returns_results_in_index_order_at_every_width() {
        for width in [None, Some(1), Some(2), Some(3), Some(64)] {
            let squares = run_ordered(17, width, |i| {
                // Early indices finish last when run concurrently.
                std::thread::sleep(Duration::from_micros(200 * (17 - i as u64)));
                Ok::<_, String>(i * i)
            })
            .unwrap();
            assert_eq!(squares, (0..17).map(|i| i * i).collect::<Vec<_>>());
        }
        assert_eq!(run_ordered(0, None, |_| Ok::<u8, ()>(0)), Ok(vec![]));
    }

    #[test]
    fn run_ordered_at_width_one_runs_inline() {
        let caller = std::thread::current().id();
        let threads = run_ordered(4, Some(1), |_| Ok::<_, ()>(std::thread::current().id()));
        assert_eq!(threads.unwrap(), vec![caller; 4]);
        // A single job needs no worker either, whatever the width.
        let threads = run_ordered(1, None, |_| Ok::<_, ()>(std::thread::current().id()));
        assert_eq!(threads.unwrap(), vec![caller]);
    }

    #[test]
    fn run_ordered_reports_the_lowest_failure_and_claims_nothing_after_it() {
        const FAIL: usize = 5;
        for width in [1, 2, 4] {
            let claimed = Mutex::new(Vec::new());
            let result = run_ordered(40, Some(width), |i| {
                claimed.lock().unwrap().push(i);
                if i == FAIL || i == FAIL + 2 {
                    return Err(format!("job {i} failed"));
                }
                // Slow successes: the failure is seen long before any
                // in-flight job finishes and could claim another.
                std::thread::sleep(Duration::from_millis(20));
                Ok(i)
            });
            assert_eq!(result, Err(format!("job {FAIL} failed")), "width {width}");
            let mut claimed = claimed.into_inner().unwrap();
            claimed.sort_unstable();
            // A prefix: everything up to the failure, plus at most the
            // jobs other workers had already claimed when it happened.
            assert_eq!(claimed, (0..claimed.len()).collect::<Vec<_>>());
            assert!(
                claimed.len() <= FAIL + width,
                "width {width} claimed {claimed:?} after job {FAIL} failed"
            );
        }
    }
}
