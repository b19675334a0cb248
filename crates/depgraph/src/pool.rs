//! The worker pools: the build pool behind [`crate::Graph::execute`], and
//! [`run_ordered`] for independent jobs that are not a graph.
//!
//! A build runs on one pool. Its state — the ready list, the in-flight
//! set, the report and the state database — lives in one `Mutex<Sched>`
//! beside a `Condvar`, shared by `threads` workers, the calling thread
//! among them. Under the lock a worker takes ready tasks in sorted order
//! and settles poisoned and up-to-date ones inline; the first runnable
//! task it meets it marks in progress and claims. It runs the claimed task
//! with the lock released, then re-takes the lock to settle it. There is
//! no dispatcher: every decision is made under the lock by the worker
//! whose claim or settle changed the state. See `docs/executor.md`.

use std::collections::{BTreeMap, BTreeSet};
use std::panic::{catch_unwind, AssertUnwindSafe};
use std::sync::atomic::{AtomicBool, AtomicUsize, Ordering};
use std::sync::{Condvar, Mutex, MutexGuard, PoisonError};
use std::time::Instant;

use marshal_trace::{cpu_ns, CpuClock, Recorder};

use crate::claims::ClaimScope;
use crate::error::BuildError;
use crate::exec::{cumulative_fingerprints, BuildReport, ExecOptions, ExecProgress};
use crate::graph::Graph;
use crate::hash::Fingerprint;
use crate::state::StateDb;
use crate::task::Task;

/// The build state every worker shares, behind the pool's one lock.
struct Sched<'a> {
    graph: &'a Graph,
    db: &'a mut StateDb,
    fps: BTreeMap<String, Fingerprint>,
    /// Settle would-run tasks as executed without running them, and
    /// write nothing to the state database.
    dry_run: bool,
    /// Each planned task's count of unsettled dependencies.
    remaining: BTreeMap<String, usize>,
    /// Ready tasks, sorted; workers take from the back.
    ready: Vec<String>,
    /// When each ready task became ready, kept only while recording, for
    /// claim-wait attribution.
    ready_at: BTreeMap<String, Instant>,
    /// Tasks executed by this build: their dependents are not up to date.
    dirty: BTreeSet<String>,
    /// Failed tasks and their transitive dependents.
    dead: BTreeSet<String>,
    in_flight: BTreeSet<String>,
    executed: Vec<String>,
    skipped: Vec<String>,
    poisoned: Vec<String>,
    failures: BTreeMap<String, String>,
    /// Fail-fast: a failure was seen, claim nothing more and drain.
    halting: bool,
    /// The first task whose action panicked, with the rendered payload:
    /// claim nothing more, drain, and re-raise once the workers stop.
    panicked: Option<(String, String)>,
    /// A worker unwound outside a task action (a panicking progress
    /// callback, say): stop every worker now, in flight or not.
    aborted: bool,
}

/// How a claimed task's run ended.
enum Ran {
    Executed,
    Failed(String),
    Panicked(String),
}

impl<'a> Sched<'a> {
    /// Whether claims have stopped.
    fn stopped(&self) -> bool {
        self.halting || self.panicked.is_some() || self.aborted
    }

    /// Whether a worker with nothing to claim may leave: nothing is in
    /// flight whose settle could ready more work.
    fn done(&self) -> bool {
        self.aborted || self.in_flight.is_empty() && (self.ready.is_empty() || self.stopped())
    }

    fn up_to_date(&self, task: &Task) -> bool {
        let id = task.id();
        !task.deps().iter().any(|d| self.dirty.contains(d))
            && self.db.last(id) == Some(self.fps[id])
            && task.outputs_exist()
    }

    /// Decrements the outstanding-dependency counts of `id`'s children
    /// after it settles (executed, skipped, failed under keep-going, or
    /// poisoned), readying any child whose dependencies have all settled.
    /// Children outside the plan (when building a root subset) are
    /// ignored.
    fn release(&mut self, id: &str, opts: &ExecOptions) {
        for t in self.graph.iter() {
            if !t.deps().iter().any(|d| d == id) {
                continue;
            }
            if let Some(rem) = self.remaining.get_mut(t.id()) {
                // Counts were initialised over unique deps.
                *rem = rem.saturating_sub(1);
                if *rem == 0 {
                    self.ready.push(t.id().to_owned());
                    if opts.recorder.enabled() {
                        self.ready_at.insert(t.id().to_owned(), Instant::now());
                    }
                }
            }
        }
        self.ready.sort();
    }

    /// Reports one claim or one settle: a `busy_workers` and a
    /// `ready_tasks` sample and one progress snapshot. Nothing else
    /// reports, so a build journals the same number of records at every
    /// `-j`.
    fn changed(&self, opts: &ExecOptions) {
        opts.recorder
            .counter("busy_workers", self.in_flight.len() as i64);
        opts.recorder
            .counter("ready_tasks", self.ready.len() as i64);
        if let Some(p) = &opts.progress {
            p(&ExecProgress {
                total: self.remaining.len(),
                ready: self.ready.len(),
                running: self.in_flight.len(),
                done: self.executed.len() + self.skipped.len(),
                failed: self.failures.len() + self.poisoned.len(),
            });
        }
    }

    /// Takes ready tasks in sorted order until one needs running. Poisoned
    /// and up-to-date tasks (and, in a dry run, would-run ones) settle
    /// inline, which can ready their children into this same call. The
    /// task that needs running is claimed: its in-progress mark is flushed
    /// and it is in flight. Returns it with its claim wait in
    /// microseconds, or `None` when nothing is claimable now.
    fn claim(&mut self, opts: &ExecOptions) -> Option<(&'a Task, u64)> {
        let rec = &opts.recorder;
        let graph = self.graph;
        while !self.stopped() {
            let id = self.ready.pop()?;
            let task = graph.get(&id).expect("ready ids are known");
            let ready_at = self.ready_at.remove(&id);
            if task.deps().iter().any(|d| self.dead.contains(d)) {
                rec.task_poisoned(&id);
                self.dead.insert(id.clone());
                self.poisoned.push(id.clone());
            } else if self.up_to_date(task) {
                rec.task_skipped(&id);
                self.skipped.push(id.clone());
            } else if self.dry_run {
                self.dirty.insert(id.clone());
                self.executed.push(id.clone());
            } else {
                // Durable in-progress mark: flushed (atomically) before
                // the action runs, so a crash mid-task is visible to the
                // next run. Flush failures are non-fatal — losing the
                // mark only loses crash detection, not correctness of
                // this build.
                self.db.mark_in_progress(id.clone());
                let _ = self.db.flush();
                self.in_flight.insert(id);
                self.changed(opts);
                let wait_us = ready_at.map_or(0, |at| at.elapsed().as_micros() as u64);
                return Some((task, wait_us));
            }
            self.release(&id, opts);
            self.changed(opts);
        }
        None
    }

    /// Settles a claimed task by how its run ended.
    fn finish(&mut self, id: &str, ran: Ran, opts: &ExecOptions) {
        self.in_flight.remove(id);
        match ran {
            Ran::Executed => {
                self.db.finish(id, self.fps[id]);
                let _ = self.db.flush();
                self.dirty.insert(id.to_owned());
                self.executed.push(id.to_owned());
                self.release(id, opts);
            }
            Ran::Failed(message) => {
                // A clean failure is not a crash: the in-progress mark is
                // cleared so the next run does not report a phantom
                // interruption.
                self.db.clear_in_progress(id);
                let _ = self.db.flush();
                self.failures.insert(id.to_owned(), message);
                if opts.keep_going {
                    // The failure cone keeps settling so independent
                    // subtrees can finish.
                    self.dead.insert(id.to_owned());
                    self.release(id, opts);
                } else {
                    self.halting = true;
                }
            }
            Ran::Panicked(message) => {
                // A panic is a crash, not a task failure: the in-progress
                // mark stays set so the next run sees the interruption.
                self.panicked.get_or_insert((id.to_owned(), message));
            }
        }
        self.changed(opts);
    }
}

/// The build pool: the shared state and the condition variable idle
/// workers wait on for a claimable task or the end of the build.
struct Pool<'a> {
    state: Mutex<Sched<'a>>,
    wake: Condvar,
}

impl<'a> Pool<'a> {
    /// The lock, even after a worker unwound while holding it: every
    /// update under the lock is whole before the progress callback, the
    /// one foreign code called there, runs; the unwinding worker has set
    /// [`Sched::aborted`], and the others must still see it to leave.
    fn lock(&self) -> MutexGuard<'_, Sched<'a>> {
        self.state.lock().unwrap_or_else(PoisonError::into_inner)
    }

    /// One worker: claim, run with the lock released, settle, until the
    /// build is done.
    fn work(&self, opts: &ExecOptions) {
        let _stop = StopOnUnwind(self);
        let mut st = self.lock();
        loop {
            // A worker that settles a task claims next itself, so only a
            // claim that leaves work ready wakes an idle worker, which
            // does the same; the last worker out wakes the rest.
            if let Some((task, wait_us)) = st.claim(opts) {
                if !st.ready.is_empty() {
                    self.wake.notify_one();
                }
                drop(st);
                let ran = run(task, wait_us, &opts.recorder);
                st = self.lock();
                st.finish(task.id(), ran, opts);
            } else if st.done() {
                self.wake.notify_all();
                return;
            } else {
                st = self.wake.wait(st).unwrap_or_else(PoisonError::into_inner);
            }
        }
    }
}

/// Stops every worker when one unwinds outside a task action, so none
/// waits for a settle that will never come; `std::thread::scope` then
/// re-raises the panic.
struct StopOnUnwind<'p, 'a>(&'p Pool<'a>);

impl Drop for StopOnUnwind<'_, '_> {
    fn drop(&mut self) {
        if std::thread::panicking() {
            self.0.lock().aborted = true;
            self.0.wake.notify_all();
        }
    }
}

/// Runs a claimed task on this worker's thread: its write claims
/// installed, its retry budget, and a panic caught so that it settles like
/// any other outcome. The `task` span ends with the thread's CPU time over
/// the task, read only while the recorder is enabled.
fn run(task: &Task, claim_wait_us: u64, rec: &Recorder) -> Ran {
    let wait = claim_wait_us.to_string();
    let span = rec.span("task", &[("task", task.id()), ("claim_wait_us", &wait)]);
    let cpu0 = if rec.enabled() {
        cpu_ns(CpuClock::Thread)
    } else {
        None
    };
    let ran = match catch_unwind(AssertUnwindSafe(|| run_task(task))) {
        Ok(Ok(())) => Ran::Executed,
        Ok(Err(message)) => Ran::Failed(message),
        Err(payload) => Ran::Panicked(panic_message(payload)),
    };
    let cpu = cpu0.and_then(|c0| Some(cpu_ns(CpuClock::Thread)?.saturating_sub(c0).to_string()));
    let mut args = match &ran {
        Ran::Executed => vec![("outcome", "executed")],
        Ran::Failed(e) => vec![("outcome", "failed"), ("error", e.as_str())],
        Ran::Panicked(e) => vec![("outcome", "panicked"), ("error", e.as_str())],
    };
    args.extend(cpu.as_deref().map(|ns| ("cpu_ns", ns)));
    span.end_with(&args);
    ran
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

/// Renders a panic payload for the re-raised message.
fn panic_message(payload: Box<dyn std::any::Any + Send>) -> String {
    if let Some(s) = payload.downcast_ref::<&str>() {
        (*s).to_owned()
    } else if let Some(s) = payload.downcast_ref::<String>() {
        s.clone()
    } else {
        "task panicked".to_owned()
    }
}

/// Builds the tasks of `order` (a topological order) on `threads`
/// workers, the calling thread among them, so `threads` 1 spawns nothing.
/// A dry run classifies on the calling thread alone. The report lists
/// tasks in settle order; the caller canonicalizes it.
///
/// # Errors
///
/// Without [`ExecOptions::keep_going`], the failure of the
/// lexicographically smallest failed task.
///
/// # Panics
///
/// Re-raises ``task `x` panicked: …`` once the in-flight tasks have
/// drained, with `x`'s in-progress mark left set.
pub(crate) fn run_graph(
    graph: &Graph,
    order: &[String],
    db: &mut StateDb,
    threads: usize,
    dry_run: bool,
    opts: &ExecOptions,
) -> Result<BuildReport, BuildError> {
    let mut remaining = BTreeMap::new();
    let mut ready = Vec::new();
    for id in order {
        let deps = graph.get(id).expect("order contains known ids").deps();
        let n = deps.iter().collect::<BTreeSet<_>>().len();
        remaining.insert(id.clone(), n);
        if n == 0 {
            ready.push(id.clone());
        }
    }
    ready.sort();
    let mut ready_at = BTreeMap::new();
    if opts.recorder.enabled() {
        let now = Instant::now();
        ready_at.extend(ready.iter().map(|id| (id.clone(), now)));
    }
    let pool = Pool {
        state: Mutex::new(Sched {
            graph,
            db,
            fps: cumulative_fingerprints(graph, order),
            dry_run,
            remaining,
            ready,
            ready_at,
            dirty: BTreeSet::new(),
            dead: BTreeSet::new(),
            in_flight: BTreeSet::new(),
            executed: Vec::new(),
            skipped: Vec::new(),
            poisoned: Vec::new(),
            failures: BTreeMap::new(),
            halting: false,
            panicked: None,
            aborted: false,
        }),
        wake: Condvar::new(),
    };
    let threads = if dry_run {
        1
    } else {
        threads.clamp(1, order.len().max(1))
    };
    std::thread::scope(|scope| {
        for _ in 1..threads {
            scope.spawn(|| pool.work(opts));
        }
        pool.work(opts);
    });
    let mut st = pool
        .state
        .into_inner()
        .unwrap_or_else(PoisonError::into_inner);
    if let Some((task, message)) = st.panicked {
        // Re-raised on the calling thread, so a debug assertion tripped
        // inside a task is not downgraded to a task failure.
        panic!("task `{task}` panicked: {message}");
    }
    if !opts.keep_going {
        if let Some((task, message)) = st.failures.pop_first() {
            // Several tasks may fail while the pool drains; report the
            // lexicographically smallest deterministically.
            return Err(BuildError::TaskFailed { task, message });
        }
    }
    Ok(BuildReport {
        executed: st.executed,
        skipped: st.skipped,
        failed: st.failures.into_iter().collect(),
        poisoned: st.poisoned,
    })
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

/// Runs `run(0) .. run(count - 1)` on up to `width` threads and returns
/// their results in index order: the one pool behind every "run N
/// independent jobs" loop (launch, test, cosim, the cycle-exact cluster).
///
/// `width` `None` means [`host_threads`]; either way it is capped at
/// `count`. At width 1 the calls run inline on the calling thread, in
/// order, and no thread is spawned. Wider, workers claim the next index
/// from a shared counter; once a call has failed, no worker claims
/// another. Claimed indices always form a prefix and every claimed call
/// finishes, so the error returned is the lowest-indexed failure — the one
/// a serial loop would have stopped at.
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
    let width = width.unwrap_or_else(host_threads).min(count);
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

#[cfg(test)]
mod tests {
    use super::*;
    use std::time::Duration;

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
