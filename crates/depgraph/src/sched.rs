//! The scheduler: the policy half of the event-driven executor.
//!
//! [`run_scheduler`] owns everything the runner must not: the dependency
//! graph walk, up-to-date checks against the [`StateDb`], crash-safe
//! in-progress marks, and the keep-going failure cone. The runner only
//! executes; every decision lives here, on one thread, which is what
//! keeps `-j1` and `-j8` builds observably identical. See
//! `docs/executor.md` for the protocol.

use std::collections::{BTreeMap, BTreeSet};
use std::sync::mpsc;
use std::time::Instant;

use marshal_trace::Recorder;

use crate::error::BuildError;
use crate::events::{EventSender, ExecEvent, ExecProgress};
use crate::exec::{cumulative_fingerprints, BuildReport, ExecOptions};
use crate::graph::Graph;
use crate::hash::Fingerprint;
use crate::runner::{Assignment, TaskRunner};
use crate::state::StateDb;

struct Sched<'a> {
    graph: &'a Graph,
    rec: &'a Recorder,
    fps: BTreeMap<String, Fingerprint>,
    /// Whether to write the state database (false for dry runs).
    persist: bool,
    keep_going: bool,
    /// Whether to keep ready timestamps for claim-wait attribution.
    trace: bool,
    total: usize,
    remaining: BTreeMap<String, usize>,
    ready: Vec<String>,
    ready_at: BTreeMap<String, Instant>,
    dirty: BTreeSet<String>,
    /// Failed tasks and their transitive dependents.
    dead: BTreeSet<String>,
    in_flight: BTreeSet<String>,
    executed: Vec<String>,
    skipped: Vec<String>,
    poisoned: Vec<String>,
    failures: BTreeMap<String, String>,
    pending: usize,
    /// Fail-fast: a failure was seen, stop dispatching and drain.
    halting: bool,
}

impl Sched<'_> {
    /// Decrements children's outstanding-dependency counts after `id`
    /// settles (succeeded, skipped, failed, or poisoned), readying any
    /// child whose dependencies have all settled. Children outside the
    /// plan (when building a root subset) are ignored.
    fn settle(&mut self, id: &str) {
        self.pending -= 1;
        for t in self.graph.iter() {
            if !t.deps().iter().any(|d| d == id) {
                continue;
            }
            if let Some(rem) = self.remaining.get_mut(t.id()) {
                // Counts were initialised over unique deps.
                *rem = rem.saturating_sub(1);
                if *rem == 0 {
                    self.ready.push(t.id().to_owned());
                    if self.trace {
                        self.ready_at.insert(t.id().to_owned(), Instant::now());
                    }
                }
            }
        }
        self.ready.sort();
    }

    /// Records a task failure under the active failure policy. A clean
    /// failure is not a crash: the in-progress mark is cleared so the next
    /// run does not report a phantom interruption.
    fn fail(&mut self, db: &mut StateDb, id: String, message: String) {
        if self.persist {
            db.clear_in_progress(&id);
            let _ = db.flush();
        }
        self.failures.insert(id.clone(), message);
        if self.keep_going {
            // The failure cone keeps settling so independent subtrees
            // can finish.
            self.dead.insert(id.clone());
            self.settle(&id);
        } else {
            self.halting = true;
        }
    }

    fn progress(&self) -> ExecProgress {
        ExecProgress {
            total: self.total,
            ready: self.ready.len(),
            running: self.in_flight.len(),
            done: self.executed.len() + self.skipped.len(),
            failed: self.failures.len() + self.poisoned.len(),
        }
    }

    /// Applies one runner event. Events are facts, not requests: anything
    /// that no longer makes sense (a duplicate terminal event) is ignored.
    fn handle(&mut self, db: &mut StateDb, ev: ExecEvent) {
        match ev {
            ExecEvent::Started { .. } => {}
            ExecEvent::Finished { task } => {
                if !self.in_flight.remove(&task) {
                    return;
                }
                if self.persist {
                    db.finish(task.clone(), self.fps[task.as_str()]);
                    let _ = db.flush();
                }
                self.rec
                    .counter("busy_workers", self.in_flight.len() as i64);
                self.dirty.insert(task.clone());
                self.executed.push(task.clone());
                self.settle(&task);
            }
            ExecEvent::Failed { task, message } => {
                if !self.in_flight.remove(&task) {
                    return;
                }
                self.rec
                    .counter("busy_workers", self.in_flight.len() as i64);
                self.fail(db, task, message);
            }
            ExecEvent::Panicked { task, message } => {
                // Re-raise on the scheduler thread so a debug assertion
                // tripped inside a worker is not downgraded to a task
                // failure. The in-progress mark stays set — a panic is a
                // crash, and the next run should see it as one.
                panic!("task `{task}` panicked: {message}");
            }
        }
    }
}

/// Drives the plan in `order` to completion on `runner`.
///
/// The scheduler dispatches ready tasks to the runner while it has a free
/// slot, then blocks on the event channel; every state transition is a
/// reaction to a runner event. The report is assembled in completion
/// order; the caller canonicalizes.
pub(crate) fn run_scheduler(
    graph: &Graph,
    order: &[String],
    db: &mut StateDb,
    opts: &ExecOptions,
    runner: &mut dyn TaskRunner,
) -> Result<BuildReport, BuildError> {
    let rec = &opts.recorder;
    let (tx, rx) = mpsc::channel::<ExecEvent>();
    let events = EventSender::new(tx);
    let slots = runner.slots();

    let mut st = Sched {
        graph,
        rec,
        fps: cumulative_fingerprints(graph, order),
        persist: !runner.is_dry_run(),
        keep_going: opts.keep_going,
        trace: rec.enabled(),
        total: order.len(),
        remaining: BTreeMap::new(),
        ready: Vec::new(),
        ready_at: BTreeMap::new(),
        dirty: BTreeSet::new(),
        dead: BTreeSet::new(),
        in_flight: BTreeSet::new(),
        executed: Vec::new(),
        skipped: Vec::new(),
        poisoned: Vec::new(),
        failures: BTreeMap::new(),
        pending: order.len(),
        halting: false,
    };
    for id in order {
        let n = graph
            .get(id)
            .expect("order contains known ids")
            .deps()
            .iter()
            .collect::<BTreeSet<_>>()
            .len();
        st.remaining.insert(id.clone(), n);
        if n == 0 {
            st.ready.push(id.clone());
        }
    }
    st.ready.sort();
    if st.trace {
        let now = Instant::now();
        for id in &st.ready {
            st.ready_at.insert(id.clone(), now);
        }
    }

    loop {
        // Dispatch phase: classify every ready task, feeding runnable ones
        // to the runner. Poisoned and up-to-date tasks settle inline, which
        // can ready their children into this same pass — an all-skipped
        // build completes here without a single event.
        if !st.halting {
            let mut deferred: Vec<String> = Vec::new();
            while let Some(id) = st.ready.pop() {
                let task = graph.get(&id).expect("known id");
                if task.deps().iter().any(|d| st.dead.contains(d)) {
                    st.ready_at.remove(&id);
                    rec.task_poisoned(&id);
                    st.dead.insert(id.clone());
                    st.poisoned.push(id.clone());
                    st.settle(&id);
                    continue;
                }
                let fp = st.fps[id.as_str()];
                let dep_ran = task.deps().iter().any(|d| st.dirty.contains(d));
                if !dep_ran && db.last(&id) == Some(fp) && task.outputs_exist() {
                    st.ready_at.remove(&id);
                    rec.task_skipped(&id);
                    st.skipped.push(id.clone());
                    st.settle(&id);
                    continue;
                }
                if st.in_flight.len() >= slots {
                    deferred.push(id);
                    continue;
                }
                let claim_wait_us = st
                    .ready_at
                    .remove(&id)
                    .map(|at| at.elapsed().as_micros() as u64)
                    .unwrap_or(0);
                if st.persist {
                    // Durable in-progress mark: flushed (atomically) before
                    // the action runs, so a crash mid-task is visible to
                    // the next run. Flush failures are non-fatal — losing
                    // the mark only loses crash detection, not correctness
                    // of this build.
                    db.mark_in_progress(id.clone());
                    let _ = db.flush();
                }
                st.in_flight.insert(id.clone());
                rec.counter("busy_workers", st.in_flight.len() as i64);
                runner.submit(
                    Assignment {
                        task: task.clone(),
                        claim_wait_us,
                    },
                    &events,
                );
            }
            st.ready.extend(deferred);
            st.ready.sort();
        }
        if st.trace {
            rec.counter("ready_tasks", st.ready.len() as i64);
        }
        if let Some(p) = &opts.progress {
            p(&st.progress());
        }
        if st.in_flight.is_empty() {
            if st.pending == 0 || st.halting {
                break;
            }
            // Nothing running and nothing dispatched, yet tasks remain: the
            // runner broke its event contract. Error instead of blocking
            // on a channel that will never deliver.
            return Err(BuildError::Runner(format!(
                "scheduler stalled: {} task(s) pending with no runnable work",
                st.pending
            )));
        }
        // Block for the next event (the in-flight guard above guarantees
        // one is owed), then drain whatever else already arrived.
        let ev = rx
            .recv()
            .expect("scheduler holds a sender; recv cannot fail");
        st.handle(db, ev);
        while let Ok(ev) = rx.try_recv() {
            st.handle(db, ev);
        }
    }
    if let Some(p) = &opts.progress {
        p(&st.progress());
    }

    drop(events);
    runner.shutdown();

    if !st.keep_going {
        if let Some((task, message)) = st.failures.into_iter().next() {
            // Several tasks may fail while the pipeline drains; report the
            // lexicographically smallest deterministically.
            return Err(BuildError::TaskFailed { task, message });
        }
        return Ok(BuildReport {
            executed: st.executed,
            skipped: st.skipped,
            failed: Vec::new(),
            poisoned: Vec::new(),
        });
    }
    Ok(BuildReport {
        executed: st.executed,
        skipped: st.skipped,
        failed: st.failures.into_iter().collect(),
        poisoned: st.poisoned,
    })
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::exec::Plan;
    use crate::runner::LocalRunner;
    use crate::task::Task;

    /// A scripted runner for driving the scheduler through shapes a real
    /// runner only produces under rare timing: out-of-order completions
    /// and duplicate events. On each submission it
    /// replays the actions scripted for that task — synchronously, from
    /// inside `submit`, so tests are fully deterministic.
    struct MockRunner {
        slots: usize,
        script: BTreeMap<String, Vec<MockAction>>,
    }

    #[derive(Clone)]
    enum MockAction {
        Finish(&'static str),
        Fail(&'static str, &'static str),
    }

    impl MockRunner {
        fn boxed(slots: usize, script: &[(&str, &[MockAction])]) -> Box<dyn TaskRunner> {
            Box::new(MockRunner {
                slots,
                script: script
                    .iter()
                    .map(|(id, actions)| ((*id).to_owned(), actions.to_vec()))
                    .collect(),
            })
        }
    }

    impl TaskRunner for MockRunner {
        fn slots(&self) -> usize {
            self.slots
        }

        fn submit(&mut self, assignment: Assignment, events: &EventSender) {
            let id = assignment.task.id().to_owned();
            events.started(&id);
            for action in self.script.remove(&id).unwrap_or_default() {
                match action {
                    MockAction::Finish(t) => events.finished(t),
                    MockAction::Fail(t, msg) => events.failed(t, msg),
                }
            }
        }
    }

    fn flat_graph(ids: &[&str]) -> Graph {
        let mut g = Graph::new();
        for id in ids {
            g.add(Task::new(*id, || Ok(()))).unwrap();
        }
        g
    }

    fn run(
        g: &Graph,
        db: &mut StateDb,
        opts: &ExecOptions,
        runner: Box<dyn TaskRunner>,
    ) -> Result<BuildReport, BuildError> {
        g.execute(
            db,
            Plan {
                roots: None,
                runner,
            },
            opts,
        )
    }

    #[test]
    fn out_of_order_finishes_settle_correctly() {
        // Three independent tasks dispatched c, b, a (reverse-lex pop);
        // the runner reports them finished in a different order entirely.
        let g = flat_graph(&["a", "b", "c"]);
        let mut db = StateDb::in_memory();
        let runner = MockRunner::boxed(
            8,
            &[
                ("c", &[]),
                ("b", &[]),
                (
                    "a",
                    &[
                        MockAction::Finish("a"),
                        MockAction::Finish("c"),
                        MockAction::Finish("b"),
                    ],
                ),
            ],
        );
        let report = run(&g, &mut db, &ExecOptions::default(), runner).unwrap();
        assert_eq!(report.executed, vec!["a", "b", "c"], "canonical order");
        assert!(report.success());
    }

    #[test]
    fn duplicate_terminal_events_are_ignored() {
        // One task, three terminal events: the first Finished settles it,
        // the duplicate Finished and the late Failed must be no-ops (no
        // double-count, no slot underflow, no spurious failure).
        let g = flat_graph(&["a"]);
        let mut db = StateDb::in_memory();
        let runner = MockRunner::boxed(
            1,
            &[(
                "a",
                &[
                    MockAction::Finish("a"),
                    MockAction::Finish("a"),
                    MockAction::Fail("a", "late and wrong"),
                ],
            )],
        );
        let report = run(&g, &mut db, &ExecOptions::default(), runner).unwrap();
        assert_eq!(report.executed, vec!["a"]);
        assert!(report.failed.is_empty() && report.poisoned.is_empty());
    }

    #[test]
    fn dry_run_plans_without_touching_state() {
        let mut g = Graph::new();
        g.add(Task::new("a", || Err("must never run".into())))
            .unwrap();
        g.add(Task::new("b", || Err("must never run".into())).dep("a"))
            .unwrap();
        let mut db = StateDb::in_memory();
        let (runner, plan) = crate::runner::DryRunRunner::new();
        let report = run(&g, &mut db, &ExecOptions::default(), Box::new(runner)).unwrap();
        assert_eq!(report.executed, vec!["a", "b"]);
        let ids: Vec<String> = plan.tasks().into_iter().map(|t| t.id).collect();
        assert_eq!(ids, vec!["a", "b"]);
        // Nothing persisted: a later live build still sees both as dirty.
        assert_eq!(db.last("a"), None);
        assert_eq!(db.last("b"), None);
    }

    #[test]
    fn progress_callback_reaches_terminal_counts() {
        use std::sync::{Arc, Mutex};
        let g = flat_graph(&["a", "b"]);
        let mut db = StateDb::in_memory();
        let seen: Arc<Mutex<Vec<ExecProgress>>> = Arc::new(Mutex::new(Vec::new()));
        let sink = seen.clone();
        let opts = ExecOptions {
            progress: Some(std::sync::Arc::new(move |p: &ExecProgress| {
                sink.lock().unwrap().push(*p);
            })),
            ..ExecOptions::default()
        };
        run(&g, &mut db, &opts, Box::new(LocalRunner::new(2))).unwrap();
        let snaps = seen.lock().unwrap();
        let last = snaps.last().expect("at least one progress snapshot");
        assert_eq!(last.total, 2);
        assert_eq!(last.done, 2);
        assert_eq!(last.running, 0);
        assert_eq!(last.failed, 0);
    }
}
