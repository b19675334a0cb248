//! The scheduler: the policy half of the event-driven executor.
//!
//! [`run_scheduler`] owns everything runners must not: the dependency
//! graph walk, up-to-date checks against the [`StateDb`], crash-safe
//! in-progress marks, the keep-going failure cone, and runner-loss
//! recovery. Runners only execute; every decision lives here, on one
//! thread, which is what keeps `-j1` and `-j8` builds observably
//! identical. See `docs/executor.md` for the protocol.

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
    labels: Vec<String>,
    /// Which runners are still accepting work.
    live: Vec<bool>,
    /// Assignments currently in flight per runner.
    inflight_on: Vec<usize>,
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
    /// Tasks already requeued once after a runner loss: a second loss
    /// poisons instead of requeueing forever.
    requeued: BTreeSet<String>,
    in_flight: BTreeMap<String, usize>,
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
    /// failure is not a crash: the in-progress mark is cleared (when one
    /// was set) so the next run does not report a phantom interruption.
    fn fail(&mut self, db: &mut StateDb, clear_mark: bool, id: String, message: String) {
        if self.persist && clear_mark {
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
    /// that no longer makes sense (a duplicate terminal event, a report
    /// from an already-lost runner) is ignored.
    fn handle(&mut self, db: &mut StateDb, ev: ExecEvent) {
        match ev {
            ExecEvent::Started { .. } | ExecEvent::Progress { .. } => {}
            ExecEvent::Finished { task, .. } => {
                let Some(r) = self.in_flight.remove(&task) else {
                    return;
                };
                self.inflight_on[r] -= 1;
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
            ExecEvent::Failed { task, message, .. } => {
                let Some(r) = self.in_flight.remove(&task) else {
                    return;
                };
                self.inflight_on[r] -= 1;
                self.rec
                    .counter("busy_workers", self.in_flight.len() as i64);
                self.fail(db, true, task, message);
            }
            ExecEvent::Panicked { task, message, .. } => {
                // Re-raise on the scheduler thread so a debug assertion
                // tripped inside a worker is not downgraded to a task
                // failure. The in-progress mark stays set — a panic is a
                // crash, and the next run should see it as one.
                panic!("task `{task}` panicked: {message}");
            }
            ExecEvent::RunnerLost { runner, reason } => {
                if !self.live.get(runner).copied().unwrap_or(false) {
                    return;
                }
                self.live[runner] = false;
                self.rec.runner_lost(&self.labels[runner], &reason);
                let orphans: Vec<String> = self
                    .in_flight
                    .iter()
                    .filter(|&(_, r)| *r == runner)
                    .map(|(t, _)| t.clone())
                    .collect();
                for id in orphans {
                    self.in_flight.remove(&id);
                    self.inflight_on[runner] -= 1;
                    if self.requeued.insert(id.clone()) {
                        self.rec.task_requeued(&id);
                        if self.trace {
                            self.ready_at.insert(id.clone(), Instant::now());
                        }
                        self.ready.push(id);
                    } else {
                        let message = format!(
                            "runner `{}` lost mid-task ({reason}); task already requeued once",
                            self.labels[runner]
                        );
                        self.fail(db, true, id, message);
                    }
                }
                self.ready.sort();
                self.rec
                    .counter("busy_workers", self.in_flight.len() as i64);
            }
        }
    }
}

/// Drives the plan in `order` to completion over the given runners.
///
/// The scheduler dispatches ready tasks to runners (declaration order,
/// first runner with a free slot whose [`TaskRunner::can_run`] accepts the
/// task), then blocks on the event channel; every state transition is a
/// reaction to a runner event. A lost runner's in-flight tasks are
/// requeued once onto survivors, then failed — never left hanging. The
/// report is assembled in completion order; the caller canonicalizes.
pub(crate) fn run_scheduler(
    graph: &Graph,
    order: &[String],
    db: &mut StateDb,
    opts: &ExecOptions,
    runners: &mut [Box<dyn TaskRunner>],
) -> Result<BuildReport, BuildError> {
    if runners.is_empty() {
        return Err(BuildError::Runner(
            "no task runners configured; a build needs at least one runner".into(),
        ));
    }
    let dry = runners[0].is_dry_run();
    if runners.iter().any(|r| r.is_dry_run() != dry) {
        return Err(BuildError::Runner(
            "cannot mix dry-run and live runners in one build".into(),
        ));
    }

    let rec = &opts.recorder;
    let (tx, rx) = mpsc::channel::<ExecEvent>();
    let senders: Vec<EventSender> = (0..runners.len())
        .map(|i| EventSender::new(i, tx.clone()))
        .collect();

    let mut st = Sched {
        graph,
        rec,
        fps: cumulative_fingerprints(graph, order),
        labels: runners.iter().map(|r| r.label()).collect(),
        live: vec![true; runners.len()],
        inflight_on: vec![0; runners.len()],
        persist: !dry,
        keep_going: opts.keep_going,
        trace: rec.enabled(),
        total: order.len(),
        remaining: BTreeMap::new(),
        ready: Vec::new(),
        ready_at: BTreeMap::new(),
        dirty: BTreeSet::new(),
        dead: BTreeSet::new(),
        requeued: BTreeSet::new(),
        in_flight: BTreeMap::new(),
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
        // to runners. Poisoned and up-to-date tasks settle inline, which
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
                let mut chosen = None;
                let mut capable = false;
                for (i, r) in runners.iter().enumerate() {
                    if !st.live[i] || !r.can_run(task) {
                        continue;
                    }
                    capable = true;
                    if st.inflight_on[i] < r.slots() {
                        chosen = Some(i);
                        break;
                    }
                }
                match chosen {
                    Some(i) => {
                        let claim_wait_us = st
                            .ready_at
                            .remove(&id)
                            .map(|at| at.elapsed().as_micros() as u64)
                            .unwrap_or(0);
                        if st.persist {
                            // Durable in-progress mark: flushed (atomically)
                            // before the action runs, so a crash mid-task is
                            // visible to the next run. Flush failures are
                            // non-fatal — losing the mark only loses crash
                            // detection, not correctness of this build.
                            db.mark_in_progress(id.clone());
                            let _ = db.flush();
                        }
                        st.in_flight.insert(id.clone(), i);
                        st.inflight_on[i] += 1;
                        rec.counter("busy_workers", st.in_flight.len() as i64);
                        runners[i].submit(
                            Assignment {
                                task: task.clone(),
                                claim_wait_us,
                            },
                            &senders[i],
                        );
                    }
                    None if capable => deferred.push(id),
                    None => {
                        // Every runner that could have run this task is
                        // lost (or none ever could): fail it rather than
                        // wait for capacity that will never return.
                        st.ready_at.remove(&id);
                        let message = format!("no live runner can execute task `{id}`");
                        st.fail(db, false, id, message);
                        if st.halting {
                            break;
                        }
                    }
                }
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
            // Nothing running and nothing dispatched, yet tasks remain: a
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

    drop(senders);
    drop(tx);
    for r in runners.iter_mut() {
        r.shutdown();
    }

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
    /// runner only produces under rare timing: out-of-order completions,
    /// duplicate events, runner loss mid-task. On each submission it
    /// replays the actions scripted for that task — synchronously, from
    /// inside `submit`, so tests are fully deterministic.
    struct MockRunner {
        name: String,
        slots: usize,
        script: BTreeMap<String, Vec<MockAction>>,
    }

    #[derive(Clone)]
    enum MockAction {
        Finish(&'static str),
        Fail(&'static str, &'static str),
        Lose(&'static str),
    }

    impl MockRunner {
        fn boxed(
            name: &str,
            slots: usize,
            script: &[(&str, &[MockAction])],
        ) -> Box<dyn TaskRunner> {
            Box::new(MockRunner {
                name: name.to_owned(),
                slots,
                script: script
                    .iter()
                    .map(|(id, actions)| ((*id).to_owned(), actions.to_vec()))
                    .collect(),
            })
        }
    }

    impl TaskRunner for MockRunner {
        fn label(&self) -> String {
            self.name.clone()
        }

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
                    MockAction::Lose(reason) => events.runner_lost(reason),
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
        runners: Vec<Box<dyn TaskRunner>>,
    ) -> Result<BuildReport, BuildError> {
        g.execute(
            db,
            Plan {
                roots: None,
                runners,
            },
            opts,
        )
    }

    #[test]
    fn zero_runners_error_cleanly() {
        let g = flat_graph(&["a"]);
        let mut db = StateDb::in_memory();
        let err = run(&g, &mut db, &ExecOptions::default(), Vec::new()).unwrap_err();
        assert!(matches!(err, BuildError::Runner(_)), "{err:?}");
    }

    #[test]
    fn mixed_dry_and_live_runners_rejected() {
        let g = flat_graph(&["a"]);
        let mut db = StateDb::in_memory();
        let (dry, _plan) = crate::runner::DryRunRunner::new();
        let runners: Vec<Box<dyn TaskRunner>> = vec![Box::new(LocalRunner::new(1)), Box::new(dry)];
        let err = run(&g, &mut db, &ExecOptions::default(), runners).unwrap_err();
        assert!(matches!(err, BuildError::Runner(_)), "{err:?}");
    }

    #[test]
    fn out_of_order_finishes_settle_correctly() {
        // Three independent tasks dispatched c, b, a (reverse-lex pop);
        // the runner reports them finished in a different order entirely.
        let g = flat_graph(&["a", "b", "c"]);
        let mut db = StateDb::in_memory();
        let runners = vec![MockRunner::boxed(
            "mock",
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
        )];
        let report = run(&g, &mut db, &ExecOptions::default(), runners).unwrap();
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
        let runners = vec![MockRunner::boxed(
            "mock",
            1,
            &[(
                "a",
                &[
                    MockAction::Finish("a"),
                    MockAction::Finish("a"),
                    MockAction::Fail("a", "late and wrong"),
                ],
            )],
        )];
        let report = run(&g, &mut db, &ExecOptions::default(), runners).unwrap();
        assert_eq!(report.executed, vec!["a"]);
        assert!(report.failed.is_empty() && report.poisoned.is_empty());
    }

    #[test]
    fn lost_runner_requeues_task_onto_survivor() {
        // Runner 0 dies mid-`a`; the task requeues onto the surviving
        // local runner and the build completes.
        let mut g = Graph::new();
        g.add(Task::new("a", || Ok(()))).unwrap();
        g.add(Task::new("b", || Ok(())).dep("a")).unwrap();
        let mut db = StateDb::in_memory();
        let runners: Vec<Box<dyn TaskRunner>> = vec![
            MockRunner::boxed("loser", 1, &[("a", &[MockAction::Lose("transport died")])]),
            Box::new(LocalRunner::new(1)),
        ];
        let report = run(&g, &mut db, &ExecOptions::default(), runners).unwrap();
        assert_eq!(report.executed, vec!["a", "b"]);
        assert!(report.success());
    }

    #[test]
    fn second_runner_loss_poisons_instead_of_looping() {
        // Both runners die while holding `a`: requeue once, then fail the
        // task and poison its dependent — never hang or retry forever.
        let mut g = Graph::new();
        g.add(Task::new("a", || Ok(()))).unwrap();
        g.add(Task::new("b", || Ok(())).dep("a")).unwrap();
        let mut db = StateDb::in_memory();
        let runners: Vec<Box<dyn TaskRunner>> = vec![
            MockRunner::boxed("loser1", 1, &[("a", &[MockAction::Lose("died first")])]),
            MockRunner::boxed("loser2", 1, &[("a", &[MockAction::Lose("died second")])]),
        ];
        let opts = ExecOptions {
            keep_going: true,
            ..ExecOptions::default()
        };
        let report = run(&g, &mut db, &opts, runners).unwrap();
        assert!(report.executed.is_empty());
        assert_eq!(report.failed.len(), 1);
        assert_eq!(report.failed[0].0, "a");
        assert!(
            report.failed[0].1.contains("already requeued once"),
            "{}",
            report.failed[0].1
        );
        assert_eq!(report.poisoned, vec!["b"]);
    }

    #[test]
    fn all_runners_lost_fails_fast_without_hanging() {
        // Fail-fast flavour of total runner loss: the build errors with
        // the lost-task failure instead of stalling.
        let mut g = Graph::new();
        g.add(Task::new("a", || Ok(()))).unwrap();
        let mut db = StateDb::in_memory();
        let runners: Vec<Box<dyn TaskRunner>> = vec![
            MockRunner::boxed("loser1", 1, &[("a", &[MockAction::Lose("gone")])]),
            MockRunner::boxed("loser2", 1, &[("a", &[MockAction::Lose("gone too")])]),
        ];
        let err = run(&g, &mut db, &ExecOptions::default(), runners).unwrap_err();
        assert!(
            matches!(err, BuildError::TaskFailed { ref task, .. } if task == "a"),
            "{err:?}"
        );
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
        let report = run(&g, &mut db, &ExecOptions::default(), vec![Box::new(runner)]).unwrap();
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
        let runners: Vec<Box<dyn TaskRunner>> = vec![Box::new(LocalRunner::new(2))];
        run(&g, &mut db, &opts, runners).unwrap();
        let snaps = seen.lock().unwrap();
        let last = snaps.last().expect("at least one progress snapshot");
        assert_eq!(last.total, 2);
        assert_eq!(last.done, 2);
        assert_eq!(last.running, 0);
        assert_eq!(last.failed, 0);
    }
}
