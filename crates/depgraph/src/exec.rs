//! Build execution: up-to-date checking and running on one worker pool,
//! with fail-fast and keep-going failure policies.
//!
//! [`Graph::execute`] is the one entry point: a [`Plan`] names what to
//! build (the whole graph or a root subset), how many threads build it,
//! and whether it is a dry run. The threads are one pool (the private
//! `pool` module) whose workers share the build state under one lock:
//! each takes ready tasks, settles the poisoned and up-to-date ones
//! inline, and claims and runs the rest, the calling thread among them. A
//! dry run classifies the same way on the calling thread and runs
//! nothing.
//!
//! # Parallel safety
//!
//! Before anything runs, the executor audits the write claims of every
//! task in the plan ([`crate::Task::claim`]): two tasks that claim the same
//! path without a dependency ordering them are rejected with
//! [`BuildError::Conflict`]. Reports are canonicalized to topological order
//! regardless of completion order, and each task is marked in-progress in
//! the [`StateDb`] (flushed through its atomic write path) while its action
//! runs, so a crash mid-task is detected on the next run.

use std::collections::{BTreeMap, BTreeSet};
use std::fmt;

use marshal_trace::Recorder;

use crate::error::BuildError;
use crate::graph::Graph;
use crate::hash::{Fingerprint, Hasher128};
use crate::state::StateDb;

/// A point-in-time snapshot of the build, delivered to the
/// [`ExecOptions::progress`] callback on every claim and every settle.
#[derive(Debug, Clone, Copy, Default, PartialEq, Eq)]
pub struct ExecProgress {
    /// Total tasks in the plan.
    pub total: usize,
    /// Tasks ready to claim (dependencies settled, not yet taken).
    pub ready: usize,
    /// Tasks whose actions are running.
    pub running: usize,
    /// Tasks settled successfully (executed or skipped as up to date).
    pub done: usize,
    /// Tasks failed or poisoned by a failed dependency.
    pub failed: usize,
}

/// The progress-callback type: called under the executor lock by the
/// worker that changed the state, so it must not block for long.
pub type ProgressFn = std::sync::Arc<dyn Fn(&ExecProgress) + Send + Sync>;

/// Options controlling how a graph is executed, whatever its width.
#[derive(Clone, Default)]
pub struct ExecOptions {
    /// After a task fails, keep building every task that is not a
    /// transitive dependent of a failure, then return an aggregated
    /// [`BuildReport`] instead of bailing on the first error (the
    /// equivalent of `make -k`). When `false` (the default) the first
    /// failure aborts the build with [`BuildError::TaskFailed`].
    pub keep_going: bool,
    /// Event recorder for the run journal. The default (disabled) recorder
    /// costs one branch per would-be event — no channel sends, no clock
    /// reads on the scheduling hot path.
    pub recorder: Recorder,
    /// Called under the executor lock by the worker that changed the
    /// state, with a fresh [`ExecProgress`] snapshot: once per claim and
    /// once per settle. Must not block for long.
    pub progress: Option<ProgressFn>,
}

impl fmt::Debug for ExecOptions {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        f.debug_struct("ExecOptions")
            .field("keep_going", &self.keep_going)
            .field("recorder", &self.recorder)
            .field("progress", &self.progress.is_some())
            .finish()
    }
}

/// What [`Graph::execute`] builds and how: the tasks in scope, the width
/// of the pool that builds them, and whether to run them at all.
#[derive(Debug, Clone, Copy)]
pub struct Plan<'a> {
    /// Build only these tasks and their transitive dependencies; `None`
    /// builds the whole graph.
    pub roots: Option<&'a [&'a str]>,
    /// Worker threads, the calling thread included (`0` is clamped to
    /// `1`; `1` builds serially on the calling thread).
    pub threads: usize,
    /// Classify without executing: every task that would run settles as
    /// executed, nothing runs and nothing is persisted.
    pub dry_run: bool,
}

impl Plan<'_> {
    /// The whole graph on `threads` workers. Narrow it to a root subset
    /// with struct update syntax:
    /// `Plan { roots: Some(&roots), ..Plan::local(n) }`.
    pub fn local(threads: usize) -> Self {
        Plan {
            roots: None,
            threads,
            dry_run: false,
        }
    }
}

/// What a build did: which tasks executed, which were skipped as
/// up-to-date, which failed, and which were poisoned (never attempted
/// because a transitive dependency failed), in execution order.
#[derive(Debug, Clone, Default, PartialEq, Eq)]
pub struct BuildReport {
    /// Tasks whose actions ran.
    pub executed: Vec<String>,
    /// Tasks skipped because they were up to date.
    pub skipped: Vec<String>,
    /// Tasks whose action failed after exhausting the retry budget, with
    /// the failure message. Non-empty only under
    /// [`ExecOptions::keep_going`]; fail-fast mode reports the first
    /// failure as an error instead.
    pub failed: Vec<(String, String)>,
    /// Tasks never attempted because a transitive dependency failed.
    pub poisoned: Vec<String>,
}

impl BuildReport {
    /// Total tasks considered.
    pub fn total(&self) -> usize {
        self.executed.len() + self.skipped.len() + self.failed.len() + self.poisoned.len()
    }

    /// Whether the named task executed.
    pub fn ran(&self, id: &str) -> bool {
        self.executed.iter().any(|t| t == id)
    }

    /// Whether every task succeeded (nothing failed or poisoned).
    pub fn success(&self) -> bool {
        self.failed.is_empty() && self.poisoned.is_empty()
    }
}

/// Rejects plans in which two tasks claim the same write path without a
/// dependency path between them: running such a plan with more than one
/// worker would race on the file, and even serially the survivor would
/// depend on scheduling order.
///
/// Shared tree claims ([`crate::Task::claim_tree`]) are exempt from
/// tree-vs-tree conflicts — they declare idempotent content-addressed
/// writes — but an unordered *exact* claim under another task's tree is
/// still rejected: an exclusive writer racing a shared pool is a real
/// conflict.
fn audit_claims(graph: &Graph, order: &[String]) -> Result<(), BuildError> {
    // Transitive dependency sets, built dependencies-first.
    let mut ancestors: BTreeMap<&str, BTreeSet<&str>> = BTreeMap::new();
    for id in order {
        let task = graph.get(id).expect("order contains known ids");
        let mut set: BTreeSet<&str> = BTreeSet::new();
        for dep in task.deps() {
            if let Some(above) = ancestors.get(dep.as_str()) {
                set.extend(above.iter().copied());
            }
            set.insert(dep.as_str());
        }
        ancestors.insert(id.as_str(), set);
    }
    // Walk in topological order: any previously seen claimant of the same
    // path is safe only if it is an ancestor of the current task.
    let mut writers: BTreeMap<&std::path::Path, Vec<&str>> = BTreeMap::new();
    for id in order {
        let task = graph.get(id).expect("order contains known ids");
        for path in task.claims() {
            let claimants = writers.entry(path.as_path()).or_default();
            for prev in claimants.iter() {
                if !ancestors[id.as_str()].contains(prev) {
                    let (first, second) = if prev < &id.as_str() {
                        ((*prev).to_owned(), id.clone())
                    } else {
                        (id.clone(), (*prev).to_owned())
                    };
                    return Err(BuildError::Conflict {
                        path: path.display().to_string(),
                        first,
                        second,
                    });
                }
            }
            claimants.push(id.as_str());
        }
    }
    // Exact claims vs. shared tree claims: conflict unless one task is a
    // (transitive) dependency of the other, in either direction.
    let ordered = |a: &str, b: &str| ancestors[a].contains(b) || ancestors[b].contains(a);
    let mut tree_claimants: Vec<(&std::path::Path, &str)> = Vec::new();
    for id in order {
        for root in graph
            .get(id)
            .expect("order contains known ids")
            .claim_trees()
        {
            tree_claimants.push((root.as_path(), id.as_str()));
        }
    }
    if !tree_claimants.is_empty() {
        for id in order {
            let task = graph.get(id).expect("order contains known ids");
            for path in task.claims() {
                for (root, tree_task) in &tree_claimants {
                    if *tree_task == id.as_str() || !path.starts_with(root) {
                        continue;
                    }
                    if !ordered(id.as_str(), tree_task) {
                        let (first, second) = if *tree_task < id.as_str() {
                            ((*tree_task).to_owned(), id.clone())
                        } else {
                            (id.clone(), (*tree_task).to_owned())
                        };
                        return Err(BuildError::Conflict {
                            path: path.display().to_string(),
                            first,
                            second,
                        });
                    }
                }
            }
        }
    }
    Ok(())
}

/// Rewrites a report into canonical form: every list in topological order
/// (never completion order), so parallel builds are observably
/// deterministic. Each task settles once, so no list repeats a task.
fn canonicalize_report(report: &mut BuildReport, order: &[String]) {
    let pos: BTreeMap<&str, usize> = order
        .iter()
        .enumerate()
        .map(|(i, id)| (id.as_str(), i))
        .collect();
    let rank = |id: &str| pos.get(id).copied().unwrap_or(usize::MAX);
    for list in [
        &mut report.executed,
        &mut report.skipped,
        &mut report.poisoned,
    ] {
        list.sort_by_key(|id| rank(id));
    }
    report.failed.sort_by_key(|(id, _)| rank(id));
}

/// Computes each task's *cumulative* fingerprint: its own inputs combined
/// with the cumulative fingerprints of its dependencies, so an input change
/// anywhere below a task changes that task's fingerprint too.
pub(crate) fn cumulative_fingerprints(
    graph: &Graph,
    order: &[String],
) -> BTreeMap<String, Fingerprint> {
    let mut out: BTreeMap<String, Fingerprint> = BTreeMap::new();
    for id in order {
        let task = graph.get(id).expect("topo order returns known ids");
        let mut h = Hasher128::new();
        h.update_u64(task.fingerprint().0 as u64);
        h.update_u64((task.fingerprint().0 >> 64) as u64);
        let mut deps: Vec<&String> = task.deps().iter().collect();
        deps.sort();
        deps.dedup();
        for d in deps {
            let fp = out[d.as_str()];
            h.update_u64(fp.0 as u64);
            h.update_u64((fp.0 >> 64) as u64);
        }
        out.insert(id.clone(), h.finish());
    }
    out
}

impl Graph {
    /// Builds the tasks `plan` selects on a pool of `plan.threads`
    /// workers, skipping up-to-date ones.
    ///
    /// A task is up to date when its cumulative fingerprint matches the
    /// state database, all of its declared outputs exist, and none of its
    /// dependencies executed during this build. On success the state
    /// database records the new fingerprints (the caller decides when to
    /// [`StateDb::flush`]); a dry run leaves it untouched and reports the
    /// tasks that would run as [`BuildReport::executed`].
    ///
    /// # Errors
    ///
    /// Graph validation errors and [`BuildError::Conflict`] from the claim
    /// audit, both before anything runs. With [`ExecOptions::keep_going`]
    /// unset, also the first task failure (when several tasks fail
    /// concurrently, the error with the lexicographically smallest task id
    /// is reported); with it set, task failures land in
    /// [`BuildReport::failed`] / [`BuildReport::poisoned`] and the call
    /// returns `Ok`.
    ///
    /// # Panics
    ///
    /// When a task's action panics: no further task is claimed, the
    /// running ones finish, and the call panics with
    /// ``task `<id>` panicked: <message>``, leaving that task's
    /// in-progress mark set so the next run sees the interruption.
    pub fn execute(
        &self,
        db: &mut StateDb,
        plan: Plan<'_>,
        opts: &ExecOptions,
    ) -> Result<BuildReport, BuildError> {
        let order = match plan.roots {
            Some(roots) => self.subgraph_order(roots)?,
            None => self.topo_order()?,
        };
        // Audit write claims for every plan, serial included: two unordered
        // writers of one path is a latent bug at any thread count.
        audit_claims(self, &order)?;
        let mut report =
            crate::pool::run_graph(self, &order, db, plan.threads, plan.dry_run, opts)?;
        canonicalize_report(&mut report, &order);
        Ok(report)
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::task::Task;
    use std::sync::atomic::{AtomicBool, AtomicUsize, Ordering};
    use std::sync::{Arc, Mutex};

    /// A build on `threads` local workers with default options.
    fn run(g: &Graph, db: &mut StateDb, threads: usize) -> Result<BuildReport, BuildError> {
        g.execute(db, Plan::local(threads), &ExecOptions::default())
    }

    /// Options for a keep-going build.
    fn keep_going() -> ExecOptions {
        ExecOptions {
            keep_going: true,
            ..ExecOptions::default()
        }
    }

    fn counting_graph(counter: &Arc<AtomicUsize>, input_for_a: &[u8]) -> Graph {
        let mut g = Graph::new();
        let c = counter.clone();
        g.add(
            Task::new("a", move || {
                c.fetch_add(1, Ordering::SeqCst);
                Ok(())
            })
            .input(input_for_a),
        )
        .unwrap();
        let c = counter.clone();
        g.add(
            Task::new("b", move || {
                c.fetch_add(1, Ordering::SeqCst);
                Ok(())
            })
            .dep("a"),
        )
        .unwrap();
        let c = counter.clone();
        g.add(
            Task::new("c", move || {
                c.fetch_add(1, Ordering::SeqCst);
                Ok(())
            })
            .dep("b"),
        )
        .unwrap();
        g
    }

    /// A diamond with one failing leg plus an independent subtree:
    ///
    /// ```text
    ///   bad ──► mid ──► top        good ──► side
    /// ```
    fn failure_cone_graph(ran: &Arc<Mutex<Vec<&'static str>>>) -> Graph {
        let mut g = Graph::new();
        g.add(Task::new("bad", || Err("kaboom".into()))).unwrap();
        for (id, dep) in [
            ("mid", Some("bad")),
            ("top", Some("mid")),
            ("good", None),
            ("side", Some("good")),
        ] {
            let ran = ran.clone();
            let mut t = Task::new(id, move || {
                ran.lock().unwrap().push(id);
                Ok(())
            });
            if let Some(d) = dep {
                t = t.dep(d);
            }
            g.add(t).unwrap();
        }
        g
    }

    #[test]
    fn first_build_runs_everything() {
        let counter = Arc::new(AtomicUsize::new(0));
        let g = counting_graph(&counter, b"v1");
        let mut db = StateDb::in_memory();
        let report = run(&g, &mut db, 1).unwrap();
        assert_eq!(report.executed, vec!["a", "b", "c"]);
        assert_eq!(counter.load(Ordering::SeqCst), 3);
    }

    #[test]
    fn second_build_skips_everything() {
        let counter = Arc::new(AtomicUsize::new(0));
        let g = counting_graph(&counter, b"v1");
        let mut db = StateDb::in_memory();
        run(&g, &mut db, 1).unwrap();
        let report = run(&g, &mut db, 1).unwrap();
        assert!(report.executed.is_empty());
        assert_eq!(report.skipped.len(), 3);
        assert_eq!(counter.load(Ordering::SeqCst), 3);
    }

    #[test]
    fn input_change_cascades() {
        let counter = Arc::new(AtomicUsize::new(0));
        let mut db = StateDb::in_memory();
        run(&counting_graph(&counter, b"v1"), &mut db, 1).unwrap();
        // Rebuild with a changed leaf input: all three run again.
        let report = run(&counting_graph(&counter, b"v2"), &mut db, 1).unwrap();
        assert_eq!(report.executed, vec!["a", "b", "c"]);
        assert_eq!(counter.load(Ordering::SeqCst), 6);
    }

    #[test]
    fn failure_stops_build() {
        let mut g = Graph::new();
        g.add(Task::new("bad", || Err("kaboom".into()))).unwrap();
        g.add(Task::new("after", || Ok(())).dep("bad")).unwrap();
        let mut db = StateDb::in_memory();
        let err = run(&g, &mut db, 1).unwrap_err();
        assert_eq!(
            err,
            BuildError::TaskFailed {
                task: "bad".into(),
                message: "kaboom".into()
            }
        );
        // Nothing recorded for the failed task.
        assert_eq!(db.last("bad"), None);
    }

    #[test]
    fn keep_going_builds_outside_failure_cone() {
        let ran = Arc::new(Mutex::new(Vec::new()));
        let g = failure_cone_graph(&ran);
        let mut db = StateDb::in_memory();
        let opts = keep_going();
        let report = g.execute(&mut db, Plan::local(1), &opts).unwrap();
        assert!(!report.success());
        assert_eq!(report.failed, vec![("bad".to_owned(), "kaboom".to_owned())]);
        let mut poisoned = report.poisoned.clone();
        poisoned.sort();
        assert_eq!(poisoned, vec!["mid", "top"]);
        let mut executed = report.executed.clone();
        executed.sort();
        assert_eq!(executed, vec!["good", "side"]);
        // Poisoned tasks never ran, and nothing in the cone was recorded.
        assert_eq!(ran.lock().unwrap().len(), 2);
        assert_eq!(db.last("bad"), None);
        assert_eq!(db.last("mid"), None);
        // The independent subtree was recorded: a second keep-going build
        // skips it and only re-reports the failure cone.
        let report = g.execute(&mut db, Plan::local(1), &opts).unwrap();
        let mut skipped = report.skipped.clone();
        skipped.sort();
        assert_eq!(skipped, vec!["good", "side"]);
        assert_eq!(report.failed.len(), 1);
    }

    #[test]
    fn keep_going_parallel_matches_serial() {
        for threads in [2, 8] {
            let ran = Arc::new(Mutex::new(Vec::new()));
            let g = failure_cone_graph(&ran);
            let mut db = StateDb::in_memory();
            let report = g
                .execute(&mut db, Plan::local(threads), &keep_going())
                .unwrap();
            assert_eq!(report.failed.len(), 1, "threads={threads}");
            let mut poisoned = report.poisoned.clone();
            poisoned.sort();
            assert_eq!(poisoned, vec!["mid", "top"], "threads={threads}");
            let mut executed = report.executed.clone();
            executed.sort();
            assert_eq!(executed, vec!["good", "side"], "threads={threads}");
            assert_eq!(report.total(), 5, "threads={threads}");
        }
    }

    #[test]
    fn keep_going_all_green_matches_default() {
        let counter = Arc::new(AtomicUsize::new(0));
        let g = counting_graph(&counter, b"v1");
        let mut db = StateDb::in_memory();
        let report = g.execute(&mut db, Plan::local(1), &keep_going()).unwrap();
        assert!(report.success());
        assert_eq!(report.executed, vec!["a", "b", "c"]);
    }

    #[test]
    fn retries_rerun_flaky_tasks() {
        // Fails twice, then succeeds; a budget of 2 retries absorbs it.
        let attempts = Arc::new(AtomicUsize::new(0));
        let a = attempts.clone();
        let mut g = Graph::new();
        g.add(
            Task::new("flaky", move || {
                if a.fetch_add(1, Ordering::SeqCst) < 2 {
                    Err("transient".into())
                } else {
                    Ok(())
                }
            })
            .retries(2),
        )
        .unwrap();
        let mut db = StateDb::in_memory();
        let report = run(&g, &mut db, 1).unwrap();
        assert_eq!(report.executed, vec!["flaky"]);
        assert_eq!(attempts.load(Ordering::SeqCst), 3);
    }

    #[test]
    fn retries_are_bounded() {
        let attempts = Arc::new(AtomicUsize::new(0));
        let a = attempts.clone();
        let mut g = Graph::new();
        g.add(
            Task::new("hopeless", move || {
                a.fetch_add(1, Ordering::SeqCst);
                Err("always".into())
            })
            .retries(3),
        )
        .unwrap();
        let mut db = StateDb::in_memory();
        let err = run(&g, &mut db, 1).unwrap_err();
        // 1 initial + 3 retries, then the error reports the attempt count.
        assert_eq!(attempts.load(Ordering::SeqCst), 4);
        assert!(matches!(
            err,
            BuildError::TaskFailed { ref message, .. } if message == "always (after 4 attempts)"
        ));
    }

    #[test]
    fn missing_output_forces_rerun() {
        let dir = std::env::temp_dir().join(format!("depgraph-out-{}", std::process::id()));
        let _ = std::fs::remove_dir_all(&dir);
        std::fs::create_dir_all(&dir).unwrap();
        let out = dir.join("artifact");
        let counter = Arc::new(AtomicUsize::new(0));
        let c = counter.clone();
        let out2 = out.clone();
        let mut g = Graph::new();
        g.add(
            Task::new("t", move || {
                c.fetch_add(1, Ordering::SeqCst);
                std::fs::write(&out2, b"x").map_err(|e| e.to_string())
            })
            .output(&out),
        )
        .unwrap();
        let mut db = StateDb::in_memory();
        run(&g, &mut db, 1).unwrap();
        run(&g, &mut db, 1).unwrap();
        assert_eq!(counter.load(Ordering::SeqCst), 1);
        std::fs::remove_file(&out).unwrap();
        run(&g, &mut db, 1).unwrap();
        assert_eq!(counter.load(Ordering::SeqCst), 2);
        std::fs::remove_dir_all(dir).unwrap();
    }

    #[test]
    fn roots_limit_scope() {
        let counter = Arc::new(AtomicUsize::new(0));
        let mut g = counting_graph(&counter, b"v1");
        let c = counter.clone();
        g.add(Task::new("unrelated", move || {
            c.fetch_add(1, Ordering::SeqCst);
            Ok(())
        }))
        .unwrap();
        let mut db = StateDb::in_memory();
        let report = g
            .execute(
                &mut db,
                Plan {
                    roots: Some(&["b"]),
                    ..Plan::local(1)
                },
                &ExecOptions::default(),
            )
            .unwrap();
        assert_eq!(report.executed, vec!["a", "b"]);
        assert_eq!(counter.load(Ordering::SeqCst), 2);
    }

    #[test]
    fn parallel_matches_serial() {
        for threads in [1, 2, 8] {
            let counter = Arc::new(AtomicUsize::new(0));
            let g = counting_graph(&counter, b"v1");
            let mut db = StateDb::in_memory();
            let report = run(&g, &mut db, threads).unwrap();
            assert_eq!(report.executed.len(), 3, "threads={threads}");
            assert_eq!(counter.load(Ordering::SeqCst), 3);
            let report = run(&g, &mut db, threads).unwrap();
            assert!(report.executed.is_empty());
        }
    }

    #[test]
    fn parallel_wide_fanout() {
        let counter = Arc::new(AtomicUsize::new(0));
        let mut g = Graph::new();
        g.add(Task::new("root", || Ok(()))).unwrap();
        for i in 0..32 {
            let c = counter.clone();
            g.add(
                Task::new(format!("job{i:02}"), move || {
                    c.fetch_add(1, Ordering::SeqCst);
                    Ok(())
                })
                .dep("root"),
            )
            .unwrap();
        }
        let mut db = StateDb::in_memory();
        let report = run(&g, &mut db, 8).unwrap();
        assert_eq!(report.executed.len(), 33);
        assert_eq!(counter.load(Ordering::SeqCst), 32);
    }

    #[test]
    fn parallel_failure_reported() {
        let mut g = Graph::new();
        g.add(Task::new("ok", || Ok(()))).unwrap();
        g.add(Task::new("bad", || Err("pow".into()))).unwrap();
        let mut db = StateDb::in_memory();
        let err = run(&g, &mut db, 4).unwrap_err();
        assert!(matches!(err, BuildError::TaskFailed { ref task, .. } if task == "bad"));
    }

    #[test]
    fn keep_going_roots_subset() {
        // Root subsets compose with keep-going: only the requested
        // subtree is considered, and its failure cone is still tracked.
        let ran = Arc::new(Mutex::new(Vec::new()));
        let g = failure_cone_graph(&ran);
        let mut db = StateDb::in_memory();
        let plan = Plan {
            roots: Some(&["top", "side"]),
            ..Plan::local(2)
        };
        let report = g.execute(&mut db, plan, &keep_going()).unwrap();
        assert_eq!(report.failed.len(), 1);
        let mut poisoned = report.poisoned.clone();
        poisoned.sort();
        assert_eq!(poisoned, vec!["mid", "top"]);
        assert_eq!(report.total(), 5);
    }

    #[test]
    fn conflicting_claims_rejected_naming_both_tasks() {
        for threads in [1, 8] {
            let ran = Arc::new(AtomicUsize::new(0));
            let mut g = Graph::new();
            let c = ran.clone();
            g.add(
                Task::new("img:a", move || {
                    c.fetch_add(1, Ordering::SeqCst);
                    Ok(())
                })
                .output("/tmp/shared-rootfs.img"),
            )
            .unwrap();
            let c = ran.clone();
            g.add(
                Task::new("img:b", move || {
                    c.fetch_add(1, Ordering::SeqCst);
                    Ok(())
                })
                .claim("/tmp/shared-rootfs.img"),
            )
            .unwrap();
            let mut db = StateDb::in_memory();
            let err = run(&g, &mut db, threads).unwrap_err();
            match err {
                BuildError::Conflict {
                    path,
                    first,
                    second,
                } => {
                    assert_eq!(path, "/tmp/shared-rootfs.img");
                    assert_eq!((first.as_str(), second.as_str()), ("img:a", "img:b"));
                }
                other => panic!("expected Conflict, got {other:?}"),
            }
            // The audit rejects the plan before anything executes.
            assert_eq!(ran.load(Ordering::SeqCst), 0, "threads={threads}");
        }
    }

    #[test]
    fn shared_tree_claims_run_concurrently() {
        // Two unordered tasks claiming the same content-addressed store
        // tree is the expected parallel shape, not a conflict.
        let counter = Arc::new(AtomicUsize::new(0));
        let mut g = Graph::new();
        for id in ["img:a", "img:b"] {
            let c = counter.clone();
            g.add(
                Task::new(id, move || {
                    c.fetch_add(1, Ordering::SeqCst);
                    Ok(())
                })
                .claim_tree("/work/objects"),
            )
            .unwrap();
        }
        let mut db = StateDb::in_memory();
        let report = run(&g, &mut db, 4).unwrap();
        assert_eq!(report.executed.len(), 2);
        assert_eq!(counter.load(Ordering::SeqCst), 2);
    }

    #[test]
    fn exact_claim_under_foreign_tree_rejected() {
        for threads in [1, 8] {
            let mut g = Graph::new();
            g.add(Task::new("store", || Ok(())).claim_tree("/work/objects"))
                .unwrap();
            g.add(Task::new("rogue", || Ok(())).output("/work/objects/ab/x.blob"))
                .unwrap();
            let mut db = StateDb::in_memory();
            let err = run(&g, &mut db, threads).unwrap_err();
            match err {
                BuildError::Conflict {
                    path,
                    first,
                    second,
                } => {
                    assert_eq!(path, "/work/objects/ab/x.blob");
                    assert_eq!((first.as_str(), second.as_str()), ("rogue", "store"));
                }
                other => panic!("expected Conflict, got {other:?}"),
            }
        }
    }

    #[test]
    fn ordered_exact_claim_under_tree_allowed() {
        // A downstream task may write an exact path inside the store tree
        // when a dependency edge orders it after the tree claimant (e.g.
        // clean-up or verification passes).
        let mut g = Graph::new();
        g.add(Task::new("store", || Ok(())).claim_tree("/work/objects"))
            .unwrap();
        g.add(
            Task::new("verify", || Ok(()))
                .dep("store")
                .claim("/work/objects/index"),
        )
        .unwrap();
        let mut db = StateDb::in_memory();
        let report = run(&g, &mut db, 4).unwrap();
        assert_eq!(report.executed, vec!["store", "verify"]);
    }

    #[test]
    fn dependency_ordered_claims_are_allowed() {
        // Writers of the same path are fine when a dependency path orders
        // them — e.g. a finalize task rewriting an image its (transitive)
        // dependency produced.
        let mut g = Graph::new();
        g.add(Task::new("base", || Ok(())).claim("/tmp/layered.img"))
            .unwrap();
        g.add(Task::new("mid", || Ok(())).dep("base")).unwrap();
        g.add(
            Task::new("finalize", || Ok(()))
                .dep("mid")
                .claim("/tmp/layered.img"),
        )
        .unwrap();
        let mut db = StateDb::in_memory();
        let report = run(&g, &mut db, 4).unwrap();
        assert_eq!(report.executed, vec!["base", "mid", "finalize"]);
    }

    #[test]
    fn parallel_report_is_topo_ordered() {
        // Independent siblings finish in claim order, but the report
        // lists them canonically regardless of thread count.
        let mut expected = vec!["root".to_owned()];
        for threads in [1, 2, 8] {
            let mut g = Graph::new();
            g.add(Task::new("root", || Ok(()))).unwrap();
            for i in 0..24 {
                g.add(Task::new(format!("job{i:02}"), || Ok(())).dep("root"))
                    .unwrap();
            }
            let mut db = StateDb::in_memory();
            let report = run(&g, &mut db, threads).unwrap();
            if expected.len() == 1 {
                expected.extend((0..24).map(|i| format!("job{i:02}")));
            }
            assert_eq!(report.executed, expected, "threads={threads}");
        }
    }

    #[test]
    fn poisoned_cone_is_deduped_and_topo_ordered() {
        // Diamond under a failing task: `z` is reachable through both legs,
        // so a completion-order accumulator could list it twice. The
        // canonical report never does.
        for threads in [1, 8] {
            let mut g = Graph::new();
            g.add(Task::new("bad", || Err("boom".into()))).unwrap();
            g.add(Task::new("x", || Ok(())).dep("bad")).unwrap();
            g.add(Task::new("y", || Ok(())).dep("bad")).unwrap();
            g.add(Task::new("z", || Ok(())).dep("x").dep("y")).unwrap();
            let mut db = StateDb::in_memory();
            let report = g
                .execute(&mut db, Plan::local(threads), &keep_going())
                .unwrap();
            assert_eq!(report.poisoned, vec!["x", "y", "z"], "threads={threads}");
            assert_eq!(report.failed.len(), 1, "threads={threads}");
        }
    }

    #[test]
    fn interrupted_task_is_dirty_on_next_run() {
        let dir = std::env::temp_dir().join(format!("depgraph-interrupt-{}", std::process::id()));
        let _ = std::fs::remove_dir_all(&dir);
        std::fs::create_dir_all(&dir).unwrap();
        let file = dir.join("state.db");
        let counter = Arc::new(AtomicUsize::new(0));
        {
            let mut db = StateDb::open(&file).unwrap();
            run(&counting_graph(&counter, b"v1"), &mut db, 1).unwrap();
            db.flush().unwrap();
        }
        assert_eq!(counter.load(Ordering::SeqCst), 3);
        // Simulate a crash mid-`b`: the executor marks a task in-progress
        // and flushes right before running it; a crash never clears it.
        {
            let mut db = StateDb::open(&file).unwrap();
            db.mark_in_progress("b");
            db.flush().unwrap();
        }
        let mut db = StateDb::open(&file).unwrap();
        assert_eq!(db.interrupted(), ["b"]);
        let report = run(&counting_graph(&counter, b"v1"), &mut db, 1).unwrap();
        // `b` reruns (its fingerprint was discarded) and `c` follows as its
        // dependent; `a` is still clean.
        assert_eq!(report.executed, vec!["b", "c"]);
        assert_eq!(report.skipped, vec!["a"]);
        // The rerun cleared the mark durably (per-task flushes).
        let db = StateDb::open(&file).unwrap();
        assert!(db.interrupted().is_empty());
        std::fs::remove_dir_all(dir).unwrap();
    }

    #[test]
    #[cfg_attr(not(debug_assertions), ignore = "debug-only check")]
    fn undeclared_write_trips_assertion_via_executor() {
        let mut g = Graph::new();
        g.add(Task::new("sneaky", || {
            crate::claims::assert_claimed(std::path::Path::new("/tmp/undeclared.bin"));
            Ok(())
        }))
        .unwrap();
        let mut db = StateDb::in_memory();
        let result = std::panic::catch_unwind(std::panic::AssertUnwindSafe(|| run(&g, &mut db, 1)));
        assert!(result.is_err(), "undeclared write must panic in debug");
    }

    #[test]
    fn dry_run_plans_without_touching_state() {
        let mut g = Graph::new();
        g.add(Task::new("a", || Err("must never run".into())))
            .unwrap();
        g.add(Task::new("b", || Err("must never run".into())).dep("a"))
            .unwrap();
        let mut db = StateDb::in_memory();
        let plan = Plan {
            dry_run: true,
            ..Plan::local(4)
        };
        let report = g.execute(&mut db, plan, &ExecOptions::default()).unwrap();
        assert_eq!(report.executed, vec!["a", "b"]);
        // Nothing persisted: a later live build still sees both as dirty.
        assert_eq!(db.last("a"), None);
        assert_eq!(db.last("b"), None);
        assert!(db.in_progress().is_empty());
    }

    #[test]
    fn progress_callback_reaches_terminal_counts() {
        let g = counting_graph(&Arc::new(AtomicUsize::new(0)), b"v1");
        let mut db = StateDb::in_memory();
        let seen: Arc<Mutex<Vec<ExecProgress>>> = Arc::new(Mutex::new(Vec::new()));
        let sink = seen.clone();
        let opts = ExecOptions {
            progress: Some(Arc::new(move |p: &ExecProgress| {
                sink.lock().unwrap().push(*p);
            })),
            ..ExecOptions::default()
        };
        g.execute(&mut db, Plan::local(2), &opts).unwrap();
        let snaps = seen.lock().unwrap();
        let last = snaps.last().expect("at least one progress snapshot");
        assert_eq!(last.total, 3);
        assert_eq!(last.done, 3);
        assert_eq!(last.running, 0);
        assert_eq!(last.failed, 0);
    }

    #[test]
    fn failures_report_the_retry_suffix_at_every_width() {
        for threads in [1, 4] {
            let mut g = Graph::new();
            g.add(Task::new("bad", || Err("boom".to_owned())).retries(2))
                .unwrap();
            let mut db = StateDb::in_memory();
            let report = g
                .execute(&mut db, Plan::local(threads), &keep_going())
                .unwrap();
            let failed = [("bad".to_owned(), "boom (after 3 attempts)".to_owned())];
            assert_eq!(report.failed, failed, "threads={threads}");
        }
    }

    #[test]
    fn serial_build_runs_tasks_on_the_calling_thread() {
        let ran_on = Arc::new(Mutex::new(Vec::new()));
        let mut g = Graph::new();
        for (id, dep) in [("a", None), ("b", Some("a")), ("c", None)] {
            let ran_on = ran_on.clone();
            let mut t = Task::new(id, move || {
                ran_on.lock().unwrap().push(std::thread::current().id());
                Ok(())
            });
            if let Some(d) = dep {
                t = t.dep(d);
            }
            g.add(t).unwrap();
        }
        let mut db = StateDb::in_memory();
        run(&g, &mut db, 1).unwrap();
        let caller = std::thread::current().id();
        assert_eq!(*ran_on.lock().unwrap(), vec![caller; 3]);
    }

    #[test]
    fn a_panic_drains_running_siblings_and_leaves_its_task_interrupted() {
        let dir = std::env::temp_dir().join(format!("depgraph-panic-{}", std::process::id()));
        let _ = std::fs::remove_dir_all(&dir);
        std::fs::create_dir_all(&dir).unwrap();
        let file = dir.join("state.db");
        // All four tasks are in flight at once before `boom` panics: each
        // of the four workers holds one at the barrier.
        let all_running = Arc::new(std::sync::Barrier::new(4));
        let mut g = Graph::new();
        for id in ["s1", "s2", "s3"] {
            let all_running = all_running.clone();
            g.add(Task::new(id, move || {
                all_running.wait();
                std::thread::sleep(std::time::Duration::from_millis(20));
                Ok(())
            }))
            .unwrap();
        }
        g.add(Task::new("boom", move || {
            all_running.wait();
            panic!("shrapnel")
        }))
        .unwrap();
        let mut db = StateDb::open(&file).unwrap();
        let payload = std::panic::catch_unwind(std::panic::AssertUnwindSafe(|| {
            g.execute(&mut db, Plan::local(4), &ExecOptions::default())
        }))
        .expect_err("a panicking task panics the build");
        let message = payload.downcast_ref::<String>().expect("a formatted panic");
        assert_eq!(message, "task `boom` panicked: shrapnel");
        drop(db);
        let db = StateDb::open(&file).unwrap();
        assert_eq!(db.interrupted(), ["boom"]);
        // The siblings in flight finished and were recorded.
        for id in ["s1", "s2", "s3"] {
            assert!(db.last(id).is_some(), "{id} settled");
        }
        std::fs::remove_dir_all(dir).unwrap();
    }

    #[test]
    fn a_panicking_progress_callback_stops_every_worker() {
        // The callback runs under the lock on whichever worker changed the
        // state; its panic must end the build, not strand the others.
        let (tx, rx) = std::sync::mpsc::channel();
        std::thread::spawn(move || {
            let mut g = Graph::new();
            for i in 0..16 {
                g.add(Task::new(format!("t{i:02}"), || Ok(()))).unwrap();
            }
            let broke = AtomicBool::new(false);
            let opts = ExecOptions {
                // The first call comes from a claim: that task is in
                // flight and will never settle. Later calls succeed, so
                // the other workers carry on and wait for it.
                progress: Some(Arc::new(move |_: &ExecProgress| {
                    if !broke.swap(true, Ordering::SeqCst) {
                        panic!("progress sink broke");
                    }
                })),
                ..ExecOptions::default()
            };
            let mut db = StateDb::in_memory();
            let result = std::panic::catch_unwind(std::panic::AssertUnwindSafe(|| {
                g.execute(&mut db, Plan::local(4), &opts)
            }));
            tx.send(result.is_err()).unwrap();
        });
        let panicked = rx
            .recv_timeout(std::time::Duration::from_secs(30))
            .expect("the build ends instead of waiting forever");
        assert!(panicked, "the callback's panic reaches the caller");
    }

    /// `a ─► b` (up to date on a rebuild), `fresh` (its input changes
    /// between builds) and `bad ─► mid ─► top` (a failure and its cone).
    fn mixed_graph(fresh_input: &[u8]) -> Graph {
        let mut g = Graph::new();
        g.add(Task::new("a", || Ok(()))).unwrap();
        g.add(Task::new("b", || Ok(())).dep("a")).unwrap();
        g.add(Task::new("fresh", || Ok(())).input(fresh_input))
            .unwrap();
        g.add(Task::new("bad", || Err("kaboom".into()))).unwrap();
        g.add(Task::new("mid", || Ok(())).dep("bad")).unwrap();
        g.add(Task::new("top", || Ok(())).dep("mid")).unwrap();
        g
    }

    #[test]
    fn journal_counters_and_progress_come_once_per_claim_and_settle() {
        use marshal_trace::{read_journal, RecordKind};
        for threads in [1, 4] {
            let dir = std::env::temp_dir().join(format!(
                "depgraph-counters-{threads}-{}",
                std::process::id()
            ));
            let _ = std::fs::remove_dir_all(&dir);
            let mut db = StateDb::in_memory();
            mixed_graph(b"v1")
                .execute(&mut db, Plan::local(threads), &keep_going())
                .unwrap();
            let calls = Arc::new(AtomicUsize::new(0));
            let counted = calls.clone();
            let opts = ExecOptions {
                keep_going: true,
                recorder: Recorder::create(&dir, "build", &[]).unwrap(),
                progress: Some(Arc::new(move |_: &ExecProgress| {
                    counted.fetch_add(1, Ordering::SeqCst);
                })),
            };
            let report = mixed_graph(b"v2")
                .execute(&mut db, Plan::local(threads), &opts)
                .unwrap();
            assert_eq!(report.executed, ["fresh"]);
            assert_eq!(report.skipped, ["a", "b"]);
            assert_eq!(report.failed.len(), 1);
            assert_eq!(report.poisoned, ["mid", "top"]);
            // Two claims (`fresh`, `bad`) and six settles.
            let done = opts.recorder.finish().unwrap();
            let journal = read_journal(&done.journal).unwrap();
            let count = |counter: &str| {
                journal
                    .records
                    .iter()
                    .filter(
                        |r| matches!(&r.kind, RecordKind::Counter { name, .. } if name == counter),
                    )
                    .count()
            };
            assert_eq!(count("busy_workers"), 8, "threads={threads}");
            assert_eq!(count("ready_tasks"), 8, "threads={threads}");
            assert_eq!(calls.load(Ordering::SeqCst), 8, "threads={threads}");
            std::fs::remove_dir_all(dir).unwrap();
        }
    }

    #[test]
    fn report_helpers() {
        let r = BuildReport {
            executed: vec!["a".into()],
            skipped: vec!["b".into(), "c".into()],
            failed: vec![("d".into(), "boom".into())],
            poisoned: vec!["e".into()],
        };
        assert_eq!(r.total(), 5);
        assert!(r.ran("a"));
        assert!(!r.ran("b"));
        assert!(!r.success());
        assert!(BuildReport::default().success());
    }
}
