//! Property-based tests on the build engine: topological-order validity,
//! run-once semantics, and serial/parallel equivalence over random DAGs.
//!
//! Uses the in-repo `marshal-qcheck` harness (the build environment is
//! offline, so proptest is unavailable); every case derives from a fixed
//! seed and replays deterministically.

use std::sync::atomic::{AtomicUsize, Ordering};
use std::sync::{Arc, Mutex};

use marshal_depgraph::{ExecOptions, Graph, Plan, StateDb, Task};
use marshal_qcheck::{cases, Rng};

/// A random DAG as edges (child, parent) with parent < child — acyclic by
/// construction.
fn arb_dag(rng: &mut Rng) -> (usize, Vec<(usize, usize)>) {
    let n = rng.range_usize(2, 12);
    let n_edges = rng.range_usize(0, n * 2);
    let edges = (0..n_edges)
        .map(|_| {
            let child = rng.range_usize(1, n);
            let parent = rng.range_usize(0, child);
            (child, parent)
        })
        .collect();
    (n, edges)
}

fn dag_deps(i: usize, edges: &[(usize, usize)]) -> Vec<usize> {
    let mut deps: Vec<usize> = edges
        .iter()
        .filter(|(c, _)| *c == i)
        .map(|(_, p)| *p)
        .collect();
    deps.sort_unstable();
    deps.dedup();
    deps
}

fn build_graph(n: usize, edges: &[(usize, usize)], log: &Arc<Mutex<Vec<usize>>>) -> Graph {
    let mut g = Graph::new();
    for i in 0..n {
        let log = log.clone();
        let mut t = Task::new(format!("t{i:02}"), move || {
            log.lock().unwrap().push(i);
            Ok(())
        });
        for d in dag_deps(i, edges) {
            t = t.dep(format!("t{d:02}"));
        }
        g.add(t).unwrap();
    }
    g
}

#[test]
fn topo_order_respects_edges() {
    cases(128, |rng| {
        let (n, edges) = arb_dag(rng);
        let log = Arc::new(Mutex::new(Vec::new()));
        let g = build_graph(n, &edges, &log);
        let order = g.topo_order().unwrap();
        assert_eq!(order.len(), n);
        let pos = |id: &str| order.iter().position(|o| o == id).unwrap();
        for (child, parent) in &edges {
            assert!(
                pos(&format!("t{parent:02}")) < pos(&format!("t{child:02}")),
                "t{parent:02} must precede t{child:02}"
            );
        }
    });
}

#[test]
fn execute_runs_each_task_exactly_once() {
    cases(128, |rng| {
        let (n, edges) = arb_dag(rng);
        let log = Arc::new(Mutex::new(Vec::new()));
        let g = build_graph(n, &edges, &log);
        let mut db = StateDb::in_memory();
        let report = g
            .execute(&mut db, Plan::local(1), &ExecOptions::default())
            .unwrap();
        assert_eq!(report.executed.len(), n);
        let mut ran = log.lock().unwrap().clone();
        ran.sort_unstable();
        assert_eq!(ran, (0..n).collect::<Vec<_>>());

        // Execution order respected dependencies.
        let ran = log.lock().unwrap().clone();
        let pos = |i: usize| ran.iter().position(|r| *r == i).unwrap();
        for (child, parent) in &edges {
            assert!(pos(*parent) < pos(*child));
        }

        // Second run: all skipped.
        let report = g
            .execute(&mut db, Plan::local(1), &ExecOptions::default())
            .unwrap();
        assert!(report.executed.is_empty());
        assert_eq!(report.skipped.len(), n);
    });
}

#[test]
fn parallel_equals_serial() {
    cases(64, |rng| {
        let (n, edges) = arb_dag(rng);
        let count = Arc::new(AtomicUsize::new(0));
        let mut g = Graph::new();
        for i in 0..n {
            let count = count.clone();
            let mut t = Task::new(format!("t{i:02}"), move || {
                count.fetch_add(1, Ordering::SeqCst);
                Ok(())
            });
            for d in dag_deps(i, &edges) {
                t = t.dep(format!("t{d:02}"));
            }
            g.add(t).unwrap();
        }
        let mut db = StateDb::in_memory();
        let report = g
            .execute(&mut db, Plan::local(4), &ExecOptions::default())
            .unwrap();
        assert_eq!(report.executed.len(), n);
        assert_eq!(count.load(Ordering::SeqCst), n);
        // Parallel run records the same state a serial run would: a serial
        // re-execute skips everything.
        let report = g
            .execute(&mut db, Plan::local(1), &ExecOptions::default())
            .unwrap();
        assert!(report.executed.is_empty());
    });
}

/// StateDb round-trips through flush/open, and survives arbitrary
/// truncation of the on-disk file: open() either loads the data intact or
/// recovers with a cold cache — it never panics and never errors.
#[test]
fn statedb_survives_truncation() {
    let dir = std::env::temp_dir().join(format!(
        "marshal-depgraph-prop-trunc-{}",
        std::process::id()
    ));
    let _ = std::fs::remove_dir_all(&dir);
    std::fs::create_dir_all(&dir).unwrap();
    cases(128, |rng| {
        let file = dir.join("state.db");
        let _ = std::fs::remove_file(&file);
        let _ = std::fs::remove_file(dir.join("state.db.corrupt"));
        let mut db = StateDb::open(&file).unwrap();
        let n = rng.range_usize(0, 12);
        for i in 0..n {
            db.record(
                format!("task{i:02}"),
                marshal_depgraph::Fingerprint::of(&rng.bytes_in(0, 16)),
            );
        }
        db.flush().unwrap();
        let full = std::fs::read(&file).unwrap();

        // Untouched file round-trips exactly.
        let back = StateDb::open(&file).unwrap();
        assert!(back.recovery().is_none());
        assert_eq!(back.len(), n);

        // Truncated file: clean load only if nothing was actually lost.
        let cut = rng.range_usize(0, full.len() + 1);
        std::fs::write(&file, &full[..cut]).unwrap();
        let back = StateDb::open(&file).unwrap();
        if back.recovery().is_none() {
            assert_eq!(back.len(), n, "silent data loss after cut at {cut}");
        } else {
            assert!(back.is_empty(), "recovery must mean cold cache");
        }
    });
    let _ = std::fs::remove_dir_all(&dir);
}

/// Bit-flips anywhere in the state file are either harmless to the parsed
/// contents or detected and recovered from — never a panic, never silently
/// wrong data.
#[test]
fn statedb_survives_bitflips() {
    let dir =
        std::env::temp_dir().join(format!("marshal-depgraph-prop-flip-{}", std::process::id()));
    let _ = std::fs::remove_dir_all(&dir);
    std::fs::create_dir_all(&dir).unwrap();
    cases(128, |rng| {
        let file = dir.join("state.db");
        let _ = std::fs::remove_file(&file);
        let _ = std::fs::remove_file(dir.join("state.db.corrupt"));
        let mut db = StateDb::open(&file).unwrap();
        let n = rng.range_usize(1, 8);
        let mut expect = Vec::new();
        for i in 0..n {
            let fp = marshal_depgraph::Fingerprint::of(&rng.bytes_in(0, 16));
            db.record(format!("task{i:02}"), fp);
            expect.push((format!("task{i:02}"), fp));
        }
        db.flush().unwrap();

        let mut bytes = std::fs::read(&file).unwrap();
        let idx = rng.range_usize(0, bytes.len());
        let bit = 1u8 << rng.range_u64(0, 8);
        bytes[idx] ^= bit;
        std::fs::write(&file, &bytes).unwrap();

        let back = StateDb::open(&file).unwrap();
        if back.recovery().is_none() {
            // Clean load must mean the flip did not alter any entry.
            for (id, fp) in &expect {
                assert_eq!(back.last(id), Some(*fp), "silent corruption of {id}");
            }
        } else {
            assert!(back.is_empty());
        }
    });
    let _ = std::fs::remove_dir_all(&dir);
}

#[test]
fn fingerprints_differ_by_input() {
    cases(256, |rng| {
        let a = rng.bytes_in(0, 32);
        let b = rng.bytes_in(0, 32);
        if a == b {
            return;
        }
        let ta = Task::new("t", || Ok(())).input(&a);
        let tb = Task::new("t", || Ok(())).input(&b);
        assert_ne!(ta.fingerprint(), tb.fingerprint());
    });
}
