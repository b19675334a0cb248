//! Executor-refactor regression gate: the event-channel scheduler
//! (`run_scheduler` + `LocalRunner`) against a compact replica of the
//! pre-refactor Condvar worker pool, on the same 64-task layered graph
//! with identical CPU-bound task bodies.
//!
//! The scheduler adds a dispatch loop, per-task fingerprints, state-db
//! bookkeeping, and an event channel on top of raw pooling; this bench
//! asserts all of that costs no more than 5% wall-clock on a realistic
//! task mix, and records the measurement in `BENCH_exec.json`.

use std::collections::VecDeque;
use std::sync::{Arc, Condvar, Mutex};
use std::time::{Duration, Instant};

use marshal_bench::{append_bench_rows, median, Row};
use marshal_depgraph::{ExecOptions, Graph, Plan, StateDb, Task};

/// 8 layers of 8 tasks: each task depends on two tasks of the previous
/// layer, the dependency shape of an inheritance chain fan-out.
const LAYERS: usize = 8;
const WIDTH: usize = 8;
const TASKS: usize = LAYERS * WIDTH;
const THREADS: usize = 4;
/// Spin iterations per task; sized so one task runs for a few
/// milliseconds — still orders of magnitude shorter than a real level
/// build, so the per-task overhead this gate measures is overstated, not
/// hidden, relative to production builds.
const WORK: u64 = 3_000_000;
const RUNS: usize = 7;

/// Deterministic busy work standing in for image assembly.
fn spin(seed: u64) {
    let mut acc = seed;
    for i in 0..WORK {
        acc = acc.wrapping_mul(6364136223846793005).wrapping_add(i);
    }
    std::hint::black_box(acc);
}

/// The task grid as (id, dep indices) pairs, in layer order.
fn grid() -> Vec<(String, Vec<usize>)> {
    let mut out = Vec::with_capacity(TASKS);
    for layer in 0..LAYERS {
        for i in 0..WIDTH {
            let id = format!("t{layer:02}_{i}");
            let deps = if layer == 0 {
                Vec::new()
            } else {
                let prev = (layer - 1) * WIDTH;
                vec![prev + i, prev + (i + 1) % WIDTH]
            };
            out.push((id, deps));
        }
    }
    out
}

/// The 64-task graph for the real scheduler.
fn sched_graph() -> Graph {
    let grid = grid();
    let mut g = Graph::new();
    for (idx, (id, deps)) in grid.iter().enumerate() {
        let seed = idx as u64 + 1;
        let mut task = Task::new(id.clone(), move || {
            spin(seed);
            Ok(())
        });
        for d in deps {
            task = task.dep(grid[*d].0.clone());
        }
        g.add(task).unwrap();
    }
    g
}

/// One run through the event-channel scheduler.
fn run_scheduler(g: &Graph) -> Duration {
    let mut db = StateDb::in_memory();
    let t0 = Instant::now();
    let report = g
        .execute(&mut db, Plan::local(THREADS), &ExecOptions::default())
        .unwrap();
    let elapsed = t0.elapsed();
    assert_eq!(report.executed.len(), TASKS);
    elapsed
}

/// Compact replica of the pre-refactor executor: a Condvar-signalled
/// worker pool over a shared ready queue with per-task dependency counts —
/// pure pooling, none of the scheduler's fingerprint/state/event work.
/// This is the baseline the refactor must stay within 5% of.
fn run_condvar_pool() -> Duration {
    struct State {
        ready: VecDeque<usize>,
        remaining: Vec<usize>,
        done: usize,
    }
    let grid = grid();
    let children: Vec<Vec<usize>> = {
        let mut c = vec![Vec::new(); TASKS];
        for (idx, (_, deps)) in grid.iter().enumerate() {
            for d in deps {
                c[*d].push(idx);
            }
        }
        c
    };
    let remaining: Vec<usize> = grid.iter().map(|(_, d)| d.len()).collect();
    let ready: VecDeque<usize> = remaining
        .iter()
        .enumerate()
        .filter(|(_, r)| **r == 0)
        .map(|(i, _)| i)
        .collect();
    let shared = Arc::new((
        Mutex::new(State {
            ready,
            remaining,
            done: 0,
        }),
        Condvar::new(),
    ));

    let t0 = Instant::now();
    let workers: Vec<_> = (0..THREADS)
        .map(|_| {
            let shared = Arc::clone(&shared);
            let children = children.clone();
            std::thread::spawn(move || {
                let (lock, cvar) = &*shared;
                loop {
                    let idx = {
                        let mut st = lock.lock().unwrap();
                        loop {
                            if st.done == TASKS {
                                return;
                            }
                            if let Some(idx) = st.ready.pop_front() {
                                break idx;
                            }
                            st = cvar.wait(st).unwrap();
                        }
                    };
                    spin(idx as u64 + 1);
                    let mut st = lock.lock().unwrap();
                    st.done += 1;
                    for child in &children[idx] {
                        st.remaining[*child] -= 1;
                        if st.remaining[*child] == 0 {
                            st.ready.push_back(*child);
                        }
                    }
                    cvar.notify_all();
                }
            })
        })
        .collect();
    for w in workers {
        w.join().unwrap();
    }
    let elapsed = t0.elapsed();
    assert_eq!(shared.0.lock().unwrap().done, TASKS);
    elapsed
}

fn main() {
    let g = sched_graph();
    // Warm-up, then interleave the variants so drift hits both equally.
    run_condvar_pool();
    run_scheduler(&g);
    let mut pool_runs = Vec::with_capacity(RUNS);
    let mut sched_runs = Vec::with_capacity(RUNS);
    for _ in 0..RUNS {
        pool_runs.push(run_condvar_pool());
        sched_runs.push(run_scheduler(&g));
    }
    let pool = median(pool_runs);
    let sched = median(sched_runs);
    let ratio = sched.as_secs_f64() / pool.as_secs_f64();
    println!("== exec_sched: event-channel scheduler vs pre-refactor pool ==");
    println!("  {TASKS}-task graph ({LAYERS}x{WIDTH}), {THREADS} threads, median of {RUNS}");
    println!("  condvar pool: {pool:?}");
    println!("  scheduler:    {sched:?}");
    println!("  ratio:        {ratio:.3}x");
    let rows: Vec<Row> = [("condvar_pool", pool), ("scheduler", sched)]
        .iter()
        .flat_map(|(variant, wall)| {
            let variant = format!("{variant}/tasks={TASKS}/threads={THREADS}");
            [
                Row::new(
                    "exec_sched",
                    &*variant,
                    "wall_ns",
                    wall.as_nanos() as f64,
                    "ns",
                ),
                Row::new("exec_sched", variant, "sched_pool_ratio", ratio, "ratio"),
            ]
        })
        .collect();
    // Record the measurement first, so a run that fails the gate still
    // leaves its rows in the ledger.
    append_bench_rows("BENCH_exec.json", &rows);
    assert!(
        ratio <= 1.05,
        "the scheduler must stay within 5% of the raw pool \
         (scheduler {sched:?} vs pool {pool:?}, {ratio:.3}x)"
    );
}
