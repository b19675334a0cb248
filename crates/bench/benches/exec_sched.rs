//! Executor regression gate: the build executor (`Graph::execute` on
//! `Plan::local`) against a compact replica of the Condvar worker pool it
//! grew from, on the same 64-task layered graph with identical CPU-bound
//! task bodies.
//!
//! The executor is that same shape of pool: its workers take ready tasks
//! under one lock and run them, and the calling thread is one of the
//! workers. On top of raw pooling it adds per-task fingerprints, the
//! up-to-date check, state-db bookkeeping and the claim audit; there is
//! no event channel and no dispatch thread. This bench asserts all of
//! that costs no more than 5% wall-clock on a realistic task mix, and
//! records the measurement in `BENCH_exec.json`. The ledger keeps the
//! variant name `scheduler` for the executor, so its rows continue the
//! series measured before the executor became a pool.
//!
//! Each variant also records the process's CPU time per task
//! (`cpu_ns_per_task`). Both variants run four workers, so a wall-clock
//! gap with equal CPU per task is the host's scheduling, not executor
//! work.

use std::collections::VecDeque;
use std::sync::{Arc, Condvar, Mutex};
use std::time::{Duration, Instant};

use marshal_bench::{append_bench_rows, median, Row};
use marshal_depgraph::{ExecOptions, Graph, Plan, StateDb, Task};
use marshal_trace::{cpu_ns, CpuClock};

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

/// Starts the clocks a run is measured on: wall time and the process's
/// CPU time.
fn clocks() -> (Instant, Option<u64>) {
    (Instant::now(), cpu_ns(CpuClock::Process))
}

/// Wall time and process CPU nanoseconds since `start` was taken.
fn elapsed((t0, cpu0): (Instant, Option<u64>)) -> (Duration, Option<u64>) {
    let cpu = cpu_ns(CpuClock::Process).zip(cpu0).map(|(c1, c0)| c1 - c0);
    (t0.elapsed(), cpu)
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

/// The 64-task graph for the executor.
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

/// One run through the executor's worker pool.
fn run_executor(g: &Graph) -> (Duration, Option<u64>) {
    let mut db = StateDb::in_memory();
    let start = clocks();
    let report = g
        .execute(&mut db, Plan::local(THREADS), &ExecOptions::default())
        .unwrap();
    let elapsed = elapsed(start);
    assert_eq!(report.executed.len(), TASKS);
    elapsed
}

/// Compact replica of the executor's pool: a Condvar-signalled worker
/// pool over a shared ready queue with per-task dependency counts — pure
/// pooling, none of the executor's fingerprint/state work. This is the
/// baseline the executor must stay within 5% of.
fn run_condvar_pool() -> (Duration, Option<u64>) {
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

    let start = clocks();
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
    let elapsed = elapsed(start);
    assert_eq!(shared.0.lock().unwrap().done, TASKS);
    elapsed
}

fn main() {
    let g = sched_graph();
    // Warm-up, then interleave the variants so drift hits both equally.
    run_condvar_pool();
    run_executor(&g);
    let (mut pool_runs, mut sched_runs) = (Vec::new(), Vec::new());
    for _ in 0..RUNS {
        pool_runs.push(run_condvar_pool());
        sched_runs.push(run_executor(&g));
    }
    // Median wall time and median CPU time per task, each over the runs.
    let medians = |runs: Vec<(Duration, Option<u64>)>| {
        let (walls, cpus): (Vec<_>, Vec<_>) = runs.into_iter().unzip();
        let cpu = median(cpus).map(|ns| ns as f64 / TASKS as f64);
        (median(walls), cpu)
    };
    let (pool, pool_cpu) = medians(pool_runs);
    let (sched, sched_cpu) = medians(sched_runs);
    let ratio = sched.as_secs_f64() / pool.as_secs_f64();
    println!("== exec_sched: build executor vs raw condvar pool ==");
    println!("  {TASKS}-task graph ({LAYERS}x{WIDTH}), {THREADS} threads, median of {RUNS}");
    println!("  condvar pool: {pool:?}, {pool_cpu:?} CPU ns/task");
    println!("  executor:     {sched:?}, {sched_cpu:?} CPU ns/task");
    println!("  ratio:        {ratio:.3}x");
    if let Some((s, p)) = sched_cpu.zip(pool_cpu) {
        println!("  CPU ratio:    {:.3}x", s / p);
    }
    let rows: Vec<Row> = [
        ("condvar_pool", pool, pool_cpu),
        ("scheduler", sched, sched_cpu),
    ]
    .into_iter()
    .flat_map(|(variant, wall, cpu)| {
        let variant = format!("{variant}/tasks={TASKS}/threads={THREADS}");
        let wall = wall.as_nanos() as f64;
        let cpu = cpu.map(|ns| Row::new("exec_sched", &*variant, "cpu_ns_per_task", ns, "ns"));
        [
            Row::new("exec_sched", &*variant, "wall_ns", wall, "ns"),
            Row::new("exec_sched", &*variant, "sched_pool_ratio", ratio, "ratio"),
        ]
        .into_iter()
        .chain(cpu)
    })
    .collect();
    // Record the measurement first, so a run that fails the gate still
    // leaves its rows in the ledger.
    append_bench_rows("BENCH_exec.json", &rows);
    assert!(
        ratio <= 1.05,
        "the executor must stay within 5% of the raw pool \
         (executor {sched:?} vs pool {pool:?}, {ratio:.3}x)"
    );
}
