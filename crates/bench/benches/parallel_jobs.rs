//! E8 (§IV-B): "Each job is instantiated as a node in the simulated
//! cluster and run in parallel. This optimization reduced the runtime for
//! our experiment from about two weeks to roughly two days."
//!
//! Measures a multi-node cycle-exact cluster run serially vs. in parallel,
//! and the `-j N` build sweep, each as the median of alternated runs, and
//! appends the medians to `BENCH_exec.json` (the host's core count is
//! stamped on every row: parallelism is bounded by it).

use std::time::{Duration, Instant};

use marshal_bench::{append_bench_rows, median, Row};
use marshal_depgraph::{ExecOptions, Graph, Plan, StateDb, Task};
use marshal_isa::abi;
use marshal_isa::asm::assemble;
use marshal_sim_functional::LoadedJob;
use marshal_sim_rtl::{FireSim, HardwareConfig};

fn cluster(n: usize) -> Vec<(String, LoadedJob)> {
    // One moderately long bare-metal job per node (identical work, like
    // the intspeed jobs being independent benchmarks).
    let exe = assemble(
        r#"
_start:
        li      t0, 400000
        li      t1, 0
l:      addi    t1, t1, 3
        andi    t2, t1, 7
        beqz    t2, skip
        xor     t1, t1, t0
skip:
        addi    t0, t0, -1
        bnez    t0, l
        li      a0, 0
        li      a7, 93
        ecall
"#,
        abi::USER_BASE,
    )
    .unwrap();
    (0..n)
        .map(|i| {
            (
                format!("job{i}"),
                LoadedJob::Bare {
                    bin: exe.to_bytes(),
                },
            )
        })
        .collect()
}

/// Timed runs per side; the sides alternate so drift hits both equally.
const RUNS: usize = 7;

/// Times `f` once.
fn timed<R>(f: impl FnOnce() -> R) -> (Duration, R) {
    let t0 = Instant::now();
    let out = f();
    (t0.elapsed(), out)
}

/// The §IV-B data: wall-clock time of a 10-node cluster, serial vs
/// parallel.
fn parallel_jobs(rows: &mut Vec<Row>) {
    let sim = FireSim::new(HardwareConfig::rocket());
    let nodes = cluster(10);

    // Warm-up pair, which also checks that parallelism changes no count.
    let serial = sim.launch_cluster(&nodes, false).unwrap();
    let parallel = sim.launch_cluster(&nodes, true).unwrap();
    assert_eq!(serial.len(), parallel.len());
    for (s, p) in serial.iter().zip(&parallel) {
        assert_eq!(s.report.counters.cycles, p.report.counters.cycles);
    }
    let mut serial_runs = Vec::with_capacity(RUNS);
    let mut parallel_runs = Vec::with_capacity(RUNS);
    for _ in 0..RUNS {
        for (par, runs) in [(false, &mut serial_runs), (true, &mut parallel_runs)] {
            let (elapsed, results) = timed(|| sim.launch_cluster(&nodes, par).unwrap());
            assert_eq!(results.len(), 10);
            runs.push(elapsed);
        }
    }
    let serial_time = median(serial_runs);
    let parallel_time = median(parallel_runs);
    let cores = std::thread::available_parallelism()
        .map(std::num::NonZeroUsize::get)
        .unwrap_or(1);
    println!("== §IV-B parallel jobs (10-node intspeed-style cluster, median of {RUNS}) ==");
    println!("  host cores: {cores}");
    println!("  serial:   {serial_time:?}");
    println!("  parallel: {parallel_time:?}");
    println!(
        "  speedup:  {:.2}x — bounded by min(jobs, cores) = {}x; the paper's \
         FPGA cluster ran all 10 nodes concurrently (~2 weeks -> ~2 days)",
        serial_time.as_secs_f64() / parallel_time.as_secs_f64(),
        cores.min(10)
    );
    for (variant, time) in [
        ("serial_10_jobs", serial_time),
        ("parallel_10_jobs", parallel_time),
    ] {
        let ns = time.as_nanos() as f64;
        rows.push(Row::new("parallel_jobs", variant, "median_ns", ns, "ns"));
    }
}

/// A wide build graph with CPU-bound tasks: one root fanning out to 16
/// independent "image" tasks, each joined by a "finalize" task — the shape
/// `marshal build -j N` schedules for a multi-job workload.
fn build_graph(work: u64) -> Graph {
    let spin = move |seed: u64| {
        // Deterministic busy work standing in for image assembly.
        let mut acc = seed;
        for i in 0..work {
            acc = acc.wrapping_mul(6364136223846793005).wrapping_add(i);
        }
        std::hint::black_box(acc);
    };
    let mut g = Graph::new();
    g.add(Task::new("root", move || {
        spin(1);
        Ok(())
    }))
    .unwrap();
    for i in 0..16 {
        g.add(
            Task::new(format!("img{i:02}"), move || {
                spin(i + 2);
                Ok(())
            })
            .dep("root"),
        )
        .unwrap();
    }
    let mut finalize = Task::new("finalize", move || {
        spin(99);
        Ok(())
    });
    for i in 0..16 {
        finalize = finalize.dep(format!("img{i:02}"));
    }
    g.add(finalize).unwrap();
    g
}

/// The `-j N` sweep: wall-clock time of the task scheduler at the thread
/// counts the CLI exposes, every task executed at each.
fn parallel_build(rows: &mut Vec<Row>) {
    const WORK: u64 = 2_000_000;
    const THREADS: [usize; 4] = [1, 2, 4, 8];
    let g = build_graph(WORK);
    let run = |threads: usize| {
        let mut db = StateDb::in_memory();
        let (elapsed, report) = timed(|| {
            g.execute(&mut db, Plan::local(threads), &ExecOptions::default())
                .unwrap()
        });
        assert_eq!(report.executed.len(), 18, "-j {threads} runs every task");
        elapsed
    };
    for threads in THREADS {
        run(threads);
    }
    let mut runs = vec![Vec::with_capacity(RUNS); THREADS.len()];
    for _ in 0..RUNS {
        for (i, threads) in THREADS.into_iter().enumerate() {
            runs[i].push(run(threads));
        }
    }
    println!("== `-j N` parallel build (18-task graph, 16-wide fan-out, median of {RUNS}) ==");
    let medians: Vec<Duration> = runs.into_iter().map(median).collect();
    for (threads, elapsed) in THREADS.into_iter().zip(&medians) {
        println!(
            "  -j {threads}: {elapsed:?} ({:.2}x vs -j 1)",
            medians[0].as_secs_f64() / elapsed.as_secs_f64()
        );
        let ns = elapsed.as_nanos() as f64;
        rows.push(Row::new(
            "parallel_jobs",
            format!("build_j{threads}"),
            "median_ns",
            ns,
            "ns",
        ));
    }
}

fn main() {
    let mut rows = Vec::new();
    parallel_jobs(&mut rows);
    parallel_build(&mut rows);
    append_bench_rows("BENCH_exec.json", &rows);
}
