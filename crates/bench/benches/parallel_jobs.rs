//! E8 (§IV-B): "Each job is instantiated as a node in the simulated
//! cluster and run in parallel. This optimization reduced the runtime for
//! our experiment from about two weeks to roughly two days."
//!
//! Measures a multi-node cycle-exact cluster run serially vs. in parallel.

use marshal_bench::{criterion_group, criterion_main, Criterion};
use marshal_depgraph::{ExecOptions, Graph, StateDb, Task};
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

fn bench_parallel_jobs(c: &mut Criterion) {
    let sim = FireSim::new(HardwareConfig::rocket());
    let nodes = cluster(10);

    // Print the §IV-B data: wall-clock speedup at 10 nodes.
    let t0 = std::time::Instant::now();
    let serial = sim.launch_cluster(&nodes, false).unwrap();
    let serial_time = t0.elapsed();
    let t0 = std::time::Instant::now();
    let parallel = sim.launch_cluster(&nodes, true).unwrap();
    let parallel_time = t0.elapsed();
    assert_eq!(serial.len(), parallel.len());
    for (s, p) in serial.iter().zip(&parallel) {
        assert_eq!(s.report.counters.cycles, p.report.counters.cycles);
    }
    let cores = std::thread::available_parallelism()
        .map(std::num::NonZeroUsize::get)
        .unwrap_or(1);
    println!("== §IV-B parallel jobs (10-node intspeed-style cluster) ==");
    println!("  host cores: {cores}");
    println!("  serial:   {serial_time:?}");
    println!("  parallel: {parallel_time:?}");
    println!(
        "  speedup:  {:.2}x — bounded by min(jobs, cores) = {}x; the paper's \
         FPGA cluster ran all 10 nodes concurrently (~2 weeks -> ~2 days)",
        serial_time.as_secs_f64() / parallel_time.as_secs_f64(),
        cores.min(10)
    );

    let mut group = c.benchmark_group("parallel_jobs");
    group.sample_size(10);
    for (label, par) in [("serial_10_jobs", false), ("parallel_10_jobs", true)] {
        group.bench_function(label, |b| {
            b.iter(|| {
                let results = sim.launch_cluster(&nodes, par).unwrap();
                assert_eq!(results.len(), 10);
                results.len()
            })
        });
    }
    group.finish();
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

fn bench_parallel_build(c: &mut Criterion) {
    const WORK: u64 = 2_000_000;

    // Print the `-j N` sweep: wall-clock speedup of the task scheduler at
    // the thread counts the CLI exposes, with identical reports throughout.
    println!("== `-j N` parallel build (18-task graph, 16-wide fan-out) ==");
    let g = build_graph(WORK);
    let mut baseline = None;
    for threads in [1usize, 2, 4, 8] {
        let mut db = StateDb::in_memory();
        let t0 = std::time::Instant::now();
        let report = g
            .execute_with(
                &mut db,
                &ExecOptions {
                    keep_going: false,
                    threads,
                    ..ExecOptions::default()
                },
            )
            .unwrap();
        let elapsed = t0.elapsed();
        assert_eq!(report.executed.len(), 18, "-j {threads} runs every task");
        let serial = *baseline.get_or_insert(elapsed);
        println!(
            "  -j {threads}: {elapsed:?} ({:.2}x vs -j 1)",
            serial.as_secs_f64() / elapsed.as_secs_f64()
        );
    }

    let mut group = c.benchmark_group("parallel_build");
    group.sample_size(10);
    for threads in [1usize, 2, 4, 8] {
        let g = build_graph(WORK);
        group.bench_function(format!("build_j{threads}"), |b| {
            b.iter(|| {
                let mut db = StateDb::in_memory();
                let report = g
                    .execute_with(
                        &mut db,
                        &ExecOptions {
                            keep_going: false,
                            threads,
                            ..ExecOptions::default()
                        },
                    )
                    .unwrap();
                report.executed.len()
            })
        });
    }
    group.finish();
}

criterion_group!(benches, bench_parallel_jobs, bench_parallel_build);
criterion_main!(benches);
