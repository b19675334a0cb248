//! Backend launch throughput across the unified `Simulator` registry: the
//! same built artifacts launched on every backend (`qemu`, `spike`, `rtl`),
//! timed head to head. Appends each backend's mean and median launch time,
//! launches per second and retired instructions to `BENCH_backends.json`
//! at the workspace root, so the numbers accumulate a trajectory across
//! commits.
//!
//! The `interp_intspeed` row times the interpreter alone: the ten bare
//! intspeed binaries run back to back on the functional simulator, and the
//! row is the best round's host nanoseconds per retired guest instruction.
//! The `rtl_intspeed/<config>` rows time the same binaries cycle-exactly
//! through `FireSim::run` on `boom-gshare` and `boom-tage`, so the timing
//! model's cost is the gap between them and `interp_intspeed`. Each of
//! these rows also splits the best round's CPU time per guest instruction
//! by thread: `interp_cpu_ns_per_inst` is the interpreter's (the calling
//! thread's), `timing_cpu_ns_per_inst` the rest of the process (the
//! timing threads). The rtl rows add `handoff_bytes_per_inst`, the stream
//! bytes the interpreter handed to the timing model, which is
//! deterministic.

use marshal_bench::{append_bench_rows, builder_in, median, scratch, Row};
use marshal_core::launch::load_artifacts;
use marshal_core::simulator::{simulator_for, BackendOptions};
use marshal_core::BuildOptions;
use marshal_isa::{abi, assemble};
use marshal_sim_functional::{FunctionalSim, LaunchMode, LoadedJob, SimKind, SimResult};
use marshal_sim_rtl::{FireSim, HardwareConfig};
use marshal_trace::{cpu_ns, CpuClock};
use marshal_workloads::intspeed;

/// Timed launches per backend, after one warm-up launch.
const SAMPLES: u32 = 31;

/// Rounds over the ten intspeed binaries; the fastest one is reported.
const ROUNDS: u32 = 5;

/// The ten bare intspeed binaries.
fn intspeed_jobs() -> Vec<LoadedJob> {
    intspeed::benchmarks()
        .into_iter()
        .map(|(name, source)| LoadedJob::Bare {
            bin: assemble(&source, abi::USER_BASE)
                .unwrap_or_else(|e| panic!("assemble {name}: {e}"))
                .to_bytes(),
        })
        .collect()
}

/// One round over the intspeed binaries, per guest instruction: wall
/// time, the calling thread's CPU time, the other threads' CPU time and
/// the stream bytes handed to timing models.
#[derive(Debug, Clone, Copy)]
struct Round {
    wall: f64,
    interp_cpu: Option<f64>,
    timing_cpu: Option<f64>,
    handoff: f64,
}

/// Rows of host nanoseconds per guest instruction of `run` over `jobs`,
/// from the fastest of [`ROUNDS`], as `variant`; `timed` adds the rtl
/// rows' hand-off bytes.
fn intspeed_rows(
    variant: &str,
    jobs: &[LoadedJob],
    timed: bool,
    run: impl Fn(&LoadedJob) -> SimResult,
) -> Vec<Row> {
    let mut best: Option<Round> = None;
    let mut instructions = 0;
    for _ in 0..ROUNDS {
        let (thread0, process0) = (cpu_ns(CpuClock::Thread), cpu_ns(CpuClock::Process));
        let handoff0 = marshal_sim_rtl::firesim::handoff_bytes();
        let t0 = std::time::Instant::now();
        instructions = 0;
        for job in jobs {
            let result = run(job);
            assert_eq!(result.exit_code, 0, "intspeed runs clean");
            instructions += result.instructions;
        }
        let wall = t0.elapsed().as_nanos() as f64;
        let handoff = marshal_sim_rtl::firesim::handoff_bytes() - handoff0;
        let (thread1, process1) = (cpu_ns(CpuClock::Thread), cpu_ns(CpuClock::Process));
        let per_inst = |ns: u64| ns as f64 / instructions as f64;
        let interp = thread0.zip(thread1).map(|(a, b)| b - a);
        let process = process0.zip(process1).map(|(a, b)| b - a);
        let round = Round {
            wall: per_inst(wall as u64),
            interp_cpu: interp.map(per_inst),
            timing_cpu: interp
                .zip(process)
                .map(|(i, p)| per_inst(p.saturating_sub(i))),
            handoff: handoff as f64 / instructions as f64,
        };
        if best.is_none_or(|b| round.wall < b.wall) {
            best = Some(round);
        }
    }
    let best = best.expect("at least one round");
    let cpu = |ns: Option<f64>| ns.map_or("-".to_owned(), |ns| format!("{ns:.2}"));
    println!(
        "  {variant:<24} {:>6.2} ns/inst, cpu {} interp + {} timing, {:.2} B/inst handed off  \
         (best of {ROUNDS}, {instructions} instructions)",
        best.wall,
        cpu(best.interp_cpu),
        cpu(best.timing_cpu),
        best.handoff,
    );
    let row = |metric, value, unit| Row::new("backend_launch", variant, metric, value, unit);
    let mut rows = vec![
        row("ns_per_inst", best.wall, "ns"),
        row("instructions", instructions as f64, "instructions"),
    ];
    rows.extend(
        best.interp_cpu
            .map(|ns| row("interp_cpu_ns_per_inst", ns, "ns")),
    );
    rows.extend(
        best.timing_cpu
            .map(|ns| row("timing_cpu_ns_per_inst", ns, "ns")),
    );
    if timed {
        rows.push(row("handoff_bytes_per_inst", best.handoff, "bytes"));
    }
    rows
}

/// The interpreter alone, then each timing model on top of it.
fn intspeed() -> Vec<Row> {
    let jobs = intspeed_jobs();
    let sim = FunctionalSim::new(SimKind::Qemu);
    let mut rows = intspeed_rows("interp_intspeed", &jobs, false, |job| {
        sim.run(job, LaunchMode::Run, None).expect("run").0
    });
    for hw in [HardwareConfig::boom_gshare(), HardwareConfig::boom_tage()] {
        let variant = format!("rtl_intspeed/{}", hw.name);
        let sim = FireSim::new(hw);
        rows.extend(intspeed_rows(&variant, &jobs, true, |job| {
            sim.run(job, LaunchMode::Run, None).expect("run").0
        }));
    }
    rows
}

fn main() {
    let root = scratch("backend-launch");
    let mut builder = builder_in(&root);
    let products = builder
        .build("hello.json", &BuildOptions::default())
        .expect("build hello workload");
    let job = &products.jobs[0];
    let loaded = load_artifacts(job).expect("load artifacts");

    println!("== backend launch throughput (hello.json, identical artifacts) ==");
    let mut rows = Vec::new();
    for backend_name in ["qemu", "spike", "rtl"] {
        let backend = simulator_for(backend_name, &job.spec, &BackendOptions::default())
            .expect("registry backend");
        let warm = backend
            .run(&loaded, LaunchMode::Run, None)
            .expect("launch")
            .0;
        assert_eq!(warm.result.exit_code, 0, "{backend_name} runs clean");
        let mut launches = Vec::new();
        for _ in 0..SAMPLES {
            let t0 = std::time::Instant::now();
            let run = backend
                .run(&loaded, LaunchMode::Run, None)
                .expect("launch")
                .0;
            launches.push(t0.elapsed());
            std::hint::black_box(run.result.instructions);
        }
        let mean = launches.iter().sum::<std::time::Duration>() / SAMPLES;
        let median = median(launches);
        let per_sec = 1.0 / mean.as_secs_f64();
        let instructions = warm.result.instructions;
        println!(
            "  {backend_name:<6} mean {mean:>12?}  median {median:>12?}  \
             {per_sec:>8.1} launches/s  ({instructions} instructions retired)"
        );
        let row =
            |metric, value, unit| Row::new("backend_launch", backend_name, metric, value, unit);
        rows.extend([
            row("mean_ns", mean.as_nanos() as f64, "ns"),
            row("median_ns", median.as_nanos() as f64, "ns"),
            row("launches_per_sec", per_sec, "launches/s"),
            row("instructions", instructions as f64, "instructions"),
        ]);
    }
    rows.extend(intspeed());
    append_bench_rows("BENCH_backends.json", &rows);
    let _ = std::fs::remove_dir_all(root);
}
