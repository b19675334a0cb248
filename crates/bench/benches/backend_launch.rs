//! Backend launch throughput across the unified `Simulator` registry: the
//! same built artifacts launched on every backend (`qemu`, `spike`, `rtl`),
//! timed head to head. Appends each backend's mean launch time, launches
//! per second and retired instructions to `BENCH_backends.json` at the
//! workspace root, so the numbers accumulate a trajectory across commits.

use marshal_bench::{append_bench_rows, builder_in, scratch, Row};
use marshal_core::launch::load_artifacts;
use marshal_core::simulator::{simulator_for, BackendOptions};
use marshal_core::BuildOptions;
use marshal_sim_functional::LaunchMode;

/// Timed launches per backend, after one warm-up launch.
const SAMPLES: u32 = 10;

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
        let t0 = std::time::Instant::now();
        for _ in 0..SAMPLES {
            let run = backend
                .run(&loaded, LaunchMode::Run, None)
                .expect("launch")
                .0;
            std::hint::black_box(run.result.instructions);
        }
        let mean = t0.elapsed() / SAMPLES;
        let per_sec = 1.0 / mean.as_secs_f64();
        let instructions = warm.result.instructions;
        println!(
            "  {backend_name:<6} mean {mean:>12?}  {per_sec:>8.1} launches/s  \
             ({instructions} instructions retired)"
        );
        let row =
            |metric, value, unit| Row::new("backend_launch", backend_name, metric, value, unit);
        rows.extend([
            row("mean_ns", mean.as_nanos() as f64, "ns"),
            row("launches_per_sec", per_sec, "launches/s"),
            row("instructions", instructions as f64, "instructions"),
        ]);
    }
    append_bench_rows("BENCH_backends.json", &rows);
    let _ = std::fs::remove_dir_all(root);
}
