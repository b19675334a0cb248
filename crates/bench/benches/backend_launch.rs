//! Backend launch throughput across the unified `Simulator` registry: the
//! same built artifacts launched on every backend (`qemu`, `spike`, `rtl`),
//! timed head to head. Appends one record per backend per run to
//! `BENCH_backends.json` at the workspace root so the numbers accumulate a
//! trajectory across commits.

use marshal_bench::{builder_in, criterion_group, criterion_main, scratch, Criterion};
use marshal_core::launch::load_artifacts;
use marshal_core::simulator::{simulator_for, BackendOptions};
use marshal_core::BuildOptions;
use marshal_sim_functional::LaunchMode;

/// One measured backend: mean wall-clock per launch and derived throughput.
struct Measured {
    backend: &'static str,
    mean_ns: u128,
    launches_per_sec: f64,
    instructions: u64,
}

fn bench_backend_launch(c: &mut Criterion) {
    let root = scratch("backend-launch");
    let mut builder = builder_in(&root);
    let products = builder
        .build("hello.json", &BuildOptions::default())
        .expect("build hello workload");
    let job = &products.jobs[0];
    let loaded = load_artifacts(job).expect("load artifacts");

    // Print the head-to-head numbers once, then hand the same routine to
    // the harness for its sampled measurement.
    println!("== backend launch throughput (hello.json, identical artifacts) ==");
    let mut measured = Vec::new();
    for backend_name in ["qemu", "spike", "rtl"] {
        let backend = simulator_for(backend_name, &job.spec, &BackendOptions::default())
            .expect("registry backend");
        const SAMPLES: u32 = 10;
        // Warm-up, then timed samples.
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
        println!(
            "  {backend_name:<6} mean {mean:>12?}  {per_sec:>8.1} launches/s  \
             ({} instructions retired)",
            warm.result.instructions
        );
        measured.push(Measured {
            backend: backend_name,
            mean_ns: mean.as_nanos(),
            launches_per_sec: per_sec,
            instructions: warm.result.instructions,
        });
    }
    append_bench_json(&measured);

    let mut group = c.benchmark_group("backend_launch");
    group.sample_size(10);
    for backend_name in ["qemu", "spike", "rtl"] {
        let backend = simulator_for(backend_name, &job.spec, &BackendOptions::default())
            .expect("registry backend");
        group.bench_function(backend_name, |b| {
            b.iter(|| {
                let run = backend
                    .run(&loaded, LaunchMode::Run, None)
                    .expect("launch")
                    .0;
                run.result.instructions
            })
        });
    }
    group.finish();
    let _ = std::fs::remove_dir_all(root);
}

/// Appends this run's records to `BENCH_backends.json` (a JSON array) at
/// the workspace root, creating it on first run. Hand-rolled JSON: the
/// build environment is offline, so no serde.
fn append_bench_json(measured: &[Measured]) {
    let path = std::path::Path::new(env!("CARGO_MANIFEST_DIR"))
        .join("..")
        .join("..")
        .join("BENCH_backends.json");
    let stamp = std::time::SystemTime::now()
        .duration_since(std::time::UNIX_EPOCH)
        .map(|d| d.as_secs())
        .unwrap_or(0);
    let mut entries: Vec<String> = Vec::new();
    if let Ok(existing) = std::fs::read_to_string(&path) {
        // The file is an array of flat objects, one per line; keep them.
        entries.extend(
            existing
                .lines()
                .map(str::trim)
                .filter(|l| l.starts_with('{'))
                .map(|l| l.trim_end_matches(',').to_owned()),
        );
    }
    for m in measured {
        entries.push(format!(
            "{{\"unix_time\": {stamp}, \"bench\": \"backend_launch\", \
             \"backend\": \"{}\", \"mean_ns\": {}, \"launches_per_sec\": {:.1}, \
             \"instructions\": {}}}",
            m.backend, m.mean_ns, m.launches_per_sec, m.instructions
        ));
    }
    let body = format!("[\n  {}\n]\n", entries.join(",\n  "));
    if let Err(e) = std::fs::write(&path, body) {
        eprintln!("note: could not record {}: {e}", path.display());
    } else {
        println!("  recorded {} entries in {}", entries.len(), path.display());
    }
}

criterion_group!(benches, bench_backend_launch);
criterion_main!(benches);
