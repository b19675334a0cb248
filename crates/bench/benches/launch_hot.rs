//! The launch hot loop with boot checkpointing off vs on: the same built
//! artifacts launched cold (full firmware → kernel → init boot every time)
//! and checkpointed (boot restored from a verified snapshot, only the
//! payload re-executed). `test` fleets and cosim re-launch the same image
//! dozens of times, so amortizing the boot is the whole point.
//!
//! The measured workload is `fedora-base.json`: the boot-dominated case
//! (systemd init over a 2 GiB rootfs, no payload command) where the
//! checkpoint's O(memory-copy) restore is isolated from payload cost.
//! Payload-dominated launches are served by the other half of the fast
//! path — the predecoded-instruction cache and demand-paged user memory —
//! and are covered by `backend_launch`. The bench asserts the speedup
//! floor (10x full, 5x in `MARSHAL_BENCH_SMOKE=1` smoke mode) and appends
//! each side's mean launch time, launches per second and the speedup to
//! `BENCH_backends.json`.

use marshal_bench::{append_bench_rows, builder_in, scratch, Row};
use marshal_core::launch::{load_artifacts, run_checkpointed};
use marshal_core::simulator::{simulator_for, BackendOptions};
use marshal_core::{BuildOptions, CheckpointStore};
use marshal_sim_functional::LaunchMode;
use marshal_trace::Recorder;

fn smoke() -> bool {
    std::env::var("MARSHAL_BENCH_SMOKE").is_ok_and(|v| !v.is_empty() && v != "0")
}

fn main() {
    let (samples, rounds, floor) = if smoke() { (10, 2, 5.0) } else { (40, 3, 10.0) };
    let root = scratch("launch-hot");
    let mut builder = builder_in(&root);
    let products = builder
        .build("fedora-base.json", &BuildOptions::default())
        .expect("build fedora-base workload");
    let job = &products.jobs[0];
    let loaded = load_artifacts(job).expect("load artifacts");
    let backend =
        simulator_for("qemu", &job.spec, &BackendOptions::default()).expect("registry backend");
    let store = CheckpointStore::new(builder.workdir());
    let rec = Recorder::disabled();

    // Warm both sides; the first checkpointed launch boots cold and writes
    // the snapshot, so the timed loop below is pure restore.
    let cold = backend
        .run(&loaded, LaunchMode::Run, None)
        .expect("cold launch")
        .0;
    assert_eq!(cold.result.exit_code, 0, "payload runs clean");
    let (restored, _) = run_checkpointed(
        backend.as_ref(),
        &loaded,
        LaunchMode::Run,
        Some(&store),
        "bench",
        &rec,
    )
    .expect("capturing launch");
    // The restore must be bit-identical to the cold boot — speed without
    // that guarantee would be worthless.
    assert_eq!(cold.result.serial, restored.result.serial, "serial differs");
    assert_eq!(cold.result.exit_code, restored.result.exit_code);
    assert_eq!(cold.result.instructions, restored.result.instructions);

    // Interleave off/on rounds and keep each side's best round, so one
    // scheduler hiccup cannot fake (or mask) the speedup.
    let mut off_ns = u128::MAX;
    let mut on_ns = u128::MAX;
    for _ in 0..rounds {
        let t0 = std::time::Instant::now();
        for _ in 0..samples {
            let run = backend
                .run(&loaded, LaunchMode::Run, None)
                .expect("cold launch")
                .0;
            std::hint::black_box(run.result.instructions);
        }
        off_ns = off_ns.min((t0.elapsed() / samples).as_nanos());

        let t0 = std::time::Instant::now();
        for _ in 0..samples {
            let (run, warnings) = run_checkpointed(
                backend.as_ref(),
                &loaded,
                LaunchMode::Run,
                Some(&store),
                "bench",
                &rec,
            )
            .expect("restored launch");
            assert!(warnings.is_empty(), "unexpected warnings: {warnings:?}");
            std::hint::black_box(run.result.instructions);
        }
        on_ns = on_ns.min((t0.elapsed() / samples).as_nanos());
    }

    let speedup = off_ns as f64 / on_ns as f64;
    let mode = if smoke() { "smoke" } else { "full" };
    println!("== launch hot loop, boot checkpoint off vs on (fedora-base.json, qemu, {mode}) ==");
    println!("  checkpoint off  mean {off_ns:>9} ns/launch");
    println!("  checkpoint on   mean {on_ns:>9} ns/launch  ({speedup:.1}x)");
    assert!(
        speedup >= floor,
        "checkpoint speedup {speedup:.1}x is below the {floor}x floor"
    );
    let rows: Vec<Row> = [("checkpoint-off", off_ns), ("checkpoint-on", on_ns)]
        .iter()
        .flat_map(|&(variant, mean_ns)| {
            let row = |metric, value, unit| Row::new("launch_hot", variant, metric, value, unit);
            [
                row("mean_ns", mean_ns as f64, "ns"),
                row("launches_per_sec", 1e9 / mean_ns as f64, "launches/s"),
                row("speedup", speedup, "x"),
            ]
        })
        .collect();
    append_bench_rows("BENCH_backends.json", &rows);
    let _ = std::fs::remove_dir_all(root);
}
