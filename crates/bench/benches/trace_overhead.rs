//! Recorder overhead on the launch hot path: the same built artifacts
//! launched with the run journal off and on, head to head. The journal's
//! cost budget is <5% of launch throughput (an mpsc send plus timestamp
//! per event, with the file I/O on a separate writer thread); the bench
//! asserts that budget and appends both medians and their delta to
//! `BENCH_backends.json` alongside the `backend_launch` rows.

use marshal_bench::{append_bench_rows, builder_in, median, scratch, Row};
use marshal_core::launch::launch_job;
use marshal_core::{BuildOptions, LaunchOptions};
use marshal_trace::Recorder;

const SAMPLES: usize = 150;

fn main() {
    let root = scratch("trace-overhead");
    let mut builder = builder_in(&root);
    let products = builder
        .build("hello.json", &BuildOptions::default())
        .expect("build hello workload");
    let opts = LaunchOptions::default();

    // One timed launch, in nanoseconds.
    let launch_ns = |builder: &marshal_core::Builder| -> u128 {
        let t0 = std::time::Instant::now();
        let out = launch_job(builder, &products, 0, &opts).expect("launch");
        std::hint::black_box(out.instructions);
        t0.elapsed().as_nanos()
    };

    // Warm both configurations, then interleave off/on launches pairwise
    // and compare the medians. The launch path is filesystem-bound, so
    // per-launch times have heavy right tails; a min- or mean-of-rounds
    // comparison lets one round's I/O spikes land on one side and has
    // historically produced nonsense ("journal on is 10% faster"). Pairing
    // cancels drift, the median ignores the tail.
    let recorder = Recorder::create(&root.join("work"), "bench", &[("workload", "hello.json")])
        .expect("create journal");
    builder.set_recorder(Recorder::disabled());
    let warm = launch_job(&builder, &products, 0, &opts).expect("launch");
    assert_eq!(warm.exit_code, 0, "payload runs clean");
    let mut off = Vec::with_capacity(SAMPLES);
    let mut on = Vec::with_capacity(SAMPLES);
    for _ in 0..SAMPLES {
        builder.set_recorder(Recorder::disabled());
        off.push(launch_ns(&builder));
        builder.set_recorder(recorder.clone());
        on.push(launch_ns(&builder));
    }
    builder.set_recorder(Recorder::disabled());
    let finished = recorder.finish().expect("journal written");
    assert!(
        finished.events > SAMPLES as u64,
        "recorder-on launches must actually journal sim spans"
    );
    let off_ns = median(off);
    let on_ns = median(on);

    let delta_pct = (on_ns as f64 - off_ns as f64) * 100.0 / off_ns as f64;
    println!("== run-journal overhead on launch (hello.json, qemu) ==");
    println!("  recorder off  median {off_ns:>9} ns/launch");
    println!("  recorder on   median {on_ns:>9} ns/launch  (delta {delta_pct:+.2}%)");
    // Two-sided: a large negative delta means the measurement itself is
    // unstable (the recorder cannot make launches faster), and has in the
    // past produced a nonsense "journal on is 10% faster" record.
    assert!(
        delta_pct.abs() < 5.0,
        "recorder overhead {delta_pct:+.2}% is outside the ±5% budget \
         (negative deltas beyond noise mean the measurement is unstable)"
    );
    let row = |metric, value, unit| Row::new("trace_overhead", "", metric, value, unit);
    append_bench_rows(
        "BENCH_backends.json",
        &[
            row("recorder_off_ns", off_ns as f64, "ns"),
            row("recorder_on_ns", on_ns as f64, "ns"),
            row("delta_pct", delta_pct, "%"),
        ],
    );
    let _ = std::fs::remove_dir_all(root);
}
