//! perfbench: one command that drives FireMarshal's user flows in-process
//! against the public library API, checks their outputs, and reports
//! end-to-end and per-layer metrics.
//!
//! ```text
//! cargo run --release --manifest-path perfbench/Cargo.toml -- \
//!     --workload fig6|devloop|funcfleet --seed N --seconds S --trace 0|1
//! ```
//!
//! With `--trace 0` the recorder is off and the command reports the
//! workload's end-to-end metrics: the fastest iteration of its flow and the
//! median set-up time. With `--trace 1` it runs every flow with
//! the journal off and on, round after round, and reports the per-layer
//! metrics. The last line of standard output is one JSON object; the lines
//! before it are the same numbers for people. See `README.md` beside this
//! file for the workloads and metrics.

mod flows;
mod journal;

use std::collections::BTreeMap;
use std::path::{Path, PathBuf};
use std::time::{Duration, Instant};

use flows::{Flow, Iter, Sample, Tally};
use marshal_trace::Recorder;

const USAGE: &str =
    "usage: perfbench --workload fig6|devloop|funcfleet --seed N --seconds S --trace 0|1";

/// The workloads, in the order a traced run sweeps them.
const WORKLOADS: [&str; 3] = ["fig6", "devloop", "funcfleet"];

/// Set-ups per untraced run; `setup_s` is their median.
const SETUPS: usize = 5;

/// Flow steps: timed with the recorder off, in every traced round.
const STEPS: [&str; 9] = [
    "fig6_s",
    "rtl_mips",
    "build_cold_ms",
    "build_noop_ms",
    "build_leaf_ms",
    "launch_func_ms",
    "test_ms",
    "cosim_ms",
    "func_mips",
];

/// Every per-layer metric a traced run reports, with its unit.
const PER_LAYER: [(&str, &str); 60] = [
    ("fig6_s", "s"),
    ("rtl_mips", "inst/us"),
    ("build_cold_ms", "ms"),
    ("build_noop_ms", "ms"),
    ("build_leaf_ms", "ms"),
    ("launch_func_ms", "ms"),
    ("test_ms", "ms"),
    ("cosim_ms", "ms"),
    ("func_mips", "inst/us"),
    ("error_rate", "ratio"),
    ("config.resolve_ms", "ms"),
    ("core.build.untasked_ms", "ms"),
    ("depgraph.tasks_executed", "count"),
    ("depgraph.tasks_skipped", "count"),
    ("depgraph.task_ms.img", "ms"),
    ("depgraph.task_ms.jobimg", "ms"),
    ("depgraph.task_ms.boot", "ms"),
    ("depgraph.task_ms.bin", "ms"),
    ("depgraph.claim_wait_us", "us"),
    ("image.blob_put.count", "count"),
    ("image.blob_put.bytes", "bytes"),
    ("image.blob_get.count", "count"),
    ("image.blob_get.bytes", "bytes"),
    ("image.cache.hits", "count"),
    ("image.cache.misses", "count"),
    ("core.load_artifacts_ms", "ms"),
    ("core.checkpoint.hits", "count"),
    ("core.checkpoint.misses", "count"),
    ("core.checkpoint.restore_ms", "ms"),
    ("sim_functional.run_ms.qemu", "ms"),
    ("sim_functional.run_ms.spike", "ms"),
    ("sim_functional.host_ns_per_inst", "ns"),
    ("sim_rtl.node_ms.gshare", "ms"),
    ("sim_rtl.node_ms.tage", "ms"),
    ("sim_rtl.host_ns_per_inst.gshare", "ns"),
    ("sim_rtl.host_ns_per_inst.tage", "ns"),
    ("sim_rtl.timing_model_share", "ratio"),
    ("sim_rtl.cycles.gshare", "cycles"),
    ("sim_rtl.cycles.tage", "cycles"),
    ("sim_rtl.instructions", "count"),
    ("sim_rtl.mispredicts.gshare", "count"),
    ("sim_rtl.mispredicts.tage", "count"),
    ("sim_rtl.icache_misses.gshare", "count"),
    ("sim_rtl.icache_misses.tage", "count"),
    ("sim_rtl.dcache_misses.gshare", "count"),
    ("sim_rtl.dcache_misses.tage", "count"),
    ("sim_rtl.l2_misses.gshare", "count"),
    ("sim_rtl.l2_misses.tage", "count"),
    ("sim_rtl.pfa.cycles.swpaging", "cycles"),
    ("sim_rtl.pfa.cycles.pfa", "cycles"),
    ("sim_rtl.pfa.faults", "count"),
    ("sim_rtl.pfa.mean_latency.swpaging", "cycles"),
    ("sim_rtl.pfa.mean_latency.pfa", "cycles"),
    ("core.output.collect_ms", "ms"),
    ("script.post_hook_ms", "ms"),
    ("core.install_ms", "ms"),
    ("core.test.compare_ms", "ms"),
    ("core.cosim.compare_ms", "ms"),
    ("trace.overhead_pct", "%"),
    ("trace.events", "count"),
];

struct Args {
    workload: &'static str,
    seed: u64,
    seconds: u64,
    trace: bool,
}

fn parse_args() -> Result<Args, String> {
    let argv: Vec<String> = std::env::args().skip(1).collect();
    let mut flags = BTreeMap::new();
    for pair in argv.chunks(2) {
        match pair {
            [k, v] if k.starts_with("--") => flags.insert(k.as_str(), v.as_str()),
            _ => return Err(format!("bad arguments: {argv:?}")),
        };
    }
    let flag = |k: &str| flags.get(k).copied().ok_or(format!("missing {k}"));
    let number = |k: &str| flag(k)?.parse::<u64>().map_err(|e| format!("{k}: {e}"));
    let name = flag("--workload")?;
    let args = Args {
        workload: WORKLOADS
            .into_iter()
            .find(|w| *w == name)
            .ok_or(format!("unknown workload `{name}`"))?,
        seed: number("--seed")?,
        seconds: number("--seconds")?,
        trace: match flag("--trace")? {
            "0" => false,
            "1" => true,
            other => return Err(format!("--trace must be 0 or 1, not `{other}`")),
        },
    };
    if flags.len() != 4 {
        return Err(format!("unexpected arguments: {argv:?}"));
    }
    Ok(args)
}

/// Host threads; builds use at most this many.
fn nproc() -> usize {
    std::thread::available_parallelism().map_or(1, |n| n.get())
}

/// The checkout's git revision, read from `.git` without running git;
/// `unknown` outside a git checkout.
fn git_rev() -> String {
    let read = |p: &str| std::fs::read_to_string(Path::new(".git").join(p)).ok();
    let rev = match read("HEAD") {
        Some(head) => match head.trim().strip_prefix("ref: ") {
            Some(name) => read(name).or_else(|| {
                read("packed-refs")?
                    .lines()
                    .find(|l| l.ends_with(name))
                    .map(str::to_owned)
            }),
            None => Some(head),
        },
        None => None,
    };
    rev.and_then(|r| r.get(..12).map(str::to_owned))
        .unwrap_or_else(|| "unknown".to_owned())
}

/// Scratch space inside the checkout, removed when dropped.
struct Scratch(PathBuf);

impl Scratch {
    fn new() -> Result<Scratch, String> {
        let dir = Path::new(".perfbench-scratch").join(std::process::id().to_string());
        let _ = std::fs::remove_dir_all(&dir);
        std::fs::create_dir_all(&dir).map_err(|e| format!("mkdir {}: {e}", dir.display()))?;
        let dir = dir.canonicalize().map_err(|e| e.to_string())?;
        Ok(Scratch(dir))
    }
}

impl Drop for Scratch {
    fn drop(&mut self) {
        let _ = std::fs::remove_dir_all(&self.0);
        if let Some(parent) = self.0.parent() {
            // Only succeeds once no other run is using it.
            let _ = std::fs::remove_dir(parent);
        }
    }
}

fn sorted(v: &[f64]) -> Vec<f64> {
    let mut s = v.to_vec();
    s.sort_by(f64::total_cmp);
    s
}

/// The `q` quantile, interpolating between neighbouring samples.
fn quantile(v: &[f64], q: f64) -> f64 {
    let s = sorted(v);
    if s.is_empty() {
        return 0.0;
    }
    let pos = q * (s.len() - 1) as f64;
    let (lo, hi) = (pos.floor() as usize, pos.ceil() as usize);
    s[lo] + (s[hi] - s[lo]) * (pos - lo as f64)
}

fn median(v: &[f64]) -> f64 {
    quantile(v, 0.5)
}

/// The highest percentile with at least ten samples beyond it, when it
/// is at or above the median: `(percentile, value)`.
fn tail(v: &[f64]) -> Option<(f64, f64)> {
    let s = sorted(v);
    let k = s.len().checked_sub(11)?;
    let pct = (k + 1) as f64 * 100.0 / s.len() as f64;
    (pct >= 50.0).then(|| (pct, s[k]))
}

fn unit(name: &str) -> &'static str {
    PER_LAYER
        .iter()
        .find(|(n, _)| *n == name)
        .map_or("", |(_, u)| u)
}

type Metrics = Vec<(&'static str, f64, &'static str)>;

/// Runs one iteration of `flow`, journaling it when `traced`.
fn iterate(
    flow: &mut dyn Flow,
    name: &str,
    traced: bool,
    tally: &mut Tally,
) -> Result<Sample, String> {
    let rec = if traced {
        Recorder::create(flow.workdir(), "perfbench", &[("workload", name)])?
    } else {
        Recorder::disabled()
    };
    let mut it = Iter {
        rec: rec.clone(),
        tally,
        sample: Sample::default(),
    };
    let result = flow.iterate(&mut it);
    let mut sample = it.sample;
    if let Some(done) = rec.finish() {
        let journal = marshal_trace::read_journal(&done.journal)?;
        journal::layer_values(&journal, &mut sample.values);
        if let Some(dir) = done.journal.parent() {
            let _ = std::fs::remove_dir_all(dir);
        }
    }
    result.map(|()| sample)
}

/// The untraced run: set up `SETUPS` times, then iterate the workload's
/// flow for the run's length.
fn untraced_run(args: &Args, scratch: &Path, tally: &mut Tally) -> Result<Metrics, String> {
    // Each set-up gets its own root; all are removed with the scratch space.
    let mut setups = Vec::new();
    let mut flow = None;
    for k in 0..SETUPS {
        let t0 = Instant::now();
        let root = scratch.join(format!("{}-{k}", args.workload));
        flow = Some(flows::setup(args.workload, &root, args.seed, tally)?);
        setups.push(t0.elapsed().as_secs_f64());
    }
    let mut flow = flow.expect("SETUPS > 0");
    let mut walls = Vec::new();
    let mut steps: BTreeMap<String, Vec<f64>> = BTreeMap::new();
    let t0 = Instant::now();
    while walls.is_empty() || t0.elapsed() < Duration::from_secs(args.seconds) {
        let sample = iterate(flow.as_mut(), args.workload, false, tally)?;
        walls.push(sample.wall_ms);
        for (k, v) in sample.values {
            steps.entry(k).or_default().push(v);
        }
    }
    for (k, v) in steps.iter().filter(|(k, _)| !k.starts_with('_')) {
        println!("  {k:<36} {:>14.4} {}", median(v), unit(k));
    }
    // The end-to-end figure is the fastest iteration; the median, quartiles
    // and tail are printed beside it (see README.md for why).
    let fastest = sorted(&walls)[0];
    let (q1, q3) = (quantile(&walls, 0.25), quantile(&walls, 0.75));
    println!(
        "  flow: min {fastest:.4} ms, median {:.4} ms, quartiles {q1:.4}..{q3:.4} ms, {} samples",
        median(&walls),
        walls.len()
    );
    match tail(&walls) {
        Some((pct, v)) => println!("  flow p{pct:.0}: {v:.4} ms"),
        None => println!("  flow: too few samples for a tail"),
    }
    println!("  setup_s median of {SETUPS}: {:.4} s", median(&setups));
    Ok(vec![
        ("flow_min_ms", fastest, "ms"),
        ("setup_s", median(&setups), "s"),
    ])
}

/// The traced run: every flow once with the recorder off and once with it
/// on per round (alternating which goes first), for the run's length.
fn traced_run(args: &Args, scratch: &Path, tally: &mut Tally) -> Result<Metrics, String> {
    let mut flows = Vec::new();
    for name in WORKLOADS {
        flows.push(flows::setup(name, &scratch.join(name), args.seed, tally)?);
    }
    let mut rounds: Vec<BTreeMap<String, f64>> = Vec::new();
    let mut steps: BTreeMap<String, Vec<f64>> = BTreeMap::new();
    let (mut off, mut on) = (Vec::new(), Vec::new());
    let t0 = Instant::now();
    while rounds.is_empty() || t0.elapsed() < Duration::from_secs(args.seconds) {
        let mut merged = BTreeMap::new();
        let traced_first = !rounds.len().is_multiple_of(2);
        for (name, flow) in WORKLOADS.into_iter().zip(flows.iter_mut()) {
            for traced in [traced_first, !traced_first] {
                let sample = iterate(flow.as_mut(), name, traced, tally)?;
                if traced {
                    for (k, v) in sample.values {
                        *merged.entry(k).or_default() += v;
                    }
                } else {
                    for k in STEPS.iter().filter(|k| sample.values.contains_key(**k)) {
                        steps
                            .entry(k.to_string())
                            .or_default()
                            .push(sample.values[*k]);
                    }
                }
                if name == args.workload {
                    if traced { &mut on } else { &mut off }.push(sample.wall_ms);
                }
            }
        }
        journal::derive(&mut merged);
        rounds.push(merged);
    }
    let overhead = (median(&on) / median(&off) - 1.0) * 100.0;
    let error_rate = tally.failed as f64 / tally.attempted.max(1) as f64;
    let metrics: Metrics = PER_LAYER
        .iter()
        .map(|&(name, unit)| {
            let value = match name {
                "trace.overhead_pct" => overhead,
                "error_rate" => error_rate,
                _ if STEPS.contains(&name) => median(steps.get(name).map_or(&[][..], |v| v)),
                _ => median(
                    &rounds
                        .iter()
                        .map(|r| r.get(name).copied().unwrap_or(0.0))
                        .collect::<Vec<_>>(),
                ),
            };
            (name, value, unit)
        })
        .collect();
    for (name, value, unit) in &metrics {
        println!("  {name:<36} {value:>14.4} {unit}");
    }
    println!("  {} round(s)", rounds.len());
    Ok(metrics)
}

fn json(correct: bool, tally: &Tally, metrics: &Metrics) -> String {
    let body: Vec<String> = metrics
        .iter()
        .map(|(name, value, unit)| {
            let value = if value.is_finite() { *value } else { 0.0 };
            format!("\"{name}\": {{\"value\": {value}, \"unit\": \"{unit}\"}}")
        })
        .collect();
    format!(
        "{{\"correct\": {correct}, \"attempted\": {}, \"failed\": {}, \"metrics\": {{{}}}}}",
        tally.attempted.max(1),
        tally.failed,
        body.join(", ")
    )
}

fn main() {
    let args = match parse_args() {
        Ok(a) => a,
        Err(e) => {
            eprintln!("perfbench: {e}\n{USAGE}");
            std::process::exit(2);
        }
    };
    println!(
        "perfbench: workload={} seed={} seconds={} traced={} rev={} nproc={}",
        args.workload,
        args.seed,
        args.seconds,
        u8::from(args.trace),
        git_rev(),
        nproc()
    );
    let mut tally = Tally::default();
    let result = Scratch::new().and_then(|scratch| {
        if args.trace {
            traced_run(&args, &scratch.0, &mut tally)
        } else {
            untraced_run(&args, &scratch.0, &mut tally)
        }
    });
    let metrics = result.unwrap_or_else(|e| {
        eprintln!("perfbench: {e}");
        tally.failed = tally.failed.max(1);
        tally.attempted = tally.attempted.max(tally.failed);
        Vec::new()
    });
    let correct = tally.failed == 0;
    println!("{}", json(correct, &tally, &metrics));
    std::process::exit(if correct { 0 } else { 1 });
}
