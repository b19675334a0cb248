//! # marshal-bench
//!
//! The benchmark harness regenerating every table and figure of the
//! FireMarshal paper (see `EXPERIMENTS.md` at the workspace root for the
//! full index). Each Criterion bench prints its paper-artifact data once,
//! then measures the underlying operation:
//!
//! | bench | paper artifact |
//! |---|---|
//! | `incremental_build` | §III-B dependency tracking (full vs no-op vs leaf-change) |
//! | `parallel_jobs` | §IV-B parallel jobs ("two weeks to two days") |
//! | `pfa_latency` | Fig. 5 remote-fault latency breakdown |
//! | `bpred_sweep` | Fig. 6 Gshare vs TAGE |
//! | `build_outputs` | Fig. 3 build outputs (disk vs `--no-disk`) |
//! | `determinism` | §IV-C exact-cycle repeatability |
//! | `ablation` | design-choice sweeps (TAGE depth, cache capacity, L2, NIC) |

#![warn(missing_docs)]

use std::path::PathBuf;
use std::time::{Duration, Instant};

/// Minimal in-repo stand-in for the `criterion` crate (the build
/// environment is offline, so the real crate is unavailable). Implements
/// the subset of the API the benches use — `benchmark_group`,
/// `sample_size`, `bench_function`, `Bencher::iter` — with wall-clock
/// timing and a plain-text report on stdout.
pub struct Criterion {
    default_sample_size: usize,
}

impl Criterion {
    /// Creates a harness with the default sample size (10).
    pub fn new() -> Self {
        Criterion {
            default_sample_size: 10,
        }
    }

    /// Starts a named group of related benchmarks.
    pub fn benchmark_group(&mut self, name: impl Into<String>) -> BenchmarkGroup<'_> {
        let name = name.into();
        println!("\n== group: {name} ==");
        BenchmarkGroup {
            _c: self,
            name,
            sample_size: 10,
        }
    }

    /// Runs a single benchmark outside any group.
    pub fn bench_function<F>(&mut self, name: impl Into<String>, mut f: F) -> &mut Self
    where
        F: FnMut(&mut Bencher),
    {
        run_one(&name.into(), self.default_sample_size, &mut f);
        self
    }
}

impl Default for Criterion {
    fn default() -> Self {
        Criterion::new()
    }
}

/// A named collection of benchmarks sharing a sample size.
pub struct BenchmarkGroup<'a> {
    _c: &'a mut Criterion,
    name: String,
    sample_size: usize,
}

impl BenchmarkGroup<'_> {
    /// Sets how many timed samples each benchmark collects.
    pub fn sample_size(&mut self, n: usize) -> &mut Self {
        self.sample_size = n.max(1);
        self
    }

    /// Runs one benchmark in this group.
    pub fn bench_function<F>(&mut self, name: impl Into<String>, mut f: F) -> &mut Self
    where
        F: FnMut(&mut Bencher),
    {
        let label = format!("{}/{}", self.name, name.into());
        run_one(&label, self.sample_size, &mut f);
        self
    }

    /// Ends the group (kept for criterion API compatibility).
    pub fn finish(&mut self) {}
}

fn run_one<F: FnMut(&mut Bencher)>(label: &str, samples: usize, f: &mut F) {
    // One untimed warm-up pass, then `samples` timed passes.
    let mut b = Bencher {
        elapsed: Duration::ZERO,
    };
    f(&mut b);
    let mut times = Vec::with_capacity(samples);
    for _ in 0..samples {
        let mut b = Bencher {
            elapsed: Duration::ZERO,
        };
        f(&mut b);
        times.push(b.elapsed);
    }
    times.sort_unstable();
    let total: Duration = times.iter().sum();
    let mean = total / times.len() as u32;
    println!(
        "{label:<40} mean {mean:>12?}  min {:>12?}  max {:>12?}  ({} samples)",
        times[0],
        times[times.len() - 1],
        times.len()
    );
}

/// Passed to each benchmark closure; `iter` times the routine.
pub struct Bencher {
    elapsed: Duration,
}

impl Bencher {
    /// Times one execution of `routine`, keeping its result live so the
    /// optimiser cannot delete the work.
    pub fn iter<R, F: FnMut() -> R>(&mut self, mut routine: F) {
        let start = Instant::now();
        let out = routine();
        self.elapsed += start.elapsed();
        std::hint::black_box(out);
    }
}

/// Declares a benchmark group function, mirroring criterion's macro.
#[macro_export]
macro_rules! criterion_group {
    ($group:ident, $($target:path),+ $(,)?) => {
        fn $group() {
            let mut c = $crate::Criterion::new();
            $( $target(&mut c); )+
        }
    };
}

/// Declares the benchmark `main`, mirroring criterion's macro.
#[macro_export]
macro_rules! criterion_main {
    ($($group:path),+ $(,)?) => {
        fn main() {
            $( $group(); )+
        }
    };
}

/// Creates a unique scratch root for one bench run.
pub fn scratch(tag: &str) -> PathBuf {
    let d = std::env::temp_dir().join(format!("marshal-bench-{tag}-{}", std::process::id()));
    let _ = std::fs::remove_dir_all(&d);
    std::fs::create_dir_all(&d).expect("scratch dir");
    d
}

/// Sets up the bundled workloads and a builder rooted at `root`.
pub fn builder_in(root: &std::path::Path) -> marshal_core::Builder {
    let setup = marshal_workloads::setup(root).expect("setup workloads");
    marshal_core::Builder::new(setup.board, setup.search, root.join("work"))
        .expect("create builder")
}

/// Appends this run's rows to the ledger `file` (a JSON array of flat
/// objects, one per line) at the workspace root, creating it on first
/// run. Each row is the bench's own comma-separated `"key": value` list;
/// the writer opens every row with a shared `"unix_time"` stamp, so a
/// ledger line reads `{"unix_time": T, <row>}`. Hand-rolled JSON: the
/// build environment is offline, so no serde. A failed write is reported,
/// not fatal.
pub fn append_bench_rows(file: &str, rows: &[String]) {
    let path = std::path::Path::new(env!("CARGO_MANIFEST_DIR"))
        .join("..")
        .join("..")
        .join(file);
    let stamp = std::time::SystemTime::now()
        .duration_since(std::time::UNIX_EPOCH)
        .map(|d| d.as_secs())
        .unwrap_or(0);
    let mut entries: Vec<String> = Vec::new();
    if let Ok(existing) = std::fs::read_to_string(&path) {
        entries.extend(
            existing
                .lines()
                .map(str::trim)
                .filter(|l| l.starts_with('{'))
                .map(|l| l.trim_end_matches(',').to_owned()),
        );
    }
    entries.extend(
        rows.iter()
            .map(|row| format!("{{\"unix_time\": {stamp}, {row}}}")),
    );
    let body = format!("[\n  {}\n]\n", entries.join(",\n  "));
    if let Err(e) = std::fs::write(&path, body) {
        eprintln!("note: could not record {}: {e}", path.display());
    } else {
        println!("  recorded {} entries in {}", entries.len(), path.display());
    }
}
