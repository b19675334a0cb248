//! # marshal-bench
//!
//! The benches behind the measured numbers of `EXPERIMENTS.md` and the
//! `BENCH_*.json` ledgers at the workspace root. Each is a plain
//! `fn main()` (`harness = false`) run with
//! `cargo bench -p marshal-bench --bench <name>`: it takes one
//! measurement, asserts its gate where it has one, and appends that same
//! measurement to a ledger as [`Row`]s.
//!
//! | bench | measures | gate | ledger |
//! |---|---|---|---|
//! | `backend_launch` | launch throughput of each backend on the same artifacts | — | `BENCH_backends.json` |
//! | `launch_hot` | launches with the boot checkpoint off vs on | ≥10x | `BENCH_backends.json` |
//! | `trace_overhead` | launches with the run journal off vs on | ±5% | `BENCH_backends.json` |
//! | `exec_sched` | the build executor vs a raw Condvar pool | ≤1.05x | `BENCH_exec.json` |
//! | `parallel_jobs` | E8: a 10-node cluster serial vs parallel, and the `-j N` build sweep | — | `BENCH_exec.json` |
//! | `image_chain` | flat vs content-addressed image persistence | ≥5x | `BENCH_image.json` |
//! | `ablation` | design-choice sweeps of the timing model, printed only | — | — |
//!
//! `BENCH_serve.json` keeps the rows of the retired artifact-serving bench
//! as history; no bench appends to it.
//!
//! The paper's exact figures (Fig. 3 sizes, Fig. 5 and Fig. 6 counts,
//! incremental-build task counts, exact-cycle repeatability) are golden
//! pins in the root package's tests, and the per-tier simulator costs are
//! `perfbench` metrics; no bench repeats them.

#![warn(missing_docs)]

use std::path::{Path, PathBuf};

use marshal_depgraph::persist::write_atomic;
use marshal_trace::Json;

/// Creates a unique scratch root for one bench run.
pub fn scratch(tag: &str) -> PathBuf {
    let d = std::env::temp_dir().join(format!("marshal-bench-{tag}-{}", std::process::id()));
    let _ = std::fs::remove_dir_all(&d);
    std::fs::create_dir_all(&d).expect("scratch dir");
    d
}

/// Sets up the bundled workloads and a builder rooted at `root`.
pub fn builder_in(root: &Path) -> marshal_core::Builder {
    let setup = marshal_workloads::setup(root).expect("setup workloads");
    marshal_core::Builder::new(setup.board, setup.search, root.join("work"))
        .expect("create builder")
}

/// The middle of `runs` once sorted: the statistic every bench gates and
/// records, since it ignores a noisy host's tail.
pub fn median<T: Ord + Copy>(mut runs: Vec<T>) -> T {
    runs.sort_unstable();
    runs[runs.len() / 2]
}

/// The keys of every ledger row, in order: the five fields of a [`Row`],
/// then the stamps [`append_bench_rows`] adds.
pub const ROW_KEYS: [&str; 8] = [
    "bench",
    "variant",
    "metric",
    "value",
    "unit",
    "rev",
    "host_cores",
    "unix_time",
];

/// One measured value, as a bench hands it to [`append_bench_rows`].
#[derive(Debug, Clone, PartialEq)]
pub struct Row {
    /// The bench that measured it.
    pub bench: &'static str,
    /// The configuration measured, its parts joined with `/` and numeric
    /// parameters written `key=value` (`cold/flat/depth=8`); empty for a
    /// bench with a single configuration.
    pub variant: String,
    /// What was measured (`wall_ns`, `speedup`, ...).
    pub metric: &'static str,
    /// The measurement.
    pub value: f64,
    /// Its unit (`ns`, `bytes`, `x`, `ratio`, ...).
    pub unit: &'static str,
}

impl Row {
    /// A row of `bench` for `variant`.
    pub fn new(
        bench: &'static str,
        variant: impl Into<String>,
        metric: &'static str,
        value: f64,
        unit: &'static str,
    ) -> Row {
        Row {
            bench,
            variant: variant.into(),
            metric,
            value,
            unit,
        }
    }
}

/// Appends `rows` to the ledger `file` at the workspace root, creating it
/// on first run.
///
/// A ledger is a JSON array with one object per line, each with exactly
/// the [`ROW_KEYS`]. Every appended row is stamped with `rev` (the short
/// commit hash of the workspace's `HEAD`, marked `-dirty` when the source
/// has uncommitted changes, `null` when git cannot tell),
/// `host_cores` and `unix_time`; its value is rounded to three decimals.
/// The existing ledger is read with [`Json::parse`], and the whole file is
/// rewritten with [`write_atomic`], so a crash mid-write leaves the old
/// ledger intact. A ledger that does not parse is left untouched and the
/// run goes unrecorded. Either failure is reported, not fatal.
pub fn append_bench_rows(file: &str, rows: &[Row]) {
    let path = workspace_root().join(file);
    let mut ledger = match read_ledger(&path) {
        Ok(ledger) => ledger,
        Err(e) => {
            eprintln!("note: not recording to {}: {e}", path.display());
            return;
        }
    };
    let rev = git_rev().map_or(Json::Null, Json::Str);
    let host_cores = std::thread::available_parallelism().map_or(1, std::num::NonZeroUsize::get);
    let unix_time = std::time::SystemTime::now()
        .duration_since(std::time::UNIX_EPOCH)
        .map_or(0, |d| d.as_secs());
    ledger.extend(rows.iter().map(|row| {
        Json::Obj(vec![
            ("bench".to_owned(), Json::Str(row.bench.to_owned())),
            ("variant".to_owned(), Json::Str(row.variant.clone())),
            ("metric".to_owned(), Json::Str(row.metric.to_owned())),
            ("value".to_owned(), number((row.value * 1e3).round() / 1e3)),
            ("unit".to_owned(), Json::Str(row.unit.to_owned())),
            ("rev".to_owned(), rev.clone()),
            ("host_cores".to_owned(), number(host_cores as f64)),
            ("unix_time".to_owned(), number(unix_time as f64)),
        ])
    }));
    match write_atomic(&path, render(&ledger).as_bytes()) {
        Ok(()) => println!("  recorded {} rows in {}", ledger.len(), path.display()),
        Err(e) => eprintln!("note: could not record: {e}"),
    }
}

/// The workspace root, where the ledgers live.
fn workspace_root() -> PathBuf {
    Path::new(env!("CARGO_MANIFEST_DIR")).join("..").join("..")
}

/// A ledger's text: a JSON array with one row per line.
fn render(rows: &[Json]) -> String {
    let lines: Vec<String> = rows
        .iter()
        .map(|row| format!("  {}", row.encode()))
        .collect();
    format!("[\n{}\n]\n", lines.join(",\n"))
}

/// The rows of the ledger at `path`; none when it does not exist yet.
fn read_ledger(path: &Path) -> Result<Vec<Json>, String> {
    let text = match std::fs::read_to_string(path) {
        Ok(text) => text,
        Err(e) if e.kind() == std::io::ErrorKind::NotFound => return Ok(Vec::new()),
        Err(e) => return Err(e.to_string()),
    };
    match Json::parse(&text).map_err(|e| e.to_string())? {
        // The parser reads every number as a float; whole ones go back to
        // integers so rewriting the ledger leaves old rows byte-identical.
        Json::Arr(rows) => Ok(rows.into_iter().map(integral).collect()),
        _ => Err("the ledger is not a JSON array".to_owned()),
    }
}

/// `value` as JSON: exactly when it is whole, else as a float.
fn number(value: f64) -> Json {
    if value.fract() == 0.0 && value.abs() < 9e15 {
        Json::Int(value as i64)
    } else {
        Json::Num(value)
    }
}

/// `row` with each whole number field an integer.
fn integral(row: Json) -> Json {
    match row {
        Json::Obj(fields) => Json::Obj(
            fields
                .into_iter()
                .map(|(k, v)| match v {
                    Json::Num(n) => (k, number(n)),
                    v => (k, v),
                })
                .collect(),
        ),
        other => other,
    }
}

/// The short commit hash of the workspace's `HEAD`, suffixed `-dirty` when
/// a tracked file other than a ledger differs from it: a row measured on
/// uncommitted code is not a measurement of the commit.
fn git_rev() -> Option<String> {
    let git = |args: &[&str]| {
        std::process::Command::new("git")
            .args(args)
            .current_dir(workspace_root())
            .output()
            .ok()
    };
    let out = git(&["rev-parse", "--short", "HEAD"]).filter(|out| out.status.success())?;
    let rev = String::from_utf8(out.stdout).ok()?.trim().to_owned();
    // `--quiet` exits 1 when the source differs from `HEAD`.
    let diff = git(&[
        "diff",
        "--quiet",
        "HEAD",
        "--",
        ".",
        ":(exclude)BENCH_*.json",
    ])?;
    let dirty = if diff.status.code() == Some(1) {
        "-dirty"
    } else {
        ""
    };
    (!rev.is_empty()).then(|| rev + dirty)
}

#[cfg(test)]
mod tests {
    use super::*;

    /// Each ledger's path and its rows, read as [`append_bench_rows`]
    /// reads them.
    fn ledgers() -> Vec<(PathBuf, Vec<Json>)> {
        let files = [
            "BENCH_backends.json",
            "BENCH_exec.json",
            "BENCH_image.json",
            "BENCH_serve.json",
        ];
        files
            .iter()
            .map(|file| {
                let path = workspace_root().join(file);
                let rows = read_ledger(&path).unwrap();
                (path, rows)
            })
            .collect()
    }

    #[test]
    fn every_ledger_row_has_exactly_the_schema_keys() {
        for (path, rows) in ledgers() {
            assert!(!rows.is_empty(), "{} has rows", path.display());
            for row in &rows {
                let Json::Obj(fields) = row else {
                    panic!("{}: not an object: {row:?}", path.display());
                };
                let keys: Vec<&str> = fields.iter().map(|(k, _)| k.as_str()).collect();
                assert_eq!(keys, ROW_KEYS, "{}: {}", path.display(), row.encode());
                assert!(matches!(
                    row.get("value"),
                    Some(Json::Int(_) | Json::Num(_))
                ));
            }
            // An append rewrites the old rows byte for byte.
            let text = std::fs::read_to_string(&path).unwrap();
            assert_eq!(render(&rows), text, "{}", path.display());
        }
    }

    #[test]
    fn migrated_rows_keep_their_values() {
        // `bench|variant|metric|unix_time value`, as before the migration
        // to one metric per row.
        let cases = [
            "backend_launch|qemu|mean_ns|1786030220 508503",
            "backend_launch|rtl|instructions|1786030220 407",
            "launch_hot|checkpoint-on|launches_per_sec|1786181774 1114827.2",
            "trace_overhead||delta_pct|1786181785 -1.18",
            "exec_sched|scheduler/tasks=64/threads=4|sched_pool_ratio|1786178280 1.025",
            "image_chain|cold/flat/depth=8|bytes_hashed_written|1786032562 114519350",
            "image_chain|incremental/cas/depth=8|wall_ns|1786032562 304749",
            "serve_fetch|warm/depth=8|bytes_fetched|1786167417 32768",
        ];
        let rows: Vec<Json> = ledgers().into_iter().flat_map(|(_, rows)| rows).collect();
        let key = |row: &Json| {
            let field = |k| match row.get(k) {
                Some(Json::Str(s)) => s.clone(),
                other => other.map(Json::encode).unwrap_or_default(),
            };
            ["bench", "variant", "metric", "unix_time"]
                .map(field)
                .join("|")
        };
        for case in cases {
            let (wanted, value) = case.split_once(' ').unwrap();
            let found: Vec<&Json> = rows.iter().filter(|r| key(r) == wanted).collect();
            assert_eq!(found.len(), 1, "{wanted}");
            let expected = number(value.parse().unwrap());
            assert_eq!(found[0].get("value"), Some(&expected), "{wanted}");
        }
    }
}
