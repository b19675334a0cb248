//! The `marshal` command-line interface (Table I).
//!
//! ```text
//! marshal [-d DIR]... [--workdir DIR] [-v] <command> [options] <workload>
//!
//! Commands:
//!   build   [--no-disk] [--force]    Construct the filesystem image and boot-binary
//!   launch  [--job NAME] [--sim B]   Launch this workload on a simulator backend
//!   cosim   [--sim A,B]              Run two backends in lockstep and diff behaviour
//!   test    [--manual DIR]           Build, launch, and compare against a reference
//!   install [--hw CONFIG] [--sim C]  Set up an RTL simulator (firesim/vcs/verilator)
//!   clean   [--keep-runs N]          Remove built artifacts and state
//!   serve   [--port N]               Export this workdir's built levels to the network
//!   scrub   [--remote HOST:PORT]     Verify the blob pool; quarantine and heal damage
//!   trace   [RUN] [--summary]        Inspect recorded run journals
//! ```

use std::collections::HashSet;
use std::path::Path;

use marshal_config::SearchPath;
use marshal_sim_rtl::HardwareConfig;
use marshal_trace::Recorder;

use crate::board::Board;
use crate::build::{BuildOptions, Builder};
use crate::clean::{clean_workload, DEFAULT_KEEP_RUNS};
use crate::connector::{FireSimConnector, SimulatorConnector};
use crate::cosim::{cosim_workload, CosimOptions};
use crate::error::MarshalError;
use crate::install::install_workload;
use crate::launch::{launch_workload, LaunchOptions};
use crate::simulator::{resolve_backend, simulator_names};
use crate::test::{test_workload_report, TestOutcome};
use crate::warnings::Warning;

/// Process exit code for a watchdog-terminated launch (`timeout(1)`'s
/// convention, distinct from ordinary failure).
pub const EXIT_TIMED_OUT: i32 = 124;

/// A parsed command line.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct CliArgs {
    /// Extra workload search directories (`-d`).
    pub search_dirs: Vec<String>,
    /// Working directory (`--workdir`, default `./marshal-workdir`).
    pub workdir: String,
    /// Verbose output (`-v`).
    pub verbose: bool,
    /// The command to run.
    pub command: Command,
}

/// One of Table I's commands.
#[derive(Debug, Clone, PartialEq, Eq)]
pub enum Command {
    /// `build [--no-disk] [--force] [--keep-going] [-j N] [--runners LIST]
    /// [--dry-run] [--progress] <workload>`.
    Build {
        /// Target workload file.
        workload: String,
        /// Embed rootfs in the initramfs.
        no_disk: bool,
        /// Rebuild everything.
        force: bool,
        /// Keep building independent subtrees past a task failure.
        keep_going: bool,
        /// Worker threads (`-j N`); `None` = available parallelism.
        jobs: Option<usize>,
        /// `marshal serve` daemon to fetch pre-built levels from
        /// (`--remote HOST:PORT`, or the `MARSHAL_REMOTE` environment
        /// variable when the flag is absent).
        remote: Option<String>,
        /// Runner pool (`--runners local[:N],remote:HOST:PORT`); `None`
        /// builds on a single local thread pool.
        runners: Option<String>,
        /// Plan without executing (`--dry-run`).
        dry_run: bool,
        /// Live single-line progress on stderr (`--progress`).
        progress: bool,
    },
    /// `launch [--job NAME] [--sim BACKEND] [--hw CONFIG] [--timeout-insts N] <workload>`.
    Launch {
        /// Target workload file.
        workload: String,
        /// Launch only the named job.
        job: Option<String>,
        /// Guest watchdog budget in instructions.
        timeout_insts: Option<u64>,
        /// Simulator backend name (`qemu`, `spike`, `rtl`); `None` uses the
        /// workload's default.
        sim: Option<String>,
        /// Hardware configuration name for the cycle-exact backend.
        hw: Option<String>,
        /// Disable boot checkpointing (`--no-checkpoint`).
        no_checkpoint: bool,
    },
    /// `cosim [--sim A,B] [--hw CONFIG] [--timeout-insts N] [--inject-divergence] <workload>`.
    Cosim {
        /// Target workload file.
        workload: String,
        /// Backend pair `a,b`; `None` compares `qemu,rtl`.
        sim: Option<String>,
        /// Guest watchdog budget in instructions, applied to both backends.
        timeout_insts: Option<u64>,
        /// Hardware configuration name for a cycle-exact participant.
        hw: Option<String>,
        /// Self-test: corrupt one byte of the second backend's serial
        /// output to prove the checker catches it.
        inject_divergence: bool,
        /// Disable boot checkpointing (`--no-checkpoint`).
        no_checkpoint: bool,
    },
    /// `test [--manual DIR] [--timeout-insts N] [-j N] <workload>`.
    Test {
        /// Target workload file.
        workload: String,
        /// Compare pre-existing outputs in this run directory instead of
        /// launching (the paper's `test --manual` for RTL-simulator runs).
        manual: Option<String>,
        /// Guest watchdog budget in instructions.
        timeout_insts: Option<u64>,
        /// Worker threads for the build phase (`-j N`).
        jobs: Option<usize>,
        /// Runner pool for the build phase (`--runners`).
        runners: Option<String>,
        /// Disable boot checkpointing (`--no-checkpoint`).
        no_checkpoint: bool,
    },
    /// `install [--hw CONFIG] [--sim CONNECTOR] <workload>`.
    Install {
        /// Target workload file.
        workload: String,
        /// Hardware configuration name for documentation purposes.
        hw: String,
        /// Simulator connector (`firesim`, `vcs`, `verilator`); `--sim` is
        /// contextual — for `install` it names a connector, for
        /// `launch`/`cosim` a backend.
        connector: String,
        /// `marshal serve` daemon to fetch pre-built levels from during
        /// the build phase (`--remote` / `MARSHAL_REMOTE`).
        remote: Option<String>,
        /// Runner pool for the build phase (`--runners`).
        runners: Option<String>,
    },
    /// `clean [--keep-runs N] <workload>`.
    Clean {
        /// Target workload file.
        workload: String,
        /// Journal runs to retain under `workdir/runs/` (`--keep-runs`,
        /// default 20); older journals are pruned, live runs never.
        keep_runs: Option<usize>,
    },
    /// `serve [--port N]`: export this workdir's built levels and blobs
    /// over the wire for other builders to fetch.
    Serve {
        /// TCP port to listen on (`--port`, default 9300; 0 picks a free
        /// port and prints it).
        port: u16,
        /// Accept remote-execution requests (`--exec`): build levels on
        /// behalf of `--runners remote:...` clients.
        exec: bool,
    },
    /// `scrub [--remote HOST:PORT]`: verify every pool blob and level
    /// manifest, quarantine corruption, and self-heal from a remote.
    Scrub {
        /// Daemon to re-fetch damaged blobs from (`--remote` /
        /// `MARSHAL_REMOTE`).
        remote: Option<String>,
    },
    /// `trace [RUN] [--last] [--summary] [--export chrome|json]`: inspect
    /// recorded run journals.
    Trace {
        /// Run id to inspect; `None` lists recorded runs (unless
        /// `--last`).
        run: Option<String>,
        /// Export format (`chrome` for `chrome://tracing` / Perfetto JSON,
        /// `json` for the raw verified journal lines).
        export: Option<String>,
        /// Print the time/cache breakdown table (the default when no
        /// export format is given).
        summary: bool,
        /// Inspect the most recent run — crash forensics after a run died
        /// mid-build.
        last: bool,
    },
    /// `help`.
    Help,
}

/// Usage text.
pub const USAGE: &str = "usage: marshal [-d DIR]... [--workdir DIR] [-v] <build|launch|cosim|test|install|clean|serve|scrub|trace> [options] <workload>
  build   [--no-disk] [--force] [--keep-going] [-j N] [--remote HOST:PORT]
          [--runners LIST] [--dry-run] [--progress]
                                  construct the filesystem image and boot-binary;
                                  --keep-going builds past failures (only dependents
                                  of a failed task are skipped) and reports them all;
                                  -j runs up to N independent tasks in parallel
                                  (default: available CPUs; -j 1 builds serially);
                                  --remote (or MARSHAL_REMOTE) fetches pre-built
                                  levels from a marshal serve daemon before building
                                  them locally — fetch failures degrade to a normal
                                  local build, never fail it;
                                  --runners local[:N],remote:HOST:PORT executes
                                  tasks on a runner pool: remote entries dispatch
                                  level builds to marshal serve --exec daemons
                                  (a local fallback is always present; a dead
                                  remote degrades to local, never fails or hangs);
                                  --dry-run plans without executing or writing;
                                  --progress renders a live one-line status on
                                  stderr while the build runs
  launch  [--job NAME] [--sim BACKEND] [--hw CONFIG] [--timeout-insts N]
          [--no-checkpoint]
                                  launch the workload on a simulator backend
                                  (qemu/spike/rtl; default: the workload's own choice);
                                  --hw picks the rtl hardware config;
                                  --timeout-insts bounds guest instructions before the
                                  watchdog kills a hung payload (exit code 124);
                                  repeated launches restore a verified boot checkpoint
                                  instead of re-running the boot; --no-checkpoint
                                  always boots cold and writes no snapshot
  cosim   [--sim A,B] [--hw CONFIG] [--timeout-insts N] [--inject-divergence]
          [--no-checkpoint]
                                  run two backends on the identical artifacts in
                                  lockstep and diff canonical uartlogs, exit codes,
                                  and outputs (default pair: qemu,rtl);
                                  --inject-divergence corrupts one output byte as a
                                  checker self-test (must exit nonzero)
  test    [--manual DIR] [--timeout-insts N] [-j N] [--runners LIST]
          [--no-checkpoint]
                                  compare outputs against a reference (build+launch, or a prior run dir)
  install [--hw CONFIG] [--sim C] [--remote HOST:PORT] [--runners LIST]
                                  generate RTL simulator configuration (firesim/vcs/verilator)
  clean   [--keep-runs N]         remove built artifacts and state; also prunes
                                  recorded run journals beyond the newest N
                                  (default 20; journals of live runs are kept)
  serve   [--port N] [--exec]     export this workdir's built levels and blobs to
                                  other builders (default port 9300; Ctrl-C drains
                                  in-flight connections before exiting); --exec
                                  additionally accepts remote-execution requests
                                  from --runners clients, building levels here
  scrub   [--remote HOST:PORT]    verify every pool blob and level manifest,
                                  quarantine corruption, and re-fetch damaged blobs
                                  from a remote when one is configured
  trace   [RUN] [--last] [--summary] [--export chrome|json]
                                  inspect recorded run journals: with no RUN, list
                                  them; with a RUN (or --last for the newest, e.g.
                                  after a crash) print the per-task/per-level time
                                  and cache breakdown, or --export chrome for
                                  chrome://tracing- and Perfetto-loadable JSON
                                  (--export json prints the verified journal lines)";

/// Parses command-line arguments (excluding `argv[0]`).
///
/// # Errors
///
/// [`MarshalError::Other`] with a usage hint for malformed invocations.
pub fn parse_args(args: &[String]) -> Result<CliArgs, MarshalError> {
    let mut search_dirs = Vec::new();
    let mut workdir = "./marshal-workdir".to_owned();
    let mut verbose = false;
    let mut it = args.iter().peekable();
    let err = |m: &str| MarshalError::Other(format!("{m}\n{USAGE}"));

    // Global options.
    let command_word = loop {
        match it.next() {
            None => return Err(err("missing command")),
            Some(a) if a == "-d" || a == "--dir" => {
                search_dirs.push(
                    it.next()
                        .ok_or_else(|| err("-d needs a directory"))?
                        .clone(),
                );
            }
            Some(a) if a == "--workdir" => {
                workdir = it
                    .next()
                    .ok_or_else(|| err("--workdir needs a path"))?
                    .clone();
            }
            Some(a) if a == "-v" || a == "--verbose" => verbose = true,
            Some(a) if a == "help" || a == "--help" || a == "-h" => {
                return Ok(CliArgs {
                    search_dirs,
                    workdir,
                    verbose,
                    command: Command::Help,
                });
            }
            Some(a) if a.starts_with('-') => return Err(err(&format!("unknown option `{a}`"))),
            Some(a) => break a.clone(),
        }
    };

    // Per-command options and the workload argument.
    let mut no_disk = false;
    let mut force = false;
    let mut keep_going = false;
    let mut jobs = None;
    let mut job = None;
    let mut manual = None;
    let mut timeout_insts = None;
    let mut hw: Option<String> = None;
    let mut sim: Option<String> = None;
    let mut inject_divergence = false;
    let mut remote: Option<String> = None;
    let mut runners: Option<String> = None;
    let mut dry_run = false;
    let mut progress = false;
    let mut exec = false;
    let mut port: Option<u16> = None;
    let mut keep_runs: Option<usize> = None;
    let mut export: Option<String> = None;
    let mut summary = false;
    let mut last = false;
    let mut no_checkpoint = false;
    let mut workload = None;
    while let Some(a) = it.next() {
        match a.as_str() {
            "--no-disk" => no_disk = true,
            "--no-checkpoint" => no_checkpoint = true,
            "--force" => force = true,
            "--keep-going" => keep_going = true,
            "--dry-run" => dry_run = true,
            "--progress" => progress = true,
            "--exec" => exec = true,
            "--inject-divergence" => inject_divergence = true,
            "--summary" => summary = true,
            "--last" => last = true,
            "--export" => {
                export = Some(
                    it.next()
                        .ok_or_else(|| err("--export needs a format (chrome, json)"))?
                        .clone(),
                )
            }
            "--keep-runs" => {
                let n = it
                    .next()
                    .ok_or_else(|| err("--keep-runs needs a run count"))?;
                keep_runs = Some(
                    n.parse::<usize>()
                        .map_err(|_| err(&format!("--keep-runs: `{n}` is not a run count")))?,
                );
            }
            "--timeout-insts" => {
                let n = it
                    .next()
                    .ok_or_else(|| err("--timeout-insts needs an instruction count"))?;
                timeout_insts = Some(n.parse::<u64>().map_err(|_| {
                    err(&format!(
                        "--timeout-insts: `{n}` is not an instruction count"
                    ))
                })?);
            }
            "-j" | "--jobs" => {
                let n = it.next().ok_or_else(|| err("-j needs a thread count"))?;
                let parsed = n
                    .parse::<usize>()
                    .ok()
                    .filter(|&n| n > 0)
                    .ok_or_else(|| err(&format!("-j: `{n}` is not a positive thread count")))?;
                jobs = Some(parsed);
            }
            "--job" => job = Some(it.next().ok_or_else(|| err("--job needs a name"))?.clone()),
            "--manual" => {
                manual = Some(
                    it.next()
                        .ok_or_else(|| err("--manual needs a directory"))?
                        .clone(),
                )
            }
            "--hw" => {
                hw = Some(
                    it.next()
                        .ok_or_else(|| err("--hw needs a config name"))?
                        .clone(),
                )
            }
            "--sim" => {
                sim = Some(
                    it.next()
                        .ok_or_else(|| err("--sim needs a backend/connector name"))?
                        .clone(),
                )
            }
            "--remote" => {
                remote = Some(
                    it.next()
                        .ok_or_else(|| err("--remote needs a HOST:PORT address"))?
                        .clone(),
                )
            }
            "--runners" => {
                let list = it
                    .next()
                    .ok_or_else(|| err("--runners needs a list (local[:N],remote:HOST:PORT)"))?;
                // Validate eagerly so a typo fails with usage, not mid-build.
                crate::runners::parse_runner_specs(list)
                    .map_err(|e| err(&format!("--runners: {e}")))?;
                runners = Some(list.clone());
            }
            "--port" => {
                let n = it.next().ok_or_else(|| err("--port needs a port number"))?;
                port = Some(
                    n.parse::<u16>()
                        .map_err(|_| err(&format!("--port: `{n}` is not a port number")))?,
                );
            }
            other if other.starts_with('-') => {
                return Err(err(&format!("unknown option `{other}`")))
            }
            other => {
                if workload.replace(other.to_owned()).is_some() {
                    return Err(err("multiple workloads given"));
                }
            }
        }
    }
    let need_workload = || {
        workload
            .clone()
            .ok_or_else(|| err("missing workload argument"))
    };

    let command = match command_word.as_str() {
        "build" => Command::Build {
            workload: need_workload()?,
            no_disk,
            force,
            keep_going,
            jobs,
            remote,
            runners,
            dry_run,
            progress,
        },
        "launch" => Command::Launch {
            workload: need_workload()?,
            job,
            timeout_insts,
            sim,
            hw,
            no_checkpoint,
        },
        "cosim" => Command::Cosim {
            workload: need_workload()?,
            sim,
            timeout_insts,
            hw,
            inject_divergence,
            no_checkpoint,
        },
        "test" => Command::Test {
            workload: need_workload()?,
            manual,
            timeout_insts,
            jobs,
            runners,
            no_checkpoint,
        },
        "install" => Command::Install {
            workload: need_workload()?,
            hw: hw.unwrap_or_else(|| "boom-tage".to_owned()),
            connector: sim.unwrap_or_else(|| "firesim".to_owned()),
            remote,
            runners,
        },
        "clean" => Command::Clean {
            workload: need_workload()?,
            keep_runs,
        },
        "serve" => {
            if workload.is_some() {
                return Err(err("serve takes no workload argument"));
            }
            Command::Serve {
                port: port.unwrap_or(9300),
                exec,
            }
        }
        "scrub" => {
            if workload.is_some() {
                return Err(err("scrub takes no workload argument"));
            }
            Command::Scrub { remote }
        }
        "trace" => {
            if last && workload.is_some() {
                return Err(err("trace takes a RUN id or --last, not both"));
            }
            Command::Trace {
                run: workload.clone(),
                export,
                summary,
                last,
            }
        }
        other => return Err(err(&format!("unknown command `{other}`"))),
    };
    Ok(CliArgs {
        search_dirs,
        workdir,
        verbose,
        command,
    })
}

/// Looks up a named hardware configuration.
pub fn hardware_by_name(name: &str) -> Option<HardwareConfig> {
    match name {
        "rocket" => Some(HardwareConfig::rocket()),
        "boom-gshare" | "gshare" => Some(HardwareConfig::boom_gshare()),
        "boom-tage" | "tage" => Some(HardwareConfig::boom_tage()),
        _ => None,
    }
}

/// The journal header a command records, when it records one: the command
/// name and the workload argument. `trace`, `clean`, `serve`, and `help`
/// run untraced — inspection and retention must not mint the very
/// journals they manage, and the serve daemon is long-lived.
fn trace_target(command: &Command) -> Option<(&'static str, Option<&str>)> {
    match command {
        Command::Build { workload, .. } => Some(("build", Some(workload))),
        Command::Launch { workload, .. } => Some(("launch", Some(workload))),
        Command::Cosim { workload, .. } => Some(("cosim", Some(workload))),
        Command::Test { workload, .. } => Some(("test", Some(workload))),
        Command::Install { workload, .. } => Some(("install", Some(workload))),
        Command::Scrub { .. } => Some(("scrub", None)),
        _ => None,
    }
}

/// Renders warnings at the CLI boundary. Every warning is mirrored into
/// the run journal; duplicates — the same `(context, code)` arriving
/// through two channels, e.g. a build warning re-surfaced by each launch
/// job — are printed once, in first-arrival order. Warnings still carrying
/// the `generic` code have no classification, so their messages must also
/// match before two are considered the same.
fn render_warnings(
    log: &mut Vec<String>,
    rec: &Recorder,
    seen: &mut HashSet<(String, String, String)>,
    warnings: &[Warning],
) {
    for w in warnings {
        rec.warning(w.severity.as_str(), w.code, &w.context, &w.message);
        let msg_key = if w.code == "generic" {
            w.message.clone()
        } else {
            String::new()
        };
        if seen.insert((w.context.clone(), w.code.to_owned(), msg_key)) {
            log.push(w.to_string());
        }
    }
}

/// Runs a parsed command; returns `(exit code, human-readable output)`.
///
/// The caller provides the board and the base search path (normally from
/// `marshal-workloads`).
///
/// Traced commands (all but `trace`, `clean`, `serve` and `help`) record
/// a journal under `workdir/runs/<run-id>/` and report the run id on
/// success; a journal that cannot be created degrades to an untraced run
/// rather than failing the command.
pub fn run_command(args: &CliArgs, board: Board, mut search: SearchPath) -> (i32, Vec<String>) {
    for d in &args.search_dirs {
        search.add_dir(d);
    }
    let mut builder = match Builder::new(board, search, &args.workdir) {
        Ok(b) => b,
        Err(e) => return (1, vec![format!("error: {e}")]),
    };
    let recorder = match trace_target(&args.command) {
        Some((command, workload)) => {
            let mut meta: Vec<(&str, &str)> = Vec::new();
            if let Some(w) = workload {
                meta.push(("workload", w));
            }
            Recorder::create(Path::new(&args.workdir), command, &meta).unwrap_or_default()
        }
        None => Recorder::disabled(),
    };
    builder.set_recorder(recorder.clone());
    let (code, mut log) = dispatch(args, &mut builder, &recorder);
    if let Some(done) = recorder.finish() {
        log.push(format!(
            "run journal: {} ({} event(s); inspect with `marshal trace {}`)",
            done.run_id, done.events, done.run_id
        ));
    }
    (code, log)
}

/// [`run_command`]'s per-command body, with the recorder already installed
/// on `builder` and finished by the caller.
#[allow(clippy::too_many_lines)]
fn dispatch(args: &CliArgs, builder: &mut Builder, rec: &Recorder) -> (i32, Vec<String>) {
    let mut log = Vec::new();
    let mut seen = HashSet::new();
    macro_rules! fail {
        ($e:expr) => {{
            log.push(format!("error: {}", $e));
            return (1, log);
        }};
    }
    match &args.command {
        Command::Help => {
            log.push(USAGE.to_owned());
            (0, log)
        }
        Command::Build {
            workload,
            no_disk,
            force,
            keep_going,
            jobs,
            remote,
            runners,
            dry_run,
            progress,
        } => {
            let opts = BuildOptions {
                no_disk: *no_disk,
                force: *force,
                keep_going: *keep_going,
                jobs: *jobs,
                remote: effective_remote(remote),
                runners: runners.clone(),
                dry_run: *dry_run,
                progress: progress_renderer(*progress),
            };
            let result = builder.build(workload, &opts);
            if *progress {
                // Clear the status line before anything else prints, so
                // warnings and the summary never interleave with it.
                eprint!("\r\x1b[2K");
                let _ = std::io::Write::flush(&mut std::io::stderr());
            }
            match result {
                Ok(products) => {
                    render_warnings(&mut log, rec, &mut seen, &products.warnings);
                    if let Some(plan) = &products.dry_run {
                        log.push(format!(
                            "dry run: {} task(s) would execute, {} up to date",
                            plan.len(),
                            products.report.skipped.len()
                        ));
                        for t in plan {
                            log.push(format!("  would run {}", t.id));
                        }
                        return (0, log);
                    }
                    if let Some(summary) = &products.remote {
                        log.push(summary.describe());
                    }
                    log.push(format!(
                        "built `{}`: {} job(s), {} task(s) run, {} up to date",
                        products.workload,
                        products.jobs.len(),
                        products.report.executed.len(),
                        products.report.skipped.len()
                    ));
                    for j in &products.jobs {
                        log.push(format!("  {}", j.name));
                    }
                    // Under --keep-going a failed build still returns its
                    // report: summarise exactly what failed and what was
                    // skipped as a dependent, and exit nonzero.
                    if !products.report.success() {
                        for (id, why) in &products.report.failed {
                            log.push(format!("FAILED {id}: {why}"));
                        }
                        for id in &products.report.poisoned {
                            log.push(format!("skipped {id}: depends on a failed task"));
                        }
                        log.push(format!(
                            "build finished with {} failure(s); {} dependent task(s) skipped",
                            products.report.failed.len(),
                            products.report.poisoned.len()
                        ));
                        return (1, log);
                    }
                    (0, log)
                }
                Err(e) => fail!(e),
            }
        }
        Command::Launch {
            workload,
            job,
            timeout_insts,
            sim,
            hw,
            no_checkpoint,
        } => {
            if let Some(name) = sim {
                if resolve_backend(name).is_none() {
                    fail!(format!(
                        "unknown simulator backend `{name}` (try {})",
                        simulator_names().join(", ")
                    ));
                }
            }
            let hw_config = match hw {
                Some(name) => match hardware_by_name(name) {
                    Some(c) => Some(c),
                    None => fail!(format!(
                        "unknown hardware config `{name}` (try rocket, boom-gshare, boom-tage)"
                    )),
                },
                None => None,
            };
            let products = match builder.build(workload, &BuildOptions::default()) {
                Ok(p) => p,
                Err(e) => fail!(e),
            };
            render_warnings(&mut log, rec, &mut seen, &products.warnings);
            let launch_opts = LaunchOptions {
                timeout_insts: *timeout_insts,
                sim: sim.clone(),
                hw: hw_config,
                no_checkpoint: *no_checkpoint,
            };
            match job {
                Some(job_name) => {
                    let Some(index) = products
                        .jobs
                        .iter()
                        .position(|j| j.name.ends_with(job_name.as_str()))
                    else {
                        fail!(format!("no job named `{job_name}`"));
                    };
                    match crate::launch::launch_job(builder, &products, index, &launch_opts) {
                        Ok(out) => {
                            if args.verbose {
                                log.extend(out.serial.lines().map(str::to_owned));
                            }
                            render_warnings(&mut log, rec, &mut seen, &out.warnings);
                            if out.timed_out {
                                log.push(format!(
                                    "job `{}` TIMED OUT after {} instructions; partial \
                                     uartlog and outputs salvaged in {}",
                                    out.job,
                                    out.instructions,
                                    out.job_dir.display()
                                ));
                                return (EXIT_TIMED_OUT, log);
                            }
                            log.push(format!(
                                "job `{}` exited {} ({} instructions), outputs in {}",
                                out.job,
                                out.exit_code,
                                out.instructions,
                                out.job_dir.display()
                            ));
                            (if out.exit_code == 0 { 0 } else { 1 }, log)
                        }
                        Err(e) => fail!(e),
                    }
                }
                None => match launch_workload(builder, &products, &launch_opts) {
                    Ok(run) => {
                        for j in &run.jobs {
                            if args.verbose {
                                log.extend(j.serial.lines().map(str::to_owned));
                            }
                            render_warnings(&mut log, rec, &mut seen, &j.warnings);
                            if j.timed_out {
                                log.push(format!(
                                    "job `{}` TIMED OUT after {} instructions (partial \
                                     outputs salvaged)",
                                    j.job, j.instructions
                                ));
                            } else {
                                log.push(format!("job `{}` exited {}", j.job, j.exit_code));
                            }
                        }
                        log.extend(run.hook_log.iter().cloned());
                        log.push(format!("outputs in {}", run.run_root.display()));
                        if run.jobs.iter().any(|j| j.timed_out) {
                            return (EXIT_TIMED_OUT, log);
                        }
                        let ok = run.jobs.iter().all(|j| j.exit_code == 0);
                        (if ok { 0 } else { 1 }, log)
                    }
                    Err(e) => fail!(e),
                },
            }
        }
        Command::Cosim {
            workload,
            sim,
            timeout_insts,
            hw,
            inject_divergence,
            no_checkpoint,
        } => {
            let mut opts = CosimOptions {
                timeout_insts: *timeout_insts,
                inject_divergence: *inject_divergence,
                recorder: rec.clone(),
                checkpoints: (!*no_checkpoint)
                    .then(|| crate::checkpoint::CheckpointStore::new(builder.workdir())),
                ..CosimOptions::default()
            };
            if let Some(pair) = sim {
                let parts: Vec<&str> = pair.split(',').map(str::trim).collect();
                let [a, b] = parts.as_slice() else {
                    fail!(format!(
                        "cosim needs two backends: --sim a,b (try {})",
                        simulator_names().join(", ")
                    ));
                };
                opts.backends = ((*a).to_owned(), (*b).to_owned());
            }
            for name in [&opts.backends.0, &opts.backends.1] {
                if resolve_backend(name).is_none() {
                    fail!(format!(
                        "unknown simulator backend `{name}` (try {})",
                        simulator_names().join(", ")
                    ));
                }
            }
            if let Some(name) = hw {
                match hardware_by_name(name) {
                    Some(c) => opts.hw = Some(c),
                    None => fail!(format!(
                        "unknown hardware config `{name}` (try rocket, boom-gshare, boom-tage)"
                    )),
                }
            }
            let products = match builder.build(workload, &BuildOptions::default()) {
                Ok(p) => p,
                Err(e) => fail!(e),
            };
            render_warnings(&mut log, rec, &mut seen, &products.warnings);
            match cosim_workload(&products, &opts) {
                Ok(report) => {
                    for job in &report.jobs {
                        render_warnings(&mut log, rec, &mut seen, &job.warnings);
                        match &job.divergence {
                            None => log.push(format!(
                                "job `{}`: {} and {} agree ({} vs {} instructions)",
                                job.job,
                                job.backends.0,
                                job.backends.1,
                                job.instructions.0,
                                job.instructions.1
                            )),
                            Some(d) => {
                                log.push(format!(
                                    "job `{}`: DIVERGENCE between {} and {}",
                                    job.job, job.backends.0, job.backends.1
                                ));
                                log.extend(d.to_string().lines().map(|l| format!("  {l}")));
                            }
                        }
                    }
                    if report.agreed() {
                        log.push(format!(
                            "cosim `{}`: {} job(s) agree on {} vs {}",
                            report.workload,
                            report.jobs.len(),
                            report.backends.0,
                            report.backends.1
                        ));
                        (0, log)
                    } else {
                        log.push(format!(
                            "cosim `{}`: behaviour diverges between {} and {}",
                            report.workload, report.backends.0, report.backends.1
                        ));
                        (1, log)
                    }
                }
                Err(e) => fail!(e),
            }
        }
        Command::Test {
            workload,
            manual,
            timeout_insts,
            jobs,
            runners,
            no_checkpoint,
        } => {
            let build_opts = BuildOptions {
                jobs: *jobs,
                runners: runners.clone(),
                ..BuildOptions::default()
            };
            let outcomes_result = match manual {
                Some(dir) => {
                    // `test --manual`: compare outputs a simulator already
                    // produced, without re-running anything.
                    match builder.build(workload, &build_opts) {
                        Ok(products) => {
                            render_warnings(&mut log, rec, &mut seen, &products.warnings);
                            let dir = Path::new(dir);
                            let serials: Result<Vec<(String, String)>, MarshalError> = products
                                .jobs
                                .iter()
                                .map(|j| {
                                    let log = dir.join(&j.name).join(crate::output::SERIAL_LOG);
                                    let log = if log.exists() {
                                        log
                                    } else {
                                        dir.join(crate::output::SERIAL_LOG)
                                    };
                                    std::fs::read_to_string(&log)
                                        .map(|s| (j.name.clone(), s))
                                        .map_err(|e| {
                                            MarshalError::Io(format!("read {}: {e}", log.display()))
                                        })
                                })
                                .collect();
                            serials.and_then(|s| crate::test::compare_run(&products, &s))
                        }
                        Err(e) => Err(e),
                    }
                }
                None => test_workload_report(
                    builder,
                    workload,
                    &build_opts,
                    &LaunchOptions {
                        timeout_insts: *timeout_insts,
                        no_checkpoint: *no_checkpoint,
                        ..LaunchOptions::default()
                    },
                )
                .map(|report| {
                    // The same condition can surface both as a build
                    // warning and per launch job: one deduping boundary
                    // renders each once.
                    render_warnings(&mut log, rec, &mut seen, &report.build_warnings);
                    render_warnings(&mut log, rec, &mut seen, &report.launch_warnings);
                    report.outcomes
                }),
            };
            match outcomes_result {
                Ok(outcomes) => {
                    let mut code = 0;
                    for outcome in &outcomes {
                        match outcome {
                            TestOutcome::Pass => log.push("PASS".to_owned()),
                            TestOutcome::NoReference => {
                                log.push("PASS (no reference output)".to_owned())
                            }
                            TestOutcome::Fail { job, missing } => {
                                log.push(format!("FAIL {job}: missing `{missing}`"));
                                code = 1;
                            }
                            TestOutcome::TimedOut { job, instructions } => {
                                log.push(format!(
                                    "FAIL {job}: watchdog timeout after {instructions} \
                                     instructions (hung payload; partial uartlog salvaged)"
                                ));
                                code = 1;
                            }
                        }
                    }
                    (code, log)
                }
                Err(e) => fail!(e),
            }
        }
        Command::Install {
            workload,
            hw,
            connector,
            remote,
            runners,
        } => {
            if hardware_by_name(hw).is_none() {
                fail!(format!(
                    "unknown hardware config `{hw}` (try rocket, boom-gshare, boom-tage)"
                ));
            }
            let Some(conn) = crate::connector::connector_by_name(connector) else {
                fail!(format!(
                    "unknown simulator connector `{connector}` (try {})",
                    crate::connector::connector_names().join(", ")
                ));
            };
            let build_opts = BuildOptions {
                remote: effective_remote(remote),
                runners: runners.clone(),
                ..BuildOptions::default()
            };
            let products = match builder.build(workload, &build_opts) {
                Ok(p) => p,
                Err(e) => fail!(e),
            };
            render_warnings(&mut log, rec, &mut seen, &products.warnings);
            if let Some(summary) = &products.remote {
                log.push(summary.describe());
            }
            // Every install writes the FireSim manifest; another connector
            // adds its own files to the same install dir.
            let installed = install_workload(builder, &products).and_then(|(_, manifest)| {
                if conn.name() == FireSimConnector.name() {
                    Ok(manifest)
                } else {
                    conn.install(&products, &builder.install_dir(&products.workload))
                }
            });
            match installed {
                Ok(path) => {
                    log.push(format!(
                        "installed `{}` ({} node(s), {} connector) -> {}",
                        products.workload,
                        products.jobs.len(),
                        conn.name(),
                        path.display()
                    ));
                    (0, log)
                }
                Err(e) => fail!(e),
            }
        }
        Command::Clean {
            workload,
            keep_runs,
        } => match clean_workload(builder, workload, keep_runs.unwrap_or(DEFAULT_KEEP_RUNS)) {
            Ok(report) => {
                log.push(format!(
                    "cleaned `{workload}` ({} state entries forgotten, \
                         {} level manifests removed, {} unreferenced blobs pruned, \
                         {} bytes reclaimed)",
                    report.state_entries,
                    report.levels_removed,
                    report.blobs_pruned,
                    report.bytes_reclaimed
                ));
                if let Some(reason) = &report.prune_skipped {
                    log.push(format!("note: blob pruning deferred: {reason}"));
                }
                if report.runs_pruned > 0 {
                    log.push(format!(
                        "pruned {} old run journal(s) ({} bytes reclaimed)",
                        report.runs_pruned, report.run_bytes_reclaimed
                    ));
                }
                if report.checkpoints_pruned > 0 {
                    log.push(format!(
                        "pruned {} stale boot checkpoint(s) ({} bytes reclaimed)",
                        report.checkpoints_pruned, report.checkpoint_bytes_reclaimed
                    ));
                }
                if let Some(reason) = &report.checkpoint_prune_skipped {
                    log.push(format!("note: checkpoint pruning deferred: {reason}"));
                }
                (0, log)
            }
            Err(e) => fail!(e),
        },
        Command::Serve { port, exec } => {
            marshal_netstore::server::install_sigint_handler();
            let addr = format!("0.0.0.0:{port}");
            let mut server = match marshal_netstore::Server::bind(
                &addr,
                std::path::Path::new(&args.workdir),
                std::time::Duration::from_secs(10),
            ) {
                Ok(s) => s,
                Err(e) => fail!(e),
            };
            if *exec {
                let handler = match crate::runners::serve_exec_handler(
                    builder.board().clone(),
                    builder.search().clone(),
                    &args.workdir,
                ) {
                    Ok(h) => h,
                    Err(e) => fail!(e),
                };
                server.set_exec_handler(handler);
            }
            // The daemon blocks until drained, so announce readiness now
            // rather than in the post-run log.
            match server.local_addr() {
                Ok(a) => println!(
                    "marshal serve: exporting {} on {a}{} (Ctrl-C to drain and exit)",
                    args.workdir,
                    if *exec { " with remote execution" } else { "" }
                ),
                Err(e) => fail!(e),
            }
            let summary = server.run();
            log.push(format!(
                "serve drained: {} connection(s), {} request(s), \
                 {} malformed frame(s) rejected",
                summary.connections, summary.requests, summary.bad_frames
            ));
            (0, log)
        }
        Command::Scrub { remote } => {
            let client = effective_remote(remote).map(|addr| {
                marshal_netstore::RemoteStore::tcp(&addr, marshal_netstore::RetryPolicy::default())
            });
            if let Some(client) = &client {
                client.set_recorder(rec.clone());
            }
            match crate::scrub::scrub_pool(Path::new(&args.workdir), client.as_ref(), rec) {
                Ok(report) => {
                    render_warnings(&mut log, rec, &mut seen, &report.warnings);
                    log.push(format!(
                        "scrubbed pool: {} blob(s) ({} bytes) verified, {} corrupt \
                         ({} bytes quarantined), {} healed from remote, {} unrecoverable; \
                         {} manifest(s) checked, {} torn or orphaned removed",
                        report.blobs_checked,
                        report.bytes_checked,
                        report.corrupt,
                        report.quarantined_bytes,
                        report.healed,
                        report.unrecoverable,
                        report.manifests_checked,
                        report.manifests_removed
                    ));
                    (if report.unrecoverable > 0 { 1 } else { 0 }, log)
                }
                Err(e) => fail!(e),
            }
        }
        Command::Trace {
            run,
            export,
            summary,
            last,
        } => {
            let workdir = Path::new(&args.workdir);
            let selected = match (run, *last) {
                (Some(id), _) => Some(id.clone()),
                (None, true) => {
                    let runs = marshal_trace::list_runs(workdir);
                    match runs.last() {
                        Some(info) => Some(info.run_id.clone()),
                        None => fail!("no recorded runs to inspect (run a build first)"),
                    }
                }
                (None, false) => None,
            };
            let Some(run_id) = selected else {
                // No run named: list what the workdir has.
                let runs = marshal_trace::list_runs(workdir);
                if runs.is_empty() {
                    log.push("no recorded runs (build, launch, test, cosim, and scrub record journals under workdir/runs/)".to_owned());
                    return (0, log);
                }
                log.push(format!(
                    "{:<26} {:<8} {:<24} {:>8}  status",
                    "run", "command", "workload", "events"
                ));
                for info in &runs {
                    log.push(format!(
                        "{:<26} {:<8} {:<24} {:>8}  {}",
                        info.run_id,
                        info.command.as_deref().unwrap_or("?"),
                        info.workload.as_deref().unwrap_or("-"),
                        info.events,
                        if info.torn { "TORN" } else { "ok" }
                    ));
                }
                return (0, log);
            };
            let journal_path = workdir.join("runs").join(&run_id).join("journal.jsonl");
            let journal = match marshal_trace::read_journal(&journal_path) {
                Ok(j) => j,
                Err(e) => fail!(e),
            };
            match export.as_deref() {
                Some("chrome") => log.push(marshal_trace::chrome_trace(&journal)),
                Some("json") => {
                    log.extend(journal.records.iter().map(marshal_trace::Record::encode))
                }
                Some(other) => fail!(format!(
                    "unknown export format `{other}` (try chrome, json)"
                )),
                None => {}
            }
            if export.is_none() || *summary {
                log.extend(marshal_trace::summarize(&journal).render());
            }
            if journal.torn {
                log.push(format!(
                    "note: journal tail torn ({}); the {} verified event(s) above are what completed before the run died",
                    journal.torn_detail.as_deref().unwrap_or("unknown damage"),
                    journal.records.len()
                ));
            }
            (0, log)
        }
    }
}

/// The `--progress` status line: a single carriage-returned line on
/// stderr, redrawn from the scheduler thread whenever the picture
/// changes. Stderr so piping stdout stays clean; the Build dispatch
/// clears the line before any warning or summary prints.
fn progress_renderer(enabled: bool) -> Option<marshal_depgraph::ProgressFn> {
    if !enabled {
        return None;
    }
    Some(std::sync::Arc::new(|p: &marshal_depgraph::ExecProgress| {
        eprint!(
            "\r\x1b[2K[{done}/{total}] ready {ready} running {running} failed {failed}",
            done = p.done,
            total = p.total,
            ready = p.ready,
            running = p.running,
            failed = p.failed
        );
        let _ = std::io::Write::flush(&mut std::io::stderr());
    }))
}

/// The effective remote daemon address: the `--remote` flag, else the
/// `MARSHAL_REMOTE` environment variable, else none.
fn effective_remote(flag: &Option<String>) -> Option<String> {
    flag.clone().or_else(|| {
        std::env::var("MARSHAL_REMOTE")
            .ok()
            .filter(|s| !s.is_empty())
    })
}

#[cfg(test)]
mod tests {
    use super::*;

    fn parse(words: &[&str]) -> Result<CliArgs, MarshalError> {
        let v: Vec<String> = words.iter().map(|s| (*s).to_owned()).collect();
        parse_args(&v)
    }

    #[test]
    fn parse_build() {
        let args = parse(&["build", "--no-disk", "intspeed.json"]).unwrap();
        assert_eq!(
            args.command,
            Command::Build {
                workload: "intspeed.json".into(),
                no_disk: true,
                force: false,
                keep_going: false,
                jobs: None,
                remote: None,
                runners: None,
                dry_run: false,
                progress: false
            }
        );
    }

    #[test]
    fn parse_runners_dry_run_progress() {
        let args = parse(&[
            "build",
            "--runners",
            "remote:cache:9021,local:2",
            "--dry-run",
            "--progress",
            "w.json",
        ])
        .unwrap();
        assert!(matches!(
            args.command,
            Command::Build { ref runners, dry_run: true, progress: true, .. }
                if runners.as_deref() == Some("remote:cache:9021,local:2")
        ));
        let args = parse(&["test", "--runners", "local:4", "w.json"]).unwrap();
        assert!(matches!(
            args.command,
            Command::Test { ref runners, .. } if runners.as_deref() == Some("local:4")
        ));
        let args = parse(&["install", "--runners", "local", "w.json"]).unwrap();
        assert!(matches!(
            args.command,
            Command::Install { ref runners, .. } if runners.as_deref() == Some("local")
        ));
        // Malformed lists fail at parse time with a usage error.
        assert!(parse(&["build", "--runners", "ssh:box", "w.json"]).is_err());
        assert!(parse(&["build", "--runners", "local:0", "w.json"]).is_err());
        assert!(parse(&["build", "--runners"]).is_err());
    }

    #[test]
    fn parse_remote() {
        let args = parse(&["build", "--remote", "cache:9300", "w.json"]).unwrap();
        assert!(matches!(
            args.command,
            Command::Build { ref remote, .. } if remote.as_deref() == Some("cache:9300")
        ));
        let args = parse(&["install", "--remote", "cache:9300", "w.json"]).unwrap();
        assert!(matches!(
            args.command,
            Command::Install { ref remote, .. } if remote.as_deref() == Some("cache:9300")
        ));
        assert!(parse(&["build", "--remote"]).is_err());
    }

    #[test]
    fn parse_serve_and_scrub() {
        let args = parse(&["serve"]).unwrap();
        assert_eq!(
            args.command,
            Command::Serve {
                port: 9300,
                exec: false
            }
        );
        let args = parse(&["serve", "--port", "7777", "--exec"]).unwrap();
        assert_eq!(
            args.command,
            Command::Serve {
                port: 7777,
                exec: true
            }
        );
        assert!(parse(&["serve", "--port", "notaport"]).is_err());
        assert!(parse(&["serve", "w.json"]).is_err());
        let args = parse(&["scrub"]).unwrap();
        assert_eq!(args.command, Command::Scrub { remote: None });
        let args = parse(&["scrub", "--remote", "cache:9300"]).unwrap();
        assert_eq!(
            args.command,
            Command::Scrub {
                remote: Some("cache:9300".into())
            }
        );
        assert!(parse(&["scrub", "w.json"]).is_err());
    }

    #[test]
    fn parse_jobs() {
        let args = parse(&["build", "-j", "4", "w.json"]).unwrap();
        assert!(matches!(args.command, Command::Build { jobs: Some(4), .. }));
        let args = parse(&["build", "--jobs", "8", "w.json"]).unwrap();
        assert!(matches!(args.command, Command::Build { jobs: Some(8), .. }));
        let args = parse(&["test", "-j", "2", "w.json"]).unwrap();
        assert!(matches!(args.command, Command::Test { jobs: Some(2), .. }));
        // Not a count, zero, or missing: usage errors.
        assert!(parse(&["build", "-j", "many", "w.json"]).is_err());
        assert!(parse(&["build", "-j", "0", "w.json"]).is_err());
        assert!(parse(&["build", "-j"]).is_err());
    }

    #[test]
    fn parse_keep_going() {
        let args = parse(&["build", "--keep-going", "w.json"]).unwrap();
        assert!(matches!(
            args.command,
            Command::Build {
                keep_going: true,
                ..
            }
        ));
    }

    #[test]
    fn parse_timeout_insts() {
        let args = parse(&["launch", "--timeout-insts", "5000", "w.json"]).unwrap();
        assert_eq!(
            args.command,
            Command::Launch {
                workload: "w.json".into(),
                job: None,
                timeout_insts: Some(5000),
                sim: None,
                hw: None,
                no_checkpoint: false
            }
        );
        let args = parse(&["test", "--timeout-insts", "9", "w.json"]).unwrap();
        assert!(matches!(
            args.command,
            Command::Test {
                timeout_insts: Some(9),
                ..
            }
        ));
        assert!(parse(&["launch", "--timeout-insts", "soon", "w.json"]).is_err());
        assert!(parse(&["launch", "--timeout-insts"]).is_err());
    }

    #[test]
    fn parse_global_options() {
        let args = parse(&[
            "-d",
            "/w",
            "--workdir",
            "/tmp/wd",
            "-v",
            "launch",
            "--job",
            "client",
            "w.json",
        ])
        .unwrap();
        assert_eq!(args.search_dirs, vec!["/w"]);
        assert_eq!(args.workdir, "/tmp/wd");
        assert!(args.verbose);
        assert_eq!(
            args.command,
            Command::Launch {
                workload: "w.json".into(),
                job: Some("client".into()),
                timeout_insts: None,
                sim: None,
                hw: None,
                no_checkpoint: false
            }
        );
    }

    #[test]
    fn parse_launch_sim() {
        let args = parse(&["launch", "--sim", "spike", "w.json"]).unwrap();
        assert!(matches!(
            args.command,
            Command::Launch { ref sim, .. } if sim.as_deref() == Some("spike")
        ));
        let args = parse(&["launch", "--sim", "rtl", "--hw", "rocket", "w.json"]).unwrap();
        assert!(matches!(
            args.command,
            Command::Launch { ref sim, ref hw, .. }
                if sim.as_deref() == Some("rtl") && hw.as_deref() == Some("rocket")
        ));
    }

    #[test]
    fn parse_no_checkpoint() {
        let args = parse(&["launch", "--no-checkpoint", "w.json"]).unwrap();
        assert!(matches!(
            args.command,
            Command::Launch {
                no_checkpoint: true,
                ..
            }
        ));
        let args = parse(&["cosim", "--no-checkpoint", "w.json"]).unwrap();
        assert!(matches!(
            args.command,
            Command::Cosim {
                no_checkpoint: true,
                ..
            }
        ));
        let args = parse(&["test", "--no-checkpoint", "w.json"]).unwrap();
        assert!(matches!(
            args.command,
            Command::Test {
                no_checkpoint: true,
                ..
            }
        ));
    }

    #[test]
    fn parse_cosim() {
        let args = parse(&["cosim", "w.json"]).unwrap();
        assert_eq!(
            args.command,
            Command::Cosim {
                workload: "w.json".into(),
                sim: None,
                timeout_insts: None,
                hw: None,
                inject_divergence: false,
                no_checkpoint: false
            }
        );
        let args = parse(&[
            "cosim",
            "--sim",
            "qemu,spike",
            "--inject-divergence",
            "w.json",
        ])
        .unwrap();
        assert_eq!(
            args.command,
            Command::Cosim {
                workload: "w.json".into(),
                sim: Some("qemu,spike".into()),
                timeout_insts: None,
                hw: None,
                inject_divergence: true,
                no_checkpoint: false
            }
        );
        assert!(parse(&["cosim"]).is_err());
    }

    #[test]
    fn parse_install_hw() {
        let args = parse(&["install", "--hw", "boom-gshare", "w.json"]).unwrap();
        assert_eq!(
            args.command,
            Command::Install {
                workload: "w.json".into(),
                hw: "boom-gshare".into(),
                connector: "firesim".into(),
                remote: None,
                runners: None
            }
        );
        let args = parse(&["install", "--sim", "vcs", "w.json"]).unwrap();
        assert!(
            matches!(args.command, Command::Install { ref connector, .. } if connector == "vcs")
        );
    }

    #[test]
    fn parse_errors() {
        assert!(parse(&[]).is_err());
        assert!(parse(&["frobnicate", "w.json"]).is_err());
        assert!(parse(&["build"]).is_err());
        assert!(parse(&["build", "a.json", "b.json"]).is_err());
        assert!(parse(&["build", "--bogus", "w.json"]).is_err());
        assert!(parse(&["-d"]).is_err());
    }

    #[test]
    fn help_is_ok() {
        let args = parse(&["help"]).unwrap();
        assert_eq!(args.command, Command::Help);
    }

    #[test]
    fn parse_trace() {
        let args = parse(&["trace"]).unwrap();
        assert_eq!(
            args.command,
            Command::Trace {
                run: None,
                export: None,
                summary: false,
                last: false
            }
        );
        let args = parse(&["trace", "--last", "--summary"]).unwrap();
        assert!(matches!(
            args.command,
            Command::Trace {
                last: true,
                summary: true,
                ..
            }
        ));
        let args = parse(&["trace", "r0000000000001-1-0", "--export", "chrome"]).unwrap();
        assert!(matches!(
            args.command,
            Command::Trace { ref run, ref export, .. }
                if run.as_deref() == Some("r0000000000001-1-0")
                    && export.as_deref() == Some("chrome")
        ));
        assert!(parse(&["trace", "r1", "--last"]).is_err());
        assert!(parse(&["trace", "--export"]).is_err());
    }

    #[test]
    fn parse_keep_runs() {
        let args = parse(&["clean", "w.json"]).unwrap();
        assert_eq!(
            args.command,
            Command::Clean {
                workload: "w.json".into(),
                keep_runs: None
            }
        );
        let args = parse(&["clean", "--keep-runs", "3", "w.json"]).unwrap();
        assert!(matches!(
            args.command,
            Command::Clean {
                keep_runs: Some(3),
                ..
            }
        ));
        assert!(parse(&["clean", "--keep-runs", "lots", "w.json"]).is_err());
        assert!(parse(&["clean", "--keep-runs"]).is_err());
    }

    #[test]
    fn warning_dedupe_at_render_boundary() {
        let rec = Recorder::disabled();
        let mut log = Vec::new();
        let mut seen = HashSet::new();
        // The same coded condition arriving through two channels (build
        // products, then a launch output) renders exactly once.
        let w = Warning::with_code(
            "hello.0",
            "output `x` missing after watchdog timeout",
            "watchdog-missing-output",
        );
        render_warnings(&mut log, &rec, &mut seen, std::slice::from_ref(&w));
        render_warnings(&mut log, &rec, &mut seen, std::slice::from_ref(&w));
        assert_eq!(log.len(), 1, "{log:?}");
        assert_eq!(log[0], w.to_string(), "rendering format unchanged");
        // Generic warnings carry no classification: distinct messages in
        // the same context must both survive, but a literal repeat not.
        let a = Warning::new("ctx", "first thing");
        let b = Warning::new("ctx", "second thing");
        render_warnings(&mut log, &rec, &mut seen, &[a.clone(), b, a]);
        assert_eq!(log.len(), 3, "{log:?}");
    }

    #[test]
    fn hardware_names() {
        assert!(hardware_by_name("rocket").is_some());
        assert!(hardware_by_name("boom-gshare").is_some());
        assert!(hardware_by_name("tage").is_some());
        assert!(hardware_by_name("pentium").is_none());
    }
}
