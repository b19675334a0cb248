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
//!   scrub                            Verify the blob pool; quarantine damage
//!   trace   [RUN] [--summary]        Inspect recorded run journals
//! ```

use std::collections::HashSet;
use std::num::NonZeroUsize;
use std::path::Path;
use std::str::FromStr;

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
    /// `build [--no-disk] [--force] [--keep-going] [-j N] [--dry-run]
    /// [--progress] <workload>`.
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
        /// Plan without executing (`--dry-run`).
        dry_run: bool,
        /// Live single-line progress on stderr (`--progress`).
        progress: bool,
    },
    /// `launch [--job NAME] [--sim BACKEND] [--hw CONFIG] [--timeout-insts N] [-j N] <workload>`.
    Launch {
        /// Target workload file.
        workload: String,
        /// Launch only the named job.
        job: Option<String>,
        /// Jobs launched at once (`-j N`); `None` = available parallelism.
        jobs: Option<usize>,
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
    /// `cosim [--sim A,B] [--hw CONFIG] [--timeout-insts N] [--inject-divergence] [-j N] <workload>`.
    Cosim {
        /// Target workload file.
        workload: String,
        /// Backend observations run at once (`-j N`); `None` = available
        /// parallelism.
        jobs: Option<usize>,
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
        /// Worker threads for the build phase and jobs launched at once
        /// (`-j N`); `None` = available parallelism.
        jobs: Option<usize>,
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
    },
    /// `clean [--keep-runs N] <workload>`.
    Clean {
        /// Target workload file.
        workload: String,
        /// Journal runs to retain under `workdir/runs/` (`--keep-runs`,
        /// default 20); older journals are pruned, live runs never.
        keep_runs: Option<usize>,
    },
    /// `scrub`: verify every pool blob and level manifest and quarantine
    /// corruption.
    Scrub,
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
pub const USAGE: &str = "usage: marshal [-d DIR]... [--workdir DIR] [-v] <build|launch|cosim|test|install|clean|scrub|trace> [options] <workload>
  build   [--no-disk] [--force] [--keep-going] [-j N] [--dry-run] [--progress]
                                  construct the filesystem image and boot-binary;
                                  --keep-going builds past failures (only dependents
                                  of a failed task are skipped) and reports them all;
                                  -j runs up to N independent tasks in parallel
                                  (default: available CPUs; -j 1 builds serially);
                                  --dry-run plans without executing or writing;
                                  --progress renders a live one-line status on
                                  stderr while the build runs
  launch  [--job NAME] [--sim BACKEND] [--hw CONFIG] [--timeout-insts N]
          [--no-checkpoint] [-j N]
                                  launch the workload on a simulator backend
                                  (qemu/spike/rtl; default: the workload's own choice);
                                  --hw picks the rtl hardware config;
                                  --timeout-insts bounds guest instructions before the
                                  watchdog kills a hung payload (exit code 124);
                                  repeated launches restore a verified boot checkpoint
                                  instead of re-running the boot; --no-checkpoint
                                  always boots cold and writes no snapshot;
                                  -j runs up to N jobs at once (default: available
                                  CPUs); results and outputs stay in job order
  cosim   [--sim A,B] [--hw CONFIG] [--timeout-insts N] [--inject-divergence]
          [--no-checkpoint] [-j N]
                                  run two backends on the identical artifacts in
                                  lockstep and diff canonical uartlogs, exit codes,
                                  and outputs (default pair: qemu,rtl);
                                  --inject-divergence corrupts one output byte as a
                                  checker self-test (must exit nonzero);
                                  -j runs up to N backend runs at once
  test    [--manual DIR] [--timeout-insts N] [-j N] [--no-checkpoint]
                                  compare outputs against a reference (build+launch, or a prior run dir);
                                  -j bounds both the build and the launch
  install [--hw CONFIG] [--sim C]
                                  generate RTL simulator configuration (firesim/vcs/verilator)
  clean   [--keep-runs N]         remove built artifacts and state; also prunes
                                  recorded run journals beyond the newest N
                                  (default 20; journals of live runs are kept)
  scrub                           verify every pool blob and level manifest and
                                  quarantine corruption; run it on a copied workdir
                                  before trusting its artifacts
  trace   [RUN] [--last] [--summary] [--export chrome|json]
                                  inspect recorded run journals: with no RUN, list
                                  them; with a RUN (or --last for the newest, e.g.
                                  after a crash) print the per-task/per-level time
                                  and cache breakdown, or --export chrome for
                                  chrome://tracing- and Perfetto-loadable JSON
                                  (--export json prints the verified journal lines)";

/// The options `command`'s entry in [`USAGE`] lists, or `None` for a
/// command `USAGE` does not list.
fn usage_options(command: &str) -> Option<Vec<&'static str>> {
    let start = USAGE.find(&format!("\n  {command} "))? + 1;
    let entry = USAGE[start..]
        .lines()
        .enumerate()
        .take_while(|(i, line)| *i == 0 || line.starts_with("          ["));
    let options = entry
        .flat_map(|(_, line)| line.split('[').skip(1))
        .filter_map(|opt| opt.split([' ', ']']).next())
        .filter(|opt| opt.starts_with('-'));
    Some(options.collect())
}

/// A malformed command line: the reason, then the usage text.
fn usage_error(why: &str) -> MarshalError {
    MarshalError::Other(format!("{why}\n{USAGE}"))
}

/// The value after `flag`, parsed as a `T` described by `what`.
fn flag_value<T: FromStr>(
    flag: &str,
    value: Option<&String>,
    what: &str,
) -> Result<T, MarshalError> {
    let v = value.ok_or_else(|| usage_error(&format!("{flag} needs {what}")))?;
    v.parse()
        .map_err(|_| usage_error(&format!("{flag}: `{v}` is not {what}")))
}

/// Parses command-line arguments (excluding `argv[0]`).
///
/// # Errors
///
/// [`MarshalError::Other`] with a usage hint for malformed invocations.
pub fn parse_args(args: &[String]) -> Result<CliArgs, MarshalError> {
    let mut search_dirs = Vec::new();
    let mut workdir = "./marshal-workdir".to_owned();
    let mut verbose = false;
    let mut it = args.iter();
    let err = usage_error;

    // Global options.
    let command_word = loop {
        match it.next() {
            None => return Err(err("missing command")),
            Some(a) if a == "-d" || a == "--dir" => {
                search_dirs.push(flag_value("-d", it.next(), "a directory")?);
            }
            Some(a) if a == "--workdir" => workdir = flag_value(a, it.next(), "a path")?,
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

    // Per-command options and the workload argument. A command takes
    // exactly the options its `USAGE` entry lists.
    let takes = usage_options(&command_word);
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
    let mut dry_run = false;
    let mut progress = false;
    let mut keep_runs: Option<usize> = None;
    let mut export: Option<String> = None;
    let mut summary = false;
    let mut last = false;
    let mut no_checkpoint = false;
    let mut workload = None;
    while let Some(a) = it.next() {
        let flag = if a == "--jobs" { "-j" } else { a.as_str() };
        // Known to some command's entry (not the global `usage:` line).
        let entries = USAGE.split_once('\n').map_or("", |(_, e)| e);
        let listed = [format!("[{flag} "), format!("[{flag}]")];
        let known = listed.iter().any(|l| entries.contains(l.as_str()));
        if known && takes.as_ref().is_some_and(|t| !t.contains(&flag)) {
            return Err(err(&format!(
                "option `{a}` does not apply to `{command_word}`"
            )));
        }
        match flag {
            "--no-disk" => no_disk = true,
            "--no-checkpoint" => no_checkpoint = true,
            "--force" => force = true,
            "--keep-going" => keep_going = true,
            "--dry-run" => dry_run = true,
            "--progress" => progress = true,
            "--inject-divergence" => inject_divergence = true,
            "--summary" => summary = true,
            "--last" => last = true,
            "--export" => export = Some(flag_value(flag, it.next(), "a format (chrome, json)")?),
            "--keep-runs" => keep_runs = Some(flag_value(flag, it.next(), "a run count")?),
            "--timeout-insts" => {
                timeout_insts = Some(flag_value(flag, it.next(), "an instruction count")?)
            }
            "-j" => {
                jobs = Some(
                    flag_value::<NonZeroUsize>(flag, it.next(), "a positive thread count")?.get(),
                )
            }
            "--job" => job = Some(flag_value(flag, it.next(), "a name")?),
            "--manual" => manual = Some(flag_value(flag, it.next(), "a directory")?),
            "--hw" => hw = Some(flag_value(flag, it.next(), "a config name")?),
            "--sim" => sim = Some(flag_value(flag, it.next(), "a backend/connector name")?),
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
            dry_run,
            progress,
        },
        "launch" => Command::Launch {
            workload: need_workload()?,
            job,
            jobs,
            timeout_insts,
            sim,
            hw,
            no_checkpoint,
        },
        "cosim" => Command::Cosim {
            workload: need_workload()?,
            jobs,
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
            no_checkpoint,
        },
        "install" => Command::Install {
            workload: need_workload()?,
            hw: hw.unwrap_or_else(|| "boom-tage".to_owned()),
            connector: sim.unwrap_or_else(|| "firesim".to_owned()),
        },
        "clean" => Command::Clean {
            workload: need_workload()?,
            keep_runs,
        },
        "scrub" => {
            if workload.is_some() {
                return Err(err("scrub takes no workload argument"));
            }
            Command::Scrub
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

/// [`hardware_by_name`] for a command-line argument: an unknown name is
/// an error naming the known ones.
fn hardware_arg(name: &str) -> Result<HardwareConfig, String> {
    hardware_by_name(name).ok_or_else(|| {
        format!("unknown hardware config `{name}` (try rocket, boom-gshare, boom-tage)")
    })
}

/// The journal header a command records, when it records one: the command
/// name and the workload argument. `trace`, `clean` and `help` run
/// untraced — inspection and retention must not mint the very journals
/// they manage.
fn trace_target(command: &Command) -> Option<(&'static str, Option<&str>)> {
    match command {
        Command::Build { workload, .. } => Some(("build", Some(workload))),
        Command::Launch { workload, .. } => Some(("launch", Some(workload))),
        Command::Cosim { workload, .. } => Some(("cosim", Some(workload))),
        Command::Test { workload, .. } => Some(("test", Some(workload))),
        Command::Install { workload, .. } => Some(("install", Some(workload))),
        Command::Scrub => Some(("scrub", None)),
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
/// Traced commands (all but `trace`, `clean` and `help`) record
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
    macro_rules! or_fail {
        ($e:expr) => {
            match $e {
                Ok(v) => v,
                Err(e) => fail!(e),
            }
        };
    }
    let known_backend = |name: &str| match resolve_backend(name) {
        Some(_) => Ok(()),
        None => Err(format!(
            "unknown simulator backend `{name}` (try {})",
            simulator_names().join(", ")
        )),
    };
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
            dry_run,
            progress,
        } => {
            let opts = BuildOptions {
                no_disk: *no_disk,
                force: *force,
                keep_going: *keep_going,
                jobs: *jobs,
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
            let products = or_fail!(result);
            render_warnings(&mut log, rec, &mut seen, &products.warnings);
            if *dry_run {
                log.push(format!(
                    "dry run: {} task(s) would execute, {} up to date",
                    products.report.executed.len(),
                    products.report.skipped.len()
                ));
                for id in &products.report.executed {
                    log.push(format!("  would run {id}"));
                }
                return (0, log);
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
        Command::Launch {
            workload,
            job,
            jobs,
            timeout_insts,
            sim,
            hw,
            no_checkpoint,
        } => {
            if let Some(name) = sim {
                or_fail!(known_backend(name));
            }
            let hw_config = or_fail!(hw.as_deref().map(hardware_arg).transpose());
            let products = or_fail!(builder.build(workload, &BuildOptions::default()));
            render_warnings(&mut log, rec, &mut seen, &products.warnings);
            let launch_opts = LaunchOptions {
                timeout_insts: *timeout_insts,
                sim: sim.clone(),
                hw: hw_config,
                no_checkpoint: *no_checkpoint,
                jobs: *jobs,
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
                    let out = or_fail!(crate::launch::launch_job(
                        builder,
                        &products,
                        index,
                        &launch_opts
                    ));
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
                None => {
                    let run = or_fail!(launch_workload(builder, &products, &launch_opts));
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
            }
        }
        Command::Cosim {
            workload,
            jobs,
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
                jobs: *jobs,
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
                or_fail!(known_backend(name));
            }
            opts.hw = or_fail!(hw.as_deref().map(hardware_arg).transpose());
            let products = or_fail!(builder.build(workload, &BuildOptions::default()));
            render_warnings(&mut log, rec, &mut seen, &products.warnings);
            let report = or_fail!(cosim_workload(&products, &opts));
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
        Command::Test {
            workload,
            manual,
            timeout_insts,
            jobs,
            no_checkpoint,
        } => {
            let build_opts = BuildOptions {
                jobs: *jobs,
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
                        jobs: *jobs,
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
            let outcomes = or_fail!(outcomes_result);
            let mut code = 0;
            for outcome in &outcomes {
                match outcome {
                    TestOutcome::Pass => log.push("PASS".to_owned()),
                    TestOutcome::NoReference => log.push("PASS (no reference output)".to_owned()),
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
        Command::Install {
            workload,
            hw,
            connector,
        } => {
            or_fail!(hardware_arg(hw));
            let Some(conn) = crate::connector::connector_by_name(connector) else {
                fail!(format!(
                    "unknown simulator connector `{connector}` (try {})",
                    crate::connector::connector_names().join(", ")
                ));
            };
            let products = or_fail!(builder.build(workload, &BuildOptions::default()));
            render_warnings(&mut log, rec, &mut seen, &products.warnings);
            // Every install writes the FireSim manifest; another connector
            // adds its own files to the same install dir.
            let installed = install_workload(builder, &products).and_then(|(_, manifest)| {
                if conn.name() == FireSimConnector.name() {
                    Ok(manifest)
                } else {
                    conn.install(&products, &builder.install_dir(&products.workload))
                }
            });
            let path = or_fail!(installed);
            log.push(format!(
                "installed `{}` ({} node(s), {} connector) -> {}",
                products.workload,
                products.jobs.len(),
                conn.name(),
                path.display()
            ));
            (0, log)
        }
        Command::Clean {
            workload,
            keep_runs,
        } => {
            let report = or_fail!(clean_workload(
                builder,
                workload,
                keep_runs.unwrap_or(DEFAULT_KEEP_RUNS)
            ));
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
        Command::Scrub => {
            let report = or_fail!(crate::scrub::scrub_pool(Path::new(&args.workdir), rec));
            render_warnings(&mut log, rec, &mut seen, &report.warnings);
            log.push(format!(
                "scrubbed pool: {} blob(s) ({} bytes) verified, {} corrupt \
                     ({} bytes quarantined), {} unrecoverable; \
                     {} manifest(s) checked, {} torn or orphaned removed",
                report.blobs_checked,
                report.bytes_checked,
                report.corrupt,
                report.quarantined_bytes,
                report.unrecoverable,
                report.manifests_checked,
                report.manifests_removed
            ));
            (if report.unrecoverable > 0 { 1 } else { 0 }, log)
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
            let journal = or_fail!(marshal_trace::read_journal(&journal_path));
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
/// stderr, redrawn by the executor on every task claim and settle.
/// Stderr so piping stdout stays clean; the Build dispatch clears the
/// line before any warning or summary prints.
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

/// Rejects a set `MARSHAL_REMOTE`. It named a `marshal serve` daemon to
/// fetch levels from; artifact serving is retired, and a script that still
/// sets it must learn that it no longer has any effect.
///
/// # Errors
///
/// [`MarshalError::Other`] with the usage text when `remote` is set.
pub fn check_retired_env(remote: Option<&std::ffi::OsStr>) -> Result<(), MarshalError> {
    match remote {
        Some(_) => Err(usage_error(
            "MARSHAL_REMOTE is retired: artifact serving was removed; share a workdir \
             by copying it, then run `marshal scrub` on the copy",
        )),
        None => Ok(()),
    }
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
                dry_run: false,
                progress: false
            }
        );
    }

    #[test]
    fn parse_dry_run_progress() {
        let args = parse(&["build", "--dry-run", "--progress", "w.json"]).unwrap();
        assert!(matches!(
            args.command,
            Command::Build {
                dry_run: true,
                progress: true,
                ..
            }
        ));
    }

    #[test]
    fn parse_scrub() {
        assert_eq!(parse(&["scrub"]).unwrap().command, Command::Scrub);
        assert!(parse(&["scrub", "w.json"]).is_err());
    }

    #[test]
    fn artifact_serving_is_rejected() {
        for line in [
            "serve",
            "serve --port 9300",
            "build --remote cache:9300 w.json",
            "install --remote cache:9300 w.json",
            "scrub --remote cache:9300",
        ] {
            let args: Vec<&str> = line.split(' ').collect();
            let err = parse(&args).unwrap_err().to_string();
            assert!(err.contains(USAGE), "{line}: {err}");
        }
        assert!(check_retired_env(None).is_ok());
        let err = check_retired_env(Some("cache:9300".as_ref()))
            .unwrap_err()
            .to_string();
        assert!(err.contains("MARSHAL_REMOTE is retired"), "{err}");
        assert!(err.contains(USAGE), "{err}");
    }

    #[test]
    fn parse_jobs() {
        let args = parse(&["build", "-j", "4", "w.json"]).unwrap();
        assert!(matches!(args.command, Command::Build { jobs: Some(4), .. }));
        let args = parse(&["build", "--jobs", "8", "w.json"]).unwrap();
        assert!(matches!(args.command, Command::Build { jobs: Some(8), .. }));
        let args = parse(&["test", "-j", "2", "w.json"]).unwrap();
        assert!(matches!(args.command, Command::Test { jobs: Some(2), .. }));
        let args = parse(&["launch", "-j", "1", "w.json"]).unwrap();
        assert!(matches!(
            args.command,
            Command::Launch { jobs: Some(1), .. }
        ));
        let args = parse(&["cosim", "--jobs", "3", "w.json"]).unwrap();
        assert!(matches!(args.command, Command::Cosim { jobs: Some(3), .. }));
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
                jobs: None,
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
                jobs: None,
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
                jobs: None,
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
                jobs: None,
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
        for line in [
            "launch --no-disk hello.json",
            "build --sim rtl hello.json",
            "clean --keep-going hello.json",
            "test --hw rocket w.json",
            "scrub --jobs 2",
        ] {
            let args: Vec<&str> = line.split(' ').collect();
            let err = parse(&args).unwrap_err().to_string();
            let want = format!("option `{}` does not apply to `{}`", args[1], args[0]);
            assert!(err.contains(&want) && err.contains(USAGE), "{line}: {err}");
        }
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
