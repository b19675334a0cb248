//! The `launch` command (§III-C): run a built workload on a simulator
//! backend, collect its outputs, and run the post-run hook.
//!
//! Backend selection goes through the [`crate::simulator`] registry:
//! `--sim <backend>` picks any registered backend, and the default is the
//! workload's own choice (custom Spike when the `spike` option is set,
//! QEMU otherwise).

use std::path::PathBuf;

use marshal_firmware::BootBinary;
use marshal_image::FsImage;
use marshal_sim_functional::LaunchMode;
pub use marshal_sim_functional::LoadedJob;
use marshal_sim_rtl::HardwareConfig;
use marshal_trace::Recorder;

use crate::build::{BuildProducts, Builder, JobArtifacts, JobKind};
use crate::checkpoint::{checkpoint_key, CheckpointLoad, CheckpointStore};
use crate::error::MarshalError;
use crate::imagestore::PoolPin;
use crate::output::{collect_outputs, load_hook_script, run_post_hook};
use crate::simulator::{default_backend, simulator_for, BackendOptions, SimRun, Simulator};
use crate::warnings::{Severity, Warning};

/// Options for the `launch` command.
#[derive(Debug, Clone, Default)]
pub struct LaunchOptions {
    /// Guest watchdog budget (`--timeout-insts`): maximum guest
    /// instructions before a hung payload is terminated. `None` keeps the
    /// simulator default.
    pub timeout_insts: Option<u64>,
    /// Simulator backend (`--sim`): a name the [`crate::simulator`]
    /// registry resolves. `None` uses the workload's default backend.
    pub sim: Option<String>,
    /// Hardware configuration for the cycle-exact backend (`--hw`).
    pub hw: Option<HardwareConfig>,
    /// Disable boot checkpointing (`--no-checkpoint`): always boot cold
    /// and never write a snapshot. The escape hatch when a checkpoint is
    /// suspected of masking a boot-path change.
    pub no_checkpoint: bool,
}

impl LaunchOptions {
    /// The backend-construction options this launch implies.
    pub fn backend_options(&self) -> BackendOptions {
        BackendOptions {
            timeout_insts: self.timeout_insts,
            hw: self.hw.clone(),
        }
    }
}

/// The result of launching one job.
#[derive(Debug, Clone)]
pub struct LaunchOutput {
    /// The job's qualified name.
    pub job: String,
    /// The full serial log.
    pub serial: String,
    /// The payload's exit code.
    pub exit_code: i64,
    /// Guest instructions executed.
    pub instructions: u64,
    /// Whether the guest watchdog terminated a hung payload. The serial
    /// log and whatever outputs the guest produced are still collected.
    pub timed_out: bool,
    /// Directory holding `uartlog` and collected outputs.
    pub job_dir: PathBuf,
    /// Non-fatal diagnostics (e.g. declared outputs a timed-out guest never
    /// wrote), in order. The CLI prints each once; the library itself never
    /// writes to stderr.
    pub warnings: Vec<Warning>,
}

/// Reads a job's built artifacts back from disk, verifying each against
/// its checksum sidecar (see [`crate::integrity`]).
///
/// # Errors
///
/// [`MarshalError::Other`] when artifacts are missing or malformed (run
/// `build` first); [`MarshalError::Corrupt`] when an artifact no longer
/// matches its recorded checksum (run `build --force` to rebuild).
pub fn load_artifacts(job: &JobArtifacts) -> Result<LoadedJob, MarshalError> {
    match &job.kind {
        JobKind::Linux {
            boot_path,
            disk_path,
        } => {
            let boot_bytes = crate::integrity::read_verified(boot_path)?;
            let boot = BootBinary::from_bytes(&boot_bytes)
                .map_err(|e| MarshalError::Other(format!("boot binary: {e}")))?;
            let disk = match disk_path {
                Some(p) => {
                    let bytes = crate::integrity::read_verified(p)?;
                    Some(
                        FsImage::from_bytes(&bytes)
                            .map_err(|e| MarshalError::Other(format!("disk image: {e}")))?,
                    )
                }
                None => None,
            };
            Ok(LoadedJob::Linux { boot, disk })
        }
        JobKind::Bare { bin_path } => {
            let bin = crate::integrity::read_verified(bin_path)?;
            Ok(LoadedJob::Bare { bin })
        }
    }
}

/// Runs loaded artifacts through a backend with boot checkpointing: a
/// verified checkpoint for the (backend config, boot, disk) key skips the
/// boot phase; an eligible cold boot writes a fresh checkpoint for later
/// launches. With `store` = `None` (or for bare jobs) this is exactly a
/// cold [`Simulator::run`].
///
/// Checkpoint damage is never fatal — a corrupt file is quarantined, the
/// boot runs cold, and the returned warnings say so. At worst a checkpoint
/// costs one cold boot; it can never change an answer.
///
/// # Errors
///
/// Simulation errors ([`MarshalError::Sim`]), exactly as an uncheckpointed
/// run would report them.
pub fn run_checkpointed(
    backend: &dyn Simulator,
    loaded: &LoadedJob,
    mode: LaunchMode,
    store: Option<&CheckpointStore>,
    context: &str,
    rec: &Recorder,
) -> Result<(SimRun, Vec<Warning>), MarshalError> {
    let (Some(store), LoadedJob::Linux { boot, disk }, LaunchMode::Run) = (store, loaded, mode)
    else {
        return Ok((backend.run(loaded, mode, None)?.0, Vec::new()));
    };
    let boot_fp = boot.fingerprint();
    let disk_fp = disk.as_ref().map(FsImage::fingerprint);
    let key = checkpoint_key(backend.config_fingerprint(), boot_fp, disk_fp);
    let key_text = key.to_string();
    let mut warnings = Vec::new();
    let span = rec.span(
        "checkpoint-restore",
        &[("key", &key_text), ("job", context)],
    );
    let (resume, outcome) = match store.load(key) {
        CheckpointLoad::Hit(snap) => (Some(snap), "hit"),
        CheckpointLoad::Miss => (None, "miss"),
        CheckpointLoad::Corrupt {
            quarantined,
            detail,
        } => {
            warnings.push(
                Warning::with_code(
                    context.to_owned(),
                    format!(
                        "boot checkpoint failed verification ({detail}); quarantined to {} \
                         and booting cold",
                        quarantined.display()
                    ),
                    "checkpoint-corrupt",
                )
                .severity(Severity::Degraded),
            );
            (None, "corrupt")
        }
    };
    span.end_with(&[("outcome", outcome)]);
    rec.instant(
        &format!("checkpoint-{outcome}"),
        &[("key", &key_text), ("job", context)],
    );
    let (run, captured) = backend.run(loaded, mode, resume.as_ref())?;
    if let Some(snap) = &captured {
        match store.save(key, boot_fp, disk_fp, snap) {
            Ok(()) => rec.instant("checkpoint-saved", &[("key", &key_text), ("job", context)]),
            Err(e) => warnings.push(Warning::with_code(
                context.to_owned(),
                format!("boot checkpoint not saved: {e}"),
                "checkpoint-write-failed",
            )),
        }
    }
    Ok((run, warnings))
}

/// Runs one job on the backend `opts.sim` names (the workload's default
/// backend when unset), with `opts.timeout_insts` overriding the guest
/// watchdog's instruction budget. With a checkpoint `store` the boot is
/// restored from (and saved to) it as [`run_checkpointed`] describes; the
/// recorder gets its checkpoint hit/miss instants.
///
/// # Errors
///
/// Unknown backend names, simulation errors, and artifact errors.
pub fn simulate_job(
    job: &JobArtifacts,
    opts: &LaunchOptions,
    store: Option<&CheckpointStore>,
    rec: &Recorder,
) -> Result<(SimRun, Vec<Warning>), MarshalError> {
    let loaded = load_artifacts(job)?;
    let backend_name = opts
        .sim
        .as_deref()
        .unwrap_or_else(|| default_backend(&job.spec));
    let backend = simulator_for(backend_name, &job.spec, &opts.backend_options())?;
    run_checkpointed(
        backend.as_ref(),
        &loaded,
        LaunchMode::Run,
        store,
        &job.name,
        rec,
    )
}

/// Launches one job of a built workload and collects its outputs.
///
/// # Errors
///
/// Simulation, collection, and I/O errors; bad `index`.
pub fn launch_job(
    builder: &Builder,
    products: &BuildProducts,
    index: usize,
    opts: &LaunchOptions,
) -> Result<LaunchOutput, MarshalError> {
    let job = products.jobs.get(index).ok_or_else(|| {
        MarshalError::Other(format!(
            "workload `{}` has no job index {index}",
            products.workload
        ))
    })?;
    let rec = builder.recorder();
    let backend_name = opts
        .sim
        .as_deref()
        .unwrap_or_else(|| default_backend(&job.spec))
        .to_owned();
    let store = (!opts.no_checkpoint).then(|| CheckpointStore::new(builder.workdir()));
    // Pin the checkpoint directory while this launch may read or write it,
    // so a concurrent `marshal clean` defers pruning (blob-pool semantics).
    let _pin = store.as_ref().and_then(|s| PoolPin::acquire(s.dir()).ok());
    let span = rec.sim_span(&backend_name, &job.name);
    let run = simulate_job(job, opts, store.as_ref(), rec);
    match &run {
        Ok((r, _)) => span.end_with(&[
            ("outcome", if r.result.timed_out { "timeout" } else { "ok" }),
            ("exit_code", &r.result.exit_code.to_string()),
            ("instructions", &r.result.instructions.to_string()),
            ("uartlog_bytes", &r.result.serial.len().to_string()),
        ]),
        Err(_) => span.end_with(&[("outcome", "error")]),
    }
    let (run, mut warnings) = run?;
    let result = run.result;
    if result.timed_out {
        rec.watchdog_fired(&job.name, result.instructions);
    }
    let job_dir = builder.run_dir(&products.workload).join(&job.name);
    if result.timed_out {
        // The watchdog killed the guest mid-run: salvage what it produced
        // (uartlog always, declared outputs when they exist) instead of
        // failing collection on outputs it never got to write.
        let missed = crate::output::salvage_outputs(
            &job_dir,
            &result.serial,
            result.image.as_ref(),
            &job.spec.outputs,
        )?;
        for path in &missed {
            warnings.push(Warning::with_code(
                job.name.clone(),
                format!("output `{path}` missing after watchdog timeout"),
                "watchdog-missing-output",
            ));
        }
    } else {
        collect_outputs(
            &job_dir,
            &result.serial,
            result.image.as_ref(),
            &job.spec.outputs,
        )?;
    }
    match &run.report {
        // The cycle-exact backend reports real timing.
        Some(report) => crate::output::write_stats(
            &job_dir,
            report.counters.cycles,
            report.counters.user_cycles,
            report.counters.kernel_cycles,
            report.counters.instructions,
            report.freq_mhz,
        )?,
        // Functional simulation has no timing model: report instruction
        // counts as pseudo-cycles (like wall-clock on QEMU, only roughly
        // meaningful).
        None => crate::output::write_stats(
            &job_dir,
            result.instructions,
            result.instructions,
            0,
            result.instructions,
            1000,
        )?,
    }
    Ok(LaunchOutput {
        job: job.name.clone(),
        serial: result.serial,
        exit_code: result.exit_code,
        instructions: result.instructions,
        timed_out: result.timed_out,
        job_dir,
        warnings,
    })
}

/// The result of launching a whole workload (every job) plus the post-run
/// hook.
#[derive(Debug, Clone)]
pub struct WorkloadRun {
    /// Per-job outputs, in job order.
    pub jobs: Vec<LaunchOutput>,
    /// The run's root directory.
    pub run_root: PathBuf,
    /// Lines printed by the post-run hook, if one ran.
    pub hook_log: Vec<String>,
}

/// Launches every job of a built workload, then runs the `post-run-hook`.
///
/// # Errors
///
/// First failing job's error, or hook errors.
pub fn launch_workload(
    builder: &Builder,
    products: &BuildProducts,
    opts: &LaunchOptions,
) -> Result<WorkloadRun, MarshalError> {
    let run_root = builder.run_dir(&products.workload);
    let mut jobs = Vec::with_capacity(products.jobs.len());
    for i in 0..products.jobs.len() {
        jobs.push(launch_job(builder, products, i, opts)?);
    }
    let hook_log = match &products.top_spec.post_run_hook {
        Some(hook) => {
            let (source, mut extra_args) = load_hook_script(hook, products.source_dir.as_deref())?;
            let mut args: Vec<String> = jobs.iter().map(|j| j.job.clone()).collect();
            args.append(&mut extra_args);
            run_post_hook(&source, &run_root, &args)?
        }
        None => Vec::new(),
    };
    Ok(WorkloadRun {
        jobs,
        run_root,
        hook_log,
    })
}
