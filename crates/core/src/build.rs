//! The `build` command (§III-B): turn a workload specification into a boot
//! binary and disk image, with doit-style incremental rebuilds.
//!
//! Build phases, as in the paper:
//! 1. configuration (parse + inherit + expand jobs),
//! 2. recursive parent image builds (one depgraph task per chain level),
//! 3. `host-init`,
//! 4. boot binary (config fragments → modules → initramfs → kernel →
//!    firmware link),
//! 5. disk image (parent copy → files/overlay → guest-init → boot command),
//! 6. `--no-disk` initramfs embedding.

use std::path::{Path, PathBuf};
use std::sync::Arc;

use marshal_config::{expand_jobs, resolve_workload, SearchPath, WorkloadSpec};
use marshal_depgraph::{BuildReport, Graph, StateDb, Task};
use marshal_firmware::{build_firmware, link_boot_binary, BootBinary, FirmwareBuild};
use marshal_image::{initsys, BootPayload, FsImage, InitSystem};
use marshal_linux::kconfig::KernelConfig;
use marshal_linux::kernel::build_kernel;
use marshal_linux::InitramfsSpec;
use marshal_script::{HostEnv, Interp, Value};
use marshal_sim_functional::LaunchMode;
use marshal_trace::Recorder;

use crate::board::Board;
use crate::error::MarshalError;
use crate::imagestore::{ImageStore, PoolPin};
use crate::simulator::{default_backend, simulator_for, BackendOptions};
use crate::warnings::Warning;

/// Options for `build`.
#[derive(Clone, Default)]
pub struct BuildOptions {
    /// Embed the disk image in the initramfs (`--no-disk`).
    pub no_disk: bool,
    /// Ignore the state database and rebuild everything.
    pub force: bool,
    /// On task failure, keep building every job not downstream of the
    /// failure and report the aggregate (`--keep-going`). Without it the
    /// first failure aborts the build.
    pub keep_going: bool,
    /// Worker threads for task execution (`-j N`). `None` uses the host's
    /// available parallelism ([`marshal_depgraph::host_threads`]);
    /// `Some(1)` builds serially.
    pub jobs: Option<usize>,
    /// Plan without executing (`--dry-run`): the report's `executed` lists
    /// what would build, and the state database and filesystem are left
    /// untouched.
    pub dry_run: bool,
    /// Live progress callback (`--progress`), called under the executor
    /// lock by the worker that changed the state, once per task claim and
    /// once per settle.
    pub progress: Option<marshal_depgraph::ProgressFn>,
}

impl std::fmt::Debug for BuildOptions {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        f.debug_struct("BuildOptions")
            .field("no_disk", &self.no_disk)
            .field("force", &self.force)
            .field("keep_going", &self.keep_going)
            .field("jobs", &self.jobs)
            .field("dry_run", &self.dry_run)
            .field("progress", &self.progress.is_some())
            .finish()
    }
}

/// What kind of artifact a job produced.
#[derive(Debug, Clone, PartialEq, Eq)]
pub enum JobKind {
    /// A Linux workload: boot binary plus (unless diskless) a disk image.
    Linux {
        /// Path of the serialised boot binary.
        boot_path: PathBuf,
        /// Path of the serialised disk image (None for `--no-disk`).
        disk_path: Option<PathBuf>,
    },
    /// A bare-metal workload: a single MEXE binary.
    Bare {
        /// Path of the binary.
        bin_path: PathBuf,
    },
}

/// One job's build products.
#[derive(Debug, Clone)]
pub struct JobArtifacts {
    /// Qualified name (`workload.job`, or just the workload name).
    pub name: String,
    /// The job's fully merged spec.
    pub spec: WorkloadSpec,
    /// The artifact paths.
    pub kind: JobKind,
}

/// Everything `build` produced for one workload.
#[derive(Debug, Clone)]
pub struct BuildProducts {
    /// The top-level workload name.
    pub workload: String,
    /// The top-level merged spec (post-run-hook, testing, outputs live here).
    pub top_spec: WorkloadSpec,
    /// Per-job artifacts, in job declaration order.
    pub jobs: Vec<JobArtifacts>,
    /// Which tasks executed vs. were skipped (the §III-B incremental-build
    /// behaviour). For a `--dry-run` build, `executed` lists the tasks that
    /// would have run, in topological order.
    pub report: BuildReport,
    /// The workload's source directory (for hooks and reference outputs).
    pub source_dir: Option<PathBuf>,
    /// Non-fatal diagnostics, in the order they arose (state-database
    /// recovery, interrupted-task rebuilds). The CLI prints each once;
    /// library code never writes to stderr.
    pub warnings: Vec<Warning>,
}

/// The FireMarshal build engine.
#[derive(Debug)]
pub struct Builder {
    board: Board,
    search: SearchPath,
    workdir: PathBuf,
    db: StateDb,
    /// Warnings gathered while opening the state database, handed to the
    /// first build's [`BuildProducts::warnings`].
    open_warnings: Vec<Warning>,
    /// Run-journal recorder; disabled by default. Cloned into the task
    /// executor and the image store so the whole build lands in one
    /// journal.
    recorder: Recorder,
}

impl Builder {
    /// Creates a builder with a persistent state database under `workdir`.
    ///
    /// # Errors
    ///
    /// [`MarshalError::Build`] when the state database is unreadable.
    pub fn new(
        board: Board,
        search: SearchPath,
        workdir: impl Into<PathBuf>,
    ) -> Result<Builder, MarshalError> {
        let workdir = workdir.into();
        let db = StateDb::open(workdir.join("state.db"))?;
        let mut open_warnings = Vec::new();
        if let Some(note) = db.recovery() {
            open_warnings.push(Warning::with_code("", note, "state-recovered"));
        }
        for id in db.interrupted() {
            open_warnings.push(Warning::with_code(
                id.clone(),
                "a previous run was interrupted while this task was executing; \
                 its state was discarded and it will rebuild",
                "task-interrupted",
            ));
        }
        Ok(Builder {
            board,
            search,
            workdir,
            db,
            open_warnings,
            recorder: Recorder::disabled(),
        })
    }

    /// Installs a run-journal recorder. Every subsequent build, launch, and
    /// test through this builder records spans and events into it.
    pub fn set_recorder(&mut self, recorder: Recorder) {
        self.recorder = recorder;
    }

    /// The builder's recorder (disabled unless [`Builder::set_recorder`]
    /// installed one).
    pub fn recorder(&self) -> &Recorder {
        &self.recorder
    }

    /// If opening the state database recovered from corruption, the
    /// human-readable account (also surfaced as a build warning).
    pub fn state_recovery(&self) -> Option<&str> {
        self.db.recovery()
    }

    /// Warnings gathered while opening the state database that no build
    /// has reported yet (each build drains them into
    /// [`BuildProducts::warnings`]).
    pub fn open_warnings(&self) -> &[Warning] {
        &self.open_warnings
    }

    /// The board this builder targets.
    pub fn board(&self) -> &Board {
        &self.board
    }

    /// The workload search path.
    pub fn search(&self) -> &SearchPath {
        &self.search
    }

    /// The working directory.
    pub fn workdir(&self) -> &Path {
        &self.workdir
    }

    /// Where a job's artifacts live.
    pub fn image_dir(&self, qualified: &str) -> PathBuf {
        self.workdir.join("images").join(qualified)
    }

    /// Where a workload's run outputs live.
    pub fn run_dir(&self, workload: &str) -> PathBuf {
        self.workdir.join("runs").join(workload)
    }

    /// Where a workload's install manifest lives.
    pub fn install_dir(&self, workload: &str) -> PathBuf {
        self.workdir.join("installs").join(workload)
    }

    /// All recorded build-state task ids.
    pub(crate) fn state_task_ids(&self) -> Vec<String> {
        self.db.task_ids()
    }

    /// Forgets one build-state entry.
    pub(crate) fn forget_state(&mut self, id: &str) -> bool {
        self.db.forget(id)
    }

    /// Flushes the state database.
    pub(crate) fn flush_state(&self) -> Result<(), MarshalError> {
        self.db.flush().map_err(MarshalError::from)
    }

    /// The directory containing the workload's spec file, when it came from
    /// disk (hooks, overlays, and `bin` resolve relative to it).
    pub fn source_dir(&self, name: &str) -> Option<PathBuf> {
        match self.search.locate(name) {
            Some(marshal_config::search::Located::File(p)) => p.parent().map(Path::to_path_buf),
            _ => None,
        }
    }

    /// Builds a workload: every job's boot binary and disk image.
    ///
    /// # Errors
    ///
    /// Configuration, task, simulation (guest-init), and I/O errors.
    pub fn build(
        &mut self,
        name: &str,
        options: &BuildOptions,
    ) -> Result<BuildProducts, MarshalError> {
        // Everything before graph execution (config resolve, job
        // expansion, host-init, task planning, the pool preflight) is the
        // `plan` span; it closes before the `build` span opens.
        let plan_span = self.recorder.span("plan", &[("workload", name)]);
        let resolved = resolve_workload(&self.search, name)?;
        let jobs = expand_jobs(&self.search, &resolved)?;
        let source_dir = self.source_dir(name);
        if options.force && !options.dry_run {
            self.db.clear();
        }

        let mut graph = Graph::new();
        // Shared store for images produced by level tasks within this build.
        let mut store = ImageStore::new(&self.workdir);
        store.set_recorder(self.recorder.clone());
        let store = store;

        // --- host-init (§III-B step 3) -----------------------------------
        // Like FireMarshal, host-init is a hook that runs unconditionally
        // on every build, *before* task planning — so overlay/file hashes
        // always see its outputs. The scripts themselves are expected to be
        // idempotent (assembling the same sources yields the same bytes, so
        // downstream tasks stay up to date). Dry runs skip it: planning
        // must not touch the filesystem.
        if let Some(hi) = resolved
            .spec
            .host_init
            .as_ref()
            .filter(|_| !options.dry_run)
        {
            let dir = source_dir.clone().ok_or_else(|| {
                MarshalError::Other(format!(
                    "workload `{name}` has host-init but no source directory"
                ))
            })?;
            let (script_file, args) = split_command(hi);
            let script = read_text_input(&dir.join(&script_file), "host-init")?;
            let mut env = HostEnv::new(&dir);
            let mut interp = Interp::new();
            let argv: Vec<Value> = args.iter().map(|a| Value::Str(a.clone())).collect();
            interp
                .run(&script, &mut env, &argv)
                .map_err(|e| MarshalError::Script(format!("host-init: {e}")))?;
        }

        // --- per-job tasks -------------------------------------------------
        let mut job_plans = Vec::new();
        for job in &jobs {
            let plan = self.plan_job(&mut graph, &store, job, options, source_dir.as_deref())?;
            job_plans.push(plan);
        }

        let mut warnings = std::mem::take(&mut self.open_warnings);
        // Detect pool damage *before* execution: a torn manifest or a
        // manifest referencing a pruned/quarantined blob is removed here,
        // so the owning level reruns this very build instead of poisoning
        // its consumers with a load failure.
        preflight_pool(&store, &job_plans, &mut warnings);

        plan_span.end_with(&[("jobs", &job_plans.len().to_string())]);

        let roots: Vec<&str> = job_plans.iter().map(|p| p.final_task.as_str()).collect();
        let threads = options.jobs.unwrap_or_else(marshal_depgraph::host_threads);
        let opts = marshal_depgraph::ExecOptions {
            keep_going: options.keep_going,
            recorder: self.recorder.clone(),
            progress: options.progress.clone(),
        };
        let exec_span = self.recorder.span(
            "build",
            &[("workload", name), ("threads", &threads.to_string())],
        );
        // Pin the blob pool for the duration of execution: a concurrent
        // `marshal clean` in another process defers pruning while any live
        // pin exists, so a blob this build just decided not to rewrite
        // cannot vanish under it.
        let pin = PoolPin::acquire(store.objects_dir()).map_err(MarshalError::Io)?;
        let plan = marshal_depgraph::Plan {
            roots: Some(&roots),
            threads,
            dry_run: options.dry_run,
        };
        let report = graph.execute(&mut self.db, plan, &opts);
        drop(pin);
        match &report {
            Ok(r) => exec_span.end_with(&[
                ("outcome", if r.success() { "ok" } else { "failed" }),
                ("executed", &r.executed.len().to_string()),
                ("skipped", &r.skipped.len().to_string()),
            ]),
            Err(_) => exec_span.end_with(&[("outcome", "error")]),
        }
        let report = report?;
        // Flush even when keep-going recorded partial progress: the
        // successful subtrees stay incremental on the next attempt. A dry
        // run changed nothing and writes nothing.
        if !options.dry_run {
            self.db.flush()?;
        }

        let jobs = job_plans
            .into_iter()
            .map(|p| JobArtifacts {
                name: p.name,
                spec: p.spec,
                kind: p.kind,
            })
            .collect();
        Ok(BuildProducts {
            workload: resolved.spec.name.clone(),
            top_spec: resolved.spec,
            jobs,
            report,
            source_dir,
            warnings,
        })
    }

    fn plan_job(
        &self,
        graph: &mut Graph,
        store: &ImageStore,
        job: &marshal_config::jobs::ExpandedJob,
        options: &BuildOptions,
        source_dir: Option<&Path>,
    ) -> Result<JobPlan, MarshalError> {
        let spec = &job.workload.spec;
        let qualified = job.qualified_name.clone();
        let image_dir = self.image_dir(&qualified);

        // Bare-metal jobs: a hard-coded binary, usually built by host-init.
        if spec.distro.as_deref() == Some("bare-metal") || spec.bin.is_some() {
            let bin_name = spec.bin.clone().ok_or_else(|| {
                MarshalError::Other(format!("bare-metal job `{qualified}` needs a `bin` option"))
            })?;
            let src = source_dir.map(|d| d.join(&bin_name)).ok_or_else(|| {
                MarshalError::Other(format!(
                    "job `{qualified}`: binary `{bin_name}` not found (did host-init build it?)"
                ))
            })?;
            // Host-init has run by now, except in a dry run. A binary that
            // cannot be read keys as empty and fails only this task, so
            // `--keep-going` still builds every other job.
            let data = Arc::new(read_input(&src, "bin").map_err(|e| e.to_string()));
            let bin_path = image_dir.join("bin.mexe");
            let task_id = format!("bin:{qualified}");
            let bin_out = bin_path.clone();
            let task_data = Arc::clone(&data);
            let task = Task::new(task_id.clone(), move || {
                let data = task_data.as_deref().map_err(Clone::clone)?;
                crate::integrity::write_artifact(&bin_out, data)
            })
            .input(bin_name.as_bytes())
            .input(data.as_deref().unwrap_or_default())
            .output(&bin_path)
            .output(crate::integrity::sidecar_path(&bin_path));
            graph.add(task)?;
            return Ok(JobPlan {
                name: qualified,
                spec: spec.clone(),
                kind: JobKind::Bare { bin_path },
                final_task: task_id,
                level_keys: Vec::new(),
                job_level: None,
            });
        }

        // Linux jobs.
        let distro = spec.distro.clone().ok_or_else(|| {
            MarshalError::Other(format!(
                "workload `{qualified}` resolves to no distro; its root base must set one"
            ))
        })?;
        let base_image = self.board.distro_image(&distro).cloned().ok_or_else(|| {
            MarshalError::Other(format!(
                "board `{}` provides no `{distro}` base image",
                self.board.name
            ))
        })?;
        let init_system = InitSystem::for_distro(&distro).ok_or_else(|| {
            MarshalError::Other(format!("distro `{distro}` has no init system mapping"))
        })?;

        // --- image chain: one task per inheritance level (step 2/5) ------
        let mut prev_task: Option<String> = None;
        let mut prev_key = String::new();
        let mut level_keys = Vec::new();
        for (i, level) in job.workload.levels.iter().enumerate() {
            let key = if prev_key.is_empty() {
                level.name.clone()
            } else {
                format!("{prev_key}/{}", level.name)
            };
            level_keys.push(key.clone());
            let task_id = format!("img:{key}");
            if graph.get(&task_id).is_none() {
                let mut task = self.level_task(
                    &task_id,
                    store,
                    level,
                    if i == 0 {
                        Some(base_image.clone())
                    } else {
                        None
                    },
                    prev_key.clone(),
                    key.clone(),
                    source_dir,
                )?;
                if let Some(p) = &prev_task {
                    task = task.dep(p.clone());
                }
                graph.add(task)?;
            }
            prev_task = Some(task_id);
            prev_key = key;
        }
        let chain_task = prev_task.expect("at least one level");
        let chain_key = prev_key;

        // --- final job image: payload + rootfs-size (step 5c) -------------
        let disk_path = image_dir.join("rootfs.img");
        let jobimg_id = format!("jobimg:{qualified}");
        {
            let job_image_path = store.path_for(&format!("job:{}", spec.name));
            let objects_dir = store.objects_dir().to_path_buf();
            let store = store.clone();
            let spec_for_task = spec.clone();
            let chain_key = chain_key.clone();
            let disk_out = disk_path.clone();
            let task = Task::new(jobimg_id.clone(), move || {
                let mut image = store.load(&chain_key)?;
                init_system.remove_payload(&mut image);
                if let Some(payload) = boot_payload(&spec_for_task) {
                    init_system
                        .install_payload(&mut image, &payload)
                        .map_err(|e| e.to_string())?;
                }
                image.set_size_limit(spec_for_task.rootfs_size);
                image.check_size().map_err(|e| e.to_string())?;
                crate::integrity::write_artifact(&disk_out, &image.to_bytes())?;
                store.store(&format!("job:{}", spec_for_task.name), image)
            })
            .dep(chain_task.clone())
            .input(format!("{:?}{:?}{:?}", spec.run, spec.command, spec.rootfs_size).as_bytes())
            .output(&disk_path)
            .output(crate::integrity::sidecar_path(&disk_path))
            .claim(job_image_path)
            .claim_tree(objects_dir)
            .input(qualified.as_bytes());
            graph.add(task)?;
        }

        // --- boot binary (step 4) ------------------------------------------
        let boot_path = image_dir.join("boot.bin");
        let boot_id = format!("boot:{qualified}");
        {
            let board = self.board.clone();
            let spec_for_task = spec.clone();
            let fragments: Arc<[String]> = self.resolve_fragments(spec, source_dir)?.into();
            let task_fragments = Arc::clone(&fragments);
            let boot_out = boot_path.clone();
            let no_disk = options.no_disk;
            let objects_dir = store.objects_dir().to_path_buf();
            let store = store.clone();
            let spec_name = spec.name.clone();
            let mut task = Task::new(boot_id.clone(), move || {
                let boot = build_boot_binary(
                    &board,
                    &spec_for_task,
                    &task_fragments,
                    if no_disk {
                        Some(store.load(&format!("job:{spec_name}"))?)
                    } else {
                        None
                    },
                )
                .map_err(|e| e.to_string())?;
                crate::integrity::write_artifact(&boot_out, &boot.to_bytes())
            })
            .input(format!("{:?}", spec.linux).as_bytes())
            .input(format!("{:?}", spec.firmware).as_bytes())
            .input(&[options.no_disk as u8])
            .output(&boot_path)
            .output(crate::integrity::sidecar_path(&boot_path))
            // Diskless boots load the job image, and a load may quarantine
            // a pool blob — a write under the shared pool tree.
            .claim_tree(objects_dir);
            for f in fragments.iter() {
                task = task.input(f.as_bytes());
            }
            // Diskless boots embed the job image, so depend on it.
            task = task.dep(jobimg_id.clone());
            graph.add(task)?;
        }

        Ok(JobPlan {
            name: qualified,
            spec: spec.clone(),
            kind: JobKind::Linux {
                boot_path,
                disk_path: if options.no_disk {
                    None
                } else {
                    Some(disk_path.clone())
                },
            },
            final_task: boot_id,
            level_keys,
            job_level: Some((format!("job:{}", spec.name), disk_path)),
        })
    }

    /// Builds the task for one inheritance level's image.
    #[allow(clippy::too_many_arguments)]
    fn level_task(
        &self,
        task_id: &str,
        store: &ImageStore,
        level: &WorkloadSpec,
        base: Option<FsImage>,
        parent_key: String,
        key: String,
        source_dir: Option<&Path>,
    ) -> Result<Task, MarshalError> {
        // Every level input is read once, here: the fingerprint covers the
        // bytes that were read and the task applies those same bytes. The
        // overlay becomes an image whose Merkle fingerprint (node kinds,
        // exec bits, symlink targets) keys the level.
        let overlay = match &level.overlay {
            Some(o) => {
                let dir = self.locate_in_sources(o, "overlay", source_dir)?;
                let mut tree = FsImage::new();
                tree.overlay_host_dir(&dir, "/")
                    .map_err(|e| MarshalError::Io(format!("overlay `{o}`: {e}")))?;
                Some(tree)
            }
            None => None,
        };
        let files: Vec<(String, Vec<u8>)> = level
            .files
            .iter()
            .map(|f| {
                let path = self.locate_in_sources(&f.host, "file", source_dir)?;
                Ok((f.guest.clone(), read_input(&path, "file")?))
            })
            .collect::<Result<_, MarshalError>>()?;
        let guest_init = match &level.guest_init {
            Some(gi) => Some(read_text_input(
                &self.locate_in_sources(gi, "guest-init", source_dir)?,
                "guest-init",
            )?),
            None => None,
        };
        let hard_img = match &level.img {
            Some(img) => {
                let bytes = read_input(&self.locate_in_sources(img, "img", source_dir)?, "img")?;
                Some(
                    FsImage::from_bytes(&bytes)
                        .map_err(|e| MarshalError::Other(format!("img `{img}`: {e}")))?,
                )
            }
            None => None,
        };

        let mut input_hash = marshal_depgraph::Hasher128::new();
        input_hash.update_field(key.as_bytes());
        if let Some(tree) = &overlay {
            input_hash.update_field(tree.fingerprint().to_string().as_bytes());
        }
        for (guest, data) in &files {
            input_hash.update_field(guest.as_bytes());
            input_hash.update_field(data);
        }
        if let Some(gi) = &guest_init {
            input_hash.update_field(gi.as_bytes());
            // Guest-init boots on the level's own simulator backend, so a
            // backend change must dirty the image.
            input_hash.update_field(level.spike.as_deref().unwrap_or("").as_bytes());
            input_hash.update_field(level.qemu.as_deref().unwrap_or("").as_bytes());
        }
        if let Some(img) = &hard_img {
            // The memoized Merkle fingerprint replaces serialising the whole
            // image just to hash it.
            input_hash.update_field(img.fingerprint().to_string().as_bytes());
        }

        let board = self.board.clone();
        let store = store.clone();
        let out_path = store.path_for(&key);
        let objects_dir = store.objects_dir().to_path_buf();
        let input_fp = input_hash.finish();
        // Just the backend-selection slice of the level spec: which
        // functional simulator boots the guest-init script.
        let sim_spec = WorkloadSpec {
            name: level.name.clone(),
            spike: level.spike.clone(),
            spike_args: level.spike_args.clone(),
            qemu: level.qemu.clone(),
            qemu_args: level.qemu_args.clone(),
            ..WorkloadSpec::default()
        };
        let task = Task::new(task_id, move || {
            let mut image = match (&hard_img, &base) {
                (Some(img), _) => img.clone(),
                (None, Some(base)) => base.clone(),
                (None, None) => store.load(&parent_key)?,
            };
            if let Some(tree) = &overlay {
                image.apply_overlay(tree);
            }
            for (guest, data) in &files {
                image
                    .write_exec(guest, data)
                    .map_err(|e| format!("file {guest}: {e}"))?;
            }
            if let Some(script) = &guest_init {
                run_guest_init(&board, &mut image, script, &sim_spec)?;
            }
            store.store(&key, image)
        })
        .input(input_fp.to_string().as_bytes())
        .output(out_path)
        // Blob paths are content-derived, so the whole pool is claimed as a
        // shared tree; concurrent level tasks dedupe writes in the store.
        .claim_tree(objects_dir);
        Ok(task)
    }

    /// Finds a workload-relative build input (`what` names it in the
    /// error): the workload's own directory first, then every search
    /// directory.
    fn locate_in_sources(
        &self,
        rel: &str,
        what: &str,
        source_dir: Option<&Path>,
    ) -> Result<PathBuf, MarshalError> {
        source_dir
            .into_iter()
            .chain(self.search.dirs().iter().map(PathBuf::as_path))
            .map(|dir| dir.join(rel))
            .find(|p| p.exists())
            .ok_or_else(|| MarshalError::Other(format!("{what} `{rel}` not found")))
    }

    /// Resolves `linux.config` fragment references to their contents.
    fn resolve_fragments(
        &self,
        spec: &WorkloadSpec,
        source_dir: Option<&Path>,
    ) -> Result<Vec<String>, MarshalError> {
        let Some(linux) = &spec.linux else {
            return Ok(Vec::new());
        };
        let what = "kernel config fragment";
        linux
            .config
            .iter()
            .map(|frag| {
                if frag.contains('\n') || frag.contains('=') {
                    // Inline fragment text.
                    return Ok(frag.clone());
                }
                read_text_input(&self.locate_in_sources(frag, what, source_dir)?, what)
            })
            .collect()
    }
}

/// Reads one host build input (`what` names it in the error). Every input
/// file (host-init script, `files`, `bin`, guest-init, `img`, kernel config
/// fragments) is read here once, at plan time, and the task keyed by the
/// bytes owns them: an edit after planning cannot store one content under
/// another content's key. Overlay directories are read the same way, once,
/// by `FsImage::overlay_host_dir`.
fn read_input(path: &Path, what: &str) -> Result<Vec<u8>, MarshalError> {
    std::fs::read(path).map_err(|e| MarshalError::Io(format!("{what} {}: {e}", path.display())))
}

/// [`read_input`] for a text input: a script or a config fragment.
fn read_text_input(path: &Path, what: &str) -> Result<String, MarshalError> {
    String::from_utf8(read_input(path, what)?)
        .map_err(|e| MarshalError::Io(format!("{what} {}: {e}", path.display())))
}

struct JobPlan {
    name: String,
    spec: WorkloadSpec,
    kind: JobKind,
    final_task: String,
    /// Level-store keys of the job's inheritance chain, root first.
    level_keys: Vec<String>,
    /// The job-image store key and its disk artifact (Linux jobs only);
    /// preflight removes the artifact too when the manifest is bad, since
    /// the artifact — not the manifest — is the owning task's output.
    job_level: Option<(String, PathBuf)>,
}

/// Scans every level manifest the planned jobs rely on, removing torn
/// manifests and manifests referencing blobs missing from the pool (each
/// with a warning) so the owning level rebuilds *this* run. Under
/// `--keep-going`, damage confined to one job's chain therefore costs only
/// that cone, exactly like any other task failure.
fn preflight_pool(store: &ImageStore, plans: &[JobPlan], warnings: &mut Vec<Warning>) {
    let mut seen = std::collections::BTreeSet::new();
    for plan in plans {
        for key in &plan.level_keys {
            if seen.insert(key.clone()) {
                preflight_level(store, key, None, warnings);
            }
        }
        if let Some((job_key, artifact)) = &plan.job_level {
            if seen.insert(job_key.clone()) {
                preflight_level(store, job_key, Some(artifact), warnings);
            }
        }
    }
}

fn preflight_level(
    store: &ImageStore,
    key: &str,
    artifact: Option<&PathBuf>,
    warnings: &mut Vec<Warning>,
) {
    let path = store.path_for(key);
    let refs = marshal_image::read_level(&path).and_then(|b| marshal_image::manifest_refs(&b));
    let problem = match refs {
        // Absent (never built) or unreadable: nothing to cross-check.
        Err(marshal_image::StoreError::Io(_)) => return,
        Err(e) => Some(format!("torn or malformed manifest ({e})")),
        Ok(refs) => refs
            .iter()
            .find(|fp| !store.blobs().has(**fp))
            .map(|fp| format!("manifest references blob {fp} missing from the pool")),
    };
    let Some(problem) = problem else {
        return;
    };
    let _ = std::fs::remove_file(&path);
    if let Some(artifact) = artifact {
        let _ = std::fs::remove_file(artifact);
        let _ = std::fs::remove_file(crate::integrity::sidecar_path(artifact));
    }
    warnings.push(Warning::with_code(
        format!("level {key}"),
        format!("{problem}; removed so the level rebuilds this run"),
        "pool-damage",
    ));
}

fn boot_payload(spec: &WorkloadSpec) -> Option<BootPayload> {
    if let Some(cmd) = &spec.command {
        return Some(BootPayload::Command(cmd.clone()));
    }
    spec.run.as_ref().map(|r| {
        BootPayload::Script(if r.starts_with('/') {
            r.clone()
        } else {
            format!("/{r}")
        })
    })
}

fn split_command(line: &str) -> (String, Vec<String>) {
    let mut parts = line.split_whitespace();
    let script = parts.next().unwrap_or("").to_owned();
    (script, parts.map(str::to_owned).collect())
}

/// Runs a level's one-shot guest-init script by booting the image on the
/// level's functional simulator backend (step 5b: "boots it in QEMU. This
/// script is run exactly once" — or the workload's custom Spike, so a
/// guest-init that probes accelerator features sees the same machine the
/// workload will run on).
fn run_guest_init(
    board: &Board,
    image: &mut FsImage,
    script: &str,
    spec: &WorkloadSpec,
) -> Result<(), String> {
    initsys::install_guest_init(image, script).map_err(|e| e.to_string())?;
    let boot = default_boot_binary(board).map_err(|e| e.to_string())?;
    // default_backend only ever picks a functional backend (qemu/spike);
    // guest-init never needs cycle-exact timing.
    let backend = simulator_for(default_backend(spec), spec, &BackendOptions::default())
        .map_err(|e| e.to_string())?;
    let job = crate::launch::LoadedJob::Linux {
        boot,
        disk: Some(image.clone()),
    };
    let (run, _) = backend
        .run(&job, LaunchMode::GuestInit, None)
        .map_err(|e| format!("guest-init boot: {e}"))?;
    *image = run
        .result
        .image
        .ok_or_else(|| "guest-init boot returned no image".to_owned())?;
    Ok(())
}

/// Builds the board-default boot binary (used for guest-init boots).
fn default_boot_binary(board: &Board) -> Result<BootBinary, MarshalError> {
    let config = KernelConfig::riscv_defconfig();
    let mut initramfs = InitramfsSpec::new();
    for (name, src) in &board.drivers {
        initramfs = initramfs.module(name, src);
    }
    let initramfs = initramfs.build(&config, &board.default_kernel)?;
    let kernel = build_kernel(&board.default_kernel, &config, &initramfs)?;
    let fw = build_firmware(&board.default_firmware)?;
    Ok(link_boot_binary(&fw, &kernel)?)
}

/// Builds a job's boot binary per its spec (§III-B step 4).
pub fn build_boot_binary(
    board: &Board,
    spec: &WorkloadSpec,
    fragments: &[String],
    embedded_rootfs: Option<FsImage>,
) -> Result<BootBinary, MarshalError> {
    // 4a: final Linux configuration = defconfig + ordered fragments.
    let mut config = KernelConfig::riscv_defconfig();
    for frag in fragments {
        config.merge_fragment(frag)?;
    }
    // Kernel source selection.
    let source = match &spec.linux {
        Some(l) => board
            .kernel_source(l.source.as_deref())
            .cloned()
            .ok_or_else(|| {
                MarshalError::Other(format!(
                    "kernel source `{}` not provided by board `{}`",
                    l.source.as_deref().unwrap_or("?"),
                    board.name
                ))
            })?,
        None => board.default_kernel.clone(),
    };
    // 4b/4c: modules (board drivers + workload modules) and initramfs.
    let mut initramfs = InitramfsSpec::new();
    for (name, src) in &board.drivers {
        initramfs = initramfs.module(name, src);
    }
    if let Some(l) = &spec.linux {
        for (name, src) in &l.modules {
            initramfs = initramfs.module(name, src);
        }
    }
    if let Some(rootfs) = embedded_rootfs {
        initramfs = initramfs.embed_rootfs(rootfs);
    }
    let initramfs = initramfs.build(&config, &source)?;
    // 4d: kernel compilation.
    let kernel = build_kernel(&source, &config, &initramfs)?;
    // 4e: firmware link.
    let fw_build = match &spec.firmware {
        Some(f) => FirmwareBuild {
            kind: f.kind.unwrap_or_default(),
            source: f.source.clone().unwrap_or_else(|| "default".to_owned()),
            build_args: f.build_args.clone(),
        },
        None => board.default_firmware.clone(),
    };
    let fw = build_firmware(&fw_build)?;
    Ok(link_boot_binary(&fw, &kernel)?)
}
