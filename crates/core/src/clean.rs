//! The `clean` command: remove a workload's artifacts and build state.

use std::collections::BTreeSet;
use std::path::Path;

use marshal_config::{expand_jobs, resolve_workload};
use marshal_depgraph::{persist, Fingerprint};

use crate::build::Builder;
use crate::checkpoint::CheckpointStore;
use crate::error::MarshalError;
use crate::imagestore::{pid_alive, ImageStore};

/// What `clean` removed.
#[derive(Debug, Clone, Default, PartialEq, Eq)]
pub struct CleanReport {
    /// Build-state entries forgotten.
    pub state_entries: usize,
    /// Level manifests removed from `workdir/levels/`.
    pub levels_removed: usize,
    /// Blobs pruned from `workdir/objects/` because no surviving level
    /// manifest references them.
    pub blobs_pruned: usize,
    /// Payload bytes reclaimed by pruning blobs.
    pub bytes_reclaimed: u64,
    /// When pruning was deferred because another process holds a live
    /// advisory pin on the pool, the human-readable reason.
    pub prune_skipped: Option<String>,
    /// Journal run directories removed by `--keep-runs` retention.
    pub runs_pruned: usize,
    /// Bytes reclaimed by pruning old run journals.
    pub run_bytes_reclaimed: u64,
    /// Boot checkpoints pruned from `workdir/checkpoints/` because their
    /// boot binary or disk image no longer exists as a built artifact.
    pub checkpoints_pruned: usize,
    /// Bytes reclaimed by pruning stale boot checkpoints.
    pub checkpoint_bytes_reclaimed: u64,
    /// When checkpoint pruning was deferred because a live launch holds an
    /// advisory pin on the checkpoint directory, the human-readable reason.
    pub checkpoint_prune_skipped: Option<String>,
}

/// How many journal runs `clean` keeps when `--keep-runs` is not given.
pub const DEFAULT_KEEP_RUNS: usize = 20;

/// Removes a workload's images, runs, installs, level manifests, and
/// state-database entries, forcing the next `build` to start fresh — then
/// prunes any `workdir/objects/` blob no surviving manifest references.
///
/// Only the workload's *own* level manifests (each job's full inheritance
/// chain plus its final job image) are removed; parent levels may be shared
/// with sibling workloads and stay until their owners are cleaned. The blob
/// prune then reclaims whatever payloads became unreferenced. Last, the
/// oldest run journals beyond the newest `keep_runs` (`--keep-runs N`,
/// [`DEFAULT_KEEP_RUNS`] by default) are pruned too.
///
/// # Errors
///
/// Configuration errors resolving the workload; I/O errors are ignored
/// (missing artifacts are fine).
pub fn clean_workload(
    builder: &mut Builder,
    name: &str,
    keep_runs: usize,
) -> Result<CleanReport, MarshalError> {
    let resolved = resolve_workload(builder.search(), name)?;
    let jobs = expand_jobs(builder.search(), &resolved)?;
    let mut report = CleanReport::default();
    let store = ImageStore::new(builder.workdir());
    for job in &jobs {
        let _ = std::fs::remove_dir_all(builder.image_dir(&job.qualified_name));
        // The full-chain level manifest ends at this workload's own level;
        // parent prefixes may be shared with siblings, so they stay.
        let chain_key = job
            .workload
            .levels
            .iter()
            .map(|l| l.name.as_str())
            .collect::<Vec<_>>()
            .join("/");
        for key in [chain_key, format!("job:{}", job.workload.spec.name)] {
            if key.is_empty() {
                continue;
            }
            if std::fs::remove_file(store.path_for(&key)).is_ok() {
                report.levels_removed += 1;
            }
        }
    }
    let _ = std::fs::remove_dir_all(builder.run_dir(&resolved.spec.name));
    let _ = std::fs::remove_dir_all(builder.install_dir(&resolved.spec.name));
    // Forget every task that references this workload or its jobs.
    let mut names: Vec<String> = jobs.iter().map(|j| j.qualified_name.clone()).collect();
    names.push(resolved.spec.name.clone());
    report.state_entries = builder.forget_matching(&names);
    sweep_dead_temps(builder.workdir(), &store);
    let (pruned, bytes, skipped) = prune_objects(&store);
    report.blobs_pruned = pruned;
    report.bytes_reclaimed = bytes;
    report.prune_skipped = skipped;
    let (runs_pruned, run_bytes) = prune_runs(builder.workdir(), keep_runs);
    report.runs_pruned = runs_pruned;
    report.run_bytes_reclaimed = run_bytes;
    let (ckpts, ckpt_bytes, ckpt_skipped) = prune_checkpoints(builder.workdir());
    report.checkpoints_pruned = ckpts;
    report.checkpoint_bytes_reclaimed = ckpt_bytes;
    report.checkpoint_prune_skipped = ckpt_skipped;
    Ok(report)
}

/// Removes the temp files of writers that died inside
/// [`persist::write_atomic`] from the pool shards, `levels/`, the by-input
/// index and the checkpoint store.
fn sweep_dead_temps(workdir: &Path, store: &ImageStore) {
    let shards = std::fs::read_dir(store.objects_dir()).into_iter().flatten();
    let dirs = shards.filter_map(|e| Some(e.ok()?.path())).chain([
        store.levels_dir().to_path_buf(),
        store.by_input_dir(),
        CheckpointStore::new(workdir).dir().to_path_buf(),
    ]);
    let entries = dirs.filter_map(|d| std::fs::read_dir(d).ok()).flatten();
    for entry in entries.filter_map(Result::ok) {
        let owner = entry.file_name().to_str().and_then(persist::temp_owner);
        if owner.is_some_and(|pid| !pid_alive(pid)) {
            let _ = std::fs::remove_file(entry.path());
        }
    }
}

/// Every boot-binary and disk-image fingerprint still reachable from a
/// built artifact under `workdir/images/` — the live set for checkpoint
/// pruning. Artifacts that no longer parse contribute nothing (their
/// checkpoints are stale by definition: a launch would fail before ever
/// looking one up).
fn live_artifact_fingerprints(workdir: &Path) -> (BTreeSet<Fingerprint>, BTreeSet<Fingerprint>) {
    let mut boots = BTreeSet::new();
    let mut disks = BTreeSet::new();
    collect_artifact_fingerprints(&workdir.join("images"), &mut boots, &mut disks);
    (boots, disks)
}

fn collect_artifact_fingerprints(
    dir: &Path,
    boots: &mut BTreeSet<Fingerprint>,
    disks: &mut BTreeSet<Fingerprint>,
) {
    let Ok(entries) = std::fs::read_dir(dir) else {
        return;
    };
    for entry in entries.filter_map(Result::ok) {
        let path = entry.path();
        if path.is_dir() {
            // Qualified job names nest (`workload/job`), so recurse.
            collect_artifact_fingerprints(&path, boots, disks);
            continue;
        }
        match path.file_name().and_then(|n| n.to_str()) {
            Some("boot.bin") => {
                if let Ok(bytes) = std::fs::read(&path) {
                    if let Ok(boot) = marshal_firmware::BootBinary::from_bytes(&bytes) {
                        boots.insert(boot.fingerprint());
                    }
                }
            }
            Some("rootfs.img") => {
                if let Ok(bytes) = std::fs::read(&path) {
                    if let Ok(img) = marshal_image::FsImage::from_bytes(&bytes) {
                        disks.insert(img.fingerprint());
                    }
                }
            }
            _ => {}
        }
    }
}

/// Deletes every boot checkpoint in `workdir/checkpoints/` whose boot
/// binary (or disk image) is no longer a built artifact of any workload;
/// returns (checkpoints removed, bytes reclaimed, deferred-reason).
///
/// Mirrors the blob-pool prune's pin semantics: while a live launch holds
/// an advisory pin on the checkpoint directory, pruning is deferred
/// entirely — a launch that just decided to restore a checkpoint must
/// never have it deleted out from under it.
fn prune_checkpoints(workdir: &Path) -> (usize, u64, Option<String>) {
    let store = CheckpointStore::new(workdir);
    let entries = store.list();
    if entries.is_empty() {
        return (0, 0, None);
    }
    let pins = crate::imagestore::scan_pool_pins(store.dir());
    if !pins.live.is_empty() {
        return (
            0,
            0,
            Some(format!(
                "{} live launch pin(s) on the checkpoint store ({}); rerun clean once \
                 those launches finish",
                pins.live.len(),
                pins.live.join(", ")
            )),
        );
    }
    let (boots, disks) = live_artifact_fingerprints(workdir);
    let mut pruned = 0usize;
    let mut bytes = 0u64;
    for entry in entries {
        let live =
            boots.contains(&entry.boot_fp) && entry.disk_fp.is_none_or(|fp| disks.contains(&fp));
        if live {
            continue;
        }
        let reclaimed = store.remove(entry.key);
        if reclaimed > 0 {
            pruned += 1;
            bytes += reclaimed;
        }
    }
    let _ = std::fs::remove_dir(store.dir());
    (pruned, bytes, None)
}

/// Removes the oldest journal run directories under `workdir/runs/` until
/// at most `keep` remain, returning (runs removed, bytes reclaimed).
///
/// A run whose recorder is still alive holds a pin in `runs/.pins/` (the
/// same advisory-pin protocol as the blob pool, swept by
/// [`crate::imagestore::scan_pool_pins`]); live runs are never pruned, no
/// matter how old. Per-workload launch-output directories share `runs/`
/// but carry no `journal.jsonl`, so retention never touches them.
pub fn prune_runs(workdir: &std::path::Path, keep: usize) -> (usize, u64) {
    let runs_dir = workdir.join("runs");
    // Run ids end in `-<pid>-<seq>`, matching the pin name `<pid>-<seq>.pin`.
    let live_suffixes: Vec<String> = crate::imagestore::scan_pool_pins(&runs_dir)
        .live
        .iter()
        .filter_map(|pin| pin.strip_suffix(".pin").map(|stem| format!("-{stem}")))
        .collect();
    let runs = marshal_trace::list_runs(workdir); // oldest first
    if runs.len() <= keep {
        return (0, 0);
    }
    let mut excess = runs.len() - keep;
    let mut pruned = 0usize;
    let mut bytes = 0u64;
    for info in runs {
        if excess == 0 {
            break;
        }
        if live_suffixes
            .iter()
            .any(|s| info.run_id.ends_with(s.as_str()))
        {
            continue;
        }
        let dir = runs_dir.join(&info.run_id);
        let size = dir_size(&dir);
        if std::fs::remove_dir_all(&dir).is_ok() {
            pruned += 1;
            bytes += size;
            excess -= 1;
        }
    }
    (pruned, bytes)
}

/// Total payload bytes under a directory (best effort, one level of
/// recursion per subdirectory).
fn dir_size(dir: &std::path::Path) -> u64 {
    let mut total = 0u64;
    if let Ok(entries) = std::fs::read_dir(dir) {
        for entry in entries.filter_map(Result::ok) {
            let path = entry.path();
            if path.is_dir() {
                total += dir_size(&path);
            } else {
                total += std::fs::metadata(&path).map(|m| m.len()).unwrap_or(0);
            }
        }
    }
    total
}

/// Every blob fingerprint referenced by a surviving manifest in
/// `workdir/levels/` — the live set for pruning and scrubbing. Unreadable
/// or torn manifests contribute no references — their levels are already
/// due a rebuild, which re-writes any blob it needs.
pub(crate) fn live_refs(store: &ImageStore) -> BTreeSet<Fingerprint> {
    let mut live: BTreeSet<Fingerprint> = BTreeSet::new();
    if let Ok(entries) = std::fs::read_dir(store.levels_dir()) {
        for entry in entries.filter_map(Result::ok) {
            let Ok(bytes) = std::fs::read(entry.path()) else {
                continue;
            };
            if let Ok(refs) = marshal_image::manifest_refs(&bytes) {
                live.extend(refs);
            }
        }
    }
    live
}

/// Every blob file in the pool, as `(path, fingerprint)` pairs, skipping
/// the pool's dot-directory bookkeeping (`.pins`, `.quarantine`) and any
/// file whose name is not a fingerprint.
pub(crate) fn pool_blobs(store: &ImageStore) -> Vec<(std::path::PathBuf, Fingerprint)> {
    let mut out = Vec::new();
    let Ok(shards) = std::fs::read_dir(store.objects_dir()) else {
        return out;
    };
    for shard in shards.filter_map(Result::ok) {
        if shard.file_name().to_string_lossy().starts_with('.') {
            continue;
        }
        let Ok(blobs) = std::fs::read_dir(shard.path()) else {
            continue;
        };
        for blob in blobs.filter_map(Result::ok) {
            let path = blob.path();
            let Some(fp) = path
                .file_stem()
                .and_then(|s| s.to_str())
                .and_then(|s| s.parse::<Fingerprint>().ok())
            else {
                continue;
            };
            out.push((path, fp));
        }
    }
    out
}

/// Removes by-input index entries whose manifests are torn or reference a
/// blob no longer in the pool, so `marshal serve` never advertises a level
/// it cannot actually supply. Returns how many entries were removed.
pub(crate) fn sweep_by_input(store: &ImageStore) -> usize {
    let dir = store.by_input_dir();
    let mut removed = 0;
    if let Ok(entries) = std::fs::read_dir(&dir) {
        for entry in entries.filter_map(Result::ok) {
            let path = entry.path();
            let Ok(bytes) = std::fs::read(&path) else {
                continue;
            };
            let stale = match marshal_image::manifest_refs(&bytes) {
                Err(_) => true,
                Ok(refs) => refs.iter().any(|fp| !store.blobs().has(*fp)),
            };
            if stale && std::fs::remove_file(&path).is_ok() {
                removed += 1;
            }
        }
        let _ = std::fs::remove_dir(&dir);
    }
    removed
}

/// Deletes every blob in `workdir/objects/` that no surviving manifest in
/// `workdir/levels/` references; returns (blobs removed, bytes reclaimed,
/// deferred-reason). Pruning is deferred entirely while another process
/// holds a live advisory pin on the pool (a running `-j N` build), closing
/// the race where a prune deletes a blob a concurrent build just decided
/// not to rewrite.
fn prune_objects(store: &ImageStore) -> (usize, u64, Option<String>) {
    let pins = crate::imagestore::scan_pool_pins(store.objects_dir());
    if !pins.live.is_empty() {
        return (
            0,
            0,
            Some(format!(
                "{} live build pin(s) on the pool ({}); rerun clean once those builds finish",
                pins.live.len(),
                pins.live.join(", ")
            )),
        );
    }
    let live = live_refs(store);
    let mut pruned = 0usize;
    let mut bytes_reclaimed = 0u64;
    for (path, fp) in pool_blobs(store) {
        if live.contains(&fp) {
            continue;
        }
        let size = std::fs::metadata(&path).map(|m| m.len()).unwrap_or(0);
        if std::fs::remove_file(&path).is_ok() {
            pruned += 1;
            bytes_reclaimed += size;
        }
    }
    // Drop shard directories emptied by the prune, plus empty bookkeeping
    // dirs, so a fully pruned pool is genuinely empty.
    if let Ok(shards) = std::fs::read_dir(store.objects_dir()) {
        for shard in shards.filter_map(Result::ok) {
            let _ = std::fs::remove_dir(shard.path());
        }
    }
    // The by-input distribution index must never outlive the blobs it
    // references: drop entries the prune just invalidated.
    sweep_by_input(store);
    (pruned, bytes_reclaimed, None)
}

impl Builder {
    /// Forgets state entries whose task id mentions any of `names`.
    pub(crate) fn forget_matching(&mut self, names: &[String]) -> usize {
        // Task ids embed qualified names after a colon.
        let candidates: Vec<String> = self.state_task_ids();
        let mut count = 0;
        for id in candidates {
            let hit = names.iter().any(|n| {
                id.ends_with(&format!(":{n}"))
                    || id.contains(&format!(":{n}/"))
                    || id.contains(&format!("/{n}"))
            });
            if hit && self.forget_state(&id) {
                count += 1;
            }
        }
        let _ = self.flush_state();
        count
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::board::Board;
    use crate::build::BuildOptions;
    use marshal_config::SearchPath;
    use std::path::PathBuf;

    fn tmpdir(tag: &str) -> PathBuf {
        let d = std::env::temp_dir().join(format!("marshal-clean-{tag}-{}", std::process::id()));
        let _ = std::fs::remove_dir_all(&d);
        std::fs::create_dir_all(&d).unwrap();
        d
    }

    #[test]
    fn clean_removes_artifacts_and_state() {
        let dir = tmpdir("basic");
        let mut search = SearchPath::new();
        search.add_builtin(
            "w.json",
            r#"{"name":"w","distro":"buildroot","command":"echo"}"#,
        );
        let mut builder = Builder::new(Board::minimal("t"), search, dir.join("work")).unwrap();
        // The command points at a nonexistent program, but build does not
        // launch it — build must succeed.
        let products = builder.build("w.json", &BuildOptions::default()).unwrap();
        assert!(!products.report.executed.is_empty());
        assert!(builder.image_dir("w").join("boot.bin").exists());

        let report = clean_workload(&mut builder, "w.json", DEFAULT_KEEP_RUNS).unwrap();
        assert!(
            report.state_entries > 0,
            "state entries should be forgotten"
        );
        assert!(report.levels_removed > 0, "level manifests should go");
        assert!(!builder.image_dir("w").exists());

        // Next build re-runs everything.
        let products = builder.build("w.json", &BuildOptions::default()).unwrap();
        assert!(!products.report.executed.is_empty());
        std::fs::remove_dir_all(dir).unwrap();
    }

    #[test]
    fn clean_prunes_unreferenced_blobs_but_keeps_shared_ones() {
        let dir = tmpdir("prune");
        let mut search = SearchPath::new();
        // Two workloads inheriting one base: the base level's blobs must
        // survive cleaning one child.
        search.add_builtin(
            "base.json",
            r#"{"name":"base","distro":"buildroot","files":[]}"#,
        );
        search.add_builtin(
            "childa.json",
            r#"{"name":"childa","base":"base.json","command":"echo a"}"#,
        );
        search.add_builtin(
            "childb.json",
            r#"{"name":"childb","base":"base.json","command":"echo b"}"#,
        );
        let mut builder = Builder::new(Board::minimal("t"), search, dir.join("work")).unwrap();
        builder
            .build("childa.json", &BuildOptions::default())
            .unwrap();
        builder
            .build("childb.json", &BuildOptions::default())
            .unwrap();
        let objects = dir.join("work").join("objects");
        assert!(objects.exists(), "blob pool should exist after builds");

        let report = clean_workload(&mut builder, "childa.json", DEFAULT_KEEP_RUNS).unwrap();
        assert!(report.levels_removed > 0);
        // childb still builds incrementally from its surviving manifests.
        let products = builder
            .build("childb.json", &BuildOptions::default())
            .unwrap();
        assert!(products.report.failed.is_empty());

        // Cleaning both children and the base empties the pool entirely.
        clean_workload(&mut builder, "childb.json", DEFAULT_KEEP_RUNS).unwrap();
        let report = clean_workload(&mut builder, "base.json", DEFAULT_KEEP_RUNS).unwrap();
        let remaining: Vec<_> = std::fs::read_dir(&objects)
            .map(|it| it.filter_map(Result::ok).collect())
            .unwrap_or_default();
        assert!(
            remaining.is_empty(),
            "pool should be empty, found {remaining:?}"
        );
        assert!(report.bytes_reclaimed > 0 || report.blobs_pruned == 0);
        std::fs::remove_dir_all(dir).unwrap();
    }

    #[test]
    fn prune_deferred_while_pool_pinned() {
        let dir = tmpdir("pin");
        let mut search = SearchPath::new();
        search.add_builtin(
            "w.json",
            r#"{"name":"w","distro":"buildroot","command":"echo"}"#,
        );
        let mut builder = Builder::new(Board::minimal("t"), search, dir.join("work")).unwrap();
        builder.build("w.json", &BuildOptions::default()).unwrap();
        let objects = dir.join("work").join("objects");

        // Another "build" holds a pin: clean must defer the prune.
        let pin = crate::imagestore::PoolPin::acquire(&objects).unwrap();
        let report = clean_workload(&mut builder, "w.json", DEFAULT_KEEP_RUNS).unwrap();
        assert!(report.prune_skipped.is_some(), "prune should defer");
        assert_eq!(report.blobs_pruned, 0);

        // Pin released: the next clean prunes normally.
        drop(pin);
        let report = clean_workload(&mut builder, "w.json", DEFAULT_KEEP_RUNS).unwrap();
        assert!(report.prune_skipped.is_none());
        assert!(report.blobs_pruned > 0, "now unreferenced blobs go");
        std::fs::remove_dir_all(dir).unwrap();
    }

    #[test]
    fn clean_reclaims_temp_files_of_dead_writers_only() {
        let dir = tmpdir("temps");
        let mut search = SearchPath::new();
        search.add_builtin(
            "w.json",
            r#"{"name":"w","distro":"buildroot","command":"echo"}"#,
        );
        let mut builder = Builder::new(Board::minimal("t"), search, dir.join("work")).unwrap();
        builder.build("w.json", &BuildOptions::default()).unwrap();
        let work = dir.join("work");
        let fp = Fingerprint::of(b"interrupted write");
        let dead = [
            work.join("objects/ab")
                .join(format!(".{fp}.blob.4000000000.0.tmp")),
            work.join("levels/by-input")
                .join(format!(".{fp}.man.4000000000.1.tmp")),
            work.join("checkpoints")
                .join(format!(".{fp}.ckpt.4000000000.2.tmp")),
        ];
        let live = work
            .join("objects/ab")
            .join(format!(".{fp}.blob.{}.3.tmp", std::process::id()));
        for path in dead.iter().chain([&live]) {
            std::fs::create_dir_all(path.parent().unwrap()).unwrap();
            std::fs::write(path, b"partial").unwrap();
        }
        clean_workload(&mut builder, "w.json", DEFAULT_KEEP_RUNS).unwrap();
        if cfg!(target_os = "linux") {
            for path in &dead {
                assert!(!path.exists(), "{} survived clean", path.display());
            }
        }
        assert!(live.exists(), "a running writer's temp file is kept");
        std::fs::remove_dir_all(dir).unwrap();
    }

    fn snapshot() -> marshal_sim_functional::BootSnapshot {
        marshal_sim_functional::BootSnapshot {
            serial: "[boot]\n".to_owned(),
            image: marshal_image::FsImage::new(),
            cycles: 1,
            instructions: 0,
            last_exit: 0,
            switch_root_target: None,
            systemd: false,
        }
    }

    fn boot_fp_of(builder: &Builder, qualified: &str) -> Fingerprint {
        let bytes = std::fs::read(builder.image_dir(qualified).join("boot.bin")).unwrap();
        marshal_firmware::BootBinary::from_bytes(&bytes)
            .unwrap()
            .fingerprint()
    }

    #[test]
    fn clean_prunes_stale_checkpoints_but_keeps_reachable_ones() {
        let dir = tmpdir("ckpt");
        let mut search = SearchPath::new();
        search.add_builtin(
            "a.json",
            r#"{"name":"a","distro":"buildroot","command":"echo a"}"#,
        );
        search.add_builtin(
            "b.json",
            r#"{"name":"b","distro":"buildroot","command":"echo b"}"#,
        );
        let mut builder = Builder::new(Board::minimal("t"), search, dir.join("work")).unwrap();
        builder.build("a.json", &BuildOptions::default()).unwrap();
        builder.build("b.json", &BuildOptions::default()).unwrap();

        let store = CheckpointStore::new(builder.workdir());
        let live_fp = boot_fp_of(&builder, "a");
        let live_key = crate::checkpoint::checkpoint_key(Fingerprint::of(b"cfg"), live_fp, None);
        store.save(live_key, live_fp, None, &snapshot()).unwrap();
        let stale_fp = Fingerprint::of(b"no such artifact");
        let stale_key = crate::checkpoint::checkpoint_key(Fingerprint::of(b"cfg"), stale_fp, None);
        store.save(stale_key, stale_fp, None, &snapshot()).unwrap();

        // Cleaning `b` leaves `a`'s artifacts — and so its checkpoint.
        let report = clean_workload(&mut builder, "b.json", DEFAULT_KEEP_RUNS).unwrap();
        assert_eq!(report.checkpoints_pruned, 1, "only the orphan goes");
        assert!(report.checkpoint_bytes_reclaimed > 0);
        assert!(store.path_for(live_key).exists());
        assert!(!store.path_for(stale_key).exists());

        // Cleaning `a` removes its artifacts, orphaning its checkpoint.
        let report = clean_workload(&mut builder, "a.json", DEFAULT_KEEP_RUNS).unwrap();
        assert_eq!(report.checkpoints_pruned, 1);
        assert!(!store.path_for(live_key).exists());
        std::fs::remove_dir_all(dir).unwrap();
    }

    #[test]
    fn checkpoint_prune_deferred_while_launch_pinned() {
        let dir = tmpdir("ckptpin");
        let mut search = SearchPath::new();
        search.add_builtin(
            "w.json",
            r#"{"name":"w","distro":"buildroot","command":"echo"}"#,
        );
        let mut builder = Builder::new(Board::minimal("t"), search, dir.join("work")).unwrap();
        builder.build("w.json", &BuildOptions::default()).unwrap();
        let store = CheckpointStore::new(builder.workdir());
        let stale_fp = Fingerprint::of(b"orphan");
        let key = crate::checkpoint::checkpoint_key(Fingerprint::of(b"cfg"), stale_fp, None);
        store.save(key, stale_fp, None, &snapshot()).unwrap();

        // A live launch pins the checkpoint store: pruning defers.
        let pin = crate::imagestore::PoolPin::acquire(store.dir()).unwrap();
        let report = clean_workload(&mut builder, "w.json", DEFAULT_KEEP_RUNS).unwrap();
        assert!(report.checkpoint_prune_skipped.is_some());
        assert_eq!(report.checkpoints_pruned, 0);
        assert!(store.path_for(key).exists());

        // Pin released: the orphan goes.
        drop(pin);
        let report = clean_workload(&mut builder, "w.json", DEFAULT_KEEP_RUNS).unwrap();
        assert!(report.checkpoint_prune_skipped.is_none());
        assert_eq!(report.checkpoints_pruned, 1);
        std::fs::remove_dir_all(dir).unwrap();
    }

    #[test]
    fn keep_runs_prunes_oldest_journals_but_protects_live_runs() {
        let dir = tmpdir("runs");
        let work = dir.join("work");
        std::fs::create_dir_all(&work).unwrap();
        for _ in 0..5 {
            let rec =
                marshal_trace::Recorder::create(&work, "build", &[("workload", "w")]).unwrap();
            rec.finish().unwrap();
        }
        // A launch-output directory shares runs/ but has no journal: it is
        // neither counted nor pruned.
        std::fs::create_dir_all(work.join("runs").join("w").join("job0")).unwrap();
        let (pruned, bytes) = prune_runs(&work, 2);
        assert_eq!(pruned, 3);
        assert!(bytes > 0, "journal bytes should be reclaimed");
        assert_eq!(marshal_trace::list_runs(&work).len(), 2);
        assert!(work.join("runs").join("w").join("job0").exists());

        // An unfinished recorder still holds its live pin: that run
        // survives even a keep-nothing prune.
        let rec = marshal_trace::Recorder::create(&work, "build", &[]).unwrap();
        let live_id = rec.run_id().unwrap().to_owned();
        let (pruned, _) = prune_runs(&work, 0);
        assert_eq!(pruned, 2);
        let remaining = marshal_trace::list_runs(&work);
        assert_eq!(remaining.len(), 1);
        assert_eq!(remaining[0].run_id, live_id);
        rec.finish().unwrap();
        std::fs::remove_dir_all(dir).unwrap();
    }
}
