//! The level-image store: `MMAN` manifests in `workdir/levels/`, payloads
//! in the content-addressed blob pool at `workdir/objects/`.
//!
//! Each level of a workload's inheritance chain persists as a small
//! manifest, sealed with [`persist::write_sealed`] and read back only
//! through [`marshal_image::read_level`]; the actual file bytes live once
//! in the blob pool, shared across levels, jobs, and sibling workloads.
//! Tasks that persist images through the store must declare a
//! [`marshal_depgraph::Task::claim_tree`] over [`ImageStore::objects_dir`],
//! since blob paths are content-derived and unknown at planning time.
//!
//! Loads self-defend: a corrupt blob is quarantined, and the manifest of
//! an unloadable level (torn, unsealed, or referencing a bad blob) is
//! removed so the owning level rebuilds instead of wedging every consumer.

use std::collections::BTreeMap;
use std::path::{Path, PathBuf};
use std::sync::atomic::{AtomicU64, Ordering};
use std::sync::{Arc, Mutex};

use marshal_depgraph::{persist, Fingerprint};
use marshal_image::{BlobStore, FsImage, StoreError, StoreStats};
use marshal_trace::Recorder;

/// Level images are persisted to disk (so incremental rebuilds can load a
/// skipped parent's image) and cached in memory within one build. Cloning
/// shares the cache and the blob pool.
#[derive(Debug, Clone)]
pub struct ImageStore {
    cache: Arc<Mutex<BTreeMap<String, FsImage>>>,
    stats: Arc<Mutex<StoreStats>>,
    dir: PathBuf,
    blobs: BlobStore,
    /// Run-journal recorder for cache hit/miss and blob byte accounting;
    /// disabled by default.
    recorder: Recorder,
}

impl ImageStore {
    /// A store for the given marshal workdir (`levels/` + `objects/`).
    pub fn new(workdir: &Path) -> ImageStore {
        ImageStore {
            cache: Arc::new(Mutex::new(BTreeMap::new())),
            stats: Arc::new(Mutex::new(StoreStats::default())),
            dir: workdir.join("levels"),
            blobs: BlobStore::new(workdir.join("objects")),
            recorder: Recorder::disabled(),
        }
    }

    /// Installs a run-journal recorder; loads and stores through this store
    /// (and every clone made afterwards) emit cache and blob events.
    pub fn set_recorder(&mut self, recorder: Recorder) {
        self.recorder = recorder;
    }

    /// The manifest directory (`workdir/levels`).
    pub fn levels_dir(&self) -> &Path {
        &self.dir
    }

    /// The blob pool root (`workdir/objects`) — the tree tasks must claim.
    pub fn objects_dir(&self) -> &Path {
        self.blobs.root()
    }

    /// The underlying content-addressed blob pool.
    pub fn blobs(&self) -> &BlobStore {
        &self.blobs
    }

    /// Where the manifest for a level key lives.
    pub fn path_for(&self, key: &str) -> PathBuf {
        let fp = Fingerprint::of(key.as_bytes()).short();
        let last = key.rsplit('/').next().unwrap_or(key);
        self.dir.join(format!("{last}-{fp}.img"))
    }

    /// Persists an image under a level key: payloads into the blob pool
    /// (deduped against whatever is already there), manifest into
    /// `levels/`, and the image itself into the in-memory cache.
    ///
    /// # Errors
    ///
    /// I/O failures as strings (the task-action error type).
    pub fn store(&self, key: &str, image: FsImage) -> Result<(), String> {
        let (manifest, stats) = self
            .blobs
            .write_manifest(&image)
            .map_err(|e| e.to_string())?;
        persist::write_sealed(&self.path_for(key), &manifest).map_err(|e| e.to_string())?;
        self.recorder.blob_put(key, stats.bytes_written);
        self.stats.lock().expect("stats poisoned").absorb(&stats);
        self.cache
            .lock()
            .expect("store poisoned")
            .insert(key.to_owned(), image);
        Ok(())
    }

    /// Loads the image for a level key. Cache hits are O(1) — images are
    /// copy-on-write, so the returned clone shares every allocation with
    /// the cached copy. Misses read the sealed manifest from disk.
    ///
    /// A load that trips on pool damage self-defends: a corrupt blob is
    /// quarantined and the level's manifest is removed, so the owning task
    /// rebuilds it on the next run instead of failing every consumer
    /// forever.
    ///
    /// # Errors
    ///
    /// Missing or malformed level files / blobs, as strings.
    pub fn load(&self, key: &str) -> Result<FsImage, String> {
        let mut cache = self.cache.lock().expect("store poisoned");
        if let Some(img) = cache.get(key) {
            self.recorder.cache_event(key, true);
            return Ok(img.clone());
        }
        self.recorder.cache_event(key, false);
        let path = self.path_for(key);
        if !path.exists() {
            return Err(format!(
                "image `{key}` not built ({} missing)",
                path.display()
            ));
        }
        let img = match self.blobs.load_image(&path) {
            Ok(img) => img,
            Err(e) => self.recover_load(key, &path, e)?,
        };
        self.recorder.blob_get(key, img.total_size());
        cache.insert(key.to_owned(), img.clone());
        Ok(img)
    }

    /// The recovery path for a failed manifest load: quarantine a corrupt
    /// blob and invalidate the manifest so the level rebuilds.
    fn recover_load(&self, key: &str, path: &Path, err: StoreError) -> Result<FsImage, String> {
        let (fp, quarantined) = match &err {
            StoreError::CorruptBlob { expected, .. } => {
                (*expected, self.blobs.quarantine(*expected).is_ok())
            }
            StoreError::MissingBlob { fp, .. } => (*fp, false),
            StoreError::Manifest(_) | StoreError::Damaged(_) => {
                self.invalidate_manifest(path);
                return Err(format!(
                    "image `{key}`: torn or malformed manifest removed ({err}); \
                     the level will rebuild on the next run"
                ));
            }
            StoreError::Io(_) => return Err(format!("image `{key}`: {err}")),
        };
        self.invalidate_manifest(path);
        let action = if quarantined {
            "quarantined"
        } else {
            "missing from the pool"
        };
        Err(format!(
            "image `{key}`: blob {fp} {action} ({err}); manifest removed so \
             the level will rebuild on the next run"
        ))
    }

    fn invalidate_manifest(&self, path: &Path) {
        let _ = std::fs::remove_file(path);
    }

    /// Cumulative byte accounting across every [`ImageStore::store`] call
    /// made through this store (or any clone of it).
    pub fn stats(&self) -> StoreStats {
        *self.stats.lock().expect("stats poisoned")
    }
}

static PIN_COUNTER: AtomicU64 = AtomicU64::new(0);

/// An advisory pin on a blob pool, held by a build for as long as it may
/// rely on existence checks against `objects/` (between a builder's
/// "blob already present" test and its manifest write). `clean` refuses to
/// prune the pool while any live pin exists, closing the race where a
/// concurrent prune deletes a blob a `-j N` build just decided not to
/// rewrite.
///
/// Pins are files under `objects/.pins/` named `<pid>-<seq>.pin`; a pin
/// whose process has exited is stale and is removed by the next
/// [`scan_pool_pins`]. The owner is read from the name, never the
/// contents, so a pin caught before its contents are written is live.
#[derive(Debug)]
pub struct PoolPin {
    path: PathBuf,
}

impl PoolPin {
    /// Takes a pin on the pool rooted at `objects_dir`.
    ///
    /// # Errors
    ///
    /// I/O failures as strings.
    pub fn acquire(objects_dir: &Path) -> Result<PoolPin, String> {
        let path = objects_dir.join(".pins").join(format!(
            "{}-{}.pin",
            std::process::id(),
            PIN_COUNTER.fetch_add(1, Ordering::Relaxed)
        ));
        persist::write_atomic(&path, std::process::id().to_string().as_bytes())
            .map_err(|e| e.to_string())?;
        Ok(PoolPin { path })
    }

    /// The pin file's path.
    pub fn path(&self) -> &Path {
        &self.path
    }
}

impl Drop for PoolPin {
    fn drop(&mut self) {
        let _ = std::fs::remove_file(&self.path);
    }
}

/// What a pin scan found: the live pins blocking a prune, after stale pins
/// (owners no longer running) were swept away.
#[derive(Debug, Clone, Default, PartialEq, Eq)]
pub struct PinScan {
    /// Pin file names whose owning processes are still alive.
    pub live: Vec<String>,
    /// Stale pin files removed.
    pub stale_removed: usize,
}

/// Scans `objects/.pins/`, removing pins whose owners have exited and
/// reporting the ones still alive.
pub fn scan_pool_pins(objects_dir: &Path) -> PinScan {
    let mut scan = PinScan::default();
    let Ok(entries) = std::fs::read_dir(objects_dir.join(".pins")) else {
        return scan;
    };
    for entry in entries.filter_map(Result::ok) {
        // A pin still being written is not a pin yet.
        let name = entry.file_name();
        if name.to_str().and_then(persist::temp_owner).is_some() {
            continue;
        }
        let name = name.to_string_lossy().into_owned();
        let pid = name
            .strip_suffix(".pin")
            .and_then(|stem| stem.split_once('-'))
            .and_then(|(pid, _)| pid.parse::<u32>().ok());
        if pid.is_some_and(pid_alive) {
            scan.live.push(name);
        } else if std::fs::remove_file(entry.path()).is_ok() {
            scan.stale_removed += 1;
        }
    }
    scan
}

/// Whether a process id is still running. On Linux this is a `/proc`
/// lookup; elsewhere pins are conservatively treated as live (a stale pin
/// then blocks pruning until removed by hand, never the other way around).
pub(crate) fn pid_alive(pid: u32) -> bool {
    if cfg!(target_os = "linux") {
        Path::new("/proc").join(pid.to_string()).exists()
    } else {
        true
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use marshal_qcheck::scratch_dir;

    #[test]
    fn corrupt_blob_load_quarantines_and_invalidates() {
        let dir = scratch_dir("heal");
        let store = ImageStore::new(&dir);
        let mut img = FsImage::new();
        img.write_file("/f", b"rot me").unwrap();
        store.store("lvl", img).unwrap();
        // Fresh store (no cache) with a rotted blob.
        let store = ImageStore::new(&dir);
        let manifest = marshal_image::read_level(&store.path_for("lvl")).unwrap();
        let refs = marshal_image::manifest_refs(&manifest).unwrap();
        std::fs::write(store.blobs().blob_path(refs[0]), b"rotted!").unwrap();
        let err = store.load("lvl").unwrap_err();
        assert!(err.contains("quarantined"), "{err}");
        assert!(
            !store.path_for("lvl").exists(),
            "manifest removed so the level rebuilds"
        );
        assert!(store.blobs().quarantine_dir().is_dir());
        std::fs::remove_dir_all(dir).unwrap();
    }

    #[test]
    fn torn_manifest_load_invalidates_without_panic() {
        let dir = scratch_dir("torn");
        let store = ImageStore::new(&dir);
        let mut img = FsImage::new();
        img.write_file("/f", b"data").unwrap();
        store.store("lvl", img).unwrap();
        let store = ImageStore::new(&dir);
        let path = store.path_for("lvl");
        let bytes = std::fs::read(&path).unwrap();
        std::fs::write(&path, &bytes[..bytes.len() / 2]).unwrap();
        let err = store.load("lvl").unwrap_err();
        assert!(err.contains("manifest"), "{err}");
        assert!(!path.exists());
        std::fs::remove_dir_all(dir).unwrap();
    }

    /// A flipped byte in a stored path or exec tag must never load as an
    /// image with a renamed or re-moded file: the load reports damage and
    /// drops the manifest so the level rebuilds.
    #[test]
    fn flipped_manifest_byte_invalidates_the_level() {
        let dir = scratch_dir("flip");
        let mut img = FsImage::new();
        img.write_exec("/bin/run", b"\x13\x05\x10\x00").unwrap();
        ImageStore::new(&dir).store("lvl", img.clone()).unwrap();
        let path = ImageStore::new(&dir).path_for("lvl");
        let sealed = std::fs::read(&path).unwrap();
        let name = sealed.windows(8).position(|w| w == b"/bin/run").unwrap();
        // `/bin/run` → `/bin/rum`, and the exec tag (1) before its
        // four-byte length → plain (0).
        for (at, flip) in [(name + 7, 0x03), (name - 5, 0x01)] {
            let mut bytes = sealed.clone();
            bytes[at] ^= flip;
            std::fs::write(&path, &bytes).unwrap();
            let err = ImageStore::new(&dir).load("lvl").unwrap_err();
            assert!(err.contains("checksum"), "{err}");
            assert!(!path.exists(), "manifest removed so the level rebuilds");
        }
        std::fs::remove_dir_all(dir).unwrap();
    }

    #[test]
    fn pins_block_then_release() {
        let dir = scratch_dir("pins");
        let objects = dir.join("objects");
        std::fs::create_dir_all(&objects).unwrap();
        let pin = PoolPin::acquire(&objects).unwrap();
        let scan = scan_pool_pins(&objects);
        assert_eq!(scan.live.len(), 1, "own pin is live");
        drop(pin);
        let scan = scan_pool_pins(&objects);
        assert!(scan.live.is_empty(), "dropped pin released");
        // A pin from a dead process is swept as stale.
        let stale = objects.join(".pins").join("4000000000-0.pin");
        std::fs::create_dir_all(objects.join(".pins")).unwrap();
        std::fs::write(&stale, "4000000000").unwrap();
        let scan = scan_pool_pins(&objects);
        if cfg!(target_os = "linux") {
            assert_eq!(scan.stale_removed, 1);
            assert!(!stale.exists());
        }
        std::fs::remove_dir_all(dir).unwrap();
    }

    #[test]
    fn pin_caught_before_its_contents_is_live() {
        // The run recorder writes its pin in place, so a scan can find the
        // file before the pid is written into it: the name alone decides.
        let dir = scratch_dir("emptypin");
        let pins = dir.join(".pins");
        std::fs::create_dir_all(&pins).unwrap();
        let name = format!("{}-0.pin", std::process::id());
        std::fs::write(pins.join(&name), "").unwrap();
        let scan = scan_pool_pins(&dir);
        assert_eq!(scan.live, vec![name.clone()]);
        assert_eq!(scan.stale_removed, 0);
        assert!(pins.join(&name).exists());
        std::fs::remove_dir_all(dir).unwrap();
    }
}
