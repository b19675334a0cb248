//! Boot-checkpoint persistence: content-addressed snapshots of the
//! post-init machine state under `workdir/checkpoints/`.
//!
//! A cold `launch` replays the whole modelled boot (firmware → kernel →
//! initramfs → init system) before the payload runs a single instruction.
//! That work is identical for every launch of the same artifacts on the
//! same backend configuration, so the first cold boot captures a
//! [`BootSnapshot`] and later launches restore it in O(memory-copy) —
//! `test` fleets and cosim runs amortize boot to near zero.
//!
//! Checkpoints are keyed by fingerprint: the backend's
//! [`config_fingerprint`](crate::simulator::Simulator::config_fingerprint)
//! plus the boot binary's and disk image's memoized Merkle fingerprints.
//! Any input that could change what boot produces changes the key, so a
//! stale checkpoint is simply never looked up — it lingers until `marshal
//! clean` prunes it.
//!
//! Robustness over speed: every checkpoint file is sealed with
//! [`marshal_depgraph::persist::write_sealed`], loads check the seal, and
//! anything torn, truncated, rotted or unsealed is moved to
//! `checkpoints/.quarantine/` (through
//! [`marshal_depgraph::persist::quarantine`]) and reported as a miss — the
//! caller falls back to a cold boot and rewrites a fresh checkpoint. A
//! damaged checkpoint can cost a boot; it can never change an answer.
//!
//! The sealed payload is the `MCKP` header (magic, version, boot and disk
//! fingerprints) followed by the [`BootSnapshot`] bytes.

use std::collections::BTreeMap;
use std::path::{Path, PathBuf};
use std::sync::{Arc, Mutex};

use marshal_depgraph::{persist, Fingerprint, Hasher128};
use marshal_sim_functional::BootSnapshot;
use marshal_trace::bytes::{Reader, Writer};

const MAGIC: &[u8; 4] = b"MCKP";
/// 2 since the seal replaced the payload length and trailing checksum.
const VERSION: u32 = 2;
/// Bytes before the snapshot: magic, version, boot fp, disk flag + fp.
const HEADER_LEN: usize = 4 + 4 + 16 + 1 + 16;

/// The checkpoint key for one (backend configuration, boot binary, disk)
/// triple. The disk's *absence* is part of the key — a diskless launch
/// must not share a snapshot with a disked one.
pub fn checkpoint_key(
    config: Fingerprint,
    boot: Fingerprint,
    disk: Option<Fingerprint>,
) -> Fingerprint {
    let mut h = Hasher128::new();
    h.update_field(b"boot-checkpoint-v1");
    h.update_field(&config.0.to_le_bytes());
    h.update_field(&boot.0.to_le_bytes());
    match disk {
        Some(fp) => {
            h.update_field(b"disk");
            h.update_field(&fp.0.to_le_bytes());
        }
        None => h.update_field(b"no-disk"),
    }
    h.finish()
}

/// The outcome of a checkpoint lookup.
#[derive(Debug)]
pub enum CheckpointLoad {
    /// A verified snapshot was restored.
    Hit(BootSnapshot),
    /// No checkpoint exists for the key.
    Miss,
    /// A file existed but failed verification; it has been quarantined.
    /// The caller boots cold (and will overwrite with a fresh capture).
    Corrupt {
        /// Where the damaged file was moved (inside `.quarantine/`).
        quarantined: PathBuf,
        /// What failed: truncation, bad magic, checksum mismatch, …
        detail: String,
    },
}

/// The header of one stored checkpoint — enough for `marshal clean` to
/// decide liveness without deserializing the (large) payload.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct CheckpointEntry {
    /// The checkpoint key (from the file name).
    pub key: Fingerprint,
    /// Fingerprint of the boot binary this snapshot was captured from.
    pub boot_fp: Fingerprint,
    /// Fingerprint of the disk image, when one was attached.
    pub disk_fp: Option<Fingerprint>,
    /// On-disk size in bytes (for bytes-reclaimed reporting).
    pub bytes: u64,
}

/// The on-disk checkpoint store for one marshal workdir. Cloning shares
/// the in-memory cache, so a `test` fleet restoring the same boot eight
/// times pays the disk read once.
#[derive(Debug, Clone)]
pub struct CheckpointStore {
    dir: PathBuf,
    cache: Arc<Mutex<BTreeMap<u128, BootSnapshot>>>,
}

impl CheckpointStore {
    /// The store rooted at `workdir/checkpoints/`. Nothing is created
    /// until the first save.
    pub fn new(workdir: &Path) -> CheckpointStore {
        CheckpointStore {
            dir: workdir.join("checkpoints"),
            cache: Arc::new(Mutex::new(BTreeMap::new())),
        }
    }

    /// The store's root directory.
    pub fn dir(&self) -> &Path {
        &self.dir
    }

    /// Where damaged checkpoint files are moved.
    pub fn quarantine_dir(&self) -> PathBuf {
        self.dir.join(".quarantine")
    }

    /// The file a key's checkpoint lives in.
    pub fn path_for(&self, key: Fingerprint) -> PathBuf {
        self.dir.join(format!("{key}.ckpt"))
    }

    /// Looks a checkpoint up, checking its seal. Damage is
    /// never fatal: a bad file is quarantined and reported as
    /// [`CheckpointLoad::Corrupt`] so the caller boots cold.
    pub fn load(&self, key: Fingerprint) -> CheckpointLoad {
        if let Some(snap) = self.cache.lock().expect("cache poisoned").get(&key.0) {
            return CheckpointLoad::Hit(snap.clone());
        }
        let path = self.path_for(key);
        let decoded = match persist::read_sealed(&path) {
            Ok(bytes) => decode(&bytes),
            Err(e) if e.kind() == std::io::ErrorKind::NotFound => return CheckpointLoad::Miss,
            Err(e) => Err(e.to_string()),
        };
        match decoded {
            Ok(snap) => {
                self.cache
                    .lock()
                    .expect("cache poisoned")
                    .insert(key.0, snap.clone());
                CheckpointLoad::Hit(snap)
            }
            Err(detail) => self.quarantine(&path, detail),
        }
    }

    /// Persists a snapshot under a key (atomically; concurrent writers of
    /// the same key are benign — last rename wins and both wrote identical
    /// content).
    ///
    /// # Errors
    ///
    /// I/O failures as strings; callers on the launch path degrade to a
    /// warning rather than failing the run.
    pub fn save(
        &self,
        key: Fingerprint,
        boot_fp: Fingerprint,
        disk_fp: Option<Fingerprint>,
        snap: &BootSnapshot,
    ) -> Result<(), String> {
        persist::write_sealed(&self.path_for(key), &encode(boot_fp, disk_fp, snap))
            .map_err(|e| e.to_string())?;
        self.cache
            .lock()
            .expect("cache poisoned")
            .insert(key.0, snap.clone());
        Ok(())
    }

    /// Every stored checkpoint's header, for `marshal clean`'s liveness
    /// scan. Damaged files are skipped (a later `load` would quarantine
    /// them); stray tmp files are ignored.
    pub fn list(&self) -> Vec<CheckpointEntry> {
        let Ok(entries) = std::fs::read_dir(&self.dir) else {
            return Vec::new();
        };
        let mut out = Vec::new();
        for entry in entries.filter_map(Result::ok) {
            let path = entry.path();
            let Some(name) = path.file_name().and_then(|n| n.to_str()) else {
                continue;
            };
            let Some(stem) = name.strip_suffix(".ckpt") else {
                continue;
            };
            let Ok(key) = stem.parse::<Fingerprint>() else {
                continue;
            };
            let Ok(payload) = persist::read_sealed(&path) else {
                continue;
            };
            if let (Ok((boot_fp, disk_fp)), Ok(meta)) =
                (decode_header(&mut Reader::new(&payload)), entry.metadata())
            {
                out.push(CheckpointEntry {
                    key,
                    boot_fp,
                    disk_fp,
                    bytes: meta.len(),
                });
            }
        }
        out.sort_by_key(|e| e.key.0);
        out
    }

    /// Removes a checkpoint, returning the bytes reclaimed (0 when it was
    /// already gone).
    pub fn remove(&self, key: Fingerprint) -> u64 {
        self.cache.lock().expect("cache poisoned").remove(&key.0);
        let path = self.path_for(key);
        let bytes = std::fs::metadata(&path).map(|m| m.len()).unwrap_or(0);
        if std::fs::remove_file(&path).is_ok() {
            bytes
        } else {
            0
        }
    }

    /// Moves a damaged file into `.quarantine/` (falling back to plain
    /// removal if the rename fails) and reports the corruption.
    fn quarantine(&self, path: &Path, detail: String) -> CheckpointLoad {
        let dest = self
            .quarantine_dir()
            .join(path.file_name().unwrap_or_default());
        if persist::quarantine(path, &dest).is_err() {
            let _ = std::fs::remove_file(path);
        }
        CheckpointLoad::Corrupt {
            quarantined: dest,
            detail,
        }
    }
}

fn encode(boot_fp: Fingerprint, disk_fp: Option<Fingerprint>, snap: &BootSnapshot) -> Vec<u8> {
    let snapshot = snap.to_bytes();
    let mut w = Writer::with_capacity(HEADER_LEN + snapshot.len());
    w.bytes(MAGIC)
        .u32(VERSION)
        .u128(boot_fp.0)
        .u8(u8::from(disk_fp.is_some()))
        .u128(disk_fp.map_or(0, |fp| fp.0))
        .bytes(&snapshot);
    w.into_bytes()
}

/// Reads and validates the fixed-size header of a sealed payload, leaving
/// `r` at the snapshot, and returns the boot and disk fingerprints.
fn decode_header(r: &mut Reader) -> Result<(Fingerprint, Option<Fingerprint>), String> {
    r.magic(MAGIC)?;
    let version = r.u32()?;
    if version != VERSION {
        return Err(format!("unsupported checkpoint version {version}"));
    }
    let boot_fp = Fingerprint(r.u128()?);
    let disk_fp = match (r.u8()?, Fingerprint(r.u128()?)) {
        (0, _) => None,
        (1, fp) => Some(fp),
        (tag, _) => return Err(format!("bad disk-fingerprint tag {tag}")),
    };
    Ok((boot_fp, disk_fp))
}

fn decode(bytes: &[u8]) -> Result<BootSnapshot, String> {
    let mut r = Reader::new(bytes);
    decode_header(&mut r)?;
    BootSnapshot::from_bytes(r.rest()).map_err(|e| format!("payload: {e}"))
}

#[cfg(test)]
mod tests {
    use super::*;
    use marshal_image::FsImage;
    use marshal_qcheck::scratch_dir;

    fn sample_snapshot() -> BootSnapshot {
        let mut image = FsImage::new();
        image.write_file("/etc/motd", b"checkpointed").unwrap();
        BootSnapshot {
            serial: "[boot] lines\n".to_owned(),
            image,
            cycles: 1234,
            instructions: 0,
            last_exit: 0,
            switch_root_target: None,
            systemd: false,
        }
    }

    #[test]
    fn save_load_roundtrip() {
        let dir = scratch_dir("roundtrip");
        let store = CheckpointStore::new(&dir);
        let key = checkpoint_key(
            Fingerprint::of(b"cfg"),
            Fingerprint::of(b"boot"),
            Some(Fingerprint::of(b"disk")),
        );
        let snap = sample_snapshot();
        store
            .save(
                key,
                Fingerprint::of(b"boot"),
                Some(Fingerprint::of(b"disk")),
                &snap,
            )
            .unwrap();
        // A fresh store (cold cache) reads it back from disk.
        let store = CheckpointStore::new(&dir);
        match store.load(key) {
            CheckpointLoad::Hit(got) => assert_eq!(got, snap),
            other => panic!("expected hit, got {other:?}"),
        }
        // And the cached path agrees.
        match store.load(key) {
            CheckpointLoad::Hit(got) => assert_eq!(got, snap),
            other => panic!("expected cached hit, got {other:?}"),
        }
        std::fs::remove_dir_all(dir).unwrap();
    }

    #[test]
    fn missing_is_a_miss() {
        let dir = scratch_dir("miss");
        let store = CheckpointStore::new(&dir);
        assert!(matches!(
            store.load(Fingerprint::of(b"nothing")),
            CheckpointLoad::Miss
        ));
        std::fs::remove_dir_all(dir).unwrap();
    }

    #[test]
    fn corruption_quarantines_and_recovers() {
        let dir = scratch_dir("corrupt");
        let store = CheckpointStore::new(&dir);
        let key = checkpoint_key(Fingerprint::of(b"cfg"), Fingerprint::of(b"boot"), None);
        let snap = sample_snapshot();
        store
            .save(key, Fingerprint::of(b"boot"), None, &snap)
            .unwrap();
        // Flip a snapshot byte: checksum catches it.
        let path = store.path_for(key);
        let mut bytes = std::fs::read(&path).unwrap();
        let mid = bytes.len() - 4;
        bytes[mid] ^= 0xff;
        std::fs::write(&path, &bytes).unwrap();
        let store = CheckpointStore::new(&dir);
        match store.load(key) {
            CheckpointLoad::Corrupt {
                quarantined,
                detail,
            } => {
                assert!(detail.contains("checksum"), "{detail}");
                assert!(quarantined.exists(), "damaged file preserved for autopsy");
            }
            other => panic!("expected corrupt, got {other:?}"),
        }
        assert!(!path.exists(), "damaged file moved out of the store");
        // The slot is free again: a fresh save works and loads clean.
        store
            .save(key, Fingerprint::of(b"boot"), None, &snap)
            .unwrap();
        let store = CheckpointStore::new(&dir);
        assert!(matches!(store.load(key), CheckpointLoad::Hit(_)));
        std::fs::remove_dir_all(dir).unwrap();
    }

    #[test]
    fn torn_write_is_detected() {
        let dir = scratch_dir("torn");
        let store = CheckpointStore::new(&dir);
        let key = checkpoint_key(Fingerprint::of(b"cfg"), Fingerprint::of(b"boot"), None);
        store
            .save(key, Fingerprint::of(b"boot"), None, &sample_snapshot())
            .unwrap();
        let path = store.path_for(key);
        let bytes = std::fs::read(&path).unwrap();
        // Truncate mid-payload and mid-header.
        for cut in [bytes.len() / 2, HEADER_LEN - 3, 2] {
            std::fs::write(&path, &bytes[..cut]).unwrap();
            let store = CheckpointStore::new(&dir);
            assert!(
                matches!(store.load(key), CheckpointLoad::Corrupt { .. }),
                "cut at {cut} must not load"
            );
            // Quarantine consumed the file; put it back for the next cut.
            std::fs::write(&path, &bytes).unwrap();
        }
        std::fs::remove_dir_all(dir).unwrap();
    }

    #[test]
    fn unsealed_checkpoint_is_damage() {
        let dir = scratch_dir("unsealed");
        let store = CheckpointStore::new(&dir);
        let boot = Fingerprint::of(b"boot");
        let key = checkpoint_key(Fingerprint::of(b"cfg"), boot, None);
        let path = store.path_for(key);
        persist::write_atomic(&path, &encode(boot, None, &sample_snapshot())).unwrap();
        assert!(store.list().is_empty(), "clean does not count it as live");
        let load = store.load(key);
        assert!(
            matches!(load, CheckpointLoad::Corrupt { ref detail, .. } if detail.contains("not sealed"))
        );
        assert!(!path.exists());
        std::fs::remove_dir_all(dir).unwrap();
    }

    #[test]
    fn list_reads_headers_and_remove_reports_bytes() {
        let dir = scratch_dir("list");
        let store = CheckpointStore::new(&dir);
        let boot_a = Fingerprint::of(b"boot-a");
        let boot_b = Fingerprint::of(b"boot-b");
        let disk_b = Fingerprint::of(b"disk-b");
        let key_a = checkpoint_key(Fingerprint::of(b"cfg"), boot_a, None);
        let key_b = checkpoint_key(Fingerprint::of(b"cfg"), boot_b, Some(disk_b));
        store.save(key_a, boot_a, None, &sample_snapshot()).unwrap();
        store
            .save(key_b, boot_b, Some(disk_b), &sample_snapshot())
            .unwrap();
        let entries = store.list();
        assert_eq!(entries.len(), 2);
        let a = entries.iter().find(|e| e.key == key_a).unwrap();
        assert_eq!(a.boot_fp, boot_a);
        assert_eq!(a.disk_fp, None);
        let b = entries.iter().find(|e| e.key == key_b).unwrap();
        assert_eq!(b.disk_fp, Some(disk_b));
        assert!(b.bytes > 0);
        let reclaimed = store.remove(key_b);
        assert_eq!(reclaimed, b.bytes);
        assert_eq!(store.list().len(), 1);
        assert_eq!(store.remove(key_b), 0, "second remove reclaims nothing");
        std::fs::remove_dir_all(dir).unwrap();
    }

    #[test]
    fn key_distinguishes_all_inputs() {
        let cfg = Fingerprint::of(b"cfg");
        let boot = Fingerprint::of(b"boot");
        let disk = Fingerprint::of(b"disk");
        let base = checkpoint_key(cfg, boot, Some(disk));
        assert_ne!(
            base,
            checkpoint_key(Fingerprint::of(b"cfg2"), boot, Some(disk))
        );
        assert_ne!(
            base,
            checkpoint_key(cfg, Fingerprint::of(b"boot2"), Some(disk))
        );
        assert_ne!(
            base,
            checkpoint_key(cfg, boot, Some(Fingerprint::of(b"disk2")))
        );
        assert_ne!(base, checkpoint_key(cfg, boot, None));
    }
}
