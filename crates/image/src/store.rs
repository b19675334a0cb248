//! Content-addressed blob store and `MMAN` image manifests.
//!
//! Instead of persisting every build level as a full flat [`MIMG`]
//! serialisation, levels are split into a *manifest* (the tree shape plus a
//! content fingerprint per file) and a pool of *blobs* (file payloads keyed
//! by fingerprint, written once). Identical payloads — across levels of an
//! inheritance chain, across jobs, across sibling workloads — share a single
//! blob on disk, so persisting a child level costs O(what changed), not
//! O(image size). This is the same shape as Nix/ccache-style derivation
//! caching applied to FireMarshal's level store.
//!
//! Blob writes are idempotent: the path is derived from the content hash,
//! the bytes land through [`marshal_depgraph::persist::write_atomic`], and a
//! pre-existing blob is left untouched — so concurrent `-j N` builders
//! writing the same payload do not conflict (and declare the store root as
//! a shared tree claim for the write audit).
//!
//! Level files hold a manifest sealed with
//! [`marshal_depgraph::persist::write_sealed`], and [`read_level`] is their
//! one reader: a flipped byte in a path, an exec tag or a symlink target
//! reads as damage, never as a different image.
//!
//! [`MIMG`]: crate::format

use std::collections::BTreeMap;
use std::fmt;
use std::path::{Path, PathBuf};

use marshal_depgraph::{persist, Fingerprint};
use marshal_trace::bytes::{Reader, Writer};

use crate::format::{read_path, ImageFormatError};
use crate::fs::{Blob, FsImage, Node};

/// Manifest magic bytes.
pub const MANIFEST_MAGIC: &[u8; 4] = b"MMAN";
/// Current manifest version.
pub const MANIFEST_VERSION: u32 = 1;

/// Errors from the blob store.
#[derive(Debug)]
pub enum StoreError {
    /// Filesystem failure reading or writing the store.
    Io(String),
    /// Malformed manifest bytes.
    Manifest(ImageFormatError),
    /// A manifest references a blob that is not in the store.
    MissingBlob {
        /// Path the blob should live at.
        path: PathBuf,
        /// The referenced fingerprint.
        fp: Fingerprint,
    },
    /// A level file failed its seal check (torn, rotted or unsealed).
    Damaged(String),
    /// A blob's bytes do not hash to its name (disk corruption or a torn
    /// write that survived).
    CorruptBlob {
        /// Path of the corrupt blob.
        path: PathBuf,
        /// Fingerprint the name promises.
        expected: Fingerprint,
        /// Fingerprint the bytes actually have.
        found: Fingerprint,
    },
}

impl fmt::Display for StoreError {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        match self {
            StoreError::Io(m) => write!(f, "blob store I/O error: {m}"),
            StoreError::Manifest(e) => write!(f, "bad manifest: {e}"),
            StoreError::Damaged(m) => write!(f, "damaged manifest: {m}"),
            StoreError::MissingBlob { path, fp } => {
                write!(f, "missing blob {fp} (expected at {})", path.display())
            }
            StoreError::CorruptBlob {
                path,
                expected,
                found,
            } => write!(
                f,
                "corrupt blob {}: named {expected} but contents hash to {found}",
                path.display()
            ),
        }
    }
}

impl std::error::Error for StoreError {}

impl From<ImageFormatError> for StoreError {
    fn from(e: ImageFormatError) -> StoreError {
        StoreError::Manifest(e)
    }
}

/// Byte accounting for a store operation — what a persist actually cost,
/// used by `marshal`'s build reporting and the `image_chain` bench.
#[derive(Debug, Clone, Copy, Default, PartialEq, Eq)]
pub struct StoreStats {
    /// Blobs newly written to disk.
    pub blobs_written: u64,
    /// Blobs that already existed and were shared instead of rewritten.
    pub blobs_shared: u64,
    /// Payload bytes newly written (excludes shared blobs).
    pub bytes_written: u64,
    /// Payload bytes deduplicated against existing blobs.
    pub bytes_shared: u64,
    /// Size of the manifest itself.
    pub manifest_bytes: u64,
}

impl StoreStats {
    /// Accumulates another operation's stats into this one.
    pub fn absorb(&mut self, other: &StoreStats) {
        self.blobs_written += other.blobs_written;
        self.blobs_shared += other.blobs_shared;
        self.bytes_written += other.bytes_written;
        self.bytes_shared += other.bytes_shared;
        self.manifest_bytes += other.manifest_bytes;
    }
}

/// A content-addressed blob store rooted at a directory
/// (`workdir/objects/` in a marshal workdir).
///
/// Blobs live at `<root>/<first two hex digits>/<fingerprint>.blob` and are
/// write-once: a blob that exists is never rewritten, and writes land via
/// [`persist::write_atomic`], so concurrent writers of the same content are
/// benign.
#[derive(Debug, Clone)]
pub struct BlobStore {
    root: PathBuf,
}

impl BlobStore {
    /// A store rooted at `root`. The directory is created lazily on first
    /// write.
    pub fn new(root: impl Into<PathBuf>) -> BlobStore {
        BlobStore { root: root.into() }
    }

    /// The store's root directory.
    pub fn root(&self) -> &Path {
        &self.root
    }

    /// Where a blob with this fingerprint lives (whether or not it exists).
    pub fn blob_path(&self, fp: Fingerprint) -> PathBuf {
        let name = fp.to_string();
        self.root.join(&name[..2]).join(format!("{name}.blob"))
    }

    /// Ensures `blob` is present in the store; returns `true` when it was
    /// newly written, `false` when an existing blob was shared.
    ///
    /// # Errors
    ///
    /// [`StoreError::Io`] on filesystem failure.
    pub fn put(&self, blob: &Blob) -> Result<bool, StoreError> {
        let fp = blob.fingerprint();
        let path = self.blob_path(fp);
        if path.exists() {
            return Ok(false);
        }
        persist::write_atomic(&path, blob.as_ref()).map_err(|e| StoreError::Io(e.to_string()))?;
        Ok(true)
    }

    /// Whether a blob with this fingerprint is present on disk (presence
    /// only — contents are verified by [`BlobStore::get`]).
    pub fn has(&self, fp: Fingerprint) -> bool {
        self.blob_path(fp).is_file()
    }

    /// Where quarantined blobs live (`<root>/.quarantine/`). The leading
    /// dot keeps the directory out of the shard walks done by pruning and
    /// scrubbing.
    pub fn quarantine_dir(&self) -> PathBuf {
        self.root.join(".quarantine")
    }

    /// Moves the on-disk blob for `fp` out of the pool into quarantine,
    /// returning where it went and how many bytes it held. Quarantining
    /// (rather than deleting) preserves the evidence for post-mortems while
    /// guaranteeing the pool never serves the bytes again.
    ///
    /// # Errors
    ///
    /// [`StoreError::MissingBlob`] when there is nothing to quarantine,
    /// [`StoreError::Io`] on filesystem failure.
    pub fn quarantine(&self, fp: Fingerprint) -> Result<(PathBuf, u64), StoreError> {
        let src = self.blob_path(fp);
        let size = match std::fs::metadata(&src) {
            Ok(m) => m.len(),
            Err(e) if e.kind() == std::io::ErrorKind::NotFound => {
                return Err(StoreError::MissingBlob { path: src, fp });
            }
            Err(e) => return Err(StoreError::Io(format!("{}: {e}", src.display()))),
        };
        let dst = self.quarantine_dir().join(format!("{fp}.blob"));
        marshal_depgraph::assert_claimed(&dst);
        persist::quarantine(&src, &dst).map_err(|e| StoreError::Io(e.to_string()))?;
        Ok((dst, size))
    }

    /// Loads and verifies the blob with this fingerprint.
    ///
    /// # Errors
    ///
    /// [`StoreError::MissingBlob`] when absent, [`StoreError::CorruptBlob`]
    /// when the contents do not hash back to `fp`, [`StoreError::Io`] for
    /// other filesystem failures.
    pub fn get(&self, fp: Fingerprint) -> Result<Blob, StoreError> {
        let path = self.blob_path(fp);
        let bytes = match std::fs::read(&path) {
            Ok(b) => b,
            Err(e) if e.kind() == std::io::ErrorKind::NotFound => {
                return Err(StoreError::MissingBlob { path, fp });
            }
            Err(e) => return Err(StoreError::Io(format!("{}: {e}", path.display()))),
        };
        let found = Fingerprint::of(&bytes);
        if found != fp {
            return Err(StoreError::CorruptBlob {
                path,
                expected: fp,
                found,
            });
        }
        Ok(Blob::with_fingerprint(bytes, fp))
    }

    /// Persists an image: every file payload goes into the store (deduped
    /// against existing blobs), and the returned bytes are an `MMAN`
    /// manifest describing the tree.
    ///
    /// # Errors
    ///
    /// [`StoreError::Io`] on filesystem failure.
    pub fn write_manifest(&self, image: &FsImage) -> Result<(Vec<u8>, StoreStats), StoreError> {
        let entries = image.walk();
        let mut stats = StoreStats::default();
        let mut w = Writer::with_capacity(64 + entries.len() * 48);
        w.bytes(MANIFEST_MAGIC)
            .u32(MANIFEST_VERSION)
            .u64(image.size_limit().unwrap_or(0))
            .u32(entries.len() as u32);
        for (path, node) in entries {
            let tag: u8 = match node {
                Node::File { exec: false, .. } => 0,
                Node::File { exec: true, .. } => 1,
                Node::Dir(_) => 2,
                Node::Symlink(_) => 3,
            };
            w.u8(tag).field32(path.as_bytes());
            match node {
                Node::File { data, .. } => {
                    if self.put(data)? {
                        stats.blobs_written += 1;
                        stats.bytes_written += data.len() as u64;
                    } else {
                        stats.blobs_shared += 1;
                        stats.bytes_shared += data.len() as u64;
                    }
                    w.u128(data.fingerprint().0).u64(data.len() as u64);
                }
                Node::Dir(_) => {}
                Node::Symlink(target) => {
                    w.field32(target.as_bytes());
                }
            }
        }
        let out = w.into_bytes();
        stats.manifest_bytes = out.len() as u64;
        Ok((out, stats))
    }

    /// Rebuilds an image from `MMAN` manifest bytes, fetching payloads from
    /// the store. Payloads referenced more than once within the manifest
    /// share a single allocation in the result.
    ///
    /// # Errors
    ///
    /// [`StoreError::Manifest`] for malformed bytes, plus the
    /// [`BlobStore::get`] errors for each referenced payload.
    pub fn read_manifest(&self, bytes: &[u8]) -> Result<FsImage, StoreError> {
        let entries = parse_manifest(bytes)?;
        let mut img = FsImage::new();
        img.set_size_limit(entries.limit);
        let mut loaded: BTreeMap<Fingerprint, Blob> = BTreeMap::new();
        for entry in entries.entries {
            let built = match entry.kind {
                EntryKind::File { fp, exec } => {
                    let blob = match loaded.get(&fp) {
                        Some(b) => b.clone(),
                        None => loaded.entry(fp).or_insert(self.get(fp)?).clone(),
                    };
                    img.write_node(&entry.path, Node::File { data: blob, exec })
                }
                EntryKind::Dir => img.mkdir_p(&entry.path),
                EntryKind::Symlink(target) => img.symlink(&entry.path, &target),
            };
            built.map_err(|e| StoreError::Manifest(e.into()))?;
        }
        Ok(img)
    }

    /// Loads an image from a level file on disk (see [`read_level`]).
    ///
    /// # Errors
    ///
    /// The [`read_level`] errors, then the [`BlobStore::read_manifest`]
    /// errors.
    pub fn load_image(&self, path: &Path) -> Result<FsImage, StoreError> {
        self.read_manifest(&read_level(path)?)
    }
}

/// Reads the manifest bytes of a level file written with
/// [`persist::write_sealed`], checking the seal. Every reader of a level
/// file goes through here.
///
/// # Errors
///
/// [`StoreError::Damaged`] when the seal check fails (an unsealed legacy
/// file included), [`StoreError::Io`] when the file is absent or unreadable.
pub fn read_level(path: &Path) -> Result<Vec<u8>, StoreError> {
    persist::read_sealed(path).map_err(|e| match e.kind() {
        std::io::ErrorKind::InvalidData => StoreError::Damaged(e.to_string()),
        _ => StoreError::Io(e.to_string()),
    })
}

/// The blob fingerprints a manifest references (with duplicates removed) —
/// what `marshal clean` uses to decide which blobs are still live.
///
/// # Errors
///
/// [`StoreError::Manifest`] for malformed bytes.
pub fn manifest_refs(bytes: &[u8]) -> Result<Vec<Fingerprint>, StoreError> {
    let parsed = parse_manifest(bytes)?;
    let mut fps: Vec<Fingerprint> = parsed
        .entries
        .into_iter()
        .filter_map(|e| match e.kind {
            EntryKind::File { fp, .. } => Some(fp),
            _ => None,
        })
        .collect();
    fps.sort_unstable();
    fps.dedup();
    Ok(fps)
}

enum EntryKind {
    File { fp: Fingerprint, exec: bool },
    Dir,
    Symlink(String),
}

struct ManifestEntry {
    path: String,
    kind: EntryKind,
}

struct ParsedManifest {
    limit: Option<u64>,
    entries: Vec<ManifestEntry>,
}

fn parse_manifest(bytes: &[u8]) -> Result<ParsedManifest, ImageFormatError> {
    let mut r = Reader::new(bytes);
    r.magic(MANIFEST_MAGIC)?;
    let version = r.u32()?;
    if version != MANIFEST_VERSION {
        return Err(ImageFormatError::BadVersion(version));
    }
    let limit = r.u64()?;
    let nentries = r.u32()?;
    // No preallocation: the count is untrusted (a damaged manifest).
    let mut entries = Vec::new();
    for _ in 0..nentries {
        let tag = r.u8()?;
        let path = read_path(&mut r)?.to_owned();
        let kind = match tag {
            0 | 1 => {
                let fp = Fingerprint(r.u128()?);
                let _size = r.u64()?;
                EntryKind::File { fp, exec: tag == 1 }
            }
            2 => EntryKind::Dir,
            3 => EntryKind::Symlink(r.str32()?.to_owned()),
            t => return Err(ImageFormatError::BadTag(t)),
        };
        entries.push(ManifestEntry { path, kind });
    }
    r.finish()?;
    Ok(ParsedManifest {
        limit: if limit == 0 { None } else { Some(limit) },
        entries,
    })
}

#[cfg(test)]
mod tests {
    use super::*;
    use marshal_qcheck::scratch_dir;

    fn sample() -> FsImage {
        let mut img = FsImage::new();
        img.set_size_limit(Some(1 << 20));
        img.write_file("/etc/hostname", b"node0").unwrap();
        img.write_exec("/bin/bench", b"\x13\x05\x10\x00").unwrap();
        img.symlink("/bin/sh", "bench").unwrap();
        img.mkdir_p("/output").unwrap();
        img.write_file("/etc/copy", b"node0").unwrap();
        img
    }

    #[test]
    fn manifest_roundtrip() {
        let dir = scratch_dir("roundtrip");
        let store = BlobStore::new(dir.join("objects"));
        let img = sample();
        let (manifest, stats) = store.write_manifest(&img).unwrap();
        assert!(manifest.starts_with(MANIFEST_MAGIC));
        assert!(stats.blobs_written >= 2);
        let back = store.read_manifest(&manifest).unwrap();
        assert_eq!(img, back);
        assert_eq!(img.fingerprint(), back.fingerprint());
        assert_eq!(back.size_limit(), Some(1 << 20));
        std::fs::remove_dir_all(dir).unwrap();
    }

    #[test]
    fn second_write_shares_all_blobs() {
        let dir = scratch_dir("dedupe");
        let store = BlobStore::new(dir.join("objects"));
        let img = sample();
        let (_, first) = store.write_manifest(&img).unwrap();
        let (_, second) = store.write_manifest(&img).unwrap();
        assert_eq!(second.blobs_written, 0);
        assert_eq!(second.bytes_written, 0);
        assert_eq!(
            second.blobs_shared,
            first.blobs_written + first.blobs_shared
        );
        std::fs::remove_dir_all(dir).unwrap();
    }

    #[test]
    fn identical_payloads_share_one_blob() {
        let dir = scratch_dir("identical");
        let store = BlobStore::new(dir.join("objects"));
        let mut img = FsImage::new();
        img.write_file("/a", b"same-bytes").unwrap();
        img.write_file("/b", b"same-bytes").unwrap();
        let (manifest, stats) = store.write_manifest(&img).unwrap();
        assert_eq!(stats.blobs_written, 1);
        assert_eq!(stats.blobs_shared, 1);
        let refs = manifest_refs(&manifest).unwrap();
        assert_eq!(refs.len(), 1);
        // Intra-manifest sharing: both files come back on one allocation.
        let back = store.read_manifest(&manifest).unwrap();
        let (Some(Node::File { data: a, .. }), Some(Node::File { data: b, .. })) =
            (back.node("/a"), back.node("/b"))
        else {
            panic!("files missing");
        };
        assert!(a.ptr_eq(b));
        std::fs::remove_dir_all(dir).unwrap();
    }

    #[test]
    fn missing_blob_reported() {
        let dir = scratch_dir("missing");
        let store = BlobStore::new(dir.join("objects"));
        let mut img = FsImage::new();
        img.write_file("/f", b"payload").unwrap();
        let (manifest, _) = store.write_manifest(&img).unwrap();
        let fp = manifest_refs(&manifest).unwrap()[0];
        std::fs::remove_file(store.blob_path(fp)).unwrap();
        assert!(matches!(
            store.read_manifest(&manifest),
            Err(StoreError::MissingBlob { .. })
        ));
        std::fs::remove_dir_all(dir).unwrap();
    }

    #[test]
    fn corrupt_blob_reported() {
        let dir = scratch_dir("corrupt");
        let store = BlobStore::new(dir.join("objects"));
        let mut img = FsImage::new();
        img.write_file("/f", b"payload").unwrap();
        let (manifest, _) = store.write_manifest(&img).unwrap();
        let fp = manifest_refs(&manifest).unwrap()[0];
        std::fs::write(store.blob_path(fp), b"flipped bits").unwrap();
        assert!(matches!(
            store.read_manifest(&manifest),
            Err(StoreError::CorruptBlob { .. })
        ));
        std::fs::remove_dir_all(dir).unwrap();
    }

    #[test]
    fn load_image_rejects_legacy_flat_format() {
        let dir = scratch_dir("legacy");
        let flat_path = dir.join("level.img");
        std::fs::write(&flat_path, sample().to_bytes()).unwrap();
        let err = BlobStore::new(dir.join("objects")).load_image(&flat_path);
        assert!(matches!(err, Err(StoreError::Damaged(ref m)) if m.contains("not sealed")));
        std::fs::remove_dir_all(dir).unwrap();
    }

    #[test]
    fn garbage_manifest_rejected() {
        assert!(matches!(
            parse_manifest(b"nope").err(),
            Some(ImageFormatError::BadMagic)
        ));
        let mut truncated = Vec::new();
        truncated.extend_from_slice(MANIFEST_MAGIC);
        assert!(parse_manifest(&truncated).is_err());
        // A huge entry count over no entries is an error, not an abort.
        truncated.extend_from_slice(&[1, 0, 0, 0, 0, 0, 0, 0, 0, 0, 0, 0]);
        truncated.extend_from_slice(&u32::MAX.to_le_bytes());
        assert!(parse_manifest(&truncated).is_err());
    }
}
