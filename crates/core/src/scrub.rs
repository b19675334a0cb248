//! The `scrub` command: verify the blob pool and level manifests and
//! quarantine corruption.
//!
//! Blobs are content-addressed, so verification is just re-hashing: a blob
//! whose bytes no longer hash to its file name has rotted on disk. Scrub
//! moves such blobs into `objects/.quarantine/` (never deletes — the bytes
//! are evidence) and removes any manifest left pointing at a lost blob so
//! the owning level rebuilds instead of wedging its consumers. Level
//! manifests are read through [`marshal_image::read_level`], so a torn,
//! rotted or unsealed one is removed the same way.

use std::collections::BTreeSet;
use std::path::Path;

use marshal_depgraph::Fingerprint;
use marshal_image::StoreError;

use crate::clean::{level_files, live_refs, pool_blobs};
use crate::error::MarshalError;
use crate::imagestore::ImageStore;
use crate::warnings::Warning;
use marshal_trace::Recorder;

/// What a pool scrub found and fixed.
#[derive(Debug, Clone, Default)]
pub struct ScrubReport {
    /// Blobs whose hashes were verified.
    pub blobs_checked: u64,
    /// Total payload bytes hashed.
    pub bytes_checked: u64,
    /// Blobs whose bytes no longer matched their fingerprint.
    pub corrupt: u64,
    /// Bytes moved into `objects/.quarantine/`.
    pub quarantined_bytes: u64,
    /// Corrupt blobs that a level still referenced; those manifests were
    /// invalidated.
    pub unrecoverable: u64,
    /// Level manifests parsed under `levels/`.
    pub manifests_checked: u64,
    /// Manifests removed: torn/malformed ones, plus manifests left
    /// referencing an unrecoverable blob.
    pub manifests_removed: u64,
    /// One warning per problem found, in discovery order.
    pub warnings: Vec<Warning>,
}

/// Scrubs the pool under `workdir`: every blob is re-hashed, every level
/// manifest re-parsed. Corrupt blobs are quarantined; manifests that end
/// up unsatisfiable are removed so their levels rebuild. The scrub runs
/// under a `scrub` span of `recorder` whose closing args carry the damage
/// counts.
///
/// # Errors
///
/// [`MarshalError::Io`] when the workdir itself is unreadable. Individual
/// damaged files are never errors — finding them is the job.
pub fn scrub_pool(workdir: &Path, recorder: &Recorder) -> Result<ScrubReport, MarshalError> {
    let span = recorder.span("scrub", &[]);
    let report = scrub_pool_inner(workdir);
    match &report {
        Ok(r) => span.end_with(&[
            ("outcome", "ok"),
            ("blobs_checked", &r.blobs_checked.to_string()),
            ("corrupt", &r.corrupt.to_string()),
            ("manifests_removed", &r.manifests_removed.to_string()),
        ]),
        Err(_) => span.end_with(&[("outcome", "error")]),
    }
    report
}

fn scrub_pool_inner(workdir: &Path) -> Result<ScrubReport, MarshalError> {
    let store = ImageStore::new(workdir);
    let mut report = ScrubReport::default();

    // --- manifests: read every level, removing damaged ones -------------
    for (path, refs) in level_files(store.levels_dir()) {
        if let Err(StoreError::Io(_)) = refs {
            continue;
        }
        report.manifests_checked += 1;
        let Err(e) = refs else {
            continue;
        };
        if std::fs::remove_file(&path).is_ok() {
            report.manifests_removed += 1;
            report.warnings.push(Warning::with_code(
                "scrub",
                format!(
                    "torn or malformed manifest {} removed ({e}); \
                     its level will rebuild",
                    path.display()
                ),
                "scrub-torn-manifest",
            ));
        }
    }

    // --- blobs: re-hash everything, quarantine mismatches ----------------
    let live = live_refs(&store);
    let mut lost: BTreeSet<Fingerprint> = BTreeSet::new();
    for (path, fp) in pool_blobs(&store) {
        let Ok(bytes) = std::fs::read(&path) else {
            continue;
        };
        report.blobs_checked += 1;
        report.bytes_checked += bytes.len() as u64;
        if Fingerprint::of(&bytes) == fp {
            continue;
        }
        report.corrupt += 1;
        match store.blobs().quarantine(fp) {
            Ok((to, size)) => {
                report.quarantined_bytes += size;
                report.warnings.push(Warning::with_code(
                    "scrub",
                    format!(
                        "blob {fp} failed verification; quarantined to {}",
                        to.display()
                    ),
                    "scrub-corrupt-blob",
                ));
            }
            Err(e) => report.warnings.push(Warning::with_code(
                "scrub",
                format!("blob {fp} failed verification but could not be quarantined: {e}"),
                "scrub-corrupt-blob",
            )),
        }
        // A dead blob (nothing references it) costs no level.
        if live.contains(&fp) {
            report.unrecoverable += 1;
            lost.insert(fp);
        }
    }

    // --- consequence pass: drop manifests referencing lost blobs ---------
    let levels = if lost.is_empty() {
        Vec::new()
    } else {
        level_files(store.levels_dir())
    };
    for (path, refs) in levels {
        let lost_one = refs.is_ok_and(|refs| refs.iter().any(|fp| lost.contains(fp)));
        if lost_one && std::fs::remove_file(&path).is_ok() {
            report.manifests_removed += 1;
            report.warnings.push(Warning::with_code(
                "scrub",
                format!(
                    "manifest {} references an unrecoverable blob; removed so \
                     the level rebuilds",
                    path.display()
                ),
                "scrub-lost-manifest",
            ));
        }
    }
    Ok(report)
}

#[cfg(test)]
mod tests {
    use super::*;
    use marshal_image::FsImage;
    use marshal_qcheck::scratch_dir;

    #[test]
    fn clean_pool_scrubs_clean() {
        let dir = scratch_dir("clean");
        let store = ImageStore::new(&dir);
        let mut img = FsImage::new();
        img.write_file("/a", b"alpha").unwrap();
        img.write_file("/b", b"beta").unwrap();
        store.store("lvl", img).unwrap();
        let report = scrub_pool(&dir, &Recorder::disabled()).unwrap();
        assert!(report.blobs_checked > 0);
        assert_eq!(report.corrupt, 0);
        assert_eq!(report.manifests_removed, 0);
        assert!(report.warnings.is_empty());
        std::fs::remove_dir_all(dir).unwrap();
    }

    #[test]
    fn corrupt_blob_quarantined_and_manifest_invalidated() {
        let dir = scratch_dir("corrupt");
        let store = ImageStore::new(&dir);
        let mut img = FsImage::new();
        img.write_file("/a", b"precious payload bytes").unwrap();
        store.store("lvl", img).unwrap();
        let (_, refs) = level_files(store.levels_dir()).pop().unwrap();
        let refs = refs.unwrap();
        std::fs::write(store.blobs().blob_path(refs[0]), b"bitrot").unwrap();

        let report = scrub_pool(&dir, &Recorder::disabled()).unwrap();
        assert_eq!(report.corrupt, 1);
        assert!(report.quarantined_bytes > 0, "quarantined bytes reported");
        assert_eq!(report.unrecoverable, 1, "the level referenced it");
        assert!(
            report.manifests_removed >= 1,
            "referencing manifest removed"
        );
        assert!(!store.path_for("lvl").exists());
        assert!(store.blobs().quarantine_dir().is_dir());
        std::fs::remove_dir_all(dir).unwrap();
    }

    #[test]
    fn torn_manifest_removed() {
        let dir = scratch_dir("torn");
        let store = ImageStore::new(&dir);
        let mut img = FsImage::new();
        img.write_file("/a", b"payload").unwrap();
        store.store("lvl", img).unwrap();
        let path = store.path_for("lvl");
        let bytes = std::fs::read(&path).unwrap();
        std::fs::write(&path, &bytes[..bytes.len() / 2]).unwrap();
        let report = scrub_pool(&dir, &Recorder::disabled()).unwrap();
        assert!(report.manifests_removed >= 1);
        assert!(!path.exists());
        std::fs::remove_dir_all(dir).unwrap();
    }

    #[test]
    fn unsealed_or_rotted_manifests_removed() {
        let dir = scratch_dir("unsealed");
        let store = ImageStore::new(&dir);
        let mut img = FsImage::new();
        img.write_file("/a", b"payload").unwrap();
        store.store("lvl", img.clone()).unwrap();
        store.store("other", img.clone()).unwrap();
        // A flat image left by an old workdir, and a level manifest whose
        // path bytes rotted without changing its length.
        let flat = store.levels_dir().join("old-level.img");
        std::fs::write(&flat, img.to_bytes()).unwrap();
        let other = store.path_for("other");
        let mut rotted = std::fs::read(&other).unwrap();
        let at = rotted.windows(2).rposition(|w| w == b"/a").unwrap();
        rotted[at + 1] = b'b';
        std::fs::write(&other, rotted).unwrap();
        let report = scrub_pool(&dir, &Recorder::disabled()).unwrap();
        assert_eq!(report.manifests_checked, 3);
        assert_eq!(report.manifests_removed, 2);
        assert!(!flat.exists() && !other.exists());
        assert!(store.path_for("lvl").exists(), "the intact level stays");
        let codes: Vec<&str> = report.warnings.iter().map(|w| w.code).collect();
        assert_eq!(codes, ["scrub-torn-manifest"; 2]);
        std::fs::remove_dir_all(dir).unwrap();
    }
}
