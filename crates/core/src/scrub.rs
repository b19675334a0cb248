//! The `scrub` command: verify the blob pool and level manifests,
//! quarantine corruption, and self-heal from a remote daemon.
//!
//! Blobs are content-addressed, so verification is just re-hashing: a blob
//! whose bytes no longer hash to its file name has rotted on disk. Scrub
//! moves such blobs into `objects/.quarantine/` (never deletes — the bytes
//! are evidence), re-fetches live ones from a configured `marshal serve`
//! remote, and removes any manifest left pointing at an unrecoverable blob
//! so the owning level rebuilds instead of wedging its consumers.

use std::collections::BTreeSet;
use std::path::Path;

use marshal_depgraph::Fingerprint;
use marshal_netstore::RemoteStore;

use crate::clean::{live_refs, pool_blobs, sweep_by_input};
use crate::error::MarshalError;
use crate::imagestore::ImageStore;
use crate::warnings::{Severity, Warning};
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
    /// Corrupt blobs restored from the remote.
    pub healed: u64,
    /// Corrupt blobs that could not be restored (no remote, or the remote
    /// lacked them); their manifests were invalidated.
    pub unrecoverable: u64,
    /// Level manifests parsed (both `levels/` and `levels/by-input/`).
    pub manifests_checked: u64,
    /// Manifests removed: torn/malformed ones, plus manifests left
    /// referencing an unrecoverable blob.
    pub manifests_removed: u64,
    /// One warning per problem found, in discovery order.
    pub warnings: Vec<Warning>,
}

/// Scrubs the pool under `workdir`: every blob is re-hashed, every level
/// manifest re-parsed. Corrupt blobs are quarantined and — when `remote`
/// is given — re-fetched; manifests that end up unsatisfiable are removed
/// so their levels rebuild. The scrub runs under a `scrub` span of
/// `recorder` whose closing args carry the damage counts.
///
/// # Errors
///
/// [`MarshalError::Io`] when the workdir itself is unreadable. Individual
/// damaged files are never errors — finding them is the job.
pub fn scrub_pool(
    workdir: &Path,
    remote: Option<&RemoteStore>,
    recorder: &Recorder,
) -> Result<ScrubReport, MarshalError> {
    let span = recorder.span("scrub", &[]);
    let report = scrub_pool_inner(workdir, remote);
    match &report {
        Ok(r) => span.end_with(&[
            ("outcome", "ok"),
            ("blobs_checked", &r.blobs_checked.to_string()),
            ("corrupt", &r.corrupt.to_string()),
            ("healed", &r.healed.to_string()),
            ("manifests_removed", &r.manifests_removed.to_string()),
        ]),
        Err(_) => span.end_with(&[("outcome", "error")]),
    }
    report
}

fn scrub_pool_inner(
    workdir: &Path,
    remote: Option<&RemoteStore>,
) -> Result<ScrubReport, MarshalError> {
    let store = ImageStore::new(workdir);
    let mut report = ScrubReport::default();

    // --- manifests: parse both indexes, removing torn ones ---------------
    let mut dirs = vec![store.levels_dir().to_path_buf()];
    dirs.push(store.by_input_dir());
    for dir in dirs {
        let Ok(entries) = std::fs::read_dir(&dir) else {
            continue;
        };
        for entry in entries.filter_map(Result::ok) {
            let path = entry.path();
            if !path.is_file() {
                continue;
            }
            let Ok(bytes) = std::fs::read(&path) else {
                continue;
            };
            if !marshal_image::sniff_manifest(&bytes) {
                // Legacy flat image files carry their own payload; blob
                // verification does not apply to them.
                continue;
            }
            report.manifests_checked += 1;
            if let Err(e) = marshal_image::manifest_refs(&bytes) {
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
        }
    }

    // --- blobs: re-hash everything, quarantine + heal mismatches ---------
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
        // Dead blobs (nothing references them) need no healing; a live one
        // is worth a round-trip when a remote is configured.
        let healed = live.contains(&fp)
            && remote
                .map(|r| r.fetch_blob(store.blobs(), fp).unwrap_or(false))
                .unwrap_or(false);
        if healed {
            report.healed += 1;
            report.warnings.push(
                Warning::with_code(
                    "scrub",
                    format!("blob {fp} re-fetched from remote"),
                    "scrub-healed",
                )
                .severity(Severity::Info),
            );
        } else if live.contains(&fp) {
            report.unrecoverable += 1;
            lost.insert(fp);
        }
    }

    // --- consequence pass: drop manifests referencing lost blobs ---------
    if !lost.is_empty() {
        if let Ok(entries) = std::fs::read_dir(store.levels_dir()) {
            for entry in entries.filter_map(Result::ok) {
                let path = entry.path();
                let Ok(bytes) = std::fs::read(&path) else {
                    continue;
                };
                let Ok(refs) = marshal_image::manifest_refs(&bytes) else {
                    continue;
                };
                if refs.iter().any(|fp| lost.contains(fp)) && std::fs::remove_file(&path).is_ok() {
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
        }
    }
    // Keep the distribution index consistent with whatever survived.
    report.manifests_removed += sweep_by_input(&store) as u64;
    Ok(report)
}

#[cfg(test)]
mod tests {
    use super::*;
    use marshal_image::FsImage;
    use std::path::PathBuf;

    fn tmpdir(tag: &str) -> PathBuf {
        let d = std::env::temp_dir().join(format!("marshal-scrub-{tag}-{}", std::process::id()));
        let _ = std::fs::remove_dir_all(&d);
        std::fs::create_dir_all(&d).unwrap();
        d
    }

    #[test]
    fn clean_pool_scrubs_clean() {
        let dir = tmpdir("clean");
        let store = ImageStore::new(&dir);
        let mut img = FsImage::new();
        img.write_file("/a", b"alpha").unwrap();
        img.write_file("/b", b"beta").unwrap();
        store.store("lvl", img).unwrap();
        let report = scrub_pool(&dir, None, &Recorder::disabled()).unwrap();
        assert!(report.blobs_checked > 0);
        assert_eq!(report.corrupt, 0);
        assert_eq!(report.manifests_removed, 0);
        assert!(report.warnings.is_empty());
        std::fs::remove_dir_all(dir).unwrap();
    }

    #[test]
    fn corrupt_blob_quarantined_and_manifest_invalidated() {
        let dir = tmpdir("corrupt");
        let store = ImageStore::new(&dir);
        let mut img = FsImage::new();
        img.write_file("/a", b"precious payload bytes").unwrap();
        store.store("lvl", img).unwrap();
        let refs =
            marshal_image::manifest_refs(&std::fs::read(store.path_for("lvl")).unwrap()).unwrap();
        std::fs::write(store.blobs().blob_path(refs[0]), b"bitrot").unwrap();

        let report = scrub_pool(&dir, None, &Recorder::disabled()).unwrap();
        assert_eq!(report.corrupt, 1);
        assert!(report.quarantined_bytes > 0, "quarantined bytes reported");
        assert_eq!(report.unrecoverable, 1, "no remote to heal from");
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
        let dir = tmpdir("torn");
        let store = ImageStore::new(&dir);
        let mut img = FsImage::new();
        img.write_file("/a", b"payload").unwrap();
        store.store("lvl", img).unwrap();
        let path = store.path_for("lvl");
        let bytes = std::fs::read(&path).unwrap();
        std::fs::write(&path, &bytes[..bytes.len() / 2]).unwrap();
        let report = scrub_pool(&dir, None, &Recorder::disabled()).unwrap();
        assert!(report.manifests_removed >= 1);
        assert!(!path.exists());
        std::fs::remove_dir_all(dir).unwrap();
    }
}
