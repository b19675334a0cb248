//! Artifact integrity: content checksums for build products.
//!
//! Every artifact the build writes (`boot.bin`, `rootfs.img`, `bin.mexe`)
//! gets a `<name>.fp` sidecar holding the fingerprint of its bytes, and
//! every read of an artifact goes through [`read_verified`]. The artifact
//! itself stays bare, because external simulators and the VCS/Verilator
//! connectors read it unmodified; the workdir's own formats are sealed
//! instead (see [`marshal_depgraph::persist`]).
//!
//! Sidecars are not optional: an artifact whose sidecar is missing or
//! disagrees with its bytes (bit-rot, torn writes, stray edits) is an
//! actionable [`MarshalError::Corrupt`], never a mysterious boot failure or
//! a silently wrong simulation. Each sidecar is a declared output of the
//! task that builds its artifact, so a missing one rebuilds on the next
//! `build`.

use std::path::{Path, PathBuf};

use marshal_depgraph::{persist, Fingerprint};

use crate::error::MarshalError;

/// The checksum sidecar for an artifact path (`boot.bin` → `boot.bin.fp`).
pub fn sidecar_path(artifact: &Path) -> PathBuf {
    let mut name = artifact.file_name().unwrap_or_default().to_os_string();
    name.push(".fp");
    artifact.with_file_name(name)
}

/// Atomically writes an artifact and its checksum sidecar. Task-action
/// flavour: errors are strings, matching the depgraph `Action` signature.
///
/// # Errors
///
/// Describes the failing path on I/O errors.
pub fn write_artifact(path: &Path, bytes: &[u8]) -> Result<(), String> {
    let fp = format!("{}\n", Fingerprint::of(bytes));
    persist::write_atomic(path, bytes)
        .and_then(|()| persist::write_atomic(&sidecar_path(path), fp.as_bytes()))
        .map_err(|e| e.to_string())
}

/// Reads an artifact, verifying it against its checksum sidecar.
///
/// # Errors
///
/// [`MarshalError::Io`] when the artifact is unreadable,
/// [`MarshalError::Corrupt`] when its sidecar is missing or its bytes no
/// longer match the recorded checksum (the message points at
/// `marshal build --force` to rebuild).
pub fn read_verified(path: &Path) -> Result<Vec<u8>, MarshalError> {
    let bytes = std::fs::read(path)
        .map_err(|e| MarshalError::Io(format!("read {}: {e}", path.display())))?;
    let sidecar = sidecar_path(path);
    let expected = std::fs::read_to_string(&sidecar).map_err(|e| {
        MarshalError::Corrupt(format!(
            "{} has no readable checksum sidecar ({}: {e}); rerun `marshal build` \
             to rebuild it",
            path.display(),
            sidecar.display()
        ))
    })?;
    let expected = expected.trim();
    let actual = Fingerprint::of(&bytes).to_string();
    if expected != actual {
        return Err(MarshalError::Corrupt(format!(
            "{} does not match its recorded checksum (expected {expected}, found {actual}); \
             the artifact was damaged after it was built — rerun `marshal build --force` \
             to rebuild it",
            path.display()
        )));
    }
    Ok(bytes)
}

#[cfg(test)]
mod tests {
    use super::*;
    use marshal_qcheck::scratch_dir;

    #[test]
    fn roundtrip_verifies() {
        let dir = scratch_dir("roundtrip");
        let p = dir.join("boot.bin");
        write_artifact(&p, b"payload").unwrap();
        assert!(sidecar_path(&p).exists());
        assert_eq!(read_verified(&p).unwrap(), b"payload");
        std::fs::remove_dir_all(dir).unwrap();
    }

    #[test]
    fn corruption_detected() {
        let dir = scratch_dir("corrupt");
        let p = dir.join("rootfs.img");
        write_artifact(&p, b"good bytes").unwrap();
        std::fs::write(&p, b"bad bytes!").unwrap();
        let err = read_verified(&p).unwrap_err();
        let MarshalError::Corrupt(msg) = err else {
            panic!("expected Corrupt, got {err:?}");
        };
        assert!(msg.contains("rootfs.img"), "{msg}");
        assert!(msg.contains("--force"), "actionable: {msg}");
        std::fs::remove_dir_all(dir).unwrap();
    }

    #[test]
    fn missing_sidecar_is_damage() {
        let dir = scratch_dir("legacy");
        let p = dir.join("bin.mexe");
        std::fs::write(&p, b"old artifact").unwrap();
        let err = read_verified(&p).unwrap_err();
        let MarshalError::Corrupt(msg) = err else {
            panic!("expected Corrupt, got {err:?}");
        };
        assert!(msg.contains("bin.mexe.fp"), "{msg}");
        std::fs::remove_dir_all(dir).unwrap();
    }
}
