//! Artifact integrity: content checksums for build products.
//!
//! Every artifact the build writes (`boot.bin`, `rootfs.img`, `bin.mexe`)
//! gets a `<name>.fp` sidecar holding the fingerprint of its bytes.
//! [`read_verified`] checks the sidecar on load, so corruption between
//! build and launch (bit-rot, torn writes, stray edits) is reported as an
//! actionable [`MarshalError::Corrupt`] instead of surfacing later as a
//! mysterious boot failure or — worse — a silently wrong simulation.
//!
//! Sidecars are advisory for backwards compatibility: an artifact without
//! one loads unverified (pre-existing work directories keep working).

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

/// Reads an artifact, verifying it against its checksum sidecar when one
/// exists.
///
/// # Errors
///
/// [`MarshalError::Io`] when the artifact is unreadable,
/// [`MarshalError::Corrupt`] when its bytes no longer match the recorded
/// checksum (the message points at `marshal build --force` to rebuild).
pub fn read_verified(path: &Path) -> Result<Vec<u8>, MarshalError> {
    let bytes = std::fs::read(path)
        .map_err(|e| MarshalError::Io(format!("read {}: {e}", path.display())))?;
    let sidecar = sidecar_path(path);
    let Ok(expected) = std::fs::read_to_string(&sidecar) else {
        // No (readable) sidecar: legacy artifact, load as-is.
        return Ok(bytes);
    };
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

    fn tmpdir(tag: &str) -> PathBuf {
        let d =
            std::env::temp_dir().join(format!("marshal-integrity-{tag}-{}", std::process::id()));
        let _ = std::fs::remove_dir_all(&d);
        std::fs::create_dir_all(&d).unwrap();
        d
    }

    #[test]
    fn roundtrip_verifies() {
        let dir = tmpdir("roundtrip");
        let p = dir.join("boot.bin");
        write_artifact(&p, b"payload").unwrap();
        assert!(sidecar_path(&p).exists());
        assert_eq!(read_verified(&p).unwrap(), b"payload");
        std::fs::remove_dir_all(dir).unwrap();
    }

    #[test]
    fn corruption_detected() {
        let dir = tmpdir("corrupt");
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
    fn missing_sidecar_is_tolerated() {
        let dir = tmpdir("legacy");
        let p = dir.join("bin.mexe");
        std::fs::write(&p, b"old artifact").unwrap();
        assert_eq!(read_verified(&p).unwrap(), b"old artifact");
        std::fs::remove_dir_all(dir).unwrap();
    }
}
