//! The one way a file a later run reads back is written ([`write_atomic`]),
//! sealed against damage ([`write_sealed`], [`read_sealed`]) and moved
//! aside once damaged ([`quarantine`]).
//!
//! A sealed file is one header line and then the payload, for text and
//! binary payloads alike:
//!
//! ```text
//! #marshal-sealed v1 len=<payload bytes> fp=<Fingerprint::of(payload)>
//! <payload>
//! ```
//!
//! The state database, boot checkpoints and level manifests are sealed.
//! Blobs are named by their hash and build artifacts carry `.fp` sidecars
//! (an external simulator reads them unmodified), so both are checked by
//! their readers instead. There is no fsync: a file torn by power loss
//! reads as damaged and costs a rebuild, never a wrong answer.

use std::io;
use std::path::Path;
use std::sync::atomic::{AtomicU64, Ordering};

use crate::hash::Fingerprint;

/// The start of a sealed file's header line.
const SEAL: &str = "#marshal-sealed v1 ";

/// Makes each temp name unique within the process.
static SEQ: AtomicU64 = AtomicU64::new(0);

/// Atomically replaces `path` with `bytes` via a unique sibling temp file
/// (`.<file>.<pid>.<seq>.tmp`), creating the parent directory, after
/// [`assert_claimed`](crate::assert_claimed)ing `path`.
///
/// # Errors
///
/// The I/O error, naming `path`. The temp file is removed.
pub fn write_atomic(path: &Path, bytes: &[u8]) -> io::Result<()> {
    crate::assert_claimed(path);
    let context = |e: io::Error| io::Error::new(e.kind(), format!("write {}: {e}", path.display()));
    let name = path.file_name().unwrap_or_default().to_string_lossy();
    let seq = SEQ.fetch_add(1, Ordering::Relaxed);
    let tmp = path.with_file_name(format!(".{name}.{}.{seq}.tmp", std::process::id()));
    if let Some(dir) = tmp.parent() {
        std::fs::create_dir_all(dir).map_err(context)?;
    }
    let result = std::fs::write(&tmp, bytes).and_then(|()| std::fs::rename(&tmp, path));
    if result.is_err() {
        let _ = std::fs::remove_file(&tmp);
    }
    result.map_err(context)
}

/// Seals `payload` and writes it with [`write_atomic`].
///
/// # Errors
///
/// As [`write_atomic`].
pub fn write_sealed(path: &Path, payload: &[u8]) -> io::Result<()> {
    let header = format!(
        "{SEAL}len={} fp={}\n",
        payload.len(),
        Fingerprint::of(payload)
    );
    let mut bytes = Vec::with_capacity(header.len() + payload.len());
    bytes.extend_from_slice(header.as_bytes());
    bytes.extend_from_slice(payload);
    write_atomic(path, &bytes)
}

/// Reads the payload of a file written by [`write_sealed`].
///
/// # Errors
///
/// [`io::ErrorKind::NotFound`] when the file is absent and
/// [`io::ErrorKind::InvalidData`] when it is damaged, with a message naming
/// the path and what failed (not sealed, truncated, checksum mismatch).
/// Other kinds are I/O failures.
pub fn read_sealed(path: &Path) -> io::Result<Vec<u8>> {
    let mut bytes = std::fs::read(path)
        .map_err(|e| io::Error::new(e.kind(), format!("read {}: {e}", path.display())))?;
    let start = unseal(&bytes).map_err(|why| {
        io::Error::new(
            io::ErrorKind::InvalidData,
            format!("{}: {why}", path.display()),
        )
    })?;
    bytes.drain(..start);
    Ok(bytes)
}

/// Checks a sealed file's bytes, returning where its payload starts.
fn unseal(bytes: &[u8]) -> Result<usize, String> {
    let not_sealed = || "not sealed (no `#marshal-sealed v1` header)".to_owned();
    let Some(end) = bytes.iter().position(|&b| b == b'\n') else {
        let torn = bytes.starts_with(SEAL.as_bytes()) || SEAL.as_bytes().starts_with(bytes);
        return Err(if torn {
            "truncated inside the seal header".to_owned()
        } else {
            not_sealed()
        });
    };
    let header = std::str::from_utf8(&bytes[..end]).unwrap_or_default();
    let (len, fp) = header
        .strip_prefix(SEAL)
        .ok_or_else(not_sealed)?
        .strip_prefix("len=")
        .and_then(|fields| fields.split_once(" fp="))
        .ok_or_else(|| format!("malformed seal header {header:?}"))?;
    // Both fields are compared as text with their canonical rendering, so
    // no damaged spelling of a value can parse back to the same value.
    let held = bytes.len() - end - 1;
    if len != held.to_string() {
        return Err(match len.parse::<usize>() {
            Ok(n) if n > held => {
                format!("truncated: the seal records {n} payload bytes, the file holds {held}")
            }
            _ => format!(
                "length mismatch: the seal records {len:?} payload bytes, the file holds {held}"
            ),
        });
    }
    let actual = Fingerprint::of(&bytes[end + 1..]).to_string();
    if actual != fp {
        return Err(format!(
            "checksum mismatch: the seal records {fp}, the payload hashes to {actual}"
        ));
    }
    Ok(end + 1)
}

/// Moves `src` to `dest`, creating `dest`'s parent directory.
///
/// # Errors
///
/// The I/O error, naming both paths.
pub fn quarantine(src: &Path, dest: &Path) -> io::Result<()> {
    let dir = dest.parent().unwrap_or(Path::new(""));
    std::fs::create_dir_all(dir)
        .and_then(|()| std::fs::rename(src, dest))
        .map_err(|e| {
            let why = format!("quarantine {} -> {}: {e}", src.display(), dest.display());
            io::Error::new(e.kind(), why)
        })
}

/// The pid of the writer that left `file_name`, if it is a
/// [`write_atomic`] temp file.
pub fn temp_owner(file_name: &str) -> Option<u32> {
    let stem = file_name.strip_prefix('.')?.strip_suffix(".tmp")?;
    let mut fields = stem.rsplitn(3, '.');
    fields.next()?.parse::<u64>().ok()?;
    let pid = fields.next()?.parse().ok()?;
    fields.next().filter(|target| !target.is_empty())?;
    Some(pid)
}

#[cfg(test)]
mod tests {
    use super::*;
    use marshal_qcheck::scratch_dir;

    fn names(dir: &Path) -> Vec<String> {
        let mut names: Vec<String> = std::fs::read_dir(dir)
            .unwrap()
            .map(|e| e.unwrap().file_name().to_string_lossy().into_owned())
            .collect();
        names.sort();
        names
    }

    #[test]
    fn write_replaces_content_and_leaves_no_temp() {
        let dir = scratch_dir("replace");
        let file = dir.join("sub").join("f.bin");
        write_atomic(&file, b"first version").unwrap();
        write_atomic(&file, b"second").unwrap();
        assert_eq!(std::fs::read(&file).unwrap(), b"second");
        assert_eq!(names(&dir.join("sub")), ["f.bin"]);
        std::fs::remove_dir_all(dir).unwrap();
    }

    #[test]
    fn failed_rename_errors_and_leaves_no_temp() {
        let dir = scratch_dir("rename-fails");
        let target = dir.join("taken");
        std::fs::create_dir_all(target.join("inner")).unwrap();
        assert!(write_atomic(&target, b"bytes").is_err());
        assert_eq!(names(&dir), ["taken"]);
        std::fs::remove_dir_all(dir).unwrap();
    }

    /// Every single-bit flip and every truncation of a sealed file reads as
    /// damage, and only the intact file reads back: the seal's crash
    /// points, enumerated.
    #[test]
    fn every_bit_flip_and_truncation_is_damage() {
        let dir = scratch_dir("enumerate");
        let file = dir.join("f.db");
        let payload = b"task\t0123456789abcdef\n\x00\xff";
        write_sealed(&file, payload).unwrap();
        let sealed = std::fs::read(&file).unwrap();
        let damaged = |bytes: &[u8]| {
            std::fs::write(&file, bytes).unwrap();
            let err = read_sealed(&file).unwrap_err();
            assert_eq!(err.kind(), io::ErrorKind::InvalidData, "{err}");
            err.to_string()
        };
        let header_bits = (sealed.len() - payload.len()) * 8;
        for bit in 0..sealed.len() * 8 {
            let mut flipped = sealed.clone();
            flipped[bit / 8] ^= 1 << (bit % 8);
            let why = damaged(&flipped);
            assert!(bit < header_bits || why.contains("checksum"), "{why}");
        }
        for cut in 0..sealed.len() {
            assert!(
                damaged(&sealed[..cut]).contains("truncated"),
                "cut at {cut}"
            );
        }
        assert!(damaged(&[&sealed[..], b"x"].concat()).contains("length mismatch"));
        assert!(damaged(payload).contains("not sealed"));
        std::fs::write(&file, &sealed).unwrap();
        assert_eq!(read_sealed(&file).unwrap(), payload);
        let absent = read_sealed(&dir.join("absent")).unwrap_err();
        assert_eq!(absent.kind(), io::ErrorKind::NotFound);
        std::fs::remove_dir_all(dir).unwrap();
    }

    #[test]
    fn quarantine_creates_missing_parent() {
        let dir = scratch_dir("quarantine");
        let src = dir.join("bad.db");
        std::fs::write(&src, b"rot").unwrap();
        let dest = dir.join(".quarantine").join("nested").join("bad.db");
        quarantine(&src, &dest).unwrap();
        assert!(!src.exists());
        assert_eq!(std::fs::read(&dest).unwrap(), b"rot");
        std::fs::remove_dir_all(dir).unwrap();
    }

    #[test]
    fn temp_owner_parses_only_seam_temp_names() {
        assert_eq!(
            temp_owner(".state.db.4000000000.7.tmp"),
            Some(4_000_000_000)
        );
        assert_eq!(temp_owner(".ab12.blob.42.0.tmp"), Some(42));
        for other in [
            "state.db",
            "ab12.blob",
            ".42.0.tmp",
            ".state.db.x.0.tmp",
            ".state.db.42.y.tmp",
            "state.db.42.0.tmp",
            ".tmp-ab12-42-0",
        ] {
            assert_eq!(temp_owner(other), None, "{other}");
        }
    }
}
