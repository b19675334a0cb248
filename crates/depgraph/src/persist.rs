//! The one way a file a later run reads back is written ([`write_atomic`])
//! and a damaged file is moved aside ([`quarantine`]). There is no fsync:
//! every format written here is verified on read, so a file torn by power
//! loss costs a rebuild, never a wrong answer.

use std::io;
use std::path::Path;
use std::sync::atomic::{AtomicU64, Ordering};

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
    use std::path::PathBuf;

    fn tmpdir(tag: &str) -> PathBuf {
        let d =
            std::env::temp_dir().join(format!("marshal-persist-test-{tag}-{}", std::process::id()));
        let _ = std::fs::remove_dir_all(&d);
        std::fs::create_dir_all(&d).unwrap();
        d
    }

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
        let dir = tmpdir("replace");
        let file = dir.join("sub").join("f.bin");
        write_atomic(&file, b"first version").unwrap();
        write_atomic(&file, b"second").unwrap();
        assert_eq!(std::fs::read(&file).unwrap(), b"second");
        assert_eq!(names(&dir.join("sub")), ["f.bin"]);
        std::fs::remove_dir_all(dir).unwrap();
    }

    #[test]
    fn failed_rename_errors_and_leaves_no_temp() {
        let dir = tmpdir("rename-fails");
        let target = dir.join("taken");
        std::fs::create_dir_all(target.join("inner")).unwrap();
        assert!(write_atomic(&target, b"bytes").is_err());
        assert_eq!(names(&dir), ["taken"]);
        std::fs::remove_dir_all(dir).unwrap();
    }

    #[test]
    fn quarantine_creates_missing_parent() {
        let dir = tmpdir("quarantine");
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
