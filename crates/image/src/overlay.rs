//! Overlay application: merging trees and host directories into images.
//!
//! Implements §III-B step 5a: "FireMarshal makes a copy of the parent's
//! disk image and then copies over any files from the `file` or `overlay`
//! options."

use std::path::Path;

use crate::fs::{FsError, FsImage, Node};

/// One node a declared output covers ([`FsImage::output_nodes`]): its path
/// relative to the declared path, and its contents (`None` for a directory).
pub type OutputNode<'a> = (String, Option<&'a [u8]>);

impl FsImage {
    /// Overlays another image on top of this one.
    ///
    /// Files and symlinks in `upper` replace same-named nodes here;
    /// directories merge recursively. This is the core of parent-image
    /// reuse: children start from a clone of the parent image and apply
    /// their overlay.
    pub fn apply_overlay(&mut self, upper: &FsImage) {
        for (path, node) in upper.walk() {
            // Overlay semantics: the upper layer wins even when a lower
            // *file* blocks an upper *directory* (or a path through one) —
            // remove the conflicting ancestor and retry.
            let apply = |img: &mut FsImage| match node {
                Node::Dir(_) => img.mkdir_p(&path),
                other => img.write_node(&path, other.clone()),
            };
            if let Err(FsError::NotADirectory(_)) = apply(self) {
                self.remove_conflicting_ancestor(&path);
                // Bad paths cannot come out of walk(), so this succeeds.
                let _ = apply(self);
            }
        }
    }

    /// Removes the first ancestor of `path` that exists but is not a
    /// directory (clearing the way for an overlay write).
    fn remove_conflicting_ancestor(&mut self, path: &str) {
        let mut prefix = String::new();
        for comp in path.split('/').filter(|c| !c.is_empty()) {
            prefix.push('/');
            prefix.push_str(comp);
            if prefix == path {
                break;
            }
            if matches!(
                self.node(&prefix),
                Some(Node::File { .. } | Node::Symlink(_))
            ) {
                self.remove(&prefix);
                return;
            }
        }
    }

    /// Overlays a host directory tree rooted at `host_dir` onto `guest_root`.
    ///
    /// Host regular files become image files (executable bit preserved on
    /// Unix), directories recurse, symlinks are copied verbatim. Entries are
    /// visited in sorted order so the result is deterministic.
    ///
    /// # Errors
    ///
    /// [`FsError::NotFound`] when `host_dir` does not exist, or an I/O
    /// failure mapped to [`FsError::BadPath`].
    pub fn overlay_host_dir(&mut self, host_dir: &Path, guest_root: &str) -> Result<(), FsError> {
        if !host_dir.is_dir() {
            return Err(FsError::NotFound(host_dir.display().to_string()));
        }
        let mut entries: Vec<_> = std::fs::read_dir(host_dir)
            .map_err(|e| FsError::BadPath(format!("{}: {e}", host_dir.display())))?
            .filter_map(Result::ok)
            .collect();
        entries.sort_by_key(|e| e.file_name());
        for entry in entries {
            let name = entry.file_name().to_string_lossy().into_owned();
            let guest_path = if guest_root == "/" {
                format!("/{name}")
            } else {
                format!("{guest_root}/{name}")
            };
            let path = entry.path();
            let meta = std::fs::symlink_metadata(&path)
                .map_err(|e| FsError::BadPath(format!("{}: {e}", path.display())))?;
            if meta.file_type().is_symlink() {
                let target = std::fs::read_link(&path)
                    .map_err(|e| FsError::BadPath(format!("{}: {e}", path.display())))?;
                self.symlink(&guest_path, &target.to_string_lossy())?;
            } else if meta.is_dir() {
                self.mkdir_p(&guest_path)?;
                self.overlay_host_dir(&path, &guest_path)?;
            } else {
                let data = std::fs::read(&path)
                    .map_err(|e| FsError::BadPath(format!("{}: {e}", path.display())))?;
                let exec = is_executable(&meta);
                if exec {
                    self.write_exec(&guest_path, &data)?;
                } else {
                    self.write_file(&guest_path, &data)?;
                }
            }
        }
        Ok(())
    }

    /// What a declared `outputs` path covers: the one rule behind both
    /// writing a run's outputs to disk ([`FsImage::copy_out`]) and comparing
    /// them across backends (`cosim`).
    ///
    /// A symlink at `guest_path` itself is followed ([`FsImage::resolve`]).
    /// Below it, nothing is followed: a file covers its contents, a symlink
    /// its target text, and a directory (`None`) itself, even when empty.
    /// Paths are relative to `guest_path`: `""` is the path itself, and every
    /// other path starts with `/`. Directories come before their entries,
    /// entries in name order. `None` when `guest_path` does not resolve.
    pub fn output_nodes(&self, guest_path: &str) -> Option<Vec<OutputNode<'_>>> {
        fn rec<'a>(rel: String, node: &'a Node, out: &mut Vec<OutputNode<'a>>) {
            match node {
                Node::File { data, .. } => out.push((rel, Some(data))),
                Node::Symlink(target) => out.push((rel, Some(target.as_bytes()))),
                Node::Dir(dir) => {
                    out.push((rel.clone(), None));
                    for (name, child) in dir.children() {
                        rec(format!("{rel}/{name}"), child, out);
                    }
                }
            }
        }
        let mut out = Vec::new();
        rec(String::new(), self.resolve(guest_path)?, &mut out);
        Some(out)
    }

    /// Copies a path (file or directory subtree) out of the image into a
    /// host directory — used by output collection after a run. It writes
    /// exactly what [`FsImage::output_nodes`] covers.
    ///
    /// # Errors
    ///
    /// [`FsError::NotFound`] when `guest_path` is missing, or I/O failures
    /// as [`FsError::BadPath`].
    pub fn copy_out(&self, guest_path: &str, host_dest: &Path) -> Result<(), FsError> {
        let nodes = self
            .output_nodes(guest_path)
            .ok_or_else(|| FsError::NotFound(guest_path.to_owned()))?;
        let io = |path: &Path, e| FsError::BadPath(format!("{}: {e}", path.display()));
        if let Some(parent) = host_dest.parent() {
            std::fs::create_dir_all(parent).map_err(|e| io(parent, e))?;
        }
        // Directories come first, so every entry's parent exists.
        for (rel, data) in nodes {
            let mut dest = host_dest.to_path_buf();
            dest.extend(rel.split('/').filter(|c| !c.is_empty()));
            match data {
                None => std::fs::create_dir_all(&dest),
                Some(data) => std::fs::write(&dest, data),
            }
            .map_err(|e| io(&dest, e))?;
        }
        Ok(())
    }
}

#[cfg(unix)]
fn is_executable(meta: &std::fs::Metadata) -> bool {
    use std::os::unix::fs::PermissionsExt;
    meta.permissions().mode() & 0o111 != 0
}

#[cfg(not(unix))]
fn is_executable(_meta: &std::fs::Metadata) -> bool {
    false
}

#[cfg(test)]
mod tests {
    use super::*;
    use marshal_qcheck::scratch_dir;

    #[test]
    fn image_overlay_replaces_and_merges() {
        let mut base = FsImage::new();
        base.write_file("/etc/keep", b"keep").unwrap();
        base.write_file("/etc/replace", b"old").unwrap();

        let mut upper = FsImage::new();
        upper.write_file("/etc/replace", b"new").unwrap();
        upper.write_file("/bench/run", b"go").unwrap();

        base.apply_overlay(&upper);
        assert_eq!(base.read_file("/etc/keep").unwrap(), b"keep");
        assert_eq!(base.read_file("/etc/replace").unwrap(), b"new");
        assert_eq!(base.read_file("/bench/run").unwrap(), b"go");
    }

    #[test]
    fn overlay_preserves_parent_unrelated_dirs() {
        let mut base = FsImage::new();
        base.write_file("/lib/modules/a.ko", b"A").unwrap();
        let mut upper = FsImage::new();
        upper.mkdir_p("/lib/modules").unwrap();
        base.apply_overlay(&upper);
        assert_eq!(base.read_file("/lib/modules/a.ko").unwrap(), b"A");
    }

    #[test]
    fn host_dir_overlay() {
        let dir = scratch_dir("hostdir");
        std::fs::create_dir_all(dir.join("sub")).unwrap();
        std::fs::write(dir.join("top.txt"), b"top").unwrap();
        std::fs::write(dir.join("sub/inner.txt"), b"inner").unwrap();

        let mut img = FsImage::new();
        img.overlay_host_dir(&dir, "/").unwrap();
        assert_eq!(img.read_file("/top.txt").unwrap(), b"top");
        assert_eq!(img.read_file("/sub/inner.txt").unwrap(), b"inner");
        std::fs::remove_dir_all(dir).unwrap();
    }

    #[test]
    fn host_dir_missing_errors() {
        let mut img = FsImage::new();
        assert!(matches!(
            img.overlay_host_dir(Path::new("/definitely/not/here"), "/"),
            Err(FsError::NotFound(_))
        ));
    }

    #[test]
    fn copy_out_roundtrip() {
        let dir = scratch_dir("copyout");
        let mut img = FsImage::new();
        img.write_file("/output/results.csv", b"a,b\n1,2\n")
            .unwrap();
        img.write_file("/output/nested/log.txt", b"log").unwrap();
        img.mkdir_p("/output/empty").unwrap();
        img.symlink("/output/latest", "results.csv").unwrap();
        img.copy_out("/output", &dir.join("out")).unwrap();
        img.copy_out("/output/nested/log.txt", &dir.join("one/log.txt"))
            .unwrap();
        assert_eq!(
            std::fs::read(dir.join("out/results.csv")).unwrap(),
            b"a,b\n1,2\n"
        );
        assert_eq!(
            std::fs::read(dir.join("out/nested/log.txt")).unwrap(),
            b"log"
        );
        assert!(dir.join("out/empty").is_dir());
        assert_eq!(
            std::fs::read(dir.join("out/latest")).unwrap(),
            b"results.csv"
        );
        assert_eq!(std::fs::read(dir.join("one/log.txt")).unwrap(), b"log");
        assert!(img.copy_out("/missing", &dir.join("x")).is_err());
        std::fs::remove_dir_all(dir).unwrap();
    }

    #[test]
    fn gathers_declared_outputs() {
        let mut img = FsImage::new();
        img.write_file("/output/a.csv", b"a\n").unwrap();
        img.write_file("/output/sub/b.csv", b"b\n").unwrap();
        img.mkdir_p("/output/empty").unwrap();
        img.symlink("/output/link", "a.csv").unwrap();
        img.write_file("/etc/hostname", b"host\n").unwrap();
        let want = vec![
            (String::new(), None),
            ("/a.csv".to_owned(), Some(&b"a\n"[..])),
            ("/empty".to_owned(), None),
            // Symlinks below the declared path are not followed.
            ("/link".to_owned(), Some(&b"a.csv"[..])),
            ("/sub".to_owned(), None),
            ("/sub/b.csv".to_owned(), Some(&b"b\n"[..])),
        ];
        assert_eq!(img.output_nodes("/output"), Some(want.clone()));
        assert_eq!(img.output_nodes("/output/"), Some(want.clone()));
        // A symlink at the declared path is followed.
        img.symlink("/results", "/output").unwrap();
        assert_eq!(img.output_nodes("/results"), Some(want));
        assert_eq!(
            img.output_nodes("/output/a.csv"),
            Some(vec![(String::new(), Some(&b"a\n"[..]))])
        );
        assert_eq!(img.output_nodes("/missing"), None);
    }

    #[cfg(unix)]
    #[test]
    fn host_exec_bit_preserved() {
        use std::os::unix::fs::PermissionsExt;
        let dir = scratch_dir("execbit");
        let script = dir.join("run.sh");
        std::fs::write(&script, b"#!/bin/sh\n").unwrap();
        std::fs::set_permissions(&script, std::fs::Permissions::from_mode(0o755)).unwrap();
        let mut img = FsImage::new();
        img.overlay_host_dir(&dir, "/").unwrap();
        assert!(img.is_executable("/run.sh"));
        std::fs::remove_dir_all(dir).unwrap();
    }
}
