//! A newc-inspired archive format used for initramfs payloads.
//!
//! FireMarshal generates an initramfs as the kernel's first-stage init
//! (§III-B step 4c); with `--no-disk`, the whole rootfs is embedded as the
//! initramfs payload (step 6). This module packs an [`FsImage`] into a
//! single deterministic archive blob and back.
//!
//! The format is a simplified `newc`: a textual per-entry header
//! (`MCPIO` + tag + path + size), raw data, and a `TRAILER!!!` terminator —
//! close enough to real cpio to be recognisable, simple enough to be fully
//! deterministic.

use marshal_trace::bytes::Reader;

use crate::format::ImageFormatError;
use crate::fs::{FsImage, Node};

const ENTRY_MAGIC: &str = "MCPIO1";
const TRAILER: &str = "TRAILER!!!";
/// `MCPIO1 t pathlen_ datalen_ `: every header has this fixed width.
const HEADER_LEN: usize = ENTRY_MAGIC.len() + 1 + 1 + 1 + 8 + 1 + 8 + 1;

/// Packs an image into an archive blob.
///
/// Entries are emitted in sorted path order; identical images produce
/// identical archives.
pub fn pack(image: &FsImage) -> Vec<u8> {
    let entries = image.walk();
    // Every header is fixed-width, so the archive size is known exactly
    // up front; reserve once instead of growing per entry.
    let total: usize = entries
        .iter()
        .map(|(path, node)| {
            let data_len = match node {
                Node::File { data, .. } => data.len(),
                Node::Dir(_) => 0,
                Node::Symlink(target) => target.len(),
            };
            HEADER_LEN + path.len() + data_len
        })
        .sum::<usize>()
        + HEADER_LEN
        + TRAILER.len();
    let mut out = Vec::with_capacity(total);
    for (path, node) in entries {
        let (tag, data): (char, &[u8]) = match node {
            Node::File { data, exec: false } => ('f', data.as_ref()),
            Node::File { data, exec: true } => ('x', data.as_ref()),
            Node::Dir(_) => ('d', &[]),
            Node::Symlink(target) => ('l', target.as_bytes()),
        };
        out.extend_from_slice(
            format!("{ENTRY_MAGIC} {tag} {:08x} {:08x} ", path.len(), data.len()).as_bytes(),
        );
        out.extend_from_slice(path.as_bytes());
        out.extend_from_slice(data);
    }
    out.extend_from_slice(format!("{ENTRY_MAGIC} t {:08x} {:08x} ", TRAILER.len(), 0).as_bytes());
    out.extend_from_slice(TRAILER.as_bytes());
    debug_assert_eq!(out.len(), total);
    out
}

/// Unpacks an archive blob back into an image.
///
/// # Errors
///
/// Returns [`ImageFormatError`] for malformed archives (bad magic, bad
/// lengths, missing trailer).
pub fn unpack(bytes: &[u8]) -> Result<FsImage, ImageFormatError> {
    let mut img = FsImage::new();
    let mut r = Reader::new(bytes);
    loop {
        let header = std::str::from_utf8(r.take(HEADER_LEN as u64)?)
            .map_err(|_| ImageFormatError::BadPath)?;
        let mut parts = header.split(' ');
        let magic = parts.next().unwrap_or("");
        if magic != ENTRY_MAGIC {
            return Err(ImageFormatError::BadMagic);
        }
        let tag = parts.next().unwrap_or("");
        let mut len = || {
            u64::from_str_radix(parts.next().unwrap_or(""), 16)
                .map_err(|_| ImageFormatError::Truncated)
        };
        let (path_len, data_len) = (len()?, len()?);
        let path = std::str::from_utf8(r.take(path_len)?).map_err(|_| ImageFormatError::BadPath)?;
        let data = r.take(data_len)?;
        match tag {
            "t" => {
                if path != TRAILER {
                    return Err(ImageFormatError::Structure("bad trailer".to_owned()));
                }
                r.finish()?;
                return Ok(img);
            }
            "f" => img.write_file(path, data)?,
            "x" => img.write_exec(path, data)?,
            "d" => img.mkdir_p(path)?,
            "l" => {
                let target = std::str::from_utf8(data).map_err(|_| ImageFormatError::BadPath)?;
                img.symlink(path, target)?;
            }
            other => return Err(ImageFormatError::BadTag(other.bytes().next().unwrap_or(0))),
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn sample() -> FsImage {
        let mut img = FsImage::new();
        img.write_exec("/init", b"#!mscript\nprint(\"init\")\n")
            .unwrap();
        img.write_file("/lib/modules/iceblk.ko", b"MODULE").unwrap();
        img.symlink("/sbin/init", "/init").unwrap();
        img.mkdir_p("/dev").unwrap();
        img
    }

    #[test]
    fn roundtrip() {
        let img = sample();
        let packed = pack(&img);
        let back = unpack(&packed).unwrap();
        assert_eq!(img, back);
    }

    #[test]
    fn deterministic() {
        assert_eq!(pack(&sample()), pack(&sample()));
    }

    #[test]
    fn trailer_required() {
        let mut bytes = pack(&sample());
        bytes.truncate(bytes.len() - 4);
        assert!(unpack(&bytes).is_err());
    }

    #[test]
    fn empty_image() {
        let img = FsImage::new();
        let back = unpack(&pack(&img)).unwrap();
        assert_eq!(back.node_count(), 0);
    }

    #[test]
    fn garbage_rejected() {
        assert!(unpack(b"not an archive at all............").is_err());
        assert!(unpack(b"").is_err());
    }
}
