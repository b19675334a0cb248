//! The `MIMG` binary image format.
//!
//! Byte-stable serialisation of an [`FsImage`]: identical trees always
//! produce identical bytes, so image fingerprints are meaningful and builds
//! are reproducible.
//!
//! Layout (little-endian):
//!
//! ```text
//! magic    4   b"MIMG"
//! version  u32
//! limit    u64  (0 = none)
//! nentries u32
//! entries, sorted by path:
//!   tag      u8   (0 file, 1 exec file, 2 dir, 3 symlink)
//!   path_len u32, path bytes
//!   data_len u64, data bytes (file contents / symlink target / empty)
//! ```

use marshal_trace::bytes::{DecodeError, Reader, Writer};

use crate::fs::{FsError, FsImage, Node};

/// Format magic bytes.
pub const MAGIC: &[u8; 4] = b"MIMG";
/// Current version.
pub const VERSION: u32 = 1;

/// Error parsing an `MIMG` byte stream.
#[derive(Debug, Clone, PartialEq, Eq)]
pub enum ImageFormatError {
    /// Bad magic bytes.
    BadMagic,
    /// Unsupported version.
    BadVersion(u32),
    /// Stream shorter than headers claim.
    Truncated,
    /// Entry path is not valid UTF-8 or not absolute.
    BadPath,
    /// Unknown entry tag.
    BadTag(u8),
    /// Structural error rebuilding the tree.
    Structure(String),
}

impl std::fmt::Display for ImageFormatError {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        match self {
            ImageFormatError::BadMagic => write!(f, "bad image magic"),
            ImageFormatError::BadVersion(v) => write!(f, "unsupported image version {v}"),
            ImageFormatError::Truncated => write!(f, "truncated image"),
            ImageFormatError::BadPath => write!(f, "bad path in image"),
            ImageFormatError::BadTag(t) => write!(f, "unknown entry tag {t}"),
            ImageFormatError::Structure(m) => write!(f, "structural error: {m}"),
        }
    }
}

impl std::error::Error for ImageFormatError {}

impl From<FsError> for ImageFormatError {
    fn from(e: FsError) -> ImageFormatError {
        ImageFormatError::Structure(e.to_string())
    }
}

impl From<DecodeError> for ImageFormatError {
    fn from(e: DecodeError) -> ImageFormatError {
        match e {
            DecodeError::Truncated { .. } => ImageFormatError::Truncated,
            DecodeError::BadMagic { .. } => ImageFormatError::BadMagic,
            DecodeError::BadUtf8 { .. } => ImageFormatError::BadPath,
            DecodeError::TrailingBytes { .. } => ImageFormatError::Structure(e.to_string()),
        }
    }
}

impl FsImage {
    /// Serialises the image to its canonical byte representation.
    pub fn to_bytes(&self) -> Vec<u8> {
        let entries = self.walk();
        let mut w = Writer::with_capacity(64 + self.total_size() as usize);
        w.bytes(MAGIC)
            .u32(VERSION)
            .u64(self.size_limit().unwrap_or(0))
            .u32(entries.len() as u32);
        for (path, node) in entries {
            let (tag, data): (u8, &[u8]) = match node {
                Node::File { data, exec: false } => (0, data.as_ref()),
                Node::File { data, exec: true } => (1, data.as_ref()),
                Node::Dir(_) => (2, &[]),
                Node::Symlink(target) => (3, target.as_bytes()),
            };
            w.u8(tag).field32(path.as_bytes()).field64(data);
        }
        w.into_bytes()
    }

    /// Parses the canonical byte representation.
    ///
    /// # Errors
    ///
    /// Returns [`ImageFormatError`] for malformed input.
    pub fn from_bytes(bytes: &[u8]) -> Result<FsImage, ImageFormatError> {
        let mut r = Reader::new(bytes);
        r.magic(MAGIC)?;
        let version = r.u32()?;
        if version != VERSION {
            return Err(ImageFormatError::BadVersion(version));
        }
        let limit = r.u64()?;
        let nentries = r.u32()?;
        let mut img = FsImage::new();
        img.set_size_limit(if limit == 0 { None } else { Some(limit) });
        for _ in 0..nentries {
            let tag = r.u8()?;
            let path = read_path(&mut r)?;
            let data = r.field64()?;
            match tag {
                0 => img.write_file(path, data)?,
                1 => img.write_exec(path, data)?,
                2 => img.mkdir_p(path)?,
                3 => {
                    let target =
                        std::str::from_utf8(data).map_err(|_| ImageFormatError::BadPath)?;
                    img.symlink(path, target)?;
                }
                t => return Err(ImageFormatError::BadTag(t)),
            }
        }
        r.finish()?;
        Ok(img)
    }

    /// Whether `bytes` start with the `MIMG` magic.
    pub fn sniff(bytes: &[u8]) -> bool {
        bytes.starts_with(MAGIC)
    }
}

/// Reads an entry path (a `u32`-length field), which must be UTF-8 and
/// absolute. `MIMG` and `MMAN` entries share it.
pub(crate) fn read_path<'a>(r: &mut Reader<'a>) -> Result<&'a str, ImageFormatError> {
    Some(r.str32()?)
        .filter(|p| p.starts_with('/'))
        .ok_or(ImageFormatError::BadPath)
}

#[cfg(test)]
mod tests {
    use super::*;

    fn sample() -> FsImage {
        let mut img = FsImage::new();
        img.set_size_limit(Some(1 << 20));
        img.write_file("/etc/hostname", b"node0").unwrap();
        img.write_exec("/bin/bench", b"\x13\x05\x10\x00").unwrap();
        img.symlink("/bin/sh", "bench").unwrap();
        img.mkdir_p("/output").unwrap();
        img
    }

    #[test]
    fn roundtrip() {
        let img = sample();
        let bytes = img.to_bytes();
        let back = FsImage::from_bytes(&bytes).unwrap();
        assert_eq!(img, back);
    }

    #[test]
    fn deterministic() {
        // Insertion order must not matter.
        let mut a = FsImage::new();
        a.write_file("/b", b"2").unwrap();
        a.write_file("/a", b"1").unwrap();
        let mut b = FsImage::new();
        b.write_file("/a", b"1").unwrap();
        b.write_file("/b", b"2").unwrap();
        assert_eq!(a.to_bytes(), b.to_bytes());
    }

    #[test]
    fn empty_dirs_preserved() {
        let img = sample();
        let back = FsImage::from_bytes(&img.to_bytes()).unwrap();
        assert!(back.list_dir("/output").unwrap().is_empty());
    }

    #[test]
    fn exec_bit_preserved() {
        let back = FsImage::from_bytes(&sample().to_bytes()).unwrap();
        assert!(back.is_executable("/bin/bench"));
        assert!(!back.is_executable("/etc/hostname"));
    }

    #[test]
    fn garbage_rejected() {
        assert_eq!(
            FsImage::from_bytes(b"nope"),
            Err(ImageFormatError::BadMagic)
        );
        assert_eq!(FsImage::from_bytes(b"MI"), Err(ImageFormatError::Truncated));
        assert_eq!(
            FsImage::from_bytes(b"XIMG\x01\x00\x00\x00"),
            Err(ImageFormatError::BadMagic)
        );
        let mut bytes = sample().to_bytes();
        bytes.truncate(bytes.len() - 2);
        assert_eq!(
            FsImage::from_bytes(&bytes),
            Err(ImageFormatError::Truncated)
        );
        let mut extra = sample().to_bytes();
        extra.push(0);
        assert!(matches!(
            FsImage::from_bytes(&extra),
            Err(ImageFormatError::Structure(_))
        ));
    }

    #[test]
    fn size_limit_roundtrips() {
        let back = FsImage::from_bytes(&sample().to_bytes()).unwrap();
        assert_eq!(back.size_limit(), Some(1 << 20));
        let mut unlimited = FsImage::new();
        unlimited.write_file("/x", b"").unwrap();
        let back = FsImage::from_bytes(&unlimited.to_bytes()).unwrap();
        assert_eq!(back.size_limit(), None);
    }

    #[test]
    fn sniff_works() {
        assert!(FsImage::sniff(&sample().to_bytes()));
        assert!(!FsImage::sniff(b"MEXE"));
    }
}
