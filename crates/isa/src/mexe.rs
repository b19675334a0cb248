//! `MEXE` — the deterministic executable object format.
//!
//! A tiny ELF-like container: entry point, loadable segments, and a symbol
//! table. Serialisation is byte-stable: the same program always produces the
//! same bytes, which is what makes FireMarshal artifacts content-addressable
//! and reproducible.
//!
//! Layout (all integers little-endian):
//!
//! ```text
//! magic   4  b"MEXE"
//! version u32
//! entry   u64
//! nseg    u32
//! nsym    u32
//! per segment: vaddr u64, len u64, data [len]
//! per symbol:  name_len u32, name [..], value u64   (sorted by name)
//! ```

use std::collections::BTreeMap;

use marshal_trace::bytes::{DecodeError, Reader, Writer};

use crate::Trap;

/// Format magic bytes.
pub const MAGIC: &[u8; 4] = b"MEXE";
/// Current format version.
pub const VERSION: u32 = 1;

/// Error parsing a `MEXE` image.
#[derive(Debug, Clone, PartialEq, Eq)]
pub enum MexeError {
    /// File shorter than its headers claim.
    Truncated,
    /// Magic bytes do not match.
    BadMagic,
    /// Unsupported format version.
    BadVersion(u32),
    /// Symbol name is not valid UTF-8.
    BadSymbolName,
    /// Bytes follow the symbol table.
    TrailingBytes,
}

impl std::fmt::Display for MexeError {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        match self {
            MexeError::Truncated => write!(f, "truncated mexe image"),
            MexeError::BadMagic => write!(f, "bad mexe magic"),
            MexeError::BadVersion(v) => write!(f, "unsupported mexe version {v}"),
            MexeError::BadSymbolName => write!(f, "symbol name is not valid utf-8"),
            MexeError::TrailingBytes => write!(f, "trailing bytes after mexe image"),
        }
    }
}

impl std::error::Error for MexeError {}

impl From<DecodeError> for MexeError {
    fn from(e: DecodeError) -> MexeError {
        match e {
            DecodeError::Truncated { .. } => MexeError::Truncated,
            DecodeError::BadMagic { .. } => MexeError::BadMagic,
            DecodeError::BadUtf8 { .. } => MexeError::BadSymbolName,
            DecodeError::TrailingBytes { .. } => MexeError::TrailingBytes,
        }
    }
}

/// A loadable segment.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct Segment {
    /// Virtual load address.
    pub vaddr: u64,
    /// Raw bytes to load.
    pub data: Vec<u8>,
}

/// An executable image: entry point, segments, and symbols.
#[derive(Debug, Clone, PartialEq, Eq, Default)]
pub struct MexeFile {
    entry: u64,
    segments: Vec<Segment>,
    symbols: BTreeMap<String, u64>,
}

impl MexeFile {
    /// Creates an image with the given entry point and no segments.
    pub fn new(entry: u64) -> MexeFile {
        MexeFile {
            entry,
            segments: Vec::new(),
            symbols: BTreeMap::new(),
        }
    }

    /// The program entry point.
    pub fn entry(&self) -> u64 {
        self.entry
    }

    /// The loadable segments.
    pub fn segments(&self) -> &[Segment] {
        &self.segments
    }

    /// The symbol table (sorted by name).
    pub fn symbols(&self) -> &BTreeMap<String, u64> {
        &self.symbols
    }

    /// Looks up a symbol value by name.
    pub fn symbol(&self, name: &str) -> Option<u64> {
        self.symbols.get(name).copied()
    }

    /// Appends a loadable segment.
    pub fn push_segment(&mut self, vaddr: u64, data: Vec<u8>) {
        self.segments.push(Segment { vaddr, data });
    }

    /// Defines (or redefines) a symbol.
    pub fn define_symbol(&mut self, name: impl Into<String>, value: u64) {
        self.symbols.insert(name.into(), value);
    }

    /// Total bytes of loadable data across all segments.
    pub fn load_size(&self) -> usize {
        self.segments.iter().map(|s| s.data.len()).sum()
    }

    /// Copies every segment into `mem`.
    ///
    /// # Errors
    ///
    /// Returns a [`Trap`] if any segment falls outside the memory range.
    pub fn load_into<M: crate::mem::MemWrite>(&self, mem: &mut M) -> Result<(), Trap> {
        for seg in &self.segments {
            mem.write_bytes(seg.vaddr, &seg.data)?;
        }
        Ok(())
    }

    /// Serialises to the canonical byte representation.
    ///
    /// The output is deterministic: identical images yield identical bytes.
    pub fn to_bytes(&self) -> Vec<u8> {
        let mut w = Writer::with_capacity(64 + self.load_size());
        w.bytes(MAGIC)
            .u32(VERSION)
            .u64(self.entry)
            .u32(self.segments.len() as u32)
            .u32(self.symbols.len() as u32);
        for seg in &self.segments {
            w.u64(seg.vaddr).field64(&seg.data);
        }
        for (name, value) in &self.symbols {
            w.field32(name.as_bytes()).u64(*value);
        }
        w.into_bytes()
    }

    /// Parses the canonical byte representation.
    ///
    /// # Errors
    ///
    /// Returns [`MexeError`] on malformed input.
    pub fn from_bytes(bytes: &[u8]) -> Result<MexeFile, MexeError> {
        let mut r = Reader::new(bytes);
        r.magic(MAGIC)?;
        let version = r.u32()?;
        if version != VERSION {
            return Err(MexeError::BadVersion(version));
        }
        let mut file = MexeFile::new(r.u64()?);
        let nseg = r.u32()?;
        let nsym = r.u32()?;
        for _ in 0..nseg {
            let vaddr = r.u64()?;
            file.push_segment(vaddr, r.field64()?.to_vec());
        }
        for _ in 0..nsym {
            let name = r.str32()?;
            file.define_symbol(name, r.u64()?);
        }
        r.finish()?;
        Ok(file)
    }

    /// Whether `bytes` start with the `MEXE` magic.
    pub fn sniff(bytes: &[u8]) -> bool {
        bytes.starts_with(MAGIC)
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::mem::FlatMemory;

    fn sample() -> MexeFile {
        let mut f = MexeFile::new(0x1_0000);
        f.push_segment(0x1_0000, vec![1, 2, 3, 4]);
        f.push_segment(0x2_0000, vec![9; 100]);
        f.define_symbol("_start", 0x1_0000);
        f.define_symbol("data", 0x2_0000);
        f
    }

    #[test]
    fn roundtrip() {
        let f = sample();
        let bytes = f.to_bytes();
        let g = MexeFile::from_bytes(&bytes).unwrap();
        assert_eq!(f, g);
    }

    #[test]
    fn deterministic_bytes() {
        assert_eq!(sample().to_bytes(), sample().to_bytes());
    }

    #[test]
    fn symbol_order_does_not_matter() {
        let mut a = MexeFile::new(0);
        a.define_symbol("b", 2);
        a.define_symbol("a", 1);
        let mut b = MexeFile::new(0);
        b.define_symbol("a", 1);
        b.define_symbol("b", 2);
        assert_eq!(a.to_bytes(), b.to_bytes());
    }

    #[test]
    fn rejects_garbage() {
        assert_eq!(MexeFile::from_bytes(b"nope"), Err(MexeError::BadMagic));
        assert_eq!(MexeFile::from_bytes(b"MEX"), Err(MexeError::Truncated));
        let mut bytes = sample().to_bytes();
        bytes.truncate(bytes.len() - 1);
        assert_eq!(MexeFile::from_bytes(&bytes), Err(MexeError::Truncated));
        let mut bad_ver = sample().to_bytes();
        bad_ver[4] = 99;
        assert_eq!(
            MexeFile::from_bytes(&bad_ver),
            Err(MexeError::BadVersion(99))
        );
    }

    #[test]
    fn load_into_memory() {
        let f = sample();
        let mut mem = FlatMemory::new(1 << 20);
        f.load_into(&mut mem).unwrap();
        assert_eq!(mem.read_bytes(0x1_0000, 4).unwrap(), &[1, 2, 3, 4]);
        assert_eq!(mem.read_bytes(0x2_0000, 3).unwrap(), &[9, 9, 9]);
    }

    #[test]
    fn sniff_magic() {
        assert!(MexeFile::sniff(&sample().to_bytes()));
        assert!(!MexeFile::sniff(b"#!mscript"));
    }
}
