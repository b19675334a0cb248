//! The workspace's one binary codec: a bounds-checked little-endian
//! [`Reader`] and the matching [`Writer`], with no dependencies.
//!
//! Every binary format FireMarshal reads back decodes through [`Reader`]:
//! `MEXE` executables, `MIMG` images and `MMAN` manifests, `MKRN` kernels,
//! `MBBN` boot binaries, boot snapshots and `MCKP` checkpoints. Those
//! bytes come from disk, from a spec's input files or from a guest
//! program, so no length is trusted and no method panics:
//!
//! - [`Reader::take`] adds with `checked_add`, so a length near `u64::MAX`
//!   is an error, not an overflow;
//! - a length-prefixed field ([`Reader::field32`], [`Reader::field64`]) is
//!   checked against the bytes remaining and returned as a borrowed slice,
//!   so nothing is allocated for a length the input cannot back;
//! - a text field ([`Reader::str32`], [`Reader::str64`]) is checked for
//!   UTF-8 in the same place for every format;
//! - [`Reader::finish`] rejects trailing bytes.
//!
//! Every [`DecodeError`] carries the byte offset where decoding stopped.
//! Each format keeps its own error type and converts a [`DecodeError`]
//! into it with one `From` impl; decoders whose error is a plain message
//! use the `From<DecodeError> for String` impl here.

use std::fmt;

/// Why a binary decode stopped, and at which byte offset.
#[derive(Debug, Clone, PartialEq, Eq)]
pub enum DecodeError {
    /// The input ends inside the field at `offset`.
    Truncated {
        /// Offset of the field.
        offset: usize,
        /// Bytes the field needs.
        wanted: u64,
        /// Bytes left in the input.
        left: usize,
    },
    /// The magic bytes at `offset` do not match.
    BadMagic {
        /// Offset of the magic.
        offset: usize,
    },
    /// The text field at `offset` is not UTF-8.
    BadUtf8 {
        /// Offset of the field.
        offset: usize,
    },
    /// `count` bytes are left after the last field, from `offset` on.
    TrailingBytes {
        /// Offset of the first trailing byte.
        offset: usize,
        /// How many bytes are left.
        count: usize,
    },
}

impl fmt::Display for DecodeError {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        match self {
            DecodeError::Truncated {
                offset,
                wanted,
                left,
            } => write!(
                f,
                "truncated at byte {offset}: field needs {wanted} bytes, {left} left"
            ),
            DecodeError::BadMagic { offset } => write!(f, "bad magic at byte {offset}"),
            DecodeError::BadUtf8 { offset } => write!(f, "non-UTF-8 text at byte {offset}"),
            DecodeError::TrailingBytes { offset, count } => {
                write!(f, "{count} trailing bytes at byte {offset}")
            }
        }
    }
}

impl std::error::Error for DecodeError {}

impl From<DecodeError> for String {
    fn from(e: DecodeError) -> String {
        e.to_string()
    }
}

/// A cursor over untrusted little-endian bytes. Every read past the end is
/// [`DecodeError::Truncated`].
#[derive(Debug, Clone)]
pub struct Reader<'a> {
    bytes: &'a [u8],
    pos: usize,
}

impl<'a> Reader<'a> {
    /// A reader at the start of `bytes`.
    pub fn new(bytes: &'a [u8]) -> Reader<'a> {
        Reader { bytes, pos: 0 }
    }

    /// The next `n` bytes.
    ///
    /// # Errors
    ///
    /// [`DecodeError::Truncated`] when fewer than `n` bytes are left.
    pub fn take(&mut self, n: u64) -> Result<&'a [u8], DecodeError> {
        let end = usize::try_from(n)
            .ok()
            .and_then(|n| self.pos.checked_add(n))
            .filter(|&end| end <= self.bytes.len())
            .ok_or(DecodeError::Truncated {
                offset: self.pos,
                wanted: n,
                left: self.bytes.len() - self.pos,
            })?;
        let s = &self.bytes[self.pos..end];
        self.pos = end;
        Ok(s)
    }

    fn array<const N: usize>(&mut self) -> Result<[u8; N], DecodeError> {
        let mut out = [0; N];
        out.copy_from_slice(self.take(N as u64)?);
        Ok(out)
    }

    /// Reads one byte.
    pub fn u8(&mut self) -> Result<u8, DecodeError> {
        Ok(self.array::<1>()?[0])
    }

    /// Reads a little-endian `u32`.
    pub fn u32(&mut self) -> Result<u32, DecodeError> {
        Ok(u32::from_le_bytes(self.array()?))
    }

    /// Reads a little-endian `u64`.
    pub fn u64(&mut self) -> Result<u64, DecodeError> {
        Ok(u64::from_le_bytes(self.array()?))
    }

    /// Reads a little-endian `u128`.
    pub fn u128(&mut self) -> Result<u128, DecodeError> {
        Ok(u128::from_le_bytes(self.array()?))
    }

    /// Checks that the next bytes are `magic`.
    ///
    /// # Errors
    ///
    /// [`DecodeError::BadMagic`] when they differ.
    pub fn magic(&mut self, magic: &[u8]) -> Result<(), DecodeError> {
        let offset = self.pos;
        if self.take(magic.len() as u64)? != magic {
            return Err(DecodeError::BadMagic { offset });
        }
        Ok(())
    }

    /// Reads a field written by [`Writer::field32`]: a `u32` length, then
    /// that many bytes.
    pub fn field32(&mut self) -> Result<&'a [u8], DecodeError> {
        let len = self.u32()?;
        self.take(u64::from(len))
    }

    /// Reads a field written by [`Writer::field64`]: a `u64` length, then
    /// that many bytes.
    pub fn field64(&mut self) -> Result<&'a [u8], DecodeError> {
        let len = self.u64()?;
        self.take(len)
    }

    /// Reads a [`Reader::field32`] that holds text.
    ///
    /// # Errors
    ///
    /// [`DecodeError::BadUtf8`] when the field is not UTF-8.
    pub fn str32(&mut self) -> Result<&'a str, DecodeError> {
        let offset = self.pos;
        let field = self.field32()?;
        std::str::from_utf8(field).map_err(|_| DecodeError::BadUtf8 { offset })
    }

    /// Reads a [`Reader::field64`] that holds text.
    ///
    /// # Errors
    ///
    /// [`DecodeError::BadUtf8`] when the field is not UTF-8.
    pub fn str64(&mut self) -> Result<&'a str, DecodeError> {
        let offset = self.pos;
        let field = self.field64()?;
        std::str::from_utf8(field).map_err(|_| DecodeError::BadUtf8 { offset })
    }

    /// Everything after the cursor, which moves to the end.
    pub fn rest(&mut self) -> &'a [u8] {
        let s = &self.bytes[self.pos..];
        self.pos = self.bytes.len();
        s
    }

    /// Ends the decode.
    ///
    /// # Errors
    ///
    /// [`DecodeError::TrailingBytes`] when bytes are left.
    pub fn finish(self) -> Result<(), DecodeError> {
        match self.bytes.len() - self.pos {
            0 => Ok(()),
            count => Err(DecodeError::TrailingBytes {
                offset: self.pos,
                count,
            }),
        }
    }
}

/// Builds the little-endian bytes a [`Reader`] decodes. Every method
/// appends and returns the writer, so a record is one chain of calls.
#[derive(Debug, Clone, Default)]
pub struct Writer {
    buf: Vec<u8>,
}

impl Writer {
    /// An empty writer with room for `n` bytes.
    pub fn with_capacity(n: usize) -> Writer {
        Writer {
            buf: Vec::with_capacity(n),
        }
    }

    /// Appends raw bytes (a magic, or a payload whose length is known).
    pub fn bytes(&mut self, b: &[u8]) -> &mut Writer {
        self.buf.extend_from_slice(b);
        self
    }

    /// Appends one byte.
    pub fn u8(&mut self, v: u8) -> &mut Writer {
        self.bytes(&[v])
    }

    /// Appends a little-endian `u32`.
    pub fn u32(&mut self, v: u32) -> &mut Writer {
        self.bytes(&v.to_le_bytes())
    }

    /// Appends a little-endian `u64`.
    pub fn u64(&mut self, v: u64) -> &mut Writer {
        self.bytes(&v.to_le_bytes())
    }

    /// Appends a little-endian `u128`.
    pub fn u128(&mut self, v: u128) -> &mut Writer {
        self.bytes(&v.to_le_bytes())
    }

    /// Appends a `u32` length, then `b`.
    pub fn field32(&mut self, b: &[u8]) -> &mut Writer {
        self.u32(b.len() as u32).bytes(b)
    }

    /// Appends a `u64` length, then `b`.
    pub fn field64(&mut self, b: &[u8]) -> &mut Writer {
        self.u64(b.len() as u64).bytes(b)
    }

    /// The bytes written.
    pub fn into_bytes(self) -> Vec<u8> {
        self.buf
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn roundtrip_and_every_truncation() {
        let mut w = Writer::default();
        w.bytes(b"TEST").u8(7).u32(0xdead_beef).u64(u64::MAX - 1);
        w.u128(1 << 100)
            .field32(b"abc")
            .field64(b"")
            .field32(b"hi")
            .field64(b"");
        let bytes = w.into_bytes();
        fn decode(input: &[u8]) -> Result<String, DecodeError> {
            let mut r = Reader::new(input);
            r.magic(b"TEST")?;
            let (a, b, c, d) = (r.u8()?, r.u32()?, r.u64()?, r.u128()?);
            let fields = format!("{:?} {:?}", r.field32()?, r.field64()?);
            let text = format!("{} {:?}", r.str32()?, r.str64()?);
            r.finish()?;
            Ok(format!("{a} {b:x} {c} {d} {fields} {text}"))
        }
        let expect = format!(
            "7 deadbeef {} {} [97, 98, 99] [] hi \"\"",
            u64::MAX - 1,
            1u128 << 100
        );
        assert_eq!(decode(&bytes), Ok(expect));
        for cut in 0..bytes.len() {
            assert!(decode(&bytes[..cut]).is_err(), "cut at {cut} decoded");
        }
    }

    #[test]
    fn errors_carry_offsets() {
        let bytes = [&[0][..], &u64::MAX.to_le_bytes(), b"xy!"].concat();
        let mut r = Reader::new(&bytes);
        r.u8().unwrap();
        let huge = DecodeError::Truncated {
            offset: 9,
            wanted: u64::MAX,
            left: 3,
        };
        assert_eq!(r.clone().field64(), Err(huge));
        r.u64().unwrap();
        assert!(r.take(usize::MAX as u64).is_err());
        assert_eq!(r.take(2), Ok(&b"xy"[..]));
        let trailing = r.clone().finish().unwrap_err();
        assert_eq!(trailing.to_string(), "1 trailing bytes at byte 11");
        assert_eq!(r.rest(), b"!");
        r.finish().unwrap();
        let mut r = Reader::new(b"NOPE");
        assert_eq!(r.magic(b"TEST"), Err(DecodeError::BadMagic { offset: 0 }));
        assert!(Reader::new(b"TE").magic(b"TEST").is_err());
        let mut w = Writer::default();
        w.u8(0).field64(b"\xff");
        let mut r = Reader::new(&w.buf);
        r.u8().unwrap();
        assert_eq!(r.str64(), Err(DecodeError::BadUtf8 { offset: 1 }));
    }
}
