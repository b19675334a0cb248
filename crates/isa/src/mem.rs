//! Memory abstractions used by the interpreter.
//!
//! The interpreter is generic over a [`Bus`], letting the functional
//! simulators attach MMIO devices (UART, block device, PFA, NIC) while tests
//! and user-mode execution use a simple [`FlatMemory`].

use crate::interp::Trap;

/// A byte-addressable memory bus.
///
/// Implementors provide naturally-aligned little-endian accesses of 1, 2, 4
/// or 8 bytes. The interpreter performs all alignment checks before calling
/// into the bus, so implementations may assume `size` divides `addr` only if
/// they care about alignment themselves.
pub trait Bus {
    /// Loads `size` bytes (1, 2, 4, or 8) at `addr`, zero-extended into a `u64`.
    ///
    /// # Errors
    ///
    /// Returns [`Trap::LoadFault`] when the address is unmapped.
    fn load(&mut self, addr: u64, size: usize) -> Result<u64, Trap>;

    /// Stores the low `size` bytes of `value` at `addr`.
    ///
    /// # Errors
    ///
    /// Returns [`Trap::StoreFault`] when the address is unmapped or read-only.
    fn store(&mut self, addr: u64, size: usize, value: u64) -> Result<(), Trap>;

    /// Fetches a 32-bit instruction word at `addr`.
    ///
    /// The default implementation issues a 4-byte load; devices may override
    /// to fault on execution from MMIO space.
    ///
    /// # Errors
    ///
    /// Returns [`Trap::FetchFault`] (or a load fault) when unmapped.
    fn fetch(&mut self, addr: u64) -> Result<u32, Trap> {
        self.load(addr, 4).map(|v| v as u32).map_err(|t| match t {
            Trap::LoadFault { addr } => Trap::FetchFault { addr },
            other => other,
        })
    }
}

/// A flat, zero-initialised RAM starting at a configurable base address.
///
/// ```rust
/// use marshal_isa::mem::{Bus, FlatMemory};
/// let mut m = FlatMemory::new(4096);
/// m.store(16, 8, 0xdead_beef).unwrap();
/// assert_eq!(m.load(16, 8).unwrap(), 0xdead_beef);
/// ```
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct FlatMemory {
    base: u64,
    data: Vec<u8>,
}

impl FlatMemory {
    /// Creates a memory of `size` bytes based at address 0.
    pub fn new(size: usize) -> FlatMemory {
        FlatMemory::with_base(0, size)
    }

    /// Creates a memory of `size` bytes based at `base`.
    pub fn with_base(base: u64, size: usize) -> FlatMemory {
        FlatMemory {
            base,
            data: vec![0; size],
        }
    }

    /// The base address of the mapped range.
    pub fn base(&self) -> u64 {
        self.base
    }

    /// The size of the mapped range in bytes.
    pub fn size(&self) -> usize {
        self.data.len()
    }

    /// Whether `[addr, addr+len)` lies entirely within this memory.
    pub fn contains(&self, addr: u64, len: usize) -> bool {
        addr >= self.base && addr.saturating_add(len as u64) <= self.base + self.data.len() as u64
    }

    fn offset(&self, addr: u64, len: usize) -> Option<usize> {
        if self.contains(addr, len) {
            Some((addr - self.base) as usize)
        } else {
            None
        }
    }

    /// Copies `bytes` into memory starting at `addr`.
    ///
    /// # Errors
    ///
    /// Returns [`Trap::StoreFault`] if the range is not fully mapped.
    pub fn write_bytes(&mut self, addr: u64, bytes: &[u8]) -> Result<(), Trap> {
        let off = self
            .offset(addr, bytes.len())
            .ok_or(Trap::StoreFault { addr })?;
        self.data[off..off + bytes.len()].copy_from_slice(bytes);
        Ok(())
    }

    /// Reads `len` bytes starting at `addr`.
    ///
    /// # Errors
    ///
    /// Returns [`Trap::LoadFault`] if the range is not fully mapped.
    pub fn read_bytes(&self, addr: u64, len: usize) -> Result<&[u8], Trap> {
        let off = self.offset(addr, len).ok_or(Trap::LoadFault { addr })?;
        Ok(&self.data[off..off + len])
    }

    /// Reads a NUL-terminated string starting at `addr` (at most `max` bytes).
    ///
    /// # Errors
    ///
    /// Returns [`Trap::LoadFault`] if the scan runs off mapped memory before
    /// finding a terminator.
    pub fn read_cstr(&self, addr: u64, max: usize) -> Result<String, Trap> {
        let mut out = Vec::new();
        for i in 0..max {
            let b = self.read_bytes(addr + i as u64, 1)?[0];
            if b == 0 {
                break;
            }
            out.push(b);
        }
        Ok(String::from_utf8_lossy(&out).into_owned())
    }
}

impl Bus for FlatMemory {
    fn load(&mut self, addr: u64, size: usize) -> Result<u64, Trap> {
        let off = self.offset(addr, size).ok_or(Trap::LoadFault { addr })?;
        let mut v = 0u64;
        for (i, b) in self.data[off..off + size].iter().enumerate() {
            v |= (*b as u64) << (8 * i);
        }
        Ok(v)
    }

    fn store(&mut self, addr: u64, size: usize, value: u64) -> Result<(), Trap> {
        let off = self.offset(addr, size).ok_or(Trap::StoreFault { addr })?;
        for i in 0..size {
            self.data[off + i] = (value >> (8 * i)) as u8;
        }
        Ok(())
    }
}

/// Writable byte memory, as seen by program loaders ([`crate::MexeFile`]).
///
/// Both [`FlatMemory`] and [`PagedMemory`] implement it, so loaders work
/// against either backing.
pub trait MemWrite {
    /// Copies `bytes` into memory starting at `addr`.
    ///
    /// # Errors
    ///
    /// Returns [`Trap::StoreFault`] if the range is not fully mapped.
    fn write_bytes(&mut self, addr: u64, bytes: &[u8]) -> Result<(), Trap>;
}

impl MemWrite for FlatMemory {
    fn write_bytes(&mut self, addr: u64, bytes: &[u8]) -> Result<(), Trap> {
        FlatMemory::write_bytes(self, addr, bytes)
    }
}

const PAGE_SHIFT: u32 = 12;
const PAGE_BYTES: usize = 1 << PAGE_SHIFT;

/// A sparse, demand-paged RAM: address space is reserved up front, but a
/// 4 KiB page is only allocated (zeroed) on its first store.
///
/// [`FlatMemory`] zeroes its whole range at construction, which makes it
/// the wrong backing for short-lived address spaces: every guest `exec`
/// would pay a multi-megabyte memset for a program that touches a few
/// pages. `PagedMemory` makes construction O(pages-table) and each launch
/// pays only for the pages it actually dirties; unallocated pages read as
/// zero, exactly like the flat backing.
///
/// ```rust
/// use marshal_isa::mem::{Bus, PagedMemory};
/// let mut m = PagedMemory::new(8 << 20);
/// assert_eq!(m.load(0x10_0000, 8).unwrap(), 0); // untouched reads zero
/// m.store(0x10_0000, 8, 0xdead_beef).unwrap();
/// assert_eq!(m.load(0x10_0000, 8).unwrap(), 0xdead_beef);
/// ```
#[derive(Debug, Clone)]
pub struct PagedMemory {
    base: u64,
    size: usize,
    pages: Vec<Option<Box<[u8; PAGE_BYTES]>>>,
}

impl PagedMemory {
    /// Creates a memory of `size` bytes based at address 0.
    pub fn new(size: usize) -> PagedMemory {
        PagedMemory::with_base(0, size)
    }

    /// Creates a memory of `size` bytes based at `base`.
    pub fn with_base(base: u64, size: usize) -> PagedMemory {
        let mut pages = Vec::new();
        pages.resize_with(size.div_ceil(PAGE_BYTES), || None);
        PagedMemory { base, size, pages }
    }

    /// The base address of the mapped range.
    pub fn base(&self) -> u64 {
        self.base
    }

    /// The size of the mapped range in bytes.
    pub fn size(&self) -> usize {
        self.size
    }

    /// The number of pages actually allocated so far.
    pub fn resident_pages(&self) -> usize {
        self.pages.iter().filter(|p| p.is_some()).count()
    }

    /// Whether `[addr, addr+len)` lies entirely within this memory.
    #[inline]
    pub fn contains(&self, addr: u64, len: usize) -> bool {
        addr >= self.base && addr.saturating_add(len as u64) <= self.base + self.size as u64
    }

    /// Reads `len` bytes starting at `addr`; unallocated pages read zero.
    ///
    /// # Errors
    ///
    /// Returns [`Trap::LoadFault`] if the range is not fully mapped.
    pub fn read_bytes(&self, addr: u64, len: usize) -> Result<Vec<u8>, Trap> {
        if !self.contains(addr, len) {
            return Err(Trap::LoadFault { addr });
        }
        let mut out = vec![0u8; len];
        let mut off = (addr - self.base) as usize;
        let mut done = 0;
        while done < len {
            let page = off >> PAGE_SHIFT;
            let in_page = off & (PAGE_BYTES - 1);
            let chunk = (PAGE_BYTES - in_page).min(len - done);
            if let Some(p) = &self.pages[page] {
                out[done..done + chunk].copy_from_slice(&p[in_page..in_page + chunk]);
            }
            off += chunk;
            done += chunk;
        }
        Ok(out)
    }

    #[inline]
    fn page_mut(&mut self, index: usize) -> &mut [u8; PAGE_BYTES] {
        self.pages[index].get_or_insert_with(|| Box::new([0u8; PAGE_BYTES]))
    }
}

impl MemWrite for PagedMemory {
    fn write_bytes(&mut self, addr: u64, bytes: &[u8]) -> Result<(), Trap> {
        if !self.contains(addr, bytes.len()) {
            return Err(Trap::StoreFault { addr });
        }
        let mut off = (addr - self.base) as usize;
        let mut done = 0;
        while done < bytes.len() {
            let page = off >> PAGE_SHIFT;
            let in_page = off & (PAGE_BYTES - 1);
            let chunk = (PAGE_BYTES - in_page).min(bytes.len() - done);
            self.page_mut(page)[in_page..in_page + chunk]
                .copy_from_slice(&bytes[done..done + chunk]);
            off += chunk;
            done += chunk;
        }
        Ok(())
    }
}

impl Bus for PagedMemory {
    #[inline]
    fn load(&mut self, addr: u64, size: usize) -> Result<u64, Trap> {
        if !self.contains(addr, size) {
            return Err(Trap::LoadFault { addr });
        }
        let off = (addr - self.base) as usize;
        let in_page = off & (PAGE_BYTES - 1);
        if in_page + size <= PAGE_BYTES {
            // Fast path: a naturally-aligned access never crosses a page.
            Ok(match &self.pages[off >> PAGE_SHIFT] {
                Some(p) => load_le(&p[in_page..in_page + size]),
                None => 0,
            })
        } else {
            let mut v = 0u64;
            for (i, b) in self.read_bytes(addr, size)?.iter().enumerate() {
                v |= (*b as u64) << (8 * i);
            }
            Ok(v)
        }
    }

    #[inline]
    fn store(&mut self, addr: u64, size: usize, value: u64) -> Result<(), Trap> {
        if !self.contains(addr, size) {
            return Err(Trap::StoreFault { addr });
        }
        let off = (addr - self.base) as usize;
        let in_page = off & (PAGE_BYTES - 1);
        if in_page + size <= PAGE_BYTES {
            self.page_mut(off >> PAGE_SHIFT)[in_page..in_page + size]
                .copy_from_slice(&value.to_le_bytes()[..size]);
            Ok(())
        } else {
            let bytes: Vec<u8> = (0..size).map(|i| (value >> (8 * i)) as u8).collect();
            self.write_bytes(addr, &bytes)
        }
    }
}

/// Assembles a little-endian value from `bytes` (1, 2, 4 or 8 of them)
/// with one whole-word read.
#[inline]
fn load_le(bytes: &[u8]) -> u64 {
    match *bytes {
        [b] => b as u64,
        [b0, b1] => u16::from_le_bytes([b0, b1]) as u64,
        [b0, b1, b2, b3] => u32::from_le_bytes([b0, b1, b2, b3]) as u64,
        _ => {
            let mut word = [0u8; 8];
            word[..bytes.len()].copy_from_slice(bytes);
            u64::from_le_bytes(word)
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn little_endian_roundtrip() {
        let mut m = FlatMemory::new(64);
        m.store(0, 4, 0x0403_0201).unwrap();
        assert_eq!(m.load(0, 1).unwrap(), 0x01);
        assert_eq!(m.load(1, 1).unwrap(), 0x02);
        assert_eq!(m.load(0, 2).unwrap(), 0x0201);
        assert_eq!(m.load(0, 8).unwrap(), 0x0403_0201);
    }

    #[test]
    fn based_memory_faults_outside_range() {
        let mut m = FlatMemory::with_base(0x8000_0000, 1024);
        assert!(m.load(0, 4).is_err());
        assert!(m.store(0x8000_0000 + 1021, 4, 0).is_err());
        assert!(m.store(0x8000_0000, 8, 42).is_ok());
        assert_eq!(m.load(0x8000_0000, 8).unwrap(), 42);
    }

    #[test]
    fn cstr_read() {
        let mut m = FlatMemory::new(64);
        m.write_bytes(8, b"hello\0world").unwrap();
        assert_eq!(m.read_cstr(8, 64).unwrap(), "hello");
    }

    #[test]
    fn fetch_converts_fault_kind() {
        let mut m = FlatMemory::new(16);
        match m.fetch(1024) {
            Err(Trap::FetchFault { addr }) => assert_eq!(addr, 1024),
            other => panic!("unexpected {other:?}"),
        }
    }

    #[test]
    fn paged_matches_flat_for_every_access_shape() {
        let mut flat = FlatMemory::with_base(0x1000, 3 * PAGE_BYTES);
        let mut paged = PagedMemory::with_base(0x1000, 3 * PAGE_BYTES);
        // Writes at page starts, ends, and straddling both boundaries.
        let probes: &[(u64, usize, u64)] = &[
            (0x1000, 8, 0x0102_0304_0506_0708),
            (0x1000 + PAGE_BYTES as u64 - 4, 8, 0xdead_beef_cafe_f00d), // page straddle
            (0x1000 + 2 * PAGE_BYTES as u64 - 1, 2, 0xbeef),            // page straddle
            (0x1000 + PAGE_BYTES as u64, 1, 0xff),
        ];
        for &(addr, size, value) in probes {
            flat.store(addr, size, value).unwrap();
            paged.store(addr, size, value).unwrap();
        }
        for &(addr, size, _) in probes {
            assert_eq!(
                flat.load(addr, size).unwrap(),
                paged.load(addr, size).unwrap()
            );
        }
        // Untouched memory reads zero on both.
        assert_eq!(paged.load(0x1000 + 64, 8).unwrap(), 0);
        assert_eq!(flat.load(0x1000 + 64, 8).unwrap(), 0);
        // Out-of-range faults agree.
        assert!(paged.load(0x0, 4).is_err());
        assert!(paged
            .store(0x1000 + 3 * PAGE_BYTES as u64 - 2, 4, 0)
            .is_err());
    }

    #[test]
    fn paged_is_demand_allocated() {
        let mut m = PagedMemory::new(8 << 20);
        assert_eq!(m.resident_pages(), 0);
        m.store(0, 8, 1).unwrap();
        m.store((4 << 20) + 7, 1, 2).unwrap();
        assert_eq!(m.resident_pages(), 2);
        // Reads never allocate.
        assert_eq!(m.load(1 << 20, 8).unwrap(), 0);
        assert_eq!(m.resident_pages(), 2);
    }

    #[test]
    fn paged_bulk_writes_cross_pages() {
        let mut m = PagedMemory::new(4 * PAGE_BYTES);
        let data: Vec<u8> = (0..(PAGE_BYTES + 512)).map(|i| (i % 251) as u8).collect();
        m.write_bytes(PAGE_BYTES as u64 - 100, &data).unwrap();
        assert_eq!(
            m.read_bytes(PAGE_BYTES as u64 - 100, data.len()).unwrap(),
            data
        );
        assert!(m.write_bytes(4 * PAGE_BYTES as u64 - 1, &[0, 0]).is_err());
        assert!(m.read_bytes(4 * PAGE_BYTES as u64, 1).is_err());
    }
}
