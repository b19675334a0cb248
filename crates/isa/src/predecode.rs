//! Predecoded instruction cache for the interpreter hot loop.
//!
//! [`Cpu::step`] pays a fetch and a full [`decode`](crate::decode::decode) for every retired
//! instruction even though the vast majority of fetches hit the same few
//! code pages over and over. [`DecodeCache`] decodes each physical page
//! once into a dense table of decoded instructions and dispatches straight
//! into [`Cpu::exec_decoded`], so the steady-state cost per instruction is
//! one page lookup plus execution.
//!
//! Correctness contract: cached dispatch must be observationally identical
//! to [`Cpu::step`], including the exact trap for every fault class.
//!
//! - Decoded slots execute through the same [`Cpu::exec_decoded`] body as
//!   the uncached path, so the [`crate::interp::Retired`] stream — which the
//!   cycle-exact timing model and cosim consume — is bit-for-bit unchanged.
//! - Words that fail to decode are cached as `Slot::Illegal` and raise
//!   [`Trap::IllegalInstruction`] only when the PC actually reaches them,
//!   with the same `{word, pc}` payload as an uncached step.
//! - Page bytes that cannot be fetched during fill are cached as
//!   `Slot::Unmapped`; execution there falls back to the uncached step so
//!   the authentic [`Trap::FetchFault`] (or a post-fill mapping change) is
//!   observed.
//! - A misaligned PC bypasses the cache entirely (slots are word-indexed).
//!
//! The embedder owns invalidation: any write to guest memory must call
//! [`DecodeCache::invalidate`] (or [`DecodeCache::invalidate_range`]) for
//! the touched addresses so self-modifying code refetches through a fresh
//! decode. Filling a page performs only [`Bus`] loads, which are side-effect
//! free on every bus the simulators use (RAM and read-as-zero MMIO).
//!
//! Invalidation is range-bounded: the cache keeps the lowest and highest
//! page base it has filled since it was last empty, and every cached page
//! lies inside that range. [`DecodeCache::invalidate`] returns at once for
//! an address outside it, so the stack and data stores that dominate real
//! programs cost two compares instead of a scan of the page list. Dropping
//! pages never shrinks the range (it stays a superset of the cached pages,
//! which is all correctness needs); [`DecodeCache::clear`] empties it.

use crate::inst::Inst;
use crate::interp::{Cpu, StepOutcome, Trap};
use crate::mem::Bus;

/// Cache granule: decoded entries are kept per naturally-aligned page.
pub const PAGE_SIZE: u64 = 4096;

/// 32-bit instruction slots per page.
const SLOTS_PER_PAGE: usize = (PAGE_SIZE / 4) as usize;

/// Pages held before the cache resets itself. Far above what any MEXE
/// binary needs; purely a bound on pathological self-modifying workloads.
const MAX_PAGES: usize = 64;

/// One predecoded instruction slot.
#[derive(Debug, Clone, Copy)]
enum Slot {
    /// The word decoded cleanly; execute it directly.
    Decoded(Inst),
    /// The word is not a valid encoding; trap if the PC lands here.
    Illegal(u32),
    /// The word could not be fetched at fill time; fall back to an
    /// uncached step so the bus reports the authoritative outcome.
    Unmapped,
}

/// A fully-predecoded page of guest memory.
#[derive(Debug)]
struct Page {
    base: u64,
    slots: Vec<Slot>,
}

/// Per-hart predecoded instruction cache.
///
/// Lives outside [`Cpu`] (which stays pure architectural state, `Clone` +
/// `PartialEq`); the embedder threads it through its step loop.
#[derive(Debug)]
pub struct DecodeCache {
    pages: Vec<Page>,
    /// Index of the most recently used page: straight-line code stays on
    /// this fast path and never searches.
    last: usize,
    /// Lowest and highest page base filled since the cache was last empty
    /// (`lo > hi` when empty): every cached page lies in `lo..=hi`.
    lo: u64,
    hi: u64,
    hits: u64,
    fills: u64,
}

impl Default for DecodeCache {
    fn default() -> DecodeCache {
        DecodeCache {
            pages: Vec::new(),
            last: 0,
            lo: u64::MAX,
            hi: 0,
            hits: 0,
            fills: 0,
        }
    }
}

impl DecodeCache {
    /// Creates an empty cache.
    pub fn new() -> DecodeCache {
        DecodeCache::default()
    }

    /// Executes one instruction through the cache.
    ///
    /// Semantically identical to `cpu.step(bus)`; see the module docs for
    /// the case analysis.
    ///
    /// # Errors
    ///
    /// Returns exactly the [`Trap`] an uncached [`Cpu::step`] would.
    #[inline]
    pub fn step<B: Bus>(&mut self, cpu: &mut Cpu, bus: &mut B) -> Result<StepOutcome, Trap> {
        let pc = cpu.pc;
        if pc & 3 != 0 {
            // Word-indexed slots cannot represent a misaligned PC; the
            // uncached path reports whatever the bus does.
            return cpu.step(bus);
        }
        match self.lookup(pc, bus) {
            Slot::Decoded(inst) => cpu.exec_decoded(bus, inst),
            Slot::Illegal(word) => Err(Trap::IllegalInstruction { word, pc }),
            Slot::Unmapped => cpu.step(bus),
        }
    }

    /// Drops the cached page covering `addr`, if any.
    ///
    /// Must be called for every guest-memory write; naturally-aligned
    /// accesses of at most 8 bytes cannot cross a page, so a single page
    /// drop covers any store the interpreter can issue. O(1) for an
    /// address outside the cached page range (see the module docs).
    #[inline]
    pub fn invalidate(&mut self, addr: u64) {
        let base = addr & !(PAGE_SIZE - 1);
        if base < self.lo || base > self.hi {
            return;
        }
        if let Some(i) = self.pages.iter().position(|p| p.base == base) {
            self.pages.swap_remove(i);
            self.last = 0;
        }
    }

    /// Drops every cached page overlapping `[addr, addr + len)`.
    pub fn invalidate_range(&mut self, addr: u64, len: usize) {
        if len == 0 {
            return;
        }
        let first = addr & !(PAGE_SIZE - 1);
        let last = addr.saturating_add(len as u64 - 1) & !(PAGE_SIZE - 1);
        self.pages.retain(|p| p.base < first || p.base > last);
        self.last = 0;
    }

    /// Drops every cached page (e.g. after remapping bus regions).
    pub fn clear(&mut self) {
        self.pages.clear();
        self.last = 0;
        self.lo = u64::MAX;
        self.hi = 0;
    }

    /// `(cache hits, page fills)` since creation, for diagnostics.
    pub fn stats(&self) -> (u64, u64) {
        (self.hits, self.fills)
    }

    #[inline]
    fn lookup<B: Bus>(&mut self, pc: u64, bus: &mut B) -> Slot {
        let base = pc & !(PAGE_SIZE - 1);
        let slot_index = ((pc - base) / 4) as usize;
        if let Some(p) = self.pages.get(self.last) {
            if p.base == base {
                self.hits += 1;
                return p.slots[slot_index];
            }
        }
        if let Some(i) = self.pages.iter().position(|p| p.base == base) {
            self.last = i;
            self.hits += 1;
            return self.pages[i].slots[slot_index];
        }
        if self.pages.len() >= MAX_PAGES {
            self.clear();
        }
        self.fills += 1;
        self.lo = self.lo.min(base);
        self.hi = self.hi.max(base);
        let page = fill_page(base, bus);
        let slot = page.slots[slot_index];
        self.last = self.pages.len();
        self.pages.push(page);
        slot
    }
}

/// Decodes every word of the page at `base` in one pass.
fn fill_page<B: Bus>(base: u64, bus: &mut B) -> Page {
    let mut slots = Vec::with_capacity(SLOTS_PER_PAGE);
    for i in 0..SLOTS_PER_PAGE {
        let addr = base + 4 * i as u64;
        let slot = match bus.fetch(addr) {
            Ok(word) => match crate::decode::decode(word) {
                Ok(inst) => Slot::Decoded(inst),
                Err(e) => Slot::Illegal(e.word),
            },
            Err(_) => Slot::Unmapped,
        };
        slots.push(slot);
    }
    Page { base, slots }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::encode::encode;
    use crate::inst::{AluImmOp, AluOp, BranchCond, MemWidth, Reg};
    use crate::mem::FlatMemory;

    fn program(insts: &[Inst]) -> FlatMemory {
        let mut m = FlatMemory::new(1 << 16);
        for (i, inst) in insts.iter().enumerate() {
            let w = encode(inst).unwrap();
            m.store(4 * i as u64, 4, w as u64).unwrap();
        }
        m
    }

    /// Runs the same program cached and uncached; every outcome, trap, and
    /// the final architectural state must match exactly.
    fn lockstep(mem: &FlatMemory, steps: usize) {
        let mut cold_mem = mem.clone();
        let mut hot_mem = mem.clone();
        let mut cold = Cpu::new(0);
        let mut hot = Cpu::new(0);
        let mut cache = DecodeCache::new();
        for _ in 0..steps {
            let a = cold.step(&mut cold_mem);
            let b = cache.step(&mut hot, &mut hot_mem);
            assert_eq!(a, b);
            assert_eq!(cold, hot);
            if let Ok(StepOutcome::Retired(r)) = a {
                if let crate::interp::RetireKind::Store { addr } = r.kind {
                    cache.invalidate(addr);
                }
            }
            if a.is_err() || matches!(a, Ok(StepOutcome::Ecall | StepOutcome::Ebreak)) {
                break;
            }
        }
        assert_eq!(cold_mem, hot_mem);
    }

    #[test]
    fn cached_loop_matches_uncached() {
        let mem = program(&[
            Inst::AluImm {
                op: AluImmOp::Addi,
                rd: Reg::T0,
                rs1: Reg::ZERO,
                imm: 10,
            },
            Inst::AluImm {
                op: AluImmOp::Addi,
                rd: Reg::A0,
                rs1: Reg::ZERO,
                imm: 0,
            },
            Inst::Alu {
                op: AluOp::Add,
                rd: Reg::A0,
                rs1: Reg::A0,
                rs2: Reg::T0,
            },
            Inst::AluImm {
                op: AluImmOp::Addi,
                rd: Reg::T0,
                rs1: Reg::T0,
                imm: -1,
            },
            Inst::Branch {
                cond: BranchCond::Ne,
                rs1: Reg::T0,
                rs2: Reg::ZERO,
                offset: -8,
            },
            Inst::Ecall,
        ]);
        lockstep(&mem, 10_000);
    }

    #[test]
    fn illegal_word_traps_identically() {
        let mut mem = FlatMemory::new(1 << 12);
        mem.store(0, 4, 0xffff_ffff).unwrap();
        lockstep(&mem, 4);
    }

    #[test]
    fn fetch_fault_matches_uncached() {
        // Jump straight past the end of memory: the cached path must
        // surface the identical FetchFault.
        let mem = program(&[Inst::Jal {
            rd: Reg::ZERO,
            offset: 0x2_0000,
        }]);
        lockstep(&mem, 4);
    }

    #[test]
    fn self_modifying_store_is_observed_after_invalidate() {
        // Overwrite the instruction at 0x10 (an ebreak) with an ecall, then
        // fall through into it. With per-store invalidation the cached run
        // must execute the *new* word.
        let ecall_word = encode(&Inst::Ecall).unwrap() as u64;
        let mem = program(&[
            // t0 = ecall encoding (it fits in 12 bits: 0x73)
            Inst::AluImm {
                op: AluImmOp::Addi,
                rd: Reg::T0,
                rs1: Reg::ZERO,
                imm: ecall_word as i64,
            },
            Inst::Store {
                width: MemWidth::W,
                rs2: Reg::T0,
                rs1: Reg::ZERO,
                offset: 0x10,
            },
            Inst::Fence,
            Inst::Fence,
            Inst::Ebreak, // at 0x10: patched to ecall before execution
        ]);
        assert!(ecall_word <= 0x7ff);
        lockstep(&mem, 16);
    }

    #[test]
    fn invalidate_range_drops_overlapping_pages() {
        let mut mem = program(&[Inst::Fence, Inst::Ecall]);
        let mut cpu = Cpu::new(0);
        let mut cache = DecodeCache::new();
        cache.step(&mut cpu, &mut mem).unwrap();
        assert_eq!(cache.stats().1, 1);
        cache.invalidate_range(0, PAGE_SIZE as usize * 2);
        cache.step(&mut cpu, &mut mem).unwrap();
        assert_eq!(cache.stats().1, 2, "range invalidation must refill");
    }

    #[test]
    fn invalidation_is_bounded_by_the_cached_code_range() {
        let ecall_word = encode(&Inst::Ecall).unwrap() as i64;
        let sw = |rs2, rs1, offset| Inst::Store {
            width: MemWidth::W,
            rs2,
            rs1,
            offset,
        };
        let mut mem = program(&[
            Inst::AluImm {
                op: AluImmOp::Addi,
                rd: Reg::T0,
                rs1: Reg::ZERO,
                imm: ecall_word,
            },
            Inst::Lui {
                rd: Reg::T1,
                imm: 0x1000,
            },
            Inst::Lui {
                rd: Reg::T2,
                imm: 0x2000,
            },
            sw(Reg::T0, Reg::T2, 0),        // data store into page 2
            sw(Reg::T0, Reg::T1, 0),        // patch page 1 before it is cached
            sw(Reg::ZERO, Reg::ZERO, 0x40), // store into the cached code page
            Inst::Jalr {
                rd: Reg::ZERO,
                rs1: Reg::T1,
                offset: 0,
            },
        ]);
        let mut cpu = Cpu::new(0);
        let mut cache = DecodeCache::new();
        let mut step = |cache: &mut DecodeCache| {
            let outcome = cache.step(&mut cpu, &mut mem);
            if let Ok(StepOutcome::Retired(r)) = outcome {
                if let crate::interp::RetireKind::Store { addr } = r.kind {
                    cache.invalidate(addr);
                }
            }
            outcome
        };
        for _ in 0..5 {
            step(&mut cache).unwrap();
        }
        assert_eq!(
            cache.stats().1,
            1,
            "stores outside the cached code range keep page 0"
        );
        step(&mut cache).unwrap(); // the store into page 0
        step(&mut cache).unwrap(); // the jalr
        assert_eq!(cache.stats().1, 2, "a store into a code page refills it");
        assert_eq!(
            step(&mut cache),
            Ok(StepOutcome::Ecall),
            "the patched word runs"
        );
        assert_eq!(cache.stats().1, 3);
        // The range grew to cover page 1: a store there drops it too.
        cache.invalidate(0x1000);
        assert!(
            step(&mut cache).is_err(),
            "page 1 holds no code past 0x1000"
        );
        assert_eq!(
            cache.stats().1,
            4,
            "a store into the highest code page refills it"
        );
    }

    #[test]
    fn misaligned_pc_falls_back() {
        let mut mem = program(&[Inst::Jalr {
            rd: Reg::ZERO,
            rs1: Reg::ZERO,
            offset: 0x102, // jalr clears only bit 0; pc 0x102 stays misaligned
        }]);
        let mut cold = Cpu::new(0);
        let mut hot = Cpu::new(0);
        let mut cold_mem = mem.clone();
        let mut cache = DecodeCache::new();
        for _ in 0..2 {
            let a = cold.step(&mut cold_mem);
            let b = cache.step(&mut hot, &mut mem);
            assert_eq!(a, b);
            assert_eq!(cold, hot);
        }
    }
}
