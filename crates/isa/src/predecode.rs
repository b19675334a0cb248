//! Predecoded instruction cache for the interpreter hot loop.
//!
//! [`Cpu::step`] pays a fetch and a full [`decode`](crate::decode::decode) for every retired
//! instruction even though the vast majority of fetches hit the same few
//! code pages over and over. [`DecodeCache`] decodes each physical page
//! once into a dense table of decoded instructions, and
//! [`DecodeCache::run_block`] executes a run of them straight through
//! [`Cpu::exec_decoded`]: one page lookup per block, then one slot read
//! and execution per instruction.
//!
//! Correctness contract: a block must be observationally identical to the
//! same number of [`Cpu::step`] calls, including the exact trap for every
//! fault class.
//!
//! - Decoded slots execute through the same [`Cpu::exec_decoded`] body as
//!   the uncached path, so the [`crate::interp::Retired`] stream — which the
//!   cycle-exact timing model and cosim consume — is bit-for-bit unchanged.
//! - Words that fail to decode are cached as `Slot::Illegal` and raise
//!   [`Trap::IllegalInstruction`] only when the PC actually reaches them,
//!   with the same `{word, pc}` payload as an uncached step.
//! - Page bytes that cannot be fetched during fill are cached as
//!   `Slot::Unmapped`; execution there falls back to one uncached step so
//!   the authentic [`Trap::FetchFault`] (or a post-fill mapping change) is
//!   observed.
//! - A misaligned PC bypasses the cache entirely (slots are word-indexed)
//!   and also takes one uncached step.
//! - A `cycle`/`time` CSR read is cached as `Slot::Counter`: right before it
//!   executes, the block asks its [`BlockSink`] for the clock the read must
//!   observe. Only these reads (and the uncached fallback, whose word is
//!   not known in advance) ask, so a timing model is consulted exactly
//!   where the guest can see it.
//!
//! Invalidation: a store the block retires into the cached code range
//! drops the page it touched and ends the block, so self-modifying code
//! refetches through a fresh decode — including a store into the page
//! that is executing. Writes made behind the interpreter's back (syscalls
//! filling guest buffers) are the embedder's to report through
//! [`DecodeCache::invalidate_range`]. Filling a page performs only [`Bus`]
//! loads, which are side-effect free on every bus the simulators use (RAM
//! and read-as-zero MMIO).
//!
//! Invalidation is range-bounded: the cache keeps the lowest and highest
//! page base it has filled since it was last empty, and every cached page
//! lies inside that range. A store outside it — the stack and data stores
//! that dominate real programs — costs two compares instead of a scan of
//! the page list. Dropping pages never shrinks the range (it stays a
//! superset of the cached pages, which is all correctness needs);
//! [`DecodeCache::clear`] empties it.

use crate::inst::{csr, Inst};
use crate::interp::{Cpu, RetireKind, Retired, StepOutcome, Trap};
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
    /// A `cycle`/`time` CSR access: sync the clock, then execute it.
    Counter(Inst),
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
    slots: Box<[Slot; SLOTS_PER_PAGE]>,
}

/// Receives what a block executes: the embedder's timing hook.
///
/// `B` is the bus the block runs on, handed back with every retired
/// record so the sink can classify its address.
pub trait BlockSink<B: ?Sized> {
    /// The clock a `cycle`/`time` CSR read is about to observe, written to
    /// [`Cpu::cycle`] first; `None` keeps the CPU's own count. Called right
    /// before each such read and before each uncached fallback step.
    fn clock(&mut self) -> Option<u64>;

    /// One retired instruction, in program order.
    fn retire(&mut self, r: &Retired, bus: &B);
}

/// Why [`DecodeCache::run_block`] stopped.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum BlockEnd {
    /// Everything retired normally; run the next block. The PC left the
    /// page, the limit was reached, a store hit the cached code range, or
    /// an uncached fallback step ran.
    Next,
    /// The last instruction was an `ecall` (PC already advanced past it).
    Ecall,
    /// The last instruction was an `ebreak` (PC already advanced past it).
    Ebreak,
}

/// Per-hart predecoded instruction cache.
///
/// Lives outside [`Cpu`] (which stays pure architectural state, `Clone` +
/// `PartialEq`); the embedder threads it through its step loop.
#[derive(Debug)]
pub struct DecodeCache {
    pages: Vec<Page>,
    /// Index of the most recently used page: a block that stays on it
    /// never searches.
    last: usize,
    /// Lowest and highest page base filled since the cache was last empty
    /// (`lo > hi` when empty): every cached page lies in `lo..=hi`.
    lo: u64,
    hi: u64,
    reads: u64,
    fills: u64,
}

impl Default for DecodeCache {
    fn default() -> DecodeCache {
        DecodeCache {
            pages: Vec::new(),
            last: 0,
            lo: u64::MAX,
            hi: 0,
            reads: 0,
            fills: 0,
        }
    }
}

impl DecodeCache {
    /// Creates an empty cache.
    pub fn new() -> DecodeCache {
        DecodeCache::default()
    }

    /// Executes instructions from the page holding the PC until one of:
    ///
    /// - the PC leaves the page (or becomes misaligned);
    /// - an `ecall`, `ebreak` or trap;
    /// - a retired store lands in the cached code range (the touched page
    ///   is dropped first);
    /// - `limit` instructions have executed.
    ///
    /// At least one instruction executes (for any `limit > 0`). A
    /// misaligned PC or an unmapped slot takes one uncached [`Cpu::step`]
    /// and ends the block. Every retired instruction is reported to
    /// `sink`; `cycle`/`time` CSR reads observe [`BlockSink::clock`].
    /// The run is identical to the same number of [`Cpu::step`] calls; see
    /// the module docs for the case analysis.
    ///
    /// # Errors
    ///
    /// Returns exactly the [`Trap`] an uncached [`Cpu::step`] would, with
    /// the CPU left at the faulting instruction.
    #[inline]
    pub fn run_block<B: Bus, S: BlockSink<B> + ?Sized>(
        &mut self,
        cpu: &mut Cpu,
        bus: &mut B,
        limit: u64,
        sink: &mut S,
    ) -> Result<BlockEnd, Trap> {
        if limit == 0 {
            return Ok(BlockEnd::Next);
        }
        if cpu.pc & 3 != 0 {
            // Word-indexed slots cannot represent a misaligned PC; the
            // uncached path reports whatever the bus does.
            return self.fallback(cpu, bus, sink);
        }
        let base = cpu.pc & !(PAGE_SIZE - 1);
        let page = self.page(base, bus);
        let mut executed = 0;
        loop {
            let offset = cpu.pc.wrapping_sub(base);
            if executed == limit || offset & !(PAGE_SIZE - 4) != 0 {
                return Ok(BlockEnd::Next);
            }
            // In range already; the `%` lets the compiler see it.
            let slot = self.pages[page].slots[(offset / 4) as usize % SLOTS_PER_PAGE];
            self.reads += 1;
            executed += 1;
            let outcome = match slot {
                Slot::Decoded(inst) => cpu.exec_decoded(bus, inst)?,
                Slot::Counter(inst) => {
                    if let Some(clock) = sink.clock() {
                        cpu.cycle = clock;
                    }
                    cpu.exec_decoded(bus, inst)?
                }
                Slot::Illegal(word) => return Err(Trap::IllegalInstruction { word, pc: cpu.pc }),
                Slot::Unmapped => return self.fallback(cpu, bus, sink),
            };
            if let Some(end) = self.retired(outcome, bus, sink) {
                return Ok(end);
            }
        }
    }

    /// One uncached step for a PC the cache cannot serve. Its word is not
    /// known in advance, so the clock is synced as for a counter read.
    #[cold]
    #[inline(never)]
    fn fallback<B: Bus, S: BlockSink<B> + ?Sized>(
        &mut self,
        cpu: &mut Cpu,
        bus: &mut B,
        sink: &mut S,
    ) -> Result<BlockEnd, Trap> {
        if let Some(clock) = sink.clock() {
            cpu.cycle = clock;
        }
        let outcome = cpu.step(bus)?;
        Ok(self.retired(outcome, bus, sink).unwrap_or(BlockEnd::Next))
    }

    /// Reports one executed instruction to `sink`; returns why the block
    /// ends after it, if it does.
    #[inline(always)]
    fn retired<B: Bus, S: BlockSink<B> + ?Sized>(
        &mut self,
        outcome: StepOutcome,
        bus: &B,
        sink: &mut S,
    ) -> Option<BlockEnd> {
        match outcome {
            StepOutcome::Retired(r) => {
                sink.retire(&r, bus);
                match r.kind {
                    // A naturally-aligned store touches one page at most.
                    RetireKind::Store { addr } if self.covers(addr) => {
                        self.invalidate(addr);
                        Some(BlockEnd::Next)
                    }
                    _ => None,
                }
            }
            StepOutcome::Ecall => Some(BlockEnd::Ecall),
            StepOutcome::Ebreak => Some(BlockEnd::Ebreak),
        }
    }

    /// Whether `addr` lies in the cached code range.
    #[inline]
    fn covers(&self, addr: u64) -> bool {
        let base = addr & !(PAGE_SIZE - 1);
        self.lo <= base && base <= self.hi
    }

    /// Drops the cached page covering `addr`, if any. O(1) for an address
    /// outside the cached page range (see the module docs).
    #[inline]
    fn invalidate(&mut self, addr: u64) {
        if !self.covers(addr) {
            return;
        }
        let base = addr & !(PAGE_SIZE - 1);
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

    /// `(cache hits, page fills)` since creation, for diagnostics. Every
    /// fill is followed by one slot read, which is not a hit; every other
    /// slot read is.
    pub fn stats(&self) -> (u64, u64) {
        (self.reads - self.fills, self.fills)
    }

    /// The index of the cached page at `base`, filling it on a miss.
    #[inline]
    fn page<B: Bus>(&mut self, base: u64, bus: &mut B) -> usize {
        if self.pages.get(self.last).is_some_and(|p| p.base == base) {
            return self.last;
        }
        if let Some(i) = self.pages.iter().position(|p| p.base == base) {
            self.last = i;
            return i;
        }
        if self.pages.len() >= MAX_PAGES {
            self.clear();
        }
        self.fills += 1;
        self.lo = self.lo.min(base);
        self.hi = self.hi.max(base);
        self.last = self.pages.len();
        self.pages.push(fill_page(base, bus));
        self.last
    }
}

/// Decodes every word of the page at `base` in one pass.
fn fill_page<B: Bus>(base: u64, bus: &mut B) -> Page {
    let slots = std::array::from_fn(|i| match bus.fetch(base + 4 * i as u64) {
        Ok(word) => match crate::decode::decode(word) {
            Ok(inst) if reads_counter(&inst) => Slot::Counter(inst),
            Ok(inst) => Slot::Decoded(inst),
            Err(e) => Slot::Illegal(e.word),
        },
        Err(_) => Slot::Unmapped,
    });
    Page {
        base,
        slots: Box::new(slots),
    }
}

/// Whether `inst` accesses a CSR whose value is the clock.
fn reads_counter(inst: &Inst) -> bool {
    match *inst {
        Inst::Csr { csr: num, .. } | Inst::CsrImm { csr: num, .. } => {
            num == csr::CYCLE || num == csr::TIME
        }
        _ => false,
    }
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

    /// Records every retired instruction and serves a clock that counts
    /// them, so counter reads see a value the CPU's own count does not.
    #[derive(Default)]
    struct Record {
        retired: Vec<Retired>,
        clocks: u64,
    }

    impl<B> BlockSink<B> for Record {
        fn clock(&mut self) -> Option<u64> {
            self.clocks += 1;
            Some(1000 + 10 * self.retired.len() as u64)
        }
        fn retire(&mut self, r: &Retired, _bus: &B) {
            self.retired.push(*r);
        }
    }

    /// How a run ended: the stopping outcome, if any.
    type End = Option<Result<StepOutcome, Trap>>;

    /// Runs `steps` instructions at most with [`Cpu::step`], syncing the
    /// clock before every step as the reference for [`Record`].
    fn reference(mem: &mut FlatMemory, steps: u64) -> (Cpu, Vec<Retired>, End) {
        let mut cpu = Cpu::new(0);
        let mut retired = Vec::new();
        for _ in 0..steps {
            cpu.cycle = 1000 + 10 * retired.len() as u64;
            match cpu.step(mem) {
                Ok(StepOutcome::Retired(r)) => retired.push(r),
                other => return (cpu, retired, Some(other)),
            }
        }
        (cpu, retired, None)
    }

    /// Runs the same program in blocks of at most `limit` and one step at
    /// a time; the retired stream, the stopping outcome, the registers and
    /// memory must all match.
    fn lockstep(mem: &FlatMemory, steps: u64, limit: u64) {
        let mut cold_mem = mem.clone();
        let (mut cold, cold_retired, cold_end) = reference(&mut cold_mem, steps);
        let mut hot_mem = mem.clone();
        let mut hot = Cpu::new(0);
        let mut cache = DecodeCache::new();
        let mut sink = Record::default();
        let mut hot_end = None;
        while hot.instret < steps {
            let left = (steps - hot.instret).min(limit);
            match cache.run_block(&mut hot, &mut hot_mem, left, &mut sink) {
                Ok(BlockEnd::Next) => {}
                Ok(BlockEnd::Ecall) => hot_end = Some(Ok(StepOutcome::Ecall)),
                Ok(BlockEnd::Ebreak) => hot_end = Some(Ok(StepOutcome::Ebreak)),
                Err(trap) => hot_end = Some(Err(trap)),
            }
            if hot_end.is_some() {
                break;
            }
        }
        assert_eq!(cold_retired, sink.retired);
        assert_eq!(cold_end, hot_end);
        // The clock is only synced where the guest reads it.
        cold.cycle = hot.cycle;
        assert_eq!(cold, hot);
        assert_eq!(cold_mem, hot_mem);
    }

    fn addi(rd: Reg, rs1: Reg, imm: i64) -> Inst {
        Inst::AluImm {
            op: AluImmOp::Addi,
            rd,
            rs1,
            imm,
        }
    }

    fn sw(rs2: Reg, rs1: Reg, offset: i64) -> Inst {
        Inst::Store {
            width: MemWidth::W,
            rs2,
            rs1,
            offset,
        }
    }

    fn rdcycle(rd: Reg) -> Inst {
        Inst::Csr {
            op: crate::inst::CsrOp::Rs,
            rd,
            rs1: Reg::ZERO,
            csr: csr::CYCLE,
        }
    }

    fn countdown_loop() -> FlatMemory {
        program(&[
            addi(Reg::T0, Reg::ZERO, 10),
            addi(Reg::A0, Reg::ZERO, 0),
            Inst::Alu {
                op: AluOp::Add,
                rd: Reg::A0,
                rs1: Reg::A0,
                rs2: Reg::T0,
            },
            rdcycle(Reg::A1),
            addi(Reg::T0, Reg::T0, -1),
            Inst::Branch {
                cond: BranchCond::Ne,
                rs1: Reg::T0,
                rs2: Reg::ZERO,
                offset: -12,
            },
            Inst::Ecall,
        ])
    }

    #[test]
    fn cached_loop_matches_uncached() {
        for limit in [1, 2, 3, 7, u64::MAX] {
            lockstep(&countdown_loop(), 10_000, limit);
            // Stopping mid-block leaves the same state as stepping.
            lockstep(&countdown_loop(), 23, limit);
        }
    }

    #[test]
    fn counter_reads_observe_the_sink_clock() {
        let mut mem = countdown_loop();
        let mut cpu = Cpu::new(0);
        let mut sink = Record::default();
        let mut cache = DecodeCache::new();
        let end = cache.run_block(&mut cpu, &mut mem, u64::MAX, &mut sink);
        assert_eq!(end, Ok(BlockEnd::Ecall));
        assert_eq!(sink.clocks, 10, "one clock per rdcycle, none per step");
        // The last rdcycle ran after 2 + 9 * 4 + 1 retired instructions.
        assert_eq!(cpu.read_reg(Reg::A1), 1000 + 10 * 39);
    }

    #[test]
    fn illegal_word_traps_identically() {
        let mut mem = FlatMemory::new(1 << 12);
        mem.store(0, 4, 0xffff_ffff).unwrap();
        lockstep(&mem, 4, u64::MAX);
    }

    #[test]
    fn fetch_fault_matches_uncached() {
        // Jump straight past the end of memory: the cached path must
        // surface the identical FetchFault.
        let mem = program(&[Inst::Jal {
            rd: Reg::ZERO,
            offset: 0x2_0000,
        }]);
        lockstep(&mem, 4, u64::MAX);
    }

    #[test]
    fn self_modifying_store_is_observed_after_invalidate() {
        // Overwrite the instruction at 0x10 (an ebreak) with an ecall, then
        // fall through into it: the store ends the block and drops the
        // executing page, so the cached run executes the *new* word.
        let ecall_word = encode(&Inst::Ecall).unwrap() as i64;
        assert!(ecall_word <= 0x7ff);
        let mem = program(&[
            addi(Reg::T0, Reg::ZERO, ecall_word),
            sw(Reg::T0, Reg::ZERO, 0x10),
            Inst::Fence,
            Inst::Fence,
            Inst::Ebreak, // at 0x10: patched to ecall before execution
        ]);
        lockstep(&mem, 16, u64::MAX);
    }

    #[test]
    fn invalidate_range_drops_overlapping_pages() {
        let mut mem = program(&[Inst::Fence, Inst::Ecall]);
        let mut cpu = Cpu::new(0);
        let mut cache = DecodeCache::new();
        let mut sink = Record::default();
        cache.run_block(&mut cpu, &mut mem, 1, &mut sink).unwrap();
        assert_eq!(cache.stats(), (0, 1));
        cache.invalidate_range(0, PAGE_SIZE as usize * 2);
        cache.run_block(&mut cpu, &mut mem, 1, &mut sink).unwrap();
        assert_eq!(cache.stats(), (0, 2), "range invalidation must refill");
    }

    #[test]
    fn invalidation_is_bounded_by_the_cached_code_range() {
        let ecall_word = encode(&Inst::Ecall).unwrap() as i64;
        let mut mem = program(&[
            addi(Reg::T0, Reg::ZERO, ecall_word),
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
        let mut sink = Record::default();
        let mut block =
            |cache: &mut DecodeCache| cache.run_block(&mut cpu, &mut mem, u64::MAX, &mut sink);
        assert_eq!(block(&mut cache), Ok(BlockEnd::Next));
        assert_eq!(
            cache.stats(),
            (5, 1),
            "stores outside the cached code range neither refill nor end the block"
        );
        assert_eq!(block(&mut cache), Ok(BlockEnd::Next), "the jalr");
        assert_eq!(cache.stats().1, 2, "a store into a code page refills it");
        assert_eq!(
            block(&mut cache),
            Ok(BlockEnd::Ecall),
            "the patched word runs"
        );
        assert_eq!(cache.stats().1, 3);
        // The range grew to cover page 1: a store there drops it too.
        cache.invalidate_range(0x1000, 4);
        assert!(
            block(&mut cache).is_err(),
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
        let mem = program(&[
            rdcycle(Reg::A1),
            Inst::Jalr {
                rd: Reg::ZERO,
                rs1: Reg::ZERO,
                offset: 0x102, // jalr clears only bit 0; pc 0x102 stays misaligned
            },
        ]);
        lockstep(&mem, 3, u64::MAX);
    }
}
