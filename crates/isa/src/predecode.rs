//! Predecoded instruction cache for the interpreter hot loop.
//!
//! [`DecodeCache`] decodes each physical page once into a flat table of
//! 8-byte [`Op`]s, one per word, and [`DecodeCache::run_block`] executes
//! a run of them with one `match` per guest instruction.
//!
//! # The op table
//!
//! An [`Op`] is a [`Code`] and its operands: `rd`, `rs1`, `rs2` and a
//! 32-bit immediate. Every [`Inst`] the decoder produces maps to exactly
//! one code — each ALU and ALU-immediate operation, branch condition and
//! load or store width has its own — so executing an op never looks at a
//! second tag. Three codes exist only in the table:
//!
//! - [`Code::Illegal`]: the word is not a valid encoding. It raises
//!   [`Trap::IllegalInstruction`] only when the PC actually reaches it,
//!   with the same `{word, pc}` payload as an uncached step.
//! - [`Code::Unmapped`]: the word could not be fetched at fill time.
//!   Execution there falls back to one uncached step, so the authentic
//!   [`Trap::FetchFault`] (or a post-fill mapping change) is observed.
//! - [`Code::End`]: the sentinel after the page's last word. A block that
//!   falls through the end of its page reads it and ends, so sequential
//!   execution needs no page-bounds check.
//!
//! A `cycle`/`time` CSR access is [`Code::Counter`]: right before it
//! executes, the block asks its [`BlockSink`] for the clock the read must
//! observe. Only these reads (and the uncached fallback, whose word is not
//! known in advance) ask, so a timing model is consulted exactly where the
//! guest can see it.
//!
//! # One execution body
//!
//! [`Cpu::step`] fetches a word, decodes it into an [`Op`] and runs the
//! same executor the block loop runs, so cached and uncached execution
//! retire bit-identical [`Retired`] records — the stream the cycle-exact
//! timing model and cosim consume. A block must be observationally
//! identical to the same number of [`Cpu::step`] calls, including the
//! exact trap for every fault class:
//!
//! - The block keeps the PC in a local and steps to the next op without
//!   leaving the loop; a taken branch or jump whose target is an aligned
//!   word of the same page is followed the same way. Any other target
//!   ends the block, and a misaligned PC takes one uncached step (ops are
//!   word-indexed).
//! - `instret` and `cycle` are written back in one batch: before any CSR
//!   access (which may read them), at a trap and at the end of the block.
//!   Nothing else can observe them mid-block.
//! - A trap leaves the CPU at the faulting instruction.
//!
//! # Invalidation
//!
//! A store the block retires into the cached code range drops the page it
//! touched and ends the block, so self-modifying code refetches through a
//! fresh decode — including a store into the page that is executing.
//! Writes made behind the interpreter's back (syscalls filling guest
//! buffers) are the embedder's to report through
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

use crate::decode::decode;
use crate::inst::{csr, Inst, Reg};
#[cfg(doc)]
use crate::inst::{AluImmOp, AluOp, BranchCond, CsrOp, MemWidth};
use crate::interp::{Cpu, Done, RetireKind, Retired, StepOutcome, Trap};
use crate::mem::Bus;

/// Cache granule: decoded entries are kept per naturally-aligned page.
pub const PAGE_SIZE: u64 = 4096;

/// 32-bit instruction slots per page.
const SLOTS_PER_PAGE: usize = (PAGE_SIZE / 4) as usize;

/// Pages held before the cache resets itself. Far above what any MEXE
/// binary needs; purely a bound on pathological self-modifying workloads.
const MAX_PAGES: usize = 64;

/// What an [`Op`] does: one code per instruction variant the decoder
/// produces, plus the table-only codes (see the module docs).
///
/// The ALU, ALU-immediate, branch, load, store and CSR groups list their
/// codes in the order of [`AluOp`], [`AluImmOp`], [`BranchCond`],
/// [`MemWidth`] and [`CsrOp`], which lowering an [`Inst`] relies on.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash)]
#[repr(u8)]
#[allow(missing_docs)]
pub enum Code {
    // Register-register ALU operations, M extension included.
    Add,
    Sub,
    Sll,
    Slt,
    Sltu,
    Xor,
    Srl,
    Sra,
    Or,
    And,
    Addw,
    Subw,
    Sllw,
    Srlw,
    Sraw,
    Mul,
    Mulh,
    Mulhsu,
    Mulhu,
    Div,
    Divu,
    Rem,
    Remu,
    Mulw,
    Divw,
    Divuw,
    Remw,
    Remuw,
    // Register-immediate ALU operations.
    Addi,
    Slti,
    Sltiu,
    Xori,
    Ori,
    Andi,
    Slli,
    Srli,
    Srai,
    Addiw,
    Slliw,
    Srliw,
    Sraiw,
    // Conditional branches.
    Beq,
    Bne,
    Blt,
    Bge,
    Bltu,
    Bgeu,
    // Loads and stores.
    Lb,
    Lh,
    Lw,
    Ld,
    Lbu,
    Lhu,
    Lwu,
    Sb,
    Sh,
    Sw,
    Sd,
    // Upper immediates and jumps.
    Lui,
    Auipc,
    Jal,
    Jalr,
    // CSR accesses other than the clock; `imm` is the CSR number, `rs1`
    // the source register or the 5-bit immediate.
    Csrrw,
    Csrrs,
    Csrrc,
    Csrrwi,
    Csrrsi,
    Csrrci,
    /// Any access to `cycle` or `time`: a read of the clock.
    Counter,
    Fence,
    Ecall,
    Ebreak,
    /// An undecodable word, held in `imm`.
    Illegal,
    /// A word that could not be fetched when the page was filled.
    Unmapped,
    /// The sentinel after a page's last word.
    End,
}

impl Code {
    /// Every code, in declaration order.
    pub const ALL: [Code; 75] = {
        use Code::*;
        [
            Add, Sub, Sll, Slt, Sltu, Xor, Srl, Sra, Or, And, Addw, Subw, Sllw, Srlw, Sraw, Mul,
            Mulh, Mulhsu, Mulhu, Div, Divu, Rem, Remu, Mulw, Divw, Divuw, Remw, Remuw, Addi, Slti,
            Sltiu, Xori, Ori, Andi, Slli, Srli, Srai, Addiw, Slliw, Srliw, Sraiw, Beq, Bne, Blt,
            Bge, Bltu, Bgeu, Lb, Lh, Lw, Ld, Lbu, Lhu, Lwu, Sb, Sh, Sw, Sd, Lui, Auipc, Jal, Jalr,
            Csrrw, Csrrs, Csrrc, Csrrwi, Csrrsi, Csrrci, Counter, Fence, Ecall, Ebreak, Illegal,
            Unmapped, End,
        ]
    };
}

/// One predecoded instruction: 8 bytes, so a page of them is a flat
/// table the block loop indexes by word.
///
/// ```rust
/// use marshal_isa::predecode::{Code, Op};
/// // addi a0, a0, 1
/// assert_eq!(Op::decode(0x0015_0513).code(), Code::Addi);
/// assert_eq!(Op::decode(0xffff_ffff).code(), Code::Illegal);
/// assert_eq!(std::mem::size_of::<Op>(), 8);
/// ```
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct Op {
    pub(crate) code: Code,
    pub(crate) rd: u8,
    pub(crate) rs1: u8,
    pub(crate) rs2: u8,
    /// The immediate: a sign-extended value, byte offset, CSR number or
    /// (for [`Code::Illegal`]) the word itself.
    pub(crate) imm: i32,
}

impl Op {
    /// The op a machine word predecodes to: its instruction's code, or
    /// [`Code::Illegal`].
    pub fn decode(word: u32) -> Op {
        match decode(word) {
            Ok(inst) => Op::from(inst),
            Err(e) => Op::new(Code::Illegal, 0, 0, 0, i64::from(e.word as i32)),
        }
    }

    /// What the op does.
    pub fn code(self) -> Code {
        self.code
    }

    fn new(code: Code, rd: u8, rs1: u8, rs2: u8, imm: i64) -> Op {
        // Every immediate the decoder produces fits: 20-bit upper
        // immediates, 21-bit jump offsets, 12-bit CSR numbers.
        debug_assert_eq!(imm as i32 as i64, imm, "{code:?} immediate");
        Op {
            code,
            rd,
            rs1,
            rs2,
            imm: imm as i32,
        }
    }
}

impl From<Inst> for Op {
    fn from(inst: Inst) -> Op {
        // Each group of codes is declared in its source enum's order.
        let at = |first: Code, i: usize| Code::ALL[first as usize + i];
        let r = |reg: Reg| reg.index() as u8;
        match inst {
            Inst::Alu { op, rd, rs1, rs2 } => {
                Op::new(at(Code::Add, op as usize), r(rd), r(rs1), r(rs2), 0)
            }
            Inst::AluImm { op, rd, rs1, imm } => {
                Op::new(at(Code::Addi, op as usize), r(rd), r(rs1), 0, imm)
            }
            Inst::Branch {
                cond,
                rs1,
                rs2,
                offset,
            } => Op::new(at(Code::Beq, cond as usize), 0, r(rs1), r(rs2), offset),
            Inst::Load {
                width,
                rd,
                rs1,
                offset,
            } => Op::new(at(Code::Lb, width as usize), r(rd), r(rs1), 0, offset),
            // A store of an unsigned width writes as many bytes.
            Inst::Store {
                width,
                rs2,
                rs1,
                offset,
            } => Op::new(at(Code::Sb, width as usize % 4), 0, r(rs1), r(rs2), offset),
            Inst::Lui { rd, imm } => Op::new(Code::Lui, r(rd), 0, 0, imm),
            Inst::Auipc { rd, imm } => Op::new(Code::Auipc, r(rd), 0, 0, imm),
            Inst::Jal { rd, offset } => Op::new(Code::Jal, r(rd), 0, 0, offset),
            Inst::Jalr { rd, rs1, offset } => Op::new(Code::Jalr, r(rd), r(rs1), 0, offset),
            Inst::Csr { rd, csr: num, .. } | Inst::CsrImm { rd, csr: num, .. }
                if num == csr::CYCLE || num == csr::TIME =>
            {
                Op::new(Code::Counter, r(rd), 0, 0, 0)
            }
            Inst::Csr {
                op,
                rd,
                rs1,
                csr: num,
            } => Op::new(at(Code::Csrrw, op as usize), r(rd), r(rs1), 0, num.into()),
            Inst::CsrImm {
                op,
                rd,
                zimm,
                csr: num,
            } => Op::new(at(Code::Csrrwi, op as usize), r(rd), zimm, 0, num.into()),
            Inst::Fence => Op::new(Code::Fence, 0, 0, 0, 0),
            Inst::Ecall => Op::new(Code::Ecall, 0, 0, 0, 0),
            Inst::Ebreak => Op::new(Code::Ebreak, 0, 0, 0, 0),
        }
    }
}

/// A fully-predecoded page of guest memory: one op per word, then the
/// [`Code::End`] sentinel.
#[derive(Debug)]
struct Page {
    base: u64,
    ops: Box<[Op; SLOTS_PER_PAGE + 1]>,
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

/// How the block loop left, before the CPU's counters are written back.
enum Exit {
    /// The block is over.
    End(BlockEnd),
    /// A retired store hit the cached code range at this address.
    Patched(u64),
    /// The op could not be served from the table.
    Fallback,
    /// The op trapped.
    Trap(Trap),
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
            // Word-indexed ops cannot represent a misaligned PC; the
            // uncached path reports whatever the bus does.
            return self.fallback(cpu, bus, sink);
        }
        let base = cpu.pc & !(PAGE_SIZE - 1);
        let page = self.page(base, bus);
        let ops = &self.pages[page].ops;
        let mut pc = cpu.pc;
        let mut slot = (pc.wrapping_sub(base) / 4) as usize;
        let mut left = limit;
        // Retired since `instret` and `cycle` were last written back.
        let mut pending = 0;
        let exit = loop {
            let done = cpu.exec(bus, ops[slot], pc, |cpu, counter| {
                cpu.instret += pending;
                cpu.cycle += pending;
                pending = 0;
                if counter {
                    if let Some(clock) = sink.clock() {
                        cpu.cycle = clock;
                    }
                }
            });
            match done {
                Ok(Done::Next(kind)) => {
                    let next_pc = pc.wrapping_add(4);
                    sink.retire(&Retired { pc, next_pc, kind }, bus);
                    pc = next_pc;
                    slot += 1;
                    pending += 1;
                    left -= 1;
                    if let RetireKind::Store { addr } = kind {
                        if self.covers(addr) {
                            break Exit::Patched(addr);
                        }
                    }
                    if left == 0 {
                        break Exit::End(BlockEnd::Next);
                    }
                }
                Ok(Done::Jump(kind, target)) => {
                    sink.retire(
                        &Retired {
                            pc,
                            next_pc: target,
                            kind,
                        },
                        bus,
                    );
                    pc = target;
                    pending += 1;
                    left -= 1;
                    let offset = target.wrapping_sub(base);
                    if left == 0 || offset & !(PAGE_SIZE - 4) != 0 {
                        break Exit::End(BlockEnd::Next);
                    }
                    slot = (offset / 4) as usize;
                }
                Ok(Done::Ecall) => {
                    pc = pc.wrapping_add(4);
                    pending += 1;
                    left -= 1;
                    break Exit::End(BlockEnd::Ecall);
                }
                Ok(Done::Ebreak) => {
                    pc = pc.wrapping_add(4);
                    pending += 1;
                    left -= 1;
                    break Exit::End(BlockEnd::Ebreak);
                }
                Ok(Done::End) => break Exit::End(BlockEnd::Next),
                Ok(Done::Unmapped) => {
                    left -= 1;
                    break Exit::Fallback;
                }
                Err(trap) => {
                    left -= 1;
                    break Exit::Trap(trap);
                }
            }
        };
        cpu.pc = pc;
        cpu.instret += pending;
        cpu.cycle += pending;
        self.reads += limit - left;
        match exit {
            Exit::End(end) => Ok(end),
            Exit::Patched(addr) => {
                self.invalidate(addr);
                Ok(BlockEnd::Next)
            }
            Exit::Fallback => self.fallback(cpu, bus, sink),
            Exit::Trap(trap) => Err(trap),
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
        Ok(match cpu.step(bus)? {
            StepOutcome::Retired(r) => {
                sink.retire(&r, bus);
                if let RetireKind::Store { addr } = r.kind {
                    self.invalidate(addr);
                }
                BlockEnd::Next
            }
            StepOutcome::Ecall => BlockEnd::Ecall,
            StepOutcome::Ebreak => BlockEnd::Ebreak,
        })
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
    /// fill is followed by one op read, which is not a hit; every other
    /// op read is. Sentinel reads do not count.
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
    let ops = std::array::from_fn(|i| match i {
        SLOTS_PER_PAGE => Op::new(Code::End, 0, 0, 0, 0),
        _ => match bus.fetch(base + 4 * i as u64) {
            Ok(word) => Op::decode(word),
            Err(_) => Op::new(Code::Unmapped, 0, 0, 0, 0),
        },
    });
    Page {
        base,
        ops: Box::new(ops),
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::encode::encode;
    use crate::inst::{AluImmOp, AluOp, BranchCond, CsrOp, MemWidth, Reg};
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
    fn every_instruction_variant_has_a_code_of_its_own() {
        let (rd, rs1, rs2) = (Reg::A0, Reg::A1, Reg::A2);
        let mut insts: Vec<Inst> = Vec::new();
        insts.extend(AluOp::ALL.map(|op| Inst::Alu { op, rd, rs1, rs2 }));
        insts.extend(AluImmOp::ALL.map(|op| Inst::AluImm {
            op,
            rd,
            rs1,
            imm: 3,
        }));
        insts.extend(BranchCond::ALL.map(|cond| Inst::Branch {
            cond,
            rs1,
            rs2,
            offset: 8,
        }));
        insts.extend(MemWidth::ALL.map(|width| Inst::Load {
            width,
            rd,
            rs1,
            offset: 8,
        }));
        insts.extend(MemWidth::ALL[..4].iter().map(|&width| Inst::Store {
            width,
            rs2,
            rs1,
            offset: 8,
        }));
        insts.extend([
            Inst::Lui { rd, imm: 0x1000 },
            Inst::Auipc { rd, imm: 0x1000 },
            Inst::Jal { rd, offset: 8 },
            Inst::Jalr { rd, rs1, offset: 8 },
        ]);
        let csr = csr::MSCRATCH;
        insts.extend(CsrOp::ALL.map(|op| Inst::Csr { op, rd, rs1, csr }));
        insts.extend(CsrOp::ALL.map(|op| Inst::CsrImm {
            op,
            rd,
            zimm: 3,
            csr,
        }));
        insts.extend([rdcycle(rd), Inst::Fence, Inst::Ecall, Inst::Ebreak]);
        let mut codes: Vec<Code> = insts
            .iter()
            .map(|inst| Op::decode(encode(inst).unwrap()).code())
            .collect();
        codes.extend([Code::Illegal, Code::Unmapped, Code::End]);
        assert_eq!(
            codes,
            Code::ALL,
            "one code per variant, in declaration order"
        );
    }

    #[test]
    fn falls_through_the_page_sentinel() {
        // Jump to four words before the end of page 0 and run straight
        // into page 1.
        let mut mem = program(&[Inst::Jal {
            rd: Reg::ZERO,
            offset: 0xff0,
        }]);
        for (i, inst) in [
            addi(Reg::T0, Reg::T0, 1),
            rdcycle(Reg::A1),
            addi(Reg::T0, Reg::T0, 2),
            addi(Reg::T0, Reg::T0, 3),
            addi(Reg::T0, Reg::T0, 4),
            Inst::Ecall,
        ]
        .iter()
        .enumerate()
        {
            let w = encode(inst).unwrap();
            mem.store(0xff0 + 4 * i as u64, 4, w as u64).unwrap();
        }
        for limit in [1, 2, 3, u64::MAX] {
            lockstep(&mem, 100, limit);
        }
        let mut cpu = Cpu::new(0xff0);
        let mut cache = DecodeCache::new();
        let mut sink = Record::default();
        let end = cache.run_block(&mut cpu, &mut mem, u64::MAX, &mut sink);
        assert_eq!(end, Ok(BlockEnd::Next));
        assert_eq!(
            (cpu.pc, cpu.instret),
            (0x1000, 4),
            "the sentinel ends the block"
        );
    }

    #[test]
    fn csr_reads_mid_block_see_exact_counters() {
        let read = |csr| Inst::Csr {
            op: crate::inst::CsrOp::Rs,
            rd: Reg::A2,
            rs1: Reg::ZERO,
            csr,
        };
        let mem = program(&[
            addi(Reg::T0, Reg::ZERO, 5),
            read(csr::INSTRET),
            addi(Reg::T0, Reg::T0, -1),
            read(csr::MSCRATCH),
            rdcycle(Reg::A1),
            Inst::Branch {
                cond: BranchCond::Ne,
                rs1: Reg::T0,
                rs2: Reg::ZERO,
                offset: -16,
            },
            read(csr::INSTRET),
            Inst::Ecall,
        ]);
        for limit in [1, 3, u64::MAX] {
            lockstep(&mem, 1000, limit);
        }
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
