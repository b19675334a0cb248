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
//! # What a block reports
//!
//! Each op has a static timing [`Class`] ([`Op::class`], with
//! [`Op::is_call`] and [`Op::is_ret`]): what a timing model charges it for
//! follows from the table alone. So a block does not report instructions.
//! It reports where it runs ([`BlockSink::enter`]: the page and the pc),
//! the dynamic facts of its ops as they execute ([`Emit`]: a taken bit per
//! conditional branch, an address per load and store, a target per
//! `jalr`), and how many ops it retired ([`BlockSink::leave`]). Walking
//! the same page from the same pc with those facts rebuilds the exact
//! instruction stream. A filled [`Page`] is immutable and shared (`Arc`):
//! a refill after a code store makes a new one, so a sink that keeps the
//! pages it was handed sees what each block ran. The facts are emitted
//! inside the executor's arms, so plain ops emit nothing, and `()` sinks
//! nothing at all.
//!
//! # One execution body
//!
//! [`Cpu::step`] fetches a word, decodes it into an [`Op`] and runs the
//! same executor the block loop runs, and builds its [`Retired`] record
//! from the op's class and the facts the executor emitted — the record an
//! uncached fallback step reports ([`BlockSink::step`]) and cosim and the
//! reference loops consume. A block must be observationally identical to
//! the same number of [`Cpu::step`] calls, including the exact trap for
//! every fault class:
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

use std::sync::Arc;

use crate::decode::decode;
use crate::inst::{csr, Inst, Reg};
#[cfg(doc)]
use crate::inst::{AluImmOp, AluOp, BranchCond, CsrOp, MemWidth};
use crate::interp::{Cpu, Done, RetireKind, Retired, StepOutcome, Trap};
use crate::mem::Bus;

/// Cache granule: decoded entries are kept per naturally-aligned page.
pub const PAGE_SIZE: u64 = 4096;

/// 32-bit instruction slots per page.
pub const SLOTS_PER_PAGE: usize = (PAGE_SIZE / 4) as usize;

/// Pages held before the cache resets itself, and so the number of slots
/// a [`BlockSink`] sees. Far above what any MEXE binary needs; purely a
/// bound on pathological self-modifying workloads.
pub const MAX_PAGES: usize = 64;

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

impl Code {
    /// The timing class of every op with this code.
    pub const fn class(self) -> Class {
        use Code::*;
        match self {
            Mul | Mulh | Mulhsu | Mulhu | Mulw => Class::Mul,
            Div | Divu | Rem | Remu | Divw | Divuw | Remw | Remuw => Class::Div,
            Add | Sub | Sll | Slt | Sltu | Xor | Srl | Sra | Or | And | Addw | Subw | Sllw
            | Srlw | Sraw | Addi | Slti | Sltiu | Xori | Ori | Andi | Slli | Srli | Srai
            | Addiw | Slliw | Srliw | Sraiw | Lui | Auipc => Class::Alu,
            Beq | Bne | Blt | Bge | Bltu | Bgeu => Class::Branch,
            Lb | Lh | Lw | Ld | Lbu | Lhu | Lwu => Class::Load,
            Sb | Sh | Sw | Sd => Class::Store,
            Jal => Class::Jump,
            Jalr => Class::JumpReg,
            Csrrw | Csrrs | Csrrc | Csrrwi | Csrrsi | Csrrci | Counter => Class::Csr,
            Fence => Class::System,
            Ecall => Class::Ecall,
            Ebreak => Class::Ebreak,
            Illegal | Unmapped | End => Class::Stop,
        }
    }
}

/// What a timing model charges an op for, known from the op table alone:
/// the one statement of it. [`Cpu::step`] builds a retired record's
/// [`RetireKind`] from it, and a timing model fed by a [`BlockSink`] reads
/// it from the page the block ran on.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash)]
pub enum Class {
    /// A one-cycle integer op: ALU, ALU-immediate, `lui`, `auipc`.
    Alu,
    /// A multiply.
    Mul,
    /// A divide or remainder.
    Div,
    /// A CSR access, the clock reads included.
    Csr,
    /// A fence.
    System,
    /// A load; its address is a dynamic fact.
    Load,
    /// A store; its address is a dynamic fact.
    Store,
    /// A conditional branch; whether it is taken is a dynamic fact.
    Branch,
    /// `jal`: a direct jump.
    Jump,
    /// `jalr`: its target is a dynamic fact.
    JumpReg,
    /// `ecall`: ends the block, and the embedder services it.
    Ecall,
    /// `ebreak`: ends the block.
    Ebreak,
    /// Never retires: an illegal word, an unfetchable one, or a page's
    /// sentinel.
    Stop,
}

impl Class {
    /// Every class, in declaration order.
    pub const ALL: [Class; 13] = {
        use Class::*;
        [
            Alu, Mul, Div, Csr, System, Load, Store, Branch, Jump, JumpReg, Ecall, Ebreak, Stop,
        ]
    };

    /// Whether the op emits no dynamic fact and falls through to the next
    /// word: its timing follows from the class alone.
    pub const fn is_plain(self) -> bool {
        matches!(
            self,
            Class::Alu | Class::Mul | Class::Div | Class::Csr | Class::System
        )
    }
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

    /// Its timing class.
    #[inline]
    pub fn class(self) -> Class {
        self.code.class()
    }

    /// A call: a `jal` or `jalr` that links `ra`.
    #[inline]
    pub fn is_call(self) -> bool {
        matches!(self.code, Code::Jal | Code::Jalr) && self.rd == RA
    }

    /// A return: a `jalr` through `ra` that links nothing.
    #[inline]
    pub fn is_ret(self) -> bool {
        self.code == Code::Jalr && self.rd == 0 && self.rs1 == RA
    }

    /// The target of a branch or `jal` at `pc`.
    #[inline]
    pub fn target(self, pc: u64) -> u64 {
        pc.wrapping_add(i64::from(self.imm) as u64)
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

/// The index of `ra`, the link register of calls and returns.
const RA: u8 = 1;

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
/// [`Code::End`] sentinel. Immutable once filled, and shared with the
/// [`BlockSink`] of every block that runs on it.
#[derive(Debug)]
pub struct Page {
    ops: [Op; SLOTS_PER_PAGE + 1],
}

impl Page {
    /// The op of each word, then the sentinel.
    #[inline]
    pub fn ops(&self) -> &[Op; SLOTS_PER_PAGE + 1] {
        &self.ops
    }
}

/// The dynamic facts of the ops a block retires: what the op table cannot
/// know. The executor emits each one as its op retires; plain ops emit
/// none.
pub trait Emit {
    /// A conditional branch retired, taken or not.
    fn branch(&mut self, taken: bool);

    /// A load or store retired at `addr`.
    fn access(&mut self, addr: u64);

    /// A `jalr` retired to `target`.
    fn jump(&mut self, target: u64);
}

/// Receives what a block executes: the embedder's timing hook.
///
/// A block is reported as [`BlockSink::enter`], the [`Emit`] facts of its
/// ops in order, then [`BlockSink::leave`] with the number of ops it
/// retired, counting neither an `ecall`/`ebreak` that ends it nor an op
/// that traps. A `cycle`/`time` read splits the block: the sink sees
/// `leave`, then [`BlockSink::clock`], then `enter` at the reading op. An
/// uncached fallback step is one [`BlockSink::step`] outside any block.
pub trait BlockSink: Emit {
    /// The clock a `cycle`/`time` CSR read is about to observe, written to
    /// [`Cpu::cycle`] first; `None` keeps the CPU's own count. Called right
    /// before each such read and before each uncached fallback step, never
    /// inside an open block.
    fn clock(&mut self) -> Option<u64>;

    /// A block starts at `pc` on `page`, which the cache holds in `slot`
    /// (below [`MAX_PAGES`]). Returns the most ops the block may retire; 0 opens no
    /// block and runs the op at `pc` as an uncached step instead. A block
    /// re-entered after a clock read keeps the bound it started with.
    fn enter(&mut self, slot: usize, page: &Arc<Page>, pc: u64) -> u64;

    /// The open block retired `retired` ops.
    fn leave(&mut self, retired: u64);

    /// One instruction retired by an uncached step.
    fn step(&mut self, r: &Retired);
}

/// The functional timing: no facts.
impl Emit for () {
    #[inline(always)]
    fn branch(&mut self, _taken: bool) {}

    #[inline(always)]
    fn access(&mut self, _addr: u64) {}

    #[inline(always)]
    fn jump(&mut self, _target: u64) {}
}

/// The functional timing: no clock, no bound, nothing recorded.
impl BlockSink for () {
    #[inline(always)]
    fn clock(&mut self) -> Option<u64> {
        None
    }

    #[inline(always)]
    fn enter(&mut self, _slot: usize, _page: &Arc<Page>, _pc: u64) -> u64 {
        u64::MAX
    }

    #[inline(always)]
    fn leave(&mut self, _retired: u64) {}

    #[inline(always)]
    fn step(&mut self, _r: &Retired) {}
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

/// A page the cache holds, and where.
#[derive(Debug)]
struct Cached {
    base: u64,
    page: Arc<Page>,
}

/// Per-hart predecoded instruction cache.
///
/// Lives outside [`Cpu`] (which stays pure architectural state, `Clone` +
/// `PartialEq`); the embedder threads it through its step loop.
#[derive(Debug)]
pub struct DecodeCache {
    /// At most [`MAX_PAGES`] slots. A page keeps its slot until it is
    /// dropped, which empties the slot for the next fill.
    pages: Vec<Option<Cached>>,
    /// Slot of the most recently used page: a block that stays on it
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
    /// - `limit` instructions have executed, or as many as
    ///   [`BlockSink::enter`] allows.
    ///
    /// At least one instruction executes (for any `limit > 0`). A
    /// misaligned PC, an unmapped slot or a sink that allows none takes
    /// one uncached [`Cpu::step`] and ends the block. The block is
    /// reported to `sink` (see [`BlockSink`]); `cycle`/`time` CSR reads
    /// observe [`BlockSink::clock`]. The run is identical to the same
    /// number of [`Cpu::step`] calls; see the module docs for the case
    /// analysis.
    ///
    /// # Errors
    ///
    /// Returns exactly the [`Trap`] an uncached [`Cpu::step`] would, with
    /// the CPU left at the faulting instruction.
    #[inline]
    pub fn run_block<B: Bus, S: BlockSink + ?Sized>(
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
        let index = self.page(base, bus);
        let Some(cached) = &self.pages[index] else {
            unreachable!("a page was just looked up in slot {index}")
        };
        let page = &cached.page;
        let bound = sink.enter(index, page, cpu.pc);
        if bound == 0 {
            return self.fallback(cpu, bus, sink);
        }
        let limit = limit.min(bound);
        let ops = page.ops();
        let mut pc = cpu.pc;
        let mut slot = (pc.wrapping_sub(base) / 4) as usize;
        let mut left = limit;
        // Retired since `instret` and `cycle` were last written back.
        let mut pending = 0;
        // Executed before the sink's open block was entered.
        let mut opened = 0;
        let exit = loop {
            let done = cpu.exec(bus, ops[slot], pc, sink, |cpu, sink, counter| {
                cpu.instret += pending;
                cpu.cycle += pending;
                pending = 0;
                if counter {
                    let executed = limit - left;
                    sink.leave(executed - opened);
                    opened = executed;
                    if let Some(clock) = sink.clock() {
                        cpu.cycle = clock;
                    }
                    sink.enter(index, page, pc);
                }
            });
            match done {
                Ok(done @ (Done::Next | Done::Store(_))) => {
                    pc = pc.wrapping_add(4);
                    slot += 1;
                    pending += 1;
                    left -= 1;
                    if let Done::Store(addr) = done {
                        if self.covers(addr) {
                            break Exit::Patched(addr);
                        }
                    }
                    if left == 0 {
                        break Exit::End(BlockEnd::Next);
                    }
                }
                Ok(Done::Jump(target)) => {
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
        // The last op read retired nothing the sink charges when it was an
        // `ecall`/`ebreak`, an unmapped slot or a trap.
        let unretired = match exit {
            Exit::End(BlockEnd::Next) | Exit::Patched(_) => 0,
            Exit::End(_) | Exit::Fallback | Exit::Trap(_) => 1,
        };
        sink.leave(limit - left - opened - unretired);
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
    fn fallback<B: Bus, S: BlockSink + ?Sized>(
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
                sink.step(&r);
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
        if let Some(i) = self.slot_of(base) {
            self.pages[i] = None;
        }
    }

    /// Drops every cached page overlapping `[addr, addr + len)`.
    pub fn invalidate_range(&mut self, addr: u64, len: usize) {
        if len == 0 {
            return;
        }
        let first = addr & !(PAGE_SIZE - 1);
        let last = addr.saturating_add(len as u64 - 1) & !(PAGE_SIZE - 1);
        for slot in &mut self.pages {
            if slot
                .as_ref()
                .is_some_and(|p| first <= p.base && p.base <= last)
            {
                *slot = None;
            }
        }
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

    /// The slot holding the page at `base`, if any.
    #[inline]
    fn slot_of(&self, base: u64) -> Option<usize> {
        self.pages
            .iter()
            .position(|p| p.as_ref().is_some_and(|p| p.base == base))
    }

    /// The slot of the cached page at `base`, filling it on a miss: into
    /// the first empty slot, or a new one, or the first after a reset
    /// once all [`MAX_PAGES`] are taken.
    #[inline]
    fn page<B: Bus>(&mut self, base: u64, bus: &mut B) -> usize {
        if matches!(self.pages.get(self.last), Some(Some(p)) if p.base == base) {
            return self.last;
        }
        if let Some(i) = self.slot_of(base) {
            self.last = i;
            return i;
        }
        let slot = match self.pages.iter().position(Option::is_none) {
            Some(i) => i,
            None => {
                if self.pages.len() >= MAX_PAGES {
                    self.clear();
                }
                self.pages.push(None);
                self.pages.len() - 1
            }
        };
        self.fills += 1;
        self.lo = self.lo.min(base);
        self.hi = self.hi.max(base);
        self.last = slot;
        self.pages[slot] = Some(Cached {
            base,
            page: Arc::new(fill_page(base, bus)),
        });
        slot
    }
}

/// Decodes every word of the page at `base` in one pass.
fn fill_page<B: Bus>(base: u64, bus: &mut B) -> Page {
    Page {
        ops: std::array::from_fn(|i| match i {
            SLOTS_PER_PAGE => Op::new(Code::End, 0, 0, 0, 0),
            _ => match bus.fetch(base + 4 * i as u64) {
                Ok(word) => Op::decode(word),
                Err(_) => Op::new(Code::Unmapped, 0, 0, 0, 0),
            },
        }),
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::encode::encode;
    use crate::inst::{AluImmOp, AluOp, BranchCond, CsrOp, MemWidth, Reg};
    use crate::interp::Facts;
    use crate::mem::FlatMemory;

    fn program(insts: &[Inst]) -> FlatMemory {
        let mut m = FlatMemory::new(1 << 16);
        for (i, inst) in insts.iter().enumerate() {
            let w = encode(inst).unwrap();
            m.store(4 * i as u64, 4, w as u64).unwrap();
        }
        m
    }

    /// Rebuilds every retired instruction from the blocks it is told of
    /// (walking each block's page with the facts it emitted) and from the
    /// uncached steps, and serves a clock that counts them, so counter
    /// reads see a value the CPU's own count does not. Each block may
    /// retire `bound` ops at most.
    struct Record {
        retired: Vec<Retired>,
        clocks: u64,
        bound: u64,
        open: Option<(Arc<Page>, u64)>,
        facts: std::collections::VecDeque<Facts>,
    }

    impl Default for Record {
        fn default() -> Record {
            Record::bounded(u64::MAX)
        }
    }

    impl Record {
        fn bounded(bound: u64) -> Record {
            Record {
                retired: Vec::new(),
                clocks: 0,
                bound,
                open: None,
                facts: Default::default(),
            }
        }
    }

    impl Emit for Record {
        fn branch(&mut self, taken: bool) {
            self.facts.push_back(Facts {
                taken,
                ..Facts::default()
            });
        }
        fn access(&mut self, addr: u64) {
            self.facts.push_back(Facts {
                addr,
                ..Facts::default()
            });
        }
        fn jump(&mut self, target: u64) {
            self.facts.push_back(Facts {
                target,
                ..Facts::default()
            });
        }
    }

    impl BlockSink for Record {
        fn clock(&mut self) -> Option<u64> {
            assert!(self.open.is_none(), "the clock is read between blocks");
            self.clocks += 1;
            Some(1000 + 10 * self.retired.len() as u64)
        }
        fn enter(&mut self, slot: usize, page: &Arc<Page>, pc: u64) -> u64 {
            assert!(slot < MAX_PAGES && self.open.is_none());
            if self.bound > 0 {
                self.open = Some((page.clone(), pc));
            }
            self.bound
        }
        fn leave(&mut self, retired: u64) {
            let (page, mut pc) = self.open.take().expect("an open block");
            for _ in 0..retired {
                let op = page.ops()[(pc % PAGE_SIZE / 4) as usize];
                let facts = match op.class() {
                    Class::Load | Class::Store | Class::Branch | Class::JumpReg => {
                        self.facts.pop_front().expect("a fact")
                    }
                    _ => Facts::default(),
                };
                let kind = facts.kind(op, pc);
                let next_pc = kind.next_pc(pc);
                self.retired.push(Retired { pc, next_pc, kind });
                pc = next_pc;
            }
            assert!(self.facts.is_empty(), "every fact is read");
        }
        fn step(&mut self, r: &Retired) {
            assert!(self.open.is_none() && self.facts.is_empty());
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
    /// memory must all match. Blocks bounded by the sink, down to none
    /// (every instruction stepped uncached), must match too.
    fn lockstep(mem: &FlatMemory, steps: u64, limit: u64) {
        for bound in [u64::MAX, 3, 1, 0] {
            lockstep_bounded(mem, steps, limit, bound);
        }
    }

    fn lockstep_bounded(mem: &FlatMemory, steps: u64, limit: u64, bound: u64) {
        let mut cold_mem = mem.clone();
        let (mut cold, cold_retired, cold_end) = reference(&mut cold_mem, steps);
        let mut hot_mem = mem.clone();
        let mut hot = Cpu::new(0);
        let mut cache = DecodeCache::new();
        let mut sink = Record::bounded(bound);
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
