//! The functional interpreter core.
//!
//! [`Cpu::step`] executes exactly one instruction against a [`Bus`] and
//! reports what happened as a [`StepOutcome`]. It decodes the word into
//! the same 8-byte [`Op`] the predecoded block loop ([`crate::predecode`])
//! runs, and both execute it through one body, which emits each op's
//! dynamic facts ([`Emit`]) as it retires. The cycle-exact simulator in
//! `marshal-sim-rtl` rebuilds the exact instruction stream from those facts
//! and the op table, which guarantees both simulators run the identical
//! instruction stream — the property FireMarshal's `launch`/`install`
//! portability depends on.

use crate::inst::{csr, Reg};
use crate::mem::Bus;
#[cfg(doc)]
use crate::predecode::DecodeCache;
use crate::predecode::{Class, Code, Emit, Op};

/// An architectural trap.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum Trap {
    /// Instruction fetch from an unmapped address.
    FetchFault {
        /// Faulting address.
        addr: u64,
    },
    /// Load from an unmapped address.
    LoadFault {
        /// Faulting address.
        addr: u64,
    },
    /// Store to an unmapped or read-only address.
    StoreFault {
        /// Faulting address.
        addr: u64,
    },
    /// Misaligned load/store.
    Misaligned {
        /// Faulting address.
        addr: u64,
    },
    /// Word is not a valid instruction encoding.
    IllegalInstruction {
        /// The undecodable machine word.
        word: u32,
        /// Address of the word.
        pc: u64,
    },
}

impl std::fmt::Display for Trap {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        match self {
            Trap::FetchFault { addr } => write!(f, "instruction fetch fault at {addr:#x}"),
            Trap::LoadFault { addr } => write!(f, "load fault at {addr:#x}"),
            Trap::StoreFault { addr } => write!(f, "store fault at {addr:#x}"),
            Trap::Misaligned { addr } => write!(f, "misaligned access at {addr:#x}"),
            Trap::IllegalInstruction { word, pc } => {
                write!(f, "illegal instruction {word:#010x} at {pc:#x}")
            }
        }
    }
}

impl std::error::Error for Trap {}

/// Classification of a retired instruction: its op's [`Class`] with the
/// dynamic facts the executor emitted.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum RetireKind {
    /// Simple integer ALU operation (1-cycle class).
    Alu,
    /// Multiply (medium-latency class).
    Mul,
    /// Divide/remainder (long-latency class).
    Div,
    /// Memory load; `addr` is the effective address.
    Load {
        /// Effective address of the access.
        addr: u64,
    },
    /// Memory store; `addr` is the effective address.
    Store {
        /// Effective address of the access.
        addr: u64,
    },
    /// Conditional branch.
    Branch {
        /// Whether the branch was taken.
        taken: bool,
        /// Branch target (valid when taken).
        target: u64,
    },
    /// Direct jump (`jal`).
    Jump {
        /// Jump target.
        target: u64,
        /// A call: the link register is `ra`.
        call: bool,
    },
    /// Indirect jump (`jalr`); target is data-dependent.
    JumpReg {
        /// Jump target.
        target: u64,
        /// A call: the link register is `ra`.
        call: bool,
        /// A return: `jalr x0, 0(ra)` style, jumping through `ra` without
        /// linking.
        ret: bool,
    },
    /// CSR access.
    Csr,
    /// Fence or other system instruction.
    System,
}

impl RetireKind {
    /// The class of the op this kind was built from.
    pub fn class(&self) -> Class {
        match self {
            RetireKind::Alu => Class::Alu,
            RetireKind::Mul => Class::Mul,
            RetireKind::Div => Class::Div,
            RetireKind::Load { .. } => Class::Load,
            RetireKind::Store { .. } => Class::Store,
            RetireKind::Branch { .. } => Class::Branch,
            RetireKind::Jump { .. } => Class::Jump,
            RetireKind::JumpReg { .. } => Class::JumpReg,
            RetireKind::Csr => Class::Csr,
            RetireKind::System => Class::System,
        }
    }

    /// Where control goes after this kind of instruction at `pc`.
    pub fn next_pc(&self, pc: u64) -> u64 {
        match *self {
            RetireKind::Branch {
                taken: true,
                target,
            }
            | RetireKind::Jump { target, .. }
            | RetireKind::JumpReg { target, .. } => target,
            _ => pc.wrapping_add(4),
        }
    }
}

/// A fully-retired instruction, with everything a timing model needs.
///
/// The record is deliberately small (no copy of the decoded
/// [`Inst`](crate::inst::Inst)): the [`RetireKind`] carries every fact the
/// timing model dispatches on, including the call/return flags of jumps.
/// Only [`Cpu::step`] builds one.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct Retired {
    /// PC of the instruction.
    pub pc: u64,
    /// PC of the next instruction (accounts for taken control flow).
    pub next_pc: u64,
    /// Timing classification.
    pub kind: RetireKind,
}

/// The result of executing one instruction.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum StepOutcome {
    /// Instruction retired normally.
    Retired(Retired),
    /// An `ecall` was executed; the embedder handles it. PC has already been
    /// advanced past the `ecall`.
    Ecall,
    /// An `ebreak` was executed. PC has already been advanced.
    Ebreak,
}

/// Architectural CPU state: registers, PC, and counters.
///
/// `x0` is hard-wired to zero; writes to it are ignored.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct Cpu {
    regs: [u64; 32],
    /// Current program counter.
    pub pc: u64,
    /// Retired instruction count.
    pub instret: u64,
    /// Cycle counter. The functional simulators tick this 1:1 with
    /// instructions; the cycle-exact simulator writes modelled cycles here so
    /// `rdcycle` observes real simulated time.
    pub cycle: u64,
    /// Hart ID reported by `mhartid`.
    pub hart_id: u64,
    scratch: u64,
}

impl Default for Cpu {
    fn default() -> Cpu {
        Cpu::new(0)
    }
}

impl Cpu {
    /// Creates a CPU with all registers zero and PC at `entry`.
    pub fn new(entry: u64) -> Cpu {
        Cpu {
            regs: [0; 32],
            pc: entry,
            instret: 0,
            cycle: 0,
            hart_id: 0,
            scratch: 0,
        }
    }

    /// Reads a register (`x0` always reads zero).
    #[inline]
    pub fn read_reg(&self, r: Reg) -> u64 {
        self.regs[r.index()]
    }

    /// Writes a register (writes to `x0` are discarded).
    #[inline]
    pub fn write_reg(&mut self, r: Reg, v: u64) {
        if r != Reg::ZERO {
            self.regs[r.index()] = v;
        }
    }

    #[inline]
    fn read_csr(&self, num: u16) -> u64 {
        match num {
            csr::CYCLE | csr::TIME => self.cycle,
            csr::INSTRET => self.instret,
            csr::MHARTID => self.hart_id,
            csr::MSCRATCH => self.scratch,
            _ => 0,
        }
    }

    #[inline]
    fn write_csr(&mut self, num: u16, v: u64) {
        if num == csr::MSCRATCH {
            self.scratch = v;
        }
        // Counter CSRs are read-only shadows; other writes are ignored.
    }

    /// Executes one instruction: fetch, decode into an [`Op`], then the
    /// same executor [`DecodeCache::run_block`] runs.
    ///
    /// On [`StepOutcome::Ecall`]/[`StepOutcome::Ebreak`] the PC has already
    /// advanced past the trapping instruction, so the embedder can service
    /// the call and resume with another `step`.
    ///
    /// # Errors
    ///
    /// Returns a [`Trap`] on fetch/load/store faults, misalignment, or an
    /// illegal instruction. The CPU state is left at the faulting
    /// instruction (PC unchanged).
    pub fn step<B: Bus>(&mut self, bus: &mut B) -> Result<StepOutcome, Trap> {
        let pc = self.pc;
        let op = Op::decode(bus.fetch(pc)?);
        let mut facts = Facts::default();
        let (next_pc, outcome) = match self.exec(bus, op, pc, &mut facts, |_, _, _| {})? {
            Done::Next | Done::Store(_) => (pc.wrapping_add(4), None),
            Done::Jump(target) => (target, None),
            Done::Ecall => (pc.wrapping_add(4), Some(StepOutcome::Ecall)),
            Done::Ebreak => (pc.wrapping_add(4), Some(StepOutcome::Ebreak)),
            Done::End | Done::Unmapped => unreachable!("{op:?} only occurs in a predecoded page"),
        };
        self.pc = next_pc;
        self.instret += 1;
        self.cycle += 1;
        Ok(outcome.unwrap_or_else(|| {
            let kind = facts.kind(op, pc);
            StepOutcome::Retired(Retired { pc, next_pc, kind })
        }))
    }

    /// Writes `rd`; `x0` stays zero.
    #[inline(always)]
    fn set(&mut self, rd: u8, v: u64) {
        self.regs[usize::from(rd & 31)] = v;
        self.regs[0] = 0;
    }

    /// Executes `op`, the instruction at `pc`: the one execution body of
    /// [`Cpu::step`] and [`DecodeCache::run_block`].
    ///
    /// It writes registers, CSRs and memory, emits the op's dynamic facts
    /// to `emit` once it retires, and reports where control goes; moving
    /// the PC and counting the instruction in `instret` and `cycle` is the
    /// caller's, so a block can keep them in locals. `sync` runs right
    /// before a CSR access, with `true` for a read of the clock
    /// ([`Code::Counter`]), and must bring `instret` and `cycle` up to date.
    ///
    /// # Errors
    ///
    /// The trap, with nothing written or emitted.
    #[inline(always)]
    pub(crate) fn exec<B: Bus, E: Emit + ?Sized>(
        &mut self,
        bus: &mut B,
        op: Op,
        pc: u64,
        emit: &mut E,
        sync: impl FnOnce(&mut Cpu, &mut E, bool),
    ) -> Result<Done, Trap> {
        let a = self.regs[usize::from(op.rs1 & 31)];
        let b = self.regs[usize::from(op.rs2 & 31)];
        let imm = i64::from(op.imm);
        let addr = a.wrapping_add(imm as u64);
        let value = match op.code {
            Code::Add => a.wrapping_add(b),
            Code::Sub => a.wrapping_sub(b),
            Code::Sll => a << (b & 0x3f),
            Code::Slt => ((a as i64) < (b as i64)) as u64,
            Code::Sltu => (a < b) as u64,
            Code::Xor => a ^ b,
            Code::Srl => a >> (b & 0x3f),
            Code::Sra => ((a as i64) >> (b & 0x3f)) as u64,
            Code::Or => a | b,
            Code::And => a & b,
            Code::Addw => (a.wrapping_add(b) as i32) as i64 as u64,
            Code::Subw => (a.wrapping_sub(b) as i32) as i64 as u64,
            Code::Sllw => (((a as u32) << (b & 0x1f)) as i32) as i64 as u64,
            Code::Srlw => (((a as u32) >> (b & 0x1f)) as i32) as i64 as u64,
            Code::Sraw => (((a as i32) >> (b & 0x1f)) as i64) as u64,
            Code::Mul => a.wrapping_mul(b),
            Code::Mulh => (((a as i64 as i128) * (b as i64 as i128)) >> 64) as u64,
            Code::Mulhsu => (((a as i64 as i128) * (b as u128 as i128)) >> 64) as u64,
            Code::Mulhu => (((a as u128) * (b as u128)) >> 64) as u64,
            Code::Div => {
                let (a, b) = (a as i64, b as i64);
                if b == 0 {
                    u64::MAX
                } else if a == i64::MIN && b == -1 {
                    a as u64
                } else {
                    (a / b) as u64
                }
            }
            Code::Divu => a.checked_div(b).unwrap_or(u64::MAX),
            Code::Rem => {
                let (a, b) = (a as i64, b as i64);
                if b == 0 {
                    a as u64
                } else if a == i64::MIN && b == -1 {
                    0
                } else {
                    (a % b) as u64
                }
            }
            Code::Remu => {
                if b == 0 {
                    a
                } else {
                    a % b
                }
            }
            Code::Mulw => ((a as i32).wrapping_mul(b as i32)) as i64 as u64,
            Code::Divw => {
                let (a, b) = (a as i32, b as i32);
                let v = if b == 0 {
                    -1
                } else if a == i32::MIN && b == -1 {
                    a
                } else {
                    a / b
                };
                v as i64 as u64
            }
            Code::Divuw => {
                let (a, b) = (a as u32, b as u32);
                a.checked_div(b).unwrap_or(u32::MAX) as i32 as i64 as u64
            }
            Code::Remw => {
                let (a, b) = (a as i32, b as i32);
                let v = if b == 0 {
                    a
                } else if a == i32::MIN && b == -1 {
                    0
                } else {
                    a % b
                };
                v as i64 as u64
            }
            Code::Remuw => {
                let (a, b) = (a as u32, b as u32);
                let v = if b == 0 { a } else { a % b };
                v as i32 as i64 as u64
            }
            Code::Addi => a.wrapping_add(imm as u64),
            Code::Slti => ((a as i64) < imm) as u64,
            Code::Sltiu => (a < imm as u64) as u64,
            Code::Xori => a ^ imm as u64,
            Code::Ori => a | imm as u64,
            Code::Andi => a & imm as u64,
            Code::Slli => a << (imm & 0x3f),
            Code::Srli => a >> (imm & 0x3f),
            Code::Srai => ((a as i64) >> (imm & 0x3f)) as u64,
            Code::Addiw => (a.wrapping_add(imm as u64) as i32) as i64 as u64,
            Code::Slliw => (((a as u32) << (imm & 0x1f)) as i32) as i64 as u64,
            Code::Srliw => (((a as u32) >> (imm & 0x1f)) as i32) as i64 as u64,
            Code::Sraiw => (((a as i32) >> (imm & 0x1f)) as i64) as u64,
            Code::Beq => return Ok(branch(emit, pc, imm, a == b)),
            Code::Bne => return Ok(branch(emit, pc, imm, a != b)),
            Code::Blt => return Ok(branch(emit, pc, imm, (a as i64) < (b as i64))),
            Code::Bge => return Ok(branch(emit, pc, imm, (a as i64) >= (b as i64))),
            Code::Bltu => return Ok(branch(emit, pc, imm, a < b)),
            Code::Bgeu => return Ok(branch(emit, pc, imm, a >= b)),
            Code::Lb => load(bus, emit, addr, 1)? as u8 as i8 as i64 as u64,
            Code::Lh => load(bus, emit, addr, 2)? as u16 as i16 as i64 as u64,
            Code::Lw => load(bus, emit, addr, 4)? as u32 as i32 as i64 as u64,
            Code::Ld => load(bus, emit, addr, 8)?,
            Code::Lbu => load(bus, emit, addr, 1)?,
            Code::Lhu => load(bus, emit, addr, 2)?,
            Code::Lwu => load(bus, emit, addr, 4)?,
            Code::Sb => return store(bus, emit, addr, 1, b),
            Code::Sh => return store(bus, emit, addr, 2, b),
            Code::Sw => return store(bus, emit, addr, 4, b),
            Code::Sd => return store(bus, emit, addr, 8, b),
            Code::Lui => imm as u64,
            Code::Auipc => pc.wrapping_add(imm as u64),
            Code::Jal => {
                self.set(op.rd, pc.wrapping_add(4));
                return Ok(Done::Jump(op.target(pc)));
            }
            Code::Jalr => {
                let target = addr & !1;
                self.set(op.rd, pc.wrapping_add(4));
                emit.jump(target);
                return Ok(Done::Jump(target));
            }
            Code::Counter => {
                sync(self, emit, true);
                self.cycle
            }
            Code::Csrrw | Code::Csrrs | Code::Csrrc => {
                sync(self, emit, false);
                self.csr(op, a)
            }
            Code::Csrrwi | Code::Csrrsi | Code::Csrrci => {
                sync(self, emit, false);
                self.csr(op, u64::from(op.rs1))
            }
            Code::Fence => return Ok(Done::Next),
            Code::Ecall => return Ok(Done::Ecall),
            Code::Ebreak => return Ok(Done::Ebreak),
            Code::Illegal => {
                let word = op.imm as u32;
                return Err(Trap::IllegalInstruction { word, pc });
            }
            Code::Unmapped => return Ok(Done::Unmapped),
            Code::End => return Ok(Done::End),
        };
        self.set(op.rd, value);
        Ok(Done::Next)
    }

    /// A CSR access other than a clock read, with source value `src`
    /// (register or immediate; `rs1` non-zero means it writes for set and
    /// clear). Returns the old value.
    fn csr(&mut self, op: Op, src: u64) -> u64 {
        let num = op.imm as u16;
        let old = self.read_csr(num);
        match op.code {
            Code::Csrrw | Code::Csrrwi => self.write_csr(num, src),
            Code::Csrrs | Code::Csrrsi if op.rs1 != 0 => self.write_csr(num, old | src),
            Code::Csrrc | Code::Csrrci if op.rs1 != 0 => self.write_csr(num, old & !src),
            _ => {}
        }
        old
    }

    /// Runs until an `ecall`, `ebreak`, trap, or `max_steps` instructions.
    ///
    /// Returns the outcome that stopped execution, or `None` if the step
    /// budget was exhausted while still retiring normally.
    ///
    /// # Errors
    ///
    /// Propagates any [`Trap`] from [`Cpu::step`].
    pub fn run<B: Bus>(
        &mut self,
        bus: &mut B,
        max_steps: u64,
    ) -> Result<Option<StepOutcome>, Trap> {
        for _ in 0..max_steps {
            match self.step(bus)? {
                StepOutcome::Retired(_) => {}
                other => return Ok(Some(other)),
            }
        }
        Ok(None)
    }
}

/// How control leaves an op [`Cpu::exec`] ran.
pub(crate) enum Done {
    /// Retired; execution continues at the next word.
    Next,
    /// A store retired at this address; execution continues at the next
    /// word.
    Store(u64),
    /// Retired; execution continues at the target.
    Jump(u64),
    /// An `ecall` retired.
    Ecall,
    /// An `ebreak` retired.
    Ebreak,
    /// Nothing executed: a page's sentinel.
    End,
    /// Nothing executed: the word could not be fetched when its page was
    /// predecoded.
    Unmapped,
}

/// The dynamic facts of one retired op, as [`Emit`] reports them: with the
/// op they make its [`RetireKind`] ([`Facts::kind`]). [`Cpu::step`]
/// builds its record this way, and so can a consumer that walks the pages
/// a block ran on.
#[derive(Debug, Clone, Copy, Default, PartialEq, Eq)]
pub struct Facts {
    /// Whether a conditional branch was taken.
    pub taken: bool,
    /// A load or store address.
    pub addr: u64,
    /// A `jalr` target.
    pub target: u64,
}

impl Emit for Facts {
    #[inline]
    fn branch(&mut self, taken: bool) {
        self.taken = taken;
    }

    #[inline]
    fn access(&mut self, addr: u64) {
        self.addr = addr;
    }

    #[inline]
    fn jump(&mut self, target: u64) {
        self.target = target;
    }
}

impl Facts {
    /// The kind of `op`, retired at `pc` with these facts: its class,
    /// flags and static target, and the facts its class emits.
    pub fn kind(&self, op: Op, pc: u64) -> RetireKind {
        match op.class() {
            Class::Alu => RetireKind::Alu,
            Class::Mul => RetireKind::Mul,
            Class::Div => RetireKind::Div,
            Class::Csr => RetireKind::Csr,
            Class::System => RetireKind::System,
            Class::Load => RetireKind::Load { addr: self.addr },
            Class::Store => RetireKind::Store { addr: self.addr },
            Class::Branch => RetireKind::Branch {
                taken: self.taken,
                target: op.target(pc),
            },
            Class::Jump => RetireKind::Jump {
                target: op.target(pc),
                call: op.is_call(),
            },
            Class::JumpReg => RetireKind::JumpReg {
                target: self.target,
                call: op.is_call(),
                ret: op.is_ret(),
            },
            Class::Ecall | Class::Ebreak | Class::Stop => {
                unreachable!("{op:?} retires no record")
            }
        }
    }
}

/// A conditional branch at `pc` by `offset`.
#[inline(always)]
fn branch<E: Emit + ?Sized>(emit: &mut E, pc: u64, offset: i64, taken: bool) -> Done {
    emit.branch(taken);
    if taken {
        Done::Jump(pc.wrapping_add(offset as u64))
    } else {
        Done::Next
    }
}

/// A naturally-aligned load of `size` bytes, zero-extended.
#[inline(always)]
fn load<B: Bus, E: Emit + ?Sized>(
    bus: &mut B,
    emit: &mut E,
    addr: u64,
    size: usize,
) -> Result<u64, Trap> {
    if !addr.is_multiple_of(size as u64) {
        return Err(Trap::Misaligned { addr });
    }
    let value = bus.load(addr, size)?;
    emit.access(addr);
    Ok(value)
}

/// A naturally-aligned store of the low `size` bytes of `value`.
#[inline(always)]
fn store<B: Bus, E: Emit + ?Sized>(
    bus: &mut B,
    emit: &mut E,
    addr: u64,
    size: usize,
    value: u64,
) -> Result<Done, Trap> {
    if !addr.is_multiple_of(size as u64) {
        return Err(Trap::Misaligned { addr });
    }
    bus.store(addr, size, value)?;
    emit.access(addr);
    Ok(Done::Store(addr))
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::encode::encode;
    use crate::inst::{AluImmOp, AluOp, Inst};
    use crate::mem::FlatMemory;

    fn program(insts: &[Inst]) -> FlatMemory {
        let mut m = FlatMemory::new(1 << 16);
        for (i, inst) in insts.iter().enumerate() {
            let w = encode(inst).unwrap();
            m.store(4 * i as u64, 4, w as u64).unwrap();
        }
        m
    }

    fn run_until_ecall(cpu: &mut Cpu, mem: &mut FlatMemory) {
        match cpu.run(mem, 10_000).unwrap() {
            Some(StepOutcome::Ecall) => {}
            other => panic!("expected ecall, got {other:?}"),
        }
    }

    #[test]
    fn arithmetic_loop() {
        // sum 1..=10 into a0
        use crate::inst::*;
        let mut mem = program(&[
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
            // loop:
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
        let mut cpu = Cpu::new(0);
        run_until_ecall(&mut cpu, &mut mem);
        assert_eq!(cpu.read_reg(Reg::A0), 55);
    }

    #[test]
    fn x0_is_hardwired() {
        use crate::inst::*;
        let mut mem = program(&[
            Inst::AluImm {
                op: AluImmOp::Addi,
                rd: Reg::ZERO,
                rs1: Reg::ZERO,
                imm: 42,
            },
            Inst::Ecall,
        ]);
        let mut cpu = Cpu::new(0);
        run_until_ecall(&mut cpu, &mut mem);
        assert_eq!(cpu.read_reg(Reg::ZERO), 0);
    }

    #[test]
    fn load_store_sign_extension() {
        use crate::inst::*;
        let mut mem = program(&[
            // store 0xFF byte at 0x100, load signed and unsigned
            Inst::AluImm {
                op: AluImmOp::Addi,
                rd: Reg::T0,
                rs1: Reg::ZERO,
                imm: 0xff,
            },
            Inst::Store {
                width: MemWidth::B,
                rs2: Reg::T0,
                rs1: Reg::ZERO,
                offset: 0x100,
            },
            Inst::Load {
                width: MemWidth::B,
                rd: Reg::A0,
                rs1: Reg::ZERO,
                offset: 0x100,
            },
            Inst::Load {
                width: MemWidth::Bu,
                rd: Reg::A1,
                rs1: Reg::ZERO,
                offset: 0x100,
            },
            Inst::Ecall,
        ]);
        let mut cpu = Cpu::new(0);
        run_until_ecall(&mut cpu, &mut mem);
        assert_eq!(cpu.read_reg(Reg::A0), u64::MAX); // sign-extended -1
        assert_eq!(cpu.read_reg(Reg::A1), 0xff);
    }

    /// `op` on `a` and `b`, through one step.
    fn alu(op: AluOp, a: u64, b: u64) -> u64 {
        let mut mem = program(&[Inst::Alu {
            op,
            rd: Reg::A0,
            rs1: Reg::T0,
            rs2: Reg::T1,
        }]);
        let mut cpu = Cpu::new(0);
        cpu.write_reg(Reg::T0, a);
        cpu.write_reg(Reg::T1, b);
        cpu.step(&mut mem).unwrap();
        cpu.read_reg(Reg::A0)
    }

    #[test]
    fn division_edge_cases() {
        assert_eq!(alu(AluOp::Div, 7, 0), u64::MAX);
        assert_eq!(alu(AluOp::Rem, 7, 0), 7);
        assert_eq!(
            alu(AluOp::Div, i64::MIN as u64, -1i64 as u64),
            i64::MIN as u64
        );
        assert_eq!(alu(AluOp::Rem, i64::MIN as u64, -1i64 as u64), 0);
        assert_eq!(alu(AluOp::Divu, 7, 0), u64::MAX);
        assert_eq!(alu(AluOp::Remu, 7, 0), 7);
        assert_eq!(
            alu(AluOp::Divw, i32::MIN as u64, -1i64 as u64),
            i32::MIN as i64 as u64
        );
    }

    #[test]
    fn word_ops_sign_extend() {
        assert_eq!(alu(AluOp::Addw, 0x7fff_ffff, 1), 0xffff_ffff_8000_0000);
        assert_eq!(alu(AluOp::Sllw, 1, 31), 0xffff_ffff_8000_0000);
        let mut mem = program(&[Inst::AluImm {
            op: AluImmOp::Addiw,
            rd: Reg::A0,
            rs1: Reg::T0,
            imm: 1,
        }]);
        let mut cpu = Cpu::new(0);
        cpu.write_reg(Reg::T0, 0xffff_ffff);
        cpu.step(&mut mem).unwrap();
        assert_eq!(cpu.read_reg(Reg::A0), 0);
    }

    #[test]
    fn mulh_variants() {
        let a = 0x8000_0000_0000_0000u64; // i64::MIN
        assert_eq!(alu(AluOp::Mulhu, a, 2), 1);
        assert_eq!(alu(AluOp::Mulh, a, 2), u64::MAX); // -2^63 * 2 >> 64 = -1
    }

    #[test]
    fn misaligned_load_traps() {
        use crate::inst::*;
        let mut mem = program(&[Inst::Load {
            width: MemWidth::W,
            rd: Reg::A0,
            rs1: Reg::ZERO,
            offset: 0x101,
        }]);
        let mut cpu = Cpu::new(0);
        match cpu.step(&mut mem) {
            Err(Trap::Misaligned { addr }) => assert_eq!(addr, 0x101),
            other => panic!("unexpected {other:?}"),
        }
        // PC unchanged on trap
        assert_eq!(cpu.pc, 0);
    }

    #[test]
    fn illegal_instruction_traps() {
        let mut mem = FlatMemory::new(64);
        mem.store(0, 4, 0xffff_ffff).unwrap();
        let mut cpu = Cpu::new(0);
        assert!(matches!(
            cpu.step(&mut mem),
            Err(Trap::IllegalInstruction { .. })
        ));
    }

    #[test]
    fn counters_advance() {
        use crate::inst::*;
        let mut mem = program(&[
            Inst::AluImm {
                op: AluImmOp::Addi,
                rd: Reg::T0,
                rs1: Reg::ZERO,
                imm: 1,
            },
            Inst::Csr {
                op: CsrOp::Rs,
                rd: Reg::A0,
                rs1: Reg::ZERO,
                csr: csr::INSTRET,
            },
            Inst::Ecall,
        ]);
        let mut cpu = Cpu::new(0);
        run_until_ecall(&mut cpu, &mut mem);
        assert_eq!(cpu.read_reg(Reg::A0), 1); // instret observed before csr retires
        assert_eq!(cpu.instret, 3);
    }

    #[test]
    fn jal_links_and_jumps() {
        use crate::inst::*;
        let mut mem = program(&[
            Inst::Jal {
                rd: Reg::RA,
                offset: 8,
            },
            Inst::Ebreak, // skipped
            Inst::Ecall,
        ]);
        let mut cpu = Cpu::new(0);
        run_until_ecall(&mut cpu, &mut mem);
        assert_eq!(cpu.read_reg(Reg::RA), 4);
    }

    #[test]
    fn retired_record_stays_slim() {
        // Every retired instruction crosses into the timing model; the
        // record carries addresses and flags, never the decoded `Inst`.
        assert_eq!(std::mem::size_of::<Retired>(), 32);
    }

    #[test]
    fn jumps_flag_calls_and_returns() {
        use crate::inst::*;
        let jalr = |rd, rs1| Inst::Jalr { rd, rs1, offset: 0 };
        // (instruction, expected kind); ra = 0x40 and t0 = 0x80.
        let table = [
            (
                Inst::Jal {
                    rd: Reg::RA,
                    offset: 8,
                },
                RetireKind::Jump {
                    target: 8,
                    call: true,
                },
            ),
            (
                Inst::Jal {
                    rd: Reg::ZERO,
                    offset: 8,
                },
                RetireKind::Jump {
                    target: 8,
                    call: false,
                },
            ),
            (
                Inst::Jal {
                    rd: Reg::T0,
                    offset: 8,
                },
                RetireKind::Jump {
                    target: 8,
                    call: false,
                },
            ),
            (
                jalr(Reg::ZERO, Reg::RA),
                RetireKind::JumpReg {
                    target: 0x40,
                    call: false,
                    ret: true,
                },
            ),
            (
                jalr(Reg::RA, Reg::T0),
                RetireKind::JumpReg {
                    target: 0x80,
                    call: true,
                    ret: false,
                },
            ),
            (
                jalr(Reg::ZERO, Reg::T0),
                RetireKind::JumpReg {
                    target: 0x80,
                    call: false,
                    ret: false,
                },
            ),
        ];
        for (inst, kind) in table {
            let mut mem = program(&[inst]);
            let mut cpu = Cpu::new(0);
            cpu.write_reg(Reg::RA, 0x40);
            cpu.write_reg(Reg::T0, 0x80);
            match cpu.step(&mut mem) {
                Ok(StepOutcome::Retired(r)) => assert_eq!(r.kind, kind, "{inst:?}"),
                other => panic!("{inst:?}: unexpected {other:?}"),
            }
        }
    }

    #[test]
    fn jalr_clears_low_bit() {
        use crate::inst::*;
        let mut mem = program(&[
            Inst::AluImm {
                op: AluImmOp::Addi,
                rd: Reg::T0,
                rs1: Reg::ZERO,
                imm: 9,
            },
            Inst::Jalr {
                rd: Reg::ZERO,
                rs1: Reg::T0,
                offset: 0,
            },
            Inst::Ecall, // at 8: target of the jalr (9 & !1 = 8)
        ]);
        let mut cpu = Cpu::new(0);
        run_until_ecall(&mut cpu, &mut mem);
        assert_eq!(cpu.pc, 12);
    }
}
