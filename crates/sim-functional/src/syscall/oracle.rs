//! Differential oracle for block stepping.
//!
//! Generated RV64IM programs run twice: through [`UserRunner::run`], which
//! executes predecoded blocks, and through a per-instruction reference
//! loop built on [`Cpu::step`] that syncs the clock before every
//! instruction and drains the UART after every one. The retired streams,
//! the final CPU, memory, serial output, files and exit status must be
//! identical, under both the functional timing and a recording one whose
//! clock moves with every event. Budgets are small, so many runs stop in
//! the middle of a block and resume from there.
//!
//! The programs mix ALU and M-extension ops; loads and stores, including
//! stores into the executing code page and the others; branches, `jal`
//! and `jalr` to misaligned, unmapped and data targets; illegal words;
//! `cycle`/`time` reads inside counted loops; MMIO UART output; a remote
//! window; and WRITE/READ/ARGV syscalls that write guest memory, code
//! pages included. Destinations and sources are sometimes `x0`, `auipc`
//! takes random upper immediates, and many programs start a few words
//! before a page's end. Seeds are fixed ([`marshal_qcheck::MASTER_SEED`]).
//!
//! Both loops share one executor, so the reference also checks every step
//! against an independent statement of the ISA ([`expected`]): the value
//! each ALU, ALU-immediate, `lui`, `auipc` and jump leaves in its
//! destination, where each branch and jump goes, and that `x0` stays zero.
//!
//! The test also asserts that the 400 programs reach every [`Code`] of
//! the predecoded op table and every way a block can end: falling through
//! the page's sentinel, a taken jump out of the page, a misaligned target,
//! a store into the executing page, a counter read, a trap and a budget
//! stop. Both loops retire the same stream, so the reference observes
//! these on it.

use std::collections::{BTreeSet, HashSet};

use marshal_isa::decode::decode;
use marshal_isa::encode::encode;
use marshal_isa::inst::{csr, AluImmOp, AluOp, BranchCond, CsrOp, Inst, MemWidth};
use marshal_isa::interp::StepOutcome;
use marshal_isa::predecode::{Code, Op};
use marshal_qcheck::{cases, Rng};

use super::tests::TestOs;
use super::*;

/// Code starts here and spans up to three pages.
const CODE: u64 = abi::USER_BASE;
const CODE_WORDS: usize = 3 * 1024;
/// Two pages of data; the file name `/in` sits at its start.
const DATA: u64 = 0x3_0000;
/// An address past the end of user memory.
const UNMAPPED: i64 = 0x90_0000;

const CSRS: [u16; 4] = [csr::CYCLE, csr::TIME, csr::INSTRET, csr::MSCRATCH];

/// Registers random instructions may overwrite.
const POOL: [Reg; 10] = [
    Reg::T0,
    Reg::T1,
    Reg::T2,
    Reg::T3,
    Reg::T4,
    Reg::T5,
    Reg::T6,
    Reg::A3,
    Reg::A4,
    Reg::A5,
];
/// A destination or source: mostly from [`POOL`], sometimes `x0`.
fn reg(rng: &mut Rng) -> Reg {
    if rng.below(12) == 0 {
        Reg::ZERO
    } else {
        *rng.pick(&POOL)
    }
}

/// Code page bases: page 0, 1 and 2.
const CODE_BASES: [Reg; 3] = [Reg::S0, Reg::S3, Reg::S4];
/// Holds the encoding of a valid instruction, for stores into code.
const VALID_WORD: Reg = Reg::S9;
/// The loop counter of generated counted loops.
const COUNTER: Reg = Reg::S8;

fn addi(rd: Reg, rs1: Reg, imm: i64) -> Inst {
    Inst::AluImm {
        op: AluImmOp::Addi,
        rd,
        rs1,
        imm,
    }
}

fn syscall(code: &mut Vec<u32>, sys: u64, args: &[(Reg, Reg, i64)]) {
    for &(rd, rs1, imm) in args {
        push(code, addi(rd, rs1, imm));
    }
    push(code, addi(Reg::A7, Reg::ZERO, sys as i64));
    push(code, Inst::Ecall);
}

fn push(code: &mut Vec<u32>, inst: Inst) {
    code.push(encode(&inst).unwrap_or_else(|e| panic!("{inst:?}: {e}")));
}

/// Loads the 32-bit `value` into `rd` (lui + addi).
fn li32(code: &mut Vec<u32>, rd: Reg, value: i64) {
    let upper = (value + 0x800) & !0xfff;
    push(code, Inst::Lui { rd, imm: upper });
    push(code, addi(rd, rd, value - upper));
}

/// A random ALU, load, store or counter instruction (a store that patches
/// nearby code takes two): the straight-line material of loop bodies.
fn simple(rng: &mut Rng, code: &mut Vec<u32>, uart: bool) {
    let rd = reg(rng);
    let rs = reg(rng);
    let inst = match rng.below(100) {
        0..=29 => Inst::Alu {
            op: *rng.pick(&AluOp::ALL),
            rd,
            rs1: rs,
            rs2: reg(rng),
        },
        30..=54 => {
            let op = *rng.pick(&AluImmOp::ALL);
            let imm = match op {
                AluImmOp::Slli | AluImmOp::Srli | AluImmOp::Srai => rng.range_i64(0, 64),
                AluImmOp::Slliw | AluImmOp::Srliw | AluImmOp::Sraiw => rng.range_i64(0, 32),
                _ => rng.range_i64(-2048, 2048),
            };
            Inst::AluImm {
                op,
                rd,
                rs1: rs,
                imm,
            }
        }
        55..=57 => Inst::Lui {
            rd,
            imm: rng.range_i64(-0x8_0000, 0x8_0000) << 12,
        },
        58..=59 => Inst::Auipc {
            rd,
            imm: rng.range_i64(-0x8_0000, 0x8_0000) << 12,
        },
        60..=74 => {
            let width = *rng.pick(&MemWidth::ALL);
            let base = *rng.pick(&[Reg::S1, Reg::S1, Reg::S0, Reg::S3, Reg::S7]);
            Inst::Load {
                width,
                rd,
                rs1: base,
                offset: offset(rng, width),
            }
        }
        75..=79 => {
            // Patch a word near the PC: the next few instructions, or an
            // earlier one that a loop runs again.
            let rd = *rng.pick(&POOL);
            push(code, Inst::Auipc { rd, imm: 0 });
            let value = *rng.pick(&[VALID_WORD, VALID_WORD, Reg::ZERO, rs]);
            Inst::Store {
                width: MemWidth::W,
                rs2: value,
                rs1: rd,
                offset: 4 * rng.range_i64(-6, 9),
            }
        }
        80..=89 => {
            let width = *rng.pick(&MemWidth::ALL[..4]);
            let (base, rs2) = match rng.below(20) {
                0 => (*rng.pick(&CODE_BASES), VALID_WORD),
                1 => (*rng.pick(&CODE_BASES), rs),
                2..=4 if uart => (Reg::S6, rs),
                5..=6 => (Reg::S7, rs),
                _ => (Reg::S1, rs),
            };
            let width = if rs2 == VALID_WORD {
                MemWidth::W
            } else {
                width
            };
            Inst::Store {
                width,
                rs2,
                rs1: base,
                offset: offset(rng, width),
            }
        }
        _ => counter(rng, rd),
    };
    push(code, inst);
}

/// A mostly aligned offset in `[-2048, 2048)` for an access of `width`.
fn offset(rng: &mut Rng, width: MemWidth) -> i64 {
    let size = width.bytes() as i64;
    let aligned = rng.range_i64(-2048 / size, 2048 / size) * size;
    if rng.below(30) == 0 {
        (aligned + 1).min(2047)
    } else {
        aligned
    }
}

/// A CSR access, mostly a `cycle`/`time` read.
fn counter(rng: &mut Rng, rd: Reg) -> Inst {
    let csr = if rng.below(4) == 0 {
        *rng.pick(&CSRS)
    } else {
        *rng.pick(&[csr::CYCLE, csr::TIME])
    };
    let op = if rng.below(4) == 0 {
        *rng.pick(&[CsrOp::Rw, CsrOp::Rs, CsrOp::Rc])
    } else {
        CsrOp::Rs
    };
    if rng.bool() {
        Inst::Csr {
            op,
            rd,
            rs1: if rng.below(4) == 0 {
                *rng.pick(&POOL)
            } else {
                Reg::ZERO
            },
            csr,
        }
    } else {
        Inst::CsrImm {
            op,
            rd,
            zimm: rng.range_u64(0, 32) as u8,
            csr,
        }
    }
}

/// A random control transfer, syscall, or odd word.
fn control(rng: &mut Rng, code: &mut Vec<u32>) {
    let rs = *rng.pick(&POOL);
    match rng.below(100) {
        0..=34 => {
            // Mostly word-aligned targets; `+ 2` leaves the PC misaligned.
            let words = rng.range_i64(-16, 17);
            let skew = if rng.below(10) == 0 { 2 } else { 0 };
            let rs2 = if rng.bool() {
                Reg::ZERO
            } else {
                *rng.pick(&POOL)
            };
            push(
                code,
                Inst::Branch {
                    cond: *rng.pick(&BranchCond::ALL),
                    rs1: rs,
                    rs2,
                    offset: 4 * words + skew,
                },
            );
        }
        35..=44 => {
            let words = rng.range_i64(1, 17) * if rng.bool() { 1 } else { -1 };
            push(
                code,
                Inst::Jal {
                    rd: *rng.pick(&[Reg::ZERO, Reg::RA]),
                    offset: 4 * words,
                },
            );
        }
        45..=54 => {
            // Into code (any alignment), data (zero words: illegal), or
            // unmapped memory.
            let base = *rng.pick(&[Reg::S0, Reg::S3, Reg::S4, Reg::S1, Reg::S5]);
            push(
                code,
                Inst::Jalr {
                    rd: *rng.pick(&[Reg::ZERO, Reg::RA]),
                    rs1: base,
                    offset: rng.range_i64(-64, 2048),
                },
            );
        }
        55..=59 => {
            let random = rng.next_u64() as u32;
            code.push(*rng.pick(&[0, 0xffff_ffff, random]));
        }
        60..=61 => push(code, Inst::Ebreak),
        62 => {
            // Straddle words so a counter read and a jump back to
            // alignment execute at misaligned PCs: `jal +6` lands on the
            // upper half of the next word. 0x0013 (half a `nop`) pads.
            let skip = Inst::Jal {
                rd: Reg::ZERO,
                offset: 6,
            };
            let read = encode(&counter(rng, rs)).unwrap();
            let back = encode(&skip).unwrap();
            push(code, skip);
            code.push(0x0013 | read << 16);
            code.push(read >> 16 | back << 16);
            code.push(back >> 16 | 0x0013 << 16);
        }
        63..=66 => push(code, Inst::Fence),
        _ => {
            // WRITE/READ/ARGV land in data or code pages.
            let dest = *rng.pick(&[Reg::S1, Reg::S1, Reg::S0, Reg::S3, Reg::S4]);
            let at = rng.range_i64(-2048, 2040);
            let len = rng.range_i64(0, 24);
            match rng.below(8) {
                0..=1 => syscall(
                    code,
                    sys::WRITE,
                    &[
                        (Reg::A0, Reg::ZERO, 1),
                        (Reg::A1, dest, at),
                        (Reg::A2, Reg::ZERO, len),
                    ],
                ),
                2 => {
                    // Read over the words right after the `ecall`.
                    push(
                        code,
                        Inst::Auipc {
                            rd: Reg::A1,
                            imm: 0,
                        },
                    );
                    syscall(
                        code,
                        sys::READ,
                        &[
                            (Reg::A1, Reg::A1, 20),
                            (Reg::A0, Reg::S2, 0),
                            (Reg::A2, Reg::ZERO, 4 * rng.range_i64(1, 5)),
                        ],
                    );
                }
                3..=4 => syscall(
                    code,
                    sys::READ,
                    &[
                        (Reg::A0, Reg::S2, 0),
                        (Reg::A1, dest, at),
                        (Reg::A2, Reg::ZERO, len),
                    ],
                ),
                5 => syscall(
                    code,
                    sys::ARGV,
                    &[
                        (Reg::A0, Reg::ZERO, rng.range_i64(0, 3)),
                        (Reg::A1, dest, at),
                        (Reg::A2, Reg::ZERO, len),
                    ],
                ),
                6 => syscall(code, sys::TRACE, &[(Reg::A0, rs, 0)]),
                _ => syscall(code, 999, &[]),
            }
        }
    }
}

/// A counted loop with a counter read in its body.
fn counted_loop(rng: &mut Rng, code: &mut Vec<u32>, uart: bool) {
    push(code, addi(COUNTER, Reg::ZERO, rng.range_i64(2, 40)));
    let top = code.len();
    for _ in 0..rng.range_usize(1, 6) {
        simple(rng, code, uart);
    }
    let rd = *rng.pick(&POOL);
    push(code, counter(rng, rd));
    push(code, addi(COUNTER, COUNTER, -1));
    let back = (top as i64 - code.len() as i64) * 4;
    push(
        code,
        Inst::Branch {
            cond: BranchCond::Ne,
            rs1: COUNTER,
            rs2: Reg::ZERO,
            offset: back,
        },
    );
}

/// One generated program: the executable and whether its UART is mapped.
fn program(rng: &mut Rng) -> (MexeFile, bool) {
    let uart = rng.bool();
    let mut code = Vec::new();
    for (reg, value) in [
        (Reg::S0, CODE as i64),
        (Reg::S3, CODE as i64 + 0x1000),
        (Reg::S4, CODE as i64 + 0x2000),
        (Reg::S1, DATA as i64),
        (Reg::S5, UNMAPPED),
        (Reg::S6, UART_TX as i64),
    ] {
        push(
            &mut code,
            Inst::Lui {
                rd: reg,
                imm: value,
            },
        );
    }
    let valid = encode(&addi(Reg::A3, Reg::A3, 1)).unwrap();
    li32(&mut code, VALID_WORD, i64::from(valid));
    // Open `/in` for READ; its descriptor lives in s2.
    syscall(
        &mut code,
        sys::OPEN,
        &[(Reg::A0, Reg::S1, 0), (Reg::A1, Reg::ZERO, 0)],
    );
    push(&mut code, addi(Reg::S2, Reg::A0, 0));
    if rng.bool() {
        syscall(&mut code, sys::MMAP_REMOTE, &[(Reg::A0, Reg::ZERO, 2)]);
        push(&mut code, addi(Reg::S7, Reg::A0, 0x7f8));
    } else {
        push(&mut code, addi(Reg::S7, Reg::S1, 0x7f8));
    }
    let len = rng.range_usize(code.len() + 16, CODE_WORDS - 16);
    if len > 1040 && rng.bool() {
        // Start a few words short of the first page's end, so execution
        // falls through into the next page.
        let target = 1024 - rng.range_i64(1, 12);
        let offset = 4 * (target - code.len() as i64);
        push(
            &mut code,
            Inst::Jal {
                rd: Reg::ZERO,
                offset,
            },
        );
    }
    while code.len() < len {
        match rng.below(10) {
            0..=5 => simple(rng, &mut code, uart),
            6..=8 => control(rng, &mut code),
            _ => counted_loop(rng, &mut code, uart),
        }
    }
    if rng.bool() {
        syscall(&mut code, sys::EXIT, &[(Reg::A0, Reg::A3, 0)]);
    }
    let mut exe = MexeFile::new(CODE);
    exe.push_segment(CODE, code.iter().flat_map(|w| w.to_le_bytes()).collect());
    let mut data = b"/in\0".to_vec();
    data.extend(rng.bytes(2 * 4096 - 4));
    exe.push_segment(DATA, data);
    (exe, uart)
}

/// One event a timing model received.
#[derive(Debug, PartialEq)]
enum Event {
    Retire(Retired, bool),
    Syscall(u64),
}

/// Every event a timing model receives, with a clock that moves with
/// each one so a stale counter read shows.
#[derive(Debug, Default, PartialEq)]
struct Recording {
    events: Vec<Event>,
}

impl Timing for Recording {
    fn cycles(&mut self) -> Option<u64> {
        Some(7 * self.events.len() as u64 + 3)
    }

    fn retire(&mut self, r: &Retired, is_remote: bool) {
        self.events.push(Event::Retire(*r, is_remote));
    }

    fn syscall(&mut self, sys: u64) {
        self.events.push(Event::Syscall(sys));
    }
}

/// `op` on `a` and `b`, stated apart from the interpreter: 128-bit
/// arithmetic for products and quotients, and `w` for the 32-bit forms.
fn spec_alu(op: AluOp, a: u64, b: u64) -> u64 {
    let (sa, sb) = (i128::from(a as i64), i128::from(b as i64));
    let w = |v: i64| v as i32 as i64 as u64;
    let (x32, y32) = (i64::from(a as i32), i64::from(b as i32));
    let (ux32, uy32) = (u64::from(a as u32), u64::from(b as u32));
    match op {
        AluOp::Add => a.wrapping_add(b),
        AluOp::Sub => a.wrapping_sub(b),
        AluOp::Sll => a << (b & 63),
        AluOp::Slt => u64::from(sa < sb),
        AluOp::Sltu => u64::from(a < b),
        AluOp::Xor => a ^ b,
        AluOp::Srl => a >> (b & 63),
        AluOp::Sra => ((a as i64) >> (b & 63)) as u64,
        AluOp::Or => a | b,
        AluOp::And => a & b,
        AluOp::Addw => w(x32 + y32),
        AluOp::Subw => w(x32 - y32),
        AluOp::Sllw => w((a << (b & 31)) as i64),
        AluOp::Srlw => w((ux32 >> (b & 31)) as i64),
        AluOp::Sraw => (x32 >> (b & 31)) as u64,
        AluOp::Mul => (sa * sb) as u64,
        AluOp::Mulh => ((sa * sb) >> 64) as u64,
        AluOp::Mulhsu => ((sa * i128::from(b)) >> 64) as u64,
        AluOp::Mulhu => ((u128::from(a) * u128::from(b)) >> 64) as u64,
        AluOp::Div if b == 0 => u64::MAX,
        AluOp::Div => (sa / sb) as u64,
        AluOp::Divu => a.checked_div(b).unwrap_or(u64::MAX),
        AluOp::Rem if b == 0 => a,
        AluOp::Rem => (sa % sb) as u64,
        AluOp::Remu => a.checked_rem(b).unwrap_or(a),
        AluOp::Mulw => w(x32 * y32),
        AluOp::Divw if y32 == 0 => u64::MAX,
        AluOp::Divw => w(x32 / y32),
        AluOp::Divuw => w(ux32.checked_div(uy32).unwrap_or(u64::MAX) as i64),
        AluOp::Remw if y32 == 0 => w(x32),
        AluOp::Remw => w(x32 % y32),
        AluOp::Remuw => w(ux32.checked_rem(uy32).unwrap_or(ux32) as i64),
    }
}

/// The register-register form of `op`.
fn reg_form(op: AluImmOp) -> AluOp {
    match op {
        AluImmOp::Addi => AluOp::Add,
        AluImmOp::Slti => AluOp::Slt,
        AluImmOp::Sltiu => AluOp::Sltu,
        AluImmOp::Xori => AluOp::Xor,
        AluImmOp::Ori => AluOp::Or,
        AluImmOp::Andi => AluOp::And,
        AluImmOp::Slli => AluOp::Sll,
        AluImmOp::Srli => AluOp::Srl,
        AluImmOp::Srai => AluOp::Sra,
        AluImmOp::Addiw => AluOp::Addw,
        AluImmOp::Slliw => AluOp::Sllw,
        AluImmOp::Srliw => AluOp::Srlw,
        AluImmOp::Sraiw => AluOp::Sraw,
    }
}

/// What the instruction at the PC must leave behind if it retires:
/// `(destination, value, next pc)`, for the ops that write a register or
/// move control; `None` for the rest.
fn expected(cpu: &Cpu, bus: &mut UserBus) -> Option<(Reg, u64, u64)> {
    let pc = cpu.pc;
    let r = |reg| cpu.read_reg(reg);
    let next = pc.wrapping_add(4);
    Some(match decode(bus.fetch(pc).ok()?).ok()? {
        Inst::Alu { op, rd, rs1, rs2 } => (rd, spec_alu(op, r(rs1), r(rs2)), next),
        Inst::AluImm { op, rd, rs1, imm } => (rd, spec_alu(reg_form(op), r(rs1), imm as u64), next),
        Inst::Lui { rd, imm } => (rd, imm as u64, next),
        Inst::Auipc { rd, imm } => (rd, pc.wrapping_add(imm as u64), next),
        Inst::Jal { rd, offset } => (rd, next, pc.wrapping_add(offset as u64)),
        Inst::Jalr { rd, rs1, offset } => (rd, next, r(rs1).wrapping_add(offset as u64) & !1),
        Inst::Branch {
            cond,
            rs1,
            rs2,
            offset,
        } => {
            let taken = cond.eval(r(rs1), r(rs2));
            let target = if taken {
                pc.wrapping_add(offset as u64)
            } else {
                next
            };
            (Reg::ZERO, 0, target)
        }
        _ => return None,
    })
}

/// What the reference run reached: the op codes it executed and the
/// block ends it passed.
#[derive(Debug, Default)]
struct Coverage {
    codes: HashSet<Code>,
    ends: BTreeSet<&'static str>,
}

impl Coverage {
    /// Notes the op about to run at `pc`, as the predecoded table holds it.
    fn op(&mut self, bus: &mut UserBus, pc: u64) {
        if pc & 3 == 0 {
            let code = bus
                .fetch(pc)
                .map_or(Code::Unmapped, |w| Op::decode(w).code());
            if code == Code::Counter {
                self.ends.insert("counter read");
            }
            self.codes.insert(code);
        }
    }

    /// Notes how a retired instruction leaves its page.
    fn retired(&mut self, r: &Retired) {
        let page = |a: u64| a & !(PAGE_SIZE - 1);
        if r.next_pc & 3 != 0 {
            self.ends.insert("misaligned target");
        } else if page(r.next_pc) != page(r.pc) {
            if r.next_pc == r.pc + 4 {
                self.codes.insert(Code::End);
                self.ends.insert("sentinel fall-through");
            } else {
                self.ends.insert("jump out of the page");
            }
        }
        if let RetireKind::Store { addr } = r.kind {
            if page(addr) == page(r.pc) {
                self.ends.insert("store into the executing page");
            }
        }
    }
}

/// The reference: the per-instruction step loop, with the clock synced
/// before and the UART drained after every instruction.
fn run_reference<T: Timing>(
    runner: &mut UserRunner,
    os: &mut TestOs,
    budget: u64,
    timing: &mut T,
    coverage: &mut Coverage,
) -> Result<(Option<i64>, u64), SimError> {
    let start = runner.cpu.instret;
    if runner.exited.is_some() {
        return Ok((runner.exited, 0));
    }
    loop {
        let executed = runner.cpu.instret - start;
        if executed > budget {
            coverage.ends.insert("budget stop");
            return Ok((None, executed));
        }
        if let Some(cycles) = timing.cycles() {
            runner.cpu.cycle = cycles;
        }
        coverage.op(&mut runner.bus, runner.cpu.pc);
        let spec = expected(&runner.cpu, &mut runner.bus);
        let step = runner.cpu.step(&mut runner.bus);
        assert_eq!(runner.cpu.read_reg(Reg::ZERO), 0, "x0 stays zero");
        let bytes = runner.bus.drain_uart();
        if !bytes.is_empty() {
            os.serial_write(&bytes);
        }
        let end = match step {
            Ok(StepOutcome::Retired(r)) => {
                if let Some((rd, value, next_pc)) = spec {
                    let value = if rd == Reg::ZERO { 0 } else { value };
                    let got = (runner.cpu.read_reg(rd), r.next_pc);
                    assert_eq!(got, (value, next_pc), "at {:#x}", r.pc);
                }
                let is_remote = match r.kind {
                    RetireKind::Load { addr } | RetireKind::Store { addr } => {
                        runner.bus.is_remote(addr)
                    }
                    _ => false,
                };
                timing.retire(&r, is_remote);
                coverage.retired(&r);
                continue;
            }
            Ok(StepOutcome::Ecall) => Ok(BlockEnd::Ecall),
            Ok(StepOutcome::Ebreak) => Ok(BlockEnd::Ebreak),
            Err(trap) => {
                coverage.ends.insert("trap");
                Err(trap)
            }
        };
        match runner.service(end, os)? {
            Some(sys) => timing.syscall(sys),
            None => return Ok((runner.exited, runner.cpu.instret - start)),
        }
    }
}

/// What a run leaves behind.
#[derive(Debug, PartialEq)]
struct Outcome<T> {
    results: Vec<Result<(Option<i64>, u64), SimError>>,
    cpu: Cpu,
    memory: Vec<u64>,
    serial: Vec<u8>,
    files: BTreeMap<String, Vec<u8>>,
    exited: Option<i64>,
    timing: T,
}

/// Runs `exe` up to three times with the given budgets (resuming after a
/// watchdog stop) through the block loop, or through the reference when
/// given a [`Coverage`] to fill.
fn execute<T: Timing>(
    exe: &MexeFile,
    uart: bool,
    budgets: &[u64],
    mut timing: T,
    mut reference: Option<&mut Coverage>,
) -> Outcome<T> {
    let mut runner = UserRunner::new(exe, &["prog".to_owned(), "argument".to_owned()]).unwrap();
    if uart {
        runner.bus.enable_uart();
    }
    let mut os = TestOs::default();
    // `/in` holds valid and illegal instruction words, for READs over code.
    let valid = encode(&addi(Reg::A4, Reg::A4, 3)).unwrap();
    let words = [valid, valid, valid, 0xffff_ffff];
    os.files.insert(
        "/in".to_owned(),
        words
            .iter()
            .cycle()
            .take(4096)
            .flat_map(|w| w.to_le_bytes())
            .collect(),
    );
    let mut results = Vec::new();
    for &budget in budgets {
        let result = match reference.as_deref_mut() {
            Some(coverage) => run_reference(&mut runner, &mut os, budget, &mut timing, coverage),
            None => runner.run(&mut os, budget, &mut timing),
        };
        let done = !matches!(result, Ok((None, _)));
        results.push(result);
        if done {
            break;
        }
    }
    let mut memory = Vec::new();
    for (base, len) in [(CODE, CODE_WORDS as u64 * 4), (DATA, 2 * 4096)] {
        for addr in (base..base + len).step_by(8) {
            memory.push(runner.bus.load(addr, 8).unwrap());
        }
    }
    if runner.bus.remote.is_some() {
        for addr in (REMOTE_BASE..REMOTE_BASE + 2 * PAGE_SIZE).step_by(8) {
            memory.push(runner.bus.load(addr, 8).unwrap());
        }
    }
    Outcome {
        results,
        cpu: runner.cpu,
        memory,
        serial: os.serial,
        files: os.files,
        exited: runner.exited,
        timing,
    }
}

#[test]
fn block_stepping_matches_the_per_instruction_reference() {
    let mut mid_block_stops = 0;
    let mut traps = 0;
    let mut coverage = Coverage::default();
    cases(400, |rng| {
        let (exe, uart) = program(rng);
        let budgets: Vec<u64> = (0..3).map(|_| rng.range_u64(0, 2500)).collect();

        let functional = execute(&exe, uart, &budgets, (), None);
        let reference = execute(&exe, uart, &budgets, (), Some(&mut coverage));
        assert_eq!(functional, reference, "functional timing");

        let timed = execute(&exe, uart, &budgets, Recording::default(), None);
        let mut reference = execute(
            &exe,
            uart,
            &budgets,
            Recording::default(),
            Some(&mut coverage),
        );
        // The reference writes the clock before every step; the block loop
        // only where a counter read observes it. Every observed value is
        // in the registers, which must match.
        reference.cpu.cycle = timed.cpu.cycle;
        assert_eq!(timed, reference, "recording timing");

        mid_block_stops += timed
            .results
            .iter()
            .filter(|r| matches!(r, Ok((None, _))))
            .count();
        traps += usize::from(timed.results.iter().any(Result::is_err));
    });
    // The generator must reach both kinds of early stop.
    assert!(mid_block_stops > 40, "{mid_block_stops} watchdog stops");
    assert!(traps > 40, "{traps} traps");
    let missing: Vec<Code> = Code::ALL
        .into_iter()
        .filter(|c| !coverage.codes.contains(c))
        .collect();
    assert!(missing.is_empty(), "op codes never executed: {missing:?}");
    let ends: Vec<&str> = coverage.ends.into_iter().collect();
    assert_eq!(
        ends,
        [
            "budget stop",
            "counter read",
            "jump out of the page",
            "misaligned target",
            "sentinel fall-through",
            "store into the executing page",
            "trap",
        ],
        "block ends reached"
    );
}
