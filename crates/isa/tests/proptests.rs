//! Property-based tests for the ISA substrate: encode/decode roundtrips,
//! `li` materialisation, ALU semantics, MEXE serialisation, and the
//! demand-paged memory against the flat reference.
//!
//! Uses the in-repo `marshal-qcheck` harness (offline build environment);
//! every case derives from a fixed seed and replays deterministically.

use std::collections::BTreeMap;

use marshal_isa::asm::{assemble, materialize_li};
use marshal_isa::decode::decode;
use marshal_isa::encode::encode;
use marshal_isa::inst::{AluImmOp, AluOp, BranchCond, Inst, MemWidth, Reg};
use marshal_isa::interp::{Cpu, StepOutcome};
use marshal_isa::mem::{Bus, FlatMemory, PagedMemory};
use marshal_isa::MexeFile;
use marshal_qcheck::{cases, Rng};

fn arb_reg(rng: &mut Rng) -> Reg {
    Reg::new(rng.range_u64(0, 32) as u8).unwrap()
}

fn arb_inst(rng: &mut Rng) -> Inst {
    let imm12 = |rng: &mut Rng| rng.range_i64(-2048, 2048);
    match rng.range_u64(0, 9) {
        0 => Inst::Lui {
            rd: arb_reg(rng),
            imm: rng.range_i64(-0x7_ffff, 0x7_ffff) << 12,
        },
        1 => Inst::Auipc {
            rd: arb_reg(rng),
            imm: rng.range_i64(-0x7_ffff, 0x7_ffff) << 12,
        },
        2 => Inst::Jal {
            rd: arb_reg(rng),
            offset: rng.range_i64(-100_000, 100_000) * 2,
        },
        3 => Inst::Jalr {
            rd: arb_reg(rng),
            rs1: arb_reg(rng),
            offset: imm12(rng),
        },
        4 => Inst::Branch {
            cond: *rng.pick(&BranchCond::ALL),
            rs1: arb_reg(rng),
            rs2: arb_reg(rng),
            offset: rng.range_i64(-2048, 2048) * 2,
        },
        5 => Inst::Load {
            width: *rng.pick(&MemWidth::ALL),
            rd: arb_reg(rng),
            rs1: arb_reg(rng),
            offset: imm12(rng),
        },
        6 => Inst::Store {
            width: *rng.pick(&MemWidth::ALL[..4]),
            rs2: arb_reg(rng),
            rs1: arb_reg(rng),
            offset: imm12(rng),
        },
        7 => Inst::AluImm {
            op: *rng.pick(&[
                AluImmOp::Addi,
                AluImmOp::Slti,
                AluImmOp::Sltiu,
                AluImmOp::Xori,
                AluImmOp::Ori,
                AluImmOp::Andi,
                AluImmOp::Addiw,
            ]),
            rd: arb_reg(rng),
            rs1: arb_reg(rng),
            imm: imm12(rng),
        },
        _ => Inst::Alu {
            op: *rng.pick(&[
                AluOp::Add,
                AluOp::Sub,
                AluOp::Sll,
                AluOp::Xor,
                AluOp::Mul,
                AluOp::Div,
                AluOp::Remu,
                AluOp::Addw,
                AluOp::Sraw,
            ]),
            rd: arb_reg(rng),
            rs1: arb_reg(rng),
            rs2: arb_reg(rng),
        },
    }
}

#[test]
fn encode_decode_roundtrip() {
    cases(512, |rng| {
        let inst = arb_inst(rng);
        let word = encode(&inst).unwrap();
        let back = decode(word).unwrap();
        assert_eq!(inst, back);
    });
}

#[test]
fn li_materialises_any_constant() {
    cases(256, |rng| {
        let imm = rng.any_i64();
        let insts = materialize_li(Reg::A0, imm);
        assert!(insts.len() <= 8, "li expansion too long: {}", insts.len());
        // Execute the sequence and verify the result.
        let mut mem = FlatMemory::new(1 << 12);
        for (i, inst) in insts.iter().enumerate() {
            let w = encode(inst).unwrap();
            mem.store(4 * i as u64, 4, w as u64).unwrap();
        }
        let halt = encode(&Inst::Ecall).unwrap();
        mem.store(4 * insts.len() as u64, 4, halt as u64).unwrap();
        let mut cpu = Cpu::new(0);
        loop {
            match cpu.step(&mut mem).unwrap() {
                StepOutcome::Retired(_) => {}
                StepOutcome::Ecall => break,
                other => panic!("unexpected {other:?}"),
            }
        }
        assert_eq!(cpu.read_reg(Reg::A0) as i64, imm);
    });
}

#[test]
fn mexe_roundtrip() {
    cases(128, |rng| {
        let entry = rng.any_u64();
        let mut f = MexeFile::new(entry);
        for _ in 0..rng.range_usize(0, 4) {
            let vaddr = rng.range_u64(0, 1 << 30);
            f.push_segment(vaddr, rng.bytes_in(0, 256));
        }
        let mut syms = BTreeMap::new();
        for _ in 0..rng.range_usize(0, 6) {
            let name = format!(
                "{}{}",
                rng.string_of("abcdefghijklmnopqrstuvwxyz_", 1, 2),
                rng.string_of("abcdefghijklmnopqrstuvwxyz0123456789_", 0, 13)
            );
            syms.insert(name, rng.any_u64());
        }
        for (name, value) in syms {
            f.define_symbol(name, value);
        }
        let bytes = f.to_bytes();
        let g = MexeFile::from_bytes(&bytes).unwrap();
        assert_eq!(f, g);
    });
}

#[test]
fn division_never_traps() {
    cases(256, |rng| {
        let a = rng.any_u64();
        let b = rng.any_u64();
        // RISC-V defines results for div-by-zero and overflow: execution
        // must retire normally for every operand pair.
        let mut mem = FlatMemory::new(256);
        for (i, op) in [
            AluOp::Div,
            AluOp::Divu,
            AluOp::Rem,
            AluOp::Remu,
            AluOp::Divw,
            AluOp::Divuw,
            AluOp::Remw,
            AluOp::Remuw,
        ]
        .iter()
        .enumerate()
        {
            let w = encode(&Inst::Alu {
                op: *op,
                rd: Reg::A2,
                rs1: Reg::A0,
                rs2: Reg::A1,
            })
            .unwrap();
            mem.store(4 * i as u64, 4, w as u64).unwrap();
        }
        mem.store(32, 4, encode(&Inst::Ecall).unwrap() as u64)
            .unwrap();
        let mut cpu = Cpu::new(0);
        cpu.write_reg(Reg::A0, a);
        cpu.write_reg(Reg::A1, b);
        let out = cpu.run(&mut mem, 64).unwrap();
        assert_eq!(out, Some(StepOutcome::Ecall));
    });
}

#[test]
fn flat_memory_store_load() {
    cases(256, |rng| {
        let addr = rng.range_u64(0, 4000);
        let val = rng.any_u64();
        let size = *rng.pick(&[1usize, 2, 4, 8]);
        if addr as usize + size > 4096 {
            return;
        }
        let mut m = FlatMemory::new(4096);
        m.store(addr, size, val).unwrap();
        let mask = if size == 8 {
            u64::MAX
        } else {
            (1u64 << (8 * size)) - 1
        };
        assert_eq!(m.load(addr, size).unwrap(), val & mask);
    });
}

/// `PagedMemory`'s word-wide in-page accesses and its byte-wise
/// page-straddling path agree with `FlatMemory` on every value and fault,
/// for random mixed-width loads and stores.
#[test]
fn paged_memory_matches_flat_memory() {
    const BASE: u64 = 0x8000;
    const PAGE: u64 = 4096;
    const SIZE: u64 = 3 * PAGE;
    cases(256, |rng| {
        let mut flat = FlatMemory::with_base(BASE, SIZE as usize);
        let mut paged = PagedMemory::with_base(BASE, SIZE as usize);
        for _ in 0..64 {
            let size = *rng.pick(&[1usize, 2, 4, 8]);
            let addr = match rng.range_u64(0, 4) {
                // Anywhere in range, naturally aligned.
                0 => BASE + rng.range_u64(0, SIZE / size as u64) * size as u64,
                // Straddling a page boundary (or ending exactly on one).
                1 => BASE + rng.range_u64(1, 3) * PAGE - rng.range_u64(1, size as u64 + 1),
                // Unaligned anywhere, including off either end.
                2 => BASE - 8 + rng.range_u64(0, SIZE + 16),
                // Near the first touched pages, so loads hit written bytes.
                _ => BASE + PAGE - 16 + rng.range_u64(0, 32),
            };
            if rng.bool() {
                let value = rng.any_u64();
                assert_eq!(
                    flat.store(addr, size, value),
                    paged.store(addr, size, value),
                    "store {size} bytes at {addr:#x}"
                );
            } else {
                assert_eq!(
                    flat.load(addr, size),
                    paged.load(addr, size),
                    "load {size} bytes at {addr:#x}"
                );
            }
        }
        assert_eq!(
            flat.read_bytes(BASE, SIZE as usize).unwrap(),
            &paged.read_bytes(BASE, SIZE as usize).unwrap()[..]
        );
    });
}

#[test]
fn assembled_programs_are_deterministic() {
    cases(64, |rng| {
        // A generated program of n additions always assembles to identical
        // bytes and computes the expected sum.
        let n = rng.range_u64(1, 64) as u32;
        let mut src = String::from("_start:\n li a0, 0\n");
        for i in 1..=n {
            src.push_str(&format!(" addi a0, a0, {}\n", i % 100));
        }
        src.push_str(" ecall\n");
        let a = assemble(&src, 0x1_0000).unwrap();
        let b = assemble(&src, 0x1_0000).unwrap();
        assert_eq!(a.to_bytes(), b.to_bytes());
        let mut mem = FlatMemory::new(1 << 20);
        a.load_into(&mut mem).unwrap();
        let mut cpu = Cpu::new(a.entry());
        cpu.run(&mut mem, 10_000).unwrap();
        let expected: u64 = (1..=n as u64).map(|i| i % 100).sum();
        assert_eq!(cpu.read_reg(Reg::A0), expected);
    });
}

/// The assembler is total: arbitrary text is either assembled or
/// rejected with a line-numbered error, never a panic.
#[test]
fn assembler_never_panics() {
    cases(256, |rng| {
        let src = rng.printable(0, 200);
        let _ = assemble(&src, 0x1_0000);
    });
}

/// Structured fuzz: random well-formed-ish instruction streams.
#[test]
fn assembler_handles_fragment_soup() {
    let fixed = [
        "  nop",
        "lbl:",
        "  j lbl",
        "  beqz a0, lbl",
        "  .data",
        "  .word 1, 2, 3",
        "  .asciiz \"x\"",
        "  .text",
        "  mul a0, a1, a2",
        "  ld a0, 0(sp)",
    ];
    cases(256, |rng| {
        let fragments: Vec<String> = (0..rng.range_usize(0, 20))
            .map(|_| match rng.range_u64(0, 12) {
                10 => format!("  li a0, {}", rng.range_i64(0, 4096)),
                11 => format!("  addi a1, a1, {}", rng.range_i64(-2048, 2048)),
                i => fixed[i as usize].to_owned(),
            })
            .collect();
        // `lbl` is always defined once, at the start of the text section
        // (branches from .data to .text may legitimately exceed their
        // encoding range, which is an expected assembler error, not a
        // robustness bug). Instructions are kept out of .data for the same
        // reason.
        let mut in_text = true;
        let src: Vec<String> = fragments
            .into_iter()
            .filter(|f| {
                if f == "lbl:" {
                    return false;
                }
                if f.trim() == ".data" {
                    in_text = false;
                } else if f.trim() == ".text" {
                    in_text = true;
                }
                in_text || f.trim_start().starts_with('.')
            })
            .collect();
        let text = format!("lbl:\n{}", src.join("\n"));
        let result = assemble(&text, 0x1_0000);
        assert!(
            result.is_ok(),
            "fragment soup must assemble: {:?}\n{text}",
            result.err()
        );
        // Assembly is deterministic.
        let again = assemble(&text, 0x1_0000).unwrap();
        assert_eq!(result.unwrap().to_bytes(), again.to_bytes());
    });
}
