//! Instruction semantics pinned on a grid of edge operands.
//!
//! Every ALU, ALU-immediate, branch, load-width and store-width variant
//! runs on the grid below, once through [`Cpu::step`] and once through a
//! one-instruction [`DecodeCache::run_block`]. Both must reproduce
//! `semantics_grid.txt` line for line. The table was produced by the
//! interpreter before it moved to the flat op table, so it pins the
//! semantics that predate the current executor.

use marshal_isa::encode::encode;
use marshal_isa::inst::{AluImmOp, AluOp, BranchCond, Inst, MemWidth, Reg};
use marshal_isa::interp::StepOutcome;
use marshal_isa::mem::{Bus, FlatMemory};
use marshal_isa::predecode::{BlockEnd, DecodeCache};
use marshal_isa::Cpu;

/// Register operands: the edge values, then the shift amounts not already
/// among them.
const VALUES: [u64; 9] = [
    0,
    1,
    u64::MAX,
    i64::MIN as u64,
    i64::MAX as u64,
    0x8000_0000,
    31,
    32,
    63,
];

/// Immediates of the non-shift ALU-immediate ops.
const IMMS: [i64; 5] = [0, 1, -1, 2047, -2048];

/// Where loads and stores go.
const DATA: u64 = 0x100;

/// Runs `inst` at pc 0 with `t0 = a`, `t1 = b` and `mem` at [`DATA`],
/// either stepping or as a one-instruction block.
fn run(inst: Inst, a: u64, b: u64, mem: u64, block: bool) -> (Cpu, FlatMemory) {
    let mut bus = FlatMemory::new(1 << 12);
    bus.store(0, 4, u64::from(encode(&inst).unwrap())).unwrap();
    bus.store(DATA, 8, mem).unwrap();
    let mut cpu = Cpu::new(0);
    cpu.write_reg(Reg::T0, a);
    cpu.write_reg(Reg::T1, b);
    if block {
        let end = DecodeCache::new().run_block(&mut cpu, &mut bus, 1, &mut ());
        assert_eq!(end, Ok(BlockEnd::Next), "{inst:?}");
    } else {
        let out = cpu.step(&mut bus);
        assert!(matches!(out, Ok(StepOutcome::Retired(_))), "{inst:?}");
    }
    (cpu, bus)
}

/// The table, as `run` produces it.
fn grid(block: bool) -> Vec<String> {
    let result = |inst, a, b| run(inst, a, b, 0, block).0.read_reg(Reg::A0);
    let mut lines = Vec::new();
    for op in AluOp::ALL {
        for a in VALUES {
            for b in VALUES {
                let inst = Inst::Alu {
                    op,
                    rd: Reg::A0,
                    rs1: Reg::T0,
                    rs2: Reg::T1,
                };
                let v = result(inst, a, b);
                lines.push(format!("{} {a:#x} {b:#x} = {v:#x}", op.mnemonic()));
            }
        }
    }
    for op in AluImmOp::ALL {
        let imms: &[i64] = match op {
            AluImmOp::Slli | AluImmOp::Srli | AluImmOp::Srai => &[0, 31, 32, 63],
            AluImmOp::Slliw | AluImmOp::Srliw | AluImmOp::Sraiw => &[0, 1, 31],
            _ => &IMMS,
        };
        for a in VALUES {
            for &imm in imms {
                let inst = Inst::AluImm {
                    op,
                    rd: Reg::A0,
                    rs1: Reg::T0,
                    imm,
                };
                let v = result(inst, a, 0);
                lines.push(format!("{} {a:#x} {imm} = {v:#x}", op.mnemonic()));
            }
        }
    }
    for cond in BranchCond::ALL {
        for a in VALUES {
            for b in VALUES {
                let inst = Inst::Branch {
                    cond,
                    rs1: Reg::T0,
                    rs2: Reg::T1,
                    offset: 8,
                };
                let pc = run(inst, a, b, 0, block).0.pc;
                lines.push(format!("{} {a:#x} {b:#x} = {pc:#x}", cond.mnemonic()));
            }
        }
    }
    for width in MemWidth::ALL {
        let size = width.bytes() as u64;
        for mem in VALUES {
            for offset in (0..8).step_by(size as usize) {
                let inst = Inst::Load {
                    width,
                    rd: Reg::A0,
                    rs1: Reg::T0,
                    offset: offset as i64,
                };
                let v = run(inst, DATA, 0, mem, block).0.read_reg(Reg::A0);
                lines.push(format!(
                    "{} {mem:#x} +{offset} = {v:#x}",
                    width.load_mnemonic()
                ));
            }
        }
    }
    for width in &MemWidth::ALL[..4] {
        let size = width.bytes() as u64;
        for value in VALUES {
            for offset in (0..8).step_by(size as usize) {
                let inst = Inst::Store {
                    width: *width,
                    rs2: Reg::T1,
                    rs1: Reg::T0,
                    offset: offset as i64,
                };
                let mut bus = run(inst, DATA, value, 0, block).1;
                let mem = bus.load(DATA, 8).unwrap();
                lines.push(format!(
                    "{} {value:#x} +{offset} = {mem:#x}",
                    width.store_mnemonic()
                ));
            }
        }
    }
    lines
}

#[test]
fn every_variant_reproduces_the_pinned_grid() {
    let pinned: Vec<&str> = include_str!("semantics_grid.txt").lines().collect();
    for block in [false, true] {
        let lines = grid(block);
        assert_eq!(lines.len(), pinned.len(), "grid size (block: {block})");
        for (got, want) in lines.iter().zip(&pinned) {
            assert_eq!(got, want, "block: {block}");
        }
    }
}
