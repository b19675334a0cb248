//! Binary instruction encoding.
//!
//! Produces authentic 32-bit RISC-V machine words for every [`Inst`]. The
//! encodings follow the RISC-V unprivileged specification formats
//! (R/I/S/B/U/J), so the output of the assembler is real RV64IM machine code.

use crate::inst::{AluImmOp, AluOp, Inst, MemWidth, Reg};

/// Error produced when an instruction's operands cannot be represented in
/// the fixed-width encoding (e.g. an out-of-range immediate).
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct EncodeError {
    message: String,
}

impl EncodeError {
    fn new(message: impl Into<String>) -> EncodeError {
        EncodeError {
            message: message.into(),
        }
    }
}

impl std::fmt::Display for EncodeError {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        write!(f, "encode error: {}", self.message)
    }
}

impl std::error::Error for EncodeError {}

const OPC_LUI: u32 = 0b0110111;
const OPC_AUIPC: u32 = 0b0010111;
const OPC_JAL: u32 = 0b1101111;
const OPC_JALR: u32 = 0b1100111;
const OPC_BRANCH: u32 = 0b1100011;
const OPC_LOAD: u32 = 0b0000011;
const OPC_STORE: u32 = 0b0100011;
const OPC_OP_IMM: u32 = 0b0010011;
const OPC_OP_IMM_32: u32 = 0b0011011;
const OPC_OP: u32 = 0b0110011;
pub(crate) const OPC_OP_32: u32 = 0b0111011;
const OPC_MISC_MEM: u32 = 0b0001111;
const OPC_SYSTEM: u32 = 0b1110011;

fn rd_f(r: Reg) -> u32 {
    (r.index() as u32) << 7
}

fn rs1_f(r: Reg) -> u32 {
    (r.index() as u32) << 15
}

fn rs2_f(r: Reg) -> u32 {
    (r.index() as u32) << 20
}

fn funct3(v: u32) -> u32 {
    v << 12
}

fn check_imm(imm: i64, bits: u32, what: &str) -> Result<u32, EncodeError> {
    let min = -(1i64 << (bits - 1));
    let max = (1i64 << (bits - 1)) - 1;
    if imm < min || imm > max {
        return Err(EncodeError::new(format!(
            "{what} immediate {imm} out of range [{min}, {max}]"
        )));
    }
    Ok((imm as u32) & (((1u64 << bits) - 1) as u32))
}

fn i_type(opcode: u32, f3: u32, rd: Reg, rs1: Reg, imm: i64) -> Result<u32, EncodeError> {
    let imm12 = check_imm(imm, 12, "I-type")?;
    Ok(opcode | rd_f(rd) | funct3(f3) | rs1_f(rs1) | (imm12 << 20))
}

fn s_type(opcode: u32, f3: u32, rs1: Reg, rs2: Reg, imm: i64) -> Result<u32, EncodeError> {
    let imm12 = check_imm(imm, 12, "S-type")?;
    let lo = imm12 & 0x1f;
    let hi = (imm12 >> 5) & 0x7f;
    Ok(opcode | (lo << 7) | funct3(f3) | rs1_f(rs1) | rs2_f(rs2) | (hi << 25))
}

fn b_type(opcode: u32, f3: u32, rs1: Reg, rs2: Reg, offset: i64) -> Result<u32, EncodeError> {
    if offset % 2 != 0 {
        return Err(EncodeError::new(format!(
            "branch offset {offset} not 2-byte aligned"
        )));
    }
    let imm13 = check_imm(offset, 13, "B-type")?;
    let b11 = (imm13 >> 11) & 1;
    let b4_1 = (imm13 >> 1) & 0xf;
    let b10_5 = (imm13 >> 5) & 0x3f;
    let b12 = (imm13 >> 12) & 1;
    Ok(opcode
        | (b11 << 7)
        | (b4_1 << 8)
        | funct3(f3)
        | rs1_f(rs1)
        | rs2_f(rs2)
        | (b10_5 << 25)
        | (b12 << 31))
}

fn u_type(opcode: u32, rd: Reg, imm: i64) -> Result<u32, EncodeError> {
    // `imm` is the full semantic value; must be a multiple of 4096 that fits
    // the signed 32-bit range once shifted.
    if imm & 0xfff != 0 {
        return Err(EncodeError::new(format!(
            "U-type immediate {imm:#x} has nonzero low 12 bits"
        )));
    }
    let upper = imm >> 12;
    if !(-(1 << 19)..(1 << 19)).contains(&upper) {
        return Err(EncodeError::new(format!(
            "U-type immediate {imm:#x} out of range"
        )));
    }
    Ok(opcode | rd_f(rd) | (((upper as u32) & 0xfffff) << 12))
}

fn j_type(opcode: u32, rd: Reg, offset: i64) -> Result<u32, EncodeError> {
    if offset % 2 != 0 {
        return Err(EncodeError::new(format!(
            "jump offset {offset} not 2-byte aligned"
        )));
    }
    let imm21 = check_imm(offset, 21, "J-type")?;
    let b19_12 = (imm21 >> 12) & 0xff;
    let b11 = (imm21 >> 11) & 1;
    let b10_1 = (imm21 >> 1) & 0x3ff;
    let b20 = (imm21 >> 20) & 1;
    Ok(opcode | rd_f(rd) | (b19_12 << 12) | (b11 << 20) | (b10_1 << 21) | (b20 << 31))
}

/// `(opcode, funct3, funct7)` of a register-register operation.
pub(crate) const fn alu_funct(op: AluOp) -> (u32, u32, u32) {
    match op {
        AluOp::Add => (OPC_OP, 0b000, 0b0000000),
        AluOp::Sub => (OPC_OP, 0b000, 0b0100000),
        AluOp::Sll => (OPC_OP, 0b001, 0b0000000),
        AluOp::Slt => (OPC_OP, 0b010, 0b0000000),
        AluOp::Sltu => (OPC_OP, 0b011, 0b0000000),
        AluOp::Xor => (OPC_OP, 0b100, 0b0000000),
        AluOp::Srl => (OPC_OP, 0b101, 0b0000000),
        AluOp::Sra => (OPC_OP, 0b101, 0b0100000),
        AluOp::Or => (OPC_OP, 0b110, 0b0000000),
        AluOp::And => (OPC_OP, 0b111, 0b0000000),
        AluOp::Addw => (OPC_OP_32, 0b000, 0b0000000),
        AluOp::Subw => (OPC_OP_32, 0b000, 0b0100000),
        AluOp::Sllw => (OPC_OP_32, 0b001, 0b0000000),
        AluOp::Srlw => (OPC_OP_32, 0b101, 0b0000000),
        AluOp::Sraw => (OPC_OP_32, 0b101, 0b0100000),
        AluOp::Mul => (OPC_OP, 0b000, 0b0000001),
        AluOp::Mulh => (OPC_OP, 0b001, 0b0000001),
        AluOp::Mulhsu => (OPC_OP, 0b010, 0b0000001),
        AluOp::Mulhu => (OPC_OP, 0b011, 0b0000001),
        AluOp::Div => (OPC_OP, 0b100, 0b0000001),
        AluOp::Divu => (OPC_OP, 0b101, 0b0000001),
        AluOp::Rem => (OPC_OP, 0b110, 0b0000001),
        AluOp::Remu => (OPC_OP, 0b111, 0b0000001),
        AluOp::Mulw => (OPC_OP_32, 0b000, 0b0000001),
        AluOp::Divw => (OPC_OP_32, 0b100, 0b0000001),
        AluOp::Divuw => (OPC_OP_32, 0b101, 0b0000001),
        AluOp::Remw => (OPC_OP_32, 0b110, 0b0000001),
        AluOp::Remuw => (OPC_OP_32, 0b111, 0b0000001),
    }
}

/// Encodes a single instruction to its 32-bit machine word.
///
/// # Errors
///
/// Returns [`EncodeError`] when an immediate or offset does not fit its
/// encoding field, or when a store uses an unsigned width.
///
/// ```rust
/// use marshal_isa::inst::{Inst, Reg};
/// use marshal_isa::encode::encode;
/// // addi a0, zero, 1  ==  0x00100513
/// let word = encode(&Inst::AluImm {
///     op: marshal_isa::inst::AluImmOp::Addi,
///     rd: Reg::A0,
///     rs1: Reg::ZERO,
///     imm: 1,
/// }).unwrap();
/// assert_eq!(word, 0x0010_0513);
/// ```
pub fn encode(inst: &Inst) -> Result<u32, EncodeError> {
    match *inst {
        Inst::Lui { rd, imm } => u_type(OPC_LUI, rd, imm),
        Inst::Auipc { rd, imm } => u_type(OPC_AUIPC, rd, imm),
        Inst::Jal { rd, offset } => j_type(OPC_JAL, rd, offset),
        Inst::Jalr { rd, rs1, offset } => i_type(OPC_JALR, 0b000, rd, rs1, offset),
        Inst::Branch {
            cond,
            rs1,
            rs2,
            offset,
        } => b_type(OPC_BRANCH, cond.funct3(), rs1, rs2, offset),
        Inst::Load {
            width,
            rd,
            rs1,
            offset,
        } => i_type(OPC_LOAD, width.load_funct3(), rd, rs1, offset),
        Inst::Store {
            width,
            rs2,
            rs1,
            offset,
        } => {
            if !MemWidth::ALL[..4].contains(&width) {
                return Err(EncodeError::new(format!(
                    "store width {width:?} is not encodable"
                )));
            }
            s_type(OPC_STORE, width.load_funct3(), rs1, rs2, offset)
        }
        Inst::AluImm { op, rd, rs1, imm } => {
            let (opcode, f3) = match op {
                AluImmOp::Addi => (OPC_OP_IMM, 0b000),
                AluImmOp::Slti => (OPC_OP_IMM, 0b010),
                AluImmOp::Sltiu => (OPC_OP_IMM, 0b011),
                AluImmOp::Xori => (OPC_OP_IMM, 0b100),
                AluImmOp::Ori => (OPC_OP_IMM, 0b110),
                AluImmOp::Andi => (OPC_OP_IMM, 0b111),
                AluImmOp::Slli => (OPC_OP_IMM, 0b001),
                AluImmOp::Srli | AluImmOp::Srai => (OPC_OP_IMM, 0b101),
                AluImmOp::Addiw => (OPC_OP_IMM_32, 0b000),
                AluImmOp::Slliw => (OPC_OP_IMM_32, 0b001),
                AluImmOp::Srliw | AluImmOp::Sraiw => (OPC_OP_IMM_32, 0b101),
            };
            if op.is_shift() {
                let max_shamt = if matches!(op, AluImmOp::Slliw | AluImmOp::Srliw | AluImmOp::Sraiw)
                {
                    31
                } else {
                    63
                };
                if imm < 0 || imm > max_shamt {
                    return Err(EncodeError::new(format!(
                        "shift amount {imm} out of range 0..={max_shamt}"
                    )));
                }
                let arith = matches!(op, AluImmOp::Srai | AluImmOp::Sraiw);
                let high = if arith { 0b0100000u32 << 25 } else { 0 };
                Ok(opcode | rd_f(rd) | funct3(f3) | rs1_f(rs1) | ((imm as u32) << 20) | high)
            } else {
                i_type(opcode, f3, rd, rs1, imm)
            }
        }
        Inst::Alu { op, rd, rs1, rs2 } => {
            let (opcode, f3, f7) = alu_funct(op);
            Ok(opcode | rd_f(rd) | funct3(f3) | rs1_f(rs1) | rs2_f(rs2) | (f7 << 25))
        }
        Inst::Fence => Ok(OPC_MISC_MEM | funct3(0b000) | (0b0000_1111_1111u32 << 20)),
        Inst::Ecall => Ok(OPC_SYSTEM),
        Inst::Ebreak => Ok(OPC_SYSTEM | (1 << 20)),
        Inst::Csr { op, rd, rs1, csr } => {
            Ok(OPC_SYSTEM | rd_f(rd) | funct3(op.funct3()) | rs1_f(rs1) | ((csr as u32) << 20))
        }
        Inst::CsrImm { op, rd, zimm, csr } => {
            if zimm >= 32 {
                return Err(EncodeError::new(format!("csr zimm {zimm} out of range")));
            }
            Ok(OPC_SYSTEM
                | rd_f(rd)
                | funct3(op.funct3() | 0b100)
                | (((zimm as u32) & 0x1f) << 15)
                | ((csr as u32) << 20))
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::inst::{BranchCond, CsrOp};

    #[test]
    fn known_encodings() {
        // Cross-checked against a reference RISC-V assembler.
        // addi a0, zero, 1
        assert_eq!(
            encode(&Inst::AluImm {
                op: AluImmOp::Addi,
                rd: Reg::A0,
                rs1: Reg::ZERO,
                imm: 1
            })
            .unwrap(),
            0x0010_0513
        );
        // add a0, a1, a2
        assert_eq!(
            encode(&Inst::Alu {
                op: AluOp::Add,
                rd: Reg::A0,
                rs1: Reg::A1,
                rs2: Reg::A2
            })
            .unwrap(),
            0x00c5_8533
        );
        // lui a0, 0x12345
        assert_eq!(
            encode(&Inst::Lui {
                rd: Reg::A0,
                imm: 0x12345 << 12
            })
            .unwrap(),
            0x1234_5537
        );
        // ecall
        assert_eq!(encode(&Inst::Ecall).unwrap(), 0x0000_0073);
        // ebreak
        assert_eq!(encode(&Inst::Ebreak).unwrap(), 0x0010_0073);
        // jal ra, +8
        assert_eq!(
            encode(&Inst::Jal {
                rd: Reg::RA,
                offset: 8
            })
            .unwrap(),
            0x0080_00ef
        );
        // beq a0, a1, +16
        assert_eq!(
            encode(&Inst::Branch {
                cond: BranchCond::Eq,
                rs1: Reg::A0,
                rs2: Reg::A1,
                offset: 16
            })
            .unwrap(),
            0x00b5_0863
        );
        // ld a0, 16(sp)
        assert_eq!(
            encode(&Inst::Load {
                width: MemWidth::D,
                rd: Reg::A0,
                rs1: Reg::SP,
                offset: 16
            })
            .unwrap(),
            0x0101_3503
        );
        // sd a0, 8(sp)
        assert_eq!(
            encode(&Inst::Store {
                width: MemWidth::D,
                rs2: Reg::A0,
                rs1: Reg::SP,
                offset: 8
            })
            .unwrap(),
            0x00a1_3423
        );
        // mul a0, a1, a2
        assert_eq!(
            encode(&Inst::Alu {
                op: AluOp::Mul,
                rd: Reg::A0,
                rs1: Reg::A1,
                rs2: Reg::A2
            })
            .unwrap(),
            0x02c5_8533
        );
        // srai a0, a0, 3
        assert_eq!(
            encode(&Inst::AluImm {
                op: AluImmOp::Srai,
                rd: Reg::A0,
                rs1: Reg::A0,
                imm: 3
            })
            .unwrap(),
            0x4035_5513
        );
        // csrrs a0, cycle, zero (rdcycle a0)
        assert_eq!(
            encode(&Inst::Csr {
                op: CsrOp::Rs,
                rd: Reg::A0,
                rs1: Reg::ZERO,
                csr: 0xC00
            })
            .unwrap(),
            0xc000_2573
        );
    }

    #[test]
    fn negative_immediates() {
        // addi a0, a0, -1
        assert_eq!(
            encode(&Inst::AluImm {
                op: AluImmOp::Addi,
                rd: Reg::A0,
                rs1: Reg::A0,
                imm: -1
            })
            .unwrap(),
            0xfff5_0513
        );
        // beq zero, zero, -4 (backward branch)
        let w = encode(&Inst::Branch {
            cond: BranchCond::Eq,
            rs1: Reg::ZERO,
            rs2: Reg::ZERO,
            offset: -4,
        })
        .unwrap();
        assert_eq!(w, 0xfe00_0ee3);
    }

    #[test]
    fn out_of_range_rejected() {
        assert!(encode(&Inst::AluImm {
            op: AluImmOp::Addi,
            rd: Reg::A0,
            rs1: Reg::A0,
            imm: 4096
        })
        .is_err());
        assert!(encode(&Inst::Jal {
            rd: Reg::RA,
            offset: 1 << 21
        })
        .is_err());
        assert!(encode(&Inst::Jal {
            rd: Reg::RA,
            offset: 3
        })
        .is_err());
        assert!(encode(&Inst::AluImm {
            op: AluImmOp::Slli,
            rd: Reg::A0,
            rs1: Reg::A0,
            imm: 64
        })
        .is_err());
        assert!(encode(&Inst::Store {
            width: MemWidth::Bu,
            rs2: Reg::A0,
            rs1: Reg::SP,
            offset: 0
        })
        .is_err());
    }
}
