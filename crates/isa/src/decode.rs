//! Binary instruction decoding.
//!
//! The inverse of [`crate::encode`]: turns 32-bit machine words back into
//! [`Inst`] values. Decoding is total over the encodable instruction set and
//! returns [`DecodeError`] for anything else, which the interpreter surfaces
//! as an illegal-instruction trap.

use crate::encode::{alu_funct, OPC_OP_32};
use crate::inst::{AluImmOp, AluOp, BranchCond, CsrOp, Inst, MemWidth, Reg};

/// Error for machine words that are not valid RV64IM encodings.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct DecodeError {
    /// The offending machine word.
    pub word: u32,
}

impl std::fmt::Display for DecodeError {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        write!(f, "illegal instruction word {:#010x}", self.word)
    }
}

impl std::error::Error for DecodeError {}

fn sign_extend(value: u32, bits: u32) -> i64 {
    let shift = 64 - bits;
    (((value as u64) << shift) as i64) >> shift
}

fn rd(word: u32) -> Reg {
    Reg::from_field(word >> 7)
}

fn rs1(word: u32) -> Reg {
    Reg::from_field(word >> 15)
}

fn rs2(word: u32) -> Reg {
    Reg::from_field(word >> 20)
}

fn funct3(word: u32) -> u32 {
    (word >> 12) & 0x7
}

fn funct7(word: u32) -> u32 {
    word >> 25
}

fn imm_i(word: u32) -> i64 {
    sign_extend(word >> 20, 12)
}

fn imm_s(word: u32) -> i64 {
    let lo = (word >> 7) & 0x1f;
    let hi = word >> 25;
    sign_extend((hi << 5) | lo, 12)
}

fn imm_b(word: u32) -> i64 {
    let b11 = (word >> 7) & 1;
    let b4_1 = (word >> 8) & 0xf;
    let b10_5 = (word >> 25) & 0x3f;
    let b12 = (word >> 31) & 1;
    sign_extend((b12 << 12) | (b11 << 11) | (b10_5 << 5) | (b4_1 << 1), 13)
}

fn imm_u(word: u32) -> i64 {
    sign_extend(word & 0xffff_f000, 32)
}

fn imm_j(word: u32) -> i64 {
    let b19_12 = (word >> 12) & 0xff;
    let b11 = (word >> 20) & 1;
    let b10_1 = (word >> 21) & 0x3ff;
    let b20 = (word >> 31) & 1;
    sign_extend(
        (b20 << 20) | (b19_12 << 12) | (b11 << 11) | (b10_1 << 1),
        21,
    )
}

fn decode_branch(word: u32) -> Result<Inst, DecodeError> {
    let cond = match funct3(word) {
        0b000 => BranchCond::Eq,
        0b001 => BranchCond::Ne,
        0b100 => BranchCond::Lt,
        0b101 => BranchCond::Ge,
        0b110 => BranchCond::Ltu,
        0b111 => BranchCond::Geu,
        _ => return Err(DecodeError { word }),
    };
    Ok(Inst::Branch {
        cond,
        rs1: rs1(word),
        rs2: rs2(word),
        offset: imm_b(word),
    })
}

fn decode_load(word: u32) -> Result<Inst, DecodeError> {
    let width = match funct3(word) {
        0b000 => MemWidth::B,
        0b001 => MemWidth::H,
        0b010 => MemWidth::W,
        0b011 => MemWidth::D,
        0b100 => MemWidth::Bu,
        0b101 => MemWidth::Hu,
        0b110 => MemWidth::Wu,
        _ => return Err(DecodeError { word }),
    };
    Ok(Inst::Load {
        width,
        rd: rd(word),
        rs1: rs1(word),
        offset: imm_i(word),
    })
}

fn decode_store(word: u32) -> Result<Inst, DecodeError> {
    let width = match funct3(word) {
        0b000 => MemWidth::B,
        0b001 => MemWidth::H,
        0b010 => MemWidth::W,
        0b011 => MemWidth::D,
        _ => return Err(DecodeError { word }),
    };
    Ok(Inst::Store {
        width,
        rs2: rs2(word),
        rs1: rs1(word),
        offset: imm_s(word),
    })
}

fn decode_op_imm(word: u32) -> Result<Inst, DecodeError> {
    let (op, imm) = match funct3(word) {
        0b000 => (AluImmOp::Addi, imm_i(word)),
        0b010 => (AluImmOp::Slti, imm_i(word)),
        0b011 => (AluImmOp::Sltiu, imm_i(word)),
        0b100 => (AluImmOp::Xori, imm_i(word)),
        0b110 => (AluImmOp::Ori, imm_i(word)),
        0b111 => (AluImmOp::Andi, imm_i(word)),
        0b001 => {
            if funct7(word) & !1 != 0 {
                return Err(DecodeError { word });
            }
            (AluImmOp::Slli, ((word >> 20) & 0x3f) as i64)
        }
        0b101 => {
            let shamt = ((word >> 20) & 0x3f) as i64;
            match funct7(word) & !1 {
                0b0000000 => (AluImmOp::Srli, shamt),
                0b0100000 => (AluImmOp::Srai, shamt),
                _ => return Err(DecodeError { word }),
            }
        }
        _ => unreachable!(),
    };
    Ok(Inst::AluImm {
        op,
        rd: rd(word),
        rs1: rs1(word),
        imm,
    })
}

fn decode_op_imm32(word: u32) -> Result<Inst, DecodeError> {
    let (op, imm) = match funct3(word) {
        0b000 => (AluImmOp::Addiw, imm_i(word)),
        0b001 => {
            if funct7(word) != 0 {
                return Err(DecodeError { word });
            }
            (AluImmOp::Slliw, ((word >> 20) & 0x1f) as i64)
        }
        0b101 => {
            let shamt = ((word >> 20) & 0x1f) as i64;
            match funct7(word) {
                0b0000000 => (AluImmOp::Srliw, shamt),
                0b0100000 => (AluImmOp::Sraiw, shamt),
                _ => return Err(DecodeError { word }),
            }
        }
        _ => return Err(DecodeError { word }),
    };
    Ok(Inst::AluImm {
        op,
        rd: rd(word),
        rs1: rs1(word),
        imm,
    })
}

/// The `OP`/`OP-32` operations, indexed by `OP-32`-ness, [`funct7_class`]
/// and `funct3`: the encoder's table, inverted.
const ALU_OPS: [[[Option<AluOp>; 8]; 3]; 2] = {
    let mut table = [[[None; 8]; 3]; 2];
    let mut i = 0;
    while i < AluOp::ALL.len() {
        let (opcode, f3, f7) = alu_funct(AluOp::ALL[i]);
        if let Some(class) = funct7_class(f7) {
            table[(opcode == OPC_OP_32) as usize][class][f3 as usize] = Some(AluOp::ALL[i]);
        }
        i += 1;
    }
    table
};

/// The `funct7` values an `OP`/`OP-32` word may carry.
const fn funct7_class(f7: u32) -> Option<usize> {
    match f7 {
        0b0000000 => Some(0),
        0b0100000 => Some(1),
        0b0000001 => Some(2),
        _ => None,
    }
}

fn decode_op(word: u32, is_32: bool) -> Result<Inst, DecodeError> {
    let class = funct7_class(funct7(word)).ok_or(DecodeError { word })?;
    let op = ALU_OPS[is_32 as usize][class][funct3(word) as usize].ok_or(DecodeError { word })?;
    Ok(Inst::Alu {
        op,
        rd: rd(word),
        rs1: rs1(word),
        rs2: rs2(word),
    })
}

fn decode_system(word: u32) -> Result<Inst, DecodeError> {
    let f3 = funct3(word);
    if f3 == 0 {
        return match word >> 20 {
            0 if rd(word) == Reg::ZERO && rs1(word) == Reg::ZERO => Ok(Inst::Ecall),
            1 if rd(word) == Reg::ZERO && rs1(word) == Reg::ZERO => Ok(Inst::Ebreak),
            _ => Err(DecodeError { word }),
        };
    }
    let csr = (word >> 20) as u16;
    let op = match f3 & 0b011 {
        0b001 => CsrOp::Rw,
        0b010 => CsrOp::Rs,
        0b011 => CsrOp::Rc,
        _ => return Err(DecodeError { word }),
    };
    if f3 & 0b100 != 0 {
        Ok(Inst::CsrImm {
            op,
            rd: rd(word),
            zimm: ((word >> 15) & 0x1f) as u8,
            csr,
        })
    } else {
        Ok(Inst::Csr {
            op,
            rd: rd(word),
            rs1: rs1(word),
            csr,
        })
    }
}

/// Decodes a 32-bit machine word into an [`Inst`].
///
/// # Errors
///
/// Returns [`DecodeError`] for any word that is not a valid RV64IM
/// (I + M + Zicsr + fence) encoding.
///
/// ```rust
/// use marshal_isa::decode::decode;
/// use marshal_isa::inst::{Inst, Reg, AluImmOp};
/// let inst = decode(0x0010_0513).unwrap(); // addi a0, zero, 1
/// assert_eq!(inst, Inst::AluImm { op: AluImmOp::Addi, rd: Reg::A0, rs1: Reg::ZERO, imm: 1 });
/// ```
pub fn decode(word: u32) -> Result<Inst, DecodeError> {
    match word & 0x7f {
        0b0110111 => Ok(Inst::Lui {
            rd: rd(word),
            imm: imm_u(word),
        }),
        0b0010111 => Ok(Inst::Auipc {
            rd: rd(word),
            imm: imm_u(word),
        }),
        0b1101111 => Ok(Inst::Jal {
            rd: rd(word),
            offset: imm_j(word),
        }),
        0b1100111 => {
            if funct3(word) != 0 {
                return Err(DecodeError { word });
            }
            Ok(Inst::Jalr {
                rd: rd(word),
                rs1: rs1(word),
                offset: imm_i(word),
            })
        }
        0b1100011 => decode_branch(word),
        0b0000011 => decode_load(word),
        0b0100011 => decode_store(word),
        0b0010011 => decode_op_imm(word),
        0b0011011 => decode_op_imm32(word),
        0b0110011 => decode_op(word, false),
        0b0111011 => decode_op(word, true),
        0b0001111 => Ok(Inst::Fence),
        0b1110011 => decode_system(word),
        _ => Err(DecodeError { word }),
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::encode::encode;

    fn roundtrip(inst: Inst) {
        let word = encode(&inst).unwrap_or_else(|e| panic!("encode {inst:?}: {e}"));
        let back = decode(word).unwrap_or_else(|e| panic!("decode {inst:?} ({word:#x}): {e}"));
        assert_eq!(inst, back, "roundtrip mismatch for word {word:#010x}");
    }

    #[test]
    fn roundtrip_representative_instructions() {
        use crate::inst::*;
        let r = |i: u8| Reg::new(i).unwrap();
        roundtrip(Inst::Lui {
            rd: r(5),
            imm: -0x7f000 << 12,
        });
        roundtrip(Inst::Auipc {
            rd: r(7),
            imm: 0x1000,
        });
        roundtrip(Inst::Jal {
            rd: Reg::RA,
            offset: -2048,
        });
        roundtrip(Inst::Jalr {
            rd: Reg::ZERO,
            rs1: Reg::RA,
            offset: 0,
        });
        for cond in BranchCond::ALL {
            roundtrip(Inst::Branch {
                cond,
                rs1: r(3),
                rs2: r(4),
                offset: -64,
            });
        }
        for width in MemWidth::ALL {
            roundtrip(Inst::Load {
                width,
                rd: r(9),
                rs1: Reg::SP,
                offset: -8,
            });
        }
        for width in MemWidth::ALL.into_iter().take(4) {
            roundtrip(Inst::Store {
                width,
                rs2: r(9),
                rs1: Reg::SP,
                offset: 2047,
            });
        }
        for op in [
            AluImmOp::Addi,
            AluImmOp::Slti,
            AluImmOp::Sltiu,
            AluImmOp::Xori,
            AluImmOp::Ori,
            AluImmOp::Andi,
            AluImmOp::Addiw,
        ] {
            roundtrip(Inst::AluImm {
                op,
                rd: r(11),
                rs1: r(12),
                imm: -1,
            });
        }
        for (op, sh) in [
            (AluImmOp::Slli, 63),
            (AluImmOp::Srli, 1),
            (AluImmOp::Srai, 63),
            (AluImmOp::Slliw, 31),
            (AluImmOp::Srliw, 0),
            (AluImmOp::Sraiw, 31),
        ] {
            roundtrip(Inst::AluImm {
                op,
                rd: r(11),
                rs1: r(12),
                imm: sh,
            });
        }
        for op in AluOp::ALL {
            roundtrip(Inst::Alu {
                op,
                rd: r(1),
                rs1: r(2),
                rs2: r(3),
            });
        }
        roundtrip(Inst::Ecall);
        roundtrip(Inst::Ebreak);
        for op in CsrOp::ALL {
            roundtrip(Inst::Csr {
                op,
                rd: r(10),
                rs1: r(11),
                csr: csr::CYCLE,
            });
            roundtrip(Inst::CsrImm {
                op,
                rd: r(10),
                zimm: 31,
                csr: csr::MSCRATCH,
            });
        }
    }

    #[test]
    fn fence_roundtrips_as_fence() {
        let word = encode(&Inst::Fence).unwrap();
        assert_eq!(decode(word).unwrap(), Inst::Fence);
    }

    #[test]
    fn illegal_words_rejected() {
        assert!(decode(0x0000_0000).is_err()); // all zeros
        assert!(decode(0xffff_ffff).is_err()); // all ones
        assert!(decode(0x0000_0057).is_err()); // FP opcode, unsupported
    }

    #[test]
    fn imm_extraction_signs() {
        // lw a0, -4(sp): imm should be -4
        let w = encode(&Inst::Load {
            width: MemWidth::W,
            rd: Reg::A0,
            rs1: Reg::SP,
            offset: -4,
        })
        .unwrap();
        match decode(w).unwrap() {
            Inst::Load { offset, .. } => assert_eq!(offset, -4),
            other => panic!("unexpected {other:?}"),
        }
    }
}
